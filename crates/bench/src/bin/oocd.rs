//! `oocd` — the multi-tenant I/O daemon, as a standalone process.
//!
//! Binds a Unix-domain or TCP socket, then serves the length-prefixed
//! JSON protocol of [`mod@ooc_sched::serve`]: many tenants submit
//! virtual-time job profiles, `drain` seals the timeline and runs the
//! session through the guarded runtime, subscribers stream the
//! observatory, and `shutdown` stops the process. The daemon exits with
//! status 0 when a client sends `shutdown`.
//!
//! Usage: `cargo run --release -p ooc-bench --bin oocd --
//! [--socket PATH | --tcp ADDR] [--seed S] [--hang-chance F]
//! [--disks D] [--sample-every T] [--read-timeout-ms M]
//! [--max-frame BYTES]`
//!
//! Defaults: TCP on `127.0.0.1:0` (the bound port is printed), and the
//! shared [`ooc_bench::daemon_serve_config`] chaos shape with seed 2026 —
//! the same shape `oocload` uses for its embedded daemon, so external and
//! embedded runs are byte-comparable.

use std::time::Duration;

use ooc_sched::serve::{serve, Listener};

struct Opts {
    socket: Option<String>,
    tcp: String,
    seed: u64,
    hang_chance: Option<f64>,
    disks: Option<usize>,
    sample_every: Option<f64>,
    read_timeout_ms: Option<u64>,
    max_frame: Option<u32>,
}

fn parse_opts() -> Opts {
    let mut o = Opts {
        socket: None,
        tcp: "127.0.0.1:0".to_string(),
        seed: 2026,
        hang_chance: None,
        disks: None,
        sample_every: None,
        read_timeout_ms: None,
        max_frame: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| panic!("{a} needs a value"));
        match a.as_str() {
            "--socket" => o.socket = Some(val()),
            "--tcp" => o.tcp = val(),
            "--seed" => o.seed = val().parse().expect("--seed S"),
            "--hang-chance" => o.hang_chance = Some(val().parse().expect("--hang-chance F")),
            "--disks" => o.disks = Some(val().parse().expect("--disks D")),
            "--sample-every" => o.sample_every = Some(val().parse().expect("--sample-every T")),
            "--read-timeout-ms" => {
                o.read_timeout_ms = Some(val().parse().expect("--read-timeout-ms M"))
            }
            "--max-frame" => o.max_frame = Some(val().parse().expect("--max-frame BYTES")),
            other => panic!("unknown argument {other}"),
        }
    }
    o
}

fn main() {
    let opts = parse_opts();
    let mut cfg = ooc_bench::daemon_serve_config(opts.seed);
    if let Some(h) = opts.hang_chance {
        cfg.domain.hang_chance = h;
    }
    if let Some(d) = opts.disks {
        cfg.domain.disks = d;
    }
    if let Some(s) = opts.sample_every {
        cfg.sample_every = s;
    }
    if let Some(ms) = opts.read_timeout_ms {
        cfg.read_timeout = (ms > 0).then(|| Duration::from_millis(ms));
    }
    if let Some(m) = opts.max_frame {
        cfg.max_frame = m;
    }

    let listener = match &opts.socket {
        #[cfg(unix)]
        Some(path) => Listener::bind_unix(path).expect("bind unix socket"),
        #[cfg(not(unix))]
        Some(_) => panic!("--socket needs a Unix platform; use --tcp"),
        None => Listener::bind_tcp(&opts.tcp).expect("bind tcp socket"),
    };
    let daemon = serve(listener, cfg);
    println!("oocd listening on {}", daemon.addr);
    daemon.join().expect("accept loop");
    println!("oocd stopped");
}
