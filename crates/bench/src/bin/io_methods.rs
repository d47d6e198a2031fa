//! Access-method comparison: direct vs sieved vs two-phase collective I/O
//! (DESIGN.md "Two-phase collective I/O").
//!
//! The scenario is the motivating one for two-phase I/O: a **row-major
//! file** read into a **column-distributed** computation. Every rank's
//! direct accesses are tiny strided row fragments, so requests scale with
//! `rows/rank x ranks`; the two-phase method reads each rank's
//! file-conforming block in one contiguous request and reshuffles in the
//! exchange phase, so the request count collapses to one per rank.
//!
//! For each method the table reports measured per-processor request and
//! byte counters, message traffic, simulated I/O time and elapsed time,
//! next to the compiler's estimate (`est req`); every measured counter of
//! rank 0 is asserted equal to the remap nodes' estimate of its method. A second table shows the cost-based selector's estimates
//! and its pick, and the trace-derived per-method request-size histograms
//! are rendered underneath.
//!
//! Usage: `cargo run --release -p ooc-bench --bin io_methods [n] [p]`
//! (default n = 256, p = 16).

use dmsim::{CostModel, Machine, MachineConfig, TraceConfig};
use ooc_array::{
    redistribute_with, ArrayDesc, ArrayId, Distribution, FileLayout, OocEnv, Redistribution, Shape,
};
use ooc_bench::table::secs;
use ooc_bench::TextTable;
use ooc_core::cost::CostEstimate;
use ooc_core::ir::{totals, ArrayIoTotals};
use ooc_core::nodegen::RemapGeometry;
use ooc_core::reorg::Decision;
use pario::{ElemKind, IoMethod};

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args
        .next()
        .map(|s| s.parse().expect("n must be an integer"))
        .unwrap_or(256);
    let p: usize = args
        .next()
        .map(|s| s.parse().expect("p must be an integer"))
        .unwrap_or(16);
    assert!(n.is_multiple_of(p), "n must divide evenly across {p} ranks");

    let shape = Shape::matrix(n, n);
    // Row-block source stored row-major (the file-conforming distribution);
    // column-block destination (the computation-conforming one).
    let src = ArrayDesc::new(
        ArrayId(0),
        "a",
        ElemKind::F32,
        Distribution::row_block(shape.clone(), p),
    )
    .with_layout(FileLayout::row_major(2));
    let dst = ArrayDesc::new(
        ArrayId(1),
        "a'",
        ElemKind::F32,
        Distribution::column_block(shape, p),
    );
    let value = |g: &[usize]| (g[0] * 31 + g[1]) as f32 * 0.5;

    println!("io methods: column-distributed read of a row-major {n}x{n} file, {p} procs\n");

    let geometry = RemapGeometry::new(&Redistribution::new(&src, &dst), 0);

    // ---- Measured comparison table --------------------------------------
    let mut t = TextTable::new(&[
        "method",
        "read req/proc",
        "read bytes",
        "write req/proc",
        "msgs/proc",
        "io time (s)",
        "total (s)",
        "est req",
    ]);
    let mut io_times = Vec::new();
    let mut histograms = Vec::new();
    for method in IoMethod::ALL {
        let mut config = MachineConfig::delta(p);
        config.trace = TraceConfig::on();
        let machine = Machine::new(config);
        let mut report = machine.run(|ctx| {
            let mut env = OocEnv::in_memory(ctx.rank());
            env.alloc(&src).unwrap();
            env.alloc(&dst).unwrap();
            env.load_global(&src, &value).unwrap();
            redistribute_with(ctx, &mut env, &src, &dst, method, ctx).unwrap();
        });
        let s = report.per_proc()[0].stats;
        let est = totals(&geometry.nodes(method));
        let sum = |f: fn(&ArrayIoTotals) -> u64| est.per_array.values().map(f).sum::<u64>();
        t.row(vec![
            method.label().to_string(),
            s.io_read_requests.to_string(),
            s.io_bytes_read.to_string(),
            s.io_write_requests.to_string(),
            s.msgs_sent.to_string(),
            secs(s.time_io),
            secs(report.elapsed()),
            sum(|a| a.read_requests).to_string(),
        ]);
        let (reads, writes) = (sum(|a| a.read_elems), sum(|a| a.write_elems));
        assert_eq!(
            [
                s.io_read_requests,
                s.io_bytes_read,
                s.io_write_requests,
                s.io_bytes_written
            ],
            [
                sum(|a| a.read_requests),
                4 * reads,
                sum(|a| a.write_requests),
                4 * writes
            ],
            "{}: measured disk requests and bytes must equal the estimate",
            method.label()
        );
        assert_eq!(
            [s.msgs_sent, s.bytes_sent],
            [est.comm_messages, est.comm_bytes],
            "{}: measured messages and bytes must equal the estimate",
            method.label()
        );
        io_times.push((method, s.time_io));
        let trace = report.take_trace().expect("tracing was enabled");
        let reg = ooc_trace::metrics::from_trace(&trace);
        if let Some(h) = reg.io_request_bytes_by_method.get(method.label()) {
            histograms.push((method, h.clone()));
        }
    }
    print!("{}", t.render());
    println!();

    // ---- Selector table --------------------------------------------------
    let model = CostModel::delta(p);
    let choice = Decision::new(format!("remap {}", src.name), IoMethod::ALL, None, |m| {
        CostEstimate::from_nest(&geometry.nodes(m), &model, 4)
    });
    let mut sel = TextTable::new(&["method", "est req", "est bytes", "est time (s)", "chosen"]);
    for (m, est) in &choice.estimates {
        sel.row(vec![
            m.label().to_string(),
            est.io_requests().to_string(),
            est.io_bytes().to_string(),
            secs(est.time()),
            if *m == choice.chosen {
                "<-".into()
            } else {
                String::new()
            },
        ]);
    }
    print!("{}", sel.render());
    println!();

    // ---- Per-method request-size histograms (from the trace) -------------
    for (method, h) in &histograms {
        print!(
            "{}",
            h.render(&format!("{} request bytes", method.label()), 30)
        );
    }
    println!();

    // The paper's claim, kept honest: at >= 16 ranks the two-phase method
    // beats direct by at least 5x on simulated I/O time, and the selector
    // finds that on its own.
    let time_of = |m: IoMethod| io_times.iter().find(|(x, _)| *x == m).unwrap().1;
    let (direct, two_phase) = (time_of(IoMethod::Direct), time_of(IoMethod::TwoPhase));
    println!(
        "direct/two-phase io-time ratio: {:.1}x (selector chose {})",
        direct / two_phase,
        choice.chosen.label()
    );
    if p >= 16 {
        assert!(
            direct >= 5.0 * two_phase,
            "two-phase must win >=5x at {p} ranks: direct {direct} vs two-phase {two_phase}"
        );
        assert_eq!(
            choice.chosen,
            IoMethod::TwoPhase,
            "selector must pick two-phase on its own"
        );
    }
}
