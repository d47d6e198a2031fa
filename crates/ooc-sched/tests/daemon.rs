//! Loopback integration tests for `oocd`, the multi-tenant I/O daemon:
//! submit/drain/scorecard round-trips, byte-identical determinism across
//! daemon instances regardless of socket interleaving, the malformed-frame
//! abuse corpus, mid-stream client disconnects, drain semantics and read
//! timeouts. Everything runs over real sockets on the loopback interface
//! (TCP on every platform, Unix-domain where available).

use std::sync::mpsc;
use std::time::Duration;

use ooc_sched::serve::{
    serve, submit_json, write_frame, Client, Listener, ProtoError, ServeConfig,
};
use ooc_sched::{
    run_workload_guarded_observed, DomainConfig, EventLog, IoReq, JobProfile, JobSpec,
};
use ooc_trace::digest::Fnv1a;
use ooc_trace::json::Json;

fn profile(reqs: usize, dt: f64) -> JobProfile {
    let stream: Vec<IoReq> = (0..reqs)
        .map(|i| IoReq {
            t0: i as f64 * dt,
            t1: i as f64 * dt + 0.5 * dt,
            requests: 1,
            bytes: 4096,
            offset: Some(i as u64 * 4096),
            write: i % 3 == 0,
        })
        .collect();
    JobProfile {
        rank_finish: vec![reqs as f64 * dt; 2],
        streams: vec![stream.clone(), stream],
        ..JobProfile::default()
    }
}

fn specs() -> Vec<(String, JobSpec)> {
    (0..6)
        .map(|i| {
            let tenant = format!("tenant-{}", i % 3);
            let spec = JobSpec::new(format!("job-{i}"), profile(4 + i, 1.0))
                .with_submit(i as f64 * 0.5)
                .with_weight(1.0 + i as f64);
            (tenant, spec)
        })
        .collect()
}

fn chaos_cfg() -> ServeConfig {
    ServeConfig {
        domain: DomainConfig {
            seed: 11,
            hang_chance: 0.3,
            watchdog_quantum: 3.0,
            deadline_factor: 4.0,
            ..DomainConfig::default()
        },
        sample_every: 2.0,
        read_timeout: Some(Duration::from_secs(5)),
        ..ServeConfig::default()
    }
}

fn start_tcp(cfg: ServeConfig) -> ooc_sched::DaemonHandle {
    serve(Listener::bind_tcp("127.0.0.1:0").unwrap(), cfg)
}

fn stop(handle: ooc_sched::DaemonHandle) {
    handle.shutdown();
    handle.join().unwrap();
}

fn ok_num(resp: &Json, key: &str) -> f64 {
    resp.get(key)
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("missing {key} in {resp:?}"))
}

/// Read a subscriber stream to its end frame: the lines, the bytes of
/// line text received, and the end frame.
fn read_stream(sub: &mut Client) -> (Vec<String>, usize, Json) {
    let mut lines = Vec::new();
    let mut bytes = 0;
    loop {
        let frame = sub.next_frame().unwrap().expect("stream ends with a frame");
        if matches!(frame.get("end"), Some(Json::Bool(true))) {
            return (lines, bytes, frame);
        }
        let line = frame.get("line").and_then(Json::as_str).unwrap();
        bytes += line.len();
        lines.push(line.to_string());
    }
}

/// 400 jobs of two 200-request streams: the stream it publishes is far
/// larger than the loopback socket buffers, so a subscriber that never
/// reads leaves its connection thread blocked in `write`.
fn submit_big_session(addr: &str) -> Client {
    let mut c = Client::connect_tcp(addr).unwrap();
    for i in 0..400 {
        let spec =
            JobSpec::new(format!("big-{i:03}"), profile(200, 1.0)).with_submit(i as f64 * 0.25);
        c.request(&submit_json(&format!("tenant-{}", i % 7), &spec))
            .unwrap();
    }
    c
}

/// Run `f` on its own thread and wait at most `limit` for it. A thread
/// that overruns is left behind: there is nothing to join it with.
fn within(limit: Duration, f: impl FnOnce() + Send + 'static) -> bool {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    let done = rx.recv_timeout(limit).is_ok();
    if done {
        worker.join().unwrap();
    }
    done
}

#[test]
fn submit_drain_scorecard_round_trip_over_tcp() {
    let daemon = start_tcp(chaos_cfg());
    let mut c = Client::connect_tcp(&daemon.addr).unwrap();

    let st = c.request("{\"op\":\"status\"}").unwrap();
    assert_eq!(st.get("phase").and_then(Json::as_str), Some("accepting"));
    assert_eq!(ok_num(&st, "jobs"), 0.0);

    for (tenant, spec) in specs() {
        let resp = c.request(&submit_json(&tenant, &spec)).unwrap();
        assert!(matches!(resp.get("ok"), Some(Json::Bool(true))));
    }
    let st = c.request("{\"op\":\"status\"}").unwrap();
    assert_eq!(ok_num(&st, "jobs"), 6.0);
    assert_eq!(ok_num(&st, "tenants"), 3.0);

    // Scorecard before any drain is a typed refusal, not a panic.
    let err = c.request("{\"op\":\"scorecard\"}").unwrap_err();
    assert!(matches!(err, ProtoError::Refused { ref kind, .. } if kind == "not_ready"));

    let summary = c.request("{\"op\":\"drain\"}").unwrap();
    assert_eq!(ok_num(&summary, "jobs"), 6.0);
    assert!(ok_num(&summary, "makespan") > 0.0);
    let fnv = summary.get("stream_fnv").and_then(Json::as_str).unwrap();
    assert_eq!(fnv.len(), 16);

    let card = c.request("{\"op\":\"scorecard\"}").unwrap();
    let sc = card.get("scorecard").expect("scorecard body");
    assert_eq!(ok_num(sc, "jobs"), 6.0);
    assert_eq!(sc.get("stream_fnv").and_then(Json::as_str), Some(fnv));
    let prom = card.get("prom").and_then(Json::as_str).unwrap();
    ooc_trace::prom::validate(prom).expect("exposition validates");

    // Post-drain submissions are refused with the drain-phase error.
    let (tenant, spec) = &specs()[0];
    let late = JobSpec::new("latecomer", spec.profile.clone());
    let err = c.request(&submit_json(tenant, &late)).unwrap_err();
    assert!(matches!(err, ProtoError::Refused { ref kind, .. } if kind == "draining"));
    // And a second drain is refused too.
    let err = c.request("{\"op\":\"drain\"}").unwrap_err();
    assert!(matches!(err, ProtoError::Refused { ref kind, .. } if kind == "draining"));

    drop(c);
    stop(daemon);
}

/// The daemon is a virtual-time service: the wall-clock interleaving of
/// submitting sockets must not influence the drained run. Two daemons fed
/// the same logical submissions — one job per connection in forward order,
/// then everything on one connection in reverse order — emit byte-identical
/// summaries, scorecards and Prometheus expositions.
#[test]
fn two_daemons_with_permuted_arrivals_emit_byte_identical_artifacts() {
    let run = |reverse: bool, per_conn: bool| -> (String, String) {
        let daemon = start_tcp(chaos_cfg());
        let mut order = specs();
        if reverse {
            order.reverse();
        }
        if per_conn {
            for (tenant, spec) in &order {
                let mut c = Client::connect_tcp(&daemon.addr).unwrap();
                c.request(&submit_json(tenant, spec)).unwrap();
            }
        } else {
            let mut c = Client::connect_tcp(&daemon.addr).unwrap();
            for (tenant, spec) in &order {
                c.request(&submit_json(tenant, spec)).unwrap();
            }
        }
        let mut c = Client::connect_tcp(&daemon.addr).unwrap();
        c.request("{\"op\":\"drain\"}").unwrap();
        let card = c.request("{\"op\":\"scorecard\"}").unwrap();
        let prom = card.get("prom").and_then(Json::as_str).unwrap().to_string();
        let sc = format!("{:?}", card.get("scorecard").unwrap());
        drop(c);
        stop(daemon);
        (sc, prom)
    };
    let a = run(false, true);
    let b = run(true, false);
    assert_eq!(a.0, b.0, "scorecards diverged across arrival orders");
    assert_eq!(a.1, b.1, "prom expositions diverged across arrival orders");
}

/// Abuse corpus: every malformed frame comes back as a typed error (or a
/// closed connection where the framing itself is destroyed) and the daemon
/// keeps serving fresh connections afterwards.
#[test]
fn malformed_frames_get_typed_errors_and_never_kill_the_daemon() {
    let daemon = start_tcp(ServeConfig {
        max_frame: 256 << 10,
        ..chaos_cfg()
    });

    // Oversized frame announcement: typed error, connection closed.
    let mut c = Client::connect_tcp(&daemon.addr).unwrap();
    c.send_raw(&u32::MAX.to_le_bytes()).unwrap();
    let err = c.next_frame().unwrap().unwrap();
    assert_eq!(
        err.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("frame_too_large")
    );
    assert!(c.next_frame().unwrap().is_none(), "connection must close");

    // Truncated length prefix: client hangs up mid-prefix; daemon drops it.
    let mut c = Client::connect_tcp(&daemon.addr).unwrap();
    c.send_raw(&[0x08, 0x00]).unwrap();
    drop(c);

    // Truncated payload: announce 64 bytes, deliver 3, hang up.
    let mut c = Client::connect_tcp(&daemon.addr).unwrap();
    c.send_raw(&64u32.to_le_bytes()).unwrap();
    c.send_raw(b"abc").unwrap();
    drop(c);

    // Invalid JSON in a well-formed frame: typed error, connection LIVES.
    let mut c = Client::connect_tcp(&daemon.addr).unwrap();
    let err = c.request("{not json").unwrap_err();
    assert!(matches!(err, ProtoError::BadJson { .. }), "{err:?}");
    // NaN is invalid JSON for this protocol too.
    let err = c.request("{\"op\":\"submit\",\"job\":NaN}").unwrap_err();
    assert!(matches!(err, ProtoError::BadJson { .. }), "{err:?}");
    // 200 000 nested arrays in a 200 KB frame: a typed error, not a stack
    // overflow that aborts the daemon and every tenant's session with it.
    let err = c.request(&"[".repeat(200_000)).unwrap_err();
    assert!(
        matches!(err, ProtoError::BadJson { ref detail } if detail.contains("nest")),
        "{err:?}"
    );
    let st = c.request("{\"op\":\"status\"}").unwrap();
    assert_eq!(st.get("phase").and_then(Json::as_str), Some("accepting"));

    // Unknown op / missing op / wrong types: typed errors, same connection.
    for bad in [
        "{\"op\":\"frobnicate\"}",
        "{\"noop\":true}",
        "{\"op\":42}",
        "{\"op\":\"submit\"}",
        "{\"op\":\"submit\",\"job\":{\"name\":\"x\"}}",
    ] {
        let err = c.request(bad).unwrap_err();
        assert!(
            matches!(err, ProtoError::BadRequest { .. }),
            "{bad}: {err:?}"
        );
    }

    // Structurally malformed profile: the typed admission gate refuses it.
    let err = c
        .request(
            "{\"op\":\"submit\",\"job\":{\"name\":\"poison\",\"submit\":0,\"profile\":\
             {\"rank_finish\":[2.0,3.0],\"streams\":[[[0.0,1.0,1,64,null,false]]]}}}",
        )
        .unwrap_err();
    assert!(
        matches!(err, ProtoError::Refused { ref kind, ref detail, .. }
            if kind == "admission" && detail.contains("malformed profile")),
        "{err:?}"
    );

    // Duplicate job id across *different* connections is refused too.
    let (tenant, spec) = &specs()[0];
    c.request(&submit_json(tenant, spec)).unwrap();
    let mut c2 = Client::connect_tcp(&daemon.addr).unwrap();
    let err = c2.request(&submit_json(tenant, spec)).unwrap_err();
    assert!(
        matches!(err, ProtoError::Refused { ref kind, ref detail, .. }
            if kind == "admission" && detail.contains("more than once")),
        "{err:?}"
    );

    // After all that abuse the daemon still drains the surviving job.
    let summary = c2.request("{\"op\":\"drain\"}").unwrap();
    assert_eq!(ok_num(&summary, "jobs"), 1.0);
    drop(c);
    drop(c2);
    stop(daemon);
}

/// Subscribers get the full observatory stream; one disconnecting mid-run
/// is dropped from the fan-out without stalling the drain, and a late
/// subscriber after the drain replays the identical stream.
#[test]
fn subscribers_stream_replay_and_survive_mid_run_disconnects() {
    let daemon = start_tcp(chaos_cfg());
    let mut submitter = Client::connect_tcp(&daemon.addr).unwrap();
    for (tenant, spec) in specs() {
        submitter.request(&submit_json(&tenant, &spec)).unwrap();
    }

    // Live subscriber, registered before the drain.
    let mut live = Client::connect_tcp(&daemon.addr).unwrap();
    let ack = live.request("{\"op\":\"subscribe\"}").unwrap();
    assert!(matches!(ack.get("subscribed"), Some(Json::Bool(true))));

    // A second subscriber that vanishes immediately — the daemon must shrug.
    let mut doomed = Client::connect_tcp(&daemon.addr).unwrap();
    doomed.request("{\"op\":\"subscribe\"}").unwrap();
    drop(doomed);

    let summary = submitter.request("{\"op\":\"drain\"}").unwrap();
    let fnv = summary
        .get("stream_fnv")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();

    // Drain the live stream to its end frame.
    let mut live_lines = Vec::new();
    let end = loop {
        let frame = live
            .next_frame()
            .unwrap()
            .expect("stream ends with a frame");
        if matches!(frame.get("end"), Some(Json::Bool(true))) {
            break frame;
        }
        live_lines.push(
            frame
                .get("line")
                .and_then(Json::as_str)
                .unwrap()
                .to_string(),
        );
    };
    assert!(!live_lines.is_empty(), "the run must publish events");
    assert_eq!(
        end.get("stream_fnv").and_then(Json::as_str),
        Some(fnv.as_str())
    );
    let events = ok_num(&end, "events") as usize;
    let samples = ok_num(&end, "samples") as usize;
    assert_eq!(live_lines.len(), events + samples);

    // Late subscriber: full replay, identical lines, same end frame.
    let mut late = Client::connect_tcp(&daemon.addr).unwrap();
    late.request("{\"op\":\"subscribe\"}").unwrap();
    let mut late_lines = Vec::new();
    let late_end = loop {
        let frame = late
            .next_frame()
            .unwrap()
            .expect("replay ends with a frame");
        if matches!(frame.get("end"), Some(Json::Bool(true))) {
            break frame;
        }
        late_lines.push(
            frame
                .get("line")
                .and_then(Json::as_str)
                .unwrap()
                .to_string(),
        );
    };
    assert_eq!(late_lines, live_lines, "replay must match the live stream");
    assert_eq!(
        late_end.get("stream_fnv").and_then(Json::as_str),
        Some(fnv.as_str())
    );

    drop(submitter);
    drop(live);
    drop(late);
    stop(daemon);
}

/// The daemon's stream checked against an oracle outside it: the same
/// specs and configuration run in process through the guarded runtime
/// with an [`EventLog`]. The live subscriber sees exactly the render's
/// lines (the daemon publishes in delivery order, the render merges by
/// time, so they are compared as multisets), and the drain's `stream_fnv`
/// is the FNV-1a digest of that render.
#[test]
fn the_daemon_stream_matches_an_in_process_event_log() {
    let cfg = chaos_cfg();
    let daemon = start_tcp(cfg.clone());
    let mut live = Client::connect_tcp(&daemon.addr).unwrap();
    live.request("{\"op\":\"subscribe\"}").unwrap();
    let mut c = Client::connect_tcp(&daemon.addr).unwrap();
    for (tenant, spec) in specs() {
        c.request(&submit_json(&tenant, &spec)).unwrap();
    }
    let summary = c.request("{\"op\":\"drain\"}").unwrap();
    let (mut lines, _, end) = read_stream(&mut live);
    drop(live);
    drop(c);
    stop(daemon);

    let mut specs: Vec<JobSpec> = specs().into_iter().map(|(_, s)| s).collect();
    specs.sort_by(|a, b| a.submit.total_cmp(&b.submit).then(a.name.cmp(&b.name)));
    let mut log = EventLog::default();
    run_workload_guarded_observed(&specs, &cfg.domain, cfg.sample_every, &mut log).unwrap();
    let render = log.render();
    let mut oracle: Vec<&str> = render.lines().collect();
    assert!(log.events.len() > 20 && !log.samples.is_empty());
    assert_eq!(lines.len(), log.events.len() + log.samples.len());
    lines.sort();
    oracle.sort();
    assert_eq!(lines, oracle, "the live stream is not the render's lines");
    let fnv = format!("{:016x}", Fnv1a::new().bytes(render.as_bytes()).finish());
    assert_eq!(
        summary.get("stream_fnv").and_then(Json::as_str),
        Some(fnv.as_str())
    );
    assert_eq!(
        end.get("stream_fnv").and_then(Json::as_str),
        Some(fnv.as_str())
    );
}

/// A subscriber that stops reading once the socket buffers fill must not
/// wedge shutdown: its connection thread sits in `write`, and shutdown
/// closes the connection under it.
#[test]
fn a_stalled_subscriber_does_not_wedge_shutdown() {
    let daemon = start_tcp(chaos_cfg());
    let mut stalled = Client::connect_tcp(&daemon.addr).unwrap();
    stalled.request("{\"op\":\"subscribe\"}").unwrap();
    let mut c = submit_big_session(&daemon.addr);
    let summary = c.request("{\"op\":\"drain\"}").unwrap();
    assert_eq!(ok_num(&summary, "jobs"), 400.0);
    drop(c);
    let stopped = within(Duration::from_secs(10), move || stop(daemon));
    assert!(
        stopped,
        "shutdown + join wedged behind a stalled subscriber"
    );
    drop(stalled);
}

/// The drain never waits for subscribers: one that never reads does not
/// hold up the run, and another one still receives every line and the
/// matching end frame.
#[test]
fn the_drain_never_waits_for_a_subscriber_that_does_not_read() {
    let daemon = start_tcp(chaos_cfg());
    let mut stalled = Client::connect_tcp(&daemon.addr).unwrap();
    stalled.request("{\"op\":\"subscribe\"}").unwrap();
    let mut reader = Client::connect_tcp(&daemon.addr).unwrap();
    reader.request("{\"op\":\"subscribe\"}").unwrap();
    let mut c = submit_big_session(&daemon.addr);
    let summary = c.request("{\"op\":\"drain\"}").unwrap();
    let (lines, bytes, end) = read_stream(&mut reader);
    let fnv = summary.get("stream_fnv").and_then(Json::as_str).unwrap();
    assert_eq!(end.get("stream_fnv").and_then(Json::as_str), Some(fnv));
    assert_eq!(
        lines.len(),
        (ok_num(&end, "events") + ok_num(&end, "samples")) as usize
    );
    // More than the loopback buffers hold, so the other subscriber is
    // really stalled.
    assert!(bytes > 16 << 20, "only {bytes} bytes streamed");
    drop(stalled);
    drop(reader);
    drop(c);
    stop(daemon);
}

/// A client that goes silent mid-frame is disconnected by the read
/// timeout; the daemon itself keeps serving.
#[test]
fn silent_clients_hit_the_read_timeout_and_are_dropped() {
    let daemon = start_tcp(ServeConfig {
        read_timeout: Some(Duration::from_millis(80)),
        ..chaos_cfg()
    });
    let mut mute = Client::connect_tcp(&daemon.addr).unwrap();
    // Half a frame, then silence.
    mute.send_raw(&32u32.to_le_bytes()).unwrap();
    // The daemon reports the transport error (best-effort) and closes; all
    // this client can rely on is that the connection ends.
    let outcome = mute.next_frame();
    match outcome {
        Ok(None) => {}
        Ok(Some(frame)) => {
            assert!(
                matches!(frame.get("ok"), Some(Json::Bool(false))),
                "{frame:?}"
            );
            assert!(mute.next_frame().unwrap().is_none());
        }
        Err(_) => {} // reset mid-read is also a legal way to die
    }
    // Fresh connections still work.
    let mut c = Client::connect_tcp(&daemon.addr).unwrap();
    let st = c.request("{\"op\":\"status\"}").unwrap();
    assert_eq!(st.get("phase").and_then(Json::as_str), Some("accepting"));
    drop(mute);
    drop(c);
    stop(daemon);
}

#[cfg(unix)]
#[test]
fn unix_domain_socket_serves_the_same_protocol() {
    let dir = std::env::temp_dir().join(format!("oocd-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("oocd.sock");
    let daemon = serve(Listener::bind_unix(&path).unwrap(), chaos_cfg());

    let mut c = Client::connect_unix(path.to_str().unwrap()).unwrap();
    for (tenant, spec) in specs() {
        c.request(&submit_json(&tenant, &spec)).unwrap();
    }
    let summary = c.request("{\"op\":\"drain\"}").unwrap();
    assert_eq!(ok_num(&summary, "jobs"), 6.0);

    // The scorecard matches a TCP daemon fed the same submissions.
    let card_unix = format!(
        "{:?}",
        c.request("{\"op\":\"scorecard\"}")
            .unwrap()
            .get("scorecard")
            .unwrap()
    );
    drop(c);
    stop(daemon);
    assert!(!path.exists(), "the socket file is unlinked on shutdown");
    let _ = std::fs::remove_dir_all(&dir);

    let tcp = start_tcp(chaos_cfg());
    let mut c = Client::connect_tcp(&tcp.addr).unwrap();
    for (tenant, spec) in specs() {
        c.request(&submit_json(&tenant, &spec)).unwrap();
    }
    c.request("{\"op\":\"drain\"}").unwrap();
    let card_tcp = format!(
        "{:?}",
        c.request("{\"op\":\"scorecard\"}")
            .unwrap()
            .get("scorecard")
            .unwrap()
    );
    drop(c);
    stop(tcp);
    assert_eq!(card_unix, card_tcp, "transport must not leak into results");
}

/// Draining an empty session is legal: zero jobs, zero makespan, a
/// scorecard with no quantiles (they are unknown, not zero).
#[test]
fn draining_an_empty_session_yields_the_zero_completions_scorecard() {
    let daemon = start_tcp(chaos_cfg());
    let mut c = Client::connect_tcp(&daemon.addr).unwrap();
    let summary = c.request("{\"op\":\"drain\"}").unwrap();
    assert_eq!(ok_num(&summary, "jobs"), 0.0);
    assert_eq!(ok_num(&summary, "makespan"), 0.0);
    let card = c.request("{\"op\":\"scorecard\"}").unwrap();
    let sc = card.get("scorecard").unwrap();
    assert!(matches!(sc.get("p95_turnaround"), Some(Json::Null)));
    let prom = card.get("prom").and_then(Json::as_str).unwrap();
    ooc_trace::prom::validate(prom).unwrap();
    assert!(!prom.contains("ooc_slo_turnaround_seconds{"));
    drop(c);
    stop(daemon);
}

/// A daemon launched with a `DomainConfig` the executive cannot sweep
/// (here `epoch: 0`) must refuse the drain with a typed error and end the
/// session — not panic on the connection thread and sit in `draining`
/// for ever with its subscribers waiting.
#[test]
fn a_bad_domain_config_fails_the_drain_closed_instead_of_wedging() {
    let daemon = start_tcp(ServeConfig {
        domain: DomainConfig {
            epoch: 0.0,
            ..chaos_cfg().domain
        },
        ..chaos_cfg()
    });
    let mut c = Client::connect_tcp(&daemon.addr).unwrap();
    for (tenant, spec) in specs() {
        c.request(&submit_json(&tenant, &spec)).unwrap();
    }
    let mut sub = Client::connect_tcp(&daemon.addr).unwrap();
    sub.request("{\"op\":\"subscribe\"}").unwrap();

    let err = c.request("{\"op\":\"drain\"}").unwrap_err();
    assert!(
        matches!(&err, ProtoError::Refused { kind, detail }
            if kind == "admission" && detail.contains("epoch")),
        "got {err:?}"
    );
    // The subscriber is released with a bare end frame: nothing ran.
    let end = sub.next_frame().unwrap().expect("stream ends with a frame");
    assert!(matches!(end.get("end"), Some(Json::Bool(true))));
    assert!(end.get("stream_fnv").is_none());
    // The session is over, and says so.
    let status = c.request("{\"op\":\"status\"}").unwrap();
    assert_eq!(status.get("phase").and_then(Json::as_str), Some("drained"));
    let again = c.request("{\"op\":\"drain\"}").unwrap_err();
    assert!(matches!(again, ProtoError::Refused { ref kind, .. } if kind == "draining"));
    drop(c);
    drop(sub);
    stop(daemon);
}

/// `write_frame` is what the raw-bytes abuse cases bypass — sanity-check
/// that a shutdown op over it closes cleanly from the daemon side.
#[test]
fn shutdown_op_stops_the_daemon() {
    let daemon = start_tcp(chaos_cfg());
    let addr = daemon.addr.clone();
    let mut c = Client::connect_tcp(&addr).unwrap();
    let mut raw = Vec::new();
    write_frame(&mut raw, "{\"op\":\"shutdown\"}").unwrap();
    c.send_raw(&raw).unwrap();
    let resp = c.next_frame().unwrap().unwrap();
    assert!(matches!(resp.get("stopping"), Some(Json::Bool(true))));
    daemon.join().unwrap();
}
