//! `oocd` — the persistent multi-tenant I/O service.
//!
//! The paper's compiler-directed out-of-core runtime presumes an I/O
//! system that *owns* the disks and serves many programs at once (ViPIOS
//! is the production analogue). This module is that daemon: it holds the
//! disk farm, accepts job submissions from many clients over a
//! Unix-domain or TCP socket, maps the accumulated session onto
//! [`run_workload_guarded_observed`] with the existing admission control
//! and per-tenant QoS policies, and streams the observatory's events and
//! the Prometheus scorecard back to subscribed clients.
//!
//! ## Wire protocol
//!
//! Frames are length-prefixed: a 4-byte little-endian `u32` payload
//! length, then that many bytes of UTF-8 JSON. Requests are objects with
//! an `"op"` field; responses are `{"ok":true,...}` or
//! `{"ok":false,"error":{"kind":K,"detail":D}}`. Verbs:
//!
//! | op          | effect |
//! |-------------|--------|
//! | `submit`    | validate and queue one job (`job` carries the spec)   |
//! | `status`    | phase, job / tenant counts                            |
//! | `subscribe` | turn this connection into an event stream             |
//! | `drain`     | seal the timeline, run the workload, report a summary |
//! | `scorecard` | the SLO scorecard + Prometheus exposition (post-drain)|
//! | `shutdown`  | stop accepting connections and exit the accept loop   |
//!
//! Hardening: per-connection read timeouts, a bounded frame size, and
//! typed [`ProtoError`]s. A malformed *frame* (oversized, truncated) has
//! destroyed the framing, so the daemon reports the error and closes that
//! connection; a malformed *request* in a well-formed frame (bad JSON,
//! unknown op, inadmissible job) is answered with a typed error and the
//! connection keeps serving. A client disconnecting mid-stream is simply
//! dropped from the fan-out.
//!
//! ## Event stream
//!
//! The drain renders each observatory line exactly once, straight into
//! one shared buffer (the hub). Every subscriber keeps its own line cursor
//! into it, copies a batch of frames out under the lock and writes them
//! outside it, so the run never waits for a slow or stalled client, and
//! a late subscriber replays the whole stream from line 0. Shutdown
//! closes every streaming connection, so a subscriber blocked writing to
//! a client that stopped reading cannot hold up `join`.
//!
//! ## Session lifecycle and determinism
//!
//! The daemon is a *virtual-time* service: submissions carry virtual
//! submit times, and nothing executes until `drain` seals the timeline.
//! Drain sorts the accepted specs by `(submit, name)` — a total order,
//! since names are unique — so the wall-clock interleaving of the
//! submitting sockets cannot influence the run. Two daemons fed the same
//! logical submissions therefore produce byte-identical scorecards,
//! expositions and event streams regardless of socket timing; `oocload`
//! and the `daemon-smoke` CI job `cmp` exactly that. After the drain the
//! daemon stays up read-only (`status`, `scorecard`, late `subscribe`
//! replays) until `shutdown`.

use std::collections::BTreeSet;
use std::fmt;
use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use ooc_trace::digest::Fnv1a;
use ooc_trace::json::{self, Json};
use ooc_trace::perfetto::escape_json;

use crate::capture::{IoReq, JobProfile};
use crate::digits::{push_f9, push_f9_field, push_hex16, push_uint_field};
use crate::domain::{run_workload_guarded_observed, DomainConfig, GuardedReport, JobOutcome};
use crate::obs::{
    render_event_into, render_order, render_sample_into, ObsEvent, Sample, WorkloadObserver,
};
use crate::workload::{validate_specs, JobSpec};
use crate::SloScorecard;

/// Default ceiling on a single frame's payload, bytes.
pub const DEFAULT_MAX_FRAME: u32 = 1 << 20;

/// A subscriber copies about this many bytes of frames out of the shared
/// stream per lock and sends them in one `write`; the publisher wakes
/// waiting subscribers about once per this many bytes of new text.
const STREAM_BATCH: usize = 64 << 10;

/// Address space the stream's text reserves before a drain. Untouched
/// pages cost no memory. The size is above glibc's largest dynamic mmap
/// threshold (32 MiB), so the buffer is a mapping of its own: it grows by
/// remapping instead of copying, and goes back to the system when the
/// daemon ends instead of staying in a thread's malloc arena.
const STREAM_RESERVE: usize = 64 << 20;

/// Daemon configuration: the guarded runtime the session maps onto, plus
/// the protocol guards.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The guarded-runtime configuration every drained session runs under
    /// (policy, QoS, watchdog, retries, chaos seed…).
    pub domain: DomainConfig,
    /// Observatory sampling cadence, virtual seconds (positive).
    pub sample_every: f64,
    /// Per-connection read timeout: a client that stays silent mid-frame
    /// for this long is disconnected. `None` disables the guard.
    pub read_timeout: Option<Duration>,
    /// Maximum accepted frame payload, bytes.
    pub max_frame: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            domain: DomainConfig::default(),
            sample_every: 5.0,
            read_timeout: Some(Duration::from_secs(5)),
            max_frame: DEFAULT_MAX_FRAME,
        }
    }
}

/// Typed protocol error. Frame-level variants ([`ProtoError::FrameTooLarge`],
/// [`ProtoError::Truncated`], [`ProtoError::Io`]) mean the framing is lost
/// and the connection closes after reporting; request-level variants keep
/// the connection serving.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtoError {
    /// The length prefix announces a payload beyond the configured bound.
    FrameTooLarge { len: u32, max: u32 },
    /// The stream ended inside a length prefix or payload.
    Truncated { context: &'static str },
    /// The payload is not valid JSON (or not UTF-8).
    BadJson { detail: String },
    /// Well-formed JSON that is not a valid request.
    BadRequest { detail: String },
    /// The server refused the request (admission error, wrong phase…).
    /// `kind` is the machine-readable tag from the error response.
    Refused { kind: String, detail: String },
    /// Transport failure (timeout, reset).
    Io { detail: String },
}

impl ProtoError {
    /// Stable machine-readable tag, mirrored in error responses.
    pub fn kind(&self) -> &str {
        match self {
            ProtoError::FrameTooLarge { .. } => "frame_too_large",
            ProtoError::Truncated { .. } => "truncated",
            ProtoError::BadJson { .. } => "bad_json",
            ProtoError::BadRequest { .. } => "bad_request",
            ProtoError::Refused { kind, .. } => kind,
            ProtoError::Io { .. } => "io",
        }
    }

    /// Whether the connection's framing survived this error (the daemon
    /// keeps serving the connection when true).
    pub fn recoverable(&self) -> bool {
        matches!(
            self,
            ProtoError::BadJson { .. } | ProtoError::BadRequest { .. } | ProtoError::Refused { .. }
        )
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte bound")
            }
            ProtoError::Truncated { context } => {
                write!(f, "stream truncated inside a {context}")
            }
            ProtoError::BadJson { detail } => write!(f, "malformed JSON payload: {detail}"),
            ProtoError::BadRequest { detail } => write!(f, "bad request: {detail}"),
            ProtoError::Refused { kind, detail } => write!(f, "refused ({kind}): {detail}"),
            ProtoError::Io { detail } => write!(f, "transport error: {detail}"),
        }
    }
}

impl std::error::Error for ProtoError {}

fn io_err(e: io::Error) -> ProtoError {
    ProtoError::Io {
        detail: e.to_string(),
    }
}

fn bad_json(e: json::JsonError) -> ProtoError {
    ProtoError::BadJson {
        detail: e.to_string(),
    }
}

/// Read one length-prefixed frame. `Ok(None)` is a clean disconnect at a
/// frame boundary; EOF anywhere else is [`ProtoError::Truncated`].
pub fn read_frame(r: &mut impl Read, max: u32) -> Result<Option<String>, ProtoError> {
    let mut len_buf = [0u8; 4];
    match r.read(&mut len_buf[..1]) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) => return Err(io_err(e)),
    }
    r.read_exact(&mut len_buf[1..])
        .map_err(|_| ProtoError::Truncated {
            context: "length prefix",
        })?;
    let len = u32::from_le_bytes(len_buf);
    if len > max {
        return Err(ProtoError::FrameTooLarge { len, max });
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)
        .map_err(|_| ProtoError::Truncated { context: "payload" })?;
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| ProtoError::BadJson {
            detail: "payload is not UTF-8".to_string(),
        })
}

/// Write one length-prefixed frame. Prefix and payload go out in a single
/// `write_all` — two small writes per frame would trip Nagle + delayed-ACK
/// on TCP and cost ~40ms per request.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let mut frame = Vec::with_capacity(4 + payload.len());
    push_frame(&mut frame, payload)?;
    w.write_all(&frame)?;
    w.flush()
}

/// Append one length-prefixed frame to `out`.
fn push_frame(out: &mut Vec<u8>, payload: &str) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(payload.as_bytes());
    Ok(())
}

fn error_json(kind: &str, detail: &str) -> String {
    format!(
        "{{\"ok\":false,\"error\":{{\"kind\":\"{}\",\"detail\":\"{}\"}}}}",
        escape_json(kind),
        escape_json(detail)
    )
}

// ---------------------------------------------------------------------------
// Connections: one type over Unix-domain and TCP sockets.

/// A daemon- or client-side socket connection.
#[derive(Debug)]
pub enum Conn {
    /// Unix-domain stream.
    #[cfg(unix)]
    Unix(UnixStream),
    /// TCP stream (loopback in every shipped use).
    Tcp(TcpStream),
}

impl Conn {
    fn tcp(s: TcpStream) -> Conn {
        // Frames are written whole, but disable Nagle anyway so streamed
        // subscriber frames are never held back for an ACK.
        let _ = s.set_nodelay(true);
        Conn::Tcp(s)
    }

    fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(d),
            Conn::Tcp(s) => s.set_read_timeout(d),
        }
    }

    fn try_clone(&self) -> io::Result<Conn> {
        match self {
            #[cfg(unix)]
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
        }
    }

    fn shutdown(&self) {
        match self {
            #[cfg(unix)]
            Conn::Unix(s) => {
                let _ = s.shutdown(Shutdown::Both);
            }
            Conn::Tcp(s) => {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

/// The daemon's listening socket.
#[derive(Debug)]
pub enum Listener {
    /// Unix-domain socket; the path is unlinked when the daemon exits.
    #[cfg(unix)]
    Unix(UnixListener, std::path::PathBuf),
    /// TCP socket.
    Tcp(TcpListener),
}

impl Listener {
    /// Bind a Unix-domain listener, replacing a stale socket file.
    #[cfg(unix)]
    pub fn bind_unix(path: impl Into<std::path::PathBuf>) -> io::Result<Listener> {
        let path = path.into();
        let _ = std::fs::remove_file(&path);
        Ok(Listener::Unix(UnixListener::bind(&path)?, path))
    }

    /// Bind a TCP listener (use `127.0.0.1:0` for an ephemeral port).
    pub fn bind_tcp(addr: &str) -> io::Result<Listener> {
        TcpListener::bind(addr).map(Listener::Tcp)
    }

    /// Human-readable bound address (the socket path, or `host:port`).
    pub fn addr(&self) -> String {
        match self {
            #[cfg(unix)]
            Listener::Unix(_, p) => p.display().to_string(),
            Listener::Tcp(l) => l
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "<unbound>".to_string()),
        }
    }

    fn accept(&self) -> io::Result<Conn> {
        match self {
            #[cfg(unix)]
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Conn::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::tcp(s)),
        }
    }

    /// Open a throwaway client connection to this listener — the shutdown
    /// path uses it to wake the blocking accept loop.
    fn wake(&self) {
        match self {
            #[cfg(unix)]
            Listener::Unix(_, p) => {
                let _ = UnixStream::connect(p);
            }
            Listener::Tcp(l) => {
                if let Ok(a) = l.local_addr() {
                    let _ = TcpStream::connect(a);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Daemon state.

/// Where the session sits in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Admissions open.
    Accepting,
    /// A drain is executing; admissions refused.
    Draining,
    /// The run finished; the daemon serves results read-only.
    Drained,
}

impl Phase {
    fn label(self) -> &'static str {
        match self {
            Phase::Accepting => "accepting",
            Phase::Draining => "draining",
            Phase::Drained => "drained",
        }
    }
}

/// The drained session's deterministic artifacts.
struct DrainResult {
    summary: String,
    scorecard: String,
    prom: String,
    stream_fnv: u64,
    events: usize,
    samples: usize,
}

struct State {
    phase: Phase,
    specs: Vec<JobSpec>,
    names: BTreeSet<String>,
    tenants: BTreeSet<String>,
    result: Option<DrainResult>,
}

/// Subscriber fan-out: the whole stream, rendered once. `text` holds
/// every published line followed by `\n`, in publish order, and `ends[i]`
/// is the offset just past line `i`'s newline. Each subscriber walks its
/// own line cursor through it, so a late subscriber replays from line 0
/// and the run never waits for a slow or dead client.
#[derive(Default)]
struct Hub {
    text: String,
    ends: Vec<usize>,
    /// `text.len()` when waiting subscribers were last woken.
    woken: usize,
    /// The run is over: no more lines will be published.
    done: bool,
    /// A second handle on each streaming connection, keyed by subscriber
    /// id, so shutdown can unblock a subscriber stuck in `write`.
    subs: Vec<(u64, Conn)>,
    next_sub: u64,
}

impl Hub {
    /// Line `i` with its trailing newline.
    fn line(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start..self.ends[i]]
    }
}

struct Inner {
    cfg: ServeConfig,
    state: Mutex<State>,
    hub: Mutex<Hub>,
    /// Signalled when the hub has news for waiting subscribers: about
    /// [`STREAM_BATCH`] bytes of new text, the end of the run, or shutdown.
    hub_news: Condvar,
    stop: AtomicBool,
    /// The daemon's own listener — the shutdown path self-connects through
    /// it to wake the blocking accept loop.
    listener: Listener,
}

impl Inner {
    fn hub(&self) -> MutexGuard<'_, Hub> {
        self.hub.lock().expect("no hub holder panics")
    }

    /// Append one line to the stream. `render` writes it without the
    /// newline.
    fn publish(&self, render: impl FnOnce(&mut String)) {
        let mut hub = self.hub();
        render(&mut hub.text);
        hub.text.push('\n');
        let end = hub.text.len();
        hub.ends.push(end);
        // One wake per batch: a wake per line would be a futex syscall
        // per line.
        if end - hub.woken >= STREAM_BATCH {
            hub.woken = end;
            self.hub_news.notify_all();
        }
    }

    /// The run is over: live subscribers send what is left and their end
    /// frame; later ones only replay.
    fn finish_stream(&self) {
        self.hub().done = true;
        self.hub_news.notify_all();
    }

    fn begin_shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Closing every streaming connection unblocks a subscriber stuck
        // in `write` to a client that stopped reading; the flag is set
        // before the hub lock is taken, so a waiting subscriber cannot
        // miss it.
        for (_, conn) in &self.hub().subs {
            conn.shutdown();
        }
        self.hub_news.notify_all();
        self.listener.wake();
    }
}

/// Handle on a running daemon: the bound address plus the accept-loop
/// thread. Dropping the handle does not stop the daemon; send a
/// `shutdown` request (or call [`DaemonHandle::shutdown`]) and then
/// [`DaemonHandle::join`].
pub struct DaemonHandle {
    /// Bound address: the socket path, or `host:port`.
    pub addr: String,
    inner: Arc<Inner>,
    accept_loop: JoinHandle<()>,
}

impl DaemonHandle {
    /// Ask the daemon to stop accepting connections and exit.
    pub fn shutdown(&self) {
        self.inner.begin_shutdown();
    }

    /// Wait for the accept loop (and every connection it spawned).
    pub fn join(self) -> std::thread::Result<()> {
        self.accept_loop.join()
    }
}

/// Start the daemon on `listener`. Returns immediately; the accept loop
/// runs on its own thread until a `shutdown` request arrives.
pub fn serve(listener: Listener, cfg: ServeConfig) -> DaemonHandle {
    assert!(
        cfg.sample_every > 0.0 && cfg.sample_every.is_finite(),
        "the observatory cadence must be positive"
    );
    let addr = listener.addr();
    let inner = Arc::new(Inner {
        cfg,
        state: Mutex::new(State {
            phase: Phase::Accepting,
            specs: Vec::new(),
            names: BTreeSet::new(),
            tenants: BTreeSet::new(),
            result: None,
        }),
        hub: Mutex::new(Hub::default()),
        hub_news: Condvar::new(),
        stop: AtomicBool::new(false),
        listener,
    });
    let accept_inner = Arc::clone(&inner);
    let accept_loop = std::thread::spawn(move || {
        let mut workers: Vec<JoinHandle<()>> = Vec::new();
        loop {
            if accept_inner.stop.load(Ordering::SeqCst) {
                break;
            }
            let conn = match accept_inner.listener.accept() {
                Ok(c) => c,
                Err(_) => continue,
            };
            if accept_inner.stop.load(Ordering::SeqCst) {
                break;
            }
            let conn_inner = Arc::clone(&accept_inner);
            workers.push(std::thread::spawn(move || handle_conn(conn_inner, conn)));
        }
        for w in workers {
            let _ = w.join();
        }
        #[cfg(unix)]
        if let Listener::Unix(_, p) = &accept_inner.listener {
            let _ = std::fs::remove_file(p);
        }
    });
    DaemonHandle {
        addr,
        inner,
        accept_loop,
    }
}

/// What the connection loop does after one request.
enum Flow {
    Continue,
    Close,
    /// Switch into subscriber streaming (takes over the connection).
    Stream,
}

fn handle_conn(inner: Arc<Inner>, conn: Conn) {
    let _ = conn.set_read_timeout(inner.cfg.read_timeout);
    // Requests are read through a buffer (about one `recv` per batch of
    // frames, not three per frame); responses are written to the socket
    // underneath it.
    let mut conn = BufReader::new(conn);
    loop {
        match read_frame(&mut conn, inner.cfg.max_frame) {
            Ok(None) => return,
            Ok(Some(text)) => match handle_request(&inner, &text) {
                Ok((response, flow)) => {
                    if write_frame(conn.get_mut(), &response).is_err() {
                        return;
                    }
                    match flow {
                        Flow::Continue => {}
                        Flow::Close => {
                            conn.get_ref().shutdown();
                            return;
                        }
                        Flow::Stream => {
                            stream_subscriber(&inner, conn.into_inner());
                            return;
                        }
                    }
                }
                Err(e) => {
                    let frame = error_json(e.kind(), &e.to_string());
                    if write_frame(conn.get_mut(), &frame).is_err() || !e.recoverable() {
                        conn.get_ref().shutdown();
                        return;
                    }
                }
            },
            Err(e) => {
                // Framing is gone (or the read timed out): report
                // best-effort and close.
                let _ = write_frame(conn.get_mut(), &error_json(e.kind(), &e.to_string()));
                conn.get_ref().shutdown();
                return;
            }
        }
    }
}

/// Stream the hub to one subscriber from line 0 until the run completes
/// (or the client goes away, or the daemon shuts down), then send the end
/// frame. Each pass copies up to about [`STREAM_BATCH`] bytes of frames
/// under the hub lock and writes them with one `write` outside it. Each
/// line is its own frame, so the byte stream is the same as one write per
/// frame.
fn stream_subscriber(inner: &Inner, mut conn: Conn) {
    // The subscriber only writes from here on; reads would hit the idle
    // timeout long before a large run finishes.
    let _ = conn.set_read_timeout(None);
    let Ok(handle) = conn.try_clone() else {
        conn.shutdown();
        return;
    };
    let id = {
        let mut hub = inner.hub();
        let id = hub.next_sub;
        hub.next_sub += 1;
        hub.subs.push((id, handle));
        id
    };
    let mut batch: Vec<u8> = Vec::with_capacity(STREAM_BATCH + (4 << 10));
    let mut next = 0;
    let ended = loop {
        batch.clear();
        {
            let stopping = || inner.stop.load(Ordering::SeqCst);
            let mut hub = inner.hub();
            while next == hub.ends.len() && !hub.done && !stopping() {
                hub = inner.hub_news.wait(hub).expect("no hub holder panics");
            }
            if stopping() {
                break false;
            }
            if next == hub.ends.len() {
                break true; // the run is over and every line went out
            }
            while next < hub.ends.len() && batch.len() < STREAM_BATCH {
                push_line_frame(&mut batch, hub.line(next));
                next += 1;
            }
        }
        if conn.write_all(&batch).is_err() {
            break false; // client disconnected mid-stream; drop it
        }
    };
    inner.hub().subs.retain(|&(k, _)| k != id);
    if ended {
        let st = inner.state.lock().unwrap();
        let end = match &st.result {
            Some(r) => {
                let mut end = String::with_capacity(96);
                push_uint_field(&mut end, "{\"end\":true,\"events\":", r.events as u64);
                push_uint_field(&mut end, ",\"samples\":", r.samples as u64);
                push_fnv_field(&mut end, r.stream_fnv);
                end
            }
            None => "{\"end\":true}".to_string(),
        };
        drop(st);
        let _ = write_frame(&mut conn, &end);
    }
    conn.shutdown();
}

/// True when [`escape_json`] would change `s`: it holds a control
/// character, a quote or a backslash.
fn needs_escape(s: &str) -> bool {
    s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\')
}

/// Append `s` as [`escape_json`] renders it: a plain copy unless it holds
/// something JSON must escape.
fn push_json_str(out: &mut String, s: &str) {
    if needs_escape(s) {
        out.push_str(&escape_json(s));
    } else {
        out.push_str(s);
    }
}

/// Append `,"stream_fnv":"<16 hex digits>"}`, the tail every frame that
/// carries the stream digest ends with.
fn push_fnv_field(out: &mut String, stream_fnv: u64) {
    out.push_str(",\"stream_fnv\":\"");
    push_hex16(out, stream_fnv);
    out.push_str("\"}");
}

/// Append `line` (which ends in `\n`) as one `{"line":…}` frame, without
/// the newline. Rendered lines hold nothing JSON must escape, so the
/// payload is normally three copies; [`escape_json`] runs only if one does.
fn push_line_frame(out: &mut Vec<u8>, line: &str) {
    const HEAD: &[u8] = b"{\"line\":\"";
    const TAIL: &[u8] = b"\"}";
    let line = line.strip_suffix('\n').unwrap_or(line);
    let escaped;
    let body = if needs_escape(line) {
        escaped = escape_json(line);
        escaped.as_str()
    } else {
        line
    };
    let len = u32::try_from(HEAD.len() + body.len() + TAIL.len()).expect("a line fits a frame");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(HEAD);
    out.extend_from_slice(body.as_bytes());
    out.extend_from_slice(TAIL);
}

fn handle_request(inner: &Inner, text: &str) -> Result<(String, Flow), ProtoError> {
    let req = json::parse(text).map_err(bad_json)?;
    let op = req
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| ProtoError::BadRequest {
            detail: "missing string field \"op\"".to_string(),
        })?;
    match op {
        "submit" => op_submit(inner, &req).map(|r| (r, Flow::Continue)),
        "status" => Ok((op_status(inner), Flow::Continue)),
        "subscribe" => Ok((
            "{\"ok\":true,\"subscribed\":true}".to_string(),
            Flow::Stream,
        )),
        "drain" => op_drain(inner).map(|r| (r, Flow::Continue)),
        "scorecard" => op_scorecard(inner).map(|r| (r, Flow::Continue)),
        "shutdown" => {
            inner.begin_shutdown();
            Ok(("{\"ok\":true,\"stopping\":true}".to_string(), Flow::Close))
        }
        other => Err(ProtoError::BadRequest {
            detail: format!("unknown op {other:?}"),
        }),
    }
}

// ---------------------------------------------------------------------------
// Request handlers.

fn num_field(j: &Json, key: &str) -> Result<f64, ProtoError> {
    j.get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| ProtoError::BadRequest {
            detail: format!("missing numeric field {key:?}"),
        })
}

fn count_field(v: &Json, what: &str) -> Result<u64, ProtoError> {
    let n = v.as_num().ok_or_else(|| ProtoError::BadRequest {
        detail: format!("{what} must be a number"),
    })?;
    if n < 0.0 || n.fract() != 0.0 {
        return Err(ProtoError::BadRequest {
            detail: format!("{what} must be a non-negative integer, got {n}"),
        });
    }
    Ok(n as u64)
}

/// Decode the submitted job spec. Structural soundness of the decoded
/// profile is enforced by the same [`validate_specs`] gate the batch
/// runtimes use, so a truncated or corrupted replay profile comes back as
/// a typed admission error — never a panic.
fn parse_spec(job: &Json) -> Result<JobSpec, ProtoError> {
    let name = job
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| ProtoError::BadRequest {
            detail: "job needs a string \"name\"".to_string(),
        })?;
    let profile = job.get("profile").ok_or_else(|| ProtoError::BadRequest {
        detail: "job needs a \"profile\"".to_string(),
    })?;
    let rank_finish: Vec<f64> = profile
        .get("rank_finish")
        .and_then(Json::as_arr)
        .ok_or_else(|| ProtoError::BadRequest {
            detail: "profile needs an array \"rank_finish\"".to_string(),
        })?
        .iter()
        .map(|v| {
            v.as_num().ok_or_else(|| ProtoError::BadRequest {
                detail: "rank_finish entries must be numbers".to_string(),
            })
        })
        .collect::<Result<_, _>>()?;
    let streams_json = profile
        .get("streams")
        .and_then(Json::as_arr)
        .ok_or_else(|| ProtoError::BadRequest {
            detail: "profile needs an array \"streams\"".to_string(),
        })?;
    let mut streams = Vec::with_capacity(streams_json.len());
    for (rank, s) in streams_json.iter().enumerate() {
        let reqs_json = s.as_arr().ok_or_else(|| ProtoError::BadRequest {
            detail: format!("stream {rank} must be an array"),
        })?;
        let mut reqs = Vec::with_capacity(reqs_json.len());
        for (i, r) in reqs_json.iter().enumerate() {
            // Compact form: [t0, t1, requests, bytes, offset|null, write].
            let f = r
                .as_arr()
                .filter(|f| f.len() == 6)
                .ok_or_else(|| ProtoError::BadRequest {
                    detail: format!(
                        "stream {rank} request {i} must be [t0, t1, requests, bytes, offset, write]"
                    ),
                })?;
            let fnum = |k: usize, what: &str| {
                f[k].as_num().ok_or_else(|| ProtoError::BadRequest {
                    detail: format!("stream {rank} request {i}: {what} must be a number"),
                })
            };
            let offset = match &f[4] {
                Json::Null => None,
                v => Some(count_field(v, "offset")?),
            };
            let write = match &f[5] {
                Json::Bool(b) => *b,
                _ => {
                    return Err(ProtoError::BadRequest {
                        detail: format!("stream {rank} request {i}: write must be a bool"),
                    })
                }
            };
            reqs.push(IoReq {
                t0: fnum(0, "t0")?,
                t1: fnum(1, "t1")?,
                requests: count_field(&f[2], "requests")?,
                bytes: count_field(&f[3], "bytes")?,
                offset,
                write,
            });
        }
        streams.push(reqs);
    }
    let profile = JobProfile {
        rank_finish,
        streams,
        ..JobProfile::default()
    };
    let mut spec = JobSpec::new(name, profile);
    spec.submit = num_field(job, "submit")?;
    if let Some(w) = job.get("weight").and_then(Json::as_num) {
        spec.weight = w;
    }
    if let Some(q) = job.get("qos_slack").and_then(Json::as_num) {
        spec.qos_slack = q;
    }
    Ok(spec)
}

fn op_submit(inner: &Inner, req: &Json) -> Result<String, ProtoError> {
    let job = req.get("job").ok_or_else(|| ProtoError::BadRequest {
        detail: "submit needs a \"job\" object".to_string(),
    })?;
    let spec = parse_spec(job)?;
    let tenant = job
        .get("tenant")
        .and_then(Json::as_str)
        .unwrap_or("anonymous")
        .to_string();
    let mut st = inner.state.lock().unwrap();
    if st.phase != Phase::Accepting {
        return Err(ProtoError::Refused {
            kind: "draining".to_string(),
            detail: format!(
                "the session is {} — new admissions are refused",
                st.phase.label()
            ),
        });
    }
    if st.names.contains(&spec.name) {
        return Err(ProtoError::Refused {
            kind: "admission".to_string(),
            detail: format!("job id {:?} submitted more than once", spec.name),
        });
    }
    // The same typed gate the batch runtimes use: NoRanks, capacity,
    // finite submit, structurally sound profile.
    if let Err(e) = validate_specs(std::slice::from_ref(&spec), inner.cfg.domain.disks) {
        return Err(ProtoError::Refused {
            kind: "admission".to_string(),
            detail: e.to_string(),
        });
    }
    st.names.insert(spec.name.clone());
    st.tenants.insert(tenant);
    st.specs.push(spec);
    let mut ack = String::with_capacity(32);
    push_uint_field(&mut ack, "{\"ok\":true,\"jobs\":", st.specs.len() as u64);
    ack.push('}');
    Ok(ack)
}

fn op_status(inner: &Inner) -> String {
    let st = inner.state.lock().unwrap();
    let mut out = String::with_capacity(80);
    out.push_str("{\"ok\":true,\"phase\":\"");
    out.push_str(st.phase.label());
    push_uint_field(&mut out, "\",\"jobs\":", st.specs.len() as u64);
    push_uint_field(&mut out, ",\"tenants\":", st.tenants.len() as u64);
    out.push('}');
    out
}

/// The observatory observer that feeds the subscriber fan-out. Each line
/// is rendered once, straight into the hub; `stamps` keeps its time and
/// kind so the drain can hash the lines in render order.
struct Broadcast<'a> {
    inner: &'a Inner,
    /// (time, is a sample) of every published line, in publish order.
    stamps: Vec<(f64, bool)>,
}

impl WorkloadObserver for Broadcast<'_> {
    fn event(&mut self, e: &ObsEvent) {
        self.inner.publish(|text| render_event_into(text, e));
        self.stamps.push((e.t, false));
    }

    fn sample(&mut self, s: &Sample) {
        self.inner.publish(|text| render_sample_into(text, s));
        self.stamps.push((s.t, true));
    }
}

fn op_drain(inner: &Inner) -> Result<String, ProtoError> {
    // Seal the timeline: flip to Draining under the lock, run outside it
    // so status/subscribe stay responsive during the run.
    let mut specs = {
        let mut st = inner.state.lock().unwrap();
        if st.phase != Phase::Accepting {
            return Err(ProtoError::Refused {
                kind: "draining".to_string(),
                detail: format!("the session is already {}", st.phase.label()),
            });
        }
        st.phase = Phase::Draining;
        std::mem::take(&mut st.specs)
    };
    // Deterministic execution order regardless of socket interleaving:
    // names are unique, so (submit, name) is a total order.
    specs.sort_by(|a, b| a.submit.total_cmp(&b.submit).then(a.name.cmp(&b.name)));
    inner.hub().text.reserve(STREAM_RESERVE);
    let mut obs = Broadcast {
        inner,
        stamps: Vec::new(),
    };
    let run =
        run_workload_guarded_observed(&specs, &inner.cfg.domain, inner.cfg.sample_every, &mut obs);
    let report = match run {
        Ok(r) => r,
        Err(e) => {
            // Per-submit validation leaves only a bad `DomainConfig` to
            // land here. Fail closed: the session is over, and waiting
            // subscribers are released to their end frame.
            inner.state.lock().unwrap().phase = Phase::Drained;
            inner.finish_stream();
            return Err(ProtoError::Refused {
                kind: "admission".to_string(),
                detail: e.to_string(),
            });
        }
    };
    // The one-line divergence detector carried by summaries and the
    // subscriber end frame: the digest of `EventLog::render`, computed from
    // the lines already published.
    let stream_fnv = {
        let hub = inner.hub();
        render_order(&obs.stamps)
            .into_iter()
            .fold(Fnv1a::new(), |h, i| h.bytes(hub.line(i).as_bytes()))
            .finish()
    };
    let samples = obs.stamps.iter().filter(|&&(_, sample)| sample).count();
    let card = SloScorecard::from_guarded(&report);
    let prom = ooc_trace::prom::render(&SloScorecard::prom(std::slice::from_ref(&card)));
    let result = DrainResult {
        summary: drain_summary(&report, &card, stream_fnv),
        scorecard: scorecard_json(&card, stream_fnv),
        prom,
        stream_fnv,
        events: obs.stamps.len() - samples,
        samples,
    };
    let summary = result.summary.clone();
    {
        let mut st = inner.state.lock().unwrap();
        st.result = Some(result);
        st.phase = Phase::Drained;
    }
    // Each released subscriber reads the end frame from the stored result.
    inner.finish_stream();
    Ok(summary)
}

/// Append `v` as `{:.9}` renders it, or `null`.
fn push_opt_f9(out: &mut String, v: Option<f64>) {
    match v {
        Some(v) => push_f9(out, v),
        None => out.push_str("null"),
    }
}

fn drain_summary(report: &GuardedReport, card: &SloScorecard, stream_fnv: u64) -> String {
    let outcomes =
        |f: fn(&JobOutcome) -> bool| report.jobs.iter().filter(|j| f(&j.outcome)).count();
    let counts = [
        ("{\"ok\":true,\"jobs\":", report.jobs.len()),
        (",\"completed\":", report.completed()),
        (
            ",\"recovered\":",
            outcomes(|o| matches!(o, JobOutcome::Recovered { .. })),
        ),
        (
            ",\"killed\":",
            outcomes(|o| matches!(o, JobOutcome::Killed { .. })),
        ),
        (
            ",\"quarantined\":",
            outcomes(|o| matches!(o, JobOutcome::Quarantined { .. })),
        ),
    ];
    let mut out = String::with_capacity(192);
    for (key, n) in counts {
        push_uint_field(&mut out, key, n as u64);
    }
    push_f9_field(&mut out, ",\"makespan\":", report.makespan());
    push_f9_field(
        &mut out,
        ",\"deadline_hit_rate\":",
        card.deadline_hit_rate(),
    );
    push_fnv_field(&mut out, stream_fnv);
    out
}

fn scorecard_json(card: &SloScorecard, stream_fnv: u64) -> String {
    let mut out = String::with_capacity(320);
    out.push_str("{\"policy\":\"");
    out.push_str(card.policy);
    let counts = [
        ("\",\"jobs\":", card.jobs),
        (",\"completed\":", card.completed),
        (",\"recovered\":", card.recovered),
        (",\"killed\":", card.killed),
        (",\"quarantined\":", card.quarantined),
        (",\"deadline_hits\":", card.deadline_hits),
    ];
    for (key, n) in counts {
        push_uint_field(&mut out, key, n as u64);
    }
    push_f9_field(
        &mut out,
        ",\"deadline_hit_rate\":",
        card.deadline_hit_rate(),
    );
    out.push_str(",\"p50_turnaround\":");
    push_opt_f9(&mut out, card.p50_turnaround);
    out.push_str(",\"p95_turnaround\":");
    push_opt_f9(&mut out, card.p95_turnaround);
    out.push_str(",\"p99_turnaround\":");
    push_opt_f9(&mut out, card.p99_turnaround);
    push_f9_field(&mut out, ",\"mean_slowdown\":", card.mean_slowdown);
    push_f9_field(&mut out, ",\"makespan\":", card.makespan);
    push_fnv_field(&mut out, stream_fnv);
    out
}

fn op_scorecard(inner: &Inner) -> Result<String, ProtoError> {
    let st = inner.state.lock().unwrap();
    match &st.result {
        Some(r) => Ok(format!(
            "{{\"ok\":true,\"scorecard\":{},\"prom\":\"{}\"}}",
            r.scorecard,
            escape_json(&r.prom)
        )),
        None => Err(ProtoError::Refused {
            kind: "not_ready".to_string(),
            detail: format!("no drained run yet (phase: {})", st.phase.label()),
        }),
    }
}

// ---------------------------------------------------------------------------
// Client.

/// Blocking protocol client used by `oocload`, the tests and ad-hoc
/// tooling.
pub struct Client {
    /// Responses are read through a buffer; requests are written to the
    /// socket underneath it.
    conn: BufReader<Conn>,
    max_frame: u32,
}

impl Client {
    /// Connect to a Unix-domain daemon socket.
    #[cfg(unix)]
    pub fn connect_unix(path: &str) -> io::Result<Client> {
        Ok(Client {
            conn: BufReader::new(Conn::Unix(UnixStream::connect(path)?)),
            max_frame: DEFAULT_MAX_FRAME,
        })
    }

    /// Connect to a TCP daemon address.
    pub fn connect_tcp(addr: &str) -> io::Result<Client> {
        Ok(Client {
            conn: BufReader::new(Conn::tcp(TcpStream::connect(addr)?)),
            max_frame: DEFAULT_MAX_FRAME,
        })
    }

    /// Connect to `addr`: a `host:port` pair, or (on Unix) a socket path.
    pub fn connect(addr: &str) -> io::Result<Client> {
        #[cfg(unix)]
        if !addr.contains(':') {
            return Client::connect_unix(addr);
        }
        Client::connect_tcp(addr)
    }

    /// Send one request and return the raw response frame text — the
    /// deterministic artifact surface `oocload` byte-compares. Error
    /// responses still come back as frames here; use [`Client::request`]
    /// for typed errors.
    pub fn request_raw(&mut self, body: &str) -> Result<String, ProtoError> {
        write_frame(self.conn.get_mut(), body).map_err(io_err)?;
        read_frame(&mut self.conn, self.max_frame)?.ok_or(ProtoError::Truncated {
            context: "response",
        })
    }

    /// Send one request and decode the response. Error responses come
    /// back as [`ProtoError::Refused`] / [`ProtoError::BadRequest`] /
    /// [`ProtoError::BadJson`] keyed by the server's error kind.
    pub fn request(&mut self, body: &str) -> Result<Json, ProtoError> {
        let raw = self.request_raw(body)?;
        let frame = json::parse(&raw).map_err(bad_json)?;
        if let Some(err) = frame.get("error") {
            let kind = err
                .get("kind")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string();
            let detail = err
                .get("detail")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            return Err(match kind.as_str() {
                "bad_json" => ProtoError::BadJson { detail },
                "bad_request" => ProtoError::BadRequest { detail },
                _ => ProtoError::Refused { kind, detail },
            });
        }
        Ok(frame)
    }

    /// Read the next frame (for subscriber streams). `Ok(None)` when the
    /// server closed the stream.
    pub fn next_frame(&mut self) -> Result<Option<Json>, ProtoError> {
        match read_frame(&mut self.conn, self.max_frame)? {
            Some(text) => json::parse(&text).map(Some).map_err(bad_json),
            None => Ok(None),
        }
    }

    /// Write raw bytes on the socket — the malformed-frame corpus uses
    /// this to attack the decoder.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.conn.get_mut().write_all(bytes)?;
        self.conn.get_mut().flush()
    }
}

/// Encode a [`JobSpec`]-shaped submission request. The inverse of the
/// daemon's `parse_spec`; `oocload` and the tests build their traffic
/// with it.
///
/// The frame is appended into one `String` sized up front, each number
/// through the crate's digit writer: the text `format!` would give, with
/// no `core::fmt` call and no `String` per number.
pub fn submit_json(tenant: &str, spec: &JobSpec) -> String {
    /// Bytes of the fixed keys and brackets, and a generous size per
    /// rank-finish number and per request (two times, three integers and
    /// a bool): a frame rarely outgrows the estimate.
    const HEAD: usize = 128;
    const PER_FINISH: usize = 16;
    const PER_REQUEST: usize = 64;
    let profile = &spec.profile;
    let requests: usize = profile.streams.iter().map(Vec::len).sum();
    let mut out = String::with_capacity(
        HEAD + tenant.len()
            + spec.name.len()
            + PER_FINISH * profile.rank_finish.len()
            + 2 * profile.streams.len()
            + PER_REQUEST * requests,
    );
    out.push_str("{\"op\":\"submit\",\"job\":{\"tenant\":\"");
    push_json_str(&mut out, tenant);
    out.push_str("\",\"name\":\"");
    push_json_str(&mut out, &spec.name);
    push_f9_field(&mut out, "\",\"submit\":", spec.submit);
    push_f9_field(&mut out, ",\"weight\":", spec.weight);
    push_f9_field(&mut out, ",\"qos_slack\":", spec.qos_slack);
    out.push_str(",\"profile\":{\"rank_finish\":[");
    for (i, &f) in profile.rank_finish.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_f9(&mut out, f);
    }
    out.push_str("],\"streams\":[");
    for (i, stream) in profile.streams.iter().enumerate() {
        out.push_str(if i > 0 { ",[" } else { "[" });
        for (j, r) in stream.iter().enumerate() {
            out.push_str(if j > 0 { ",[" } else { "[" });
            push_f9(&mut out, r.t0);
            push_f9_field(&mut out, ",", r.t1);
            push_uint_field(&mut out, ",", r.requests);
            push_uint_field(&mut out, ",", r.bytes);
            match r.offset {
                Some(o) => push_uint_field(&mut out, ",", o),
                None => out.push_str(",null"),
            }
            out.push_str(if r.write { ",true]" } else { ",false]" });
        }
        out.push(']');
    }
    out.push_str("]}}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_and_enforce_the_bound() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"op\":\"status\"}").unwrap();
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().as_deref(),
            Some("{\"op\":\"status\"}")
        );
        // Clean EOF at a frame boundary.
        assert_eq!(read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap(), None);
        // Oversized announcement.
        let mut big = Vec::new();
        big.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut &big[..], 1024),
            Err(ProtoError::FrameTooLarge { max: 1024, .. })
        ));
        // Truncated prefix and truncated payload.
        assert!(matches!(
            read_frame(&mut &[0x05u8, 0x00][..], 1024),
            Err(ProtoError::Truncated {
                context: "length prefix"
            })
        ));
        let mut short = Vec::new();
        short.extend_from_slice(&8u32.to_le_bytes());
        short.extend_from_slice(b"abc");
        assert!(matches!(
            read_frame(&mut &short[..], 1024),
            Err(ProtoError::Truncated { context: "payload" })
        ));
        // Non-UTF-8 payload.
        let mut bad = Vec::new();
        bad.extend_from_slice(&2u32.to_le_bytes());
        bad.extend_from_slice(&[0xff, 0xfe]);
        assert!(matches!(
            read_frame(&mut &bad[..], 1024),
            Err(ProtoError::BadJson { .. })
        ));
    }

    #[test]
    fn submit_json_round_trips_through_parse_spec() {
        let spec = JobSpec::new(
            "t0-j0",
            JobProfile {
                rank_finish: vec![2.0, 3.5],
                streams: vec![
                    vec![IoReq {
                        t0: 0.0,
                        t1: 1.0,
                        requests: 2,
                        bytes: 4096,
                        offset: Some(128),
                        write: false,
                    }],
                    vec![IoReq {
                        t0: 0.5,
                        t1: 2.0,
                        requests: 1,
                        bytes: 64,
                        offset: None,
                        write: true,
                    }],
                ],
                ..JobProfile::default()
            },
        )
        .with_submit(7.25)
        .with_weight(2.0);
        let body = submit_json("tenant-a", &spec);
        let req = json::parse(&body).unwrap();
        let decoded = parse_spec(req.get("job").unwrap()).unwrap();
        assert_eq!(decoded.name, spec.name);
        assert_eq!(decoded.submit.to_bits(), spec.submit.to_bits());
        assert_eq!(decoded.weight.to_bits(), spec.weight.to_bits());
        assert_eq!(decoded.profile, spec.profile);
    }

    /// `submit_json` as it was written on `core::fmt`: the reference the
    /// digit-writer encoder is held to, byte for byte.
    fn fmt_submit_json(tenant: &str, spec: &JobSpec) -> String {
        let mut out = format!(
            "{{\"op\":\"submit\",\"job\":{{\"tenant\":\"{}\",\"name\":\"{}\",\
             \"submit\":{:.9},\"weight\":{:.9},\"qos_slack\":{:.9},\"profile\":{{\"rank_finish\":[",
            escape_json(tenant),
            escape_json(&spec.name),
            spec.submit,
            spec.weight,
            spec.qos_slack,
        );
        for (i, f) in spec.profile.rank_finish.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{f:.9}"));
        }
        out.push_str("],\"streams\":[");
        for (i, stream) in spec.profile.streams.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            for (j, r) in stream.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let offset = r
                    .offset
                    .map_or_else(|| "null".to_string(), |o| o.to_string());
                out.push_str(&format!(
                    "[{:.9},{:.9},{},{},{},{}]",
                    r.t0, r.t1, r.requests, r.bytes, offset, r.write
                ));
            }
            out.push(']');
        }
        out.push_str("]}}}");
        out
    }

    fn fmt_opt_num(v: Option<f64>) -> String {
        v.map_or_else(|| "null".to_string(), |v| format!("{v:.9}"))
    }

    /// `drain_summary` as it was written on `core::fmt`.
    fn fmt_drain_summary(report: &GuardedReport, card: &SloScorecard, stream_fnv: u64) -> String {
        let outcomes =
            |f: fn(&JobOutcome) -> bool| report.jobs.iter().filter(|j| f(&j.outcome)).count();
        format!(
            "{{\"ok\":true,\"jobs\":{},\"completed\":{},\"recovered\":{},\"killed\":{},\
             \"quarantined\":{},\"makespan\":{:.9},\"deadline_hit_rate\":{:.9},\
             \"stream_fnv\":\"{stream_fnv:016x}\"}}",
            report.jobs.len(),
            report.completed(),
            outcomes(|o| matches!(o, JobOutcome::Recovered { .. })),
            outcomes(|o| matches!(o, JobOutcome::Killed { .. })),
            outcomes(|o| matches!(o, JobOutcome::Quarantined { .. })),
            report.makespan(),
            card.deadline_hit_rate(),
        )
    }

    /// `scorecard_json` as it was written on `core::fmt`.
    fn fmt_scorecard_json(card: &SloScorecard, stream_fnv: u64) -> String {
        format!(
            "{{\"policy\":\"{}\",\"jobs\":{},\"completed\":{},\"recovered\":{},\"killed\":{},\
             \"quarantined\":{},\"deadline_hits\":{},\"deadline_hit_rate\":{:.9},\
             \"p50_turnaround\":{},\"p95_turnaround\":{},\"p99_turnaround\":{},\
             \"mean_slowdown\":{:.9},\"makespan\":{:.9},\"stream_fnv\":\"{stream_fnv:016x}\"}}",
            card.policy,
            card.jobs,
            card.completed,
            card.recovered,
            card.killed,
            card.quarantined,
            card.deadline_hits,
            card.deadline_hit_rate(),
            fmt_opt_num(card.p50_turnaround),
            fmt_opt_num(card.p95_turnaround),
            fmt_opt_num(card.p99_turnaround),
            card.mean_slowdown,
            card.makespan,
        )
    }

    /// A job whose every rank issues `reqs` reads of 4 KiB, 0.5 apart.
    fn session_spec(i: usize, ranks: usize, reqs: usize) -> JobSpec {
        let stream: Vec<IoReq> = (0..reqs)
            .map(|k| IoReq {
                t0: k as f64 * 0.5,
                t1: k as f64 * 0.5 + 0.25,
                requests: 1,
                bytes: 4096,
                offset: Some(4096 * k as u64),
                write: k % 3 == 0,
            })
            .collect();
        let profile = JobProfile {
            rank_finish: vec![reqs as f64 * 0.5; ranks],
            streams: vec![stream; ranks],
            ..JobProfile::default()
        };
        JobSpec::new(format!("s{i}"), profile).with_submit(i as f64 * 0.75)
    }

    #[test]
    fn drain_frames_match_the_fmt_encoders_on_drained_sessions() {
        let specs: Vec<JobSpec> = (0..6).map(|i| session_spec(i, 1 + i % 3, 3 + i)).collect();
        let sessions = [
            DomainConfig::default(),
            DomainConfig {
                policy: crate::Policy::Deadline,
                deadline_factor: 1.2,
                max_concurrent: 2,
                ..DomainConfig::default()
            },
            DomainConfig {
                hang_chance: 0.5,
                watchdog_quantum: 2.0,
                max_retries: 1,
                seed: 7,
                ..DomainConfig::default()
            },
        ];
        let odd = [-0.0, f64::from_bits(1), 1e9, 1e9 + 0.5, 1e300, f64::NAN];
        for (n, cfg) in sessions.iter().enumerate() {
            let report = crate::run_workload_guarded(&specs, cfg).unwrap();
            let card = SloScorecard::from_guarded(&report);
            let fnv = 0x835c_c3e0_b3cb_735d ^ n as u64;
            assert_eq!(
                drain_summary(&report, &card, fnv),
                fmt_drain_summary(&report, &card, fnv)
            );
            assert_eq!(scorecard_json(&card, fnv), fmt_scorecard_json(&card, fnv));
            // The same card with no quantiles and with edge values in
            // every float field.
            for (k, &x) in odd.iter().enumerate() {
                let edge = SloScorecard {
                    p50_turnaround: None,
                    p95_turnaround: (k % 2 == 0).then_some(x),
                    p99_turnaround: Some(-x),
                    mean_slowdown: x,
                    makespan: -x,
                    ..card.clone()
                };
                assert_eq!(scorecard_json(&edge, !fnv), fmt_scorecard_json(&edge, !fnv));
            }
        }
    }

    mod props {
        use super::*;
        use proptest::bool::ANY as BOOL;
        use proptest::collection::vec;
        use proptest::prelude::*;

        fn u64s() -> std::ops::Range<u64> {
            0..u64::MAX
        }

        fn signed(x: f64, neg: bool) -> f64 {
            if neg {
                -x
            } else {
                x
            }
        }

        /// Numbers both encoders must agree on: ±0, subnormals, values from
        /// the `1e9` boundary (where the digit writer hands over to
        /// `core::fmt`) up to `1e300`, ordinary magnitudes, and any bit
        /// pattern at all (NaNs and infinities included).
        fn num() -> impl Strategy<Value = f64> {
            prop_oneof![
                BOOL.prop_map(|neg| signed(0.0, neg)),
                (1u64..1 << 52, BOOL).prop_map(|(m, neg)| signed(f64::from_bits(m), neg)),
                (9i32..301, 0u64..1 << 53, BOOL).prop_map(|(e, m, neg)| {
                    let x = (1.0 + m as f64 / (1u64 << 53) as f64 * 9.0) * 10f64.powi(e);
                    signed(x.min(1e300), neg)
                }),
                (0u64..2, BOOL).prop_map(|(k, neg)| signed([1e9, 1e300][k as usize], neg)),
                (-12i32..9, 0u64..1 << 53, BOOL).prop_map(|(e, m, neg)| {
                    signed(
                        (1.0 + m as f64 / (1u64 << 53) as f64 * 9.0) * 10f64.powi(e),
                        neg,
                    )
                }),
                u64s().prop_map(f64::from_bits),
            ]
        }

        /// Names with characters JSON must escape mixed into plain ones.
        fn name() -> impl Strategy<Value = String> {
            let ch = prop_oneof![
                "[a-z]",
                "[a-z]",
                "[0-9-]",
                "[\"\\\\]",
                "[\n\t\u{1}\u{1f}]",
                "[é☃]",
            ];
            vec(ch, 0..10).prop_map(|parts| parts.concat())
        }

        fn req() -> impl Strategy<Value = IoReq> {
            ((num(), num()), (u64s(), u64s()), (BOOL, u64s()), BOOL).prop_map(
                |((t0, t1), (requests, bytes), (placed, at), write)| IoReq {
                    t0,
                    t1,
                    requests,
                    bytes,
                    offset: placed.then_some(at),
                    write,
                },
            )
        }

        fn spec() -> impl Strategy<Value = JobSpec> {
            (
                name(),
                (vec(num(), 0..4), vec(vec(req(), 0..5), 0..4)),
                (num(), num()),
                num(),
            )
                .prop_map(
                    |(name, (rank_finish, streams), (submit, weight), qos_slack)| {
                        let profile = JobProfile {
                            rank_finish,
                            streams,
                            ..JobProfile::default()
                        };
                        JobSpec {
                            submit,
                            weight,
                            qos_slack,
                            ..JobSpec::new(name, profile)
                        }
                    },
                )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1024))]

            #[test]
            fn submit_json_matches_the_fmt_encoder(tenant in name(), spec in spec()) {
                prop_assert_eq!(submit_json(&tenant, &spec), fmt_submit_json(&tenant, &spec));
            }
        }
    }

    #[test]
    fn parse_spec_refuses_malformed_submissions_with_typed_errors() {
        let cases = [
            ("{}", "name"),
            ("{\"name\":\"x\"}", "profile"),
            ("{\"name\":\"x\",\"profile\":{}}", "rank_finish"),
            (
                "{\"name\":\"x\",\"profile\":{\"rank_finish\":[1.0],\"streams\":[[[0,1,1]]]},\
                 \"submit\":0}",
                "request",
            ),
            (
                "{\"name\":\"x\",\"profile\":{\"rank_finish\":[1.0],\
                 \"streams\":[[[0,1,-3,64,null,false]]]},\"submit\":0}",
                "non-negative",
            ),
        ];
        for (body, needle) in cases {
            let job = json::parse(body).unwrap();
            let err = parse_spec(&job).unwrap_err();
            assert!(
                matches!(err, ProtoError::BadRequest { .. }),
                "{body}: {err:?}"
            );
            assert!(
                err.to_string().contains(needle),
                "{body}: {err} missing {needle:?}"
            );
        }
    }
}
