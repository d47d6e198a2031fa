//! Point-to-point message fabric.
//!
//! Every rank owns one *mailbox*: a single FIFO of `(source, message)`
//! entries in arrival order. A receive takes the first entry matching its
//! source and tag, so each source's messages arrive in send order and
//! matching is deterministic. A message costs one push and one short scan,
//! with no per-pair queue to allocate and nothing to hash.
//!
//! Message payloads are real data (the simulator computes real results);
//! each message also carries its simulated arrival time so the receiver
//! can synchronize its virtual clock.
//!
//! Timing semantics: a send advances the sender's clock by the full message
//! transfer time (latency + bytes/bandwidth) — a conservative store-and-
//! forward model that matches the blocking `csend`/`crecv` style of the
//! paper's era. The message arrives at the sender's post-send clock; a
//! receive moves the receiver's clock to `max(own clock, arrival)`.
//!
//! Blocking and wake-ups (one protocol for both execution engines). A
//! receiver that finds no match records, under its mailbox lock and in the
//! same critical section as the queue scan, *which source it is blocked
//! on* and how to resume it: a task id for a pooled coroutine
//! (the `pool` module), the mailbox condvar for an OS thread. Then:
//!
//! * **A send wakes only a matching waiter.** The sender pushes the
//!   message and takes the waiter only if its recorded source is the
//!   sender. A coroutine is resumed through the pool; the condvar is
//!   touched only when the waiter is an OS thread, so a pooled run issues
//!   no `futex` call per message.
//! * **An exit wakes only who is blocked on the exiting rank.** Every rank
//!   has a *watcher set*: the receivers that ever blocked on it. A
//!   receiver files itself there before blocking; the exiting rank stores
//!   its `exited` flag and drains the set under the set's lock, then
//!   visits only the drained receivers and wakes those whose recorded
//!   source is the exiting rank.
//! * **Lock order.** Receive side: mailbox → watcher set. Exit side:
//!   watcher set, *released*, then one mailbox at a time. Send side: the
//!   destination mailbox only. No two locks are ever taken in opposite
//!   orders.
//! * **No wake-up is lost.** Against a send: push and waiter registration
//!   are both under the receiver's mailbox lock, so either the scan sees
//!   the message or the sender sees the waiter. Against an exit: the
//!   receiver checks the flag and files itself under the watcher-set lock
//!   the exiting rank stores the flag under, so it either sees the flag
//!   (and returns `Disconnected`) or is in the drained set; in the latter
//!   case its mailbox lock is still held, so the exiting rank's visit
//!   comes after the waiter is recorded. A wake that reaches a coroutine
//!   between recording the waiter and finishing the context switch is
//!   caught by the pool's `wake_pending`.

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use crate::pool::{CoroHook, PoolShared};
use crate::time::SimTime;

/// Message tag for matching sends with receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tag(pub u32);

impl Tag {
    /// Tag used by the collective algorithms; user code should avoid it.
    pub const COLLECTIVE: Tag = Tag(u32::MAX);
}

/// A typed message payload.
///
/// The simulator moves real data; a small closed set of element types covers
/// everything the out-of-core runtime needs (raw bytes for file blocks,
/// floats for reductions, integers for control information).
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Raw bytes (array sections in storage form).
    Bytes(Vec<u8>),
    /// 32-bit floats (the paper's `real` arrays).
    F32(Vec<f32>),
    /// 64-bit floats.
    F64(Vec<f64>),
    /// 64-bit unsigned integers (control data, indices).
    U64(Vec<u64>),
}

impl Payload {
    /// Payload size in bytes as charged to the network.
    pub fn size_bytes(&self) -> u64 {
        match self {
            Payload::Bytes(v) => v.len() as u64,
            Payload::F32(v) => 4 * v.len() as u64,
            Payload::F64(v) => 8 * v.len() as u64,
            Payload::U64(v) => 8 * v.len() as u64,
        }
    }

    /// Name of the payload variant, for protocol diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Payload::Bytes(_) => "Bytes",
            Payload::F32(_) => "F32",
            Payload::F64(_) => "F64",
            Payload::U64(_) => "U64",
        }
    }

    /// Unwrap an `F32` payload.
    pub fn try_into_f32(self) -> Result<Vec<f32>, ProtocolError> {
        match self {
            Payload::F32(v) => Ok(v),
            other => Err(ProtocolError::mismatch("F32", &other)),
        }
    }

    /// Unwrap an `F64` payload.
    pub fn try_into_f64(self) -> Result<Vec<f64>, ProtocolError> {
        match self {
            Payload::F64(v) => Ok(v),
            other => Err(ProtocolError::mismatch("F64", &other)),
        }
    }

    /// Unwrap a `U64` payload.
    pub fn try_into_u64(self) -> Result<Vec<u64>, ProtocolError> {
        match self {
            Payload::U64(v) => Ok(v),
            other => Err(ProtocolError::mismatch("U64", &other)),
        }
    }

    /// Unwrap a `Bytes` payload.
    pub fn try_into_bytes(self) -> Result<Vec<u8>, ProtocolError> {
        match self {
            Payload::Bytes(v) => Ok(v),
            other => Err(ProtocolError::mismatch("Bytes", &other)),
        }
    }

    /// Unwrap an `F64` payload; panics with a protocol error otherwise.
    pub fn into_f64(self) -> Vec<f64> {
        self.try_into_f64().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Unwrap a `U64` payload; panics with a protocol error otherwise.
    pub fn into_u64(self) -> Vec<u64> {
        self.try_into_u64().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Unwrap a `Bytes` payload; panics with a protocol error otherwise.
    pub fn into_bytes(self) -> Vec<u8> {
        self.try_into_bytes().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// A received payload did not have the variant the protocol step expected —
/// the SPMD program's send and receive sides disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolError {
    /// The payload variant the receiver expected.
    pub expected: &'static str,
    /// The variant that actually arrived.
    pub got: &'static str,
}

impl ProtocolError {
    fn mismatch(expected: &'static str, got: &Payload) -> Self {
        ProtocolError {
            expected,
            got: got.kind(),
        }
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "protocol error: expected {} payload, got {}",
            self.expected, self.got
        )
    }
}

impl std::error::Error for ProtocolError {}

/// A message in flight.
#[derive(Debug, PartialEq)]
pub struct Msg {
    /// Matching tag.
    pub tag: Tag,
    /// The data.
    pub payload: Payload,
    /// Simulated time at which the message arrives at the receiver.
    pub arrival: SimTime,
}

/// Error returned when a receive cannot complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecvError {
    /// The sending processor finished the SPMD region without sending.
    Disconnected {
        /// The source rank that is gone.
        from: usize,
    },
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Disconnected { from } => {
                write!(f, "receive failed: processor {from} exited without sending")
            }
        }
    }
}

impl std::error::Error for RecvError {}

/// A blocked receiver: what it waits for and how to resume it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Waiter {
    /// The source rank the receive is blocked on.
    src: usize,
    /// Task id of a pooled coroutine; `None` is an OS thread waiting on
    /// the mailbox condvar.
    task: Option<usize>,
}

struct MailState {
    /// Undelivered messages with their source ranks, in arrival order.
    queue: VecDeque<(usize, Msg)>,
    /// Set while the mailbox's owner is blocked (or about to block) in a
    /// receive; taken by whoever wakes it.
    waiting: Option<Waiter>,
    /// Queue entries receives stepped over before matching or blocking
    /// (scan-cost tests).
    #[cfg(test)]
    skipped: usize,
}

impl MailState {
    /// Take the waiter out if it is blocked on `src`.
    fn take_waiter_on(&mut self, src: usize) -> Option<Waiter> {
        match self.waiting {
            Some(w) if w.src == src => self.waiting.take(),
            _ => None,
        }
    }
}

struct Mailbox {
    state: Mutex<MailState>,
    arrived: Condvar,
}

/// The machine-wide fabric: per rank, one mailbox, one exited flag and the
/// set of receivers that ever blocked on the rank.
pub(crate) struct Fabric {
    mailboxes: Vec<Mailbox>,
    /// Stored under the rank's `watchers` lock; read lock-free by senders.
    exited: Vec<AtomicBool>,
    /// `watchers[s]`: receivers to visit when rank `s` exits. Pre-sized, so
    /// filing the first few allocates nothing, whichever blocks first.
    watchers: Vec<Mutex<HashSet<usize>>>,
    /// How the pooled engine resumes a parked receiver: senders hand the
    /// task id recorded in its mailbox to this scheduler.
    wake: OnceLock<Arc<PoolShared>>,
    /// Times a blocked receive was resumed (wake-protocol tests).
    #[cfg(test)]
    resumes: std::sync::atomic::AtomicUsize,
}

impl Fabric {
    pub(crate) fn new(n: usize) -> Arc<Fabric> {
        Arc::new(Fabric {
            mailboxes: (0..n)
                .map(|_| Mailbox {
                    state: Mutex::new(MailState {
                        queue: VecDeque::new(),
                        waiting: None,
                        #[cfg(test)]
                        skipped: 0,
                    }),
                    arrived: Condvar::new(),
                })
                .collect(),
            exited: (0..n).map(|_| AtomicBool::new(false)).collect(),
            watchers: (0..n)
                .map(|_| Mutex::new(HashSet::with_capacity(1)))
                .collect(),
            wake: OnceLock::new(),
            #[cfg(test)]
            resumes: std::sync::atomic::AtomicUsize::new(0),
        })
    }

    /// Install the pooled-engine wake route. Called once, after the run's
    /// tasks are staged (so the rank→task-id map exists) and before they
    /// are launched.
    pub(crate) fn set_wake(&self, wake: Arc<PoolShared>) {
        let installed = self.wake.set(wake).is_ok();
        assert!(installed, "fabric wake route installed twice");
    }

    /// Resume a waiter taken out of `mb`.
    fn resume(&self, mb: &Mailbox, waiter: Waiter) {
        match waiter.task {
            // Only a pooled run's coroutines record a task id, and a pooled
            // run installs its scheduler before launching them.
            Some(tid) => self.wake.get().expect("pooled run").wake(tid),
            None => mb.arrived.notify_all(),
        }
    }

    /// Deliver `msg` from `src` into `dst`'s mailbox; returns `false` if
    /// `dst` already exited (the message is dropped on the floor, matching
    /// a send into a dropped channel).
    fn send(&self, src: usize, dst: usize, msg: Msg) -> bool {
        if self.exited[dst].load(Ordering::Acquire) {
            return false;
        }
        let mb = &self.mailboxes[dst];
        let waiter = {
            let mut st = mb.state.lock().unwrap();
            st.queue.push_back((src, msg));
            st.take_waiter_on(src)
        };
        if let Some(w) = waiter {
            self.resume(mb, w);
        }
        true
    }

    /// Blocking receive for rank `me` of the next message from `src` with
    /// tag `tag`. `hook` selects the blocking style: condvar wait for
    /// OS-thread ranks, park-the-coroutine for pooled ranks.
    fn recv(
        &self,
        me: usize,
        src: usize,
        tag: Tag,
        hook: Option<&CoroHook>,
    ) -> Result<Msg, RecvError> {
        let mb = &self.mailboxes[me];
        let mut st = mb.state.lock().unwrap();
        loop {
            let hit = st.queue.iter().position(|(s, m)| *s == src && m.tag == tag);
            #[cfg(test)]
            {
                st.skipped += hit.unwrap_or(st.queue.len());
            }
            if let Some(pos) = hit {
                return Ok(st.queue.remove(pos).expect("position valid").1);
            }
            // The exit check comes *after* the queue scan, so messages sent
            // before an exit are still delivered after it. It is made under
            // the watcher-set lock `src` stores its flag and drains its set
            // under: missing the flag here means being in the set `src`
            // will drain, and since this mailbox stays locked until we
            // block, `src` finds the waiter recorded when it visits.
            {
                let mut watchers = self.watchers[src].lock().unwrap();
                if self.exited[src].load(Ordering::Acquire) {
                    return Err(RecvError::Disconnected { from: src });
                }
                // `insert` makes room before it looks, so a full set would
                // grow on a re-insert.
                if !watchers.contains(&me) {
                    watchers.insert(me);
                }
            }
            st.waiting = Some(Waiter {
                src,
                task: hook.map(CoroHook::tid),
            });
            match hook {
                None => st = mb.arrived.wait(st).unwrap(),
                Some(h) => {
                    drop(st);
                    h.park();
                    st = mb.state.lock().unwrap();
                }
            }
            // Whoever woke us took the waiter; a spurious condvar wake-up
            // did not, and a stale one must not outlive this receive.
            st.waiting = None;
            #[cfg(test)]
            self.resumes.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Mark `rank` exited and wake the receivers blocked on it, which
    /// observe the flag and error out. Receivers blocked on other ranks
    /// are not touched.
    pub(crate) fn mark_exited(&self, rank: usize) {
        let blocked_once = {
            let mut watchers = self.watchers[rank].lock().unwrap();
            if self.exited[rank].swap(true, Ordering::AcqRel) {
                return;
            }
            std::mem::take(&mut *watchers)
        };
        for r in blocked_once {
            let mb = &self.mailboxes[r];
            let waiter = mb.state.lock().unwrap().take_waiter_on(rank);
            if let Some(w) = waiter {
                self.resume(mb, w);
            }
        }
    }
}

/// One processor's handle into the fabric. Dropping it marks the rank
/// exited (waking any peer blocked on it), which is how a finished — or
/// panicked and unwound — rank disconnects.
pub(crate) struct Endpoints {
    fabric: Arc<Fabric>,
    rank: usize,
}

impl Endpoints {
    pub(crate) fn on(fabric: Arc<Fabric>, rank: usize) -> Endpoints {
        Endpoints { fabric, rank }
    }

    /// Blocking receive of the next message from `src` with tag `tag`.
    /// `hook` selects the wait: `None` blocks the OS thread, `Some` parks
    /// the coroutine.
    ///
    /// Messages with other tags that arrive first stay queued and are
    /// delivered to later receives, so independent protocols (e.g. a
    /// collective and a user exchange) can interleave safely.
    pub(crate) fn recv(
        &self,
        src: usize,
        tag: Tag,
        hook: Option<&CoroHook>,
    ) -> Result<Msg, RecvError> {
        self.fabric.recv(self.rank, src, tag, hook)
    }

    /// Send `msg` to `dst`. Returns `false` if `dst` has already exited.
    ///
    /// In a healthy SPMD program that never happens; under fault injection a
    /// peer may have aborted on a permanent fault, in which case the message
    /// is dropped on the floor — the sender keeps running and the aborted
    /// rank's error drives machine-level recovery. Panicking here instead
    /// would tear down every surviving rank's thread.
    pub fn send(&self, dst: usize, msg: Msg) -> bool {
        self.fabric.send(self.rank, dst, msg)
    }
}

impl Drop for Endpoints {
    fn drop(&mut self) {
        self.fabric.mark_exited(self.rank);
    }
}

/// Build the full fabric for `n` processors: a vector of per-rank endpoint
/// handles over one shared lazy mailbox fabric.
pub(crate) fn build_fabric(n: usize) -> Vec<Endpoints> {
    let fabric = Fabric::new(n);
    (0..n)
        .map(|rank| Endpoints::on(fabric.clone(), rank))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(tag: u32, val: u64) -> Msg {
        Msg {
            tag: Tag(tag),
            payload: Payload::U64(vec![val]),
            arrival: SimTime(1.0),
        }
    }

    #[test]
    fn fabric_delivers_point_to_point() {
        let mut eps = build_fabric(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        a.send(1, msg(7, 42));
        let got = b.recv(0, Tag(7), None).expect("message delivered");
        assert_eq!(got.tag, Tag(7));
        assert_eq!(got.arrival, SimTime(1.0));
        assert_eq!(got.payload.into_u64(), vec![42]);
    }

    #[test]
    fn recv_buffers_mismatched_tags() {
        let mut eps = build_fabric(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        a.send(1, msg(1, 10));
        a.send(1, msg(2, 20));
        // Ask for tag 2 first: tag 1 must stay queued, not get lost.
        let second = b.recv(0, Tag(2), None).unwrap();
        assert_eq!(second.payload.into_u64(), vec![20]);
        let first = b.recv(0, Tag(1), None).unwrap();
        assert_eq!(first.payload.into_u64(), vec![10]);
    }

    #[test]
    fn recv_from_dead_sender_errors() {
        let mut eps = build_fabric(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        drop(a);
        assert_eq!(
            b.recv(0, Tag(0), None),
            Err(RecvError::Disconnected { from: 0 })
        );
    }

    #[test]
    fn messages_sent_before_exit_survive_the_exit() {
        let mut eps = build_fabric(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        a.send(1, msg(4, 77));
        drop(a);
        // The queued message is still deliverable; only *after* draining it
        // does the disconnect surface.
        assert_eq!(
            b.recv(0, Tag(4), None).unwrap().payload.into_u64(),
            vec![77]
        );
        assert_eq!(
            b.recv(0, Tag(4), None),
            Err(RecvError::Disconnected { from: 0 })
        );
    }

    #[test]
    fn send_to_exited_rank_reports_failure() {
        let mut eps = build_fabric(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        drop(b);
        assert!(!a.send(1, msg(0, 1)));
    }

    /// What the last rank does to release the receiver parked on it.
    #[derive(Clone, Copy, PartialEq)]
    enum Release {
        Send,
        Exit,
    }

    /// Run `body(rank, hook, endpoints)` as `n` rank coroutines over
    /// `fabric` on a fresh pool of `workers`, and wait for them. Returns
    /// whether the pool's deadlock detector failed the run. A rank body
    /// must not panic: record what it saw and assert outside.
    fn run_pooled<F>(fabric: &Arc<Fabric>, workers: usize, body: F) -> bool
    where
        F: Fn(usize, CoroHook, Endpoints) + Send + Sync + 'static,
    {
        use crate::pool::{RankBody, WorkerPool};
        let n = fabric.mailboxes.len();
        let pool = WorkerPool::new(workers);
        let run = pool.new_run(n);
        let body = Arc::new(body);
        let bodies: Vec<RankBody> = (0..n)
            .map(|rank| {
                let fabric = fabric.clone();
                let body = body.clone();
                Box::new(move |y: &crate::coro::Yielder, token| {
                    body(rank, CoroHook::new(y, token), Endpoints::on(fabric, rank))
                }) as RankBody
            })
            .collect();
        let tids = pool.submit(&run, bodies);
        fabric.set_wake(pool.shared_arc());
        pool.launch(&tids);
        run.wait();
        run.failed()
    }

    /// Rank 0 of a 1024-rank fabric blocks on the last rank `s`, every
    /// rank in between exits, then `s` releases it. Counts, not clocks:
    /// the receiver must not be resumed at all until `s` acts, and exactly
    /// once when it does. Returns what the receive returned.
    fn pooled_receiver_parked_on_last_rank(release: Release) -> Result<Msg, RecvError> {
        let n = 1024;
        let s = n - 1;
        let fabric = Fabric::new(n);
        let got = Arc::new(Mutex::new(None));
        // What `s` saw before acting (asserted outside the coroutine, where
        // a failure unwinds normally).
        let seen = Arc::new(Mutex::new(None));
        // One worker runs equal-clock ranks of one run in rank order, so
        // rank 0 is parked before rank 1 exits and `s` goes last.
        let failed = run_pooled(&fabric, 1, {
            let (fabric, got, seen) = (fabric.clone(), got.clone(), seen.clone());
            move |rank, hook, ep| {
                if rank == 0 {
                    *got.lock().unwrap() = Some(ep.recv(s, Tag(7), Some(&hook)));
                } else if rank == s {
                    let others_exited = (1..s).all(|r| fabric.exited[r].load(Ordering::Acquire));
                    let parked_on = fabric.mailboxes[0].state.lock().unwrap().waiting;
                    let resumes = fabric.resumes.load(Ordering::Relaxed);
                    *seen.lock().unwrap() = Some((others_exited, parked_on, resumes));
                    if release == Release::Send {
                        ep.send(0, msg(7, 99));
                    }
                }
                // Dropping `ep` is the rank's exit.
            }
        });
        assert!(!failed, "no rank was left parked");
        let (others_exited, parked_on, resumes) = seen.lock().unwrap().expect("rank s ran");
        assert!(others_exited, "ranks 1..s exited before s ran");
        assert_eq!(parked_on.map(|w| w.src), Some(s), "rank 0 parked on s");
        assert_eq!(resumes, 0, "resumed while ranks other than s exited");
        assert_eq!(fabric.resumes.load(Ordering::Relaxed), 1);
        let got = got.lock().unwrap().take();
        got.expect("rank 0 returned from its receive")
    }

    #[test]
    fn pooled_receiver_sleeps_through_unrelated_exits_until_its_source_sends() {
        let got = pooled_receiver_parked_on_last_rank(Release::Send).unwrap();
        assert_eq!(got.payload.into_u64(), vec![99]);
    }

    #[test]
    fn pooled_receiver_sleeps_through_unrelated_exits_until_its_source_exits() {
        assert_eq!(
            pooled_receiver_parked_on_last_rank(Release::Exit),
            Err(RecvError::Disconnected { from: 1023 })
        );
    }

    #[test]
    fn thread_receiver_sleeps_through_unrelated_exits_and_sends() {
        let n = 1024;
        let s = n - 1;
        let fabric = Fabric::new(n);
        let got = std::thread::scope(|scope| {
            let rx = scope.spawn(|| fabric.recv(0, s, Tag(7), None));
            // The waiter is recorded under the mailbox lock that the
            // condvar wait releases, so once it is visible the receiver is
            // asleep.
            while fabric.mailboxes[0].state.lock().unwrap().waiting.is_none() {
                std::thread::yield_now();
            }
            assert!(
                fabric.send(1, 0, msg(7, 1)),
                "a message from another source"
            );
            for r in 1..s {
                fabric.mark_exited(r);
            }
            assert_eq!(fabric.resumes.load(Ordering::Relaxed), 0);
            assert!(fabric.send(s, 0, msg(7, 99)));
            rx.join().unwrap()
        });
        assert_eq!(got.unwrap().payload.into_u64(), vec![99]);
        assert_eq!(fabric.resumes.load(Ordering::Relaxed), 1);
    }

    /// Every source sends interleaved tags into rank 0's mailbox, then a
    /// last `DONE` message, so the whole stream is queued before rank 0
    /// reads it back by `(source, tag)` in an order unlike arrival order.
    /// Returns rank 0's reads as `(source, tag, sequence number)`.
    fn interleaved_reads(engine: crate::machine::Engine) -> Vec<(usize, u32, u64)> {
        use crate::machine::{Machine, MachineConfig};
        const DONE: Tag = Tag(9);
        let (p, per_tag) = (5, 4);
        let machine = Machine::new(MachineConfig::free(p).with_engine(engine));
        let (_, mut reads) = machine.run_with(|ctx| {
            if ctx.rank() != 0 {
                for seq in 0..3 * per_tag {
                    let tag = Tag(seq as u32 % 3);
                    ctx.send(0, tag, Payload::U64(vec![seq]));
                }
                ctx.send(0, DONE, Payload::U64(vec![]));
                return Vec::new();
            }
            for src in 1..p {
                ctx.recv(src, DONE).unwrap();
            }
            let mut reads = Vec::new();
            for tag in [2, 0, 1] {
                for src in (1..p).rev() {
                    for _ in 0..per_tag {
                        let seq = ctx.recv(src, Tag(tag)).unwrap().into_u64()[0];
                        reads.push((src, tag, seq));
                    }
                }
            }
            reads
        });
        reads.swap_remove(0)
    }

    #[test]
    fn each_source_arrives_in_send_order_on_every_engine() {
        use crate::machine::Engine;
        let threads = interleaved_reads(Engine::Threads);
        // Sequence numbers `tag, tag + 3, ...` per source, in send order.
        let expect: Vec<_> = [2u32, 0, 1]
            .into_iter()
            .flat_map(|tag| {
                (1..5)
                    .rev()
                    .flat_map(move |src| (0..4).map(move |k| (src, tag, (tag + 3 * k) as u64)))
            })
            .collect();
        assert_eq!(threads, expect);
        for engine in [Engine::Pool(1), Engine::Pool(2)] {
            assert_eq!(interleaved_reads(engine), expect, "{engine:?}");
        }
    }

    #[test]
    fn alltoallv_receives_skip_at_most_p_entries_per_rank() {
        use crate::costmodel::CostModel;
        use crate::proc::{Blocker, ProcCtx};
        let p = 256;
        let fabric = Fabric::new(p);
        let delivered = Arc::new(Mutex::new(vec![false; p]));
        let failed = run_pooled(&fabric, 1, {
            let delivered = delivered.clone();
            move |rank, hook, ep| {
                let cost = CostModel::free(p);
                let ctx = ProcCtx::new(rank, p, cost, ep, None, None, 0, Blocker::Coro(hook));
                let sends = (0..p).map(|_| vec![rank as u64]).collect();
                let got = ctx.alltoallv::<u64>(sends);
                delivered.lock().unwrap()[rank] =
                    got.iter().enumerate().all(|(j, v)| v == &[j as u64]);
            }
        });
        assert!(!failed);
        assert!(delivered.lock().unwrap().iter().all(|&ok| ok));
        for (rank, mb) in fabric.mailboxes.iter().enumerate() {
            let skipped = mb.state.lock().unwrap().skipped;
            assert!(skipped <= p, "rank {rank} stepped over {skipped} entries");
        }
    }

    #[test]
    fn large_fabrics_are_cheap_to_build() {
        // An eager fabric would allocate n² channel pairs here; mailboxes
        // allocate only when messages flow into them.
        let eps = build_fabric(1024);
        assert_eq!(eps.len(), 1024);
    }

    #[test]
    fn payload_sizes() {
        assert_eq!(Payload::Bytes(vec![0; 10]).size_bytes(), 10);
        assert_eq!(Payload::F32(vec![0.0; 10]).size_bytes(), 40);
        assert_eq!(Payload::F64(vec![0.0; 10]).size_bytes(), 80);
        assert_eq!(Payload::U64(vec![0; 10]).size_bytes(), 80);
    }

    #[test]
    #[should_panic(expected = "protocol error")]
    fn wrong_payload_unwrap_panics() {
        Payload::F32(vec![1.0]).into_u64();
    }

    #[test]
    fn try_unwrap_returns_typed_mismatch() {
        let err = Payload::F32(vec![1.0]).try_into_u64().unwrap_err();
        assert_eq!(err.expected, "U64");
        assert_eq!(err.got, "F32");
        assert!(err.to_string().contains("protocol error"));
        assert_eq!(Payload::U64(vec![3]).try_into_u64().unwrap(), vec![3]);
        assert_eq!(Payload::Bytes(vec![1]).try_into_bytes().unwrap(), vec![1]);
        assert_eq!(Payload::F64(vec![2.0]).try_into_f64().unwrap(), vec![2.0]);
    }
}
