//! Fixed worker pool scheduling rank coroutines.
//!
//! The pooled engine ([`crate::machine::Engine::Pool`]) turns every
//! simulated rank into a [`crate::coro::Coro`] and multiplexes them onto a
//! small, fixed set of OS threads. A rank runs until it blocks at a
//! clock-advance point — an empty mailbox, a collective step, a disk wait —
//! then yields its continuation back here. The scheduler always dispatches
//! the runnable task with the **lowest `(virtual time, run, rank)` key**.
//!
//! That key is a locality heuristic, not the correctness mechanism: every
//! per-rank result (clock, stats, trace, fault stream) is a pure function
//! of the rank's own event sequence, and messages carry their arrival
//! timestamps, so *any* dataflow-respecting schedule produces bitwise-
//! identical reports (the threaded engine already relies on this — see
//! `simulated_time_is_deterministic`). Dispatching lowest-virtual-time
//! first simply keeps the working set small and makes progress resemble
//! the simulated timeline.
//!
//! Park/wake protocol: a receiver registers itself in its mailbox *under
//! the mailbox lock*, then yields. The window between releasing the
//! mailbox lock and the worker finishing the context switch is covered by
//! `wake_pending`: a wake that arrives while the task is still formally
//! `Running` marks the slot, and the worker re-queues instead of parking
//! when it processes the yield.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::coro::{Coro, CoroStatus, YieldReason, Yielder};

/// Scheduling key: `(virtual-time bits, run sequence, rank, task id)`.
/// Virtual time is an `f64` ordered by `to_bits()`, which is monotone for
/// the non-negative finite values simulated clocks take.
type Key = (u64, u64, usize, usize);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    /// Submitted but not yet launched; never dispatched or woken.
    Staged,
    /// In the runnable heap.
    Queued,
    /// A worker is executing it right now.
    Running,
    /// Blocked waiting for a wake (message arrival or peer exit).
    Parked,
}

struct Slot {
    /// Present except while a worker is resuming it.
    coro: Option<Coro>,
    state: TaskState,
    /// A wake arrived while the task was `Running` (it was mid-yield).
    wake_pending: bool,
    vtime_bits: u64,
    run_seq: u64,
    rank: usize,
    run: Arc<RunCore>,
}

struct Sched {
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    runnable: BinaryHeap<Reverse<Key>>,
    running: usize,
    /// Launched, unfinished tasks.
    live: usize,
    /// Submitted but not yet launched tasks (excluded from deadlock checks).
    staged: usize,
    /// Workers blocked in `work.wait`. A push notifies only when this is
    /// non-zero; reading it under the lock the push holds means a worker
    /// either saw the push before waiting or is counted here.
    sleeping: usize,
    shutdown: bool,
}

impl Sched {
    fn push_runnable(&mut self, tid: usize) {
        let slot = self.slots[tid].as_mut().expect("live slot");
        slot.state = TaskState::Queued;
        let key = (slot.vtime_bits, slot.run_seq, slot.rank, tid);
        self.runnable.push(Reverse(key));
    }
}

/// State shared by the workers, the submitting threads, and the wake paths
/// in the message fabric.
pub(crate) struct PoolShared {
    sched: Mutex<Sched>,
    work: Condvar,
    next_run_seq: AtomicU64,
    workers: usize,
}

impl PoolShared {
    /// Make a parked task runnable. Wakes on `Running` tasks are deferred
    /// via `wake_pending`; wakes on `Queued`/`Staged`/dead tasks are no-ops
    /// (receivers always re-check their mailbox after resuming, so spurious
    /// wakes are harmless).
    pub(crate) fn wake(&self, tid: usize) {
        let mut s = self.sched.lock().unwrap();
        let Some(slot) = s.slots.get_mut(tid).and_then(Option::as_mut) else {
            return;
        };
        match slot.state {
            TaskState::Parked => {
                s.push_runnable(tid);
                if s.sleeping > 0 {
                    drop(s);
                    self.work.notify_one();
                }
            }
            TaskState::Running => slot.wake_pending = true,
            TaskState::Queued | TaskState::Staged => {}
        }
    }

    /// Whether any queued task has a strictly lower key than `(vtime_bits,
    /// run of tid, rank of tid)` — the cheap test behind cooperative yields.
    fn someone_is_behind(&self, tid: usize, vtime_bits: u64) -> bool {
        let s = self.sched.lock().unwrap();
        let Some(slot) = s.slots.get(tid).and_then(Option::as_ref) else {
            return false;
        };
        match s.runnable.peek() {
            Some(Reverse(k)) => *k < (vtime_bits, slot.run_seq, slot.rank, tid),
            None => false,
        }
    }
}

/// Identity a rank task receives when it starts executing; combined with
/// the coroutine's [`Yielder`] it becomes the [`CoroHook`] the blocking
/// paths use.
pub(crate) struct TaskToken {
    pub(crate) tid: usize,
    pub(crate) shared: Arc<PoolShared>,
}

/// The handle a *running* rank coroutine uses to suspend itself. Lives in
/// the rank's `ProcCtx`; the raw yielder pointer is valid for the
/// coroutine's whole lifetime because it points into `coro_main`'s frame
/// on the coroutine's own stack.
pub(crate) struct CoroHook {
    yielder: *const Yielder,
    tid: usize,
    shared: Arc<PoolShared>,
    /// Current virtual time (as bits), refreshed by `ProcCtx` immediately
    /// before every potential suspension so the scheduler re-keys the task
    /// at the clock it blocked at.
    vtime_bits: std::cell::Cell<u64>,
}

impl CoroHook {
    pub(crate) fn new(yielder: &Yielder, token: TaskToken) -> CoroHook {
        CoroHook {
            yielder,
            tid: token.tid,
            shared: token.shared,
            vtime_bits: std::cell::Cell::new(0),
        }
    }

    pub(crate) fn tid(&self) -> usize {
        self.tid
    }

    pub(crate) fn set_vtime_bits(&self, bits: u64) {
        self.vtime_bits.set(bits);
    }

    /// Park until a wake: the caller must already have registered itself
    /// wherever the wake will come from (its mailbox).
    pub(crate) fn park(&self) {
        // SAFETY: the yielder lives on this coroutine's stack and we *are*
        // this coroutine (park is only called from rank code).
        unsafe { (*self.yielder).yield_blocked(self.vtime_bits.get()) };
    }

    /// Cooperative yield at a clock-advance point: switch out only if some
    /// runnable task is behind this one in virtual time, otherwise return
    /// immediately (the scheduler would re-dispatch us anyway).
    pub(crate) fn coop_yield(&self) {
        let bits = self.vtime_bits.get();
        if self.shared.someone_is_behind(self.tid, bits) {
            // SAFETY: as in `park`.
            unsafe { (*self.yielder).yield_coop(bits) };
        }
    }
}

/// Per-run completion state: how `Machine::run_on` blocks until its ranks
/// are done, and where rank panics / deadlock kills are recorded.
pub(crate) struct RunCore {
    remaining: Mutex<usize>,
    done: Condvar,
    /// Lowest-rank panic payload, matching the threaded engine's
    /// join-in-rank-order propagation.
    panic: Mutex<Option<(usize, Box<dyn std::any::Any + Send>)>>,
    failed: AtomicBool,
    deadlocked: Mutex<Vec<usize>>,
    /// Set by [`WorkerPool::kill_run`]: the run is being torn down and no
    /// task of it may be dispatched again. Workers reap killed tasks at
    /// their next dispatch or yield instead of running them.
    killed: AtomicBool,
    killed_ranks: Mutex<Vec<usize>>,
    seq: u64,
}

impl RunCore {
    pub(crate) fn record_panic(&self, rank: usize, payload: Box<dyn std::any::Any + Send>) {
        let mut p = self.panic.lock().unwrap();
        match &*p {
            Some((r, _)) if *r <= rank => {}
            _ => *p = Some((rank, payload)),
        }
    }

    pub(crate) fn take_panic(&self) -> Option<(usize, Box<dyn std::any::Any + Send>)> {
        self.panic.lock().unwrap().take()
    }

    pub(crate) fn failed(&self) -> bool {
        self.failed.load(Ordering::Acquire)
    }

    pub(crate) fn deadlocked_ranks(&self) -> Vec<usize> {
        self.deadlocked.lock().unwrap().clone()
    }

    pub(crate) fn was_killed(&self) -> bool {
        self.killed.load(Ordering::Acquire)
    }

    pub(crate) fn killed_ranks(&self) -> Vec<usize> {
        self.killed_ranks.lock().unwrap().clone()
    }

    fn task_done(&self, finished: usize) {
        let mut rem = self.remaining.lock().unwrap();
        *rem = rem.saturating_sub(finished);
        if *rem == 0 {
            self.done.notify_all();
        }
    }

    /// Block until every task of the run has finished (or been killed).
    pub(crate) fn wait(&self) {
        let mut rem = self.remaining.lock().unwrap();
        while *rem > 0 {
            rem = self.done.wait(rem).unwrap();
        }
    }

    pub(crate) fn is_done(&self) -> bool {
        *self.remaining.lock().unwrap() == 0
    }

    #[cfg(test)]
    fn remaining_for_test(&self) -> usize {
        *self.remaining.lock().unwrap()
    }
}

/// A rank body as submitted to the pool: runs on a fresh coroutine, with
/// the task identity delivered once the coroutine starts.
pub(crate) type RankBody = Box<dyn FnOnce(&Yielder, TaskToken) + Send + 'static>;

/// A fixed set of worker threads executing rank coroutines.
///
/// Cloning is cheap (shared handle); the workers shut down when the last
/// handle drops, after finishing all launched work.
#[derive(Clone)]
pub struct WorkerPool {
    inner: Arc<PoolInner>,
}

struct PoolInner {
    shared: Arc<PoolShared>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.inner.shared.workers)
            .finish()
    }
}

impl WorkerPool {
    /// A pool with `workers` threads; `0` picks the host's available
    /// parallelism.
    pub fn new(workers: usize) -> WorkerPool {
        let workers = if workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            workers
        };
        let shared = Arc::new(PoolShared {
            sched: Mutex::new(Sched {
                slots: Vec::new(),
                free: Vec::new(),
                runnable: BinaryHeap::new(),
                running: 0,
                live: 0,
                staged: 0,
                sleeping: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            next_run_seq: AtomicU64::new(0),
            workers,
        });
        let threads = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("dmsim-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            inner: Arc::new(PoolInner {
                shared,
                threads: Mutex::new(threads),
            }),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.inner.shared.workers
    }

    pub(crate) fn shared_arc(&self) -> Arc<PoolShared> {
        self.inner.shared.clone()
    }

    /// Allocate completion state for a run of `ntasks` ranks.
    pub(crate) fn new_run(&self, ntasks: usize) -> Arc<RunCore> {
        Arc::new(RunCore {
            remaining: Mutex::new(ntasks),
            done: Condvar::new(),
            panic: Mutex::new(None),
            failed: AtomicBool::new(false),
            deadlocked: Mutex::new(Vec::new()),
            killed: AtomicBool::new(false),
            killed_ranks: Mutex::new(Vec::new()),
            seq: self
                .inner
                .shared
                .next_run_seq
                .fetch_add(1, Ordering::Relaxed),
        })
    }

    /// Stage one coroutine per body (rank = index). Staged tasks hold slots
    /// but are invisible to dispatch until [`WorkerPool::launch`].
    pub(crate) fn submit(&self, run: &Arc<RunCore>, bodies: Vec<RankBody>) -> Vec<usize> {
        let shared = &self.inner.shared;
        let mut s = shared.sched.lock().unwrap();
        let mut tids = Vec::with_capacity(bodies.len());
        for (rank, body) in bodies.into_iter().enumerate() {
            let tid = s.free.pop().unwrap_or_else(|| {
                s.slots.push(None);
                s.slots.len() - 1
            });
            let token_shared = shared.clone();
            let coro = Coro::new(Box::new(move |y: &Yielder| {
                body(
                    y,
                    TaskToken {
                        tid,
                        shared: token_shared,
                    },
                )
            }));
            s.slots[tid] = Some(Slot {
                coro: Some(coro),
                state: TaskState::Staged,
                wake_pending: false,
                vtime_bits: 0,
                run_seq: run.seq,
                rank,
                run: run.clone(),
            });
            s.staged += 1;
            tids.push(tid);
        }
        tids
    }

    /// Tear down every unfinished task of `run` without poisoning the pool
    /// or touching other runs.
    ///
    /// Parked and staged tasks are reaped immediately (suspended coroutine
    /// stacks are freed with their frames leaked, exactly like deadlock
    /// kills). Queued tasks cannot be removed here — the runnable heap
    /// holds their entries and tids are reused after free, so yanking the
    /// slot would let a stale heap entry dispatch a stranger — and running
    /// tasks are mid-execution on a worker; both are reaped by workers at
    /// their next dispatch or yield. Returns once the kill is initiated;
    /// `run.wait()` blocks until every task is accounted for.
    pub(crate) fn kill_run(&self, run: &Arc<RunCore>) {
        let shared = &self.inner.shared;
        run.killed.store(true, Ordering::Release);
        let mut s = shared.sched.lock().unwrap();
        let mut reaped = 0usize;
        for tid in 0..s.slots.len() {
            let belongs = s.slots[tid]
                .as_ref()
                .is_some_and(|sl| Arc::ptr_eq(&sl.run, run));
            if !belongs {
                continue;
            }
            let state = s.slots[tid].as_ref().map(|sl| sl.state);
            match state {
                Some(TaskState::Parked) => {
                    let slot = s.slots[tid].take().expect("checked live");
                    s.free.push(tid);
                    s.live -= 1;
                    run.killed_ranks.lock().unwrap().push(slot.rank);
                    reaped += 1;
                    // `slot.coro` (suspended) drops here: stack freed,
                    // frames leaked.
                }
                Some(TaskState::Staged) => {
                    let slot = s.slots[tid].take().expect("checked live");
                    s.free.push(tid);
                    s.staged -= 1;
                    run.killed_ranks.lock().unwrap().push(slot.rank);
                    reaped += 1;
                }
                Some(TaskState::Queued | TaskState::Running) | None => {}
            }
        }
        drop(s);
        if reaped > 0 {
            run.task_done(reaped);
        }
        // Workers may be asleep while the heap holds killed entries to reap.
        shared.work.notify_all();
    }

    /// Make previously staged tasks runnable, seeded at virtual time zero
    /// in rank order.
    pub(crate) fn launch(&self, tids: &[usize]) {
        let shared = &self.inner.shared;
        {
            let mut s = shared.sched.lock().unwrap();
            for &tid in tids {
                debug_assert_eq!(
                    s.slots[tid].as_ref().map(|sl| sl.state),
                    Some(TaskState::Staged)
                );
                s.staged -= 1;
                s.live += 1;
                s.push_runnable(tid);
            }
        }
        shared.work.notify_all();
    }
}

impl Drop for PoolInner {
    fn drop(&mut self) {
        {
            let mut s = self.shared.sched.lock().unwrap();
            s.shutdown = true;
        }
        self.shared.work.notify_all();
        for t in self.threads.lock().unwrap().drain(..) {
            let _ = t.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    let mut s = shared.sched.lock().unwrap();
    loop {
        if let Some(Reverse((_, _, _, tid))) = s.runnable.pop() {
            let slot = s.slots[tid].as_mut().expect("queued slot is live");
            if slot.run.was_killed() {
                let slot = s.slots[tid].take().expect("checked live");
                s.free.push(tid);
                s.live -= 1;
                let run = slot.run.clone();
                run.killed_ranks.lock().unwrap().push(slot.rank);
                drop(s);
                // `slot.coro` drops here: if it already started, its
                // suspended stack is freed with frames leaked.
                drop(slot);
                run.task_done(1);
                s = shared.sched.lock().unwrap();
                continue;
            }
            slot.state = TaskState::Running;
            slot.wake_pending = false;
            let mut coro = slot.coro.take().expect("queued slot holds its coroutine");
            s.running += 1;
            drop(s);

            let status = coro.resume();

            s = shared.sched.lock().unwrap();
            s.running -= 1;
            match status {
                CoroStatus::Finished => {
                    let slot = s.slots[tid].take().expect("finished slot is live");
                    s.free.push(tid);
                    s.live -= 1;
                    drop(s);
                    drop(coro);
                    slot.run.task_done(1);
                    s = shared.sched.lock().unwrap();
                }
                CoroStatus::Yielded(reason, vtime_bits) => {
                    let slot = s.slots[tid].as_mut().expect("yielded slot is live");
                    if slot.run.was_killed() {
                        let slot = s.slots[tid].take().expect("checked live");
                        s.free.push(tid);
                        s.live -= 1;
                        let run = slot.run.clone();
                        run.killed_ranks.lock().unwrap().push(slot.rank);
                        drop(s);
                        // The coroutine just yielded into our hands; drop
                        // frees its stack, leaking suspended frames.
                        drop(coro);
                        drop(slot);
                        run.task_done(1);
                        s = shared.sched.lock().unwrap();
                        continue;
                    }
                    slot.vtime_bits = vtime_bits;
                    slot.coro = Some(coro);
                    let requeue = match reason {
                        YieldReason::Coop => true,
                        YieldReason::Blocked => slot.wake_pending,
                    };
                    slot.wake_pending = false;
                    if requeue {
                        s.push_runnable(tid);
                        // Another worker may be asleep from when the heap
                        // was empty; this worker might dispatch a different
                        // task next, so surface the new entry.
                        if s.sleeping > 0 {
                            shared.work.notify_one();
                        }
                    } else {
                        slot.state = TaskState::Parked;
                    }
                }
            }
        } else if s.running == 0 && s.staged == 0 && s.live > 0 {
            s = kill_deadlocked(shared, s);
        } else if s.shutdown && s.live == 0 && s.staged == 0 {
            return;
        } else {
            s.sleeping += 1;
            s = shared.work.wait(s).unwrap();
            s.sleeping -= 1;
        }
    }
}

/// Every live task is parked and nothing can ever wake one (all wakes come
/// from peer tasks within a run): the simulated programs deadlocked. Kill
/// the parked tasks — their suspended coroutine stacks are leaked, since
/// running destructors on a foreign suspended stack is not possible — mark
/// their runs failed and release the runs' waiters, which turn this into a
/// diagnostic panic on the submitting thread.
fn kill_deadlocked<'a>(
    shared: &'a PoolShared,
    mut s: std::sync::MutexGuard<'a, Sched>,
) -> std::sync::MutexGuard<'a, Sched> {
    let mut victims: Vec<(Arc<RunCore>, usize)> = Vec::new();
    for tid in 0..s.slots.len() {
        let parked = matches!(
            s.slots[tid].as_ref().map(|sl| sl.state),
            Some(TaskState::Parked)
        );
        if !parked {
            continue;
        }
        let slot = s.slots[tid].take().expect("checked live");
        s.free.push(tid);
        s.live -= 1;
        slot.run.failed.store(true, Ordering::Release);
        slot.run.deadlocked.lock().unwrap().push(slot.rank);
        // `slot.coro` (suspended) drops here: stack freed, frames leaked.
        victims.push((slot.run.clone(), 1));
    }
    drop(s);
    for (run, n) in victims {
        run.task_done(n);
    }
    shared.sched.lock().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn run_bodies(pool: &WorkerPool, bodies: Vec<RankBody>) -> Arc<RunCore> {
        let run = pool.new_run(bodies.len());
        let tids = pool.submit(&run, bodies);
        pool.launch(&tids);
        run
    }

    #[test]
    fn tasks_run_to_completion_on_few_workers() {
        let pool = WorkerPool::new(2);
        let count = Arc::new(AtomicUsize::new(0));
        let bodies: Vec<RankBody> = (0..32)
            .map(|_| {
                let count = count.clone();
                Box::new(move |y: &Yielder, token: TaskToken| {
                    let hook = CoroHook::new(y, token);
                    hook.set_vtime_bits(1);
                    hook.coop_yield();
                    count.fetch_add(1, Ordering::SeqCst);
                }) as RankBody
            })
            .collect();
        let run = run_bodies(&pool, bodies);
        run.wait();
        assert_eq!(count.load(Ordering::SeqCst), 32);
        assert!(!run.failed());
    }

    #[test]
    fn park_and_wake_round_trip() {
        let pool = WorkerPool::new(1);
        // Task 0 parks; task 1 wakes it by tid. The tid handoff goes
        // through a shared cell the way the fabric's mailboxes do it.
        let parked_tid = Arc::new(Mutex::new(None::<usize>));
        let order = Arc::new(Mutex::new(Vec::new()));
        let (pt0, ord0) = (parked_tid.clone(), order.clone());
        let (pt1, ord1) = (parked_tid.clone(), order.clone());
        let bodies: Vec<RankBody> = vec![
            Box::new(move |y, token| {
                let hook = CoroHook::new(y, token);
                *pt0.lock().unwrap() = Some(hook.tid());
                hook.park();
                ord0.lock().unwrap().push("woken");
            }),
            Box::new(move |y, token| {
                let hook = CoroHook::new(y, token);
                ord1.lock().unwrap().push("waker");
                let tid = pt1.lock().unwrap().take().expect("task 0 ran first");
                hook.shared.wake(tid);
            }),
        ];
        let run = run_bodies(&pool, bodies);
        run.wait();
        assert_eq!(*order.lock().unwrap(), vec!["waker", "woken"]);
    }

    #[test]
    fn deadlock_is_detected_and_run_fails() {
        let pool = WorkerPool::new(2);
        let bodies: Vec<RankBody> = (0..3)
            .map(|_| {
                Box::new(move |y: &Yielder, token: TaskToken| {
                    // Park with no one to wake us: a simulated deadlock.
                    CoroHook::new(y, token).park();
                }) as RankBody
            })
            .collect();
        let run = run_bodies(&pool, bodies);
        run.wait();
        assert!(run.failed());
        let mut ranks = run.deadlocked_ranks();
        ranks.sort_unstable();
        assert_eq!(ranks, vec![0, 1, 2]);
        // The pool survives and runs new work.
        let ok = Arc::new(AtomicUsize::new(0));
        let ok2 = ok.clone();
        let run2 = run_bodies(
            &pool,
            vec![Box::new(move |_y: &Yielder, _t: TaskToken| {
                ok2.fetch_add(1, Ordering::SeqCst);
            }) as RankBody],
        );
        run2.wait();
        assert_eq!(ok.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn kill_run_reaps_parked_tasks_without_poisoning_pool() {
        let pool = WorkerPool::new(2);
        // A separate spinner run keeps one worker busy so the deadlock
        // detector (which requires `running == 0`) never fires while the
        // victims sit parked.
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let spinner: Vec<RankBody> = vec![Box::new(move |_y: &Yielder, _t: TaskToken| {
            while !stop2.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        })];
        let run_spin = pool.new_run(spinner.len());
        let tids_spin = pool.submit(&run_spin, spinner);
        pool.launch(&tids_spin);

        // Three ranks park forever.
        let bodies: Vec<RankBody> = (0..3)
            .map(|_| {
                Box::new(move |y: &Yielder, token: TaskToken| {
                    CoroHook::new(y, token).park();
                }) as RankBody
            })
            .collect();
        let run = pool.new_run(bodies.len());
        let tids = pool.submit(&run, bodies);
        pool.launch(&tids);
        // Wait until all three actually parked.
        loop {
            let s = pool.inner.shared.sched.lock().unwrap();
            let parked = s
                .slots
                .iter()
                .flatten()
                .filter(|sl| sl.state == TaskState::Parked)
                .count();
            drop(s);
            if parked == 3 {
                break;
            }
            std::thread::yield_now();
        }
        pool.kill_run(&run);
        run.wait();
        stop.store(true, Ordering::SeqCst);
        run_spin.wait();
        assert_eq!(run.remaining_for_test(), 0);
        assert!(run.was_killed());
        let mut ranks = run.killed_ranks();
        ranks.sort_unstable();
        assert_eq!(ranks, vec![0, 1, 2]);
        assert!(!run.failed(), "kill is not a deadlock failure");
        // The pool still runs fresh work afterwards.
        let ok = Arc::new(AtomicUsize::new(0));
        let ok2 = ok.clone();
        let run2 = run_bodies(
            &pool,
            vec![Box::new(move |_y: &Yielder, _t: TaskToken| {
                ok2.fetch_add(1, Ordering::SeqCst);
            }) as RankBody],
        );
        run2.wait();
        assert_eq!(ok.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn kill_run_leaves_other_runs_untouched() {
        let pool = WorkerPool::new(2);
        // Run A parks forever; run B parks, then is woken and finishes.
        let victim: Vec<RankBody> = vec![Box::new(|y: &Yielder, token: TaskToken| {
            CoroHook::new(y, token).park();
        })];
        let run_a = pool.new_run(victim.len());
        let tids_a = pool.submit(&run_a, victim);
        pool.launch(&tids_a);

        let parked_tid = Arc::new(Mutex::new(None::<usize>));
        let woken = Arc::new(AtomicUsize::new(0));
        let (pt0, w0) = (parked_tid.clone(), woken.clone());
        let pt1 = parked_tid.clone();
        let survivor: Vec<RankBody> = vec![
            Box::new(move |y, token| {
                let hook = CoroHook::new(y, token);
                *pt0.lock().unwrap() = Some(hook.tid());
                hook.park();
                w0.fetch_add(1, Ordering::SeqCst);
            }),
            Box::new(move |y, token| {
                let hook = CoroHook::new(y, token);
                loop {
                    if let Some(tid) = pt1.lock().unwrap().take() {
                        hook.shared.wake(tid);
                        break;
                    }
                    hook.set_vtime_bits(1);
                    hook.coop_yield();
                }
            }),
        ];
        let run_b = pool.new_run(survivor.len());
        let tids_b = pool.submit(&run_b, survivor);
        pool.kill_run(&run_a);
        pool.launch(&tids_b);
        run_a.wait();
        run_b.wait();
        assert!(run_a.was_killed());
        assert!(!run_b.was_killed());
        assert_eq!(woken.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn kill_run_reaps_staged_tasks() {
        let pool = WorkerPool::new(1);
        let ran = Arc::new(AtomicUsize::new(0));
        let ran2 = ran.clone();
        let bodies: Vec<RankBody> = vec![Box::new(move |_y: &Yielder, _t: TaskToken| {
            ran2.fetch_add(1, Ordering::SeqCst);
        })];
        let run = pool.new_run(bodies.len());
        let _tids = pool.submit(&run, bodies);
        // Killed before launch: the staged task must be reaped, never run.
        pool.kill_run(&run);
        run.wait();
        assert_eq!(ran.load(Ordering::SeqCst), 0);
        assert_eq!(run.killed_ranks(), vec![0]);
    }

    #[test]
    fn ping_pong_loses_no_wake_up_while_a_third_rank_stays_parked() {
        use crate::comm::{Payload, Tag};
        use crate::machine::{Machine, MachineConfig};
        // Ranks 0 and 1 keep waking each other while rank 2 sits parked on
        // rank 1, so the idle count is read on every wake and every
        // requeue. A wake dropped because of it strands a rank, and the
        // deadlock detector then fails the run.
        let rounds = 10_000u64;
        let pool = WorkerPool::new(2);
        let machine = Machine::new(MachineConfig::free(3));
        let handle = machine.start_on(&pool, move |ctx| {
            let mut last = 0;
            for i in 0..rounds {
                match ctx.rank() {
                    0 => {
                        ctx.send(1, Tag(1), Payload::U64(vec![i]));
                        last = ctx.recv(1, Tag(2)).unwrap().into_u64()[0];
                    }
                    1 => {
                        let ping = ctx.recv(0, Tag(1)).unwrap().into_u64()[0];
                        ctx.send(0, Tag(2), Payload::U64(vec![ping + 1]));
                    }
                    _ => break,
                }
            }
            match ctx.rank() {
                1 => ctx.send(2, Tag(3), Payload::U64(vec![rounds])),
                2 => last = ctx.recv(1, Tag(3)).unwrap().into_u64()[0],
                _ => {}
            }
            last
        });
        let (_, values) = handle.wait_outcome().expect("no rank deadlocked");
        assert_eq!(values, vec![rounds, 0, rounds]);
    }

    #[test]
    fn lowest_vtime_runs_first_on_one_worker() {
        let pool = WorkerPool::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        // Rank bodies that coop-yield once at distinct vtimes; with one
        // worker the resumption order must follow the (vtime, rank) key.
        let bodies: Vec<RankBody> = [30u64, 10, 20]
            .iter()
            .enumerate()
            .map(|(rank, &vt)| {
                let order = order.clone();
                Box::new(move |y: &Yielder, token: TaskToken| {
                    let hook = CoroHook::new(y, token);
                    hook.set_vtime_bits(vt);
                    // Force the yield even if nothing is behind us.
                    unsafe { (*hook.yielder).yield_coop(vt) };
                    order.lock().unwrap().push(rank);
                }) as RankBody
            })
            .collect();
        let run = run_bodies(&pool, bodies);
        run.wait();
        assert_eq!(*order.lock().unwrap(), vec![1, 2, 0]);
    }
}
