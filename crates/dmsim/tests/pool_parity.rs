//! Engine parity: the pooled executor must be a drop-in replacement for the
//! threaded engine — same clocks, same stats, same traces, same fault
//! streams, bit for bit — and invariant in the number of pool workers.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dmsim::{Engine, FaultConfig, Machine, MachineConfig, ProcCtx, TraceConfig, WorkerPool};

/// A rank body exercising every kind of clock-advance point: compute,
/// point-to-point ring traffic with tag mixing, disk charges with
/// cooperative yields, a collective, and a barrier.
fn workout(ctx: &ProcCtx, work_seed: u64) -> Vec<f64> {
    let p = ctx.nprocs();
    let me = ctx.rank();
    ctx.charge_flops((me as u64 * 7919 + work_seed * 131) % 50_000);
    if p > 1 {
        let next = (me + 1) % p;
        let prev = (me + p - 1) % p;
        // Two tags sent in one order, received in the other: exercises the
        // mailbox's tag-mismatch queuing on both engines.
        ctx.send(next, dmsim::Tag(1), dmsim::Payload::U64(vec![me as u64; 8]));
        ctx.send(next, dmsim::Tag(2), dmsim::Payload::F64(vec![me as f64; 4]));
        let b = ctx.recv(prev, dmsim::Tag(2)).unwrap().into_f64();
        let a = ctx.recv(prev, dmsim::Tag(1)).unwrap().into_u64();
        assert_eq!(a, vec![prev as u64; 8]);
        assert_eq!(b, vec![prev as f64; 4]);
    }
    ctx.charge_io_read(4, 1 << 16);
    ctx.io_yield();
    ctx.charge_io_write(2, 1 << 14);
    ctx.io_yield();
    let v = vec![me as f64 + 1.0, work_seed as f64];
    let sum = ctx.allreduce_sum_f64(&v);
    ctx.barrier();
    sum
}

fn run_config(p: usize, engine: Engine) -> MachineConfig {
    MachineConfig::delta(p)
        .with_trace(TraceConfig::detailed())
        .with_engine(engine)
}

/// Run the workout on `engine` and return everything comparable.
fn observe(p: usize, work_seed: u64, fault_seed: Option<u64>, engine: Engine) -> RunObs {
    let mut machine = Machine::new(run_config(p, engine));
    if let Some(seed) = fault_seed {
        machine = machine.with_fault_injection(FaultConfig::chaos(seed));
    }
    let (mut report, values) = machine.run_with(move |ctx| workout(ctx, work_seed));
    RunObs {
        per_proc: report.per_proc().to_vec(),
        elapsed_bits: report.elapsed().to_bits(),
        trace: report.take_trace(),
        values,
    }
}

#[derive(Debug, PartialEq)]
struct RunObs {
    per_proc: Vec<dmsim::proc::ProcReport>,
    elapsed_bits: u64,
    trace: Option<dmsim::Trace>,
    values: Vec<Vec<f64>>,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Pool(1), Pool(2) and Pool(8) all equal the threaded oracle, bitwise,
    /// fault injection included.
    #[test]
    fn pool_size_is_unobservable(
        p in 1usize..13,
        work_seed in 0u64..1000,
        chaos_raw in 0u64..2000,
    ) {
        // Low half of the range means "no fault injection"; high half is a
        // chaos seed. (The in-repo proptest shim has no `option::of`.)
        let chaos = chaos_raw.checked_sub(1000);
        let oracle = observe(p, work_seed, chaos, Engine::Threads);
        for workers in [1usize, 2, 8] {
            let pooled = observe(p, work_seed, chaos, Engine::Pool(workers));
            prop_assert_eq!(
                &pooled, &oracle,
                "Pool({}) diverged from Engine::Threads at p={}", workers, p
            );
        }
    }

    /// Sharing one pool across consecutive runs (the multi-job setup) does
    /// not perturb results either.
    #[test]
    fn shared_pool_reuse_is_unobservable(
        p in 2usize..9,
        work_seed in 0u64..1000,
    ) {
        let oracle = observe(p, work_seed, Some(work_seed), Engine::Threads);
        let pool = WorkerPool::new(2);
        for _ in 0..3 {
            let machine = Machine::new(run_config(p, Engine::Pool(2)))
                .with_fault_injection(FaultConfig::chaos(work_seed));
            let (mut report, values) =
                machine.run_on(&pool, move |ctx| workout(ctx, work_seed));
            let obs = RunObs {
                per_proc: report.per_proc().to_vec(),
                elapsed_bits: report.elapsed().to_bits(),
                trace: report.take_trace(),
                values,
            };
            prop_assert_eq!(&obs, &oracle);
        }
    }
}

/// One step of a rank's script in the exit-race stress.
#[derive(Debug, Clone, Copy)]
enum Step {
    Flops(u64),
    Send { dst: usize, tag: u32, val: u64 },
    Recv { src: usize, tag: u32 },
}

/// Seeded scripts for `p` ranks that cannot deadlock: a seeded permutation
/// ranks the processors, and a processor receives only from those ranked
/// below it, so by induction every source finishes its script and exits.
/// Per ordered pair the sender posts up to three messages on tags 1 and 2
/// and the receiver posts up to three receives on tags 1..=3 — tag 3 is
/// never sent, and a tag may be asked for more often than it was sent, so
/// about half the receives can only end when the source exits. Each script is
/// shuffled, so a rank exits at a seeded point relative to its peers.
fn exit_race_scripts(p: usize, seed: u64) -> Vec<Vec<Step>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next = move |below: usize| rng.gen_range(0..below);
    let mut order: Vec<usize> = (0..p).collect();
    for i in (1..p).rev() {
        order.swap(i, next(i + 1));
    }
    let mut scripts: Vec<Vec<Step>> = vec![Vec::new(); p];
    let mut val = 0u64;
    for hi in 0..p {
        for lo in 0..hi {
            let (src, dst) = (order[lo], order[hi]);
            for _ in 0..next(4) {
                val += 1;
                let tag = 1 + next(2) as u32;
                scripts[src].push(Step::Send { dst, tag, val });
            }
            for _ in 0..next(4) {
                let tag = 1 + next(3) as u32;
                scripts[dst].push(Step::Recv { src, tag });
            }
        }
    }
    for script in &mut scripts {
        for _ in 0..next(3) {
            script.push(Step::Flops(next(100_000) as u64));
        }
        for i in (1..script.len()).rev() {
            script.swap(i, next(i + 1));
        }
    }
    scripts
}

/// What every receive of every script must return, worked out serially:
/// the k-th receive of a (source, tag) pair gets the k-th message the
/// source's script sends on that pair, `None` (disconnected) if there is
/// no such message.
fn exit_race_oracle(scripts: &[Vec<Step>]) -> Vec<Vec<Option<u64>>> {
    scripts
        .iter()
        .enumerate()
        .map(|(me, script)| {
            let mut taken = std::collections::HashMap::new();
            script
                .iter()
                .filter_map(|step| match *step {
                    Step::Recv { src, tag } => Some((src, tag)),
                    _ => None,
                })
                .map(|(src, tag)| {
                    let k = taken.entry((src, tag)).or_insert(0usize);
                    *k += 1;
                    scripts[src]
                        .iter()
                        .filter_map(|step| match *step {
                            Step::Send { dst, tag: t, val } if dst == me && t == tag => Some(val),
                            _ => None,
                        })
                        .nth(*k - 1)
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Ranks exit at seeded points while peers are receiving from them, on
    /// tags that were sent and tags that were not. Every receive ends — in
    /// the message sent before the exit, or in `Disconnected` — with the
    /// serially predicted result, and the reports agree bitwise across
    /// engines. (A lost wake-up shows as a deadlock panic on the pool and a
    /// hang on threads.)
    #[test]
    fn exits_racing_receives_never_hang_or_lose_a_message(
        p in 2usize..17,
        seed in 0u64..1_000_000,
    ) {
        let scripts = exit_race_scripts(p, seed);
        let oracle = exit_race_oracle(&scripts);
        let mut reports = Vec::new();
        for engine in [Engine::Threads, Engine::Pool(1), Engine::Pool(4)] {
            let machine = Machine::new(MachineConfig::delta(p).with_engine(engine));
            let (report, got) = machine.run_with(|ctx| {
                let mut got = Vec::new();
                for step in &scripts[ctx.rank()] {
                    match *step {
                        Step::Flops(n) => ctx.charge_flops(n),
                        Step::Send { dst, tag, val } => {
                            ctx.send(dst, dmsim::Tag(tag), dmsim::Payload::U64(vec![val]))
                        }
                        Step::Recv { src, tag } => got.push(
                            ctx.recv(src, dmsim::Tag(tag)).ok().map(|m| m.into_u64()[0]),
                        ),
                    }
                }
                got
            });
            prop_assert_eq!(&got, &oracle, "{:?} at p={} seed={}", engine, p, seed);
            reports.push(report.per_proc().to_vec());
        }
        prop_assert_eq!(&reports[1], &reports[0], "Pool(1) vs Threads");
        prop_assert_eq!(&reports[2], &reports[0], "Pool(4) vs Threads");
    }
}

/// A panic in a rank body surfaces through `run_with` on the pooled engine
/// the same way it does on the threaded one: lowest-rank panic wins.
#[test]
fn rank_panics_propagate_from_the_pool() {
    for engine in [Engine::Threads, Engine::Pool(2)] {
        let err = std::panic::catch_unwind(|| {
            let machine = Machine::new(MachineConfig::delta(4).with_engine(engine));
            machine.run_with(|ctx| {
                ctx.charge_flops(10 * (4 - ctx.rank() as u64));
                panic!("boom from rank {}", ctx.rank());
            });
        })
        .unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("boom from rank 0"),
            "engine {engine:?}: expected lowest-rank panic, got {msg:?}"
        );
    }
}
