//! Collectives at rank counts far beyond what the threaded engine can
//! host comfortably: correctness and bit-exact determinism of allreduce
//! and alltoallv on the pooled engine at 257, 1000 and 1024 ranks, and of
//! allreduce + barrier at 4096 ranks on a single worker.
//!
//! 257 and 1000 are deliberately awkward sizes — one past a power of two
//! and a non-power-of-two with a long tail — so the dissemination /
//! recursive-doubling structure inside the collectives takes its uneven
//! paths.

use dmsim::{Engine, Machine, MachineConfig};

/// Run `body` twice on a pooled machine and insist the reports agree bit
/// for bit; return the first run's values.
fn run_twice_identically<T, F>(p: usize, workers: usize, body: F) -> Vec<T>
where
    F: Fn(&dmsim::ProcCtx) -> T + Send + Sync + Copy,
    T: Send + PartialEq + std::fmt::Debug,
{
    let mk = || Machine::new(MachineConfig::free(p).with_engine(Engine::Pool(workers)));
    let (rep_a, vals_a) = mk().run_with(body);
    let (rep_b, vals_b) = mk().run_with(body);
    assert_eq!(
        rep_a.elapsed().to_bits(),
        rep_b.elapsed().to_bits(),
        "elapsed time not bit-identical across repeated pooled runs at p={p}"
    );
    assert_eq!(rep_a.per_proc(), rep_b.per_proc());
    assert_eq!(vals_a, vals_b);
    vals_a
}

fn allreduce_at(p: usize, workers: usize) {
    let sums = run_twice_identically(p, workers, |ctx| {
        let me = ctx.rank() as f64;
        let sum = ctx.allreduce_sum_f64(&[me + 1.0, me * 2.0]);
        ctx.barrier();
        sum
    });
    assert_eq!(sums.len(), p);
    let n = p as f64;
    let expect0 = n * (n + 1.0) / 2.0; // sum of (rank+1)
    let expect1 = n * (n - 1.0); // sum of 2*rank
    for (rank, sum) in sums.iter().enumerate() {
        assert_eq!(sum.len(), 2, "rank {rank}");
        assert!(
            (sum[0] - expect0).abs() < 1e-6 * expect0.max(1.0),
            "rank {rank}: got {} want {expect0}",
            sum[0]
        );
        assert!(
            (sum[1] - expect1).abs() < 1e-6 * expect1.max(1.0),
            "rank {rank}: got {} want {expect1}",
            sum[1]
        );
    }
    // Every rank must hold the *same bits*, not merely close values.
    let first = &sums[0];
    for (rank, sum) in sums.iter().enumerate() {
        assert_eq!(
            sum.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            first.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            "rank {rank} disagrees with rank 0 on allreduce bits"
        );
    }
}

#[test]
fn allreduce_at_257_ranks_pooled() {
    allreduce_at(257, 2);
}

#[test]
fn allreduce_at_1000_ranks_pooled() {
    allreduce_at(1000, 4);
}

/// The size the rank ladder is held flat to, on the ledger's engine: one
/// worker multiplexing all 4096 coroutines.
#[test]
fn allreduce_and_barrier_at_4096_ranks_on_one_worker() {
    allreduce_at(4096, 1);
}

#[test]
fn alltoallv_at_257_ranks_pooled() {
    let p = 257;
    let got = run_twice_identically(p, 2, |ctx| {
        let me = ctx.rank();
        let p = ctx.nprocs();
        // Rank r sends [r*P + dst] to every dst: a unique word per pair.
        let sends: Vec<Vec<u64>> = (0..p).map(|dst| vec![(me * p + dst) as u64]).collect();
        ctx.alltoallv(sends)
    });
    assert_eq!(got.len(), p);
    for (me, inbox) in got.iter().enumerate() {
        assert_eq!(inbox.len(), p, "rank {me} inbox");
        for (src, block) in inbox.iter().enumerate() {
            assert_eq!(
                block,
                &vec![(src * p + me) as u64],
                "rank {me} block from {src}"
            );
        }
    }
}

/// The headline capacity target: 1024 ranks on one pooled machine, with a
/// barrier so every rank's clock participates, on a machine built through
/// the (formerly O(n^2)) fabric constructor.
#[test]
fn a_1024_rank_machine_is_constructible_and_runs_pooled() {
    let p = 1024;
    let vals = run_twice_identically(p, 4, |ctx| {
        ctx.charge_flops(ctx.rank() as u64 + 1);
        ctx.barrier();
        ctx.rank()
    });
    assert_eq!(vals, (0..p).collect::<Vec<_>>());
}
