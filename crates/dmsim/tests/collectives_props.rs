//! Property tests for the collective algorithms: results must equal the
//! serial fold for any processor count, vector length and root, and
//! simulated time must be schedule-independent.

use proptest::prelude::*;

use dmsim::{Engine, Machine, MachineConfig, ReduceOp};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn reduce_equals_serial_fold(
        p in 1usize..9,
        len in 0usize..20,
        root_seed in 0usize..16,
        op_pick in 0usize..3,
    ) {
        let root = root_seed % p;
        let op = [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min][op_pick];
        let machine = Machine::new(MachineConfig::free(p));
        machine.run(move |ctx| {
            // Rank r contributes f(r, i); integers keep f64 sums exact.
            let mine: Vec<f64> = (0..len)
                .map(|i| ((ctx.rank() * 31 + i * 7) % 101) as f64)
                .collect();
            let got = ctx.reduce(&mine, op, root);
            if ctx.rank() == root {
                let got = got.expect("root sees result");
                for (i, &g) in got.iter().enumerate() {
                    let all: Vec<f64> = (0..p).map(|r| ((r * 31 + i * 7) % 101) as f64).collect();
                    let expect = match op {
                        ReduceOp::Sum => all.iter().sum::<f64>(),
                        ReduceOp::Max => all.iter().cloned().fold(f64::MIN, f64::max),
                        ReduceOp::Min => all.iter().cloned().fold(f64::MAX, f64::min),
                    };
                    assert_eq!(g, expect, "elem {i}");
                }
            } else {
                assert!(got.is_none());
            }
        });
    }

    #[test]
    fn gather_scatter_roundtrip(p in 1usize..9, chunk in 1usize..8, root_seed in 0usize..16) {
        let root = root_seed % p;
        let machine = Machine::new(MachineConfig::free(p));
        machine.run(move |ctx| {
            let mine: Vec<u64> = (0..chunk).map(|i| (ctx.rank() * 100 + i) as u64).collect();
            let gathered = ctx.gather(&mine, root);
            // Root scatters the concatenation back; everyone must get their
            // own chunk again.
            let data = if ctx.rank() == root {
                gathered.expect("root gathered")
            } else {
                Vec::new()
            };
            let back = ctx.scatter(data, root);
            assert_eq!(back, mine, "rank {}", ctx.rank());
        });
    }

    #[test]
    fn broadcast_reaches_everyone(p in 1usize..10, len in 0usize..16, root_seed in 0usize..16) {
        let root = root_seed % p;
        let machine = Machine::new(MachineConfig::delta(p));
        let report = machine.run(move |ctx| {
            let data = if ctx.rank() == root {
                (0..len as u64).map(|i| i * 3 + 1).collect()
            } else {
                Vec::new()
            };
            let got = ctx.broadcast(data, root);
            assert_eq!(got, (0..len as u64).map(|i| i * 3 + 1).collect::<Vec<_>>());
        });
        // Tree edges: exactly p-1 payload-carrying messages in total.
        prop_assert_eq!(report.totals().msgs_sent, (p - 1) as u64);
    }

    #[test]
    fn alltoallv_transposes_the_send_matrix(p in 1usize..9, base in 0usize..6) {
        let machine = Machine::new(MachineConfig::free(p));
        machine.run(move |ctx| {
            let me = ctx.rank();
            // Variable lengths (including empty) so the exchange cannot rely
            // on uniform chunking; contents encode (source, destination).
            let sends: Vec<Vec<u64>> = (0..p)
                .map(|j| {
                    (0..base + (me + j) % 3)
                        .map(|k| (me * 1000 + j * 10 + k) as u64)
                        .collect()
                })
                .collect();
            let got = ctx.alltoallv(sends);
            assert_eq!(got.len(), p);
            for (i, buf) in got.iter().enumerate() {
                let expect: Vec<u64> = (0..base + (i + me) % 3)
                    .map(|k| (i * 1000 + me * 10 + k) as u64)
                    .collect();
                assert_eq!(buf, &expect, "rank {me}: wrong buffer from {i}");
            }
        });
    }

    #[test]
    fn simulated_time_is_schedule_independent(p in 2usize..9, work_seed in 0u64..50) {
        let run_once = || {
            let machine = Machine::new(MachineConfig::delta(p));
            machine.run(move |ctx| {
                ctx.charge_flops((ctx.rank() as u64 * 7919 + work_seed * 131) % 100_000);
                let v = vec![ctx.rank() as f64; 64];
                let _ = ctx.allreduce_sum_f64(&v);
                ctx.barrier();
            })
            .elapsed()
        };
        let a = run_once();
        let b = run_once();
        prop_assert_eq!(a, b);
    }
}

/// Awkward `f32`s: NaNs with distinct payloads and signs, signed zeros,
/// infinities, subnormals and values whose sums round.
const AWKWARD: [u32; 12] = [
    0x7fc0_0001, // quiet NaN, payload 1
    0xffc1_2345, // negative quiet NaN, another payload
    0x7f80_0005, // signalling NaN
    0x0000_0000, // +0
    0x8000_0000, // -0
    0x7f80_0000, // +inf
    0xff80_0000, // -inf
    0x0000_0001, // smallest subnormal
    0x8040_0000, // negative subnormal
    0x3f80_0001, // 1 + ulp
    0xcb80_0000, // -2^24
    0x7f7f_ffff, // f32::MAX
];

/// Rank `r`'s contribution: `len` awkward values, a different walk per rank.
fn awkward(r: usize, len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| f32::from_bits(AWKWARD[(r * 5 + i * 7 + r * i) % AWKWARD.len()]))
        .collect()
}

/// `a ∘ b` as the reduction defines it, `a` the accumulated side.
fn apply(op: ReduceOp, a: f32, b: f32) -> f32 {
    match op {
        ReduceOp::Sum => a + b,
        ReduceOp::Max => {
            if b > a {
                b
            } else {
                a
            }
        }
        ReduceOp::Min => {
            if b < a {
                b
            } else {
                a
            }
        }
    }
}

/// The binomial-tree reduction, rooted at virtual rank 0, folded
/// sequentially: a rank's value combined with each child's subtree in
/// increasing child order. `value(v)` is virtual rank `v`'s contribution.
fn tree_fold(v: usize, p: usize, op: ReduceOp, value: &dyn Fn(usize) -> Vec<f32>) -> Vec<f32> {
    let mut acc = value(v);
    // A child sets one bit above `v`'s highest set bit.
    let mut bit = match v {
        0 => 1,
        _ => 2 << (usize::BITS - 1 - v.leading_zeros()),
    };
    while v + bit < p {
        let theirs = tree_fold(v + bit, p, op, value);
        for (a, b) in acc.iter_mut().zip(theirs) {
            *a = apply(op, *a, b);
        }
        bit <<= 1;
    }
    acc
}

#[test]
fn reduce_and_allreduce_equal_the_tree_fold_bit_for_bit() {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let len = 23;
    for engine in [Engine::Threads, Engine::Pool(1), Engine::Pool(2)] {
        for p in [1usize, 2, 3, 5, 8, 13] {
            for op in [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min] {
                let machine = Machine::new(MachineConfig::free(p).with_engine(engine));
                for root in 0..p {
                    let want = tree_fold(0, p, op, &|v| awkward((v + root) % p, len));
                    let (_, got) = machine.run_with(|ctx| {
                        let mine = awkward(ctx.rank(), len);
                        ctx.reduce(&mine, op, root).map(|v| bits(&v))
                    });
                    for (rank, got) in got.into_iter().enumerate() {
                        let at = format!("{engine:?} p={p} {op:?} root={root} rank={rank}");
                        assert_eq!(got, (rank == root).then(|| bits(&want)), "{at}");
                    }
                }
                let want = bits(&tree_fold(0, p, op, &|v| awkward(v, len)));
                let (_, got) =
                    machine.run_with(|ctx| bits(&ctx.allreduce(&awkward(ctx.rank(), len), op)));
                for (rank, got) in got.into_iter().enumerate() {
                    assert_eq!(got, want, "{engine:?} p={p} {op:?} allreduce rank={rank}");
                }
            }
        }
    }
}
