//! Seeded input generators: the HPF corpus of `compile-sweep` and the
//! arrival trace of `farm-burst`. Both are pure functions of the seed.

use crate::workloads::{gaxpy_source, Rng};

/// The statement class a generated program exercises; the compiler must
/// produce a plan of this kind for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Gaxpy,
    Stencil,
    Transpose,
    Spmv,
}

/// What the compiler must do with a generated program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Compile, to `stmts` statements of the program's class.
    Accept { stmts: usize },
    /// Fail in the front end with a line-carrying diagnostic (the source
    /// was mutated into a malformed program).
    Malformed,
    /// Fail with a typed planning error: block-cyclic locals are outside
    /// the regular-section subset and must be refused, never miscompiled.
    Unsupported,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    pub class: Class,
    pub n: usize,
    pub nprocs: usize,
    pub source: String,
    pub expect: Expect,
}

/// How the operands of a generated stencil are distributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StencilDist {
    /// Both row-block through one template: the Jacobi sweep.
    Aligned,
    /// Both column-block, shifts along the distributed dimension.
    AlignedColumns,
    /// The operand row-block, the result column-block: an automatic
    /// redistribution, then shifts along the collapsed dimension.
    Misaligned,
    /// Cyclic; a scaled copy, since cyclic dimensions admit no shifts.
    Cyclic,
    /// Block-cyclic with this block size: outside the supported subset.
    BlockCyclic(usize),
}

/// A stencil forall inside a constant-trip `do` loop.
pub fn stencil_source(n: usize, p: usize, trips: usize, dist: StencilDist) -> String {
    const COPY: &str = "forall (i = 1:n, j = 1:n)\n          v(i, j) = 3.0 * u(i, j) - 1.0";
    let (decl, body) = match dist {
        StencilDist::Aligned => (
            "!hpf$ template t(n)\n!hpf$ distribute t(block) on pr\n\
             !hpf$ align (:, *) with t :: u, v\n"
                .to_string(),
            "forall (i = 2:n-1, j = 2:n-1)\n          \
             v(i, j) = 0.25 * (u(i-1, j) + u(i+1, j) + u(i, j-1) + u(i, j+1))",
        ),
        StencilDist::AlignedColumns => (
            "!hpf$ distribute u(*, block) on pr\n!hpf$ distribute v(*, block) on pr\n".to_string(),
            "forall (i = 2:n-1, j = 2:n-1)\n          \
             v(i, j) = u(i, j-1) + u(i, j+1) - 2.0 * u(i, j)",
        ),
        StencilDist::Misaligned => (
            "!hpf$ distribute u(block, *) on pr\n!hpf$ distribute v(*, block) on pr\n".to_string(),
            "forall (i = 2:n-1, j = 1:n)\n          v(i, j) = u(i-1, j) + u(i+1, j)",
        ),
        StencilDist::Cyclic => (
            "!hpf$ distribute u(cyclic, *) on pr\n!hpf$ distribute v(cyclic, *) on pr\n"
                .to_string(),
            COPY,
        ),
        StencilDist::BlockCyclic(b) => (
            format!(
                "!hpf$ distribute u(cyclic({b}), *) on pr\n\
                 !hpf$ distribute v(cyclic({b}), *) on pr\n"
            ),
            COPY,
        ),
    };
    format!(
        "
      parameter (n={n})
      real u(n, n), v(n, n)
!hpf$ processors pr({p})
{decl}      do it = 1, {trips}
        {body}
        end forall
      end do
      end
"
    )
}

/// `b = aᵀ` with both arrays row-block or both column-block.
pub fn transpose_source(n: usize, p: usize, row_block: bool) -> String {
    let d = if row_block { "block, *" } else { "*, block" };
    format!(
        "
      parameter (n={n})
      real a(n, n), b(n, n)
!hpf$ processors pr({p})
!hpf$ distribute a({d}) on pr
!hpf$ distribute b({d}) on pr
      forall (i = 1:n, j = 1:n)
        b(i, j) = a(j, i)
      end forall
      end
"
    )
}

/// `hpf::SPMV_SOURCE` at the given sizes, its nest repeated `iters` times.
pub fn spmv_source(n: usize, nnz: usize, p: usize, iters: usize) -> String {
    let src = hpf::SPMV_SOURCE.replace(
        "n=64, nnz=512, nprocs=4",
        &format!("n={n}, nnz={nnz}, nprocs={p}"),
    );
    if iters == 1 {
        return src;
    }
    let (head, nest) = src
        .split_once("      do i = 1, n")
        .expect("SPMV_SOURCE has its nest");
    let nest = nest.trim_end().strip_suffix("end").expect("program end");
    format!("{head}      do it = 1, {iters}\n      do i = 1, n{nest}end do\n      end\n")
}

/// Break a valid program so the front end must reject it with a located
/// diagnostic.
fn mutate(source: &str, how: u64) -> String {
    let replace_first = |from: &str, to: &str| source.replacen(from, to, 1);
    match how {
        // An unterminated construct: drop the first `end do` / `end forall`.
        0 => {
            let victim = if source.contains("end forall") {
                "end forall"
            } else {
                "end do"
            };
            source
                .lines()
                .scan(false, |dropped, l| {
                    if !*dropped && l.trim() == victim {
                        *dropped = true;
                        Some(None)
                    } else {
                        Some(Some(l))
                    }
                })
                .flatten()
                .collect::<Vec<_>>()
                .join("\n")
                + "\n"
        }
        // A dangling operator at the start of a right-hand side.
        1 => replace_first(") = ", ") = * "),
        // A declaration list that ends in a comma.
        2 => {
            source
                .lines()
                .map(|l| {
                    if l.trim_start().starts_with("real ") {
                        format!("{l},")
                    } else {
                        l.to_string()
                    }
                })
                .collect::<Vec<_>>()
                .join("\n")
                + "\n"
        }
        // A parameter without a value.
        _ => replace_first("parameter (n=", "parameter (n=,"),
    }
}

/// The `compile-sweep` corpus: `count` programs over the four accepted
/// statement classes, one in ten mutated into a malformed program.
///
/// The draw is stratified. Class shares are fixed; within a class, program
/// `j` of `m` takes its size from one log-uniform draw in the `j`-th of `m`
/// slices of `[64, 4096)`, and its processor count, loop trips,
/// distribution variant and whether it is mutated from `j` alone. What the
/// seed decides is every size, block size, array orientation and mutation,
/// and the order. So every seed gives a different corpus, yet the total
/// work of compiling it hardly depends on the seed: the planner's cost is
/// steeply uneven in (size, processors), and a free draw would let a
/// handful of pairs decide a seed's total. The host clocks of two seeds are
/// comparable.
pub fn hpf_corpus(seed: u64, count: usize) -> Vec<Program> {
    let mut r = Rng::new(seed, 0xc0de);
    let mut out = Vec::with_capacity(count);
    for (class, share) in [
        (Class::Gaxpy, 5),
        (Class::Stencil, 7),
        (Class::Transpose, 4),
        (Class::Spmv, 4),
    ] {
        let m = count * share / 20;
        for j in 0..m {
            let n = (64.0 * 64f64.powf((j as f64 + r.unit()) / m as f64)) as usize;
            // Every size decade meets every processor count in [2, 64].
            let nprocs = 2 + (j * 37) % 63;
            let mut expect = Expect::Accept { stmts: 1 };
            let source = match class {
                Class::Gaxpy => gaxpy_source(n, nprocs),
                Class::Stencil => {
                    let trips = 1 + (j / 5) % 4;
                    let dist = [
                        StencilDist::Aligned,
                        StencilDist::AlignedColumns,
                        StencilDist::Misaligned,
                        StencilDist::Cyclic,
                        StencilDist::BlockCyclic(2 + r.below(7) as usize),
                    ][j % 5];
                    expect = match dist {
                        StencilDist::BlockCyclic(_) => Expect::Unsupported,
                        _ => Expect::Accept { stmts: trips },
                    };
                    stencil_source(n, nprocs, trips, dist)
                }
                Class::Transpose => transpose_source(n, nprocs, r.chance(0.5)),
                Class::Spmv => spmv_source(n, n * (4 << r.below(3)), nprocs, 1),
            };
            let how = r.below(4);
            let (source, expect) = if j % 10 == 5 {
                (mutate(&source, how), Expect::Malformed)
            } else {
                (source, expect)
            };
            out.push(Program {
                class,
                n,
                nprocs,
                source,
                expect,
            });
        }
    }
    // Seeded order (Fisher–Yates), so classes interleave.
    for i in (1..out.len()).rev() {
        out.swap(i, r.below(i as u64 + 1) as usize);
    }
    out
}

/// One submission of the `farm-burst` arrival trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    pub tenant: String,
    pub name: String,
    /// Which captured program template the job replays.
    pub template: usize,
    /// Virtual submit time.
    pub submit: f64,
    pub weight: f64,
}

/// Bursty arrivals: bursts of 1–12 jobs land together after quiet gaps,
/// each job a random tenant's run of a random template.
pub fn arrival_trace(seed: u64, jobs: usize, tenants: u64, templates: usize) -> Vec<Arrival> {
    let mut r = Rng::new(seed, 0x0a11);
    let mut t = 0.0;
    let mut out = Vec::with_capacity(jobs);
    while out.len() < jobs {
        t += 1.0 + 9.0 * r.unit();
        let burst = 1 + r.below(12) as usize;
        for k in 0..burst.min(jobs - out.len()) {
            let i = out.len();
            let tenant = format!("t{:03}", r.below(tenants));
            out.push(Arrival {
                name: format!("{tenant}-j{i:05}"),
                tenant,
                template: r.below(templates as u64) as usize,
                submit: t + 0.05 * k as f64,
                weight: 1.0 + r.below(4) as f64,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_corpus_bytes() {
        let a = hpf_corpus(2026, 200);
        let b = hpf_corpus(2026, 200);
        assert_eq!(a, b);
        let c = hpf_corpus(7, 200);
        assert_ne!(
            a.iter().map(|p| &p.source).collect::<Vec<_>>(),
            c.iter().map(|p| &p.source).collect::<Vec<_>>()
        );
    }

    #[test]
    fn same_seed_same_arrival_trace() {
        let a = arrival_trace(2026, 500, 100, 8);
        assert_eq!(a, arrival_trace(2026, 500, 100, 8));
        assert_ne!(a, arrival_trace(7, 500, 100, 8));
        assert_eq!(a.len(), 500);
        assert!(a.windows(2).all(|w| w[0].submit <= w[1].submit));
        let mut names: Vec<&str> = a.iter().map(|j| j.name.as_str()).collect();
        names.dedup();
        assert_eq!(names.len(), 500, "job ids are unique");
    }

    #[test]
    fn corpus_covers_every_class_and_expectation() {
        let c = hpf_corpus(2026, 2000);
        for class in [Class::Gaxpy, Class::Stencil, Class::Transpose, Class::Spmv] {
            assert!(c.iter().any(|p| p.class == class));
        }
        let malformed = c.iter().filter(|p| p.expect == Expect::Malformed).count();
        assert!((120..=280).contains(&malformed), "{malformed} of 2000");
        assert!(c.iter().any(|p| p.expect == Expect::Unsupported));
        assert!(c.iter().all(|p| (64..=4096).contains(&p.n)));
        assert!(c.iter().all(|p| (2..=64).contains(&p.nprocs)));
    }

    #[test]
    fn every_mutation_is_rejected_by_the_front_end_with_a_line() {
        for p in hpf_corpus(11, 400) {
            let got = hpf::parse_program(&p.source).and_then(|prog| hpf::analyze(&prog));
            match p.expect {
                Expect::Malformed => {
                    let e = got.expect_err("a malformed program was accepted");
                    assert!(e.line >= 1, "{e}");
                }
                _ => {
                    got.unwrap_or_else(|e| panic!("front end refused a valid program: {e}"));
                }
            }
        }
    }
}
