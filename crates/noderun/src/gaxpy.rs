//! GAXPY executor: Figures 9 (column slabs) and 12 (row slabs) as real node
//! programs.
//!
//! Every processor walks the plan's slab schedule ([`GaxpyPlan::walk`], the
//! walk the compiler's reuse predictor drives too) and executes each event
//! of it: slabs are fetched through the charged I/O path,
//! partial products accumulate into an in-core temporary, and each result
//! (sub)column is combined with a global-sum reduction whose root is the
//! owner of the column, which buffers and writes it to C's local array
//! file. Returns the peak number of in-core elements held, so tests can
//! check the plan's memory accounting.

use std::sync::OnceLock;

use dmsim::{ProcCtx, ReduceOp};
use ooc_array::{OocEnv, OocError, Section};
use ooc_core::plan::{GaxpyOperand, GaxpyPlan, GaxpyVisitor, SlabStrategy};
use pario::{PendingIo, SievePolicy};

/// Fault-recovery options for a GAXPY statement. All fields default to off,
/// in which case execution is bit-identical to the pre-fault-subsystem
/// executor.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryOpts<'a> {
    /// Directory for slab-granular checkpoints of C's progress. When set,
    /// each rank checkpoints its local C after every outer slab, and a
    /// restarted statement resumes from the *minimum* watermark across
    /// ranks (agreed by an allreduce) so the collective sequences stay in
    /// lockstep.
    pub checkpoint_dir: Option<&'a std::path::Path>,
    /// Cost model used to re-plan slab sizes when the disk degrades
    /// mid-run (graceful degradation). `None` disables re-planning.
    pub model: Option<&'a dmsim::CostModel>,
    /// Slab-cache budget the re-planner should assume (must match the
    /// budget the environment actually runs with).
    pub cache_budget: Option<usize>,
}

/// Execute the plan on this processor, with optional checkpointing and
/// degraded-disk re-planning per [`RecoveryOpts`]. Returns peak in-core
/// elements.
///
/// Non-prefetched I/O is charged through `charge`, the seam
/// [`crate::trace::TracingCharge`] uses to record the operation sequence.
/// Every access runs under the plan's method
/// ([`GaxpyPlan::method`]). When the plan prefetches A
/// ([`GaxpyPlan::prefetches_a`]) each fetch of A overlaps the still-pending
/// multiply of the slab before it (software pipelining): the I/O *counts*
/// are identical, only the modeled time shrinks. Prefetched fetches charge
/// through the context's overlapped path, not `charge`.
///
/// The plan's own slab walk ([`GaxpyPlan::walk`]) decides every section
/// read and written; this executor is the visitor that reads, multiplies,
/// reduces, writes and checkpoints.
pub fn execute_recoverable(
    ctx: &ProcCtx,
    env: &mut OocEnv,
    plan: &GaxpyPlan,
    charge: &dyn pario::IoCharge,
    opts: &RecoveryOpts<'_>,
) -> Result<usize, OocError> {
    // Checkpointed restart: resume at the agreed watermark.
    let restart = match opts.checkpoint_dir {
        Some(dir) => Some(agree_restart(ctx, env, plan, dir)?),
        None => None,
    };
    let mut exec = Executor::new(ctx, env, plan, charge, *opts);
    plan.walk(ctx.rank(), restart, &mut exec)?;
    if let Some(dir) = opts.checkpoint_dir {
        ooc_array::remove_checkpoint(dir, &ckpt_tag(plan), ctx.rank())?;
    }
    Ok(exec.peak)
}

/// Checkpoint tag for a GAXPY statement writing `c`.
fn ckpt_tag(plan: &GaxpyPlan) -> String {
    format!("gaxpy-{}", plan.c.name)
}

/// Restore this statement's checkpoint (if any) and agree on the restart
/// watermark: every rank resumes from the minimum progress any rank saved,
/// so the per-column reduces stay in lockstep. Ranks ahead of the minimum
/// recompute the gap idempotently.
fn agree_restart(
    ctx: &ProcCtx,
    env: &mut OocEnv,
    plan: &GaxpyPlan,
    dir: &std::path::Path,
) -> Result<usize, OocError> {
    let _span = ctx.trace_span(ooc_trace::Category::Checkpoint, "restore");
    let c_local = plan.c.local_shape(ctx.rank());
    let full = Section::full(&c_local);
    let saved =
        ooc_array::restore_checkpoint(env, &plan.c, &full, dir, &ckpt_tag(plan))?.unwrap_or(0);
    let min = ctx.try_allreduce(&[saved], ReduceOp::Min)?[0];
    Ok(min as usize)
}

/// Re-plan slab thicknesses against a degraded disk: once the fault layer
/// marks the disk degraded, the remaining slabs are re-split with the I/O
/// bandwidth derated by the injector's factor. Returns `None` while the
/// disk is healthy.
fn replan_degraded(
    env: &OocEnv,
    plan: &GaxpyPlan,
    opts: &RecoveryOpts<'_>,
) -> Option<(usize, usize)> {
    let model = opts.model?;
    if !env.disk_degraded() {
        return None;
    }
    let degraded = model.degrade_io(env.degrade_factor());
    Some(ooc_core::memory::split_gaxpy_budget_prefetched(
        plan.strategy,
        plan.n,
        plan.nprocs,
        plan.memory_elems(),
        ooc_core::memory::MemoryPolicy::Search,
        &degraded,
        opts.cache_budget,
        plan.prefetch,
    ))
}

/// `temp += a · b`: the GAXPY inner multiply over an `h × b.len()`
/// column-major block `a`, where `h = temp.len()`.
///
/// The body ([`accumulate_body`]) is compiled once per instruction set the
/// host may offer and the widest one the running CPU supports is picked
/// the first time it is called: there is no knob. Every variant computes
/// the same bits (see [`accumulate_body`]), so the choice only moves host
/// time.
fn accumulate_columns(temp: &mut [f32], a: &[f32], b: &[f32]) {
    static KERNEL: OnceLock<Kernel> = OnceLock::new();
    let kernel = KERNEL.get_or_init(|| supported_kernels()[0].1);
    // SAFETY: `supported_kernels` lists a variant only when the running
    // CPU has every feature that variant was compiled for.
    unsafe { kernel(temp, a, b) }
}

/// One compiled variant of [`accumulate_body`]; calling it is sound only
/// on a CPU with the features it was compiled for.
type Kernel = unsafe fn(&mut [f32], &[f32], &[f32]);

/// The variants this CPU can run, widest instruction set first; the
/// baseline build is always last.
fn supported_kernels() -> Vec<(&'static str, Kernel)> {
    let mut kernels: Vec<(&'static str, Kernel)> = Vec::with_capacity(3);
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            kernels.push(("avx512f", accumulate_avx512f));
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            kernels.push(("avx2", accumulate_avx2));
        }
    }
    kernels.push(("baseline", accumulate_baseline));
    kernels
}

/// [`accumulate_body`] for AVX-512F; callable only where it is detected.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn accumulate_avx512f(temp: &mut [f32], a: &[f32], b: &[f32]) {
    accumulate_body(temp, a, b);
}

/// [`accumulate_body`] for AVX2; callable only where it is detected.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn accumulate_avx2(temp: &mut [f32], a: &[f32], b: &[f32]) {
    accumulate_body(temp, a, b);
}

/// [`accumulate_body`] for the target's baseline instruction set.
fn accumulate_baseline(temp: &mut [f32], a: &[f32], b: &[f32]) {
    accumulate_body(temp, a, b);
}

/// The multiply itself, inlined into each [`Kernel`] variant so the
/// compiler vectorizes it for that variant's instruction set.
///
/// Register-blocked four columns at a time, so `temp` is loaded and stored
/// once per four multiply-adds. Each element still computes
/// `t + a₀b₀ + a₁b₁ + …` left to right in ascending column order, with
/// every product rounded before its add, exactly as one column at a time
/// would. Rust never contracts a multiply and an add into a fused
/// multiply-add, and vector lanes are independent elements, so neither the
/// blocking nor the vector width changes a result bit.
#[inline(always)]
fn accumulate_body(temp: &mut [f32], a: &[f32], b: &[f32]) {
    let h = temp.len();
    debug_assert_eq!(a.len(), h * b.len());
    if h == 0 {
        return;
    }
    let blocks = a.chunks_exact(4 * h);
    let rest = blocks.remainder();
    let quads = b.chunks_exact(4);
    let b_rest = quads.remainder();
    for (block, bq) in blocks.zip(quads) {
        let (c0, c123) = block.split_at(h);
        let (c1, c23) = c123.split_at(h);
        let (c2, c3) = c23.split_at(h);
        let (b0, b1, b2, b3) = (bq[0], bq[1], bq[2], bq[3]);
        for ((((t, &x0), &x1), &x2), &x3) in temp.iter_mut().zip(c0).zip(c1).zip(c2).zip(c3) {
            let mut x = *t;
            x += x0 * b0;
            x += x1 * b1;
            x += x2 * b2;
            x += x3 * b3;
            *t = x;
        }
    }
    for (col, &bv) in rest.chunks_exact(h).zip(b_rest) {
        for (t, &av) in temp.iter_mut().zip(col) {
            *t += av * bv;
        }
    }
}

/// Charge the reads `pend` accumulated as one prefetched fetch, overlapped
/// with the flops deferred since the previous one.
fn charge_overlapped(ctx: &ProcCtx, pend: &PendingIo<'_>, pending_flops: &mut u64) {
    let (requests, bytes) = pend.reads();
    ctx.charge_prefetched_read(requests, bytes, *pending_flops);
    *pending_flops = 0;
}

/// Flush deferred flops (before a reduction that needs the results).
fn flush_pending(ctx: &ProcCtx, pending: &mut u64) {
    if *pending > 0 {
        ctx.charge_flops(*pending);
        *pending = 0;
    }
}

/// The executing visitor of one rank's slab walk: slabs are fetched through
/// the charged I/O path into reused buffers, partial products accumulate
/// into an in-core temporary, and each result (sub)column is combined with
/// a global-sum reduction whose root, the column's owner, buffers it for
/// the walk's writes of C.
struct Executor<'a> {
    ctx: &'a ProcCtx,
    env: &'a mut OocEnv,
    plan: &'a GaxpyPlan,
    charge: &'a dyn pario::IoCharge,
    opts: RecoveryOpts<'a>,
    /// The plan's prefetch of A ([`GaxpyPlan::prefetches_a`]) and the flops
    /// deferred to overlap the next prefetched fetch.
    prefetch: bool,
    pending_flops: u64,
    /// The sieve policy of the plan's access method.
    policy: SievePolicy,
    /// Local rows of B (== local columns of A).
    lr_b: usize,
    /// The current slab of A when it is copied, and its element count
    /// whether copied or lent; the current slab of B (or all of a resident
    /// B), whose first column is global column `b_lo`.
    a_icla: Vec<f32>,
    a_elems: usize,
    b_icla: Vec<f32>,
    b_lo: usize,
    /// The global column of C being computed, and its accumulator of
    /// `rows` elements: all `n` in the column version, the current row
    /// slab's height in the row version.
    j: usize,
    rows: usize,
    temp: Vec<f32>,
    /// Buffered columns of C and the elements the plan budgets for them:
    /// `slab_a` whole columns (column version) or the current row slab of
    /// every owned column (row version).
    cbuf: Vec<f32>,
    cbuf_elems: usize,
    /// Most in-core elements held at once.
    peak: usize,
    slab_span: Option<dmsim::TraceSpanGuard<'a>>,
}

impl<'a> Executor<'a> {
    fn new(
        ctx: &'a ProcCtx,
        env: &'a mut OocEnv,
        plan: &'a GaxpyPlan,
        charge: &'a dyn pario::IoCharge,
        opts: RecoveryOpts<'a>,
    ) -> Self {
        let cbuf_elems = match plan.strategy {
            SlabStrategy::ColumnSlab => plan.n * plan.slab_a,
            SlabStrategy::RowSlab => 0,
        };
        Executor {
            ctx,
            env,
            plan,
            charge,
            opts,
            prefetch: plan.prefetches_a(),
            pending_flops: 0,
            policy: plan.method.sieve_policy(),
            lr_b: plan.b.local_shape(ctx.rank()).extent(0),
            a_icla: Vec::new(),
            a_elems: 0,
            b_icla: Vec::new(),
            b_lo: 0,
            j: 0,
            rows: plan.n,
            temp: Vec::new(),
            cbuf: Vec::with_capacity(cbuf_elems),
            cbuf_elems,
            peak: 0,
            slab_span: None,
        }
    }

    /// Charge `flops` of kernel work — or defer it to overlap the next
    /// prefetched fetch — and note the in-core elements held: a prefetched
    /// A slab is held twice, the one multiplied and the one being fetched.
    /// A lent slab counts as held like a copied one: the plan's memory is
    /// the simulated node's, whatever the host does.
    fn compute(&mut self, flops: u64) {
        if self.prefetch {
            self.pending_flops += flops;
        } else {
            self.ctx.charge_flops(flops);
        }
        let a_buffers = ooc_core::memory::a_slab_buffers(self.plan.strategy, self.plan.prefetch);
        let held = a_buffers * self.a_elems + self.b_icla.len() + self.temp.len() + self.cbuf_elems;
        self.peak = self.peak.max(held);
    }
}

impl GaxpyVisitor for Executor<'_> {
    type Error = OocError;

    fn begin_slab(&mut self, idx: u64) {
        let name = match self.plan.strategy {
            SlabStrategy::ColumnSlab => "b_slab",
            SlabStrategy::RowSlab => "a_row_slab",
        };
        self.slab_span = Some(self.ctx.trace_slab_span(name, idx));
    }

    fn read(&mut self, operand: GaxpyOperand, sec: &Section) -> Result<(), OocError> {
        let plan = self.plan;
        // Only A's fetches have a multiply to overlap: a prefetched read
        // accumulates, then is charged overlapped with the flops deferred
        // since the previous fetch.
        let overlap = operand == GaxpyOperand::A && self.prefetch;
        let pend = PendingIo::over(self.charge);
        let charge: &dyn pario::IoCharge = if overlap { &pend } else { self.charge };
        let (env, policy) = (&mut *self.env, self.policy);
        match operand {
            GaxpyOperand::B => {
                env.read_section_into(&plan.b, sec, &mut self.b_icla, charge, policy)?;
                self.b_lo = sec.range(1).lo;
            }
            GaxpyOperand::A if plan.strategy == SlabStrategy::ColumnSlab => {
                // The slab is multiplied where it lies when the disk can
                // lend it, and only from a copy in `a_icla` otherwise.
                let a = env.read_section_ref(&plan.a, sec, &mut self.a_icla, charge, policy)?;
                if overlap {
                    charge_overlapped(self.ctx, &pend, &mut self.pending_flops);
                }
                // A's local columns pair with B's local rows of the same
                // indices (both are block slices of 1..n).
                let cols = sec.range(1);
                let m = self.j - self.b_lo;
                let b_col = &self.b_icla[m * self.lr_b..];
                accumulate_columns(&mut self.temp, a, &b_col[cols.lo..cols.hi]);
                self.a_elems = a.len();
                self.compute((2 * plan.n * cols.len()) as u64);
            }
            GaxpyOperand::A => {
                env.read_section_into(&plan.a, sec, &mut self.a_icla, charge, policy)?;
                if overlap {
                    charge_overlapped(self.ctx, &pend, &mut self.pending_flops);
                }
                self.a_elems = self.a_icla.len();
                // One row slab of C's owned columns accumulates here.
                self.rows = sec.range(0).len();
                let c_cols = plan.c.local_shape(self.ctx.rank()).extent(1);
                self.cbuf_elems = self.rows * c_cols;
                self.cbuf.clear();
                self.cbuf.resize(self.cbuf_elems, 0.0);
            }
        }
        Ok(())
    }

    fn begin_column(&mut self, j: usize) {
        self.j = j;
        self.temp.clear();
        self.temp.resize(self.rows, 0.0);
        if self.plan.strategy == SlabStrategy::RowSlab {
            let m = j - self.b_lo;
            let b_col = &self.b_icla[m * self.lr_b..(m + 1) * self.lr_b];
            accumulate_columns(&mut self.temp, &self.a_icla, b_col);
            self.compute((2 * self.rows * self.lr_b) as u64);
        }
    }

    fn end_column(&mut self, j: usize) -> Result<(), OocError> {
        // The global sum needs `temp` complete: charge deferred work first.
        flush_pending(self.ctx, &mut self.pending_flops);
        let owner = self.plan.c.dist.owner(&[0, j]);
        let summed = self.ctx.try_reduce(&self.temp, ReduceOp::Sum, owner)?;
        if self.ctx.rank() == owner {
            let sub = summed.expect("root receives the sum");
            match self.plan.strategy {
                SlabStrategy::ColumnSlab => self.cbuf.extend_from_slice(&sub),
                SlabStrategy::RowSlab => {
                    let (h, local_j) = (self.rows, self.plan.c.dist.local_index(1, j));
                    self.cbuf[local_j * h..(local_j + 1) * h].copy_from_slice(&sub);
                }
            }
        }
        Ok(())
    }

    fn write_c(&mut self, sec: &Section) -> Result<(), OocError> {
        debug_assert_eq!(self.cbuf.len(), sec.len());
        self.env
            .write_section(&self.plan.c, sec, &self.cbuf, self.charge, self.policy)?;
        self.cbuf.clear();
        Ok(())
    }

    fn checkpoint(&mut self, watermark: usize, flush: Option<&Section>) -> Result<(), OocError> {
        let dir = self.opts.checkpoint_dir.expect("a checkpointed walk");
        let ctx = self.ctx;
        let _ckpt = ctx.trace_span(ooc_trace::Category::Checkpoint, "checkpoint");
        if let Some(sec) = flush {
            self.write_c(sec)?;
        }
        let full = Section::full(&self.plan.c.local_shape(ctx.rank()));
        let tag = ckpt_tag(self.plan);
        ooc_array::checkpoint_section(self.env, &self.plan.c, &full, dir, &tag, watermark as u64)?;
        Ok(())
    }

    fn replan(&mut self) -> Option<(usize, usize)> {
        replan_degraded(self.env, self.plan, &self.opts)
    }

    fn end_slab(&mut self) {
        self.slab_span = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{assemble_global, max_abs_diff, ref_gaxpy};
    use dmsim::{Machine, MachineConfig};

    fn make_plan(strategy: SlabStrategy, n: usize, p: usize, sa: usize, sb: usize) -> GaxpyPlan {
        GaxpyPlan::new(strategy, n, p, sa, sb)
    }

    fn fa(g: &[usize]) -> f32 {
        ((g[0] * 7 + g[1] * 3) % 11) as f32 - 5.0
    }
    fn fb(g: &[usize]) -> f32 {
        ((g[0] * 5 + g[1]) % 13) as f32 - 6.0
    }

    fn run_plan(plan: &GaxpyPlan) -> (Vec<f32>, dmsim::RunReport) {
        let p = plan.nprocs;
        let machine = Machine::new(MachineConfig::delta(p));
        let (report, results) = machine.run_with(|ctx| {
            let mut env = OocEnv::in_memory(ctx.rank());
            env.alloc(&plan.a).unwrap();
            env.alloc(&plan.b).unwrap();
            env.alloc(&plan.c).unwrap();
            env.load_global(&plan.a, &fa).unwrap();
            env.load_global(&plan.b, &fb).unwrap();
            execute_recoverable(ctx, &mut env, plan, ctx, &RecoveryOpts::default()).unwrap();
            env.read_local_all(&plan.c).unwrap()
        });
        let locals: Vec<&[f32]> = results.iter().map(|v| v.as_slice()).collect();
        let (_, c) = assemble_global(&plan.c, &locals);
        (c, report)
    }

    /// The multiply as it was before blocking: one column at a time.
    fn column_by_column(temp: &mut [f32], a: &[f32], b: &[f32]) {
        let h = temp.len();
        for (k, &bv) in b.iter().enumerate() {
            for (t, &av) in temp.iter_mut().zip(&a[k * h..(k + 1) * h]) {
                *t += av * bv;
            }
        }
    }

    /// A splitmix64 stream of f32s: mostly ordinary values with random
    /// mantissas (where summation order shows in the rounding), plus NaNs
    /// with payloads, ±0, ±inf, subnormals, arbitrary bit patterns and
    /// small exact integers.
    fn awkward_f32(state: &mut u64) -> f32 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let (bits, sign) = (z as u32, (z as u32) & 0x8000_0000);
        match (z >> 32) % 32 {
            0 => f32::from_bits(bits | 0x7f80_0001),
            1 => f32::from_bits(sign),
            2 => f32::from_bits(sign | 0x7f80_0000),
            3 => f32::from_bits(bits & 0x807f_ffff),
            4 => f32::from_bits(bits),
            5..=9 => ((z >> 40) % 17) as f32 - 8.0,
            // |x| in [2^-4, 2^5) with a random mantissa.
            _ => {
                let exp = 123 + ((z >> 40) % 9) as u32;
                f32::from_bits(sign | (exp << 23) | (bits & 0x007f_ffff))
            }
        }
    }

    /// Runs every kernel variant this CPU supports, and the dispatched
    /// [`accumulate_columns`], on `temp += a · b` and holds each to the
    /// column-at-a-time loop bit for bit. Rust leaves the payload of a NaN
    /// *result* unspecified, so a NaN only has to be matched by a NaN;
    /// every other result must match to the bit.
    fn check_every_kernel(temp: &[f32], a: &[f32], b: &[f32]) -> Result<(), String> {
        let (h, ncols) = (temp.len(), b.len());
        let mut want = temp.to_vec();
        column_by_column(&mut want, a, b);
        let mut kernels = supported_kernels();
        kernels.push(("dispatched", accumulate_columns));
        for (name, kernel) in kernels {
            let mut got = temp.to_vec();
            // SAFETY: `supported_kernels` lists only variants this CPU
            // runs; `accumulate_columns` is a safe function.
            unsafe { kernel(&mut got, a, b) };
            for (r, (w, g)) in want.iter().zip(&got).enumerate() {
                if w.to_bits() != g.to_bits() && !(w.is_nan() && g.is_nan()) {
                    return Err(format!("{name}: row {r} of {h}x{ncols}: {w:e} vs {g:e}"));
                }
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn blocked_kernel_matches_the_column_loop_bit_for_bit(
            h in 0usize..71,
            ncols in 0usize..10,
            seed in 0u64..u64::MAX,
        ) {
            let mut state = seed;
            let mut gen = |len: usize| (0..len).map(|_| awkward_f32(&mut state)).collect::<Vec<_>>();
            let (a, b, temp) = (gen(h * ncols), gen(ncols), gen(h));
            proptest::prop_assert_eq!(check_every_kernel(&temp, &a, &b), Ok(()));
        }
    }

    #[test]
    fn every_kernel_matches_on_ragged_shapes_and_special_operands() {
        // Subnormals, infinities, NaNs and signed zeros, interleaved with
        // ordinary values so they meet each other in products and sums.
        let special = [
            f32::from_bits(1),
            -f32::MIN_POSITIVE / 3.0,
            f32::INFINITY,
            1.5,
            f32::NEG_INFINITY,
            f32::NAN,
            -0.0,
            3.0e38,
            0.0,
            -2.25,
            f32::MIN_POSITIVE,
        ];
        let pick = |i: usize| special[i % special.len()];
        // Around every vector width (4, 8 and 16 lanes), plus h = 0 and 1;
        // ncols covers every remainder of the four-column blocking.
        for h in [0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 33, 47, 63, 64, 65] {
            for ncols in 0..10 {
                for shift in [0, 1, 4] {
                    let a: Vec<f32> = (0..h * ncols).map(|i| pick(3 * i + shift)).collect();
                    let b: Vec<f32> = (0..ncols).map(|i| pick(i + 2 * shift)).collect();
                    let temp: Vec<f32> = (0..h).map(|i| pick(5 * i + shift + 7)).collect();
                    check_every_kernel(&temp, &a, &b).unwrap();
                    // Ordinary operands too, where a change of summation
                    // order would show in the rounding.
                    let mut state = (h * 10 + ncols) as u64 + shift as u64;
                    let mut gen = |len: usize| {
                        (0..len)
                            .map(|_| awkward_f32(&mut state))
                            .collect::<Vec<_>>()
                    };
                    let (a, b, temp) = (gen(h * ncols), gen(ncols), gen(h));
                    check_every_kernel(&temp, &a, &b).unwrap();
                }
            }
        }
    }

    #[test]
    fn both_versions_compute_the_same_correct_product() {
        let n = 16;
        let p = 4;
        let expect = ref_gaxpy(n, &fa, &fb);
        for strategy in [SlabStrategy::ColumnSlab, SlabStrategy::RowSlab] {
            let plan = make_plan(strategy, n, p, 2, 4);
            let (c, _) = run_plan(&plan);
            assert!(
                max_abs_diff(&c, &expect) < 1e-3,
                "{strategy:?} wrong result"
            );
        }
    }

    #[test]
    fn measured_io_matches_the_estimator_exactly() {
        for (strategy, sa, sb) in [
            (SlabStrategy::ColumnSlab, 2, 4),
            (SlabStrategy::ColumnSlab, 3, 5), // ragged
            (SlabStrategy::RowSlab, 4, 4),
            (SlabStrategy::RowSlab, 5, 7), // ragged
        ] {
            let plan = make_plan(strategy, 16, 4, sa, sb);
            let nest = ooc_core::nodegen::gaxpy_nest(&plan);
            let predicted = ooc_core::ir::totals(&nest);
            let (_, report) = run_plan(&plan);
            let per0 = report.per_proc()[0].stats;
            assert_eq!(
                per0.io_read_requests,
                predicted.per_array["a"].read_requests + predicted.per_array["b"].read_requests,
                "{strategy:?} sa={sa} sb={sb} read requests"
            );
            assert_eq!(
                per0.io_bytes_read / 4,
                predicted.per_array["a"].read_elems + predicted.per_array["b"].read_elems,
                "{strategy:?} read elems"
            );
            assert_eq!(
                per0.io_write_requests, predicted.per_array["c"].write_requests,
                "{strategy:?} write requests"
            );
            assert_eq!(
                per0.io_bytes_written / 4,
                predicted.per_array["c"].write_elems,
                "{strategy:?} write elems"
            );
        }
    }

    fn run_plan_cached(plan: &GaxpyPlan, budget: usize) -> (Vec<f32>, dmsim::RunReport) {
        let p = plan.nprocs;
        let machine = Machine::new(MachineConfig::delta(p));
        let (report, results) = machine.run_with(|ctx| {
            let mut env = OocEnv::in_memory(ctx.rank());
            env.alloc(&plan.a).unwrap();
            env.alloc(&plan.b).unwrap();
            env.alloc(&plan.c).unwrap();
            env.load_global(&plan.a, &fa).unwrap();
            env.load_global(&plan.b, &fb).unwrap();
            // Cache goes live after the uncharged setup, cold — exactly
            // what the reuse predictor models.
            env.enable_cache(budget);
            execute_recoverable(ctx, &mut env, plan, ctx, &RecoveryOpts::default()).unwrap();
            env.flush_cache(ctx).unwrap();
            env.read_local_all(&plan.c).unwrap()
        });
        let locals: Vec<&[f32]> = results.iter().map(|v| v.as_slice()).collect();
        let (_, c) = assemble_global(&plan.c, &locals);
        (c, report)
    }

    #[test]
    fn cached_measured_io_matches_the_reuse_predictor_exactly() {
        let n = 16;
        let p = 4;
        let expect = ref_gaxpy(n, &fa, &fb);
        for (strategy, sa, sb, budget) in [
            // One resident A slab (sa = lc): budget of A + B slab + C buffer
            // turns all A re-reads into hits.
            (
                SlabStrategy::ColumnSlab,
                4,
                4,
                (16 * 4 + 4 * 4 + 16 * 4) * 4,
            ),
            // Generous budget, small slabs.
            (SlabStrategy::ColumnSlab, 2, 4, 1 << 20),
            (SlabStrategy::ColumnSlab, 3, 5, 1 << 20), // ragged
            (SlabStrategy::RowSlab, 4, 4, 1 << 20),
            (SlabStrategy::RowSlab, 5, 7, 1 << 20), // ragged
            // Tiny budget: constant eviction, still exact.
            (SlabStrategy::ColumnSlab, 2, 4, 256),
            (SlabStrategy::RowSlab, 4, 4, 0),
        ] {
            let plan = make_plan(strategy, n, p, sa, sb);
            let predicted = ooc_core::reuse::gaxpy_cached_totals(&plan, 0, budget);
            let (c, report) = run_plan_cached(&plan, budget);
            assert!(
                max_abs_diff(&c, &expect) < 1e-3,
                "{strategy:?} budget={budget} wrong result"
            );
            let per0 = report.per_proc()[0].stats;
            assert_eq!(
                per0.io_read_requests,
                predicted.per_array["a"].read_requests + predicted.per_array["b"].read_requests,
                "{strategy:?} sa={sa} sb={sb} budget={budget} read requests"
            );
            assert_eq!(
                per0.io_bytes_read / 4,
                predicted.per_array["a"].read_elems + predicted.per_array["b"].read_elems,
                "{strategy:?} budget={budget} read elems"
            );
            assert_eq!(
                per0.io_write_requests, predicted.per_array["c"].write_requests,
                "{strategy:?} budget={budget} write requests"
            );
            assert_eq!(
                per0.io_bytes_written / 4,
                predicted.per_array["c"].write_elems,
                "{strategy:?} budget={budget} write elems"
            );
        }
    }

    #[test]
    fn a_resident_cache_budget_cuts_requests_and_time() {
        // slab_a = lc makes A one slab revisited for every column of C; a
        // budget holding A + a B slab + the C buffer captures all of that
        // reuse. Requests and simulated time must strictly drop.
        let n = 16;
        let p = 4;
        let plan = make_plan(SlabStrategy::ColumnSlab, n, p, n / p, 4);
        let budget = (n * (n / p) + (n / p) * plan.slab_b + n * plan.slab_a) * 4;
        let (_, base) = run_plan(&plan);
        let (_, cached) = run_plan_cached(&plan, budget);
        let (b0, c0) = (base.per_proc()[0].stats, cached.per_proc()[0].stats);
        assert!(
            c0.io_requests() < b0.io_requests(),
            "cached {} !< uncached {}",
            c0.io_requests(),
            b0.io_requests()
        );
        assert!(c0.cache_hits > 0, "reuse must register as hits");
        assert!(
            cached.elapsed() < base.elapsed(),
            "cached {} !< uncached {}",
            cached.elapsed(),
            base.elapsed()
        );
    }

    #[test]
    fn row_version_does_an_order_of_magnitude_less_io() {
        let n = 64;
        let p = 4;
        let col = make_plan(SlabStrategy::ColumnSlab, n, p, 4, 16);
        let row = make_plan(SlabStrategy::RowSlab, n, p, 16, 16); // same slab elems
        let (_, rc) = run_plan(&col);
        let (_, rr) = run_plan(&row);
        let col_bytes = rc.per_proc()[0].stats.io_bytes_read;
        let row_bytes = rr.per_proc()[0].stats.io_bytes_read;
        assert!(
            col_bytes > 10 * row_bytes,
            "col {col_bytes} vs row {row_bytes}"
        );
    }

    #[test]
    fn prefetch_shrinks_time_but_not_counts() {
        let run_with = |prefetch: bool| {
            let plan = GaxpyPlan {
                prefetch,
                ..make_plan(SlabStrategy::ColumnSlab, 32, 4, 2, 8)
            };
            let machine = Machine::new(MachineConfig::delta(4));
            machine.run(|ctx| {
                let mut env = OocEnv::in_memory(ctx.rank());
                env.alloc(&plan.a).unwrap();
                env.alloc(&plan.b).unwrap();
                env.alloc(&plan.c).unwrap();
                env.load_global(&plan.a, &fa).unwrap();
                env.load_global(&plan.b, &fb).unwrap();
                execute_recoverable(ctx, &mut env, &plan, ctx, &RecoveryOpts::default()).unwrap();
            })
        };
        let base = run_with(false);
        let pre = run_with(true);
        assert!(
            pre.elapsed() < base.elapsed(),
            "prefetch {} !< base {}",
            pre.elapsed(),
            base.elapsed()
        );
        let (b0, p0) = (base.per_proc()[0].stats, pre.per_proc()[0].stats);
        assert_eq!(b0.io_requests(), p0.io_requests());
        assert_eq!(b0.io_bytes(), p0.io_bytes());
        assert_eq!(b0.flops, p0.flops);
    }

    #[test]
    fn prefetched_result_is_still_correct() {
        let n = 16;
        let expect = ref_gaxpy(n, &fa, &fb);
        for strategy in [SlabStrategy::ColumnSlab, SlabStrategy::RowSlab] {
            let plan = GaxpyPlan {
                prefetch: true,
                ..make_plan(strategy, n, 4, 3, 5)
            };
            let machine = Machine::new(MachineConfig::free(4));
            let (_, results) = machine.run_with(|ctx| {
                let mut env = OocEnv::in_memory(ctx.rank());
                env.alloc(&plan.a).unwrap();
                env.alloc(&plan.b).unwrap();
                env.alloc(&plan.c).unwrap();
                env.load_global(&plan.a, &fa).unwrap();
                env.load_global(&plan.b, &fb).unwrap();
                execute_recoverable(ctx, &mut env, &plan, ctx, &RecoveryOpts::default()).unwrap();
                env.read_local_all(&plan.c).unwrap()
            });
            let locals: Vec<&[f32]> = results.iter().map(|v| v.as_slice()).collect();
            let (_, c) = assemble_global(&plan.c, &locals);
            assert!(max_abs_diff(&c, &expect) < 1e-3, "{strategy:?}");
        }
    }

    #[test]
    fn peak_memory_within_plan_budget() {
        let plans = [SlabStrategy::ColumnSlab, SlabStrategy::RowSlab]
            .into_iter()
            .flat_map(|s| [false, true].map(|prefetch| (s, prefetch)));
        for (strategy, prefetch) in plans {
            let plan = GaxpyPlan {
                prefetch,
                ..make_plan(strategy, 16, 4, 2, 4)
            };
            let machine = Machine::new(MachineConfig::free(4));
            let (_, peaks) = machine.run_with(|ctx| {
                let mut env = OocEnv::in_memory(ctx.rank());
                env.alloc(&plan.a).unwrap();
                env.alloc(&plan.b).unwrap();
                env.alloc(&plan.c).unwrap();
                execute_recoverable(ctx, &mut env, &plan, ctx, &RecoveryOpts::default()).unwrap()
            });
            let budget = plan.memory_elems();
            for peak in peaks {
                assert!(
                    peak <= budget,
                    "{strategy:?} prefetch={prefetch}: peak {peak} exceeds budget {budget}"
                );
            }
        }
    }
}
