//! Out-of-core local arrays and the per-processor array environment.
//!
//! An [`ArrayDesc`] is the compile-time description of one out-of-core
//! array: global shape, element kind, distribution and on-disk layout. The
//! [`OocEnv`] is the runtime side: it lives on one simulated processor and
//! owns the logical disk plus one Local Array File per array (§2.3's model —
//! a processor can only touch its own LAF).
//!
//! Section reads and writes move data between the LAF and in-core buffers.
//! In-core buffers (ICLAs) are always in *section column-major order*
//! regardless of the file layout, so compute kernels never care how the
//! compiler chose to organize the bytes on disk; the reorder between layout
//! order and section order happens during the copy, as a PASSION-style
//! runtime does.

use serde::{Deserialize, Serialize};

use pario::{
    Access, ByteRun, ElemKind, ElemRun, FileId, IoCharge, IoError, LocalArrayFile, LogicalDisk,
    NoCharge, SievePolicy,
};

use crate::dims::Dims;
use crate::dist::Distribution;
use crate::layout::FileLayout;

use crate::section::{offset, DimRange, Section};
use crate::shape::Shape;

/// Identifier of an out-of-core array within one program. Programs number
/// their arrays densely from 0: an [`OocEnv`] indexes its files by id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ArrayId(pub u32);

/// Compile-time description of an out-of-core array.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrayDesc {
    /// Program-unique id.
    pub id: ArrayId,
    /// Source-level name (for diagnostics and reports).
    pub name: String,
    /// Element kind stored in the LAF.
    pub elem: ElemKind,
    /// HPF distribution of the global array.
    pub dist: Distribution,
    /// Linearization of each OCLA inside its LAF — the compiler's storage
    /// reorganization decision.
    pub layout: FileLayout,
}

impl ArrayDesc {
    /// Descriptor with a column-major default layout.
    pub fn new(id: ArrayId, name: impl Into<String>, elem: ElemKind, dist: Distribution) -> Self {
        let ndims = dist.global().ndims();
        ArrayDesc {
            id,
            name: name.into(),
            elem,
            dist,
            layout: FileLayout::column_major(ndims),
        }
    }

    /// Replace the file layout (builder style).
    pub fn with_layout(mut self, layout: FileLayout) -> Self {
        assert_eq!(layout.ndims(), self.dist.global().ndims());
        self.layout = layout;
        self
    }

    /// Global shape.
    pub fn global_shape(&self) -> &Shape {
        self.dist.global()
    }

    /// OCLA shape on `rank`.
    pub fn local_shape(&self, rank: usize) -> Shape {
        self.dist.local_shape(rank)
    }

    /// The byte runs of `section` of a local array of `shape` in this
    /// array's file, in ascending offset order, replacing `out`'s contents.
    ///
    /// This is the one section → request translation: section reads and
    /// writes, redistribution's pieces, the inspector's indirection read
    /// and the compiler's reuse replay all ask the disk for these runs.
    pub fn section_byte_runs(&self, shape: &Shape, section: &Section, out: &mut Vec<ByteRun>) {
        let es = self.elem.size() as u64;
        self.layout
            .section_runs_into(shape, section, out, |offset, len| {
                ByteRun::new(offset * es, len * es)
            });
    }

    /// The [`Access`] the disk sees when asked for
    /// [`ArrayDesc::section_byte_runs`], computed in O(ndims) without
    /// materializing a run: what the compiler tallies for each section an
    /// executor reads or writes. `section` is a [`Section`] or its ranges,
    /// so a tally of pieces built on the stack needs no `Section` each.
    pub fn section_access<S: AsRef<[DimRange]> + ?Sized>(
        &self,
        shape: &Shape,
        section: &S,
    ) -> Access {
        self.layout
            .section_access(shape, section.as_ref(), self.elem.size() as u64)
    }
}

/// Per-processor out-of-core array environment: the logical disk and the
/// local array files living on it.
pub struct OocEnv {
    rank: usize,
    disk: LogicalDisk,
    /// The LAF of each allocated array, indexed by [`ArrayId`].
    files: Vec<Option<LocalFile>>,
    /// Byte-run scratch of the section paths, reused across accesses.
    runs: Vec<ByteRun>,
    /// Layout-order staging of a section access under a non-column-major
    /// layout, reused across accesses.
    staged: Vec<f32>,
}

/// One allocated LAF and the local shape its array had at allocation, so a
/// section read need not re-derive the shape from the distribution.
struct LocalFile {
    laf: LocalArrayFile,
    dist: Distribution,
    shape: Shape,
}

impl OocEnv {
    /// Environment backed by memory (the default for experiments).
    pub fn in_memory(rank: usize) -> Self {
        OocEnv {
            rank,
            disk: LogicalDisk::in_memory(),
            files: Vec::new(),
            runs: Vec::new(),
            staged: Vec::new(),
        }
    }

    /// Environment backed by real scratch files.
    pub fn on_disk(rank: usize) -> Result<Self, IoError> {
        Ok(OocEnv {
            rank,
            disk: LogicalDisk::on_disk(&format!("rank{rank}"))?,
            files: Vec::new(),
            runs: Vec::new(),
            staged: Vec::new(),
        })
    }

    /// Put a slab reuse cache of `budget` bytes in front of this
    /// processor's logical disk. Section reads covered by cached slabs are
    /// free; section writes are buffered until eviction or
    /// [`OocEnv::flush_cache`]. Enable only after uncharged setup
    /// (allocation, `load_global`) so the cache starts cold with the
    /// measured region.
    pub fn enable_cache(&mut self, budget: usize) {
        self.disk.enable_cache(budget);
    }

    /// True when a slab cache is active on the logical disk.
    pub fn cache_enabled(&self) -> bool {
        self.disk.cache_enabled()
    }

    /// Write back all dirty cached slabs, charging the write-backs to
    /// `charge`. Call after each plan so buffered output reaches the LAFs
    /// before anything else reads them uncached.
    pub fn flush_cache(&mut self, charge: &dyn IoCharge) -> Result<(), IoError> {
        self.disk.flush_cache(charge)
    }

    /// Enable deterministic fault injection on this processor's logical
    /// disk. The injector draws from a per-rank stream derived from
    /// `cfg.seed`, so two runs with the same config see the same fault
    /// schedule. A quiet config (all probabilities zero) leaves every
    /// request bit-identical to a fault-free environment.
    pub fn enable_faults(&mut self, cfg: &dmsim::FaultConfig) {
        self.disk.enable_faults(cfg, self.rank);
    }

    /// Like [`OocEnv::enable_faults`] but for workload job `job`: the fate
    /// stream is derived from the (job, rank) pair, so concurrent jobs in a
    /// shared-farm workload keep independent fault schedules. Job 0
    /// reproduces the legacy per-rank streams bit-for-bit.
    pub fn enable_faults_for_job(&mut self, cfg: &dmsim::FaultConfig, job: u32) {
        self.disk.enable_faults_for_job(cfg, job, self.rank);
    }

    /// True once the fault layer has injected enough disk faults to mark
    /// this disk degraded; executors should re-plan slab sizes against
    /// reduced I/O bandwidth.
    pub fn disk_degraded(&self) -> bool {
        self.disk.is_degraded()
    }

    /// Bandwidth derating factor the cost model should apply once
    /// [`OocEnv::disk_degraded`] reports true (1.0 without an injector).
    pub fn degrade_factor(&self) -> f64 {
        self.disk
            .fault_injector()
            .map_or(1.0, |fi| fi.degrade_factor())
    }

    /// This environment's processor rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The underlying logical disk (for stats inspection).
    pub fn disk(&self) -> &LogicalDisk {
        &self.disk
    }

    /// Allocate the LAF for `desc` on this processor. Idempotent per id.
    pub fn alloc(&mut self, desc: &ArrayDesc) -> Result<(), IoError> {
        let at = desc.id.0 as usize;
        if self.files.get(at).is_some_and(Option::is_some) {
            return Ok(());
        }
        let shape = desc.local_shape(self.rank);
        let laf = LocalArrayFile::create(&mut self.disk, desc.elem, shape.len() as u64)?;
        let dist = desc.dist.clone();
        self.files
            .resize_with(self.files.len().max(at + 1), || None);
        self.files[at] = Some(LocalFile { laf, dist, shape });
        Ok(())
    }

    fn file(&self, id: ArrayId) -> &LocalFile {
        self.files
            .get(id.0 as usize)
            .and_then(Option::as_ref)
            .unwrap_or_else(|| panic!("array {id:?} not allocated on rank {}", self.rank))
    }

    fn laf(&self, id: ArrayId) -> LocalArrayFile {
        self.file(id).laf
    }

    /// The file of `desc`, announced to `charge` and to the slab cache so
    /// the access — and any write-back it defers — carries the array's
    /// name.
    fn tagged_file(&mut self, desc: &ArrayDesc, charge: &dyn IoCharge) -> FileId {
        let file = self.laf(desc.id).file_id();
        charge.io_array(&desc.name, file.0);
        self.disk.note_array(file, &desc.name);
        file
    }

    /// Byte runs of `section` of `desc`'s OCLA, in the reused scratch
    /// (hand it back through `self.runs`). While `desc` keeps the
    /// distribution it was allocated with, the local shape recorded at
    /// allocation is used instead of re-deriving it.
    fn take_section_runs(&mut self, desc: &ArrayDesc, section: &Section) -> Vec<ByteRun> {
        let mut runs = std::mem::take(&mut self.runs);
        let file = self.file(desc.id);
        if file.dist == desc.dist {
            desc.section_byte_runs(&file.shape, section, &mut runs);
        } else {
            desc.section_byte_runs(&desc.local_shape(self.rank), section, &mut runs);
        }
        runs
    }

    /// Read the byte `runs` of `desc`'s LAF as `f32`s into `out` (in offset
    /// order) under `policy`: the one disk read behind section reads,
    /// redistribution's union reads and the irregular gathers.
    pub(crate) fn read_runs(
        &mut self,
        desc: &ArrayDesc,
        runs: &[ByteRun],
        out: &mut Vec<f32>,
        charge: &dyn IoCharge,
        policy: SievePolicy,
    ) -> Result<(), IoError> {
        let file = self.tagged_file(desc, charge);
        self.disk
            .read(file, runs.iter().copied(), out, charge, policy)?;
        Ok(())
    }

    /// Read a section of the OCLA (local index space) into a fresh ICLA
    /// buffer in section column-major order, one request per contiguous
    /// run. I/O is charged to `charge`.
    pub fn read_section(
        &mut self,
        desc: &ArrayDesc,
        section: &Section,
        charge: &dyn IoCharge,
    ) -> Result<Vec<f32>, IoError> {
        let mut out = Vec::new();
        self.read_section_into(desc, section, &mut out, charge, SievePolicy::Direct)?;
        Ok(out)
    }

    /// Read a section into a caller-owned ICLA buffer, replacing its
    /// contents, under `policy` (an access method's
    /// [`pario::IoMethod::sieve_policy`]). Under a column-major layout the
    /// elements are decoded straight from storage into `out`; under any
    /// other layout they are reordered into `out` from where the disk lends
    /// them ([`pario::LogicalDisk::read_ref`]) or from a copy staged in
    /// reused scratch, so a slab buffer reused across reads is never
    /// reallocated.
    pub fn read_section_into(
        &mut self,
        desc: &ArrayDesc,
        section: &Section,
        out: &mut Vec<f32>,
        charge: &dyn IoCharge,
        policy: SievePolicy,
    ) -> Result<(), IoError> {
        let runs = self.take_section_runs(desc, section);
        let read = if layout_is_cm(&desc.layout) {
            self.read_runs(desc, &runs, out, charge, policy)
        } else {
            let mut staged = std::mem::take(&mut self.staged);
            let file = self.tagged_file(desc, charge);
            let raw = self
                .disk
                .read_ref(file, runs.iter().copied(), &mut staged, charge, policy);
            let read = raw.map(|raw| {
                out.resize(raw.len(), 0.0);
                reorder(&desc.layout, section, raw, out, true);
            });
            self.staged = staged;
            read
        };
        self.runs = runs;
        read
    }

    /// A section as [`OocEnv::read_section_into`] reads it, lent straight
    /// out of storage where the disk can lend it
    /// ([`pario::LogicalDisk::read_ref`]): a column-major layout whose
    /// section is one run, on an uncached in-memory disk. Otherwise the
    /// section is read into `scratch`, which is returned. Either way the
    /// values, counters and charges are those of `read_section_into`.
    pub fn read_section_ref<'a>(
        &'a mut self,
        desc: &ArrayDesc,
        section: &Section,
        scratch: &'a mut Vec<f32>,
        charge: &dyn IoCharge,
        policy: SievePolicy,
    ) -> Result<&'a [f32], IoError> {
        if !layout_is_cm(&desc.layout) {
            self.read_section_into(desc, section, scratch, charge, policy)?;
            return Ok(scratch);
        }
        let runs = self.take_section_runs(desc, section);
        let file = self.tagged_file(desc, charge);
        let read = self
            .disk
            .read_ref(file, runs.iter().copied(), scratch, charge, policy);
        self.runs = runs;
        read
    }

    /// Write an ICLA buffer (section column-major order) into a section of
    /// the OCLA under `policy` (a sieved write is a read-modify-write of
    /// the span). I/O is charged to `charge`.
    pub fn write_section(
        &mut self,
        desc: &ArrayDesc,
        section: &Section,
        data: &[f32],
        charge: &dyn IoCharge,
        policy: SievePolicy,
    ) -> Result<(), IoError> {
        assert_eq!(data.len(), section.len(), "ICLA buffer/section mismatch");
        let runs = self.take_section_runs(desc, section);
        let file = self.tagged_file(desc, charge);
        let mut staged = std::mem::take(&mut self.staged);
        let data = if layout_is_cm(&desc.layout) {
            data
        } else {
            staged.resize(data.len(), 0.0);
            reorder(&desc.layout, section, data, &mut staged, false);
            &staged
        };
        let written = self
            .disk
            .write(file, runs.iter().copied(), data, charge, policy);
        self.staged = staged;
        self.runs = runs;
        written.map(|_| ())
    }

    /// Populate the whole OCLA from a global-index generator function —
    /// model of the initial distribution of data onto the local array files.
    /// Not charged (the paper amortizes this setup).
    ///
    /// `f` is called once per local element, in the file's layout order,
    /// one run along the layout's fastest dimension at a time, and the
    /// OCLA is written with one request.
    pub fn load_global(
        &mut self,
        desc: &ArrayDesc,
        f: &dyn Fn(&[usize]) -> f32,
    ) -> Result<(), IoError> {
        let local_shape = desc.local_shape(self.rank);
        // Per-dimension local -> global maps keep the fill loop
        // allocation-free (this runs once per element of every array):
        // within a run only the fastest dimension's global index changes.
        let maps = desc.dist.global_index_tables(self.rank);
        let order = desc.layout.order();
        let mut g: Dims<usize, 3> = maps.iter().map(|_| 0).collect();
        let mut buf = Vec::with_capacity(local_shape.len());
        Section::full(&local_shape).for_each_run(order, |at, _| {
            for ((g, map), &l) in g.iter_mut().zip(&maps).zip(at) {
                *g = map[l];
            }
            match order.first() {
                Some(&fast) => buf.extend(maps[fast].iter().map(|&l| {
                    g[fast] = l;
                    f(&g)
                })),
                None => buf.push(f(&g)),
            }
        });
        let laf = self.laf(desc.id);
        laf.write_f32(
            &mut self.disk,
            &[ElemRun::new(0, laf.len())],
            &buf,
            &NoCharge,
        )
    }

    /// Read the whole OCLA in *local column-major* order (for verification;
    /// not charged).
    pub fn read_local_all(&mut self, desc: &ArrayDesc) -> Result<Vec<f32>, IoError> {
        let local_shape = desc.local_shape(self.rank);
        self.read_section_uncharged(desc, &Section::full(&local_shape))
    }

    /// Read a section without charging (setup/verification).
    pub fn read_section_uncharged(
        &mut self,
        desc: &ArrayDesc,
        section: &Section,
    ) -> Result<Vec<f32>, IoError> {
        self.read_section(desc, section, &NoCharge)
    }
}

/// Reorder a buffer of `section` between `layout` order and section
/// column-major order (same length): `src` in layout order into `dst` in
/// column-major order when `to_cm` (reading), the inverse otherwise
/// (writing). A row-major matrix section is transposed a tile at a time
/// ([`transpose_tiled`]); any other layout one run along its fastest
/// dimension at a time.
fn reorder(layout: &FileLayout, section: &Section, src: &[f32], dst: &mut [f32], to_cm: bool) {
    let dense = section.shape();
    if let [1, 0] = layout.order() {
        let (rows, cols) = (dense.extent(0), dense.extent(1));
        let (rows, cols) = if to_cm { (rows, cols) } else { (cols, rows) };
        return transpose_tiled(src, dst, rows, cols);
    }
    let cm = dense.dim_strides();
    let stride = layout.order().first().map_or(1, |&d| cm[d]);
    let mut k = 0;
    Section::full(&dense).for_each_run(layout.order(), |at, len| {
        let at = offset(at, &cm);
        for (l, c) in (k..k + len).zip((at..).step_by(stride)) {
            if to_cm {
                dst[c] = src[l];
            } else {
                dst[l] = src[c];
            }
        }
        k += len;
    });
}

/// `dst[i + j * rows] = src[i * cols + j]`: the row-major `rows × cols`
/// matrix `src` stored column-major in `dst`, one `TILE × TILE` block at a
/// time, so each block's reads and writes stay in cache instead of one
/// strided store per element.
fn transpose_tiled(src: &[f32], dst: &mut [f32], rows: usize, cols: usize) {
    const TILE: usize = 32;
    assert_eq!((src.len(), dst.len()), (rows * cols, rows * cols));
    for i0 in (0..rows).step_by(TILE) {
        let i1 = (i0 + TILE).min(rows);
        for j0 in (0..cols).step_by(TILE) {
            for j in j0..(j0 + TILE).min(cols) {
                let column = &mut dst[j * rows + i0..j * rows + i1];
                for (o, i) in column.iter_mut().zip(i0..) {
                    *o = src[i * cols + j];
                }
            }
        }
    }
}

/// True when `layout` stores sections in column-major order, so section
/// buffers need no reorder.
pub(crate) fn layout_is_cm(layout: &FileLayout) -> bool {
    layout.order().iter().enumerate().all(|(i, &d)| i == d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{DimDist, DistKind, Distribution, ProcGrid};
    use crate::section::DimRange;

    fn desc_col_block(n: usize, p: usize, layout: FileLayout) -> ArrayDesc {
        ArrayDesc::new(
            ArrayId(0),
            "a",
            ElemKind::F32,
            Distribution::column_block(Shape::matrix(n, n), p),
        )
        .with_layout(layout)
    }

    #[test]
    fn load_and_read_back_cm_layout() {
        let desc = desc_col_block(8, 2, FileLayout::column_major(2));
        let mut env = OocEnv::in_memory(1);
        env.alloc(&desc).unwrap();
        // Global value = 100*row + col.
        env.load_global(&desc, &|g| (100 * g[0] + g[1]) as f32)
            .unwrap();
        // Rank 1 owns columns 4..8. Read local column 1 (global col 5).
        let s = Section::new(vec![DimRange::full(8), DimRange::single(1)]);
        let col = env.read_section_uncharged(&desc, &s).unwrap();
        let expect: Vec<f32> = (0..8).map(|r| (100 * r + 5) as f32).collect();
        assert_eq!(col, expect);
    }

    /// Distinct, non-trivial values per global index (and a NaN now and
    /// then), so a misplaced element changes the file bytes.
    fn fill_value(g: &[usize]) -> f32 {
        let h = g.iter().fold(0x9e37_79b9u32, |h, &i| {
            (h ^ i as u32).wrapping_mul(0x0100_0193).rotate_left(5)
        });
        f32::from_bits(h)
    }

    /// `load_global` against a per-element reference walk on every rank of
    /// `dist` under `layout`: every owned global index, placed at its file
    /// offset through `local_index` and `FileLayout::linear`, must be the
    /// order of the init calls and give the file's bytes. Returns how many
    /// ranks own nothing.
    fn check_fill(dist: &Distribution, layout: &FileLayout) -> usize {
        let desc = ArrayDesc::new(ArrayId(3), "f", ElemKind::F32, dist.clone())
            .with_layout(layout.clone());
        let mut empty_ranks = 0;
        for rank in 0..dist.nprocs() {
            let local = desc.local_shape(rank);
            let mut want: Vec<(usize, Vec<usize>)> = dist
                .global()
                .indices()
                .filter(|g| dist.owner(g) == rank)
                .map(|g| {
                    let l: Vec<usize> = (0..g.len()).map(|d| dist.local_index(d, g[d])).collect();
                    (layout.linear(&local, &l), g)
                })
                .collect();
            want.sort();
            assert!(want.iter().enumerate().all(|(i, (pos, _))| i == *pos));
            empty_ranks += usize::from(want.is_empty());

            let mut env = OocEnv::in_memory(rank);
            env.alloc(&desc).unwrap();
            let calls = std::cell::RefCell::new(Vec::new());
            env.load_global(&desc, &|g| {
                calls.borrow_mut().push(g.to_vec());
                fill_value(g)
            })
            .unwrap();
            let case = format!("rank {rank} of {dist:?} under {:?}", layout.order());
            let want_calls: Vec<&Vec<usize>> = want.iter().map(|(_, g)| g).collect();
            let got_calls = calls.into_inner();
            assert_eq!(got_calls.iter().collect::<Vec<_>>(), want_calls, "{case}");

            let laf = env.laf(desc.id);
            let file = laf
                .read_f32(&mut env.disk, &[ElemRun::new(0, laf.len())], &NoCharge)
                .unwrap();
            let got_bits: Vec<u32> = file.iter().map(|v| v.to_bits()).collect();
            let want_bits: Vec<u32> = want.iter().map(|(_, g)| fill_value(g).to_bits()).collect();
            assert_eq!(got_bits, want_bits, "{case}");
        }
        empty_ranks
    }

    #[test]
    fn load_global_fills_as_a_per_element_walk_would() {
        let dd = |kind, axis| DimDist::Distributed { kind, axis };
        let kinds = [DistKind::Block, DistKind::Cyclic, DistKind::BlockCyclic(2)];
        for kind in kinds {
            let mut empty_ranks = 0;
            // 1-D over 4 ranks: with 5 elements the last rank owns nothing
            // under block and block-cyclic(2), with 3 under cyclic.
            for n in [3, 5, 13] {
                let dist =
                    Distribution::new(Shape::new(vec![n]), vec![dd(kind, 0)], ProcGrid::line(4));
                empty_ranks += check_fill(&dist, &FileLayout::column_major(1));
            }
            // 2-D: one distributed dimension, then both on a 2 × 3 grid
            // (3 ranks along a 2-extent dimension leaves some empty).
            for (shape, dims, grid) in [
                (vec![6, 7], vec![DimDist::Collapsed, dd(kind, 0)], vec![3]),
                (vec![7, 2], vec![dd(kind, 1), dd(kind, 0)], vec![3, 2]),
            ] {
                let dist = Distribution::new(Shape::new(shape), dims, ProcGrid::new(grid));
                for layout in [FileLayout::column_major(2), FileLayout::row_major(2)] {
                    empty_ranks += check_fill(&dist, &layout);
                }
            }
            // 3-D, with a collapsed middle dimension.
            let dist = Distribution::new(
                Shape::new(vec![5, 3, 4]),
                vec![dd(kind, 0), DimDist::Collapsed, dd(kind, 1)],
                ProcGrid::new(vec![2, 3]),
            );
            for layout in [
                FileLayout::column_major(3),
                FileLayout::row_major(3),
                FileLayout::new(vec![1, 2, 0]),
            ] {
                empty_ranks += check_fill(&dist, &layout);
            }
            assert!(empty_ranks > 0, "{kind:?}: no rank owned nothing");
        }
    }

    #[test]
    fn icla_order_is_layout_independent() {
        // The same section must come back identical under any file layout.
        for layout in [FileLayout::column_major(2), FileLayout::row_major(2)] {
            let desc = desc_col_block(6, 3, layout);
            let mut env = OocEnv::in_memory(2);
            env.alloc(&desc).unwrap();
            env.load_global(&desc, &|g| (10 * g[0] + g[1]) as f32)
                .unwrap();
            let s = Section::new(vec![DimRange::new(1, 4), DimRange::new(0, 2)]);
            let buf = env.read_section_uncharged(&desc, &s).unwrap();
            // Section CM order: rows fastest. Rank 2 owns global cols 4..6.
            let expect: Vec<f32> = vec![
                (10 + 4) as f32,
                (10 * 2 + 4) as f32,
                (10 * 3 + 4) as f32,
                (10 + 5) as f32,
                (10 * 2 + 5) as f32,
                (10 * 3 + 5) as f32,
            ];
            assert_eq!(buf, expect, "layout changed ICLA contents");
        }
    }

    #[test]
    fn write_then_read_roundtrip_any_layout() {
        for layout in [FileLayout::column_major(2), FileLayout::row_major(2)] {
            let desc = desc_col_block(8, 2, layout);
            let mut env = OocEnv::in_memory(0);
            env.alloc(&desc).unwrap();
            let s = Section::new(vec![DimRange::new(2, 5), DimRange::new(1, 4)]);
            let data: Vec<f32> = (0..s.len()).map(|i| i as f32 * 1.5).collect();
            env.write_section(&desc, &s, &data, &NoCharge, SievePolicy::Direct)
                .unwrap();
            let back = env.read_section_uncharged(&desc, &s).unwrap();
            assert_eq!(back, data);
        }
    }

    #[test]
    fn io_request_counts_depend_on_layout() {
        let n = 16;
        let row_slab = Section::new(vec![DimRange::new(0, 2), DimRange::full(n)]);
        // Column-major file: a row slab is n strided runs.
        let cm = desc_col_block(n, 1, FileLayout::column_major(2));
        let mut env = OocEnv::in_memory(0);
        env.alloc(&cm).unwrap();
        let _ = env.read_section_uncharged(&cm, &row_slab).unwrap();
        assert_eq!(env.disk().stats().read_requests, n as u64);
        // Row-major file: one run.
        let rm = desc_col_block(n, 1, FileLayout::row_major(2));
        let mut env2 = OocEnv::in_memory(0);
        env2.alloc(&rm).unwrap();
        let _ = env2.read_section_uncharged(&rm, &row_slab).unwrap();
        assert_eq!(env2.disk().stats().read_requests, 1);
    }

    #[test]
    fn sieving_trades_requests_for_bytes() {
        let n = 16;
        // Row slab of a column-major file: n strided runs of 2 elements.
        let row_slab = Section::new(vec![DimRange::new(4, 6), DimRange::full(n)]);
        let desc = desc_col_block(n, 1, FileLayout::column_major(2));

        let mut direct = OocEnv::in_memory(0);
        direct.alloc(&desc).unwrap();
        direct
            .load_global(&desc, &|g| (g[0] * 100 + g[1]) as f32)
            .unwrap();
        let want = direct.read_section_uncharged(&desc, &row_slab).unwrap();
        let direct_stats = direct.disk().stats();

        let mut sieved = OocEnv::in_memory(0);
        sieved.alloc(&desc).unwrap();
        sieved
            .load_global(&desc, &|g| (g[0] * 100 + g[1]) as f32)
            .unwrap();
        let mut got = Vec::new();
        sieved
            .read_section_into(&desc, &row_slab, &mut got, &NoCharge, SievePolicy::Always)
            .unwrap();
        let sieved_stats = sieved.disk().stats();

        assert_eq!(got, want, "sieving must not change the data");
        assert_eq!(direct_stats.read_requests, n as u64);
        assert_eq!(sieved_stats.read_requests, 1);
        assert!(sieved_stats.bytes_read > direct_stats.bytes_read);
    }

    #[test]
    fn cached_reads_hit_and_writes_buffer() {
        let desc = desc_col_block(8, 2, FileLayout::column_major(2));
        let mut env = OocEnv::in_memory(0);
        env.alloc(&desc).unwrap();
        env.load_global(&desc, &|g| (g[0] * 10 + g[1]) as f32)
            .unwrap();
        env.enable_cache(1 << 16);
        assert!(env.cache_enabled());
        let s = Section::new(vec![DimRange::full(8), DimRange::new(0, 2)]);
        let first = env.read_section_uncharged(&desc, &s).unwrap();
        let base = env.disk().stats();
        let second = env.read_section_uncharged(&desc, &s).unwrap();
        assert_eq!(first, second, "cache must not change section contents");
        let after = env.disk().stats();
        assert_eq!(after.read_requests, base.read_requests, "repeat read hits");
        assert_eq!(after.cache_hits, base.cache_hits + 1);
        // Writes buffer until flushed and stay visible to reads meanwhile.
        // (`load_global` already issued one uncached setup write.)
        let writes_before = env.disk().stats().write_requests;
        let data: Vec<f32> = (0..s.len()).map(|i| i as f32).collect();
        env.write_section(&desc, &s, &data, &NoCharge, SievePolicy::Direct)
            .unwrap();
        assert_eq!(env.disk().stats().write_requests, writes_before);
        let back = env.read_section_uncharged(&desc, &s).unwrap();
        assert_eq!(back, data);
        env.flush_cache(&NoCharge).unwrap();
        assert_eq!(env.disk().stats().write_requests, writes_before + 1);
        assert_eq!(env.disk().stats().write_back_requests, 1);
    }

    /// Every permutation of `0..n`.
    fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![Vec::new()];
        }
        let mut all = Vec::new();
        for rest in permutations(n - 1) {
            for at in 0..=rest.len() {
                let mut p = rest.clone();
                p.insert(at, n - 1);
                all.push(p);
            }
        }
        all
    }

    /// The per-element definition of [`reorder`] to column-major: the
    /// `k`-th element of `section` in `layout` order sits, in section
    /// column-major order, at its relative index weighted by the
    /// column-major strides.
    fn reorder_by_element(layout: &FileLayout, section: &Section, raw: &[f32]) -> Vec<f32> {
        let mut out = vec![f32::NAN; raw.len()];
        for (k, idx) in layout.section_indices_in_layout_order(section).enumerate() {
            let (mut cm, mut stride) = (0, 1);
            for (d, r) in section.ranges().iter().enumerate() {
                cm += (idx[d] - r.lo) / r.step * stride;
                stride *= r.len();
            }
            out[cm] = raw[k];
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn run_wise_reorder_matches_the_per_element_definition(
            dims in proptest::collection::vec((0usize..4, 0usize..5, 1usize..4), 1..4),
        ) {
            // Each dimension is `lo, lo + step, …` with `len` entries: empty,
            // a single index, unit-stride or strided.
            let section = Section::new(
                dims.iter()
                    .map(|&(lo, len, step)| DimRange::strided(lo, lo + len * step, step))
                    .collect::<Vec<_>>(),
            );
            let raw: Vec<f32> = (0..section.len()).map(|i| i as f32 + 0.5).collect();
            for order in permutations(dims.len()) {
                let layout = FileLayout::new(order);
                let want = reorder_by_element(&layout, &section, &raw);
                let mut cm = vec![f32::NAN; raw.len()];
                reorder(&layout, &section, &raw, &mut cm, true);
                proptest::prop_assert_eq!(&cm, &want, "reorder to cm under {:?}", layout.order());
                let mut back = vec![f32::NAN; raw.len()];
                reorder(&layout, &section, &cm, &mut back, false);
                proptest::prop_assert_eq!(&back, &raw, "round trip under {:?}", layout.order());
            }
        }
    }

    #[test]
    fn tiled_transposes_match_the_per_element_reference() {
        // Row-major matrix sections take the tiled transpose: ragged tile
        // edges, exact tiles, strided ranges, one row and one column, read
        // and written through an environment. 3-D layouts keep the run
        // walk and are held to the same reference.
        let n = 100;
        let (full, r) = (DimRange::full(n), DimRange::new);
        let sections = [
            Section::new(vec![full, full]),
            Section::new(vec![r(3, 70), DimRange::strided(5, 95, 3)]),
            Section::new(vec![r(7, 8), full]),
            Section::new(vec![full, r(9, 10)]),
            Section::new(vec![r(0, 33), r(10, 75)]),
            Section::new(vec![r(4, 68), r(20, 84)]),
            Section::new(vec![DimRange::strided(1, 99, 2), r(0, 41)]),
        ];
        let desc = desc_col_block(n, 1, FileLayout::row_major(2));
        let value = |i: usize, j: usize| (i * 1000 + j) as f32;
        for sec in &sections {
            let at = format!("{:?}", sec.ranges());
            let raw: Vec<f32> = (0..sec.len()).map(|k| k as f32 + 0.5).collect();
            let want = reorder_by_element(&desc.layout, sec, &raw);
            let mut cm = vec![f32::NAN; raw.len()];
            reorder(&desc.layout, sec, &raw, &mut cm, true);
            assert_eq!(cm, want, "to cm {at}");
            let mut back = vec![f32::NAN; raw.len()];
            reorder(&desc.layout, sec, &cm, &mut back, false);
            assert_eq!(back, raw, "to layout {at}");

            // Reading: section column-major values of the loaded array.
            let mut env = OocEnv::in_memory(0);
            env.alloc(&desc).unwrap();
            env.load_global(&desc, &|g| value(g[0], g[1])).unwrap();
            let (rows, cols) = (sec.range(0), sec.range(1));
            let expect: Vec<f32> = (0..cols.len())
                .flat_map(|b| (0..rows.len()).map(move |a| (a, b)))
                .map(|(a, b)| value(rows.lo + a * rows.step, cols.lo + b * cols.step))
                .collect();
            assert_eq!(
                env.read_section_uncharged(&desc, sec).unwrap(),
                expect,
                "{at}"
            );
            // Writing: the section's elements, and nothing else, change.
            let data: Vec<f32> = (0..sec.len()).map(|k| -(k as f32) - 1.0).collect();
            env.write_section(&desc, sec, &data, &NoCharge, SievePolicy::Direct)
                .unwrap();
            let all = env.read_local_all(&desc).unwrap();
            let mut expect_all: Vec<f32> = (0..n * n).map(|k| value(k % n, k / n)).collect();
            for (k, &v) in data.iter().enumerate() {
                let (a, b) = (k % rows.len(), k / rows.len());
                expect_all[rows.lo + a * rows.step + (cols.lo + b * cols.step) * n] = v;
            }
            assert_eq!(all, expect_all, "write {at}");
        }
        let cube = Section::new(vec![r(0, 35), DimRange::strided(1, 8, 3), r(2, 35)]);
        let raw: Vec<f32> = (0..cube.len()).map(|k| k as f32).collect();
        for order in permutations(3) {
            let layout = FileLayout::new(order);
            let mut cm = vec![f32::NAN; raw.len()];
            reorder(&layout, &cube, &raw, &mut cm, true);
            assert_eq!(cm, reorder_by_element(&layout, &cube, &raw), "{layout:?}");
            let mut back = vec![f32::NAN; raw.len()];
            reorder(&layout, &cube, &cm, &mut back, false);
            assert_eq!(back, raw, "{layout:?}");
        }
    }

    #[test]
    fn a_zero_dimensional_section_reorders_its_one_element() {
        let (layout, section) = (
            FileLayout::new(Vec::<usize>::new()),
            Section::new(Vec::new()),
        );
        let mut out = [0.0f32];
        reorder(&layout, &section, &[7.5], &mut out, true);
        assert_eq!(out, [7.5]);
        reorder(&layout, &section, &[2.5], &mut out, false);
        assert_eq!(out, [2.5]);
    }

    #[test]
    fn alloc_is_idempotent() {
        let desc = desc_col_block(4, 2, FileLayout::column_major(2));
        let mut env = OocEnv::in_memory(0);
        env.alloc(&desc).unwrap();
        env.alloc(&desc).unwrap();
        assert_eq!(env.rank(), 0);
    }

    #[test]
    #[should_panic(expected = "not allocated")]
    fn unallocated_array_panics() {
        let desc = desc_col_block(4, 2, FileLayout::column_major(2));
        let mut env = OocEnv::in_memory(0);
        let _ = env.read_local_all(&desc);
    }
}
