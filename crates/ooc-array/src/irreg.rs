//! Inspector–executor for irregular (indirection-array) accesses.
//!
//! Affine accesses let the compiler enumerate every rank's file regions
//! statically; an `A(idx(i))`-style gather cannot — the regions depend on
//! runtime data. The classic answer (and the original motivation for
//! two-phase collective I/O) is the inspector–executor split: the
//! **inspector** reads the indirection array once, bins every target by its
//! owning rank, exchanges the per-owner want-lists, and coalesces each
//! owner's serve-list into [`ByteRun`]s; the resulting [`IrregSchedule`] is
//! serialisable and reusable across iterations, so its cost amortizes. The
//! **executor** ([`gather_with`]) then drives the schedule through any of
//! the three access methods — direct piece-wise reads, data sieving, or a
//! two-phase union read + all-to-all. The compiler prices a schedule by
//! tallying the same serve runs through the disk's decision rule
//! (`ooc_core::irreg::schedule_nodes`), so estimate == measured holds for the
//! inspected schedule just as it does for the affine paths.

use dmsim::{Payload, ProcCtx, Tag};
use ooc_trace::digest::Fnv1a;
use pario::{plan_union, ByteRun, IoCharge, IoMethod, SievePolicy};
use serde::{Deserialize, Serialize};

use crate::error::OocError;
use crate::ocla::{ArrayDesc, OocEnv};
use crate::section::Section;

/// Tag used by the executor's point-to-point gather messages.
const IRREG_TAG: Tag = Tag(0x16A7);

/// Magic line of the serialised schedule format.
const SCHED_MAGIC: &str = "oochpf-irreg 1";

/// Fingerprint of the descriptor pair a schedule indexes: any change to
/// shape, distribution or file layout changes the digest.
fn desc_digest(data: &ArrayDesc, index: &ArrayDesc) -> u64 {
    Fnv1a::new()
        .u64s(format!("{data:?}|{index:?}").bytes().map(u64::from))
        .finish()
}

/// What an [`IrregSchedule`] was inspected against. A cached schedule is
/// only valid while every ingredient the inspector consumed is unchanged:
/// the data array's descriptor (distribution *and* file layout — either
/// moves bytes), the indirection array's descriptor, the processor count,
/// and the indirection contents themselves (fingerprinted per rank).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleStamp {
    /// Descriptor of the gathered (data) array.
    pub data: ArrayDesc,
    /// Descriptor of the indirection array.
    pub index: ArrayDesc,
    /// Rank the schedule was inspected on.
    pub rank: usize,
    /// Processor count of the inspecting machine.
    pub nprocs: usize,
    /// FNV-1a fingerprint of this rank's local indirection values.
    pub index_hash: u64,
}

/// The cached product of one inspection on one rank: where every gathered
/// element lives, which peers serve it, and the coalesced byte runs this
/// rank must service for each peer. Serialisable, so schedules can be
/// persisted next to the arrays they index.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IrregSchedule {
    /// Validity stamp — see [`ScheduleStamp`].
    pub stamp: ScheduleStamp,
    /// Gather output length: this rank's local indirection entries.
    pub nout: usize,
    /// Per output element: `(owner peer, slot in that peer's payload)`.
    pub out_slot: Vec<(u32, u32)>,
    /// Per peer `j`: distinct element offsets (ascending) this rank wants
    /// from `j`'s local data file. Payloads arrive in exactly this order.
    pub want: Vec<Vec<u64>>,
    /// Per peer `j`: distinct element offsets (ascending) of *this* rank's
    /// local data file that `j` wants — the pack order of outgoing payloads.
    pub serve_elems: Vec<Vec<u64>>,
    /// Per peer `j`: the coalesced byte runs covering `serve_elems[j]`.
    pub serve_runs: Vec<Vec<ByteRun>>,
}

impl IrregSchedule {
    /// True while this schedule may be reused without re-inspection:
    /// descriptors and machine shape unchanged. The indirection *contents*
    /// are only fingerprinted — callers that rewrite the indirection array
    /// must re-run [`inspect`] (or compare hashes themselves).
    pub fn is_valid_for(
        &self,
        data: &ArrayDesc,
        index: &ArrayDesc,
        rank: usize,
        nprocs: usize,
    ) -> bool {
        self.stamp.data == *data
            && self.stamp.index == *index
            && self.stamp.rank == rank
            && self.stamp.nprocs == nprocs
    }

    /// Serialise to a self-describing byte format (version-tagged text
    /// header + u64 lists), suitable for caching a schedule on disk next
    /// to the arrays it indexes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut s = String::new();
        s.push_str(SCHED_MAGIC);
        s.push('\n');
        s.push_str(&format!(
            "data={} index={} rank={} nprocs={} hash={} digest={} nout={}\n",
            self.stamp.data.name,
            self.stamp.index.name,
            self.stamp.rank,
            self.stamp.nprocs,
            self.stamp.index_hash,
            desc_digest(&self.stamp.data, &self.stamp.index),
            self.nout,
        ));
        let join = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
        s.push_str(&format!(
            "out_slot={}\n",
            self.out_slot
                .iter()
                .map(|&(p, i)| format!("{p}:{i}"))
                .collect::<Vec<_>>()
                .join(",")
        ));
        for (label, lists) in [("want", &self.want), ("serve_elems", &self.serve_elems)] {
            for (j, l) in lists.iter().enumerate() {
                s.push_str(&format!("{label}[{j}]={}\n", join(l)));
            }
        }
        for (j, runs) in self.serve_runs.iter().enumerate() {
            s.push_str(&format!(
                "serve_runs[{j}]={}\n",
                runs.iter()
                    .map(|r| format!("{}:{}", r.offset, r.len))
                    .collect::<Vec<_>>()
                    .join(",")
            ));
        }
        s.into_bytes()
    }

    /// Reconstruct a schedule serialised by [`Self::to_bytes`]. The caller
    /// supplies the descriptors the schedule indexes (like
    /// [`crate::persist::import_array`], the format validates against them
    /// rather than storing them); a digest mismatch means the arrays moved
    /// since the schedule was cached, and the schedule is rejected.
    ///
    /// The digest covers only the descriptors, so the body is checked too:
    /// the rank count must match the data array's distribution, the output
    /// length must be the rank's count of indirection entries, every
    /// element list must be strictly ascending inside its owner's local
    /// length, every output slot must name a wanted element, and every
    /// serve run list must be exactly the coalesced runs of its elements.
    /// Any mismatch is an `Err`, never a panic later in the executor.
    pub fn from_bytes(
        data: &ArrayDesc,
        index: &ArrayDesc,
        bytes: &[u8],
    ) -> Result<IrregSchedule, String> {
        let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
        let mut lines = text.lines();
        if lines.next() != Some(SCHED_MAGIC) {
            return Err("not an irregular-schedule file".into());
        }
        let head = lines.next().ok_or("truncated schedule header")?;
        let mut fields = std::collections::HashMap::new();
        for kv in head.split_whitespace() {
            let (k, v) = kv.split_once('=').ok_or("malformed schedule header")?;
            fields.insert(k, v);
        }
        let get = |k: &str| -> Result<u64, String> {
            fields
                .get(k)
                .ok_or(format!("missing header field {k}"))?
                .parse()
                .map_err(|e| format!("bad header field {k}: {e}"))
        };
        if fields.get("data") != Some(&data.name.as_str())
            || fields.get("index") != Some(&index.name.as_str())
        {
            return Err("schedule names a different array pair".into());
        }
        if get("digest")? != desc_digest(data, index) {
            return Err("descriptors changed since the schedule was cached".into());
        }
        let rank = get("rank")? as usize;
        let nprocs = get("nprocs")? as usize;
        let nout = get("nout")? as usize;
        let index_hash = get("hash")?;
        if nprocs != data.dist.nprocs() {
            return Err(format!(
                "schedule spans {nprocs} ranks, `{}` is distributed over {}",
                data.name,
                data.dist.nprocs()
            ));
        }
        if rank >= nprocs {
            return Err(format!("schedule rank {rank} is not below nprocs {nprocs}"));
        }

        let parse_list = |s: &str| -> Result<Vec<u64>, String> {
            if s.is_empty() {
                return Ok(Vec::new());
            }
            s.split(',')
                .map(|t| t.parse().map_err(|e| format!("bad list entry: {e}")))
                .collect()
        };
        let mut out_slot = Vec::new();
        let mut want = vec![Vec::new(); nprocs];
        let mut serve_elems = vec![Vec::new(); nprocs];
        let mut serve_runs = vec![Vec::new(); nprocs];
        for line in lines {
            let (key, val) = line.split_once('=').ok_or("malformed schedule line")?;
            if key == "out_slot" {
                for t in val.split(',').filter(|t| !t.is_empty()) {
                    let (p, i) = t.split_once(':').ok_or("malformed out_slot pair")?;
                    out_slot.push((
                        p.parse().map_err(|e| format!("bad peer: {e}"))?,
                        i.parse().map_err(|e| format!("bad slot: {e}"))?,
                    ));
                }
            } else if let Some(j) = key.strip_prefix("want[").and_then(|r| r.strip_suffix(']')) {
                let j: usize = j.parse().map_err(|e| format!("bad peer index: {e}"))?;
                *want.get_mut(j).ok_or("peer out of range")? = parse_list(val)?;
            } else if let Some(j) = key
                .strip_prefix("serve_elems[")
                .and_then(|r| r.strip_suffix(']'))
            {
                let j: usize = j.parse().map_err(|e| format!("bad peer index: {e}"))?;
                *serve_elems.get_mut(j).ok_or("peer out of range")? = parse_list(val)?;
            } else if let Some(j) = key
                .strip_prefix("serve_runs[")
                .and_then(|r| r.strip_suffix(']'))
            {
                let j: usize = j.parse().map_err(|e| format!("bad peer index: {e}"))?;
                let mut runs = Vec::new();
                for t in val.split(',').filter(|t| !t.is_empty()) {
                    let (o, l) = t.split_once(':').ok_or("malformed run")?;
                    runs.push(ByteRun {
                        offset: o.parse().map_err(|e| format!("bad offset: {e}"))?,
                        len: l.parse().map_err(|e| format!("bad len: {e}"))?,
                    });
                }
                *serve_runs.get_mut(j).ok_or("peer out of range")? = runs;
            } else {
                return Err(format!("unknown schedule line key {key:?}"));
            }
        }
        if out_slot.len() != nout {
            return Err("out_slot length mismatches nout".into());
        }
        let sched = IrregSchedule {
            stamp: ScheduleStamp {
                data: data.clone(),
                index: index.clone(),
                rank,
                nprocs,
                index_hash,
            },
            nout,
            out_slot,
            want,
            serve_elems,
            serve_runs,
        };
        sched.check_body()?;
        Ok(sched)
    }

    /// The structural invariants [`inspect`] establishes and the executor
    /// relies on (see [`Self::from_bytes`]).
    fn check_body(&self) -> Result<(), String> {
        let (index, rank) = (&self.stamp.index, self.stamp.rank);
        let entries = index.local_shape(rank).len();
        if self.nout != entries {
            return Err(format!(
                "nout {} mismatches the {entries} entries of `{}` on rank {rank}",
                self.nout, index.name
            ));
        }
        let data = &self.stamp.data;
        let local_len = |rank: usize| data.local_shape(rank).len() as u64;
        let check_elems = |label: &str, j: usize, elems: &[u64], owner: usize| {
            let ascending = elems.windows(2).all(|w| w[0] < w[1]);
            let len = local_len(owner);
            match elems.last() {
                _ if !ascending => Err(format!("{label}[{j}] is not strictly ascending")),
                Some(&last) if last >= len => Err(format!(
                    "{label}[{j}] names element {last} of rank {owner}'s {len}"
                )),
                _ => Ok(()),
            }
        };
        for (j, elems) in self.want.iter().enumerate() {
            check_elems("want", j, elems, j)?;
        }
        for (j, elems) in self.serve_elems.iter().enumerate() {
            check_elems("serve_elems", j, elems, self.stamp.rank)?;
        }
        for &(peer, slot) in &self.out_slot {
            let wanted = self.want.get(peer as usize).map_or(0, Vec::len);
            if slot as usize >= wanted {
                return Err(format!(
                    "out_slot {peer}:{slot} is outside the {wanted} elements wanted from rank {peer}"
                ));
            }
        }
        let es = data.elem.size() as u64;
        for (j, (elems, runs)) in self.serve_elems.iter().zip(&self.serve_runs).enumerate() {
            if *runs != serve_runs_of(elems, es) {
                return Err(format!(
                    "serve_runs[{j}] are not the coalesced runs of serve_elems[{j}]"
                ));
            }
        }
        Ok(())
    }

    /// Run-length statistics of the inspected index set, as one flat u64
    /// vector so ranks can allreduce them into identical global statistics
    /// (the runtime method selector must make the same choice everywhere).
    /// Layout: see [`crate::irreg::IrregStats`] field order.
    pub fn stats(&self) -> IrregStats {
        let me = self.stamp.rank;
        let es = self.stamp.data.elem.size() as u64;
        let mut s = IrregStats {
            nprocs: self.stamp.nprocs as u64,
            index_elems: self.nout as u64,
            index_requests: if self.nout > 0 { 1 } else { 0 },
            gather_elems: self.nout as u64,
            ..IrregStats::default()
        };
        for (j, elems) in self.serve_elems.iter().enumerate() {
            if elems.is_empty() {
                continue;
            }
            s.serve_elems += elems.len() as u64;
            s.serve_runs += self.serve_runs[j].len() as u64;
            s.peers_with_data += 1;
            let lo = self.serve_runs[j].first().expect("non-empty runs").offset;
            let hi = self.serve_runs[j].last().expect("non-empty runs").end();
            s.span_bytes += hi - lo;
            if j != me {
                s.remote_served_elems += elems.len() as u64;
            }
        }
        for (j, w) in self.want.iter().enumerate() {
            if j != me {
                s.remote_want_elems += w.len() as u64;
            }
        }
        let union = plan_union(&self.serve_runs);
        s.union_runs = union.requests();
        s.union_bytes = union.bytes();
        s.elem_size = es;
        s
    }
}

/// Sufficient statistics of an inspected index set: everything the cost
/// model needs to price the inspector and all three executor methods.
/// All fields are u64 so a set of per-rank stats can be summed with one
/// `allreduce` into machine-global statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct IrregStats {
    /// Processor count (take `max` when merging, not sum).
    pub nprocs: u64,
    /// Element size of the data array in bytes (merge: max).
    pub elem_size: u64,
    /// Indirection entries the inspector reads on this rank.
    pub index_elems: u64,
    /// Requests that indirection read issues.
    pub index_requests: u64,
    /// Gathered output elements (== `index_elems`: one per entry).
    pub gather_elems: u64,
    /// Distinct local data elements this rank serves, over all peers.
    pub serve_elems: u64,
    /// Coalesced serve runs over all peers — the direct read request count.
    pub serve_runs: u64,
    /// Peers (self included) with a non-empty serve list — the sieved
    /// request count, one spanning read per peer.
    pub peers_with_data: u64,
    /// Total bytes of those per-peer sieve spans.
    pub span_bytes: u64,
    /// Runs in the union of every peer's serve runs — the two-phase
    /// request count.
    pub union_runs: u64,
    /// Bytes the union read moves.
    pub union_bytes: u64,
    /// Distinct elements this rank sends to *other* ranks (direct/sieved
    /// message payload; two-phase moves the same bytes via all-to-all).
    pub remote_served_elems: u64,
    /// Distinct elements this rank requests from other ranks (the
    /// inspector's want-list exchange payload, 8 bytes each).
    pub remote_want_elems: u64,
}

impl IrregStats {
    /// Merge another rank's stats into machine-global totals.
    pub fn merge(&mut self, other: &IrregStats) {
        self.nprocs = self.nprocs.max(other.nprocs);
        self.elem_size = self.elem_size.max(other.elem_size);
        self.index_elems += other.index_elems;
        self.index_requests += other.index_requests;
        self.gather_elems += other.gather_elems;
        self.serve_elems += other.serve_elems;
        self.serve_runs += other.serve_runs;
        self.peers_with_data += other.peers_with_data;
        self.span_bytes += other.span_bytes;
        self.union_runs += other.union_runs;
        self.union_bytes += other.union_bytes;
        self.remote_served_elems += other.remote_served_elems;
        self.remote_want_elems += other.remote_want_elems;
    }

    /// Flatten for an `allreduce` (field order is the struct order).
    pub fn to_vec(&self) -> Vec<u64> {
        vec![
            self.nprocs,
            self.elem_size,
            self.index_elems,
            self.index_requests,
            self.gather_elems,
            self.serve_elems,
            self.serve_runs,
            self.peers_with_data,
            self.span_bytes,
            self.union_runs,
            self.union_bytes,
            self.remote_served_elems,
            self.remote_want_elems,
        ]
    }

    /// Inverse of [`Self::to_vec`]. `nprocs`/`elem_size` arrive summed from
    /// an allreduce; divide by the rank count before calling, or pass the
    /// true values back in afterwards.
    pub fn from_vec(v: &[u64]) -> IrregStats {
        IrregStats {
            nprocs: v[0],
            elem_size: v[1],
            index_elems: v[2],
            index_requests: v[3],
            gather_elems: v[4],
            serve_elems: v[5],
            serve_runs: v[6],
            peers_with_data: v[7],
            span_bytes: v[8],
            union_runs: v[9],
            union_bytes: v[10],
            remote_served_elems: v[11],
            remote_want_elems: v[12],
        }
    }
}

/// Run the inspector: read this rank's slice of the indirection array once
/// (charged), sort its entries by target, bin each distinct target by its
/// owning rank, exchange the per-owner want-lists (one u64 all-to-all), and
/// coalesce every incoming want-list into the byte runs this rank will
/// service. Collective — every rank must call it with the same descriptors.
///
/// Both arrays must be one-dimensional (the paper's `A(idx(i))` shape);
/// indirection values are global element indices stored as `f32` and must
/// be whole numbers in `[0, n)` — any other entry is an
/// [`OocError::Data`] naming the indirection array.
pub fn inspect(
    ctx: &ProcCtx,
    env: &mut OocEnv,
    data: &ArrayDesc,
    index: &ArrayDesc,
    charge: &dyn IoCharge,
) -> Result<IrregSchedule, OocError> {
    assert_eq!(data.global_shape().ndims(), 1, "inspect: 1-D data arrays");
    assert_eq!(index.global_shape().ndims(), 1, "inspect: 1-D index arrays");
    let me = ctx.rank();
    let p = ctx.nprocs();
    assert_eq!(data.dist.nprocs(), p, "inspect: machine/distribution shape");
    let _span = ctx.trace_span(ooc_trace::Category::Inspector, "inspect");

    // Read the local indirection slice once — the whole point of caching
    // the schedule is never paying this again while it stays valid.
    let local_shape = index.local_shape(me);
    let vals = if local_shape.is_empty() {
        Vec::new()
    } else {
        env.read_section(index, &Section::full(&local_shape), charge)?
    };
    let n = data.global_shape().extent(0);
    let index_hash = Fnv1a::new().u64s(vals.iter().map(|v| *v as u64)).finish();

    // Key every entry by its target, in entry order so that the first bad
    // entry is the one reported. A bad entry fails this rank before it
    // sends anything; its peers then see the loss as a communication error
    // in the exchange below.
    let mut keyed = Vec::with_capacity(vals.len());
    for (i, &v) in vals.iter().enumerate() {
        let g = v as usize;
        // `as` truncates: a whole `v` in range converts back exactly, a
        // fractional one does not.
        if !(v >= 0.0 && g < n && g as f32 == v) {
            return Err(OocError::Data {
                array: index.name.clone(),
                reason: format!(
                    "local entry {i} on rank {me} = {v} is not an index into `{}` (0..{n})",
                    data.name
                ),
            });
        }
        keyed.push((g, i));
    }

    // Locate each distinct target once, in target order. Within one owner
    // the local index rises with the global one under block, cyclic and
    // block-cyclic alike, so appending keeps every want list ascending and
    // free of duplicates (repeats collapse to one wire slot), and a
    // target's slot is its owner's list length when the target is first met.
    let mut want: Vec<Vec<u64>> = vec![Vec::new(); p];
    let mut out_slot = vec![(0, 0); vals.len()];
    let (mut last, mut slot) = (None, (0, 0));
    for (g, i) in sort_by_target(keyed, n) {
        if last != Some(g) {
            last = Some(g);
            let owner = data.dist.owner(&[g]);
            slot = (owner as u32, want[owner].len() as u32);
            want[owner].push(data.dist.local_index(0, g) as u64);
        }
        out_slot[i] = slot;
    }

    // Tell every owner what we want from it; learn what we must serve.
    let serve_elems = ctx.try_alltoallv::<u64>(want.clone())?;
    let es = data.elem.size() as u64;
    let serve_runs = serve_elems
        .iter()
        .map(|elems| serve_runs_of(elems, es))
        .collect();

    Ok(IrregSchedule {
        stamp: ScheduleStamp {
            data: data.clone(),
            index: index.clone(),
            rank: me,
            nprocs: p,
            index_hash,
        },
        nout: vals.len(),
        out_slot,
        want,
        serve_elems,
        serve_runs,
    })
}

/// `(target, entry)` pairs stably sorted by target, every target below
/// `bound`: an LSD counting sort over equal digits of at most 16 bits, so
/// targets below 2^16 take one pass and the count table never outgrows
/// 2^16 slots, however long the data array.
fn sort_by_target(mut pairs: Vec<(usize, usize)>, bound: usize) -> Vec<(usize, usize)> {
    let bits = usize::BITS - bound.saturating_sub(1).leading_zeros();
    let passes = bits.div_ceil(16);
    if passes == 0 || pairs.len() < 2 {
        return pairs;
    }
    let width = bits.div_ceil(passes);
    let digit = |target: usize, pass: u32| (target >> (pass * width)) & ((1 << width) - 1);
    let mut count = vec![0usize; 1 << width];
    let mut sorted = vec![(0, 0); pairs.len()];
    for pass in 0..passes {
        count.fill(0);
        for &(target, _) in &pairs {
            count[digit(target, pass)] += 1;
        }
        let mut start = 0;
        for c in &mut count {
            (start, *c) = (start + *c, start);
        }
        for &pair in &pairs {
            let at = &mut count[digit(pair.0, pass)];
            sorted[*at] = pair;
            *at += 1;
        }
        std::mem::swap(&mut pairs, &mut sorted);
    }
    pairs
}

/// The coalesced byte runs covering strictly ascending local elements
/// `elems` of `es` bytes each, in one pass and one allocation (there is at
/// most one run per element).
fn serve_runs_of(elems: &[u64], es: u64) -> Vec<ByteRun> {
    let mut runs: Vec<ByteRun> = Vec::with_capacity(elems.len());
    for &off in elems {
        match runs.last_mut() {
            Some(run) if run.end() == off * es => run.len += es,
            _ => runs.push(ByteRun::new(off * es, es)),
        }
    }
    runs
}

/// Execute a cached schedule: gather `data[idx[i]]` for every local
/// indirection entry, returning the values in entry order. Collective —
/// every rank drives its own schedule with the same `method`.
///
/// * `Direct` — one read per coalesced serve run, one message per peer
///   with data.
/// * `Sieved` — one spanning read per peer with data (trading bytes for
///   requests), same messages as direct: the disk read under
///   [`SievePolicy::Always`].
/// * `TwoPhase` — one coalesced union read covering every peer's serve
///   list, then an all-to-all exchange.
///
/// All three produce identical outputs; they differ only in the request and
/// message schedule.
pub fn gather_with(
    ctx: &ProcCtx,
    env: &mut OocEnv,
    sched: &IrregSchedule,
    method: IoMethod,
    charge: &dyn IoCharge,
) -> Result<Vec<f32>, OocError> {
    let me = ctx.rank();
    let p = ctx.nprocs();
    assert!(
        sched.is_valid_for(&sched.stamp.data, &sched.stamp.index, me, p),
        "gather_with: schedule inspected on a different rank or machine"
    );
    let data = &sched.stamp.data;
    let _m = ctx.trace_io_method(method.label());
    let _span = ctx.trace_span(ooc_trace::Category::Gather, "gather");

    // Serve phase: read what each peer wants and ship it (keep our own).
    let mut local_part: Vec<f32> = Vec::new();
    match method {
        IoMethod::Direct | IoMethod::Sieved => {
            for (j, runs) in sched.serve_runs.iter().enumerate() {
                if runs.is_empty() {
                    continue;
                }
                let mut vals = Vec::new();
                env.read_runs(data, runs, &mut vals, charge, method.sieve_policy())?;
                if j == me {
                    local_part = vals;
                } else {
                    ctx.send(j, IRREG_TAG, Payload::F32(vals));
                }
            }
        }
        IoMethod::TwoPhase => {
            // The union is already file-conforming, so it is never sieved.
            let plan = plan_union(&sched.serve_runs);
            let mut union = Vec::new();
            if plan.buffer_len() > 0 {
                env.read_runs(data, &plan.union, &mut union, charge, SievePolicy::Direct)?;
            }
            let sends: Vec<Vec<f32>> = (0..p).map(|j| plan.carve(j, &union)).collect();
            let mut received = {
                let _x = ctx.trace_span(ooc_trace::Category::Exchange, "exchange");
                ctx.try_alltoallv::<f32>(sends)?
            };
            // Receive-side assembly happens below from `got`; stash every
            // peer's payload now (the all-to-all already delivered them).
            let mut got: Vec<Vec<f32>> = Vec::with_capacity(p);
            for (j, payload) in received.iter_mut().enumerate() {
                assert_eq!(
                    payload.len(),
                    sched.want[j].len(),
                    "two-phase gather payload size from peer {j}"
                );
                got.push(std::mem::take(payload));
            }
            return Ok(assemble(sched, got));
        }
    }

    // Receive phase (direct/sieved): one message per peer we want from.
    let mut got: Vec<Vec<f32>> = vec![Vec::new(); p];
    got[me] = local_part;
    for (j, slot) in got.iter_mut().enumerate() {
        if j == me || sched.want[j].is_empty() {
            continue;
        }
        let vals = ctx.try_recv_f32(j, IRREG_TAG)?;
        assert_eq!(vals.len(), sched.want[j].len(), "gather payload size");
        *slot = vals;
    }
    Ok(assemble(sched, got))
}

/// Place every received slot at its output positions (entry order).
fn assemble(sched: &IrregSchedule, got: Vec<Vec<f32>>) -> Vec<f32> {
    sched
        .out_slot
        .iter()
        .map(|&(peer, slot)| got[peer as usize][slot as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{DimDist, DistKind, Distribution, ProcGrid};
    use crate::ocla::ArrayId;
    use crate::shape::Shape;
    use dmsim::{Machine, MachineConfig};
    use pario::{ElemKind, NoCharge};

    fn vec_dist(n: usize, p: usize) -> Distribution {
        Distribution::new(
            Shape::new(vec![n]),
            vec![DimDist::Distributed {
                kind: DistKind::Block,
                axis: 0,
            }],
            ProcGrid::line(p),
        )
    }

    fn descs(n: usize, nidx: usize, p: usize) -> (ArrayDesc, ArrayDesc) {
        let x = ArrayDesc::new(ArrayId(0), "x", ElemKind::F32, vec_dist(n, p));
        let idx = ArrayDesc::new(ArrayId(1), "idx", ElemKind::F32, vec_dist(nidx, p));
        (x, idx)
    }

    /// A scattered-but-deterministic index stream with repeats.
    fn index_value(g: usize, n: usize) -> usize {
        (g * 37 + (g / 3) * 11) % n
    }

    fn run_gather(n: usize, nidx: usize, p: usize, method: IoMethod) -> Vec<(usize, Vec<f32>)> {
        let (x, idx) = descs(n, nidx, p);
        let machine = Machine::new(MachineConfig::free(p));
        let outs = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let outs_c = std::sync::Arc::clone(&outs);
        machine.run(move |ctx| {
            let mut env = OocEnv::in_memory(ctx.rank());
            env.alloc(&x).unwrap();
            env.alloc(&idx).unwrap();
            env.load_global(&x, &|g: &[usize]| g[0] as f32 * 0.5)
                .unwrap();
            env.load_global(&idx, &|g: &[usize]| index_value(g[0], n) as f32)
                .unwrap();

            let sched = inspect(ctx, &mut env, &x, &idx, &NoCharge).unwrap();
            let out = gather_with(ctx, &mut env, &sched, method, &NoCharge).unwrap();
            outs_c.lock().unwrap().push((ctx.rank(), out));
        });
        let mut v = std::sync::Arc::try_unwrap(outs)
            .unwrap()
            .into_inner()
            .unwrap();
        v.sort_by_key(|(r, _)| *r);
        v
    }

    #[test]
    fn every_method_gathers_the_right_values() {
        let (n, nidx, p) = (48, 96, 3);
        for method in IoMethod::ALL {
            let outs = run_gather(n, nidx, p, method);
            for (rank, out) in &outs {
                let (_, idx) = descs(n, nidx, p);
                let local = idx.local_shape(*rank);
                assert_eq!(out.len(), local.extent(0), "{method:?}");
                for (k, v) in out.iter().enumerate() {
                    let g = crate::localize::local_to_global(&idx.dist, *rank, &[k]);
                    let want = index_value(g[0], n) as f32 * 0.5;
                    assert_eq!(*v, want, "{method:?} rank {rank} entry {k}");
                }
            }
        }
    }

    #[test]
    fn methods_agree_bitwise() {
        let (n, nidx, p) = (40, 80, 4);
        let direct = run_gather(n, nidx, p, IoMethod::Direct);
        for method in [IoMethod::Sieved, IoMethod::TwoPhase] {
            assert_eq!(run_gather(n, nidx, p, method), direct, "{method:?}");
        }
    }

    #[test]
    fn two_phase_issues_no_more_requests_than_direct() {
        let (n, nidx, p) = (64, 128, 4);
        let (x, idx) = descs(n, nidx, p);
        let machine = Machine::new(MachineConfig::free(p));
        machine.run(move |ctx| {
            let mut env = OocEnv::in_memory(ctx.rank());
            env.alloc(&x).unwrap();
            env.alloc(&idx).unwrap();
            env.load_global(&x, &|g: &[usize]| g[0] as f32).unwrap();
            env.load_global(&idx, &|g: &[usize]| index_value(g[0], n) as f32)
                .unwrap();
            let sched = inspect(ctx, &mut env, &x, &idx, &NoCharge).unwrap();
            let mut reads = |method| {
                let before = env.disk().stats();
                gather_with(ctx, &mut env, &sched, method, &NoCharge).unwrap();
                let after = env.disk().stats();
                (
                    after.read_requests - before.read_requests,
                    after.bytes_read - before.bytes_read,
                )
            };
            let (d_reqs, d_bytes) = reads(IoMethod::Direct);
            let (t_reqs, t_bytes) = reads(IoMethod::TwoPhase);
            assert!(t_reqs <= d_reqs);
            assert!(t_bytes <= d_bytes, "union never over-reads");
        });
    }

    #[test]
    fn schedule_reuse_skips_the_indirection_read() {
        let (n, nidx, p) = (32, 64, 2);
        let (x, idx) = descs(n, nidx, p);
        let machine = Machine::new(MachineConfig::free(p));
        machine.run(move |ctx| {
            let mut env = OocEnv::in_memory(ctx.rank());
            env.alloc(&x).unwrap();
            env.alloc(&idx).unwrap();
            env.load_global(&x, &|g: &[usize]| g[0] as f32).unwrap();
            env.load_global(&idx, &|g: &[usize]| index_value(g[0], n) as f32)
                .unwrap();
            let before = env.disk().stats().bytes_read;
            let sched = inspect(ctx, &mut env, &x, &idx, &NoCharge).unwrap();
            let inspected = env.disk().stats().bytes_read - before;
            assert!(sched.is_valid_for(&x, &idx, ctx.rank(), ctx.nprocs()));
            assert_eq!(
                inspected,
                sched.nout as u64 * 4,
                "inspector pays the indirection read"
            );

            // Reusing across iterations: the executor alone never touches
            // the indirection file, so both gathers read alike.
            let mut gather = || {
                let before = env.disk().stats().bytes_read;
                let out =
                    gather_with(ctx, &mut env, &sched, IoMethod::TwoPhase, &NoCharge).unwrap();
                (out, env.disk().stats().bytes_read - before)
            };
            let (a, a_bytes) = gather();
            let (b, b_bytes) = gather();
            assert_eq!(a, b);
            assert_eq!(a_bytes, b_bytes);

            // A different data distribution invalidates the stamp.
            let moved = ArrayDesc::new(
                ArrayId(0),
                "x",
                ElemKind::F32,
                Distribution::new(
                    Shape::new(vec![n]),
                    vec![DimDist::Distributed {
                        kind: DistKind::Cyclic,
                        axis: 0,
                    }],
                    ProcGrid::line(ctx.nprocs()),
                ),
            );
            assert!(!sched.is_valid_for(&moved, &idx, ctx.rank(), ctx.nprocs()));
        });
    }

    /// Rank 0's serialised schedule of `descs(16, 32, 2)`, pinned: schedules
    /// cached on disk by other builds must keep parsing (same hash, same
    /// digest).
    const GOLDEN: &str = "oochpf-irreg 1\n\
        data=x index=idx rank=0 nprocs=2 hash=16393428719305668808 \
        digest=8632607547962904211 nout=16\n\
        out_slot=0:0,0:4,1:2,1:2,1:5,0:3,0:3,1:1,1:4,1:4,0:2,1:0,1:0,1:3,0:1,0:1\n\
        want[0]=0,2,3,4,5\nwant[1]=0,1,2,5,6,7\n\
        serve_elems[0]=0,2,3,4,5\nserve_elems[1]=0,1,4,5,6,7\n\
        serve_runs[0]=0:4,8:16\nserve_runs[1]=0:8,16:16\n";

    #[test]
    fn tampered_schedule_blobs_are_typed_errors() {
        let (x, idx) = descs(16, 32, 2);
        let golden = IrregSchedule::from_bytes(&x, &idx, GOLDEN.as_bytes()).unwrap();
        assert_eq!(String::from_utf8(golden.to_bytes()).unwrap(), GOLDEN);
        for (from, to, why) in [
            // Counts the digest does not cover: each used to panic or
            // parse into a schedule the executor would index out of bounds.
            (
                "nprocs=2",
                "nprocs=18446744073709551615",
                "distributed over 2",
            ),
            (
                "serve_runs[0]=0:4,8:16",
                "serve_runs[0]=",
                "serve_runs[0] are not",
            ),
            ("rank=0", "rank=7", "rank 7 is not below"),
            (
                "out_slot=0:0,",
                "out_slot=9:999,",
                "out_slot 9:999 is outside",
            ),
            // One per structural check.
            ("nprocs=2", "nprocs=3", "spans 3 ranks"),
            (
                "want[0]=0,2,3,4,5",
                "want[0]=0,3,2,4,5",
                "want[0] is not strictly",
            ),
            (
                "want[1]=0,1,2,5,6,7",
                "want[1]=0,1,2,5,6,8",
                "element 8 of rank 1",
            ),
            (
                "serve_elems[1]=0,1,4,5,6,7",
                "serve_elems[1]=1,0,4,5,6,7",
                "serve_elems[1] is not strictly",
            ),
            (
                "serve_elems[0]=0,2,3,4,5",
                "serve_elems[0]=0,2,3,4,9",
                "element 9 of rank 0",
            ),
            ("out_slot=0:0,", "out_slot=0:5,", "outside the 5 elements"),
            // An output length that disagrees with the rank's 16 entries,
            // even with an out_slot list that agrees with it: the gather
            // would come back short and the SpMV drop products.
            (
                "nout=16\nout_slot=0:0,0:4,1:2,1:2,1:5,0:3,0:3,1:1,1:4,1:4,0:2,1:0,1:0,1:3,0:1,0:1\n",
                "nout=15\nout_slot=0:0,0:4,1:2,1:2,1:5,0:3,0:3,1:1,1:4,1:4,0:2,1:0,1:0,1:3,0:1\n",
                "nout 15 mismatches the 16 entries of `idx` on rank 0",
            ),
            (
                "nout=16\nout_slot=0:0,0:4,1:2,1:2,1:5,0:3,0:3,1:1,1:4,1:4,0:2,1:0,1:0,1:3,0:1,0:1\n",
                "nout=0\nout_slot=\n",
                "nout 0 mismatches the 16 entries",
            ),
            (
                "serve_runs[1]=0:8,16:16",
                "serve_runs[1]=0:4,4:4,16:16",
                "serve_runs[1] are not",
            ),
        ] {
            let tampered = GOLDEN.replace(from, to);
            assert_ne!(tampered, GOLDEN, "{from} not in the golden blob");
            let err = IrregSchedule::from_bytes(&x, &idx, tampered.as_bytes())
                .expect_err(&format!("`{to}` must be refused"));
            assert!(err.contains(why), "`{to}`: {err}");
        }
    }

    #[test]
    fn schedules_serialize_and_round_trip() {
        let (n, nidx, p) = (16, 32, 2);
        let (x, idx) = descs(n, nidx, p);
        let machine = Machine::new(MachineConfig::free(p));
        machine.run(move |ctx| {
            let mut env = OocEnv::in_memory(ctx.rank());
            env.alloc(&x).unwrap();
            env.alloc(&idx).unwrap();
            env.load_global(&x, &|g: &[usize]| g[0] as f32).unwrap();
            env.load_global(&idx, &|g: &[usize]| index_value(g[0], n) as f32)
                .unwrap();
            let sched = inspect(ctx, &mut env, &x, &idx, &NoCharge).unwrap();
            let bytes = sched.to_bytes();
            let back = IrregSchedule::from_bytes(&x, &idx, &bytes).unwrap();
            assert_eq!(back, sched);
            if ctx.rank() == 0 {
                assert_eq!(String::from_utf8(bytes.clone()).unwrap(), GOLDEN);
            }
            let flipped =
                GOLDEN.replace("digest=8632607547962904211", "digest=8632607547962904210");
            let err = IrregSchedule::from_bytes(&x, &idx, flipped.as_bytes()).unwrap_err();
            assert!(err.contains("changed"), "{err}");
            // A distribution change invalidates the cached bytes.
            let moved = ArrayDesc::new(
                ArrayId(0),
                "x",
                ElemKind::F32,
                Distribution::new(
                    Shape::new(vec![n]),
                    vec![DimDist::Distributed {
                        kind: DistKind::Cyclic,
                        axis: 0,
                    }],
                    ProcGrid::line(ctx.nprocs()),
                ),
            );
            let err = IrregSchedule::from_bytes(&moved, &idx, &bytes).unwrap_err();
            assert!(err.contains("changed"), "{err}");
        });
    }

    #[test]
    fn repeated_indices_collapse_to_one_wire_slot() {
        // Every entry points at element 0: one distinct target per rank's
        // want list, and the union charges its bytes once.
        let (n, nidx, p) = (16, 64, 2);
        let (x, idx) = descs(n, nidx, p);
        let machine = Machine::new(MachineConfig::free(p));
        machine.run(move |ctx| {
            let mut env = OocEnv::in_memory(ctx.rank());
            env.alloc(&x).unwrap();
            env.alloc(&idx).unwrap();
            env.load_global(&x, &|g: &[usize]| g[0] as f32 + 7.0)
                .unwrap();
            env.load_global(&idx, &|_: &[usize]| 0.0).unwrap();
            let sched = inspect(ctx, &mut env, &x, &idx, &NoCharge).unwrap();
            let owner_want: usize = sched.want.iter().map(Vec::len).sum();
            assert_eq!(owner_want, 1, "duplicates must dedup on the wire");
            let before = env.disk().stats().bytes_read;
            gather_with(ctx, &mut env, &sched, IoMethod::TwoPhase, &NoCharge).unwrap();
            let read = env.disk().stats().bytes_read - before;
            if ctx.rank() == 0 {
                assert_eq!(read, 4, "element 0 charged once");
            } else {
                assert_eq!(read, 0);
            }
            let out = gather_with(ctx, &mut env, &sched, IoMethod::Direct, &NoCharge).unwrap();
            assert!(out.iter().all(|v| *v == 7.0));
            assert_eq!(out.len(), nidx / p);
        });
    }
}
