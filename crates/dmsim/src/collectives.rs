//! Collective operations built from point-to-point messages.
//!
//! The paper's generated node programs use exactly one collective — the
//! global sum that combines partial GAXPY results (Figures 9 & 12) — plus
//! implicit barriers. We implement the standard binomial-tree algorithms of
//! the era, so collective *costs* emerge from the same latency/bandwidth
//! model as ordinary messages: a reduction of `m` bytes on `P` processors
//! costs `O(log P)` message times plus the combine flops.
//!
//! All collectives are methods on [`ProcCtx`] and must be called by every
//! rank (they are synchronizing).

use crate::comm::{Payload, ProtocolError, RecvError, Tag};
use crate::proc::{ProcCtx, Rank};

/// A communication step failed: either the peer is gone or the payloads
/// disagree with the protocol. Collective `try_*` methods return this so
/// executors can unwind cleanly instead of panicking the whole machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// The receive itself failed (peer exited without sending).
    Recv(RecvError),
    /// A payload arrived with the wrong variant.
    Protocol(ProtocolError),
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Recv(e) => e.fmt(f),
            CommError::Protocol(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for CommError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CommError::Recv(e) => Some(e),
            CommError::Protocol(e) => Some(e),
        }
    }
}

impl From<RecvError> for CommError {
    fn from(e: RecvError) -> Self {
        CommError::Recv(e)
    }
}

impl From<ProtocolError> for CommError {
    fn from(e: ProtocolError) -> Self {
        CommError::Protocol(e)
    }
}

/// Reduction operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Element-wise sum (the paper's global sum intrinsic).
    Sum,
    /// Element-wise maximum.
    Max,
    /// Element-wise minimum.
    Min,
}

/// Element types that can travel through collectives.
pub trait CommElem: Copy + PartialOrd + std::ops::Add<Output = Self> {
    /// Wrap a vector of elements into a [`Payload`].
    fn wrap(v: Vec<Self>) -> Payload;
    /// Unwrap a payload into a vector of elements, surfacing a mismatch.
    fn try_unwrap(p: Payload) -> Result<Vec<Self>, ProtocolError>;
    /// Unwrap a payload; panics with a protocol error on mismatch.
    fn unwrap(p: Payload) -> Vec<Self> {
        Self::try_unwrap(p).unwrap_or_else(|e| panic!("{e}"))
    }
}

impl CommElem for f32 {
    fn wrap(v: Vec<Self>) -> Payload {
        Payload::F32(v)
    }
    fn try_unwrap(p: Payload) -> Result<Vec<Self>, ProtocolError> {
        p.try_into_f32()
    }
}

impl CommElem for f64 {
    fn wrap(v: Vec<Self>) -> Payload {
        Payload::F64(v)
    }
    fn try_unwrap(p: Payload) -> Result<Vec<Self>, ProtocolError> {
        p.try_into_f64()
    }
}

impl CommElem for u64 {
    fn wrap(v: Vec<Self>) -> Payload {
        Payload::U64(v)
    }
    fn try_unwrap(p: Payload) -> Result<Vec<Self>, ProtocolError> {
        p.try_into_u64()
    }
}

fn combine<T: CommElem>(acc: &mut [T], other: &[T], op: ReduceOp) {
    assert_eq!(
        acc.len(),
        other.len(),
        "collective called with mismatched lengths"
    );
    for (a, &b) in acc.iter_mut().zip(other) {
        *a = match op {
            ReduceOp::Sum => *a + b,
            ReduceOp::Max => {
                if b > *a {
                    b
                } else {
                    *a
                }
            }
            ReduceOp::Min => {
                if b < *a {
                    b
                } else {
                    *a
                }
            }
        };
    }
}

/// Parent of `rank` in the binomial tree rooted at 0: the rank with its
/// highest set bit cleared. Rank 0 has no parent.
fn parent(rank: Rank) -> Option<Rank> {
    if rank == 0 {
        None
    } else {
        let high = 1usize << (usize::BITS - 1 - rank.leading_zeros());
        Some(rank ^ high)
    }
}

/// Children of `rank` in the binomial tree rooted at 0, in increasing order.
fn children(rank: Rank, nprocs: usize) -> impl Iterator<Item = Rank> {
    let start_bit = match parent(rank) {
        None => 1,
        Some(par) => (rank ^ par) << 1,
    };
    std::iter::successors(Some(start_bit), |bit| bit.checked_mul(2))
        .map_while(move |bit| rank.checked_add(bit).filter(|&kid| kid < nprocs))
}

impl ProcCtx {
    fn comm_panic<T>(&self, r: Result<T, CommError>) -> T {
        r.unwrap_or_else(|e| panic!("rank {}: {e}", self.rank()))
    }

    /// Reduce `data` element-wise to rank `root` with operator `op`.
    /// Returns `Ok(Some(result))` on the root, `Ok(None)` elsewhere; a dead
    /// peer or protocol mismatch surfaces as [`CommError`].
    pub fn try_reduce<T: CommElem>(
        &self,
        data: &[T],
        op: ReduceOp,
        root: Rank,
    ) -> Result<Option<Vec<T>>, CommError> {
        assert!(root < self.nprocs(), "reduce root out of range");
        let _span = self.trace_span(ooc_trace::Category::Collective, "reduce");
        // Run the tree rooted at 0 in a rotated rank space so any root works.
        let p = self.nprocs();
        let vrank = (self.rank() + p - root) % p;
        let unrotate = |v: Rank| (v + root) % p;

        let mut acc = data.to_vec();
        // Receive from children (deepest subtree last for pipelining).
        for child in children(vrank, p) {
            let payload = self.recv(unrotate(child), Tag::COLLECTIVE)?;
            let theirs = T::try_unwrap(payload)?;
            combine(&mut acc, &theirs, op);
            self.charge_flops(acc.len() as u64);
        }
        match parent(vrank) {
            None => Ok(Some(acc)),
            Some(par) => {
                self.send(unrotate(par), Tag::COLLECTIVE, T::wrap(acc));
                Ok(None)
            }
        }
    }

    /// Reduce `data` element-wise to rank `root` with operator `op`.
    /// Returns `Some(result)` on the root, `None` elsewhere. Panics on a
    /// dead peer — use [`ProcCtx::try_reduce`] on recoverable paths.
    pub fn reduce<T: CommElem>(&self, data: &[T], op: ReduceOp, root: Rank) -> Option<Vec<T>> {
        let r = self.try_reduce(data, op, root);
        self.comm_panic(r)
    }

    /// Broadcast `data` from `root` to all ranks; every rank returns the
    /// root's vector (non-root input is ignored). Errors surface instead of
    /// panicking.
    pub fn try_broadcast<T: CommElem>(
        &self,
        data: Vec<T>,
        root: Rank,
    ) -> Result<Vec<T>, CommError> {
        assert!(root < self.nprocs(), "broadcast root out of range");
        let _span = self.trace_span(ooc_trace::Category::Collective, "broadcast");
        let p = self.nprocs();
        let vrank = (self.rank() + p - root) % p;
        let unrotate = |v: Rank| (v + root) % p;

        let buf = match parent(vrank) {
            None => data,
            Some(par) => T::try_unwrap(self.recv(unrotate(par), Tag::COLLECTIVE)?)?,
        };
        for child in children(vrank, p) {
            self.send(unrotate(child), Tag::COLLECTIVE, T::wrap(buf.clone()));
        }
        Ok(buf)
    }

    /// Broadcast `data` from `root` to all ranks; every rank returns the
    /// root's vector. Non-root ranks pass their (ignored) local buffer length
    /// via `data` being empty or anything — only the root's data matters.
    pub fn broadcast<T: CommElem>(&self, data: Vec<T>, root: Rank) -> Vec<T> {
        let r = self.try_broadcast(data, root);
        self.comm_panic(r)
    }

    /// All-reduce with surfaced errors: reduce to rank 0 then broadcast.
    pub fn try_allreduce<T: CommElem>(
        &self,
        data: &[T],
        op: ReduceOp,
    ) -> Result<Vec<T>, CommError> {
        let _span = self.trace_span(ooc_trace::Category::Collective, "allreduce");
        match self.try_reduce(data, op, 0)? {
            Some(total) => self.try_broadcast(total, 0),
            None => self.try_broadcast(Vec::new(), 0),
        }
    }

    /// All-reduce: reduce to rank 0 then broadcast; every rank returns the
    /// combined vector.
    pub fn allreduce<T: CommElem>(&self, data: &[T], op: ReduceOp) -> Vec<T> {
        let r = self.try_allreduce(data, op);
        self.comm_panic(r)
    }

    /// Global sum of `f32` data to `root` — the paper's reduction. Returns
    /// the sum on the root, `None` elsewhere.
    pub fn global_sum_f32(&self, data: &[f32], root: Rank) -> Option<Vec<f32>> {
        self.reduce(data, ReduceOp::Sum, root)
    }

    /// All-ranks global sum of `f64` data.
    pub fn allreduce_sum_f64(&self, data: &[f64]) -> Vec<f64> {
        self.allreduce(data, ReduceOp::Sum)
    }

    /// Barrier with surfaced errors: a zero-payload reduce + broadcast.
    pub fn try_barrier(&self) -> Result<(), CommError> {
        let _span = self.trace_span(ooc_trace::Category::Collective, "barrier");
        let token = [0u64; 0];
        self.try_allreduce(&token, ReduceOp::Sum).map(|_| ())
    }

    /// Barrier: a zero-payload reduce + broadcast. After it returns, every
    /// rank's clock is at least the maximum pre-barrier clock plus the tree
    /// traversal cost.
    pub fn barrier(&self) {
        let r = self.try_barrier();
        self.comm_panic(r)
    }

    /// Gather with surfaced errors; `Ok(Some(concatenation))` on the root.
    pub fn try_gather<T: CommElem>(
        &self,
        data: &[T],
        root: Rank,
    ) -> Result<Option<Vec<T>>, CommError> {
        let _span = self.trace_span(ooc_trace::Category::Collective, "gather");
        if self.rank() == root {
            let mut out = Vec::new();
            for r in 0..self.nprocs() {
                if r == root {
                    out.extend_from_slice(data);
                } else {
                    let theirs = T::try_unwrap(self.recv(r, Tag::COLLECTIVE)?)?;
                    out.extend(theirs);
                }
            }
            Ok(Some(out))
        } else {
            self.send(root, Tag::COLLECTIVE, T::wrap(data.to_vec()));
            Ok(None)
        }
    }

    /// Gather each rank's `data` to `root`, concatenated in rank order.
    /// Returns `Some(concatenation)` on the root, `None` elsewhere.
    ///
    /// Linear algorithm (each rank sends straight to the root), matching the
    /// era's NX `gcolx`.
    pub fn gather<T: CommElem>(&self, data: &[T], root: Rank) -> Option<Vec<T>> {
        let r = self.try_gather(data, root);
        self.comm_panic(r)
    }

    /// Scatter with surfaced errors; returns this rank's chunk.
    pub fn try_scatter<T: CommElem>(&self, data: Vec<T>, root: Rank) -> Result<Vec<T>, CommError> {
        let _span = self.trace_span(ooc_trace::Category::Collective, "scatter");
        if self.rank() == root {
            let p = self.nprocs();
            assert!(
                data.len().is_multiple_of(p),
                "scatter: length {} not divisible by {p}",
                data.len()
            );
            let chunk = data.len() / p;
            let mut mine = Vec::new();
            for r in 0..p {
                let piece = data[r * chunk..(r + 1) * chunk].to_vec();
                if r == root {
                    mine = piece;
                } else {
                    self.send(r, Tag::COLLECTIVE, T::wrap(piece));
                }
            }
            Ok(mine)
        } else {
            Ok(T::try_unwrap(self.recv(root, Tag::COLLECTIVE)?)?)
        }
    }

    /// Scatter equal-length chunks of `data` (present on `root`) to all
    /// ranks; returns this rank's chunk. `data.len()` must be divisible by
    /// the processor count on the root.
    pub fn scatter<T: CommElem>(&self, data: Vec<T>, root: Rank) -> Vec<T> {
        let r = self.try_scatter(data, root);
        self.comm_panic(r)
    }

    /// Variable all-to-all with surfaced errors: rank `i` delivers
    /// `sends[j]` to rank `j` and returns the vector of received buffers
    /// indexed by source rank (`out[i]` is this rank's own `sends[rank]`,
    /// moved, not copied through the fabric).
    ///
    /// `sends.len()` must equal the processor count on every rank. The
    /// pairwise algorithm is deterministic: every rank first posts its sends
    /// in increasing peer order (sends never block), then receives in
    /// increasing peer order. Empty buffers are still exchanged so the
    /// operation synchronizes all ranks like the era's `crystal_router`.
    pub fn try_alltoallv<T: CommElem>(
        &self,
        mut sends: Vec<Vec<T>>,
    ) -> Result<Vec<Vec<T>>, CommError> {
        let p = self.nprocs();
        assert_eq!(sends.len(), p, "alltoallv needs one send buffer per rank");
        let _span = self.trace_span(ooc_trace::Category::Collective, "alltoallv");
        let me = self.rank();
        let mut mine = Some(std::mem::take(&mut sends[me]));
        for (peer, buf) in sends.into_iter().enumerate() {
            if peer != me {
                self.send(peer, Tag::COLLECTIVE, T::wrap(buf));
            }
        }
        let mut out = Vec::with_capacity(p);
        for peer in 0..p {
            if peer == me {
                out.push(mine.take().expect("own buffer taken once"));
            } else {
                out.push(T::try_unwrap(self.recv(peer, Tag::COLLECTIVE)?)?);
            }
        }
        Ok(out)
    }

    /// Variable all-to-all; panics on a dead peer or protocol mismatch —
    /// use [`ProcCtx::try_alltoallv`] on recoverable paths.
    pub fn alltoallv<T: CommElem>(&self, sends: Vec<Vec<T>>) -> Vec<Vec<T>> {
        let r = self.try_alltoallv(sends);
        self.comm_panic(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_parent_child_are_inverse() {
        for p in 1..40usize {
            for r in 1..p {
                let par = parent(r).unwrap();
                assert!(par < r, "parent({r}) = {par} not smaller");
                assert!(
                    children(par, p).any(|kid| kid == r),
                    "rank {r} missing from children of {par} (p={p})"
                );
            }
            // Every rank is reachable exactly once: count tree edges.
            let edges: usize = (0..p).map(|r| children(r, p).count()).sum();
            assert_eq!(edges, p - 1, "p={p}");
        }
    }

    #[test]
    fn rank_zero_has_no_parent() {
        assert_eq!(parent(0), None);
        assert_eq!(parent(1), Some(0));
        assert_eq!(parent(6), Some(2));
        assert_eq!(parent(7), Some(3));
    }

    #[test]
    fn combine_ops() {
        let mut acc = vec![1.0f64, 5.0, 3.0];
        combine(&mut acc, &[2.0, 2.0, 2.0], ReduceOp::Sum);
        assert_eq!(acc, vec![3.0, 7.0, 5.0]);
        combine(&mut acc, &[10.0, 0.0, 5.0], ReduceOp::Max);
        assert_eq!(acc, vec![10.0, 7.0, 5.0]);
        combine(&mut acc, &[1.0, 100.0, 2.0], ReduceOp::Min);
        assert_eq!(acc, vec![1.0, 7.0, 2.0]);
    }
}
