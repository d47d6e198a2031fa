//! Execution tracing: the sequence of I/O operations a rank performs.
//!
//! The compiler's symbolic node program (Figures 9/12) is not just a cost
//! summary — it is an *operation sequence*. This module records the I/O
//! sequence the executor actually performs and flattens a [`NestNode`] tree
//! into its expected sequence, so tests can assert they match operation for
//! operation, not merely in total.

use std::cell::RefCell;

use dmsim::ProcCtx;
use ooc_core::ir::NestNode;
use pario::IoCharge;

/// One I/O operation as observed at the charge seam.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoOp {
    /// True for a read.
    pub read: bool,
    /// Contiguous requests issued.
    pub requests: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Array the operation serves, when the issuing layer hinted it (the
    /// OCLA runtime does; raw disk traffic has no array identity).
    pub array: Option<String>,
}

/// An [`IoCharge`] that forwards to the processor context *and* records the
/// operation sequence.
///
/// Every charge — including cache hits, write-backs, fault recovery and the
/// observability hints — reaches the context unchanged, so wrapping an
/// executor in a `TracingCharge` never perturbs the simulated time, the
/// stats, or the context's own event trace.
pub struct TracingCharge<'a> {
    ctx: &'a ProcCtx,
    events: RefCell<Vec<IoOp>>,
    array: RefCell<Option<String>>,
}

impl<'a> TracingCharge<'a> {
    /// Wrap `ctx`.
    pub fn new(ctx: &'a ProcCtx) -> Self {
        TracingCharge {
            ctx,
            events: RefCell::new(Vec::new()),
            array: RefCell::new(None),
        }
    }

    /// The recorded sequence.
    pub fn into_events(self) -> Vec<IoOp> {
        self.events.into_inner()
    }
}

impl IoCharge for TracingCharge<'_> {
    fn io_read(&self, requests: u64, bytes: u64) {
        self.ctx.charge_io_read(requests, bytes);
        self.events.borrow_mut().push(IoOp {
            read: true,
            requests,
            bytes,
            array: self.array.borrow().clone(),
        });
    }
    fn io_write(&self, requests: u64, bytes: u64) {
        self.ctx.charge_io_write(requests, bytes);
        self.events.borrow_mut().push(IoOp {
            read: false,
            requests,
            bytes,
            array: self.array.borrow().clone(),
        });
    }
    fn io_cache_hit(&self, runs: u64, bytes: u64) {
        self.ctx.charge_io_cache_hit(runs, bytes);
    }
    fn io_write_back(&self, requests: u64, bytes: u64) {
        self.ctx.charge_io_write_back(requests, bytes);
    }
    fn io_faults(&self, charges: &dmsim::FaultCharges) {
        self.ctx.charge_io_faults(charges);
    }
    fn io_array(&self, name: &str, file: u64) {
        *self.array.borrow_mut() = Some(name.to_string());
        IoCharge::io_array(self.ctx, name, file);
    }
    fn io_cache_level(&self, used_bytes: u64, dirty_bytes: u64) {
        IoCharge::io_cache_level(self.ctx, used_bytes, dirty_bytes);
    }
    fn io_sieve(&self, span_bytes: u64, useful_bytes: u64) {
        IoCharge::io_sieve(self.ctx, span_bytes, useful_bytes);
    }
}

/// Flatten a symbolic nest into its expected I/O sequence (loops unrolled;
/// element counts converted to bytes at `elem_size`).
///
/// Guard against huge nests with `limit`: flattening stops (returning
/// `None`) once the sequence exceeds it, so tests cannot accidentally
/// materialize a billion-op trace.
pub fn expected_io_sequence(
    nest: &[NestNode],
    elem_size: usize,
    limit: usize,
) -> Option<Vec<IoOp>> {
    let mut out = Vec::new();
    if walk(nest, elem_size, limit, &mut out) {
        Some(out)
    } else {
        None
    }
}

fn walk(nodes: &[NestNode], elem_size: usize, limit: usize, out: &mut Vec<IoOp>) -> bool {
    for n in nodes {
        match n {
            NestNode::Loop { trips, body, .. } => {
                for _ in 0..*trips {
                    if !walk(body, elem_size, limit, out) {
                        return false;
                    }
                }
            }
            NestNode::IfOwner { body, .. } | NestNode::Overlap { body, .. } => {
                if !walk(body, elem_size, limit, out) {
                    return false;
                }
            }
            NestNode::Io {
                array,
                read,
                requests,
                elems,
            } => {
                if out.len() >= limit {
                    return false;
                }
                out.push(IoOp {
                    read: *read,
                    requests: *requests,
                    bytes: elems * elem_size as u64,
                    array: Some(array.clone()),
                });
            }
            NestNode::Comm { .. } | NestNode::Compute { .. } => {}
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooc_core::ir::NestNode as N;

    fn op(read: bool, requests: u64, bytes: u64, array: &str) -> IoOp {
        IoOp {
            read,
            requests,
            bytes,
            array: Some(array.to_string()),
        }
    }

    #[test]
    fn flattening_unrolls_loops_in_order() {
        let nest = vec![
            N::read("b", 1, 10),
            N::loop_("l", 2, vec![N::read("a", 1, 5), N::write("c", 2, 5)]),
        ];
        let seq = expected_io_sequence(&nest, 4, 100).unwrap();
        assert_eq!(
            seq,
            vec![
                op(true, 1, 40, "b"),
                op(true, 1, 20, "a"),
                op(false, 2, 20, "c"),
                op(true, 1, 20, "a"),
                op(false, 2, 20, "c"),
            ]
        );
    }

    #[test]
    fn limit_prevents_explosion() {
        let nest = vec![N::loop_("big", 1_000_000, vec![N::read("a", 1, 1)])];
        assert!(expected_io_sequence(&nest, 4, 1000).is_none());
    }
}
