//! Symbolic node-program loop nests.
//!
//! The paper estimates I/O cost "by analyzing the node+MP+I/O program
//! generated by the out-of-core compiler" (§4.1). [`NestNode`] is that
//! program in symbolic form: a loop tree whose leaves are I/O calls,
//! communication calls and compute kernels, each annotated with its
//! per-execution cost. Walking the tree with trip-count multiplication
//! yields exactly the request/byte counts of equations (3)–(6); rendering it
//! produces the pseudo-code of Figures 9 and 12.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// One node of the symbolic node program (per-processor view).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NestNode {
    /// A counted loop; the body executes `trips` times per execution of the
    /// loop.
    Loop {
        /// Display label, e.g. `l = 1, k  (slabs of B)`.
        label: String,
        /// Trip count.
        trips: u64,
        /// Loop body.
        body: Vec<NestNode>,
    },
    /// A disk transfer of one slab / buffer.
    Io {
        /// Array being accessed (display name).
        array: String,
        /// True for a read, false for a write.
        read: bool,
        /// Requests per execution (contiguous runs).
        requests: u64,
        /// Elements moved per execution.
        elems: u64,
    },
    /// A communication step (collective or exchange), costs per processor.
    Comm {
        /// Display label, e.g. `global sum of temp`.
        label: String,
        /// Messages per processor per execution.
        messages: u64,
        /// Payload bytes per processor per execution.
        bytes: u64,
    },
    /// A compute kernel.
    Compute {
        /// Display label.
        label: String,
        /// Floating point operations per execution.
        flops: u64,
    },
    /// A guard executed by the owning processor only; contents still counted
    /// once per execution (the paper's experiments are owner-symmetric).
    IfOwner {
        /// Display label, e.g. `mynode owns column j`.
        label: String,
        /// Guarded body.
        body: Vec<NestNode>,
    },
    /// Prefetched reads: the reads of `body` are issued while `flops` of
    /// the preceding computation (counted where it is written) are still
    /// pending, so they take the longer of the two
    /// ([`dmsim::CostModel::overlapped_read_time`]) instead of their sum.
    Overlap {
        /// Flops of pending computation the reads overlap.
        flops: u64,
        /// The overlapped reads.
        body: Vec<NestNode>,
    },
}

impl NestNode {
    /// Convenience constructor for a loop.
    pub fn loop_(label: impl Into<String>, trips: u64, body: Vec<NestNode>) -> NestNode {
        NestNode::Loop {
            label: label.into(),
            trips,
            body,
        }
    }

    /// Convenience constructor for a read.
    pub fn read(array: impl Into<String>, requests: u64, elems: u64) -> NestNode {
        NestNode::Io {
            array: array.into(),
            read: true,
            requests,
            elems,
        }
    }

    /// Convenience constructor for a write.
    pub fn write(array: impl Into<String>, requests: u64, elems: u64) -> NestNode {
        NestNode::Io {
            array: array.into(),
            read: false,
            requests,
            elems,
        }
    }
}

/// Where a node program is emitted, one node at a time. A [`Vec<NestNode>`]
/// keeps the tree; [`crate::cost::NestPrice`] prices the same calls as they
/// come, without building anything. A generator written against this trait
/// builds its nest and prices it from one body.
pub trait NestSink {
    /// A disk transfer ([`NestNode::Io`]).
    fn io(&mut self, array: &str, read: bool, requests: u64, elems: u64);
    /// A communication step ([`NestNode::Comm`]), its label formatted only
    /// by a sink that keeps it.
    fn comm(&mut self, label: impl fmt::Display, messages: u64, bytes: u64);
    /// A compute kernel ([`NestNode::Compute`]).
    fn compute(&mut self, label: &str, flops: u64);
    /// A counted loop ([`NestNode::Loop`]) whose body `body` emits.
    fn loop_(&mut self, label: &str, trips: u64, body: impl FnOnce(&mut Self));
    /// An owner guard ([`NestNode::IfOwner`]) whose body `body` emits.
    fn if_owner(&mut self, label: &str, body: impl FnOnce(&mut Self));
    /// Prefetched reads ([`NestNode::Overlap`]) that `body` emits.
    fn overlap(&mut self, flops: u64, body: impl FnOnce(&mut Self));
}

impl NestSink for Vec<NestNode> {
    fn io(&mut self, array: &str, read: bool, requests: u64, elems: u64) {
        self.push(match read {
            true => NestNode::read(array, requests, elems),
            false => NestNode::write(array, requests, elems),
        });
    }

    fn comm(&mut self, label: impl fmt::Display, messages: u64, bytes: u64) {
        let label = label.to_string();
        self.push(NestNode::Comm {
            label,
            messages,
            bytes,
        });
    }

    fn compute(&mut self, label: &str, flops: u64) {
        let label = label.into();
        self.push(NestNode::Compute { label, flops });
    }

    fn loop_(&mut self, label: &str, trips: u64, body: impl FnOnce(&mut Self)) {
        self.push(NestNode::loop_(label, trips, nested(body)));
    }

    fn if_owner(&mut self, label: &str, body: impl FnOnce(&mut Self)) {
        let (label, body) = (label.into(), nested(body));
        self.push(NestNode::IfOwner { label, body });
    }

    fn overlap(&mut self, flops: u64, body: impl FnOnce(&mut Self)) {
        let body = nested(body);
        self.push(NestNode::Overlap { flops, body });
    }
}

/// The nodes `body` emits.
fn nested(body: impl FnOnce(&mut Vec<NestNode>)) -> Vec<NestNode> {
    let mut nodes = Vec::new();
    body(&mut nodes);
    nodes
}

/// Aggregate I/O totals for one array (per processor).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArrayIoTotals {
    /// Read requests — `T_fetch` of equations (3)/(5).
    pub read_requests: u64,
    /// Elements read — `T_data` of equations (4)/(6).
    pub read_elems: u64,
    /// Write requests.
    pub write_requests: u64,
    /// Elements written.
    pub write_elems: u64,
}

impl ArrayIoTotals {
    /// All requests.
    pub fn requests(&self) -> u64 {
        self.read_requests + self.write_requests
    }

    /// All elements.
    pub fn elems(&self) -> u64 {
        self.read_elems + self.write_elems
    }
}

/// One [`NestNode::Overlap`] as the estimator prices it: `requests`
/// requests moving `elems` elements overlapping `flops`, `times` times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OverlapTotals {
    /// Read requests of one execution.
    pub requests: u64,
    /// Elements read by one execution.
    pub elems: u64,
    /// Pending flops one execution overlaps.
    pub flops: u64,
    /// Executions.
    pub times: u64,
}

impl OverlapTotals {
    /// Modeled seconds the overlap hides under `model`: each execution
    /// takes the longer of its read and its computation instead of their
    /// sum.
    pub fn hidden_time(&self, model: &dmsim::CostModel, elem_size: u64) -> f64 {
        let bytes = self.elems * elem_size;
        let apart = model.io_time(self.requests, bytes) + model.compute_time(self.flops);
        let overlapped = model.overlapped_read_time(self.requests, bytes, self.flops);
        self.times as f64 * (apart - overlapped)
    }
}

/// Totals from walking a nest (per processor).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NestTotals {
    /// Per-array I/O totals, keyed by display name.
    pub per_array: BTreeMap<String, ArrayIoTotals>,
    /// Messages sent per processor.
    pub comm_messages: u64,
    /// Bytes sent per processor.
    pub comm_bytes: u64,
    /// Flops per processor.
    pub flops: u64,
    /// Every overlap of reads with pending computation, in nest order
    /// (its reads and flops are also in the totals above).
    pub overlaps: Vec<OverlapTotals>,
}

impl NestTotals {
    /// Total I/O requests over all arrays.
    pub fn io_requests(&self) -> u64 {
        self.per_array.values().map(|a| a.requests()).sum()
    }

    /// Total elements over all arrays.
    pub fn io_elems(&self) -> u64 {
        self.per_array.values().map(|a| a.elems()).sum()
    }
}

/// Walk a nest, multiplying costs by enclosing trip counts.
pub fn totals(nest: &[NestNode]) -> NestTotals {
    let mut t = NestTotals::default();
    walk(nest, 1, &mut t);
    t
}

fn walk(nodes: &[NestNode], mult: u64, t: &mut NestTotals) {
    for n in nodes {
        match n {
            NestNode::Loop { trips, body, .. } => walk(body, mult * trips, t),
            NestNode::IfOwner { body, .. } => walk(body, mult, t),
            NestNode::Overlap { flops, body } => {
                let once = totals(body);
                t.overlaps.push(OverlapTotals {
                    requests: once.per_array.values().map(|a| a.read_requests).sum(),
                    elems: once.per_array.values().map(|a| a.read_elems).sum(),
                    flops: *flops,
                    times: mult,
                });
                walk(body, mult, t);
            }
            NestNode::Io {
                array,
                read,
                requests,
                elems,
            } => {
                // The name is copied once per array, not once per node.
                if !t.per_array.contains_key(array) {
                    t.per_array.insert(array.clone(), ArrayIoTotals::default());
                }
                let e = t.per_array.get_mut(array).expect("inserted above");
                if *read {
                    e.read_requests += requests * mult;
                    e.read_elems += elems * mult;
                } else {
                    e.write_requests += requests * mult;
                    e.write_elems += elems * mult;
                }
            }
            NestNode::Comm {
                messages, bytes, ..
            } => {
                t.comm_messages += messages * mult;
                t.comm_bytes += bytes * mult;
            }
            NestNode::Compute { flops, .. } => {
                t.flops += flops * mult;
            }
        }
    }
}

/// Render a nest as indented pseudo-code in the style of Figures 9/12.
pub fn render(nest: &[NestNode]) -> String {
    let mut out = String::new();
    render_into(nest, 0, &mut out);
    out
}

fn render_into(nodes: &[NestNode], depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    for n in nodes {
        match n {
            NestNode::Loop { label, trips, body } => {
                out.push_str(&format!("{pad}do {label}   ! {trips} trips\n"));
                render_into(body, depth + 1, out);
                out.push_str(&format!("{pad}end do\n"));
            }
            NestNode::IfOwner { label, body } => {
                out.push_str(&format!("{pad}if ({label}) then\n"));
                render_into(body, depth + 1, out);
                out.push_str(&format!("{pad}end if\n"));
            }
            NestNode::Overlap { flops, body } => {
                out.push_str(&format!(
                    "{pad}prefetch   ! overlaps {flops} pending flops\n"
                ));
                render_into(body, depth + 1, out);
                out.push_str(&format!("{pad}end prefetch\n"));
            }
            NestNode::Io {
                array,
                read,
                requests,
                elems,
            } => {
                let verb = if *read { "read" } else { "write" };
                out.push_str(&format!(
                    "{pad}call {verb}_slab({array})   ! {requests} req, {elems} elems\n"
                ));
            }
            NestNode::Comm {
                label,
                messages,
                bytes,
            } => {
                out.push_str(&format!(
                    "{pad}call {label}   ! {messages} msgs, {bytes} bytes\n"
                ));
            }
            NestNode::Compute { label, flops } => {
                out.push_str(&format!("{pad}{label}   ! {flops} flops\n"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<NestNode> {
        vec![NestNode::loop_(
            "l = 1, 4",
            4,
            vec![
                NestNode::read("b", 1, 100),
                NestNode::loop_(
                    "m = 1, 8",
                    8,
                    vec![
                        NestNode::read("a", 1, 50),
                        NestNode::Compute {
                            label: "temp = temp + a*b".into(),
                            flops: 10,
                        },
                        NestNode::Comm {
                            label: "global_sum(temp)".into(),
                            messages: 2,
                            bytes: 64,
                        },
                    ],
                ),
                NestNode::IfOwner {
                    label: "mynode owns column".into(),
                    body: vec![NestNode::write("c", 1, 100)],
                },
            ],
        )]
    }

    #[test]
    fn totals_multiply_trip_counts() {
        let t = totals(&sample());
        assert_eq!(t.per_array["b"].read_requests, 4);
        assert_eq!(t.per_array["b"].read_elems, 400);
        assert_eq!(t.per_array["a"].read_requests, 32);
        assert_eq!(t.per_array["a"].read_elems, 1600);
        assert_eq!(t.per_array["c"].write_requests, 4);
        assert_eq!(t.comm_messages, 64);
        assert_eq!(t.comm_bytes, 2048);
        assert_eq!(t.flops, 320);
        assert_eq!(t.io_requests(), 4 + 32 + 4);
    }

    #[test]
    fn render_produces_fortran_like_text() {
        let s = render(&sample());
        assert!(s.contains("do l = 1, 4"));
        assert!(s.contains("call read_slab(a)"));
        assert!(s.contains("if (mynode owns column) then"));
        assert!(s.contains("call global_sum(temp)"));
        // Indentation: inner read is deeper than outer.
        let outer = s.lines().find(|l| l.contains("read_slab(b)")).unwrap();
        let inner = s.lines().find(|l| l.contains("read_slab(a)")).unwrap();
        assert!(
            inner.chars().take_while(|c| *c == ' ').count()
                > outer.chars().take_while(|c| *c == ' ').count()
        );
    }

    #[test]
    fn an_overlap_counts_its_reads_once_and_records_them() {
        let nest = vec![NestNode::loop_(
            "s = 2, 3",
            2,
            vec![
                NestNode::Overlap {
                    flops: 10,
                    body: vec![NestNode::read("a", 1, 50), NestNode::read("b", 2, 5)],
                },
                NestNode::Compute {
                    label: "k".into(),
                    flops: 10,
                },
            ],
        )];
        let t = totals(&nest);
        assert_eq!(t.per_array["a"].read_requests, 2);
        assert_eq!(t.per_array["b"].read_elems, 10);
        assert_eq!(t.flops, 20);
        let once = OverlapTotals {
            requests: 3,
            elems: 55,
            flops: 10,
            times: 2,
        };
        assert_eq!(t.overlaps, vec![once]);
        assert!(render(&nest).contains("prefetch   ! overlaps 10 pending flops"));
    }

    #[test]
    fn empty_nest_is_zero() {
        let t = totals(&[]);
        assert_eq!(t.io_requests(), 0);
        assert_eq!(t.flops, 0);
    }
}
