//! Access-pattern analysis (§4.1, Figure 14).
//!
//! "For each array used in the array assignment statement, for each
//! dimension of the out-of-core array: use index variables to analyze
//! access patterns; compute the I/O costs for stripmining using slabs along
//! this dimension." This module tabulates that analysis for the GAXPY
//! statement. The cost estimator ([`crate::cost`]) prices every candidate's
//! full loop nest, a GAXPY strategy or an elementwise slab dimension alike,
//! and [`crate::reorg::decide`] selects the cheapest.

use serde::{Deserialize, Serialize};

use crate::plan::SlabStrategy;

/// One row of the Figure 14 analysis: the I/O cost of stripmining one array
/// along one dimension.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig14Row {
    /// Array name.
    pub array: String,
    /// Dimension whose slabs are analyzed.
    pub dim: usize,
    /// The slab orientation this corresponds to for the GAXPY statement.
    pub strategy: SlabStrategy,
    /// `T_fetch`: read requests per processor (equations 3/5).
    pub t_fetch: u64,
    /// `T_data`: elements read per processor (equations 4/6).
    pub t_data: u64,
}

/// The paper's Figure 14 algorithm, instantiated for the GAXPY statement:
/// "for each array … for each dimension … compute the I/O costs for
/// stripmining using slabs along this dimension", then "determine which
/// array requires the largest amount of I/O" — always A here — and pick the
/// orientation that minimizes its cost. The returned rows are the analysis
/// table; selection itself happens in [`crate::reorg`].
pub fn fig14_table(
    estimates: &[(SlabStrategy, crate::cost::CostEstimate)],
    a_name: &str,
    b_name: &str,
) -> Vec<Fig14Row> {
    let mut rows = Vec::new();
    for (strategy, est) in estimates {
        // Stripmining A along dim 1 == column slabs; along dim 0 == row
        // slabs (Figure 11).
        let a_dim = match strategy {
            SlabStrategy::ColumnSlab => 1,
            SlabStrategy::RowSlab => 0,
        };
        rows.push(Fig14Row {
            array: a_name.to_string(),
            dim: a_dim,
            strategy: *strategy,
            t_fetch: est.fetches_of(a_name),
            t_data: est.data_of(a_name),
        });
        rows.push(Fig14Row {
            array: b_name.to_string(),
            dim: 1, // B is always sliced along its columns
            strategy: *strategy,
            t_fetch: est.fetches_of(b_name),
            t_data: est.data_of(b_name),
        });
    }
    rows
}

/// The array with the largest `T_data` across the analysis — the paper's
/// "array that requires the largest amount of I/O".
pub fn dominant_array(rows: &[Fig14Row]) -> Option<&str> {
    rows.iter()
        .max_by_key(|r| r.t_data)
        .map(|r| r.array.as_str())
}
