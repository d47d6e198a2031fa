//! Byte runs and request coalescing.
//!
//! A [`ByteRun`] is one contiguous extent of a file. Array-section accesses
//! produce lists of runs (one per contiguous piece of the section in the
//! file's linearization); [`coalesce_runs`] merges touching runs so the
//! request count charged to the cost model reflects what a real strided-I/O
//! runtime would issue.

use serde::{Deserialize, Serialize};

/// One contiguous byte extent of a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ByteRun {
    /// First byte of the run.
    pub offset: u64,
    /// Length in bytes; zero-length runs are dropped by coalescing.
    pub len: u64,
}

impl ByteRun {
    /// Construct a run. Panics when `offset + len` would overflow `u64` —
    /// no file has bytes past `u64::MAX`, so such a run is a caller bug
    /// caught at construction rather than a silent wraparound later.
    pub fn new(offset: u64, len: u64) -> Self {
        Self::try_new(offset, len)
            .unwrap_or_else(|| panic!("ByteRun overflows u64: offset {offset} + len {len}"))
    }

    /// Construct a run, returning `None` when `offset + len` overflows.
    pub fn try_new(offset: u64, len: u64) -> Option<Self> {
        offset.checked_add(len).map(|_| ByteRun { offset, len })
    }

    /// One past the last byte of the run.
    ///
    /// The fields are public, so a struct-literal run can still claim bytes
    /// past `u64::MAX`; `end` saturates there instead of wrapping, which
    /// keeps every comparison in [`coalesce_runs`] ordered correctly.
    pub fn end(&self) -> u64 {
        self.offset.saturating_add(self.len)
    }
}

/// Sort runs by offset and merge runs that touch or overlap.
///
/// The result is the minimal set of contiguous requests covering the same
/// bytes — the number the cost model counts as "I/O requests". Overlapping
/// runs are merged (reads may legitimately overlap; writers of overlapping
/// runs get last-writer-wins semantics *before* coalescing, so callers must
/// not pass overlapping write runs — debug builds assert this).
/// Never panics: runs whose `offset + len` would overflow (only possible via
/// struct-literal construction — [`ByteRun::new`] rejects them) are clamped
/// to the representable extent `[offset, u64::MAX)` before merging.
pub fn coalesce_runs(runs: &[ByteRun]) -> Vec<ByteRun> {
    let mut out = Vec::new();
    coalesce_runs_into(runs.iter().copied(), &mut out);
    out
}

/// [`coalesce_runs`] into a caller-owned buffer (its contents are
/// replaced), so a hot read path reuses one allocation.
pub fn coalesce_runs_into(runs: impl IntoIterator<Item = ByteRun>, out: &mut Vec<ByteRun>) {
    out.clear();
    out.extend(
        runs.into_iter()
            .map(|r| ByteRun {
                offset: r.offset,
                len: r.len.min(u64::MAX - r.offset),
            })
            .filter(|r| r.len > 0),
    );
    // Runs sharing an offset merge to the same extent in any order, so the
    // non-allocating unstable sort gives the same result as a stable one.
    out.sort_unstable_by_key(|r| r.offset);
    let mut kept = 0usize;
    for i in 0..out.len() {
        let run = out[i];
        match kept.checked_sub(1).map(|k| &mut out[k]) {
            Some(last) if run.offset <= last.end() => {
                let new_end = last.end().max(run.end());
                last.len = new_end - last.offset;
            }
            _ => {
                out[kept] = run;
                kept += 1;
            }
        }
    }
    out.truncate(kept);
}

/// Total bytes covered by a set of runs (before coalescing; duplicates count
/// once per run, matching the "data moved" metric for repeated fetches).
/// Saturates at `u64::MAX` rather than wrapping on adversarial inputs.
pub fn total_bytes(runs: &[ByteRun]) -> u64 {
    runs.iter().fold(0u64, |acc, r| acc.saturating_add(r.len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesce_merges_adjacent() {
        let runs = [
            ByteRun::new(0, 10),
            ByteRun::new(10, 10),
            ByteRun::new(30, 5),
        ];
        let out = coalesce_runs(&runs);
        assert_eq!(out, vec![ByteRun::new(0, 20), ByteRun::new(30, 5)]);
    }

    #[test]
    fn coalesce_sorts_first() {
        let runs = [ByteRun::new(20, 4), ByteRun::new(0, 4), ByteRun::new(4, 4)];
        let out = coalesce_runs(&runs);
        assert_eq!(out, vec![ByteRun::new(0, 8), ByteRun::new(20, 4)]);
    }

    #[test]
    fn coalesce_merges_overlap() {
        let runs = [ByteRun::new(0, 10), ByteRun::new(5, 10)];
        let out = coalesce_runs(&runs);
        assert_eq!(out, vec![ByteRun::new(0, 15)]);
    }

    #[test]
    fn coalesce_drops_empty_runs() {
        let runs = [ByteRun::new(5, 0), ByteRun::new(1, 2)];
        let out = coalesce_runs(&runs);
        assert_eq!(out, vec![ByteRun::new(1, 2)]);
    }

    #[test]
    fn total_bytes_sums_every_run() {
        let runs = [ByteRun::new(0, 10), ByteRun::new(0, 10)];
        assert_eq!(total_bytes(&runs), 20);
    }

    #[test]
    fn end_is_exclusive() {
        assert_eq!(ByteRun::new(4, 6).end(), 10);
    }

    #[test]
    #[should_panic(expected = "ByteRun overflows u64")]
    fn construction_rejects_offset_len_overflow() {
        let _ = ByteRun::new(u64::MAX - 5, 100);
    }

    #[test]
    fn try_new_reports_overflow() {
        assert!(ByteRun::try_new(u64::MAX, 1).is_none());
        assert_eq!(
            ByteRun::try_new(u64::MAX - 1, 1),
            Some(ByteRun::new(u64::MAX - 1, 1))
        );
    }

    #[test]
    fn adversarial_literal_runs_never_panic() {
        // Regression: `offset + len` used to wrap, making `end()` tiny and
        // the merge loop underflow. Struct literals bypass `new`'s check,
        // so coalescing must clamp instead of trusting the fields.
        let evil = ByteRun {
            offset: u64::MAX - 5,
            len: 100,
        };
        assert_eq!(evil.end(), u64::MAX);
        let out = coalesce_runs(&[evil, ByteRun::new(0, 8), evil]);
        assert_eq!(out, vec![ByteRun::new(0, 8), ByteRun::new(u64::MAX - 5, 5)]);
        assert_eq!(
            total_bytes(&[
                evil,
                evil,
                ByteRun {
                    offset: 0,
                    len: u64::MAX
                }
            ]),
            u64::MAX
        );
    }
}
