//! Order statistics, bound comparison and the FNV digest the ledger uses.

/// Nearest-rank percentile of an ascending-sorted slice (`q` in `(0, 1]`).
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `samples` (mean of the middle pair on an even count).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The fastest time seen of every lap of a lap list that is timed over and
/// over. Another tenant of a shared host only ever adds to a lap's time, so
/// the fastest of K timings is the one least disturbed, and the sum over the
/// laps is a sweep as the code alone would run it. It moves with the code and
/// hardly with the host's load, where a median of whole sweeps follows the
/// load of the minute it was taken in.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LapFloor(Vec<f64>);

impl LapFloor {
    /// Fold in the laps of one more sweep that took `wall` seconds; what the
    /// laps leave uncovered of `wall` counts as one more lap.
    pub fn fold(&mut self, laps: &[f64], wall: f64) {
        let rest = (wall - laps.iter().sum::<f64>()).max(0.0);
        let laps: Vec<f64> = laps.iter().copied().chain([rest]).collect();
        if self.0.is_empty() {
            self.0 = laps;
        } else {
            assert_eq!(self.0.len(), laps.len(), "the lap list is fixed");
            for (floor, lap) in self.0.iter_mut().zip(laps) {
                *floor = floor.min(lap);
            }
        }
    }

    /// The sweep made of every lap's fastest time, seconds.
    pub fn total(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Every lap's fastest time, the uncovered rest last.
    pub fn laps(&self) -> &[f64] {
        &self.0
    }
}

/// A tail percentile with the sample count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, e.g. `0.99`.
    pub q: f64,
    /// Its nearest-rank value.
    pub value: f64,
    /// Samples it was taken over.
    pub samples: usize,
}

/// The highest of p99.9 / p99 / p95 / p90 / p75 that still has at least ten
/// samples beyond it, by nearest rank. `None` when even p75 has fewer (the
/// caller then reports the median only).
pub fn highest_tail(samples: &[f64]) -> Option<Tail> {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let n = s.len();
    [0.999, 0.99, 0.95, 0.90, 0.75].into_iter().find_map(|q| {
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
        (n >= rank + 10).then(|| Tail {
            q,
            value: s[rank - 1],
            samples: n,
        })
    })
}

/// How far a lower-is-better metric may worsen before it is a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Simulated quantity: must repeat exactly.
    Exact,
    /// Host quantity: `new <= old * (1 + rel)`, or within `abs` when the
    /// absolute slack is the larger allowance.
    Relative { rel: f64, abs: f64 },
}

impl Bound {
    /// Whether `new` stays within the bound of `old`.
    pub fn holds(self, old: f64, new: f64) -> bool {
        match self {
            Bound::Exact => old.to_bits() == new.to_bits(),
            Bound::Relative { rel, abs } => new <= (old * (1.0 + rel)).max(old + abs),
        }
    }

    /// Whether two runs of the same code agree: neither is worse than the
    /// other by more than the bound.
    pub fn agree(self, a: f64, b: f64) -> bool {
        self.holds(a, b) && self.holds(b, a)
    }
}

/// 64-bit FNV-1a, fed incrementally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= *b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn f32s(&mut self, vals: &[f32]) {
        for v in vals {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}

/// Digest of a result array.
pub fn fnv_f32(vals: &[f32]) -> u64 {
    let mut h = Fnv::default();
    h.f32s(vals);
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lap_floor_keeps_each_laps_fastest_time_and_the_uncovered_rest() {
        let mut floor = LapFloor::default();
        // 0.5 s of the first sweep is outside its laps.
        floor.fold(&[1.0, 4.0, 2.0], 7.5);
        assert_eq!(floor.total(), 7.5);
        floor.fold(&[3.0, 1.0, 2.5], 6.5);
        // min(1, 3) + min(4, 1) + min(2, 2.5) + min(0.5, 0).
        assert_eq!(floor.total(), 4.0);
        // A sweep slower in every lap changes nothing.
        floor.fold(&[9.0, 9.0, 9.0], 30.0);
        assert_eq!(floor.total(), 4.0);
        // Clock jitter cannot make the rest negative.
        floor.fold(&[9.0, 9.0, 9.0], 26.9);
        assert_eq!(floor.total(), 4.0);
    }

    #[test]
    #[should_panic(expected = "the lap list is fixed")]
    fn lap_floor_refuses_a_sweep_with_other_laps() {
        let mut floor = LapFloor::default();
        floor.fold(&[1.0, 2.0], 3.0);
        floor.fold(&[1.0], 3.0);
    }

    #[test]
    fn nearest_rank_matches_the_textbook_rule() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 0.5), 5.0);
        assert_eq!(nearest_rank(&s, 0.9), 9.0);
        assert_eq!(nearest_rank(&s, 0.91), 10.0);
        assert_eq!(nearest_rank(&s, 1.0), 10.0);
        assert_eq!(nearest_rank(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn highest_tail_keeps_ten_samples_beyond_it() {
        // 20 000 samples: p99.9 has rank 19 980, 20 beyond it.
        let s: Vec<f64> = (0..20_000).map(f64::from).collect();
        let t = highest_tail(&s).unwrap();
        assert_eq!((t.q, t.samples), (0.999, 20_000));
        assert_eq!(t.value, 19_979.0);
        // 1000 samples: p99.9 leaves 1 beyond, p99 leaves exactly 10.
        let s: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(highest_tail(&s).unwrap().q, 0.99);
        // 999 samples: p99 has rank 990, 9 beyond — falls back to p95.
        let s: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(highest_tail(&s).unwrap().q, 0.95);
        // 40 samples: p75 has rank 30, exactly 10 beyond.
        let s: Vec<f64> = (0..40).map(f64::from).collect();
        assert_eq!(highest_tail(&s).unwrap().q, 0.75);
        // 39 samples: nothing qualifies.
        let s: Vec<f64> = (0..39).map(f64::from).collect();
        assert_eq!(highest_tail(&s), None);
    }

    #[test]
    fn exact_bound_is_bitwise() {
        assert!(Bound::Exact.holds(1.5, 1.5));
        assert!(!Bound::Exact.holds(1.5, 1.5000000000000002));
        assert!(Bound::Exact.holds(0.0, 0.0));
    }

    #[test]
    fn relative_bound_allows_the_larger_of_share_and_slack() {
        let b = Bound::Relative { rel: 0.2, abs: 0.2 };
        // 20% of 10 s is 2 s: the share is the larger allowance.
        assert!(b.holds(10.0, 12.0));
        assert!(!b.holds(10.0, 12.1));
        // 20% of 0.1 s is 0.02 s: the absolute slack takes over.
        assert!(b.holds(0.1, 0.3));
        assert!(!b.holds(0.1, 0.31));
        // Getting better is never a regression; agreement is two-sided.
        let b = Bound::Relative { rel: 0.1, abs: 0.0 };
        assert!(b.holds(10.0, 1.0));
        assert!(!b.agree(10.0, 1.0));
        assert!(b.agree(10.0, 10.9));
    }

    #[test]
    fn fnv_is_order_sensitive() {
        assert_ne!(fnv_f32(&[1.0, 2.0]), fnv_f32(&[2.0, 1.0]));
        assert_eq!(fnv_f32(&[]), 0xcbf2_9ce4_8422_2325);
    }
}
