//! Latency samples, the percentile reporting rule and failure accounting.

use std::time::Duration;

/// Durations below this many nanoseconds land in exact 1 ns buckets, so
/// the millions of KV samples a run takes cost constant memory; slower
/// operations (membership changes) are kept as a plain list.
const FINE_NS: usize = 1 << 16;

/// Tail percentiles a timing may be reported at, highest first.
const TAIL_GRID: [f64; 4] = [0.9999, 0.999, 0.99, 0.9];

/// The smallest number of samples that must lie beyond a reported tail
/// percentile.
pub const MIN_BEYOND: u64 = 10;

/// Samples that lie strictly beyond the `q` quantile of `n` samples.
pub fn beyond(n: u64, q: f64) -> u64 {
    ((n as f64) * (1.0 - q) + 1e-9).floor() as u64
}

/// `true` when `n` samples support reporting the `q` quantile: the median
/// needs one sample, a tail needs [`MIN_BEYOND`] samples beyond it.
pub fn supports(n: u64, q: f64) -> bool {
    if q <= 0.5 {
        n > 0
    } else {
        beyond(n, q) >= MIN_BEYOND
    }
}

/// The highest percentile on the grid with at least [`MIN_BEYOND`]
/// samples beyond it, if any.
pub fn tail_quantile(n: u64) -> Option<f64> {
    TAIL_GRID.iter().copied().find(|&q| supports(n, q))
}

/// An exact latency distribution in integer nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Hist {
    /// Counts per nanosecond below [`FINE_NS`]; allocated on first use.
    fine: Vec<u32>,
    /// Samples at or above [`FINE_NS`], sorted lazily.
    over: Vec<u64>,
    sorted: bool,
    n: u64,
}

impl Hist {
    pub fn record(&mut self, d: Duration) {
        self.record_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    pub fn record_ns(&mut self, ns: u64) {
        self.n += 1;
        if (ns as usize) < FINE_NS {
            if self.fine.is_empty() {
                self.fine = vec![0; FINE_NS];
            }
            self.fine[ns as usize] += 1;
        } else {
            self.over.push(ns);
            self.sorted = false;
        }
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    /// The `k`-th smallest sample (0-based).
    fn nth(&mut self, k: u64) -> u64 {
        let mut seen = 0u64;
        for (ns, &c) in self.fine.iter().enumerate() {
            seen += u64::from(c);
            if seen > k {
                return ns as u64;
            }
        }
        if !self.sorted {
            self.over.sort_unstable();
            self.sorted = true;
        }
        self.over[(k - seen) as usize]
    }

    /// The `q` quantile in nanoseconds, interpolated linearly between
    /// order statistics; 0 when empty.
    pub fn quantile_ns(&mut self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let pos = q * (self.n - 1) as f64;
        let lo = pos.floor() as u64;
        let hi = pos.ceil() as u64;
        let (a, b) = (self.nth(lo) as f64, self.nth(hi) as f64);
        a + (pos - lo as f64) * (b - a)
    }
}

/// The `q` quantile of unsorted samples, interpolated linearly; 0 when
/// empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (pos - lo as f64) * (v[hi] - v[lo])
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Operations attempted against the system and how many failed. A
/// failed end-of-run check counts as one failed operation, so a run is
/// correct exactly when nothing failed.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// A description of each failure, for the report.
    pub errors: Vec<String>,
}

impl Tally {
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// A batch of `n` operations of which `bad` failed.
    pub fn ops(&mut self, n: u64, bad: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        if bad > 0 {
            self.failed += bad - 1;
            self.fail(what());
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(what);
        }
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            if self.failed == 0 {
                0.0
            } else {
                1.0
            }
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert!(!supports(99, 0.9));
        assert!(supports(100, 0.9));
        assert!(!supports(999, 0.99));
        assert!(supports(1000, 0.99));
        assert!(supports(1, 0.5));
        assert!(!supports(0, 0.5));
        assert_eq!(tail_quantile(9), None);
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(5_000), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(tail_quantile(4_000_000), Some(0.9999));
    }

    #[test]
    fn hist_quantiles_are_exact_across_both_ranges() {
        let mut h = Hist::default();
        for ns in [100u64, 300, 200, 1_000_000, 400] {
            h.record_ns(ns);
        }
        assert_eq!(h.len(), 5);
        assert_eq!(h.quantile_ns(0.0), 100.0);
        assert_eq!(h.quantile_ns(0.5), 300.0);
        assert_eq!(h.quantile_ns(1.0), 1_000_000.0);
        // Between the 4th (400) and 5th (1e6) order statistics.
        assert_eq!(h.quantile_ns(0.875), 400.0 + 0.5 * (1_000_000.0 - 400.0));
        assert_eq!(Hist::default().quantile_ns(0.5), 0.0);
    }

    #[test]
    fn float_quantile_interpolates() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn failed_op_frac_counts_ops_and_checks() {
        let mut t = Tally::default();
        assert_eq!(t.failed_frac(), 0.0);
        assert!(!t.correct(), "a run that attempted nothing is not correct");
        for _ in 0..3 {
            t.op(true, String::new);
        }
        assert!(t.correct());
        t.op(false, || "miss".into());
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.failed_frac(), 0.25);
        t.ops(6, 0, String::new);
        assert_eq!((t.attempted, t.failed), (10, 1));
        t.ops(10, 3, || "scan".into());
        assert_eq!((t.attempted, t.failed), (20, 4));
        assert_eq!(t.failed_frac(), 0.2);
        assert!(!t.correct());
        assert_eq!(t.errors, vec!["miss".to_string(), "scan".to_string()]);
    }
}
