//! Run-time measurement primitives.
//!
//! Models record what happens ([`Counter`], [`Summary`], [`Histogram`]) and
//! the analysis layer turns the recordings into tables. All primitives are
//! plain values — no globals, no interior mutability — so a model's metric
//! state is part of the simulation state and replays deterministically.

use std::fmt;

use crate::time::SimDuration;

/// A monotonically increasing event count.
///
/// # Examples
///
/// ```
/// use elc_simcore::metrics::Counter;
///
/// let mut served = Counter::new();
/// served.incr();
/// served.add(4);
/// assert_eq!(served.value(), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    #[must_use]
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Adds one.
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// The current count.
    #[must_use]
    pub const fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Online summary statistics (Welford's algorithm): count, mean, variance,
/// min, max — O(1) memory regardless of sample count.
///
/// # Examples
///
/// ```
/// use elc_simcore::metrics::Summary;
///
/// let mut s = Summary::new();
/// for x in [2.0, 4.0, 6.0] {
///     s.record(x);
/// }
/// assert_eq!(s.mean(), 4.0);
/// assert_eq!(s.min(), Some(2.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Summary {
    /// Creates an empty summary.
    #[must_use]
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN — a NaN observation would silently poison every
    /// downstream statistic.
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "cannot record NaN");
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Records a duration, in seconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_secs_f64());
    }

    /// Records `n` identical observations of `x` in O(1) — the batch form
    /// used by fluid models where one tick stands for many requests.
    ///
    /// Equivalent to calling [`Summary::record`] `n` times (up to float
    /// round-off in the variance accumulator).
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    pub fn record_n(&mut self, x: f64, n: u64) {
        assert!(!x.is_nan(), "cannot record NaN");
        if n == 0 {
            return;
        }
        // Merge with a virtual summary of n identical observations
        // (mean = x, m2 = 0), using the pairwise-merge update.
        let n1 = self.count as f64;
        let n2 = n as f64;
        let total = n1 + n2;
        let delta = x - self.mean;
        self.mean += delta * n2 / total;
        self.m2 += delta * delta * n1 * n2 / total;
        self.count += n;
        self.sum += x * n2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean; 0.0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance; 0.0 with fewer than two observations.
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation, `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            write!(f, "n=0")
        } else {
            write!(
                f,
                "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
                self.count,
                self.mean(),
                self.std_dev(),
                self.min,
                self.max
            )
        }
    }
}

/// Number of sub-buckets per power of two.
const SUBS: i32 = 16;
/// Smallest representable magnitude (2^MIN_EXP); values below land in the
/// zero bucket.
const MIN_EXP: i32 = -31; // ~4.7e-10: below one simulated nanosecond in secs
/// Largest representable magnitude exponent.
const MAX_EXP: i32 = 41; // ~2.2e12

/// A log-bucketed histogram of non-negative values with ~4% relative error
/// on quantiles.
///
/// The bucket layout is HDR-style: every power of two is split into
/// 16 geometric sub-buckets, covering ~5e-10 to ~2e12 — enough for
/// latencies in seconds and costs in currency units alike. Values outside
/// the range clamp to the end buckets (exact min/max are tracked
/// separately).
///
/// # Examples
///
/// ```
/// use elc_simcore::metrics::Histogram;
///
/// let mut h = Histogram::new();
/// for i in 1..=1000 {
///     h.record(i as f64);
/// }
/// let p50 = h.quantile(0.5);
/// assert!((p50 - 500.0).abs() / 500.0 < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    buckets: Vec<u64>,
    zero_count: u64,
    summary: Summary,
}

const BUCKET_COUNT: usize = ((MAX_EXP - MIN_EXP) * SUBS) as usize;

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; BUCKET_COUNT],
            zero_count: 0,
            summary: Summary::new(),
        }
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is negative or NaN.
    pub fn record(&mut self, x: f64) {
        assert!(
            x >= 0.0 && !x.is_nan(),
            "histogram values must be >= 0, got {x}"
        );
        self.summary.record(x);
        if x == 0.0 {
            self.zero_count += 1;
            return;
        }
        self.buckets[Self::index_of(x)] += 1;
    }

    /// Records a duration, in seconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_secs_f64());
    }

    /// Records `n` identical observations of `x` in O(1) — the batch form
    /// used by fluid models where one tick stands for many requests.
    ///
    /// # Panics
    ///
    /// Panics if `x` is negative or NaN.
    pub fn record_n(&mut self, x: f64, n: u64) {
        assert!(
            x >= 0.0 && !x.is_nan(),
            "histogram values must be >= 0, got {x}"
        );
        if n == 0 {
            return;
        }
        self.summary.record_n(x, n);
        if x == 0.0 {
            self.zero_count += n;
            return;
        }
        self.buckets[Self::index_of(x)] += n;
    }

    fn index_of(x: f64) -> usize {
        let idx = (x.log2() * SUBS as f64).floor() as i64 - (MIN_EXP * SUBS) as i64;
        idx.clamp(0, BUCKET_COUNT as i64 - 1) as usize
    }

    /// Geometric midpoint of bucket `i`.
    fn value_of(i: usize) -> f64 {
        let exp = (i as f64 + 0.5) / SUBS as f64 + MIN_EXP as f64;
        exp.exp2()
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.summary.count()
    }

    /// Mean of observations (exact, not bucketed).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.summary.mean()
    }

    /// Exact minimum and maximum observed values.
    #[must_use]
    pub fn min_max(&self) -> Option<(f64, f64)> {
        Some((self.summary.min()?, self.summary.max()?))
    }

    /// The underlying exact summary statistics.
    #[must_use]
    pub fn summary(&self) -> &Summary {
        &self.summary
    }

    /// Approximate quantile `q` of the recorded values.
    ///
    /// Returns 0.0 when the histogram is empty.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= q <= 1.0`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        // Rank among all observations, 1-based; clamp to [1, n].
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        if rank <= self.zero_count {
            return 0.0;
        }
        let mut seen = self.zero_count;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Clamp the bucket midpoint by the exact extrema so that
                // small-sample quantiles never exceed the observed range.
                let (lo, hi) = self.min_max().expect("count > 0");
                return Self::value_of(i).clamp(lo, hi);
            }
        }
        self.min_max().map(|(_, hi)| hi).unwrap_or(0.0)
    }

    /// Approximate quantiles for several `q`s in **one bucket scan**.
    ///
    /// Returns one value per requested quantile, in the order given (the
    /// `qs` themselves may be in any order). Each result equals what
    /// [`Histogram::quantile`] returns for that `q`; use this where several
    /// quantiles of one histogram are read, since `quantile` re-scans all
    /// buckets per call.
    ///
    /// # Panics
    ///
    /// Panics unless every `q` is within `[0, 1]`.
    #[must_use]
    pub fn quantiles(&self, qs: &[f64]) -> Vec<f64> {
        for &q in qs {
            assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        }
        let n = self.count();
        let mut out = vec![0.0; qs.len()];
        if n == 0 {
            return out;
        }
        let (lo, hi) = self.min_max().expect("count > 0");
        // Visit the requested ranks in ascending order so one cumulative
        // sweep over the buckets answers all of them.
        let mut order: Vec<usize> = (0..qs.len()).collect();
        let rank_of = |q: f64| ((q * n as f64).ceil() as u64).clamp(1, n);
        order.sort_by_key(|&i| rank_of(qs[i]));
        let mut pending = order.into_iter().peekable();

        while let Some(&i) = pending.peek() {
            if rank_of(qs[i]) <= self.zero_count {
                // out[i] is already 0.0, matching `quantile`.
                pending.next();
            } else {
                break;
            }
        }
        let mut seen = self.zero_count;
        'buckets: for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            while let Some(&i) = pending.peek() {
                if seen >= rank_of(qs[i]) {
                    out[i] = Self::value_of(b).clamp(lo, hi);
                    pending.next();
                } else {
                    continue 'buckets;
                }
            }
            break;
        }
        // Ranks past the last bucket fall back to the exact maximum.
        for i in pending {
            out[i] = hi;
        }
        out
    }

    /// Convenience: the median.
    #[must_use]
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// Convenience: the 95th percentile.
    #[must_use]
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// Convenience: the 99th percentile.
    #[must_use]
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.zero_count += other.zero_count;
        self.summary.merge(&other.summary);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count() == 0 {
            write!(f, "empty histogram")
        } else {
            let qs = self.quantiles(&[0.50, 0.95, 0.99]);
            write!(
                f,
                "n={} mean={:.4} p50={:.4} p95={:.4} p99={:.4}",
                self.count(),
                self.mean(),
                qs[0],
                qs[1],
                qs[2]
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_record_n_matches_repeated_record() {
        let mut batched = Summary::new();
        let mut looped = Summary::new();
        for (x, n) in [(2.0, 3u64), (5.0, 1), (0.5, 4), (9.0, 0)] {
            batched.record_n(x, n);
            for _ in 0..n {
                looped.record(x);
            }
        }
        assert_eq!(batched.count(), looped.count());
        assert!((batched.mean() - looped.mean()).abs() < 1e-12);
        assert!((batched.variance() - looped.variance()).abs() < 1e-12);
        assert_eq!(batched.min(), looped.min());
        assert_eq!(batched.max(), looped.max());
    }

    #[test]
    fn histogram_record_n_matches_repeated_record() {
        let mut batched = Histogram::new();
        let mut looped = Histogram::new();
        for (x, n) in [(0.0, 2u64), (0.12, 40), (1.7, 7), (3.0, 0)] {
            batched.record_n(x, n);
            for _ in 0..n {
                looped.record(x);
            }
        }
        assert_eq!(batched.count(), looped.count());
        assert_eq!(batched.p50(), looped.p50());
        assert_eq!(batched.p95(), looped.p95());
        assert_eq!(batched.min_max(), looped.min_max());
    }

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.incr();
        c.add(9);
        assert_eq!(c.value(), 10);
        assert_eq!(c.to_string(), "10");
    }

    #[test]
    fn summary_empty() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.to_string(), "n=0");
    }

    #[test]
    fn summary_moments() {
        let mut s = Summary::new();
        for x in [1.0, 2.0, 3.0, 4.0, 5.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 5);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.variance(), 2.0);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(5.0));
        assert_eq!(s.sum(), 15.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn summary_rejects_nan() {
        Summary::new().record(f64::NAN);
    }

    #[test]
    fn summary_merge_matches_combined() {
        let mut a = Summary::new();
        let mut b = Summary::new();
        let mut all = Summary::new();
        for x in [1.0, 5.0, 2.5] {
            a.record(x);
            all.record(x);
        }
        for x in [9.0, -3.0] {
            b.record(x);
            all.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        assert!((a.variance() - all.variance()).abs() < 1e-12);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn summary_merge_with_empty() {
        let mut a = Summary::new();
        a.record(2.0);
        let before = a;
        a.merge(&Summary::new());
        assert_eq!(a, before);

        let mut empty = Summary::new();
        empty.merge(&a);
        assert_eq!(empty.mean(), 2.0);
    }

    #[test]
    fn histogram_quantiles_on_uniform() {
        let mut h = Histogram::new();
        for i in 1..=10_000 {
            h.record(i as f64);
        }
        for (q, expect) in [(0.5, 5_000.0), (0.95, 9_500.0), (0.99, 9_900.0)] {
            let got = h.quantile(q);
            let rel = (got - expect).abs() / expect;
            assert!(rel < 0.05, "q={q}: got {got}, want ~{expect}");
        }
    }

    #[test]
    fn histogram_quantiles_single_pass_matches_quantile() {
        // Mixed zeros, duplicates, wide dynamic range — and unordered qs.
        let mut h = Histogram::new();
        for _ in 0..5 {
            h.record(0.0);
        }
        for i in 1..=1_000 {
            h.record(f64::from(i) * 0.25);
        }
        h.record(1e9);
        let qs = [0.99, 0.0, 0.5, 1.0, 0.95, 0.001];
        let batch = h.quantiles(&qs);
        for (&q, &got) in qs.iter().zip(&batch) {
            assert_eq!(got, h.quantile(q), "q={q}");
        }
        // Empty histogram: all zeros, like `quantile`.
        assert_eq!(Histogram::new().quantiles(&qs), vec![0.0; qs.len()]);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn histogram_quantiles_rejects_bad_q() {
        let _ = Histogram::new().quantiles(&[0.5, 1.5]);
    }

    #[test]
    fn histogram_zero_values() {
        let mut h = Histogram::new();
        for _ in 0..10 {
            h.record(0.0);
        }
        h.record(100.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert!(h.quantile(1.0) > 0.0);
    }

    #[test]
    fn histogram_empty_quantile_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.to_string(), "empty histogram");
    }

    #[test]
    fn histogram_single_value() {
        let mut h = Histogram::new();
        h.record(42.0);
        for q in [0.0, 0.5, 1.0] {
            let got = h.quantile(q);
            assert!((got - 42.0).abs() / 42.0 < 0.05, "q={q}: {got}");
        }
    }

    #[test]
    fn histogram_quantile_within_observed_range() {
        let mut h = Histogram::new();
        h.record(10.0);
        h.record(20.0);
        let p99 = h.quantile(0.99);
        assert!((10.0..=20.0).contains(&p99), "p99 {p99}");
    }

    #[test]
    #[should_panic(expected = "must be >= 0")]
    fn histogram_rejects_negative() {
        Histogram::new().record(-1.0);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn histogram_rejects_bad_quantile() {
        let _ = Histogram::new().quantile(1.5);
    }

    #[test]
    fn histogram_extreme_values_clamp() {
        let mut h = Histogram::new();
        h.record(1e-15); // below range: clamps to lowest bucket
        h.record(1e15); // above range: clamps to highest bucket
        assert_eq!(h.count(), 2);
        assert!(h.quantile(1.0) >= h.quantile(0.0));
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for i in 1..=100 {
            a.record(i as f64);
        }
        for i in 101..=200 {
            b.record(i as f64);
        }
        a.merge(&b);
        assert_eq!(a.count(), 200);
        let p50 = a.quantile(0.5);
        assert!((p50 - 100.0).abs() / 100.0 < 0.08, "p50 {p50}");
    }

    #[test]
    fn histogram_duration_recording() {
        let mut h = Histogram::new();
        h.record_duration(SimDuration::from_millis(250));
        assert!((h.mean() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn relative_error_bound_holds() {
        // Bucket width is 2^(1/16) ≈ 4.4% — check the quantile of a point
        // mass lands within that of the true value across magnitudes.
        for &v in &[0.001, 0.5, 3.0, 1e4, 1e9] {
            let mut h = Histogram::new();
            for _ in 0..100 {
                h.record(v);
            }
            let got = h.quantile(0.5);
            assert!((got - v).abs() / v < 0.05, "value {v}: got {got}");
        }
    }
}
