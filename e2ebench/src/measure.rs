//! Metrics, order statistics and the result line.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt::Write as _;
use std::fs;
use std::time::Instant;

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Checked-output tally: every iteration whose output is compared
/// counts as attempted; a mismatch counts as failed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Records one check; prints `what` to stderr when it failed.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    pub fn add(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What an end-to-end run measured.
pub struct EndToEnd {
    pub setup: Setup,
    pub timed: Timed,
    pub checks: Checks,
    /// Simulated work per iteration, as `(unit, count)`, when the
    /// workload has a natural unit (events, replications).
    pub work: Option<(&'static str, f64)>,
    /// Workload-specific figures printed beside the contract metrics.
    pub extra: Vec<Metric>,
}

/// Calibration time, seconds, of the reference host: [`calibrate`] on a
/// quiet 2-vCPU Xeon VM. Reference-speed figures (`*_ref_*`) scale each
/// host-time measurement by `CAL_REF_S / calibration measured beside
/// it`, which takes out host-speed swings that last longer than a run.
pub const CAL_REF_S: f64 = 0.020;

/// The host-speed calibration, about 20 ms: a fixed mix of the kinds of
/// work the workloads do — binary-heap hold operations, hash-map
/// lookups, number formatting into short strings and a float sort — on
/// pseudo-random data from a fixed seed. Benchmark code, not program
/// code, so no change to the program can move it.
pub fn calibrate() -> f64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let t = Instant::now();
    let mut heap = BinaryHeap::with_capacity(50_000);
    for _ in 0..50_000 {
        heap.push(Reverse(next() >> 20));
    }
    let mut acc = 0u64;
    for _ in 0..100_000 {
        let Reverse(k) = heap.pop().expect("heap stays full");
        acc = acc.wrapping_add(k);
        heap.push(Reverse(k + (next() >> 40)));
    }
    let mut map = HashMap::new();
    for _ in 0..25_000 {
        map.insert(next() >> 40, next());
    }
    for _ in 0..75_000 {
        if let Some(v) = map.get(&(next() >> 40)) {
            acc = acc.wrapping_add(*v);
        }
    }
    let strings: Vec<String> = (0..20_000u64)
        .map(|i| format!("{:.3}|{i}", (next() >> 11) as f64 * 1e-9))
        .collect();
    acc = acc.wrapping_add(strings.iter().map(|s| s.len() as u64).sum::<u64>());
    let mut floats: Vec<f64> = (0..100_000).map(|_| (next() >> 11) as f64).collect();
    floats.sort_by(f64::total_cmp);
    std::hint::black_box((acc, floats[floats.len() / 2]));
    t.elapsed().as_secs_f64()
}

/// Set-up timing.
pub struct Setup {
    /// Median host seconds over [`SETUP_REPS`] set-ups.
    pub median_s: f64,
    /// The same at reference host speed.
    pub ref_s: f64,
}

/// Set-ups timed per run; the median is reported.
pub const SETUP_REPS: usize = 101;

/// Runs `build` [`SETUP_REPS`] times between two calibrations and
/// returns the timing with the last value built.
pub fn setup_median<T>(mut build: impl FnMut() -> T) -> (Setup, T) {
    let before = calibrate();
    let mut walls = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let value = build();
        walls.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    let cal = (before + calibrate()) / 2.0;
    let median_s = median(&walls);
    let setup = Setup {
        median_s,
        ref_s: median_s * CAL_REF_S / cal,
    };
    (setup, last.expect("at least one set-up"))
}

/// Timed iterations with a calibration before the first and after each.
pub struct Timed {
    pub walls: Vec<f64>,
    pub cals: Vec<f64>,
}

impl Timed {
    /// Each iteration's wall at reference host speed, scaled by the mean
    /// of the two calibrations around it.
    pub fn ref_walls(&self) -> Vec<f64> {
        self.walls
            .iter()
            .zip(self.cals.windows(2))
            .map(|(w, c)| w * CAL_REF_S * 2.0 / (c[0] + c[1]))
            .collect()
    }
}

/// Calls `iteration` (which returns its own wall time, checks excluded)
/// until `seconds` have passed, at least three times, calibrating
/// between iterations.
pub fn timed_loop(seconds: f64, mut iteration: impl FnMut() -> f64) -> Timed {
    let start = Instant::now();
    let mut timed = Timed {
        walls: Vec::new(),
        cals: vec![calibrate()],
    };
    while timed.walls.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        timed.walls.push(iteration());
        timed.cals.push(calibrate());
    }
    timed
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` in (0, 1].
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Peak resident set of this process in MB (`VmHWM`), or `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Prints one human-readable line per metric.
pub fn print_table(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        println!(
            "{workload:<10} {:<42} {:>16} {}",
            m.name,
            fmt_value(m.value),
            m.unit
        );
    }
}

fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The result object the last line of standard output carries.
pub fn result_json(checks: Checks, metrics: &[Metric]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.failed == 0 && checks.attempted > 0,
        checks.attempted,
        checks.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            fmt_value(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
    }

    #[test]
    fn result_line_shape() {
        let line = result_json(
            Checks {
                attempted: 3,
                failed: 0,
            },
            &[Metric::new("setup_s", 0.5, "s")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
