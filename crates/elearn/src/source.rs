//! The demand-source abstraction behind every experiment.
//!
//! [`WorkloadSource`] is the trait through which deployment experiments see
//! demand: an offered rate curve and its peak. Consumers draw their own
//! arrivals from that curve through their own seed lineage, so a source
//! never touches an RNG. Two families implement it:
//!
//! * [`WorkloadModel`](crate::workload::WorkloadModel) — the synthetic
//!   generator combining the academic calendar, diurnal curve and cohort
//!   size,
//! * `TraceReplayer` (in `elc-wltrace`) — replays a recorded rate curve so
//!   the *same exact* demand can drive several deployment models.
//!
//! The trait is object safe; experiments hold a `Box<dyn WorkloadSource>`
//! and cannot tell a generator from a replay. Determinism contract: two
//! sources built from the same inputs answer every query with the same
//! bits, and a replay answers every recorded instant with the recorded
//! bits (see DESIGN.md §4g).

use std::fmt;

use elc_simcore::time::{SimDuration, SimTime};

/// A source of offered demand: a rate curve and its peak.
///
/// Implementations must be deterministic: two sources built from the same
/// inputs must answer every query identically.
pub trait WorkloadSource: fmt::Debug + Send + Sync {
    /// Enrolled students behind this demand stream (used for analytic
    /// fleet sizing; replayers report the recorded cohort).
    fn students(&self) -> u32;

    /// Offered request rate at instant `t`, in requests/second.
    fn rate_at(&self, t: SimTime) -> f64;

    /// Peak offered rate over the whole horizon (analytic for generators,
    /// recorded for replays). Deployments size fixed fleets from this.
    fn peak_rate(&self) -> f64;

    /// Clones into a boxed trait object (`Box<dyn WorkloadSource>` is
    /// `Clone` through this).
    fn clone_source(&self) -> Box<dyn WorkloadSource>;

    /// Mean offered rate over `[from, to)`, sampled at `step` resolution
    /// and duration-weighted, so a trailing partial step counts only for
    /// the span it actually covers.
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero or the interval is empty.
    fn mean_rate(&self, from: SimTime, to: SimTime, step: SimDuration) -> f64 {
        assert!(!step.is_zero(), "step must be positive");
        assert!(to > from, "empty interval");
        let mut t = from;
        let mut weighted = 0.0;
        let mut total = 0.0;
        while t < to {
            let span = if to - t < step { to - t } else { step };
            let w = span.as_secs_f64();
            weighted += self.rate_at(t) * w;
            total += w;
            t += step;
        }
        weighted / total
    }
}

impl Clone for Box<dyn WorkloadSource> {
    fn clone(&self) -> Self {
        self.clone_source()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calendar::AcademicCalendar;
    use crate::workload::WorkloadModel;

    fn model() -> WorkloadModel {
        WorkloadModel::builder(10_000, AcademicCalendar::standard_semester(SimTime::ZERO))
            .build()
            .unwrap()
    }

    fn source() -> Box<dyn WorkloadSource> {
        Box::new(model())
    }

    fn at(week: u64, day: u64, hour: u64) -> SimTime {
        SimTime::from_secs(week * 7 * 86_400 + day * 86_400 + hour * 3_600)
    }

    #[test]
    fn boxed_source_answers_like_the_model() {
        let s = source();
        let m = model();
        // Every minute of an exam day answers with the model's bits.
        for minute in 0..24 * 60 {
            let t = at(15, 2, 0) + SimDuration::from_mins(minute);
            assert_eq!(s.rate_at(t).to_bits(), m.rate_at(t).to_bits());
        }
        assert_eq!(s.peak_rate().to_bits(), m.peak_rate().to_bits());
        assert_eq!(s.students(), m.students());
    }

    #[test]
    fn boxed_clone_preserves_answers() {
        let s = source();
        let c = s.clone();
        for t in [at(5, 2, 20), at(15, 2, 12), at(30, 5, 4)] {
            assert_eq!(s.rate_at(t).to_bits(), c.rate_at(t).to_bits());
        }
        assert_eq!(s.peak_rate().to_bits(), c.peak_rate().to_bits());
    }
}
