//! The exam-day tick model shared by E12, E16, E17 and E19.
//!
//! All four experiments serve one stretch of the exam calendar from a
//! plain fixed-step loop: each tick reads the offered rate from the
//! workload, sets it against the capacity the arm can reach, and books
//! the difference. The decisions they share live here, once: the tick
//! clock, the exam day they simulate, the instance size, the M/M/1-style
//! latency curve, the exam request mix, the two fleet sizings and the
//! standard autoscaler. Each experiment keeps only its own policy — E12's
//! datacenter and host kill, E16's admission/retry/failover ladder, E17's
//! invoker fleet and E19's orchestrator.
//!
//! The loops deliberately do not run on `elc_fluid::FluidQueue`: its
//! proportional drain and backlog-limit shedding are a different
//! per-tick model from E12/E17's rejection of `demand − served` and
//! E16's priority serving, and even a zero-limit queue books
//! `demand·(1 − served/demand)`, which moves golden digits.

use elc_cloud::autoscale::{AutoScaler, ScaleDecision};
use elc_cloud::resources::VmSize;
use elc_elearn::request::RequestKind;
use elc_simcore::time::{SimDuration, SimTime};

use crate::scenario::Scenario;

/// The instance size every fleet is built from.
pub(crate) const UNIT: VmSize = VmSize::Medium;

/// Base service latency of an unloaded fleet, seconds.
pub(crate) const BASE_LATENCY_S: f64 = 0.12;

/// Latency cap when saturated, seconds.
pub(crate) const MAX_LATENCY_S: f64 = 10.0;

/// The control-loop tick of the day-long experiments.
pub(crate) const TICK: SimDuration = SimDuration::from_secs(60);

/// One simulated day.
pub(crate) const DAY: SimDuration = SimDuration::from_hours(24);

/// The exam-day request mix as per-kind fractions: the weights of
/// `RequestMix::exam`, normalized. Demand is deterministic — rate × mix —
/// so the comparisons are not clouded by sampling noise.
pub(crate) const EXAM_MIX: [(RequestKind, f64); 9] = [
    (RequestKind::Login, 0.10),
    (RequestKind::CoursePage, 0.09),
    (RequestKind::VideoChunk, 0.02),
    (RequestKind::QuizFetch, 0.40),
    (RequestKind::QuizSubmit, 0.35),
    (RequestKind::Upload, 0.01),
    (RequestKind::Download, 0.01),
    (RequestKind::ForumRead, 0.015),
    (RequestKind::ForumPost, 0.005),
];

/// The fraction `mix` gives `kind` (0 when absent).
pub(crate) const fn share(mix: &[(RequestKind, f64)], kind: RequestKind) -> f64 {
    let mut i = 0;
    while i < mix.len() {
        if mix[i].0 as u8 == kind as u8 {
            return mix[i].1;
        }
        i += 1;
    }
    0.0
}

/// First instant of the simulated exam day: day 2 of the exam period (a
/// weekday under the standard calendar), when the surge — and any fault —
/// hurts most.
pub(crate) fn exam_day_start(scenario: &Scenario) -> SimTime {
    scenario.calendar().exams_start() + SimDuration::from_days(1)
}

/// The fixed-step clock a loop runs on: ticks at `0, tick, 2·tick, …`
/// before `horizon`, each mapped onto the calendar from `start`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Clock {
    start: SimTime,
    tick: SimDuration,
    horizon: SimDuration,
}

impl Clock {
    /// Ticks of `tick` over `horizon` from the calendar instant `start`.
    pub(crate) fn new(start: SimTime, tick: SimDuration, horizon: SimDuration) -> Self {
        Clock {
            start,
            tick,
            horizon,
        }
    }

    /// One-minute ticks over the 24 hours from `start`.
    pub(crate) fn day(start: SimTime) -> Self {
        Clock::new(start, TICK, DAY)
    }

    /// The tick instants, in simulation time.
    pub(crate) fn ticks(&self) -> impl Iterator<Item = SimTime> {
        let tick = self.tick;
        (0..self.horizon.as_nanos() / tick.as_nanos()).map(move |i| SimTime::ZERO + tick * i)
    }

    /// The calendar instant of the simulation time `now`.
    pub(crate) fn calendar(&self, now: SimTime) -> SimTime {
        self.start + (now - SimTime::ZERO)
    }

    /// The tick length.
    pub(crate) fn tick(&self) -> SimDuration {
        self.tick
    }

    /// The tick length in seconds: the factor from a rate to a tick's
    /// demand.
    pub(crate) fn tick_s(&self) -> f64 {
        self.tick.as_secs_f64()
    }

    /// The end of the window, in simulation time.
    pub(crate) fn end(&self) -> SimTime {
        SimTime::ZERO + self.horizon
    }
}

/// Latency of a fleet running at utilization `rho`: the M/M/1 curve
/// `0.12 s / (1 − ρ)`, capped at 10 s, and flat at the cap from ρ = 0.95
/// on. E12, E16 and E17 turn a tick's utilization into latency with it.
#[must_use]
pub fn load_latency_s(rho: f64) -> f64 {
    if rho < 0.95 {
        (BASE_LATENCY_S / (1.0 - rho)).min(MAX_LATENCY_S)
    } else {
        MAX_LATENCY_S
    }
}

/// A fixed fleet sized for `peak_rps` with 20% headroom (at least two
/// units) — the exam-sized private fleet, or E12's teaching-sized one.
pub(crate) fn peak_fleet(peak_rps: f64) -> u32 {
    ((peak_rps * 1.2 / UNIT.requests_per_sec()).ceil() as u32).max(2)
}

/// An elastic fleet's starting size: right-sized for the midnight rate
/// `rate0` at the autoscaler's 60% target (at least two units).
pub(crate) fn midnight_fleet(rate0: f64) -> u32 {
    ((rate0 / (UNIT.requests_per_sec() * 0.6)).ceil() as u32).max(2)
}

/// The autoscaler every elastic fleet runs: 2–600 units, 60% target
/// utilization, a four-minute cooldown.
pub(crate) fn standard_scaler() -> AutoScaler {
    AutoScaler::new(2, 600, 0.6, SimDuration::from_secs(240))
}

/// An autoscaled public fleet counted in units: it starts at the
/// [`midnight_fleet`] and follows the [`standard_scaler`].
pub(crate) struct ElasticFleet {
    units: u32,
    scaler: AutoScaler,
}

impl ElasticFleet {
    /// A fleet sized for the midnight rate `rate0`.
    pub(crate) fn at_midnight(rate0: f64) -> Self {
        ElasticFleet {
            units: midnight_fleet(rate0),
            scaler: standard_scaler(),
        }
    }

    /// Probes the scaler at `now` for the offered `rate` and applies its
    /// decision (never below one unit); returns the new unit count.
    pub(crate) fn follow(&mut self, now: SimTime, rate: f64) -> u32 {
        match self
            .scaler
            .decide(now, self.units, rate, UNIT.requests_per_sec())
        {
            ScaleDecision::ScaleUp(n) => self.units += n,
            ScaleDecision::ScaleDown(n) => self.units = self.units.saturating_sub(n).max(1),
            ScaleDecision::Hold => {}
        }
        self.units
    }
}

/// Fresh demand `clock` offers from `scenario`'s workload: Σ rate × tick.
/// The left-hand side of the conservation ledgers the tests close.
#[cfg(test)]
pub(crate) fn offered(scenario: &Scenario, clock: &Clock) -> f64 {
    let workload = scenario.workload();
    clock
        .ticks()
        .map(|now| workload.rate_at(clock.calendar(now)) * clock.tick_s())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use elc_elearn::request::RequestMix;

    #[test]
    fn exam_mix_is_the_normalized_exam_request_mix() {
        let exam = RequestMix::exam();
        let total: f64 = exam.pairs().iter().map(|&(_, w)| w).sum();
        assert_eq!(exam.pairs().len(), EXAM_MIX.len());
        for &(kind, weight) in exam.pairs() {
            let frac = share(&EXAM_MIX, kind);
            assert!(
                (frac - weight / total).abs() < 1e-12,
                "{kind:?}: {frac} vs {}",
                weight / total
            );
        }
        let sum: f64 = EXAM_MIX.iter().map(|&(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-12, "mix sums to {sum}");
    }
}
