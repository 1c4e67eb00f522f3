//! Fidelity switching for auto mode.
//!
//! A [`FidelityController`] decides, tick by tick, whether the station
//! runs fluid or event-level. A surge boundary (a fast rate swing on a
//! hot station) forces event fidelity immediately; a utilization
//! threshold with hysteresis covers the statistical case (a
//! near-saturated queue is exactly where the mean-field approximation
//! is least trustworthy). After any trigger the controller holds event
//! fidelity for a minimum number of ticks so a flapping signal cannot
//! thrash the materialize/absorb boundary.

use elc_trace::{Field, Level};

/// Utilization at or above which the station goes to event fidelity.
const ENTER_UTIL: f64 = 0.85;

/// Utilization at or below which a held event segment returns to fluid.
pub(crate) const EXIT_UTIL: f64 = 0.70;

/// Trigger-free ticks event fidelity is held for before it may end.
const HOLD_TICKS: u32 = 5;

/// Which fidelity the station runs at right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// Flow integration via [`FluidQueue`](crate::FluidQueue).
    Fluid,
    /// Per-request events.
    Event,
}

/// What moved the station between fidelities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SwitchReason {
    /// The offered rate is about to swing fast on a hot station.
    ScaleBoundary,
    /// Utilization crossed the enter threshold.
    Utilization,
    /// No trigger and utilization back under the exit threshold —
    /// returning to fluid.
    Steady,
}

impl SwitchReason {
    fn as_str(self) -> &'static str {
        match self {
            SwitchReason::ScaleBoundary => "scale-boundary",
            SwitchReason::Utilization => "utilization",
            SwitchReason::Steady => "steady",
        }
    }
}

/// Hysteresis switch between fluid and event fidelity: event fidelity
/// is entered on a surge or at 85% utilization and left only once
/// utilization falls to 70% or below after five trigger-free ticks.
#[derive(Debug)]
pub(crate) struct FidelityController {
    mode: Mode,
    held: u32,
    switches: u32,
}

impl FidelityController {
    /// A controller starting in fluid mode.
    pub(crate) fn new() -> Self {
        FidelityController {
            mode: Mode::Fluid,
            held: 0,
            switches: 0,
        }
    }

    /// How many fluid↔event transitions have happened.
    pub(crate) fn switches(&self) -> u32 {
        self.switches
    }

    /// Decides the fidelity for the tick starting at `now_ns`, given
    /// whether a surge boundary falls in it and the offered rate over
    /// capacity. Emits a `fluid.switch` trace event on every transition.
    pub(crate) fn decide(&mut self, now_ns: u64, surge: bool, utilization: f64) -> Mode {
        let trigger = if surge {
            Some(SwitchReason::ScaleBoundary)
        } else if utilization >= ENTER_UTIL {
            Some(SwitchReason::Utilization)
        } else {
            None
        };
        match (self.mode, trigger) {
            (Mode::Fluid, Some(reason)) => {
                self.held = HOLD_TICKS;
                self.transition(now_ns, Mode::Event, reason, utilization);
            }
            (Mode::Event, Some(_)) => self.held = HOLD_TICKS,
            (Mode::Event, None) => {
                if self.held > 0 {
                    self.held -= 1;
                } else if utilization <= EXIT_UTIL {
                    self.transition(now_ns, Mode::Fluid, SwitchReason::Steady, utilization);
                }
            }
            (Mode::Fluid, None) => {}
        }
        self.mode
    }

    fn transition(&mut self, now_ns: u64, to: Mode, reason: SwitchReason, utilization: f64) {
        self.mode = to;
        self.switches += 1;
        if elc_trace::enabled(crate::TRACE_TARGET, Level::Info) {
            elc_trace::instant(
                now_ns,
                crate::TRACE_TARGET,
                "fluid.switch",
                Level::Info,
                &[
                    Field::str("to", if to == Mode::Event { "event" } else { "fluid" }),
                    Field::str("reason", reason.as_str()),
                    Field::f64("utilization", utilization),
                ],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decides `HOLD_TICKS` trigger-free ticks at `utilization`, all of
    /// which must stay at event fidelity.
    fn hold(c: &mut FidelityController, utilization: f64) {
        for t in 0..HOLD_TICKS {
            assert_eq!(c.decide(u64::from(t), false, utilization), Mode::Event);
        }
    }

    #[test]
    fn utilization_hysteresis_holds_between_thresholds() {
        let mut c = FidelityController::new();
        assert_eq!(c.decide(0, false, 0.5), Mode::Fluid);
        assert_eq!(c.decide(1, false, ENTER_UTIL), Mode::Event);
        hold(&mut c, 0.5);
        // In the hysteresis band: stays event.
        assert_eq!(c.decide(7, false, 0.75), Mode::Event);
        assert_eq!(c.decide(8, false, EXIT_UTIL), Mode::Fluid);
        assert_eq!(c.switches(), 2);
    }

    #[test]
    fn a_surge_forces_event_mode_and_is_held() {
        let mut c = FidelityController::new();
        assert_eq!(c.decide(0, true, 0.1), Mode::Event, "surge at low util");
        hold(&mut c, 0.1);
        assert_eq!(c.decide(6, false, 0.1), Mode::Fluid);
        assert_eq!(c.switches(), 2);
    }

    #[test]
    fn a_trigger_during_the_hold_restarts_it() {
        let mut c = FidelityController::new();
        c.decide(0, true, 0.1);
        c.decide(1, false, 0.1);
        assert_eq!(c.decide(2, false, 0.9), Mode::Event);
        hold(&mut c, 0.1);
        assert_eq!(c.decide(8, false, 0.1), Mode::Fluid);
    }
}
