//! Fluid state for one queueing station.
//!
//! A [`FluidQueue`] replaces the station's per-request queue with one
//! non-negative backlog variable advanced by a fixed-step flow solver:
//! over a substep `h` the backlog receives `rate × h` fluid, the pool
//! drains up to `capacity × h` of it, and backlog beyond the waiting-
//! room limit is shed. Everything is `f64` flow; the invariants the
//! proptests pin are
//!
//! * backlog is never negative,
//! * mass is conserved: `offered = served + shed + backlog` after every
//!   step, and across a [`FluidQueue::materialize`] /
//!   [`FluidQueue::absorb`] round trip to within the one request that
//!   materialization rounds.

use elc_simcore::rng::SimRng;
use elc_simcore::time::SimDuration;
use elc_trace::{Field, Level};

/// One flow-solver advance: what moved during the step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowTick {
    /// Fluid served during the step (requests).
    pub served: f64,
    /// Backlog after the step (requests).
    pub backlog: f64,
}

/// Fluid state variables for one queueing station.
#[derive(Debug, Clone, PartialEq)]
pub struct FluidQueue {
    capacity_rps: f64,
    backlog_limit: f64,
    backlog: f64,
    offered: f64,
    served: f64,
    shed: f64,
}

impl FluidQueue {
    /// Creates an empty fluid queue.
    ///
    /// `capacity_rps` is the pooled service capacity in requests/second;
    /// `backlog_limit` is the waiting-room size in requests (fluid
    /// beyond it is shed, mirroring the event-level bounded queue).
    ///
    /// # Panics
    ///
    /// Panics if `capacity_rps` is not positive and finite, or
    /// `backlog_limit` is negative/NaN.
    #[must_use]
    pub fn new(capacity_rps: f64, backlog_limit: f64) -> Self {
        assert!(
            capacity_rps.is_finite() && capacity_rps > 0.0,
            "capacity must be positive and finite, got {capacity_rps}"
        );
        assert!(
            backlog_limit >= 0.0,
            "backlog limit must be >= 0, got {backlog_limit}"
        );
        FluidQueue {
            capacity_rps,
            backlog_limit,
            backlog: 0.0,
            offered: 0.0,
            served: 0.0,
            shed: 0.0,
        }
    }

    /// Current backlog (requests).
    #[must_use]
    pub fn backlog(&self) -> f64 {
        self.backlog
    }

    /// Cumulative offered fluid (requests).
    #[must_use]
    pub fn offered_total(&self) -> f64 {
        self.offered
    }

    /// Cumulative served fluid (requests).
    #[must_use]
    pub fn served_total(&self) -> f64 {
        self.served
    }

    /// Cumulative shed fluid (requests).
    #[must_use]
    pub fn shed_total(&self) -> f64 {
        self.shed
    }

    /// Estimated queueing delay by Little's law: backlog over capacity.
    #[must_use]
    pub fn wait_estimate_s(&self) -> f64 {
        self.backlog / self.capacity_rps
    }

    /// Advances the fluid state by `dt` at arrival `rate`
    /// (requests/second), integrating in `substeps` fixed steps.
    ///
    /// # Panics
    ///
    /// Panics if `substeps` is zero or `rate` is negative/non-finite.
    pub fn step(&mut self, dt: SimDuration, rate: f64, substeps: u32) -> FlowTick {
        assert!(substeps > 0, "need at least one substep");
        assert!(
            rate.is_finite() && rate >= 0.0,
            "rate must be >= 0, got {rate}"
        );
        let h = dt.as_secs_f64() / f64::from(substeps);
        let mut served_step = 0.0;
        for _ in 0..substeps {
            // Inflow, then drain of backlog + fresh fluid.
            self.backlog += rate * h;
            self.offered += rate * h;
            let demand = self.backlog;
            if demand > 0.0 {
                let serve = (self.capacity_rps * h).min(demand);
                let keep = 1.0 - serve / demand;
                self.backlog = (self.backlog * keep).max(0.0);
                served_step += serve;
                self.served += serve;
            }
            // Shed whatever exceeds the waiting room.
            let backlog = self.backlog;
            if backlog > self.backlog_limit {
                let keep = self.backlog_limit / backlog;
                self.backlog = (self.backlog * keep).max(0.0);
                self.shed += backlog - self.backlog_limit;
            }
        }
        FlowTick {
            served: served_step,
            backlog: self.backlog,
        }
    }

    /// Converts the fluid backlog into whole waiting requests for the
    /// event layer — the fluid→event fidelity boundary.
    ///
    /// Yields `floor(backlog)` requests plus one more with probability
    /// equal to the fractional part, drawn from the station's own `rng`
    /// lineage, so the result is reproducible for a given seed. The
    /// backlog is zeroed. Emits a `fluid.materialize` trace event at
    /// `now_ns`.
    pub fn materialize(&mut self, rng: &mut SimRng, now_ns: u64) -> u64 {
        let whole = self.backlog.floor();
        let frac = self.backlog - whole;
        let mut n = whole as u64;
        if frac > 0.0 && rng.chance(frac) {
            n += 1;
        }
        self.backlog = 0.0;
        if elc_trace::enabled(crate::TRACE_TARGET, Level::Info) {
            elc_trace::instant(
                now_ns,
                crate::TRACE_TARGET,
                "fluid.materialize",
                Level::Info,
                &[Field::u64("requests", n)],
            );
        }
        n
    }

    /// Returns `requests` from the event layer to the fluid backlog —
    /// the event→fluid fidelity boundary (the event station's waiting
    /// and in-service requests when it goes back to steady state).
    pub fn absorb(&mut self, requests: u64) {
        self.backlog += requests as f64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn underload_serves_everything() {
        let mut q = FluidQueue::new(100.0, 1_000.0);
        let tick = q.step(secs(60), 50.0, 4);
        assert!((tick.served - 3_000.0).abs() < 1e-6);
        assert!(tick.backlog < 1e-9);
        assert_eq!(q.shed_total(), 0.0);
    }

    #[test]
    fn overload_builds_backlog_then_sheds_at_the_limit() {
        let mut q = FluidQueue::new(100.0, 500.0);
        // 150 rps into 100 rps: 50 rps of excess.
        let t1 = q.step(secs(60), 150.0, 60);
        assert!((t1.backlog - 500.0).abs() < 1e-6, "backlog {}", t1.backlog);
        assert!(q.shed_total() > 0.0);
        // Mass conservation.
        let q_total = q.served_total() + q.shed_total() + q.backlog();
        assert!((q.offered_total() - q_total).abs() < 1e-6);
    }

    #[test]
    fn drain_after_surge_is_capacity_limited() {
        let mut q = FluidQueue::new(100.0, 10_000.0);
        q.step(secs(60), 200.0, 10);
        let backlog_before = q.backlog();
        let t = q.step(secs(10), 0.0, 10);
        assert!((backlog_before - t.backlog - 1_000.0).abs() < 1e-6);
    }

    #[test]
    fn materialize_rounds_and_zeroes() {
        // Overload fills the waiting room to a fractional backlog.
        let mut q = FluidQueue::new(10.0, 100.5);
        q.step(secs(100), 25.0, 10);
        let before = q.backlog();
        assert_eq!(before, 100.5);
        let mut rng = SimRng::seed(7);
        let n = q.materialize(&mut rng, 0);
        assert_eq!(q.backlog(), 0.0);
        assert!(
            (n as f64 - before).abs() < 1.0,
            "rounding stays within one request"
        );
        // Deterministic for a given lineage.
        let mut q2 = FluidQueue::new(10.0, 100.5);
        q2.step(secs(100), 25.0, 10);
        let mut rng2 = SimRng::seed(7);
        assert_eq!(q2.materialize(&mut rng2, 0), n);
    }

    #[test]
    #[should_panic(expected = "rate must be >= 0")]
    fn step_rejects_a_negative_rate() {
        let mut q = FluidQueue::new(10.0, 100.0);
        let _ = q.step(secs(1), -1.0, 1);
    }
}
