//! Fluid / mean-field fast path for million-student scale.
//!
//! The event-level simulator represents every request as an individual
//! event — exact, but bounded by events/sec. This crate adds the other
//! fidelity: each queueing component (a VM serving pool, a FaaS invoker,
//! a network link) becomes a set of per-class **fluid state variables**
//! (arrival rate, backlog, service capacity) integrated with a fixed-step
//! flow solver on coarse ticks, fed by `WorkloadSource` rates
//! (`rate_at`) instead of sampled arrivals. A day of five
//! million students then costs one flow update per tick instead of tens
//! of billions of events.
//!
//! Three fidelities ([`Fidelity`]):
//!
//! * **event** — the exact per-request discrete-event path (default;
//!   byte-identical to the pre-fluid simulator),
//! * **fluid** — pure flow integration ([`FluidQueue`]),
//! * **auto** — fluid while a component is in statistical steady state,
//!   transparently *materialized* back to event level
//!   ([`FluidQueue::materialize`], driven by [`FidelityController`]) when
//!   a chaos campaign, breaker transition, autoscale decision boundary or
//!   utilization threshold demands per-request fidelity.
//!
//! Determinism: materialization converts fractional backlog to integer
//! in-flight requests through the component's own [`SimRng`] lineage
//! (floor plus one Bernoulli draw per class), so a given seed produces
//! the same requests regardless of wall-clock or thread count. Fidelity
//! transitions emit `fluid.switch` / `fluid.materialize` trace events
//! under the [`TRACE_TARGET`] target. See DESIGN.md §4h.
//!
//! [`SimRng`]: elc_simcore::rng::SimRng

pub mod control;
pub mod engine;
pub mod fidelity;
pub mod queue;
mod station;
#[cfg(test)]
mod station_oracle;

pub use control::{FidelityController, Mode, Signals, SwitchReason};
pub use engine::{EngineConfig, EngineReport};
pub use fidelity::{Fidelity, FidelityParseError};
pub use queue::{FlowTick, FluidQueue};

/// Trace target for fidelity transitions (`fluid.switch`,
/// `fluid.materialize`).
pub const TRACE_TARGET: &str = "fluid";
