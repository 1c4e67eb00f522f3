//! Fluid / mean-field fast path for million-student scale.
//!
//! The event-level simulator represents every request as an individual
//! event — exact, but bounded by events/sec. This crate adds the other
//! fidelity for one pooled serving station (E18's): its queue becomes a
//! **fluid state variable** (backlog, with cumulative offered, served
//! and shed flow) integrated with a fixed-step flow solver on coarse
//! ticks, fed by `WorkloadSource` rates (`rate_at`) instead of sampled
//! arrivals. A day of five million students then costs one flow update
//! per tick instead of tens of billions of events.
//!
//! Three fidelities ([`Fidelity`]), stepped by one tick loop
//! ([`engine::run`]):
//!
//! * **event** — the exact per-request discrete-event path (default;
//!   byte-identical to the pre-fluid simulator),
//! * **fluid** — pure flow integration ([`FluidQueue`]),
//! * **auto** — fluid while the station is in statistical steady state,
//!   transparently *materialized* back to event level
//!   ([`FluidQueue::materialize`]) when a surge boundary or the
//!   utilization threshold demands per-request fidelity.
//!
//! Determinism: materialization converts fractional backlog to whole
//! waiting requests through the station's own [`SimRng`] lineage
//! (floor plus one Bernoulli draw), so a given seed produces the same
//! requests regardless of wall-clock or thread count. Fidelity
//! transitions emit `fluid.switch` / `fluid.materialize` trace events
//! under the [`TRACE_TARGET`] target. See DESIGN.md §4h.
//!
//! [`SimRng`]: elc_simcore::rng::SimRng

mod control;
pub mod engine;
pub mod fidelity;
pub mod queue;
mod station;
#[cfg(test)]
mod station_oracle;

pub use engine::{EngineConfig, EngineReport};
pub use fidelity::{Fidelity, FidelityParseError};
pub use queue::{FlowTick, FluidQueue};

/// Trace target for fidelity transitions (`fluid.switch`,
/// `fluid.materialize`).
pub const TRACE_TARGET: &str = "fluid";
