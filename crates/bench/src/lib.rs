//! # elc-bench — benchmark harness for the elearn-cloud experiments
//!
//! `benches/` holds `experiments` (every registry entry's `run`, timed
//! and printed), the ablations `a1`–`a4` (`a1_kernel`: binary-heap event
//! queue vs the naive baseline) and the gated `a5_hotpath`, all on the
//! dependency-free [`crit`] harness; the `sensitivity` binary
//! sweeps the calibration behind E1's cost crossover. Every table of the
//! reproduction is regenerated by `elc tables` in the root package.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crit;

use std::time::Duration;

use crit::Criterion;

/// A harness configuration tuned so the full bench suite completes in
/// a couple of minutes while still producing stable estimates.
#[must_use]
pub fn quick_criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
}

/// The seed the benches run at.
pub const HARNESS_SEED: u64 = 2013; // the paper's year
