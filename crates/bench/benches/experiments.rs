//! Experiment-suite bench — every registry entry's `run`, timed on one
//! scenario, with its section printed once.
//!
//! Walks [`registry`] on the university scenario, so a new experiment is
//! benched (and its table regenerated) the moment it is registered. E18
//! runs at auto fidelity: at event fidelity one university run executes
//! about 96M kernel events (~30 s), a cost e2ebench's `e18-event`
//! workload measures end to end.

use elc_bench::crit::{criterion_group, criterion_main, Criterion};
use elc_bench::{quick_criterion, HARNESS_SEED};
use elc_core::experiments::registry;
use elc_core::scenario::Scenario;
use elc_fluid::Fidelity;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("experiments");
    for e in registry() {
        let scenario = Scenario::university(HARNESS_SEED);
        let scenario = if e.id() == "e18" {
            scenario.with_fidelity(Fidelity::Auto)
        } else {
            scenario
        };
        g.bench_function(e.id(), |b| b.iter(|| e.run(black_box(&scenario))));
        println!("\n{}", e.run(&scenario).section);
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench
}
criterion_main!(benches);
