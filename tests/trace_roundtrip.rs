//! Record → replay round-trip: a workload trace teed off a
//! generator-driven run reproduces that run's outputs byte for byte.
//!
//! Three invariants, end to end across crates:
//!
//! * recording is a pure observation — attaching a recorder never
//!   changes the run it captures;
//! * replaying the recorded trace reproduces the generator run's
//!   sections and metrics exactly (E12's Poisson-driven surge and E16's
//!   fluid resilience arms);
//! * a trace replays the demand curve, not the counts: consumers draw
//!   arrivals from their own seed lineage, so a replay at another seed
//!   equals the generator at that seed;
//! * replay stays byte-identical at any thread count (runner) and any
//!   shard count (E16's parallel arms), exactly like the generator path.

use std::sync::Arc;

use elearn_cloud::core::experiments::{e12, e16, find};
use elearn_cloud::core::Scenario;
use elearn_cloud::runner::progress::Silent;
use elearn_cloud::runner::{run, RunSpec};
use elearn_cloud::wltrace::{TraceRecorder, WorkloadTrace};

/// Runs `experiment` once with a recorder attached and returns the
/// rendered section plus the captured trace.
fn record(
    scenario: &Scenario,
    experiment: fn(&Scenario) -> String,
) -> (String, Arc<WorkloadTrace>) {
    let recorder = TraceRecorder::new();
    let mut recording = scenario.clone();
    recording.attach_recorder(recorder.clone());
    let section = experiment(&recording);
    let trace = recorder.finish().expect("the run created demand sources");
    (section, trace.into_shared())
}

fn e12_section(scenario: &Scenario) -> String {
    e12::run(scenario).section().to_string()
}

fn e16_section(scenario: &Scenario) -> String {
    e16::run(scenario).section().to_string()
}

#[test]
fn e12_replay_reproduces_the_generator_run_byte_for_byte() {
    let scenario = Scenario::university(42);
    let plain = e12_section(&scenario);
    let (recorded, trace) = record(&scenario, e12_section);
    assert_eq!(recorded, plain, "recording must not perturb the run");

    let replayed = scenario
        .with_workload_trace(Arc::clone(&trace))
        .expect("recorded trace validates");
    assert_eq!(e12_section(&replayed), plain, "replay = generator");
    // A second replay over the same scenario rebinds streams by time.
    assert_eq!(e12_section(&replayed), plain, "replay is repeatable");
}

#[test]
fn e12_replay_at_another_seed_equals_the_generator_at_that_seed() {
    let (_, trace) = record(&Scenario::university(42), e12_section);
    let replayed = Scenario::university(42)
        .with_workload_trace(trace)
        .expect("recorded trace validates")
        .with_seed(43);
    assert_eq!(
        e12_section(&replayed),
        e12_section(&Scenario::university(43)),
        "replay at seed 43 = generator at seed 43"
    );
}

#[test]
fn e16_replay_is_byte_identical_at_any_shard_count() {
    let scenario = Scenario::small_college(2013);
    let plain = e16_section(&scenario);
    let (recorded, trace) = record(&scenario, e16_section);
    assert_eq!(recorded, plain, "recording must not perturb the run");

    for shards in [1u32, 2, 4] {
        let replayed = scenario
            .with_shards(shards)
            .with_workload_trace(Arc::clone(&trace))
            .expect("recorded trace validates");
        assert_eq!(e16_section(&replayed), plain, "shards={shards}");
    }
}

#[test]
fn replayed_metrics_match_the_generator_metrics_exactly() {
    let scenario = Scenario::small_college(7);
    let plain = e12::run(&scenario).metrics();
    let (_, trace) = record(&scenario, e12_section);
    let replayed = scenario
        .with_workload_trace(trace)
        .expect("recorded trace validates");
    assert_eq!(e12::run(&replayed).metrics(), plain);
}

#[test]
fn runner_replay_is_byte_identical_at_any_thread_count() {
    let scenario = Scenario::small_college(11);
    let (_, trace) = record(&scenario, e12_section);
    let replayed = scenario
        .with_workload_trace(trace)
        .expect("recorded trace validates");
    let experiment = find("e12").expect("e12 is registered");

    // The manifest records wall-clock and thread count, so the invariant
    // covers the aggregate table (the runner's pure output), like the
    // generator path's guarantee.
    let report = |threads: usize| {
        let spec = RunSpec::new(experiment, replayed.clone(), 4).threads(threads);
        run(&spec, &mut Silent).aggregate_section().to_string()
    };
    let base = report(1);
    assert_eq!(report(2), base, "threads=2");
    assert_eq!(report(8), base, "threads=8");
}
