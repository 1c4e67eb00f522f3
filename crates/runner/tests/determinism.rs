//! The subsystem's headline property: parallel/serial equivalence.
//!
//! A replicated run's aggregate section must render byte-identically for
//! any worker-thread count, because each replication is a pure function of
//! `(scenario, derived seed)` and aggregation happens in replication-index
//! order. These tests pin the property at 1, 2 and 8 threads, across
//! stochastic experiments and scenarios.

use elc_core::experiments::find;
use elc_core::scenario::Scenario;
use elc_runner::progress::Silent;
use elc_runner::{run, RunSpec};

/// Renders the thread-count-invariant artifact for one configuration.
fn aggregate_bytes(
    experiment: &str,
    scenario: Scenario,
    replications: u32,
    threads: usize,
) -> String {
    let spec = RunSpec::new(find(experiment).unwrap(), scenario, replications).threads(threads);
    run(&spec, &mut Silent).aggregate_section().to_string()
}

#[test]
fn aggregates_are_byte_identical_at_1_2_and_8_threads() {
    // E7 (outage process) and E6 (attack campaign) are the most
    // RNG-hungry experiments — exactly where a seed-derivation or
    // ordering bug would surface.
    for experiment in ["e06", "e07"] {
        let serial = aggregate_bytes(experiment, Scenario::small_college(42), 6, 1);
        for threads in [2, 8] {
            let parallel = aggregate_bytes(experiment, Scenario::small_college(42), 6, threads);
            assert_eq!(
                serial, parallel,
                "{experiment} aggregates diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn e16_chaos_aggregates_are_byte_identical_at_1_2_and_8_threads() {
    // E16 drives the whole resilience stack (chaos timeline, breaker,
    // failover, retry jitter) from derived seeds — the experiment with
    // the most RNG lineages to get wrong. Run it under an explicit
    // campaign so the chaos-spec path is exercised end to end.
    let spec: elc_resil::chaos::ChaosSpec = "storm@0.3:n=4,mins=6;cascade@0.55:n=3;disaster@0.79"
        .parse()
        .unwrap();
    let scenario = Scenario::university(42).with_chaos(spec);
    let serial = aggregate_bytes("e16", scenario.clone(), 6, 1);
    for threads in [2, 8] {
        let parallel = aggregate_bytes("e16", scenario.clone(), 6, threads);
        assert_eq!(
            serial, parallel,
            "e16 aggregates diverged at {threads} threads"
        );
    }
}

#[test]
fn e17_chaos_aggregates_are_byte_identical_at_1_2_and_8_threads() {
    // E17 layers the serverless platform (cold-start sampling per grant,
    // keepalive reaping, cascade kills) on top of the chaos timeline —
    // two fresh RNG lineages whose consumption order must not depend on
    // worker scheduling.
    let spec: elc_resil::chaos::ChaosSpec = "storm@0.3:n=4,mins=6;cascade@0.55:n=3;disaster@0.79"
        .parse()
        .unwrap();
    let scenario = Scenario::university(42).with_chaos(spec);
    let serial = aggregate_bytes("e17", scenario.clone(), 6, 1);
    for threads in [2, 8] {
        let parallel = aggregate_bytes("e17", scenario.clone(), 6, threads);
        assert_eq!(
            serial, parallel,
            "e17 aggregates diverged at {threads} threads"
        );
    }
}

#[test]
fn e19_drill_aggregates_are_byte_identical_at_1_2_and_8_threads() {
    // E19 fans five DR arms through `shard::run_jobs` and integrates
    // replication lag over warmed-up links; the drill must land on the
    // same bytes however the workers are scheduled.
    let spec: elc_resil::chaos::ChaosSpec = "regionloss@0.5:region=0,mins=45".parse().unwrap();
    let scenario = Scenario::university(42).with_chaos(spec);
    let serial = aggregate_bytes("e19", scenario.clone(), 6, 1);
    for threads in [2, 8] {
        let parallel = aggregate_bytes("e19", scenario.clone(), 6, threads);
        assert_eq!(
            serial, parallel,
            "e19 aggregates diverged at {threads} threads"
        );
    }
}

#[test]
fn e19_drill_aggregates_are_byte_identical_at_1_2_and_4_shards() {
    let spec: elc_resil::chaos::ChaosSpec = "regionloss@0.5:region=0,mins=45".parse().unwrap();
    let scenario = Scenario::university(42).with_chaos(spec);
    let single = aggregate_bytes("e19", scenario.with_shards(1), 6, 2);
    for shards in [2, 4] {
        let sharded = aggregate_bytes("e19", scenario.with_shards(shards), 6, 2);
        assert_eq!(
            single, sharded,
            "e19 aggregates diverged at {shards} shards"
        );
    }
}

#[test]
fn e16_and_e17_chaos_aggregates_are_byte_identical_at_1_2_and_4_shards() {
    // The shard count must be as invisible as the thread count: e16 and
    // e17 fan their arms through `shard::run_jobs`, each arm with its
    // own RNG lineage, so results are reassembled in arm order no matter
    // which worker group ran them. Pinned under the full chaos campaign
    // so the shard split composes with fault injection.
    let spec: elc_resil::chaos::ChaosSpec = "storm@0.3:n=4,mins=6;cascade@0.55:n=3;disaster@0.79"
        .parse()
        .unwrap();
    for experiment in ["e16", "e17"] {
        let scenario = Scenario::university(42).with_chaos(spec.clone());
        let single = aggregate_bytes(experiment, scenario.with_shards(1), 6, 2);
        for shards in [2, 4] {
            let sharded = aggregate_bytes(experiment, scenario.with_shards(shards), 6, 2);
            assert_eq!(
                single, sharded,
                "{experiment} aggregates diverged at {shards} shards"
            );
        }
    }
}

#[test]
fn equivalence_holds_on_a_harsher_scenario() {
    let serial = aggregate_bytes("e09", Scenario::rural_learners(2013), 8, 1);
    let parallel = aggregate_bytes("e09", Scenario::rural_learners(2013), 8, 8);
    assert_eq!(serial, parallel);
}

#[test]
fn different_base_seeds_change_the_aggregates() {
    // Sanity check that the property above is not vacuous: the pipeline
    // must actually respond to the base seed.
    let a = aggregate_bytes("e07", Scenario::small_college(1), 4, 2);
    let b = aggregate_bytes("e07", Scenario::small_college(2), 4, 2);
    assert_ne!(a, b, "aggregates ignored the base seed");
}

#[test]
fn replication_count_is_reported_in_the_section() {
    let text = aggregate_bytes("e09", Scenario::small_college(42), 5, 2);
    assert!(text.contains("5 replications"), "{text}");
    assert!(text.contains("ci95"));
}

/// Renders the replicated run's full JSONL trace, one tracer per
/// replication, labelled with its index — the artifact `elc run --trace`
/// writes.
fn trace_bytes(threads: usize) -> String {
    let spec = RunSpec::new(find("e09").unwrap(), Scenario::small_college(42), 8)
        .threads(threads)
        .trace(elc_trace::TraceFilter::default());
    let outcome = run(&spec, &mut Silent);
    assert_eq!(outcome.traces.len(), 8, "one trace per replication");
    let mut out = String::new();
    for (i, tracer) in outcome.traces.iter().enumerate() {
        out.push_str(&elc_trace::export::jsonl_string(
            tracer,
            &[("rep", &i.to_string())],
        ));
    }
    out
}

#[test]
fn traces_are_byte_identical_at_1_and_8_threads() {
    let serial = trace_bytes(1);
    let parallel = trace_bytes(8);
    assert_eq!(serial, parallel, "traces diverged across thread counts");
    // The trace must cross every layer of the stack.
    for target in ["simcore", "cloud", "net", "elearn"] {
        assert!(
            serial.contains(&format!("\"target\":\"{target}\"")),
            "trace missing target {target:?}"
        );
    }
}

#[test]
fn untraced_runs_carry_no_tracers() {
    let spec = RunSpec::new(find("e09").unwrap(), Scenario::small_college(42), 2);
    assert!(run(&spec, &mut Silent).traces.is_empty());
}
