//! The `sweep` workload: replicated runs through `elc_runner` at two
//! threads, on the runner's metrics-only path.
//!
//! One iteration is one round: a replicated run of each spec below
//! (E04, E07, E12, E16, E17 and E19 at `university`, E18 at
//! `national-5m` with its preset auto fidelity) and the rendering of
//! its aggregate section.

use std::time::Instant;

use elc_core::experiments::{e18, find};
use elc_core::scenario::Scenario;
use elc_runner::progress::Silent;
use elc_runner::{aggregate, pool, RunManifest, RunOutcome, RunSpec};
use elc_trace::TraceFilter;

use crate::measure::{median, setup_median, timed_loop, Checks, EndToEnd, Metric};
use crate::spans::Spans;

/// Worker threads for every replicated run.
const THREADS: usize = 2;

/// `(experiment, scenario, replications)` per spec. The slow specs get
/// two replications per worker, the fast ones more, so no spec's round
/// is dominated by thread start-up.
const SPECS: [(&str, &str, u32); 7] = [
    ("e04", "university", 4),
    ("e07", "university", 16),
    ("e12", "university", 16),
    ("e16", "university", 16),
    ("e17", "university", 4),
    ("e19", "university", 16),
    ("e18", "national-5m", 16),
];

/// Replications of the spec timed with tracing on and off.
const TRACE_SPEC: (&str, &str, u32) = ("e17", "university", 4);

fn scenario(name: &str, seed: u64) -> Scenario {
    match name {
        "university" => Scenario::university(seed),
        "national-5m" => Scenario::national_5m(seed),
        other => unreachable!("no sweep scenario {other}"),
    }
}

fn spec((id, name, reps): (&str, &str, u32), seed: u64, threads: usize) -> RunSpec {
    let experiment = find(id).expect("sweep experiments are registered");
    RunSpec::new(experiment, scenario(name, seed), reps).threads(threads)
}

/// Every spec at [`THREADS`].
pub fn specs(seed: u64) -> Vec<RunSpec> {
    SPECS.iter().map(|&s| spec(s, seed, THREADS)).collect()
}

/// Replications in one round.
fn round_reps() -> u32 {
    SPECS.iter().map(|s| s.2).sum()
}

/// What a round must reproduce: each spec's aggregate section from a
/// one-thread run.
pub fn reference(seed: u64) -> Vec<String> {
    SPECS
        .iter()
        .map(|&s| aggregate_text(&spec(s, seed, 1)))
        .collect()
}

fn aggregate_text(spec: &RunSpec) -> String {
    elc_runner::run(spec, &mut Silent)
        .aggregate_section()
        .to_string()
}

fn round(specs: &[RunSpec]) -> Vec<String> {
    specs.iter().map(aggregate_text).collect()
}

/// The end-to-end run: one iteration is one round over every spec.
pub fn end_to_end(seed: u64, seconds: f64) -> EndToEnd {
    let (setup, specs) = setup_median(|| specs(seed));
    let mut checks = Checks::default();
    let reference = reference(seed);
    let timed = timed_loop(seconds, || {
        let t = Instant::now();
        let texts = round(&specs);
        let wall = t.elapsed().as_secs_f64();
        checks.check(
            texts == reference,
            "sweep: aggregate differs from the 1-thread run",
        );
        wall
    });
    EndToEnd {
        setup,
        timed,
        checks,
        work: Some(("reps", f64::from(round_reps()))),
        extra: vec![Metric::new("threads", THREADS as f64, "count")],
    }
}

/// One round of the traced run's sweep section: an untraced round, a
/// traced round with spans around `run_tasks` and `aggregate`, E18's
/// national auto run, and the tracing-on/off pair. Returns the
/// per-layer metrics plus the traced and untraced round walls.
pub fn traced_round(
    seed: u64,
    specs: &[RunSpec],
    reference: &[String],
    spans: &mut Spans,
    round_id: u32,
    checks: &mut Checks,
) -> (Vec<Metric>, f64, f64) {
    let t = Instant::now();
    let untraced = round(specs);
    let untraced_s = t.elapsed().as_secs_f64();
    checks.check(
        untraced == reference,
        "sweep: untraced round differs from the 1-thread run",
    );

    let from = spans.mark();
    let mut task_s = Vec::with_capacity(specs.len());
    let mut busy = 0.0;
    let texts: Vec<String> = spans.span("sweep.round", round_id, |spans| {
        specs
            .iter()
            .zip(0..)
            .map(|(spec, i)| {
                let mark = spans.mark();
                let results = spans.span("runner.run_tasks", i, |_| {
                    pool::run_tasks(spec, &mut Silent)
                });
                let run_wall =
                    std::time::Duration::from_secs_f64(spans.total_s(mark, "runner.run_tasks"));
                let (summaries, dropped) =
                    spans.span("runner.aggregate", i, |_| aggregate::aggregate(&results));
                let walls: Vec<f64> = results.iter().map(|r| r.wall.as_secs_f64()).collect();
                busy += walls.iter().sum::<f64>();
                task_s.push(median(&walls));
                let outcome = RunOutcome {
                    summaries,
                    dropped,
                    traces: Vec::new(),
                    manifest: RunManifest::new(spec, &results, run_wall),
                };
                spans.span("analysis.render_aggregate", i, |_| {
                    outcome.aggregate_section().to_string()
                })
            })
            .collect()
    });
    checks.check(
        texts == reference,
        "sweep: traced round differs from the 1-thread run",
    );

    let run_tasks_s = spans.total_s(from, "runner.run_tasks");
    let mut metrics = vec![
        Metric::new("runner.run_tasks_s", run_tasks_s, "s"),
        Metric::new(
            "runner.aggregate_s",
            spans.total_s(from, "runner.aggregate"),
            "s",
        ),
        Metric::new(
            "runner.busy_frac",
            busy / (run_tasks_s * THREADS as f64),
            "frac",
        ),
        Metric::new(
            "spans.sweep.unattributed_s",
            spans.self_s(from, "sweep.round"),
            "s",
        ),
    ];
    for ((id, _, _), s) in SPECS.iter().zip(&task_s) {
        metrics.push(Metric::new(format!("runner.task_s.{id}"), *s, "s"));
    }
    metrics.extend(national_auto(seed, spans, round_id, checks));
    metrics.extend(trace_on_off(seed, checks));
    (metrics, spans.total_s(from, "sweep.round"), untraced_s)
}

/// E18 at national-5m, auto fidelity: wall time of `e18::run` (median of
/// nine) and the share of ticks integrated as fluid.
fn national_auto(seed: u64, spans: &mut Spans, iter: u32, checks: &mut Checks) -> Vec<Metric> {
    let scenario = Scenario::national_5m(seed);
    let mut walls = Vec::new();
    let outs: Vec<_> = (0..9)
        .map(|_| {
            let t = Instant::now();
            let out = spans.span("fluid.auto_run", iter, |_| e18::run(&scenario));
            walls.push(t.elapsed().as_secs_f64());
            out
        })
        .collect();
    checks.check(
        outs.windows(2).all(|w| w[0] == w[1]),
        "sweep: national-5m auto runs differ between repeats",
    );
    let rows = &outs[0].rows;
    let fluid: u64 = rows.iter().map(|r| r.report.fluid_ticks).sum();
    let all: u64 = rows
        .iter()
        .map(|r| r.report.fluid_ticks + r.report.event_ticks)
        .sum();
    vec![
        Metric::new("fluid.auto_run_s", median(&walls), "s"),
        Metric::new("fluid.fluid_tick_frac", fluid as f64 / all as f64, "frac"),
    ]
}

/// One sweep spec run with `RunSpec::trace` off and on (runner default
/// filter, in-memory traces). Tracing must not change the aggregate.
fn trace_on_off(seed: u64, checks: &mut Checks) -> Vec<Metric> {
    let off_spec = spec(TRACE_SPEC, seed, THREADS);
    let t = Instant::now();
    let off = elc_runner::run(&off_spec, &mut Silent);
    let off_s = t.elapsed().as_secs_f64();
    let on_spec = spec(TRACE_SPEC, seed, THREADS).trace(TraceFilter::default());
    let t = Instant::now();
    let on = elc_runner::run(&on_spec, &mut Silent);
    let on_s = t.elapsed().as_secs_f64();
    checks.check(
        on.aggregate_section().to_string() == off.aggregate_section().to_string(),
        "sweep: tracing changed the aggregate",
    );
    vec![
        Metric::new("trace.on_overhead", on_s / off_s, "x"),
        Metric::new("trace.off_s", off_s, "s"),
        Metric::new("trace.on_s", on_s, "s"),
        Metric::new("trace.reps", f64::from(TRACE_SPEC.2), "count"),
        Metric::new(
            "trace.on_events",
            on.traces.iter().map(|t| t.len() as f64).sum(),
            "count",
        ),
    ]
}
