//! Host-time benchmark for elearn-cloud: three workloads timed end to
//! end, plus a traced run that times each layer from outside.
//!
//! ```sh
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload e18-event|report|sweep|all --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` a workload runs its checked iterations for `S`
//! seconds and reports the end-to-end metrics; with `--trace 1` the
//! traced run reports every per-layer metric. `--workload all` runs
//! every workload both ways. The last line of standard output is one
//! JSON object; the lines above it print every metric by name and unit.
//! The exit code is non-zero when any output check failed. See
//! `e2ebench/README.md`.

mod e18;
mod measure;
mod report;
mod spans;
mod sweep;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;

use elc_core::scenario::Scenario;

use measure::{
    median, peak_rss_mb, percentile, print_table, result_json, Checks, EndToEnd, Metric,
};
use spans::Spans;

const WORKLOADS: [&str; 3] = ["e18-event", "report", "sweep"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?} or all"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Runs one workload's end-to-end measurement.
fn end_to_end(workload: &str, seed: u64, seconds: f64) -> EndToEnd {
    match workload {
        "e18-event" => e18::end_to_end(seed, seconds),
        "report" => report::end_to_end(seed, seconds),
        "sweep" => sweep::end_to_end(seed, seconds),
        other => unreachable!("workload {other} was validated"),
    }
}

/// The contract metrics of an end-to-end run, then the figures printed
/// beside them. Contract timings are at reference host speed (see
/// [`measure::CAL_REF_S`]); the raw host-time figures are printed too.
fn end_to_end_metrics(run: &EndToEnd) -> (Vec<Metric>, Vec<Metric>) {
    let walls = &run.timed.walls;
    let ref_walls = run.timed.ref_walls();
    let n = walls.len() as f64;
    let total: f64 = walls.iter().sum();
    let ref_total: f64 = ref_walls.iter().sum();
    let contract = vec![
        Metric::new("setup_s", run.setup.ref_s, "s"),
        Metric::new("wall_ref_s.p50", median(&ref_walls), "s"),
        Metric::new("iters_per_ref_s", n / ref_total, "1/s"),
        Metric::new("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB"),
    ];
    let mut extra = vec![
        Metric::new("setup_s.raw", run.setup.median_s, "s"),
        Metric::new("wall_s.p50", median(walls), "s"),
    ];
    // A tail percentile needs at least ten samples beyond it.
    if walls.len() >= 100 {
        extra.push(Metric::new("wall_s.p90", percentile(walls, 0.9), "s"));
        extra.push(Metric::new(
            "wall_ref_s.p90",
            percentile(&ref_walls, 0.9),
            "s",
        ));
    }
    extra.push(Metric::new("wall_s.n", n, "count"));
    extra.push(Metric::new("iters_per_s", n / total, "1/s"));
    if let Some((unit, per_iter)) = run.work {
        extra.push(Metric::new(format!("{unit}_per_iter"), per_iter, "count"));
        extra.push(Metric::new(
            format!("{unit}_per_s"),
            per_iter * n / total,
            "1/s",
        ));
        extra.push(Metric::new(
            format!("{unit}_per_ref_s"),
            per_iter * n / ref_total,
            "1/s",
        ));
    }
    extra.push(Metric::new("host.cal_s.p50", median(&run.timed.cals), "s"));
    extra.push(Metric::new(
        "failed_frac",
        run.checks.failed as f64 / run.checks.attempted.max(1) as f64,
        "frac",
    ));
    extra.extend(run.extra.iter().cloned());
    (contract, extra)
}

/// The traced run: every section, round after round until `seconds`
/// have passed; each per-layer metric is the median over rounds.
fn traced(seed: u64, seconds: f64, spans_out: &str) -> (Vec<Metric>, Checks) {
    let mut checks = Checks::default();
    let evening = e18::Evening::setup(seed);
    let e18_reference = evening.iteration();
    checks.check(
        evening.ledger_ok(&e18_reference),
        "e18: untimed run's ledger does not balance",
    );
    let scenarios = report::scenarios(seed);
    let report_reference = report::reference(&scenarios, seed, &mut checks);
    let specs = sweep::specs(seed);
    let sweep_reference = sweep::reference(seed);

    let mut spans = Spans::new();
    let mut values: BTreeMap<String, (Vec<f64>, &'static str)> = BTreeMap::new();
    let mut order: Vec<String> = Vec::new();
    let mut record = |metrics: Vec<Metric>| {
        for m in metrics {
            let slot = values.entry(m.name.clone()).or_insert_with(|| {
                order.push(m.name.clone());
                (Vec::new(), m.unit)
            });
            slot.0.push(m.value);
        }
    };
    let start = Instant::now();
    let mut round = 0u32;
    while round == 0 || start.elapsed().as_secs_f64() < seconds {
        record(vec![
            Metric::new("host.cal_s", measure::calibrate(), "s"),
            Metric::new(
                "core.scenario_build_s",
                scenario_builds(seed, &mut spans, round),
                "s",
            ),
        ]);
        let (m, traced_s, untraced_s) =
            e18::traced_round(&evening, &e18_reference, &mut spans, round, &mut checks);
        record(m);
        record(overhead("e18-event", traced_s, untraced_s));
        let (m, traced_s, untraced_s) = report::traced_round(
            &scenarios,
            &report_reference,
            &mut spans,
            round,
            &mut checks,
        );
        record(m);
        record(overhead("report", traced_s, untraced_s));
        let (m, traced_s, untraced_s) = sweep::traced_round(
            seed,
            &specs,
            &sweep_reference,
            &mut spans,
            round,
            &mut checks,
        );
        record(m);
        record(overhead("sweep", traced_s, untraced_s));
        round += 1;
    }
    record(vec![
        Metric::new("trace.rounds", f64::from(round), "count"),
        Metric::new("trace.spans", spans.len() as f64, "count"),
    ]);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(spans_out);
    match spans.write_tsv(&path) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
    let metrics = order
        .iter()
        .map(|name| {
            let (v, unit) = &values[name];
            Metric::new(name.clone(), median(v), unit)
        })
        .collect();
    (metrics, checks)
}

/// Wall time of one traced iteration next to one untraced iteration of
/// the same work.
fn overhead(workload: &str, traced_s: f64, untraced_s: f64) -> Vec<Metric> {
    vec![
        Metric::new(format!("spans.{workload}.traced_s"), traced_s, "s"),
        Metric::new(format!("spans.{workload}.untraced_s"), untraced_s, "s"),
        Metric::new(
            format!("spans.{workload}.overhead"),
            traced_s / untraced_s,
            "x",
        ),
    ]
}

/// Builds every scenario the workloads use, with its workload source;
/// returns the summed wall time.
fn scenario_builds(seed: u64, spans: &mut Spans, round: u32) -> f64 {
    let from = spans.mark();
    let ctors: [fn(u64) -> Scenario; 5] = [
        Scenario::small_college,
        Scenario::rural_learners,
        Scenario::university,
        Scenario::national_platform,
        Scenario::national_5m,
    ];
    for ctor in ctors {
        spans.span("core.scenario_build", round, |_| {
            let s = ctor(seed);
            std::hint::black_box(s.workload());
            s
        });
    }
    spans.total_s(from, "core.scenario_build")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("usage: e2ebench --workload e18-event|report|sweep|all --seed N [--seconds S] [--trace 0|1]");
            exit(2);
        }
    };
    let mut checks = Checks::default();
    let mut json_metrics = Vec::new();
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let all = args.workload == "all";
    if !args.trace || all {
        for w in &workloads {
            let run = end_to_end(w, args.seed, args.seconds);
            checks.add(run.checks);
            let (contract, extra) = end_to_end_metrics(&run);
            print_table(w, &contract);
            print_table(w, &extra);
            json_metrics.extend(contract.into_iter().map(|m| {
                if all {
                    Metric::new(format!("{w}/{}", m.name), m.value, m.unit)
                } else {
                    m
                }
            }));
        }
    }
    if args.trace || all {
        let out = format!("spans-{}-seed{}.tsv", args.workload, args.seed);
        let (metrics, traced_checks) = traced(args.seed, args.seconds, &out);
        checks.add(traced_checks);
        print_table("traced", &metrics);
        json_metrics.extend(metrics);
    }
    for m in &json_metrics {
        checks.check(
            m.value.is_finite(),
            &format!("metric {} is not a finite number", m.name),
        );
    }
    println!("{}", result_json(checks, &json_metrics));
    if checks.failed > 0 {
        exit(1);
    }
}
