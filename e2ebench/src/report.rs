//! The `report` workload: the `paper-tables` pipeline for the four
//! harness scenarios, in process and without writing files.
//!
//! One iteration is one pass over small-college, rural-learners,
//! university and national-platform. For each scenario it runs E1–E15
//! (what `run_all` runs), E16, E17 and E19, derives T1 and the T1F
//! column, renders every section, the two figures and the three advisor
//! verdicts, and produces each section's CSV text — everything
//! `paper-tables` prints or writes.

use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use elc_analysis::plot::line_chart;
use elc_core::advisor::advise;
use elc_core::experiments::{
    e01, e02, e03, e04, e05, e06, e07, e08, e09, e10, e11, e12, e13, e14, e15, e16, e17, e19,
    SuiteOutputs,
};
use elc_core::requirements::Requirements;
use elc_core::scenario::Scenario;

use crate::measure::{median, setup_median, timed_loop, Checks, EndToEnd, Metric};
use crate::spans::{Hook, Off, On, Spans};

/// The seed the report goldens were captured at.
const GOLDEN_SEED: u64 = 42;

/// The scenarios `paper-tables` reports on, smallest first.
pub fn scenarios(seed: u64) -> Vec<Scenario> {
    vec![
        Scenario::small_college(seed),
        Scenario::rural_learners(seed),
        Scenario::university(seed),
        Scenario::national_platform(seed),
    ]
}

/// Everything one scenario's report produces, as text.
#[derive(Debug, PartialEq)]
pub struct Output {
    report: String,
    e16: String,
    e17_t1f: String,
    e19: String,
    figures: String,
    advisor: String,
    csv: Vec<String>,
}

/// One scenario's report, with a span around each layer call.
fn scenario_report(scenario: &Scenario, h: &mut impl Hook) -> Output {
    let outputs = SuiteOutputs {
        e01: h.span("core.e01", || e01::run(scenario)),
        e02: h.span("core.e02", || e02::run(scenario)),
        e03: h.span("core.e03", || e03::run(scenario)),
        e04: h.span("core.e04", || e04::run(scenario)),
        e05: h.span("core.e05", || e05::run(scenario)),
        e06: h.span("core.e06", || e06::run(scenario)),
        e07: h.span("core.e07", || e07::run(scenario)),
        e08: h.span("core.e08", || e08::run(scenario)),
        e09: h.span("core.e09", || e09::run(scenario)),
        e10: h.span("core.e10", || e10::run(scenario)),
        e11: h.span("core.e11", || e11::run(scenario)),
        e12: h.span("core.e12", || e12::run(scenario)),
        e13: h.span("core.e13", || e13::run(scenario)),
        e14: h.span("core.e14", || e14::run(scenario)),
        e15: h.span("core.e15", || e15::run(scenario)),
    };
    let resilience = h.span("core.e16", || e16::run(scenario));
    let serverless = h.span("core.e17", || e17::run(scenario));
    let recovery = h.span("core.e19", || e19::run(scenario));
    let metrics = h.span("core.t1", || outputs.metrics());
    let t1f = h.span("core.t1f", || {
        e17::FaasColumn::derive(scenario, &metrics, &serverless)
    });
    let advisor = h.span("core.advisor", || {
        [
            ("startup-program", Requirements::startup_program()),
            ("exam-authority", Requirements::exam_authority()),
            ("balanced-university", Requirements::balanced_university()),
        ]
        .iter()
        .map(|(label, reqs)| format!("[advisor/{label}] {}\n", advise(reqs, &metrics)))
        .collect::<String>()
    });
    let (sections, out) = h.span("analysis.render", || {
        let report = outputs.report();
        let sections = (
            report,
            resilience.section(),
            serverless.section(),
            recovery.section(),
            t1f.section(&metrics),
        );
        let out = Output {
            report: sections.0.to_string(),
            e16: sections.1.to_string(),
            e17_t1f: format!("{}{}", sections.2, sections.4),
            e19: sections.3.to_string(),
            figures: figures(&outputs),
            advisor,
            csv: Vec::new(),
        };
        (sections, out)
    });
    let csv = h.span("analysis.csv", || {
        let (report, e16, e17, e19, t1f) = &sections;
        report
            .sections()
            .iter()
            .chain([e16, e17, e19, t1f])
            .map(|s| s.table().to_csv())
            .collect()
    });
    Output { csv, ..out }
}

/// Figures F1 and F2 as `paper-tables` draws them.
fn figures(outputs: &SuiteOutputs) -> String {
    let e1: Vec<Vec<(f64, f64)>> = (0..3)
        .map(|m| {
            outputs
                .e01
                .rows
                .iter()
                .map(|r| (f64::from(r.students).log10(), r.totals[m].amount()))
                .collect()
        })
        .collect();
    let e13: Vec<(f64, f64)> = outputs
        .e13
        .sweep
        .iter()
        .map(|a| (f64::from(a.members), a.per_member_tco.amount()))
        .collect();
    format!(
        "{}\n{}",
        line_chart(
            &[("public", &e1[0]), ("private", &e1[1]), ("hybrid", &e1[2])],
            56,
            12
        ),
        line_chart(&[("community", &e13)], 56, 10)
    )
}

/// The golden captures for one scenario, as the golden tests render
/// them: the report, E16, E17 followed by T1F, and E19.
fn goldens(scenario: &Scenario) -> Result<[String; 4], String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../tests/golden");
    let read = |kind: &str| {
        let path = dir.join(format!(
            "paper_tables{kind}_seed{GOLDEN_SEED}_{}.txt",
            scenario.name()
        ));
        fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    };
    Ok([read("")?, read("_e16")?, read("_e17")?, read("_e19")?])
}

/// The untimed first pass every timed pass must reproduce byte for
/// byte. At the golden seed it must also equal the golden captures.
pub fn reference(scenarios: &[Scenario], seed: u64, checks: &mut Checks) -> Vec<Output> {
    let outs: Vec<Output> = scenarios
        .iter()
        .map(|s| scenario_report(s, &mut Off))
        .collect();
    if seed == GOLDEN_SEED {
        for (s, out) in scenarios.iter().zip(&outs) {
            let ok = match goldens(s) {
                Ok([report, e16, e17_t1f, e19]) => {
                    out.report == report
                        && out.e16 == e16
                        && out.e17_t1f == e17_t1f
                        && out.e19 == e19
                }
                Err(e) => {
                    eprintln!("{e}");
                    false
                }
            };
            checks.check(
                ok,
                &format!("report: {} differs from its golden capture", s.name()),
            );
        }
    }
    outs
}

/// The end-to-end run: one iteration is one pass over the four
/// scenarios.
pub fn end_to_end(seed: u64, seconds: f64) -> EndToEnd {
    let (setup, scenarios) = setup_median(|| scenarios(seed));
    let mut checks = Checks::default();
    let reference = reference(&scenarios, seed, &mut checks);
    let mut per_scenario = vec![Vec::new(); scenarios.len()];
    let timed = timed_loop(seconds, || {
        let mut outs = Vec::with_capacity(scenarios.len());
        let mut wall = 0.0;
        for (s, times) in scenarios.iter().zip(&mut per_scenario) {
            let t = Instant::now();
            outs.push(scenario_report(s, &mut Off));
            let dt = t.elapsed().as_secs_f64();
            times.push(dt);
            wall += dt;
        }
        checks.check(
            outs == reference,
            "report: pass differs from the untimed pass",
        );
        wall
    });
    let extra = scenarios
        .iter()
        .zip(&per_scenario)
        .map(|(s, times)| Metric::new(format!("wall_s.p50.{}", s.name()), median(times), "s"))
        .collect();
    EndToEnd {
        setup,
        timed,
        checks,
        work: None,
        extra,
    }
}

/// Experiments whose `run` the traced pass times.
const EXPERIMENT_SPANS: [&str; 18] = [
    "core.e01", "core.e02", "core.e03", "core.e04", "core.e05", "core.e06", "core.e07", "core.e08",
    "core.e09", "core.e10", "core.e11", "core.e12", "core.e13", "core.e14", "core.e15", "core.e16",
    "core.e17", "core.e19",
];

/// One round of the traced run's report section: an untraced pass,
/// then a traced pass with one span per layer call. Returns the
/// per-layer metrics plus the traced and untraced pass walls.
pub fn traced_round(
    scenarios: &[Scenario],
    reference: &[Output],
    spans: &mut Spans,
    round: u32,
    checks: &mut Checks,
) -> (Vec<Metric>, f64, f64) {
    let t = Instant::now();
    let untraced: Vec<Output> = scenarios
        .iter()
        .map(|s| scenario_report(s, &mut Off))
        .collect();
    let untraced_s = t.elapsed().as_secs_f64();
    checks.check(
        untraced == reference,
        "report: untraced pass differs from the untimed pass",
    );

    let from = spans.mark();
    let traced = spans.span("report.pass", round, |spans| {
        scenarios
            .iter()
            .zip(0..)
            .map(|(s, i)| {
                spans.span("report.scenario", i, |spans| {
                    scenario_report(s, &mut On { spans, iter: i })
                })
            })
            .collect::<Vec<_>>()
    });
    checks.check(
        traced == reference,
        "report: traced pass differs from the untimed pass",
    );

    let mut metrics: Vec<Metric> = EXPERIMENT_SPANS
        .iter()
        .map(|name| Metric::new(format!("{name}_s"), spans.total_s(from, name), "s"))
        .collect();
    for name in [
        "core.t1",
        "core.t1f",
        "core.advisor",
        "analysis.render",
        "analysis.csv",
    ] {
        metrics.push(Metric::new(
            format!("{name}_s"),
            spans.total_s(from, name),
            "s",
        ));
    }
    metrics.push(Metric::new(
        "spans.report.unattributed_s",
        spans.self_s(from, "report.scenario"),
        "s",
    ));
    (metrics, spans.total_s(from, "report.pass"), untraced_s)
}
