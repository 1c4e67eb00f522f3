//! Regenerates every table of the reproduction (E1–E15, T1, plus the E16
//! resilience, E17 serverless and E19 disaster-recovery appendices) for
//! the harness scenarios, printing the report and writing one CSV per
//! section under `results/<scenario>/`.
//!
//! ```sh
//! cargo run --release -p elc-bench --bin paper-tables
//! # or with a custom seed (positional, kept for back-compat, or --seed):
//! cargo run --release -p elc-bench --bin paper-tables -- 7
//! cargo run --release -p elc-bench --bin paper-tables -- --seed 7
//! # or a single scenario instead of all four:
//! cargo run --release -p elc-bench --bin paper-tables -- --scenario university
//! # list the experiments the report covers:
//! cargo run --release -p elc-bench --bin paper-tables -- --list
//! # additionally record a sim-time trace of every run:
//! cargo run --release -p elc-bench --bin paper-tables -- --trace tables.jsonl
//! # override E16/E17/E19's fault campaign (E16/E17 default: the exam-day
//! # crisis; E19 default: the region-loss drill):
//! cargo run --release -p elc-bench --bin paper-tables -- --chaos disaster@0.5
//! # arm-parallel execution (E16/E17/E19 unchanged; E18 runs one region per shard):
//! cargo run --release -p elc-bench --bin paper-tables -- --shards 4
//! # record the workload into a trace, then replay it (byte-identical report):
//! cargo run --release -p elc-bench --bin paper-tables -- \
//!     --scenario university --record-trace u.elcw
//! cargo run --release -p elc-bench --bin paper-tables -- \
//!     --scenario university --workload trace:u.elcw [--morph stretch=2]
//! ```
//!
//! With no arguments the output is unchanged from the original harness:
//! seed 2013, all four scenarios.

use std::fs;
use std::path::PathBuf;
use std::process::exit;

use elc_analysis::plot::line_chart;
use elc_bench::{harness_scenarios, HARNESS_SEED};
use elc_core::advisor::advise;
use elc_core::cli_args::{
    chaos_from_flags, experiment_list, fidelity_from_flags, flag, parse_or, shards_from_flags,
    split_args, unknown_scenario, with_shards_override, TraceOptions, WorkloadOptions,
};
use elc_core::experiments::{e16, e17, e19, run_all};
use elc_core::requirements::Requirements;

/// Parsed command line: a seed, an optional scenario-name filter, and
/// optional tracing.
struct Args {
    seed: u64,
    scenario: Option<String>,
    trace: Option<TraceOptions>,
    chaos: Option<elc_resil::chaos::ChaosSpec>,
    shards: Option<u32>,
    fidelity: Option<elc_fluid::Fidelity>,
    workload: WorkloadOptions,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (positional, flags) = split_args(&argv);
    if flag(&flags, "list").is_some() {
        print!("{}", experiment_list());
        return Ok(None);
    }
    let mut seed = parse_or(&flags, "seed", HARNESS_SEED)?;
    // Back-compat: a bare positional argument is the seed.
    if let Some(p) = positional.first() {
        seed = p
            .parse()
            .map_err(|_| format!("expected --seed/--scenario or a numeric seed, got {p:?}"))?;
    }
    let args = Args {
        seed,
        scenario: flag(&flags, "scenario").map(ToString::to_string),
        trace: TraceOptions::from_flags(&flags)?,
        chaos: chaos_from_flags(&flags)?,
        shards: shards_from_flags(&flags)?,
        fidelity: fidelity_from_flags(&flags)?,
        workload: WorkloadOptions::from_flags(&flags)?,
    };
    if args.workload.record.is_some() && (args.scenario.is_none() || args.shards.unwrap_or(1) != 1)
    {
        return Err("--record-trace requires --scenario NAME and --shards 1 \
             (one trace captures one scenario's runs, in source-creation order)"
            .to_string());
    }
    Ok(Some(args))
}

fn main() {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: paper-tables [SEED] [--seed N] [--scenario NAME] [--list] \
                 [--trace PATH.jsonl] [--trace-filter SPEC] [--chaos SPEC] [--shards N] \
                 [--fidelity event|fluid|auto] [--workload trace:PATH] [--morph SPEC] \
                 [--record-trace PATH]"
            );
            exit(2);
        }
    };
    let seed = args.seed;
    let scenarios: Vec<_> = harness_scenarios(seed)
        .into_iter()
        .map(|s| match &args.chaos {
            Some(spec) => s.with_chaos(spec.clone()),
            None => s,
        })
        .map(|s| with_shards_override(s, args.shards))
        .map(|s| match args.fidelity {
            Some(f) => s.with_fidelity(f),
            None => s,
        })
        .filter(|s| args.scenario.as_deref().is_none_or(|want| s.name() == want))
        .map(|s| match args.workload.apply(s) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{e}");
                exit(2);
            }
        })
        .collect();
    if scenarios.is_empty() {
        eprintln!("{}", unknown_scenario(&args.scenario.unwrap_or_default()));
        exit(2);
    }

    let mut trace_out = match &args.trace {
        None => None,
        Some(opts) => match fs::File::create(&opts.path) {
            Ok(f) => Some(std::io::BufWriter::new(f)),
            Err(e) => {
                eprintln!("cannot create trace {}: {e}", opts.path.display());
                exit(2);
            }
        },
    };

    let out_root = PathBuf::from("results");
    for mut scenario in scenarios {
        let recorder = args.workload.start_recording(&mut scenario);
        println!("########################################################");
        println!(
            "## scenario: {} — {} students, seed {}",
            scenario.name(),
            scenario.students(),
            seed
        );
        println!("########################################################\n");

        let (outputs, resilience, serverless, recovery) = match &args.trace {
            None => (
                run_all(&scenario),
                e16::run(&scenario),
                e17::run(&scenario),
                e19::run(&scenario),
            ),
            Some(opts) => {
                let ((outputs, resilience, serverless, recovery), tracer) =
                    elc_trace::with_tracer(elc_trace::Tracer::new(opts.filter.clone()), || {
                        (
                            run_all(&scenario),
                            e16::run(&scenario),
                            e17::run(&scenario),
                            e19::run(&scenario),
                        )
                    });
                if let Some(out) = trace_out.as_mut() {
                    let labels = [("scenario", scenario.name())];
                    if let Err(e) = elc_trace::export::write_jsonl(out, &tracer, &labels) {
                        eprintln!("warning: cannot write trace: {e}");
                    }
                }
                (outputs, resilience, serverless, recovery)
            }
        };
        let report = outputs.report();
        println!("{report}\n");
        // E16 and E17 are appendices: their chaos campaign is a knob, so
        // they render outside the pinned E1–E15/T1 report.
        let e16_section = resilience.section();
        println!("{e16_section}\n");
        let e17_section = serverless.section();
        println!("{e17_section}\n");
        let e19_section = recovery.section();
        println!("{e19_section}\n");
        let metrics = outputs.metrics();
        let t1f_section =
            e17::FaasColumn::derive(&scenario, &metrics, &serverless).section(&metrics);
        println!("{t1f_section}\n");

        // Figures for the sweep-shaped experiments.
        let e1_series: Vec<Vec<(f64, f64)>> = (0..3)
            .map(|m| {
                outputs
                    .e01
                    .rows
                    .iter()
                    .map(|r| (f64::from(r.students).log10(), r.totals[m].amount()))
                    .collect()
            })
            .collect();
        println!("Figure F1 — 3-year TCO vs log10(students):");
        println!(
            "{}",
            line_chart(
                &[
                    ("public", &e1_series[0]),
                    ("private", &e1_series[1]),
                    ("hybrid", &e1_series[2]),
                ],
                56,
                12,
            )
        );
        let e13_series: Vec<(f64, f64)> = outputs
            .e13
            .sweep
            .iter()
            .map(|a| (f64::from(a.members), a.per_member_tco.amount()))
            .collect();
        println!("Figure F2 — per-member TCO vs consortium size:");
        println!("{}", line_chart(&[("community", &e13_series)], 56, 10));

        // Advisor verdicts for the paper's three customer archetypes.
        for (label, reqs) in [
            ("startup-program", Requirements::startup_program()),
            ("exam-authority", Requirements::exam_authority()),
            ("balanced-university", Requirements::balanced_university()),
        ] {
            println!("[advisor/{label}] {}", advise(&reqs, &metrics));
        }

        // CSV export, one file per section.
        let dir = out_root.join(scenario.name());
        if let Err(e) = fs::create_dir_all(&dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            continue;
        }
        for section in report.sections() {
            let path = dir.join(format!("{}.csv", section.id().to_lowercase()));
            if let Err(e) = fs::write(&path, section.table().to_csv()) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            }
        }
        let e16_csv = dir.join("e16.csv");
        if let Err(e) = fs::write(&e16_csv, e16_section.table().to_csv()) {
            eprintln!("warning: cannot write {}: {e}", e16_csv.display());
        }
        let e17_csv = dir.join("e17.csv");
        if let Err(e) = fs::write(&e17_csv, e17_section.table().to_csv()) {
            eprintln!("warning: cannot write {}: {e}", e17_csv.display());
        }
        let e19_csv = dir.join("e19.csv");
        if let Err(e) = fs::write(&e19_csv, e19_section.table().to_csv()) {
            eprintln!("warning: cannot write {}: {e}", e19_csv.display());
        }
        let t1f_csv = dir.join("t1f.csv");
        if let Err(e) = fs::write(&t1f_csv, t1f_section.table().to_csv()) {
            eprintln!("warning: cannot write {}: {e}", t1f_csv.display());
        }
        let report_path = dir.join("report.txt");
        if let Err(e) = fs::write(&report_path, report.to_string()) {
            eprintln!("warning: cannot write {}: {e}", report_path.display());
        }
        println!("csv written to {}\n", dir.display());

        if let Some(recorder) = &recorder {
            match args.workload.finish_recording(recorder) {
                Ok(line) => eprintln!("{line}"),
                Err(e) => {
                    eprintln!("{e}");
                    exit(1);
                }
            }
        }
    }

    if let (Some(opts), Some(mut out)) = (&args.trace, trace_out.take()) {
        use std::io::Write as _;
        if let Err(e) = out.flush() {
            eprintln!("warning: cannot flush trace {}: {e}", opts.path.display());
        } else {
            println!("trace written to {}", opts.path.display());
        }
    }
}
