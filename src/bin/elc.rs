//! `elc` — the command-line front end of the elearn-cloud evaluation suite.
//!
//! ```text
//! elc scenarios [--seed N]                   list scenario presets
//! elc experiments                            list experiment registry ids
//! elc experiment <ID> [SCENARIO] [--seed N] [SCENARIO FLAGS]
//!                                            run one experiment (e1..e19, t1)
//! elc report [SCENARIO] [--seed N] [SCENARIO FLAGS except --chaos]
//!                                            run E1–E15 and T1, print every table
//! elc advise [SCENARIO] [--seed N]
//!     [--profile startup|exam|balanced]      advisor with a preset profile
//!     [--cost W --security W --elasticity W
//!      --portability W --time W --ops W]     ... or custom weights in [0,1]
//! elc run --experiment <ID> [--scenario NAME] [--seed N]
//!     [--replications N] [--threads T] [--quiet]
//!     [--trace PATH.jsonl] [--trace-filter SPEC] [SCENARIO FLAGS]
//!                                            replicate one experiment over N
//!                                            derived seeds on T worker threads
//! elc tables [--seed N] [--scenario NAME]
//!     [--trace PATH.jsonl] [--trace-filter SPEC] [SCENARIO FLAGS]
//!                                            regenerate every paper table and
//!                                            write results/<scenario>/*.csv
//!
//! SCENARIO FLAGS
//!     --chaos SPEC                           fault campaign for e16/e17/e19
//!                                            (e.g. storm@0.3:n=4,mins=6;disaster@0.79, or off)
//!     --shards N                             arm-parallel execution (E16/E17/E19
//!                                            unchanged; E18 runs one region per shard)
//!     --fidelity event|fluid|auto            simulation fidelity: exact per-request
//!                                            events, fluid flow integration, or
//!                                            automatic switching (default: event)
//!     --workload trace:PATH                  replay a recorded workload trace
//!                                            (.csv parses as interchange CSV)
//!     --morph SPEC                           reshape the replayed trace, e.g.
//!                                            stretch=2,scale=0.5,clip=48..96
//!     --record-trace PATH                    tee the generator-driven run into a
//!                                            trace file (needs --shards 1 and one
//!                                            run: --replications 1, one --scenario)
//! ```
//!
//! Scenarios: `small-college` (default), `rural-learners`, `university`,
//! `national-platform`, `national-5m` (5M students; needs `--fidelity
//! fluid` or `auto` for E18). The default seed is 2013, the paper's year.
//! `elc tables` without `--scenario` walks the four harness presets,
//! `small-college` through `national-platform`.
//!
//! `elc run` prints per-metric mean / p50 / p95 with 95% confidence
//! intervals plus the run manifest (seeds, per-task wall-clock, parallel
//! speedup). The aggregate table is a pure function of `(experiment,
//! scenario, seed, replications)`: any `--threads` value reproduces it
//! byte for byte. So is the trace: `--trace run.jsonl` writes one JSONL
//! event stream, each line labelled with its replication index, plus a
//! per-target summary table on stdout. Trace filter: `LEVEL` or
//! `LEVEL,target=LEVEL,...` (e.g. `warn,cloud=trace,net=off`).
//!
//! A flag a subcommand does not read is an error (exit 2). Output that
//! meets a closed stdout (`elc report | head -1`) is dropped, not a panic.

use std::fmt::Display;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use elearn_cloud::analysis::plot::line_chart;
use elearn_cloud::analysis::table::Table;
use elearn_cloud::core::cli_args::{
    check_flags, experiment_list, flag, parse_or, scenario_by_name, scenario_from_flags,
    scenario_list, split_args, unknown_experiment, unknown_scenario, Recording, TraceOptions,
    SCENARIO_FLAGS, SCENARIO_NAMES, SCENARIO_USAGE,
};
use elearn_cloud::core::experiments::{e16, e17, e19, find, run_all};
use elearn_cloud::core::{advise, Requirements};
use elearn_cloud::runner::progress::{Silent, Stderr};
use elearn_cloud::runner::{run, Progress, RunOutcome, RunSpec};
use elearn_cloud::trace::export::{merge_summaries, total_dropped, write_jsonl};

/// The default root seed of every subcommand.
const DEFAULT_SEED: u64 = 2013;

/// The scenario a subcommand runs when none is named.
const DEFAULT_SCENARIO: &str = "small-college";

/// `elc report` runs no fault campaign: every scenario flag but `--chaos`.
const REPORT_SCENARIO_FLAGS: &[&str] = match SCENARIO_FLAGS.split_first() {
    Some((_chaos, rest)) => rest,
    None => &[],
};

/// One subcommand: its synopsis, how many positionals it takes, its own
/// flags and the [`SCENARIO_FLAGS`] it passes to `scenario_from_flags`.
struct Subcommand {
    name: &'static str,
    synopsis: &'static str,
    positionals: usize,
    flags: &'static [&'static str],
    scenario_flags: &'static [&'static str],
}

impl Subcommand {
    /// Refuses positionals and flags this subcommand does not read.
    fn check(&self, positional: &[String], flags: &[(String, String)]) -> Result<(), String> {
        if let Some(p) = positional.get(self.positionals) {
            return Err(format!("unexpected positional argument {p:?}"));
        }
        check_flags(flags, &[self.flags, self.scenario_flags].concat())
    }
}

const SUBCOMMANDS: [Subcommand; 7] = [
    Subcommand {
        name: "scenarios",
        synopsis: "elc scenarios [--seed N]",
        positionals: 0,
        flags: &["seed"],
        scenario_flags: &[],
    },
    Subcommand {
        name: "experiments",
        synopsis: "elc experiments",
        positionals: 0,
        flags: &[],
        scenario_flags: &[],
    },
    Subcommand {
        name: "experiment",
        synopsis: "elc experiment <ID> [SCENARIO] [--seed N] [SCENARIO FLAGS]",
        positionals: 2,
        flags: &["seed"],
        scenario_flags: &SCENARIO_FLAGS,
    },
    Subcommand {
        name: "report",
        synopsis: "elc report [SCENARIO] [--seed N] [SCENARIO FLAGS except --chaos]",
        positionals: 1,
        flags: &["seed"],
        scenario_flags: REPORT_SCENARIO_FLAGS,
    },
    Subcommand {
        name: "advise",
        synopsis: "elc advise [SCENARIO] [--seed N] [--profile startup|exam|balanced] \
                   [--cost W --security W --elasticity W --portability W --time W --ops W]",
        positionals: 1,
        flags: &[
            "seed",
            "profile",
            "cost",
            "security",
            "elasticity",
            "portability",
            "time",
            "ops",
        ],
        scenario_flags: &[],
    },
    Subcommand {
        name: "run",
        synopsis: "elc run --experiment <ID> [--scenario NAME] [--seed N] [--replications N] \
                   [--threads T] [--quiet] [--trace PATH.jsonl] [--trace-filter SPEC] \
                   [SCENARIO FLAGS]",
        positionals: 0,
        flags: &[
            "experiment",
            "scenario",
            "seed",
            "replications",
            "threads",
            "quiet",
            "trace",
            "trace-filter",
        ],
        scenario_flags: &SCENARIO_FLAGS,
    },
    Subcommand {
        name: "tables",
        synopsis: "elc tables [--seed N] [--scenario NAME] [--trace PATH.jsonl] \
                   [--trace-filter SPEC] [SCENARIO FLAGS]",
        positionals: 0,
        flags: &["seed", "scenario", "trace", "trace-filter"],
        scenario_flags: &SCENARIO_FLAGS,
    },
];

/// Prints the synopsis of `only` (or of every subcommand) and returns
/// the usage exit code.
fn usage(only: Option<&Subcommand>) -> ExitCode {
    let mut text = String::from("usage:\n");
    for sub in SUBCOMMANDS
        .iter()
        .filter(|s| only.is_none_or(|o| o.name == s.name))
    {
        text.push_str("  ");
        text.push_str(sub.synopsis);
        text.push('\n');
    }
    eprintln!(
        "{text}SCENARIO FLAGS: [--chaos SPEC] [--shards N] [--fidelity event|fluid|auto] \
         [--workload trace:PATH] [--morph SPEC] [--record-trace PATH]\n\
         {SCENARIO_USAGE}\n\
         chaos spec: off | campaigns joined with ';' \
         (e.g. storm@0.3:n=4,mins=6;cascade@0.55:n=3;disaster@0.79)"
    );
    ExitCode::from(2)
}

/// Why a subcommand stopped: bad arguments (usage, exit 2) or a run that
/// could not finish its output (exit 1).
enum Failure {
    Usage(String),
    Run(String),
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure::Usage(message)
    }
}

/// Writes `text` and a newline to stdout. Every subcommand prints through
/// here: a closed stdout (`elc report | head -1`) drops the output
/// instead of panicking.
fn emit(text: impl Display) {
    let _ = writeln!(std::io::stdout().lock(), "{text}");
}

/// Writes a `--record-trace` capture, if one was requested.
fn finish(recording: Option<Recording>) -> Result<(), Failure> {
    if let Some(recording) = recording {
        eprintln!("{}", recording.finish().map_err(Failure::Run)?);
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return usage(None);
    };
    let Some(sub) = SUBCOMMANDS.iter().find(|s| s.name == command) else {
        eprintln!("unknown subcommand {command:?}");
        return usage(None);
    };
    let (positional, flags) = split_args(rest);
    let outcome = sub
        .check(&positional, &flags)
        .map_err(Failure::Usage)
        .and_then(|()| {
            let seed = parse_or(&flags, "seed", DEFAULT_SEED)?;
            match sub.name {
                "scenarios" => {
                    emit(scenario_list(seed).trim_end());
                    Ok(())
                }
                "experiments" => {
                    emit(experiment_list().trim_end());
                    Ok(())
                }
                "experiment" => experiment(&positional, &flags, seed),
                "report" => report(&positional, &flags, seed),
                "advise" => advisor(&positional, &flags, seed),
                "run" => replicate(&flags, seed),
                _ => tables(&flags, seed),
            }
        });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(e)) => {
            eprintln!("elc {}: {e}", sub.name);
            usage(Some(sub))
        }
        Err(Failure::Run(e)) => {
            eprintln!("elc {}: {e}", sub.name);
            ExitCode::FAILURE
        }
    }
}

fn experiment(positional: &[String], flags: &[(String, String)], seed: u64) -> Result<(), Failure> {
    let Some(id) = positional.first() else {
        return Err(Failure::Usage("missing experiment id".to_string()));
    };
    // The registry accepts e1/e01/E1 spellings and covers the whole suite,
    // so the CLI never falls out of date when an experiment is added.
    let experiment = find(id).ok_or_else(|| unknown_experiment(id))?;
    let name = positional.get(1).map_or(DEFAULT_SCENARIO, String::as_str);
    let (scenario, recording) = scenario_from_flags(flags, name, seed, Some(experiment.id()), 1)?;
    emit(experiment.run(&scenario).section);
    finish(recording)
}

fn report(positional: &[String], flags: &[(String, String)], seed: u64) -> Result<(), Failure> {
    let name = positional.first().map_or(DEFAULT_SCENARIO, String::as_str);
    let (scenario, recording) = scenario_from_flags(flags, name, seed, None, 1)?;
    emit(run_all(&scenario).report());
    finish(recording)
}

fn advisor(positional: &[String], flags: &[(String, String)], seed: u64) -> Result<(), Failure> {
    let name = positional.first().map_or(DEFAULT_SCENARIO, String::as_str);
    let scenario = scenario_by_name(name, seed).ok_or_else(|| unknown_scenario(name))?;
    let base = match flag(flags, "profile") {
        None | Some("balanced") => Requirements::balanced_university(),
        Some("startup") => Requirements::startup_program(),
        Some("exam") => Requirements::exam_authority(),
        Some(other) => return Err(Failure::Usage(format!("unknown profile {other:?}"))),
    };
    let reqs = Requirements {
        cost_sensitivity: parse_or(flags, "cost", base.cost_sensitivity)?,
        security_sensitivity: parse_or(flags, "security", base.security_sensitivity)?,
        elasticity_need: parse_or(flags, "elasticity", base.elasticity_need)?,
        portability_concern: parse_or(flags, "portability", base.portability_concern)?,
        time_pressure: parse_or(flags, "time", base.time_pressure)?,
        ops_capacity: parse_or(flags, "ops", base.ops_capacity)?,
    };
    if let Err(field) = reqs.validate() {
        return Err(Failure::Usage(format!(
            "invalid requirements: {field} must be in [0, 1]"
        )));
    }
    eprintln!("running the experiment suite for {} …", scenario.name());
    emit(advise(&reqs, &run_all(&scenario).metrics()));
    Ok(())
}

/// `elc run`: one experiment replicated over derived seeds on a worker
/// pool.
fn replicate(flags: &[(String, String)], seed: u64) -> Result<(), Failure> {
    let Some(id) = flag(flags, "experiment") else {
        return Err(Failure::Usage("--experiment <ID> is required".to_string()));
    };
    let experiment = find(id).ok_or_else(|| unknown_experiment(id))?;
    let default_threads =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let replications = parse_or(flags, "replications", 8u32)?;
    let threads = parse_or(flags, "threads", default_threads)?;
    if replications == 0 || threads == 0 {
        return Err(Failure::Usage(
            "--replications and --threads must be positive".to_string(),
        ));
    }
    let trace = TraceOptions::from_flags(flags)?;
    let name = flag(flags, "scenario").unwrap_or(DEFAULT_SCENARIO);
    let (scenario, recording) =
        scenario_from_flags(flags, name, seed, Some(experiment.id()), replications)?;

    let mut spec = RunSpec::new(experiment, scenario, replications).threads(threads);
    if let Some(opts) = &trace {
        spec = spec.trace(opts.filter.clone());
    }
    let progress: &mut dyn Progress = if flag(flags, "quiet").is_some() {
        &mut Silent
    } else {
        &mut Stderr
    };
    let outcome = run(&spec, progress);
    emit(outcome.report());
    if let Some(opts) = &trace {
        let (table, note) = export_trace(&outcome, opts).map_err(|e| {
            Failure::Run(format!("cannot write trace {}: {e}", opts.path.display()))
        })?;
        emit(format_args!("{table}\n{note}"));
    }
    finish(recording)
}

/// Writes the labelled JSONL trace of a replicated run and returns the
/// per-target summary table plus a one-line accounting note.
fn export_trace(outcome: &RunOutcome, opts: &TraceOptions) -> std::io::Result<(Table, String)> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(&opts.path)?);
    for (index, tracer) in outcome.traces.iter().enumerate() {
        write_jsonl(&mut out, tracer, &[("rep", &index.to_string())])?;
    }
    out.flush()?;

    let mut table = Table::new([
        "target", "events", "spans", "error", "warn", "info", "debug", "trace",
    ]);
    let mut total = 0u64;
    for s in merge_summaries(outcome.traces.iter()) {
        total += s.events;
        table.row([
            s.target.to_string(),
            s.events.to_string(),
            s.spans.to_string(),
            s.by_level[0].to_string(),
            s.by_level[1].to_string(),
            s.by_level[2].to_string(),
            s.by_level[3].to_string(),
            s.by_level[4].to_string(),
        ]);
    }
    let dropped = total_dropped(outcome.traces.iter());
    let note = format!(
        "trace: {total} events across {} replications written to {} ({dropped} dropped by ring capacity)",
        outcome.traces.len(),
        opts.path.display(),
    );
    Ok((table, note))
}

/// `elc tables`: every table of the reproduction (E1–E15, T1 and the
/// E16/E17/E19 appendices with T1F), figures and advisor verdicts per
/// scenario, with one CSV per section under `results/<scenario>/`.
fn tables(flags: &[(String, String)], seed: u64) -> Result<(), Failure> {
    let trace = TraceOptions::from_flags(flags)?;
    // Without --scenario, the four harness presets (all but national-5m).
    let names = match flag(flags, "scenario") {
        Some(name) => vec![name],
        None => SCENARIO_NAMES[..4].to_vec(),
    };
    let runs = u32::try_from(names.len()).expect("a handful of presets");
    let scenarios = names
        .iter()
        .map(|name| scenario_from_flags(flags, name, seed, None, runs))
        .collect::<Result<Vec<_>, _>>()?;

    let mut trace = trace
        .map(|opts| match std::fs::File::create(&opts.path) {
            Ok(file) => Ok((opts, std::io::BufWriter::new(file))),
            Err(e) => Err(format!("cannot create trace {}: {e}", opts.path.display())),
        })
        .transpose()
        .map_err(Failure::Run)?;
    for (scenario, recording) in scenarios {
        let suite = || {
            (
                run_all(&scenario),
                e16::run(&scenario),
                e17::run(&scenario),
                e19::run(&scenario),
            )
        };
        let (outputs, resilience, serverless, recovery) = match trace.as_mut() {
            Some((opts, out)) => {
                let tracer = elearn_cloud::trace::Tracer::new(opts.filter.clone());
                let (runs, tracer) = elearn_cloud::trace::with_tracer(tracer, suite);
                if let Err(e) = write_jsonl(out, &tracer, &[("scenario", scenario.name())]) {
                    eprintln!("warning: cannot write trace: {e}");
                }
                runs
            }
            None => suite(),
        };
        let report = outputs.report();
        let metrics = outputs.metrics();
        // E16, E17 and E19 are appendices: their chaos campaign is a knob,
        // so they render outside the pinned E1–E15/T1 report.
        let e16_section = resilience.section();
        let e17_section = serverless.section();
        let e19_section = recovery.section();
        let t1f_section =
            e17::FaasColumn::derive(&scenario, &metrics, &serverless).section(&metrics);

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
        let f1 = line_chart(
            &[
                ("public", &e1_series[0]),
                ("private", &e1_series[1]),
                ("hybrid", &e1_series[2]),
            ],
            56,
            12,
        );
        let e13_series: Vec<(f64, f64)> = outputs
            .e13
            .sweep
            .iter()
            .map(|a| (f64::from(a.members), a.per_member_tco.amount()))
            .collect();
        let f2 = line_chart(&[("community", &e13_series)], 56, 10);
        // Advisor verdicts for the paper's three customer archetypes.
        let verdicts = [
            ("startup-program", Requirements::startup_program()),
            ("exam-authority", Requirements::exam_authority()),
            ("balanced-university", Requirements::balanced_university()),
        ]
        .iter()
        .map(|(label, reqs)| format!("[advisor/{label}] {}", advise(reqs, &metrics)))
        .collect::<Vec<_>>()
        .join("\n");
        let rule = "#".repeat(56);
        emit(format_args!(
            "{rule}\n## scenario: {} — {} students, seed {seed}\n{rule}\n\n\
             {report}\n\n{e16_section}\n\n{e17_section}\n\n{e19_section}\n\n{t1f_section}\n\n\
             Figure F1 — 3-year TCO vs log10(students):\n{f1}\n\
             Figure F2 — per-member TCO vs consortium size:\n{f2}\n{verdicts}",
            scenario.name(),
            scenario.students(),
        ));

        // CSV export, one file per section.
        let dir = Path::new("results").join(scenario.name());
        let mut files: Vec<(PathBuf, String)> = report
            .sections()
            .iter()
            .map(|s| {
                let name = format!("{}.csv", s.id().to_lowercase());
                (dir.join(name), s.table().to_csv())
            })
            .collect();
        for (name, section) in [
            ("e16.csv", &e16_section),
            ("e17.csv", &e17_section),
            ("e19.csv", &e19_section),
            ("t1f.csv", &t1f_section),
        ] {
            files.push((dir.join(name), section.table().to_csv()));
        }
        files.push((dir.join("report.txt"), report.to_string()));
        match std::fs::create_dir_all(&dir) {
            Err(e) => eprintln!("warning: cannot create {}: {e}", dir.display()),
            Ok(()) => {
                for (path, body) in files {
                    if let Err(e) = std::fs::write(&path, body) {
                        eprintln!("warning: cannot write {}: {e}", path.display());
                    }
                }
                emit(format_args!("csv written to {}\n", dir.display()));
            }
        }
        finish(recording)?;
    }

    if let Some((opts, mut out)) = trace {
        match out.flush() {
            Err(e) => eprintln!("warning: cannot flush trace {}: {e}", opts.path.display()),
            Ok(()) => emit(format_args!("trace written to {}", opts.path.display())),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_flag_a_subcommand_reads_is_in_its_synopsis() {
        for sub in &SUBCOMMANDS {
            for f in sub.flags {
                assert!(
                    sub.synopsis.contains(&format!("--{f}")),
                    "{}: --{f} missing from {:?}",
                    sub.name,
                    sub.synopsis
                );
            }
            assert_eq!(
                !sub.scenario_flags.is_empty(),
                sub.synopsis.contains("SCENARIO FLAGS")
            );
        }
        assert!(!REPORT_SCENARIO_FLAGS.contains(&"chaos"));
        assert_eq!(REPORT_SCENARIO_FLAGS.len(), SCENARIO_FLAGS.len() - 1);
    }
}
