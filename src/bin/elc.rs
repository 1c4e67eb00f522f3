//! `elc` — command-line front end for the elearn-cloud evaluation suite.
//!
//! ```text
//! elc scenarios                              list scenario presets
//! elc experiments                            list experiment registry ids
//! elc report [SCENARIO] [--seed N]           run the full suite, print all tables
//! elc experiment <ID> [SCENARIO] [--seed N]  run one experiment (e1..e19, t1)
//!     [--chaos SPEC]                         fault campaign for e16/e17
//!                                            (e.g. storm@0.3:n=4,mins=6;disaster@0.79, or off)
//!     [--shards N]                           arm-parallel execution (E16/E17/E19
//!                                            unchanged; E18 runs one region per shard)
//!     [--fidelity event|fluid|auto]          simulation fidelity: exact per-request
//!                                            events, fluid flow integration, or
//!                                            automatic switching (default: event)
//!     [--workload trace:PATH]                replay a recorded workload trace
//!                                            (.csv parses as interchange CSV)
//!     [--morph SPEC]                         reshape the replayed trace, e.g.
//!                                            stretch=2,scale=0.5,clip=48..96
//!     [--record-trace PATH]                  tee the generator-driven run into
//!                                            a trace file (requires --shards 1)
//! elc advise [SCENARIO] [--seed N]
//!     [--profile startup|exam|balanced]      advisor with a preset profile
//!     [--cost W --security W --elasticity W
//!      --portability W --time W --ops W]     ... or custom weights in [0,1]
//! ```
//!
//! Scenarios: `small-college` (default), `rural-learners`, `university`,
//! `national-platform`, `national-5m` (5M students; needs `--fidelity
//! fluid` or `auto` for E18).

use std::process::ExitCode;

use elearn_cloud::core::cli_args::{
    chaos_from_flags, check_fidelity_feasible, fidelity_from_flags, flag, parse_or,
    scenario_by_name, scenario_list, shards_from_flags, split_args, unknown_experiment,
    unknown_scenario, with_shards_override, WorkloadOptions, SCENARIO_USAGE,
};
use elearn_cloud::core::experiments::{find, run_all};
use elearn_cloud::core::{advise, Requirements, Scenario};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  elc scenarios\n  elc experiments\n  elc report [SCENARIO] [--seed N]\n  \
         elc experiment <ID> [SCENARIO] [--seed N] [--chaos SPEC] [--shards N]\n    \
         [--fidelity event|fluid|auto] [--workload trace:PATH] [--morph SPEC] \
         [--record-trace PATH]\n  \
         elc advise [SCENARIO] [--seed N] [--profile startup|exam|balanced] \
         [--cost W --security W --elasticity W --portability W --time W --ops W]\n\
         {SCENARIO_USAGE}"
    );
    ExitCode::from(2)
}

fn run_experiment(id: &str, scenario: &Scenario) -> Option<String> {
    // The registry accepts e1/e01/E1 spellings and covers the whole suite,
    // so the CLI never falls out of date when an experiment is added.
    find(id).map(|e| e.run(scenario).section.to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().cloned() else {
        return usage();
    };
    let (positional, flags) = split_args(&args[1..]);

    let seed = match parse_or(&flags, "seed", 2013u64) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    let chaos = match chaos_from_flags(&flags) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    let shards = match shards_from_flags(&flags) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    let workload = match WorkloadOptions::from_flags(&flags) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    let fidelity = match fidelity_from_flags(&flags) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    match command.as_str() {
        "scenarios" => {
            print!("{}", scenario_list(seed));
            ExitCode::SUCCESS
        }
        "experiments" => {
            print!("{}", elearn_cloud::core::cli_args::experiment_list());
            ExitCode::SUCCESS
        }
        "report" => {
            let name = positional.first().map_or("small-college", String::as_str);
            let Some(scenario) = scenario_by_name(name, seed) else {
                eprintln!("{}", unknown_scenario(name));
                return usage();
            };
            let mut scenario = match workload.apply(with_shards_override(scenario, shards)) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("{e}");
                    return usage();
                }
            };
            if let Some(f) = fidelity {
                scenario = scenario.with_fidelity(f);
            }
            if workload.record.is_some() && scenario.shards() != 1 {
                eprintln!(
                    "--record-trace requires --shards 1 (stream order follows source creation)"
                );
                return usage();
            }
            let recorder = workload.start_recording(&mut scenario);
            let outputs = run_all(&scenario);
            println!("{}", outputs.report());
            if let Some(recorder) = &recorder {
                match workload.finish_recording(recorder) {
                    Ok(line) => eprintln!("{line}"),
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            ExitCode::SUCCESS
        }
        "experiment" => {
            let Some(id) = positional.first() else {
                return usage();
            };
            let name = positional.get(1).map_or("small-college", String::as_str);
            let Some(mut scenario) = scenario_by_name(name, seed) else {
                eprintln!("{}", unknown_scenario(name));
                return usage();
            };
            if let Some(spec) = &chaos {
                scenario = scenario.with_chaos(spec.clone());
            }
            let mut scenario = match workload.apply(with_shards_override(scenario, shards)) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("{e}");
                    return usage();
                }
            };
            if let Some(f) = fidelity {
                scenario = scenario.with_fidelity(f);
            }
            if workload.record.is_some() && scenario.shards() != 1 {
                eprintln!(
                    "--record-trace requires --shards 1 (stream order follows source creation)"
                );
                return usage();
            }
            // Refuse event-fidelity runs whose estimated event count no
            // machine can turn around (E18 at national scale).
            if let Err(e) = check_fidelity_feasible(id, &scenario) {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
            let recorder = workload.start_recording(&mut scenario);
            match run_experiment(&id.to_lowercase(), &scenario) {
                Some(text) => {
                    println!("{text}");
                    if let Some(recorder) = &recorder {
                        match workload.finish_recording(recorder) {
                            Ok(line) => eprintln!("{line}"),
                            Err(e) => {
                                eprintln!("{e}");
                                return ExitCode::FAILURE;
                            }
                        }
                    }
                    ExitCode::SUCCESS
                }
                None => {
                    eprintln!("{}", unknown_experiment(id));
                    usage()
                }
            }
        }
        "advise" => {
            let name = positional.first().map_or("small-college", String::as_str);
            let Some(scenario) = scenario_by_name(name, seed) else {
                eprintln!("{}", unknown_scenario(name));
                return usage();
            };
            let base = match flag(&flags, "profile") {
                None | Some("balanced") => Requirements::balanced_university(),
                Some("startup") => Requirements::startup_program(),
                Some("exam") => Requirements::exam_authority(),
                Some(other) => {
                    eprintln!("unknown profile {other:?}");
                    return usage();
                }
            };
            let reqs = (|| -> Result<Requirements, String> {
                Ok(Requirements {
                    cost_sensitivity: parse_or(&flags, "cost", base.cost_sensitivity)?,
                    security_sensitivity: parse_or(&flags, "security", base.security_sensitivity)?,
                    elasticity_need: parse_or(&flags, "elasticity", base.elasticity_need)?,
                    portability_concern: parse_or(&flags, "portability", base.portability_concern)?,
                    time_pressure: parse_or(&flags, "time", base.time_pressure)?,
                    ops_capacity: parse_or(&flags, "ops", base.ops_capacity)?,
                })
            })();
            let reqs = match reqs {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("{e}");
                    return usage();
                }
            };
            if let Err(field) = reqs.validate() {
                eprintln!("invalid requirements: {field} must be in [0, 1]");
                return usage();
            }
            eprintln!("running the experiment suite for {} …", scenario.name());
            let outputs = run_all(&scenario);
            println!("{}", advise(&reqs, &outputs.metrics()));
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
