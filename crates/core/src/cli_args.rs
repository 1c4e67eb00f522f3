//! Shared command-line vocabulary for the `elc` subcommands.
//!
//! Every subcommand parses with [`split_args`], refuses the flags it does
//! not read with [`check_flags`], and turns its flags into the scenario
//! it runs with [`scenario_from_flags`] — one path from `--chaos`,
//! `--shards`, `--fidelity`, `--workload`, `--morph` and `--record-trace`
//! to a validated [`Scenario`]. Listings ([`experiment_list`],
//! [`scenario_list`]) and diagnostics ([`unknown_experiment`],
//! [`unknown_scenario`]) have one spelling each.
//!
//! Tracing flags are shared too: [`TraceOptions::from_flags`] understands
//! `--trace <path>` and `--trace-filter <spec>` for every subcommand that
//! can write a JSONL trace.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use elc_fluid::Fidelity;
use elc_resil::chaos::ChaosSpec;
use elc_trace::TraceFilter;
use elc_wltrace::{codec, csvio, MorphSpec, WorkloadTrace};

use crate::experiments::registry;
use crate::scenario::Scenario;

/// The scenario preset names, in listing order.
pub const SCENARIO_NAMES: [&str; 5] = [
    "small-college",
    "rural-learners",
    "university",
    "national-platform",
    "national-5m",
];

/// The scenario line every usage string embeds.
pub const SCENARIO_USAGE: &str =
    "scenarios: small-college | rural-learners | university | national-platform | national-5m";

/// Splits an argument list into positional arguments and `--flag [value]`
/// pairs.
///
/// A flag's value is the next token *iff* that token does not itself start
/// with `--`; boolean flags (`--quiet`) therefore get an empty
/// value and never swallow the flag after them.
#[must_use]
pub fn split_args(args: &[String]) -> (Vec<String>, Vec<(String, String)>) {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => it.next().expect("peeked").clone(),
                _ => String::new(),
            };
            flags.push((name.to_string(), value));
        } else {
            positional.push(a.clone());
        }
    }
    (positional, flags)
}

/// Refuses the first flag that is not in `known`.
///
/// # Errors
///
/// Returns `unknown flag --NAME` naming the offending flag.
pub fn check_flags(flags: &[(String, String)], known: &[&str]) -> Result<(), String> {
    match flags
        .iter()
        .find(|(name, _)| !known.contains(&name.as_str()))
    {
        None => Ok(()),
        Some((name, _)) => Err(format!("unknown flag --{name}")),
    }
}

/// Looks a flag's value up by name (empty string for boolean flags).
#[must_use]
pub fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

/// Parses `--name`'s value, falling back to `default` when absent.
///
/// # Errors
///
/// Returns the uniform "expects a number" message when the value does not
/// parse.
pub fn parse_or<T: std::str::FromStr>(
    flags: &[(String, String)],
    name: &str,
    default: T,
) -> Result<T, String> {
    match flag(flags, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name} expects a number, got {v:?}")),
    }
}

/// Resolves a scenario preset by name, under `seed`.
#[must_use]
pub fn scenario_by_name(name: &str, seed: u64) -> Option<Scenario> {
    Some(match name {
        "small-college" => Scenario::small_college(seed),
        "rural-learners" => Scenario::rural_learners(seed),
        "university" => Scenario::university(seed),
        "national-platform" => Scenario::national_platform(seed),
        "national-5m" => Scenario::national_5m(seed),
        _ => return None,
    })
}

/// The uniform "unknown scenario" diagnostic.
#[must_use]
pub fn unknown_scenario(name: &str) -> String {
    format!("unknown scenario {name:?}; known: small-college | rural-learners | university | national-platform | national-5m")
}

/// The uniform "unknown experiment" diagnostic.
#[must_use]
pub fn unknown_experiment(id: &str) -> String {
    format!("unknown experiment {id:?} (e1..e19, t1; see `elc experiments`)")
}

/// The experiment registry rendered one `id  name` line at a time, as
/// `elc experiments` prints it.
#[must_use]
pub fn experiment_list() -> String {
    let mut out = String::new();
    for e in registry() {
        let _ = writeln!(out, "{:<4} {}", e.id(), e.name());
    }
    out
}

/// The scenario presets rendered one line at a time, under `seed`.
#[must_use]
pub fn scenario_list(seed: u64) -> String {
    let mut out = String::new();
    for name in SCENARIO_NAMES {
        let s = scenario_by_name(name, seed).expect("preset exists");
        let _ = writeln!(
            out,
            "{name:<18} {:>7} students, link {}, availability {:.3}%",
            s.students(),
            s.link(),
            s.outages().availability() * 100.0
        );
    }
    out
}

/// The flags [`scenario_from_flags`] reads. A subcommand that simulates
/// lists them among its known flags (all six, or all but `--chaos` for
/// `elc report`, which runs no fault campaign).
pub const SCENARIO_FLAGS: [&str; 6] = [
    "chaos",
    "shards",
    "fidelity",
    "workload",
    "morph",
    "record-trace",
];

/// Turns a subcommand's flags into the validated scenario it runs.
///
/// Resolves the preset `name` under `seed`, then applies the
/// [`SCENARIO_FLAGS`]; an absent flag keeps the preset's choice.
///
/// * `--chaos SPEC` — the fault campaign for E16/E17/E19, in
///   `elc-resil`'s [`ChaosSpec`] grammar: `off`, or campaigns joined with
///   `;` (`storm@0.3:n=4,mins=6`, `cascade@0.55:n=3`, `disaster@0.79`).
/// * `--shards N` — arm parallelism. E16, E17 and E19 spread their
///   independent arms over up to N threads and print the same bytes at
///   any N; E18 federates one region per shard. Presets use 1, except
///   `national-5m`, whose four regions shard by default.
/// * `--fidelity event|fluid|auto` — presets use `event`, except
///   `national-5m`, which uses `auto`.
/// * `--workload trace:PATH` replays a recorded trace (`.csv` parses as
///   interchange CSV, anything else as `ELCW` binary); `--workload
///   generated` is the default spelled out. `--morph SPEC` (e.g.
///   `stretch=2,scale=0.5,clip=48..96`) reshapes the replayed trace.
/// * `--record-trace PATH` tees the generator-driven run into a trace
///   file; the returned [`Recording`] writes it once the run is done.
///   Stream order follows source creation within one run, so recording
///   needs `scenario.shards() == 1` and `runs == 1`, where `runs` is how
///   many runs the caller will drive through the scenario.
///
/// When `experiment` is the scale experiment (e18), event fidelity is
/// refused above [`EVENT_BUDGET`]: an exam day at `national-5m` is tens
/// of billions of events. The estimate is two events (arrival and
/// completion) per request at the scenario's mean offered rate over one
/// day.
///
/// # Errors
///
/// Returns a one-line diagnostic when the scenario is unknown, a flag is
/// malformed or misused, the trace cannot be loaded, morphed or applied,
/// or the configuration fails one of the checks above.
pub fn scenario_from_flags(
    flags: &[(String, String)],
    name: &str,
    seed: u64,
    experiment: Option<&str>,
    runs: u32,
) -> Result<(Scenario, Option<Recording>), String> {
    let mut scenario = scenario_by_name(name, seed).ok_or_else(|| unknown_scenario(name))?;
    match flag(flags, "chaos") {
        None => {}
        Some("") => {
            return Err("--chaos expects a campaign spec (e.g. disaster@0.79, or off)".to_string())
        }
        Some(spec) => {
            let spec: ChaosSpec = spec
                .parse()
                .map_err(|e: elc_resil::chaos::ChaosParseError| format!("--chaos: {e}"))?;
            scenario = scenario.with_chaos(spec);
        }
    }
    if flag(flags, "shards").is_some() {
        match parse_or(flags, "shards", 1u32)? {
            0 => return Err("--shards must be at least 1".to_string()),
            n => scenario = scenario.with_shards(n),
        }
    }
    match flag(flags, "fidelity") {
        None => {}
        Some("") => return Err("--fidelity expects event, fluid or auto".to_string()),
        Some(v) => {
            let fidelity: Fidelity = v
                .parse()
                .map_err(|e: elc_fluid::FidelityParseError| format!("--fidelity: {e}"))?;
            scenario = scenario.with_fidelity(fidelity);
        }
    }

    let record = match flag(flags, "record-trace") {
        None => None,
        Some("") => return Err("--record-trace expects a file path".to_string()),
        Some(p) => Some(PathBuf::from(p)),
    };
    let replay = match flag(flags, "workload") {
        None | Some("generated") => None,
        Some("") => {
            return Err("--workload expects a source (generated, or trace:PATH)".to_string())
        }
        Some(spec) => match spec.strip_prefix("trace:") {
            Some("") => return Err("--workload trace: expects a file path".to_string()),
            Some(_) if record.is_some() => {
                return Err("--record-trace cannot be combined with --workload trace: \
                     (recording captures generator-driven runs)"
                    .to_string())
            }
            Some(path) => Some(load_trace(Path::new(path))?),
            None => {
                return Err(format!(
                    "--workload: unknown source {spec:?} (generated, or trace:PATH)"
                ))
            }
        },
    };
    let replay = match (flag(flags, "morph"), replay) {
        (None, replay) => replay,
        (Some(_), None) => return Err("--morph requires --workload trace:PATH".to_string()),
        (Some(spec), Some(trace)) => {
            let morph = MorphSpec::parse(spec).map_err(|e| format!("--morph: {e}"))?;
            Some(morph.apply(&trace).map_err(|e| format!("--morph: {e}"))?)
        }
    };
    if let Some(trace) = replay {
        scenario = scenario
            .with_workload_trace(trace.into_shared())
            .map_err(|e| format!("--workload: {e}"))?;
    }

    if experiment.and_then(registry::find).map(|e| e.id()) == Some("e18")
        && scenario.fidelity() == Fidelity::Event
    {
        let estimate = crate::experiments::e18::event_count_estimate(&scenario);
        if estimate > EVENT_BUDGET {
            return Err(format!(
                "e18 on {} at event fidelity needs ~{estimate:.1e} events — beyond the \
                 {EVENT_BUDGET:.0e}-event budget; rerun with --fidelity fluid or --fidelity auto",
                scenario.name(),
            ));
        }
    }

    let recording = match record {
        None => None,
        Some(_) if scenario.shards() != 1 || runs != 1 => {
            return Err("--record-trace requires --shards 1 and a single run \
                 (--replications 1, one --scenario): stream order follows source creation"
                .to_string())
        }
        Some(path) => {
            let recorder = elc_wltrace::TraceRecorder::new();
            scenario.attach_recorder(recorder.clone());
            Some(Recording { path, recorder })
        }
    };
    Ok((scenario, recording))
}

/// The largest event-level run the CLI will accept for the scale
/// experiment (~30 s of simulation at the measured events/sec).
pub const EVENT_BUDGET: f64 = 2.0e9;

/// A `--record-trace` capture in progress: the recorder attached to the
/// scenario and the file its trace goes to.
#[derive(Debug)]
pub struct Recording {
    path: PathBuf,
    recorder: elc_wltrace::TraceRecorder,
}

impl Recording {
    /// Assembles the recorded trace, writes it (`.csv` as interchange
    /// CSV, anything else as `ELCW` binary) and returns a one-line
    /// summary for stderr.
    ///
    /// # Errors
    ///
    /// Returns a message when nothing was recorded, the streams conflict,
    /// or the file cannot be written.
    pub fn finish(&self) -> Result<String, String> {
        let trace = self
            .recorder
            .finish()
            .map_err(|e| format!("--record-trace: {e}"))?;
        let written = if is_csv(&self.path) {
            csvio::write_file(&trace, &self.path)
        } else {
            codec::write_file(&trace, &self.path)
        };
        written.map_err(|e| format!("--record-trace {}: {e}", self.path.display()))?;
        Ok(format!(
            "recorded workload trace: {} stream(s), {} students -> {}",
            trace.streams.len(),
            trace.students,
            self.path.display()
        ))
    }
}

fn is_csv(path: &Path) -> bool {
    path.extension()
        .is_some_and(|e| e.eq_ignore_ascii_case("csv"))
}

/// Loads a workload trace from disk, dispatching on the extension:
/// `.csv` parses as interchange CSV, everything else as `ELCW` binary.
fn load_trace(path: &Path) -> Result<WorkloadTrace, String> {
    let loaded = if is_csv(path) {
        csvio::read_file(path)
    } else {
        codec::read_file(path)
    };
    loaded.map_err(|e| format!("--workload trace:{}: {e}", path.display()))
}

/// Parsed `--trace`/`--trace-filter` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceOptions {
    /// Where the JSONL trace goes.
    pub path: PathBuf,
    /// What gets recorded (default: everything up to debug).
    pub filter: TraceFilter,
}

impl TraceOptions {
    /// Extracts the tracing options, if tracing was requested.
    ///
    /// `--trace <path>` turns tracing on; `--trace-filter <spec>` (e.g.
    /// `info` or `warn,cloud=trace,net=off`) narrows what is recorded and
    /// is only meaningful together with `--trace`.
    ///
    /// # Errors
    ///
    /// Returns a message when `--trace` has no path, the filter spec does
    /// not parse, or `--trace-filter` appears without `--trace`.
    pub fn from_flags(flags: &[(String, String)]) -> Result<Option<TraceOptions>, String> {
        let path = flag(flags, "trace");
        let filter = flag(flags, "trace-filter");
        match (path, filter) {
            (None, None) => Ok(None),
            (None, Some(_)) => Err("--trace-filter requires --trace <path>".to_string()),
            (Some(""), _) => Err("--trace expects a file path".to_string()),
            (Some(p), spec) => {
                let filter = match spec {
                    None => TraceFilter::default(),
                    Some(s) => s.parse().map_err(|e| format!("--trace-filter: {e}"))?,
                };
                Ok(Some(TraceOptions {
                    path: PathBuf::from(p),
                    filter,
                }))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elc_trace::Level;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn split_separates_positionals_and_flags() {
        let (pos, flags) = split_args(&args(&["e9", "--seed", "7", "university", "--quiet"]));
        assert_eq!(pos, vec!["e9", "university"]);
        assert_eq!(flag(&flags, "seed"), Some("7"));
        assert_eq!(flag(&flags, "quiet"), Some(""));
        assert_eq!(flag(&flags, "missing"), None);
    }

    #[test]
    fn boolean_flag_does_not_swallow_the_next_flag() {
        let (_, flags) = split_args(&args(&["--quiet", "--seed", "7"]));
        assert_eq!(flag(&flags, "quiet"), Some(""));
        assert_eq!(flag(&flags, "seed"), Some("7"));
    }

    #[test]
    fn parse_or_defaults_and_diagnoses() {
        let (_, flags) = split_args(&args(&["--seed", "banana"]));
        assert_eq!(parse_or(&flags, "threads", 4usize), Ok(4));
        let err = parse_or(&flags, "seed", 0u64).unwrap_err();
        assert!(err.contains("--seed expects a number"), "{err}");
    }

    #[test]
    fn every_preset_resolves_and_nothing_else() {
        for name in SCENARIO_NAMES {
            let s = scenario_by_name(name, 5).expect(name);
            assert_eq!(s.name(), name);
            assert_eq!(s.seed(), 5);
        }
        assert!(scenario_by_name("atlantis-academy", 5).is_none());
    }

    #[test]
    fn listings_cover_registry_and_presets() {
        let e = experiment_list();
        for id in ["e01", "e15", "e16", "e17", "t1"] {
            assert!(e.contains(id), "missing {id} in {e}");
        }
        let s = scenario_list(1);
        for name in SCENARIO_NAMES {
            assert!(s.contains(name), "missing {name} in {s}");
        }
    }

    #[test]
    fn diagnostics_share_one_spelling() {
        assert!(unknown_scenario("x").starts_with("unknown scenario \"x\""));
        assert!(unknown_experiment("e99").starts_with("unknown experiment \"e99\""));
    }

    #[test]
    fn check_flags_names_the_first_unknown_flag() {
        let (_, flags) = split_args(&args(&["--seed", "1", "--threads", "4", "--bogus"]));
        assert_eq!(check_flags(&flags, &["seed", "threads", "bogus"]), Ok(()));
        assert_eq!(
            check_flags(&flags, &["seed"]),
            Err("unknown flag --threads".to_string())
        );
    }

    /// `scenario_from_flags` over `list` for the university preset, one run.
    fn build(list: &[&str]) -> Result<Scenario, String> {
        build_for(list, None, 1)
    }

    fn build_for(list: &[&str], experiment: Option<&str>, runs: u32) -> Result<Scenario, String> {
        let (_, flags) = split_args(&args(list));
        scenario_from_flags(&flags, "university", 1, experiment, runs).map(|(s, _)| s)
    }

    #[test]
    fn no_flags_keep_the_preset() {
        assert_eq!(build(&[]).unwrap(), Scenario::university(1));
        assert_eq!(
            build(&["--workload", "generated"]).unwrap(),
            Scenario::university(1)
        );
        let (_, flags) = split_args(&args(&[]));
        let err = scenario_from_flags(&flags, "atlantis-academy", 1, None, 1).unwrap_err();
        assert_eq!(err, unknown_scenario("atlantis-academy"));
    }

    #[test]
    fn chaos_flag_parses_or_diagnoses() {
        assert_eq!(build(&[]).unwrap().chaos(), None);
        assert_eq!(
            build(&["--chaos", "off"]).unwrap().chaos(),
            Some(&ChaosSpec::off())
        );
        let s = build(&["--chaos", "storm@0.3:n=4,mins=6;disaster@0.79"]).unwrap();
        assert_eq!(s.chaos().unwrap().campaigns().len(), 2);
        assert!(build(&["--chaos"])
            .unwrap_err()
            .contains("expects a campaign spec"));
        assert!(build(&["--chaos", "meteor@0.5"])
            .unwrap_err()
            .starts_with("--chaos:"));
    }

    #[test]
    fn shards_flag_overrides_or_diagnoses() {
        assert_eq!(build(&[]).unwrap().shards(), 1);
        assert_eq!(build(&["--shards", "4"]).unwrap().shards(), 4);
        assert!(build(&["--shards", "0"])
            .unwrap_err()
            .contains("at least 1"));
        assert!(build(&["--shards", "many"])
            .unwrap_err()
            .contains("expects a number"));
    }

    #[test]
    fn fidelity_flag_parses_or_diagnoses() {
        assert_eq!(build(&[]).unwrap().fidelity(), Fidelity::Event);
        for (spell, want) in [
            ("event", Fidelity::Event),
            ("fluid", Fidelity::Fluid),
            ("auto", Fidelity::Auto),
        ] {
            assert_eq!(build(&["--fidelity", spell]).unwrap().fidelity(), want);
        }
        assert!(build(&["--fidelity"])
            .unwrap_err()
            .contains("expects event, fluid or auto"));
        assert!(build(&["--fidelity", "psychic"])
            .unwrap_err()
            .contains("psychic"));
    }

    #[test]
    fn feasibility_guard_blocks_event_mode_at_national_scale() {
        let national = |list: &[&str], experiment: &str| {
            let (_, flags) = split_args(&args(list));
            scenario_from_flags(&flags, "national-5m", 1, Some(experiment), 1).map(|(s, _)| s)
        };
        // The preset itself (auto) passes, as does fluid.
        assert!(national(&[], "e18").is_ok());
        assert!(national(&["--fidelity", "fluid"], "e18").is_ok());
        // Forcing event fidelity at 5M students is refused, with a hint.
        let err = national(&["--fidelity", "event"], "E18").unwrap_err();
        assert!(err.contains("--fidelity fluid"), "{err}");
        // University-scale event runs stay allowed, as do other
        // experiments at any scale (they never sample per-request at 5M).
        assert!(build_for(&[], Some("e18"), 1).is_ok());
        assert!(national(&["--fidelity", "event"], "e12").is_ok());
    }

    fn tiny_trace() -> WorkloadTrace {
        let mut trace = WorkloadTrace::empty(4_000, 120.0);
        let mut stream = elc_wltrace::Stream::default();
        for i in 0..4u64 {
            stream.rates.push(elc_wltrace::RateSample {
                t_ns: i * 60_000_000_000,
                rate_bits: (40.0 + i as f64).to_bits(),
            });
            stream.slots.push(elc_wltrace::SlotSample {
                t_ns: i * 60_000_000_000,
                slot_ns: 60_000_000_000,
                count: 10 + i,
            });
        }
        trace.streams.push(stream);
        trace
    }

    #[test]
    fn workload_flags_load_morph_and_apply_traces() {
        let dir = std::env::temp_dir().join("elc-cli-workload-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.elcw");
        elc_wltrace::codec::write_file(&tiny_trace(), &path).unwrap();
        let spec = format!("trace:{}", path.display());

        let s = build(&["--workload", &spec]).unwrap();
        assert_eq!(s.replay_trace().expect("trace loaded").students, 4_000);
        assert_eq!(s.students(), 4_000, "population follows the trace");

        let s = build(&["--workload", &spec, "--morph", "scale=2"]).unwrap();
        assert_eq!(s.students(), 8_000, "morph ran at load time");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn workload_flags_accept_csv_traces() {
        let dir = std::env::temp_dir().join("elc-cli-workload-csv-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        elc_wltrace::csvio::write_file(&tiny_trace(), &path).unwrap();
        let s = build(&["--workload", &format!("trace:{}", path.display())]).unwrap();
        assert_eq!(s.students(), 4_000);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn workload_flags_diagnose_misuse() {
        for (list, want) in [
            (&["--workload"][..], "expects a source"),
            (&["--workload", "psychic"], "unknown source"),
            (&["--workload", "trace:"], "expects a file path"),
            (
                &["--workload", "trace:/no/such/file.elcw"],
                "/no/such/file.elcw",
            ),
            (&["--morph", "scale=2"], "requires --workload trace:"),
            (&["--record-trace"], "expects a file path"),
            (
                &["--record-trace", "out.elcw", "--workload", "trace:in.elcw"],
                "cannot be combined",
            ),
        ] {
            let err = build(list).unwrap_err();
            assert!(err.contains(want), "{list:?}: {err}");
        }
    }

    #[test]
    fn recording_needs_one_unsharded_run() {
        let (_, flags) = split_args(&args(&["--record-trace", "out.elcw"]));
        let (scenario, recording) = scenario_from_flags(&flags, "university", 1, None, 1).unwrap();
        assert_eq!(scenario.replay_trace(), None);
        assert_eq!(recording.unwrap().path, PathBuf::from("out.elcw"));
        let (_, flags) = split_args(&args(&[]));
        assert!(scenario_from_flags(&flags, "university", 1, None, 1)
            .unwrap()
            .1
            .is_none());

        for (list, runs) in [
            (&["--record-trace", "out.elcw", "--shards", "2"][..], 1),
            (&["--record-trace", "out.elcw"], 8),
        ] {
            let err = build_for(list, None, runs).unwrap_err();
            assert!(err.contains("requires --shards 1"), "{err}");
        }
        // national-5m shards by default, so recording it needs --shards 1.
        let (_, flags) = split_args(&args(&["--record-trace", "out.elcw"]));
        assert!(scenario_from_flags(&flags, "national-5m", 1, None, 1).is_err());
    }

    #[test]
    fn trace_options_parse() {
        let (_, flags) = split_args(&args(&["--trace", "run.jsonl"]));
        let opts = TraceOptions::from_flags(&flags).unwrap().unwrap();
        assert_eq!(opts.path, PathBuf::from("run.jsonl"));
        assert_eq!(opts.filter, TraceFilter::default());

        let (_, flags) = split_args(&args(&[
            "--trace",
            "t.jsonl",
            "--trace-filter",
            "warn,cloud=trace",
        ]));
        let opts = TraceOptions::from_flags(&flags).unwrap().unwrap();
        assert_eq!(
            opts.filter.level_for("cloud"),
            elc_trace::LevelFilter::at(Level::Trace)
        );

        let (_, flags) = split_args(&args(&["--seed", "1"]));
        assert_eq!(TraceOptions::from_flags(&flags), Ok(None));
    }

    #[test]
    fn trace_options_diagnose_misuse() {
        let (_, flags) = split_args(&args(&["--trace-filter", "info"]));
        assert!(TraceOptions::from_flags(&flags)
            .unwrap_err()
            .contains("requires --trace"));

        let (_, flags) = split_args(&args(&["--trace"]));
        assert!(TraceOptions::from_flags(&flags)
            .unwrap_err()
            .contains("expects a file path"));

        let (_, flags) = split_args(&args(&["--trace", "t.jsonl", "--trace-filter", "nope"]));
        assert!(TraceOptions::from_flags(&flags)
            .unwrap_err()
            .contains("--trace-filter"));
    }
}
