//! Shared command-line vocabulary for the suite's front ends.
//!
//! `elc`, `elc-run` and `paper-tables` grew three private copies of the
//! same argument plumbing — flag splitting, scenario lookup, experiment
//! listings — and their spellings had started to drift (different
//! "unknown scenario" wording, different `--flag value` edge cases). This
//! module is the single copy: every binary parses with [`split_args`],
//! resolves presets with [`scenario_by_name`], prints
//! [`experiment_list`]/[`scenario_list`] and reports failures with
//! [`unknown_experiment`]/[`unknown_scenario`], so the tools answer
//! identically everywhere.
//!
//! Tracing flags are shared too: [`TraceOptions::from_flags`] understands
//! `--trace <path>` and `--trace-filter <spec>` for any binary that can
//! write a JSONL trace.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

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
/// with `--`; boolean flags (`--quiet`, `--list`) therefore get an empty
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
    format!("unknown experiment {id:?} (e1..e19, t1; try --list)")
}

/// The experiment registry rendered one `id  name` line at a time — the
/// body of every `--list`/`experiments` output.
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

/// Extracts `--chaos <spec>`, the fault-campaign override for E16.
///
/// The spec grammar is `elc-resil`'s ([`ChaosSpec`]): `off`, or campaigns
/// joined with `;` — `storm@0.3:n=4,mins=6`, `cascade@0.55:n=3`,
/// `disaster@0.79`. Returns `None` when the flag is absent (experiments
/// then use their own default campaign).
///
/// # Errors
///
/// Returns a message when the flag has no value or the spec does not
/// parse.
pub fn chaos_from_flags(flags: &[(String, String)]) -> Result<Option<ChaosSpec>, String> {
    match flag(flags, "chaos") {
        None => Ok(None),
        Some("") => Err("--chaos expects a campaign spec (e.g. disaster@0.79, or off)".to_string()),
        Some(spec) => spec
            .parse()
            .map(Some)
            .map_err(|e: elc_resil::chaos::ChaosParseError| format!("--chaos: {e}")),
    }
}

/// Extracts `--shards <n>`, the arm-parallelism level. Returns `None`
/// when the flag is absent — the scenario then keeps its preset shard
/// count (1 everywhere except `national-5m`, whose four regions shard by
/// default). E16, E17 and E19 spread their independent arms over up to
/// `n` threads and print the same bytes at any value; E18 federates one
/// region per shard.
///
/// # Errors
///
/// Returns a message when the value is not a number or is zero.
pub fn shards_from_flags(flags: &[(String, String)]) -> Result<Option<u32>, String> {
    if flag(flags, "shards").is_none() {
        return Ok(None);
    }
    let shards: u32 = parse_or(flags, "shards", 1)?;
    if shards == 0 {
        return Err("--shards must be at least 1".to_string());
    }
    Ok(Some(shards))
}

/// Applies a `--shards` override, keeping the scenario's preset shard
/// count when the flag was absent.
#[must_use]
pub fn with_shards_override(scenario: Scenario, shards: Option<u32>) -> Scenario {
    match shards {
        Some(n) => scenario.with_shards(n),
        None => scenario,
    }
}

/// Extracts `--fidelity <event|fluid|auto>`, the simulation-fidelity
/// override. Returns `None` when the flag is absent — the scenario then
/// keeps its preset fidelity (`event` everywhere except `national-5m`,
/// which defaults to `auto`).
///
/// # Errors
///
/// Returns a message when the flag has no value or the value is not one
/// of the three fidelities.
pub fn fidelity_from_flags(flags: &[(String, String)]) -> Result<Option<Fidelity>, String> {
    match flag(flags, "fidelity") {
        None => Ok(None),
        Some("") => Err("--fidelity expects event, fluid or auto".to_string()),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|e: elc_fluid::FidelityParseError| format!("--fidelity: {e}")),
    }
}

/// Refuses configurations whose event-level cost is out of reach.
///
/// The per-request path is linear in offered requests; at the
/// `national-5m` scale an exam day is tens of billions of events, so
/// asking for `--fidelity event` there would not complete. The guard
/// estimates the event count from the scenario's mean offered rate over
/// one day (two events per request: arrival + completion) and rejects
/// event-fidelity runs of the scale experiment (e18) above
/// [`EVENT_BUDGET`] with a diagnostic pointing at fluid/auto.
///
/// # Errors
///
/// Returns the diagnostic when the configuration is infeasible.
pub fn check_fidelity_feasible(experiment_id: &str, scenario: &Scenario) -> Result<(), String> {
    if scenario.fidelity() != Fidelity::Event {
        return Ok(());
    }
    if registry::find(experiment_id).map(|e| e.id()) != Some("e18") {
        return Ok(());
    }
    let estimate = crate::experiments::e18::event_count_estimate(scenario);
    if estimate > EVENT_BUDGET {
        return Err(format!(
            "e18 on {} at event fidelity needs ~{:.1e} events — beyond the {EVENT_BUDGET:.0e}-event \
             budget; rerun with --fidelity fluid or --fidelity auto",
            scenario.name(),
            estimate
        ));
    }
    Ok(())
}

/// The largest event-level run the CLI will accept for the scale
/// experiment (~30 s of simulation at the measured events/sec).
pub const EVENT_BUDGET: f64 = 2.0e9;

/// Parsed `--workload`/`--morph`/`--record-trace` trio: where demand
/// comes from and whether the run should be captured.
///
/// `--workload trace:PATH` replays a recorded trace (`.csv` files parse
/// as interchange CSV, everything else as the `ELCW` binary format);
/// `--workload generated` is the explicit spelling of the default.
/// `--morph SPEC` (e.g. `stretch=2,scale=0.5,clip=48..96`) reshapes the
/// replayed trace before the run. `--record-trace PATH` tees a
/// generator-driven run into a trace file at PATH.
#[derive(Debug, Clone, Default)]
pub struct WorkloadOptions {
    /// The loaded (and morphed) trace to replay, when requested.
    pub replay: Option<Arc<WorkloadTrace>>,
    /// Where to write the recorded trace, when recording was requested.
    pub record: Option<PathBuf>,
}

impl WorkloadOptions {
    /// True when neither replay nor recording was requested.
    #[must_use]
    pub fn is_default(&self) -> bool {
        self.replay.is_none() && self.record.is_none()
    }

    /// Extracts and validates the workload options, loading (and
    /// morphing) the replay trace file when one is named.
    ///
    /// # Errors
    ///
    /// Returns a message when a flag is malformed, `--morph` appears
    /// without `--workload trace:…`, `--record-trace` is combined with
    /// replay, or the trace file cannot be read, parsed, or morphed.
    pub fn from_flags(flags: &[(String, String)]) -> Result<WorkloadOptions, String> {
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
                Some(path) => {
                    if record.is_some() {
                        return Err("--record-trace cannot be combined with --workload trace: \
                             (recording captures generator-driven runs)"
                            .to_string());
                    }
                    Some(load_trace(Path::new(path))?)
                }
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
        Ok(WorkloadOptions {
            replay: replay.map(WorkloadTrace::into_shared),
            record,
        })
    }

    /// Applies the replay choice to `scenario` (recording is attached by
    /// the binary, which owns the recorder's lifecycle).
    ///
    /// # Errors
    ///
    /// Returns a message when the trace fails scenario validation.
    pub fn apply(&self, scenario: Scenario) -> Result<Scenario, String> {
        match &self.replay {
            None => Ok(scenario),
            Some(trace) => scenario
                .with_workload_trace(Arc::clone(trace))
                .map_err(|e| format!("--workload: {e}")),
        }
    }

    /// Attaches a fresh recorder to `scenario` when `--record-trace` was
    /// given, returning the handle the caller later passes to
    /// [`finish_recording`](WorkloadOptions::finish_recording).
    #[must_use]
    pub fn start_recording(&self, scenario: &mut Scenario) -> Option<elc_wltrace::TraceRecorder> {
        self.record.as_ref().map(|_| {
            let recorder = elc_wltrace::TraceRecorder::new();
            scenario.attach_recorder(recorder.clone());
            recorder
        })
    }

    /// Finalises a recording: assembles the trace, writes it to the
    /// `--record-trace` path (`.csv` as interchange CSV, anything else
    /// as `ELCW` binary) and returns a one-line summary for stderr.
    ///
    /// # Errors
    ///
    /// Returns a message when nothing was recorded, the streams conflict,
    /// or the file cannot be written.
    pub fn finish_recording(
        &self,
        recorder: &elc_wltrace::TraceRecorder,
    ) -> Result<String, String> {
        let path = self
            .record
            .as_ref()
            .ok_or_else(|| "--record-trace was not requested".to_string())?;
        let trace = recorder
            .finish()
            .map_err(|e| format!("--record-trace: {e}"))?;
        let csv = path
            .extension()
            .is_some_and(|e| e.eq_ignore_ascii_case("csv"));
        let written = if csv {
            csvio::write_file(&trace, path)
        } else {
            codec::write_file(&trace, path)
        };
        written.map_err(|e| format!("--record-trace {}: {e}", path.display()))?;
        Ok(format!(
            "recorded workload trace: {} stream(s), {} students -> {}",
            trace.streams.len(),
            trace.students,
            path.display()
        ))
    }
}

/// Loads a workload trace from disk, dispatching on the extension:
/// `.csv` parses as interchange CSV, everything else as `ELCW` binary.
fn load_trace(path: &Path) -> Result<WorkloadTrace, String> {
    let csv = path
        .extension()
        .is_some_and(|e| e.eq_ignore_ascii_case("csv"));
    let loaded = if csv {
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
    fn chaos_flag_parses_or_diagnoses() {
        let (_, flags) = split_args(&args(&["--seed", "1"]));
        assert_eq!(chaos_from_flags(&flags), Ok(None));

        let (_, flags) = split_args(&args(&["--chaos", "off"]));
        assert_eq!(chaos_from_flags(&flags), Ok(Some(ChaosSpec::off())));

        let (_, flags) = split_args(&args(&["--chaos", "storm@0.3:n=4,mins=6;disaster@0.79"]));
        let spec = chaos_from_flags(&flags).unwrap().unwrap();
        assert_eq!(spec.campaigns().len(), 2);

        let (_, flags) = split_args(&args(&["--chaos"]));
        assert!(chaos_from_flags(&flags)
            .unwrap_err()
            .contains("expects a campaign spec"));

        let (_, flags) = split_args(&args(&["--chaos", "meteor@0.5"]));
        assert!(chaos_from_flags(&flags)
            .unwrap_err()
            .starts_with("--chaos:"));
    }

    #[test]
    fn shards_flag_defaults_and_diagnoses() {
        let (_, flags) = split_args(&args(&["--seed", "1"]));
        assert_eq!(shards_from_flags(&flags), Ok(None));
        let (_, flags) = split_args(&args(&["--shards", "4"]));
        assert_eq!(shards_from_flags(&flags), Ok(Some(4)));
        let (_, flags) = split_args(&args(&["--shards", "0"]));
        assert!(shards_from_flags(&flags)
            .unwrap_err()
            .contains("at least 1"));
        let (_, flags) = split_args(&args(&["--shards", "many"]));
        assert!(shards_from_flags(&flags)
            .unwrap_err()
            .contains("expects a number"));
    }

    #[test]
    fn fidelity_flag_parses_or_diagnoses() {
        let (_, flags) = split_args(&args(&["--seed", "1"]));
        assert_eq!(fidelity_from_flags(&flags), Ok(None));
        for (spell, want) in [
            ("event", Fidelity::Event),
            ("fluid", Fidelity::Fluid),
            ("auto", Fidelity::Auto),
        ] {
            let (_, flags) = split_args(&args(&["--fidelity", spell]));
            assert_eq!(fidelity_from_flags(&flags), Ok(Some(want)));
        }
        let (_, flags) = split_args(&args(&["--fidelity"]));
        assert!(fidelity_from_flags(&flags)
            .unwrap_err()
            .contains("expects event, fluid or auto"));
        let (_, flags) = split_args(&args(&["--fidelity", "psychic"]));
        assert!(fidelity_from_flags(&flags).unwrap_err().contains("psychic"));
    }

    #[test]
    fn feasibility_guard_blocks_event_mode_at_national_scale() {
        let national = Scenario::national_5m(1);
        // The preset itself (auto) passes.
        assert_eq!(check_fidelity_feasible("e18", &national), Ok(()));
        assert_eq!(
            check_fidelity_feasible("e18", &national.with_fidelity(Fidelity::Fluid)),
            Ok(())
        );
        // Forcing event fidelity at 5M students is refused, with a hint.
        let err =
            check_fidelity_feasible("e18", &national.with_fidelity(Fidelity::Event)).unwrap_err();
        assert!(err.contains("--fidelity fluid"), "{err}");
        // University-scale event runs stay allowed, as do other
        // experiments at any scale (they never sample per-request at 5M).
        assert_eq!(
            check_fidelity_feasible("e18", &Scenario::university(1)),
            Ok(())
        );
        assert_eq!(
            check_fidelity_feasible("e12", &national.with_fidelity(Fidelity::Event)),
            Ok(())
        );
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
    fn workload_options_default_to_generated() {
        let (_, flags) = split_args(&args(&["--seed", "1"]));
        let opts = WorkloadOptions::from_flags(&flags).unwrap();
        assert!(opts.is_default());
        let (_, flags) = split_args(&args(&["--workload", "generated"]));
        assert!(WorkloadOptions::from_flags(&flags).unwrap().is_default());
        let scenario = scenario_by_name("university", 1).unwrap();
        assert_eq!(opts.apply(scenario.clone()).unwrap(), scenario);
    }

    #[test]
    fn workload_options_load_morph_and_apply_traces() {
        let dir = std::env::temp_dir().join("elc-cli-workload-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.elcw");
        elc_wltrace::codec::write_file(&tiny_trace(), &path).unwrap();
        let spec = format!("trace:{}", path.display());

        let (_, flags) = split_args(&args(&["--workload", &spec]));
        let opts = WorkloadOptions::from_flags(&flags).unwrap();
        let trace = opts.replay.as_ref().expect("trace loaded");
        assert_eq!(trace.students, 4_000);
        let s = opts
            .apply(scenario_by_name("university", 1).unwrap())
            .unwrap();
        assert_eq!(s.students(), 4_000, "population follows the trace");

        let (_, flags) = split_args(&args(&["--workload", &spec, "--morph", "scale=2"]));
        let opts = WorkloadOptions::from_flags(&flags).unwrap();
        assert_eq!(
            opts.replay.unwrap().students,
            8_000,
            "morph ran at load time"
        );

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn workload_options_accept_csv_traces() {
        let dir = std::env::temp_dir().join("elc-cli-workload-csv-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        elc_wltrace::csvio::write_file(&tiny_trace(), &path).unwrap();
        let (_, flags) = split_args(&args(&["--workload", &format!("trace:{}", path.display())]));
        let opts = WorkloadOptions::from_flags(&flags).unwrap();
        assert_eq!(opts.replay.unwrap().students, 4_000);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn workload_options_diagnose_misuse() {
        let (_, flags) = split_args(&args(&["--workload"]));
        assert!(WorkloadOptions::from_flags(&flags)
            .unwrap_err()
            .contains("expects a source"));

        let (_, flags) = split_args(&args(&["--workload", "psychic"]));
        assert!(WorkloadOptions::from_flags(&flags)
            .unwrap_err()
            .contains("unknown source"));

        let (_, flags) = split_args(&args(&["--workload", "trace:"]));
        assert!(WorkloadOptions::from_flags(&flags)
            .unwrap_err()
            .contains("expects a file path"));

        let (_, flags) = split_args(&args(&["--workload", "trace:/no/such/file.elcw"]));
        assert!(WorkloadOptions::from_flags(&flags)
            .unwrap_err()
            .contains("/no/such/file.elcw"));

        let (_, flags) = split_args(&args(&["--morph", "scale=2"]));
        assert!(WorkloadOptions::from_flags(&flags)
            .unwrap_err()
            .contains("requires --workload trace:"));

        let (_, flags) = split_args(&args(&["--record-trace"]));
        assert!(WorkloadOptions::from_flags(&flags)
            .unwrap_err()
            .contains("expects a file path"));

        let (_, flags) = split_args(&args(&[
            "--record-trace",
            "out.elcw",
            "--workload",
            "trace:in.elcw",
        ]));
        assert!(WorkloadOptions::from_flags(&flags)
            .unwrap_err()
            .contains("cannot be combined"));
    }

    #[test]
    fn record_flag_parses_alone() {
        let (_, flags) = split_args(&args(&["--record-trace", "out.elcw"]));
        let opts = WorkloadOptions::from_flags(&flags).unwrap();
        assert_eq!(opts.record, Some(PathBuf::from("out.elcw")));
        assert!(opts.replay.is_none());
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
