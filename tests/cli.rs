//! End-to-end tests of the `elc` command-line interface.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn elc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_elc"))
}

fn elc_run() -> Command {
    let mut cmd = elc();
    cmd.arg("run");
    cmd
}

#[test]
fn scenarios_lists_all_presets() {
    let out = elc().arg("scenarios").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    for name in [
        "small-college",
        "rural-learners",
        "university",
        "national-platform",
    ] {
        assert!(text.contains(name), "missing {name} in:\n{text}");
    }
}

#[test]
fn experiment_prints_a_table() {
    let out = elc()
        .args(["experiment", "e9"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("== E9"));
    assert!(text.contains("| public"));
}

#[test]
fn experiment_accepts_scenario_and_seed() {
    let out = elc()
        .args(["experiment", "e13", "university", "--seed", "7"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("== E13"));
}

#[test]
fn unknown_experiment_fails_with_usage() {
    let out = elc()
        .args(["experiment", "e99"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(err.contains("unknown experiment"));
}

#[test]
fn unknown_scenario_fails() {
    let out = elc()
        .args(["report", "atlantis-academy"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
}

#[test]
fn no_arguments_prints_usage() {
    let out = elc().output().expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(err.contains("usage:"));
}

#[test]
fn advise_with_custom_weights() {
    let out = elc()
        .args([
            "advise",
            "small-college",
            "--profile",
            "startup",
            "--security",
            "0.1",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("recommendation: public"), "{text}");
}

#[test]
fn advise_rejects_out_of_range_weight() {
    let out = elc()
        .args(["advise", "--cost", "2.5"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(err.contains("invalid requirements"));
}

#[test]
fn experiments_lists_the_registry() {
    let out = elc().arg("experiments").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    for id in ["e01", "e15", "e16", "t1"] {
        assert!(text.contains(id), "missing {id} in:\n{text}");
    }
}

#[test]
fn experiment_e15_is_reachable() {
    // The pre-registry CLI silently lacked e15; the registry closed that.
    let out = elc()
        .args(["experiment", "e15"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("== E15"));
}

#[test]
fn experiment_e16_accepts_a_chaos_campaign() {
    let out = elc()
        .args(["experiment", "e16", "--chaos", "disaster@0.5"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("== E16"), "{text}");
    assert!(text.contains("chaos campaign: disaster@0.5"), "{text}");
    assert!(text.contains("| hybrid"), "{text}");
}

#[test]
fn experiment_e19_accepts_a_region_loss_drill() {
    let out = elc()
        .args([
            "experiment",
            "e19",
            "--chaos",
            "regionloss@0.5:region=0,mins=45",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("== E19"), "{text}");
    assert!(
        text.contains("chaos campaign: regionloss@0.5:region=0,mins=45"),
        "{text}"
    );
    assert!(text.contains("| faas"), "{text}");
}

#[test]
fn elc_rejects_a_malformed_chaos_spec() {
    let out = elc()
        .args(["experiment", "e16", "--chaos", "meteor@0.5"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(err.contains("--chaos:"), "{err}");
}

/// `elc run` has no listing flag of its own: it rejects `--list` and
/// points at `elc experiments`, which prints the registry.
#[test]
fn elc_run_lists_experiments() {
    let out = elc_run().arg("--list").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(err.contains("--list"), "{err}");

    let out = elc_run()
        .args(["--experiment", "e99"])
        .output()
        .expect("binary runs");
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(err.contains("`elc experiments`"), "{err}");

    let out = elc().arg("experiments").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("e01"));
    assert!(text.contains("t1"));
}

#[test]
fn elc_run_requires_an_experiment() {
    let out = elc_run().output().expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(err.contains("usage:"));
}

#[test]
fn elc_run_rejects_unknown_experiment() {
    let out = elc_run()
        .args(["--experiment", "e99"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(err.contains("unknown experiment"));
}

/// The acceptance property from the issue: the aggregate table is
/// byte-identical when the same run executes on different thread counts.
#[test]
fn elc_run_aggregates_are_thread_count_invariant() {
    let run = |threads: &str| {
        let out = elc_run()
            .args([
                "--experiment",
                "e09",
                "--replications",
                "6",
                "--seed",
                "42",
                "--quiet",
                "--threads",
                threads,
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8(out.stdout).expect("utf8");
        // Everything before the manifest (which carries wall-clock) must
        // be reproducible.
        let aggregate = text
            .split("run manifest:")
            .next()
            .expect("has aggregate part")
            .to_string();
        assert!(aggregate.contains("ci95"), "{aggregate}");
        assert!(aggregate.contains("6 replications"), "{aggregate}");
        aggregate
    };
    let serial = run("1");
    assert_eq!(serial, run("4"));
}

#[test]
fn subcommands_reject_flags_they_do_not_read() {
    for (args, named) in [
        (&["experiment", "e01", "--threads", "4"][..], "--threads"),
        (&["run", "--experiment", "e01", "--bogus", "1"], "--bogus"),
        (&["tables", "--bogus", "1"], "--bogus"),
        (&["report", "--chaos", "disaster@0.5"], "--chaos"),
        (
            &["advise", "--shards", "4", "--fidelity", "fluid"],
            "--shards",
        ),
        (&["run", "--list"], "--list"),
        (&["experiments", "--seed", "3"], "--seed"),
        (&["tables", "7"], "\"7\""),
        (&["report", "university", "extra"], "\"extra\""),
    ] {
        let out = elc().args(args).output().expect("binary runs");
        let err = String::from_utf8(out.stderr).expect("utf8");
        assert_eq!(out.status.code(), Some(2), "elc {args:?}: {err}");
        assert!(out.stdout.is_empty(), "elc {args:?} printed output");
        assert!(
            err.contains(named),
            "elc {args:?} does not name {named}: {err}"
        );
        assert!(err.contains("usage:"), "elc {args:?}: {err}");
    }
}

#[test]
fn a_closed_stdout_is_a_clean_exit() {
    let mut child = elc()
        .args(["report", "university"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    // Close the read end before the report is written.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("binary exits");
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert_ne!(out.status.code(), Some(101), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn tables_prints_the_goldens_and_writes_one_csv_per_section() {
    let cwd = std::env::temp_dir().join(format!("elc-tables-test-{}", std::process::id()));
    std::fs::create_dir_all(&cwd).expect("temp dir");
    let out = elc()
        .args(["tables", "--seed", "42", "--scenario", "small-college"])
        .current_dir(&cwd)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf8");
    let report = golden("paper_tables_seed42_small-college.txt");
    let e17 = golden("paper_tables_e17_seed42_small-college.txt");
    // The E17 golden is the E17 section followed by T1F; the tables
    // print E19 between the two.
    let t1f_at = e17.find("== T1F").expect("E17 golden holds T1F");
    for (name, want) in [
        ("report", report.as_str()),
        ("E16", &golden("paper_tables_e16_seed42_small-college.txt")),
        ("E17", &e17[..t1f_at]),
        ("T1F", &e17[t1f_at..]),
        ("E19", &golden("paper_tables_e19_seed42_small-college.txt")),
    ] {
        assert!(text.contains(want), "{name} golden missing from:\n{text}");
    }

    let dir: PathBuf = cwd.join("results/small-college");
    let written = std::fs::read_to_string(dir.join("report.txt")).expect("report.txt");
    assert_eq!(written, report);
    let sections = (1..=15).map(|i| format!("e{i}.csv")).chain(
        ["t1", "e16", "e17", "e19", "t1f"]
            .iter()
            .map(|id| format!("{id}.csv")),
    );
    for file in sections {
        let csv =
            std::fs::read_to_string(dir.join(&file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert!(csv.lines().count() > 1, "{file} has no rows");
    }
    std::fs::remove_dir_all(&cwd).ok();
}
