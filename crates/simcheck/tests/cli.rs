//! The `simcheck` / `simrun` exit-code contract and the end-to-end
//! planted-defect acceptance path: `0` clean, `1` violation, `2` usage;
//! same seed, byte-identical report; a planted NodeId leak is caught,
//! shrunk, and reported with a `simrun` replay command that actually
//! runs.
//!
//! Runs the binaries as real subprocesses: `simcheck` through
//! `CARGO_BIN_EXE_simcheck`, `simrun` from the same directory.

use std::path::PathBuf;
use std::process::{Command, Output};

fn simcheck_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_simcheck"))
}

/// `simrun` belongs to another package, so cargo sets no
/// `CARGO_BIN_EXE_simrun` here; a workspace build puts it next to
/// `simcheck`. A missing binary fails the test rather than skipping it.
fn simrun_bin() -> PathBuf {
    let simrun = simcheck_bin().with_file_name(format!("simrun{}", std::env::consts::EXE_SUFFIX));
    assert!(
        simrun.exists(),
        "{} is missing: build it with the same profile first \
         (`cargo build -p alert-bench --bin simrun`), or run `cargo test` \
         at the workspace root",
        simrun.display()
    );
    simrun
}

fn run(bin: &PathBuf, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("spawn binary")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn clean_suite_exits_zero_and_is_byte_identical() {
    let bin = simcheck_bin();
    let args = ["--cases", "8", "--seed", "0"];
    let a = run(&bin, &args);
    assert!(
        a.status.success(),
        "clean suite must exit 0\nstdout:\n{}\nstderr:\n{}",
        stdout_of(&a),
        String::from_utf8_lossy(&a.stderr)
    );
    let b = run(&bin, &args);
    assert_eq!(
        a.stdout, b.stdout,
        "same seed must produce a byte-identical report"
    );
    assert!(stdout_of(&a).contains("# summary: cases=8 violations=0"));
}

#[test]
fn usage_errors_exit_two() {
    let bin = simcheck_bin();
    for args in [
        &["--no-such-flag"][..],
        &["--cases"][..],
        &["--cases", "not-a-number"][..],
        &["--cases", "0"][..],
        &["--plant", "weeds"][..],
    ] {
        let out = run(&bin, args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "usage error {args:?} must exit 2, got {:?}",
            out.status.code()
        );
    }
}

#[test]
fn list_invariants_exits_zero_and_names_the_oracles() {
    let bin = simcheck_bin();
    let out = run(&bin, &["--list-invariants"]);
    assert!(out.status.success());
    let text = stdout_of(&out);
    for name in [
        "radio-range",
        "no-node-id-on-wire",
        "accounting-identities",
        "no-panic",
    ] {
        assert!(text.contains(name), "missing {name} in:\n{text}");
    }
}

#[test]
fn planted_leak_is_caught_shrunk_and_replayable() {
    let bin = simcheck_bin();
    let out = run(
        &bin,
        &[
            "--cases",
            "8",
            "--seed",
            "0",
            "--plant",
            "leak",
            "--shrink-runs",
            "25",
        ],
    );
    let text = stdout_of(&out);
    assert_eq!(
        out.status.code(),
        Some(1),
        "planted violation must exit 1\n{text}"
    );
    assert!(text.contains("no-node-id-on-wire"), "{text}");
    assert!(text.contains("shrunk ("), "{text}");

    // The report must contain a one-line replay command...
    let replay = text
        .lines()
        .find_map(|l| l.trim().strip_prefix("replay: "))
        .unwrap_or_else(|| panic!("no replay line in:\n{text}"));
    let mut words = replay.split_whitespace();
    assert_eq!(words.next(), Some("simrun"), "{replay}");
    let args: Vec<&str> = words.collect();
    assert!(args.contains(&"--protocol"), "{replay}");
    assert!(args.contains(&"__leaky-node-id"), "{replay}");

    // ...and that command must actually run (exit 0 under simrun).
    let simrun = simrun_bin();
    let rerun = run(&simrun, &args);
    assert!(
        rerun.status.success(),
        "replay command failed: simrun {}\nstderr:\n{}",
        args.join(" "),
        String::from_utf8_lossy(&rerun.stderr)
    );
}

#[test]
fn failure_artifact_scenario_replays_under_simrun() {
    let bin = simcheck_bin();
    let dir = std::env::temp_dir().join(format!("simcheck_artifacts_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().expect("temp dir is UTF-8");
    let out = run(
        &bin,
        &[
            "--cases",
            "4",
            "--seed",
            "0",
            "--plant",
            "leak",
            "--shrink-runs",
            "10",
            "--artifact-dir",
            dir_arg,
        ],
    );
    assert_eq!(out.status.code(), Some(1), "{}", stdout_of(&out));
    let mut scenarios: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("artifact dir written")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.to_string_lossy().ends_with(".scenario.json"))
        .collect();
    scenarios.sort();
    let scenario = scenarios.first().expect("a scenario artifact");
    let replay_file = scenario
        .to_string_lossy()
        .replace(".scenario.json", ".replay");
    let replay = std::fs::read_to_string(&replay_file).expect("replay artifact");
    let words: Vec<&str> = replay.split_whitespace().skip(1).collect();
    let flag = |name: &str| {
        let i = words
            .iter()
            .position(|w| *w == name)
            .expect("flag in replay");
        words[i + 1]
    };

    // The scenario file decodes and reruns the case...
    let simrun = simrun_bin();
    let scenario_arg = scenario.to_str().expect("UTF-8 path");
    let args = [
        "--protocol",
        flag("--protocol"),
        "--scenario",
        scenario_arg,
        "--seed",
        flag("--seed"),
    ];
    let rerun = run(&simrun, &args);
    assert!(
        rerun.status.success(),
        "simrun {}\nstderr:\n{}",
        args.join(" "),
        String::from_utf8_lossy(&rerun.stderr)
    );
    // ...and, where the replay line is the flag form, it is the same run.
    if !words.contains(&"--scenario") {
        let by_flags = run(&simrun, &words);
        assert_eq!(stdout_of(&rerun), stdout_of(&by_flags));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn simrun_honours_the_same_exit_code_contract() {
    let simrun = simrun_bin();
    // 0: a small clean run.
    let ok = run(
        &simrun,
        &[
            "--protocol",
            "gpsr",
            "--nodes",
            "20",
            "--pairs",
            "1",
            "--duration",
            "3",
            "--seed",
            "1",
        ],
    );
    assert!(
        ok.status.success(),
        "stderr:\n{}",
        String::from_utf8_lossy(&ok.stderr)
    );
    // 1: runtime failure (guardrail abort).
    let aborted = run(
        &simrun,
        &[
            "--protocol",
            "gpsr",
            "--nodes",
            "20",
            "--pairs",
            "1",
            "--duration",
            "3",
            "--seed",
            "1",
            "--max-events",
            "10",
        ],
    );
    assert_eq!(aborted.status.code(), Some(1));
    // 2: usage error.
    let usage = run(&simrun, &["--protocol", "no-such-protocol"]);
    assert_eq!(usage.status.code(), Some(2));
}
