//! Crash-safe orchestration guarantees of the `repro` binary: an
//! interrupted campaign resumed with `--resume` produces byte-identical
//! CSVs to an uninterrupted one, fingerprint mismatches force re-runs,
//! and planted failures are quarantined without sinking the campaign.
//!
//! Runs `repro` as a real subprocess, found through
//! `CARGO_BIN_EXE_repro`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn repro_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_repro"))
}

/// Runs `repro` with `args`; panics on spawn failure, returns the
/// captured output otherwise.
fn repro(bin: &PathBuf, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("spawn repro binary")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("alert_resume_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The analytic experiments (no Monte-Carlo sweeps) — fast enough to
/// run as subprocess campaigns inside a test.
const CAMPAIGN: [&str; 3] = ["fig7a", "fig9a", "fig9b"];

#[test]
fn interrupted_campaign_resumes_to_identical_csvs() {
    let bin = repro_bin();
    // Reference: the campaign in one uninterrupted pass.
    let clean = scratch_dir("clean");
    let out = repro(
        &bin,
        &[
            "fig7a",
            "fig9a",
            "fig9b",
            "--runs",
            "3",
            "--csv",
            clean.to_str().unwrap(),
        ],
    );
    assert!(out.status.success(), "{}", stderr_of(&out));

    // Interrupted: only the first experiment lands, then the "process
    // dies" mid-append — emulated by a torn trailing manifest line.
    let resumed = scratch_dir("resumed");
    let out = repro(
        &bin,
        &["fig7a", "--runs", "3", "--csv", resumed.to_str().unwrap()],
    );
    assert!(out.status.success(), "{}", stderr_of(&out));
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(resumed.join("manifest.jsonl"))
            .unwrap();
        f.write_all(b"{\"target\":\"fig9a\",\"finger").unwrap();
    }

    // Resume the full campaign: fig7a must be skipped, the torn fig9a
    // line ignored (and re-run), and the final CSVs byte-identical to
    // the uninterrupted pass.
    let out = repro(
        &bin,
        &[
            "fig7a",
            "fig9a",
            "fig9b",
            "--runs",
            "3",
            "--csv",
            resumed.to_str().unwrap(),
            "--resume",
        ],
    );
    assert!(out.status.success(), "{}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(
        err.contains("[resume] fig7a"),
        "fig7a should be skipped:\n{err}"
    );
    assert!(!err.contains("[resume] fig9a"), "fig9a must re-run:\n{err}");

    for t in CAMPAIGN {
        let a = std::fs::read(clean.join(format!("{t}.csv"))).expect("clean csv");
        let b = std::fs::read(resumed.join(format!("{t}.csv"))).expect("resumed csv");
        assert_eq!(a, b, "{t}.csv differs between clean and resumed runs");
    }
    let _ = std::fs::remove_dir_all(clean);
    let _ = std::fs::remove_dir_all(resumed);
}

#[test]
fn fingerprint_mismatch_forces_rerun() {
    let bin = repro_bin();
    let dir = scratch_dir("fingerprint");
    let out = repro(
        &bin,
        &["fig7a", "--runs", "3", "--csv", dir.to_str().unwrap()],
    );
    assert!(out.status.success(), "{}", stderr_of(&out));

    // Same target, different --runs: the journaled fingerprint no
    // longer matches, so --resume must re-run rather than skip.
    let out = repro(
        &bin,
        &[
            "fig7a",
            "--runs",
            "4",
            "--csv",
            dir.to_str().unwrap(),
            "--resume",
        ],
    );
    assert!(out.status.success(), "{}", stderr_of(&out));
    assert!(
        !stderr_of(&out).contains("[resume]"),
        "a changed campaign shape must not be skipped"
    );
    let manifest = std::fs::read_to_string(dir.join("manifest.jsonl")).unwrap();
    // Count terminal entries only — the journal also carries lease
    // records, one (or more) per claim.
    let terminal = manifest
        .lines()
        .filter(|l| l.contains("\"status\":"))
        .count();
    assert_eq!(terminal, 2, "both passes journaled:\n{manifest}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn resume_requires_csv() {
    let bin = repro_bin();
    let out = repro(&bin, &["fig7a", "--resume"]);
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    assert!(stderr_of(&out).contains("--resume requires --csv"));
}

#[test]
fn unknown_experiment_fails_before_any_work() {
    let bin = repro_bin();
    let dir = scratch_dir("unknown");
    let out = repro(
        &bin,
        &[
            "fig7a",
            "fig99",
            "--runs",
            "2",
            "--csv",
            dir.to_str().unwrap(),
        ],
    );
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    assert!(stderr_of(&out).contains("unknown experiment 'fig99'"));
    // Upfront validation: nothing ran, nothing was journaled.
    assert!(!dir.exists(), "no artifacts before validation passes");
}

#[test]
fn planted_panic_point_is_quarantined_not_fatal() {
    let bin = repro_bin();
    let dir = scratch_dir("quarantine");
    // The hidden __panic-point drill plants a panicking sweep point;
    // fig7a after it must still run to completion.
    let out = repro(
        &bin,
        &[
            "__panic-point",
            "fig7a",
            "--runs",
            "2",
            "--csv",
            dir.to_str().unwrap(),
        ],
    );
    assert_eq!(out.status.code(), Some(1), "quarantined failures exit 1");
    assert!(
        dir.join("fig7a.csv").exists(),
        "the campaign completes past the failing experiment"
    );
    let failures = std::fs::read_to_string(dir.join("failures.jsonl")).expect("failure report");
    assert!(
        failures.contains("planted panic: __panic-point"),
        "failure report carries the panic: {failures}"
    );
    assert!(
        failures.contains("\"replay\":\"simrun --protocol gpsr"),
        "each quarantined run carries a replay command: {failures}"
    );
    let manifest = std::fs::read_to_string(dir.join("manifest.jsonl")).unwrap();
    assert!(manifest.contains("\"target\":\"__panic-point\""));
    assert!(manifest.contains("\"status\":\"failed\""));

    // --resume skips the completed fig7a but retries the failed drill.
    let out = repro(
        &bin,
        &[
            "__panic-point",
            "fig7a",
            "--runs",
            "2",
            "--csv",
            dir.to_str().unwrap(),
            "--resume",
        ],
    );
    assert_eq!(out.status.code(), Some(1));
    let err = stderr_of(&out);
    assert!(err.contains("[resume] fig7a"), "fig7a skipped:\n{err}");
    assert!(
        !err.contains("[resume] __panic-point"),
        "failed experiments must be retried:\n{err}"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn experiment_level_panic_does_not_sink_the_campaign() {
    let bin = repro_bin();
    let dir = scratch_dir("exp_panic");
    let out = repro(
        &bin,
        &[
            "__panic-experiment",
            "fig7a",
            "--runs",
            "2",
            "--csv",
            dir.to_str().unwrap(),
        ],
    );
    assert_eq!(out.status.code(), Some(1));
    assert!(
        dir.join("fig7a.csv").exists(),
        "later experiments still run"
    );
    let failures = std::fs::read_to_string(dir.join("failures.jsonl")).expect("failure report");
    assert!(failures.contains("planted panic: __panic-experiment"));
    let _ = std::fs::remove_dir_all(dir);
}
