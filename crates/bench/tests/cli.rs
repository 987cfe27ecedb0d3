//! Integration tests of the command-line tools, run as real
//! subprocesses found through `CARGO_BIN_EXE_*`.

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn simrun() -> Command {
    Command::new(env!("CARGO_BIN_EXE_simrun"))
}

fn tracequery() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tracequery"))
}

fn fixture(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn repro_renders_an_analytic_figure() {
    let out = repro().args(["fig7b"]).output().expect("spawn repro");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("Fig. 7b"));
    assert!(text.contains("E[RFs]"));
    // Ten data rows for H = 1..10.
    assert_eq!(
        text.lines()
            .filter(|l| l.trim().starts_with(char::is_numeric))
            .count(),
        10
    );
}

#[test]
fn repro_rejects_unknown_experiment() {
    let out = repro().args(["fig99"]).output().expect("spawn repro");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown experiment"));
}

#[test]
fn repro_writes_csv() {
    let dir = std::env::temp_dir().join(format!("alert_csv_{}", std::process::id()));
    let out = repro()
        .args(["fig9a", "--csv", dir.to_str().unwrap()])
        .output()
        .expect("spawn repro");
    assert!(out.status.success());
    let csv = std::fs::read_to_string(dir.join("fig9a.csv")).expect("csv written");
    assert!(csv.starts_with("t (s),"));
    assert!(csv.lines().count() > 5);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn simrun_emits_a_valid_default_scenario_and_reruns_it() {
    let out = simrun()
        .args(["--emit-default-scenario"])
        .output()
        .expect("spawn simrun");
    assert!(out.status.success());
    let json = String::from_utf8(out.stdout).unwrap();
    assert!(json.contains("\"nodes\": 200"));

    // Round-trip: feed the emitted scenario back in (shrunk for speed).
    let shrunk = json
        .replace("\"nodes\": 200", "\"nodes\": 60")
        .replace("\"duration_s\": 100.0", "\"duration_s\": 8.0")
        .replace("\"pairs\": 10", "\"pairs\": 2");
    let path = std::env::temp_dir().join(format!("alert_scenario_{}.json", std::process::id()));
    std::fs::write(&path, shrunk).unwrap();
    let out = simrun()
        .args([
            "--protocol",
            "gpsr",
            "--scenario",
            path.to_str().unwrap(),
            "--seed",
            "3",
        ])
        .output()
        .expect("spawn simrun");
    let _ = std::fs::remove_file(&path);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("GPSR on 60 nodes"));
    assert!(text.contains("delivery"));
}

#[test]
fn simrun_guardrails_abort_with_structured_error_and_trace_marker() {
    let trace = std::env::temp_dir().join(format!("alert_abort_{}.jsonl", std::process::id()));
    let out = simrun()
        .args([
            "--protocol",
            "gpsr",
            "--nodes",
            "40",
            "--pairs",
            "2",
            "--duration",
            "10",
            "--seed",
            "3",
            "--max-events",
            "50",
            "--trace",
            trace.to_str().unwrap(),
        ])
        .output()
        .expect("spawn simrun");
    // Aborted runs are runtime failures (exit 1), not usage errors.
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("run aborted: event budget of 50 exhausted"),
        "stderr: {err}"
    );
    // The trace was still flushed and ends with the abort marker.
    let text = std::fs::read_to_string(&trace).expect("trace written");
    let _ = std::fs::remove_file(&trace);
    let last = text.lines().last().expect("trace non-empty");
    assert!(last.contains("\"ev\":\"run_aborted\""), "last line: {last}");
    assert!(
        last.contains("\"reason\":\"event_budget\""),
        "last line: {last}"
    );
}

/// Every tracequery subcommand over the committed fixtures must emit
/// exactly the committed golden bytes — the binary's own CSV assembly
/// (anonymity, rates) included, not just the library renderers.
#[test]
fn tracequery_output_matches_committed_goldens() {
    let trace = fixture("trace.jsonl");
    let series = fixture("series.jsonl");
    let cases: [(&[&str], &str); 9] = [
        (
            &["filter", &trace, "--node", "3", "--format", "csv"],
            "golden/filter_node3.csv",
        ),
        (
            &["filter", &trace, "--kind", "drop", "--format", "csv"],
            "golden/filter_drops.csv",
        ),
        (
            &["follow", &trace, "--packet", "0"],
            "golden/follow_packet0.jsonl",
        ),
        (&["windows", &trace, "--every", "5"], "golden/windows.csv"),
        (
            &["windows", &trace, "--every", "5", "--format", "json"],
            "golden/windows.json",
        ),
        (
            &["anonymity", &trace, "--every", "5"],
            "golden/anonymity.csv",
        ),
        (
            &["anonymity", &trace, "--every", "5", "--summary"],
            "golden/anonymity_summary.csv",
        ),
        (&["rates", &series], "golden/rates.csv"),
        (
            &["rates", &series, "--counter", "tx.frames"],
            "golden/rates_tx_frames.csv",
        ),
    ];
    for (args, golden) in cases {
        let out = tracequery().args(args).output().expect("spawn tracequery");
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let want = std::fs::read_to_string(fixture(golden)).expect("golden readable");
        assert_eq!(
            String::from_utf8(out.stdout).unwrap(),
            want,
            "{args:?} diverged from {golden}"
        );
    }
}

#[test]
fn tracequery_rejects_bad_input_and_unknown_flags() {
    let out = tracequery()
        .args(["filter", "/nonexistent/trace.jsonl"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));

    let out = tracequery()
        .args(["windows", &fixture("trace.jsonl"), "--bogus", "1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("unknown flag"));

    let out = tracequery()
        .args(["rates", &fixture("trace.jsonl")])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "a trace is not a timeseries");
}

#[test]
fn simrun_rejects_degenerate_budgets() {
    let out = simrun()
        .args(["--protocol", "gpsr", "--max-events", "0"])
        .output()
        .expect("spawn simrun");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("budget.max_events"));
}

#[test]
fn simrun_rejects_bad_protocol_and_bad_scenario() {
    let out = simrun().args(["--protocol", "ospf"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("unknown protocol"));

    let path = std::env::temp_dir().join(format!("alert_bad_{}.json", std::process::id()));
    std::fs::write(&path, "{ not json").unwrap();
    let out = simrun()
        .args(["--scenario", path.to_str().unwrap()])
        .output()
        .unwrap();
    let _ = std::fs::remove_file(&path);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("bad scenario"));
}
