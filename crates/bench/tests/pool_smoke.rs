//! End-to-end guarantees of the parallel campaign executor, exercised
//! through the real `repro` binary: parallel output is byte-identical
//! to serial output, a kill -9'd run resumes with no lost or duplicated
//! points, orphaned leases are reported and reclaimed, and the advisory
//! directory lock keeps a second orchestrator out.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repro_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_repro"))
}

fn repro(bin: &PathBuf, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("spawn repro binary")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("alert_pool_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Analytic experiments: fast, deterministic, no Monte-Carlo sweeps.
const CAMPAIGN: [&str; 3] = ["fig7a", "fig9a", "fig9b"];

fn run_campaign(bin: &PathBuf, dir: &Path, jobs: &str, extra: &[&str]) -> Output {
    let mut args: Vec<&str> = CAMPAIGN.to_vec();
    let d = dir.to_str().unwrap();
    args.extend_from_slice(&["--runs", "3", "--csv", d, "--jobs", jobs]);
    args.extend_from_slice(extra);
    repro(bin, &args)
}

#[test]
fn parallel_campaign_is_byte_identical_to_serial() {
    let bin = repro_bin();
    let serial = scratch_dir("serial");
    let parallel = scratch_dir("parallel");
    let a = run_campaign(&bin, &serial, "1", &[]);
    assert!(a.status.success(), "{}", stderr_of(&a));
    let b = run_campaign(&bin, &parallel, "3", &[]);
    assert!(b.status.success(), "{}", stderr_of(&b));

    assert_eq!(
        String::from_utf8_lossy(&a.stdout),
        String::from_utf8_lossy(&b.stdout),
        "stdout must not depend on the jobs count"
    );
    for t in CAMPAIGN {
        let sa = std::fs::read(serial.join(format!("{t}.csv"))).expect("serial csv");
        let pa = std::fs::read(parallel.join(format!("{t}.csv"))).expect("parallel csv");
        assert_eq!(sa, pa, "{t}.csv differs between --jobs 1 and --jobs 3");
    }

    // Pool health telemetry lands next to the CSVs and parses as the
    // standard timeseries schema.
    let ts =
        std::fs::read_to_string(parallel.join("pool-timeseries.jsonl")).expect("pool timeseries");
    assert!(
        ts.starts_with("{\"schema\":\"alert-timeseries/1\""),
        "unexpected timeseries header: {ts}"
    );
    assert!(ts.contains("pool.committed"), "{ts}");

    // No stage leftovers once the run commits.
    assert!(
        !parallel.join(".stage").exists(),
        "staging dir must be cleaned up"
    );
    let _ = std::fs::remove_dir_all(serial);
    let _ = std::fs::remove_dir_all(parallel);
}

#[test]
fn killed_parallel_run_resumes_with_no_lost_or_duplicated_points() {
    let bin = repro_bin();
    let clean = scratch_dir("kill_clean");
    let out = run_campaign(&bin, &clean, "1", &[]);
    assert!(out.status.success(), "{}", stderr_of(&out));

    // Start a 2-worker campaign and kill -9 the whole process while it
    // is (very likely) mid-lease. Whatever it managed to journal must
    // be honored on resume; whatever it did not must be re-run.
    let killed = scratch_dir("kill_victim");
    let d = killed.to_str().unwrap();
    let mut child = Command::new(&bin)
        .args([
            "fig7a", "fig9a", "fig9b", "--runs", "3", "--csv", d, "--jobs", "2",
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn repro");
    std::thread::sleep(std::time::Duration::from_millis(30));
    let _ = child.kill(); // SIGKILL on unix
    let _ = child.wait();

    let out = run_campaign(&bin, &killed, "2", &["--resume"]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    for t in CAMPAIGN {
        let a = std::fs::read(clean.join(format!("{t}.csv"))).expect("clean csv");
        let b = std::fs::read(killed.join(format!("{t}.csv"))).expect("resumed csv");
        assert_eq!(a, b, "{t}.csv differs after kill -9 + --resume");
    }
    // Exactly one terminal journal entry per experiment: nothing was
    // double-committed across the two passes.
    let manifest = std::fs::read_to_string(killed.join("manifest.jsonl")).unwrap();
    for t in CAMPAIGN {
        let done = manifest
            .lines()
            .filter(|l| l.contains(&format!("\"target\":\"{t}\"")) && l.contains("\"status\":"))
            .count();
        assert_eq!(done, 1, "{t} has {done} terminal entries:\n{manifest}");
    }
    let _ = std::fs::remove_dir_all(clean);
    let _ = std::fs::remove_dir_all(killed);
}

#[test]
fn orphaned_lease_is_reported_and_reclaimed_on_resume() {
    let bin = repro_bin();
    let dir = scratch_dir("orphan");
    let out = repro(
        &bin,
        &["fig7a", "--runs", "3", "--csv", dir.to_str().unwrap()],
    );
    assert!(out.status.success(), "{}", stderr_of(&out));

    // A lease with no terminal entry: the worker died mid-flight.
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("manifest.jsonl"))
            .unwrap();
        f.write_all(
            b"{\"rec\":\"lease\",\"target\":\"fig9a\",\"fingerprint\":1,\"worker\":1,\"attempt\":1,\"deadline_s\":1.0}\n",
        )
        .unwrap();
    }
    let out = repro(
        &bin,
        &[
            "fig7a",
            "fig9a",
            "--runs",
            "3",
            "--csv",
            dir.to_str().unwrap(),
            "--resume",
        ],
    );
    assert!(out.status.success(), "{}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(
        err.contains("[resume] reclaiming 1 orphaned lease(s)"),
        "orphan note missing:\n{err}"
    );
    assert!(err.contains("[resume] fig7a"), "fig7a skipped:\n{err}");
    assert!(
        dir.join("fig9a.csv").exists(),
        "the orphaned experiment must re-run"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn live_lock_holder_excludes_a_second_orchestrator() {
    let bin = repro_bin();
    let dir = scratch_dir("lock_live");
    std::fs::create_dir_all(&dir).unwrap();
    // PID 1 is always alive on Linux; the lock reads as held by a live
    // foreign orchestrator.
    std::fs::write(dir.join(".orchestrator.lock"), "1\n").unwrap();
    let out = repro(
        &bin,
        &["fig7a", "--runs", "3", "--csv", dir.to_str().unwrap()],
    );
    assert_eq!(out.status.code(), Some(2), "live lock must exit 2");
    let err = stderr_of(&out);
    assert!(
        err.contains("another orchestrator"),
        "diagnostic names the conflict:\n{err}"
    );
    assert!(
        err.contains(".orchestrator.lock"),
        "diagnostic names the lock file:\n{err}"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn stale_lock_is_stolen_and_released() {
    let bin = repro_bin();
    let dir = scratch_dir("lock_stale");
    std::fs::create_dir_all(&dir).unwrap();
    // Far above any real pid_max: the previous owner is provably dead.
    std::fs::write(dir.join(".orchestrator.lock"), "999999999\n").unwrap();
    let out = repro(
        &bin,
        &["fig7a", "--runs", "3", "--csv", dir.to_str().unwrap()],
    );
    assert!(
        out.status.success(),
        "stale lock must be stolen: {}",
        stderr_of(&out)
    );
    assert!(
        !dir.join(".orchestrator.lock").exists(),
        "lock must be released on clean exit"
    );
    let _ = std::fs::remove_dir_all(dir);
}
