//! Crash-only guarantees of the daemon, exercised through the real
//! `alertd` / `alertctl` binaries: a `kill -9` mid-campaign followed by
//! a restart converges on byte-identical `results/`, admission refuses
//! with exit 2 when the queue is full, a second live daemon on the same
//! directory exits 2 with a pid diagnostic, and a drain exits 0 with
//! every admitted job settled. The binaries are found through
//! `CARGO_BIN_EXE_*`.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

fn alertd_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_alertd"))
}

fn alertctl_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_alertctl"))
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("alertd_smoke_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spawn_daemon(bin: &Path, dir: &Path, extra: &[&str]) -> Child {
    let mut args = vec![
        "serve".to_owned(),
        "--dir".to_owned(),
        dir.to_str().unwrap().to_owned(),
    ];
    args.extend(extra.iter().map(|s| s.to_string()));
    Command::new(bin)
        .args(&args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn alertd")
}

fn wait_for_endpoint(dir: &Path) {
    let endpoint = dir.join("alertd.endpoint");
    let deadline = Instant::now() + Duration::from_secs(60);
    while !endpoint.exists() {
        assert!(
            Instant::now() < deadline,
            "daemon never advertised an endpoint"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn ctl(bin: &Path, dir: &Path, args: &[&str]) -> Output {
    Command::new(bin)
        .arg("--dir")
        .arg(dir)
        .args(args)
        .output()
        .expect("spawn alertctl")
}

/// `alertctl drain`: exits 0 and prints the daemon's `drained` reply,
/// which the daemon writes before its accept loop may return.
fn drain(bin: &Path, dir: &Path) {
    let out = ctl(bin, dir, &["drain"]);
    assert!(
        out.status.success(),
        "drain: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"drained\":1"), "drain reply: {stdout}");
}

/// A job long enough that two of them are still running when the
/// crash drill sees both leases (about 2 s each in a debug build).
fn submit_args(seed: &str) -> Vec<&str> {
    vec![
        "submit",
        "--nodes",
        "600",
        "--pairs",
        "8",
        "--duration",
        "300",
        "--seed",
        seed,
        "--trace",
    ]
}

/// Recursively collects `results/` as (relative path, bytes), sorted.
fn snapshot_results(dir: &Path) -> Vec<(String, Vec<u8>)> {
    fn walk(root: &Path, at: &Path, out: &mut Vec<(String, Vec<u8>)>) {
        for entry in std::fs::read_dir(at).expect("read_dir").flatten() {
            let path = entry.path();
            let rel = path
                .strip_prefix(root)
                .unwrap()
                .to_str()
                .unwrap()
                .to_owned();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                out.push((rel, std::fs::read(&path).expect("read file")));
            }
        }
    }
    let root = dir.join("results");
    let mut out = Vec::new();
    if root.is_dir() {
        walk(&root, &root, &mut out);
        // Staging is transient by definition; never part of the
        // comparison (and must be empty after a drain anyway).
        out.retain(|(rel, _)| !rel.starts_with(".stage"));
    }
    out.sort();
    out
}

fn count_journal(dir: &Path, rec: &str) -> usize {
    let text = std::fs::read_to_string(dir.join("alertd-jobs.jsonl")).unwrap_or_default();
    let needle = format!("{{\"rec\":\"{rec}\"");
    text.lines().filter(|l| l.starts_with(&needle)).count()
}

/// The tentpole drill: run a three-job campaign uninterrupted in one
/// directory; run the same campaign in another directory on two
/// workers but `kill -9` the daemon while two leased jobs are still
/// running, restart, drain — and require the two `results/` trees to
/// be byte-identical (modulo CURRENT, which both must agree on anyway).
#[test]
fn kill_nine_mid_campaign_recovers_byte_identical_results() {
    let (daemon, ctl_bin) = (alertd_bin(), alertctl_bin());
    let seeds = ["101", "102", "103"];

    // --- Reference: uninterrupted run. -------------------------------
    let ref_dir = scratch_dir("ref");
    let mut d = spawn_daemon(&daemon, &ref_dir, &["--jobs", "2"]);
    wait_for_endpoint(&ref_dir);
    for seed in &seeds {
        let out = ctl(&ctl_bin, &ref_dir, &submit_args(seed));
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    drain(&ctl_bin, &ref_dir);
    assert!(d.wait().expect("wait").success(), "clean daemon exit");
    let reference = snapshot_results(&ref_dir);
    assert!(!reference.is_empty(), "reference produced artifacts");

    // --- Crash drill: kill -9 once execution has started. ------------
    let crash_dir = scratch_dir("crash");
    let mut d = spawn_daemon(&daemon, &crash_dir, &["--jobs", "2"]);
    wait_for_endpoint(&crash_dir);
    for seed in &seeds {
        let out = ctl(&ctl_bin, &crash_dir, &submit_args(seed));
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    // Wait until the journal shows two leases while fewer than two jobs
    // are done (two jobs execute at once), then SIGKILL with no warning
    // whatsoever.
    let deadline = Instant::now() + Duration::from_secs(120);
    while count_journal(&crash_dir, "lease") < 2 {
        assert!(Instant::now() < deadline, "two leases never journaled");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        count_journal(&crash_dir, "done") < 2,
        "the jobs finished before the kill; they are too short for the drill"
    );
    d.kill().expect("kill -9 the daemon");
    d.wait().expect("reap");

    // The ack is durable: every submission survived the crash.
    assert_eq!(count_journal(&crash_dir, "submit"), seeds.len());

    // --- Restart: recovery is the startup path. ----------------------
    // SIGKILL left the old endpoint advertisement behind; drop it so
    // the poll below cannot race onto the dead daemon's port. (The
    // daemon also clears it on startup once it holds the lock.)
    let _ = std::fs::remove_file(crash_dir.join("alertd.endpoint"));
    let mut d = spawn_daemon(&daemon, &crash_dir, &["--jobs", "2"]);
    wait_for_endpoint(&crash_dir);
    // Idempotent resubmission while recovery re-runs: must not mint
    // duplicate work (exactly-once-effective by fingerprint).
    for seed in &seeds {
        let out = ctl(&ctl_bin, &crash_dir, &submit_args(seed));
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    drain(&ctl_bin, &crash_dir);
    assert!(d.wait().expect("wait").success());

    // Byte-identical results, exactly one done per job, no extra
    // versions minted by the re-run.
    let recovered = snapshot_results(&crash_dir);
    assert_eq!(
        reference.iter().map(|(p, _)| p).collect::<Vec<_>>(),
        recovered.iter().map(|(p, _)| p).collect::<Vec<_>>(),
        "same artifact tree shape"
    );
    for ((pa, ba), (pb, bb)) in reference.iter().zip(&recovered) {
        assert_eq!(pa, pb);
        assert_eq!(ba, bb, "artifact {pa} differs after crash recovery");
    }
    assert_eq!(count_journal(&crash_dir, "done"), seeds.len());
    let _ = std::fs::remove_dir_all(ref_dir);
    let _ = std::fs::remove_dir_all(crash_dir);
}

/// Admission control and single-ownership: a full queue refuses with
/// exit 2, a second daemon on a live directory refuses with exit 2 and
/// a pid diagnostic, and a drain exits 0 with every admitted job
/// settled.
///
/// The busy path is pinned with `--queue 0` (admission closed) rather
/// than by racing real jobs against it: in optimised builds even large
/// scenarios finish faster than a client process can spawn, so a
/// "fill the queue then submit" drill is timing-dependent by
/// construction. `--queue 0` exercises the identical rejection path
/// deterministically.
#[test]
fn busy_queue_and_second_daemon_both_exit_two() {
    let (daemon, ctl_bin) = (alertd_bin(), alertctl_bin());
    let dir = scratch_dir("busy");

    // --- Phase 1: admission closed — every submit is busy, exit 2. ---
    let mut d = spawn_daemon(&daemon, &dir, &["--jobs", "1", "--queue", "0"]);
    wait_for_endpoint(&dir);
    let out = ctl(
        &ctl_bin,
        &dir,
        &[
            "submit",
            "--nodes",
            "20",
            "--duration",
            "2",
            "--seed",
            "203",
        ],
    );
    assert_eq!(out.status.code(), Some(2), "busy must exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("busy"), "stderr names the rejection: {err}");

    // A second daemon on the same directory: exit 2, pid diagnostic.
    let second = Command::new(&daemon)
        .args(["serve", "--dir", dir.to_str().unwrap()])
        .output()
        .expect("spawn second daemon");
    assert_eq!(second.status.code(), Some(2), "second daemon must exit 2");
    let err = String::from_utf8_lossy(&second.stderr);
    assert!(
        err.contains(&format!("pid {}", d.id())),
        "diagnostic names the live owner: {err}"
    );

    // The refused submission journaled nothing — busy precedes the ack.
    assert_eq!(count_journal(&dir, "submit"), 0);

    // Draining the closed daemon exits 0 with nothing to settle.
    drain(&ctl_bin, &dir);
    assert!(d.wait().expect("wait").success(), "drained daemon exits 0");

    // --- Phase 2: normal queue — drain settles every admitted job. ---
    let mut d = spawn_daemon(&daemon, &dir, &["--jobs", "2"]);
    wait_for_endpoint(&dir);
    for seed in ["201", "202"] {
        let out = ctl(
            &ctl_bin,
            &dir,
            &[
                "submit",
                "--nodes",
                "40",
                "--pairs",
                "2",
                "--duration",
                "8",
                "--seed",
                seed,
            ],
        );
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    drain(&ctl_bin, &dir);
    assert!(d.wait().expect("wait").success(), "drained daemon exits 0");

    // No leases lost: everything admitted reached a terminal record.
    assert_eq!(count_journal(&dir, "done"), 2);
    let _ = std::fs::remove_dir_all(dir);
}
