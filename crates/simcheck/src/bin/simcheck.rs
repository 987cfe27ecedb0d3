//! `simcheck` — deterministic scenario fuzzing with invariant oracles
//! and failing-case shrinking for the whole simulator stack.
//!
//! ```text
//! simcheck --cases 200 --seed 0
//! simcheck --cases 2000 --seed 0 --jobs 4
//! simcheck --cases 200 --seed 0 --artifact-dir out/simcheck
//! simcheck --list-invariants
//! ```
//!
//! Enumerates `--cases` fuzzed `(protocol, scenario, seed)` cases from
//! `--seed`, runs each fully instrumented, and checks every invariant
//! oracle (see `--list-invariants`). A violated case is shrunk along its
//! config axes and reported with a one-line `simrun` replay command;
//! with `--artifact-dir` the exact scenario JSON and replay line are
//! also written as files (the CI artifact).
//!
//! The report on stdout is a pure function of
//! `(--cases, --seed, --plant)`: same flags, byte-identical bytes —
//! including under `--jobs N`, which runs cases on N worker threads
//! while a single committer assembles the report in case order.
//! `--max-wall-s` opts into a wall-clock budget for bounded CI slots
//! (an early stop is reported in the summary). The hidden
//! `--plant leak` interleaves a deliberately NodeId-leaking protocol
//! every fourth case to prove the harness end to end.
//!
//! `--bench-json PATH` appends one JSON line of throughput data
//! (cases, jobs, wall seconds, cases/sec) after the run — the scaling
//! datum CI and DESIGN.md cite.
//!
//! Exit codes: `0` all cases clean, `1` invariant violation (or harness
//! failure), `2` usage error (including a live lock on the artifact
//! directory).

use alert_bench::{DirLock, LockError};
use alert_simcheck::{Plant, SuiteOptions, INVARIANTS};
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = SuiteOptions::default();
    let mut bench_json: Option<std::path::PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--cases" => opts.cases = parse(it.next(), "--cases"),
            "--seed" => opts.seed = parse(it.next(), "--seed"),
            "--jobs" => opts.jobs = parse(it.next(), "--jobs"),
            "--shrink-runs" => opts.shrink_runs = parse(it.next(), "--shrink-runs"),
            "--max-wall-s" => {
                opts.max_wall = Some(Duration::from_secs_f64(parse(it.next(), "--max-wall-s")))
            }
            "--artifact-dir" => {
                opts.artifact_dir = Some(
                    it.next()
                        .unwrap_or_else(|| die("--artifact-dir needs a path"))
                        .into(),
                )
            }
            "--bench-json" => {
                bench_json = Some(
                    it.next()
                        .unwrap_or_else(|| die("--bench-json needs a path"))
                        .into(),
                )
            }
            // Hidden: planted-defect mode, used by the harness's own
            // self-test and docs/TESTING.md to demonstrate a catch.
            "--plant" => {
                opts.plant = match it.next().map(String::as_str) {
                    Some("leak") => Plant::Leak,
                    Some("insider") => Plant::Insider,
                    Some("none") => Plant::None,
                    _ => die("--plant needs one of: none, leak, insider"),
                }
            }
            "--list-invariants" => {
                for (name, what) in INVARIANTS {
                    println!("{name}: {what}");
                }
                return;
            }
            "--help" | "-h" => {
                usage();
                return;
            }
            other => die(&format!("unknown flag {other} (try --help)")),
        }
    }
    if opts.cases == 0 {
        die("--cases must be at least 1");
    }
    if opts.jobs == 0 {
        die("--jobs must be at least 1");
    }

    // Failure artifacts are written under --artifact-dir; assert
    // single-writer ownership so two concurrent simchecks can't
    // interleave case files. Read-only runs take no lock.
    let _lock = match &opts.artifact_dir {
        Some(dir) => {
            if let Err(e) = std::fs::create_dir_all(dir) {
                fail(&format!("cannot create {}: {e}", dir.display()));
            }
            match DirLock::acquire(dir) {
                Ok(lock) => Some(lock),
                Err(e @ LockError::Busy { .. }) => {
                    eprintln!(
                        "error: {e} ({}); wait for it to finish or remove the stale lock file",
                        dir.join(alert_bench::LOCK_FILE).display()
                    );
                    std::process::exit(2);
                }
                Err(e) => fail(&format!("cannot lock {}: {e}", dir.display())),
            }
        }
        None => None,
    };

    let start = std::time::Instant::now();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let summary = match alert_simcheck::run_suite(&opts, &mut out) {
        Err(e) => fail(&format!("report I/O failed: {e}")),
        Ok(summary) => summary,
    };
    drop(out);

    if let Some(path) = &bench_json {
        let wall = start.elapsed().as_secs_f64();
        let line = format!(
            "{{\"schema\":\"alert-simcheck-bench/1\",\"cases\":{},\"seed\":{},\"jobs\":{},\"cases_run\":{},\"violations\":{},\"wall_s\":{:?},\"cases_per_sec\":{:?}}}\n",
            opts.cases,
            opts.seed,
            opts.jobs,
            summary.cases_run,
            summary.violated,
            wall,
            if wall > 0.0 {
                summary.cases_run as f64 / wall
            } else {
                0.0
            },
        );
        if let Err(e) = append(path, &line) {
            fail(&format!(
                "cannot append bench datum to {}: {e}",
                path.display()
            ));
        }
    }

    if summary.violated > 0 || summary.harness_errors > 0 {
        std::process::exit(1);
    }
}

fn append(path: &std::path::Path, line: &str) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    f.write_all(line.as_bytes())
}

fn parse<T: std::str::FromStr>(v: Option<&String>, flag: &str) -> T {
    v.and_then(|s| s.parse().ok())
        .unwrap_or_else(|| die(&format!("{flag} needs a numeric value")))
}

fn usage() {
    eprintln!("usage: simcheck [--cases N] [--seed N] [--jobs N] [--shrink-runs N]");
    eprintln!("                [--max-wall-s SECS] [--artifact-dir DIR]");
    eprintln!("                [--bench-json PATH] [--list-invariants]");
    eprintln!();
    eprintln!("Fuzzes N deterministic scenarios across every protocol, checks");
    eprintln!("the invariant oracles, shrinks failures, and prints a simrun");
    eprintln!("replay command per finding. --jobs runs cases on N worker");
    eprintln!("threads; the report bytes are identical at any jobs count.");
    eprintln!("Exit 0 clean, 1 violation, 2 usage.");
}

/// Usage error: complain and exit 2.
fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Runtime failure (report I/O): complain and exit 1.
fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}
