//! `repro` — regenerates the ALERT paper's tables and figures.
//!
//! ```text
//! repro <experiment...|all> [--runs N] [--jobs N] [--csv DIR] [--resume] [--progress]
//!
//! experiments:
//!   table1  fig5c  anonymity-vs-time  fig7a  fig7b  fig9a  fig9b
//!   fig10a  fig10b fig11  fig12  fig13a fig13b
//!   fig14a  fig14b fig15a fig15b fig16a fig16b fig17
//!   claim-dos claim-interception claim-defense-cost claim-energy
//!   panorama churn
//! ```
//!
//! `--runs` controls the Monte-Carlo repetitions per data point (the
//! paper averages 30 runs; the default here is 10 to keep a full `all`
//! pass in minutes — pass `--runs 30` for the paper's setting).
//! `--progress` prints one `[progress]` line per data point on stderr
//! (protocol, run count, wall-clock seconds) so long sweeps are
//! watchable.
//!
//! `--jobs N` runs up to N experiments at once on the in-order executor
//! ([`alert_bench::run_ordered`]); the calling thread commits each
//! result in campaign order, so stdout, CSVs, the journal and the
//! failure report are byte-identical to `--jobs 1` regardless of
//! scheduling (see DESIGN.md § 12).
//!
//! With `--csv DIR` the committer also writes every table to
//! `DIR/<experiment>.csv` atomically (temp file, rename, directory
//! fsync), so a killed campaign never leaves a truncated CSV, and then
//! appends the experiment's `done`/`failed` line to the manifest
//! journal (`manifest.jsonl`, schema `alert-repro-manifest/2`).
//! `--resume` (requires `--csv`) skips experiments the journal shows as
//! done with a matching config fingerprint, so an interrupted campaign
//! picks up where it died; it also reports the orphaned lease lines an
//! older build's journal may hold, and re-runs those experiments. An
//! advisory `.orchestrator.lock` asserts single-orchestrator ownership
//! of the directory; a second orchestrator exits 2 with a diagnostic
//! instead of corrupting the journal. The committed and failed counts
//! (`pool.committed`, `pool.failed`) are sampled into
//! `DIR/pool-timeseries.jsonl` (`alert-timeseries/1`, readable by
//! `tracequery rates`).
//!
//! Failures don't sink the campaign: a panicking or aborted run is
//! quarantined into `DIR/failures.jsonl` (with a one-line `simrun`
//! replay command) and its experiment is journaled as `failed` so a
//! later `--resume` re-runs it, while the remaining experiments run to
//! completion. An experiment that panics outright runs once and is
//! journaled as failed; it is not retried, since it would fail the same
//! way again.
//!
//! Exit codes: `0` clean, `1` runtime failure (I/O error, or any
//! quarantined run), `2` usage error.

use alert_bench::figures::{
    analytic, anonymity, attacks, claims, faults, participants, performance, zone,
};
use alert_bench::{
    drain_failures, fingerprint, panic_message, run_ordered, set_failure_scope, sweep_point,
    write_atomic, DirLock, EntryStatus, FailureEntry, FailureSink, FigureTable, Journal, LockError,
    ManifestEntry, ProtocolChoice,
};
use alert_sim::{MetricsTimeseries, RegistrySnapshot};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

fn main() {
    std::process::exit(real_main());
}

fn real_main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut runs = 10usize;
    let mut jobs = 1usize;
    let mut csv_dir: Option<PathBuf> = None;
    let mut resume = false;
    let mut targets: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--runs" => {
                runs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die_usage("--runs needs a positive integer"));
            }
            "--jobs" => {
                jobs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| die_usage("--jobs needs a positive integer"));
            }
            "--csv" => {
                csv_dir = Some(PathBuf::from(
                    it.next()
                        .unwrap_or_else(|| die_usage("--csv needs a directory")),
                ));
            }
            "--resume" => resume = true,
            "--progress" => alert_bench::set_progress(true),
            "--help" | "-h" => {
                print_usage();
                return 0;
            }
            other if other.starts_with('-') => {
                die_usage(&format!("unknown flag '{other}'"));
            }
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() {
        print_usage();
        return 2;
    }
    if resume && csv_dir.is_none() {
        die_usage("--resume requires --csv (the journal lives in the CSV directory)");
    }
    if targets.iter().any(|t| t == "all") {
        targets = ALL.iter().map(|s| s.to_string()).collect();
    }
    // Validate the whole campaign up front: an unknown experiment is a
    // usage error and must fail before any work (or journal writes).
    for t in &targets {
        if !is_known(t) {
            die_usage(&format!("unknown experiment '{t}'"));
        }
    }

    // Single-orchestrator ownership of the output directory: the
    // journal's torn-tail healing and the in-order commit both assume
    // one committer, so a concurrent orchestrator is a usage error.
    let mut _lock: Option<DirLock> = None;
    if let Some(dir) = &csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            return fail(&format!("cannot create {}: {e}", dir.display()));
        }
        match DirLock::acquire(dir) {
            Ok(l) => _lock = Some(l),
            Err(e @ LockError::Busy { .. }) => {
                eprintln!(
                    "error: {e} ({}); wait for it to finish or remove the stale lock file",
                    dir.join(alert_bench::LOCK_FILE).display()
                );
                return 2;
            }
            Err(LockError::Io(e)) => return fail(&format!("cannot lock output directory: {e}")),
        }
    }

    let mut journal = match &csv_dir {
        Some(dir) => match Journal::open(dir) {
            Ok(j) => Some(j),
            Err(e) => return fail(&format!("cannot open manifest journal: {e}")),
        },
        None => None,
    };
    if resume {
        if let Some(j) = &journal {
            let orphans = j.orphaned_leases().len();
            if orphans > 0 {
                eprintln!("[resume] reclaiming {orphans} orphaned lease(s) from a previous run");
            }
        }
    }
    let mut failure_sink = csv_dir.as_deref().map(FailureSink::new);

    // The campaign as executor units, in canonical (command-line)
    // order; resume skips are decided up front so the `[resume]` lines
    // keep their serial order.
    let mut units: Vec<(&str, u64)> = Vec::new();
    for t in &targets {
        let fp = fingerprint(t, runs);
        if resume && journal.as_ref().is_some_and(|j| j.completed(t, fp)) {
            eprintln!("[resume] {t}: already journaled as done, skipping");
            continue;
        }
        units.push((t, fp));
    }

    println!("# ALERT reproduction — {runs} runs per data point\n");
    drain_failures(); // start the campaign with a clean ledger partition

    let started = Instant::now();
    let mut series = csv_dir
        .as_ref()
        .map(|_| MetricsTimeseries::new(POOL_SAMPLE_S));
    let mut next_sample = POOL_SAMPLE_S;
    let (mut completed, mut failed) = (0u64, 0u64);
    let mut quarantined = 0usize;
    let mut fatal: Option<String> = None;

    let exec = |w: usize, i: usize| -> ExpOutput {
        let target = units[i].0;
        // Sweep lanes inherit the worker's failure scope, so concurrent
        // sweeps quarantine into separate ledger partitions.
        set_failure_scope(w + 1);
        drop(drain_failures()); // leftovers of a unit that panicked here
        let start = Instant::now();
        // A panic in any sweep lane propagates out of `render` and is
        // committed as this experiment's failure.
        let rendered = render(target, runs);
        let mut failures: Vec<FailureEntry> = drain_failures()
            .into_iter()
            .map(|r| FailureEntry::from_record(target, r))
            .collect();
        // Sweep lanes quarantine in scheduling order even at --jobs 1;
        // canonicalize so the failure report is deterministic.
        failures.sort_by(|a, b| {
            (&a.protocol, a.nodes, a.seed, &a.error).cmp(&(&b.protocol, b.nodes, b.seed, &b.error))
        });
        let (text, csv) = match rendered {
            Rendered::Text(text) => (text, None),
            Rendered::Table(table) => (table.render(), csv_dir.as_ref().map(|_| table.to_csv())),
        };
        ExpOutput {
            text,
            csv,
            failures,
            wall_s: start.elapsed().as_secs_f64(),
        }
    };

    let commit = |i: usize, outcome: Result<ExpOutput, alert_bench::Panic>| {
        if fatal.is_some() {
            return; // first fatal error wins; drop the rest quietly
        }
        let (t, fp) = units[i];
        let (status, wall_s, failures) = match outcome {
            Ok(out) => {
                print!("{}", out.text);
                if let (Some(dir), Some(csv)) = (&csv_dir, &out.csv) {
                    let path = dir.join(format!("{t}.csv"));
                    if let Err(e) = write_atomic(&path, csv) {
                        fatal = Some(format!("cannot write {}: {e}", path.display()));
                        return;
                    }
                }
                eprintln!("[{t}] done in {:.1}s", out.wall_s);
                let status = if out.failures.is_empty() {
                    EntryStatus::Done
                } else {
                    EntryStatus::Failed
                };
                completed += 1;
                (status, out.wall_s, out.failures)
            }
            Err(payload) => {
                // The experiment itself died (not just one run of a
                // sweep). Quarantine it and keep going.
                let error = format!("panicked: {}", panic_message(payload));
                eprintln!("[{t}] FAILED: {error}");
                let failure = FailureEntry {
                    target: t.to_owned(),
                    protocol: "-".to_owned(),
                    nodes: 0,
                    seed: 0,
                    error,
                    replay: format!("repro {t} --runs {runs}"),
                };
                failed += 1;
                (EntryStatus::Failed, 0.0, vec![failure])
            }
        };
        quarantined += failures.len();
        if let Some(sink) = &mut failure_sink {
            for f in &failures {
                if let Err(e) = sink.append(f) {
                    fatal = Some(format!("cannot write failure report: {e}"));
                    return;
                }
            }
        }
        if let Some(j) = &mut journal {
            let entry = ManifestEntry {
                target: t.to_owned(),
                fingerprint: fp,
                runs,
                status,
                wall_s,
            };
            if let Err(e) = j.record(entry) {
                fatal = Some(format!("cannot append to manifest journal: {e}"));
            }
        }
        if let Some(series) = &mut series {
            let now = started.elapsed().as_secs_f64();
            if now >= next_sample {
                series.record(now, &pool_snapshot(completed, failed));
                next_sample = now + POOL_SAMPLE_S;
            }
        }
    };

    run_ordered(units.len(), jobs, None, exec, commit);

    if let (Some(dir), Some(series)) = (&csv_dir, &mut series) {
        // Always end with a final sample so even sub-cadence runs leave
        // a usable (header + at least one sample) series behind.
        let now = started.elapsed().as_secs_f64();
        let now = match series.samples.last() {
            Some(last) if now <= last.t => last.t + 1e-3,
            _ => now,
        };
        series.record(now, &pool_snapshot(completed, failed));
        let path = dir.join(POOL_TIMESERIES_FILE);
        if let Err(e) = write_atomic(&path, &series.to_jsonl()) {
            return fail(&format!("cannot write {}: {e}", path.display()));
        }
    }
    eprintln!("[pool] jobs={jobs} committed={completed} failed={failed}");

    if let Some(msg) = fatal {
        return fail(&msg);
    }
    if quarantined > 0 {
        eprintln!(
            "error: {quarantined} failure(s) quarantined{}",
            match &csv_dir {
                Some(dir) => format!(" — see {}", dir.join(alert_bench::FAILURES_FILE).display()),
                None => String::new(),
            }
        );
        return 1;
    }
    0
}

/// File name of the commit-count timeseries inside the `--csv` dir.
const POOL_TIMESERIES_FILE: &str = "pool-timeseries.jsonl";

/// Wall-clock cadence of the commit-count timeseries, in seconds.
const POOL_SAMPLE_S: f64 = 5.0;

/// The committer's counts as a registry snapshot, so the timeseries
/// and `tracequery rates` tooling apply as-is.
fn pool_snapshot(completed: u64, failed: u64) -> RegistrySnapshot {
    let counters = BTreeMap::from([
        ("pool.committed".to_owned(), completed),
        ("pool.failed".to_owned(), failed),
    ]);
    RegistrySnapshot {
        counters,
        histograms: BTreeMap::new(),
    }
}

/// What one executed experiment hands the committer: the stdout block,
/// the CSV text (with `--csv`, for tables), the quarantined failures of
/// its sweeps, and its wall time.
struct ExpOutput {
    text: String,
    csv: Option<String>,
    failures: Vec<FailureEntry>,
    wall_s: f64,
}

/// A rendered experiment: a pre-formatted text block (Table 1) or a
/// structured table (everything else, CSV-exportable).
enum Rendered {
    Text(String),
    Table(FigureTable),
}

const ALL: [&str; 26] = [
    "table1",
    "fig5c",
    "anonymity-vs-time",
    "fig7a",
    "fig7b",
    "fig9a",
    "fig9b",
    "fig10a",
    "fig10b",
    "fig11",
    "fig12",
    "fig13a",
    "fig13b",
    "fig14a",
    "fig14b",
    "fig15a",
    "fig15b",
    "fig16a",
    "fig16b",
    "fig17",
    "claim-dos",
    "claim-interception",
    "claim-defense-cost",
    "claim-energy",
    "panorama",
    "churn",
];

/// Hidden fault-drill targets (not in `ALL`, so never part of a normal
/// campaign): deterministic planted failures that the resilience tests
/// and the CI resume-smoke/pool-smoke jobs use to prove quarantine and
/// crash recovery work end to end.
const DRILLS: [&str; 2] = ["__panic-point", "__panic-experiment"];

fn is_known(target: &str) -> bool {
    ALL.contains(&target) || DRILLS.contains(&target)
}

fn render(target: &str, runs: usize) -> Rendered {
    match target {
        "table1" => Rendered::Text(attacks::table1()),
        "fig5c" => Rendered::Table(attacks::fig5c(runs)),
        "anonymity-vs-time" => Rendered::Table(anonymity::anonymity_vs_time(runs)),
        "fig7a" => Rendered::Table(analytic::fig7a()),
        "fig7b" => Rendered::Table(analytic::fig7b()),
        "fig9a" => Rendered::Table(analytic::fig9a()),
        "fig9b" => Rendered::Table(analytic::fig9b()),
        "fig10a" => Rendered::Table(participants::fig10a(runs)),
        "fig10b" => Rendered::Table(participants::fig10b(runs)),
        "fig11" => Rendered::Table(participants::fig11(runs)),
        "fig12" => Rendered::Table(zone::fig12(runs)),
        "fig13a" => Rendered::Table(zone::fig13a(runs)),
        "fig13b" => Rendered::Table(zone::fig13b(runs)),
        "fig14a" => Rendered::Table(performance::fig14a(runs)),
        "fig14b" => Rendered::Table(performance::fig14b(runs)),
        "fig15a" => Rendered::Table(performance::fig15a(runs)),
        "fig15b" => Rendered::Table(performance::fig15b(runs)),
        "fig16a" => Rendered::Table(performance::fig16a(runs)),
        "fig16b" => Rendered::Table(performance::fig16b(runs)),
        "fig17" => Rendered::Table(performance::fig17(runs)),
        "claim-dos" => Rendered::Table(claims::claim_dos(runs)),
        "claim-interception" => Rendered::Table(claims::claim_interception(runs)),
        "claim-defense-cost" => Rendered::Table(claims::claim_defense_cost(runs)),
        "claim-energy" => Rendered::Table(claims::claim_energy(runs)),
        "panorama" => Rendered::Table(claims::panorama(runs)),
        "churn" => Rendered::Table(faults::churn_sweep(runs)),
        "__panic-point" => Rendered::Table(panic_point_drill(runs)),
        "__panic-experiment" => panic!("planted panic: __panic-experiment"),
        other => unreachable!("target '{other}' passed is_known but has no renderer"),
    }
}

/// The `__panic-point` drill: a real (tiny) sweep whose metric
/// extractor panics on every run, so each point is quarantined through
/// the production isolation path and the table renders with zero
/// surviving samples.
fn panic_point_drill(runs: usize) -> FigureTable {
    let mut cfg = alert_sim::ScenarioConfig::default()
        .with_nodes(30)
        .with_duration(5.0);
    cfg.traffic.pairs = 2;
    let stat = sweep_point(ProtocolChoice::Gpsr, &cfg, runs.min(2), |_| {
        panic!("planted panic: __panic-point")
    });
    let mut t = FigureTable::new(
        "__panic-point — planted per-run failure drill (not a paper figure)",
        "point",
        vec!["delivery".into()],
    );
    t.row("0".to_owned(), vec![format!("{stat:.3}")]);
    t
}

fn print_usage() {
    eprintln!(
        "usage: repro <experiment...|all> [--runs N] [--jobs N] [--csv DIR] [--resume] [--progress]"
    );
    eprintln!("experiments: {}", ALL.join(" "));
    eprintln!("exit codes: 0 ok, 1 runtime failure (see failures.jsonl), 2 usage");
}

/// Usage error: complain and exit 2 before any campaign work.
fn die_usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Runtime failure (I/O, quarantined runs): complain and return exit
/// code 1 so the caller's `real_main` result reaches `process::exit`.
fn fail(msg: &str) -> i32 {
    eprintln!("error: {msg}");
    1
}
