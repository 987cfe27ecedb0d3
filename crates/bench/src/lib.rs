//! # alert-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! ALERT paper's evaluation (Section 5) plus the analytical figures of
//! Section 4. See DESIGN.md § 4 for the per-experiment index.
//!
//! Use the `repro` binary:
//!
//! ```text
//! cargo run -p alert-bench --release --bin repro -- all --runs 30
//! cargo run -p alert-bench --release --bin repro -- fig14a
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod orchestrate;
#[doc(hidden)]
pub mod planted;
pub mod runner;
pub mod table;

pub use orchestrate::{
    fingerprint, fingerprint_with, fsync_dir, write_atomic, AppendLog, DirLock, EntryStatus,
    FailureEntry, FailureSink, Journal, LeaseEntry, LockError, ManifestEntry, FAILURES_FILE,
    LOCK_FILE, MANIFEST_FILE,
};
pub use runner::{
    drain_failures, drain_failures_scoped, failure_scope, failures_total, guarded_run_once,
    mean_curve, panic_message, par_runs, progress_enabled, run_instrumented, run_ordered,
    set_failure_scope, set_progress, sweep_metrics, sweep_point, try_run_once, FailureRecord,
    Panic, PostmortemDump, ProtocolChoice, RunFailure, RunOptions, RunOutcome, RunOutput, Stat,
    POSTMORTEM_RING_CAPACITY,
};
pub use table::FigureTable;
