//! # alertd
//!
//! The sim-as-a-service control plane: a long-lived, **crash-only**
//! daemon that accepts simulation jobs over a newline-delimited JSON
//! protocol (TCP or Unix socket), runs them on a fixed set of worker
//! threads, and publishes result artifacts by atomic rename into a
//! versioned `results/` directory.
//!
//! Crash-only means the recovery path *is* the startup path (see
//! DESIGN.md § 14 and `docs/OPERATIONS.md`):
//!
//! * every submission is appended to a durable fsync'd job journal
//!   **before** it is acknowledged ([`journal`]);
//! * artifacts are staged per fingerprint and promoted by `rename`, so
//!   readers never observe a half-written result ([`store`]);
//! * a `kill -9` at any instant loses at most in-flight leases — on
//!   restart the daemon replays the journal, sweeps orphaned staging
//!   entries, adopts results that were promoted but not yet journaled,
//!   and re-runs the rest (exactly-once-*effective* by fingerprint
//!   dedupe);
//! * admission control bounds the queue with typed `busy` / `shutdown`
//!   rejections instead of unbounded memory growth ([`server`]);
//! * a job's panic fails that job; a panic anywhere else in a worker is
//!   a daemon bug and aborts the process, which then recovers like any
//!   other crash.
//!
//! The wire protocol ([`protocol`]) and the job journal use the trace
//! crate's flat-object JSONL codec, so the daemon adds no JSON library
//! dependency and every message is diffable by eye. The journal is an
//! [`alert_bench::AppendLog`], the same durable log as the repro
//! manifest.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod journal;
pub mod protocol;
pub mod server;
pub mod spec;
pub mod store;

pub use journal::{JobJournal, JobRecord, JobState, ReplayedJob};
pub use protocol::{ErrorKind, QueryRequest, Request, Response};
pub use server::{serve, BindAddr, ServeError, ServerConfig, ServerStats, MAX_LINE_BYTES};
pub use spec::{parse_fp_hex, run_job, Artifacts, JobSpec};
pub use store::ResultStore;
