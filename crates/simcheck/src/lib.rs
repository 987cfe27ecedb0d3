//! # alert-simcheck
//!
//! Deterministic scenario fuzzing, invariant oracles, and failing-case
//! shrinking for the whole simulator stack — the simulation-testing
//! harness that hunts for bugs `simrun`'s happy paths never exercise.
//!
//! The harness has four layers:
//!
//! * [`fuzz`] — a seeded scenario generator. Every case is a pure
//!   function of `(master seed, case index)`, sampling
//!   `protocol × ScenarioConfig × FaultPlan × mobility` with explicit
//!   bias toward degenerate corners (one-node worlds, zero traffic,
//!   near-blackout channels, partition-heavy fault plans,
//!   budget-truncated runs).
//! * [`driver`] — instrumented execution. One run is observed through
//!   four independent channels at once: the structured trace, the
//!   eavesdropper [`TxEvent`](alert_sim::TxEvent) stream, the typed
//!   frame-audit hook (via [`audit::WireAudit`]), and periodic
//!   ground-truth position samples.
//! * [`oracle`] — composable invariant checkers over a finished
//!   [`driver::CaseRun`]: simulator physics (receptions within radio
//!   range, monotone timestamps, no activity by crashed nodes),
//!   protocol contracts (pseudonyms never straddle rotation epochs, no
//!   real `NodeId` on the wire, bounded per-packet frame budgets, hop
//!   counts above the geometric floor), and accounting identities
//!   (registry == trace == metrics).
//! * [`shrink`](mod@shrink) — minimizes a failing case along its config axes while
//!   the same invariant keeps firing, aiming for a scenario that is
//!   fully expressible as `simrun` flags so the emitted one-line replay
//!   command is exact.
//!
//! [`report::run_suite`] ties the layers into the `simcheck` binary:
//! same `(cases, seed, plant)` renders a byte-identical report, exit
//! codes follow the `0 = clean / 1 = violation / 2 = usage` contract,
//! and `--plant leak` interleaves a deliberately broken protocol to
//! prove the oracles, shrinker, and replay plumbing end to end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod driver;
pub mod fuzz;
pub mod oracle;
pub mod report;
pub mod shrink;

pub use audit::WireAudit;
pub use driver::{run_case, CaseRun, FrameRecord, InsiderOutcome, PosSample};
pub use fuzz::{flag_encodable, gen_case, insider_drill_scenario, Case, Plant};
pub use oracle::{check_all, Violation, INVARIANTS};
pub use report::{coverage_lines, run_suite, SuiteOptions, SuiteSummary};
pub use shrink::{reproduces, shrink, Shrunk};
