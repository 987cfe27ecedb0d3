//! # alert-trace
//!
//! Deterministic observability for the ALERT simulator, in three pillars:
//!
//! * **Structured event tracing** — [`TraceEvent`] covers every observable
//!   step of a run (transmissions, receptions, drops with typed reasons,
//!   timer fires, location-service lookups, crypto charges, pseudonym
//!   rotations, and the ALERT-specific zone-partition / random-forwarder
//!   selection steps). Events flow through a [`TraceSink`]: [`NullSink`]
//!   discards them for free, [`JsonlSink`] streams one JSON object per
//!   line, and [`RingBufferSink`] keeps the last *N* events for post-mortem
//!   dumps. Every event is keyed by simulated time, so two runs with the
//!   same `(scenario, seed)` produce **byte-identical** JSONL traces.
//! * **A counter/histogram registry** — [`Registry`] holds monotonic `u64`
//!   counters and log-bucketed [`LogHistogram`]s behind `Copy` handles
//!   (O(1) array updates on the hot path), snapshotted to the
//!   [`RegistrySnapshot`].
//! * **Run profiling** — [`RunProfile`] captures wall-clock events/sec,
//!   total events dispatched, the future-event-list high-water mark, and
//!   per-callback CPU time (with per-protocol-callback span attribution),
//!   establishing the performance trajectory for optimisation work.
//! * **Metrics timeseries** — [`MetricsTimeseries`] samples the registry
//!   every *k* simulated seconds into the append-only, byte-deterministic
//!   `alert-timeseries/1` JSONL format (cumulative counters plus
//!   per-window deltas; rates are derived, not stored).
//! * **Trace queries** — [`EventFilter`], [`follow_packet`], and
//!   [`window_aggregates`] interrogate a stored trace (by node, time
//!   window, event kind, drop reason, packet id) with deterministic
//!   CSV/JSON renderers — the engine behind the `tracequery` CLI and a
//!   future `alertd` query endpoint.
//!
//! The [`replay`](crate::reconstruct_packets) API folds a trace back into
//! per-packet hop paths, which the simulator's tests compare against the
//! ground-truth `Metrics` — the trace layer doubles as a correctness
//! oracle.
//!
//! The crate is dependency-free. Its [`json`] module is the workspace's
//! one JSON codec: the JSONL trace, scenario and fault-plan files, run
//! profiles, the repro manifest and the `alertd` wire protocol all read
//! and write through it, so the byte-identical guarantee does not hinge
//! on an external serializer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod json;
mod jsonl;
mod profile;
mod query;
mod registry;
mod replay;
mod sink;
mod timeseries;

pub use event::{CryptoOp, DropReason, TickKind, TraceEvent, TrafficKind, TxKind};
pub use json::{parse_object, push_str_escaped, Val};
pub use jsonl::{parse_trace, push_f64, JsonlEncoder, ParseError};
pub use profile::{CallbackProfile, RunProfile};
pub use query::{
    filter_events, follow_packet, render_events_csv, render_events_jsonl, render_windows_csv,
    render_windows_json, window_aggregates, EventFilter, WindowAggregate,
};
pub use registry::{
    CounterHandle, HistogramBucket, HistogramHandle, HistogramSnapshot, LogHistogram, Registry,
    RegistrySnapshot,
};
pub use replay::{
    down_intervals, down_node_activity, reconstruct_packets, trace_stats, DownNodeAudit,
    PacketTrace, TraceStats,
};
pub use sink::{
    JsonlSink, NullSink, RingBufferHandle, RingBufferSink, SharedBuf, TeeSink, TraceSink, Tracer,
};
pub use timeseries::{MetricsTimeseries, TimeseriesSample, TIMESERIES_SCHEMA};
