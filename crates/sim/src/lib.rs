//! # alert-sim
//!
//! A deterministic discrete-event MANET simulator — the substrate the
//! paper ran on NS-2.29 (Section 5.2), rebuilt from scratch in Rust (see
//! DESIGN.md § 1 for the substitution argument).
//!
//! Components:
//!
//! * [`EventQueue`] — the future event list (time-ordered, FIFO ties);
//! * [`ScenarioConfig`] — every evaluation knob in one struct, defaulting
//!   to the paper's setup;
//! * [`World`] — the runtime: mobility + spatial index + wireless channel
//!   (unit disk, stochastic 802.11-style MAC) + hello beacons and neighbor
//!   tables + pseudonym rotation + location service + CBR traffic;
//! * [`ProtocolNode`] / [`Api`] — the trait a routing protocol implements
//!   and the capability surface it sees (own position, neighbor table,
//!   location service, unicast/broadcast, timers, crypto cost charging);
//! * [`Metrics`] — ground-truth instrumentation for the paper's six
//!   metrics;
//! * [`Observer`] / [`TxEvent`] — the eavesdropper's view of the channel,
//!   consumed by the adversary analyzers.
//!
//! A run is a pure function of `(ScenarioConfig, seed)`: events tie-break
//! by schedule order and all randomness flows from one seeded generator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod api;
mod config;
mod engine;
mod fault;
mod guard;
mod ids;
mod location;
mod metrics;
mod runtime;

pub use api::{Api, DataRequest, Frame, FrameKind, NeighborEntry, ProtocolNode, TrafficClass};
pub use config::{
    EnergyConfig, InsiderConfig, InsiderMode, LocationPolicy, MacConfig, MobilityKind, Placement,
    ScenarioConfig, ScenarioError, TrafficConfig,
};
pub use engine::EventQueue;
pub use fault::{FaultPlan, LinkDegradation, NodeCrash, RegionOutage};
pub use guard::{RunAbort, RunBudget, WALL_CHECK_INTERVAL};
pub use ids::{NodeId, PacketId, SessionId, TimerToken};
pub use location::{LocationInfo, LocationService};
pub use metrics::{Metrics, NodeEnergyAccounting, PacketRecord};
pub use runtime::{FrameAudit, Observer, Session, TxEvent, World};

// Re-export the observability vocabulary so downstream crates (bench,
// examples, tests) can speak it without a separate alert-trace dependency.
pub use alert_trace::{
    filter_events, follow_packet, parse_trace, push_f64, render_events_csv, render_events_jsonl,
    render_windows_csv, render_windows_json, window_aggregates, DropReason, EventFilter, JsonlSink,
    MetricsTimeseries, NullSink, ParseError, RegistrySnapshot, RingBufferHandle, RingBufferSink,
    RunProfile, SharedBuf, TeeSink, TimeseriesSample, TraceEvent, TraceSink, WindowAggregate,
};
