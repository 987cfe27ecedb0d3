//! The structured trace vocabulary: one enum variant per observable step
//! of a simulation run, plus the shared typed drop-reason taxonomy.

use std::borrow::Cow;
use std::fmt;

/// Which periodic engine tick fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickKind {
    /// Mobility integration step.
    Mobility,
    /// Hello-beacon round (neighbor tables + pseudonym rotation).
    Hello,
    /// Location-service position refresh.
    Location,
}

impl TickKind {
    /// Canonical wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            TickKind::Mobility => "mobility",
            TickKind::Hello => "hello",
            TickKind::Location => "location",
        }
    }

    /// Parses a canonical wire name.
    pub fn from_str_opt(s: &str) -> Option<Self> {
        Some(match s {
            "mobility" => TickKind::Mobility,
            "hello" => TickKind::Hello,
            "location" => TickKind::Location,
            _ => return None,
        })
    }
}

/// Link-layer addressing of a transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxKind {
    /// Unicast to one pseudonym.
    Unicast,
    /// One-hop broadcast.
    Broadcast,
}

impl TxKind {
    /// Canonical wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            TxKind::Unicast => "unicast",
            TxKind::Broadcast => "broadcast",
        }
    }

    /// Parses a canonical wire name.
    pub fn from_str_opt(s: &str) -> Option<Self> {
        Some(match s {
            "unicast" => TxKind::Unicast,
            "broadcast" => TxKind::Broadcast,
            _ => return None,
        })
    }
}

/// Traffic class of a transmission (mirrors the simulator's accounting
/// classes without depending on the simulator crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficKind {
    /// Application data.
    Data,
    /// Control traffic.
    Control,
    /// Control traffic counted as routing hops.
    ControlHop,
    /// Cover traffic.
    Cover,
}

impl TrafficKind {
    /// Canonical wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            TrafficKind::Data => "data",
            TrafficKind::Control => "control",
            TrafficKind::ControlHop => "control_hop",
            TrafficKind::Cover => "cover",
        }
    }

    /// Parses a canonical wire name.
    pub fn from_str_opt(s: &str) -> Option<Self> {
        Some(match s {
            "data" => TrafficKind::Data,
            "control" => TrafficKind::Control,
            "control_hop" => TrafficKind::ControlHop,
            "cover" => TrafficKind::Cover,
            _ => return None,
        })
    }
}

/// Which cryptographic operation class was charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CryptoOp {
    /// Symmetric encryption/decryption.
    Symmetric,
    /// Public-key encryption.
    PkEncrypt,
    /// Public-key decryption / signing.
    PkDecrypt,
    /// Signature verification.
    PkVerify,
    /// Hash evaluation.
    Hash,
}

impl CryptoOp {
    /// Canonical wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            CryptoOp::Symmetric => "symmetric",
            CryptoOp::PkEncrypt => "pk_encrypt",
            CryptoOp::PkDecrypt => "pk_decrypt",
            CryptoOp::PkVerify => "pk_verify",
            CryptoOp::Hash => "hash",
        }
    }

    /// Parses a canonical wire name.
    pub fn from_str_opt(s: &str) -> Option<Self> {
        Some(match s {
            "symmetric" => CryptoOp::Symmetric,
            "pk_encrypt" => CryptoOp::PkEncrypt,
            "pk_decrypt" => CryptoOp::PkDecrypt,
            "pk_verify" => CryptoOp::PkVerify,
            "hash" => CryptoOp::Hash,
            _ => return None,
        })
    }
}

/// Why a frame or packet was dropped — the shared typed taxonomy behind
/// the previously stringly-typed `record_drop` calls.
///
/// The channel-model reasons are first-class variants; protocol-specific
/// diagnostics travel as [`DropReason::Protocol`]. `From<&'static str>`
/// canonicalises known strings back to their variant, so legacy call
/// sites (`api.mark_drop("leg_ttl_exhausted")`) keep producing the same
/// typed reason and the same metrics keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// Unicast target had moved out of radio range.
    UnicastOutOfRange,
    /// Frame lost to the stochastic channel.
    UnicastChannelLoss,
    /// Unicast addressed to a pseudonym nobody currently holds.
    UnicastUnknownPseudonym,
    /// The location service had no record of the destination.
    LocationLookupFailed,
    /// A greedy leg exhausted its per-leg TTL.
    LegTtlExhausted,
    /// The packet exhausted its total TTL.
    PacketTtlExhausted,
    /// The link-layer ARQ gave up after the configured retry budget.
    RetryLimitExceeded,
    /// The resolved unicast receiver was crashed (fault plan).
    ReceiverNodeDown,
    /// The application source was crashed when the packet was generated.
    SourceNodeDown,
    /// Protocol-specific diagnostic (e.g. `"zap_greedy_stuck"`).
    Protocol(&'static str),
}

impl DropReason {
    /// Canonical string, identical to the legacy metrics map keys.
    pub fn as_str(self) -> &'static str {
        match self {
            DropReason::UnicastOutOfRange => "unicast_out_of_range",
            DropReason::UnicastChannelLoss => "unicast_channel_loss",
            DropReason::UnicastUnknownPseudonym => "unicast_unknown_pseudonym",
            DropReason::LocationLookupFailed => "location_lookup_failed",
            DropReason::LegTtlExhausted => "leg_ttl_exhausted",
            DropReason::PacketTtlExhausted => "packet_ttl_exhausted",
            DropReason::RetryLimitExceeded => "retry_limit_exceeded",
            DropReason::ReceiverNodeDown => "receiver_node_down",
            DropReason::SourceNodeDown => "source_node_down",
            DropReason::Protocol(s) => s,
        }
    }
}

impl From<&'static str> for DropReason {
    /// Canonicalises known reason strings to their typed variant; anything
    /// else becomes [`DropReason::Protocol`].
    fn from(s: &'static str) -> Self {
        match s {
            "unicast_out_of_range" => DropReason::UnicastOutOfRange,
            "unicast_channel_loss" => DropReason::UnicastChannelLoss,
            "unicast_unknown_pseudonym" => DropReason::UnicastUnknownPseudonym,
            "location_lookup_failed" => DropReason::LocationLookupFailed,
            "leg_ttl_exhausted" => DropReason::LegTtlExhausted,
            "packet_ttl_exhausted" => DropReason::PacketTtlExhausted,
            "retry_limit_exceeded" => DropReason::RetryLimitExceeded,
            "receiver_node_down" => DropReason::ReceiverNodeDown,
            "source_node_down" => DropReason::SourceNodeDown,
            other => DropReason::Protocol(other),
        }
    }
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One observable step of a simulation run.
///
/// All identifiers are plain integers (ground-truth node index, packet
/// index, session index) so the trace crate sits below the simulator in
/// the dependency graph. Times are simulated seconds; the [`TraceEvent::Rx`]
/// variant carries both the send time (`time`, when the event is emitted)
/// and the resolved delivery time (`at`).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A periodic engine tick was dispatched.
    Tick {
        /// Simulated time.
        time: f64,
        /// Which tick.
        kind: TickKind,
    },
    /// The traffic generator handed a packet to its source.
    AppSend {
        /// Simulated time.
        time: f64,
        /// Application packet id.
        packet: u64,
        /// S–D pair index.
        session: u64,
        /// Sequence number within the session.
        seq: u64,
        /// True source node.
        src: u64,
        /// True destination node.
        dst: u64,
    },
    /// One wireless transmission (any traffic class).
    Tx {
        /// Simulated send time.
        time: f64,
        /// Transmitting node.
        node: u64,
        /// Unicast or broadcast.
        kind: TxKind,
        /// Traffic class.
        class: TrafficKind,
        /// Frame size in bytes.
        bytes: u64,
        /// Application packet id, when data-plane.
        packet: Option<u64>,
    },
    /// A frame reception was resolved (scheduled for delivery).
    Rx {
        /// Simulated send time (emission order matches [`TraceEvent::Tx`]).
        time: f64,
        /// Receiving node.
        node: u64,
        /// Unicast or broadcast.
        kind: TxKind,
        /// Frame size in bytes.
        bytes: u64,
        /// Simulated delivery time.
        at: f64,
    },
    /// A frame or packet was dropped.
    Drop {
        /// Simulated time.
        time: f64,
        /// Node where the drop occurred (sender for channel drops).
        node: u64,
        /// Canonical reason string (see [`DropReason`]): borrowed from
        /// [`DropReason::as_str`] when the simulator emits the event, so
        /// building one allocates nothing; owned only when parsed back
        /// from a trace.
        reason: Cow<'static, str>,
        /// Application packet id, when known.
        packet: Option<u64>,
    },
    /// A protocol timer fired.
    TimerFire {
        /// Simulated time.
        time: f64,
        /// Owning node.
        node: u64,
        /// Protocol-defined token.
        token: u64,
    },
    /// A location-service lookup.
    LocationLookup {
        /// Simulated time.
        time: f64,
        /// Querying node.
        node: u64,
        /// Queried node.
        target: u64,
        /// Whether the service had a record.
        found: bool,
    },
    /// Cryptographic operations were charged.
    CryptoCharge {
        /// Simulated time.
        time: f64,
        /// Charged node.
        node: u64,
        /// Operation class.
        op: CryptoOp,
        /// Number of operations.
        n: u64,
    },
    /// A node rotated its pseudonym.
    PseudonymRotation {
        /// Simulated time.
        time: f64,
        /// Rotating node.
        node: u64,
    },
    /// ALERT hierarchical zone partition: a data holder separated itself
    /// from the destination zone and drew a temporary destination.
    ZonePartition {
        /// Simulated time.
        time: f64,
        /// Partitioning node (source or random forwarder).
        node: u64,
        /// Application packet id.
        packet: u64,
        /// Number of splits this partition round performed.
        splits: u64,
        /// Temporary-destination x coordinate.
        td_x: f64,
        /// Temporary-destination y coordinate.
        td_y: f64,
    },
    /// Greedy forwarder selection on a relay leg. `progress == false`
    /// means no neighbor was closer to the target — by ALERT's definition
    /// this node becomes the next random forwarder.
    ForwarderSelect {
        /// Simulated time.
        time: f64,
        /// Selecting node.
        node: u64,
        /// Application packet id, when known.
        packet: Option<u64>,
        /// Leg target (temporary destination) x coordinate.
        target_x: f64,
        /// Leg target (temporary destination) y coordinate.
        target_y: f64,
        /// Whether a closer neighbor existed.
        progress: bool,
    },
    /// Instrumented data-plane hop (mirror of `Metrics::record_hop`).
    Hop {
        /// Simulated time.
        time: f64,
        /// Transmitting node.
        node: u64,
        /// Application packet id.
        packet: u64,
    },
    /// A node served as a random forwarder (mirror of
    /// `Metrics::record_random_forwarder`).
    RandomForwarder {
        /// Simulated time.
        time: f64,
        /// The random forwarder.
        node: u64,
        /// Application packet id.
        packet: u64,
    },
    /// First delivery of a packet to its true destination.
    Delivered {
        /// Simulated delivery time (includes pending crypto delay).
        time: f64,
        /// Destination node.
        node: u64,
        /// Application packet id.
        packet: u64,
        /// End-to-end latency in seconds.
        latency: f64,
    },
    /// A node crashed (fault plan): it stops transmitting, receiving, and
    /// beaconing until the matching [`TraceEvent::NodeUp`].
    NodeDown {
        /// Simulated time.
        time: f64,
        /// Crashed node.
        node: u64,
    },
    /// A crashed node recovered: state wiped, protocol restarted.
    NodeUp {
        /// Simulated time.
        time: f64,
        /// Recovered node.
        node: u64,
    },
    /// The link-layer ARQ rescheduled a failed unicast frame.
    LinkRetry {
        /// Simulated time.
        time: f64,
        /// Retrying (transmitting) node.
        node: u64,
        /// Application packet id, when data-plane.
        packet: Option<u64>,
        /// Retry attempt number (1 = first retransmission).
        attempt: u64,
    },
    /// The run was aborted by a guardrail (event/sim-time/wall-clock
    /// budget or the livelock watchdog) — always the final event of an
    /// aborted run's trace, so truncated campaigns are distinguishable
    /// from completed ones.
    RunAborted {
        /// Simulated time at the abort.
        time: f64,
        /// Machine-readable abort class (`event_budget`,
        /// `sim_time_budget`, `wall_clock`, `livelock`).
        reason: String,
        /// Events dispatched before the abort.
        events: u64,
    },
}

impl TraceEvent {
    /// Simulated time the event is keyed by.
    pub fn time(&self) -> f64 {
        match self {
            TraceEvent::Tick { time, .. }
            | TraceEvent::AppSend { time, .. }
            | TraceEvent::Tx { time, .. }
            | TraceEvent::Rx { time, .. }
            | TraceEvent::Drop { time, .. }
            | TraceEvent::TimerFire { time, .. }
            | TraceEvent::LocationLookup { time, .. }
            | TraceEvent::CryptoCharge { time, .. }
            | TraceEvent::PseudonymRotation { time, .. }
            | TraceEvent::ZonePartition { time, .. }
            | TraceEvent::ForwarderSelect { time, .. }
            | TraceEvent::Hop { time, .. }
            | TraceEvent::RandomForwarder { time, .. }
            | TraceEvent::Delivered { time, .. }
            | TraceEvent::NodeDown { time, .. }
            | TraceEvent::NodeUp { time, .. }
            | TraceEvent::LinkRetry { time, .. }
            | TraceEvent::RunAborted { time, .. } => *time,
        }
    }

    /// The node the event is attributed to, when it has one (global
    /// events — ticks, app-layer sends, run aborts — have none).
    pub fn node(&self) -> Option<u64> {
        match self {
            TraceEvent::Tx { node, .. }
            | TraceEvent::Rx { node, .. }
            | TraceEvent::Drop { node, .. }
            | TraceEvent::TimerFire { node, .. }
            | TraceEvent::LocationLookup { node, .. }
            | TraceEvent::CryptoCharge { node, .. }
            | TraceEvent::PseudonymRotation { node, .. }
            | TraceEvent::ZonePartition { node, .. }
            | TraceEvent::ForwarderSelect { node, .. }
            | TraceEvent::Hop { node, .. }
            | TraceEvent::RandomForwarder { node, .. }
            | TraceEvent::Delivered { node, .. }
            | TraceEvent::NodeDown { node, .. }
            | TraceEvent::NodeUp { node, .. }
            | TraceEvent::LinkRetry { node, .. } => Some(*node),
            TraceEvent::Tick { .. }
            | TraceEvent::AppSend { .. }
            | TraceEvent::RunAborted { .. } => None,
        }
    }

    /// The application packet id the event references, when known
    /// (control-plane transmissions and non-packet events have none).
    pub fn packet_id(&self) -> Option<u64> {
        match self {
            TraceEvent::AppSend { packet, .. }
            | TraceEvent::ZonePartition { packet, .. }
            | TraceEvent::Hop { packet, .. }
            | TraceEvent::RandomForwarder { packet, .. }
            | TraceEvent::Delivered { packet, .. } => Some(*packet),
            TraceEvent::Tx { packet, .. }
            | TraceEvent::Drop { packet, .. }
            | TraceEvent::ForwarderSelect { packet, .. }
            | TraceEvent::LinkRetry { packet, .. } => *packet,
            TraceEvent::Tick { .. }
            | TraceEvent::Rx { .. }
            | TraceEvent::TimerFire { .. }
            | TraceEvent::LocationLookup { .. }
            | TraceEvent::CryptoCharge { .. }
            | TraceEvent::PseudonymRotation { .. }
            | TraceEvent::NodeDown { .. }
            | TraceEvent::NodeUp { .. }
            | TraceEvent::RunAborted { .. } => None,
        }
    }

    /// Canonical event-kind name (the JSONL `ev` field).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Tick { .. } => "tick",
            TraceEvent::AppSend { .. } => "app_send",
            TraceEvent::Tx { .. } => "tx",
            TraceEvent::Rx { .. } => "rx",
            TraceEvent::Drop { .. } => "drop",
            TraceEvent::TimerFire { .. } => "timer",
            TraceEvent::LocationLookup { .. } => "loc_lookup",
            TraceEvent::CryptoCharge { .. } => "crypto",
            TraceEvent::PseudonymRotation { .. } => "pseudonym_rotation",
            TraceEvent::ZonePartition { .. } => "zone_partition",
            TraceEvent::ForwarderSelect { .. } => "forwarder_select",
            TraceEvent::Hop { .. } => "hop",
            TraceEvent::RandomForwarder { .. } => "rf",
            TraceEvent::Delivered { .. } => "delivered",
            TraceEvent::NodeDown { .. } => "node_down",
            TraceEvent::NodeUp { .. } => "node_up",
            TraceEvent::LinkRetry { .. } => "link_retry",
            TraceEvent::RunAborted { .. } => "run_aborted",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_reason_round_trips_known_strings() {
        for r in [
            DropReason::UnicastOutOfRange,
            DropReason::UnicastChannelLoss,
            DropReason::UnicastUnknownPseudonym,
            DropReason::LocationLookupFailed,
            DropReason::LegTtlExhausted,
            DropReason::PacketTtlExhausted,
            DropReason::RetryLimitExceeded,
            DropReason::ReceiverNodeDown,
            DropReason::SourceNodeDown,
        ] {
            assert_eq!(DropReason::from(r.as_str()), r);
        }
        assert_eq!(
            DropReason::from("zap_greedy_stuck"),
            DropReason::Protocol("zap_greedy_stuck")
        );
        assert_eq!(DropReason::LegTtlExhausted.to_string(), "leg_ttl_exhausted");
    }

    #[test]
    fn enum_names_round_trip() {
        for k in [TickKind::Mobility, TickKind::Hello, TickKind::Location] {
            assert_eq!(TickKind::from_str_opt(k.as_str()), Some(k));
        }
        for k in [TxKind::Unicast, TxKind::Broadcast] {
            assert_eq!(TxKind::from_str_opt(k.as_str()), Some(k));
        }
        for k in [
            TrafficKind::Data,
            TrafficKind::Control,
            TrafficKind::ControlHop,
            TrafficKind::Cover,
        ] {
            assert_eq!(TrafficKind::from_str_opt(k.as_str()), Some(k));
        }
        for k in [
            CryptoOp::Symmetric,
            CryptoOp::PkEncrypt,
            CryptoOp::PkDecrypt,
            CryptoOp::PkVerify,
            CryptoOp::Hash,
        ] {
            assert_eq!(CryptoOp::from_str_opt(k.as_str()), Some(k));
        }
        assert!(TickKind::from_str_opt("nope").is_none());
    }

    #[test]
    fn time_and_kind_accessors() {
        let e = TraceEvent::Hop {
            time: 1.5,
            node: 3,
            packet: 9,
        };
        assert_eq!(e.time(), 1.5);
        assert_eq!(e.kind(), "hop");
        assert_eq!(e.node(), Some(3));
        assert_eq!(e.packet_id(), Some(9));
    }

    #[test]
    fn node_and_packet_accessors_handle_global_and_optional_fields() {
        let app = TraceEvent::AppSend {
            time: 0.0,
            packet: 7,
            session: 0,
            seq: 0,
            src: 1,
            dst: 2,
        };
        assert_eq!(app.node(), None);
        assert_eq!(app.packet_id(), Some(7));
        let tx = TraceEvent::Tx {
            time: 0.0,
            node: 4,
            kind: TxKind::Broadcast,
            class: TrafficKind::Control,
            bytes: 24,
            packet: None,
        };
        assert_eq!(tx.node(), Some(4));
        assert_eq!(tx.packet_id(), None);
        let tick = TraceEvent::Tick {
            time: 0.0,
            kind: TickKind::Hello,
        };
        assert_eq!(tick.node(), None);
        assert_eq!(tick.packet_id(), None);
    }
}
