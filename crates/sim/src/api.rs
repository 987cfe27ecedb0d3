//! The protocol-facing surface: what one node's routing protocol can see
//! and do.
//!
//! The [`Api`] deliberately exposes only information a real node would
//! have — its own position and keys, its hello-learned neighbor table, and
//! the location service — never other nodes' ground-truth state. Ground
//! truth flows only into instrumentation ([`Api::mark_hop`] etc.), which
//! models an omniscient experimenter, not a protocol capability.

use crate::config::ScenarioConfig;
use crate::ids::{NodeId, PacketId, SessionId, TimerToken};
use crate::location::LocationInfo;
use alert_crypto::{KeyPair, Pseudonym};
use alert_geom::{Point, Rect};
use alert_rng::StdRng;
use alert_trace::{CryptoOp, DropReason, TraceEvent};

/// One row of a node's neighbor table, learned from "hello" beacons
/// (Section 2.2: "every node maintains a routing table that keeps its
/// neighbors' pseudonyms associated with their locations").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeighborEntry {
    /// The neighbor's pseudonym at the last hello.
    pub pseudonym: Pseudonym,
    /// The neighbor's position at the last hello (staler than ground truth
    /// by up to one hello interval — exactly as in a real deployment).
    pub position: Point,
    /// When the hello was heard.
    pub heard_at: f64,
}

/// An application-layer request to send one packet (generated by the CBR
/// traffic source).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataRequest {
    /// Instrumentation id threading through the metrics.
    pub packet: PacketId,
    /// The S–D pair.
    pub session: SessionId,
    /// Sequence number within the session.
    pub seq: u32,
    /// The destination's *identity* (the application knows who it talks
    /// to; the network must not).
    pub dst: NodeId,
    /// Payload size in bytes.
    pub bytes: usize,
}

/// Whether a frame was addressed to one pseudonym or to everyone in range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Link-layer unicast to a pseudonym.
    Unicast,
    /// One-hop broadcast.
    Broadcast,
}

/// A received frame.
#[derive(Debug, Clone)]
pub struct Frame<M> {
    /// Sender's pseudonym (the only sender identity on the wire).
    pub from: Pseudonym,
    /// Unicast or broadcast.
    pub kind: FrameKind,
    /// Wire size in bytes.
    pub bytes: usize,
    /// Protocol-defined message body.
    pub msg: M,
}

/// Traffic classes for overhead accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficClass {
    /// Application data (and its protocol envelope).
    Data,
    /// Control traffic (beacons, route maintenance, notifications).
    Control,
    /// Control traffic that the paper counts as routing hops (ALARM's
    /// identity dissemination, Fig. 15).
    ControlHop,
    /// "Notify and go" cover packets (Section 2.6).
    Cover,
}

/// A protocol implementation for one node.
///
/// One value of the implementing type exists per simulated node; all per-
/// node protocol state (pending packets, GPSR perimeter state, ALARM's
/// network map, ...) lives inside it. Callbacks receive an [`Api`] scoped
/// to the owning node.
pub trait ProtocolNode: Sized {
    /// Protocol message type carried in frames.
    type Msg: Clone + std::fmt::Debug;

    /// Human-readable protocol name ("ALERT", "GPSR", ...).
    fn name() -> &'static str;

    /// Called once at simulation start, after the first neighbor tables
    /// are built.
    fn on_start(&mut self, _api: &mut Api<'_, Self::Msg>) {}

    /// The application asks this node to send a packet.
    fn on_data_request(&mut self, api: &mut Api<'_, Self::Msg>, req: &DataRequest);

    /// A frame arrived at this node.
    fn on_frame(&mut self, api: &mut Api<'_, Self::Msg>, frame: Frame<Self::Msg>);

    /// A timer set via [`Api::set_timer`] fired.
    fn on_timer(&mut self, _api: &mut Api<'_, Self::Msg>, _token: TimerToken) {}

    /// A neighbor-table entry aged out without being re-heard (the
    /// neighbor crashed, powered down, or moved away). Protocols that keep
    /// per-neighbor routing state can repair it here; the default is a
    /// no-op because the bundled protocols re-read the neighbor table at
    /// every forwarding decision.
    fn on_neighbor_lost(&mut self, _api: &mut Api<'_, Self::Msg>, _neighbor: &NeighborEntry) {}
}

/// Capability handle passed to every protocol callback. See the module
/// docs for the information-visibility contract.
pub struct Api<'a, M> {
    pub(crate) core: &'a mut crate::runtime::WorldCore<M>,
    pub(crate) node: NodeId,
    pub(crate) pending_delay: f64,
}

impl<'a, M: Clone + std::fmt::Debug> Api<'a, M> {
    /// Current simulated time in seconds.
    pub fn now(&self) -> f64 {
        self.core.queue.now()
    }

    /// This node's ground-truth id (used only to key protocol-internal
    /// state and instrumentation; it never goes on the wire).
    pub fn my_id(&self) -> NodeId {
        self.node
    }

    /// This node's current position (a node always knows its own GPS fix).
    pub fn my_pos(&self) -> Point {
        self.core.position(self.node)
    }

    /// This node's current pseudonym.
    pub fn my_pseudonym(&self) -> Pseudonym {
        self.core.cur_pseudonyms[self.node.0]
    }

    /// This node's key pair.
    pub fn my_keys(&self) -> KeyPair {
        self.core.nodes[self.node.0].keypair
    }

    /// The network field boundary (configured into every node when it
    /// joins, Section 2.3).
    pub fn field(&self) -> Rect {
        self.core.cfg.field()
    }

    /// The scenario configuration (public knowledge: density, ranges...).
    pub fn config(&self) -> &ScenarioConfig {
        &self.core.cfg
    }

    /// This node's neighbor table, borrowed in place. Forwarding
    /// decisions run on every hop of every packet, so this is
    /// deliberately allocation-free; entries are `Copy` — callers that
    /// need the list across a mutating `Api` call can copy out the
    /// entries they keep (or `.to_vec()` the lot). The runtime fills the
    /// table in before the node's first callback after each hello.
    pub fn neighbors(&self) -> &[NeighborEntry] {
        &self.core.nodes[self.node.0].neighbors
    }

    /// Number of current neighbors (the `eta` of "notify and go").
    pub fn neighbor_count(&self) -> usize {
        self.core.table_len(self.node.0)
    }

    /// Queries the location service for a node's position, public key and
    /// pseudonym (Section 2.2). Message cost is accounted.
    pub fn lookup(&mut self, node: NodeId) -> Option<LocationInfo> {
        let info = self.core.location.lookup(node);
        self.core
            .stats
            .registry
            .inc(self.core.stats.location_lookups);
        let time = self.core.queue.now();
        let me = self.node.0 as u64;
        let found = info.is_some();
        self.core.tracer.emit_with(|| TraceEvent::LocationLookup {
            time,
            node: me,
            target: node.0 as u64,
            found,
        });
        info
    }

    /// Deterministic per-run RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.core.rng
    }

    /// Every node's `(pseudonym, position)` as of the current instant —
    /// the *converged* view a proactive routing protocol (ALARM \[5\])
    /// maintains through periodic identity dissemination.
    ///
    /// Reactive protocols must NOT call this: it models the steady state
    /// of ALARM's dissemination, whose per-round traffic the caller is
    /// responsible for charging (one `ControlHop` LAM broadcast per node
    /// per dissemination period, Section 5 of the paper). Staleness is
    /// modeled by the caller refreshing its cached copy only at
    /// dissemination ticks.
    pub fn proactive_map_snapshot(&self) -> Vec<(Pseudonym, Point)> {
        (0..self.core.cfg.nodes)
            .map(|i| (self.core.cur_pseudonyms[i], self.core.positions[i]))
            .collect()
    }

    /// Sends a link-layer unicast to a pseudonym. Delivery requires the
    /// target to currently be within radio range; otherwise the frame is
    /// silently lost (as on a real channel).
    pub fn send_unicast(
        &mut self,
        to: Pseudonym,
        msg: M,
        bytes: usize,
        class: TrafficClass,
        packet: Option<PacketId>,
    ) {
        let delay = self.take_pending();
        self.core.transmit(
            self.node,
            crate::runtime::TxDest::Unicast(to),
            msg,
            bytes,
            delay,
            class,
            packet,
            0,
        );
    }

    /// Sends a one-hop broadcast to everything in range.
    pub fn send_broadcast(
        &mut self,
        msg: M,
        bytes: usize,
        class: TrafficClass,
        packet: Option<PacketId>,
    ) {
        let delay = self.take_pending();
        self.core.transmit(
            self.node,
            crate::runtime::TxDest::Broadcast,
            msg,
            bytes,
            delay,
            class,
            packet,
            0,
        );
    }

    /// Schedules [`ProtocolNode::on_timer`] on this node after `delay_s`.
    /// The timer is bound to the node's current incarnation: if the node
    /// crashes and recovers before it fires, it is swallowed.
    pub fn set_timer(&mut self, delay_s: f64, token: TimerToken) {
        let node = self.node;
        let epoch = self.core.epochs[node.0];
        self.core.queue.schedule_in(
            delay_s.max(0.0),
            crate::runtime::Event::Timer { node, token, epoch },
        );
    }

    /// Shared tail of the `charge_*` family: delay accrual, the typed
    /// op counter, and the trace event.
    fn charge(&mut self, op: CryptoOp, n: u64, cost_s: f64) {
        self.pending_delay += n as f64 * cost_s;
        self.core.stats.registry.add(self.core.stats.crypto_ops, n);
        let time = self.core.queue.now();
        let node = self.node.0 as u64;
        self.core
            .tracer
            .emit_with(|| TraceEvent::CryptoCharge { time, node, op, n });
    }

    /// Charges `n` symmetric crypto operations: simulated latency is added
    /// to this node's next transmissions / delivery in this callback, and
    /// the operation count is recorded.
    pub fn charge_symmetric(&mut self, n: u64) {
        self.core.metrics.crypto.symmetric += n;
        self.charge(
            CryptoOp::Symmetric,
            n,
            self.core.cfg.crypto_cost.symmetric_s,
        );
    }

    /// Charges `n` public-key encryptions.
    pub fn charge_pk_encrypt(&mut self, n: u64) {
        self.core.metrics.crypto.pk_encrypt += n;
        self.charge(
            CryptoOp::PkEncrypt,
            n,
            self.core.cfg.crypto_cost.pk_encrypt_s,
        );
    }

    /// Charges `n` public-key decryptions / signatures.
    pub fn charge_pk_decrypt(&mut self, n: u64) {
        self.core.metrics.crypto.pk_decrypt += n;
        self.charge(
            CryptoOp::PkDecrypt,
            n,
            self.core.cfg.crypto_cost.pk_decrypt_s,
        );
    }

    /// Charges `n` signature verifications.
    pub fn charge_pk_verify(&mut self, n: u64) {
        self.core.metrics.crypto.pk_verify += n;
        self.charge(CryptoOp::PkVerify, n, self.core.cfg.crypto_cost.pk_verify_s);
    }

    /// Charges `n` hash evaluations.
    pub fn charge_hash(&mut self, n: u64) {
        self.core.metrics.crypto.hash += n;
        self.charge(CryptoOp::Hash, n, self.core.cfg.crypto_cost.hash_s);
    }

    /// Crypto-processing delay accumulated in this callback so far.
    pub fn pending_delay(&self) -> f64 {
        self.pending_delay
    }

    fn take_pending(&mut self) -> f64 {
        std::mem::take(&mut self.pending_delay)
    }

    // ----- instrumentation (omniscient-experimenter side) -----

    /// Records that this node transmitted application packet `pkt`
    /// (one hop, one participant).
    pub fn mark_hop(&mut self, pkt: PacketId) {
        self.core.metrics.record_hop(pkt, self.node);
        let time = self.core.queue.now();
        let node = self.node.0 as u64;
        self.core.tracer.emit_with(|| TraceEvent::Hop {
            time,
            node,
            packet: pkt.0,
        });
    }

    /// Records that this node served as a random forwarder for `pkt`.
    pub fn mark_random_forwarder(&mut self, pkt: PacketId) {
        self.core.metrics.record_random_forwarder(pkt, self.node);
        self.core
            .stats
            .registry
            .inc(self.core.stats.random_forwarders);
        let time = self.core.queue.now();
        let node = self.node.0 as u64;
        self.core.tracer.emit_with(|| TraceEvent::RandomForwarder {
            time,
            node,
            packet: pkt.0,
        });
    }

    /// Records delivery of `pkt` at this node. Ground truth guards against
    /// a protocol bug claiming delivery at the wrong node: only the true
    /// destination's claim is recorded.
    pub fn mark_delivered(&mut self, pkt: PacketId) {
        if self.core.metrics.packets[pkt.0 as usize].dst == self.node {
            let at = self.now() + self.pending_delay;
            let first = self.core.metrics.packets[pkt.0 as usize]
                .delivered_at
                .is_none();
            self.core.metrics.record_delivery(pkt, at);
            if first {
                let rec = &self.core.metrics.packets[pkt.0 as usize];
                let latency = at - rec.sent_at;
                let hops = f64::from(rec.hops);
                self.core.stats.registry.inc(self.core.stats.delivered);
                self.core
                    .stats
                    .registry
                    .observe(self.core.stats.latency_s, latency);
                self.core.stats.registry.observe(self.core.stats.hops, hops);
                let time = self.now();
                let node = self.node.0 as u64;
                self.core.tracer.emit_with(|| TraceEvent::Delivered {
                    time,
                    node,
                    packet: pkt.0,
                    latency,
                });
            }
            let node = self.node;
            let t = self.now();
            for obs in &mut self.core.observers {
                obs.on_delivery(t, node, pkt);
            }
        }
    }

    /// Records a packet-drop diagnostic under `reason` (a typed
    /// [`DropReason`] or a `&'static str`, canonicalised).
    pub fn mark_drop(&mut self, reason: impl Into<DropReason>) {
        let node = self.node;
        self.core.drop_frame(node, reason.into(), None);
    }

    /// Like [`Api::mark_drop`], additionally tying the drop to an
    /// application packet so trace replay can attribute it.
    pub fn mark_packet_drop(&mut self, reason: impl Into<DropReason>, pkt: PacketId) {
        let node = self.node;
        self.core.drop_frame(node, reason.into(), Some(pkt));
    }

    /// Emits a [`TraceEvent::ZonePartition`] for `pkt`: this node split
    /// the current zone `splits` more times and chose the temporary
    /// destination `td` (Section 2.3). Counted in the registry; a no-op
    /// beyond that when tracing is disabled.
    pub fn trace_zone_partition(&mut self, pkt: PacketId, splits: u32, td: Point) {
        self.core
            .stats
            .registry
            .inc(self.core.stats.zone_partitions);
        let time = self.core.queue.now();
        let node = self.node.0 as u64;
        self.core.tracer.emit_with(|| TraceEvent::ZonePartition {
            time,
            node,
            packet: pkt.0,
            splits: u64::from(splits),
            td_x: td.x,
            td_y: td.y,
        });
    }

    /// Emits a [`TraceEvent::ForwarderSelect`]: this node ran a
    /// greedy next-hop selection toward `target`; `progress` says whether
    /// a closer neighbor existed. A no-op when tracing is disabled.
    pub fn trace_forwarder_selection(
        &mut self,
        pkt: Option<PacketId>,
        target: Point,
        progress: bool,
    ) {
        let time = self.core.queue.now();
        let node = self.node.0 as u64;
        self.core.tracer.emit_with(|| TraceEvent::ForwarderSelect {
            time,
            node,
            packet: pkt.map(|p| p.0),
            target_x: target.x,
            target_y: target.y,
            progress,
        });
    }

    /// Accounts control-plane transmissions that are *modelled* rather
    /// than individually simulated (e.g. the multi-hop relay of ALARM's
    /// identity announcements across the network, whose converged result
    /// is already provided by [`Api::proactive_map_snapshot`]). Each
    /// counted frame contributes to the control-hop metric the paper adds
    /// to ALARM's per-packet hop count (Fig. 15).
    pub fn account_control_hops(&mut self, frames: u64, bytes_each: usize) {
        self.core.metrics.control_frames += frames;
        self.core.metrics.control_bytes += frames * bytes_each as u64;
        self.core.metrics.control_hops += frames;
    }

    /// True when this node is the true destination of `pkt`. This models
    /// the recipient recognizing itself (e.g. by decrypting `K_s` with its
    /// private key) without simulating the full key schedule in-line.
    pub fn is_true_destination(&self, pkt: PacketId) -> bool {
        self.core.metrics.packets[pkt.0 as usize].dst == self.node
    }
}
