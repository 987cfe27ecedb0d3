//! The simulation world: ties the event queue, mobility, channel model,
//! node registry, location service, traffic generator and metrics together
//! around a pluggable routing protocol.

use crate::api::{Api, DataRequest, Frame, FrameKind, NeighborEntry, ProtocolNode, TrafficClass};
use crate::config::{LocationPolicy, MobilityKind, ScenarioConfig, ScenarioError};
use crate::engine::EventQueue;
use crate::guard::{RunAbort, RunBudget, WALL_CHECK_INTERVAL};
use crate::ids::{NodeId, PacketId, SessionId, TimerToken};
use crate::location::LocationService;
use crate::metrics::Metrics;
use alert_crypto::{KeyPair, MacAddress, Pseudonym, PseudonymGenerator, PublicKey};
use alert_geom::{PackedCells, Point, Rect, SpatialGrid};
use alert_mobility::{
    GroupMobility, GroupMobilityConfig, ManhattanConfig, ManhattanGrid, Mobility, RandomWaypoint,
    RandomWaypointConfig, StaticField,
};
use alert_rng::{Rng, SeedableRng, StdRng};
use alert_trace::{
    CallbackProfile, CounterHandle, DropReason, HistogramHandle, MetricsTimeseries, Registry,
    RegistrySnapshot, RunProfile, TickKind, TraceEvent, TraceSink, Tracer, TrafficKind, TxKind,
};
use std::collections::HashMap;

/// Wire size of a hello beacon (pseudonym + position + public key + MAC
/// framing), bytes.
const HELLO_BYTES: usize = 48;

/// One observed wireless transmission — what a physical-layer eavesdropper
/// can capture: time, transmitter position, frame size, and (ground truth
/// for the experimenter) the resolved receiver and packet id.
#[derive(Debug, Clone, Copy)]
pub struct TxEvent {
    /// Transmission start time.
    pub time: f64,
    /// Transmitting node (ground truth; an attacker sees only a position).
    pub sender: NodeId,
    /// Transmitter position.
    pub sender_pos: Point,
    /// Resolved unicast receiver, if any (ground truth).
    pub receiver: Option<NodeId>,
    /// Frame size in bytes (visible on air).
    pub bytes: usize,
    /// Traffic class (ground truth; on air everything is ciphertext).
    pub class: TrafficClass,
    /// Application packet id (ground truth).
    pub packet: Option<PacketId>,
}

/// A passive observer of all channel activity; the adversary analyzers
/// implement this.
pub trait Observer {
    /// Called for every transmission, at send time.
    fn on_transmission(&mut self, ev: &TxEvent);
    /// Called when the true destination receives an application packet.
    fn on_delivery(&mut self, _time: f64, _node: NodeId, _packet: PacketId) {}
}

/// A frame-audit hook ([`World::set_frame_audit`]): called once per frame
/// put on the air with `(send time, ground-truth sender, on-wire sender
/// pseudonym, message)`, before receiver resolution — so failed unicasts
/// and ARQ retransmissions are audited too. Unlike [`Observer`], the hook
/// sees the typed protocol message, which is what invariant checkers need
/// to audit on-wire contents (e.g. "no real `NodeId` ever leaves a node").
pub type FrameAudit<M> = Box<dyn FnMut(f64, NodeId, Pseudonym, &M)>;

/// Profiling names of the event classes ([`RunProfile::callbacks`]), in
/// the slot order of [`Event::class`], then [`START`].
const EVENT_CLASSES: [&str; 13] = [
    "deliver",
    "timer",
    "app_send",
    "mobility_tick",
    "hello_tick",
    "location_tick",
    "node_down",
    "node_up",
    "region_outage",
    "region_recover",
    "energy_deplete",
    "retry",
    "start",
];

/// Slot of one receiver's delivery in [`EVENT_CLASSES`].
const DELIVER: usize = 0;

/// Slot of the deferred `on_start` sweep in [`EVENT_CLASSES`]: no event
/// has it, and its one count is the sweep, not a dispatched event.
const START: usize = 12;

/// Profiling names of the protocol callbacks ([`RunProfile::spans`]), in
/// slot order.
const SPANS: [&str; 5] = [
    "on_start",
    "on_data_request",
    "on_frame",
    "on_timer",
    "on_neighbor_lost",
];
const ON_START: usize = 0;
const ON_DATA_REQUEST: usize = 1;
const ON_FRAME: usize = 2;
const ON_TIMER: usize = 3;
const ON_NEIGHBOR_LOST: usize = 4;

/// Internal event type.
#[derive(Debug)]
pub(crate) enum Event<M> {
    /// One frame arriving at all of its receivers at once: a unicast
    /// frame's single receiver, or every broadcast receiver that survived
    /// channel loss, in grid order. One FEL entry, but one logical event
    /// per receiver (see [`World::admit`]). The list is pooled in
    /// [`WorldCore::rx_lists`].
    Deliver {
        frame: Frame<M>,
        to: Vec<NodeId>,
    },
    Timer {
        node: NodeId,
        token: TimerToken,
        /// The owning node's incarnation when the timer was set; a timer
        /// from a pre-crash incarnation is swallowed.
        epoch: u32,
    },
    AppSend {
        session: SessionId,
        seq: u32,
    },
    MobilityTick,
    HelloTick,
    LocationTick,
    /// Fault plan: crash one node.
    NodeDown {
        node: NodeId,
    },
    /// Fault plan: recover one node.
    NodeUp {
        node: NodeId,
    },
    /// Fault plan: start regional outage `index` (victims resolved from
    /// the geometry at dispatch time).
    RegionOutage {
        index: usize,
    },
    /// Fault plan: end regional outage `index`.
    RegionRecover {
        index: usize,
    },
    /// Energy model: a node's battery hit zero; it goes down permanently
    /// (no matching recovery is ever scheduled).
    EnergyDeplete {
        node: NodeId,
    },
    /// Link-layer ARQ retransmission of a failed unicast frame.
    Retry {
        from: NodeId,
        to: Pseudonym,
        msg: M,
        bytes: usize,
        class: TrafficClass,
        packet: Option<PacketId>,
        attempt: u32,
    },
}

impl<M> Event<M> {
    /// The event's profiling slot in [`EVENT_CLASSES`].
    pub(crate) fn class(&self) -> usize {
        match self {
            Event::Deliver { .. } => DELIVER,
            Event::Timer { .. } => 1,
            Event::AppSend { .. } => 2,
            Event::MobilityTick => 3,
            Event::HelloTick => 4,
            Event::LocationTick => 5,
            Event::NodeDown { .. } => 6,
            Event::NodeUp { .. } => 7,
            Event::RegionOutage { .. } => 8,
            Event::RegionRecover { .. } => 9,
            Event::EnergyDeplete { .. } => 10,
            Event::Retry { .. } => 11,
        }
    }
}

/// The runtime's counter/histogram registry plus pre-resolved handles, so
/// hot-path updates are plain array increments.
pub(crate) struct SimStats {
    pub(crate) registry: Registry,
    pub(crate) tx_frames: CounterHandle,
    pub(crate) tx_unicast: CounterHandle,
    pub(crate) tx_broadcast: CounterHandle,
    pub(crate) tx_bytes: CounterHandle,
    pub(crate) rx_frames: CounterHandle,
    pub(crate) drops: CounterHandle,
    pub(crate) timer_fired: CounterHandle,
    pub(crate) app_packets: CounterHandle,
    pub(crate) delivered: CounterHandle,
    pub(crate) pseudonym_rotations: CounterHandle,
    pub(crate) location_lookups: CounterHandle,
    pub(crate) zone_partitions: CounterHandle,
    pub(crate) random_forwarders: CounterHandle,
    pub(crate) crypto_ops: CounterHandle,
    pub(crate) node_downs: CounterHandle,
    pub(crate) node_ups: CounterHandle,
    pub(crate) run_aborts: CounterHandle,
    pub(crate) energy_deaths: CounterHandle,
    pub(crate) cluster_heads: CounterHandle,
    pub(crate) latency_s: HistogramHandle,
    pub(crate) hops: HistogramHandle,
    pub(crate) mac_backoff_s: HistogramHandle,
    pub(crate) link_retries: HistogramHandle,
}

impl SimStats {
    fn new() -> Self {
        let mut registry = Registry::new();
        let tx_frames = registry.counter("tx.frames");
        let tx_unicast = registry.counter("tx.unicast");
        let tx_broadcast = registry.counter("tx.broadcast");
        let tx_bytes = registry.counter("tx.bytes");
        let rx_frames = registry.counter("rx.frames");
        let drops = registry.counter("drops");
        let timer_fired = registry.counter("timer.fired");
        let app_packets = registry.counter("app.packets");
        let delivered = registry.counter("delivered");
        let pseudonym_rotations = registry.counter("pseudonym.rotations");
        let location_lookups = registry.counter("location.lookups");
        let zone_partitions = registry.counter("zone.partitions");
        let random_forwarders = registry.counter("random.forwarders");
        let crypto_ops = registry.counter("crypto.ops");
        let node_downs = registry.counter("node.downs");
        let node_ups = registry.counter("node.ups");
        let run_aborts = registry.counter("run.aborts");
        let energy_deaths = registry.counter("energy.deaths");
        let cluster_heads = registry.counter("energy.cluster_heads");
        let latency_s = registry.histogram("latency_s");
        let hops = registry.histogram("hops");
        let mac_backoff_s = registry.histogram("mac_backoff_s");
        let link_retries = registry.histogram("link.retries");
        SimStats {
            registry,
            tx_frames,
            tx_unicast,
            tx_broadcast,
            tx_bytes,
            rx_frames,
            drops,
            timer_fired,
            app_packets,
            delivered,
            pseudonym_rotations,
            location_lookups,
            zone_partitions,
            random_forwarders,
            crypto_ops,
            node_downs,
            node_ups,
            run_aborts,
            energy_deaths,
            cluster_heads,
            latency_s,
            hops,
            mac_backoff_s,
            link_retries,
        }
    }
}

/// Maps the runtime's traffic class onto the trace vocabulary.
fn class_kind(class: TrafficClass) -> TrafficKind {
    match class {
        TrafficClass::Data => TrafficKind::Data,
        TrafficClass::Control => TrafficKind::Control,
        TrafficClass::ControlHop => TrafficKind::ControlHop,
        TrafficClass::Cover => TrafficKind::Cover,
    }
}

pub(crate) enum TxDest {
    Unicast(Pseudonym),
    Broadcast,
}

/// Per-node bookkeeping owned by the runtime.
pub(crate) struct NodeInfo {
    pub(crate) keypair: KeyPair,
    pub(crate) pseudonyms: PseudonymHistory,
    /// The neighbor table as [`Api::neighbors`] lends it. Valid only
    /// once [`WorldCore::fill_table`] has run since the last hello; the
    /// table itself is `WorldCore::heard` and `WorldCore::survivors`.
    pub(crate) neighbors: Vec<NeighborEntry>,
}

/// A node's current pseudonym plus one predecessor, kept so in-flight
/// frames addressed just before a rotation still resolve (grace window).
pub(crate) struct PseudonymHistory {
    generator: PseudonymGenerator,
    previous: Option<Pseudonym>,
}

impl PseudonymHistory {
    fn new(generator: PseudonymGenerator) -> Self {
        PseudonymHistory {
            generator,
            previous: None,
        }
    }

    pub(crate) fn current(&self) -> Pseudonym {
        self.generator.peek()
    }

    /// Rotates if expired; returns `Some(new)` when a rotation happened.
    fn maybe_rotate(&mut self, now: f64, rng: &mut StdRng) -> Option<Pseudonym> {
        let old = self.generator.peek();
        let (p, rotated) = self.generator.current(now, rng);
        if rotated {
            self.previous = Some(old);
            Some(p)
        } else {
            None
        }
    }
}

/// One CBR session (an S–D pair).
#[derive(Debug, Clone, Copy)]
pub struct Session {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
}

/// Everything in the world except the protocol instances (split so a
/// protocol callback can borrow its own state and the world mutably at the
/// same time).
pub(crate) struct WorldCore<M> {
    pub(crate) cfg: ScenarioConfig,
    pub(crate) queue: EventQueue<Event<M>>,
    pub(crate) mobility: Box<dyn Mobility>,
    pub(crate) grid: SpatialGrid,
    pub(crate) nodes: Vec<NodeInfo>,
    pub(crate) pseudonym_map: HashMap<Pseudonym, NodeId>,
    pub(crate) location: LocationService,
    pub(crate) sessions: Vec<Session>,
    pub(crate) metrics: Metrics,
    pub(crate) rng: StdRng,
    pub(crate) observers: Vec<Box<dyn Observer>>,
    /// Test-harness hook: sees every frame put on the air (including ARQ
    /// retransmissions) with its ground-truth sender, before receiver
    /// resolution. `None` (the default) costs nothing and draws no RNG,
    /// so audited and unaudited runs are byte-identical.
    pub(crate) frame_audit: Option<FrameAudit<M>>,
    pub(crate) tracer: Tracer,
    pub(crate) stats: SimStats,
    /// Per-node crash depth: `> 0` means down. A counter rather than a
    /// flag so overlapping outages (individual crash inside a regional
    /// outage) nest correctly.
    pub(crate) down_depth: Vec<u32>,
    /// Per-node incarnation counter; bumped on recovery so timers set
    /// before a crash never fire into the new incarnation.
    pub(crate) epochs: Vec<u32>,
    /// Victims of each in-progress regional outage (resolved at outage
    /// start, recovered together at outage end).
    pub(crate) region_victims: Vec<Vec<NodeId>>,
    /// Reusable buffers for [`WorldCore::hello_tick`]: a steady-state
    /// tick allocates nothing (see DESIGN.md § performance).
    pub(crate) hello_scratch: HelloScratch,
    /// Node i's neighbor table is the nodes `heard.of(i)` heard at the
    /// last hello, in grid order (their rows are in
    /// `hello_scratch.beacons`), followed by `survivors[i]`: entries not
    /// re-heard that have not yet aged out, with their node ids. Both are
    /// written by the hello sweep and cleared when the node crashes;
    /// their lengths are the table's length.
    pub(crate) heard: HeardLists,
    pub(crate) survivors: Vec<Vec<(u32, NeighborEntry)>>,
    /// Whether `nodes[i].neighbors` was filled in since the last hello.
    pub(crate) table_filled: Vec<bool>,
    /// Recycled receiver lists of [`Event::Deliver`]: a frame takes one
    /// at send time and hands it back once delivered, so steady state
    /// allocates nothing per frame.
    pub(crate) rx_lists: Vec<Vec<NodeId>>,
    /// Struct-of-arrays mirrors of the per-node hot state. The hello and
    /// mobility sweeps touch every node every tick; streaming these flat
    /// vectors instead of hopping through `NodeInfo` (whose neighbor
    /// tables and keypairs pad each record past a cache line) keeps those
    /// sweeps linear in memory. Each is an exact mirror of its source of
    /// truth: `positions` of the mobility model (refreshed after every
    /// step), `cur_pseudonyms` of `NodeInfo::pseudonyms` (updated at
    /// rotation), `public_keys` of `NodeInfo::keypair` (immutable per
    /// run). `tx_busy_until` lives here outright — the transmit path is
    /// its only reader and writer.
    pub(crate) positions: Vec<Point>,
    /// End time of each node's in-flight transmission (used only under
    /// `MacConfig::serialize_tx`).
    pub(crate) tx_busy_until: Vec<f64>,
    pub(crate) cur_pseudonyms: Vec<Pseudonym>,
    pub(crate) public_keys: Vec<PublicKey>,
    /// Remaining battery per node in joules. Empty when the scenario has
    /// no energy budget (`EnergyConfig::initial_j` unset), so the legacy
    /// unmetered path pays a single is-empty branch and nothing else.
    pub(crate) energy_j: Vec<f64>,
    /// Whether a node's battery has already hit zero (its depletion event
    /// is scheduled exactly once). Same length as `energy_j`.
    pub(crate) energy_dead: Vec<bool>,
    /// Cluster-head flags from the most recent hello-round election; a
    /// head transmits with a boosted radio range.
    pub(crate) cluster_head: Vec<bool>,
    /// Nodes below the relay-energy threshold this hello round: they
    /// withhold beacons, steering forwarding away from drained relays.
    pub(crate) low_energy: Vec<bool>,
}

/// What a battery drain is charged against (per-cause accounting in
/// [`Metrics::node_energy`], which the energy-conservation oracle checks
/// against the total).
#[derive(Debug, Clone, Copy)]
pub(crate) enum EnergyCause {
    Tx,
    Rx,
    Idle,
    Beacon,
}

/// Scratch buffers reused across [`WorldCore::hello_tick`] rounds; all
/// vectors keep their capacity between ticks.
#[derive(Default)]
pub(crate) struct HelloScratch {
    /// What this hello's beacons advertised, and the previous hello's.
    beacons: Beacons,
    prev_beacons: Beacons,
    /// The previous hello's heard lists (`WorldCore::heard` holds this
    /// hello's; the two swap at every hello).
    prev_heard: HeardLists,
    /// This hello's beaconing nodes, cell-sorted, for the sweep.
    cells: PackedCells,
    /// `stamps[id] == round` ⇔ node `id` was heard by the listener
    /// being sorted out: a "heard" set that needs no clearing.
    stamps: Vec<u64>,
    /// Generation stamp, bumped once per listener per tick.
    round: u64,
    /// The listener's survivors, built here and then copied, because
    /// its old survivors are read while they are built.
    kept: Vec<(u32, NeighborEntry)>,
    /// Entries that aged out this tick in the sweep's (cell) order, and
    /// each listener's run of them.
    lost_cells: Vec<NeighborEntry>,
    lost_runs: Vec<(usize, std::ops::Range<usize>)>,
    /// Entries that aged out this tick, in node-id order, delivered to
    /// `on_neighbor_lost` by the dispatch loop after the tick completes.
    pub(crate) lost: Vec<(NodeId, NeighborEntry)>,
}

/// One hello's heard lists, packed: node i heard
/// `ids[spans[i].0..][..spans[i].1]`, in grid order. The spans are in
/// node-id order, the ids in the sweep's cell order. A node the sweep
/// skipped (down at the hello) or that crashed since has an empty span.
#[derive(Default)]
pub(crate) struct HeardLists {
    ids: Vec<u32>,
    spans: Vec<(u32, u32)>,
}

impl HeardLists {
    fn new(nodes: usize) -> Self {
        HeardLists {
            ids: Vec::new(),
            spans: vec![(0, 0); nodes],
        }
    }

    /// The ids node `i` heard.
    pub(crate) fn of(&self, i: usize) -> &[u32] {
        let (at, len) = self.spans[i];
        &self.ids[at as usize..][..len as usize]
    }

    /// Empties node `i`'s list.
    fn clear(&mut self, i: usize) {
        self.spans[i].1 = 0;
    }
}

/// One hello round's beacons: every node's pseudonym and position at
/// the hello (after rotation), and its time. Rows of nodes that sent no
/// beacon are never read.
#[derive(Default)]
struct Beacons {
    at: f64,
    rows: Vec<(Pseudonym, Point)>,
}

impl Beacons {
    /// The table entry a neighbor that heard node `id`'s beacon holds.
    fn entry(&self, id: u32) -> NeighborEntry {
        let (pseudonym, position) = self.rows[id as usize];
        NeighborEntry {
            pseudonym,
            position,
            heard_at: self.at,
        }
    }
}

impl<M: Clone + std::fmt::Debug> WorldCore<M> {
    pub(crate) fn position(&self, node: NodeId) -> Point {
        self.positions[node.0]
    }

    /// Refreshes the flat position cache from the mobility model; called
    /// after every `step` (and at construction) so `positions[i]` always
    /// equals `mobility.position(i)` without the virtual call per read.
    pub(crate) fn refresh_positions(&mut self) {
        for i in 0..self.positions.len() {
            self.positions[i] = self.mobility.position(i);
        }
    }

    /// Length of node `i`'s neighbor table, without filling it in.
    pub(crate) fn table_len(&self, i: usize) -> usize {
        self.heard.spans[i].1 as usize + self.survivors[i].len()
    }

    /// Fills `nodes[i].neighbors` in from this hello's beacons and the
    /// node's lists, once per hello: the rows, in the order, an eager
    /// rebuild at the hello would have written.
    pub(crate) fn fill_table(&mut self, i: usize) {
        if self.table_filled[i] {
            return;
        }
        self.table_filled[i] = true;
        let beacons = &self.hello_scratch.beacons;
        let table = &mut self.nodes[i].neighbors;
        table.clear();
        table.extend(self.heard.of(i).iter().map(|&id| beacons.entry(id)));
        table.extend(self.survivors[i].iter().map(|&(_, e)| e));
    }

    /// Whether `node` is currently crashed (fault plan).
    pub(crate) fn is_down(&self, node: NodeId) -> bool {
        self.down_depth[node.0] > 0
    }

    /// Whether the per-node energy meter is active for this run.
    pub(crate) fn energy_metered(&self) -> bool {
        !self.energy_j.is_empty()
    }

    /// Drains `joules` from `node`'s battery — clamped to the remaining
    /// charge, so the per-cause drain counters sum exactly to the total
    /// drained and the meter never goes negative — and schedules the
    /// depletion event when the meter hits zero. No-op for unmetered runs.
    pub(crate) fn charge_energy(&mut self, node: NodeId, joules: f64, cause: EnergyCause) {
        if self.energy_j.is_empty() {
            return;
        }
        let take = joules.max(0.0).min(self.energy_j[node.0]);
        self.energy_j[node.0] -= take;
        let acct = &mut self.metrics.node_energy;
        acct.drained_j += take;
        match cause {
            EnergyCause::Tx => acct.tx_j += take,
            EnergyCause::Rx => acct.rx_j += take,
            EnergyCause::Idle => acct.idle_j += take,
            EnergyCause::Beacon => acct.beacon_j += take,
        }
        self.check_energy_death(node);
    }

    /// Schedules the permanent shutdown of `node` if its battery is empty
    /// and its depletion event hasn't been scheduled yet. Depletion is a
    /// crash with no recovery: the `down_depth`/epoch machinery wipes the
    /// node's volatile state, and because no matching up event ever
    /// enters the queue the nesting counter keeps the node silent for the
    /// rest of the run even when a fault-plan outage overlaps.
    pub(crate) fn check_energy_death(&mut self, node: NodeId) {
        if self.energy_j.is_empty() || self.energy_dead[node.0] || self.energy_j[node.0] > 0.0 {
            return;
        }
        self.energy_dead[node.0] = true;
        self.metrics.node_energy.deaths += 1;
        self.stats.registry.inc(self.stats.energy_deaths);
        self.queue.schedule_in(0.0, Event::EnergyDeplete { node });
    }

    /// Central drop bookkeeping: legacy `Metrics.drops` string map, the
    /// typed registry counter, and a trace event, all in one place.
    pub(crate) fn drop_frame(
        &mut self,
        node: NodeId,
        reason: DropReason,
        packet: Option<PacketId>,
    ) {
        self.metrics.record_drop(reason);
        self.stats.registry.inc(self.stats.drops);
        let time = self.queue.now();
        self.tracer.emit_with(|| TraceEvent::Drop {
            time,
            node: node.0 as u64,
            reason: reason.as_str().into(),
            packet: packet.map(|p| p.0),
        });
    }

    /// On a failed unicast attempt: schedule an ARQ retransmission while
    /// the retry budget lasts, otherwise record the drop. With
    /// `arq_max_retries == 0` (the default) this is exactly the old
    /// immediate-drop path.
    #[allow(clippy::too_many_arguments)]
    fn unicast_failed(
        &mut self,
        from: NodeId,
        to: Pseudonym,
        msg: M,
        bytes: usize,
        class: TrafficClass,
        packet: Option<PacketId>,
        attempt: u32,
        reason: DropReason,
    ) {
        let max = self.cfg.mac.arq_max_retries;
        if attempt < max {
            let next = attempt + 1;
            self.stats
                .registry
                .observe(self.stats.link_retries, f64::from(next));
            let now = self.queue.now();
            self.tracer.emit_with(|| TraceEvent::LinkRetry {
                time: now,
                node: from.0 as u64,
                packet: packet.map(|p| p.0),
                attempt: u64::from(next),
            });
            // Binary exponential backoff, exponent capped well below
            // anything that could overflow.
            let delay = self.cfg.mac.arq_backoff_base_s * f64::powi(2.0, attempt.min(16) as i32);
            self.queue.schedule_in(
                delay,
                Event::Retry {
                    from,
                    to,
                    msg,
                    bytes,
                    class,
                    packet,
                    attempt: next,
                },
            );
        } else {
            let final_reason = if max > 0 {
                DropReason::RetryLimitExceeded
            } else {
                reason
            };
            self.drop_frame(from, final_reason, packet);
        }
    }

    /// The channel model: computes airtime, resolves receivers, applies
    /// loss, schedules deliveries and notifies observers. `attempt` is the
    /// ARQ retransmission count of this frame (0 for a fresh send).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn transmit(
        &mut self,
        from: NodeId,
        dest: TxDest,
        msg: M,
        bytes: usize,
        extra_delay: f64,
        class: TrafficClass,
        packet: Option<PacketId>,
        attempt: u32,
    ) {
        let mac = self.cfg.mac;
        let from_pos = self.position(from);
        let contention = self.table_len(from.0) as f64;
        let backoff = if mac.max_backoff_s > 0.0 {
            self.rng.gen_range(0.0..mac.max_backoff_s)
        } else {
            0.0
        };
        let airtime = mac.base_overhead_s
            + backoff
            + contention * mac.contention_per_neighbor_s
            + bytes as f64 * 8.0 / mac.bitrate_bps;
        let mut start = self.queue.now() + extra_delay;
        if mac.serialize_tx {
            // Half-duplex transmitter: wait out our own previous frame.
            start = start.max(self.tx_busy_until[from.0]);
            self.tx_busy_until[from.0] = start + airtime;
        }
        let at = start + airtime;
        let from_pseudonym = self.cur_pseudonyms[from.0];
        self.metrics.energy_tx_j += airtime * self.cfg.energy.tx_watts;
        self.charge_energy(from, airtime * self.cfg.energy.tx_watts, EnergyCause::Tx);
        // A cluster head transmits at boosted power, extending its own
        // range; plain members (and every node of an unmetered run) use
        // the configured radio range unchanged.
        let range_m = if !self.cluster_head.is_empty() && self.cluster_head[from.0] {
            mac.range_m * self.cfg.energy.cluster_head_range_boost
        } else {
            mac.range_m
        };

        let tx_kind = match dest {
            TxDest::Unicast(_) => TxKind::Unicast,
            TxDest::Broadcast => TxKind::Broadcast,
        };
        self.stats.registry.inc(self.stats.tx_frames);
        self.stats.registry.inc(match tx_kind {
            TxKind::Unicast => self.stats.tx_unicast,
            TxKind::Broadcast => self.stats.tx_broadcast,
        });
        self.stats.registry.add(self.stats.tx_bytes, bytes as u64);
        self.stats
            .registry
            .observe(self.stats.mac_backoff_s, backoff);
        let now = self.queue.now();
        self.tracer.emit_with(|| TraceEvent::Tx {
            time: now,
            node: from.0 as u64,
            kind: tx_kind,
            class: class_kind(class),
            bytes: bytes as u64,
            packet: packet.map(|p| p.0),
        });
        if let Some(audit) = self.frame_audit.as_mut() {
            audit(now, from, from_pseudonym, &msg);
        }

        // Overhead accounting by class.
        match class {
            TrafficClass::Data => {}
            TrafficClass::Control => {
                self.metrics.control_frames += 1;
                self.metrics.control_bytes += bytes as u64;
            }
            TrafficClass::ControlHop => {
                self.metrics.control_frames += 1;
                self.metrics.control_bytes += bytes as u64;
                self.metrics.control_hops += 1;
            }
            TrafficClass::Cover => {
                self.metrics.cover_frames += 1;
            }
        }

        // Channel loss in effect right now (base rate unless a fault-plan
        // degradation window is active).
        let loss = self.cfg.faults.effective_loss(mac.loss_probability, now);
        let mut receiver = None;
        match dest {
            TxDest::Unicast(p) => {
                if let Some(&to) = self.pseudonym_map.get(&p) {
                    let in_range = self.position(to).distance(from_pos) <= range_m && to != from;
                    let down = self.is_down(to);
                    let lost = loss > 0.0 && self.rng.gen_range(0.0..1.0) < loss;
                    if !in_range || down || lost {
                        let reason = if !in_range {
                            DropReason::UnicastOutOfRange
                        } else if down {
                            DropReason::ReceiverNodeDown
                        } else {
                            DropReason::UnicastChannelLoss
                        };
                        self.unicast_failed(from, p, msg, bytes, class, packet, attempt, reason);
                    } else {
                        receiver = Some(to);
                        self.metrics.energy_rx_j += airtime * self.cfg.energy.rx_watts;
                        self.charge_energy(to, airtime * self.cfg.energy.rx_watts, EnergyCause::Rx);
                        self.stats.registry.inc(self.stats.rx_frames);
                        self.tracer.emit_with(|| TraceEvent::Rx {
                            time: now,
                            node: to.0 as u64,
                            kind: TxKind::Unicast,
                            bytes: bytes as u64,
                            at,
                        });
                        let mut rx = self.rx_lists.pop().unwrap_or_default();
                        rx.push(to);
                        let frame = Frame {
                            from: from_pseudonym,
                            kind: FrameKind::Unicast,
                            bytes,
                            msg,
                        };
                        self.queue.schedule(at, Event::Deliver { frame, to: rx });
                    }
                } else {
                    self.drop_frame(from, DropReason::UnicastUnknownPseudonym, packet);
                }
            }
            TxDest::Broadcast => {
                let mut rx = self.rx_lists.pop().unwrap_or_default();
                self.grid.for_each_in_range(from_pos, range_m, |id, _| {
                    if id != from.0 {
                        rx.push(NodeId(id));
                    }
                });
                // Grid positions are one mobility tick stale; that models
                // real beacon staleness and keeps the query O(1).
                rx.retain(|&to| {
                    // A crashed receiver hears nothing (and consumes no
                    // loss draw, so runs differ only where the fault does).
                    if self.is_down(to) {
                        return false;
                    }
                    if loss > 0.0 && self.rng.gen_range(0.0..1.0) < loss {
                        return false;
                    }
                    self.metrics.energy_rx_j += airtime * self.cfg.energy.rx_watts;
                    self.charge_energy(to, airtime * self.cfg.energy.rx_watts, EnergyCause::Rx);
                    self.stats.registry.inc(self.stats.rx_frames);
                    self.tracer.emit_with(|| TraceEvent::Rx {
                        time: now,
                        node: to.0 as u64,
                        kind: TxKind::Broadcast,
                        bytes: bytes as u64,
                        at,
                    });
                    true
                });
                if rx.is_empty() {
                    self.rx_lists.push(rx);
                } else {
                    // The survivors' deliveries are consecutive in the
                    // FEL's (time, seq) order — the only event scheduled
                    // meanwhile is an energy depletion at `now < at` — so
                    // one entry for all of them dispatches in exactly the
                    // order one entry per receiver would.
                    let frame = Frame {
                        from: from_pseudonym,
                        kind: FrameKind::Broadcast,
                        bytes,
                        msg,
                    };
                    self.queue.schedule(at, Event::Deliver { frame, to: rx });
                }
            }
        }

        let ev = TxEvent {
            time: self.queue.now(),
            sender: from,
            sender_pos: from_pos,
            receiver,
            bytes,
            class,
            packet,
        };
        for obs in &mut self.observers {
            obs.on_transmission(&ev);
        }
    }

    fn rebuild_grid(&mut self) {
        let positions = self.positions.iter().copied().enumerate();
        self.grid.rebuild(positions);
    }

    /// Refreshes every node's grid position incrementally after a
    /// mobility step. Most nodes stay within their 250 m cell between
    /// ticks, so this is an in-place position overwrite for the common
    /// case; the grid keeps cells id-sorted, making the result
    /// indistinguishable from a full [`WorldCore::rebuild_grid`].
    fn update_grid(&mut self) {
        for i in 0..self.positions.len() {
            self.grid.update_position(i, self.positions[i]);
        }
    }

    /// Hello tick: rotate expired pseudonyms, record what every node's
    /// beacon advertised, rewrite every node's neighbor lists from
    /// current geometry, evict stale entries, and account beacon
    /// overhead. Entries lost to staleness this round are left in
    /// `hello_scratch.lost` for the runtime to deliver to the
    /// `on_neighbor_lost` protocol hook after the tick. No table is
    /// filled in here: [`WorldCore::fill_table`] does that on a node's
    /// first callback after the hello.
    ///
    /// Three phases: a prologue (rotation, election: every RNG draw and
    /// trace event, in id order; then the beacon snapshot), the pure list
    /// rewrite (one cell-order scan, [`SpatialGrid::for_each_heard`],
    /// that sorts each listener's old entries into kept or lost right
    /// after its list is built), and an epilogue (lost entries put in
    /// node-id order, beacon and energy accounting).
    fn hello_tick(&mut self) {
        let now = self.queue.now();
        // Pseudonym rotation first so tables carry fresh pseudonyms. A
        // crashed node's radio is off: it neither rotates nor beacons.
        for i in 0..self.nodes.len() {
            if self.down_depth[i] > 0 {
                continue;
            }
            // At any time node i owns at most {current, previous} keys in
            // the map; capture the key that rotation will age out before
            // `previous` is overwritten.
            let aged_out = self.nodes[i].pseudonyms.previous;
            let maybe_new = self.nodes[i].pseudonyms.maybe_rotate(now, &mut self.rng);
            if let Some(p) = maybe_new {
                self.cur_pseudonyms[i] = p;
                // Drop the mapping older than the grace predecessor — a
                // targeted O(1) removal; the old full-map `retain` scanned
                // every key of every node per rotation. The pre-rotation
                // current (now `previous`) is already mapped.
                if let Some(stale) = aged_out {
                    self.pseudonym_map.remove(&stale);
                }
                self.pseudonym_map.insert(p, NodeId(i));
                self.stats.registry.inc(self.stats.pseudonym_rotations);
                self.tracer.emit_with(|| TraceEvent::PseudonymRotation {
                    time: now,
                    node: i as u64,
                });
            }
        }
        // Energy-aware round setup (metered scenarios only; an unmetered
        // run takes none of these branches and draws no extra RNG, so its
        // event stream is byte-identical to the pre-energy runtime).
        let metered = self.energy_metered();
        if metered {
            let initial = self.cfg.energy.initial_j.unwrap_or(0.0);
            // Nodes below the relay threshold withhold their beacon this
            // round: neighbors stop learning about them, which steers
            // forwarding away from nearly-drained relays.
            let floor = self.cfg.energy.relay_threshold_fraction * initial;
            for i in 0..self.nodes.len() {
                self.low_energy[i] = self.energy_j[i] < floor;
            }
            // Cluster-head election: each live node volunteers with
            // probability `cluster_head_fraction` scaled by its remaining
            // energy fraction, so headship rotates towards well-charged
            // nodes. One RNG draw per live node, in id order.
            if self.cfg.energy.cluster_head_fraction > 0.0 {
                let mut heads = 0u64;
                for i in 0..self.nodes.len() {
                    let mut head = false;
                    if self.down_depth[i] == 0 {
                        let ratio = if initial > 0.0 {
                            (self.energy_j[i] / initial).clamp(0.0, 1.0)
                        } else {
                            0.0
                        };
                        let p = self.cfg.energy.cluster_head_fraction * ratio;
                        head = self.rng.gen_range(0.0..1.0) < p;
                    }
                    self.cluster_head[i] = head;
                    heads += u64::from(head);
                }
                self.stats.registry.add(self.stats.cluster_heads, heads);
            }
        }
        let (range, staleness) = self.table_limits();
        let scratch = &mut self.hello_scratch;
        std::mem::swap(&mut scratch.beacons, &mut scratch.prev_beacons);
        scratch.beacons.at = now;
        scratch.beacons.rows.clear();
        scratch.beacons.rows.extend(
            self.cur_pseudonyms
                .iter()
                .copied()
                .zip(self.positions.iter().copied()),
        );
        self.table_filled.fill(false);
        std::mem::swap(&mut self.heard, &mut scratch.prev_heard);
        // A node down at this hello is no listener: its span stays empty.
        self.heard.spans.fill((0, 0));
        let n = self.nodes.len();
        if scratch.stamps.len() < n {
            scratch.stamps.resize(n, 0);
        }
        let down_depth = &self.down_depth;
        let low_energy = &self.low_energy;
        // Live nodes listen. Those that beacon are heard, unless the
        // meter has them withhold their beacon this round.
        self.grid.pack(&mut scratch.cells, |id| {
            down_depth[id] == 0 && !(metered && low_energy[id])
        });
        let HelloScratch {
            prev_beacons,
            prev_heard,
            cells,
            stamps,
            round,
            kept,
            lost_cells,
            lost_runs,
            ..
        } = scratch;
        lost_cells.clear();
        lost_runs.clear();
        let HeardLists { ids, spans } = &mut self.heard;
        let survivors = &mut self.survivors;
        self.grid.for_each_heard(
            cells,
            range,
            |id| down_depth[id] == 0,
            ids,
            |i, at, heard| {
                // A list is at most every node, and node counts fit a u32
                // (checked at construction); the offset is checked.
                let at = u32::try_from(at).expect("a hello's heard lists fit u32 offsets");
                spans[i] = (at, heard.len() as u32);
                *round += 1;
                let round = *round;
                for &id in heard {
                    stamps[id as usize] = round;
                }
                // Entries not re-heard this round survive until they age
                // out; the node id identifies "the same neighbor" across
                // pseudonym rotations. The old table is the old heard
                // ids, then the old survivors, so this keeps its order.
                kept.clear();
                let lost_at = lost_cells.len();
                let mut sort_out = |id: u32, e: NeighborEntry| {
                    if now - e.heard_at < staleness {
                        kept.push((id, e));
                    } else {
                        lost_cells.push(e);
                    }
                };
                for &id in prev_heard.of(i) {
                    if stamps[id as usize] != round {
                        sort_out(id, prev_beacons.entry(id));
                    }
                }
                for &(id, e) in &survivors[i] {
                    if stamps[id as usize] != round {
                        sort_out(id, e);
                    }
                }
                survivors[i].clear();
                survivors[i].extend_from_slice(kept);
                if lost_cells.len() > lost_at {
                    lost_runs.push((i, lost_at..lost_cells.len()));
                }
            },
        );
        // The sweep met the nodes in cell order; hand their lost entries
        // on in node-id order, each node's in its old table's order. Each
        // node has at most one run, so the unstable sort is deterministic
        // (and, unlike a stable one, needs no buffer).
        lost_runs.sort_unstable_by_key(|(node, _)| *node);
        scratch.lost.clear();
        for (node, run) in &scratch.lost_runs {
            let node = NodeId(*node);
            let run = &scratch.lost_cells[run.clone()];
            scratch.lost.extend(run.iter().map(|&e| (node, e)));
        }
        // Each beaconing node broadcast one beacon this interval; charge
        // the beacon airtime (tx once per node, rx once per table entry).
        // Under the meter, a node below the relay threshold withheld its
        // beacon and is excluded from the beacon accounting: the beaconing
        // nodes are the ones packed for the sweep.
        let beaconing = scratch.cells.len();
        self.metrics.control_frames += beaconing as u64;
        self.metrics.control_bytes += (beaconing * HELLO_BYTES) as u64;
        let beacon_airtime =
            self.cfg.mac.base_overhead_s + HELLO_BYTES as f64 * 8.0 / self.cfg.mac.bitrate_bps;
        let entries: usize = (0..n).map(|i| self.table_len(i)).sum();
        self.metrics.energy_tx_j += beacon_airtime * self.cfg.energy.tx_watts * beaconing as f64;
        self.metrics.energy_rx_j += beacon_airtime * self.cfg.energy.rx_watts * entries as f64;
        if metered {
            // Per-node meter: beacon tx for nodes that beaconed, beacon rx
            // per heard table entry, and the idle floor over the interval.
            // These drains can empty a battery and schedule its depletion.
            let idle_j = self.cfg.energy.idle_watts * self.cfg.hello_interval_s;
            let tx_j = beacon_airtime * self.cfg.energy.tx_watts;
            let rx_unit = beacon_airtime * self.cfg.energy.rx_watts;
            for i in 0..self.nodes.len() {
                if self.down_depth[i] > 0 {
                    continue;
                }
                if !self.low_energy[i] {
                    self.charge_energy(NodeId(i), tx_j, EnergyCause::Beacon);
                }
                let heard = self.table_len(i) as f64;
                self.charge_energy(NodeId(i), rx_unit * heard, EnergyCause::Beacon);
                if idle_j > 0.0 {
                    self.charge_energy(NodeId(i), idle_j, EnergyCause::Idle);
                }
            }
        }
    }

    /// The neighbor-table eligibility radius and the age past which an
    /// entry not re-heard is lost.
    pub(crate) fn table_limits(&self) -> (f64, f64) {
        // Eligibility margin: a link is only advertised if it stays within
        // radio range until the next hello even when both endpoints move
        // apart at full speed. This models the link-quality filtering
        // every practical beacon protocol applies and avoids committing
        // unicasts to edge-of-range neighbors.
        // No beacon is heard past the radio range, which is also the
        // grid's cell, as the hello sweep needs (`for_each_heard`); only
        // a negative speed would take the margin above it.
        let range = (self.cfg.mac.range_m - 2.0 * self.cfg.speed * self.cfg.hello_interval_s)
            .max(self.cfg.mac.range_m * 0.5)
            .min(self.cfg.mac.range_m);
        // An entry survives `k` missed hellos (k = neighbor_staleness
        // factor); the half-interval tolerance keeps the comparison robust
        // to float accumulation, and with the default k = 1 reproduces the
        // historical vanish-at-first-missed-hello semantics exactly.
        let staleness =
            (self.cfg.neighbor_staleness_factor - 0.5).max(0.0) * self.cfg.hello_interval_s;
        (range, staleness)
    }

    fn location_tick(&mut self) {
        let now = self.queue.now();
        for i in 0..self.nodes.len() {
            let pos = self.positions[i];
            let key = self.public_keys[i];
            let pseudo = self.cur_pseudonyms[i];
            self.location.update(NodeId(i), pos, key, pseudo, now);
        }
        self.metrics.location_messages = self.location.messages;
    }
}

/// The profile map [`RunProfile`] carries: one owned key per slot that
/// was used, named by `names`.
fn owned_keys(
    names: &[&str],
    slots: &[CallbackProfile],
) -> std::collections::BTreeMap<String, CallbackProfile> {
    names
        .iter()
        .zip(slots)
        .filter(|(_, slot)| slot.count > 0)
        .map(|(name, slot)| ((*name).to_owned(), *slot))
        .collect()
}

/// Adds `n` events, which took the wall time since `start`, to `slot`;
/// returns that time in seconds.
fn charge(slot: &mut CallbackProfile, n: u64, start: std::time::Instant) -> f64 {
    let dt = start.elapsed().as_secs_f64();
    slot.count += n;
    slot.seconds += dt;
    dt
}

/// Periodic registry sampling state ([`World::enable_metrics_timeseries`]).
/// Lives outside [`WorldCore`] so the dispatch loop's disabled-path cost
/// is a single `Option` branch: no allocation, no RNG draw, no snapshot.
struct TimeseriesSampler {
    /// Next window boundary to sample, simulated seconds.
    next_t: f64,
    series: MetricsTimeseries,
}

/// The simulation world, generic over the routing protocol.
pub struct World<P: ProtocolNode> {
    core: WorldCore<P::Msg>,
    protos: Vec<P>,
    started_sessions: Vec<bool>,
    /// Logical events dispatched so far ([`World::events_dispatched`]).
    events_dispatched: u64,
    /// Logical events dispatched in a row at the current instant,
    /// counting the one being admitted — the livelock watchdog's
    /// progress signal, kept only on runs that set
    /// `RunBudget::max_events_per_instant`.
    instant_streak: u64,
    profile_enabled: bool,
    /// Wall-clock seconds the constructor took ([`RunProfile::setup_s`]).
    setup_s: f64,
    profile_wall_s: f64,
    /// Per-event-class accounting ([`RunProfile::callbacks`]), one fixed
    /// slot per [`EVENT_CLASSES`] entry, filled only when profiling is
    /// enabled. An event costs an array index, no lookup and no
    /// allocation; [`World::run_profile`] builds the owned keys.
    profile_callbacks: [CallbackProfile; EVENT_CLASSES.len()],
    /// Per-protocol-callback span accounting ([`RunProfile::spans`]), one
    /// slot per [`SPANS`] entry, filled only when profiling is enabled.
    profile_spans: [CallbackProfile; SPANS.len()],
    /// Periodic registry sampler; `None` (the default) costs one branch
    /// per dispatched event and nothing else.
    sampler: Option<TimeseriesSampler>,
    /// Whether the deferred `on_start` sweep has run. Startup hooks fire
    /// on first entry into the run loop — not at construction — so frames
    /// a protocol transmits in `on_start` are visible to trace sinks,
    /// observers, and frame audits attached between `try_new` and the
    /// first run call (otherwise the registry counts frames no trace ever
    /// sees, breaking registry == trace accounting).
    started: bool,
    /// Wall-clock anchor for `RunBudget::max_wall_seconds`, captured on
    /// first entry into the run loop of a budgeted run.
    wall_start: Option<std::time::Instant>,
    /// Set once a guardrail has aborted this run; the world refuses no
    /// further queries, but the dispatch loop will not resume.
    aborted: Option<RunAbort>,
}

impl<P: ProtocolNode> World<P> {
    /// Builds a world from a scenario and seed; `factory(id)` constructs
    /// the protocol instance for each node.
    ///
    /// # Panics
    /// Panics when the scenario fails [`ScenarioConfig::validate`].
    pub fn new(
        cfg: ScenarioConfig,
        seed: u64,
        factory: impl FnMut(NodeId, &ScenarioConfig) -> P,
    ) -> Self {
        match Self::try_new(cfg, seed, factory) {
            Ok(w) => w,
            Err(e) => panic!("invalid scenario: {e}"),
        }
    }

    /// Non-panicking constructor: returns the validation error instead.
    pub fn try_new(
        cfg: ScenarioConfig,
        seed: u64,
        factory: impl FnMut(NodeId, &ScenarioConfig) -> P,
    ) -> Result<Self, ScenarioError> {
        let setup_start = std::time::Instant::now();
        cfg.validate()?;
        let field = cfg.field();
        let mut mobility: Box<dyn Mobility> = match cfg.mobility {
            MobilityKind::RandomWaypoint => Box::new(RandomWaypoint::new(
                field,
                RandomWaypointConfig::fixed_speed(cfg.nodes, cfg.speed),
                seed ^ 0x0B0B_5EED,
            )),
            MobilityKind::Group { groups, range } => Box::new(GroupMobility::new(
                field,
                GroupMobilityConfig::paper(cfg.nodes, groups, range, cfg.speed),
                seed ^ 0x0B0B_5EED,
            )),
            MobilityKind::ManhattanGrid {
                h_streets,
                v_streets,
                turn_prob,
                speed_classes,
            } => Box::new(ManhattanGrid::new(
                field,
                ManhattanConfig {
                    nodes: cfg.nodes,
                    h_streets,
                    v_streets,
                    turn_prob,
                    speed: cfg.speed,
                    speed_classes,
                },
                seed ^ 0x0B0B_5EED,
            )),
            MobilityKind::Static => {
                Box::new(StaticField::uniform(field, cfg.nodes, seed ^ 0x0B0B_5EED))
            }
        };
        // Placement strategies (convoy, small teams) override the model's
        // random initial positions. `place` draws nothing from the model
        // RNG, so the movement draw stream is unchanged; street-bound
        // models snap the requested points to their nearest legal spot.
        if let Some(points) = cfg.placement.positions(field, cfg.nodes, seed) {
            mobility.place(&points);
        }
        Self::with_mobility(cfg, seed, mobility, None, factory, setup_start)
    }

    /// Builds a world over an explicit static topology with explicit
    /// sessions — the researcher's API for crafted-geometry experiments
    /// (voids, corridors, adversarial placements). `cfg.nodes` is
    /// overridden by `positions.len()`; `cfg.mobility` is ignored.
    ///
    /// # Panics
    /// Panics when the derived scenario fails validation; see
    /// [`World::try_with_topology`] for the fallible variant.
    pub fn with_topology(
        cfg: ScenarioConfig,
        seed: u64,
        positions: Vec<Point>,
        sessions: Vec<Session>,
        factory: impl FnMut(NodeId, &ScenarioConfig) -> P,
    ) -> Self {
        match Self::try_with_topology(cfg, seed, positions, sessions, factory) {
            Ok(w) => w,
            Err(e) => panic!("invalid scenario: {e}"),
        }
    }

    /// Non-panicking [`World::with_topology`]: returns the validation
    /// error (including out-of-range session endpoints) instead.
    pub fn try_with_topology(
        mut cfg: ScenarioConfig,
        seed: u64,
        positions: Vec<Point>,
        sessions: Vec<Session>,
        factory: impl FnMut(NodeId, &ScenarioConfig) -> P,
    ) -> Result<Self, ScenarioError> {
        let setup_start = std::time::Instant::now();
        cfg.nodes = positions.len();
        cfg.mobility = MobilityKind::Static;
        cfg.traffic.pairs = sessions.len();
        let field = cfg.field();
        let mobility: Box<dyn Mobility> = Box::new(StaticField::at(field, positions));
        Self::with_mobility(cfg, seed, mobility, Some(sessions), factory, setup_start)
    }

    fn with_mobility(
        cfg: ScenarioConfig,
        seed: u64,
        mobility: Box<dyn Mobility>,
        sessions_override: Option<Vec<Session>>,
        mut factory: impl FnMut(NodeId, &ScenarioConfig) -> P,
        setup_start: std::time::Instant,
    ) -> Result<Self, ScenarioError> {
        cfg.validate()?;
        if let Some(s) = &sessions_override {
            if let Some(bad) = s
                .iter()
                .flat_map(|x| [x.src.0, x.dst.0])
                .find(|&n| n >= cfg.nodes)
            {
                return Err(ScenarioError::SessionEndpointOutOfRange {
                    node: bad,
                    nodes: cfg.nodes,
                });
            }
        }
        // The hello sweep stores neighbor ids as u32.
        assert!(
            u32::try_from(cfg.nodes).is_ok(),
            "{} nodes exceed the u32 node-id space",
            cfg.nodes
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_A1E7);

        let mut nodes = Vec::with_capacity(cfg.nodes);
        let mut pseudonym_map = HashMap::with_capacity(cfg.nodes * 2);
        let mut cur_pseudonyms = Vec::with_capacity(cfg.nodes);
        let mut public_keys = Vec::with_capacity(cfg.nodes);
        for i in 0..cfg.nodes {
            let keypair = KeyPair::generate(&mut rng);
            let generator = PseudonymGenerator::new(
                MacAddress::from_index(i as u64),
                cfg.pseudonym_lifetime_s,
                0.0,
                &mut rng,
            );
            let history = PseudonymHistory::new(generator);
            pseudonym_map.insert(history.current(), NodeId(i));
            cur_pseudonyms.push(history.current());
            public_keys.push(keypair.public);
            nodes.push(NodeInfo {
                keypair,
                pseudonyms: history,
                neighbors: Vec::new(),
            });
        }

        // Random distinct S-D pairs, unless explicit sessions were given.
        let sessions: Vec<Session> = match sessions_override {
            Some(s) => s,
            None => {
                let mut ids: Vec<usize> = (0..cfg.nodes).collect();
                for i in (1..ids.len()).rev() {
                    let j = rng.gen_range(0..=i);
                    ids.swap(i, j);
                }
                (0..cfg.traffic.pairs)
                    .map(|p| Session {
                        src: NodeId(ids[2 * p]),
                        dst: NodeId(ids[2 * p + 1]),
                    })
                    .collect()
            }
        };

        // Energy vectors are sized only for metered scenarios; an empty
        // `energy_j` is the runtime's "no meter" signal.
        let metered_nodes = if cfg.energy.metered() { cfg.nodes } else { 0 };
        let mut core = WorldCore {
            grid: SpatialGrid::new(cfg.field(), cfg.mac.range_m),
            location: LocationService::new(cfg.nodes, cfg.location),
            queue: EventQueue::new(),
            mobility,
            nodes,
            pseudonym_map,
            sessions,
            metrics: Metrics::default(),
            rng,
            observers: Vec::new(),
            frame_audit: None,
            tracer: Tracer::disabled(),
            stats: SimStats::new(),
            down_depth: vec![0; cfg.nodes],
            epochs: vec![0; cfg.nodes],
            region_victims: vec![Vec::new(); cfg.faults.regional_outages.len()],
            hello_scratch: HelloScratch {
                prev_heard: HeardLists::new(cfg.nodes),
                ..HelloScratch::default()
            },
            heard: HeardLists::new(cfg.nodes),
            survivors: vec![Vec::new(); cfg.nodes],
            table_filled: vec![false; cfg.nodes],
            rx_lists: Vec::new(),
            positions: vec![Point::default(); cfg.nodes],
            tx_busy_until: vec![0.0; cfg.nodes],
            cur_pseudonyms,
            public_keys,
            energy_j: vec![cfg.energy.initial_j.unwrap_or(0.0); metered_nodes],
            energy_dead: vec![false; metered_nodes],
            cluster_head: vec![false; metered_nodes],
            low_energy: vec![false; metered_nodes],
            cfg,
        };
        core.refresh_positions();
        core.rebuild_grid();
        core.hello_tick();
        core.location_tick();
        // Nodes that start with an empty battery (or drained it on the
        // construction beacon round) die at t = 0. Their depletion events
        // enter the queue here — before the fault schedule and any traffic
        // — so the FIFO tie-break dispatches energy deaths first at t = 0.
        if core.energy_metered() {
            for i in 0..core.cfg.nodes {
                core.check_energy_death(NodeId(i));
            }
        }

        // Periodic machinery.
        let cfg = &core.cfg;
        core.queue
            .schedule(cfg.mobility_tick_s, Event::MobilityTick);
        core.queue.schedule(cfg.hello_interval_s, Event::HelloTick);
        let loc_interval = match cfg.location {
            LocationPolicy::Periodic { interval_s } => interval_s,
            LocationPolicy::SessionStart => 1.0,
        };
        core.queue.schedule(loc_interval, Event::LocationTick);
        // Fault schedule. Only touched for a non-empty plan, so the
        // default scenario's event stream is byte-identical to a world
        // without fault support. These are enqueued before any traffic,
        // so at equal timestamps the FIFO tie-break dispatches a crash
        // before a same-time delivery: a down node participates in no
        // packet between its NodeDown and NodeUp events.
        if !cfg.faults.is_empty() {
            for c in &cfg.faults.crashes {
                core.queue.schedule(
                    c.at_s,
                    Event::NodeDown {
                        node: NodeId(c.node),
                    },
                );
                if let Some(up) = c.recover_s {
                    core.queue.schedule(
                        up,
                        Event::NodeUp {
                            node: NodeId(c.node),
                        },
                    );
                }
            }
            for (i, r) in cfg.faults.regional_outages.iter().enumerate() {
                core.queue
                    .schedule(r.start_s, Event::RegionOutage { index: i });
                core.queue
                    .schedule(r.end_s, Event::RegionRecover { index: i });
            }
        }
        for (s, _) in core.sessions.iter().enumerate() {
            // Small deterministic stagger decorrelates the pairs.
            let start = cfg.traffic.start_s + s as f64 * 0.037;
            core.queue.schedule(
                start,
                Event::AppSend {
                    session: SessionId(s as u32),
                    seq: 0,
                },
            );
        }

        let protos: Vec<P> = (0..core.cfg.nodes)
            .map(|i| factory(NodeId(i), &core.cfg))
            .collect();
        let started_sessions = vec![false; core.sessions.len()];
        let world = World {
            core,
            protos,
            started_sessions,
            events_dispatched: 0,
            instant_streak: 0,
            profile_enabled: false,
            setup_s: setup_start.elapsed().as_secs_f64(),
            profile_wall_s: 0.0,
            profile_callbacks: [CallbackProfile::default(); EVENT_CLASSES.len()],
            profile_spans: [CallbackProfile::default(); SPANS.len()],
            sampler: None,
            started: false,
            wall_start: None,
            aborted: None,
        };
        Ok(world)
    }

    /// Registers a channel observer (adversary analyzers).
    pub fn add_observer(&mut self, obs: Box<dyn Observer>) {
        self.core.observers.push(obs);
    }

    /// Removes and returns all observers (to inspect after a run).
    pub fn take_observers(&mut self) -> Vec<Box<dyn Observer>> {
        std::mem::take(&mut self.core.observers)
    }

    /// Installs the frame-audit hook (see [`FrameAudit`]). Auditing draws
    /// no randomness and emits no trace events, so an audited run stays
    /// byte-identical to an unaudited one.
    pub fn set_frame_audit(&mut self, audit: FrameAudit<P::Msg>) {
        self.core.frame_audit = Some(audit);
    }

    /// Removes the frame-audit hook, returning it if one was installed.
    pub fn take_frame_audit(&mut self) -> Option<FrameAudit<P::Msg>> {
        self.core.frame_audit.take()
    }

    /// Runs a protocol callback on `node`'s protocol, lent in place, with
    /// the world borrowed through [`Api`]. `protos` and `core` are
    /// disjoint fields and `Api` holds only the core, so a callback cannot
    /// reach any protocol, its own included. The node's neighbor table is
    /// filled in first, outside the span, so its cost goes to the event
    /// class that made the call. `span` is the callback's slot in
    /// [`SPANS`]; timing happens only when profiling is enabled, so
    /// unprofiled runs pay nothing for it.
    fn with_proto(
        &mut self,
        node: NodeId,
        span: usize,
        f: impl FnOnce(&mut P, &mut Api<'_, P::Msg>),
    ) {
        self.core.fill_table(node.0);
        let proto = &mut self.protos[node.0];
        let mut api = Api {
            core: &mut self.core,
            node,
            pending_delay: 0.0,
        };
        if self.profile_enabled {
            let start = std::time::Instant::now();
            f(proto, &mut api);
            charge(&mut self.profile_spans[span], 1, start);
        } else {
            f(proto, &mut api);
        }
    }

    /// Hands `frame` to `to`'s protocol: the one per-receiver delivery
    /// step, for unicast and broadcast frames alike.
    fn deliver(&mut self, to: NodeId, frame: Frame<P::Msg>) {
        if self.core.is_down(to) {
            // Crashed after the frame hit its radio but before the
            // propagation delay elapsed.
            self.core.drop_frame(to, DropReason::ReceiverNodeDown, None);
            return;
        }
        self.with_proto(to, ON_FRAME, |p, api| p.on_frame(api, frame));
    }

    /// Delivers `frame` to each node of `to`, in list order, as one
    /// logical event per receiver. The first receiver was admitted before
    /// the FEL pop; each further one is admitted here at the same instant,
    /// so every guardrail trips at exactly the receiver it would if each
    /// receiver were its own FEL entry. The last receiver takes the frame
    /// by move. When profiling, the whole list is one timed span that
    /// counts one `deliver` event per receiver delivered, so a list a
    /// guardrail cuts short counts only the receivers it reached.
    fn deliver_all(
        &mut self,
        budget: Option<&RunBudget>,
        frame: Frame<P::Msg>,
        to: &[NodeId],
    ) -> Result<(), RunAbort> {
        let start = self.profile_enabled.then(std::time::Instant::now);
        let at = self.core.queue.now();
        let (&last, rest) = to.split_last().expect("a delivery has a receiver");
        let mut delivered = 0;
        let admitted = 'list: {
            for &node in rest {
                self.deliver(node, frame.clone());
                delivered += 1;
                if let Err(abort) = self.admit(budget, at) {
                    break 'list Err(abort);
                }
            }
            self.deliver(last, frame);
            delivered += 1;
            Ok(())
        };
        if let Some(start) = start {
            self.profile_wall_s += charge(&mut self.profile_callbacks[DELIVER], delivered, start);
        }
        admitted
    }

    fn dispatch(&mut self, event: Event<P::Msg>) {
        match event {
            Event::Deliver { .. } => unreachable!("deliveries go through deliver_all"),
            Event::Timer { node, token, epoch } => {
                if self.core.is_down(node) || self.core.epochs[node.0] != epoch {
                    // Stale timer from a crashed node or a pre-crash
                    // incarnation: swallowed silently (no counter, no
                    // trace) so trace and registry stay in agreement.
                    return;
                }
                self.core.stats.registry.inc(self.core.stats.timer_fired);
                let now = self.core.queue.now();
                self.core.tracer.emit_with(|| TraceEvent::TimerFire {
                    time: now,
                    node: node.0 as u64,
                    token,
                });
                self.with_proto(node, ON_TIMER, |p, api| p.on_timer(api, token));
            }
            Event::AppSend { session, seq } => {
                let s = self.core.sessions[session.0 as usize];
                let now = self.core.queue.now();
                // Under the no-update condition, the destination's served
                // position freezes when its session first sends.
                if !self.started_sessions[session.0 as usize] {
                    self.started_sessions[session.0 as usize] = true;
                    if self.core.cfg.location == LocationPolicy::SessionStart {
                        self.core.location.freeze(s.dst);
                    }
                }
                let bytes = self.core.cfg.traffic.packet_bytes;
                let pkt = self
                    .core
                    .metrics
                    .register_packet(session, seq, s.src, s.dst, now, bytes);
                self.core.stats.registry.inc(self.core.stats.app_packets);
                self.core.tracer.emit_with(|| TraceEvent::AppSend {
                    time: now,
                    packet: pkt.0,
                    session: u64::from(session.0),
                    seq: u64::from(seq),
                    src: s.src.0 as u64,
                    dst: s.dst.0 as u64,
                });
                let req = DataRequest {
                    packet: pkt,
                    session,
                    seq,
                    dst: s.dst,
                    bytes,
                };
                if self.core.is_down(s.src) {
                    // The application layer still generates the packet (it
                    // counts against delivery), but a crashed source can't
                    // put it on the air.
                    self.core
                        .drop_frame(s.src, DropReason::SourceNodeDown, Some(pkt));
                } else {
                    self.with_proto(s.src, ON_DATA_REQUEST, |p, api| {
                        p.on_data_request(api, &req)
                    });
                }
                let next = now + self.core.cfg.traffic.interval_s;
                if next < self.core.cfg.duration_s {
                    self.core.queue.schedule(
                        next,
                        Event::AppSend {
                            session,
                            seq: seq + 1,
                        },
                    );
                }
            }
            Event::MobilityTick => {
                self.emit_tick(TickKind::Mobility);
                let dt = self.core.cfg.mobility_tick_s;
                self.core.mobility.step(dt);
                self.core.refresh_positions();
                self.core.update_grid();
                if self.core.queue.now() + dt <= self.core.cfg.duration_s {
                    self.core.queue.schedule_in(dt, Event::MobilityTick);
                }
            }
            Event::HelloTick => {
                self.emit_tick(TickKind::Hello);
                self.core.hello_tick();
                // Take the lost list out (the hook needs `&mut self`) and
                // hand the buffer back afterwards, capacity intact.
                let mut lost = std::mem::take(&mut self.core.hello_scratch.lost);
                for (node, entry) in &lost {
                    self.with_proto(*node, ON_NEIGHBOR_LOST, |p, api| {
                        p.on_neighbor_lost(api, entry)
                    });
                }
                lost.clear();
                self.core.hello_scratch.lost = lost;
                let dt = self.core.cfg.hello_interval_s;
                if self.core.queue.now() + dt <= self.core.cfg.duration_s {
                    self.core.queue.schedule_in(dt, Event::HelloTick);
                }
            }
            Event::LocationTick => {
                self.emit_tick(TickKind::Location);
                self.core.location_tick();
                let dt = match self.core.cfg.location {
                    LocationPolicy::Periodic { interval_s } => interval_s,
                    LocationPolicy::SessionStart => 1.0,
                };
                if self.core.queue.now() + dt <= self.core.cfg.duration_s {
                    self.core.queue.schedule_in(dt, Event::LocationTick);
                }
            }
            Event::NodeDown { node } => {
                self.apply_node_down(node);
            }
            Event::NodeUp { node } => {
                self.apply_node_up(node);
            }
            Event::RegionOutage { index } => {
                // Resolve victims from the geometry at outage start.
                let r = self.core.cfg.faults.regional_outages[index];
                let rect = Rect::new(Point::new(r.x, r.y), Point::new(r.x + r.w, r.y + r.h));
                let victims: Vec<NodeId> = (0..self.core.cfg.nodes)
                    .map(NodeId)
                    .filter(|&n| rect.contains(self.core.position(n)))
                    .collect();
                for &n in &victims {
                    self.apply_node_down(n);
                }
                self.core.region_victims[index] = victims;
            }
            Event::RegionRecover { index } => {
                let victims = std::mem::take(&mut self.core.region_victims[index]);
                for n in victims {
                    self.apply_node_up(n);
                }
            }
            Event::EnergyDeplete { node } => {
                // Battery exhausted: a crash with no recovery. Nesting
                // through `down_depth` keeps overlap with fault-plan
                // outages correct — a later fault recovery shallows the
                // outage but cannot revive a drained node.
                self.apply_node_down(node);
            }
            Event::Retry {
                from,
                to,
                msg,
                bytes,
                class,
                packet,
                attempt,
            } => {
                if self.core.is_down(from) {
                    // The sender crashed while the frame sat in its
                    // retransmit queue; the queue died with it.
                    self.core
                        .drop_frame(from, DropReason::Protocol("arq_sender_down"), packet);
                } else {
                    self.core.transmit(
                        from,
                        TxDest::Unicast(to),
                        msg,
                        bytes,
                        0.0,
                        class,
                        packet,
                        attempt,
                    );
                }
            }
        }
    }

    /// Crashes `node` (or deepens an existing outage). Only the 0→1 depth
    /// transition is observable: counters, trace, and state wipe.
    fn apply_node_down(&mut self, node: NodeId) {
        self.core.down_depth[node.0] += 1;
        if self.core.down_depth[node.0] != 1 {
            return;
        }
        self.core.stats.registry.inc(self.core.stats.node_downs);
        let now = self.core.queue.now();
        self.core.tracer.emit_with(|| TraceEvent::NodeDown {
            time: now,
            node: node.0 as u64,
        });
        // Volatile runtime state dies with the node; its table fills in
        // empty.
        self.core.heard.clear(node.0);
        self.core.survivors[node.0].clear();
        self.core.table_filled[node.0] = false;
        self.core.tx_busy_until[node.0] = 0.0;
    }

    /// Recovers `node` (or shallows an outage). Only the 1→0 transition is
    /// observable: the node rejoins with a wiped neighbor table, a new
    /// incarnation (so pre-crash timers stay dead), and a restarted
    /// protocol (`on_start` re-runs on the retained instance — a warm
    /// reboot).
    fn apply_node_up(&mut self, node: NodeId) {
        let depth = &mut self.core.down_depth[node.0];
        *depth = depth.saturating_sub(1);
        if *depth != 0 {
            return;
        }
        self.core.stats.registry.inc(self.core.stats.node_ups);
        let now = self.core.queue.now();
        self.core.tracer.emit_with(|| TraceEvent::NodeUp {
            time: now,
            node: node.0 as u64,
        });
        self.core.epochs[node.0] = self.core.epochs[node.0].wrapping_add(1);
        self.with_proto(node, ON_START, |p, api| p.on_start(api));
    }

    fn emit_tick(&mut self, kind: TickKind) {
        let time = self.core.queue.now();
        self.core
            .tracer
            .emit_with(|| TraceEvent::Tick { time, kind });
    }

    /// The per-event prologue, run once per logical event before it is
    /// dispatched at time `next`: the guardrails of `budget` (`None` on
    /// an unbudgeted run) and the dispatch count. A logical event is one
    /// FEL entry, except that a delivery entry is one per receiver. On a
    /// guardrail trip it records the abort and returns it.
    fn admit(&mut self, budget: Option<&RunBudget>, next: f64) -> Result<(), RunAbort> {
        if let Some(budget) = budget {
            if let Err(abort) = self.check_budget(budget, next) {
                self.abort_run(&abort);
                return Err(abort);
            }
        }
        self.events_dispatched += 1;
        Ok(())
    }

    /// Runs `f`, the dispatch of one logical event of class `class` (a
    /// slot of [`EVENT_CLASSES`]), timing it into [`RunProfile::callbacks`]
    /// when profiling is on.
    fn profiled(&mut self, class: usize, f: impl FnOnce(&mut Self)) {
        if self.profile_enabled {
            let start = std::time::Instant::now();
            f(self);
            self.profile_wall_s += charge(&mut self.profile_callbacks[class], 1, start);
        } else {
            f(self);
        }
    }

    /// Checks the event, sim-time, wall-clock and livelock budgets before
    /// the next logical event (at time `next`) is dispatched.
    fn check_budget(&mut self, budget: &RunBudget, next: f64) -> Result<(), RunAbort> {
        if let Some(max) = budget.max_events {
            if self.events_dispatched >= max {
                return Err(RunAbort::EventBudgetExhausted {
                    budget: max,
                    time: self.core.queue.now(),
                });
            }
        }
        if let Some(cap) = budget.max_sim_seconds {
            if next > cap {
                return Err(RunAbort::SimTimeBudgetExhausted {
                    budget_s: cap,
                    time: self.core.queue.now(),
                });
            }
        }
        if let Some(cap) = budget.max_wall_seconds {
            // Amortized: Instant::now() is syscall-backed, so only probe
            // every WALL_CHECK_INTERVAL events.
            if self.events_dispatched.is_multiple_of(WALL_CHECK_INTERVAL) {
                if let Some(start) = self.wall_start {
                    if start.elapsed().as_secs_f64() > cap {
                        return Err(RunAbort::WallClockExceeded {
                            budget_s: cap,
                            time: self.core.queue.now(),
                        });
                    }
                }
            }
        }
        if let Some(max) = budget.max_events_per_instant {
            self.instant_streak = if next == self.core.queue.now() && self.instant_streak > 0 {
                self.instant_streak + 1
            } else {
                1
            };
            if self.instant_streak > max {
                return Err(RunAbort::Livelock {
                    events_at_instant: self.instant_streak,
                    time: next,
                });
            }
        }
        Ok(())
    }

    /// Records an abort: sticky state, the `run.aborts` counter, and the
    /// trailing `TraceEvent::RunAborted` (flushed, so a truncated trace
    /// still carries its own explanation).
    fn abort_run(&mut self, abort: &RunAbort) {
        self.aborted = Some(abort.clone());
        self.core.stats.registry.inc(self.core.stats.run_aborts);
        let time = self.core.queue.now();
        let events = self.events_dispatched;
        let reason = abort.reason();
        self.core.tracer.emit_with(|| TraceEvent::RunAborted {
            time,
            reason: reason.to_owned(),
            events,
        });
        self.core.tracer.flush();
    }

    /// Processes events up to simulated time `t` (capped at the scenario
    /// duration plus a grace second for in-flight frames), enforcing the
    /// scenario's [`RunBudget`]. Returns `Ok(false)` when the event queue
    /// has drained, `Ok(true)` when `t` was reached first, and
    /// `Err(RunAbort)` when a guardrail tripped (the abort is also
    /// recorded in the trace, the `run.aborts` counter, and
    /// [`World::aborted`]). Budget checks never touch the RNG, so a
    /// budgeted run's trace is a prefix of the unbudgeted run's trace
    /// (plus the final `run_aborted` record).
    pub fn try_run_until(&mut self, t: f64) -> Result<bool, RunAbort> {
        if let Some(abort) = &self.aborted {
            return Err(abort.clone());
        }
        if !self.started {
            // Deferred startup sweep: runs before the first event is
            // dispatched (so the RNG stream matches a construction-time
            // sweep) but after the caller had a chance to attach sinks,
            // observers, and audits — startup-frame traffic is traced.
            // The profiler charges the sweep, first table fills included,
            // to the `start` class; it dispatches no event.
            self.started = true;
            let start = self.profile_enabled.then(std::time::Instant::now);
            for i in 0..self.core.cfg.nodes {
                self.with_proto(NodeId(i), ON_START, |p, api| p.on_start(api));
            }
            if let Some(start) = start {
                self.profile_wall_s += charge(&mut self.profile_callbacks[START], 1, start);
            }
        }
        let horizon = t.min(self.core.cfg.duration_s + 1.0);
        let budget = self.core.cfg.budget;
        let guard = (!budget.is_unlimited()).then_some(&budget);
        if guard.is_some() && self.wall_start.is_none() {
            self.wall_start = Some(std::time::Instant::now());
        }
        while let Some(next) = self.core.queue.peek_time() {
            if next > horizon {
                return Ok(true);
            }
            // Metrics sampling: once the clock is about to move past a
            // window boundary, every event in that window has been
            // dispatched, so the registry snapshot at the boundary is
            // final. Events at exactly `k·every_s` belong to the window
            // they end. Disabled (`None`) this is one branch — no
            // allocation, no RNG draw — so sampled and unsampled runs
            // stay byte-identical in trace and RNG stream.
            if let Some(s) = self.sampler.as_mut() {
                while next > s.next_t {
                    s.series
                        .record(s.next_t, &self.core.stats.registry.snapshot());
                    s.next_t += s.series.every_s;
                }
            }
            self.admit(guard, next)?;
            match self.core.queue.pop().expect("peeked").1 {
                Event::Deliver { frame, mut to } => {
                    let delivered = self.deliver_all(guard, frame, &to);
                    to.clear();
                    self.core.rx_lists.push(to);
                    delivered?;
                }
                ev => self.profiled(ev.class(), |w| w.dispatch(ev)),
            }
        }
        self.core.tracer.flush();
        Ok(false)
    }

    /// Runs the scenario to completion, enforcing the scenario's
    /// [`RunBudget`]; see [`World::try_run_until`].
    pub fn try_run(&mut self) -> Result<(), RunAbort> {
        self.try_run_until(f64::INFINITY).map(|_| ())
    }

    /// Processes events up to simulated time `t`; returns `false` when
    /// the event queue has drained.
    ///
    /// # Panics
    /// Panics when a [`RunBudget`] guardrail aborts the run; use
    /// [`World::try_run_until`] to handle aborts as values.
    pub fn run_until(&mut self, t: f64) -> bool {
        match self.try_run_until(t) {
            Ok(more) => more,
            Err(abort) => panic!("run aborted: {abort}"),
        }
    }

    /// Runs the scenario to completion (duration plus in-flight grace).
    ///
    /// # Panics
    /// Panics when a [`RunBudget`] guardrail aborts the run; use
    /// [`World::try_run`] to handle aborts as values.
    pub fn run(&mut self) {
        self.run_until(f64::INFINITY);
    }

    /// The guardrail abort that ended this run, if any.
    pub fn aborted(&self) -> Option<&RunAbort> {
        self.aborted.as_ref()
    }

    /// Current simulated time.
    pub fn now(&self) -> f64 {
        self.core.queue.now()
    }

    /// Collected metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.core.metrics
    }

    /// The S–D sessions of this run.
    pub fn sessions(&self) -> &[Session] {
        &self.core.sessions
    }

    /// Ground-truth position of a node (experimenter access).
    pub fn position(&self, node: NodeId) -> Point {
        self.core.position(node)
    }

    /// Ground-truth ids of all nodes within `radius` metres of `center`
    /// (e.g. the physical recipients of a broadcast from that point).
    pub fn nodes_within(&self, center: Point, radius: f64) -> Vec<NodeId> {
        (0..self.core.cfg.nodes)
            .filter(|&i| self.core.positions[i].distance(center) <= radius)
            .map(NodeId)
            .collect()
    }

    /// Ground-truth ids of all nodes currently inside `zone`.
    pub fn nodes_in_zone(&self, zone: &Rect) -> Vec<NodeId> {
        (0..self.core.cfg.nodes)
            .filter(|&i| zone.contains(self.core.positions[i]))
            .map(NodeId)
            .collect()
    }

    /// The scenario configuration.
    pub fn config(&self) -> &ScenarioConfig {
        &self.core.cfg
    }

    /// The location service (message accounting, policy).
    pub fn location(&self) -> &LocationService {
        &self.core.location
    }

    /// Remaining battery per node in joules, or `None` when the scenario
    /// has no energy budget ([`crate::EnergyConfig`] `initial_j` unset).
    pub fn energy_remaining(&self) -> Option<&[f64]> {
        if self.core.energy_j.is_empty() {
            None
        } else {
            Some(&self.core.energy_j)
        }
    }

    /// Whether `node` was elected a cluster head in the most recent hello
    /// round. Always `false` for unmetered scenarios.
    pub fn is_cluster_head(&self, node: NodeId) -> bool {
        self.core.cluster_head.get(node.0).copied().unwrap_or(false)
    }

    /// Read access to a node's protocol instance (experiment analysis).
    pub fn protocol(&self, node: NodeId) -> &P {
        &self.protos[node.0]
    }

    /// A node's current pseudonym (experimenter access).
    pub fn node_pseudonym(&self, node: NodeId) -> Pseudonym {
        self.core.cur_pseudonyms[node.0]
    }

    /// Resolves a pseudonym (current or grace predecessor) to its owner.
    pub fn pseudonym_owner(&self, pseudonym: Pseudonym) -> Option<NodeId> {
        self.core.pseudonym_map.get(&pseudonym).copied()
    }

    /// Installs a trace sink; every subsequent simulator step emits
    /// [`TraceEvent`]s into it. Returns the previous sink, if any.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) -> Option<Box<dyn TraceSink>> {
        self.core.tracer.set(sink)
    }

    /// Flushes and removes the trace sink, disabling tracing.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.core.tracer.flush();
        self.core.tracer.take()
    }

    /// Whether a trace sink is currently installed.
    pub fn trace_enabled(&self) -> bool {
        self.core.tracer.is_enabled()
    }

    /// Turns on wall-clock profiling of the dispatch loop (off by
    /// default). It costs two clock reads per dispatched event (a frame's
    /// whole receiver list shares one pair) and two per protocol
    /// callback. The paper's ALERT scenario over 24 seeds ran about
    /// 2.3x as long profiled as unprofiled (3.5-4.3 s against 1.5-2.1 s
    /// on a 2-vCPU VM).
    /// Profiling draws no randomness and emits no trace events, so a
    /// profiled run's trace is byte-identical to an unprofiled one.
    pub fn enable_profiling(&mut self) {
        self.profile_enabled = true;
    }

    /// Turns on periodic registry sampling into an `alert-timeseries/1`
    /// series: a [`alert_trace::RegistrySnapshot`] is taken every
    /// `every_s` simulated seconds (sample `t = k·every_s` covers the
    /// window `((k-1)·every_s, k·every_s]`). Sampling draws no randomness
    /// and emits no trace events, so a sampled run's trace is
    /// byte-identical to an unsampled one. Replaces any previous sampler.
    ///
    /// # Panics
    /// If `every_s` is not finite and positive.
    pub fn enable_metrics_timeseries(&mut self, every_s: f64) {
        self.sampler = Some(TimeseriesSampler {
            next_t: every_s,
            series: MetricsTimeseries::new(every_s),
        });
    }

    /// Stops sampling and returns the collected series, appending a final
    /// partial sample at the current simulated time when the run ended
    /// past the last window boundary (so the series' last cumulative row
    /// always equals the whole-run registry totals). Returns `None` when
    /// [`World::enable_metrics_timeseries`] was never called.
    pub fn take_metrics_timeseries(&mut self) -> Option<MetricsTimeseries> {
        let mut s = self.sampler.take()?;
        let now = self.core.queue.now();
        if s.series
            .samples
            .last()
            .map_or(now > 0.0, |last| now > last.t)
        {
            s.series.record(now, &self.core.stats.registry.snapshot());
        }
        Some(s.series)
    }

    /// Whether periodic metrics sampling is currently enabled.
    pub fn metrics_timeseries_enabled(&self) -> bool {
        self.sampler.is_some()
    }

    /// Logical events dispatched so far: one per FEL entry, except that a
    /// frame's delivery, one FEL entry, counts once per receiver. This
    /// is the count `RunBudget::max_events` limits.
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    /// Peak number of simultaneously pending FEL entries (high-water
    /// mark). A frame in flight is one entry however many receivers it
    /// has.
    pub fn fel_high_water(&self) -> usize {
        self.core.queue.high_water()
    }

    /// Snapshot of the run's typed counters and histograms.
    pub fn registry_snapshot(&self) -> RegistrySnapshot {
        self.core.stats.registry.snapshot()
    }

    /// Current value of a registry counter by name (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.core.stats.registry.counter_value(name)
    }

    /// Builds the run's [`RunProfile`]. Wall-clock fields are only
    /// populated when [`World::enable_profiling`] was called before the
    /// run; the deterministic fields (event counts, FEL high-water mark,
    /// registry) are always filled.
    pub fn run_profile(&self) -> RunProfile {
        let mut p = RunProfile {
            setup_s: self.setup_s,
            wall_clock_s: self.profile_wall_s,
            sim_time_s: self.core.queue.now(),
            events_dispatched: self.events_dispatched,
            events_per_sec: 0.0,
            fel_high_water: self.core.queue.high_water() as u64,
            callbacks: owned_keys(&EVENT_CLASSES, &self.profile_callbacks),
            spans: owned_keys(&SPANS, &self.profile_spans),
            registry: self.core.stats.registry.snapshot(),
        };
        p.finalize();
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::NeighborEntry;
    use crate::fault::FaultPlan;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// The eager reference for the lazy tables: at every hello it
    /// rebuilds each live node's whole table, as the runtime did before
    /// tables were filled in on demand. Heard entries come first in grid
    /// order, then old entries not re-heard and not yet aged out; a
    /// crashed node's table is empty.
    #[derive(Default)]
    struct EagerTables {
        /// Per node: the table, with each entry's node id.
        tables: Vec<Vec<(u32, NeighborEntry)>>,
        /// Per node: how many of its table's entries were heard at the
        /// last hello (the rest are survivors).
        heard: Vec<usize>,
        /// Entries the last hello aged out, in node-id order.
        lost: Vec<(NodeId, NeighborEntry)>,
        /// `on_neighbor_lost` deliveries since the last hello.
        delivered: Vec<(NodeId, NeighborEntry)>,
        /// Tables compared and the entries they held; entries kept past
        /// a missed hello, and entries aged out.
        reads: usize,
        rows: usize,
        survivors: usize,
        aged_out: usize,
    }

    impl EagerTables {
        fn hello<M: Clone + std::fmt::Debug>(&mut self, core: &WorldCore<M>) {
            let now = core.queue.now();
            let (range, staleness) = core.table_limits();
            let metered = core.energy_metered();
            self.tables.resize(core.nodes.len(), Vec::new());
            self.heard.resize(core.nodes.len(), 0);
            self.lost.clear();
            for i in 0..core.nodes.len() {
                if core.down_depth[i] > 0 {
                    self.heard[i] = 0;
                    continue;
                }
                let mut table = Vec::new();
                core.grid
                    .for_each_in_range(core.positions[i], range, |id, pos| {
                        let silent = core.down_depth[id] > 0 || (metered && core.low_energy[id]);
                        if id != i && !silent {
                            let e = NeighborEntry {
                                pseudonym: core.cur_pseudonyms[id],
                                position: pos,
                                heard_at: now,
                            };
                            table.push((id as u32, e));
                        }
                    });
                let heard = table.len();
                self.heard[i] = heard;
                for &(id, e) in &self.tables[i] {
                    if table[..heard].iter().any(|&(h, _)| h == id) {
                        continue;
                    }
                    if now - e.heard_at < staleness {
                        table.push((id, e));
                        self.survivors += 1;
                    } else {
                        self.lost.push((NodeId(i), e));
                        self.aged_out += 1;
                    }
                }
                self.tables[i] = table;
            }
        }

        /// Empties the tables of crashed nodes.
        fn crashed(&mut self, down_depth: &[u32]) {
            for ((table, heard), &depth) in
                self.tables.iter_mut().zip(&mut self.heard).zip(down_depth)
            {
                if depth > 0 {
                    table.clear();
                    *heard = 0;
                }
            }
        }

        /// Checks every node's lists and filled-in table against the
        /// reference, just after the hello at `now`.
        fn check_all<M: Clone + std::fmt::Debug>(&self, core: &mut WorldCore<M>, now: f64) {
            for (i, (table, &heard)) in self.tables.iter().zip(&self.heard).enumerate() {
                let ids: Vec<u32> = table[..heard].iter().map(|&(id, _)| id).collect();
                assert_eq!(core.heard.of(i), ids, "node {i} heard ids at t = {now}");
                assert_eq!(
                    core.survivors[i],
                    table[heard..],
                    "node {i} survivors at t = {now}"
                );
                core.fill_table(i);
                let want: Vec<NeighborEntry> = table.iter().map(|&(_, e)| e).collect();
                assert_eq!(core.nodes[i].neighbors, want, "node {i} table at t = {now}");
                assert_eq!(core.table_len(i), want.len());
            }
        }
    }

    type Oracle = Rc<RefCell<EagerTables>>;

    /// Checks the table it is lent on every callback against the eager
    /// reference, and keeps frames and timers going so that tables are
    /// filled in at deliveries, timers and data requests alike.
    struct TableProbe {
        id: NodeId,
        oracle: Oracle,
    }

    impl TableProbe {
        fn probe(&self, api: &Api<'_, u8>) {
            let mut oracle = self.oracle.borrow_mut();
            let want: Vec<NeighborEntry> =
                oracle.tables[self.id.0].iter().map(|&(_, e)| e).collect();
            assert_eq!(
                api.neighbors(),
                &want[..],
                "node {} at t = {}",
                self.id.0,
                api.now()
            );
            assert_eq!(api.neighbor_count(), want.len());
            oracle.reads += 1;
            oracle.rows += want.len();
        }
    }

    impl ProtocolNode for TableProbe {
        type Msg = u8;
        fn name() -> &'static str {
            "TABLE-PROBE"
        }
        fn on_start(&mut self, api: &mut Api<'_, u8>) {
            self.probe(api);
            let delay = api.rng().gen_range(0.0..1.0);
            api.set_timer(delay, 0);
        }
        fn on_data_request(&mut self, api: &mut Api<'_, u8>, _req: &DataRequest) {
            self.probe(api);
            api.send_broadcast(0, 64, TrafficClass::Data, None);
        }
        fn on_frame(&mut self, api: &mut Api<'_, u8>, frame: Frame<u8>) {
            self.probe(api);
            if frame.msg < 2 && api.rng().gen_bool(0.1) {
                api.send_broadcast(frame.msg + 1, 64, TrafficClass::Control, None);
            }
        }
        fn on_timer(&mut self, api: &mut Api<'_, u8>, token: TimerToken) {
            self.probe(api);
            if api.rng().gen_bool(0.05) {
                api.send_broadcast(0, 64, TrafficClass::Control, None);
            }
            let delay = api.rng().gen_range(0.3..1.7);
            api.set_timer(delay, token);
        }
        fn on_neighbor_lost(&mut self, _api: &mut Api<'_, u8>, neighbor: &NeighborEntry) {
            // The table was rewritten at this hello, but the reference
            // catches up only once the hello has dispatched; the next
            // callback or read checks what this one filled in.
            self.oracle
                .borrow_mut()
                .delivered
                .push((self.id, *neighbor));
        }
    }

    /// Dispatches the next FEL entry as the run loop does, and brings the
    /// reference up to date: rebuilt after a hello (whose lost list must
    /// be the one the protocols were handed, and whose lists and tables
    /// must all match it), emptied for crashed nodes. The queue must not
    /// be empty.
    fn step(w: &mut World<TableProbe>, oracle: &Oracle) {
        let (_, ev) = w.core.queue.pop().expect("a pending event");
        match ev {
            Event::Deliver { frame, to } => w.deliver_all(None, frame, &to).expect("no budget"),
            Event::HelloTick => {
                w.dispatch(Event::HelloTick);
                let mut o = oracle.borrow_mut();
                o.hello(&w.core);
                let o = &mut *o;
                assert_eq!(o.delivered, o.lost, "lost entries at t = {}", w.now());
                o.delivered.clear();
                let now = w.now();
                o.check_all(&mut w.core, now);
            }
            ev => w.dispatch(ev),
        }
        oracle.borrow_mut().crashed(&w.core.down_depth);
    }

    /// What the runs against the eager reference exercised.
    #[derive(Default)]
    struct Coverage {
        /// Tables read and the entries they held; entries kept past a
        /// missed hello, entries aged out, and pseudonym rotations.
        reads: usize,
        rows: usize,
        survivors: usize,
        aged_out: usize,
        rotations: u64,
        /// Whether any node was down, or withheld its beacon, at a read.
        down: bool,
        low: bool,
    }

    /// The energy meter of the reference runs: a relay threshold that has
    /// drained nodes withhold their beacon, and cluster-head draws.
    fn metered(cfg: &mut ScenarioConfig, initial_j: f64) {
        cfg.energy.initial_j = Some(initial_j);
        cfg.energy.idle_watts = 0.01;
        cfg.energy.relay_threshold_fraction = 0.5;
        cfg.energy.cluster_head_fraction = 0.1;
    }

    /// Runs `cfg` under the eager reference to the run loop's horizon
    /// (the duration plus a grace second), reading the tables of random
    /// nodes at random times between the events (`rng` draws those), and
    /// adds what it exercised to `coverage`.
    fn run_against_eager(
        cfg: ScenarioConfig,
        seed: u64,
        rng: &mut StdRng,
        coverage: &mut Coverage,
    ) {
        let nodes = cfg.nodes;
        let horizon = cfg.duration_s + 1.0;
        let oracle = Oracle::default();
        let mut w = World::new(cfg, seed, |id, _| TableProbe {
            id,
            oracle: oracle.clone(),
        });
        oracle.borrow_mut().hello(&w.core);
        oracle.borrow().check_all(&mut w.core, 0.0);
        // The deferred on_start sweep, and the t = 0 energy deaths.
        w.run_until(0.0);
        oracle.borrow_mut().crashed(&w.core.down_depth);
        let mut read_at = 0.0;
        loop {
            read_at += rng.gen_range(0.0..0.6);
            while w.core.queue.peek_time().is_some_and(|t| t <= read_at) {
                step(&mut w, &oracle);
            }
            for _ in 0..5 {
                let node = NodeId(rng.gen_range(0..nodes));
                w.with_proto(node, ON_TIMER, |p, api| p.probe(api));
            }
            coverage.down |= w.core.down_depth.iter().any(|&d| d > 0);
            coverage.low |= w.core.low_energy.iter().any(|&l| l);
            if !w.core.queue.peek_time().is_some_and(|t| t <= horizon) {
                break;
            }
            step(&mut w, &oracle);
        }
        let o = oracle.borrow();
        coverage.reads += o.reads;
        coverage.rows += o.rows;
        coverage.survivors += o.survivors;
        coverage.aged_out += o.aged_out;
        coverage.rotations += w.counter("pseudonym.rotations");
    }

    #[test]
    fn lazy_tables_match_an_eager_rebuild() {
        let mut coverage = Coverage::default();
        alert_rng::check(8, 0x7AB1E5, |rng| {
            let nodes = rng.gen_range(150..400);
            let duration = 12.0;
            let mut cfg = ScenarioConfig::default()
                .with_nodes_scaled_field(nodes)
                .with_duration(duration);
            cfg.traffic.pairs = rng.gen_range(0..4);
            cfg.neighbor_staleness_factor = if rng.gen_bool(0.5) { 3.0 } else { 1.0 };
            cfg.pseudonym_lifetime_s = 4.0;
            metered(&mut cfg, rng.gen_range(0.2..0.6));
            // Crashes and recoveries at arbitrary times between hellos.
            for _ in 0..nodes / 8 {
                let at_s = rng.gen_range(0.1..duration);
                let recover_s = rng
                    .gen_bool(0.7)
                    .then(|| (at_s + rng.gen_range(0.1..3.0_f64)).min(duration));
                cfg.faults.crashes.push(crate::fault::NodeCrash {
                    node: rng.gen_range(0..nodes),
                    at_s,
                    recover_s,
                });
            }
            let seed = rng.gen_range(0..1000);
            run_against_eager(cfg, seed, rng, &mut coverage);
        });
        // The cases exercised every input the sweep and the fill read.
        assert!(coverage.reads > 10_000, "{} reads", coverage.reads);
        assert!(coverage.rows > 10 * coverage.reads, "tables too small");
        assert!(coverage.survivors > 0, "no entry outlived a missed hello");
        assert!(coverage.aged_out > 0, "no entry aged out");
        assert!(coverage.down, "no node crashed");
        assert!(coverage.low, "no node withheld its beacon");

        // A field one grid cell high: every cell's neighborhood is a
        // single row, and the sweep's rows above and below are missing.
        let mut strip = Coverage::default();
        alert_rng::check(1, 0x5781B, |rng| {
            let nodes = rng.gen_range(150..400);
            let mut cfg = ScenarioConfig::default().with_duration(12.0);
            let h = rng.gen_range(0.4..1.0) * cfg.mac.range_m;
            let w = cfg.field_w * cfg.field_h * nodes as f64 / cfg.nodes as f64 / h;
            cfg = cfg.with_nodes(nodes).with_field(w, h);
            cfg.traffic.pairs = rng.gen_range(0..4);
            cfg.neighbor_staleness_factor = 3.0;
            cfg.pseudonym_lifetime_s = 4.0;
            cfg.faults = FaultPlan::churn(nodes, 0.2, 12.0, rng.gen_range(0..1000));
            let seed = rng.gen_range(0..1000);
            run_against_eager(cfg, seed, rng, &mut strip);
        });
        assert!(strip.rows > 10 * strip.reads, "strip tables too small");
        assert!(strip.survivors > 0 && strip.aged_out > 0 && strip.down);

        // A pinned scenario: 600 nodes on a scaled field, a churn plan,
        // staleness factor 3, a metered relay threshold and 4 s
        // pseudonyms, over 40 simulated seconds.
        let mut pinned = Coverage::default();
        let mut cfg = ScenarioConfig::default()
            .with_nodes_scaled_field(600)
            .with_duration(40.0);
        cfg.traffic.pairs = 0;
        cfg.faults = FaultPlan::churn(600, 0.2, 40.0, 7);
        cfg.neighbor_staleness_factor = 3.0;
        cfg.pseudonym_lifetime_s = 4.0;
        metered(&mut cfg, 2.0);
        run_against_eager(cfg, 11, &mut StdRng::seed_from_u64(11), &mut pinned);
        assert!(pinned.down, "no node crashed");
        assert!(pinned.low, "no node withheld its beacon");
        assert!(pinned.aged_out > 0, "no entry went stale");
        assert!(pinned.survivors > 0, "no entry outlived a missed hello");
        assert!(pinned.rotations > 600, "{} rotations", pinned.rotations);
    }
}
