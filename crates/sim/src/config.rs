//! Scenario configuration: every knob of the paper's evaluation setup
//! (Section 5.2) in one serializable struct.

use crate::fault::FaultPlan;
use crate::guard::RunBudget;
use alert_crypto::CostModel;
use alert_geom::{Point, Rect};
use alert_rng::{Rng, SeedableRng, StdRng};
use std::fmt;

/// Why a [`ScenarioConfig`] cannot be simulated.
///
/// Returned by [`ScenarioConfig::validate`] and the fallible `World`
/// constructors instead of the old `panic!("invalid scenario: …")`
/// paths, so callers (the CLIs, tests, sweeps) can report or recover.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// `nodes == 0`.
    NoNodes,
    /// `field_w` or `field_h` is not positive.
    EmptyField,
    /// `mac.range_m` is not positive.
    NonPositiveRange,
    /// `duration_s` is not positive.
    NonPositiveDuration,
    /// More S–D pairs than the node population can supply.
    TooManyPairs {
        /// Requested number of S–D pairs.
        pairs: usize,
        /// Available nodes.
        nodes: usize,
    },
    /// `mac.loss_probability` is outside `[0, 1]`.
    InvalidLossProbability(f64),
    /// A pre-built session references a node id outside the population.
    SessionEndpointOutOfRange {
        /// The offending node id.
        node: usize,
        /// Available nodes.
        nodes: usize,
    },
    /// A periodic interval (`traffic.interval_s`, `hello_interval_s` or
    /// `mobility_tick_s`) is not positive; a zero traffic interval would
    /// spin the event loop forever at one instant.
    NonPositiveInterval {
        /// Which interval field is degenerate.
        which: &'static str,
    },
    /// `neighbor_staleness_factor` must be a finite factor `>= 1` (entries
    /// are evicted after `k` missed hello intervals).
    InvalidStalenessFactor(f64),
    /// `mac.arq_backoff_base_s` must be finite and non-negative.
    InvalidArqBackoff(f64),
    /// `mac.bitrate_bps` must be finite and positive (zero makes every
    /// airtime infinite).
    InvalidBitrate(f64),
    /// `mac.base_overhead_s` must be finite and positive: every frame
    /// carries a preamble, so airtime is never zero.
    InvalidBaseOverhead(f64),
    /// `mac.max_backoff_s` must be finite and non-negative.
    InvalidMaxBackoff(f64),
    /// `mac.contention_per_neighbor_s` must be finite and non-negative.
    InvalidContention(f64),
    /// A fault-plan crash references a node id outside the population.
    FaultNodeOutOfRange {
        /// The offending node id.
        node: usize,
        /// Available nodes.
        nodes: usize,
    },
    /// A fault-plan time window is inverted, negative or non-finite (also
    /// covers degenerate outage rectangles).
    InvalidFaultWindow {
        /// Window start in seconds.
        start: f64,
        /// Window end in seconds.
        end: f64,
    },
    /// A link-degradation factor or additive loss is out of range.
    InvalidFaultLoss(f64),
    /// A [`crate::RunBudget`] limit is zero, negative or non-finite —
    /// omit the field for "no limit" instead.
    InvalidBudget {
        /// Which budget field is degenerate.
        which: &'static str,
    },
    /// A Manhattan grid needs at least one street on each axis.
    InvalidStreets {
        /// Requested horizontal street count.
        h: usize,
        /// Requested vertical street count.
        v: usize,
    },
    /// A Manhattan intersection turn probability is outside `[0, 1]` or
    /// non-finite.
    InvalidTurnProbability(f64),
    /// A Manhattan grid needs at least one speed class.
    InvalidSpeedClasses(usize),
    /// Small-teams placement with an empty team.
    InvalidTeamSize(usize),
    /// Small-teams spread is negative or non-finite.
    InvalidTeamSpread(f64),
    /// An [`EnergyConfig`] field is out of range.
    InvalidEnergy {
        /// Which energy field is degenerate.
        which: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The insider compromise fraction is outside `[0, 1]` or non-finite.
    InvalidInsiderFraction(f64),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::NoNodes => write!(f, "scenario needs at least one node"),
            ScenarioError::EmptyField => write!(f, "field must have positive area"),
            ScenarioError::NonPositiveRange => write!(f, "radio range must be positive"),
            ScenarioError::NonPositiveDuration => write!(f, "duration must be positive"),
            ScenarioError::TooManyPairs { pairs, nodes } => write!(
                f,
                "{} S-D pairs need {} distinct nodes but only {} exist",
                pairs,
                pairs * 2,
                nodes
            ),
            ScenarioError::InvalidLossProbability(p) => {
                write!(f, "loss probability must be in [0, 1], got {p}")
            }
            ScenarioError::SessionEndpointOutOfRange { node, nodes } => {
                write!(f, "session endpoint {node} out of range for {nodes} nodes")
            }
            ScenarioError::NonPositiveInterval { which } => {
                write!(f, "{which} must be positive")
            }
            ScenarioError::InvalidStalenessFactor(k) => {
                write!(
                    f,
                    "neighbor staleness factor must be finite and >= 1, got {k}"
                )
            }
            ScenarioError::InvalidArqBackoff(b) => {
                write!(
                    f,
                    "ARQ backoff base must be finite and non-negative, got {b}"
                )
            }
            ScenarioError::InvalidBitrate(b) => {
                write!(f, "MAC bitrate must be finite and positive, got {b}")
            }
            ScenarioError::InvalidBaseOverhead(o) => {
                write!(
                    f,
                    "MAC per-frame overhead must be finite and positive, got {o}"
                )
            }
            ScenarioError::InvalidMaxBackoff(b) => {
                write!(
                    f,
                    "MAC maximum backoff must be finite and non-negative, got {b}"
                )
            }
            ScenarioError::InvalidContention(c) => {
                write!(
                    f,
                    "MAC per-neighbor contention must be finite and non-negative, got {c}"
                )
            }
            ScenarioError::FaultNodeOutOfRange { node, nodes } => {
                write!(
                    f,
                    "fault plan crashes node {node} but only {nodes} nodes exist"
                )
            }
            ScenarioError::InvalidFaultWindow { start, end } => {
                write!(f, "fault window [{start}, {end}] is degenerate")
            }
            ScenarioError::InvalidFaultLoss(v) => {
                write!(f, "link degradation loss value {v} out of range")
            }
            ScenarioError::InvalidBudget { which } => {
                write!(f, "{which} must be positive (omit the field for no limit)")
            }
            ScenarioError::InvalidStreets { h, v } => {
                write!(
                    f,
                    "manhattan grid needs at least one street on each axis, got {h}x{v}"
                )
            }
            ScenarioError::InvalidTurnProbability(p) => {
                write!(f, "manhattan turn probability must be in [0, 1], got {p}")
            }
            ScenarioError::InvalidSpeedClasses(n) => {
                write!(f, "manhattan grid needs at least one speed class, got {n}")
            }
            ScenarioError::InvalidTeamSize(n) => {
                write!(f, "small-teams placement needs team_size >= 1, got {n}")
            }
            ScenarioError::InvalidTeamSpread(v) => {
                write!(
                    f,
                    "small-teams spread must be finite and non-negative, got {v}"
                )
            }
            ScenarioError::InvalidEnergy { which, value } => {
                write!(f, "energy.{which} is out of range, got {value}")
            }
            ScenarioError::InvalidInsiderFraction(v) => {
                write!(f, "insider fraction must be in [0, 1], got {v}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Which mobility model drives the nodes (Section 5.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MobilityKind {
    /// Random waypoint \[17\] at a fixed speed — the paper's default.
    RandomWaypoint,
    /// Reference-point group mobility \[18\] with `groups` groups confined to
    /// `range` metres each (the paper uses 10 groups / 150 m and
    /// 5 groups / 200 m).
    Group {
        /// Number of groups.
        groups: usize,
        /// Movement range of each group in metres.
        range: f64,
    },
    /// No movement (controlled experiments, `v = 0` series).
    Static,
    /// Street-constrained Manhattan-grid mobility: nodes travel along a
    /// lattice of `h_streets` × `v_streets` lanes, turning at intersections
    /// with probability `turn_prob` and moving at one of `speed_classes`
    /// discrete speed tiers (class `c` moves at
    /// `speed * (c + 1) / speed_classes`).
    ManhattanGrid {
        /// Horizontal street count (≥ 1).
        h_streets: usize,
        /// Vertical street count (≥ 1).
        v_streets: usize,
        /// Turn probability at intersections, in `[0, 1]`.
        turn_prob: f64,
        /// Number of discrete speed classes (≥ 1).
        speed_classes: usize,
    },
}

alert_trace::json_enum!(MobilityKind {
    RandomWaypoint,
    Group { groups, range },
    Static,
    ManhattanGrid {
        h_streets = 4,
        v_streets = 4,
        turn_prob = 0.5,
        speed_classes = 1,
    },
});

/// Initial node placement, orthogonal to the mobility model (SNIPPETS.md
/// snippet 3): the placement computes starting positions, the mobility model
/// then moves nodes as usual. Street-constrained models snap placements to
/// the nearest lane point.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Placement {
    /// Uniformly random over the field — the legacy behavior, and what
    /// a scenario without `placement` means, so pre-existing scenarios
    /// are byte-identical.
    #[default]
    Uniform,
    /// A convoy line: node `i` of `n` starts at
    /// `(field_w * i / n, field_h / 2)`.
    Convoy,
    /// Small teams: consecutive node ids form teams of `team_size`; each
    /// team gets a random center, members scatter within `spread_m` of it.
    SmallTeams {
        /// Nodes per team (≥ 1; the last team may be smaller).
        team_size: usize,
        /// Maximum member offset from the team center, metres.
        spread_m: f64,
    },
}

alert_trace::json_enum!(Placement {
    Uniform,
    Convoy,
    SmallTeams { team_size, spread_m },
});

impl Placement {
    /// Starting positions for `nodes` nodes, or `None` for
    /// [`Placement::Uniform`] (the mobility model's own initial scatter
    /// stands, keeping legacy runs byte-identical).
    ///
    /// Draws come from a dedicated salted RNG in node-id order, so placement
    /// never perturbs the mobility or world draw streams.
    pub fn positions(&self, field: Rect, nodes: usize, seed: u64) -> Option<Vec<Point>> {
        match *self {
            Placement::Uniform => None,
            Placement::Convoy => {
                let y = field.min.y + field.height() / 2.0;
                Some(
                    (0..nodes)
                        .map(|i| {
                            let x = field.min.x + field.width() * i as f64 / nodes.max(1) as f64;
                            Point::new(x, y)
                        })
                        .collect(),
                )
            }
            Placement::SmallTeams {
                team_size,
                spread_m,
            } => {
                let mut rng = StdRng::seed_from_u64(seed ^ 0x7EA3_5EED);
                let team_size = team_size.max(1);
                let mut center = Point::ORIGIN;
                Some(
                    (0..nodes)
                        .map(|i| {
                            if i % team_size == 0 {
                                center = field.random_point(&mut rng);
                            }
                            let offset = if spread_m > 0.0 {
                                Point::new(
                                    rng.gen_range(-spread_m..spread_m),
                                    rng.gen_range(-spread_m..spread_m),
                                )
                            } else {
                                Point::ORIGIN
                            };
                            field.clamp(center + offset)
                        })
                        .collect(),
                )
            }
        }
    }
}

/// What a compromised relay does with frames it is asked to forward
/// (PAPERS.md: AODVSEC insider-attack taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum InsiderMode {
    /// Passive: forward faithfully but log every observed frame for the
    /// §3.3 intersection attacker.
    #[default]
    Log,
    /// Active denial: swallow every forwarded frame.
    Drop,
    /// Active tampering: modify the payload. The next hop's integrity check
    /// rejects the frame, so an honest stack converts each tamper into an
    /// `insider_modified` drop.
    Modify,
    /// Tampering with the integrity check suppressed — the planted defect
    /// for the insider-containment oracle drill. Never generated for honest
    /// fuzz cases.
    #[doc(hidden)]
    ModifyStealth,
}

alert_trace::json_enum!(InsiderMode {
    Log,
    Drop,
    Modify,
    ModifyStealth,
});

impl fmt::Display for InsiderMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InsiderMode::Log => write!(f, "log"),
            InsiderMode::Drop => write!(f, "drop"),
            InsiderMode::Modify => write!(f, "modify"),
            InsiderMode::ModifyStealth => write!(f, "modify-stealth"),
        }
    }
}

/// Insider-adversary plan: a fraction of nodes are compromised relays.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct InsiderConfig {
    /// Fraction of the population that is compromised, in `[0, 1]`.
    /// `0` (the default) disables insiders entirely.
    pub fraction: f64,
    /// Behavior of each compromised relay.
    pub mode: InsiderMode,
}

alert_trace::json_struct!(InsiderConfig {
    fraction = 0.0,
    mode = InsiderMode::default(),
});

impl InsiderConfig {
    /// True when any node is compromised.
    pub fn is_active(&self) -> bool {
        self.fraction > 0.0
    }

    /// Deterministically selects which nodes are compromised: a seeded
    /// Fisher–Yates shuffle (same LCG family as the adversary crate's
    /// compromise chooser) marks `round(fraction * nodes)` of them, at
    /// least one when active. Pure in `(self, nodes, seed)` so the bench
    /// runner and simcheck agree on the compromised set.
    pub fn choose(&self, nodes: usize, seed: u64) -> Vec<bool> {
        let mut out = vec![false; nodes];
        if !self.is_active() || nodes == 0 {
            return out;
        }
        let count = ((self.fraction * nodes as f64).round() as usize).clamp(1, nodes);
        let mut ids: Vec<usize> = (0..nodes).collect();
        let mut state = seed ^ 0x1D51_DE2A_D5A7_10E5;
        for i in (1..nodes).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = ((state >> 33) % (i as u64 + 1)) as usize;
            ids.swap(i, j);
        }
        for &id in ids.iter().take(count) {
            out[id] = true;
        }
        out
    }
}

/// How the location service reports a destination's position during a
/// transmission session (Section 5.6 "with/without destination update").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LocationPolicy {
    /// Positions are refreshed every `interval_s` seconds — the "with
    /// destination update" condition.
    Periodic {
        /// Refresh interval in seconds.
        interval_s: f64,
    },
    /// Positions are frozen at the value registered when the node last
    /// updated before the session began — the "without destination update"
    /// condition.
    SessionStart,
}

alert_trace::json_enum!(LocationPolicy {
    Periodic { interval_s },
    SessionStart,
});

/// 802.11-style MAC and channel model parameters.
///
/// This is a stochastic abstraction of the DCF, not a bit-accurate model:
/// per-frame airtime = `base_overhead_s` (DIFS + PHY preamble + SIFS + ACK)
/// plus a uniform random backoff scaled by local contention, plus the
/// payload serialization time at `bitrate_bps` (see DESIGN.md § 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacConfig {
    /// Radio transmission range in metres (unit-disk model).
    pub range_m: f64,
    /// Channel bitrate in bits/second (802.11b: 2 Mb/s).
    pub bitrate_bps: f64,
    /// Fixed per-frame MAC/PHY overhead in seconds.
    pub base_overhead_s: f64,
    /// Maximum random backoff in seconds (drawn uniformly).
    pub max_backoff_s: f64,
    /// Extra backoff per contending neighbor, in seconds.
    pub contention_per_neighbor_s: f64,
    /// Probability that any individual frame reception fails.
    pub loss_probability: f64,
    /// When true, each node owns a half-duplex transmitter: a frame's
    /// airtime starts only after the node's previous transmission ended,
    /// so bursts (e.g. notify-and-go cover storms) serialize instead of
    /// overlapping. Off by default to match the calibrated figures; turn
    /// on for MAC-fidelity studies.
    pub serialize_tx: bool,
    /// Link-layer ARQ retry budget per unicast frame (802.11 DCF retries
    /// a lost data frame up to `dot11LongRetryLimit` = 4 times). `0`
    /// disables the ARQ entirely — the default, matching the calibrated
    /// figures where a lost unicast is simply dropped.
    pub arq_max_retries: u32,
    /// Base delay before the first ARQ retransmission; attempt `n` waits
    /// `arq_backoff_base_s * 2^(n-1)` (binary exponential backoff).
    pub arq_backoff_base_s: f64,
}

fn default_arq_backoff() -> f64 {
    0.004
}

alert_trace::json_struct!(MacConfig {
    range_m,
    bitrate_bps,
    base_overhead_s,
    max_backoff_s,
    contention_per_neighbor_s,
    loss_probability,
    serialize_tx,
    arq_max_retries = 0,
    arq_backoff_base_s = default_arq_backoff(),
});

impl Default for MacConfig {
    fn default() -> Self {
        MacConfig {
            range_m: 250.0,
            bitrate_bps: 2_000_000.0,
            base_overhead_s: 0.000_8,
            max_backoff_s: 0.001,
            contention_per_neighbor_s: 0.000_02,
            loss_probability: 0.0,
            serialize_tx: false,
            arq_max_retries: 0,
            arq_backoff_base_s: default_arq_backoff(),
        }
    }
}

/// Radio and CPU power draw for the energy accounting (defaults follow
/// the classic WaveLAN measurements used by NS-2-era MANET studies).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyConfig {
    /// Power drawn while transmitting, watts.
    pub tx_watts: f64,
    /// Power drawn while receiving, watts.
    pub rx_watts: f64,
    /// CPU power drawn during cryptographic processing, watts.
    pub cpu_watts: f64,
    /// Per-node energy budget in joules. `None` (the default) keeps
    /// the legacy unlimited-battery behavior: aggregate joule counters
    /// accrue but nodes never die. `Some(j)` arms the per-node meter —
    /// a node whose meter reaches zero goes down permanently through the
    /// crash machinery (SNIPPETS.md snippet 1, C-MANET reliability
    /// assessment). `Some(0.0)` is the dead-on-arrival degenerate corner.
    pub initial_j: Option<f64>,
    /// Baseline power drawn by every live node, watts, charged once per
    /// hello interval. Only meaningful with `initial_j` set.
    pub idle_watts: f64,
    /// Expected fraction of live nodes elected cluster head each hello
    /// round (snippet 1 uses 0.12). Election probability scales with the
    /// node's remaining-energy fraction, so depleted nodes rarely lead.
    /// `0` (the default) disables election. Only meaningful with
    /// `initial_j` set.
    pub cluster_head_fraction: f64,
    /// Radio-range multiplier a cluster head enjoys for its own
    /// transmissions (≥ 1).
    pub cluster_head_range_boost: f64,
    /// Energy-aware forwarding threshold: a node whose remaining-energy
    /// fraction falls below this stops beaconing, withdrawing from relay
    /// duty while still able to originate and receive. In `[0, 1]`;
    /// only meaningful with `initial_j` set.
    pub relay_threshold_fraction: f64,
}

fn default_head_range_boost() -> f64 {
    1.5
}

fn default_relay_threshold() -> f64 {
    0.2
}

alert_trace::json_struct!(EnergyConfig {
    tx_watts,
    rx_watts,
    cpu_watts,
    initial_j = None,
    idle_watts = 0.0,
    cluster_head_fraction = 0.0,
    cluster_head_range_boost = default_head_range_boost(),
    relay_threshold_fraction = default_relay_threshold(),
});

impl Default for EnergyConfig {
    fn default() -> Self {
        EnergyConfig {
            tx_watts: 1.65,
            rx_watts: 1.40,
            cpu_watts: 1.0,
            initial_j: None,
            idle_watts: 0.0,
            cluster_head_fraction: 0.0,
            cluster_head_range_boost: default_head_range_boost(),
            relay_threshold_fraction: default_relay_threshold(),
        }
    }
}

impl EnergyConfig {
    /// True when the per-node meter (and everything downstream of it:
    /// death-on-empty, cluster heads, beacon withdrawal) is armed.
    pub fn metered(&self) -> bool {
        self.initial_j.is_some()
    }

    /// Largest radio-range multiplier any node can have under this config:
    /// the cluster-head boost when election is armed, else exactly 1. The
    /// radio-range oracle uses this as its bound.
    pub fn max_range_boost(&self) -> f64 {
        if self.metered() && self.cluster_head_fraction > 0.0 {
            self.cluster_head_range_boost
        } else {
            1.0
        }
    }
}

/// Constant-bit-rate traffic description: `pairs` random source–destination
/// pairs each sending a `packet_bytes` packet every `interval_s` seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficConfig {
    /// Number of S–D pairs (paper: 10).
    pub pairs: usize,
    /// Seconds between consecutive packets of a pair (paper: 2 s).
    pub interval_s: f64,
    /// Application payload size in bytes (paper: 512).
    pub packet_bytes: usize,
    /// Session start time in seconds (lets neighbor tables warm up).
    pub start_s: f64,
}

alert_trace::json_struct!(TrafficConfig {
    pairs,
    interval_s,
    packet_bytes,
    start_s,
});

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            pairs: 10,
            interval_s: 2.0,
            packet_bytes: 512,
            start_s: 1.0,
        }
    }
}

/// Complete description of one simulation scenario. A run is a pure
/// function of `(ScenarioConfig, seed)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Field width in metres.
    pub field_w: f64,
    /// Field height in metres.
    pub field_h: f64,
    /// Number of nodes.
    pub nodes: usize,
    /// Node speed in m/s (fixed, per the paper).
    pub speed: f64,
    /// Mobility model.
    pub mobility: MobilityKind,
    /// MAC and channel parameters.
    pub mac: MacConfig,
    /// CBR traffic.
    pub traffic: TrafficConfig,
    /// Simulated duration in seconds (paper: 100 s).
    pub duration_s: f64,
    /// Crypto latency model.
    pub crypto_cost: CostModel,
    /// Location service freshness policy.
    pub location: LocationPolicy,
    /// Interval of "hello" neighbor beacons in seconds.
    pub hello_interval_s: f64,
    /// Mobility integration step in seconds.
    pub mobility_tick_s: f64,
    /// Pseudonym validity period in seconds (Section 2.2).
    pub pseudonym_lifetime_s: f64,
    /// Radio/CPU power model for energy accounting.
    pub energy: EnergyConfig,
    /// Neighbor-table entries are evicted once they are older than
    /// `neighbor_staleness_factor × hello_interval_s` — i.e. after that
    /// many missed hello beacons. The default of 1 evicts at the first
    /// missed hello, which is exactly the wholesale table rebuild the
    /// simulator always performed.
    pub neighbor_staleness_factor: f64,
    /// Deterministic fault schedule; empty by default (no faults).
    pub faults: FaultPlan,
    /// Per-run guardrail budgets; unlimited by default, so the golden
    /// same-seed traces are unaffected unless a limit is opted into.
    pub budget: RunBudget,
    /// Initial node placement; uniform by default (the mobility model's
    /// own scatter, byte-identical to pre-placement builds).
    pub placement: Placement,
    /// Insider-adversary plan; inactive by default.
    pub insiders: InsiderConfig,
}

fn default_staleness_factor() -> f64 {
    1.0
}

// Fields added after the first scenario files were written carry a
// default, so those files keep decoding to what they meant then.
alert_trace::json_struct!(ScenarioConfig {
    field_w,
    field_h,
    nodes,
    speed,
    mobility,
    mac,
    traffic,
    duration_s,
    crypto_cost,
    location,
    hello_interval_s,
    mobility_tick_s,
    pseudonym_lifetime_s,
    energy,
    neighbor_staleness_factor = default_staleness_factor(),
    faults = FaultPlan::default(),
    budget = RunBudget::default(),
    placement = Placement::default(),
    insiders = InsiderConfig::default(),
});

impl Default for ScenarioConfig {
    /// The paper's default setup: 1,000 m x 1,000 m, 200 nodes at 2 m/s
    /// (random waypoint), 250 m range, 512-byte CBR every 2 s over
    /// 10 pairs, 100 s duration.
    fn default() -> Self {
        ScenarioConfig {
            field_w: 1000.0,
            field_h: 1000.0,
            nodes: 200,
            speed: 2.0,
            mobility: MobilityKind::RandomWaypoint,
            mac: MacConfig::default(),
            traffic: TrafficConfig::default(),
            duration_s: 100.0,
            crypto_cost: CostModel::PAPER_1_8GHZ,
            location: LocationPolicy::Periodic { interval_s: 1.0 },
            hello_interval_s: 1.0,
            mobility_tick_s: 0.5,
            pseudonym_lifetime_s: 30.0,
            energy: EnergyConfig::default(),
            neighbor_staleness_factor: default_staleness_factor(),
            faults: FaultPlan::default(),
            budget: RunBudget::default(),
            placement: Placement::default(),
            insiders: InsiderConfig::default(),
        }
    }
}

impl ScenarioConfig {
    /// The network field as a rectangle anchored at the origin.
    pub fn field(&self) -> Rect {
        Rect::with_size(self.field_w, self.field_h)
    }

    /// Node density in nodes per square metre (the paper's `rho`).
    pub fn density(&self) -> f64 {
        self.nodes as f64 / (self.field_w * self.field_h)
    }

    /// Builder-style override of the node count.
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Builder-style override of the node speed.
    pub fn with_speed(mut self, speed: f64) -> Self {
        self.speed = speed;
        self
    }

    /// Builder-style override of the field dimensions.
    pub fn with_field(mut self, field_w: f64, field_h: f64) -> Self {
        self.field_w = field_w;
        self.field_h = field_h;
        self
    }

    /// Builder-style override of the node count that also rescales the
    /// field to keep density at the current `nodes / area` value: both
    /// sides grow by `sqrt(nodes / old_nodes)`. This is the shape large
    /// benchmark tiers need — a 100k-node run on the paper's fixed
    /// 1 km² field would mean ~20k neighbors per node, which measures
    /// neighbor-list churn, not event-loop throughput.
    pub fn with_nodes_scaled_field(self, nodes: usize) -> Self {
        let factor = (nodes as f64 / self.nodes.max(1) as f64).sqrt();
        let (w, h) = (self.field_w * factor, self.field_h * factor);
        self.with_nodes(nodes).with_field(w, h)
    }

    /// Builder-style override of the simulated duration.
    pub fn with_duration(mut self, duration_s: f64) -> Self {
        self.duration_s = duration_s;
        self
    }

    /// Builder-style override of the location policy.
    pub fn with_location(mut self, location: LocationPolicy) -> Self {
        self.location = location;
        self
    }

    /// Builder-style override of the mobility model.
    pub fn with_mobility(mut self, mobility: MobilityKind) -> Self {
        self.mobility = mobility;
        self
    }

    /// Builder-style override of the initial placement.
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Builder-style arming of the per-node energy meter.
    pub fn with_energy_budget(mut self, initial_j: f64) -> Self {
        self.energy.initial_j = Some(initial_j);
        self
    }

    /// Builder-style override of the insider plan.
    pub fn with_insiders(mut self, fraction: f64, mode: InsiderMode) -> Self {
        self.insiders = InsiderConfig { fraction, mode };
        self
    }

    /// Basic sanity checks; call before running.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.nodes == 0 {
            return Err(ScenarioError::NoNodes);
        }
        if self.field_w <= 0.0 || self.field_h <= 0.0 {
            return Err(ScenarioError::EmptyField);
        }
        if self.mac.range_m <= 0.0 {
            return Err(ScenarioError::NonPositiveRange);
        }
        if self.duration_s <= 0.0 {
            return Err(ScenarioError::NonPositiveDuration);
        }
        if self.traffic.pairs * 2 > self.nodes {
            return Err(ScenarioError::TooManyPairs {
                pairs: self.traffic.pairs,
                nodes: self.nodes,
            });
        }
        if !(0.0..=1.0).contains(&self.mac.loss_probability) {
            return Err(ScenarioError::InvalidLossProbability(
                self.mac.loss_probability,
            ));
        }
        if self.traffic.interval_s <= 0.0 {
            return Err(ScenarioError::NonPositiveInterval {
                which: "traffic.interval_s",
            });
        }
        if self.hello_interval_s <= 0.0 {
            return Err(ScenarioError::NonPositiveInterval {
                which: "hello_interval_s",
            });
        }
        if self.mobility_tick_s <= 0.0 {
            return Err(ScenarioError::NonPositiveInterval {
                which: "mobility_tick_s",
            });
        }
        if !self.neighbor_staleness_factor.is_finite() || self.neighbor_staleness_factor < 1.0 {
            return Err(ScenarioError::InvalidStalenessFactor(
                self.neighbor_staleness_factor,
            ));
        }
        if !self.mac.arq_backoff_base_s.is_finite() || self.mac.arq_backoff_base_s < 0.0 {
            return Err(ScenarioError::InvalidArqBackoff(
                self.mac.arq_backoff_base_s,
            ));
        }
        // Together these keep every frame's airtime finite and positive,
        // so a delivery is always scheduled strictly after its send.
        let mac = &self.mac;
        if !mac.bitrate_bps.is_finite() || mac.bitrate_bps <= 0.0 {
            return Err(ScenarioError::InvalidBitrate(mac.bitrate_bps));
        }
        if !mac.base_overhead_s.is_finite() || mac.base_overhead_s <= 0.0 {
            return Err(ScenarioError::InvalidBaseOverhead(mac.base_overhead_s));
        }
        if !mac.max_backoff_s.is_finite() || mac.max_backoff_s < 0.0 {
            return Err(ScenarioError::InvalidMaxBackoff(mac.max_backoff_s));
        }
        if !mac.contention_per_neighbor_s.is_finite() || mac.contention_per_neighbor_s < 0.0 {
            return Err(ScenarioError::InvalidContention(
                mac.contention_per_neighbor_s,
            ));
        }
        if let MobilityKind::ManhattanGrid {
            h_streets,
            v_streets,
            turn_prob,
            speed_classes,
        } = self.mobility
        {
            if h_streets == 0 || v_streets == 0 {
                return Err(ScenarioError::InvalidStreets {
                    h: h_streets,
                    v: v_streets,
                });
            }
            if !turn_prob.is_finite() || !(0.0..=1.0).contains(&turn_prob) {
                return Err(ScenarioError::InvalidTurnProbability(turn_prob));
            }
            if speed_classes == 0 {
                return Err(ScenarioError::InvalidSpeedClasses(speed_classes));
            }
        }
        if let Placement::SmallTeams {
            team_size,
            spread_m,
        } = self.placement
        {
            if team_size == 0 {
                return Err(ScenarioError::InvalidTeamSize(team_size));
            }
            if !spread_m.is_finite() || spread_m < 0.0 {
                return Err(ScenarioError::InvalidTeamSpread(spread_m));
            }
        }
        if let Some(initial) = self.energy.initial_j {
            if !initial.is_finite() || initial < 0.0 {
                return Err(ScenarioError::InvalidEnergy {
                    which: "initial_j",
                    value: initial,
                });
            }
        }
        if !self.energy.idle_watts.is_finite() || self.energy.idle_watts < 0.0 {
            return Err(ScenarioError::InvalidEnergy {
                which: "idle_watts",
                value: self.energy.idle_watts,
            });
        }
        if !self.energy.cluster_head_fraction.is_finite()
            || !(0.0..=1.0).contains(&self.energy.cluster_head_fraction)
        {
            return Err(ScenarioError::InvalidEnergy {
                which: "cluster_head_fraction",
                value: self.energy.cluster_head_fraction,
            });
        }
        if !self.energy.cluster_head_range_boost.is_finite()
            || self.energy.cluster_head_range_boost < 1.0
        {
            return Err(ScenarioError::InvalidEnergy {
                which: "cluster_head_range_boost",
                value: self.energy.cluster_head_range_boost,
            });
        }
        if !self.energy.relay_threshold_fraction.is_finite()
            || !(0.0..=1.0).contains(&self.energy.relay_threshold_fraction)
        {
            return Err(ScenarioError::InvalidEnergy {
                which: "relay_threshold_fraction",
                value: self.energy.relay_threshold_fraction,
            });
        }
        if !self.insiders.fraction.is_finite() || !(0.0..=1.0).contains(&self.insiders.fraction) {
            return Err(ScenarioError::InvalidInsiderFraction(
                self.insiders.fraction,
            ));
        }
        self.faults.validate(self.nodes)?;
        self.budget.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_section_5_2() {
        let c = ScenarioConfig::default();
        assert_eq!(c.field_w, 1000.0);
        assert_eq!(c.field_h, 1000.0);
        assert_eq!(c.nodes, 200);
        assert_eq!(c.speed, 2.0);
        assert_eq!(c.mac.range_m, 250.0);
        assert_eq!(c.traffic.packet_bytes, 512);
        assert_eq!(c.traffic.interval_s, 2.0);
        assert_eq!(c.traffic.pairs, 10);
        assert_eq!(c.duration_s, 100.0);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn density_is_nodes_per_square_metre() {
        let c = ScenarioConfig::default();
        assert!((c.density() - 200.0 / 1_000_000.0).abs() < 1e-15);
    }

    #[test]
    fn validate_rejects_bad_configs() {
        assert_eq!(
            ScenarioConfig::default().with_nodes(0).validate(),
            Err(ScenarioError::NoNodes)
        );
        assert_eq!(
            ScenarioConfig::default()
                .with_nodes(5) // 10 pairs need 20 nodes
                .validate(),
            Err(ScenarioError::TooManyPairs {
                pairs: 10,
                nodes: 5
            })
        );
        let mut c = ScenarioConfig::default();
        c.mac.loss_probability = 1.5;
        assert_eq!(
            c.validate(),
            Err(ScenarioError::InvalidLossProbability(1.5))
        );
        let c = ScenarioConfig {
            duration_s: 0.0,
            ..ScenarioConfig::default()
        };
        assert_eq!(c.validate(), Err(ScenarioError::NonPositiveDuration));
        let mut c = ScenarioConfig::default();
        c.traffic.interval_s = 0.0;
        assert_eq!(
            c.validate(),
            Err(ScenarioError::NonPositiveInterval {
                which: "traffic.interval_s"
            })
        );
        let c = ScenarioConfig {
            hello_interval_s: -1.0,
            ..ScenarioConfig::default()
        };
        assert_eq!(
            c.validate(),
            Err(ScenarioError::NonPositiveInterval {
                which: "hello_interval_s"
            })
        );
        let c = ScenarioConfig {
            mobility_tick_s: 0.0,
            ..ScenarioConfig::default()
        };
        assert_eq!(
            c.validate(),
            Err(ScenarioError::NonPositiveInterval {
                which: "mobility_tick_s"
            })
        );
        let c = ScenarioConfig {
            neighbor_staleness_factor: 0.5,
            ..ScenarioConfig::default()
        };
        assert_eq!(
            c.validate(),
            Err(ScenarioError::InvalidStalenessFactor(0.5))
        );
        let mut c = ScenarioConfig::default();
        c.mac.arq_backoff_base_s = f64::NAN;
        assert!(matches!(
            c.validate(),
            Err(ScenarioError::InvalidArqBackoff(_))
        ));
        let mut c = ScenarioConfig::default();
        c.faults.crashes.push(crate::fault::NodeCrash {
            node: 500,
            at_s: 1.0,
            recover_s: None,
        });
        assert_eq!(
            c.validate(),
            Err(ScenarioError::FaultNodeOutOfRange {
                node: 500,
                nodes: 200
            })
        );
    }

    /// The default scenario with one MAC field overwritten.
    fn with_mac(set: impl FnOnce(&mut MacConfig)) -> ScenarioConfig {
        let mut c = ScenarioConfig::default();
        set(&mut c.mac);
        c
    }

    #[test]
    fn validate_rejects_bad_bitrate() {
        for b in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = with_mac(|m| m.bitrate_bps = b).validate();
            assert!(
                matches!(err, Err(ScenarioError::InvalidBitrate(_))),
                "bitrate {b}: {err:?}"
            );
        }
        assert!(with_mac(|m| m.bitrate_bps = 1.0).validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_base_overhead() {
        for o in [0.0, -1e-3, f64::NAN, f64::INFINITY] {
            let err = with_mac(|m| m.base_overhead_s = o).validate();
            assert!(
                matches!(err, Err(ScenarioError::InvalidBaseOverhead(_))),
                "overhead {o}: {err:?}"
            );
        }
        assert!(with_mac(|m| m.base_overhead_s = 1e-9).validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_max_backoff() {
        for b in [-1e-3, f64::NAN, f64::INFINITY] {
            let err = with_mac(|m| m.max_backoff_s = b).validate();
            assert!(
                matches!(err, Err(ScenarioError::InvalidMaxBackoff(_))),
                "backoff {b}: {err:?}"
            );
        }
        assert!(with_mac(|m| m.max_backoff_s = 0.0).validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_contention() {
        for c in [-1e-6, f64::NAN, f64::NEG_INFINITY] {
            let err = with_mac(|m| m.contention_per_neighbor_s = c).validate();
            assert!(
                matches!(err, Err(ScenarioError::InvalidContention(_))),
                "contention {c}: {err:?}"
            );
        }
        assert!(with_mac(|m| m.contention_per_neighbor_s = 0.0)
            .validate()
            .is_ok());
    }

    #[test]
    fn scenario_error_messages_are_stable() {
        assert_eq!(
            ScenarioError::TooManyPairs {
                pairs: 10,
                nodes: 5
            }
            .to_string(),
            "10 S-D pairs need 20 distinct nodes but only 5 exist"
        );
        assert_eq!(
            ScenarioError::NoNodes.to_string(),
            "scenario needs at least one node"
        );
        assert_eq!(
            ScenarioError::NonPositiveInterval {
                which: "traffic.interval_s"
            }
            .to_string(),
            "traffic.interval_s must be positive"
        );
        assert_eq!(
            ScenarioError::InvalidStalenessFactor(0.5).to_string(),
            "neighbor staleness factor must be finite and >= 1, got 0.5"
        );
        assert_eq!(
            ScenarioError::FaultNodeOutOfRange { node: 7, nodes: 5 }.to_string(),
            "fault plan crashes node 7 but only 5 nodes exist"
        );
    }

    #[test]
    fn default_faults_and_arq_are_inert() {
        let c = ScenarioConfig::default();
        assert!(c.faults.is_empty());
        assert_eq!(c.mac.arq_max_retries, 0);
        assert_eq!(c.neighbor_staleness_factor, 1.0);
        assert!(c.budget.is_unlimited());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn default_scenario_knobs_are_inert() {
        let c = ScenarioConfig::default();
        assert_eq!(c.placement, Placement::Uniform);
        assert!(!c.insiders.is_active());
        assert!(!c.energy.metered());
        assert_eq!(c.energy.max_range_boost(), 1.0);
        assert_eq!(c.energy.idle_watts, 0.0);
        assert_eq!(c.energy.cluster_head_fraction, 0.0);
    }

    #[test]
    fn validate_rejects_bad_scenario_knobs() {
        let c = ScenarioConfig::default().with_mobility(MobilityKind::ManhattanGrid {
            h_streets: 0,
            v_streets: 3,
            turn_prob: 0.5,
            speed_classes: 1,
        });
        assert_eq!(
            c.validate(),
            Err(ScenarioError::InvalidStreets { h: 0, v: 3 })
        );
        let c = ScenarioConfig::default().with_mobility(MobilityKind::ManhattanGrid {
            h_streets: 2,
            v_streets: 2,
            turn_prob: 1.5,
            speed_classes: 1,
        });
        assert_eq!(
            c.validate(),
            Err(ScenarioError::InvalidTurnProbability(1.5))
        );
        let c = ScenarioConfig::default().with_mobility(MobilityKind::ManhattanGrid {
            h_streets: 2,
            v_streets: 2,
            turn_prob: 0.5,
            speed_classes: 0,
        });
        assert_eq!(c.validate(), Err(ScenarioError::InvalidSpeedClasses(0)));
        let c = ScenarioConfig::default().with_placement(Placement::SmallTeams {
            team_size: 0,
            spread_m: 50.0,
        });
        assert_eq!(c.validate(), Err(ScenarioError::InvalidTeamSize(0)));
        let c = ScenarioConfig::default().with_placement(Placement::SmallTeams {
            team_size: 3,
            spread_m: -1.0,
        });
        assert_eq!(c.validate(), Err(ScenarioError::InvalidTeamSpread(-1.0)));
        let c = ScenarioConfig::default().with_energy_budget(f64::NAN);
        assert!(matches!(
            c.validate(),
            Err(ScenarioError::InvalidEnergy {
                which: "initial_j",
                ..
            })
        ));
        let mut c = ScenarioConfig::default().with_energy_budget(50.0);
        c.energy.cluster_head_fraction = 1.2;
        assert!(matches!(
            c.validate(),
            Err(ScenarioError::InvalidEnergy {
                which: "cluster_head_fraction",
                ..
            })
        ));
        let mut c = ScenarioConfig::default();
        c.energy.cluster_head_range_boost = 0.5;
        assert!(matches!(
            c.validate(),
            Err(ScenarioError::InvalidEnergy {
                which: "cluster_head_range_boost",
                ..
            })
        ));
        let c = ScenarioConfig::default().with_insiders(2.0, InsiderMode::Drop);
        assert_eq!(
            c.validate(),
            Err(ScenarioError::InvalidInsiderFraction(2.0))
        );
        // Zero-energy start is legal: the dead-on-arrival corner.
        assert!(ScenarioConfig::default()
            .with_energy_budget(0.0)
            .validate()
            .is_ok());
    }

    #[test]
    fn new_scenario_error_messages_are_stable() {
        assert_eq!(
            ScenarioError::InvalidStreets { h: 0, v: 3 }.to_string(),
            "manhattan grid needs at least one street on each axis, got 0x3"
        );
        assert_eq!(
            ScenarioError::InvalidTurnProbability(1.5).to_string(),
            "manhattan turn probability must be in [0, 1], got 1.5"
        );
        assert_eq!(
            ScenarioError::InvalidSpeedClasses(0).to_string(),
            "manhattan grid needs at least one speed class, got 0"
        );
        assert_eq!(
            ScenarioError::InvalidTeamSize(0).to_string(),
            "small-teams placement needs team_size >= 1, got 0"
        );
        assert_eq!(
            ScenarioError::InvalidTeamSpread(-1.0).to_string(),
            "small-teams spread must be finite and non-negative, got -1"
        );
        assert_eq!(
            ScenarioError::InvalidEnergy {
                which: "initial_j",
                value: -2.0
            }
            .to_string(),
            "energy.initial_j is out of range, got -2"
        );
        assert_eq!(
            ScenarioError::InvalidInsiderFraction(2.0).to_string(),
            "insider fraction must be in [0, 1], got 2"
        );
    }

    #[test]
    fn convoy_placement_is_a_centre_line() {
        let field = Rect::with_size(1000.0, 800.0);
        let pos = Placement::Convoy.positions(field, 4, 99).unwrap();
        assert_eq!(pos.len(), 4);
        for (i, p) in pos.iter().enumerate() {
            assert_eq!(p.y, 400.0);
            assert_eq!(p.x, 1000.0 * i as f64 / 4.0);
        }
        // Placement draws no RNG for convoys, so the seed is irrelevant.
        assert_eq!(pos, Placement::Convoy.positions(field, 4, 7).unwrap());
    }

    #[test]
    fn small_teams_cluster_within_spread() {
        let field = Rect::with_size(1000.0, 1000.0);
        let placement = Placement::SmallTeams {
            team_size: 3,
            spread_m: 50.0,
        };
        let pos = placement.positions(field, 9, 5).unwrap();
        assert_eq!(pos.len(), 9);
        for team in pos.chunks(3) {
            for pair in team.windows(2) {
                // Members sit within a 2*spread*sqrt(2) diameter box
                // (before clamping, which only shrinks distances).
                assert!(pair[0].distance(pair[1]) <= 2.0 * 50.0 * std::f64::consts::SQRT_2 + 1e-9);
            }
        }
        assert_eq!(pos, placement.positions(field, 9, 5).unwrap());
        assert_ne!(pos, placement.positions(field, 9, 6).unwrap());
        // One-node teams with zero spread: every node exactly at its own
        // team center — the degenerate corner must not panic.
        let degenerate = Placement::SmallTeams {
            team_size: 1,
            spread_m: 0.0,
        };
        assert_eq!(degenerate.positions(field, 5, 1).unwrap().len(), 5);
        assert!(Placement::Uniform.positions(field, 5, 1).is_none());
    }

    #[test]
    fn insider_choose_is_deterministic_and_sized() {
        let plan = InsiderConfig {
            fraction: 0.25,
            mode: InsiderMode::Drop,
        };
        let a = plan.choose(40, 9);
        let b = plan.choose(40, 9);
        assert_eq!(a, b);
        assert_eq!(a.iter().filter(|&&c| c).count(), 10);
        assert_ne!(a, plan.choose(40, 10));
        // Active plans compromise at least one node even when rounding
        // would say zero; inactive plans compromise none.
        let tiny = InsiderConfig {
            fraction: 0.001,
            mode: InsiderMode::Log,
        };
        assert_eq!(tiny.choose(10, 3).iter().filter(|&&c| c).count(), 1);
        let off = InsiderConfig::default();
        assert!(off.choose(10, 3).iter().all(|&c| !c));
        let all = InsiderConfig {
            fraction: 1.0,
            mode: InsiderMode::ModifyStealth,
        };
        assert!(all.choose(10, 3).iter().all(|&c| c));
    }

    #[test]
    fn validate_covers_the_budget() {
        let mut c = ScenarioConfig::default();
        c.budget.max_events = Some(0);
        assert_eq!(
            c.validate(),
            Err(ScenarioError::InvalidBudget {
                which: "budget.max_events"
            })
        );
        assert_eq!(
            ScenarioError::InvalidBudget {
                which: "budget.max_events"
            }
            .to_string(),
            "budget.max_events must be positive (omit the field for no limit)"
        );
        c.budget.max_events = Some(1_000);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builders_override_fields() {
        let c = ScenarioConfig::default()
            .with_nodes(100)
            .with_speed(8.0)
            .with_duration(50.0)
            .with_location(LocationPolicy::SessionStart)
            .with_mobility(MobilityKind::Static)
            .with_field(2000.0, 1500.0);
        assert_eq!(c.nodes, 100);
        assert_eq!(c.speed, 8.0);
        assert_eq!(c.duration_s, 50.0);
        assert_eq!(c.location, LocationPolicy::SessionStart);
        assert_eq!(c.mobility, MobilityKind::Static);
        assert_eq!(c.field_w, 2000.0);
        assert_eq!(c.field_h, 1500.0);
    }

    #[test]
    fn scaled_field_preserves_density() {
        let base = ScenarioConfig::default();
        let scaled = base.clone().with_nodes_scaled_field(20_000);
        assert_eq!(scaled.nodes, 20_000);
        // 100x the population → 10x each side, same nodes per m².
        assert!((scaled.field_w - 10_000.0).abs() < 1e-9);
        assert!((scaled.field_h - 10_000.0).abs() < 1e-9);
        assert!((scaled.density() - base.density()).abs() < 1e-12);
        assert!(scaled.validate().is_ok());
    }
}
