//! Ground-truth instrumentation for the paper's six evaluation metrics
//! (Section 5.2): actual participating nodes, random forwarders, remaining
//! nodes in the destination zone, hops per packet, latency per packet, and
//! delivery rate.

use crate::ids::{NodeId, PacketId, SessionId};
use alert_crypto::CryptoOps;
use alert_trace::DropReason;
use std::collections::BTreeSet;

/// Per-application-packet record.
#[derive(Debug, Clone)]
pub struct PacketRecord {
    /// Which S–D pair this packet belongs to.
    pub session: SessionId,
    /// Sequence number of the packet within its session.
    pub seq: u32,
    /// True source node.
    pub src: NodeId,
    /// True destination node.
    pub dst: NodeId,
    /// Application send time in seconds.
    pub sent_at: f64,
    /// Payload size in bytes.
    pub bytes: usize,
    /// First time the true destination received it, if ever.
    pub delivered_at: Option<f64>,
    /// Number of wireless transmissions this packet incurred (the paper's
    /// accumulated hop count; broadcasts count once per transmission).
    pub hops: u32,
    /// Number of random forwarders on the path (ALERT only; zero for the
    /// greedy baselines).
    pub random_forwarders: u32,
    /// Every node that transmitted this packet (ground truth, ordered).
    pub participants: Vec<NodeId>,
}

impl PacketRecord {
    /// End-to-end latency in seconds, when delivered.
    pub fn latency(&self) -> Option<f64> {
        self.delivered_at.map(|t| t - self.sent_at)
    }
}

/// All measurements from a single simulation run.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// One record per application packet, indexed by [`PacketId`].
    pub packets: Vec<PacketRecord>,
    /// Control-plane frames (hello beacons, ALARM dissemination, AO2P
    /// contention, notify-and-go notifications...).
    pub control_frames: u64,
    /// Total control-plane bytes.
    pub control_bytes: u64,
    /// Control-plane transmissions counted as routing hops (the paper adds
    /// ALARM's id-dissemination hops to its per-packet hop metric).
    pub control_hops: u64,
    /// Cover-traffic frames from "notify and go" (Section 2.6).
    pub cover_frames: u64,
    /// Location-service messages (lookups + position updates).
    pub location_messages: u64,
    /// Crypto operations performed across all nodes.
    pub crypto: CryptoOps,
    /// Packet-drop events by reason (diagnostics; a packet can appear
    /// under several reasons across retransmission attempts).
    pub drops: std::collections::BTreeMap<String, u64>,
    /// Radio energy spent transmitting, joules (airtime x tx power, all
    /// traffic classes including beacons and cover packets).
    pub energy_tx_j: f64,
    /// Radio energy spent receiving, joules (one receive per resolved
    /// frame delivery).
    pub energy_rx_j: f64,
    /// Per-node energy-meter accounting; all-zero unless the scenario arms
    /// `energy.initial_j`.
    pub node_energy: NodeEnergyAccounting,
}

/// Drain accounting for the per-node energy meter, split by cause. The
/// energy-conservation oracle checks `drained_j == tx + rx + idle + beacon`
/// and that drained energy equals the sum of what every meter lost.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeEnergyAccounting {
    /// Total joules drained from all meters, all causes.
    pub drained_j: f64,
    /// Joules drained by data-plane transmissions.
    pub tx_j: f64,
    /// Joules drained by data-plane receptions.
    pub rx_j: f64,
    /// Joules drained by idle baseline draw.
    pub idle_j: f64,
    /// Joules drained by hello beaconing (tx and rx sides).
    pub beacon_j: f64,
    /// Nodes that ran their meter to zero and died.
    pub deaths: u64,
}

impl Metrics {
    /// Registers a new application packet; returns its id.
    pub fn register_packet(
        &mut self,
        session: SessionId,
        seq: u32,
        src: NodeId,
        dst: NodeId,
        sent_at: f64,
        bytes: usize,
    ) -> PacketId {
        let id = PacketId(self.packets.len() as u64);
        self.packets.push(PacketRecord {
            session,
            seq,
            src,
            dst,
            sent_at,
            bytes,
            delivered_at: None,
            hops: 0,
            random_forwarders: 0,
            participants: Vec::new(),
        });
        id
    }

    /// Records one wireless transmission of packet `id` by `node`.
    pub fn record_hop(&mut self, id: PacketId, node: NodeId) {
        let r = &mut self.packets[id.0 as usize];
        r.hops += 1;
        // Participants are kept in transmission order, deduplicated.
        if !r.participants.contains(&node) {
            r.participants.push(node);
        }
    }

    /// Marks `node` as a random forwarder for packet `id`.
    pub fn record_random_forwarder(&mut self, id: PacketId, node: NodeId) {
        let r = &mut self.packets[id.0 as usize];
        r.random_forwarders += 1;
        if !r.participants.contains(&node) {
            r.participants.push(node);
        }
    }

    /// Records the first delivery of packet `id` to the true destination.
    /// Duplicate deliveries (rebroadcasts in the destination zone) are
    /// ignored.
    pub fn record_delivery(&mut self, id: PacketId, at: f64) {
        let r = &mut self.packets[id.0 as usize];
        if r.delivered_at.is_none() {
            r.delivered_at = Some(at);
        }
    }

    /// Fraction of packets delivered to their true destination.
    ///
    /// A zero-traffic run (no application packets) reports `0.0`, never
    /// NaN — all `f64` ratio helpers on [`Metrics`] share this contract
    /// so sweep reductions cannot be poisoned by an idle scenario. The
    /// one exception is [`Metrics::energy_per_delivered_packet_j`],
    /// whose NaN-on-zero-delivered behaviour is documented there.
    pub fn delivery_rate(&self) -> f64 {
        if self.packets.is_empty() {
            return 0.0;
        }
        let delivered = self
            .packets
            .iter()
            .filter(|p| p.delivered_at.is_some())
            .count();
        delivered as f64 / self.packets.len() as f64
    }

    /// Mean end-to-end latency over delivered packets, seconds.
    pub fn mean_latency(&self) -> Option<f64> {
        let lats: Vec<f64> = self.packets.iter().filter_map(|p| p.latency()).collect();
        if lats.is_empty() {
            None
        } else {
            Some(lats.iter().sum::<f64>() / lats.len() as f64)
        }
    }

    /// The paper's hops-per-packet: accumulated data-plane hop counts
    /// divided by the number of packets sent. `0.0` when no packets were
    /// sent (see [`Metrics::delivery_rate`] for the shared contract).
    pub fn hops_per_packet(&self) -> f64 {
        if self.packets.is_empty() {
            return 0.0;
        }
        let hops: u64 = self.packets.iter().map(|p| u64::from(p.hops)).sum();
        hops as f64 / self.packets.len() as f64
    }

    /// Hops-per-packet including control-plane hops — the paper's
    /// "ALARM (include id dissemination hops)" variant (Fig. 15). `0.0`
    /// when no packets were sent.
    pub fn hops_per_packet_with_control(&self) -> f64 {
        if self.packets.is_empty() {
            return 0.0;
        }
        let hops: u64 = self.packets.iter().map(|p| u64::from(p.hops)).sum();
        (hops + self.control_hops) as f64 / self.packets.len() as f64
    }

    /// Mean number of random forwarders per packet. `0.0` when no
    /// packets were sent.
    pub fn mean_random_forwarders(&self) -> f64 {
        if self.packets.is_empty() {
            return 0.0;
        }
        let rfs: u64 = self
            .packets
            .iter()
            .map(|p| u64::from(p.random_forwarders))
            .sum();
        rfs as f64 / self.packets.len() as f64
    }

    /// Cumulative actual-participating-node counts for one session: entry
    /// `i` is the size of the union of participant sets over the first
    /// `i + 1` packets of the session (Fig. 10a's y-axis, per pair).
    pub fn cumulative_participants(&self, session: SessionId) -> Vec<usize> {
        let mut union: BTreeSet<NodeId> = BTreeSet::new();
        let mut out = Vec::new();
        let mut pkts: Vec<&PacketRecord> = self
            .packets
            .iter()
            .filter(|p| p.session == session)
            .collect();
        pkts.sort_by_key(|a| a.seq);
        for p in pkts {
            union.extend(p.participants.iter().copied());
            out.push(union.len());
        }
        out
    }

    /// Mean cumulative-participant curve across all sessions, truncated to
    /// the shortest session.
    pub fn mean_cumulative_participants(&self) -> Vec<f64> {
        let sessions: BTreeSet<SessionId> = self.packets.iter().map(|p| p.session).collect();
        let curves: Vec<Vec<usize>> = sessions
            .iter()
            .map(|s| self.cumulative_participants(*s))
            .filter(|c| !c.is_empty())
            .collect();
        if curves.is_empty() {
            return Vec::new();
        }
        let n = curves.iter().map(Vec::len).min().unwrap_or(0);
        (0..n)
            .map(|i| curves.iter().map(|c| c[i] as f64).sum::<f64>() / curves.len() as f64)
            .collect()
    }

    /// Number of application packets sent.
    pub fn packets_sent(&self) -> usize {
        self.packets.len()
    }

    /// Records a drop event under `reason`.
    ///
    /// Accepts the typed [`DropReason`] or a `&'static str` (canonicalised
    /// through [`DropReason::from`]); both produce the same stable string
    /// keys in [`Metrics::drops`].
    pub fn record_drop(&mut self, reason: impl Into<DropReason>) {
        // Owns a key only for a reason's first drop.
        let reason = reason.into().as_str();
        match self.drops.get_mut(reason) {
            Some(n) => *n += 1,
            None => {
                self.drops.insert(reason.to_owned(), 1);
            }
        }
    }

    /// The number of drops recorded under `reason` (0 if none).
    pub fn drop_count(&self, reason: impl Into<DropReason>) -> u64 {
        self.drops.get(reason.into().as_str()).copied().unwrap_or(0)
    }

    /// The `p`-th percentile of end-to-end latency over delivered packets
    /// (`p` in [0, 100], nearest-rank). `None` when nothing was delivered.
    pub fn latency_percentile(&self, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p), "percentile in [0, 100]");
        let mut lats: Vec<f64> = self.packets.iter().filter_map(|pk| pk.latency()).collect();
        if lats.is_empty() {
            return None;
        }
        lats.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let rank = ((p / 100.0) * (lats.len() - 1) as f64).round() as usize;
        Some(lats[rank])
    }

    /// A one-paragraph human-readable summary of this run, suitable for
    /// CLI output and logs.
    pub fn summary(&self) -> String {
        let lat = |p: f64| {
            self.latency_percentile(p)
                .map_or("-".into(), |v| format!("{:.1}", v * 1000.0))
        };
        format!(
            "packets {} | delivery {:.3} | latency ms p50/p90/p99 {}/{}/{} | \
hops/pkt {:.2} | RFs/pkt {:.2} | control frames {} | cover {} | drops {:?}",
            self.packets_sent(),
            self.delivery_rate(),
            lat(50.0),
            lat(90.0),
            lat(99.0),
            self.hops_per_packet(),
            self.mean_random_forwarders(),
            self.control_frames,
            self.cover_frames,
            self.drops,
        )
    }

    /// CPU energy implied by the recorded crypto operations under the
    /// given cost and power models, joules.
    pub fn cpu_energy_j(&self, cost: &alert_crypto::CostModel, cpu_watts: f64) -> f64 {
        self.crypto.total_seconds(cost) * cpu_watts
    }

    /// Total network energy per *delivered* packet, joules — radio
    /// transmit + receive + crypto CPU. The paper's summary claim
    /// ("significantly lower energy consumption compared to AO2P and
    /// ALARM") is about this quantity.
    ///
    /// Unlike the per-*sent* ratios, this deliberately returns NaN when
    /// nothing was delivered: energy was spent, so reporting `0.0` would
    /// read as "free", and there is no packet count to amortize over.
    /// Sweep reductions handle this — `Stat::from_samples` discards
    /// non-finite samples and counts them in `Stat::discarded`.
    pub fn energy_per_delivered_packet_j(
        &self,
        cost: &alert_crypto::CostModel,
        cpu_watts: f64,
    ) -> f64 {
        let delivered = self
            .packets
            .iter()
            .filter(|p| p.delivered_at.is_some())
            .count();
        if delivered == 0 {
            return f64::NAN;
        }
        (self.energy_tx_j + self.energy_rx_j + self.cpu_energy_j(cost, cpu_watts))
            / delivered as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(m: &mut Metrics, session: u32, seq: u32) -> PacketId {
        m.register_packet(
            SessionId(session),
            seq,
            NodeId(0),
            NodeId(1),
            seq as f64,
            512,
        )
    }

    #[test]
    fn delivery_rate_counts_first_delivery_only() {
        let mut m = Metrics::default();
        let a = pid(&mut m, 0, 0);
        let _b = pid(&mut m, 0, 1);
        m.record_delivery(a, 1.5);
        m.record_delivery(a, 2.5); // duplicate, ignored
        assert_eq!(m.delivery_rate(), 0.5);
        assert_eq!(m.packets[0].delivered_at, Some(1.5));
        assert_eq!(m.mean_latency(), Some(1.5));
    }

    #[test]
    fn hops_per_packet_divides_by_all_sent() {
        let mut m = Metrics::default();
        let a = pid(&mut m, 0, 0);
        let _b = pid(&mut m, 0, 1); // never forwarded
        for n in [2, 3, 4] {
            m.record_hop(a, NodeId(n));
        }
        assert_eq!(m.hops_per_packet(), 1.5);
        m.control_hops = 3;
        assert_eq!(m.hops_per_packet_with_control(), 3.0);
    }

    #[test]
    fn participants_deduplicate() {
        let mut m = Metrics::default();
        let a = pid(&mut m, 0, 0);
        m.record_hop(a, NodeId(5));
        m.record_hop(a, NodeId(5));
        m.record_random_forwarder(a, NodeId(5));
        m.record_hop(a, NodeId(6));
        assert_eq!(m.packets[0].participants, vec![NodeId(5), NodeId(6)]);
        assert_eq!(m.packets[0].hops, 3);
        assert_eq!(m.packets[0].random_forwarders, 1);
    }

    #[test]
    fn cumulative_participants_grows_monotonically() {
        let mut m = Metrics::default();
        let a = pid(&mut m, 0, 0);
        let b = pid(&mut m, 0, 1);
        let c = pid(&mut m, 0, 2);
        m.record_hop(a, NodeId(10));
        m.record_hop(a, NodeId(11));
        m.record_hop(b, NodeId(11)); // no new nodes
        m.record_hop(c, NodeId(12));
        assert_eq!(m.cumulative_participants(SessionId(0)), vec![2, 2, 3]);
    }

    #[test]
    fn mean_cumulative_truncates_to_shortest() {
        let mut m = Metrics::default();
        let a = pid(&mut m, 0, 0);
        let b = pid(&mut m, 1, 0);
        let c = pid(&mut m, 1, 1);
        m.record_hop(a, NodeId(1));
        m.record_hop(b, NodeId(2));
        m.record_hop(c, NodeId(3));
        // session 0 has 1 packet, session 1 has 2: curve truncates to 1.
        assert_eq!(m.mean_cumulative_participants(), vec![1.0]);
    }

    #[test]
    fn latency_percentiles_nearest_rank() {
        let mut m = Metrics::default();
        for i in 0..10u32 {
            let id = pid(&mut m, 0, i);
            // latencies 0.01 .. 0.10
            m.record_delivery(id, i as f64 + 0.01 * (i + 1) as f64);
        }
        let p50 = m.latency_percentile(50.0).unwrap();
        assert!((p50 - 0.06).abs() < 1e-9, "p50 {p50}");
        let p0 = m.latency_percentile(0.0).unwrap();
        assert!((p0 - 0.01).abs() < 1e-9);
        let p100 = m.latency_percentile(100.0).unwrap();
        assert!((p100 - 0.10).abs() < 1e-9);
        assert!(m.latency_percentile(90.0).unwrap() >= p50);
    }

    #[test]
    fn percentile_of_empty_is_none() {
        let m = Metrics::default();
        assert!(m.latency_percentile(50.0).is_none());
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn percentile_out_of_range_panics() {
        Metrics::default().latency_percentile(150.0);
    }

    #[test]
    fn summary_mentions_key_fields() {
        let mut m = Metrics::default();
        let id = pid(&mut m, 0, 0);
        m.record_delivery(id, 0.5);
        let text = m.summary();
        assert!(text.contains("delivery 1.000"));
        assert!(text.contains("p50"));
    }

    #[test]
    fn typed_and_string_drops_share_keys() {
        let mut m = Metrics::default();
        m.record_drop("unicast_out_of_range");
        m.record_drop(DropReason::UnicastOutOfRange);
        m.record_drop("custom_protocol_reason");
        assert_eq!(m.drops["unicast_out_of_range"], 2);
        assert_eq!(m.drop_count(DropReason::UnicastOutOfRange), 2);
        assert_eq!(m.drop_count("custom_protocol_reason"), 1);
        assert_eq!(m.drop_count("never_seen"), 0);
    }

    #[test]
    fn empty_metrics_are_safe() {
        let m = Metrics::default();
        assert_eq!(m.delivery_rate(), 0.0);
        assert_eq!(m.mean_latency(), None);
        assert_eq!(m.hops_per_packet(), 0.0);
        assert!(m.mean_cumulative_participants().is_empty());
    }

    #[test]
    fn zero_traffic_ratios_are_zero_not_nan() {
        // The documented contract: every per-sent ratio reports 0.0 on a
        // zero-traffic run, so sweeps over idle scenarios stay finite.
        let m = Metrics::default();
        assert_eq!(m.delivery_rate(), 0.0);
        assert_eq!(m.hops_per_packet(), 0.0);
        assert_eq!(m.hops_per_packet_with_control(), 0.0);
        assert_eq!(m.mean_random_forwarders(), 0.0);
        assert_eq!(m.latency_percentile(50.0), None);
    }

    #[test]
    fn energy_per_delivered_is_nan_without_deliveries() {
        // The documented exception: energy cannot be amortized over zero
        // delivered packets, and 0.0 would misread as "free".
        let mut m = Metrics {
            energy_tx_j: 3.0,
            ..Metrics::default()
        };
        assert!(m
            .energy_per_delivered_packet_j(&alert_crypto::CostModel::PAPER_1_8GHZ, 0.5)
            .is_nan());
        // An undelivered packet doesn't change that.
        pid(&mut m, 0, 0);
        assert!(m
            .energy_per_delivered_packet_j(&alert_crypto::CostModel::PAPER_1_8GHZ, 0.5)
            .is_nan());
    }
}
