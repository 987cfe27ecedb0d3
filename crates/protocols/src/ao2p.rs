//! AO2P — Ad hoc On-demand Position-based Private routing (Wu \[10\]),
//! reimplemented as the paper describes it in Section 5: "The routing of
//! AO2P is similar to GPSR except it has a contention phase in which the
//! neighboring nodes of the current packet holder will contend to be the
//! next hop... Also, AO2P selects a position on the line connecting the
//! source and destination that is further to the source node than the
//! destination to provide destination anonymity, which may lead to long
//! path length with higher routing cost than GPSR."
//!
//! Per-hop cost model: the holder encrypts for the next hop (public-key
//! encrypt) and the receiver decrypts (public-key decrypt) — the paper's
//! "hop-by-hop encryption" class — plus the contention-phase channel
//! delay.

use crate::forwarding::{greedy_next_hop, neighbor_by_pseudonym};
use alert_crypto::Pseudonym;
use alert_geom::Point;
use alert_sim::{Api, DataRequest, Frame, PacketId, ProtocolNode, TimerToken, TrafficClass};
use std::collections::HashMap;

/// Extra header on data packets (pseudonyms, encrypted position, class tag).
const AO2P_HEADER_BYTES: usize = 64;

/// An AO2P data packet.
#[derive(Debug, Clone)]
pub struct Ao2pMsg {
    /// Instrumentation id.
    pub packet: PacketId,
    /// Payload size in bytes.
    pub bytes: usize,
    /// The *projected* position beyond the destination on the S–D line —
    /// the real destination position never travels in the packet.
    pub proxy_target: Point,
    /// Destination pseudonym for final handover.
    pub dst: Pseudonym,
    /// Remaining hop budget.
    pub ttl: u32,
}

/// Per-node AO2P instance.
pub struct Ao2p {
    /// Hop budget.
    pub ttl: u32,
    /// Fixed part of the contention phase, seconds.
    pub contention_base_s: f64,
    /// Random part of the contention phase (uniform), seconds.
    pub contention_jitter_s: f64,
    /// How far beyond the destination the proxy position is placed, as a
    /// fraction of the S–D distance.
    pub overshoot_fraction: f64,
    /// Packets waiting out their contention phase, keyed by timer token.
    pending: HashMap<TimerToken, Ao2pMsg>,
    next_token: TimerToken,
}

impl Default for Ao2p {
    fn default() -> Self {
        Ao2p {
            ttl: 10,
            contention_base_s: 0.002,
            contention_jitter_s: 0.002,
            overshoot_fraction: 0.25,
            pending: HashMap::new(),
            // Token 0 is reserved; data tokens start at 16.
            next_token: 16,
        }
    }
}

impl Ao2p {
    /// Starts the contention phase for `msg`; the actual transmission
    /// happens when the timer fires.
    fn contend_and_forward(&mut self, api: &mut Api<'_, Ao2pMsg>, msg: Ao2pMsg) {
        if msg.ttl == 0 {
            return;
        }
        let token = self.next_token;
        self.next_token += 1;
        let delay = self.contention_base_s
            + if self.contention_jitter_s > 0.0 {
                api.rng().gen_range(0.0..self.contention_jitter_s)
            } else {
                0.0
            };
        self.pending.insert(token, msg);
        api.set_timer(delay, token);
    }

    /// Transmits a packet whose contention phase has elapsed.
    fn transmit(&mut self, api: &mut Api<'_, Ao2pMsg>, mut msg: Ao2pMsg) {
        msg.ttl -= 1;
        let neighbors = api.neighbors();
        let me = api.my_pos();
        let wire = msg.bytes + AO2P_HEADER_BYTES;
        let next = neighbor_by_pseudonym(neighbors, msg.dst)
            .or_else(|| greedy_next_hop(me, msg.proxy_target, neighbors));
        if let Some(n) = next {
            // Hop-by-hop encryption for the winning next hop.
            api.charge_pk_encrypt(1);
            api.mark_hop(msg.packet);
            api.send_unicast(
                n.pseudonym,
                msg.clone(),
                wire,
                TrafficClass::Data,
                Some(msg.packet),
            );
        }
    }
}

use alert_rng::Rng;

impl ProtocolNode for Ao2p {
    type Msg = Ao2pMsg;

    fn name() -> &'static str {
        "AO2P"
    }

    fn on_data_request(&mut self, api: &mut Api<'_, Self::Msg>, req: &DataRequest) {
        let Some(info) = api.lookup(req.dst) else {
            return;
        };
        let src = api.my_pos();
        let d = info.position;
        // Place the proxy beyond D on the S->D ray, clamped to the field.
        let overshoot = src.distance(d) * self.overshoot_fraction;
        let dir_len = src.distance(d).max(1e-9);
        let proxy = Point::new(
            d.x + (d.x - src.x) / dir_len * overshoot,
            d.y + (d.y - src.y) / dir_len * overshoot,
        );
        let proxy = api.field().clamp(proxy);
        let msg = Ao2pMsg {
            packet: req.packet,
            bytes: req.bytes,
            proxy_target: proxy,
            dst: info.pseudonym,
            ttl: self.ttl,
        };
        self.contend_and_forward(api, msg);
    }

    fn on_frame(&mut self, api: &mut Api<'_, Self::Msg>, frame: Frame<Self::Msg>) {
        let msg = frame.msg;
        // Hop-by-hop decryption at every receiver.
        api.charge_pk_decrypt(1);
        if msg.dst == api.my_pseudonym() || api.is_true_destination(msg.packet) {
            api.mark_delivered(msg.packet);
            return;
        }
        self.contend_and_forward(api, msg);
    }

    fn on_timer(&mut self, api: &mut Api<'_, Self::Msg>, token: TimerToken) {
        if let Some(msg) = self.pending.remove(&token) {
            self.transmit(api, msg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alert_sim::{ScenarioConfig, World};

    fn scenario(nodes: usize) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::default()
            .with_nodes(nodes)
            .with_duration(30.0);
        cfg.traffic.pairs = 5;
        cfg
    }

    fn run(cfg: ScenarioConfig, seed: u64) -> World<Ao2p> {
        let mut w = World::new(cfg, seed, |_, _| Ao2p::default());
        w.run();
        w
    }

    #[test]
    fn delivers_on_dense_network() {
        let w = run(scenario(200), 1);
        assert!(
            w.metrics().delivery_rate() > 0.85,
            "rate {}",
            w.metrics().delivery_rate()
        );
    }

    #[test]
    fn latency_exceeds_alarm_class_cost() {
        let w = run(scenario(200), 2);
        let lat = w.metrics().mean_latency().unwrap();
        // Encrypt + decrypt per hop at 250 ms each: a multi-hop path costs
        // a second or more — the paper's highest-latency protocol.
        assert!(lat > 0.4, "AO2P latency {lat}s too low");
    }

    #[test]
    fn proxy_target_lengthens_paths_vs_direct() {
        // The overshoot makes paths at least as long as GPSR's; compare
        // the hop metric against the GPSR run with the same seed/scenario.
        let ao2p = run(scenario(200), 3);
        let mut gpsr_w = World::new(scenario(200), 3, |_, _| crate::gpsr::Gpsr::default());
        gpsr_w.run();
        let (a, g) = (
            ao2p.metrics().hops_per_packet(),
            gpsr_w.metrics().hops_per_packet(),
        );
        assert!(
            a >= g - 0.5,
            "AO2P hops {a} should not be meaningfully below GPSR {g}"
        );
    }

    #[test]
    fn both_pk_directions_charged() {
        let w = run(scenario(100), 4);
        let c = w.metrics().crypto;
        assert!(c.pk_encrypt > 0);
        assert!(c.pk_decrypt > 0);
    }
}
