//! ZAP — anonymous geo-forwarding through location cloaking (Wu, Liu,
//! Hong & Bertino \[13\]).
//!
//! ZAP protects only the *destination*: the source greedily forwards the
//! packet towards an **anonymity zone** (a cloaked region around the
//! destination's position) and the packet is flooded within the zone, so
//! an observer learns the zone but not which member is the recipient.
//! Routes and sources are unprotected (Table 1).
//!
//! Against intersection attacks, ZAP's own countermeasure "dynamically
//! enlarges the range of anonymous zones to broadcast the messages"
//! (Section 3.3) — implemented here as a per-packet zone growth factor,
//! which is exactly the overhead-for-anonymity trade ALERT's two-step
//! delivery is designed to avoid. The `claim-defense-cost` experiment
//! compares the two.

use crate::forwarding::greedy_next_hop;
use alert_crypto::Pseudonym;
use alert_geom::{Point, Rect};
use alert_sim::{Api, DataRequest, Frame, PacketId, ProtocolNode, TrafficClass};
use std::collections::HashSet;

/// Extra header bytes on a ZAP packet (zone coordinates + pseudonyms).
const ZAP_HEADER_BYTES: usize = 48;

/// Where a ZAP packet currently is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ZapPhase {
    /// Greedy geographic forwarding towards the zone centre.
    ToZone,
    /// Scoped flood within the anonymity zone.
    Flood,
}

/// A ZAP data packet.
#[derive(Debug, Clone)]
pub struct ZapMsg {
    /// Instrumentation id.
    pub packet: PacketId,
    /// Payload bytes.
    pub bytes: usize,
    /// The cloaked anonymity zone around the destination.
    pub zone: Rect,
    /// Destination pseudonym (for final acceptance only; it never guides
    /// routing).
    pub dst: Pseudonym,
    /// Remaining hop budget.
    pub ttl: u32,
    /// Current phase.
    pub phase: ZapPhase,
}

/// Per-node ZAP instance.
pub struct Zap {
    /// Side length of the anonymity zone at session start, metres.
    pub zone_side_m: f64,
    /// Zone-side growth factor applied per packet sequence number — ZAP's
    /// intersection-attack countermeasure (1.0 = off).
    pub zone_growth: f64,
    /// Hop budget per packet.
    pub ttl: u32,
    /// Zone floods already relayed by this node.
    relayed: HashSet<PacketId>,
}

impl Default for Zap {
    fn default() -> Self {
        Zap {
            // Comparable to ALERT's H = 5 zone (~177 m equal-area side).
            zone_side_m: 180.0,
            zone_growth: 1.0,
            ttl: 24,
            relayed: HashSet::new(),
        }
    }
}

impl Zap {
    /// A ZAP with the zone-enlargement countermeasure enabled.
    pub fn with_growth(zone_growth: f64) -> Self {
        Zap {
            zone_growth,
            ..Zap::default()
        }
    }

    /// The anonymity zone for packet `seq`: a square of the configured
    /// side (grown per packet when the countermeasure is on), centred on
    /// the destination's cloaked position, clamped to the field.
    fn zone_for(&self, field: &Rect, dst_pos: Point, seq: u32) -> Rect {
        let side = (self.zone_side_m * self.zone_growth.powi(seq as i32))
            .min(field.width().min(field.height()));
        let half = side / 2.0;
        let min = Point::new(
            (dst_pos.x - half).clamp(field.min.x, field.max.x - side),
            (dst_pos.y - half).clamp(field.min.y, field.max.y - side),
        );
        Rect::new(min, Point::new(min.x + side, min.y + side))
    }

    fn forward(&mut self, api: &mut Api<'_, ZapMsg>, mut msg: ZapMsg) {
        if msg.ttl == 0 {
            api.mark_drop("zap_ttl_exhausted");
            return;
        }
        msg.ttl -= 1;
        let me = api.my_pos();
        let wire = msg.bytes + ZAP_HEADER_BYTES;
        if msg.zone.contains(me) {
            // Inside the zone: scoped flood (every zone member relays the
            // broadcast once, so all members receive — that is the
            // k-anonymity of the cloaked region).
            msg.phase = ZapPhase::Flood;
            if self.relayed.insert(msg.packet) {
                api.mark_hop(msg.packet);
                api.send_broadcast(msg.clone(), wire, TrafficClass::Data, Some(msg.packet));
            }
            return;
        }
        match greedy_next_hop(me, msg.zone.center(), api.neighbors()) {
            Some(n) => {
                api.mark_hop(msg.packet);
                api.send_unicast(
                    n.pseudonym,
                    msg.clone(),
                    wire,
                    TrafficClass::Data,
                    Some(msg.packet),
                );
            }
            None => api.mark_drop("zap_greedy_stuck"),
        }
    }
}

impl ProtocolNode for Zap {
    type Msg = ZapMsg;

    fn name() -> &'static str {
        "ZAP"
    }

    fn on_data_request(&mut self, api: &mut Api<'_, Self::Msg>, req: &DataRequest) {
        let Some(info) = api.lookup(req.dst) else {
            api.mark_drop("location_lookup_failed");
            return;
        };
        let field = api.field();
        let zone = self.zone_for(&field, field.clamp(info.position), req.seq);
        let msg = ZapMsg {
            packet: req.packet,
            bytes: req.bytes,
            zone,
            dst: info.pseudonym,
            ttl: self.ttl,
            phase: ZapPhase::ToZone,
        };
        self.forward(api, msg);
    }

    fn on_frame(&mut self, api: &mut Api<'_, Self::Msg>, frame: Frame<Self::Msg>) {
        let msg = frame.msg;
        let mine = msg.dst == api.my_pseudonym() || api.is_true_destination(msg.packet);
        if mine {
            api.mark_delivered(msg.packet);
            return;
        }
        match msg.phase {
            ZapPhase::ToZone => self.forward(api, msg),
            ZapPhase::Flood => {
                // Flood relays only propagate within the zone.
                if msg.zone.contains(api.my_pos()) && msg.ttl > 0 && self.relayed.insert(msg.packet)
                {
                    let mut msg = msg;
                    msg.ttl -= 1;
                    let wire = msg.bytes + ZAP_HEADER_BYTES;
                    api.mark_hop(msg.packet);
                    api.send_broadcast(msg.clone(), wire, TrafficClass::Data, Some(msg.packet));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alert_sim::{Metrics, ScenarioConfig, World};

    fn scenario() -> ScenarioConfig {
        let mut cfg = ScenarioConfig::default()
            .with_nodes(200)
            .with_duration(30.0);
        cfg.traffic.pairs = 5;
        cfg
    }

    fn run(growth: f64, seed: u64) -> Metrics {
        let mut w = World::new(scenario(), seed, move |_, _| Zap::with_growth(growth));
        w.run();
        w.metrics().clone()
    }

    #[test]
    fn delivers_on_dense_network() {
        let m = run(1.0, 1);
        assert!(m.delivery_rate() > 0.9, "rate {}", m.delivery_rate());
    }

    #[test]
    fn zone_flood_costs_more_hops_than_gpsr() {
        let zap = run(1.0, 2);
        let mut w = World::new(scenario(), 2, |_, _| crate::gpsr::Gpsr::default());
        w.run();
        let gpsr = w.metrics().clone();
        assert!(
            zap.hops_per_packet() > gpsr.hops_per_packet() + 1.0,
            "ZAP floods must cost hops: {} vs GPSR {}",
            zap.hops_per_packet(),
            gpsr.hops_per_packet()
        );
    }

    #[test]
    fn zone_growth_inflates_overhead() {
        // The countermeasure grows the flooded region every packet: hop
        // cost rises sharply over a session.
        let plain = run(1.0, 3);
        let defended = run(1.05, 3); // +5% side per packet
        assert!(
            defended.hops_per_packet() > plain.hops_per_packet() * 1.5,
            "growth 1.05 should inflate hops: {} vs {}",
            defended.hops_per_packet(),
            plain.hops_per_packet()
        );
    }

    #[test]
    fn zone_stays_in_field() {
        let zap = Zap::default();
        let field = Rect::with_size(1000.0, 1000.0);
        for (x, y) in [(5.0, 5.0), (995.0, 995.0), (500.0, 2.0)] {
            let z = zap.zone_for(&field, Point::new(x, y), 0);
            assert!(field.contains_rect(&z), "zone {z} escapes at ({x},{y})");
            assert!(z.contains(Point::new(x, y)) || z.distance_to_point(Point::new(x, y)) < 1.0);
        }
        // Growth caps at the field size.
        let huge = Zap::with_growth(2.0).zone_for(&field, Point::new(500.0, 500.0), 30);
        assert!(field.contains_rect(&huge));
    }

    #[test]
    fn no_source_anonymity_no_crypto() {
        let m = run(1.0, 4);
        assert_eq!(m.cover_frames, 0, "ZAP has no notify-and-go");
        assert_eq!(m.crypto.symmetric + m.crypto.pk_encrypt, 0);
    }
}
