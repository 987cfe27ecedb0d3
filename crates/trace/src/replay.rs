//! Trace replay: fold an event stream back into per-packet journeys and
//! aggregate counters.
//!
//! This is the correctness oracle half of the trace layer: the
//! simulator's tests reconstruct each packet's hop path from the trace
//! and assert it matches the ground-truth `Metrics` bookkeeping, so any
//! divergence between what the simulator *did* and what it *reported*
//! fails loudly.

use crate::event::TraceEvent;
use std::collections::BTreeMap;

/// One packet's journey reconstructed from a trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PacketTrace {
    /// Session the packet belongs to (from `app_send`).
    pub session: Option<u64>,
    /// Source node (from `app_send`).
    pub src: Option<u64>,
    /// Destination node (from `app_send`).
    pub dst: Option<u64>,
    /// Sim time the application emitted the packet.
    pub sent_at: Option<f64>,
    /// Nodes that transmitted the packet (`hop`/`rf` events), in
    /// first-touch order, deduplicated — exactly the semantics of
    /// `Metrics.packets[].participants`.
    pub participants: Vec<u64>,
    /// Total hop events (including repeat visits).
    pub hops: u64,
    /// Number of random-forwarder selections on the path.
    pub random_forwarders: u64,
    /// Zone-partition decisions made while routing this packet.
    pub zone_partitions: u64,
    /// Sim time of first delivery, if the packet arrived.
    pub delivered_at: Option<f64>,
    /// First-delivery latency reported in the trace, if any.
    pub latency: Option<f64>,
    /// Drop reasons recorded against this packet.
    pub drops: Vec<String>,
    /// Link-layer ARQ retransmissions charged to this packet
    /// (`link_retry` events).
    pub retries: u64,
}

impl PacketTrace {
    fn touch(&mut self, node: u64) {
        if !self.participants.contains(&node) {
            self.participants.push(node);
        }
    }
}

/// Folds a trace into per-packet journeys, keyed by packet id.
///
/// Only events carrying a packet id contribute; `tx`/`drop` events with
/// `packet: None` (control traffic) are ignored here.
pub fn reconstruct_packets(events: &[TraceEvent]) -> BTreeMap<u64, PacketTrace> {
    let mut packets: BTreeMap<u64, PacketTrace> = BTreeMap::new();
    for ev in events {
        match ev {
            TraceEvent::AppSend {
                time,
                packet,
                session,
                src,
                dst,
                ..
            } => {
                let p = packets.entry(*packet).or_default();
                p.session = Some(*session);
                p.src = Some(*src);
                p.dst = Some(*dst);
                p.sent_at = Some(*time);
            }
            TraceEvent::Hop { node, packet, .. } => {
                let p = packets.entry(*packet).or_default();
                p.hops += 1;
                p.touch(*node);
            }
            TraceEvent::RandomForwarder { node, packet, .. } => {
                let p = packets.entry(*packet).or_default();
                p.random_forwarders += 1;
                p.touch(*node);
            }
            TraceEvent::ZonePartition { packet, .. } => {
                packets.entry(*packet).or_default().zone_partitions += 1;
            }
            TraceEvent::Delivered {
                time,
                packet,
                latency,
                ..
            } => {
                // The destination *receives*; it only joins `participants`
                // if it also transmitted (a `hop` event) — mirroring the
                // ground-truth `Metrics` semantics.
                let p = packets.entry(*packet).or_default();
                if p.delivered_at.is_none() {
                    p.delivered_at = Some(*time);
                    p.latency = Some(*latency);
                }
            }
            TraceEvent::Drop {
                packet: Some(packet),
                reason,
                ..
            } => {
                packets
                    .entry(*packet)
                    .or_default()
                    .drops
                    .push(reason.to_string());
            }
            TraceEvent::LinkRetry {
                packet: Some(packet),
                ..
            } => {
                packets.entry(*packet).or_default().retries += 1;
            }
            _ => {}
        }
    }
    packets
}

/// Aggregate counters derived purely from a trace, for cross-checking
/// against the simulator's own `Metrics`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceStats {
    /// Total `tx` events (frames put on the air).
    pub tx_frames: u64,
    /// Total `rx` events (frames received).
    pub rx_frames: u64,
    /// Application packets emitted (`app_send` events).
    pub app_packets: u64,
    /// Packets with at least one `delivered` event.
    pub delivered_packets: u64,
    /// Drop counts keyed by reason string.
    pub drops_by_reason: BTreeMap<String, u64>,
    /// Timer fires.
    pub timer_fires: u64,
    /// Pseudonym rotations.
    pub pseudonym_rotations: u64,
    /// Location-service lookups (hit or miss).
    pub location_lookups: u64,
    /// Node crashes (`node_down` events).
    pub node_downs: u64,
    /// Node recoveries (`node_up` events).
    pub node_ups: u64,
    /// Link-layer ARQ retransmissions (`link_retry` events).
    pub link_retries: u64,
}

/// Computes [`TraceStats`] over a trace.
pub fn trace_stats(events: &[TraceEvent]) -> TraceStats {
    let mut s = TraceStats::default();
    let mut delivered = std::collections::BTreeSet::new();
    for ev in events {
        match ev {
            TraceEvent::Tx { .. } => s.tx_frames += 1,
            TraceEvent::Rx { .. } => s.rx_frames += 1,
            TraceEvent::AppSend { .. } => s.app_packets += 1,
            TraceEvent::Delivered { packet, .. } => {
                delivered.insert(*packet);
            }
            TraceEvent::Drop { reason, .. } => {
                *s.drops_by_reason.entry(reason.to_string()).or_insert(0) += 1;
            }
            TraceEvent::TimerFire { .. } => s.timer_fires += 1,
            TraceEvent::PseudonymRotation { .. } => s.pseudonym_rotations += 1,
            TraceEvent::LocationLookup { .. } => s.location_lookups += 1,
            TraceEvent::NodeDown { .. } => s.node_downs += 1,
            TraceEvent::NodeUp { .. } => s.node_ups += 1,
            TraceEvent::LinkRetry { .. } => s.link_retries += 1,
            _ => {}
        }
    }
    s.delivered_packets = delivered.len() as u64;
    s
}

/// Per-node outage intervals reconstructed from `node_down`/`node_up`
/// events, keyed by node id. An interval still open at end-of-trace has
/// `end == f64::INFINITY`.
///
/// Together with [`reconstruct_packets`] this is the oracle for the
/// fault-injection invariant: a node must not appear in any packet's
/// participant set (hop/random-forwarder events) at a time inside one of
/// its outage intervals.
pub fn down_intervals(events: &[TraceEvent]) -> BTreeMap<u64, Vec<(f64, f64)>> {
    let mut out: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for ev in events {
        match ev {
            TraceEvent::NodeDown { time, node } => {
                out.entry(*node).or_default().push((*time, f64::INFINITY));
            }
            TraceEvent::NodeUp { time, node } => {
                if let Some(iv) = out
                    .entry(*node)
                    .or_default()
                    .iter_mut()
                    .rev()
                    .find(|iv| iv.1.is_infinite())
                {
                    iv.1 = *time;
                }
            }
            _ => {}
        }
    }
    out
}

/// Streaming checker for the fault-injection invariant documented on
/// [`down_intervals`]: between its `node_down` and the matching `node_up`
/// a crashed node's radio and CPU are off, so no trace event may attribute
/// *activity* to it — no transmission, reception, hop, random-forwarder
/// selection, delivery, timer fire, pseudonym rotation, location lookup,
/// crypto charge, zone partition, or forwarder selection.
///
/// `drop` events are exempt (the simulator legitimately records e.g.
/// `receiver_node_down` *against* the crashed node), as is `app_send`
/// (the application layer generates packets for a crashed source; the
/// packet then surfaces as a `source_node_down` drop).
///
/// Boundary semantics follow stream order, which is dispatch order: fault
/// events are scheduled before any traffic, so at equal timestamps a crash
/// precedes a same-time delivery, and activity at exactly the recovery
/// time is legal because the `node_up` record streams first.
#[derive(Debug, Default)]
pub struct DownNodeAudit {
    down: std::collections::BTreeSet<u64>,
    violations: Vec<String>,
}

impl DownNodeAudit {
    /// A fresh audit with no nodes down.
    pub fn new() -> DownNodeAudit {
        DownNodeAudit::default()
    }

    /// Feeds one event, in trace order.
    pub fn observe(&mut self, ev: &TraceEvent) {
        let activity: Option<(f64, u64)> = match ev {
            TraceEvent::NodeDown { node, .. } => {
                self.down.insert(*node);
                None
            }
            TraceEvent::NodeUp { node, .. } => {
                self.down.remove(node);
                None
            }
            TraceEvent::Tx { time, node, .. }
            | TraceEvent::Rx { time, node, .. }
            | TraceEvent::Hop { time, node, .. }
            | TraceEvent::RandomForwarder { time, node, .. }
            | TraceEvent::Delivered { time, node, .. }
            | TraceEvent::TimerFire { time, node, .. }
            | TraceEvent::PseudonymRotation { time, node }
            | TraceEvent::LocationLookup { time, node, .. }
            | TraceEvent::CryptoCharge { time, node, .. }
            | TraceEvent::ZonePartition { time, node, .. }
            | TraceEvent::ForwarderSelect { time, node, .. } => Some((*time, *node)),
            _ => None,
        };
        if let Some((time, node)) = activity {
            if self.down.contains(&node) {
                self.violations.push(format!(
                    "node {node} recorded `{}` activity at t={time} inside a down interval",
                    ev.kind()
                ));
            }
        }
    }

    /// The violations collected so far.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Consumes the audit, returning every violation.
    pub fn into_violations(self) -> Vec<String> {
        self.violations
    }
}

/// Folds [`DownNodeAudit`] over a complete trace: every event that
/// attributes activity to a node inside one of its down intervals, as
/// human-readable violation strings. An empty result means the trace
/// honors the fault-injection invariant.
pub fn down_node_activity(events: &[TraceEvent]) -> Vec<String> {
    let mut audit = DownNodeAudit::new();
    for ev in events {
        audit.observe(ev);
    }
    audit.into_violations()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{TrafficKind, TxKind};

    fn sample_trace() -> Vec<TraceEvent> {
        vec![
            TraceEvent::AppSend {
                time: 1.0,
                packet: 0,
                session: 0,
                seq: 0,
                src: 3,
                dst: 9,
            },
            TraceEvent::Tx {
                time: 1.0,
                node: 3,
                kind: TxKind::Unicast,
                class: TrafficKind::Data,
                bytes: 532,
                packet: Some(0),
            },
            TraceEvent::Hop {
                time: 1.01,
                node: 5,
                packet: 0,
            },
            TraceEvent::Rx {
                time: 1.01,
                node: 5,
                kind: TxKind::Unicast,
                bytes: 532,
                at: 1.01,
            },
            TraceEvent::RandomForwarder {
                time: 1.01,
                node: 5,
                packet: 0,
            },
            TraceEvent::ZonePartition {
                time: 1.01,
                node: 5,
                packet: 0,
                splits: 2,
                td_x: 10.0,
                td_y: 20.0,
            },
            TraceEvent::Hop {
                time: 1.02,
                node: 5,
                packet: 0,
            },
            TraceEvent::Delivered {
                time: 1.03,
                node: 9,
                packet: 0,
                latency: 0.03,
            },
            // duplicate delivery must not overwrite the first
            TraceEvent::Delivered {
                time: 2.0,
                node: 9,
                packet: 0,
                latency: 1.0,
            },
            TraceEvent::AppSend {
                time: 1.5,
                packet: 1,
                session: 1,
                seq: 0,
                src: 4,
                dst: 8,
            },
            TraceEvent::Drop {
                time: 1.6,
                node: 4,
                reason: "leg_ttl_exhausted".into(),
                packet: Some(1),
            },
            TraceEvent::Drop {
                time: 1.7,
                node: 7,
                reason: "unicast_channel_loss".into(),
                packet: None,
            },
            TraceEvent::LinkRetry {
                time: 1.65,
                node: 4,
                packet: Some(1),
                attempt: 1,
            },
            TraceEvent::NodeDown { time: 5.0, node: 7 },
            TraceEvent::NodeUp { time: 9.0, node: 7 },
            TraceEvent::NodeDown {
                time: 12.0,
                node: 7,
            },
        ]
    }

    #[test]
    fn reconstructs_packet_journeys() {
        let packets = reconstruct_packets(&sample_trace());
        assert_eq!(packets.len(), 2);
        let p0 = &packets[&0];
        assert_eq!(p0.src, Some(3));
        assert_eq!(p0.dst, Some(9));
        assert_eq!(p0.session, Some(0));
        assert_eq!(p0.sent_at, Some(1.0));
        assert_eq!(p0.participants, vec![5]);
        assert_eq!(p0.hops, 2);
        assert_eq!(p0.random_forwarders, 1);
        assert_eq!(p0.zone_partitions, 1);
        assert_eq!(p0.delivered_at, Some(1.03));
        assert_eq!(p0.latency, Some(0.03));
        let p1 = &packets[&1];
        assert_eq!(p1.delivered_at, None);
        assert_eq!(p1.drops, vec!["leg_ttl_exhausted".to_owned()]);
        assert_eq!(p1.retries, 1);
        assert_eq!(p0.retries, 0);
    }

    #[test]
    fn stats_count_by_kind() {
        let s = trace_stats(&sample_trace());
        assert_eq!(s.tx_frames, 1);
        assert_eq!(s.rx_frames, 1);
        assert_eq!(s.app_packets, 2);
        assert_eq!(s.delivered_packets, 1);
        assert_eq!(s.drops_by_reason["leg_ttl_exhausted"], 1);
        assert_eq!(s.drops_by_reason["unicast_channel_loss"], 1);
        assert_eq!(s.node_downs, 2);
        assert_eq!(s.node_ups, 1);
        assert_eq!(s.link_retries, 1);
    }

    #[test]
    fn down_intervals_pair_events_per_node() {
        let ivs = down_intervals(&sample_trace());
        assert_eq!(ivs.len(), 1);
        let node7 = &ivs[&7];
        assert_eq!(node7[0], (5.0, 9.0));
        assert_eq!(node7[1].0, 12.0);
        assert!(node7[1].1.is_infinite());
    }

    #[test]
    fn down_node_activity_accepts_clean_traces() {
        // The sample trace never attributes activity to node 7 while it
        // is down, so the executable form of the invariant holds.
        assert!(down_node_activity(&sample_trace()).is_empty());
    }

    #[test]
    fn down_node_activity_flags_planted_violations() {
        let mut events = vec![
            TraceEvent::NodeDown { time: 5.0, node: 7 },
            // Activity by a *different* node while 7 is down: fine.
            TraceEvent::Hop {
                time: 6.0,
                node: 3,
                packet: 0,
            },
            // Planted bug: the crashed node forwards a packet.
            TraceEvent::Hop {
                time: 7.0,
                node: 7,
                packet: 0,
            },
            TraceEvent::NodeUp { time: 9.0, node: 7 },
            // After recovery the node may act again.
            TraceEvent::Hop {
                time: 9.5,
                node: 7,
                packet: 1,
            },
        ];
        let violations = down_node_activity(&events);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("node 7"), "{violations:?}");
        assert!(violations[0].contains("hop"), "{violations:?}");
        assert!(violations[0].contains("t=7"), "{violations:?}");

        // A planted Tx while down is caught too.
        events.push(TraceEvent::NodeDown {
            time: 12.0,
            node: 7,
        });
        events.push(TraceEvent::Tx {
            time: 13.0,
            node: 7,
            kind: TxKind::Broadcast,
            class: TrafficKind::Data,
            bytes: 64,
            packet: None,
        });
        assert_eq!(down_node_activity(&events).len(), 2);
    }

    #[test]
    fn down_node_activity_boundary_follows_stream_order() {
        // Equal timestamps resolve by stream order, mirroring the
        // simulator's FIFO dispatch: a crash streamed before a same-time
        // hop makes the hop a violation; activity streamed at exactly the
        // recovery time (after `node_up`) is legal.
        let crash_then_hop = vec![
            TraceEvent::NodeDown { time: 5.0, node: 1 },
            TraceEvent::Hop {
                time: 5.0,
                node: 1,
                packet: 0,
            },
        ];
        assert_eq!(down_node_activity(&crash_then_hop).len(), 1);

        let recover_then_hop = vec![
            TraceEvent::NodeDown { time: 5.0, node: 1 },
            TraceEvent::NodeUp { time: 9.0, node: 1 },
            TraceEvent::Hop {
                time: 9.0,
                node: 1,
                packet: 0,
            },
        ];
        assert!(down_node_activity(&recover_then_hop).is_empty());
    }

    #[test]
    fn down_node_activity_agrees_with_down_intervals() {
        // The streaming audit and the interval reconstruction are two
        // views of the same invariant: an activity event at a time
        // strictly inside a `down_intervals` interval must be flagged,
        // and one strictly outside every interval must not be.
        let events = vec![
            TraceEvent::NodeDown { time: 2.0, node: 4 },
            TraceEvent::Hop {
                time: 3.0,
                node: 4,
                packet: 0,
            }, // inside (2, 6)
            TraceEvent::NodeUp { time: 6.0, node: 4 },
            TraceEvent::Hop {
                time: 7.0,
                node: 4,
                packet: 0,
            }, // outside
            TraceEvent::NodeDown { time: 8.0, node: 4 },
            TraceEvent::RandomForwarder {
                time: 9.0,
                node: 4,
                packet: 1,
            }, // inside the open-ended (8, inf)
        ];
        let ivs = down_intervals(&events);
        let flagged = down_node_activity(&events);
        assert_eq!(ivs[&4], vec![(2.0, 6.0), (8.0, f64::INFINITY)]);
        assert_eq!(flagged.len(), 2);
        let inside = |t: f64| ivs[&4].iter().any(|&(a, b)| t > a && t < b);
        assert!(inside(3.0) && inside(9.0) && !inside(7.0));
    }
}
