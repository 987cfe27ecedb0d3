//! End-to-end guarantees of the fault-injection subsystem: crashed nodes
//! participate in nothing while down, neighbor staleness eviction fires
//! the `on_neighbor_lost` hook (with or without a fault plan), link-layer
//! ARQ retries up to its budget, and recovery is a warm reboot with a new
//! timer incarnation.

use alert_geom::Point;
use alert_sim::{
    Api, DataRequest, FaultPlan, Frame, JsonlSink, NeighborEntry, NodeCrash, NodeId, PacketId,
    ProtocolNode, RegionOutage, ScenarioConfig, Session, SharedBuf, TimerToken, TrafficClass,
    World,
};
use alert_trace::{down_intervals, parse_trace, TraceEvent};
use std::collections::HashSet;

/// Instrumented single-hop protocol: unicasts data to the first neighbor
/// and counts every lifecycle callback, so tests can read per-node
/// ground truth back out of the protocol instances.
#[derive(Default)]
struct Probe {
    starts: u32,
    timer_fires: u32,
    neighbors_lost: u32,
}

#[derive(Debug, Clone)]
struct Ping(PacketId);

impl ProtocolNode for Probe {
    type Msg = Ping;

    fn name() -> &'static str {
        "PROBE"
    }

    fn on_start(&mut self, api: &mut Api<'_, Self::Msg>) {
        self.starts += 1;
        api.set_timer(5.0, 1);
    }

    fn on_data_request(&mut self, api: &mut Api<'_, Self::Msg>, req: &DataRequest) {
        api.mark_hop(req.packet);
        if let Some(n) = api.neighbors().first().copied() {
            api.send_unicast(
                n.pseudonym,
                Ping(req.packet),
                req.bytes,
                TrafficClass::Data,
                Some(req.packet),
            );
        }
    }

    fn on_frame(&mut self, api: &mut Api<'_, Self::Msg>, frame: Frame<Self::Msg>) {
        let Ping(pkt) = frame.msg;
        if api.is_true_destination(pkt) {
            api.mark_delivered(pkt);
        }
    }

    fn on_timer(&mut self, _api: &mut Api<'_, Self::Msg>, _token: TimerToken) {
        self.timer_fires += 1;
    }

    fn on_neighbor_lost(&mut self, _api: &mut Api<'_, Self::Msg>, _neighbor: &NeighborEntry) {
        self.neighbors_lost += 1;
    }
}

/// Minimal flooding protocol for multi-hop churn runs.
#[derive(Default)]
struct Flood {
    seen: HashSet<PacketId>,
}

#[derive(Debug, Clone)]
struct FloodMsg {
    packet: PacketId,
    ttl: u32,
    bytes: usize,
}

impl ProtocolNode for Flood {
    type Msg = FloodMsg;

    fn name() -> &'static str {
        "FLOOD"
    }

    fn on_data_request(&mut self, api: &mut Api<'_, Self::Msg>, req: &DataRequest) {
        api.mark_hop(req.packet);
        api.send_broadcast(
            FloodMsg {
                packet: req.packet,
                ttl: 8,
                bytes: req.bytes,
            },
            req.bytes,
            TrafficClass::Data,
            Some(req.packet),
        );
    }

    fn on_frame(&mut self, api: &mut Api<'_, Self::Msg>, frame: Frame<Self::Msg>) {
        let m = frame.msg;
        if !self.seen.insert(m.packet) {
            return;
        }
        if api.is_true_destination(m.packet) {
            api.mark_delivered(m.packet);
            return;
        }
        if m.ttl > 0 {
            api.mark_hop(m.packet);
            api.send_broadcast(
                FloodMsg {
                    packet: m.packet,
                    ttl: m.ttl - 1,
                    bytes: m.bytes,
                },
                m.bytes,
                TrafficClass::Data,
                Some(m.packet),
            );
        }
    }
}

/// A two-node line topology with one session from node 0 to node 1.
fn pair_world(cfg: ScenarioConfig) -> World<Probe> {
    World::with_topology(
        cfg,
        1,
        vec![Point::new(100.0, 500.0), Point::new(200.0, 500.0)],
        vec![Session {
            src: NodeId(0),
            dst: NodeId(1),
        }],
        |_, _| Probe::default(),
    )
}

#[test]
fn crashed_nodes_participate_in_no_packet_while_down() {
    let mut cfg = ScenarioConfig::default().with_nodes(60).with_duration(20.0);
    cfg.traffic.pairs = 4;
    cfg.faults = FaultPlan::churn(cfg.nodes, 0.3, cfg.duration_s, 1);
    assert!(!cfg.faults.is_empty());

    let buf = SharedBuf::new();
    let mut w = World::new(cfg, 5, |_, _| Flood::default());
    w.set_trace_sink(Box::new(JsonlSink::new(buf.clone())));
    w.run();
    w.take_trace_sink();

    let events = parse_trace(&buf.contents()).expect("trace parses");
    let down = down_intervals(&events);
    assert!(!down.is_empty(), "churn plan produced down intervals");
    // The acceptance criterion: between its NodeDown and NodeUp a node
    // transmits nothing and joins no packet's participant set.
    let active = |node: u64, time: f64| {
        if let Some(ivs) = down.get(&node) {
            for &(d, u) in ivs {
                assert!(
                    !(time >= d && time < u),
                    "node {node} active at {time} inside down interval [{d}, {u})"
                );
            }
        }
    };
    for e in &events {
        match *e {
            TraceEvent::Tx { time, node, .. } => active(node, time),
            TraceEvent::Hop { time, node, .. } => active(node, time),
            TraceEvent::RandomForwarder { time, node, .. } => active(node, time),
            TraceEvent::Delivered { time, node, .. } => active(node, time),
            TraceEvent::TimerFire { time, node, .. } => active(node, time),
            _ => {}
        }
    }
}

#[test]
fn crash_evicts_neighbor_and_fires_hook_after_staleness_window() {
    let mut cfg = ScenarioConfig::default().with_duration(12.0);
    cfg.neighbor_staleness_factor = 3.0;
    cfg.faults = FaultPlan {
        crashes: vec![NodeCrash {
            node: 1,
            at_s: 3.0,
            recover_s: None,
        }],
        ..FaultPlan::default()
    };
    let mut w = pair_world(cfg);
    w.run();
    // Node 1 last beaconed at t = 2; with k = 3 its entry survives the
    // hellos at 3 and 4 and is evicted at t = 5, firing the hook once.
    assert_eq!(w.protocol(NodeId(0)).neighbors_lost, 1);
    assert_eq!(w.counter("node.downs"), 1);
    assert_eq!(w.counter("node.ups"), 0);
}

#[test]
fn staleness_eviction_works_without_any_fault_plan() {
    // Eviction is a property of the beacon layer, not the fault layer:
    // with an empty plan, mobility alone must age entries out.
    let mut cfg = ScenarioConfig::default()
        .with_nodes(60)
        .with_duration(20.0)
        .with_speed(20.0);
    cfg.traffic.pairs = 2;
    cfg.neighbor_staleness_factor = 2.0;
    assert!(cfg.faults.is_empty());
    let mut w = World::new(cfg, 3, |_, _| Probe::default());
    w.run();
    let lost: u32 = (0..60).map(|i| w.protocol(NodeId(i)).neighbors_lost).sum();
    assert!(lost > 0, "fast mobility must age some neighbor entries out");
    assert_eq!(w.counter("node.downs"), 0, "no faults were injected");
}

#[test]
fn arq_retries_up_to_budget_then_drops() {
    let mut cfg = ScenarioConfig::default().with_duration(6.0);
    cfg.mac.loss_probability = 1.0;
    cfg.mac.arq_max_retries = 2;
    let mut w = pair_world(cfg);
    w.run();
    let m = w.metrics();
    // Packets at t = 1, 3, 5; every attempt lost; each packet burns two
    // retries then drops with the ARQ-specific reason.
    assert_eq!(m.drops.get("retry_limit_exceeded").copied(), Some(3));
    assert_eq!(m.drops.get("unicast_channel_loss"), None);
    let snap = w.registry_snapshot();
    let retries = snap.histograms.get("link.retries").expect("histogram");
    assert_eq!(retries.count, 6, "two retry attempts per packet");
    assert_eq!(m.delivery_rate(), 0.0);
}

#[test]
fn arq_disabled_by_default_drops_immediately() {
    let mut cfg = ScenarioConfig::default().with_duration(6.0);
    cfg.mac.loss_probability = 1.0;
    assert_eq!(cfg.mac.arq_max_retries, 0);
    let mut w = pair_world(cfg);
    w.run();
    let m = w.metrics();
    assert_eq!(m.drops.get("unicast_channel_loss").copied(), Some(3));
    assert_eq!(m.drops.get("retry_limit_exceeded"), None);
    let snap = w.registry_snapshot();
    assert!(snap
        .histograms
        .get("link.retries")
        .is_none_or(|h| h.count == 0));
}

#[test]
fn recovery_is_a_warm_reboot_with_fresh_timer_epoch() {
    let mut cfg = ScenarioConfig::default().with_duration(10.0);
    cfg.faults = FaultPlan {
        crashes: vec![NodeCrash {
            node: 1,
            at_s: 1.0,
            recover_s: Some(3.0),
        }],
        ..FaultPlan::default()
    };
    let mut w = pair_world(cfg);
    w.run();
    // Node 1: on_start at t = 0 and again at recovery (t = 3). The t = 0
    // timer (due t = 5) belongs to the dead incarnation and is swallowed;
    // the recovery timer (due t = 8) fires.
    assert_eq!(w.protocol(NodeId(1)).starts, 2);
    assert_eq!(w.protocol(NodeId(1)).timer_fires, 1);
    // Node 0 is untouched.
    assert_eq!(w.protocol(NodeId(0)).starts, 1);
    assert_eq!(w.protocol(NodeId(0)).timer_fires, 1);
    assert_eq!(w.counter("node.downs"), 1);
    assert_eq!(w.counter("node.ups"), 1);
}

#[test]
fn crashed_source_drops_generated_packets() {
    let mut cfg = ScenarioConfig::default().with_duration(6.0);
    cfg.faults = FaultPlan {
        crashes: vec![NodeCrash {
            node: 0,
            at_s: 0.5,
            recover_s: None,
        }],
        ..FaultPlan::default()
    };
    let mut w = pair_world(cfg);
    w.run();
    let m = w.metrics();
    assert_eq!(m.drops.get("source_node_down").copied(), Some(3));
    assert_eq!(m.delivery_rate(), 0.0);
}

#[test]
fn regional_outage_downs_exactly_the_nodes_inside() {
    let mut cfg = ScenarioConfig::default().with_duration(8.0);
    cfg.faults = FaultPlan {
        regional_outages: vec![RegionOutage {
            x: 0.0,
            y: 400.0,
            w: 300.0,
            h: 200.0,
            start_s: 2.0,
            end_s: 4.0,
        }],
        ..FaultPlan::default()
    };
    // Nodes 0 and 1 sit inside the rectangle, node 2 outside it.
    let mut w: World<Probe> = World::with_topology(
        cfg,
        1,
        vec![
            Point::new(100.0, 500.0),
            Point::new(200.0, 500.0),
            Point::new(600.0, 500.0),
        ],
        vec![Session {
            src: NodeId(0),
            dst: NodeId(1),
        }],
        |_, _| Probe::default(),
    );
    w.run();
    assert_eq!(w.counter("node.downs"), 2);
    assert_eq!(w.counter("node.ups"), 2);
    // The outside node never rebooted; the victims did.
    assert_eq!(w.protocol(NodeId(2)).starts, 1);
    assert_eq!(w.protocol(NodeId(0)).starts, 2);
    assert_eq!(w.protocol(NodeId(1)).starts, 2);
}
