//! End-to-end guarantees of the per-node energy meter and the placement
//! models: meters drain monotonically and never go negative, drained
//! joules equal the sum of their accounting buckets, battery death is
//! permanent (fault recovery cannot revive a drained node), cluster-head
//! election and beacon withdrawal only exist in metered runs, and the
//! convoy / small-teams placements put nodes where they claim to.

use alert_geom::{Point, Rect};
use alert_sim::{
    Api, DataRequest, FaultPlan, Frame, MobilityKind, NodeCrash, NodeId, PacketId, Placement,
    ProtocolNode, ScenarioConfig, Session, TrafficClass, World,
};
use std::collections::HashSet;

/// Minimal flooding protocol: enough traffic to exercise tx/rx charging.
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

fn metered_scenario(initial_j: f64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::default().with_nodes(40).with_duration(15.0);
    cfg.traffic.pairs = 3;
    cfg.energy.initial_j = Some(initial_j);
    cfg.energy.idle_watts = 0.05;
    cfg
}

#[test]
fn unmetered_default_has_no_per_node_meter() {
    let mut cfg = ScenarioConfig::default().with_nodes(40).with_duration(10.0);
    cfg.traffic.pairs = 3;
    assert!(!cfg.energy.metered());
    let mut w = World::new(cfg, 1, |_, _| Flood::default());
    w.run();
    assert!(w.energy_remaining().is_none(), "no meter without a budget");
    let acct = &w.metrics().node_energy;
    assert_eq!(acct.drained_j, 0.0);
    assert_eq!(acct.deaths, 0);
    assert_eq!(w.counter("energy.deaths"), 0);
    assert_eq!(w.counter("energy.cluster_heads"), 0);
    assert!(!(0..40).any(|i| w.is_cluster_head(NodeId(i))));
    // The legacy aggregate joule counters still accrue.
    assert!(w.metrics().energy_tx_j > 0.0);
}

#[test]
fn meters_drain_monotonically_and_never_go_negative() {
    let mut w = World::new(metered_scenario(120.0), 2, |_, _| Flood::default());
    let mut prev = w.energy_remaining().expect("metered").to_vec();
    let mut t = 0.0;
    while t < 15.0 {
        t += 3.0;
        w.run_until(t);
        let cur = w.energy_remaining().expect("metered");
        for (i, (&was, &now)) in prev.iter().zip(cur).enumerate() {
            assert!(now >= 0.0, "node {i} meter went negative: {now}");
            assert!(now <= was + 1e-12, "node {i} meter rose {was} -> {now}");
        }
        prev = cur.to_vec();
    }
}

#[test]
fn drained_joules_equal_the_sum_of_their_buckets() {
    let mut w = World::new(metered_scenario(120.0), 3, |_, _| Flood::default());
    w.run();
    let acct = &w.metrics().node_energy;
    assert!(acct.drained_j > 0.0, "a live run must drain something");
    let parts = acct.tx_j + acct.rx_j + acct.idle_j + acct.beacon_j;
    assert!(
        (acct.drained_j - parts).abs() <= 1e-9 * (1.0 + parts.abs()),
        "drained {} != bucket sum {parts}",
        acct.drained_j
    );
    // What left the batteries is what the meters no longer hold.
    let remaining: f64 = w.energy_remaining().expect("metered").iter().sum();
    let initial_total = 120.0 * 40.0;
    assert!(
        (initial_total - remaining - acct.drained_j).abs() <= 1e-6,
        "meter sum {remaining} inconsistent with drained {}",
        acct.drained_j
    );
}

#[test]
fn zero_budget_kills_every_node_at_time_zero() {
    let mut w = World::new(metered_scenario(0.0), 4, |_, _| Flood::default());
    w.run();
    assert_eq!(w.counter("energy.deaths"), 40);
    assert_eq!(w.metrics().node_energy.deaths, 40);
    assert_eq!(w.counter("node.downs"), 40);
    assert_eq!(w.counter("node.ups"), 0, "battery death has no recovery");
    assert_eq!(w.metrics().delivery_rate(), 0.0);
    // The construction-time beacon round at t = 0 precedes the depletion
    // sweep (a node may well die *because* of that round), so every node
    // beacons exactly once and never again.
    assert_eq!(w.metrics().control_frames, 40);
}

#[test]
fn energy_death_preempts_fault_recovery() {
    // FIFO-ordering pin: energy-depletion events are scheduled before any
    // fault event at t = 0, so the fault plan's crash lands on an
    // already-dead node and its recovery only shallows the outage depth —
    // `node.ups` must stay 0 because depth never returns to zero.
    let mut cfg = ScenarioConfig::default().with_duration(10.0);
    cfg.energy.initial_j = Some(0.0);
    cfg.faults = FaultPlan {
        crashes: vec![NodeCrash {
            node: 1,
            at_s: 0.0,
            recover_s: Some(5.0),
        }],
        ..FaultPlan::default()
    };
    let mut w: World<Flood> = World::with_topology(
        cfg,
        5,
        vec![Point::new(100.0, 500.0), Point::new(200.0, 500.0)],
        vec![Session {
            src: NodeId(0),
            dst: NodeId(1),
        }],
        |_, _| Flood::default(),
    );
    w.run();
    assert_eq!(w.counter("energy.deaths"), 2);
    assert_eq!(
        w.counter("node.downs"),
        2,
        "only the 0->1 transition counts"
    );
    assert_eq!(
        w.counter("node.ups"),
        0,
        "recovery cannot revive a drained node"
    );
}

#[test]
fn cluster_heads_exist_only_in_metered_runs() {
    let mut cfg = metered_scenario(500.0);
    cfg.energy.cluster_head_fraction = 0.4;
    let mut w = World::new(cfg, 6, |_, _| Flood::default());
    w.run();
    assert!(
        w.counter("energy.cluster_heads") > 0,
        "a 0.4 fraction over 40 nodes x 15 rounds must elect someone"
    );

    let mut plain = World::new(
        {
            let mut c = ScenarioConfig::default().with_nodes(40).with_duration(15.0);
            c.traffic.pairs = 3;
            c.energy.cluster_head_fraction = 0.4; // ignored without a budget
            c
        },
        6,
        |_, _| Flood::default(),
    );
    plain.run();
    assert_eq!(plain.counter("energy.cluster_heads"), 0);
}

#[test]
fn low_energy_nodes_withdraw_from_beaconing() {
    // With the relay threshold at the full budget, every node falls below
    // it after its first joule drains and stops beaconing; the run must
    // produce strictly less hello traffic than its unmetered twin.
    let mut starved = metered_scenario(200.0);
    starved.energy.relay_threshold_fraction = 1.0;
    let mut a = World::new(starved, 7, |_, _| Flood::default());
    a.run();

    let mut plain = ScenarioConfig::default().with_nodes(40).with_duration(15.0);
    plain.traffic.pairs = 3;
    let mut b = World::new(plain, 7, |_, _| Flood::default());
    b.run();

    assert!(
        a.metrics().control_frames < b.metrics().control_frames,
        "withdrawn nodes must beacon less: {} vs {}",
        a.metrics().control_frames,
        b.metrics().control_frames
    );
}

#[test]
fn convoy_places_nodes_in_a_line_on_the_midline() {
    let field = Rect::with_size(1000.0, 600.0);
    let pos = Placement::Convoy.positions(field, 10, 42).expect("convoy");
    assert_eq!(pos.len(), 10);
    for w in pos.windows(2) {
        assert!(w[0].x < w[1].x, "convoy x-coordinates must ascend");
    }
    for p in &pos {
        assert_eq!(p.y, 300.0, "convoy rides the horizontal midline");
        assert!(field.contains(*p));
    }
    // Pure in the seed (and in fact seed-independent for a convoy).
    assert_eq!(pos, Placement::Convoy.positions(field, 10, 43).unwrap());
}

#[test]
fn small_teams_cluster_within_their_spread() {
    let field = Rect::with_size(1000.0, 1000.0);
    let team_size = 4usize;
    let spread = 30.0;
    let place = Placement::SmallTeams {
        team_size,
        spread_m: spread,
    };
    let pos = place.positions(field, 19, 9).expect("teams");
    assert_eq!(pos.len(), 19);
    // Teammates scatter at most `spread` per axis from a shared center, so
    // any two members of one team sit within 2 * spread per axis.
    for (i, a) in pos.iter().enumerate() {
        assert!(field.contains(*a), "member {i} escaped the field");
        for (j, b) in pos.iter().enumerate().skip(i + 1) {
            if i / team_size == j / team_size {
                assert!(
                    (a.x - b.x).abs() <= 2.0 * spread && (a.y - b.y).abs() <= 2.0 * spread,
                    "teammates {i},{j} too far apart: {a:?} vs {b:?}"
                );
            }
        }
    }
    // Deterministic in the seed; a different seed moves the team centers.
    assert_eq!(pos, place.positions(field, 19, 9).unwrap());
    assert_ne!(pos, place.positions(field, 19, 10).unwrap());
}

#[test]
fn uniform_placement_defers_to_the_mobility_model() {
    let field = Rect::with_size(1000.0, 1000.0);
    assert!(Placement::Uniform.positions(field, 50, 7).is_none());
}

#[test]
fn world_applies_convoy_placement() {
    let mut cfg = ScenarioConfig::default().with_nodes(20).with_duration(5.0);
    cfg.traffic.pairs = 2;
    cfg.placement = Placement::Convoy;
    cfg.mobility = MobilityKind::Static;
    let w = World::new(cfg, 8, |_, _| Flood::default());
    for i in 0..20 {
        assert_eq!(
            w.position(NodeId(i)).y,
            500.0,
            "static convoy node {i} must sit on the midline"
        );
    }
}

#[test]
fn manhattan_mobility_snaps_convoy_placement_to_lanes() {
    let mut cfg = ScenarioConfig::default().with_nodes(12).with_duration(5.0);
    cfg.traffic.pairs = 1;
    cfg.placement = Placement::Convoy;
    cfg.mobility = MobilityKind::ManhattanGrid {
        h_streets: 3,
        v_streets: 3,
        turn_prob: 0.5,
        speed_classes: 1,
    };
    let w = World::new(cfg, 9, |_, _| Flood::default());
    // Lane k of 3 sits at fraction (k + 0.5) / 3 of the 1,000 m span.
    let lanes: Vec<f64> = (0..3).map(|k| 1000.0 * (k as f64 + 0.5) / 3.0).collect();
    for i in 0..12 {
        let p = w.position(NodeId(i));
        let on_lane = lanes.iter().any(|&c| (p.x - c).abs() <= 1e-6)
            || lanes.iter().any(|&c| (p.y - c).abs() <= 1e-6);
        assert!(on_lane, "node {i} at {p:?} was not snapped to a street");
    }
}
