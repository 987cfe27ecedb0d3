//! Determinism and consistency guarantees of the trace layer: the same
//! `(ScenarioConfig, seed)` must produce byte-identical JSONL traces, and
//! every aggregate derivable from the trace must agree with the
//! simulator's own `Metrics` bookkeeping.

use alert_sim::{
    Api, DataRequest, FaultPlan, Frame, JsonlSink, LinkDegradation, NodeCrash, PacketId,
    ProtocolNode, RegionOutage, ScenarioConfig, SharedBuf, TrafficClass, World,
};
use alert_trace::{parse_trace, trace_stats};
use std::collections::HashSet;

/// Minimal flooding protocol (same shape as `runtime_smoke.rs`), enough
/// to generate hops, deliveries, drops, and broadcasts.
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
        } else {
            api.mark_packet_drop("flood_ttl_exhausted", m.packet);
        }
    }
}

fn small_scenario() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::default().with_nodes(60).with_duration(20.0);
    cfg.traffic.pairs = 4;
    cfg
}

/// Runs the flood scenario with a JSONL sink attached; returns the world
/// and the raw trace text.
fn traced_run(seed: u64) -> (World<Flood>, String) {
    let buf = SharedBuf::new();
    let mut w = World::new(small_scenario(), seed, |_, _| Flood::default());
    w.set_trace_sink(Box::new(JsonlSink::new(buf.clone())));
    w.run();
    w.take_trace_sink();
    (w, buf.contents())
}

#[test]
fn same_seed_produces_byte_identical_traces() {
    let (_, a) = traced_run(7);
    let (_, b) = traced_run(7);
    assert!(!a.is_empty(), "trace must not be empty");
    assert_eq!(a, b, "same (scenario, seed) must trace identically");
}

#[test]
fn different_seeds_produce_different_traces() {
    let (_, a) = traced_run(7);
    let (_, c) = traced_run(8);
    assert_ne!(a, c, "different seeds must not trace identically");
}

/// Every new workload family is as byte-deterministic as the legacy
/// waypoint one: Manhattan-grid mobility, convoy and small-teams
/// placement, and the metered energy model (with cluster heads and
/// beacon withdrawal) all trace identically at the same seed.
#[test]
fn same_seed_diverse_families_produce_byte_identical_traces() {
    let manhattan = {
        let mut cfg = small_scenario();
        cfg.mobility = alert_sim::MobilityKind::ManhattanGrid {
            h_streets: 4,
            v_streets: 3,
            turn_prob: 0.4,
            speed_classes: 2,
        };
        cfg
    };
    let convoy = {
        let mut cfg = small_scenario();
        cfg.placement = alert_sim::Placement::Convoy;
        cfg
    };
    let teams_energy = {
        let mut cfg = small_scenario();
        cfg.placement = alert_sim::Placement::SmallTeams {
            team_size: 5,
            spread_m: 40.0,
        };
        cfg.energy.initial_j = Some(300.0);
        cfg.energy.idle_watts = 0.05;
        cfg.energy.cluster_head_fraction = 0.12;
        cfg
    };
    let run = |cfg: &ScenarioConfig| {
        let buf = SharedBuf::new();
        let mut w = World::new(cfg.clone(), 13, |_, _| Flood::default());
        w.set_trace_sink(Box::new(JsonlSink::new(buf.clone())));
        w.run();
        w.take_trace_sink();
        buf.contents()
    };
    let mut traces = Vec::new();
    for cfg in [&manhattan, &convoy, &teams_energy] {
        let a = run(cfg);
        assert!(!a.is_empty(), "family trace must not be empty");
        assert_eq!(a, run(cfg), "family must trace identically per seed");
        traces.push(a);
    }
    // And the families are genuinely different workloads, not aliases.
    assert_ne!(traces[0], traces[1]);
    assert_ne!(traces[1], traces[2]);
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    let (traced, _) = traced_run(11);
    let mut plain = World::new(small_scenario(), 11, |_, _| Flood::default());
    plain.run();
    assert_eq!(
        traced.metrics().packets_sent(),
        plain.metrics().packets_sent()
    );
    assert_eq!(
        traced.metrics().delivery_rate(),
        plain.metrics().delivery_rate()
    );
    assert_eq!(
        traced.metrics().hops_per_packet(),
        plain.metrics().hops_per_packet()
    );
    assert_eq!(traced.metrics().drops, plain.metrics().drops);
}

#[test]
fn trace_counters_agree_with_metrics_and_registry() {
    let (w, text) = traced_run(5);
    let events = parse_trace(&text).expect("emitted trace parses");
    let stats = trace_stats(&events);
    let m = w.metrics();

    assert_eq!(stats.app_packets, m.packets_sent() as u64);
    assert_eq!(stats.drops_by_reason, m.drops);
    let delivered = m
        .packets
        .iter()
        .filter(|p| p.delivered_at.is_some())
        .count();
    assert_eq!(stats.delivered_packets, delivered as u64);

    // The typed registry and the trace are two independent observers of
    // the same run; they must agree exactly.
    assert_eq!(stats.tx_frames, w.counter("tx.frames"));
    assert_eq!(stats.rx_frames, w.counter("rx.frames"));
    assert_eq!(stats.app_packets, w.counter("app.packets"));
    assert_eq!(stats.delivered_packets, w.counter("delivered"));
    assert_eq!(stats.timer_fires, w.counter("timer.fired"));
    assert_eq!(
        stats.drops_by_reason.values().sum::<u64>(),
        w.counter("drops")
    );
}

#[test]
fn trace_hops_match_metrics_hops() {
    let (w, text) = traced_run(3);
    let events = parse_trace(&text).expect("emitted trace parses");
    let packets = alert_trace::reconstruct_packets(&events);
    let m = w.metrics();
    assert_eq!(packets.len(), m.packets_sent());
    for (id, rec) in m.packets.iter().enumerate() {
        let p = packets
            .get(&(id as u64))
            .unwrap_or_else(|| panic!("packet {id} missing from trace"));
        assert_eq!(p.hops, u64::from(rec.hops), "hop count for packet {id}");
        let participants: Vec<u64> = rec.participants.iter().map(|n| n.0 as u64).collect();
        assert_eq!(p.participants, participants, "participants for packet {id}");
        assert_eq!(p.delivered_at.is_some(), rec.delivered_at.is_some());
    }
}

#[test]
fn registry_snapshot_is_deterministic() {
    let (a, _) = traced_run(9);
    let (b, _) = traced_run(9);
    assert_eq!(a.registry_snapshot(), b.registry_snapshot());
}

/// The flood scenario traced with metrics sampling also enabled;
/// returns the trace text and the encoded timeseries.
fn sampled_run(seed: u64, every: f64) -> (String, String) {
    let buf = SharedBuf::new();
    let mut w = World::new(small_scenario(), seed, |_, _| Flood::default());
    w.set_trace_sink(Box::new(JsonlSink::new(buf.clone())));
    w.enable_metrics_timeseries(every);
    w.run();
    w.take_trace_sink();
    let series = w.take_metrics_timeseries().expect("sampling was enabled");
    (buf.contents(), series.to_jsonl())
}

#[test]
fn metrics_sampling_does_not_perturb_the_trace() {
    let (_, plain) = traced_run(7);
    let (sampled, _) = sampled_run(7, 5.0);
    assert_eq!(
        plain, sampled,
        "enabling the timeseries sampler must leave the event trace byte-identical"
    );
}

/// The flood scenario traced with profiling also enabled.
fn profiled_run(seed: u64) -> (World<Flood>, String) {
    let buf = SharedBuf::new();
    let mut w = World::new(small_scenario(), seed, |_, _| Flood::default());
    w.set_trace_sink(Box::new(JsonlSink::new(buf.clone())));
    w.enable_profiling();
    w.run();
    w.take_trace_sink();
    (w, buf.contents())
}

/// The names a profile map carries, in order.
fn keys<V>(map: &std::collections::BTreeMap<String, V>) -> Vec<&str> {
    map.keys().map(String::as_str).collect()
}

#[test]
fn profiling_does_not_perturb_the_trace() {
    for seed in [7, 13] {
        let (plain_world, plain) = traced_run(seed);
        let (w, profiled) = profiled_run(seed);
        assert_eq!(
            plain, profiled,
            "enabling the profiler must leave the event trace byte-identical"
        );
        assert_eq!(w.events_dispatched(), plain_world.events_dispatched());
        assert!(plain_world.run_profile().callbacks.is_empty());

        let p = w.run_profile();
        // `start` is the one startup sweep, not a dispatched event.
        assert_eq!(p.callbacks["start"].count, 1);
        let classes: u64 = p
            .callbacks
            .iter()
            .filter(|(class, _)| *class != "start")
            .map(|(_, c)| c.count)
            .sum();
        assert_eq!(classes, p.events_dispatched, "every event has one class");
        let seconds: f64 = p.callbacks.values().map(|c| c.seconds).sum();
        assert!(seconds <= p.wall_clock_s * (1.0 + 1e-9));
        // No crashes, so every receiver the channel counted reached its
        // protocol.
        let rx = w.counter("rx.frames");
        assert_eq!(p.callbacks["deliver"].count, rx);
        assert_eq!(p.spans["on_frame"].count, rx);
        assert_eq!(
            keys(&p.callbacks),
            [
                "app_send",
                "deliver",
                "hello_tick",
                "location_tick",
                "mobility_tick",
                "start"
            ]
        );
        assert_eq!(
            keys(&p.spans),
            [
                "on_data_request",
                "on_frame",
                "on_neighbor_lost",
                "on_start"
            ]
        );
    }
}

#[test]
fn timeseries_encoding_is_byte_deterministic() {
    let (_, a) = sampled_run(13, 5.0);
    let (_, b) = sampled_run(13, 5.0);
    assert!(
        a.lines().count() > 2,
        "a 20 s run at 5 s sampling must yield several samples"
    );
    assert_eq!(a, b, "same (scenario, seed) must sample identically");
    let parsed = alert_trace::MetricsTimeseries::parse(&a).expect("own encoding parses");
    assert_eq!(parsed.to_jsonl(), a, "encode → parse → encode is identity");
}

/// The faulty scenario: crashes, a regional outage, a degradation window,
/// and link-layer ARQ all active at once.
fn faulty_scenario() -> ScenarioConfig {
    let mut cfg = small_scenario();
    cfg.mac.arq_max_retries = 3;
    cfg.neighbor_staleness_factor = 2.0;
    cfg.faults = FaultPlan {
        crashes: vec![
            NodeCrash {
                node: 3,
                at_s: 4.0,
                recover_s: Some(12.0),
            },
            NodeCrash {
                node: 17,
                at_s: 6.0,
                recover_s: None,
            },
        ],
        regional_outages: vec![RegionOutage {
            x: 0.0,
            y: 0.0,
            w: 250.0,
            h: 250.0,
            start_s: 8.0,
            end_s: 14.0,
        }],
        link_degradations: vec![LinkDegradation {
            start_s: 5.0,
            end_s: 10.0,
            factor: 1.0,
            add: 0.1,
        }],
    };
    cfg
}

fn faulty_traced_run(seed: u64) -> (World<Flood>, String) {
    let buf = SharedBuf::new();
    let mut w = World::new(faulty_scenario(), seed, |_, _| Flood::default());
    w.set_trace_sink(Box::new(JsonlSink::new(buf.clone())));
    w.run();
    w.take_trace_sink();
    (w, buf.contents())
}

#[test]
fn same_seed_with_faults_produces_byte_identical_traces() {
    let (wa, a) = faulty_traced_run(21);
    let (wb, b) = faulty_traced_run(21);
    assert!(!a.is_empty(), "faulty trace must not be empty");
    assert_eq!(a, b, "same (faulty scenario, seed) must trace identically");
    assert_eq!(wa.registry_snapshot(), wb.registry_snapshot());
    // The plan actually fired: both crashes plus some outage victims.
    assert!(wa.counter("node.downs") >= 2);
    assert!(wa.counter("node.ups") >= 1);
}

#[test]
fn fault_events_round_trip_through_the_codec() {
    let (_, text) = faulty_traced_run(21);
    let events = parse_trace(&text).expect("faulty trace parses");
    let stats = trace_stats(&events);
    assert!(stats.node_downs >= 2, "NodeDown events present in trace");
    assert!(stats.node_ups >= 1, "NodeUp events present in trace");
}
