//! End-to-end observability: run the real ALERT protocol with a trace
//! sink attached, replay the trace, and check it against the simulator's
//! ground-truth `Metrics` — plus profile and ring-buffer sanity.

use alert::core::{Alert, AlertConfig};
use alert::sim::{JsonlSink, RingBufferSink, ScenarioConfig, SharedBuf, World};
use alert::trace::{parse_trace, reconstruct_packets, trace_stats, TraceEvent};
use alert_bench::{run_instrumented, ProtocolChoice, RunOptions};

fn scenario() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::default()
        .with_nodes(100)
        .with_duration(20.0);
    cfg.traffic.pairs = 4;
    // Below the 20 s run, so every node's pseudonym rotates (the
    // default lifetime is 30 s) and the trace records the rotations.
    cfg.pseudonym_lifetime_s = 4.0;
    cfg
}

/// Runs ALERT with a JSONL sink; returns the world and trace text.
fn traced_alert(seed: u64) -> (World<Alert>, String) {
    let buf = SharedBuf::new();
    let mut w = World::new(scenario(), seed, |_, _| Alert::new(AlertConfig::default()));
    w.set_trace_sink(Box::new(JsonlSink::new(buf.clone())));
    w.run();
    w.take_trace_sink();
    (w, buf.contents())
}

#[test]
fn alert_trace_replay_matches_metrics() {
    let (w, text) = traced_alert(21);
    let events = parse_trace(&text).expect("ALERT trace parses");
    assert!(!events.is_empty());
    let packets = reconstruct_packets(&events);
    let m = w.metrics();
    assert!(m.delivery_rate() > 0.5, "scenario sanity");
    assert_eq!(packets.len(), m.packets_sent());

    for (id, rec) in m.packets.iter().enumerate() {
        let p = &packets[&(id as u64)];
        assert_eq!(p.session, Some(u64::from(rec.session.0)));
        assert_eq!(p.src, Some(rec.src.0 as u64));
        assert_eq!(p.dst, Some(rec.dst.0 as u64));
        assert_eq!(p.sent_at, Some(rec.sent_at));
        // The core self-check: the hop path reconstructed from the trace
        // is exactly the ground-truth participant list.
        let participants: Vec<u64> = rec.participants.iter().map(|n| n.0 as u64).collect();
        assert_eq!(p.participants, participants, "packet {id} participants");
        assert_eq!(p.hops, u64::from(rec.hops), "packet {id} hops");
        assert_eq!(
            p.random_forwarders,
            u64::from(rec.random_forwarders),
            "packet {id} RFs"
        );
        assert_eq!(p.delivered_at.is_some(), rec.delivered_at.is_some());
        match (p.latency, rec.latency()) {
            (Some(a), Some(b)) => assert!((a - b).abs() < 1e-12, "packet {id} latency"),
            (None, None) => {}
            other => panic!("packet {id}: latency mismatch {other:?}"),
        }
    }

    let stats = trace_stats(&events);
    assert_eq!(stats.drops_by_reason, m.drops);
    assert!(
        stats.pseudonym_rotations > 0,
        "pseudonyms rotate at the end of each 4 s lifetime"
    );
    let partitions: u64 = packets.values().map(|p| p.zone_partitions).sum();
    assert!(partitions > 0, "ALERT partitions zones while routing");
    assert!(
        events
            .iter()
            .any(|e| matches!(e, TraceEvent::ForwarderSelect { .. })),
        "greedy forwarding decisions are traced"
    );
}

#[test]
fn alert_traces_are_reproducible() {
    let (_, a) = traced_alert(33);
    let (_, b) = traced_alert(33);
    assert_eq!(a, b, "same-seed ALERT traces must be byte-identical");
}

#[test]
fn instrumented_run_produces_a_profile() {
    let opts = RunOptions {
        trace: None,
        profile: true,
        ..RunOptions::default()
    };
    let out = run_instrumented(
        ProtocolChoice::Alert(AlertConfig::default()),
        &scenario(),
        5,
        opts,
    )
    .expect("valid scenario");
    let p = &out.profile;
    assert!(p.events_dispatched > 0);
    assert!(p.fel_high_water > 0);
    assert!(p.setup_s > 0.0);
    assert!(p.wall_clock_s > 0.0);
    assert!(p.events_per_sec > 0.0);
    assert!(p.sim_time_s > 0.0);
    assert!(
        p.callbacks.contains_key("deliver") && p.callbacks.contains_key("app_send"),
        "callback classes present: {:?}",
        p.callbacks.keys().collect::<Vec<_>>()
    );
    // The `start` class times the startup sweep, which is no event.
    assert_eq!(p.callbacks["start"].count, 1);
    let cb_total: u64 = p
        .callbacks
        .iter()
        .filter(|(class, _)| *class != "start")
        .map(|(_, c)| c.count)
        .sum();
    assert_eq!(cb_total, p.events_dispatched, "every event is classified");
    // The registry snapshot rides along in the profile.
    assert!(p.registry.counters["app.packets"] > 0);
    assert!(p.registry.counters["tx.frames"] > 0);
}

#[test]
fn ring_buffer_keeps_the_tail_of_a_run() {
    let sink = RingBufferSink::new(64);
    let handle = sink.handle();
    let mut w = World::new(scenario(), 13, |_, _| Alert::new(AlertConfig::default()));
    w.set_trace_sink(Box::new(sink));
    w.run();
    let tail = handle.events();
    assert_eq!(tail.len(), 64, "buffer is full after a long run");
    // Events arrive in nondecreasing sim-time order.
    for pair in tail.windows(2) {
        assert!(pair[0].time() <= pair[1].time());
    }
    // The tail is from the end of the run, not the beginning.
    assert!(tail[0].time() > 1.0);
}
