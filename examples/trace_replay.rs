//! Trace replay: load a JSONL trace produced by `simrun --trace` (or
//! generate one in-process) and print each packet's reconstructed
//! journey — hop path, random forwarders, zone partitions, fate.
//!
//! ```text
//! cargo run --release --example trace_replay [-- trace.jsonl]
//! ```
//!
//! With no argument, the example runs ALERT on a small scenario itself
//! and replays the trace it just captured.

use alert::core::{Alert, AlertConfig};
use alert::prelude::*;
use alert::sim::{JsonlSink, SharedBuf};
use alert::trace::{parse_trace, reconstruct_packets, trace_stats, PacketTrace};

fn capture_demo_trace() -> String {
    let mut cfg = ScenarioConfig::default()
        .with_nodes(100)
        .with_duration(15.0);
    cfg.traffic.pairs = 3;
    let buf = SharedBuf::new();
    let mut world = World::new(cfg, 29, |_, _| Alert::new(AlertConfig::default()));
    world.set_trace_sink(Box::new(JsonlSink::new(buf.clone())));
    world.run();
    world.take_trace_sink();
    buf.contents()
}

fn fate(p: &PacketTrace) -> String {
    match (p.delivered_at, p.drops.first()) {
        (Some(t), _) => format!("delivered @ {t:.3}s"),
        (None, Some(reason)) => format!("dropped ({reason})"),
        (None, None) => "in flight at sim end".into(),
    }
}

fn path(p: &PacketTrace) -> String {
    let mut out: Vec<String> = p.participants.iter().map(|n| n.to_string()).collect();
    if let Some(dst) = p.dst {
        if p.delivered_at.is_some() && p.participants.last() != Some(&dst) {
            out.push(format!("[{dst}]"));
        }
    }
    out.join(" > ")
}

fn main() {
    let text = match std::env::args().nth(1) {
        Some(path) => std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(2);
        }),
        None => {
            println!("(no trace file given; capturing a fresh ALERT trace in-process)\n");
            capture_demo_trace()
        }
    };

    let events = parse_trace(&text).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let stats = trace_stats(&events);
    println!(
        "{} events | {} packets, {} delivered | {} tx, {} rx | {} timer fires",
        events.len(),
        stats.app_packets,
        stats.delivered_packets,
        stats.tx_frames,
        stats.rx_frames,
        stats.timer_fires,
    );
    if !stats.drops_by_reason.is_empty() {
        println!("drops: {:?}", stats.drops_by_reason);
    }
    println!();

    let packets = reconstruct_packets(&events);
    println!(
        "{:>4} {:>8} {:>9} {:>5} {:>4} {:>6}  hop path (node ids, [dst] = receive-only)",
        "pkt", "sent", "fate", "hops", "RFs", "splits"
    );
    for (id, p) in &packets {
        println!(
            "{:>4} {:>8} {:>9} {:>5} {:>4} {:>6}  {}",
            id,
            p.sent_at.map_or("-".into(), |t| format!("{t:.3}s")),
            fate(p),
            p.hops,
            p.random_forwarders,
            p.zone_partitions,
            path(p),
        );
    }
}
