//! The trace query engine: filters, packet-follow, and per-window
//! aggregates over a stored event stream.
//!
//! This is the third observability layer — the engine behind the
//! `tracequery` CLI and, per the roadmap, the query endpoint a future
//! `alertd` serves over a socket. Everything here is deterministic:
//! results preserve trace order, aggregates iterate sorted maps, and
//! the CSV/JSON renderers use the same fixed field order and
//! shortest-round-trip float formatting as the event codec, so the same
//! stored trace always yields byte-identical query output.
//!
//! The window convention matches `alert-timeseries/1`
//! (crate::timeseries): window `k` covers `((k)·every, (k+1)·every]`
//! simulated seconds, with window 0 additionally including `t = 0`.

use crate::event::TraceEvent;
use crate::jsonl::{push_f64, JsonlEncoder};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A conjunctive filter over trace events: every populated field must
/// match. An empty filter matches everything.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventFilter {
    /// Only events attributed to this node ([`TraceEvent::node`]).
    pub node: Option<u64>,
    /// Only events at or after this simulated time.
    pub t_min: Option<f64>,
    /// Only events at or before this simulated time.
    pub t_max: Option<f64>,
    /// Only events of this kind (canonical `ev` name, e.g. `"drop"`).
    pub kind: Option<String>,
    /// Only drop events with this canonical reason (implies `kind`
    /// `"drop"`).
    pub drop_reason: Option<String>,
    /// Only events referencing this packet id ([`TraceEvent::packet_id`]).
    pub packet: Option<u64>,
}

impl EventFilter {
    /// Whether `e` satisfies every populated criterion.
    pub fn matches(&self, e: &TraceEvent) -> bool {
        if let Some(n) = self.node {
            if e.node() != Some(n) {
                return false;
            }
        }
        if let Some(t) = self.t_min {
            if e.time() < t {
                return false;
            }
        }
        if let Some(t) = self.t_max {
            if e.time() > t {
                return false;
            }
        }
        if let Some(kind) = &self.kind {
            if e.kind() != kind {
                return false;
            }
        }
        if let Some(want) = &self.drop_reason {
            match e {
                TraceEvent::Drop { reason, .. } if reason == want => {}
                _ => return false,
            }
        }
        if let Some(p) = self.packet {
            if e.packet_id() != Some(p) {
                return false;
            }
        }
        true
    }
}

/// Events satisfying `filter`, in trace order.
pub fn filter_events<'a>(events: &'a [TraceEvent], filter: &EventFilter) -> Vec<&'a TraceEvent> {
    events.iter().filter(|e| filter.matches(e)).collect()
}

/// Every event referencing packet `packet`, in trace order — the
/// packet's life from `app_send` through its hop path to delivery or
/// drop.
pub fn follow_packet(events: &[TraceEvent], packet: u64) -> Vec<&TraceEvent> {
    events
        .iter()
        .filter(|e| e.packet_id() == Some(packet))
        .collect()
}

/// Aggregate statistics over one time window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowAggregate {
    /// Window start, simulated seconds (exclusive except for window 0).
    pub t_start: f64,
    /// Window end, simulated seconds (inclusive).
    pub t_end: f64,
    /// Total events in the window.
    pub events: u64,
    /// Event counts by canonical kind name.
    pub by_kind: BTreeMap<&'static str, u64>,
    /// Bytes transmitted (sum of `tx` frame sizes).
    pub tx_bytes: u64,
    /// Bytes received (sum of `rx` frame sizes).
    pub rx_bytes: u64,
    /// Drop counts by canonical reason.
    pub drops: BTreeMap<String, u64>,
    /// Packets first-delivered in the window.
    pub delivered: u64,
    /// Sum of end-to-end latencies of those deliveries, in seconds.
    pub latency_sum: f64,
}

/// Index of the window containing simulated time `t` (see the module
/// docs for the boundary convention).
fn window_index(t: f64, every_s: f64) -> usize {
    let idx = (t / every_s).ceil() as i64 - 1;
    idx.max(0) as usize
}

/// Partitions `events` into contiguous `every_s`-wide windows and
/// aggregates each. Empty trailing windows are not materialised, but
/// interior gaps are, so window `k` always covers
/// `(k·every_s, (k+1)·every_s]`.
///
/// # Panics
/// If `every_s` is not finite and positive.
pub fn window_aggregates(events: &[TraceEvent], every_s: f64) -> Vec<WindowAggregate> {
    assert!(
        every_s.is_finite() && every_s > 0.0,
        "window width must be finite and positive, got {every_s}"
    );
    let mut windows: Vec<WindowAggregate> = Vec::new();
    for e in events {
        let idx = window_index(e.time(), every_s);
        while windows.len() <= idx {
            let k = windows.len();
            windows.push(WindowAggregate {
                t_start: k as f64 * every_s,
                t_end: (k + 1) as f64 * every_s,
                ..WindowAggregate::default()
            });
        }
        let w = &mut windows[idx];
        w.events += 1;
        *w.by_kind.entry(e.kind()).or_insert(0) += 1;
        match e {
            TraceEvent::Tx { bytes, .. } => w.tx_bytes += bytes,
            TraceEvent::Rx { bytes, .. } => w.rx_bytes += bytes,
            TraceEvent::Drop { reason, .. } => {
                *w.drops.entry(reason.to_string()).or_insert(0) += 1;
            }
            TraceEvent::Delivered { latency, .. } => {
                w.delivered += 1;
                w.latency_sum += latency;
            }
            _ => {}
        }
    }
    windows
}

// ---------------------------------------------------------------------
// Deterministic rendering
// ---------------------------------------------------------------------

/// Renders events as canonical JSONL, one line each — identical bytes to
/// the stored trace lines they came from.
pub fn render_events_jsonl(events: &[&TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    let mut encoder = JsonlEncoder::default();
    for e in events {
        encoder.encode(e, &mut out);
        out.push('\n');
    }
    out
}

/// Renders events as CSV with the fixed header
/// `t,ev,node,packet` (empty cells for events without a node or packet).
pub fn render_events_csv(events: &[&TraceEvent]) -> String {
    let mut out = String::from("t,ev,node,packet\n");
    for e in events {
        push_f64(&mut out, e.time());
        let _ = write!(out, ",{}", e.kind());
        match e.node() {
            Some(n) => {
                let _ = write!(out, ",{n}");
            }
            None => out.push(','),
        }
        match e.packet_id() {
            Some(p) => {
                let _ = write!(out, ",{p}");
            }
            None => out.push(','),
        }
        out.push('\n');
    }
    out
}

/// Renders window aggregates as CSV with the fixed header
/// `t_start,t_end,events,tx,rx,drops,delivered,tx_bytes,rx_bytes,latency_sum`.
pub fn render_windows_csv(windows: &[WindowAggregate]) -> String {
    let mut out =
        String::from("t_start,t_end,events,tx,rx,drops,delivered,tx_bytes,rx_bytes,latency_sum\n");
    for w in windows {
        push_f64(&mut out, w.t_start);
        out.push(',');
        push_f64(&mut out, w.t_end);
        let tx = w.by_kind.get("tx").copied().unwrap_or(0);
        let rx = w.by_kind.get("rx").copied().unwrap_or(0);
        let drops: u64 = w.drops.values().sum();
        let _ = write!(
            out,
            ",{},{tx},{rx},{drops},{},{},{},",
            w.events, w.delivered, w.tx_bytes, w.rx_bytes
        );
        push_f64(&mut out, w.latency_sum);
        out.push('\n');
    }
    out
}

/// Renders window aggregates as a single JSON document
/// (`alert-windows/1`), one window object per line for diffability.
pub fn render_windows_json(every_s: f64, windows: &[WindowAggregate]) -> String {
    let mut out = String::from("{\"schema\":\"alert-windows/1\",\"every_s\":");
    push_f64(&mut out, every_s);
    out.push_str(",\"windows\":[");
    for (i, w) in windows.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("{\"t_start\":");
        push_f64(&mut out, w.t_start);
        out.push_str(",\"t_end\":");
        push_f64(&mut out, w.t_end);
        let _ = write!(out, ",\"events\":{}", w.events);
        out.push_str(",\"by_kind\":{");
        for (j, (kind, n)) in w.by_kind.iter().enumerate() {
            let _ = write!(out, "{}\"{kind}\":{n}", if j == 0 { "" } else { "," });
        }
        let _ = write!(out, "}},\"tx_bytes\":{}", w.tx_bytes);
        let _ = write!(out, ",\"rx_bytes\":{}", w.rx_bytes);
        out.push_str(",\"drops\":{");
        for (j, (reason, n)) in w.drops.iter().enumerate() {
            let _ = write!(out, "{}\"{reason}\":{n}", if j == 0 { "" } else { "," });
        }
        let _ = write!(out, "}},\"delivered\":{}", w.delivered);
        out.push_str(",\"latency_sum\":");
        push_f64(&mut out, w.latency_sum);
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{TrafficKind, TxKind};

    fn sample_trace() -> Vec<TraceEvent> {
        vec![
            TraceEvent::AppSend {
                time: 0.0,
                packet: 1,
                session: 0,
                seq: 0,
                src: 2,
                dst: 9,
            },
            TraceEvent::Tx {
                time: 0.5,
                node: 2,
                kind: TxKind::Unicast,
                class: TrafficKind::Data,
                bytes: 512,
                packet: Some(1),
            },
            TraceEvent::Hop {
                time: 0.5,
                node: 2,
                packet: 1,
            },
            TraceEvent::Rx {
                time: 0.5,
                node: 5,
                kind: TxKind::Unicast,
                bytes: 512,
                at: 0.503,
            },
            TraceEvent::Drop {
                time: 5.5,
                node: 5,
                reason: "unicast_channel_loss".into(),
                packet: Some(1),
            },
            TraceEvent::Delivered {
                time: 9.5,
                node: 9,
                packet: 1,
                latency: 9.5,
            },
            TraceEvent::Hop {
                time: 10.0,
                node: 7,
                packet: 2,
            },
        ]
    }

    #[test]
    fn filter_by_node_time_kind_reason_and_packet() {
        let t = sample_trace();
        let by_node = filter_events(
            &t,
            &EventFilter {
                node: Some(2),
                ..EventFilter::default()
            },
        );
        assert_eq!(by_node.len(), 2);
        let by_window = filter_events(
            &t,
            &EventFilter {
                t_min: Some(0.5),
                t_max: Some(5.5),
                ..EventFilter::default()
            },
        );
        assert_eq!(by_window.len(), 4);
        let by_kind = filter_events(
            &t,
            &EventFilter {
                kind: Some("hop".to_owned()),
                ..EventFilter::default()
            },
        );
        assert_eq!(by_kind.len(), 2);
        let by_reason = filter_events(
            &t,
            &EventFilter {
                drop_reason: Some("unicast_channel_loss".to_owned()),
                ..EventFilter::default()
            },
        );
        assert_eq!(by_reason.len(), 1);
        assert!(matches!(by_reason[0], TraceEvent::Drop { .. }));
        let by_packet = filter_events(
            &t,
            &EventFilter {
                packet: Some(2),
                ..EventFilter::default()
            },
        );
        assert_eq!(by_packet.len(), 1);
        assert!(filter_events(&t, &EventFilter::default()).len() == t.len());
    }

    #[test]
    fn follow_returns_packet_lifecycle_in_order() {
        let t = sample_trace();
        let path = follow_packet(&t, 1);
        let kinds: Vec<&str> = path.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds, ["app_send", "tx", "hop", "drop", "delivered"]);
    }

    #[test]
    fn windows_match_timeseries_boundaries() {
        assert_eq!(window_index(0.0, 5.0), 0);
        assert_eq!(window_index(5.0, 5.0), 0);
        assert_eq!(window_index(5.0001, 5.0), 1);
        assert_eq!(window_index(10.0, 5.0), 1);
        let w = window_aggregates(&sample_trace(), 5.0);
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].events, 4);
        assert_eq!(w[0].tx_bytes, 512);
        assert_eq!(w[0].rx_bytes, 512);
        assert_eq!(w[1].drops["unicast_channel_loss"], 1);
        assert_eq!(w[1].delivered, 1);
        // Per-window event totals sum to the whole-run total.
        let total: u64 = w.iter().map(|w| w.events).sum();
        assert_eq!(total, sample_trace().len() as u64);
        // t = 10.0 lands in window 1 (inclusive upper bound), so no
        // third window is materialised.
        assert_eq!(w[1].by_kind["hop"], 1);
    }

    #[test]
    fn renderers_are_stable() {
        let t = sample_trace();
        let sel = filter_events(&t, &EventFilter::default());
        let jsonl = render_events_jsonl(&sel);
        assert_eq!(jsonl.lines().count(), t.len());
        assert_eq!(
            jsonl.lines().next().unwrap(),
            t[0].to_jsonl(),
            "jsonl rendering is the canonical codec"
        );
        let csv = render_events_csv(&sel);
        assert_eq!(csv.lines().next().unwrap(), "t,ev,node,packet");
        assert_eq!(csv.lines().nth(1).unwrap(), "0.0,app_send,,1");
        assert_eq!(csv.lines().nth(2).unwrap(), "0.5,tx,2,1");
        let w = window_aggregates(&t, 5.0);
        let wcsv = render_windows_csv(&w);
        assert_eq!(
            wcsv.lines().next().unwrap(),
            "t_start,t_end,events,tx,rx,drops,delivered,tx_bytes,rx_bytes,latency_sum"
        );
        assert_eq!(
            wcsv.lines().nth(1).unwrap(),
            "0.0,5.0,4,1,1,0,0,512,512,0.0"
        );
        let wjson = render_windows_json(5.0, &w);
        assert!(wjson.starts_with("{\"schema\":\"alert-windows/1\",\"every_s\":5.0,"));
        assert!(wjson.contains("\"drops\":{\"unicast_channel_loss\":1}"));
        // Determinism: rendering twice is byte-identical.
        assert_eq!(wjson, render_windows_json(5.0, &window_aggregates(&t, 5.0)));
    }
}
