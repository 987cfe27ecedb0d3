//! Property tests of the stateful JSONL encoder: its cached floats and
//! its digit loop write exactly what `format!` writes, a stream through
//! one encoder is byte for byte the concatenation of per-event
//! `write_jsonl` lines, and both equal the bytes of a field-by-field
//! reference encoder kept here as the oracle.

use alert_rng::{check, Rng, RngCore, StdRng};
use alert_trace::{
    parse_trace, push_str_escaped, CryptoOp, DropReason, JsonlEncoder, TickKind, TraceEvent,
    TrafficKind, TxKind,
};
use std::fmt::Write as _;

/// A float the encoder might meet: any finite bit pattern, a subnormal,
/// a signed zero, an extreme exponent or a round value.
fn random_f64(rng: &mut StdRng) -> f64 {
    let sign = if rng.gen_bool(0.5) { 1u64 << 63 } else { 0 };
    let mantissa = rng.next_u64() & ((1 << 52) - 1);
    let v = match rng.gen_range(0..6u32) {
        0 => f64::from_bits(rng.next_u64()),
        1 => f64::from_bits(sign | mantissa.max(1)),
        2 => f64::from_bits(sign),
        3 => {
            let exp = if rng.gen_bool(0.5) { 0x001 } else { 0x7FE };
            f64::from_bits(sign | (exp << 52) | mantissa)
        }
        4 => f64::from(rng.gen_range(0..100_000u32)) / 1000.0,
        _ => rng.gen_range(0.0..100.0),
    };
    if v.is_finite() {
        v
    } else {
        f64::from_bits(sign | mantissa)
    }
}

/// Floats in runs of equal values, so the encoder's cache both hits and
/// misses, and `0.0` meets `-0.0`.
fn runs_of_f64(rng: &mut StdRng, n: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let v = random_f64(rng);
        let run = rng.gen_range(1..6usize);
        out.extend(std::iter::repeat_n(v, run));
    }
    out.truncate(n);
    out
}

/// A `u64` of any magnitude.
fn random_u64(rng: &mut StdRng) -> u64 {
    rng.next_u64() >> rng.gen_range(0..64u32)
}

fn rx(time: f64, at: f64) -> TraceEvent {
    TraceEvent::Rx {
        time,
        node: 7,
        kind: TxKind::Broadcast,
        bytes: 24,
        at,
    }
}

fn encode_all(events: &[TraceEvent]) -> String {
    let mut encoder = JsonlEncoder::default();
    let mut doc = String::new();
    for e in events {
        encoder.encode(e, &mut doc);
        doc.push('\n');
    }
    doc
}

#[test]
fn cached_floats_match_debug_formatting() {
    check(64, 0x71ACE, |rng| {
        let times = runs_of_f64(rng, 200);
        let ats = runs_of_f64(rng, 200);
        let mut encoder = JsonlEncoder::default();
        for (&t, &at) in times.iter().zip(&ats) {
            let mut line = String::new();
            encoder.encode(&rx(t, at), &mut line);
            let want = format!(
                "{{\"t\":{t:?},\"ev\":\"rx\",\"node\":7,\"kind\":\"broadcast\",\"bytes\":24,\"at\":{at:?}}}"
            );
            assert_eq!(
                line,
                want,
                "t bits {:#x}, at bits {:#x}",
                t.to_bits(),
                at.to_bits()
            );
        }
    });
}

#[test]
fn cache_tells_signed_zeros_apart() {
    let pairs = [(0.0, -0.0), (-0.0, 0.0), (0.0, 0.0), (-0.0, -0.0)];
    let events: Vec<_> = pairs.iter().map(|&(t, at)| rx(t, at)).collect();
    let doc = encode_all(&events);
    let times: Vec<_> = doc
        .lines()
        .map(|l| &l["{\"t\":".len()..l.find(',').unwrap()])
        .collect();
    assert_eq!(times, ["0.0", "-0.0", "0.0", "-0.0"]);
    let ats: Vec<_> = doc
        .lines()
        .map(|l| &l[l.rfind(':').unwrap() + 1..l.len() - 1])
        .collect();
    assert_eq!(ats, ["-0.0", "0.0", "0.0", "-0.0"]);
}

#[test]
fn digit_loop_matches_to_string() {
    let timer = |token: u64| TraceEvent::TimerFire {
        time: 1.5,
        node: 0,
        token,
    };
    let check_one = |v: u64| {
        assert_eq!(
            timer(v).to_jsonl(),
            format!("{{\"t\":1.5,\"ev\":\"timer\",\"node\":0,\"token\":{v}}}")
        );
    };
    let mut fixed = vec![0, 1, 9, 10, 99, 100, u64::MAX - 1, u64::MAX];
    fixed.extend((1..20).flat_map(|e| [10u64.pow(e) - 1, 10u64.pow(e)]));
    fixed.into_iter().for_each(check_one);
    check(256, 0xD1617, |rng| check_one(random_u64(rng)));
}

/// An event at `t`: mostly `rx` (receiving at `at`), as in a
/// broadcast-heavy trace, else one of the other field shapes.
fn random_event(rng: &mut StdRng, t: f64, at: f64) -> TraceEvent {
    let node = random_u64(rng);
    let packet = rng.gen_bool(0.8).then(|| rng.gen_range(0..1000u64));
    match rng.gen_range(0..10u32) {
        0 => TraceEvent::Tx {
            time: t,
            node,
            kind: TxKind::Unicast,
            class: TrafficKind::Data,
            bytes: rng.gen_range(0..2000u64),
            packet,
        },
        1 => TraceEvent::Drop {
            time: t,
            node,
            reason: DropReason::UnicastOutOfRange.as_str().into(),
            packet,
        },
        2 => TraceEvent::Delivered {
            time: t,
            node,
            packet: packet.unwrap_or(0),
            latency: at,
        },
        3 => TraceEvent::ForwarderSelect {
            time: t,
            node,
            packet,
            target_x: at,
            target_y: random_f64(rng),
            progress: rng.gen_bool(0.5),
        },
        4 => TraceEvent::TimerFire {
            time: t,
            node,
            token: rng.next_u64(),
        },
        _ => TraceEvent::Rx {
            time: t,
            node,
            kind: TxKind::Broadcast,
            bytes: rng.gen_range(0..2000u64),
            at,
        },
    }
}

#[test]
fn stream_encoding_is_the_concatenation_of_lines() {
    check(64, 0x574EA4, |rng| {
        let times = runs_of_f64(rng, 300);
        let ats = runs_of_f64(rng, 300);
        let events: Vec<TraceEvent> = times
            .iter()
            .zip(&ats)
            .map(|(&t, &at)| random_event(rng, t, at))
            .collect();
        let stream = encode_all(&events);
        let mut lines = String::new();
        for e in &events {
            e.write_jsonl(&mut lines);
            lines.push('\n');
        }
        assert_eq!(stream, lines);
        assert_eq!(parse_trace(&stream).unwrap(), events);
    });
}

/// The field-by-field encoder the piece-wise one replaced, kept as the
/// byte oracle. It writes every key, tag and value as its own piece,
/// takes each enum name from `as_str()` through the escaper, and formats
/// every number afresh: it shares no literal and no cache with
/// [`JsonlEncoder`], so a changed byte there shows here.
fn reference_encode(event: &TraceEvent, out: &mut String) {
    fn key(out: &mut String, k: &str) {
        out.push_str(",\"");
        out.push_str(k);
        out.push_str("\":");
    }
    fn u64_field(out: &mut String, k: &str, v: u64) {
        key(out, k);
        let _ = write!(out, "{v}");
    }
    fn opt_u64_field(out: &mut String, k: &str, v: Option<u64>) {
        if let Some(v) = v {
            u64_field(out, k, v);
        }
    }
    fn f64_field(out: &mut String, k: &str, v: f64) {
        key(out, k);
        let _ = write!(out, "{v:?}");
    }
    fn str_field(out: &mut String, k: &str, v: &str) {
        key(out, k);
        push_str_escaped(out, v);
    }
    fn bool_field(out: &mut String, k: &str, v: bool) {
        key(out, k);
        out.push_str(if v { "true" } else { "false" });
    }

    let _ = write!(out, "{{\"t\":{:?}", event.time());
    out.push_str(",\"ev\":");
    push_str_escaped(out, event.kind());
    match event {
        TraceEvent::Tick { kind, .. } => str_field(out, "kind", kind.as_str()),
        TraceEvent::AppSend {
            packet,
            session,
            seq,
            src,
            dst,
            ..
        } => {
            u64_field(out, "packet", *packet);
            u64_field(out, "session", *session);
            u64_field(out, "seq", *seq);
            u64_field(out, "src", *src);
            u64_field(out, "dst", *dst);
        }
        TraceEvent::Tx {
            node,
            kind,
            class,
            bytes,
            packet,
            ..
        } => {
            u64_field(out, "node", *node);
            str_field(out, "kind", kind.as_str());
            str_field(out, "class", class.as_str());
            u64_field(out, "bytes", *bytes);
            opt_u64_field(out, "packet", *packet);
        }
        TraceEvent::Rx {
            node,
            kind,
            bytes,
            at,
            ..
        } => {
            u64_field(out, "node", *node);
            str_field(out, "kind", kind.as_str());
            u64_field(out, "bytes", *bytes);
            f64_field(out, "at", *at);
        }
        TraceEvent::Drop {
            node,
            reason,
            packet,
            ..
        } => {
            u64_field(out, "node", *node);
            str_field(out, "reason", reason);
            opt_u64_field(out, "packet", *packet);
        }
        TraceEvent::TimerFire { node, token, .. } => {
            u64_field(out, "node", *node);
            u64_field(out, "token", *token);
        }
        TraceEvent::LocationLookup {
            node,
            target,
            found,
            ..
        } => {
            u64_field(out, "node", *node);
            u64_field(out, "target", *target);
            bool_field(out, "found", *found);
        }
        TraceEvent::CryptoCharge { node, op, n, .. } => {
            u64_field(out, "node", *node);
            str_field(out, "op", op.as_str());
            u64_field(out, "n", *n);
        }
        TraceEvent::PseudonymRotation { node, .. }
        | TraceEvent::NodeDown { node, .. }
        | TraceEvent::NodeUp { node, .. } => u64_field(out, "node", *node),
        TraceEvent::ZonePartition {
            node,
            packet,
            splits,
            td_x,
            td_y,
            ..
        } => {
            u64_field(out, "node", *node);
            u64_field(out, "packet", *packet);
            u64_field(out, "splits", *splits);
            f64_field(out, "td_x", *td_x);
            f64_field(out, "td_y", *td_y);
        }
        TraceEvent::ForwarderSelect {
            node,
            packet,
            target_x,
            target_y,
            progress,
            ..
        } => {
            u64_field(out, "node", *node);
            opt_u64_field(out, "packet", *packet);
            f64_field(out, "target_x", *target_x);
            f64_field(out, "target_y", *target_y);
            bool_field(out, "progress", *progress);
        }
        TraceEvent::Hop { node, packet, .. } | TraceEvent::RandomForwarder { node, packet, .. } => {
            u64_field(out, "node", *node);
            u64_field(out, "packet", *packet);
        }
        TraceEvent::Delivered {
            node,
            packet,
            latency,
            ..
        } => {
            u64_field(out, "node", *node);
            u64_field(out, "packet", *packet);
            f64_field(out, "latency", *latency);
        }
        TraceEvent::LinkRetry {
            node,
            packet,
            attempt,
            ..
        } => {
            u64_field(out, "node", *node);
            opt_u64_field(out, "packet", *packet);
            u64_field(out, "attempt", *attempt);
        }
        TraceEvent::RunAborted { reason, events, .. } => {
            str_field(out, "reason", reason);
            u64_field(out, "events", *events);
        }
    }
    out.push('}');
}

const TICK_KINDS: [TickKind; 3] = [TickKind::Mobility, TickKind::Hello, TickKind::Location];
const TX_KINDS: [TxKind; 2] = [TxKind::Unicast, TxKind::Broadcast];
const TRAFFIC_KINDS: [TrafficKind; 4] = [
    TrafficKind::Data,
    TrafficKind::Control,
    TrafficKind::ControlHop,
    TrafficKind::Cover,
];
const CRYPTO_OPS: [CryptoOp; 5] = [
    CryptoOp::Symmetric,
    CryptoOp::PkEncrypt,
    CryptoOp::PkDecrypt,
    CryptoOp::PkVerify,
    CryptoOp::Hash,
];

fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())]
}

/// Free text for the two fields the encoder escapes: a canonical drop
/// reason, or a mix of plain ASCII, quotes, backslashes, every control
/// character and non-ASCII text.
fn random_text(rng: &mut StdRng) -> String {
    if rng.gen_bool(0.3) {
        return DropReason::UnicastChannelLoss.as_str().to_owned();
    }
    const PIECES: [&str; 9] = [
        "leg_ttl",
        "\"",
        "\\",
        "\u{7f}",
        "zoné",
        "ψ→∅",
        "\u{1F600}",
        " ",
        "",
    ];
    let mut s = String::new();
    for _ in 0..rng.gen_range(0..8usize) {
        if rng.gen_bool(0.3) {
            s.push(char::from(rng.gen_range(0..0x20u8)));
        } else {
            s.push_str(pick(rng, &PIECES));
        }
    }
    s
}

/// An event of any of the 18 variants at `t`, with every enum value,
/// absent and present optional packets, free-text reasons, and `at`
/// reused as the variant's other float so cached and uncached fields
/// meet the same bits.
fn any_event(rng: &mut StdRng, t: f64, at: f64) -> TraceEvent {
    let node = random_u64(rng);
    let packet = rng.gen_bool(0.7).then(|| random_u64(rng));
    let other = if rng.gen_bool(0.5) {
        at
    } else {
        random_f64(rng)
    };
    match rng.gen_range(0..18u32) {
        0 => TraceEvent::Tick {
            time: t,
            kind: pick(rng, &TICK_KINDS),
        },
        1 => TraceEvent::AppSend {
            time: t,
            packet: random_u64(rng),
            session: random_u64(rng),
            seq: random_u64(rng),
            src: random_u64(rng),
            dst: node,
        },
        2 => TraceEvent::Tx {
            time: t,
            node,
            kind: pick(rng, &TX_KINDS),
            class: pick(rng, &TRAFFIC_KINDS),
            bytes: random_u64(rng),
            packet,
        },
        3 => TraceEvent::Rx {
            time: t,
            node,
            kind: pick(rng, &TX_KINDS),
            bytes: random_u64(rng),
            at,
        },
        4 => TraceEvent::Drop {
            time: t,
            node,
            reason: random_text(rng).into(),
            packet,
        },
        5 => TraceEvent::TimerFire {
            time: t,
            node,
            token: random_u64(rng),
        },
        6 => TraceEvent::LocationLookup {
            time: t,
            node,
            target: random_u64(rng),
            found: rng.gen_bool(0.5),
        },
        7 => TraceEvent::CryptoCharge {
            time: t,
            node,
            op: pick(rng, &CRYPTO_OPS),
            n: random_u64(rng),
        },
        8 => TraceEvent::PseudonymRotation { time: t, node },
        9 => TraceEvent::ZonePartition {
            time: t,
            node,
            packet: random_u64(rng),
            splits: random_u64(rng),
            td_x: other,
            td_y: random_f64(rng),
        },
        10 => TraceEvent::ForwarderSelect {
            time: t,
            node,
            packet,
            target_x: random_f64(rng),
            target_y: other,
            progress: rng.gen_bool(0.5),
        },
        11 => TraceEvent::Hop {
            time: t,
            node,
            packet: random_u64(rng),
        },
        12 => TraceEvent::RandomForwarder {
            time: t,
            node,
            packet: random_u64(rng),
        },
        13 => TraceEvent::Delivered {
            time: t,
            node,
            packet: random_u64(rng),
            latency: other,
        },
        14 => TraceEvent::NodeDown { time: t, node },
        15 => TraceEvent::NodeUp { time: t, node },
        16 => TraceEvent::LinkRetry {
            time: t,
            node,
            packet,
            attempt: random_u64(rng),
        },
        _ => TraceEvent::RunAborted {
            time: t,
            reason: random_text(rng),
            events: random_u64(rng),
        },
    }
}

fn reference_doc(events: &[TraceEvent]) -> String {
    let mut doc = String::new();
    for e in events {
        reference_encode(e, &mut doc);
        doc.push('\n');
    }
    doc
}

#[test]
fn streams_match_the_reference_encoder() {
    check(64, 0x0AC1E, |rng| {
        let times = runs_of_f64(rng, 400);
        let ats = runs_of_f64(rng, 400);
        let events: Vec<TraceEvent> = times
            .iter()
            .zip(&ats)
            .map(|(&t, &at)| any_event(rng, t, at))
            .collect();
        let want = reference_doc(&events);
        let got = encode_all(&events);
        if got != want {
            let (g, w) = got
                .lines()
                .zip(want.lines())
                .find(|(g, w)| g != w)
                .expect("documents differ in some line");
            panic!("encoder wrote\n  {g}\nreference wrote\n  {w}");
        }
    });
}

#[test]
fn every_enum_value_matches_the_reference_encoder() {
    let mut events = Vec::new();
    for kind in TICK_KINDS {
        events.push(TraceEvent::Tick { time: 0.5, kind });
    }
    for kind in TX_KINDS {
        for class in TRAFFIC_KINDS {
            for packet in [None, Some(3)] {
                events.push(TraceEvent::Tx {
                    time: 1.0,
                    node: 4,
                    kind,
                    class,
                    bytes: 24,
                    packet,
                });
            }
        }
        events.push(TraceEvent::Rx {
            time: 1.0,
            node: 5,
            kind,
            bytes: 24,
            at: 1.0,
        });
    }
    for op in CRYPTO_OPS {
        events.push(TraceEvent::CryptoCharge {
            time: -0.0,
            node: 6,
            op,
            n: 1,
        });
    }
    for found in [false, true] {
        events.push(TraceEvent::LocationLookup {
            time: 0.0,
            node: 1,
            target: 2,
            found,
        });
    }
    for progress in [false, true] {
        events.push(TraceEvent::ForwarderSelect {
            time: f64::from_bits(1),
            node: 1,
            packet: None,
            target_x: -0.0,
            target_y: f64::MAX,
            progress,
        });
    }
    for reason in ["", "a\"b\\c", "\u{0}\u{1f}\n\r\t", "naïve ✓ \u{1F600}"] {
        events.push(TraceEvent::Drop {
            time: 2.0,
            node: 0,
            reason: reason.to_owned().into(),
            packet: None,
        });
        events.push(TraceEvent::RunAborted {
            time: 2.0,
            reason: reason.to_owned(),
            events: 0,
        });
    }
    let doc = encode_all(&events);
    assert_eq!(doc, reference_doc(&events));
    assert_eq!(parse_trace(&doc).unwrap(), events);
}
