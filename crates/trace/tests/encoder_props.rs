//! Property tests of the stateful JSONL encoder: its cached floats and
//! its digit loop write exactly what `format!` writes, and a stream
//! through one encoder is byte for byte the concatenation of per-event
//! `write_jsonl` lines.

use alert_rng::{check, Rng, RngCore, StdRng};
use alert_trace::{parse_trace, DropReason, JsonlEncoder, TraceEvent, TrafficKind, TxKind};

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
            reason: DropReason::UnicastOutOfRange.as_str().to_owned(),
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
