//! The deterministic JSONL codec.
//!
//! Every event encodes to exactly one JSON object per line with a fixed
//! field order (`"t"`, `"ev"`, then variant fields in declaration order)
//! and shortest-round-trip float formatting, so the byte-identical-trace
//! guarantee holds without depending on an external serializer. The
//! parser accepts exactly the flat objects the encoder produces (plus
//! arbitrary field order and whitespace, for hand-edited fixtures).
//!
//! Lines are tokenized by the workspace's one JSON codec
//! ([`crate::json`]).
//!
//! Encoding goes through one [`JsonlEncoder`]. Each variant writes a few
//! pre-joined literal pieces: the `"ev"` tag, every key, and every enum
//! name are folded into the literal around them (`,"ev":"rx","node":`,
//! `,"kind":"broadcast","bytes":`), so a line is a handful of
//! `push_str` calls between its numbers. Integers go through a digit
//! loop and are pushed as ASCII chars; floats through `{v:?}`; only the
//! two free-text fields (the `drop` and `run_aborted` reasons) are
//! escaped. The encoder's only state is the rendered text of the last
//! `"t"` and the last `"at"`, each keyed on the float's bits and kept in
//! a reused `String`: in a simulator trace nearly every line repeats the
//! previous line's time, and a broadcast's receivers all repeat its send
//! time, so those two floats are formatted once per change, and a hit
//! is one `push_str` with no UTF-8 re-validation. The state changes how
//! fast a line is written, never its bytes: [`TraceEvent::write_jsonl`]
//! is a fresh encoder, and a stream through one encoder is the
//! concatenation of per-event `write_jsonl` lines.

use crate::event::{CryptoOp, TickKind, TraceEvent, TrafficKind, TxKind};
use crate::json::{parse_object, push_str_escaped, Val};
use std::fmt;
use std::fmt::Write as _;

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Appends `v` in Rust's shortest round-trip form (`{v:?}`), the one
/// float rendering of the trace codec and of everything rendered from a
/// trace (`tracequery`, the timeseries).
pub fn push_f64(out: &mut String, v: f64) {
    // Finite values are always valid JSON numbers.
    debug_assert!(v.is_finite(), "trace times/values must be finite");
    let _ = write!(out, "{v:?}");
}

/// Appends `v` in decimal: a digit loop into a stack buffer, pushed as
/// ASCII chars.
pub(crate) fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend(buf[i..].iter().map(|&d| char::from(d)));
}

/// The text of the last float written through it, keyed on its bits:
/// `0.0` and `-0.0` (and any two NaN payloads) render differently, so
/// equal values are not enough for a hit.
#[derive(Debug, Default)]
struct CachedF64 {
    bits: Option<u64>,
    /// Cleared and refilled on a miss; it allocates once, since `{v:?}`
    /// of any `f64` is at most 24 bytes (`-2.2250738585072014e-308`).
    text: String,
}

impl CachedF64 {
    fn push(&mut self, out: &mut String, v: f64) {
        let bits = v.to_bits();
        if self.bits != Some(bits) {
            self.text.clear();
            self.text.reserve(24);
            push_f64(&mut self.text, v);
            self.bits = Some(bits);
        }
        out.push_str(&self.text);
    }
}

/// The JSONL trace encoder.
///
/// Encoding is a pure function of the event. Each variant writes its
/// line as a few pre-joined literal pieces, with the `"ev"` tag, the
/// keys and any enum name folded in, between its numbers. The encoder
/// only remembers the rendered text of the last `"t"` and the last
/// `"at"` (an `rx` line's send time), and formats a float again only
/// when its bits change; a hit pushes the kept text as is, with no
/// re-validation. Most lines repeat both: events at one instant share
/// `"t"`, and a broadcast's receivers are all traced at send time with
/// one `"at"`. So one encoder per stream (as [`crate::JsonlSink`]
/// keeps) writes exactly the bytes of [`TraceEvent::write_jsonl`] per
/// line, only faster; a fresh encoder is what `write_jsonl` uses.
#[derive(Debug, Default)]
pub struct JsonlEncoder {
    t: CachedF64,
    at: CachedF64,
}

impl JsonlEncoder {
    /// Appends the canonical encoding of `event` (without the trailing
    /// newline) to `out`.
    pub fn encode(&mut self, event: &TraceEvent, out: &mut String) {
        out.push_str(r#"{"t":"#);
        self.t.push(out, event.time());
        match event {
            TraceEvent::Tick { kind, .. } => out.push_str(match kind {
                TickKind::Mobility => r#","ev":"tick","kind":"mobility""#,
                TickKind::Hello => r#","ev":"tick","kind":"hello""#,
                TickKind::Location => r#","ev":"tick","kind":"location""#,
            }),
            TraceEvent::AppSend {
                packet,
                session,
                seq,
                src,
                dst,
                ..
            } => {
                u64_piece(out, r#","ev":"app_send","packet":"#, *packet);
                u64_piece(out, r#","session":"#, *session);
                u64_piece(out, r#","seq":"#, *seq);
                u64_piece(out, r#","src":"#, *src);
                u64_piece(out, r#","dst":"#, *dst);
            }
            TraceEvent::Tx {
                node,
                kind,
                class,
                bytes,
                packet,
                ..
            } => {
                u64_piece(out, r#","ev":"tx","node":"#, *node);
                out.push_str(match kind {
                    TxKind::Unicast => r#","kind":"unicast","class":""#,
                    TxKind::Broadcast => r#","kind":"broadcast","class":""#,
                });
                let class = match class {
                    TrafficKind::Data => r#"data","bytes":"#,
                    TrafficKind::Control => r#"control","bytes":"#,
                    TrafficKind::ControlHop => r#"control_hop","bytes":"#,
                    TrafficKind::Cover => r#"cover","bytes":"#,
                };
                u64_piece(out, class, *bytes);
                opt_packet(out, *packet);
            }
            TraceEvent::Rx {
                node,
                kind,
                bytes,
                at,
                ..
            } => {
                u64_piece(out, r#","ev":"rx","node":"#, *node);
                let kind = match kind {
                    TxKind::Unicast => r#","kind":"unicast","bytes":"#,
                    TxKind::Broadcast => r#","kind":"broadcast","bytes":"#,
                };
                u64_piece(out, kind, *bytes);
                out.push_str(r#","at":"#);
                self.at.push(out, *at);
            }
            TraceEvent::Drop {
                node,
                reason,
                packet,
                ..
            } => {
                u64_piece(out, r#","ev":"drop","node":"#, *node);
                out.push_str(r#","reason":"#);
                push_str_escaped(out, reason);
                opt_packet(out, *packet);
            }
            TraceEvent::TimerFire { node, token, .. } => {
                u64_piece(out, r#","ev":"timer","node":"#, *node);
                u64_piece(out, r#","token":"#, *token);
            }
            TraceEvent::LocationLookup {
                node,
                target,
                found,
                ..
            } => {
                u64_piece(out, r#","ev":"loc_lookup","node":"#, *node);
                u64_piece(out, r#","target":"#, *target);
                out.push_str(if *found {
                    r#","found":true"#
                } else {
                    r#","found":false"#
                });
            }
            TraceEvent::CryptoCharge { node, op, n, .. } => {
                u64_piece(out, r#","ev":"crypto","node":"#, *node);
                let op = match op {
                    CryptoOp::Symmetric => r#","op":"symmetric","n":"#,
                    CryptoOp::PkEncrypt => r#","op":"pk_encrypt","n":"#,
                    CryptoOp::PkDecrypt => r#","op":"pk_decrypt","n":"#,
                    CryptoOp::PkVerify => r#","op":"pk_verify","n":"#,
                    CryptoOp::Hash => r#","op":"hash","n":"#,
                };
                u64_piece(out, op, *n);
            }
            TraceEvent::PseudonymRotation { node, .. } => {
                u64_piece(out, r#","ev":"pseudonym_rotation","node":"#, *node);
            }
            TraceEvent::ZonePartition {
                node,
                packet,
                splits,
                td_x,
                td_y,
                ..
            } => {
                u64_piece(out, r#","ev":"zone_partition","node":"#, *node);
                u64_piece(out, r#","packet":"#, *packet);
                u64_piece(out, r#","splits":"#, *splits);
                f64_piece(out, r#","td_x":"#, *td_x);
                f64_piece(out, r#","td_y":"#, *td_y);
            }
            TraceEvent::ForwarderSelect {
                node,
                packet,
                target_x,
                target_y,
                progress,
                ..
            } => {
                u64_piece(out, r#","ev":"forwarder_select","node":"#, *node);
                opt_packet(out, *packet);
                f64_piece(out, r#","target_x":"#, *target_x);
                f64_piece(out, r#","target_y":"#, *target_y);
                out.push_str(if *progress {
                    r#","progress":true"#
                } else {
                    r#","progress":false"#
                });
            }
            TraceEvent::Hop { node, packet, .. } => {
                u64_piece(out, r#","ev":"hop","node":"#, *node);
                u64_piece(out, r#","packet":"#, *packet);
            }
            TraceEvent::RandomForwarder { node, packet, .. } => {
                u64_piece(out, r#","ev":"rf","node":"#, *node);
                u64_piece(out, r#","packet":"#, *packet);
            }
            TraceEvent::Delivered {
                node,
                packet,
                latency,
                ..
            } => {
                u64_piece(out, r#","ev":"delivered","node":"#, *node);
                u64_piece(out, r#","packet":"#, *packet);
                f64_piece(out, r#","latency":"#, *latency);
            }
            TraceEvent::NodeDown { node, .. } => {
                u64_piece(out, r#","ev":"node_down","node":"#, *node);
            }
            TraceEvent::NodeUp { node, .. } => {
                u64_piece(out, r#","ev":"node_up","node":"#, *node);
            }
            TraceEvent::LinkRetry {
                node,
                packet,
                attempt,
                ..
            } => {
                u64_piece(out, r#","ev":"link_retry","node":"#, *node);
                opt_packet(out, *packet);
                u64_piece(out, r#","attempt":"#, *attempt);
            }
            TraceEvent::RunAborted { reason, events, .. } => {
                out.push_str(r#","ev":"run_aborted","reason":"#);
                push_str_escaped(out, reason);
                u64_piece(out, r#","events":"#, *events);
            }
        }
        out.push('}');
    }
}

// Each `piece` is literal text ending in a key's `":`.

fn u64_piece(out: &mut String, piece: &str, v: u64) {
    out.push_str(piece);
    push_u64(out, v);
}

fn f64_piece(out: &mut String, piece: &str, v: f64) {
    out.push_str(piece);
    push_f64(out, v);
}

/// An optional `"packet"` field: absent, not `null`, when `None`.
fn opt_packet(out: &mut String, packet: Option<u64>) {
    if let Some(p) = packet {
        u64_piece(out, r#","packet":"#, p);
    }
}

impl TraceEvent {
    /// Appends the event's canonical JSONL encoding (without the trailing
    /// newline) to `out`, through a fresh [`JsonlEncoder`]. To encode a
    /// stream of events, keep one encoder instead.
    pub fn write_jsonl(&self, out: &mut String) {
        JsonlEncoder::default().encode(self, out);
    }

    /// The event's canonical JSONL encoding (without the trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(96);
        self.write_jsonl(&mut s);
        s
    }

    /// Parses one JSONL line back into an event.
    pub fn from_jsonl(line: &str) -> Result<Self, ParseError> {
        parse_line(line, 0)
    }
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

/// Error from [`parse_trace`] / [`TraceEvent::from_jsonl`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number (0 for single-line parses).
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "trace line {}: {}", self.line, self.msg)
        } else {
            write!(f, "trace: {}", self.msg)
        }
    }
}

impl std::error::Error for ParseError {}

/// Parses a whole JSONL document (blank lines skipped) into events.
pub fn parse_trace(text: &str) -> Result<Vec<TraceEvent>, ParseError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        out.push(parse_line(line, i + 1)?);
    }
    Ok(out)
}

pub(crate) fn err(line: usize, msg: impl Into<String>) -> ParseError {
    ParseError {
        line,
        msg: msg.into(),
    }
}

struct Fields<'a> {
    map: Vec<(String, Val)>,
    lno: usize,
    marker: std::marker::PhantomData<&'a ()>,
}

impl Fields<'_> {
    fn get(&self, key: &str) -> Option<&Val> {
        self.map.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn f64(&self, key: &str) -> Result<f64, ParseError> {
        match self.get(key) {
            Some(Val::Num(raw)) => raw
                .parse()
                .map_err(|_| err(self.lno, format!("field '{key}' is not a number"))),
            _ => Err(err(self.lno, format!("missing numeric field '{key}'"))),
        }
    }

    fn u64(&self, key: &str) -> Result<u64, ParseError> {
        match self.get(key) {
            Some(Val::Num(raw)) => raw
                .parse()
                .map_err(|_| err(self.lno, format!("field '{key}' is not an integer"))),
            _ => Err(err(self.lno, format!("missing integer field '{key}'"))),
        }
    }

    fn opt_u64(&self, key: &str) -> Result<Option<u64>, ParseError> {
        match self.get(key) {
            None | Some(Val::Null) => Ok(None),
            Some(_) => self.u64(key).map(Some),
        }
    }

    fn str(&self, key: &str) -> Result<&str, ParseError> {
        match self.get(key) {
            Some(Val::Str(s)) => Ok(s),
            _ => Err(err(self.lno, format!("missing string field '{key}'"))),
        }
    }

    fn bool(&self, key: &str) -> Result<bool, ParseError> {
        match self.get(key) {
            Some(Val::Bool(b)) => Ok(*b),
            _ => Err(err(self.lno, format!("missing boolean field '{key}'"))),
        }
    }
}

fn parse_line(line: &str, lno: usize) -> Result<TraceEvent, ParseError> {
    let f = Fields {
        map: parse_object(line, lno)?,
        lno,
        marker: std::marker::PhantomData,
    };
    let time = f.f64("t")?;
    let ev = f.str("ev")?;
    let event = match ev {
        "tick" => TraceEvent::Tick {
            time,
            kind: TickKind::from_str_opt(f.str("kind")?)
                .ok_or_else(|| err(lno, "unknown tick kind"))?,
        },
        "app_send" => TraceEvent::AppSend {
            time,
            packet: f.u64("packet")?,
            session: f.u64("session")?,
            seq: f.u64("seq")?,
            src: f.u64("src")?,
            dst: f.u64("dst")?,
        },
        "tx" => TraceEvent::Tx {
            time,
            node: f.u64("node")?,
            kind: TxKind::from_str_opt(f.str("kind")?)
                .ok_or_else(|| err(lno, "unknown tx kind"))?,
            class: TrafficKind::from_str_opt(f.str("class")?)
                .ok_or_else(|| err(lno, "unknown traffic class"))?,
            bytes: f.u64("bytes")?,
            packet: f.opt_u64("packet")?,
        },
        "rx" => TraceEvent::Rx {
            time,
            node: f.u64("node")?,
            kind: TxKind::from_str_opt(f.str("kind")?)
                .ok_or_else(|| err(lno, "unknown tx kind"))?,
            bytes: f.u64("bytes")?,
            at: f.f64("at")?,
        },
        "drop" => TraceEvent::Drop {
            time,
            node: f.u64("node")?,
            reason: f.str("reason")?.to_owned().into(),
            packet: f.opt_u64("packet")?,
        },
        "timer" => TraceEvent::TimerFire {
            time,
            node: f.u64("node")?,
            token: f.u64("token")?,
        },
        "loc_lookup" => TraceEvent::LocationLookup {
            time,
            node: f.u64("node")?,
            target: f.u64("target")?,
            found: f.bool("found")?,
        },
        "crypto" => TraceEvent::CryptoCharge {
            time,
            node: f.u64("node")?,
            op: CryptoOp::from_str_opt(f.str("op")?)
                .ok_or_else(|| err(lno, "unknown crypto op"))?,
            n: f.u64("n")?,
        },
        "pseudonym_rotation" => TraceEvent::PseudonymRotation {
            time,
            node: f.u64("node")?,
        },
        "zone_partition" => TraceEvent::ZonePartition {
            time,
            node: f.u64("node")?,
            packet: f.u64("packet")?,
            splits: f.u64("splits")?,
            td_x: f.f64("td_x")?,
            td_y: f.f64("td_y")?,
        },
        "forwarder_select" => TraceEvent::ForwarderSelect {
            time,
            node: f.u64("node")?,
            packet: f.opt_u64("packet")?,
            target_x: f.f64("target_x")?,
            target_y: f.f64("target_y")?,
            progress: f.bool("progress")?,
        },
        "hop" => TraceEvent::Hop {
            time,
            node: f.u64("node")?,
            packet: f.u64("packet")?,
        },
        "rf" => TraceEvent::RandomForwarder {
            time,
            node: f.u64("node")?,
            packet: f.u64("packet")?,
        },
        "delivered" => TraceEvent::Delivered {
            time,
            node: f.u64("node")?,
            packet: f.u64("packet")?,
            latency: f.f64("latency")?,
        },
        "node_down" => TraceEvent::NodeDown {
            time,
            node: f.u64("node")?,
        },
        "node_up" => TraceEvent::NodeUp {
            time,
            node: f.u64("node")?,
        },
        "link_retry" => TraceEvent::LinkRetry {
            time,
            node: f.u64("node")?,
            packet: f.opt_u64("packet")?,
            attempt: f.u64("attempt")?,
        },
        "run_aborted" => TraceEvent::RunAborted {
            time,
            reason: f.str("reason")?.to_owned(),
            events: f.u64("events")?,
        },
        other => return Err(err(lno, format!("unknown event kind '{other}'"))),
    };
    Ok(event)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::DropReason;

    fn all_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Tick {
                time: 0.5,
                kind: TickKind::Mobility,
            },
            TraceEvent::AppSend {
                time: 1.0,
                packet: 0,
                session: 2,
                seq: 3,
                src: 4,
                dst: 5,
            },
            TraceEvent::Tx {
                time: 1.25,
                node: 4,
                kind: TxKind::Unicast,
                class: TrafficKind::Data,
                bytes: 532,
                packet: Some(0),
            },
            TraceEvent::Tx {
                time: 1.25,
                node: 4,
                kind: TxKind::Broadcast,
                class: TrafficKind::Cover,
                bytes: 24,
                packet: None,
            },
            TraceEvent::Rx {
                time: 1.25,
                node: 7,
                kind: TxKind::Unicast,
                bytes: 532,
                at: 1.2533,
            },
            TraceEvent::Drop {
                time: 2.0,
                node: 4,
                reason: DropReason::UnicastOutOfRange.as_str().into(),
                packet: Some(0),
            },
            TraceEvent::TimerFire {
                time: 2.5,
                node: 9,
                token: 64,
            },
            TraceEvent::LocationLookup {
                time: 3.0,
                node: 4,
                target: 5,
                found: true,
            },
            TraceEvent::CryptoCharge {
                time: 3.0,
                node: 4,
                op: CryptoOp::PkEncrypt,
                n: 1,
            },
            TraceEvent::PseudonymRotation {
                time: 30.0,
                node: 8,
            },
            TraceEvent::ZonePartition {
                time: 1.25,
                node: 4,
                packet: 0,
                splits: 3,
                td_x: 612.5,
                td_y: 88.0625,
            },
            TraceEvent::ForwarderSelect {
                time: 1.3,
                node: 6,
                packet: Some(0),
                target_x: 612.5,
                target_y: 88.0625,
                progress: false,
            },
            TraceEvent::Hop {
                time: 1.3,
                node: 6,
                packet: 0,
            },
            TraceEvent::RandomForwarder {
                time: 1.3,
                node: 6,
                packet: 0,
            },
            TraceEvent::Delivered {
                time: 1.4,
                node: 5,
                packet: 0,
                latency: 0.4,
            },
            TraceEvent::NodeDown {
                time: 10.0,
                node: 3,
            },
            TraceEvent::NodeUp {
                time: 20.0,
                node: 3,
            },
            TraceEvent::LinkRetry {
                time: 1.26,
                node: 4,
                packet: Some(0),
                attempt: 1,
            },
            TraceEvent::LinkRetry {
                time: 1.27,
                node: 4,
                packet: None,
                attempt: 2,
            },
            TraceEvent::RunAborted {
                time: 5.5,
                reason: "livelock".to_owned(),
                events: 123_456,
            },
        ]
    }

    #[test]
    fn every_event_round_trips() {
        for e in all_events() {
            let line = e.to_jsonl();
            let back = TraceEvent::from_jsonl(&line).unwrap_or_else(|err| {
                panic!("parse failed for {line}: {err}");
            });
            assert_eq!(back, e, "round trip of {line}");
        }
    }

    #[test]
    fn document_round_trips() {
        let events = all_events();
        let mut doc = String::new();
        for e in &events {
            e.write_jsonl(&mut doc);
            doc.push('\n');
        }
        assert_eq!(parse_trace(&doc).unwrap(), events);
    }

    #[test]
    fn encoding_is_stable() {
        let e = TraceEvent::Tx {
            time: 1.25,
            node: 4,
            kind: TxKind::Unicast,
            class: TrafficKind::Data,
            bytes: 532,
            packet: Some(7),
        };
        assert_eq!(
            e.to_jsonl(),
            "{\"t\":1.25,\"ev\":\"tx\",\"node\":4,\"kind\":\"unicast\",\"class\":\"data\",\"bytes\":532,\"packet\":7}"
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        let e = TraceEvent::Drop {
            time: 0.0,
            node: 0,
            reason: "weird \"reason\"\nwith\tescapes\\".into(),
            packet: None,
        };
        let line = e.to_jsonl();
        assert_eq!(TraceEvent::from_jsonl(&line).unwrap(), e);
    }

    #[test]
    fn large_u64_fields_survive() {
        let e = TraceEvent::TimerFire {
            time: 0.0,
            node: 1,
            token: u64::MAX,
        };
        assert_eq!(TraceEvent::from_jsonl(&e.to_jsonl()).unwrap(), e);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(TraceEvent::from_jsonl("not json").is_err());
        assert!(TraceEvent::from_jsonl("{\"t\":1.0}").is_err());
        assert!(TraceEvent::from_jsonl("{\"t\":1.0,\"ev\":\"martian\"}").is_err());
        assert!(
            TraceEvent::from_jsonl("{\"t\":1.0,\"ev\":\"hop\",\"node\":1,\"packet\":2}x").is_err()
        );
        let bad = parse_trace("{\"t\":1.0,\"ev\":\"hop\",\"node\":1}\n");
        assert_eq!(bad.unwrap_err().line, 1);
    }

    #[test]
    fn parse_accepts_reordered_fields_and_blank_lines() {
        let doc = "\n{\"ev\":\"hop\",\"packet\":2,\"node\":1,\"t\":1.5}\n\n";
        assert_eq!(
            parse_trace(doc).unwrap(),
            vec![TraceEvent::Hop {
                time: 1.5,
                node: 1,
                packet: 2
            }]
        );
    }
}
