//! The deterministic metrics timeseries (`alert-timeseries/1`).
//!
//! A [`MetricsTimeseries`] is the second observability layer: periodic
//! [`RegistrySnapshot`] samples taken every `every_s` simulated seconds
//! and encoded as append-only JSONL. Like the event codec
//! (crate::jsonl), encoding is hand-rolled with a fixed key order and
//! shortest-round-trip float formatting, so the same `(scenario, seed)`
//! run always produces a byte-identical series.
//!
//! ## Format: `alert-timeseries/1`
//!
//! Line 1 is the header object:
//!
//! ```json
//! {"schema":"alert-timeseries/1","every_s":5.0}
//! ```
//!
//! Every following line is one sample — a *flat* JSON object (so the
//! event codec's tokenizer parses it) whose keys are, in order:
//!
//! * `"t"` — the window's end time in simulated seconds. Sample `t`
//!   covers the half-open window `(t - every_s, t]`; the first window
//!   additionally includes events at `t = 0`.
//! * `"c:<counter>"` — cumulative counter value at `t`, every registry
//!   counter in lexicographic name order.
//! * `"d:<counter>"` — the per-window delta (`c` at `t` minus `c` at the
//!   previous sample), same order. Per-window *rates* are derived, not
//!   stored: `rate = d / every_s` (see [`TimeseriesSample::rate`]), so
//!   the stored series stays integer-exact.
//! * `"hc:<histogram>"` / `"hs:<histogram>"` — cumulative sample count
//!   and sum of each registry histogram, in lexicographic name order.
//!
//! Counters are monotone, so every `d:` value is a non-negative integer
//! and the cumulative row of the final sample equals the whole-run
//! registry totals (the runtime flushes a final partial sample at the
//! run's end time when it does not land on a window boundary).

use crate::json::{parse_object, Val};
use crate::jsonl::{self, err, ParseError};
use crate::registry::RegistrySnapshot;
use std::collections::BTreeMap;

/// Schema tag written in the header line.
pub const TIMESERIES_SCHEMA: &str = "alert-timeseries/1";

/// One periodic registry sample (see the module docs for the window
/// convention and wire encoding).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimeseriesSample {
    /// Window end time, simulated seconds.
    pub t: f64,
    /// Cumulative counter values at `t`, by name.
    pub counters: BTreeMap<String, u64>,
    /// Per-window counter deltas (this sample minus the previous one).
    pub deltas: BTreeMap<String, u64>,
    /// Cumulative histogram sample counts at `t`, by name.
    pub hist_count: BTreeMap<String, u64>,
    /// Cumulative histogram sample sums at `t`, by name.
    pub hist_sum: BTreeMap<String, f64>,
}

impl TimeseriesSample {
    /// Appends the sample's canonical JSONL encoding (without the
    /// trailing newline) to `out`.
    pub fn write_jsonl(&self, out: &mut String) {
        out.push_str("{\"t\":");
        jsonl::push_f64(out, self.t);
        for (name, v) in &self.counters {
            push_key(out, ",\"c:", name);
            jsonl::push_u64(out, *v);
        }
        for (name, v) in &self.deltas {
            push_key(out, ",\"d:", name);
            jsonl::push_u64(out, *v);
        }
        for (name, v) in &self.hist_count {
            push_key(out, ",\"hc:", name);
            jsonl::push_u64(out, *v);
        }
        for (name, v) in &self.hist_sum {
            push_key(out, ",\"hs:", name);
            jsonl::push_f64(out, *v);
        }
        out.push('}');
    }

    /// Per-window rate of `counter` in events per simulated second
    /// (`delta / every_s`); 0 for unknown counters.
    pub fn rate(&self, counter: &str, every_s: f64) -> f64 {
        if every_s <= 0.0 {
            return 0.0;
        }
        self.deltas
            .get(counter)
            .map_or(0.0, |&d| d as f64 / every_s)
    }
}

/// Writes `{prefix}{name}":`, the key of one sample field. Registry
/// names are plain identifiers, written as they are.
fn push_key(out: &mut String, prefix: &str, name: &str) {
    out.push_str(prefix);
    out.push_str(name);
    out.push_str("\":");
}

/// An append-only series of periodic registry samples plus the sampling
/// interval — the in-memory form of an `alert-timeseries/1` document.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsTimeseries {
    /// Sampling interval in simulated seconds.
    pub every_s: f64,
    /// Samples in time order.
    pub samples: Vec<TimeseriesSample>,
}

impl MetricsTimeseries {
    /// An empty series sampling every `every_s` simulated seconds.
    ///
    /// # Panics
    /// If `every_s` is not finite and positive.
    pub fn new(every_s: f64) -> Self {
        assert!(
            every_s.is_finite() && every_s > 0.0,
            "timeseries interval must be finite and positive, got {every_s}"
        );
        Self {
            every_s,
            samples: Vec::new(),
        }
    }

    /// Appends a sample of `snap` at window end time `t`, computing the
    /// per-window deltas against the previous sample (or zero).
    ///
    /// # Panics
    /// In debug builds, if `t` does not increase monotonically or a
    /// counter decreases (registry counters are monotone).
    pub fn record(&mut self, t: f64, snap: &RegistrySnapshot) {
        debug_assert!(
            self.samples.last().is_none_or(|s| t > s.t),
            "timeseries sample times must be strictly increasing"
        );
        let prev = self.samples.last().map(|s| &s.counters);
        let deltas = snap
            .counters
            .iter()
            .map(|(name, &v)| {
                let before = prev.and_then(|p| p.get(name)).copied().unwrap_or(0);
                debug_assert!(v >= before, "counter '{name}' went backwards");
                (name.clone(), v.saturating_sub(before))
            })
            .collect();
        self.samples.push(TimeseriesSample {
            t,
            counters: snap.counters.clone(),
            deltas,
            hist_count: snap
                .histograms
                .iter()
                .map(|(n, h)| (n.clone(), h.count))
                .collect(),
            hist_sum: snap
                .histograms
                .iter()
                .map(|(n, h)| (n.clone(), h.sum))
                .collect(),
        });
    }

    /// The canonical `alert-timeseries/1` document: header line plus one
    /// line per sample, each newline-terminated.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(64 + self.samples.len() * 256);
        out.push_str("{\"schema\":\"");
        out.push_str(TIMESERIES_SCHEMA);
        out.push_str("\",\"every_s\":");
        jsonl::push_f64(&mut out, self.every_s);
        out.push_str("}\n");
        for s in &self.samples {
            s.write_jsonl(&mut out);
            out.push('\n');
        }
        out
    }

    /// Parses an `alert-timeseries/1` document (as produced by
    /// [`MetricsTimeseries::to_jsonl`]; blank lines are skipped).
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        let mut lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.trim()))
            .filter(|(_, l)| !l.is_empty());
        let (lno, header) = lines.next().ok_or_else(|| err(0, "empty timeseries"))?;
        let mut every_s = None;
        for (key, val) in parse_object(header, lno)? {
            match (key.as_str(), val) {
                ("schema", Val::Str(s)) if s == TIMESERIES_SCHEMA => {}
                ("schema", _) => return Err(err(lno, "unknown timeseries schema")),
                ("every_s", Val::Num(raw)) => {
                    every_s = Some(
                        raw.parse::<f64>()
                            .map_err(|_| err(lno, "'every_s' is not a number"))?,
                    );
                }
                _ => {}
            }
        }
        let every_s = every_s.ok_or_else(|| err(lno, "header missing 'every_s'"))?;
        if !(every_s.is_finite() && every_s > 0.0) {
            return Err(err(lno, "'every_s' must be finite and positive"));
        }
        let mut series = MetricsTimeseries::new(every_s);
        for (lno, line) in lines {
            let mut s = TimeseriesSample::default();
            let mut have_t = false;
            for (key, val) in parse_object(line, lno)? {
                let num_u64 = |v: &Val| -> Result<u64, ParseError> {
                    match v {
                        Val::Num(raw) => raw
                            .parse()
                            .map_err(|_| err(lno, format!("field '{key}' is not an integer"))),
                        _ => Err(err(lno, format!("field '{key}' is not a number"))),
                    }
                };
                if key == "t" {
                    match &val {
                        Val::Num(raw) => {
                            s.t = raw.parse().map_err(|_| err(lno, "'t' is not a number"))?;
                            have_t = true;
                        }
                        _ => return Err(err(lno, "'t' is not a number")),
                    }
                } else if let Some(name) = key.strip_prefix("c:") {
                    s.counters.insert(name.to_owned(), num_u64(&val)?);
                } else if let Some(name) = key.strip_prefix("d:") {
                    s.deltas.insert(name.to_owned(), num_u64(&val)?);
                } else if let Some(name) = key.strip_prefix("hc:") {
                    s.hist_count.insert(name.to_owned(), num_u64(&val)?);
                } else if let Some(name) = key.strip_prefix("hs:") {
                    match &val {
                        Val::Num(raw) => {
                            s.hist_sum.insert(
                                name.to_owned(),
                                raw.parse()
                                    .map_err(|_| err(lno, format!("'{key}' is not a number")))?,
                            );
                        }
                        _ => return Err(err(lno, format!("'{key}' is not a number"))),
                    }
                } else {
                    return Err(err(lno, format!("unknown timeseries field '{key}'")));
                }
            }
            if !have_t {
                return Err(err(lno, "sample missing 't'"));
            }
            series.samples.push(s);
        }
        Ok(series)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn snap_at(tx: u64, lat: &[f64]) -> RegistrySnapshot {
        let mut r = Registry::new();
        let c = r.counter("tx.frames");
        let d = r.counter("drops");
        let h = r.histogram("latency_s");
        r.add(c, tx);
        let _ = d; // stays 0 — exercises zero-delta encoding
        for &v in lat {
            r.observe(h, v);
        }
        r.snapshot()
    }

    #[test]
    fn record_computes_window_deltas() {
        let mut ts = MetricsTimeseries::new(5.0);
        ts.record(5.0, &snap_at(10, &[0.25]));
        ts.record(10.0, &snap_at(25, &[0.25, 0.5]));
        assert_eq!(ts.samples[0].deltas["tx.frames"], 10);
        assert_eq!(ts.samples[1].deltas["tx.frames"], 15);
        assert_eq!(ts.samples[1].counters["tx.frames"], 25);
        assert_eq!(ts.samples[1].hist_count["latency_s"], 2);
        assert_eq!(ts.samples[1].rate("tx.frames", 5.0), 3.0);
        assert_eq!(ts.samples[1].rate("missing", 5.0), 0.0);
    }

    #[test]
    fn encoding_is_stable_and_round_trips() {
        let mut ts = MetricsTimeseries::new(5.0);
        ts.record(5.0, &snap_at(10, &[0.25]));
        ts.record(10.0, &snap_at(25, &[0.25, 0.5]));
        let doc = ts.to_jsonl();
        let first = doc.lines().next().unwrap();
        assert_eq!(first, "{\"schema\":\"alert-timeseries/1\",\"every_s\":5.0}");
        let second = doc.lines().nth(1).unwrap();
        assert_eq!(
            second,
            "{\"t\":5.0,\"c:drops\":0,\"c:tx.frames\":10,\"d:drops\":0,\
             \"d:tx.frames\":10,\"hc:latency_s\":1,\"hs:latency_s\":0.25}"
        );
        let back = MetricsTimeseries::parse(&doc).unwrap();
        assert_eq!(back, ts);
        // Byte determinism: encode → parse → encode is the identity.
        assert_eq!(back.to_jsonl(), doc);
    }

    #[test]
    fn final_cumulative_row_matches_delta_sum() {
        let mut ts = MetricsTimeseries::new(1.0);
        for (i, tx) in [(1.0, 3u64), (2.0, 7), (3.0, 7), (4.0, 30)] {
            ts.record(i, &snap_at(tx, &[]));
        }
        let total: u64 = ts.samples.iter().map(|s| s.deltas["tx.frames"]).sum();
        assert_eq!(total, ts.samples.last().unwrap().counters["tx.frames"]);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(MetricsTimeseries::parse("").is_err());
        assert!(MetricsTimeseries::parse("{\"schema\":\"other/9\",\"every_s\":5.0}\n").is_err());
        assert!(MetricsTimeseries::parse("{\"schema\":\"alert-timeseries/1\"}\n").is_err());
        assert!(
            MetricsTimeseries::parse("{\"schema\":\"alert-timeseries/1\",\"every_s\":0}\n")
                .is_err()
        );
        let doc = "{\"schema\":\"alert-timeseries/1\",\"every_s\":5.0}\n{\"c:x\":1}\n";
        assert!(MetricsTimeseries::parse(doc).is_err(), "sample missing t");
        let doc = "{\"schema\":\"alert-timeseries/1\",\"every_s\":5.0}\n{\"t\":5.0,\"zz\":1}\n";
        assert!(MetricsTimeseries::parse(doc).is_err(), "unknown field");
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn zero_interval_is_rejected() {
        let _ = MetricsTimeseries::new(0.0);
    }
}
