//! Job specifications: what a client submits, how it is fingerprinted,
//! and how it executes into deterministic result artifacts.
//!
//! A [`JobSpec`] is the daemon's unit of work — one `(protocol,
//! scenario, seed)` simulation plus its observability requests. Its
//! [`fingerprint`](JobSpec::fingerprint) is the job's identity
//! everywhere: the journal, the wire protocol (as 16 hex digits), the
//! staging directory, and the versioned result directory. Two submits
//! of the same spec are the same job, which is what makes recovery
//! dedupe ("exactly-once-effective") possible at all.
//!
//! [`run_job`] is the single execution choke point: it drives
//! [`alert_bench::run_instrumented`] and reduces the run to a
//! [`Artifacts`] map of file name → contents. Artifacts are pure
//! functions of the spec — wall-clock numbers are deliberately excluded
//! from `metrics.json` — so a crashed-and-retried job reproduces its
//! bytes exactly, and the store can recognize a re-promotion of
//! identical content (see [`crate::store`]).

use alert_bench::{fingerprint_with, run_instrumented, ProtocolChoice, RunOptions};
use alert_core::AlertConfig;
use alert_sim::{JsonlSink, RunBudget, ScenarioConfig};
use alert_trace::{push_str_escaped, Val};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::sync::{Arc, Mutex};

/// Result artifacts of one job: file name → file contents, committed
/// together in one atomic directory promotion.
pub type Artifacts = BTreeMap<String, String>;

/// The protocol names a job may request, in `simrun` spelling.
pub const PROTOCOLS: [&str; 9] = [
    "alert", "gpsr", "alarm", "ao2p", "zap", "anodr", "prism", "mask", "mapcp",
];

/// One submitted simulation job. Optional limits use `0` as "unset" in
/// their on-disk/wire form — zero is never a valid budget, so the
/// encoding cannot alias a real limit.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Protocol name (`simrun` spelling, see [`PROTOCOLS`]).
    pub protocol: String,
    /// Node count of the scenario.
    pub nodes: usize,
    /// S–D pair count.
    pub pairs: usize,
    /// Simulated duration, seconds.
    pub duration_s: f64,
    /// Run seed.
    pub seed: u64,
    /// Deterministic event budget (`None` = unlimited).
    pub max_events: Option<u64>,
    /// Deterministic simulated-time budget, seconds.
    pub max_sim_s: Option<f64>,
    /// Livelock watchdog: max events per simulated instant.
    pub max_instant: Option<u64>,
    /// Store the structured JSONL event trace as `trace.jsonl`.
    pub trace: bool,
    /// Sample the metrics registry every this many simulated seconds
    /// into `timeseries.jsonl` (`None` = no sampling).
    pub every_s: Option<f64>,
}

impl Default for JobSpec {
    fn default() -> JobSpec {
        JobSpec {
            protocol: "gpsr".to_owned(),
            nodes: 40,
            pairs: 2,
            duration_s: 10.0,
            seed: 42,
            max_events: None,
            max_sim_s: None,
            max_instant: None,
            trace: false,
            every_s: None,
        }
    }
}

impl JobSpec {
    /// The job's stable identity: FNV-1a over every spec field (via the
    /// journal fingerprint helper, so the manifest schema version is
    /// mixed in too). Everywhere the daemon names a job — journal, wire,
    /// staging, results — it is by this value.
    pub fn fingerprint(&self) -> u64 {
        fingerprint_with(&[
            b"alertd-job/1",
            self.protocol.as_bytes(),
            &(self.nodes as u64).to_le_bytes(),
            &(self.pairs as u64).to_le_bytes(),
            &self.duration_s.to_bits().to_le_bytes(),
            &self.seed.to_le_bytes(),
            &self.max_events.unwrap_or(0).to_le_bytes(),
            &self.max_sim_s.unwrap_or(0.0).to_bits().to_le_bytes(),
            &self.max_instant.unwrap_or(0).to_le_bytes(),
            &[u8::from(self.trace)],
            &self.every_s.unwrap_or(0.0).to_bits().to_le_bytes(),
        ])
    }

    /// The fingerprint as the 16-hex-digit job id used on the wire and
    /// in directory names.
    pub fn fp_hex(&self) -> String {
        format!("{:016x}", self.fingerprint())
    }

    /// Checks the spec before admission: known protocol, sane geometry,
    /// usable optional limits.
    pub fn validate(&self) -> Result<(), String> {
        if !PROTOCOLS.contains(&self.protocol.as_str()) {
            return Err(format!(
                "unknown protocol '{}' ({})",
                self.protocol,
                PROTOCOLS.join("|")
            ));
        }
        if self.nodes == 0 {
            return Err("nodes must be >= 1".to_owned());
        }
        if !self.duration_s.is_finite() || self.duration_s <= 0.0 {
            return Err("duration_s must be positive and finite".to_owned());
        }
        if let Some(e) = self.every_s {
            if !e.is_finite() || e <= 0.0 {
                return Err("every_s must be positive and finite".to_owned());
            }
        }
        self.budget().validate().map_err(|e| e.to_string())
    }

    /// The run budget the spec asked for (before the daemon cap is
    /// applied via [`RunBudget::tightened`]).
    pub fn budget(&self) -> RunBudget {
        RunBudget {
            max_events: self.max_events,
            max_sim_seconds: self.max_sim_s,
            max_wall_seconds: None,
            max_events_per_instant: self.max_instant,
        }
    }

    /// Appends the spec's fields (no braces, no leading comma) in the
    /// stable order shared by the journal `submit` record and the wire
    /// `submit` request.
    pub fn push_fields(&self, out: &mut String) {
        out.push_str("\"protocol\":");
        push_str_escaped(out, &self.protocol);
        let _ = write!(
            out,
            ",\"nodes\":{},\"pairs\":{},\"duration_s\":{:?},\"seed\":{},\
             \"max_events\":{},\"max_sim_s\":{:?},\"max_instant\":{},\
             \"trace\":{},\"every_s\":{:?}",
            self.nodes,
            self.pairs,
            self.duration_s,
            self.seed,
            self.max_events.unwrap_or(0),
            self.max_sim_s.unwrap_or(0.0),
            self.max_instant.unwrap_or(0),
            u8::from(self.trace),
            self.every_s.unwrap_or(0.0),
        );
    }

    /// Rebuilds a spec from parsed flat-object fields, ignoring keys it
    /// does not own (the surrounding record's discriminator, `fp`,
    /// `force`, ...). `None` when a required field is missing or
    /// mistyped.
    pub fn from_fields(fields: &[(String, Val)]) -> Option<JobSpec> {
        let mut spec = JobSpec::default();
        let mut seen = 0u32;
        for (key, val) in fields {
            match (key.as_str(), val) {
                ("protocol", Val::Str(s)) => {
                    spec.protocol = s.clone();
                    seen |= 1;
                }
                ("nodes", Val::Num(n)) => {
                    spec.nodes = n.parse().ok()?;
                    seen |= 2;
                }
                ("pairs", Val::Num(n)) => {
                    spec.pairs = n.parse().ok()?;
                    seen |= 4;
                }
                ("duration_s", Val::Num(n)) => {
                    spec.duration_s = n.parse().ok()?;
                    seen |= 8;
                }
                ("seed", Val::Num(n)) => {
                    spec.seed = n.parse().ok()?;
                    seen |= 16;
                }
                ("max_events", Val::Num(n)) => {
                    spec.max_events = none_if_zero(n.parse().ok()?);
                }
                ("max_sim_s", Val::Num(n)) => {
                    spec.max_sim_s = none_if_zero_f(n.parse().ok()?);
                }
                ("max_instant", Val::Num(n)) => {
                    spec.max_instant = none_if_zero(n.parse().ok()?);
                }
                ("trace", Val::Num(n)) => {
                    spec.trace = n.parse::<u8>().ok()? != 0;
                }
                ("every_s", Val::Num(n)) => {
                    spec.every_s = none_if_zero_f(n.parse().ok()?);
                }
                _ => {}
            }
        }
        (seen == 31).then_some(spec)
    }

    /// The protocol choice this spec runs. `None` for an unknown name
    /// (already rejected by [`JobSpec::validate`] at admission; a
    /// journal replayed from a newer build may still carry one).
    pub fn protocol_choice(&self) -> Option<ProtocolChoice> {
        Some(match self.protocol.as_str() {
            "alert" => ProtocolChoice::Alert(AlertConfig::default()),
            "gpsr" => ProtocolChoice::Gpsr,
            "alarm" => ProtocolChoice::Alarm,
            "ao2p" => ProtocolChoice::Ao2p,
            "zap" => ProtocolChoice::Zap { growth: 1.0 },
            "anodr" => ProtocolChoice::Anodr,
            "prism" => ProtocolChoice::Prism,
            "mask" => ProtocolChoice::Mask,
            "mapcp" => ProtocolChoice::Mapcp,
            _ => return None,
        })
    }

    /// The scenario this spec describes: the paper's default scenario
    /// with the spec's geometry and (cap-tightened) budget applied.
    pub fn scenario(&self, cap: &RunBudget) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::default()
            .with_nodes(self.nodes)
            .with_duration(self.duration_s);
        cfg.traffic.pairs = self.pairs;
        cfg.budget = self.budget().tightened(cap);
        cfg
    }
}

fn none_if_zero(v: u64) -> Option<u64> {
    (v != 0).then_some(v)
}

fn none_if_zero_f(v: f64) -> Option<f64> {
    (v != 0.0).then_some(v)
}

/// Parses a 16-hex-digit job id back into its fingerprint.
pub fn parse_fp_hex(s: &str) -> Option<u64> {
    (s.len() == 16).then(|| u64::from_str_radix(s, 16).ok())?
}

/// Largest `trace.jsonl` one job may write: 256 MiB. A job's trace is
/// held in memory until promotion, so without a limit one traced
/// submission could grow the daemon without bound (a 1,000-node, 300 s
/// traced ALERT job writes several GB). A job whose trace passes the
/// limit frees what it buffered at once and fails with an error naming
/// the limit; the daemon keeps serving. `daemon-mixed`'s largest traced
/// jobs (ALERT, 60 nodes, 2 pairs, 10 s) write under 0.5 MB. This
/// crate's unit tests run with a 4 MiB limit, so they can cross it
/// quickly.
pub const TRACE_LIMIT_BYTES: usize = if cfg!(test) { 4 << 20 } else { 256 << 20 };

/// One job's trace buffer, shared with its sink: `None` once a write
/// would have passed [`TRACE_LIMIT_BYTES`], after which every write
/// fails (the sink latches the first error and stops encoding).
#[derive(Clone)]
struct CappedTrace(Arc<Mutex<Option<Vec<u8>>>>);

impl CappedTrace {
    fn new() -> CappedTrace {
        CappedTrace(Arc::new(Mutex::new(Some(Vec::new()))))
    }

    /// Moves the buffered trace out (no copy), or names the limit it
    /// passed.
    fn take(&self) -> Result<String, String> {
        let bytes = self.0.lock().expect("trace buffer poisoned").take();
        let bytes = bytes.ok_or_else(|| {
            format!(
                "trace.jsonl passed the {} MiB trace limit",
                TRACE_LIMIT_BYTES >> 20
            )
        })?;
        String::from_utf8(bytes).map_err(|e| format!("trace is not UTF-8: {e}"))
    }
}

impl io::Write for CappedTrace {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut held = self.0.lock().expect("trace buffer poisoned");
        match held.as_mut() {
            Some(bytes) if bytes.len() + buf.len() <= TRACE_LIMIT_BYTES => {
                bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            _ => {
                *held = None;
                Err(io::Error::other("trace limit passed"))
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Executes one job under the daemon's budget cap and reduces it to its
/// artifact map. Every artifact is a deterministic function of the spec:
/// wall-clock quantities never appear (they live in the journal, which
/// is provenance, not result). A traced job fails if its trace passes
/// [`TRACE_LIMIT_BYTES`].
pub fn run_job(spec: &JobSpec, cap: &RunBudget) -> Result<Artifacts, String> {
    let choice = spec
        .protocol_choice()
        .ok_or_else(|| format!("unknown protocol '{}'", spec.protocol))?;
    let scenario = spec.scenario(cap);
    scenario.validate().map_err(|e| e.to_string())?;
    let trace_buf = CappedTrace::new();
    let opts = RunOptions {
        trace: spec
            .trace
            .then(|| Box::new(JsonlSink::new(trace_buf.clone())) as _),
        profile: false,
        metrics_every: spec.every_s,
        postmortem: None,
    };
    let out = run_instrumented(choice, &scenario, spec.seed, opts).map_err(|e| e.to_string())?;

    let mut artifacts = Artifacts::new();
    artifacts.insert(
        "metrics.json".to_owned(),
        render_metrics_json(spec, &out.metrics, &out.profile, &out.registry),
    );
    if spec.trace {
        artifacts.insert("trace.jsonl".to_owned(), trace_buf.take()?);
    }
    if spec.every_s.is_some() {
        let series = out.timeseries.as_ref().ok_or("timeseries not collected")?;
        artifacts.insert("timeseries.jsonl".to_owned(), series.to_jsonl());
    }
    Ok(artifacts)
}

/// The `metrics.json` artifact: the run summary as one hand-formatted
/// JSON object with stable key order and shortest-round-trip floats —
/// byte-identical for identical specs, with no wall-clock field.
fn render_metrics_json(
    spec: &JobSpec,
    m: &alert_sim::Metrics,
    profile: &alert_sim::RunProfile,
    registry: &alert_sim::RegistrySnapshot,
) -> String {
    let delivered = m
        .packets
        .iter()
        .filter(|p| p.delivered_at.is_some())
        .count();
    let latency_ms = match m.mean_latency() {
        Some(l) if l.is_finite() => format!("{:?}", l * 1000.0),
        _ => "null".to_owned(),
    };
    let drops: Vec<String> = m
        .drops
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    let mut s = String::from("{\"schema\":\"alertd-result/1\",");
    s.push_str("\"job\":");
    push_str_escaped(&mut s, &spec.fp_hex());
    s.push(',');
    spec.push_fields(&mut s);
    let _ = write!(
        s,
        ",\"app_packets\":{},\"delivered\":{},\"delivery_rate\":{:?},\
         \"mean_latency_ms\":{latency_ms},\"hops_per_packet\":{:?},\
         \"events_dispatched\":{},\"fel_high_water\":{},\
         \"run_aborts\":{},\"drops\":{{{}}}}}",
        m.packets.len(),
        delivered,
        m.delivery_rate(),
        m.hops_per_packet(),
        profile.events_dispatched,
        profile.fel_high_water,
        registry.counters.get("run.aborts").copied().unwrap_or(0),
        drops.join(","),
    );
    s
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn spec_fields_round_trip() {
        let spec = JobSpec {
            protocol: "alert".to_owned(),
            nodes: 77,
            pairs: 3,
            duration_s: 12.5,
            seed: 9,
            max_events: Some(10_000),
            max_sim_s: None,
            max_instant: Some(64),
            trace: true,
            every_s: Some(2.5),
        };
        let mut line = String::from("{");
        spec.push_fields(&mut line);
        line.push('}');
        let fields = crate::protocol::parse_fields(&line).expect("parses");
        assert_eq!(JobSpec::from_fields(&fields), Some(spec));
    }

    #[test]
    fn missing_required_field_is_rejected() {
        let mut line = String::from("{");
        JobSpec::default().push_fields(&mut line);
        line.push('}');
        let line = line.replace("\"seed\":42,", "");
        let fields = crate::protocol::parse_fields(&line).expect("parses");
        assert_eq!(JobSpec::from_fields(&fields), None);
    }

    #[test]
    fn fingerprint_is_sensitive_to_every_field() {
        let base = JobSpec::default();
        let variants = [
            JobSpec {
                protocol: "alert".to_owned(),
                ..base.clone()
            },
            JobSpec {
                nodes: 41,
                ..base.clone()
            },
            JobSpec {
                seed: 43,
                ..base.clone()
            },
            JobSpec {
                trace: true,
                ..base.clone()
            },
            JobSpec {
                max_events: Some(1),
                ..base.clone()
            },
            JobSpec {
                every_s: Some(5.0),
                ..base.clone()
            },
        ];
        for v in variants {
            assert_ne!(v.fingerprint(), base.fingerprint(), "{v:?}");
        }
        assert_eq!(base.fingerprint(), JobSpec::default().fingerprint());
    }

    #[test]
    fn fp_hex_round_trips() {
        let spec = JobSpec::default();
        assert_eq!(parse_fp_hex(&spec.fp_hex()), Some(spec.fingerprint()));
        assert_eq!(parse_fp_hex("xyz"), None);
        assert_eq!(parse_fp_hex("123"), None);
    }

    #[test]
    fn validate_rejects_nonsense() {
        let bad = [
            JobSpec {
                protocol: "ospf".to_owned(),
                ..JobSpec::default()
            },
            JobSpec {
                nodes: 0,
                ..JobSpec::default()
            },
            JobSpec {
                duration_s: -1.0,
                ..JobSpec::default()
            },
            JobSpec {
                every_s: Some(0.0),
                ..JobSpec::default()
            },
        ];
        for spec in bad {
            assert!(spec.validate().is_err(), "{spec:?}");
        }
        assert!(JobSpec::default().validate().is_ok());
    }

    #[test]
    fn run_job_is_deterministic_and_capped() {
        let spec = JobSpec {
            nodes: 30,
            duration_s: 5.0,
            trace: true,
            every_s: Some(2.0),
            ..JobSpec::default()
        };
        let a = run_job(&spec, &RunBudget::default()).expect("runs");
        let b = run_job(&spec, &RunBudget::default()).expect("runs");
        assert_eq!(a, b, "artifacts are pure functions of the spec");
        assert_eq!(
            a.keys().collect::<Vec<_>>(),
            ["metrics.json", "timeseries.jsonl", "trace.jsonl"]
        );
        assert!(a["metrics.json"].starts_with("{\"schema\":\"alertd-result/1\""));
        // A tight daemon cap turns the run into a budget abort.
        let cap = RunBudget {
            max_events: Some(10),
            ..RunBudget::default()
        };
        let err = run_job(&spec, &cap).expect_err("capped");
        assert!(err.contains("event budget"), "{err}");
    }

    #[test]
    fn a_trace_past_the_limit_fails_the_job_and_frees_its_buffer() {
        let mut trace = CappedTrace::new();
        let chunk = vec![b'x'; TRACE_LIMIT_BYTES / 4];
        for _ in 0..4 {
            io::Write::write_all(&mut trace, &chunk).expect("under the limit");
        }
        assert!(io::Write::write_all(&mut trace, b"\n").is_err());
        assert!(trace.0.lock().unwrap().is_none(), "buffer freed");
        assert!(io::Write::write(&mut trace, b"x").is_err(), "stays failed");
        assert_eq!(
            trace.take().unwrap_err(),
            "trace.jsonl passed the 4 MiB trace limit"
        );

        let err = run_job(&over_limit_spec(), &RunBudget::default()).expect_err("over the limit");
        assert!(err.contains("4 MiB trace limit"), "{err}");
    }

    /// A traced job whose trace (about 9 MB) passes the test limit.
    pub(crate) fn over_limit_spec() -> JobSpec {
        JobSpec {
            protocol: "alert".to_owned(),
            nodes: 200,
            pairs: 8,
            duration_s: 10.0,
            trace: true,
            ..JobSpec::default()
        }
    }
}
