//! The newline-delimited JSON wire protocol between `alertctl` and
//! `alertd`.
//!
//! One request line, one response line, per exchange. Both directions
//! use the workspace's JSON codec ([`alert_trace::parse_object`],
//! [`alert_trace::push_str_escaped`]) — flat objects, stable key order,
//! every message greppable. Requests carry an `"op"` discriminator;
//! responses carry `"ok":1` plus payload fields, or `"ok":0` with a
//! typed `"error"` kind and a human `"message"`:
//!
//! ```json
//! {"op":"submit","force":0,"protocol":"gpsr","nodes":60,…}
//! {"ok":1,"job":"00ab…","state":"pending","cached":0}
//! {"ok":0,"error":"busy","message":"queue full (64 outstanding)"}
//! ```
//!
//! The daemon's dialect — wire lines and the job journal alike — has
//! string and number values only. The codec also accepts insignificant
//! whitespace, `true`/`false`/`null`, arrays and nested objects, so
//! every line decoder
//! ([`Request::parse_line`], [`Response::parse_line`],
//! [`crate::JobRecord::parse_line`]) parses through `parse_fields`,
//! which rejects a line holding any other value. A value of the
//! wrong type therefore gives `None`: `"force":true` is refused, never
//! read as a default.
//!
//! Error kinds are part of the contract: `busy` and `shutdown` are
//! *admission* outcomes that map to client exit code 2 (retryable by a
//! supervisor), everything else to exit 1.

use crate::spec::{parse_fp_hex, JobSpec};
use alert_trace::json::write_val;
use alert_trace::{parse_object, push_str_escaped, Val};
use std::fmt::Write as _;

/// Parses one line of the daemon's dialect into its fields, in source
/// order. `None` when the line is not a flat JSON object or holds a
/// value that is neither a string nor a number.
pub(crate) fn parse_fields(line: &str) -> Option<Vec<(String, Val)>> {
    let fields = parse_object(line, 0).ok()?;
    fields
        .iter()
        .all(|(_, v)| matches!(v, Val::Str(_) | Val::Num(_)))
        .then_some(fields)
}

/// Typed failure classes a response can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Admission refused: the bounded queue is full. Retry later.
    Busy,
    /// Admission refused: the daemon is draining. Find another daemon.
    Shutdown,
    /// The named job / artifact / version does not exist.
    NotFound,
    /// The request was malformed or semantically invalid.
    BadRequest,
    /// The operation ran and failed (job error, rollback floor, ...).
    Failed,
}

impl ErrorKind {
    /// Stable wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Busy => "busy",
            ErrorKind::Shutdown => "shutdown",
            ErrorKind::NotFound => "not_found",
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Failed => "failed",
        }
    }

    /// Parses a wire token back.
    pub fn parse(s: &str) -> Option<ErrorKind> {
        Some(match s {
            "busy" => ErrorKind::Busy,
            "shutdown" => ErrorKind::Shutdown,
            "not_found" => ErrorKind::NotFound,
            "bad_request" => ErrorKind::BadRequest,
            "failed" => ErrorKind::Failed,
            _ => return None,
        })
    }

    /// The `alertctl` process exit code for this error: 2 for the
    /// admission outcomes (`busy`, `shutdown`), 1 otherwise — matching
    /// the repo-wide 0/1/2 convention.
    pub fn exit_code(self) -> i32 {
        match self {
            ErrorKind::Busy | ErrorKind::Shutdown => 2,
            _ => 1,
        }
    }
}

/// A trace query carried by [`Request::Query`]. Unset filters are
/// omitted on the wire; the server turns this into an
/// `alert_sim::EventFilter` against the job's stored `trace.jsonl`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryRequest {
    /// `"filter"`, `"follow"`, or `"windows"`.
    pub verb: String,
    /// Only events attributed to this node.
    pub node: Option<u64>,
    /// Only events at or after this simulated time.
    pub after: Option<f64>,
    /// Only events at or before this simulated time.
    pub before: Option<f64>,
    /// Only events of this kind.
    pub kind: Option<String>,
    /// Only drops with this reason.
    pub reason: Option<String>,
    /// Packet id (`follow` requires it; filters on it otherwise).
    pub packet: Option<u64>,
    /// Window width for `windows`, simulated seconds.
    pub every_s: Option<f64>,
    /// Output format: `"jsonl"` / `"csv"` (events), `"json"` / `"csv"`
    /// (windows). Empty means the verb's default.
    pub format: String,
}

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Admit a job (idempotent by fingerprint; `force` re-runs).
    Submit {
        /// The job to run.
        spec: JobSpec,
        /// Re-run even if the fingerprint already completed.
        force: bool,
    },
    /// Report a job's state.
    Status {
        /// Job fingerprint.
        job: u64,
    },
    /// Fetch one artifact of the job's current result version.
    Result {
        /// Job fingerprint.
        job: u64,
        /// Artifact file name (e.g. `metrics.json`).
        artifact: String,
    },
    /// Cancel a still-pending job.
    Cancel {
        /// Job fingerprint.
        job: u64,
    },
    /// Query the job's stored trace.
    Query {
        /// Job fingerprint.
        job: u64,
        /// What to ask.
        query: QueryRequest,
    },
    /// Daemon health counters.
    Health,
    /// Stop admitting, finish everything, flush, exit 0.
    Drain,
    /// Point the job's `CURRENT` at the previous result version.
    Rollback {
        /// Job fingerprint.
        job: u64,
    },
}

impl Request {
    /// Encodes the request as one wire line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut s = String::from("{\"op\":");
        match self {
            Request::Submit { spec, force } => {
                let _ = write!(s, "\"submit\",\"force\":{},", u8::from(*force));
                spec.push_fields(&mut s);
            }
            Request::Status { job } => {
                let _ = write!(s, "\"status\",\"job\":\"{job:016x}\"");
            }
            Request::Result { job, artifact } => {
                let _ = write!(s, "\"result\",\"job\":\"{job:016x}\",\"artifact\":");
                push_str_escaped(&mut s, artifact);
            }
            Request::Cancel { job } => {
                let _ = write!(s, "\"cancel\",\"job\":\"{job:016x}\"");
            }
            Request::Query { job, query } => {
                let _ = write!(s, "\"query\",\"job\":\"{job:016x}\",\"verb\":");
                push_str_escaped(&mut s, &query.verb);
                if let Some(n) = query.node {
                    let _ = write!(s, ",\"node\":{n}");
                }
                if let Some(t) = query.after {
                    let _ = write!(s, ",\"after\":{t:?}");
                }
                if let Some(t) = query.before {
                    let _ = write!(s, ",\"before\":{t:?}");
                }
                if let Some(k) = &query.kind {
                    s.push_str(",\"kind\":");
                    push_str_escaped(&mut s, k);
                }
                if let Some(r) = &query.reason {
                    s.push_str(",\"reason\":");
                    push_str_escaped(&mut s, r);
                }
                if let Some(p) = query.packet {
                    let _ = write!(s, ",\"packet\":{p}");
                }
                if let Some(e) = query.every_s {
                    let _ = write!(s, ",\"every\":{e:?}");
                }
                if !query.format.is_empty() {
                    s.push_str(",\"format\":");
                    push_str_escaped(&mut s, &query.format);
                }
            }
            Request::Health => s.push_str("\"health\""),
            Request::Drain => s.push_str("\"drain\""),
            Request::Rollback { job } => {
                let _ = write!(s, "\"rollback\",\"job\":\"{job:016x}\"");
            }
        }
        s.push('}');
        s
    }

    /// Decodes one wire line. `None` on malformation — the server
    /// answers with a `bad_request` error.
    pub fn parse_line(line: &str) -> Option<Request> {
        let fields = parse_fields(line)?;
        let get_str = |key: &str| {
            fields.iter().find_map(|(k, v)| match v {
                Val::Str(s) if k == key => Some(s.clone()),
                _ => None,
            })
        };
        let get_num = |key: &str| {
            fields.iter().find_map(|(k, v)| match v {
                Val::Num(n) if k == key => Some(n.clone()),
                _ => None,
            })
        };
        let job = || get_str("job").and_then(|s| parse_fp_hex(&s));
        Some(match get_str("op")?.as_str() {
            "submit" => Request::Submit {
                spec: JobSpec::from_fields(&fields)?,
                force: get_num("force")
                    .and_then(|n| n.parse::<u8>().ok())
                    .unwrap_or(0)
                    != 0,
            },
            "status" => Request::Status { job: job()? },
            "result" => Request::Result {
                job: job()?,
                artifact: get_str("artifact")?,
            },
            "cancel" => Request::Cancel { job: job()? },
            "query" => Request::Query {
                job: job()?,
                query: QueryRequest {
                    verb: get_str("verb")?,
                    node: get_num("node").and_then(|n| n.parse().ok()),
                    after: get_num("after").and_then(|n| n.parse().ok()),
                    before: get_num("before").and_then(|n| n.parse().ok()),
                    kind: get_str("kind"),
                    reason: get_str("reason"),
                    packet: get_num("packet").and_then(|n| n.parse().ok()),
                    every_s: get_num("every").and_then(|n| n.parse().ok()),
                    format: get_str("format").unwrap_or_default(),
                },
            },
            "health" => Request::Health,
            "drain" => Request::Drain,
            "rollback" => Request::Rollback { job: job()? },
            _ => return None,
        })
    }
}

/// One server response: success with flat payload fields, or a typed
/// error.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `{"ok":1,…}` — payload fields in insertion order.
    Ok(Vec<(String, Val)>),
    /// `{"ok":0,"error":…,"message":…}`.
    Err {
        /// The typed failure class.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// An empty success, to be extended with the `with_*` builders.
    pub fn ok() -> Response {
        Response::Ok(Vec::new())
    }

    /// A typed error response.
    pub fn error(kind: ErrorKind, message: impl Into<String>) -> Response {
        Response::Err {
            kind,
            message: message.into(),
        }
    }

    /// Appends a string payload field (success responses only).
    pub fn with_str(mut self, key: &str, value: impl Into<String>) -> Response {
        if let Response::Ok(fields) = &mut self {
            fields.push((key.to_owned(), Val::Str(value.into())));
        }
        self
    }

    /// Appends a numeric payload field, pre-rendered (success only).
    pub fn with_num(mut self, key: &str, value: impl ToString) -> Response {
        if let Response::Ok(fields) = &mut self {
            fields.push((key.to_owned(), Val::Num(value.to_string())));
        }
        self
    }

    /// The payload string field `key`, if this is a success carrying it.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        match self {
            Response::Ok(fields) => fields.iter().find_map(|(k, v)| match v {
                Val::Str(s) if k == key => Some(s.as_str()),
                _ => None,
            }),
            Response::Err { .. } => None,
        }
    }

    /// The raw text of numeric payload field `key`, if present.
    pub fn num_field(&self, key: &str) -> Option<&str> {
        match self {
            Response::Ok(fields) => fields.iter().find_map(|(k, v)| match v {
                Val::Num(n) if k == key => Some(n.as_str()),
                _ => None,
            }),
            Response::Err { .. } => None,
        }
    }

    /// Encodes the response as one wire line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        match self {
            Response::Ok(fields) => {
                let mut s = String::from("{\"ok\":1");
                for (k, v) in fields {
                    s.push(',');
                    push_str_escaped(&mut s, k);
                    s.push(':');
                    write_val(&mut s, v);
                }
                s.push('}');
                s
            }
            Response::Err { kind, message } => {
                let mut s = String::from("{\"ok\":0,\"error\":");
                push_str_escaped(&mut s, kind.as_str());
                s.push_str(",\"message\":");
                push_str_escaped(&mut s, message);
                s.push('}');
                s
            }
        }
    }

    /// Decodes one wire line. `None` when the line is not a valid
    /// response object.
    pub fn parse_line(line: &str) -> Option<Response> {
        let fields = parse_fields(line)?;
        let ok = fields.iter().find_map(|(k, v)| match v {
            Val::Num(n) if k == "ok" => n.parse::<u8>().ok(),
            _ => None,
        })?;
        if ok != 0 {
            let payload: Vec<(String, Val)> =
                fields.into_iter().filter(|(k, _)| k != "ok").collect();
            return Some(Response::Ok(payload));
        }
        let mut kind = None;
        let mut message = String::new();
        for (k, v) in fields {
            match (k.as_str(), v) {
                ("error", Val::Str(s)) => kind = ErrorKind::parse(&s),
                ("message", Val::Str(s)) => message = s,
                _ => {}
            }
        }
        Some(Response::Err {
            kind: kind?,
            message,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_request_round_trips() {
        let job = JobSpec::default().fingerprint();
        let requests = [
            Request::Submit {
                spec: JobSpec::default(),
                force: true,
            },
            Request::Status { job },
            Request::Result {
                job,
                artifact: "metrics.json".to_owned(),
            },
            Request::Cancel { job },
            Request::Query {
                job,
                query: QueryRequest {
                    verb: "filter".to_owned(),
                    node: Some(3),
                    after: Some(1.25),
                    before: None,
                    kind: Some("drop".to_owned()),
                    reason: Some("ttl_expired".to_owned()),
                    packet: None,
                    every_s: None,
                    format: "csv".to_owned(),
                },
            },
            Request::Query {
                job,
                query: QueryRequest {
                    verb: "windows".to_owned(),
                    every_s: Some(2.0),
                    ..QueryRequest::default()
                },
            },
            Request::Health,
            Request::Drain,
            Request::Rollback { job },
        ];
        for req in requests {
            assert_eq!(Request::parse_line(&req.to_jsonl()), Some(req.clone()));
        }
        assert_eq!(Request::parse_line("{\"op\":\"reboot\"}"), None);
        assert_eq!(Request::parse_line("garbage"), None);
        // A boolean where a number belongs is refused, not defaulted.
        let submit = Request::Submit {
            spec: JobSpec::default(),
            force: false,
        }
        .to_jsonl();
        assert!(Request::parse_line(&submit).is_some());
        let wrong = submit.replace("\"force\":0", "\"force\":false");
        assert_ne!(wrong, submit);
        assert_eq!(Request::parse_line(&wrong), None);
    }

    #[test]
    fn responses_round_trip_and_expose_fields() {
        let ok = Response::ok()
            .with_str("job", "00000000000000ff")
            .with_str("state", "done")
            .with_num("version", 2u32);
        let parsed = Response::parse_line(&ok.to_jsonl()).unwrap();
        assert_eq!(parsed, ok);
        assert_eq!(parsed.str_field("state"), Some("done"));
        assert_eq!(parsed.num_field("version"), Some("2"));
        assert_eq!(parsed.str_field("missing"), None);

        let err = Response::error(ErrorKind::Busy, "queue full (3 outstanding)");
        let parsed = Response::parse_line(&err.to_jsonl()).unwrap();
        assert_eq!(parsed, err);
        match parsed {
            Response::Err { kind, .. } => assert_eq!(kind.exit_code(), 2),
            _ => panic!("expected error"),
        }
    }

    #[test]
    fn error_kinds_are_stable_on_the_wire() {
        for kind in [
            ErrorKind::Busy,
            ErrorKind::Shutdown,
            ErrorKind::NotFound,
            ErrorKind::BadRequest,
            ErrorKind::Failed,
        ] {
            assert_eq!(ErrorKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(ErrorKind::parse("teapot"), None);
        assert_eq!(ErrorKind::Shutdown.exit_code(), 2);
        assert_eq!(ErrorKind::NotFound.exit_code(), 1);
    }

    #[test]
    fn payload_strings_survive_escaping() {
        let body = "line one\nline \"two\"\t{}";
        let resp = Response::ok().with_str("payload", body);
        let parsed = Response::parse_line(&resp.to_jsonl()).unwrap();
        assert_eq!(parsed.str_field("payload"), Some(body));
    }
}
