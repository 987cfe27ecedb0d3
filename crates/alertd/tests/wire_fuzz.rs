//! Seeded wire fuzzer for `alertd`: each case opens one connection to
//! an in-process daemon and sends a random mix of valid requests and
//! bad lines — malformed JSON, wrong-typed fields, unknown verbs — then
//! ends with a clean close, an over-long line, or a truncated line
//! followed by EOF. Every bad line must get a typed `bad_request`, an
//! over-long line its `bad_request` and then the close, and every valid
//! request its normal answer on the same connection. Afterwards the
//! daemon must hold no jobs and drain cleanly. A worker that panics
//! outside a job aborts the process, so such a bug fails the test run.
//!
//! A failing case prints its seed; replay it with
//! `alert_rng::check(1, seed, ..)`.

use alert_rng::{check, Rng, StdRng};
use alertd::{serve, ErrorKind, Request, Response, ServerConfig, MAX_LINE_BYTES};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::path::Path;
use std::sync::mpsc;
use std::time::Duration;

/// Every verb the daemon knows; an unknown verb is drawn outside these.
const VERBS: [&str; 8] = [
    "submit", "status", "result", "cancel", "query", "health", "drain", "rollback",
];

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(dir: &Path) -> Conn {
        let text = std::fs::read_to_string(dir.join("alertd.endpoint")).unwrap();
        let addr = text.trim().strip_prefix("tcp ").unwrap().to_owned();
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        Conn {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).unwrap();
        self.writer.flush().unwrap();
    }

    fn read_response(&mut self, sent: &str) -> Response {
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        Response::parse_line(&line)
            .unwrap_or_else(|| panic!("no typed response to {sent:?}: got {line:?}"))
    }

    fn expect_closed(&mut self) {
        let mut rest = String::new();
        assert_eq!(self.reader.read_line(&mut rest).unwrap(), 0, "{rest:?}");
    }
}

fn expect_bad_request(resp: &Response, sent: &str) {
    match resp {
        Response::Err { kind, .. } => assert_eq!(*kind, ErrorKind::BadRequest, "{sent:?}"),
        other => panic!("{sent:?} was answered {other:?}, not bad_request"),
    }
}

fn job_hex(rng: &mut StdRng) -> String {
    format!("{:016x}", rng.gen_range(0..u64::MAX))
}

fn ident(rng: &mut StdRng, alphabet: &[u8], len: usize) -> String {
    (0..len)
        .map(|_| char::from(alphabet[rng.gen_range(0..alphabet.len())]))
        .collect()
}

/// A request that parses, about jobs that do not exist, so it changes
/// nothing in the daemon.
fn valid_request(rng: &mut StdRng) -> Request {
    let job = rng.gen_range(0..u64::MAX);
    match rng.gen_range(0..6) {
        0 => Request::Health,
        1 => Request::Status { job },
        2 => Request::Result {
            job,
            artifact: "metrics.json".to_owned(),
        },
        3 => Request::Cancel { job },
        4 => Request::Rollback { job },
        _ => Request::Query {
            job,
            query: alertd::QueryRequest {
                verb: "filter".to_owned(),
                ..alertd::QueryRequest::default()
            },
        },
    }
}

/// Any request line, `drain` included: only strict prefixes of these
/// are ever sent, and no strict prefix of a JSON object parses.
fn any_request_line(rng: &mut StdRng) -> String {
    if rng.gen_bool(0.2) {
        Request::Drain.to_jsonl()
    } else {
        valid_request(rng).to_jsonl()
    }
}

/// A strict, non-empty prefix of a request line.
fn truncated(rng: &mut StdRng) -> String {
    let line = any_request_line(rng);
    let cut = rng.gen_range(1..line.len());
    line[..cut].to_owned()
}

/// One line the daemon must refuse `bad_request`; never contains a
/// newline and never is blank.
fn bad_line(rng: &mut StdRng) -> Vec<u8> {
    let job = job_hex(rng);
    let verb = VERBS[rng.gen_range(0..VERBS.len())];
    match rng.gen_range(0..9) {
        // Malformed JSON: a cut-off object, or bytes that are no object.
        0 => truncated(rng).into_bytes(),
        1 => {
            let mut bytes = vec![b'a' + rng.gen_range(0..26u8)];
            for _ in 0..rng.gen_range(0..120) {
                let b: u8 = rng.gen_range(0..=255u8);
                bytes.push(if b == b'\n' { b'?' } else { b });
            }
            bytes
        }
        // Wrong-typed fields.
        2 => format!("{{\"op\":{}}}", rng.gen_range(0..1000)).into_bytes(),
        3 => format!(
            "{{\"op\":\"{verb}\",\"job\":\"{job}\",\"x\":{}}}",
            ["true", "false", "null", "[1,2]", "{\"a\":1}"][rng.gen_range(0..5usize)]
        )
        .into_bytes(),
        4 => format!(
            "{{\"op\":\"status\",\"job\":{}}}",
            rng.gen_range(0..u64::MAX)
        )
        .into_bytes(),
        5 => format!(
            "{{\"op\":\"result\",\"job\":\"{job}\",\"artifact\":{}}}",
            rng.gen_range(0..100)
        )
        .into_bytes(),
        6 => {
            let len = rng.gen_range(1..24);
            let not_hex = ident(rng, b"ghijklmnopqrstuvwxyz", len);
            format!("{{\"op\":\"cancel\",\"job\":\"{not_hex}\"}}").into_bytes()
        }
        // Unknown verbs.
        _ => {
            let op = loop {
                let len = rng.gen_range(1..12);
                let op = ident(rng, b"abcdefghijklmnopqrstuvwxyz_", len);
                if !VERBS.contains(&op.as_str()) {
                    break op;
                }
            };
            format!("{{\"op\":\"{op}\",\"job\":\"{job}\"}}").into_bytes()
        }
    }
}

/// One connection's worth of fuzz.
fn fuzz_connection(dir: &Path, rng: &mut StdRng) {
    let mut conn = Conn::open(dir);
    for _ in 0..rng.gen_range(0..12) {
        if rng.gen_bool(0.4) {
            let req = valid_request(rng);
            let mut line = req.to_jsonl();
            line.push('\n');
            conn.send(line.as_bytes());
            match (req, conn.read_response(&line)) {
                (Request::Health, Response::Ok(_)) => {}
                (
                    _,
                    Response::Err {
                        kind: ErrorKind::NotFound,
                        ..
                    },
                ) => {}
                (req, resp) => panic!("{req:?} was answered {resp:?}"),
            }
        } else {
            let mut line = bad_line(rng);
            let shown = String::from_utf8_lossy(&line).into_owned();
            line.push(b'\n');
            conn.send(&line);
            expect_bad_request(&conn.read_response(&shown), &shown);
        }
    }
    match rng.gen_range(0..3) {
        // An over-long line: exactly the bytes the daemon reads before it
        // refuses, so none are left unread when it closes.
        0 => {
            let mut line = any_request_line(rng).into_bytes();
            line.pop(); // the closing brace: the padding goes inside
            let pad = b'a' + rng.gen_range(0..26u8);
            line.resize(MAX_LINE_BYTES + 1, pad);
            conn.send(&line);
            let resp = conn.read_response("an over-long line");
            expect_bad_request(&resp, "an over-long line");
            conn.expect_closed();
        }
        // A truncated last line, then EOF.
        1 => {
            let line = truncated(rng);
            conn.send(line.as_bytes());
            conn.writer.shutdown(Shutdown::Write).unwrap();
            expect_bad_request(&conn.read_response(&line), &line);
            conn.expect_closed();
        }
        _ => {}
    }
}

#[test]
fn bad_lines_get_typed_errors_and_the_daemon_stays_healthy() {
    let dir = std::env::temp_dir().join(format!("alertd_wire_fuzz_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServerConfig {
        dir: dir.clone(),
        jobs: 1,
        ..ServerConfig::default()
    };
    let (tx, done) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(serve(config).unwrap());
    });
    for _ in 0..400 {
        if dir.join("alertd.endpoint").exists() {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }

    check(256, 0xa1e7d, |rng| fuzz_connection(&dir, rng));

    let mut conn = Conn::open(&dir);
    let health = Request::Health.to_jsonl() + "\n";
    conn.send(health.as_bytes());
    let resp = conn.read_response(&health);
    assert_eq!(resp.num_field("jobs"), Some("0"), "{resp:?}");
    let drain = Request::Drain.to_jsonl() + "\n";
    conn.send(drain.as_bytes());
    let resp = conn.read_response(&drain);
    assert_eq!(resp.num_field("drained"), Some("1"), "{resp:?}");
    done.recv_timeout(Duration::from_secs(10))
        .expect("serve returns after the drain");
    let _ = std::fs::remove_dir_all(&dir);
}
