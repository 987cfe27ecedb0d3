//! `alertctl` — client for a running `alertd`.
//!
//! ```text
//! alertctl --dir state/ submit --protocol alert --nodes 100 --trace --wait
//! alertctl --dir state/ status <job>
//! alertctl --dir state/ result <job> [--artifact metrics.json]
//! alertctl --dir state/ query <job> filter --kind drop [--format csv]
//! alertctl --dir state/ query <job> follow --packet 3
//! alertctl --dir state/ query <job> windows --every 5 [--format csv]
//! alertctl --dir state/ cancel <job>
//! alertctl --dir state/ rollback <job>
//! alertctl --dir state/ health
//! alertctl --dir state/ drain
//! ```
//!
//! The endpoint is resolved from `<dir>/alertd.endpoint`, so clients
//! only ever name the daemon directory. Exit codes: 0 success, 1
//! failure, 2 usage error or a typed `busy` / `shutdown` rejection —
//! the retryable admission outcomes.

use alertd::{parse_fp_hex, ErrorKind, JobSpec, QueryRequest, Request, Response};
use std::io::{BufRead as _, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("alertctl: {e}");
            ExitCode::from(1)
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: alertctl --dir DIR <verb>\n  \
         submit [--protocol P] [--nodes N] [--pairs N] [--duration S] [--seed N]\n         \
         [--trace] [--timeseries-every S] [--max-events N] [--max-sim-s S]\n         \
         [--max-instant-events N] [--force] [--wait]\n  \
         status   JOB\n  \
         result   JOB [--artifact NAME]\n  \
         query    JOB filter|follow|windows [--node N] [--after S] [--before S]\n           \
         [--kind K] [--reason R] [--packet N] [--every S] [--format F]\n  \
         cancel   JOB\n  \
         rollback JOB\n  \
         health\n  \
         drain"
    );
    ExitCode::from(2)
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut dir: Option<PathBuf> = None;
    let mut rest = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--dir" {
            dir = Some(PathBuf::from(it.next().ok_or("--dir needs a value")?));
        } else {
            rest.push(a);
            rest.extend(it);
            break;
        }
    }
    let Some(dir) = dir else {
        return Ok(usage());
    };
    let Some(verb) = rest.first().cloned() else {
        return Ok(usage());
    };
    let rest = &rest[1..];

    match verb.as_str() {
        "submit" => cmd_submit(&dir, rest),
        "status" => {
            let job = job_arg(rest)?;
            Ok(print_response(&exchange(
                &dir,
                &Request::Status { job },
                None,
            )?))
        }
        "result" => {
            let job = job_arg(rest)?;
            let artifact = flag_value(rest, "--artifact")?.unwrap_or_else(|| "metrics.json".into());
            let resp = exchange(&dir, &Request::Result { job, artifact }, None)?;
            Ok(print_payload(&resp))
        }
        "query" => cmd_query(&dir, rest),
        "cancel" => {
            let job = job_arg(rest)?;
            Ok(print_response(&exchange(
                &dir,
                &Request::Cancel { job },
                None,
            )?))
        }
        "rollback" => {
            let job = job_arg(rest)?;
            Ok(print_response(&exchange(
                &dir,
                &Request::Rollback { job },
                None,
            )?))
        }
        "health" => Ok(print_response(&exchange(&dir, &Request::Health, None)?)),
        // Drain blocks server-side until every job settles: no client
        // read timeout.
        "drain" => Ok(print_response(&exchange(
            &dir,
            &Request::Drain,
            Some(None),
        )?)),
        _ => Ok(usage()),
    }
}

fn job_arg(rest: &[String]) -> Result<u64, String> {
    let hex = rest
        .iter()
        .find(|a| !a.starts_with("--"))
        .ok_or("missing JOB id (16 hex digits)")?;
    parse_fp_hex(hex).ok_or_else(|| format!("'{hex}' is not a 16-hex-digit job id"))
}

fn flag_value(rest: &[String], name: &str) -> Result<Option<String>, String> {
    for (i, a) in rest.iter().enumerate() {
        if a == name {
            return rest
                .get(i + 1)
                .cloned()
                .map(Some)
                .ok_or_else(|| format!("{name} needs a value"));
        }
    }
    Ok(None)
}

fn parsed_flag<T: std::str::FromStr>(rest: &[String], name: &str) -> Result<Option<T>, String> {
    match flag_value(rest, name)? {
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("{name}: cannot parse '{v}'")),
        None => Ok(None),
    }
}

fn cmd_submit(dir: &Path, rest: &[String]) -> Result<ExitCode, String> {
    let mut spec = JobSpec::default();
    if let Some(p) = flag_value(rest, "--protocol")? {
        spec.protocol = p;
    }
    if let Some(n) = parsed_flag(rest, "--nodes")? {
        spec.nodes = n;
    }
    if let Some(n) = parsed_flag(rest, "--pairs")? {
        spec.pairs = n;
    }
    if let Some(d) = parsed_flag(rest, "--duration")? {
        spec.duration_s = d;
    }
    if let Some(s) = parsed_flag(rest, "--seed")? {
        spec.seed = s;
    }
    spec.trace = rest.iter().any(|a| a == "--trace");
    spec.every_s = parsed_flag(rest, "--timeseries-every")?;
    spec.max_events = parsed_flag(rest, "--max-events")?;
    spec.max_sim_s = parsed_flag(rest, "--max-sim-s")?;
    spec.max_instant = parsed_flag(rest, "--max-instant-events")?;
    let force = rest.iter().any(|a| a == "--force");
    let wait = rest.iter().any(|a| a == "--wait");

    let fp = spec.fingerprint();
    let resp = exchange(dir, &Request::Submit { spec, force }, None)?;
    if let Response::Err { .. } = resp {
        return Ok(print_response(&resp));
    }
    if !wait {
        return Ok(print_response(&resp));
    }
    // --wait: poll status until the job settles, then print the final
    // status line. Terminal failure states exit 1.
    loop {
        let resp = exchange(dir, &Request::Status { job: fp }, None)?;
        match resp.str_field("state") {
            Some("pending") | Some("running") => {
                std::thread::sleep(Duration::from_millis(200));
            }
            Some("done") => return Ok(print_response(&resp)),
            _ => {
                println!("{}", resp.to_jsonl());
                return Ok(ExitCode::from(1));
            }
        }
    }
}

fn cmd_query(dir: &Path, rest: &[String]) -> Result<ExitCode, String> {
    let job = job_arg(rest)?;
    let verb = rest
        .iter()
        .filter(|a| !a.starts_with("--"))
        .nth(1)
        .cloned()
        .ok_or("query needs a verb: filter|follow|windows")?;
    let query = QueryRequest {
        verb,
        node: parsed_flag(rest, "--node")?,
        after: parsed_flag(rest, "--after")?,
        before: parsed_flag(rest, "--before")?,
        kind: flag_value(rest, "--kind")?,
        reason: flag_value(rest, "--reason")?,
        packet: parsed_flag(rest, "--packet")?,
        every_s: parsed_flag(rest, "--every")?,
        format: flag_value(rest, "--format")?.unwrap_or_default(),
    };
    let resp = exchange(dir, &Request::Query { job, query }, None)?;
    Ok(print_payload(&resp))
}

/// Resolves `<dir>/alertd.endpoint`, sends one request, reads one
/// response. `timeout`: `None` = default 30 s; `Some(None)` = unbounded
/// (drain).
fn exchange(
    dir: &Path,
    req: &Request,
    timeout: Option<Option<Duration>>,
) -> Result<Response, String> {
    let endpoint_path = dir.join("alertd.endpoint");
    let text = std::fs::read_to_string(&endpoint_path).map_err(|e| {
        format!(
            "no daemon endpoint at {} ({e}) — is alertd serving this directory?",
            endpoint_path.display()
        )
    })?;
    let line = text.trim();
    let stream: Box<dyn ReadWrite> = if let Some(addr) = line.strip_prefix("tcp ") {
        Box::new(TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?)
    } else if let Some(path) = line.strip_prefix("unix ") {
        connect_unix(path)?
    } else {
        return Err(format!("unrecognized endpoint '{line}'"));
    };
    let timeout = timeout.unwrap_or(Some(Duration::from_secs(30)));
    stream.set_read_timeout(timeout)?;

    let mut writer = stream.try_clone_box()?;
    let mut out = req.to_jsonl();
    out.push('\n');
    writer
        .write_all(out.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    writer.flush().map_err(|e| format!("send: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut resp = String::new();
    reader
        .read_line(&mut resp)
        .map_err(|e| format!("recv: {e}"))?;
    if resp.is_empty() {
        return Err("daemon closed the connection".to_owned());
    }
    Response::parse_line(&resp).ok_or_else(|| format!("bad response line: {resp}"))
}

/// Prints the raw response line; the exit code encodes the outcome.
fn print_response(resp: &Response) -> ExitCode {
    println!("{}", resp.to_jsonl());
    match resp {
        Response::Ok(_) => ExitCode::SUCCESS,
        Response::Err { kind, message } => {
            eprintln!("alertctl: {}: {message}", kind.as_str());
            exit_for(*kind)
        }
    }
}

/// Prints the `payload` field verbatim (artifact bytes, query output)
/// instead of the response envelope.
fn print_payload(resp: &Response) -> ExitCode {
    match resp {
        Response::Ok(_) => {
            print!("{}", resp.str_field("payload").unwrap_or_default());
            ExitCode::SUCCESS
        }
        Response::Err { kind, message } => {
            eprintln!("alertctl: {}: {message}", kind.as_str());
            exit_for(*kind)
        }
    }
}

fn exit_for(kind: ErrorKind) -> ExitCode {
    ExitCode::from(u8::try_from(kind.exit_code()).unwrap_or(1))
}

// ---------------------------------------------------------------------
// Minimal stream abstraction so TCP and Unix sockets share one path
// ---------------------------------------------------------------------

trait ReadWrite: Read + Send {
    fn set_read_timeout(&self, d: Option<Duration>) -> Result<(), String>;
    fn try_clone_box(&self) -> Result<Box<dyn Write + Send>, String>;
}

impl ReadWrite for TcpStream {
    fn set_read_timeout(&self, d: Option<Duration>) -> Result<(), String> {
        TcpStream::set_read_timeout(self, d).map_err(|e| e.to_string())
    }
    fn try_clone_box(&self) -> Result<Box<dyn Write + Send>, String> {
        Ok(Box::new(self.try_clone().map_err(|e| e.to_string())?))
    }
}

#[cfg(unix)]
impl ReadWrite for std::os::unix::net::UnixStream {
    fn set_read_timeout(&self, d: Option<Duration>) -> Result<(), String> {
        std::os::unix::net::UnixStream::set_read_timeout(self, d).map_err(|e| e.to_string())
    }
    fn try_clone_box(&self) -> Result<Box<dyn Write + Send>, String> {
        Ok(Box::new(self.try_clone().map_err(|e| e.to_string())?))
    }
}

#[cfg(unix)]
fn connect_unix(path: &str) -> Result<Box<dyn ReadWrite>, String> {
    Ok(Box::new(
        std::os::unix::net::UnixStream::connect(path)
            .map_err(|e| format!("connect {path}: {e}"))?,
    ))
}

#[cfg(not(unix))]
fn connect_unix(path: &str) -> Result<Box<dyn ReadWrite>, String> {
    Err(format!(
        "unix socket endpoint {path} unsupported on this platform"
    ))
}
