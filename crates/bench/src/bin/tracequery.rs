//! `tracequery` — interrogate a stored `--trace` JSONL file (or an
//! `alert-timeseries/1` series) without re-running the simulation.
//!
//! ```text
//! tracequery filter trace.jsonl --node 17 --after 10 --before 20 --kind drop
//! tracequery filter trace.jsonl --reason unicast_channel_loss --format csv
//! tracequery follow trace.jsonl --packet 3
//! tracequery windows trace.jsonl --every 5 --format json
//! tracequery anonymity trace.jsonl --every 5 [--session 0] [--summary]
//! tracequery rates series.jsonl [--counter tx.frames]
//! ```
//!
//! Subcommands:
//!
//! * `filter` — events matching a conjunction of `--node`, `--after` /
//!   `--before` (simulated seconds, inclusive), `--kind` (canonical `ev`
//!   name), `--reason` (canonical drop reason, implies `--kind drop`) and
//!   `--packet`; rendered as canonical JSONL (default) or CSV.
//! * `follow` — every event referencing `--packet`, in trace order: the
//!   packet's life from `app_send` through its hop path to delivery or
//!   drop.
//! * `windows` — per-window aggregates (events by kind, tx/rx bytes,
//!   drops by reason, deliveries, latency sum) as CSV (default) or the
//!   `alert-windows/1` JSON document.
//! * `anonymity` — the per-flow anonymity-set timeseries: for each S–D
//!   session and window, the recipient-set size `k`, its entropy
//!   `log2 k`, and the intersection attacker's surviving candidate count
//!   (see `alert_adversary::telemetry`). `--summary` prints one line per
//!   flow instead.
//! * `rates` — per-window rates derived from a stored
//!   `alert-timeseries/1` file: all counters (wide CSV) or one
//!   `--counter` (narrow CSV with cumulative, delta and rate columns).
//!
//! All output is hand-formatted with the trace codec's shortest
//! round-trip float rules, so the same input always produces
//! byte-identical output. Exit codes: `0` ok, `1` runtime failure
//! (unreadable or malformed input), `2` usage error.

use alert_adversary::anonymity_timeseries;
use alert_sim::{
    filter_events, follow_packet, parse_trace, push_f64, render_events_csv, render_events_jsonl,
    render_windows_csv, render_windows_json, window_aggregates, EventFilter, MetricsTimeseries,
    TraceEvent,
};
use std::fmt::Write as _;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        std::process::exit(2);
    };
    match cmd.as_str() {
        "filter" => cmd_filter(&args[1..]),
        "follow" => cmd_follow(&args[1..]),
        "windows" => cmd_windows(&args[1..]),
        "anonymity" => cmd_anonymity(&args[1..]),
        "rates" => cmd_rates(&args[1..]),
        "--help" | "-h" | "help" => usage(),
        other => die(&format!(
            "unknown subcommand '{other}' (filter|follow|windows|anonymity|rates)"
        )),
    }
}

/// Pulls the one positional path out of `args`, returning the flags.
fn split_path<'a>(args: &'a [String], what: &str) -> (&'a str, Vec<&'a String>) {
    let mut path = None;
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a.starts_with("--") {
            rest.push(a);
            if a != "--summary" {
                if let Some(v) = it.next() {
                    rest.push(v);
                }
            }
        } else if path.is_none() {
            path = Some(a.as_str());
        } else {
            die(&format!("unexpected extra argument '{a}'"));
        }
    }
    match path {
        Some(p) => (p, rest),
        None => die(&format!("missing {what} path")),
    }
}

/// Parses `--flag value` pairs out of the flag list; `on_flag` sees each
/// `(flag, value)` and returns false for flags it does not know.
fn parse_flags<'a>(flags: &[&'a String], mut on_flag: impl FnMut(&str, &'a str) -> bool) {
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        if flag == "--summary" {
            if !on_flag(flag, "") {
                die(&format!("unknown flag '{flag}' for this subcommand"));
            }
            continue;
        }
        let Some(value) = it.next() else {
            die(&format!("{flag} needs a value"));
        };
        if !on_flag(flag, value.as_str()) {
            die(&format!("unknown flag '{flag}' for this subcommand"));
        }
    }
}

fn load_trace(path: &str) -> Vec<TraceEvent> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    parse_trace(&text).unwrap_or_else(|e| fail(&format!("bad trace {path}: {e}")))
}

fn cmd_filter(args: &[String]) {
    let (path, flags) = split_path(args, "trace");
    let mut filter = EventFilter::default();
    let mut format = "jsonl".to_owned();
    parse_flags(&flags, |flag, value| {
        match flag {
            "--node" => filter.node = Some(parse_num(value, flag)),
            "--after" => filter.t_min = Some(parse_num(value, flag)),
            "--before" => filter.t_max = Some(parse_num(value, flag)),
            "--kind" => filter.kind = Some(value.to_owned()),
            "--reason" => filter.drop_reason = Some(value.to_owned()),
            "--packet" => filter.packet = Some(parse_num(value, flag)),
            "--format" => format = value.to_owned(),
            _ => return false,
        }
        true
    });
    let events = load_trace(path);
    let selected = filter_events(&events, &filter);
    print!("{}", render_events(&selected, &format));
}

fn cmd_follow(args: &[String]) {
    let (path, flags) = split_path(args, "trace");
    let mut packet: Option<u64> = None;
    let mut format = "jsonl".to_owned();
    parse_flags(&flags, |flag, value| {
        match flag {
            "--packet" => packet = Some(parse_num(value, flag)),
            "--format" => format = value.to_owned(),
            _ => return false,
        }
        true
    });
    let Some(packet) = packet else {
        die("follow needs --packet N");
    };
    let events = load_trace(path);
    let path_events = follow_packet(&events, packet);
    print!("{}", render_events(&path_events, &format));
}

fn render_events(events: &[&TraceEvent], format: &str) -> String {
    match format {
        "jsonl" => render_events_jsonl(events),
        "csv" => render_events_csv(events),
        other => die(&format!("unknown --format '{other}' (jsonl|csv)")),
    }
}

fn cmd_windows(args: &[String]) {
    let (path, flags) = split_path(args, "trace");
    let mut every = 5.0f64;
    let mut format = "csv".to_owned();
    parse_flags(&flags, |flag, value| {
        match flag {
            "--every" => every = parse_num(value, flag),
            "--format" => format = value.to_owned(),
            _ => return false,
        }
        true
    });
    check_every(every);
    let events = load_trace(path);
    let windows = window_aggregates(&events, every);
    match format.as_str() {
        "csv" => print!("{}", render_windows_csv(&windows)),
        "json" => print!("{}", render_windows_json(every, &windows)),
        other => die(&format!("unknown --format '{other}' (csv|json)")),
    }
}

fn cmd_anonymity(args: &[String]) {
    let (path, flags) = split_path(args, "trace");
    let mut every = 5.0f64;
    let mut session: Option<u64> = None;
    let mut summary = false;
    parse_flags(&flags, |flag, value| {
        match flag {
            "--every" => every = parse_num(value, flag),
            "--session" => session = Some(parse_num(value, flag)),
            "--summary" => summary = true,
            _ => return false,
        }
        true
    });
    check_every(every);
    let events = load_trace(path);
    let flows = anonymity_timeseries(&events, every);
    let mut out = String::new();
    if summary {
        out.push_str("session,src,dst,windows,identified,destination_excluded,final_candidates\n");
        for f in &flows {
            if session.is_some() && session != Some(f.session) {
                continue;
            }
            let _ = write!(
                out,
                "{},{},{},{},{},{},",
                f.session,
                f.src,
                f.dst,
                f.samples.len(),
                f.identified as u8,
                f.destination_excluded as u8
            );
            push_candidates(&mut out, f.final_candidates);
            out.push('\n');
        }
    } else {
        out.push_str(
            "session,src,dst,t_start,t_end,recipients,entropy_bits,candidates,destination_excluded\n",
        );
        for f in &flows {
            if session.is_some() && session != Some(f.session) {
                continue;
            }
            for s in &f.samples {
                let _ = write!(out, "{},{},{},", f.session, f.src, f.dst);
                push_f64(&mut out, s.t_start);
                out.push(',');
                push_f64(&mut out, s.t_end);
                let _ = write!(out, ",{},", s.recipients);
                push_f64(&mut out, s.entropy_bits);
                out.push(',');
                push_candidates(&mut out, s.candidates);
                let _ = write!(out, ",{}", s.destination_excluded as u8);
                out.push('\n');
            }
        }
    }
    print!("{out}");
}

fn cmd_rates(args: &[String]) {
    let (path, flags) = split_path(args, "timeseries");
    let mut counter: Option<String> = None;
    parse_flags(&flags, |flag, value| {
        match flag {
            "--counter" => counter = Some(value.to_owned()),
            _ => return false,
        }
        true
    });
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let series = MetricsTimeseries::parse(&text)
        .unwrap_or_else(|e| fail(&format!("bad timeseries {path}: {e}")));
    let mut out = String::new();
    match counter {
        Some(name) => {
            // Narrow form: one counter's cumulative value, per-window
            // delta, and rate per simulated second.
            out.push_str("t,cumulative,delta,rate_per_s\n");
            for s in &series.samples {
                push_f64(&mut out, s.t);
                let c = s.counters.get(&name).copied().unwrap_or(0);
                let d = s.deltas.get(&name).copied().unwrap_or(0);
                let _ = write!(out, ",{c},{d},");
                push_f64(&mut out, s.rate(&name, series.every_s));
                out.push('\n');
            }
        }
        None => {
            // Wide form: one rate column per counter seen in the series
            // (counters are identical across samples by construction).
            let names: Vec<&String> = series
                .samples
                .first()
                .map(|s| s.counters.keys().collect())
                .unwrap_or_default();
            out.push('t');
            for n in &names {
                let _ = write!(out, ",{n}");
            }
            out.push('\n');
            for s in &series.samples {
                push_f64(&mut out, s.t);
                for n in &names {
                    out.push(',');
                    push_f64(&mut out, s.rate(n, series.every_s));
                }
                out.push('\n');
            }
        }
    }
    print!("{out}");
}

/// `usize::MAX` means "never observed" — rendered as an empty CSV cell.
fn push_candidates(out: &mut String, candidates: usize) {
    if candidates != usize::MAX {
        let _ = write!(out, "{candidates}");
    }
}

fn check_every(every: f64) {
    if !every.is_finite() || every <= 0.0 {
        die("--every must be a positive number of simulated seconds");
    }
}

fn parse_num<T: std::str::FromStr>(value: &str, flag: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| die(&format!("{flag} needs a numeric value, got '{value}'")))
}

fn usage() {
    eprintln!("usage: tracequery filter    TRACE.jsonl [--node N] [--after T] [--before T]");
    eprintln!("                            [--kind EV] [--reason DROP-REASON] [--packet N]");
    eprintln!("                            [--format jsonl|csv]");
    eprintln!("       tracequery follow    TRACE.jsonl --packet N [--format jsonl|csv]");
    eprintln!("       tracequery windows   TRACE.jsonl [--every SIM-SECS] [--format csv|json]");
    eprintln!("       tracequery anonymity TRACE.jsonl [--every SIM-SECS] [--session N]");
    eprintln!("                            [--summary]");
    eprintln!("       tracequery rates     SERIES.jsonl [--counter NAME]");
}

/// Usage error: complain and exit 2.
fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Runtime failure (I/O, malformed input): complain and exit 1.
fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}
