//! `alertd` — the crash-only sim-as-a-service daemon.
//!
//! ```text
//! alertd serve --dir state/                   # blocks until drained
//! alertd serve --dir state/ --tcp 127.0.0.1:7007 --jobs 4
//! alertd serve --dir state/ --socket state/alertd.sock
//! ```
//!
//! Exit codes follow the repo convention: 0 clean (drained), 1 runtime
//! failure, 2 usage error or directory busy (another live daemon).

use alertd::{serve, BindAddr, ServeError, ServerConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print_usage();
            ExitCode::from(if args.is_empty() { 2 } else { 0 })
        }
        Some(other) => {
            eprintln!("alertd: unknown command '{other}'");
            print_usage();
            ExitCode::from(2)
        }
    }
}

fn print_usage() {
    eprintln!(
        "usage:\n  \
         alertd serve --dir DIR [--tcp HOST:PORT | --socket PATH] [--jobs N]\n              \
         [--queue N] [--idle-timeout-s S]\n              \
         [--cap-max-events N] [--cap-max-sim-s S] [--cap-max-instant-events N]"
    );
}

// ---------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------

fn cmd_serve(args: &[String]) -> ExitCode {
    let mut config = ServerConfig::default();
    let mut dir: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> Option<String> {
            let v = it.next().cloned();
            if v.is_none() {
                eprintln!("alertd: {name} needs a value");
            }
            v
        };
        match flag.as_str() {
            "--dir" => dir = val("--dir").map(PathBuf::from),
            "--tcp" => match val("--tcp") {
                Some(v) => config.bind = BindAddr::Tcp(v),
                None => return ExitCode::from(2),
            },
            "--socket" => match val("--socket") {
                Some(v) => config.bind = BindAddr::Unix(PathBuf::from(v)),
                None => return ExitCode::from(2),
            },
            "--jobs" => match val("--jobs").and_then(|v| v.parse().ok()) {
                Some(v) => config.jobs = v,
                None => return ExitCode::from(2),
            },
            "--queue" => match val("--queue").and_then(|v| v.parse().ok()) {
                Some(v) => config.queue_cap = v,
                None => return ExitCode::from(2),
            },
            "--idle-timeout-s" => match val("--idle-timeout-s").and_then(|v| v.parse::<f64>().ok())
            {
                Some(v) if v > 0.0 => config.idle_timeout = Duration::from_secs_f64(v),
                _ => return ExitCode::from(2),
            },
            "--cap-max-events" => match val("--cap-max-events").and_then(|v| v.parse().ok()) {
                Some(v) => config.cap.max_events = Some(v),
                None => return ExitCode::from(2),
            },
            "--cap-max-sim-s" => match val("--cap-max-sim-s").and_then(|v| v.parse().ok()) {
                Some(v) => config.cap.max_sim_seconds = Some(v),
                None => return ExitCode::from(2),
            },
            "--cap-max-instant-events" => {
                match val("--cap-max-instant-events").and_then(|v| v.parse().ok()) {
                    Some(v) => config.cap.max_events_per_instant = Some(v),
                    None => return ExitCode::from(2),
                }
            }
            other => {
                eprintln!("alertd: unknown flag '{other}'");
                return ExitCode::from(2);
            }
        }
    }
    let Some(dir) = dir else {
        eprintln!("alertd: serve requires --dir");
        return ExitCode::from(2);
    };
    config.dir = dir;
    match serve(config) {
        Ok(_) => ExitCode::SUCCESS,
        Err(ServeError::Busy { pid }) => {
            match pid {
                Some(pid) => eprintln!("alertd: directory busy: live daemon pid {pid}"),
                None => eprintln!("alertd: directory busy: another live daemon owns it"),
            }
            ExitCode::from(2)
        }
        Err(ServeError::Io(e)) => {
            eprintln!("alertd: {e}");
            ExitCode::from(1)
        }
    }
}
