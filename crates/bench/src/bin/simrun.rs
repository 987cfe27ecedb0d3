//! `simrun` — run one protocol on a scenario described by a JSON file
//! (or the paper's default) and print the run summary.
//!
//! ```text
//! simrun --protocol alert [--scenario scenario.json] [--seed 42] [--runs 5]
//! simrun --protocol gpsr --nodes 60 --pairs 3 --duration 20 \
//!        --trace /tmp/t.jsonl --profile profile.json
//! simrun --emit-default-scenario > scenario.json
//! ```
//!
//! Scenario files are the JSON form of [`alert_sim::ScenarioConfig`]; see
//! `--emit-default-scenario` for a template. Omitted fields added after
//! the first scenario files take their defaults; unknown fields are
//! errors that name the field path. `--nodes/--pairs/--duration`
//! override the (file or default) scenario, so small smoke scenarios need
//! no file; `--mobility`, `--placement`, `--energy`/`--idle-watts`/
//! `--cluster-heads` and `--insiders` override the workload-family knobs
//! the same way (fine-grained parameters stay JSON-only). A metered run's
//! `--report` gains an `energy` block (per-cause drain, deaths,
//! cluster-head elections). `--trace` streams the structured JSONL event trace;
//! `--profile` writes the [`alert_sim::RunProfile`] JSON (pass `-` for
//! stdout). `--faults` loads an [`alert_sim::FaultPlan`] JSON into the
//! scenario; `--report` writes the graceful-degradation report (delivery,
//! latency with p50/p95/p99, node downs/ups, ARQ retries, drops by
//! reason). `--timeseries` samples the counter/histogram registry every
//! `--metrics-every` simulated seconds (default 5) into the
//! byte-deterministic `alert-timeseries/1` JSONL format — the input to
//! `tracequery rates`. `--postmortem` keeps a ring of the trailing trace
//! events and dumps them to the given path if the run aborts or panics.
//! All imply a single instrumented run.
//!
//! `--max-events`, `--max-sim-s`, `--max-wall-s` and
//! `--max-instant-events` set the run guardrails
//! ([`alert_sim::RunBudget`]); a tripped budget aborts the run with a
//! structured `run aborted: ...` error (exit 1) and, with `--trace`,
//! the written trace ends in a `run_aborted` event. All budgets are
//! off by default.
//!
//! Exit codes: `0` ok, `1` runtime failure (I/O, invalid scenario,
//! aborted or quarantined runs), `2` usage error.

use alert_bench::{
    run_instrumented, sweep_point, PostmortemDump, ProtocolChoice, RunOptions, RunOutput,
};
use alert_core::AlertConfig;
use alert_sim::{
    FaultPlan, InsiderConfig, InsiderMode, JsonlSink, Metrics, MobilityKind, Placement,
    ScenarioConfig,
};
use alert_trace::json;
use std::io::Read;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut protocol = String::from("alert");
    let mut scenario_path: Option<String> = None;
    let mut seed = 42u64;
    let mut runs = 1usize;
    let mut trace_path: Option<String> = None;
    let mut profile_path: Option<String> = None;
    let mut faults_path: Option<String> = None;
    let mut report_path: Option<String> = None;
    let mut timeseries_path: Option<String> = None;
    let mut metrics_every: Option<f64> = None;
    let mut postmortem_path: Option<String> = None;
    let mut nodes: Option<usize> = None;
    let mut pairs: Option<usize> = None;
    let mut duration: Option<f64> = None;
    let mut mobility_flag: Option<String> = None;
    let mut placement_flag: Option<String> = None;
    let mut energy_j: Option<f64> = None;
    let mut idle_watts: Option<f64> = None;
    let mut cluster_heads: Option<f64> = None;
    let mut insiders_flag: Option<String> = None;
    let mut max_events: Option<u64> = None;
    let mut max_sim_s: Option<f64> = None;
    let mut max_wall_s: Option<f64> = None;
    let mut max_instant_events: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--protocol" => {
                protocol = it
                    .next()
                    .unwrap_or_else(|| die("--protocol needs a value"))
                    .clone()
            }
            "--scenario" => scenario_path = it.next().cloned(),
            "--seed" => seed = parse(it.next(), "--seed"),
            "--runs" => runs = parse(it.next(), "--runs"),
            "--trace" => {
                trace_path = Some(
                    it.next()
                        .unwrap_or_else(|| die("--trace needs a path"))
                        .clone(),
                );
            }
            "--profile" => {
                profile_path = Some(
                    it.next()
                        .unwrap_or_else(|| die("--profile needs a path (or -)"))
                        .clone(),
                );
            }
            "--faults" => {
                faults_path = Some(
                    it.next()
                        .unwrap_or_else(|| die("--faults needs a plan.json path"))
                        .clone(),
                );
            }
            "--report" => {
                report_path = Some(
                    it.next()
                        .unwrap_or_else(|| die("--report needs a path (or -)"))
                        .clone(),
                );
            }
            "--timeseries" => {
                timeseries_path = Some(
                    it.next()
                        .unwrap_or_else(|| die("--timeseries needs a path (or -)"))
                        .clone(),
                );
            }
            "--metrics-every" => metrics_every = Some(parse(it.next(), "--metrics-every")),
            "--postmortem" => {
                postmortem_path = Some(
                    it.next()
                        .unwrap_or_else(|| die("--postmortem needs a path"))
                        .clone(),
                );
            }
            "--nodes" => nodes = Some(parse(it.next(), "--nodes")),
            "--pairs" => pairs = Some(parse(it.next(), "--pairs")),
            "--duration" => duration = Some(parse(it.next(), "--duration")),
            "--mobility" => {
                mobility_flag = Some(
                    it.next()
                        .unwrap_or_else(|| die("--mobility needs static|rwp|group:N|manhattan:HxV"))
                        .clone(),
                );
            }
            "--placement" => {
                placement_flag = Some(
                    it.next()
                        .unwrap_or_else(|| {
                            die("--placement needs uniform|convoy|teams:SIZE[:SPREAD]")
                        })
                        .clone(),
                );
            }
            "--energy" => energy_j = Some(parse(it.next(), "--energy")),
            "--idle-watts" => idle_watts = Some(parse(it.next(), "--idle-watts")),
            "--cluster-heads" => cluster_heads = Some(parse(it.next(), "--cluster-heads")),
            "--insiders" => {
                insiders_flag = Some(
                    it.next()
                        .unwrap_or_else(|| die("--insiders needs FRACTION:log|drop|modify"))
                        .clone(),
                );
            }
            "--max-events" => max_events = Some(parse(it.next(), "--max-events")),
            "--max-sim-s" => max_sim_s = Some(parse(it.next(), "--max-sim-s")),
            "--max-wall-s" => max_wall_s = Some(parse(it.next(), "--max-wall-s")),
            "--max-instant-events" => {
                max_instant_events = Some(parse(it.next(), "--max-instant-events"));
            }
            "--emit-default-scenario" => {
                println!("{}", json::to_string_pretty(&ScenarioConfig::default()));
                return;
            }
            "--help" | "-h" => {
                usage();
                return;
            }
            other => die(&format!("unknown argument '{other}'")),
        }
    }

    let mut scenario: ScenarioConfig = match &scenario_path {
        None => ScenarioConfig::default(),
        Some(p) => read_json(p, "scenario"),
    };
    if let Some(n) = nodes {
        scenario = scenario.with_nodes(n);
    }
    if let Some(p) = pairs {
        scenario.traffic.pairs = p;
    }
    if let Some(d) = duration {
        scenario = scenario.with_duration(d);
    }
    if let Some(spec) = &mobility_flag {
        scenario.mobility = parse_mobility(spec);
    }
    if let Some(spec) = &placement_flag {
        scenario.placement = parse_placement(spec);
    }
    if let Some(j) = energy_j {
        scenario.energy.initial_j = Some(j);
    }
    if let Some(w) = idle_watts {
        scenario.energy.idle_watts = w;
    }
    if let Some(f) = cluster_heads {
        scenario.energy.cluster_head_fraction = f;
    }
    if let Some(spec) = &insiders_flag {
        scenario.insiders = parse_insiders(spec);
    }
    if max_events.is_some() {
        scenario.budget.max_events = max_events;
    }
    if max_sim_s.is_some() {
        scenario.budget.max_sim_seconds = max_sim_s;
    }
    if max_wall_s.is_some() {
        scenario.budget.max_wall_seconds = max_wall_s;
    }
    if max_instant_events.is_some() {
        scenario.budget.max_events_per_instant = max_instant_events;
    }
    if let Some(p) = &faults_path {
        scenario.faults = read_json::<FaultPlan>(p, "fault plan");
    }
    if let Err(e) = scenario.validate() {
        fail(&format!("invalid scenario: {e}"));
    }
    let choice = match protocol.to_lowercase().as_str() {
        "alert" => ProtocolChoice::Alert(AlertConfig::default()),
        "gpsr" => ProtocolChoice::Gpsr,
        "alarm" => ProtocolChoice::Alarm,
        "ao2p" => ProtocolChoice::Ao2p,
        "zap" => ProtocolChoice::Zap { growth: 1.0 },
        "anodr" => ProtocolChoice::Anodr,
        "prism" => ProtocolChoice::Prism,
        "mask" => ProtocolChoice::Mask,
        "mapcp" => ProtocolChoice::Mapcp,
        // Hidden: the planted NodeId-leaking protocol, so `simcheck`'s
        // minimized failing cases replay here (mirrors repro's hidden
        // `__panic-point`). Deliberately absent from usage/error text.
        "__leaky-node-id" => ProtocolChoice::LeakyNodeId,
        other => die(&format!(
            "unknown protocol '{other}' (alert|gpsr|alarm|ao2p|zap|anodr|prism|mask|mapcp)"
        )),
    };

    if metrics_every.is_some() && timeseries_path.is_none() {
        die("--metrics-every needs --timeseries PATH|- for the output");
    }
    if let Some(e) = metrics_every {
        if !e.is_finite() || e <= 0.0 {
            die("--metrics-every must be a positive number of simulated seconds");
        }
    }

    println!(
        "# {} on {} nodes, {:.0} s, seed {seed}, {runs} run(s)",
        choice.name(),
        scenario.nodes,
        scenario.duration_s
    );
    let instrumented = trace_path.is_some()
        || profile_path.is_some()
        || report_path.is_some()
        || timeseries_path.is_some()
        || postmortem_path.is_some();
    if instrumented && runs != 1 {
        die("--trace/--profile/--report/--timeseries/--postmortem instrument a single run; drop --runs or set it to 1");
    }
    if runs == 1 {
        let opts = RunOptions {
            trace: trace_path.as_ref().map(|p| {
                let sink = JsonlSink::create(p)
                    .unwrap_or_else(|e| fail(&format!("cannot create trace file {p}: {e}")));
                Box::new(sink) as _
            }),
            profile: profile_path.is_some(),
            metrics_every: timeseries_path
                .as_ref()
                .map(|_| metrics_every.unwrap_or(5.0)),
            postmortem: postmortem_path.as_ref().map(PostmortemDump::new),
        };
        // An aborted run still streamed its (truncated) trace — the file
        // ends with the run_aborted event — before this returns Err.
        let out = run_instrumented(choice, &scenario, seed, opts)
            .unwrap_or_else(|e| fail(&e.to_string()));
        println!("{}", out.metrics.summary());
        if let Some(p) = &profile_path {
            let json = json::to_string_pretty(&out.profile);
            if p == "-" {
                println!("{json}");
            } else {
                std::fs::write(p, json + "\n")
                    .unwrap_or_else(|e| fail(&format!("cannot write profile {p}: {e}")));
                eprintln!("profile written to {p}");
            }
        }
        if let Some(p) = &trace_path {
            eprintln!("trace written to {p}");
        }
        if let Some(p) = &timeseries_path {
            let series = out
                .timeseries
                .as_ref()
                .expect("timeseries requested but not collected");
            let doc = series.to_jsonl();
            if p == "-" {
                print!("{doc}");
            } else {
                std::fs::write(p, doc)
                    .unwrap_or_else(|e| fail(&format!("cannot write timeseries {p}: {e}")));
                eprintln!("timeseries written to {p}");
            }
        }
        if let Some(p) = &report_path {
            let json = degradation_report(choice.name(), seed, &scenario, &out);
            if p == "-" {
                println!("{json}");
            } else {
                std::fs::write(p, json + "\n")
                    .unwrap_or_else(|e| fail(&format!("cannot write report {p}: {e}")));
                eprintln!("degradation report written to {p}");
            }
        }
    } else {
        let delivery = sweep_point(choice, &scenario, runs, Metrics::delivery_rate);
        let latency = sweep_point(choice, &scenario, runs, |m: &Metrics| {
            m.mean_latency().unwrap_or(f64::NAN) * 1000.0
        });
        let hops = sweep_point(choice, &scenario, runs, Metrics::hops_per_packet);
        println!("delivery  {delivery:.3}");
        println!("latency   {latency:.1} ms");
        println!("hops/pkt  {hops:.2}");
        println!("(single-run detail: rerun with --runs 1)");
        let quarantined = alert_bench::failures_total();
        if quarantined > 0 {
            fail(&format!(
                "{quarantined} run(s) quarantined (aborted or panicked; see [failed] lines above)"
            ));
        }
    }
}

/// The graceful-degradation report: how the run fared under the injected
/// faults, as one JSON object. Hand-formatted (like the trace codec) so
/// key order — and therefore diffs between runs — is stable.
fn degradation_report(
    protocol: &str,
    seed: u64,
    scenario: &ScenarioConfig,
    out: &RunOutput,
) -> String {
    let m = &out.metrics;
    let counter = |name: &str| out.registry.counters.get(name).copied().unwrap_or(0);
    let retries = out
        .registry
        .histograms
        .get("link.retries")
        .map_or(0, |h| h.count);
    let latency_ms = match m.mean_latency() {
        Some(l) if l.is_finite() => format!("{:.3}", l * 1000.0),
        _ => "null".into(),
    };
    // Quantiles come from the log-bucketed registry histogram: ranks are
    // exact, values are bucket midpoints within a factor of √2 (see
    // `LogHistogram::quantile`). Null when no packet was delivered.
    let latency_q = |q: f64| -> String {
        match out.registry.histograms.get("latency_s") {
            Some(h) if h.count > 0 => {
                let v = if q <= 0.50 {
                    h.p50
                } else if q <= 0.95 {
                    h.p95
                } else {
                    h.p99
                };
                format!("{:.3}", v * 1000.0)
            }
            _ => "null".into(),
        }
    };
    let delivery = m.delivery_rate();
    let drops: Vec<String> = m
        .drops
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    let mut s = String::from("{");
    s.push_str(&format!("\"protocol\":\"{protocol}\","));
    s.push_str(&format!("\"seed\":{seed},"));
    s.push_str(&format!("\"nodes\":{},", scenario.nodes));
    s.push_str(&format!("\"duration_s\":{},", scenario.duration_s));
    s.push_str(&format!(
        "\"fault_plan\":{{\"crashes\":{},\"regional_outages\":{},\"link_degradations\":{}}},",
        scenario.faults.crashes.len(),
        scenario.faults.regional_outages.len(),
        scenario.faults.link_degradations.len()
    ));
    s.push_str(&format!("\"app_packets\":{},", m.packets.len()));
    s.push_str(&format!(
        "\"delivered\":{},",
        m.packets
            .iter()
            .filter(|p| p.delivered_at.is_some())
            .count()
    ));
    s.push_str(&format!("\"delivery_rate\":{delivery:.6},"));
    s.push_str(&format!("\"mean_latency_ms\":{latency_ms},"));
    s.push_str(&format!("\"latency_p50_ms\":{},", latency_q(0.50)));
    s.push_str(&format!("\"latency_p95_ms\":{},", latency_q(0.95)));
    s.push_str(&format!("\"latency_p99_ms\":{},", latency_q(0.99)));
    s.push_str(&format!("\"node_downs\":{},", counter("node.downs")));
    s.push_str(&format!("\"node_ups\":{},", counter("node.ups")));
    s.push_str(&format!("\"link_retries\":{retries},"));
    // The energy block quantifies battery-driven degradation: how much
    // was drained per cause, how many nodes died empty, and how many
    // cluster-head elections the run saw. Metered runs only, so legacy
    // report consumers see an unchanged document.
    if scenario.energy.metered() {
        let e = &m.node_energy;
        s.push_str(&format!(
            "\"energy\":{{\"initial_j\":{},\"drained_j\":{:.6},\"tx_j\":{:.6},\"rx_j\":{:.6},\
             \"idle_j\":{:.6},\"beacon_j\":{:.6},\"deaths\":{},\"cluster_heads\":{}}},",
            scenario.energy.initial_j.unwrap_or(0.0),
            e.drained_j,
            e.tx_j,
            e.rx_j,
            e.idle_j,
            e.beacon_j,
            e.deaths,
            counter("energy.cluster_heads"),
        ));
    }
    s.push_str(&format!("\"drops\":{{{}}}", drops.join(",")));
    s.push('}');
    s
}

fn parse<T: std::str::FromStr>(v: Option<&String>, flag: &str) -> T {
    v.and_then(|s| s.parse().ok())
        .unwrap_or_else(|| die(&format!("{flag} needs a numeric value")))
}

/// `--mobility static|rwp|group:GROUPS|manhattan:HxV`. Fine-grained knobs
/// (group range, turn probability, speed classes) keep their scenario
/// defaults; use `--scenario` JSON to set them.
fn parse_mobility(spec: &str) -> MobilityKind {
    match spec {
        "static" => MobilityKind::Static,
        "rwp" => MobilityKind::RandomWaypoint,
        _ => {
            if let Some(n) = spec.strip_prefix("group:") {
                MobilityKind::Group {
                    groups: n
                        .parse()
                        .unwrap_or_else(|_| die(&format!("bad --mobility group count '{n}'"))),
                    range: 100.0,
                }
            } else if let Some(dims) = spec.strip_prefix("manhattan:") {
                let (h, v) = dims
                    .split_once('x')
                    .unwrap_or_else(|| die(&format!("bad --mobility grid '{dims}' (want HxV)")));
                MobilityKind::ManhattanGrid {
                    h_streets: h
                        .parse()
                        .unwrap_or_else(|_| die(&format!("bad --mobility street count '{h}'"))),
                    v_streets: v
                        .parse()
                        .unwrap_or_else(|_| die(&format!("bad --mobility street count '{v}'"))),
                    turn_prob: 0.5,
                    speed_classes: 1,
                }
            } else {
                die(&format!(
                    "unknown --mobility '{spec}' (static|rwp|group:N|manhattan:HxV)"
                ))
            }
        }
    }
}

/// `--placement uniform|convoy|teams:SIZE[:SPREAD]` (spread in metres,
/// default 50).
fn parse_placement(spec: &str) -> Placement {
    match spec {
        "uniform" => Placement::Uniform,
        "convoy" => Placement::Convoy,
        _ => {
            let Some(rest) = spec.strip_prefix("teams:") else {
                die(&format!(
                    "unknown --placement '{spec}' (uniform|convoy|teams:SIZE[:SPREAD])"
                ))
            };
            let (size, spread) = match rest.split_once(':') {
                Some((s, m)) => (
                    s,
                    m.parse()
                        .unwrap_or_else(|_| die(&format!("bad --placement spread '{m}'"))),
                ),
                None => (rest, 50.0),
            };
            Placement::SmallTeams {
                team_size: size
                    .parse()
                    .unwrap_or_else(|_| die(&format!("bad --placement team size '{size}'"))),
                spread_m: spread,
            }
        }
    }
}

/// `--insiders FRACTION:MODE` with mode `log|drop|modify` (plus the
/// hidden `modify-stealth` used by the oracle drill's replay commands).
fn parse_insiders(spec: &str) -> InsiderConfig {
    let Some((frac, mode)) = spec.split_once(':') else {
        die(&format!(
            "bad --insiders '{spec}' (want FRACTION:log|drop|modify)"
        ))
    };
    InsiderConfig {
        fraction: frac
            .parse()
            .unwrap_or_else(|_| die(&format!("bad --insiders fraction '{frac}'"))),
        mode: match mode {
            "log" => InsiderMode::Log,
            "drop" => InsiderMode::Drop,
            "modify" => InsiderMode::Modify,
            "modify-stealth" => InsiderMode::ModifyStealth,
            other => die(&format!("unknown --insiders mode '{other}'")),
        },
    }
}

fn usage() {
    eprintln!("usage: simrun [--protocol alert|gpsr|alarm|ao2p|zap|anodr|prism|mask|mapcp]");
    eprintln!("              [--scenario file.json] [--seed N] [--runs N]");
    eprintln!("              [--nodes N] [--pairs N] [--duration SECS]");
    eprintln!("              [--mobility static|rwp|group:N|manhattan:HxV]");
    eprintln!("              [--placement uniform|convoy|teams:SIZE[:SPREAD]]");
    eprintln!("              [--energy JOULES] [--idle-watts W] [--cluster-heads FRAC]");
    eprintln!("              [--insiders FRACTION:log|drop|modify]");
    eprintln!("              [--trace trace.jsonl] [--profile profile.json|-]");
    eprintln!("              [--faults plan.json] [--report report.json|-]");
    eprintln!("              [--timeseries series.jsonl|-] [--metrics-every SIM-SECS]");
    eprintln!("              [--postmortem postmortem.jsonl]");
    eprintln!("              [--max-events N] [--max-sim-s SECS] [--max-wall-s SECS]");
    eprintln!("              [--max-instant-events N]   (run guardrails, off by default)");
    eprintln!("       simrun --emit-default-scenario > scenario.json");
}

/// Decodes the JSON file at `p`, reading no more of it than the codec's
/// byte limit accepts.
fn read_json<T: json::FromJson>(p: &str, what: &str) -> T {
    let mut bytes = Vec::new();
    std::fs::File::open(p)
        .and_then(|f| f.take(json::MAX_BYTES as u64 + 1).read_to_end(&mut bytes))
        .unwrap_or_else(|e| fail(&format!("cannot read {p}: {e}")));
    json::from_str(&String::from_utf8_lossy(&bytes))
        .unwrap_or_else(|e| fail(&format!("bad {what} {p}: {e}")))
}

/// Usage error: complain and exit 2.
fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Runtime failure (I/O, invalid scenario data, aborted runs): complain
/// and exit 1.
fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}
