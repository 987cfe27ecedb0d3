//! Pins the bytes of live JSONL traces: the byte count and FNV-1a 64
//! digest of the trace `simrun --trace` writes for all nine protocols at
//! 60 nodes, for ALERT in the 200-node default scenario, for the sample
//! fault plan in `examples/`, and for ALERT at 5,000 nodes on a field
//! scaled to the paper's density. Each pin is the trace of
//!
//! ```text
//! simrun --protocol P --nodes 60 --duration 10 --seed 42 --trace t.jsonl
//! simrun --protocol alert --duration 10 --seed 42 --trace t.jsonl
//! simrun --protocol alert --nodes 80 --pairs 3 --duration 20 --seed 42 \
//!        --faults examples/fault_plan.sample.json --trace t.jsonl
//! ```
//!
//! and, for the last, of `ScenarioConfig::default()
//! .with_nodes_scaled_field(5000).with_duration(3.0)` with ALERT and seed
//! 42 (`simrun --nodes` keeps the field, so it has no flag for this one).
//!
//! The 5,000-node run is the one that checks the hello sweep at scale:
//! its grid has about 20 cells a side, so the cell-order scan crosses
//! many cell rows and edges. Run on a single CPU (`taskset -c 0 cargo
//! test --test trace_digests`), every run must hit the same bytes.
//!
//! `trace_determinism` only compares a run with itself. These digests
//! compare a run with the bytes recorded when they were committed, so a
//! change to the encoder, the event order or any RNG draw that reaches
//! the trace fails here. A change that alters the trace on purpose must
//! say why and update the pins.

use alert_bench::{run_instrumented, ProtocolChoice, RunOptions};
use alert_core::AlertConfig;
use alert_sim::{FaultPlan, JsonlSink, ScenarioConfig};
use alert_trace::json;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

/// Counts and FNV-1a-hashes what a JSONL sink writes, keeping nothing.
#[derive(Clone)]
struct Digest(Arc<Mutex<(u64, u64)>>);

impl Digest {
    fn new() -> Self {
        Digest(Arc::new(Mutex::new((0, 0xcbf2_9ce4_8422_2325))))
    }

    fn get(&self) -> (u64, u64) {
        *self.0.lock().unwrap()
    }
}

impl Write for Digest {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut s = self.0.lock().unwrap();
        s.0 += buf.len() as u64;
        for &b in buf {
            s.1 = (s.1 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// `(bytes, digest)` of the trace of one run.
fn trace_digest(protocol: ProtocolChoice, cfg: &ScenarioConfig, seed: u64) -> (u64, u64) {
    let digest = Digest::new();
    let opts = RunOptions::with_trace(Box::new(JsonlSink::new(digest.clone())));
    run_instrumented(protocol, cfg, seed, opts).expect("run completes");
    digest.get()
}

fn check(what: &str, got: (u64, u64), want: (u64, u64)) {
    assert_eq!(
        got, want,
        "{what}: trace is {} bytes, digest {:#018x}; pinned {} bytes, {:#018x}",
        got.0, got.1, want.0, want.1
    );
}

#[test]
fn nine_protocols_at_60_nodes() {
    let cfg = ScenarioConfig::default().with_nodes(60).with_duration(10.0);
    let pins = [
        (
            ProtocolChoice::Alert(AlertConfig::default()),
            (2_341_071, 0x04e4_1a16_7bbc_5e6c),
        ),
        (ProtocolChoice::Gpsr, (43_689, 0x39e1_ffc4_4cf1_6e0e)),
        (ProtocolChoice::Alarm, (163_397, 0xb1e3_971a_dabc_becc)),
        (ProtocolChoice::Ao2p, (70_324, 0x318b_f5e0_c014_dc28)),
        (
            ProtocolChoice::Zap { growth: 1.0 },
            (80_990, 0x3d7a_d8f9_51c1_95f8),
        ),
        (ProtocolChoice::Anodr, (1_558_668, 0x0bca_e3b3_67c5_fad8)),
        (ProtocolChoice::Prism, (585_413, 0x350a_1fec_029b_61db)),
        (ProtocolChoice::Mask, (1_605_158, 0x5613_993b_2b30_7748)),
        (ProtocolChoice::Mapcp, (2_650_432, 0x133d_e1d6_6be5_a21f)),
    ];
    for (protocol, want) in pins {
        check(protocol.name(), trace_digest(protocol, &cfg, 42), want);
    }
}

#[test]
fn alert_in_the_default_scenario() {
    let cfg = ScenarioConfig::default().with_duration(10.0);
    assert_eq!(cfg.nodes, 200);
    let got = trace_digest(ProtocolChoice::Alert(AlertConfig::default()), &cfg, 42);
    check("ALERT, 200 nodes", got, (11_328_524, 0x8c6a_1cc4_85f1_70a1));
}

#[test]
fn alert_under_the_sample_fault_plan() {
    let plan = include_str!("../../../examples/fault_plan.sample.json");
    let mut cfg = ScenarioConfig::default().with_nodes(80).with_duration(20.0);
    cfg.traffic.pairs = 3;
    cfg.faults = json::from_str::<FaultPlan>(plan).expect("sample plan parses");
    cfg.validate().expect("valid scenario");
    let got = trace_digest(ProtocolChoice::Alert(AlertConfig::default()), &cfg, 42);
    check(
        "ALERT, sample fault plan",
        got,
        (946_133, 0xd0cd_9644_c200_55bb),
    );
}

#[test]
fn alert_at_5000_nodes_on_a_scaled_field() {
    let cfg = ScenarioConfig::default()
        .with_nodes_scaled_field(5000)
        .with_duration(3.0);
    let got = trace_digest(ProtocolChoice::Alert(AlertConfig::default()), &cfg, 42);
    check(
        "ALERT, 5,000 nodes",
        got,
        (2_702_477, 0xddbf_b1d7_ff4b_a09e),
    );
}
