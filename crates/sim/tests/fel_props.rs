//! Model-based equivalence tests for the event queue.
//!
//! A trivially-correct reference FEL — a flat `Vec` popped by linear
//! scan for the minimum `(total_cmp(time), seq)` key — is driven through
//! the same interleaved schedule/pop sequences as the real
//! [`EventQueue`]. Both must agree on every pop, and on `peek_time` and
//! `len` after every step (the simulator's run loop steps on
//! `peek_time`). This pins the heap and its recycled payload slots to
//! the simple FIFO-per-instant contract the simulator's byte-identical
//! traces depend on.

use alert_rng::{check, Rng, StdRng};
use alert_sim::EventQueue;

/// One step of an interleaving.
#[derive(Debug, Clone)]
enum Op {
    Schedule(f64),
    Pop,
}

/// Times covering the shapes the simulator produces: ordinary
/// near-future values, repeated constants (same-instant FIFO bursts),
/// sub-millisecond clusters, and far-future values that wait behind
/// everything else.
fn arb_time(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..11) {
        0..=4 => rng.gen_range(0.0..100.0),
        5 | 6 => 1.0,
        7 | 8 => 2.5,
        9 => rng.gen_range(0.0..1.0e-3),
        _ => rng.gen_range(1.0e6..1.0e9),
    }
}

fn arb_op(rng: &mut StdRng) -> Op {
    match rng.gen_range(0..8) {
        0..=4 => Op::Schedule(arb_time(rng)),
        _ => Op::Pop,
    }
}

/// The reference model: linear-scan extraction over a flat vector,
/// mirroring the queue's admission rules (finite times only, past times
/// clamped to `now`, `-0.0` normalized to `+0.0`).
struct Reference {
    live: Vec<(f64, u64)>,
    now: f64,
}

impl Reference {
    fn new() -> Self {
        Reference {
            live: Vec::new(),
            now: 0.0,
        }
    }

    fn schedule(&mut self, time: f64, seq: u64) {
        let time = if time == 0.0 { 0.0 } else { time };
        let time = if time < self.now { self.now } else { time };
        self.live.push((time, seq));
    }

    fn pop(&mut self) -> Option<(f64, u64)> {
        let at = self
            .live
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
            .map(|(i, _)| i)?;
        let (t, s) = self.live.remove(at);
        self.now = t;
        Some((t, s))
    }

    fn peek_time(&self) -> Option<f64> {
        self.live
            .iter()
            .map(|&(t, _)| t)
            .min_by(|a, b| a.total_cmp(b))
    }
}

/// Runs one interleaving through both implementations, comparing every
/// observable step, then drains both and compares the full tail.
fn check_equivalence(ops: &[Op]) {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut model = Reference::new();
    let mut seq = 0u64;
    for op in ops {
        match *op {
            Op::Schedule(t) => {
                q.schedule(t, seq);
                model.schedule(t, seq);
                seq += 1;
            }
            Op::Pop => {
                assert_eq!(q.pop(), model.pop(), "pop diverged");
            }
        }
        assert_eq!(q.peek_time(), model.peek_time(), "peek_time diverged");
        assert_eq!(q.len(), model.live.len(), "len diverged");
    }
    loop {
        let got = q.pop();
        let want = model.pop();
        assert_eq!(got, want, "drain diverged");
        if got.is_none() {
            break;
        }
    }
}

/// Arbitrary schedule/pop interleavings: the queue agrees with the
/// reference on every step.
#[test]
fn interleavings_match_the_reference() {
    check(256, 0, |rng| {
        let ops: Vec<Op> = (0..rng.gen_range(1..250)).map(|_| arb_op(rng)).collect();
        check_equivalence(&ops);
    });
}

/// Bursts of events at a handful of shared timestamps, with pops mixed
/// in: FIFO within each instant must match the model exactly.
#[test]
fn same_instant_bursts_stay_fifo() {
    check(256, 0, |rng| {
        let instants = [0.0, 1.0, 2.5, 60.0];
        let mut ops = Vec::new();
        for _ in 0..rng.gen_range(1..40) {
            let at = instants[rng.gen_range(0..4usize)];
            for _ in 0..rng.gen_range(1..30) {
                ops.push(Op::Schedule(at));
            }
            if rng.gen_bool(0.5) {
                ops.push(Op::Pop);
            }
        }
        check_equivalence(&ops);
    });
}

/// Mixes dominated by far-future times: events scheduled far ahead
/// wait behind near ones and surface in order once those drain.
#[test]
fn far_future_mixes_match_the_reference() {
    check(256, 0, |rng| {
        let ops: Vec<Op> = (0..rng.gen_range(1..200))
            .map(|_| match rng.gen_range(0..8) {
                0..=2 => Op::Schedule(rng.gen_range(1.0e5..1.0e9)),
                3 | 4 => Op::Schedule(rng.gen_range(0.0..10.0)),
                _ => Op::Pop,
            })
            .collect();
        check_equivalence(&ops);
    });
}
