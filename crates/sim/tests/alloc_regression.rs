//! Allocation-regression guard for the simulator's steady-state hot
//! paths. The per-tick machinery (hello rounds, mobility/grid updates,
//! pseudonym rotation, FEL traffic) reuses scratch buffers, so once a
//! run is warmed up, ticking the world must perform at most a handful
//! of allocations (rare buffer growth when a cell or neighbor table
//! exceeds its historical peak) — not the O(nodes) per tick the naive
//! collect-into-fresh-Vec implementation costs.

use alert_sim::{
    Api, DataRequest, Frame, JsonlSink, ProtocolNode, ScenarioConfig, TimerToken, TrafficClass,
    World,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// System allocator wrapper that counts allocation calls (`alloc` and
/// `realloc`; frees are irrelevant to the regression).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The counter is process-wide and the harness runs tests on parallel
/// threads, so each test holds this lock: another test's allocations
/// must not land in its measurement window.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed test poisons the lock; the counter it guards stays valid.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A protocol that does nothing: the run exercises only the simulator's
/// own tick machinery (hello rounds, mobility, grid, rotation).
#[derive(Default)]
struct Idle;

impl ProtocolNode for Idle {
    type Msg = ();
    fn name() -> &'static str {
        "IDLE"
    }
    fn on_data_request(&mut self, _api: &mut Api<'_, Self::Msg>, _req: &DataRequest) {}
    fn on_frame(&mut self, _api: &mut Api<'_, Self::Msg>, _frame: Frame<Self::Msg>) {}
}

#[test]
fn steady_state_ticks_are_allocation_free() {
    let _serial = serial();
    let mut cfg = ScenarioConfig::default()
        .with_nodes(120)
        .with_duration(100.0);
    cfg.traffic.pairs = 0; // hello + mobility + rotation only
    let mut w = World::new(cfg, 0xA110C, |_, _| Idle);

    // Warm-up: let every scratch buffer, grid cell, and the FEL arena
    // grow to its working size.
    w.run_until(40.0);

    let before = allocs();
    w.run_until(90.0);
    let during = allocs() - before;

    // 50 simulated seconds = 50 hello rounds x 120 nodes = 6000 table
    // refreshes plus 500 mobility ticks. The pre-optimization code
    // allocated at least two Vecs per refresh (> 12000 allocations);
    // steady state now only allocates when some buffer outgrows its
    // historical peak, which mobility can trigger a handful of times.
    assert!(
        during < 500,
        "steady-state ticks allocated {during} times over 50 simulated \
         seconds; hot-path buffer reuse has regressed"
    );
}

#[test]
fn disabled_metrics_sampling_adds_no_allocations() {
    let _serial = serial();
    // The `--metrics-every` registry-sampling hook sits on the event
    // dispatch path. When sampling was never enabled it must cost one
    // `Option` branch — no snapshots, no buffers — so a warmed world
    // stays inside the same budget as before the hook existed. (With
    // sampling *on*, snapshot clones allocate by design; that cost is
    // measured by the repository benchmark's `traced-alert` workload.)
    let mut cfg = ScenarioConfig::default()
        .with_nodes(120)
        .with_duration(100.0);
    cfg.traffic.pairs = 0;
    let mut w = World::new(cfg, 0xA110C, |_, _| Idle);
    assert!(
        !w.metrics_timeseries_enabled(),
        "sampling must default to off"
    );

    w.run_until(40.0);
    let before = allocs();
    w.run_until(90.0);
    let during = allocs() - before;

    assert!(
        during < 500,
        "steady-state ticks with sampling disabled allocated {during} \
         times over 50 simulated seconds; the sampling hook is no longer \
         free when off"
    );
    assert!(w.take_metrics_timeseries().is_none());
}

#[test]
fn hello_rounds_allocate_far_less_than_once_per_node_per_round() {
    let _serial = serial();
    // A per-tick-allocating implementation costs at least one allocation
    // per node per hello round (nodes x rounds: >= 12000 here). Buffer
    // growth past historical peaks costs at most a few allocations per
    // node over the whole run (observed: ~180). Asserting the per-round
    // rate stays far below one-per-node separates the two regimes with
    // two orders of magnitude of margin on each side.
    const NODES: usize = 240;
    const ROUNDS: u64 = 50; // hello interval is 1 s; we measure 50 s

    let mut cfg = ScenarioConfig::default()
        .with_nodes(NODES)
        .with_duration(100.0);
    cfg.traffic.pairs = 0;
    let mut w = World::new(cfg, 0xA110C, |_, _| Idle);
    w.run_until(40.0);
    let before = allocs();
    w.run_until(90.0);
    let during = allocs() - before;

    let per_round = during / ROUNDS;
    assert!(
        per_round < NODES as u64 / 10,
        "{during} allocations over {ROUNDS} hello rounds at {NODES} nodes \
         ({per_round}/round); the hot path is allocating per node again"
    );
}

/// Allocations while ticking a warmed world from 40 s to 90 s.
fn steady_state_allocs(pairs: usize, profiled: bool) -> u64 {
    let mut cfg = ScenarioConfig::default()
        .with_nodes(120)
        .with_duration(100.0);
    cfg.traffic.pairs = pairs;
    let mut w = World::new(cfg, 0xA110C, |_, _| Idle);
    if profiled {
        w.enable_profiling();
    }
    w.run_until(40.0);
    let before = allocs();
    w.run_until(90.0);
    allocs() - before
}

#[test]
fn profiled_steady_state_meets_the_unprofiled_bound() {
    let _serial = serial();
    // Profiling accounts every dispatched event and protocol callback in
    // maps keyed by static names, so a warmed profiled run allocates no
    // more than an unprofiled one. Keying by an owned copy of the name
    // costs one allocation per event: thousands over these 50 s.
    let plain = steady_state_allocs(2, false);
    let profiled = steady_state_allocs(2, true);
    assert!(
        plain < 500 && profiled < 500,
        "steady-state ticks allocated {plain} times unprofiled and {profiled} \
         times profiled over 50 simulated seconds; the bound is 500"
    );
}

#[test]
fn hello_sweep_allocates_per_round_not_per_node() {
    let _serial = serial();
    // The hello sweep runs on one thread at every size, into packed
    // lists and scratch that keep their capacity, so at 4096 nodes the
    // sweep itself allocates nothing. A round still allocates when a
    // buffer outgrows its historical peak, chiefly the per-node tables
    // filled for the hello's `on_neighbor_lost` calls (about 50-90 per
    // round here). A per-node allocation would cost >= 4096 per round.
    const NODES: usize = 4096;
    const ROUNDS: u64 = 10;

    let mut cfg = ScenarioConfig::default()
        .with_nodes_scaled_field(NODES)
        .with_duration(30.0);
    cfg.traffic.pairs = 0;
    let mut w = World::new(cfg, 0xA110C, |_, _| Idle);
    w.run_until(15.0);
    let before = allocs();
    w.run_until(25.0);
    let during = allocs() - before;

    let per_round = during / ROUNDS;
    assert!(
        per_round < 256,
        "{during} allocations over {ROUNDS} hello rounds at {NODES} nodes \
         ({per_round}/round); the parallel sweep is allocating per node"
    );
}

/// Broadcasts a small frame from a periodic timer, staggered by node id,
/// and ignores what it hears: the run is dominated by broadcast fan-out.
struct Beacon;

impl ProtocolNode for Beacon {
    type Msg = u64;
    fn name() -> &'static str {
        "BEACON"
    }
    fn on_start(&mut self, api: &mut Api<'_, Self::Msg>) {
        api.set_timer(0.001 * api.my_id().0 as f64, 0);
    }
    fn on_data_request(&mut self, _api: &mut Api<'_, Self::Msg>, _req: &DataRequest) {}
    fn on_frame(&mut self, _api: &mut Api<'_, Self::Msg>, _frame: Frame<Self::Msg>) {}
    fn on_timer(&mut self, api: &mut Api<'_, Self::Msg>, token: TimerToken) {
        api.set_timer(0.5, token);
        api.send_broadcast(token, 64, TrafficClass::Cover, None);
    }
}

/// Broadcast frames sent and allocations made while 120 beaconing
/// nodes run from 40 s to 90 s, with or without a JSONL trace streaming
/// into `io::sink()` from the start.
fn beacon_allocs(traced: bool) -> (u64, u64) {
    let mut cfg = ScenarioConfig::default()
        .with_nodes(120)
        .with_duration(100.0);
    cfg.traffic.pairs = 0;
    let mut w = World::new(cfg, 0xA110C, |_, _| Beacon);
    if traced {
        w.set_trace_sink(Box::new(JsonlSink::new(io::sink())));
    }
    w.run_until(40.0);
    let (frames, before) = (w.counter("tx.broadcast"), allocs());
    w.run_until(90.0);
    let during = allocs() - before;
    (w.counter("tx.broadcast") - frames, during)
}

#[test]
fn broadcast_delivery_allocates_nothing_per_frame() {
    let _serial = serial();
    // 120 nodes broadcasting twice a second put 12000 frames and about
    // 100k receiver deliveries on the air over the measured 50 s. A
    // delivery path that allocated per frame (say, a fresh receiver list)
    // or per receiver would cost at least 12000 allocations.
    let (frames, during) = beacon_allocs(false);
    assert!(frames >= 12_000, "only {frames} broadcasts measured");
    assert!(
        during < 500,
        "{during} allocations over {frames} broadcast frames in 50 simulated \
         seconds; broadcast delivery is allocating per frame"
    );
}

#[test]
fn traced_broadcasts_encode_without_allocating_per_event() {
    let _serial = serial();
    // The same load traced: about 100k `rx` lines, 12000 `tx` lines and
    // some 12000 distinct times over the measured 50 s. The sink reuses
    // one line buffer and its encoder keeps the last `t` and `at` texts
    // in two strings it clears and refills, so tracing adds no
    // allocations to a warmed world (none on the `write!` encoder before
    // it either). An encoder that allocated per line, or per newly
    // formatted time, would add at least 12000.
    let (_, plain) = beacon_allocs(false);
    let (frames, traced) = beacon_allocs(true);
    assert!(frames >= 12_000, "only {frames} broadcasts measured");
    assert!(
        traced <= plain + 32,
        "{traced} allocations traced against {plain} untraced over {frames} \
         broadcast frames in 50 simulated seconds; trace encoding is \
         allocating per event"
    );
}

/// Unicasts a small frame to its first neighbor from a periodic timer,
/// staggered by node id: on a lossy channel many of those frames are
/// dropped, so the run is dominated by drop bookkeeping.
struct Unicaster;

impl ProtocolNode for Unicaster {
    type Msg = u64;
    fn name() -> &'static str {
        "UNICASTER"
    }
    fn on_start(&mut self, api: &mut Api<'_, Self::Msg>) {
        api.set_timer(0.001 * api.my_id().0 as f64, 0);
    }
    fn on_data_request(&mut self, _api: &mut Api<'_, Self::Msg>, _req: &DataRequest) {}
    fn on_frame(&mut self, _api: &mut Api<'_, Self::Msg>, _frame: Frame<Self::Msg>) {}
    fn on_timer(&mut self, api: &mut Api<'_, Self::Msg>, token: TimerToken) {
        api.set_timer(0.5, token);
        if let Some(to) = api.neighbors().first().map(|n| n.pseudonym) {
            api.send_unicast(to, token, 64, TrafficClass::Control, None);
        }
    }
}

/// Drops recorded and allocations made while 120 unicasting nodes run
/// from 40 s to 90 s on a channel losing 30% of unicasts, with or
/// without a JSONL trace streaming into `io::sink()` from the start.
fn lossy_unicast_allocs(traced: bool) -> (u64, u64) {
    let mut cfg = ScenarioConfig::default()
        .with_nodes(120)
        .with_duration(100.0);
    cfg.traffic.pairs = 0;
    cfg.mac.loss_probability = 0.3;
    let mut w = World::new(cfg, 0xA110C, |_, _| Unicaster);
    if traced {
        w.set_trace_sink(Box::new(JsonlSink::new(io::sink())));
    }
    w.run_until(40.0);
    let (drops, before) = (w.counter("drops"), allocs());
    w.run_until(90.0);
    let during = allocs() - before;
    (w.counter("drops") - drops, during)
}

#[test]
fn traced_drops_allocate_nothing_per_event() {
    let _serial = serial();
    // 120 nodes unicasting twice a second put 12000 frames on a channel
    // that loses 30% of them, so the measured 50 s trace thousands of
    // `drop` lines. Their reason borrows `DropReason::as_str`, so a
    // warmed traced run allocates no more than an untraced one; a
    // reason owned per event would add one allocation per drop. The
    // metrics drop map owns a key only for a reason's first drop, so the
    // untraced run stays inside the steady-state bound too.
    let (_, plain) = lossy_unicast_allocs(false);
    let (drops, traced) = lossy_unicast_allocs(true);
    assert!(drops >= 2_000, "only {drops} drops measured");
    assert!(
        plain < 500,
        "{plain} allocations untraced over {drops} drops in 50 simulated \
         seconds; drop bookkeeping is allocating per drop"
    );
    assert!(
        traced <= plain + 32,
        "{traced} allocations traced against {plain} untraced over {drops} \
         drops in 50 simulated seconds; traced drops are allocating per event"
    );
}
