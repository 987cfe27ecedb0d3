//! Monte-Carlo sweep infrastructure: run `(protocol, scenario)` across
//! seeds in parallel ([`par_runs`] over the in-order executor
//! [`run_ordered`]) and reduce per-run
//! metrics into mean ± 95% CI — the paper's "average of results of 30
//! runs" with confidence intervals (Section 5.2).

use alert_core::{Alert, AlertConfig};
use alert_protocols::{Alarm, Anodr, Ao2p, Gpsr, Mapcp, Mask, Prism, Zap};
use alert_sim::{
    Metrics, MetricsTimeseries, NodeId, ProtocolNode, RegistrySnapshot, RingBufferHandle,
    RingBufferSink, RunAbort, RunProfile, ScenarioConfig, ScenarioError, TeeSink, TraceSink, World,
};
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Instant;

/// Global toggle for `repro --progress`-style per-data-point lines on
/// stderr. Off by default so sweep output stays machine-parsable.
static PROGRESS: AtomicBool = AtomicBool::new(false);

/// Enables or disables per-data-point progress lines on stderr.
pub fn set_progress(enabled: bool) {
    PROGRESS.store(enabled, Ordering::Relaxed);
}

/// Whether progress lines are currently enabled.
pub fn progress_enabled() -> bool {
    PROGRESS.load(Ordering::Relaxed)
}

/// Process-wide count of non-finite samples discarded by
/// [`Stat::from_samples`] — the sweep-level `sweep.nan_samples` counter.
/// A nonzero value after a figure run means some metric fed NaN into a
/// reduction (e.g. a ratio over zero packets) and silently shrank `n`.
static SWEEP_NAN_SAMPLES: AtomicU64 = AtomicU64::new(0);

/// Total non-finite samples discarded across all [`Stat::from_samples`]
/// calls in this process (`sweep.nan_samples`).
pub fn nan_samples_total() -> u64 {
    SWEEP_NAN_SAMPLES.load(Ordering::Relaxed)
}

/// Why a single sweep run produced no metrics.
///
/// Every failure class a long campaign meets in practice, as one value:
/// a scenario that fails validation, a run aborted by its
/// [`alert_sim::RunBudget`] guardrails, or a panic unwound out of the
/// simulator (isolated by [`guarded_run_once`] so one poisoned point
/// cannot sink hours of Monte-Carlo work).
#[derive(Debug, Clone, PartialEq)]
pub enum RunFailure {
    /// The scenario failed [`ScenarioConfig::validate`].
    Scenario(ScenarioError),
    /// A run guardrail tripped; see [`RunAbort`].
    Aborted(RunAbort),
    /// The run panicked; the payload message is preserved.
    Panicked(String),
}

impl std::fmt::Display for RunFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunFailure::Scenario(e) => write!(f, "invalid scenario: {e}"),
            RunFailure::Aborted(a) => write!(f, "run aborted: {a}"),
            RunFailure::Panicked(msg) => write!(f, "panicked: {msg}"),
        }
    }
}

impl std::error::Error for RunFailure {}

impl From<ScenarioError> for RunFailure {
    fn from(e: ScenarioError) -> Self {
        RunFailure::Scenario(e)
    }
}

impl From<RunAbort> for RunFailure {
    fn from(a: RunAbort) -> Self {
        RunFailure::Aborted(a)
    }
}

/// Renders a `catch_unwind` payload into a printable message.
pub fn panic_message(payload: Panic) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// One quarantined sweep run, kept in the process-wide failure ledger
/// for the campaign-level failure report (`repro`'s `failures.jsonl`).
#[derive(Debug, Clone, PartialEq)]
pub struct FailureRecord {
    /// Protocol display name of the failed run.
    pub protocol: String,
    /// Node count of the failed run.
    pub nodes: usize,
    /// Seed of the failed run.
    pub seed: u64,
    /// Human-readable failure description.
    pub error: String,
    /// One-line `simrun` command reproducing the failed point.
    pub replay: String,
}

/// Process-wide ledger of quarantined sweep runs, partitioned by
/// *failure scope* so concurrent [`run_ordered`] workers never steal
/// each other's records. Scope 0 is the serial default;
/// workers claim a scope with [`set_failure_scope`] (inherited by the
/// lanes [`par_runs`] spawns) and drain only their own partition at
/// commit time.
static FAILURES: Mutex<std::collections::BTreeMap<usize, Vec<FailureRecord>>> =
    Mutex::new(std::collections::BTreeMap::new());

/// Total failures quarantined in this process (monotonic; survives
/// [`drain_failures`]).
static FAILURES_TOTAL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The ledger partition this thread quarantines into; executor
    /// workers, and so the lanes [`par_runs`] spawns, inherit their
    /// caller's.
    static FAILURE_SCOPE: Cell<usize> = const { Cell::new(0) };
}

/// Binds this thread (and the sweep lanes it spawns) to a ledger
/// partition. Scope 0 — the default on every thread — preserves the
/// old process-global behavior for serial runs.
pub fn set_failure_scope(scope: usize) {
    FAILURE_SCOPE.with(|s| s.set(scope));
}

/// The ledger partition this thread currently quarantines into.
pub fn failure_scope() -> usize {
    FAILURE_SCOPE.with(Cell::get)
}

/// Runs `f` over the run indices `0..runs` and returns the results in
/// index order, so reductions over them do not depend on scheduling.
///
/// A collecting call of [`run_ordered`] on one lane per available
/// core: the lanes inherit the caller's failure scope, and a single
/// run (or a single core) runs on the calling thread. A panic in any
/// run propagates out of the call with its payload.
pub fn par_runs<T, F>(runs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let lanes = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = Vec::with_capacity(runs);
    run_ordered(
        runs,
        lanes,
        None,
        |_, i| f(i as u64),
        |_, outcome| match outcome {
            Ok(v) => out.push(v),
            Err(payload) => resume_unwind(payload),
        },
    );
    out
}

/// The payload of a panic caught by [`run_ordered`].
pub type Panic = Box<dyn std::any::Any + Send>;

/// Runs `exec(worker, i)` once for every index `i` in `0..n` on up to
/// `jobs` worker threads, and hands each outcome to `commit(i, ..)` on
/// the calling thread in index order, as soon as that index and every
/// one before it are done. Returns how many indices were committed.
///
/// Workers pull indices from one shared counter and inherit the
/// caller's failure scope. Each worker checks
/// `deadline` before it claims an index, so once it passes no new unit
/// starts and the committed indices are the prefix `0..k`. Each unit
/// runs once under `catch_unwind`: a panic is committed as `Err` with
/// its payload. Units are meant to be pure functions of their index,
/// so a failure is final; nothing is retried. With one job or one
/// unit, everything runs inline on the calling thread as worker 0.
pub fn run_ordered<O, E, C>(
    n: usize,
    jobs: usize,
    deadline: Option<Instant>,
    exec: E,
    mut commit: C,
) -> usize
where
    O: Send,
    E: Fn(usize, usize) -> O + Sync,
    C: FnMut(usize, Result<O, Panic>),
{
    let expired = || deadline.is_some_and(|d| Instant::now() >= d);
    let run = |worker, i| catch_unwind(AssertUnwindSafe(|| exec(worker, i)));
    let jobs = jobs.clamp(1, n.max(1));
    if jobs == 1 {
        let mut k = 0;
        while k < n && !expired() {
            commit(k, run(0, k));
            k += 1;
        }
        return k;
    }
    let scope = failure_scope();
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|s| {
        for worker in 0..jobs {
            let tx = tx.clone();
            let (next, run, expired) = (&next, &run, &expired);
            s.spawn(move || {
                set_failure_scope(scope);
                while !expired() {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    // A closed channel means the committer unwound.
                    if i >= n || tx.send((i, run(worker, i))).is_err() {
                        return;
                    }
                }
            });
        }
        drop(tx);
        let mut ready = std::collections::BTreeMap::new();
        let mut k = 0;
        for (i, outcome) in rx {
            ready.insert(i, outcome);
            while let Some(outcome) = ready.remove(&k) {
                commit(k, outcome);
                k += 1;
            }
        }
        k
    })
}

/// Removes and returns every failure quarantined in the calling
/// thread's scope since the last drain.
pub fn drain_failures() -> Vec<FailureRecord> {
    drain_failures_scoped(failure_scope())
}

/// Removes and returns every failure quarantined in the given scope
/// since the last drain. Committers use this to collect a worker's
/// records regardless of which thread commits.
pub fn drain_failures_scoped(scope: usize) -> Vec<FailureRecord> {
    FAILURES
        .lock()
        .expect("failure ledger poisoned")
        .remove(&scope)
        .unwrap_or_default()
}

/// Total sweep runs quarantined in this process.
pub fn failures_total() -> u64 {
    FAILURES_TOTAL.load(Ordering::Relaxed)
}

/// Records a quarantined run: ledger entry plus a one-line stderr report
/// carrying the `simrun` replay command.
pub(crate) fn quarantine(record: FailureRecord) {
    eprintln!(
        "[failed] {} n={} seed={}: {} | replay: {}",
        record.protocol, record.nodes, record.seed, record.error, record.replay
    );
    FAILURES_TOTAL.fetch_add(1, Ordering::Relaxed);
    FAILURES
        .lock()
        .expect("failure ledger poisoned")
        .entry(failure_scope())
        .or_default()
        .push(record);
}

/// Which routing protocol a sweep point runs.
// The `#[doc(hidden)]` variant below is a real, constructed protocol that
// is kept out of the docs, not a marker standing in for
// `#[non_exhaustive]`.
#[allow(clippy::manual_non_exhaustive)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProtocolChoice {
    /// ALERT with the given parameters.
    Alert(AlertConfig),
    /// The GPSR baseline.
    Gpsr,
    /// The ALARM comparison protocol.
    Alarm,
    /// The AO2P comparison protocol.
    Ao2p,
    /// The ZAP destination-cloaking protocol, with its zone-growth factor
    /// (1.0 = countermeasure off).
    Zap {
        /// Per-packet anonymity-zone growth factor.
        growth: f64,
    },
    /// The ANODR topological onion-routing baseline.
    Anodr,
    /// The PRISM reactive geographic baseline.
    Prism,
    /// The MASK anonymous-neighborhood topological baseline.
    Mask,
    /// The MAPCP gossip middleware.
    Mapcp,
    /// Planted-defect protocol that leaks the real source `NodeId` on the
    /// wire ([`crate::planted::LeakyGeo`]). Test-only: exercised by
    /// `simcheck --plant leak` and the hidden `simrun` protocol name
    /// `__leaky-node-id`; never scheduled by `repro` sweeps.
    #[doc(hidden)]
    LeakyNodeId,
}

impl ProtocolChoice {
    /// Display name for table headers.
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolChoice::Alert(_) => "ALERT",
            ProtocolChoice::Gpsr => "GPSR",
            ProtocolChoice::Alarm => "ALARM",
            ProtocolChoice::Ao2p => "AO2P",
            ProtocolChoice::Zap { .. } => "ZAP",
            ProtocolChoice::Anodr => "ANODR",
            ProtocolChoice::Prism => "PRISM",
            ProtocolChoice::Mask => "MASK",
            ProtocolChoice::Mapcp => "MAPCP",
            ProtocolChoice::LeakyNodeId => "__LEAKY-NODE-ID",
        }
    }
}

/// Default ring capacity for [`PostmortemDump`]: enough tail to see the
/// livelock/budget blow-up leading into an abort without holding a whole
/// trace in memory.
pub const POSTMORTEM_RING_CAPACITY: usize = 4096;

/// Post-mortem dump request: keep the last [`PostmortemDump::capacity`]
/// trace events in a ring buffer and, if the run aborts (guardrail trip)
/// or panics, write them as JSONL to [`PostmortemDump::path`].
///
/// The dump is best-effort: an I/O failure while writing it is reported
/// on stderr but never masks the abort or panic it documents.
#[derive(Debug, Clone, PartialEq)]
pub struct PostmortemDump {
    /// Where to write the JSONL tail (convention: `<out>/postmortem.jsonl`).
    pub path: std::path::PathBuf,
    /// How many trailing events to keep (min 1).
    pub capacity: usize,
}

impl PostmortemDump {
    /// A dump request at `path` with the default ring capacity.
    pub fn new(path: impl Into<std::path::PathBuf>) -> PostmortemDump {
        PostmortemDump {
            path: path.into(),
            capacity: POSTMORTEM_RING_CAPACITY,
        }
    }
}

/// Observability knobs for [`run_instrumented`]: where (if anywhere) to
/// stream the structured trace, whether to time the dispatch loop,
/// whether to sample the metrics registry into a timeseries, and whether
/// to keep a post-mortem ring of trailing events.
#[derive(Default)]
pub struct RunOptions {
    /// Trace sink to attach before the run; `None` keeps tracing at its
    /// zero-cost disabled default.
    pub trace: Option<Box<dyn TraceSink>>,
    /// Collect wall-clock dispatch statistics into the [`RunProfile`].
    pub profile: bool,
    /// Sample the counter/histogram registry every this many simulated
    /// seconds into [`RunOutput::timeseries`] (`alert-timeseries/1`).
    pub metrics_every: Option<f64>,
    /// Keep a ring of trailing trace events and dump them on abort/panic.
    pub postmortem: Option<PostmortemDump>,
}

impl RunOptions {
    /// Options with a trace sink attached.
    pub fn with_trace(sink: Box<dyn TraceSink>) -> RunOptions {
        RunOptions {
            trace: Some(sink),
            ..RunOptions::default()
        }
    }
}

/// Everything an instrumented run produces: the simulation metrics plus
/// the engine-level [`RunProfile`] (events dispatched, FEL high-water
/// mark, wall-clock rates — zeros for the timing fields unless
/// [`RunOptions::profile`] was set).
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Per-run simulation metrics.
    pub metrics: Metrics,
    /// Engine profile for the same run.
    pub profile: RunProfile,
    /// Counter/histogram registry at end of run (typed observability:
    /// `node.downs`, `link.retries`, ...).
    pub registry: RegistrySnapshot,
    /// Registry samples taken every [`RunOptions::metrics_every`]
    /// simulated seconds; `None` unless sampling was requested.
    pub timeseries: Option<MetricsTimeseries>,
}

/// Writes the post-mortem ring tail to its path. Best-effort: failures
/// go to stderr so they never mask the abort/panic being documented.
fn dump_postmortem(pm: &PostmortemDump, ring: Option<&RingBufferHandle>) {
    let Some(handle) = ring else { return };
    if let Err(e) = std::fs::write(&pm.path, handle.to_jsonl()) {
        eprintln!("postmortem: failed to write {}: {e}", pm.path.display());
    }
}

/// Builds the world for one protocol choice, applies the observability
/// options, and runs to completion. Single choke point for all nine
/// protocol arms so instrumentation cannot drift between them.
///
/// An active insider plan wraps every node in the adversary crate's
/// [`Insider`](alert_adversary::Insider), with the compromised set
/// chosen purely from `(cfg.insiders, nodes, seed)` — the identical
/// wrapping simcheck's driver applies, so a simcheck replay through
/// `simrun` reproduces the same run. The bench side extracts no packet
/// ids (scoring lives in simcheck); insider behavior never depends on
/// the extractor, so the runs agree event for event.
fn drive<P, F>(
    cfg: &ScenarioConfig,
    seed: u64,
    opts: RunOptions,
    factory: F,
) -> Result<RunOutput, RunFailure>
where
    P: ProtocolNode,
    F: FnMut(NodeId, &ScenarioConfig) -> P,
{
    if cfg.insiders.is_active() {
        let plan = cfg.insiders;
        let chosen = plan.choose(cfg.nodes, seed);
        let log = alert_adversary::tamper_log();
        let mut factory = factory;
        return drive_world(cfg, seed, opts, move |id: NodeId, c: &ScenarioConfig| {
            alert_adversary::Insider::new(
                factory(id, c),
                id.0 as u64,
                plan.mode,
                chosen[id.0],
                log.clone(),
                |_: &P::Msg| None::<u64>,
            )
        });
    }
    drive_world(cfg, seed, opts, factory)
}

/// The insider-agnostic inner body of [`drive`].
fn drive_world<P, F>(
    cfg: &ScenarioConfig,
    seed: u64,
    opts: RunOptions,
    factory: F,
) -> Result<RunOutput, RunFailure>
where
    P: ProtocolNode,
    F: FnMut(NodeId, &ScenarioConfig) -> P,
{
    let RunOptions {
        trace,
        profile,
        metrics_every,
        postmortem,
    } = opts;
    let mut w = World::try_new(cfg.clone(), seed, factory)?;
    // With a post-mortem request the ring sink is installed even when no
    // user sink was given — the dump must work for otherwise-untraced
    // runs. A user sink tees with the ring so neither knows the other.
    let mut ring: Option<RingBufferHandle> = None;
    match (trace, postmortem.as_ref()) {
        (Some(sink), None) => {
            w.set_trace_sink(sink);
        }
        (Some(sink), Some(pm)) => {
            let rb = RingBufferSink::new(pm.capacity);
            ring = Some(rb.handle());
            w.set_trace_sink(Box::new(TeeSink::new(sink, Box::new(rb))));
        }
        (None, Some(pm)) => {
            let rb = RingBufferSink::new(pm.capacity);
            ring = Some(rb.handle());
            w.set_trace_sink(Box::new(rb));
        }
        (None, None) => {}
    }
    if profile {
        w.enable_profiling();
    }
    if let Some(every) = metrics_every {
        w.enable_metrics_timeseries(every);
    }
    let ran = if let Some(pm) = &postmortem {
        // Catch a panic only long enough to flush the ring tail, then
        // let it keep unwinding: the caller's panic policy is unchanged.
        match catch_unwind(AssertUnwindSafe(|| w.try_run())) {
            Ok(r) => r,
            Err(payload) => {
                dump_postmortem(pm, ring.as_ref());
                std::panic::resume_unwind(payload);
            }
        }
    } else {
        w.try_run()
    };
    // Detach (and thereby flush) the sink before reading results out —
    // an aborted run's trace still ends with its `run_aborted` record.
    drop(w.take_trace_sink());
    if ran.is_err() {
        if let Some(pm) = postmortem.as_ref() {
            dump_postmortem(pm, ring.as_ref());
        }
    }
    ran?;
    let profile = w.run_profile();
    Ok(RunOutput {
        metrics: w.metrics().clone(),
        profile,
        registry: w.registry_snapshot(),
        timeseries: w.take_metrics_timeseries(),
    })
}

/// Runs one simulation to completion with the given observability
/// options. Errors on an invalid scenario or a guardrail abort instead
/// of panicking.
pub fn run_instrumented(
    protocol: ProtocolChoice,
    cfg: &ScenarioConfig,
    seed: u64,
    opts: RunOptions,
) -> Result<RunOutput, RunFailure> {
    match protocol {
        ProtocolChoice::Alert(a) => drive(cfg, seed, opts, move |_, _| Alert::new(a)),
        ProtocolChoice::Gpsr => drive(cfg, seed, opts, |_, _| Gpsr::default()),
        ProtocolChoice::Alarm => drive(cfg, seed, opts, |_, _| Alarm::default()),
        ProtocolChoice::Ao2p => drive(cfg, seed, opts, |_, _| Ao2p::default()),
        ProtocolChoice::Zap { growth } => {
            drive(cfg, seed, opts, move |_, _| Zap::with_growth(growth))
        }
        ProtocolChoice::Anodr => drive(cfg, seed, opts, |_, _| Anodr::default()),
        ProtocolChoice::Prism => drive(cfg, seed, opts, |_, _| Prism::default()),
        ProtocolChoice::Mask => drive(cfg, seed, opts, |_, _| Mask::default()),
        ProtocolChoice::Mapcp => drive(cfg, seed, opts, |_, _| Mapcp::default()),
        ProtocolChoice::LeakyNodeId => {
            drive(cfg, seed, opts, |id, _| crate::planted::LeakyGeo::new(id))
        }
    }
}

/// Runs one plain (untraced, unprofiled) simulation, reporting scenario
/// problems and guardrail aborts as a typed error.
pub fn try_run_once(
    protocol: ProtocolChoice,
    cfg: &ScenarioConfig,
    seed: u64,
) -> Result<Metrics, RunFailure> {
    run_instrumented(protocol, cfg, seed, RunOptions::default()).map(|out| out.metrics)
}

/// One sweep run's identity and result — what panic isolation reduces a
/// run to. Carries enough context ([`RunOutcome::replay_command`]) to
/// reproduce the exact failing point outside the sweep.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Protocol display name.
    pub protocol: &'static str,
    /// Node count of the scenario.
    pub nodes: usize,
    /// S–D pair count of the scenario.
    pub pairs: usize,
    /// Simulated duration of the scenario, seconds.
    pub duration_s: f64,
    /// The run's seed.
    pub seed: u64,
    /// Metrics, or why there are none.
    pub result: Result<Metrics, RunFailure>,
}

impl RunOutcome {
    /// A one-line `simrun` command replaying this point (protocol,
    /// geometry, and seed; protocol-specific tuning like a custom
    /// `AlertConfig` or ZAP growth factor is not encodable as flags).
    pub fn replay_command(&self) -> String {
        format!(
            "simrun --protocol {} --nodes {} --pairs {} --duration {} --seed {}",
            self.protocol.to_lowercase(),
            self.nodes,
            self.pairs,
            self.duration_s,
            self.seed
        )
    }

    /// Converts a failed outcome into its ledger record.
    fn failure_record(&self, error: String) -> FailureRecord {
        FailureRecord {
            protocol: self.protocol.to_owned(),
            nodes: self.nodes,
            seed: self.seed,
            error,
            replay: self.replay_command(),
        }
    }
}

/// Runs one simulation with full panic isolation: validation errors,
/// guardrail aborts, and panics all come back as a structured
/// [`RunOutcome`] instead of unwinding into the sweep.
pub fn guarded_run_once(protocol: ProtocolChoice, cfg: &ScenarioConfig, seed: u64) -> RunOutcome {
    let result = match catch_unwind(AssertUnwindSafe(|| try_run_once(protocol, cfg, seed))) {
        Ok(r) => r,
        Err(payload) => Err(RunFailure::Panicked(panic_message(payload))),
    };
    RunOutcome {
        protocol: protocol.name(),
        nodes: cfg.nodes,
        pairs: cfg.traffic.pairs,
        duration_s: cfg.duration_s,
        seed,
        result,
    }
}

/// A sample mean with its 95% confidence half-width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    /// Sample mean.
    pub mean: f64,
    /// 95% confidence half-width (`t_{0.975, n-1} s / sqrt(n)`).
    pub ci95: f64,
    /// Number of (finite) samples the statistics were computed from.
    pub n: usize,
    /// Non-finite samples dropped before the reduction.
    pub discarded: usize,
}

/// Two-sided 95% Student-t critical values for 1..=30 degrees of
/// freedom. Sweeps run 3–30 seeds, squarely in the regime where the
/// normal z = 1.96 understates the half-width (t_1 = 12.7, t_4 = 2.78).
const T95: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// Two-sided 95% Student-t critical value for `df` degrees of freedom:
/// table lookup through df = 30, then the first-order Cornish–Fisher
/// expansion `z + (z^3 + z) / (4 df)`, which decays to the normal limit
/// z = 1.96 as `df -> inf`.
fn t_critical_95(df: usize) -> f64 {
    const Z: f64 = 1.959_964;
    match df {
        0 => f64::NAN,
        1..=30 => T95[df - 1],
        _ => Z + (Z * Z * Z + Z) / (4.0 * df as f64),
    }
}

impl Stat {
    /// Reduces raw samples to mean ± CI. Non-finite samples are
    /// discarded (and counted in [`Stat::discarded`] plus the global
    /// [`nan_samples_total`] tally); the half-width uses the Student-t
    /// critical value for the surviving sample count, not the normal
    /// z = 1.96 (its n → ∞ limit), so small sweeps aren't reported with
    /// overconfident intervals.
    pub fn from_samples(samples: &[f64]) -> Stat {
        let clean: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
        let n = clean.len();
        let discarded = samples.len() - n;
        if discarded > 0 {
            SWEEP_NAN_SAMPLES.fetch_add(discarded as u64, Ordering::Relaxed);
        }
        if n == 0 {
            return Stat {
                mean: f64::NAN,
                ci95: f64::NAN,
                n: 0,
                discarded,
            };
        }
        let mean = clean.iter().sum::<f64>() / n as f64;
        if n < 2 {
            return Stat {
                mean,
                ci95: 0.0,
                n,
                discarded,
            };
        }
        let var = clean.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0);
        Stat {
            mean,
            ci95: t_critical_95(n - 1) * (var / n as f64).sqrt(),
            n,
            discarded,
        }
    }
}

impl std::fmt::Display for Stat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(prec) = f.precision() {
            write!(f, "{:.p$} ±{:.p$}", self.mean, self.ci95, p = prec)?;
        } else {
            write!(f, "{:.3} ±{:.3}", self.mean, self.ci95)?;
        }
        if self.discarded > 0 {
            write!(f, " [{} NaN dropped]", self.discarded)?;
        }
        Ok(())
    }
}

/// Reduces one guarded outcome to an `extract` sample: failed runs and
/// panicking extractors are quarantined into the failure ledger and
/// contribute a NaN, which [`Stat::from_samples`] counts as discarded —
/// so a poisoned point shrinks `n` visibly instead of sinking the sweep.
fn guarded_sample<F>(outcome: RunOutcome, extract: &F) -> f64
where
    F: Fn(&Metrics) -> f64 + Sync,
{
    match &outcome.result {
        Ok(metrics) => match catch_unwind(AssertUnwindSafe(|| extract(metrics))) {
            Ok(v) => v,
            Err(payload) => {
                let msg = format!(
                    "panicked: {} (in metric extraction)",
                    panic_message(payload)
                );
                quarantine(outcome.failure_record(msg));
                f64::NAN
            }
        },
        Err(failure) => {
            quarantine(outcome.failure_record(failure.to_string()));
            f64::NAN
        }
    }
}

/// Runs `runs` seeded simulations in parallel and reduces `extract` over
/// their metrics. Each run is panic-isolated ([`guarded_run_once`]):
/// failures surface as quarantined NaN samples, not a sweep-wide panic.
pub fn sweep_point<F>(
    protocol: ProtocolChoice,
    cfg: &ScenarioConfig,
    runs: usize,
    extract: F,
) -> Stat
where
    F: Fn(&Metrics) -> f64 + Sync,
{
    let start = std::time::Instant::now();
    let samples = par_runs(runs, |seed| {
        guarded_sample(
            guarded_run_once(protocol, cfg, 0xA1E7 + seed * 7919),
            &extract,
        )
    });
    let stat = Stat::from_samples(&samples);
    if progress_enabled() {
        let dropped = if stat.discarded > 0 {
            format!(" nan_dropped={}", stat.discarded)
        } else {
            String::new()
        };
        eprintln!(
            "[progress] {} n={} runs={} wall={:.2}s value={:.4} ±{:.4}{}",
            protocol.name(),
            cfg.nodes,
            runs,
            start.elapsed().as_secs_f64(),
            stat.mean,
            stat.ci95,
            dropped,
        );
    }
    stat
}

/// Runs `runs` seeded simulations in parallel and returns the full
/// metrics of each successful run (for curve-valued reductions). Failed
/// runs are quarantined into the failure ledger and skipped, so the
/// returned vector may be shorter than `runs`.
pub fn sweep_metrics(protocol: ProtocolChoice, cfg: &ScenarioConfig, runs: usize) -> Vec<Metrics> {
    let start = std::time::Instant::now();
    let metrics: Vec<Metrics> = par_runs(runs, |seed| {
        let outcome = guarded_run_once(protocol, cfg, 0xA1E7 + seed * 7919);
        match outcome.result {
            Ok(m) => Some(m),
            Err(ref failure) => {
                let msg = failure.to_string();
                quarantine(outcome.failure_record(msg));
                None
            }
        }
    })
    .into_iter()
    .flatten()
    .collect();
    if progress_enabled() {
        eprintln!(
            "[progress] {} n={} runs={} wall={:.2}s (full metrics)",
            protocol.name(),
            cfg.nodes,
            runs,
            start.elapsed().as_secs_f64(),
        );
    }
    metrics
}

/// Element-wise mean of several equally-meaningful curves, truncated to
/// the shortest. Curves of unequal length are a symptom (e.g. a run
/// that ended early), so the dropped tail is reported on stderr rather
/// than silently discarded.
pub fn mean_curve(curves: &[Vec<f64>]) -> Vec<f64> {
    let n = curves.iter().map(Vec::len).min().unwrap_or(0);
    let longest = curves.iter().map(Vec::len).max().unwrap_or(0);
    if longest > n {
        eprintln!(
            "[mean_curve] curves disagree on length: truncating to {n} points, \
             dropping a {}-point tail",
            longest - n
        );
    }
    (0..n)
        .map(|i| curves.iter().map(|c| c[i]).sum::<f64>() / curves.len() as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_of_constant_samples() {
        let s = Stat::from_samples(&[2.0, 2.0, 2.0, 2.0]);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.ci95, 0.0);
        assert_eq!(s.n, 4);
    }

    #[test]
    fn stat_discards_nan() {
        let before = nan_samples_total();
        let s = Stat::from_samples(&[1.0, f64::NAN, 3.0]);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.n, 2);
        assert_eq!(s.discarded, 1);
        assert!(nan_samples_total() > before);
        assert!(format!("{s}").contains("[1 NaN dropped]"));
    }

    #[test]
    fn stat_uses_student_t_not_z() {
        // n = 2 (df = 1): t = 12.706, half-width = t * s / sqrt(2).
        let s = Stat::from_samples(&[0.0, 2.0]);
        let sd = std::f64::consts::SQRT_2; // sample sd of {0, 2}
        assert!((s.ci95 - 12.706 * sd / std::f64::consts::SQRT_2).abs() < 1e-9);
    }

    #[test]
    fn t_critical_decays_to_the_normal_limit() {
        assert!((t_critical_95(1) - 12.706).abs() < 1e-9);
        assert!((t_critical_95(30) - 2.042).abs() < 1e-9);
        // Above the table: monotone decay towards z = 1.96.
        assert!(t_critical_95(31) < t_critical_95(30));
        assert!(t_critical_95(1000) > 1.9599);
        assert!((t_critical_95(100_000_000) - 1.96).abs() < 1e-4);
    }

    #[test]
    fn stat_ci_shrinks_with_n() {
        let few = Stat::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        let many: Vec<f64> = (0..64).map(|i| 1.0 + (i % 4) as f64).collect();
        let many = Stat::from_samples(&many);
        assert!(many.ci95 < few.ci95);
    }

    #[test]
    fn stat_empty_is_nan() {
        let s = Stat::from_samples(&[]);
        assert!(s.mean.is_nan());
        assert_eq!(s.n, 0);
    }

    #[test]
    fn mean_curve_truncates() {
        let curves = vec![vec![1.0, 2.0, 3.0], vec![3.0, 4.0]];
        assert_eq!(mean_curve(&curves), vec![2.0, 3.0]);
    }

    #[test]
    fn try_run_once_reports_invalid_scenario() {
        let cfg = ScenarioConfig::default().with_nodes(0);
        let err = try_run_once(ProtocolChoice::Gpsr, &cfg, 1).unwrap_err();
        assert_eq!(err, RunFailure::Scenario(ScenarioError::NoNodes));
        assert_eq!(
            err.to_string(),
            "invalid scenario: scenario needs at least one node"
        );
    }

    /// An event budget that trips mid-run: half of what the same GPSR run
    /// dispatches unbudgeted, so it follows the scenario instead of going
    /// stale when the event count changes.
    fn half_of_unbudgeted_events(cfg: &ScenarioConfig, seed: u64) -> u64 {
        let out = run_instrumented(ProtocolChoice::Gpsr, cfg, seed, RunOptions::default())
            .expect("unbudgeted run completes");
        let events = out.profile.events_dispatched;
        assert!(
            events >= 2,
            "run too short to abort mid-way: {events} events"
        );
        events / 2
    }

    #[test]
    fn try_run_once_reports_guardrail_aborts() {
        let mut cfg = ScenarioConfig::default().with_nodes(30).with_duration(5.0);
        cfg.traffic.pairs = 2;
        let budget = half_of_unbudgeted_events(&cfg, 1);
        cfg.budget.max_events = Some(budget);
        let err = try_run_once(ProtocolChoice::Gpsr, &cfg, 1).unwrap_err();
        assert!(
            matches!(
                err,
                RunFailure::Aborted(RunAbort::EventBudgetExhausted { budget: b, .. }) if b == budget
            ),
            "{err:?}"
        );
    }

    #[test]
    fn guarded_run_once_isolates_failures_as_outcomes() {
        // An invalid scenario comes back as a structured outcome, and the
        // replay command pins protocol, geometry, and seed.
        let mut cfg = ScenarioConfig::default()
            .with_nodes(120)
            .with_duration(25.0);
        cfg.traffic.pairs = 4;
        let outcome = guarded_run_once(ProtocolChoice::Alarm, &cfg.clone().with_nodes(0), 7);
        assert!(matches!(
            outcome.result,
            Err(RunFailure::Scenario(ScenarioError::NoNodes))
        ));
        assert_eq!(
            outcome.replay_command(),
            "simrun --protocol alarm --nodes 0 --pairs 4 --duration 25 --seed 7"
        );
        // A healthy run produces metrics.
        let ok = guarded_run_once(ProtocolChoice::Gpsr, &cfg.clone().with_duration(5.0), 7);
        assert!(ok.result.is_ok(), "{:?}", ok.result);
    }

    /// The failure ledger is process-global; tests that drain it must
    /// not interleave or they steal each other's records.
    static LEDGER_TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn sweeps_quarantine_failures_instead_of_panicking() {
        let _guard = LEDGER_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        drop(drain_failures());
        let mut cfg = ScenarioConfig::default().with_nodes(30).with_duration(5.0);
        cfg.traffic.pairs = 2;
        cfg.budget.max_events = Some(10); // every seed aborts
        let before = failures_total();
        let stat = sweep_point(ProtocolChoice::Gpsr, &cfg, 3, Metrics::delivery_rate);
        assert_eq!(stat.n, 0, "all samples quarantined");
        assert_eq!(stat.discarded, 3);
        assert!(failures_total() >= before + 3);
        let drained = drain_failures();
        let ours: Vec<_> = drained
            .iter()
            .filter(|r| r.error.contains("event budget of 10"))
            .collect();
        assert_eq!(ours.len(), 3);
        assert!(ours[0].replay.starts_with("simrun --protocol gpsr"));
        // The ledger is drained.
        assert!(!drain_failures()
            .iter()
            .any(|r| r.error.contains("event budget of 10")));
    }

    #[test]
    fn sweep_point_quarantines_panicking_extractors() {
        let _guard = LEDGER_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        drop(drain_failures());
        let mut cfg = ScenarioConfig::default().with_nodes(30).with_duration(5.0);
        cfg.traffic.pairs = 2;
        let stat = sweep_point(ProtocolChoice::Gpsr, &cfg, 2, |m| {
            if m.delivery_rate() >= 0.0 {
                panic!("planted extractor bug");
            }
            0.0
        });
        assert_eq!(stat.n, 0);
        assert_eq!(stat.discarded, 2);
        let drained = drain_failures();
        assert!(drained
            .iter()
            .any(|r| r.error.contains("planted extractor bug")));
    }

    #[test]
    fn failure_scopes_partition_the_ledger() {
        let _guard = LEDGER_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let rec = |tag: &str| FailureRecord {
            protocol: tag.to_owned(),
            nodes: 1,
            seed: 0,
            error: "planted".to_owned(),
            replay: String::new(),
        };
        // Two scopes quarantine interleaved; each drain sees only its own.
        set_failure_scope(101);
        drop(drain_failures());
        quarantine(rec("scope-a"));
        set_failure_scope(102);
        drop(drain_failures());
        quarantine(rec("scope-b"));
        quarantine(rec("scope-b2"));

        let b = drain_failures(); // current scope: 102
        assert_eq!(b.len(), 2);
        assert!(b.iter().all(|r| r.protocol.starts_with("scope-b")));
        let a = drain_failures_scoped(101); // cross-thread committer path
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].protocol, "scope-a");
        // Both partitions are now empty; scope 0 is untouched.
        assert!(drain_failures_scoped(101).is_empty());
        assert!(drain_failures_scoped(102).is_empty());
        set_failure_scope(0);
    }

    #[test]
    fn par_runs_orders_inherits_scope_and_propagates_panics() {
        let _guard = LEDGER_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Index order, with deliberately uneven runs.
        let expect: Vec<u64> = (0..23).map(|i| i * i).collect();
        let got = par_runs(23, |i| {
            if i % 5 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
            i * i
        });
        assert_eq!(got, expect);

        // Lanes quarantine into the caller's scope. With more than one
        // core every run is on a spawned lane, not the calling thread.
        drop(drain_failures_scoped(201));
        set_failure_scope(201);
        let ids = par_runs(8, |seed| {
            quarantine(FailureRecord {
                protocol: "lane".to_owned(),
                nodes: 1,
                seed,
                error: "planted".to_owned(),
                replay: String::new(),
            });
            std::thread::current().id()
        });
        set_failure_scope(0);
        let me = std::thread::current().id();
        if std::thread::available_parallelism().map_or(1, |n| n.get()) > 1 {
            assert!(ids.iter().all(|&id| id != me));
        }
        assert_eq!(drain_failures_scoped(201).len(), 8);
        assert!(drain_failures_scoped(0)
            .iter()
            .all(|r| r.protocol != "lane"));

        // A panic in a run propagates out with its payload.
        let caught = catch_unwind(AssertUnwindSafe(|| {
            par_runs(4, |i| {
                if i == 1 {
                    panic!("planted lane panic");
                }
            })
        }));
        let payload = caught.expect_err("the lane panic must propagate");
        assert_eq!(panic_message(payload), "planted lane panic");
    }

    #[test]
    fn commits_in_canonical_order_across_workers() {
        let mut seen = Vec::new();
        let committed = run_ordered(
            24,
            4,
            None,
            |_, i| {
                // Reverse-staggered sleeps so completion order is wildly
                // different from canonical order.
                std::thread::sleep(std::time::Duration::from_millis(((24 - i) % 7) as u64));
                i * 10
            },
            |i, outcome| {
                assert_eq!(outcome.ok(), Some(i * 10));
                seen.push(i);
            },
        );
        assert_eq!(committed, 24);
        assert_eq!(seen, (0..24).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_unit_is_committed_failed_with_its_message() {
        let mut outcomes = Vec::new();
        run_ordered(
            2,
            2,
            None,
            |_, i| {
                if i == 0 {
                    panic!("planted executor panic");
                }
                i
            },
            |i, outcome| outcomes.push((i, outcome.map_err(panic_message))),
        );
        assert_eq!(
            outcomes,
            vec![(0, Err("planted executor panic".to_owned())), (1, Ok(1))]
        );
    }

    #[test]
    fn deadline_cancels_without_committing_garbage() {
        let deadline = Instant::now() + std::time::Duration::from_millis(40);
        let mut committed = Vec::new();
        let k = run_ordered(
            64,
            2,
            Some(deadline),
            |_, i| {
                std::thread::sleep(std::time::Duration::from_millis(5));
                i
            },
            |i, outcome| {
                assert_eq!(outcome.ok(), Some(i));
                committed.push(i);
            },
        );
        assert!(k < 64, "the deadline stopped the run");
        // The committed set is a contiguous canonical prefix.
        assert_eq!(committed, (0..k).collect::<Vec<_>>());
    }

    #[test]
    fn empty_unit_list_is_a_no_op() {
        for jobs in [1, 4] {
            let k = run_ordered(0, jobs, None, |_, _| (), |_, _| panic!("nothing to commit"));
            assert_eq!(k, 0);
        }
    }

    #[test]
    fn each_unit_runs_exactly_once_even_when_it_fails() {
        use std::sync::atomic::AtomicU32;
        for jobs in [1, 3] {
            let calls: Vec<AtomicU32> = (0..12).map(|_| AtomicU32::new(0)).collect();
            let mut kinds = Vec::new();
            run_ordered(
                12,
                jobs,
                None,
                |_, i| {
                    calls[i].fetch_add(1, Ordering::Relaxed);
                    match i % 3 {
                        0 => Ok(i),
                        1 => Err(format!("planted failure {i}")),
                        _ => panic!("planted panic {i}"),
                    }
                },
                |i, outcome| {
                    kinds.push(match outcome {
                        Ok(Ok(_)) => 0,
                        Ok(Err(e)) => {
                            assert_eq!(e, format!("planted failure {i}"));
                            1
                        }
                        Err(payload) => {
                            assert_eq!(panic_message(payload), format!("planted panic {i}"));
                            2
                        }
                    })
                },
            );
            assert_eq!(kinds, (0..12).map(|i| i % 3).collect::<Vec<_>>());
            for (i, c) in calls.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "unit {i} at {jobs} jobs");
            }
        }
    }

    #[test]
    fn run_instrumented_profiles_and_traces() {
        use alert_sim::{JsonlSink, SharedBuf};
        let mut cfg = ScenarioConfig::default().with_nodes(40).with_duration(5.0);
        cfg.traffic.pairs = 2;
        let buf = SharedBuf::default();
        let opts = RunOptions {
            trace: Some(Box::new(JsonlSink::new(buf.clone()))),
            profile: true,
            ..RunOptions::default()
        };
        let out = run_instrumented(ProtocolChoice::Gpsr, &cfg, 9, opts).unwrap();
        assert!(out.profile.events_dispatched > 0);
        assert!(out.profile.wall_clock_s > 0.0);
        assert!(out.profile.fel_high_water > 0);
        assert!(out.timeseries.is_none(), "sampling is opt-in");
        assert!(!out.profile.spans.is_empty(), "span attribution collected");
        assert!(!buf.contents().is_empty(), "trace sink received events");
        // The untraced path returns the same metrics for the same seed.
        let plain = try_run_once(ProtocolChoice::Gpsr, &cfg, 9).unwrap();
        assert_eq!(out.metrics.delivery_rate(), plain.delivery_rate());
    }

    #[test]
    fn run_instrumented_collects_timeseries() {
        let mut cfg = ScenarioConfig::default().with_nodes(40).with_duration(10.0);
        cfg.traffic.pairs = 2;
        let opts = RunOptions {
            metrics_every: Some(2.0),
            ..RunOptions::default()
        };
        let out = run_instrumented(ProtocolChoice::Gpsr, &cfg, 11, opts).unwrap();
        let series = out.timeseries.expect("sampling was requested");
        assert_eq!(series.every_s, 2.0);
        assert!(series.samples.len() >= 5, "10 s run at 2 s cadence");
        // The final cumulative row equals the whole-run registry totals.
        let last = series.samples.last().unwrap();
        for (name, value) in &out.registry.counters {
            assert_eq!(last.counters.get(name), Some(value), "counter {name}");
        }
        // Sampling does not perturb the simulation itself.
        let plain = try_run_once(ProtocolChoice::Gpsr, &cfg, 11).unwrap();
        assert_eq!(out.metrics.delivery_rate(), plain.delivery_rate());
    }

    #[test]
    fn postmortem_dump_written_on_abort() {
        let path = std::env::temp_dir().join(format!(
            "alert_postmortem_test_{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let mut cfg = ScenarioConfig::default().with_nodes(30).with_duration(5.0);
        cfg.traffic.pairs = 2;
        cfg.budget.max_events = Some(half_of_unbudgeted_events(&cfg, 5));
        let opts = RunOptions {
            postmortem: Some(PostmortemDump {
                path: path.clone(),
                capacity: 64,
            }),
            ..RunOptions::default()
        };
        let err = run_instrumented(ProtocolChoice::Gpsr, &cfg, 5, opts).unwrap_err();
        assert!(matches!(err, RunFailure::Aborted(_)), "got {err}");
        let dump = std::fs::read_to_string(&path).expect("postmortem file written");
        let lines: Vec<&str> = dump.lines().collect();
        assert!(!lines.is_empty() && lines.len() <= 64);
        assert!(
            lines.last().unwrap().contains("\"ev\":\"run_aborted\""),
            "ring tail ends with the abort record: {}",
            lines.last().unwrap()
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn postmortem_untriggered_on_clean_run() {
        let path = std::env::temp_dir().join(format!(
            "alert_postmortem_clean_{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let mut cfg = ScenarioConfig::default().with_nodes(30).with_duration(5.0);
        cfg.traffic.pairs = 2;
        let opts = RunOptions {
            postmortem: Some(PostmortemDump::new(path.clone())),
            ..RunOptions::default()
        };
        run_instrumented(ProtocolChoice::Gpsr, &cfg, 5, opts).unwrap();
        assert!(!path.exists(), "clean runs leave no postmortem dump");
    }

    #[test]
    fn sweep_point_is_deterministic() {
        let mut cfg = ScenarioConfig::default().with_nodes(60).with_duration(10.0);
        cfg.traffic.pairs = 3;
        let a = sweep_point(ProtocolChoice::Gpsr, &cfg, 3, Metrics::delivery_rate);
        let b = sweep_point(ProtocolChoice::Gpsr, &cfg, 3, Metrics::delivery_rate);
        assert_eq!(a.mean, b.mean);
        assert_eq!(a.n, 3);
    }
}
