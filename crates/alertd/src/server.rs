//! The daemon itself: recovery-as-startup, admission control, a fixed
//! set of job workers, and thread-per-connection protocol serving.
//!
//! [`serve`] owns the whole lifecycle:
//!
//! 1. **Recover.** Acquire the directory lock (a second live daemon
//!    exits with a `busy` diagnostic), replay the job journal, sweep
//!    dead staging entries, adopt results that were promoted but never
//!    journaled, and re-queue everything still pending — including
//!    leases orphaned by a `kill -9`.
//! 2. **Listen.** Bind TCP (default, ephemeral port) or a Unix socket,
//!    and advertise the endpoint in `<dir>/alertd.endpoint` so
//!    `alertctl` needs only `--dir`.
//! 3. **Execute.** `jobs` worker threads each pop one admitted job at a
//!    time, journal its lease, run it once with its panics caught, and
//!    commit the outcome by atomic store promotion plus a journal
//!    record, in that order. Jobs finish in whatever order they run; a
//!    short job never waits for a long one. A failing job is not
//!    retried: it is a pure function of its spec, so it would fail the
//!    same way again. A panic outside a job is a daemon bug and aborts
//!    the process, which restarts through step 1.
//! 4. **Drain.** `alertctl drain` stops admission, waits for every job
//!    to reach a terminal state, flushes the health timeseries, removes
//!    the endpoint, and [`serve`] returns cleanly.
//!
//! There is deliberately no other shutdown path: anything short of a
//! drain is a crash, and crashes are handled by step 1.

use crate::journal::{JobJournal, JobRecord, JobState, ReplayedJob};
use crate::protocol::{ErrorKind, QueryRequest, Request, Response};
use crate::spec::{run_job, JobSpec};
use crate::store::ResultStore;
use alert_bench::{panic_message, write_atomic, DirLock, LockError};
use alert_sim::{
    filter_events, follow_packet, parse_trace, render_events_csv, render_events_jsonl,
    render_windows_csv, render_windows_json, window_aggregates, EventFilter, MetricsTimeseries,
    RegistrySnapshot, RunBudget,
};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::io::{self, BufRead, BufReader, Read as _, Write as _};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BindAddr {
    /// `host:port`; port `0` picks an ephemeral port.
    Tcp(String),
    /// Filesystem socket path (Unix only).
    Unix(PathBuf),
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The daemon directory: journal, results, lock, endpoint file.
    pub dir: PathBuf,
    /// Listen address.
    pub bind: BindAddr,
    /// Worker threads, each running one job at a time.
    pub jobs: usize,
    /// Admission bound: maximum non-terminal jobs before `busy`.
    pub queue_cap: usize,
    /// Per-connection read timeout; an idle client is disconnected.
    pub idle_timeout: Duration,
    /// Budget cap applied to every job (tightened per-field against the
    /// job's own budget) so one submission cannot wedge a worker.
    pub cap: RunBudget,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            dir: PathBuf::from("alertd-state"),
            bind: BindAddr::Tcp("127.0.0.1:0".to_owned()),
            jobs: 2,
            queue_cap: 64,
            idle_timeout: Duration::from_secs(30),
            cap: RunBudget::default(),
        }
    }
}

/// Why [`serve`] refused to start or died.
#[derive(Debug)]
pub enum ServeError {
    /// Another live daemon holds the directory.
    Busy {
        /// Its PID, when the lock file was readable.
        pid: Option<u32>,
    },
    /// Filesystem or socket error.
    Io(io::Error),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Busy { pid: Some(pid) } => {
                write!(f, "directory is owned by a live alertd (pid {pid})")
            }
            ServeError::Busy { pid: None } => write!(f, "directory is owned by a live alertd"),
            ServeError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

/// What a completed (drained) daemon run amounted to.
#[derive(Debug, Clone, Default)]
pub struct ServerStats {
    /// Jobs that reached `done` during this process lifetime.
    pub completed: usize,
    /// Jobs that reached `failed`.
    pub failed: usize,
    /// Protocol requests served.
    pub requests: u64,
}

/// Jobs committed by the workers, by outcome.
#[derive(Debug, Clone, Copy, Default)]
struct PoolCounters {
    completed: u64,
    failed: u64,
}

struct JobEntry {
    spec: JobSpec,
    state: JobState,
}

struct Inner {
    jobs: BTreeMap<u64, JobEntry>,
    pending: VecDeque<u64>,
    journal: JobJournal,
    draining: bool,
    shutdown: bool,
    requests: u64,
    pool: PoolCounters,
    series: MetricsTimeseries,
}

struct Shared {
    inner: Mutex<Inner>,
    cond: Condvar,
    store: ResultStore,
    config: ServerConfig,
    started: Instant,
    /// The listener's own address, for the drain's wake-up connect.
    endpoint: Endpoint,
    /// Live connection handlers, bounded by [`MAX_CONNECTIONS`].
    connections: AtomicUsize,
}

impl Shared {
    fn outstanding(inner: &Inner) -> usize {
        inner
            .jobs
            .values()
            .filter(|j| !j.state.is_terminal())
            .count()
    }
}

/// Runs the daemon until it is drained. Blocking; returns the run's
/// stats on a clean drain, [`ServeError::Busy`] when another live
/// daemon owns the directory.
pub fn serve(config: ServerConfig) -> Result<ServerStats, ServeError> {
    std::fs::create_dir_all(&config.dir)?;
    let _lock = match DirLock::acquire(&config.dir) {
        Ok(lock) => lock,
        Err(LockError::Busy { pid }) => return Err(ServeError::Busy { pid }),
        Err(LockError::Io(e)) => return Err(ServeError::Io(e)),
    };

    // --- Recovery: replay, sweep, adopt, re-queue. -------------------
    // A crashed daemon leaves its endpoint advertisement behind; it is
    // stale by definition once we hold the lock.
    let _ = std::fs::remove_file(config.dir.join("alertd.endpoint"));
    let (journal, replayed) = JobJournal::open(&config.dir)?;
    let store = ResultStore::open(&config.dir)?;
    let swept = store.sweep_stage()?;
    if swept > 0 {
        println!(
            "[alertd] swept {swept} dead staging entr{}",
            plural_y(swept)
        );
    }
    let mut inner = Inner {
        jobs: BTreeMap::new(),
        pending: VecDeque::new(),
        journal,
        draining: false,
        shutdown: false,
        requests: 0,
        pool: PoolCounters::default(),
        series: MetricsTimeseries::new(1.0),
    };
    let mut orphans = 0usize;
    let mut adopted = 0usize;
    for (fp, job) in replayed {
        let state = recover_job(fp, &job, &store, &mut inner, &mut orphans, &mut adopted)?;
        inner.jobs.insert(
            fp,
            JobEntry {
                spec: job.spec,
                state,
            },
        );
    }
    if orphans > 0 {
        println!("[alertd] re-queued {orphans} lease(s) orphaned by a dead process");
    }
    if adopted > 0 {
        println!("[alertd] adopted {adopted} promoted-but-unjournaled result(s)");
    }

    // --- Listen and advertise the endpoint. --------------------------
    let listener = Listener::bind(&config.bind)?;
    let endpoint = listener.endpoint()?;
    let endpoint_file = config.dir.join("alertd.endpoint");
    write_atomic(&endpoint_file, &format!("{endpoint}\n"))?;
    println!("[alertd] listening: {endpoint}");

    let shared = Arc::new(Shared {
        inner: Mutex::new(inner),
        cond: Condvar::new(),
        store,
        config: config.clone(),
        started: Instant::now(),
        endpoint,
        connections: AtomicUsize::new(0),
    });

    // --- Workers. ----------------------------------------------------
    let mut workers = Vec::new();
    for worker in 0..config.jobs.max(1) {
        let own = Arc::clone(&shared);
        match thread::Builder::new()
            .name(format!("alertd-worker-{worker}"))
            .spawn(move || work_or_abort(&own, worker))
        {
            Ok(handle) => workers.push(handle),
            Err(e) => {
                // Stop the workers already running before giving up.
                shared.inner.lock().expect(POISONED).shutdown = true;
                shared.cond.notify_all();
                for handle in workers {
                    handle.join().expect(WORKERS_ABORT);
                }
                let _ = std::fs::remove_file(&endpoint_file);
                return Err(e.into());
            }
        }
    }

    // --- Accept loop. ------------------------------------------------
    // `accept` blocks until a client connects. A drain sets `shutdown`
    // once its reply is out, then connects here to wake the loop; the
    // shutdown check precedes the cap so that wake is never refused.
    // The cap also bounds the descriptors handlers hold, so the error
    // arm cannot spin on descriptor exhaustion the daemon caused.
    loop {
        let accepted = listener.accept();
        if shared.inner.lock().unwrap().shutdown {
            break;
        }
        let stream = match accepted {
            Ok(stream) => stream,
            Err(e) => {
                println!("[alertd] accept error: {e}");
                continue;
            }
        };
        if shared.connections.load(Ordering::SeqCst) >= MAX_CONNECTIONS {
            refuse_connection(stream);
            continue;
        }
        let slot = ConnectionSlot::claim(&shared);
        thread::spawn(move || handle_connection(stream, &slot.0));
    }
    for handle in workers {
        handle.join().expect(WORKERS_ABORT);
    }

    // --- Flush and retire. -------------------------------------------
    let inner = shared.inner.lock().unwrap();
    if !inner.series.samples.is_empty() {
        let _ = write_atomic(
            &config.dir.join("daemon-timeseries.jsonl"),
            &inner.series.to_jsonl(),
        );
    }
    let _ = std::fs::remove_file(&endpoint_file);
    let stats = ServerStats {
        completed: inner.pool.completed as usize,
        failed: inner.pool.failed as usize,
        requests: inner.requests,
    };
    println!(
        "[alertd] drained: {} completed, {} failed, {} request(s)",
        stats.completed, stats.failed, stats.requests
    );
    Ok(stats)
}

/// Folds one replayed job into its startup state, counting orphans and
/// adoptions.
fn recover_job(
    fp: u64,
    job: &ReplayedJob,
    store: &ResultStore,
    inner: &mut Inner,
    orphans: &mut usize,
    adopted: &mut usize,
) -> io::Result<JobState> {
    match &job.state {
        JobState::Pending => {
            if job.orphaned {
                *orphans += 1;
            }
            // Promotion happened but the `done` record (or CURRENT)
            // never landed: adopt instead of re-running. A force re-run
            // must actually run, so it is never adopted.
            if !job.force {
                if let Some(version) = store.adopt(fp)? {
                    inner.journal.append(&JobRecord::Done { fp, version })?;
                    *adopted += 1;
                    return Ok(JobState::Done { version });
                }
            }
            inner.pending.push_back(fp);
            Ok(JobState::Pending)
        }
        JobState::Done { version } => {
            // CURRENT may have been lost between rename and cutover.
            if store.current_version(fp).is_none() {
                store.adopt(fp)?;
            }
            Ok(JobState::Done { version: *version })
        }
        other => Ok(other.clone()),
    }
}

/// Why a lock or wait on the state mutex can fail: a thread panicked
/// while holding it, which is a bug in the daemon.
const POISONED: &str = "a panic poisoned the daemon state lock";

/// Why joining a worker cannot fail: [`work_or_abort`] never unwinds.
const WORKERS_ABORT: &str = "a worker aborts the process instead of unwinding";

/// Runs [`work`], aborting the process if it panics. Every job runs
/// under its own `catch_unwind`, so a panic that reaches here is a bug
/// in the daemon, likely with the state lock poisoned; dying the way
/// `kill -9` kills the daemon lets journal replay recover it.
fn work_or_abort(shared: &Shared, worker: usize) {
    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| work(shared, worker))) {
        eprintln!(
            "[alertd] worker {worker} panicked outside a job ({}); aborting",
            panic_message(payload)
        );
        std::process::abort();
    }
}

/// One worker: pops a pending job, runs it outside the lock, commits
/// its outcome. Returns once the daemon drains with nothing pending.
fn work(shared: &Shared, worker: usize) {
    let cap = shared.config.cap;
    loop {
        let (fp, spec) = {
            let mut inner = shared.inner.lock().expect(POISONED);
            let fp = loop {
                if inner.shutdown {
                    return;
                }
                if let Some(fp) = inner.pending.pop_front() {
                    break fp;
                }
                if inner.draining {
                    return;
                }
                inner = shared.cond.wait(inner).expect(POISONED);
            };
            // Journal the lease before the job runs: a crash now
            // replays as an orphaned lease, which is what it is.
            let _ = inner.journal.append(&JobRecord::Lease {
                fp,
                worker,
                attempt: 1,
            });
            let job = inner.jobs.get_mut(&fp).expect("a pending job has an entry");
            job.state = JobState::Running;
            (fp, job.spec.clone())
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| run_job(&spec, &cap)))
            .unwrap_or_else(|p| Err(format!("panicked: {}", panic_message(p))));
        // Promotion needs no lock: a fingerprint is never pending or
        // running twice (submit answers `cached`, and rollback refuses
        // a job that is not done), so no one else writes its results.
        let promoted = outcome.and_then(|artifacts| {
            shared
                .store
                .promote(fp, &artifacts)
                .map_err(|e| format!("result promotion failed: {e}"))
        });
        commit_outcome(shared, fp, promoted);
    }
}

/// Commits one job's promoted outcome: the journal record, then the
/// in-memory state. Journal errors are best-effort here (DESIGN § 14).
fn commit_outcome(shared: &Shared, fp: u64, promoted: Result<u32, String>) {
    let mut inner = shared.inner.lock().unwrap();
    let state = match promoted {
        Ok(version) => {
            inner.pool.completed += 1;
            let _ = inner.journal.append(&JobRecord::Done { fp, version });
            JobState::Done { version }
        }
        Err(error) => {
            inner.pool.failed += 1;
            let _ = inner.journal.append(&JobRecord::Failed {
                fp,
                error: error.clone(),
            });
            JobState::Failed { error }
        }
    };
    if let Some(job) = inner.jobs.get_mut(&fp) {
        job.state = state;
    }
    shared.cond.notify_all();
}

// ---------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------

/// Longest request line the daemon reads, in bytes, newline excluded. A
/// longer line, or a client trickling bytes with no newline, is answered
/// `bad_request` and disconnected once this many bytes have arrived, so
/// a connection never buffers more than this.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Most connections served at once. One more is answered with a single
/// `busy` error line and closed.
const MAX_CONNECTIONS: usize = 64;

/// A live handler's claim on one of the [`MAX_CONNECTIONS`] slots,
/// released when the handler returns or unwinds. Only the accept loop
/// claims, so its check against the cap cannot race another claim.
struct ConnectionSlot(Arc<Shared>);

impl ConnectionSlot {
    fn claim(shared: &Arc<Shared>) -> ConnectionSlot {
        shared.connections.fetch_add(1, Ordering::SeqCst);
        ConnectionSlot(Arc::clone(shared))
    }
}

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.0.connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Answers a connection over the cap with one `busy` line and closes it.
fn refuse_connection(mut stream: Stream) {
    let message = format!("connection limit reached ({MAX_CONNECTIONS} open)");
    let mut line = Response::error(ErrorKind::Busy, message).to_jsonl();
    line.push('\n');
    let _ = stream.write_all(line.as_bytes());
}

fn handle_connection(stream: Stream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(shared.config.idle_timeout));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut send = |response: Response| {
        let mut out = response.to_jsonl();
        out.push('\n');
        writer.write_all(out.as_bytes()).is_ok() && writer.flush().is_ok()
    };
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        line.clear();
        let limit = MAX_LINE_BYTES as u64 + 1;
        match reader.by_ref().take(limit).read_until(b'\n', &mut line) {
            Ok(0) => return, // EOF
            Ok(_) => {}
            Err(_) => return, // idle timeout or broken pipe
        }
        if line.len() > MAX_LINE_BYTES && !line.ends_with(b"\n") {
            let message = format!("request line exceeds {MAX_LINE_BYTES} bytes");
            send(Response::error(ErrorKind::BadRequest, message));
            return;
        }
        let text = String::from_utf8_lossy(&line);
        if text.trim().is_empty() {
            continue;
        }
        let response = match Request::parse_line(&text) {
            Some(Request::Drain) => {
                send(handle_request(shared, Request::Drain));
                finish_drain(shared);
                return;
            }
            Some(req) => handle_request(shared, req),
            None => Response::error(ErrorKind::BadRequest, "unparseable request line"),
        };
        if !send(response) {
            return;
        }
    }
}

/// Lets [`serve`] return once the drain reply is on the wire: sets
/// `shutdown`, then wakes the accept loop with one connection to the
/// listener's own address. Setting the flag before the reply is written
/// would let any client's connect end `serve`, and with it the process,
/// while the drain client still waits for its answer.
fn finish_drain(shared: &Shared) {
    shared.inner.lock().unwrap().shutdown = true;
    if let Err(e) = shared.endpoint.connect() {
        println!("[alertd] drain could not wake the accept loop: {e}");
    }
}

fn handle_request(shared: &Shared, req: Request) -> Response {
    shared.inner.lock().unwrap().requests += 1;
    match req {
        Request::Submit { spec, force } => handle_submit(shared, spec, force),
        Request::Status { job } => handle_status(shared, job),
        Request::Result { job, artifact } => handle_result(shared, job, &artifact),
        Request::Cancel { job } => handle_cancel(shared, job),
        Request::Query { job, query } => handle_query(shared, job, &query),
        Request::Health => handle_health(shared),
        Request::Drain => handle_drain(shared),
        Request::Rollback { job } => handle_rollback(shared, job),
    }
}

fn handle_submit(shared: &Shared, spec: JobSpec, force: bool) -> Response {
    if let Err(e) = spec.validate() {
        return Response::error(ErrorKind::BadRequest, e);
    }
    let fp = spec.fingerprint();
    let mut inner = shared.inner.lock().unwrap();
    if inner.draining {
        return Response::error(ErrorKind::Shutdown, "daemon is draining");
    }
    // Idempotence by fingerprint: an equivalent submission returns the
    // job's existing trajectory instead of a duplicate run.
    if let Some(job) = inner.jobs.get(&fp) {
        match &job.state {
            JobState::Done { version } if !force => {
                return Response::ok()
                    .with_str("job", format!("{fp:016x}"))
                    .with_str("state", "done")
                    .with_num("version", version)
                    .with_num("cached", 1);
            }
            JobState::Pending | JobState::Running => {
                return Response::ok()
                    .with_str("job", format!("{fp:016x}"))
                    .with_str("state", job.state.as_str())
                    .with_num("cached", 1);
            }
            JobState::Quarantined { error } if !force => {
                return Response::error(ErrorKind::Failed, error.clone());
            }
            _ => {} // failed / cancelled / forced: admit a re-run
        }
    }
    if Shared::outstanding(&inner) >= shared.config.queue_cap {
        return Response::error(
            ErrorKind::Busy,
            format!("queue full ({} outstanding)", shared.config.queue_cap),
        );
    }
    // Journal before ack: once the client sees this response, the job
    // survives any crash.
    let rec = JobRecord::Submit {
        fp,
        force,
        spec: spec.clone(),
    };
    if let Err(e) = inner.journal.append(&rec) {
        return Response::error(ErrorKind::Failed, format!("journal append failed: {e}"));
    }
    inner.jobs.insert(
        fp,
        JobEntry {
            spec,
            state: JobState::Pending,
        },
    );
    inner.pending.push_back(fp);
    shared.cond.notify_all();
    Response::ok()
        .with_str("job", format!("{fp:016x}"))
        .with_str("state", "pending")
        .with_num("cached", 0)
}

fn handle_status(shared: &Shared, fp: u64) -> Response {
    let inner = shared.inner.lock().unwrap();
    let Some(job) = inner.jobs.get(&fp) else {
        return Response::error(ErrorKind::NotFound, format!("no job {fp:016x}"));
    };
    let mut resp = Response::ok()
        .with_str("job", format!("{fp:016x}"))
        .with_str("state", job.state.as_str());
    match &job.state {
        JobState::Done { version } => resp = resp.with_num("version", version),
        JobState::Failed { error } | JobState::Quarantined { error } => {
            resp = resp.with_str("error", error.clone());
        }
        _ => {}
    }
    resp
}

fn handle_result(shared: &Shared, fp: u64, artifact: &str) -> Response {
    {
        let inner = shared.inner.lock().unwrap();
        match inner.jobs.get(&fp) {
            None => return Response::error(ErrorKind::NotFound, format!("no job {fp:016x}")),
            Some(job) if !matches!(job.state, JobState::Done { .. }) => {
                return Response::error(
                    ErrorKind::NotFound,
                    format!("job {fp:016x} is {}, not done", job.state.as_str()),
                );
            }
            Some(_) => {}
        }
    }
    match shared.store.read_current_artifact(fp, artifact) {
        Some(body) => {
            let version = shared.store.current_version(fp).unwrap_or(0);
            Response::ok()
                .with_num("version", version)
                .with_str("artifact", artifact)
                .with_str("payload", body)
        }
        None => Response::error(
            ErrorKind::NotFound,
            format!(
                "no artifact '{artifact}' (have: {})",
                shared.store.current_artifact_names(fp).join(", ")
            ),
        ),
    }
}

fn handle_cancel(shared: &Shared, fp: u64) -> Response {
    let mut inner = shared.inner.lock().unwrap();
    let Some(job) = inner.jobs.get(&fp) else {
        return Response::error(ErrorKind::NotFound, format!("no job {fp:016x}"));
    };
    match &job.state {
        JobState::Pending if inner.pending.contains(&fp) => {
            if let Err(e) = inner.journal.append(&JobRecord::Cancelled { fp }) {
                return Response::error(ErrorKind::Failed, format!("journal append failed: {e}"));
            }
            inner.pending.retain(|&f| f != fp);
            inner.jobs.get_mut(&fp).unwrap().state = JobState::Cancelled;
            shared.cond.notify_all();
            Response::ok()
                .with_str("job", format!("{fp:016x}"))
                .with_str("state", "cancelled")
        }
        state => Response::error(
            ErrorKind::Failed,
            format!("cannot cancel a {} job", state.as_str()),
        ),
    }
}

fn handle_query(shared: &Shared, fp: u64, query: &QueryRequest) -> Response {
    let Some(text) = shared.store.read_current_artifact(fp, "trace.jsonl") else {
        return Response::error(
            ErrorKind::NotFound,
            format!("job {fp:016x} has no stored trace (submit with trace enabled)"),
        );
    };
    let events = match parse_trace(&text) {
        Ok(ev) => ev,
        Err(e) => return Response::error(ErrorKind::Failed, format!("stored trace: {e}")),
    };
    let filter = EventFilter {
        node: query.node,
        t_min: query.after,
        t_max: query.before,
        kind: query.kind.clone(),
        drop_reason: query.reason.clone(),
        packet: query.packet,
    };
    let (payload, matched) = match query.verb.as_str() {
        "filter" => {
            let selected = filter_events(&events, &filter);
            let body = if query.format == "csv" {
                render_events_csv(&selected)
            } else {
                render_events_jsonl(&selected)
            };
            (body, selected.len())
        }
        "follow" => {
            let Some(packet) = query.packet else {
                return Response::error(ErrorKind::BadRequest, "follow requires a packet id");
            };
            let selected = follow_packet(&events, packet);
            let body = if query.format == "csv" {
                render_events_csv(&selected)
            } else {
                render_events_jsonl(&selected)
            };
            (body, selected.len())
        }
        "windows" => {
            let Some(every) = query.every_s else {
                return Response::error(ErrorKind::BadRequest, "windows requires an interval");
            };
            if !every.is_finite() || every <= 0.0 {
                return Response::error(ErrorKind::BadRequest, "interval must be positive");
            }
            let selected: Vec<_> = filter_events(&events, &filter)
                .into_iter()
                .cloned()
                .collect();
            let windows = window_aggregates(&selected, every);
            let body = if query.format == "csv" {
                render_windows_csv(&windows)
            } else {
                render_windows_json(every, &windows)
            };
            (body, selected.len())
        }
        other => {
            return Response::error(
                ErrorKind::BadRequest,
                format!("unknown query verb '{other}' (filter|follow|windows)"),
            );
        }
    };
    Response::ok()
        .with_num("events", matched)
        .with_str("payload", payload)
}

fn handle_health(shared: &Shared) -> Response {
    let mut inner = shared.inner.lock().unwrap();
    let mut by_state: BTreeMap<&'static str, u64> = BTreeMap::new();
    for job in inner.jobs.values() {
        *by_state.entry(job.state.as_str()).or_insert(0) += 1;
    }
    let lag = Shared::outstanding(&inner) as u64;
    let uptime = shared.started.elapsed().as_secs_f64();

    // Feed the same counters into the daemon's own alert-timeseries/1
    // series, flushed as daemon-timeseries.jsonl on drain.
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    for (state, n) in &by_state {
        counters.insert(format!("daemon.jobs_{state}"), *n);
    }
    counters.insert("daemon.journal_lag".into(), lag);
    counters.insert("daemon.requests".into(), inner.requests);
    counters.insert("pool.committed".into(), inner.pool.completed);
    counters.insert("pool.failed".into(), inner.pool.failed);
    if inner.series.samples.last().is_none_or(|s| uptime > s.t) {
        let snap = RegistrySnapshot {
            counters: counters.clone(),
            histograms: BTreeMap::new(),
        };
        inner.series.record(uptime, &snap);
    }

    let mut resp = Response::ok()
        .with_num("uptime_s", format!("{:.3}", uptime))
        .with_num("jobs", inner.jobs.len())
        .with_num("journal_records", inner.journal.records())
        .with_num("journal_lag", lag)
        .with_num("queue_cap", shared.config.queue_cap)
        .with_num("workers", shared.config.jobs)
        .with_num("draining", u8::from(inner.draining));
    for state in [
        "pending",
        "running",
        "done",
        "failed",
        "cancelled",
        "quarantined",
    ] {
        resp = resp.with_num(
            &format!("jobs_{state}"),
            by_state.get(state).copied().unwrap_or(0),
        );
    }
    resp.with_num("requests", inner.requests)
        .with_num("pool_committed", inner.pool.completed)
        .with_num("pool_failed", inner.pool.failed)
}

fn handle_drain(shared: &Shared) -> Response {
    let mut inner = shared.inner.lock().unwrap();
    inner.draining = true;
    shared.cond.notify_all();
    // Admission is closed; wait for every admitted job to settle. The
    // workers see `draining` and exit once the queue is empty.
    while Shared::outstanding(&inner) > 0 {
        inner = shared.cond.wait(inner).unwrap();
    }
    Response::ok()
        .with_num("drained", 1u8)
        .with_num("completed", inner.pool.completed)
        .with_num("failed", inner.pool.failed)
}

fn handle_rollback(shared: &Shared, fp: u64) -> Response {
    let mut inner = shared.inner.lock().unwrap();
    match inner.jobs.get(&fp).map(|j| &j.state) {
        None => return Response::error(ErrorKind::NotFound, format!("no job {fp:016x}")),
        Some(JobState::Done { .. }) => {}
        Some(state) => {
            return Response::error(
                ErrorKind::Failed,
                format!("cannot roll back a {} job", state.as_str()),
            );
        }
    }
    match shared.store.rollback(fp) {
        Ok(version) => {
            if let Err(e) = inner.journal.append(&JobRecord::Rollback { fp, version }) {
                return Response::error(ErrorKind::Failed, format!("journal append failed: {e}"));
            }
            inner.jobs.get_mut(&fp).unwrap().state = JobState::Done { version };
            Response::ok()
                .with_str("job", format!("{fp:016x}"))
                .with_num("version", version)
        }
        Err(e) => Response::error(ErrorKind::Failed, e.to_string()),
    }
}

fn plural_y(n: usize) -> &'static str {
    if n == 1 {
        "y"
    } else {
        "ies"
    }
}

// ---------------------------------------------------------------------
// Listener abstraction (TCP everywhere, Unix sockets where they exist)
// ---------------------------------------------------------------------

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixListener, PathBuf),
}

/// Where a [`Listener`] can be reached: the `alertd.endpoint` line
/// clients resolve reads `tcp HOST:PORT` or `unix PATH`.
enum Endpoint {
    Tcp(SocketAddr),
    #[cfg(unix)]
    Unix(PathBuf),
}

/// One accepted connection.
enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixStream),
}

impl Listener {
    fn bind(addr: &BindAddr) -> io::Result<Listener> {
        match addr {
            BindAddr::Tcp(hostport) => Ok(Listener::Tcp(TcpListener::bind(hostport)?)),
            #[cfg(unix)]
            BindAddr::Unix(path) => {
                let _ = std::fs::remove_file(path);
                Ok(Listener::Unix(
                    std::os::unix::net::UnixListener::bind(path)?,
                    path.clone(),
                ))
            }
            #[cfg(not(unix))]
            BindAddr::Unix(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix sockets are not available on this platform",
            )),
        }
    }

    fn endpoint(&self) -> io::Result<Endpoint> {
        Ok(match self {
            Listener::Tcp(l) => Endpoint::Tcp(l.local_addr()?),
            #[cfg(unix)]
            Listener::Unix(_, path) => Endpoint::Unix(path.clone()),
        })
    }

    /// Blocks until a client connects.
    fn accept(&self) -> io::Result<Stream> {
        Ok(match self {
            Listener::Tcp(l) => Stream::Tcp(l.accept()?.0),
            #[cfg(unix)]
            Listener::Unix(l, _) => Stream::Unix(l.accept()?.0),
        })
    }
}

impl Endpoint {
    /// Connects to the endpoint; a wildcard TCP address (`0.0.0.0`,
    /// `[::]`) is reached through loopback.
    fn connect(&self) -> io::Result<Stream> {
        match self {
            Endpoint::Tcp(addr) => {
                let mut addr = *addr;
                if addr.ip().is_unspecified() {
                    addr.set_ip(match addr.ip() {
                        IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                        IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
                    });
                }
                TcpStream::connect(addr).map(Stream::Tcp)
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => std::os::unix::net::UnixStream::connect(path).map(Stream::Unix),
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp {addr}"),
            #[cfg(unix)]
            Endpoint::Unix(path) => write!(f, "unix {}", path.display()),
        }
    }
}

impl Stream {
    fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(d),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(d),
        }
    }

    fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            #[cfg(unix)]
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }
}

impl io::Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl io::Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Request;
    use std::path::Path;
    use std::sync::mpsc;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("alertd_server_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn quick_spec(seed: u64) -> JobSpec {
        JobSpec {
            nodes: 20,
            pairs: 1,
            duration_s: 2.0,
            seed,
            trace: true,
            ..JobSpec::default()
        }
    }

    /// The endpoint a daemon advertises in `<dir>/alertd.endpoint`.
    fn advertised(dir: &Path) -> Endpoint {
        let text = std::fs::read_to_string(dir.join("alertd.endpoint")).unwrap();
        match text.trim().split_once(' ') {
            Some(("tcp", addr)) => Endpoint::Tcp(addr.parse().unwrap()),
            #[cfg(unix)]
            Some(("unix", path)) => Endpoint::Unix(PathBuf::from(path)),
            _ => panic!("unexpected endpoint line {text:?}"),
        }
    }

    struct Client {
        reader: BufReader<Stream>,
        writer: Stream,
    }

    impl Client {
        fn connect(dir: &Path) -> Client {
            let stream = advertised(dir).connect().unwrap();
            Client {
                reader: BufReader::new(stream.try_clone().unwrap()),
                writer: stream,
            }
        }

        fn roundtrip(&mut self, req: &Request) -> Response {
            let mut line = req.to_jsonl();
            line.push('\n');
            self.writer.write_all(line.as_bytes()).unwrap();
            self.writer.flush().unwrap();
            self.read_response()
        }

        fn read_response(&mut self) -> Response {
            let mut resp = String::new();
            self.reader.read_line(&mut resp).unwrap();
            Response::parse_line(&resp).expect("valid response line")
        }
    }

    /// A daemon serving on a background thread; `done` yields its stats
    /// once [`serve`] returns.
    struct Daemon {
        dir: PathBuf,
        done: mpsc::Receiver<ServerStats>,
    }

    impl Daemon {
        /// Starts a daemon and waits for its endpoint file.
        fn start_with(config: ServerConfig) -> Daemon {
            let dir = config.dir.clone();
            let (tx, done) = mpsc::channel();
            thread::spawn(move || {
                let _ = tx.send(serve(config).unwrap());
            });
            for _ in 0..200 {
                if dir.join("alertd.endpoint").exists() {
                    break;
                }
                thread::sleep(Duration::from_millis(25));
            }
            Daemon { dir, done }
        }

        fn start(dir: &Path) -> Daemon {
            Daemon::start_with(ServerConfig {
                dir: dir.to_path_buf(),
                jobs: 1,
                ..ServerConfig::default()
            })
        }

        fn drain(self) -> ServerStats {
            let mut client = Client::connect(&self.dir);
            self.drain_on(&mut client)
        }

        /// Drains over `client` and waits at most 10 s for [`serve`] to
        /// return, so a lost wake fails the test instead of hanging it.
        fn drain_on(self, client: &mut Client) -> ServerStats {
            let resp = client.roundtrip(&Request::Drain);
            assert_eq!(resp.num_field("drained"), Some("1"), "{resp:?}");
            let stats = self
                .done
                .recv_timeout(Duration::from_secs(10))
                .expect("serve returns after the drain reply");
            assert!(
                !self.dir.join("alertd.endpoint").exists(),
                "endpoint removed on drain"
            );
            let _ = std::fs::remove_dir_all(&self.dir);
            stats
        }
    }

    fn wait_done(client: &mut Client, fp: u64) -> Response {
        for _ in 0..600 {
            let resp = client.roundtrip(&Request::Status { job: fp });
            match resp.str_field("state") {
                Some("pending") | Some("running") => {
                    std::thread::sleep(Duration::from_millis(50));
                }
                _ => return resp,
            }
        }
        panic!("job {fp:016x} never settled");
    }

    /// End-to-end in one process: submit → run → result → query →
    /// idempotent resubmit → drain. Exercises the full admission /
    /// execution / promotion / protocol path without subprocesses
    /// (the kill -9 drill lives in tests/daemon_smoke.rs).
    #[test]
    fn submit_runs_to_done_and_drain_exits() {
        let daemon = Daemon::start_with(ServerConfig {
            dir: scratch("e2e"),
            jobs: 2,
            ..ServerConfig::default()
        });
        let mut client = Client::connect(&daemon.dir);
        let spec = quick_spec(1);
        let fp = spec.fingerprint();

        let resp = client.roundtrip(&Request::Submit {
            spec: spec.clone(),
            force: false,
        });
        assert_eq!(resp.str_field("state"), Some("pending"));
        assert_eq!(resp.num_field("cached"), Some("0"));

        let done = wait_done(&mut client, fp);
        assert_eq!(done.str_field("state"), Some("done"), "{done:?}");
        assert_eq!(done.num_field("version"), Some("1"));

        // Idempotent resubmit: served from the store, no second run.
        let resp = client.roundtrip(&Request::Submit { spec, force: false });
        assert_eq!(resp.num_field("cached"), Some("1"));

        let resp = client.roundtrip(&Request::Result {
            job: fp,
            artifact: "metrics.json".to_owned(),
        });
        let payload = resp.str_field("payload").expect("payload");
        assert!(payload.starts_with("{\"schema\":\"alertd-result/1\""));

        let resp = client.roundtrip(&Request::Query {
            job: fp,
            query: QueryRequest {
                verb: "filter".to_owned(),
                kind: Some("app_send".to_owned()),
                ..QueryRequest::default()
            },
        });
        assert!(resp.num_field("events").is_some(), "{resp:?}");

        let health = client.roundtrip(&Request::Health);
        assert_eq!(health.num_field("jobs_done"), Some("1"));

        let stats = daemon.drain_on(&mut client);
        assert_eq!(stats.completed, 1);
    }

    /// Admission control: with capacity 1 the second distinct job is
    /// refused `busy`; a bad spec is refused `bad_request`.
    #[test]
    fn admission_is_bounded_and_typed() {
        // `queue_cap: 0` closes admission outright, which pins the busy
        // path without racing a real job against it — in optimised
        // builds even large scenarios can finish between two in-process
        // round trips, so "fill the queue then submit" is inherently
        // timing-dependent.
        let daemon = Daemon::start_with(ServerConfig {
            dir: scratch("busy"),
            jobs: 1,
            queue_cap: 0,
            ..ServerConfig::default()
        });
        let mut client = Client::connect(&daemon.dir);
        let resp = client.roundtrip(&Request::Submit {
            spec: quick_spec(12),
            force: false,
        });
        match resp {
            Response::Err { kind, .. } => assert_eq!(kind, ErrorKind::Busy),
            other => panic!("expected busy, got {other:?}"),
        }

        // Validation precedes admission: a malformed spec is refused
        // bad_request even while the queue is closed.
        let resp = client.roundtrip(&Request::Submit {
            spec: JobSpec {
                protocol: "ospf".to_owned(),
                ..JobSpec::default()
            },
            force: false,
        });
        match resp {
            Response::Err { kind, .. } => assert_eq!(kind, ErrorKind::BadRequest),
            other => panic!("expected bad_request, got {other:?}"),
        }

        daemon.drain_on(&mut client);
    }

    /// A job that fails (here a budget abort under a tight daemon cap)
    /// runs once: one `lease` record, then `failed`. The daemon keeps
    /// serving, and a later job inside the cap still completes.
    #[test]
    fn a_failing_job_runs_once_and_the_next_still_completes() {
        let daemon = Daemon::start_with(ServerConfig {
            dir: scratch("fail_once"),
            jobs: 2,
            cap: RunBudget {
                max_sim_seconds: Some(4.0),
                ..RunBudget::default()
            },
            ..ServerConfig::default()
        });
        let mut client = Client::connect(&daemon.dir);
        let long = JobSpec {
            duration_s: 8.0,
            ..quick_spec(21)
        };
        let fp = long.fingerprint();
        client.roundtrip(&Request::Submit {
            spec: long,
            force: false,
        });
        let failed = wait_done(&mut client, fp);
        assert_eq!(failed.str_field("state"), Some("failed"), "{failed:?}");
        let error = failed.str_field("error").expect("error text");
        assert!(error.starts_with("run aborted"), "{error}");
        assert!(!error.contains("attempt"), "{error}");
        let journal =
            std::fs::read_to_string(daemon.dir.join(crate::journal::JOURNAL_FILE)).unwrap();
        let leases = journal
            .lines()
            .filter(|l| l.contains("\"rec\":\"lease\"") && l.contains(&format!("{fp:016x}")))
            .count();
        assert_eq!(leases, 1, "one lease for the failing job:\n{journal}");

        let short = quick_spec(22);
        let fp = short.fingerprint();
        client.roundtrip(&Request::Submit {
            spec: short,
            force: false,
        });
        let done = wait_done(&mut client, fp);
        assert_eq!(done.str_field("state"), Some("done"), "{done:?}");

        let stats = daemon.drain_on(&mut client);
        assert_eq!((stats.completed, stats.failed), (1, 1));
    }

    /// A traced job whose trace passes the limit fails with an error that
    /// names it, and the daemon runs the next job to `done`.
    #[test]
    fn a_trace_over_the_limit_fails_its_job_and_the_next_still_completes() {
        let daemon = Daemon::start(&scratch("trace_limit"));
        let mut client = Client::connect(&daemon.dir);
        let big = crate::spec::tests::over_limit_spec();
        let fp = big.fingerprint();
        client.roundtrip(&Request::Submit {
            spec: big,
            force: false,
        });
        let failed = wait_done(&mut client, fp);
        assert_eq!(failed.str_field("state"), Some("failed"), "{failed:?}");
        let error = failed.str_field("error").expect("error text");
        assert!(error.contains("4 MiB trace limit"), "{error}");

        let next = quick_spec(41);
        let fp = next.fingerprint();
        client.roundtrip(&Request::Submit {
            spec: next,
            force: false,
        });
        let done = wait_done(&mut client, fp);
        assert_eq!(done.str_field("state"), Some("done"), "{done:?}");

        let stats = daemon.drain_on(&mut client);
        assert_eq!((stats.completed, stats.failed), (1, 1));
    }

    /// A job submitted while a longer one runs does not wait for it: with
    /// two workers the quick job reaches `done` while the long job still
    /// reads `running`.
    #[test]
    fn a_job_submitted_mid_run_does_not_wait_for_a_longer_job() {
        let daemon = Daemon::start_with(ServerConfig {
            dir: scratch("mid_run"),
            jobs: 2,
            ..ServerConfig::default()
        });
        let mut client = Client::connect(&daemon.dir);
        let long = JobSpec {
            nodes: 500,
            pairs: 8,
            duration_s: 300.0,
            ..quick_spec(31)
        };
        let long_fp = long.fingerprint();
        client.roundtrip(&Request::Submit {
            spec: long,
            force: false,
        });
        let status = |client: &mut Client, fp| {
            let resp = client.roundtrip(&Request::Status { job: fp });
            resp.str_field("state").map(str::to_owned)
        };
        let wait_while = |client: &mut Client, fp, state: &str| {
            let deadline = Instant::now() + Duration::from_secs(30);
            while status(client, fp).as_deref() == Some(state) {
                assert!(Instant::now() < deadline, "job {fp:016x} stuck {state}");
                thread::sleep(Duration::from_millis(2));
            }
        };
        wait_while(&mut client, long_fp, "pending");

        let quick = quick_spec(32);
        let quick_fp = quick.fingerprint();
        client.roundtrip(&Request::Submit {
            spec: quick,
            force: false,
        });
        wait_while(&mut client, quick_fp, "pending");
        wait_while(&mut client, quick_fp, "running");
        assert_eq!(status(&mut client, quick_fp).as_deref(), Some("done"));
        assert_eq!(
            status(&mut client, long_fp).as_deref(),
            Some("running"),
            "the long job is still running"
        );

        let stats = daemon.drain_on(&mut client);
        assert_eq!((stats.completed, stats.failed), (2, 0));
    }

    /// Drain wakes the blocked accept loop on every kind of bind, with
    /// an idle client still connected, and `serve` returns only after
    /// the drain client has its reply.
    fn drain_returns_on(tag: &str, bind: impl FnOnce(&Path) -> BindAddr) {
        let dir = scratch(tag);
        let daemon = Daemon::start_with(ServerConfig {
            bind: bind(&dir),
            dir,
            jobs: 1,
            ..ServerConfig::default()
        });
        let _idle = Client::connect(&daemon.dir);
        let health = Client::connect(&daemon.dir).roundtrip(&Request::Health);
        assert_eq!(health.num_field("draining"), Some("0"), "{health:?}");
        daemon.drain();
    }

    #[test]
    fn drain_returns_on_a_loopback_tcp_bind() {
        drain_returns_on("drain_tcp", |_| BindAddr::Tcp("127.0.0.1:0".to_owned()));
    }

    #[test]
    fn drain_returns_on_a_wildcard_tcp_bind() {
        drain_returns_on("drain_wildcard", |_| BindAddr::Tcp("0.0.0.0:0".to_owned()));
    }

    #[cfg(unix)]
    #[test]
    fn drain_returns_on_a_unix_socket_bind() {
        drain_returns_on("drain_unix", |dir| BindAddr::Unix(dir.join("alertd.sock")));
    }

    /// Sends one health request without panicking on a refused or reset
    /// connection; `None` unless the daemon served it.
    fn try_health(dir: &Path) -> Option<Client> {
        let mut client = Client::connect(dir);
        let mut line = Request::Health.to_jsonl();
        line.push('\n');
        client.writer.write_all(line.as_bytes()).ok()?;
        let mut resp = String::new();
        client.reader.read_line(&mut resp).ok()?;
        matches!(Response::parse_line(&resp), Some(Response::Ok(_))).then_some(client)
    }

    #[test]
    fn the_connection_cap_answers_busy_until_a_slot_frees() {
        let daemon = Daemon::start(&scratch("cap"));
        let mut held: Vec<Client> = (0..MAX_CONNECTIONS)
            .map(|i| try_health(&daemon.dir).unwrap_or_else(|| panic!("connection {i} refused")))
            .collect();

        // One over the cap: a single typed line, then the close.
        let mut refused = Client::connect(&daemon.dir);
        match refused.read_response() {
            Response::Err { kind, message } => {
                assert_eq!(kind, ErrorKind::Busy);
                assert!(message.contains("connection limit"), "{message}");
            }
            other => panic!("expected busy, got {other:?}"),
        }
        let mut rest = String::new();
        assert_eq!(refused.reader.read_line(&mut rest).unwrap(), 0, "closed");

        // Closing a held connection frees its slot once its handler
        // sees the EOF.
        held.pop();
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut fresh = loop {
            if let Some(client) = try_health(&daemon.dir) {
                break client;
            }
            assert!(Instant::now() < deadline, "no slot freed");
            thread::sleep(Duration::from_millis(10));
        };
        // The cap is full again, yet the drain's wake connection is
        // served: the shutdown check comes first.
        daemon.drain_on(&mut fresh);
    }

    /// Reads the one answer to an over-long line, then the close.
    fn expect_line_refused(client: &mut Client) {
        match client.read_response() {
            Response::Err { kind, message } => {
                assert_eq!(kind, ErrorKind::BadRequest);
                assert!(message.contains("exceeds"), "{message}");
            }
            other => panic!("expected bad_request, got {other:?}"),
        }
        let mut rest = String::new();
        assert_eq!(client.reader.read_line(&mut rest).unwrap(), 0, "closed");
    }

    #[test]
    fn an_oversized_line_is_refused_and_the_connection_closed() {
        let daemon = Daemon::start(&scratch("long_line"));
        let mut client = Client::connect(&daemon.dir);
        let line = format!(
            "{{\"op\":\"health\",\"pad\":\"{}\"}}",
            "x".repeat(MAX_LINE_BYTES)
        );
        // Exactly the bytes the daemon reads before it refuses, so none
        // are left unread when it closes.
        client
            .writer
            .write_all(&line.as_bytes()[..MAX_LINE_BYTES + 1])
            .unwrap();
        expect_line_refused(&mut client);
        daemon.drain();
    }

    #[test]
    fn a_newline_less_trickle_is_cut_off_at_the_line_limit() {
        let daemon = Daemon::start(&scratch("trickle"));
        let mut client = Client::connect(&daemon.dir);
        let chunk = [b'x'; 4096];
        for _ in 0..MAX_LINE_BYTES / chunk.len() {
            client.writer.write_all(&chunk).unwrap();
            thread::sleep(Duration::from_millis(1));
        }
        client.writer.write_all(b"x").unwrap();
        expect_line_refused(&mut client);
        daemon.drain();
    }

    #[test]
    fn a_fresh_connection_is_served_after_a_refused_line() {
        let daemon = Daemon::start(&scratch("after_refusal"));
        let mut client = Client::connect(&daemon.dir);
        client
            .writer
            .write_all(&vec![b'{'; MAX_LINE_BYTES + 1])
            .unwrap();
        expect_line_refused(&mut client);
        let mut fresh = Client::connect(&daemon.dir);
        match fresh.roundtrip(&Request::Status { job: 42 }) {
            Response::Err { kind, .. } => assert_eq!(kind, ErrorKind::NotFound),
            other => panic!("expected not_found, got {other:?}"),
        }
        let health = fresh.roundtrip(&Request::Health);
        assert_eq!(health.num_field("requests"), Some("2"), "{health:?}");
        daemon.drain_on(&mut fresh);
    }
}
