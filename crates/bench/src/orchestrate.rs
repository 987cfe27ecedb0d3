//! Crash-safe campaign orchestration for the `repro` binary: atomic
//! artifact writes, a JSONL manifest journal, and a failure report.
//!
//! A long `repro all --runs 30` campaign can die halfway — OOM kill,
//! Ctrl-C, power loss. This module gives it three properties:
//!
//! 1. **Atomic artifacts** — [`write_atomic`] stages every CSV/report to
//!    a temp file in the same directory, `rename`s it into place and
//!    syncs the directory, so a reader (or a resumed campaign) never
//!    observes a half-written file.
//! 2. **A journal** — after each experiment completes, one
//!    [`ManifestEntry`] line is appended to `manifest.jsonl` in the
//!    `--csv` directory. Appends are line-atomic in practice and a torn
//!    trailing line (the crash case) is tolerated on re-open; at worst
//!    one experiment is re-run.
//! 3. **Resume** — `repro --resume` consults [`Journal::completed`]
//!    and skips experiments already journaled as done *with a matching
//!    config fingerprint* ([`fingerprint`] covers the target name, the
//!    `--runs` count, and the schema version), so changing the campaign
//!    shape invalidates stale entries instead of silently reusing them.
//!
//! Every durable log in the workspace — the manifest, the failure
//! report and `alertd`'s job journal — is an [`AppendLog`]: open reads
//! the file and newline-terminates a torn tail, and each append writes
//! one line and `sync_all`s it before returning. The logs differ only
//! in their record types and replay folds.
//!
//! Like the trace codec and the perf report, the journal is
//! hand-formatted JSONL with a stable key order, written and parsed
//! with the trace crate's flat-object codec
//! ([`alert_trace::push_str_escaped`], [`alert_trace::parse_object`]),
//! so it needs no JSON library at runtime and stays diffable by eye.
//! The schema is `alert-repro-manifest/2`:
//!
//! ```json
//! {"target":"fig9a","fingerprint":1234,"runs":30,"status":"done","wall_s":12.5}
//! {"rec":"lease","target":"fig9b","fingerprint":99,"worker":1,"attempt":1,"deadline_s":612.5}
//! ```
//!
//! Version 2 added [`LeaseEntry`] lines: the leased executor of earlier
//! builds journaled one when a worker claimed a unit. `repro` now
//! writes only terminal lines: the committer writes each CSV with
//! [`write_atomic`] and then journals its `done`/`failed` line. Lease
//! lines in older journals are still read: one with no later terminal
//! line is an *orphan* (its worker died mid-unit), and `--resume`
//! re-runs that point. v1 journals remain readable (they contain no
//! lease lines); v1 *parsers* skip lease lines because they reject
//! objects with unknown keys. The schema string is part of every
//! fingerprint, so the 1→2 bump deliberately invalidates v1 completion
//! entries: resumed campaigns re-run them instead of trusting records
//! written under the old discipline.
//!
//! Failed experiments are quarantined rather than resumed-over: they
//! are journaled with `"status":"failed"` (never matched by
//! [`Journal::completed`]) and detailed per-run in `failures.jsonl`
//! via [`FailureSink`], one [`FailureEntry`] per quarantined run with
//! its one-line `simrun` replay command.
//!
//! Torn-tail healing assumes a **single writer** per output directory;
//! [`DirLock`] enforces that with an advisory `.orchestrator.lock`
//! file, so two orchestrators racing on one `--csv` dir fail fast with
//! a usage error instead of silently interleaving journal lines.

use crate::runner::FailureRecord;
use alert_trace::{parse_object, push_str_escaped, Val};
use std::fmt::Write as _;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// File name of the manifest journal inside the `--csv` directory.
pub const MANIFEST_FILE: &str = "manifest.jsonl";

/// File name of the failure report inside the `--csv` directory.
pub const FAILURES_FILE: &str = "failures.jsonl";

/// File name of the advisory single-orchestrator lock inside the
/// output directory.
pub const LOCK_FILE: &str = ".orchestrator.lock";

/// Journal schema tag; part of every fingerprint, so bumping it
/// invalidates all previously journaled points at once.
const SCHEMA: &str = "alert-repro-manifest/2";

// ---------------------------------------------------------------------
// Fingerprint
// ---------------------------------------------------------------------

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Config fingerprint of one campaign point: FNV-1a over the schema
/// version, the target name, and the runs count (NUL-separated so
/// field boundaries can't alias). A journaled entry only counts as
/// completed when its fingerprint matches the current invocation's.
pub fn fingerprint(target: &str, runs: usize) -> u64 {
    fingerprint_with(&[target.as_bytes(), &(runs as u64).to_le_bytes()])
}

/// Generalized config fingerprint: FNV-1a over the schema version and
/// the given byte fields, NUL-separated so field boundaries can't
/// alias. [`fingerprint`] is the two-field special case; `simcheck`
/// uses this directly to key fuzz cases by `(master seed, case index,
/// plant)`.
pub fn fingerprint_with(parts: &[&[u8]]) -> u64 {
    let mut h = fnv1a(0xcbf2_9ce4_8422_2325, SCHEMA.as_bytes());
    for part in parts {
        h = fnv1a(h, &[0]);
        h = fnv1a(h, part);
    }
    h
}

// ---------------------------------------------------------------------
// Atomic writes
// ---------------------------------------------------------------------

/// Writes `contents` to `path` atomically: stage to a sibling temp
/// file, fsync, rename into place, then fsync the directory so the
/// rename itself is durable. A crash mid-write leaves either the old
/// file or the new one, never a truncated hybrid. (The stale temp file
/// a crash can leave behind is overwritten by the next attempt.)
pub fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(file_name);
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    fsync_dir(parent_dir(path));
    Ok(())
}

/// Best-effort directory fsync, so a `rename` or file creation inside
/// `dir` is durable. Ignored on platforms where directories cannot be
/// opened for sync.
pub fn fsync_dir(dir: &Path) {
    if let Ok(f) = fs::File::open(dir) {
        let _ = f.sync_all();
    }
}

/// The directory holding `path` (`.` for a bare file name).
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    }
}

// ---------------------------------------------------------------------
// Durable append-only log
// ---------------------------------------------------------------------

/// A crash-safe, append-only JSONL file: the one durable-log primitive
/// under the repro manifest, the failure report and `alertd`'s job
/// journal.
///
/// Every [`append`](AppendLog::append) opens the file for append
/// (creating it), writes one line with a single `write_all`, and
/// `sync_all`s before returning; the append that creates the file also
/// syncs the parent directory once. [`open`](AppendLog::open) hands
/// back the file's text for the owner's replay fold, after
/// newline-terminating a torn tail so the next append cannot merge into
/// the fragment. Owners skip lines they cannot parse.
#[derive(Debug)]
pub struct AppendLog {
    path: PathBuf,
    /// Whether the file is known to exist with its directory entry
    /// synced; until then the next append also syncs the directory.
    dir_synced: bool,
}

impl AppendLog {
    /// A log at `path` that touches the disk only on its first append.
    pub fn new(path: PathBuf) -> AppendLog {
        AppendLog {
            path,
            dir_synced: false,
        }
    }

    /// Reads the log at `path` and returns it with the text as read. A
    /// missing file reads as empty (and is created by the first
    /// append); an unterminated tail is healed on disk with a durable
    /// newline before this returns.
    pub fn open(path: PathBuf) -> io::Result<(AppendLog, String)> {
        let mut log = AppendLog::new(path);
        let text = match fs::read_to_string(&log.path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((log, String::new())),
            Err(e) => return Err(e),
        };
        log.dir_synced = true;
        if !text.is_empty() && !text.ends_with('\n') {
            log.append(String::new())?;
        }
        Ok((log, text))
    }

    /// Appends `line` plus a newline and syncs it to disk before
    /// returning.
    pub fn append(&mut self, mut line: String) -> io::Result<()> {
        line.push('\n');
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        f.write_all(line.as_bytes())?;
        f.sync_all()?;
        if !self.dir_synced {
            fsync_dir(parent_dir(&self.path));
            self.dir_synced = true;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Manifest entries
// ---------------------------------------------------------------------

/// Outcome of one journaled experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryStatus {
    /// The experiment completed and its artifacts were renamed into
    /// place; `--resume` may skip it.
    Done,
    /// The experiment failed (panic, abort, or I/O error); `--resume`
    /// re-runs it.
    Failed,
}

impl EntryStatus {
    /// Stable on-disk token.
    pub fn as_str(self) -> &'static str {
        match self {
            EntryStatus::Done => "done",
            EntryStatus::Failed => "failed",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "done" => Some(EntryStatus::Done),
            "failed" => Some(EntryStatus::Failed),
            _ => None,
        }
    }
}

/// One line of the manifest journal: the outcome of one experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestEntry {
    /// Experiment name as given on the `repro` command line.
    pub target: String,
    /// [`fingerprint`] of the invocation that produced this entry.
    pub fingerprint: u64,
    /// Monte-Carlo runs per point the entry was produced with.
    pub runs: usize,
    /// Outcome.
    pub status: EntryStatus,
    /// Wall-clock seconds the experiment took.
    pub wall_s: f64,
}

impl ManifestEntry {
    /// Encodes the entry as one JSONL line (no trailing newline),
    /// stable key order.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::from("{\"target\":");
        push_str_escaped(&mut s, &self.target);
        let _ = write!(
            s,
            ",\"fingerprint\":{},\"runs\":{},\"status\":\"{}\",\"wall_s\":{:?}}}",
            self.fingerprint,
            self.runs,
            self.status.as_str(),
            self.wall_s
        );
        s
    }

    /// Decodes one journal line; `None` on any malformation (the
    /// journal treats such lines as torn and ignores them).
    pub fn parse_line(line: &str) -> Option<Self> {
        let fields = parse_object(line, 0).ok()?;
        let mut target = None;
        let mut fp = None;
        let mut runs = None;
        let mut status = None;
        let mut wall_s = None;
        for (key, val) in fields {
            match (key.as_str(), val) {
                ("target", Val::Str(s)) => target = Some(s),
                ("fingerprint", Val::Num(n)) => fp = n.parse::<u64>().ok(),
                ("runs", Val::Num(n)) => runs = n.parse::<usize>().ok(),
                ("status", Val::Str(s)) => status = EntryStatus::parse(&s),
                ("wall_s", Val::Num(n)) => wall_s = n.parse::<f64>().ok(),
                _ => return None,
            }
        }
        Some(ManifestEntry {
            target: target?,
            fingerprint: fp?,
            runs: runs?,
            status: status?,
            wall_s: wall_s?,
        })
    }
}

// ---------------------------------------------------------------------
// Lease entries (schema v2)
// ---------------------------------------------------------------------

/// One lease line in a schema-v2 manifest journal: worker `worker`
/// claimed the unit `fingerprint` (attempt `attempt`) and promised to
/// finish it by `deadline_s` on the claiming orchestrator's monotonic
/// clock.
///
/// `repro` no longer writes lease lines; they are still read so older
/// journals stay valid. On `--resume` a lease with no later terminal
/// entry marks a unit the dead run never finished, and it is re-run.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaseEntry {
    /// Experiment target / case label the lease covers.
    pub target: String,
    /// Unit fingerprint (same keying as [`ManifestEntry`]).
    pub fingerprint: u64,
    /// Worker id that claimed the unit.
    pub worker: usize,
    /// 1-based attempt number this lease runs.
    pub attempt: u32,
    /// Lease deadline, seconds on the claiming executor's monotonic clock.
    pub deadline_s: f64,
}

impl LeaseEntry {
    /// Encodes the lease as one JSONL line (no trailing newline),
    /// stable key order. The `"rec":"lease"` discriminator comes first
    /// so v1 parsers (which reject unknown keys) skip the line whole.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::from("{\"rec\":\"lease\",\"target\":");
        push_str_escaped(&mut s, &self.target);
        let _ = write!(
            s,
            ",\"fingerprint\":{},\"worker\":{},\"attempt\":{},\"deadline_s\":{:?}}}",
            self.fingerprint, self.worker, self.attempt, self.deadline_s
        );
        s
    }

    /// Decodes one lease line; `None` on malformation or when the line
    /// is not a lease record.
    pub fn parse_line(line: &str) -> Option<Self> {
        let fields = parse_object(line, 0).ok()?;
        let mut is_lease = false;
        let mut target = None;
        let mut fp = None;
        let mut worker = None;
        let mut attempt = None;
        let mut deadline_s = None;
        for (key, val) in fields {
            match (key.as_str(), val) {
                ("rec", Val::Str(s)) => is_lease = s == "lease",
                ("target", Val::Str(s)) => target = Some(s),
                ("fingerprint", Val::Num(n)) => fp = n.parse::<u64>().ok(),
                ("worker", Val::Num(n)) => worker = n.parse::<usize>().ok(),
                ("attempt", Val::Num(n)) => attempt = n.parse::<u32>().ok(),
                ("deadline_s", Val::Num(n)) => deadline_s = n.parse::<f64>().ok(),
                _ => return None,
            }
        }
        if !is_lease {
            return None;
        }
        Some(LeaseEntry {
            target: target?,
            fingerprint: fp?,
            worker: worker?,
            attempt: attempt?,
            deadline_s: deadline_s?,
        })
    }
}

// ---------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------

/// The append-only manifest journal backing `repro --resume`.
#[derive(Debug)]
pub struct Journal {
    log: AppendLog,
    entries: Vec<ManifestEntry>,
    leases: Vec<LeaseEntry>,
}

impl Journal {
    /// Opens (or implicitly creates) the journal in `dir`. A missing
    /// file yields an empty journal; unparseable lines — the torn
    /// trailing line a crash can leave — are skipped, which at worst
    /// re-runs the experiment that was mid-journal when the process
    /// died. An unterminated tail is healed with a newline so the next
    /// [`record`](Journal::record) can't merge into the torn fragment.
    pub fn open(dir: &Path) -> io::Result<Journal> {
        let (log, text) = AppendLog::open(dir.join(MANIFEST_FILE))?;
        let mut entries = Vec::new();
        let mut leases = Vec::new();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            if let Some(e) = ManifestEntry::parse_line(line) {
                entries.push(e);
            } else if let Some(l) = LeaseEntry::parse_line(line) {
                leases.push(l);
            }
        }
        Ok(Journal {
            log,
            entries,
            leases,
        })
    }

    /// Entries read at open plus those recorded since.
    pub fn entries(&self) -> &[ManifestEntry] {
        &self.entries
    }

    /// Lease lines read at open.
    pub fn leases(&self) -> &[LeaseEntry] {
        &self.leases
    }

    /// Fingerprints with a journaled lease but no terminal
    /// `done`/`failed` entry — the in-flight units a dead orchestrator
    /// orphaned. `--resume` reports these and re-runs them.
    pub fn orphaned_leases(&self) -> Vec<&LeaseEntry> {
        let mut seen = std::collections::BTreeSet::new();
        self.leases
            .iter()
            .filter(|l| {
                self.entries.iter().all(|e| e.fingerprint != l.fingerprint)
                    && seen.insert(l.fingerprint)
            })
            .collect()
    }

    /// True when `target` is journaled as [`EntryStatus::Done`] with
    /// the given fingerprint — the `--resume` skip test. A later
    /// `failed` entry for the same point does not un-complete it (the
    /// artifacts of the earlier success are still on disk, atomically).
    pub fn completed(&self, target: &str, fp: u64) -> bool {
        self.entries
            .iter()
            .any(|e| e.status == EntryStatus::Done && e.target == target && e.fingerprint == fp)
    }

    /// Appends one entry line and flushes it to disk before returning,
    /// then mirrors it into the in-memory view.
    pub fn record(&mut self, entry: ManifestEntry) -> io::Result<()> {
        self.log.append(entry.to_jsonl())?;
        self.entries.push(entry);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Advisory single-orchestrator lock
// ---------------------------------------------------------------------

/// Why [`DirLock::acquire`] failed.
#[derive(Debug)]
pub enum LockError {
    /// Another live orchestrator (with the given PID, when readable)
    /// holds the directory.
    Busy {
        /// PID read from the lock file, if it parsed.
        pid: Option<u32>,
    },
    /// Filesystem error creating or inspecting the lock.
    Io(io::Error),
}

impl std::fmt::Display for LockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LockError::Busy { pid: Some(pid) } => write!(
                f,
                "another orchestrator (pid {pid}) holds this output directory"
            ),
            LockError::Busy { pid: None } => {
                write!(f, "another orchestrator holds this output directory")
            }
            LockError::Io(e) => write!(f, "lock file error: {e}"),
        }
    }
}

/// Advisory lock asserting single-committer ownership of an output
/// directory: journal torn-tail healing and the in-order commit both
/// assume exactly one orchestrator writes `manifest.jsonl` at a time.
/// The lock is a `.orchestrator.lock` file created with
/// `O_EXCL` and holding the owner's PID; a stale lock (owner no longer
/// alive) is stolen, a live one is a hard [`LockError::Busy`] the
/// binaries turn into an exit-2 usage diagnostic. Dropped on scope
/// exit; a SIGKILL'd owner leaves a stale file the next run reclaims.
#[derive(Debug)]
pub struct DirLock {
    path: PathBuf,
}

impl DirLock {
    /// Claims the advisory lock in `dir`, stealing it when the recorded
    /// owner is dead.
    pub fn acquire(dir: &Path) -> Result<DirLock, LockError> {
        let path = dir.join(LOCK_FILE);
        // Two tries: one against a possibly-stale existing file, one
        // after removing it. A third failure means a live race.
        for _ in 0..2 {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut f) => {
                    let _ = writeln!(f, "{}", std::process::id());
                    let _ = f.sync_all();
                    return Ok(DirLock { path });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let pid = fs::read_to_string(&path)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    match pid {
                        Some(pid) if pid != std::process::id() && pid_alive(pid) => {
                            return Err(LockError::Busy { pid: Some(pid) });
                        }
                        Some(_) => {
                            // Stale (owner dead) or our own leftover:
                            // remove and retry the exclusive create.
                            let _ = fs::remove_file(&path);
                        }
                        None => return Err(LockError::Busy { pid: None }),
                    }
                }
                Err(e) => return Err(LockError::Io(e)),
            }
        }
        Err(LockError::Busy { pid: None })
    }
}

impl Drop for DirLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Best-effort liveness probe for a PID. On Linux `/proc/<pid>` is
/// authoritative; on other Unixes we fall back to a `kill -0`-style
/// probe (signal 0 delivers nothing but reports whether the process
/// exists), so stale-lock stealing works portably. Anywhere else we
/// conservatively report alive — stale locks there need manual removal
/// rather than risking a steal from a live process.
fn pid_alive(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        Path::new(&format!("/proc/{pid}")).exists()
    } else if cfg!(unix) {
        pid_alive_kill0(pid)
    } else {
        true
    }
}

/// `kill(pid, 0)`-style probe via the portable `kill` utility: signal 0
/// delivers nothing but reports whether the target exists. Exit 0 means
/// alive; a nonzero exit only proves death when the diagnostic names a
/// missing process (EPERM also fails the signal, but the process
/// exists). A spawn failure is treated as alive, the conservative
/// answer — never steal a lock we cannot prove stale.
fn pid_alive_kill0(pid: u32) -> bool {
    match std::process::Command::new("kill")
        .args(["-0", &pid.to_string()])
        .output()
    {
        Ok(out) if out.status.success() => true,
        Ok(out) => !String::from_utf8_lossy(&out.stderr)
            .to_lowercase()
            .contains("no such process"),
        Err(_) => true,
    }
}

// ---------------------------------------------------------------------
// Failure report
// ---------------------------------------------------------------------

/// One quarantined run in the failure report: a [`FailureRecord`] plus
/// the experiment it happened under.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureEntry {
    /// Experiment name the run belonged to.
    pub target: String,
    /// Protocol display name of the failed run.
    pub protocol: String,
    /// Node count of the failed run.
    pub nodes: usize,
    /// Seed of the failed run.
    pub seed: u64,
    /// Human-readable error ("panicked: ...", "run aborted: ...").
    pub error: String,
    /// One-line `simrun` command reproducing the failing point.
    pub replay: String,
}

impl FailureEntry {
    /// Binds a runner ledger record to the experiment it surfaced in.
    pub fn from_record(target: &str, r: FailureRecord) -> FailureEntry {
        FailureEntry {
            target: target.to_owned(),
            protocol: r.protocol,
            nodes: r.nodes,
            seed: r.seed,
            error: r.error,
            replay: r.replay,
        }
    }

    /// Encodes the entry as one JSONL line (no trailing newline),
    /// stable key order.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::from("{\"target\":");
        push_str_escaped(&mut s, &self.target);
        s.push_str(",\"protocol\":");
        push_str_escaped(&mut s, &self.protocol);
        let _ = write!(
            s,
            ",\"nodes\":{},\"seed\":{},\"error\":",
            self.nodes, self.seed
        );
        push_str_escaped(&mut s, &self.error);
        s.push_str(",\"replay\":");
        push_str_escaped(&mut s, &self.replay);
        s.push('}');
        s
    }

    /// Decodes one failure line; `None` on malformation.
    pub fn parse_line(line: &str) -> Option<Self> {
        let fields = parse_object(line, 0).ok()?;
        let mut target = None;
        let mut protocol = None;
        let mut nodes = None;
        let mut seed = None;
        let mut error = None;
        let mut replay = None;
        for (key, val) in fields {
            match (key.as_str(), val) {
                ("target", Val::Str(s)) => target = Some(s),
                ("protocol", Val::Str(s)) => protocol = Some(s),
                ("nodes", Val::Num(n)) => nodes = n.parse::<usize>().ok(),
                ("seed", Val::Num(n)) => seed = n.parse::<u64>().ok(),
                ("error", Val::Str(s)) => error = Some(s),
                ("replay", Val::Str(s)) => replay = Some(s),
                _ => return None,
            }
        }
        Some(FailureEntry {
            target: target?,
            protocol: protocol?,
            nodes: nodes?,
            seed: seed?,
            error: error?,
            replay: replay?,
        })
    }
}

/// Append-only writer for the campaign failure report. The file is
/// only created on the first failure, so a clean campaign leaves no
/// `failures.jsonl` behind.
#[derive(Debug)]
pub struct FailureSink {
    log: AppendLog,
    count: usize,
}

impl FailureSink {
    /// A sink writing to `failures.jsonl` under `dir`.
    pub fn new(dir: &Path) -> FailureSink {
        FailureSink {
            log: AppendLog::new(dir.join(FAILURES_FILE)),
            count: 0,
        }
    }

    /// Appends one failure line, flushed to disk before returning.
    pub fn append(&mut self, entry: &FailureEntry) -> io::Result<()> {
        self.log.append(entry.to_jsonl())?;
        self.count += 1;
        Ok(())
    }

    /// Failures appended through this sink.
    pub fn count(&self) -> usize {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("alert_orch_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn entry(target: &str, status: EntryStatus) -> ManifestEntry {
        ManifestEntry {
            target: target.to_owned(),
            fingerprint: fingerprint(target, 30),
            runs: 30,
            status,
            wall_s: 1.25,
        }
    }

    #[test]
    fn fingerprint_is_deterministic_and_sensitive() {
        assert_eq!(fingerprint("fig9a", 30), fingerprint("fig9a", 30));
        assert_ne!(fingerprint("fig9a", 30), fingerprint("fig9a", 31));
        assert_ne!(fingerprint("fig9a", 30), fingerprint("fig9b", 30));
        // Field boundaries don't alias.
        assert_ne!(fingerprint("ab", 1), fingerprint("a", 1));
    }

    #[test]
    fn manifest_entries_round_trip() {
        let e = entry("fig9a", EntryStatus::Done);
        assert_eq!(
            e.to_jsonl(),
            format!(
                "{{\"target\":\"fig9a\",\"fingerprint\":{},\"runs\":30,\
                 \"status\":\"done\",\"wall_s\":1.25}}",
                e.fingerprint
            )
        );
        assert_eq!(ManifestEntry::parse_line(&e.to_jsonl()), Some(e));
    }

    #[test]
    fn hostile_target_names_round_trip() {
        let mut e = entry("x", EntryStatus::Failed);
        e.target = "we\"ird\\name\nwith\tescapes".to_owned();
        assert_eq!(ManifestEntry::parse_line(&e.to_jsonl()), Some(e));
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for line in [
            "",
            "{",
            "{}",
            "not json",
            "{\"target\":\"x\"}",             // missing fields
            "{\"target\":\"x\",\"bogus\":1}", // unknown key
            "{\"target\":7,\"fingerprint\":1,\"runs\":1,\"status\":\"done\",\"wall_s\":1}", // wrong type
            "{\"target\":\"x\",\"fingerprint\":1,\"runs\":1,\"status\":\"done\",\"wall_s\":true}", // bool for a number
        ] {
            assert_eq!(ManifestEntry::parse_line(line), None, "line: {line}");
        }
    }

    #[test]
    fn journal_records_and_resumes() {
        let dir = scratch_dir("journal");
        let mut j = Journal::open(&dir).unwrap();
        assert!(j.entries().is_empty());
        j.record(entry("fig9a", EntryStatus::Done)).unwrap();
        j.record(entry("fig9b", EntryStatus::Failed)).unwrap();

        let j2 = Journal::open(&dir).unwrap();
        assert_eq!(j2.entries().len(), 2);
        assert!(j2.completed("fig9a", fingerprint("fig9a", 30)));
        // Failed entries never count as completed.
        assert!(!j2.completed("fig9b", fingerprint("fig9b", 30)));
        // Fingerprint mismatch (different --runs) never counts.
        assert!(!j2.completed("fig9a", fingerprint("fig9a", 10)));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn append_log_heals_a_torn_tail() {
        let dir = scratch_dir("append_log");
        let path = dir.join("log.jsonl");
        // A missing file reads as empty, and opening does not create it.
        let (mut log, text) = AppendLog::open(path.clone()).unwrap();
        assert!(text.is_empty());
        assert!(!path.exists());
        log.append("{\"n\":1}".to_owned()).unwrap();
        // Simulate a crash mid-append: a truncated second line.
        let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"n\":2,\"fing").unwrap();
        drop(f);

        // Open hands back the text as read, torn tail included, for the
        // owner's parser to skip...
        let (mut log, text) = AppendLog::open(path.clone()).unwrap();
        assert_eq!(text, "{\"n\":1}\n{\"n\":2,\"fing");
        // ...and healed the tail on disk, so the next append lands on
        // its own line.
        log.append("{\"n\":3}".to_owned()).unwrap();
        let healed = "{\"n\":1}\n{\"n\":2,\"fing\n{\"n\":3}\n";
        assert_eq!(fs::read_to_string(&path).unwrap(), healed);
        // A newline-terminated log is left as it is.
        let (_, text) = AppendLog::open(path.clone()).unwrap();
        assert_eq!(text, healed);
        assert_eq!(fs::read_to_string(&path).unwrap(), healed);
        let _ = fs::remove_dir_all(dir);
    }

    /// Written by an earlier build of `Journal`: lease, done and failed
    /// lines, a target with every escape, and a torn tail.
    const MANIFEST_FIXTURE: &str = include_str!("../tests/fixtures/journal/manifest.jsonl");

    /// Written by an earlier build of `FailureSink`, torn tail included.
    const FAILURES_FIXTURE: &str = include_str!("../tests/fixtures/journal/failures.jsonl");

    /// Every line of `text` but the torn last one.
    fn complete_lines(text: &str) -> std::str::Lines<'_> {
        text.rsplit_once('\n')
            .expect("fixture has a torn tail")
            .0
            .lines()
    }

    #[test]
    fn journal_fixture_replays_and_re_encodes_byte_for_byte() {
        let dir = scratch_dir("fixture");
        fs::write(dir.join(MANIFEST_FILE), MANIFEST_FIXTURE).unwrap();
        let mut j = Journal::open(&dir).unwrap();
        let done = |target: &str, fingerprint: u64, runs, status, wall_s| ManifestEntry {
            target: target.to_owned(),
            fingerprint,
            runs,
            status,
            wall_s,
        };
        let weird = "we\"ird\\name\n\ttab\u{1}";
        assert_eq!(
            j.entries(),
            [
                done("fig9a", 11310465204795074070, 3, EntryStatus::Done, 12.5),
                done("fig9b", 8621696317899109405, 3, EntryStatus::Failed, 0.125),
                done(weird, 4890546237562377228, 30, EntryStatus::Done, 1e-7),
            ]
        );
        let lease = |target: &str, fingerprint: u64, worker, attempt, deadline_s| LeaseEntry {
            target: target.to_owned(),
            fingerprint,
            worker,
            attempt,
            deadline_s,
        };
        let fig11 = lease("fig11", 12471584639079553790, 1, 1, 603.5);
        assert_eq!(
            j.leases(),
            [
                lease("fig9a", 11310465204795074070, 0, 1, 600.25),
                lease("fig9b", 8621696317899109405, 1, 1, 601.0),
                fig11.clone(),
                lease("fig11", 12471584639079553790, 0, 2, 1203.75),
            ]
        );
        assert_eq!(j.orphaned_leases(), [&fig11]);
        assert!(j.completed("fig9a", fingerprint("fig9a", 3)));
        assert!(!j.completed("fig9b", fingerprint("fig9b", 3)));
        assert!(j.completed(weird, fingerprint(weird, 30)));

        // Today's encoder writes the earlier build's bytes.
        for line in complete_lines(MANIFEST_FIXTURE) {
            let again = ManifestEntry::parse_line(line)
                .map(|e| e.to_jsonl())
                .or_else(|| LeaseEntry::parse_line(line).map(|l| l.to_jsonl()));
            assert_eq!(again.as_deref(), Some(line));
        }

        // The healed journal stays appendable.
        j.record(entry("fig12", EntryStatus::Done)).unwrap();
        let j = Journal::open(&dir).unwrap();
        assert_eq!(j.entries().len(), 4);
        assert!(j.completed("fig12", fingerprint("fig12", 30)));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn failure_fixture_parses_and_re_encodes_byte_for_byte() {
        let parsed: Vec<_> = FAILURES_FIXTURE
            .lines()
            .filter_map(FailureEntry::parse_line)
            .collect();
        assert_eq!(
            parsed,
            [
                FailureEntry {
                    target: "churn".to_owned(),
                    protocol: "ALERT".to_owned(),
                    nodes: 200,
                    seed: 41287,
                    error: "panicked: index out of bounds: the len is 3 but the index is 7"
                        .to_owned(),
                    replay: "simrun --protocol alert --nodes 200 --pairs 4 --duration 60 \
                             --seed 41287"
                        .to_owned(),
                },
                FailureEntry {
                    target: "fig9b".to_owned(),
                    protocol: "GPSR".to_owned(),
                    nodes: 50,
                    seed: u64::MAX,
                    error: "run aborted: \"quoted\" back\\slash\nnext line\u{7}bell".to_owned(),
                    replay: "simrun --protocol gpsr --nodes 50 --seed 18446744073709551615"
                        .to_owned(),
                },
            ]
        );
        let lines: Vec<_> = complete_lines(FAILURES_FIXTURE).collect();
        let again: Vec<_> = parsed.iter().map(FailureEntry::to_jsonl).collect();
        assert_eq!(again, lines);
    }

    #[test]
    fn write_atomic_leaves_no_temp_files() {
        let dir = scratch_dir("atomic");
        let path = dir.join("out.csv");
        write_atomic(&path, "a,b\n1,2\n").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "a,b\n1,2\n");
        write_atomic(&path, "a,b\n3,4\n").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "a,b\n3,4\n");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n != "out.csv")
            .collect();
        assert!(leftovers.is_empty(), "stray files: {leftovers:?}");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn failure_sink_appends_parseable_lines() {
        let dir = scratch_dir("failures");
        let mut sink = FailureSink::new(&dir);
        assert_eq!(sink.count(), 0);
        // A clean campaign creates no file at all.
        assert!(!dir.join(FAILURES_FILE).exists());

        let e = FailureEntry {
            target: "churn".to_owned(),
            protocol: "ALERT".to_owned(),
            nodes: 200,
            seed: 41287,
            error: "panicked: index out of bounds".to_owned(),
            replay: "simrun --protocol alert --nodes 200 --pairs 4 --duration 60 --seed 41287"
                .to_owned(),
        };
        sink.append(&e).unwrap();
        sink.append(&e).unwrap();
        assert_eq!(sink.count(), 2);
        let text = fs::read_to_string(dir.join(FAILURES_FILE)).unwrap();
        let parsed: Vec<_> = text
            .lines()
            .map(|l| FailureEntry::parse_line(l).unwrap())
            .collect();
        assert_eq!(parsed, vec![e.clone(), e]);
        let _ = fs::remove_dir_all(dir);
    }

    fn lease(target: &str, worker: usize, attempt: u32) -> LeaseEntry {
        LeaseEntry {
            target: target.to_owned(),
            fingerprint: fingerprint(target, 30),
            worker,
            attempt,
            deadline_s: 612.5,
        }
    }

    #[test]
    fn lease_entries_round_trip_and_stay_invisible_to_v1() {
        let l = lease("fig9a", 2, 1);
        assert_eq!(
            l.to_jsonl(),
            format!(
                "{{\"rec\":\"lease\",\"target\":\"fig9a\",\"fingerprint\":{},\
                 \"worker\":2,\"attempt\":1,\"deadline_s\":612.5}}",
                l.fingerprint
            )
        );
        assert_eq!(LeaseEntry::parse_line(&l.to_jsonl()), Some(l.clone()));
        // A v1-style strict parser (ManifestEntry) rejects lease lines
        // whole instead of misreading them.
        assert_eq!(ManifestEntry::parse_line(&l.to_jsonl()), None);
        // And the lease parser rejects terminal entries.
        let e = entry("fig9a", EntryStatus::Done);
        assert_eq!(LeaseEntry::parse_line(&e.to_jsonl()), None);
    }

    #[test]
    fn journal_tracks_orphaned_leases() {
        let dir = scratch_dir("leases");
        let mut j = Journal::open(&dir).unwrap();
        // fig9a: leased then finished. fig9b: leased twice (retry),
        // never finished — one orphan, deduped by fingerprint.
        j.log.append(lease("fig9a", 0, 1).to_jsonl()).unwrap();
        j.record(entry("fig9a", EntryStatus::Done)).unwrap();
        j.log.append(lease("fig9b", 1, 1).to_jsonl()).unwrap();
        j.log.append(lease("fig9b", 0, 2).to_jsonl()).unwrap();

        let j2 = Journal::open(&dir).unwrap();
        assert_eq!(j2.entries().len(), 1);
        assert_eq!(j2.leases().len(), 3);
        let orphans = j2.orphaned_leases();
        assert_eq!(orphans.len(), 1);
        assert_eq!(orphans[0].target, "fig9b");
        // Completion logic is untouched by lease lines.
        assert!(j2.completed("fig9a", fingerprint("fig9a", 30)));
        assert!(!j2.completed("fig9b", fingerprint("fig9b", 30)));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn fingerprint_with_separates_fields() {
        assert_eq!(
            fingerprint("fig9a", 30),
            fingerprint_with(&[b"fig9a", &30u64.to_le_bytes()])
        );
        assert_ne!(
            fingerprint_with(&[b"ab", b"c"]),
            fingerprint_with(&[b"a", b"bc"])
        );
        assert_ne!(fingerprint_with(&[b"a"]), fingerprint_with(&[b"a", b""]));
    }

    #[test]
    #[cfg(unix)]
    fn kill0_probe_distinguishes_live_from_dead() {
        // Our own PID is provably alive; a PID far above any real
        // pid_max is provably dead. This exercises the portable
        // non-/proc fallback path directly, on every Unix.
        assert!(pid_alive_kill0(std::process::id()));
        assert!(pid_alive_kill0(1), "init/launchd is always alive");
        assert!(!pid_alive_kill0(999_999_999));
    }

    #[test]
    fn stale_lock_steal_works_through_both_probe_paths() {
        // The lock-stealing decision must agree between the /proc probe
        // (Linux) and the kill -0 fallback: whatever platform this test
        // runs on, a dead owner's lock is stolen and a live owner's is
        // honored. This is the portable stale-steal regression test.
        let dir = scratch_dir("lock_probe");
        fs::write(dir.join(LOCK_FILE), "999999999\n").unwrap();
        let lock = DirLock::acquire(&dir).expect("dead owner must be stolen");
        drop(lock);
        fs::write(dir.join(LOCK_FILE), format!("{}\n", std::process::id())).unwrap();
        // Our own pid in the file is treated as a leftover from a
        // previous run of this process and reclaimed (documented
        // behavior), so probe liveness with PID 1 instead.
        fs::write(dir.join(LOCK_FILE), "1\n").unwrap();
        match DirLock::acquire(&dir) {
            Err(LockError::Busy { pid: Some(1) }) => {}
            other => panic!("live owner must exclude: {other:?}"),
        }
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn dir_lock_excludes_live_owner_and_steals_stale() {
        let dir = scratch_dir("lock");
        let lock = DirLock::acquire(&dir).expect("first acquire");
        // Same-process second acquire: the recorded owner (us) is
        // alive, but pid == ours means a leftover from this process —
        // realistic only across runs, so simulate a *foreign* live
        // owner with PID 1 (init, always alive on Linux).
        drop(lock);
        fs::write(dir.join(LOCK_FILE), "1\n").unwrap();
        match DirLock::acquire(&dir) {
            Err(LockError::Busy { pid: Some(1) }) => {}
            other => panic!("expected Busy{{pid:1}}, got {other:?}"),
        }
        // A dead owner is stolen.
        fs::write(dir.join(LOCK_FILE), "999999999\n").unwrap();
        let lock = DirLock::acquire(&dir).expect("steal stale lock");
        assert!(dir.join(LOCK_FILE).exists());
        drop(lock);
        assert!(!dir.join(LOCK_FILE).exists(), "drop releases the lock");
        let _ = fs::remove_dir_all(dir);
    }
}
