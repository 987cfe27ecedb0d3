//! The durable job journal: every admission decision and terminal
//! outcome, fsync'd before it is acknowledged.
//!
//! The journal is the daemon's only source of truth across crashes. It
//! is append-only flat JSONL (`alertd-jobs/1`) in the daemon's wire
//! dialect (see [`crate::protocol`]), stored in an
//! [`alert_bench::AppendLog`] like the repro manifest, with a `"rec"`
//! discriminator per line:
//!
//! ```json
//! {"rec":"submit","fp":"00ab…","force":0,"protocol":"gpsr","nodes":60,…}
//! {"rec":"lease","fp":"00ab…","worker":0,"attempt":1}
//! {"rec":"done","fp":"00ab…","version":1}
//! {"rec":"failed","fp":"00ab…","error":"run aborted: …"}
//! {"rec":"cancelled","fp":"00ab…"}
//! {"rec":"quarantined","fp":"00ab…","error":"killed the dispatcher twice"}
//! {"rec":"rollback","fp":"00ab…","version":1}
//! ```
//!
//! Recovery is a fold over the lines in order ([`JobJournal::open`]):
//! the last record wins, a `submit` with no later terminal record is
//! pending work, and a `lease` with no later terminal record marks an
//! orphan the dead process never finished (reported, then simply
//! re-run). The torn trailing line a `kill -9` can leave is skipped and
//! healed with a newline on re-open, exactly like the repro manifest —
//! at worst one acknowledgment is lost, and the client's retry dedupes
//! by fingerprint.
//!
//! The daemon no longer writes `quarantined`: older builds journaled it
//! for a job that crashed their dispatcher twice. It still replays, and
//! such a job stays barred until a forced resubmit.

use crate::protocol::parse_fields;
use crate::spec::JobSpec;
use alert_bench::AppendLog;
use alert_trace::{push_str_escaped, Val};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// File name of the job journal inside the daemon directory.
pub const JOURNAL_FILE: &str = "alertd-jobs.jsonl";

/// One journal line, decoded.
#[derive(Debug, Clone, PartialEq)]
pub enum JobRecord {
    /// A job was admitted (fsync'd before the ack). `force` re-runs an
    /// already-completed fingerprint into a new result version.
    Submit {
        /// Job fingerprint.
        fp: u64,
        /// Whether this submission forces a re-run.
        force: bool,
        /// The submitted spec.
        spec: JobSpec,
    },
    /// A worker claimed the job (attempt `attempt`).
    Lease {
        /// Job fingerprint.
        fp: u64,
        /// Claiming worker id.
        worker: usize,
        /// 1-based attempt number.
        attempt: u32,
    },
    /// The job's artifacts were promoted as `results/<fp>/v<version>`.
    Done {
        /// Job fingerprint.
        fp: u64,
        /// Promoted result version.
        version: u32,
    },
    /// Every attempt failed; the error is terminal.
    Failed {
        /// Job fingerprint.
        fp: u64,
        /// Last failure message.
        error: String,
    },
    /// The client cancelled the job before it ran.
    Cancelled {
        /// Job fingerprint.
        fp: u64,
    },
    /// The job killed an older build's dispatcher twice and is barred
    /// from running. Replayed only; the daemon no longer writes it.
    Quarantined {
        /// Job fingerprint.
        fp: u64,
        /// Why it was quarantined.
        error: String,
    },
    /// `CURRENT` was switched back to an older result version.
    Rollback {
        /// Job fingerprint.
        fp: u64,
        /// Version `CURRENT` now points at.
        version: u32,
    },
}

impl JobRecord {
    /// The fingerprint the record is about.
    pub fn fp(&self) -> u64 {
        match self {
            JobRecord::Submit { fp, .. }
            | JobRecord::Lease { fp, .. }
            | JobRecord::Done { fp, .. }
            | JobRecord::Failed { fp, .. }
            | JobRecord::Cancelled { fp }
            | JobRecord::Quarantined { fp, .. }
            | JobRecord::Rollback { fp, .. } => *fp,
        }
    }

    /// Encodes the record as one JSONL line (no trailing newline),
    /// stable key order.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::from("{\"rec\":");
        let (rec, fp) = match self {
            JobRecord::Submit { fp, .. } => ("submit", fp),
            JobRecord::Lease { fp, .. } => ("lease", fp),
            JobRecord::Done { fp, .. } => ("done", fp),
            JobRecord::Failed { fp, .. } => ("failed", fp),
            JobRecord::Cancelled { fp } => ("cancelled", fp),
            JobRecord::Quarantined { fp, .. } => ("quarantined", fp),
            JobRecord::Rollback { fp, .. } => ("rollback", fp),
        };
        let _ = write!(s, "\"{rec}\",\"fp\":\"{fp:016x}\"");
        match self {
            JobRecord::Submit { force, spec, .. } => {
                let _ = write!(s, ",\"force\":{},", u8::from(*force));
                spec.push_fields(&mut s);
            }
            JobRecord::Lease {
                worker, attempt, ..
            } => {
                let _ = write!(s, ",\"worker\":{worker},\"attempt\":{attempt}");
            }
            JobRecord::Done { version, .. } | JobRecord::Rollback { version, .. } => {
                let _ = write!(s, ",\"version\":{version}");
            }
            JobRecord::Failed { error, .. } | JobRecord::Quarantined { error, .. } => {
                s.push_str(",\"error\":");
                push_str_escaped(&mut s, error);
            }
            JobRecord::Cancelled { .. } => {}
        }
        s.push('}');
        s
    }

    /// Decodes one journal line; `None` on malformation (torn tail) or
    /// an unknown record kind (written by a newer build — skipped, not
    /// fatal).
    pub fn parse_line(line: &str) -> Option<JobRecord> {
        let fields = parse_fields(line)?;
        let mut rec = None;
        let mut fp = None;
        let mut force = false;
        let mut worker = None;
        let mut attempt = None;
        let mut version = None;
        let mut error = None;
        for (key, val) in &fields {
            match (key.as_str(), val) {
                ("rec", Val::Str(s)) => rec = Some(s.clone()),
                ("fp", Val::Str(s)) => fp = crate::spec::parse_fp_hex(s),
                ("force", Val::Num(n)) => force = n.parse::<u8>().ok()? != 0,
                ("worker", Val::Num(n)) => worker = n.parse::<usize>().ok(),
                ("attempt", Val::Num(n)) => attempt = n.parse::<u32>().ok(),
                ("version", Val::Num(n)) => version = n.parse::<u32>().ok(),
                ("error", Val::Str(s)) => error = Some(s.clone()),
                _ => {}
            }
        }
        let fp = fp?;
        Some(match rec?.as_str() {
            "submit" => JobRecord::Submit {
                fp,
                force,
                spec: JobSpec::from_fields(&fields)?,
            },
            "lease" => JobRecord::Lease {
                fp,
                worker: worker?,
                attempt: attempt?,
            },
            "done" => JobRecord::Done {
                fp,
                version: version?,
            },
            "failed" => JobRecord::Failed { fp, error: error? },
            "cancelled" => JobRecord::Cancelled { fp },
            "quarantined" => JobRecord::Quarantined { fp, error: error? },
            "rollback" => JobRecord::Rollback {
                fp,
                version: version?,
            },
            _ => return None,
        })
    }
}

/// A job's state as reconstructed by replay (and maintained live by the
/// server, which journals the same transitions it applies in memory).
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// Submitted (or orphaned mid-run) and awaiting execution.
    Pending,
    /// Claimed by a worker in this process. Never survives a replay:
    /// a crashed run's leases fold back to [`JobState::Pending`].
    Running,
    /// Artifacts promoted; `CURRENT` points at `version`.
    Done {
        /// Result version `CURRENT` points at.
        version: u32,
    },
    /// Attempts exhausted.
    Failed {
        /// Last failure message.
        error: String,
    },
    /// Cancelled before it ran.
    Cancelled,
    /// Barred from running by a replayed `quarantined` record.
    Quarantined {
        /// Why it was quarantined.
        error: String,
    },
}

impl JobState {
    /// Stable wire token for status responses.
    pub fn as_str(&self) -> &'static str {
        match self {
            JobState::Pending => "pending",
            JobState::Running => "running",
            JobState::Done { .. } => "done",
            JobState::Failed { .. } => "failed",
            JobState::Cancelled => "cancelled",
            JobState::Quarantined { .. } => "quarantined",
        }
    }

    /// True for states that need no further work.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobState::Pending | JobState::Running)
    }
}

/// One job after replay: its last submitted spec and folded state.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayedJob {
    /// The job's (latest) spec.
    pub spec: JobSpec,
    /// Folded state; leases with no terminal record leave the job
    /// [`JobState::Pending`].
    pub state: JobState,
    /// Whether the latest submission was a force re-run.
    pub force: bool,
    /// True when the job has a lease record newer than any terminal
    /// record — the dead process was executing it when it died.
    pub orphaned: bool,
}

/// The append-only job journal. Every append is fsync'd before it
/// returns — the caller may acknowledge a client only after.
#[derive(Debug)]
pub struct JobJournal {
    log: AppendLog,
    records: usize,
}

impl JobJournal {
    /// Opens (or implicitly creates) the journal in `dir`, healing an
    /// unterminated tail so the next append starts on a fresh line.
    /// Returns the journal and the replayed job table.
    pub fn open(dir: &Path) -> io::Result<(JobJournal, BTreeMap<u64, ReplayedJob>)> {
        let (log, text) = AppendLog::open(dir.join(JOURNAL_FILE))?;
        let mut jobs: BTreeMap<u64, ReplayedJob> = BTreeMap::new();
        let mut records = 0usize;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let Some(rec) = JobRecord::parse_line(line) else {
                continue; // torn tail or a newer build's record
            };
            records += 1;
            Self::fold(&mut jobs, rec);
        }
        Ok((JobJournal { log, records }, jobs))
    }

    /// Applies one record to the replay table. Shared by replay and (in
    /// spirit) the live server, so recovery cannot disagree with the
    /// process it recovers.
    fn fold(jobs: &mut BTreeMap<u64, ReplayedJob>, rec: JobRecord) {
        match rec {
            JobRecord::Submit { fp, force, spec } => {
                jobs.insert(
                    fp,
                    ReplayedJob {
                        spec,
                        state: JobState::Pending,
                        force,
                        orphaned: false,
                    },
                );
            }
            JobRecord::Lease { fp, .. } => {
                if let Some(job) = jobs.get_mut(&fp) {
                    if !job.state.is_terminal() {
                        job.orphaned = true;
                    }
                }
            }
            JobRecord::Done { fp, version } => {
                if let Some(job) = jobs.get_mut(&fp) {
                    job.state = JobState::Done { version };
                    job.orphaned = false;
                }
            }
            JobRecord::Failed { fp, error } => {
                if let Some(job) = jobs.get_mut(&fp) {
                    job.state = JobState::Failed { error };
                    job.orphaned = false;
                }
            }
            JobRecord::Cancelled { fp } => {
                if let Some(job) = jobs.get_mut(&fp) {
                    job.state = JobState::Cancelled;
                    job.orphaned = false;
                }
            }
            JobRecord::Quarantined { fp, error } => {
                if let Some(job) = jobs.get_mut(&fp) {
                    job.state = JobState::Quarantined { error };
                    job.orphaned = false;
                }
            }
            JobRecord::Rollback { fp, version } => {
                if let Some(job) = jobs.get_mut(&fp) {
                    if matches!(job.state, JobState::Done { .. }) {
                        job.state = JobState::Done { version };
                    }
                }
            }
        }
    }

    /// Appends one record and fsyncs before returning. Only after this
    /// returns may the transition it records be acknowledged or acted
    /// on — journal-before-ack is the crash-only invariant.
    pub fn append(&mut self, rec: &JobRecord) -> io::Result<()> {
        self.log.append(rec.to_jsonl())?;
        self.records += 1;
        Ok(())
    }

    /// Records appended plus records replayed at open.
    pub fn records(&self) -> usize {
        self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("alertd_journal_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn submit(spec: &JobSpec) -> JobRecord {
        JobRecord::Submit {
            fp: spec.fingerprint(),
            force: false,
            spec: spec.clone(),
        }
    }

    #[test]
    fn every_record_kind_round_trips() {
        let spec = JobSpec::default();
        let fp = spec.fingerprint();
        let records = [
            submit(&spec),
            JobRecord::Lease {
                fp,
                worker: 1,
                attempt: 2,
            },
            JobRecord::Done { fp, version: 3 },
            JobRecord::Failed {
                fp,
                error: "run aborted: \"weird\"\nmessage".to_owned(),
            },
            JobRecord::Cancelled { fp },
            JobRecord::Quarantined {
                fp,
                error: "killed the dispatcher twice".to_owned(),
            },
            JobRecord::Rollback { fp, version: 1 },
        ];
        for rec in records {
            assert_eq!(JobRecord::parse_line(&rec.to_jsonl()), Some(rec.clone()));
        }
        assert_eq!(JobRecord::parse_line("{\"rec\":\"submit\"}"), None);
        assert_eq!(JobRecord::parse_line("not json"), None);
        // A boolean where a number belongs is refused, not defaulted.
        let lease = "{\"rec\":\"lease\",\"fp\":\"124842e5f1be7f19\",\"worker\":0,\"attempt\":1}";
        assert!(JobRecord::parse_line(lease).is_some());
        assert_eq!(
            JobRecord::parse_line(&lease.replace("\"worker\":0", "\"worker\":true")),
            None
        );
    }

    #[test]
    fn replay_folds_lifecycles() {
        let dir = scratch_dir("fold");
        let a = JobSpec::default();
        let b = JobSpec {
            seed: 7,
            ..JobSpec::default()
        };
        let c = JobSpec {
            seed: 8,
            ..JobSpec::default()
        };
        let (mut j, jobs) = JobJournal::open(&dir).unwrap();
        assert!(jobs.is_empty());
        // a: submitted, leased, done. b: submitted, leased, never
        // finished (orphan). c: submitted, untouched (pending).
        j.append(&submit(&a)).unwrap();
        j.append(&JobRecord::Lease {
            fp: a.fingerprint(),
            worker: 0,
            attempt: 1,
        })
        .unwrap();
        j.append(&JobRecord::Done {
            fp: a.fingerprint(),
            version: 1,
        })
        .unwrap();
        j.append(&submit(&b)).unwrap();
        j.append(&JobRecord::Lease {
            fp: b.fingerprint(),
            worker: 1,
            attempt: 1,
        })
        .unwrap();
        j.append(&submit(&c)).unwrap();

        let (j2, jobs) = JobJournal::open(&dir).unwrap();
        assert_eq!(j2.records(), 6);
        assert_eq!(jobs[&a.fingerprint()].state, JobState::Done { version: 1 });
        assert!(!jobs[&a.fingerprint()].orphaned);
        assert_eq!(jobs[&b.fingerprint()].state, JobState::Pending);
        assert!(jobs[&b.fingerprint()].orphaned, "lease with no terminal");
        assert_eq!(jobs[&c.fingerprint()].state, JobState::Pending);
        assert!(!jobs[&c.fingerprint()].orphaned);
        let _ = fs::remove_dir_all(dir);
    }

    /// Written by an earlier build of `JobJournal`: all seven record
    /// kinds, a force resubmit later rolled back, an error with a
    /// quote, a backslash, a newline and a control character, and a
    /// torn tail.
    const FIXTURE: &str = include_str!("../tests/fixtures/alertd-jobs.jsonl");

    #[test]
    fn fixture_replays_and_re_encodes_byte_for_byte() {
        let dir = scratch_dir("fixture");
        fs::write(dir.join(JOURNAL_FILE), FIXTURE).unwrap();
        let (mut j, jobs) = JobJournal::open(&dir).unwrap();
        assert_eq!(j.records(), 19);

        let base = JobSpec::default();
        let job = |spec: &JobSpec, state, force, orphaned| ReplayedJob {
            spec: spec.clone(),
            state,
            force,
            orphaned,
        };
        let failed = JobSpec {
            protocol: "alert".to_owned(),
            seed: 7,
            max_events: Some(250_000),
            trace: true,
            every_s: Some(2.5),
            ..base.clone()
        };
        let cancelled = JobSpec {
            seed: 8,
            ..base.clone()
        };
        let quarantined = JobSpec {
            protocol: "ao2p".to_owned(),
            nodes: 120,
            pairs: 6,
            duration_s: 12.75,
            seed: 9,
            max_sim_s: Some(30.5),
            max_instant: Some(64),
            ..base.clone()
        };
        let orphan = JobSpec {
            seed: 10,
            ..base.clone()
        };
        let pending = JobSpec {
            protocol: "zap".to_owned(),
            seed: u64::MAX,
            ..base.clone()
        };
        let error = "run aborted: \"quote\" back\\slash\nnewline\u{1}ctl".to_owned();
        let expected = BTreeMap::from([
            (
                0x1078_0046_7998_e1eb,
                job(&cancelled, JobState::Cancelled, false, false),
            ),
            (
                0x1248_42e5_f1be_7f19,
                job(&base, JobState::Done { version: 1 }, true, false),
            ),
            (
                0x5bde_9ac8_537c_fa39,
                job(&orphan, JobState::Pending, false, true),
            ),
            (
                0x792c_5da0_27d5_feee,
                job(&failed, JobState::Failed { error }, false, false),
            ),
            (
                0x7fba_21d5_9796_6e0c,
                job(&pending, JobState::Pending, false, false),
            ),
            (
                0x895c_1916_d53a_740b,
                job(
                    &quarantined,
                    JobState::Quarantined {
                        error: "killed the dispatcher twice".to_owned(),
                    },
                    false,
                    false,
                ),
            ),
        ]);
        assert_eq!(jobs, expected);
        for (fp, job) in &jobs {
            assert_eq!(job.spec.fingerprint(), *fp, "fingerprints are stable");
        }

        // Today's encoder writes the earlier build's bytes.
        let (complete, torn) = FIXTURE.rsplit_once('\n').unwrap();
        assert_eq!(JobRecord::parse_line(torn), None);
        for line in complete.lines() {
            let again = JobRecord::parse_line(line).map(|r| r.to_jsonl());
            assert_eq!(again.as_deref(), Some(line));
        }

        // The healed journal stays appendable.
        let fp = orphan.fingerprint();
        j.append(&JobRecord::Done { fp, version: 1 }).unwrap();
        let (_, jobs) = JobJournal::open(&dir).unwrap();
        assert_eq!(jobs[&fp].state, JobState::Done { version: 1 });
        assert!(!jobs[&fp].orphaned);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn resubmit_and_rollback_transition_correctly() {
        let dir = scratch_dir("resubmit");
        let spec = JobSpec::default();
        let fp = spec.fingerprint();
        let (mut j, _) = JobJournal::open(&dir).unwrap();
        j.append(&submit(&spec)).unwrap();
        j.append(&JobRecord::Done { fp, version: 1 }).unwrap();
        // Force re-run: pending again, then done as v2, then rolled back.
        j.append(&JobRecord::Submit {
            fp,
            force: true,
            spec: spec.clone(),
        })
        .unwrap();
        let (_, jobs) = JobJournal::open(&dir).unwrap();
        assert_eq!(jobs[&fp].state, JobState::Pending);
        assert!(jobs[&fp].force);

        j.append(&JobRecord::Done { fp, version: 2 }).unwrap();
        j.append(&JobRecord::Rollback { fp, version: 1 }).unwrap();
        let (_, jobs) = JobJournal::open(&dir).unwrap();
        assert_eq!(jobs[&fp].state, JobState::Done { version: 1 });
        let _ = fs::remove_dir_all(dir);
    }
}
