//! The versioned result store: staged writes, atomic promotion by
//! `rename`, and `CURRENT` cutover with rollback.
//!
//! Layout under the daemon directory:
//!
//! ```text
//! results/
//!   .stage/<fp>-v<N>/        in-progress staging (dead after a crash)
//!   <fp>/v1/ v2/ ...         immutable promoted versions
//!   <fp>/CURRENT             "vN\n", written atomically
//! ```
//!
//! The `rename` of a staged directory into `results/<fp>/v<N>` is the
//! commit point: readers either see no `v<N>` or a complete one, never
//! a half-written result. Everything in `.stage/` is therefore garbage
//! by definition at startup and is swept unconditionally.
//!
//! Promotion is **content-compared**: if the newest existing version
//! already holds byte-identical artifacts, promotion just points
//! `CURRENT` at it instead of minting a duplicate. Because artifacts
//! are pure functions of the spec (see [`crate::spec::run_job`]), this
//! is what makes crash-and-re-run converge on the same bytes — the
//! "effective" half of exactly-once-effective.

use crate::spec::Artifacts;
use alert_bench::{fsync_dir, write_atomic};
use std::fs;
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};

/// Name of the staging area inside `results/`.
const STAGE_DIR: &str = ".stage";

/// The versioned artifact store rooted at `<dir>/results/`.
#[derive(Debug)]
pub struct ResultStore {
    root: PathBuf,
}

impl ResultStore {
    /// Opens (creating if needed) the store under the daemon directory.
    pub fn open(dir: &Path) -> io::Result<ResultStore> {
        let root = dir.join("results");
        fs::create_dir_all(root.join(STAGE_DIR))?;
        Ok(ResultStore { root })
    }

    fn job_dir(&self, fp: u64) -> PathBuf {
        self.root.join(format!("{fp:016x}"))
    }

    /// Path of one artifact inside a specific version.
    pub fn version_path(&self, fp: u64, version: u32) -> PathBuf {
        self.job_dir(fp).join(format!("v{version}"))
    }

    /// Removes everything in `.stage/`. A staged directory only exists
    /// between "worker finished" and "rename committed", so after a
    /// restart every entry is an orphan of a dead process. Returns how
    /// many entries were swept.
    pub fn sweep_stage(&self) -> io::Result<usize> {
        let mut swept = 0;
        for entry in fs::read_dir(self.root.join(STAGE_DIR))? {
            let entry = entry?;
            if entry.file_type()?.is_dir() {
                fs::remove_dir_all(entry.path())?;
            } else {
                fs::remove_file(entry.path())?;
            }
            swept += 1;
        }
        Ok(swept)
    }

    /// Version numbers promoted for `fp`, ascending. Empty when the job
    /// has never completed.
    pub fn versions(&self, fp: u64) -> Vec<u32> {
        let mut out = Vec::new();
        let Ok(entries) = fs::read_dir(self.job_dir(fp)) else {
            return out;
        };
        for entry in entries.flatten() {
            if let Some(v) = entry
                .file_name()
                .to_str()
                .and_then(|n| n.strip_prefix('v'))
                .and_then(|n| n.parse::<u32>().ok())
            {
                out.push(v);
            }
        }
        out.sort_unstable();
        out
    }

    /// The version `CURRENT` points at, if it exists and is a real
    /// promoted directory.
    pub fn current_version(&self, fp: u64) -> Option<u32> {
        let text = fs::read_to_string(self.job_dir(fp).join("CURRENT")).ok()?;
        let v = text.trim().strip_prefix('v')?.parse::<u32>().ok()?;
        self.version_path(fp, v).is_dir().then_some(v)
    }

    /// Promotes `artifacts` as the job's current result and returns the
    /// version `CURRENT` now points at.
    ///
    /// If the newest existing version is byte-identical, no new version
    /// is minted — `CURRENT` is (re)pointed at it. Otherwise the files
    /// are staged with per-file fsync, renamed into place in one shot,
    /// and only then does `CURRENT` cut over.
    pub fn promote(&self, fp: u64, artifacts: &Artifacts) -> io::Result<u32> {
        let versions = self.versions(fp);
        if let Some(&latest) = versions.last() {
            if self.read_version(fp, latest).as_ref() == Some(artifacts) {
                self.set_current(fp, latest)?;
                return Ok(latest);
            }
        }
        let next = versions.last().copied().unwrap_or(0) + 1;
        let stage = self.root.join(STAGE_DIR).join(format!("{fp:016x}-v{next}"));
        if stage.exists() {
            fs::remove_dir_all(&stage)?;
        }
        fs::create_dir_all(&stage)?;
        for (name, contents) in artifacts {
            let mut f = fs::File::create(stage.join(name))?;
            f.write_all(contents.as_bytes())?;
            f.sync_all()?;
        }
        let dest = self.version_path(fp, next);
        fs::create_dir_all(self.job_dir(fp))?;
        fs::rename(&stage, &dest)?; // the commit point
        fsync_dir(&self.job_dir(fp));
        self.set_current(fp, next)?;
        Ok(next)
    }

    /// Points `CURRENT` at the previous existing version and returns
    /// it. Fails when there is no current version or nothing older to
    /// fall back to.
    pub fn rollback(&self, fp: u64) -> io::Result<u32> {
        let cur = self
            .current_version(fp)
            .ok_or_else(|| other("no current version to roll back from"))?;
        let prev = self
            .versions(fp)
            .into_iter()
            .rfind(|&v| v < cur)
            .ok_or_else(|| other("no older version to roll back to"))?;
        self.set_current(fp, prev)?;
        Ok(prev)
    }

    /// Repairs a job whose promotion renamed but whose `CURRENT` (or
    /// journal `done`) never landed: if version directories exist,
    /// points `CURRENT` at the newest and returns it. `None` when the
    /// job has no promoted versions at all.
    pub fn adopt(&self, fp: u64) -> io::Result<Option<u32>> {
        match self.versions(fp).last().copied() {
            Some(latest) => {
                self.set_current(fp, latest)?;
                Ok(Some(latest))
            }
            None => Ok(None),
        }
    }

    /// Reads one artifact of the *current* version.
    pub fn read_current_artifact(&self, fp: u64, name: &str) -> Option<String> {
        let v = self.current_version(fp)?;
        fs::read_to_string(self.version_path(fp, v).join(name)).ok()
    }

    /// Artifact names of the current version, sorted.
    pub fn current_artifact_names(&self, fp: u64) -> Vec<String> {
        let Some(v) = self.current_version(fp) else {
            return Vec::new();
        };
        let Ok(entries) = fs::read_dir(self.version_path(fp, v)) else {
            return Vec::new();
        };
        let mut names: Vec<String> = entries
            .flatten()
            .filter_map(|e| e.file_name().to_str().map(str::to_owned))
            .collect();
        names.sort();
        names
    }

    fn read_version(&self, fp: u64, version: u32) -> Option<Artifacts> {
        let dir = self.version_path(fp, version);
        let mut artifacts = Artifacts::new();
        for entry in fs::read_dir(dir).ok()?.flatten() {
            let name = entry.file_name().to_str()?.to_owned();
            let mut contents = String::new();
            fs::File::open(entry.path())
                .ok()?
                .read_to_string(&mut contents)
                .ok()?;
            artifacts.insert(name, contents);
        }
        Some(artifacts)
    }

    fn set_current(&self, fp: u64, version: u32) -> io::Result<()> {
        write_atomic(&self.job_dir(fp).join("CURRENT"), &format!("v{version}\n"))
    }
}

fn other(msg: &str) -> io::Error {
    io::Error::other(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("alertd_store_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn arts(body: &str) -> Artifacts {
        let mut a = Artifacts::new();
        a.insert("metrics.json".to_owned(), body.to_owned());
        a.insert("trace.jsonl".to_owned(), format!("{body}-trace"));
        a
    }

    #[test]
    fn promote_dedupes_identical_content_and_versions_changes() {
        let dir = scratch("promote");
        let store = ResultStore::open(&dir).unwrap();
        let fp = 0xabcd;
        assert_eq!(store.promote(fp, &arts("one")).unwrap(), 1);
        // Identical re-promotion (a crashed-and-re-run job): same version.
        assert_eq!(store.promote(fp, &arts("one")).unwrap(), 1);
        assert_eq!(store.versions(fp), [1]);
        // Different content (a --force re-run): a new version.
        assert_eq!(store.promote(fp, &arts("two")).unwrap(), 2);
        assert_eq!(store.versions(fp), [1, 2]);
        assert_eq!(store.current_version(fp), Some(2));
        assert_eq!(
            store.read_current_artifact(fp, "metrics.json").as_deref(),
            Some("two")
        );
        assert_eq!(
            store.current_artifact_names(fp),
            ["metrics.json", "trace.jsonl"]
        );
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn rollback_walks_back_and_refuses_at_the_floor() {
        let dir = scratch("rollback");
        let store = ResultStore::open(&dir).unwrap();
        let fp = 7;
        store.promote(fp, &arts("one")).unwrap();
        store.promote(fp, &arts("two")).unwrap();
        assert_eq!(store.rollback(fp).unwrap(), 1);
        assert_eq!(
            store.read_current_artifact(fp, "metrics.json").as_deref(),
            Some("one")
        );
        assert!(store.rollback(fp).is_err(), "nothing older than v1");
        assert!(store.rollback(99).is_err(), "unknown job");
        // Promoting "one" again dedupes against v2? No — against the
        // *newest* version (v2 = "two"), so it mints v3. CURRENT moves.
        assert_eq!(store.promote(fp, &arts("one")).unwrap(), 3);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn stage_is_swept_and_adoption_repairs_current() {
        let dir = scratch("sweep");
        let store = ResultStore::open(&dir).unwrap();
        let fp = 0xfeed;
        // Simulate a crash between rename and CURRENT: a promoted v1
        // with no CURRENT, plus a dead staging dir.
        store.promote(fp, &arts("one")).unwrap();
        fs::remove_file(store.job_dir(fp).join("CURRENT")).unwrap();
        let dead = dir.join("results").join(STAGE_DIR).join("00deadbeef-v9");
        fs::create_dir_all(&dead).unwrap();
        fs::write(dead.join("metrics.json"), "half").unwrap();

        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.sweep_stage().unwrap(), 1);
        assert_eq!(store.current_version(fp), None);
        assert_eq!(store.adopt(fp).unwrap(), Some(1));
        assert_eq!(store.current_version(fp), Some(1));
        assert_eq!(store.adopt(0x1234).unwrap(), None, "nothing to adopt");
        let _ = fs::remove_dir_all(dir);
    }
}
