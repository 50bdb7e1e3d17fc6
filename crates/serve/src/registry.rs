//! The shared tenant/run table behind admission control and queries.
//!
//! The registry is the server's single source of truth about what runs
//! exist and where they stand. Sessions consult it under one lock at
//! admission (reject duplicates, enforce the tenant cap, pick up a
//! resume offset) and update it as bytes land; the query handler reads
//! it without touching the shard workers, so queries never stall
//! ingestion.

use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use crate::detect::{Alert, WindowStat};
use crate::ServeError;

/// Identity of one run: tenant name plus run name, both validated by
/// [`protocol::valid_name`](crate::protocol::valid_name).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct RunKey {
    /// The tenant the run belongs to.
    pub tenant: String,
    /// The run's name, unique within the tenant.
    pub run: String,
}

impl RunKey {
    /// Builds a key (names are assumed already validated).
    pub(crate) fn new(tenant: &str, run: &str) -> Self {
        RunKey {
            tenant: tenant.to_string(),
            run: run.to_string(),
        }
    }
}

impl fmt::Display for RunKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.tenant, self.run)
    }
}

/// Where a run stands in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RunStatus {
    /// A session is currently streaming this run.
    Live,
    /// The stream ended before the trace's end chunk — the spool holds
    /// a salvage-grade prefix and a resumed session may complete it.
    Partial,
    /// The end chunk arrived and verified; the final report is final.
    Complete,
    /// The trace content was invalid (or the fold panicked); terminal.
    Failed,
}

impl RunStatus {
    /// Stable lowercase name used on the wire and in checkpoints.
    pub(crate) fn name(self) -> &'static str {
        match self {
            RunStatus::Live => "live",
            RunStatus::Partial => "partial",
            RunStatus::Complete => "complete",
            RunStatus::Failed => "failed",
        }
    }
}

/// Everything the registry tracks about one run.
#[derive(Debug, Clone)]
pub(crate) struct RunEntry {
    /// Lifecycle state.
    pub status: RunStatus,
    /// Which shard worker owns the run's fold state.
    pub shard: usize,
    /// The spool file holding every byte received so far.
    pub spool: PathBuf,
    /// Bytes spooled (also the resume offset handed to clients).
    pub bytes: u64,
    /// Events decoded so far.
    pub events: u64,
    /// Ranks the stream declared (0 until the header decodes).
    pub processors: usize,
    /// Largest event timestamp seen.
    pub makespan: f64,
    /// Alerts the online detector has emitted.
    pub alerts: Vec<Alert>,
    /// Retired-window summaries from the online detector.
    pub windows: Vec<WindowStat>,
    /// The final report, cached once the run completes.
    pub report: Option<String>,
    /// Terminal error text for [`RunStatus::Failed`].
    pub error: Option<String>,
}

impl RunEntry {
    /// A fresh live entry for a newly admitted run.
    pub(crate) fn new(shard: usize, spool: PathBuf) -> Self {
        RunEntry {
            status: RunStatus::Live,
            shard,
            spool,
            bytes: 0,
            events: 0,
            processors: 0,
            makespan: 0.0,
            alerts: Vec::new(),
            windows: Vec::new(),
            report: None,
            error: None,
        }
    }
}

/// Admission verdict for a push handshake.
#[derive(Debug)]
pub(crate) struct Admission {
    /// Shard worker assigned to the run.
    pub shard: usize,
    /// Offset the client must skip to (0 for a fresh run).
    pub offset: u64,
    /// Whether the run resumes a partial spool (the shard must replay
    /// it before accepting new bytes).
    pub resume: bool,
}

/// The shared run table. All methods take `&self`; a single internal
/// mutex serialises access (registry operations are tiny compared to
/// decode work, which happens outside the lock).
#[derive(Debug, Default)]
pub(crate) struct Registry {
    runs: Mutex<BTreeMap<RunKey, RunEntry>>,
}

impl Registry {
    /// An empty registry.
    pub(crate) fn new() -> Self {
        Registry::default()
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<RunKey, RunEntry>> {
        self.runs.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Pre-populates an entry recovered from a checkpoint at startup.
    pub(crate) fn restore(&self, key: RunKey, entry: RunEntry) {
        self.lock().insert(key, entry);
    }

    /// Admits or rejects a push handshake under one lock:
    /// * unknown run, tenant under cap → fresh [`RunStatus::Live`] entry;
    /// * [`RunStatus::Partial`] → resume from the spooled offset;
    /// * [`RunStatus::Live`] → rejected (one session per run);
    /// * [`RunStatus::Complete`] / [`RunStatus::Failed`] → rejected
    ///   (runs are immutable once terminal).
    pub(crate) fn admit(
        &self,
        key: &RunKey,
        shard: usize,
        spool: PathBuf,
        max_tenants: usize,
    ) -> Result<Admission, ServeError> {
        let mut runs = self.lock();
        if let Some(entry) = runs.get_mut(key) {
            return match entry.status {
                RunStatus::Live => Err(ServeError::Rejected(format!(
                    "run {key} is already streaming"
                ))),
                RunStatus::Complete => Err(ServeError::Rejected(format!("run {key} is complete"))),
                RunStatus::Failed => Err(ServeError::Rejected(format!(
                    "run {key} failed terminally: {}",
                    entry.error.as_deref().unwrap_or("unknown error")
                ))),
                RunStatus::Partial => {
                    entry.status = RunStatus::Live;
                    Ok(Admission {
                        shard: entry.shard,
                        offset: entry.bytes,
                        resume: true,
                    })
                }
            };
        }
        // Only tenants with non-terminal runs count toward the cap:
        // completed and failed runs stay queryable, but a long-lived
        // server must not drift into rejecting every new tenant just
        // because old ones finished.
        let tenants: std::collections::BTreeSet<&str> = runs
            .iter()
            .filter(|(_, e)| matches!(e.status, RunStatus::Live | RunStatus::Partial))
            .map(|(k, _)| k.tenant.as_str())
            .collect();
        if !tenants.contains(key.tenant.as_str()) && tenants.len() >= max_tenants {
            return Err(ServeError::Rejected(format!(
                "tenant cap reached ({max_tenants} active); tenant {} not admitted",
                key.tenant
            )));
        }
        runs.insert(key.clone(), RunEntry::new(shard, spool));
        Ok(Admission {
            shard,
            offset: 0,
            resume: false,
        })
    }

    /// Applies `f` to the run's entry (no-op when the run is unknown).
    pub(crate) fn update<F: FnOnce(&mut RunEntry)>(&self, key: &RunKey, f: F) {
        if let Some(entry) = self.lock().get_mut(key) {
            f(entry);
        }
    }

    /// Clones the run's entry.
    pub(crate) fn get(&self, key: &RunKey) -> Option<RunEntry> {
        self.lock().get(key).cloned()
    }

    /// Tenant names, ascending.
    pub(crate) fn tenants(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for key in self.lock().keys() {
            if out.last().map(|t| t != &key.tenant).unwrap_or(true) {
                out.push(key.tenant.clone());
            }
        }
        out
    }

    /// `(key, status, bytes, events)` rows for one tenant, ascending
    /// by run name.
    pub(crate) fn runs_of(&self, tenant: &str) -> Vec<(RunKey, RunStatus, u64, u64)> {
        self.lock()
            .iter()
            .filter(|(k, _)| k.tenant == tenant)
            .map(|(k, e)| (k.clone(), e.status, e.bytes, e.events))
            .collect()
    }

    /// `(key, status)` for every run, ascending.
    pub(crate) fn all(&self) -> Vec<(RunKey, RunStatus)> {
        self.lock()
            .iter()
            .map(|(k, e)| (k.clone(), e.status))
            .collect()
    }

    /// Marks every [`RunStatus::Live`] run [`RunStatus::Partial`]
    /// (shutdown: the spool is a valid resumable prefix), returning
    /// the keys demoted.
    pub(crate) fn demote_live(&self) -> Vec<RunKey> {
        let mut runs = self.lock();
        let mut demoted = Vec::new();
        for (k, e) in runs.iter_mut() {
            if e.status == RunStatus::Live {
                e.status = RunStatus::Partial;
                demoted.push(k.clone());
            }
        }
        demoted
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    /// Completed and failed runs stay queryable but release their
    /// tenant-cap slot: a long-lived server never drifts into
    /// rejecting every new tenant.
    #[test]
    fn terminal_runs_do_not_count_toward_tenant_cap() {
        let reg = Registry::new();
        let k0 = RunKey::new("t0", "r");
        let k1 = RunKey::new("t1", "r");
        reg.admit(&k0, 0, PathBuf::from("s0"), 1)
            .expect("t0 admitted");
        // Cap of 1: a second tenant is rejected while t0 is live...
        assert!(reg.admit(&k1, 0, PathBuf::from("s1"), 1).is_err());
        // ...but once t0's run reaches a terminal state, the slot
        // frees up while the run itself stays queryable.
        reg.update(&k0, |e| e.status = RunStatus::Complete);
        reg.admit(&k1, 0, PathBuf::from("s1"), 1)
            .expect("slot freed by terminal run");
        let kept = reg.get(&k0).expect("terminal run still present");
        assert_eq!(kept.status, RunStatus::Complete);
    }
}
