//! Server-side exploration sessions.
//!
//! A session pins a table and keeps the one report its next step is
//! diffed against ([`ziggy_core::diff_reports`]), mirroring the
//! library's `ExplorationSession` across the network boundary. Reports
//! are deterministic functions of (table, configuration, query), so a
//! session is fully described by its table, its last successful query
//! and its lifetime step count: that triple is what the durable log
//! replays and what the fleet resumes a session from on another
//! replica. Sessions do **not** own an engine: they borrow the table's
//! shared engine from the registry, so session traffic enjoys the same
//! once-per-table statistics as direct characterizations.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use ziggy_core::{diff_reports, CharacterizationReport, ReportDiff};
use ziggy_durable::SessionState;

use crate::json::ApiError;
use crate::registry::TableEntry;

/// Upper bound on live sessions; creation beyond it is refused (409).
/// The cap bounds *live* state: deleting a session (`DELETE
/// /sessions/{id}`) frees its slot and releases its table pin, and
/// sessions idle past the manager's TTL are evicted on sweep.
pub const MAX_SESSIONS: usize = 4096;

/// One client's exploration state.
struct Session {
    table: Arc<TableEntry>,
    /// The last successful step's report, which the next step is
    /// diffed against. Its `query` field is the session's last query.
    previous: Option<CharacterizationReport>,
    /// Successful steps taken over the session's lifetime.
    steps_taken: u64,
    /// Last creation/step activity; sessions idle past the manager's TTL
    /// are evicted by [`SessionManager::sweep_expired`].
    last_used: Instant,
}

impl Session {
    fn shared(
        table: Arc<TableEntry>,
        previous: Option<CharacterizationReport>,
        steps_taken: u64,
    ) -> Arc<Mutex<Self>> {
        Arc::new(Mutex::new(Session {
            table,
            previous,
            steps_taken,
            last_used: Instant::now(),
        }))
    }
}

/// The report of `last_query` on `table`, which a resumed session diffs
/// its next step against: one report-cache lookup or one
/// characterization. A query the engine rejects is the error.
fn previous_report(
    table: &TableEntry,
    last_query: Option<&str>,
) -> Result<Option<CharacterizationReport>, ApiError> {
    let Some(q) = last_query else {
        return Ok(None);
    };
    let outcome = table.engine().characterize_cached(q)?;
    Ok(Some(outcome.cached.report_with_query(q)))
}

/// The outcome of one session step.
#[derive(Debug)]
pub struct StepOutcome {
    /// 1-based index of this step in the session.
    pub step: u64,
    /// The report for this step.
    pub report: CharacterizationReport,
    /// Diff against the previous step (`None` on the first step).
    pub diff: Option<ReportDiff>,
    /// Whether the report was built by this step (false = served from
    /// the engine's report cache); the router meters stage timings only
    /// for fresh builds.
    pub fresh: bool,
}

/// Thread-safe map of live sessions by id, with optional idle-TTL
/// eviction.
#[derive(Default)]
pub struct SessionManager {
    next_id: AtomicU64,
    sessions: RwLock<HashMap<u64, Arc<Mutex<Session>>>>,
    /// Idle TTL in milliseconds; 0 disables expiry. Atomic so the serve
    /// layer can configure it on the shared state after construction.
    ttl_ms: AtomicU64,
    /// Sessions evicted by TTL sweeps (reported as `sessions_expired`).
    expired: AtomicU64,
    /// When the last sweep ran (`None` = never); sweeps are throttled so
    /// the hot step path does not pay an O(sessions) exclusive-lock scan
    /// per request.
    last_sweep: Mutex<Option<Instant>>,
}

impl SessionManager {
    /// An empty manager (expiry disabled until [`Self::set_ttl`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets (or, with `None`, disables) the idle TTL. Sub-millisecond
    /// TTLs clamp up to 1ms so "enabled" is never silently rounded to
    /// disabled.
    pub fn set_ttl(&self, ttl: Option<Duration>) {
        let ms = ttl.map_or(0, |d| (d.as_millis() as u64).max(1));
        self.ttl_ms.store(ms, Ordering::Relaxed);
    }

    /// The configured idle TTL, if any.
    pub fn ttl(&self) -> Option<Duration> {
        match self.ttl_ms.load(Ordering::Relaxed) {
            0 => None,
            ms => Some(Duration::from_millis(ms)),
        }
    }

    /// Total sessions evicted by TTL sweeps over the manager's lifetime.
    pub fn expired_total(&self) -> u64 {
        self.expired.load(Ordering::Relaxed)
    }

    /// Evicts every session idle past the TTL, returning the evicted
    /// ids. The router runs it lazily ahead of session create/step (and
    /// `/metrics`) and logs a `SessionDelete` per id, so no background
    /// thread is needed and replay does not bring an expired session
    /// back: an idle server holds at most a sweep's worth of stale
    /// sessions until the next request.
    ///
    /// Sweeps are throttled to ~8 per TTL (at least 10ms apart): a full
    /// sweep takes the map write lock and locks every session, which
    /// must not be paid per step on a busy server. The skipped calls
    /// evict nothing; expiry granularity is the throttle interval, which
    /// is negligible against any real TTL.
    pub fn sweep_expired(&self) -> Vec<u64> {
        let Some(ttl) = self.ttl() else {
            return Vec::new();
        };
        let interval = (ttl / 8).max(Duration::from_millis(10));
        {
            let mut last = self.last_sweep.lock();
            let now = Instant::now();
            match *last {
                Some(prev) if now.duration_since(prev) < interval => return Vec::new(),
                _ => *last = Some(now),
            }
        }
        let now = Instant::now();
        let mut expired = Vec::new();
        // try_lock, never lock: blocking on a session's mutex here —
        // while holding the map write lock — would stall every other
        // session behind one slow step. A locked session is in use
        // right now, which is the opposite of idle: keep it.
        self.sessions.write().retain(|id, s| match s.try_lock() {
            Some(session) if now.duration_since(session.last_used) >= ttl => {
                expired.push(*id);
                false
            }
            _ => true,
        });
        self.expired
            .fetch_add(expired.len() as u64, Ordering::Relaxed);
        expired
    }

    /// Opens a session over `table`, returning its id.
    pub fn create(&self, table: Arc<TableEntry>) -> Result<u64, ApiError> {
        self.resume(table, None, 0)
    }

    /// Opens a session that continues a conversation held elsewhere (a
    /// fleet failover, or a client that kept its own place): it has
    /// taken `steps` steps and its next step is diffed against
    /// `last_query`'s report. A `last_query` the engine rejects is the
    /// error, and no session is created.
    pub fn resume(
        &self,
        table: Arc<TableEntry>,
        last_query: Option<&str>,
        steps: u64,
    ) -> Result<u64, ApiError> {
        let previous = previous_report(&table, last_query)?;
        let mut sessions = self.sessions.write();
        if sessions.len() >= MAX_SESSIONS {
            return Err(ApiError::conflict(format!(
                "session limit reached ({MAX_SESSIONS})"
            )));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        sessions.insert(id, Session::shared(table, previous, steps));
        Ok(id)
    }

    /// Re-creates a session under a known id (durable-log replay), with
    /// the same rebuild as [`Self::resume`]: at most one
    /// characterization, whatever the session's length. If `last_query`
    /// no longer characterizes (config drift), the session is still
    /// restored, with no previous report, so its next step answers
    /// `"diff": null`; the rejection is returned for the caller to
    /// report.
    pub fn restore(
        &self,
        id: u64,
        table: Arc<TableEntry>,
        last_query: Option<&str>,
        steps: u64,
    ) -> Result<(), ApiError> {
        // Keep future `create` ids above every restored id.
        self.next_id.fetch_max(id, Ordering::Relaxed);
        let (previous, rebuilt) = match previous_report(&table, last_query) {
            Ok(previous) => (previous, Ok(())),
            Err(e) => (None, Err(e)),
        };
        let session = Session::shared(table, previous, steps);
        self.sessions.write().insert(id, session);
        rebuilt
    }

    /// A consistent copy of every live session's replayable state, by
    /// id, for snapshot writers. Sessions busy in a step are captured as
    /// of whenever their lock frees (the WAL tail covers the in-flight
    /// step either way).
    pub fn snapshot_sessions(&self) -> Vec<SessionState> {
        let sessions: Vec<(u64, Arc<Mutex<Session>>)> = self
            .sessions
            .read()
            .iter()
            .map(|(id, s)| (*id, Arc::clone(s)))
            .collect();
        let mut out: Vec<SessionState> = sessions
            .into_iter()
            .map(|(id, s)| {
                let s = s.lock();
                SessionState {
                    id,
                    table: s.table.name().to_string(),
                    steps: s.steps_taken,
                    last_query: s.previous.as_ref().map(|r| r.query.clone()),
                }
            })
            .collect();
        out.sort_by_key(|s| s.id);
        out
    }

    /// Closes a session, freeing its slot under [`MAX_SESSIONS`] and
    /// dropping its pin on the table entry. A step racing the delete on
    /// another thread finishes normally on its own `Arc`.
    pub fn remove(&self, id: u64) -> Result<(), ApiError> {
        self.sessions
            .write()
            .remove(&id)
            .map(|_| ())
            .ok_or_else(|| ApiError::not_found(format!("no session {id}")))
    }

    /// Closes every session pinned to `entry`, returning how many were
    /// closed. Called when a table is dropped, so deleted tables cannot
    /// stay resident behind abandoned sessions.
    pub fn remove_for_table(&self, entry: &Arc<TableEntry>) -> usize {
        let mut sessions = self.sessions.write();
        let before = sessions.len();
        sessions.retain(|_, s| !Arc::ptr_eq(&s.lock().table, entry));
        before - sessions.len()
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.sessions.read().len()
    }

    /// True when no sessions are live.
    pub fn is_empty(&self) -> bool {
        self.sessions.read().is_empty()
    }

    /// Runs one step: characterize `query` on the session's shared
    /// engine, diff against the previous report, keep this one as the
    /// next step's previous.
    ///
    /// Only that bookkeeping holds the session lock; the engine call
    /// itself is lock-free with respect to other sessions, so concurrent
    /// clients on different sessions (even on the same table) proceed
    /// in parallel.
    pub fn step(&self, id: u64, query: &str) -> Result<StepOutcome, ApiError> {
        let session = self
            .sessions
            .read()
            .get(&id)
            .cloned()
            .ok_or_else(|| ApiError::not_found(format!("no session {id}")))?;

        // Characterize outside the session lock: failed steps must not
        // replace the previous report (matching
        // `ExplorationSession::explore`). Session traffic rides the same
        // report cache as direct characterizations, so a step repeating
        // a predicate any client has asked before skips the pipeline.
        let table = session.lock().table.clone();
        let outcome = table.engine().characterize_cached(query)?;
        let report = outcome.cached.report_with_query(query);

        let mut s = session.lock();
        let diff = s.previous.as_ref().map(|prev| diff_reports(prev, &report));
        s.previous = Some(report.clone());
        s.steps_taken += 1;
        s.last_used = Instant::now();
        Ok(StepOutcome {
            step: s.steps_taken,
            report,
            diff,
            fresh: outcome.fresh,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::TableRegistry;
    use ziggy_core::ZiggyConfig;

    fn registry_with_table() -> (TableRegistry, Arc<TableEntry>) {
        let mut csv = String::from("key,hot,cold\n");
        for i in 0..200 {
            csv.push_str(&format!(
                "{},{},{}\n",
                i,
                if i >= 150 { 25 } else { 0 } + (i * 13) % 7,
                (i * 7919) % 31
            ));
        }
        let r = TableRegistry::new();
        let e = r.insert_csv("t", &csv, ZiggyConfig::default()).unwrap();
        (r, e)
    }

    #[test]
    fn first_step_has_no_diff() {
        let (_r, entry) = registry_with_table();
        let m = SessionManager::new();
        let id = m.create(entry).unwrap();
        let out = m.step(id, "key >= 150").unwrap();
        assert_eq!(out.step, 1);
        assert!(out.diff.is_none());
        assert!(!out.report.views.is_empty());
    }

    #[test]
    fn identical_steps_are_stable() {
        let (_r, entry) = registry_with_table();
        let m = SessionManager::new();
        let id = m.create(entry).unwrap();
        m.step(id, "key >= 150").unwrap();
        let out = m.step(id, "key >= 150").unwrap();
        assert_eq!(out.step, 2);
        assert!(out.diff.unwrap().is_stable());
    }

    #[test]
    fn failed_steps_do_not_pollute_history() {
        let (_r, entry) = registry_with_table();
        let m = SessionManager::new();
        let id = m.create(entry).unwrap();
        m.step(id, "key >= 150").unwrap();
        assert_eq!(m.step(id, "nonsense >>>").unwrap_err().status, 422);
        let out = m.step(id, "key >= 150").unwrap();
        assert_eq!(out.step, 2);
    }

    #[test]
    fn step_counter_counts_every_step() {
        let (_r, entry) = registry_with_table();
        let m = SessionManager::new();
        let id = m.create(entry).unwrap();
        let mut last = 0;
        for _ in 0..67 {
            last = m.step(id, "key >= 150").unwrap().step;
        }
        assert_eq!(last, 67, "step must stay monotonic");
    }

    #[test]
    fn unknown_session_404s() {
        let m = SessionManager::new();
        assert_eq!(m.step(99, "x > 1").unwrap_err().status, 404);
        assert_eq!(m.remove(99).unwrap_err().status, 404);
    }

    #[test]
    fn remove_for_table_closes_only_that_tables_sessions() {
        let (r, entry) = registry_with_table();
        let other = r
            .insert_csv("u", "a,b\n1,2\n3,4\n", ZiggyConfig::default())
            .unwrap();
        let m = SessionManager::new();
        m.create(Arc::clone(&entry)).unwrap();
        m.create(Arc::clone(&entry)).unwrap();
        let kept = m.create(other).unwrap();
        assert_eq!(m.remove_for_table(&entry), 2);
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove_for_table(&entry), 0);
        m.remove(kept).unwrap();
    }

    #[test]
    fn remove_frees_slot_without_reusing_ids() {
        let (_r, entry) = registry_with_table();
        let m = SessionManager::new();
        let id = m.create(Arc::clone(&entry)).unwrap();
        m.step(id, "key >= 150").unwrap();
        assert_eq!(m.len(), 1);
        m.remove(id).unwrap();
        assert!(m.is_empty());
        assert_eq!(m.step(id, "key >= 150").unwrap_err().status, 404);
        let id2 = m.create(entry).unwrap();
        assert_ne!(id, id2, "ids must stay unique across removals");
    }

    #[test]
    fn idle_sessions_expire_past_ttl() {
        let (_r, entry) = registry_with_table();
        let m = SessionManager::new();
        m.set_ttl(Some(Duration::from_millis(30)));
        let stale = m.create(Arc::clone(&entry)).unwrap();
        std::thread::sleep(Duration::from_millis(60));
        let fresh = m.create(Arc::clone(&entry)).unwrap();
        // A session created just now survives the sweep; the stale one
        // is evicted by it, and its id is returned for the WAL.
        assert_eq!(m.sweep_expired(), vec![stale]);
        assert_eq!(m.len(), 1);
        assert_eq!(m.expired_total(), 1);
        assert_eq!(m.step(stale, "key >= 150").unwrap_err().status, 404);
        // Stepping refreshes the idle clock: 40ms after its creation
        // but 20ms after its last step, `fresh` is not idle.
        std::thread::sleep(Duration::from_millis(20));
        m.step(fresh, "key >= 150").unwrap();
        std::thread::sleep(Duration::from_millis(20));
        assert!(
            m.sweep_expired().is_empty(),
            "active sessions must not expire"
        );
        assert_eq!(m.expired_total(), 1);
    }

    #[test]
    fn expiry_disabled_by_default() {
        let (_r, entry) = registry_with_table();
        let m = SessionManager::new();
        assert!(m.ttl().is_none());
        m.create(entry).unwrap();
        assert!(m.sweep_expired().is_empty());
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn sessions_share_the_table_engine() {
        let (r, entry) = registry_with_table();
        let m = SessionManager::new();
        let a = m.create(Arc::clone(&entry)).unwrap();
        let b = m.create(entry).unwrap();
        m.step(a, "key >= 150").unwrap();
        let misses_after_first = r.get("t").unwrap().cache().counters().misses;
        m.step(b, "key >= 150").unwrap();
        let misses_after_second = r.get("t").unwrap().cache().counters().misses;
        // The second session's identical query is fully served from the
        // shared cache: no new whole-table scans.
        assert_eq!(misses_after_first, misses_after_second);
    }
}
