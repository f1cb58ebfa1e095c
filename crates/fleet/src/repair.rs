//! The self-healing repair loop: re-materializes under-replicated
//! tables onto healthy backends.
//!
//! A dead process, a drained membership, or a freshly joined (empty)
//! backend all leave some tables with fewer than R **live** replicas.
//! Reads survive that through failover, but capacity and fault
//! tolerance are lost until someone re-materializes the data. This
//! module is that someone: a background thread that each round
//!
//! 1. asks every member backend what tables it holds (`GET /tables`,
//!    per backend — the same endpoint the router scatter-gathers),
//! 2. computes each table's *desired* holders: the first R **healthy**
//!    backends walking the ring clockwise from the table's hash — the
//!    same walk reads fail over along, so a repaired copy lands exactly
//!    where the next failing-over read will look,
//! 3. for each desired holder missing the table, exports the source CSV
//!    from any current holder (`GET /tables/{name}/csv` — the original
//!    upload bytes, verbatim) and replicates it over (`PUT
//!    /tables/{name}`).
//!
//! Every leg is idempotent: the replicate path matches CSV fingerprints,
//! so a repair racing a client retry, another router's repair loop, or a
//! concurrent ingest converges on one copy instead of conflicting —
//! repairing twice is merely wasted bandwidth, never wrong data. The
//! loop therefore needs no coordination, no leases, and no leader.
//!
//! # Tombstones: deletes win over stale rejoiners
//!
//! Step 1 also gathers every member's `GET /tombstones` — the
//! HLC-stamped delete markers the durable registry keeps. Before
//! repairing a table the round compares the fleet-wide **max tombstone
//! timestamp** against the **max live ingest timestamp** across its
//! holders: when the tombstone is strictly newer, the table is
//! *deleted*, and the stale copy (typically a backend that was absent —
//! crashed, partitioned, drained — during the delete and rejoined with
//! its WAL replayed) is itself deleted from every holder instead of
//! being faithfully re-propagated back to R replicas. That closes the
//! resurrection bug the pre-durability loop documented: delete now wins
//! over rejoin, not the other way round. A table re-created *after* its
//! delete has a newer ingest timestamp and replicates normally.
//!
//! # Stray-copy garbage collection
//!
//! Copies stranded on backends outside a table's desired replica set
//! (after the ring shifts under membership churn, or after a repair
//! spilled past a temporarily dead nominal holder) used to accumulate
//! forever. They are now collected, carefully:
//!
//! * only after [`GC_GRACE_ROUNDS`] consecutive *clean* rounds (nothing
//!   under-replicated, no failed legs, no deletes propagated, same
//!   membership epoch) — so a mid-churn or mid-outage snapshot of the
//!   ring never deletes a copy that failover reads still depend on;
//! * only when every desired holder verifiably holds the table this
//!   round;
//! * via `DELETE /tables/{name}?stray=true`, which tombstones the copy
//!   at its **own ingest timestamp** rather than a fresh one, and marks
//!   the tombstone *stray*. A stray tombstone keeps the copy dead
//!   locally (including across its next WAL replay) but is withheld
//!   from `GET /tombstones` — replicated copies stamp independent local
//!   timestamps, so a GC artifact could otherwise carry the fleet-wide
//!   maximum and read, on the next round, as "this table was deleted
//!   everywhere".

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use serde_json::Value;
use ziggy_obs::trace::mint_trace_id;

use crate::backend::Backend;
use crate::router::{forward, FleetState};

/// Default interval between repair rounds.
pub const DEFAULT_REPAIR_INTERVAL: Duration = Duration::from_millis(500);

/// Consecutive clean repair rounds (fully replicated, no failures, no
/// deletes propagated, stable membership) required before stranded
/// copies are garbage-collected. The grace period keeps GC from acting
/// on a mid-churn view of the ring.
pub const GC_GRACE_ROUNDS: u64 = 3;

/// What one repair round observed and did (for logging and tests).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RepairReport {
    /// Distinct tables seen across all member backends.
    pub tables_seen: usize,
    /// Tables that were missing at least one desired live replica at
    /// the start of the round.
    pub under_replicated: usize,
    /// Successful re-materializations (one per table × backend pair).
    pub repaired: usize,
    /// Failed repair legs (source export or replicate refused/errored).
    pub failed: usize,
    /// Stale copies deleted because a strictly newer tombstone proved
    /// the table was deleted fleet-wide (one per table × holder pair).
    pub deletes_propagated: usize,
    /// Stranded copies garbage-collected from backends outside their
    /// table's desired replica set.
    pub strays_collected: usize,
}

/// Runs one repair round against the current membership and returns
/// what it did. Exposed for tests and for callers that want to drive
/// repair synchronously (e.g. right after an admin membership change)
/// instead of waiting out the background interval.
pub fn repair_round(state: &FleetState) -> RepairReport {
    let round_started = std::time::Instant::now();
    // Each round is its own trace in the router's flight recorder: the
    // serialized repair legs (delete propagation, CSV export, replicate
    // PUTs) land under it as `fleet.upstream` children, so a slow or
    // failing round can be read span-by-span at `/debug/traces/{id}`.
    // The `route=repair` attribute keeps rounds filterable apart from
    // (and out of) request-trace listings.
    let trace = mint_trace_id();
    let mut root = state.recorder.root(&trace, None, "fleet.repair_round");
    root.attr("route", "repair");
    let report = repair_round_inner(state);
    root.attr("tables_seen", report.tables_seen.to_string());
    root.attr("under_replicated", report.under_replicated.to_string());
    root.attr("repaired", report.repaired.to_string());
    root.attr("deletes_propagated", report.deletes_propagated.to_string());
    root.attr("strays_collected", report.strays_collected.to_string());
    root.attr("failed", report.failed.to_string());
    root.set_error(report.failed > 0);
    drop(root);
    // A round is *ok* when no repair leg failed; the stats feed the
    // router's `/healthz` (last-round age) and Prometheus exposition.
    state
        .repair_stats
        .record_round(round_started.elapsed(), report.failed == 0);
    report
}

fn repair_round_inner(state: &FleetState) -> RepairReport {
    let view = state.membership();
    let mut report = RepairReport::default();
    let scan_started = state.ingest_clock.load(Ordering::SeqCst);

    // Membership changed since the last round: every streak-based
    // decision (stray GC) starts over against the new ring.
    if state.repair_epoch.swap(view.epoch(), Ordering::Relaxed) != view.epoch() {
        state.repair_clean_streak.store(0, Ordering::Relaxed);
    }
    let gc_armed = state.repair_clean_streak.load(Ordering::Relaxed) >= GC_GRACE_ROUNDS;

    // Who holds what (with each copy's ingest timestamp) and who has
    // buried what (delete tombstones), asking every member — even
    // unhealthy ones: a backend the prober has marked down may still
    // answer and serve as a repair *source*; it just won't be a repair
    // *target*. Scattered in parallel, like the router's own
    // scatter-gather: one wedged member costs the round its own
    // timeout, not a serialized sum that would delay re-materialization
    // of every other table.
    type Gathered = (
        std::io::Result<(u16, String)>,
        std::io::Result<(u16, String)>,
    );
    let listings: Vec<Gathered> = std::thread::scope(|s| {
        let handles: Vec<_> = view
            .backends()
            .iter()
            .map(|b| {
                s.spawn(move || {
                    (
                        forward(state, b, "GET", "/tables", None),
                        forward(state, b, "GET", "/tombstones", None),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("repair scatter thread panicked"))
            .collect()
    });
    let mut holders: std::collections::HashMap<String, Vec<(Arc<Backend>, u64)>> =
        std::collections::HashMap::new();
    let mut buried: std::collections::HashMap<String, u64> = std::collections::HashMap::new();
    for (backend, (tables_result, tombstones_result)) in view.backends().iter().zip(listings) {
        if let Ok((200, body)) = tables_result {
            if let Ok(v) = serde_json::from_str_value(&body) {
                for t in v
                    .get("tables")
                    .and_then(Value::as_array)
                    .unwrap_or_default()
                {
                    if let Some(name) = t.get("name").and_then(Value::as_str) {
                        let ts = t.get("ts").and_then(Value::as_u64).unwrap_or(0);
                        holders
                            .entry(name.to_string())
                            .or_default()
                            .push((Arc::clone(backend), ts));
                    }
                }
            }
        }
        if let Ok((200, body)) = tombstones_result {
            if let Ok(v) = serde_json::from_str_value(&body) {
                for t in v
                    .get("tombstones")
                    .and_then(Value::as_array)
                    .unwrap_or_default()
                {
                    let (Some(name), Some(ts)) = (
                        t.get("table").and_then(Value::as_str),
                        t.get("ts").and_then(Value::as_u64),
                    ) else {
                        continue;
                    };
                    let slot = buried.entry(name.to_string()).or_insert(ts);
                    *slot = (*slot).max(ts);
                }
            }
        }
    }
    report.tables_seen = holders.len();

    for (table, holding) in &mut holders {
        // Last writer wins, fleet-wide: a delete tombstone strictly
        // newer than every live copy's ingest means the table was
        // deleted and some holder (absent during the delete, rejoined
        // with its WAL replayed) is trying to resurrect it. Propagate
        // the delete to the stale holders instead of re-replicating
        // their copy. A re-create *after* the delete carries a newer
        // ingest timestamp and falls through to normal repair.
        let live_max = holding.iter().map(|(_, ts)| *ts).max().unwrap_or(0);
        if buried.get(table).copied().unwrap_or(0) > live_max {
            let path = format!("/tables/{table}");
            for (stale, _) in holding.iter() {
                match forward(state, stale, "DELETE", &path, None) {
                    Ok((status, _)) if (200..300).contains(&status) || status == 404 => {
                        report.deletes_propagated += 1;
                        state.metrics.deletes_propagated_total.inc();
                    }
                    _ => {
                        report.failed += 1;
                        state.metrics.repair_failures_total.inc();
                    }
                }
            }
            continue;
        }
        // Prefer the newest copy as the repair source (a stale-but-live
        // holder must not win the export race against a fresher one).
        holding.sort_by_key(|h| std::cmp::Reverse(h.1));
        // Desired holders: first R distinct *healthy* backends clockwise
        // from the table's hash. Walking the full ring (not just the
        // nominal replica set) is what makes repair match read failover:
        // with a dead nominal replica, reads spill onto the next healthy
        // backend in ring order, and that is exactly where the copy is
        // re-materialized.
        let walk = view.replicas_for(table, view.backends().len());
        let targets: Vec<&Arc<Backend>> = walk
            .iter()
            .filter(|b| b.is_healthy())
            .take(state.replication())
            .collect();
        let missing: Vec<&Arc<Backend>> = targets
            .iter()
            .copied()
            .filter(|t| !holding.iter().any(|(h, _)| Arc::ptr_eq(h, t)))
            .collect();
        if missing.is_empty() {
            // Fully replicated on its desired set: any other holder is
            // a stray the ring walked away from. Collect it only after
            // the grace streak (see GC_GRACE_ROUNDS), and with the
            // stray-delete variant whose tombstone cannot outrank the
            // live copies.
            if gc_armed {
                let path = format!("/tables/{table}?stray=true");
                for (stray, _) in holding
                    .iter()
                    .filter(|(h, _)| !targets.iter().any(|t| Arc::ptr_eq(h, t)))
                {
                    match forward(state, stray, "DELETE", &path, None) {
                        Ok((status, _)) if (200..300).contains(&status) || status == 404 => {
                            report.strays_collected += 1;
                            state.metrics.strays_collected_total.inc();
                        }
                        _ => {
                            report.failed += 1;
                            state.metrics.repair_failures_total.inc();
                        }
                    }
                }
            }
            continue;
        }
        let ingest_overlapped = state
            .ingests
            .lock()
            .get(table.as_str())
            .is_some_and(|&tick| tick > scan_started);
        if ingest_overlapped {
            continue; // Mid-placement when scanned: the ingest finishes it.
        }
        report.under_replicated += 1;

        // Export the source CSV from the freshest current holder first
        // (the list is sorted newest-first above). Holders without CSV
        // provenance (in-process registrations) answer 404; try the
        // next one.
        let csv_path = format!("/tables/{table}/csv");
        let csv = holding.iter().find_map(|(source, _)| {
            match forward(state, source, "GET", &csv_path, None) {
                Ok((200, body)) => serde_json::from_str_value(&body)
                    .ok()?
                    .get("csv")?
                    .as_str()
                    .map(str::to_string),
                _ => None,
            }
        });
        let Some(csv) = csv else {
            report.failed += missing.len();
            state
                .metrics
                .repair_failures_total
                .add(missing.len() as u64);
            continue;
        };
        let replicate_body =
            serde_json::to_string(&Value::Object(vec![("csv".into(), Value::String(csv))]))
                .expect("replicate bodies always render");
        let put_path = format!("/tables/{table}");
        for target in missing {
            match forward(state, target, "PUT", &put_path, Some(&replicate_body)) {
                Ok((status, _)) if (200..300).contains(&status) => {
                    report.repaired += 1;
                    state.metrics.repairs_total.inc();
                }
                _ => {
                    report.failed += 1;
                    state.metrics.repair_failures_total.inc();
                }
            }
        }
    }

    state.ingests.lock().retain(|_, tick| *tick > scan_started);
    // Advance (or reset) the clean streak the stray GC is gated on. GC
    // legs themselves don't dirty a round — collecting a stray is
    // steady-state housekeeping, not instability.
    let clean =
        report.under_replicated == 0 && report.failed == 0 && report.deletes_propagated == 0;
    if clean {
        state.repair_clean_streak.fetch_add(1, Ordering::Relaxed);
    } else {
        state.repair_clean_streak.store(0, Ordering::Relaxed);
    }
    report
}

/// A running repair thread; stops (and joins) on [`Repairer::stop`] or
/// drop.
pub struct Repairer {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Repairer {
    /// Starts a repair round against `state` every `interval`.
    pub fn start(state: Arc<FleetState>, interval: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("ziggy-fleet-repair".into())
            .spawn(move || {
                let mut last_report: Option<RepairReport> = None;
                while !stop_flag.load(Ordering::Relaxed) {
                    let report = repair_round(&state);
                    // Log transitions, not steady states: a permanently
                    // unrepairable table (e.g. an R=1 table whose only
                    // holder died) fails identically every round, and
                    // repeating that line twice a second would bury the
                    // supervisor's stderr. The failure counters in
                    // /metrics keep counting either way.
                    let noteworthy = report.repaired > 0
                        || report.failed > 0
                        || report.deletes_propagated > 0
                        || report.strays_collected > 0;
                    if noteworthy && last_report != Some(report) {
                        eprintln!(
                            "fleet repair: {} table(s) under-replicated, {} cop(y/ies) restored, {} delete(s) propagated, {} stray(s) collected, {} leg(s) failed",
                            report.under_replicated,
                            report.repaired,
                            report.deletes_propagated,
                            report.strays_collected,
                            report.failed
                        );
                    }
                    last_report = Some(report);
                    // Sleep in slices so shutdown never waits out a
                    // long repair interval.
                    let deadline = std::time::Instant::now() + interval;
                    while std::time::Instant::now() < deadline {
                        if stop_flag.load(Ordering::Relaxed) {
                            return;
                        }
                        std::thread::sleep(Duration::from_millis(20).min(interval));
                    }
                }
            })
            .expect("spawn repairer");
        Self {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the repair loop and joins its thread.
    pub fn stop(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Repairer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}
