//! The table registry: one shared engine per ingested table.
//!
//! Each [`TableEntry`] owns a [`Ziggy`] engine built over an
//! `Arc<Table>`. Because the engine (and its [`StatsCache`]) is shared by
//! every worker thread and every client, whole-table statistics and the
//! dependency graph are computed once per *table*, not once per request —
//! the paper's between-query sharing promoted to between-client sharing.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use serde_json::Value;
use ziggy_core::{Ziggy, ZiggyConfig};
use ziggy_durable::{combine_csv, combine_fingerprint, ends_mid_line, wall_ms, DurableLog, Record};
use ziggy_store::csv::{read_csv_str, CsvOptions};
use ziggy_store::{append_rows_csv, StatsCache, Table};

use crate::json::ApiError;

/// Upper bound on resident tables; ingest beyond it is refused (409).
/// The cap bounds *live* state: dropping a table (`DELETE
/// /tables/{name}`) frees its slot and its name.
pub const MAX_TABLES: usize = 256;

/// Upper bound on retained delete tombstones; past it the oldest (by
/// HLC timestamp) are evicted. Tombstones are tiny (name + u64), so the
/// cap exists only to bound hostile churn, not memory pressure.
pub const MAX_TOMBSTONES: usize = 4096;

/// FNV-1a 64-bit hash — the stable, dependency-free hash shared by the
/// registry's ingest fingerprints and the fleet's consistent-hash ring
/// (both need determinism across processes, which `DefaultHasher` does
/// not promise). Now lives in `ziggy-store` (the engine's report cache
/// and ETag fingerprints use it too); re-exported here so existing
/// `ziggy_serve::fnv1a_64` callers keep working.
pub use ziggy_store::fnv1a_64;

/// Where a table's source CSV bytes live for export
/// (`GET /tables/{name}/csv`). The fleet's repair loop depends on the
/// export fingerprinting identically to the original upload, which a
/// re-serialization of the parsed table could not promise — so the
/// *original bytes* must stay reachable somewhere.
enum CsvSource {
    /// No CSV provenance (in-process registration via
    /// [`TableRegistry::insert_table`]); export answers 404.
    None,
    /// Retained in memory (durability disabled). Roughly doubles the
    /// table's resident footprint.
    Memory(Arc<str>),
    /// Served from the durable log's ingest record (or snapshot) — the
    /// bytes already on disk for crash recovery do double duty, and the
    /// in-memory copy is dropped.
    Durable(Arc<DurableLog>),
}

/// A registered table with its shared engine.
pub struct TableEntry {
    name: String,
    engine: Ziggy,
    /// FNV-1a of the source CSV bytes, when the table was ingested from
    /// CSV. The fleet's replicate path compares fingerprints so a retried
    /// or replicated upload of the *same* table is idempotent while a
    /// name collision with *different* content stays a conflict.
    fingerprint: Option<u64>,
    /// Whether the source CSV's last line is unterminated, so the next
    /// append inserts a newline before its rows. Only an ingested or
    /// replayed base can end mid-line: appended rows are always
    /// newline-terminated. Together with `fingerprint` it is all an
    /// append needs to fingerprint the combined table.
    ends_mid_line: bool,
    /// Hybrid-logical-clock timestamp of the winning ingest (0 for
    /// provenance-free registrations). Repair compares it against
    /// tombstone timestamps to tell a deleted table from a recreated
    /// one.
    ts: u64,
    csv: CsvSource,
}

impl std::fmt::Debug for TableEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableEntry")
            .field("name", &self.name)
            .field("n_rows", &self.table().n_rows())
            .field("n_cols", &self.table().n_cols())
            .finish()
    }
}

impl TableEntry {
    /// The table's registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shared engine (thread-safe; characterize directly on it).
    pub fn engine(&self) -> &Ziggy {
        &self.engine
    }

    /// The underlying table.
    pub fn table(&self) -> &Table {
        self.engine.table()
    }

    /// The engine's statistics cache (for `/metrics`).
    pub fn cache(&self) -> &StatsCache {
        self.engine.cache()
    }

    /// FNV-1a fingerprint of the source CSV (None for tables registered
    /// in-process via [`TableRegistry::insert_table`]).
    pub fn fingerprint(&self) -> Option<u64> {
        self.fingerprint
    }

    /// HLC timestamp of the winning ingest (0 for provenance-free
    /// registrations).
    pub fn ts(&self) -> u64 {
        self.ts
    }

    /// The source CSV text — from memory when durability is off, read
    /// back out of the durable log when it is on, `None` for tables
    /// registered in-process via [`TableRegistry::insert_table`] (no
    /// CSV provenance).
    pub fn export_csv(&self) -> Option<String> {
        match &self.csv {
            CsvSource::None => None,
            CsvSource::Memory(csv) => Some(csv.to_string()),
            CsvSource::Durable(log) => log.table_csv(&self.name),
        }
    }

    /// The `{name, n_rows, n_cols, ts}` summary object.
    pub fn summary(&self) -> Value {
        Value::Object(vec![
            ("name".into(), Value::String(self.name.clone())),
            (
                "n_rows".into(),
                Value::Number(serde_json::Number::U(self.table().n_rows() as u64)),
            ),
            (
                "n_cols".into(),
                Value::Number(serde_json::Number::U(self.table().n_cols() as u64)),
            ),
            ("ts".into(), Value::Number(serde_json::Number::U(self.ts))),
        ])
    }
}

/// Thread-safe name → [`TableEntry`] map, plus the delete-tombstone set
/// and the hybrid logical clock that orders deletes against ingests.
#[derive(Default)]
pub struct TableRegistry {
    tables: RwLock<HashMap<String, Arc<TableEntry>>>,
    /// Deleted table name → `(HLC timestamp, stray)`. Consulted by the
    /// fleet's repair loop (via `GET /tombstones`) so a backend that
    /// was absent at delete time cannot resurrect the table on rejoin.
    /// An ingest of the same name clears the local tombstone. Stray
    /// tombstones (garbage-collected surplus replicas) stay local:
    /// they keep the copy dead across replay but are excluded from the
    /// exported set, so a clean-up is never mistaken for a fleet-wide
    /// delete.
    tombstones: Mutex<HashMap<String, (u64, bool)>>,
    /// Hybrid logical clock: `max(wall_ms, last + 1)`, so timestamps
    /// are strictly increasing per backend even when the wall clock
    /// stalls or steps backwards.
    clock: AtomicU64,
    /// The durable log, when this registry persists its mutations.
    durable: RwLock<Option<Arc<DurableLog>>>,
}

fn err_duplicate(name: &str) -> ApiError {
    ApiError::conflict(format!("table `{name}` already exists"))
}

fn err_full() -> ApiError {
    ApiError::conflict(format!("registry full ({MAX_TABLES} tables)"))
}

/// Whether `name` is a legal table name (1-64 chars of
/// `[A-Za-z0-9_-]`). Public because the fleet router must validate
/// names *before* interpolating them into proxied request lines — a
/// body-supplied name containing CRLF or whitespace would otherwise
/// corrupt (or smuggle a second request onto) a pooled backend
/// connection.
pub fn valid_table_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

impl TableRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingests CSV text as a new named table, building its shared engine.
    pub fn insert_csv(
        &self,
        name: &str,
        csv: &str,
        config: ZiggyConfig,
    ) -> Result<Arc<TableEntry>, ApiError> {
        if !valid_table_name(name) {
            return Err(ApiError::bad_request(
                "table name must be 1-64 chars of [A-Za-z0-9_-]",
            ));
        }
        // Cheap pre-check so a duplicate name or a full registry fails
        // before the CSV parse and engine build, not after. The
        // authoritative re-check stays in `insert_table` under the write
        // lock (a racing ingest may take the slot in between).
        {
            let tables = self.tables.read();
            if tables.contains_key(name) {
                return Err(err_duplicate(name));
            }
            if tables.len() >= MAX_TABLES {
                return Err(err_full());
            }
        }
        let table = read_csv_str(csv, &CsvOptions::default())
            .map_err(|e| ApiError::unprocessable(format!("CSV rejected: {e}")))?;
        self.register(name, table, config, Some((fnv1a_64(csv.as_bytes()), csv)))
    }

    /// Idempotent CSV ingest — the fleet's replicate path. Returns the
    /// entry plus whether it was created by this call: re-uploading a CSV
    /// that fingerprints identically to the resident table succeeds
    /// without rebuilding anything (so the router can retry a replica
    /// materialization safely), while a name collision with different
    /// content is still a 409.
    pub fn replicate_csv(
        &self,
        name: &str,
        csv: &str,
        config: ZiggyConfig,
    ) -> Result<(Arc<TableEntry>, bool), ApiError> {
        let fingerprint = fnv1a_64(csv.as_bytes());
        let same_table = |entry: &Arc<TableEntry>| entry.fingerprint == Some(fingerprint);
        if let Ok(existing) = self.get(name) {
            return if same_table(&existing) {
                Ok((existing, false))
            } else {
                Err(err_duplicate(name))
            };
        }
        match self.insert_csv(name, csv, config) {
            Ok(entry) => Ok((entry, true)),
            // A racing replicate of the same upload may have taken the
            // slot between the lookup and the insert; that's idempotent
            // success, not a conflict.
            Err(e) if e.status == 409 => match self.get(name) {
                Ok(existing) if same_table(&existing) => Ok((existing, false)),
                _ => Err(e),
            },
            Err(e) => Err(e),
        }
    }

    /// Registers an already-built table (used by `ziggy serve --demo` and
    /// in-process benchmarks).
    pub fn insert_table(
        &self,
        name: &str,
        table: Table,
        config: ZiggyConfig,
    ) -> Result<Arc<TableEntry>, ApiError> {
        self.register(name, table, config, None)
    }

    fn register(
        &self,
        name: &str,
        table: Table,
        config: ZiggyConfig,
        provenance: Option<(u64, &str)>,
    ) -> Result<Arc<TableEntry>, ApiError> {
        if !valid_table_name(name) {
            return Err(ApiError::bad_request(
                "table name must be 1-64 chars of [A-Za-z0-9_-]",
            ));
        }
        let durable = self.durable.read().clone();
        let ts = if provenance.is_some() {
            self.hlc_now()
        } else {
            0
        };
        let csv_source = match (&provenance, &durable) {
            (None, _) => CsvSource::None,
            (Some((_, csv)), None) => CsvSource::Memory(Arc::from(*csv)),
            (Some(_), Some(log)) => CsvSource::Durable(Arc::clone(log)),
        };
        let entry = Arc::new(TableEntry {
            name: name.to_string(),
            engine: Ziggy::shared(Arc::new(table), config),
            fingerprint: provenance.map(|(fp, _)| fp),
            ends_mid_line: provenance.is_some_and(|(_, csv)| ends_mid_line(csv)),
            ts,
            csv: csv_source,
        });
        let mut tables = self.tables.write();
        if tables.len() >= MAX_TABLES {
            return Err(err_full());
        }
        if tables.contains_key(name) {
            return Err(err_duplicate(name));
        }
        // Log before acknowledging (WAL discipline): if the ingest
        // record cannot be made durable the request fails and the
        // table is not registered. Holding the write lock across the
        // append serializes ingests, which is fine — ingest is rare
        // and the ordering guarantees the log and the map agree.
        if let (Some((fingerprint, csv)), Some(log)) = (&provenance, &durable) {
            log.append(&Record::Ingest {
                table: name.to_string(),
                fingerprint: *fingerprint,
                ts,
                csv: (*csv).to_string(),
            })
            .map_err(|e| ApiError::internal(format!("durable log append failed: {e}")))?;
        }
        tables.insert(name.to_string(), Arc::clone(&entry));
        if provenance.is_some() {
            // A (re)ingest supersedes any local tombstone for the name.
            self.tombstones.lock().remove(name);
        }
        Ok(entry)
    }

    /// Appends headerless CSV rows to a live CSV-ingested table.
    ///
    /// The new immutable table extends the old columns
    /// ([`append_rows_csv`] guarantees rebuild equivalence, but copies
    /// every column: O(table)). The new engine inherits the warm
    /// whole-table statistics and zone maps through
    /// [`StatsCache::for_appended`] (only the tail chunk's summaries
    /// rebuild), and every derived cache above them starts empty —
    /// exactly the artifacts the new rows dirty. The new fingerprint —
    /// FNV-1a over the combined `old CSV ++ rows` bytes — resumes from
    /// the old one with [`combine_fingerprint`], so the old CSV is never
    /// read back: no log read on the durable path, no rehash anywhere.
    /// The append record is WAL-logged **before** the entry swap, so
    /// replay reproduces the appended table byte-identically.
    ///
    /// Returns the new entry plus the number of rows appended. Sessions
    /// pinned to the old entry keep reading their snapshot; new
    /// requests see the appended table.
    pub fn append_rows(
        &self,
        name: &str,
        rows: &str,
        config: ZiggyConfig,
    ) -> Result<(Arc<TableEntry>, usize), ApiError> {
        let entry = self.get(name)?;
        let Some(old_fingerprint) = entry.fingerprint else {
            return Err(ApiError::conflict(format!(
                "table `{name}` has no CSV provenance; only CSV-ingested tables accept appends"
            )));
        };
        // Normalize to newline-terminated rows so the logged record,
        // the fingerprint, and every future combine agree byte for byte.
        let rows: String = if rows.ends_with('\n') {
            rows.to_string()
        } else {
            format!("{rows}\n")
        };
        let new_table = append_rows_csv(entry.table(), &rows, &CsvOptions::default())
            .map_err(|e| ApiError::unprocessable(format!("append rejected: {e}")))?;
        let appended = new_table.n_rows() - entry.table().n_rows();
        let fingerprint = combine_fingerprint(old_fingerprint, entry.ends_mid_line, &rows);
        let ts = self.hlc_now();
        let cache = Arc::new(entry.cache().for_appended(Arc::new(new_table)));
        let new_entry = Arc::new(TableEntry {
            name: name.to_string(),
            engine: Ziggy::from_stats(cache, config),
            fingerprint: Some(fingerprint),
            // `rows` is newline-terminated (normalized above).
            ends_mid_line: false,
            ts,
            csv: match &entry.csv {
                CsvSource::Durable(log) => CsvSource::Durable(Arc::clone(log)),
                CsvSource::Memory(old) => CsvSource::Memory(Arc::from(combine_csv(old, &rows))),
                CsvSource::None => unreachable!("provenance checked above"),
            },
        });
        let mut tables = self.tables.write();
        // Re-validate under the write lock: a racing delete, re-ingest,
        // or concurrent append swapped the entry out from under us — the
        // table this append was computed against is stale.
        match tables.get(name) {
            Some(current) if Arc::ptr_eq(current, &entry) => {}
            _ => {
                return Err(ApiError::conflict(format!(
                    "table `{name}` changed during the append; retry"
                )))
            }
        }
        // WAL before the swap (same discipline as ingest): if the
        // append record cannot be made durable, the request fails and
        // the registry still serves the old table.
        if let CsvSource::Durable(log) = &entry.csv {
            log.append(&Record::Append {
                table: name.to_string(),
                fingerprint,
                ts,
                rows,
            })
            .map_err(|e| ApiError::internal(format!("durable log append failed: {e}")))?;
        }
        tables.insert(name.to_string(), Arc::clone(&new_entry));
        Ok((new_entry, appended))
    }

    /// Looks up a table by name.
    pub fn get(&self, name: &str) -> Result<Arc<TableEntry>, ApiError> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| ApiError::not_found(format!("no table named `{name}`")))
    }

    /// Drops a table, freeing its slot under [`MAX_TABLES`] and its name
    /// for reuse, and returns the removed entry so the caller can release
    /// whatever else pins it (the router closes the table's sessions).
    /// In-flight requests holding the `Arc` finish normally; the memory
    /// frees when the last holder drops.
    ///
    /// The delete leaves a tombstone (HLC-stamped, durably logged when a
    /// log is attached) so repair can distinguish "deleted" from "never
    /// saw it" when a stale holder rejoins the fleet.
    pub fn remove(&self, name: &str) -> Result<Arc<TableEntry>, ApiError> {
        self.remove_at(name, None)
    }

    /// Drops a **stray replica** of a table: same removal as
    /// [`TableRegistry::remove`], but the tombstone is stamped with the
    /// *entry's own* ingest timestamp instead of a fresh HLC tick, and
    /// marked stray so it is withheld from the exported tombstone set.
    /// The fleet's garbage collector deletes copies the ring walked
    /// away from; a fresh, exported tombstone could outrank the live
    /// replicas' ingest timestamps and read, fleet-wide, as "this table
    /// was deleted" — turning a local clean-up into a data-losing
    /// cascade. The entry-timestamped, local-only tombstone still kills
    /// the copy across replay (applied after its ingest in log order)
    /// while never influencing a last-writer comparison elsewhere.
    pub fn remove_stray(&self, name: &str) -> Result<Arc<TableEntry>, ApiError> {
        let ts = self.get(name)?.ts();
        self.remove_at(name, Some(ts))
    }

    fn remove_at(&self, name: &str, ts: Option<u64>) -> Result<Arc<TableEntry>, ApiError> {
        let mut tables = self.tables.write();
        if !tables.contains_key(name) {
            return Err(ApiError::not_found(format!("no table named `{name}`")));
        }
        // Re-read under the lock on the stray path: a racing re-ingest
        // may have bumped the entry between the caller's peek and here.
        let stray = ts.is_some();
        let ts = match ts {
            Some(_) => tables.get(name).expect("checked above").ts(),
            None => self.hlc_now(),
        };
        if let Some(log) = self.durable.read().clone() {
            log.append(&Record::Tombstone {
                table: name.to_string(),
                ts,
                stray,
            })
            .map_err(|e| ApiError::internal(format!("durable log append failed: {e}")))?;
        }
        let entry = tables.remove(name).expect("checked above");
        let mut tombstones = self.tombstones.lock();
        tombstones.insert(name.to_string(), (ts, stray));
        if tombstones.len() > MAX_TOMBSTONES {
            if let Some(oldest) = tombstones
                .iter()
                .min_by_key(|(_, (ts, _))| *ts)
                .map(|(name, _)| name.clone())
            {
                tombstones.remove(&oldest);
            }
        }
        Ok(entry)
    }

    /// Attaches the durable log. Call before serving traffic (the boot
    /// sequence replays first, then attaches, then opens the listener);
    /// tables ingested afterwards log their mutations and serve CSV
    /// exports from the log instead of retaining the text in memory.
    pub fn attach_durable(&self, log: Arc<DurableLog>) {
        *self.durable.write() = Some(log);
    }

    /// The attached durable log, if any.
    pub fn durable(&self) -> Option<Arc<DurableLog>> {
        self.durable.read().clone()
    }

    /// Next hybrid-logical-clock timestamp: `max(wall_ms, last + 1)`.
    pub fn hlc_now(&self) -> u64 {
        loop {
            let last = self.clock.load(Ordering::Relaxed);
            let next = wall_ms().max(last + 1);
            if self
                .clock
                .compare_exchange_weak(last, next, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return next;
            }
        }
    }

    /// Advances the clock to at least `ts` (replay and fleet hygiene:
    /// restored or remote timestamps must not outrun new local ones).
    pub fn observe_ts(&self, ts: u64) {
        self.clock.fetch_max(ts, Ordering::Relaxed);
    }

    /// Restores a replayed table: registers it with `Durable` CSV
    /// provenance using the logged timestamp, **without** re-appending
    /// to the log. The durable log must already be attached.
    pub fn restore_table(
        &self,
        name: &str,
        csv: &str,
        fingerprint: u64,
        ts: u64,
        config: ZiggyConfig,
    ) -> Result<Arc<TableEntry>, ApiError> {
        let log = self
            .durable()
            .ok_or_else(|| ApiError::internal("restore_table requires an attached durable log"))?;
        self.observe_ts(ts);
        let table = read_csv_str(csv, &CsvOptions::default())
            .map_err(|e| ApiError::unprocessable(format!("replayed CSV rejected: {e}")))?;
        let entry = Arc::new(TableEntry {
            name: name.to_string(),
            engine: Ziggy::shared(Arc::new(table), config),
            fingerprint: Some(fingerprint),
            ends_mid_line: ends_mid_line(csv),
            ts,
            csv: CsvSource::Durable(log),
        });
        let mut tables = self.tables.write();
        if tables.len() >= MAX_TABLES {
            return Err(err_full());
        }
        if tables.contains_key(name) {
            return Err(err_duplicate(name));
        }
        tables.insert(name.to_string(), Arc::clone(&entry));
        Ok(entry)
    }

    /// Restores a replayed tombstone (no log append).
    pub fn restore_tombstone(&self, name: &str, ts: u64, stray: bool) {
        self.observe_ts(ts);
        self.tombstones.lock().insert(name.to_string(), (ts, stray));
    }

    /// The full tombstone set — stray clean-ups included — as
    /// `(table, ts, stray)` triples, sorted by name. This is the
    /// snapshot-building view; the fleet-facing `GET /tombstones`
    /// serves [`TableRegistry::exported_tombstones`] instead.
    pub fn tombstones(&self) -> Vec<(String, u64, bool)> {
        let mut all: Vec<(String, u64, bool)> = self
            .tombstones
            .lock()
            .iter()
            .map(|(name, (ts, stray))| (name.clone(), *ts, *stray))
            .collect();
        all.sort();
        all
    }

    /// The tombstones the fleet may act on: user deletes only. Stray
    /// garbage-collection tombstones are withheld — a surplus replica's
    /// clean-up record could carry a timestamp above the live copies'
    /// and would otherwise read, fleet-wide, as "delete this table".
    pub fn exported_tombstones(&self) -> Vec<(String, u64)> {
        let mut all: Vec<(String, u64)> = self
            .tombstones
            .lock()
            .iter()
            .filter(|(_, (_, stray))| !stray)
            .map(|(name, (ts, _))| (name.clone(), *ts))
            .collect();
        all.sort();
        all
    }

    /// Live tables with their CSV bytes, for snapshotting. Tables
    /// without CSV provenance (in-process registrations) are skipped —
    /// they were never logged and are by design ephemeral.
    pub fn snapshot_tables(&self) -> Vec<ziggy_durable::TableState> {
        let entries: Vec<Arc<TableEntry>> = self.tables.read().values().cloned().collect();
        let mut out: Vec<ziggy_durable::TableState> = entries
            .iter()
            .filter_map(|e| {
                let fingerprint = e.fingerprint?;
                let csv = e.export_csv()?;
                Some(ziggy_durable::TableState {
                    name: e.name.clone(),
                    fingerprint,
                    ts: e.ts,
                    csv,
                })
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.tables.read().len()
    }

    /// True when no tables are registered.
    pub fn is_empty(&self) -> bool {
        self.tables.read().is_empty()
    }

    /// All tables, sorted by name for stable output.
    pub fn entries(&self) -> Vec<Arc<TableEntry>> {
        let mut entries: Vec<Arc<TableEntry>> = self.tables.read().values().cloned().collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        entries
    }

    /// Summaries of all tables, sorted by name.
    pub fn summaries(&self) -> Vec<Value> {
        self.entries().iter().map(|e| e.summary()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CSV: &str = "x,y\n1,2\n3,4\n5,6\n";

    #[test]
    fn ingest_and_lookup() {
        let r = TableRegistry::new();
        let e = r.insert_csv("t1", CSV, ZiggyConfig::default()).unwrap();
        assert_eq!(e.table().n_rows(), 3);
        assert_eq!(r.get("t1").unwrap().name(), "t1");
        assert_eq!(r.len(), 1);
        assert!(r.get("nope").is_err());
    }

    #[test]
    fn duplicate_names_conflict() {
        let r = TableRegistry::new();
        r.insert_csv("t", CSV, ZiggyConfig::default()).unwrap();
        let err = r.insert_csv("t", CSV, ZiggyConfig::default()).unwrap_err();
        assert_eq!(err.status, 409);
    }

    #[test]
    fn names_validated() {
        let r = TableRegistry::new();
        for bad in ["", "has space", "a/b", "x".repeat(65).as_str()] {
            assert_eq!(
                r.insert_csv(bad, CSV, ZiggyConfig::default())
                    .unwrap_err()
                    .status,
                400,
                "{bad:?}"
            );
        }
    }

    #[test]
    fn remove_frees_name_and_slot() {
        let r = TableRegistry::new();
        let pinned = r.insert_csv("t", CSV, ZiggyConfig::default()).unwrap();
        r.remove("t").unwrap();
        assert!(r.is_empty());
        assert_eq!(r.remove("t").unwrap_err().status, 404);
        // The name is reusable, and the old pinned entry stays usable for
        // whoever still holds its Arc.
        r.insert_csv("t", CSV, ZiggyConfig::default()).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(pinned.table().n_rows(), 3);
        pinned.engine().cache().uni(0).unwrap();
    }

    #[test]
    fn bad_csv_rejected() {
        let r = TableRegistry::new();
        let err = r.insert_csv("t", "", ZiggyConfig::default()).unwrap_err();
        assert_eq!(err.status, 422);
    }

    #[test]
    fn summaries_sorted() {
        let r = TableRegistry::new();
        r.insert_csv("b", CSV, ZiggyConfig::default()).unwrap();
        r.insert_csv("a", CSV, ZiggyConfig::default()).unwrap();
        let names: Vec<String> = r
            .summaries()
            .iter()
            .map(|s| s.get("name").unwrap().as_str().unwrap().to_string())
            .collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn fnv1a_is_stable_and_spreads() {
        // Known-answer vectors keep the hash stable across refactors —
        // ring placement and replicate idempotency both depend on it.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a_64(b"table-0"), fnv1a_64(b"table-1"));
    }

    #[test]
    fn replicate_is_idempotent_for_identical_csv() {
        let r = TableRegistry::new();
        let (e1, created) = r.replicate_csv("t", CSV, ZiggyConfig::default()).unwrap();
        assert!(created);
        let (e2, created) = r.replicate_csv("t", CSV, ZiggyConfig::default()).unwrap();
        assert!(!created, "identical re-upload must be a no-op");
        assert!(Arc::ptr_eq(&e1, &e2), "must reuse the resident engine");
        assert_eq!(r.len(), 1);
        // Different content under the same name is still a conflict.
        let err = r
            .replicate_csv("t", "x,y\n9,9\n8,8\n7,7\n", ZiggyConfig::default())
            .unwrap_err();
        assert_eq!(err.status, 409);
        // A table registered without CSV provenance never matches.
        let table = ziggy_store::csv::read_csv_str(CSV, &CsvOptions::default()).unwrap();
        r.insert_table("demo", table, ZiggyConfig::default())
            .unwrap();
        assert_eq!(
            r.replicate_csv("demo", CSV, ZiggyConfig::default())
                .unwrap_err()
                .status,
            409
        );
    }

    #[test]
    fn delete_leaves_tombstone_and_reingest_clears_it() {
        let r = TableRegistry::new();
        r.insert_csv("t", CSV, ZiggyConfig::default()).unwrap();
        assert!(r.tombstones().is_empty());
        r.remove("t").unwrap();
        let stones = r.tombstones();
        assert_eq!(stones.len(), 1);
        assert_eq!(stones[0].0, "t");
        assert!(stones[0].1 > 0, "tombstones carry an HLC timestamp");
        // Re-ingesting the name supersedes the tombstone, and the new
        // entry's timestamp is strictly newer than the delete's.
        let e = r.insert_csv("t", CSV, ZiggyConfig::default()).unwrap();
        assert!(r.tombstones().is_empty());
        assert!(e.ts() > stones[0].1);
    }

    #[test]
    fn stray_remove_tombstones_at_entry_ts_and_is_not_exported() {
        let r = TableRegistry::new();
        let e = r.insert_csv("t", CSV, ZiggyConfig::default()).unwrap();
        let ingest_ts = e.ts();
        r.remove_stray("t").unwrap();
        // The copy is gone and the tombstone carries the *entry's own*
        // timestamp — never a fresh HLC tick that could outrank live
        // replicas elsewhere.
        assert!(r.get("t").is_err());
        assert_eq!(r.tombstones(), vec![("t".to_string(), ingest_ts, true)]);
        // The fleet-facing view withholds it entirely.
        assert!(r.exported_tombstones().is_empty());
        // A plain delete is exported as before.
        r.insert_csv("u", CSV, ZiggyConfig::default()).unwrap();
        r.remove("u").unwrap();
        assert_eq!(r.exported_tombstones().len(), 1);
        assert_eq!(r.exported_tombstones()[0].0, "u");
    }

    #[test]
    fn hlc_is_strictly_increasing_and_observes_remote_timestamps() {
        let r = TableRegistry::new();
        let a = r.hlc_now();
        let b = r.hlc_now();
        assert!(b > a);
        // A remote timestamp far in the future must not be outrun by
        // local stamps (LWW would otherwise resurrect remote deletes).
        let future = b + 1_000_000;
        r.observe_ts(future);
        assert!(r.hlc_now() > future);
    }

    #[test]
    fn tombstone_cap_evicts_oldest() {
        let r = TableRegistry::new();
        for i in 0..(MAX_TOMBSTONES + 5) {
            r.restore_tombstone(&format!("t{i}"), i as u64 + 1, false);
        }
        // restore_tombstone does not evict (replay must be lossless);
        // the cap applies on the remove() path. Exercise it directly.
        r.insert_csv("live", CSV, ZiggyConfig::default()).unwrap();
        r.remove("live").unwrap();
        let stones = r.tombstones();
        assert!(stones.len() <= MAX_TOMBSTONES + 5);
        assert!(stones.iter().any(|(name, _, _)| name == "live"));
        // The oldest restored stone (ts=1) was the eviction victim.
        assert!(!stones.iter().any(|(_, ts, _)| *ts == 1));
    }

    #[test]
    fn append_rows_matches_full_reingest_fingerprint() {
        let r = TableRegistry::new();
        let old = r.insert_csv("t", CSV, ZiggyConfig::default()).unwrap();
        let (e, appended) = r
            .append_rows("t", "7,8\n9,10\n", ZiggyConfig::default())
            .unwrap();
        assert_eq!(appended, 2);
        assert_eq!(e.table().n_rows(), 5);
        assert!(e.ts() > old.ts(), "appends take a fresh HLC tick");
        // The combined bytes fingerprint exactly as a fresh upload of
        // `old ++ rows` would — the fleet's idempotency contract.
        let combined = format!("{CSV}7,8\n9,10\n");
        assert_eq!(e.fingerprint(), Some(fnv1a_64(combined.as_bytes())));
        assert_eq!(e.export_csv().as_deref(), Some(combined.as_str()));
        // Missing trailing newline on the rows is normalized in.
        let (e, _) = r.append_rows("t", "11,12", ZiggyConfig::default()).unwrap();
        assert!(e.export_csv().unwrap().ends_with("11,12\n"));
        // The old pinned entry still serves its snapshot.
        assert_eq!(old.table().n_rows(), 3);
    }

    /// A base CSV whose last line has no newline: the next append must
    /// insert one, in the bytes and in the resumed fingerprint alike.
    const UNTERMINATED: &str = "x,y\n1,2\n3,4";

    /// The invariants every CSV-backed entry keeps, whatever its
    /// history: its fingerprint is the FNV-1a of its export, and
    /// re-uploading that export is an idempotent no-op, never a 409.
    fn assert_export_consistent(r: &TableRegistry, name: &str) {
        let entry = r.get(name).unwrap();
        let csv = entry.export_csv().unwrap();
        assert_eq!(
            entry.fingerprint(),
            Some(fnv1a_64(csv.as_bytes())),
            "{name}"
        );
        let (same, created) = r.replicate_csv(name, &csv, ZiggyConfig::default()).unwrap();
        assert!(!created, "{name}");
        assert!(Arc::ptr_eq(&same, &entry), "{name}");
    }

    #[test]
    fn unterminated_base_appends_stay_consistent_in_memory() {
        let r = TableRegistry::new();
        r.insert_csv("t", UNTERMINATED, ZiggyConfig::default())
            .unwrap();
        assert_export_consistent(&r, "t");
        r.append_rows("t", "5,6\n", ZiggyConfig::default()).unwrap();
        assert_export_consistent(&r, "t");
        r.append_rows("t", "7,8", ZiggyConfig::default()).unwrap();
        assert_export_consistent(&r, "t");
        assert_eq!(
            r.get("t").unwrap().export_csv().as_deref(),
            Some("x,y\n1,2\n3,4\n5,6\n7,8\n")
        );
    }

    fn open_durable(dir: &std::path::Path) -> (TableRegistry, Arc<DurableLog>) {
        let opts = ziggy_durable::DurableOptions {
            mode: ziggy_durable::DurabilityMode::Batch,
            snapshot_every: 0,
            ..Default::default()
        };
        let (log, replay) = DurableLog::open(dir, opts).unwrap();
        let log = Arc::new(log);
        let r = TableRegistry::new();
        r.attach_durable(Arc::clone(&log));
        for t in &replay.state.tables {
            r.restore_table(&t.name, &t.csv, t.fingerprint, t.ts, ZiggyConfig::default())
                .unwrap();
        }
        (r, log)
    }

    fn snapshot(r: &TableRegistry, log: &DurableLog) {
        let cover = log.begin_snapshot().unwrap();
        let state = ziggy_durable::SnapshotState {
            tables: r.snapshot_tables(),
            tombstones: r.tombstones(),
            sessions: Vec::new(),
        };
        log.write_snapshot(cover, &state).unwrap();
    }

    #[test]
    fn unterminated_base_appends_stay_consistent_through_replay_and_snapshot() {
        let dir = std::env::temp_dir().join(format!(
            "ziggy-serve-registry-{}-unterminated",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let names = ["grown", "restored", "snapped"];
        {
            let (r, _log) = open_durable(&dir);
            for name in names {
                r.insert_csv(name, UNTERMINATED, ZiggyConfig::default())
                    .unwrap();
                assert_export_consistent(&r, name);
            }
            // Appended onto the mid-line base read back from the WAL.
            r.append_rows("grown", "5,6\n", ZiggyConfig::default())
                .unwrap();
            assert_export_consistent(&r, "grown");
        }
        {
            // Replayed from segments: "restored" and "snapped" come back
            // still ending mid-line.
            let (r, log) = open_durable(&dir);
            for name in names {
                assert_export_consistent(&r, name);
            }
            r.append_rows("restored", "5,6\n", ZiggyConfig::default())
                .unwrap();
            r.append_rows("grown", "7,8\n", ZiggyConfig::default())
                .unwrap();
            snapshot(&r, &log);
            // Exports now stitch from the snapshot.
            for name in names {
                assert_export_consistent(&r, name);
            }
        }
        {
            // Replayed from the snapshot: "snapped" still ends mid-line.
            let (r, _log) = open_durable(&dir);
            for name in names {
                assert_export_consistent(&r, name);
                r.append_rows(name, "9,10\n", ZiggyConfig::default())
                    .unwrap();
                assert_export_consistent(&r, name);
            }
            assert_eq!(
                r.get("snapped").unwrap().export_csv().as_deref(),
                Some("x,y\n1,2\n3,4\n9,10\n")
            );
            assert_eq!(
                r.get("grown").unwrap().export_csv().as_deref(),
                Some("x,y\n1,2\n3,4\n5,6\n7,8\n9,10\n")
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_rows_guards() {
        let r = TableRegistry::new();
        assert_eq!(
            r.append_rows("ghost", "1,2\n", ZiggyConfig::default())
                .unwrap_err()
                .status,
            404
        );
        // Provenance-free tables refuse appends: replay could never
        // reproduce them.
        let table = read_csv_str(CSV, &CsvOptions::default()).unwrap();
        r.insert_table("demo", table, ZiggyConfig::default())
            .unwrap();
        assert_eq!(
            r.append_rows("demo", "1,2\n", ZiggyConfig::default())
                .unwrap_err()
                .status,
            409
        );
        // Type-flipping or ragged rows are a 422 and leave the table
        // untouched.
        r.insert_csv("t", CSV, ZiggyConfig::default()).unwrap();
        for bad in ["oops,2\n", "1,2,3\n", ""] {
            assert_eq!(
                r.append_rows("t", bad, ZiggyConfig::default())
                    .unwrap_err()
                    .status,
                422,
                "{bad:?}"
            );
        }
        assert_eq!(r.get("t").unwrap().table().n_rows(), 3);
    }

    #[test]
    fn engine_shared_across_clones() {
        let r = TableRegistry::new();
        r.insert_csv("t", "x,y\nz", ZiggyConfig::default()).ok();
        let big: String = {
            let mut s = String::from("a,b\n");
            for i in 0..300 {
                s.push_str(&format!("{},{}\n", i, i * 2));
            }
            s
        };
        r.insert_csv("big", &big, ZiggyConfig::default()).unwrap();
        let e1 = r.get("big").unwrap();
        let e2 = r.get("big").unwrap();
        e1.engine().cache().uni(0).unwrap();
        // Same engine: the second handle sees the first's cache entry.
        assert_eq!(e2.engine().cache().sizes().0, 1);
        assert_eq!(e2.engine().cache().counters().misses, 1);
    }
}
