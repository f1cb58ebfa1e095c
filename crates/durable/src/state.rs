//! The replay state machine and the snapshot codec.
//!
//! [`Materializer`] folds records into last-writer-wins state. Every
//! apply rule is idempotent and order-tolerant under re-application:
//! ingests and tombstones race by HLC timestamp (tie goes to the
//! table — a backend's own clock is strictly increasing, so ties only
//! arise across backends and the fleet treats "deleted iff strictly
//! newer tombstone" as the canonical rule), and session steps carry
//! their 1-based sequence number so a step already reflected in a
//! snapshot is skipped rather than double-applied. That idempotency is
//! what makes the snapshot race-free without quiescing writers: the
//! cover LSN is captured *before* the live state is read, so any
//! record landing in between is both inside the snapshot and replayed
//! after it — harmlessly.

use std::collections::HashMap;

use serde_json::{Number, Value};

use crate::record::{combine_csv_into, Record};

/// Where the current CSV bytes of a live table can be read back from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvLoc {
    /// Inside a segment file: the framed ingest record at `offset`.
    Segment {
        /// Segment file name (not a full path; segments never move
        /// between directories).
        file: String,
        /// Byte offset of the framed record line within the segment.
        offset: u64,
    },
    /// Inside the newest snapshot file.
    Snapshot,
}

/// Where a table's CSV bytes live once appends exist: the winning
/// ingest's location plus the append records layered on top of it, in
/// log order. Reading the chain re-runs the materializer's composition
/// rule (skip records at or below the base's timestamp, concatenate the
/// rest), so the export path and replay agree byte for byte. A snapshot
/// collapses the chain back to a single [`CsvLoc::Snapshot`] base.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvChain {
    /// The winning ingest's CSV (or the snapshot's combined CSV).
    pub base: CsvLoc,
    /// Append records extending the base, oldest first.
    pub appends: Vec<CsvLoc>,
}

impl CsvChain {
    /// A chain with no appends.
    pub fn solo(base: CsvLoc) -> Self {
        Self {
            base,
            appends: Vec::new(),
        }
    }
}

/// A live table as carried by snapshots and replay results.
#[derive(Debug, Clone, PartialEq)]
pub struct TableState {
    /// Table name.
    pub name: String,
    /// FNV-1a fingerprint of `csv`.
    pub fingerprint: u64,
    /// HLC timestamp of the winning ingest.
    pub ts: u64,
    /// The CSV bytes.
    pub csv: String,
}

/// A live session as carried by snapshots and replay results.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionState {
    /// Session id.
    pub id: u64,
    /// Table the session explores.
    pub table: String,
    /// Total steps the session has accepted (monotonic).
    pub steps: u64,
    /// The query of the last accepted step, whose report the session's
    /// next step is diffed against (`None` before the first step).
    pub last_query: Option<String>,
}

/// Everything a snapshot captures — built by the serve layer from live
/// registry + session-manager state, and returned by replay for the
/// serve layer to rebuild them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SnapshotState {
    /// Live tables, including CSV bytes.
    pub tables: Vec<TableState>,
    /// Delete tombstones as `(table, ts, stray)` triples. Stray
    /// tombstones are local garbage-collection artifacts — they keep
    /// the copy dead across replay but are never exported to the fleet.
    pub tombstones: Vec<(String, u64, bool)>,
    /// Live sessions with their step counts and last queries.
    pub sessions: Vec<SessionState>,
}

#[derive(Debug, Clone)]
struct MatTable {
    fingerprint: u64,
    ts: u64,
    csv: String,
    loc: CsvLoc,
    /// Locations of append records applied on top of `loc`, log order.
    appends: Vec<CsvLoc>,
}

#[derive(Debug, Clone, Default)]
struct MatSession {
    table: String,
    steps: u64,
    last_query: Option<String>,
}

/// Folds snapshot + records into materialized state.
#[derive(Debug, Default)]
pub struct Materializer {
    tables: HashMap<String, MatTable>,
    tombstones: HashMap<String, (u64, bool)>,
    sessions: HashMap<u64, MatSession>,
}

impl Materializer {
    /// Starts from a decoded snapshot (tables located in the snapshot
    /// file) or from scratch.
    pub fn from_snapshot(snap: Option<&SnapshotState>) -> Self {
        let mut mat = Materializer::default();
        if let Some(snap) = snap {
            for t in &snap.tables {
                mat.tables.insert(
                    t.name.clone(),
                    MatTable {
                        fingerprint: t.fingerprint,
                        ts: t.ts,
                        csv: t.csv.clone(),
                        loc: CsvLoc::Snapshot,
                        appends: Vec::new(),
                    },
                );
            }
            for (name, ts, stray) in &snap.tombstones {
                mat.tombstones.insert(name.clone(), (*ts, *stray));
            }
            for s in &snap.sessions {
                mat.sessions.insert(
                    s.id,
                    MatSession {
                        table: s.table.clone(),
                        steps: s.steps,
                        last_query: s.last_query.clone(),
                    },
                );
            }
        }
        mat
    }

    /// Applies one record. `loc` is where ingest CSV bytes live (the
    /// segment the record was read from, or where it was just written).
    pub fn apply(&mut self, rec: &Record, loc: CsvLoc) {
        match rec {
            Record::Ingest {
                table,
                fingerprint,
                ts,
                csv,
            } => {
                if self.tombstones.get(table).is_some_and(|t| t.0 > *ts) {
                    return; // A strictly newer delete wins.
                }
                if self.tables.get(table).is_some_and(|t| t.ts > *ts) {
                    return; // A newer ingest already won.
                }
                self.tombstones.remove(table);
                self.tables.insert(
                    table.clone(),
                    MatTable {
                        fingerprint: *fingerprint,
                        ts: *ts,
                        csv: csv.clone(),
                        loc,
                        appends: Vec::new(),
                    },
                );
            }
            Record::Append {
                table,
                fingerprint,
                ts,
                rows,
            } => {
                // Appends extend an existing table and never revive one:
                // no table (deleted, or its ingest lost the LWW race)
                // means the append's effect is already void. The same
                // `ts > table.ts` rule ingests use makes re-application
                // idempotent — a record also reflected in the snapshot
                // (the snapshot-race window) ties on ts and is skipped.
                if let Some(t) = self.tables.get_mut(table) {
                    if *ts > t.ts {
                        combine_csv_into(&mut t.csv, rows);
                        t.fingerprint = *fingerprint;
                        t.ts = *ts;
                        t.appends.push(loc);
                    }
                }
            }
            Record::Tombstone { table, ts, stray } => {
                if self.tables.get(table).is_some_and(|t| t.ts > *ts) {
                    return; // The table was re-ingested after this delete.
                }
                self.tables.remove(table);
                let slot = self
                    .tombstones
                    .entry(table.clone())
                    .or_insert((*ts, *stray));
                if *ts > slot.0 {
                    *slot = (*ts, *stray);
                } else if *ts == slot.0 {
                    // A plain delete at the same timestamp outranks a
                    // stray clean-up: the exported (non-stray) view is
                    // the conservative one.
                    slot.1 = slot.1 && *stray;
                }
                // Deleting a table closes its sessions, mirroring the
                // serve layer's cascade.
                self.sessions.retain(|_, s| s.table != *table);
            }
            Record::SessionCreate { id, table } => {
                self.sessions.entry(*id).or_insert_with(|| MatSession {
                    table: table.clone(),
                    steps: 0,
                    last_query: None,
                });
            }
            Record::SessionStep { id, seq, query } => {
                if let Some(s) = self.sessions.get_mut(id) {
                    if *seq > s.steps {
                        s.steps = *seq;
                        s.last_query = Some(query.clone());
                    }
                }
            }
            Record::SessionDelete { id } => {
                self.sessions.remove(id);
            }
        }
    }

    /// Extracts the final state, deterministically ordered (tables by
    /// name, sessions by id) so replayed registries enumerate
    /// identically run to run.
    pub fn into_state(self) -> SnapshotState {
        let mut tables: Vec<TableState> = self
            .tables
            .into_iter()
            .map(|(name, t)| TableState {
                name,
                fingerprint: t.fingerprint,
                ts: t.ts,
                csv: t.csv,
            })
            .collect();
        tables.sort_by(|a, b| a.name.cmp(&b.name));
        let mut tombstones: Vec<(String, u64, bool)> = self
            .tombstones
            .into_iter()
            .map(|(name, (ts, stray))| (name, ts, stray))
            .collect();
        tombstones.sort();
        let mut sessions: Vec<SessionState> = self
            .sessions
            .into_iter()
            .map(|(id, s)| SessionState {
                id,
                table: s.table,
                steps: s.steps,
                last_query: s.last_query,
            })
            .collect();
        sessions.sort_by_key(|s| s.id);
        SnapshotState {
            tables,
            tombstones,
            sessions,
        }
    }

    /// CSV location chains of the live tables, for the log's export
    /// index: winning ingest plus the appends layered on top of it.
    pub fn csv_locs(&self) -> Vec<(String, CsvChain)> {
        self.tables
            .iter()
            .map(|(name, t)| {
                (
                    name.clone(),
                    CsvChain {
                        base: t.loc.clone(),
                        appends: t.appends.clone(),
                    },
                )
            })
            .collect()
    }
}

fn num(n: u64) -> Value {
    Value::Number(Number::U(n))
}

/// Header prefix of checksummed snapshot files:
/// `ZS1 <fnv64-hex>\n<json>`. Files without it are pre-checksum
/// snapshots and decode without verification.
const SNAPSHOT_MAGIC: &str = "ZS1 ";

/// Error-message prefix [`decode_snapshot`] uses for checksum
/// mismatches, so boot can count them apart from plain parse failures.
pub const SNAPSHOT_CHECKSUM_MISMATCH: &str = "snapshot checksum mismatch";

use ziggy_store::fnv1a_64;

/// Renders a snapshot file: a `ZS1 <fnv64>` checksum header line over
/// the JSON payload `{"version":1,"lsn":N,...}`, so boot can tell a
/// torn or bit-rotted snapshot from a good one and fall back to an
/// older snapshot or pure WAL replay.
pub fn encode_snapshot(cover_lsn: u64, state: &SnapshotState) -> String {
    let json = encode_snapshot_json(cover_lsn, state);
    format!("{SNAPSHOT_MAGIC}{:016x}\n{json}", fnv1a_64(json.as_bytes()))
}

fn encode_snapshot_json(cover_lsn: u64, state: &SnapshotState) -> String {
    let tables = state
        .tables
        .iter()
        .map(|t| {
            Value::Object(vec![
                ("name".into(), Value::String(t.name.clone())),
                ("fingerprint".into(), num(t.fingerprint)),
                ("ts".into(), num(t.ts)),
                ("csv".into(), Value::String(t.csv.clone())),
            ])
        })
        .collect();
    let tombstones = state
        .tombstones
        .iter()
        .map(|(name, ts, stray)| {
            Value::Object(vec![
                ("table".into(), Value::String(name.clone())),
                ("ts".into(), num(*ts)),
                ("stray".into(), Value::Bool(*stray)),
            ])
        })
        .collect();
    let sessions = state
        .sessions
        .iter()
        .map(|s| {
            Value::Object(vec![
                ("id".into(), num(s.id)),
                ("table".into(), Value::String(s.table.clone())),
                ("steps".into(), num(s.steps)),
                // An array of at most one element: the format that
                // binaries reading a query list already decode.
                (
                    "queries".into(),
                    Value::Array(s.last_query.iter().cloned().map(Value::String).collect()),
                ),
            ])
        })
        .collect();
    let doc = Value::Object(vec![
        ("version".into(), num(1)),
        ("lsn".into(), num(cover_lsn)),
        ("tables".into(), Value::Array(tables)),
        ("tombstones".into(), Value::Array(tombstones)),
        ("sessions".into(), Value::Array(sessions)),
    ]);
    serde_json::to_string(&doc).expect("snapshot JSON render is infallible")
}

/// Parses a snapshot file back into `(cover_lsn, state)`. A `ZS1`
/// checksum header is verified first — a mismatch is an error (whose
/// message starts with [`SNAPSHOT_CHECKSUM_MISMATCH`]) so boot falls
/// back to an older snapshot or pure WAL replay instead of trusting a
/// corrupt file. Headerless files are legacy snapshots and parse
/// unverified.
pub fn decode_snapshot(text: &str) -> Result<(u64, SnapshotState), String> {
    let payload = match text.strip_prefix(SNAPSHOT_MAGIC) {
        Some(rest) => {
            let (sum, payload) = rest
                .split_once('\n')
                .ok_or("snapshot checksum header without a payload")?;
            let expected = u64::from_str_radix(sum.trim(), 16)
                .map_err(|_| format!("unparseable snapshot checksum `{sum}`"))?;
            let actual = fnv1a_64(payload.as_bytes());
            if actual != expected {
                return Err(format!(
                    "{SNAPSHOT_CHECKSUM_MISMATCH}: header {expected:016x}, payload {actual:016x}"
                ));
            }
            payload
        }
        None => text,
    };
    let doc = serde_json::from_str_value(payload).map_err(|e| e.to_string())?;
    let version = doc
        .get("version")
        .and_then(Value::as_u64)
        .ok_or("missing version")?;
    if version != 1 {
        return Err(format!("unsupported snapshot version {version}"));
    }
    let lsn = doc
        .get("lsn")
        .and_then(Value::as_u64)
        .ok_or("missing lsn")?;
    let mut state = SnapshotState::default();
    for t in doc
        .get("tables")
        .and_then(Value::as_array)
        .ok_or("missing tables")?
    {
        state.tables.push(TableState {
            name: t
                .get("name")
                .and_then(Value::as_str)
                .ok_or("table name")?
                .to_string(),
            fingerprint: t
                .get("fingerprint")
                .and_then(Value::as_u64)
                .ok_or("table fingerprint")?,
            ts: t.get("ts").and_then(Value::as_u64).ok_or("table ts")?,
            csv: t
                .get("csv")
                .and_then(Value::as_str)
                .ok_or("table csv")?
                .to_string(),
        });
    }
    for t in doc
        .get("tombstones")
        .and_then(Value::as_array)
        .ok_or("missing tombstones")?
    {
        state.tombstones.push((
            t.get("table")
                .and_then(Value::as_str)
                .ok_or("tombstone table")?
                .to_string(),
            t.get("ts").and_then(Value::as_u64).ok_or("tombstone ts")?,
            t.get("stray").and_then(Value::as_bool).unwrap_or(false),
        ));
    }
    for s in doc
        .get("sessions")
        .and_then(Value::as_array)
        .ok_or("missing sessions")?
    {
        // The last element is the last query; older snapshots carry up
        // to 64 queries, oldest first.
        let last_query = s
            .get("queries")
            .and_then(Value::as_array)
            .ok_or("session queries")?
            .last()
            .map(|q| q.as_str().map(str::to_string).ok_or("session query"))
            .transpose()?;
        state.sessions.push(SessionState {
            id: s.get("id").and_then(Value::as_u64).ok_or("session id")?,
            table: s
                .get("table")
                .and_then(Value::as_str)
                .ok_or("session table")?
                .to_string(),
            steps: s
                .get("steps")
                .and_then(Value::as_u64)
                .ok_or("session steps")?,
            last_query,
        });
    }
    Ok((lsn, state))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(offset: u64) -> CsvLoc {
        CsvLoc::Segment {
            file: "seg-00000000000000000001.log".into(),
            offset,
        }
    }

    #[test]
    fn ingest_then_tombstone_deletes_and_reingst_revives() {
        let mut mat = Materializer::default();
        mat.apply(
            &Record::Ingest {
                table: "t".into(),
                fingerprint: 1,
                ts: 10,
                csv: "a\n1\n".into(),
            },
            seg(0),
        );
        mat.apply(
            &Record::Tombstone {
                table: "t".into(),
                ts: 11,
                stray: false,
            },
            seg(0),
        );
        mat.apply(
            &Record::Ingest {
                table: "t".into(),
                fingerprint: 2,
                ts: 12,
                csv: "a\n2\n".into(),
            },
            seg(40),
        );
        let state = mat.into_state();
        assert_eq!(state.tables.len(), 1);
        assert_eq!(state.tables[0].fingerprint, 2);
        assert!(state.tombstones.is_empty());
    }

    #[test]
    fn stale_records_lose_by_timestamp_regardless_of_order() {
        // The compaction edge case: an old ingest record survives in a
        // retained segment and replays *after* the snapshot that
        // already contains the delete. LWW must keep the delete.
        let snap = SnapshotState {
            tables: vec![],
            tombstones: vec![("t".into(), 20, false)],
            sessions: vec![],
        };
        let mut mat = Materializer::from_snapshot(Some(&snap));
        mat.apply(
            &Record::Ingest {
                table: "t".into(),
                fingerprint: 1,
                ts: 10,
                csv: "a\n1\n".into(),
            },
            seg(0),
        );
        let state = mat.into_state();
        assert!(state.tables.is_empty());
        assert_eq!(state.tombstones, vec![("t".into(), 20, false)]);

        // And symmetric: a stale tombstone replayed over a newer ingest.
        let mut mat = Materializer::default();
        mat.apply(
            &Record::Ingest {
                table: "t".into(),
                fingerprint: 5,
                ts: 30,
                csv: "a\n5\n".into(),
            },
            seg(0),
        );
        mat.apply(
            &Record::Tombstone {
                table: "t".into(),
                ts: 20,
                stray: false,
            },
            seg(0),
        );
        let state = mat.into_state();
        assert_eq!(state.tables.len(), 1);
        assert!(state.tombstones.is_empty());
    }

    #[test]
    fn append_extends_csv_and_is_idempotent_by_ts() {
        let mut mat = Materializer::default();
        mat.apply(
            &Record::Ingest {
                table: "t".into(),
                fingerprint: 1,
                ts: 10,
                csv: "a,b\n1,2\n".into(),
            },
            seg(0),
        );
        let append = Record::Append {
            table: "t".into(),
            fingerprint: 2,
            ts: 11,
            rows: "3,4\n".into(),
        };
        mat.apply(&append, seg(40));
        // Re-application (the snapshot-race window) must be a no-op.
        mat.apply(&append, seg(40));
        // A stale append (ts at or below the table's) is skipped too.
        mat.apply(
            &Record::Append {
                table: "t".into(),
                fingerprint: 9,
                ts: 11,
                rows: "9,9\n".into(),
            },
            seg(80),
        );
        // An append to an absent table never creates one.
        mat.apply(
            &Record::Append {
                table: "ghost".into(),
                fingerprint: 9,
                ts: 99,
                rows: "1,1\n".into(),
            },
            seg(120),
        );
        let chains: std::collections::HashMap<_, _> = mat.csv_locs().into_iter().collect();
        assert_eq!(chains["t"].appends.len(), 1);
        let state = mat.into_state();
        assert_eq!(state.tables.len(), 1);
        assert_eq!(state.tables[0].csv, "a,b\n1,2\n3,4\n");
        assert_eq!(state.tables[0].fingerprint, 2);
        assert_eq!(state.tables[0].ts, 11);
    }

    #[test]
    fn append_lost_to_tombstone_stays_dead() {
        let mut mat = Materializer::default();
        mat.apply(
            &Record::Ingest {
                table: "t".into(),
                fingerprint: 1,
                ts: 10,
                csv: "a\n1\n".into(),
            },
            seg(0),
        );
        mat.apply(
            &Record::Tombstone {
                table: "t".into(),
                ts: 20,
                stray: false,
            },
            seg(40),
        );
        mat.apply(
            &Record::Append {
                table: "t".into(),
                fingerprint: 2,
                ts: 15,
                rows: "2\n".into(),
            },
            seg(80),
        );
        let state = mat.into_state();
        assert!(state.tables.is_empty());
    }

    #[test]
    fn session_steps_are_idempotent_by_seq() {
        let mut mat = Materializer::default();
        mat.apply(
            &Record::SessionCreate {
                id: 7,
                table: "t".into(),
            },
            seg(0),
        );
        for seq in [1u64, 2, 2, 1, 3] {
            mat.apply(
                &Record::SessionStep {
                    id: 7,
                    seq,
                    query: format!("q{seq}"),
                },
                seg(0),
            );
        }
        let state = mat.into_state();
        assert_eq!(state.sessions.len(), 1);
        assert_eq!(state.sessions[0].steps, 3);
        assert_eq!(state.sessions[0].last_query.as_deref(), Some("q3"));
    }

    #[test]
    fn tombstone_cascades_to_sessions() {
        let mut mat = Materializer::default();
        mat.apply(
            &Record::Ingest {
                table: "t".into(),
                fingerprint: 1,
                ts: 1,
                csv: "a\n1\n".into(),
            },
            seg(0),
        );
        mat.apply(
            &Record::SessionCreate {
                id: 1,
                table: "t".into(),
            },
            seg(0),
        );
        mat.apply(
            &Record::SessionCreate {
                id: 2,
                table: "u".into(),
            },
            seg(0),
        );
        mat.apply(
            &Record::Tombstone {
                table: "t".into(),
                ts: 2,
                stray: false,
            },
            seg(0),
        );
        let state = mat.into_state();
        assert_eq!(state.sessions.len(), 1);
        assert_eq!(state.sessions[0].id, 2);
    }

    #[test]
    fn snapshot_codec_round_trips() {
        let state = SnapshotState {
            tables: vec![TableState {
                name: "wines".into(),
                fingerprint: 99,
                ts: 1234,
                csv: "a,b\n1,2\n".into(),
            }],
            tombstones: vec![("gone".into(), 77, false), ("stray".into(), 78, true)],
            sessions: vec![SessionState {
                id: 3,
                table: "wines".into(),
                steps: 5,
                last_query: Some("b = 2".into()),
            }],
        };
        let text = encode_snapshot(42, &state);
        assert!(text.starts_with(SNAPSHOT_MAGIC), "{text}");
        assert!(text.contains(r#""queries":["b = 2"]"#), "{text}");
        let (lsn, back) = decode_snapshot(&text).unwrap();
        assert_eq!(lsn, 42);
        assert_eq!(back, state);
        assert!(decode_snapshot("{}").is_err());
        assert!(decode_snapshot("junk").is_err());
    }

    #[test]
    fn history_snapshots_decode_to_their_last_query() {
        // A version-1 snapshot from when sessions kept up to 64 queries,
        // oldest first, written by hand.
        let queries: Vec<String> = (1..=64).map(|i| format!("\"a > {i}\"")).collect();
        let legacy = format!(
            r#"{{"version":1,"lsn":5,"tables":[],"tombstones":[],"sessions":[{{"id":3,"table":"t","steps":70,"queries":[{}]}},{{"id":4,"table":"t","steps":0,"queries":[]}}]}}"#,
            queries.join(",")
        );
        let (lsn, state) = decode_snapshot(&legacy).unwrap();
        assert_eq!(lsn, 5);
        assert_eq!(state.sessions[0].steps, 70);
        assert_eq!(state.sessions[0].last_query.as_deref(), Some("a > 64"));
        assert_eq!(state.sessions[1].last_query, None);
        // Re-encoding writes at most one query per session.
        let text = encode_snapshot(lsn, &state);
        assert!(text.contains(r#""queries":["a > 64"]"#), "{text}");
        assert!(text.contains(r#""queries":[]"#), "{text}");
        assert!(!text.contains("a > 63"), "{text}");
        assert_eq!(decode_snapshot(&text).unwrap(), (lsn, state));
    }

    #[test]
    fn corrupted_snapshot_fails_the_checksum() {
        let text = encode_snapshot(7, &SnapshotState::default());
        // Flip one payload byte: the JSON may even still parse, but the
        // checksum must catch it.
        let corrupted = text.replacen("\"lsn\":7", "\"lsn\":8", 1);
        assert_ne!(corrupted, text, "corruption must apply");
        let err = decode_snapshot(&corrupted).unwrap_err();
        assert!(err.starts_with(SNAPSHOT_CHECKSUM_MISMATCH), "{err}");
        // A mangled header is an error too, but not a checksum mismatch.
        let headerless_junk = format!("{SNAPSHOT_MAGIC}nothex\njunk");
        assert!(decode_snapshot(&headerless_junk).is_err());
    }

    #[test]
    fn legacy_headerless_snapshots_still_decode() {
        let state = SnapshotState::default();
        let legacy = encode_snapshot_json(9, &state);
        assert!(!legacy.starts_with(SNAPSHOT_MAGIC));
        let (lsn, back) = decode_snapshot(&legacy).unwrap();
        assert_eq!(lsn, 9);
        assert_eq!(back, state);
    }
}
