//! The log record vocabulary and its wire framing.
//!
//! Every mutation a backend acknowledges is one [`Record`], rendered as
//! a single line:
//!
//! ```text
//! ZR1 <lsn> <fnv64-hex> <compact-json-payload>\n
//! ```
//!
//! The checksum covers the JSON payload, so a torn tail (power cut mid
//! `write(2)`) parses as "no record here" rather than garbage state.
//! Payloads are self-describing objects tagged by an `"op"` field;
//! unknown ops decode as errors and replay skips them, so an older
//! binary can replay a log with records it predates without dying.

use serde_json::{Number, Value};
use ziggy_store::{fnv1a_64, Fnv1a64};

/// The framing magic. Bump to `ZR2` only with a replay shim for `ZR1`.
pub const FRAME_MAGIC: &str = "ZR1";

/// One durable mutation. CSV bytes ride inside the ingest record —
/// that single decision is what lets the log replace the registry's
/// retained `source_csv` copy and serve `GET /tables/{name}/csv`.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A table was ingested (or re-ingested) from CSV.
    Ingest {
        /// Table name (already validated by the registry).
        table: String,
        /// FNV-1a of the CSV bytes — the replicate-idempotency key.
        fingerprint: u64,
        /// Hybrid-logical-clock timestamp (ms, strictly increasing per
        /// backend) — resolves delete-vs-recreate ordering at replay
        /// and across the fleet.
        ts: u64,
        /// The raw CSV text.
        csv: String,
    },
    /// Rows were appended to a live table. Only the *appended* rows
    /// ride in the record (headerless CSV, exactly as the client sent
    /// them); replay reconstructs the full table by concatenating them
    /// onto the winning ingest's CSV with [`combine_csv`], and the
    /// fingerprint — taken over the *combined* bytes — pins the result:
    /// replay must reproduce the appended table byte-identically.
    Append {
        /// Table name.
        table: String,
        /// FNV-1a of the combined CSV (base ++ rows) after this append.
        fingerprint: u64,
        /// HLC timestamp; appends are idempotent under re-application
        /// by the same `ts > table.ts` rule ingests use.
        ts: u64,
        /// The appended rows: headerless CSV text.
        rows: String,
    },
    /// A table was deleted. Tombstones outlive the table so a stale
    /// rejoiner's copy is recognized as deleted, not resurrected.
    Tombstone {
        /// Table name.
        table: String,
        /// HLC timestamp of the delete.
        ts: u64,
        /// A stray-replica clean-up rather than a user delete. Stray
        /// tombstones apply locally exactly like plain ones (the copy
        /// stays dead across replay) but are excluded from
        /// `GET /tombstones`: a local garbage-collection artifact must
        /// never be read by the fleet's repair loop as "this table was
        /// deleted everywhere".
        stray: bool,
    },
    /// A session was created against `table`.
    SessionCreate {
        /// Session id.
        id: u64,
        /// Table the session explores.
        table: String,
    },
    /// A session accepted step number `seq` (1-based). The sequence
    /// number makes replay idempotent: a step already reflected in a
    /// snapshot is skipped, never double-applied.
    SessionStep {
        /// Session id.
        id: u64,
        /// 1-based step number as reported by the session manager.
        seq: u64,
        /// The predicate text of the step.
        query: String,
    },
    /// A session was closed.
    SessionDelete {
        /// Session id.
        id: u64,
    },
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn num(n: u64) -> Value {
    Value::Number(Number::U(n))
}

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

fn u64_field(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing u64 field {key:?}"))
}

impl Record {
    /// Renders the record as a compact JSON payload (no framing).
    pub fn encode(&self) -> String {
        let value = match self {
            Record::Ingest {
                table,
                fingerprint,
                ts,
                csv,
            } => obj(vec![
                ("op", Value::String("ingest".into())),
                ("table", Value::String(table.clone())),
                ("fingerprint", num(*fingerprint)),
                ("ts", num(*ts)),
                ("csv", Value::String(csv.clone())),
            ]),
            Record::Append {
                table,
                fingerprint,
                ts,
                rows,
            } => obj(vec![
                ("op", Value::String("append".into())),
                ("table", Value::String(table.clone())),
                ("fingerprint", num(*fingerprint)),
                ("ts", num(*ts)),
                ("rows", Value::String(rows.clone())),
            ]),
            Record::Tombstone { table, ts, stray } => obj(vec![
                ("op", Value::String("tombstone".into())),
                ("table", Value::String(table.clone())),
                ("ts", num(*ts)),
                ("stray", Value::Bool(*stray)),
            ]),
            Record::SessionCreate { id, table } => obj(vec![
                ("op", Value::String("session_create".into())),
                ("id", num(*id)),
                ("table", Value::String(table.clone())),
            ]),
            Record::SessionStep { id, seq, query } => obj(vec![
                ("op", Value::String("session_step".into())),
                ("id", num(*id)),
                ("seq", num(*seq)),
                ("query", Value::String(query.clone())),
            ]),
            Record::SessionDelete { id } => obj(vec![
                ("op", Value::String("session_delete".into())),
                ("id", num(*id)),
            ]),
        };
        serde_json::to_string(&value).expect("record JSON render is infallible")
    }

    /// Parses a payload produced by [`Record::encode`].
    pub fn decode(payload: &str) -> Result<Record, String> {
        let value = serde_json::from_str_value(payload).map_err(|e| e.to_string())?;
        let op = str_field(&value, "op")?;
        match op.as_str() {
            "ingest" => Ok(Record::Ingest {
                table: str_field(&value, "table")?,
                fingerprint: u64_field(&value, "fingerprint")?,
                ts: u64_field(&value, "ts")?,
                csv: str_field(&value, "csv")?,
            }),
            "append" => Ok(Record::Append {
                table: str_field(&value, "table")?,
                fingerprint: u64_field(&value, "fingerprint")?,
                ts: u64_field(&value, "ts")?,
                rows: str_field(&value, "rows")?,
            }),
            "tombstone" => Ok(Record::Tombstone {
                table: str_field(&value, "table")?,
                ts: u64_field(&value, "ts")?,
                // Absent in logs written before stray GC existed.
                stray: value.get("stray").and_then(Value::as_bool).unwrap_or(false),
            }),
            "session_create" => Ok(Record::SessionCreate {
                id: u64_field(&value, "id")?,
                table: str_field(&value, "table")?,
            }),
            "session_step" => Ok(Record::SessionStep {
                id: u64_field(&value, "id")?,
                seq: u64_field(&value, "seq")?,
                query: str_field(&value, "query")?,
            }),
            "session_delete" => Ok(Record::SessionDelete {
                id: u64_field(&value, "id")?,
            }),
            other => Err(format!("unknown record op {other:?}")),
        }
    }
}

/// Concatenates appended rows onto a base CSV, inserting the newline a
/// truncated base may be missing. This is THE append-composition rule:
/// the materializer uses it at replay, the log's export path when
/// stitching a table back together from its record chain, and the
/// registry for in-memory tables — all must build the identical byte
/// string or replay stops being byte-faithful. [`combine_fingerprint`]
/// is its hash-side twin.
pub fn combine_csv(base: &str, rows: &str) -> String {
    let mut out = String::with_capacity(base.len() + rows.len() + 1);
    out.push_str(base);
    combine_csv_into(&mut out, rows);
    out
}

/// [`combine_csv`] in place: composes `rows` onto the end of `csv`
/// without copying the base, so folding a chain of appends stays
/// linear in the bytes produced.
pub(crate) fn combine_csv_into(csv: &mut String, rows: &str) {
    if ends_mid_line(csv) {
        csv.push('\n');
    }
    csv.push_str(rows);
}

/// Whether composing rows onto `csv` must first insert a newline: the
/// text is non-empty and its last line is unterminated.
pub fn ends_mid_line(csv: &str) -> bool {
    !csv.is_empty() && !csv.ends_with('\n')
}

/// The FNV-1a fingerprint of `combine_csv(base, rows)`, computed from
/// the base's fingerprint and [`ends_mid_line`]`(base)` alone. FNV-1a
/// has no finalisation step, so hashing resumes where the base's hash
/// stopped and an append costs O(rows), not O(table).
pub fn combine_fingerprint(base_fingerprint: u64, base_ends_mid_line: bool, rows: &str) -> u64 {
    let mut hasher = Fnv1a64::resume(base_fingerprint);
    if base_ends_mid_line {
        hasher.update(b"\n");
    }
    hasher.update(rows.as_bytes());
    hasher.finish()
}

/// Frames a payload as one log line: magic, LSN, payload checksum,
/// payload, newline. Payloads are JSON and therefore newline-free (the
/// serializer escapes control characters), so lines are the record
/// boundary.
pub fn frame(lsn: u64, payload: &str) -> String {
    format!(
        "{FRAME_MAGIC} {lsn} {:016x} {payload}\n",
        fnv1a_64(payload.as_bytes())
    )
}

/// Parses one framed line (without the trailing newline) back into
/// `(lsn, payload)`. Returns `None` on any corruption — bad magic,
/// short line, checksum mismatch — which replay treats as a torn tail.
pub fn parse_frame(line: &str) -> Option<(u64, &str)> {
    let rest = line.strip_prefix(FRAME_MAGIC)?.strip_prefix(' ')?;
    let (lsn_s, rest) = rest.split_once(' ')?;
    let (crc_s, payload) = rest.split_once(' ')?;
    let lsn = lsn_s.parse::<u64>().ok()?;
    let crc = u64::from_str_radix(crc_s, 16).ok()?;
    if crc != fnv1a_64(payload.as_bytes()) {
        return None;
    }
    Some((lsn, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Record> {
        vec![
            Record::Ingest {
                table: "wines".into(),
                fingerprint: 0xdead_beef_cafe_f00d,
                ts: 1_754_000_000_123,
                csv: "a,b\n1,2\n\"x\"\"y\",3\n".into(),
            },
            Record::Append {
                table: "wines".into(),
                fingerprint: 0x1234_5678_9abc_def0,
                ts: 1_754_000_000_456,
                rows: "4,5\n\"q\"\"z\",6\n".into(),
            },
            Record::Tombstone {
                table: "wines".into(),
                ts: 7,
                stray: false,
            },
            Record::Tombstone {
                table: "stray-copy".into(),
                ts: 8,
                stray: true,
            },
            Record::SessionCreate {
                id: 42,
                table: "t".into(),
            },
            Record::SessionStep {
                id: 42,
                seq: 3,
                query: "price > 10 and color = \"red\"".into(),
            },
            Record::SessionDelete { id: 42 },
        ]
    }

    #[test]
    fn encode_decode_round_trips() {
        for rec in samples() {
            let payload = rec.encode();
            assert_eq!(Record::decode(&payload).unwrap(), rec, "{payload}");
        }
    }

    #[test]
    fn frame_round_trips_and_rejects_corruption() {
        for (i, rec) in samples().into_iter().enumerate() {
            let payload = rec.encode();
            let line = frame(i as u64 + 1, &payload);
            let trimmed = line.strip_suffix('\n').unwrap();
            let (lsn, got) = parse_frame(trimmed).unwrap();
            assert_eq!(lsn, i as u64 + 1);
            assert_eq!(got, payload);
            // Flip one payload byte: checksum must catch it.
            let mut corrupt = trimmed.to_string();
            corrupt.pop();
            corrupt.push('~');
            assert!(parse_frame(&corrupt).is_none());
        }
        assert!(parse_frame("").is_none());
        assert!(parse_frame("ZR9 1 0 {}").is_none());
        assert!(parse_frame("ZR1 x 0 {}").is_none());
    }

    #[test]
    fn unknown_op_is_an_error_not_a_panic() {
        assert!(Record::decode(r#"{"op":"warp_core_breach"}"#).is_err());
        assert!(Record::decode("not json").is_err());
        assert!(Record::decode(r#"{"op":"ingest","table":"t"}"#).is_err());
    }

    #[test]
    fn combine_csv_inserts_exactly_the_missing_newline() {
        assert_eq!(combine_csv("a,b\n1,2\n", "3,4\n"), "a,b\n1,2\n3,4\n");
        assert_eq!(combine_csv("a,b\n1,2", "3,4\n"), "a,b\n1,2\n3,4\n");
        assert_eq!(combine_csv("", "3,4\n"), "3,4\n");
        // Associativity under normalized (newline-terminated) rows: one
        // combined batch equals two chained appends byte for byte.
        let two_step = combine_csv(&combine_csv("h\n1\n", "2\n"), "3\n");
        assert_eq!(two_step, combine_csv("h\n1\n", "2\n3\n"));
    }

    #[test]
    fn combine_fingerprint_hashes_what_combine_csv_builds() {
        for (base, rows) in [
            ("", "1,2\n"),
            ("", ""),
            ("a,b\n", "1,2\n"),
            ("a,b", "1,2\n"),
            ("a,b", ""),
            ("a,b\n1,2", "3,4"),
        ] {
            let resumed = combine_fingerprint(fnv1a_64(base.as_bytes()), ends_mid_line(base), rows);
            let expected = fnv1a_64(combine_csv(base, rows).as_bytes());
            assert_eq!(resumed, expected, "{base:?} + {rows:?}");
        }
    }

    #[test]
    fn csv_with_newlines_stays_one_line() {
        let rec = Record::Ingest {
            table: "t".into(),
            fingerprint: 1,
            ts: 2,
            csv: "a\nb\r\nc".into(),
        };
        let line = frame(9, &rec.encode());
        assert_eq!(line.matches('\n').count(), 1);
        assert!(line.ends_with('\n'));
    }
}
