#![warn(missing_docs)]

//! `ziggy-durable` — per-backend durability for the Ziggy fleet.
//!
//! The whole stack above this crate is RAM-resident; this crate is the
//! one place bytes meet disk. Each backend owns an append-only
//! segmented log recording every acknowledged mutation:
//!
//! * **ingest records** — table name, CSV fingerprint, *and the CSV
//!   bytes*. The log copy replaces the registry's retained
//!   `source_csv` (which doubled per-table memory); `GET
//!   /tables/{name}/csv` is served straight from the log.
//! * **append records** — the appended rows only (headerless CSV);
//!   replay concatenates them onto the winning ingest's bytes with
//!   [`combine_csv`] and reproduces the appended table byte-identically.
//! * **delete tombstones** — HLC-timestamped, so a backend that was
//!   outside the membership when a table was deleted rejoins and the
//!   repair loop recognizes its copy as deleted instead of faithfully
//!   resurrecting it.
//! * **session ops** — create/step/delete with step sequence numbers,
//!   so a restarted backend replays its sessions and the fleet router
//!   can re-home a session whose replica died.
//!
//! Acknowledgement durability comes in two modes ([`DurabilityMode`],
//! `--durability` on the CLI): `batch` (alias `fsync`), where an
//! append is acknowledged only after an fsync that covers it, led by
//! whichever appender finds no sync running, so appends that arrive
//! during one fsync share the next; and `async` (write-to-OS,
//! crash-safe but not power-safe, a background flusher syncs within
//! ~50 ms). Periodic [snapshots](DurableLog::write_snapshot)
//! bound replay time and let segments past the cover LSN compact away.
//! [`DurableLog::open`] replays snapshot + tail with torn-write
//! tolerance and returns the recovered state for the serve layer to
//! rebuild from.

mod log;
mod record;
mod state;

pub use crate::log::{DurabilityMode, DurableLog, DurableMetrics, DurableOptions, ReplayOutcome};
pub use crate::record::{
    combine_csv, combine_fingerprint, ends_mid_line, frame, parse_frame, Record, FRAME_MAGIC,
};
pub use crate::state::{
    decode_snapshot, encode_snapshot, CsvChain, CsvLoc, Materializer, SessionState, SnapshotState,
    TableState,
};

/// Milliseconds since the Unix epoch — the wall half of the registry's
/// hybrid logical clock.
pub fn wall_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}
