//! The segmented append-only log: writers, group commit, snapshots,
//! compaction, and replay.
//!
//! On-disk layout inside the backend's data directory:
//!
//! ```text
//! seg-00000000000000000001.log   framed records, one per line
//! seg-00000000000000000941.log   (file name = first LSN it holds)
//! snap-00000000000000000940.json newest snapshot (name = cover LSN)
//! ```
//!
//! Writes go to the newest segment; when it passes the size threshold
//! the file is fsynced and a fresh segment opens (so every *sealed*
//! segment is durable in full, and group commit only ever needs to
//! fsync the active file). Snapshots are written to a temp file,
//! fsynced, renamed into place, and the directory fsynced; only then
//! are segments wholly at or below the cover LSN deleted. Replay reads
//! the newest parseable snapshot plus every surviving record with a
//! larger LSN; a checksum or parse failure truncates that segment's
//! tail (torn-write rule) rather than poisoning boot.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufRead, BufReader, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use ziggy_obs::span::{self, FlightRecorder};
use ziggy_obs::Histogram;

use crate::record::{combine_csv_into, frame, parse_frame, Record};
use crate::state::{
    decode_snapshot, encode_snapshot, CsvChain, CsvLoc, Materializer, SnapshotState,
    SNAPSHOT_CHECKSUM_MISMATCH,
};

/// How hard an acknowledged append is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DurabilityMode {
    /// `fsync(2)` before every acknowledgement. Survives power loss at
    /// per-op cost.
    Fsync,
    /// Group commit: appends wait on a background flusher that issues
    /// one fsync per commit interval for every append queued behind
    /// it. Survives power loss; amortizes the fsync.
    #[default]
    Batch,
    /// Write to the OS and acknowledge. Survives process crashes
    /// (SIGKILL) but not power loss.
    Async,
}

impl DurabilityMode {
    /// The flag spelling, as accepted by `--durability`.
    pub fn as_str(&self) -> &'static str {
        match self {
            DurabilityMode::Fsync => "fsync",
            DurabilityMode::Batch => "batch",
            DurabilityMode::Async => "async",
        }
    }
}

impl std::str::FromStr for DurabilityMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "fsync" => Ok(DurabilityMode::Fsync),
            "batch" | "batched" => Ok(DurabilityMode::Batch),
            "async" => Ok(DurabilityMode::Async),
            other => Err(format!(
                "unknown durability mode {other:?} (expected fsync|batch|async)"
            )),
        }
    }
}

impl std::fmt::Display for DurabilityMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Tuning knobs for a [`DurableLog`].
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// Acknowledgement durability.
    pub mode: DurabilityMode,
    /// Rotate the active segment past this many bytes.
    pub segment_bytes: u64,
    /// Ask for a snapshot after this many records since the last one
    /// (`0` disables snapshotting; segments then grow forever).
    pub snapshot_every: u64,
    /// Group-commit flush cadence (Batch mode only).
    pub commit_interval: Duration,
    /// How far behind the last append the background flusher may let
    /// `async` mode run before fsyncing (bounds the power-loss window;
    /// previously async data only reached disk on rotation).
    pub async_flush_interval: Duration,
}

impl Default for DurableOptions {
    fn default() -> Self {
        Self {
            mode: DurabilityMode::default(),
            segment_bytes: 4 * 1024 * 1024,
            snapshot_every: 256,
            commit_interval: Duration::from_millis(2),
            async_flush_interval: Duration::from_millis(50),
        }
    }
}

/// Counters and latency ladders for the log, exported by the serve
/// layer as `ziggy_durable_*` Prometheus families.
#[derive(Debug, Default)]
pub struct DurableMetrics {
    /// Records appended (this process; replayed records not included).
    pub records: AtomicU64,
    /// `fsync(2)` calls issued (per-op syncs, group commits, seals).
    pub fsyncs: AtomicU64,
    /// Group commits that acknowledged more than one append.
    pub group_commits: AtomicU64,
    /// Snapshots written.
    pub snapshots: AtomicU64,
    /// Segment files deleted by compaction.
    pub segments_compacted: AtomicU64,
    /// Torn/corrupt tails dropped at replay.
    pub torn_records: AtomicU64,
    /// Snapshot files refused at boot because their checksum header did
    /// not match the payload (boot fell back to an older snapshot or
    /// pure WAL replay).
    pub snapshot_checksum_failures: AtomicU64,
    /// Records replayed at the last boot.
    pub replay_records: AtomicU64,
    /// Wall time of the last boot replay, µs.
    pub replay_us: AtomicU64,
    /// Append latency (call to acknowledged), µs ladder.
    pub append_latency: Histogram,
    /// fsync latency, µs ladder.
    pub fsync_latency: Histogram,
}

/// What replay-on-boot recovered, for the serve layer to rebuild its
/// registry and session manager from.
#[derive(Debug, Default)]
pub struct ReplayOutcome {
    /// Recovered live state (tables carry their CSV bytes).
    pub state: SnapshotState,
    /// Records applied from segment tails (beyond the snapshot).
    pub records: u64,
    /// Torn tails dropped.
    pub torn: u64,
}

struct Writer {
    file: File,
    seg_file: String,
    seg_bytes: u64,
    next_lsn: u64,
}

#[derive(Default)]
struct FlushState {
    written: u64,
    flushed: u64,
    io_error: bool,
    /// When the oldest not-yet-fsynced append landed (None = fully
    /// flushed); `flushed` vs `written` plus this instant is the
    /// durability lag the `ziggy_durable_async_lag_ms` gauge reports.
    oldest_pending: Option<Instant>,
}

/// The span context saved by the most recent append, so the background
/// flusher can record its fsync under that request's trace.
type SavedSpanCtx = (Arc<FlightRecorder>, String, String);

struct Inner {
    dir: PathBuf,
    opts: DurableOptions,
    writer: Mutex<Writer>,
    flush_state: Mutex<FlushState>,
    flush_cv: Condvar,
    stop: AtomicBool,
    metrics: DurableMetrics,
    csv_index: Mutex<HashMap<String, CsvChain>>,
    snapshot_lsn: AtomicU64,
    since_snapshot: AtomicU64,
    snapshotting: AtomicBool,
    last_span_ctx: Mutex<Option<SavedSpanCtx>>,
}

/// A per-backend durable log. One instance per data directory; share
/// it behind an `Arc`.
pub struct DurableLog {
    inner: Arc<Inner>,
    flusher: Mutex<Option<thread::JoinHandle<()>>>,
}

fn seg_name(first_lsn: u64) -> String {
    format!("seg-{first_lsn:020}.log")
}

fn snap_name(cover_lsn: u64) -> String {
    format!("snap-{cover_lsn:020}.json")
}

fn parse_numbered(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse::<u64>()
        .ok()
}

fn sync_dir(dir: &Path) -> io::Result<()> {
    // Directory fsync makes the rename/unlink durable on Linux.
    File::open(dir)?.sync_all()
}

impl DurableLog {
    /// Opens (creating if needed) the log in `dir`, replays snapshot +
    /// tail, and returns the log alongside what was recovered.
    pub fn open(dir: &Path, opts: DurableOptions) -> io::Result<(DurableLog, ReplayOutcome)> {
        fs::create_dir_all(dir)?;
        let t0 = Instant::now();

        let mut snaps: Vec<u64> = Vec::new();
        let mut segs: Vec<u64> = Vec::new();
        for entry in fs::read_dir(dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(lsn) = parse_numbered(&name, "snap-", ".json") {
                snaps.push(lsn);
            } else if let Some(lsn) = parse_numbered(&name, "seg-", ".log") {
                segs.push(lsn);
            }
        }
        snaps.sort_unstable();
        segs.sort_unstable();

        // Newest parseable snapshot wins; unreadable ones are skipped
        // (a crash between tmp-write and rename leaves none behind,
        // but be lenient anyway).
        let mut snap_lsn = 0u64;
        let mut snap_state: Option<SnapshotState> = None;
        let mut checksum_failures = 0u64;
        for &lsn in snaps.iter().rev() {
            match fs::read_to_string(dir.join(snap_name(lsn))) {
                Ok(text) => match decode_snapshot(&text) {
                    Ok((cover, state)) => {
                        snap_lsn = cover;
                        snap_state = Some(state);
                        break;
                    }
                    Err(e) => {
                        if e.starts_with(SNAPSHOT_CHECKSUM_MISMATCH) {
                            checksum_failures += 1;
                            eprintln!(
                                "ziggy-durable: refusing {} ({e}); falling back",
                                snap_name(lsn)
                            );
                        }
                        continue;
                    }
                },
                Err(_) => continue,
            }
        }

        let mut mat = Materializer::from_snapshot(snap_state.as_ref());
        let mut max_lsn = snap_lsn;
        let mut replayed = 0u64;
        let mut torn = 0u64;

        for (i, &first) in segs.iter().enumerate() {
            let file_name = seg_name(first);
            let path = dir.join(&file_name);
            let file = File::open(&path)?;
            let mut reader = BufReader::new(file);
            let mut offset = 0u64;
            let mut line = String::new();
            loop {
                line.clear();
                let n = reader.read_line(&mut line)?;
                if n == 0 {
                    break;
                }
                let parsed = line
                    .strip_suffix('\n')
                    .and_then(parse_frame)
                    .and_then(|(lsn, payload)| Record::decode(payload).ok().map(|r| (lsn, r)));
                let Some((lsn, rec)) = parsed else {
                    // Torn or corrupt: drop this segment's tail. Only
                    // the *active* (last) segment is truncated on
                    // disk; a sealed segment with a bad tail is left
                    // as-is and simply read up to the damage.
                    torn += 1;
                    if i == segs.len() - 1 {
                        let f = OpenOptions::new().write(true).open(&path)?;
                        f.set_len(offset)?;
                        f.sync_data()?;
                    }
                    break;
                };
                max_lsn = max_lsn.max(lsn);
                if lsn > snap_lsn {
                    replayed += 1;
                    mat.apply(
                        &rec,
                        CsvLoc::Segment {
                            file: file_name.clone(),
                            offset,
                        },
                    );
                }
                offset += n as u64;
            }
        }

        let next_lsn = max_lsn + 1;

        // Reopen the newest segment for appending, or start fresh.
        let (seg_file, file, seg_bytes) = match segs.last() {
            Some(&first) => {
                let name = seg_name(first);
                let path = dir.join(&name);
                let len = fs::metadata(&path)?.len();
                if len < opts.segment_bytes {
                    let file = OpenOptions::new().append(true).open(&path)?;
                    (name, file, len)
                } else {
                    let name = seg_name(next_lsn);
                    let file = OpenOptions::new()
                        .create_new(true)
                        .append(true)
                        .open(dir.join(&name))?;
                    (name, file, 0)
                }
            }
            None => {
                let name = seg_name(next_lsn);
                let file = OpenOptions::new()
                    .create_new(true)
                    .append(true)
                    .open(dir.join(&name))?;
                sync_dir(dir)?;
                (name, file, 0)
            }
        };

        let csv_index = mat.csv_locs().into_iter().collect();
        let state = mat.into_state();

        let metrics = DurableMetrics::default();
        metrics.replay_records.store(replayed, Ordering::Relaxed);
        metrics.torn_records.store(torn, Ordering::Relaxed);
        metrics
            .snapshot_checksum_failures
            .store(checksum_failures, Ordering::Relaxed);
        metrics
            .replay_us
            .store(t0.elapsed().as_micros() as u64, Ordering::Relaxed);

        let inner = Arc::new(Inner {
            dir: dir.to_path_buf(),
            opts,
            writer: Mutex::new(Writer {
                file,
                seg_file,
                seg_bytes,
                next_lsn,
            }),
            flush_state: Mutex::new(FlushState {
                written: next_lsn.saturating_sub(1),
                flushed: next_lsn.saturating_sub(1),
                io_error: false,
                oldest_pending: None,
            }),
            flush_cv: Condvar::new(),
            stop: AtomicBool::new(false),
            metrics,
            csv_index: Mutex::new(csv_index),
            snapshot_lsn: AtomicU64::new(snap_lsn),
            since_snapshot: AtomicU64::new(0),
            snapshotting: AtomicBool::new(false),
            last_span_ctx: Mutex::new(None),
        });

        // Batch needs the flusher for group commit; Async needs it to
        // bound the power-loss window (fsync at most
        // `async_flush_interval` behind the last append instead of only
        // on rotation).
        let flusher = if matches!(
            inner.opts.mode,
            DurabilityMode::Batch | DurabilityMode::Async
        ) {
            let worker = Arc::clone(&inner);
            Some(
                thread::Builder::new()
                    .name("ziggy-durable-flush".into())
                    .spawn(move || worker.flush_loop())
                    .expect("spawn group-commit flusher"),
            )
        } else {
            None
        };

        Ok((
            DurableLog {
                inner,
                flusher: Mutex::new(flusher),
            },
            ReplayOutcome {
                state,
                records: replayed,
                torn,
            },
        ))
    }

    /// Appends one record and acknowledges it per the durability mode.
    /// Returns the record's LSN.
    pub fn append(&self, rec: &Record) -> io::Result<u64> {
        let t0 = Instant::now();
        let mut append_span = span::child("durable.append");
        if let Some(s) = append_span.as_mut() {
            s.attr("mode", self.inner.opts.mode.as_str());
        }
        // Save the caller's span context so the background flusher can
        // attribute its next fsync to this request's trace.
        if let Some(ctx) = span::current_recorder() {
            *self
                .inner
                .last_span_ctx
                .lock()
                .expect("durable span ctx lock") = Some(ctx);
        }
        let payload = rec.encode();
        let inner = &self.inner;

        let mut w = inner.writer.lock().expect("durable writer lock");
        let lsn = w.next_lsn;
        let line = frame(lsn, &payload);
        if w.seg_bytes > 0 && w.seg_bytes + line.len() as u64 > inner.opts.segment_bytes {
            inner.rotate(&mut w, lsn)?;
        }
        let offset = w.seg_bytes;
        let seg_file = w.seg_file.clone();
        w.file.write_all(line.as_bytes())?;
        w.next_lsn = lsn + 1;
        w.seg_bytes += line.len() as u64;

        match inner.opts.mode {
            DurabilityMode::Fsync => {
                let f0 = Instant::now();
                {
                    let mut fsync_span = span::child("durable.fsync");
                    if let Some(s) = fsync_span.as_mut() {
                        s.attr("batch", "1");
                    }
                    let result = w.file.sync_data();
                    if let (Some(s), true) = (fsync_span.as_mut(), result.is_err()) {
                        s.set_error(true);
                    }
                    result?;
                }
                inner.metrics.fsyncs.fetch_add(1, Ordering::Relaxed);
                inner
                    .metrics
                    .fsync_latency
                    .record_us(f0.elapsed().as_micros() as u64);
                drop(w);
            }
            DurabilityMode::Async => {
                {
                    let mut st = inner.flush_state.lock().expect("flush state lock");
                    st.written = st.written.max(lsn);
                    st.oldest_pending.get_or_insert_with(Instant::now);
                }
                drop(w);
            }
            DurabilityMode::Batch => {
                {
                    let mut st = inner.flush_state.lock().expect("flush state lock");
                    st.written = st.written.max(lsn);
                    st.oldest_pending.get_or_insert_with(Instant::now);
                }
                drop(w);
                let mut st = inner.flush_state.lock().expect("flush state lock");
                while st.flushed < lsn && !st.io_error && !inner.stop.load(Ordering::Relaxed) {
                    let (guard, _timeout) = inner
                        .flush_cv
                        .wait_timeout(st, Duration::from_millis(50))
                        .expect("flush state wait");
                    st = guard;
                }
                if st.io_error {
                    return Err(io::Error::other("group-commit fsync failed"));
                }
            }
        }

        // Index the CSV location so exports read from the log instead
        // of a retained in-memory copy.
        match rec {
            Record::Ingest { table, .. } => {
                inner.csv_index.lock().expect("csv index lock").insert(
                    table.clone(),
                    CsvChain::solo(CsvLoc::Segment {
                        file: seg_file,
                        offset,
                    }),
                );
            }
            Record::Append { table, .. } => {
                // Layer the append onto the table's chain. A missing
                // chain means the table has no logged base (shouldn't
                // happen — the registry refuses appends without CSV
                // provenance) and the export index is left alone.
                if let Some(chain) = inner
                    .csv_index
                    .lock()
                    .expect("csv index lock")
                    .get_mut(table)
                {
                    chain.appends.push(CsvLoc::Segment {
                        file: seg_file,
                        offset,
                    });
                }
            }
            Record::Tombstone { table, .. } => {
                inner
                    .csv_index
                    .lock()
                    .expect("csv index lock")
                    .remove(table);
            }
            _ => {}
        }

        inner.metrics.records.fetch_add(1, Ordering::Relaxed);
        inner.since_snapshot.fetch_add(1, Ordering::Relaxed);
        inner
            .metrics
            .append_latency
            .record_us(t0.elapsed().as_micros() as u64);
        Ok(lsn)
    }

    /// Reads one framed record back out of a segment file.
    fn read_record(&self, file: &str, offset: u64) -> Option<Record> {
        let path = self.inner.dir.join(file);
        let f = File::open(path).ok()?;
        let mut reader = BufReader::new(f);
        reader.seek(SeekFrom::Start(offset)).ok()?;
        let mut line = String::new();
        reader.read_line(&mut line).ok()?;
        let (_, payload) = parse_frame(line.strip_suffix('\n')?)?;
        Record::decode(payload).ok()
    }

    /// Reads the current CSV bytes of `table` back out of the log by
    /// walking its location chain: the winning ingest (segment or
    /// snapshot) plus every append layered on top of it. The walk
    /// re-runs the materializer's composition rule — records at or
    /// below the base's timestamp are already folded into it (the
    /// snapshot-race window) and skip — so export, replay, and the live
    /// registry all produce the identical byte string. Appends compose
    /// in place onto one buffer, so the walk is linear in the table's
    /// bytes however long the chain.
    pub fn table_csv(&self, table: &str) -> Option<String> {
        let chain = self
            .inner
            .csv_index
            .lock()
            .expect("csv index lock")
            .get(table)
            .cloned()?;
        let (mut csv, mut ts) = match chain.base {
            CsvLoc::Segment { file, offset } => match self.read_record(&file, offset)? {
                Record::Ingest { csv, ts, .. } => (csv, ts),
                _ => return None,
            },
            CsvLoc::Snapshot => {
                let lsn = self.inner.snapshot_lsn.load(Ordering::Acquire);
                let text = fs::read_to_string(self.inner.dir.join(snap_name(lsn))).ok()?;
                let (_, state) = decode_snapshot(&text).ok()?;
                let t = state.tables.into_iter().find(|t| t.name == table)?;
                (t.csv, t.ts)
            }
        };
        for loc in &chain.appends {
            let CsvLoc::Segment { file, offset } = loc else {
                continue;
            };
            if let Some(Record::Append {
                table: rec_table,
                ts: rec_ts,
                rows,
                ..
            }) = self.read_record(file, *offset)
            {
                if rec_table == table && rec_ts > ts {
                    combine_csv_into(&mut csv, &rows);
                    ts = rec_ts;
                }
            }
        }
        Some(csv)
    }

    /// Whether enough records have accumulated to warrant a snapshot.
    pub fn wants_snapshot(&self) -> bool {
        let every = self.inner.opts.snapshot_every;
        every > 0 && self.inner.since_snapshot.load(Ordering::Relaxed) >= every
    }

    /// Claims the snapshot slot and returns the cover LSN, or `None`
    /// if a snapshot is already in flight. The caller must capture the
    /// cover *before* reading live state (see the race note in
    /// [`crate::state`]) and then call [`DurableLog::write_snapshot`]
    /// or [`DurableLog::abandon_snapshot`].
    pub fn begin_snapshot(&self) -> Option<u64> {
        if self.inner.snapshotting.swap(true, Ordering::AcqRel) {
            return None;
        }
        let w = self.inner.writer.lock().expect("durable writer lock");
        Some(w.next_lsn - 1)
    }

    /// Releases the snapshot slot without writing (state gather failed).
    pub fn abandon_snapshot(&self) {
        self.inner.snapshotting.store(false, Ordering::Release);
    }

    /// Writes the snapshot claimed by [`DurableLog::begin_snapshot`],
    /// then compacts segments wholly covered by it and prunes older
    /// snapshots.
    pub fn write_snapshot(&self, cover_lsn: u64, state: &SnapshotState) -> io::Result<()> {
        let result = self.write_snapshot_inner(cover_lsn, state);
        self.inner.snapshotting.store(false, Ordering::Release);
        result
    }

    fn write_snapshot_inner(&self, cover_lsn: u64, state: &SnapshotState) -> io::Result<()> {
        let inner = &self.inner;
        let text = encode_snapshot(cover_lsn, state);
        let final_path = inner.dir.join(snap_name(cover_lsn));
        let tmp_path = inner.dir.join("snap.tmp");
        {
            let mut f = File::create(&tmp_path)?;
            f.write_all(text.as_bytes())?;
            f.sync_data()?;
            inner.metrics.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        fs::rename(&tmp_path, &final_path)?;
        sync_dir(&inner.dir)?;

        let prev_snap = inner.snapshot_lsn.swap(cover_lsn, Ordering::AcqRel);
        inner.since_snapshot.store(0, Ordering::Relaxed);
        inner.metrics.snapshots.fetch_add(1, Ordering::Relaxed);

        // Snapshot tables now have a durable home outside segments;
        // repoint the export index before deleting anything. Entries
        // updated by a concurrent ingest keep their (newer) segment
        // location: only replace locations that point into segments
        // about to be considered for deletion when the table is in the
        // snapshot with no newer ingest. Simplest safe rule: repoint a
        // table to Snapshot only if its indexed location is untouched
        // since the state was gathered — approximated here by leaving
        // entries alone when the segment file still survives
        // compaction, and repointing the rest.
        let mut segs: Vec<u64> = Vec::new();
        let mut old_snaps: Vec<u64> = Vec::new();
        for entry in fs::read_dir(&inner.dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(lsn) = parse_numbered(&name, "seg-", ".log") {
                segs.push(lsn);
            } else if let Some(lsn) = parse_numbered(&name, "snap-", ".json") {
                if lsn != cover_lsn && lsn <= prev_snap.max(cover_lsn) {
                    old_snaps.push(lsn);
                }
            }
        }
        segs.sort_unstable();

        // A segment is deletable iff its successor's first LSN is at
        // or below cover+1 (then every record it holds is ≤ cover).
        // The active segment never deletes.
        let mut deletable: Vec<String> = Vec::new();
        for pair in segs.windows(2) {
            if pair[1] <= cover_lsn + 1 {
                deletable.push(seg_name(pair[0]));
            }
        }

        {
            let mut index = inner.csv_index.lock().expect("csv index lock");
            let in_deletable = |loc: &CsvLoc| matches!(loc, CsvLoc::Segment { file, .. } if deletable.contains(file));
            for t in &state.tables {
                match index.get_mut(&t.name) {
                    Some(chain) => {
                        // Deletable segments form an LSN-ordered prefix,
                        // so any append in a deletable segment implies
                        // its base is deletable (or already Snapshot)
                        // too. Appends folded into the snapshot but
                        // living in surviving segments stay on the
                        // chain; the read path's timestamp rule skips
                        // them, so no row is ever applied twice.
                        chain.appends.retain(|loc| !in_deletable(loc));
                        if in_deletable(&chain.base) {
                            chain.base = CsvLoc::Snapshot;
                        }
                    }
                    None => {
                        // Shouldn't happen (live table with no index
                        // entry) but the snapshot can serve it anyway.
                        index.insert(t.name.clone(), CsvChain::solo(CsvLoc::Snapshot));
                    }
                }
            }
        }

        for file in &deletable {
            if fs::remove_file(inner.dir.join(file)).is_ok() {
                inner
                    .metrics
                    .segments_compacted
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        for lsn in old_snaps {
            let _ = fs::remove_file(inner.dir.join(snap_name(lsn)));
        }
        if !deletable.is_empty() {
            sync_dir(&inner.dir)?;
        }
        Ok(())
    }

    /// The log's metrics block.
    pub fn metrics(&self) -> &DurableMetrics {
        &self.inner.metrics
    }

    /// The configured durability mode.
    pub fn mode(&self) -> DurabilityMode {
        self.inner.opts.mode
    }

    /// The data directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// Live segment files on disk (active one included).
    pub fn segment_count(&self) -> usize {
        fs::read_dir(&self.inner.dir)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok())
                    .filter(|e| {
                        parse_numbered(&e.file_name().to_string_lossy(), "seg-", ".log").is_some()
                    })
                    .count()
            })
            .unwrap_or(0)
    }

    /// Cover LSN of the newest snapshot (0 before the first).
    pub fn snapshot_lsn(&self) -> u64 {
        self.inner.snapshot_lsn.load(Ordering::Acquire)
    }

    /// Forces every buffered byte to disk (used at graceful shutdown
    /// and by tests; Batch/Async callers otherwise rely on the mode's
    /// own guarantees).
    pub fn sync(&self) -> io::Result<()> {
        let w = self.inner.writer.lock().expect("durable writer lock");
        w.file.sync_data()?;
        self.inner.metrics.fsyncs.fetch_add(1, Ordering::Relaxed);
        let mut st = self.inner.flush_state.lock().expect("flush state lock");
        st.flushed = st.flushed.max(st.written);
        st.oldest_pending = None;
        self.inner.flush_cv.notify_all();
        Ok(())
    }

    /// Milliseconds the oldest acknowledged-but-unflushed append has
    /// been waiting for its fsync (0 = everything acknowledged is on
    /// disk). Only `async` mode runs a nonzero lag in steady state; the
    /// background flusher bounds it to about
    /// [`DurableOptions::async_flush_interval`].
    pub fn async_lag_ms(&self) -> u64 {
        let st = self.inner.flush_state.lock().expect("flush state lock");
        if st.flushed >= st.written {
            return 0;
        }
        st.oldest_pending
            .map(|t| t.elapsed().as_millis() as u64)
            .unwrap_or(0)
    }
}

impl Inner {
    fn rotate(&self, w: &mut Writer, next_first: u64) -> io::Result<()> {
        // Seal the old segment: fsync it so "sealed segments are
        // durable" holds and group commit can limit itself to the
        // active file.
        w.file.sync_data()?;
        self.metrics.fsyncs.fetch_add(1, Ordering::Relaxed);
        let name = seg_name(next_first);
        let file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(self.dir.join(&name))?;
        sync_dir(&self.dir)?;
        w.file = file;
        w.seg_file = name;
        w.seg_bytes = 0;
        Ok(())
    }

    fn flush_loop(self: &Arc<Self>) {
        let interval = match self.opts.mode {
            DurabilityMode::Batch => self.opts.commit_interval,
            _ => self.opts.async_flush_interval,
        };
        loop {
            thread::sleep(interval);
            let (target, flushed) = {
                let st = self.flush_state.lock().expect("flush state lock");
                (st.written, st.flushed)
            };
            if target > flushed {
                let f0 = Instant::now();
                let start_unix_us = SystemTime::now()
                    .duration_since(UNIX_EPOCH)
                    .map(|d| d.as_micros() as u64)
                    .unwrap_or(0);
                let result = {
                    let w = self.writer.lock().expect("durable writer lock");
                    w.file.sync_data()
                };
                self.metrics.fsyncs.fetch_add(1, Ordering::Relaxed);
                self.metrics
                    .fsync_latency
                    .record_us(f0.elapsed().as_micros() as u64);
                // Attribute this fsync to the trace whose append queued
                // it last — the flusher runs outside any request, so it
                // records through the context that append saved.
                if let Some((recorder, trace, parent)) = self
                    .last_span_ctx
                    .lock()
                    .expect("durable span ctx lock")
                    .take()
                {
                    recorder.record_span(
                        &trace,
                        Some(&parent),
                        "durable.fsync",
                        start_unix_us,
                        f0.elapsed().as_micros() as u64,
                        &[("batch", (target - flushed).to_string())],
                        result.is_err(),
                    );
                }
                let mut st = self.flush_state.lock().expect("flush state lock");
                match result {
                    Ok(()) => {
                        if target > flushed + 1 {
                            self.metrics.group_commits.fetch_add(1, Ordering::Relaxed);
                        }
                        st.flushed = st.flushed.max(target);
                        st.oldest_pending = if st.flushed >= st.written {
                            None
                        } else {
                            // Whatever is still pending arrived during
                            // the fsync just issued.
                            Some(Instant::now())
                        };
                    }
                    Err(_) => st.io_error = true,
                }
                self.flush_cv.notify_all();
            }
            if self.stop.load(Ordering::Relaxed) {
                // One last drain ran above; wake any stragglers.
                self.flush_cv.notify_all();
                return;
            }
        }
    }
}

impl Drop for DurableLog {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::Relaxed);
        self.inner.flush_cv.notify_all();
        if let Some(handle) = self.flusher.lock().expect("flusher handle lock").take() {
            let _ = handle.join();
        }
        // Best-effort final flush so a graceful shutdown in Async mode
        // still lands on disk.
        let _ = self.sync();
    }
}

impl std::fmt::Debug for DurableLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableLog")
            .field("dir", &self.inner.dir)
            .field("mode", &self.inner.opts.mode)
            .finish_non_exhaustive()
    }
}
