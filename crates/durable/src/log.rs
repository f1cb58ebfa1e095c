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
use std::time::{Duration, Instant};

use ziggy_obs::span;
use ziggy_obs::Histogram;

use crate::record::{combine_csv_into, frame, parse_frame, Record};
use crate::state::{
    decode_snapshot, encode_snapshot, CsvChain, CsvLoc, Materializer, SnapshotState,
    SNAPSHOT_CHECKSUM_MISMATCH,
};

/// How hard an acknowledged append is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DurabilityMode {
    /// Group commit: an append is acknowledged only after an fsync
    /// that covers it. The first appender to find no sync running
    /// leads one for every record written so far; appenders arriving
    /// during it wait, and the next of them leads the next batch.
    /// Survives power loss; amortizes the fsync without a timer.
    #[default]
    Batch,
    /// Write to the OS and acknowledge. Survives process crashes
    /// (SIGKILL) but not power loss; a background flusher fsyncs
    /// within about 50 ms of the last append.
    Async,
}

impl DurabilityMode {
    /// The flag spelling, as accepted by `--durability`.
    pub fn as_str(&self) -> &'static str {
        match self {
            DurabilityMode::Batch => "batch",
            DurabilityMode::Async => "async",
        }
    }
}

impl std::str::FromStr for DurabilityMode {
    type Err = String;

    /// `fsync` and `batched` are aliases of `batch`: every spelling of
    /// "acknowledge after an fsync that covers the record" runs the
    /// one commit path.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "batch" | "batched" | "fsync" => Ok(DurabilityMode::Batch),
            "async" => Ok(DurabilityMode::Async),
            other => Err(format!(
                "unknown durability mode {other:?} (expected batch|async; fsync = batch)"
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
}

impl Default for DurableOptions {
    fn default() -> Self {
        Self {
            mode: DurabilityMode::default(),
            segment_bytes: 4 * 1024 * 1024,
            snapshot_every: 256,
        }
    }
}

/// How far behind the last append the `async` flusher lets the log run
/// before fsyncing (bounds that mode's power-loss window).
const ASYNC_FLUSH_INTERVAL: Duration = Duration::from_millis(50);

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
    /// The active segment. Shared so a commit leader can fsync it
    /// after releasing the writer lock; writes go through `&File`.
    file: Arc<File>,
    seg_file: String,
    seg_bytes: u64,
    next_lsn: u64,
}

/// The group-commit ledger, guarded by `Inner::flush_state`. Every
/// sync (a commit leader's, the `async` flusher's, [`DurableLog::sync`])
/// claims it through [`FlushState::claim`] and reports back through
/// [`FlushState::finish_sync`], so at most one runs at a time.
#[derive(Default)]
struct FlushState {
    written: u64,
    flushed: u64,
    /// A claimed sync is running (its leader holds no lock meanwhile).
    syncing: bool,
    io_error: bool,
    /// When the oldest not-yet-fsynced append landed (None = fully
    /// flushed); `flushed` vs `written` plus this instant is the
    /// durability lag the `ziggy_durable_async_lag_ms` gauge reports.
    oldest_pending: Option<Instant>,
}

/// What a caller waiting for `lsn` to be durable does next.
#[derive(Debug, PartialEq, Eq)]
enum Commit {
    /// An fsync already covered it.
    Done,
    /// A sync is running; wait for it to finish, then ask again.
    Wait,
    /// The caller now owns `syncing` and must run the sync.
    Lead,
    /// An earlier fsync failed; nothing after it is acknowledged.
    Failed,
}

impl FlushState {
    /// Notes that every record up to `lsn` is written to the OS.
    fn wrote(&mut self, lsn: u64) {
        self.written = self.written.max(lsn);
        self.oldest_pending.get_or_insert_with(Instant::now);
    }

    /// Decides the next move for a caller waiting on `lsn`, claiming
    /// `syncing` when that move is [`Commit::Lead`].
    fn claim(&mut self, lsn: u64) -> Commit {
        if self.flushed >= lsn {
            Commit::Done
        } else if self.io_error {
            Commit::Failed
        } else if self.syncing {
            Commit::Wait
        } else {
            self.syncing = true;
            Commit::Lead
        }
    }

    /// Records the end of a claimed sync that covered every record up
    /// to `target`, returning how many records it made durable (0 on
    /// failure, which instead sets the sticky `io_error`).
    fn finish_sync(&mut self, target: u64, ok: bool) -> u64 {
        self.syncing = false;
        if !ok {
            self.io_error = true;
            return 0;
        }
        let covered = target.saturating_sub(self.flushed);
        self.flushed = self.flushed.max(target);
        self.oldest_pending = if self.flushed >= self.written {
            None
        } else {
            // Whatever is still pending arrived during this sync.
            Some(Instant::now())
        };
        covered
    }
}

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
                file: Arc::new(file),
                seg_file,
                seg_bytes,
                next_lsn,
            }),
            flush_state: Mutex::new(FlushState {
                written: next_lsn.saturating_sub(1),
                flushed: next_lsn.saturating_sub(1),
                ..FlushState::default()
            }),
            flush_cv: Condvar::new(),
            stop: AtomicBool::new(false),
            metrics,
            csv_index: Mutex::new(csv_index),
            snapshot_lsn: AtomicU64::new(snap_lsn),
            since_snapshot: AtomicU64::new(0),
            snapshotting: AtomicBool::new(false),
        });

        // Batch appends commit themselves; Async needs a flusher to
        // bound the power-loss window (fsync at most
        // `ASYNC_FLUSH_INTERVAL` behind the last append instead of only
        // on rotation).
        let flusher = (inner.opts.mode == DurabilityMode::Async).then(|| {
            let worker = Arc::clone(&inner);
            thread::Builder::new()
                .name("ziggy-durable-flush".into())
                .spawn(move || worker.flush_loop())
                .expect("spawn async flusher")
        });

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
        (&*w.file).write_all(line.as_bytes())?;
        w.next_lsn = lsn + 1;
        w.seg_bytes += line.len() as u64;
        inner
            .flush_state
            .lock()
            .expect("flush state lock")
            .wrote(lsn);
        drop(w);
        if inner.opts.mode == DurabilityMode::Batch {
            inner.commit(lsn)?;
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

    /// Forces every written record to disk (used at graceful shutdown
    /// and by tests; Batch/Async callers otherwise rely on the mode's
    /// own guarantees).
    pub fn sync(&self) -> io::Result<()> {
        let written = self
            .inner
            .flush_state
            .lock()
            .expect("flush state lock")
            .written;
        self.inner.commit(written)
    }

    /// Milliseconds the oldest acknowledged-but-unflushed append has
    /// been waiting for its fsync (0 = everything acknowledged is on
    /// disk). Only `async` mode runs a nonzero lag in steady state; the
    /// background flusher bounds it to about 50 ms.
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
        w.file = Arc::new(file);
        w.seg_file = name;
        w.seg_bytes = 0;
        Ok(())
    }

    /// Returns once every record up to `lsn` is durable: done if an
    /// fsync already covered it, waiting while another caller's sync
    /// runs, and otherwise leading the sync itself. The leader holds no
    /// lock across its fsync, so records written meanwhile queue up as
    /// the next leader's batch.
    fn commit(&self, lsn: u64) -> io::Result<()> {
        let mut st = self.flush_state.lock().expect("flush state lock");
        loop {
            match st.claim(lsn) {
                Commit::Done => return Ok(()),
                Commit::Failed => return Err(io::Error::other("group-commit fsync failed")),
                Commit::Wait => st = self.flush_cv.wait(st).expect("flush state wait"),
                Commit::Lead => {
                    drop(st);
                    self.lead_sync();
                    st = self.flush_state.lock().expect("flush state lock");
                }
            }
        }
    }

    /// Runs the sync claimed by [`FlushState::claim`]: fsyncs the active
    /// segment up to the last written LSN, records the outcome and wakes
    /// every waiter. Rotation seals older segments with their own fsync,
    /// so the captured file covers every record up to `target` that no
    /// sealed segment holds.
    fn lead_sync(&self) {
        let (file, target) = {
            let w = self.writer.lock().expect("durable writer lock");
            (Arc::clone(&w.file), w.next_lsn - 1)
        };
        let mut fsync_span = span::child("durable.fsync");
        let f0 = Instant::now();
        let ok = file.sync_data().is_ok();
        self.metrics.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .fsync_latency
            .record_us(f0.elapsed().as_micros() as u64);
        let covered = self
            .flush_state
            .lock()
            .expect("flush state lock")
            .finish_sync(target, ok);
        self.flush_cv.notify_all();
        if covered > 1 {
            self.metrics.group_commits.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(s) = fsync_span.as_mut() {
            s.attr("batch", covered.to_string());
            s.set_error(!ok);
        }
    }

    /// The `async` mode flusher: every [`ASYNC_FLUSH_INTERVAL`], syncs
    /// whatever has been written since the last sync.
    fn flush_loop(&self) {
        loop {
            thread::sleep(ASYNC_FLUSH_INTERVAL);
            let written = self.flush_state.lock().expect("flush state lock").written;
            // A failed fsync stays sticky in the flush state; async
            // appends are acknowledged before any sync either way.
            let _ = self.commit(written);
            if self.stop.load(Ordering::Relaxed) {
                return;
            }
        }
    }
}

impl Drop for DurableLog {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::Relaxed);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn followers_written_during_a_sync_form_the_next_batch() {
        let mut st = FlushState::default();
        // A writes lsn 1 and, finding no sync running, leads.
        st.wrote(1);
        assert_eq!(st.claim(1), Commit::Lead);
        // B and C write during A's sync: both wait on it.
        st.wrote(2);
        st.wrote(3);
        assert_eq!(st.claim(2), Commit::Wait);
        assert_eq!(st.claim(3), Commit::Wait);
        // A's sync covered only what was written when it started.
        assert_eq!(st.finish_sync(1, true), 1);
        assert_eq!(st.claim(1), Commit::Done);
        // B wakes first and leads the rest; C waits on B.
        assert_eq!(st.claim(2), Commit::Lead);
        assert_eq!(st.claim(3), Commit::Wait);
        assert_eq!(st.finish_sync(3, true), 2, "B's sync is a group commit");
        assert_eq!(st.claim(3), Commit::Done);
        assert_eq!(st.claim(2), Commit::Done);
        assert!(st.oldest_pending.is_none(), "fully flushed");
    }

    #[test]
    fn a_failed_sync_fails_its_waiters_and_every_later_append() {
        let mut st = FlushState::default();
        st.wrote(1);
        assert_eq!(st.claim(1), Commit::Lead);
        st.wrote(2);
        assert_eq!(st.claim(2), Commit::Wait);
        assert_eq!(st.finish_sync(1, false), 0);
        // The leader and its waiter both see the failure...
        assert_eq!(st.claim(1), Commit::Failed);
        assert_eq!(st.claim(2), Commit::Failed);
        // ...and so does every later append: no new leader is elected.
        st.wrote(3);
        assert_eq!(st.claim(3), Commit::Failed);
        assert!(!st.syncing);
    }

    #[test]
    fn durability_flag_spellings() {
        for (flag, mode) in [
            ("batch", DurabilityMode::Batch),
            ("batched", DurabilityMode::Batch),
            ("fsync", DurabilityMode::Batch),
            ("async", DurabilityMode::Async),
        ] {
            assert_eq!(flag.parse::<DurabilityMode>(), Ok(mode), "{flag}");
        }
        for bad in ["", "Fsync", "sync", "none"] {
            assert!(bad.parse::<DurabilityMode>().is_err(), "{bad:?}");
        }
    }
}
