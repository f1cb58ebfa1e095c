//! End-to-end tests for the segmented log: replay equivalence across
//! both durability modes, rotation + compaction, torn tails, and
//! group-commit under concurrent appenders.

use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use ziggy_durable::{
    combine_csv, combine_fingerprint, ends_mid_line, DurabilityMode, DurableLog, DurableOptions,
    Record, SnapshotState,
};

fn test_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ziggy-durable-test-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn opts(mode: DurabilityMode) -> DurableOptions {
    DurableOptions {
        mode,
        segment_bytes: 512, // Tiny, to force rotation in tests.
        snapshot_every: 0,  // Snapshots only when tests ask.
    }
}

fn ingest(table: &str, ts: u64, csv: &str) -> Record {
    Record::Ingest {
        table: table.into(),
        fingerprint: ziggy_store::fnv1a_64(csv.as_bytes()),
        ts,
        csv: csv.into(),
    }
}

#[test]
fn replay_equivalence_across_modes() {
    for mode in [DurabilityMode::Batch, DurabilityMode::Async] {
        let dir = test_dir(&format!("modes-{mode}"));
        {
            let (log, replay) = DurableLog::open(&dir, opts(mode)).unwrap();
            assert_eq!(replay.records, 0);
            log.append(&ingest("t1", 10, "a,b\n1,2\n")).unwrap();
            log.append(&ingest("t2", 11, "c\n3\n")).unwrap();
            log.append(&Record::Tombstone {
                table: "t2".into(),
                ts: 12,
                stray: false,
            })
            .unwrap();
            log.append(&Record::SessionCreate {
                id: 1,
                table: "t1".into(),
            })
            .unwrap();
            log.append(&Record::SessionStep {
                id: 1,
                seq: 1,
                query: "a > 0".into(),
            })
            .unwrap();
        }
        let (log, replay) = DurableLog::open(&dir, opts(mode)).unwrap();
        assert_eq!(replay.torn, 0, "{mode}");
        let state = &replay.state;
        assert_eq!(state.tables.len(), 1, "{mode}");
        assert_eq!(state.tables[0].name, "t1");
        assert_eq!(state.tombstones, vec![("t2".into(), 12, false)]);
        assert_eq!(state.sessions.len(), 1);
        assert_eq!(state.sessions[0].last_query.as_deref(), Some("a > 0"));
        // CSV served from the log, not from memory.
        assert_eq!(log.table_csv("t1").as_deref(), Some("a,b\n1,2\n"));
        assert_eq!(log.table_csv("t2"), None);
        drop(log);
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn rotation_snapshot_compaction_and_replay() {
    let dir = test_dir("compact");
    let (log, _) = DurableLog::open(&dir, opts(DurabilityMode::Async)).unwrap();
    // Enough bytes to roll several 512-byte segments.
    for i in 0..24u64 {
        log.append(&ingest(&format!("t{}", i % 4), 100 + i, "x,y\n1,2\n3,4\n"))
            .unwrap();
    }
    assert!(log.segment_count() > 2, "expected rotation");

    // Snapshot the live state the way the serve layer would.
    let cover = log.begin_snapshot().unwrap();
    let state = SnapshotState {
        tables: (0..4)
            .map(|i| ziggy_durable::TableState {
                name: format!("t{i}"),
                fingerprint: ziggy_store::fnv1a_64(b"x,y\n1,2\n3,4\n"),
                ts: 100 + 20 + i,
                csv: "x,y\n1,2\n3,4\n".into(),
            })
            .collect(),
        tombstones: vec![],
        sessions: vec![],
    };
    log.write_snapshot(cover, &state).unwrap();
    assert_eq!(
        log.segment_count(),
        1,
        "compaction should leave the active segment"
    );
    assert_eq!(log.snapshot_lsn(), cover);
    // Exports still work (now out of the snapshot).
    assert_eq!(log.table_csv("t0").as_deref(), Some("x,y\n1,2\n3,4\n"));

    // Append past the snapshot, then replay: snapshot + tail.
    log.append(&ingest("t9", 999, "z\n9\n")).unwrap();
    drop(log);
    let (log, replay) = DurableLog::open(&dir, opts(DurabilityMode::Async)).unwrap();
    let names: Vec<&str> = replay
        .state
        .tables
        .iter()
        .map(|t| t.name.as_str())
        .collect();
    assert_eq!(names, vec!["t0", "t1", "t2", "t3", "t9"]);
    assert_eq!(log.table_csv("t9").as_deref(), Some("z\n9\n"));
    assert_eq!(log.table_csv("t2").as_deref(), Some("x,y\n1,2\n3,4\n"));
    drop(log);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn append_chain_exports_and_replays_as_one_fold() {
    let dir = test_dir("chain");
    let base = "h,v\n0,0";
    let batches: Vec<String> = (1..=12).map(|i| format!("{i},{}\n", i * i)).collect();
    let folded = batches
        .iter()
        .fold(base.to_string(), |csv, rows| combine_csv(&csv, rows));
    {
        let (log, _) = DurableLog::open(&dir, opts(DurabilityMode::Batch)).unwrap();
        log.append(&ingest("t", 1, base)).unwrap();
        let mut fingerprint = ziggy_store::fnv1a_64(base.as_bytes());
        let mut mid_line = ends_mid_line(base);
        for (i, rows) in batches.iter().enumerate() {
            fingerprint = combine_fingerprint(fingerprint, mid_line, rows);
            mid_line = ends_mid_line(rows);
            log.append(&Record::Append {
                table: "t".into(),
                fingerprint,
                ts: 2 + i as u64,
                rows: rows.clone(),
            })
            .unwrap();
        }
        // The chain spans several 512-byte segments.
        assert!(log.segment_count() > 1);
        assert_eq!(log.table_csv("t").as_deref(), Some(folded.as_str()));
    }
    let (log, replay) = DurableLog::open(&dir, opts(DurabilityMode::Batch)).unwrap();
    let t = &replay.state.tables[0];
    assert_eq!(t.csv, folded);
    assert_eq!(t.fingerprint, ziggy_store::fnv1a_64(folded.as_bytes()));
    assert_eq!(log.table_csv("t").as_deref(), Some(folded.as_str()));
    drop(log);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_is_dropped_and_overwritten() {
    let dir = test_dir("torn");
    {
        let (log, _) = DurableLog::open(&dir, opts(DurabilityMode::Batch)).unwrap();
        log.append(&ingest("keep", 1, "a\n1\n")).unwrap();
    }
    // Simulate a torn write: garbage bytes with no trailing record.
    let seg = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .find(|e| e.file_name().to_string_lossy().starts_with("seg-"))
        .unwrap()
        .path();
    let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
    f.write_all(b"ZR1 2 00deadbeef garbage-that-won't-checksum")
        .unwrap();
    drop(f);
    let before = fs::metadata(&seg).unwrap().len();

    let (log, replay) = DurableLog::open(&dir, opts(DurabilityMode::Batch)).unwrap();
    assert_eq!(replay.torn, 1);
    assert_eq!(replay.state.tables.len(), 1);
    assert!(fs::metadata(&seg).unwrap().len() < before, "tail truncated");
    // The log keeps accepting appends after truncation.
    log.append(&ingest("after", 2, "b\n2\n")).unwrap();
    drop(log);
    let (_, replay) = DurableLog::open(&dir, opts(DurabilityMode::Batch)).unwrap();
    let names: Vec<&str> = replay
        .state
        .tables
        .iter()
        .map(|t| t.name.as_str())
        .collect();
    assert_eq!(names, vec!["after", "keep"]);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn group_commit_acknowledges_concurrent_appenders() {
    // Every acknowledged append must replay: 8 writers x 250 appends,
    // each acknowledged only once a leader's fsync covered it.
    const WRITERS: u64 = 8;
    const APPENDS: u64 = 250;
    let dir = test_dir("group");
    let (log, _) = DurableLog::open(&dir, opts(DurabilityMode::Batch)).unwrap();
    let log = Arc::new(log);
    let mut handles = Vec::new();
    for t in 0..WRITERS {
        let log = Arc::clone(&log);
        handles.push(std::thread::spawn(move || {
            for i in 0..APPENDS {
                log.append(&ingest(&format!("t{t}x{i}"), t * 1000 + i, "a\n1\n"))
                    .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let appended = log
        .metrics()
        .records
        .load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(appended, WRITERS * APPENDS);
    drop(log);
    let (_, replay) = DurableLog::open(&dir, opts(DurabilityMode::Batch)).unwrap();
    assert_eq!(replay.state.tables.len() as u64, WRITERS * APPENDS);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn delete_then_recreate_with_identical_bytes_survives_replay() {
    // Fingerprint-only tombstones would lose this one: the recreated
    // table has the same bytes as the deleted one. HLC timestamps
    // resolve it.
    let dir = test_dir("recreate");
    {
        let (log, _) = DurableLog::open(&dir, opts(DurabilityMode::Batch)).unwrap();
        log.append(&ingest("t", 10, "a\n1\n")).unwrap();
        log.append(&Record::Tombstone {
            table: "t".into(),
            ts: 11,
            stray: false,
        })
        .unwrap();
        log.append(&ingest("t", 12, "a\n1\n")).unwrap();
    }
    let (_, replay) = DurableLog::open(&dir, opts(DurabilityMode::Batch)).unwrap();
    assert_eq!(replay.state.tables.len(), 1);
    assert_eq!(replay.state.tables[0].ts, 12);
    assert!(replay.state.tombstones.is_empty());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn async_mode_flusher_bounds_durability_lag() {
    let dir = test_dir("async-lag");
    let (log, _) = DurableLog::open(&dir, opts(DurabilityMode::Async)).unwrap();
    log.append(&ingest("t", 1, "a\n1\n")).unwrap();
    // The background flusher must fsync within its 50 ms interval
    // instead of waiting for segment rotation; poll to avoid flakes.
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while log.async_lag_ms() > 0 || {
        log.metrics()
            .fsyncs
            .load(std::sync::atomic::Ordering::Relaxed)
            == 0
    } {
        assert!(
            std::time::Instant::now() < deadline,
            "async flusher never caught up (lag {} ms)",
            log.async_lag_ms()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(log);
    let (_, replay) = DurableLog::open(&dir, opts(DurabilityMode::Async)).unwrap();
    assert_eq!(replay.state.tables.len(), 1);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_snapshot_falls_back_to_wal_replay_at_boot() {
    let dir = test_dir("snap-checksum");
    {
        let mut options = opts(DurabilityMode::Batch);
        options.snapshot_every = 2;
        let (log, _) = DurableLog::open(&dir, options).unwrap();
        log.append(&ingest("a", 1, "x\n1\n")).unwrap();
        log.append(&ingest("b", 2, "x\n2\n")).unwrap();
        assert!(log.wants_snapshot());
        let cover = log.begin_snapshot().unwrap();
        let state = SnapshotState {
            tables: vec![],
            tombstones: vec![],
            sessions: vec![],
        };
        // Deliberately write an EMPTY state snapshot so we can tell
        // apart "restored from snapshot" (0 tables) from "refused the
        // snapshot, replayed the WAL" (2 tables).
        log.write_snapshot(cover, &state).unwrap();
    }
    // Corrupt the snapshot payload without touching the header.
    let snap = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .unwrap()
                .to_string_lossy()
                .starts_with("snap-")
        })
        .expect("snapshot written");
    let text = fs::read_to_string(&snap).unwrap();
    fs::write(&snap, text.replace("\"tables\":[]", "\"tables\": []")).unwrap();

    let (log, replay) = DurableLog::open(&dir, opts(DurabilityMode::Batch)).unwrap();
    assert_eq!(
        log.metrics()
            .snapshot_checksum_failures
            .load(std::sync::atomic::Ordering::Relaxed),
        1,
        "the corrupt snapshot must be counted"
    );
    assert_eq!(
        replay.state.tables.len(),
        2,
        "boot must fall back to WAL replay, not trust the corrupt snapshot"
    );
    let _ = fs::remove_dir_all(&dir);
}
