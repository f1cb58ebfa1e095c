//! Durability chaos suite: real `ziggy serve` processes on real data
//! directories, SIGKILLed and restarted mid-conversation. Each test
//! pins one of the three bugs the durability tier exists to kill:
//!
//! 1. **Crash amnesia** — a SIGKILLed backend restarted onto its
//!    `--data-dir` replays its WAL to byte-identical reports (ETags
//!    included) and resumes its sessions mid-count.
//! 2. **Tombstone resurrection** — a table deleted while a holder was
//!    down must stay deleted when that holder rejoins with its WAL
//!    replayed; repair propagates the delete instead of the copy.
//! 3. **Session stranding** — killing a session's home backend
//!    mid-stepping fails the conversation over to another replica
//!    instead of 503ing with a "recreate it yourself" shrug.
//!
//! Plus the R=1 drain-loss path: removing the sole holder of a table
//! copies the data out before the membership changes.
//!
//! The durability mode comes from `ZIGGY_DURABILITY` (`batch` or
//! `async`, default `batch`; `fsync` is an alias of `batch`) so CI can
//! run the whole file once per mode. Every invariant here must hold
//! under both — `async` still flushes on rotation and the tests sync
//! via acknowledged HTTP responses plus the drop-free SIGKILL path
//! exercised by `kill()`.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Duration;

use ziggy::fleet::{repair_round, start_fleet, BackendProcess, FleetOptions};
use ziggy::serve::http::{request_once, Client};
use ziggy::store::csv::write_csv_string;

fn durability_mode() -> String {
    std::env::var("ZIGGY_DURABILITY").unwrap_or_else(|_| "batch".into())
}

/// A per-test scratch root; removed on drop so reruns start clean.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "ziggy-chaos-{}-{name}-{}",
            std::process::id(),
            durability_mode()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn dir_for(&self, id: &str) -> PathBuf {
        self.0.join(id)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The `serve` flags that put a backend on its own durable directory.
fn durable_args(dir: &Path) -> Vec<String> {
    vec![
        "--data-dir".into(),
        dir.to_string_lossy().into_owned(),
        "--durability".into(),
        durability_mode(),
    ]
}

fn spawn_durable(binary: &Path, id: &str, scratch: &Scratch) -> BackendProcess {
    let args = durable_args(&scratch.dir_for(id));
    let refs: Vec<&str> = args.iter().map(String::as_str).collect();
    BackendProcess::spawn(binary, id, &refs).expect("backend must start")
}

fn json_body(fields: &[(&str, &str)]) -> String {
    serde_json::to_string(&serde_json::Value::Object(
        fields
            .iter()
            .map(|(k, v)| {
                (
                    (*k).to_string(),
                    serde_json::Value::String((*v).to_string()),
                )
            })
            .collect(),
    ))
    .unwrap()
}

/// Total row count seen by a characterize report body.
fn report_rows(body: &str) -> u64 {
    let v = serde_json::from_str_value(body).unwrap();
    let field = |k: &str| v.get(k).unwrap().as_u64().unwrap();
    field("n_inside") + field("n_outside")
}

fn lists_table(addr: SocketAddr, table: &str) -> bool {
    let (s, body) = request_once(addr, "GET", "/tables", None).unwrap();
    assert_eq!(s, 200);
    body.contains(&format!("\"{table}\""))
}

#[test]
fn sigkill_restart_replays_byte_identical_reports_and_sessions() {
    let binary = Path::new(env!("CARGO_BIN_EXE_ziggy"));
    let scratch = Scratch::new("sigkill");
    let mut child = spawn_durable(binary, "solo", &scratch);

    let twin = ziggy::synth::box_office(7);
    let csv = write_csv_string(&twin.table, ',');
    let query_body = json_body(&[("query", &twin.predicate)]);
    let body = json_body(&[("name", "boxoffice"), ("csv", &csv)]);
    let (status, resp) = request_once(child.addr(), "POST", "/tables", Some(&body)).unwrap();
    assert_eq!(status, 201, "{resp}");

    // Baseline wire bytes + validator (characterize bodies carry no
    // wall-clock timings, so byte identity is the contract).
    let mut client = Client::connect(child.addr()).unwrap();
    let (status, headers, baseline) = client
        .request_with_headers(
            "POST",
            "/tables/boxoffice/characterize",
            &[],
            Some(&query_body),
        )
        .unwrap();
    assert_eq!(status, 200, "{baseline}");
    let etag = headers
        .iter()
        .find(|(k, _)| k == "etag")
        .map(|(_, v)| v.clone())
        .expect("characterize must carry an ETag");

    // A session one step into its conversation.
    let (status, created) = request_once(
        child.addr(),
        "POST",
        "/sessions",
        Some(&json_body(&[("table", "boxoffice")])),
    )
    .unwrap();
    assert_eq!(status, 201, "{created}");
    let sid = serde_json::from_str_value(&created)
        .unwrap()
        .get("session_id")
        .unwrap()
        .as_u64()
        .unwrap();
    let step_path = format!("/sessions/{sid}/step");
    let (status, step1) =
        request_once(child.addr(), "POST", &step_path, Some(&query_body)).unwrap();
    assert_eq!(status, 200, "{step1}");
    assert!(step1.contains("\"step\":1"), "{step1}");

    // SIGKILL — no flush hooks, no destructors — then restart on the
    // same directory (fresh ephemeral port; the data dir is the
    // identity that matters).
    child.kill();
    let child = spawn_durable(binary, "solo", &scratch);

    assert!(
        lists_table(child.addr(), "boxoffice"),
        "replay must restore the table"
    );
    let mut client = Client::connect(child.addr()).unwrap();
    let (status, _, replayed) = client
        .request_with_headers(
            "POST",
            "/tables/boxoffice/characterize",
            &[],
            Some(&query_body),
        )
        .unwrap();
    assert_eq!(status, 200, "{replayed}");
    assert_eq!(
        replayed, baseline,
        "replayed reports must be byte-identical"
    );
    let (status, _, empty) = client
        .request_with_headers(
            "POST",
            "/tables/boxoffice/characterize",
            &[("If-None-Match", &etag)],
            Some(&query_body),
        )
        .unwrap();
    assert_eq!(
        status, 304,
        "the pre-kill ETag must still validate: {empty}"
    );

    // The CSV export now comes back out of the log, verbatim.
    let (status, exported) =
        request_once(child.addr(), "GET", "/tables/boxoffice/csv", None).unwrap();
    assert_eq!(status, 200);
    let exported_csv = serde_json::from_str_value(&exported)
        .unwrap()
        .get("csv")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    assert_eq!(exported_csv, csv, "exported CSV must be the upload bytes");

    // And the session picks up mid-count: the next step, with another
    // query, is #2.
    let other_body = json_body(&[("query", "genre = 'action'")]);
    let (status, step2) =
        request_once(child.addr(), "POST", &step_path, Some(&other_body)).unwrap();
    assert_eq!(status, 200, "replayed session must keep stepping: {step2}");
    assert!(step2.contains("\"step\":2"), "{step2}");

    // Its diff is the one an uninterrupted session sends: a control
    // session on the restarted process steps the same two queries.
    // Only `diff` is compared; `report.timings` differs run to run.
    let (status, created) = request_once(
        child.addr(),
        "POST",
        "/sessions",
        Some(&json_body(&[("table", "boxoffice")])),
    )
    .unwrap();
    assert_eq!(status, 201, "{created}");
    let control = serde_json::from_str_value(&created)
        .unwrap()
        .get("session_id")
        .unwrap()
        .as_u64()
        .unwrap();
    let control_path = format!("/sessions/{control}/step");
    let mut control_step2 = String::new();
    for body in [&query_body, &other_body] {
        let (status, resp) = request_once(child.addr(), "POST", &control_path, Some(body)).unwrap();
        assert_eq!(status, 200, "{resp}");
        control_step2 = resp;
    }
    assert!(control_step2.contains("\"step\":2"), "{control_step2}");
    let diff = |step: &str| {
        let (_, diff) = step.rsplit_once("\"diff\":").expect("steps carry a diff");
        diff.to_string()
    };
    assert!(!diff(&step2).starts_with("null"), "{step2}");
    assert_eq!(
        diff(&step2),
        diff(&control_step2),
        "the restored session's diff must be byte-identical"
    );
}

#[test]
fn sigkill_after_appends_replays_the_appended_table_byte_identically() {
    let binary = Path::new(env!("CARGO_BIN_EXE_ziggy"));
    let scratch = Scratch::new("append");
    let mut child = spawn_durable(binary, "solo", &scratch);

    let twin = ziggy::synth::box_office(7);
    let csv = write_csv_string(&twin.table, ',');
    let query_body = json_body(&[("query", &twin.predicate)]);
    let body = json_body(&[("name", "boxoffice"), ("csv", &csv)]);
    let (status, resp) = request_once(child.addr(), "POST", "/tables", Some(&body)).unwrap();
    assert_eq!(status, 201, "{resp}");

    // Append rows recycled from the upload itself (guaranteed to match
    // the schema), in two separate POSTs so replay must fold two append
    // records onto the ingest in order.
    let data_lines: Vec<&str> = csv.lines().skip(1).collect();
    let batches = [
        format!("{}\n{}\n", data_lines[0], data_lines[1]),
        format!("{}\n", data_lines[2]),
    ];
    for batch in &batches {
        let append_body = json_body(&[("rows", batch)]);
        let (status, resp) = request_once(
            child.addr(),
            "POST",
            "/tables/boxoffice/rows",
            Some(&append_body),
        )
        .unwrap();
        assert_eq!(status, 200, "{resp}");
    }
    let combined = format!("{csv}{}{}", batches[0], batches[1]);

    // Baseline wire bytes + validator over the *appended* table.
    let mut client = Client::connect(child.addr()).unwrap();
    let (status, headers, baseline) = client
        .request_with_headers(
            "POST",
            "/tables/boxoffice/characterize",
            &[],
            Some(&query_body),
        )
        .unwrap();
    assert_eq!(status, 200, "{baseline}");
    assert_eq!(report_rows(&baseline), 903, "{baseline}");
    let etag = headers
        .iter()
        .find(|(k, _)| k == "etag")
        .map(|(_, v)| v.clone())
        .expect("characterize must carry an ETag");

    // SIGKILL, restart on the same directory: the ingest record plus
    // both append records must replay to the same appended table.
    child.kill();
    let mut child = spawn_durable(binary, "solo", &scratch);

    let (status, exported) =
        request_once(child.addr(), "GET", "/tables/boxoffice/csv", None).unwrap();
    assert_eq!(status, 200);
    let exported_csv = serde_json::from_str_value(&exported)
        .unwrap()
        .get("csv")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    assert_eq!(
        exported_csv, combined,
        "replayed CSV must be ingest bytes plus appended rows, verbatim"
    );
    let mut client = Client::connect(child.addr()).unwrap();
    let (status, _, replayed) = client
        .request_with_headers(
            "POST",
            "/tables/boxoffice/characterize",
            &[],
            Some(&query_body),
        )
        .unwrap();
    assert_eq!(status, 200, "{replayed}");
    assert_eq!(
        replayed, baseline,
        "replayed appended-table reports must be byte-identical"
    );
    let (status, _, empty) = client
        .request_with_headers(
            "POST",
            "/tables/boxoffice/characterize",
            &[("If-None-Match", &etag)],
            Some(&query_body),
        )
        .unwrap();
    assert_eq!(
        status, 304,
        "the pre-kill ETag must still validate: {empty}"
    );

    // The replayed table keeps accepting appends, and a second
    // crash-replay folds the post-restart append record in too.
    let append_body = json_body(&[("rows", &format!("{}\n", data_lines[3]))]);
    let (status, resp) = request_once(
        child.addr(),
        "POST",
        "/tables/boxoffice/rows",
        Some(&append_body),
    )
    .unwrap();
    assert_eq!(status, 200, "append after replay must work: {resp}");
    child.kill();
    let child = spawn_durable(binary, "solo", &scratch);
    let (status, exported) =
        request_once(child.addr(), "GET", "/tables/boxoffice/csv", None).unwrap();
    assert_eq!(status, 200);
    let exported_csv = serde_json::from_str_value(&exported)
        .unwrap()
        .get("csv")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    assert_eq!(
        exported_csv,
        format!("{combined}{}\n", data_lines[3]),
        "appends made after a replay must survive the next crash"
    );
    let (status, resp) = request_once(
        child.addr(),
        "POST",
        "/tables/boxoffice/characterize",
        Some(&query_body),
    )
    .unwrap();
    assert_eq!(status, 200, "{resp}");
    assert_eq!(report_rows(&resp), 904, "{resp}");
}

#[test]
fn delete_while_absent_is_not_resurrected_by_rejoin() {
    let binary = Path::new(env!("CARGO_BIN_EXE_ziggy"));
    let scratch = Scratch::new("resurrect");
    let mut children: Vec<BackendProcess> = (0..3)
        .map(|i| spawn_durable(binary, &format!("shard-{i}"), &scratch))
        .collect();
    let addrs = children
        .iter()
        .map(|c| (c.id().to_string(), c.addr()))
        .collect();
    let fleet = start_fleet(
        "127.0.0.1:0",
        addrs,
        FleetOptions {
            replication: 2,
            probe_interval: Duration::from_millis(50),
            repair_interval: None, // rounds driven by hand
            ..FleetOptions::default()
        },
    )
    .unwrap();
    let router = fleet.local_addr();

    let twin = ziggy::synth::box_office(7);
    let csv = write_csv_string(&twin.table, ',');
    let body = json_body(&[("name", "boxoffice"), ("csv", &csv)]);
    let (status, resp) = request_once(router, "POST", "/tables", Some(&body)).unwrap();
    assert_eq!(status, 201, "{resp}");
    let holders: Vec<usize> = (0..3)
        .filter(|&i| lists_table(children[i].addr(), "boxoffice"))
        .collect();
    assert_eq!(holders.len(), 2);

    // One holder crashes, and the table is deleted while it's away.
    children[holders[0]].kill();
    let (status, resp) = request_once(router, "DELETE", "/tables/boxoffice", None).unwrap();
    assert_eq!(status, 200, "{resp}");

    // The crashed holder comes back under its old id, onto its old data
    // dir — its WAL faithfully replays a table the rest of the fleet
    // has since deleted.
    let scratch_ref = &scratch;
    let restarted =
        ziggy::fleet::restart_dead_children_with(binary, &mut children, fleet.state(), &|id| {
            durable_args(&scratch_ref.dir_for(id))
        });
    assert_eq!(restarted, vec![format!("shard-{}", holders[0])]);
    assert!(
        lists_table(children[holders[0]].addr(), "boxoffice"),
        "the rejoiner's replay must restore its (stale) copy first"
    );

    // Repair compares the fleet-wide tombstone against the stale copy's
    // ingest timestamp: the delete wins and is propagated — the stale
    // copy must NOT be re-replicated back out to R replicas.
    let report = repair_round(fleet.state());
    assert!(
        report.deletes_propagated >= 1,
        "repair must push the delete to the rejoiner: {report:?}"
    );
    assert_eq!(report.repaired, 0, "nothing may be resurrected: {report:?}");
    assert!(
        !lists_table(children[holders[0]].addr(), "boxoffice"),
        "the stale copy must be deleted"
    );
    let (status, listing) = request_once(router, "GET", "/tables", None).unwrap();
    assert_eq!(status, 200);
    assert!(
        !listing.contains("\"boxoffice\""),
        "the fleet must not list a deleted table: {listing}"
    );

    // The propagated tombstone is itself durable: SIGKILL the rejoiner
    // again and its next replay must keep the table dead.
    children[holders[0]].kill();
    let restarted =
        ziggy::fleet::restart_dead_children_with(binary, &mut children, fleet.state(), &|id| {
            durable_args(&scratch_ref.dir_for(id))
        });
    assert_eq!(restarted.len(), 1);
    assert!(
        !lists_table(children[holders[0]].addr(), "boxoffice"),
        "the tombstone must survive the rejoiner's own crash-replay"
    );
    for _ in 0..2 {
        let report = repair_round(fleet.state());
        assert_eq!(report.deletes_propagated, 0, "{report:?}");
        assert_eq!(report.repaired, 0, "{report:?}");
    }

    fleet.shutdown();
    for mut c in children {
        c.kill();
    }
}

#[test]
fn session_home_sigkill_mid_stepping_fails_over() {
    let binary = Path::new(env!("CARGO_BIN_EXE_ziggy"));
    let scratch = Scratch::new("failover");
    let mut children: Vec<BackendProcess> = (0..3)
        .map(|i| spawn_durable(binary, &format!("shard-{i}"), &scratch))
        .collect();
    let addrs = children
        .iter()
        .map(|c| (c.id().to_string(), c.addr()))
        .collect();
    let fleet = start_fleet(
        "127.0.0.1:0",
        addrs,
        FleetOptions {
            replication: 3, // the table lives everywhere: any survivor can host
            probe_interval: Duration::from_millis(50),
            repair_interval: None,
            ..FleetOptions::default()
        },
    )
    .unwrap();
    let router = fleet.local_addr();

    let twin = ziggy::synth::box_office(7);
    let csv = write_csv_string(&twin.table, ',');
    let body = json_body(&[("name", "boxoffice"), ("csv", &csv)]);
    let (status, resp) = request_once(router, "POST", "/tables", Some(&body)).unwrap();
    assert_eq!(status, 201, "{resp}");

    let (status, created) = request_once(
        router,
        "POST",
        "/sessions",
        Some(&json_body(&[("table", "boxoffice")])),
    )
    .unwrap();
    assert_eq!(status, 201, "{created}");
    let v = serde_json::from_str_value(&created).unwrap();
    let sid = v.get("session_id").unwrap().as_u64().unwrap();
    let home = v.get("backend").unwrap().as_str().unwrap().to_string();
    let home_idx: usize = home.strip_prefix("shard-").unwrap().parse().unwrap();

    let query_body = json_body(&[("query", &twin.predicate)]);
    let step_path = format!("/sessions/{sid}/step");
    for step in 1..=2u64 {
        let (status, resp) = request_once(router, "POST", &step_path, Some(&query_body)).unwrap();
        assert_eq!(status, 200, "{resp}");
        assert!(resp.contains(&format!("\"step\":{step}")), "{resp}");
    }

    // SIGKILL the conversation's home mid-stepping. The next step must
    // succeed on another replica, with the ledger replayed so the step
    // counter keeps counting.
    children[home_idx].kill();
    let mut client = Client::connect(router).unwrap();
    let (status, headers, step3) = client
        .request_with_headers("POST", &step_path, &[], Some(&query_body))
        .unwrap();
    assert_eq!(status, 200, "the step must fail over, not 503: {step3}");
    assert!(step3.contains("\"step\":3"), "{step3}");
    let new_home = headers
        .iter()
        .find(|(k, _)| k == "x-fleet-session-failover")
        .map(|(_, v)| v.clone())
        .expect("failover must be announced in a header");
    assert_ne!(new_home, home);

    // Steady state on the new home: no second failover.
    let (status, headers, step4) = client
        .request_with_headers("POST", &step_path, &[], Some(&query_body))
        .unwrap();
    assert_eq!(status, 200, "{step4}");
    assert!(step4.contains("\"step\":4"), "{step4}");
    assert!(!headers.iter().any(|(k, _)| k == "x-fleet-session-failover"));

    fleet.shutdown();
    for mut c in children {
        c.kill();
    }
}

#[test]
fn drain_at_r1_copies_the_sole_replica_out() {
    let binary = Path::new(env!("CARGO_BIN_EXE_ziggy"));
    let scratch = Scratch::new("drain");
    let children: Vec<BackendProcess> = (0..2)
        .map(|i| spawn_durable(binary, &format!("shard-{i}"), &scratch))
        .collect();
    let addrs = children
        .iter()
        .map(|c| (c.id().to_string(), c.addr()))
        .collect();
    let fleet = start_fleet(
        "127.0.0.1:0",
        addrs,
        FleetOptions {
            replication: 1,
            probe_interval: Duration::from_millis(50),
            repair_interval: None,
            ..FleetOptions::default()
        },
    )
    .unwrap();
    let router = fleet.local_addr();

    let twin = ziggy::synth::box_office(7);
    let csv = write_csv_string(&twin.table, ',');
    let body = json_body(&[("name", "solo"), ("csv", &csv)]);
    let (status, resp) = request_once(router, "POST", "/tables", Some(&body)).unwrap();
    assert_eq!(status, 201, "{resp}");
    let holder = (0..2)
        .find(|&i| lists_table(children[i].addr(), "solo"))
        .unwrap();
    let other = 1 - holder;

    // Removing the sole holder migrates the copy before the ring changes.
    let (status, resp) = request_once(
        router,
        "DELETE",
        &format!("/admin/backends/shard-{holder}"),
        None,
    )
    .unwrap();
    assert_eq!(status, 200, "{resp}");
    assert!(resp.contains("\"copied_out\""), "{resp}");
    assert!(resp.contains("\"solo\""), "{resp}");
    assert!(
        lists_table(children[other].addr(), "solo"),
        "the drained table must land on the survivor"
    );
    let query_body = json_body(&[("query", &twin.predicate)]);
    let (status, resp) = request_once(
        router,
        "POST",
        "/tables/solo/characterize",
        Some(&query_body),
    )
    .unwrap();
    assert_eq!(status, 200, "no request may see the drain: {resp}");

    fleet.shutdown();
    for mut c in children {
        c.kill();
    }
}
