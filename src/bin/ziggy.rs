//! The `ziggy` binary: interactive REPL (default), HTTP service, or a
//! local sharded fleet.
//!
//! ```text
//! ziggy                  # REPL, the terminal counterpart of the demo
//! ziggy repl             # same, explicitly
//! ziggy serve            # HTTP JSON API on 127.0.0.1:8080
//! ziggy serve --addr 0.0.0.0:9000 --threads 8 --demo --access-log
//! ziggy fleet --backends 4 --replication 2   # router + 4 local shards
//! ```

use std::io::{BufRead, Write};

use ziggy::fleet::{start_fleet, BackendProcess, FleetOptions};
use ziggy::repl::{ReplAction, ReplState};
use ziggy::serve::{serve, ServeOptions};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None | Some("repl") => run_repl(),
        Some("serve") => run_serve(&args[1..]),
        Some("fleet") => run_fleet(&args[1..]),
        Some("help") | Some("-h") | Some("--help") => print_usage(),
        Some(other) => {
            eprintln!("unknown command: {other}\n");
            print_usage();
            std::process::exit(2);
        }
    }
}

fn print_usage() {
    println!(
        "usage: ziggy [COMMAND]\n\n\
         commands:\n  \
         repl                     interactive exploration REPL (default)\n  \
         serve [OPTIONS]          run the HTTP characterization service\n  \
         fleet [OPTIONS]          spawn N local backends plus a sharding router\n  \
         help                     this text\n\n\
         serve options:\n  \
         --addr ADDR              bind address (default 127.0.0.1:8080)\n  \
         --threads N              worker threads (default: available parallelism)\n  \
         --demo                   preload the crime synthetic twin as table `crime`\n  \
         --access-log             one JSON access-log line per request on stderr\n  \
         --access-log-file PATH   append access-log lines to PATH instead of stderr\n  \
         --rate-limit N           per-client token bucket: N req/s (default: off)\n  \
         --session-ttl SECS       evict sessions idle past SECS (default 3600, 0 = off)\n  \
         --port-file PATH         write the bound address to PATH once listening\n  \
         --data-dir PATH          durability tier: WAL + snapshots in PATH, replayed on boot\n  \
         --durability MODE        batch | async (default batch, fsync = batch; needs --data-dir)\n  \
         --snapshot-every N       snapshot + compact every N records (default 256)\n  \
         --slow-ms MS             slow-query threshold: pin + log traces at/past MS (default 250)\n\n\
         fleet options:\n  \
         --addr ADDR              router bind address (default 127.0.0.1:8080)\n  \
         --backends N             local ziggy-serve processes to spawn (default 2)\n  \
         --replication R          replicas per table (default 2, capped to live members)\n  \
         --threads N              router worker threads\n  \
         --access-log             access log (with backend ids) on stderr\n  \
         --access-log-file PATH   append access-log lines to PATH instead of stderr\n  \
         --rate-limit N           per-client rate limit at the router edge\n  \
         --repair-interval SECS   self-healing replication cadence (default 0.5, 0 = off)\n  \
         --no-restart             report dead backends instead of restart-with-rejoin\n  \
         --demo                   preload the crime synthetic twin as table `crime`\n  \
         --data-dir PATH          per-backend durability: each shard logs to PATH/<id>\n  \
         --durability MODE        batch | async for every backend (default batch, fsync = batch)\n  \
         --snapshot-every N       per-backend snapshot cadence (default 256)\n  \
         --slow-ms MS             slow-query threshold for router and backends (default 250)\n\n\
         the fleet router also serves POST /admin/backends {{\"id\",\"addr\"}} and\n\
         DELETE /admin/backends/{{id}} to grow/shrink the ring at runtime."
    );
}

fn run_repl() {
    println!("Ziggy — characterizing query results for data explorers");
    println!("type `help` for commands, `demo crime` for a dataset.\n");
    let mut state = ReplState::new();
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    loop {
        print!("ziggy> ");
        let _ = stdout.flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF.
            Ok(_) => match state.handle(&line) {
                ReplAction::Continue(out) => {
                    if !out.is_empty() {
                        println!("{out}");
                    }
                }
                ReplAction::Quit => break,
            },
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
    }
}

fn run_serve(args: &[String]) {
    let mut addr = "127.0.0.1:8080".to_string();
    let mut options = ServeOptions::default();
    let mut demo = false;
    let mut port_file: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(a) => addr = a.clone(),
                None => die("--addr needs a value"),
            },
            "--threads" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => options.threads = n,
                _ => die("--threads needs a positive integer"),
            },
            "--demo" => demo = true,
            "--access-log" => options.access_log = true,
            "--access-log-file" => match it.next() {
                Some(p) => options.access_log_path = Some(std::path::PathBuf::from(p)),
                None => die("--access-log-file needs a path"),
            },
            "--rate-limit" => match it.next().and_then(|v| v.parse::<u32>().ok()) {
                Some(n) if n > 0 => options.rate_limit = Some(n),
                _ => die("--rate-limit needs a positive integer (requests/second)"),
            },
            "--session-ttl" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(0) => options.session_ttl = None,
                Some(secs) => options.session_ttl = Some(std::time::Duration::from_secs(secs)),
                None => die("--session-ttl needs a number of seconds (0 disables)"),
            },
            "--port-file" => match it.next() {
                Some(p) => port_file = Some(p.clone()),
                None => die("--port-file needs a path"),
            },
            "--data-dir" => match it.next() {
                Some(p) => options.data_dir = Some(std::path::PathBuf::from(p)),
                None => die("--data-dir needs a path"),
            },
            "--durability" => match it.next().map(|v| v.parse()) {
                Some(Ok(mode)) => options.durability = mode,
                _ => die("--durability needs one of: batch, async (fsync = batch)"),
            },
            "--snapshot-every" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) if n > 0 => options.snapshot_every = n,
                _ => die("--snapshot-every needs a positive integer"),
            },
            "--slow-ms" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(ms) if ms > 0 => options.slow_ms = ms,
                _ => die("--slow-ms needs a positive integer (milliseconds)"),
            },
            other => die(&format!("unknown serve option: {other}")),
        }
    }

    let server = match serve(&addr[..], options) {
        Ok(s) => s,
        Err(e) => die(&format!("cannot bind {addr}: {e}")),
    };
    if demo {
        preload_demo(server.state());
    }
    if let Some(path) = port_file {
        // The handshake the fleet supervisor (and tests) wait on; write
        // only after the listener is live so a reader can connect
        // immediately.
        if let Err(e) = std::fs::write(&path, server.local_addr().to_string()) {
            die(&format!("cannot write port file {path}: {e}"));
        }
    }
    println!("ziggy-serve listening on http://{}", server.local_addr());
    println!("endpoints: /healthz /metrics /tables /tables/{{name}}[/characterize] /sessions /sessions/{{id}}[/step] /debug/traces[/{{id}}]");
    // Serve until the process is terminated.
    loop {
        std::thread::park();
    }
}

fn preload_demo(state: &ziggy::serve::ServeState) {
    // Go through the CSV ingest path (not `insert_table`) so the demo
    // table gets provenance: it lands in the WAL under `--data-dir`,
    // exports via `/csv`, and is repairable. `replicate_csv` makes a
    // restart with both `--data-dir` and `--demo` idempotent — the
    // replayed copy fingerprints identically to the fresh render.
    let twin = ziggy::synth::us_crime(7);
    let csv = ziggy::store::csv::write_csv_string(&twin.table, ',');
    match state
        .registry
        .replicate_csv("crime", &csv, state.config.clone())
    {
        Ok((entry, _created)) => println!(
            "preloaded table `crime` ({} rows x {} cols); try: {}",
            entry.table().n_rows(),
            entry.table().n_cols(),
            twin.predicate
        ),
        Err(e) => eprintln!("demo preload failed: {e}"),
    }
}

fn run_fleet(args: &[String]) {
    let mut addr = "127.0.0.1:8080".to_string();
    let mut backends = 2usize;
    let mut options = FleetOptions::default();
    let mut demo = false;
    let mut restart = true;
    let mut data_dir: Option<std::path::PathBuf> = None;
    let mut durability: Option<String> = None;
    let mut snapshot_every: Option<u64> = None;
    let mut slow_ms: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(a) => addr = a.clone(),
                None => die("--addr needs a value"),
            },
            "--backends" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => backends = n,
                _ => die("--backends needs a positive integer"),
            },
            "--replication" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(r) if r > 0 => options.replication = r,
                _ => die("--replication needs a positive integer"),
            },
            "--threads" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => options.threads = n,
                _ => die("--threads needs a positive integer"),
            },
            "--access-log" => options.access_log = true,
            "--access-log-file" => match it.next() {
                Some(p) => options.access_log_path = Some(std::path::PathBuf::from(p)),
                None => die("--access-log-file needs a path"),
            },
            "--rate-limit" => match it.next().and_then(|v| v.parse::<u32>().ok()) {
                Some(n) if n > 0 => options.rate_limit = Some(n),
                _ => die("--rate-limit needs a positive integer (requests/second)"),
            },
            "--repair-interval" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(0.0) => options.repair_interval = None,
                Some(secs) if secs > 0.0 => {
                    options.repair_interval = Some(std::time::Duration::from_secs_f64(secs))
                }
                _ => die("--repair-interval needs a number of seconds (0 disables)"),
            },
            "--no-restart" => restart = false,
            "--demo" => demo = true,
            "--data-dir" => match it.next() {
                Some(p) => data_dir = Some(std::path::PathBuf::from(p)),
                None => die("--data-dir needs a path"),
            },
            "--durability" => match it.next() {
                Some(v) if v.parse::<ziggy::serve::DurabilityMode>().is_ok() => {
                    durability = Some(v.clone())
                }
                _ => die("--durability needs one of: batch, async (fsync = batch)"),
            },
            "--snapshot-every" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) if n > 0 => snapshot_every = Some(n),
                _ => die("--snapshot-every needs a positive integer"),
            },
            "--slow-ms" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(ms) if ms > 0 => {
                    options.slow_ms = ms;
                    slow_ms = Some(ms);
                }
                _ => die("--slow-ms needs a positive integer (milliseconds)"),
            },
            other => die(&format!("unknown fleet option: {other}")),
        }
    }

    // Each backend is this same binary running `serve` on an ephemeral
    // port; the --port-file handshake reports where it landed.
    let binary = match std::env::current_exe() {
        Ok(b) => b,
        Err(e) => die(&format!("cannot locate own binary: {e}")),
    };
    // Per-child serve args: with a data dir, each shard logs to its own
    // id-keyed subdirectory — which is what lets a *restarted* child
    // replay the dead incarnation's WAL instead of rejoining empty.
    let backend_args_for = move |id: &str| -> Vec<String> {
        let mut extra = Vec::new();
        if let Some(dir) = &data_dir {
            extra.push("--data-dir".to_string());
            extra.push(dir.join(id).to_string_lossy().into_owned());
            if let Some(mode) = &durability {
                extra.push("--durability".to_string());
                extra.push(mode.clone());
            }
            if let Some(n) = snapshot_every {
                extra.push("--snapshot-every".to_string());
                extra.push(n.to_string());
            }
        }
        // The slow-query threshold applies fleet-wide: the router's own
        // recorder (set above via options) and every spawned backend.
        if let Some(ms) = slow_ms {
            extra.push("--slow-ms".to_string());
            extra.push(ms.to_string());
        }
        extra
    };
    let mut children: Vec<BackendProcess> = Vec::with_capacity(backends);
    for i in 0..backends {
        let id = format!("shard-{i}");
        let extra = backend_args_for(&id);
        let extra_refs: Vec<&str> = extra.iter().map(String::as_str).collect();
        match BackendProcess::spawn(&binary, &id, &extra_refs) {
            Ok(child) => {
                println!(
                    "spawned backend {id} (pid {}) on {}",
                    child.pid(),
                    child.addr()
                );
                children.push(child);
            }
            Err(e) => die(&format!("cannot spawn backend {id}: {e}")),
        }
    }

    let backend_addrs: Vec<(String, std::net::SocketAddr)> = children
        .iter()
        .map(|c| (c.id().to_string(), c.addr()))
        .collect();
    let fleet = match start_fleet(&addr[..], backend_addrs, options) {
        Ok(f) => f,
        Err(e) => die(&format!("cannot bind {addr}: {e}")),
    };
    if demo {
        preload_fleet_demo(fleet.local_addr());
    }
    println!(
        "ziggy-fleet router on http://{} over {} backends (replication {})",
        fleet.local_addr(),
        children.len(),
        fleet.state().replication()
    );
    println!("same API as ziggy serve; /metrics and /tables aggregate all shards, /debug/traces/{{id}} assembles fleet-wide spans");
    println!("admin: POST /admin/backends {{\"id\",\"addr\"}} and DELETE /admin/backends/{{id}}");

    if restart {
        // Supervise with restart-with-rejoin: a dead child is respawned
        // under its old id on a fresh port, swapped into the ring (two
        // epoch bumps), and the repair loop re-ingests its shard from
        // the surviving replicas.
        loop {
            std::thread::sleep(std::time::Duration::from_secs(1));
            ziggy::fleet::restart_dead_children_with(
                &binary,
                &mut children,
                fleet.state(),
                &backend_args_for,
            );
        }
    } else {
        // Report-only supervision: the health prober routes around the
        // dead child and the repair loop restores replication on the
        // survivors, but the capacity stays lost until an operator acts.
        let mut reported = vec![false; children.len()];
        loop {
            std::thread::sleep(std::time::Duration::from_secs(1));
            for (child, reported) in children.iter_mut().zip(reported.iter_mut()) {
                if !*reported && !child.is_alive() {
                    *reported = true;
                    eprintln!(
                        "backend {} (pid {}) exited; traffic fails over to its replicas",
                        child.id(),
                        child.pid()
                    );
                }
            }
        }
    }
}

fn preload_fleet_demo(router: std::net::SocketAddr) {
    let twin = ziggy::synth::us_crime(7);
    let csv = ziggy::store::csv::write_csv_string(&twin.table, ',');
    let body = serde_json::to_string(&serde_json::Value::Object(vec![
        (
            "name".to_string(),
            serde_json::Value::String("crime".to_string()),
        ),
        ("csv".to_string(), serde_json::Value::String(csv)),
    ]))
    .expect("demo bodies always render");
    match ziggy::serve::http::request_once(router, "POST", "/tables", Some(&body)) {
        Ok((201, resp)) => println!("preloaded table `crime` across the fleet: {resp}"),
        Ok((status, resp)) => eprintln!("demo preload failed ({status}): {resp}"),
        Err(e) => eprintln!("demo preload failed: {e}"),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
