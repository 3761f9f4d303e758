//! End-to-end work-server equivalence: a `repro serve` coordinator feeding
//! two concurrent pull-based workers — with one lease claimed and abandoned
//! by a straggler mid-run — must produce artifacts **byte-identical** to a
//! direct single-process run.
//!
//! This is the distributed counterpart of `tests/shard_equivalence.rs`:
//! per-trial RNG derivation makes every trial's bits a pure function of
//! `(experiment, algorithm, n, trial)`, so no amount of lease re-issue,
//! duplicate execution or worker loss may change a single byte of the
//! merged report.

use contention_experiments::cli;
use contention_experiments::figures::sharding::find_shardable;
use contention_experiments::figures::shared::SweepHooks;
use contention_experiments::jsonin::Json;
use contention_experiments::options::Options;
use contention_experiments::server::{http_request, Server};
use contention_experiments::shard::ShardState;
use contention_experiments::worker::run_worker;
use contention_sim::engine::TrialRange;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-workserver-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every report artifact in `dir` (CSV + JSON), excluding the server's own
/// sidecar state (metrics.json, checkpoints/), keyed by file name.
fn artifacts(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().to_string_lossy().into_owned();
        if entry.file_type().unwrap().is_dir() || name == "metrics.json" {
            continue;
        }
        files.insert(name, std::fs::read(entry.path()).unwrap());
    }
    files
}

#[test]
fn two_workers_and_an_abandoned_lease_reproduce_the_direct_run_byte_for_byte() {
    let direct_dir = scratch("direct");
    let serve_dir = scratch("serve");

    // The reference: a plain single-process run writing CSV + JSON.
    let direct_args: Vec<String> = [
        "fig5",
        "--trials",
        "2",
        "--out",
        direct_dir.to_str().unwrap(),
        "--json",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    assert_eq!(cli::run(&direct_args), ExitCode::SUCCESS);
    let direct = artifacts(&direct_dir);
    assert!(!direct.is_empty(), "direct run wrote no artifacts");

    // The coordinator: ephemeral port, 1 s lease TTL so the abandoned
    // lease re-issues within the test's patience, a few-second linger so
    // the straggler's late requests still get answered.
    let serve_opts = Options {
        inputs: vec!["fig5".to_string()],
        trials: Some(2),
        out_dir: Some(serve_dir.clone()),
        json: true,
        port: Some(0),
        lease_secs: Some(1),
        leases: Some(4),
        linger_secs: Some(5),
        ..Options::default()
    };
    let server = Server::start(&serve_opts).expect("server binds");
    let addr = format!("127.0.0.1:{}", server.local_addr().port());
    let server_thread = std::thread::spawn(move || server.run());

    // The straggler: claims a lease and sits on it. The coordinator must
    // re-issue it after the TTL, and the run must complete without this
    // worker ever delivering.
    let (status, claimed) = http_request(&addr, "GET", "/lease", None).expect("claim");
    assert_eq!(status, 200);
    assert!(
        claimed.contains("\"status\":\"lease\""),
        "first claim should win a lease: {claimed}"
    );

    // Two honest workers drain the sweep (including the re-issued lease).
    let worker_threads: Vec<_> = (0..2)
        .map(|_| {
            let opts = Options {
                connect: Some(addr.clone()),
                threads: Some(2),
                ..Options::default()
            };
            std::thread::spawn(move || run_worker(&opts))
        })
        .collect();
    for t in worker_threads {
        t.join().unwrap().expect("worker completes cleanly");
    }

    // Live metrics survive completion and report the sweep finished.
    let (status, metrics) = http_request(&addr, "GET", "/metrics", None).expect("metrics");
    assert_eq!(status, 200);
    assert!(metrics.contains("sweep_metrics/v2"), "{metrics}");
    assert!(metrics.contains("\"finished\": true"), "{metrics}");
    assert!(
        !metrics.contains("NaN") && !metrics.contains("inf"),
        "{metrics}"
    );

    // The straggler finally runs its stale lease and posts the result after
    // the sweep completed: the coordinator just says `done` — duplicate
    // work is discarded, never folded twice.
    let lease = Json::parse(&claimed).unwrap();
    let id = lease.field("id").unwrap().as_u32().unwrap();
    let plan: Vec<TrialRange> = lease
        .field("work")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|range| {
            let triple = range.as_array().unwrap();
            TrialRange {
                cell: triple[0].as_u32().unwrap() as usize,
                lo: triple[1].as_u32().unwrap(),
                hi: triple[2].as_u32().unwrap(),
            }
        })
        .collect();
    let entry = find_shardable("fig5").unwrap();
    let run_opts = Options {
        trials: Some(2),
        threads: Some(2),
        ..Options::default()
    };
    let grid = (entry.grid)(&run_opts);
    let hooks = SweepHooks {
        plan: Some(&plan),
        ..SweepHooks::default()
    };
    let cells = (entry.cells)(&run_opts, &hooks);
    let artifact = ShardState::from_cells("fig5", false, (0, 1), &grid, &cells).to_json();
    let (status, reply) =
        http_request(&addr, "POST", &format!("/result/{id}"), Some(&artifact)).expect("late post");
    assert_eq!(status, 200);
    assert!(
        reply.contains("done"),
        "late duplicate must be a no-op: {reply}"
    );

    server_thread
        .join()
        .unwrap()
        .expect("server finalizes cleanly");

    // The contract: byte-identical artifacts, whatever the execution shape.
    let served = artifacts(&serve_dir);
    assert_eq!(
        direct.keys().collect::<Vec<_>>(),
        served.keys().collect::<Vec<_>>(),
        "artifact sets differ"
    );
    for (name, bytes) in &direct {
        assert_eq!(
            bytes, &served[name],
            "{name} differs between direct and distributed runs"
        );
    }

    // A resume of the completed out-dir is a clean no-op serve: everything
    // is recorded, so the server starts complete.
    let resume_opts = Options {
        linger_secs: Some(0),
        ..serve_opts.clone()
    };
    let server = Server::start(&resume_opts).expect("re-serve binds");
    server
        .run()
        .expect("a complete sweep finalizes immediately");

    let _ = std::fs::remove_dir_all(&direct_dir);
    let _ = std::fs::remove_dir_all(&serve_dir);
}

/// A worker pointed at a dead address fails fast with a clear error rather
/// than looping forever.
#[test]
fn worker_without_a_coordinator_reports_the_address() {
    let opts = Options {
        // A port from the ephemeral range nothing in this test binds.
        connect: Some("127.0.0.1:1".to_string()),
        ..Options::default()
    };
    let err = run_worker(&opts).unwrap_err();
    assert!(err.contains("127.0.0.1:1"), "{err}");
}

/// The lease TTL really does re-issue: with every lease claimed and
/// abandoned, a later claim still gets work (under a fresh id).
#[test]
fn abandoned_leases_are_reissued_after_the_ttl() {
    let dir = scratch("reissue");
    let opts = Options {
        inputs: vec!["fig5".to_string()],
        trials: Some(2),
        out_dir: Some(dir.clone()),
        port: Some(0),
        lease_secs: Some(1),
        leases: Some(2),
        linger_secs: Some(0),
        ..Options::default()
    };
    let server = Server::start(&opts).expect("server binds");
    let addr = format!("127.0.0.1:{}", server.local_addr().port());
    let handle = std::thread::spawn(move || server.run());

    // Drain both leases and abandon them.
    let mut abandoned = Vec::new();
    for _ in 0..2 {
        let (_, body) = http_request(&addr, "GET", "/lease", None).expect("claim");
        assert!(body.contains("\"status\":\"lease\""), "{body}");
        abandoned.push(body);
    }
    let (_, body) = http_request(&addr, "GET", "/lease", None).expect("drained");
    assert!(body.contains("\"status\":\"wait\""), "{body}");

    // After the TTL the same work comes back under a fresh id.
    std::thread::sleep(Duration::from_millis(1500));
    let (_, body) = http_request(&addr, "GET", "/lease", None).expect("reissue");
    assert!(body.contains("\"status\":\"lease\""), "{body}");
    let old_id = Json::parse(&abandoned[0])
        .unwrap()
        .field("id")
        .unwrap()
        .as_u32()
        .unwrap();
    let new_id = Json::parse(&body)
        .unwrap()
        .field("id")
        .unwrap()
        .as_u32()
        .unwrap();
    assert!(new_id > old_id, "re-issue must mint a fresh id");

    // One honest worker finishes the whole sweep regardless.
    let worker_opts = Options {
        connect: Some(addr.clone()),
        threads: Some(2),
        ..Options::default()
    };
    run_worker(&worker_opts).expect("worker drains the sweep");
    handle.join().unwrap().expect("server finalizes");
    let _ = std::fs::remove_dir_all(&dir);
}
