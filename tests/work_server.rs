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
use contention_experiments::server::{http_request, Server, MAX_BODY_BYTES};
use contention_experiments::shard::ShardState;
use contention_experiments::worker::run_worker;
use contention_sim::engine::TrialRange;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::thread::JoinHandle;
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

/// Sends `request` as raw bytes, shuts the write half, and returns the
/// response's status code. Shutting the write half is what lets a request
/// that ends early (a body shorter than its `Content-Length`) be answered
/// at once instead of after the socket timeout. Write errors are ignored:
/// a coordinator that refuses a request early closes the socket before the
/// client has sent all of it.
fn raw_status(addr: &str, request: &[u8]) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let _ = stream.write_all(request);
    let _ = stream.shutdown(Shutdown::Write);
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    let text = String::from_utf8_lossy(&response);
    text.split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {text:?}"))
}

/// Starts a fig5 coordinator, has it answer `request` with `expected`, and
/// then requires the same coordinator to hand out a lease and finish the
/// sweep with one worker.
fn refuses_then_keeps_leasing(tag: &str, request: &[u8], expected: u16) {
    let dir = scratch(tag);
    let (addr, handle) = spawn_fig5_server(&dir);

    assert_eq!(raw_status(&addr, request), expected, "{tag}");
    let (status, body) = http_request(&addr, "GET", "/lease", None).expect("claim");
    assert_eq!(status, 200, "{tag}");
    assert!(body.contains("\"status\":\"lease\""), "{tag}: {body}");

    // The claimed lease is abandoned; it re-issues after the 1 s TTL.
    drain(addr);
    handle.join().unwrap().expect("server finalizes");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Starts the `serve_fig5` coordinator over `dir` on its own thread; returns
/// its address and the thread, which ends once the sweep is reported.
fn spawn_fig5_server(dir: &Path) -> (String, JoinHandle<Result<(), String>>) {
    let server = Server::start(&serve_fig5(dir)).expect("server binds");
    let addr = format!("127.0.0.1:{}", server.local_addr().port());
    (addr, std::thread::spawn(move || server.run()))
}

/// One honest worker pulls leases from `addr` until the sweep is done.
fn drain(addr: String) {
    let worker_opts = Options {
        connect: Some(addr),
        threads: Some(2),
        ..Options::default()
    };
    run_worker(&worker_opts).expect("an honest worker drains the sweep");
}

/// A body one byte over the cap is refused with 413 from its headers
/// alone; the coordinator never waits for the body.
#[test]
fn over_cap_body_gets_413() {
    let request = format!(
        "POST /result/0 HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        MAX_BODY_BYTES + 1
    );
    refuses_then_keeps_leasing("body-cap", request.as_bytes(), 413);
}

/// A 1 MiB header line is refused with 431 once the head passes its cap,
/// rather than buffered whole and served.
#[test]
fn oversized_request_head_gets_431() {
    let mut request = b"GET /lease HTTP/1.1\r\nX-Pad: ".to_vec();
    request.resize(request.len() + (1 << 20), b'a');
    request.extend_from_slice(b"\r\n\r\n");
    refuses_then_keeps_leasing("head-cap", &request, 431);
}

/// Malformed requests each get a clean status, and the coordinator that
/// answered one still leases and finishes the sweep:
///
/// * a body shorter than its `Content-Length` → 400 (`cannot read body`);
/// * the request line `GET` alone → 400 (`malformed request line`);
/// * `GET /nope` → 404 (`no route`);
/// * `POST /result/abc` → 400 (`bad lease id in path`);
/// * an artifact body that does not parse → 400 (`unparseable artifact`).
///
/// A POST for an unknown or expired lease id is no error: it is folded and
/// deduplicated like any result (`a_rejected_post_folds_nothing` posts
/// under an id no lease has).
#[test]
fn malformed_requests_get_clean_statuses_and_the_coordinator_keeps_leasing() {
    for (tag, request, expected) in [
        (
            "short-body",
            &b"POST /result/0 HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"schema\""[..],
            400,
        ),
        ("bare-method", b"GET\r\n", 400),
        ("no-route", b"GET /nope HTTP/1.1\r\n\r\n", 404),
        (
            "bad-id",
            b"POST /result/abc HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
            400,
        ),
        (
            "bad-artifact",
            b"POST /result/0 HTTP/1.1\r\nContent-Length: 8\r\n\r\nnot json",
            400,
        ),
    ] {
        refuses_then_keeps_leasing(tag, request, expected);
    }
}

/// `repro <args> --out <out>` through the CLI entry point.
fn repro_into(args: &[&str], out: &Path) -> ExitCode {
    let mut args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    args.extend(["--out".to_string(), out.to_str().unwrap().to_string()]);
    cli::run(&args)
}

/// A plain `repro fig5 --trials 2 --json` run into `dir`: the artifacts
/// every served fig5 sweep below must reproduce.
fn direct_fig5(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let status = repro_into(&["fig5", "--trials", "2", "--json"], dir);
    assert_eq!(status, ExitCode::SUCCESS);
    artifacts(dir)
}

/// A fig5 `--trials 2` coordinator into `dir` on an ephemeral port, with a
/// 1 s lease TTL and no linger.
fn serve_fig5(dir: &Path) -> Options {
    Options {
        inputs: vec!["fig5".to_string()],
        trials: Some(2),
        out_dir: Some(dir.to_path_buf()),
        json: true,
        port: Some(0),
        lease_secs: Some(1),
        leases: Some(2),
        linger_secs: Some(0),
        ..Options::default()
    }
}

/// The honest artifact of `plan` over the fig5 `--trials 2` grid.
fn fig5_state(plan: &[TrialRange]) -> ShardState {
    let entry = find_shardable("fig5").unwrap();
    let opts = Options {
        trials: Some(2),
        threads: Some(2),
        ..Options::default()
    };
    let hooks = SweepHooks {
        plan: Some(plan),
        ..SweepHooks::default()
    };
    let cells = (entry.cells)(&opts, &hooks);
    ShardState::from_cells("fig5", false, (0, 1), &(entry.grid)(&opts), &cells)
}

/// A POST the coordinator rejects folds nothing. The second artifact below
/// holds a fresh but wrong trial of cell 0 ahead of a trial of cell 1 that
/// conflicts with the one already folded: the coordinator answers 409, and
/// the wrong trial must not stay in the master state, or it would refuse
/// every honest worker that later delivers cell 0.
#[test]
fn a_rejected_post_folds_nothing() {
    let direct_dir = scratch("reject-direct");
    let direct = direct_fig5(&direct_dir);
    let dir = scratch("reject-serve");
    let (addr, handle) = spawn_fig5_server(&dir);

    let trial0 = |cell| TrialRange { cell, lo: 0, hi: 1 };
    let honest = fig5_state(&[trial0(1)]).to_json();
    let (status, reply) = http_request(&addr, "POST", "/result/99", Some(&honest)).expect("post");
    assert_eq!(status, 200, "{reply}");

    let mut wrong = fig5_state(&[trial0(0), trial0(1)]);
    for cell in &mut wrong.cells {
        cell.samples[0][0] += 1.0;
    }
    let (status, reply) =
        http_request(&addr, "POST", "/result/99", Some(&wrong.to_json())).expect("post");
    assert_eq!(status, 409, "{reply}");
    assert!(reply.contains("conflicting"), "{reply}");

    drain(addr);
    handle.join().unwrap().expect("server finalizes");
    assert_eq!(artifacts(&dir), direct, "the rejected POST left a trace");
    for dir in [dir, direct_dir] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A coordinator whose out-dir holds a checkpoint of another grid (3
/// trials a cell, where it serves 2) warns, starts fresh, and still writes
/// the direct run's artifacts.
#[test]
fn serve_over_a_checkpoint_of_another_grid_starts_fresh() {
    let direct_dir = scratch("stale-direct");
    let direct = direct_fig5(&direct_dir);
    let dir = scratch("stale-serve");
    let status = repro_into(&["fig5", "--trials", "3", "--checkpoint-trials", "1"], &dir);
    assert_eq!(status, ExitCode::SUCCESS);

    let (addr, handle) = spawn_fig5_server(&dir);
    drain(addr);
    handle.join().unwrap().expect("server finalizes");
    assert_eq!(artifacts(&dir), direct);
    for dir in [dir, direct_dir] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}
