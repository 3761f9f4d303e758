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
//!
//! The coordinators here run with a lease TTL of `TTL` — and so a socket
//! timeout of `TTL` — so that a re-issue or a stalled request costs a
//! fraction of a second.

use contention_experiments::checkpoint::{
    checkpoint_file_name, load_latest, missing_work, CHECKPOINT_DIR, METRICS_FILE,
};
use contention_experiments::cli;
use contention_experiments::figures::sharding::find_shardable;
use contention_experiments::figures::shared::SweepHooks;
use contention_experiments::jsonin::Json;
use contention_experiments::options::Options;
use contention_experiments::server::{http_request, Limits, Server};
use contention_experiments::shard::ShardState;
use contention_experiments::worker::run_worker;
use contention_sim::engine::TrialRange;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, ErrorKind, Lines, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, ExitCode, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The lease TTL of the coordinators below: ample for a loopback exchange,
/// short enough that waiting one out is cheap.
const TTL: Duration = Duration::from_millis(300);

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
    let direct = direct_fig5(&direct_dir);
    assert!(!direct.is_empty(), "direct run wrote no artifacts");

    // The coordinator: ephemeral port, a lease TTL short enough that the
    // abandoned lease re-issues within the test's patience, a linger long
    // enough that the straggler's late requests still get answered. The
    // TTL, and so the socket timeout, outlasts the linger: the flood below
    // holds its handler slots until after the linger has run out.
    let serve_opts = Options {
        lease_ttl: Some(Duration::from_millis(1500)),
        leases: Some(4),
        linger: Some(Duration::from_secs(1)),
        ..serve_fig5(&serve_dir)
    };
    let limits = Limits::of(&serve_opts);
    let (addr, server_thread) = spawn_server(&serve_opts);

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
            let addr = addr.clone();
            std::thread::spawn(move || drain(addr))
        })
        .collect();
    for t in worker_threads {
        t.join().unwrap();
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
    let (id, plan) = lease_of(&claimed);
    let artifact = fig5_state(&plan).to_json();
    let (status, reply) =
        http_request(&addr, "POST", &format!("/result/{id}"), Some(&artifact)).expect("late post");
    assert_eq!(status, 200);
    assert!(
        reply.contains("done"),
        "late duplicate must be a no-op: {reply}"
    );

    // The linger clock runs while a flood holds every handler slot: the
    // coordinator exits on schedule, before any flooded connection has
    // been answered.
    let flood: Vec<TcpStream> = (0..limits.max_handlers + 8)
        .map(|_| TcpStream::connect(&addr).unwrap())
        .collect();
    server_thread
        .join()
        .unwrap()
        .expect("server finalizes cleanly");
    flood[0].set_nonblocking(true).unwrap();
    let unanswered = flood[0].peek(&mut [0]);
    assert!(
        matches!(&unanswered, Err(e) if e.kind() == ErrorKind::WouldBlock),
        "the linger waited for a flooded connection: {unanswered:?}"
    );

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
        linger: Some(Duration::ZERO),
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
    let (addr, handle) = spawn_server(&serve_fig5(&dir));

    // Drain both leases and abandon them.
    let abandoned: Vec<String> = (0..2).map(|_| claim(&addr)).collect();
    let (_, body) = http_request(&addr, "GET", "/lease", None).expect("drained");
    assert!(body.contains("\"status\":\"wait\""), "{body}");

    // Both were issued before the `wait` above, so a TTL from now both have
    // expired, and the same work comes back under a fresh id.
    std::thread::sleep(TTL);
    let body = claim(&addr);
    let (old_id, _) = lease_of(&abandoned[0]);
    let (new_id, _) = lease_of(&body);
    assert!(new_id > old_id, "re-issue must mint a fresh id");

    // The re-issued lease is delivered, and one honest worker finishes the
    // whole sweep regardless.
    deliver(&addr, &body);
    drain(addr);
    handle.join().unwrap().expect("server finalizes");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A coordinator answers a request as soon as it arrives: with every lease
/// claimed, 40 back-to-back claims are each answered `wait` in well under
/// the time 40 turns of a 10 ms accept poll would take. The lease TTL is
/// long enough that no claimed lease expires meanwhile.
#[test]
fn an_exchange_pays_no_poll() {
    let dir = scratch("no-poll");
    let opts = Options {
        lease_ttl: Some(Duration::from_secs(60)),
        ..serve_fig5(&dir)
    };
    let (addr, handle) = spawn_server(&opts);
    let leases = [claim(&addr), claim(&addr)];

    let started = Instant::now();
    for _ in 0..40 {
        let (status, body) = http_request(&addr, "GET", "/lease", None).expect("claim");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"status\":\"wait\""), "{body}");
    }
    let took = started.elapsed();
    assert!(
        took < Duration::from_millis(400),
        "40 exchanges took {took:?}"
    );

    for lease in &leases {
        deliver(&addr, lease);
    }
    handle.join().unwrap().expect("server finalizes");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sends `request` as raw bytes, shuts the write half, and returns the
/// response's status and text. Shutting the write half is what lets a
/// request that ends early (a body shorter than its `Content-Length`) be
/// answered at once instead of after the socket timeout. Write errors are
/// ignored: a coordinator that refuses a request early closes the socket
/// before the client has sent all of it.
fn raw_request(addr: &str, request: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let _ = stream.write_all(request);
    let _ = stream.shutdown(Shutdown::Write);
    response_of(stream)
}

/// Reads the coordinator's answer on `stream` to its end: the status and
/// the whole response text.
fn response_of(mut stream: TcpStream) -> (u16, String) {
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    let text = String::from_utf8_lossy(&response).into_owned();
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {text:?}"));
    (status, text)
}

/// Starts a coordinator with `opts` on its own thread; returns its address
/// and the thread, which ends once the sweep is reported.
fn spawn_server(opts: &Options) -> (String, JoinHandle<Result<(), String>>) {
    let (addr, _, handle) = spawn_server_with_limits(opts);
    (addr, handle)
}

/// [`spawn_server`], also returning the limits the coordinator serves under
/// (its body cap follows its sweep, so only the coordinator knows it).
fn spawn_server_with_limits(opts: &Options) -> (String, Limits, JoinHandle<Result<(), String>>) {
    let server = Server::start(opts).expect("server binds");
    let addr = format!("127.0.0.1:{}", server.local_addr().port());
    let limits = server.limits();
    (addr, limits, std::thread::spawn(move || server.run()))
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

/// Claims a lease from `addr`; returns the response body.
fn claim(addr: &str) -> String {
    let (status, body) = http_request(addr, "GET", "/lease", None).expect("claim");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"lease\""), "{body}");
    body
}

/// The id and ranges of a `/lease` response body.
fn lease_of(body: &str) -> (u32, Vec<TrialRange>) {
    let lease = Json::parse(body).unwrap();
    let plan = lease
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
    (lease.field("id").unwrap().as_u32().unwrap(), plan)
}

/// POSTs the honest results of the lease in `body` to `addr`; returns the
/// coordinator's reply.
fn deliver(addr: &str, body: &str) -> String {
    let (id, plan) = lease_of(body);
    let artifact = fig5_state(&plan).to_json();
    let (status, reply) =
        http_request(addr, "POST", &format!("/result/{id}"), Some(&artifact)).expect("post");
    assert_eq!(status, 200, "{reply}");
    reply
}

/// A raw request, the status a coordinator under `Limits` must answer it
/// with, and a message the answer must contain.
type Fault = (Vec<u8>, u16, String);

/// A body one byte over the coordinator's cap, which it derives from its
/// sweep: refused with 413 from its headers alone, so the coordinator never
/// waits for the body.
fn over_cap_body(limits: &Limits) -> Fault {
    let request = format!(
        "POST /result/0 HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        limits.max_body_bytes + 1
    );
    let message = format!("exceeds the {}-byte cap", limits.max_body_bytes);
    (request.into_bytes(), 413, message)
}

/// A 1 MiB header line: refused with 431 once the head passes its cap,
/// rather than buffered whole and served.
fn oversized_head(limits: &Limits) -> Fault {
    let mut request = b"GET /lease HTTP/1.1\r\nX-Pad: ".to_vec();
    request.resize(request.len() + (1 << 20), b'a');
    request.extend_from_slice(b"\r\n\r\n");
    let message = format!(
        "request head exceeds the {}-byte cap",
        limits.max_head_bytes
    );
    (request, 431, message)
}

/// Starts a fig5 coordinator of its own, has it answer `fault`, and then
/// requires the same coordinator to lease and finish the sweep.
fn refuses_then_keeps_leasing(tag: &str, fault: fn(&Limits) -> Fault) {
    let dir = scratch(tag);
    let (addr, limits, handle) = spawn_server_with_limits(&serve_fig5(&dir));
    let (request, expected, message) = fault(&limits);

    let (status, text) = raw_request(&addr, &request);
    assert_eq!(status, expected, "{message}: {text}");
    assert!(text.contains(&message), "{message}: {text}");
    deliver(&addr, &claim(&addr));

    drain(addr);
    handle.join().unwrap().expect("server finalizes");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn over_cap_body_gets_413() {
    refuses_then_keeps_leasing("body-cap", over_cap_body);
}

#[test]
fn oversized_request_head_gets_431() {
    refuses_then_keeps_leasing("head-cap", oversized_head);
}

/// One fig5 coordinator meets every request-level fault. Each gets a clean
/// status, and a claim after each one still wins a lease:
///
/// * a body shorter than its `Content-Length` → 400 (`cannot read body`);
/// * the request line `GET` alone → 400 (`malformed request line`);
/// * `GET /nope` → 404 (`no route`);
/// * `POST /result/abc` → 400 (`bad lease id in path`);
/// * an artifact body that does not parse → 400 (`unparseable artifact`);
/// * an artifact of another sweep whose cells are off its own grid → 409
///   (`does not match`): its header is checked before any cell is read;
/// * a `Content-Length` that is not a number → 400 (`bad content-length`);
/// * two `Content-Length` headers → 400 (`repeated content-length`);
/// * a body one byte over the cap → 413, from its headers alone;
/// * a 1 MiB header line → 431 once the head passes its cap;
/// * a body that stalls past the socket timeout → 400 naming the timeout;
/// * more open connections than the handler cap → the excess waits in the
///   listen backlog, and a claim behind it is served within about one
///   socket timeout.
///
/// No answered case holds its handler slot, and the coordinator then
/// drains to the direct run's artifacts. A POST for an unknown or expired
/// lease id is no error: it is folded and deduplicated like any result
/// (`a_rejected_post_folds_nothing` posts under an id no lease has).
#[test]
fn malformed_requests_get_clean_statuses_and_the_coordinator_keeps_leasing() {
    let direct_dir = scratch("faults-direct");
    let direct = direct_fig5(&direct_dir);
    let dir = scratch("faults-serve");
    // One lease per claim below, and one for the final drain.
    let opts = Options {
        leases: Some(13),
        ..serve_fig5(&dir)
    };
    let (addr, limits, handle) = spawn_server_with_limits(&opts);

    let (over_cap, body_status, body_cap) = over_cap_body(&limits);
    let (huge_head, head_status, head_cap) = oversized_head(&limits);
    let foreign = foreign_post();
    let cases: [(&[u8], u16, &str); 10] = [
        (
            b"POST /result/0 HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"schema\"",
            400,
            "cannot read body",
        ),
        (b"GET\r\n", 400, "malformed request line"),
        (b"GET /nope HTTP/1.1\r\n\r\n", 404, "no route"),
        (
            b"POST /result/abc HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
            400,
            "bad lease id in path",
        ),
        (
            b"POST /result/0 HTTP/1.1\r\nContent-Length: 8\r\n\r\nnot json",
            400,
            "unparseable artifact",
        ),
        (&foreign, 409, "does not match"),
        (
            b"GET /lease HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
            400,
            "bad content-length",
        ),
        (
            b"GET /lease HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 0\r\n\r\n",
            400,
            "repeated content-length",
        ),
        (&over_cap, body_status, &body_cap),
        (&huge_head, head_status, &head_cap),
    ];
    // The cases run side by side, each followed by a claim of its own.
    std::thread::scope(|s| {
        for (request, expected, message) in cases {
            let addr = &addr;
            s.spawn(move || {
                let (status, text) = raw_request(addr, request);
                assert_eq!(status, expected, "{message}: {text}");
                assert!(text.contains(message), "{message}: {text}");
                deliver(addr, &claim(addr));
            });
        }
    });

    // Hold all but one handler slot: a body that stops after 10 of its 100
    // bytes, and idle connections. The free slot serves a claim before any
    // held connection times out, so no case above kept its slot.
    let held_since = Instant::now();
    let mut stalled = TcpStream::connect(&addr).unwrap();
    stalled
        .write_all(b"POST /result/0 HTTP/1.1\r\nContent-Length: 100\r\n\r\n0123456789")
        .unwrap();
    let mut held: Vec<TcpStream> = (2..limits.max_handlers)
        .map(|_| TcpStream::connect(&addr).unwrap())
        .collect();
    let lease = claim(&addr);
    assert!(
        held_since.elapsed() < limits.socket_timeout,
        "a claim with a slot free waited for a held connection to time out"
    );
    deliver(&addr, &lease);

    // Past the cap, connections wait in the listen backlog: a claim behind
    // them is served once the held connections time out, and not before.
    held.extend((0..8).map(|_| TcpStream::connect(&addr).unwrap()));
    let lease = claim(&addr);
    let waited = held_since.elapsed();
    assert!(waited >= limits.socket_timeout, "{waited:?}");
    assert!(
        waited < limits.socket_timeout + Duration::from_secs(1),
        "{waited:?}"
    );
    let (status, text) = response_of(stalled);
    assert_eq!(status, 400, "{text}");
    // Below 30 s, the lease TTL is the socket timeout.
    let timeout = format!("body stalled past the {TTL:?} socket timeout");
    assert!(text.contains(&timeout), "{text}");
    drop(held);
    deliver(&addr, &lease);

    drain(addr);
    handle.join().unwrap().expect("server finalizes");
    assert_eq!(artifacts(&dir), direct);
    for dir in [dir, direct_dir] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A POST of a fig3 artifact whose one cell lies off fig3's own grid: a
/// fig5 coordinator refuses it by its header, as another sweep's.
fn foreign_post() -> Vec<u8> {
    let opts = Options {
        trials: Some(2),
        ..Options::default()
    };
    let grid = (find_shardable("fig3").unwrap().grid)(&opts);
    let stray = "\"cells\": [\n    {\"algorithm\": \"beb\", \"n\": 999, \"samples\": []}\n  ]";
    let body = ShardState::from_cells("fig3", false, (0, 1), &grid, &[])
        .to_json()
        .replace("\"cells\": [\n  ]", stray);
    assert!(body.contains("999"), "{body}");
    let head = format!(
        "POST /result/0 HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    (head + &body).into_bytes()
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
/// `TTL` lease TTL and no linger.
fn serve_fig5(dir: &Path) -> Options {
    Options {
        inputs: vec!["fig5".to_string()],
        trials: Some(2),
        out_dir: Some(dir.to_path_buf()),
        json: true,
        port: Some(0),
        lease_ttl: Some(TTL),
        leases: Some(2),
        linger: Some(Duration::ZERO),
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
    let (addr, handle) = spawn_server(&serve_fig5(&dir));

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

    let (addr, handle) = spawn_server(&serve_fig5(&dir));
    drain(addr);
    handle.join().unwrap().expect("server finalizes");
    assert_eq!(artifacts(&dir), direct);
    for dir in [dir, direct_dir] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A `repro serve fig5 --trials 2` process, killed when dropped (a no-op
/// once it has exited).
struct ServeProcess {
    child: Child,
    stdout: Lines<BufReader<ChildStdout>>,
}

impl ServeProcess {
    /// Starts the process over `dir` with `stderr`; returns it, the address
    /// it listens on, and its stdout up to its `[serve] limits:` line.
    fn start(dir: &Path, stderr: Stdio) -> (ServeProcess, String, Vec<String>) {
        let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["serve", "fig5", "--trials", "2", "--leases", "2"])
            .args(["--port", "0", "--linger-secs", "0", "--json", "--out"])
            .arg(dir)
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .expect("spawn repro serve");
        let stdout = BufReader::new(child.stdout.take().unwrap()).lines();
        let mut serve = ServeProcess { child, stdout };
        let mut head: Vec<String> = Vec::new();
        while !head.iter().any(|l| l.starts_with("[serve] limits: ")) {
            head.push(serve.stdout.next().expect("serve exited").unwrap());
        }
        let port = head
            .iter()
            .find_map(|l| l.strip_prefix("[serve] fig5 on "))
            .and_then(|rest| rest.split(':').nth(1))
            .expect("the coordinator announces its address");
        let addr = format!("127.0.0.1:{port}");
        (serve, addr, head)
    }
}

impl Drop for ServeProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A coordinator killed between a checkpoint's `*.tmp` write and its
/// rename, then restarted on the same out-dir, resumes from the last
/// renamed checkpoint (seq 0): the staged seq 1 artifact is invisible to
/// it, and its own writes replace it. It then drains to the direct run's
/// artifacts.
#[test]
fn a_coordinator_killed_between_a_checkpoint_write_and_its_rename_resumes_from_the_last_one() {
    let direct_dir = scratch("killed-direct");
    let direct = direct_fig5(&direct_dir);
    let dir = scratch("killed-serve");

    // First life: one folded trial, so checkpoint seq 0 exists; then death
    // mid-way through writing seq 1.
    let (first, addr, _) = ServeProcess::start(&dir, Stdio::inherit());
    let trial = fig5_state(&[TrialRange {
        cell: 0,
        lo: 0,
        hi: 1,
    }]);
    let (status, reply) =
        http_request(&addr, "POST", "/result/0", Some(&trial.to_json())).expect("post");
    assert_eq!(status, 200, "{reply}");
    drop(first);
    let ckpt = dir.join(CHECKPOINT_DIR);
    let seq0 = std::fs::read(ckpt.join(checkpoint_file_name("fig5", 0))).unwrap();
    let staged = ckpt.join(format!("{}.tmp", checkpoint_file_name("fig5", 1)));
    std::fs::write(staged, &seq0[..seq0.len() / 2]).unwrap();

    // Second life: resumes from seq 0 and finishes the sweep.
    let (mut second, addr, head) = ServeProcess::start(&dir, Stdio::inherit());
    let resumed = "[serve] resuming from checkpoint seq 0 (1 trials recorded)";
    assert!(head.iter().any(|l| l == resumed), "{head:?}");
    drain(addr);
    let rest: Vec<String> = second.stdout.by_ref().map(Result::unwrap).collect();
    assert!(second.child.wait().unwrap().success(), "{rest:?}");
    assert_eq!(artifacts(&dir), direct);
    for entry in std::fs::read_dir(&ckpt).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        assert!(!name.ends_with(".tmp"), "{name} was left behind");
    }
    for dir in [dir, direct_dir] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A coordinator killed before its first checkpoint leaves an empty
/// `checkpoints/` behind. Restarted on that out-dir, it has nothing to
/// resume, so it starts fresh without a warning, and one worker drains it
/// to the direct run's artifacts.
#[test]
fn a_coordinator_restarted_over_an_empty_checkpoint_dir_starts_fresh_without_a_warning() {
    let direct_dir = scratch("empty-ckpt-direct");
    let direct = direct_fig5(&direct_dir);
    let dir = scratch("empty-ckpt-serve");
    std::fs::create_dir(dir.join(CHECKPOINT_DIR)).unwrap();
    let (mut serve, addr, head) = ServeProcess::start(&dir, Stdio::piped());
    assert!(!head.iter().any(|l| l.contains("resuming")), "{head:?}");
    drain(addr);
    let rest: Vec<String> = serve.stdout.by_ref().map(Result::unwrap).collect();
    assert!(serve.child.wait().unwrap().success(), "{rest:?}");
    let mut stderr = String::new();
    let mut pipe = serve.child.stderr.take().unwrap();
    pipe.read_to_string(&mut stderr).unwrap();
    assert!(!stderr.contains("cannot resume"), "{stderr}");
    assert_eq!(artifacts(&dir), direct);
    for dir in [dir, direct_dir] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A `repro serve --linger-secs 0` process leaves as soon as the sweep is
/// reported, but answers the POST that completed it first. Leaving before
/// that reply is written is a race, so 20 rounds pin the contract rather
/// than reliably catch a coordinator that breaks it.
#[test]
fn a_coordinator_that_leaves_at_once_answers_the_post_that_completed_the_sweep() {
    let dir = scratch("leave");
    for round in 0..20 {
        let _ = std::fs::remove_dir_all(&dir);
        let (mut serve, addr, _) = ServeProcess::start(&dir, Stdio::inherit());
        let leases = [claim(&addr), claim(&addr)];
        deliver(&addr, &leases[0]);
        let reply = deliver(&addr, &leases[1]);
        assert!(reply.contains("\"remaining\":0"), "round {round}: {reply}");
        let rest: Vec<String> = serve.stdout.by_ref().map(Result::unwrap).collect();
        assert!(serve.child.wait().unwrap().success(), "{rest:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every 200 reply to a POST means a durable checkpoint holds its trials,
/// also while two clients post at once and their folds share checkpoints.
/// After each reply the newest checkpoint records every trial that client
/// has had accepted, and its seq never goes backwards. The coordinator
/// writes no more checkpoints than it accepts POSTs, and the artifacts
/// equal the direct run's. The lease TTL is long enough that no lease is
/// re-issued.
#[test]
fn every_200_reply_is_durable_under_concurrent_posts() {
    let direct_dir = scratch("durable-direct");
    let direct = direct_fig5(&direct_dir);
    let dir = scratch("durable-serve");
    let opts = Options {
        leases: Some(8),
        lease_ttl: Some(Duration::from_secs(60)),
        ..serve_fig5(&dir)
    };
    let (addr, handle) = spawn_server(&opts);
    let posts: u64 = std::thread::scope(|s| {
        let clients: Vec<_> = (0..2)
            .map(|_| s.spawn(|| post_and_check_durability(&addr, &dir)))
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).sum()
    });
    handle.join().unwrap().expect("server finalizes");
    assert_eq!(posts, 8, "one POST per lease");
    let last = load_latest(&dir).unwrap().unwrap();
    assert!(missing_work(&last.state).unwrap().is_empty());
    assert!(
        last.seq < posts,
        "{} checkpoints for {posts} POSTs",
        last.seq + 1
    );
    assert_eq!(artifacts(&dir), direct);
    for dir in [dir, direct_dir] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Claims and delivers leases until the sweep is done, and after each
/// accepted POST requires the newest checkpoint under `dir` to hold every
/// trial delivered so far, at a seq no lower than the last one read.
/// Returns the number of POSTs.
fn post_and_check_durability(addr: &str, dir: &Path) -> u64 {
    let (mut delivered, mut posts, mut seq) = (Vec::<TrialRange>::new(), 0, 0);
    loop {
        let (status, body) = match http_request(addr, "GET", "/lease", None) {
            Ok(reply) => reply,
            // With no linger the coordinator leaves once the other client's
            // POST completes the sweep, and drops a claim that races it.
            // Only then may a claim fail: the final checkpoint is complete.
            Err(e) => {
                let latest = load_latest(dir)
                    .unwrap()
                    .expect("a checkpoint once the sweep is done");
                let missing = missing_work(&latest.state).unwrap();
                assert!(missing.is_empty(), "claim failed mid-sweep: {e}");
                return posts;
            }
        };
        assert_eq!(status, 200, "{body}");
        if body.contains("\"status\":\"done\"") {
            return posts;
        }
        if body.contains("\"status\":\"wait\"") {
            std::thread::sleep(Duration::from_millis(5));
            continue;
        }
        deliver(addr, &body);
        posts += 1;
        delivered.extend(lease_of(&body).1);
        let newest = load_latest(dir)
            .unwrap()
            .expect("a checkpoint after a 200 reply");
        assert!(newest.seq >= seq, "seq {} after seq {seq}", newest.seq);
        seq = newest.seq;
        let missing = missing_work(&newest.state).unwrap();
        for r in &delivered {
            let lost = missing
                .iter()
                .any(|m| m.cell == r.cell && m.lo < r.hi && r.lo < m.hi);
            assert!(!lost, "checkpoint seq {seq} lacks accepted trials {r:?}");
        }
    }
}

/// Serves fig5 `--trials 2` into `dir` in two leases with the checkpoint
/// writes of `failing` sequence numbers failing (a directory takes each
/// one's temp name), posts both leases' honest results in order, and
/// returns the replies and what `Server::run` returned.
fn serve_fig5_failing(dir: &Path, failing: &[u64]) -> ([(u16, String); 2], Result<(), String>) {
    for &seq in failing {
        let blocker = format!("{}.tmp", checkpoint_file_name("fig5", seq));
        std::fs::create_dir_all(dir.join(CHECKPOINT_DIR).join(blocker)).unwrap();
    }
    let (addr, handle) = spawn_server(&serve_fig5(dir));
    let leases = [claim(&addr), claim(&addr)];
    let replies = leases.map(|lease| {
        let (id, plan) = lease_of(&lease);
        let artifact = fig5_state(&plan).to_json();
        http_request(&addr, "POST", &format!("/result/{id}"), Some(&artifact)).expect("post")
    });
    (replies, handle.join().unwrap())
}

/// A POST whose checkpoint write fails gets a 503, not a 200: no checkpoint
/// holds its trials. The coordinator has folded them and completed the
/// lease, so the next checkpoint it writes holds them. Here the write for
/// POST 0 fails and the one for POST 1 succeeds: the final checkpoint and
/// the artifacts hold every trial.
#[test]
fn a_post_no_checkpoint_holds_gets_503() {
    let direct_dir = scratch("unwritable-direct");
    let direct = direct_fig5(&direct_dir);
    let dir = scratch("unwritable-serve");
    let ([(status0, reply0), (status1, reply1)], served) = serve_fig5_failing(&dir, &[0]);
    assert_eq!(status0, 503, "{reply0}");
    assert!(reply0.contains("not yet durable"), "{reply0}");
    assert_eq!(status1, 200, "{reply1}");
    assert!(reply1.contains("\"remaining\":0"), "{reply1}");
    served.expect("server finalizes");
    let last = load_latest(&dir).unwrap().unwrap();
    assert_eq!(last.seq, 1, "seq 0 was never written");
    assert!(missing_work(&last.state).unwrap().is_empty());
    assert_eq!(artifacts(&dir), direct);
    for dir in [dir, direct_dir] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// When the final checkpoint cannot be written either, every POST gets a
/// 503 and the coordinator still writes the reports from memory, but its
/// run fails.
#[test]
fn a_final_checkpoint_that_cannot_be_written_fails_the_run() {
    let direct_dir = scratch("final-unwritable-direct");
    let direct = direct_fig5(&direct_dir);
    let dir = scratch("final-unwritable-serve");
    let (replies, served) = serve_fig5_failing(&dir, &[0, 1]);
    for (status, reply) in &replies {
        assert_eq!(*status, 503, "{reply}");
    }
    let err = served.expect_err("the run fails");
    assert!(
        err.contains("final checkpoint could not be written"),
        "{err}"
    );
    assert!(
        load_latest(&dir).unwrap().is_none(),
        "no checkpoint was written"
    );
    assert_eq!(artifacts(&dir), direct);
    for dir in [dir, direct_dir] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A `metrics.json` refresh that fails after a durable checkpoint fails
/// nothing: both POSTs get 200, the run succeeds, and the final checkpoint
/// and the artifacts hold every trial. A directory takes the sidecar's
/// temp name, so every refresh fails.
#[test]
fn a_failed_metrics_refresh_fails_no_post_and_not_the_run() {
    let direct_dir = scratch("sidecar-direct");
    let direct = direct_fig5(&direct_dir);
    let dir = scratch("sidecar-serve");
    std::fs::create_dir(dir.join(format!("{METRICS_FILE}.tmp"))).unwrap();
    let (replies, served) = serve_fig5_failing(&dir, &[]);
    for (status, reply) in &replies {
        assert_eq!(*status, 200, "{reply}");
    }
    served.expect("server finalizes");
    let last = load_latest(&dir).unwrap().unwrap();
    assert!(missing_work(&last.state).unwrap().is_empty());
    assert_eq!(artifacts(&dir), direct);
    for dir in [dir, direct_dir] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A stand-in coordinator for one `repro work` process: the test reads its
/// requests one by one and answers each by hand.
struct Stub {
    listener: TcpListener,
    worker: Child,
}

impl Stub {
    /// Binds an ephemeral port and starts `repro work` against it.
    fn start() -> Stub {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = format!("127.0.0.1:{}", listener.local_addr().unwrap().port());
        let worker = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["work", "--connect", &addr, "--threads", "1"])
            .env_remove("REPRO_WORK_HOLD_MS")
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn repro work");
        Stub { listener, worker }
    }

    /// The worker's next request: its connection and its request line. The
    /// body is read to its end, so that closing the connection resets
    /// nothing.
    fn next(&self) -> (TcpStream, String) {
        let deadline = Instant::now() + Duration::from_secs(20);
        let stream = loop {
            match self.listener.accept() {
                Ok((stream, _)) => break stream,
                Err(e) if e.kind() == ErrorKind::WouldBlock && Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => panic!("no request from the worker in 20 s: {e}"),
            }
        };
        stream.set_nonblocking(false).unwrap();
        let mut reader = BufReader::new(&stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let mut length = 0;
        loop {
            let mut header = String::new();
            reader.read_line(&mut header).unwrap();
            if header.trim().is_empty() {
                break;
            }
            if let Some(value) = header.strip_prefix("Content-Length:") {
                length = value.trim().parse().unwrap();
            }
        }
        reader.read_exact(&mut vec![0; length]).unwrap();
        (stream, line.trim_end().to_string())
    }

    /// The worker's exit status, stdout and stderr, once it has exited.
    fn finish(mut self) -> (bool, String, String) {
        let deadline = Instant::now() + Duration::from_secs(20);
        let status = loop {
            if let Some(status) = self.worker.try_wait().unwrap() {
                break status;
            }
            if Instant::now() > deadline {
                let _ = self.worker.kill();
                panic!("the worker did not exit");
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        let (mut stdout, mut stderr) = (String::new(), String::new());
        let (out, err) = (self.worker.stdout.take(), self.worker.stderr.take());
        out.unwrap().read_to_string(&mut stdout).unwrap();
        err.unwrap().read_to_string(&mut stderr).unwrap();
        // Any connection the worker made is in the backlog by now.
        let late = self.listener.accept().map(|_| ());
        assert!(
            matches!(&late, Err(e) if e.kind() == ErrorKind::WouldBlock),
            "the worker sent a request the stub never read"
        );
        (status.success(), stdout, stderr)
    }
}

impl Drop for Stub {
    fn drop(&mut self) {
        let _ = self.worker.kill();
        let _ = self.worker.wait();
    }
}

/// Answers `stream` with `status` and `body`, and closes it.
fn answer(mut stream: TcpStream, status: u16, body: &str) {
    let response = format!(
        "HTTP/1.1 {status} Stub\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes()).unwrap();
}

/// A fig5 `--trials 2` lease `id` of trial 0 of cell `cell`.
fn stub_lease(id: u32, cell: usize) -> String {
    format!(
        "{{\"status\":\"lease\",\"id\":{id},\"experiment\":\"fig5\",\"full\":false,\
         \"trials\":2,\"work\":[[{cell},0,1]]}}"
    )
}

/// A worker keeps lease 0's POST in flight while it claims and runs lease
/// 1, and collects its reply before it sends lease 1's. A 409 for lease 0
/// then ends the worker with exit 1 and the coordinator's reason, and
/// lease 1's result is never sent.
#[test]
fn a_rejected_post_stops_the_worker_before_its_next_post() {
    let stub = Stub::start();
    let (claim, line) = stub.next();
    assert_eq!(line, "GET /lease HTTP/1.1");
    answer(claim, 200, &stub_lease(0, 0));
    // POST 0 and the next claim come in either order.
    for _ in 0..2 {
        let (stream, line) = stub.next();
        if line.starts_with("POST ") {
            assert_eq!(line, "POST /result/0 HTTP/1.1");
            answer(
                stream,
                409,
                "{\"status\":\"error\",\"error\":\"conflicting\"}",
            );
        } else {
            assert_eq!(line, "GET /lease HTTP/1.1");
            answer(stream, 200, &stub_lease(1, 1));
        }
    }
    let (success, stdout, stderr) = stub.finish();
    assert!(!success, "{stdout}");
    assert!(
        stderr.contains("error: coordinator rejected lease 0: "),
        "{stderr}"
    );
    assert!(
        stdout.contains("[work] lease 1: 1 trials across"),
        "{stdout}"
    );
}

/// A claim answered `wait` while the worker's last POST is in flight is
/// asked again as soon as that POST is answered, not after the minute the
/// `wait` suggests: a worker that slept would fail `Stub::next`.
#[test]
fn a_worker_with_a_post_in_flight_asks_again_once_it_is_answered() {
    let stub = Stub::start();
    let (claim, _) = stub.next();
    answer(claim, 200, &stub_lease(0, 0));
    // POST 0 and the claim made while it is in flight, in either order: the
    // claim is answered first.
    let mut post = None;
    for _ in 0..2 {
        let (stream, line) = stub.next();
        if line.starts_with("POST ") {
            post = Some(stream);
        } else {
            answer(stream, 200, "{\"status\":\"wait\",\"retry_ms\":60000}");
        }
    }
    let reply = "{\"status\":\"ok\",\"fresh\":1,\"duplicate\":0,\"remaining\":31}";
    answer(post.expect("POST 0"), 200, reply);
    let (claim, line) = stub.next();
    assert_eq!(line, "GET /lease HTTP/1.1");
    answer(claim, 200, "{\"status\":\"done\"}");
    let (success, stdout, stderr) = stub.finish();
    assert!(success, "{stderr}");
    let accepted = format!("[work] lease 0 accepted: {reply}");
    assert!(stdout.contains(&accepted), "{stdout}");
    assert!(
        stdout.contains("[work] sweep complete after 1 leases"),
        "{stdout}"
    );
}

/// A 503 to a POST means the coordinator folded the results but could not
/// checkpoint them yet: the worker warns and goes on to its next lease.
#[test]
fn a_503_reply_warns_and_the_worker_goes_on() {
    let stub = Stub::start();
    let (claim, _) = stub.next();
    answer(claim, 200, &stub_lease(0, 0));
    // POST 0 and the next claim, in either order.
    let unwritten = "{\"status\":\"error\",\"error\":\"folded, but not yet durable\"}";
    for _ in 0..2 {
        let (stream, line) = stub.next();
        if line.starts_with("POST ") {
            answer(stream, 503, unwritten);
        } else {
            answer(stream, 200, &stub_lease(1, 1));
        }
    }
    let reply = "{\"status\":\"ok\",\"fresh\":1,\"duplicate\":0,\"remaining\":0}";
    for _ in 0..2 {
        let (stream, line) = stub.next();
        if line.starts_with("POST ") {
            assert_eq!(line, "POST /result/1 HTTP/1.1");
            answer(stream, 200, reply);
        } else {
            answer(stream, 200, "{\"status\":\"done\"}");
        }
    }
    let (success, stdout, stderr) = stub.finish();
    assert!(success, "{stderr}");
    let warning = format!("warning: coordinator could not checkpoint lease 0: {unwritten}");
    assert!(stderr.contains(&warning), "{stderr}");
    assert!(!stdout.contains("[work] lease 0 accepted"), "{stdout}");
    assert!(
        stdout.contains(&format!("[work] lease 1 accepted: {reply}")),
        "{stdout}"
    );
}
