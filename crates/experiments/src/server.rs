//! `repro serve` — the pull-based sweep coordinator.
//!
//! A long-running process that cuts one experiment's sweep into cost-
//! weighted per-trial leases ([`TrialRange::partition`]), hands them to
//! `repro work` processes over a minimal HTTP/TCP protocol, folds the
//! results they POST back, and writes the same artifacts a single-process
//! run would — byte-identical, because trial results are position-addressed
//! functions of `(experiment, algorithm, n, trial)` alone and the fold
//! seam is associative.
//!
//! ## Wire protocol
//!
//! Three routes, all JSON over HTTP/1.1 with `Connection: close`:
//!
//! * `GET /lease` — claim work. Responses:
//!   `{"status":"lease","id":N,"experiment":...,"full":...,"trials":T,`
//!   `"work":[[cell,lo,hi],...]}` (run trials `[lo,hi)` of each grid cell),
//!   `{"status":"wait","retry_ms":200}` (everything is leased out; poll
//!   again), or `{"status":"done"}` (the sweep is complete; exit).
//! * `POST /result/<id>` — body is a `shard_state/v1` artifact (the same
//!   format `repro shard` writes; the artifact seam *is* the wire format).
//!   The server validates it against the run's grid, folds it with
//!   duplicate-trial tolerance, checkpoints, and answers
//!   `{"status":"ok","fresh":F,"duplicate":D,"remaining":R}`.
//! * `GET /metrics` — the live `sweep_metrics/v2` sidecar, re-served
//!   verbatim from `--out/metrics.json`.
//!
//! ## Failure semantics
//!
//! A lease not completed within `--lease-secs` is re-issued (under a fresh
//! id) to the next worker that asks; the original worker may still POST
//! later, and the duplicate-trial discard of
//! [`MetricStats::try_merge_dedup`] makes the double execution harmless —
//! honest re-execution reproduces the bits exactly, and anything *else*
//! (conflicting values, a foreign grid, torn per-metric trials, deep JSON)
//! is rejected with an error, never folded. Every accepted POST checkpoints
//! the fold state into `--out/checkpoints/`, so a killed coordinator
//! resumes with `repro serve` pointed at the same `--out`, re-leasing only
//! the missing trials.

use crate::aggregate::StatsCell;
use crate::checkpoint::{self, CheckpointWriter};
use crate::cli::write_report_artifacts;
use crate::figures::sharding::{find_shardable, shardable_names, ShardableEntry};
use crate::options::Options;
use crate::shard::{GridMeta, ShardState};
use contention_core::algorithm::AlgorithmKind;
use contention_core::merge::MergeStats;
use contention_sim::engine::TrialRange;
use contention_sim::monitor::{SweepMonitor, SweepSnapshot};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Default coordinator port (`--port` overrides; `0` = ephemeral).
pub const DEFAULT_PORT: u16 = 7481;
/// Default lease time-to-live before re-issue (`--lease-secs`).
pub const DEFAULT_LEASE_SECS: u64 = 60;
/// Default lease count the sweep is cut into (`--leases`).
pub const DEFAULT_LEASES: usize = 16;
/// Default post-completion linger window (`--linger-secs`).
pub const DEFAULT_LINGER_SECS: u64 = 2;
/// Poll interval the `wait` response suggests to workers.
pub const WAIT_RETRY_MS: u64 = 200;

/// Request bodies larger than this are rejected up front — a full-grid
/// artifact is megabytes; hundreds of megabytes is an attack, not a result.
const MAX_BODY_BYTES: usize = 64 << 20;
/// Concurrent request-handler cap (the semaphore's permit count): enough
/// for a busy fleet, bounded so a connection flood cannot spawn unbounded
/// threads.
const MAX_CONCURRENT: usize = 32;
/// Completed-lease records are kept this long for diagnostics, then swept.
const DONE_TTL: Duration = Duration::from_secs(600);
/// ... and never more than this many, whatever their age.
const DONE_CAP: usize = 1024;
/// Per-connection socket read timeout: a worker that stops mid-request
/// must not pin a handler (and its semaphore permit) forever.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(30);
/// Accept-loop poll granularity while waiting for connections/completion.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

// ---------------------------------------------------------------------------
// Job store: pending/active/done leases with TTL-based re-issue.
// ---------------------------------------------------------------------------

struct ActiveLease {
    id: u64,
    work: Vec<TrialRange>,
    issued: Instant,
}

/// The lease lifecycle: `pending` → (claim) → `active` → (result) → `done`,
/// with expiry sweeping `active` back to the front of `pending` under a
/// fresh id. All time-dependent methods take an explicit `now` so tests
/// drive the clock deterministically. Bounded on every axis: `pending` and
/// `active` never exceed the initial lease count, `done` is capped and
/// TTL-swept.
struct JobStore {
    pending: VecDeque<(u64, Vec<TrialRange>)>,
    active: Vec<ActiveLease>,
    done: VecDeque<(u64, Instant)>,
    next_id: u64,
    ttl: Duration,
    /// Leases that expired and were re-issued — stragglers, for the log.
    pub reissued: usize,
}

impl JobStore {
    fn new(leases: Vec<Vec<TrialRange>>, ttl: Duration) -> JobStore {
        let pending: VecDeque<_> = leases
            .into_iter()
            .enumerate()
            .map(|(i, work)| (i as u64, work))
            .collect();
        JobStore {
            next_id: pending.len() as u64,
            pending,
            active: Vec::new(),
            done: VecDeque::new(),
            ttl,
            reissued: 0,
        }
    }

    /// Expires overdue actives back to the queue head (stragglers' work is
    /// the oldest — it should go out again first) and sweeps `done`.
    fn sweep(&mut self, now: Instant) {
        let mut i = 0;
        while i < self.active.len() {
            if now.duration_since(self.active[i].issued) >= self.ttl {
                let lease = self.active.swap_remove(i);
                let id = self.next_id;
                self.next_id += 1;
                self.reissued += 1;
                self.pending.push_front((id, lease.work));
            } else {
                i += 1;
            }
        }
        while self.done.len() > DONE_CAP {
            self.done.pop_front();
        }
        while let Some(&(_, at)) = self.done.front() {
            if now.duration_since(at) >= DONE_TTL {
                self.done.pop_front();
            } else {
                break;
            }
        }
    }

    /// Claims the next pending lease, if any.
    fn claim(&mut self, now: Instant) -> Option<(u64, Vec<TrialRange>)> {
        self.sweep(now);
        let (id, work) = self.pending.pop_front()?;
        self.active.push(ActiveLease {
            id,
            work: work.clone(),
            issued: now,
        });
        Some((id, work))
    }

    /// Marks a lease's results delivered. `false` means the lease was no
    /// longer active — it expired and was re-issued, or the id is unknown;
    /// the results were folded either way (dedup makes that safe), this is
    /// bookkeeping only.
    fn complete(&mut self, id: u64, now: Instant) -> bool {
        self.sweep(now);
        match self.active.iter().position(|l| l.id == id) {
            Some(i) => {
                self.active.swap_remove(i);
                self.done.push_back((id, now));
                true
            }
            None => false,
        }
    }

    fn active_count(&self) -> usize {
        self.active.len()
    }
}

// ---------------------------------------------------------------------------
// Semaphore: the hand-rolled concurrency cap (no external deps).
// ---------------------------------------------------------------------------

struct Semaphore {
    permits: Mutex<usize>,
    freed: Condvar,
}

impl Semaphore {
    fn new(permits: usize) -> Semaphore {
        Semaphore {
            permits: Mutex::new(permits),
            freed: Condvar::new(),
        }
    }

    fn acquire(&self) {
        let mut permits = self.permits.lock().expect("semaphore poisoned");
        while *permits == 0 {
            permits = self.freed.wait(permits).expect("semaphore poisoned");
        }
        *permits -= 1;
    }

    fn release(&self) {
        *self.permits.lock().expect("semaphore poisoned") += 1;
        self.freed.notify_one();
    }
}

// ---------------------------------------------------------------------------
// Fold state: the coordinator's master accumulator.
// ---------------------------------------------------------------------------

struct Fold {
    experiment: String,
    full: bool,
    grid: GridMeta,
    /// Master cells, kept in canonical grid order (cells nothing has
    /// touched yet are absent, like any partial artifact).
    cells: Vec<StatsCell>,
    store: JobStore,
    trials_total: usize,
    accepted_posts: usize,
    duplicate_trials: usize,
    complete: bool,
}

impl Fold {
    /// Trials fully recorded (every metric buffer holds them).
    fn recorded(&self) -> usize {
        self.cells
            .iter()
            .map(|c| {
                c.acc
                    .raw_samples()
                    .iter()
                    .map(|s| s.filled())
                    .min()
                    .unwrap_or(0)
            })
            .sum()
    }

    /// Validates and folds one posted artifact; returns the merge tally in
    /// *trial* units (a trial spans all metrics atomically, enforced by the
    /// torn-trial check before any fold).
    fn fold_post(&mut self, posted: ShardState) -> Result<MergeStats, String> {
        if posted.experiment != self.experiment {
            return Err(format!(
                "artifact is for experiment {:?}, this server runs {:?}",
                posted.experiment, self.experiment
            ));
        }
        if posted.full != self.full || posted.grid != self.grid {
            return Err(
                "artifact grid does not match this server's sweep (different \
                 build or options?)"
                    .to_string(),
            );
        }
        // A trial recorded for only some metrics cannot have come from
        // this pipeline; folding it would corrupt the master state.
        checkpoint::missing_work(&posted)?;
        let metrics = self.grid.metrics.len().max(1);
        let mut slots = MergeStats::default();
        for cell in posted.into_cells() {
            match self
                .cells
                .iter_mut()
                .find(|c| c.algorithm == cell.algorithm && c.n == cell.n)
            {
                Some(mine) => slots.absorb(
                    mine.acc
                        .try_merge_dedup(cell.acc)
                        .map_err(|e| format!("cell ({}, n={}): {e}", cell.algorithm, cell.n))?,
                ),
                None => {
                    slots.fresh += cell
                        .acc
                        .raw_samples()
                        .iter()
                        .map(|s| s.filled())
                        .sum::<usize>();
                    self.cells.push(cell);
                }
            }
        }
        let grid = self.grid.clone();
        self.cells
            .sort_by_key(|c| canonical_position(&grid, c.algorithm, c.n));
        Ok(MergeStats {
            fresh: slots.fresh / metrics,
            duplicates: slots.duplicates / metrics,
        })
    }
}

// ---------------------------------------------------------------------------
// The server.
// ---------------------------------------------------------------------------

struct Shared {
    fold: Mutex<Fold>,
    writer: CheckpointWriter,
    metrics_path: PathBuf,
    handlers: Semaphore,
    started: Instant,
}

/// A bound-but-not-yet-running coordinator. [`Server::start`] binds the
/// socket and loads/cuts the work; [`Server::run`] serves until the sweep
/// completes (plus the linger window) and writes the final artifacts.
/// Split so tests can read [`Server::local_addr`] (port 0 = ephemeral)
/// before the accept loop takes the thread.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    entry: ShardableEntry,
    out_dir: PathBuf,
    json: bool,
    linger: Duration,
}

impl Server {
    /// Binds the coordinator: resolves the experiment, rebuilds its grid,
    /// resumes from the newest matching checkpoint under `--out` if one
    /// exists, cuts the remaining work into cost-weighted leases, and
    /// binds the listen socket. No trials run here — workers do that.
    pub fn start(opts: &Options) -> Result<Server, String> {
        let name = &opts.inputs[0];
        let entry = find_shardable(name).ok_or_else(|| {
            format!(
                "{name:?} is not shardable (shardable experiments: {})",
                shardable_names().join(", ")
            )
        })?;
        let out_dir = opts.out_dir.clone().expect("validated at parse time");
        let grid = (entry.grid)(opts);
        let trials_total = grid.cell_count() * grid.trials as usize;

        // Resume: fold the newest surviving checkpoint in as the starting
        // master state, if it matches this sweep.
        let mut cells: Vec<StatsCell> = Vec::new();
        if out_dir.join(checkpoint::CHECKPOINT_DIR).is_dir() {
            match checkpoint::load_latest(&out_dir) {
                Ok(loaded) => {
                    for warning in &loaded.warnings {
                        eprintln!("warning: {warning}");
                    }
                    if loaded.state.experiment == *name
                        && loaded.state.full == opts.full
                        && loaded.state.grid == grid
                    {
                        println!(
                            "[serve] resuming from checkpoint seq {} ({} trials recorded)",
                            loaded.seq,
                            checkpoint_recorded(&loaded.state)
                        );
                        cells = loaded.state.into_cells();
                    } else {
                        eprintln!(
                            "warning: checkpoint in {} is for a different sweep — starting fresh",
                            out_dir.display()
                        );
                    }
                }
                Err(e) => eprintln!("warning: cannot resume from {}: {e}", out_dir.display()),
            }
        }

        // Cut the *missing* work (everything, on a fresh start) into
        // cost-weighted per-trial leases.
        let master = ShardState::from_cells(name, opts.full, (0, 1), &grid, &cells);
        let plan = checkpoint::missing_work(&master)?;
        let leases = TrialRange::partition(
            &plan,
            &grid.cell_trial_costs(),
            opts.leases.unwrap_or(DEFAULT_LEASES),
        );
        let remaining: usize = plan.iter().map(TrialRange::len).sum();
        let store = JobStore::new(
            leases,
            Duration::from_secs(opts.lease_secs.unwrap_or(DEFAULT_LEASE_SECS)),
        );

        let writer = CheckpointWriter::new(&out_dir, name, opts.full, grid.clone())?;
        let port = opts.port.unwrap_or(DEFAULT_PORT);
        let listener = TcpListener::bind(("0.0.0.0", port))
            .map_err(|e| format!("cannot bind port {port}: {e}"))?;
        println!(
            "[serve] {name} on {}: {} leases over {remaining} of {trials_total} trials",
            listener.local_addr().map_err(|e| e.to_string())?,
            store.pending.len(),
        );
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                fold: Mutex::new(Fold {
                    experiment: name.clone(),
                    full: opts.full,
                    grid,
                    cells,
                    store,
                    trials_total,
                    accepted_posts: 0,
                    duplicate_trials: 0,
                    complete: remaining == 0,
                }),
                writer,
                metrics_path: out_dir.join(checkpoint::METRICS_FILE),
                handlers: Semaphore::new(MAX_CONCURRENT),
                started: Instant::now(),
            }),
            entry,
            out_dir,
            json: opts.json,
            linger: Duration::from_secs(opts.linger_secs.unwrap_or(DEFAULT_LINGER_SECS)),
        })
    }

    /// The bound address — the `HOST:PORT` workers `--connect` to.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener")
    }

    /// Serves until the sweep completes, then writes the experiment's
    /// reports into `--out` (byte-identical to a single-process run),
    /// answers `done` for the linger window so slow workers learn the run
    /// is over, and returns.
    pub fn run(self) -> Result<(), String> {
        self.listener
            .set_nonblocking(true)
            .map_err(|e| format!("cannot poll listener: {e}"))?;
        let mut finalized_at: Option<Instant> = None;
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let shared = Arc::clone(&self.shared);
                    shared.handlers.acquire();
                    std::thread::spawn(move || {
                        handle_connection(stream, &shared);
                        shared.handlers.release();
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) => return Err(format!("accept failed: {e}")),
            }
            if finalized_at.is_none() && self.shared.fold.lock().expect("fold poisoned").complete {
                self.finalize()?;
                finalized_at = Some(Instant::now());
            }
            if let Some(at) = finalized_at {
                if at.elapsed() >= self.linger {
                    return Ok(());
                }
            }
        }
    }

    /// Convenience for the CLI: `start` + `run` in one call.
    pub fn serve(opts: &Options) -> Result<(), String> {
        Server::start(opts)?.run()
    }

    /// The sweep is complete: flush the final checkpoint and write the
    /// figure's reports, exactly as `repro merge` would.
    fn finalize(&self) -> Result<(), String> {
        let fold = self.shared.fold.lock().expect("fold poisoned");
        let state =
            ShardState::from_cells(&fold.experiment, fold.full, (0, 1), &fold.grid, &fold.cells);
        if !state.is_complete() {
            return Err("finalize called on an incomplete fold".to_string());
        }
        let report_opts = Options {
            full: fold.full,
            trials: Some(fold.grid.trials),
            ..Options::default()
        };
        let report = (self.entry.report)(&report_opts, &fold.cells);
        println!(
            "[serve] {} complete: {} posts accepted, {} duplicate trials discarded, \
             {} leases re-issued",
            fold.experiment, fold.accepted_posts, fold.duplicate_trials, fold.store.reissued
        );
        drop(fold);
        report.print();
        write_report_artifacts(&report, &self.out_dir, self.json)?;
        println!(
            "[serve] {} written to {}",
            if self.json { "CSVs + JSON" } else { "CSVs" },
            self.out_dir.display()
        );
        Ok(())
    }
}

/// A cell's index in canonical grid order (algorithm-major, n-minor).
fn canonical_position(grid: &GridMeta, alg: AlgorithmKind, n: u32) -> usize {
    let a = grid
        .algorithms
        .iter()
        .position(|&x| x == alg)
        .expect("cell algorithm validated against the grid");
    let i = grid
        .ns
        .iter()
        .position(|&x| x == n)
        .expect("cell n validated against the grid");
    a * grid.ns.len() + i
}

fn checkpoint_recorded(state: &ShardState) -> usize {
    state
        .cells
        .iter()
        .map(|c| {
            c.samples
                .iter()
                .map(|s| s.iter().filter(|v| !v.is_nan()).count())
                .min()
                .unwrap_or(0)
        })
        .sum()
}

// ---------------------------------------------------------------------------
// Request handling.
// ---------------------------------------------------------------------------

struct Request {
    method: String,
    path: String,
    body: String,
}

fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let response = match read_request(&mut stream) {
        Ok(req) => route(&req, shared),
        Err(e) => (
            400,
            format!("{{\"status\":\"error\",\"error\":{}}}", json_str(&e)),
        ),
    };
    let (status, body) = response;
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        409 => "Conflict",
        413 => "Payload Too Large",
        _ => "Error",
    };
    let _ = stream.write_all(
        format!(
            "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    );
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", crate::jsonout::escape(s))
}

fn read_request(stream: &mut TcpStream) -> Result<Request, String> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("cannot read request line: {e}"))?;
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let path = parts.next().unwrap_or_default().to_string();
    if method.is_empty() || path.is_empty() {
        return Err("malformed request line".to_string());
    }
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader
            .read_line(&mut header)
            .map_err(|e| format!("cannot read header: {e}"))?;
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        if let Some((key, value)) = header.split_once(':') {
            if key.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad content-length {value:?}"))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(format!(
            "body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte cap"
        ));
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("cannot read body: {e}"))?;
    let body = String::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    Ok(Request { method, path, body })
}

fn route(req: &Request, shared: &Shared) -> (u16, String) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/lease") => lease_response(shared),
        ("GET", "/metrics") => metrics_response(shared),
        ("POST", path) if path.starts_with("/result/") => {
            match path["/result/".len()..].parse::<u64>() {
                Ok(id) => result_response(shared, id, &req.body),
                Err(_) => (400, error_body("bad lease id in path")),
            }
        }
        _ => (
            404,
            error_body(&format!("no route {} {}", req.method, req.path)),
        ),
    }
}

fn error_body(message: &str) -> String {
    format!("{{\"status\":\"error\",\"error\":{}}}", json_str(message))
}

fn lease_response(shared: &Shared) -> (u16, String) {
    let mut fold = shared.fold.lock().expect("fold poisoned");
    if fold.complete {
        return (200, "{\"status\":\"done\"}".to_string());
    }
    match fold.store.claim(Instant::now()) {
        None => (
            200,
            format!("{{\"status\":\"wait\",\"retry_ms\":{WAIT_RETRY_MS}}}"),
        ),
        Some((id, work)) => {
            let ranges: Vec<String> = work
                .iter()
                .map(|r| format!("[{},{},{}]", r.cell, r.lo, r.hi))
                .collect();
            (
                200,
                format!(
                    "{{\"status\":\"lease\",\"id\":{id},\"experiment\":{},\"full\":{},\
                     \"trials\":{},\"work\":[{}]}}",
                    json_str(&fold.experiment),
                    fold.full,
                    fold.grid.trials,
                    ranges.join(",")
                ),
            )
        }
    }
}

fn metrics_response(shared: &Shared) -> (u16, String) {
    // Re-serve the sidecar bytes verbatim — one source of truth on disk.
    match std::fs::read_to_string(&shared.metrics_path) {
        Ok(text) => (200, text),
        Err(_) => (404, error_body("no metrics yet — no result accepted")),
    }
}

fn result_response(shared: &Shared, id: u64, body: &str) -> (u16, String) {
    // Parse and validate outside the fold lock — `ShardState::parse` is the
    // expensive part, and its grid/duplicate/shape checks (plus jsonin's
    // depth cap) are what stand between untrusted bytes and the master
    // state.
    let posted = match ShardState::parse(body) {
        Ok(state) => state,
        Err(e) => return (400, error_body(&format!("unparseable artifact: {e}"))),
    };
    let mut fold = shared.fold.lock().expect("fold poisoned");
    if fold.complete {
        // A straggler finishing after the sweep completed: its trials are
        // all duplicates by construction. Nothing to fold.
        return (200, "{\"status\":\"done\"}".to_string());
    }
    let stats = match fold.fold_post(posted) {
        Ok(stats) => stats,
        Err(e) => return (409, error_body(&e)),
    };
    fold.store.complete(id, Instant::now());
    fold.accepted_posts += 1;
    fold.duplicate_trials += stats.duplicates;
    let recorded = fold.recorded();
    let remaining = fold.trials_total - recorded;
    fold.complete = remaining == 0;
    // Checkpoint every accepted result: the fold is the only copy of the
    // fleet's work, and the final (finished) snapshot doubles as the clean-
    // shutdown flush. Written *under* the fold lock — the writer stages
    // fixed temp-file names, so concurrent snapshots would race each
    // other's renames, and serializing here also keeps checkpoint seq
    // order identical to fold order.
    let snapshot = SweepSnapshot {
        cells: fold.cells.clone(),
        completed_trials: recorded,
        total_trials: fold.trials_total,
        elapsed: shared.started.elapsed(),
        workers: fold.store.active_count().max(1),
        finished: fold.complete,
    };
    shared.writer.snapshot(snapshot);
    drop(fold);
    (
        200,
        format!(
            "{{\"status\":\"ok\",\"fresh\":{},\"duplicate\":{},\"remaining\":{remaining}}}",
            stats.fresh, stats.duplicates
        ),
    )
}

// ---------------------------------------------------------------------------
// Minimal HTTP client — shared by `repro work` and the tests.
// ---------------------------------------------------------------------------

/// One HTTP/1.1 exchange with the coordinator: sends `method path` with the
/// optional body, returns `(status, body)`. `Connection: close` both ways —
/// every exchange is its own TCP connection, which keeps both ends trivial
/// (no keep-alive state machine) at a per-request cost that is noise next
/// to running even one trial.
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
    let body = body.unwrap_or("");
    stream
        .write_all(
            format!(
                "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .map_err(|e| format!("cannot send request to {addr}: {e}"))?;
    let mut response = String::new();
    BufReader::new(stream)
        .read_to_string(&mut response)
        .map_err(|e| format!("cannot read response from {addr}: {e}"))?;
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed response from {addr}"))?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::MetricStats;
    use crate::figures::sharding::find_shardable;
    use crate::figures::shared::SweepHooks;

    fn lease(cell: usize, lo: u32, hi: u32) -> Vec<TrialRange> {
        vec![TrialRange { cell, lo, hi }]
    }

    #[test]
    fn job_store_walks_the_lease_lifecycle_with_expiry_and_reissue() {
        let t0 = Instant::now();
        let ttl = Duration::from_secs(10);
        let mut store = JobStore::new(vec![lease(0, 0, 2), lease(1, 0, 2)], ttl);

        // Claim both (B a little later); the store is drained.
        let (id_a, work_a) = store.claim(t0).unwrap();
        let (id_b, _) = store.claim(t0 + Duration::from_secs(5)).unwrap();
        assert_ne!(id_a, id_b);
        assert!(
            store.claim(t0 + Duration::from_secs(5)).is_none(),
            "nothing pending"
        );
        assert_eq!(store.active_count(), 2);

        // Only lease A has aged past the TTL: the next claim re-issues its
        // work under a fresh id while B stays active.
        let late = t0 + ttl + Duration::from_secs(1);
        let (id_a2, work_a2) = store.claim(late).unwrap();
        assert!(id_a2 > id_b, "re-issue must mint a fresh id");
        assert_eq!(store.reissued, 1, "only the straggler expired");
        assert_eq!(work_a2, work_a, "the straggler's own work is re-served");

        // The original straggler's id is no longer active: completing it
        // reports false (results still folded by the caller — just no
        // bookkeeping entry), while the live id completes normally.
        assert!(!store.complete(id_a, late));
        assert!(store.complete(id_a2, late));
        assert_eq!(store.done.len(), 1);

        // Done records are TTL-swept.
        store.sweep(late + DONE_TTL + Duration::from_secs(1));
        assert!(store.done.is_empty());
    }

    #[test]
    fn fold_post_rejects_foreign_grids_and_conflicting_duplicates() {
        let entry = find_shardable("fig5").unwrap();
        let opts = Options {
            trials: Some(2),
            ..Options::default()
        };
        let grid = (entry.grid)(&opts);
        let mut fold = Fold {
            experiment: "fig5".into(),
            full: false,
            grid: grid.clone(),
            cells: Vec::new(),
            store: JobStore::new(Vec::new(), Duration::from_secs(1)),
            trials_total: grid.cell_count() * grid.trials as usize,
            accepted_posts: 0,
            duplicate_trials: 0,
            complete: false,
        };

        // Run trials {0} of every cell, twice over — the straggler +
        // re-issue shape. First POST is all fresh, identical second POST is
        // all duplicates, and the master state is unchanged by the replay.
        let plan: Vec<TrialRange> = (0..grid.cell_count())
            .map(|cell| TrialRange { cell, lo: 0, hi: 1 })
            .collect();
        let hooks = SweepHooks {
            plan: Some(&plan),
            ..SweepHooks::default()
        };
        let cells = (entry.cells)(&opts, &hooks);
        let posted = ShardState::from_cells("fig5", false, (0, 1), &grid, &cells);
        let replay = ShardState::parse(&posted.to_json()).unwrap();

        let first = fold.fold_post(posted).unwrap();
        assert_eq!(first.fresh, grid.cell_count());
        assert_eq!(first.duplicates, 0);
        let before = ShardState::from_cells("fig5", false, (0, 1), &grid, &fold.cells).to_json();
        let second = fold.fold_post(replay).unwrap();
        assert_eq!(second.fresh, 0);
        assert_eq!(second.duplicates, grid.cell_count());
        let after = ShardState::from_cells("fig5", false, (0, 1), &grid, &fold.cells).to_json();
        assert_eq!(before, after, "a replay must not change the master state");

        // A conflicting duplicate (same slot, different bits) is rejected.
        let mut tampered = fold.cells.clone();
        let mut raw: Vec<Vec<f64>> = tampered[0]
            .acc
            .raw_samples()
            .iter()
            .map(|s| s.raw().to_vec())
            .collect();
        for buf in &mut raw {
            if !buf[0].is_nan() {
                buf[0] += 1.0;
            }
        }
        tampered[0].acc = MetricStats::from_parts(
            grid.metrics.clone(),
            raw.into_iter()
                .map(contention_stats::stream::StreamingSample::from_raw)
                .collect(),
        );
        let conflicting = ShardState::from_cells("fig5", false, (0, 1), &grid, &tampered[..1]);
        let err = fold.fold_post(conflicting).unwrap_err();
        assert!(err.contains("conflicting"), "{err}");

        // A wrong-experiment artifact never folds.
        let foreign_entry = find_shardable("fig3").unwrap();
        let foreign_grid = (foreign_entry.grid)(&opts);
        let foreign = ShardState::from_cells("fig3", false, (0, 1), &foreign_grid, &[]);
        let err = fold
            .fold_post(ShardState::parse(&foreign.to_json()).unwrap())
            .unwrap_err();
        assert!(err.contains("fig3"), "{err}");
    }
}
