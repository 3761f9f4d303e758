//! `repro serve` — the pull-based sweep coordinator.
//!
//! A long-running process that cuts one experiment's sweep into cost-
//! weighted per-trial leases, heaviest cells first
//! ([`TrialRange::partition`]), hands them to `repro work` processes over
//! a minimal HTTP/TCP protocol, folds the results they POST back, and
//! writes the same artifacts a single-process run would — byte-identical,
//! because trial results are position-addressed functions of
//! `(experiment, algorithm, n, trial)` alone and the fold seam is
//! associative.
//!
//! ## Wire protocol
//!
//! Three routes, all JSON over HTTP/1.1 with `Connection: close`:
//!
//! * `GET /lease` — claim work. The reply is a [`LeaseReply`], the one type
//!   both ends encode and decode it with:
//!   `{"status":"lease","id":N,"experiment":...,"full":...,"trials":T,`
//!   `"work":[[cell,lo,hi],...]}` (run trials `[lo,hi)` of each grid cell),
//!   `{"status":"wait","retry_ms":200}` (everything is leased out; poll
//!   again), or `{"status":"done"}` (the sweep is complete; exit).
//! * `POST /result/<id>` — body is a `shard_state/v1` artifact (the same
//!   format `repro shard` writes; the artifact seam *is* the wire format).
//!   A body longer than the largest artifact an honest worker of the sweep
//!   can send is refused with 413 from its `Content-Length` alone. The
//!   server checks the artifact's header (experiment, `--full`, grid)
//!   against its sweep before it reads any cell, so a POST for another
//!   sweep costs no more than its JSON parse and gets 409. It then converts
//!   the cells, refuses a torn trial with the walk that plans a resume
//!   ([`GridMeta::holes`]), folds them with duplicate-trial tolerance,
//!   checkpoints, and answers
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
//! is rejected with an error, never folded. A rejected POST folds nothing
//! at all, not even its fresh trials: the fold runs on a copy of the master
//! state that replaces it only on success. A POST under an unknown or
//! expired lease id is folded and deduplicated like any other; the id is
//! bookkeeping only. Every bound of `serve` and `work` is a field of
//! [`Limits`]; a request that breaks one gets a 4xx and frees its handler.
//!
//! ## Checkpoints
//!
//! A 200 reply to a POST means a durable checkpoint in
//! `--out/checkpoints/` holds the posted trials, so a killed coordinator
//! resumes with `repro serve` pointed at the same `--out`, re-leasing only
//! the missing trials. A POST whose checkpoint write fails gets a 503
//! instead: its trials are folded and its lease is complete, so the next
//! checkpoint that is written holds them. Every failed checkpoint write is
//! logged on stderr, and if the final checkpoint cannot be written, `serve`
//! still writes the reports but exits with an error. The `metrics.json`
//! refresh that follows each checkpoint is not part of it: a failed refresh
//! only warns, and changes no reply and no exit code. Checkpoints are
//! group-committed: a POST's handler folds and clones the
//! fold state under the fold lock, queues the clone, and then, outside the
//! lock, waits until a checkpoint holding its fold is durable. Checkpoints
//! are written one at a time and in fold order, each from the newest queued
//! clone, so POSTs that arrive during one write share the next. Lease
//! claims never wait on the disk.
//!
//! [`MetricStats::try_merge_dedup`]: crate::aggregate::MetricStats::try_merge_dedup
//! [`GridMeta::holes`]: crate::shard::GridMeta::holes

use crate::aggregate::{MetricStats, StatsCell};
use crate::checkpoint::{self, CheckpointWriter};
use crate::cli::{load_checkpoint, Experiment};
use crate::jsonin::Json;
use crate::options::Options;
use crate::shard::{merge_cells, ShardState, SAMPLE_WIDTH};
use contention_sim::engine::TrialRange;
use contention_sim::monitor::SweepSnapshot;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Default lease count the sweep is cut into (`--leases`).
pub const DEFAULT_LEASES: usize = 16;

/// Every bound of `serve` and `work`, in one place: the four values the
/// CLI sets, the body cap a coordinator derives from its sweep, and the
/// fixed caps, timeouts and pauses. [`Limits::of`] builds it from the
/// options and [`Server::start`] adds the body cap, and nothing takes a
/// `Limits` as input, so the four flags stay the only settable bounds.
/// `serve` prints it when it starts.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Listen port (`--port`; `0` = ephemeral).
    pub port: u16,
    /// Lease count the sweep is cut into (`--leases`).
    pub leases: usize,
    /// Lease time-to-live before re-issue (`--lease-secs`).
    pub lease_ttl: Duration,
    /// Post-completion linger window (`--linger-secs`).
    pub linger: Duration,
    /// Poll interval the `wait` response suggests to workers.
    pub wait_retry: Duration,
    /// Request bodies larger than this are refused with 413 up front: the
    /// sweep's artifact with every grid cell listed and every sample at
    /// the widest an honest trial's value renders (`SAMPLE_WIDTH`), which
    /// no honest lease's artifact exceeds. [`Server::start`] derives it
    /// from its sweep; [`Limits::of`] knows no sweep and leaves it 0.
    pub max_body_bytes: usize,
    /// The request line and headers together are refused with 431 past this —
    /// a worker's head is under 200 bytes, and the bound stops a client that
    /// trickles bytes under the socket timeout from growing it without end.
    pub max_head_bytes: usize,
    /// Concurrent request-handler cap: enough for a busy fleet, bounded so a
    /// connection flood cannot spawn unbounded threads. Connections past it
    /// wait in the listen backlog.
    pub max_handlers: usize,
    /// Per-connection socket timeout: a peer that stops mid-request must not
    /// pin a handler (and its slot) forever. At most the lease TTL — a peer
    /// silent that long is written off, like a silent lease holder.
    pub socket_timeout: Duration,
    /// How many consecutive failed exchanges before a worker that has *never*
    /// reached the coordinator gives up.
    pub connect_retries: u32,
    /// Pause between connection retries.
    pub retry_pause: Duration,
}

impl Limits {
    /// The limits `opts` sets, with everything it leaves unset at its default.
    pub fn of(opts: &Options) -> Limits {
        let lease_ttl = opts.lease_ttl.unwrap_or(Duration::from_secs(60));
        Limits {
            port: opts.port.unwrap_or(7481),
            leases: opts.leases.unwrap_or(DEFAULT_LEASES),
            lease_ttl,
            linger: opts.linger.unwrap_or(Duration::from_secs(2)),
            wait_retry: Duration::from_millis(200),
            max_body_bytes: 0,
            max_head_bytes: 16 << 10,
            max_handlers: 32,
            socket_timeout: lease_ttl.min(Duration::from_secs(30)),
            connect_retries: 25,
            retry_pause: Duration::from_millis(200),
        }
    }
}

// ---------------------------------------------------------------------------
// Job store: pending/active leases with TTL-based re-issue.
// ---------------------------------------------------------------------------

struct ActiveLease {
    id: u64,
    work: Vec<TrialRange>,
    issued: Instant,
}

/// The lease lifecycle: `pending` → (claim) → `active` → (result) → gone,
/// with expiry sweeping `active` back to the front of `pending` under a
/// fresh id. All time-dependent methods take an explicit `now` so tests
/// drive the clock deterministically. `pending` and `active` never exceed
/// the initial lease count.
struct JobStore {
    pending: VecDeque<(u64, Vec<TrialRange>)>,
    active: Vec<ActiveLease>,
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
            ttl,
            reissued: 0,
        }
    }

    /// Expires overdue actives back to the queue head (stragglers' work is
    /// the oldest — it should go out again first).
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
                true
            }
            None => false,
        }
    }
}

// ---------------------------------------------------------------------------
// Fold state: the coordinator's master accumulator.
// ---------------------------------------------------------------------------

struct Fold {
    /// Master cells, kept in canonical grid order (cells nothing has
    /// touched yet are absent, like any partial artifact).
    cells: Vec<StatsCell>,
    store: JobStore,
    trials_total: usize,
    accepted_posts: usize,
    duplicate_trials: usize,
}

/// What one accepted POST added, in trials: those the master did not hold
/// yet, and bit-identical re-deliveries it discarded.
#[derive(Debug)]
struct MergeStats {
    fresh: usize,
    duplicates: usize,
}

/// Trials `cells` hold in full.
fn recorded(cells: &[StatsCell]) -> usize {
    cells.iter().map(|c| c.acc.recorded()).sum()
}

impl Fold {
    /// Folds the cells of one POST that `read_post` accepted, all or
    /// nothing: the fold runs on a copy of the master that replaces it only
    /// on success, so a rejected POST leaves no trial behind. Returns the
    /// tally in *trial* units.
    fn fold_post(
        &mut self,
        exp: &Experiment,
        posted: Vec<StatsCell>,
    ) -> Result<MergeStats, String> {
        let offered = recorded(&posted);
        let before = recorded(&self.cells);
        self.cells = merge_cells(&exp.grid, self.cells.clone(), posted, |mine, theirs| {
            mine.try_merge_dedup(theirs)
        })?;
        // Master and POST hold whole trials only, so the master grows by
        // exactly the posted trials it did not hold yet.
        let fresh = recorded(&self.cells) - before;
        Ok(MergeStats {
            fresh,
            duplicates: offered - fresh,
        })
    }
}

// ---------------------------------------------------------------------------
// The server.
// ---------------------------------------------------------------------------

/// What `run`, the acceptor and the handlers share. The fold lock covers
/// the fold, the claim and the snapshot clone, never a file write:
/// checkpoints are written outside it (see `commit`), and `finalize` writes
/// the reports from a clone.
struct Shared {
    /// The sweep this coordinator serves.
    exp: Experiment,
    fold: Mutex<Fold>,
    writer: CheckpointWriter,
    metrics_path: PathBuf,
    limits: Limits,
    gate: Mutex<Gate>,
    /// Signalled on every change to `gate` that a waiter may be waiting for.
    gate_changed: Condvar,
    started: Instant,
}

/// What `run`, the acceptor and the handlers tell each other. Each update
/// stores a counter, a flag or the queued snapshot, so a gate poisoned by a
/// panicking thread is still consistent and is used as it stands.
#[derive(Default)]
struct Gate {
    /// Handlers running now. Only the acceptor raises it, and only below
    /// `limits.max_handlers`; each handler's [`Slot`] lowers it again.
    handlers: usize,
    /// Handlers that have read a request and not yet answered it.
    answering: usize,
    /// The sweep is complete: set at start when nothing is missing, and
    /// otherwise, under the fold lock, by the POST that completes it.
    complete: bool,
    /// Why the acceptor stopped, if it failed.
    accept_failed: Option<String>,
    /// `run` is leaving: the acceptor accepts nothing more, and a request
    /// read from now on is dropped unanswered, as if it came after exit.
    leaving: bool,
    /// The newest fold state no checkpoint holds yet, with its ticket: the
    /// accepted POSTs it holds. A newer fold replaces it, because fold
    /// state only grows.
    queued: Option<(usize, SweepSnapshot<MetricStats>)>,
    /// A durable checkpoint holds every accepted POST up to this ticket.
    durable: usize,
    /// The newest ticket a failed checkpoint write covered, and its error.
    /// A POST no later write made durable is answered with that error.
    failed: Option<(usize, String)>,
    /// A checkpoint write is running. Only one may: the writer stages fixed
    /// temp names, and checkpoint order must stay fold order.
    writing: bool,
}

impl Shared {
    fn gate(&self) -> MutexGuard<'_, Gate> {
        self.gate.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Applies `change` to the gate and wakes everything waiting on it.
    fn signal(&self, change: impl FnOnce(&mut Gate)) {
        change(&mut self.gate());
        self.gate_changed.notify_all();
    }

    /// Blocks while `pending` holds; returns the gate, locked.
    fn wait_while(&self, pending: impl FnMut(&mut Gate) -> bool) -> MutexGuard<'_, Gate> {
        let gate = self.gate_changed.wait_while(self.gate(), pending);
        gate.unwrap_or_else(PoisonError::into_inner)
    }
}

/// One handler's place in `Gate::handlers`, and once it has read its
/// request, in `Gate::answering`: both freed on drop, also when the handler
/// panics.
struct Slot {
    shared: Arc<Shared>,
    answering: bool,
}

impl Slot {
    /// Registers the request just read for an answer. `false` once `run` is
    /// leaving: the request is then dropped unanswered.
    fn answer(&mut self) -> bool {
        let mut gate = self.shared.gate();
        self.answering = !gate.leaving;
        gate.answering += usize::from(self.answering);
        self.answering
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        let answering = usize::from(self.answering);
        self.shared.signal(|gate| {
            gate.handlers -= 1;
            gate.answering -= answering;
        });
    }
}

/// A bound-but-not-yet-running coordinator. [`Server::start`] binds the
/// socket and loads/cuts the work; [`Server::run`] serves until the sweep
/// completes (plus the linger window) and writes the final artifacts.
/// Split so tests can read [`Server::local_addr`] (port 0 = ephemeral)
/// before `run` takes the thread.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    out_dir: PathBuf,
    json: bool,
}

impl Server {
    /// Binds the coordinator: resolves the experiment, rebuilds its grid,
    /// resumes from the newest matching checkpoint under `--out` if one
    /// exists, cuts the remaining work into cost-weighted leases, and
    /// binds the listen socket. No trials run here — workers do that.
    pub fn start(opts: &Options) -> Result<Server, String> {
        let exp = Experiment::new(&opts.inputs[0], opts)?;
        let header = ShardState::from_cells(exp.entry.name, opts.full, (0, 1), &exp.grid, &[]);
        let limits = Limits {
            max_body_bytes: header.len_at(SAMPLE_WIDTH),
            ..Limits::of(opts)
        };
        let out_dir = opts.out_dir.clone().expect("validated at parse time");

        // Resume: the newest surviving checkpoint is the starting master
        // state if it records this very sweep; anything else starts fresh,
        // with a warning unless there was nothing to resume.
        let mut cells: Vec<StatsCell> = Vec::new();
        let resumable = load_checkpoint(&out_dir).and_then(|found| {
            found
                .map(|(state, seq)| exp.check(&state).map(|()| (state, seq)))
                .transpose()
        });
        match resumable {
            Ok(None) => {}
            Ok(Some((state, seq))) => {
                cells = state.into_cells();
                println!(
                    "[serve] resuming from checkpoint seq {seq} ({} trials recorded)",
                    recorded(&cells)
                );
            }
            Err(e) => eprintln!(
                "warning: cannot resume from {}: {e} — starting fresh",
                out_dir.display()
            ),
        }

        let leases = exp.leases(&cells, limits.leases)?;
        let remaining: usize = leases.iter().flatten().map(TrialRange::len).sum();
        let trials_total = exp.grid.cell_count() * exp.grid.trials as usize;
        let store = JobStore::new(leases, limits.lease_ttl);

        let writer = CheckpointWriter::new(&out_dir, exp.entry.name, opts.full, exp.grid.clone())?;
        let listener = TcpListener::bind(("0.0.0.0", limits.port))
            .map_err(|e| format!("cannot bind port {}: {e}", limits.port))?;
        println!(
            "[serve] {} on {}: {} leases over {remaining} of {trials_total} trials",
            exp.entry.name,
            listener.local_addr().map_err(|e| e.to_string())?,
            store.pending.len(),
        );
        println!("[serve] limits: {limits:?}");
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                exp,
                fold: Mutex::new(Fold {
                    cells,
                    store,
                    trials_total,
                    accepted_posts: 0,
                    duplicate_trials: 0,
                }),
                writer,
                metrics_path: out_dir.join(checkpoint::METRICS_FILE),
                limits,
                gate: Mutex::new(Gate {
                    complete: remaining == 0,
                    ..Gate::default()
                }),
                gate_changed: Condvar::new(),
                started: Instant::now(),
            }),
            out_dir,
            json: opts.json,
        })
    }

    /// The bound address — the `HOST:PORT` workers `--connect` to.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener")
    }

    /// The bounds this coordinator serves under, its derived body cap
    /// included: what its `[serve] limits:` line prints.
    pub fn limits(&self) -> Limits {
        self.shared.limits
    }

    /// Serves until the sweep completes, then writes the experiment's
    /// reports into `--out` (byte-identical to a single-process run),
    /// answers `done` for the linger window so slow workers learn the run
    /// is over, and returns once every request it has read is answered.
    ///
    /// Nothing on the request path sleeps: a scoped acceptor thread blocks
    /// in `accept` and starts one handler thread per connection, while this
    /// thread waits on the gate for the POST that completes the sweep.
    pub fn run(self) -> Result<(), String> {
        std::thread::scope(|s| {
            s.spawn(|| accept_loop(&self.listener, &self.shared));
            // Every way out, a panic included, stops the acceptor, which the
            // scope joins.
            let _leaving = Leaving(&self);
            self.serve()
        })
    }

    /// Waits for the sweep to complete, reports it, and lingers.
    fn serve(&self) -> Result<(), String> {
        let shared = &self.shared;
        let mut gate = shared.wait_while(|g| !g.complete && g.accept_failed.is_none());
        if let Some(e) = gate.accept_failed.take() {
            return Err(e);
        }
        drop(gate);
        self.finalize()?;
        // A wait for a duration, not until an instant: no `--linger-secs`
        // can overflow a deadline.
        let linger = shared.limits.linger;
        let lingered = shared
            .gate_changed
            .wait_timeout_while(shared.gate(), linger, |g| g.accept_failed.is_none());
        let (mut gate, _) = lingered.unwrap_or_else(PoisonError::into_inner);
        gate.accept_failed.take().map_or(Ok(()), Err)
    }

    /// The sweep is complete: waits until the final (finished) checkpoint
    /// is durable, then writes the figure's reports, exactly as `repro
    /// merge` would. Nothing folds once `complete` is set, so the counters
    /// and the cells read under the fold lock are final, and the reports
    /// are written from a clone, outside it. A final checkpoint that could
    /// not be written fails the run, after the reports are written.
    fn finalize(&self) -> Result<(), String> {
        let shared = &self.shared;
        let fold = shared.fold.lock().expect("fold poisoned");
        let (posts, duplicates) = (fold.accepted_posts, fold.duplicate_trials);
        let reissued = fold.store.reissued;
        let cells = fold.cells.clone();
        drop(fold);
        let durable = commit(shared, posts);
        println!(
            "[serve] {} complete: {posts} posts accepted, {duplicates} duplicate trials \
             discarded, {reissued} leases re-issued",
            shared.exp.entry.name
        );
        shared
            .exp
            .report(&cells, "[serve]", &self.out_dir, self.json)?;
        durable.map_err(|e| format!("the final checkpoint could not be written: {e}"))
    }
}

/// `run` leaving: stops the acceptor and waits until every request read so
/// far is answered. A connection a handler is still reading does not hold
/// it.
struct Leaving<'a>(&'a Server);

impl Drop for Leaving<'_> {
    fn drop(&mut self) {
        let shared = &self.0.shared;
        shared.signal(|gate| gate.leaving = true);
        // One loopback connection wakes an acceptor blocked in `accept`; it
        // drops that connection unread.
        if let Ok(addr) = self.0.listener.local_addr() {
            let wake = SocketAddr::from((Ipv4Addr::LOCALHOST, addr.port()));
            let _ = TcpStream::connect_timeout(&wake, shared.limits.socket_timeout);
        }
        drop(shared.wait_while(|gate| gate.answering > 0));
    }
}

/// The acceptor: blocks in `accept` and hands each connection to a handler
/// thread of its own. At the handler cap it waits for a slot, so excess
/// connections wait in the listen backlog. It ends when `run` leaves, or
/// on an error, which it reports to `run`.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let cap = shared.limits.max_handlers;
    let fail = |e: String| shared.signal(|gate| gate.accept_failed = Some(e));
    loop {
        if shared
            .wait_while(|g| g.handlers >= cap && !g.leaving)
            .leaving
        {
            return;
        }
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(e) => return fail(format!("accept failed: {e}")),
        };
        let mut gate = shared.gate();
        if gate.leaving {
            return;
        }
        gate.handlers += 1;
        drop(gate);
        // The thread owns the slot, so its exit frees it.
        let slot = Slot {
            shared: Arc::clone(shared),
            answering: false,
        };
        let handler = std::thread::Builder::new().spawn(move || handle_connection(stream, slot));
        if let Err(e) = handler {
            return fail(format!("cannot start a request handler: {e}"));
        }
    }
}

// ---------------------------------------------------------------------------
// Request handling.
// ---------------------------------------------------------------------------

struct Request {
    method: String,
    path: String,
    body: String,
}

fn handle_connection(mut stream: TcpStream, mut slot: Slot) {
    let timeout = Some(slot.shared.limits.socket_timeout);
    let _ = stream.set_read_timeout(timeout);
    let _ = stream.set_write_timeout(timeout);
    let _ = stream.set_nodelay(true);
    let request = read_request(&mut stream, &slot.shared);
    if !slot.answer() {
        return;
    }
    let shared = &slot.shared;
    let (status, body) = match request {
        Ok(req) => route(&req, shared),
        Err((status, e)) => (status, error_body(&e)),
    };
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        409 => "Conflict",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
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

/// Reads one request; an error carries the status to answer with.
fn read_request(stream: &mut TcpStream, shared: &Shared) -> Result<Request, (u16, String)> {
    let limits = &shared.limits;
    let bad = |e: String| (400, e);
    // A read that outlasts the socket timeout is named as such.
    let failed = |what: &str, e: std::io::Error| match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => bad(format!(
            "{what} stalled past the {:?} socket timeout",
            limits.socket_timeout
        )),
        _ => bad(format!("cannot read {what}: {e}")),
    };
    let mut reader = BufReader::new(stream);
    // The request line and headers draw on one `max_head_bytes` budget; a
    // line still unterminated when it runs out is refused with 431.
    let mut head = (&mut reader).take(limits.max_head_bytes as u64);
    let mut head_line = || {
        let mut line = String::new();
        head.read_line(&mut line)
            .map_err(|e| failed("request head", e))?;
        if head.limit() == 0 && !line.ends_with('\n') {
            let cap = limits.max_head_bytes;
            return Err((431, format!("request head exceeds the {cap}-byte cap")));
        }
        Ok(line)
    };
    let line = head_line()?;
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let path = parts.next().unwrap_or_default().to_string();
    if method.is_empty() || path.is_empty() {
        return Err(bad("malformed request line".to_string()));
    }
    let mut content_length = None;
    loop {
        let header = head_line()?;
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        if let Some((key, value)) = header.split_once(':') {
            if key.eq_ignore_ascii_case("content-length") {
                let len: usize = value
                    .trim()
                    .parse()
                    .map_err(|_| bad(format!("bad content-length {value:?}")))?;
                // Two lengths leave the body's end ambiguous (RFC 9112 §6.3).
                if content_length.replace(len).is_some() {
                    return Err(bad("repeated content-length".to_string()));
                }
            }
        }
    }
    let (content_length, cap) = (content_length.unwrap_or(0), limits.max_body_bytes);
    if content_length > cap {
        return Err((
            413,
            format!("body of {content_length} bytes exceeds the {cap}-byte cap"),
        ));
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| failed("body", e))?;
    let body = String::from_utf8(body).map_err(|_| bad("body is not UTF-8".to_string()))?;
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

/// A `GET /lease` reply: what the coordinator encodes and a worker decodes,
/// so the two ends of the lease wire format are one type.
#[derive(Debug, Clone, PartialEq)]
pub enum LeaseReply {
    /// Run trials `[lo, hi)` of each `work` range of the sweep `experiment`,
    /// `full` and `trials` name, and POST them to `/result/<id>`.
    Lease {
        id: u64,
        experiment: String,
        full: bool,
        trials: u32,
        work: Vec<TrialRange>,
    },
    /// Everything is leased out: ask again after this pause.
    Wait(Duration),
    /// The sweep is complete.
    Done,
}

impl LeaseReply {
    /// The reply's JSON body.
    pub fn to_json(&self) -> String {
        match self {
            LeaseReply::Lease {
                id,
                experiment,
                full,
                trials,
                work,
            } => {
                let ranges: Vec<String> = work
                    .iter()
                    .map(|r| format!("[{},{},{}]", r.cell, r.lo, r.hi))
                    .collect();
                format!(
                    "{{\"status\":\"lease\",\"id\":{id},\"experiment\":{},\"full\":{full},\
                     \"trials\":{trials},\"work\":[{}]}}",
                    json_str(experiment),
                    ranges.join(",")
                )
            }
            LeaseReply::Wait(pause) => {
                format!("{{\"status\":\"wait\",\"retry_ms\":{}}}", pause.as_millis())
            }
            LeaseReply::Done => "{\"status\":\"done\"}".to_string(),
        }
    }

    /// Decodes a reply body. It checks the shape only: whether the lease
    /// names a sweep of this build and a valid plan of it is the worker's
    /// check. A `wait` without `retry_ms` pauses for the default poll.
    pub fn parse(body: &str) -> Result<LeaseReply, String> {
        let json = Json::parse(body)?;
        match json.field("status")?.as_str()? {
            "done" => Ok(LeaseReply::Done),
            "wait" => {
                let default = Limits::of(&Options::default()).wait_retry.as_millis() as f64;
                let ms = json.field("retry_ms").and_then(Json::as_f64);
                let ms = ms.unwrap_or(default).max(0.0);
                Ok(LeaseReply::Wait(Duration::from_millis(ms as u64)))
            }
            "lease" => {
                let mut work = Vec::new();
                for range in json.field("work")?.as_array()? {
                    let triple = range.as_array()?;
                    if triple.len() != 3 {
                        return Err("work ranges must be [cell, lo, hi]".to_string());
                    }
                    work.push(TrialRange {
                        cell: triple[0].as_u32()? as usize,
                        lo: triple[1].as_u32()?,
                        hi: triple[2].as_u32()?,
                    });
                }
                Ok(LeaseReply::Lease {
                    id: json.field("id")?.as_f64()? as u64,
                    experiment: json.field("experiment")?.as_str()?.to_string(),
                    full: json.field("full")?.as_bool()?,
                    trials: json.field("trials")?.as_u32()?,
                    work,
                })
            }
            other => Err(format!("unknown lease status {other:?}")),
        }
    }
}

fn lease_response(shared: &Shared) -> (u16, String) {
    let mut fold = shared.fold.lock().expect("fold poisoned");
    if shared.gate().complete {
        return (200, LeaseReply::Done.to_json());
    }
    let claimed = fold.store.claim(Instant::now());
    drop(fold);
    let exp = &shared.exp;
    let reply = match claimed {
        None => LeaseReply::Wait(shared.limits.wait_retry),
        Some((id, work)) => LeaseReply::Lease {
            id,
            experiment: exp.entry.name.to_string(),
            full: exp.opts.full,
            trials: exp.grid.trials,
            work,
        },
    };
    (200, reply.to_json())
}

fn metrics_response(shared: &Shared) -> (u16, String) {
    // Re-serve the sidecar bytes verbatim — one source of truth on disk.
    match std::fs::read_to_string(&shared.metrics_path) {
        Ok(text) => (200, text),
        Err(_) => (404, error_body("no metrics yet — no result accepted")),
    }
}

/// Reads a POST body as the cells of an artifact of `exp`'s sweep. Its
/// header is checked against the sweep before any cell is read, so a POST
/// for another sweep costs no more than its JSON parse. The error carries
/// its status: 400 for a body that does not parse, 409 for another sweep's
/// artifact or a torn trial.
fn read_post(exp: &Experiment, body: &str) -> Result<Vec<StatsCell>, (u16, String)> {
    let unparseable = |e: String| (400, format!("unparseable artifact: {e}"));
    let doc = Json::parse(body).map_err(unparseable)?;
    let header = ShardState::header(&doc).map_err(unparseable)?;
    exp.check(&header).map_err(|e| (409, e))?;
    let cells = header.with_cells(&doc).map_err(unparseable)?.into_cells();
    // A trial recorded for only some metrics cannot have come from this
    // pipeline; folding it would corrupt the master state.
    exp.grid.holes(&cells).map_err(|e| (409, e))?;
    Ok(cells)
}

fn result_response(shared: &Shared, id: u64, body: &str) -> (u16, String) {
    // Parse and validate outside the fold lock — the parse is the expensive
    // part, and its header, grid, duplicate, shape and torn-trial checks
    // (plus jsonin's depth cap) are what stand between untrusted bytes and
    // the master state.
    let posted = match read_post(&shared.exp, body) {
        Ok(cells) => cells,
        Err((status, e)) => return (status, error_body(&e)),
    };
    let mut fold = shared.fold.lock().expect("fold poisoned");
    if shared.gate().complete {
        // A straggler finishing after the sweep completed: its trials are
        // all duplicates by construction. Nothing to fold.
        return (200, LeaseReply::Done.to_json());
    }
    let stats = match fold.fold_post(&shared.exp, posted) {
        Ok(stats) => stats,
        Err(e) => return (409, error_body(&e)),
    };
    fold.store.complete(id, Instant::now());
    fold.accepted_posts += 1;
    fold.duplicate_trials += stats.duplicates;
    let recorded = recorded(&fold.cells);
    let remaining = fold.trials_total - recorded;
    // The fold is the only copy of the fleet's work, so the reply waits
    // until a checkpoint holds it; the final (finished) one doubles as the
    // clean-shutdown flush. Only the clone is taken under the fold lock.
    // Queuing it here, under the fold count as its ticket, keeps checkpoint
    // order the fold order. The POST that completes the sweep sets
    // `complete` here too, so a claim made after its fold answers `done`.
    let ticket = fold.accepted_posts;
    let snapshot = SweepSnapshot {
        cells: fold.cells.clone(),
        completed_trials: recorded,
        elapsed: shared.started.elapsed(),
        workers: fold.store.active.len().max(1),
        finished: remaining == 0,
    };
    shared.signal(|gate| {
        gate.queued = Some((ticket, snapshot));
        gate.complete = remaining == 0;
    });
    drop(fold);
    if let Err(e) = commit(shared, ticket) {
        return (
            503,
            error_body(&format!("folded, but not yet durable: {e}")),
        );
    }
    (
        200,
        format!(
            "{{\"status\":\"ok\",\"fresh\":{},\"duplicate\":{},\"remaining\":{remaining}}}",
            stats.fresh, stats.duplicates
        ),
    )
}

/// Returns once a durable checkpoint holds the fold of accepted POST
/// `ticket`, or with the error of the failed write that covered it. A
/// caller that finds no write running writes the newest queued snapshot
/// itself; the others wait for it on the gate. A write that fails or panics
/// still wakes them, and every waiter whose fold it covered gets its error
/// rather than hang.
fn commit(shared: &Shared, ticket: usize) -> Result<(), String> {
    let mut gate = shared.wait_while(|g| g.writing && g.durable < ticket);
    if gate.durable >= ticket {
        return Ok(());
    }
    if let Some((covered, e)) = &gate.failed {
        if *covered >= ticket {
            return Err(e.clone());
        }
    }
    // No write runs, and none covered this fold, so its snapshot or a newer
    // one is queued.
    let Some((newest, snapshot)) = gate.queued.take() else {
        return Err("no checkpoint write holds this fold".to_string());
    };
    gate.writing = true;
    drop(gate);
    let mut write = Writing {
        shared,
        ticket: newest,
        result: Err("the checkpoint write panicked".to_string()),
    };
    write.result = shared.writer.write_snapshot(snapshot);
    if let Err(e) = &write.result {
        eprintln!(
            "warning: checkpoint write failed: {e} (its POSTs get 503; the next write retries)"
        );
    }
    write.result.clone()
}

/// The checkpoint write in progress. Its end, a panic included, clears
/// `Gate::writing`, records its outcome and wakes every waiter.
struct Writing<'a> {
    shared: &'a Shared,
    /// The newest accepted POST the write covers.
    ticket: usize,
    /// What the write came to; a panic leaves the initial error.
    result: Result<(), String>,
}

impl Drop for Writing<'_> {
    fn drop(&mut self) {
        let (ticket, result) = (self.ticket, &self.result);
        self.shared.signal(|gate| {
            gate.writing = false;
            match result {
                Ok(()) => gate.durable = ticket,
                Err(e) => gate.failed = Some((ticket, e.clone())),
            }
        });
    }
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
    // A client knows no lease TTL: the default limits' timeout applies.
    let timeout = Limits::of(&Options::default()).socket_timeout;
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
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
    use crate::figures::sharding::find_shardable;
    use crate::figures::shared::SweepHooks;
    use crate::shard::ShardCell;

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
        assert_eq!(store.active.len(), 2);

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
    }

    /// A checkpoint write that panics strands no waiter: its guard clears
    /// `writing` and wakes them. A waiter whose snapshot went down with the
    /// write gets its error; one whose fold a newer queued snapshot holds
    /// writes that one itself.
    #[test]
    fn a_failed_checkpoint_write_strands_no_waiter() {
        let dir = std::env::temp_dir().join(format!("serve-commit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = Options {
            inputs: vec!["fig5".to_string()],
            trials: Some(2),
            out_dir: Some(dir.clone()),
            port: Some(0),
            ..Options::default()
        };
        let server = Server::start(&opts).unwrap();
        let shared = &*server.shared;
        // What a panicking write of the folds up to `ticket` leaves: its
        // guard dropped unfinished.
        let panicked = |ticket| {
            drop(Writing {
                shared,
                ticket,
                result: Err("the checkpoint write panicked".to_string()),
            })
        };

        shared.signal(|gate| gate.writing = true);
        std::thread::scope(|s| {
            let lost = s.spawn(|| commit(shared, 1));
            panicked(1);
            assert_eq!(
                lost.join().unwrap(),
                Err("the checkpoint write panicked".to_string())
            );
        });
        assert_eq!(shared.gate().durable, 0);

        let snapshot = SweepSnapshot {
            cells: Vec::new(),
            completed_trials: 0,
            elapsed: Duration::ZERO,
            workers: 1,
            finished: false,
        };
        shared.signal(|gate| {
            gate.writing = true;
            gate.queued = Some((2, snapshot));
        });
        std::thread::scope(|s| {
            let queued = s.spawn(|| commit(shared, 2));
            panicked(1);
            assert_eq!(queued.join().unwrap(), Ok(()));
        });
        let gate = shared.gate();
        assert!(!gate.writing && gate.queued.is_none());
        assert_eq!(gate.durable, 2);
        drop(gate);
        assert_eq!(
            load_checkpoint(&dir).unwrap().unwrap().1,
            0,
            "the waiter wrote seq 0"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Over the quick `saturation` grid (`LinearN`, loads 100–1000), the
    /// first lease out holds only load-1000 cells and the last holds every
    /// load-100 trial; together the leases tile the missing-work plan.
    #[test]
    fn leases_are_cut_heaviest_cell_first() {
        let exp = Experiment::new("saturation", &Options::default()).unwrap();
        let grid = &exp.grid;
        assert_eq!((grid.ns[0], grid.ns[grid.ns.len() - 1]), (100, 1000));
        let load = |cell: usize| grid.ns[cell % grid.ns.len()];
        let leases = exp.leases(&[], DEFAULT_LEASES).unwrap();
        assert_eq!(leases.len(), DEFAULT_LEASES);

        let first = &leases[0];
        assert!(first.iter().all(|r| load(r.cell) == 1000), "{first:?}");
        let last = &leases[DEFAULT_LEASES - 1];
        let lightest: usize = last
            .iter()
            .filter(|r| load(r.cell) == 100)
            .map(TrialRange::len)
            .sum();
        let lightest_cells = grid.algorithms.len();
        assert_eq!(lightest, lightest_cells * grid.trials as usize, "{last:?}");

        let trials = |ranges: &[TrialRange]| -> Vec<(usize, u32)> {
            let mut trials: Vec<_> = ranges
                .iter()
                .flat_map(|r| (r.lo..r.hi).map(move |t| (r.cell, t)))
                .collect();
            trials.sort_unstable();
            trials
        };
        let plan = exp.grid.holes(&[]).unwrap();
        assert_eq!(trials(&leases.concat()), trials(&plan));
    }

    #[test]
    fn fold_post_discards_replays_and_rejects_conflicting_duplicates() {
        let entry = find_shardable("fig5").unwrap();
        let opts = Options {
            trials: Some(2),
            ..Options::default()
        };
        let grid = (entry.grid)(&opts);
        let exp = Experiment::new("fig5", &opts).unwrap();
        let mut fold = Fold {
            cells: Vec::new(),
            store: JobStore::new(Vec::new(), Duration::from_secs(1)),
            trials_total: grid.cell_count() * grid.trials as usize,
            accepted_posts: 0,
            duplicate_trials: 0,
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
        let posted = (entry.cells)(&opts, &hooks);
        let replay = posted.clone();

        let first = fold.fold_post(&exp, posted).unwrap();
        assert_eq!(first.fresh, grid.cell_count());
        assert_eq!(first.duplicates, 0);
        let before = ShardState::from_cells("fig5", false, (0, 1), &grid, &fold.cells).to_json();
        let second = fold.fold_post(&exp, replay).unwrap();
        assert_eq!(second.fresh, 0);
        assert_eq!(second.duplicates, grid.cell_count());
        let after = ShardState::from_cells("fig5", false, (0, 1), &grid, &fold.cells).to_json();
        assert_eq!(before, after, "a replay must not change the master state");

        // A conflicting duplicate (same slot, different bits) is rejected.
        let tamper = |cell: &StatsCell| {
            let raw = cell.acc.raw_samples().iter().map(|s| {
                let mut buf = s.raw().to_vec();
                if !buf[0].is_nan() {
                    buf[0] += 1.0;
                }
                contention_stats::stream::StreamingSample::from_raw(buf)
            });
            StatsCell {
                acc: MetricStats::from_parts(grid.metrics.clone(), raw.collect()),
                ..cell.clone()
            }
        };
        let conflicting = vec![tamper(&fold.cells[0])];
        let err = fold.fold_post(&exp, conflicting).unwrap_err();
        assert!(err.contains("conflicting"), "{err}");

        // A rejected POST folds nothing: trial 1 of cell 0 is fresh, but it
        // rides ahead of a conflicting trial 0 of cell 1.
        let plan = [TrialRange {
            cell: 0,
            lo: 1,
            hi: 2,
        }];
        let hooks = SweepHooks {
            plan: Some(&plan),
            ..SweepHooks::default()
        };
        let mut mixed = (entry.cells)(&opts, &hooks);
        mixed.push(tamper(&fold.cells[1]));
        let err = fold.fold_post(&exp, mixed).unwrap_err();
        assert!(err.contains("conflicting"), "{err}");
        let rejected = ShardState::from_cells("fig5", false, (0, 1), &grid, &fold.cells).to_json();
        assert_eq!(
            after, rejected,
            "a rejected POST must leave the master as it was"
        );
    }

    /// A POST is checked against the sweep by its header before any cell is
    /// read: another sweep's artifact is a 409 naming it, even when its
    /// cells would not parse, and only this sweep's malformed cells are a
    /// 400. A torn trial in this sweep's cells is a 409.
    #[test]
    fn a_post_for_another_sweep_is_refused_by_its_header() {
        let opts = Options {
            trials: Some(2),
            ..Options::default()
        };
        let exp = Experiment::new("fig5", &opts).unwrap();
        let other = Experiment::new("fig3", &opts).unwrap();
        let foreign = ShardState::from_cells("fig3", false, (0, 1), &other.grid, &[]).to_json();
        let stray = "\"cells\": [\n    {\"algorithm\": \"beb\", \"n\": 999, \"samples\": []}\n  ]";
        for body in [foreign.clone(), foreign.replace("\"cells\": [\n  ]", stray)] {
            let (status, err) = read_post(&exp, &body).unwrap_err();
            assert_eq!(status, 409, "{err}");
            assert!(
                err.contains("artifact of \"fig3\" does not match \"fig5\""),
                "{err}"
            );
        }
        let own = ShardState::from_cells("fig5", false, (0, 1), &exp.grid, &[]).to_json();
        assert!(read_post(&exp, &own).unwrap().is_empty());
        let (status, err) = read_post(&exp, &own.replace("\"cells\": [\n  ]", stray)).unwrap_err();
        assert_eq!(status, 400, "{err}");
        assert_eq!(
            err,
            "unparseable artifact: cell (BEB, n=999) is outside the grid"
        );
        let (status, err) = read_post(&exp, "not json").unwrap_err();
        assert_eq!(status, 400, "{err}");
        assert!(err.starts_with("unparseable artifact: "), "{err}");

        // Trial 0 of one cell recorded for all metrics but the first.
        let exp = Experiment::new("saturation", &opts).unwrap();
        let grid = &exp.grid;
        let mut samples = vec![vec![1.0; grid.trials as usize]; grid.metrics.len()];
        samples[0][0] = f64::NAN;
        let (algorithm, n) = (grid.algorithms[0], grid.ns[0]);
        let torn = ShardState {
            experiment: "saturation".to_string(),
            full: false,
            shard: (0, 1),
            grid: grid.clone(),
            cells: vec![ShardCell {
                algorithm,
                n,
                samples,
            }],
        };
        let (status, err) = read_post(&exp, &torn.to_json()).unwrap_err();
        assert_eq!(status, 409, "{err}");
        assert!(
            err.contains("trial 0 is recorded for only some metrics"),
            "{err}"
        );
    }

    /// Each reply encodes to the bytes the coordinator has always sent and
    /// decodes back to itself.
    #[test]
    fn lease_replies_round_trip_through_the_wire_format() {
        let range = |cell, lo, hi| TrialRange { cell, lo, hi };
        for (reply, wire) in [
            (
                LeaseReply::Lease {
                    id: 7,
                    experiment: "fig5".to_string(),
                    full: true,
                    trials: 8,
                    work: vec![range(2, 0, 3), range(0, 6, 8)],
                },
                "{\"status\":\"lease\",\"id\":7,\"experiment\":\"fig5\",\"full\":true,\
                 \"trials\":8,\"work\":[[2,0,3],[0,6,8]]}",
            ),
            (
                LeaseReply::Wait(Duration::from_millis(200)),
                "{\"status\":\"wait\",\"retry_ms\":200}",
            ),
            (LeaseReply::Done, "{\"status\":\"done\"}"),
        ] {
            assert_eq!(reply.to_json(), wire);
            assert_eq!(LeaseReply::parse(wire).unwrap(), reply);
        }
        let err = LeaseReply::parse("{\"status\":\"gone\"}").unwrap_err();
        assert_eq!(err, "unknown lease status \"gone\"");
    }

    /// The body cap holds every artifact a worker posts for a lease of the
    /// fig5, saturation and scale sweeps, cut as `serve` cuts them, and
    /// the sweep's complete artifact, which a coordinator of one lease
    /// would take in one POST.
    #[test]
    fn every_honest_lease_artifact_fits_under_the_body_cap() {
        for name in ["fig5", "saturation", "scale"] {
            let dir = std::env::temp_dir().join(format!("serve-cap-{name}-{}", std::process::id()));
            let opts = Options {
                inputs: vec![name.to_string()],
                out_dir: Some(dir.clone()),
                port: Some(0),
                ..Options::default()
            };
            let server = Server::start(&opts).unwrap();
            let (cap, exp) = (server.limits().max_body_bytes, &server.shared.exp);
            let mut all = Vec::new();
            for lease in exp.leases(&[], DEFAULT_LEASES).unwrap() {
                let state = exp.run_plan(&lease, (0, 1));
                let posted = state.to_json().len();
                assert!(
                    posted <= cap,
                    "{name}: a {posted}-byte lease over the {cap}-byte cap"
                );
                all.extend(state.into_cells());
            }
            let complete = merge_cells(&exp.grid, Vec::new(), all, MetricStats::try_merge).unwrap();
            let state = ShardState::from_cells(name, false, (0, 1), &exp.grid, &complete);
            assert!(state.is_complete());
            let whole = state.to_json().len();
            assert!(
                whole <= cap,
                "{name}: the {whole}-byte sweep over the {cap}-byte cap"
            );
            drop(server);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
