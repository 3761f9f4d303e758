//! The generic sweep engine: one [`Simulator`] trait, one [`Sweep`], one
//! runner.
//!
//! Before this module existed, every execution backend (the abstract
//! windowed simulator, the 802.11g MAC simulator) carried its own
//! near-identical sweep struct, and many figures hand-rolled their own trial
//! loops on top. The engine collapses all of that into:
//!
//! * [`Simulator`] — how to run one trial of a backend: an associated
//!   `Config`, an associated raw `Output`, and a pure
//!   `run(config, n, rng) -> Output` function.
//! * [`run_trial`] — one trial with the canonical
//!   `(experiment tag, algorithm, n, trial)` RNG derivation. Every trial in
//!   the repository — sweeps, figures, tests — goes through this
//!   derivation, so any number anywhere is reproducible in isolation.
//! * [`Sweep`] — the Cartesian `(algorithm × n × trial)` grid, and its one
//!   runner, [`Sweep::run_fold_monitored`].
//!
//! Every run is a **plan**: a list of [`TrialRange`]s `(cell, lo, hi)`. A
//! direct run is one full range per cell, a `repro shard` the full ranges of
//! its cells, a resume the trials its checkpoint is missing, a work-server
//! lease whatever ranges it was handed. The runner claims the plan's trials
//! in tapered, heaviest-cell-first claims (see
//! [`parallel`](crate::parallel)) and **folds each trial's result into a
//! per-cell [`Accumulator`] inside the worker**. A figure that only needs
//! two metrics of a million-trial sweep retains two `f64`s per trial — not a
//! `TrialSummary` — which is what lets the abstract sweeps reach the paper's
//! full n = 10⁵ grid (and 10⁶) in one process. Per-trial RNG streams depend
//! only on grid coordinates, so every plan, thread count and claim schedule
//! yields bit-identical trials.
//!
//! A backend plugs in by implementing `Simulator`; nothing else in the
//! experiment layer changes. This is the seam where additional channel
//! models (e.g. the noisy/corrupted-slot model of arXiv:2408.11275) slot in.

use crate::monitor::{SnapshotCadence, SweepMonitor, SweepSnapshot};
use crate::parallel::{parallel_for_tapered, TaperSchedule};
use crate::progress::Progress;
use crate::summary::TrialSummary;
use contention_core::algorithm::AlgorithmKind;
use contention_core::rng::{experiment_tag, trial_rng};
use rand::rngs::SmallRng;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// How long the snapshot thread sleeps between cadence checks. Snapshots
/// themselves are taken at the requested cadence; this only bounds how stale
/// the "is one due?" decision can be.
const SNAPSHOT_POLL: Duration = Duration::from_millis(20);

/// One execution backend: everything [`Sweep`] needs to run trials of it.
///
/// Implementations are zero-sized entry points (trial state lives inside
/// `run_with`'s scratch arena), so a `Sweep<S>` is fully described by its
/// config and grid.
pub trait Simulator {
    /// Full per-trial configuration, including the algorithm under test.
    type Config: Clone + Send + Sync;
    /// Raw per-trial output. A [`Sweep`] folds it as a [`TrialSummary`], so
    /// sweepable backends implement `From<Output> for TrialSummary`.
    type Output: Send;
    /// Reusable per-worker scratch arena: event queues, station tables,
    /// occupancy buffers — everything a trial needs that is not part of its
    /// output. The engine builds one per worker thread and threads it
    /// through every trial that worker claims, so steady-state trials don't
    /// touch the allocator. Backends without reusable state use `()`.
    type Scratch: Default + Send;

    /// Short name used in diagnostics.
    const NAME: &'static str;

    /// The algorithm a config runs — used to derive the per-trial RNG.
    fn algorithm(config: &Self::Config) -> AlgorithmKind;

    /// A copy of `config` running `algorithm` instead; how [`Sweep`] builds
    /// each cell's config from its base config.
    fn with_algorithm(config: &Self::Config, algorithm: AlgorithmKind) -> Self::Config;

    /// One trial of `n` stations, using (and resetting) `scratch`. Must be
    /// a pure function of `(config, n, rng)` — the scratch arena may only
    /// affect *where* intermediate state lives, never a single output bit;
    /// determinism of every sweep rests on this.
    fn run_with(
        config: &Self::Config,
        n: u32,
        rng: &mut SmallRng,
        scratch: &mut Self::Scratch,
    ) -> Self::Output;

    /// One trial on a fresh scratch arena (single-shot callers).
    fn run(config: &Self::Config, n: u32, rng: &mut SmallRng) -> Self::Output {
        Self::run_with(config, n, rng, &mut Self::Scratch::default())
    }
}

/// Runs a single trial with the canonical RNG derivation.
///
/// This is the one place where `(experiment, algorithm, n, trial)` turns
/// into a generator; figures, sweeps and tests all share it.
pub fn run_trial<S: Simulator>(
    experiment: &str,
    config: &S::Config,
    n: u32,
    trial: u32,
) -> S::Output {
    run_trial_with::<S>(experiment, config, n, trial, &mut S::Scratch::default())
}

/// [`run_trial`] on a caller-owned scratch arena — what a caller measuring
/// or running many trials should use, mirroring the engine's per-worker
/// arena reuse. Bit-identical to `run_trial`.
pub fn run_trial_with<S: Simulator>(
    experiment: &str,
    config: &S::Config,
    n: u32,
    trial: u32,
    scratch: &mut S::Scratch,
) -> S::Output {
    let algorithm = S::algorithm(config);
    let mut rng = trial_rng(experiment_tag(experiment), algorithm, n, trial);
    S::run_with(config, n, &mut rng, scratch)
}

/// A per-cell streaming reducer: the engine folds each trial's result into
/// it inside the worker thread, instead of collecting results into a `Vec`.
///
/// Trials of a cell arrive **exactly once each but in arbitrary order**
/// (workers race). For the sweep to stay bit-identical across thread counts
/// and plans, the final state must not depend on arrival order: either
/// address by position (write trial `t` into slot `t` — what the built-in
/// collectors do) or fold with an exactly order-independent operation
/// (counts, integer sums, min/max). Order-*sensitive* floating-point folds
/// (e.g. running means) would silently break determinism — keep them out of
/// accumulators.
pub trait Accumulator<T> {
    /// Folds the result of trial `trial` (0-based within the cell) in.
    fn record(&mut self, trial: u32, value: T);
}

/// A half-open range `[lo, hi)` of grid-cell indices — the unit of
/// process-level sharding.
///
/// Cells are indexed in grid order (algorithms outer, `ns` inner), the same
/// order [`Sweep`] returns them in. Restricting a sweep to a cell range
/// changes *which* cells run, never what any cell computes: per-trial RNG
/// streams depend only on `(experiment, algorithm, n, trial)`, so the cells
/// of a ranged run are bit-identical to the same cells of a full run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellRange {
    /// First cell index covered.
    pub lo: usize,
    /// One past the last cell index covered.
    pub hi: usize,
}

impl CellRange {
    /// The contiguous range shard `index` of `of` covers in a grid of
    /// `cells` cells — the balanced partition `[i·C/N, (i+1)·C/N)`. Every
    /// shard is within one cell of the same size, and the `of` ranges tile
    /// `[0, cells)` exactly.
    pub fn shard(cells: usize, index: usize, of: usize) -> CellRange {
        assert!(of >= 1, "shard count must be at least 1");
        assert!(
            index < of,
            "shard index {index} out of range for {of} shards"
        );
        CellRange {
            lo: index * cells / of,
            hi: (index + 1) * cells / of,
        }
    }

    /// The contiguous range shard `index` of `of` covers in a grid whose
    /// cells carry the given estimated `weights` — the cost-balanced
    /// partition: shard boundaries land where the weight prefix crosses
    /// `i/of` of the total, so every shard gets (as nearly as contiguity
    /// allows) the same estimated *work*, not the same cell count. The `of`
    /// ranges tile `[0, weights.len())` exactly, like [`Self::shard`];
    /// with uniform weights the two partitions coincide. Non-finite,
    /// non-positive or all-zero weights degrade safely (junk entries count
    /// as zero; a zero total falls back to the count-balanced partition).
    pub fn shard_weighted(weights: &[f64], index: usize, of: usize) -> CellRange {
        assert!(of >= 1, "shard count must be at least 1");
        assert!(
            index < of,
            "shard index {index} out of range for {of} shards"
        );
        let cells = weights.len();
        let mut prefix = Vec::with_capacity(cells + 1);
        let mut acc = 0.0f64;
        prefix.push(0.0);
        for &w in weights {
            if w.is_finite() && w > 0.0 {
                acc += w;
            }
            prefix.push(acc);
        }
        let total = prefix[cells];
        if total <= 0.0 {
            return CellRange::shard(cells, index, of);
        }
        // Boundary i sits at the first prefix ≥ total·i/of; boundaries are
        // monotone because the goals are, and the final one is pinned to
        // `cells` so trailing zero-weight cells (and float slop) always
        // land in the last shard.
        let bound = |i: usize| -> usize {
            if i == of {
                return cells;
            }
            let goal = total * i as f64 / of as f64;
            prefix.partition_point(|&p| p < goal).min(cells)
        };
        CellRange {
            lo: bound(index),
            hi: bound(index + 1),
        }
    }

    /// The plan that runs every trial of these cells: one full
    /// `[0, trials)` range per cell.
    pub fn plan(&self, trials: u32) -> Vec<TrialRange> {
        (self.lo..self.hi)
            .map(|cell| TrialRange {
                cell,
                lo: 0,
                hi: trials,
            })
            .collect()
    }

    pub fn len(&self) -> usize {
        self.hi - self.lo
    }

    pub fn is_empty(&self) -> bool {
        self.lo == self.hi
    }
}

/// A contiguous run `[lo, hi)` of trial indices inside one grid cell — the
/// unit every sweep plan is made of.
///
/// Where [`CellRange`] splits a grid between processes a whole cell at a
/// time, a `TrialRange` splits *inside* a cell, so a single giant-`n` cell
/// can be spread across a fleet of workers. Like cell ranges, trial ranges
/// change only *which* trials run: per-trial RNG streams depend on
/// `(experiment, algorithm, n, trial)` alone, so the trials of any tiling
/// are bit-identical to the same trials of a full run — which is what lets
/// partial cells merge back losslessly through the accumulator seam.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialRange {
    /// Full-grid cell index (algorithms outer, `ns` inner).
    pub cell: usize,
    /// First trial index covered.
    pub lo: u32,
    /// One past the last trial index covered.
    pub hi: u32,
}

impl TrialRange {
    pub fn len(&self) -> usize {
        (self.hi - self.lo) as usize
    }

    pub fn is_empty(&self) -> bool {
        self.lo == self.hi
    }

    /// Partitions a plan into at most `target` leases of roughly equal
    /// estimated cost, each lease itself a plan.
    ///
    /// `trial_costs[cell]` is the estimated cost of one trial of that cell
    /// (the [`CostSpec`](crate::sched::CostSpec) per-trial table); lease
    /// boundaries land where the cost prefix crosses `k/target` of the
    /// total, so a heavy cell splits across as many leases as its weight
    /// demands while light neighbours coalesce into one. Junk cost entries
    /// (non-finite or non-positive, or a missing table entry) count as one
    /// unit, so a degenerate table degrades to trial-count balancing rather
    /// than collapsing the partition. The returned leases tile the plan
    /// exactly, in plan order, with consecutive trials of one cell fused
    /// into single ranges; empty leases are never emitted, so fewer than
    /// `target` leases come back when the plan is small.
    pub fn partition(
        plan: &[TrialRange],
        trial_costs: &[f64],
        target: usize,
    ) -> Vec<Vec<TrialRange>> {
        assert!(target >= 1, "lease target must be at least 1");
        let sane = |cell: usize| -> f64 {
            let c = trial_costs.get(cell).copied().unwrap_or(1.0);
            if c.is_finite() && c > 0.0 {
                c
            } else {
                1.0
            }
        };
        let total: f64 = plan.iter().map(|r| sane(r.cell) * r.len() as f64).sum();
        if total <= 0.0 {
            return Vec::new();
        }
        let goal = total / target as f64;
        let mut leases: Vec<Vec<TrialRange>> = Vec::new();
        let mut current: Vec<TrialRange> = Vec::new();
        let mut cum = 0.0f64;
        let fuse = |lease: &mut Vec<TrialRange>, cell: usize, trial: u32| {
            if let Some(last) = lease.last_mut() {
                if last.cell == cell && last.hi == trial {
                    last.hi = trial + 1;
                    return;
                }
            }
            lease.push(TrialRange {
                cell,
                lo: trial,
                hi: trial + 1,
            });
        };
        for range in plan {
            let w = sane(range.cell);
            for t in range.lo..range.hi {
                fuse(&mut current, range.cell, t);
                cum += w;
                // Close the lease once the global prefix crosses its share
                // of the total; the last lease absorbs whatever remains so
                // the tiling is exact.
                if leases.len() + 1 < target && cum >= goal * (leases.len() + 1) as f64 {
                    leases.push(std::mem::take(&mut current));
                }
            }
        }
        if !current.is_empty() {
            leases.push(current);
        }
        leases
    }
}

/// Checks a plan against a grid of `cells` cells with `trials` trials each:
/// every range names a grid cell and covers `lo < hi ≤ trials`, and no two
/// ranges share a trial (an overlap would record a trial twice).
///
/// Plans that enter from outside the process — a resumed checkpoint, a
/// leased range list — go through this first, so a bad one is a clean
/// `Err`; the engine re-checks every plan it runs and panics on a bad one,
/// which is then a programming error.
pub fn validate_plan(plan: &[TrialRange], cells: usize, trials: u32) -> Result<(), String> {
    for r in plan {
        if r.cell >= cells {
            return Err(format!(
                "plan cell {} is outside the {cells}-cell grid",
                r.cell
            ));
        }
        if r.lo >= r.hi || r.hi > trials {
            return Err(format!(
                "plan range [{}, {}) of cell {} is not a non-empty range of 0..{trials}",
                r.lo, r.hi, r.cell
            ));
        }
    }
    let mut sorted = plan.to_vec();
    sorted.sort_unstable_by_key(|r| (r.cell, r.lo));
    for pair in sorted.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        if a.cell == b.cell && b.lo < a.hi {
            return Err(format!(
                "plan ranges [{}, {}) and [{}, {}) of cell {} overlap",
                a.lo, a.hi, b.lo, b.hi, a.cell
            ));
        }
    }
    Ok(())
}

/// How a sweep executes: worker threads and whether to report progress.
/// Orthogonal to *what* the sweep computes — results are identical for
/// every policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecPolicy {
    /// Worker threads (`None` = all available, `Some(0|1)` = sequential).
    /// The engine caps the effective count at the machine's available
    /// parallelism — oversubscribed workers cost context switches without
    /// buying wall-clock, and results never depend on the worker count.
    pub threads: Option<usize>,
    /// Report trials-completed / ETA on stderr (only when stderr is a TTY).
    pub progress: bool,
}

impl ExecPolicy {
    /// Policy with an explicit worker count.
    pub fn threads(threads: usize) -> ExecPolicy {
        ExecPolicy {
            threads: Some(threads),
            ..ExecPolicy::default()
        }
    }
}

/// One cell of a folded sweep: the accumulator state after every planned
/// trial of one `(algorithm, n)` pair has been folded in.
#[derive(Debug, Clone, PartialEq)]
pub struct FoldedCell<A> {
    pub algorithm: AlgorithmKind,
    pub n: u32,
    pub acc: A,
}

/// A Cartesian `(algorithm × n × trial)` sweep over one simulator.
///
/// Every trial derives its RNG from `(experiment tag, algorithm, n, trial)`,
/// so the sweep's numbers are independent of thread count, plan shape and
/// scheduling.
pub struct Sweep<S: Simulator> {
    /// RNG namespace; also names the experiment in outputs.
    pub experiment: &'static str,
    /// Base configuration; the sweep overrides the algorithm per cell.
    pub config: S::Config,
    pub algorithms: Vec<AlgorithmKind>,
    pub ns: Vec<u32>,
    pub trials: u32,
    /// Execution policy (threads / progress).
    pub exec: ExecPolicy,
}

impl<S: Simulator> Clone for Sweep<S> {
    fn clone(&self) -> Sweep<S> {
        Sweep {
            experiment: self.experiment,
            config: self.config.clone(),
            algorithms: self.algorithms.clone(),
            ns: self.ns.clone(),
            trials: self.trials,
            exec: self.exec,
        }
    }
}

impl<S: Simulator> std::fmt::Debug for Sweep<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sweep")
            .field("simulator", &S::NAME)
            .field("experiment", &self.experiment)
            .field("algorithms", &self.algorithms)
            .field("ns", &self.ns)
            .field("trials", &self.trials)
            .field("exec", &self.exec)
            .finish()
    }
}

impl<S: Simulator> Sweep<S> {
    /// Number of `(algorithm, n)` cells in the full grid — what
    /// [`CellRange::shard`] partitions.
    pub fn cell_count(&self) -> usize {
        self.algorithms.len() * self.ns.len()
    }

    /// Cells are keyed by `(algorithm, n)` grid position; a duplicate grid
    /// entry would silently split a cell's trials across two cells.
    fn validate_grid(&self) {
        for (i, a) in self.algorithms.iter().enumerate() {
            assert!(
                !self.algorithms[..i].contains(a),
                "duplicate algorithm {a} in sweep grid"
            );
        }
        for (i, n) in self.ns.iter().enumerate() {
            assert!(!self.ns[..i].contains(n), "duplicate n={n} in sweep grid");
        }
    }

    /// The `(algorithm, n)` coordinates of full-grid cell `cell`.
    fn coords(&self, cell: usize) -> (AlgorithmKind, u32) {
        let ns = self.ns.len();
        (self.algorithms[cell / ns], self.ns[cell % ns])
    }
}

impl<S: Simulator> Sweep<S>
where
    TrialSummary: From<S::Output>,
{
    /// Runs `plan` — the whole grid when `None` — folding each trial's
    /// [`TrialSummary`] into a per-cell accumulator built by
    /// `init(algorithm, n, trials)`. Returns one [`FoldedCell`] per cell the
    /// plan touches, in grid order.
    ///
    /// * `plan` — the [`TrialRange`]s to run; indices address the full
    ///   `algorithms × ns` grid. One cell may appear in several ranges, but
    ///   no trial twice ([`validate_plan`] holds, or this panics).
    ///   Per-trial values are bit-identical to the same trials of any other
    ///   plan.
    /// * `monitor` — a snapshot sink called on `cadence` from a dedicated
    ///   thread with clones of the in-flight accumulators (each under its
    ///   own cell lock — workers keep claiming), plus once more (with
    ///   `finished: true`) after the workers join. Snapshots are read-only:
    ///   results are unaffected by the monitor's presence. If a trial
    ///   panics, the snapshot thread stops without a finished snapshot (the
    ///   last periodic one stays the resume point) and the panic
    ///   propagates.
    /// * `costs` — estimated per-trial cost of every full-grid cell (same
    ///   order as `algorithms × ns`), from the experiment's
    ///   [`CostSpec`](crate::sched::CostSpec). Scheduling-only: ranges of
    ///   the heaviest cells are claimed first and claim sizes taper by
    ///   remaining estimated work; any table (a wrong one, or `None` for
    ///   uniform) yields bit-identical results.
    pub fn run_fold_monitored<A, I>(
        &self,
        mut init: I,
        plan: Option<&[TrialRange]>,
        monitor: Option<(SnapshotCadence, &dyn SweepMonitor<A>)>,
        costs: Option<&[f64]>,
    ) -> Vec<FoldedCell<A>>
    where
        A: Accumulator<TrialSummary> + Clone + Send,
        I: FnMut(AlgorithmKind, u32, u32) -> A,
    {
        self.validate_grid();
        let cell_count = self.cell_count();
        let whole_grid;
        let plan = match plan {
            Some(plan) => {
                if let Err(e) = validate_plan(plan, cell_count, self.trials) {
                    panic!("invalid sweep plan: {e}");
                }
                plan
            }
            None => {
                whole_grid = CellRange {
                    lo: 0,
                    hi: cell_count,
                }
                .plan(self.trials);
                &whole_grid[..]
            }
        };
        if let Some(costs) = costs {
            assert!(
                costs.len() == cell_count,
                "cost table has {} entries for a {cell_count}-cell grid",
                costs.len()
            );
        }
        // Junk estimates (NaN, ±∞, negatives) count as zero weight so the
        // heaviest-first comparator below stays a total order.
        let cost = |cell: usize| match costs {
            None => 1.0,
            Some(c) if c[cell].is_finite() && c[cell] > 0.0 => c[cell],
            Some(_) => 0.0,
        };
        // One accumulator per touched cell, in grid order.
        let mut cells: Vec<usize> = plan.iter().map(|r| r.cell).collect();
        cells.sort_unstable();
        cells.dedup();
        let grid: Vec<(AlgorithmKind, u32)> = cells.iter().map(|&c| self.coords(c)).collect();
        let accumulators: Vec<Mutex<A>> = grid
            .iter()
            .map(|&(alg, n)| Mutex::new(init(alg, n, self.trials)))
            .collect();
        // Execution order: the plan's ranges, heaviest cells first (stable,
        // so a uniform table keeps plan order). The long-pole cells start
        // while plenty of light work remains to backfill the tail; results
        // are routed by cell, so the order is invisible in the output.
        let mut order: Vec<(usize, TrialRange)> = plan
            .iter()
            .map(|r| (cells.binary_search(&r.cell).expect("touched cell"), *r))
            .collect();
        order.sort_by(|a, b| cost(b.1.cell).total_cmp(&cost(a.1.cell)));
        let runs: Vec<(usize, f64)> = order.iter().map(|(_, r)| (r.len(), cost(r.cell))).collect();
        let schedule = TaperSchedule::new(&runs);
        let total = schedule.len();
        if total > 0 {
            // Cap the worker count at the machine's parallelism: results are
            // schedule-invariant, so workers beyond physical cores can only
            // add wakeup and context-switch overhead, never wall-clock.
            let threads = self
                .exec
                .threads
                .unwrap_or_else(default_threads)
                .min(default_threads());
            let progress = Progress::new(total, self.exec.progress);
            let tag = experiment_tag(self.experiment);
            let base = self.config.clone();
            // A claim is a contiguous run of work indices: one lookup finds
            // the range and trial it starts at, then consecutive indices
            // walk the ranges in order. Each worker owns one scratch arena
            // for its whole share of the sweep.
            let work = |claim: std::ops::Range<usize>, scratch: &mut S::Scratch| {
                let (mut k, offset) = schedule.locate(claim.start);
                let mut trial = order[k].1.lo + offset as u32;
                for _ in claim {
                    while trial == order[k].1.hi {
                        k += 1;
                        trial = order[k].1.lo;
                    }
                    let slot = order[k].0;
                    let (alg, n) = grid[slot];
                    let config = S::with_algorithm(&base, alg);
                    let mut rng = trial_rng(tag, alg, n, trial);
                    let value = TrialSummary::from(S::run_with(&config, n, &mut rng, scratch));
                    lock(&accumulators[slot]).record(trial, value);
                    progress.tick();
                    trial += 1;
                }
            };
            let run_workers =
                || parallel_for_tapered(&schedule, threads, S::Scratch::default, work);
            match monitor {
                None => run_workers(),
                Some((cadence, sink)) => {
                    // Set once the workers return: whether every trial ran.
                    let ended = OnceLock::new();
                    let started = Instant::now();
                    std::thread::scope(|scope| {
                        scope.spawn(|| {
                            let mut last_snap = Instant::now();
                            let mut last_done = 0usize;
                            loop {
                                // Read the end state *before* the counter:
                                // if workers finish in between, the final
                                // pass still runs with stopping == false and
                                // the next iteration takes the guaranteed
                                // finished snapshot.
                                let stopping = match ended.get() {
                                    None => false,
                                    Some(&true) => true,
                                    // A panicked run takes no final
                                    // snapshot: it is never reported
                                    // finished.
                                    Some(&false) => break,
                                };
                                let done = progress.completed();
                                if stopping || cadence.due(last_snap.elapsed(), done - last_done) {
                                    let cells = grid
                                        .iter()
                                        .zip(&accumulators)
                                        .map(|(&(algorithm, n), acc)| FoldedCell {
                                            algorithm,
                                            n,
                                            acc: lock(acc).clone(),
                                        })
                                        .collect();
                                    sink.snapshot(SweepSnapshot {
                                        cells,
                                        completed_trials: done,
                                        total_trials: total,
                                        elapsed: started.elapsed(),
                                        workers: threads,
                                        finished: stopping,
                                    });
                                    last_snap = Instant::now();
                                    last_done = done;
                                }
                                if stopping {
                                    break;
                                }
                                std::thread::sleep(SNAPSHOT_POLL);
                            }
                        });
                        // Without this catch a trial panic would leave
                        // the snapshot thread polling, and the scope would
                        // wait for it forever.
                        let run = catch_unwind(AssertUnwindSafe(run_workers));
                        let _ = ended.set(run.is_ok());
                        if let Err(payload) = run {
                            resume_unwind(payload);
                        }
                    });
                }
            }
            progress.finish();
        }
        grid.into_iter()
            .zip(accumulators)
            .map(|((algorithm, n), acc)| FoldedCell {
                algorithm,
                n,
                acc: acc.into_inner().unwrap_or_else(PoisonError::into_inner),
            })
            .collect()
    }
}

/// Locks a mutex, shrugging off poisoning. A worker's panic is re-raised
/// after the join and ends the sweep, so the other workers and the snapshot
/// thread must not turn it into poison panics of their own: the original
/// panic is the one that reaches the caller.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Looks up one cell in a folded sweep result.
pub fn folded<A>(cells: &[FoldedCell<A>], alg: AlgorithmKind, n: u32) -> &FoldedCell<A> {
    cells
        .iter()
        .find(|c| c.algorithm == alg && c.n == n)
        .unwrap_or_else(|| panic!("no cell for {alg} at n={n}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use contention_core::metrics::BatchMetrics;
    use rand::Rng;

    /// A deterministic toy backend: "runs" a trial by hashing its inputs.
    struct ToySim;

    #[derive(Debug, Clone, Copy)]
    struct ToyConfig {
        algorithm: AlgorithmKind,
        scale: u64,
    }

    impl Simulator for ToySim {
        type Config = ToyConfig;
        type Output = BatchMetrics;
        /// Trials-served counter: proves the engine hands one arena to each
        /// worker and reuses it across that worker's whole share.
        type Scratch = u64;
        const NAME: &'static str = "toy";

        fn algorithm(config: &ToyConfig) -> AlgorithmKind {
            config.algorithm
        }

        fn with_algorithm(config: &ToyConfig, algorithm: AlgorithmKind) -> ToyConfig {
            ToyConfig {
                algorithm,
                ..*config
            }
        }

        fn run_with(
            config: &ToyConfig,
            n: u32,
            rng: &mut SmallRng,
            scratch: &mut u64,
        ) -> BatchMetrics {
            *scratch += 1;
            BatchMetrics {
                n,
                successes: n,
                cw_slots: config.scale * rng.gen_range(1u64..100),
                ..BatchMetrics::default()
            }
        }
    }

    fn toy_sweep(exec: ExecPolicy) -> Sweep<ToySim> {
        Sweep::<ToySim> {
            experiment: "engine-test",
            config: ToyConfig {
                algorithm: AlgorithmKind::Beb,
                scale: 3,
            },
            algorithms: vec![AlgorithmKind::Beb, AlgorithmKind::Sawtooth],
            ns: vec![5, 10, 20],
            trials: 4,
            exec,
        }
    }

    /// Order-independent fold: exact count and integer sum of cw_slots.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    struct CwSum {
        count: u32,
        slots: u64,
    }

    impl Accumulator<TrialSummary> for CwSum {
        fn record(&mut self, _trial: u32, value: TrialSummary) {
            self.count += 1;
            self.slots += value.cw_slots as u64;
        }
    }

    fn cw_sum(_: AlgorithmKind, _: u32, _: u32) -> CwSum {
        CwSum::default()
    }

    /// Position-addressed capture of every trial's summary.
    #[derive(Debug, Clone, PartialEq)]
    struct Trials(Vec<Option<TrialSummary>>);

    impl Accumulator<TrialSummary> for Trials {
        fn record(&mut self, trial: u32, value: TrialSummary) {
            let slot = &mut self.0[trial as usize];
            assert!(slot.is_none(), "trial {trial} recorded twice");
            *slot = Some(value);
        }
    }

    fn trials(_: AlgorithmKind, _: u32, trials: u32) -> Trials {
        Trials(vec![None; trials as usize])
    }

    fn fold<A: Accumulator<TrialSummary> + Clone + Send>(
        sweep: &Sweep<ToySim>,
        init: fn(AlgorithmKind, u32, u32) -> A,
        plan: Option<&[TrialRange]>,
    ) -> Vec<FoldedCell<A>> {
        sweep.run_fold_monitored(init, plan, None, None)
    }

    /// The plan shapes every schedule must agree on: the whole grid, cell
    /// shards, and a sparse plan that splits one cell into two ranges.
    fn plan_shapes() -> Vec<Vec<Vec<TrialRange>>> {
        let r = |cell, lo, hi| TrialRange { cell, lo, hi };
        let whole = vec![CellRange { lo: 0, hi: 6 }.plan(4)];
        let shards = (0..3).map(|i| CellRange::shard(6, i, 3).plan(4)).collect();
        let split = vec![
            vec![r(2, 0, 1), r(0, 0, 4), r(2, 3, 4)],
            vec![r(1, 0, 4), r(2, 1, 3), r(3, 0, 4), r(4, 0, 4), r(5, 0, 4)],
        ];
        vec![whole, shards, split]
    }

    /// Merges the per-plan results of one plan shape back into grid order.
    fn reassemble(parts: Vec<Vec<FoldedCell<Trials>>>) -> Vec<FoldedCell<Trials>> {
        let mut merged: Vec<FoldedCell<Trials>> = Vec::new();
        for cell in parts.into_iter().flatten() {
            match merged
                .iter_mut()
                .find(|m| (m.algorithm, m.n) == (cell.algorithm, cell.n))
            {
                Some(m) => {
                    for (slot, value) in m.acc.0.iter_mut().zip(cell.acc.0) {
                        if value.is_some() {
                            assert!(slot.is_none(), "two plans recorded one trial");
                            *slot = value;
                        }
                    }
                }
                None => merged.push(cell),
            }
        }
        merged
    }

    #[test]
    fn grid_is_complete_and_cell_lookup_works() {
        let cells = fold(&toy_sweep(ExecPolicy::threads(2)), trials, None);
        assert_eq!(cells.len(), 6);
        assert!(cells.iter().all(|c| c.acc.0.iter().all(Option::is_some)));
        assert_eq!(folded(&cells, AlgorithmKind::Sawtooth, 20).n, 20);
    }

    #[test]
    fn results_are_independent_of_thread_count_and_plan_shape() {
        let golden = fold(&toy_sweep(ExecPolicy::threads(1)), trials, None);
        for threads in [1usize, 2, 7] {
            for shape in plan_shapes() {
                let sweep = toy_sweep(ExecPolicy::threads(threads));
                let parts = shape
                    .iter()
                    .map(|plan| fold(&sweep, trials, Some(plan)))
                    .collect();
                let mut got = reassemble(parts);
                got.sort_by_key(|c| {
                    let a = sweep.algorithms.iter().position(|&a| a == c.algorithm);
                    (a, sweep.ns.iter().position(|&n| n == c.n))
                });
                assert_eq!(golden, got, "threads={threads} plan={shape:?}");
            }
        }
    }

    #[test]
    fn plan_results_are_the_touched_cells_in_grid_order() {
        let r = |cell, lo, hi| TrialRange { cell, lo, hi };
        // Cells listed out of grid order, one split into two ranges.
        let plan = [r(4, 2, 4), r(1, 0, 1), r(4, 0, 1), r(0, 3, 4)];
        let dense = fold(&toy_sweep(ExecPolicy::threads(1)), trials, None);
        let cells = fold(&toy_sweep(ExecPolicy::threads(3)), trials, Some(&plan));
        let coords: Vec<_> = cells.iter().map(|c| (c.algorithm, c.n)).collect();
        let expect: Vec<_> = [0usize, 1, 4]
            .iter()
            .map(|&i| (dense[i].algorithm, dense[i].n))
            .collect();
        assert_eq!(coords, expect);
        // Exactly the planned trials ran, with the dense run's values.
        let recorded = |c: &FoldedCell<Trials>| -> Vec<u32> {
            (0..4).filter(|&t| c.acc.0[t as usize].is_some()).collect()
        };
        assert_eq!(recorded(&cells[0]), vec![3]);
        assert_eq!(recorded(&cells[1]), vec![0]);
        assert_eq!(recorded(&cells[2]), vec![0, 2, 3]);
        for t in [0usize, 2, 3] {
            assert_eq!(cells[2].acc.0[t], dense[4].acc.0[t]);
        }
    }

    #[test]
    fn cost_tables_reorder_claims_but_never_results() {
        // Skewed estimates with junk entries mixed in: heaviest-first order
        // and tapered claim sizes change, the fold must not — across thread
        // counts and plan shapes, with and without the cost table.
        let golden = fold(&toy_sweep(ExecPolicy::threads(1)), cw_sum, None);
        let costs = [f64::NAN, 0.0, 5.0, 1e9, 1.0, -2.0];
        for threads in [1usize, 2, 8] {
            let sweep = toy_sweep(ExecPolicy::threads(threads));
            for table in [Some(&costs[..]), None] {
                let got = sweep.run_fold_monitored(cw_sum, None, None, table);
                assert_eq!(golden, got, "threads={threads} costs={table:?}");
            }
            // A sparse plan draws each range's weight from its full-grid
            // cell; costs still only reorder.
            let plan = CellRange { lo: 2, hi: 5 }.plan(4);
            let ranged = sweep.run_fold_monitored(cw_sum, Some(&plan), None, Some(&costs));
            assert_eq!(ranged[..], golden[2..5], "threads={threads} ranged");
        }
    }

    #[test]
    #[should_panic(expected = "cost table has 2 entries")]
    fn wrong_cost_table_length_panics() {
        let costs = [1.0, 2.0];
        let _ =
            toy_sweep(ExecPolicy::threads(1)).run_fold_monitored(cw_sum, None, None, Some(&costs));
    }

    #[test]
    fn weighted_shards_tile_the_grid() {
        let weights = [3.0, 0.5, f64::NAN, 8.0, 1.0, 0.0, 2.5, 4.0, -1.0, 6.0];
        for of in [1usize, 2, 3, 4, 7, 10, 13] {
            let mut next = 0;
            for index in 0..of {
                let shard = CellRange::shard_weighted(&weights, index, of);
                assert_eq!(shard.lo, next, "shard {index}/{of} left a gap");
                assert!(shard.hi >= shard.lo);
                next = shard.hi;
            }
            assert_eq!(next, weights.len(), "shards {of} did not cover the grid");
        }
    }

    #[test]
    fn weighted_shards_balance_work_better_than_counts() {
        // One heavy head cell: the count split hands shard 0 the head plus
        // half the light cells; the weighted split cuts right after it.
        let weights = [8.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let cost = |r: CellRange| weights[r.lo..r.hi].iter().sum::<f64>();
        let weighted_max = (0..2)
            .map(|i| cost(CellRange::shard_weighted(&weights, i, 2)))
            .fold(0.0f64, f64::max);
        let count_max = (0..2)
            .map(|i| cost(CellRange::shard(weights.len(), i, 2)))
            .fold(0.0f64, f64::max);
        assert!(
            weighted_max < count_max,
            "weighted split ({weighted_max}) should beat count split ({count_max})"
        );
        // Trailing zero-weight cells still land in the last shard.
        let tail_zeros = [5.0, 5.0, 0.0, 0.0];
        let last = CellRange::shard_weighted(&tail_zeros, 1, 2);
        assert_eq!((last.lo, last.hi), (1, 4));
    }

    #[test]
    fn degenerate_weights_fall_back_to_count_shards() {
        for weights in [vec![0.0; 5], vec![f64::NAN; 5], vec![-3.0; 5], vec![]] {
            for of in [1usize, 2, 3] {
                for index in 0..of {
                    assert_eq!(
                        CellRange::shard_weighted(&weights, index, of),
                        CellRange::shard(weights.len(), index, of),
                        "weights {weights:?} shard {index}/{of}"
                    );
                }
            }
        }
        // Uniform weights coincide with the count-balanced partition too.
        for index in 0..3 {
            assert_eq!(
                CellRange::shard_weighted(&[2.0; 9], index, 3),
                CellRange::shard(9, index, 3)
            );
        }
    }

    /// Every `(cell, trial)` a plan covers, in plan order.
    fn flatten(plan: &[TrialRange]) -> Vec<(usize, u32)> {
        plan.iter()
            .flat_map(|r| (r.lo..r.hi).map(move |t| (r.cell, t)))
            .collect()
    }

    #[test]
    fn trial_partition_tiles_the_plan_exactly() {
        let r = |cell, lo, hi| TrialRange { cell, lo, hi };
        let plan = vec![r(0, 0, 3), r(2, 1, 2), r(2, 3, 4), r(5, 0, 1)];
        let costs = [1.0, 1.0, 4.0, 1.0, 1.0, 2.0];
        for target in 1..=8 {
            let leases = TrialRange::partition(&plan, &costs, target);
            assert!(leases.len() <= target, "target {target}");
            assert!(leases.iter().all(|l| !l.is_empty()));
            assert_eq!(flatten(&leases.concat()), flatten(&plan), "target {target}");
        }
        // target 1 is a single lease covering everything, with the
        // consecutive trials of cell 0 kept as one range.
        let one = TrialRange::partition(&plan, &costs, 1);
        assert_eq!(one, vec![plan.clone()]);
    }

    #[test]
    fn trial_partition_splits_heavy_cells_and_coalesces_light_ones() {
        // One cell carries ~94% of the work: it must spread over most of
        // the leases while the light cells share the remainder.
        let r = |cell, lo, hi| TrialRange { cell, lo, hi };
        let plan = vec![r(0, 0, 64), r(1, 0, 2), r(2, 0, 2)];
        let costs = [16.0, 1.0, 1.0];
        let leases = TrialRange::partition(&plan, &costs, 4);
        assert_eq!(leases.len(), 4);
        let heavy_leases = leases
            .iter()
            .filter(|l| l.iter().any(|r| r.cell == 0))
            .count();
        assert!(
            heavy_leases >= 3,
            "heavy cell should span most leases, spanned {heavy_leases}"
        );
        // Estimated cost per lease stays near total/target.
        let cost_of =
            |l: &Vec<TrialRange>| -> f64 { l.iter().map(|r| costs[r.cell] * r.len() as f64).sum() };
        let total: f64 = leases.iter().map(cost_of).sum();
        let goal = total / 4.0;
        for l in &leases {
            assert!(
                cost_of(l) <= goal + costs[0],
                "lease cost {} exceeds goal {goal} by more than one heavy trial",
                cost_of(l)
            );
        }
        assert_eq!(flatten(&leases.concat()), flatten(&plan));
    }

    #[test]
    fn trial_partition_degrades_safely_on_junk_costs_and_empty_plans() {
        let r = |cell, lo, hi| TrialRange { cell, lo, hi };
        let plan = vec![r(0, 0, 2), r(1, 0, 2)];
        // Junk costs count as one unit each: 4 trials over 2 leases = 2 + 2.
        for costs in [vec![f64::NAN, -1.0], vec![0.0, 0.0], vec![]] {
            let leases = TrialRange::partition(&plan, &costs, 2);
            assert_eq!(leases.len(), 2, "costs {costs:?}");
            assert_eq!(flatten(&leases.concat()).len(), 4);
            assert_eq!(leases[0].iter().map(TrialRange::len).sum::<usize>(), 2);
        }
        // An empty plan yields no leases at all.
        assert!(TrialRange::partition(&[], &[1.0], 3).is_empty());
        // More leases requested than trials available: every lease that
        // does come back holds at least one trial.
        let tiny = TrialRange::partition(&plan, &[1.0, 1.0], 16);
        assert!(tiny.len() <= 4);
        assert_eq!(flatten(&tiny.concat()), flatten(&plan));
    }

    #[test]
    fn validate_plan_rejects_bad_ranges_cleanly() {
        let r = |cell, lo, hi| TrialRange { cell, lo, hi };
        assert_eq!(validate_plan(&[], 6, 4), Ok(()));
        assert_eq!(
            validate_plan(&[r(5, 0, 2), r(5, 2, 4), r(0, 1, 3)], 6, 4),
            Ok(())
        );
        for (plan, expect) in [
            (vec![r(6, 0, 1)], "outside the 6-cell grid"),
            (vec![r(1, 2, 2)], "not a non-empty range"),
            (vec![r(1, 3, 1)], "not a non-empty range"),
            (vec![r(1, 0, 5)], "not a non-empty range"),
            (vec![r(2, 2, 4), r(0, 0, 1), r(2, 0, 3)], "overlap"),
            (vec![r(3, 1, 2), r(3, 1, 2)], "overlap"),
        ] {
            let err = validate_plan(&plan, 6, 4).unwrap_err();
            assert!(err.contains(expect), "{plan:?}: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid sweep plan")]
    fn overlapping_plan_panics_in_the_engine() {
        let plan = [TrialRange {
            cell: 0,
            lo: 0,
            hi: 2,
        }; 2];
        let _ = fold(&toy_sweep(ExecPolicy::threads(1)), cw_sum, Some(&plan));
    }

    #[test]
    #[should_panic(expected = "outside the 6-cell grid")]
    fn out_of_grid_plan_panics_in_the_engine() {
        let plan = CellRange { lo: 0, hi: 99 }.plan(4);
        let _ = fold(&toy_sweep(ExecPolicy::threads(1)), cw_sum, Some(&plan));
    }

    /// Counts snapshots and checks the final one is complete and flagged.
    #[derive(Default)]
    struct RecordingMonitor {
        snaps: Mutex<Vec<(usize, usize, bool)>>,
    }

    impl SweepMonitor<CwSum> for RecordingMonitor {
        fn snapshot(&self, snap: SweepSnapshot<CwSum>) {
            let folded: u32 = snap.cells.iter().map(|c| c.acc.count).sum();
            assert!(
                folded as usize <= snap.completed_trials,
                "snapshot saw more folded trials than the counter reported"
            );
            lock(&self.snaps).push((snap.completed_trials, snap.total_trials, snap.finished));
        }
    }

    #[test]
    fn monitored_run_takes_a_final_snapshot_and_leaves_results_unchanged() {
        let plain = fold(&toy_sweep(ExecPolicy::threads(2)), cw_sum, None);
        let monitor = RecordingMonitor::default();
        let monitored = toy_sweep(ExecPolicy::threads(2)).run_fold_monitored(
            cw_sum,
            None,
            Some((SnapshotCadence::trials(1), &monitor)),
            None,
        );
        assert_eq!(plain, monitored, "attaching a monitor changed the fold");
        let snaps = monitor.snaps.into_inner().unwrap();
        assert!(!snaps.is_empty());
        let &(done, total, finished) = snaps.last().unwrap();
        assert!(finished, "last snapshot must be flagged finished");
        assert_eq!((done, total), (24, 24));
        assert!(
            snaps[..snaps.len() - 1].iter().all(|&(_, _, f)| !f),
            "only the last snapshot may be flagged finished"
        );
    }

    /// [`ToySim`], except that every trial at n = 20 panics.
    struct PanickySim;

    impl Simulator for PanickySim {
        type Config = ToyConfig;
        type Output = BatchMetrics;
        type Scratch = u64;
        const NAME: &'static str = "panicky";

        fn algorithm(config: &ToyConfig) -> AlgorithmKind {
            config.algorithm
        }

        fn with_algorithm(config: &ToyConfig, algorithm: AlgorithmKind) -> ToyConfig {
            ToySim::with_algorithm(config, algorithm)
        }

        fn run_with(
            config: &ToyConfig,
            n: u32,
            rng: &mut SmallRng,
            scratch: &mut u64,
        ) -> BatchMetrics {
            if n == 20 {
                panic!("trial at n=20 failed");
            }
            ToySim::run_with(config, n, rng, scratch)
        }
    }

    #[test]
    fn a_panicking_trial_ends_a_monitored_run_unfinished() {
        for threads in [1usize, 2] {
            let (tx, rx) = std::sync::mpsc::channel();
            // The run gets its own thread, so a hang fails this test after
            // the timeout instead of stalling the suite.
            std::thread::spawn(move || {
                let sweep = Sweep::<PanickySim> {
                    experiment: "engine-test",
                    config: ToyConfig {
                        algorithm: AlgorithmKind::Beb,
                        scale: 3,
                    },
                    algorithms: vec![AlgorithmKind::Beb, AlgorithmKind::Sawtooth],
                    ns: vec![5, 10, 20],
                    trials: 4,
                    exec: ExecPolicy::threads(threads),
                };
                let monitor = RecordingMonitor::default();
                let run = catch_unwind(AssertUnwindSafe(|| {
                    let cadence = SnapshotCadence::secs(3600);
                    sweep.run_fold_monitored(cw_sum, None, Some((cadence, &monitor)), None)
                }));
                let message = run.err().and_then(|p| p.downcast_ref::<&str>().copied());
                let _ = tx.send((message, monitor.snaps.into_inner().unwrap()));
            });
            let (message, snaps) = rx
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|_| panic!("threads={threads}: a trial panic hung the run"));
            assert_eq!(message, Some("trial at n=20 failed"), "threads={threads}");
            // No periodic snapshot was due, and a panicked run takes no
            // final one: nothing may report it finished.
            assert_eq!(snaps, vec![], "threads={threads}");
        }
    }

    #[test]
    fn fold_init_sees_cell_coordinates() {
        let cells = toy_sweep(ExecPolicy::threads(1)).run_fold_monitored(
            |alg, n, trials| {
                assert_eq!(trials, 4);
                assert!(n == 5 || n == 10 || n == 20);
                assert!(alg == AlgorithmKind::Beb || alg == AlgorithmKind::Sawtooth);
                CwSum::default()
            },
            None,
            None,
            None,
        );
        assert!(cells.iter().all(|c| c.acc.count == 4));
    }

    #[test]
    fn run_trial_matches_the_sweep_stream() {
        // The single-trial entry point must hit the same RNG stream the
        // sweep derives, so lone trials and sweep trials are interchangeable.
        let cells = fold(&toy_sweep(ExecPolicy::threads(1)), trials, None);
        let config = ToyConfig {
            algorithm: AlgorithmKind::Beb,
            scale: 3,
        };
        let lone = run_trial::<ToySim>("engine-test", &config, 10, 2);
        assert_eq!(
            folded(&cells, AlgorithmKind::Beb, 10).acc.0[2],
            Some(TrialSummary::from(lone))
        );
    }

    #[test]
    fn zero_trials_yields_empty_cells() {
        let mut sweep = toy_sweep(ExecPolicy::threads(2));
        sweep.trials = 0;
        let cells = fold(&sweep, trials, None);
        assert_eq!(cells.len(), 6);
        assert!(cells.iter().all(|c| c.acc.0.is_empty()));
    }

    #[test]
    #[should_panic(expected = "no cell")]
    fn missing_cell_panics() {
        let cells: Vec<FoldedCell<CwSum>> = Vec::new();
        let _ = folded(&cells, AlgorithmKind::Beb, 10);
    }

    #[test]
    #[should_panic(expected = "duplicate n=10")]
    fn duplicate_grid_entries_are_rejected() {
        let mut sweep = toy_sweep(ExecPolicy::threads(1));
        sweep.ns = vec![10, 10];
        let _ = fold(&sweep, cw_sum, None);
    }

    #[test]
    #[should_panic(expected = "duplicate algorithm")]
    fn duplicate_algorithms_are_rejected() {
        let mut sweep = toy_sweep(ExecPolicy::threads(1));
        sweep.algorithms = vec![AlgorithmKind::Beb, AlgorithmKind::Beb];
        let _ = fold(&sweep, cw_sum, None);
    }

    /// `Default` bumps a global counter, so a test can count how many
    /// arenas the engine actually builds.
    struct CountedScratch;
    static SCRATCH_BUILDS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

    impl Default for CountedScratch {
        fn default() -> CountedScratch {
            SCRATCH_BUILDS.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            CountedScratch
        }
    }

    struct ScratchySim;

    impl Simulator for ScratchySim {
        type Config = ToyConfig;
        type Output = BatchMetrics;
        type Scratch = CountedScratch;
        const NAME: &'static str = "scratchy";

        fn algorithm(config: &ToyConfig) -> AlgorithmKind {
            config.algorithm
        }

        fn with_algorithm(config: &ToyConfig, algorithm: AlgorithmKind) -> ToyConfig {
            ToyConfig {
                algorithm,
                ..*config
            }
        }

        fn run_with(
            config: &ToyConfig,
            n: u32,
            rng: &mut SmallRng,
            _scratch: &mut CountedScratch,
        ) -> BatchMetrics {
            ToySim::run(config, n, rng)
        }
    }

    #[test]
    fn sequential_sweep_builds_exactly_one_scratch_arena() {
        let sweep = Sweep::<ScratchySim> {
            experiment: "engine-scratch",
            config: ToyConfig {
                algorithm: AlgorithmKind::Beb,
                scale: 1,
            },
            algorithms: vec![AlgorithmKind::Beb],
            ns: vec![5, 10],
            trials: 16,
            exec: ExecPolicy::threads(1),
        };
        let before = SCRATCH_BUILDS.load(std::sync::atomic::Ordering::SeqCst);
        let cells = sweep.run_fold_monitored(cw_sum, None, None, None);
        let built = SCRATCH_BUILDS.load(std::sync::atomic::Ordering::SeqCst) - before;
        assert_eq!(cells.len(), 2);
        assert_eq!(built, 1, "32 sequential trials must share one arena");
    }

    #[test]
    fn cell_range_runs_are_slices_of_the_full_grid() {
        let full = fold(&toy_sweep(ExecPolicy::threads(2)), trials, None);
        let cells = full.len();
        for of in [1usize, 2, 3, 7] {
            let mut pieces: Vec<FoldedCell<Trials>> = Vec::new();
            for index in 0..of {
                let range = CellRange::shard(cells, index, of);
                let part = fold(
                    &toy_sweep(ExecPolicy::threads(2)),
                    trials,
                    Some(&range.plan(4)),
                );
                assert_eq!(part.len(), range.len());
                pieces.extend(part);
            }
            assert_eq!(pieces, full, "sharding {of} ways changed results");
        }
    }

    #[test]
    fn shard_ranges_tile_the_grid_exactly() {
        for cells in [0usize, 1, 5, 6, 7, 100] {
            for of in [1usize, 2, 3, 7, 13] {
                let mut covered = 0;
                for index in 0..of {
                    let range = CellRange::shard(cells, index, of);
                    assert_eq!(range.lo, covered, "gap or overlap at shard {index}/{of}");
                    covered = range.hi;
                }
                assert_eq!(covered, cells, "shards of {cells} cells do not tile");
            }
        }
    }

    #[test]
    fn zero_threads_is_clamped_to_sequential() {
        let cells = fold(&toy_sweep(ExecPolicy::threads(0)), trials, None);
        assert_eq!(
            cells,
            fold(&toy_sweep(ExecPolicy::threads(1)), trials, None)
        );
    }
}
