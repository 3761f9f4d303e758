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
//! direct run is one full range per cell, a resume the trials its
//! checkpoint is missing, and a `repro shard` or work-server lease one of
//! the leases [`TrialRange::partition`] cuts. One private helper,
//! `heaviest_first`, orders work for both the runner and the cut: the
//! plan's ranges, heaviest cell first. Workers take the trials in that
//! order one at a time (see [`parallel`](crate::parallel)) and **fold each
//! trial's result into a per-cell [`Accumulator`] inside the worker**. A
//! figure that only needs two metrics of a million-trial sweep retains two
//! `f64`s per trial — not a `TrialSummary` — which is what lets the abstract
//! sweeps reach the paper's full n = 10⁵ grid (and 10⁶) in one process.
//! Per-trial RNG streams depend only on grid coordinates, so every plan,
//! thread count and claim order yields bit-identical trials.
//!
//! A backend plugs in by implementing `Simulator`; nothing else in the
//! experiment layer changes. This is the seam where additional channel
//! models (e.g. the noisy/corrupted-slot model of arXiv:2408.11275) slot in.

use crate::monitor::{Monitor, SweepSnapshot};
use crate::parallel::parallel_for;
use crate::progress::Progress;
use crate::summary::TrialSummary;
use contention_core::algorithm::AlgorithmKind;
use contention_core::rng::{experiment_tag, trial_rng};
use rand::rngs::SmallRng;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

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

/// A contiguous run `[lo, hi)` of trial indices inside one grid cell — the
/// unit every sweep plan is made of.
///
/// A plan of trial ranges can split a grid anywhere, inside a cell too, so
/// a single giant-`n` cell can be spread across a fleet of workers. Trial
/// ranges change only *which* trials run: per-trial RNG streams depend on
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
    /// estimated cost, each lease itself a plan: what `repro serve` hands
    /// out and `repro shard` runs one of.
    ///
    /// `trial_costs[cell]` is the estimated cost of one trial of that cell
    /// (the [`CostSpec`](crate::sched::CostSpec) per-trial table). The plan
    /// is first put heaviest cell first, as the engine orders its claims,
    /// so the first leases hold the heaviest cells and the last ones the
    /// lightest. Lease boundaries land where the cost prefix crosses
    /// `k/target` of the total, so a heavy cell splits across as many
    /// leases as its weight demands while light neighbours coalesce into
    /// one. A junk or missing cost counts as one unit, so a degenerate
    /// table degrades to trial-count balancing. The returned leases tile
    /// the plan exactly, with consecutive trials of one cell fused into
    /// single ranges; empty leases are never emitted, so fewer than
    /// `target` leases come back when the plan is small.
    pub fn partition(
        plan: &[TrialRange],
        trial_costs: &[f64],
        target: usize,
    ) -> Vec<Vec<TrialRange>> {
        assert!(target >= 1, "lease target must be at least 1");
        let plan = heaviest_first(plan, trial_costs);
        let total: f64 = plan
            .iter()
            .map(|r| trial_cost(trial_costs, r.cell) * r.len() as f64)
            .sum();
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
        for range in &plan {
            let w = trial_cost(trial_costs, range.cell);
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

/// The estimated cost of one trial of `cell`; a cost that is missing, not
/// finite or not positive counts as one unit.
fn trial_cost(trial_costs: &[f64], cell: usize) -> f64 {
    match trial_costs.get(cell) {
        Some(&c) if c.is_finite() && c > 0.0 => c,
        _ => 1.0,
    }
}

/// The one place that orders work: `plan`'s ranges, heaviest cell first by
/// [`trial_cost`]. The sort is stable, so equal costs (or no table at all)
/// keep plan order. The engine claims trials in this order and
/// [`TrialRange::partition`] cuts leases from it; results are routed by
/// position, so the order is invisible in the output.
fn heaviest_first(plan: &[TrialRange], trial_costs: &[f64]) -> Vec<TrialRange> {
    let mut order = plan.to_vec();
    order.sort_by(|a, b| {
        trial_cost(trial_costs, b.cell).total_cmp(&trial_cost(trial_costs, a.cell))
    });
    order
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
    /// Number of `(algorithm, n)` cells in the full grid.
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
    /// * `monitor` — a snapshot sink and its `cadence`. The worker that
    ///   folds and counts a trial then checks the cadence; when a snapshot
    ///   is due it calls the sink with clones of the in-flight accumulators
    ///   (each under its own cell lock — the other workers keep claiming).
    ///   A worker that finds another one checking skips the check instead
    ///   of waiting; the next trial to finish checks again, so a due
    ///   snapshot is late by a trial or so and never lost. The
    ///   plan's last trial takes no periodic snapshot: after the workers
    ///   join, the caller's thread takes the one with `finished: true`.
    ///   Snapshots are read-only: results are unaffected by the monitor's
    ///   presence. If a trial panics, the panic propagates without a
    ///   finished snapshot (the last periodic one stays the resume point);
    ///   a plan of zero trials takes no snapshot at all.
    /// * `costs` — estimated per-trial cost of every full-grid cell (same
    ///   order as `algorithms × ns`), from the experiment's
    ///   [`CostSpec`](crate::sched::CostSpec). Scheduling-only: workers
    ///   take one trial at a time, the heaviest cells' ranges first; any
    ///   table (a wrong one, or `None` for uniform) yields bit-identical
    ///   results.
    pub fn run_fold_monitored<A, I>(
        &self,
        mut init: I,
        plan: Option<&[TrialRange]>,
        monitor: Option<Monitor<A>>,
        costs: Option<&[f64]>,
    ) -> Vec<FoldedCell<A>>
    where
        A: Accumulator<TrialSummary> + Clone + Send,
        I: FnMut(AlgorithmKind, u32, u32) -> A,
    {
        self.validate_grid();
        let cell_count = self.cell_count();
        let whole_grid: Vec<TrialRange>;
        let plan = match plan {
            Some(plan) => {
                if let Err(e) = validate_plan(plan, cell_count, self.trials) {
                    panic!("invalid sweep plan: {e}");
                }
                plan
            }
            None => {
                whole_grid = (0..cell_count)
                    .map(|cell| TrialRange {
                        cell,
                        lo: 0,
                        hi: self.trials,
                    })
                    .collect();
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
        // One accumulator per touched cell, in grid order.
        let mut cells: Vec<usize> = plan.iter().map(|r| r.cell).collect();
        cells.sort_unstable();
        cells.dedup();
        let grid: Vec<(AlgorithmKind, u32)> = cells.iter().map(|&c| self.coords(c)).collect();
        let accumulators: Vec<Mutex<A>> = grid
            .iter()
            .map(|&(alg, n)| Mutex::new(init(alg, n, self.trials)))
            .collect();
        // Execution order: the plan's ranges, heaviest cells first. The
        // long-pole cells start while plenty of light work remains to
        // backfill the tail. Work index `i` is trial `i - start` of the last
        // range whose `start` is at most `i`, folded into accumulator `slot`.
        let order = heaviest_first(plan, costs.unwrap_or_default());
        let mut total = 0;
        let runs: Vec<(usize, usize)> = order
            .iter()
            .map(|r| {
                let run = (total, cells.binary_search(&r.cell).expect("touched cell"));
                total += r.len();
                run
            })
            .collect();
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
            let started = Instant::now();
            let snapshot = |completed_trials, finished| SweepSnapshot {
                cells: grid
                    .iter()
                    .zip(&accumulators)
                    .map(|(&(algorithm, n), acc)| FoldedCell {
                        algorithm,
                        n,
                        acc: lock(acc).clone(),
                    })
                    .collect(),
                completed_trials,
                elapsed: started.elapsed(),
                workers: threads,
                finished,
            };
            // When the last snapshot was taken, and how many trials it
            // counted. Only written under its lock, with a count read under
            // it, so the count never goes backwards.
            let mark = Mutex::new((started, 0usize));
            // Each worker owns one scratch arena for its whole share of the
            // sweep.
            let work = |index: usize, scratch: &mut S::Scratch| {
                let k = runs.partition_point(|&(start, _)| start <= index) - 1;
                let (start, slot) = runs[k];
                let trial = order[k].lo + (index - start) as u32;
                let (alg, n) = grid[slot];
                let config = S::with_algorithm(&base, alg);
                let mut rng = trial_rng(tag, alg, n, trial);
                let value = TrialSummary::from(S::run_with(&config, n, &mut rng, scratch));
                lock(&accumulators[slot]).record(trial, value);
                progress.tick();
                let Some((cadence, sink)) = monitor else {
                    return;
                };
                // Another worker is checking or snapshotting: the next trial
                // to finish checks again.
                let Ok(mut last) = mark.try_lock() else {
                    return;
                };
                // Read after this worker's tick and before the clone. Every
                // counted trial was folded before it was counted, so the
                // snapshot holds at least `done` trials.
                let done = progress.completed();
                if done < total && cadence.due(last.0.elapsed(), done - last.1) {
                    sink(snapshot(done, false));
                    *last = (Instant::now(), done);
                }
            };
            // A trial panic propagates from here: the run takes no finished
            // snapshot, so the last periodic one stays the resume point.
            parallel_for(total, threads, S::Scratch::default, work);
            if let Some((_, sink)) = monitor {
                sink(snapshot(total, true));
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
/// after the join and ends the sweep, so the other workers, and the
/// snapshots they take, must not turn it into poison panics of their own:
/// the original panic is the one that reaches the caller.
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
    use crate::monitor::SnapshotCadence;
    use contention_core::metrics::BatchMetrics;
    use rand::Rng;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Duration;

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

    /// Every trial of `cells`, one full `[0, trials)` range per cell.
    fn full_ranges(cells: std::ops::Range<usize>, trials: u32) -> Vec<TrialRange> {
        cells
            .map(|cell| TrialRange {
                cell,
                lo: 0,
                hi: trials,
            })
            .collect()
    }

    /// The plan shapes every schedule must agree on: the whole grid, the
    /// cost-weighted leases of 1, 2, 3 and 7 shards, and a sparse plan that
    /// splits one cell into two ranges.
    fn plan_shapes() -> Vec<Vec<Vec<TrialRange>>> {
        let r = |cell, lo, hi| TrialRange { cell, lo, hi };
        let whole = full_ranges(0..6, 4);
        let costs = [1.0, 2.0, 9.0, 1.0, 3.0, 3.0];
        let mut shapes: Vec<_> = [1, 2, 3, 7]
            .map(|of| TrialRange::partition(&whole, &costs, of))
            .into();
        shapes.push(vec![
            vec![r(2, 0, 1), r(0, 0, 4), r(2, 3, 4)],
            vec![r(1, 0, 4), r(2, 1, 3), r(3, 0, 4), r(4, 0, 4), r(5, 0, 4)],
        ]);
        shapes.push(vec![whole]);
        shapes
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
        // Skewed estimates with junk entries mixed in: the heaviest-first
        // claim order changes, the fold must not — across thread counts and
        // plan shapes, with and without the cost table.
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
            let plan = full_ranges(2..5, 4);
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

    /// Every `(cell, trial)` a plan covers, in plan order.
    fn flatten(plan: &[TrialRange]) -> Vec<(usize, u32)> {
        plan.iter()
            .flat_map(|r| (r.lo..r.hi).map(move |t| (r.cell, t)))
            .collect()
    }

    #[test]
    fn leases_come_heaviest_cell_first_and_tile_the_plan() {
        // A grid-order plan whose heaviest cell (2) comes third and whose
        // junk-cost cells (3 and 4) count as one unit, like cell 0.
        let r = |cell, lo, hi| TrialRange { cell, lo, hi };
        let plan = vec![
            r(0, 0, 3),
            r(1, 0, 2),
            r(2, 1, 2),
            r(2, 3, 4),
            r(3, 0, 1),
            r(4, 0, 2),
        ];
        let costs = [1.0, 2.0, 4.0, f64::NAN, -1.0];
        let order = heaviest_first(&plan, &costs);
        let cells: Vec<usize> = order.iter().map(|r| r.cell).collect();
        assert_eq!(cells, [2, 2, 1, 0, 3, 4], "stable, heaviest first");
        let mut sorted = flatten(&plan);
        sorted.sort_unstable();
        for target in 1..=12 {
            let leases = TrialRange::partition(&plan, &costs, target);
            assert!(leases.len() <= target, "target {target}");
            assert!(leases.iter().all(|l| !l.is_empty()));
            // The leases tile the heaviest-first order, so together they
            // hold every planned trial exactly once.
            assert_eq!(
                flatten(&leases.concat()),
                flatten(&order),
                "target {target}"
            );
            let mut got = flatten(&leases.concat());
            got.sort_unstable();
            assert_eq!(got, sorted, "target {target}");
            assert_eq!(leases[0][0].cell, 2, "target {target}");
        }
        // target 1 is a single lease covering everything, with the two
        // ranges of cell 2 left apart (trial 2 is not planned).
        let one = TrialRange::partition(&plan, &costs, 1);
        assert_eq!(one, vec![order.clone()]);
        // Cutting the ordered plan again changes nothing.
        for target in 1..=12 {
            assert_eq!(
                TrialRange::partition(&order, &costs, target),
                TrialRange::partition(&plan, &costs, target)
            );
        }
    }

    #[test]
    fn a_heaviest_first_plan_cuts_as_before() {
        // A plan already sorted heaviest cell first (as `repro serve` sorted
        // it before cutting) is cut in its own order. Total cost 30, goal
        // 10: cell 3's four trials of cost 5 fill the first two leases, and
        // the last lease takes everything else.
        let r = |cell, lo, hi| TrialRange { cell, lo, hi };
        let plan = vec![r(3, 0, 4), r(1, 0, 3), r(0, 0, 2), r(2, 1, 3)];
        let costs = [1.0, 2.0, 1.0, 5.0];
        assert_eq!(heaviest_first(&plan, &costs), plan);
        assert_eq!(
            TrialRange::partition(&plan, &costs, 3),
            vec![
                vec![r(3, 0, 2)],
                vec![r(3, 2, 4)],
                vec![r(1, 0, 3), r(0, 0, 2), r(2, 1, 3)],
            ]
        );
        // Without a cost table every trial weighs one unit and plan order
        // stands: 11 trials over 4 leases close at 3, 6 and 9 trials.
        assert_eq!(
            TrialRange::partition(&plan, &[], 4),
            vec![
                vec![r(3, 0, 3)],
                vec![r(3, 3, 4), r(1, 0, 2)],
                vec![r(1, 2, 3), r(0, 0, 2)],
                vec![r(2, 1, 3)],
            ]
        );
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
        let plan = full_ranges(0..99, 4);
        let _ = fold(&toy_sweep(ExecPolicy::threads(1)), cw_sum, Some(&plan));
    }

    /// Records each snapshot as `(completed_trials, finished)`, checking
    /// that it holds every trial it counts: a worker folds a trial before
    /// it counts it.
    #[derive(Default)]
    struct Recorder(Mutex<Vec<(usize, bool)>>);

    impl Recorder {
        fn record(&self, snap: SweepSnapshot<CwSum>) {
            let folded: u32 = snap.cells.iter().map(|c| c.acc.count).sum();
            assert!(
                folded as usize >= snap.completed_trials,
                "snapshot holds fewer folded trials than the counter reported"
            );
            lock(&self.0).push((snap.completed_trials, snap.finished));
        }
    }

    /// `sweep` folded into [`CwSum`]s with a [`Recorder`] on `cadence`: the
    /// cells and the snapshots it saw.
    fn monitored<S: Simulator>(
        sweep: &Sweep<S>,
        cadence: SnapshotCadence,
    ) -> (Vec<FoldedCell<CwSum>>, Vec<(usize, bool)>)
    where
        TrialSummary: From<S::Output>,
    {
        let recorder = Recorder::default();
        let sink = |snap| recorder.record(snap);
        let cells = sweep.run_fold_monitored(cw_sum, None, Some((cadence, &sink)), None);
        (cells, recorder.0.into_inner().unwrap())
    }

    #[test]
    fn monitored_run_takes_a_final_snapshot_and_leaves_results_unchanged() {
        let plain = fold(&toy_sweep(ExecPolicy::threads(2)), cw_sum, None);
        let (monitored, snaps) = monitored(
            &toy_sweep(ExecPolicy::threads(2)),
            SnapshotCadence::trials(1),
        );
        assert_eq!(plain, monitored, "attaching a monitor changed the fold");
        assert_eq!(snaps.last(), Some(&(24, true)), "{snaps:?}");
        assert!(
            snaps[..snaps.len() - 1]
                .iter()
                .all(|&(done, f)| done < 24 && !f),
            "only the last snapshot may count the last trial or be flagged finished: {snaps:?}"
        );
    }

    #[test]
    fn one_worker_snapshots_exactly_on_its_trial_cadence() {
        let sweep = toy_sweep(ExecPolicy::threads(1));
        for (every, periodic) in [(1, (1..24).collect()), (5, vec![5, 10, 15, 20])] {
            let (_, snaps) = monitored(&sweep, SnapshotCadence::trials(every));
            let expect: Vec<(usize, bool)> = periodic
                .into_iter()
                .map(|done| (done, false))
                .chain([(24, true)])
                .collect();
            assert_eq!(snaps, expect, "every {every} trials");
        }
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
                let recorder = Recorder::default();
                let sink = |snap| recorder.record(snap);
                let run = catch_unwind(AssertUnwindSafe(|| {
                    let cadence = SnapshotCadence::trials(1);
                    sweep.run_fold_monitored(cw_sum, None, Some((cadence, &sink)), None)
                }));
                let message = run.err().and_then(|p| p.downcast_ref::<&str>().copied());
                let _ = tx.send((message, recorder.0.into_inner().unwrap()));
            });
            let (message, snaps) = rx
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|_| panic!("threads={threads}: a trial panic hung the run"));
            assert_eq!(message, Some("trial at n=20 failed"), "threads={threads}");
            // A panicked run takes no finished snapshot.
            assert!(
                snaps.iter().all(|&(_, f)| !f),
                "threads={threads}: {snaps:?}"
            );
            if threads == 1 {
                // Plan order runs cells (BEB, 5) and (BEB, 10) before the
                // first n = 20 trial panics: 8 trials, each snapshotted.
                let expect: Vec<(usize, bool)> = (1..=8).map(|done| (done, false)).collect();
                assert_eq!(snaps, expect);
            }
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
    fn zero_threads_is_clamped_to_sequential() {
        let cells = fold(&toy_sweep(ExecPolicy::threads(0)), trials, None);
        assert_eq!(
            cells,
            fold(&toy_sweep(ExecPolicy::threads(1)), trials, None)
        );
    }
}
