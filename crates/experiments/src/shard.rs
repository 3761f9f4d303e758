//! Process-sharded sweep state: the `shard_state/v1` artifact.
//!
//! A sharded run (`repro shard <experiment> --shard i/N`) executes lease
//! `i` of the `N` leases [`TrialRange::partition`] cuts from a figure's
//! sweep grid — the lease `repro serve --leases N` hands out as `i` — and
//! serializes the resulting per-cell [`MetricStats`] — raw per-trial,
//! per-metric buffers, with holes where a lease holds only part of a cell —
//! to a JSON artifact. `repro merge` reads any set of such artifacts,
//! validates that they describe the same sweep, merges the per-cell
//! accumulator state with [`MetricStats::try_merge`], and hands the
//! reassembled cells to the figure's report builder. Because the
//! buffers are position-addressed and the JSON writer/reader pair is
//! round-trip exact ([`crate::jsonout`] / [`crate::jsonin`]), the merged
//! report is **byte-identical** to a single-process run — the property
//! `tests/shard_equivalence.rs` pins across backends, shard counts and
//! plan shapes.
//!
//! [`TrialRange::partition`]: contention_sim::engine::TrialRange::partition
//!
//! Artifact shape (`<experiment>.s<i>of<N>.shardstate.json`):
//!
//! ```json
//! {
//!   "schema": "shard_state/v1",
//!   "experiment": "fig5",
//!   "full": false,
//!   "trials": 3,
//!   "shard": [0, 3],
//!   "metrics": ["cw_slots"],
//!   "algorithms": ["beb", "lb", "llb", "stb"],
//!   "ns": [10, 50, 100, 150],
//!   "cells": [
//!     {"algorithm": "beb", "n": 10, "samples": [[53, 31, 57]]}
//!   ]
//! }
//! ```
//!
//! `samples` is one array per metric (in `metrics` order) of per-trial
//! values in trial order; an unrecorded trial slot is `null` (the NaN
//! sentinel), so partial state survives the round trip. A complete state —
//! what `merge` produces — is written as shard `[0, 1]`.
//!
//! A [`ShardState`] is built only to cross a file or a socket. Every mode
//! works on the engine's folded cells, and one walk, [`GridMeta::holes`],
//! decides which trials they hold: the resume plan, the leases `serve`
//! cuts, the incomplete-fold error of a report and the coordinator's
//! torn-trial check all read it.

use crate::aggregate::{MetricStats, StatsCell};
use crate::jsonin::Json;
use crate::jsonout::{escape, num};
use crate::summary::Metric;
use contention_core::algorithm::AlgorithmKind;
use contention_sim::engine::TrialRange;
use contention_sim::sched::CostSpec;
use contention_stats::stream::StreamingSample;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fs;
use std::hash::Hash;
use std::path::{Path, PathBuf};

/// Schema tag every artifact carries; bumped on layout changes.
pub const SHARD_SCHEMA: &str = "shard_state/v1";

/// File-name suffix `merge` scans directories for.
pub const SHARD_SUFFIX: &str = ".shardstate.json";

/// The sweep-grid coordinates a shardable experiment runs over — enough to
/// cut the grid into leases and to validate artifact compatibility at merge
/// time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridMeta {
    /// Algorithms, in grid (outer) order.
    pub algorithms: Vec<AlgorithmKind>,
    /// Station counts, in grid (inner) order.
    pub ns: Vec<u32>,
    /// Trials per cell.
    pub trials: u32,
    /// Metrics each cell folds out, in buffer order.
    pub metrics: Vec<Metric>,
    /// The analytic per-trial cost shape of this grid's backend — what the
    /// engine orders its claims by and the lease cut that `repro shard` and
    /// `repro serve` share weighs trials with. Serialized into artifacts so
    /// resumed/merged runs plan work with the same estimates.
    pub cost: CostSpec,
}

impl GridMeta {
    /// Number of `(algorithm, n)` cells in the grid.
    pub fn cell_count(&self) -> usize {
        self.algorithms.len() * self.ns.len()
    }

    /// The position of cell `(algorithm, n)` in canonical grid order
    /// (algorithms outer, ns inner): the order a single-process sweep
    /// returns cells in, which every reassembled state keeps so that its
    /// report is byte-identical. A cell off the grid is an error. The axes
    /// are indexed once, so a lookup costs O(1) however long they are.
    pub(crate) fn index(&self) -> impl Fn(AlgorithmKind, u32) -> Result<usize, String> {
        // The first listing of a coordinate wins, as a scan would find it.
        fn first<T: Copy + Eq + Hash>(axis: &[T]) -> HashMap<T, usize> {
            let mut at = HashMap::with_capacity(axis.len());
            for (i, &x) in axis.iter().enumerate() {
                at.entry(x).or_insert(i);
            }
            at
        }
        let (algorithms, ns, width) = (first(&self.algorithms), first(&self.ns), self.ns.len());
        move |algorithm, n| match (algorithms.get(&algorithm), ns.get(&n)) {
            (Some(a), Some(i)) => Ok(a * width + i),
            _ => Err(format!("cell ({algorithm}, n={n}) is outside the grid")),
        }
    }

    /// The trials `cells` lack, as the plan that runs them: [`TrialRange`]s
    /// in grid order, one per run of missing trials of a cell, so a cell no
    /// entry of `cells` holds is one range of all its trials and a complete
    /// fold gives an empty plan. This is the one rule for which trials a
    /// fold holds: a trial counts once every metric buffer holds it
    /// (`MetricStats::holds`, which `MetricStats::recorded` counts with).
    ///
    /// Each cell is placed once by its grid position, so the walk takes
    /// O(grid + slots) time. A cell off the grid or listed twice is an
    /// error, and so is a trial recorded for only some metrics: no fold
    /// produces one, and running it again would record its other metrics
    /// twice. Every buffer must be `trials` long, as in every fold and every
    /// parsed artifact.
    pub fn holes(&self, cells: &[StatsCell]) -> Result<Vec<TrialRange>, String> {
        let position = self.index();
        let mut placed: Vec<Option<&StatsCell>> = vec![None; self.cell_count()];
        for cell in cells {
            let (algorithm, n) = (cell.algorithm, cell.n);
            if placed[position(algorithm, n)?].replace(cell).is_some() {
                return Err(format!("cell ({algorithm}, n={n}) appears twice"));
            }
        }
        let trials = self.trials;
        let mut plan: Vec<TrialRange> = Vec::new();
        // Trials [lo, hi) of `cell` are missing: one more range, or a longer last one.
        let mut lacks = |cell: usize, lo: u32, hi: u32| match plan.last_mut() {
            Some(last) if last.cell == cell && last.hi == lo => last.hi = hi,
            _ => plan.push(TrialRange { cell, lo, hi }),
        };
        for (at, cell) in placed.into_iter().enumerate() {
            // A cell `cells` does not list is missing whole.
            let Some(cell) = cell else {
                if trials > 0 {
                    lacks(at, 0, trials);
                }
                continue;
            };
            let (algorithm, n) = (cell.algorithm, cell.n);
            for t in 0..trials {
                match cell.acc.holds(t as usize) {
                    Some(true) => {}
                    Some(false) => lacks(at, t, t + 1),
                    None => {
                        return Err(format!(
                            "cell ({algorithm}, n={n}) trial {t} is recorded for only some \
                             metrics — corrupt artifact"
                        ))
                    }
                }
            }
        }
        Ok(plan)
    }

    /// Estimated per-*trial* cost of every cell, in grid order (algorithms
    /// outer, ns inner) — the table the engine orders its claims by and
    /// [`TrialRange::partition`] cuts leases with.
    ///
    /// [`TrialRange::partition`]: contention_sim::engine::TrialRange::partition
    pub fn cell_trial_costs(&self) -> Vec<f64> {
        self.algorithms
            .iter()
            .flat_map(|_| self.ns.iter().map(|&n| self.cost.cost(n)))
            .collect()
    }
}

/// One cell's serialized accumulator state.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardCell {
    pub algorithm: AlgorithmKind,
    pub n: u32,
    /// Per-metric raw trial buffers (NaN = not yet recorded).
    pub samples: Vec<Vec<f64>>,
}

/// A partial (or, after merging, complete) sweep: the grid description plus
/// the accumulator state of the cells this shard ran.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardState {
    /// Registry name of the experiment (`fig5`, `scale`, …) — how `merge`
    /// finds the report builder.
    pub experiment: String,
    /// Whether the run used the paper's `--full` grids.
    pub full: bool,
    /// `(index, of)`: which lease of the grid's `of`-way cut this is. A
    /// complete state is `(0, 1)`.
    pub shard: (u32, u32),
    /// The grid the shard belongs to.
    pub grid: GridMeta,
    /// State of the cells the shard touched, in grid order.
    pub cells: Vec<ShardCell>,
}

impl ShardState {
    /// Captures the folded cells of a (partial) sweep run.
    pub fn from_cells(
        experiment: &str,
        full: bool,
        shard: (u32, u32),
        grid: &GridMeta,
        cells: &[StatsCell],
    ) -> ShardState {
        let cells = cells
            .iter()
            .map(|cell| {
                assert_eq!(
                    cell.acc.metrics(),
                    &grid.metrics[..],
                    "cell metrics must match the grid"
                );
                ShardCell {
                    algorithm: cell.algorithm,
                    n: cell.n,
                    samples: cell
                        .acc
                        .raw_samples()
                        .iter()
                        .map(|s| s.raw().to_vec())
                        .collect(),
                }
            })
            .collect();
        ShardState {
            experiment: experiment.to_string(),
            full,
            shard,
            grid: grid.clone(),
            cells,
        }
    }

    /// Rebuilds engine-shaped folded cells from the serialized state.
    pub fn into_cells(self) -> Vec<StatsCell> {
        let metrics = self.grid.metrics;
        self.cells
            .into_iter()
            .map(|cell| StatsCell {
                algorithm: cell.algorithm,
                n: cell.n,
                acc: MetricStats::from_parts(
                    metrics.clone(),
                    cell.samples
                        .into_iter()
                        .map(StreamingSample::from_raw)
                        .collect(),
                ),
            })
            .collect()
    }

    /// The canonical artifact file name.
    pub fn file_name(&self) -> String {
        format!(
            "{}.s{}of{}{SHARD_SUFFIX}",
            self.experiment, self.shard.0, self.shard.1
        )
    }

    /// True once every grid cell is present with every trial recorded.
    pub fn is_complete(&self) -> bool {
        self.grid
            .holes(&self.clone().into_cells())
            .is_ok_and(|plan| plan.is_empty())
    }

    /// Renders the artifact (see the module docs for the shape).
    pub fn to_json(&self) -> String {
        let grid = &self.grid;
        let list = |items: Vec<String>| items.join(", ");
        let quoted = |key: &str| format!("\"{}\"", escape(key));
        let mut out = format!(
            "{{\n  \"schema\": {},\n  \"experiment\": {},\n  \"full\": {},\n  \"trials\": {},\n  \
             \"cost\": {},\n  \"shard\": [{}, {}],\n  \"metrics\": [{}],\n  \"algorithms\": [{}],\n  \
             \"ns\": [{}],\n  \"cells\": [\n",
            quoted(SHARD_SCHEMA),
            quoted(&self.experiment),
            self.full,
            grid.trials,
            quoted(grid.cost.key()),
            self.shard.0,
            self.shard.1,
            list(grid.metrics.iter().map(|m| quoted(m.key())).collect()),
            list(grid.algorithms.iter().map(|a| quoted(&a.key())).collect()),
            list(grid.ns.iter().map(u32::to_string).collect()),
        );
        for (ci, cell) in self.cells.iter().enumerate() {
            let buffers = cell.samples.iter();
            let samples =
                buffers.map(|buf| format!("[{}]", list(buf.iter().map(|&v| num(v)).collect())));
            out.push_str(&format!(
                "    {{\"algorithm\": {}, \"n\": {}, \"samples\": [{}]}}{}\n",
                quoted(&cell.algorithm.key()),
                cell.n,
                list(samples.collect()),
                if ci + 1 < self.cells.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// The length of this header's artifact with every grid cell listed and
    /// each sample `width` characters wide (`null` is 4), whatever cells
    /// `self` holds. At [`SAMPLE_WIDTH`] it bounds every artifact with this
    /// header that honest trials fill.
    pub(crate) fn len_at(self, width: usize) -> usize {
        let grid = &self.grid;
        let every = grid.algorithms.iter().flat_map(|&algorithm| {
            let samples = vec![Vec::new(); grid.metrics.len()];
            grid.ns.iter().map(move |&n| ShardCell {
                algorithm,
                n,
                samples: samples.clone(),
            })
        });
        let cells: Vec<ShardCell> = every.collect();
        // Each `[]` of the frame takes `trials` samples joined by ", ".
        let buffer = (grid.trials as usize * (width + 2)).saturating_sub(2);
        let filled = cells.len() * grid.metrics.len() * buffer;
        ShardState { cells, ..self }.to_json().len() + filled
    }

    /// Parses and validates one artifact.
    pub fn parse(text: &str) -> Result<ShardState, String> {
        let doc = Json::parse(text)?;
        ShardState::header(&doc)?.with_cells(&doc)
    }

    /// Everything of a parsed artifact but its cells: a state with none,
    /// enough to tell whose sweep the artifact is before any cell is read.
    pub(crate) fn header(doc: &Json) -> Result<ShardState, String> {
        let schema = doc.field("schema")?.as_str()?;
        if schema != SHARD_SCHEMA {
            return Err(format!(
                "unsupported schema {schema:?} (this build reads {SHARD_SCHEMA:?})"
            ));
        }
        let experiment = doc.field("experiment")?.as_str()?.to_string();
        let full = doc.field("full")?.as_bool()?;
        let trials = doc.field("trials")?.as_u32()?;
        // No run records zero trials (`--trials 0` is rejected), and a
        // zero-trial grid has nothing to report.
        if trials == 0 {
            return Err("trials must be at least 1".to_string());
        }
        let cost = known(doc.field("cost")?, "cost spec", CostSpec::from_key)?;
        let shard_field = doc.field("shard")?.as_array()?;
        if shard_field.len() != 2 {
            return Err("shard must be [index, of]".to_string());
        }
        let shard = (shard_field[0].as_u32()?, shard_field[1].as_u32()?);
        if shard.1 == 0 || shard.0 >= shard.1 {
            return Err(format!(
                "bad shard coordinates {}/{} (need index < of, of >= 1)",
                shard.0, shard.1
            ));
        }
        let metrics = doc.field("metrics")?.as_array()?.iter();
        let metrics = metrics.map(|m| known(m, "metric", Metric::from_key));
        let algorithms = doc.field("algorithms")?.as_array()?.iter();
        let algorithms = algorithms.map(|a| known(a, "algorithm", AlgorithmKind::from_key));
        let ns = doc
            .field("ns")?
            .as_array()?
            .iter()
            .map(Json::as_u32)
            .collect::<Result<Vec<u32>, String>>()?;
        Ok(ShardState {
            experiment,
            full,
            shard,
            grid: GridMeta {
                algorithms: algorithms.collect::<Result<_, _>>()?,
                ns,
                trials,
                metrics: metrics.collect::<Result<_, _>>()?,
                cost,
            },
            cells: Vec::new(),
        })
    }

    /// This [`ShardState::header`] with the cells `doc` lists, each checked
    /// against the header's grid.
    pub(crate) fn with_cells(mut self, doc: &Json) -> Result<ShardState, String> {
        let (grid, trials) = (&self.grid, self.grid.trials);
        let listed = doc.field("cells")?.as_array()?;
        if listed.len() > grid.cell_count() {
            return Err(format!(
                "{} cells listed for a grid of {}",
                listed.len(),
                grid.cell_count()
            ));
        }
        let position = grid.index();
        let mut seen = HashSet::with_capacity(listed.len());
        let mut cells = Vec::with_capacity(listed.len());
        for cell in listed {
            let algorithm = known(
                cell.field("algorithm")?,
                "algorithm",
                AlgorithmKind::from_key,
            )?;
            let n = cell.field("n")?.as_u32()?;
            if !seen.insert(position(algorithm, n)?) {
                return Err(format!("cell ({algorithm}, n={n}) appears twice"));
            }
            let samples = cell
                .field("samples")?
                .as_array()?
                .iter()
                .map(|buf| {
                    buf.as_array()?
                        .iter()
                        .map(Json::as_f64)
                        .collect::<Result<Vec<f64>, String>>()
                })
                .collect::<Result<Vec<Vec<f64>>, String>>()?;
            if samples.len() != grid.metrics.len() {
                return Err(format!(
                    "cell ({algorithm}, n={n}) has {} sample buffers for {} metrics",
                    samples.len(),
                    grid.metrics.len()
                ));
            }
            if samples.iter().any(|s| s.len() != trials as usize) {
                return Err(format!(
                    "cell ({algorithm}, n={n}) buffers disagree with trials = {trials}"
                ));
            }
            cells.push(ShardCell {
                algorithm,
                n,
                samples,
            });
        }
        self.cells = cells;
        Ok(self)
    }
}

/// The widest a sample of an honest trial renders. `num` prints Rust's
/// shortest round-trip form, never an exponent: a count (below 2⁵³) takes
/// at most 16 characters, a value of at least 1 with a fraction (a µs time
/// under the MAC's 60 s valve, a mean latency) at most 17 digits and its
/// point, a rate in [1e-6, 1) at most 24 (`0.00000` and 17 digits), and an
/// unrecorded slot's `null` 4.
pub(crate) const SAMPLE_WIDTH: usize = 24;

/// What `from_key` reads from the string `key`; an unknown key is named as
/// a `what`.
fn known<T>(key: &Json, what: &str, from_key: fn(&str) -> Option<T>) -> Result<T, String> {
    let key = key.as_str()?;
    from_key(key).ok_or_else(|| format!("unknown {what} {key:?}"))
}

/// Writes an artifact to `<dir>/<file_name()>` atomically (staged as
/// `*.tmp`, fsynced, renamed — a killed process can never leave a truncated
/// artifact under the real name); returns the path. I/O failures come back
/// as `Err`, never a panic: a full disk or bad permissions must surface
/// through the CLI's `error:` path.
pub fn write_state(dir: &Path, state: &ShardState) -> Result<PathBuf, String> {
    crate::fsutil::ensure_dir(dir)?;
    let path = dir.join(state.file_name());
    crate::fsutil::write_atomic(&path, state.to_json().as_bytes())?;
    Ok(path)
}

/// Loads every `*.shardstate.json` artifact in `dir`, in file-name order
/// (merging is order-insensitive; the order only stabilizes error messages).
/// Staged `*.tmp` files from torn writes are ignored; an unreadable
/// directory entry is an error (silently skipping one would surface later
/// as a misleading "merged state is incomplete").
pub fn load_dir(dir: &Path) -> Result<Vec<ShardState>, String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read an entry of {}: {e}", dir.display()))?;
        let path = entry.path();
        if path
            .file_name()
            .and_then(|f| f.to_str())
            .is_some_and(|f| f.ends_with(SHARD_SUFFIX))
        {
            paths.push(path);
        }
    }
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no *{SHARD_SUFFIX} artifacts in {}", dir.display()));
    }
    paths
        .into_iter()
        .map(|path| {
            let text = fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            ShardState::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect()
}

/// Merges shard states into one, validating compatibility as it goes.
///
/// Artifacts may arrive in any order (the result is order-independent) but
/// must all describe the same sweep: same experiment, grids, trial count,
/// metrics, `--full` flag and shard denominator. Duplicate shard artifacts
/// and overlapping trial recordings are rejected with a clear error — never
/// a panic — since artifacts are untrusted on-disk input. The merged state
/// is *not* required to be complete (check [`ShardState::is_complete`]);
/// its shard coordinates become `(0, 1)`.
pub fn merge_states(states: Vec<ShardState>) -> Result<ShardState, String> {
    let first = states.first().ok_or("no shard states to merge")?;
    let grid = first.grid.clone();
    let (experiment, full, denominator) = (first.experiment.clone(), first.full, first.shard.1);
    let mut seen_shards = Vec::new();
    let mut merged = Vec::new();
    for state in states {
        if state.experiment != experiment {
            return Err(format!(
                "cannot merge artifacts from different experiments ({:?} vs {:?})",
                experiment, state.experiment
            ));
        }
        if state.full != full {
            return Err("cannot merge --full and quick-grid artifacts".to_string());
        }
        if state.shard.1 != denominator {
            return Err(format!(
                "cannot merge artifacts from different shardings ({} vs {} shards)",
                denominator, state.shard.1
            ));
        }
        if state.grid != grid {
            return Err(format!(
                "artifact {}/{} describes a different sweep grid (trials/ns/algorithms/metrics \
                 must all match)",
                state.shard.0, state.shard.1
            ));
        }
        if seen_shards.contains(&state.shard) {
            return Err(format!(
                "duplicate shard artifact {}/{}",
                state.shard.0, state.shard.1
            ));
        }
        seen_shards.push(state.shard);
        // Cells merge as `MetricStats`, through the same seam the
        // equivalence tests pin.
        merged = merge_cells(&grid, merged, state.into_cells(), MetricStats::try_merge)?;
    }
    Ok(ShardState::from_cells(
        &experiment,
        full,
        (0, 1),
        &grid,
        &merged,
    ))
}

/// `base` with `fresh` folded in cell by cell — `merge` combines a cell
/// both hold — in canonical grid order (`GridMeta::index`): the one
/// fold behind a checkpoint (a resume's loaded state ∪ the in-flight cut),
/// `repro merge` (artifact after artifact) and the coordinator (its master
/// ∪ one POST). Cells neither holds stay absent, as in any partial
/// artifact; a cell off `grid` is an error.
pub fn merge_cells(
    grid: &GridMeta,
    base: Vec<StatsCell>,
    fresh: Vec<StatsCell>,
    merge: impl Fn(&mut MetricStats, MetricStats) -> Result<(), String>,
) -> Result<Vec<StatsCell>, String> {
    let position = grid.index();
    let mut merged: BTreeMap<usize, StatsCell> = BTreeMap::new();
    for cell in base.into_iter().chain(fresh) {
        let (algorithm, n) = (cell.algorithm, cell.n);
        match merged.entry(position(algorithm, n)?) {
            Entry::Occupied(mut mine) => merge(&mut mine.get_mut().acc, cell.acc)
                .map_err(|e| format!("cell ({algorithm}, n={n}): {e}"))?,
            Entry::Vacant(slot) => {
                slot.insert(cell);
            }
        }
    }
    Ok(merged.into_values().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use contention_core::algorithm::AlgorithmKind::*;

    fn grid() -> GridMeta {
        GridMeta {
            algorithms: vec![Beb, Sawtooth],
            ns: vec![10, 20],
            trials: 3,
            metrics: vec![Metric::CwSlots, Metric::Collisions],
            cost: CostSpec::NLogN,
        }
    }

    /// A state holding `cells` of the [`grid`], each cell's buffers filled
    /// with distinct values derived from its coordinates.
    fn state(shard: (u32, u32), cells: &[(AlgorithmKind, u32)]) -> ShardState {
        let g = grid();
        let cells = cells
            .iter()
            .map(|&(algorithm, n)| ShardCell {
                algorithm,
                n,
                samples: (0..g.metrics.len())
                    .map(|m| {
                        (0..g.trials)
                            .map(|t| (n as f64) * 100.0 + (m as f64) * 10.0 + t as f64)
                            .collect()
                    })
                    .collect(),
            })
            .collect();
        ShardState {
            experiment: "test-exp".to_string(),
            full: false,
            shard,
            grid: g,
            cells,
        }
    }

    #[test]
    fn artifact_round_trips_bit_for_bit() {
        let mut s = state((1, 3), &[(Beb, 10), (Sawtooth, 20)]);
        // Punch a hole: trial 1 of the second metric unrecorded → null.
        s.cells[0].samples[1][1] = f64::NAN;
        let text = s.to_json();
        assert!(text.contains("null"), "{text}");
        let back = ShardState::parse(&text).unwrap();
        assert_eq!(back.experiment, s.experiment);
        assert_eq!(back.shard, s.shard);
        assert_eq!(back.grid, s.grid);
        for (a, b) in back.cells.iter().zip(&s.cells) {
            assert_eq!((a.algorithm, a.n), (b.algorithm, b.n));
            for (x, y) in a.samples.iter().zip(&b.samples) {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(x), bits(y));
            }
        }
        // Round-tripping the rendered text is a fixed point.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn merge_reassembles_the_grid_in_canonical_order() {
        // Shards arrive out of order and cover disjoint cell sets.
        let merged = merge_states(vec![
            state((2, 3), &[(Sawtooth, 20)]),
            state((0, 3), &[(Beb, 10), (Beb, 20)]),
            state((1, 3), &[(Sawtooth, 10)]),
        ])
        .unwrap();
        assert_eq!(merged.shard, (0, 1));
        assert!(merged.is_complete());
        let coords: Vec<(AlgorithmKind, u32)> =
            merged.cells.iter().map(|c| (c.algorithm, c.n)).collect();
        assert_eq!(
            coords,
            vec![(Beb, 10), (Beb, 20), (Sawtooth, 10), (Sawtooth, 20)]
        );
    }

    #[test]
    fn merge_rejects_mismatches_cleanly() {
        // Duplicate shard index.
        let err = merge_states(vec![
            state((0, 2), &[(Beb, 10)]),
            state((0, 2), &[(Beb, 20)]),
        ])
        .unwrap_err();
        assert!(err.contains("duplicate shard"), "{err}");
        // Overlapping cell trials (same cell fully recorded twice).
        let err = merge_states(vec![
            state((0, 2), &[(Beb, 10)]),
            state((1, 2), &[(Beb, 10)]),
        ])
        .unwrap_err();
        assert!(err.contains("more than one"), "{err}");
        // Different experiment.
        let mut other = state((1, 2), &[(Beb, 20)]);
        other.experiment = "something-else".to_string();
        let err = merge_states(vec![state((0, 2), &[(Beb, 10)]), other]).unwrap_err();
        assert!(err.contains("different experiments"), "{err}");
        // Different grid (trial count).
        let mut other = state((1, 2), &[(Beb, 20)]);
        other.grid.trials = 4;
        other.cells[0].samples.iter_mut().for_each(|s| s.push(0.0));
        let err = merge_states(vec![state((0, 2), &[(Beb, 10)]), other]).unwrap_err();
        assert!(err.contains("different sweep grid"), "{err}");
        // Different sharding denominator.
        let err = merge_states(vec![
            state((0, 2), &[(Beb, 10)]),
            state((1, 3), &[(Beb, 20)]),
        ])
        .unwrap_err();
        assert!(err.contains("different shardings"), "{err}");
        // Mixed --full.
        let mut other = state((1, 2), &[(Beb, 20)]);
        other.full = true;
        let err = merge_states(vec![state((0, 2), &[(Beb, 10)]), other]).unwrap_err();
        assert!(err.contains("--full"), "{err}");
    }

    #[test]
    fn merge_is_associative_on_states() {
        let a = state((0, 3), &[(Beb, 10), (Beb, 20)]);
        let b = state((1, 3), &[(Sawtooth, 10)]);
        let c = state((2, 3), &[(Sawtooth, 20)]);
        let left = merge_states(vec![
            merge_states(vec![a.clone(), b.clone()]).unwrap(),
            c.clone(),
        ]);
        let right = merge_states(vec![
            a.clone(),
            merge_states(vec![b.clone(), c.clone()]).unwrap(),
        ]);
        // Note: merging a merged (0,1) state with a 3-shard state trips the
        // denominator check, so re-merge at matching denominators instead.
        assert!(left.is_err() && right.is_err());
        let abc = merge_states(vec![a.clone(), b.clone(), c.clone()]).unwrap();
        let cba = merge_states(vec![c, b, a]).unwrap();
        assert_eq!(abc.to_json(), cba.to_json());
    }

    #[test]
    fn holes_plan_what_a_fold_lacks_in_grid_order() {
        let range = |cell, lo, hi| TrialRange { cell, lo, hi };
        let s = state((0, 2), &[(Beb, 10)]);
        assert!(!s.is_complete());
        let holes = |s: &ShardState| grid().holes(&s.clone().into_cells());
        assert_eq!(
            holes(&s).unwrap(),
            vec![range(1, 0, 3), range(2, 0, 3), range(3, 0, 3)]
        );
        // A trial no buffer holds is a hole; one every buffer holds is not.
        let mut partial = state((0, 2), &[(Sawtooth, 20), (Beb, 20)]);
        for buf in &mut partial.cells[0].samples {
            buf[0] = f64::NAN;
            buf[2] = f64::NAN;
        }
        assert_eq!(
            holes(&partial).unwrap(),
            vec![
                range(0, 0, 3),
                range(2, 0, 3),
                range(3, 0, 1),
                range(3, 2, 3)
            ]
        );
        let cells = partial.into_cells();
        assert_eq!(cells[0].acc.recorded(), 1);
        // A trial only some buffers hold is torn.
        let mut torn = state((0, 2), &[(Beb, 10)]);
        torn.cells[0].samples[1][2] = f64::NAN;
        let err = holes(&torn).unwrap_err();
        assert!(
            err.contains("(BEB, n=10) trial 2") && err.contains("only some"),
            "{err}"
        );
        assert!(!torn.is_complete());
        assert_eq!(torn.into_cells()[0].acc.recorded(), 2);
        // A cell off the grid, or listed twice.
        let s = state((0, 1), &[(Beb, 10)]);
        let mut cells = s.clone().into_cells();
        cells[0].n = 999;
        let err = grid().holes(&cells).unwrap_err();
        assert_eq!(err, "cell (BEB, n=999) is outside the grid");
        let cells = [s.clone().into_cells(), s.into_cells()].concat();
        let err = grid().holes(&cells).unwrap_err();
        assert_eq!(err, "cell (BEB, n=10) appears twice");
    }

    #[test]
    fn the_widest_artifact_bound_is_exact_at_the_null_width() {
        let all = [(Beb, 10), (Beb, 20), (Sawtooth, 10), (Sawtooth, 20)];
        let real = state((0, 1), &all);
        let mut nulls = real.clone();
        for buf in nulls.cells.iter_mut().flat_map(|c| &mut c.samples) {
            buf.fill(f64::NAN);
        }
        // Whatever cells a state holds, it bounds its grid's all-`null`
        // artifact exactly.
        let header = ShardState {
            cells: Vec::new(),
            ..real.clone()
        };
        assert_eq!(header.clone().len_at(4), nulls.to_json().len());
        assert_eq!(real.clone().len_at(4), nulls.to_json().len());
        // One trial and one metric, and a grid of one cell.
        let narrow = GridMeta {
            algorithms: vec![Beb],
            ns: vec![10],
            trials: 1,
            metrics: vec![Metric::CwSlots],
            ..grid()
        };
        let one = ShardState::from_cells(
            "x",
            false,
            (0, 1),
            &narrow,
            &[StatsCell {
                algorithm: Beb,
                n: 10,
                acc: MetricStats::new(&narrow.metrics, 1),
            }],
        );
        assert_eq!(one.clone().len_at(4), one.to_json().len());
        // Every sample of the real state fits the width it is bounded by.
        assert!(real.to_json().len() <= header.len_at(SAMPLE_WIDTH));
    }

    #[test]
    fn parse_rejects_corrupt_artifacts() {
        let good = state((0, 1), &[(Beb, 10)]).to_json();
        for (needle, replacement, expect) in [
            ("shard_state/v1", "shard_state/v0", "unsupported schema"),
            ("\"cw_slots\"", "\"warp_factor\"", "unknown metric"),
            ("\"n-log-n\"", "\"o-of-wow\"", "unknown cost spec"),
            ("\"beb\", \"stb\"", "\"beb\", \"zzz\"", "unknown algorithm"),
            (
                "\"shard\": [0, 1]",
                "\"shard\": [1, 1]",
                "bad shard coordinates",
            ),
            ("\"shard\": [0, 1]", "\"shard\": [0]", "shard must be"),
            (
                "\"trials\": 3",
                "\"trials\": 0",
                "trials must be at least 1",
            ),
        ] {
            let bad = good.replace(needle, replacement);
            assert_ne!(bad, good, "replacement {needle:?} did not apply");
            let err = ShardState::parse(&bad).unwrap_err();
            assert!(err.contains(expect), "{needle:?}: {err}");
        }
        // A cell outside the declared grid.
        let bad = good.replace("\"n\": 10", "\"n\": 999");
        assert!(ShardState::parse(&bad)
            .unwrap_err()
            .contains("outside the grid"));
        // More cells than the declared grid holds.
        let all = [(Beb, 10), (Beb, 20), (Sawtooth, 10), (Sawtooth, 20)];
        let bad = state((0, 1), &all)
            .to_json()
            .replace("\"ns\": [10, 20]", "\"ns\": [10]");
        assert_eq!(
            ShardState::parse(&bad).unwrap_err(),
            "4 cells listed for a grid of 2"
        );
        // Truncated document.
        assert!(ShardState::parse(&good[..good.len() / 2]).is_err());
    }

    #[test]
    fn many_cells_parse_in_linear_time() {
        // Regression: each cell was checked against every cell parsed
        // before it and its `n` found by a scan of `ns`, so k distinct
        // cells under an empty `metrics` list, which one POST to the
        // coordinator can carry, took time quadratic in k (80 000 cells:
        // 5.6 s).
        use std::fmt::Write;
        const CELLS: u32 = 400_000;
        let (mut ns, mut cells) = (String::new(), String::new());
        for n in 0..CELLS {
            let sep = if n == 0 { "" } else { "," };
            write!(ns, "{sep}{n}").unwrap();
            write!(
                cells,
                "{sep}{{\"algorithm\":\"beb\",\"n\":{n},\"samples\":[]}}"
            )
            .unwrap();
        }
        let cost = CostSpec::Uniform.key();
        let doc = format!(
            "{{\"schema\":\"{SHARD_SCHEMA}\",\"experiment\":\"x\",\"full\":false,\
             \"trials\":1,\"cost\":\"{cost}\",\"shard\":[0,1],\"metrics\":[],\
             \"algorithms\":[\"beb\"],\"ns\":[{ns}],\"cells\":[{cells}]}}"
        );
        drop((ns, cells));
        let (sender, receiver) = std::sync::mpsc::channel();
        let parser = std::thread::spawn(move || sender.send(ShardState::parse(&doc)).unwrap());
        let parsed = receiver
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("400 000 cells parse within 10 s");
        parser.join().unwrap();
        assert_eq!(parsed.unwrap().cells.len(), CELLS as usize);
    }

    #[test]
    fn artifacts_without_cost_metadata_are_a_parse_error_naming_cost() {
        // An artifact with its "cost" line stripped entirely.
        let text = state((0, 1), &[(Beb, 10)]).to_json();
        let costless: String = text
            .lines()
            .filter(|l| !l.contains("\"cost\""))
            .collect::<Vec<_>>()
            .join("\n");
        assert_ne!(costless, text);
        let err = ShardState::parse(&costless).unwrap_err();
        assert!(err.contains("\"cost\""), "{err}");
    }

    #[test]
    fn grid_cost_tables_follow_grid_order() {
        let g = grid();
        let per_trial = g.cell_trial_costs();
        assert_eq!(per_trial.len(), g.cell_count());
        // Grid order is algorithms outer, ns inner: [B10, B20, S10, S20].
        assert_eq!(per_trial[0], CostSpec::NLogN.cost(10));
        assert_eq!(per_trial[1], CostSpec::NLogN.cost(20));
        assert_eq!(per_trial[0], per_trial[2], "cost is algorithm-blind");
    }

    #[test]
    fn cells_round_trip_through_the_engine_shape() {
        let s = state(
            (0, 1),
            &[(Beb, 10), (Beb, 20), (Sawtooth, 10), (Sawtooth, 20)],
        );
        let cells = s.clone().into_cells();
        assert_eq!(cells.len(), 4);
        assert!(cells.iter().all(|c| c.acc.is_complete()));
        let back = ShardState::from_cells("test-exp", false, (0, 1), &grid(), &cells);
        assert_eq!(back, s);
    }
}
