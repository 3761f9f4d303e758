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

use crate::aggregate::{MetricStats, StatsCell};
use crate::jsonin::Json;
use crate::jsonout::{escape, num};
use crate::summary::Metric;
use contention_core::algorithm::AlgorithmKind;
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

    /// The grid's positions by coordinate, built in one pass over its axes,
    /// so that looking a cell up costs O(1) however long they are.
    pub(crate) fn index(&self) -> GridIndex {
        // The first listing of a coordinate wins, as a scan would find it.
        fn first<T: Copy + Eq + Hash>(axis: &[T]) -> HashMap<T, usize> {
            let mut at = HashMap::with_capacity(axis.len());
            for (i, &x) in axis.iter().enumerate() {
                at.entry(x).or_insert(i);
            }
            at
        }
        GridIndex {
            algorithms: first(&self.algorithms),
            ns: first(&self.ns),
            width: self.ns.len(),
        }
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

/// A [`GridMeta`]'s positions by coordinate (see [`GridMeta::index`]).
pub(crate) struct GridIndex {
    algorithms: HashMap<AlgorithmKind, usize>,
    ns: HashMap<u32, usize>,
    width: usize,
}

impl GridIndex {
    /// The index of cell `(algorithm, n)` in canonical grid order
    /// (algorithms outer, ns inner): the order a single-process sweep
    /// returns cells in, which every reassembled state keeps so that its
    /// report is byte-identical. `None` off the grid.
    pub(crate) fn position(&self, algorithm: AlgorithmKind, n: u32) -> Option<usize> {
        Some(self.algorithms.get(&algorithm)? * self.width + self.ns.get(&n)?)
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

impl ShardCell {
    /// Trials this cell has recorded: a trial counts once every metric
    /// buffer holds it.
    pub(crate) fn recorded(&self) -> usize {
        let filled = |s: &Vec<f64>| s.iter().filter(|v| !v.is_nan()).count();
        self.samples.iter().map(filled).min().unwrap_or(0)
    }
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
        self.missing().is_empty()
    }

    /// Human-readable descriptions of whatever is still missing — what an
    /// incomplete fold's error lists.
    pub fn missing(&self) -> Vec<String> {
        let mut out = Vec::new();
        for &alg in &self.grid.algorithms {
            for &n in &self.grid.ns {
                match self.cells.iter().find(|c| c.algorithm == alg && c.n == n) {
                    None => out.push(format!("cell ({alg}, n={n}) missing")),
                    Some(cell) if cell.recorded() < self.grid.trials as usize => out.push(format!(
                        "cell ({alg}, n={n}): {} of {} trials recorded",
                        cell.recorded(),
                        self.grid.trials
                    )),
                    Some(_) => {}
                }
            }
        }
        out
    }

    /// Renders the artifact (see the module docs for the shape).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{}\",\n", escape(SHARD_SCHEMA)));
        out.push_str(&format!(
            "  \"experiment\": \"{}\",\n",
            escape(&self.experiment)
        ));
        out.push_str(&format!("  \"full\": {},\n", self.full));
        out.push_str(&format!("  \"trials\": {},\n", self.grid.trials));
        out.push_str(&format!(
            "  \"cost\": \"{}\",\n",
            escape(self.grid.cost.key())
        ));
        out.push_str(&format!(
            "  \"shard\": [{}, {}],\n",
            self.shard.0, self.shard.1
        ));
        let metrics: Vec<String> = self
            .grid
            .metrics
            .iter()
            .map(|m| format!("\"{}\"", escape(m.key())))
            .collect();
        out.push_str(&format!("  \"metrics\": [{}],\n", metrics.join(", ")));
        let algorithms: Vec<String> = self
            .grid
            .algorithms
            .iter()
            .map(|a| format!("\"{}\"", escape(&a.key())))
            .collect();
        out.push_str(&format!("  \"algorithms\": [{}],\n", algorithms.join(", ")));
        let ns: Vec<String> = self.grid.ns.iter().map(|n| n.to_string()).collect();
        out.push_str(&format!("  \"ns\": [{}],\n", ns.join(", ")));
        out.push_str("  \"cells\": [\n");
        for (ci, cell) in self.cells.iter().enumerate() {
            let samples: Vec<String> = cell
                .samples
                .iter()
                .map(|buf| {
                    let vals: Vec<String> = buf.iter().map(|&v| num(v)).collect();
                    format!("[{}]", vals.join(", "))
                })
                .collect();
            out.push_str(&format!(
                "    {{\"algorithm\": \"{}\", \"n\": {}, \"samples\": [{}]}}{}\n",
                escape(&cell.algorithm.key()),
                cell.n,
                samples.join(", "),
                if ci + 1 < self.cells.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses and validates one artifact.
    pub fn parse(text: &str) -> Result<ShardState, String> {
        let doc = Json::parse(text)?;
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
        let key = doc.field("cost")?.as_str()?;
        let cost = CostSpec::from_key(key).ok_or_else(|| format!("unknown cost spec {key:?}"))?;
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
        let metrics = doc
            .field("metrics")?
            .as_array()?
            .iter()
            .map(|m| {
                let key = m.as_str()?;
                Metric::from_key(key).ok_or_else(|| format!("unknown metric {key:?}"))
            })
            .collect::<Result<Vec<Metric>, String>>()?;
        let algorithms = doc
            .field("algorithms")?
            .as_array()?
            .iter()
            .map(|a| {
                let key = a.as_str()?;
                AlgorithmKind::from_key(key).ok_or_else(|| format!("unknown algorithm {key:?}"))
            })
            .collect::<Result<Vec<AlgorithmKind>, String>>()?;
        let ns = doc
            .field("ns")?
            .as_array()?
            .iter()
            .map(Json::as_u32)
            .collect::<Result<Vec<u32>, String>>()?;
        let grid = GridMeta {
            algorithms,
            ns,
            trials,
            metrics,
            cost,
        };
        let listed = doc.field("cells")?.as_array()?;
        if listed.len() > grid.cell_count() {
            return Err(format!(
                "{} cells listed for a grid of {}",
                listed.len(),
                grid.cell_count()
            ));
        }
        let index = grid.index();
        let mut seen = HashSet::with_capacity(listed.len());
        let mut cells = Vec::with_capacity(listed.len());
        for cell in listed {
            let key = cell.field("algorithm")?.as_str()?;
            let algorithm =
                AlgorithmKind::from_key(key).ok_or_else(|| format!("unknown algorithm {key:?}"))?;
            let n = cell.field("n")?.as_u32()?;
            let at = index
                .position(algorithm, n)
                .ok_or_else(|| format!("cell ({algorithm}, n={n}) is outside the grid"))?;
            if !seen.insert(at) {
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
        Ok(ShardState {
            experiment,
            full,
            shard,
            grid,
            cells,
        })
    }
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
/// both hold — in canonical grid order (`GridIndex::position`): the one
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
    let index = grid.index();
    let mut merged: BTreeMap<usize, StatsCell> = BTreeMap::new();
    for cell in base.into_iter().chain(fresh) {
        let (algorithm, n) = (cell.algorithm, cell.n);
        let at = index
            .position(algorithm, n)
            .ok_or_else(|| format!("cell ({algorithm}, n={n}) is outside the grid"))?;
        match merged.entry(at) {
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
    fn incomplete_states_name_what_is_missing() {
        let s = state((0, 2), &[(Beb, 10)]);
        assert!(!s.is_complete());
        let missing = s.missing();
        assert_eq!(missing.len(), 3);
        assert!(missing[0].contains("(BEB, n=20) missing"), "{missing:?}");
        let mut partial = state((0, 2), &[(Beb, 10)]);
        partial.cells[0].samples[0][2] = f64::NAN;
        assert!(
            partial
                .missing()
                .iter()
                .any(|m| m.contains("2 of 3 trials")),
            "{:?}",
            partial.missing()
        );
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
