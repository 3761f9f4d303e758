//! Crash-safe long runs: periodic checkpoints, resume, live metrics.
//!
//! A checkpointed run attaches a [`CheckpointWriter`] to the engine's
//! snapshot seam (`contention_sim::monitor`). On each snapshot the writer
//! serializes the in-flight accumulator state as a plain `shard_state/v1`
//! artifact — the same format `repro shard` emits, with shard coordinates
//! `(0, 1)` and holes (`null`) for trials the snapshot's ragged cut missed —
//! into `<out>/checkpoints/`, atomically (`*.tmp` + fsync + rename), under a
//! monotonically increasing sequence number. That one file is the
//! checkpoint; the newest is the one with the highest sequence number. A
//! `metrics.json` sidecar (`sweep_metrics/v2`) lands in `<out>` on the same
//! cadence: the machine-readable counterpart to the TTY progress meter.
//! Since v2 the sidecar reports `work_done` / `work_total` in the grid's
//! [`CostSpec`](contention_sim::sched::CostSpec) units and derives
//! `eta_secs` from the *work* rate, so the ETA no longer lies when the
//! remaining cells are much heavier (or lighter) than the finished ones.
//!
//! `repro resume <out>` loads the newest valid checkpoint (trying them from
//! the highest sequence number down — a torn one is skipped with a warning,
//! never fatal), turns it into engine cells, plans their holes
//! ([`GridMeta::holes`]), runs *only* those trials, and folds them over the
//! loaded cells. Because the per-trial RNG is position-addressed, the
//! resumed report is byte-identical to an uninterrupted run —
//! `tests/checkpoint_resume.rs` pins this against the committed golden.
//!
//! Checkpoint I/O must never kill the run it protects: a failed checkpoint
//! write warns on stderr once and the sweep continues; the next snapshot
//! retries. A write succeeds or fails with its checkpoint file: a
//! `metrics.json` refresh that fails after it only warns.

use crate::aggregate::{MetricStats, StatsCell};
use crate::fsutil;
use crate::jsonin::Json;
use crate::jsonout::{escape, num};
use crate::shard::{merge_cells, GridMeta, ShardState, SHARD_SUFFIX};
use contention_sim::engine::TrialRange;
use contention_sim::monitor::{SweepMonitor, SweepSnapshot};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Schema tag of the `metrics.json` sidecar.
pub const METRICS_SCHEMA: &str = "sweep_metrics/v2";

/// Subdirectory of the run's `--out` dir that holds checkpoints.
pub const CHECKPOINT_DIR: &str = "checkpoints";

/// File name of the live-metrics sidecar inside the `--out` dir.
pub const METRICS_FILE: &str = "metrics.json";

/// How many checkpoints to keep; older ones are pruned best-effort.
const RETAIN: usize = 3;

/// The artifact name of checkpoint `seq` for `experiment`. Zero-padding
/// keeps lexicographic and numeric order aligned for human `ls`-ing; the
/// loader parses the number and does not rely on it.
pub fn checkpoint_file_name(experiment: &str, seq: u64) -> String {
    format!("{experiment}.ckpt{seq:06}{SHARD_SUFFIX}")
}

/// The sequence number encoded in a checkpoint file name, if any.
fn seq_of_file(name: &str) -> Option<u64> {
    let rest = name.strip_suffix(SHARD_SUFFIX)?;
    let at = rest.rfind(".ckpt")?;
    rest[at + ".ckpt".len()..].parse().ok()
}

/// Every checkpoint file in `ckpt_dir` with its sequence number, newest
/// first. Staged `*.tmp` files never match the artifact suffix, so a write
/// killed mid-stage is not listed.
fn checkpoints(ckpt_dir: &Path) -> Result<Vec<(u64, PathBuf)>, String> {
    let entries =
        fs::read_dir(ckpt_dir).map_err(|e| format!("cannot read {}: {e}", ckpt_dir.display()))?;
    let mut found = Vec::new();
    for entry in entries {
        let entry =
            entry.map_err(|e| format!("cannot read an entry of {}: {e}", ckpt_dir.display()))?;
        if let Some(seq) = entry.file_name().to_str().and_then(seq_of_file) {
            found.push((seq, entry.path()));
        }
    }
    found.sort_by_key(|&(seq, _)| std::cmp::Reverse(seq));
    Ok(found)
}

/// Serializes sweep snapshots into atomic checkpoint artifacts plus the
/// `metrics.json` sidecar. Attached to a run via
/// [`SweepHooks`](crate::figures::shared::SweepHooks)`::monitor`.
pub struct CheckpointWriter {
    out_dir: PathBuf,
    ckpt_dir: PathBuf,
    experiment: String,
    full: bool,
    grid: GridMeta,
    /// Already-recorded state a resume run starts from; merged into every
    /// checkpoint so a second crash loses nothing.
    base: Vec<StatsCell>,
    /// Trials the base already holds.
    base_trials: usize,
    /// Cost-weighted work the base already holds — subtracted from the
    /// snapshot's work before computing the work *rate*, since the base's
    /// trials did not run in this process's elapsed time.
    base_work: f64,
    /// Next sequence number to write (continues past existing checkpoints).
    seq: AtomicU64,
    /// Set by the first failed checkpoint write a snapshot reports.
    warned: AtomicBool,
    /// Set by the first failed `metrics.json` refresh.
    sidecar_warned: AtomicBool,
}

impl CheckpointWriter {
    /// A writer for a fresh checkpointed run into `out_dir`. Creates
    /// `<out_dir>/checkpoints/`; sequence numbers continue past any
    /// checkpoints already there.
    pub fn new(
        out_dir: &Path,
        experiment: &str,
        full: bool,
        grid: GridMeta,
    ) -> Result<CheckpointWriter, String> {
        let ckpt_dir = out_dir.join(CHECKPOINT_DIR);
        fsutil::ensure_dir(&ckpt_dir)?;
        let next_seq = checkpoints(&ckpt_dir)?
            .first()
            .map_or(0, |&(seq, _)| seq + 1);
        Ok(CheckpointWriter {
            out_dir: out_dir.to_path_buf(),
            ckpt_dir,
            experiment: experiment.to_string(),
            full,
            grid,
            base: Vec::new(),
            base_trials: 0,
            base_work: 0.0,
            seq: AtomicU64::new(next_seq),
            warned: AtomicBool::new(false),
            sidecar_warned: AtomicBool::new(false),
        })
    }

    /// Folds already-recorded cells of the run's grid (the checkpoint a
    /// resume starts from) into every future checkpoint, so an interrupted
    /// *resume* still leaves a checkpoint holding everything recorded so far.
    pub fn with_base(mut self, base: Vec<StatsCell>) -> CheckpointWriter {
        self.base_trials = base.iter().map(|c| c.acc.recorded()).sum();
        self.base_work = self.work_of(&base);
        self.base = base;
        self
    }

    /// The sequence number the next checkpoint will carry.
    pub fn next_seq(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// `cells` folded over the base state: what each checkpoint holds, and
    /// a checkpointed run's final cells.
    pub(crate) fn fold(&self, cells: Vec<StatsCell>) -> Result<Vec<StatsCell>, String> {
        merge_cells(&self.grid, self.base.clone(), cells, MetricStats::try_merge)
    }

    /// Cost-weighted work the given cells hold, in the grid's cost units:
    /// each recorded trial weighted by its cell's per-trial cost.
    fn work_of(&self, cells: &[StatsCell]) -> f64 {
        cells
            .iter()
            .map(|c| c.acc.recorded() as f64 * self.grid.cost.cost(c.n))
            .sum()
    }

    /// Writes one snapshot as the next checkpoint, prunes old ones and
    /// refreshes the sidecar. The result is the checkpoint file's: `Ok`
    /// means it is durable. Pruning is best-effort, and a failed sidecar
    /// refresh warns on stderr (once per writer) without failing the write.
    /// The sequence number advances also when the write fails.
    pub(crate) fn write_snapshot(&self, snap: SweepSnapshot<MetricStats>) -> Result<(), String> {
        let cells = self.fold(snap.cells)?;
        let state = ShardState::from_cells(&self.experiment, self.full, (0, 1), &self.grid, &cells);
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let name = checkpoint_file_name(&self.experiment, seq);
        fsutil::write_atomic(&self.ckpt_dir.join(name), state.to_json().as_bytes())?;
        self.prune();

        let trials_done = self.base_trials + snap.completed_trials;
        let trials_total = self.base_trials + snap.total_trials;
        let elapsed_secs = snap.elapsed.as_secs_f64();
        let rate = guarded_rate(snap.completed_trials as f64, elapsed_secs);
        // ETA from the cost-weighted work rate of *this run's* trials (the
        // base was recorded in an earlier process; its work contributes no
        // rate information): remaining heavy cells weigh in as heavy.
        let work_done = self.work_of(&cells);
        let trials = f64::from(self.grid.trials);
        let work_total: f64 = self
            .grid
            .cell_trial_costs()
            .iter()
            .map(|c| c * trials)
            .sum();
        let work_rate = guarded_rate((work_done - self.base_work).max(0.0), elapsed_secs);
        // Remaining work of zero — finished, or a degenerate zero-cost grid
        // — is an ETA of zero regardless of the (possibly unknowable) rate.
        let work_left = (work_total - work_done).max(0.0);
        let eta_secs = if work_left <= 0.0 {
            0.0
        } else {
            guarded_rate(work_left, work_rate)
        };
        let doc = MetricsDoc {
            experiment: self.experiment.clone(),
            cells_done: cells.iter().filter(|c| c.acc.is_complete()).count(),
            cells_total: self.grid.cell_count(),
            trials_done,
            trials_total,
            work_done,
            work_total,
            elapsed_secs,
            trials_per_sec: rate,
            trials_per_sec_per_worker: guarded_rate(rate, snap.workers.max(1) as f64),
            workers: snap.workers,
            eta_secs,
            checkpoint_seq: seq,
            finished: snap.finished,
        };
        let sidecar =
            fsutil::write_atomic(&self.out_dir.join(METRICS_FILE), doc.to_json().as_bytes());
        if let Err(e) = sidecar {
            if !self.sidecar_warned.swap(true, Ordering::Relaxed) {
                eprintln!(
                    "warning: {METRICS_FILE} refresh failed: {e} (checkpoint seq {seq} is \
                     durable; later checkpoints retry the refresh silently)"
                );
            }
        }
        Ok(())
    }

    /// Best-effort removal of checkpoints older than the [`RETAIN`] newest.
    /// Failures are ignored: pruning is hygiene, not correctness.
    fn prune(&self) {
        let Ok(found) = checkpoints(&self.ckpt_dir) else {
            return;
        };
        for (_, path) in found.into_iter().skip(RETAIN) {
            let _ = fs::remove_file(path);
        }
    }
}

impl SweepMonitor<MetricStats> for CheckpointWriter {
    /// Persists one snapshot. Never panics and never propagates: checkpoint
    /// I/O failing must not take down the sweep it protects. The first
    /// failure warns on stderr; later snapshots keep retrying silently.
    fn snapshot(&self, snap: SweepSnapshot<MetricStats>) {
        if let Err(e) = self.write_snapshot(snap) {
            if !self.warned.swap(true, Ordering::Relaxed) {
                eprintln!(
                    "warning: checkpoint write failed: {e} (run continues; \
                     the next snapshot retries)"
                );
            }
        }
    }
}

/// Denominators below this are "no time / no work observed yet", not a
/// measurement — a first snapshot can land within the clock's resolution
/// of the start, and a zero-cost grid has nothing to rate.
const RATE_EPS: f64 = 1e-9;

/// `numer / denom` when that is a meaningful finite rate; NaN — rendered
/// `null` in `sweep_metrics/v2` — otherwise. Guards every rate and ETA in
/// the sidecar: near-zero elapsed time, a `work_total` of zero, and a NaN
/// propagating through a numerator must all degrade to `null`, never to
/// `NaN`/`inf` text, because the work-server re-serves the file verbatim
/// to clients that may be stricter JSON parsers than ours.
fn guarded_rate(numer: f64, denom: f64) -> f64 {
    let measurable = denom.is_finite() && denom > RATE_EPS && numer.is_finite();
    if !measurable {
        return f64::NAN;
    }
    let rate = numer / denom;
    if rate.is_finite() {
        rate
    } else {
        f64::NAN
    }
}

/// The trials `state` has not recorded, as the plan that runs them: its
/// grid's [`GridMeta::holes`] of its cells.
pub fn missing_work(state: &ShardState) -> Result<Vec<TrialRange>, String> {
    state.grid.holes(&state.clone().into_cells())
}

/// What [`load_latest`] recovered: the state, its sequence number, and one
/// warning per newer checkpoint it skipped as torn. Warnings are non-fatal
/// by definition — a valid checkpoint was still found — but a silent
/// fallback would hide real damage, so the caller is expected to print
/// them.
#[derive(Debug)]
pub struct LoadedCheckpoint {
    pub state: ShardState,
    pub seq: u64,
    pub warnings: Vec<String>,
}

/// Loads the newest valid checkpoint under `<out_dir>/checkpoints/` and its
/// sequence number: every checkpoint is tried from the highest sequence
/// number down, and the first that reads and parses wins. Each torn one
/// stepped over on the way lands in
/// [`warnings`](LoadedCheckpoint::warnings), file name included. `None`
/// when there is nothing to resume (no directory, or no checkpoint in it);
/// an error only when checkpoints exist and none of them reads.
pub fn load_latest(out_dir: &Path) -> Result<Option<LoadedCheckpoint>, String> {
    let ckpt_dir = out_dir.join(CHECKPOINT_DIR);
    if !ckpt_dir.is_dir() {
        return Ok(None);
    }
    let mut failures = Vec::new();
    for (seq, path) in checkpoints(&ckpt_dir)? {
        match load_checkpoint(&path) {
            Ok(state) => {
                let warnings = failures
                    .iter()
                    .map(|e| format!("skipping torn checkpoint: {e}"))
                    .collect();
                return Ok(Some(LoadedCheckpoint {
                    state,
                    seq,
                    warnings,
                }));
            }
            Err(e) => failures.push(e),
        }
    }
    if failures.is_empty() {
        return Ok(None);
    }
    Err(format!(
        "no valid checkpoint in {}:\n  {}",
        ckpt_dir.display(),
        failures.join("\n  ")
    ))
}

fn load_checkpoint(path: &Path) -> Result<ShardState, String> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    ShardState::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The `metrics.json` document (`sweep_metrics/v2`): a point-in-time view
/// of a checkpointed run for dashboards and the future work-server.
/// Unknown-yet quantities (`trials_per_sec` before any trial lands,
/// `eta_secs`) are NaN in memory and `null` on disk. v2 added `work_done` /
/// `work_total` (cost-weighted progress in the grid's cost-model units) and
/// made `eta_secs` work-rate-based.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsDoc {
    pub experiment: String,
    pub cells_done: usize,
    pub cells_total: usize,
    pub trials_done: usize,
    pub trials_total: usize,
    pub work_done: f64,
    pub work_total: f64,
    pub elapsed_secs: f64,
    pub trials_per_sec: f64,
    pub trials_per_sec_per_worker: f64,
    pub workers: usize,
    pub eta_secs: f64,
    pub checkpoint_seq: u64,
    pub finished: bool,
}

impl MetricsDoc {
    /// Renders the sidecar document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{}\",\n", escape(METRICS_SCHEMA)));
        out.push_str(&format!(
            "  \"experiment\": \"{}\",\n",
            escape(&self.experiment)
        ));
        out.push_str(&format!("  \"cells_done\": {},\n", self.cells_done));
        out.push_str(&format!("  \"cells_total\": {},\n", self.cells_total));
        out.push_str(&format!("  \"trials_done\": {},\n", self.trials_done));
        out.push_str(&format!("  \"trials_total\": {},\n", self.trials_total));
        out.push_str(&format!("  \"work_done\": {},\n", num(self.work_done)));
        out.push_str(&format!("  \"work_total\": {},\n", num(self.work_total)));
        out.push_str(&format!(
            "  \"elapsed_secs\": {},\n",
            num(self.elapsed_secs)
        ));
        out.push_str(&format!(
            "  \"trials_per_sec\": {},\n",
            num(self.trials_per_sec)
        ));
        out.push_str(&format!(
            "  \"trials_per_sec_per_worker\": {},\n",
            num(self.trials_per_sec_per_worker)
        ));
        out.push_str(&format!("  \"workers\": {},\n", self.workers));
        out.push_str(&format!("  \"eta_secs\": {},\n", num(self.eta_secs)));
        out.push_str(&format!("  \"checkpoint_seq\": {},\n", self.checkpoint_seq));
        out.push_str(&format!("  \"finished\": {}\n", self.finished));
        out.push_str("}\n");
        out
    }

    /// Parses a sidecar document, validating the schema tag.
    pub fn parse(text: &str) -> Result<MetricsDoc, String> {
        let v = Json::parse(text)?;
        let schema = v.field("schema")?.as_str()?;
        if schema != METRICS_SCHEMA {
            return Err(format!(
                "unsupported metrics schema {schema:?} (expected {METRICS_SCHEMA:?})"
            ));
        }
        let count = |key: &str| -> Result<usize, String> { Ok(v.field(key)?.as_u32()? as usize) };
        Ok(MetricsDoc {
            experiment: v.field("experiment")?.as_str()?.to_string(),
            cells_done: count("cells_done")?,
            cells_total: count("cells_total")?,
            trials_done: count("trials_done")?,
            trials_total: count("trials_total")?,
            work_done: v.field("work_done")?.as_f64()?,
            work_total: v.field("work_total")?.as_f64()?,
            elapsed_secs: v.field("elapsed_secs")?.as_f64()?,
            trials_per_sec: v.field("trials_per_sec")?.as_f64()?,
            trials_per_sec_per_worker: v.field("trials_per_sec_per_worker")?.as_f64()?,
            workers: count("workers")?,
            eta_secs: v.field("eta_secs")?.as_f64()?,
            checkpoint_seq: v.field("checkpoint_seq")?.as_u32()? as u64,
            finished: v.field("finished")?.as_bool()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::Metric;
    use contention_core::algorithm::AlgorithmKind;
    use contention_stats::stream::StreamingSample;
    use std::time::Duration;

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ckpt-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn tiny_grid() -> GridMeta {
        GridMeta {
            algorithms: vec![AlgorithmKind::Beb],
            ns: vec![10, 20],
            trials: 2,
            metrics: vec![Metric::CwSlots],
            // Linear so the work-weighted metrics are distinguishable from
            // plain trial counts: n=20 trials weigh twice n=10 trials.
            cost: contention_sim::sched::CostSpec::LinearN,
        }
    }

    fn cell(n: u32, samples: Vec<f64>) -> StatsCell {
        StatsCell {
            algorithm: AlgorithmKind::Beb,
            n,
            acc: MetricStats::from_parts(
                vec![Metric::CwSlots],
                vec![StreamingSample::from_raw(samples)],
            ),
        }
    }

    fn snap(cells: Vec<StatsCell>, done: usize, finished: bool) -> SweepSnapshot<MetricStats> {
        SweepSnapshot {
            cells,
            completed_trials: done,
            total_trials: 4,
            elapsed: Duration::from_secs(2),
            workers: 2,
            finished,
        }
    }

    #[test]
    fn metrics_doc_round_trips_including_null_eta() {
        let doc = MetricsDoc {
            experiment: "fig5".into(),
            cells_done: 3,
            cells_total: 8,
            trials_done: 7,
            trials_total: 16,
            work_done: 120.5,
            work_total: 480.0,
            elapsed_secs: 1.25,
            trials_per_sec: 5.6,
            trials_per_sec_per_worker: 2.8,
            workers: 2,
            eta_secs: f64::NAN,
            checkpoint_seq: 4,
            finished: false,
        };
        let back = MetricsDoc::parse(&doc.to_json()).unwrap();
        assert!(back.eta_secs.is_nan(), "null must read back as NaN");
        assert_eq!(back.trials_per_sec.to_bits(), doc.trials_per_sec.to_bits());
        assert_eq!(
            MetricsDoc {
                eta_secs: 0.0,
                ..back
            },
            MetricsDoc {
                eta_secs: 0.0,
                ..doc
            }
        );
    }

    #[test]
    fn metrics_parse_rejects_wrong_schema() {
        let text = r#"{"schema": "bench/v1"}"#;
        let err = MetricsDoc::parse(text).unwrap_err();
        assert!(err.contains("unsupported metrics schema"), "{err}");
    }

    #[test]
    fn missing_work_lists_holes_and_rejects_partial_metric_trials() {
        let grid = tiny_grid();
        // Cell n=10 complete, n=20 missing trial 1.
        let state = ShardState::from_cells(
            "t",
            false,
            (0, 1),
            &grid,
            &[cell(10, vec![1.0, 2.0]), cell(20, vec![3.0, f64::NAN])],
        );
        let range = |cell, lo, hi| TrialRange { cell, lo, hi };
        assert_eq!(missing_work(&state).unwrap(), vec![range(1, 1, 2)]);

        // A whole cell absent → all its trials missing, as one range.
        let state = ShardState::from_cells("t", false, (0, 1), &grid, &[cell(10, vec![1.0, 2.0])]);
        assert_eq!(missing_work(&state).unwrap(), vec![range(1, 0, 2)]);

        // Scattered holes become one range per run of consecutive holes.
        let wide = GridMeta {
            trials: 6,
            ..tiny_grid()
        };
        let nan = f64::NAN;
        let state = ShardState::from_cells(
            "t",
            false,
            (0, 1),
            &wide,
            &[cell(20, vec![nan, nan, 1.0, nan, 2.0, nan])],
        );
        assert_eq!(
            missing_work(&state).unwrap(),
            vec![
                range(0, 0, 6),
                range(1, 0, 2),
                range(1, 3, 4),
                range(1, 5, 6)
            ]
        );

        // Complete state → empty plan.
        let state = ShardState::from_cells(
            "t",
            false,
            (0, 1),
            &grid,
            &[cell(10, vec![1.0, 2.0]), cell(20, vec![3.0, 4.0])],
        );
        assert!(missing_work(&state).unwrap().is_empty());

        // Two metrics, trial recorded for only one → corrupt.
        let grid2 = GridMeta {
            metrics: vec![Metric::CwSlots, Metric::Collisions],
            ns: vec![10],
            ..tiny_grid()
        };
        let torn = StatsCell {
            algorithm: AlgorithmKind::Beb,
            n: 10,
            acc: MetricStats::from_parts(
                grid2.metrics.clone(),
                vec![
                    StreamingSample::from_raw(vec![1.0, f64::NAN]),
                    StreamingSample::from_raw(vec![1.0, 2.0]),
                ],
            ),
        };
        let state = ShardState::from_cells("t", false, (0, 1), &grid2, &[torn]);
        let err = missing_work(&state).unwrap_err();
        assert!(err.contains("only some"), "{err}");
    }

    #[test]
    fn writer_sequences_checkpoints_updates_latest_and_prunes() {
        let dir = scratch_dir("writer");
        let writer = CheckpointWriter::new(&dir, "t", false, tiny_grid()).unwrap();
        assert_eq!(writer.next_seq(), 0);
        for i in 0..5usize {
            writer.snapshot(snap(
                vec![cell(10, vec![1.0, 2.0]), cell(20, vec![3.0, f64::NAN])],
                2 + i,
                i == 4,
            ));
        }
        let ckpt_dir = dir.join(CHECKPOINT_DIR);
        assert_eq!(load_latest(&dir).unwrap().unwrap().seq, 4);
        // Retention keeps the RETAIN newest.
        assert!(!ckpt_dir.join(checkpoint_file_name("t", 0)).exists());
        assert!(!ckpt_dir.join(checkpoint_file_name("t", 1)).exists());
        assert!(ckpt_dir.join(checkpoint_file_name("t", 2)).exists());
        assert!(ckpt_dir.join(checkpoint_file_name("t", 4)).exists());
        // The sidecar reflects the last snapshot.
        let doc = MetricsDoc::parse(&fs::read_to_string(dir.join(METRICS_FILE)).unwrap()).unwrap();
        assert!(doc.finished);
        assert_eq!(doc.checkpoint_seq, 4);
        assert_eq!((doc.cells_done, doc.cells_total), (1, 2));
        assert_eq!((doc.trials_done, doc.trials_total), (6, 4));
        // Work is cost-weighted: both recorded n=10 trials (cost 10 each)
        // plus one of two n=20 trials (cost 20) out of a 60-unit grid.
        assert_eq!((doc.work_done, doc.work_total), (40.0, 60.0));
        // The remaining trial is an n=20 heavyweight: the work-based ETA
        // must price it at 20 units, not at the 13.3-unit mean trial.
        let work_rate = doc.work_done / doc.elapsed_secs;
        assert!((doc.eta_secs - 20.0 / work_rate).abs() < 1e-9, "{doc:?}");
        // A new writer in the same dir continues the sequence.
        let writer2 = CheckpointWriter::new(&dir, "t", false, tiny_grid()).unwrap();
        assert_eq!(writer2.next_seq(), 5);
        let _ = fs::remove_dir_all(&dir);
    }

    /// `missing_work` places each cell by its grid position: a state of
    /// 400 000 cells, every one missing its only trial, plans in linear
    /// time, where a scan of the cells per grid cell takes about 10¹¹ steps.
    #[test]
    fn missing_work_of_many_cells_takes_linear_time() {
        const CELLS: u32 = 400_000;
        let grid = GridMeta {
            ns: (0..CELLS).collect(),
            trials: 1,
            ..tiny_grid()
        };
        let cells: Vec<StatsCell> = (0..CELLS).map(|n| cell(n, vec![f64::NAN])).collect();
        let state = ShardState::from_cells("t", false, (0, 1), &grid, &cells);
        drop(cells);
        let (sender, receiver) = std::sync::mpsc::channel();
        let planner = std::thread::spawn(move || sender.send(missing_work(&state)).unwrap());
        let plan = receiver
            .recv_timeout(Duration::from_secs(10))
            .expect("400 000 cells plan within 10 s")
            .unwrap();
        planner.join().unwrap();
        assert_eq!(plan.len(), CELLS as usize);
        assert!(plan
            .iter()
            .enumerate()
            .all(|(i, r)| (r.cell, r.lo, r.hi) == (i, 0, 1)));
    }

    #[test]
    fn with_base_merges_prior_cells_into_checkpoints() {
        let dir = scratch_dir("base");
        let base = vec![cell(10, vec![1.0, 2.0]), cell(20, vec![3.0, f64::NAN])];
        let writer = CheckpointWriter::new(&dir, "t", false, tiny_grid())
            .unwrap()
            .with_base(base);
        // The resume run records only the missing trial of n=20.
        writer.snapshot(SweepSnapshot {
            cells: vec![cell(20, vec![f64::NAN, 9.0])],
            completed_trials: 1,
            total_trials: 1,
            elapsed: Duration::from_secs(1),
            workers: 1,
            finished: true,
        });
        let loaded = load_latest(&dir).unwrap().unwrap();
        assert_eq!(loaded.seq, 0);
        assert!(loaded.warnings.is_empty(), "{:?}", loaded.warnings);
        assert!(loaded.state.is_complete(), "base + resume must be complete");
        let cells = loaded.state.into_cells();
        assert_eq!(cells[1].acc.sample(Metric::CwSlots), &[3.0, 9.0]);
        let doc = MetricsDoc::parse(&fs::read_to_string(dir.join(METRICS_FILE)).unwrap()).unwrap();
        assert_eq!((doc.trials_done, doc.trials_total), (4, 4));
        assert_eq!((doc.work_done, doc.work_total), (60.0, 60.0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_latest_ignores_a_stale_pointer_and_skips_torn_artifacts() {
        let dir = scratch_dir("torn");
        // Nothing to resume is not an error: no directory, an empty one, or
        // one holding only a staged temp file.
        assert!(load_latest(&dir).unwrap().is_none());
        let writer = CheckpointWriter::new(&dir, "t", false, tiny_grid()).unwrap();
        assert!(load_latest(&dir).unwrap().is_none());
        let staged = format!("{}.tmp", checkpoint_file_name("t", 0));
        fs::write(dir.join(CHECKPOINT_DIR).join(staged), "{}").unwrap();
        assert!(load_latest(&dir).unwrap().is_none());
        writer.snapshot(snap(vec![cell(10, vec![1.0, 2.0])], 2, false));
        writer.snapshot(snap(vec![cell(10, vec![1.0, 2.0])], 2, false));
        let ckpt_dir = dir.join(CHECKPOINT_DIR);

        // A `latest` pointer file as older builds wrote it, left naming seq
        // 0 by a kill between two renames: the highest seq still wins.
        fs::write(ckpt_dir.join("latest"), checkpoint_file_name("t", 0)).unwrap();
        let loaded = load_latest(&dir).unwrap().unwrap();
        assert_eq!(loaded.seq, 1, "the newest valid checkpoint must win");
        assert!(loaded.warnings.is_empty(), "{:?}", loaded.warnings);

        // Newest artifact truncated mid-write → next-newest wins, and the
        // warning names the skipped file.
        fs::write(ckpt_dir.join(checkpoint_file_name("t", 1)), "{\"schema\": ").unwrap();
        // A stray staged temp file from a killed write is ignored outright.
        fs::write(
            ckpt_dir.join(format!("{}.tmp", checkpoint_file_name("t", 2))),
            "garbage",
        )
        .unwrap();
        let loaded = load_latest(&dir).unwrap().unwrap();
        assert_eq!(loaded.seq, 0);
        assert_eq!(loaded.state.cells.len(), 1);
        assert_eq!(loaded.warnings.len(), 1, "{:?}", loaded.warnings);
        assert!(
            loaded.warnings[0].starts_with("skipping torn checkpoint: ")
                && loaded.warnings[0].contains(&checkpoint_file_name("t", 1)),
            "{:?}",
            loaded.warnings
        );

        // Nothing valid at all → an error naming the failures.
        fs::write(ckpt_dir.join(checkpoint_file_name("t", 0)), "also torn").unwrap();
        let err = load_latest(&dir).unwrap_err();
        assert!(err.contains("no valid checkpoint"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_sidecar_never_emits_nan_or_inf_on_zero_elapsed_time() {
        // A snapshot can land within the clock's resolution of the start:
        // every rate is unknowable, so the sidecar must say `null` — never
        // the JSON-invalid `NaN`/`inf` tokens, because the work-server
        // re-serves these bytes verbatim to arbitrary clients.
        let dir = scratch_dir("degen-elapsed");
        let writer = CheckpointWriter::new(&dir, "t", false, tiny_grid()).unwrap();
        writer.snapshot(SweepSnapshot {
            cells: vec![cell(10, vec![1.0, f64::NAN])],
            completed_trials: 1,
            total_trials: 4,
            elapsed: Duration::ZERO,
            workers: 1,
            finished: false,
        });
        let text = fs::read_to_string(dir.join(METRICS_FILE)).unwrap();
        assert!(
            !text.contains("NaN") && !text.contains("inf"),
            "degenerate rates leaked into the sidecar:\n{text}"
        );
        let doc = MetricsDoc::parse(&text).unwrap();
        assert!(doc.trials_per_sec.is_nan());
        assert!(doc.trials_per_sec_per_worker.is_nan());
        assert!(
            doc.eta_secs.is_nan(),
            "work remains but the rate is unknown"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_sidecar_never_emits_nan_or_inf_on_zero_total_work() {
        // A zero-trial grid has work_total == 0: nothing may divide by it,
        // and with no work left the ETA is zero, not NaN or infinity.
        let dir = scratch_dir("degen-zerowork");
        let grid = GridMeta {
            trials: 0,
            ..tiny_grid()
        };
        let writer = CheckpointWriter::new(&dir, "t", false, grid).unwrap();
        writer.snapshot(SweepSnapshot {
            cells: Vec::new(),
            completed_trials: 0,
            total_trials: 0,
            elapsed: Duration::from_secs(1),
            workers: 1,
            finished: true,
        });
        let text = fs::read_to_string(dir.join(METRICS_FILE)).unwrap();
        assert!(
            !text.contains("NaN") && !text.contains("inf"),
            "degenerate rates leaked into the sidecar:\n{text}"
        );
        let doc = MetricsDoc::parse(&text).unwrap();
        assert_eq!(doc.work_total, 0.0);
        assert_eq!(doc.eta_secs, 0.0, "no work left means ETA zero");
        assert_eq!(doc.trials_per_sec, 0.0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_io_failure_warns_but_does_not_panic() {
        let dir = scratch_dir("fail");
        let writer = CheckpointWriter::new(&dir, "t", false, tiny_grid()).unwrap();
        // Make the checkpoint directory vanish out from under the writer.
        fs::remove_dir_all(dir.join(CHECKPOINT_DIR)).unwrap();
        writer.snapshot(snap(vec![cell(10, vec![1.0, 2.0])], 2, true));
        assert!(writer.warned.load(Ordering::Relaxed));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_sidecar_refresh_does_not_fail_a_durable_checkpoint() {
        let dir = scratch_dir("sidecar");
        let writer = CheckpointWriter::new(&dir, "t", false, tiny_grid()).unwrap();
        // A directory takes the sidecar's temp name: its refresh fails.
        fs::create_dir(fsutil::tmp_path(&dir.join(METRICS_FILE))).unwrap();
        let written = writer.write_snapshot(snap(vec![cell(10, vec![1.0, 2.0])], 2, true));
        assert_eq!(written, Ok(()));
        assert!(writer.sidecar_warned.load(Ordering::Relaxed));
        assert_eq!(load_latest(&dir).unwrap().unwrap().seq, 0);
        assert!(!dir.join(METRICS_FILE).exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
