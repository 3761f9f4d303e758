//! Live observation of an in-flight sweep: the checkpoint/metrics seam.
//!
//! A long sweep (10⁷ trials at n = 10⁶) that dies at 90 % should not restart
//! from zero. The engine therefore lets a caller attach a [`SweepMonitor`]
//! to a fold run: a dedicated snapshot thread wakes on a [`SnapshotCadence`]
//! (wall time and/or completed trials), clones the per-cell accumulator
//! state **off the fold seam** — workers keep claiming trials; only a
//! worker recording into the one cell currently being cloned briefly waits
//! on that cell's lock — and hands the clone to the monitor as a
//! [`SweepSnapshot`]. The monitor side (in `contention-experiments`) turns
//! snapshots into atomic `shard_state/v1` checkpoint artifacts and a
//! `metrics.json` sidecar.
//!
//! Snapshots are read-only observations: they can never change a single bit
//! of the sweep's results, so determinism across thread counts and plans
//! is untouched. The state they capture is a *ragged cut* — each cell
//! is internally consistent (cloned under its lock, and a trial's metrics
//! are recorded atomically under that lock), but cells are cloned one after
//! another while workers race ahead. That is exactly what the
//! position-addressed artifact format tolerates: a resumed run recomputes
//! whatever trials the cut missed and merges bit-identically.

use crate::engine::FoldedCell;
use std::time::Duration;

/// When the snapshot thread should capture in-flight state.
///
/// Either trigger fires a snapshot; with both `None` only the guaranteed
/// final snapshot (after the workers join) is taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotCadence {
    /// Snapshot when this much wall time passed since the last snapshot.
    pub every: Option<Duration>,
    /// Snapshot when this many trials completed since the last snapshot.
    pub every_trials: Option<usize>,
}

impl SnapshotCadence {
    /// Wall-clock cadence: every `secs` seconds.
    pub fn secs(secs: u64) -> SnapshotCadence {
        SnapshotCadence {
            every: Some(Duration::from_secs(secs)),
            every_trials: None,
        }
    }

    /// Trial-count cadence: every `trials` completed trials.
    pub fn trials(trials: usize) -> SnapshotCadence {
        SnapshotCadence {
            every: None,
            every_trials: Some(trials),
        }
    }

    /// Whether a snapshot is due, given what accumulated since the last one.
    pub fn due(&self, since_last: Duration, trials_since_last: usize) -> bool {
        self.every.is_some_and(|d| since_last >= d)
            || self
                .every_trials
                .is_some_and(|t| t > 0 && trials_since_last >= t)
    }
}

/// One observation of an in-flight sweep, handed to a [`SweepMonitor`].
#[derive(Debug, Clone)]
pub struct SweepSnapshot<A> {
    /// Clones of every accumulator the run is folding into, in grid order —
    /// one per cell its plan touches ([`Sweep::run_fold_monitored`]): the
    /// whole grid for a direct run, only the re-run cells for a resume.
    ///
    /// [`Sweep::run_fold_monitored`]: crate::engine::Sweep::run_fold_monitored
    pub cells: Vec<FoldedCell<A>>,
    /// Trials completed *by this run* at capture time.
    pub completed_trials: usize,
    /// Trials this run will execute in total (not the whole grid's count
    /// when resuming — the monitor knows its own baseline).
    pub total_trials: usize,
    /// Wall time since the run's workers started.
    pub elapsed: Duration,
    /// Worker threads executing the run.
    pub workers: usize,
    /// True for the guaranteed last snapshot, taken after the workers have
    /// joined — `completed_trials == total_trials` and every cell is final.
    pub finished: bool,
}

/// A sink for in-flight sweep state, called from the snapshot thread.
///
/// Implementations must tolerate being called at any moment between (and
/// once after) worker claims, and should not panic: a failing sink would
/// tear down the whole sweep. I/O-backed monitors (checkpoint writers)
/// swallow and report their own errors instead of propagating them.
pub trait SweepMonitor<A>: Sync {
    /// Observes one snapshot. Runs on the dedicated snapshot thread, never
    /// on a worker, so moderate work here (serialization, file writes) does
    /// not stall the sweep.
    fn snapshot(&self, snap: SweepSnapshot<A>);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cadence_triggers_on_either_axis() {
        let c = SnapshotCadence {
            every: Some(Duration::from_secs(5)),
            every_trials: Some(100),
        };
        assert!(!c.due(Duration::from_secs(1), 99));
        assert!(c.due(Duration::from_secs(5), 0));
        assert!(c.due(Duration::from_secs(1), 100));
    }

    #[test]
    fn empty_cadence_is_never_due() {
        let c = SnapshotCadence::default();
        assert!(!c.due(Duration::from_secs(3600), usize::MAX));
    }

    #[test]
    fn constructors_set_one_axis() {
        assert_eq!(
            SnapshotCadence::secs(30).every,
            Some(Duration::from_secs(30))
        );
        assert_eq!(SnapshotCadence::secs(30).every_trials, None);
        assert_eq!(SnapshotCadence::trials(64).every_trials, Some(64));
    }
}
