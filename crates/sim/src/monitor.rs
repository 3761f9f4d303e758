//! Live observation of an in-flight sweep: the checkpoint/metrics seam.
//!
//! A long sweep (10⁷ trials at n = 10⁶) that dies at 90 % should not restart
//! from zero. The engine therefore lets a caller attach a [`Monitor`] to a
//! fold run: a snapshot sink, a plain `Fn(SweepSnapshot<A>)`, and the
//! [`SnapshotCadence`] (wall time and/or completed trials) it is called on.
//! The worker whose trial makes a snapshot due clones the per-cell
//! accumulator state and calls the sink with it as a [`SweepSnapshot`], on
//! its own thread. The other workers keep claiming trials: one recording
//! into the cell being cloned briefly waits on that cell's lock, and one
//! that finishes a trial meanwhile skips its cadence check rather than
//! wait. After the workers join, the caller's thread takes the finished
//! snapshot. The sink side (in `contention-experiments`) turns snapshots
//! into atomic `shard_state/v1` checkpoint artifacts and a `metrics.json`
//! sidecar. With one worker the trials run in plan order on the caller's
//! thread, so the snapshots a trial cadence takes, and what each holds,
//! depend on the plan alone.
//!
//! Snapshots are read-only observations: they can never change a single bit
//! of the sweep's results, so determinism across thread counts and plans
//! is untouched. The state they capture is a *ragged cut* — each cell
//! is internally consistent (cloned under its lock, and a trial's metrics
//! are recorded atomically under that lock), but cells are cloned one after
//! another while other workers race ahead. That is exactly what the
//! position-addressed artifact format tolerates: a resumed run recomputes
//! whatever trials the cut missed and merges bit-identically.

use crate::engine::FoldedCell;
use std::time::Duration;

/// When a sweep's workers snapshot its in-flight state.
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

/// The engine's snapshot seam ([`Sweep::run_fold_monitored`]): the cadence
/// a fold run snapshots on, and the sink it hands each [`SweepSnapshot`] to.
///
/// [`Sweep::run_fold_monitored`]: crate::engine::Sweep::run_fold_monitored
pub type Monitor<'a, A> = (SnapshotCadence, &'a (dyn Fn(SweepSnapshot<A>) + Sync));

/// One observation of an in-flight sweep, handed to a snapshot sink.
#[derive(Debug, Clone)]
pub struct SweepSnapshot<A> {
    /// Clones of every accumulator the run is folding into, in grid order —
    /// one per cell its plan touches ([`Sweep::run_fold_monitored`]): the
    /// whole grid for a direct run, only the re-run cells for a resume.
    ///
    /// [`Sweep::run_fold_monitored`]: crate::engine::Sweep::run_fold_monitored
    pub cells: Vec<FoldedCell<A>>,
    /// Trials completed *by this run* at capture time. The cells hold at
    /// least these: a worker folds a trial before it counts it.
    pub completed_trials: usize,
    /// Wall time since the run's workers started.
    pub elapsed: Duration,
    /// Worker threads executing the run.
    pub workers: usize,
    /// True for the guaranteed last snapshot, taken after the workers have
    /// joined — every planned trial is folded and counted.
    pub finished: bool,
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
