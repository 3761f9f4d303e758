//! # contention-sim
//!
//! Execution substrate for the contention-resolution reproduction:
//!
//! * [`event`] — a time-ordered pending-event queue with O(log n) scheduling,
//!   stable FIFO tie-breaking at equal timestamps, and token-based in-place
//!   cancellation (needed for backoff timers that freeze when the medium
//!   goes busy).
//! * [`parallel`] — a deterministic parallel executor; each sweep spawns
//!   its own scoped worker threads and joins them before it returns.
//!   Workers take one index at a time from one atomic cursor
//!   ([`parallel::parallel_for`]), and results are routed by index, so
//!   every number is independent of thread scheduling.
//! * [`sched`] — the analytic [`sched::CostSpec`] per-trial cost shapes
//!   experiment grids declare for scheduling.
//! * [`engine`] — the generic sweep engine: the [`engine::Simulator`] trait
//!   every backend implements, the canonical per-trial RNG derivation, the
//!   [`engine::Accumulator`] streaming-fold seam, and the
//!   thread-count-independent [`engine::Sweep`] grid with its one runner,
//!   [`engine::Sweep::run_fold_monitored`], which executes any plan of
//!   [`engine::TrialRange`]s under an [`engine::ExecPolicy`] (threads /
//!   progress).
//! * [`monitor`] — the live-observation seam: the [`monitor::SnapshotCadence`]
//!   on which a fold run's workers hand [`monitor::SweepSnapshot`]s to the
//!   sink a checkpoint writer attaches.
//! * [`progress`] — the rate-limited stderr progress meter long sweeps use.
//! * [`summary`] — [`summary::TrialSummary`], the scalar per-trial record
//!   every backend's output reduces to, and the [`summary::Metric`]
//!   selectors figures plot.

#![forbid(unsafe_code)]

pub mod engine;
pub mod event;
pub mod monitor;
pub mod parallel;
pub mod progress;
pub mod sched;
pub mod summary;

pub use engine::{
    folded, run_trial, validate_plan, Accumulator, ExecPolicy, FoldedCell, Simulator, Sweep,
    TrialRange,
};
pub use event::{EventQueue, EventToken};
pub use monitor::{Monitor, SnapshotCadence, SweepSnapshot};
pub use sched::CostSpec;
pub use summary::{Metric, TrialSummary};
