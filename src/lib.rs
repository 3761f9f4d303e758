//! # contention-resolution
//!
//! A full reproduction of *"Is Our Model for Contention Resolution Wrong?
//! Confronting the Cost of Collisions"* (Anderton & Young, SPAA 2017) as a
//! Rust workspace. This facade crate re-exports the public API of every
//! subsystem:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `contention-core` | backoff schedules, collision-cost model, channel models (fatal / softened / noisy), asymptotic bounds, 802.11g parameters, BEST-OF-k spec, metrics |
//! | [`sim`] | `contention-sim` | event queue, parallel trial runner, generic `Simulator`/`Sweep` engine and its one runner over `TrialRange` plans |
//! | [`slotted`] | `contention-slotted` | abstract slotted simulators: aligned windows over any channel model (`WindowedSim`), residual timers (`ResidualSim`), long-lived traffic (`DynamicSim`) |
//! | [`mac`] | `contention-mac` | event-driven IEEE 802.11g DCF simulator |
//! | [`stats`] | `contention-stats` | medians, outlier rule, CIs, OLS regression |
//! | [`experiments`] | `contention-experiments` | per-figure experiment harness (`repro` binary) |
//!
//! ## Quickstart
//!
//! ```
//! use contention_resolution::prelude::*;
//!
//! // Run a single batch of 50 stations under BEB on the 802.11g simulator.
//! let config = MacConfig::paper(AlgorithmKind::Beb, 64);
//! let mut rng = trial_rng(experiment_tag("docs"), AlgorithmKind::Beb, 50, 0);
//! let run = simulate(&config, 50, &mut rng);
//! assert_eq!(run.metrics.successes, 50);
//! assert!(run.metrics.collisions > 0); // CWmin = 1 guarantees early pileups
//! ```

#![forbid(unsafe_code)]

pub use contention_core as core;
pub use contention_experiments as experiments;
pub use contention_mac as mac;
pub use contention_sim as sim;
pub use contention_slotted as slotted;
pub use contention_stats as stats;

/// The names most programs need.
pub mod prelude {
    pub use contention_core::algorithm::AlgorithmKind;
    pub use contention_core::bounds;
    pub use contention_core::channel::{ChannelModel, Recovery, SlotFate};
    pub use contention_core::estimate::BestOfKSpec;
    pub use contention_core::metrics::{BatchMetrics, StationMetrics};
    pub use contention_core::model::{CostModel, Decomposition};
    pub use contention_core::params::Phy80211g;
    pub use contention_core::rng::{experiment_tag, trial_rng};
    pub use contention_core::schedule::{Schedule, Truncation, WindowSchedule};
    pub use contention_core::time::Nanos;
    pub use contention_mac::{simulate, MacConfig, MacRun, MacSim, Trace};
    pub use contention_sim::engine::{
        folded, run_trial, run_trial_with, validate_plan, Accumulator, CellRange, ExecPolicy,
        FoldedCell, Simulator, Sweep, TrialRange,
    };
    pub use contention_sim::monitor::{SnapshotCadence, SweepMonitor, SweepSnapshot};
    pub use contention_sim::sched::CostSpec;
    pub use contention_sim::summary::{Metric, TrialSummary};
    pub use contention_slotted::residual::{ResidualConfig, ResidualSim};
    pub use contention_slotted::windowed::{WindowedConfig, WindowedSim};
    pub use contention_stats::regression::linear_fit;
    pub use contention_stats::summary::Summary;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_compiles_and_runs() {
        let config = MacConfig::paper(AlgorithmKind::Sawtooth, 64);
        let mut rng = trial_rng(experiment_tag("facade"), AlgorithmKind::Sawtooth, 10, 0);
        let run = simulate(&config, 10, &mut rng);
        assert_eq!(run.metrics.successes, 10);
    }
}
