//! Cost-aware scheduling: analytic per-trial cost estimates for sweep grids.
//!
//! Per-trial cost across one sweep grid varies by 2–3 orders of magnitude
//! (the `scale` experiment spans n = 12 500 … 10⁶; the saturation sweep
//! spans offered loads of 5 % … 120 % of channel capacity). A scheduler or
//! shard partitioner that treats every `(algorithm, n)` cell as equal work
//! therefore balances *counts*, not *work*: one shard inherits all the
//! n = 10⁶ cells, and the join waits on whichever worker drew the heavy
//! tail. This module gives the runtime a common currency for "estimated
//! work": [`CostSpec`], a small, serializable analytic shape (`uniform`,
//! `linear-n`, `n-log-n`) each experiment's grid description declares for
//! its backend. Cost is a function of `n` alone — the paper's algorithms
//! differ by small constant factors, the grid axes by orders of magnitude.
//! The absolute scale is irrelevant everywhere it is used — claim tapering,
//! claim ordering, lease cutting and shard partitioning only compare costs
//! against each other — so an analytic shape is enough.
//!
//! Estimates feed scheduling only. A wrong cost estimate can slow a sweep
//! down; it can never change a bit of its output, because results are
//! routed by grid position and per-trial RNG streams are derived from grid
//! coordinates alone.

/// An analytic per-trial cost shape, keyed by the grid's `n` axis.
///
/// This is pure data — it serializes into shard/checkpoint artifacts (as
/// its [`key`](CostSpec::key)) so a resumed or merged run plans work with
/// the same estimates the original run used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CostSpec {
    /// Every cell costs the same (the safe default; also what artifacts
    /// recorded before cost metadata existed deserialize to).
    #[default]
    Uniform,
    /// Cost proportional to `n` — e.g. the saturation sweep, where the `n`
    /// axis encodes offered load and arrivals dominate the trial.
    LinearN,
    /// Cost proportional to `n·log₂ n` — the windowed/MAC resolution
    /// backends, whose backoff runs last Θ(log n) windows of Θ(n) slots.
    NLogN,
}

impl CostSpec {
    /// The stable serialization key (`"uniform"` / `"linear-n"` /
    /// `"n-log-n"`).
    pub fn key(&self) -> &'static str {
        match self {
            CostSpec::Uniform => "uniform",
            CostSpec::LinearN => "linear-n",
            CostSpec::NLogN => "n-log-n",
        }
    }

    /// Parses a [`key`](CostSpec::key) back into its spec.
    pub fn from_key(key: &str) -> Option<CostSpec> {
        match key {
            "uniform" => Some(CostSpec::Uniform),
            "linear-n" => Some(CostSpec::LinearN),
            "n-log-n" => Some(CostSpec::NLogN),
            _ => None,
        }
    }

    /// The estimated cost of one trial at `n`, in arbitrary units (only
    /// ratios matter). Always finite and ≥ 1, so degenerate axes (n = 0
    /// placeholder cells) still carry schedulable weight.
    pub fn cost(&self, n: u32) -> f64 {
        let x = f64::from(n).max(1.0);
        match self {
            CostSpec::Uniform => 1.0,
            CostSpec::LinearN => x,
            CostSpec::NLogN => x * x.max(2.0).log2(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_round_trip() {
        for spec in [CostSpec::Uniform, CostSpec::LinearN, CostSpec::NLogN] {
            assert_eq!(CostSpec::from_key(spec.key()), Some(spec));
        }
        assert_eq!(CostSpec::from_key("bogus"), None);
    }

    #[test]
    fn costs_are_positive_and_monotone() {
        for spec in [CostSpec::Uniform, CostSpec::LinearN, CostSpec::NLogN] {
            let mut last = 0.0;
            for n in [0u32, 1, 2, 100, 12_500, 1_000_000] {
                let c = spec.cost(n);
                assert!(c.is_finite() && c >= 1.0, "{spec:?} at n={n}: {c}");
                assert!(c >= last, "{spec:?} not monotone at n={n}");
                last = c;
            }
        }
        // The shapes actually separate: at n = 10⁶, n·log n ≫ n ≫ 1.
        assert!(CostSpec::NLogN.cost(1_000_000) > 10.0 * CostSpec::LinearN.cost(1_000_000));
        assert_eq!(CostSpec::Uniform.cost(1_000_000), 1.0);
    }
}
