//! Identification of the contention-resolution algorithms under study.

use std::fmt;

/// Every algorithm evaluated by the paper, plus the ablation baselines this
/// reproduction adds.
///
/// The first four are the windowed backoff algorithms of §III (Figure 2 and
/// Table II). `Fixed` is the backoff stage of the size-estimation approach
/// (§VI). `BestOfK` is the full §VI algorithm — estimation *then* fixed
/// backoff — and therefore has no pure window schedule of its own: its
/// [`Backoff`](crate::schedule::Backoff) table is `None`.
/// `Polynomial` is an extra baseline motivated by the related work on
/// polynomial backoff (paper's reference \[53\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgorithmKind {
    /// Binary exponential backoff: `W ← 2W`.
    Beb,
    /// LOG-BACKOFF: `W ← (1 + 1/lg W) W`.
    LogBackoff,
    /// LOGLOG-BACKOFF: `W ← (1 + 1/lg lg W) W`.
    LogLogBackoff,
    /// SAWTOOTH-BACKOFF: doubling outer windows, each followed by a "backon"
    /// run of halving windows `W, W/2, …, 2`.
    Sawtooth,
    /// Fixed backoff: every window has the same size.
    Fixed { window: u32 },
    /// BEST-OF-k size estimation followed by fixed backoff at the estimate.
    BestOfK { k: u32 },
    /// Polynomial backoff ablation: window `(attempt + 1)^degree`.
    Polynomial { degree: u32 },
}

impl AlgorithmKind {
    /// The four algorithms compared head-to-head throughout the paper's
    /// evaluation, in the order the figures list them.
    pub const PAPER_SET: [AlgorithmKind; 4] = [
        AlgorithmKind::Beb,
        AlgorithmKind::LogBackoff,
        AlgorithmKind::LogLogBackoff,
        AlgorithmKind::Sawtooth,
    ];

    /// Short label used in tables and figure legends (matches the paper).
    pub fn label(&self) -> String {
        match self {
            AlgorithmKind::Beb => "BEB".to_string(),
            AlgorithmKind::LogBackoff => "LB".to_string(),
            AlgorithmKind::LogLogBackoff => "LLB".to_string(),
            AlgorithmKind::Sawtooth => "STB".to_string(),
            AlgorithmKind::Fixed { window } => format!("FIXED({window})"),
            AlgorithmKind::BestOfK { k } => format!("Best-of-{k}"),
            AlgorithmKind::Polynomial { degree } => format!("POLY({degree})"),
        }
    }

    /// Stable machine-readable identifier, round-trippable through
    /// [`AlgorithmKind::from_key`] — what serialized artifacts (e.g. the
    /// `shard_state/v1` files) store instead of the display label.
    pub fn key(&self) -> String {
        match self {
            AlgorithmKind::Beb => "beb".to_string(),
            AlgorithmKind::LogBackoff => "lb".to_string(),
            AlgorithmKind::LogLogBackoff => "llb".to_string(),
            AlgorithmKind::Sawtooth => "stb".to_string(),
            AlgorithmKind::Fixed { window } => format!("fixed:{window}"),
            AlgorithmKind::BestOfK { k } => format!("bestof:{k}"),
            AlgorithmKind::Polynomial { degree } => format!("poly:{degree}"),
        }
    }

    /// Parses a [`AlgorithmKind::key`] string back into the algorithm.
    pub fn from_key(key: &str) -> Option<AlgorithmKind> {
        match key {
            "beb" => return Some(AlgorithmKind::Beb),
            "lb" => return Some(AlgorithmKind::LogBackoff),
            "llb" => return Some(AlgorithmKind::LogLogBackoff),
            "stb" => return Some(AlgorithmKind::Sawtooth),
            _ => {}
        }
        let (kind, arg) = key.split_once(':')?;
        let arg: u32 = arg.parse().ok()?;
        match kind {
            "fixed" => Some(AlgorithmKind::Fixed { window: arg }),
            "bestof" => Some(AlgorithmKind::BestOfK { k: arg }),
            "poly" => Some(AlgorithmKind::Polynomial { degree: arg }),
            _ => None,
        }
    }
}

impl fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{Backoff, Truncation};

    #[test]
    fn labels_match_paper() {
        assert_eq!(AlgorithmKind::Beb.label(), "BEB");
        assert_eq!(AlgorithmKind::LogBackoff.label(), "LB");
        assert_eq!(AlgorithmKind::LogLogBackoff.label(), "LLB");
        assert_eq!(AlgorithmKind::Sawtooth.label(), "STB");
        assert_eq!(AlgorithmKind::BestOfK { k: 3 }.label(), "Best-of-3");
    }

    #[test]
    fn keys_round_trip_every_variant() {
        let all = [
            AlgorithmKind::Beb,
            AlgorithmKind::LogBackoff,
            AlgorithmKind::LogLogBackoff,
            AlgorithmKind::Sawtooth,
            AlgorithmKind::Fixed { window: 512 },
            AlgorithmKind::BestOfK { k: 5 },
            AlgorithmKind::Polynomial { degree: 2 },
        ];
        for kind in all {
            assert_eq!(AlgorithmKind::from_key(&kind.key()), Some(kind), "{kind}");
        }
        assert_eq!(AlgorithmKind::from_key("nope"), None);
        assert_eq!(AlgorithmKind::from_key("fixed:abc"), None);
        assert_eq!(AlgorithmKind::from_key("warp:3"), None);
    }

    #[test]
    fn paper_set_has_schedules() {
        for kind in AlgorithmKind::PAPER_SET {
            assert!(Backoff::new(kind, Truncation::paper()).is_some(), "{kind}");
        }
    }

    #[test]
    fn best_of_k_has_no_static_schedule() {
        let kind = AlgorithmKind::BestOfK { k: 5 };
        assert!(Backoff::new(kind, Truncation::paper()).is_none());
    }
}
