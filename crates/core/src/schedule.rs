//! Contention-window growth schedules (Figure 2 of the paper).
//!
//! A *window schedule* is the deterministic part of a windowed backoff
//! algorithm: the sequence `W_0, W_1, W_2, …` of contention-window sizes a
//! station walks through as its transmissions keep failing. The random part —
//! picking a slot (or residual timer) uniformly inside each window — belongs
//! to the simulators, and every one of them draws it through a [`Backoff`]
//! table: the window of each backoff *stage* (failures so far), held as a
//! precomputed [`UniformBelow`] draw.
//!
//! All schedules honour a [`Truncation`] (CWmin/CWmax); the paper's Table I
//! uses `CWmin = 1`, `CWmax = 1024`, the values IEEE 802.11g runs with in the
//! authors' NS3 setup.
//!
//! ```
//! use contention_core::algorithm::AlgorithmKind;
//! use contention_core::schedule::{Backoff, Truncation};
//!
//! let windows = |kind, count| {
//!     let table = Backoff::new(kind, Truncation::paper()).unwrap();
//!     (0..count).map(|stage| table.window(stage)).collect::<Vec<_>>()
//! };
//! assert_eq!(windows(AlgorithmKind::Beb, 5), [1, 2, 4, 8, 16]);
//!
//! // SAWTOOTH's "backon" runs each doubled window back down to 2:
//! assert_eq!(windows(AlgorithmKind::Sawtooth, 6), [2, 4, 2, 8, 4, 2]);
//! ```

use crate::algorithm::AlgorithmKind;
use crate::rng::UniformBelow;
use crate::util;
use rand::RngCore;

/// CWmin/CWmax clamping applied to every schedule (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncation {
    /// Smallest window a schedule may emit (also the starting window).
    pub cw_min: u32,
    /// Largest window a schedule may emit; growth saturates here.
    pub cw_max: u32,
}

impl Truncation {
    /// The paper's values: CWmin = 1, CWmax = 1024 (Table I).
    pub fn paper() -> Truncation {
        Truncation {
            cw_min: 1,
            cw_max: 1024,
        }
    }

    /// No practical truncation — the abstract model of §I-A, where windows
    /// may grow without bound. (`u32::MAX` is unreachable in any experiment.)
    pub fn unbounded() -> Truncation {
        Truncation {
            cw_min: 1,
            cw_max: u32::MAX,
        }
    }

    /// Clamp a window size into `[cw_min, cw_max]`.
    pub fn clamp(&self, w: u32) -> u32 {
        w.clamp(self.cw_min, self.cw_max)
    }

    fn clamp_f64(&self, w: f64) -> u32 {
        if w >= self.cw_max as f64 {
            self.cw_max
        } else {
            (w.ceil() as u32).clamp(self.cw_min, self.cw_max)
        }
    }
}

impl Default for Truncation {
    fn default() -> Self {
        Truncation::paper()
    }
}

/// One algorithm's backoff schedule under one truncation, indexed by stage:
/// stage `s` is a station's `s + 1`-th window, the one it draws from after
/// `s` failures.
///
/// Every truncated schedule except POLYNOMIAL is eventually periodic. BEB,
/// LB, LLB and FIXED end in a constant tail, and SAWTOOTH cycles its
/// saturated descent `CWmax, CWmax/2, …`. So the table holds one
/// [`UniformBelow`] per window of a finite prefix plus one period of the
/// cycle, and a draw returns the values, and consumes the words, of
/// `gen_range(0..window)` without a division. POLYNOMIAL grows without a
/// short period; its window is a closed form, evaluated per draw.
#[derive(Debug, Clone)]
pub struct Backoff {
    kind: AlgorithmKind,
    trunc: Truncation,
    /// The draws of stages `0..prefix`, then one period of the cycle that
    /// repeats from stage `prefix` on. Empty for POLYNOMIAL.
    draws: Box<[UniformBelow]>,
    prefix: usize,
}

impl Backoff {
    /// The table of `kind` under `trunc`, or `None` for BEST-OF-k, whose
    /// window is only known once its estimation phase has run (the MAC
    /// simulator draws it from the estimate).
    pub fn new(kind: AlgorithmKind, trunc: Truncation) -> Option<Backoff> {
        assert!(
            trunc.cw_min <= trunc.cw_max,
            "truncation must satisfy cw_min ≤ cw_max"
        );
        let mut next = recurrence(kind, trunc)?;
        let (windows, prefix) = match kind {
            AlgorithmKind::Polynomial { .. } => (Vec::new(), 0),
            AlgorithmKind::Fixed { .. } => (vec![next()], 0),
            _ => until_cycle(trunc.cw_max, next),
        };
        let draws = windows
            .into_iter()
            .map(|w| UniformBelow::new(w.into()))
            .collect();
        Some(Backoff {
            kind,
            trunc,
            draws,
            prefix,
        })
    }

    /// The table of `(kind, trunc)` in `tables`, built and added there on
    /// first use; `None` for BEST-OF-k. A kernel's per-worker scratch keeps
    /// one such list, so a worker builds each table it meets once per
    /// sweep, however its claims interleave algorithms.
    pub fn cached(
        tables: &mut Vec<Backoff>,
        kind: AlgorithmKind,
        trunc: Truncation,
    ) -> Option<&Backoff> {
        let at = match tables
            .iter()
            .position(|t| t.kind == kind && t.trunc == trunc)
        {
            Some(at) => at,
            None => {
                tables.push(Backoff::new(kind, trunc)?);
                tables.len() - 1
            }
        };
        Some(&tables[at])
    }

    /// The draw of `stage`: uniform below that stage's window.
    #[inline]
    pub fn draw(&self, stage: u32) -> UniformBelow {
        let i = stage as usize;
        if let Some(&draw) = self.draws.get(i) {
            return draw;
        }
        match self.kind {
            AlgorithmKind::Polynomial { degree } => {
                UniformBelow::new(poly_window(degree, self.trunc, stage).into())
            }
            _ => {
                let period = self.draws.len() - self.prefix;
                self.draws[self.prefix + (i - self.prefix) % period]
            }
        }
    }

    /// The stage after `stage`, folded into the table's cycle: `draw` of the
    /// result is `draw(stage + 1)`, and past the table's end the stage
    /// returns to the cycle's start, so a kernel that walks its stages this
    /// way from 0 never pays `draw`'s division. POLYNOMIAL has no table: its
    /// next stage is `stage + 1`, saturating. `stage` must be 0 or a stage
    /// this method returned.
    #[inline]
    pub fn next_stage(&self, stage: u32) -> u32 {
        debug_assert!(self.draws.is_empty() || (stage as usize) < self.draws.len());
        let next = stage.saturating_add(1);
        if self.draws.is_empty() || (next as usize) < self.draws.len() {
            next
        } else {
            self.prefix as u32
        }
    }

    /// The window, in slots, of `stage`. Never 0.
    pub fn window(&self, stage: u32) -> u32 {
        self.draw(stage).span() as u32
    }

    /// A backoff for `stage`: exactly `rng.gen_range(0..window(stage))`,
    /// in value and in words.
    #[inline]
    pub fn sample<R: RngCore + ?Sized>(&self, stage: u32, rng: &mut R) -> u64 {
        self.draw(stage).sample(rng)
    }
}

/// The recurrences of Figure 2 and the ablation schedules, one window per
/// call from stage 0 on, each in its own arithmetic; `None` for BEST-OF-k.
fn recurrence(kind: AlgorithmKind, trunc: Truncation) -> Option<Box<dyn FnMut() -> u32>> {
    let top = trunc.cw_max;
    Some(match kind {
        // Binary exponential backoff: `1, 2, 4, 8, …` up to CWmax, then flat.
        AlgorithmKind::Beb => {
            let mut current = trunc.cw_min;
            Box::new(move || {
                let w = trunc.clamp(current);
                current = current.saturating_mul(2).min(top);
                w
            })
        }
        // LOG-BACKOFF, `W ← (1 + 1/lg W) W`.
        AlgorithmKind::LogBackoff => grow(trunc, util::lg),
        // LOGLOG-BACKOFF, `W ← (1 + 1/lg lg W) W`: backs off *faster* than
        // LOG-BACKOFF but slower than BEB — the paper's §III-B1 calls it
        // the "closest competitor" to BEB for exactly this reason.
        AlgorithmKind::LogLogBackoff => grow(trunc, util::lglg),
        // SAWTOOTH-BACKOFF (Geréb-Graus & Tsantilas; Greenberg & Leiserson):
        // the outer loop doubles `W`, and for each outer `W` the inner
        // "backon" loop runs windows of `W, W/2, W/4, …, 2`. Once the outer
        // window saturates at CWmax the sawtooth keeps cycling `CWmax,
        // CWmax/2, …, 2`, the truncated analogue of the unbounded algorithm.
        AlgorithmKind::Sawtooth => {
            // The first outer window is the first power of two > CWmin, so
            // the backon run (down to 2) is non-empty; with the paper's
            // CWmin = 1 the windows are 2, 4, 2, 8, 4, 2, 16, 8, 4, 2, …
            let mut outer = trunc.cw_min.next_power_of_two().max(2).min(top);
            let mut inner = outer;
            Box::new(move || {
                let w = trunc.clamp(inner);
                if inner > 2 {
                    inner /= 2;
                } else {
                    outer = outer.saturating_mul(2).min(top);
                    inner = outer;
                }
                w
            })
        }
        // Fixed backoff, the transmission stage of the §VI size-estimation
        // approach: the same window every time.
        AlgorithmKind::Fixed { window } => {
            let w = trunc.clamp(window.max(1));
            Box::new(move || w)
        }
        AlgorithmKind::Polynomial { degree } => {
            let mut stage = 0u32;
            Box::new(move || {
                let w = poly_window(degree, trunc, stage);
                stage = stage.saturating_add(1);
                w
            })
        }
        AlgorithmKind::BestOfK { .. } => return None,
    })
}

/// `W ← (1 + 1/log(W)) W` for LB and LLB. The width is tracked as a real
/// number so the sub-doubling growth rate is not destroyed by repeated
/// rounding; the emitted window is the ceiling. Where `log(W) ≤ 1` the rate
/// clamps to `r = 1`, i.e. the schedule doubles exactly like BEB until the
/// logarithm is meaningful.
fn grow(trunc: Truncation, log: fn(f64) -> f64) -> Box<dyn FnMut() -> u32> {
    let mut width = trunc.cw_min as f64;
    Box::new(move || {
        let w = trunc.clamp_f64(width);
        let r = 1.0 / log(width);
        width = (width * (1.0 + r)).min(trunc.cw_max as f64 * 2.0);
        w
    })
}

/// POLYNOMIAL's window for `stage`, `(stage + 1)^degree`, clamped. Not in the
/// paper's evaluation: the related work it cites (\[53\], Sun & Dai) argues
/// quadratic backoff is a strong candidate under non-bursty traffic, which
/// makes it a natural extra baseline.
fn poly_window(degree: u32, trunc: Truncation, stage: u32) -> u32 {
    let base = (u64::from(stage) + 1).saturating_pow(degree.max(1));
    trunc.clamp(base.min(u64::from(u32::MAX)) as u32)
}

/// Walks `next` until its windows repeat: returns them up to its second
/// window of `top` (CWmax), and the stage of its first. Each schedule walked
/// here cycles from its first CWmax window on: BEB, LB and LLB stay there,
/// and SAWTOOTH's outer window stays CWmax from then on.
fn until_cycle(top: u32, mut next: impl FnMut() -> u32) -> (Vec<u32>, usize) {
    let mut windows = Vec::new();
    let mut first_top = None;
    loop {
        let w = next();
        if w == top {
            if let Some(at) = first_top {
                return (windows, at);
            }
            first_top = Some(windows.len());
        }
        windows.push(w);
        assert!(
            windows.len() <= 100_000,
            "the schedule did not saturate within 100k windows"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{experiment_tag, trial_rng};
    use rand::Rng;

    fn windows(kind: AlgorithmKind, trunc: Truncation, count: u32) -> Vec<u32> {
        let table = Backoff::new(kind, trunc).expect("a static schedule");
        (0..count).map(|stage| table.window(stage)).collect()
    }

    #[test]
    fn beb_doubles_and_saturates() {
        let t = Truncation {
            cw_min: 1,
            cw_max: 16,
        };
        assert_eq!(
            windows(AlgorithmKind::Beb, t, 7),
            vec![1, 2, 4, 8, 16, 16, 16]
        );
    }

    #[test]
    fn beb_paper_truncation() {
        let w = windows(AlgorithmKind::Beb, Truncation::paper(), 12);
        assert_eq!(w[..11], [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]);
        assert_eq!(w[11], 1024);
    }

    #[test]
    fn log_backoff_grows_slower_than_beb_but_monotonically() {
        let w = windows(AlgorithmKind::LogBackoff, Truncation::unbounded(), 40);
        for pair in w.windows(2) {
            assert!(pair[1] >= pair[0], "monotone: {w:?}");
        }
        // After the initial doubling region, growth must be sub-doubling.
        let idx = w.iter().position(|&x| x >= 16).unwrap();
        for pair in w[idx..].windows(2) {
            assert!(
                pair[1] < pair[0] * 2,
                "sub-doubling after W=16: {pair:?} in {w:?}"
            );
        }
        // And slower than BEB overall: BEB reaches 1024 in 11 windows.
        assert!(w[10] < 1024, "LB should lag BEB: {w:?}");
    }

    #[test]
    fn loglog_backs_off_faster_than_log() {
        // Result 4 discussion (§III-B1): LLB backs off faster than LB, i.e.
        // after the same number of failures its window is at least as large.
        let lb = windows(AlgorithmKind::LogBackoff, Truncation::unbounded(), 30);
        let llb = windows(AlgorithmKind::LogLogBackoff, Truncation::unbounded(), 30);
        for (i, (l, ll)) in lb.iter().zip(llb.iter()).enumerate() {
            assert!(ll >= l, "window {i}: LLB {ll} < LB {l}");
        }
        // Strictly ahead somewhere past the doubling prefix.
        assert!(llb[20] > lb[20], "LLB {llb:?} vs LB {lb:?}");
    }

    #[test]
    fn beb_dominates_both_log_variants() {
        let t = Truncation::unbounded();
        let beb = windows(AlgorithmKind::Beb, t, 25);
        let lb = windows(AlgorithmKind::LogBackoff, t, 25);
        let llb = windows(AlgorithmKind::LogLogBackoff, t, 25);
        for i in 0..25 {
            assert!(beb[i] >= lb[i]);
            assert!(beb[i] >= llb[i]);
        }
    }

    #[test]
    fn sawtooth_shape() {
        let t = Truncation {
            cw_min: 1,
            cw_max: 64,
        };
        let w = windows(AlgorithmKind::Sawtooth, t, 10);
        assert_eq!(w, vec![2, 4, 2, 8, 4, 2, 16, 8, 4, 2]);
    }

    #[test]
    fn sawtooth_saturated_cycle() {
        let t = Truncation {
            cw_min: 1,
            cw_max: 8,
        };
        let w = windows(AlgorithmKind::Sawtooth, t, 12);
        // 2 | 4,2 | 8,4,2 | then cycles 8,4,2 forever.
        assert_eq!(w, vec![2, 4, 2, 8, 4, 2, 8, 4, 2, 8, 4, 2]);
    }

    #[test]
    fn fixed_window_is_constant_and_clamped() {
        let t = Truncation {
            cw_min: 2,
            cw_max: 100,
        };
        let fixed = |window| AlgorithmKind::Fixed { window };
        assert_eq!(windows(fixed(37), t, 3), vec![37, 37, 37]);
        assert_eq!(windows(fixed(1000), t, 2), vec![100, 100]);
        assert_eq!(windows(fixed(0), t, 1), vec![2]);
    }

    #[test]
    fn polynomial_quadratic() {
        let w = windows(
            AlgorithmKind::Polynomial { degree: 2 },
            Truncation::unbounded(),
            6,
        );
        assert_eq!(w, vec![1, 4, 9, 16, 25, 36]);
    }

    #[test]
    fn no_schedule_emits_zero_or_exceeds_cap() {
        let t = Truncation::paper();
        for kind in [
            AlgorithmKind::Beb,
            AlgorithmKind::LogBackoff,
            AlgorithmKind::LogLogBackoff,
            AlgorithmKind::Sawtooth,
            AlgorithmKind::Fixed { window: 64 },
            AlgorithmKind::Polynomial { degree: 2 },
        ] {
            for (i, w) in windows(kind, t, 200).into_iter().enumerate() {
                assert!(w >= 1, "{kind} window {i} is zero");
                assert!(w <= t.cw_max, "{kind} window {i} = {w} exceeds CWmax");
            }
        }
    }

    #[test]
    fn best_of_k_has_no_table() {
        let kind = AlgorithmKind::BestOfK { k: 5 };
        assert!(Backoff::new(kind, Truncation::paper()).is_none());
        assert!(Backoff::cached(&mut Vec::new(), kind, Truncation::paper()).is_none());
    }

    #[test]
    fn the_cache_builds_each_table_once() {
        let mut tables = Vec::new();
        let (paper, unbounded) = (Truncation::paper(), Truncation::unbounded());
        for (kind, trunc) in [
            (AlgorithmKind::Beb, paper),
            (AlgorithmKind::LogBackoff, paper),
            (AlgorithmKind::Beb, unbounded),
            (AlgorithmKind::Beb, paper),
            (AlgorithmKind::LogBackoff, paper),
        ] {
            let table = Backoff::cached(&mut tables, kind, trunc).expect("a table");
            assert_eq!((table.kind, table.trunc), (kind, trunc));
        }
        assert_eq!(tables.len(), 3);
    }

    /// The table against its recurrence walked stage by stage, with no
    /// prefix/cycle compression: the same window at every stage, and the
    /// draw of `gen_range(0..window)` from the same words.
    #[test]
    fn the_table_replays_the_raw_recurrences() {
        let truncations = [
            Truncation::paper(),
            Truncation {
                cw_min: 1,
                cw_max: 8,
            },
            Truncation {
                cw_min: 2,
                cw_max: 100,
            },
            Truncation {
                cw_min: 16,
                cw_max: 1000, // non-power-of-two CWmax: the gnarly sawtooth
            },
            Truncation {
                cw_min: 64,
                cw_max: 64,
            },
            Truncation::unbounded(),
        ];
        let kinds = [
            AlgorithmKind::Beb,
            AlgorithmKind::LogBackoff,
            AlgorithmKind::LogLogBackoff,
            AlgorithmKind::Sawtooth,
            AlgorithmKind::Fixed { window: 37 },
            AlgorithmKind::Fixed { window: 100_000 },
            AlgorithmKind::Polynomial { degree: 1 },
            AlgorithmKind::Polynomial { degree: 2 },
            AlgorithmKind::Polynomial { degree: 3 },
        ];
        for trunc in truncations {
            for kind in kinds {
                let table = Backoff::new(kind, trunc).expect("a static schedule");
                let mut raw = recurrence(kind, trunc).expect("a static schedule");
                let mut rng = trial_rng(experiment_tag("lookup"), kind, 0, 0);
                let mut reference = rng.clone();
                for stage in 0..3000u32 {
                    let window = raw();
                    assert_eq!(
                        table.window(stage),
                        window,
                        "{kind:?} {trunc:?} stage {stage}"
                    );
                    assert_eq!(
                        table.sample(stage, &mut rng),
                        reference.gen_range(0..u64::from(window)),
                        "{kind:?} {trunc:?} stage {stage}"
                    );
                }
                assert_eq!(rng, reference, "{kind:?} {trunc:?}");
            }
        }
    }

    /// Walking `next_stage` from 0 for three table lengths draws the window
    /// of every unfolded stage, at the table's end and at each wrap of the
    /// cycle.
    #[test]
    fn next_stage_folds_into_the_cycle() {
        for trunc in [Truncation::paper(), Truncation::unbounded()] {
            for kind in [
                AlgorithmKind::Beb,
                AlgorithmKind::LogBackoff,
                AlgorithmKind::LogLogBackoff,
                AlgorithmKind::Sawtooth,
                AlgorithmKind::Fixed { window: 37 },
            ] {
                let table = Backoff::new(kind, trunc).expect("a static schedule");
                let mut folded = 0;
                for stage in 0..3 * table.draws.len() as u32 {
                    assert!((folded as usize) < table.draws.len(), "{kind:?} {trunc:?}");
                    assert_eq!(
                        table.draw(folded).span(),
                        table.draw(stage).span(),
                        "{kind:?} {trunc:?} stage {stage}"
                    );
                    folded = table.next_stage(folded);
                }
            }
        }
        let poly = Backoff::new(AlgorithmKind::Polynomial { degree: 2 }, Truncation::paper())
            .expect("a static schedule");
        assert_eq!(poly.next_stage(5), 6);
        assert_eq!(poly.next_stage(u32::MAX), u32::MAX);
    }

    /// The table sizes the builder settles on, which the cycle detection
    /// decides: a prefix up to the first CWmax window plus one period.
    #[test]
    fn tables_hold_a_prefix_and_one_period() {
        let paper = Truncation::paper();
        let size = |kind| {
            let table = Backoff::new(kind, paper).expect("a static schedule");
            (table.prefix, table.draws.len())
        };
        assert_eq!(size(AlgorithmKind::Beb), (10, 11));
        // 2 | 4,2 | … | 512,…,2 is 45 windows, then 1024, 512, …, 2 repeats.
        assert_eq!(size(AlgorithmKind::Sawtooth), (45, 55));
        assert_eq!(size(AlgorithmKind::Fixed { window: 37 }), (0, 1));
        assert_eq!(size(AlgorithmKind::Polynomial { degree: 2 }), (0, 0));
    }
}
