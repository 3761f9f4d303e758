//! Deterministic per-trial RNG derivation.
//!
//! Every experiment derives an independent generator from
//! `(experiment tag, algorithm, n, trial index)` via SplitMix64 mixing, so
//! results are bit-reproducible regardless of how trials are scheduled across
//! threads, and different experiments never share streams.
//!
//! Every kernel draws its slots, timers and backoffs through one reduction,
//! [`UniformBelow`]. It is built once per backoff stage (in a
//! [`Backoff`](crate::schedule::Backoff) table) and returns exactly what
//! `gen_range(0..span)` returns, from the same words, without a division
//! per draw.

use crate::algorithm::AlgorithmKind;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

/// SplitMix64 finalizer — a well-distributed 64-bit mixing function.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Combine components into one seed, order-sensitively.
pub fn mix_seed(components: &[u64]) -> u64 {
    let mut acc = 0x243F_6A88_85A3_08D3; // π fractional bits — arbitrary non-zero start
    for &c in components {
        acc = splitmix64(acc ^ c);
    }
    acc
}

/// A stable small tag per algorithm so seeds differ across algorithms even at
/// identical `(n, trial)`.
pub fn algorithm_tag(kind: AlgorithmKind) -> u64 {
    match kind {
        AlgorithmKind::Beb => 1,
        AlgorithmKind::LogBackoff => 2,
        AlgorithmKind::LogLogBackoff => 3,
        AlgorithmKind::Sawtooth => 4,
        AlgorithmKind::Fixed { window } => 5 ^ ((window as u64) << 8),
        AlgorithmKind::BestOfK { k } => 6 ^ ((k as u64) << 8),
        AlgorithmKind::Polynomial { degree } => 7 ^ ((degree as u64) << 8),
    }
}

/// The generator for one trial of one experiment.
///
/// `experiment` is a free-form tag (e.g. a FNV hash of `"fig7"`); use
/// [`experiment_tag`] for strings.
pub fn trial_rng(experiment: u64, kind: AlgorithmKind, n: u32, trial: u32) -> SmallRng {
    let seed = mix_seed(&[experiment, algorithm_tag(kind), n as u64, trial as u64]);
    SmallRng::seed_from_u64(seed)
}

/// Uniform draws in `[0, span)` for one `span`, built once and reused: each
/// [`sample`](UniformBelow::sample) returns the value, and consumes the
/// words, of one `rng.gen_range(0..span)`.
///
/// The vendored `gen_range` is the reference. It rejects a word above the
/// zone `2⁶⁴ − 1 − (2⁶⁴ mod span)`, replaces it with the next word, and
/// reduces an accepted word `v` to `v % span`. Here the zone is computed
/// once, and `v % span` by the "direct remainder" of Lemire, Kaser and Kurz
/// ("Faster Remainder by Direct Computation", *Software: Practice and
/// Experience*, 2019): with `magic = ⌈2¹²⁸ / span⌉`, the remainder is the
/// high 64 bits of `(magic · v mod 2¹²⁸) · span`, exact for every 64-bit `v`
/// and `span`. That is four multiplies where `gen_range` divides twice.
/// Powers of two take the word's low bits (their zone rejects nothing), and
/// span 1 draws no word.
#[derive(Debug, Clone, Copy)]
pub struct UniformBelow {
    span: u64,
    zone: u64,
    magic: u128,
}

impl UniformBelow {
    /// The draw for a non-empty `span`.
    pub fn new(span: u64) -> UniformBelow {
        assert!(span > 0, "UniformBelow::new(0): empty range");
        UniformBelow {
            span,
            zone: u64::MAX - (u64::MAX - span + 1) % span,
            // Wraps to 0 at span 1, where every remainder is 0 as well.
            magic: (u128::MAX / u128::from(span)).wrapping_add(1),
        }
    }

    /// The number of values drawn from.
    pub fn span(&self) -> u64 {
        self.span
    }

    /// One draw: exactly `rng.gen_range(0..span)`, in value and in words.
    #[inline]
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.span.is_power_of_two() {
            return if self.span == 1 {
                0
            } else {
                rng.next_u64() & (self.span - 1)
            };
        }
        loop {
            let v = rng.next_u64();
            if v <= self.zone {
                return self.reduce(v);
            }
        }
    }

    /// `v % span`: the high 64 bits of the 192-bit `(magic · v mod 2¹²⁸) · span`.
    #[inline]
    fn reduce(&self, v: u64) -> u64 {
        let low = self.magic.wrapping_mul(u128::from(v));
        let span = u128::from(self.span);
        let carry = (u128::from(low as u64) * span) >> 64;
        (((low >> 64) * span + carry) >> 64) as u64
    }
}

/// FNV-1a hash of an experiment name.
pub fn experiment_tag(name: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn splitmix_is_not_identity_and_spreads() {
        assert_ne!(splitmix64(0), 0);
        assert_ne!(splitmix64(1), splitmix64(2));
        // Avalanche sanity: single-bit input change flips many output bits.
        let d = (splitmix64(42) ^ splitmix64(43)).count_ones();
        assert!(d > 16, "weak avalanche: {d} bits");
    }

    #[test]
    fn mix_seed_is_order_sensitive() {
        assert_ne!(mix_seed(&[1, 2]), mix_seed(&[2, 1]));
        assert_ne!(mix_seed(&[1]), mix_seed(&[1, 0]));
    }

    #[test]
    fn trial_rngs_reproduce() {
        let tag = experiment_tag("fig7");
        let mut a = trial_rng(tag, AlgorithmKind::Beb, 100, 3);
        let mut b = trial_rng(tag, AlgorithmKind::Beb, 100, 3);
        let xs: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn trial_rngs_differ_across_dimensions() {
        let tag = experiment_tag("fig7");
        let base: u64 = trial_rng(tag, AlgorithmKind::Beb, 100, 3).gen();
        let by_trial: u64 = trial_rng(tag, AlgorithmKind::Beb, 100, 4).gen();
        let by_n: u64 = trial_rng(tag, AlgorithmKind::Beb, 101, 3).gen();
        let by_alg: u64 = trial_rng(tag, AlgorithmKind::Sawtooth, 100, 3).gen();
        let by_exp: u64 = trial_rng(experiment_tag("fig8"), AlgorithmKind::Beb, 100, 3).gen();
        assert_ne!(base, by_trial);
        assert_ne!(base, by_n);
        assert_ne!(base, by_alg);
        assert_ne!(base, by_exp);
    }

    #[test]
    fn algorithm_tags_distinguish_parameters() {
        assert_ne!(
            algorithm_tag(AlgorithmKind::BestOfK { k: 3 }),
            algorithm_tag(AlgorithmKind::BestOfK { k: 5 })
        );
        assert_ne!(
            algorithm_tag(AlgorithmKind::Fixed { window: 64 }),
            algorithm_tag(AlgorithmKind::Fixed { window: 128 })
        );
    }

    #[test]
    fn experiment_tag_is_stable_fnv() {
        // FNV-1a of "a" is a published constant.
        assert_eq!(experiment_tag("a"), 0xaf63dc4c8601ec8c);
        assert_ne!(experiment_tag("fig7"), experiment_tag("fig8"));
    }

    /// Spans at the edges of the reduction: the smallest, both sides of
    /// 2³² and of 2⁶³, and the largest.
    const EDGE_SPANS: [u64; 10] = [
        1,
        2,
        3,
        (1 << 32) - 1,
        1 << 32,
        (1 << 32) + 1,
        (1 << 63) - 1,
        (1 << 63) + 1,
        u64::MAX - 1,
        u64::MAX,
    ];

    #[test]
    fn uniform_below_reduces_exactly_at_the_zone_edge() {
        let spans = EDGE_SPANS
            .iter()
            .copied()
            .chain([5, 7, 1000, 1023, 1025, 1 << 40]);
        for span in spans {
            let draw = UniformBelow::new(span);
            let zone = draw.zone;
            assert_eq!(
                zone % span,
                span - 1,
                "span {span}: the zone ends a full cycle"
            );
            let multiple = zone - (span - 1);
            let words = [
                0,
                1,
                span - 1,
                span,
                span.saturating_add(1),
                multiple.saturating_sub(1),
                multiple,
                multiple.saturating_add(1),
                zone - 1,
                zone,
                zone.saturating_add(1),
                u64::MAX,
            ];
            for v in words {
                assert_eq!(draw.reduce(v), v % span, "span {span}, word {v}");
            }
        }
    }

    /// A generator that plays back chosen words: no real seed draws a word
    /// above the zone of a span below 2³², so only a script can.
    struct Script(std::vec::IntoIter<u64>);

    impl RngCore for Script {
        fn next_u64(&mut self) -> u64 {
            self.0.next().expect("script exhausted")
        }
    }

    #[test]
    fn uniform_below_replaces_words_above_the_zone_like_gen_range() {
        for span in EDGE_SPANS.iter().copied().chain([1000, 1025]) {
            let draw = UniformBelow::new(span);
            let zone = draw.zone;
            let above = zone.saturating_add(1);
            let words = vec![
                u64::MAX,
                above,
                zone,
                above,
                0,
                u64::MAX,
                span,
                zone - 1,
                1,
                2,
                3,
            ];
            let mut fast = Script(words.clone().into_iter());
            let mut reference = Script(words.into_iter());
            let mut got = Vec::new();
            for _ in 0..5 {
                let value = draw.sample(&mut fast);
                assert_eq!(value, reference.gen_range(0..span), "span {span}");
                got.push(value);
            }
            assert_eq!(
                fast.0.len(),
                reference.0.len(),
                "span {span}: words consumed"
            );
            if span == 1 {
                assert_eq!(fast.0.len(), 11, "span 1 draws no word");
            } else if zone < u64::MAX {
                // The first draw skips every word above the zone.
                assert_eq!(got[0], span - 1, "span {span}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Over random seeds and spans of every magnitude, `UniformBelow`
        /// returns `gen_range`'s values and leaves the generator where it
        /// does. Spans above 2⁶³ reject up to half their words, so real
        /// seeds exercise the replacement path there.
        #[test]
        fn uniform_below_replays_gen_range(
            seed in proptest::arbitrary::any::<u64>(),
            raw in proptest::arbitrary::any::<u64>(),
            bits in 1u32..=64,
            draws in 0usize..48,
        ) {
            let random_span = (raw >> (64 - bits)).max(1);
            for span in EDGE_SPANS.iter().copied().chain([random_span]) {
                let draw = UniformBelow::new(span);
                let mut fast = SmallRng::seed_from_u64(seed);
                let mut reference = fast.clone();
                for i in 0..draws {
                    proptest::prop_assert_eq!(
                        draw.sample(&mut fast),
                        reference.gen_range(0..span),
                        "span {} draw {}", span, i
                    );
                }
                proptest::prop_assert_eq!(fast, reference, "span {}", span);
            }
        }
    }
}
