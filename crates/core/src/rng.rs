//! Deterministic per-trial RNG derivation.
//!
//! Every experiment derives an independent generator from
//! `(experiment tag, algorithm, n, trial index)` via SplitMix64 mixing, so
//! results are bit-reproducible regardless of how trials are scheduled across
//! threads, and different experiments never share streams.

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

/// A reusable buffer of raw RNG output for hot loops that draw many values
/// per step (e.g. one backoff slot per alive station per window).
///
/// Prefetching `next_u64` words in a tight loop and consuming them through
/// [`DrawBuffer::uniform_below`] keeps the generator state out of the
/// draw-consuming loop's dependency chain, while producing **bit-identical
/// values in bit-identical order** to calling `rng.gen_range(0..span)` once
/// per draw: `uniform_below` replicates the vendored `rand`'s zone-based
/// rejection exactly, and a rejected word's replacement is pulled straight
/// from the generator (the buffer merely *relocates* where words are
/// produced, never reorders them). The caller contract that makes this true:
/// [`prefill`](DrawBuffer::prefill) exactly the number of draws about to be
/// consumed, then consume them all — the buffer never holds words across
/// prefills, so interleaved direct use of the same generator (noise flips,
/// slot resolution) sees exactly the stream it would have unbatched.
#[derive(Default)]
pub struct DrawBuffer {
    words: Vec<u64>,
    cursor: usize,
}

impl DrawBuffer {
    /// Discards any unconsumed words and refills with exactly `count` fresh
    /// words of `rng` output.
    #[inline]
    pub fn prefill<R: RngCore>(&mut self, rng: &mut R, count: usize) {
        debug_assert_eq!(self.cursor, self.words.len(), "unconsumed draws");
        self.words.clear();
        self.words.resize(count, 0);
        for w in self.words.iter_mut() {
            *w = rng.next_u64();
        }
        self.cursor = 0;
    }

    /// The next raw word: buffered if available, fresh from `rng` otherwise
    /// (rejection replacements after the prefetched budget is spent).
    #[inline]
    fn next_word<R: RngCore>(&mut self, rng: &mut R) -> u64 {
        if self.cursor < self.words.len() {
            let w = self.words[self.cursor];
            self.cursor += 1;
            w
        } else {
            rng.next_u64()
        }
    }

    /// Uniform draw in `[0, span)` — bit-identical to the vendored
    /// `rng.gen_range(0..span)` (same zone-based rejection), consuming zero
    /// words when `span == 1` and otherwise one word per accepted draw plus
    /// one per (astronomically rare) rejection.
    #[inline]
    pub fn uniform_below<R: RngCore>(&mut self, rng: &mut R, span: u64) -> u64 {
        debug_assert!(span > 0);
        if span == 1 {
            return 0;
        }
        if span.is_power_of_two() {
            // The zone is then u64::MAX (no rejection possible) and the
            // modulo reduces to a mask; same value, cheaper arithmetic.
            return self.next_word(rng) & (span - 1);
        }
        let zone = u64::MAX - (u64::MAX - span + 1) % span;
        loop {
            let v = self.next_word(rng);
            if v <= zone {
                return v % span;
            }
        }
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

    #[test]
    fn draw_buffer_matches_gen_range_bit_for_bit() {
        // Batched draws must replay the exact unbatched stream, across
        // power-of-two spans (mask path), non-power-of-two spans (zone
        // rejection) and span 1 (no word consumed).
        for span in [1u64, 2, 3, 7, 8, 1024, 1 << 17, (1 << 17) - 5, u64::MAX] {
            let mut direct = trial_rng(experiment_tag("buf"), AlgorithmKind::Beb, 9, 0);
            let mut batched = direct.clone();
            let mut buf = DrawBuffer::default();
            for round in 0..32usize {
                let count = round % 5;
                buf.prefill(&mut batched, if span == 1 { 0 } else { count });
                for _ in 0..count {
                    assert_eq!(
                        buf.uniform_below(&mut batched, span),
                        direct.gen_range(0..span),
                        "span {span} round {round}"
                    );
                }
                // Interleaved direct use between prefills (the sampled
                // path's channel draws) must see the same stream too.
                assert_eq!(batched.gen::<f64>(), direct.gen::<f64>());
            }
        }
    }

    #[test]
    fn draw_buffer_overflow_draws_continue_the_stream() {
        // Rejection replacements past the prefetched budget fall through to
        // the generator; the merged sequence is position-for-position the
        // raw word stream.
        let mut a = trial_rng(experiment_tag("buf-ovf"), AlgorithmKind::Beb, 1, 1);
        let raw: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let mut b = trial_rng(experiment_tag("buf-ovf"), AlgorithmKind::Beb, 1, 1);
        let mut buf = DrawBuffer::default();
        buf.prefill(&mut b, 16);
        let spans = [8u64, 1 << 20, 3, 9, 1 << 33];
        let mut got = Vec::new();
        for i in 0..40usize {
            let span = spans[i % spans.len()];
            got.push(buf.uniform_below(&mut b, span));
        }
        // Replay by hand over the raw words (zone rejection inlined).
        let mut it = raw.iter().copied();
        for (i, &g) in got.iter().enumerate() {
            let span = spans[i % spans.len()];
            let zone = u64::MAX - (u64::MAX - span + 1) % span;
            let v = loop {
                let v = it.next().expect("enough raw words");
                if v <= zone {
                    break v;
                }
            };
            assert_eq!(g, v % span, "draw {i}");
        }
    }
}
