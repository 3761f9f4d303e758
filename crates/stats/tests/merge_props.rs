//! Property tests for the sample merges behind sharding and the work
//! server: merging sharded partial state must be associative and must agree
//! — bit-for-bit — with folding every trial sequentially into one sample,
//! because the process-sharded sweep pipeline reports merged state as if it
//! came from a single run.

use contention_stats::stream::StreamingSample;
use proptest::prelude::*;

const MAX_SHARDS: u32 = 4;

/// Per-trial values with a shard assignment each — an arbitrary (not
/// necessarily contiguous) partition of the trials across `MAX_SHARDS`
/// shards, including possibly-empty shards.
fn trials_strategy() -> impl Strategy<Value = Vec<(f64, u32)>> {
    prop::collection::vec((0.0f64..1e9, 0u32..MAX_SHARDS), 1..48)
}

/// Builds one partial sample per shard from the assigned trials.
fn sharded_samples(trials: &[(f64, u32)]) -> Vec<StreamingSample> {
    let mut shards: Vec<StreamingSample> = (0..MAX_SHARDS)
        .map(|_| StreamingSample::new(trials.len()))
        .collect();
    for (t, &(value, shard)) in trials.iter().enumerate() {
        shards[shard as usize].record(t, value);
    }
    shards
}

/// The sample every trial recorded in order into one buffer.
fn sequential(trials: &[(f64, u32)]) -> StreamingSample {
    let mut sample = StreamingSample::new(trials.len());
    for (t, &(value, _)) in trials.iter().enumerate() {
        sample.record(t, value);
    }
    sample
}

/// The bit image of a sample's raw buffer (NaN sentinels included).
fn bits(s: &StreamingSample) -> Vec<u64> {
    s.raw().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merging per-shard samples — in any grouping — reproduces the
    /// sequential fold bit-for-bit.
    #[test]
    fn sample_merge_agrees_with_sequential_fold(trials in trials_strategy()) {
        let sequential = sequential(&trials);

        // Left fold: ((s0 + s1) + s2) + s3.
        let mut shards = sharded_samples(&trials).into_iter();
        let mut left = shards.next().expect("shards");
        for shard in shards {
            prop_assert_eq!(left.try_merge(shard), Ok(()));
        }
        prop_assert_eq!(bits(&left), bits(&sequential));

        // Right fold: s0 + (s1 + (s2 + s3)) — associativity.
        let mut right = None;
        for shard in sharded_samples(&trials).into_iter().rev() {
            let mut acc = shard;
            if let Some(prev) = right.take() {
                prop_assert_eq!(acc.try_merge(prev), Ok(()));
            }
            right = Some(acc);
        }
        prop_assert_eq!(bits(&right.expect("shards")), bits(&sequential));
    }

    /// Partial merges stay partial and never invent or lose trials: the
    /// union of any prefix of shards holds exactly that prefix's trials.
    #[test]
    fn sample_merge_preserves_fill_counts(trials in trials_strategy()) {
        let shards = sharded_samples(&trials);
        let mut acc = StreamingSample::new(trials.len());
        let mut expected = 0;
        for (i, shard) in shards.into_iter().enumerate() {
            expected += trials.iter().filter(|&&(_, s)| s as usize == i).count();
            prop_assert_eq!(acc.try_merge(shard), Ok(()));
            prop_assert_eq!(acc.filled(), expected, "after shard {}", i);
        }
        prop_assert!(acc.is_complete());
    }

    /// A duplicated shard violates exactly-once across the merge boundary
    /// and must be rejected (fallible path — no panic).
    #[test]
    fn duplicate_shard_is_rejected(trials in trials_strategy()) {
        let shards = sharded_samples(&trials);
        // Find a non-empty shard to duplicate; skip degenerate cases.
        let Some(dup) = shards.iter().find(|s| s.filled() > 0) else {
            unreachable!("some shard holds a trial");
        };
        let mut acc = dup.clone();
        let err = acc.try_merge(dup.clone()).unwrap_err();
        prop_assert!(err.contains("more than one operand"), "{}", err);
    }

    /// At-least-once delivery: with some shards delivered twice, in any
    /// order, the duplicate-tolerant merge still reproduces the sequential
    /// fold bit-for-bit.
    #[test]
    fn dedup_merge_of_redelivered_shards_agrees_with_sequential_fold(
        trials in trials_strategy(),
        redeliver in prop::collection::vec(0u32..MAX_SHARDS, 0..6),
    ) {
        let shards = sharded_samples(&trials);
        let deliveries = (0..MAX_SHARDS).chain(redeliver).rev();
        let mut acc = StreamingSample::new(trials.len());
        for shard in deliveries {
            prop_assert_eq!(acc.try_merge_dedup(shards[shard as usize].clone()), Ok(()));
        }
        prop_assert_eq!(bits(&acc), bits(&sequential(&trials)));
    }
}
