//! Deterministic parallel execution of independent work items.
//!
//! The paper ran its sweeps on four 16-core Xeon nodes; here the same
//! embarrassing parallelism is captured with a persistent worker pool (and
//! `std::thread::scope` as its fallback). Workers claim contiguous index
//! ranges from a single atomic cursor — nothing about the work list is
//! materialized up front; the caller maps indices to work on the fly — and
//! claim sizes *taper* with the remaining estimated work (see
//! [`TaperSchedule`]). The caller routes results by *index*, so output
//! placement (and, because every trial derives its own RNG from its grid
//! coordinates, every number) is independent of scheduling, thread count and
//! claim sizing.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A run of consecutive work items of equal estimated cost.
#[derive(Debug, Clone, Copy)]
struct Segment {
    /// Index of the segment's first item.
    start: usize,
    /// Estimated cost of every item before `start`.
    prefix: f64,
    /// Estimated cost of each of the segment's items.
    cost: f64,
}

/// A tapered (guided self-scheduling) claim plan over work items with known
/// (estimated) costs.
///
/// Fixed-size batches are a compromise tuned blind: big batches amortize
/// cursor traffic but let one straggler batch of expensive items serialize
/// the join; small batches balance load but pay per-claim overhead on cheap
/// items. Tapering resolves the tension by sizing every claim off the
/// *remaining* estimated work: a claim targets `remaining / (2 × workers)`
/// worth of cost — large contiguous runs early (cheap scheduling), claims
/// shrinking toward a single item at the tail (no straggler can hold the
/// join for more than one item's cost beyond its peers). Costs are
/// estimates and only shape claim boundaries; which items run, and what
/// they compute, is untouched — so results stay bit-identical to any other
/// schedule as long as the caller routes results by index.
///
/// Items come in runs of equal cost (a sweep plan's trial ranges), so the
/// schedule stores one entry per run, never one per item.
#[derive(Debug, Clone)]
pub struct TaperSchedule {
    /// The runs in execution order, closed by a zero-cost sentinel that
    /// starts at [`len`](Self::len) and carries the total cost.
    segments: Vec<Segment>,
}

impl TaperSchedule {
    /// A plan over runs of `(items, per-item cost)`, in execution order.
    /// Non-finite or negative costs are treated as zero (they can only
    /// mis-shape claim sizes, never break coverage: every claim takes at
    /// least one item).
    pub fn new(runs: &[(usize, f64)]) -> TaperSchedule {
        let mut segments = Vec::with_capacity(runs.len() + 1);
        let (mut start, mut prefix) = (0usize, 0.0f64);
        for &(items, cost) in runs {
            let cost = if cost.is_finite() && cost > 0.0 {
                cost
            } else {
                0.0
            };
            segments.push(Segment {
                start,
                prefix,
                cost,
            });
            start += items;
            prefix += items as f64 * cost;
        }
        segments.push(Segment {
            start,
            prefix,
            cost: 0.0,
        });
        TaperSchedule { segments }
    }

    /// Number of work items planned.
    pub fn len(&self) -> usize {
        self.segments[self.segments.len() - 1].start
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The run holding item `index` (its position in the `runs` passed to
    /// [`new`](Self::new)) and the item's offset within that run.
    pub fn locate(&self, index: usize) -> (usize, usize) {
        let run = self.segments.partition_point(|s| s.start <= index) - 1;
        (run, index - self.segments[run].start)
    }

    /// Estimated cost of items `[0, index)`.
    fn cost_before(&self, index: usize) -> f64 {
        let (run, offset) = self.locate(index);
        let s = &self.segments[run];
        s.prefix + offset as f64 * s.cost
    }

    /// The exclusive end of a claim starting at `start`: enough items to
    /// cover `remaining cost / (2 × threads)`, always at least one.
    pub fn claim_end(&self, start: usize, threads: usize) -> usize {
        let total = self.len();
        debug_assert!(start < total);
        let (done, total_cost) = (self.cost_before(start), self.cost_before(total));
        // Shaded by a hair of the total: a goal that lands on an item
        // boundary, blurred by float rounding, must end the claim there
        // rather than spill one more (heavy, tail) item into it.
        let goal = done + (total_cost - done) / (2 * threads.max(1)) as f64 - total_cost * 1e-12;
        // The first item index whose cost prefix reaches the goal lies in
        // the last run starting below it. Zero-cost runs collapse to goal ==
        // start's prefix; the clamp keeps every claim non-empty and in range.
        let next = self.segments.partition_point(|s| s.prefix < goal);
        let end = if next == 0 {
            0
        } else if next == self.segments.len() {
            total
        } else {
            // prefix < goal ≤ the next run's prefix, so this run's cost > 0.
            let s = &self.segments[next - 1];
            let items = ((goal - s.prefix) / s.cost).ceil() as usize;
            (s.start + items).min(self.segments[next].start)
        };
        end.clamp(start + 1, total)
    }
}

/// Runs `body` once on each of `threads` workers — on the persistent pool
/// when it is free, on freshly scoped threads otherwise. Both paths return
/// after every worker finishes and re-raise worker panics.
fn run_on_workers(threads: usize, body: &(dyn Fn() + Sync)) {
    if crate::pool::run(threads, body) {
        return;
    }
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(body);
        }
    });
}

/// Runs `work` over every index of `0..sched.len()`, claimed in tapered
/// (guided self-scheduling) contiguous ranges from an atomic cursor. Each
/// index is visited exactly once; the caller must route results by index.
///
/// Each worker owns a `state` built once by `init` and threaded through all
/// of its claims — the engine parks per-trial scratch arenas there, so a
/// million-trial sweep reuses `threads` arenas instead of allocating one per
/// trial. Per-worker state cannot affect results: the engine routes outputs
/// by index, and anything observable must be reset per item.
///
/// With `threads <= 1` the claims execute inline in order (identical claim
/// boundaries, no atomics), so the taper path itself is exercised on every
/// machine. A worker panic propagates after the join.
pub fn parallel_for_tapered<W, I, F>(sched: &TaperSchedule, threads: usize, init: I, work: F)
where
    I: Fn() -> W + Sync,
    F: Fn(Range<usize>, &mut W) + Sync,
{
    let total = sched.len();
    if total == 0 {
        return;
    }
    let threads = threads.max(1).min(total);
    if threads == 1 {
        let mut state = init();
        let mut start = 0;
        while start < total {
            let end = sched.claim_end(start, 1);
            work(start..end, &mut state);
            start = end;
        }
        return;
    }
    let next = AtomicUsize::new(0);
    let body = || {
        let mut state = init();
        let mut start = next.load(Ordering::Relaxed);
        while start < total {
            let end = sched.claim_end(start, threads);
            // Claim via CAS — unlike a fixed-stride `fetch_add`, the claim
            // size depends on where the cursor actually is.
            match next.compare_exchange_weak(start, end, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => {
                    work(start..end, &mut state);
                    start = next.load(Ordering::Relaxed);
                }
                Err(current) => start = current,
            }
        }
    };
    run_on_workers(threads, &body);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::Mutex;

    /// Costs with heavy items up front, junk values mixed in — the shape
    /// the engine feeds after heaviest-first ordering.
    fn skewed_costs(total: usize) -> Vec<f64> {
        (0..total)
            .map(|i| match i % 11 {
                0 => f64::NAN,
                1 => -3.0,
                2 => 0.0,
                _ => ((total - i) as f64).powi(2),
            })
            .collect()
    }

    /// One single-item run per cost.
    fn per_item(costs: &[f64]) -> TaperSchedule {
        TaperSchedule::new(&costs.iter().map(|&c| (1, c)).collect::<Vec<_>>())
    }

    #[test]
    fn tapered_claims_cover_every_index_exactly_once() {
        for threads in [1usize, 2, 8] {
            for costs in [skewed_costs(1000), vec![1.0; 1000], vec![0.0; 1000]] {
                let sched = per_item(&costs);
                assert_eq!(sched.len(), 1000);
                let hits: Vec<AtomicU32> = (0..1000).map(|_| AtomicU32::new(0)).collect();
                parallel_for_tapered(
                    &sched,
                    threads,
                    || (),
                    |range, _| {
                        for i in range {
                            hits[i].fetch_add(1, Ordering::Relaxed);
                        }
                    },
                );
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "threads={threads}: index visited != once"
                );
            }
        }
    }

    #[test]
    fn index_routed_results_are_schedule_independent() {
        // The engine's usage pattern in miniature: derive work from the
        // index, write the result at the index. Any schedule must produce
        // the same output vector.
        let compute = |i: usize| {
            // Skewed cost to exercise load balancing.
            let mut acc = i as u64;
            for _ in 0..(i % 97) * 100 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        };
        let golden: Vec<u64> = (0..500).map(compute).collect();
        for threads in [1usize, 2, 8] {
            for sched in [
                per_item(&skewed_costs(500)),
                TaperSchedule::new(&[(500, 1.0)]),
            ] {
                let out = Mutex::new(vec![0u64; 500]);
                parallel_for_tapered(
                    &sched,
                    threads,
                    || (),
                    |range, _| {
                        let results: Vec<u64> = range.clone().map(compute).collect();
                        let mut out = out.lock().unwrap();
                        for (i, r) in range.zip(results) {
                            out[i] = r;
                        }
                    },
                );
                assert_eq!(golden, out.into_inner().unwrap(), "threads={threads}");
            }
        }
    }

    #[test]
    fn sequential_path_runs_in_order() {
        let seen = Mutex::new(Vec::new());
        let sched = TaperSchedule::new(&[(4, 2.0), (6, 1.0)]);
        parallel_for_tapered(
            &sched,
            1,
            || (),
            |range, _| seen.lock().unwrap().extend(range),
        );
        assert_eq!(seen.into_inner().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn more_threads_than_items() {
        let count = AtomicUsize::new(0);
        parallel_for_tapered(
            &TaperSchedule::new(&[(3, 1.0)]),
            64,
            || (),
            |range, _| {
                count.fetch_add(range.len(), Ordering::Relaxed);
            },
        );
        assert_eq!(count.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn taper_shrinks_toward_single_item_claims() {
        // Uniform costs, 2 workers: first claim takes total/4, and the
        // claim sequence decays to single items at the tail instead of
        // ending in one big straggler batch.
        let sched = TaperSchedule::new(&[(1000, 1.0)]);
        let mut sizes = Vec::new();
        let mut start = 0;
        while start < 1000 {
            let end = sched.claim_end(start, 2);
            sizes.push(end - start);
            start = end;
        }
        assert_eq!(sizes[0], 250);
        assert!(sizes.windows(2).all(|w| w[1] <= w[0]), "{sizes:?}");
        assert_eq!(*sizes.last().unwrap(), 1);
        assert_eq!(sizes.iter().sum::<usize>(), 1000);
    }

    #[test]
    fn taper_claims_respect_cost_not_count() {
        // One huge item up front: the first claim must stop after it
        // rather than dragging half the item count along.
        let mut costs = vec![1.0; 100];
        costs[0] = 1_000_000.0;
        let sched = per_item(&costs);
        assert_eq!(sched.claim_end(0, 2), 1);
        // Past the spike, claims behave like the uniform tail.
        assert!(sched.claim_end(1, 2) > 2);
        // The same costs as runs claim the same boundaries.
        let runs = TaperSchedule::new(&[(1, 1_000_000.0), (99, 1.0)]);
        for start in 0..100 {
            assert_eq!(runs.claim_end(start, 2), sched.claim_end(start, 2));
        }
    }

    #[test]
    fn runs_claim_like_their_expanded_items() {
        // A run-length schedule and its item-by-item expansion must agree on
        // every claim: with integer costs (exact prefixes), and with the
        // equal-cost n·log n runs of a heaviest-first grid, whose tail
        // goals land on item boundaries.
        let integer = vec![(3, 2.0), (0, 5.0), (4, 1.0), (2, 0.0), (5, 3.0), (1, 7.0)];
        let nlogn: Vec<(usize, f64)> = (1..=8u32)
            .rev()
            .flat_map(|i| [(5, crate::sched::CostSpec::NLogN.cost(i * 12_500)); 2])
            .collect();
        for runs in [integer, nlogn] {
            let expanded: Vec<f64> = runs
                .iter()
                .flat_map(|&(items, cost)| std::iter::repeat_n(cost, items))
                .collect();
            let (compact, items) = (TaperSchedule::new(&runs), per_item(&expanded));
            assert_eq!(compact.len(), items.len());
            for threads in [1usize, 2, 3, 8] {
                for start in 0..compact.len() {
                    assert_eq!(
                        compact.claim_end(start, threads),
                        items.claim_end(start, threads),
                        "start={start} threads={threads} runs={runs:?}"
                    );
                }
            }
        }
        let compact =
            TaperSchedule::new(&[(3, 2.0), (0, 5.0), (4, 1.0), (2, 0.0), (5, 3.0), (1, 7.0)]);
        // `locate` names the run and offset, skipping the empty run.
        assert_eq!(compact.locate(0), (0, 0));
        assert_eq!(compact.locate(2), (0, 2));
        assert_eq!(compact.locate(3), (2, 0));
        assert_eq!(compact.locate(9), (4, 0));
        assert_eq!(compact.locate(14), (5, 0));
    }

    #[test]
    fn taper_zero_and_junk_costs_still_make_progress() {
        let sched = per_item(&[f64::NAN, 0.0, -1.0, f64::INFINITY]);
        let mut start = 0;
        let mut steps = 0;
        while start < sched.len() {
            let end = sched.claim_end(start, 8);
            assert!(end > start && end <= sched.len());
            start = end;
            steps += 1;
        }
        assert!((1..=4).contains(&steps));
    }

    #[test]
    fn empty_taper_schedule_is_a_noop() {
        for sched in [TaperSchedule::new(&[]), TaperSchedule::new(&[(0, 1.0)])] {
            assert!(sched.is_empty());
            parallel_for_tapered(&sched, 4, || (), |_, _| panic!("no work expected"));
        }
    }

    #[test]
    fn worker_panics_propagate_after_the_join() {
        let sched = TaperSchedule::new(&[(64, 1.0)]);
        for threads in [1usize, 4] {
            let result = std::panic::catch_unwind(|| {
                parallel_for_tapered(
                    &sched,
                    threads,
                    || (),
                    |range, _| {
                        if range.contains(&17) {
                            panic!("item 17 failed");
                        }
                    },
                )
            });
            let payload = result.expect_err("the worker panic must surface");
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("<non-str payload>");
            // The pool re-raises the worker's own payload; when another
            // test holds the pool, the scoped fallback raises std's
            // "a scoped thread panicked" instead.
            assert!(
                msg.contains("item 17 failed") || msg.contains("a scoped thread panicked"),
                "threads={threads}: {msg}"
            );
        }
    }
}
