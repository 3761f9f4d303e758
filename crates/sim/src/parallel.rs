//! Deterministic parallel execution of independent work items.
//!
//! The paper ran its sweeps on four 16-core Xeon nodes; here the same
//! embarrassing parallelism is captured with scoped threads, spawned for
//! each sweep and joined before it returns. Workers take one index at a
//! time off a single atomic cursor — nothing about the work list is
//! materialized up front; the caller maps indices to work on the fly, in an
//! order it chose (the engine puts the heaviest cells first). The caller
//! routes results by *index*, so output placement (and, because every trial
//! derives its own RNG from its grid coordinates, every number) is
//! independent of scheduling and thread count.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `body` once on each of `threads` scoped workers and returns after
/// every one has finished. Every handle is joined, so a worker panic is
/// re-raised here with its own payload, not as std's generic "a scoped
/// thread panicked".
fn run_on_workers(threads: usize, body: &(dyn Fn() + Sync)) {
    let panic = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|i| {
                std::thread::Builder::new()
                    .name(format!("sweep-worker-{i}"))
                    .spawn_scoped(scope, body)
                    .expect("failed to spawn a sweep worker")
            })
            .collect();
        let mut first = None;
        for worker in workers {
            if let Err(payload) = worker.join() {
                first.get_or_insert(payload);
            }
        }
        first
    });
    if let Some(payload) = panic {
        std::panic::resume_unwind(payload);
    }
}

/// Moves the claim cursor to the end when its worker unwinds, so the other
/// workers stop after the item they hold instead of running the rest of a
/// sweep whose panic will discard it.
struct StopOnUnwind<'a> {
    cursor: &'a AtomicUsize,
    end: usize,
}

impl Drop for StopOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.cursor.store(self.end, Ordering::Relaxed);
        }
    }
}

/// Runs `work` over every index of `0..total`, each claimed alone from one
/// atomic cursor, so indices start in order and no worker idles while
/// another holds a batch. Each index is visited exactly once; the caller
/// must route results by index.
///
/// Each worker owns a `state` built once by `init` and threaded through all
/// of its items — the engine parks per-trial scratch arenas there, so a
/// million-trial sweep reuses `threads` arenas instead of allocating one per
/// trial. Per-worker state cannot affect results: the engine routes outputs
/// by index, and anything observable must be reset per item.
///
/// With `threads <= 1` the items run inline, in order, on the caller's
/// thread. A worker panic stops the other workers after their current item
/// and propagates after the join.
pub fn parallel_for<W, I, F>(total: usize, threads: usize, init: I, work: F)
where
    I: Fn() -> W + Sync,
    F: Fn(usize, &mut W) + Sync,
{
    let threads = threads.max(1).min(total);
    if threads <= 1 {
        let mut state = init();
        (0..total).for_each(|index| work(index, &mut state));
        return;
    }
    let next = AtomicUsize::new(0);
    let body = || {
        let _stop = StopOnUnwind {
            cursor: &next,
            end: total,
        };
        let mut state = init();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= total {
                break;
            }
            work(index, &mut state);
        }
    };
    run_on_workers(threads, &body);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::Mutex;

    #[test]
    fn every_index_is_visited_exactly_once() {
        for threads in [1usize, 2, 8] {
            let hits: Vec<AtomicU32> = (0..1000).map(|_| AtomicU32::new(0)).collect();
            parallel_for(
                1000,
                threads,
                || (),
                |i, _| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                },
            );
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "threads={threads}: index visited != once"
            );
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
            let out = Mutex::new(vec![0u64; 500]);
            parallel_for(
                500,
                threads,
                || (),
                |i, _| {
                    let r = compute(i);
                    out.lock().unwrap()[i] = r;
                },
            );
            assert_eq!(golden, out.into_inner().unwrap(), "threads={threads}");
        }
    }

    #[test]
    fn sequential_path_runs_in_order_on_one_state() {
        let seen = Mutex::new(Vec::new());
        let inits = AtomicUsize::new(0);
        parallel_for(
            10,
            1,
            || inits.fetch_add(1, Ordering::Relaxed),
            |i, _| seen.lock().unwrap().push(i),
        );
        assert_eq!(seen.into_inner().unwrap(), (0..10).collect::<Vec<_>>());
        assert_eq!(inits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn more_threads_than_items() {
        let count = AtomicUsize::new(0);
        parallel_for(
            3,
            64,
            || (),
            |_, _| {
                count.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(count.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn no_items_is_a_noop() {
        for threads in [1usize, 4] {
            parallel_for(0, threads, || (), |_, _| panic!("no work expected"));
        }
    }

    /// A panic payload's message.
    fn message(payload: &(dyn std::any::Any + Send)) -> &str {
        payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("<non-str payload>")
    }

    #[test]
    fn worker_panics_propagate_after_the_join() {
        for threads in [1usize, 4] {
            let result = std::panic::catch_unwind(|| {
                parallel_for(
                    64,
                    threads,
                    || (),
                    |i, _| {
                        if i == 17 {
                            panic!("item 17 failed");
                        }
                    },
                )
            });
            let payload = result.expect_err("the worker panic must surface");
            let msg = message(payload.as_ref());
            assert!(msg.contains("item 17 failed"), "threads={threads}: {msg}");
        }
    }

    #[test]
    fn a_worker_panic_stops_the_other_workers_claiming() {
        // 200 items of 1 ms on 2 workers; the first item panics. The other
        // worker finishes the item it holds and stops: it must not run the
        // rest of the plan, whose results the panic throws away.
        let ran = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(|| {
            parallel_for(
                200,
                2,
                || (),
                |i, _| {
                    if i == 0 {
                        panic!("item 0 failed");
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    ran.fetch_add(1, Ordering::Relaxed);
                },
            )
        });
        let payload = result.expect_err("the worker panic must surface");
        let msg = message(payload.as_ref());
        assert!(msg.contains("item 0 failed"), "{msg}");
        let ran = ran.load(Ordering::Relaxed);
        assert!(ran < 199 / 2, "{ran} of the 199 items after the panic ran");
    }

    #[test]
    fn a_sweep_nested_in_a_worker_visits_every_index_once() {
        // A work closure may itself start a parallel sweep: the inner sweep
        // spawns its own scoped workers, never waits on the outer ones, and
        // must cover its indices exactly once for every outer item.
        let hits: Vec<AtomicU32> = (0..8 * 50).map(|_| AtomicU32::new(0)).collect();
        parallel_for(
            8,
            2,
            || (),
            |o, _| {
                parallel_for(
                    50,
                    2,
                    || (),
                    |i, _| {
                        hits[o * 50 + i].fetch_add(1, Ordering::Relaxed);
                    },
                );
            },
        );
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }
}
