//! Bounded-memory sanity check for the streaming fold path.
//!
//! A large-trial abstract sweep folded through an O(1)-state accumulator
//! must not allocate anything proportional to
//! `trials × size_of::<TrialSummary>()` — that product is exactly what the
//! old collect-then-aggregate pipeline retained per cell and what capped
//! the grids below the paper's n = 10⁵. A counting global allocator
//! measures the peak heap growth during the sweep; one trial here is tiny
//! (n = 1), so any per-trial retention would dominate the measurement.
//!
//! The byte counters are process-wide, since a sweep's workers allocate on
//! threads of their own, and the test harness runs tests on parallel
//! threads, so every measurement holds [`measuring`]'s lock for its whole
//! duration: no other test's allocations land inside it. The lock cannot
//! hold off the harness's own threads, which allocate while they start a
//! test or collect a result; the byte bounds leave room for that. The
//! allocation-call counts leave none, so they count only the calls made on
//! the measuring thread (`ALLOC_CALLS` is thread-local), where an
//! `ExecPolicy::threads(1)` sweep runs inline.

use contention_resolution::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

struct CountingAllocator;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Allocation calls made on this thread. Const-initialized and without
    /// a destructor, so the allocator can count into it without allocating.
    static ALLOC_CALLS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// `GlobalAlloc`'s contract; the counters only observe layout sizes.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            let _ = ALLOC_CALLS.try_with(|calls| calls.set(calls.get() + 1));
            let now = CURRENT.fetch_add(layout.size(), Ordering::SeqCst) + layout.size();
            PEAK.fetch_max(now, Ordering::SeqCst);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        CURRENT.fetch_sub(layout.size(), Ordering::SeqCst);
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

static MEASURING: Mutex<()> = Mutex::new(());

/// Serializes the measuring tests; hold the guard across a measurement. A
/// failed (panicked) measurement must not fail the others, so poisoning is
/// ignored.
fn measuring() -> MutexGuard<'static, ()> {
    MEASURING.lock().unwrap_or_else(PoisonError::into_inner)
}

/// O(1)-state accumulator: the count and maximum of one metric per cell.
#[derive(Clone)]
struct CountMax {
    metric: Metric,
    count: u64,
    max: f64,
}

impl CountMax {
    fn new(metric: Metric) -> CountMax {
        CountMax {
            metric,
            count: 0,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Accumulator<TrialSummary> for CountMax {
    fn record(&mut self, _trial: u32, value: TrialSummary) {
        self.count += 1;
        self.max = self.max.max(self.metric.extract(&value));
    }
}

#[test]
fn folded_sweep_memory_does_not_scale_with_trials() {
    let _guard = measuring();
    const TRIALS: u32 = 100_000;
    let sweep = Sweep::<WindowedSim> {
        experiment: "memory-sanity",
        config: WindowedConfig::abstract_model(AlgorithmKind::Beb),
        algorithms: vec![AlgorithmKind::Beb],
        ns: vec![1],
        trials: TRIALS,
        exec: ExecPolicy::threads(2),
    };

    let baseline = CURRENT.load(Ordering::SeqCst);
    PEAK.store(baseline, Ordering::SeqCst);
    let cells =
        sweep.run_fold_monitored(|_, _, _| CountMax::new(Metric::CwSlots), None, None, None);
    let peak_growth = PEAK.load(Ordering::SeqCst).saturating_sub(baseline);

    // Every trial ran: a lone BEB station succeeds in its size-1 first
    // window, so no trial takes more than one CW slot.
    assert_eq!(cells.len(), 1);
    assert_eq!(cells[0].acc.count, TRIALS as u64);
    assert_eq!(cells[0].acc.max, 1.0);

    // The old pipeline retained ≥ trials × size_of::<TrialSummary>() just
    // for this cell; the fold path's peak must stay far below that. The
    // bound leaves ~20× headroom over what the run transiently allocates
    // (thread stacks are not heap; per-trial scratch is freed per trial).
    let collect_cost = TRIALS as usize * std::mem::size_of::<TrialSummary>();
    assert!(collect_cost > 8_000_000, "summary shrank? {collect_cost}");
    assert!(
        peak_growth < 2_000_000,
        "peak heap growth {peak_growth} B suggests per-trial retention \
         (collect path would need {collect_cost} B)"
    );
}

/// A pathological huge-window trial needs no more memory than its handful
/// of stations.
///
/// A `Fixed { window: 2²³ }` schedule with four stations opens one window
/// 2²¹ times wider than its alive count. The count-only windowed loop sorts
/// such a sparse window's draws, so its scratch holds four slots, not a
/// table as long as the window (64 MB at 8 B per slot). Both
/// the peak and what the scratch keeps after the trial must stay far below
/// such a table.
#[test]
fn pathological_window_scratch_stays_alive_sized() {
    let _guard = measuring();
    const WIDTH: u32 = 1 << 23;
    let config = WindowedConfig::abstract_model(AlgorithmKind::Fixed { window: WIDTH });
    let mut scratch = <WindowedSim as Simulator>::Scratch::default();

    let before = CURRENT.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    // Four stations across 2²³ slots: collision probability ≈ 2⁻²¹ per
    // pair, so (at this seed) everyone wins in the first window and the
    // trial ends immediately — the window width, not the trial length, is
    // what stresses the buffers.
    let m = run_trial_with::<WindowedSim>("alloc-shed", &config, 4, 0, &mut scratch);
    assert_eq!(m.successes, 4, "trial unexpectedly needed a second window");

    let peak_growth = PEAK.load(Ordering::SeqCst).saturating_sub(before);
    let retained = CURRENT.load(Ordering::SeqCst).saturating_sub(before);
    // Four sorted draws need 16 B; 64 KB leaves room for incidental
    // allocations while a slot-indexed structure of this window (8 MB even
    // as a one-bit map) cannot hide.
    assert!(
        peak_growth < 64 * 1024,
        "peak heap growth {peak_growth} B for 4 stations — the window's width \
         sized the scratch"
    );
    assert!(
        retained < 64 * 1024,
        "retained heap growth {retained} B for 4 stations — the scratch kept \
         window-sized state"
    );
}

/// The paper's largest batch, n = 10⁶ under BEB, in memory that follows
/// the alive count.
///
/// A BEB trial at this n opens windows of 2²² and 2²³ slots once most
/// stations have finished; a table as long as the last one would take
/// 64 MB at 8 B per slot. The count-only loop keeps at most 16 B per alive
/// station in its bitmaps and 4 B per station in its sorted draws, 20 MB
/// at this n; the real peak is far lower, since dense windows this wide
/// hold far fewer than n stations.
#[test]
fn million_station_trial_scratch_follows_the_alive_count() {
    let _guard = measuring();
    const N: u32 = 1_000_000;
    let config = WindowedConfig::abstract_model(AlgorithmKind::Beb);
    let mut scratch = <WindowedSim as Simulator>::Scratch::default();

    let before = CURRENT.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let m = run_trial_with::<WindowedSim>("alloc-alive", &config, N, 0, &mut scratch);
    let peak_growth = PEAK.load(Ordering::SeqCst).saturating_sub(before);

    assert_eq!(m.successes, N);
    // BEB's windows are 1, 2, 4, …: the ones before the 2²³-slot window
    // span 2²³ − 1 slots, so a later last success means the trial opened
    // it.
    assert!(
        m.cw_slots >= f64::from(1u32 << 23),
        "cw_slots {} — the trial never opened a 2²³-slot window",
        m.cw_slots
    );
    let alive_bound = 20 * N as usize;
    assert!(
        peak_growth < alive_bound,
        "peak heap growth {peak_growth} B at n = {N} exceeds 20 B per station \
         ({alive_bound} B): a window's width sized the scratch"
    );
}

/// Ten million streaming arrivals in one dynamic trial, bounded memory.
///
/// The streaming arrival generator draws inter-arrival gaps lazily, so the
/// engine's footprint is set by the *backlog* (packets in flight) plus the
/// fixed-size calendar ring and latency histogram — never by
/// `horizon × rate`. The pre-overhaul engine materialised the entire
/// arrival schedule up front: at this horizon that alone would be
/// ≥ 10⁷ × 16 B = 160 MB. A 4 MB peak bound keeps that regression
/// impossible while leaving ~100× headroom over the steady-state backlog.
#[test]
fn ten_million_arrivals_stream_in_bounded_memory() {
    use contention_slotted::dynamic::{ArrivalProcess, DynamicConfig, DynamicSim};
    let _guard = measuring();

    // 5 % offered load on unit costs: comfortably stable for BEB, so the
    // backlog stays O(1) while E[offered] = 0.05 × 2×10⁸ = 10⁷ packets.
    let config = DynamicConfig {
        horizon_slots: 200_000_000,
        drain_slots: 1_000_000,
        ..DynamicConfig::abstract_model(
            AlgorithmKind::Beb,
            ArrivalProcess::PoissonSingles { rate: 0.05 },
        )
    };
    let mut scratch = <DynamicSim as Simulator>::Scratch::default();

    let before = CURRENT.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let m = run_trial_with::<DynamicSim>("streaming-10m", &config, 0, 0, &mut scratch);
    let peak_growth = PEAK.load(Ordering::SeqCst).saturating_sub(before);

    // Poisson sd at this mean is ≈ 3.2×10³, so 9.9×10⁶ is a > 30σ floor.
    assert!(
        m.offered >= 9_900_000,
        "expected ≈10⁷ arrivals, got {}",
        m.offered
    );
    assert_eq!(m.completed, m.offered, "stable load must fully drain");
    assert!(
        peak_growth < 4_000_000,
        "peak heap growth {peak_growth} B for {} arrivals — the arrival \
         stream is being materialised instead of streamed",
        m.offered
    );
}

/// Steady-state allocation ceiling for the MAC simulator's trial loop.
///
/// With the per-worker scratch arena (event-queue slab, medium buffers,
/// station table, membership lists all recycled), a steady-state MAC trial
/// may allocate only its *output*: the per-station metrics vector, plus a
/// couple of transients. Running the same sweep with two trial counts and
/// differencing the measuring thread's allocation calls isolates exactly
/// the per-trial cost — sweep setup and arena growth to the high-water mark
/// cancel out, and the test harness's threads are not counted.
#[test]
fn mac_trial_loop_allocates_only_its_output() {
    let _guard = measuring();
    const N: u32 = 30;
    let sweep = |trials: u32| Sweep::<MacSim> {
        experiment: "mac-alloc-ceiling",
        config: MacConfig::paper(AlgorithmKind::Beb, 64),
        algorithms: vec![AlgorithmKind::Beb],
        ns: vec![N],
        trials,
        // Sequential: the engine runs inline on one arena (no thread-spawn
        // allocations muddying the count).
        exec: ExecPolicy::threads(1),
    };

    let allocs_for = |trials: u32| {
        let before = ALLOC_CALLS.with(Cell::get);
        let cells = sweep(trials).run_fold_monitored(
            |_, _, _| CountMax::new(Metric::TotalTimeUs),
            None,
            None,
            None,
        );
        assert_eq!(cells[0].acc.count, trials as u64);
        ALLOC_CALLS.with(Cell::get) - before
    };

    // Warm-up run also verifies the sweep completes.
    allocs_for(8);
    let short = allocs_for(8);
    let long = allocs_for(72);
    let per_trial = (long.saturating_sub(short)) as f64 / 64.0;
    // One stations vector per trial is inherent (it is the output); the
    // ceiling allows a small constant more so incidental transients don't
    // flake, but catches any O(n)-per-trial or per-event regression.
    assert!(
        per_trial <= 4.0,
        "steady-state MAC trial makes {per_trial:.2} allocations \
         (short sweep: {short}, long sweep: {long}); the arena is leaking \
         per-trial allocations back into the hot loop"
    );
}

/// Steady-state allocation count for the windowed sweep at the paper's
/// largest batch.
///
/// The count-only loop a `WindowedSim` sweep runs keeps only occupancy
/// tables, and those live in the per-worker scratch arena, so once the
/// arena has grown to its high-water mark a trial allocates nothing at all
/// — not even an output, since a `TrialSummary` is plain data. Differencing
/// two sweeps of different lengths cancels sweep setup and arena growth, as
/// in the MAC check above. A per-station table (4 MB of `StationMetrics` at
/// this n) would show up here as one allocation per trial.
#[test]
fn windowed_sweep_allocates_nothing_per_trial() {
    let _guard = measuring();
    const N: u32 = 100_000;
    let sweep = |trials: u32| Sweep::<WindowedSim> {
        experiment: "windowed-alloc-ceiling",
        config: WindowedConfig::abstract_model(AlgorithmKind::Beb),
        algorithms: vec![AlgorithmKind::Beb],
        ns: vec![N],
        trials,
        // Sequential: the engine runs inline on one arena.
        exec: ExecPolicy::threads(1),
    };

    let allocs_for = |trials: u32| {
        let before = ALLOC_CALLS.with(Cell::get);
        let cells = sweep(trials).run_fold_monitored(
            |_, _, _| CountMax::new(Metric::CwSlots),
            None,
            None,
            None,
        );
        assert_eq!(cells[0].acc.count, trials as u64);
        ALLOC_CALLS.with(Cell::get) - before
    };

    let short = allocs_for(2);
    let long = allocs_for(10);
    // The sweep's setup allocates on this thread; none counted would mean
    // the trials ran on another thread, out of the count's sight.
    assert!(short > 0, "the sweep ran off the measuring thread");
    let per_trial = long.saturating_sub(short) as f64 / 8.0;
    assert_eq!(
        per_trial, 0.0,
        "steady-state windowed trial makes {per_trial:.2} allocations \
         (short sweep: {short}, long sweep: {long})"
    );
}
