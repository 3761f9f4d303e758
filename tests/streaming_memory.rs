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
//! The counters are process-wide and the test harness runs tests on
//! parallel threads, so every measurement holds [`measuring`]'s lock for
//! its whole duration: no other test's allocations land inside it.
//! (Thread-local counters would instead miss the engine's worker threads.)

use contention_resolution::prelude::*;
use contention_stats::stream::Extrema;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

struct CountingAllocator;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            ALLOC_CALLS.fetch_add(1, Ordering::SeqCst);
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

/// O(1)-state accumulator: exact count/min/max of CW slots per cell.
#[derive(Clone)]
struct CwExtrema(Extrema);

impl Accumulator<TrialSummary> for CwExtrema {
    fn record(&mut self, _trial: u32, value: TrialSummary) {
        self.0.record(value.cw_slots);
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
    let cells = sweep.run_fold_monitored(|_, _, _| CwExtrema(Extrema::new()), None, None, None);
    let peak_growth = PEAK.load(Ordering::SeqCst).saturating_sub(baseline);

    // Every trial ran: a lone BEB station succeeds in its size-1 first
    // window, so every trial contributes exactly one CW slot.
    assert_eq!(cells.len(), 1);
    assert_eq!(cells[0].acc.0.count(), TRIALS as u64);
    assert_eq!(cells[0].acc.0.min(), 1.0);
    assert_eq!(cells[0].acc.0.max(), 1.0);

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

/// A pathological huge-window trial must not pin its high-water slot state
/// for the rest of a shard.
///
/// A `Fixed { window: 2²³ }` schedule with four stations drives the
/// windowed loop's sparse path, which sizes the epoch-stamped slot-state
/// buffer to the window width (2²³ × 8 B = 64 MB). `NoisyScratch` sheds
/// slot-indexed buffers beyond 2²¹ entries at the end of every trial, so
/// the retained footprint after the trial must drop back to the 16 MB cap
/// even though the trial itself had to touch the full width.
#[test]
fn pathological_window_scratch_is_shed_after_the_trial() {
    let _guard = measuring();
    const WIDTH: u32 = 1 << 23;
    let config = NoisyConfig::abstract_model(
        AlgorithmKind::Fixed { window: WIDTH },
        ChannelModel::ideal(),
    );
    let mut scratch = <NoisySim as Simulator>::Scratch::default();

    let before = CURRENT.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    // Four stations across 2²³ slots: collision probability ≈ 2⁻²¹ per
    // pair, so (at this seed) everyone wins in the first window and the
    // trial ends immediately — the window width, not the trial length, is
    // what stresses the buffers.
    let m = run_trial_with::<NoisySim>("alloc-shed", &config, 4, 0, &mut scratch);
    assert_eq!(m.successes, 4, "trial unexpectedly needed a second window");

    let peak_growth = PEAK.load(Ordering::SeqCst).saturating_sub(before);
    let retained = CURRENT.load(Ordering::SeqCst).saturating_sub(before);
    // The trial really did size slot state to the window: 2²³ × 8 B.
    assert!(
        peak_growth >= (WIDTH as usize) * 8,
        "peak heap growth {peak_growth} B never reached the window's slot state"
    );
    // …but the scratch kept at most the retention cap (2²¹ × 8 B), plus
    // small per-trial output; 20 MB leaves slack without letting the full
    // 64 MB table hide.
    assert!(
        retained < 20_000_000,
        "retained heap growth {retained} B — pathological slot state was not shed"
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

/// O(1)-state accumulator over total time (drops the summary, no alloc).
#[derive(Clone)]
struct TimeExtrema(Extrema);

impl Accumulator<TrialSummary> for TimeExtrema {
    fn record(&mut self, _trial: u32, value: TrialSummary) {
        self.0.record(value.total_time_us);
    }
}

/// Steady-state allocation ceiling for the MAC simulator's trial loop.
///
/// With the per-worker scratch arena (event-queue slab, medium buffers,
/// station table, membership lists all recycled), a steady-state MAC trial
/// may allocate only its *output*: the per-station metrics vector, plus a
/// couple of transients. Running the same sweep with two trial counts and
/// differencing the allocation-call counter isolates exactly the per-trial
/// cost — sweep setup, arena growth to the high-water mark and test-harness
/// noise cancel out.
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
        let before = ALLOC_CALLS.load(Ordering::SeqCst);
        let cells = sweep(trials).run_fold_monitored(
            |_, _, _| TimeExtrema(Extrema::new()),
            None,
            None,
            None,
        );
        assert_eq!(cells[0].acc.0.count(), trials as u64);
        ALLOC_CALLS.load(Ordering::SeqCst) - before
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
