//! Hot-path microbenches: the indexed event queue, the medium's busy-period
//! bookkeeping, and full arena-reusing MAC / windowed trials.
//!
//! These are the Criterion-style companions to `repro bench` (which owns the
//! recorded baseline and the `BENCH_mac.json` artifact): run `cargo bench
//! --bench hot_path` to compare the same structures interactively,
//! run-over-run, with criterion's sampling instead of the harness's fixed
//! iteration counts.

use contention_core::algorithm::AlgorithmKind;
use contention_core::channel::ChannelModel;
use contention_core::time::Nanos;
use contention_mac::medium::{ActiveTx, Medium, TxKind, TxSource};
use contention_mac::{MacConfig, MacSim};
use contention_sim::engine::{run_trial_with, Simulator};
use contention_sim::event::EventQueue;
use contention_slotted::noisy::NoisyConfig;
use contention_slotted::windowed::WindowedConfig;
use contention_slotted::{NoisySim, WindowedSim};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn queue_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    group.bench_function("schedule_pop_1k", |b| {
        let mut q: EventQueue<u32> = EventQueue::new();
        b.iter(|| {
            q.reset();
            for i in 0..1_000u32 {
                q.schedule(Nanos(((i as u64).wrapping_mul(2654435761)) % 1_000_000), i);
            }
            let mut acc = 0u64;
            while let Some((at, _)) = q.pop() {
                acc = acc.wrapping_add(at.as_nanos());
            }
            acc
        })
    });
    group.bench_function("schedule_cancel_1k", |b| {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut tokens = Vec::with_capacity(1_000);
        b.iter(|| {
            q.reset();
            tokens.clear();
            for i in 0..1_000u32 {
                tokens
                    .push(q.schedule(Nanos(((i as u64).wrapping_mul(2654435761)) % 1_000_000), i));
            }
            // Cancel in an order unrelated to heap order.
            for (i, t) in tokens.iter().enumerate() {
                if i % 2 == 0 {
                    q.cancel(*t);
                }
            }
            let live = q.len();
            while q.pop().is_some() {}
            live
        })
    });
    group.finish();
}

fn medium_busy_periods(c: &mut Criterion) {
    let frame = |id: u32, station: u32, start: u64, end: u64| ActiveTx {
        id,
        source: TxSource::Station(station),
        kind: TxKind::Data,
        for_station: None,
        tag: 0,
        start: Nanos(start),
        end: Nanos(end),
        corrupted: false,
        overlaps: 0,
    };
    c.bench_function("medium/collision_periods_1k", |b| {
        let mut m = Medium::new();
        b.iter(|| {
            m.reset();
            let mut contenders = 0u64;
            let mut t = 0u64;
            for p in 0..1_000u32 {
                let k = 2 + p % 3;
                for s in 0..k {
                    m.start_tx(frame(p * 8 + s, s, t, t + 10));
                }
                for s in 0..k {
                    let (_, period) = m.end_tx(p * 8 + s, Nanos(t + 10));
                    if let Some(end) = period {
                        contenders += end.corrupted_contenders as u64;
                    }
                }
                t += 20;
            }
            contenders
        })
    });
}

fn mac_trials(c: &mut Criterion) {
    let mut group = c.benchmark_group("mac_trial");
    group.sample_size(12);
    let config = MacConfig::paper(AlgorithmKind::Beb, 64);
    let mut scratch = <MacSim as Simulator>::Scratch::default();
    group.bench_function("beb_64B_n100_arena", |b| {
        let mut trial = 0u32;
        b.iter(|| {
            trial = (trial + 1) % 8;
            run_trial_with::<MacSim>("bench-hot-mac", &config, 100, trial, &mut scratch)
                .metrics
                .cw_slots
        })
    });
    let wconfig = WindowedConfig::abstract_model(AlgorithmKind::Beb);
    let mut wscratch = <WindowedSim as Simulator>::Scratch::default();
    group.bench_function("windowed_beb_n10k_arena", |b| {
        let mut trial = 0u32;
        b.iter(|| {
            trial = (trial + 1) % 8;
            run_trial_with::<WindowedSim>("bench-hot-win", &wconfig, 10_000, trial, &mut wscratch)
                .cw_slots
        })
    });
    // The scale ceiling the streaming sweeps run at: same loop, 10× the
    // stations, so cache behaviour (not constant factors) dominates.
    group.bench_function("windowed_beb_n1e5_arena", |b| {
        let mut trial = 0u32;
        b.iter(|| {
            trial = (trial + 1) % 4;
            run_trial_with::<WindowedSim>("bench-hot-win", &wconfig, 100_000, trial, &mut wscratch)
                .cw_slots
        })
    });
    // The per-station loop over a softened channel: counting-sort group-by
    // plus per-slot channel draws, where the windowed rows above count
    // occupancy only.
    let nconfig = NoisyConfig::abstract_model(AlgorithmKind::Beb, ChannelModel::softened(0.5));
    let mut nscratch = <NoisySim as Simulator>::Scratch::default();
    group.bench_function("noisy_soften_n10k_sampled", |b| {
        let mut trial = 0u32;
        b.iter(|| {
            trial = (trial + 1) % 8;
            run_trial_with::<NoisySim>("bench-hot-noisy", &nconfig, 10_000, trial, &mut nscratch)
                .collisions
        })
    });
    group.finish();
    // Shape check: arena trials must equal fresh-scratch trials bit for bit.
    let fresh = contention_sim::engine::run_trial::<MacSim>("bench-hot-mac", &config, 100, 3);
    let arena = run_trial_with::<MacSim>("bench-hot-mac", &config, 100, 3, &mut scratch);
    contention_bench::shape_check(
        "hot_path_arena_identity",
        fresh.metrics == arena.metrics,
        "arena trial == fresh trial",
    );
    black_box((fresh.metrics.cw_slots, arena.metrics.cw_slots));
}

criterion_group!(benches, queue_ops, medium_busy_periods, mac_trials);
criterion_main!(benches);
