//! Cross-engine golden determinism: the generic `Sweep<S>` must yield
//! byte-identical results regardless of the worker-thread count *and* the
//! shape of the plan it runs — the whole grid, the cost-weighted leases
//! `TrialRange::partition` cuts, or a sparse plan that splits one cell into
//! separate trial ranges — for every simulator backend.
//!
//! "Byte-identical" is checked literally: every metric of every trial is
//! compared by its `f64` bit pattern, not by `==`, so even a sign-of-zero or
//! NaN-payload drift between schedules would fail.

use contention_experiments::aggregate::{MetricStats, StatsCell};
use contention_experiments::shard::{merge_cells, GridMeta};
use contention_resolution::prelude::*;
use contention_slotted::dynamic::{ArrivalProcess, DynamicConfig, DynamicSim};

const THREADS: [usize; 3] = [1, 2, 8];

/// The bit image of every cell: coordinates plus, per metric of
/// [`Metric::ALL`], every trial's value bits.
fn bits(cells: &[StatsCell]) -> Vec<(AlgorithmKind, u32, Vec<Vec<u64>>)> {
    cells
        .iter()
        .map(|c| {
            let samples = c.acc.raw_samples();
            let bits = samples
                .iter()
                .map(|s| s.raw().iter().map(|v| v.to_bits()).collect())
                .collect();
            (c.algorithm, c.n, bits)
        })
        .collect()
}

/// The plan shapes the matrix runs; each shape is a list of plans whose
/// results reassemble into the whole grid: the grid itself, its leases for
/// 1, 2, 3 and 7 shards, and a split cell.
fn plan_shapes(grid: &GridMeta) -> Vec<(String, Vec<Option<Vec<TrialRange>>>)> {
    let (cells, trials) = (grid.cell_count(), grid.trials);
    assert!(trials >= 3, "the split shape needs three trials per cell");
    let full = |cell| TrialRange {
        cell,
        lo: 0,
        hi: trials,
    };
    let whole: Vec<TrialRange> = (0..cells).map(full).collect();
    let mut shapes = vec![("whole grid".to_string(), vec![None])];
    for of in [1, 2, 3, 7] {
        let leases = TrialRange::partition(&whole, &grid.cell_trial_costs(), of);
        shapes.push((
            format!("{of} leases"),
            leases.into_iter().map(Some).collect(),
        ));
    }
    // Cell 0 split around a hole at its middle trial, which a second plan
    // fills: two ranges of one cell inside a single plan.
    let mid = trials / 2;
    let mut split = vec![
        TrialRange {
            cell: 0,
            lo: 0,
            hi: mid,
        },
        TrialRange {
            cell: 0,
            lo: mid + 1,
            hi: trials,
        },
    ];
    split.extend((1..cells).map(full));
    let hole = vec![TrialRange {
        cell: 0,
        lo: mid,
        hi: mid + 1,
    }];
    shapes.push(("split cell".to_string(), vec![Some(split), Some(hole)]));
    shapes
}

/// Every plan shape × thread count reproduces the 1-thread whole-grid fold
/// bit for bit once its plans' cells are merged back together.
fn assert_engine_invariants<S: Simulator>(sweep_for: impl Fn(ExecPolicy) -> Sweep<S>)
where
    TrialSummary: From<S::Output>,
{
    let template = sweep_for(ExecPolicy::threads(1));
    let grid = GridMeta {
        algorithms: template.algorithms.clone(),
        ns: template.ns.clone(),
        trials: template.trials,
        metrics: Metric::ALL.to_vec(),
        cost: CostSpec::NLogN,
    };
    let costs = grid.cell_trial_costs();
    let run = |threads: usize, plan: Option<&[TrialRange]>| {
        sweep_for(ExecPolicy::threads(threads)).run_fold_monitored(
            MetricStats::collector(&Metric::ALL),
            plan,
            None,
            Some(&costs),
        )
    };
    let golden = run(1, None);
    assert_eq!(golden.len(), grid.cell_count());
    assert!(golden.iter().all(|c| c.acc.is_complete()));
    let golden = bits(&golden);
    for threads in THREADS {
        for (shape, plans) in plan_shapes(&grid) {
            let mut merged: Vec<StatsCell> = Vec::new();
            for plan in &plans {
                let part = run(threads, plan.as_deref());
                merged = merge_cells(&grid, merged, part, MetricStats::try_merge)
                    .unwrap_or_else(|e| panic!("{}: {shape} plans overlap: {e}", S::NAME));
            }
            assert_eq!(
                golden,
                bits(&merged),
                "{}: results changed at threads={threads} plan={shape}",
                S::NAME
            );
        }
    }
}

/// The MAC (802.11g DCF) simulator through the generic engine.
#[test]
fn mac_sweep_is_schedule_invariant() {
    assert_engine_invariants(|exec| Sweep::<MacSim> {
        experiment: "golden-mac",
        config: MacConfig::paper(AlgorithmKind::Beb, 64),
        algorithms: vec![AlgorithmKind::Beb, AlgorithmKind::Sawtooth],
        ns: vec![8, 25],
        trials: 5,
        exec,
    });
}

/// The abstract windowed simulator through the generic engine.
#[test]
fn windowed_sweep_is_schedule_invariant() {
    assert_engine_invariants(|exec| Sweep::<WindowedSim> {
        experiment: "golden-windowed",
        config: WindowedConfig::abstract_model(AlgorithmKind::Beb),
        algorithms: vec![AlgorithmKind::Beb, AlgorithmKind::LogLogBackoff],
        ns: vec![40, 120],
        trials: 5,
        exec,
    });
}

/// The residual-timer semantics through the generic engine.
#[test]
fn residual_sweep_is_schedule_invariant() {
    assert_engine_invariants(|exec| Sweep::<ResidualSim> {
        experiment: "golden-residual",
        config: ResidualConfig::paper(AlgorithmKind::LogBackoff),
        algorithms: vec![AlgorithmKind::LogBackoff],
        ns: vec![60],
        trials: 6,
        exec,
    });
}

/// The windowed simulator over a lossy channel through the generic engine.
/// A non-trivial channel, so the recovery and noise draws themselves are
/// exercised across schedules.
#[test]
fn noisy_sweep_is_schedule_invariant() {
    assert_engine_invariants(|exec| Sweep::<WindowedSim> {
        experiment: "golden-noisy",
        config: WindowedConfig {
            channel: ChannelModel {
                recovery: Recovery::Geometric { base: 0.6 },
                noise: 0.15,
            },
            ..WindowedConfig::abstract_model(AlgorithmKind::Beb)
        },
        algorithms: vec![AlgorithmKind::Beb, AlgorithmKind::Sawtooth],
        ns: vec![40, 120],
        trials: 5,
        exec,
    });
}

/// The dynamic-traffic simulator, through the same `TrialSummary` fold —
/// its latency, throughput and completion metrics included.
#[test]
fn dynamic_sweep_is_schedule_invariant() {
    assert_engine_invariants(|exec| Sweep::<DynamicSim> {
        experiment: "golden-dynamic",
        config: DynamicConfig::abstract_model(
            AlgorithmKind::Beb,
            ArrivalProcess::PoissonBursts {
                rate: 0.001,
                size: 20,
            },
        ),
        algorithms: vec![AlgorithmKind::Beb, AlgorithmKind::Sawtooth],
        ns: vec![0],
        trials: 4,
        exec,
    });
}

/// The same sweep re-run in the same process reproduces itself exactly —
/// the engine holds no hidden mutable state.
#[test]
fn sweeps_are_pure_functions_of_their_inputs() {
    let sweep = Sweep::<MacSim> {
        experiment: "golden-repeat",
        config: MacConfig::paper(AlgorithmKind::LogLogBackoff, 1024),
        algorithms: vec![AlgorithmKind::LogLogBackoff],
        ns: vec![20],
        trials: 4,
        exec: ExecPolicy::default(),
    };
    let run =
        || bits(&sweep.run_fold_monitored(MetricStats::collector(&Metric::ALL), None, None, None));
    assert_eq!(run(), run());
}

/// Keeps every trial's summary of one cell, addressed by trial index.
#[derive(Clone)]
struct Trials(Vec<Option<TrialSummary>>);

impl Accumulator<TrialSummary> for Trials {
    fn record(&mut self, trial: u32, value: TrialSummary) {
        self.0[trial as usize] = Some(value);
    }
}

/// A summary's bit image: `n`, then every metric of [`Metric::ALL`].
fn summary_bits(s: &TrialSummary) -> (u32, Vec<u64>) {
    (
        s.n,
        Metric::ALL.iter().map(|m| m.extract(s).to_bits()).collect(),
    )
}

/// The two identities under every fold, on each `(n, trial)` of `cells`: a
/// lone `run_trial` is the trial a 2-thread sweep folds, and a scratch
/// arena warmed by the trials before it yields a fresh arena's bits. List
/// the largest `n` first, so later trials reuse a larger arena.
fn assert_trial_identities<S: Simulator>(
    experiment: &'static str,
    config: S::Config,
    cells: &[(u32, u32)],
) where
    TrialSummary: From<S::Output>,
{
    let mut ns: Vec<u32> = cells.iter().map(|&(n, _)| n).collect();
    ns.sort_unstable();
    ns.dedup();
    let trials = 1 + cells.iter().map(|&(_, t)| t).max().expect("cells");
    let swept = Sweep::<S> {
        experiment,
        config: config.clone(),
        algorithms: vec![S::algorithm(&config)],
        ns,
        trials,
        exec: ExecPolicy::threads(2),
    }
    .run_fold_monitored(
        |_, _, trials| Trials(vec![None; trials as usize]),
        None,
        None,
        None,
    );
    let mut warm = S::Scratch::default();
    for &(n, trial) in cells {
        let fresh = TrialSummary::from(run_trial::<S>(experiment, &config, n, trial));
        let reused = TrialSummary::from(run_trial_with::<S>(
            experiment, &config, n, trial, &mut warm,
        ));
        let folded = swept
            .iter()
            .find(|c| c.n == n)
            .and_then(|c| c.acc.0[trial as usize])
            .expect("the sweep ran every cell");
        let name = S::NAME;
        assert_eq!(
            summary_bits(&fresh),
            summary_bits(&reused),
            "{name} n={n} trial={trial}: a warmed scratch changed the trial"
        );
        assert_eq!(
            summary_bits(&fresh),
            summary_bits(&folded),
            "{name} n={n} trial={trial}: the sweep folded a different trial"
        );
    }
}

/// `run_trial` ≡ a warmed `run_trial_with` ≡ the swept trial, for the MAC
/// backend and the windowed one over the ideal and a lossy channel. The dynamic and residual backends check
/// scratch reuse in their own unit tests.
#[test]
fn lone_trials_match_warm_scratch_and_swept_trials() {
    assert_trial_identities::<MacSim>(
        "identity-mac",
        MacConfig::paper(AlgorithmKind::LogBackoff, 64),
        &[(100, 3), (15, 2), (40, 0)],
    );
    assert_trial_identities::<WindowedSim>(
        "identity-windowed",
        WindowedConfig::abstract_model(AlgorithmKind::Beb),
        &[(10_000, 1), (150, 0), (2_000, 2)],
    );
    assert_trial_identities::<WindowedSim>(
        "identity-noisy",
        WindowedConfig {
            channel: ChannelModel::softened(0.5),
            ..WindowedConfig::abstract_model(AlgorithmKind::Beb)
        },
        &[(3_000, 1), (100, 0), (600, 2)],
    );
}
