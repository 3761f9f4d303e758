//! Traced per-layer replay for the repository benchmark (`perfbench/run.py`).
//!
//! ```text
//! perfbench-tracer --workload NAME --seed N --seconds S --out DIR
//! ```
//!
//! Replays one benchmark workload in-process through the layers' public
//! functions and times every call as a span:
//!
//! 1. **Pipeline replay** — the workload's figures in `repro` order. A
//!    shardable figure runs as its sweep half (`ShardableEntry::cells`, i.e.
//!    `Sweep::run_fold_monitored`) and its report half
//!    (`ShardableEntry::report`); any other figure runs whole. Every report
//!    is written with `Report::write_{csv,json}` into `DIR/artifacts`, which
//!    must match the untraced run's artifacts byte for byte.
//! 2. **Layer passes**, repeated until `--seconds` is spent (at least one):
//!    the raw RNG draw floor behind `trial_rng`; every distinct sweep grid as
//!    a bare sequential `run_trial_with` loop (one span per trial) and as 1-
//!    and 2-thread `run_fold_monitored` runs; the report halves and artifact
//!    writes again on the folded cells; and each grid's `shard_state/v1`
//!    state cut into the coordinator's lease-sized states (`to_json`,
//!    `parse`, `merge_states`).
//!
//! `--seed` is mixed into the experiment tag of every layer-pass trial. The
//! pipeline replay keeps the program's own tags, so its artifacts stay
//! comparable with the reference digests.
//!
//! Layers a workload's own grids never reach (the MAC kernel on
//! `scale_tail`, say) are measured on a smoke-size probe — quick grids at two
//! trials — so every workload reports every per-layer metric; probe figures
//! never count towards the pipeline wall time or the sweep-engine ratios.
//!
//! Spans stay in memory and go to `DIR/spans.jsonl` at the end. The last
//! stdout line is one JSON object: the replay wall time, the per-layer
//! metrics and sample counts. A failed check (replayed trial off the
//! program's, lease states that do not merge back, an impure report half)
//! ends the run with an error and exit code 1 instead.

use contention_core::algorithm::AlgorithmKind;
use contention_core::rng::{experiment_tag, trial_rng};
use contention_experiments::aggregate::{MetricStats, StatsCell};
use contention_experiments::checkpoint::missing_work;
use contention_experiments::figures::sharding::{find_shardable, ShardableEntry};
use contention_experiments::figures::shared::SweepHooks;
use contention_experiments::figures::{registry, Report};
use contention_experiments::server::DEFAULT_LEASES;
use contention_experiments::shard::{merge_states, GridMeta, ShardCell, ShardState};
use contention_experiments::summary::TrialSummary;
use contention_experiments::Options;
use contention_mac::{MacConfig, MacSim};
use contention_sim::engine::{run_trial_with, ExecPolicy, Simulator, Sweep, TrialRange};
use contention_slotted::dynamic::{ArrivalProcess, DynAxis, DynamicConfig, DynamicSim};
use contention_slotted::windowed::WindowedConfig;
use contention_slotted::WindowedSim;
use rand::RngCore;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// RNG words drawn per `rng.ns_per_word` sample.
const RNG_WORDS: usize = 1 << 22;

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

struct Span {
    layer: &'static str,
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    /// Work done inside the span in the layer's own unit (simulated CW
    /// slots, simulated µs, offered packets, RNG words, bytes), 0 if none.
    work: f64,
}

/// In-memory span log; spans are linked to the span that caused them.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn begin(
        &mut self,
        layer: &'static str,
        name: impl Into<String>,
        parent: Option<usize>,
    ) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name: name.into(),
            parent,
            start_ns,
            end_ns: start_ns,
            work: 0.0,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`, recording `work`; returns its duration in seconds.
    fn end(&mut self, id: usize, work: f64) -> f64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.work = work;
        (end_ns - span.start_ns) as f64 * 1e-9
    }

    /// Runs `f` inside a span and returns its result with the duration.
    fn time<T>(
        &mut self,
        layer: &'static str,
        name: impl Into<String>,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.begin(layer, name, parent);
        let out = f();
        (out, self.end(id, 0.0))
    }

    fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let mut text = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{id},\"parent\":{parent},\"layer\":{},\"name\":{},\"start_ns\":{},\
                 \"end_ns\":{},\"work\":{}}}",
                json_str(s.layer),
                json_str(&s.name),
                s.start_ns,
                s.end_ns,
                num(s.work)
            );
        }
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

// ---------------------------------------------------------------------------
// Workloads: the figures each one runs, and the sweeps behind them.
// ---------------------------------------------------------------------------

/// One figure of a replay, with the options `repro` would run it under.
struct Step {
    name: &'static str,
    opts: Options,
}

fn quick_opts() -> Options {
    Options {
        threads: Some(2),
        json: true,
        ..Options::default()
    }
}

/// The figures a benchmark workload runs, in `repro` order.
fn workload_steps(workload: &str) -> Result<Vec<Step>, String> {
    let step = |name, opts| Step { name, opts };
    match workload {
        "repro_all" => Ok(registry()
            .into_iter()
            .map(|(name, _, _)| step(name, quick_opts()))
            .collect()),
        "scale_tail" => Ok(vec![step("scale", quick_opts())]),
        "fleet_saturation" => Ok(vec![step(
            "saturation",
            Options {
                full: true,
                ..quick_opts()
            },
        )]),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// A sweep backend with its base configuration.
#[derive(Clone, Copy)]
enum Backend {
    Mac(MacConfig),
    Windowed(WindowedConfig),
    Dynamic(DynamicConfig),
}

impl Backend {
    fn layer(self) -> Kernel {
        match self {
            Backend::Mac(_) => Kernel::Mac,
            Backend::Windowed(_) => Kernel::Windowed,
            Backend::Dynamic(_) => Kernel::Dynamic,
        }
    }
}

/// The three simulation kernels a replay times per trial.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Kernel {
    Windowed,
    Mac,
    Dynamic,
}

impl Kernel {
    const ALL: [Kernel; 3] = [Kernel::Windowed, Kernel::Mac, Kernel::Dynamic];

    fn layer(self) -> &'static str {
        match self {
            Kernel::Windowed => "slotted.windowed",
            Kernel::Mac => "mac",
            Kernel::Dynamic => "slotted.dynamic",
        }
    }

    /// Simulated work of one trial, in the unit the kernel's `ns_per_*`
    /// metric divides by.
    fn work(self, summary: &TrialSummary) -> f64 {
        match self {
            Kernel::Windowed => summary.cw_slots,
            Kernel::Mac => summary.total_time_us,
            Kernel::Dynamic => summary.offered,
        }
    }
}

/// The sweep a shardable figure folds from: its RNG tag (the `experiment`
/// string the figure hands the engine) and its backend configuration.
/// Figures that share a tag share the sweep. The tracer re-states these
/// because the figure modules keep them private; the guard in
/// [`check_replay_matches`] fails the run if they ever drift.
fn sweep_of(name: &str, opts: &Options) -> Option<(&'static str, Backend)> {
    use AlgorithmKind::Beb;
    let windowed = Backend::Windowed(WindowedConfig::abstract_model(Beb));
    Some(match name {
        "fig3" | "fig6" | "fig7" | "fig9" | "fig11" | "fig12" => {
            ("mac-64", Backend::Mac(MacConfig::paper(Beb, 64)))
        }
        "fig4" | "fig8" | "fig10" => ("mac-1024", Backend::Mac(MacConfig::paper(Beb, 1024))),
        "fig5" => ("fig5", windowed),
        "fig15" | "fig16" => ("fig15-16", windowed),
        "scale" => ("scale", windowed),
        "dynamic" => (
            "dynamic",
            Backend::Dynamic(DynamicConfig {
                axis: DynAxis::CostPreset { payload_bytes: 64 },
                ..DynamicConfig::abstract_model(
                    Beb,
                    ArrivalProcess::PoissonBursts {
                        rate: if opts.full { 0.000_5 } else { 0.000_8 },
                        size: 60,
                    },
                )
            }),
        ),
        "saturation" => {
            let (horizon, drain) = if opts.full {
                (60_000, 60_000)
            } else {
                (12_000, 12_000)
            };
            (
                "saturation",
                Backend::Dynamic(DynamicConfig {
                    axis: DynAxis::LoadPerMille,
                    horizon_slots: horizon,
                    drain_slots: drain,
                    ..DynamicConfig::mac_costs(
                        Beb,
                        ArrivalProcess::PoissonSingles { rate: 0.001 },
                        64,
                    )
                }),
            )
        }
        _ => return None,
    })
}

/// Smoke-size probe figures for the layers a workload's grids never reach.
fn probe_steps(workload: &[Step]) -> Vec<Step> {
    let kernels: Vec<Kernel> = workload
        .iter()
        .filter_map(|s| sweep_of(s.name, &s.opts).map(|(_, b)| b.layer()))
        .collect();
    let mut tags: Vec<&str> = workload
        .iter()
        .filter_map(|s| sweep_of(s.name, &s.opts).map(|(t, _)| t))
        .collect();
    let repeats = tags.len();
    tags.sort_unstable();
    tags.dedup();
    let mut names = Vec::new();
    // fig3 then fig6: the MAC kernel, and a figure re-running a sweep.
    if !kernels.contains(&Kernel::Mac) || tags.len() == repeats {
        names.extend(["fig3", "fig6"]);
    }
    if !kernels.contains(&Kernel::Windowed) {
        names.push("fig5");
    }
    if !kernels.contains(&Kernel::Dynamic) {
        names.push("dynamic");
    }
    names
        .into_iter()
        .map(|name| Step {
            name,
            opts: Options {
                trials: Some(2),
                ..quick_opts()
            },
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Pipeline replay.
// ---------------------------------------------------------------------------

/// One distinct sweep met during the replay, with the cells it folded.
struct SweepRun {
    /// `repro` name of the first figure that ran it.
    entry: ShardableEntry,
    tag: &'static str,
    backend: Backend,
    opts: Options,
    grid: GridMeta,
    cells: Vec<StatsCell>,
    probe: bool,
}

/// A finished figure: its report, plus its cells when it split.
struct Done {
    name: &'static str,
    opts: Options,
    report: Report,
    cells: Option<Vec<StatsCell>>,
    probe: bool,
}

#[derive(Default)]
struct PipelineTotals {
    wall_s: f64,
    /// Time in figures whose sweep an earlier figure of the replay ran.
    repeated_sweep_s: f64,
}

/// Replays `steps`, writing artifacts into `dir`.
fn replay(
    tracer: &mut Tracer,
    steps: &[Step],
    probe: bool,
    dir: &Path,
    sweeps: &mut Vec<SweepRun>,
    done: &mut Vec<Done>,
) -> Result<PipelineTotals, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut totals = PipelineTotals::default();
    let root = tracer.begin(
        "experiments.cli",
        if probe { "probe replay" } else { "replay" },
        None,
    );
    for step in steps {
        let figure = tracer.begin("experiments.figures", step.name, Some(root));
        let split = find_shardable(step.name).zip(sweep_of(step.name, &step.opts));
        let (report, cells) = match split {
            Some((entry, (tag, backend))) => {
                let (cells, _) =
                    tracer.time("sim.engine", "run_fold_monitored", Some(figure), || {
                        (entry.cells)(&step.opts, &SweepHooks::none())
                    });
                let (report, _) =
                    tracer.time("experiments.figures", "report", Some(figure), || {
                        (entry.report)(&step.opts, &cells)
                    });
                let seen = sweeps.iter().any(|s| s.tag == tag && s.probe == probe);
                if !seen {
                    sweeps.push(SweepRun {
                        entry,
                        tag,
                        backend,
                        opts: step.opts.clone(),
                        grid: (entry.grid)(&step.opts),
                        cells: cells.clone(),
                        probe,
                    });
                }
                (report, Some((cells, seen)))
            }
            None => {
                let (_, _, runner) = registry()
                    .into_iter()
                    .find(|(name, _, _)| *name == step.name)
                    .ok_or_else(|| format!("{} is not a registered experiment", step.name))?;
                let (report, _) = tracer.time("experiments.figures", "run", Some(figure), || {
                    runner(&step.opts)
                });
                (report, None)
            }
        };
        let (written, _) = tracer.time("artifact", "write_csv+write_json", Some(figure), || {
            write_artifacts(&report, dir)
        });
        written?;
        let figure_s = tracer.end(figure, 0.0);
        let repeated = cells.as_ref().is_some_and(|(_, seen)| *seen);
        if repeated {
            totals.repeated_sweep_s += figure_s;
        }
        done.push(Done {
            name: step.name,
            opts: step.opts.clone(),
            report,
            cells: cells.map(|(c, _)| c),
            probe,
        });
    }
    totals.wall_s = tracer.end(root, 0.0);
    Ok(totals)
}

fn write_artifacts(report: &Report, dir: &Path) -> Result<(), String> {
    report.write_csv(dir)?;
    report.write_json(dir)
}

/// Fails when the tracer's restated sweep (tag + config) would not
/// reproduce the program's: trial 0 of the first cell, run through
/// `run_trial_with` under the program's tag, must equal what the figure's
/// own sweep recorded, bit for bit.
fn check_replay_matches(sweep: &SweepRun) -> Result<(), String> {
    fn first_trial<S: Simulator>(
        tag: &str,
        config: &S::Config,
        alg: AlgorithmKind,
        n: u32,
    ) -> TrialSummary
    where
        TrialSummary: From<S::Output>,
    {
        let config = S::with_algorithm(config, alg);
        TrialSummary::from(run_trial_with::<S>(
            tag,
            &config,
            n,
            0,
            &mut S::Scratch::default(),
        ))
    }
    let cell = sweep.cells.first().ok_or("sweep folded no cells")?;
    let (alg, n) = (cell.algorithm, cell.n);
    let summary = match sweep.backend {
        Backend::Mac(c) => first_trial::<MacSim>(sweep.tag, &c, alg, n),
        Backend::Windowed(c) => first_trial::<WindowedSim>(sweep.tag, &c, alg, n),
        Backend::Dynamic(c) => first_trial::<DynamicSim>(sweep.tag, &c, alg, n),
    };
    for (metric, sample) in sweep.grid.metrics.iter().zip(cell.acc.raw_samples()) {
        let (want, got) = (sample.raw()[0], metric.extract(&summary));
        if want.to_bits() != got.to_bits() {
            return Err(format!(
                "{}: replayed {} trial diverges from the program's sweep \
                 ({metric:?}: {got} vs {want}) — update sweep_of",
                sweep.entry.name, sweep.tag
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Layer passes.
// ---------------------------------------------------------------------------

/// What one layer pass measured.
#[derive(Default)]
struct Pass {
    rng_ns_per_word: f64,
    /// Per kernel: bare busy seconds and simulated work.
    busy_s: BTreeMap<Kernel, f64>,
    work: BTreeMap<Kernel, f64>,
    /// Workload (non-probe) sweeps only: bare busy, 1-thread and 2-thread
    /// `run_fold_monitored` wall.
    bare_s: f64,
    one_thread_s: f64,
    two_thread_s: f64,
    report_s: f64,
    write_s: f64,
    artifact_bytes: f64,
    encode_s: f64,
    parse_s: f64,
    merge_s: f64,
}

/// The experiment tag layer passes use: the program's tag with the
/// benchmark seed mixed in.
fn seeded_tag(tag: &str, seed: u64) -> &'static str {
    Box::leak(format!("{tag}#seed{seed}").into_boxed_str())
}

fn rng_floor(tracer: &mut Tracer, parent: usize, seed: u64, pass: u32) -> f64 {
    let span = tracer.begin("core.rng", "trial_rng+next_u64", Some(parent));
    let started = Instant::now();
    let mut rng = trial_rng(
        experiment_tag(seeded_tag("rng", seed)),
        AlgorithmKind::Beb,
        1000,
        pass,
    );
    let mut acc = 0u64;
    for _ in 0..RNG_WORDS {
        acc ^= rng.next_u64();
    }
    black_box(acc);
    let elapsed = started.elapsed().as_secs_f64();
    tracer.end(span, RNG_WORDS as f64);
    elapsed * 1e9 / RNG_WORDS as f64
}

/// One sweep's kernel + engine measurements within a pass.
struct SweepTimes {
    bare_s: f64,
    work: f64,
    one_thread_s: f64,
    two_thread_s: f64,
}

fn time_sweep<S: Simulator>(
    tracer: &mut Tracer,
    parent: usize,
    kernel: Kernel,
    tag: &'static str,
    config: S::Config,
    grid: &GridMeta,
    trial_s: &mut Vec<f64>,
) -> SweepTimes
where
    TrialSummary: From<S::Output>,
{
    let mut scratch = S::Scratch::default();
    let (mut bare_s, mut work) = (0.0, 0.0);
    for &alg in &grid.algorithms {
        let cell_config = S::with_algorithm(&config, alg);
        for &n in &grid.ns {
            for trial in 0..grid.trials {
                let span = tracer.begin(kernel.layer(), "run_trial_with", Some(parent));
                let started = Instant::now();
                let out = run_trial_with::<S>(tag, &cell_config, n, trial, &mut scratch);
                let dt = started.elapsed().as_secs_f64();
                let units = kernel.work(&TrialSummary::from(black_box(out)));
                tracer.end(span, units);
                trial_s.push(dt);
                bare_s += dt;
                work += units;
            }
        }
    }
    let costs = grid.cell_trial_costs();
    let mut engine = |threads: usize| {
        let sweep = Sweep::<S> {
            experiment: tag,
            config: config.clone(),
            algorithms: grid.algorithms.clone(),
            ns: grid.ns.clone(),
            trials: grid.trials,
            exec: ExecPolicy::threads(threads),
        };
        let (cells, wall) = tracer.time(
            "sim.engine",
            format!("run_fold_monitored threads={threads}"),
            Some(parent),
            || {
                sweep.run_fold_monitored(
                    MetricStats::collector(&grid.metrics),
                    None,
                    None,
                    Some(&costs),
                )
            },
        );
        black_box(cells);
        wall
    };
    let one_thread_s = engine(1);
    let two_thread_s = engine(2);
    SweepTimes {
        bare_s,
        work,
        one_thread_s,
        two_thread_s,
    }
}

/// Cuts a complete state into the coordinator's lease-sized states
/// (`TrialRange::partition` over the missing-work plan, as `repro serve`
/// does), each tagged as its own shard so `merge_states` accepts the set.
fn lease_states(full: &ShardState) -> Result<Vec<ShardState>, String> {
    let empty = ShardState {
        cells: Vec::new(),
        ..full.clone()
    };
    let plan = missing_work(&empty)?;
    let leases = TrialRange::partition(&plan, &full.grid.cell_trial_costs(), DEFAULT_LEASES);
    let of = leases.len() as u32;
    let ns = full.grid.ns.len();
    Ok(leases
        .iter()
        .enumerate()
        .map(|(i, lease)| {
            let mut cells: Vec<ShardCell> = Vec::new();
            for range in lease {
                let src = &full.cells[range.cell];
                debug_assert_eq!(
                    (src.algorithm, src.n),
                    (
                        full.grid.algorithms[range.cell / ns],
                        full.grid.ns[range.cell % ns]
                    )
                );
                let pos = match cells
                    .iter()
                    .position(|c| c.algorithm == src.algorithm && c.n == src.n)
                {
                    Some(pos) => pos,
                    None => {
                        cells.push(ShardCell {
                            algorithm: src.algorithm,
                            n: src.n,
                            samples: vec![vec![f64::NAN; src.samples[0].len()]; src.samples.len()],
                        });
                        cells.len() - 1
                    }
                };
                for (dst, from) in cells[pos].samples.iter_mut().zip(&src.samples) {
                    let (lo, hi) = (range.lo as usize, range.hi as usize);
                    dst[lo..hi].copy_from_slice(&from[lo..hi]);
                }
            }
            ShardState {
                shard: (i as u32, of),
                cells,
                ..full.clone()
            }
        })
        .collect())
}

/// Encodes, parses and merges one sweep's lease-sized states; checks that
/// the merge reassembles the complete state exactly.
fn artifact_layer(
    tracer: &mut Tracer,
    parent: usize,
    sweep: &SweepRun,
    pass: &mut Pass,
) -> Result<(), String> {
    let full = ShardState::from_cells(
        sweep.entry.name,
        sweep.opts.full,
        (0, 1),
        &sweep.grid,
        &sweep.cells,
    );
    let leases = lease_states(&full)?;
    let (texts, encode_s) = tracer.time("artifact", "ShardState::to_json", Some(parent), || {
        leases.iter().map(ShardState::to_json).collect::<Vec<_>>()
    });
    let (parsed, parse_s) = tracer.time("artifact", "ShardState::parse", Some(parent), || {
        texts
            .iter()
            .map(|t| ShardState::parse(t))
            .collect::<Result<Vec<_>, _>>()
    });
    let (merged, merge_s) = tracer.time("artifact", "merge_states", Some(parent), || {
        merge_states(parsed?)
    });
    if merged?.to_json() != full.to_json() {
        return Err(format!(
            "{}: lease-sized states did not merge back to the complete state",
            sweep.entry.name
        ));
    }
    pass.artifact_bytes += texts.iter().map(String::len).sum::<usize>() as f64;
    pass.encode_s += encode_s;
    pass.parse_s += parse_s;
    pass.merge_s += merge_s;
    Ok(())
}

fn layer_pass(
    tracer: &mut Tracer,
    index: u32,
    seed: u64,
    sweeps: &[SweepRun],
    done: &[Done],
    rewrite_dir: &Path,
    trial_s: &mut BTreeMap<Kernel, Vec<f64>>,
) -> Result<Pass, String> {
    let root = tracer.begin("perfbench", format!("layer pass {index}"), None);
    let mut pass = Pass {
        rng_ns_per_word: rng_floor(tracer, root, seed, index),
        ..Pass::default()
    };
    for sweep in sweeps {
        let kernel = sweep.backend.layer();
        let tag = seeded_tag(sweep.tag, seed);
        let parent = tracer.begin("sim.engine", format!("sweep {}", sweep.tag), Some(root));
        let samples = trial_s.entry(kernel).or_default();
        let times = match sweep.backend {
            Backend::Mac(c) => {
                time_sweep::<MacSim>(tracer, parent, kernel, tag, c, &sweep.grid, samples)
            }
            Backend::Windowed(c) => {
                time_sweep::<WindowedSim>(tracer, parent, kernel, tag, c, &sweep.grid, samples)
            }
            Backend::Dynamic(c) => {
                time_sweep::<DynamicSim>(tracer, parent, kernel, tag, c, &sweep.grid, samples)
            }
        };
        *pass.busy_s.entry(kernel).or_default() += times.bare_s;
        *pass.work.entry(kernel).or_default() += times.work;
        if !sweep.probe {
            pass.bare_s += times.bare_s;
            pass.one_thread_s += times.one_thread_s;
            pass.two_thread_s += times.two_thread_s;
            artifact_layer(tracer, parent, sweep, &mut pass)?;
        }
        tracer.end(parent, times.work);
    }
    std::fs::create_dir_all(rewrite_dir)
        .map_err(|e| format!("cannot create {}: {e}", rewrite_dir.display()))?;
    for figure in done.iter().filter(|d| !d.probe) {
        if let (Some(cells), Some(entry)) = (&figure.cells, find_shardable(figure.name)) {
            let (report, report_s) =
                tracer.time("experiments.figures", "report", Some(root), || {
                    (entry.report)(&figure.opts, cells)
                });
            if report.body != figure.report.body {
                return Err(format!(
                    "{}: report half is not a pure function of its cells",
                    figure.name
                ));
            }
            pass.report_s += report_s;
        }
        let (written, write_s) =
            tracer.time("artifact", "write_csv+write_json", Some(root), || {
                write_artifacts(&figure.report, rewrite_dir)
            });
        written?;
        pass.write_s += write_s;
    }
    tracer.end(root, 0.0);
    Ok(pass)
}

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile (sorts in place); 0 for an empty slice.
fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

fn per_pass(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&mut passes.iter().map(f).collect::<Vec<_>>())
}

fn metrics(
    passes: &[Pass],
    trial_s: &mut BTreeMap<Kernel, Vec<f64>>,
    pipeline: &PipelineTotals,
    probe: &PipelineTotals,
) -> Vec<(&'static str, f64, &'static str)> {
    let mut out = vec![(
        "rng.ns_per_word",
        per_pass(passes, |p| p.rng_ns_per_word),
        "ns",
    )];
    for kernel in Kernel::ALL {
        let samples = trial_s.entry(kernel).or_default();
        let busy: f64 = passes
            .iter()
            .map(|p| p.busy_s.get(&kernel).copied().unwrap_or(0.0))
            .sum();
        let work: f64 = passes
            .iter()
            .map(|p| p.work.get(&kernel).copied().unwrap_or(0.0))
            .sum();
        let per_work_ns = if work > 0.0 { busy * 1e9 / work } else { 0.0 };
        let pass_busy = per_pass(passes, |p| p.busy_s.get(&kernel).copied().unwrap_or(0.0));
        let (p50, p99) = (quantile(samples, 0.5), quantile(samples, 0.99));
        match kernel {
            Kernel::Windowed => out.extend([
                ("windowed.trial_ms_p50", p50 * 1e3, "ms"),
                ("windowed.trial_ms_p99", p99 * 1e3, "ms"),
                ("windowed.ns_per_cw_slot", per_work_ns, "ns"),
                ("windowed.busy_s", pass_busy, "s"),
            ]),
            Kernel::Mac => out.extend([
                ("mac.trial_us_p50", p50 * 1e6, "us"),
                ("mac.trial_us_p99", p99 * 1e6, "us"),
                ("mac.ns_per_sim_us", per_work_ns, "ns"),
                ("mac.busy_s", pass_busy, "s"),
            ]),
            Kernel::Dynamic => out.extend([
                ("dynamic.trial_ms_p50", p50 * 1e3, "ms"),
                ("dynamic.trial_ms_p99", p99 * 1e3, "ms"),
                ("dynamic.ns_per_offered_pkt", per_work_ns, "ns"),
                ("dynamic.busy_s", pass_busy, "s"),
            ]),
        }
    }
    let repeated = if pipeline.repeated_sweep_s > 0.0 {
        pipeline.repeated_sweep_s
    } else {
        probe.repeated_sweep_s
    };
    out.extend([
        (
            "sweep.overhead_ratio",
            per_pass(passes, |p| p.one_thread_s / p.bare_s),
            "ratio",
        ),
        (
            "sweep.utilization_2t",
            per_pass(passes, |p| p.bare_s / (2.0 * p.two_thread_s)),
            "ratio",
        ),
        ("report.ms", per_pass(passes, |p| p.report_s) * 1e3, "ms"),
        ("figures.repeated_sweep_s", repeated, "s"),
        (
            "artifact.bytes",
            per_pass(passes, |p| p.artifact_bytes),
            "bytes",
        ),
        (
            "artifact.encode_ms",
            per_pass(passes, |p| p.encode_s) * 1e3,
            "ms",
        ),
        (
            "artifact.parse_ms",
            per_pass(passes, |p| p.parse_s) * 1e3,
            "ms",
        ),
        (
            "artifact.merge_ms",
            per_pass(passes, |p| p.merge_s) * 1e3,
            "ms",
        ),
        (
            "artifact.write_ms",
            per_pass(passes, |p| p.write_s) * 1e3,
            "ms",
        ),
    ]);
    out
}

// ---------------------------------------------------------------------------
// Entry point.
// ---------------------------------------------------------------------------

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut out) = (None, 0u64, 1.0f64, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?
            }
            "--out" => out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        out: out.ok_or("--out is required")?,
    })
}

fn run(args: &Args) -> Result<String, String> {
    let started = Instant::now();
    let steps = workload_steps(&args.workload)?;
    let probes = probe_steps(&steps);
    let mut tracer = Tracer::new();
    let (mut sweeps, mut done) = (Vec::new(), Vec::new());
    let pipeline = replay(
        &mut tracer,
        &steps,
        false,
        &args.out.join("artifacts"),
        &mut sweeps,
        &mut done,
    )?;
    let probe = replay(
        &mut tracer,
        &probes,
        true,
        &args.out.join("probe-artifacts"),
        &mut sweeps,
        &mut done,
    )?;
    for sweep in &sweeps {
        check_replay_matches(sweep)?;
    }
    let mut passes = Vec::new();
    let mut trial_s = BTreeMap::new();
    while passes.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        passes.push(layer_pass(
            &mut tracer,
            passes.len() as u32,
            args.seed,
            &sweeps,
            &done,
            &args.out.join("rewrite"),
            &mut trial_s,
        )?);
    }
    tracer.write_jsonl(&args.out.join("spans.jsonl"))?;

    let mut text = format!(
        "{{\"replay_wall_s\":{},\"passes\":{},\"spans\":{},\"trial_samples\":{{",
        num(pipeline.wall_s),
        passes.len(),
        tracer.spans.len()
    );
    let counts: Vec<String> = Kernel::ALL
        .iter()
        .map(|k| {
            format!(
                "{}:{}",
                json_str(k.layer()),
                trial_s.get(k).map_or(0, Vec::len)
            )
        })
        .collect();
    text.push_str(&counts.join(","));
    text.push_str("},\"metrics\":{");
    let rendered: Vec<String> = metrics(&passes, &mut trial_s, &pipeline, &probe)
        .into_iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                num(value),
                json_str(unit)
            )
        })
        .collect();
    text.push_str(&rendered.join(","));
    text.push_str("}}");
    Ok(text)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number (non-finite values cannot occur in a sound run and
/// are reported as 0 rather than emitting invalid JSON).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn main() -> std::process::ExitCode {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(line) => {
            println!("{line}");
            std::process::ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}
