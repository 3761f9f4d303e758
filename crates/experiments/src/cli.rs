//! The `repro` command-line interface.
//!
//! Each mode takes the flags of its row in the mode table of `options.rs`,
//! which `repro --help` prints as the mode's usage line (pinned by
//! `tests/golden/repro_help.txt`); any other flag is refused as
//! ``{flag} does not apply to `{sub}` `` before anything runs. `--json` and
//! the `--checkpoint*` flags need `--out` wherever the mode takes it
//! (`resume DIR` writes into `DIR`).
//!
//! Every mode is one pipeline, **plan → execute → fold → report**; the
//! modes differ only in which steps run in this process:
//!
//! | mode | plan | execute | fold | report |
//! |---|---|---|---|---|
//! | direct / `all` | whole grid | here | in the engine | here |
//! | `--checkpoint` | every trial | here, checkpointed | checkpoint ∪ run | here |
//! | `resume` | the checkpoint's holes | here, checkpointed | checkpoint ∪ run | here |
//! | `shard` | one lease of `serve`'s cut | here | — | writes `shard_state/v1` |
//! | `merge` | — | — | the artifacts | here |
//! | `serve` | the missing trials, cut into leases | by `work` processes | master ∪ each POST | here |
//! | `work` | its lease | here | — | POSTs `shard_state/v1` |
//!
//! A checkpointed run is a resume from no cells: per-trial RNG streams make
//! a trial's bits independent of the plan it runs in, so every mode reports
//! the direct run's bytes. Every mode plans and reports on the engine's
//! folded cells, whose holes one walk finds
//! ([`GridMeta::holes`](crate::shard::GridMeta::holes)); a `shard_state/v1`
//! artifact is built only where cells cross a file or a socket. `all` runs
//! each sweep that several experiments fold from once for all of them
//! ([`SharedSweeps`]), with the same output, byte for byte, as running the
//! experiments one at a time.
//!
//! Each decision the modes share has one home: `Experiment` (which
//! shardable sweep, under which options; whether an artifact belongs to
//! it; a plan run into an artifact; folded cells into a report),
//! [`merge_cells`](crate::shard::merge_cells) (the fold) and `publish`
//! (the report step). Every mode returns `Result`, and [`run`] is the one
//! place that turns an error into `error: …` and a failing exit code.
//!
//! The actual binary lives in the workspace root package (`src/bin/repro.rs`)
//! so that a plain `cargo run --bin repro` works from the repository root;
//! this module holds all of its logic so it stays unit-testable here.

use crate::aggregate::{MetricStats, StatsCell};
use crate::checkpoint::{self, CheckpointWriter};
use crate::figures::sharding::{find_shardable, shardable_names, ShardableEntry, SharedSweeps};
use crate::figures::shared::SweepHooks;
use crate::figures::{registry, Report};
use crate::options::{self, trial_count, Options, MAX_TRIALS};
use crate::server::{Limits, Server};
use crate::shard::{load_dir, merge_states, write_state, GridMeta, ShardState};
use crate::worker::run_worker;
use contention_sim::engine::{validate_plan, TrialRange};
use contention_sim::monitor::{Monitor, SnapshotCadence};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// Entry point: parses `args` (without the program name) and runs the
/// selected mode. The one place a failure becomes `error: …` on stderr and
/// a failing exit code.
pub fn run(args: &[String]) -> ExitCode {
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        print_usage();
        return ExitCode::SUCCESS;
    }
    match try_run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// [`run`] without its error sink: parses `args` and runs the selected
/// mode. A command line that does not parse writes nothing to stdout: its
/// error ends with a pointer to `repro --help`.
pub fn try_run(args: &[String]) -> Result<(), String> {
    let (sub, opts) =
        Options::parse(args).map_err(|e| format!("{e}\nrun `repro --help` for usage"))?;
    if sub == "list" {
        for (name, desc, _) in registry() {
            println!("{name:<12} {desc}");
        }
        return Ok(());
    }
    // Fail fast on an unusable output directory — before hours of trials,
    // not after them (the late-error pathology `--json` used to have).
    if let Some(dir) = &opts.out_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create --out {}: {e}", dir.display()))?;
    }
    match sub.as_str() {
        "shard" => run_shard(&opts),
        "merge" => run_merge(&opts),
        "resume" => run_resume(&opts),
        "serve" => Server::start(&opts)?.run(),
        "work" => run_worker(&opts),
        _ if opts.checkpoint.is_some() => {
            let exp = Experiment::new(&sub, &opts)
                .map_err(|e| format!("--checkpoint needs one sweep grid to snapshot: {e}"))?;
            let dir = opts.out_dir.as_deref().expect("validated at parse time");
            run_checkpointed(&exp, Vec::new(), dir, &opts)
        }
        _ => run_direct(&sub, &opts),
    }
}

/// `repro <experiment>` and `repro all`: each experiment's registry runner —
/// or, under `all`, its share of a sweep several experiments fold from —
/// straight to its report, in registry order, each as soon as it is done.
fn run_direct(sub: &str, opts: &Options) -> Result<(), String> {
    let entries = registry();
    let selected: Vec<_> = if sub == "all" {
        entries
    } else {
        let entry = entries.into_iter().find(|(name, _, _)| *name == sub);
        vec![entry.ok_or_else(|| format!("unknown experiment {sub:?} (try `repro list`)"))?]
    };
    // `all` runs each sweep several experiments fold from once; a single
    // experiment shares nothing, so its own runner runs it.
    let names: Vec<&str> = selected.iter().map(|(name, _, _)| *name).collect();
    let mut shared = SharedSweeps::plan(&names, opts);
    for &(name, _, runner) in &selected {
        let started = Instant::now();
        let report = shared.report(name).unwrap_or_else(|| runner(opts));
        publish(
            &report,
            &format!("[{name}]"),
            opts.out_dir.as_deref(),
            opts.json,
        )?;
        println!("[{name}] done in {:.1?}\n", started.elapsed());
    }
    if sub == "all" {
        println!(
            "[all] {} experiments run; {} shared sweeps run once each; {} sweep re-runs avoided",
            selected.len(),
            shared.sweeps_run(),
            shared.reruns_avoided()
        );
    }
    Ok(())
}

/// The report step every mode ends in: prints `report` and, given a
/// directory, writes its CSV (and with `json` its JSON) artifacts there,
/// announced as `<prefix> CSVs[ + JSON] written to <dir>`. A report without
/// artifacts announces nothing.
fn publish(report: &Report, prefix: &str, dir: Option<&Path>, json: bool) -> Result<(), String> {
    report.print();
    let Some(dir) = dir.filter(|_| !report.csv.is_empty()) else {
        return Ok(());
    };
    report.write_csv(dir)?;
    if json {
        report.write_json(dir)?;
    }
    println!(
        "{prefix} {} written to {}",
        if json { "CSVs + JSON" } else { "CSVs" },
        dir.display()
    );
    Ok(())
}

/// One shardable experiment's sweep under one set of grid options: what the
/// checkpointed, `resume`, `shard`, `merge`, `serve` and `work` modes plan,
/// execute, fold and report.
pub(crate) struct Experiment {
    pub(crate) entry: ShardableEntry,
    /// `--full` and `--trials` shape the grid; `--threads` only runs it.
    pub(crate) opts: Options,
    pub(crate) grid: GridMeta,
}

impl Experiment {
    /// `name`'s sweep under `opts`; an error lists the shardable names.
    pub(crate) fn new(name: &str, opts: &Options) -> Result<Experiment, String> {
        let entry = find_shardable(name).ok_or_else(|| {
            format!(
                "{name:?} is not a shardable experiment (shardable: {})",
                shardable_names().join(", ")
            )
        })?;
        Ok(Experiment {
            entry,
            grid: (entry.grid)(opts),
            opts: opts.clone(),
        })
    }

    /// The sweep an artifact (a checkpoint, merged shards, a lease)
    /// recorded — its experiment, `--full` and trial count — run with
    /// `opts`' `--threads`, which no result depends on.
    pub(crate) fn recorded(
        name: &str,
        full: bool,
        trials: u32,
        opts: &Options,
    ) -> Result<Experiment, String> {
        let grid_opts = Options {
            full,
            trials: Some(trial_count(trials, "recorded trial count")?),
            threads: opts.threads,
            ..Options::default()
        };
        Experiment::new(name, &grid_opts)
    }

    /// `Ok` when `state` is (part of) this very sweep: the check between a
    /// checkpoint and `resume` or `serve`, and between a POST and the
    /// coordinator's fold.
    pub(crate) fn check(&self, state: &ShardState) -> Result<(), String> {
        if state.experiment == self.entry.name
            && state.full == self.opts.full
            && state.grid == self.grid
        {
            return Ok(());
        }
        Err(format!(
            "artifact of {:?} does not match {:?}'s grid under these options (another \
             build, or other --trials/--full?)",
            state.experiment, self.entry.name
        ))
    }

    /// The execute step, in this process: runs `plan`, with `monitor` on
    /// the engine's snapshot seam, into the folded cells it touched.
    fn execute(
        &self,
        plan: &[TrialRange],
        monitor: Option<Monitor<MetricStats>>,
    ) -> Vec<StatsCell> {
        let hooks = SweepHooks {
            plan: Some(plan),
            monitor,
        };
        (self.entry.cells)(&self.opts, &hooks)
    }

    /// The trials `cells` lack (everything, on a fresh start), cut into at
    /// most `target` cost-weighted leases, heaviest cell first: the leases
    /// `repro serve` hands out, and from no cells the shards `repro shard`
    /// runs.
    pub(crate) fn leases(
        &self,
        cells: &[StatsCell],
        target: usize,
    ) -> Result<Vec<Vec<TrialRange>>, String> {
        let plan = self.grid.holes(cells)?;
        let costs = self.grid.cell_trial_costs();
        Ok(TrialRange::partition(&plan, &costs, target))
    }

    /// `plan` run into shard `shard`'s artifact: what `repro shard` writes
    /// and `repro work` posts.
    pub(crate) fn run_plan(&self, plan: &[TrialRange], shard: (u32, u32)) -> ShardState {
        let cells = self.execute(plan, None);
        ShardState::from_cells(self.entry.name, self.opts.full, shard, &self.grid, &cells)
    }

    /// The report step for folded cells: refuses an incomplete fold, naming
    /// up to 8 cells with holes, and otherwise [`publish`]es the report into
    /// `dir`.
    pub(crate) fn report(
        &self,
        cells: &[StatsCell],
        prefix: &str,
        dir: &Path,
        json: bool,
    ) -> Result<(), String> {
        let (grid, trials) = (&self.grid, self.grid.trials);
        // A cell's ranges are adjacent in the plan.
        let short: Vec<String> = grid
            .holes(cells)?
            .chunk_by(|a, b| a.cell == b.cell)
            .map(|ranges| {
                let cell = ranges[0].cell;
                let (alg, n) = (
                    grid.algorithms[cell / grid.ns.len()],
                    grid.ns[cell % grid.ns.len()],
                );
                match trials - ranges.iter().map(|r| r.hi - r.lo).sum::<u32>() {
                    0 => format!("cell ({alg}, n={n}) missing"),
                    held => format!("cell ({alg}, n={n}): {held} of {trials} trials recorded"),
                }
            })
            .collect();
        if !short.is_empty() {
            return Err(format!(
                "{} is incomplete in {} cells (a shard not merged? a corrupt checkpoint?):\n  {}",
                self.entry.name,
                short.len(),
                short[..short.len().min(8)].join("\n  ")
            ));
        }
        publish(
            &(self.entry.report)(&self.opts, cells),
            prefix,
            Some(dir),
            json,
        )
    }
}

/// The newest checkpoint under `dir` and its sequence number, or `None`
/// when there is none — where `resume` and a restarted `serve` start.
/// Recovery that stepped over torn checkpoints still works, but never
/// silently: each one skipped is printed as a warning.
pub(crate) fn load_checkpoint(dir: &Path) -> Result<Option<(ShardState, u64)>, String> {
    let Some(loaded) = checkpoint::load_latest(dir)? else {
        return Ok(None);
    };
    for warning in &loaded.warnings {
        eprintln!("warning: {warning}");
    }
    Ok(Some((loaded.state, loaded.seq)))
}

/// How often a checkpointed run snapshots when no cadence flag says.
const DEFAULT_CHECKPOINT_SECS: u64 = 30;

/// The cadence a checkpointed run snapshots on: the flags' own, or every
/// [`DEFAULT_CHECKPOINT_SECS`] under a bare `--checkpoint` and a plain
/// `repro resume DIR`, which set neither axis.
fn cadence(flags: Option<SnapshotCadence>) -> SnapshotCadence {
    flags
        .filter(|cadence| *cadence != SnapshotCadence::default())
        .unwrap_or(SnapshotCadence::secs(DEFAULT_CHECKPOINT_SECS))
}

/// `repro <experiment> --checkpoint… --out DIR` and `repro resume DIR`:
/// runs the trials `base` lacks (everything, on a fresh run, which passes
/// no cells) with a [`CheckpointWriter`] on the snapshot seam, folds them
/// over `base`, and reports into `dir` — byte-identical to an uninterrupted
/// run, because per-trial RNG streams are position-addressed.
fn run_checkpointed(
    exp: &Experiment,
    base: Vec<StatsCell>,
    dir: &Path,
    opts: &Options,
) -> Result<(), String> {
    let started = Instant::now();
    let plan = exp.grid.holes(&base)?;
    validate_plan(&plan, exp.grid.cell_count(), exp.grid.trials)?;
    // The writer folds `base` into every checkpoint, so a second
    // interruption still loses nothing.
    let writer = CheckpointWriter::new(dir, exp.entry.name, exp.opts.full, exp.grid.clone())?
        .with_base(base);
    let cadence = cadence(opts.checkpoint);
    let sink = |snap| writer.snapshot(snap);
    let cells = writer.fold(exp.execute(&plan, Some((cadence, &sink))))?;
    let name = exp.entry.name;
    exp.report(&cells, &format!("[{name}]"), dir, opts.json)?;
    println!("[{name}] done in {:.1?}\n", started.elapsed());
    Ok(())
}

/// `repro resume DIR [--json]`: continues the checkpointed run in `DIR`
/// from its newest valid checkpoint, running only the missing trials.
fn run_resume(opts: &Options) -> Result<(), String> {
    let dir = Path::new(&opts.inputs[0]);
    let (state, seq) = load_checkpoint(dir)?.ok_or_else(|| {
        format!(
            "no checkpoint in {} — was this run started with --checkpoint?",
            dir.join(checkpoint::CHECKPOINT_DIR).display()
        )
    })?;
    let exp = Experiment::recorded(&state.experiment, state.full, state.grid.trials, opts)?;
    exp.check(&state)?;
    let cells = state.into_cells();
    let missing: usize = exp.grid.holes(&cells)?.iter().map(TrialRange::len).sum();
    let total = exp.grid.cell_count() * exp.grid.trials as usize;
    println!(
        "[resume] {} from checkpoint seq {seq}: {} of {total} trials recorded, {missing} to run",
        exp.entry.name,
        total - missing
    );
    run_checkpointed(&exp, cells, dir, opts)
}

/// `repro shard <experiment> --shard i/N --out DIR`: runs lease `i` of the
/// `N`-way cut `repro serve --leases N` makes and writes the partial-state
/// artifact. A cut of fewer trials than `N` leaves the last shards empty.
/// Every shard of one run must come from one build: another build may cut
/// other leases, and `merge` refuses the overlap or reports the hole.
fn run_shard(opts: &Options) -> Result<(), String> {
    let exp = Experiment::new(&opts.inputs[0], opts)?;
    let (index, of) = opts.shard.expect("validated at parse time");
    let leases = exp.leases(&[], of as usize)?;
    let plan = leases.into_iter().nth(index as usize).unwrap_or_default();
    let started = Instant::now();
    let state = exp.run_plan(&plan, (index, of));
    let path = write_state(
        opts.out_dir.as_deref().expect("validated at parse time"),
        &state,
    )?;
    println!(
        "[shard] {} shard {index}/{of}: {} trials across {} cells → {} in {:.1?}",
        exp.entry.name,
        plan.iter().map(TrialRange::len).sum::<usize>(),
        state.cells.len(),
        path.display(),
        started.elapsed()
    );
    Ok(())
}

/// `repro merge DIR... --out DIR [--json]`: folds every shard artifact in
/// the given directories and reports exactly as a single-process
/// `repro <experiment> --out DIR` would.
fn run_merge(opts: &Options) -> Result<(), String> {
    let mut states = Vec::new();
    for dir in &opts.inputs {
        states.extend(load_dir(Path::new(dir))?);
    }
    let count = states.len();
    let merged = merge_states(states)?;
    let exp = Experiment::recorded(&merged.experiment, merged.full, merged.grid.trials, opts)?;
    exp.check(&merged)?;
    let dir = opts.out_dir.as_deref().expect("validated at parse time");
    let prefix = format!("[merge] {count} artifacts → {}", exp.entry.name);
    exp.report(&merged.into_cells(), &prefix, dir, opts.json)
}

/// Entry point over the process arguments.
pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    run(&args)
}

fn print_usage() {
    println!("usage:");
    print!("{}", options::usage());
    println!();
    println!("  --full      use the paper's grids (minutes) instead of quick ones (seconds);");
    println!("              prints trials-completed progress + ETA to stderr when it is a TTY");
    println!("  --trials N  override the trial count (1 to {MAX_TRIALS})");
    println!("  --out DIR   also write CSV series to DIR");
    println!("  --json      also write JSON artifacts to DIR (needs --out)");
    println!("  --threads N worker threads (default: all cores; results never depend on it)");
    println!("  --shard i/N run only lease i of the N that `serve --leases N` cuts (merged,");
    println!("              the shards of one build give the one-process output)");
    println!("  --checkpoint           snapshot in-flight state into DIR/checkpoints/ and");
    println!(
        "                         refresh DIR/metrics.json (default: every {DEFAULT_CHECKPOINT_SECS} s)"
    );
    println!("  --checkpoint-secs N    snapshot every N seconds (implies --checkpoint)");
    println!("  --checkpoint-trials N  snapshot every N completed trials (implies it too;");
    println!("                         resumed reports are byte-identical to uninterrupted)");
    let limits = Limits::of(&Options::default());
    let (port, leases) = (limits.port, limits.leases);
    let (ttl, linger) = (limits.lease_ttl.as_secs(), limits.linger.as_secs());
    println!("  --port P        listen port (default {port}; 0 = ephemeral)");
    println!("  --leases N      cut the sweep into N cost-weighted leases (default {leases})");
    println!("  --lease-secs S  re-issue a lease not completed within S s (default {ttl})");
    println!("  --linger-secs S answer `done` for S s after completion (default {linger})");
    println!("  --connect H:P   the coordinator to pull leases from");
    println!();
    println!("experiments:");
    for (name, desc, _) in registry() {
        println!("  {name:<12} {desc}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_experiment_fails() {
        assert_eq!(run(&strs(&["no-such-figure"])), ExitCode::FAILURE);
    }

    #[test]
    fn bad_flag_fails() {
        assert_eq!(run(&strs(&["fig3", "--bogus"])), ExitCode::FAILURE);
        assert_eq!(run(&strs(&["fig5", "--batch", "8"])), ExitCode::FAILURE);
    }

    #[test]
    fn zero_trials_fail_cleanly_instead_of_panicking() {
        assert_eq!(run(&strs(&["fig5", "--trials", "0"])), ExitCode::FAILURE);
        assert_eq!(run(&strs(&["fig5", "--threads", "0"])), ExitCode::FAILURE);
    }

    #[test]
    fn list_and_help_succeed() {
        assert_eq!(run(&strs(&["list"])), ExitCode::SUCCESS);
        assert_eq!(run(&strs(&["--help"])), ExitCode::SUCCESS);
        assert_eq!(run(&[]), ExitCode::SUCCESS);
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("repro-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn shard_rejects_unshardable_experiments() {
        let out = temp_dir("unshardable");
        // fig13 is a single deterministic trace — registered, but not in
        // the shardable registry.
        assert_eq!(
            run(&strs(&[
                "shard",
                "fig13",
                "--shard",
                "0/2",
                "--out",
                out.to_str().unwrap()
            ])),
            ExitCode::FAILURE
        );
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn merge_rejects_empty_and_incomplete_inputs() {
        let empty = temp_dir("merge-empty");
        std::fs::create_dir_all(&empty).unwrap();
        let out = temp_dir("merge-out");
        // A directory with no artifacts fails cleanly.
        assert_eq!(
            run(&strs(&[
                "merge",
                empty.to_str().unwrap(),
                "--out",
                out.to_str().unwrap()
            ])),
            ExitCode::FAILURE
        );
        // One shard of two merges but is incomplete → clean failure, no
        // report written.
        let shard_dir = temp_dir("merge-partial");
        assert_eq!(
            run(&strs(&[
                "shard",
                "fig5",
                "--trials",
                "2",
                "--threads",
                "2",
                "--shard",
                "0/2",
                "--out",
                shard_dir.to_str().unwrap()
            ])),
            ExitCode::SUCCESS
        );
        assert_eq!(
            run(&strs(&[
                "merge",
                shard_dir.to_str().unwrap(),
                "--out",
                out.to_str().unwrap()
            ])),
            ExitCode::FAILURE
        );
        assert!(!out.join("fig5_cw_slots_abstract.csv").exists());
        for dir in [empty, out, shard_dir] {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// An incomplete fold is refused by name, in grid order: a cell holding
    /// some trials reads `k of T trials recorded`, one holding none
    /// `missing`, and the first 8 are listed.
    #[test]
    fn report_names_the_cells_an_incomplete_fold_lacks() {
        let opts = Options {
            trials: Some(3),
            ..Options::default()
        };
        let exp = Experiment::new("fig5", &opts).unwrap();
        let range = |cell, lo, hi| TrialRange { cell, lo, hi };
        let cells = exp.execute(&[range(0, 0, 2), range(1, 0, 3), range(2, 1, 2)], None);
        let dir = temp_dir("incomplete");
        let err = exp.report(&cells, "[fig5]", &dir, false).unwrap_err();
        let (algorithm, ns) = (exp.grid.algorithms[0], &exp.grid.ns);
        let expected = [
            format!("cell ({algorithm}, n={}): 2 of 3 trials recorded", ns[0]),
            format!("cell ({algorithm}, n={}): 1 of 3 trials recorded", ns[2]),
            format!("cell ({algorithm}, n={}) missing", ns[3]),
        ];
        let head = "fig5 is incomplete in 15 cells (a shard not merged? a corrupt checkpoint?):";
        assert!(
            err.starts_with(&format!("{head}\n  {}", expected.join("\n  "))),
            "{err}"
        );
        assert_eq!(err.lines().count(), 1 + 8, "{err}");
        assert!(!dir.exists());
    }

    /// `repro shard i/N` runs lease `i` of the cut `serve --leases N`
    /// makes; the merged shards reproduce the direct run. With more shards
    /// than trials the cut has fewer leases, and the shards past them write
    /// empty artifacts that still merge.
    #[test]
    fn shard_then_merge_reproduces_the_direct_csv() {
        let direct = temp_dir("direct");
        let flags = ["fig5", "--trials", "2", "--threads", "2"];
        let mut args = flags.to_vec();
        args.extend(["--out", direct.to_str().unwrap()]);
        assert_eq!(run(&strs(&args)), ExitCode::SUCCESS);
        let read = |d: &std::path::Path| {
            std::fs::read_to_string(d.join("fig5_cw_slots_abstract.csv")).unwrap()
        };
        let exp = Experiment::new("fig5", &Options::parse(&strs(&flags)).unwrap().1).unwrap();
        let trials = exp.grid.cell_count() * 2;
        for of in [2, trials + 3] {
            let (merged, shards) = (temp_dir("merged"), temp_dir("shards"));
            for i in 0..of {
                let spec = format!("{i}/{of}");
                let mut args = vec!["shard"];
                args.extend(flags);
                args.extend(["--shard", &spec, "--out", shards.to_str().unwrap()]);
                assert_eq!(run(&strs(&args)), ExitCode::SUCCESS, "shard {spec}");
            }
            let states = load_dir(&shards).unwrap();
            assert_eq!(states.len(), of);
            let empty = states.iter().filter(|s| s.cells.is_empty()).count();
            assert_eq!(empty, of.saturating_sub(trials), "{of} shards");
            assert_eq!(
                run(&strs(&[
                    "merge",
                    shards.to_str().unwrap(),
                    "--out",
                    merged.to_str().unwrap()
                ])),
                ExitCode::SUCCESS
            );
            assert_eq!(read(&direct), read(&merged), "{of} shards diverged");
            for dir in [merged, shards] {
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
        let _ = std::fs::remove_dir_all(&direct);
    }

    /// A bare `--checkpoint` and a plain `resume` snapshot every 30 s, not
    /// only at the end: a run that writes only its final checkpoint is not
    /// crash-safe.
    #[test]
    fn a_checkpoint_without_a_cadence_flag_snapshots_every_30_s() {
        let default = SnapshotCadence::secs(DEFAULT_CHECKPOINT_SECS);
        assert_eq!(DEFAULT_CHECKPOINT_SECS, 30);
        assert_eq!(cadence(None), default);
        assert_eq!(cadence(Some(SnapshotCadence::default())), default);
        for flags in [SnapshotCadence::trials(64), SnapshotCadence::secs(5)] {
            assert_eq!(cadence(Some(flags)), flags);
        }
        let (_, opts) = Options::parse(&strs(&["fig5", "--checkpoint", "--out", "D"])).unwrap();
        assert_eq!(cadence(opts.checkpoint), default);
        let (_, opts) = Options::parse(&strs(&["resume", "D"])).unwrap();
        assert_eq!(cadence(opts.checkpoint), default);
    }

    #[test]
    fn checkpoint_rejects_unshardable_experiments() {
        let out = temp_dir("ckpt-unshardable");
        assert_eq!(
            run(&strs(&[
                "fig13",
                "--checkpoint",
                "--out",
                out.to_str().unwrap()
            ])),
            ExitCode::FAILURE
        );
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn resume_fails_cleanly_without_checkpoints() {
        let dir = temp_dir("resume-none");
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(
            run(&strs(&["resume", dir.to_str().unwrap()])),
            ExitCode::FAILURE
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpointed_run_writes_artifacts_and_resume_of_complete_state_matches() {
        let direct = temp_dir("ckpt-direct");
        let ckpt = temp_dir("ckpt-run");
        assert_eq!(
            run(&strs(&[
                "fig5",
                "--trials",
                "2",
                "--threads",
                "2",
                "--out",
                direct.to_str().unwrap()
            ])),
            ExitCode::SUCCESS
        );
        assert_eq!(
            run(&strs(&[
                "fig5",
                "--trials",
                "2",
                "--threads",
                "2",
                "--checkpoint-trials",
                "1",
                "--out",
                ckpt.to_str().unwrap()
            ])),
            ExitCode::SUCCESS
        );
        let read = |d: &std::path::Path| {
            std::fs::read_to_string(d.join("fig5_cw_slots_abstract.csv")).unwrap()
        };
        assert_eq!(
            read(&direct),
            read(&ckpt),
            "checkpointing changed the results"
        );
        // The live-metrics sidecar reports the finished run.
        let doc = crate::checkpoint::MetricsDoc::parse(
            &std::fs::read_to_string(ckpt.join(crate::checkpoint::METRICS_FILE)).unwrap(),
        )
        .unwrap();
        assert!(doc.finished);
        assert_eq!(doc.trials_done, doc.trials_total);
        // The final checkpoint is complete, so resume has nothing to run —
        // and rebuilds the identical report artifacts from the artifact.
        std::fs::remove_file(ckpt.join("fig5_cw_slots_abstract.csv")).unwrap();
        assert_eq!(
            run(&strs(&["resume", ckpt.to_str().unwrap()])),
            ExitCode::SUCCESS
        );
        assert_eq!(read(&direct), read(&ckpt), "resume rebuild diverged");
        for dir in [direct, ckpt] {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
