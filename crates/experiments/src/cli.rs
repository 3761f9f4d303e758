//! The `repro` command-line interface.
//!
//! ```text
//! repro <experiment|all|list> [--full] [--trials N] [--out DIR] [--json]
//!       [--threads N]
//! repro shard <experiment> --shard i/N --out DIR   # partial-state artifact
//! repro merge DIR... --out DIR [--json]            # recombine + report
//! ```
//!
//! Default grids are laptop-quick; `--full` switches to the paper's grids
//! (and turns on the stderr progress meter when stderr is a TTY). With
//! `--out DIR` each experiment also writes CSV series for plotting;
//! `--json` adds JSON artifacts next to them.
//!
//! `shard`/`merge` split a sweep across processes: each `shard` invocation
//! runs one contiguous cell range of the experiment's grid and writes a
//! `shard_state/v1` artifact; `merge` validates and merges any number of
//! such artifacts and emits the **same reports, byte for byte,** as the
//! single-process run (see `crate::shard`).
//!
//! The actual binary lives in the workspace root package (`src/bin/repro.rs`)
//! so that a plain `cargo run --bin repro` works from the repository root;
//! this module holds all of its logic so it stays unit-testable here.

use crate::checkpoint::{self, CheckpointWriter};
use crate::figures::sharding::{find_shardable, shardable_names};
use crate::figures::shared::SweepHooks;
use crate::figures::{registry, Report};
use crate::options::Options;
use crate::shard::{load_dir, merge_states, write_state, ShardState};
use contention_sim::engine::{validate_plan, CellRange, TrialRange};
use std::path::Path;
use std::process::ExitCode;

/// Entry point: parses `args` (without the program name) and runs the
/// selected experiments.
pub fn run(args: &[String]) -> ExitCode {
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        print_usage();
        return ExitCode::SUCCESS;
    }
    let (sub, opts) = match Options::parse(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            print_usage();
            return ExitCode::FAILURE;
        }
    };
    if sub == "list" {
        for (name, desc, _) in registry() {
            println!("{name:<12} {desc}");
        }
        println!(
            "{:<12} benchmark harness — MAC hot path (BENCH_mac.json)",
            "bench"
        );
        return ExitCode::SUCCESS;
    }
    // Fail fast on an unusable output directory — before hours of trials,
    // not after them (the late-error pathology `--json` used to have).
    if let Some(dir) = &opts.out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create --out {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    if sub == "shard" {
        return run_shard(&opts);
    }
    if sub == "merge" {
        return run_merge(&opts);
    }
    if sub == "resume" {
        return run_resume(&opts);
    }
    if sub == "serve" {
        return match crate::server::Server::serve(&opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if sub == "work" {
        return match crate::worker::run_worker(&opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if sub == "bench" {
        let started = std::time::Instant::now();
        match crate::benchmark::run(&opts) {
            Ok(report) => {
                report.print();
                println!("[bench] done in {:.1?}\n", started.elapsed());
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if opts.checkpoint.is_some() {
        return run_checkpointed(&sub, &opts);
    }

    let entries = registry();
    let selected: Vec<_> = if sub == "all" {
        entries
    } else {
        match entries.into_iter().find(|(name, _, _)| *name == sub) {
            Some(entry) => vec![entry],
            None => {
                eprintln!("error: unknown experiment {sub:?} (try `repro list`)");
                return ExitCode::FAILURE;
            }
        }
    };

    for (name, _, runner) in selected {
        let started = std::time::Instant::now();
        let report: Report = runner(&opts);
        report.print();
        if let Some(dir) = &opts.out_dir {
            if let Err(e) = write_report_artifacts(&report, dir, opts.json) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
            println!(
                "[{}] {} written to {}",
                name,
                if opts.json { "CSVs + JSON" } else { "CSVs" },
                dir.display()
            );
        }
        println!("[{}] done in {:.1?}\n", name, started.elapsed());
    }
    ExitCode::SUCCESS
}

/// Writes a report's CSV (and optionally JSON) artifacts into `dir`.
pub(crate) fn write_report_artifacts(
    report: &Report,
    dir: &Path,
    json: bool,
) -> Result<(), String> {
    report.write_csv(dir)?;
    if json {
        report.write_json(dir)?;
    }
    Ok(())
}

/// `repro <experiment> --checkpoint[-secs/-trials N] --out DIR`: the normal
/// single-experiment run, with a [`CheckpointWriter`] attached to the
/// engine's snapshot seam. Requires a shardable experiment — checkpoints
/// ride the same split cells/report pipeline and `shard_state/v1` artifact
/// as `repro shard`.
fn run_checkpointed(sub: &str, opts: &Options) -> ExitCode {
    let Some(entry) = find_shardable(sub) else {
        eprintln!(
            "error: --checkpoint needs a shardable experiment (one sweep grid to \
             snapshot); {sub:?} is not (shardable: {})",
            shardable_names().join(", ")
        );
        return ExitCode::FAILURE;
    };
    let dir = opts.out_dir.as_deref().expect("validated at parse time");
    let cadence = opts.checkpoint.expect("checkpointed run").cadence();
    let grid = (entry.grid)(opts);
    let writer = match CheckpointWriter::new(dir, entry.name, opts.full, grid) {
        Ok(writer) => writer,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let started = std::time::Instant::now();
    let hooks = SweepHooks {
        monitor: Some((cadence, &writer)),
        ..SweepHooks::default()
    };
    let cells = (entry.cells)(opts, &hooks);
    let report = (entry.report)(opts, &cells);
    report.print();
    if let Err(e) = write_report_artifacts(&report, dir, opts.json) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "[{}] {} + checkpoints written to {}",
        entry.name,
        if opts.json { "CSVs + JSON" } else { "CSVs" },
        dir.display()
    );
    println!("[{}] done in {:.1?}\n", entry.name, started.elapsed());
    ExitCode::SUCCESS
}

/// `repro resume DIR [--json]`: loads the newest valid checkpoint under
/// `DIR/checkpoints/`, runs only the trials it is missing (per-trial RNG is
/// position-addressed, so those trials are bit-identical to what the
/// interrupted run would have produced), merges, and emits the experiment's
/// reports into `DIR` — byte-identical to an uninterrupted run.
fn run_resume(opts: &Options) -> ExitCode {
    let dir = Path::new(&opts.inputs[0]);
    let loaded = match checkpoint::load_latest(dir) {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Recovery that stepped over damage (a dangling `latest` pointer, torn
    // artifacts) still works — but never silently.
    for warning in &loaded.warnings {
        eprintln!("warning: {warning}");
    }
    let (state, seq) = (loaded.state, loaded.seq);
    let Some(entry) = find_shardable(&state.experiment) else {
        eprintln!(
            "error: checkpoint names unknown experiment {:?}",
            state.experiment
        );
        return ExitCode::FAILURE;
    };
    // Rebuild the grid-shaping options of the original run; the execution
    // knob (--threads) may differ freely — results are independent of it.
    let run_opts = Options {
        full: state.full,
        trials: Some(state.grid.trials),
        threads: opts.threads,
        ..Options::default()
    };
    let grid = (entry.grid)(&run_opts);
    if grid != state.grid {
        eprintln!(
            "error: checkpoint grid does not match {:?}'s current grid \
             (artifact from a different build?)",
            state.experiment
        );
        return ExitCode::FAILURE;
    }
    let plan = match checkpoint::missing_work(&state)
        .and_then(|plan| validate_plan(&plan, grid.cell_count(), grid.trials).map(|()| plan))
    {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let missing: usize = plan.iter().map(TrialRange::len).sum();
    let total = grid.cell_count() * grid.trials as usize;
    let name = state.experiment.clone();
    println!(
        "[resume] {name} from checkpoint seq {seq}: {} of {total} trials recorded, \
         {missing} to run",
        total - missing
    );
    let started = std::time::Instant::now();
    let cells = if plan.is_empty() {
        state.into_cells()
    } else {
        // Re-checkpoint as we go — with the loaded state folded in, so a
        // second interruption still loses nothing.
        let writer = match CheckpointWriter::new(dir, &name, run_opts.full, grid.clone()) {
            Ok(writer) => writer.with_base(state.clone()),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        let cadence = opts.checkpoint.unwrap_or_default().cadence();
        let hooks = SweepHooks {
            plan: Some(&plan),
            monitor: Some((cadence, &writer)),
        };
        let fresh = (entry.cells)(&run_opts, &hooks);
        match checkpoint::merge_cells(&grid, &state.into_cells(), &fresh) {
            Ok(cells) => cells,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let reassembled = ShardState::from_cells(&name, run_opts.full, (0, 1), &grid, &cells);
    if !reassembled.is_complete() {
        eprintln!("error: resumed state is still incomplete — corrupt checkpoint?");
        for missing in reassembled.missing().iter().take(8) {
            eprintln!("  {missing}");
        }
        return ExitCode::FAILURE;
    }
    let report = (entry.report)(&run_opts, &cells);
    report.print();
    if let Err(e) = write_report_artifacts(&report, dir, opts.json) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "[resume] {name} complete: {} written to {} in {:.1?}",
        if opts.json { "CSVs + JSON" } else { "CSVs" },
        dir.display(),
        started.elapsed()
    );
    ExitCode::SUCCESS
}

/// `repro shard <experiment> --shard i/N --out DIR`: runs shard `i`'s cell
/// range of the experiment's grid and writes the partial-state artifact.
fn run_shard(opts: &Options) -> ExitCode {
    let name = &opts.inputs[0];
    let Some(entry) = find_shardable(name) else {
        eprintln!(
            "error: {name:?} is not shardable (shardable experiments: {})",
            shardable_names().join(", ")
        );
        return ExitCode::FAILURE;
    };
    let (index, of) = opts.shard.expect("validated at parse time");
    let grid = (entry.grid)(opts);
    let total = grid.cell_count();
    // Cost-balanced: shard boundaries split the grid's *estimated work*
    // (cell cost × trials), so no shard is stuck with all the heavy cells.
    // Merge accepts any contiguous tiling, so mixed-version shard runs
    // still reassemble — as long as every index ran under the same binary.
    let range = CellRange::shard_weighted(&grid.cell_costs(), index as usize, of as usize);
    let started = std::time::Instant::now();
    let plan = range.plan(grid.trials);
    let hooks = SweepHooks {
        plan: Some(&plan),
        ..SweepHooks::default()
    };
    let cells = (entry.cells)(opts, &hooks);
    let state = ShardState::from_cells(entry.name, opts.full, (index, of), &grid, &cells);
    let dir = opts.out_dir.as_deref().expect("validated at parse time");
    let path = match write_state(dir, &state) {
        Ok(path) => path,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "[shard] {name} shard {index}/{of}: cells [{}, {}) of {total} → {} in {:.1?}",
        range.lo,
        range.hi,
        path.display(),
        started.elapsed()
    );
    ExitCode::SUCCESS
}

/// `repro merge DIR... --out DIR [--json]`: loads every shard artifact in
/// the given directories, merges them, and emits the experiment's reports
/// exactly as a single-process `repro <experiment> --out DIR` would.
fn run_merge(opts: &Options) -> ExitCode {
    let mut states = Vec::new();
    for dir in &opts.inputs {
        match load_dir(Path::new(dir)) {
            Ok(found) => states.extend(found),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let count = states.len();
    let denominator = states.first().map_or(1, |s| s.shard.1);
    let merged = match merge_states(states) {
        Ok(merged) => merged,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !merged.is_complete() {
        eprintln!("error: merged state is incomplete — did you merge all {denominator} shards?");
        for missing in merged.missing().iter().take(8) {
            eprintln!("  {missing}");
        }
        return ExitCode::FAILURE;
    }
    let Some(entry) = find_shardable(&merged.experiment) else {
        eprintln!(
            "error: artifact names unknown experiment {:?}",
            merged.experiment
        );
        return ExitCode::FAILURE;
    };
    // Rebuild the options the report half would have seen in-process; the
    // artifact records everything execution-independent about the run.
    let report_opts = Options {
        full: merged.full,
        trials: Some(merged.grid.trials),
        ..Options::default()
    };
    let name = merged.experiment.clone();
    let report = (entry.report)(&report_opts, &merged.into_cells());
    report.print();
    let dir = opts.out_dir.as_deref().expect("validated at parse time");
    if let Err(e) = write_report_artifacts(&report, dir, opts.json) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "[merge] {count} artifacts → {} {} written to {}",
        name,
        if opts.json { "CSVs + JSON" } else { "CSVs" },
        dir.display()
    );
    ExitCode::SUCCESS
}

/// Entry point over the process arguments.
pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    run(&args)
}

fn print_usage() {
    println!(
        "usage: repro <experiment|all|list|bench> [--full] [--quick] [--trials N] [--out DIR] \
         [--json] [--threads N]"
    );
    println!("       repro shard <experiment> --shard i/N --out DIR   (partial-state artifact)");
    println!("       repro merge DIR... --out DIR [--json]            (recombine + report)");
    println!("       repro <experiment> --checkpoint --out DIR        (crash-safe long run)");
    println!("       repro resume DIR [--json]                        (continue from checkpoint)");
    println!("       repro serve <experiment> --out DIR [--json] [--port P] [--leases N]");
    println!("                   [--lease-secs S] [--linger-secs S]   (distributed coordinator)");
    println!("       repro work --connect HOST:PORT [--threads N]     (pull-based worker)");
    println!();
    println!("  --full      use the paper's grids (minutes) instead of quick ones (seconds);");
    println!("              prints trials-completed progress + ETA to stderr when it is a TTY");
    println!("  --quick     bench smoke mode: tiny iteration counts (schema checks only)");
    println!("  --trials N  override the trial count");
    println!("  --out DIR   also write CSV series to DIR");
    println!("  --json      also write JSON artifacts to DIR (needs --out)");
    println!("  --threads N worker threads (default: all cores; results never depend on it)");
    println!("  --shard i/N run only cell shard i of N, split by estimated work (shard");
    println!("              subcommand; merged output is byte-identical to one process)");
    println!("  --checkpoint           snapshot in-flight state into DIR/checkpoints/ and");
    println!("                         refresh DIR/metrics.json (default: every 30 s)");
    println!("  --checkpoint-secs N    snapshot every N seconds (implies --checkpoint)");
    println!("  --checkpoint-trials N  snapshot every N completed trials (implies it too;");
    println!("                         resumed reports are byte-identical to uninterrupted)");
    println!(
        "  --port P        serve: listen port (default {}; 0 = ephemeral)",
        crate::server::DEFAULT_PORT
    );
    println!(
        "  --leases N      serve: cut the sweep into N cost-weighted leases (default {})",
        crate::server::DEFAULT_LEASES
    );
    println!(
        "  --lease-secs S  serve: re-issue a lease not completed within S s (default {})",
        crate::server::DEFAULT_LEASE_SECS
    );
    println!(
        "  --linger-secs S serve: answer `done` for S s after completion (default {})",
        crate::server::DEFAULT_LINGER_SECS
    );
    println!("  --connect H:P   work: the coordinator to pull leases from");
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

    #[test]
    fn shard_then_merge_reproduces_the_direct_csv() {
        let direct = temp_dir("direct");
        let merged = temp_dir("merged");
        let shards = temp_dir("shards");
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
        for i in 0..2 {
            assert_eq!(
                run(&strs(&[
                    "shard",
                    "fig5",
                    "--trials",
                    "2",
                    "--threads",
                    "2",
                    "--shard",
                    &format!("{i}/2"),
                    "--out",
                    shards.to_str().unwrap()
                ])),
                ExitCode::SUCCESS
            );
        }
        assert_eq!(
            run(&strs(&[
                "merge",
                shards.to_str().unwrap(),
                "--out",
                merged.to_str().unwrap()
            ])),
            ExitCode::SUCCESS
        );
        let read = |d: &std::path::Path| {
            std::fs::read_to_string(d.join("fig5_cw_slots_abstract.csv")).unwrap()
        };
        assert_eq!(read(&direct), read(&merged), "merged CSV diverged");
        for dir in [direct, merged, shards] {
            let _ = std::fs::remove_dir_all(&dir);
        }
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
