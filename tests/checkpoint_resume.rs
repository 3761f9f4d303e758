//! End-to-end pin for crash-safe runs: a `fig5` run interrupted mid-sweep
//! and then `repro resume`d must write the exact bytes of the checked-in
//! golden fixture — the same fixture the uninterrupted `repro fig5 --json`
//! path (`tests/json_golden.rs`) and the 3-shard merge path
//! (`tests/shard_cli_golden.rs`) are pinned to. All three pipelines are
//! therefore pinned to *each other*.
//!
//! The "interruption" is deterministic: a `repro shard 0/2` run produces a
//! partial `shard_state/v1` artifact — exactly the cells-and-trials shape a
//! checkpoint of a half-finished run has — which the test installs as the
//! newest checkpoint. `resume` must execute only the missing half and
//! reassemble bit-identically (the per-trial RNG is position-addressed, so
//! who runs a trial, and when, cannot matter).

use contention_experiments::checkpoint::{
    checkpoint_file_name, load_latest, missing_work, MetricsDoc, CHECKPOINT_DIR, METRICS_FILE,
};
use contention_experiments::cli;
use contention_experiments::shard::{ShardState, SHARD_SUFFIX};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The options the golden fixture was generated with (`tests/json_golden.rs`).
const GOLDEN_FLAGS: [&str; 4] = ["--trials", "3", "--threads", "2"];

fn strs(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ckpt-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn golden() -> String {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fig5_cw_slots_abstract.json");
    std::fs::read_to_string(&path).expect("golden fixture")
}

/// Installs `state_json` as checkpoint `seq` of `experiment` under
/// `run_dir/checkpoints/`.
fn install_checkpoint(run_dir: &std::path::Path, experiment: &str, seq: u64, state_json: &str) {
    let ckpt_dir = run_dir.join(CHECKPOINT_DIR);
    std::fs::create_dir_all(&ckpt_dir).unwrap();
    let name = checkpoint_file_name(experiment, seq);
    std::fs::write(ckpt_dir.join(name), state_json).unwrap();
}

/// Half the fig5 grid, run for real as `repro shard 0/2` into `shards`: the
/// state a mid-sweep checkpoint holds.
fn half_state(shards: &Path) -> String {
    let mut args = vec!["shard", "fig5"];
    args.extend(GOLDEN_FLAGS);
    args.extend(["--shard", "0/2", "--out", shards.to_str().unwrap()]);
    assert_eq!(cli::run(&strs(&args)), ExitCode::SUCCESS, "half-run failed");
    let artifact = std::fs::read_dir(shards)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.to_str().unwrap().ends_with(SHARD_SUFFIX))
        .expect("shard artifact");
    std::fs::read_to_string(&artifact).unwrap()
}

#[test]
fn interrupted_fig5_resumes_to_the_golden_json_byte_for_byte() {
    let shards = temp_dir("half");
    let run_dir = temp_dir("run");
    std::fs::create_dir_all(&run_dir).unwrap();

    install_checkpoint(&run_dir, "fig5", 0, &half_state(&shards));

    // Resume runs only the missing half and writes the reports in place.
    assert_eq!(
        cli::run(&strs(&["resume", run_dir.to_str().unwrap(), "--json"])),
        ExitCode::SUCCESS,
        "resume failed"
    );
    let resumed = std::fs::read_to_string(run_dir.join("fig5_cw_slots_abstract.json"))
        .expect("resume wrote the JSON report");
    assert_eq!(
        resumed,
        golden(),
        "interrupted-then-resumed fig5 JSON diverged from the golden fixture"
    );

    // The resume re-checkpointed with the loaded base folded in: the final
    // metrics sidecar must account for the *whole* run, not just its half.
    let doc = MetricsDoc::parse(&std::fs::read_to_string(run_dir.join(METRICS_FILE)).unwrap())
        .expect("metrics sidecar parses");
    assert!(doc.finished, "final snapshot must be flagged finished");
    assert_eq!(doc.experiment, "fig5");
    assert_eq!(doc.trials_done, doc.trials_total);
    assert_eq!(doc.cells_done, doc.cells_total);

    for dir in [shards, run_dir] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn resume_rejects_a_directory_with_only_torn_checkpoints() {
    let run_dir = temp_dir("torn");
    install_checkpoint(&run_dir, "fig5", 0, "{\"schema\": \"shard_st");
    assert_eq!(
        cli::run(&strs(&["resume", run_dir.to_str().unwrap()])),
        ExitCode::FAILURE,
        "a torn-only checkpoint dir must fail cleanly"
    );
    // No report can have been produced from garbage.
    assert!(!run_dir.join("fig5_cw_slots_abstract.csv").exists());
    let _ = std::fs::remove_dir_all(&run_dir);
}

#[test]
fn checkpointed_run_matches_the_golden_and_leaves_a_complete_latest() {
    let run_dir = temp_dir("full");
    let mut args = vec!["fig5"];
    args.extend(GOLDEN_FLAGS);
    args.extend([
        "--checkpoint-trials",
        "1",
        "--json",
        "--out",
        run_dir.to_str().unwrap(),
    ]);
    assert_eq!(cli::run(&strs(&args)), ExitCode::SUCCESS);
    let direct = std::fs::read_to_string(run_dir.join("fig5_cw_slots_abstract.json")).unwrap();
    assert_eq!(direct, golden(), "checkpointing perturbed the results");

    // The newest checkpoint on disk holds the complete final state.
    let latest = load_latest(&run_dir)
        .expect("latest checkpoint parses")
        .expect("a checkpoint exists");
    assert!(latest.warnings.is_empty(), "{:?}", latest.warnings);
    assert!(
        latest.state.is_complete(),
        "final checkpoint must be complete"
    );
    let _ = std::fs::remove_dir_all(&run_dir);
}

/// The checkpoint files under `dir`, by name, with their bytes.
fn checkpoint_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir.join(CHECKPOINT_DIR))
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let name = path.file_name().unwrap().to_str().unwrap().to_string();
            (name, std::fs::read(&path).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// At one thread the trials run in plan order on the main thread, so the
/// checkpoints depend on the plan alone: over fig5's 16 cells × 3 trials,
/// `--checkpoint-trials 16` snapshots after trials 16 and 32, then the
/// finished run — seqs 0, 1, 2 — and a second run writes the same bytes. A
/// bare `--checkpoint` (every 30 s) writes only the finished one.
#[test]
fn one_thread_checkpoints_follow_the_trial_cadence_byte_for_byte() {
    let run = |tag: &str, cadence: &[&str]| {
        let dir = temp_dir(tag);
        let mut args = vec!["fig5", "--trials", "3", "--threads", "1", "--json"];
        args.extend(cadence);
        args.extend(["--out", dir.to_str().unwrap()]);
        assert_eq!(cli::run(&strs(&args)), ExitCode::SUCCESS, "{tag}");
        let report = std::fs::read_to_string(dir.join("fig5_cw_slots_abstract.json")).unwrap();
        assert_eq!(
            report,
            golden(),
            "{tag}: checkpointing perturbed the results"
        );
        dir
    };
    let every_16 = ["--checkpoint-trials", "16"];
    let (first, second) = (run("cadence-a", &every_16), run("cadence-b", &every_16));
    let latest = load_latest(&first).unwrap().expect("a checkpoint exists");
    assert_eq!(latest.seq, 2);
    assert!(
        latest.state.is_complete(),
        "the last checkpoint is the finished one"
    );
    let files = checkpoint_files(&first);
    let names: Vec<&str> = files.iter().map(|(name, _)| name.as_str()).collect();
    let expect: Vec<String> = (0..3)
        .map(|seq| checkpoint_file_name("fig5", seq))
        .collect();
    assert_eq!(names, expect);
    // Each periodic checkpoint holds exactly the trials before it.
    for ((name, bytes), missing) in files.iter().zip([32, 16, 0]) {
        let state = ShardState::parse(std::str::from_utf8(bytes).unwrap()).unwrap();
        let plan = missing_work(&state).unwrap();
        assert_eq!(
            plan.iter().map(|r| r.len()).sum::<usize>(),
            missing,
            "{name}"
        );
    }
    assert!(
        files == checkpoint_files(&second),
        "two runs wrote different checkpoints"
    );

    let bare = run("cadence-bare", &["--checkpoint"]);
    let names: Vec<String> = checkpoint_files(&bare)
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(names, [checkpoint_file_name("fig5", 0)]);
    for dir in [first, second, bare] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `resume` refuses a checkpoint this build cannot replay, and writes no
/// report: one whose grid this build does not produce (`"full"` flipped to
/// `true` over the quick grid's cells), and one that names an experiment
/// this build does not have.
#[test]
fn resume_refuses_checkpoints_this_build_cannot_replay() {
    let shards = temp_dir("foreign-half");
    let half = half_state(&shards);
    for (tag, state, error) in [
        (
            "flipped-full",
            half.replace("\"full\": false", "\"full\": true"),
            "does not match \"fig5\"'s grid",
        ),
        (
            "unknown-experiment",
            half.replace("\"experiment\": \"fig5\"", "\"experiment\": \"fig99\""),
            "\"fig99\" is not a shardable experiment",
        ),
    ] {
        assert_ne!(state, half, "{tag}: the edit did not apply");
        let run_dir = temp_dir(tag);
        install_checkpoint(&run_dir, "fig5", 0, &state);
        let resume = strs(&["resume", run_dir.to_str().unwrap()]);
        assert_eq!(cli::run(&resume), ExitCode::FAILURE, "{tag}");
        let err = cli::try_run(&resume).unwrap_err();
        assert!(err.contains(error), "{tag}: {err}");
        let report = run_dir.join("fig5_cw_slots_abstract.csv");
        assert!(!report.exists(), "{tag}");
        let _ = std::fs::remove_dir_all(&run_dir);
    }
    let _ = std::fs::remove_dir_all(&shards);
}
