//! CLI-level golden test for process-sharded sweeps: `fig5` run as three
//! `repro shard` invocations and one `repro merge` must write the exact
//! bytes of the checked-in golden fixture — the same fixture the unsharded
//! `repro fig5 --json` path is pinned to (`tests/json_golden.rs`), so the
//! two pipelines are pinned to *each other*.

use contention_experiments::cli;
use contention_experiments::shard::SHARD_SUFFIX;
use std::path::PathBuf;
use std::process::ExitCode;

/// The options the golden fixture was generated with (`tests/json_golden.rs`).
const GOLDEN_FLAGS: [&str; 4] = ["--trials", "3", "--threads", "2"];

fn strs(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("shard-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn fig5_three_shards_merge_to_the_golden_json_byte_for_byte() {
    let shards = temp_dir("artifacts");
    let out = temp_dir("merged");

    // Three shard processes (simulated in-process through the same CLI
    // entry point the binary uses), all writing into one artifact dir.
    for i in 0..3 {
        let spec = format!("{i}/3");
        let mut args = vec!["shard", "fig5"];
        args.extend(GOLDEN_FLAGS);
        args.extend(["--shard", &spec, "--out", shards.to_str().unwrap()]);
        assert_eq!(
            cli::run(&strs(&args)),
            ExitCode::SUCCESS,
            "shard {i}/3 failed"
        );
    }
    let artifacts: Vec<PathBuf> = std::fs::read_dir(&shards)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.to_str().unwrap().ends_with(SHARD_SUFFIX))
        .collect();
    assert_eq!(artifacts.len(), 3, "expected one artifact per shard");

    assert_eq!(
        cli::run(&strs(&[
            "merge",
            shards.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
            "--json",
        ])),
        ExitCode::SUCCESS,
        "merge failed"
    );

    let merged = std::fs::read_to_string(out.join("fig5_cw_slots_abstract.json"))
        .expect("merge wrote the JSON report");
    let golden_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fig5_cw_slots_abstract.json");
    let golden = std::fs::read_to_string(&golden_path).expect("golden fixture");
    assert_eq!(
        merged, golden,
        "merged 3-shard fig5 JSON diverged from the unsharded golden fixture"
    );

    for dir in [shards, out] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `merge` refuses artifacts that name an experiment this build does not
/// have, and writes no report.
#[test]
fn merge_refuses_an_unknown_experiment() {
    let shards = temp_dir("unknown-artifacts");
    let out = temp_dir("unknown-merged");
    let mut args = vec!["shard", "fig5"];
    args.extend(GOLDEN_FLAGS);
    args.extend(["--shard", "0/1", "--out", shards.to_str().unwrap()]);
    assert_eq!(cli::run(&strs(&args)), ExitCode::SUCCESS);
    let artifact = shards.join(format!("fig5.s0of1{SHARD_SUFFIX}"));
    let text = std::fs::read_to_string(&artifact).unwrap();
    let foreign = text.replace("\"experiment\": \"fig5\"", "\"experiment\": \"fig99\"");
    assert_ne!(foreign, text, "the edit did not apply");
    std::fs::write(&artifact, foreign).unwrap();

    let merge = strs(&[
        "merge",
        shards.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(cli::run(&merge), ExitCode::FAILURE);
    let err = cli::try_run(&merge).unwrap_err();
    assert!(
        err.contains("\"fig99\" is not a shardable experiment"),
        "{err}"
    );
    assert!(!out.join("fig5_cw_slots_abstract.csv").exists());
    for dir in [shards, out] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `merge` refuses artifacts of a known experiment whose grid this build
/// does not run under those options — here metrics edited to `collisions`
/// — with a clean error and no report, where it used to abort on an
/// assertion while building the report.
#[test]
fn merge_refuses_a_foreign_grid() {
    let shards = temp_dir("foreign-artifacts");
    let out = temp_dir("foreign-merged");
    let mut args = vec!["shard", "fig5", "--trials", "2"];
    args.extend(["--shard", "0/1", "--out", shards.to_str().unwrap()]);
    assert_eq!(cli::run(&strs(&args)), ExitCode::SUCCESS);
    let artifact = shards.join(format!("fig5.s0of1{SHARD_SUFFIX}"));
    let text = std::fs::read_to_string(&artifact).unwrap();
    let foreign = text.replace(
        "\"metrics\": [\"cw_slots\"]",
        "\"metrics\": [\"collisions\"]",
    );
    assert_ne!(foreign, text, "the edit did not apply");
    std::fs::write(&artifact, foreign).unwrap();

    let merge = strs(&[
        "merge",
        shards.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(cli::run(&merge), ExitCode::FAILURE);
    let err = cli::try_run(&merge).unwrap_err();
    assert!(
        err.contains("does not match \"fig5\"'s grid under these options"),
        "{err}"
    );
    assert!(!out.join("fig5_cw_slots_abstract.csv").exists());
    for dir in [shards, out] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}
