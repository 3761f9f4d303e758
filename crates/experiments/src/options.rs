//! CLI options shared by every `repro` subcommand.

use contention_sim::engine::ExecPolicy;
use contention_sim::monitor::SnapshotCadence;
use std::path::PathBuf;
use std::time::Duration;

/// Checkpoint cadence knobs (`--checkpoint`, `--checkpoint-secs`,
/// `--checkpoint-trials`). Either axis snapshots the run; with neither
/// given, `--checkpoint` defaults to every 30 seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckpointOpts {
    /// Snapshot every this many seconds.
    pub secs: Option<u64>,
    /// Snapshot every this many completed trials.
    pub trials: Option<usize>,
}

impl CheckpointOpts {
    /// Default wall-clock cadence when only bare `--checkpoint` was given.
    pub const DEFAULT_SECS: u64 = 30;

    /// The engine-facing cadence these knobs describe.
    pub fn cadence(&self) -> SnapshotCadence {
        if self.secs.is_none() && self.trials.is_none() {
            SnapshotCadence::secs(Self::DEFAULT_SECS)
        } else {
            SnapshotCadence {
                every: self.secs.map(Duration::from_secs),
                every_trials: self.trials,
            }
        }
    }
}

/// The most trials a sweep may run per cell, from `--trials` or from a
/// lease, checkpoint or shard artifact. Every (cell, metric) buffer is
/// sized to the trial count up front, so a larger count is refused before
/// anything is allocated; the paper uses at most 30.
pub const MAX_TRIALS: u32 = 1_000_000;

/// Harness options.
///
/// The default grids are laptop-quick; `--full` switches to the paper's
/// grids (30–200 trials, n up to 150 for the MAC sweeps and 10⁵–10⁶ for the
/// abstract sweeps), which take minutes rather than seconds.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Options {
    /// Use the paper's full grids.
    pub full: bool,
    /// Override the trial count.
    pub trials: Option<u32>,
    /// Write CSVs here in addition to printing.
    pub out_dir: Option<PathBuf>,
    /// Worker threads (`None` = all cores).
    pub threads: Option<usize>,
    /// Also write JSON series next to the CSVs (requires `--out`, except for
    /// `resume`, which writes into its run directory).
    pub json: bool,
    /// `--shard i/N`: run only shard `i` of `N` (the `shard` subcommand).
    pub shard: Option<(u32, u32)>,
    /// `--checkpoint[-secs/-trials]`: periodically snapshot in-flight state
    /// into `--out/checkpoints/` (and refresh `metrics.json`).
    pub checkpoint: Option<CheckpointOpts>,
    /// `--port P`: TCP port the `serve` coordinator listens on (`0` = an
    /// ephemeral port, printed at startup — what tests use).
    pub port: Option<u16>,
    /// `--connect HOST:PORT`: the coordinator a `work` process pulls
    /// leases from.
    pub connect: Option<String>,
    /// `--lease-secs N`: how long `serve` waits for a claimed lease's
    /// results before re-issuing it to another worker.
    pub lease_ttl: Option<Duration>,
    /// `--leases N`: how many leases `serve` cuts the sweep into (the
    /// fleet-size knob: a few per expected worker keeps everyone busy).
    pub leases: Option<usize>,
    /// `--linger-secs N`: how long a finished `serve` keeps answering
    /// `done` before exiting, so slow workers learn the run is over.
    pub linger: Option<Duration>,
    /// Positional arguments after the subcommand: the experiment name for
    /// `shard`/`serve`, the artifact directories for `merge`. Empty
    /// elsewhere.
    pub inputs: Vec<String>,
}

impl Options {
    /// Picks between a quick and a full grid value.
    pub fn pick<T: Copy>(&self, quick: T, full: T) -> T {
        if self.full {
            full
        } else {
            quick
        }
    }

    /// Trial count: explicit override, else quick/full default.
    pub fn trials_or(&self, quick: u32, full: u32) -> u32 {
        self.trials.unwrap_or_else(|| self.pick(quick, full))
    }

    /// The paper's MAC-sweep x-axis: n = 10, 20, …, 150 (full), or a coarse
    /// subset (quick).
    pub fn mac_ns(&self) -> Vec<u32> {
        if self.full {
            (1..=15).map(|i| i * 10).collect()
        } else {
            vec![10, 50, 100, 150]
        }
    }

    /// The engine execution policy these options describe. Progress
    /// reporting comes on for `--full` runs (and stays silent off-TTY).
    pub fn exec(&self) -> ExecPolicy {
        ExecPolicy {
            threads: self.threads,
            progress: self.full,
        }
    }

    /// Parses `repro`-style flags. Returns `(subcommand, options)`.
    pub fn parse(args: &[String]) -> Result<(String, Options), String> {
        let mut sub = None;
        let mut opts = Options::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--full" => opts.full = true,
                "--json" => opts.json = true,
                "--trials" => {
                    let v = it.next().ok_or("--trials needs a value")?;
                    let trials: u32 = v.parse().map_err(|_| format!("bad trial count {v:?}"))?;
                    if trials == 0 {
                        return Err("--trials must be at least 1".to_string());
                    }
                    if trials > MAX_TRIALS {
                        return Err(format!("--trials must be at most {MAX_TRIALS}"));
                    }
                    opts.trials = Some(trials);
                }
                "--out" => {
                    let v = it.next().ok_or("--out needs a directory")?;
                    opts.out_dir = Some(PathBuf::from(v));
                }
                "--threads" => {
                    let v = it.next().ok_or("--threads needs a value")?;
                    let threads: usize =
                        v.parse().map_err(|_| format!("bad thread count {v:?}"))?;
                    if threads == 0 {
                        return Err("--threads must be at least 1".to_string());
                    }
                    opts.threads = Some(threads);
                }
                "--shard" => {
                    let v = it.next().ok_or("--shard needs a value like 0/4")?;
                    opts.shard = Some(Self::parse_shard(v)?);
                }
                "--checkpoint" => {
                    opts.checkpoint.get_or_insert_with(CheckpointOpts::default);
                }
                "--checkpoint-secs" => {
                    let v = it.next().ok_or("--checkpoint-secs needs a value")?;
                    let secs: u64 = v
                        .parse()
                        .map_err(|_| format!("bad checkpoint interval {v:?}"))?;
                    if secs == 0 {
                        return Err("--checkpoint-secs must be at least 1".to_string());
                    }
                    opts.checkpoint
                        .get_or_insert_with(CheckpointOpts::default)
                        .secs = Some(secs);
                }
                "--checkpoint-trials" => {
                    let v = it.next().ok_or("--checkpoint-trials needs a value")?;
                    let trials: usize = v
                        .parse()
                        .map_err(|_| format!("bad checkpoint trial count {v:?}"))?;
                    if trials == 0 {
                        return Err("--checkpoint-trials must be at least 1".to_string());
                    }
                    opts.checkpoint
                        .get_or_insert_with(CheckpointOpts::default)
                        .trials = Some(trials);
                }
                "--port" => {
                    let v = it.next().ok_or("--port needs a value")?;
                    opts.port = Some(v.parse().map_err(|_| format!("bad port {v:?}"))?);
                }
                "--connect" => {
                    let v = it.next().ok_or("--connect needs HOST:PORT")?;
                    if !v.contains(':') {
                        return Err(format!("bad --connect address {v:?} (expected HOST:PORT)"));
                    }
                    opts.connect = Some(v.clone());
                }
                "--lease-secs" => {
                    let v = it.next().ok_or("--lease-secs needs a value")?;
                    let secs: u64 = v.parse().map_err(|_| format!("bad lease duration {v:?}"))?;
                    if secs == 0 {
                        return Err("--lease-secs must be at least 1".to_string());
                    }
                    opts.lease_ttl = Some(Duration::from_secs(secs));
                }
                "--leases" => {
                    let v = it.next().ok_or("--leases needs a value")?;
                    let count: usize = v.parse().map_err(|_| format!("bad lease count {v:?}"))?;
                    if count == 0 {
                        return Err("--leases must be at least 1".to_string());
                    }
                    opts.leases = Some(count);
                }
                "--linger-secs" => {
                    let v = it.next().ok_or("--linger-secs needs a value")?;
                    let secs = v
                        .parse()
                        .map_err(|_| format!("bad linger duration {v:?}"))?;
                    opts.linger = Some(Duration::from_secs(secs));
                }
                flag if flag.starts_with("--") => {
                    return Err(format!("unknown flag {flag:?}"));
                }
                name => {
                    if sub.is_none() {
                        sub = Some(name.to_string());
                    } else {
                        opts.inputs.push(name.to_string());
                    }
                }
            }
        }
        let sub = sub.ok_or("missing subcommand")?;
        opts.validate(&sub)?;
        Ok((sub, opts))
    }

    /// Parses a `--shard` value: `i/N` with `i < N`, `N ≥ 1`.
    fn parse_shard(v: &str) -> Result<(u32, u32), String> {
        let bad = || format!("bad shard spec {v:?} (expected i/N with i < N, N >= 1)");
        let (index, of) = v.split_once('/').ok_or_else(bad)?;
        let index: u32 = index.parse().map_err(|_| bad())?;
        let of: u32 = of.parse().map_err(|_| bad())?;
        if of == 0 || index >= of {
            return Err(bad());
        }
        Ok((index, of))
    }

    /// Flag-combination validation, run up front (at parse time) so a bad
    /// combination can never surface as an error *after* a long run.
    fn validate(&self, sub: &str) -> Result<(), String> {
        // `resume DIR` writes into DIR itself; every other figure needs a
        // directory to put its JSON series in.
        if self.json && self.out_dir.is_none() && sub != "resume" {
            return Err("--json needs --out DIR to write into".to_string());
        }
        if self.shard.is_some() && sub != "shard" {
            return Err(format!("--shard only applies to `shard`, not {sub:?}"));
        }
        // The distributed-run knobs belong to exactly one side of the wire.
        if sub != "serve" {
            for (set, flag) in [
                (self.port.is_some(), "--port"),
                (self.lease_ttl.is_some(), "--lease-secs"),
                (self.leases.is_some(), "--leases"),
                (self.linger.is_some(), "--linger-secs"),
            ] {
                if set {
                    return Err(format!("{flag} only applies to `serve`, not {sub:?}"));
                }
            }
        }
        if self.connect.is_some() && sub != "work" {
            return Err(format!("--connect only applies to `work`, not {sub:?}"));
        }
        if self.checkpoint.is_some() {
            match sub {
                // Resume re-checkpoints into the run directory automatically;
                // the flags only tune its cadence there.
                "resume" => {}
                "shard" | "merge" | "all" => {
                    return Err(format!("--checkpoint does not apply to {sub:?}"));
                }
                _ => {
                    if self.out_dir.is_none() {
                        return Err("--checkpoint needs --out DIR for its artifacts".to_string());
                    }
                }
            }
        }
        match sub {
            "shard" => {
                // A partial run: exactly one experiment, explicit shard
                // coordinates, and a directory for the state artifact.
                if self.inputs.len() != 1 {
                    return Err(
                        "shard needs exactly one experiment, e.g. `repro shard fig5 \
                         --shard 0/3 --out DIR`"
                            .to_string(),
                    );
                }
                if self.shard.is_none() {
                    return Err("shard needs --shard i/N".to_string());
                }
                if self.out_dir.is_none() {
                    return Err("shard needs --out DIR for its state artifact".to_string());
                }
                if self.json {
                    return Err(
                        "shard always writes a JSON state artifact; drop --json".to_string()
                    );
                }
            }
            "merge" => {
                // Merge folds saved state — no trials run, so every
                // execution knob is meaningless and rejecting it up front
                // beats silently ignoring it.
                if self.inputs.is_empty() {
                    return Err(
                        "merge needs at least one artifact directory, e.g. `repro merge \
                         outA outB --out DIR`"
                            .to_string(),
                    );
                }
                if self.out_dir.is_none() {
                    return Err("merge needs --out DIR for its reports".to_string());
                }
                for (set, flag) in [
                    (self.threads.is_some(), "--threads"),
                    (self.trials.is_some(), "--trials"),
                    (self.full, "--full"),
                ] {
                    if set {
                        return Err(format!(
                            "{flag} does not apply to `merge` (merging folds saved shard \
                             state; no trials run)"
                        ));
                    }
                }
            }
            "resume" => {
                if self.inputs.len() != 1 {
                    return Err(
                        "resume needs exactly one run directory, e.g. `repro resume DIR`"
                            .to_string(),
                    );
                }
                if self.out_dir.is_some() {
                    return Err(
                        "resume writes into the run directory itself; drop --out".to_string()
                    );
                }
                // The grid must come from the checkpoint — overriding it
                // would make the resumed run diverge from the original.
                for (set, flag) in [(self.trials.is_some(), "--trials"), (self.full, "--full")] {
                    if set {
                        return Err(format!(
                            "{flag} does not apply to `resume` (the grid comes from the \
                             checkpoint artifact)"
                        ));
                    }
                }
            }
            "serve" => {
                // The coordinator runs no trials itself: it cuts the sweep
                // into leases, folds results, and writes the artifacts.
                if self.inputs.len() != 1 {
                    return Err(
                        "serve needs exactly one experiment, e.g. `repro serve fig5 --out DIR`"
                            .to_string(),
                    );
                }
                if self.out_dir.is_none() {
                    return Err("serve needs --out DIR for its checkpoints and reports".to_string());
                }
                if self.threads.is_some() {
                    return Err(
                        "--threads does not apply to `serve` (workers run the trials; \
                         pass it to `repro work`)"
                            .to_string(),
                    );
                }
                if self.checkpoint.is_some() {
                    return Err(
                        "--checkpoint does not apply to `serve` (it checkpoints on every \
                         accepted result)"
                            .to_string(),
                    );
                }
            }
            "work" => {
                // A worker learns everything — experiment, grid, trials —
                // from its leases; only execution knobs make sense here.
                if self.connect.is_none() {
                    return Err(
                        "work needs --connect HOST:PORT, e.g. `repro work --connect \
                         127.0.0.1:7481`"
                            .to_string(),
                    );
                }
                if let Some(extra) = self.inputs.first() {
                    return Err(format!("unexpected extra argument {extra:?}"));
                }
                for (set, flag) in [
                    (self.trials.is_some(), "--trials"),
                    (self.full, "--full"),
                    (self.out_dir.is_some(), "--out"),
                    (self.json, "--json"),
                    (self.checkpoint.is_some(), "--checkpoint"),
                ] {
                    if set {
                        return Err(format!(
                            "{flag} does not apply to `work` (the grid and artifacts \
                             belong to the coordinator)"
                        ));
                    }
                }
            }
            _ => {
                if let Some(extra) = self.inputs.first() {
                    return Err(format!("unexpected extra argument {extra:?}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_subcommand_and_flags() {
        let (sub, opts) = Options::parse(&strs(&[
            "fig7",
            "--full",
            "--trials",
            "5",
            "--threads",
            "2",
        ]))
        .unwrap();
        assert_eq!(sub, "fig7");
        assert!(opts.full);
        assert_eq!(opts.trials, Some(5));
        assert_eq!(opts.threads, Some(2));
    }

    #[test]
    fn out_dir_and_json() {
        let (_, opts) = Options::parse(&strs(&["fig3", "--out", "/tmp/x"])).unwrap();
        assert_eq!(opts.out_dir, Some(PathBuf::from("/tmp/x")));
        assert!(!opts.json);
        let (_, opts) = Options::parse(&strs(&["fig3", "--out", "/tmp/x", "--json"])).unwrap();
        assert!(opts.json);
    }

    #[test]
    fn json_without_out_is_rejected_up_front() {
        // The combination must fail at parse time — before any trial runs —
        // not when the report writer finally looks for its directory.
        assert!(Options::parse(&strs(&["fig3", "--json"])).is_err());
        assert!(Options::parse(&strs(&["all", "--json"])).is_err());
    }

    #[test]
    fn rejects_unknown_flag_and_missing_sub() {
        assert!(Options::parse(&strs(&["fig3", "--nope"])).is_err());
        assert!(Options::parse(&strs(&["--full"])).is_err());
        assert!(Options::parse(&strs(&["fig3", "fig4"])).is_err());
        assert!(Options::parse(&strs(&["fig3", "--trials", "abc"])).is_err());
        // There is no batch-size knob (workers claim one trial at a time) and no
        // grid smaller than the default one.
        for flag in ["--batch", "--quick"] {
            let err = Options::parse(&strs(&["fig5", flag, "8"])).unwrap_err();
            assert_eq!(err, format!("unknown flag {flag:?}"));
        }
    }

    #[test]
    fn zero_trials_and_zero_threads_are_rejected_at_parse_time() {
        // Zero trials leave nothing to aggregate, and zero threads would
        // silently mean one: both fail before any work starts.
        for (args, expect) in [
            (vec!["fig5", "--trials", "0"], "--trials must be at least 1"),
            (
                vec!["fig5", "--trials", "4294967295"],
                "--trials must be at most 1000000",
            ),
            (
                vec!["fig5", "--threads", "0"],
                "--threads must be at least 1",
            ),
            (
                vec!["work", "--connect", "h:1", "--threads", "0"],
                "--threads must be at least 1",
            ),
        ] {
            let err = Options::parse(&strs(&args)).unwrap_err();
            assert_eq!(err, expect, "{args:?}");
        }
        let (_, opts) =
            Options::parse(&strs(&["fig5", "--trials", "1", "--threads", "1"])).unwrap();
        assert_eq!((opts.trials, opts.threads), (Some(1), Some(1)));
    }

    #[test]
    fn shard_spec_parses_and_validates() {
        let (sub, opts) = Options::parse(&strs(&[
            "shard", "fig5", "--shard", "1/3", "--out", "/tmp/s",
        ]))
        .unwrap();
        assert_eq!(sub, "shard");
        assert_eq!(opts.inputs, vec!["fig5".to_string()]);
        assert_eq!(opts.shard, Some((1, 3)));
        // i >= N, N = 0, and junk are all parse-time errors.
        for bad in ["3/3", "4/3", "0/0", "x/2", "1:2", "2"] {
            let err = Options::parse(&strs(&["shard", "fig5", "--shard", bad, "--out", "/t"]))
                .unwrap_err();
            assert!(err.contains("bad shard spec"), "{bad}: {err}");
        }
    }

    #[test]
    fn shard_mode_requires_its_pieces_up_front() {
        // Missing experiment / --shard / --out each fail at parse time.
        assert!(Options::parse(&strs(&["shard", "--shard", "0/2", "--out", "/t"])).is_err());
        assert!(Options::parse(&strs(&["shard", "fig5", "--out", "/t"])).is_err());
        assert!(Options::parse(&strs(&["shard", "fig5", "--shard", "0/2"])).is_err());
        // Two experiments is ambiguous.
        assert!(Options::parse(&strs(&[
            "shard", "fig5", "fig7", "--shard", "0/2", "--out", "/t"
        ]))
        .is_err());
        // The artifact is always JSON; --json would suggest otherwise.
        assert!(Options::parse(&strs(&[
            "shard", "fig5", "--shard", "0/2", "--out", "/t", "--json"
        ]))
        .is_err());
        // --shard outside the shard subcommand is rejected.
        let err = Options::parse(&strs(&["fig5", "--shard", "0/2"])).unwrap_err();
        assert!(err.contains("only applies to `shard`"), "{err}");
    }

    #[test]
    fn merge_mode_takes_dirs_and_rejects_execution_knobs() {
        let (sub, opts) =
            Options::parse(&strs(&["merge", "a", "b", "c", "--out", "/t", "--json"])).unwrap();
        assert_eq!(sub, "merge");
        assert_eq!(opts.inputs, vec!["a", "b", "c"]);
        assert!(opts.json);
        // No inputs / no --out fail at parse time.
        assert!(Options::parse(&strs(&["merge", "--out", "/t"])).is_err());
        assert!(Options::parse(&strs(&["merge", "a"])).is_err());
        // Merge runs no trials: every execution knob is rejected, not
        // silently ignored.
        for flags in [
            vec!["merge", "a", "--out", "/t", "--threads", "2"],
            vec!["merge", "a", "--out", "/t", "--trials", "5"],
            vec!["merge", "a", "--out", "/t", "--full"],
            vec!["merge", "a", "--out", "/t", "--shard", "0/2"],
        ] {
            let err = Options::parse(&strs(&flags)).unwrap_err();
            assert!(
                err.contains("does not apply to `merge`") || err.contains("only applies to"),
                "{flags:?}: {err}"
            );
        }
    }

    #[test]
    fn checkpoint_flags_parse_and_validate() {
        let (_, opts) = Options::parse(&strs(&["fig5", "--checkpoint", "--out", "/t"])).unwrap();
        assert_eq!(opts.checkpoint, Some(CheckpointOpts::default()));
        assert_eq!(
            opts.checkpoint.unwrap().cadence(),
            SnapshotCadence::secs(CheckpointOpts::DEFAULT_SECS)
        );
        // Either cadence flag implies --checkpoint.
        let (_, opts) =
            Options::parse(&strs(&["fig5", "--checkpoint-secs", "5", "--out", "/t"])).unwrap();
        assert_eq!(opts.checkpoint.unwrap().cadence(), SnapshotCadence::secs(5));
        let (_, opts) =
            Options::parse(&strs(&["fig5", "--checkpoint-trials", "64", "--out", "/t"])).unwrap();
        assert_eq!(
            opts.checkpoint.unwrap().cadence(),
            SnapshotCadence::trials(64)
        );
        // Checkpointing needs somewhere to write.
        let err = Options::parse(&strs(&["fig5", "--checkpoint"])).unwrap_err();
        assert!(err.contains("--checkpoint needs --out"), "{err}");
        // Zero cadences are rejected.
        assert!(Options::parse(&strs(&["fig5", "--checkpoint-secs", "0", "--out", "/t"])).is_err());
        assert!(
            Options::parse(&strs(&["fig5", "--checkpoint-trials", "0", "--out", "/t"])).is_err()
        );
        // Subcommands that run no single figure sweep reject it.
        for sub in [
            vec!["merge", "a", "--out", "/t", "--checkpoint"],
            vec!["all", "--checkpoint", "--out", "/t"],
            vec![
                "shard",
                "fig5",
                "--shard",
                "0/2",
                "--out",
                "/t",
                "--checkpoint",
            ],
        ] {
            let err = Options::parse(&strs(&sub)).unwrap_err();
            assert!(
                err.contains("--checkpoint does not apply"),
                "{sub:?}: {err}"
            );
        }
    }

    #[test]
    fn resume_mode_takes_one_dir_and_rejects_grid_overrides() {
        let (sub, opts) = Options::parse(&strs(&["resume", "/t/run", "--json"])).unwrap();
        assert_eq!(sub, "resume");
        assert_eq!(opts.inputs, vec!["/t/run"]);
        assert!(opts.json && opts.out_dir.is_none());
        // Cadence tuning for the automatic re-checkpointing is allowed.
        let (_, opts) =
            Options::parse(&strs(&["resume", "/t/run", "--checkpoint-secs", "9"])).unwrap();
        assert_eq!(opts.checkpoint.unwrap().secs, Some(9));
        // No dir, two dirs, --out, and grid overrides all fail up front.
        assert!(Options::parse(&strs(&["resume"])).is_err());
        assert!(Options::parse(&strs(&["resume", "a", "b"])).is_err());
        assert!(Options::parse(&strs(&["resume", "a", "--out", "/t"])).is_err());
        assert!(Options::parse(&strs(&["resume", "a", "--trials", "5"])).is_err());
        assert!(Options::parse(&strs(&["resume", "a", "--full"])).is_err());
    }

    #[test]
    fn serve_mode_takes_one_experiment_and_its_own_knobs() {
        let (sub, opts) = Options::parse(&strs(&[
            "serve",
            "fig5",
            "--out",
            "/t/srv",
            "--trials",
            "2",
            "--port",
            "0",
            "--lease-secs",
            "5",
            "--leases",
            "8",
            "--linger-secs",
            "3",
            "--json",
        ]))
        .unwrap();
        assert_eq!(sub, "serve");
        assert_eq!(opts.inputs, vec!["fig5"]);
        assert_eq!(opts.port, Some(0));
        assert_eq!(opts.lease_ttl, Some(Duration::from_secs(5)));
        assert_eq!(opts.leases, Some(8));
        assert_eq!(opts.linger, Some(Duration::from_secs(3)));
        // No experiment, no --out, execution knobs, and --checkpoint all
        // fail up front.
        assert!(Options::parse(&strs(&["serve", "--out", "/t"])).is_err());
        assert!(Options::parse(&strs(&["serve", "a", "b", "--out", "/t"])).is_err());
        assert!(Options::parse(&strs(&["serve", "fig5"])).is_err());
        assert!(
            Options::parse(&strs(&["serve", "fig5", "--out", "/t", "--threads", "2"])).is_err()
        );
        assert!(Options::parse(&strs(&["serve", "fig5", "--out", "/t", "--checkpoint"])).is_err());
        // The serve knobs are rejected everywhere else.
        assert!(Options::parse(&strs(&["fig5", "--port", "7000"])).is_err());
        assert!(Options::parse(&strs(&["fig5", "--lease-secs", "5"])).is_err());
        assert!(Options::parse(&strs(&["fig5", "--leases", "4"])).is_err());
        assert!(Options::parse(&strs(&["fig5", "--linger-secs", "1"])).is_err());
        // Degenerate values are rejected at parse time.
        assert!(Options::parse(&strs(&[
            "serve",
            "fig5",
            "--out",
            "/t",
            "--lease-secs",
            "0"
        ]))
        .is_err());
        assert!(Options::parse(&strs(&["serve", "fig5", "--out", "/t", "--leases", "0"])).is_err());
        assert!(
            Options::parse(&strs(&["serve", "fig5", "--out", "/t", "--port", "99999"])).is_err()
        );
    }

    #[test]
    fn work_mode_needs_connect_and_rejects_grid_knobs() {
        let (sub, opts) = Options::parse(&strs(&[
            "work",
            "--connect",
            "127.0.0.1:7481",
            "--threads",
            "2",
        ]))
        .unwrap();
        assert_eq!(sub, "work");
        assert_eq!(opts.connect.as_deref(), Some("127.0.0.1:7481"));
        assert_eq!(opts.threads, Some(2));
        // Missing/bad --connect, positional args, and grid/artifact knobs
        // all fail up front.
        assert!(Options::parse(&strs(&["work"])).is_err());
        assert!(Options::parse(&strs(&["work", "--connect", "noport"])).is_err());
        assert!(Options::parse(&strs(&["work", "fig5", "--connect", "h:1"])).is_err());
        assert!(Options::parse(&strs(&["work", "--connect", "h:1", "--trials", "3"])).is_err());
        assert!(Options::parse(&strs(&["work", "--connect", "h:1", "--full"])).is_err());
        assert!(Options::parse(&strs(&["work", "--connect", "h:1", "--out", "/t"])).is_err());
        // --connect is meaningless outside `work`.
        assert!(Options::parse(&strs(&["fig5", "--connect", "h:1"])).is_err());
    }

    #[test]
    fn exec_policy_mirrors_flags() {
        let (_, opts) = Options::parse(&strs(&["fig3", "--threads", "4"])).unwrap();
        let exec = opts.exec();
        assert_eq!(exec.threads, Some(4));
        assert!(!exec.progress);
        let (_, opts) = Options::parse(&strs(&["fig3", "--full"])).unwrap();
        assert!(opts.exec().progress);
    }

    #[test]
    fn quick_vs_full_defaults() {
        let quick = Options::default();
        assert_eq!(quick.trials_or(5, 30), 5);
        assert_eq!(quick.mac_ns(), vec![10, 50, 100, 150]);
        let full = Options {
            full: true,
            ..Options::default()
        };
        assert_eq!(full.trials_or(5, 30), 30);
        assert_eq!(full.mac_ns().len(), 15);
        let overridden = Options {
            trials: Some(9),
            ..Options::default()
        };
        assert_eq!(overridden.trials_or(5, 30), 9);
    }
}
