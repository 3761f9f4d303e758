//! CLI options shared by every `repro` subcommand, and the one table of the
//! flags each mode takes.

use contention_sim::engine::ExecPolicy;
use contention_sim::monitor::SnapshotCadence;
use std::fmt::Display;
use std::ops::RangeInclusive;
use std::path::PathBuf;
use std::slice::Iter;
use std::str::FromStr;
use std::time::Duration;

/// The most trials a sweep may run per cell, from `--trials` or from a
/// lease, checkpoint or shard artifact. Every (cell, metric) buffer is
/// sized to the trial count up front, so a larger count is refused before
/// anything is allocated; the paper uses at most 30.
pub const MAX_TRIALS: u32 = 1_000_000;

/// The most worker threads `--threads` may ask for. A sweep spawns at most
/// one thread per core whatever the flag says, so a larger count can only
/// be a mistake, and it is refused before anything starts.
pub const MAX_THREADS: usize = 1024;

/// `trials` when it lies in `1..=MAX_TRIALS`, else an error naming it as
/// `what`: the one check of a trial count, from the command line or from
/// an artifact.
pub(crate) fn trial_count(trials: u32, what: &str) -> Result<u32, String> {
    within(trials, MAX_TRIALS, what)
}

/// `count` when it lies in `1..=max`, else an error naming it as `what`.
fn within<T: Copy + PartialOrd + From<u8> + Display>(
    count: T,
    max: T,
    what: &str,
) -> Result<T, String> {
    if (T::from(1)..=max).contains(&count) {
        Ok(count)
    } else {
        Err(format!("{what} {count} is outside 1..={max}"))
    }
}

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
    /// Worker threads (`None` = all cores), at most [`MAX_THREADS`].
    pub threads: Option<usize>,
    /// Also write JSON series next to the CSVs (requires `--out`, except for
    /// `resume`, which writes into its run directory).
    pub json: bool,
    /// `--shard i/N`: run only shard `i` of `N` (the `shard` subcommand).
    pub shard: Option<(u32, u32)>,
    /// `--checkpoint[-secs/-trials]`: periodically snapshot in-flight state
    /// into `--out/checkpoints/` (and refresh `metrics.json`) on this
    /// cadence. Bare `--checkpoint` sets neither axis, and the run applies
    /// its default.
    pub checkpoint: Option<SnapshotCadence>,
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
    /// `shard`/`serve`, the artifact directories for `merge`, the run
    /// directory for `resume`. Empty elsewhere.
    pub inputs: Vec<String>,
}

/// One `repro` mode: how many positional arguments it takes, and its
/// usage after `repro <sub>`: those arguments, then every flag it takes,
/// bracketed unless the mode needs it. Every other flag is refused, so the
/// usage is the mode's whole command line.
struct Mode {
    /// The subcommand; [`EXPERIMENT`] stands for every experiment name.
    sub: &'static str,
    count: RangeInclusive<usize>,
    /// A `\n` breaks the line where `repro --help` wraps it.
    usage: &'static str,
    /// What the mode does, for `repro --help`.
    about: &'static str,
}

/// The row of every subcommand that has none of its own.
const EXPERIMENT: &str = "<experiment>";

static MODES: [Mode; 8] = [
    Mode {
        sub: "list",
        count: 0..=0,
        usage: "",
        about: "print every experiment and what it reproduces",
    },
    Mode {
        sub: "all",
        count: 0..=0,
        usage: "[--full] [--trials N] [--threads N] [--out DIR] [--json]",
        about: "run every experiment in table order, each shared sweep once",
    },
    Mode {
        sub: EXPERIMENT,
        count: 0..=0,
        usage: "[--full] [--trials N] [--threads N] [--out DIR] [--json]\n\
                [--checkpoint] [--checkpoint-secs N] [--checkpoint-trials N]",
        about: "run one experiment; --checkpoint* makes the run crash-safe",
    },
    Mode {
        sub: "shard",
        count: 1..=1,
        usage: "<experiment> --shard i/N --out DIR [--full] [--trials N]\n\
                [--threads N]",
        about: "run lease i of the N that `serve --leases N` cuts into a state artifact",
    },
    Mode {
        sub: "merge",
        count: 1..=usize::MAX,
        usage: "DIR... --out DIR [--json]",
        about: "fold state artifacts and report, as one process would",
    },
    Mode {
        sub: "resume",
        count: 1..=1,
        usage: "DIR [--threads N] [--json]\n\
                [--checkpoint] [--checkpoint-secs N] [--checkpoint-trials N]",
        about: "continue the checkpointed run in DIR, writing into DIR",
    },
    Mode {
        sub: "serve",
        count: 1..=1,
        usage: "<experiment> --out DIR [--full] [--trials N] [--json]\n\
                [--port P] [--leases N] [--lease-secs S] [--linger-secs S]",
        about: "coordinate `repro work` processes over HTTP and report",
    },
    Mode {
        sub: "work",
        count: 0..=0,
        usage: "--connect HOST:PORT [--threads N]",
        about: "run leases pulled from a coordinator",
    },
];

impl Mode {
    /// The row `sub` runs under.
    fn of(sub: &str) -> &'static Mode {
        let row = |name: &str| MODES.iter().find(|mode| mode.sub == name);
        row(sub)
            .or_else(|| row(EXPERIMENT))
            .expect("MODES has an <experiment> row")
    }

    /// The flags the usage shows, each with whether the mode needs it.
    fn flags(&self) -> impl Iterator<Item = (&'static str, bool)> {
        self.usage.split_whitespace().filter_map(|word| {
            let flag = word.trim_start_matches('[').trim_end_matches(']');
            flag.starts_with("--")
                .then_some((flag, !word.starts_with('[')))
        })
    }

    fn takes(&self, flag: &str) -> bool {
        self.flags().any(|(f, _)| f == flag)
    }
}

/// Every mode's usage line from the table, each followed by what the mode
/// does: the head of `repro --help`.
pub(crate) fn usage() -> String {
    let mut text = String::new();
    for mode in &MODES {
        let line = format!("repro {} {}", mode.sub, mode.usage);
        let line = line.trim_end().replace('\n', "\n          ");
        text += &format!("  {line}\n      {}\n", mode.about);
    }
    text
}

/// Reads `flag`'s value off `args`: a `T`, and with `positive` not zero.
fn value<T: FromStr + Default + PartialEq>(
    args: &mut Iter<'_, String>,
    flag: &str,
    positive: bool,
) -> Result<T, String> {
    let v = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
    let value: T = v.parse().map_err(|_| format!("bad {flag} value {v:?}"))?;
    if positive && value == T::default() {
        return Err(format!("{flag} must be at least 1"));
    }
    Ok(value)
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

    /// Parses `repro`-style flags. Returns `(subcommand, options)`, or an
    /// error, before anything runs, for a command line the subcommand's row
    /// of the mode table does not admit.
    pub fn parse(args: &[String]) -> Result<(String, Options), String> {
        let mut sub = None;
        let mut opts = Options::default();
        let mut seen = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let flag = arg.as_str();
            match flag {
                "--full" => opts.full = true,
                "--json" => opts.json = true,
                "--trials" => opts.trials = Some(trial_count(value(&mut it, flag, false)?, flag)?),
                "--threads" => {
                    opts.threads = Some(within(value(&mut it, flag, true)?, MAX_THREADS, flag)?)
                }
                "--out" => opts.out_dir = Some(value(&mut it, flag, false)?),
                "--shard" => {
                    opts.shard = Some(parse_shard(&value::<String>(&mut it, flag, false)?)?)
                }
                "--checkpoint" => {
                    opts.checkpoint.get_or_insert_default();
                }
                "--checkpoint-secs" => {
                    let every = Duration::from_secs(value(&mut it, flag, true)?);
                    opts.checkpoint.get_or_insert_default().every = Some(every);
                }
                "--checkpoint-trials" => {
                    let every = value(&mut it, flag, true)?;
                    opts.checkpoint.get_or_insert_default().every_trials = Some(every);
                }
                "--port" => opts.port = Some(value(&mut it, flag, false)?),
                "--leases" => opts.leases = Some(value(&mut it, flag, true)?),
                "--lease-secs" => {
                    opts.lease_ttl = Some(Duration::from_secs(value(&mut it, flag, true)?));
                }
                "--linger-secs" => {
                    opts.linger = Some(Duration::from_secs(value(&mut it, flag, false)?));
                }
                "--connect" => {
                    let addr: String = value(&mut it, flag, false)?;
                    if !addr.contains(':') {
                        return Err(format!(
                            "bad --connect address {addr:?} (expected HOST:PORT)"
                        ));
                    }
                    opts.connect = Some(addr);
                }
                _ if flag.starts_with("--") => return Err(format!("unknown flag {flag:?}")),
                _ => {
                    match sub {
                        None => sub = Some(arg.clone()),
                        Some(_) => opts.inputs.push(arg.clone()),
                    }
                    continue;
                }
            }
            seen.push(flag);
        }
        let sub = sub.ok_or("missing subcommand")?;
        let mode = Mode::of(&sub);
        if let Some(flag) = seen.iter().find(|flag| !mode.takes(flag)) {
            return Err(format!("{flag} does not apply to `{sub}`"));
        }
        if !mode.count.contains(&opts.inputs.len()) {
            let wanted = match mode.count.end() {
                0 => "no arguments",
                1 => "one argument",
                _ => "one or more arguments",
            };
            return Err(format!("`{sub}` takes {wanted}, not {:?}", opts.inputs));
        }
        let needed = mode
            .flags()
            .find(|&(flag, needs)| needs && !seen.contains(&flag));
        if let Some((flag, _)) = needed {
            return Err(format!("`{sub}` needs {flag}"));
        }
        // `resume DIR` writes into DIR; every mode that takes --out writes
        // its JSON and its checkpoints there.
        if opts.out_dir.is_none() && mode.takes("--out") {
            let writer = seen
                .iter()
                .find(|flag| **flag == "--json" || flag.starts_with("--checkpoint"));
            if let Some(flag) = writer {
                return Err(format!("{flag} needs --out DIR to write into"));
            }
        }
        Ok((sub, opts))
    }
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
    fn json_and_checkpoints_without_out_are_rejected_up_front() {
        // The combination must fail at parse time — before any trial runs —
        // not when the report writer finally looks for its directory.
        for (args, flag) in [
            (vec!["fig3", "--json"], "--json"),
            (vec!["all", "--json"], "--json"),
            (vec!["fig5", "--checkpoint"], "--checkpoint"),
            (vec!["fig5", "--checkpoint-secs", "5"], "--checkpoint-secs"),
        ] {
            let err = Options::parse(&strs(&args)).unwrap_err();
            assert_eq!(err, format!("{flag} needs --out DIR to write into"));
        }
        // `resume DIR` writes into DIR itself.
        assert!(Options::parse(&strs(&["resume", "D", "--json", "--checkpoint"])).is_ok());
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
    fn value_flags_fail_on_missing_bad_and_zero_values() {
        // Zero trials leave nothing to aggregate, and zero threads would
        // silently mean one: both fail before any work starts.
        for (args, expect) in [
            (
                vec!["fig5", "--trials", "0"],
                "--trials 0 is outside 1..=1000000",
            ),
            (
                vec!["fig5", "--trials", "4294967295"],
                "--trials 4294967295 is outside 1..=1000000",
            ),
            (vec!["fig5", "--trials", "x"], "bad --trials value \"x\""),
            (vec!["fig5", "--trials"], "--trials needs a value"),
            (
                vec!["fig5", "--threads", "0"],
                "--threads must be at least 1",
            ),
            (
                vec!["work", "--connect", "h:1", "--threads", "0"],
                "--threads must be at least 1",
            ),
            (vec!["fig5", "--out"], "--out needs a value"),
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
    fn checkpoint_flags_set_the_cadence() {
        let parse = |args: &[&str]| Options::parse(&strs(args)).unwrap().1.checkpoint;
        // Bare --checkpoint leaves the cadence to the run.
        assert_eq!(
            parse(&["fig5", "--checkpoint", "--out", "/t"]),
            Some(SnapshotCadence::default())
        );
        // Either cadence flag implies --checkpoint.
        assert_eq!(
            parse(&["fig5", "--checkpoint-secs", "5", "--out", "/t"]),
            Some(SnapshotCadence::secs(5))
        );
        assert_eq!(
            parse(&["fig5", "--checkpoint-trials", "64", "--out", "/t"]),
            Some(SnapshotCadence::trials(64))
        );
        assert_eq!(
            parse(&["resume", "/t/run", "--checkpoint-secs", "9"]),
            Some(SnapshotCadence::secs(9))
        );
        // Zero cadences are rejected.
        assert!(Options::parse(&strs(&["fig5", "--checkpoint-secs", "0", "--out", "/t"])).is_err());
        assert!(
            Options::parse(&strs(&["fig5", "--checkpoint-trials", "0", "--out", "/t"])).is_err()
        );
    }

    #[test]
    fn serve_and_work_take_their_own_knobs() {
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
            "0",
            "--json",
        ]))
        .unwrap();
        assert_eq!(sub, "serve");
        assert_eq!(opts.inputs, vec!["fig5"]);
        assert_eq!(opts.port, Some(0));
        assert_eq!(opts.lease_ttl, Some(Duration::from_secs(5)));
        assert_eq!(opts.leases, Some(8));
        assert_eq!(opts.linger, Some(Duration::ZERO));
        // Degenerate values are rejected at parse time.
        for (flag, v) in [
            ("--lease-secs", "0"),
            ("--leases", "0"),
            ("--port", "99999"),
        ] {
            let args = ["serve", "fig5", "--out", "/t", flag, v];
            assert!(Options::parse(&strs(&args)).is_err(), "{args:?}");
        }
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
        assert!(Options::parse(&strs(&["work", "--connect", "noport"])).is_err());
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
