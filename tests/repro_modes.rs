//! Which flags each `repro` mode takes, pinned pair by pair: every one of
//! the 14 flags against every one of the 8 modes, with every refusal in
//! the one wording, and each mode's positional arguments and needed flags.

use contention_experiments::options::{Options, MAX_THREADS};
use std::process::Command;

/// The modes, each as a command line it accepts: its positional arguments
/// and the flags it needs, nothing else.
const MODES: [&[&str]; 8] = [
    &["list"],
    &["all"],
    &["fig5"],
    &["shard", "fig5", "--shard", "0/2", "--out", "D"],
    &["merge", "A", "--out", "D"],
    &["resume", "D"],
    &["serve", "fig5", "--out", "D"],
    &["work", "--connect", "h:1"],
];

/// Every flag with a valid value, and whether each mode of [`MODES`] takes
/// it (`y`) or refuses it (`-`).
#[rustfmt::skip]
const TAKES: [(&str, &[&str], &str); 14] = [
    //                                   list all fig5 shard merge resume serve work
    ("--full",              &[],        "-yyy--y-"),
    ("--trials",            &["3"],     "-yyy--y-"),
    ("--threads",           &["2"],     "-yyy-y-y"),
    ("--out",               &["D"],     "-yyyy-y-"),
    ("--json",              &[],        "-yy-yyy-"),
    ("--shard",             &["1/2"],   "---y----"),
    ("--checkpoint",        &[],        "--y--y--"),
    ("--checkpoint-secs",   &["5"],     "--y--y--"),
    ("--checkpoint-trials", &["64"],    "--y--y--"),
    ("--port",              &["0"],     "------y-"),
    ("--leases",            &["4"],     "------y-"),
    ("--lease-secs",        &["5"],     "------y-"),
    ("--linger-secs",       &["0"],     "------y-"),
    ("--connect",           &["h:2"],   "-------y"),
];

fn parse(args: &[&str]) -> Result<(String, Options), String> {
    Options::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
}

#[test]
fn every_mode_takes_exactly_the_flags_of_its_row() {
    let takes_out = TAKES[3].2.as_bytes();
    for (flag, value, row) in TAKES {
        for ((mode, base), taken) in MODES.iter().enumerate().zip(row.chars()) {
            let mut args = base.to_vec();
            if !base.contains(&flag) {
                args.push(flag);
                args.extend(value);
            }
            // `--json` and `--checkpoint*` need `--out` wherever the mode
            // takes it.
            let writes = flag == "--json" || flag.starts_with("--checkpoint");
            if taken == 'y' && writes && takes_out[mode] == b'y' && !args.contains(&"--out") {
                args.extend(["--out", "D"]);
            }
            let parsed = parse(&args);
            if taken == 'y' {
                assert!(parsed.is_ok(), "{args:?}: {parsed:?}");
            } else {
                let sub = base[0];
                let refusal = format!("{flag} does not apply to `{sub}`");
                assert_eq!(parsed, Err(refusal), "{args:?}");
            }
        }
    }
}

#[test]
fn every_mode_needs_its_positional_arguments_and_flags() {
    for base in MODES {
        assert!(parse(base).is_ok(), "{base:?}");
    }
    let (_, merge) = parse(&["merge", "A", "B", "C", "--out", "D"]).unwrap();
    assert_eq!(merge.inputs, ["A", "B", "C"]);
    for (args, expect) in [
        (&["list", "X"][..], "`list` takes no arguments, not [\"X\"]"),
        (&["all", "X"], "`all` takes no arguments, not [\"X\"]"),
        (&["fig5", "X"], "`fig5` takes no arguments, not [\"X\"]"),
        (
            &["shard", "--shard", "0/2", "--out", "D"],
            "`shard` takes one argument, not []",
        ),
        (
            &["shard", "fig5", "fig7", "--shard", "0/2", "--out", "D"],
            "`shard` takes one argument, not [\"fig5\", \"fig7\"]",
        ),
        (&["shard", "fig5", "--out", "D"], "`shard` needs --shard"),
        (&["shard", "fig5", "--shard", "0/2"], "`shard` needs --out"),
        (
            &["merge", "--out", "D"],
            "`merge` takes one or more arguments, not []",
        ),
        (&["merge", "A"], "`merge` needs --out"),
        (&["resume"], "`resume` takes one argument, not []"),
        (
            &["resume", "D", "E"],
            "`resume` takes one argument, not [\"D\", \"E\"]",
        ),
        (
            &["serve", "--out", "D"],
            "`serve` takes one argument, not []",
        ),
        (
            &["serve", "fig5", "fig7", "--out", "D"],
            "`serve` takes one argument, not [\"fig5\", \"fig7\"]",
        ),
        (&["serve", "fig5"], "`serve` needs --out"),
        (&["work"], "`work` needs --connect"),
        (
            &["work", "X", "--connect", "h:1"],
            "`work` takes no arguments, not [\"X\"]",
        ),
    ] {
        assert_eq!(parse(args), Err(expect.to_string()), "{args:?}");
    }
}

/// Every mode that takes `--threads` refuses more than `MAX_THREADS`, at
/// parse time, before any thread starts.
#[test]
fn every_mode_bounds_its_threads() {
    let (flag, _, row) = TAKES[2];
    assert_eq!(flag, "--threads");
    for (base, taken) in MODES.iter().zip(row.chars()) {
        if taken != 'y' {
            continue;
        }
        let with = |threads: &'static str| {
            let mut args = base.to_vec();
            args.extend(["--threads", threads]);
            parse(&args)
        };
        assert_eq!(
            with("1024").unwrap().1.threads,
            Some(MAX_THREADS),
            "{base:?}"
        );
        for threads in ["1025", "18446744073709551615"] {
            let refusal = format!("--threads {threads} is outside 1..=1024");
            assert_eq!(with(threads), Err(refusal), "{base:?}");
        }
    }
}

/// `list` takes no flags: one with a flag exits 1 and says why on stderr,
/// leaving stdout empty for whatever reads it.
#[test]
fn list_with_a_flag_exits_1() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["list", "--full"])
        .output()
        .expect("spawn repro list --full");
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(String::from_utf8(out.stdout).unwrap(), "");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(
        stderr,
        "error: --full does not apply to `list`\nrun `repro --help` for usage\n"
    );
}
