//! The stdout lines `perfbench/run.py` parses, pinned against the built
//! `repro` binary. The benchmark finds the end of each experiment, the
//! coordinator's port, its completion tally, its artifacts and every
//! worker lease by these lines, so a reworded line breaks the benchmark.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-bench-stdout-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The unsigned integers of `text`, in order.
fn numbers(text: &str) -> Vec<u64> {
    text.split(|c: char| !c.is_ascii_digit())
        .filter_map(|tok| tok.parse().ok())
        .collect()
}

#[test]
fn the_lines_the_benchmark_parses_keep_their_shape() {
    // `[<name>] done in` ends each experiment of a direct run.
    let direct = Command::new(REPRO)
        .args(["fig5", "--trials", "2"])
        .output()
        .expect("spawn repro");
    assert!(direct.status.success());
    let stdout = String::from_utf8(direct.stdout).unwrap();
    assert!(
        stdout.lines().any(|l| l.starts_with("[fig5] done in ")),
        "{stdout}"
    );

    // A coordinator and one worker.
    let out = scratch("serve");
    let mut serve = Command::new(REPRO)
        .args(["serve", "fig5", "--trials", "2", "--port", "0"])
        .args(["--linger-secs", "0", "--json", "--out"])
        .arg(&out)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn repro serve");
    let mut lines = BufReader::new(serve.stdout.take().unwrap()).lines();
    // `[serve] <exp> on <addr>:<port>: …`: the benchmark takes the port
    // from this line, exactly like this.
    let bound = lines
        .by_ref()
        .map(|l| l.unwrap())
        .find(|l| l.starts_with("[serve] fig5 on "))
        .expect("the coordinator announces its address");
    let port = bound
        .split_once(" on ")
        .unwrap()
        .1
        .split(':')
        .nth(1)
        .unwrap();
    port.parse::<u16>().unwrap_or_else(|_| panic!("{bound}"));
    let work = Command::new(REPRO)
        .args(["work", "--connect", &format!("127.0.0.1:{port}")])
        .args(["--threads", "1"])
        .output()
        .expect("spawn repro work");
    if !work.status.success() {
        // The sweep cannot finish; do not wait on the coordinator.
        let _ = serve.kill();
    }
    assert!(
        work.status.success(),
        "{}",
        String::from_utf8_lossy(&work.stderr)
    );
    let rest: Vec<String> = lines.map(|l| l.unwrap()).collect();
    assert!(serve.wait().unwrap().success());

    // `[serve] <exp> complete: <a> posts accepted, <d> duplicate trials
    // discarded, <r> leases re-issued`: the fleet counters.
    let complete = rest
        .iter()
        .find(|l| l.starts_with("[serve] fig5 complete: "))
        .expect("completion tally");
    let counts = numbers(complete.split_once(": ").unwrap().1);
    assert_eq!(counts.len(), 3, "{complete}");
    assert_eq!(
        *complete,
        format!(
            "[serve] fig5 complete: {} posts accepted, {} duplicate trials discarded, \
             {} leases re-issued",
            counts[0], counts[1], counts[2]
        )
    );
    // `[serve] CSVs + JSON written to`: the clock stops here.
    assert!(
        rest.iter()
            .any(|l| l.starts_with("[serve] CSVs + JSON written to ")),
        "{rest:?}"
    );

    // `[work] lease <id>: <t> trials across <c> cells of <exp>` per claim,
    // and `[work] lease <id> accepted: …` per accepted result.
    let work = String::from_utf8(work.stdout).unwrap();
    let claims: Vec<&str> = work
        .lines()
        .filter(|l| l.starts_with("[work] lease ") && l.contains(" trials across "))
        .collect();
    assert!(!claims.is_empty(), "{work}");
    for claim in &claims {
        let n = numbers(claim);
        assert_eq!(
            *claim,
            format!(
                "[work] lease {}: {} trials across {} cells of fig5",
                n[0], n[1], n[2]
            )
        );
    }
    let accepted = work
        .lines()
        .filter(|l| l.starts_with("[work] lease ") && l.contains(" accepted: "))
        .count();
    assert_eq!(accepted, claims.len(), "{work}");
    assert_eq!(accepted, counts[0] as usize, "one accepted POST per lease");
    let _ = std::fs::remove_dir_all(&out);
}

/// `[<name>] CSVs + JSON written to <dir>` announces only artifacts that
/// exist: a report without any (`ablate-sem`) prints no such line and
/// leaves the directory empty, and one with some (`fig5`) prints it.
#[test]
fn only_written_artifacts_are_announced() {
    for (name, has_artifacts) in [("ablate-sem", false), ("fig5", true)] {
        let out = scratch(name);
        let run = Command::new(REPRO)
            .args([name, "--trials", "2", "--json", "--out"])
            .arg(&out)
            .output()
            .expect("spawn repro");
        assert!(run.status.success());
        let stdout = String::from_utf8(run.stdout).unwrap();
        let line = format!("[{name}] CSVs + JSON written to {}", out.display());
        assert_eq!(stdout.lines().any(|l| l == line), has_artifacts, "{stdout}");
        let files = std::fs::read_dir(&out).map_or(0, |dir| dir.count());
        assert_eq!(
            files > 0,
            has_artifacts,
            "{files} files in {}",
            out.display()
        );
        let _ = std::fs::remove_dir_all(&out);
    }
}
