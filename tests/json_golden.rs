//! Golden-file regression fixtures for the JSON output (`repro --json`).
//!
//! Two quick experiments are rendered to JSON and compared byte-for-byte
//! against checked-in fixtures under `tests/golden/`:
//!
//! * `fig5` — the abstract CW-slot sweep (a `Series` artifact: every median,
//!   CI bound and outlier count of the aggregate pipeline), and
//! * `fig13` — the execution trace (a `Rows` artifact: per-span timings of
//!   one deterministic MAC trial).
//!
//! The reports that write no artifact at all (Table I, the cost model and
//! five ablations) are pinned by their rendered text instead:
//! `report_bodies.txt` holds every one of their quick-grid bodies.
//! `repro_list.txt` pins the experiment table's names, descriptions and
//! order as `repro list` prints them, and `repro_help.txt` the usage text
//! of `repro --help` before that list.
//!
//! Every trial derives its RNG from `(experiment, algorithm, n, trial)` and
//! the JSON writer prints shortest-round-trip floats, so these bytes are
//! stable across thread counts, batch sizes and re-runs; a diff means the
//! simulation or aggregation pipeline changed behaviour.
//!
//! To regenerate after an *intentional* change:
//! `REGEN_GOLDEN=1 cargo test --test json_golden`

use contention_experiments::figures::{registry, CsvBlock, Report};
use contention_experiments::jsonout;
use contention_experiments::options::Options;
use std::path::PathBuf;

/// The exact options the fixtures were generated with.
fn golden_options() -> Options {
    Options {
        trials: Some(3),
        threads: Some(2),
        ..Options::default()
    }
}

fn run_experiment(name: &str, opts: &Options) -> Report {
    let (_, _, runner) = registry()
        .into_iter()
        .find(|(n, _, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} not registered"));
    runner(opts)
}

/// Renders every artifact of a report to `(file name, JSON text)` pairs.
fn rendered_blocks(report: &Report) -> Vec<(String, String)> {
    report
        .csv
        .iter()
        .map(|block| match block {
            CsvBlock::Series {
                name,
                x_label,
                series,
            } => (
                format!("{name}.json"),
                jsonout::series_json(name, x_label, series),
            ),
            CsvBlock::Rows { name, rows } => {
                (format!("{name}.json"), jsonout::rows_json(name, rows))
            }
        })
        .collect()
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Compares `text` with the fixture `file`, or with `REGEN_GOLDEN` set,
/// writes it there.
fn check_fixture(file: &str, text: &str) {
    let path = golden_dir().join(file);
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        std::fs::write(&path, text).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run REGEN_GOLDEN=1 cargo test --test json_golden",
            path.display()
        )
    });
    assert_eq!(
        expected, text,
        "{file}: output drifted from the checked-in fixture — either a \
         regression, or an intentional change that needs REGEN_GOLDEN=1"
    );
}

fn check_against_golden(experiment: &str) {
    let report = run_experiment(experiment, &golden_options());
    let blocks = rendered_blocks(&report);
    assert!(!blocks.is_empty(), "{experiment} produced no artifacts");
    for (file, text) in blocks {
        check_fixture(&file, &text);
    }
}

#[test]
fn fig5_json_matches_golden_fixture() {
    check_against_golden("fig5");
}

#[test]
fn fig13_json_matches_golden_fixture() {
    check_against_golden("fig13");
}

/// The reports whose only output is their printed body. Between them they
/// run the residual kernel (`ablate-sem`), POLYNOMIAL on the MAC
/// (`ablate-poly`), the truncated windowed model (`ablate-trunc`) and the
/// MAC's EIFS and ACK-loss paths, none of which another fixture reads.
const BODY_ONLY_REPORTS: [&str; 7] = [
    "table1",
    "model",
    "ablate-eifs",
    "ablate-trunc",
    "ablate-sem",
    "ablate-loss",
    "ablate-poly",
];

#[test]
fn reports_without_artifacts_match_their_golden_bodies() {
    let opts = Options {
        threads: Some(2),
        ..Options::default()
    };
    let mut text = String::new();
    for name in BODY_ONLY_REPORTS {
        let report = run_experiment(name, &opts);
        assert!(
            report.csv.is_empty(),
            "{name} writes artifacts now: pin them as JSON instead"
        );
        text.push_str(&format!(
            "=== {name}: {} ===\n{}",
            report.title, report.body
        ));
    }
    check_fixture("report_bodies.txt", &text);
}

/// Every JSON fixture parses as JSON-shaped text: balanced braces and the
/// expected top-level keys (cheap structural guard so a bad regen can't
/// check in garbage, and a truncated `--full` fixture fails here, not only
/// in CI's diff against a `--full` run).
#[test]
fn golden_fixtures_are_well_formed() {
    let mut files: Vec<PathBuf> = std::fs::read_dir(golden_dir())
        .expect("read tests/golden")
        .map(|entry| entry.expect("a directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    assert!(files.len() >= 17, "only {} JSON fixtures", files.len());
    for path in files {
        let file = path.display();
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("unreadable fixture {file}: {e}"));
        assert!(text.starts_with("{\n"), "{file}: not an object");
        assert!(text.ends_with("}\n"), "{file}: unterminated object");
        assert!(text.contains("\"name\""), "{file}: missing name");
        let opens = text.matches('{').count();
        let closes = text.matches('}').count();
        assert_eq!(opens, closes, "{file}: unbalanced braces");
    }
}

/// The stdout of `repro <arg>`, run from the built binary.
fn repro_stdout(arg: &str) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg(arg)
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

/// `repro list` names every experiment in table order: the order `repro
/// all` runs, CI's one-at-a-time loop walks and the benchmark's reference
/// digests assign each artifact by.
#[test]
fn repro_list_matches_its_golden_fixture() {
    check_fixture("repro_list.txt", &repro_stdout("list"));
}

/// `repro --help` up to its experiment list (which `repro_list.txt` pins):
/// every mode's usage line, printed from the mode table, then the flags. A
/// change to the usage text shows up as a diff of this fixture, and README
/// quotes the fixture's usage lines verbatim.
#[test]
fn repro_help_matches_its_golden_fixture() {
    let help = repro_stdout("--help");
    let (usage, _) = help
        .split_once("\nexperiments:\n")
        .expect("an experiment list");
    check_fixture("repro_help.txt", usage);
    let modes = usage.split("\n\n").next().expect("the usage lines");
    let readme = include_str!("../README.md");
    assert!(
        readme.contains(&format!("```\n{modes}\n```\n")),
        "README's `repro` usage block differs from the usage lines of repro_help.txt"
    );
}
