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

fn run_experiment(name: &str) -> Report {
    let (_, _, runner) = registry()
        .into_iter()
        .find(|(n, _, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} not registered"));
    runner(&golden_options())
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

fn check_against_golden(experiment: &str) {
    let report = run_experiment(experiment);
    let blocks = rendered_blocks(&report);
    assert!(!blocks.is_empty(), "{experiment} produced no artifacts");
    let regen = std::env::var_os("REGEN_GOLDEN").is_some();
    for (file, text) in blocks {
        let path = golden_dir().join(&file);
        if regen {
            std::fs::create_dir_all(golden_dir()).expect("create golden dir");
            std::fs::write(&path, &text).expect("write fixture");
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing fixture {} ({e}); run REGEN_GOLDEN=1 cargo test --test json_golden",
                path.display()
            )
        });
        assert_eq!(
            expected, text,
            "{file}: JSON output drifted from the checked-in fixture — either a \
             regression, or an intentional change that needs REGEN_GOLDEN=1"
        );
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

/// The fixtures themselves parse as JSON-shaped text: balanced braces and
/// the expected top-level keys (cheap structural guard so a bad regen can't
/// check in garbage).
#[test]
fn golden_fixtures_are_well_formed() {
    for file in [
        "fig5_cw_slots_abstract.json",
        "fig13_trace_spans.json",
        "fig5_full_cw_slots_abstract.json",
        "table2_full_cw_growth.json",
        "table3_full_collision_growth.json",
        "fig7_full_total_time_64.json",
        "fig8_full_total_time_1024.json",
        "fig15_full_large_n_cw_slots.json",
        "fig16_full_collision_ratios.json",
        "soften_full_abstract_cw_slots.json",
        "soften_full_noise_cw_slots.json",
    ] {
        let path = golden_dir().join(file);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
        assert!(text.starts_with("{\n"), "{file}: not an object");
        assert!(text.ends_with("}\n"), "{file}: unterminated object");
        assert!(text.contains("\"name\""), "{file}: missing name");
        let opens = text.matches('{').count();
        let closes = text.matches('}').count();
        assert_eq!(opens, closes, "{file}: unbalanced braces");
    }
}
