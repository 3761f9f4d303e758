//! Untrusted bytes never panic the readers. `repro serve` parses POST
//! bodies off the network, and `resume`/`merge` parse files a crash or a
//! careless copy may have damaged, so `Json::parse`, `ShardState::parse`
//! and `missing_work` must answer every input with a value or an error.
//!
//! The inputs are real artifacts: the golden fig5 series, a complete and
//! a partial (`null`-holed) fig5 `shard_state/v1` and a `metrics.json`
//! document. Random byte edits, truncations and splices of them must not
//! panic, and an edited document that still parses must re-encode through
//! `to_json` to text that parses and re-encodes to itself. Texts are
//! compared, not states: a `null` sample reads back as NaN, and NaN ≠ NaN.
//!
//! The generator is seeded by each test's name, so a failure reproduces
//! exactly.

use contention_experiments::checkpoint::{missing_work, MetricsDoc};
use contention_experiments::figures::sharding::find_shardable;
use contention_experiments::figures::shared::SweepHooks;
use contention_experiments::jsonin::Json;
use contention_experiments::options::Options;
use contention_experiments::shard::ShardState;
use contention_sim::engine::TrialRange;
use proptest::collection;
use proptest::prelude::*;
use std::sync::OnceLock;

/// The real documents every edit starts from.
fn inputs() -> &'static [String] {
    static INPUTS: OnceLock<Vec<String>> = OnceLock::new();
    INPUTS.get_or_init(|| {
        let entry = find_shardable("fig5").unwrap();
        let opts = Options {
            trials: Some(3),
            threads: Some(2),
            ..Options::default()
        };
        let grid = (entry.grid)(&opts);
        let state = |hooks: &SweepHooks| {
            let cells = (entry.cells)(&opts, hooks);
            ShardState::from_cells("fig5", false, (0, 1), &grid, &cells).to_json()
        };
        // Trials 0 and 1 of every other cell: the rest of those cells are
        // `null` holes, and the other cells are absent.
        let plan: Vec<TrialRange> = (0..grid.cell_count())
            .step_by(2)
            .map(|cell| TrialRange { cell, lo: 0, hi: 2 })
            .collect();
        let partial = state(&SweepHooks {
            plan: Some(&plan),
            ..SweepHooks::default()
        });
        assert!(partial.contains("null"), "{partial}");
        let metrics = MetricsDoc {
            experiment: "fig5".to_string(),
            cells_done: 3,
            cells_total: 16,
            trials_done: 20,
            trials_total: 48,
            work_done: 1234.5,
            work_total: 4987.25,
            elapsed_secs: 0.125,
            trials_per_sec: 160.0,
            trials_per_sec_per_worker: 80.0,
            workers: 2,
            eta_secs: f64::NAN,
            checkpoint_seq: 4,
            finished: false,
        };
        vec![
            include_str!("golden/fig5_cw_slots_abstract.json").to_string(),
            state(&SweepHooks::none()),
            partial,
            metrics.to_json(),
        ]
    })
}

/// Bytes JSON gives a meaning to; half of all edits write one of them.
const PALETTE: &[u8] = b"{}[]\",:0123456789.-+eEnulltrfas \\\n";

/// One edit: its kind, where it lands, a length or offset, and a byte.
type Edit = (u8, usize, usize, u8);

/// `doc` with `edits` applied in turn: a byte overwritten, inserted or
/// deleted, a run of up to 15 bytes deleted, a truncation, or a span of up
/// to 15 bytes replaced by a piece (up to 64 bytes) of any input.
fn edited(doc: &str, edits: &[Edit]) -> String {
    let mut out = doc.as_bytes().to_vec();
    for &(kind, at, len, byte) in edits {
        let at = at % (out.len() + 1);
        let end = (at + len % 16).min(out.len());
        let new = if byte < 128 {
            PALETTE[usize::from(byte) % PALETTE.len()]
        } else {
            byte
        };
        match kind {
            0 if at < out.len() => out[at] = new,
            0 | 1 => out.insert(at, new),
            2 => drop(out.drain(at..end)),
            3 => out.truncate(at),
            _ => {
                let source = inputs()[usize::from(byte) % inputs().len()].as_bytes();
                let from = len % source.len();
                let to = (from + 1 + len / source.len() % 64).min(source.len());
                out.splice(at..end, source[from..to].iter().copied());
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Runs every reader on `text`. Whatever parses as a shard state or a
/// metrics document must re-encode to a fixed point. Returns how many of
/// the two parsed.
fn read(text: &str) -> Result<usize, TestCaseError> {
    let _ = Json::parse(text);
    let mut parsed = 0;
    if let Ok(state) = ShardState::parse(text) {
        parsed += 1;
        let _ = missing_work(&state);
        let again = state.to_json();
        let back = ShardState::parse(&again)
            .map_err(|e| TestCaseError::fail(format!("{e} in the re-encoded\n{again}")))?;
        prop_assert_eq!(back.to_json(), again);
    }
    if let Ok(doc) = MetricsDoc::parse(text) {
        parsed += 1;
        let again = doc.to_json();
        let back = MetricsDoc::parse(&again)
            .map_err(|e| TestCaseError::fail(format!("{e} in the re-encoded\n{again}")))?;
        prop_assert_eq!(back.to_json(), again);
    }
    Ok(parsed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// Up to five random edits of one input.
    #[test]
    fn edited_artifacts_never_panic_the_readers(
        pick in 0usize..4,
        edits in collection::vec((0u8..5, any::<usize>(), any::<usize>(), any::<u8>()), 1..6),
    ) {
        read(&edited(&inputs()[pick], &edits))?;
    }
}

/// Every prefix of every input, the shape a write killed mid-file leaves.
#[test]
fn every_truncation_is_refused_or_read() {
    for doc in inputs() {
        for end in 0..doc.len() {
            read(&doc[..end]).unwrap();
        }
    }
}

/// Every digit of every input turned into each other digit: most of these
/// documents still parse, so the fixed-point check is not vacuous.
#[test]
fn digit_edits_re_encode_to_a_fixed_point() {
    for (i, doc) in inputs().iter().enumerate() {
        let mut parsed = 0;
        for (at, old) in doc.bytes().enumerate() {
            if !old.is_ascii_digit() {
                continue;
            }
            for digit in (b'0'..=b'9').filter(|&d| d != old) {
                let mut bytes = doc.clone().into_bytes();
                bytes[at] = digit;
                parsed += read(&String::from_utf8(bytes).unwrap()).unwrap();
            }
        }
        // The series fixture is neither kind; the other three mostly parse.
        assert_eq!(parsed == 0, i == 0, "input {i}: {parsed} parsed");
    }
}
