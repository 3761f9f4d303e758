//! JSON emission for experiment results (`repro --json`).
//!
//! A minimal, dependency-free writer for the two artifact shapes the
//! harness produces: aggregate [`Series`] (one object per figure, points
//! carrying median/CI/outlier counts) and free-form row tables. Numbers are
//! printed with Rust's shortest round-trip `f64` formatting, so parsing the
//! JSON back recovers the exact bits — which is what lets the golden-file
//! regression fixtures under `tests/golden/` pin results byte-for-byte.

use crate::aggregate::Series;
use crate::fsutil;
use std::path::{Path, PathBuf};

/// JSON string escaping per RFC 8259 (quotes, backslash, control chars).
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A JSON number: shortest round-trip form; non-finite values (which no
/// aggregate should produce) degrade to `null` rather than invalid JSON.
pub(crate) fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Renders one figure's series as a JSON document.
pub fn series_json(name: &str, x_label: &str, series: &[Series]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"name\": \"{}\",\n", escape(name)));
    out.push_str(&format!("  \"x_label\": \"{}\",\n", escape(x_label)));
    out.push_str("  \"series\": [\n");
    for (si, s) in series.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", escape(&s.name)));
        out.push_str("      \"points\": [\n");
        for (pi, p) in s.points.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"x\": {}, \"median\": {}, \"ci_low\": {}, \"ci_high\": {}, \
                 \"kept\": {}, \"dropped\": {}}}{}\n",
                num(p.x),
                num(p.median),
                num(p.ci_low),
                num(p.ci_high),
                p.kept,
                p.dropped,
                if pi + 1 < s.points.len() { "," } else { "" }
            ));
        }
        out.push_str("      ]\n");
        out.push_str(&format!(
            "    }}{}\n",
            if si + 1 < series.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders a free-form row table (first row is the header) as JSON.
pub fn rows_json(name: &str, rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"name\": \"{}\",\n", escape(name)));
    out.push_str("  \"rows\": [\n");
    for (ri, row) in rows.iter().enumerate() {
        let cells: Vec<String> = row.iter().map(|c| format!("\"{}\"", escape(c))).collect();
        out.push_str(&format!(
            "    [{}]{}\n",
            cells.join(", "),
            if ri + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes one figure's series to `<dir>/<name>.json`; returns the path.
/// I/O failures come back as `Err`.
pub fn write_series(
    dir: &Path,
    name: &str,
    x_label: &str,
    series: &[Series],
) -> Result<PathBuf, String> {
    write(dir, name, series_json(name, x_label, series))
}

/// Writes a row table to `<dir>/<name>.json`; returns the path.
pub fn write_rows(dir: &Path, name: &str, rows: &[Vec<String>]) -> Result<PathBuf, String> {
    write(dir, name, rows_json(name, rows))
}

fn write(dir: &Path, name: &str, text: String) -> Result<PathBuf, String> {
    fsutil::ensure_dir(dir)?;
    let path = dir.join(format!("{name}.json"));
    fsutil::write_atomic(&path, text.as_bytes())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::SeriesPoint;
    use std::fs;

    fn sample_series() -> Vec<Series> {
        vec![
            Series {
                name: "BEB".into(),
                points: vec![SeriesPoint {
                    x: 10.0,
                    median: 5.25,
                    ci_low: 4.0,
                    ci_high: 6.5,
                    kept: 3,
                    dropped: 1,
                }],
            },
            Series {
                name: "STB".into(),
                points: vec![SeriesPoint {
                    x: 10.0,
                    median: 2.0,
                    ci_low: 2.0,
                    ci_high: 2.0,
                    kept: 4,
                    dropped: 0,
                }],
            },
        ]
    }

    #[test]
    fn series_json_shape() {
        let text = series_json("fig_test", "n", &sample_series());
        assert!(text.starts_with("{\n  \"name\": \"fig_test\""));
        assert!(text.contains("\"x_label\": \"n\""));
        assert!(text.contains("{\"x\": 10, \"median\": 5.25, \"ci_low\": 4, \"ci_high\": 6.5, \"kept\": 3, \"dropped\": 1}"));
        // Two series objects, comma-separated.
        assert_eq!(text.matches("\"points\"").count(), 2);
        assert!(text.ends_with("]\n}\n"));
    }

    #[test]
    fn rows_json_shape() {
        let text = rows_json(
            "t",
            &[vec!["a".into(), "b".into()], vec!["1".into(), "2".into()]],
        );
        assert!(text.contains("[\"a\", \"b\"],"));
        assert!(text.contains("[\"1\", \"2\"]\n"));
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let text = rows_json("quo\"te", &[vec!["x\ty".into()]]);
        assert!(text.contains("quo\\\"te"));
        assert!(text.contains("x\\ty"));
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(num(f64::INFINITY), "null");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(1.5), "1.5");
        assert_eq!(num(10.0), "10");
    }

    #[test]
    fn files_round_trip() {
        let dir = std::env::temp_dir().join(format!("jsonout-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = write_series(&dir, "fig_test", "n", &sample_series()).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(text, series_json("fig_test", "n", &sample_series()));
        let path = write_rows(&dir, "rows_test", &[vec!["a".into()]]).unwrap();
        assert!(fs::read_to_string(&path).unwrap().contains("[\"a\"]"));
        fs::remove_dir_all(dir).unwrap();
    }
}
