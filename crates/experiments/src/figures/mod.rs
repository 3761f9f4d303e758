//! One module per table/figure of the paper's evaluation, and the one table
//! of every experiment `repro` runs.
//!
//! The table, `EXPERIMENTS`, holds one row per experiment in paper order:
//! the order `repro list` prints and `repro all` runs. A row is one of two
//! kinds:
//!
//! * **whole** — a runner called as-is (`table1`, `fig13`, `fig14`,
//!   `decomp`, `rtscts`, `model`, the six ablations and `soften`);
//! * **split** — stated once as a [`SweepDef`](shared::SweepDef), the
//!   metrics the experiment folds out of it and a report over the folded
//!   cells. The row's runner and its [`ShardableEntry`] halves are built
//!   from that, so `repro shard`, `serve`, `--checkpoint` and the sweep
//!   sharing of `repro all` take every split row.
//!
//! [`registry`], [`sharding::shardable_registry`],
//! [`sharding::find_shardable`] and [`sharding::shardable_names`] are views
//! of the table.

pub mod ablations;
pub mod abstract_cw;
pub mod ack_timeouts;
pub mod best_of_k;
pub mod cw_slots;
pub mod decomposition;
pub mod dynamic_traffic;
pub mod min_packet;
pub mod model_check;
pub mod noisy;
pub mod payload_regression;
pub mod rts_cts;
pub mod saturation;
pub mod scale;
pub mod sharding;
pub mod shared;
pub mod tables;
pub mod total_time;
pub mod trace_fig13;

use crate::aggregate::Series;
use crate::options::Options;
use crate::summary::Metric;
use crate::{csvout, jsonout};
use sharding::ShardableEntry;
use shared::{SweepHooks, MAC_1024, MAC_12, MAC_64};
use std::path::Path;

/// A CSV artifact a figure wants written alongside its text output.
#[derive(Debug, Clone)]
pub enum CsvBlock {
    Series {
        name: String,
        x_label: String,
        series: Vec<Series>,
    },
    Rows {
        name: String,
        rows: Vec<Vec<String>>,
    },
}

/// The result of regenerating one table/figure.
#[derive(Debug, Clone)]
pub struct Report {
    /// e.g. "Figure 7 — total time, 64 B payload".
    pub title: String,
    /// Rendered text: tables, percentage lines, commentary.
    pub body: String,
    /// CSV artifacts (written only when `--out` is given).
    pub csv: Vec<CsvBlock>,
}

impl Report {
    pub fn new(title: impl Into<String>) -> Report {
        Report {
            title: title.into(),
            body: String::new(),
            csv: Vec::new(),
        }
    }

    pub fn line(&mut self, text: impl AsRef<str>) {
        self.body.push_str(text.as_ref());
        self.body.push('\n');
    }

    pub fn series_csv(&mut self, name: &str, x_label: &str, series: &[Series]) {
        self.csv.push(CsvBlock::Series {
            name: name.to_string(),
            x_label: x_label.to_string(),
            series: series.to_vec(),
        });
    }

    pub fn rows_csv(&mut self, name: &str, rows: Vec<Vec<String>>) {
        self.csv.push(CsvBlock::Rows {
            name: name.to_string(),
            rows,
        });
    }

    /// Prints to stdout.
    pub fn print(&self) {
        println!("=== {} ===", self.title);
        println!("{}", self.body);
    }

    /// Writes all CSV artifacts into `dir`; an I/O failure comes back as
    /// `Err` (the CLI surfaces it through its `error:` path).
    pub fn write_csv(&self, dir: &Path) -> Result<(), String> {
        for block in &self.csv {
            match block {
                CsvBlock::Series {
                    name,
                    x_label,
                    series,
                } => {
                    csvout::write_series(dir, name, x_label, series)?;
                }
                CsvBlock::Rows { name, rows } => {
                    csvout::write_rows(dir, name, rows)?;
                }
            }
        }
        Ok(())
    }

    /// Writes the same artifacts as JSON into `dir` (`repro --json`).
    pub fn write_json(&self, dir: &Path) -> Result<(), String> {
        for block in &self.csv {
            match block {
                CsvBlock::Series {
                    name,
                    x_label,
                    series,
                } => {
                    jsonout::write_series(dir, name, x_label, series)?;
                }
                CsvBlock::Rows { name, rows } => {
                    jsonout::write_rows(dir, name, rows)?;
                }
            }
        }
        Ok(())
    }
}

/// `(subcommand, description, runner)` for every experiment.
pub type Entry = (&'static str, &'static str, fn(&Options) -> Report);

/// One row of `EXPERIMENTS`: a subcommand, its `repro list` description, its
/// runner and, for a split row, the sweep and report halves the runner is
/// built from.
struct Row {
    name: &'static str,
    desc: &'static str,
    run: fn(&Options) -> Report,
    split: Option<ShardableEntry>,
}

/// A whole row: `run` is called as-is.
macro_rules! whole {
    ($name:literal, $desc:literal, $run:expr) => {
        Row {
            name: $name,
            desc: $desc,
            run: $run,
            split: None,
        }
    };
}

/// A split row: `report` over the cells `sweep` folds down to `metrics`.
/// Its runner folds the whole grid and reports it.
macro_rules! split {
    ($name:literal, $desc:literal, $sweep:expr, [$($metric:ident),+], $report:expr) => {{
        const METRICS: &[Metric] = &[$(Metric::$metric),+];
        Row {
            name: $name,
            desc: $desc,
            run: |opts| $report(opts, &$sweep.fold(opts, METRICS, &SweepHooks::none())),
            split: Some(ShardableEntry {
                name: $name,
                sweep: &$sweep,
                grid: |opts| $sweep.grid(opts, METRICS),
                cells: |opts, hooks| $sweep.fold(opts, METRICS, hooks),
                report: $report,
            }),
        }
    }};
}

/// Every experiment `repro` can regenerate, in paper order: what `repro
/// list` prints and `repro all` runs.
static EXPERIMENTS: [Row; 33] = [
    whole!(
        "table1",
        "Table I — 802.11g parameters and derived frame times",
        tables::table1
    ),
    split!(
        "table2",
        "Table II — CW-slot guarantees vs measured growth",
        tables::GROWTH,
        [CwSlots],
        tables::table2_report
    ),
    split!(
        "fig3",
        "Figure 3 — CW slots, MAC sim, 64 B payload",
        MAC_64,
        [CwSlots],
        cw_slots::fig3_report
    ),
    split!(
        "fig4",
        "Figure 4 — CW slots, MAC sim, 1024 B payload",
        MAC_1024,
        [CwSlots],
        cw_slots::fig4_report
    ),
    split!(
        "fig5",
        "Figure 5 — CW slots, abstract simulator",
        abstract_cw::FIG5,
        [CwSlots],
        abstract_cw::fig5_report
    ),
    split!(
        "fig6",
        "Figure 6 — CW slots to finish n/2 packets",
        MAC_64,
        [HalfCwSlots, CwSlots],
        cw_slots::fig6_report
    ),
    split!(
        "fig7",
        "Figure 7 — total time, 64 B payload",
        MAC_64,
        [TotalTimeUs],
        total_time::fig7_report
    ),
    split!(
        "fig8",
        "Figure 8 — total time, 1024 B payload",
        MAC_1024,
        [TotalTimeUs],
        total_time::fig8_report
    ),
    split!(
        "fig9",
        "Figure 9 — time for n/2 packets, 64 B",
        MAC_64,
        [HalfTimeUs],
        total_time::fig9_report
    ),
    split!(
        "fig10",
        "Figure 10 — time for n/2 packets, 1024 B",
        MAC_1024,
        [HalfTimeUs],
        total_time::fig10_report
    ),
    split!(
        "fig11",
        "Figure 11 — max ACK timeouts per station",
        MAC_64,
        [MaxAckTimeouts],
        ack_timeouts::fig11_report
    ),
    split!(
        "fig12",
        "Figure 12 — time waiting for ACK timeouts",
        MAC_64,
        [MaxAckTimeoutTimeUs],
        ack_timeouts::fig12_report
    ),
    whole!(
        "fig13",
        "Figure 13 — execution trace, BEB, 20 stations",
        trace_fig13::fig13
    ),
    whole!(
        "fig14",
        "Figure 14 — LLB − BEB total time vs packet size",
        payload_regression::fig14
    ),
    split!(
        "table3",
        "Table III — collision bounds vs measured growth",
        tables::GROWTH,
        [Collisions],
        tables::table3_report
    ),
    split!(
        "fig15",
        "Figure 15 — CW slots at large n (abstract)",
        abstract_cw::LARGE_N,
        [CwSlots, Collisions],
        abstract_cw::fig15_report
    ),
    split!(
        "fig16",
        "Figure 16 — collision ratios vs STB (abstract)",
        abstract_cw::LARGE_N,
        [CwSlots, Collisions],
        abstract_cw::fig16_report
    ),
    split!(
        "fig18",
        "Figure 18 — BEST-OF-k estimates of n",
        best_of_k::BEST_OF_K,
        [MedianEstimate],
        best_of_k::fig18_report
    ),
    split!(
        "fig19",
        "Figure 19 — total time, BEST-OF-k vs BEB",
        best_of_k::BEST_OF_K,
        [TotalTimeUs],
        best_of_k::fig19_report
    ),
    whole!(
        "decomp",
        "§III-B — total-time decomposition, BEB n=150",
        decomposition::run
    ),
    whole!("rtscts", "§III-B — RTS/CTS check, LLB vs BEB", rts_cts::run),
    split!(
        "minpkt",
        "§V-B — minimum-size packets (12 B payload)",
        MAC_12,
        [TotalTimeUs],
        min_packet::report
    ),
    whole!(
        "model",
        "§IV — T_A = Θ(C·P + W) model checks",
        model_check::run
    ),
    whole!(
        "ablate-ackto",
        "ablation — ACK-timeout duration sweep (§V-B cliff)",
        ablations::ack_timeout
    ),
    whole!(
        "ablate-eifs",
        "ablation — 802.11 EIFS rule on/off",
        ablations::eifs
    ),
    whole!(
        "ablate-trunc",
        "ablation — CWmax truncation (§V-B)",
        ablations::truncation
    ),
    whole!(
        "ablate-sem",
        "ablation — windowed vs residual-timer semantics",
        ablations::semantics
    ),
    whole!(
        "ablate-loss",
        "ablation — ACK-loss failure injection",
        ablations::ack_loss
    ),
    whole!(
        "ablate-poly",
        "ablation — polynomial backoff baselines",
        ablations::polynomial
    ),
    split!(
        "dynamic",
        "§VIII extension — long-lived bursty traffic",
        dynamic_traffic::SWEEP,
        [MeanLatencySlots, CompletionRate],
        dynamic_traffic::report
    ),
    split!(
        "saturation",
        "saturation phase diagram — offered-load sweep on 802.11g costs",
        saturation::SWEEP,
        [
            Throughput,
            CompletionRate,
            P50LatencySlots,
            P99LatencySlots,
            MeanLatencySlots
        ],
        saturation::report
    ),
    whole!(
        "soften",
        "arXiv:2408.11275 extension — softened collisions / noisy channel",
        noisy::run
    ),
    split!(
        "scale",
        "§V-A at scale — streaming sweep to n = 10⁵ (10⁶ with --full)",
        scale::SWEEP,
        [CwSlots, Collisions],
        scale::report
    ),
];

/// Every experiment's `(subcommand, description, runner)`, in table order.
pub fn registry() -> Vec<Entry> {
    EXPERIMENTS
        .iter()
        .map(|row| (row.name, row.desc, row.run))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs experiment `name` through its table row, as `repro <name>` does.
    pub(super) fn run(name: &str, opts: &Options) -> Report {
        let row = EXPERIMENTS.iter().find(|row| row.name == name);
        let row = row.unwrap_or_else(|| panic!("{name} is not a table row"));
        (row.run)(opts)
    }

    #[test]
    fn registry_names_are_unique() {
        let names: Vec<&str> = registry().iter().map(|(n, _, _)| *n).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn report_accumulates() {
        let mut r = Report::new("t");
        r.line("a");
        r.line("b");
        assert_eq!(r.body, "a\nb\n");
    }
}
