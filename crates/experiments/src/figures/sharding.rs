//! The shardable-experiment registry: which figures `repro shard` /
//! `repro merge` can split across processes.
//!
//! A figure is shardable when it factors into a *cells* half (one engine
//! sweep, restrictable to a cell range) and a *report* half (a pure
//! function of the folded cells). Each entry wires those halves together
//! with the [`GridMeta`] describing the sweep, so the CLI can partition the
//! grid, run one cell range per process, and rebuild the exact
//! single-process report from merged `shard_state/v1` artifacts.
//!
//! The invariant every entry must satisfy — pinned by this module's tests
//! and by `tests/shard_equivalence.rs` — is
//! `report(opts, cells(opts, None)) == <registry runner>(opts)`, byte for
//! byte, including the CSV/JSON artifacts.

use crate::aggregate::StatsCell;
use crate::figures::shared::SweepHooks;
use crate::figures::{
    abstract_cw, ack_timeouts, cw_slots, dynamic_traffic, saturation, scale, total_time, Report,
};
use crate::options::Options;
use crate::shard::GridMeta;

/// One shardable experiment: the sweep-grid description plus the two
/// halves of its figure pipeline. `Copy` (it is three fn pointers and a
/// static name) so the work-server can hold one across threads.
#[derive(Clone, Copy)]
pub struct ShardableEntry {
    /// Registry subcommand name (`fig5`, `scale`, …).
    pub name: &'static str,
    /// The grid the experiment sweeps under these options.
    pub grid: fn(&Options) -> GridMeta,
    /// Runs the sweep — the hooks' plan (the whole grid by default), with
    /// the hooks' monitor attached — and returns the folded cells.
    pub cells: fn(&Options, &SweepHooks) -> Vec<StatsCell>,
    /// Builds the figure's report from (complete) folded cells.
    pub report: fn(&Options, &[StatsCell]) -> Report,
}

/// Every experiment `repro shard` accepts, in paper order.
pub fn shardable_registry() -> Vec<ShardableEntry> {
    vec![
        ShardableEntry {
            name: "fig3",
            grid: cw_slots::fig3_grid,
            cells: cw_slots::fig3_cells,
            report: cw_slots::fig3_report,
        },
        ShardableEntry {
            name: "fig4",
            grid: cw_slots::fig4_grid,
            cells: cw_slots::fig4_cells,
            report: cw_slots::fig4_report,
        },
        ShardableEntry {
            name: "fig5",
            grid: abstract_cw::fig5_grid,
            cells: abstract_cw::fig5_cells,
            report: abstract_cw::fig5_report,
        },
        ShardableEntry {
            name: "fig6",
            grid: cw_slots::fig6_grid,
            cells: cw_slots::fig6_cells,
            report: cw_slots::fig6_report,
        },
        ShardableEntry {
            name: "fig7",
            grid: total_time::fig7_grid,
            cells: total_time::fig7_cells,
            report: total_time::fig7_report,
        },
        ShardableEntry {
            name: "fig8",
            grid: total_time::fig8_grid,
            cells: total_time::fig8_cells,
            report: total_time::fig8_report,
        },
        ShardableEntry {
            name: "fig9",
            grid: total_time::fig9_grid,
            cells: total_time::fig9_cells,
            report: total_time::fig9_report,
        },
        ShardableEntry {
            name: "fig10",
            grid: total_time::fig10_grid,
            cells: total_time::fig10_cells,
            report: total_time::fig10_report,
        },
        ShardableEntry {
            name: "fig11",
            grid: ack_timeouts::fig11_grid,
            cells: ack_timeouts::fig11_cells,
            report: ack_timeouts::fig11_report,
        },
        ShardableEntry {
            name: "fig12",
            grid: ack_timeouts::fig12_grid,
            cells: ack_timeouts::fig12_cells,
            report: ack_timeouts::fig12_report,
        },
        ShardableEntry {
            name: "fig15",
            grid: abstract_cw::large_n_grid,
            cells: abstract_cw::large_n_cells,
            report: abstract_cw::fig15_report,
        },
        ShardableEntry {
            name: "fig16",
            grid: abstract_cw::large_n_grid,
            cells: abstract_cw::large_n_cells,
            report: abstract_cw::fig16_report,
        },
        ShardableEntry {
            name: "scale",
            grid: scale::grid,
            cells: scale::cells,
            report: scale::report,
        },
        ShardableEntry {
            name: "dynamic",
            grid: dynamic_traffic::grid,
            cells: dynamic_traffic::cells,
            report: dynamic_traffic::report,
        },
        ShardableEntry {
            name: "saturation",
            grid: saturation::grid,
            cells: saturation::cells,
            report: saturation::report,
        },
    ]
}

/// Looks up one shardable experiment by name.
pub fn find_shardable(name: &str) -> Option<ShardableEntry> {
    shardable_registry().into_iter().find(|e| e.name == name)
}

/// The names `repro shard` advertises in error messages.
pub fn shardable_names() -> Vec<&'static str> {
    shardable_registry().into_iter().map(|e| e.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{registry, CsvBlock};
    use crate::jsonout;
    use crate::shard::{merge_states, ShardState};
    use contention_sim::engine::CellRange;

    fn tiny_opts() -> Options {
        Options {
            trials: Some(2),
            threads: Some(2),
            ..Options::default()
        }
    }

    /// A report's full byte image: title, body, and every rendered artifact.
    fn rendered(report: &Report) -> (String, String, Vec<String>) {
        let blocks = report
            .csv
            .iter()
            .map(|b| match b {
                CsvBlock::Series {
                    name,
                    x_label,
                    series,
                } => jsonout::series_json(name, x_label, series),
                CsvBlock::Rows { name, rows } => jsonout::rows_json(name, rows),
            })
            .collect();
        (report.title.clone(), report.body.clone(), blocks)
    }

    #[test]
    fn every_shardable_name_is_a_registry_experiment() {
        let registered: Vec<&str> = registry().iter().map(|(n, _, _)| *n).collect();
        for entry in shardable_registry() {
            assert!(
                registered.contains(&entry.name),
                "{} is shardable but not registered",
                entry.name
            );
        }
        let names = shardable_names();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate shardable name");
    }

    /// The load-bearing invariant: the split pipeline reproduces the
    /// registry runner byte-for-byte for every shardable experiment.
    #[test]
    fn split_pipeline_matches_registry_runner_for_every_entry() {
        let opts = tiny_opts();
        for entry in shardable_registry() {
            let (_, _, runner) = registry()
                .into_iter()
                .find(|(n, _, _)| *n == entry.name)
                .expect("registered");
            let direct = runner(&opts);
            let split = (entry.report)(&opts, &(entry.cells)(&opts, &SweepHooks::none()));
            assert_eq!(
                rendered(&direct),
                rendered(&split),
                "{}: split pipeline diverged from the registry runner",
                entry.name
            );
        }
    }

    /// Grid description and executed sweep agree: the cells a full run
    /// returns are exactly the grid's cells, in grid order.
    #[test]
    fn grids_describe_the_cells_the_sweep_returns() {
        let opts = tiny_opts();
        for entry in shardable_registry() {
            let grid = (entry.grid)(&opts);
            let cells = (entry.cells)(&opts, &SweepHooks::none());
            assert_eq!(cells.len(), grid.cell_count(), "{}", entry.name);
            let mut expected = Vec::new();
            for &alg in &grid.algorithms {
                for &n in &grid.ns {
                    expected.push((alg, n));
                }
            }
            let got: Vec<_> = cells.iter().map(|c| (c.algorithm, c.n)).collect();
            assert_eq!(got, expected, "{}: cell order", entry.name);
            for cell in &cells {
                assert_eq!(cell.acc.metrics(), &grid.metrics[..], "{}", entry.name);
                assert!(cell.acc.is_complete(), "{}", entry.name);
            }
        }
    }

    /// A quick two-way shard/merge round trip through the artifact format
    /// for one entry (the full backend × shard-count matrix lives in
    /// `tests/shard_equivalence.rs`).
    #[test]
    fn fig5_two_shards_merge_back_to_the_unsharded_report() {
        let opts = tiny_opts();
        let entry = find_shardable("fig5").expect("fig5 is shardable");
        let grid = (entry.grid)(&opts);
        let states: Vec<ShardState> = (0..2)
            .map(|i| {
                let plan = CellRange::shard(grid.cell_count(), i, 2).plan(grid.trials);
                let hooks = SweepHooks {
                    plan: Some(&plan),
                    ..SweepHooks::default()
                };
                let cells = (entry.cells)(&opts, &hooks);
                let text =
                    ShardState::from_cells(entry.name, opts.full, (i as u32, 2), &grid, &cells)
                        .to_json();
                ShardState::parse(&text).expect("round trip")
            })
            .collect();
        let merged = merge_states(states).expect("compatible shards");
        assert!(merged.is_complete());
        let report = (entry.report)(&opts, &merged.into_cells());
        let direct = (entry.report)(&opts, &(entry.cells)(&opts, &SweepHooks::none()));
        assert_eq!(rendered(&report), rendered(&direct));
    }
}
