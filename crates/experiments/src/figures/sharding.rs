//! The split rows of the experiment table as [`ShardableEntry`]s: what
//! `repro shard`, `merge`, `serve`, `work` and `--checkpoint` run, and the
//! sweeps `repro all` shares.
//!
//! A split row factors into a *cells* half (one engine sweep, restrictable
//! to a plan of trial ranges) and a *report* half (a pure function of the
//! folded cells). Its entry wires those halves together with the
//! [`GridMeta`] describing the sweep, so the CLI can cut the grid into
//! leases, run one lease per process, and rebuild the exact single-process
//! report from merged `shard_state/v1` artifacts.
//!
//! The table's `split!` macro builds each entry and the row's runner from
//! one statement of the row's [`SweepDef`] and metrics. The invariant every
//! entry satisfies — pinned by this module's tests and by
//! `tests/shard_equivalence.rs` — is
//! `report(opts, cells(opts, &SweepHooks::none())) == <registry runner>(opts)`,
//! byte for byte, including the CSV/JSON artifacts.
//!
//! `repro all` plans with each entry's [`SweepDef`] ([`SharedSweeps`]):
//! experiments folding from one definition share one run of its sweep.

use crate::aggregate::StatsCell;
use crate::figures::shared::{SweepDef, SweepHooks};
use crate::figures::{Report, EXPERIMENTS};
use crate::options::Options;
use crate::shard::GridMeta;
use crate::summary::Metric;

/// One shardable experiment: the sweep-grid description plus the two
/// halves of its figure pipeline. `Copy` (it is fn pointers, a static name
/// and a static sweep definition) so the work-server can hold one across
/// threads.
#[derive(Clone, Copy)]
pub struct ShardableEntry {
    /// Registry subcommand name (`fig5`, `scale`, …).
    pub name: &'static str,
    /// The sweep the cells fold from: `grid` is its shape, folding the
    /// metrics the report reads.
    pub sweep: &'static SweepDef,
    /// The grid the experiment sweeps under these options.
    pub grid: fn(&Options) -> GridMeta,
    /// Runs the sweep — the hooks' plan (the whole grid by default), with
    /// the hooks' monitor attached — and returns the folded cells.
    pub cells: fn(&Options, &SweepHooks) -> Vec<StatsCell>,
    /// Builds the figure's report from (complete) folded cells.
    pub report: fn(&Options, &[StatsCell]) -> Report,
}

/// Every split row of the experiment table, in table order: the
/// experiments `repro shard` accepts.
pub fn shardable_registry() -> Vec<ShardableEntry> {
    EXPERIMENTS.iter().filter_map(|row| row.split).collect()
}

/// Looks up one shardable experiment by name.
pub fn find_shardable(name: &str) -> Option<ShardableEntry> {
    EXPERIMENTS.iter().find(|row| row.name == name)?.split
}

/// The names `repro shard` advertises in error messages.
pub fn shardable_names() -> Vec<&'static str> {
    shardable_registry().into_iter().map(|e| e.name).collect()
}

/// A multi-experiment run's sweeps: the experiments that fold from one
/// [`SweepDef`] share one run of it. The sweep runs when its first member
/// reports, over the union of the members' metrics; every member's report
/// gets the cells projected onto its own metrics ([`MetricStats::project`]),
/// so it sees exactly the cells `(entry.cells)(opts, &SweepHooks::none())`
/// returns. The cells are dropped after the last member has reported.
///
/// [`MetricStats::project`]: crate::aggregate::MetricStats::project
pub struct SharedSweeps {
    opts: Options,
    groups: Vec<SharedSweep>,
    /// Sweeps run, and reports served from them.
    runs: usize,
    served: usize,
}

/// One sweep definition and the experiments folding from it.
struct SharedSweep {
    sweep: &'static SweepDef,
    /// In run order; the first one runs the sweep.
    members: Vec<ShardableEntry>,
    /// Every member's metrics, in order of first use.
    metrics: Vec<Metric>,
    /// The folded cells, from the first member's report to the last's.
    cells: Option<Vec<StatsCell>>,
    /// Members that have not reported yet.
    pending: usize,
}

impl SharedSweeps {
    /// Groups the shardable experiments among `names` (in run order) by the
    /// sweep definition they fold from — never by tag alone. A sweep only
    /// one of them folds from is not shared: that experiment's own runner
    /// runs it.
    pub fn plan(names: &[&str], opts: &Options) -> SharedSweeps {
        let mut groups: Vec<SharedSweep> = Vec::new();
        for entry in names.iter().filter_map(|name| find_shardable(name)) {
            let metrics = (entry.grid)(opts).metrics;
            match groups.iter_mut().find(|g| g.sweep.is(entry.sweep)) {
                Some(group) => {
                    group.members.push(entry);
                    group.pending += 1;
                    for metric in metrics {
                        if !group.metrics.contains(&metric) {
                            group.metrics.push(metric);
                        }
                    }
                }
                None => groups.push(SharedSweep {
                    sweep: entry.sweep,
                    members: vec![entry],
                    metrics,
                    cells: None,
                    pending: 1,
                }),
            }
        }
        groups.retain(|g| g.members.len() > 1);
        SharedSweeps {
            opts: opts.clone(),
            groups,
            runs: 0,
            served: 0,
        }
    }

    /// `name`'s report from its shared sweep (running the sweep on the
    /// group's first report), or `None` if `name` shares no sweep.
    pub fn report(&mut self, name: &str) -> Option<Report> {
        let (entry, cells) = self.cells(name)?;
        Some((entry.report)(&self.opts, &cells))
    }

    /// `name`'s entry and its cells: the shared sweep's cells projected
    /// onto `name`'s metrics.
    fn cells(&mut self, name: &str) -> Option<(ShardableEntry, Vec<StatsCell>)> {
        let opts = &self.opts;
        let group = self
            .groups
            .iter_mut()
            .find(|g| g.members.iter().any(|m| m.name == name))?;
        let entry = *group.members.iter().find(|m| m.name == name)?;
        let runs = &mut self.runs;
        let union = group.cells.get_or_insert_with(|| {
            *runs += 1;
            group.sweep.fold(opts, &group.metrics, &SweepHooks::none())
        });
        let own = (entry.grid)(opts).metrics;
        let cells: Vec<StatsCell> = union
            .iter()
            .map(|cell| StatsCell {
                algorithm: cell.algorithm,
                n: cell.n,
                acc: cell.acc.project(&own),
            })
            .collect();
        group.pending = group.pending.saturating_sub(1);
        if group.pending == 0 {
            group.cells = None;
        }
        self.served += 1;
        Some((entry, cells))
    }

    /// Shared sweeps run so far.
    pub fn sweeps_run(&self) -> usize {
        self.runs
    }

    /// Sweep runs the sharing has saved so far: one per report served from
    /// a sweep an earlier report already ran.
    pub fn reruns_avoided(&self) -> usize {
        self.served - self.runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{registry, CsvBlock};
    use crate::jsonout;
    use crate::shard::{merge_states, ShardState};
    use contention_core::algorithm::AlgorithmKind;

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

    /// Exactly these rows are split, in table order. A row that lost its
    /// halves would stop sharing its sweep under `repro all`, and `shard`,
    /// `serve` and `--checkpoint` would refuse it.
    #[test]
    fn the_split_rows_are_the_twenty_sweep_experiments() {
        let split = [
            "table2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "table3",
            "fig15",
            "fig16",
            "fig18",
            "fig19",
            "minpkt",
            "dynamic",
            "saturation",
            "scale",
        ];
        assert_eq!(shardable_names(), split);
        for (name, _, _) in registry() {
            let entry = find_shardable(name);
            assert_eq!(entry.map(|e| e.name), split.contains(&name).then_some(name));
        }
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
            // The grid is the named sweep's shape: what lets `repro all`
            // share that sweep with the entry.
            assert_eq!(
                grid,
                entry.sweep.grid(&opts, &grid.metrics),
                "{}",
                entry.name
            );
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
        let exp = crate::cli::Experiment::new("fig5", &opts).expect("fig5 is shardable");
        let leases = exp.leases(&[], 2).expect("a fresh plan");
        assert_eq!(leases.len(), 2);
        let states: Vec<ShardState> = (0..2)
            .map(|i| {
                let text = exp.run_plan(&leases[i], (i as u32, 2)).to_json();
                ShardState::parse(&text).expect("round trip")
            })
            .collect();
        let entry = exp.entry;
        let merged = merge_states(states).expect("compatible shards");
        assert!(merged.is_complete());
        let report = (entry.report)(&opts, &merged.into_cells());
        let direct = (entry.report)(&opts, &(entry.cells)(&opts, &SweepHooks::none()));
        assert_eq!(rendered(&report), rendered(&direct));
    }

    /// Two definitions with one tag would draw the same RNG streams while
    /// the planner keeps them apart.
    #[test]
    fn no_two_sweep_definitions_share_a_tag() {
        let mut sweeps: Vec<&SweepDef> = Vec::new();
        for entry in shardable_registry() {
            if !sweeps.iter().any(|s| s.is(entry.sweep)) {
                sweeps.push(entry.sweep);
            }
        }
        let mut tags: Vec<&str> = sweeps.iter().map(|s| s.tag).collect();
        tags.sort_unstable();
        let count = tags.len();
        tags.dedup();
        assert_eq!(tags.len(), count, "a tag names two sweep definitions");
    }

    fn all_plan(opts: &Options) -> SharedSweeps {
        let names: Vec<&str> = registry().iter().map(|(n, _, _)| *n).collect();
        SharedSweeps::plan(&names, opts)
    }

    #[test]
    fn repro_all_shares_the_five_sweeps_figures_fold_from() {
        use Metric::*;
        let plan = all_plan(&tiny_opts());
        let got: Vec<(&str, Vec<&str>, Vec<Metric>)> = plan
            .groups
            .iter()
            .map(|g| {
                let members = g.members.iter().map(|m| m.name).collect();
                (g.sweep.tag, members, g.metrics.clone())
            })
            .collect();
        let want: Vec<(&str, Vec<&str>, Vec<Metric>)> = vec![
            (
                "growth-tables",
                vec!["table2", "table3"],
                vec![CwSlots, Collisions],
            ),
            (
                "mac-64",
                vec!["fig3", "fig6", "fig7", "fig9", "fig11", "fig12"],
                vec![
                    CwSlots,
                    HalfCwSlots,
                    TotalTimeUs,
                    HalfTimeUs,
                    MaxAckTimeouts,
                    MaxAckTimeoutTimeUs,
                ],
            ),
            (
                "mac-1024",
                vec!["fig4", "fig8", "fig10"],
                vec![CwSlots, TotalTimeUs, HalfTimeUs],
            ),
            (
                "fig15-16",
                vec!["fig15", "fig16"],
                vec![CwSlots, Collisions],
            ),
            (
                "fig18-19",
                vec!["fig18", "fig19"],
                vec![MedianEstimate, TotalTimeUs],
            ),
        ];
        assert_eq!(got, want);
        // A single experiment shares nothing.
        assert!(SharedSweeps::plan(&["fig3"], &tiny_opts())
            .groups
            .is_empty());
    }

    /// The union fold projected onto a member's metrics is that member's
    /// own fold, bit for bit.
    #[test]
    fn projected_union_fold_equals_each_members_own_cells() {
        let opts = tiny_opts();
        type Image = Vec<(AlgorithmKind, u32, Vec<Metric>, Vec<Vec<u64>>)>;
        let image = |cells: &[StatsCell]| -> Image {
            cells
                .iter()
                .map(|c| {
                    let bits = c.acc.raw_samples().iter();
                    let bits = bits.map(|s| s.raw().iter().map(|v| v.to_bits()).collect());
                    (c.algorithm, c.n, c.acc.metrics().to_vec(), bits.collect())
                })
                .collect()
        };
        let mut shared = all_plan(&opts);
        let mut served = 0;
        for (name, _, _) in registry() {
            if let Some((entry, cells)) = shared.cells(name) {
                let own = (entry.cells)(&opts, &SweepHooks::none());
                assert_eq!(image(&cells), image(&own), "{name}");
                served += 1;
            }
        }
        assert_eq!(served, 15);
    }

    /// `repro all`'s pipeline: every registered experiment's report equals
    /// its registry runner's run alone, and each shared sweep ran once.
    #[test]
    fn shared_sweep_pipeline_matches_every_runner_run_alone() {
        let opts = tiny_opts();
        let mut shared = all_plan(&opts);
        for (name, _, runner) in registry() {
            let report = shared.report(name).unwrap_or_else(|| runner(&opts));
            assert_eq!(rendered(&report), rendered(&runner(&opts)), "{name}");
        }
        assert_eq!((shared.sweeps_run(), shared.reruns_avoided()), (5, 10));
        assert!(
            shared.groups.iter().all(|g| g.cells.is_none()),
            "cells outlived their last report"
        );
    }
}
