//! # contention-experiments
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation. Each figure lives in its own module under
//! [`figures`]; the `repro` binary exposes one subcommand per figure.
//!
//! The building blocks:
//!
//! * [`summary::TrialSummary`] — the scalar metrics extracted from one trial
//!   (full per-station vectors are dropped inside the worker so large-`n`
//!   abstract sweeps stay memory-light). Defined in `contention-sim`.
//! * [`figures::shared::fold_grid`] — the one call site every production
//!   sweep goes through: a grid description ([`shard::GridMeta`]) plus a
//!   backend config become one `Sweep<S: Simulator>` (defined in
//!   `contention-sim`) run over a plan of trial ranges — the whole grid, a
//!   shard's cells, a resume's holes or a lease — streaming each trial into
//!   a per-cell accumulator.
//! * [`aggregate`] — the paper's reporting pipeline: outlier filtering
//!   (1.5·IQR from the median), medians, and 95 % CIs, fed by
//!   [`aggregate::MetricStats`] — flat per-metric trial buffers that retain
//!   only what a figure asks for.
//! * [`table`] — plain-text table rendering for the terminal.
//! * [`csvout`] — CSV emission for plotting.
//! * [`jsonout`] — JSON emission (`repro --json`), pinned by golden files.
//! * [`jsonin`] — the matching round-trip-exact JSON reader.
//! * [`shard`] — process-sharded sweep state (`shard_state/v1` artifacts):
//!   `repro shard` serializes per-cell accumulator buffers, `repro merge`
//!   recombines them into reports byte-identical to a single-process run.
//! * [`fsutil`] — crash-safe artifact writes (temp file + fsync + rename);
//!   every on-disk artifact goes through it.
//! * [`checkpoint`] — crash-safe long runs: the `CheckpointWriter` sweep
//!   monitor persists in-flight state as `shard_state/v1` checkpoints plus a
//!   `metrics.json` live-progress sidecar; `repro resume DIR` reloads the
//!   newest valid checkpoint and runs only the missing trials, byte-identical
//!   to an uninterrupted run.
//! * [`server`] — the `repro serve` coordinator: cuts a sweep into
//!   cost-weighted per-trial leases, hands them to pull-based workers over
//!   minimal HTTP (the `shard_state/v1` artifact *is* the wire format),
//!   folds posted results with duplicate-trial dedup, and writes the same
//!   byte-identical artifacts a single-process run would.
//! * [`worker`] — the `repro work` half: claims leases, runs exactly the
//!   leased trials through the shared engine path, POSTs artifacts back.
//! * [`options`] — the `repro` CLI options (quick vs `--full` paper grids,
//!   the `--threads` execution knob).
//! * [`cli`] — the `repro` entry point; the binary itself lives in the
//!   workspace root package so `cargo run --bin repro` needs no `-p` flag.

pub mod aggregate;
pub mod benchmark;
pub mod checkpoint;
pub mod cli;
pub mod csvout;
pub mod figures;
pub mod fsutil;
pub mod jsonin;
pub mod jsonout;
pub mod options;
pub mod server;
pub mod shard;
pub mod summary;
pub mod table;
pub mod worker;

pub use options::Options;
pub use summary::TrialSummary;
