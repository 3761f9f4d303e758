//! Root-level `repro` alias: lets `cargo run --bin repro -- <experiment>`
//! work from the repository root without `-p contention-experiments`. All
//! logic lives in [`contention_experiments::cli`].

#![forbid(unsafe_code)]

use std::process::ExitCode;

fn main() -> ExitCode {
    contention_experiments::cli::main()
}
