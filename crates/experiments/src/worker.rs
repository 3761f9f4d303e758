//! `repro work` — the pull-based sweep worker.
//!
//! Connects to a `repro serve` coordinator, claims per-trial leases, runs
//! exactly the leased trial ranges through the same engine path every other
//! mode uses (`Experiment::run_plan` with the lease as its plan — per-trial
//! RNG derivation makes the results bit-identical to any other execution),
//! and POSTs the resulting `shard_state/v1` artifact back. Loops until the
//! coordinator answers `done`.
//!
//! The worker holds no durable state: killing one mid-lease loses nothing
//! but time (the coordinator re-issues the lease after `--lease-secs`),
//! and a worker that double-runs trials is harmless (the coordinator's
//! dedup fold discards bit-identical replays).

use crate::cli::Experiment;
use crate::jsonin::Json;
use crate::options::Options;
use crate::server::{http_request, Limits};
use contention_sim::engine::{validate_plan, TrialRange};
use std::time::Duration;

/// Fault-injection hook for the lease-failure tests: if set, the worker
/// sleeps this many milliseconds after claiming each lease and before
/// running it — a window in which CI kills it mid-lease.
const HOLD_ENV: &str = "REPRO_WORK_HOLD_MS";

/// One claimed lease, decoded off the wire and checked against this
/// build's grid for its experiment.
struct Lease {
    id: u64,
    /// The coordinator's sweep, run with this worker's `--threads`.
    exp: Experiment,
    /// The leased `[cell, lo, hi]` ranges, as sent.
    plan: Vec<TrialRange>,
}

/// A decoded `/lease` response: work, a pause, or the end of the run.
enum LeaseReply {
    Lease(Box<Lease>),
    Wait(Duration),
    Done,
}

/// Decodes a `/lease` response body for a worker run with `opts`. A
/// lease's ranges must form a valid plan of its experiment's grid (see
/// [`validate_plan`]); anything else is an error, never a panic in the
/// engine.
fn decode_lease(body: &str, opts: &Options) -> Result<LeaseReply, String> {
    let json = Json::parse(body)?;
    match json.field("status")?.as_str()? {
        "done" => Ok(LeaseReply::Done),
        "wait" => {
            let ms = json
                .field("retry_ms")
                .and_then(Json::as_f64)
                .unwrap_or(Limits::of(opts).wait_retry.as_millis() as f64);
            Ok(LeaseReply::Wait(Duration::from_millis(ms.max(0.0) as u64)))
        }
        "lease" => {
            let id = json.field("id")?.as_f64()? as u64;
            let exp = Experiment::recorded(
                json.field("experiment")?.as_str()?,
                json.field("full")?.as_bool()?,
                json.field("trials")?.as_u32()?,
                opts,
            )?;
            let mut plan = Vec::new();
            for range in json.field("work")?.as_array()? {
                let triple = range.as_array()?;
                if triple.len() != 3 {
                    return Err("work ranges must be [cell, lo, hi]".to_string());
                }
                plan.push(TrialRange {
                    cell: triple[0].as_u32()? as usize,
                    lo: triple[1].as_u32()?,
                    hi: triple[2].as_u32()?,
                });
            }
            validate_plan(&plan, exp.grid.cell_count(), exp.grid.trials).map_err(|e| {
                format!("{e} — coordinator and worker run different code, or a corrupt lease")
            })?;
            Ok(LeaseReply::Lease(Box::new(Lease { id, exp, plan })))
        }
        other => Err(format!("unknown lease status {other:?}")),
    }
}

/// The worker loop: claim, run, report, repeat until `done`.
pub fn run_worker(opts: &Options) -> Result<(), String> {
    let addr = opts.connect.clone().expect("validated at parse time");
    let limits = Limits::of(opts);
    let hold = std::env::var(HOLD_ENV)
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_millis);
    let mut failures = 0u32;
    let mut ever_connected = false;
    let mut leases_done = 0usize;
    loop {
        let response = http_request(&addr, "GET", "/lease", None);
        let (status, body) = match response {
            Ok(r) => r,
            Err(e) => {
                failures += 1;
                if !ever_connected && failures >= limits.connect_retries {
                    return Err(format!("cannot reach coordinator at {addr}: {e}"));
                }
                if ever_connected {
                    // The coordinator lingers only briefly after completion;
                    // a vanished coordinator after successful exchanges
                    // almost certainly means the run finished without us.
                    println!(
                        "[work] coordinator at {addr} gone after {leases_done} leases — \
                         assuming the sweep completed"
                    );
                    return Ok(());
                }
                std::thread::sleep(limits.retry_pause);
                continue;
            }
        };
        ever_connected = true;
        failures = 0;
        if status != 200 {
            return Err(format!(
                "coordinator rejected lease claim ({status}): {body}"
            ));
        }
        let lease = match decode_lease(&body, opts) {
            Ok(LeaseReply::Lease(lease)) => *lease,
            Ok(LeaseReply::Wait(pause)) => {
                std::thread::sleep(pause);
                continue;
            }
            Ok(LeaseReply::Done) => {
                println!("[work] sweep complete after {leases_done} leases");
                return Ok(());
            }
            Err(e) => {
                return Err(format!("malformed lease response ({e}): {body}"));
            }
        };
        if let Some(pause) = hold {
            // Fault injection: linger before running so a test can kill us
            // mid-lease and watch the coordinator re-issue the work.
            std::thread::sleep(pause);
        }
        let trials: usize = lease.plan.iter().map(TrialRange::len).sum();
        let mut cells: Vec<usize> = lease.plan.iter().map(|r| r.cell).collect();
        cells.sort_unstable();
        cells.dedup();
        // perfbench/run.py counts claimed and accepted leases from these
        // two lines (` trials across `, ` accepted: `): keep their wording.
        println!(
            "[work] lease {}: {} trials across {} cells of {}",
            lease.id,
            trials,
            cells.len(),
            lease.exp.entry.name
        );
        let artifact = lease.exp.run_plan(&lease.plan, (0, 1)).to_json();
        let path = format!("/result/{}", lease.id);
        match http_request(&addr, "POST", &path, Some(&artifact)) {
            Ok((200, reply)) => {
                leases_done += 1;
                println!("[work] lease {} accepted: {reply}", lease.id);
            }
            Ok((409, reply)) => {
                // The fold rejected our results: wrong build, conflicting
                // bits. Running more leases would produce more rejections.
                return Err(format!("coordinator rejected lease {}: {reply}", lease.id));
            }
            Ok((status, reply)) => {
                return Err(format!(
                    "unexpected reply {status} to lease {}: {reply}",
                    lease.id
                ));
            }
            Err(e) => {
                // Delivery failed — the lease will expire and be re-issued;
                // our next claim round decides whether the server is gone.
                eprintln!("warning: could not deliver lease {}: {e}", lease.id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fig5 lease body (16-cell quick grid, 8 trials) with `work`.
    fn fig5_lease(work: &str) -> String {
        format!(
            "{{\"status\":\"lease\",\"id\":7,\"experiment\":\"fig5\",\"full\":false,\
             \"trials\":8,\"work\":{work}}}"
        )
    }

    #[test]
    fn lease_decoding_keeps_the_leased_ranges() {
        let reply = decode_lease(
            &fig5_lease("[[2,0,3],[2,3,5],[0,6,8],[0,2,4]]"),
            &Options::default(),
        )
        .unwrap();
        let LeaseReply::Lease(lease) = reply else {
            panic!("expected a lease");
        };
        assert_eq!(lease.id, 7);
        assert_eq!(lease.exp.entry.name, "fig5");
        let range = |cell, lo, hi| TrialRange { cell, lo, hi };
        assert_eq!(
            lease.plan,
            vec![
                range(2, 0, 3),
                range(2, 3, 5),
                range(0, 6, 8),
                range(0, 2, 4)
            ],
            "ranges are run as leased, never expanded into trial lists"
        );

        assert!(matches!(
            decode_lease("{\"status\":\"wait\",\"retry_ms\":50}", &Options::default()),
            Ok(LeaseReply::Wait(p)) if p == Duration::from_millis(50)
        ));
        assert!(matches!(
            decode_lease("{\"status\":\"done\"}", &Options::default()),
            Ok(LeaseReply::Done)
        ));
        assert!(decode_lease("not json", &Options::default()).is_err());
    }

    #[test]
    fn bad_leases_are_clean_errors() {
        for (work, expect) in [
            ("[[16,0,1]]", "outside the 16-cell grid"),
            ("[[0,3,3]]", "not a non-empty range"),
            ("[[0,5,2]]", "not a non-empty range"),
            ("[[0,3,9]]", "not a non-empty range"),
            ("[[1,0,4],[1,3,6]]", "overlap"),
            ("[[1,0,4],[1,0,4]]", "overlap"),
            ("[[1,0]]", "[cell, lo, hi]"),
        ] {
            let Err(err) = decode_lease(&fig5_lease(work), &Options::default()) else {
                panic!("{work} decoded");
            };
            assert!(err.contains(expect), "{work}: {err}");
        }
        let huge = fig5_lease("[[0,0,1]]").replace("\"trials\":8", "\"trials\":4294967295");
        let Err(err) = decode_lease(&huge, &Options::default()) else {
            panic!("a 2^32 - 1 trial lease decoded");
        };
        assert!(
            err.contains("recorded trial count 4294967295 is outside 1..=1000000"),
            "{err}"
        );
        let unknown = fig5_lease("[]").replace("fig5", "fig99");
        let Err(err) = decode_lease(&unknown, &Options::default()) else {
            panic!("unknown experiment decoded");
        };
        assert!(
            err.contains("\"fig99\" is not a shardable experiment"),
            "{err}"
        );
    }
}
