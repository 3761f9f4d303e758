//! `repro work` — the pull-based sweep worker.
//!
//! Connects to a `repro serve` coordinator, claims per-trial leases, runs
//! exactly the leased trial ranges through the same engine path every other
//! mode uses (`Experiment::run_plan` with the lease as its plan — per-trial
//! RNG derivation makes the results bit-identical to any other execution),
//! and POSTs the resulting `shard_state/v1` artifact back. Loops until the
//! coordinator answers `done`.
//!
//! A worker keeps one POST in flight, so its compute never waits on the
//! coordinator's checkpoint: it sends lease k's result on a thread of its
//! own, claims and runs lease k+1, and collects lease k's reply just before
//! it sends lease k+1's. It also collects it when a claim answers `wait`
//! (and then asks again at once), and before it exits for any reason. All
//! printing stays on the main thread, so a lease's ` accepted: ` line may
//! follow the next lease's ` trials across ` line. A rejected POST (409) or
//! an unexpected status ends the worker with an error once the lease it is
//! running ends; the coordinator re-issues that lease after its TTL. A 503
//! only warns: the coordinator folded the results, but no checkpoint holds
//! them yet, and its next one will.
//!
//! The worker holds no durable state: killing one mid-lease loses nothing
//! but time (the coordinator re-issues the lease after `--lease-secs`),
//! and a worker that double-runs trials is harmless (the coordinator's
//! dedup fold discards bit-identical replays).

use crate::cli::Experiment;
use crate::options::Options;
use crate::server::{http_request, LeaseReply, Limits};
use contention_sim::engine::{validate_plan, TrialRange};
use std::thread::JoinHandle;
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

/// A `/lease` reply as this worker acts on it: work checked against this
/// build, a pause, or the end of the run.
enum Claim {
    Run(Box<Lease>),
    Wait(Duration),
    Done,
}

/// Decodes a `/lease` response body ([`LeaseReply::parse`]) for a worker
/// run with `opts`. A lease must name a sweep of this build, and its ranges
/// must form a valid plan of that grid (see [`validate_plan`]); anything
/// else is an error, never a panic in the engine.
fn decode_lease(body: &str, opts: &Options) -> Result<Claim, String> {
    match LeaseReply::parse(body)? {
        LeaseReply::Done => Ok(Claim::Done),
        LeaseReply::Wait(pause) => Ok(Claim::Wait(pause)),
        LeaseReply::Lease {
            id,
            experiment,
            full,
            trials,
            work,
        } => {
            let exp = Experiment::recorded(&experiment, full, trials, opts)?;
            validate_plan(&work, exp.grid.cell_count(), exp.grid.trials).map_err(|e| {
                format!("{e} — coordinator and worker run different code, or a corrupt lease")
            })?;
            Ok(Claim::Run(Box::new(Lease {
                id,
                exp,
                plan: work,
            })))
        }
    }
}

/// A result POST's outcome: the reply's status and body, or why it failed.
type Reply = Result<(u16, String), String>;

/// The worker's result POSTs, at most one in flight.
struct Outbox<'a> {
    addr: &'a str,
    /// The lease whose result is on its way, and the thread sending it.
    in_flight: Option<(u64, JoinHandle<Reply>)>,
    /// Leases whose results the coordinator accepted.
    accepted: usize,
}

impl Outbox<'_> {
    /// Sends lease `id`'s artifact on a thread of its own, once the POST
    /// before it is collected.
    fn send(&mut self, id: u64, artifact: String) -> Result<(), String> {
        self.collect()?;
        let addr = self.addr.to_string();
        let post = std::thread::Builder::new()
            .name(format!("post-{id}"))
            .spawn(move || http_request(&addr, "POST", &format!("/result/{id}"), Some(&artifact)))
            .map_err(|e| format!("cannot start the POST of lease {id}: {e}"))?;
        self.in_flight = Some((id, post));
        Ok(())
    }

    /// Waits for the POST in flight, if any, and prints its outcome. A
    /// reply other than 200 or 503 is an error; a 503 and a failed delivery
    /// only warn.
    fn collect(&mut self) -> Result<(), String> {
        let Some((id, post)) = self.in_flight.take() else {
            return Ok(());
        };
        let reply = post
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        match reply {
            Ok((200, reply)) => {
                self.accepted += 1;
                println!("[work] lease {id} accepted: {reply}");
                Ok(())
            }
            // The fold rejected our results: wrong build, conflicting bits.
            // Running more leases would produce more rejections.
            Ok((409, reply)) => Err(format!("coordinator rejected lease {id}: {reply}")),
            // Folded and completed, but not checkpointed yet: nothing to redo.
            Ok((503, reply)) => {
                eprintln!("warning: coordinator could not checkpoint lease {id}: {reply}");
                Ok(())
            }
            Ok((status, reply)) => Err(format!("unexpected reply {status} to lease {id}: {reply}")),
            Err(e) => {
                // Delivery failed — the lease will expire and be re-issued;
                // the next claim decides whether the server is gone.
                eprintln!("warning: could not deliver lease {id}: {e}");
                Ok(())
            }
        }
    }
}

/// The worker loop: claim, run, report, repeat until `done`, with the
/// previous lease's POST in flight meanwhile.
pub fn run_worker(opts: &Options) -> Result<(), String> {
    let addr = opts.connect.clone().expect("validated at parse time");
    let limits = Limits::of(opts);
    let hold = std::env::var(HOLD_ENV)
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_millis);
    let mut failures = 0u32;
    let mut ever_connected = false;
    let mut outbox = Outbox {
        addr: &addr,
        in_flight: None,
        accepted: 0,
    };
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
                    outbox.collect()?;
                    println!(
                        "[work] coordinator at {addr} gone after {} leases — \
                         assuming the sweep completed",
                        outbox.accepted
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
            outbox.collect()?;
            return Err(format!(
                "coordinator rejected lease claim ({status}): {body}"
            ));
        }
        let lease = match decode_lease(&body, opts) {
            Ok(Claim::Run(lease)) => *lease,
            // Everything is leased out, our own last lease included while
            // its POST is in flight: its reply may free or finish the sweep,
            // so ask again as soon as it is in.
            Ok(Claim::Wait(_)) if outbox.in_flight.is_some() => {
                outbox.collect()?;
                continue;
            }
            Ok(Claim::Wait(pause)) => {
                std::thread::sleep(pause);
                continue;
            }
            Ok(Claim::Done) => {
                outbox.collect()?;
                println!("[work] sweep complete after {} leases", outbox.accepted);
                return Ok(());
            }
            Err(e) => {
                outbox.collect()?;
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
        // perfbench/run.py counts claimed and accepted leases from this line
        // and `Outbox::collect`'s (` trials across `, ` accepted: `): keep
        // their wording.
        println!(
            "[work] lease {}: {} trials across {} cells of {}",
            lease.id,
            trials,
            cells.len(),
            lease.exp.entry.name
        );
        let artifact = lease.exp.run_plan(&lease.plan, (0, 1)).to_json();
        outbox.send(lease.id, artifact)?;
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
        let Claim::Run(lease) = reply else {
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
            Ok(Claim::Wait(p)) if p == Duration::from_millis(50)
        ));
        assert!(matches!(
            decode_lease("{\"status\":\"done\"}", &Options::default()),
            Ok(Claim::Done)
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
