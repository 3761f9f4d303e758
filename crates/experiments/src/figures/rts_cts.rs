//! §III-B "RTS/CTS" — the findings survive with the handshake enabled.
//!
//! With RTS/CTS, collisions happen among 20 B RTS frames instead of data
//! frames, but the extra inter-frame spaces and control frames add overhead.
//! The paper reports LLB's total-time increase over BEB moving from
//! +5.6 %/+9.1 % (64 B/1024 B, RTS off) to +10.7 %/+7.5 % (RTS on) — same
//! qualitative picture.

use crate::figures::shared::{fold_grid, uniform_grid, SweepHooks};
use crate::figures::Report;
use crate::options::Options;
use crate::summary::Metric;
use crate::table::render;
use contention_core::algorithm::AlgorithmKind;
use contention_core::util::percent_change;
use contention_mac::{MacConfig, MacSim};

pub fn run(opts: &Options) -> Report {
    let n = 150;
    let trials = opts.trials_or(6, 30);
    let mut rows = Vec::new();
    let mut report = Report::new("§III-B — RTS/CTS check: LLB vs BEB total time (n = 150)");
    for payload in [64u32, 1024] {
        for rts in [false, true] {
            let mut config = MacConfig::paper(AlgorithmKind::Beb, payload);
            config.rts_cts = rts;
            let grid = uniform_grid(
                vec![AlgorithmKind::Beb, AlgorithmKind::LogLogBackoff],
                vec![n],
                trials,
                &[Metric::TotalTimeUs],
            );
            let experiment = if rts { "rtscts-on" } else { "rtscts-off" };
            let cells = fold_grid::<MacSim>(experiment, config, &grid, opts, &SweepHooks::none());
            let beb = cells[0].acc.point(n as f64, Metric::TotalTimeUs).median;
            let llb = cells[1].acc.point(n as f64, Metric::TotalTimeUs).median;
            let paper = match (payload, rts) {
                (64, false) => "+5.6%",
                (1024, false) => "+9.1%",
                (64, true) => "+10.7%",
                (1024, true) => "+7.5%",
                _ => unreachable!(),
            };
            rows.push(vec![
                format!("{payload} B"),
                if rts { "on" } else { "off" }.to_string(),
                format!("{beb:.0}"),
                format!("{llb:.0}"),
                format!("{:+.1}%", percent_change(llb, beb)),
                paper.to_string(),
            ]);
        }
    }
    report.line(render(
        &[
            "payload".into(),
            "RTS/CTS".into(),
            "BEB µs".into(),
            "LLB µs".into(),
            "LLB vs BEB".into(),
            "paper".into(),
        ],
        &rows,
    ));
    report.line("qualitative behaviour is unchanged by RTS/CTS: BEB still leads (§III-B).");
    report.rows_csv(
        "rtscts_llb_vs_beb",
        std::iter::once(vec![
            "payload".to_string(),
            "rts_cts".to_string(),
            "beb_us".to_string(),
            "llb_us".to_string(),
            "llb_vs_beb_pct".to_string(),
        ])
        .chain(rows.iter().map(|r| {
            vec![
                r[0].replace(" B", ""),
                r[1].clone(),
                r[2].clone(),
                r[3].clone(),
                r[4].replace(['%', '+'], ""),
            ]
        }))
        .collect(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rts_on_and_off_both_reported() {
        let opts = Options {
            trials: Some(3),
            threads: Some(2),
            ..Options::default()
        };
        let r = run(&opts);
        assert!(r.body.contains("on"));
        assert!(r.body.contains("off"));
        assert!(r.body.contains("1024 B"));
    }
}
