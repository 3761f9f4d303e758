//! §V-B — the smallest feasible packets (12 B payload, 76 B frame).
//!
//! NS3's UdpClient imposes a 12 B payload minimum, so the closest the paper
//! can get to the abstract model's "transmission fits in a slot" is a 76 B
//! frame. The qualitative behaviour survives: the paper reports total-time
//! increases of +6.6 % (LLB), +17.8 % (LB) and +20.6 % (STB) over BEB.

use crate::aggregate::StatsCell;
use crate::figures::shared::standard_mac_figure_from_cells;
use crate::figures::Report;
use crate::options::Options;
use crate::summary::Metric;

pub fn report(_opts: &Options, cells: &[StatsCell]) -> Report {
    let mut report = standard_mac_figure_from_cells(
        "§V-B — total time with minimum-size packets (12 B payload)",
        "minpkt_total_time_12",
        Metric::TotalTimeUs,
        cells,
        "LLB +6.6%, LB +17.8%, STB +20.6%",
    );
    report.line(
        "smaller packets shrink — but do not erase — the collision cost, because the \
         preamble and ACK timeout still dwarf a 9 µs slot.",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::tests::run;

    #[test]
    fn min_packet_figure_runs() {
        let opts = Options {
            trials: Some(3),
            threads: Some(2),
            ..Options::default()
        };
        let r = run("minpkt", &opts);
        assert!(r.body.contains("vs BEB"));
    }
}
