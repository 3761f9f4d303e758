//! Where does the time go? Reproduces the paper's §III-B decomposition and
//! the `T_A = C_A (P + ρ) + W_A s` model on live simulator output.
//!
//! ```text
//! cargo run --release --example collision_cost
//! ```

use contention_resolution::prelude::*;

fn main() {
    let n = 150;
    let phy = Phy80211g::paper_defaults();

    for payload in [64u32, 1024] {
        println!("{:=^74}", format!(" BEB, n = {n}, payload {payload} B "));
        let config = MacConfig::paper(AlgorithmKind::Beb, payload);
        let mut rng = trial_rng(experiment_tag("collision-cost"), AlgorithmKind::Beb, n, 0);
        let run = MacSim::run(&config, n, &mut rng);
        let m = &run.metrics;

        let decomp = Decomposition::from_measurements(
            &phy,
            payload,
            m.collisions,
            m.max_ack_timeout_time(),
            m.cw_slots,
        );
        println!(
            "observed: {} disjoint collisions (mean multiplicity {:.1}), {} CW slots",
            m.collisions,
            m.mean_collision_multiplicity(),
            m.cw_slots
        );
        println!(
            "(I)   transmissions burned by collisions: {:>10}",
            decomp.transmission
        );
        println!(
            "(II)  worst station's ACK-timeout time  : {:>10}",
            decomp.ack_timeouts
        );
        println!(
            "(III) contention-window slots           : {:>10}",
            decomp.cw_slots
        );
        println!(
            "lower bound {} ≤ measured total {}",
            decomp.lower_bound(),
            m.total_time
        );

        let model = CostModel::for_payload(&phy, payload);
        println!(
            "model T_A = C(P+ρ) + W·s = {} (collision worth {:.1} slots each)\n",
            model.total_time(m.collisions, m.cw_slots),
            model.collision_cost_in_slots()
        );
    }
    println!(
        "the 1024 B run charges ~20 slots per collision vs ~4 at 64 B: packet size\n\
         multiplies the price of every collision — Result 4's design warning."
    );
}
