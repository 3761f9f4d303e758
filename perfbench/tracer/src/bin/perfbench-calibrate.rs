//! The benchmark's calibration kernel.
//!
//! A fixed, self-contained aligned-window binary exponential backoff run
//! (60 000 stations, 12 seeds, ~50 ms of CPU on the reference host). Its CPU
//! time tracks how fast this host runs simulation code at the moment —
//! shared hosts speed up and slow down by ±20 % over minutes as their
//! neighbours come and go — and `perfbench/run.py` scales `wall_s` and
//! `cpu_s` by it. It uses none of the repository's crates on purpose: no
//! change to the program under test may move it. Change it only together
//! with `CAL_REF_S` in `run.py`.

use std::hint::black_box;

/// Windows of doubling size until every station has sent alone; returns the
/// contention-window slots used.
fn window_beb(n: usize, seed: u64, slot: &mut Vec<u32>, occupancy: &mut Vec<u32>) -> u64 {
    let mut x = seed | 1;
    let mut alive = n;
    let mut window = 2usize;
    let mut slots = 0u64;
    while alive > 0 {
        occupancy.clear();
        occupancy.resize(window, 0);
        slot.clear();
        for _ in 0..alive {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let s = (x % window as u64) as u32;
            occupancy[s as usize] += 1;
            slot.push(s);
        }
        alive = slot.iter().filter(|&&s| occupancy[s as usize] > 1).count();
        slots += window as u64;
        window *= 2;
    }
    slots
}

fn main() {
    let (mut slot, mut occupancy) = (Vec::new(), Vec::new());
    let total: u64 = (1..=12u64)
        .map(|seed| window_beb(black_box(60_000), seed, &mut slot, &mut occupancy))
        .sum();
    println!("{}", black_box(total));
}
