//! T-scale — §VI: "there is no theoretical limit to how well our approach
//! scales; the only constraint is the availability of computational
//! resources." Realizations are independent, and `run_ensemble` steps
//! them as lanes in chunks of whole 8-lane vectors, one chunk per core
//! (the in-process analogue of adding grid sites). This times it on the
//! Test pore at 8, 16 and 24 realizations, which a 2-vCPU host runs as 1,
//! 2 and 2 chunks (`[8]`, `[8, 8]`, `[16, 8]`): with ideal scaling over
//! cores, 16 realizations take as long as 8, and 24 as long as 16 lanes
//! on one core. The sizes are timed in interleaved rounds and reported
//! as medians, so a slow phase of the host lands on every size alike.
//!
//! ```sh
//! cargo bench -p spice-bench --bench bench_scaling
//! ```

use spice_core::config::Scale;
use spice_core::pipeline::pore_simulation;
use spice_smd::run_ensemble;
use spice_stats::rng::SeedSequence;
use std::time::Instant;

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let protocol = Scale::Test.protocol(100.0, 100.0);
    let sizes = [8usize, 16, 24];
    let rounds = 15;
    let mut walls = vec![Vec::with_capacity(rounds); sizes.len()];
    for _ in 0..rounds {
        for (wall, &n) in walls.iter_mut().zip(&sizes) {
            let t0 = Instant::now();
            let slots = run_ensemble(
                |seed| pore_simulation(Scale::Test, seed),
                &protocol,
                n,
                SeedSequence::new(3),
            );
            wall.push(t0.elapsed().as_secs_f64());
            assert!(slots.iter().all(Result::is_ok), "a realization failed");
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    println!("T-scale: run_ensemble on the Test pore, {cores} cores, median of {rounds} rounds");
    let base = median(&mut walls[0]);
    for (wall, &n) in walls.iter_mut().zip(&sizes) {
        let m = median(wall);
        println!(
            "{n:>3} realizations: {:8.2} ms ({:.3} ms per realization, {:.2}x the 8-realization wall)",
            m * 1e3,
            m * 1e3 / n as f64,
            m / base
        );
    }
}
