//! Quickstart: build the pore + ssDNA system, run one steered pull, and
//! estimate the free-energy profile with Jarzynski's equality.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use spice::jarzynski::pmf::{Estimator, PmfCurve};
use spice::md::units::KT_300;
use spice::pore::build::PoreSystemBuilder;
use spice::smd::{run_ensemble, PullProtocol};
use spice::stats::rng::SeedSequence;

fn main() {
    // 1. The system: α-hemolysin-like pore, membrane, implicit 1 M KCl,
    //    and a 12-base ssDNA with its lead bead below the constriction.
    let build = || PoreSystemBuilder::new().dna_start_z(46.0).build();
    println!("system: {:?}", build());

    // 2. The protocol: the paper's optimal spring (κ = 100 pN/Å) at a
    //    laptop-friendly pulling speed over a 4 Å sub-trajectory.
    let protocol = PullProtocol {
        kappa_pn_per_a: 100.0,
        v_a_per_ns: 200.0,
        pull_distance: 4.0,
        dt_ps: 0.01,
        equilibration_steps: 500,
        sample_stride: 20,
    };

    // 3. An ensemble of independent realizations (batched lanes, one
    //    chunk per core — the in-process analogue of the paper's grid
    //    campaign).
    let n = 12;
    println!("running {n} SMD realizations …");
    let trajectories: Vec<_> = run_ensemble(
        |seed| build().into_simulation(0.01, seed),
        &protocol,
        n,
        SeedSequence::new(2005),
    )
    .into_iter()
    .filter_map(Result::ok)
    .collect();
    println!("completed {} realizations", trajectories.len());
    for (i, t) in trajectories.iter().enumerate().take(4) {
        println!(
            "  realization {i}: final work = {:.2} kcal/mol",
            t.final_work()
        );
    }

    // 4. Jarzynski: non-equilibrium work → equilibrium free energy.
    let pmf = PmfCurve::estimate(&trajectories, 4.0, 9, KT_300, Estimator::Jarzynski);
    let mw = PmfCurve::estimate(&trajectories, 4.0, 9, KT_300, Estimator::MeanWork);
    println!("\n  s (Å)    Φ_JE (kcal/mol)   ⟨W⟩ (kcal/mol)");
    for (p, w) in pmf.points.iter().zip(&mw.points) {
        println!(
            "  {:5.2}    {:>10.3}       {:>10.3}",
            p.guide_disp, p.phi, w.phi
        );
    }
    println!(
        "\nJensen check: Φ_JE ≤ ⟨W⟩ everywhere: {}",
        pmf.points
            .iter()
            .zip(&mw.points)
            .all(|(a, b)| a.phi <= b.phi + 1e-9)
    );
}
