//! The Fig. 4 conclusions as a gate: the Bench-scale (κ, v) sweep must
//! keep the shapes EXPERIMENTS.md records as matching the paper, so a
//! change that re-pins the MD bits on purpose cannot silently move the
//! headline result. The known divergences stay documented, not asserted.
//!
//! The sweep takes tens of seconds in a release build, so the test is
//! ignored by default:
//! `cargo test --release --test fig4_shapes -- --ignored`

use spice::core::config::Scale;
use spice::core::run_sweep;
use spice::smd::PullProtocol;

#[test]
#[ignore = "Bench-scale sweep; run in release with --ignored"]
fn bench_sweep_keeps_the_fig4_shapes() {
    let sweep = run_sweep(Scale::Bench, 20050512);
    let cell = |kappa: f64, v: f64| {
        sweep
            .cell(kappa, v)
            .unwrap_or_else(|| panic!("no cell (κ={kappa}, v={v})"))
    };

    // Claim 5: the paper's optimum.
    let sel = &sweep.selection;
    assert_eq!(
        (sel.kappa_pn_per_a, sel.v_a_per_ns),
        (100.0, 12.5),
        "selected (κ, v)"
    );

    // Claim 1: κ = 10 never covers the span, so it is ineligible.
    for row in sweep.table.iter().filter(|r| r.kappa_pn_per_a == 10.0) {
        assert!(!row.covered, "κ=10, v={} covered the span", row.v_a_per_ns);
    }

    for kappa in PullProtocol::KAPPA_GRID {
        // Claim 3: irreversible work grows with the pulling speed.
        for pair in PullProtocol::V_GRID.windows(2) {
            let (slow, fast) = (cell(kappa, pair[0]), cell(kappa, pair[1]));
            assert!(
                fast.sigma_sys > slow.sigma_sys,
                "κ={kappa}: σ_sys {} at v={} is not above {} at v={}",
                fast.sigma_sys,
                pair[1],
                slow.sigma_sys,
                pair[0]
            );
        }
    }

    for v in PullProtocol::V_GRID {
        // σ_stat is smallest at κ = 10 at every velocity.
        let soft = cell(10.0, v).sigma_stat_norm;
        for kappa in [100.0, 1000.0] {
            assert!(
                soft < cell(kappa, v).sigma_stat_norm,
                "v={v}: σ_stat(κ=10) {soft} is not below σ_stat(κ={kappa})"
            );
        }
    }

    // Claim 4: errors compared at fixed cost, the √8 penalty at v = 12.5
    // against v = 100.
    for (v, expected) in [(12.5, 8f64.sqrt()), (100.0, 1.0)] {
        for kappa in PullProtocol::KAPPA_GRID {
            let c = cell(kappa, v);
            let ratio = c.sigma_stat_norm / c.sigma_stat_raw;
            assert!(
                (ratio / expected - 1.0).abs() < 1e-12,
                "κ={kappa}, v={v}: σ_norm/σ_raw = {ratio}, expected {expected}"
            );
        }
    }
}
