//! T-imd — §II/§III: interactivity needs 256 processors *and* a high-QoS
//! network; on a general-purpose network the coupled simulation stalls.

use crate::config::Scale;
use crate::costing::CostModel;
use crate::phases::interactive::run_interactive;
use crate::report::Report;
use spice_gridsim::network::tcp::{mathis_throughput_mbps, DEFAULT_MSS};
use spice_gridsim::network::{Link, Path, QosProfile};
use spice_steering::imd::{simulate_session, ImdConfig};
use spice_telemetry::Telemetry;

/// Slowdown as a function of degrading loss on an otherwise-lightpath
/// link: the QoS sweep series.
pub fn loss_sweep(scale: Scale, seed: u64) -> Vec<(f64, f64)> {
    let cost = CostModel::paper();
    let cfg = ImdConfig {
        step_wall_ms: cost.step_wall_ms(256),
        steps_per_exchange: 10,
        n_exchanges: match scale {
            Scale::Test => 100,
            Scale::Bench => 400,
            Scale::Paper => 2_000,
        },
        seed,
        ..ImdConfig::default()
    };
    [0.0, 0.001, 0.005, 0.01, 0.05, 0.1]
        .iter()
        .map(|&loss| {
            let mut link: Link = QosProfile::TransAtlanticLightpath.link();
            link.loss = loss;
            let p = Path::new(vec![link]);
            let stats = simulate_session(&cfg, &p, &p, &Telemetry::disabled(), 0);
            (loss, stats.slowdown())
        })
        .collect()
}

/// Run T-imd.
pub fn run(scale: Scale, master_seed: u64) -> Report {
    let interactive = run_interactive(scale, master_seed);
    let cost = CostModel::paper();
    let sweep = loss_sweep(scale, master_seed ^ 0x1117);

    let mut r = Report::new(
        "T-imd",
        "Interactive MD: processor and network QoS requirements (§II, §III)",
    );
    r.fact(
        "min procs for ≥1 Hz steering updates",
        format!("{} (paper: 256)", cost.min_procs_for_interactivity(1.0, 10)),
    )
    .fact(
        "IMD rate @128 procs",
        format!(
            "{:.2} Hz (below interactive threshold)",
            cost.imd_rate_hz(128, 10)
        ),
    )
    .fact(
        "IMD rate @256 procs",
        format!("{:.2} Hz", cost.imd_rate_hz(256, 10)),
    )
    .fact(
        "slowdown on lightpath",
        format!("{:.3}×", interactive.lightpath.slowdown()),
    )
    .fact(
        "slowdown on commodity internet",
        format!("{:.3}×", interactive.commodity.slowdown()),
    )
    .fact(
        "retransmits (lightpath / commodity)",
        format!(
            "{} / {}",
            interactive.lightpath.retransmits, interactive.commodity.retransmits
        ),
    )
    .fact(
        "live session: frames / forces / drag (Å)",
        format!(
            "{} / {} / {:.1}",
            interactive.frames, interactive.forces_applied, interactive.dragged_angstroms
        ),
    )
    .fact(
        "peak haptic force",
        format!("{:.0} pN", interactive.peak_haptic_force_pn),
    )
    .fact(
        "single-flow TCP ceiling (Mathis): lightpath / commodity",
        format!(
            "{:.0} / {:.1} Mbit/s",
            mathis_throughput_mbps(&QosProfile::TransAtlanticLightpath.link(), DEFAULT_MSS),
            mathis_throughput_mbps(&QosProfile::TransAtlanticCommodity.link(), DEFAULT_MSS)
        ),
    );
    let pts: Vec<Vec<f64>> = sweep.iter().map(|&(l, s)| vec![l, s]).collect();
    r.series(
        "simulation slowdown vs packet loss (45 ms lightpath base)",
        vec!["loss".into(), "slowdown ×".into()],
        &pts,
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_monotone_in_loss() {
        let sweep = loss_sweep(Scale::Test, 3);
        assert_eq!(sweep.len(), 6);
        assert!(
            sweep.last().unwrap().1 > sweep.first().unwrap().1,
            "10% loss must stall more than lossless: {sweep:?}"
        );
        // Broadly non-decreasing (tiny jitter tolerated).
        for w in sweep.windows(2) {
            assert!(w[1].1 > w[0].1 - 0.05, "slowdown dipped: {w:?}");
        }
    }

    #[test]
    fn report_carries_paper_claims() {
        let r = run(Scale::Test, 5);
        let text = r.render();
        assert!(text.contains("(paper: 256)"));
        assert!(text.contains("slowdown on lightpath"));
    }
}
