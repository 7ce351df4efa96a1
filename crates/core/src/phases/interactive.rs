//! Phase 2: interactive molecular dynamics (§II–III).
//!
//! Couples a live pore simulation to a visualizer + haptic device through
//! the steering framework (the in-process analogue of the paper's
//! 256-processor IMD sessions), and quantifies the network dependence of
//! the coupled loop with the QoS model: lightpath vs general-purpose
//! internet.

use crate::config::Scale;
use crate::costing::CostModel;
use crate::pipeline::pore_simulation;
use serde::{Deserialize, Serialize};
use spice_gridsim::network::{Path, QosProfile};
use spice_stats::rng::SeedSequence;
use spice_steering::imd::{simulate_session, ImdConfig, ImdStats};
use spice_steering::service::GridService;
use spice_steering::{HapticDevice, SteeringHook, Visualizer};
use spice_telemetry::Telemetry;

/// What the interactive phase produced.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct InteractiveResult {
    /// Frames rendered during the live session.
    pub frames: u64,
    /// IMD forces injected.
    pub forces_applied: u64,
    /// Peak haptic force felt (pN) — the §III "estimate of force values".
    pub peak_haptic_force_pn: f64,
    /// Net displacement achieved by dragging (Å).
    pub dragged_angstroms: f64,
    /// Coupled-loop statistics on the lightpath network.
    pub lightpath: ImdStats,
    /// Coupled-loop statistics on the commodity network.
    pub commodity: ImdStats,
    /// Processors assumed for the full-size system (paper: 256).
    pub procs: u32,
}

/// Run the interactive phase.
pub fn run_interactive(scale: Scale, master_seed: u64) -> InteractiveResult {
    let seeds = SeedSequence::new(master_seed);

    // --- Live in-process session: drag the strand upward with haptics.
    let service = GridService::shared();
    let mut sim = pore_simulation(scale, seeds.stream(0));
    let dna: Vec<usize> = sim
        .force_field()
        .topology()
        .group("dna")
        .expect("pore system defines dna group")
        .to_vec();
    let lead = dna[0];
    let mut hook = SteeringHook::attach(service.clone(), 10, vec![lead]);
    let mut vis = Visualizer::attach(service.clone(), hook.component_id())
        .with_haptic(HapticDevice::phantom());
    let z0 = sim.system().positions()[lead].z;
    let bursts = match scale {
        Scale::Test => 20,
        Scale::Bench => 60,
        Scale::Paper => 200,
    };
    for b in 0..bursts {
        sim.run(10, &mut [&mut hook]).expect("interactive burst");
        // The scientist steadily raises the stylus.
        let hand_z = z0 + 0.25 * (b as f64 + 1.0);
        while vis.steer_with_haptic(&[lead], hand_z).is_some() {}
    }
    // Drag is measured against an unsteered control with the same seed:
    // the free strand coils and its lead bead sinks, so the absolute z
    // change alone would mix steering with relaxation.
    let mut control = pore_simulation(scale, seeds.stream(0));
    control
        .run(bursts * 10, &mut [])
        .expect("interactive control");
    let dragged = sim.system().positions()[lead].z - control.system().positions()[lead].z;
    let device = vis.haptic.as_ref().expect("device attached");
    let peak_pn = device.max_observed_force_pn();

    // --- Network dependence of the coupled loop for the full-size
    // system: the paper's 300k-atom simulation on 256 processors.
    let cost = CostModel::paper();
    let procs = 256;
    let cfg = ImdConfig {
        step_wall_ms: cost.step_wall_ms(procs),
        steps_per_exchange: 10,
        n_exchanges: match scale {
            Scale::Test => 100,
            Scale::Bench => 400,
            Scale::Paper => 2_000,
        },
        frame_bytes: 200_000,
        force_bytes: 512,
        vis_render_ms: 15.0,
        rto_ms: 200.0,
        seed: seeds.stream(1),
    };
    let lightpath = Path::new(vec![QosProfile::TransAtlanticLightpath.link()]);
    let commodity = Path::new(vec![QosProfile::TransAtlanticCommodity.link()]);
    let off = Telemetry::disabled();
    let s_lp = simulate_session(&cfg, &lightpath, &lightpath, &off, 0);
    let s_gp = simulate_session(&cfg, &commodity, &commodity, &off, 0);

    InteractiveResult {
        frames: hook.frames_emitted(),
        forces_applied: hook.forces_applied(),
        peak_haptic_force_pn: peak_pn,
        dragged_angstroms: dragged,
        lightpath: s_lp,
        commodity: s_gp,
        procs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interactive_session_drags_strand() {
        let r = run_interactive(Scale::Test, 5);
        assert!(r.frames > 0);
        assert!(r.forces_applied > 0);
        assert!(
            r.dragged_angstroms > 0.3,
            "haptic dragging should lift the lead bead: {}",
            r.dragged_angstroms
        );
        assert!(r.peak_haptic_force_pn > 0.0);
    }

    #[test]
    fn lightpath_outperforms_commodity() {
        let r = run_interactive(Scale::Test, 6);
        assert!(
            r.lightpath.slowdown() < r.commodity.slowdown(),
            "lightpath {} vs commodity {}",
            r.lightpath.slowdown(),
            r.commodity.slowdown()
        );
        assert_eq!(r.procs, 256);
    }

    #[test]
    fn deterministic() {
        let a = run_interactive(Scale::Test, 7);
        let b = run_interactive(Scale::Test, 7);
        assert_eq!(a, b);
    }
}
