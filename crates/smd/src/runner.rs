//! Drive one SMD realization: equilibrate with the spring static, then
//! move the guide at constant v and record the work integral.

use crate::protocol::PullProtocol;
use crate::pulling::SmdSpring;
use crate::work::{WorkSample, WorkTrajectory};
use spice_md::{MdError, Simulation};

/// Result of one pulling realization.
#[derive(Debug)]
pub struct PullOutcome {
    /// The recorded work trajectory.
    pub trajectory: WorkTrajectory,
    /// MD steps actually executed (equilibration + pull).
    pub steps: u64,
}

/// What an ensemble runs on each realization from its start state, on
/// the scalar loop and on lanes alike: a `hold_steps` hold on a static
/// spring at its anchor, then `pull_steps` with the guide moving at the
/// protocol's velocity, sampled every `protocol.sample_stride` steps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Leg {
    /// κ, v, the sample stride and the trajectories' labels (an umbrella
    /// window's v = 0 fails `PullProtocol::validate`; windows skip it).
    pub(crate) protocol: PullProtocol,
    pub(crate) hold_steps: u64,
    pub(crate) pull_steps: u64,
    /// Umbrella windows record each sample's absolute COM z in
    /// `com_disp`, not its displacement from the pull's start.
    pub(crate) absolute_com: bool,
}

impl Leg {
    /// A pull of `protocol` after a `hold_steps` hold.
    pub(crate) fn pull(protocol: &PullProtocol, hold_steps: u64) -> Leg {
        protocol.validate();
        Leg {
            protocol: *protocol,
            hold_steps,
            pull_steps: protocol.pull_steps(),
            absolute_com: false,
        }
    }

    /// MD steps a realization runs from its start state: hold and pull.
    pub(crate) fn steps(&self) -> u64 {
        self.hold_steps + self.pull_steps
    }

    /// A sample buffer for the pull, holding its first sample: spring
    /// force `force` at the start.
    pub(crate) fn samples(&self, force: f64) -> Vec<WorkSample> {
        let stride = self.protocol.sample_stride;
        let mut samples = Vec::with_capacity((self.pull_steps / stride) as usize + 2);
        samples.push(WorkSample {
            t_ps: 0.0,
            guide_disp: 0.0,
            com_disp: 0.0,
            work: 0.0,
            force,
        });
        samples
    }
}

/// A realization's spring anchor: its steered group's COM, or with an
/// `offset` s, that COM + s after translating the group s along z (an
/// umbrella window's start). Returns `(COM before any shift, anchor)`.
pub(crate) fn anchor(sim: &mut Simulation, probe: &SmdSpring, offset: Option<f64>) -> (f64, f64) {
    let com = probe.com_z(sim.system().positions());
    let Some(s) = offset else {
        return (com, com);
    };
    for &i in probe.group() {
        sim.system_mut().positions_mut()[i].z += s;
    }
    (com, com + s)
}

/// A spring of κ `kappa` on the group named `"smd"`, its guide at z = 0:
/// the probe every realization's anchor and pull spring come from.
pub(crate) fn spring_probe(sim: &Simulation, kappa: f64) -> Result<SmdSpring, MdError> {
    let group = sim.force_field().topology().group("smd")?.to_vec();
    let probe = SmdSpring::new(group, sim.system().masses(), kappa, 0.0, 0.0, 0.0);
    Ok(probe)
}

/// Anchor a static spring (v = 0: the guide holds still) on the group
/// named `"smd"` as [`anchor`] does and integrate `steps` steps. Returns
/// `(COM before any shift, anchor, the group's spring probe)`.
pub(crate) fn hold(
    sim: &mut Simulation,
    kappa: f64,
    offset: Option<f64>,
    steps: u64,
) -> Result<(f64, f64, SmdSpring), MdError> {
    let probe = spring_probe(sim, kappa)?;
    let (com, anchor) = anchor(sim, &probe, offset);
    sim.set_bias(Some(Box::new(probe.guided(anchor, 0.0, 0.0))));
    sim.run(steps, &mut [])?;
    Ok((com, anchor, probe))
}

/// Run one constant-velocity pull on `sim`, steering the group named
/// `"smd"` in the simulation's topology.
///
/// Sequence:
/// 1. equilibrate `protocol.equilibration_steps` with the spring anchored
///    at the group's current COM (v = 0 effectively: the guide holds
///    still),
/// 2. pull for `protocol.pull_steps()`, accumulating
///    `W += v·F_spring·dt` by the trapezoid rule and sampling every
///    `sample_stride` steps.
///
/// The realization's `seed` field is provenance only — the caller seeds
/// the simulation itself.
pub fn run_pull(
    sim: &mut Simulation,
    protocol: &PullProtocol,
    seed: u64,
) -> Result<PullOutcome, MdError> {
    let leg = Leg::pull(protocol, protocol.equilibration_steps);
    run_leg(sim, &leg, seed, None).map(|(_, out)| out)
}

/// One realization of `leg` on `sim`, its steered group first shifted by
/// `offset` when given: [`hold`], then move the guide from the anchor
/// (where the hold held it, as in NAMD's SMDk restart convention) and
/// record the work integral. Returns the COM before the shift and the
/// outcome.
pub(crate) fn run_leg(
    sim: &mut Simulation,
    leg: &Leg,
    seed: u64,
    offset: Option<f64>,
) -> Result<(f64, PullOutcome), MdError> {
    let protocol = &leg.protocol;
    let (origin, anchor, probe) = hold(sim, protocol.kappa(), offset, leg.hold_steps)?;
    let (v, t0, dt) = (protocol.velocity(), sim.time_ps(), sim.dt());
    let probe = probe.guided(anchor, v, t0);
    sim.set_bias(Some(Box::new(probe.clone())));

    let com_start = match leg.absolute_com {
        true => 0.0,
        false => probe.com_z(sim.system().positions()),
    };
    let mut work = 0.0;
    let mut prev_force = probe.spring_force(sim.system().positions(), t0);
    let mut samples = leg.samples(prev_force);

    let nsteps = leg.pull_steps;
    for step in 1..=nsteps {
        sim.step_once();
        let t = sim.time_ps();
        let force = probe.spring_force(sim.system().positions(), t);
        // Trapezoid: dW = v · (F_prev + F)/2 · dt.
        work += v * 0.5 * (prev_force + force) * dt;
        prev_force = force;
        #[cfg(feature = "audit")]
        crate::audit::check_finite_work(work, force, step);
        if step % protocol.sample_stride == 0 || step == nsteps {
            samples.push(WorkSample {
                t_ps: t - t0,
                guide_disp: v * (t - t0),
                com_disp: probe.com_z(sim.system().positions()) - com_start,
                work,
                force,
            });
        }
        if step % 200 == 0 && !sim.system().is_finite() {
            return Err(MdError::NumericalBlowup {
                step: sim.step_count(),
                what: "non-finite state during pull".into(),
            });
        }
    }
    sim.set_bias(None);

    let trajectory = WorkTrajectory {
        kappa_pn_per_a: protocol.kappa_pn_per_a,
        v_a_per_ns: protocol.v_a_per_ns,
        seed,
        samples,
    };
    let steps = leg.hold_steps + nsteps;
    Ok((origin, PullOutcome { trajectory, steps }))
}

/// Start a reverse pull (same κ, −v): translate the steered group
/// `pull_distance` along `protocol`'s direction, to the far end of the
/// sub-trajectory; forward and reverse work feed the Crooks/BAR
/// estimators. Without an `"smd"` group nothing moves.
pub fn shift_to_far_end(sim: &mut Simulation, protocol: &PullProtocol) {
    let shift = protocol.pull_distance * protocol.velocity().signum();
    let group = sim
        .force_field()
        .topology()
        .group("smd")
        .map(<[usize]>::to_vec);
    for i in group.unwrap_or_default() {
        sim.system_mut().positions_mut()[i].z += shift;
    }
    sim.refresh_forces();
}

#[cfg(test)]
mod tests {
    use super::*;
    use spice_md::forces::{ForceField, Restraint};
    use spice_md::integrate::LangevinBaoab;
    use spice_md::{System, Topology, Vec3};

    /// One bead in a harmonic well U = a z² — the PMF is known exactly.
    fn well_sim(seed: u64, a: f64) -> Simulation {
        let mut sys = System::new();
        sys.add_particle(Vec3::zero(), 50.0, 0.0, 0);
        let mut topo = Topology::new();
        topo.set_group("smd", vec![0]);
        let ff = ForceField::new(topo).with_restraint(Restraint::harmonic(0, Vec3::zero(), a));
        Simulation::new(
            sys,
            ff,
            Box::new(LangevinBaoab::new(300.0, 5.0, seed)),
            0.02,
        )
    }

    fn quick_protocol() -> PullProtocol {
        PullProtocol {
            kappa_pn_per_a: 200.0,
            v_a_per_ns: 2000.0, // fast: 2 Å/ps·10⁻³ → short test
            pull_distance: 4.0,
            dt_ps: 0.02,
            equilibration_steps: 200,
            sample_stride: 10,
        }
    }

    #[test]
    fn pull_produces_well_formed_trajectory() {
        let mut sim = well_sim(1, 1.0);
        let out = run_pull(&mut sim, &quick_protocol(), 1).unwrap();
        let t = &out.trajectory;
        assert!(t.is_well_formed());
        assert!(
            (t.guide_span() - 4.0).abs() < 0.1,
            "span {}",
            t.guide_span()
        );
        assert!(t.samples.len() > 10);
        assert_eq!(t.kappa_pn_per_a, 200.0);
    }

    #[test]
    fn com_follows_guide_for_stiff_spring() {
        let mut sim = well_sim(2, 0.5);
        let mut proto = quick_protocol();
        proto.kappa_pn_per_a = 2000.0; // very stiff
        let out = run_pull(&mut sim, &proto, 2).unwrap();
        let last = out.trajectory.samples.last().unwrap();
        assert!(
            (last.com_disp - last.guide_disp).abs() < 1.0,
            "stiff spring: com {} vs guide {}",
            last.com_disp,
            last.guide_disp
        );
    }

    #[test]
    fn work_roughly_matches_pmf_difference_when_slow() {
        // Pulling a bead up a harmonic PMF Φ = a z²: mean work ≥ ΔΦ
        // (second law), and for slow-ish pulls it's within ~2× of ΔΦ.
        let a = 0.5;
        let mut works = Vec::new();
        for seed in 0..8 {
            let mut sim = well_sim(seed, a);
            let mut proto = quick_protocol();
            proto.v_a_per_ns = 500.0;
            proto.pull_distance = 3.0;
            let out = run_pull(&mut sim, &proto, seed).unwrap();
            works.push(out.trajectory.final_work());
        }
        let mean_w = spice_stats::mean(&works);
        let dphi = a * 3.0 * 3.0; // Φ(3) - Φ(0) = 4.5 kcal/mol
        assert!(
            mean_w > 0.6 * dphi,
            "mean work {mean_w} much below ΔΦ {dphi} — work integral broken"
        );
        assert!(
            mean_w < 4.0 * dphi,
            "mean work {mean_w} absurdly above ΔΦ {dphi}"
        );
    }

    #[test]
    fn dissipation_grows_with_velocity() {
        // ⟨W⟩ − ΔΦ (dissipated work) must increase with pulling speed —
        // the systematic-error mechanism of §IV-C.
        let a = 0.5;
        let mean_work = |v: f64| {
            let works: Vec<f64> = (0..6)
                .map(|seed| {
                    let mut sim = well_sim(100 + seed, a);
                    let mut proto = quick_protocol();
                    proto.v_a_per_ns = v;
                    proto.pull_distance = 3.0;
                    run_pull(&mut sim, &proto, seed)
                        .unwrap()
                        .trajectory
                        .final_work()
                })
                .collect();
            spice_stats::mean(&works)
        };
        let w_slow = mean_work(250.0);
        let w_fast = mean_work(4000.0);
        assert!(
            w_fast > w_slow,
            "dissipation must grow with v: slow {w_slow} vs fast {w_fast}"
        );
    }

    #[test]
    fn missing_smd_group_is_an_error() {
        let mut sys = System::new();
        sys.add_particle(Vec3::zero(), 1.0, 0.0, 0);
        let ff = ForceField::new(Topology::new());
        let mut sim = Simulation::new(sys, ff, Box::new(LangevinBaoab::new(300.0, 1.0, 0)), 0.01);
        assert!(run_pull(&mut sim, &quick_protocol(), 0).is_err());
    }

    /// A reverse pull: start at the far end, pull back at −v.
    fn run_reverse_pull(
        sim: &mut Simulation,
        protocol: &PullProtocol,
        seed: u64,
    ) -> Result<PullOutcome, MdError> {
        shift_to_far_end(sim, protocol);
        let reversed = PullProtocol {
            v_a_per_ns: -protocol.v_a_per_ns,
            ..*protocol
        };
        run_pull(sim, &reversed, seed)
    }

    #[test]
    fn reverse_pull_starts_displaced_and_returns() {
        let mut sim = well_sim(9, 0.5);
        let proto = quick_protocol();
        let out = run_reverse_pull(&mut sim, &proto, 9).unwrap();
        let t = &out.trajectory;
        assert!(t.is_well_formed());
        // Reverse trajectory moves in −z: guide displacement negative.
        assert!(t.guide_span() < 0.0, "span {}", t.guide_span());
        assert!((t.guide_span() + proto.pull_distance).abs() < 0.1);
    }

    #[test]
    fn forward_reverse_work_bracket_delta_f() {
        // Second law from both sides: ⟨W_F⟩ ≥ ΔΦ ≥ −⟨W_R⟩ for the
        // harmonic well (ΔΦ = a·d²).
        let a = 0.5;
        let proto = PullProtocol {
            v_a_per_ns: 500.0,
            pull_distance: 3.0,
            ..quick_protocol()
        };
        let dphi = a * 9.0;
        let mut fwd = Vec::new();
        let mut rev = Vec::new();
        for seed in 0..8 {
            let mut s1 = well_sim(200 + seed, a);
            fwd.push(
                run_pull(&mut s1, &proto, seed)
                    .unwrap()
                    .trajectory
                    .final_work(),
            );
            let mut s2 = well_sim(300 + seed, a);
            rev.push(
                run_reverse_pull(&mut s2, &proto, seed)
                    .unwrap()
                    .trajectory
                    .final_work(),
            );
        }
        let wf = spice_stats::mean(&fwd);
        let wr = spice_stats::mean(&rev);
        assert!(wf > dphi - 1.5, "⟨W_F⟩ = {wf} should be ≳ ΔΦ = {dphi}");
        assert!(-wr < dphi + 1.5, "−⟨W_R⟩ = {} should be ≲ ΔΦ = {dphi}", -wr);
        assert!(wf + wr > -0.5, "total hysteresis must be ≥ 0: {}", wf + wr);
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let mut sim = well_sim(seed, 1.0);
            run_pull(&mut sim, &quick_protocol(), seed)
                .unwrap()
                .trajectory
                .final_work()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
