//! The simulation driver: owns the system, force field, integrator and
//! bias, advances time, and calls registered step hooks.
//!
//! The hook mechanism is the paper's grid-enablement point: "rather than
//! wholesale refactoring of codes, grid-enablement should be carried out
//! by interfacing the application codes to suitable grid middleware
//! through well defined user-level APIs" (§V-B). `spice-steering`'s
//! sim-side library is exactly a [`StepHook`]; the MD code never learns
//! about grids, messages, or visualizers.

use crate::forces::{Energies, ForceField};
use crate::integrate::Integrator;
use crate::system::System;
use crate::vec3::Vec3;
use crate::MdError;
use spice_telemetry::{ProbePoint, Telemetry, Track};

/// A per-step bias force (SMD pulling spring, IMD user force). Applied
/// inside the force evaluation so integrator sub-steps see it.
pub trait BiasForce: Send {
    /// Add bias forces for the current positions at simulation time
    /// `t_ps`; returns the bias energy (kcal/mol).
    fn apply(&self, positions: &[Vec3], forces: &mut [Vec3], t_ps: f64) -> f64;
}

/// What a hook wants the driver to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HookAction {
    /// Keep integrating.
    Continue,
    /// Stop the current `run` call after this step.
    Stop,
}

/// Context handed to hooks after each completed step.
pub struct HookContext<'a> {
    /// Mutable system state — hooks may perturb it (IMD steering does).
    pub system: &'a mut System,
    /// Completed step count.
    pub step: u64,
    /// Simulation time (ps).
    pub time_ps: f64,
    /// Energy breakdown from the most recent force evaluation.
    pub energies: Energies,
    /// Bias energy from the most recent force evaluation.
    pub bias_energy: f64,
}

/// Observer invoked after every step of [`Simulation::run`].
pub trait StepHook {
    /// Inspect/perturb the state; return [`HookAction::Stop`] to end the
    /// run early.
    fn on_step(&mut self, ctx: &mut HookContext<'_>) -> HookAction;
}

/// Blanket impl so plain closures can be hooks.
impl<F: FnMut(&mut HookContext<'_>) -> HookAction> StepHook for F {
    fn on_step(&mut self, ctx: &mut HookContext<'_>) -> HookAction {
        self(ctx)
    }
}

/// A complete, runnable MD simulation.
pub struct Simulation {
    system: System,
    force_field: ForceField,
    integrator: Box<dyn Integrator + Send>,
    bias: Option<Box<dyn BiasForce>>,
    dt: f64,
    step: u64,
    last_energies: Energies,
    last_bias_energy: f64,
    /// Steps between numerical-health checks.
    blowup_check_stride: u64,
    /// Instrumentation handles; disabled (zero-cost checks) by default.
    telemetry: Telemetry,
    track: Track,
    /// Rebuild count at the last probe, for rebuild-edge detection.
    last_rebuilds: u64,
}

impl Simulation {
    /// Assemble a simulation. `dt` is the time step in ps.
    ///
    /// # Panics
    /// Panics if `dt <= 0`.
    pub fn new(
        system: System,
        force_field: ForceField,
        integrator: Box<dyn Integrator + Send>,
        dt: f64,
    ) -> Self {
        assert!(dt > 0.0, "time step must be positive");
        let mut sim = Simulation {
            system,
            force_field,
            integrator,
            bias: None,
            dt,
            step: 0,
            last_energies: Energies::default(),
            last_bias_energy: 0.0,
            blowup_check_stride: 100,
            telemetry: Telemetry::disabled(),
            track: Track::disabled(),
            last_rebuilds: 0,
        };
        sim.refresh_forces();
        sim
    }

    /// Attach instrumentation: per-step force-eval / Verlet-rebuild
    /// probes fire on `t`, and span/instant events land on `track` (its
    /// logical clock is this simulation's step counter). Attaching never
    /// perturbs the trajectory — instrumented runs stay bit-identical.
    ///
    /// Kernel-counter export is separate on purpose: a lone simulation
    /// can bind live registry views via
    /// `force_field().bind_telemetry(t)`, while concurrent ensemble
    /// realizations publish snapshot totals with
    /// [`crate::observables::KernelCounters::publish`] (commutative
    /// sums; a live bind would be last-writer-wins across threads).
    pub fn attach_telemetry(&mut self, t: &Telemetry, track: Track) {
        self.telemetry = t.clone();
        self.track = track;
        self.last_rebuilds = self.force_field.kernel_counters().neighbor_rebuilds;
    }

    /// Install (or clear) the bias force.
    pub fn set_bias(&mut self, bias: Option<Box<dyn BiasForce>>) {
        self.bias = bias;
        self.refresh_forces();
    }

    /// Recompute forces for the current positions (force field + bias).
    pub fn refresh_forces(&mut self) {
        let energies = self.force_field.evaluate(&mut self.system);
        self.last_energies = energies;
        self.last_bias_energy = if let Some(bias) = &self.bias {
            let t = self.time_ps();
            let (positions, _, _, forces) = self.system.force_eval_view();
            bias.apply(positions, forces, t)
        } else {
            0.0
        };
    }

    /// Advance exactly one step.
    pub fn step_once(&mut self) {
        let Simulation {
            system,
            force_field,
            integrator,
            bias,
            dt,
            step,
            last_energies,
            last_bias_energy,
            ..
        } = self;
        // Time at the END of the step — bias forces evaluated mid-step use
        // the updated pulling-guide position, consistent with the guide
        // moving during the step.
        let t_next = (*step + 1) as f64 * *dt;
        let mut eval = |s: &mut System| {
            *last_energies = force_field.evaluate(s);
            *last_bias_energy = if let Some(b) = bias {
                let (positions, _, _, forces) = s.force_eval_view();
                b.apply(positions, forces, t_next)
            } else {
                0.0
            };
        };
        integrator.step(system, *dt, *step, &mut eval);
        self.step += 1;
        #[cfg(feature = "audit")]
        crate::audit::check_finite_state(&self.system, self.step);
        if self.telemetry.is_enabled() {
            self.track.tick(self.step);
            self.telemetry
                .probe(ProbePoint::ForceEval, self.step, self.last_energies.total());
            let rebuilds = self.force_field.kernel_counters().neighbor_rebuilds;
            if rebuilds != self.last_rebuilds {
                self.last_rebuilds = rebuilds;
                self.telemetry
                    .probe(ProbePoint::VerletRebuild, self.step, rebuilds as f64);
                self.track.instant("md.verlet_rebuild", Vec::new());
            }
        }
    }

    /// Run `nsteps` steps, invoking each hook after every step. Stops
    /// early (without error) when any hook returns [`HookAction::Stop`].
    /// Checks numerical health periodically.
    pub fn run(&mut self, nsteps: u64, hooks: &mut [&mut dyn StepHook]) -> Result<u64, MdError> {
        let _span = if self.track.is_enabled() {
            Some(self.track.span("md.run"))
        } else {
            None
        };
        let mut done = 0;
        for _ in 0..nsteps {
            self.step_once();
            done += 1;
            if self.step.is_multiple_of(self.blowup_check_stride) && !self.system.is_finite() {
                return Err(MdError::NumericalBlowup {
                    step: self.step,
                    what: "non-finite coordinate or velocity".into(),
                });
            }
            let mut stop = false;
            let mut ctx = HookContext {
                system: &mut self.system,
                step: self.step,
                time_ps: self.step as f64 * self.dt,
                energies: self.last_energies,
                bias_energy: self.last_bias_energy,
            };
            for hook in hooks.iter_mut() {
                if hook.on_step(&mut ctx) == HookAction::Stop {
                    stop = true;
                }
            }
            if stop {
                break;
            }
        }
        Ok(done)
    }

    /// Completed step count.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// Simulation time (ps).
    pub fn time_ps(&self) -> f64 {
        self.step as f64 * self.dt
    }

    /// Time step (ps).
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// The particle state.
    pub fn system(&self) -> &System {
        &self.system
    }

    /// Mutable particle state (steering uses this for checkpoint restore
    /// and IMD perturbations between steps).
    pub fn system_mut(&mut self) -> &mut System {
        &mut self.system
    }

    /// The force field (topology, groups).
    pub fn force_field(&self) -> &ForceField {
        &self.force_field
    }

    /// Pair-kernel work counters accumulated since construction (neighbor
    /// rebuilds, kernel invocations, pairs evaluated).
    pub fn kernel_counters(&self) -> crate::observables::KernelCounters {
        self.force_field.kernel_counters()
    }

    /// Most recent force-field energy breakdown.
    pub fn energies(&self) -> Energies {
        self.last_energies
    }

    /// Most recent bias energy.
    pub fn bias_energy(&self) -> f64 {
        self.last_bias_energy
    }

    /// Overwrite the step counter (checkpoint restore).
    pub(crate) fn set_step(&mut self, step: u64) {
        self.step = step;
    }

    /// Thermostat parameters when the integrator is BAOAB Langevin (see
    /// [`Integrator::langevin_params`]); the batched ensemble engine uses
    /// these to replicate the update across replica lanes.
    pub fn langevin_params(&self) -> Option<(f64, f64, u64)> {
        self.integrator.langevin_params()
    }

    /// Decompose into the pieces the batched engine needs:
    /// `(system, force_field, dt, step)`. The integrator and bias are
    /// dropped — the batched engine re-creates both per replica lane.
    pub(crate) fn into_parts(self) -> (System, ForceField, f64, u64) {
        (self.system, self.force_field, self.dt, self.step)
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("particles", &self.system.len())
            .field("step", &self.step)
            .field("dt_ps", &self.dt)
            .field("integrator", &self.integrator.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forces::Restraint;
    use crate::integrate::{LangevinBaoab, VelocityVerlet};
    use crate::topology::Topology;

    fn well_sim(seed: u64) -> Simulation {
        let mut sys = System::new();
        sys.add_particle(Vec3::new(1.0, 0.0, 0.0), 10.0, 0.0, 0);
        let ff = ForceField::new(Topology::new()).with_restraint(Restraint::harmonic(
            0,
            Vec3::zero(),
            2.0,
        ));
        Simulation::new(
            sys,
            ff,
            Box::new(LangevinBaoab::new(300.0, 5.0, seed)),
            0.01,
        )
    }

    #[test]
    fn run_advances_time() {
        let mut sim = well_sim(1);
        sim.run(100, &mut []).unwrap();
        assert_eq!(sim.step_count(), 100);
        assert!((sim.time_ps() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hooks_observe_every_step() {
        let mut sim = well_sim(2);
        let mut seen = Vec::new();
        let mut hook = |ctx: &mut HookContext<'_>| {
            seen.push(ctx.step);
            HookAction::Continue
        };
        sim.run(5, &mut [&mut hook]).unwrap();
        assert_eq!(seen, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn hook_can_stop_early() {
        let mut sim = well_sim(3);
        let mut hook = |ctx: &mut HookContext<'_>| {
            if ctx.step >= 3 {
                HookAction::Stop
            } else {
                HookAction::Continue
            }
        };
        let done = sim.run(100, &mut [&mut hook]).unwrap();
        assert_eq!(done, 3);
        assert_eq!(sim.step_count(), 3);
    }

    #[test]
    fn bias_force_affects_trajectory() {
        struct ConstantPush;
        impl BiasForce for ConstantPush {
            fn apply(&self, _p: &[Vec3], forces: &mut [Vec3], _t: f64) -> f64 {
                forces[0] += Vec3::new(0.0, 0.0, 5.0);
                0.0
            }
        }
        let mut with_bias = well_sim(4);
        with_bias.set_bias(Some(Box::new(ConstantPush)));
        let mut without = well_sim(4);
        with_bias.run(500, &mut []).unwrap();
        without.run(500, &mut []).unwrap();
        let dz = with_bias.system().positions()[0].z - without.system().positions()[0].z;
        assert!(dz > 0.1, "constant push must displace particle: dz={dz}");
    }

    #[test]
    #[cfg(not(feature = "audit"))]
    fn blowup_detected() {
        let mut sys = System::new();
        sys.add_particle(Vec3::zero(), 1.0, 0.0, 0);
        let ff = ForceField::new(Topology::new());
        let mut sim = Simulation::new(sys, ff, Box::new(VelocityVerlet), 0.01);
        sim.system_mut().velocities_mut()[0] = Vec3::new(f64::NAN, 0.0, 0.0);
        let err = sim.run(200, &mut []).unwrap_err();
        assert!(matches!(err, MdError::NumericalBlowup { .. }));
    }

    /// With the audit sanitizer live, the same blowup is caught at the
    /// layer boundary (panic) before the engine's own detection returns
    /// its `Err` — the sanitizer is strictly earlier.
    #[test]
    #[cfg(feature = "audit")]
    #[should_panic(expected = "spice-audit[md.finite_state]")]
    fn blowup_detected() {
        let mut sys = System::new();
        sys.add_particle(Vec3::zero(), 1.0, 0.0, 0);
        let ff = ForceField::new(Topology::new());
        let mut sim = Simulation::new(sys, ff, Box::new(VelocityVerlet), 0.01);
        sim.system_mut().velocities_mut()[0] = Vec3::new(f64::NAN, 0.0, 0.0);
        let _ = sim.run(200, &mut []);
    }

    #[test]
    fn deterministic_across_identical_sims() {
        let run = |seed| {
            let mut sim = well_sim(seed);
            sim.run(200, &mut []).unwrap();
            sim.system().positions()[0]
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
