//! Langevin dynamics via the BAOAB splitting (Leimkuhler & Matthews).
//!
//! BAOAB has superb configurational sampling accuracy at large time steps,
//! which is exactly what the SMD ensemble needs: the PMF depends on
//! configurational averages. Friction γ doubles as the implicit-solvent
//! drag of the coarse-grained model.
//!
//! Noise comes from a counter-based [`GaussianStream`] keyed on
//! `(step, particle, axis)`, so trajectories are reproducible bit-for-bit
//! under any parallel schedule and across runs.

use super::{ForceEval, Integrator};
use crate::rng::GaussianStream;
use crate::system::System;
use crate::units;

/// The O-step's velocity decay over one step, `c1 = exp(−γ·dt)`, by
/// `det_exp`: the one expression the scalar step and `md::batch`'s lane
/// coefficients both evaluate. Past γ·dt = 708, where `det_exp` leaves its
/// domain, the decay stays at exp(−708) ≈ 3e-308: the velocity is
/// forgotten in one step either way.
#[inline]
pub(crate) fn ou_decay(gamma: f64, dt: f64) -> f64 {
    crate::detmath::det_exp((-gamma * dt).max(-708.0))
}

/// BAOAB Langevin integrator (NVT).
#[derive(Debug, Clone)]
pub struct LangevinBaoab {
    /// Target temperature (K).
    temperature: f64,
    /// Friction coefficient γ (ps⁻¹).
    gamma: f64,
    noise: GaussianStream,
}

impl LangevinBaoab {
    /// Create an integrator at `temperature` K with friction `gamma` ps⁻¹,
    /// seeded deterministically.
    ///
    /// # Panics
    /// Panics unless both arguments are positive.
    pub fn new(temperature: f64, gamma: f64, seed: u64) -> Self {
        assert!(temperature > 0.0, "temperature must be positive");
        assert!(gamma > 0.0, "friction must be positive");
        LangevinBaoab {
            temperature,
            gamma,
            noise: GaussianStream::new(seed),
        }
    }

    /// Target temperature (K).
    pub fn temperature(&self) -> f64 {
        self.temperature
    }

    /// Friction coefficient (ps⁻¹).
    pub fn gamma(&self) -> f64 {
        self.gamma
    }
}

impl Integrator for LangevinBaoab {
    fn step(
        &mut self,
        system: &mut System,
        dt: f64,
        step_index: u64,
        eval_forces: &mut ForceEval<'_>,
    ) {
        let half_kick = 0.5 * dt * units::ACCEL;
        let c1 = ou_decay(self.gamma, dt);
        let c2_base = (1.0 - c1 * c1).sqrt();
        let kt_acc = units::KB * self.temperature * units::ACCEL;
        let step = step_index;
        let noise = self.noise;

        {
            let (pos, vel, frc, inv_m) = system.split_mut();
            for i in 0..pos.len() {
                // B: half kick.
                vel[i] += frc[i] * (half_kick * inv_m[i]);
                // A: half drift.
                pos[i] += vel[i] * (0.5 * dt);
                // O: Ornstein-Uhlenbeck exact update.
                let sigma = c2_base * (kt_acc * inv_m[i]).sqrt();
                vel[i].x = c1 * vel[i].x + sigma * noise.sample3(step, i as u64, 0);
                vel[i].y = c1 * vel[i].y + sigma * noise.sample3(step, i as u64, 1);
                vel[i].z = c1 * vel[i].z + sigma * noise.sample3(step, i as u64, 2);
                // A: half drift.
                pos[i] += vel[i] * (0.5 * dt);
            }
        }
        // Force evaluation at the new positions.
        eval_forces(system);
        // B: final half kick.
        let (_, vel, frc, inv_m) = system.split_mut();
        for i in 0..vel.len() {
            vel[i] += frc[i] * (half_kick * inv_m[i]);
        }
    }

    fn name(&self) -> &str {
        "langevin-baoab"
    }

    fn langevin_params(&self) -> Option<(f64, f64, u64)> {
        Some((self.temperature, self.gamma, self.noise.seed()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forces::{ForceField, Restraint};
    use crate::topology::Topology;
    use crate::vec3::Vec3;
    use spice_stats::RunningStats;

    /// Independent particles in harmonic wells: exactly solvable NVT
    /// reference. U = k x² per axis ⇒ Var(x) = kT/(2k).
    fn well_system(n: usize, k: f64) -> (System, ForceField) {
        let mut sys = System::new();
        let mut ff = ForceField::new(Topology::new());
        for i in 0..n {
            sys.add_particle(Vec3::zero(), 20.0, 0.0, 0);
            ff = ff.with_restraint(Restraint::harmonic(i, Vec3::zero(), k));
        }
        (sys, ff)
    }

    #[test]
    fn samples_boltzmann_position_variance() {
        let k = 2.0;
        let (mut sys, mut ff) = well_system(100, k);
        ff.evaluate(&mut sys);
        let mut li = LangevinBaoab::new(300.0, 5.0, 17);
        let dt = 0.01;
        let mut stats = RunningStats::new();
        for step in 0..6000u64 {
            let mut eval = |s: &mut System| {
                ff.evaluate(s);
            };
            li.step(&mut sys, dt, step, &mut eval);
            if step > 1000 && step % 5 == 0 {
                for p in sys.positions() {
                    stats.push(p.x);
                    stats.push(p.y);
                    stats.push(p.z);
                }
            }
        }
        let expected = units::KT_300 / (2.0 * k);
        let measured = stats.variance();
        assert!(
            (measured - expected).abs() < 0.1 * expected,
            "position variance {measured} vs Boltzmann {expected}"
        );
    }

    #[test]
    fn equilibrates_to_target_temperature() {
        let (mut sys, mut ff) = well_system(200, 1.0);
        ff.evaluate(&mut sys);
        let mut li = LangevinBaoab::new(300.0, 2.0, 4);
        let mut tstats = RunningStats::new();
        for step in 0..4000u64 {
            let mut eval = |s: &mut System| {
                ff.evaluate(s);
            };
            li.step(&mut sys, 0.01, step, &mut eval);
            if step > 800 {
                tstats.push(sys.temperature());
            }
        }
        let t = tstats.mean();
        assert!((t - 300.0).abs() < 10.0, "temperature {t} should be ~300 K");
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed: u64| {
            let (mut sys, mut ff) = well_system(5, 1.0);
            ff.evaluate(&mut sys);
            let mut li = LangevinBaoab::new(300.0, 1.0, seed);
            for i in 0..200u64 {
                let mut eval = |s: &mut System| {
                    ff.evaluate(s);
                };
                li.step(&mut sys, 0.01, i, &mut eval);
            }
            sys.positions().to_vec()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn zero_temperature_limit_damps_motion() {
        // Low T, high friction: particle relaxes into the well minimum.
        let (mut sys, mut ff) = well_system(1, 5.0);
        sys.positions_mut()[0] = Vec3::new(3.0, 0.0, 0.0);
        ff.evaluate(&mut sys);
        let mut li = LangevinBaoab::new(1e-6, 50.0, 2);
        for i in 0..5000u64 {
            let mut eval = |s: &mut System| {
                ff.evaluate(s);
            };
            li.step(&mut sys, 0.005, i, &mut eval);
        }
        assert!(
            sys.positions()[0].norm() < 0.05,
            "should relax to origin: {:?}",
            sys.positions()[0]
        );
    }

    #[test]
    #[should_panic(expected = "temperature must be positive")]
    fn rejects_bad_temperature() {
        LangevinBaoab::new(0.0, 1.0, 0);
    }

    #[test]
    fn noise_keyed_on_step_index() {
        // Re-running the SAME step index twice gives identical kicks;
        // different indices give different kicks.
        let (sys0, mut ff) = well_system(1, 1.0);
        let mut run_step = |idx: u64| {
            let mut sys = sys0.clone();
            ff_eval(&mut ff, &mut sys);
            let mut li = LangevinBaoab::new(300.0, 1.0, 0);
            let mut eval = |s: &mut System| {
                ff.evaluate(s);
            };
            li.step(&mut sys, 0.01, idx, &mut eval);
            sys.positions()[0]
        };
        fn ff_eval(ff: &mut ForceField, s: &mut System) {
            ff.evaluate(s);
        }
        let a = run_step(5);
        let b = run_step(5);
        let c = run_step(6);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
