//! Time integrators.
//!
//! * [`VelocityVerlet`] — symplectic NVE; used for energy-conservation
//!   validation of the force field.
//! * [`LangevinBaoab`] — the production NVT integrator (Leimkuhler &
//!   Matthews BAOAB splitting). The Langevin thermostat doubles as the
//!   implicit solvent: friction γ models water drag on the CG beads.
//!
//! Integrators receive a force-evaluation callback so bias forces (SMD
//! spring, IMD user forces) are recomputed at the correct sub-step.

pub mod langevin;
pub mod velocity_verlet;

pub use langevin::LangevinBaoab;
pub use velocity_verlet::VelocityVerlet;

use crate::system::System;

/// A force evaluation callback: recompute `system.forces()` for the
/// current positions (force field + any active biases).
pub type ForceEval<'a> = dyn FnMut(&mut System) + 'a;

/// A time-stepping scheme.
pub trait Integrator {
    /// Advance the system by one step of `dt` picoseconds. `step_index`
    /// is the global step counter (stochastic integrators key their noise
    /// on it, which makes checkpoint/restore exact). `eval_forces` must
    /// leave `system.forces()` consistent with `system.positions()`. On
    /// entry, forces are assumed consistent with the current positions
    /// (the driver guarantees this).
    fn step(
        &mut self,
        system: &mut System,
        dt: f64,
        step_index: u64,
        eval_forces: &mut ForceEval<'_>,
    );

    /// Scheme name for diagnostics.
    fn name(&self) -> &str;

    /// `(temperature K, friction ps⁻¹, noise-stream seed)` when this
    /// integrator is a BAOAB Langevin thermostat, else `None`.
    ///
    /// The batched ensemble engine (`crate::batch`) replicates the BAOAB
    /// update across replica lanes itself, so it needs the thermostat
    /// parameters rather than the [`step`](Self::step) entry point.
    /// Drivers fall back to the per-replica cloned path when this returns
    /// `None`.
    fn langevin_params(&self) -> Option<(f64, f64, u64)> {
        None
    }
}
