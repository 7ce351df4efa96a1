//! # spice-smd
//!
//! Steered Molecular Dynamics: the non-equilibrium pulling half of the
//! paper's SMD-JE method (§II).
//!
//! A fictitious *pulling atom* moves along the pore axis at constant
//! velocity v; the *SMD atoms* (a named group) are coupled to it by a
//! harmonic spring of constant κ. The external work done by the moving
//! guide is accumulated along each realization; `spice-jarzynski` turns
//! ensembles of work trajectories into equilibrium free-energy profiles.
//!
//! * [`pulling`] — the [`SmdSpring`] bias force (mass-weighted COM
//!   coupling, exactly NAMD's SMD).
//! * [`protocol`] — pulling protocols in the paper's units (κ in pN/Å,
//!   v in Å/ns), the 10 Å sub-trajectory, equilibration settings.
//! * [`work`] — work trajectories: time series of (guide displacement,
//!   COM displacement, accumulated work), with sub-trajectory
//!   segmentation (§IV-A).
//! * [`runner`] — drive one realization: equilibrate, attach the spring,
//!   pull, record.
//! * [`ensemble`] — independent and cloned ensembles, the analogue of the
//!   paper's 72-simulation grid campaign, and the scalar loop that is
//!   every ensemble's oracle and non-Langevin fallback.
//! * [`batch`] — every Langevin ensemble as lanes of vectorized loops,
//!   in whole-vector chunks dealt to the host's cores;
//!   [`run_ensembles_batched`] runs several cloned ensembles and umbrella
//!   [`WindowLadder`]s as one pool, the clones' chunks shared within a
//!   pull length and their masters' holds dealt to the cores too.
//!   [`run_ensemble_batched_traced`] takes the telemetry handle, and its
//!   untraced twin stays because e2ebench calls it.

#![warn(missing_docs)]

#[cfg(feature = "audit")]
pub mod audit;
pub mod batch;
pub mod ensemble;
pub mod protocol;
pub mod pulling;
pub mod runner;
pub mod work;

pub use batch::{
    run_ensemble_batched, run_ensemble_batched_traced, run_ensembles_batched, ClonedEnsemble,
    WindowLadder,
};
pub use ensemble::{partition_outcomes, run_ensemble, run_ensemble_cloned, Runs};
pub use protocol::PullProtocol;
pub use pulling::SmdSpring;
pub use runner::{run_pull, shift_to_far_end, PullOutcome};
pub use work::{segment_trajectory, SampleWalk, WorkSample, WorkTrajectory};
