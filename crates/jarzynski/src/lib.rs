//! # spice-jarzynski
//!
//! Jarzynski's equality turned into a PMF pipeline — the analysis half of
//! the paper's SMD-JE method (§II, §IV, Fig. 4).
//!
//! Jarzynski (1997): for a system driven between two states by a
//! time-dependent protocol, `exp(−βΔF) = ⟨exp(−βW)⟩` over realizations of
//! the *non-equilibrium* work W. SMD supplies the realizations; this crate
//! supplies:
//!
//! * [`estimator`] — the exponential-average estimator (log-sum-exp
//!   stabilized), the second-order cumulant approximation, and the mean
//!   work (the ≥ ΔF bound).
//! * [`pmf`] — assembling Φ(s) on a displacement grid from ensembles of
//!   [`spice_smd::WorkTrajectory`]s, including sub-trajectory stitching
//!   (§IV-A).
//! * [`error`] — the statistical/systematic error machinery of §IV:
//!   bootstrap σ_stat with the paper's computational-cost normalization
//!   (σ scaled by √(samples affordable at fixed cost) — cost ∝ 1/v),
//!   and σ_sys as the deviation from a reference (adiabatic) profile.
//! * [`optimal`] — the parameter-selection logic that reproduces the
//!   paper's conclusion: κ = 100 pN/Å, v = 12.5 Å/ns.
//! * [`analytic`] — closed-form and quadrature reference PMFs used to
//!   validate the whole chain on exactly solvable systems.
//! * [`crooks`] — bidirectional estimation (Crooks crossing, Bennett
//!   acceptance ratio).
//! * [`wham`](mod@wham) — the Weighted Histogram Analysis Method over umbrella
//!   windows, closing the JE ↔ TI ↔ WHAM methodological triangle.

#![warn(missing_docs)]

pub mod analytic;
pub mod crooks;
pub mod error;
pub mod estimator;
pub mod optimal;
pub mod pmf;
pub mod wham;

pub use crooks::{bar_free_energy, crooks_crossing};
pub use error::statistical::{cost_normalized_sigma, pmf_bootstrap_sigma};
pub use error::systematic::{dissipated_work, systematic_error};
pub use estimator::{cumulant_free_energy, jarzynski_free_energy, mean_work};
pub use optimal::{select_optimal, ParameterCell};
pub use pmf::{PmfCurve, PmfPoint};
pub use wham::{wham, UmbrellaWindow, WhamResult};
