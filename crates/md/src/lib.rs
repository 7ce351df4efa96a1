//! # spice-md
//!
//! A from-scratch classical molecular-dynamics engine — the substrate the
//! SPICE paper ran via NAMD on 128–256 processors per simulation.
//!
//! The engine is deliberately general (it knows nothing about pores or
//! DNA; those live in `spice-pore`) and provides:
//!
//! * [`vec3`] / [`units`] — 3-vector algebra and the Å/ps/amu/kcal·mol⁻¹
//!   unit system with pN conversions used throughout the paper.
//! * [`system`] — structure-of-arrays particle state (positions,
//!   velocities, forces, masses, charges, species).
//! * [`topology`] — bonds, angles, dihedrals, non-bonded exclusions and
//!   named atom groups (the "SMD atoms" of the paper are a group).
//! * [`forces`] — bonded terms (harmonic, FENE, angle, dihedral),
//!   non-bonded Lennard-Jones/WCA, screened Debye–Hückel electrostatics,
//!   position restraints and a pluggable external-potential trait (the
//!   pore confinement enters through it).
//! * [`neighbor`] — O(N) cell lists and Verlet lists with skin-based
//!   rebuild detection, validated against the O(N²) reference.
//! * [`integrate`] — velocity-Verlet (NVE) and Langevin BAOAB (NVT)
//!   integrators.
//! * [`rng`] — counter-based deterministic Gaussian noise so Langevin
//!   trajectories are bit-reproducible regardless of thread scheduling.
//! * [`sim`] — the simulation driver with step hooks: the attach point the
//!   RealityGrid-style steering library (`spice-steering`) uses, exactly as
//!   the paper interfaces NAMD to the ReG steering library "through well
//!   defined user-level APIs" without refactoring the MD code.
//! * [`checkpoint`] — serde snapshots enabling the paper's checkpoint &
//!   clone workflow (§III).
//! * [`batch`] — the batched SoA engine: many replicas of one system
//!   advanced through a single vectorized force/integrate loop.
//!
//! One simulation evaluates its forces serially: the systems this
//! workspace builds have one bead per DNA base (tens of particles).
//! Parallelism lives a level up, across the independent realizations of
//! an ensemble (`spice-smd`) and across the replica lanes of [`batch`].

#![warn(missing_docs)]

#[cfg(feature = "audit")]
pub mod audit;
pub mod batch;
pub mod checkpoint;
pub mod detmath;
pub mod error;
pub mod forces;
pub mod integrate;
pub mod neighbor;
pub mod observables;
pub mod rng;
pub mod sim;
pub mod system;
pub mod topology;
pub mod units;
pub mod vec3;

pub use batch::{BatchSim, LaneForces, LaneThermostat};
pub use error::MdError;
pub use forces::ForceField;
pub use sim::{BiasForce, HookAction, HookContext, Simulation, StepHook};
pub use system::System;
pub use topology::Topology;
pub use vec3::Vec3;
