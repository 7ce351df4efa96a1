//! Force-field evaluation.
//!
//! A [`ForceField`] owns the bonded terms (from a [`Topology`]), an
//! optional non-bonded pair interaction (WCA/LJ + screened electrostatics
//! on a cached Verlet list), any number of external one-body potentials
//! (the pore confinement from `spice-pore` plugs in here), and harmonic
//! restraints. `evaluate` zeroes the accumulators, adds every term and
//! returns the per-term energy breakdown.
//!
//! Additional per-step bias forces (the SMD pulling spring, IMD user
//! forces) are *not* force-field terms; they are applied by simulation
//! hooks after `evaluate`, mirroring how NAMD layers SMD/IMD on top of the
//! force field.

pub mod bonded;
pub mod external;
pub mod nonbonded;
pub mod restraint;

pub use bonded::{angle_forces, bond_forces, dihedral_forces};
pub use external::ExternalPotential;
pub use nonbonded::{LjParams, NonBonded};
pub use restraint::Restraint;

use crate::system::System;
use crate::topology::Topology;

/// Per-term potential-energy breakdown (kcal/mol).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Energies {
    /// Harmonic + FENE bond energy.
    pub bond: f64,
    /// Harmonic angle energy.
    pub angle: f64,
    /// Cosine dihedral energy.
    pub dihedral: f64,
    /// Non-bonded LJ/WCA energy.
    pub nonbonded: f64,
    /// Screened Coulomb energy.
    pub coulomb: f64,
    /// External (pore/membrane) potential energy.
    pub external: f64,
    /// Restraint energy.
    pub restraint: f64,
}

impl Energies {
    /// Total potential energy.
    pub fn total(&self) -> f64 {
        self.bond
            + self.angle
            + self.dihedral
            + self.nonbonded
            + self.coulomb
            + self.external
            + self.restraint
    }
}

/// The complete interaction model for a system.
pub struct ForceField {
    topology: Topology,
    nonbonded: Option<NonBonded>,
    externals: Vec<Box<dyn ExternalPotential>>,
    restraints: Vec<Restraint>,
}

impl ForceField {
    /// Build a force field over a topology (finalizes its exclusions).
    pub fn new(mut topology: Topology) -> Self {
        topology.finalize();
        ForceField {
            topology,
            nonbonded: None,
            externals: Vec::new(),
            restraints: Vec::new(),
        }
    }

    /// Attach a non-bonded pair interaction.
    pub fn with_nonbonded(mut self, nb: NonBonded) -> Self {
        self.nonbonded = Some(nb);
        self
    }

    /// Attach an external one-body potential.
    pub fn with_external<P: ExternalPotential + 'static>(mut self, p: P) -> Self {
        self.externals.push(Box::new(p));
        self
    }

    /// Attach a harmonic position restraint.
    pub fn with_restraint(mut self, r: Restraint) -> Self {
        self.restraints.push(r);
        self
    }

    /// Shared access to the topology (groups, bonds).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Pair-kernel work counters; all-zero when there is no non-bonded
    /// term.
    pub fn kernel_counters(&self) -> crate::observables::KernelCounters {
        self.nonbonded
            .as_ref()
            .map(NonBonded::kernel_counters)
            .unwrap_or_default()
    }

    /// Non-bonded evaluator, if any (batched engine reads its parameters
    /// to mirror the pair physics across replica lanes).
    pub(crate) fn nonbonded(&self) -> Option<&NonBonded> {
        self.nonbonded.as_ref()
    }

    /// External one-body potentials, in application order.
    pub(crate) fn externals(&self) -> &[Box<dyn ExternalPotential>] {
        &self.externals
    }

    /// Harmonic restraints, in application order.
    pub(crate) fn restraints(&self) -> &[Restraint] {
        &self.restraints
    }

    /// Evaluate all terms: zeroes the system's force accumulators first,
    /// then adds every contribution. Returns the energy breakdown.
    pub fn evaluate(&mut self, system: &mut System) -> Energies {
        system.zero_forces();
        let mut e = Energies::default();

        {
            let (positions, charges, species, forces) = system.force_eval_view();

            e.bond = bond_forces(self.topology.bonds(), positions, forces);
            e.angle = angle_forces(self.topology.angles(), positions, forces);
            e.dihedral = dihedral_forces(self.topology.dihedrals(), positions, forces);
            if let Some(nb) = &mut self.nonbonded {
                let (elj, ec) = nb.compute(&self.topology, positions, charges, species, forces);
                e.nonbonded = elj;
                e.coulomb = ec;
            }
            for ext in &self.externals {
                e.external += ext.add_forces(positions, species, forces);
            }
            for r in &self.restraints {
                e.restraint += r.add_forces(positions, forces);
            }
        }
        e
    }
}

impl std::fmt::Debug for ForceField {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ForceField")
            .field("bonds", &self.topology.bonds().len())
            .field("angles", &self.topology.angles().len())
            .field("dihedrals", &self.topology.dihedrals().len())
            .field("nonbonded", &self.nonbonded.is_some())
            .field("externals", &self.externals.len())
            .field("restraints", &self.restraints.len())
            .finish()
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::vec3::Vec3;

    #[test]
    fn energies_total_sums_terms() {
        let e = Energies {
            bond: 1.0,
            angle: 2.0,
            dihedral: 3.0,
            nonbonded: 4.0,
            coulomb: 5.0,
            external: 6.0,
            restraint: 7.0,
        };
        assert_eq!(e.total(), 28.0);
    }

    #[test]
    fn evaluate_zeroes_then_accumulates() {
        let mut sys = System::new();
        sys.add_particle(Vec3::zero(), 1.0, 0.0, 0);
        sys.add_particle(Vec3::new(2.0, 0.0, 0.0), 1.0, 0.0, 0);
        sys.split_mut().2[0] = Vec3::new(99.0, 0.0, 0.0); // stale garbage

        let mut topo = Topology::new();
        topo.add_harmonic_bond(0, 1, 1.0, 10.0);
        let mut ff = ForceField::new(topo);
        let e = ff.evaluate(&mut sys);
        // U = k (r - r0)^2 = 10 * 1 = 10
        assert!((e.bond - 10.0).abs() < 1e-12);
        assert!((e.total() - 10.0).abs() < 1e-12);
        // Forces: pulled together along x, stale value gone.
        assert!(sys.forces()[0].x > 0.0);
        assert!(
            (sys.forces()[0] + sys.forces()[1]).norm() < 1e-12,
            "Newton's third law"
        );
    }

    #[test]
    fn force_is_negative_gradient() {
        // Numerical gradient check across all term types at once.
        let mut sys = System::new();
        sys.add_particle(Vec3::new(0.1, -0.2, 0.3), 1.0, 1.0, 0);
        sys.add_particle(Vec3::new(1.3, 0.4, -0.1), 1.0, -1.0, 0);
        sys.add_particle(Vec3::new(2.2, -0.3, 0.5), 1.0, 0.5, 0);
        sys.add_particle(Vec3::new(2.6, 0.6, 0.2), 1.0, -0.5, 0);

        let mut topo = Topology::new();
        topo.add_harmonic_bond(0, 1, 1.2, 30.0);
        topo.add_fene_bond(1, 2, 3.0, 10.0);
        topo.add_angle(0, 1, 2, 2.0, 8.0);
        topo.add_dihedral(0, 1, 2, 3, 2, 0.5, 1.5);
        let mut ff = ForceField::new(topo)
            .with_nonbonded(
                NonBonded::new(LjParams::wca(1.0, 0.5), 3.0, 0.5).with_debye_huckel(1.0, 80.0),
            )
            .with_restraint(Restraint::harmonic(3, Vec3::new(2.7, 0.5, 0.1), 5.0));

        let e0 = ff.evaluate(&mut sys);
        let forces: Vec<Vec3> = sys.forces().to_vec();
        let h = 1e-6;
        for i in 0..sys.len() {
            for axis in 0..3 {
                let mut plus = sys.clone();
                let mut minus = sys.clone();
                match axis {
                    0 => {
                        plus.positions_mut()[i].x += h;
                        minus.positions_mut()[i].x -= h;
                    }
                    1 => {
                        plus.positions_mut()[i].y += h;
                        minus.positions_mut()[i].y -= h;
                    }
                    _ => {
                        plus.positions_mut()[i].z += h;
                        minus.positions_mut()[i].z -= h;
                    }
                }
                let ep = ff.evaluate(&mut plus).total();
                let em = ff.evaluate(&mut minus).total();
                let f_num = -(ep - em) / (2.0 * h);
                let f_ana = match axis {
                    0 => forces[i].x,
                    1 => forces[i].y,
                    _ => forces[i].z,
                };
                assert!(
                    (f_num - f_ana).abs() < 1e-4 * (1.0 + f_ana.abs()),
                    "particle {i} axis {axis}: numeric {f_num} vs analytic {f_ana} (E={})",
                    e0.total()
                );
            }
        }
    }
}
