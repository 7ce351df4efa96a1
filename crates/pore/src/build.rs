//! Assembly of the complete SPICE simulation system (Fig. 1): pore +
//! membrane + solvent + ssDNA, wired into a `spice-md` force field with
//! the named groups the SMD and steering layers address.

use crate::dna::{build_dna, DnaParams};
use crate::geometry::PoreGeometry;
use crate::potential::{AxialCorrugation, ConstrictionRing, MembraneSlab, PoreWall, SPECIES_DNA};
use crate::solvent::Solvent;
use spice_md::forces::external::{CylinderWall, SlabWall};
use spice_md::forces::{LjParams, NonBonded};
use spice_md::rng::GaussianStream;
use spice_md::{ForceField, Simulation, System, Topology};

/// Which beads constitute the paper's "SMD atoms" (the set coupled to the
/// fictitious pulling atom).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmdSelection {
    /// Only the leading (5') bead — the paper's single C3' pull.
    LeadBead,
    /// The whole strand (COM pulling).
    WholeStrand,
}

/// Pore-wall stiffness (kcal mol⁻¹ Å⁻²).
const WALL_K: f64 = 5.0;
/// Effective bead radius against the wall (Å).
const WALL_BEAD_RADIUS: f64 = 2.5;

/// Builder for the pore + DNA system.
#[derive(Debug, Clone)]
pub struct PoreSystemBuilder {
    geometry: PoreGeometry,
    dna: DnaParams,
    solvent: Solvent,
    /// Total constriction-ring charge (e); 0 disables the ring.
    ring_charge: f64,
    /// z of the leading DNA bead at build time.
    dna_start_z: f64,
    smd: SmdSelection,
}

impl Default for PoreSystemBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl PoreSystemBuilder {
    /// Start from the standard SPICE configuration: α-hemolysin geometry,
    /// 12-base ssDNA entering from the vestibule side, 1 M KCl.
    pub fn new() -> Self {
        PoreSystemBuilder {
            geometry: PoreGeometry::alpha_hemolysin(),
            dna: DnaParams::default(),
            solvent: Solvent::kcl_1m_300k(),
            ring_charge: -8.0,
            dna_start_z: 80.0,
            smd: SmdSelection::LeadBead,
        }
    }

    /// Override the pore geometry.
    pub fn geometry(mut self, g: PoreGeometry) -> Self {
        self.geometry = g;
        self
    }

    /// Override the DNA parameters.
    pub fn dna(mut self, d: DnaParams) -> Self {
        self.dna = d;
        self
    }

    /// Override the solvent.
    pub fn solvent(mut self, s: Solvent) -> Self {
        self.solvent = s;
        self
    }

    /// Override the constriction-ring total charge (0 disables).
    pub fn ring_charge(mut self, q: f64) -> Self {
        self.ring_charge = q;
        self
    }

    /// Override the z of the leading bead at build time.
    pub fn dna_start_z(mut self, z: f64) -> Self {
        self.dna_start_z = z;
        self
    }

    /// Choose the SMD atom set.
    pub fn smd_selection(mut self, s: SmdSelection) -> Self {
        self.smd = s;
        self
    }

    /// Assemble the system.
    pub fn build(self) -> PoreSystem {
        self.dna.validate();
        let mut system = System::new();
        let mut topology = Topology::new();
        let dna_indices = build_dna(
            &mut system,
            &mut topology,
            &self.dna,
            self.dna_start_z,
            SPECIES_DNA,
        );
        topology.set_group("dna", dna_indices.clone());
        let smd_indices: Vec<usize> = match self.smd {
            SmdSelection::LeadBead => vec![dna_indices[0]],
            SmdSelection::WholeStrand => dna_indices.clone(),
        };
        topology.set_group("smd", smd_indices);

        let lj = LjParams::wca(self.dna.sigma, self.dna.epsilon);
        // Neighbor list must cover both WCA and the (short) screened
        // electrostatic range: 4 Debye lengths is < 1% residual.
        let list_cutoff = lj.cutoff.max(4.0 * self.solvent.debye_length);
        let nonbonded = NonBonded::new(lj, list_cutoff, 1.0)
            .with_debye_huckel(self.solvent.debye_length, self.solvent.epsilon_r);

        let constriction_z = self.geometry.constriction_z();
        let mut ff = ForceField::new(topology)
            .with_nonbonded(nonbonded)
            // Nucleotide-scale features of the barrel interior (see
            // AxialCorrugation docs: what soft pulling springs smear out).
            .with_external(AxialCorrugation {
                amplitude: 0.8,
                period: 6.0,
                z_lo: self.geometry.barrel_lo + 2.0,
                z_hi: self.geometry.constriction_hi + 2.0,
                ramp: 3.0,
            })
            // Sub-Å atomic-scale roughness: springs stiffer than
            // kT/(0.3 Å)² track these features and inherit their force
            // noise (§IV-B: κ = 1000 pN/Å "extremely large" fluctuations);
            // κ ≤ 100 averages over them.
            .with_external(AxialCorrugation {
                amplitude: 0.4,
                period: 1.8,
                z_lo: self.geometry.barrel_lo + 2.0,
                z_hi: self.geometry.constriction_hi + 2.0,
                ramp: 3.0,
            })
            .with_external(PoreWall::new(
                self.geometry.clone(),
                WALL_K,
                WALL_BEAD_RADIUS,
            ))
            .with_external(MembraneSlab::new(self.geometry.clone(), 10.0))
            // Keep strays bounded in bulk solution above/below the pore.
            .with_external(SlabWall {
                z_lo: self.geometry.barrel_lo - 60.0,
                z_hi: self.geometry.cap_hi + 60.0,
                k: 5.0,
            })
            .with_external(CylinderWall {
                radius: 40.0,
                k: 5.0,
            });
        // spice-lint: allow(N002) exact-zero charge is the "feature off" sentinel
        if self.ring_charge != 0.0 {
            ff = ff.with_external(ConstrictionRing {
                radius: self.geometry.constriction_radius,
                z0: constriction_z,
                charge: self.ring_charge,
                lambda: self.solvent.debye_length,
                epsilon_r: self.solvent.epsilon_r,
                bead_charge: self.dna.bead_charge,
                softening: 1.0,
            });
        }

        PoreSystem {
            system,
            force_field: ff,
            dna_indices,
            geometry: self.geometry,
            solvent: self.solvent,
            dna: self.dna,
        }
    }
}

/// A fully assembled pore + DNA system ready to become a [`Simulation`].
pub struct PoreSystem {
    /// Particle state.
    pub system: System,
    /// Interaction model (owns the topology and the named groups).
    pub force_field: ForceField,
    /// DNA bead indices, 5'→3'.
    pub dna_indices: Vec<usize>,
    /// The pore geometry used.
    pub geometry: PoreGeometry,
    /// The solvent used.
    pub solvent: Solvent,
    /// The DNA parameters used.
    pub dna: DnaParams,
}

impl PoreSystem {
    /// Thermalize velocities to the solvent temperature (deterministic
    /// under `seed`) and wrap everything into a Langevin [`Simulation`]
    /// with time step `dt_ps`.
    pub fn into_simulation(mut self, dt_ps: f64, seed: u64) -> Simulation {
        let g = GaussianStream::new(seed ^ 0xD1CE_BA5E);
        self.system
            .thermalize_with(self.solvent.temperature, |i, a| {
                g.sample(i as u64, a as u64)
            });
        let integrator = Box::new(self.solvent.langevin(seed));
        Simulation::new(self.system, self.force_field, integrator, dt_ps)
    }
}

impl std::fmt::Debug for PoreSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoreSystem")
            .field("particles", &self.system.len())
            .field("dna_bases", &self.dna_indices.len())
            .field("pore_length", &self.geometry.length())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_assemble() {
        let ps = PoreSystemBuilder::new().build();
        assert_eq!(ps.system.len(), 12);
        assert_eq!(ps.dna_indices.len(), 12);
        assert_eq!(ps.force_field.topology().group("smd").unwrap(), &[0]);
        assert!(ps.force_field.topology().group("dna").is_ok());
    }

    #[test]
    fn whole_strand_smd_selection() {
        let ps = PoreSystemBuilder::new()
            .smd_selection(SmdSelection::WholeStrand)
            .build();
        assert_eq!(ps.force_field.topology().group("smd").unwrap().len(), 12);
    }

    #[test]
    fn simulation_runs_stably() {
        let ps = PoreSystemBuilder::new().build();
        let mut sim = ps.into_simulation(0.01, 7);
        sim.run(500, &mut []).expect("500 steps must not blow up");
        assert!(sim.system().is_finite());
        // Temperature in a sane band after Langevin equilibration.
        let t = sim.system().temperature();
        assert!(t > 100.0 && t < 700.0, "temperature {t} implausible");
    }

    #[test]
    fn dna_stays_confined_to_lumen() {
        let ps = PoreSystemBuilder::new().dna_start_z(40.0).build();
        let geometry = ps.geometry.clone();
        let mut sim = ps.into_simulation(0.01, 3);
        sim.run(2000, &mut []).unwrap();
        for p in sim.system().positions() {
            if p.z >= geometry.barrel_lo && p.z <= geometry.cap_hi {
                let r = geometry.radius(p.z);
                assert!(
                    p.rho() < r + 2.0,
                    "bead at rho={} z={} escaped lumen radius {r}",
                    p.rho(),
                    p.z
                );
            }
        }
    }

    #[test]
    fn deterministic_build_and_run() {
        let run = |seed| {
            let ps = PoreSystemBuilder::new().build();
            let mut sim = ps.into_simulation(0.01, seed);
            sim.run(100, &mut []).unwrap();
            sim.system().positions().to_vec()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn ring_can_be_disabled() {
        let ps = PoreSystemBuilder::new().ring_charge(0.0).build();
        // Just verify assembly + a short run.
        let mut sim = ps.into_simulation(0.01, 1);
        sim.run(50, &mut []).unwrap();
    }
}
