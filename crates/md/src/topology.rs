//! Bonded topology: bonds, angles, dihedrals, non-bonded exclusions, and
//! named atom groups.
//!
//! Groups are how higher layers address subsets of atoms — the paper's
//! "SMD atoms" (the pulled C3' atom set) and the restrained pore scaffold
//! are both groups.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A 2-body bonded term: either harmonic or FENE.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Bond {
    /// First particle index.
    pub i: usize,
    /// Second particle index.
    pub j: usize,
    /// Equilibrium length (Å) for harmonic bonds; maximum extension R0 for
    /// FENE bonds.
    pub r0: f64,
    /// Force constant (kcal mol⁻¹ Å⁻²).
    pub k: f64,
    /// Bond functional form.
    pub kind: BondKind,
}

/// Functional form of a bond.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BondKind {
    /// `U = k (r - r0)²` (note: no 1/2; NAMD/CHARMM convention).
    Harmonic,
    /// FENE: `U = -0.5 k R0² ln(1 - (r/R0)²)` — finitely extensible,
    /// standard for coarse-grained polymers.
    Fene,
}

/// A 3-body harmonic angle term `U = k (θ - θ0)²`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Angle {
    /// First end particle.
    pub i: usize,
    /// Central particle.
    pub j: usize,
    /// Second end particle.
    pub k_idx: usize,
    /// Equilibrium angle (radians).
    pub theta0: f64,
    /// Force constant (kcal mol⁻¹ rad⁻²).
    pub k: f64,
}

/// A 4-body cosine dihedral `U = k (1 + cos(n φ - δ))`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Dihedral {
    /// Particle indices along the chain.
    pub i: usize,
    /// Second particle.
    pub j: usize,
    /// Third particle.
    pub k_idx: usize,
    /// Fourth particle.
    pub l: usize,
    /// Multiplicity.
    pub n: u32,
    /// Phase (radians).
    pub delta: f64,
    /// Force constant (kcal/mol).
    pub k: f64,
}

/// Bonded topology + exclusions + named groups for a [`crate::System`].
#[derive(Debug, Clone, Default, Serialize, Deserialize, PartialEq)]
pub struct Topology {
    bonds: Vec<Bond>,
    angles: Vec<Angle>,
    dihedrals: Vec<Dihedral>,
    /// Canonicalized (min, max) excluded pairs, sorted for binary search.
    exclusions: Vec<(usize, usize)>,
    exclusions_sorted: bool,
    groups: BTreeMap<String, Vec<usize>>,
}

impl Topology {
    /// Empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a harmonic bond and exclude the pair from non-bonded terms.
    pub fn add_harmonic_bond(&mut self, i: usize, j: usize, r0: f64, k: f64) {
        self.bonds.push(Bond {
            i,
            j,
            r0,
            k,
            kind: BondKind::Harmonic,
        });
        self.add_exclusion(i, j);
    }

    /// Add a FENE bond. Unlike harmonic bonds, the pair is NOT excluded
    /// from non-bonded terms: FENE is purely attractive and relies on the
    /// WCA excluded volume to set the bond length (the Kremer–Grest
    /// convention for coarse-grained polymers).
    pub fn add_fene_bond(&mut self, i: usize, j: usize, r_max: f64, k: f64) {
        self.bonds.push(Bond {
            i,
            j,
            r0: r_max,
            k,
            kind: BondKind::Fene,
        });
    }

    /// Add a harmonic angle `i–j–k` and exclude the 1–3 pair.
    pub fn add_angle(&mut self, i: usize, j: usize, k_idx: usize, theta0: f64, k: f64) {
        self.angles.push(Angle {
            i,
            j,
            k_idx,
            theta0,
            k,
        });
        self.add_exclusion(i, k_idx);
    }

    /// Add a harmonic angle WITHOUT the 1–3 exclusion — coarse-grained
    /// chains keep excluded volume between second neighbours so weak
    /// bending stiffness cannot let the chain self-overlap.
    pub fn add_angle_keep_nonbonded(
        &mut self,
        i: usize,
        j: usize,
        k_idx: usize,
        theta0: f64,
        k: f64,
    ) {
        self.angles.push(Angle {
            i,
            j,
            k_idx,
            theta0,
            k,
        });
    }

    /// Add a cosine dihedral `i–j–k–l` (no automatic 1–4 exclusion;
    /// coarse-grained models usually keep 1–4 non-bonded interactions).
    #[allow(clippy::too_many_arguments)]
    // spice-lint: allow(U001) the dihedral term's only constructor: the lane-vs-scalar tests build dihedral chains with it, and deleting it would mean deleting the dihedral kernels on the MD force path
    pub fn add_dihedral(
        &mut self,
        i: usize,
        j: usize,
        k_idx: usize,
        l: usize,
        n: u32,
        delta: f64,
        k: f64,
    ) {
        self.dihedrals.push(Dihedral {
            i,
            j,
            k_idx,
            l,
            n,
            delta,
            k,
        });
    }

    /// Exclude a pair from non-bonded interactions.
    pub fn add_exclusion(&mut self, i: usize, j: usize) {
        let p = (i.min(j), i.max(j));
        self.exclusions.push(p);
        self.exclusions_sorted = false;
    }

    /// Finalize exclusions for fast lookup (idempotent; called by force
    /// fields before evaluation).
    pub fn finalize(&mut self) {
        if !self.exclusions_sorted {
            self.exclusions.sort_unstable();
            self.exclusions.dedup();
            self.exclusions_sorted = true;
        }
    }

    /// True when the (i, j) pair is excluded from non-bonded terms.
    /// Requires [`Topology::finalize`] to have run for O(log n) lookup;
    /// falls back to a linear scan otherwise.
    pub fn is_excluded(&self, i: usize, j: usize) -> bool {
        let p = (i.min(j), i.max(j));
        if self.exclusions_sorted {
            self.exclusions.binary_search(&p).is_ok()
        } else {
            self.exclusions.contains(&p)
        }
    }

    /// All bonds.
    pub fn bonds(&self) -> &[Bond] {
        &self.bonds
    }

    /// All angles.
    pub fn angles(&self) -> &[Angle] {
        &self.angles
    }

    /// All dihedrals.
    pub fn dihedrals(&self) -> &[Dihedral] {
        &self.dihedrals
    }

    /// Number of exclusions after dedup (finalizes lazily for accuracy).
    pub fn exclusion_count(&self) -> usize {
        if self.exclusions_sorted {
            self.exclusions.len()
        } else {
            let mut v = self.exclusions.clone();
            v.sort_unstable();
            v.dedup();
            v.len()
        }
    }

    /// Define (or replace) a named atom group.
    pub fn set_group<S: Into<String>>(&mut self, name: S, indices: Vec<usize>) {
        self.groups.insert(name.into(), indices);
    }

    /// Look up a named atom group.
    pub fn group(&self, name: &str) -> Result<&[usize], crate::MdError> {
        self.groups
            .get(name)
            .map(|v| v.as_slice())
            .ok_or_else(|| crate::MdError::UnknownGroup(name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bonds_create_exclusions() {
        let mut t = Topology::new();
        t.add_harmonic_bond(0, 1, 1.5, 100.0);
        t.finalize();
        assert!(t.is_excluded(0, 1));
        assert!(t.is_excluded(1, 0), "exclusions are symmetric");
        assert!(!t.is_excluded(0, 2));
    }

    #[test]
    fn angles_exclude_one_three() {
        let mut t = Topology::new();
        t.add_angle(0, 1, 2, 1.9, 5.0);
        t.finalize();
        assert!(t.is_excluded(0, 2));
        assert!(
            !t.is_excluded(0, 1),
            "1-2 exclusion comes from the bond, not the angle"
        );
    }

    #[test]
    fn duplicate_exclusions_dedup() {
        let mut t = Topology::new();
        t.add_exclusion(3, 7);
        t.add_exclusion(7, 3);
        t.add_exclusion(3, 7);
        assert_eq!(t.exclusion_count(), 1);
    }

    #[test]
    fn unsorted_lookup_still_works() {
        let mut t = Topology::new();
        t.add_exclusion(2, 9);
        assert!(t.is_excluded(9, 2));
    }

    #[test]
    fn groups_roundtrip() {
        let mut t = Topology::new();
        t.set_group("smd", vec![4, 5, 6]);
        assert_eq!(t.group("smd").unwrap(), &[4, 5, 6]);
        assert!(t.group("nope").is_err());
    }

    #[test]
    fn fene_bond_kind() {
        let mut t = Topology::new();
        t.add_fene_bond(0, 1, 3.0, 10.0);
        assert_eq!(t.bonds()[0].kind, BondKind::Fene);
    }
}
