//! Verlet (pair) list with skin: pairs are gathered out to
//! `cutoff + skin` and reused across steps until any particle has moved
//! more than `skin / 2`, guaranteeing no interacting pair is ever missed.

use super::{CellList, PairList};
use crate::vec3::Vec3;

/// A cached neighbor list with automatic staleness detection.
#[derive(Debug, Clone)]
pub struct VerletList {
    cutoff: f64,
    skin: f64,
    pairs: PairList,
    ref_positions: Vec<Vec3>,
    rebuilds: u64,
    built: bool,
}

impl VerletList {
    /// Create an empty list for interactions within `cutoff`, cached out to
    /// `cutoff + skin`.
    ///
    /// # Panics
    /// Panics unless `cutoff > 0` and `skin >= 0`.
    pub fn new(cutoff: f64, skin: f64) -> Self {
        assert!(cutoff > 0.0, "cutoff must be positive");
        assert!(skin >= 0.0, "skin must be non-negative");
        VerletList {
            cutoff,
            skin,
            pairs: Vec::new(),
            ref_positions: Vec::new(),
            rebuilds: 0,
            built: false,
        }
    }

    /// Interaction cutoff (Å).
    pub fn cutoff(&self) -> f64 {
        self.cutoff
    }

    /// Skin margin (Å) added to the cutoff when candidate pairs are
    /// collected; half of it bounds the displacement before a rebuild.
    pub fn skin(&self) -> f64 {
        self.skin
    }

    /// True when the cached list can no longer be trusted: the particle
    /// count changed or some particle moved more than `skin/2` since the
    /// last rebuild.
    pub fn needs_rebuild(&self, positions: &[Vec3]) -> bool {
        if !self.built || self.ref_positions.len() != positions.len() {
            return true;
        }
        let limit = (self.skin * 0.5) * (self.skin * 0.5);
        self.ref_positions
            .iter()
            .zip(positions)
            .any(|(&a, &b)| (a - b).norm_sq() > limit)
    }

    /// Refresh the cached pairs if stale; returns true when a rebuild
    /// happened.
    pub fn update(&mut self, positions: &[Vec3]) -> bool {
        if !self.needs_rebuild(positions) {
            return false;
        }
        self.pairs.clear();
        if positions.len() > 1 {
            CellList::bin(positions, self.cutoff + self.skin).collect_pairs(
                positions,
                self.cutoff + self.skin,
                &mut self.pairs,
            );
        }
        self.ref_positions.clear();
        self.ref_positions.extend_from_slice(positions);
        self.rebuilds += 1;
        self.built = true;
        true
    }

    /// Cached candidate pairs (within `cutoff + skin` at last rebuild).
    /// Callers must still apply the true cutoff per pair.
    pub fn pairs(&self) -> &[(u32, u32)] {
        &self.pairs
    }

    /// Number of rebuilds performed (diagnostics).
    pub fn rebuild_count(&self) -> u64 {
        self.rebuilds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neighbor::tests::{brute_force_pairs, sorted_pairs};

    fn line(n: usize, spacing: f64) -> Vec<Vec3> {
        (0..n)
            .map(|i| Vec3::new(i as f64 * spacing, 0.0, 0.0))
            .collect()
    }

    #[test]
    fn first_update_always_rebuilds() {
        let mut vl = VerletList::new(1.5, 0.5);
        let pos = line(10, 1.0);
        assert!(vl.needs_rebuild(&pos));
        assert!(vl.update(&pos));
        assert_eq!(vl.rebuild_count(), 1);
    }

    #[test]
    fn no_rebuild_for_small_motion() {
        let mut vl = VerletList::new(1.5, 0.5);
        let mut pos = line(10, 1.0);
        vl.update(&pos);
        pos[3].y += 0.2; // < skin/2 = 0.25
        assert!(!vl.update(&pos));
        assert_eq!(vl.rebuild_count(), 1);
    }

    #[test]
    fn rebuild_after_large_motion() {
        let mut vl = VerletList::new(1.5, 0.5);
        let mut pos = line(10, 1.0);
        vl.update(&pos);
        pos[3].y += 0.3; // > skin/2
        assert!(vl.update(&pos));
        assert_eq!(vl.rebuild_count(), 2);
    }

    #[test]
    fn skin_guarantees_no_missed_pairs() {
        // Two particles just outside cutoff drift inside without triggering
        // a rebuild: the cached list (cutoff+skin) must already hold them.
        let cutoff = 1.0;
        let skin = 0.4;
        let mut vl = VerletList::new(cutoff, skin);
        let mut pos = vec![Vec3::zero(), Vec3::new(1.15, 0.0, 0.0)];
        vl.update(&pos);
        // Move each by 0.1 (< skin/2) toward each other: separation 0.95.
        pos[0].x += 0.1;
        pos[1].x -= 0.1;
        assert!(!vl.update(&pos), "motion below skin/2 must not rebuild");
        let within: Vec<_> = vl
            .pairs()
            .iter()
            .filter(|&&(i, j)| (pos[i as usize] - pos[j as usize]).norm() <= cutoff)
            .collect();
        assert_eq!(within.len(), 1, "pair now inside cutoff must be in cache");
    }

    #[test]
    fn particle_count_change_triggers_rebuild() {
        let mut vl = VerletList::new(1.0, 0.2);
        vl.update(&line(5, 0.9));
        assert!(vl.needs_rebuild(&line(6, 0.9)));
    }

    #[test]
    fn cached_pairs_superset_of_true_pairs() {
        let pos: Vec<Vec3> = (0..50)
            .map(|i| {
                let f = i as f64;
                Vec3::new((f * 0.37).sin() * 5.0, (f * 0.73).cos() * 5.0, f * 0.11)
            })
            .collect();
        let mut vl = VerletList::new(2.0, 0.5);
        vl.update(&pos);
        let true_pairs = sorted_pairs(brute_force_pairs(&pos, 2.0));
        let cached = sorted_pairs(vl.pairs().to_vec());
        for p in &true_pairs {
            assert!(cached.binary_search(p).is_ok(), "missing pair {p:?}");
        }
    }

    #[test]
    fn empty_and_singleton_systems() {
        let mut vl = VerletList::new(1.0, 0.1);
        assert!(vl.update(&[]));
        assert!(vl.pairs().is_empty());
        assert!(vl.update(&[Vec3::zero()]));
        assert!(vl.pairs().is_empty());
    }
}
