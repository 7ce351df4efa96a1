//! Neighbor search: O(N) cell lists and Verlet lists with skin-based
//! rebuild detection, tested against an O(N²) reference.
//!
//! The engine runs open-boundary systems (the pore model confines
//! particles via external potentials rather than periodic images), so the
//! cell grid is fitted to the instantaneous bounding box.

pub mod cell_list;
pub mod verlet;

pub use cell_list::CellList;
pub use verlet::VerletList;

/// An unordered list of candidate interacting pairs `(i, j)` with `i < j`.
pub type PairList = Vec<(u32, u32)>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec3::Vec3;

    /// O(N²) reference pair search — the ground truth the cell and Verlet
    /// lists are tested against.
    pub(crate) fn brute_force_pairs(positions: &[Vec3], cutoff: f64) -> PairList {
        let c2 = cutoff * cutoff;
        let mut out = Vec::new();
        for i in 0..positions.len() {
            for j in (i + 1)..positions.len() {
                if (positions[i] - positions[j]).norm_sq() <= c2 {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out
    }

    /// Canonicalize a pair list for comparison: sort lexicographically.
    pub(crate) fn sorted_pairs(mut pairs: PairList) -> PairList {
        pairs.sort_unstable();
        pairs
    }

    #[test]
    fn brute_force_finds_close_pairs_only() {
        let pos = [
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(5.0, 0.0, 0.0),
        ];
        let pairs = brute_force_pairs(&pos, 2.0);
        assert_eq!(pairs, vec![(0, 1)]);
    }

    #[test]
    fn cutoff_is_inclusive() {
        let pos = [Vec3::zero(), Vec3::new(2.0, 0.0, 0.0)];
        assert_eq!(brute_force_pairs(&pos, 2.0).len(), 1);
        assert_eq!(brute_force_pairs(&pos, 1.999).len(), 0);
    }
}
