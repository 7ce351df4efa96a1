//! O(N) cell-list neighbor search for open (non-periodic) systems.
//!
//! Space inside the instantaneous bounding box is divided into cubic cells
//! of edge ≥ cutoff; candidate pairs are drawn from each cell and its
//! forward half-shell of 13 neighbors, so every pair is produced exactly
//! once with `i < j`.

use super::PairList;
use crate::vec3::Vec3;

/// Cells per particle a grid may hold before [`CellList::try_bin`]
/// rejects it, above [`MIN_CELL_CAP`]. The workspace's tests build at
/// most 1,224 (7 particles scattered in a 12 Å box) and the Fig. 4 pore
/// systems at most 0.67, so a grid past the cap is a system blowing up.
/// It then fails on its first oversized rebuild, rather than allocating
/// and sweeping ever larger grids (up to [`MAX_CELL_CAP`] cells) on every
/// rebuild while its coordinates grow.
const MAX_CELLS_PER_PARTICLE: usize = 4096;
/// Cells any grid may hold, however few its particles (the largest grid
/// the tests build has 71,874 cells for 100 particles).
const MIN_CELL_CAP: usize = 1 << 16;
/// Cells no grid may exceed, however many its particles (400 MB of
/// chain heads).
const MAX_CELL_CAP: usize = 100_000_000;

/// A rebuilt-per-call cell grid. Construction is cheap (a few Vec fills),
/// so the typical usage is [`CellList::build`] whenever the Verlet list
/// needs refreshing.
#[derive(Debug, Clone)]
pub struct CellList {
    origin: Vec3,
    cell: f64,
    dims: [usize; 3],
    /// Head-of-chain particle index per cell, -1 when empty.
    heads: Vec<i32>,
    /// Linked-list "next" pointer per particle, -1 at chain end.
    next: Vec<i32>,
}

impl CellList {
    /// Bin `positions` into cells of edge `cutoff` (minimum 1e-6).
    ///
    /// # Panics
    /// Panics if `cutoff <= 0`, positions are empty, or
    /// [`try_bin`](Self::try_bin) rejects them.
    pub fn bin(positions: &[Vec3], cutoff: f64) -> Self {
        Self::try_bin(positions, cutoff).expect("positions a cell list can bin")
    }

    /// [`bin`](Self::bin), returning why the positions cannot be binned
    /// instead of panicking: a non-finite coordinate, or a grid of more
    /// cells than its particle count allows (coordinates that have blown
    /// up).
    ///
    /// # Panics
    /// Panics if `cutoff <= 0` or positions are empty.
    pub fn try_bin(positions: &[Vec3], cutoff: f64) -> Result<Self, String> {
        assert!(cutoff > 0.0, "cell list cutoff must be positive");
        assert!(
            !positions.is_empty(),
            "cell list needs at least one particle"
        );
        let mut lo = positions[0];
        let mut hi = positions[0];
        for &p in positions {
            if !p.is_finite() {
                return Err("non-finite position in cell list".into());
            }
            lo = lo.min(p);
            hi = hi.max(p);
        }
        // Pad so upper-boundary particles land strictly inside the grid.
        let pad = 1e-9 * (1.0 + hi.norm() + lo.norm());
        let extent = hi - lo + Vec3::new(pad, pad, pad);
        // Saturating, so coordinates too large for a `usize` grid count
        // read as the oversized grid they are.
        let dims = [
            ((extent.x / cutoff).floor() as usize).saturating_add(1),
            ((extent.y / cutoff).floor() as usize).saturating_add(1),
            ((extent.z / cutoff).floor() as usize).saturating_add(1),
        ];
        // A sane simulation never needs many more cells than particles;
        // a grid past the cap means coordinates have blown up — fail
        // loudly instead of allocating and sweeping it.
        let ncells = dims[0].saturating_mul(dims[1]).saturating_mul(dims[2]);
        let cap = positions
            .len()
            .saturating_mul(MAX_CELLS_PER_PARTICLE)
            .clamp(MIN_CELL_CAP, MAX_CELL_CAP);
        if ncells > cap {
            return Err(format!(
                "cell grid of {ncells} cells (dims {dims:?}) for {} particles — coordinates have likely blown up",
                positions.len()
            ));
        }
        let mut heads = vec![-1i32; ncells];
        let mut next = vec![-1i32; positions.len()];
        let cl = CellList {
            origin: lo,
            cell: cutoff,
            dims,
            heads: Vec::new(),
            next: Vec::new(),
        };
        for (i, &p) in positions.iter().enumerate() {
            let c = cl.cell_index(p);
            next[i] = heads[c];
            heads[c] = i as i32;
        }
        Ok(CellList { heads, next, ..cl })
    }

    #[inline]
    fn cell_coords(&self, p: Vec3) -> [usize; 3] {
        let rel = p - self.origin;
        [
            ((rel.x / self.cell) as usize).min(self.dims[0] - 1),
            ((rel.y / self.cell) as usize).min(self.dims[1] - 1),
            ((rel.z / self.cell) as usize).min(self.dims[2] - 1),
        ]
    }

    #[inline]
    fn cell_index(&self, p: Vec3) -> usize {
        let [cx, cy, cz] = self.cell_coords(p);
        (cz * self.dims[1] + cy) * self.dims[0] + cx
    }

    /// Grid dimensions (cells per axis).
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// Collect all pairs within `cutoff` (must equal the binning cutoff or
    /// be smaller) into `out`, each pair exactly once with `i < j`.
    pub fn collect_pairs(&self, positions: &[Vec3], cutoff: f64, out: &mut PairList) {
        assert!(
            cutoff <= self.cell + 1e-12,
            "query cutoff {cutoff} exceeds cell edge {}",
            self.cell
        );
        let c2 = cutoff * cutoff;
        let (nx, ny, nz) = (
            self.dims[0] as isize,
            self.dims[1] as isize,
            self.dims[2] as isize,
        );
        for cz in 0..nz {
            for cy in 0..ny {
                for cx in 0..nx {
                    let c = ((cz * ny + cy) * nx + cx) as usize;
                    // Within-cell pairs.
                    let mut i = self.heads[c];
                    while i >= 0 {
                        let mut j = self.next[i as usize];
                        while j >= 0 {
                            Self::push_if_close(positions, i as u32, j as u32, c2, out);
                            j = self.next[j as usize];
                        }
                        i = self.next[i as usize];
                    }
                    // Forward half-shell of neighbor cells.
                    for &(dx, dy, dz) in FORWARD_NEIGHBORS {
                        let (ox, oy, oz) = (cx + dx, cy + dy, cz + dz);
                        if ox < 0 || ox >= nx || oy < 0 || oy >= ny || oz < 0 || oz >= nz {
                            continue;
                        }
                        let oc = ((oz * ny + oy) * nx + ox) as usize;
                        let mut i = self.heads[c];
                        while i >= 0 {
                            let mut j = self.heads[oc];
                            while j >= 0 {
                                Self::push_if_close(positions, i as u32, j as u32, c2, out);
                                j = self.next[j as usize];
                            }
                            i = self.next[i as usize];
                        }
                    }
                }
            }
        }
    }

    #[inline]
    fn push_if_close(positions: &[Vec3], a: u32, b: u32, c2: f64, out: &mut PairList) {
        if (positions[a as usize] - positions[b as usize]).norm_sq() <= c2 {
            out.push((a.min(b), a.max(b)));
        }
    }

    /// Convenience: bin and collect in one call.
    pub fn build(positions: &[Vec3], cutoff: f64) -> PairList {
        let mut out = Vec::new();
        Self::bin(positions, cutoff).collect_pairs(positions, cutoff, &mut out);
        out
    }
}

/// The 13 forward neighbor offsets of the half-shell enumeration.
const FORWARD_NEIGHBORS: &[(isize, isize, isize)] = &[
    (1, 0, 0),
    (-1, 1, 0),
    (0, 1, 0),
    (1, 1, 0),
    (-1, -1, 1),
    (0, -1, 1),
    (1, -1, 1),
    (-1, 0, 1),
    (0, 0, 1),
    (1, 0, 1),
    (-1, 1, 1),
    (0, 1, 1),
    (1, 1, 1),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neighbor::tests::{brute_force_pairs, sorted_pairs};
    use proptest::prelude::*;

    fn random_positions(n: usize, seed: u64, scale: f64) -> Vec<Vec3> {
        use spice_stats::rng::seed_stream;
        (0..n)
            .map(|i| {
                let u = |k: u64| {
                    (seed_stream(seed, i as u64 * 3 + k) >> 11) as f64 / (1u64 << 53) as f64
                };
                Vec3::new(u(0) * scale, u(1) * scale, u(2) * scale * 2.0)
            })
            .collect()
    }

    #[test]
    fn matches_brute_force_dense() {
        let pos = random_positions(300, 1, 10.0);
        let cl = sorted_pairs(CellList::build(&pos, 2.5));
        let bf = sorted_pairs(brute_force_pairs(&pos, 2.5));
        assert_eq!(cl, bf);
    }

    #[test]
    fn matches_brute_force_sparse() {
        let pos = random_positions(100, 2, 100.0);
        let cl = sorted_pairs(CellList::build(&pos, 3.0));
        let bf = sorted_pairs(brute_force_pairs(&pos, 3.0));
        assert_eq!(cl, bf);
    }

    #[test]
    fn single_particle_no_pairs() {
        let pos = [Vec3::new(1.0, 2.0, 3.0)];
        assert!(CellList::build(&pos, 1.0).is_empty());
    }

    #[test]
    fn collinear_particles() {
        // Degenerate geometry: all on a line (1-cell-thick grid in y, z).
        let pos: Vec<Vec3> = (0..20)
            .map(|i| Vec3::new(i as f64 * 0.9, 0.0, 0.0))
            .collect();
        let cl = sorted_pairs(CellList::build(&pos, 1.0));
        let bf = sorted_pairs(brute_force_pairs(&pos, 1.0));
        assert_eq!(cl, bf);
        assert_eq!(cl.len(), 19);
    }

    #[test]
    fn coincident_particles() {
        let pos = [Vec3::zero(), Vec3::zero(), Vec3::zero()];
        let cl = CellList::build(&pos, 1.0);
        assert_eq!(cl.len(), 3, "all three coincident pairs found");
    }

    #[test]
    #[should_panic(expected = "cutoff must be positive")]
    fn zero_cutoff_rejected() {
        CellList::build(&[Vec3::zero()], 0.0);
    }

    #[test]
    fn smaller_query_cutoff_allowed() {
        let pos = random_positions(50, 3, 8.0);
        let binned = CellList::bin(&pos, 3.0);
        let mut out = Vec::new();
        binned.collect_pairs(&pos, 2.0, &mut out);
        assert_eq!(
            sorted_pairs(out),
            sorted_pairs(brute_force_pairs(&pos, 2.0))
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn always_matches_brute_force(seed in 0u64..1000, n in 2usize..120, cutoff in 0.5f64..4.0) {
            let pos = random_positions(n, seed, 12.0);
            let cl = sorted_pairs(CellList::build(&pos, cutoff));
            let bf = sorted_pairs(brute_force_pairs(&pos, cutoff));
            prop_assert_eq!(cl, bf);
        }
    }
}
