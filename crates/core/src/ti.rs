//! Thermodynamic integration — the §VI extension.
//!
//! "the grid computing infrastructure used here for computing free
//! energies by SMD-JE can be easily extended to compute free energies
//! using different approaches (e.g. thermodynamic integration)."
//!
//! TI holds the steered coordinate at a ladder of fixed guide positions
//! (a static SMD spring at each window — the same decomposition the grid
//! executes as independent jobs), samples the mean spring force per
//! window, and integrates ⟨F⟩ dz. Cross-validates the JE profiles.

use crate::config::Scale;
use spice_jarzynski::wham::UmbrellaWindow;
use spice_md::Simulation;
use spice_smd::{run_ensembles_batched, Runs, WindowLadder};
use spice_stats::rng::SeedSequence;
use spice_stats::RunningStats;

/// One TI window's measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TiWindow {
    /// Anchor displacement of the window (Å).
    pub s: f64,
    /// Mean COM position of the steered group in this window (Å,
    /// absolute z) — the Fig. 4 x-coordinate of this window.
    pub mean_com: f64,
    /// Mean spring force on the system along +z (kcal mol⁻¹ Å⁻¹).
    pub mean_force: f64,
    /// Standard error of the mean force.
    pub force_sem: f64,
    /// Samples collected.
    pub n: u64,
}

/// A TI free-energy profile.
#[derive(Debug, Clone, PartialEq)]
pub struct TiProfile {
    /// Per-window measurements, ordered by displacement.
    pub windows: Vec<TiWindow>,
    /// Integrated profile by the trapezoid rule over the anchor
    /// coordinate, Φ(0) = 0, reported at each window's *mean COM
    /// displacement* (the Fig. 4 x-axis).
    pub profile: Vec<(f64, f64)>,
}

/// Run a TI ladder: `n_windows` static-spring windows spanning
/// `[0, span]` of guide displacement from the group's equilibrated COM.
///
/// `factory(seed)` builds one fresh simulation per window (windows are
/// independent jobs — the grid-amenable decomposition). The spring
/// constant is the paper's optimal κ = 100 pN/Å unless overridden.
pub fn ti_profile<F>(
    factory: F,
    scale: Scale,
    span: f64,
    n_windows: usize,
    kappa_pn_per_a: f64,
    seeds: SeedSequence,
) -> TiProfile
where
    F: Fn(u64) -> Simulation + Sync,
{
    let ladder = ladder(scale, span, n_windows, kappa_pn_per_a, seeds);
    profile(&ladder, run_ladder(factory, &ladder))
}

/// The TI profile of `ladder` from its windows' runs `runs`.
pub(crate) fn profile(ladder: &WindowLadder, runs: Runs) -> TiProfile {
    let windows: Vec<TiWindow> = summarize(ladder, runs)
        .into_iter()
        .map(|(w, _)| w)
        .collect();

    // dΦ/ds at window s equals the mean force the spring must exert to
    // hold the coordinate there; trapezoid-integrate over the anchor,
    // then report each point at the window's mean COM displacement
    // (relative to the first window) — the coordinate Fig. 4 plots.
    let com0 = windows[0].mean_com;
    let mut profile = Vec::with_capacity(windows.len());
    let mut phi = 0.0;
    profile.push((0.0, 0.0));
    for pair in windows.windows(2) {
        let ds = pair[1].s - pair[0].s;
        phi += 0.5 * (pair[0].mean_force + pair[1].mean_force) * ds;
        profile.push((pair[1].mean_com - com0, phi));
    }
    TiProfile { windows, profile }
}

/// The ladder of `n_windows` static-spring windows of κ `kappa_pn_per_a`
/// evenly spanning `[0, span]` of anchor displacement, held and sampled
/// for `scale`'s lengths. Window `w` starts with the steered group
/// translated by its anchor displacement `s`, so windows sample near
/// their anchor instead of relaxing violently across the whole ladder
/// (which would bias the mean force through metastable trapping).
pub(crate) fn ladder(
    scale: Scale,
    span: f64,
    n_windows: usize,
    kappa_pn_per_a: f64,
    seeds: SeedSequence,
) -> WindowLadder {
    assert!(n_windows >= 2 && span > 0.0);
    let sample_steps = match scale {
        Scale::Test => 1_500,
        Scale::Bench => 6_000,
        Scale::Paper => 30_000,
    };
    WindowLadder {
        kappa_pn_per_a,
        offsets: (0..n_windows)
            .map(|w| span * w as f64 / (n_windows - 1) as f64)
            .collect(),
        seeds,
        hold_steps: scale.equilibration_steps(),
        sample_steps,
    }
}

/// `ladder`'s windows as a pool of their own.
pub(crate) fn run_ladder<F>(factory: F, ladder: &WindowLadder) -> Runs
where
    F: Fn(u64) -> Simulation + Sync,
{
    let (_, mut runs) = run_ensembles_batched(factory, &[], std::slice::from_ref(ladder));
    runs.pop().expect("one ladder's windows")
}

/// Each window of `ladder` summarized from its run in `runs`, with its
/// raw COM samples (shared by TI integration and WHAM).
fn summarize(ladder: &WindowLadder, runs: Runs) -> Vec<(TiWindow, Vec<f64>)> {
    runs.into_iter()
        .zip(&ladder.offsets)
        .map(|(window, &s)| {
            let (origin, trajectory) = window.expect("TI window");
            let mut stats = RunningStats::new();
            let mut com_stats = RunningStats::new();
            // Samples relative to the (window-independent) unshifted start
            // COM, so every window shares one coordinate origin.
            let com_samples = trajectory.samples[1..]
                .iter()
                .map(|sample| {
                    stats.push(sample.force);
                    com_stats.push(sample.com_disp);
                    sample.com_disp - origin
                })
                .collect();
            let summary = TiWindow {
                s,
                mean_com: com_stats.mean(),
                mean_force: stats.mean(),
                force_sem: stats.std_error(),
                n: stats.count(),
            };
            (summary, com_samples)
        })
        .collect()
}

/// Umbrella-window data for WHAM on the same ladder `ti_profile` uses:
/// window k is biased at displacement s_k with spring κ, and its samples
/// are COM displacements relative to the common start COM.
pub fn umbrella_windows<F>(
    factory: F,
    scale: Scale,
    span: f64,
    n_windows: usize,
    kappa_pn_per_a: f64,
    seeds: SeedSequence,
) -> Vec<UmbrellaWindow>
where
    F: Fn(u64) -> Simulation + Sync,
{
    let kappa = spice_md::units::spring_pn_per_a_to_kcal(kappa_pn_per_a);
    let ladder = ladder(scale, span, n_windows, kappa_pn_per_a, seeds);
    summarize(&ladder, run_ladder(factory, &ladder))
        .into_iter()
        .map(|(w, samples)| UmbrellaWindow {
            center: w.s,
            kappa,
            samples,
        })
        .collect()
}

impl TiProfile {
    /// Φ interpolated at displacement `s` (clamped to the profile range).
    pub fn phi_at(&self, s: f64) -> f64 {
        if self.profile.is_empty() {
            return f64::NAN;
        }
        let mut prev = self.profile[0];
        for &cur in &self.profile[1..] {
            if cur.0 >= s {
                let span = cur.0 - prev.0;
                if span <= 0.0 {
                    return cur.1;
                }
                let w = ((s - prev.0) / span).clamp(0.0, 1.0);
                return prev.1 * (1.0 - w) + cur.1 * w;
            }
            prev = cur;
        }
        self.profile.last().expect("non-empty").1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spice_md::forces::{ForceField, Restraint};
    use spice_md::integrate::LangevinBaoab;
    use spice_md::{System, Topology, Vec3};

    /// Single bead in U = a z²: TI must recover Φ(s) ≈ a s² exactly.
    fn well_factory(a: f64) -> impl Fn(u64) -> Simulation + Sync {
        move |seed| {
            let mut sys = System::new();
            sys.add_particle(Vec3::zero(), 50.0, 0.0, 0);
            let mut topo = Topology::new();
            topo.set_group("smd", vec![0]);
            let ff = ForceField::new(topo).with_restraint(Restraint::harmonic(0, Vec3::zero(), a));
            Simulation::new(
                sys,
                ff,
                Box::new(LangevinBaoab::new(300.0, 5.0, seed)),
                0.02,
            )
        }
    }

    #[test]
    fn ti_recovers_harmonic_pmf() {
        let a = 0.5;
        let ti = ti_profile(
            well_factory(a),
            Scale::Test,
            3.0,
            7,
            500.0,
            SeedSequence::new(3),
        );
        for &(s, phi) in &ti.profile {
            let expected = a * s * s;
            assert!(
                (phi - expected).abs() < 0.35 + 0.1 * expected,
                "TI phi({s}) = {phi} vs analytic {expected}"
            );
        }
    }

    #[test]
    fn windows_report_positive_force_uphill() {
        let ti = ti_profile(
            well_factory(1.0),
            Scale::Test,
            2.0,
            5,
            500.0,
            SeedSequence::new(4),
        );
        // Holding the bead displaced uphill needs a positive (upward)
        // spring force that grows with displacement.
        let forces: Vec<f64> = ti.windows.iter().map(|w| w.mean_force).collect();
        assert!(forces.last().unwrap() > &1.0);
        assert!(forces.last().unwrap() > forces.first().unwrap());
    }

    #[test]
    fn phi_at_interpolates() {
        let ti = TiProfile {
            windows: vec![],
            profile: vec![(0.0, 0.0), (2.0, 4.0)],
        };
        assert!((ti.phi_at(1.0) - 2.0).abs() < 1e-12);
        assert_eq!(ti.phi_at(10.0), 4.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = ti_profile(
            well_factory(1.0),
            Scale::Test,
            1.0,
            3,
            300.0,
            SeedSequence::new(9),
        );
        let b = ti_profile(
            well_factory(1.0),
            Scale::Test,
            1.0,
            3,
            300.0,
            SeedSequence::new(9),
        );
        assert_eq!(a, b);
    }
}
