// N003: libm transcendentals inside the MD step's force kernels — the
// bits follow the host's libm, and a lane sweep calls them once per lane.
pub fn angle_force(cos_t: f64, theta0: f64, k: f64) -> f64 {
    let theta = cos_t.acos();
    let screen = (-theta / 3.0).exp();
    2.0 * k * (theta - theta0) * screen
}

pub fn torsion(s: f64, c: f64) -> f64 {
    s.atan2(c).sin()
}
