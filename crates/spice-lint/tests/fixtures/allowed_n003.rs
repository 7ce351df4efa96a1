// N003 allows: an energy-only log and a construction-time constant keep
// libm, each with its reason; the force itself takes no libm call.
pub fn fene(k: f64, r0: f64, x: f64) -> (f64, f64) {
    // spice-lint: allow(N003) energy only: the force below takes no log
    let e = -0.5 * k * r0 * r0 * (1.0 - x * x).ln();
    (e, -k * x * r0 / (1.0 - x * x))
}

pub fn wca_cutoff(sigma: f64) -> f64 {
    2.0f64.powf(1.0 / 6.0) * sigma // spice-lint: allow(N003) construction constant, computed once
}
