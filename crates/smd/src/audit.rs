//! Runtime simulation sanitizer for the SMD layer (the `audit` feature).
//!
//! The pull loop is the boundary where MD state becomes thermodynamic
//! data: a non-finite spring force or work integral here silently poisons
//! every downstream Jarzynski average. With `--features audit` each pull
//! step asserts both stay finite; without it the check does not exist.

/// Assert the running work integral and spring force are finite. Invoked
/// by the scalar pull loop (`runner::run_leg`) after every pull step; also
/// callable directly (injection tests drive it with NaN).
pub fn check_finite_work(work: f64, force: f64, step: u64) {
    if !(work.is_finite() && force.is_finite()) {
        // spice-lint: allow(P001) the sanitizer's contract is to panic on a violated invariant
        panic!(
            "spice-audit[smd.finite_work]: work {work} or spring force \
             {force} non-finite at pull step {step}"
        );
    }
}
