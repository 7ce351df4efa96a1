//! Fault-injection tests for the runtime simulation sanitizer (the
//! `audit` feature, see DESIGN.md §9). Each test corrupts one layer's
//! state and asserts the sanitizer panics naming the violated invariant;
//! the final test proves clean runs pass with every check live.
//!
//! Compiled only under `cargo test --features audit`.
#![cfg(feature = "audit")]

use spice_gridsim::{Campaign, EventQueue, SimTime};
use spice_md::forces::{ForceField, Restraint};
use spice_md::integrate::LangevinBaoab;
use spice_md::{BiasForce, Simulation, System, Topology, Vec3};
use spice_smd::{run_pull, PullProtocol};

/// One bead in a harmonic well with an "smd" group — the standard
/// minimal pulling setup.
fn well_sim(seed: u64) -> Simulation {
    let mut sys = System::new();
    sys.add_particle(Vec3::zero(), 50.0, 0.0, 0);
    let mut topo = Topology::new();
    topo.set_group("smd", vec![0]);
    let ff = ForceField::new(topo).with_restraint(Restraint::harmonic(0, Vec3::zero(), 1.0));
    Simulation::new(
        sys,
        ff,
        Box::new(LangevinBaoab::new(300.0, 5.0, seed)),
        0.02,
    )
}

fn quick_protocol() -> PullProtocol {
    PullProtocol {
        kappa_pn_per_a: 200.0,
        v_a_per_ns: 2000.0,
        pull_distance: 2.0,
        dt_ps: 0.02,
        equilibration_steps: 50,
        sample_stride: 10,
    }
}

/// A bias that corrupts the force array with NaN — the canonical
/// numerical blowup, injected at the exact layer boundary the sanitizer
/// guards.
struct NanForce;
impl BiasForce for NanForce {
    fn apply(&self, _p: &[Vec3], forces: &mut [Vec3], _t: f64) -> f64 {
        forces[0] = Vec3::new(f64::NAN, 0.0, 0.0);
        0.0
    }
}

#[test]
#[should_panic(expected = "spice-audit[md.finite_state]")]
fn nan_force_injection_trips_md_sanitizer() {
    let mut sim = well_sim(1);
    sim.set_bias(Some(Box::new(NanForce)));
    sim.run(10, &mut []).ok();
}

#[test]
#[should_panic(expected = "spice-audit[md.finite_state]")]
fn direct_state_corruption_trips_md_sanitizer() {
    let mut sim = well_sim(2);
    sim.system_mut().velocities_mut()[0] = Vec3::new(0.0, f64::INFINITY, 0.0);
    spice_md::audit::check_finite_state(sim.system(), sim.step_count());
}

#[test]
#[should_panic(expected = "spice-audit[smd.finite_work]")]
fn nan_work_trips_smd_sanitizer() {
    spice_smd::audit::check_finite_work(f64::NAN, 0.0, 3);
}

#[test]
#[should_panic(expected = "spice-audit[gridsim.event_order]")]
fn out_of_order_event_trips_des_sanitizer() {
    let mut q = EventQueue::new();
    q.schedule(SimTime::from_hours(2.0), "on-time");
    q.pop();
    // Bypass the schedule-side assert: the pop-side sanitizer must still
    // catch the clock running backwards.
    q.schedule_unchecked(SimTime::from_hours(1.0), "late");
    q.pop();
}

#[test]
#[should_panic(expected = "spice-audit[gridsim.finite_time]")]
fn nan_event_time_trips_des_sanitizer() {
    let mut q = EventQueue::new();
    q.schedule_unchecked(SimTime(f64::NAN), ());
    q.pop();
}

#[test]
#[should_panic(expected = "spice-audit[gridsim.single_site]")]
fn double_placement_trips_single_site_sanitizer() {
    // A job claimed to be running on SDSC must not be started on NCSA.
    spice_gridsim::audit::check_single_site(7, Some(1), 0);
}

#[test]
#[should_panic(expected = "spice-audit[gridsim.retry_bound]")]
fn retry_overrun_trips_retry_bound_sanitizer() {
    // 5 retries consumed against a policy allowing 3.
    spice_gridsim::audit::check_retry_bound(12, 5, 3);
}

#[test]
#[should_panic(expected = "spice-audit[gridsim.restart_progress]")]
fn full_checkpoint_trips_restart_progress_sanitizer() {
    // A checkpoint claiming 100% of the remaining work would mean the
    // job finished, not failed — restarted work must stay positive.
    spice_gridsim::audit::check_restart_progress(3, 8.0, 8.0);
}

#[test]
#[should_panic(expected = "spice-audit[gridsim.restart_progress]")]
fn nan_checkpoint_trips_restart_progress_sanitizer() {
    spice_gridsim::audit::check_restart_progress(3, f64::NAN, 8.0);
}

/// With every invariant check live, an uncorrupted pull and an
/// uncorrupted DES campaign must run to completion: the sanitizer only
/// fires on genuine violations.
#[test]
fn clean_runs_pass_under_audit() {
    let mut sim = well_sim(7);
    let out = run_pull(&mut sim, &quick_protocol(), 7).expect("clean pull succeeds under audit");
    assert!(out.trajectory.final_work().is_finite());

    let r = spice_gridsim::des::run_des(&Campaign::paper_batch_phase(3));
    assert_eq!(r.records.len(), 72, "all jobs conserved through the DES");
}

/// A full resilient execution of the SC05 outage scenario — kills,
/// checkpoint restarts, failover retries — passes every live sanitizer:
/// single-site placement, retry bounds, restart progress, processor and
/// job conservation.
#[test]
fn clean_resilient_runs_pass_under_audit() {
    use spice_gridsim::resilience::{run_resilient, ResiliencePolicy};
    use spice_telemetry::Telemetry;
    let c = Campaign::sc05_outage_phase(123);
    for p in [
        ResiliencePolicy::naive(),
        ResiliencePolicy::retry_only(),
        ResiliencePolicy::checkpoint_failover(),
    ] {
        let r = run_resilient(&c, &p, &Telemetry::disabled());
        assert_eq!(
            r.result.records.len() + r.abandoned.len(),
            72,
            "all jobs conserved through the resilient engine"
        );
    }
}
