//! Cross-crate steering workflow tests: the checkpoint & clone cycle on
//! the real pore system through the full framework stack, live IMD
//! forces, and stop semantics.

use spice::core::config::Scale;
use spice::core::pipeline::pore_simulation;
use spice::md::Vec3;
use spice::steering::message::ControlMessage;
use spice::steering::service::GridService;
use spice::steering::{HapticDevice, SteeringClient, SteeringHook, Visualizer};

#[test]
fn checkpoint_clone_workflow_on_pore_system() {
    let service = GridService::shared();
    let mut original = pore_simulation(Scale::Test, 1);
    let lead = original.force_field().topology().group("dna").unwrap()[0];
    let mut hook = SteeringHook::attach(service.clone(), 10, vec![lead]);
    let client = SteeringClient::attach(service.clone(), hook.component_id());

    client.checkpoint("v-and-v");
    original.run(30, &mut [&mut hook]).unwrap();
    let frozen = original.system().positions().to_vec();

    // Clone for "verification and validation tests without perturbing the
    // original simulation" (§III).
    let mut clone = pore_simulation(Scale::Test, 999);
    client.clone_into("v-and-v", &mut clone).unwrap();
    assert_eq!(clone.step_count(), 10);
    clone.run(200, &mut []).unwrap();

    assert_eq!(
        original.system().positions(),
        frozen.as_slice(),
        "original untouched while the clone explored"
    );
    assert_ne!(clone.system().positions(), original.system().positions());
    assert!(clone.system().is_finite());
}

#[test]
fn live_imd_forces_change_the_trajectory() {
    let service = GridService::shared();
    let mut steered = pore_simulation(Scale::Test, 2);
    let lead = steered.force_field().topology().group("dna").unwrap()[0];
    let mut hook = SteeringHook::attach(service.clone(), 5, vec![lead]);
    let vis = Visualizer::attach(service.clone(), hook.component_id());
    for _ in 0..10 {
        vis.steer(vec![lead], Vec3::new(0.0, 0.0, 20.0));
        steered.run(5, &mut [&mut hook]).unwrap();
    }

    let mut control = pore_simulation(Scale::Test, 2);
    control.run(50, &mut []).unwrap();
    assert!(
        steered.system().positions()[lead].z > control.system().positions()[lead].z,
        "persistent upward IMD force must raise the lead bead"
    );
}

#[test]
fn haptic_device_measures_forces_through_full_stack() {
    let service = GridService::shared();
    let mut sim = pore_simulation(Scale::Test, 3);
    let lead = sim.force_field().topology().group("dna").unwrap()[0];
    let mut hook = SteeringHook::attach(service.clone(), 10, vec![lead]);
    let mut vis = Visualizer::attach(service.clone(), hook.component_id())
        .with_haptic(HapticDevice::phantom());
    let z0 = sim.system().positions()[lead].z;
    for b in 0..15 {
        sim.run(10, &mut [&mut hook]).unwrap();
        while vis
            .steer_with_haptic(&[lead], z0 + b as f64 * 0.5)
            .is_some()
        {}
    }
    let device = vis.haptic.as_ref().unwrap();
    assert!(
        device.max_observed_force_pn() > 1.0,
        "dragging against the pore must register pN-scale forces: {}",
        device.max_observed_force_pn()
    );
}

#[test]
fn stop_verb_terminates_cleanly_mid_campaign() {
    let service = GridService::shared();
    let mut sim = pore_simulation(Scale::Test, 4);
    let lead = sim.force_field().topology().group("dna").unwrap()[0];
    let mut hook = SteeringHook::attach(service.clone(), 10, vec![lead]);
    service
        .lock()
        .send_control(hook.component_id(), ControlMessage::Stop);
    let done = sim.run(1000, &mut [&mut hook]).unwrap();
    assert_eq!(done, 10, "stops at the first emit point");
    assert!(hook.stopped());
}
