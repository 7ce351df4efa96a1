//! The scientist's steering client.
//!
//! Wraps the grid service in the verbs of the RealityGrid steering API
//! that the workflows use (parameter changes, checkpoint & clone) plus
//! frame consumption for monitoring.

use crate::message::{ControlMessage, Frame};
use crate::service::{ComponentId, ComponentKind, SharedService};
use spice_md::{MdError, Simulation};

/// A steering client attached to one simulation.
pub struct SteeringClient {
    service: SharedService,
    id: ComponentId,
    sim: ComponentId,
}

impl SteeringClient {
    /// Register a client on `service`, steering simulation `sim`.
    pub fn attach(service: SharedService, sim: ComponentId) -> Self {
        let id = service.lock().register(ComponentKind::SteeringClient);
        SteeringClient { service, id, sim }
    }

    /// This client's component id.
    pub fn component_id(&self) -> ComponentId {
        self.id
    }

    /// Change a steerable parameter.
    pub fn set_param(&self, name: impl Into<String>, value: f64) {
        self.service.lock().send_control(
            self.sim,
            ControlMessage::SetParam {
                name: name.into(),
                value,
            },
        );
    }

    /// Request a checkpoint under `label`.
    pub fn checkpoint(&self, label: impl Into<String>) {
        self.service.lock().send_control(
            self.sim,
            ControlMessage::Checkpoint {
                label: label.into(),
            },
        );
    }

    /// Pop the oldest frame addressed to this client.
    pub fn next_frame(&self) -> Option<Frame> {
        self.service.lock().next_frame(self.id)
    }

    /// Clone a checkpointed state into `target` — the §III workflow:
    /// "exploring a particular configuration in greater detail (…)
    /// without perturbing the original simulation". The target keeps its
    /// own (different) noise seed, so it diverges as an independent
    /// replica.
    pub fn clone_into(&self, label: &str, target: &mut Simulation) -> Result<(), MdError> {
        let snap = self
            .service
            .lock()
            .checkpoint(label)
            .cloned()
            .ok_or_else(|| MdError::Checkpoint(format!("no checkpoint labelled '{label}'")))?;
        snap.restore(target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::GridService;
    use crate::sim_side::SteeringHook;
    use spice_md::forces::{ForceField, Restraint};
    use spice_md::integrate::LangevinBaoab;
    use spice_md::{System, Topology, Vec3};

    fn make_sim(seed: u64) -> Simulation {
        let mut sys = System::new();
        sys.add_particle(Vec3::new(1.0, 0.0, 0.0), 10.0, 0.0, 0);
        let ff = ForceField::new(Topology::new()).with_restraint(Restraint::harmonic(
            0,
            Vec3::zero(),
            1.0,
        ));
        Simulation::new(
            sys,
            ff,
            Box::new(LangevinBaoab::new(300.0, 2.0, seed)),
            0.01,
        )
    }

    #[test]
    fn full_checkpoint_clone_workflow() {
        let service = GridService::shared();
        let mut hook = SteeringHook::attach(service.clone(), 10, vec![0]);
        let client = SteeringClient::attach(service.clone(), hook.component_id());

        let mut original = make_sim(1);
        client.checkpoint("branch");
        original.run(50, &mut [&mut hook]).unwrap();

        // Clone into a replica with a different seed and verify divergence
        // without perturbing the original.
        let mut replica = make_sim(999);
        client.clone_into("branch", &mut replica).unwrap();
        assert_eq!(replica.step_count(), 10, "cloned from the first emit point");
        let orig_before = original.system().positions().to_vec();
        replica.run(40, &mut []).unwrap();
        assert_eq!(
            original.system().positions(),
            orig_before.as_slice(),
            "original untouched by clone"
        );
        assert_ne!(replica.system().positions(), original.system().positions());
    }

    #[test]
    fn clone_unknown_label_errors() {
        let service = GridService::shared();
        let client = SteeringClient::attach(service.clone(), 0);
        let mut sim = make_sim(1);
        assert!(client.clone_into("missing", &mut sim).is_err());
    }

    #[test]
    fn frames_reach_client() {
        let service = GridService::shared();
        let mut hook = SteeringHook::attach(service.clone(), 5, vec![0]);
        let client = SteeringClient::attach(service.clone(), hook.component_id());
        let mut sim = make_sim(2);
        sim.run(25, &mut [&mut hook]).unwrap();
        let latest = std::iter::from_fn(|| client.next_frame())
            .last()
            .expect("frames pending");
        assert_eq!(latest.step, 25);
        assert!(latest.steered_com_z.is_some());
    }

    #[test]
    fn detail_request_roundtrip() {
        let service = GridService::shared();
        let mut hook = SteeringHook::attach(service.clone(), 5, vec![0]);
        let client = SteeringClient::attach(service.clone(), hook.component_id());
        service
            .lock()
            .send_control(hook.component_id(), ControlMessage::RequestFrame);
        let mut sim = make_sim(3);
        sim.run(5, &mut [&mut hook]).unwrap();
        let f = client.next_frame().unwrap();
        assert!(f.positions.is_some(), "detailed frame carries coordinates");
        assert_eq!(f.positions.unwrap().len(), 1);
    }
}
