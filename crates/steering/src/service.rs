//! The intermediate grid service of Fig. 2a.
//!
//! Components (simulations, visualizers, steering clients, haptic
//! bridges) register and exchange messages through per-component routed
//! queues. The service also hosts the checkpoint store used by the
//! checkpoint & clone workflow.
//!
//! The service is shared across threads ([`SharedService`]) because the
//! steering client genuinely runs concurrently with the simulation —
//! exactly the paper's deployment, where the scientist steers a live run.

use crate::message::{ControlMessage, Frame};
use parking_lot::Mutex;
use spice_md::checkpoint::Snapshot;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Registered component handle.
pub type ComponentId = u32;

/// Kinds of components in the framework.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComponentKind {
    /// A running simulation.
    Simulation,
    /// A visualization engine.
    Visualizer,
    /// A scientist's steering client.
    SteeringClient,
    /// A haptic bridge.
    Haptic,
}

/// The registry + router + checkpoint store.
pub struct GridService {
    next_id: ComponentId,
    kinds: HashMap<ComponentId, ComponentKind>,
    control: HashMap<ComponentId, VecDeque<ControlMessage>>,
    frames: HashMap<ComponentId, VecDeque<Frame>>,
    checkpoints: HashMap<String, Snapshot>,
    delivered: u64,
}

/// Thread-shared service handle.
pub type SharedService = Arc<Mutex<GridService>>;

impl Default for GridService {
    fn default() -> Self {
        Self::new()
    }
}

impl GridService {
    /// Empty service.
    pub fn new() -> Self {
        GridService {
            next_id: 0,
            kinds: HashMap::new(),
            control: HashMap::new(),
            frames: HashMap::new(),
            checkpoints: HashMap::new(),
            delivered: 0,
        }
    }

    /// Wrap in a thread-shared handle.
    pub fn shared() -> SharedService {
        Arc::new(Mutex::new(Self::new()))
    }

    /// Register a component; returns its id.
    pub fn register(&mut self, kind: ComponentKind) -> ComponentId {
        let id = self.next_id;
        self.next_id += 1;
        self.kinds.insert(id, kind);
        self.control.insert(id, VecDeque::new());
        self.frames.insert(id, VecDeque::new());
        id
    }

    /// Send a control message to a component.
    ///
    /// # Panics
    /// Panics for unknown targets (protocol error).
    pub fn send_control(&mut self, to: ComponentId, msg: ControlMessage) {
        self.control
            .get_mut(&to)
            .expect("unknown control target")
            .push_back(msg);
        self.delivered += 1;
    }

    /// Drain all pending control messages for a component.
    pub fn poll_control(&mut self, id: ComponentId) -> Vec<ControlMessage> {
        self.control
            .get_mut(&id)
            .map(|q| q.drain(..).collect())
            .unwrap_or_default()
    }

    /// Publish a frame to every registered visualizer and steering client.
    pub fn publish_frame(&mut self, frame: &Frame) {
        let targets: Vec<ComponentId> = self
            .kinds
            .iter()
            .filter(|(_, k)| matches!(k, ComponentKind::Visualizer | ComponentKind::SteeringClient))
            .map(|(&id, _)| id)
            .collect();
        for id in targets {
            self.frames
                .get_mut(&id)
                .expect("registered component has a queue")
                .push_back(frame.clone());
            self.delivered += 1;
        }
    }

    /// Pop the oldest pending frame for a component.
    pub fn next_frame(&mut self, id: ComponentId) -> Option<Frame> {
        self.frames.get_mut(&id).and_then(|q| q.pop_front())
    }

    /// Store a checkpoint under its label.
    pub fn store_checkpoint(&mut self, label: impl Into<String>, snap: Snapshot) {
        self.checkpoints.insert(label.into(), snap);
    }

    /// Retrieve a stored checkpoint.
    pub fn checkpoint(&self, label: &str) -> Option<&Snapshot> {
        self.checkpoints.get(label)
    }

    /// Labels of all stored checkpoints.
    pub fn checkpoint_labels(&self) -> Vec<String> {
        let mut v: Vec<String> = self.checkpoints.keys().cloned().collect();
        v.sort();
        v
    }

    /// Total messages routed (diagnostics).
    pub fn delivered(&self) -> u64 {
        self.delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_route_control() {
        let mut s = GridService::new();
        let sim = s.register(ComponentKind::Simulation);
        let cli = s.register(ComponentKind::SteeringClient);
        assert_ne!(sim, cli);

        s.send_control(sim, ControlMessage::Pause);
        s.send_control(sim, ControlMessage::Resume);
        let msgs = s.poll_control(sim);
        assert_eq!(msgs, vec![ControlMessage::Pause, ControlMessage::Resume]);
        assert!(s.poll_control(sim).is_empty(), "poll drains");
        assert!(s.poll_control(cli).is_empty());
    }

    #[test]
    fn frames_fan_out_to_observers_only() {
        let mut s = GridService::new();
        let sim = s.register(ComponentKind::Simulation);
        let vis = s.register(ComponentKind::Visualizer);
        let cli = s.register(ComponentKind::SteeringClient);
        let frame = Frame {
            step: 10,
            time_ps: 0.1,
            temperature: 300.0,
            potential: -1.0,
            steered_com_z: None,
            positions: None,
        };
        s.publish_frame(&frame);
        assert_eq!(s.next_frame(vis).unwrap().step, 10);
        assert_eq!(s.next_frame(cli).unwrap().step, 10);
        assert!(
            s.next_frame(sim).is_none(),
            "simulations do not receive frames"
        );
        assert!(s.next_frame(vis).is_none(), "one frame per publish");
    }

    #[test]
    fn checkpoint_store_roundtrip() {
        use spice_md::forces::ForceField;
        use spice_md::integrate::VelocityVerlet;
        use spice_md::{Simulation, System, Topology, Vec3};
        let mut sys = System::new();
        sys.add_particle(Vec3::zero(), 1.0, 0.0, 0);
        let sim = Simulation::new(
            sys,
            ForceField::new(Topology::new()),
            Box::new(VelocityVerlet),
            0.01,
        );
        let snap = Snapshot::capture(&sim, "x");
        let mut s = GridService::new();
        s.store_checkpoint("pre-pull", snap.clone());
        assert_eq!(s.checkpoint("pre-pull"), Some(&snap));
        assert!(s.checkpoint("nope").is_none());
        assert_eq!(s.checkpoint_labels(), vec!["pre-pull".to_string()]);
    }

    #[test]
    #[should_panic(expected = "unknown control target")]
    fn unknown_target_panics() {
        let mut s = GridService::new();
        s.send_control(99, ControlMessage::Pause);
    }

    #[test]
    fn delivered_counts_messages() {
        let mut s = GridService::new();
        let sim = s.register(ComponentKind::Simulation);
        let _vis = s.register(ComponentKind::Visualizer);
        s.send_control(sim, ControlMessage::Pause);
        s.publish_frame(&Frame {
            step: 0,
            time_ps: 0.0,
            temperature: 0.0,
            potential: 0.0,
            steered_com_z: None,
            positions: None,
        });
        assert_eq!(s.delivered(), 2);
    }
}
