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
use spice_telemetry::{ProbePoint, Telemetry, Track};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Registered component handle.
pub type ComponentId = u32;

/// One routed-message record in the session log.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEntry {
    /// Monotone sequence number.
    pub seq: u64,
    /// Destination component.
    pub to: ComponentId,
    /// Short kind tag ("control:Pause", "frame", …). Static: every
    /// message kind is known at compile time, so logging never allocates.
    pub kind: &'static str,
}

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
    /// Bounded session log of routed messages (newest kept).
    log: VecDeque<LogEntry>,
    log_capacity: usize,
    flows: HashMap<ComponentId, ClientFlow>,
    /// Largest backlog any client has ever had.
    watermark: u64,
    telemetry: Telemetry,
    track: Track,
}

/// Thread-shared service handle.
pub type SharedService = Arc<Mutex<GridService>>;

fn control_kind(msg: &ControlMessage) -> &'static str {
    match msg {
        ControlMessage::Pause => "control:Pause",
        ControlMessage::Resume => "control:Resume",
        ControlMessage::Stop => "control:Stop",
        ControlMessage::SetParam { .. } => "control:SetParam",
        ControlMessage::Checkpoint { .. } => "control:Checkpoint",
        ControlMessage::ApplyForce { .. } => "control:ApplyForce",
        ControlMessage::RequestFrame => "control:RequestFrame",
    }
}

/// Per-kind message counter name. Every kind maps to a lowercase
/// dot-separated literal known at compile time, so the registry export
/// stays deterministic and diff-able (spice-lint M001).
fn kind_counter_name(kind: &'static str) -> &'static str {
    match kind {
        "control:Pause" => "steering.messages.control.pause",
        "control:Resume" => "steering.messages.control.resume",
        "control:Stop" => "steering.messages.control.stop",
        "control:SetParam" => "steering.messages.control.set_param",
        "control:Checkpoint" => "steering.messages.control.checkpoint",
        "control:ApplyForce" => "steering.messages.control.apply_force",
        "control:RequestFrame" => "steering.messages.control.request_frame",
        _ => "steering.messages.frame",
    }
}

/// Queue-depth histogram buckets for `steering.client_lag`.
const CLIENT_LAG_BOUNDS: [f64; 9] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0];

/// Per-client delivery-flow accounting.
#[derive(Debug, Default, Clone, Copy)]
struct ClientFlow {
    /// Messages routed to this client (control + frames).
    enqueued: u64,
    /// Messages the client has drained.
    consumed: u64,
    /// High-watermark of the backlog (`enqueued - consumed`).
    watermark: u64,
    /// Watermark value at the last telemetry instant; the next instant
    /// fires when the watermark at least doubles, bounding event volume
    /// to O(log backlog) per client.
    emitted: u64,
}

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
            log: VecDeque::new(),
            log_capacity: 4096,
            flows: HashMap::new(),
            watermark: 0,
            telemetry: Telemetry::disabled(),
            track: Track::disabled(),
        }
    }

    /// Attach telemetry: every routed message becomes a
    /// `steering.message` instant on the `("steering.service", 0)` track
    /// (the logical clock is the delivered-message sequence number),
    /// bumps the `steering.messages` counter plus a per-kind counter
    /// (static lowercase names — see `kind_counter_name`), and fires
    /// the `SteeringMessage` probe. Delivery-flow accounting also
    /// exports: the `steering.client_lag` histogram (queue depth seen by
    /// each enqueue), the `steering.backlog_watermark` gauge (largest
    /// backlog any client ever had), and per-client
    /// `("steering.client", id)` tracks carrying a `steering.backlog`
    /// instant whenever that client's watermark at least doubles.
    /// Routing behaviour is unchanged.
    pub fn set_telemetry(&mut self, t: &Telemetry) {
        self.telemetry = t.clone();
        self.track = t.track("steering.service", 0);
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

    /// Component kind lookup.
    pub fn kind(&self, id: ComponentId) -> Option<ComponentKind> {
        self.kinds.get(&id).copied()
    }

    /// Send a control message to a component.
    ///
    /// # Panics
    /// Panics for unknown targets (protocol error).
    pub fn send_control(&mut self, to: ComponentId, msg: ControlMessage) {
        let kind = control_kind(&msg);
        self.control
            .get_mut(&to)
            .expect("unknown control target")
            .push_back(msg);
        self.delivered += 1;
        self.log_entry(to, kind);
    }

    /// Drain all pending control messages for a component.
    pub fn poll_control(&mut self, id: ComponentId) -> Vec<ControlMessage> {
        let msgs: Vec<ControlMessage> = self
            .control
            .get_mut(&id)
            .map(|q| q.drain(..).collect())
            .unwrap_or_default();
        self.note_consumed(id, msgs.len() as u64);
        msgs
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
            self.log_entry(id, "frame");
        }
    }

    fn log_entry(&mut self, to: ComponentId, kind: &'static str) {
        if self.log.len() == self.log_capacity {
            self.log.pop_front();
        }
        self.log.push_back(LogEntry {
            seq: self.delivered,
            to,
            kind,
        });
        self.note_enqueued(to);
        if self.telemetry.is_enabled() {
            self.track.tick(self.delivered);
            self.track.instant_at(
                "steering.message",
                self.delivered,
                vec![("kind", kind.to_string()), ("to", to.to_string())],
            );
            self.telemetry.counter("steering.messages").incr();
            self.telemetry.counter(kind_counter_name(kind)).incr();
            self.telemetry
                .probe(ProbePoint::SteeringMessage, self.delivered, f64::from(to));
        }
    }

    /// Account one message landing in `to`'s queues and export the
    /// backlog signals the stall detector consumes.
    fn note_enqueued(&mut self, to: ComponentId) {
        let flow = self.flows.entry(to).or_default();
        flow.enqueued += 1;
        let backlog = flow.enqueued - flow.consumed;
        let new_watermark = backlog > flow.watermark;
        flow.watermark = flow.watermark.max(backlog);
        let emit = new_watermark && flow.watermark >= flow.emitted.saturating_mul(2).max(1);
        if emit {
            flow.emitted = flow.watermark;
        }
        let watermark = flow.watermark;
        self.watermark = self.watermark.max(watermark);
        if self.telemetry.is_enabled() {
            self.telemetry
                .histogram("steering.client_lag", &CLIENT_LAG_BOUNDS)
                .observe(backlog as f64);
            self.telemetry
                .set_gauge("steering.backlog_watermark", self.watermark as f64);
            if emit {
                let track = self.telemetry.track("steering.client", u64::from(to));
                track.tick(self.delivered);
                track.instant_at(
                    "steering.backlog",
                    self.delivered,
                    vec![("depth", watermark.to_string())],
                );
            }
        }
    }

    /// Account `n` messages drained by client `id`.
    fn note_consumed(&mut self, id: ComponentId, n: u64) {
        if n > 0 {
            self.flows.entry(id).or_default().consumed += n;
        }
    }

    /// Messages currently queued (control + frames) for a client.
    pub fn client_backlog(&self, id: ComponentId) -> u64 {
        self.flows.get(&id).map_or(0, |f| f.enqueued - f.consumed)
    }

    /// The largest backlog this client has ever had.
    pub fn client_backlog_watermark(&self, id: ComponentId) -> u64 {
        self.flows.get(&id).map_or(0, |f| f.watermark)
    }

    /// The largest backlog any client has ever had.
    pub fn backlog_watermark(&self) -> u64 {
        self.watermark
    }

    /// The routed-message session log (bounded; newest entries kept).
    pub fn session_log(&self) -> impl Iterator<Item = &LogEntry> {
        self.log.iter()
    }

    /// Per-kind counts in the session log.
    pub fn log_summary(&self) -> Vec<(&'static str, usize)> {
        let mut counts: std::collections::BTreeMap<&'static str, usize> =
            std::collections::BTreeMap::new();
        for e in &self.log {
            *counts.entry(e.kind).or_default() += 1;
        }
        counts.into_iter().collect()
    }

    /// Pop the oldest pending frame for a component.
    pub fn next_frame(&mut self, id: ComponentId) -> Option<Frame> {
        let frame = self.frames.get_mut(&id).and_then(|q| q.pop_front());
        if frame.is_some() {
            self.note_consumed(id, 1);
        }
        frame
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
        assert_eq!(s.kind(sim), Some(ComponentKind::Simulation));

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
    fn session_log_records_and_summarizes() {
        let mut s = GridService::new();
        let sim = s.register(ComponentKind::Simulation);
        let _vis = s.register(ComponentKind::Visualizer);
        s.send_control(sim, ControlMessage::Pause);
        s.send_control(sim, ControlMessage::Resume);
        s.publish_frame(&Frame {
            step: 0,
            time_ps: 0.0,
            temperature: 0.0,
            potential: 0.0,
            steered_com_z: None,
            positions: None,
        });
        let summary = s.log_summary();
        assert!(summary.contains(&("control:Pause", 1)));
        assert!(summary.contains(&("control:Resume", 1)));
        assert!(summary.contains(&("frame", 1)));
        assert_eq!(s.session_log().count(), 3);
        // Sequence numbers strictly increase.
        let seqs: Vec<u64> = s.session_log().map(|e| e.seq).collect();
        assert!(seqs.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn session_log_is_bounded() {
        let mut s = GridService::new();
        let sim = s.register(ComponentKind::Simulation);
        for _ in 0..5000 {
            s.send_control(sim, ControlMessage::Pause);
            s.poll_control(sim);
        }
        assert_eq!(s.session_log().count(), 4096);
    }

    #[test]
    fn backlog_accounting_tracks_queue_depth() {
        let mut s = GridService::new();
        let sim = s.register(ComponentKind::Simulation);
        let cli = s.register(ComponentKind::SteeringClient);
        for _ in 0..5 {
            s.send_control(sim, ControlMessage::Pause);
        }
        assert_eq!(s.client_backlog(sim), 5);
        assert_eq!(s.client_backlog_watermark(sim), 5);
        assert_eq!(s.backlog_watermark(), 5);
        s.poll_control(sim);
        assert_eq!(s.client_backlog(sim), 0, "drain consumes the backlog");
        assert_eq!(s.client_backlog_watermark(sim), 5, "watermark is sticky");
        // Frames count against the observers' flows.
        s.publish_frame(&Frame {
            step: 0,
            time_ps: 0.0,
            temperature: 0.0,
            potential: 0.0,
            steered_com_z: None,
            positions: None,
        });
        assert_eq!(s.client_backlog(cli), 1);
        s.next_frame(cli);
        assert_eq!(s.client_backlog(cli), 0);
        assert_eq!(s.client_backlog(99), 0, "unknown clients have no backlog");
    }

    #[test]
    fn telemetry_exports_backlog_and_per_kind_counters() {
        use spice_telemetry::{MetricValue, Telemetry};
        let t = Telemetry::enabled();
        let mut s = GridService::new();
        s.set_telemetry(&t);
        let sim = s.register(ComponentKind::Simulation);
        let _vis = s.register(ComponentKind::Visualizer);
        for _ in 0..3 {
            s.send_control(sim, ControlMessage::Pause);
        }
        s.send_control(sim, ControlMessage::Resume);
        s.publish_frame(&Frame {
            step: 0,
            time_ps: 0.0,
            temperature: 0.0,
            potential: 0.0,
            steered_com_z: None,
            positions: None,
        });
        let snap = t.snapshot();
        let metric = |name: &str| {
            snap.metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(
            metric("steering.messages.control.pause"),
            Some(MetricValue::Counter(3)),
            "per-kind counters use static lowercase names"
        );
        assert_eq!(
            metric("steering.messages.control.resume"),
            Some(MetricValue::Counter(1))
        );
        assert_eq!(
            metric("steering.messages.frame"),
            Some(MetricValue::Counter(1))
        );
        assert_eq!(
            metric("steering.backlog_watermark"),
            Some(MetricValue::Gauge(4.0)),
            "sim backlog peaked at 4 queued control messages"
        );
        assert!(
            matches!(
                metric("steering.client_lag"),
                Some(MetricValue::Histogram { .. })
            ),
            "queue-depth histogram exports"
        );
        // Watermark doublings leave per-client instants: depths 1, 2, 4.
        let client_track = snap
            .tracks
            .iter()
            .find(|tr| tr.name == "steering.client" && tr.key == u64::from(sim))
            .expect("per-client track exists");
        let depths: Vec<&str> = client_track
            .events
            .iter()
            .filter(|e| e.name == "steering.backlog")
            .map(|e| e.attrs[0].1.as_str())
            .collect();
        assert_eq!(depths, ["1", "2", "4"]);
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
