//! # spice-steering
//!
//! A RealityGrid-style computational steering framework (Fig. 2): the
//! grid middleware layer that couples running simulations, visualizers,
//! steering clients and haptic devices "within the same framework".
//!
//! Architecture (mirroring Fig. 2a):
//!
//! ```text
//!  steering client ──┐
//!                    ├──▶ grid service (registry + routed queues) ◀──▶ simulation
//!  visualizer ───────┘         ▲                                        (sim-side
//!        └─────────────────────┴──── direct vis → sim channel           library =
//!                                     (dotted arrows in Fig. 2a)        StepHook)
//! ```
//!
//! * [`message`] — the steering protocol: control verbs (pause/resume,
//!   set-parameter, checkpoint, clone, stop), IMD force injection, and
//!   published data frames.
//! * [`service`] — the intermediate grid service: component registry,
//!   per-component routed message queues and the checkpoint store.
//! * [`client`] — the scientist's steering API.
//! * [`sim_side`] — the client-side library embedded in the MD code, as a
//!   `spice_md::StepHook` attached at "emit points" — the paper's
//!   grid-enablement without refactoring (§V-B).
//! * [`visualizer`] — consumes frames, turns user/haptic input into
//!   steering forces (the visualizer-as-steerer of §II).
//! * [`haptic`] — the haptic device model (§III: force estimates and
//!   constraint discovery).
//! * [`imd`] — the coupled interactive-MD loop simulator used for the
//!   QoS study (T-imd): stall and slowdown of a blocking bidirectional
//!   exchange under latency/jitter/loss, lightpath vs commodity network.
//!   [`simulate_session`] takes the telemetry handle and the track key
//!   its exchanges land on; `Telemetry::disabled()` runs it untraced.

#![warn(missing_docs)]

pub mod client;
pub mod haptic;
pub mod imd;
pub mod message;
pub mod service;
pub mod sim_side;
pub mod visualizer;

pub use client::SteeringClient;
pub use haptic::HapticDevice;
pub use imd::{simulate_session, ImdConfig, ImdStats};
pub use message::{ControlMessage, Frame};
pub use service::{ComponentId, GridService, SharedService};
pub use sim_side::SteeringHook;
pub use visualizer::Visualizer;
