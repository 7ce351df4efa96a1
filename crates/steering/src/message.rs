//! The steering protocol.

use serde::{Deserialize, Serialize};
use spice_md::Vec3;

/// Control messages flowing *toward* a simulation (from steering clients
/// or, via the direct channel, from the visualizer).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ControlMessage {
    /// Suspend integration (the simulation holds at its emit point).
    Pause,
    /// Resume integration.
    Resume,
    /// Terminate the run cleanly.
    Stop,
    /// Change a named steerable parameter.
    SetParam {
        /// Parameter name (e.g. "target_temperature").
        name: String,
        /// New value.
        value: f64,
    },
    /// Capture a checkpoint under the given label (§III).
    Checkpoint {
        /// Label for later retrieval / cloning.
        label: String,
    },
    /// Apply an interactive steering force to a group of atoms until the
    /// next emit point (IMD).
    ApplyForce {
        /// Target atom indices.
        atoms: Vec<usize>,
        /// Force per atom (kcal mol⁻¹ Å⁻¹).
        force: Vec3,
    },
    /// Ask the simulation to publish a full-detail frame next emit.
    RequestFrame,
}

/// A published data frame (simulation → visualizer / clients).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Frame {
    /// Step at which the frame was emitted.
    pub step: u64,
    /// Simulation time (ps).
    pub time_ps: f64,
    /// Instantaneous temperature (K).
    pub temperature: f64,
    /// Total potential energy (kcal/mol).
    pub potential: f64,
    /// COM z of the steered group (Å), if one is defined.
    pub steered_com_z: Option<f64>,
    /// Full coordinates — only when detail was requested (frames are
    /// otherwise kept light for the wide-area link).
    pub positions: Option<Vec<Vec3>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_messages_roundtrip_json() {
        let msgs = vec![
            ControlMessage::Pause,
            ControlMessage::SetParam {
                name: "kappa".into(),
                value: 1.44,
            },
            ControlMessage::ApplyForce {
                atoms: vec![0, 3],
                force: Vec3::new(0.0, 0.0, 5.0),
            },
            ControlMessage::Checkpoint {
                label: "pre-pull".into(),
            },
        ];
        for m in msgs {
            let s = serde_json::to_string(&m).unwrap();
            let back: ControlMessage = serde_json::from_str(&s).unwrap();
            assert_eq!(m, back);
        }
    }
}
