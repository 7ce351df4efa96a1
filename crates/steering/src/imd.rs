//! Interactive-MD coupling under network QoS — the T-imd experiment.
//!
//! §II: "such interactive simulations require, almost uniquely, reliable
//! bi-directional communication (…) Unreliable communication leads not
//! only to a possible loss of interactivity, but equally seriously, a
//! significant slowdown of the simulation as it stalls waiting for data
//! from the visualization."
//!
//! The model: every `steps_per_exchange` MD steps the simulation emits a
//! frame and *blocks* until the visualizer's steering packet returns
//! (the synchronous exchange of the ReG/IMD protocol). Lost packets are
//! recovered by timeout + retransmission (the TCP picture at the message
//! level). The slowdown of the 256-processor simulation is then
//! `1 + stall/compute` — directly comparable between lightpath and
//! commodity network profiles.

use serde::{Deserialize, Serialize};
use spice_gridsim::network::Path;
use spice_telemetry::Telemetry;

/// Configuration of one coupled interactive session.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct ImdConfig {
    /// Wall-clock per MD step on the allocated processors (ms).
    pub step_wall_ms: f64,
    /// MD steps between synchronous exchanges.
    pub steps_per_exchange: u64,
    /// Number of exchanges to simulate.
    pub n_exchanges: u64,
    /// Outbound frame size (bytes).
    pub frame_bytes: u64,
    /// Return steering-packet size (bytes).
    pub force_bytes: u64,
    /// Visualizer processing time per frame (ms).
    pub vis_render_ms: f64,
    /// Retransmission timeout for a lost message (ms).
    pub rto_ms: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ImdConfig {
    fn default() -> Self {
        ImdConfig {
            step_wall_ms: 10.0,
            steps_per_exchange: 10,
            n_exchanges: 500,
            frame_bytes: 200_000,
            force_bytes: 512,
            vis_render_ms: 15.0,
            rto_ms: 200.0,
            seed: 1,
        }
    }
}

/// Result of one session.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq)]
pub struct ImdStats {
    /// Pure compute wall time (ms).
    pub compute_ms: f64,
    /// Total time the simulation sat blocked on the network (ms).
    pub stall_ms: f64,
    /// Messages retransmitted after loss.
    pub retransmits: u64,
    /// Exchanges completed.
    pub exchanges: u64,
    /// Mean exchange round-trip (ms), including render time.
    pub mean_rtt_ms: f64,
}

impl ImdStats {
    /// Slowdown factor ≥ 1 relative to an uncoupled run.
    pub fn slowdown(&self) -> f64 {
        if self.compute_ms <= 0.0 {
            return f64::NAN;
        }
        (self.compute_ms + self.stall_ms) / self.compute_ms
    }
}

/// One-way delivery with timeout/retransmit; returns `(elapsed_ms,
/// retransmits)`.
fn deliver(path: &Path, bytes: u64, rto_ms: f64, seed: u64, msg: &mut u64) -> (f64, u64) {
    let mut elapsed = 0.0;
    let mut tries = 0u64;
    loop {
        let n = *msg;
        *msg += 1;
        if path.sample_delivery(seed, n) {
            elapsed += path.message_time_ms(bytes, seed, n);
            return (elapsed, tries);
        }
        // Lost: sender notices after the timeout and retransmits.
        elapsed += rto_ms;
        tries += 1;
        if tries > 1000 {
            // Pathological loss: give up counting further (keeps the
            // simulation total finite).
            return (elapsed, tries);
        }
    }
}

/// Simulate a coupled session over `out` (sim → vis) and `back`
/// (vis → sim) network paths.
///
/// An enabled `t` also records the session: every completed exchange
/// becomes a `steering.exchange` instant on the
/// `("steering.session", key)` track, stamped with the session's
/// cumulative wall-clock milliseconds (compute + stall) as the logical
/// clock and annotated with that exchange's round-trip and retransmit
/// count. The inter-arrival gaps of those instants are exactly the
/// cadence signal the `spice-obs` stall detector consumes: steady on the
/// lightpath profile, retransmit-inflated on commodity IP. The
/// `steering.exchanges` / `steering.retransmits` counters are bumped too.
/// The simulated statistics are bit-identical either way.
pub fn simulate_session(
    cfg: &ImdConfig,
    out: &Path,
    back: &Path,
    t: &Telemetry,
    key: u64,
) -> ImdStats {
    let track = t.track("steering.session", key);
    let mut stall = 0.0;
    let mut retransmits = 0;
    let mut rtt_sum = 0.0;
    let mut msg_out = 0u64;
    let mut msg_back = 0u64;
    let compute_per_exchange = cfg.step_wall_ms * cfg.steps_per_exchange as f64;
    for i in 0..cfg.n_exchanges {
        let (t_out, r_out) = deliver(out, cfg.frame_bytes, cfg.rto_ms, cfg.seed, &mut msg_out);
        let (t_back, r_back) = deliver(
            back,
            cfg.force_bytes,
            cfg.rto_ms,
            cfg.seed ^ 0xBACC,
            &mut msg_back,
        );
        let rtt = t_out + cfg.vis_render_ms + t_back;
        stall += rtt;
        rtt_sum += rtt;
        retransmits += r_out + r_back;
        if t.is_enabled() {
            let wall_ms = compute_per_exchange * (i + 1) as f64 + stall;
            track.instant_at(
                "steering.exchange",
                wall_ms.round() as u64,
                vec![
                    ("rtt_ms", format!("{rtt:.3}")),
                    ("retransmits", (r_out + r_back).to_string()),
                ],
            );
        }
    }
    if t.is_enabled() {
        t.counter("steering.exchanges").add(cfg.n_exchanges);
        t.counter("steering.retransmits").add(retransmits);
    }
    let compute = compute_per_exchange * cfg.n_exchanges as f64;
    ImdStats {
        compute_ms: compute,
        stall_ms: stall,
        retransmits,
        exchanges: cfg.n_exchanges,
        mean_rtt_ms: rtt_sum / cfg.n_exchanges as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spice_gridsim::network::QosProfile;

    fn path(p: QosProfile) -> Path {
        Path::new(vec![p.link()])
    }

    #[test]
    fn lightpath_keeps_slowdown_small() {
        let cfg = ImdConfig::default();
        let lp = path(QosProfile::TransAtlanticLightpath);
        let stats = simulate_session(&cfg, &lp, &lp, &Telemetry::disabled(), 0);
        assert!(
            stats.slowdown() < 2.1,
            "lightpath slowdown {} should stay near 1–2 for 100 ms compute bursts",
            stats.slowdown()
        );
        assert_eq!(stats.retransmits, 0, "lossless link");
    }

    #[test]
    fn commodity_network_slows_more_than_lightpath() {
        let cfg = ImdConfig::default();
        let lp = path(QosProfile::TransAtlanticLightpath);
        let gp = path(QosProfile::TransAtlanticCommodity);
        let s_lp = simulate_session(&cfg, &lp, &lp, &Telemetry::disabled(), 0);
        let s_gp = simulate_session(&cfg, &gp, &gp, &Telemetry::disabled(), 0);
        assert!(
            s_gp.slowdown() > s_lp.slowdown(),
            "commodity {} vs lightpath {}",
            s_gp.slowdown(),
            s_lp.slowdown()
        );
        assert!(s_gp.retransmits > 0, "commodity loss must bite");
    }

    #[test]
    fn loss_drives_stalls_via_timeouts() {
        let mut lossy_link = QosProfile::TransAtlanticCommodity.link();
        lossy_link.loss = 0.2;
        let lossy = Path::new(vec![lossy_link]);
        let clean = path(QosProfile::TransAtlanticLightpath);
        let cfg = ImdConfig::default();
        let s_lossy = simulate_session(&cfg, &lossy, &lossy, &Telemetry::disabled(), 0);
        let s_clean = simulate_session(&cfg, &clean, &clean, &Telemetry::disabled(), 0);
        assert!(s_lossy.stall_ms > 2.0 * s_clean.stall_ms);
    }

    #[test]
    fn slowdown_definition() {
        let s = ImdStats {
            compute_ms: 100.0,
            stall_ms: 50.0,
            retransmits: 0,
            exchanges: 10,
            mean_rtt_ms: 5.0,
        };
        assert!((s.slowdown() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = ImdConfig::default();
        let p = path(QosProfile::TransAtlanticCommodity);
        let a = simulate_session(&cfg, &p, &p, &Telemetry::disabled(), 0);
        let b = simulate_session(&cfg, &p, &p, &Telemetry::disabled(), 0);
        assert_eq!(a, b);
        let mut cfg2 = cfg.clone();
        cfg2.seed = 2;
        let c = simulate_session(&cfg2, &p, &p, &Telemetry::disabled(), 0);
        assert_ne!(a.stall_ms, c.stall_ms);
    }

    #[test]
    fn traced_session_matches_untraced_bit_for_bit() {
        let cfg = ImdConfig::default();
        let p = path(QosProfile::TransAtlanticCommodity);
        let t = Telemetry::enabled();
        let traced = simulate_session(&cfg, &p, &p, &t, 7);
        let plain = simulate_session(&cfg, &p, &p, &Telemetry::disabled(), 0);
        assert_eq!(traced, plain);

        let snap = t.snapshot();
        let track = snap
            .tracks
            .iter()
            .find(|tr| tr.name == "steering.session" && tr.key == 7)
            .expect("session track exists");
        let instants: Vec<u64> = track
            .events
            .iter()
            .filter(|e| e.name == "steering.exchange")
            .map(|e| e.logical)
            .collect();
        assert_eq!(instants.len(), cfg.n_exchanges as usize);
        assert!(
            instants.windows(2).all(|w| w[1] > w[0]),
            "exchange stamps strictly increase"
        );
        let exchanges = snap
            .metrics
            .iter()
            .find(|(n, _)| n == "steering.exchanges")
            .map(|(_, v)| v.clone());
        assert_eq!(
            exchanges,
            Some(spice_telemetry::MetricValue::Counter(cfg.n_exchanges))
        );
    }

    #[test]
    fn faster_exchange_cadence_amplifies_network_sensitivity() {
        // Exchanging every step (fine-grained interactivity) stalls more
        // than exchanging every 100 steps, relative to compute.
        let p = path(QosProfile::TransAtlanticCommodity);
        let fine = ImdConfig {
            steps_per_exchange: 1,
            ..ImdConfig::default()
        };
        let coarse = ImdConfig {
            steps_per_exchange: 100,
            ..ImdConfig::default()
        };
        let s_fine = simulate_session(&fine, &p, &p, &Telemetry::disabled(), 0);
        let s_coarse = simulate_session(&coarse, &p, &p, &Telemetry::disabled(), 0);
        assert!(s_fine.slowdown() > s_coarse.slowdown());
    }
}
