//! Single-link QoS model.

use serde::{Deserialize, Serialize};
use spice_stats::rng::seed_stream;

/// A point-to-point network link with stochastic QoS.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq)]
pub struct Link {
    /// Base one-way latency (ms).
    pub latency_ms: f64,
    /// Jitter: standard deviation of the latency (ms), sampled from a
    /// truncated Gaussian (latency never below 50% of base).
    pub jitter_ms: f64,
    /// Independent per-packet loss probability.
    pub loss: f64,
    /// Usable bandwidth (Mbit/s).
    pub bandwidth_mbps: f64,
    /// Whether this is a dedicated lightpath (diagnostics only).
    pub lightpath: bool,
}

/// Named QoS profiles from the paper's setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QosProfile {
    /// Dedicated trans-Atlantic optical lightpath (UKLight/GLIF):
    /// deterministic propagation delay, negligible jitter and loss,
    /// 1 Gbit/s provisioned.
    TransAtlanticLightpath,
    /// General-purpose production internet across the Atlantic in 2005:
    /// similar propagation delay but queueing jitter and real loss.
    TransAtlanticCommodity,
    /// Campus/metro LAN between co-located resources.
    Lan,
}

impl QosProfile {
    /// The link parameters of this profile.
    pub fn link(self) -> Link {
        match self {
            QosProfile::TransAtlanticLightpath => Link {
                latency_ms: 45.0,
                jitter_ms: 0.1,
                loss: 1e-6,
                bandwidth_mbps: 1000.0,
                lightpath: true,
            },
            QosProfile::TransAtlanticCommodity => Link {
                latency_ms: 55.0,
                jitter_ms: 15.0,
                loss: 0.005,
                bandwidth_mbps: 100.0,
                lightpath: false,
            },
            QosProfile::Lan => Link {
                latency_ms: 0.2,
                jitter_ms: 0.02,
                loss: 1e-7,
                bandwidth_mbps: 1000.0,
                lightpath: false,
            },
        }
    }
}

impl Link {
    /// Sample the one-way latency (ms) of packet `n` on stream `seed`.
    pub fn sample_latency_ms(&self, seed: u64, n: u64) -> f64 {
        // Two uniforms → Box-Muller normal for the jitter term.
        let u1 = (seed_stream(seed, 2 * n) >> 11) as f64 / (1u64 << 53) as f64;
        let u2 = (seed_stream(seed, 2 * n + 1) >> 11) as f64 / (1u64 << 53) as f64;
        let z = (-2.0 * (u1.max(1e-300)).ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (self.latency_ms + self.jitter_ms * z).max(self.latency_ms * 0.5)
    }

    /// Whether packet `n` is delivered (true) or lost (false).
    pub fn sample_delivery(&self, seed: u64, n: u64) -> bool {
        let u = (seed_stream(seed ^ 0xDEAD_BEEF, n) >> 11) as f64 / (1u64 << 53) as f64;
        u >= self.loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spice_stats::RunningStats;

    #[test]
    fn lightpath_beats_commodity_on_every_metric() {
        let lp = QosProfile::TransAtlanticLightpath.link();
        let gp = QosProfile::TransAtlanticCommodity.link();
        assert!(lp.jitter_ms < gp.jitter_ms);
        assert!(lp.loss < gp.loss);
        assert!(lp.bandwidth_mbps > gp.bandwidth_mbps);
        assert!(lp.lightpath && !gp.lightpath);
    }

    #[test]
    fn latency_sampling_statistics() {
        let link = QosProfile::TransAtlanticCommodity.link();
        let mut rs = RunningStats::new();
        for n in 0..50_000 {
            rs.push(link.sample_latency_ms(1, n));
        }
        assert!(
            (rs.mean() - link.latency_ms).abs() < 1.0,
            "mean {}",
            rs.mean()
        );
        // Truncation slightly shrinks the std; allow 20%.
        assert!(
            (rs.std_dev() - link.jitter_ms).abs() < 0.2 * link.jitter_ms,
            "std {}",
            rs.std_dev()
        );
    }

    #[test]
    fn latency_never_collapses() {
        let link = Link {
            latency_ms: 10.0,
            jitter_ms: 50.0,
            loss: 0.0,
            bandwidth_mbps: 1.0,
            lightpath: false,
        };
        for n in 0..10_000 {
            assert!(link.sample_latency_ms(2, n) >= 5.0);
        }
    }

    #[test]
    fn loss_rate_matches_configuration() {
        let link = Link {
            latency_ms: 1.0,
            jitter_ms: 0.0,
            loss: 0.05,
            bandwidth_mbps: 1.0,
            lightpath: false,
        };
        let delivered =
            (0..100_000).filter(|&n| link.sample_delivery(3, n)).count() as f64 / 100_000.0;
        assert!(
            (delivered - 0.95).abs() < 0.005,
            "delivery rate {delivered}"
        );
    }

    #[test]
    fn sampling_deterministic() {
        let link = QosProfile::TransAtlanticCommodity.link();
        assert_eq!(link.sample_latency_ms(9, 4), link.sample_latency_ms(9, 4));
        assert_ne!(link.sample_latency_ms(9, 4), link.sample_latency_ms(9, 5));
    }
}
