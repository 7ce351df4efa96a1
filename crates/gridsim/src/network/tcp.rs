//! TCP macroscopic throughput over long fat networks — the quantitative
//! version of why the paper needed lightpaths rather than "a general
//! purpose network".
//!
//! The Mathis model: a single standard TCP flow sustains at most
//! `throughput ≈ MSS / (RTT · √loss)` — on a trans-Atlantic RTT, even
//! 0.1% loss caps a flow far below what the paper's frame streams need.
//! Dedicated lightpaths escape by driving loss to ~0.

use super::link::Link;

/// Maximum segment size used by 2005-era stacks (bytes).
pub const DEFAULT_MSS: u64 = 1460;

/// Mathis et al. steady-state TCP throughput (Mbit/s) for one flow over a
/// link, capped by the link bandwidth. `C ≈ √(3/2)` for periodic loss.
pub fn mathis_throughput_mbps(link: &Link, mss_bytes: u64) -> f64 {
    let rtt_s = 2.0 * link.latency_ms / 1e3;
    if link.loss <= 0.0 {
        return link.bandwidth_mbps;
    }
    let c = (1.5f64).sqrt();
    let bytes_per_s = c * mss_bytes as f64 / (rtt_s * link.loss.sqrt());
    (bytes_per_s * 8.0 / 1e6).min(link.bandwidth_mbps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::QosProfile;

    #[test]
    fn lossless_lightpath_hits_line_rate() {
        let mut lp = QosProfile::TransAtlanticLightpath.link();
        lp.loss = 0.0;
        assert_eq!(mathis_throughput_mbps(&lp, DEFAULT_MSS), lp.bandwidth_mbps);
    }

    #[test]
    fn commodity_loss_craters_throughput() {
        let gp = QosProfile::TransAtlanticCommodity.link();
        // RTT 110 ms, loss 0.5%: Mathis ≈ 1.2 Mbit/s — two orders below
        // the 100 Mbit/s line rate.
        let t = mathis_throughput_mbps(&gp, DEFAULT_MSS);
        assert!(t < 2.0, "got {t} Mbit/s");
        assert!(t > 0.5);
    }

    #[test]
    fn lightpath_vs_commodity_gap_is_large() {
        let lp = QosProfile::TransAtlanticLightpath.link();
        let gp = QosProfile::TransAtlanticCommodity.link();
        let ratio =
            mathis_throughput_mbps(&lp, DEFAULT_MSS) / mathis_throughput_mbps(&gp, DEFAULT_MSS);
        assert!(
            ratio > 50.0,
            "the paper's QoS argument: lightpath/commodity ratio {ratio:.0}"
        );
    }

    #[test]
    fn throughput_decreases_with_loss_and_rtt() {
        let mut a = QosProfile::TransAtlanticCommodity.link();
        let base = mathis_throughput_mbps(&a, DEFAULT_MSS);
        a.loss *= 4.0;
        let lossy = mathis_throughput_mbps(&a, DEFAULT_MSS);
        assert!((lossy - base / 2.0).abs() < 0.05 * base, "√loss scaling");
        let mut b = QosProfile::TransAtlanticCommodity.link();
        b.latency_ms *= 2.0;
        assert!((mathis_throughput_mbps(&b, DEFAULT_MSS) - base / 2.0).abs() < 0.05 * base);
    }
}
