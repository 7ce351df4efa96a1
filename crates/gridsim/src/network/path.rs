//! Multi-hop paths: serial composition of links.

use super::link::Link;

/// A route as an ordered sequence of links (e.g. compute node → gateway →
/// trans-Atlantic lightpath → visualization host).
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    links: Vec<Link>,
}

impl Path {
    /// A path over the given hops.
    ///
    /// # Panics
    /// Panics on an empty hop list.
    pub fn new(links: Vec<Link>) -> Self {
        assert!(!links.is_empty(), "a path needs at least one link");
        Path { links }
    }

    /// End-to-end one-way latency sample (ms) for message `n`.
    pub fn sample_latency_ms(&self, seed: u64, n: u64) -> f64 {
        self.links
            .iter()
            .enumerate()
            .map(|(h, l)| l.sample_latency_ms(seed.wrapping_add(h as u64 * 0x9E37), n))
            .sum()
    }

    /// Whether message `n` survives every hop.
    pub fn sample_delivery(&self, seed: u64, n: u64) -> bool {
        self.links
            .iter()
            .enumerate()
            .all(|(h, l)| l.sample_delivery(seed.wrapping_add(h as u64 * 0x51ED), n))
    }

    /// Effective end-to-end loss probability (independent hops).
    pub fn loss(&self) -> f64 {
        1.0 - self.links.iter().map(|l| 1.0 - l.loss).product::<f64>()
    }

    /// Bottleneck bandwidth (Mbit/s).
    pub fn bandwidth_mbps(&self) -> f64 {
        self.links
            .iter()
            .map(|l| l.bandwidth_mbps)
            .fold(f64::INFINITY, f64::min)
    }

    /// Transfer + propagation time (ms) for a message of `bytes`,
    /// sampled for message counter `n` (store-and-forward per hop is
    /// approximated by bottleneck serialization once plus summed
    /// latencies — the regime of long fat networks).
    pub fn message_time_ms(&self, bytes: u64, seed: u64, n: u64) -> f64 {
        let bits = bytes as f64 * 8.0;
        self.sample_latency_ms(seed, n) + bits / (self.bandwidth_mbps() * 1e3)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::network::link::QosProfile;

    /// Hop count of `p`.
    pub(crate) fn hops(p: &Path) -> usize {
        p.links.len()
    }

    fn two_hop() -> Path {
        Path::new(vec![
            QosProfile::Lan.link(),
            QosProfile::TransAtlanticLightpath.link(),
        ])
    }

    #[test]
    fn latency_adds_over_hops() {
        let p = two_hop();
        let single = QosProfile::TransAtlanticLightpath.link();
        // LAN adds only ~0.2 ms to the 45 ms lightpath.
        let ps = p.sample_latency_ms(1, 0);
        let ss = single.sample_latency_ms(1, 0);
        assert!(ps > ss * 0.99);
        assert!(ps < ss + 2.0);
    }

    #[test]
    fn loss_composes() {
        let a = Link {
            latency_ms: 1.0,
            jitter_ms: 0.0,
            loss: 0.1,
            bandwidth_mbps: 10.0,
            lightpath: false,
        };
        let p = Path::new(vec![a, a]);
        assert!((p.loss() - 0.19).abs() < 1e-12);
    }

    #[test]
    fn bottleneck_bandwidth() {
        let p = Path::new(vec![
            QosProfile::Lan.link(),                    // 1000
            QosProfile::TransAtlanticCommodity.link(), // 100
        ]);
        assert_eq!(p.bandwidth_mbps(), 100.0);
    }

    #[test]
    fn message_time_includes_serialization() {
        let p = two_hop();
        let small = p.message_time_ms(1_000, 4, 0);
        let large = p.message_time_ms(10_000_000, 4, 0);
        assert!(large > small + 50.0, "{small} vs {large}");
    }

    #[test]
    #[should_panic(expected = "at least one link")]
    fn empty_path_rejected() {
        Path::new(vec![]);
    }
}
