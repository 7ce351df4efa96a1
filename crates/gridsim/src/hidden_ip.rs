//! The hidden-IP problem and gateway bridging (§V-C-1).
//!
//! "internal nodes of the compute resources are not network addressable
//! (…) This poses a problem for example, when the master process — which
//! may be running on a node which is not visible to the 'external' world
//! — is required to communicate with a visualization process running on a
//! different machine."
//!
//! PSC's mitigation (qsocket library + Access Gateway Nodes) is modeled
//! faithfully: hidden nodes *can* reach out through a gateway, but (a)
//! only TCP is supported, (b) all routed streams share the few gateway
//! nodes, which become a bandwidth bottleneck as stream count grows.

use crate::network::{Link, Path};
use crate::resource::Site;
use serde::{Deserialize, Serialize};

/// Transport protocol of a desired connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Protocol {
    /// Reliable stream (supported through gateways).
    Tcp,
    /// Datagram (the paper: gateways do "not support UDP-based traffic").
    Udp,
}

/// Why a connection cannot be established.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConnectError {
    /// Target site's compute nodes are not addressable and no gateway
    /// exists.
    HiddenNoGateway,
    /// A gateway exists but the protocol is unsupported (UDP).
    GatewayNoUdp,
}

/// A gateway installation at a site.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq)]
pub struct Gateway {
    /// Number of gateway nodes ("routing multiple processes through
    /// single, or even a few, gateway nodes can present a bottleneck").
    pub nodes: u32,
    /// Per-gateway-node forwarding bandwidth (Mbit/s).
    pub node_bandwidth_mbps: f64,
    /// Extra per-hop forwarding latency (ms).
    pub forward_latency_ms: f64,
}

impl Gateway {
    /// PSC's Access Gateway Node installation (a few nodes).
    pub fn psc() -> Self {
        Gateway {
            nodes: 2,
            node_bandwidth_mbps: 400.0,
            forward_latency_ms: 0.5,
        }
    }

    /// Effective per-stream bandwidth when `streams` concurrent streams
    /// are routed through the installation (fair sharing).
    pub fn per_stream_bandwidth(&self, streams: u32) -> f64 {
        if streams == 0 {
            return self.node_bandwidth_mbps;
        }
        let total = self.node_bandwidth_mbps * self.nodes as f64;
        total / streams as f64
    }
}

/// Check whether an *external* peer can open a connection to a compute
/// node at `site`, and if so, whether it must be gateway-routed.
pub fn connect_inbound(
    site: &Site,
    gateway: Option<&Gateway>,
    protocol: Protocol,
) -> Result<bool, ConnectError> {
    if !site.hidden_ip {
        return Ok(false); // directly addressable
    }
    match gateway {
        None => Err(ConnectError::HiddenNoGateway),
        Some(_) if protocol == Protocol::Udp => Err(ConnectError::GatewayNoUdp),
        Some(_) => Ok(true), // routable via gateway
    }
}

/// Connectivity a steering-coupled job gets at `site`: `Ok(None)` means
/// the external steering host can reach the master process directly,
/// `Ok(Some(gateway))` means the connection must be routed through the
/// site's gateway installation (and is therefore exposed to gateway
/// connection drops), `Err` means the site cannot host coupled runs at
/// all — the §V-C-2 situation that made HPCx unusable for them.
pub fn steering_connectivity(site: &Site) -> Result<Option<Gateway>, ConnectError> {
    let gateway = if site.has_gateway {
        Some(Gateway::psc())
    } else {
        None
    };
    connect_inbound(site, gateway.as_ref(), Protocol::Tcp).map(
        |routed| {
            if routed {
                gateway
            } else {
                None
            }
        },
    )
}

/// Build the effective network path for a (possibly gateway-routed)
/// connection: `base` is the site-to-peer wide-area link; when routed,
/// the gateway hop is prepended and the shared-gateway bandwidth cap
/// applied for the current stream count.
pub fn effective_path(base: Link, routed: Option<(&Gateway, u32)>) -> Path {
    match routed {
        None => Path::new(vec![base]),
        Some((gw, streams)) => {
            let gw_link = Link {
                latency_ms: gw.forward_latency_ms,
                jitter_ms: 0.05,
                loss: 1e-7,
                bandwidth_mbps: gw.per_stream_bandwidth(streams.max(1)),
                lightpath: false,
            };
            Path::new(vec![gw_link, base])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::path::tests::hops;
    use crate::network::QosProfile;
    use crate::resource::paper_federation_sites;

    fn site(name: &str) -> Site {
        paper_federation_sites()
            .into_iter()
            .find(|s| s.name == name)
            .unwrap()
    }

    #[test]
    fn public_sites_connect_directly() {
        let ncsa = site("NCSA");
        assert_eq!(connect_inbound(&ncsa, None, Protocol::Tcp), Ok(false));
        assert_eq!(connect_inbound(&ncsa, None, Protocol::Udp), Ok(false));
    }

    #[test]
    fn hidden_without_gateway_fails() {
        let hpcx = site("HPCx");
        assert_eq!(
            connect_inbound(&hpcx, None, Protocol::Tcp),
            Err(ConnectError::HiddenNoGateway)
        );
    }

    #[test]
    fn psc_gateway_allows_tcp_but_not_udp() {
        let psc = site("PSC");
        let gw = Gateway::psc();
        assert_eq!(connect_inbound(&psc, Some(&gw), Protocol::Tcp), Ok(true));
        assert_eq!(
            connect_inbound(&psc, Some(&gw), Protocol::Udp),
            Err(ConnectError::GatewayNoUdp)
        );
    }

    #[test]
    fn gateway_bandwidth_degrades_with_streams() {
        let gw = Gateway::psc();
        let one = gw.per_stream_bandwidth(1);
        let many = gw.per_stream_bandwidth(64);
        assert!(one > many);
        assert!((many - gw.node_bandwidth_mbps * 2.0 / 64.0).abs() < 1e-9);
    }

    #[test]
    fn routed_path_has_extra_hop_and_bottleneck() {
        let base = QosProfile::TransAtlanticLightpath.link();
        let gw = Gateway::psc();
        let direct = effective_path(base, None);
        let routed = effective_path(base, Some((&gw, 64)));
        assert_eq!(hops(&direct), 1);
        assert_eq!(hops(&routed), 2);
        assert!(
            routed.bandwidth_mbps() < direct.bandwidth_mbps(),
            "gateway must be the bottleneck under load"
        );
    }

    #[test]
    fn steering_connectivity_matches_site_topology() {
        // NCSA: public nodes — direct connection, no gateway exposure.
        assert_eq!(steering_connectivity(&site("NCSA")), Ok(None));
        // PSC: hidden IPs bridged by AGN — routed, drop-exposed.
        match steering_connectivity(&site("PSC")) {
            Ok(Some(gw)) => assert_eq!(gw, Gateway::psc()),
            other => panic!("PSC must be gateway-routed, got {other:?}"),
        }
        // HPCx: hidden, no gateway — coupled runs infeasible.
        assert_eq!(
            steering_connectivity(&site("HPCx")),
            Err(ConnectError::HiddenNoGateway)
        );
    }

    #[test]
    fn zero_streams_edge_case() {
        let gw = Gateway::psc();
        assert_eq!(gw.per_stream_bandwidth(0), gw.node_bandwidth_mbps);
    }
}
