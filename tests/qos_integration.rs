//! Cross-crate network/QoS integration: the paper's §II argument chain,
//! end-to-end — interactivity needs processors AND network quality, and
//! the hidden-IP/gateway/TCP models compose.

use spice::core::costing::CostModel;
use spice::gridsim::hidden_ip::{connect_inbound, effective_path, Gateway, Protocol};
use spice::gridsim::network::tcp::{mathis_throughput_mbps, DEFAULT_MSS};
use spice::gridsim::network::{Path, QosProfile};
use spice::gridsim::resource::paper_federation_sites;
use spice::steering::imd::{simulate_session, ImdConfig};
use spice::telemetry::Telemetry;

/// The full §II chain: a 300k-atom simulation on 256 procs, coupled over
/// each network profile — lightpath keeps the session interactive,
/// commodity degrades it, and the degradation is monotone in every QoS
/// knob.
#[test]
fn interactivity_argument_chain() {
    let cost = CostModel::paper();
    let cfg = ImdConfig {
        step_wall_ms: cost.step_wall_ms(256),
        steps_per_exchange: 10,
        n_exchanges: 300,
        seed: 7,
        ..ImdConfig::default()
    };
    let run = |p: QosProfile| {
        let path = Path::new(vec![p.link()]);
        simulate_session(&cfg, &path, &path, &Telemetry::disabled(), 0)
    };
    let lan = run(QosProfile::Lan);
    let lp = run(QosProfile::TransAtlanticLightpath);
    let gp = run(QosProfile::TransAtlanticCommodity);
    assert!(lan.slowdown() < lp.slowdown());
    assert!(lp.slowdown() < gp.slowdown());
    // The lightpath session stays near-interactive: ≥ 0.8 Hz updates.
    let frame_rate_hz = lp.exchanges as f64 / ((lp.compute_ms + lp.stall_ms) / 1e3);
    assert!(
        frame_rate_hz > 0.8,
        "lightpath frame rate {frame_rate_hz:.2} Hz"
    );
}

/// Gateway-routed IMD: a coupled session through PSC's gateway under load
/// is strictly worse than a direct lightpath session — the paper's
/// "routing multiple processes through … gateway nodes can present a
/// bottleneck".
#[test]
fn gateway_routed_imd_is_worse_under_load() {
    let cost = CostModel::paper();
    let cfg = ImdConfig {
        step_wall_ms: cost.step_wall_ms(256),
        steps_per_exchange: 10,
        n_exchanges: 200,
        frame_bytes: 2_000_000, // detail frames make bandwidth matter
        seed: 11,
        ..ImdConfig::default()
    };
    let base = QosProfile::TransAtlanticLightpath.link();
    let direct = Path::new(vec![base]);
    let gw = Gateway::psc();
    let routed_loaded = effective_path(base, Some((&gw, 128)));
    let off = Telemetry::disabled();
    let s_direct = simulate_session(&cfg, &direct, &direct, &off, 0);
    let s_routed = simulate_session(&cfg, &routed_loaded, &routed_loaded, &off, 0);
    assert!(
        s_routed.slowdown() > s_direct.slowdown() * 1.2,
        "loaded gateway {} vs direct {}",
        s_routed.slowdown(),
        s_direct.slowdown()
    );
}

/// Addressability × protocol matrix over the real federation: the set of
/// sites usable for coupled (bidirectional UDP-or-TCP) runs matches the
/// paper's §V-C account.
#[test]
fn usable_sites_for_coupled_runs() {
    let sites = paper_federation_sites();
    let gw = Gateway::psc();
    let tcp_usable: Vec<&str> = sites
        .iter()
        .filter(|s| {
            let gateway = if s.has_gateway { Some(&gw) } else { None };
            connect_inbound(s, gateway, Protocol::Tcp).is_ok()
        })
        .map(|s| s.name.as_str())
        .collect();
    assert_eq!(
        tcp_usable,
        vec!["NCSA", "SDSC", "PSC", "NGS-Oxford", "NGS-Leeds"],
        "HPCx is the unusable hidden-IP site"
    );
    let udp_usable = sites
        .iter()
        .filter(|s| {
            let gateway = if s.has_gateway { Some(&gw) } else { None };
            connect_inbound(s, gateway, Protocol::Udp).is_ok()
        })
        .count();
    assert_eq!(udp_usable, 4, "PSC additionally drops out for UDP traffic");
}

/// TCP reality check: a smooth interactive frame stream (≈200 kB ×
/// 10 Hz ≈ 16 Mbit/s) fits easily in a single lightpath flow but needs
/// many parallel flows on the lossy commodity path — the GridFTP-era
/// workaround the lightpath makes unnecessary.
#[test]
fn frame_stream_vs_tcp_ceiling() {
    let needed_mbps = 200_000.0 * 8.0 * 10.0 / 1e6; // 10 frames/s
    let lp = QosProfile::TransAtlanticLightpath.link();
    let gp = QosProfile::TransAtlanticCommodity.link();
    // Lightpath single-flow ceiling (~160 Mbit/s at 90 ms RTT, 1e-6
    // loss) clears the 16 Mbit/s stream with wide margin.
    assert!(mathis_throughput_mbps(&lp, DEFAULT_MSS) > 5.0 * needed_mbps);
    let flows = (needed_mbps / mathis_throughput_mbps(&gp, DEFAULT_MSS)).ceil();
    assert!(
        flows >= 5.0,
        "commodity path should need many parallel flows for the frame stream: {flows}"
    );
}
