//! The §II/III stalling phenomenon, end to end: an interactive MD
//! session steered over a dedicated lightpath holds its exchange
//! cadence, while the *same load* over commodity IP stalls on
//! retransmission timeouts — and the stall detector separates the two
//! from the trace alone.

use spice_gridsim::network::{Path, QosProfile};
use spice_obs::{detect, StallConfig, TraceModel};
use spice_steering::{simulate_session, ImdConfig};
use spice_telemetry::Telemetry;

/// Run one traced session over `profile` and return the trace model
/// plus the session's retransmit count.
fn traced_session(profile: QosProfile, key: u64) -> (TraceModel, u64) {
    let t = Telemetry::enabled();
    let path = Path::new(vec![profile.link()]);
    let cfg = ImdConfig::default();
    let stats = simulate_session(&cfg, &path, &path, &t, key);
    (TraceModel::from_snapshot(&t.snapshot()), stats.retransmits)
}

#[test]
fn detector_fires_on_commodity_and_stays_silent_on_lightpath() {
    let cfg = StallConfig::default();

    // Dedicated lightpath: no loss, sub-millisecond jitter — every
    // exchange lands a steady ~250 ms apart and no window opens.
    let (lightpath, lp_retrans) = traced_session(QosProfile::TransAtlanticLightpath, 0);
    let lp = detect(&lightpath, &cfg);
    assert_eq!(lp_retrans, 0, "lightpath profile must be loss-free");
    assert_eq!(lp.tracks.len(), 1);
    assert_eq!(lp.tracks[0].n_events, 500);
    assert!(
        lp.total_windows() == 0,
        "stall detector fired on the lightpath profile: {:?}",
        lp.tracks[0].windows
    );

    // Commodity IP at the identical load: each lost message costs a
    // 200 ms retransmission timeout, roughly doubling that exchange's
    // gap — the detector must open a window per loss burst.
    let (commodity, gp_retrans) = traced_session(QosProfile::TransAtlanticCommodity, 1);
    let gp = detect(&commodity, &cfg);
    assert!(gp_retrans > 0, "commodity profile produced no losses");
    assert_eq!(gp.tracks.len(), 1);
    assert_eq!(gp.tracks[0].n_events, 500);
    assert!(
        gp.total_windows() > 0,
        "stall detector missed {gp_retrans} retransmits on commodity IP"
    );

    // Every flagged window really is cadence-breaking: gap strictly
    // above k × the observed median.
    for w in &gp.tracks[0].windows {
        assert!(w.ratio > cfg.k, "window {w:?} below threshold");
        assert!(w.end > w.start);
    }
    // The worst gap carries at least one full retransmission timeout on
    // top of the nominal ~250 ms exchange (100 ms compute + ~115 ms
    // lossless round-trip + 15 ms render).
    assert!(
        gp.tracks[0].max_gap >= 400,
        "max gap {} ms is too small to contain an RTO",
        gp.tracks[0].max_gap
    );
}

#[test]
fn detection_is_deterministic_across_reruns() {
    let cfg = StallConfig::default();
    let (a, _) = traced_session(QosProfile::TransAtlanticCommodity, 7);
    let (b, _) = traced_session(QosProfile::TransAtlanticCommodity, 7);
    let ra = detect(&a, &cfg);
    let rb = detect(&b, &cfg);
    assert_eq!(ra.to_json().render(), rb.to_json().render());
    assert_eq!(ra.render_text(), rb.render_text());
}
