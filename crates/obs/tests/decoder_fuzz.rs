//! Hostile-input properties of the trace readers. Truncations and byte
//! flips of real inputs (the committed report goldens and a traced
//! steering session's JSONL) must come back from `json::parse` and
//! `TraceModel::from_jsonl` as a value or an `Err`, never as a panic.

use std::sync::OnceLock;

use proptest::prelude::*;
use spice_gridsim::network::{Path, QosProfile};
use spice_obs::json;
use spice_obs::trace::TraceModel;
use spice_steering::{simulate_session, ImdConfig};
use spice_telemetry::Telemetry;

/// The clean inputs: both JSON goldens, then one commodity-IP session's
/// JSONL (retransmits make its instants carry every attribute shape).
fn inputs() -> &'static [Vec<u8>] {
    static INPUTS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    INPUTS.get_or_init(|| {
        let golden = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
        let mut out: Vec<Vec<u8>> = ["stalls.json", "summary.json"]
            .iter()
            .map(|name| std::fs::read(golden.join(name)).expect("read golden"))
            .collect();
        let t = Telemetry::enabled();
        let cfg = ImdConfig {
            n_exchanges: 60,
            ..ImdConfig::default()
        };
        let path = Path::new(vec![QosProfile::TransAtlanticCommodity.link()]);
        simulate_session(&cfg, &path, &path, &t, 1);
        out.push(t.jsonl().into_bytes());
        out
    })
}

/// `bytes` cut to its first `keep` share, then each `(at, mask)` XORed
/// into the byte at `at` modulo the remaining length.
fn mangle(bytes: &[u8], keep: f64, flips: &[(usize, u8)]) -> String {
    let mut b = bytes[..(keep * bytes.len() as f64) as usize].to_vec();
    for &(at, mask) in flips {
        if !b.is_empty() {
            let i = at % b.len();
            b[i] ^= mask;
        }
    }
    String::from_utf8_lossy(&b).into_owned()
}

#[test]
fn clean_inputs_parse() {
    let inputs = inputs();
    for doc in &inputs[..2] {
        json::parse(std::str::from_utf8(doc).expect("utf8 golden")).expect("golden parses");
    }
    let jsonl = std::str::from_utf8(&inputs[2]).expect("utf8 jsonl");
    let model = TraceModel::from_jsonl(jsonl).expect("session JSONL parses");
    assert!(model.event_count() > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn truncated_and_flipped_inputs_never_panic(
        which in 0usize..3,
        keep in 0.0f64..1.0,
        flips in prop::collection::vec((0usize..1_000_000, 1u8..255), 0..4),
    ) {
        let text = mangle(&inputs()[which], keep, &flips);
        let _ = json::parse(&text);
        let _ = TraceModel::from_jsonl(&text);
    }
}
