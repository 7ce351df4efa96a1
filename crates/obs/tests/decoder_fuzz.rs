//! Hostile-input properties of the trace readers. Truncations and byte
//! flips of real inputs (the committed report goldens and a traced
//! steering session's JSONL) must come back from `json::parse` and
//! `TraceModel::from_jsonl` as a value or an `Err`, never as a panic;
//! metric totals past `u64::MAX` must come back from the `spice-trace`
//! readers as an `Err`, never as a panic or a wrapped sum.

use std::sync::OnceLock;

use proptest::prelude::*;
use spice_gridsim::network::{Path, QosProfile};
use spice_obs::json;
use spice_obs::trace::TraceModel;
use spice_obs::{flatten_input, report};
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

/// A JSONL counter line.
fn counter(value: &str) -> String {
    format!("{{\"type\":\"counter\",\"name\":\"grid.retries\",\"value\":{value}}}\n")
}

/// A JSONL histogram line with one bound, so two buckets.
fn histogram(counts: &str) -> String {
    format!(
        "{{\"type\":\"histogram\",\"name\":\"grid.wait\",\"bounds\":[1.0],\
         \"counts\":[{counts}],\"sum\":1.0}}\n"
    )
}

/// `spice-trace summary` (and `critical-path`, which builds the same
/// report) over `inputs`.
fn summary(inputs: &[String]) -> Result<report::SummaryReport, String> {
    let models = inputs
        .iter()
        .map(|text| Ok(("input".to_string(), TraceModel::from_jsonl(text)?)))
        .collect::<Result<Vec<_>, String>>()?;
    report::build(&models)
}

/// Same-named counters and histogram counts that add past `u64::MAX`,
/// within one input or across two, and a single histogram whose buckets
/// do, are errors (`spice-trace` exits 2 on them). Counts are powers of
/// two, which JSON's f64 numbers hold exactly.
#[test]
fn metric_totals_past_u64_max_are_errors() {
    let max = u64::MAX.to_string();
    let half = (1u64 << 63).to_string();
    let overflows = [
        vec![counter(&max) + &counter("5")],
        vec![counter(&max), counter("5")],
        vec![counter(&half), counter(&half)],
        vec![
            histogram(&format!("{half}, 0")),
            histogram(&format!("{half}, 0")),
        ],
        vec![
            histogram(&format!("{half}, 0")),
            histogram(&format!("0, {half}")),
        ],
        vec![histogram(&format!("{max}, 5"))],
        // Mismatched layouts collapse to one total, which must fit too.
        vec![
            histogram(&format!("{half}, 0")),
            histogram(&half).replace("[1.0]", "[]"),
        ],
    ];
    for inputs in &overflows {
        let err = summary(inputs).expect_err("a total past u64::MAX is an error");
        assert!(err.contains("u64::MAX"), "{err}");
    }
    let single = histogram(&format!("{max}, 5"));
    let err = flatten_input(&single).expect_err("spice-trace diff rejects it");
    assert!(err.contains("u64::MAX"), "{err}");
    // Just below the limit, totals still add.
    let quarter = (1u64 << 62).to_string();
    let fits = summary(&[counter(&half), counter(&quarter)]).expect("2^63 + 2^62 fits");
    let grid = &fits.highlights[0].1;
    assert_eq!(
        grid[0],
        ("grid.retries".to_string(), (3u64 << 62).to_string())
    );
}
