//! Golden digests of the resilient DES: every output of a replay —
//! records, failure log, goodput/badput accounting (all in the
//! serialized `ResilientResult`), the `failure_listing` report and the
//! `EngineStats` event counts — folded into one FNV-1a digest per case,
//! and for traced replays the full telemetry JSONL export too.
//!
//! The cases are the dispatch × resilience matrix on the paper
//! campaigns, a traced SC05 replay per dispatch, and a fixed set of
//! synthetic campaigns. Before the frozen seed engine was deleted
//! (DESIGN.md §13.3), every case was replayed through it as well and
//! gave the same result, failure listing and trajectory telemetry, so
//! these digests pin the seed simulator's behaviour, not just the
//! indexed engine's.
//!
//! A failing case prints every digest of its table in the table's own
//! syntax: a deliberate behaviour change re-pins with one paste, and
//! the diff shows which cases moved.

mod common;

use common::{fnv1a, policies, DISPATCHES, FNV_OFFSET};
use spice::gridsim::campaign::Campaign;
use spice::gridsim::des::DispatchPolicy;
use spice::gridsim::resilience::{run_resilient_with_stats, ResiliencePolicy};
use spice::gridsim::trace::failure_listing;
use spice::telemetry::Telemetry;

/// Mark a sprinkling of jobs steering-coupled so the gateway-drop and
/// connectivity-filter paths execute.
fn couple_some(c: &mut Campaign) {
    for job in c.jobs.iter_mut().step_by(7) {
        job.coupled = true;
    }
}

/// One replay to digest.
struct Case {
    label: String,
    campaign: Campaign,
    policy: ResiliencePolicy,
    dispatch: DispatchPolicy,
}

/// Seeds 3 and 11 × {paper batch, SC05 outages} (with coupled jobs) ×
/// every policy × every dispatch, in [`PAPER`] order.
fn paper_cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for seed in [3u64, 11] {
        let mut batch = Campaign::paper_batch_phase(seed);
        couple_some(&mut batch);
        let mut outage = Campaign::sc05_outage_phase(seed);
        couple_some(&mut outage);
        for (phase, campaign) in [("batch", &batch), ("sc05", &outage)] {
            for (name, policy) in policies() {
                for dispatch in DISPATCHES {
                    cases.push(Case {
                        label: format!("{phase} seed {seed} {name} {dispatch:?}"),
                        campaign: campaign.clone(),
                        policy,
                        dispatch,
                    });
                }
            }
        }
    }
    cases
}

/// The SC05 outage history at seed 5 (with coupled jobs) under
/// checkpoint + failover, once per dispatch, in [`TRACED`] order.
fn traced_cases() -> Vec<Case> {
    let mut campaign = Campaign::sc05_outage_phase(5);
    couple_some(&mut campaign);
    DISPATCHES
        .into_iter()
        .map(|dispatch| Case {
            label: format!("traced sc05 seed 5 {dispatch:?}"),
            campaign: campaign.clone(),
            policy: ResiliencePolicy::checkpoint_failover(),
            dispatch,
        })
        .collect()
}

/// `Campaign::synthetic(n_jobs, n_sites, seed)` under
/// `policies()[policy]` × `DISPATCHES[dispatch]`, in [`SYNTHETIC`] order.
fn synthetic_cases() -> Vec<Case> {
    SYNTHETIC
        .iter()
        .map(|&(seed, n_jobs, n_sites, policy, dispatch, _)| {
            let (name, policy) = policies()[policy];
            let dispatch = DISPATCHES[dispatch];
            Case {
                label: format!("synthetic({n_jobs}, {n_sites}, {seed}) {name} {dispatch:?}"),
                campaign: Campaign::synthetic(n_jobs, n_sites, seed),
                policy,
                dispatch,
            }
        })
        .collect()
}

/// FNV-1a over one replay: the serialized result (serde pins the exact
/// decimal rendering of every f64, which `PartialEq` does not), the
/// failure listing and the engine stats, then the JSONL export when
/// `telemetry` is enabled.
fn replay_digest(case: &Case, telemetry: &Telemetry) -> u64 {
    let (result, stats) =
        run_resilient_with_stats(&case.campaign, &case.policy, case.dispatch, telemetry);
    let parts = [
        serde_json::to_string(&result).expect("serialize result"),
        failure_listing(&result, &case.campaign.federation, &Telemetry::disabled()),
        serde_json::to_string(&stats).expect("serialize stats"),
    ];
    let h = parts.iter().fold(FNV_OFFSET, |h, p| fnv1a(h, p.as_bytes()));
    if telemetry.is_enabled() {
        fnv1a(h, telemetry.jsonl().as_bytes())
    } else {
        h
    }
}

/// Require `got[i] == want[i]` for every case; on a mismatch, print the
/// whole table of computed digests before failing.
fn assert_goldens(cases: &[Case], got: &[u64], want: &[u64]) {
    assert_eq!(got.len(), want.len(), "one golden per case");
    let moved: Vec<&str> = cases
        .iter()
        .zip(got.iter().zip(want))
        .filter(|(_, (g, w))| g != w)
        .map(|(c, _)| c.label.as_str())
        .collect();
    if !moved.is_empty() {
        for (case, g) in cases.iter().zip(got) {
            eprintln!(
                "    0x{:04x}_{:04x}_{:04x}_{:04x}, // {}",
                g >> 48,
                (g >> 32) & 0xffff,
                (g >> 16) & 0xffff,
                g & 0xffff,
                case.label
            );
        }
        panic!(
            "{} of {} replays moved: {moved:?}",
            moved.len(),
            cases.len()
        );
    }
}

fn untraced_digests(cases: &[Case]) -> Vec<u64> {
    let off = Telemetry::disabled();
    cases.iter().map(|c| replay_digest(c, &off)).collect()
}

/// Every dispatch × resilience policy on the paper batch phase and on
/// the SC05 outage history, with coupled jobs, at two seeds.
#[test]
fn paper_workloads_match_goldens() {
    let cases = paper_cases();
    assert_goldens(&cases, &untraced_digests(&cases), &PAPER);
}

/// Traced SC05 replays: the digest covers the full JSONL export — every
/// per-job track, domain counter and gauge, and the event-stream
/// diagnostics (`grid.des_events`, the campaign track's clock).
#[test]
fn traced_telemetry_matches_goldens() {
    let cases = traced_cases();
    let got: Vec<u64> = cases
        .iter()
        .map(|c| replay_digest(c, &Telemetry::enabled()))
        .collect();
    assert_goldens(&cases, &got, &TRACED);
}

/// Fixed synthetic campaigns (outages, coupled jobs, heavy-tailed
/// runtimes, odd site topologies) under every policy × dispatch pair.
#[test]
fn synthetic_campaigns_match_goldens() {
    let cases = synthetic_cases();
    let want: Vec<u64> = SYNTHETIC.iter().map(|row| row.5).collect();
    assert_goldens(&cases, &untraced_digests(&cases), &want);
}

/// Digests of [`paper_cases`], in its order. (These and the tables below
/// come from x86_64 with glibc's libm.)
const PAPER: [u64; 48] = [
    0x89f5_a29b_e63a_e8be, // batch seed 3 none EarliestCompletion
    0x1a8e_0f03_46be_41cd, // batch seed 3 none RoundRobin
    0x638a_5da1_e8ff_bca3, // batch seed 3 none Random
    0xc191_c6d3_8722_f8af, // batch seed 3 naive EarliestCompletion
    0x49de_88b6_2312_bbbe, // batch seed 3 naive RoundRobin
    0x19be_a72a_2f30_84c6, // batch seed 3 naive Random
    0x4d0f_1c4c_8614_43cc, // batch seed 3 retry_only EarliestCompletion
    0x4b7a_acb7_5caf_6248, // batch seed 3 retry_only RoundRobin
    0xe8bb_d45c_bbd8_0d65, // batch seed 3 retry_only Random
    0x4d19_55c4_7793_3655, // batch seed 3 checkpoint_failover EarliestCompletion
    0x2d5e_2eb0_dc60_7468, // batch seed 3 checkpoint_failover RoundRobin
    0xee5f_b86b_a4c5_8f6e, // batch seed 3 checkpoint_failover Random
    0x47bf_eebd_a9d5_581e, // sc05 seed 3 none EarliestCompletion
    0xb5d2_db59_2f6d_9830, // sc05 seed 3 none RoundRobin
    0x3217_710c_f666_3c86, // sc05 seed 3 none Random
    0x7736_4c5d_1d2c_c78b, // sc05 seed 3 naive EarliestCompletion
    0x18a5_1b7a_66aa_e44d, // sc05 seed 3 naive RoundRobin
    0x0dbf_c9c1_c10c_f490, // sc05 seed 3 naive Random
    0xd28b_9d1f_ae71_6347, // sc05 seed 3 retry_only EarliestCompletion
    0x3cc1_4943_ec08_850b, // sc05 seed 3 retry_only RoundRobin
    0xf080_58ab_c6c5_dd13, // sc05 seed 3 retry_only Random
    0xc310_eaba_7626_25cc, // sc05 seed 3 checkpoint_failover EarliestCompletion
    0x4a94_1ec1_f31e_343d, // sc05 seed 3 checkpoint_failover RoundRobin
    0x813a_6b06_3cec_3c72, // sc05 seed 3 checkpoint_failover Random
    0xab74_4174_712c_6d76, // batch seed 11 none EarliestCompletion
    0x6e07_b1b4_0c52_ca02, // batch seed 11 none RoundRobin
    0x8fba_3ef0_40c3_ce5d, // batch seed 11 none Random
    0xfad0_f81b_a3c3_9270, // batch seed 11 naive EarliestCompletion
    0x76e7_909f_d5dc_ec24, // batch seed 11 naive RoundRobin
    0xc85c_b5f0_c661_1533, // batch seed 11 naive Random
    0x57e9_0b2a_3445_2654, // batch seed 11 retry_only EarliestCompletion
    0xa175_4246_0c62_d024, // batch seed 11 retry_only RoundRobin
    0x9d22_6b80_b29d_1f13, // batch seed 11 retry_only Random
    0xf443_cb4c_0414_277e, // batch seed 11 checkpoint_failover EarliestCompletion
    0xba8a_2831_f829_c375, // batch seed 11 checkpoint_failover RoundRobin
    0xc712_939b_a2d0_84c6, // batch seed 11 checkpoint_failover Random
    0x993b_bf35_3872_ff81, // sc05 seed 11 none EarliestCompletion
    0x9e40_9153_b5b2_f3f6, // sc05 seed 11 none RoundRobin
    0xfed0_5500_dbab_b53f, // sc05 seed 11 none Random
    0xbefc_49a2_be76_8114, // sc05 seed 11 naive EarliestCompletion
    0xf35b_756f_033a_cbfe, // sc05 seed 11 naive RoundRobin
    0xa368_5db8_87f8_c91e, // sc05 seed 11 naive Random
    0x1434_2513_4029_6f79, // sc05 seed 11 retry_only EarliestCompletion
    0xbeda_3757_6a41_cedd, // sc05 seed 11 retry_only RoundRobin
    0xca8d_37fd_d34a_15de, // sc05 seed 11 retry_only Random
    0xe45b_a691_4dd7_88f4, // sc05 seed 11 checkpoint_failover EarliestCompletion
    0xc1c8_dbdf_9add_06ff, // sc05 seed 11 checkpoint_failover RoundRobin
    0x1821_13ed_0f0a_97c8, // sc05 seed 11 checkpoint_failover Random
];

/// Digests of [`traced_cases`], JSONL included, in its order.
const TRACED: [u64; 3] = [
    0x9f07_de80_94a1_7d54, // traced sc05 seed 5 EarliestCompletion
    0x576d_50a7_a157_8bfe, // traced sc05 seed 5 RoundRobin
    0x53ed_d369_b16f_5b32, // traced sc05 seed 5 Random
];

/// `(seed, n_jobs, n_sites, policy, dispatch, digest)`. The first ten
/// rows are the campaigns the randomized seed-equivalence property
/// generated; the other 24 give every policy × dispatch pair two more
/// campaigns, one of 1–59 jobs and one of 120–600.
const SYNTHETIC: [(u64, usize, usize, usize, usize, u64); 34] = [
    (252_564, 24, 6, 3, 1, 0xf0d9_edb3_56b9_d167),
    (758_912, 24, 6, 2, 0, 0xb5e2_cf38_0970_9550),
    (306_288, 27, 7, 0, 2, 0xc3f6_4d62_955b_15ca),
    (916_858, 45, 5, 2, 1, 0x3483_9473_9057_82e9),
    (345_671, 24, 8, 3, 2, 0x5e26_3bb1_7c0a_16da),
    (497_932, 10, 3, 3, 0, 0xe079_f2de_0568_0cbc),
    (433_851, 58, 1, 2, 1, 0xd278_b15e_e38f_da20),
    (704_293, 38, 2, 2, 1, 0x1065_dc31_6b6c_6742),
    (197_484, 57, 2, 3, 1, 0x650f_7ddc_6203_b1b5),
    (56_253, 33, 5, 3, 1, 0xc4f2_215d_879d_c8a1),
    (1, 1, 1, 0, 0, 0xcdcd_66b3_2030_b879),
    (2, 7, 2, 1, 0, 0xb81f_0614_46da_7d09),
    (3, 16, 3, 2, 0, 0xb8dc_5220_a9ab_1b83),
    (4, 59, 8, 3, 0, 0xc1f8_5bc1_81d3_37db),
    (5, 12, 4, 0, 1, 0x8683_8d06_d2b4_b77f),
    (6, 31, 1, 1, 1, 0x3199_247b_18bf_fc1d),
    (7, 44, 6, 2, 1, 0xf1e0_29ef_8d96_19a5),
    (8, 20, 2, 3, 1, 0xe953_0dce_fd85_f1c9),
    (9, 3, 5, 0, 2, 0x6248_2e2e_f7b6_1fdb),
    (10, 50, 3, 1, 2, 0x6842_06d6_5832_0ff8),
    (11, 36, 7, 2, 2, 0xb2e6_5ce5_529a_4dc0),
    (12, 28, 4, 3, 2, 0xbacd_bb67_997a_6d77),
    (101, 120, 4, 0, 0, 0x6fd7_f386_e362_3a5a),
    (202, 250, 6, 1, 0, 0x7431_6f7c_f63b_6a6e),
    (303, 400, 12, 2, 0, 0x670b_4885_1155_1150),
    (404, 600, 8, 3, 0, 0x12c6_357a_acec_d663),
    (505, 150, 3, 0, 1, 0xa98d_f25e_db3b_a65e),
    (606, 300, 12, 1, 1, 0x729e_8993_2a41_b8c1),
    (707, 200, 2, 2, 1, 0x34fb_3193_00a9_a3e7),
    (808, 500, 10, 3, 1, 0xf443_2678_ed78_23bd),
    (909, 180, 5, 0, 2, 0xc6de_5a6f_d722_a4d4),
    (1_010, 350, 9, 1, 2, 0x2314_8790_4102_6e99),
    (1_111, 240, 12, 2, 2, 0x25a6_bece_a853_d2b8),
    (1_212, 450, 6, 3, 2, 0xced2_f57a_ca2e_02dc),
];
