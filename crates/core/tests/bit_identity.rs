//! Bit-identity pins for adaptive runs that no other test fixes exactly:
//! ADG over the sampling oracles (whose query counters carry across
//! realizations) and the dynamic-threshold ADDATP variant. Each case runs
//! several worlds through one `evaluate_adaptive` call and must reproduce
//! the recorded seed counts, profit bit patterns and sampling work.

use atpm_core::oracle::{McOracle, RisOracle};
use atpm_core::policies::{Addatp, Adg};
use atpm_core::runner::{evaluate_adaptive, EvalSummary};
use atpm_core::TpmInstance;
use atpm_graph::GraphBuilder;

const WORLDS: [u64; 5] = [1, 2, 3, 4, 5];

/// 40 nodes, 120 LCG-drawn edges with probabilities in [0.05, 0.45],
/// eight targets with distinct fractional costs, so a world's profit bits
/// also identify which targets it seeded.
fn instance() -> TpmInstance {
    let n = 40u32;
    let mut state = 0x2545F4914F6CDD1Du64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    let mut b = GraphBuilder::new(n as usize);
    for _ in 0..120 {
        let u = next() % n;
        let v = next() % n;
        let p = 0.05 + 0.4 * (next() % 1000) as f32 / 1000.0;
        if u != v {
            b.add_edge(u, v, p).unwrap();
        }
    }
    let target: Vec<u32> = (0..8).map(|i| i * 5).collect();
    let costs: Vec<f64> = (0..8).map(|i| 1.0 + 0.37 * i as f64).collect();
    TpmInstance::new(b.build(), target, &costs)
}

fn assert_pinned(s: &EvalSummary, seeds: [usize; 5], profit_bits: [u64; 5], work: u64) {
    let bits: Vec<u64> = s.profits.iter().map(|p| p.to_bits()).collect();
    assert_eq!(
        (s.seeds_per_run.as_slice(), bits.as_slice(), s.sampling_work),
        (&seeds[..], &profit_bits[..], work),
        "{}: profits {:?}",
        s.algorithm,
        s.profits
    );
}

#[test]
fn adg_over_monte_carlo_oracle_is_pinned() {
    let s = evaluate_adaptive(&instance(), &mut Adg::new(McOracle::new(200, 3)), &WORLDS);
    assert_pinned(
        &s,
        [3, 3, 4, 4, 4],
        [
            4621757193094095176,
            4621194243140673864,
            4618193719888938270,
            13831545247572814728,
            13820466392489483328,
        ],
        0,
    );
}

#[test]
fn adg_over_ris_oracle_is_pinned() {
    let s = evaluate_adaptive(
        &instance(),
        &mut Adg::new(RisOracle::new(500, 4, 1)),
        &WORLDS,
    );
    assert_pinned(
        &s,
        [4, 3, 4, 4, 3],
        [
            4621695268599218831,
            4621194243140673864,
            4618193719888938270,
            13831545247572814728,
            4606191626881995896,
        ],
        0,
    );
}

#[test]
fn addatp_dynamic_threshold_is_pinned() {
    let mut p = Addatp {
        seed: 6,
        max_theta: 1 << 14,
        dynamic_eps: Some(0.2),
        ..Default::default()
    };
    let s = evaluate_adaptive(&instance(), &mut p, &WORLDS);
    assert_pinned(
        &s,
        [3, 3, 4, 4, 4],
        [
            4621757193094095176,
            4621194243140673864,
            4618193719888938270,
            13831545247572814728,
            13820466392489483328,
        ],
        655633,
    );
}
