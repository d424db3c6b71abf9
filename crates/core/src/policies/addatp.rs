//! ADDATP — adaptive double greedy with additive sampling error
//! (Algorithm 3, §III-C).
//!
//! ADDATP mirrors ADG but estimates the front/rear profits by reverse
//! influence sampling. Per examined node it runs rounds of increasing
//! precision: round `j` draws `θ = ln(8/δ_j)/(2ζ_j²)` RR sets (Hoeffding,
//! Lemma 4) and stops once either
//!
//! * `C1`: the estimates are separated enough to certify the comparison
//!   (`|ρ̃_f − ρ̃_r| ≥ 2n_iζ_i`, or one of them is certifiably negative), or
//! * `C2`: `n_iζ_i ≤ η` — the profits are too close to distinguish and the
//!   loss from guessing is at most ~2η (`η = 1` in the base algorithm).
//!
//! Otherwise `ζ ← ζ/√2`, `δ ← δ/2` and the round repeats with fresh samples.
//!
//! The **dynamic-threshold variant** (§III-C "Discussion") re-budgets `η`
//! from the profit accumulated so far, yielding an expected
//! `(1−ε)/3`-approximation: before examining `u_{i+1}` it sets
//! `η_{i+1} = (ε·ρ_i − 2Ση̃_j − 2)/2` whenever that budget is nonnegative
//! (and disables `C2` otherwise).
//!
//! Guarantee (Theorem 2): expected profit `≥ (Λ(π_opt) − (2k+2))/3`.
//! Expected time `O(k·m·n·E[I(v°)]·ln n)` (Theorem 3) — the `n²` per-node
//! sample blowup near `C2` is exactly the inefficiency HATP removes.

use std::borrow::Cow;

use atpm_graph::{GraphView, Node};
use atpm_ris::bounds::addatp_theta;
use atpm_ris::stream::front_rear_counts_shared;

use crate::policies::hatp::TargetSweep;
use crate::session::AdaptiveSession;
use crate::stepper::PolicyStepper;
use crate::AdaptivePolicy;

const SQRT_2: f64 = std::f64::consts::SQRT_2;

/// Configuration and state of ADDATP.
#[derive(Debug, Clone)]
pub struct Addatp {
    /// Initial additive error scaled by alive nodes: `n_i·ζ_0` (the paper's
    /// experiments use 64).
    pub initial_nzeta: f64,
    /// RNG seed for the sampling rounds.
    pub seed: u64,
    /// Sampler worker threads.
    pub threads: usize,
    /// Per-round RR-set cap. `usize::MAX` is the faithful algorithm; finite
    /// caps force a best-effort decision once a round would exceed the cap
    /// (the benches use this to keep ADDATP's `O(n²ζ⁻²)` tail affordable,
    /// mirroring how the paper could only run it on the smallest dataset).
    pub max_theta: usize,
    /// `Some(ε)` enables the dynamic-threshold variant with target
    /// approximation `(1−ε)/3`.
    pub dynamic_eps: Option<f64>,
}

impl Default for Addatp {
    fn default() -> Self {
        Addatp {
            initial_nzeta: 64.0,
            seed: 0,
            threads: 1,
            max_theta: usize::MAX,
            dynamic_eps: None,
        }
    }
}

impl AdaptivePolicy for Addatp {
    type Stepper<'a> = AddatpStepper;

    fn stepper(&mut self) -> AddatpStepper {
        AddatpStepper {
            cfg: self.clone(),
            sweep: TargetSweep::default(),
            round_salt: self.seed,
            eta_tilde_sum: 0.0,
        }
    }
}

/// [`Addatp`] in resumable, one-seed-at-a-time form: the target sweep, the
/// sampling salt chain, and the dynamic variant's `Ση̃_j`.
pub struct AddatpStepper {
    cfg: Addatp,
    sweep: TargetSweep,
    round_salt: u64,
    eta_tilde_sum: f64,
}

impl PolicyStepper for AddatpStepper {
    fn name(&self) -> Cow<'static, str> {
        match self.cfg.dynamic_eps {
            Some(_) => "ADDATP-dyn".into(),
            None => "ADDATP".into(),
        }
    }

    fn next_seed(&mut self, session: &mut AdaptiveSession<'_>) -> Option<Node> {
        let (cfg, round_salt, eta_tilde_sum) =
            (&self.cfg, &mut self.round_salt, &mut self.eta_tilde_sum);
        self.sweep.next_seed(session, |session, u, empty, t_rest| {
            let k = session.instance().target().len();
            let n = session.instance().graph().num_nodes();
            let ni = session.residual().num_alive();
            debug_assert!(ni >= 1, "u alive implies n_i >= 1");
            let nif = ni as f64;
            let c = session.instance().cost(u);
            // ζ_0 ∈ [1/n_i, 1): start from n_i·ζ_0 = initial_nzeta.
            let mut zeta = (cfg.initial_nzeta / nif).min(0.5);
            let mut delta = 1.0 / (k as f64 * n as f64);
            // C2 threshold: fixed 1 in the base algorithm, re-budgeted from
            // accumulated profit in the dynamic variant.
            let eta = match cfg.dynamic_eps {
                None => 1.0,
                Some(eps) => {
                    let budget = eps * session.profit() - 2.0 * *eta_tilde_sum - 2.0;
                    if budget >= 0.0 {
                        budget / 2.0
                    } else {
                        0.0
                    }
                }
            };

            loop {
                *round_salt = round_salt.wrapping_mul(6364136223846793005).wrapping_add(1);
                let theta = addatp_theta(zeta, delta).min(cfg.max_theta);
                let counts = front_rear_counts_shared(
                    session.residual(),
                    u,
                    empty,
                    t_rest,
                    theta,
                    *round_salt,
                    cfg.threads,
                );
                session.add_sampling_work(counts.theta as u64);
                if counts.theta == 0 {
                    return false;
                }
                let tf = counts.theta as f64;
                let rho_f = nif * counts.cov_front as f64 / tf - c;
                let rho_r = c - nif * counts.cov_rear as f64 / tf;
                let nz = nif * zeta;
                let c1 = (rho_f - rho_r).abs() >= 2.0 * nz || rho_f <= -nz || rho_r <= -nz;
                let c2 = nz <= eta;
                let forced = theta >= cfg.max_theta;
                if c1 || c2 || forced {
                    if c2 && !c1 {
                        *eta_tilde_sum += eta;
                    }
                    return rho_f >= rho_r;
                }
                zeta /= SQRT_2;
                delta /= 2.0;
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::TpmInstance;
    use crate::oracle::ExactOracle;
    use crate::policies::Adg;
    use crate::runner::evaluate_adaptive;
    use atpm_graph::GraphBuilder;

    /// Star hub 0 -> {1,2,3} (p=1) plus isolated 4; T = {0, 4}.
    fn star_instance() -> TpmInstance {
        let mut b = GraphBuilder::new(5);
        for v in 1..=3 {
            b.add_edge(0, v, 1.0).unwrap();
        }
        TpmInstance::new(b.build(), vec![0, 4], &[2.0, 3.0])
    }

    #[test]
    fn clear_cut_decisions_match_adg() {
        let inst = star_instance();
        let worlds = [1u64, 2, 3];
        let mut addatp = Addatp {
            seed: 5,
            ..Default::default()
        };
        let noisy = evaluate_adaptive(&inst, &mut addatp, &worlds);
        let mut adg = Adg::new(ExactOracle);
        let exact = evaluate_adaptive(&inst, &mut adg, &worlds);
        assert_eq!(noisy.profits, exact.profits, "margins are huge; must agree");
        assert!(noisy.sampling_work > 0);
    }

    #[test]
    fn skips_activated_nodes_and_keeps_ledger() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 1.0).unwrap();
        let inst = TpmInstance::new(b.build(), vec![0, 1], &[0.1, 0.1]);
        let mut p = Addatp {
            seed: 1,
            ..Default::default()
        };
        let s = evaluate_adaptive(&inst, &mut p, &[3]);
        assert_eq!(s.seeds_per_run, vec![1]);
        assert!((s.profits[0] - 1.9).abs() < 1e-9);
    }

    #[test]
    fn c2_stops_borderline_nodes_without_explosion() {
        // A node whose profit is exactly on the judgement bar: spread 1,
        // cost 1 (isolated node). C2 (n_i ζ_i <= 1) must terminate sampling.
        let b = GraphBuilder::new(3);
        let inst = TpmInstance::new(b.build(), vec![0], &[1.0]);
        let mut p = Addatp {
            seed: 2,
            ..Default::default()
        };
        let s = evaluate_adaptive(&inst, &mut p, &[1]);
        // Whatever the decision, profit is 0 (spread 1 - cost 1 or nothing).
        assert!(s.profits[0].abs() < 1e-9);
        // Bounded sampling: zeta only needs to fall from 0.5 to 1/3, so the
        // round budget stays tiny.
        assert!(s.sampling_work < 2_000_000, "work {}", s.sampling_work);
    }

    #[test]
    fn max_theta_forces_decisions() {
        let inst = star_instance();
        let mut p = Addatp {
            seed: 3,
            max_theta: 64,
            ..Default::default()
        };
        let s = evaluate_adaptive(&inst, &mut p, &[1]);
        // 2 nodes examined, <= 64 sets each round, one round each.
        assert!(s.sampling_work <= 128, "work {}", s.sampling_work);
    }

    #[test]
    fn dynamic_variant_terminates_and_is_sane() {
        let inst = star_instance();
        let mut p = Addatp {
            seed: 4,
            dynamic_eps: Some(0.2),
            max_theta: 1 << 18,
            ..Default::default()
        };
        let s = evaluate_adaptive(&inst, &mut p, &[1, 2]);
        assert_eq!(p.name(), "ADDATP-dyn");
        // Hub is hugely profitable; it must still be selected.
        for (profit, seeds) in s.profits.iter().zip(&s.seeds_per_run) {
            assert!(*profit >= 2.0 - 1e-9, "profit {profit}");
            assert!(*seeds >= 1);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let inst = star_instance();
        let worlds = [9u64, 10];
        let mut p1 = Addatp {
            seed: 42,
            ..Default::default()
        };
        let mut p2 = Addatp {
            seed: 42,
            ..Default::default()
        };
        let a = evaluate_adaptive(&inst, &mut p1, &worlds);
        let b = evaluate_adaptive(&inst, &mut p2, &worlds);
        assert_eq!(a.profits, b.profits);
        assert_eq!(a.sampling_work, b.sampling_work);
    }
}
