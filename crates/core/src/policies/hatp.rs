//! HATP — adaptive double greedy with *hybrid* sampling error
//! (Algorithm 4, §IV).
//!
//! ADDATP's purely additive error needs `O(n_i²·ln n)` RR sets to resolve
//! nodes whose profit sits near the judgement bar. HATP bounds estimates with
//! a **hybrid** of relative error `ε_i` and additive error `ζ_i`
//! (Lemma 7): nodes with large marginal spread are certified by the relative
//! part, nodes with small marginal spread by the additive part, and an
//! adaptive schedule (lines 19–23) steers whichever part pays off.
//!
//! With `f̂`, `r̂` the spread estimates (`fest`, `rest` in the paper), the
//! hybrid confidence interval for the true front spread `μ_f` is
//! `[(f̂ − n_iζ_i)/(1+ε_i), (f̂ + n_iζ_i)/(1−ε_i)]` (and likewise for `μ_r`),
//! giving the stopping conditions
//!
//! ```text
//! C1': (f̂+r̂−2n_iζ_i)/(1+ε_i) ≥ 2c(u)   -- certified select
//!    ∨ (r̂−n_iζ_i)/(1+ε_i)   ≥ c(u)     -- rear profit certifiably ≤ 0
//!    ∨ (f̂+r̂+2n_iζ_i)/(1−ε_i) ≤ 2c(u)   -- certified reject
//!    ∨ (f̂+n_iζ_i)/(1−ε_i)   ≤ c(u)     -- front profit certifiably ≤ 0
//! C2': ε_i ≤ ε ∧ n_iζ_i ≤ 1            -- too close to matter
//! ```
//!
//! (the paper prints the final threshold `ε` inside `C1'`; we use the
//! current round's `ε_i`, which is what Lemma 7 actually certifies). The
//! decision on stop is `f̂ + r̂ ≥ 2c(u)`; with the shared batch `f̂ ≥ r̂`
//! pointwise, this agrees with every certificate above.
//!
//! Guarantee (Theorem 4): expected profit
//! `≥ (Λ(π_opt) − 2(k + ε·c(T))/(1−ε) − 2)/3`. Expected time
//! `O(k·m·E[I(v°)]/ε · ln(n/ε))` (Theorem 5) — a factor `≈ ε·n` cheaper than
//! ADDATP.

use std::borrow::Cow;

use atpm_graph::{GraphView, Node};
use atpm_ris::bounds::hatp_theta;
use atpm_ris::stream::front_rear_counts_shared;
use atpm_ris::NodeSet;

use crate::session::AdaptiveSession;
use crate::stepper::PolicyStepper;
use crate::AdaptivePolicy;

const SQRT_2: f64 = std::f64::consts::SQRT_2;

/// Configuration of HATP.
#[derive(Debug, Clone)]
pub struct Hatp {
    /// Initial relative error `ε_0` (paper: 0.5).
    pub eps0: f64,
    /// Initial additive error scaled by alive nodes, `n_i·ζ_0` (paper: 64).
    pub initial_nzeta: f64,
    /// Relative-error threshold `ε` (paper: 0.05); also the `ε` of the
    /// Theorem 4 guarantee.
    pub eps_threshold: f64,
    /// RNG seed for the sampling rounds.
    pub seed: u64,
    /// Sampler worker threads.
    pub threads: usize,
    /// Per-round RR-set cap (see [`Addatp`](crate::policies::Addatp)); HATP's
    /// rounds are small enough that the default effectively never binds.
    pub max_theta: usize,
    /// Ablation switch: `false` replaces the adaptive ε/ζ schedule
    /// (lines 19–23) with a naive fixed `/√2` decay of both errors,
    /// isolating how much the paper's scheduling contributes.
    pub adaptive_schedule: bool,
}

impl Default for Hatp {
    fn default() -> Self {
        Hatp {
            eps0: 0.5,
            initial_nzeta: 64.0,
            eps_threshold: 0.05,
            seed: 0,
            threads: 1,
            max_theta: usize::MAX,
            adaptive_schedule: true,
        }
    }
}

impl Hatp {
    /// Examines one node: runs sampling rounds until a stopping condition
    /// fires, returns the keep/reject decision. Factored out so HNTP (the
    /// nonadaptive variant) can reuse it verbatim.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn decide_node<V: GraphView + Sync>(
        &self,
        view: &V,
        u: Node,
        cost: f64,
        front_cond: &NodeSet,
        rear_cond: &NodeSet,
        round_salt: &mut u64,
        work: &mut u64,
    ) -> bool {
        assert!(self.eps0 > 0.0 && self.eps0 < 1.0, "eps0 must be in (0,1)");
        assert!(
            self.eps_threshold > 0.0 && self.eps_threshold <= self.eps0,
            "threshold must be in (0, eps0]"
        );
        let ni = view.num_alive();
        if ni == 0 {
            return false;
        }
        let nif = ni as f64;
        let n = view.num_nodes() as f64;
        let eps_t = self.eps_threshold;
        let mut eps = self.eps0;
        let mut zeta = (self.initial_nzeta / nif).min(0.5);
        // The paper initializes δ_0 = 1/(kn); 1/n² ≤ 1/(kn) for k ≤ n, so this
        // is never looser and spares threading `k` through HNTP's reuse.
        let mut delta = 1.0 / (n * n.max(2.0));
        loop {
            *round_salt = round_salt
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let theta = hatp_theta(eps, zeta, delta).min(self.max_theta);
            let counts = front_rear_counts_shared(
                view,
                u,
                front_cond,
                rear_cond,
                theta,
                *round_salt,
                self.threads,
            );
            *work += counts.theta as u64;
            if counts.theta == 0 {
                return false;
            }
            let tf = counts.theta as f64;
            let fest = nif * counts.cov_front as f64 / tf;
            let rest = nif * counts.cov_rear as f64 / tf;
            let nz = nif * zeta;
            let c1 = (fest + rest - 2.0 * nz) / (1.0 + eps) >= 2.0 * cost
                || (rest - nz) / (1.0 + eps) >= cost
                || (fest + rest + 2.0 * nz) / (1.0 - eps) <= 2.0 * cost
                || (fest + nz) / (1.0 - eps) <= cost;
            let c2 = eps <= eps_t && nz <= 1.0;
            let forced = theta >= self.max_theta;
            if c1 || c2 || forced {
                return fest + rest >= 2.0 * cost;
            }
            // Adaptive error schedule (Algorithm 4, lines 19–23).
            if !self.adaptive_schedule {
                // Ablation: naive fixed decay, still respecting the floors.
                if eps > eps_t {
                    eps /= SQRT_2;
                }
                if nz > 1.0 {
                    zeta /= SQRT_2;
                }
                delta /= 2.0;
                continue;
            }
            if eps <= eps_t && nz > 1.0 {
                zeta /= 2.0;
            } else if eps > eps_t && nz <= 1.0 {
                eps /= 2.0;
            } else if fest >= 10.0 * nz {
                // Marginal spread dwarfs the additive error: the relative
                // part is doing the work — sharpen it.
                eps /= 2.0;
            } else if fest <= nz {
                // Marginal spread below the additive error: sharpen ζ.
                zeta /= 2.0;
            } else {
                eps /= SQRT_2;
                zeta /= SQRT_2;
            }
            delta /= 2.0;
        }
    }
}

impl AdaptivePolicy for Hatp {
    type Stepper<'a> = HatpStepper;

    fn stepper(&mut self) -> HatpStepper {
        HatpStepper {
            cfg: self.clone(),
            sweep: TargetSweep::default(),
            round_salt: self.seed,
        }
    }
}

/// [`Hatp`] in resumable, one-seed-at-a-time form: the target sweep and
/// the sampling salt chain of Algorithm 4.
pub struct HatpStepper {
    cfg: Hatp,
    sweep: TargetSweep,
    round_salt: u64,
}

impl PolicyStepper for HatpStepper {
    fn name(&self) -> Cow<'static, str> {
        "HATP".into()
    }

    fn next_seed(&mut self, session: &mut AdaptiveSession<'_>) -> Option<Node> {
        let (cfg, round_salt) = (&self.cfg, &mut self.round_salt);
        self.sweep.next_seed(session, |session, u, empty, t_rest| {
            let mut work = 0u64;
            let keep = cfg.decide_node(
                session.residual(),
                u,
                session.instance().cost(u),
                empty,
                t_rest,
                round_salt,
                &mut work,
            );
            session.add_sampling_work(work);
            keep
        })
    }
}

/// The double-greedy target sweep that ADG, ADDATP and HATP share
/// (Algorithms 2–4), which differ only in the per-node keep rule: a cursor
/// over the targets plus the `(∅, T_rest)` conditioning pair, sized lazily
/// on the first call (a stepper learns `n` from its first session).
#[derive(Default)]
pub(crate) struct TargetSweep {
    idx: usize,
    sets: Option<(NodeSet, NodeSet)>,
}

impl TargetSweep {
    /// Examines targets in order until `keep(session, u, ∅, T_rest)` accepts
    /// one, and returns it uncommitted. Every examined target leaves
    /// `T_rest` first (so the rule sees `T_{i−1} ∖ {u_i}`), activated ones
    /// are skipped unasked, and a kept one returns to `T_rest`.
    pub(crate) fn next_seed(
        &mut self,
        session: &mut AdaptiveSession<'_>,
        mut keep: impl FnMut(&mut AdaptiveSession<'_>, Node, &NodeSet, &NodeSet) -> bool,
    ) -> Option<Node> {
        let n = session.instance().graph().num_nodes();
        let (empty, t_rest) = self.sets.get_or_insert_with(|| {
            let target = session.instance().target().iter().copied();
            (NodeSet::new(n), NodeSet::from_iter(n, target))
        });
        while self.idx < session.instance().target().len() {
            let u = session.instance().target()[self.idx];
            self.idx += 1;
            t_rest.remove(u);
            if session.is_activated(u) {
                continue;
            }
            if keep(session, u, empty, t_rest) {
                t_rest.insert(u);
                return Some(u);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::TpmInstance;
    use crate::oracle::ExactOracle;
    use crate::policies::{Addatp, Adg};
    use crate::runner::evaluate_adaptive;
    use atpm_graph::GraphBuilder;

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
        let mut hatp = Hatp {
            seed: 5,
            ..Default::default()
        };
        let noisy = evaluate_adaptive(&inst, &mut hatp, &worlds);
        let mut adg = Adg::new(ExactOracle);
        let exact = evaluate_adaptive(&inst, &mut adg, &worlds);
        assert_eq!(noisy.profits, exact.profits);
    }

    #[test]
    fn hatp_is_far_cheaper_than_addatp_on_borderline_nodes() {
        // A borderline node (isolated, spread 1) with cost exactly 1 on a
        // larger empty graph: ADDATP must push n_iζ_i down to 1 with
        // additive-only rounds; HATP's relative part certifies much earlier.
        let n = 2000;
        let b = GraphBuilder::new(n);
        let inst = TpmInstance::new(b.build(), vec![0], &[1.0]);
        let mut hatp = Hatp {
            seed: 2,
            ..Default::default()
        };
        let h = evaluate_adaptive(&inst, &mut hatp, &[1]);
        let mut addatp = Addatp {
            seed: 2,
            ..Default::default()
        };
        let a = evaluate_adaptive(&inst, &mut addatp, &[1]);
        assert!(
            h.sampling_work * 10 < a.sampling_work,
            "HATP {} vs ADDATP {}",
            h.sampling_work,
            a.sampling_work
        );
        // Both end with ~zero profit regardless of decision.
        assert!(h.profits[0].abs() < 1e-9);
        assert!(a.profits[0].abs() < 1e-9);
    }

    #[test]
    fn schedule_terminates_on_all_branches() {
        // Mixed instance: a strong hub (relative branch), a weak node
        // (additive branch) and a borderline node (C2).
        let mut b = GraphBuilder::new(50);
        for v in 1..=20 {
            b.add_edge(0, v, 1.0).unwrap();
        }
        b.add_edge(21, 22, 0.5).unwrap();
        let inst = TpmInstance::new(b.build(), vec![0, 21, 30], &[5.0, 1.2, 1.0]);
        let mut hatp = Hatp {
            seed: 3,
            ..Default::default()
        };
        let s = evaluate_adaptive(&inst, &mut hatp, &[1, 2, 3, 4]);
        // Hub always selected: profit >= 21 - 5 - (other costs bounded by 2.2).
        for p in &s.profits {
            assert!(*p >= 21.0 - 5.0 - 2.2 - 1e-9, "profit {p}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let inst = star_instance();
        let mut p1 = Hatp {
            seed: 7,
            ..Default::default()
        };
        let mut p2 = Hatp {
            seed: 7,
            ..Default::default()
        };
        let a = evaluate_adaptive(&inst, &mut p1, &[4, 5]);
        let b = evaluate_adaptive(&inst, &mut p2, &[4, 5]);
        assert_eq!(a.profits, b.profits);
        assert_eq!(a.sampling_work, b.sampling_work);
    }

    #[test]
    #[should_panic(expected = "eps0")]
    fn rejects_bad_eps0() {
        let b = GraphBuilder::new(2);
        let inst = TpmInstance::new(b.build(), vec![0], &[1.0]);
        let mut p = Hatp {
            eps0: 1.5,
            ..Default::default()
        };
        let _ = evaluate_adaptive(&inst, &mut p, &[1]);
    }
}
