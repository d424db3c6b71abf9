//! HNTP — the nonadaptive tailoring of HATP (§VI-A).
//!
//! Same hybrid-error double greedy as [`Hatp`](crate::policies::Hatp), but
//! all decisions are made on the *original* graph in one batch: no cascades
//! are observed and nothing is removed, so the front marginal must genuinely
//! condition on the accumulated seed set `S_{i−1}` (which is alive here,
//! unlike in the adaptive run). The paper uses HNTP to isolate the value of
//! adaptivity from the value of the hybrid-error machinery.

use atpm_graph::Node;
use atpm_ris::NodeSet;

use crate::instance::TpmInstance;
use crate::policies::Hatp;
use crate::NonadaptivePolicy;

/// Nonadaptive HATP. Wraps a [`Hatp`] configuration; the sampling logic is
/// shared (`Hatp::decide_node`).
#[derive(Debug, Clone)]
pub struct Hntp {
    /// The hybrid-error configuration (ε₀, n·ζ₀, threshold, seed, threads).
    pub cfg: Hatp,
    /// RR sets generated by the last [`select`](NonadaptivePolicy::select).
    pub last_work: u64,
}

impl Hntp {
    /// HNTP with the given HATP configuration.
    pub fn new(cfg: Hatp) -> Self {
        Hntp { cfg, last_work: 0 }
    }
}

impl Default for Hntp {
    fn default() -> Self {
        Hntp::new(Hatp::default())
    }
}

impl NonadaptivePolicy for Hntp {
    fn name(&self) -> &'static str {
        "HNTP"
    }

    fn last_work(&self) -> u64 {
        self.last_work
    }

    fn select(&mut self, instance: &TpmInstance) -> Vec<Node> {
        let g = instance.graph();
        let n = g.num_nodes();
        let target: Vec<Node> = instance.target().to_vec();
        let mut s_set = NodeSet::new(n);
        let mut t_rest = NodeSet::from_iter(n, target.iter().copied());
        let mut selected = Vec::new();
        let mut salt = self.cfg.seed;
        let mut work = 0u64;
        for &u in &target {
            t_rest.remove(u);
            let keep = self.cfg.decide_node(
                g,
                u,
                instance.cost(u),
                &s_set,
                &t_rest,
                &mut salt,
                &mut work,
            );
            if keep {
                s_set.insert(u);
                t_rest.insert(u);
                selected.push(u);
            }
        }
        self.last_work = work;
        selected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{evaluate_nonadaptive, standard_worlds};
    use atpm_graph::GraphBuilder;

    fn star_instance() -> TpmInstance {
        let mut b = GraphBuilder::new(5);
        for v in 1..=3 {
            b.add_edge(0, v, 1.0).unwrap();
        }
        TpmInstance::new(b.build(), vec![0, 4], &[2.0, 3.0])
    }

    #[test]
    fn selects_profitable_rejects_unprofitable() {
        let inst = star_instance();
        let mut p = Hntp::new(Hatp {
            seed: 1,
            ..Default::default()
        });
        let seeds = p.select(&inst);
        assert_eq!(seeds, vec![0], "hub kept, expensive isolate dropped");
        assert!(p.last_work > 0);
    }

    #[test]
    fn front_marginal_conditions_on_selected_seeds() {
        // Overlapping influencers: 0 -> 2, 1 -> 2 (p = 1), c = 1.2 each.
        // After keeping 0, node 1's front marginal is 1 (only itself):
        // front profit -0.2 < rear profit, so 1 must be rejected.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 2, 1.0).unwrap();
        b.add_edge(1, 2, 1.0).unwrap();
        let inst = TpmInstance::new(b.build(), vec![0, 1], &[1.2, 1.2]);
        let mut p = Hntp::new(Hatp {
            seed: 2,
            ..Default::default()
        });
        let seeds = p.select(&inst);
        assert_eq!(seeds, vec![0]);
    }

    #[test]
    fn evaluation_scores_fixed_set_per_world() {
        let inst = star_instance();
        let mut p = Hntp::new(Hatp {
            seed: 3,
            ..Default::default()
        });
        let s = evaluate_nonadaptive(&inst, &mut p, &standard_worlds(1));
        // Deterministic graph: profit always 4 - 2 = 2.
        for profit in &s.profits {
            assert!((profit - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn summary_reports_the_rr_sets_drawn() {
        let inst = star_instance();
        let mut p = Hntp::new(Hatp {
            seed: 3,
            ..Default::default()
        });
        let s = evaluate_nonadaptive(&inst, &mut p, &standard_worlds(1));
        assert!(s.sampling_work > 0);
        assert_eq!(s.sampling_work, p.last_work);
    }

    #[test]
    fn deterministic_given_seed() {
        let inst = star_instance();
        let mut p1 = Hntp::new(Hatp {
            seed: 9,
            ..Default::default()
        });
        let mut p2 = Hntp::new(Hatp {
            seed: 9,
            ..Default::default()
        });
        assert_eq!(p1.select(&inst), p2.select(&inst));
        assert_eq!(p1.last_work, p2.last_work);
    }
}
