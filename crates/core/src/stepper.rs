//! Resumable adaptive policies: one committed seed — or one committed
//! *batch* — at a time.
//!
//! A network service cannot run a whole realization in one call: it must
//! *pause* after deciding a seed, hand the seed to the outside world, and
//! only continue once the realized activations come back. [`PolicyStepper`]
//! is that inversion of control: `next_seed` examines candidates until the
//! policy commits one (or finishes), without applying it; the driver decides
//! how the observation happens — [`AdaptiveSession::select`] in-process, or
//! [`AdaptiveSession::apply_observation`] with externally reported
//! activations.
//!
//! [`next_batch`](PolicyStepper::next_batch) is the low-adaptivity form of
//! the same contract: up to `k` seeds decided against **one** residual
//! state and observed together; at `k = 1` it is exactly one `next_seed`.
//!
//! Every adaptive policy — `Adg`, `Addatp`, `Hatp`, `Ars`, `DeployAll` and
//! `ThresholdBatch` — decides only in its stepper:
//! [`AdaptivePolicy`](crate::AdaptivePolicy) is a stepper factory whose
//! `run` is [`run_stepper`], so a stepped run interleaved with external
//! observations is byte-identical to the in-process run by construction —
//! there is only one decision path. The end-to-end protocol test in
//! `atpm-serve` pins this across the HTTP boundary.

use std::borrow::Cow;

use atpm_graph::Node;

use crate::session::AdaptiveSession;

/// An adaptive policy in resumable form. Implementations hold all iteration
/// state (candidate cursor, RNG, sampling salts) internally; the session
/// passed to [`next_seed`](PolicyStepper::next_seed) supplies everything a
/// policy may legally observe (residual graph, activation flags, costs).
pub trait PolicyStepper: Send {
    /// Display name of the policy (reported in ledgers and tables).
    fn name(&self) -> Cow<'static, str>;

    /// Decides the next seed to commit, **without** committing it. The
    /// driver must apply the seed (via [`AdaptiveSession::select`] or
    /// [`AdaptiveSession::apply_observation`]) before calling `next_seed`
    /// again. Returns `None` once every candidate has been examined.
    ///
    /// May record sampling effort on the session
    /// ([`AdaptiveSession::add_sampling_work`]) but must not mutate the
    /// residual state.
    fn next_seed(&mut self, session: &mut AdaptiveSession<'_>) -> Option<Node>;

    /// Decides the next *batch* of up to `k` distinct seeds against the
    /// current residual state, **without** committing any of them — the
    /// low-adaptivity round primitive. The driver must apply the whole
    /// batch (via [`AdaptiveSession::select_batch`] or
    /// [`AdaptiveSession::apply_observations`]) before calling again. An
    /// empty return means the policy is finished.
    ///
    /// The default loops [`next_seed`](Self::next_seed) with no
    /// observations in between: later seeds of the batch are decided
    /// against the same (stale) residual state as the first — exactly the
    /// bounded adaptivity gap batched seeding trades for round-trips.
    /// Cursor-style steppers (every in-tree policy) never re-propose a
    /// node, so the loop terminates; as a backstop against a stepper that
    /// would, a repeated proposal ends the batch early instead of looping.
    /// `next_batch(session, 1)` is exactly one `next_seed` call, so a
    /// `k = 1` batched drive is byte-identical to the single-seed drive.
    fn next_batch(&mut self, session: &mut AdaptiveSession<'_>, k: usize) -> Vec<Node> {
        let mut batch: Vec<Node> = Vec::new();
        while batch.len() < k {
            match self.next_seed(session) {
                Some(u) if !batch.contains(&u) => batch.push(u),
                _ => break,
            }
        }
        batch
    }
}

/// Drives a stepper to completion in-process, in rounds of up to `k` seeds:
/// each round's batch is decided against one residual state, then observed
/// against the session's own realization via
/// [`AdaptiveSession::select_batch`]. At `k = 1` every round is one
/// `next_seed` call and one observation — the single-seed drive of
/// [`AdaptivePolicy::run`](crate::AdaptivePolicy::run).
pub fn run_stepper<S: PolicyStepper + ?Sized>(
    stepper: &mut S,
    session: &mut AdaptiveSession<'_>,
    k: usize,
) -> Vec<Node> {
    assert!(k > 0, "batch size must be positive");
    loop {
        let batch = stepper.next_batch(session, k);
        if batch.is_empty() {
            break;
        }
        session.select_batch(&batch);
    }
    session.selected().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::TpmInstance;
    use crate::oracle::ExactOracle;
    use crate::policies::{Addatp, Adg, Ars, DeployAll, Hatp, ThresholdBatch};
    use crate::AdaptivePolicy;
    use atpm_graph::GraphBuilder;

    /// Stepper that proposes every not-yet-activated target in order.
    struct TakeAll {
        idx: usize,
    }

    impl PolicyStepper for TakeAll {
        fn name(&self) -> Cow<'static, str> {
            "TakeAll".into()
        }
        fn next_seed(&mut self, session: &mut AdaptiveSession<'_>) -> Option<Node> {
            let targets = session.instance().target();
            while self.idx < targets.len() {
                let u = targets[self.idx];
                self.idx += 1;
                if !session.is_activated(u) {
                    return Some(u);
                }
            }
            None
        }
    }

    #[test]
    fn run_stepper_commits_every_proposed_seed() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0).unwrap();
        let inst = TpmInstance::new(b.build(), vec![0, 1, 3], &[1.0, 1.0, 1.0]);
        let mut session = AdaptiveSession::new(&inst, 5);
        let selected = run_stepper(&mut TakeAll { idx: 0 }, &mut session, 1);
        // 0 cascades to 1, so 1 is skipped; 3 is isolated and selected.
        assert_eq!(selected, vec![0, 3]);
        assert_eq!(session.total_activated(), 3);
    }

    /// Nine probabilistic edges (few enough for the exact oracle) and five
    /// targets, two of them too costly to keep in some worlds: decisions
    /// differ across worlds, and early cascades can activate later targets.
    fn mixed_instance() -> TpmInstance {
        let mut b = GraphBuilder::new(8);
        for (u, v, p) in [
            (0, 1, 0.6),
            (1, 2, 0.5),
            (0, 3, 0.4),
            (3, 4, 0.7),
            (5, 6, 0.5),
            (6, 7, 0.8),
            (2, 5, 0.3),
            (4, 6, 0.4),
            (1, 3, 0.5),
        ] {
            b.add_edge(u, v, p).unwrap();
        }
        TpmInstance::new(b.build(), vec![0, 1, 3, 5, 6], &[1.2, 2.4, 1.8, 0.7, 2.0])
    }

    /// Runs `make()` in-process, then drives a second `make()`'s stepper
    /// the way the serve protocol does: rounds of up to `k` seeds, each
    /// observed in a twin session and fed back through
    /// `apply_observations`, so the driven session never simulates a
    /// cascade itself. Both drives must agree bit for bit.
    fn assert_resumable<P: AdaptivePolicy>(
        inst: &TpmInstance,
        world: u64,
        k: usize,
        make: impl Fn() -> P,
    ) {
        let mut s1 = AdaptiveSession::new(inst, world);
        let mut policy = make();
        let in_process = policy.run(&mut s1);
        let name = policy.name();

        let mut twin = AdaptiveSession::new(inst, world);
        let mut s2 = AdaptiveSession::new(inst, world);
        let mut policy = make();
        let mut stepper = policy.stepper();
        loop {
            let batch = stepper.next_batch(&mut s2, k);
            if batch.is_empty() {
                break;
            }
            let observed = twin.select_batch(&batch);
            s2.apply_observations(&batch, &observed);
        }
        assert_eq!(s2.selected(), &in_process[..], "{name} world {world}");
        assert_eq!(
            s2.profit().to_bits(),
            s1.profit().to_bits(),
            "{name} world {world}"
        );
        assert_eq!(
            s2.sampling_work(),
            s1.sampling_work(),
            "{name} world {world}"
        );
        assert_eq!(s2.rounds(), s1.rounds(), "{name} world {world}");
    }

    #[test]
    fn stepped_and_external_drives_agree() {
        let inst = mixed_instance();
        let addatp = Addatp {
            seed: 3,
            max_theta: 1 << 14,
            ..Default::default()
        };
        for world in 0..6u64 {
            assert_resumable(&inst, world, 1, || Adg::new(ExactOracle));
            assert_resumable(&inst, world, 1, || addatp.clone());
            assert_resumable(&inst, world, 1, || Addatp {
                dynamic_eps: Some(0.2),
                ..addatp.clone()
            });
            assert_resumable(&inst, world, 1, || Hatp {
                seed: 5,
                ..Default::default()
            });
            assert_resumable(&inst, world, 1, || Ars {
                seed: 7,
                ..Default::default()
            });
            assert_resumable(&inst, world, 1, || DeployAll);
            assert_resumable(&inst, world, 4, || ThresholdBatch {
                seed: 9,
                batch: 4,
                ..Default::default()
            });
        }
    }

    #[test]
    fn batch_of_one_is_byte_identical_to_single_seed_drive() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        let inst = TpmInstance::new(b.build(), vec![0, 2, 4], &[0.5, 0.5, 0.5]);
        for world in 0..8u64 {
            let mut s1 = AdaptiveSession::new(&inst, world);
            let mut stepper = TakeAll { idx: 0 };
            while let Some(u) = stepper.next_seed(&mut s1) {
                s1.select(u);
            }
            let mut s2 = AdaptiveSession::new(&inst, world);
            let batched = run_stepper(&mut TakeAll { idx: 0 }, &mut s2, 1);
            assert_eq!(batched, s1.selected(), "world {world}");
            assert_eq!(s2.profit().to_bits(), s1.profit().to_bits());
            assert_eq!(s2.rounds(), s1.rounds(), "world {world}");
        }
    }

    #[test]
    fn default_next_batch_loops_next_seed_without_observing() {
        // TakeAll on a deterministic chain: a batch of 3 is decided before
        // any cascade is observed, so node 1 (which node 0 activates) is
        // still proposed — the low-adaptivity gap, visible and intended.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0).unwrap();
        let inst = TpmInstance::new(b.build(), vec![0, 1, 3], &[1.0, 1.0, 1.0]);
        let mut session = AdaptiveSession::new(&inst, 5);
        let mut stepper = TakeAll { idx: 0 };
        let batch = stepper.next_batch(&mut session, 3);
        assert_eq!(batch, vec![0, 1, 3], "no observation between decisions");
        // Applied jointly, the cascade still counts every node once.
        let cascade = session.select_batch(&batch);
        assert_eq!(cascade.len(), 3, "seeds {{0, 1, 3}}; node 1 not doubled");
        assert_eq!(session.total_activated(), 3);
        assert_eq!(session.rounds(), 1, "one batch = one adaptivity round");
    }

    #[test]
    fn batched_run_finishes_in_fewer_rounds() {
        let mut b = GraphBuilder::new(8);
        b.add_edge(0, 4, 0.5).unwrap();
        let inst = TpmInstance::new(b.build(), vec![0, 1, 2, 3], &[1.0, 1.0, 1.0, 1.0]);
        let mut s1 = AdaptiveSession::new(&inst, 3);
        run_stepper(&mut TakeAll { idx: 0 }, &mut s1, 1);
        let mut s2 = AdaptiveSession::new(&inst, 3);
        run_stepper(&mut TakeAll { idx: 0 }, &mut s2, 4);
        assert_eq!(s1.selected(), s2.selected(), "independent targets");
        assert_eq!(s1.rounds(), 4);
        assert_eq!(s2.rounds(), 1);
    }
}
