//! # atpm-core
//!
//! The paper's contribution: **adaptive target profit maximization** (TPM).
//!
//! Given a probabilistic social graph `G`, a target set `T ⊆ V` and seeding
//! costs `c(u)`, the profit of a seed set `S ⊆ T` is
//! `ρ(S) = E[I(S)] − c(S)` — submodular but non-monotone, so TPM is an
//! unconstrained submodular maximization. The *adaptive* variant selects
//! seeds one at a time, observing each seed's realized cascade and removing
//! activated nodes before the next decision (paper §II-B).
//!
//! ## Layout
//!
//! * [`instance`] — the problem instance (`graph + target + costs`);
//! * [`cost`] — the paper's cost models: spread-calibrated splits
//!   (degree-proportional / uniform / random, §VI-A) and predefined-λ
//!   assignments (§VI-D);
//! * [`setup`] — end-to-end workload constructors (IMM target selection,
//!   `E_l[I(T)]` calibration);
//! * [`oracle`] — spread oracles for the oracle model (exact enumeration,
//!   Monte-Carlo, RIS);
//! * [`session`] — the adaptive feedback loop: select a seed, observe its
//!   cascade in the current realization, shrink the residual graph; sessions
//!   suspend into owned [`SessionState`]s and accept external observations,
//!   so a network service can host them across requests;
//! * [`stepper`] — adaptive policies in resumable one-seed-at-a-time form
//!   ([`PolicyStepper`]), the inversion of control the serve layer drives;
//! * [`runner`] — evaluation over batches of realizations (the paper's
//!   20-world protocol) with profit and wall-clock accounting;
//! * [`policies`] — every algorithm of the paper:
//!   [`Adg`](policies::Adg) (§III-B, 1/3-approx oracle model),
//!   [`Addatp`](policies::Addatp) (§III-C, additive error; plus the
//!   dynamic-threshold variant of the §III-C discussion),
//!   [`Hatp`](policies::Hatp) (§IV, hybrid error),
//!   [`Hntp`](policies::Hntp) (nonadaptive HATP),
//!   [`Nsg`](policies::Nsg) / [`Ndg`](policies::Ndg) (nonadaptive
//!   simple/double greedy of \[26\]),
//!   [`Ars`](policies::Ars) / [`Rs`](policies::Rs) (random baselines of
//!   \[10\]) and [`Baseline`](policies::Baseline) (deploy all of `T`);
//! * [`theory`] — exact policy evaluation and a brute-force optimal adaptive
//!   policy on tiny instances, used to machine-check Theorem 1.

pub mod cost;
pub mod instance;
pub mod oracle;
pub mod policies;
pub mod runner;
pub mod session;
pub mod setup;
pub mod stepper;
pub mod theory;

pub use cost::CostSplit;
pub use instance::TpmInstance;
pub use oracle::{ExactOracle, McOracle, RisOracle, SpreadOracle};
pub use runner::{evaluate_adaptive, evaluate_nonadaptive, EvalSummary};
pub use session::{AdaptiveSession, SessionState};
pub use stepper::{run_stepper, PolicyStepper};

/// Node id re-exported from the graph substrate.
pub type Node = atpm_graph::Node;

/// An adaptive policy is a factory of [`PolicyStepper`]s, and every decision
/// it makes happens in the stepper. [`run`](Self::run) drives a fresh
/// stepper in-process; a service drives one across requests.
pub trait AdaptivePolicy {
    /// The resumable form; it may borrow the policy (ADG's stepper borrows
    /// the spread oracle, whose query counter spans realizations).
    type Stepper<'a>: PolicyStepper
    where
        Self: 'a;

    /// A fresh stepper, positioned before the first target.
    fn stepper(&mut self) -> Self::Stepper<'_>;

    /// Display name (used in experiment tables): the stepper's name.
    fn name(&mut self) -> std::borrow::Cow<'static, str> {
        self.stepper().name()
    }

    /// Runs the policy to completion against one realization.
    fn run(&mut self, session: &mut AdaptiveSession<'_>) -> Vec<Node> {
        run_stepper(&mut self.stepper(), session, 1)
    }
}

/// Nonadaptive policies commit to a seed set up front (one batch, no
/// feedback); the runner then scores that set against each realization.
pub trait NonadaptivePolicy {
    /// Display name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// Selects the seed set on the original graph.
    fn select(&mut self, instance: &TpmInstance) -> Vec<Node>;
}
