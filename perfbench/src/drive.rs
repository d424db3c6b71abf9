//! In-process adaptive runs, timed call by call.
//!
//! The campaign workload runs its sessions here, and the serve workloads
//! compute their reference ledgers here: `PolicyStepper::next_seed` /
//! `next_batch` (the `core` decision) and `AdaptiveSession::select` /
//! `select_batch` (the `diffusion` observation) are each timed from
//! outside, and every finished run is re-scored with `score_fixed_set`.

use std::time::Instant;

use atpm_core::runner::score_fixed_set;
use atpm_core::{AdaptiveSession, PolicyStepper, TpmInstance};
use atpm_diffusion::CascadeEngine;
use atpm_graph::GraphView;
use atpm_serve::Ledger;

use crate::trace::Spans;

/// Which protocol verbs a run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verbs {
    /// `next_seed` + `select`: one seed per round.
    Single,
    /// `next_batch(k)` + `select_batch`: up to `k` seeds per round.
    Batch(usize),
}

/// Timings of the calls the benchmark made into `core` and `diffusion`.
#[derive(Default)]
pub struct StepLog {
    /// One entry per `next_seed` / `next_batch` call, milliseconds.
    pub decide_ms: Vec<f64>,
    /// One entry per `select` / `select_batch` call, milliseconds.
    pub observe_ms: Vec<f64>,
    /// One entry per `score_fixed_set` call, milliseconds.
    pub score_ms: Vec<f64>,
    /// RR sets drawn inside the timed decisions.
    pub decide_rr_sets: u64,
    /// Total time of the timed decisions, seconds.
    pub decide_s: f64,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Drives `stepper` to completion against world `world` and returns the
/// ledger the serve layer would report for the same run.
pub fn run_stepper_timed(
    instance: &TpmInstance,
    stepper: &mut dyn PolicyStepper,
    world: u64,
    verbs: Verbs,
    log: &mut StepLog,
    spans: &mut Spans,
    session_id: u64,
) -> Ledger {
    let mut session = AdaptiveSession::new(instance, world);
    loop {
        let work = session.sampling_work();
        let t = Instant::now();
        let batch = spans.time("core", "decide", session_id, || match verbs {
            Verbs::Single => stepper.next_seed(&mut session).into_iter().collect(),
            Verbs::Batch(k) => stepper.next_batch(&mut session, k),
        });
        let ms = ms_since(t);
        log.decide_ms.push(ms);
        log.decide_s += ms * 1e-3;
        log.decide_rr_sets += session.sampling_work() - work;
        if batch.is_empty() {
            break;
        }
        let t = Instant::now();
        spans.time("diffusion", "observe", session_id, || {
            session.select_batch(&batch)
        });
        log.observe_ms.push(ms_since(t));
    }
    ledger_of(&session, stepper.name().into_owned())
}

/// The ledger of a finished in-process session.
pub fn ledger_of(session: &AdaptiveSession<'_>, algorithm: String) -> Ledger {
    Ledger {
        algorithm,
        selected: session.selected().to_vec(),
        profit: session.profit(),
        total_activated: session.total_activated(),
        num_alive: session.residual().num_alive(),
        sampling_work: session.sampling_work(),
        rounds: session.rounds(),
        oracle_queries: session.oracle_queries(),
        done: true,
    }
}

/// Re-scores a finished run's seed set as a fixed set on the same world.
/// In one world a sequence of cascades activates exactly what the seed set
/// activates at once, so the profit must match the ledger's bit for bit.
pub fn rescore_matches(
    instance: &TpmInstance,
    ledger: &Ledger,
    world: u64,
    engine: &mut CascadeEngine,
    log: &mut StepLog,
    spans: &mut Spans,
    session_id: u64,
) -> bool {
    let t = Instant::now();
    let profit = spans.time("diffusion", "score_fixed_set", session_id, || {
        score_fixed_set(instance, &ledger.selected, world, engine)
    });
    log.score_ms.push(ms_since(t));
    profit.to_bits() == ledger.profit.to_bits()
}
