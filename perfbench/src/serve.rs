//! `serve-light` and `serve-durable`: closed-loop adaptive sessions over
//! loopback HTTP against an in-process epoll server with 2 workers.
//!
//! Each client thread holds one keep-alive connection and waits for every
//! reply before it sends the next request. Sessions come from a pool that
//! the seed shuffles; every ledger the server returns is checked bit for
//! bit against an in-process reference run of the same policy on the same
//! snapshot and world. Server-side quantiles come from the difference of
//! two `/metrics` scrapes, one after warm-up and one at the end.
//!
//! * `serve-light`: in-memory sessions, an `ars`/`deploy_all` mix on the
//!   single-seed verbs; decisions cost microseconds, so the time goes to
//!   the wire, HTTP/JSON framing, routing and the session manager.
//! * `serve-durable`: a journal at `fsync group:5`, `hatp` at K=1 beside
//!   `threshold_batch` at K=4, both on `next_batch`/`observe_batch`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use atpm_core::runner::standard_worlds;
use atpm_diffusion::CascadeEngine;
use atpm_obs::Scrape;
use atpm_serve::journal::FsyncPolicy;
use atpm_serve::protocol::{ApiError, CreateSessionReq, SnapshotReq, SnapshotSource};
use atpm_serve::{
    AppState, Backend, HttpClient, Json, Ledger, LocalClient, PolicySpec, ProtocolClient,
    ServeConfig, Server, Snapshot,
};

use crate::drive::{rescore_matches, run_stepper_timed, StepLog, Verbs};
use crate::trace::Spans;
use crate::{mix64, permutation, set_up, stats, Args, Report, ScratchDir, THREADS};

/// Which serve workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Light,
    Durable,
}

/// Server request workers.
const WORKERS: usize = 2;
/// Client connections at most; fewer on a machine with fewer cores.
const MAX_CLIENTS: usize = 2;
/// Snapshot and durable-pool seed (the load generator's default).
const SEED: u64 = 20200420;
/// Sessions in the `serve-light` pool: enough that `profit_mean`, the
/// pool's mean, moves by about 2% between seeds.
const LIGHT_POOL: usize = 16384;
/// Worlds in the `serve-durable` pool; each runs both policies.
const DURABLE_WORLDS: usize = 16;

/// Protocol verbs, in metric order.
const VERBS: [&str; 5] = ["create", "next", "observe", "ledger", "delete"];

fn verb_of(method: &str, path: &str) -> usize {
    match (method, path.rsplit('/').next().unwrap_or("")) {
        ("POST", "sessions") => 0,
        (_, "next" | "next_batch") => 1,
        (_, "observe" | "observe_batch") => 2,
        (_, "ledger") => 3,
        _ => 4,
    }
}

impl Kind {
    fn tag(self) -> &'static str {
        match self {
            Kind::Light => "serve-light",
            Kind::Durable => "serve-durable",
        }
    }

    /// The server's route key for each verb.
    fn route_keys(self) -> [&'static str; 5] {
        match self {
            Kind::Light => [
                "session_create",
                "session_next",
                "session_observe",
                "session_ledger",
                "session_delete",
            ],
            Kind::Durable => [
                "session_create",
                "session_next_batch",
                "session_observe_batch",
                "session_ledger",
                "session_delete",
            ],
        }
    }

    /// How the measured window is sliced; CPU per session is taken per
    /// slice. `serve-light` sessions are alike, so its slices are 1 s long
    /// and the median slice is reported. `serve-durable` mixes sessions
    /// that differ a hundredfold in cost, so each of its slices runs
    /// exactly one cycle of its pool; as every slice does the same work,
    /// the cheaper quartile's bound is reported. Contention from other
    /// tenants of a shared machine only ever adds CPU time (cache misses,
    /// preemption), so over repeats of the same work a low quantile is the
    /// steadiest estimate of what the code itself costs; the lowest alone
    /// would hang on one lucky slice.
    fn slice(self) -> Slice {
        match self {
            Kind::Light => Slice::Time(Duration::from_millis(1000)),
            Kind::Durable => Slice::PoolCycle,
        }
    }

    fn warmup(self) -> Duration {
        match self {
            Kind::Light => Duration::from_millis(1000),
            Kind::Durable => Duration::from_millis(2000),
        }
    }

    /// Sessions replayed through `LocalClient` to price the wire.
    fn replay(self) -> usize {
        match self {
            Kind::Light => 2048,
            Kind::Durable => 16,
        }
    }
}

/// The load generator's default snapshot.
fn snapshot_req() -> SnapshotReq {
    SnapshotReq {
        name: "bench".into(),
        source: SnapshotSource::Preset {
            dataset: "nethept".into(),
            scale: 0.02,
        },
        k: 6,
        rr_theta: 10_000,
        seed: SEED,
        threads: THREADS,
    }
}

/// How a measured window is cut into slices.
#[derive(Clone, Copy)]
enum Slice {
    Time(Duration),
    PoolCycle,
}

/// When a phase's clients stop taking new sessions.
#[derive(Clone, Copy)]
enum Stop {
    /// At a point in time; sessions in flight finish.
    At(Instant),
    /// Before this schedule index.
    Before(usize),
}

/// One session of the pool.
struct Plan {
    policy: &'static str,
    spec: PolicySpec,
    world: u64,
    verbs: Verbs,
}

impl Plan {
    fn request(&self) -> CreateSessionReq {
        CreateSessionReq {
            snapshot: "bench".into(),
            policy: self.spec.clone(),
            world_seed: self.world,
        }
    }
}

/// The session pool. `serve-light` draws its worlds from the seed; the
/// `serve-durable` pool is fixed (its sessions cost milliseconds, so a
/// seed-drawn pool small enough to replay would make `profit_mean` swing
/// with the seed), and the seed only orders it.
fn pool(kind: Kind, seed: u64) -> Vec<Plan> {
    match kind {
        Kind::Light => (0..LIGHT_POOL as u64)
            .map(|i| {
                let world = mix64(seed ^ (i << 1));
                if i % 5 < 2 {
                    Plan {
                        policy: "ars",
                        spec: PolicySpec::Ars {
                            prob: 0.5,
                            seed: mix64(seed ^ (i << 1 | 1)),
                        },
                        world,
                        verbs: Verbs::Single,
                    }
                } else {
                    Plan {
                        policy: "deploy_all",
                        spec: PolicySpec::DeployAll,
                        world,
                        verbs: Verbs::Single,
                    }
                }
            })
            .collect(),
        Kind::Durable => standard_worlds(SEED)[..DURABLE_WORLDS]
            .iter()
            .flat_map(|&world| {
                [
                    Plan {
                        policy: "hatp",
                        spec: PolicySpec::Hatp {
                            eps_threshold: Some(0.2),
                            max_theta: Some(1 << 14),
                            seed: SEED,
                            threads: THREADS,
                        },
                        world,
                        verbs: Verbs::Batch(1),
                    },
                    Plan {
                        policy: "threshold_batch",
                        spec: PolicySpec::ThresholdBatch {
                            theta: 2_000,
                            eps: 0.1,
                            batch: 4,
                            seed: SEED,
                            threads: THREADS,
                        },
                        world,
                        verbs: Verbs::Batch(4),
                    },
                ]
            })
            .collect(),
    }
}

/// A protocol client that counts every call and, when `timed`, records
/// its wall-clock latency per verb.
struct Timed<C> {
    inner: C,
    layer: &'static str,
    timed: bool,
    latency_us: [Vec<f64>; 5],
    requests: u64,
    failed: u64,
    errors: Vec<String>,
    spans: Spans,
    session: u64,
}

impl<C> Timed<C> {
    fn new(inner: C, layer: &'static str, timed: bool, spans: Spans) -> Self {
        Timed {
            inner,
            layer,
            timed,
            latency_us: Default::default(),
            requests: 0,
            failed: 0,
            errors: Vec::new(),
            spans,
            session: 0,
        }
    }
}

impl<C: ProtocolClient> ProtocolClient for Timed<C> {
    fn call(&mut self, method: &str, path: &str, body: &Json) -> Result<Json, ApiError> {
        let verb = verb_of(method, path);
        let span = self.spans.enter(self.layer, VERBS[verb], self.session);
        let t = Instant::now();
        let out = self.inner.call(method, path, body);
        if self.timed {
            self.latency_us[verb].push(t.elapsed().as_secs_f64() * 1e6);
        }
        self.spans.exit(span);
        self.requests += 1;
        if let Err(e) = &out {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors
                    .push(format!("{method} {path}: {} {}", e.status, e.message));
            }
        }
        out
    }
}

/// Drives one pool session to completion and returns the server's ledger.
fn drive<C: ProtocolClient>(client: &mut C, plan: &Plan) -> Result<Ledger, ApiError> {
    match plan.verbs {
        Verbs::Single => client.run_session(&plan.request()),
        Verbs::Batch(k) => client.run_session_batched(&plan.request(), k),
    }
}

/// Ledger equality with the profit compared bit for bit.
fn ledger_eq(a: &Ledger, b: &Ledger) -> bool {
    a.profit.to_bits() == b.profit.to_bits() && a == b
}

/// Output checks made by one client.
#[derive(Default)]
struct Checks {
    made: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checks {
    fn ledger(&mut self, p: usize, got: &Ledger, want: &Ledger) {
        self.made += 1;
        if !ledger_eq(got, want) {
            self.failed += 1;
            if self.notes.len() < 5 {
                self.notes.push(format!(
                    "pool {p}: server ledger {got:?} != reference {want:?}"
                ));
            }
        }
    }

    fn into_report(self, report: &mut Report) {
        report.attempted += self.made;
        report.failed += self.failed;
        report
            .notes
            .extend(self.notes.into_iter().map(|n| format!("FAILED: {n}")));
    }
}

/// What one client thread saw in one phase.
struct ClientOut {
    sessions: u64,
    session_ms: Vec<f64>,
    checks: Checks,
    client: Timed<HttpClient>,
}

/// What all clients saw in one phase.
#[derive(Default)]
struct Phase {
    wall_s: f64,
    /// Process CPU seconds over the phase: clients and server together.
    cpu_s: f64,
    sessions: u64,
    requests: u64,
    /// Wall-clock latencies, recorded in traced phases only.
    session_ms: Vec<f64>,
    latency_us: [Vec<f64>; 5],
}

/// Consecutive phases of one measured window; each is one slice.
struct Window {
    phases: Vec<Phase>,
    /// Whether every slice did the same work (one pool cycle each).
    repeats: bool,
}

impl Window {
    /// Per-slice CPU cost by `cost`: the lower quartile over repeats of
    /// the same work, the median slice otherwise.
    fn slice_cost(&self, cost: impl Fn(&Phase) -> f64) -> f64 {
        let costs: Vec<f64> = self.phases.iter().map(cost).collect();
        stats::quantile(&costs, if self.repeats { 0.25 } else { 0.5 })
    }

    fn sessions_per_cpu_s(&self) -> f64 {
        1.0 / self.slice_cost(|p| p.cpu_s / p.sessions as f64)
    }

    fn request_cpu_us(&self) -> f64 {
        self.slice_cost(|p| p.cpu_s * 1e6 / p.requests as f64)
    }

    fn sessions(&self) -> u64 {
        self.phases.iter().map(|p| p.sessions).sum()
    }

    fn wall_s(&self) -> f64 {
        self.phases.iter().map(|p| p.wall_s).sum()
    }

    fn session_ms(&self) -> Vec<f64> {
        self.phases
            .iter()
            .flat_map(|p| p.session_ms.iter().copied())
            .collect()
    }

    fn latency_us(&self, verb: usize) -> Vec<f64> {
        let per_phase = self.phases.iter().map(|p| &p.latency_us[verb]);
        per_phase.flatten().copied().collect()
    }
}

struct Bench<'a> {
    addr: String,
    plans: &'a [Plan],
    references: &'a [Ledger],
    schedule: Vec<usize>,
    next: AtomicUsize,
    clients: usize,
    epoch: Instant,
}

impl Bench<'_> {
    /// Runs the closed loop for about `length`, in slices.
    fn window(
        &self,
        kind: Kind,
        length: Duration,
        traced: bool,
        report: &mut Report,
    ) -> Result<Window, String> {
        let mut phases = Vec::new();
        let slice = kind.slice();
        match slice {
            Slice::Time(slice) => {
                let slices = (length.as_secs_f64() / slice.as_secs_f64())
                    .round()
                    .max(1.0);
                for _ in 0..slices as usize {
                    let stop = Stop::At(Instant::now() + length.div_f64(slices));
                    phases.push(self.phase(stop, traced, report)?);
                }
            }
            Slice::PoolCycle => {
                let cycle = self.schedule.len();
                let t0 = Instant::now();
                while phases.is_empty() || t0.elapsed() < length {
                    // Start on a cycle boundary: the clients of the last
                    // phase took indices past its end without using them.
                    let start = self.next.load(Ordering::Relaxed).div_ceil(cycle) * cycle;
                    self.next.store(start, Ordering::Relaxed);
                    phases.push(self.phase(Stop::Before(start + cycle), traced, report)?);
                }
            }
        }
        Ok(Window {
            phases,
            repeats: matches!(slice, Slice::PoolCycle),
        })
    }

    /// Runs the closed loop until `stop`.
    fn phase(&self, stop: Stop, traced: bool, report: &mut Report) -> Result<Phase, String> {
        let t0 = Instant::now();
        let cpu0 = stats::process_cpu_s();
        let outs: Vec<Result<ClientOut, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.clients)
                .map(|t| scope.spawn(move || self.client_loop(t as u32 + 1, stop, traced)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
                .collect()
        });
        let mut phase = Phase {
            wall_s: t0.elapsed().as_secs_f64(),
            cpu_s: stats::process_cpu_s() - cpu0,
            ..Phase::default()
        };
        for out in outs {
            let out = out?;
            phase.sessions += out.sessions;
            phase.requests += out.client.requests;
            phase.session_ms.extend(out.session_ms);
            for (all, mine) in phase.latency_us.iter_mut().zip(out.client.latency_us) {
                all.extend(mine);
            }
            report.attempted += out.client.requests;
            report.failed += out.client.failed;
            let errors = out.client.errors.into_iter();
            report.notes.extend(errors.map(|e| format!("FAILED: {e}")));
            report.trace.absorb(out.client.spans);
            out.checks.into_report(report);
        }
        Ok(phase)
    }

    fn client_loop(&self, tid: u32, stop: Stop, traced: bool) -> Result<ClientOut, String> {
        let connect =
            || HttpClient::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr));
        let spans = Spans::new(self.epoch, tid, traced);
        let mut out = ClientOut {
            sessions: 0,
            session_ms: Vec::new(),
            checks: Checks::default(),
            client: Timed::new(connect()?, "net", traced, spans),
        };
        loop {
            if matches!(stop, Stop::At(deadline) if Instant::now() >= deadline) {
                break;
            }
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if matches!(stop, Stop::Before(end) if i >= end) {
                break;
            }
            let p = self.schedule[i % self.schedule.len()];
            let client = &mut out.client;
            client.session = i as u64 + 1;
            let span = client.spans.enter("bench", "session", client.session);
            let t = Instant::now();
            let result = drive(client, &self.plans[p]);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            client.spans.exit(span);
            match result {
                Ok(ledger) => {
                    out.sessions += 1;
                    if traced {
                        out.session_ms.push(ms);
                    }
                    out.checks.ledger(p, &ledger, &self.references[p]);
                }
                // The failed call is counted; start over on a fresh
                // connection, since the stream state is unknown.
                Err(_) => client.inner = connect()?,
            }
        }
        Ok(out)
    }
}

/// One `/metrics` scrape and its round-trip milliseconds.
fn scrape(addr: &str, spans: &mut Spans) -> Result<(Scrape, f64), String> {
    let mut client = HttpClient::connect(addr).map_err(|e| format!("scrape connect: {e}"))?;
    let t = Instant::now();
    let (status, text) = spans
        .time("obs", "scrape", 0, || client.get_text("/metrics"))
        .map_err(|e| format!("scrape: {e}"))?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    if status != 200 {
        return Err(format!("scrape: /metrics answered {status}"));
    }
    atpm_obs::lint(&text).map_err(|e| format!("scrape lint: {e}"))?;
    let parsed = Scrape::parse(&text).map_err(|e| format!("scrape parse: {e}"))?;
    Ok((parsed, ms))
}

type Booted = (Server, Arc<AppState>, Arc<Snapshot>);

fn boot(kind: Kind, snapshot: Snapshot, rep: usize, dir: &ScratchDir) -> Result<Booted, String> {
    let state = AppState::new();
    let snapshot = state.store.insert(snapshot);
    let journal_path = match kind {
        Kind::Light => None,
        Kind::Durable => {
            let rep_dir = dir.0.join(format!("rep{rep}"));
            std::fs::create_dir_all(&rep_dir)
                .map_err(|e| format!("create {}: {e}", rep_dir.display()))?;
            Some(rep_dir.join("journal").to_string_lossy().into_owned())
        }
    };
    let server = Server::start(
        state.clone(),
        &ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: WORKERS,
            backend: Backend::Epoll,
            journal_path,
            fsync: FsyncPolicy::Group(5),
            ..ServeConfig::default()
        },
    )
    .map_err(|e| format!("server start: {e}"))?;
    Ok((server, state, snapshot))
}

/// The in-process reference ledger of every pool session, each re-scored.
fn references(
    kind: Kind,
    plans: &[Plan],
    snapshot: &Snapshot,
    log: &mut StepLog,
    spans: &mut Spans,
    report: &mut Report,
) -> Result<Vec<Ledger>, String> {
    let mut engine = CascadeEngine::new();
    let mut out = Vec::with_capacity(plans.len());
    for (p, plan) in plans.iter().enumerate() {
        let id = 1_000_000 + p as u64;
        let span = spans.enter("check", "reference", id);
        let mut stepper = plan.spec.build().map_err(|e| format!("policy spec: {e}"))?;
        let inst = &snapshot.instance;
        let reference =
            run_stepper_timed(inst, &mut *stepper, plan.world, plan.verbs, log, spans, id);
        let rescored = rescore_matches(inst, &reference, plan.world, &mut engine, log, spans, id);
        report.check(rescored, || {
            format!(
                "{} pool {p}: score_fixed_set disagrees with the reference",
                kind.tag()
            )
        });
        spans.exit(span);
        out.push(reference);
    }
    Ok(out)
}

/// Runs the workload.
pub fn run(args: &Args, kind: Kind) -> Result<Report, String> {
    let mut report = Report::default();
    let epoch = Instant::now();
    let mut spans = Spans::new(epoch, 0, args.trace);
    let dir = ScratchDir::new(kind.tag())?;
    let (mut server, state, snapshot) = set_up(
        &snapshot_req(),
        &mut spans,
        &mut report,
        |snap, rep, spans| spans.time("serve", "boot", 0, || boot(kind, snap, rep, &dir)),
    )?;

    let plans = pool(kind, args.seed);
    let mut log = StepLog::default();
    let references = references(kind, &plans, &snapshot, &mut log, &mut spans, &mut report)?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let bench = Bench {
        addr: server.addr().to_string(),
        plans: &plans,
        references: &references,
        schedule: permutation(plans.len(), args.seed),
        next: AtomicUsize::new(0),
        clients: MAX_CLIENTS.min(nproc),
        epoch,
    };

    bench.phase(Stop::At(Instant::now() + kind.warmup()), false, &mut report)?;
    let mut scrape_ms = Vec::new();
    let (before, ms) = scrape(&bench.addr, &mut spans)?;
    scrape_ms.push(ms);
    let window = Duration::from_secs_f64(args.seconds);
    let (measured, sessions) = if args.trace {
        // The first half runs untraced, so the difference prices tracing.
        let plain = bench.window(kind, window / 2, false, &mut report)?;
        let traced = bench.window(kind, window / 2, true, &mut report)?;
        report.set(
            "obs.trace_overhead_pct",
            100.0 * (plain.sessions_per_cpu_s() - traced.sessions_per_cpu_s())
                / plain.sessions_per_cpu_s(),
        );
        let sessions = plain.sessions() + traced.sessions();
        (traced, sessions)
    } else {
        let measured = bench.window(kind, window, false, &mut report)?;
        let sessions = measured.sessions();
        (measured, sessions)
    };
    let (after, ms) = scrape(&bench.addr, &mut spans)?;
    scrape_ms.push(ms);
    for _ in 0..3 {
        scrape_ms.push(scrape(&bench.addr, &mut spans)?.1);
    }

    report.set("sessions_per_cpu_s", measured.sessions_per_cpu_s());
    report.set("request_cpu_us", measured.request_cpu_us());
    let profits: Vec<f64> = references.iter().map(|l| l.profit).collect();
    report.set("profit_mean", stats::mean(&profits));
    if args.trace {
        let latencies: Vec<f64> = (0..VERBS.len())
            .flat_map(|v| measured.latency_us(v))
            .collect();
        let session_ms = measured.session_ms();
        report.set(
            "wall.sessions_per_s",
            measured.sessions() as f64 / measured.wall_s(),
        );
        report.set("wall.session_p50_ms", stats::median(&session_ms));
        report.set("wall.session_p95_ms", stats::quantile(&session_ms, 0.95));
        report.set("wall.request_p50_us", stats::median(&latencies));
        report.set("wall.request_p99_us", stats::quantile(&latencies, 0.99));
    }

    // Server side, over the measured interval only.
    let q = |name: &str, labels: &[(&str, &str)], p: f64| {
        stats::delta_quantile(&before, &after, name, labels, p) * 1e6
    };
    report.set(
        "serve.request_us.p50",
        q("atpm_http_request_seconds", &[], 0.5),
    );
    report.set(
        "serve.request_us.p99",
        q("atpm_http_request_seconds", &[], 0.99),
    );
    let route_metrics = [
        "serve.route_us.create",
        "serve.route_us.next",
        "serve.route_us.observe",
        "serve.route_us.ledger",
        "serve.route_us.delete",
    ];
    for (name, key) in route_metrics.into_iter().zip(kind.route_keys()) {
        report.set(name, q("atpm_http_route_seconds", &[("route", key)], 0.5));
    }
    report.set(
        "net.queue_wait_us",
        q("atpm_http_queue_wait_seconds", &[], 0.5),
    );
    if kind == Kind::Durable {
        report.set(
            "journal.append_us",
            q("atpm_journal_append_seconds", &[], 0.5),
        );
        report.set(
            "journal.fsync_us",
            q("atpm_journal_fsync_seconds", &[], 0.5),
        );
        let appends = stats::delta_count(&before, &after, "atpm_journal_append_seconds", &[]);
        let fsyncs = stats::delta_count(&before, &after, "atpm_journal_fsync_seconds", &[]);
        report.set("journal.appends_per_fsync", appends / fsyncs.max(1.0));
    }
    report.set("obs.scrape_ms", stats::median(&scrape_ms));

    // The wire's share: the same sessions replayed without sockets.
    if args.trace {
        let replay_spans = Spans::new(epoch, 100, true);
        let mut local = Timed::new(LocalClient::new(state.clone()), "serve", true, replay_spans);
        let mut checks = Checks::default();
        for i in 0..kind.replay() {
            let p = bench.schedule[i % bench.schedule.len()];
            local.session = (i + 1) as u64;
            if let Ok(ledger) = drive(&mut local, &plans[p]) {
                checks.ledger(p, &ledger, &references[p]);
            }
        }
        checks.into_report(&mut report);
        report.attempted += local.requests;
        report.failed += local.failed;
        let wire = [
            "net.wire_us.create",
            "net.wire_us.next",
            "net.wire_us.observe",
            "net.wire_us.ledger",
            "net.wire_us.delete",
        ];
        for (v, name) in wire.into_iter().enumerate() {
            let http = stats::median(&measured.latency_us(v));
            report.set(name, http - stats::median(&local.latency_us[v]));
        }
        report.trace.absorb(local.spans);
    }

    for (policy, name) in [
        ("hatp", "ris.rr_sets_per_session.hatp"),
        ("threshold_batch", "ris.rr_sets_per_session.threshold_batch"),
    ] {
        let work: Vec<f64> = plans
            .iter()
            .zip(&references)
            .filter(|(plan, _)| plan.policy == policy)
            .map(|(_, l)| l.sampling_work as f64)
            .collect();
        if !work.is_empty() {
            report.set(name, stats::mean(&work));
        }
    }
    report.set("core.decide_ms.p50", stats::median(&log.decide_ms));
    report.set("core.decide_ms.p99", stats::quantile(&log.decide_ms, 0.99));
    if log.decide_rr_sets > 0 {
        report.set(
            "ris.rr_sets_per_s",
            log.decide_rr_sets as f64 / log.decide_s,
        );
    }
    report.set("diffusion.observe_ms", stats::median(&log.observe_ms));
    report.set("diffusion.score_ms", stats::median(&log.score_ms));

    let clients = bench.clients;
    drop(bench);
    server.shutdown();
    report.check(server.durability_error().is_none(), || {
        format!("{}: journal fsync at shutdown failed", kind.tag())
    });
    report.notes.push(format!(
        "{}: {sessions} sessions measured, {clients} client connections, {WORKERS} server \
         workers, pool of {}",
        kind.tag(),
        plans.len()
    ));
    report.trace.absorb(spans);
    Ok(report)
}
