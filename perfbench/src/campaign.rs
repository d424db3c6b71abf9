//! `campaign`: the paper's evaluation protocol in-process (arXiv:1910.13073
//! §VI), with no sockets and no journal.
//!
//! The instance is the calibrated NetHEPT stand-in at scale 0.1 with
//! k = 10. The worlds are a fixed pool, so every (policy, world) outcome
//! can be checked against `golden/campaign.txt` on every run; the seed
//! orders the pool. One *pass* runs each world through HATP and
//! `threshold_batch` (driven through `PolicyStepper`) and through ADDATP
//! (`AdaptivePolicy::run` under the experiment harness's `--quick` round
//! cap). Passes repeat until the run's time is spent. HNTP and NDG are
//! evaluated once per run with `evaluate_nonadaptive`.

use std::collections::BTreeMap;
use std::time::Instant;

use atpm_bench::config::ExpConfig;
use atpm_bench::runs::nsg_ndg_theta;
use atpm_core::policies::{Addatp, Hatp, Hntp, Ndg, ThresholdBatch};
use atpm_core::runner::{evaluate_nonadaptive, standard_worlds, EvalSummary};
use atpm_core::{AdaptivePolicy, AdaptiveSession, NonadaptivePolicy, TpmInstance};
use atpm_diffusion::CascadeEngine;
use atpm_serve::protocol::{SnapshotReq, SnapshotSource};
use atpm_serve::{Ledger, Snapshot};

use crate::drive::{ledger_of, rescore_matches, run_stepper_timed, StepLog, Verbs};
use crate::trace::Spans;
use crate::{mix64, permutation, set_up, stats, Args, Report, THREADS};

/// Instance, world and policy seed (the experiment harness's default).
const SEED: u64 = 20200420;
/// Worlds in the pool.
const WORLDS: usize = 4;
/// ADDATP's per-round RR-set cap: the experiment harness's `--quick` cap.
const ADDATP_MAX_THETA: usize = 1 << 17;
/// Seeds per `threshold_batch` round.
const BATCH_K: usize = 4;

const GOLDEN: &str = include_str!("../golden/campaign.txt");

fn snapshot_req() -> SnapshotReq {
    SnapshotReq {
        name: "campaign".into(),
        source: SnapshotSource::Preset {
            dataset: "nethept".into(),
            scale: 0.1,
        },
        k: 10,
        rr_theta: 200_000,
        seed: SEED,
        threads: THREADS,
    }
}

fn worlds() -> Vec<u64> {
    standard_worlds(SEED)[..WORLDS].to_vec()
}

#[derive(Clone, Copy)]
enum Policy {
    Hatp,
    ThresholdBatch,
    Addatp,
}

const ADAPTIVE: [Policy; 3] = [Policy::Hatp, Policy::ThresholdBatch, Policy::Addatp];

impl Policy {
    fn key(self) -> &'static str {
        match self {
            Policy::Hatp => "hatp",
            Policy::ThresholdBatch => "threshold_batch",
            Policy::Addatp => "addatp",
        }
    }

    fn rr_metric(self) -> &'static str {
        match self {
            Policy::Hatp => "ris.rr_sets_per_session.hatp",
            Policy::ThresholdBatch => "ris.rr_sets_per_session.threshold_batch",
            Policy::Addatp => "ris.rr_sets_per_session.addatp",
        }
    }
}

/// Everything one window of passes measured.
#[derive(Default)]
struct Window {
    wall_s: f64,
    /// Per (policy, world): process CPU seconds of each of its sessions,
    /// and the protocol steps one session takes.
    cpu: BTreeMap<(&'static str, u64), (Vec<f64>, usize)>,
    /// Wall-clock milliseconds per session.
    session_ms: Vec<f64>,
    profits: Vec<f64>,
    addatp_s: Vec<f64>,
    /// Per policy's RR-set metric: (RR sets drawn, sessions).
    rr: BTreeMap<&'static str, (u64, u64)>,
    log: StepLog,
}

struct Campaign<'a> {
    instance: &'a TpmInstance,
    golden: BTreeMap<String, String>,
    engine: CascadeEngine,
    next_id: u64,
}

impl Window {
    /// Process CPU seconds of one pass: per (policy, world), its cheapest
    /// session. Contention from other tenants of a shared machine only
    /// ever adds CPU time, so the cheapest repeat is the steadiest estimate.
    fn pass_cpu_s(&self) -> f64 {
        let cheapest = |cpu: &Vec<f64>| cpu.iter().copied().fold(f64::INFINITY, f64::min);
        self.cpu.values().map(|(cpu, _)| cheapest(cpu)).sum()
    }

    fn sessions_per_cpu_s(&self) -> f64 {
        self.cpu.len() as f64 / self.pass_cpu_s()
    }

    /// Process CPU per in-process protocol step: a decision, an
    /// observation, or one ADDATP run.
    fn request_cpu_us(&self) -> f64 {
        let steps: usize = self.cpu.values().map(|(_, steps)| steps).sum();
        self.pass_cpu_s() * 1e6 / steps as f64
    }
}

impl Campaign<'_> {
    /// Runs one adaptive session; returns its ledger and wall seconds.
    fn session(
        &mut self,
        policy: Policy,
        world: u64,
        log: &mut StepLog,
        addatp_s: &mut Vec<f64>,
        spans: &mut Spans,
    ) -> (Ledger, f64) {
        self.next_id += 1;
        let id = self.next_id;
        let t = Instant::now();
        let span = spans.enter("bench", "session", id);
        let ledger = match policy {
            Policy::Hatp => run_stepper_timed(
                self.instance,
                &mut Hatp {
                    seed: SEED,
                    threads: THREADS,
                    ..Default::default()
                }
                .stepper(),
                world,
                Verbs::Single,
                log,
                spans,
                id,
            ),
            Policy::ThresholdBatch => run_stepper_timed(
                self.instance,
                &mut ThresholdBatch {
                    seed: SEED,
                    threads: THREADS,
                    ..Default::default()
                }
                .stepper(),
                world,
                Verbs::Batch(BATCH_K),
                log,
                spans,
                id,
            ),
            Policy::Addatp => {
                let mut addatp = Addatp {
                    seed: SEED,
                    threads: THREADS,
                    max_theta: ADDATP_MAX_THETA,
                    ..Default::default()
                };
                let mut session = AdaptiveSession::new(self.instance, world);
                let t = Instant::now();
                spans.time("core", "addatp_run", id, || addatp.run(&mut session));
                addatp_s.push(t.elapsed().as_secs_f64());
                ledger_of(&session, addatp.name().to_string())
            }
        };
        spans.exit(span);
        (ledger, t.elapsed().as_secs_f64())
    }

    /// Checks one session against the golden record and its own re-score.
    fn check(
        &mut self,
        policy: Policy,
        world: u64,
        ledger: &Ledger,
        log: &mut StepLog,
        spans: &mut Spans,
        report: &mut Report,
    ) {
        let span = spans.enter("check", "check", self.next_id);
        let key = format!("{} {world}", policy.key());
        let got = adaptive_record(ledger);
        let want = self.golden.get(&key);
        report.check(want == Some(&got), || {
            format!(
                "campaign {key}: got `{got}`, golden `{}`",
                want.map_or("<none>", |s| s)
            )
        });
        let rescored = rescore_matches(
            self.instance,
            ledger,
            world,
            &mut self.engine,
            log,
            spans,
            self.next_id,
        );
        report.check(rescored, || {
            format!("campaign {key}: score_fixed_set disagrees with the session profit")
        });
        spans.exit(span);
    }

    /// Passes over the world pool until `budget_s` is spent (at least one).
    fn window(
        &mut self,
        budget_s: f64,
        seed: u64,
        spans: &mut Spans,
        report: &mut Report,
    ) -> Window {
        let worlds = worlds();
        let mut w = Window::default();
        let t0 = Instant::now();
        let mut passes = 0u64;
        loop {
            for i in permutation(WORLDS, mix64(seed ^ passes)) {
                for policy in ADAPTIVE {
                    let steps0 = w.log.decide_ms.len() + w.log.observe_ms.len() + w.addatp_s.len();
                    let cpu0 = stats::process_cpu_s();
                    let (ledger, secs) =
                        self.session(policy, worlds[i], &mut w.log, &mut w.addatp_s, spans);
                    let cpu = stats::process_cpu_s() - cpu0;
                    let steps = w.log.decide_ms.len() + w.log.observe_ms.len() + w.addatp_s.len();
                    let entry = w.cpu.entry((policy.key(), worlds[i])).or_default();
                    entry.0.push(cpu);
                    entry.1 = steps - steps0;
                    w.session_ms.push(secs * 1e3);
                    w.profits.push(ledger.profit);
                    let rr = w.rr.entry(policy.rr_metric()).or_default();
                    rr.0 += ledger.sampling_work;
                    rr.1 += 1;
                    // Checks run outside the session's CPU and wall timing.
                    self.check(policy, worlds[i], &ledger, &mut w.log, spans, report);
                }
            }
            passes += 1;
            let elapsed = t0.elapsed().as_secs_f64();
            if elapsed + elapsed / passes as f64 > budget_s {
                break;
            }
        }
        w.wall_s = t0.elapsed().as_secs_f64();
        w
    }
}

/// `profit-bits seeds` of an adaptive outcome.
fn adaptive_record(ledger: &Ledger) -> String {
    let seeds: Vec<String> = ledger.selected.iter().map(|s| s.to_string()).collect();
    format!("{:016x} {}", ledger.profit.to_bits(), seeds.join(","))
}

/// `profit-bits #seed-count` of a nonadaptive outcome on one world.
fn nonadaptive_record(summary: &EvalSummary, i: usize) -> String {
    format!(
        "{:016x} #{}",
        summary.profits[i].to_bits(),
        summary.seeds_per_run[i]
    )
}

fn evaluate_nonadaptive_all(
    instance: &TpmInstance,
    spans: &mut Spans,
) -> Vec<(&'static str, EvalSummary, f64)> {
    let worlds = worlds();
    let mut hntp = Hntp::new(Hatp {
        seed: SEED,
        threads: THREADS,
        ..Default::default()
    });
    let theta = nsg_ndg_theta(instance.graph().num_nodes(), &ExpConfig::default());
    let mut ndg = Ndg::new(theta, SEED, THREADS);
    let policies: [(&'static str, &mut dyn NonadaptivePolicy); 2] =
        [("hntp", &mut hntp), ("ndg", &mut ndg)];
    policies
        .into_iter()
        .map(|(key, policy)| {
            let t = Instant::now();
            let summary = spans.time("core", "nonadaptive", 0, || {
                evaluate_nonadaptive(instance, policy, &worlds)
            });
            (key, summary, t.elapsed().as_secs_f64())
        })
        .collect()
}

fn parse_golden() -> BTreeMap<String, String> {
    GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let mut parts = l.splitn(3, ' ');
            let (policy, world, rest) = (parts.next()?, parts.next()?, parts.next()?);
            Some((format!("{policy} {world}"), rest.to_string()))
        })
        .collect()
}

/// Runs every (policy, world) once and returns the golden file's text.
pub fn record_golden() -> String {
    let snapshot = Snapshot::build(&snapshot_req()).expect("campaign snapshot builds");
    let mut c = Campaign {
        instance: &snapshot.instance,
        golden: BTreeMap::new(),
        engine: CascadeEngine::new(),
        next_id: 0,
    };
    let mut spans = Spans::new(Instant::now(), 0, false);
    let mut out = String::from(
        "# Outcomes of the campaign workload: `policy world profit-bits seeds`.\n\
         # Regenerate only when a change is meant to alter policy output:\n\
         # cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --record-golden > perfbench/golden/campaign.txt\n",
    );
    for world in worlds() {
        for policy in ADAPTIVE {
            let (ledger, _) = c.session(
                policy,
                world,
                &mut StepLog::default(),
                &mut Vec::new(),
                &mut spans,
            );
            out += &format!("{} {world} {}\n", policy.key(), adaptive_record(&ledger));
        }
    }
    for (key, summary, _) in evaluate_nonadaptive_all(&snapshot.instance, &mut spans) {
        for (i, world) in worlds().into_iter().enumerate() {
            out += &format!("{key} {world} {}\n", nonadaptive_record(&summary, i));
        }
    }
    out
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut spans = Spans::new(Instant::now(), 0, args.trace);
    let snapshot = set_up(&snapshot_req(), &mut spans, &mut report, |s, _, _| Ok(s))?;
    let mut c = Campaign {
        instance: &snapshot.instance,
        golden: parse_golden(),
        engine: CascadeEngine::new(),
        next_id: 0,
    };

    // Warm-up: one cheap session per world, checked but not timed.
    let mut scratch = StepLog::default();
    for world in worlds() {
        let (ledger, _) = c.session(
            Policy::ThresholdBatch,
            world,
            &mut scratch,
            &mut Vec::new(),
            &mut spans,
        );
        c.check(
            Policy::ThresholdBatch,
            world,
            &ledger,
            &mut scratch,
            &mut spans,
            &mut report,
        );
    }

    // The measured window. A traced run spends its first half untraced, so
    // the difference prices the tracing.
    let (w, overhead) = if args.trace {
        spans.set_on(false);
        let plain = c.window(args.seconds / 2.0, args.seed, &mut spans, &mut report);
        spans.set_on(true);
        let traced = c.window(args.seconds / 2.0, args.seed ^ 1, &mut spans, &mut report);
        let overhead = 100.0 * (plain.sessions_per_cpu_s() - traced.sessions_per_cpu_s())
            / plain.sessions_per_cpu_s();
        (traced, overhead)
    } else {
        (
            c.window(args.seconds, args.seed, &mut spans, &mut report),
            0.0,
        )
    };
    report.set("obs.trace_overhead_pct", overhead);

    let mut select_s = 0.0;
    for (key, summary, secs) in evaluate_nonadaptive_all(&snapshot.instance, &mut spans) {
        select_s += secs;
        for (i, world) in worlds().into_iter().enumerate() {
            let got = nonadaptive_record(&summary, i);
            let want = c.golden.get(&format!("{key} {world}"));
            report.check(want == Some(&got), || {
                format!(
                    "campaign {key} {world}: got `{got}`, golden `{}`",
                    want.map_or("<none>", |s| s)
                )
            });
        }
    }

    // A campaign "request" is one in-process protocol step.
    let sessions = w.session_ms.len();
    let steps_us: Vec<f64> = w
        .log
        .decide_ms
        .iter()
        .chain(&w.log.observe_ms)
        .map(|ms| ms * 1e3)
        .chain(w.addatp_s.iter().map(|s| s * 1e6))
        .collect();
    report.set("sessions_per_cpu_s", w.sessions_per_cpu_s());
    report.set("request_cpu_us", w.request_cpu_us());
    report.set("wall.sessions_per_s", sessions as f64 / w.wall_s);
    report.set("wall.session_p50_ms", stats::median(&w.session_ms));
    report.set("wall.session_p95_ms", stats::quantile(&w.session_ms, 0.95));
    report.set("wall.request_p50_us", stats::median(&steps_us));
    report.set("wall.request_p99_us", stats::quantile(&steps_us, 0.99));
    report.set("profit_mean", stats::mean(&w.profits));
    report.set("core.decide_ms.p50", stats::median(&w.log.decide_ms));
    report.set(
        "core.decide_ms.p99",
        stats::quantile(&w.log.decide_ms, 0.99),
    );
    report.set("core.addatp_run_s", stats::median(&w.addatp_s));
    report.set("core.nonadaptive_select_s", select_s);
    for (name, (rr, n)) in &w.rr {
        report.set(name, *rr as f64 / *n as f64);
    }
    report.set(
        "ris.rr_sets_per_s",
        w.log.decide_rr_sets as f64 / w.log.decide_s,
    );
    report.set("diffusion.observe_ms", stats::median(&w.log.observe_ms));
    report.set("diffusion.score_ms", stats::median(&w.log.score_ms));
    report.set("obs.scrape_ms", scrape_global_ms(&mut spans));
    report.notes.push(format!(
        "campaign: {sessions} sessions over {WORLDS} worlds; RR sets per session: {}",
        w.rr.iter()
            .map(|(p, (rr, n))| format!("{p}={}", rr / n))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report.trace.absorb(spans);
    Ok(report)
}

/// Median time to render and parse this process's global metrics
/// registry (where the sampler's stage timers record), milliseconds.
fn scrape_global_ms(spans: &mut Spans) -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let ok = spans.time("obs", "render", 0, || {
                let text = atpm_obs::render(&[atpm_obs::global()]);
                atpm_obs::Scrape::parse(&text).is_ok()
            });
            debug_assert!(ok, "the global registry renders parseable text");
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&times)
}
