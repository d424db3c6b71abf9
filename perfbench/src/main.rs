//! The repository's benchmark: three workloads, each run end to end, with
//! a traced mode that attributes the time to layers.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, with the end-to-end
//! metrics under `--trace 0` and the per-layer ones under `--trace 1`.
//! Lines before it start with `#` and restate the run for a human. See
//! `perfbench/README.md` for the workloads and what each metric shows.

mod campaign;
mod drive;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use atpm_core::setup::{calibrated_instance, CalibrationConfig};
use atpm_core::{CostSplit, TpmInstance};
use atpm_graph::gen::Dataset;
use atpm_serve::protocol::{SnapshotReq, SnapshotSource};
use atpm_serve::{Json, Snapshot};

use crate::trace::{Spans, Trace};

/// Sampler threads of every policy and snapshot. Policy output depends on
/// the thread count (it fixes the number of sampling streams), so it is
/// pinned, not taken from the machine.
pub const THREADS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// End-to-end metrics, reported under `--trace 0`. Their time base is the
/// process CPU clock (client and server threads together), which does not
/// count time the hypervisor steals; wall-clock figures vary by a fifth or
/// more from run to run on a shared machine and are reported by the traced
/// run instead (`wall.*`).
pub const END_TO_END: [(&str, &str); 6] = [
    ("sessions_per_cpu_s", "1/s"),
    ("request_cpu_us", "us"),
    ("profit_mean", "profit"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_ratio", "ratio"),
];

/// Per-layer metrics, reported under `--trace 1`. A layer the workload
/// does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("wall.sessions_per_s", "1/s"),
    ("wall.session_p50_ms", "ms"),
    ("wall.session_p95_ms", "ms"),
    ("wall.request_p50_us", "us"),
    ("wall.request_p99_us", "us"),
    ("core.decide_ms.p50", "ms"),
    ("core.decide_ms.p99", "ms"),
    ("core.addatp_run_s", "s"),
    ("core.nonadaptive_select_s", "s"),
    ("ris.rr_sets_per_session.hatp", "count"),
    ("ris.rr_sets_per_session.threshold_batch", "count"),
    ("ris.rr_sets_per_session.addatp", "count"),
    ("ris.rr_sets_per_s", "1/s"),
    ("diffusion.observe_ms", "ms"),
    ("diffusion.score_ms", "ms"),
    ("graph.generate_s", "s"),
    ("im.calibrate_s", "s"),
    ("serve.snapshot_build_s", "s"),
    ("serve.request_us.p50", "us"),
    ("serve.request_us.p99", "us"),
    ("serve.route_us.create", "us"),
    ("serve.route_us.next", "us"),
    ("serve.route_us.observe", "us"),
    ("serve.route_us.ledger", "us"),
    ("serve.route_us.delete", "us"),
    ("net.queue_wait_us", "us"),
    ("net.wire_us.create", "us"),
    ("net.wire_us.next", "us"),
    ("net.wire_us.observe", "us"),
    ("net.wire_us.ledger", "us"),
    ("net.wire_us.delete", "us"),
    ("journal.append_us", "us"),
    ("journal.fsync_us", "us"),
    ("journal.appends_per_fsync", "count"),
    ("obs.scrape_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
    ("self_s.bench", "s"),
    ("self_s.core", "s"),
    ("self_s.diffusion", "s"),
    ("self_s.graph", "s"),
    ("self_s.im", "s"),
    ("self_s.serve", "s"),
    ("self_s.net", "s"),
    ("self_s.obs", "s"),
    ("self_s.check", "s"),
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload campaign|serve-light|serve-durable \
--seed N --seconds S --trace 0|1\n       perfbench --record-golden";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace '{other}' (want 0 or 1)")),
                }
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if !["campaign", "serve-light", "serve-durable"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    Ok(args)
}

/// What a workload run measured.
#[derive(Default)]
pub struct Report {
    /// Operations attempted and failed; a failed output check counts.
    pub attempted: u64,
    pub failed: u64,
    /// Metric values by name; names not set read 0.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Every thread's spans (traced runs only).
    pub trace: Trace,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|(n, _)| *n == name),
            "{name} is not a declared metric"
        );
        self.metrics.insert(name, value);
    }

    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                self.notes.push(format!("FAILED: {}", what()));
            }
        }
    }
}

/// Sets up [`SETUP_REPS`] times and keeps the last result. Each rep times
/// the graph generation and calibration the snapshot performs (standalone
/// calls with the snapshot's own parameters, for attribution), then builds
/// the snapshot and passes it to `finish` (which boots a server, for the
/// serve workloads). `setup_s` is the process CPU time of snapshot build
/// plus `finish`; the layer attributions are wall-clock.
pub fn set_up<T>(
    req: &SnapshotReq,
    spans: &mut Spans,
    report: &mut Report,
    mut finish: impl FnMut(Snapshot, usize, &mut Spans) -> Result<T, String>,
) -> Result<T, String> {
    let (mut setup_s, mut graph_s, mut calibrate_s, mut snapshot_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        // Drop the previous rep's result first, so peak memory holds one.
        drop(kept.take());
        let (graph, calibrate) = time_graph_and_calibration(req, spans);
        graph_s.push(graph);
        calibrate_s.push(calibrate);
        let cpu = stats::process_cpu_s();
        let t = Instant::now();
        let snapshot = spans
            .time("serve", "snapshot_build", 0, || Snapshot::build(req))
            .map_err(|e| format!("snapshot build: {e}"))?;
        snapshot_s.push(t.elapsed().as_secs_f64());
        kept = Some(finish(snapshot, rep, spans)?);
        setup_s.push(stats::process_cpu_s() - cpu);
    }
    report.set("setup_s", stats::median(&setup_s));
    report.set("graph.generate_s", stats::median(&graph_s));
    report.set("im.calibrate_s", stats::median(&calibrate_s));
    report.set("serve.snapshot_build_s", stats::median(&snapshot_s));
    Ok(kept.expect("SETUP_REPS > 0"))
}

fn time_graph_and_calibration(req: &SnapshotReq, spans: &mut Spans) -> (f64, f64) {
    let SnapshotSource::Preset { dataset, scale } = &req.source else {
        unreachable!("the benchmark builds preset snapshots only");
    };
    let dataset = Dataset::parse(dataset).expect("known preset");
    let t = Instant::now();
    let graph = spans.time("graph", "generate", 0, || {
        dataset.generate(*scale, req.seed)
    });
    let graph_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let instance: TpmInstance = spans.time("im", "calibrate", 0, || {
        calibrated_instance(
            graph,
            req.k,
            CostSplit::DegreeProportional,
            CalibrationConfig {
                lb_theta: req.rr_theta.clamp(1_000, 400_000),
                seed: req.seed,
                threads: req.threads,
                ..Default::default()
            },
        )
    });
    let calibrate_s = t.elapsed().as_secs_f64();
    drop(instance);
    (graph_s, calibrate_s)
}

/// A deterministic 64-bit mix (splitmix64 finalizer).
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// `0..n` shuffled by `seed` (Fisher–Yates over [`mix64`]).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state = mix64(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order
}

/// A scratch directory inside the working directory, removed on drop.
pub struct ScratchDir(pub std::path::PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> Result<ScratchDir, String> {
        let path = std::path::Path::new(".bench_tmp").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removes the parent only when no other run is using it.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

fn print_result(args: &Args, report: &Report) {
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} sampler_threads={THREADS} nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    for note in &report.notes {
        println!("# {note}");
    }
    println!(
        "# ops_attempted={} ops_failed={}",
        report.attempted, report.failed
    );
    let mut metrics = BTreeMap::new();
    for &(name, unit) in declared {
        let value = report.metrics.get(name).copied().unwrap_or(0.0);
        println!("# {name} = {value} {unit}");
        metrics.insert(
            name.to_string(),
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.into())),
            ]),
        );
    }
    let all_finite = metrics.values().all(|m| {
        m.get("value")
            .and_then(Json::as_f64)
            .is_some_and(f64::is_finite)
    });
    let result = Json::obj([
        (
            "correct",
            Json::Bool(report.failed == 0 && report.attempted > 0 && all_finite),
        ),
        ("attempted", Json::UInt(report.attempted.max(1))),
        ("failed", Json::UInt(report.failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.encode());
}

/// Spans written to the Chrome trace at most; self times use them all.
const TRACE_DUMP_CAP: usize = 100_000;

fn write_trace(args: &Args, report: &Report) -> Result<(), String> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.json", args.workload));
    let meta = vec![
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::UInt(args.seed)),
        ("sampler_threads", Json::UInt(THREADS as u64)),
    ];
    let write = || -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        report
            .trace
            .write_chrome_json(&mut out, meta, TRACE_DUMP_CAP)?;
        out.flush()
    };
    write().map_err(|e| format!("write {}: {e}", path.display()))
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("--record-golden") {
        print!("{}", campaign::record_golden());
        return;
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "campaign" => campaign::run(&args),
        "serve-light" => serve::run(&args, serve::Kind::Light),
        _ => serve::run(&args, serve::Kind::Durable),
    };
    let mut report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    report.set("peak_rss_mb", stats::peak_rss_mb());
    report.set(
        "ok_ratio",
        1.0 - report.failed as f64 / report.attempted.max(1) as f64,
    );
    if args.trace {
        for (layer, secs) in report.trace.self_seconds() {
            match PER_LAYER
                .iter()
                .find(|(n, _)| n.strip_prefix("self_s.") == Some(layer))
            {
                Some((name, _)) => report.set(name, secs),
                None => report
                    .notes
                    .push(format!("span layer {layer} has no metric")),
            }
        }
        if let Err(e) = write_trace(&args, &report) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
    print_result(&args, &report);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names and units this binary reports are the ones
    /// `BENCHMARK.json` declares.
    #[test]
    fn metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, declared) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = json
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Json::as_str).expect("name and unit");
                    (field("name").to_string(), field("unit").to_string())
                })
                .collect();
            let want: Vec<(String, String)> = declared
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, want, "{key}");
        }
    }

    #[test]
    fn permutation_is_a_seeded_shuffle() {
        let p = permutation(16, 7);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
        assert_eq!(p, permutation(16, 7));
        assert_ne!(p, permutation(16, 8));
    }

    #[test]
    fn args_reject_unknown_input() {
        let s = |v: &[&str]| v.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert!(parse_args(&s(&["--workload", "nope"])).is_err());
        assert!(parse_args(&s(&["--workload", "campaign", "--trace", "2"])).is_err());
        let a = parse_args(&s(&[
            "--workload",
            "serve-light",
            "--seed",
            "9",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!((a.seed, a.trace), (9, true));
    }
}
