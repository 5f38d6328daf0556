//! Interference-filtered online-tuning benchmark for otune.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload steady_loop --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Each workload replays one deterministic campaign, built from `--seed`,
//! `R` times with every tuner, controller, engine, repository, corpus
//! handle and journal rebuilt from scratch, and every timed sample is the
//! minimum over the replays of the same step (see `README.md` for why).
//! `R` follows from `--seconds`. The last line of standard output is the
//! result object; the line before it is a detailed report.

mod durable;
mod json;
mod onboarding;
mod stats;
mod steady;
mod trace;

use json::J;
use stats::{filter_min, mean, percentile, secs, tail_percentile, Digest, Streams};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Traced;

/// The fewest replays a run filters over.
const MIN_REPLAYS: usize = 3;

/// Set-ups per run whose median is `setup_s`: at least `SETUPS`, and more
/// while under `SETUP_S` seconds in all (up to `MAX_SETUPS`), so a set-up
/// of tens of microseconds is still the median of many.
const SETUPS: usize = 9;
const SETUP_S: f64 = 0.5;
const MAX_SETUPS: usize = 1000;

const WORKLOADS: [&str; 3] = ["steady_loop", "durable_fleet", "fleet_onboarding"];

/// Operations attempted and failed. An `Err` from the program or a failed
/// output check is a failure.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Ops {
    /// Count one call; an `Err` aborts the replay.
    pub fn run<T, E: std::fmt::Display>(
        &mut self,
        what: &str,
        result: Result<T, E>,
    ) -> Result<T, String> {
        self.attempted += 1;
        result.map_err(|e| {
            self.failed += 1;
            let msg = format!("{what}: {e}");
            self.errors.push(msg.clone());
            msg
        })
    }

    /// Count one output check.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(format!("check failed: {}", what.into()));
        }
    }
}

/// One replay of a workload's campaign.
pub struct Replay {
    /// Timed samples, in seconds. The timed tuner calls are `setup`,
    /// `first` (the first suggestion), `wave` (every later suggest call)
    /// and `ack` (every report call); `iter` pairs each report with the
    /// suggest that follows it, a task's round trip from handing in a
    /// result to holding its next configuration. `resume` times
    /// recoveries; `sim` and `journal_load` are timed for the per-layer
    /// breakdown, and `warm_start` is the first report of a fleet whose
    /// tasks carry meta-features.
    pub streams: Streams,
    /// Every suggestion of the replay, in order.
    pub digest: Digest,
    /// Task-iterations: results reported to the tuners.
    pub task_iters: f64,
    /// Per task with a feasible incumbent: its best objective over its
    /// default (HiBench) or manual (production) configuration's.
    pub best_ratios: Vec<f64>,
    /// Spans and counters, when traced.
    pub traced: Option<Traced>,
}

pub enum Workload {
    Steady(steady::Steady),
    Durable(durable::Durable),
    Onboarding(onboarding::Onboarding),
}

impl Workload {
    fn prepare(name: &str, seed: u64, dir: &Path, ops: &mut Ops) -> Result<Workload, String> {
        Ok(match name {
            "steady_loop" => Workload::Steady(steady::Steady::prepare(seed)),
            "durable_fleet" => Workload::Durable(durable::Durable::prepare(seed, dir, ops)?),
            "fleet_onboarding" => {
                Workload::Onboarding(onboarding::Onboarding::prepare(seed, dir, ops)?)
            }
            other => return Err(format!("unknown workload {other:?}")),
        })
    }

    /// Set up once more, outside any replay, and return the seconds taken.
    fn setup_once(&self, index: usize, ops: &mut Ops) -> Result<f64, String> {
        match self {
            Workload::Steady(w) => Ok(w.setup_once()),
            Workload::Durable(w) => w.setup_once(index, ops),
            Workload::Onboarding(w) => w.setup_once(index, ops),
        }
    }

    /// Nominal seconds per replay on the reference host (2 vCPUs). It only
    /// turns `--seconds` into a replay count, so the filter width is the
    /// same on every commit measured with the same `--seconds`.
    fn nominal_replay_s(&self) -> f64 {
        match self {
            Workload::Steady(_) => 9.0,
            Workload::Durable(_) => 5.0,
            Workload::Onboarding(_) => 6.5,
        }
    }

    fn replay(&self, index: usize, traced: bool, ops: &mut Ops) -> Result<Replay, String> {
        match self {
            Workload::Steady(w) => w.replay(traced, ops),
            Workload::Durable(w) => w.replay(index, traced, ops),
            Workload::Onboarding(w) => w.replay(index, traced, ops),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => out.workload = value,
            "--seed" => out.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => out.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => out.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if out.workload != "all" && !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?} or all, got {:?}",
            out.workload
        ));
    }
    Ok(out)
}

/// Pin every `OTUNE_*` knob the measured paths read to its default, so the
/// caller's environment cannot change what is measured. The pool width is
/// the one exception: it is pinned to `min(2, nproc)`, the width every
/// workload is specified at, rather than the machine's full parallelism.
/// Runs before any thread exists.
fn pin_environment(nproc: usize) -> BTreeMap<&'static str, String> {
    let pinned = BTreeMap::from([
        ("OTUNE_THREADS", nproc.min(2).to_string()),
        ("OTUNE_SHARDS", "8".to_string()),
        ("OTUNE_SIMD", "1".to_string()),
        ("OTUNE_INCREMENTAL", "1".to_string()),
        ("OTUNE_SPARSE_GP", "0".to_string()),
        ("OTUNE_JOURNAL_SYNC", "every".to_string()),
        ("OTUNE_JOURNAL_SEGMENT_BYTES", "8388608".to_string()),
        ("OTUNE_POOL_CUTOFF_NS", "400000".to_string()),
    ]);
    for (k, v) in &pinned {
        std::env::set_var(k, v);
    }
    std::env::remove_var(otune_jobs::CRASH_ENV);
    pinned
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = pin_environment(nproc);
    let root = PathBuf::from(".perfbench_work").join(format!("run-{}", std::process::id()));
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut total = Outcome::default();
    for name in &names {
        let dir = root.join(name);
        let result = std::fs::create_dir_all(&dir)
            .map_err(|e| format!("work directory {}: {e}", dir.display()))
            .and_then(|()| run_workload(name, &args, &dir, nproc, &env));
        let _ = std::fs::remove_dir_all(&dir);
        match result {
            Ok(o) => {
                total.correct &= o.correct;
                total.attempted += o.attempted;
                total.failed += o.failed;
                // `--workload all` keys each metric `<workload>.<metric>`.
                let prefix = if names.len() > 1 {
                    format!("{name}.")
                } else {
                    String::new()
                };
                for (k, v, u) in o.metrics {
                    total.metrics.push((format!("{prefix}{k}"), v, u));
                }
            }
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                let _ = std::fs::remove_dir_all(&root);
                let _ = std::fs::remove_dir(".perfbench_work");
                std::process::exit(1);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir(".perfbench_work");
    println!("{}", total.to_json());
    std::process::exit(if total.correct { 0 } else { 1 });
}

/// The result object: the last line of standard output.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }
}

impl Outcome {
    fn metrics_json(&self) -> J {
        J::Obj(
            self.metrics
                .iter()
                .map(|(k, v, u)| {
                    (
                        k.clone(),
                        J::obj().with("value", J::Num(*v)).with("unit", J::from(*u)),
                    )
                })
                .collect(),
        )
    }

    fn to_json(&self) -> J {
        J::obj()
            .with("correct", J::Bool(self.correct))
            .with("attempted", J::Int(self.attempted))
            .with("failed", J::Int(self.failed))
            .with("metrics", self.metrics_json())
    }
}

type Metrics = Vec<(String, f64, &'static str)>;

/// Sample-count and percentile summary of a pooled stream, in ms.
fn describe(s: &[f64]) -> J {
    let obj = J::obj().with("samples", J::from(s.len()));
    if s.is_empty() {
        return obj;
    }
    obj.with("p50_ms", J::Num(percentile(s, 50.0) * 1e3))
        .with("p90_ms", J::Num(percentile(s, 90.0) * 1e3))
        .with("p95_ms", J::Num(percentile(s, 95.0) * 1e3))
        .with("mean_ms", J::Num(mean(s) * 1e3))
        .with("sum_s", J::Num(s.iter().sum::<f64>()))
}

/// Run one workload: prepare its inputs, measure, check, print the
/// detailed report line, and return the outcome.
fn run_workload(
    name: &str,
    args: &Args,
    dir: &Path,
    nproc: usize,
    env: &BTreeMap<&'static str, String>,
) -> Result<Outcome, String> {
    let mut ops = Ops::default();
    let workload = Workload::prepare(name, args.seed, dir, &mut ops)?;
    let mut report = J::obj()
        .with("workload", J::from(name))
        .with("seed", J::Int(args.seed))
        .with("nproc", J::from(nproc))
        .with(
            "env",
            J::Obj(
                env.iter()
                    .map(|(k, v)| (k.to_string(), J::from(v.as_str())))
                    .collect(),
            ),
        )
        .with(
            "resume_catch_up",
            J::from(
                "OnlineTuner::resume replays a tuner's history with telemetry disabled, so \
                 resume_s is split only from outside: jobs.journal_load_ms is a separately \
                 timed Journal::load and core.resume_ms the rest",
            ),
        );
    let (correct, metrics) = if args.trace {
        measure_traced(&workload, &mut ops, &mut report)
    } else {
        measure(&workload, args.seconds, &mut ops, &mut report)
    };
    let outcome = Outcome {
        correct: correct && ops.failed == 0,
        attempted: ops.attempted,
        failed: ops.failed,
        metrics,
    };
    report.set("metrics", outcome.metrics_json());
    report.set(
        "errors",
        J::Arr(ops.errors.iter().map(|e| J::from(e.as_str())).collect()),
    );
    println!("{}", J::obj().with("report", report));
    Ok(outcome)
}

/// `R` untraced replays, `R = max(3, seconds / nominal replay time)`,
/// filtered per index. A run on a host much slower than the reference
/// stops adding replays once it has used twice `seconds`, so it still
/// ends in time; the report states the `R` it reached.
fn measure(workload: &Workload, seconds: f64, ops: &mut Ops, report: &mut J) -> (bool, Metrics) {
    let planned = MIN_REPLAYS.max((seconds / workload.nominal_replay_s()) as usize);
    let start = Instant::now();
    let mut replays: Vec<Replay> = Vec::with_capacity(planned);
    let mut setups = Vec::new();
    while replays.len() < planned && (replays.len() < MIN_REPLAYS || secs(start) < 2.0 * seconds) {
        match workload.replay(replays.len(), false, ops) {
            Ok(r) => replays.push(r),
            Err(_) => return (false, Vec::new()),
        }
        // A batch of set-ups after each replay, so set-up is sampled
        // across the whole run like every other step.
        let batch_start = Instant::now();
        let mut batch = 0;
        while batch < SETUPS.div_ceil(planned)
            || (secs(batch_start) < SETUP_S / planned as f64 && setups.len() < MAX_SETUPS)
        {
            match workload.setup_once(setups.len(), ops) {
                Ok(s) => setups.push(s),
                Err(_) => return (false, Vec::new()),
            }
            batch += 1;
        }
    }
    let measured_s = secs(start);
    let (digest, ratios) = (replays[0].digest, &replays[0].best_ratios);
    for r in &replays {
        ops.check(
            "replays yield bitwise-identical suggestion traces",
            r.digest == digest,
        );
        ops.check("best_ratio repeats exactly", r.best_ratios == *ratios);
    }
    // Geometric mean: per-task ratios are skewed (a task whose tuned
    // configurations all lose to its default reads well above 1), and the
    // mean of logs keeps one such task from dominating.
    let best_ratio = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
    let streams: Vec<Streams> = replays.iter().map(|r| r.streams.clone()).collect();
    let filtered = match filter_min(&streams) {
        Ok(f) => f,
        Err(e) => {
            ops.check(e, false);
            return (false, Vec::new());
        }
    };

    let iter = filtered.get("iter");
    let tail = tail_percentile(iter.len());
    let samples = [
        setups.len(),
        iter.len(),
        iter.len(),
        filtered.get("wave").len(),
        filtered.get("resume").len(),
        replays[0].task_iters as usize,
        ratios.len(),
    ];
    let metrics: Metrics = vec![
        ("setup_s".into(), percentile(&setups, 50.0), "s"),
        ("iter_p50_ms".into(), percentile(iter, 50.0) * 1e3, "ms"),
        ("iter_tail_ms".into(), percentile(iter, tail) * 1e3, "ms"),
        (
            "wave_p50_ms".into(),
            percentile(filtered.get("wave"), 50.0) * 1e3,
            "ms",
        ),
        ("resume_s".into(), mean(filtered.get("resume")), "s"),
        (
            "task_iters_per_s".into(),
            replays[0].task_iters / tuner_calls_s(&filtered),
            "1/s",
        ),
        ("best_ratio".into(), best_ratio, "ratio"),
    ];
    for (k, v, _) in &metrics {
        ops.check(format!("{k} is finite and > 0"), v.is_finite() && *v > 0.0);
    }

    report.set(
        "samples",
        J::Obj(
            metrics
                .iter()
                .zip(samples)
                .map(|((k, _, _), n)| (k.clone(), J::from(n)))
                .collect(),
        ),
    );
    report.set("replays", J::from(replays.len()));
    report.set("measured_s", J::Num(measured_s));
    report.set("setups", describe(&setups));
    report.set(
        "replay_iter_s",
        J::Arr(
            replays
                .iter()
                .map(|r| J::Num(r.streams.sum("iter")))
                .collect(),
        ),
    );
    report.set("digest", J::from(format!("{:016x}", digest.0)));
    report.set("iter_tail_percentile", J::Num(tail));
    report.set("task_iterations", J::Num(replays[0].task_iters));
    report.set(
        "streams",
        J::Obj(
            filtered
                .0
                .iter()
                .map(|(k, v)| (k.to_string(), describe(v)))
                .collect(),
        ),
    );
    (true, metrics)
}

/// Seconds of timed tuner calls after set-up: suggests and reports.
fn tuner_calls_s(s: &Streams) -> f64 {
    s.sum("first") + s.sum("wave") + s.sum("ack")
}

/// The traced run: untraced and traced replays alternate twice. Per-layer
/// times are per task-iteration, the smaller of the two traced replays'
/// values; counts must repeat exactly between them.
fn measure_traced(workload: &Workload, ops: &mut Ops, report: &mut J) -> (bool, Metrics) {
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for i in 0..4 {
        match workload.replay(i, i % 2 == 1, ops) {
            Ok(r) if i % 2 == 1 => traced.push(r),
            Ok(r) => untraced.push(r),
            Err(_) => return (false, Vec::new()),
        }
    }
    let digest = untraced[0].digest;
    for r in untraced.iter().chain(&traced) {
        ops.check(
            "traced and untraced replays yield identical suggestion traces",
            r.digest == digest,
        );
    }
    let timed = |r: &Replay| r.streams.sum("setup") + tuner_calls_s(&r.streams);
    let min_of = |rs: &[Replay]| rs.iter().map(timed).fold(f64::INFINITY, f64::min);
    let overhead = min_of(&traced) / min_of(&untraced);

    let mut layers: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut counts: Vec<BTreeMap<&'static str, u64>> = Vec::new();
    let mut coverage = Vec::new();
    for r in &traced {
        let t = r.traced.as_ref().expect("traced replay carries spans");
        ops.check("spans_dropped is 0", t.spans_dropped == 0);
        let per_iter = |s: f64| s * 1e3 / r.task_iters;
        let wall = timed(r);
        let st = &r.streams;
        let by_layer = t.layer_seconds(
            st.sum("setup"),
            st.sum("first") + st.sum("wave"),
            st.sum("ack"),
        );
        let untraced: f64 = by_layer
            .iter()
            .filter(|(k, _)| k.starts_with("untraced."))
            .map(|(_, v)| v)
            .sum();
        coverage.push(1.0 - untraced / wall);
        let mut m: BTreeMap<String, f64> = by_layer
            .into_iter()
            .map(|(k, v)| (k.to_string(), per_iter(v)))
            .collect();
        let calls = |s: &str| per_iter(r.streams.sum(s));
        m.insert("core.suggest_ms".into(), calls("wave"));
        m.insert("core.observe_ms".into(), calls("ack"));
        m.insert("sparksim.run_ms".into(), calls("sim"));
        m.insert("jobs.journal_load_ms".into(), calls("journal_load"));
        m.insert(
            "core.resume_ms".into(),
            calls("resume") - calls("journal_load"),
        );
        layers.push(m);
        counts.push(t.deterministic_counts());
    }
    ops.check(
        "deterministic counts repeat exactly between traced replays",
        counts[0] == counts[1],
    );

    let mut metrics: Metrics = layers[0]
        .iter()
        .map(|(k, v)| (k.clone(), v.min(layers[1][k]), "ms"))
        .collect();
    let t = traced[0].traced.as_ref().expect("traced");
    let c = &counts[0];
    let waves = t.counter(otune_core::telemetry::metric::JOB_WAVES).max(1) as f64;
    for k in [
        "gp.hyper_searches",
        "gp.full_refits",
        "gp.incremental_updates",
        "forest.fanova_refits",
        "meta.base_fits",
        "meta.similarity_refits",
        "meta.retrieval_hits",
        "jobs.checkpoint_bytes",
    ] {
        let unit = if k.ends_with("bytes") {
            "bytes"
        } else {
            "count"
        };
        metrics.push((k.into(), c[k] as f64, unit));
    }
    metrics.push((
        "jobs.fsyncs_per_wave".into(),
        c["jobs.fsyncs"] as f64 / waves,
        "count",
    ));
    metrics.push((
        "jobs.bytes_per_wave".into(),
        c["jobs.bytes"] as f64 / waves,
        "bytes",
    ));
    metrics.push((
        "pool.parallel_maps".into(),
        t.parallel_maps() as f64,
        "count",
    ));
    metrics.push(("telemetry.trace_overhead".into(), overhead, "ratio"));
    let cov = coverage.iter().copied().fold(f64::INFINITY, f64::min);
    metrics.push(("telemetry.traced_share".into(), cov, "ratio"));

    report.set("task_iterations", J::Num(traced[0].task_iters));
    report.set(
        "unmapped_spans",
        J::Arr(t.unmapped().into_iter().map(J::from).collect()),
    );
    (true, metrics)
}
