//! Per-layer breakdown of a traced replay.
//!
//! The program's own spans (switched on through `Telemetry::ring_traced`)
//! are summed into exclusive time per span with `attribute`, and each span
//! name is assigned to the crate that opens it. This file adds no span to
//! the program: work that has no span shows up as `untraced.*_ms`, the
//! timed wall time of set-up, suggest and report calls that no root span
//! covers. On `durable_fleet` the report share is the job engine and its
//! journal; on `fleet_onboarding` it is the similarity refit, the tuner
//! rebuild at injection and the corpus appends.

use otune_core::telemetry::{attribute, metric, SpanRecord, Telemetry};
use std::collections::{BTreeMap, HashMap, HashSet};

/// The layer each of the program's span names belongs to; `None` for a
/// name this file does not know yet (listed in the report).
fn layer_of(span: &str) -> Option<&'static str> {
    Some(match span {
        "eic_maximize" | "candidate_gen" | "safe_screen" | "eic_score" => "bo.eic_ms",
        "agd" => "bo.agd_ms",
        "gp_full_fit" | "gp_update" | "gp_sparse_fit" | "hyper_search" | "hyper_candidate"
        | "kernel_assembly" | "posterior_refresh" => "gp.fit_ms",
        "chol_factor" | "chol_extend" | "chol_solve_batch" => "linalg.chol_ms",
        "fanova_refresh" => "forest.fanova_ms",
        "meta_ensemble" | "base_fit" | "target_weight" => "meta.ensemble_ms",
        "warm_start" | "retrieval" => "meta.warm_start_ms",
        "subspace" => "core.subspace_ms",
        "suggest" | "observe" => "core.tuner_ms",
        "fleet_wave_suggest" | "fleet_wave_report" | "shard" | "task" => "core.fleet_ms",
        "sim_run" => "sparksim.run_ms",
        _ => return None,
    })
}

/// The call family a root span was opened in.
fn family_of(root: &str) -> &'static str {
    match root {
        "suggest" | "fleet_wave_suggest" => "untraced.suggest_ms",
        "retrieval" => "untraced.setup_ms",
        _ => "untraced.report_ms",
    }
}

/// Every time layer, so each is reported (as 0 on a workload that never
/// enters it).
const LAYERS: [&str; 14] = [
    "bo.eic_ms",
    "bo.agd_ms",
    "gp.fit_ms",
    "linalg.chol_ms",
    "forest.fanova_ms",
    "meta.ensemble_ms",
    "meta.warm_start_ms",
    "core.subspace_ms",
    "core.tuner_ms",
    "core.fleet_ms",
    "sparksim.run_ms",
    "untraced.setup_ms",
    "untraced.suggest_ms",
    "untraced.report_ms",
];

/// What one traced replay hands back: its spans (minus those opened inside
/// a timed resume, which `resume_s` covers as a whole) and the summed
/// metric registries of its telemetry handles.
#[derive(Debug, Default)]
pub struct Traced {
    pub spans: Vec<SpanRecord>,
    pub counters: BTreeMap<String, u64>,
    pub spans_dropped: u64,
}

impl Traced {
    /// Fold a telemetry handle in, keeping its spans from `skip` on.
    pub fn absorb(&mut self, telemetry: &Telemetry, skip: usize) {
        self.spans.extend(telemetry.traces().into_iter().skip(skip));
        self.spans_dropped += telemetry.traces_dropped();
        if let Some(snap) = telemetry.snapshot() {
            for (k, v) in snap.counters {
                *self.counters.entry(k).or_default() += v;
            }
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Exclusive seconds per layer, and per call family the timed wall
    /// time (`setup_s`, `suggest_s`, `report_s`) that no root span covers.
    pub fn layer_seconds(
        &self,
        setup_s: f64,
        suggest_s: f64,
        report_s: f64,
    ) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|l| (*l, 0.0)).collect();
        for row in &attribute(&self.spans).rows {
            if let Some(layer) = layer_of(&row.name) {
                *out.entry(layer).or_default() += row.exclusive_ns as f64 * 1e-9;
            }
        }
        out.insert("untraced.setup_ms", setup_s);
        out.insert("untraced.suggest_ms", suggest_s);
        out.insert("untraced.report_ms", report_s);
        let ids: HashSet<(u64, u64)> = self.spans.iter().map(|s| (s.trace_id, s.span_id)).collect();
        for s in &self.spans {
            if s.parent_id == 0 || !ids.contains(&(s.trace_id, s.parent_id)) {
                *out.entry(family_of(&s.name)).or_default() -= s.dur_ns as f64 * 1e-9;
            }
        }
        for family in [
            "untraced.setup_ms",
            "untraced.suggest_ms",
            "untraced.report_ms",
        ] {
            let v = out.entry(family).or_default();
            *v = v.max(0.0);
        }
        out
    }

    /// Span names with no layer, which a new span in the program would
    /// show up as until `layer_of` learns it.
    pub fn unmapped(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .spans
            .iter()
            .filter(|s| layer_of(&s.name).is_none())
            .map(|s| s.name.clone())
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// Span count per name (deterministic: refits, base fits).
    pub fn span_count(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
    }

    /// Pool maps that ran in parallel, as the trace shows them: parent
    /// spans with at least one child span on another thread. A width-1
    /// pool runs every map on the caller, so this is 0 there.
    pub fn parallel_maps(&self) -> u64 {
        let worker: HashMap<(u64, u64), u64> = self
            .spans
            .iter()
            .map(|s| ((s.trace_id, s.span_id), s.worker))
            .collect();
        let mut parents: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| {
                worker
                    .get(&(s.trace_id, s.parent_id))
                    .is_some_and(|&w| w != s.worker)
            })
            .map(|s| (s.trace_id, s.parent_id))
            .collect();
        parents.sort_unstable();
        parents.dedup();
        parents.len() as u64
    }

    /// The deterministic counts a rerun of the same replay must repeat.
    pub fn deterministic_counts(&self) -> BTreeMap<&'static str, u64> {
        BTreeMap::from([
            ("gp.hyper_searches", self.counter(metric::GP_HYPER_SEARCHES)),
            (
                "gp.full_refits",
                self.counter(metric::SURROGATE_FULL_REFITS),
            ),
            (
                "gp.incremental_updates",
                self.counter(metric::SURROGATE_INCREMENTAL_UPDATES),
            ),
            ("forest.fanova_refits", self.span_count("fanova_refresh")),
            ("meta.base_fits", self.span_count("base_fit")),
            (
                "meta.similarity_refits",
                self.counter(metric::SIMILARITY_REFITS),
            ),
            ("meta.retrieval_hits", self.counter(metric::RETRIEVAL_HITS)),
            ("jobs.fsyncs", self.counter(metric::JOURNAL_FSYNCS)),
            ("jobs.bytes", self.counter(metric::JOURNAL_BYTES)),
            (
                "jobs.checkpoint_bytes",
                self.counter(metric::CHECKPOINT_FULL_BYTES)
                    + self.counter(metric::CHECKPOINT_DELTA_BYTES),
            ),
        ])
    }
}
