//! `durable_fleet`: the `otune tune-serve` path through `JobEngine`.
//!
//! `CAMPAIGNS` campaigns with distinct seeds, 8 HiBench tasks each, a
//! journal on the working directory's disk under the default `every`
//! policy, a checkpoint every 4 waves, seeded OOM and straggler faults,
//! and the pinned pool width `min(2, nproc)`. Each campaign is dropped two
//! waves past a checkpoint, reopened with `JobEngine::open`, and run to
//! completion. This is the only workload where `jobs` writes, fsyncs,
//! reloads and replays its journal, and where `pool` and `core::fleet`
//! spread a wave across tasks; histories stay short, so the GP is cheap.
//!
//! With 25% of the waves checkpointing, the ack median sits among plain
//! waves and the p90 among checkpoint waves.

use crate::stats::{secs, timed, Digest, Streams};
use crate::trace::Traced;
use crate::{Ops, Replay};
use otune_core::telemetry::SyncPolicy;
use otune_core::{Objective, Telemetry};
use otune_jobs::{
    CampaignSpec, FleetSummary, ItemOutcome, JobEngine, JobEvent, Journal, JournalEntry,
};
use otune_space::{spark_space, ClusterScale};
use otune_sparksim::{hibench_task, ClusterSpec, HibenchTask, SimJob};
use std::path::{Path, PathBuf};
use std::time::Instant;

const CAMPAIGNS: u64 = 3;
const TASKS: usize = 8;
/// Waves per campaign: 108 waves per replay, so the p90 of the round trips
/// has ten samples beyond it.
const BUDGET: usize = 36;
const CHECKPOINT_EVERY: u64 = 4;
/// The wave cursor at which each campaign is dropped: two waves past the
/// checkpoint at 20, so reopening restores the checkpoint and replays two
/// journaled waves.
const DROP_AT: u64 = 22;

pub struct Durable {
    specs: Vec<CampaignSpec>,
    /// Each campaign's summary from an uninterrupted run.
    reference: Vec<FleetSummary>,
    /// Per campaign, each task's default-configuration objective (the
    /// fault-free calibration run the engine also makes).
    defaults: Vec<Vec<f64>>,
    dir: PathBuf,
}

impl Durable {
    pub fn prepare(seed: u64, dir: &Path, ops: &mut Ops) -> Result<Durable, String> {
        let specs: Vec<CampaignSpec> = (0..CAMPAIGNS)
            .map(|c| CampaignSpec {
                job_id: format!("bench-{c}"),
                n_tasks: TASKS,
                budget: BUDGET,
                seed: seed.wrapping_mul(1_000).wrapping_add(100 * c),
                checkpoint_every: CHECKPOINT_EVERY,
                fault_spec: Some("oom:0.05,straggler:0.05".to_string()),
                ..CampaignSpec::default()
            })
            .collect();
        let space = spark_space(ClusterScale::hibench());
        let defaults = specs
            .iter()
            .map(|spec| {
                HibenchTask::all()
                    .iter()
                    .take(TASKS)
                    .enumerate()
                    .map(|(i, &task)| {
                        let job = SimJob::new(ClusterSpec::hibench(), hibench_task(task))
                            .with_seed(spec.seed + i as u64);
                        let r = job.run(&space.default_configuration(), 0);
                        Objective::new(spec.beta).eval(r.runtime_s, r.resource)
                    })
                    .collect()
            })
            .collect();
        let mut reference = Vec::new();
        for (c, spec) in specs.iter().enumerate() {
            let path = dir.join(format!("reference-{c}.jsonl"));
            let mut engine = ops.run(
                "start",
                JobEngine::start_with(
                    spec.clone(),
                    &path,
                    Telemetry::disabled(),
                    SyncPolicy::from_env(),
                ),
            )?;
            let summary = ops
                .run("run_to_completion", engine.run_to_completion())?
                .clone();
            reference.push(summary);
        }
        Ok(Durable {
            specs,
            reference,
            defaults,
            dir: dir.to_path_buf(),
        })
    }

    /// Set-up: a started campaign, its spec journaled, ready to suggest.
    fn set_up(
        &self,
        c: usize,
        path: &Path,
        telemetry: Telemetry,
        ops: &mut Ops,
    ) -> Result<JobEngine, String> {
        let started = JobEngine::start_with(
            self.specs[c].clone(),
            path,
            telemetry,
            SyncPolicy::from_env(),
        );
        ops.run("start", started)
    }

    pub fn setup_once(&self, index: usize, ops: &mut Ops) -> Result<f64, String> {
        let mut total = 0.0;
        for c in 0..self.specs.len() {
            let path = self.dir.join(format!("setup-{index}-{c}.jsonl"));
            let start = Instant::now();
            let engine = self.set_up(c, &path, Telemetry::ring(1).0, ops)?;
            total += secs(start);
            drop(engine);
            let _ = std::fs::remove_file(&path);
        }
        Ok(total)
    }

    pub fn replay(&self, index: usize, traced: bool, ops: &mut Ops) -> Result<Replay, String> {
        let mut s = Streams::default();
        let mut digest = Digest::default();
        let mut out = traced.then(Traced::default);
        let mut task_iters = 0.0;
        let mut best_ratios = Vec::new();
        let policy = SyncPolicy::from_env();
        for (c, spec) in self.specs.iter().enumerate() {
            // Each traced handle gets its own trace seed: span ids derive
            // from it, and the spans of all handles are attributed together.
            let telemetry = |k: u64| {
                if traced {
                    Telemetry::ring_traced(1, 2 * c as u64 + k).0
                } else {
                    Telemetry::ring(1).0
                }
            };
            let path = self.dir.join(format!("replay-{index}-{c}.jsonl"));
            let first_handle = telemetry(0);

            let start = Instant::now();
            let mut engine = self.set_up(c, &path, first_handle.clone(), ops)?;
            s.push("setup", secs(start));
            let first = timed(&mut s, "first", || engine.suggest_wave());
            let mut live = ops.run("suggest_wave", first)?.map_or(0, |w| w.items.len());
            let mut resumed_handle = None;

            loop {
                let results =
                    ops.run("execute", timed(&mut s, "sim", || engine.execute_pending()))?;
                let start = Instant::now();
                let acked = engine.report_wave(&results);
                let ack = secs(start);
                ops.run("report_wave", acked)?;
                if engine.wave_cursor() == DROP_AT {
                    drop(engine);
                    let handle = telemetry(1);
                    let load = timed(&mut s, "journal_load", || Journal::load(&path));
                    ops.run("journal load", load)?;
                    let start = Instant::now();
                    let reopened = JobEngine::open_with(&path, handle.clone(), policy);
                    s.push("resume", secs(start));
                    engine = ops.run("open", reopened)?;
                    // Spans opened while `open` re-drove the journaled
                    // waves belong to resume_s, not to the steps.
                    resumed_handle = Some((handle.clone(), handle.traces().len()));
                }
                let start = Instant::now();
                let suggested = engine.suggest_wave();
                let suggest = secs(start);
                let next = ops.run("suggest_wave", suggested)?.map(|w| w.items.len());
                s.push("ack", ack);
                task_iters += live as f64;
                // The last report completes the campaign; the suggest after
                // it only returns `None`.
                let Some(n) = next else { break };
                s.push("wave", suggest);
                s.push("iter", ack + suggest);
                live = n;
            }

            let summary = ops
                .run(
                    "summary",
                    engine.summary().ok_or("campaign did not complete"),
                )?
                .clone();
            ops.check(
                format!("campaign {c}: resumed summary equals the uninterrupted run's"),
                summary == self.reference[c],
            );
            for task in 0..engine.n_tasks() {
                for cfg in ops.run("suggestion_trace", engine.suggestion_trace(task))? {
                    digest.add(&cfg);
                }
            }
            drop(engine);
            let load = ops.run("journal reload", Journal::load(&path))?;
            ops.check(
                format!("campaign {c}: journal reloads with 0 torn lines"),
                load.torn_lines == 0,
            );
            best_ratios.extend(task_ratios(
                &summary,
                &load.entries,
                spec,
                &self.defaults[c],
            ));
            if let Some(t) = out.as_mut() {
                t.absorb(&first_handle, 0);
                if let Some((h, skip)) = &resumed_handle {
                    t.absorb(h, *skip);
                }
            }
            let _ = std::fs::remove_file(&path);
        }
        Ok(Replay {
            streams: s,
            digest,
            task_iters,
            best_ratios,
            traced: out,
        })
    }
}

/// Each task's best feasible objective over its default configuration's.
/// The summary names the best configuration and runtime; the resource
/// comes from the journaled outcome of that run. A task that never ran
/// feasibly (dead-lettered early) has no best and no ratio.
fn task_ratios(
    summary: &FleetSummary,
    entries: &[JournalEntry],
    spec: &CampaignSpec,
    defaults: &[f64],
) -> Vec<f64> {
    let objective = Objective::new(spec.beta);
    let outcomes: Vec<&ItemOutcome> = entries
        .iter()
        .filter_map(|e| match &e.event {
            JobEvent::WaveCompleted { outcomes, .. } => Some(outcomes),
            _ => None,
        })
        .flatten()
        .collect();
    summary
        .tasks
        .iter()
        .enumerate()
        .filter_map(|(i, t)| {
            let best = outcomes.iter().find(|o| {
                o.task == i
                    && Some(&o.config) == t.best_config.as_ref()
                    && Some(o.runtime_s) == t.best_runtime_s
            })?;
            Some(objective.eval(best.runtime_s, best.resource) / defaults[i])
        })
        .collect()
}
