//! `fleet_onboarding`: the meta path, as `otune tune-fleet --corpus` runs it.
//!
//! The fleet starts from a persisted `DataRepository` and `TuningCorpus`
//! of `HISTORY` historical production tasks, large enough that loading
//! them takes tens of milliseconds. `NEW_TASKS` new production tasks are
//! registered with `create_task_with_features` (their calibration run's
//! meta-features query the corpus for a retrieval bootstrap). Their first
//! `report_results` carries meta-features, which triggers the similarity
//! refit and the warm-start/ensemble injection. Then `WAVES` waves run
//! through `request_configs`/`report_results` at the pinned pool width.
//! Only here does `meta` do most of the work. After `RESUME_AFTER` waves
//! `RESUMED_TASKS` warm-started tasks are restored from their snapshots
//! with `restore_task`, replaying their history against the meta
//! ensemble.

use crate::stats::{secs, timed, Digest, Streams};
use crate::trace::Traced;
use crate::{Ops, Replay};
use otune_bo::Observation;
use otune_core::fleet::{FleetOptions, FleetReport, FleetRequest};
use otune_core::telemetry::SyncPolicy;
use otune_core::{
    DataRepository, Objective, OnlineTuneController, TaskHandle, Telemetry, TunerOptions,
};
use otune_meta::{extract_meta_features, CorpusRecord, TuningCorpus};
use otune_sparksim::{ProductionTask, ProductionTaskGenerator, SimJob};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The production population is part of the workload, like the HiBench
/// task list of the other two: `--seed` drives the run's randomness (tuner
/// seed, simulator noise, the historical tasks' sampled configurations),
/// not which tasks exist.
const POPULATION_SEED: u64 = 2023;
const HISTORY: u64 = 32;
/// Runs per historical task: the manual configuration plus random ones.
const HISTORY_RUNS: u64 = 40;
const NEW_TASKS: usize = 16;
const WAVES: u64 = 20;
const RESUME_AFTER: u64 = 9;
const RESUMED_TASKS: usize = 4;
const BETA: f64 = 0.5;

pub struct Onboarding {
    seed: u64,
    dir: PathBuf,
    tasks: Vec<NewTask>,
}

struct NewTask {
    id: String,
    task: ProductionTask,
    job: SimJob,
    features: Vec<f64>,
    t_max: f64,
    /// Objective of the manual configuration's calibration run.
    manual: f64,
}

impl Onboarding {
    pub fn prepare(seed: u64, dir: &Path, ops: &mut Ops) -> Result<Onboarding, String> {
        let generator = ProductionTaskGenerator::new(POPULATION_SEED);
        let objective = Objective::new(BETA);
        let repository = DataRepository::new();
        let corpus_path = dir.join("corpus.jsonl");
        let mut corpus = ops.run("corpus open", TuningCorpus::open(&corpus_path))?;
        ops.run("corpus policy", corpus.set_sync_policy(SyncPolicy::Barrier))?;
        for h in 0..HISTORY {
            let task = generator.generate_one(h);
            let job = task.job().with_seed(seed ^ task.id);
            let space = task.space();
            let calibration = job.run(&task.manual_config, 0);
            let features = extract_meta_features(&calibration.event_log);
            let id = format!("history-{h}");
            let mut rng = StdRng::seed_from_u64(seed ^ (h << 32));
            for run in 0..HISTORY_RUNS {
                let config = if run == 0 {
                    task.manual_config.clone()
                } else {
                    space.sample(&mut rng)
                };
                let r = job.run(&config, run + 1);
                let failed = r.status.is_failure() || r.runtime_s > 2.0 * calibration.runtime_s;
                let value = objective.eval(r.runtime_s, r.resource);
                repository.record_observation(
                    &id,
                    Observation {
                        config: config.clone(),
                        objective: value,
                        runtime: r.runtime_s,
                        resource: r.resource,
                        context: Vec::new(),
                        failed,
                    },
                );
                let record = CorpusRecord {
                    task_id: id.clone(),
                    meta_features: features.clone(),
                    config,
                    objective: value,
                    runtime: r.runtime_s,
                    resource: r.resource,
                    failed,
                };
                ops.run("corpus append", corpus.append(record))?;
            }
            repository.set_meta_features(&id, features);
        }
        ops.run("corpus stats", corpus.persist_stats())?;
        ops.run(
            "repository export",
            std::fs::write(dir.join("repository.json"), repository.export_json()),
        )?;
        drop(corpus);
        let reopened = ops.run("corpus reopen", TuningCorpus::open(&corpus_path))?;
        ops.check(
            "historical corpus reloads with 0 torn lines",
            reopened.torn_lines() == 0,
        );

        let tasks = (0..NEW_TASKS)
            .map(|i| {
                let task = generator.generate_one(1_000_000 + i as u64);
                let job = task.job().with_seed(seed ^ task.id);
                let calibration = job.run(&task.manual_config, 0);
                NewTask {
                    id: format!("new-{i}"),
                    features: extract_meta_features(&calibration.event_log),
                    t_max: 2.0 * calibration.runtime_s,
                    manual: objective.eval(calibration.runtime_s, calibration.resource),
                    job,
                    task,
                }
            })
            .collect();
        Ok(Onboarding {
            seed,
            dir: dir.to_path_buf(),
            tasks,
        })
    }

    /// Set-up: repository import, corpus open, controller and task
    /// registration, until the first wave can be requested. The corpus
    /// grows during a campaign, so each set-up opens a fresh copy of the
    /// historical one, made before the clock starts.
    fn set_up(
        &self,
        corpus_path: &Path,
        telemetry: &Telemetry,
        s: &mut Streams,
        ops: &mut Ops,
    ) -> Result<(OnlineTuneController, Vec<TaskHandle>), String> {
        ops.run(
            "corpus copy",
            std::fs::copy(self.dir.join("corpus.jsonl"), corpus_path),
        )?;
        let start = Instant::now();
        let json = ops.run(
            "repository read",
            std::fs::read_to_string(self.dir.join("repository.json")),
        )?;
        let repository = ops.run("repository import", DataRepository::import_json(&json))?;
        let mut corpus = ops.run("corpus open", TuningCorpus::open(corpus_path))?;
        ops.run(
            "corpus policy",
            corpus.set_sync_policy(SyncPolicy::from_env()),
        )?;
        corpus.set_telemetry(telemetry.clone());
        let mut ctl =
            OnlineTuneController::with_options(Arc::new(repository), FleetOptions::from_env());
        ctl.set_telemetry(telemetry.clone());
        ctl.set_corpus(corpus);
        let handles: Vec<TaskHandle> = self
            .tasks
            .iter()
            .map(|t| {
                ctl.create_task_with_features(
                    &t.id,
                    t.task.space(),
                    TunerOptions {
                        beta: BETA,
                        t_max: Some(t.t_max),
                        budget: WAVES as usize,
                        enable_meta: true,
                        // One fleet-wide seed, as `tune-fleet` uses: the
                        // shared meta store keys base fits by seed.
                        seed: self.seed,
                        ..TunerOptions::default()
                    },
                    t.features.clone(),
                )
            })
            .collect();
        s.push("setup", secs(start));
        Ok((ctl, handles))
    }

    pub fn setup_once(&self, index: usize, ops: &mut Ops) -> Result<f64, String> {
        let corpus_path = self.dir.join(format!("setup-{index}.jsonl"));
        let mut s = Streams::default();
        let fleet = self.set_up(&corpus_path, &Telemetry::ring(1).0, &mut s, ops)?;
        drop(fleet);
        let _ = std::fs::remove_file(&corpus_path);
        Ok(s.sum("setup"))
    }

    pub fn replay(&self, index: usize, traced: bool, ops: &mut Ops) -> Result<Replay, String> {
        let telemetry = if traced {
            Telemetry::ring_traced(1, 7).0
        } else {
            Telemetry::ring(1).0
        };
        let mut s = Streams::default();
        let mut digest = Digest::default();
        let corpus_path = self.dir.join(format!("corpus-{index}.jsonl"));
        let (mut ctl, handles) = self.set_up(&corpus_path, &telemetry, &mut s, ops)?;
        let requests: Vec<FleetRequest> = handles
            .iter()
            .map(|h| FleetRequest {
                handle: h,
                context: &[],
            })
            .collect();
        let mut configs = Vec::with_capacity(handles.len());
        for c in timed(&mut s, "first", || ctl.request_configs(&requests)) {
            configs.push(ops.run("request_configs", c)?);
        }

        for wave in 0..WAVES {
            let mut reports = Vec::with_capacity(handles.len());
            for (i, cfg) in configs.drain(..).enumerate() {
                digest.add(&cfg);
                let t = &self.tasks[i];
                let start = Instant::now();
                let r = t.job.run(&cfg, wave + 1);
                s.push("sim", secs(start));
                reports.push(FleetReport {
                    handle: &handles[i],
                    config: cfg,
                    runtime_s: r.runtime_s,
                    resource: r.resource,
                    context: &[],
                    meta_features: (wave == 0).then(|| extract_meta_features(&r.event_log)),
                });
            }
            let start = Instant::now();
            let results = ctl.report_results(&reports);
            let ack = secs(start);
            for r in results {
                ops.run("report_results", r)?;
            }
            s.push("ack", ack);
            if wave == 0 {
                s.push("warm_start", ack);
            }
            if wave + 1 == WAVES {
                break;
            }
            if wave == RESUME_AFTER {
                for (t, h) in self.tasks.iter().zip(&handles).take(RESUMED_TASKS) {
                    let tuner = ops.run("tuner", ctl.tuner(h))?;
                    let (snap, space, options) = (
                        tuner.snapshot(&t.id),
                        tuner.space().clone(),
                        tuner.options().clone(),
                    );
                    let start = Instant::now();
                    let restored = ctl.restore_task(&t.id, space, options, &snap);
                    s.push("resume", secs(start));
                    ops.run("restore_task", restored)?;
                }
            }
            let start = Instant::now();
            let suggested = ctl.request_configs(&requests);
            let suggest = secs(start);
            for c in suggested {
                configs.push(ops.run("request_configs", c)?);
            }
            s.push("wave", suggest);
            s.push("iter", ack + suggest);
        }

        let mut best_ratios = Vec::with_capacity(self.tasks.len());
        for (t, h) in self.tasks.iter().zip(&handles) {
            if let Some(best) = ops.run("tuner", ctl.tuner(h))?.best() {
                best_ratios.push(best.objective / t.manual);
            }
        }
        let flushed = ctl.shared_meta().flush_corpus();
        ops.run("corpus flush", flushed)?;
        let grown = ops.run("corpus reload", TuningCorpus::open(&corpus_path))?;
        ops.check(
            "grown corpus reloads with 0 torn lines",
            grown.torn_lines() == 0,
        );
        let traced = traced.then(|| {
            let mut out = Traced::default();
            out.absorb(&telemetry, 0);
            out
        });
        drop(ctl);
        let _ = std::fs::remove_file(&corpus_path);
        Ok(Replay {
            task_iters: (NEW_TASKS as u64 * WAVES) as f64,
            streams: s,
            digest,
            best_ratios,
            traced,
        })
    }
}
