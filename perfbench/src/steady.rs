//! `steady_loop`: long single-tuner campaigns, the `otune tune` path.
//!
//! Three HiBench tasks (WordCount, TeraSort, KMeans), in `INSTANCES`
//! campaigns each with their own seeds, are each tuned alone through
//! `OnlineTuner::suggest`/`observe` for `BUDGET` iterations over the
//! 30-parameter space: exact GP, meta off, pool width 1, no journal.
//! The history grows past 100, so the cost of `bo`, `gp`, `linalg` and
//! `forest` and the periodic refit tail all show, while pool, journal and
//! meta do no work: a change to those should leave this workload alone.
//! Midway each tuner is dropped and rebuilt with `OnlineTuner::resume`
//! from its snapshot (the restart path of a single-tuner service), which
//! replays its history and times the catch-up cost.

use crate::stats::{secs, timed, Digest, Streams};
use crate::trace::Traced;
use crate::{Ops, Replay};
use otune_core::{Objective, OnlineTuner, Telemetry, TunerOptions};
use otune_pool::Pool;
use otune_space::{spark_space, ClusterScale, ConfigSpace};
use otune_sparksim::{hibench_task, ClusterSpec, HibenchTask, SimJob};
use std::time::Instant;

/// Campaigns per task, each with its own seed. How much a campaign costs
/// depends on its seed; with one campaign per task that moved the metrics
/// by 10-20% between seeds, with two by about half as much.
const INSTANCES: u64 = 2;
const TASKS: [HibenchTask; 3] = [
    HibenchTask::WordCount,
    HibenchTask::TeraSort,
    HibenchTask::KMeans,
];
/// Iterations per campaign: 134 observe+suggest round trips each, 804
/// `iter` samples over the six campaigns.
const BUDGET: usize = 135;
/// The iteration after which each tuner is dropped and resumed.
const RESUME_AT: usize = 40;

pub struct Steady {
    space: ConfigSpace,
    tasks: Vec<Task>,
}

struct Task {
    name: String,
    job: SimJob,
    options: TunerOptions,
    /// The fault-free default-configuration run: T_max calibration, the
    /// seeded first observation, and the `best_ratio` reference.
    baseline: (f64, f64),
}

impl Steady {
    pub fn prepare(seed: u64) -> Steady {
        let space = spark_space(ClusterScale::hibench());
        let tasks = (0..INSTANCES)
            .flat_map(|k| TASKS.iter().enumerate().map(move |(i, &t)| (k, i, t)))
            .map(|(k, i, t)| {
                let task_seed = seed.wrapping_mul(1_000).wrapping_add(10 * k + i as u64);
                let job = SimJob::new(ClusterSpec::hibench(), hibench_task(t)).with_seed(task_seed);
                let b = job.run(&space.default_configuration(), 0);
                Task {
                    name: format!("{}-{k}", t.name()),
                    job,
                    options: TunerOptions {
                        beta: 0.5,
                        t_max: Some(2.0 * b.runtime_s),
                        budget: BUDGET,
                        enable_meta: false,
                        sparse_gp: None,
                        seed: task_seed,
                        pool: Pool::new(1),
                        ..TunerOptions::default()
                    },
                    baseline: (b.runtime_s, b.resource),
                }
            })
            .collect();
        Steady { space, tasks }
    }

    /// Set-up: every task's tuner, holding its calibration run, ready to
    /// suggest.
    fn set_up(&self, telemetry: &Telemetry) -> Vec<OnlineTuner> {
        self.tasks
            .iter()
            .map(|t| {
                let mut tuner = OnlineTuner::new(self.space.clone(), t.options.clone());
                tuner.set_telemetry(telemetry.for_task(&t.name));
                tuner.seed_observation(
                    self.space.default_configuration(),
                    t.baseline.0,
                    t.baseline.1,
                    &[],
                );
                tuner
            })
            .collect()
    }

    pub fn setup_once(&self) -> f64 {
        let start = Instant::now();
        let tuners = self.set_up(&Telemetry::disabled());
        let elapsed = secs(start);
        drop(tuners);
        elapsed
    }

    pub fn replay(&self, traced: bool, ops: &mut Ops) -> Result<Replay, String> {
        let telemetry = if traced {
            Telemetry::ring_traced(1, 7).0
        } else {
            Telemetry::disabled()
        };
        let mut s = Streams::default();
        let mut digest = Digest::default();
        let mut tuners = timed(&mut s, "setup", || self.set_up(&telemetry));
        let mut configs = Vec::with_capacity(self.tasks.len());
        for tuner in tuners.iter_mut() {
            let cfg = ops.run("suggest", timed(&mut s, "first", || tuner.suggest(&[])))?;
            digest.add(&cfg);
            configs.push(cfg);
        }

        // The online loop, one iteration of every task per step, so each
        // task's samples spread over the whole replay.
        for it in 1..=BUDGET {
            for (i, t) in self.tasks.iter().enumerate() {
                let cfg = configs[i].clone();
                let r = timed(&mut s, "sim", || t.job.run(&cfg, it as u64));
                let tuner = &mut tuners[i];
                let start = Instant::now();
                let observed = if r.status.is_failure() {
                    tuner.observe_failed(cfg, r.runtime_s, r.resource, &[])
                } else {
                    tuner.observe(cfg, r.runtime_s, r.resource, &[])
                };
                let ack = secs(start);
                ops.run("observe", observed)?;
                s.push("ack", ack);
                if it == BUDGET {
                    continue;
                }
                if it == RESUME_AT {
                    let snap = tuner.snapshot(&t.name);
                    let start = Instant::now();
                    let resumed = OnlineTuner::resume(
                        self.space.clone(),
                        t.options.clone(),
                        &snap,
                        telemetry.for_task(&t.name),
                    );
                    s.push("resume", secs(start));
                    *tuner = ops.run("resume", resumed)?;
                }
                let start = Instant::now();
                let suggested = tuner.suggest(&[]);
                let wave = secs(start);
                configs[i] = ops.run("suggest", suggested)?;
                digest.add(&configs[i]);
                s.push("wave", wave);
                s.push("iter", ack + wave);
            }
        }

        let best_ratios = self
            .tasks
            .iter()
            .zip(&tuners)
            .filter_map(|(t, tuner)| {
                let reference = Objective::new(t.options.beta).eval(t.baseline.0, t.baseline.1);
                Some(tuner.best()?.objective / reference)
            })
            .collect();
        let traced = traced.then(|| {
            let mut out = Traced::default();
            out.absorb(&telemetry, 0);
            out
        });
        Ok(Replay {
            task_iters: s.get("ack").len() as f64,
            streams: s,
            digest,
            best_ratios,
            traced,
        })
    }
}
