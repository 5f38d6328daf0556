//! Fleet execution layer: batched waves over the per-task locked task map.
//!
//! The deployed service (§6) tunes tens of thousands of periodic tasks per
//! day; driving them one `request_config`/`report_result` at a time leaves
//! the controller single-threaded and re-does cross-task work per task.
//! This module adds the fleet hot path:
//!
//! * **Per-task fan-out** — every task sits behind its own lock in the
//!   controller's task map ([`super::controller`]). A batched wave groups
//!   its items by task, keeping input order within each task, and fans the
//!   groups across [`FleetOptions::pool`], so no two workers ever touch the
//!   same task.
//! * **Batched APIs** — [`OnlineTuneController::request_configs`] and
//!   [`OnlineTuneController::report_results`] process a whole wave of
//!   per-task suggest/observe work and return per-request results in input
//!   order.
//!
//! **Determinism invariant.** Each task's tuner owns its RNG stream and
//! history; a wave only changes *which worker* runs a task's step, never
//! the step itself. Within a wave, each task's requests are processed in
//! input order. A task's suggestion trace is therefore bitwise identical
//! whether it is driven sequentially or through waves, at any
//! `OTUNE_THREADS`, and regardless of how tasks are interleaved across
//! waves. The one scoped exception: warm-start injection reads the shared
//! repository, so traces of tasks using meta-feature transfer depend (as
//! they always have) on the order in which *other* tasks' results arrive.
//! Waves apply injections in a deterministic post-wave phase in request
//! order.

use crate::controller::{ControllerError, OnlineTuneController, TaskEntry, TaskHandle};
use otune_pool::Pool;
use otune_space::Configuration;
use otune_telemetry::{metric, trace_key};
use std::collections::HashMap;

/// Default reports between scheduled similarity-model refits.
const DEFAULT_N_REFIT: usize = 32;

/// Fleet-level controller options.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Reports between scheduled similarity-model refits. The model is
    /// also refit whenever the eligible source-task set changes.
    pub n_refit: usize,
    /// Pool fanning a wave's per-task groups across workers.
    pub pool: Pool,
}

impl FleetOptions {
    /// Options from the environment: `OTUNE_THREADS` (via
    /// [`Pool::from_env`]) for the wave pool.
    pub fn from_env() -> Self {
        FleetOptions {
            n_refit: DEFAULT_N_REFIT,
            pool: Pool::from_env(),
        }
    }
}

impl Default for FleetOptions {
    fn default() -> Self {
        Self::from_env()
    }
}

/// One configuration request in a batched wave.
#[derive(Debug, Clone)]
pub struct FleetRequest<'a> {
    /// The task to suggest for.
    pub handle: &'a TaskHandle,
    /// Execution context (§4.3) for this periodic run.
    pub context: &'a [f64],
}

/// One result report in a batched wave.
#[derive(Debug, Clone)]
pub struct FleetReport<'a> {
    /// The task that executed.
    pub handle: &'a TaskHandle,
    /// The configuration that ran (must match the pending suggestion).
    pub config: Configuration,
    /// Observed runtime in seconds.
    pub runtime_s: f64,
    /// Observed resource cost.
    pub resource: f64,
    /// Execution context the run was suggested under.
    pub context: &'a [f64],
    /// Event-log meta-features; the first arrival triggers warm-start
    /// injection.
    pub meta_features: Option<Vec<f64>>,
}

impl OnlineTuneController {
    /// Run `step` for every wave item, one pool task per task handle.
    /// Items for the same task run on one worker in input order, under
    /// that task's lock and inside a keyed `task` span parented by the
    /// wave root. Results come back in input order.
    fn fan_out<'h, R: Send>(
        &self,
        handles: impl ExactSizeIterator<Item = &'h TaskHandle>,
        step: impl Fn(usize, &mut TaskEntry) -> Result<R, ControllerError> + Sync,
    ) -> Vec<Result<R, ControllerError>> {
        let n = handles.len();
        let mut group_of: HashMap<&TaskHandle, usize> = HashMap::new();
        let mut groups: Vec<(&TaskHandle, Vec<usize>)> = Vec::new();
        for (i, h) in handles.enumerate() {
            let g = *group_of.entry(h).or_insert_with(|| {
                groups.push((h, Vec::new()));
                groups.len() - 1
            });
            groups[g].1.push(i);
        }
        let ctx = self.telemetry.trace_ctx();
        let per_group = self.fleet.pool.map(&groups, |_, (handle, idxs)| {
            let _adopted = self.telemetry.trace_adopt(ctx.clone());
            let mut entry = self.lock_entry(handle);
            idxs.iter()
                .map(|&i| {
                    let _task_trace = self
                        .telemetry
                        .trace_span_keyed("task", trace_key(handle.as_str()));
                    let res = match entry.as_deref_mut() {
                        Some(entry) => step(i, entry),
                        None => Err(ControllerError::UnknownTask),
                    };
                    (i, res)
                })
                .collect::<Vec<_>>()
        });
        let mut out: Vec<Option<Result<R, ControllerError>>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        for (i, res) in per_group.into_iter().flatten() {
            out[i] = Some(res);
        }
        out.into_iter()
            .map(|r| r.expect("every wave item produces a result"))
            .collect()
    }

    /// Step 1, batched (Figure 1): suggest a configuration for every
    /// request in the wave. Results come back in input order; each task's
    /// trace is bitwise identical to driving it through
    /// [`OnlineTuneController::request_config`].
    pub fn request_configs(
        &mut self,
        requests: &[FleetRequest<'_>],
    ) -> Vec<Result<Configuration, ControllerError>> {
        let wave_trace = self
            .telemetry
            .trace_span_timed("fleet_wave_suggest", metric::FLEET_WAVE_S);
        self.telemetry.incr(metric::FLEET_WAVES);
        self.telemetry
            .add(metric::FLEET_REQUESTS, requests.len() as u64);
        let out = self.fan_out(requests.iter().map(|r| r.handle), |i, entry| {
            entry
                .tuner
                .suggest(requests[i].context)
                .map_err(ControllerError::Tuner)
        });
        wave_trace.finish();
        out
    }

    /// Step 2, batched (Figure 1): absorb a wave of execution results. The
    /// per-task work (observe, telemetry, repository mirror) fans across
    /// the pool; warm-start injections then run in a deterministic
    /// sequential phase in input order. Results come back in input order.
    pub fn report_results(
        &mut self,
        reports: &[FleetReport<'_>],
    ) -> Vec<Result<(), ControllerError>> {
        let wave_trace = self
            .telemetry
            .trace_span_timed("fleet_wave_report", metric::FLEET_WAVE_S);
        self.telemetry.incr(metric::FLEET_WAVES);
        self.telemetry
            .add(metric::FLEET_REPORTS, reports.len() as u64);
        let absorbed = self.fan_out(reports.iter().map(|r| r.handle), |i, entry| {
            Self::absorb_report(&self.repository, &self.shared_meta, entry, &reports[i])
        });
        wave_trace.finish();
        // Deterministic post-wave phase: refit bookkeeping and warm-start
        // injections in input order.
        absorbed
            .into_iter()
            .enumerate()
            .map(|(i, res)| {
                res.map(|inject| {
                    self.sim.reports_since_refit += 1;
                    if let Some(features) = inject {
                        self.maybe_inject(reports[i].handle, &features);
                    }
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repository::DataRepository;
    use crate::tuner::TunerOptions;
    use otune_space::{ConfigSpace, Parameter};
    use std::sync::Arc;

    fn toy_space() -> ConfigSpace {
        ConfigSpace::new(vec![
            Parameter::int("n", 1, 50, 10),
            Parameter::int("m", 1, 32, 8),
        ])
    }

    fn toy_eval(c: &Configuration) -> (f64, f64) {
        let n = c[0].as_int().unwrap() as f64;
        let m = c[1].as_int().unwrap() as f64;
        (400.0 / n + 30.0 / m + 10.0, n * (1.0 + 0.5 * m))
    }

    fn controller(threads: usize) -> OnlineTuneController {
        OnlineTuneController::with_options(
            Arc::new(DataRepository::new()),
            FleetOptions {
                n_refit: 32,
                pool: Pool::new(threads),
            },
        )
    }

    #[test]
    fn batched_wave_matches_sequential_driving() {
        let n_tasks = 6;
        let budget = 4;
        let opts = TunerOptions {
            budget,
            ..Default::default()
        };
        // Sequentially driven reference fleet.
        let mut seq = controller(1);
        let seq_handles: Vec<TaskHandle> = (0..n_tasks)
            .map(|i| seq.create_task(&format!("task-{i}"), toy_space(), opts.clone()))
            .collect();
        let mut seq_traces: Vec<Vec<Configuration>> = vec![Vec::new(); n_tasks];
        for _ in 0..budget {
            for (t, h) in seq_handles.iter().enumerate() {
                let cfg = seq.request_config(h, &[]).unwrap();
                let (rt, r) = toy_eval(&cfg);
                seq.report_result(h, cfg.clone(), rt, r, &[], None).unwrap();
                seq_traces[t].push(cfg);
            }
        }
        // Wave-driven fleet on a parallel pool.
        let mut fleet = controller(4);
        let handles: Vec<TaskHandle> = (0..n_tasks)
            .map(|i| fleet.create_task(&format!("task-{i}"), toy_space(), opts.clone()))
            .collect();
        let mut traces: Vec<Vec<Configuration>> = vec![Vec::new(); n_tasks];
        for _ in 0..budget {
            let requests: Vec<FleetRequest> = handles
                .iter()
                .map(|h| FleetRequest {
                    handle: h,
                    context: &[],
                })
                .collect();
            let configs = fleet.request_configs(&requests);
            let reports: Vec<FleetReport> = configs
                .iter()
                .zip(&handles)
                .map(|(cfg, h)| {
                    let cfg = cfg.as_ref().unwrap().clone();
                    let (rt, r) = toy_eval(&cfg);
                    FleetReport {
                        handle: h,
                        config: cfg,
                        runtime_s: rt,
                        resource: r,
                        context: &[],
                        meta_features: None,
                    }
                })
                .collect();
            for (t, rep) in reports.iter().enumerate() {
                traces[t].push(rep.config.clone());
            }
            for res in fleet.report_results(&reports) {
                res.unwrap();
            }
        }
        assert_eq!(traces, seq_traces);
    }

    /// Run a cold-start fleet: `n_seed` corpus-feeding source tasks driven
    /// to completion, then `n_cold` tasks registered with pre-known
    /// features and driven through batched waves. Returns the cold tasks'
    /// suggestion traces.
    fn cold_start_traces(threads: usize) -> Vec<Vec<Configuration>> {
        let (n_seed, n_cold, budget) = (4, 6, 3);
        let opts = TunerOptions {
            budget,
            ..Default::default()
        };
        let mut fleet = controller(threads);
        fleet.set_corpus(otune_meta::TuningCorpus::in_memory());
        for s in 0..n_seed {
            let h = fleet.create_task(&format!("seed-{s}"), toy_space(), opts.clone());
            for i in 0..budget {
                let cfg = fleet.request_config(&h, &[]).unwrap();
                let (rt, r) = toy_eval(&cfg);
                let f = if i == 0 {
                    Some(vec![s as f64, 2.0 * s as f64])
                } else {
                    None
                };
                fleet.report_result(&h, cfg, rt, r, &[], f).unwrap();
            }
        }
        let handles: Vec<TaskHandle> = (0..n_cold)
            .map(|c| {
                fleet.create_task_with_features(
                    &format!("cold-{c}"),
                    toy_space(),
                    opts.clone(),
                    vec![0.3 * c as f64, 0.6 * c as f64],
                )
            })
            .collect();
        let mut traces: Vec<Vec<Configuration>> = vec![Vec::new(); n_cold];
        for _ in 0..budget {
            let requests: Vec<FleetRequest> = handles
                .iter()
                .map(|h| FleetRequest {
                    handle: h,
                    context: &[],
                })
                .collect();
            let configs = fleet.request_configs(&requests);
            let reports: Vec<FleetReport> = configs
                .iter()
                .zip(&handles)
                .map(|(cfg, h)| {
                    let cfg = cfg.as_ref().unwrap().clone();
                    let (rt, r) = toy_eval(&cfg);
                    FleetReport {
                        handle: h,
                        config: cfg,
                        runtime_s: rt,
                        resource: r,
                        context: &[],
                        meta_features: None,
                    }
                })
                .collect();
            for (t, rep) in reports.iter().enumerate() {
                traces[t].push(rep.config.clone());
            }
            for res in fleet.report_results(&reports) {
                res.unwrap();
            }
        }
        traces
    }

    #[test]
    fn retrieval_bootstrap_is_identical_at_any_shard_and_thread_count() {
        // k-NN retrieval reads a corpus built by interleaved pool workers;
        // the bootstrap (and every downstream suggestion) must not depend
        // on OTUNE_THREADS.
        let reference = cold_start_traces(1);
        for threads in [2, 3, 4] {
            assert_eq!(
                cold_start_traces(threads),
                reference,
                "trace diverged at threads={threads}"
            );
        }
    }

    #[test]
    fn wave_results_come_back_in_input_order() {
        let mut fleet = controller(2);
        let ha = fleet.create_task(
            "a",
            toy_space(),
            TunerOptions {
                budget: 3,
                ..Default::default()
            },
        );
        let bogus = TaskHandle("ghost".into());
        let requests = vec![
            FleetRequest {
                handle: &bogus,
                context: &[],
            },
            FleetRequest {
                handle: &ha,
                context: &[],
            },
        ];
        let out = fleet.request_configs(&requests);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], Err(ControllerError::UnknownTask));
        assert!(out[1].is_ok());
    }

    #[test]
    fn duplicate_task_in_one_wave_hits_protocol_error() {
        // Two requests for the same task in one wave: the second must fail
        // deterministically (a suggestion is already pending), exactly as
        // it would when driven sequentially.
        let mut fleet = controller(2);
        let h = fleet.create_task(
            "dup",
            toy_space(),
            TunerOptions {
                budget: 3,
                ..Default::default()
            },
        );
        let requests = vec![
            FleetRequest {
                handle: &h,
                context: &[],
            },
            FleetRequest {
                handle: &h,
                context: &[],
            },
        ];
        let out = fleet.request_configs(&requests);
        assert!(out[0].is_ok());
        assert!(matches!(out[1], Err(ControllerError::Tuner(_))));
    }

    #[test]
    fn fleet_telemetry_counts_waves() {
        let (tm, _sink) = otune_telemetry::Telemetry::ring(64);
        let mut fleet = controller(1);
        fleet.set_telemetry(tm);
        let h = fleet.create_task(
            "t",
            toy_space(),
            TunerOptions {
                budget: 2,
                ..Default::default()
            },
        );
        let requests = vec![FleetRequest {
            handle: &h,
            context: &[],
        }];
        let cfg = fleet.request_configs(&requests)[0].clone().unwrap();
        let (rt, r) = toy_eval(&cfg);
        let reports = vec![FleetReport {
            handle: &h,
            config: cfg,
            runtime_s: rt,
            resource: r,
            context: &[],
            meta_features: None,
        }];
        fleet.report_results(&reports)[0].clone().unwrap();
        let snap = fleet.telemetry().snapshot().unwrap();
        assert_eq!(snap.counters[metric::FLEET_WAVES], 2);
        assert_eq!(snap.counters[metric::FLEET_REQUESTS], 1);
        assert_eq!(snap.counters[metric::FLEET_REPORTS], 1);
        assert_eq!(snap.gauges[metric::FLEET_TASKS], 1.0);
        assert_eq!(snap.histograms[metric::FLEET_WAVE_S].count, 2);
    }
}
