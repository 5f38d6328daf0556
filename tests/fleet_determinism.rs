//! Fleet determinism: a task's suggestion trace is bitwise identical
//! whether it is driven sequentially or through batched waves — at any
//! pool width (`OTUNE_THREADS`) and under any interleaving of tasks across
//! waves. The pool decides *where* a task's step runs, never *what* it
//! computes.

use otune_core::fleet::{FleetOptions, FleetReport, FleetRequest};
use otune_core::prelude::*;
use otune_core::TaskHandle;
use otune_meta::SharedMetaStore;
use otune_pool::Pool;
use std::sync::Arc;

const N_TASKS: usize = 32;
const BUDGET: usize = 6;

fn toy_space() -> ConfigSpace {
    use otune_space::Parameter;
    ConfigSpace::new(vec![
        Parameter::int("n", 1, 50, 10),
        Parameter::int("m", 1, 32, 8),
    ])
}

/// Deterministic per-task workload: tasks differ so traces differ.
fn toy_eval(task: usize, c: &Configuration) -> (f64, f64) {
    let n = c[0].as_int().unwrap() as f64;
    let m = c[1].as_int().unwrap() as f64;
    let w = 1.0 + task as f64 * 0.25;
    (w * 400.0 / n + 30.0 / m + 10.0, n * (1.0 + 0.5 * m))
}

fn toy_options(task: usize) -> TunerOptions {
    TunerOptions {
        budget: BUDGET,
        enable_meta: false,
        seed: 1000 + task as u64,
        ..TunerOptions::default()
    }
}

/// A task's trace as raw bits of the encoded configurations.
type Trace = Vec<Vec<u64>>;

fn bits(space: &ConfigSpace, cfg: &Configuration) -> Vec<u64> {
    space.encode(cfg).iter().map(|v| v.to_bits()).collect()
}

fn register_fleet(ctl: &mut OnlineTuneController) -> Vec<TaskHandle> {
    (0..N_TASKS)
        .map(|i| ctl.create_task(&format!("fleet-task-{i}"), toy_space(), toy_options(i)))
        .collect()
}

/// Golden reference: every task driven through the sequential single-task
/// API, one full step at a time.
fn sequential_traces() -> Vec<Trace> {
    let space = toy_space();
    let mut ctl = pooled_controller(1);
    let handles = register_fleet(&mut ctl);
    let mut traces: Vec<Trace> = vec![Vec::new(); N_TASKS];
    for _ in 0..BUDGET {
        for (t, h) in handles.iter().enumerate() {
            let cfg = ctl.request_config(h, &[]).unwrap();
            traces[t].push(bits(&space, &cfg));
            let (rt, r) = toy_eval(t, &cfg);
            ctl.report_result(h, cfg, rt, r, &[], None).unwrap();
        }
    }
    traces
}

/// Drive the fleet through batched waves, one wave per budget step, with
/// `order` choosing each wave's task interleaving.
fn wave_traces(
    mut ctl: OnlineTuneController,
    order: impl Fn(u64, &[TaskHandle]) -> Vec<usize>,
) -> Vec<Trace> {
    let space = toy_space();
    let handles = register_fleet(&mut ctl);
    let mut traces: Vec<Trace> = vec![Vec::new(); N_TASKS];
    for wave in 0..BUDGET as u64 {
        let idxs = order(wave, &handles);
        assert_eq!(idxs.len(), N_TASKS, "order must be a permutation");
        let requests: Vec<FleetRequest> = idxs
            .iter()
            .map(|&t| FleetRequest {
                handle: &handles[t],
                context: &[],
            })
            .collect();
        let configs = ctl.request_configs(&requests);
        let reports: Vec<FleetReport> = configs
            .into_iter()
            .zip(&idxs)
            .map(|(cfg, &t)| {
                let cfg = cfg.unwrap();
                traces[t].push(bits(&space, &cfg));
                let (rt, r) = toy_eval(t, &cfg);
                FleetReport {
                    handle: &handles[t],
                    config: cfg,
                    runtime_s: rt,
                    resource: r,
                    context: &[],
                    meta_features: None,
                }
            })
            .collect();
        for res in ctl.report_results(&reports) {
            res.unwrap();
        }
    }
    traces
}

fn pooled_controller(threads: usize) -> OnlineTuneController {
    OnlineTuneController::with_options(
        Arc::new(DataRepository::new()),
        FleetOptions {
            n_refit: 32,
            pool: Pool::new(threads),
        },
    )
}

fn round_robin(_wave: u64, handles: &[TaskHandle]) -> Vec<usize> {
    (0..handles.len()).collect()
}

/// Registration order reversed: the last task steps first.
fn reversed(_wave: u64, handles: &[TaskHandle]) -> Vec<usize> {
    (0..handles.len()).rev().collect()
}

/// A deterministic per-wave shuffle (LCG-driven Fisher-Yates).
fn seeded_shuffle(wave: u64, handles: &[TaskHandle]) -> Vec<usize> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ (wave + 1);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut idxs: Vec<usize> = (0..handles.len()).collect();
    for i in (1..idxs.len()).rev() {
        idxs.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    idxs
}

#[test]
fn wave_traces_match_sequential_bitwise_across_shards_and_interleavings() {
    let golden = sequential_traces();
    type OrderFn = fn(u64, &[TaskHandle]) -> Vec<usize>;
    let orders: [(&str, OrderFn); 3] = [
        ("round-robin", round_robin),
        ("reversed", reversed),
        ("seeded-shuffle", seeded_shuffle),
    ];
    for threads in [1usize, 4] {
        for (name, order) in orders {
            let traces = wave_traces(pooled_controller(threads), order);
            assert_eq!(
                traces, golden,
                "interleaving {name} on a {threads}-thread pool changed a task trace"
            );
        }
    }
    // And under whatever OTUNE_THREADS the environment (CI matrix)
    // selects.
    let traces = wave_traces(OnlineTuneController::new(), round_robin);
    assert_eq!(traces, golden, "env-configured fleet changed a task trace");
}

/// Record a short toy-task history to serve as a meta-learning base task.
fn base_record(name: &str, task: usize, seed: u64) -> TaskRecord {
    let mut tuner = OnlineTuner::new(
        toy_space(),
        TunerOptions {
            budget: 8,
            enable_meta: false,
            seed,
            ..TunerOptions::default()
        },
    );
    for _ in 0..8 {
        let cfg = tuner.suggest(&[]).unwrap();
        let (rt, r) = toy_eval(task, &cfg);
        tuner.observe(cfg, rt, r, &[]).unwrap();
    }
    tuner.export_record(name, vec![1.0 + task as f64, 2.0, 3.0])
}

#[test]
fn shared_meta_store_is_bitwise_transparent() {
    // Tuners running the meta ensemble produce identical traces whether
    // base surrogates come from private caches or from a fleet-wide
    // shared store — the store only memoizes pure fits.
    let bases: Vec<TaskRecord> = (0..3)
        .map(|t| base_record(&format!("base-{t}"), t, 7 + t as u64))
        .collect();
    let opts = TunerOptions {
        budget: BUDGET,
        enable_meta: true,
        base_tasks: bases,
        seed: 42,
        ..TunerOptions::default()
    };
    let space = toy_space();
    let run = |shared: Option<Arc<SharedMetaStore>>| -> Trace {
        let mut tuner = OnlineTuner::new(toy_space(), opts.clone());
        if let Some(store) = shared {
            tuner.set_shared_meta(store);
        }
        let mut trace = Trace::new();
        for _ in 0..BUDGET {
            let cfg = tuner.suggest(&[]).unwrap();
            trace.push(bits(&space, &cfg));
            let (rt, r) = toy_eval(9, &cfg);
            tuner.observe(cfg, rt, r, &[]).unwrap();
        }
        trace
    };
    let private = run(None);
    let store = Arc::new(SharedMetaStore::new());
    let first = run(Some(Arc::clone(&store)));
    assert!(store.n_bases() > 0, "shared store captured the base fits");
    let warm = run(Some(Arc::clone(&store)));
    assert_eq!(first, private, "shared store changed a suggestion");
    assert_eq!(warm, private, "warm shared store changed a suggestion");
}
