//! Meta-learning (§5) across simulated tasks: similarity learning,
//! warm-starting and the ensemble surrogate wired through the tuner.

use otune_core::prelude::*;
use otune_meta::{extract_meta_features, warm_start_configs, SimilarityLearner};

fn record_for(task: HibenchTask, budget: usize, seed: u64) -> TaskRecord {
    let space = spark_space(ClusterScale::hibench());
    let job = SimJob::new(ClusterSpec::hibench(), hibench_task(task)).with_seed(seed);
    let mut tuner = OnlineTuner::new(
        space.clone(),
        TunerOptions {
            beta: 0.5,
            budget,
            enable_meta: false,
            seed,
            ..TunerOptions::default()
        },
    );
    for t in 0..budget as u64 {
        let cfg = tuner.suggest(&[]).expect("protocol");
        let r = job.run(&cfg, t);
        tuner
            .observe(cfg, r.runtime_s, r.resource, &[])
            .expect("pending");
    }
    let log = job
        .clone()
        .with_noise(0.0)
        .run(&space.default_configuration(), 0)
        .event_log;
    tuner.export_record(task.name(), extract_meta_features(&log))
}

#[test]
fn similarity_model_trains_on_simulated_histories() {
    let space = spark_space(ClusterScale::hibench());
    let sources = vec![
        record_for(HibenchTask::Sort, 10, 1),
        record_for(HibenchTask::WordCount, 10, 2),
        record_for(HibenchTask::KMeans, 10, 3),
        record_for(HibenchTask::LR, 10, 4),
    ];
    let learner = SimilarityLearner::train(&space, &sources, 40, 0).expect("trains");

    // Self-distance (identical meta-features) must be among the smallest.
    let v = &sources[0].meta_features;
    let self_d = learner.predict(v, v);
    let cross: Vec<f64> = sources[1..]
        .iter()
        .map(|t| learner.predict(v, &t.meta_features))
        .collect();
    let min_cross = cross.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        self_d <= min_cross + 0.15,
        "self-distance {self_d} should be near the minimum (cross: {cross:?})"
    );
}

#[test]
fn warm_start_improves_early_iterations() {
    let space = spark_space(ClusterScale::hibench());
    let sources = vec![
        record_for(HibenchTask::Sort, 12, 5),
        record_for(HibenchTask::WordCount, 12, 6),
        record_for(HibenchTask::KMeans, 12, 7),
    ];
    let learner = SimilarityLearner::train(&space, &sources, 40, 0).expect("trains");

    let job = SimJob::new(ClusterSpec::hibench(), hibench_task(HibenchTask::TeraSort));
    let log = job
        .clone()
        .with_noise(0.0)
        .run(&space.default_configuration(), 0)
        .event_log;
    let warm = warm_start_configs(&learner, &extract_meta_features(&log), &sources, 3);
    assert!(!warm.is_empty());

    let early_best = |warm_configs: Vec<Configuration>| {
        let mut tuner = OnlineTuner::new(
            space.clone(),
            TunerOptions {
                beta: 0.5,
                budget: 3,
                warm_configs,
                enable_meta: false,
                seed: 9,
                ..TunerOptions::default()
            },
        );
        let mut best = f64::INFINITY;
        for t in 0..3u64 {
            let cfg = tuner.suggest(&[]).unwrap();
            let r = job.run(&cfg, 5000 + t);
            best = best.min(r.execution_cost());
            tuner.observe(cfg, r.runtime_s, r.resource, &[]).unwrap();
        }
        best
    };
    let cold = early_best(vec![]);
    let warm_best = early_best(warm);
    assert!(
        warm_best < cold,
        "warm-start beats cold start in the first 3 iterations: {warm_best} vs {cold}"
    );
}

#[test]
fn tuner_accepts_base_tasks_for_the_ensemble() {
    let space = spark_space(ClusterScale::hibench());
    let bases = vec![
        record_for(HibenchTask::Sort, 10, 11),
        record_for(HibenchTask::WordCount, 10, 12),
    ];
    let job = SimJob::new(ClusterSpec::hibench(), hibench_task(HibenchTask::TeraSort));
    let mut tuner = OnlineTuner::new(
        space,
        TunerOptions {
            beta: 0.5,
            budget: 8,
            base_tasks: bases,
            enable_meta: true,
            seed: 13,
            ..TunerOptions::default()
        },
    );
    for t in 0..8u64 {
        let cfg = tuner.suggest(&[]).expect("protocol");
        let r = job.run(&cfg, t);
        tuner
            .observe(cfg, r.runtime_s, r.resource, &[])
            .expect("pending");
    }
    assert!(tuner.best().is_some());
}

/// A small meta-enabled fleet, driven the way `tune-fleet --corpus`
/// drives one: historical production tasks in the repository, new tasks
/// whose first report carries meta-features (similarity refit, warm
/// start, ensemble injection), then plain waves through the meta
/// ensemble. Returns an FNV-1a digest over the bits of every encoded
/// suggestion, in wave and task order.
fn meta_fleet_digest(threads: usize) -> u64 {
    use otune_core::fleet::{FleetOptions, FleetReport, FleetRequest};
    use otune_sparksim::ProductionTaskGenerator;
    use rand::SeedableRng;

    const BASES: u64 = 8;
    const BASE_RUNS: u64 = 16;
    const NEW_TASKS: u64 = 4;
    const WAVES: u64 = 8;
    let generator = ProductionTaskGenerator::new(2023);
    let objective = Objective::new(0.5);
    let repository = DataRepository::new();
    for b in 0..BASES {
        let task = generator.generate_one(b);
        let (job, space) = (task.job(), task.space());
        let id = format!("history-{b}");
        let mut rng = rand::rngs::StdRng::seed_from_u64(b);
        for run in 0..BASE_RUNS {
            let config = if run == 0 {
                task.manual_config.clone()
            } else {
                space.sample(&mut rng)
            };
            let r = job.run(&config, run);
            repository.record_observation(
                &id,
                Observation {
                    objective: objective.eval(r.runtime_s, r.resource),
                    runtime: r.runtime_s,
                    resource: r.resource,
                    context: Vec::new(),
                    failed: r.status.is_failure(),
                    config,
                },
            );
        }
        let log = job.run(&task.manual_config, 0).event_log;
        repository.set_meta_features(&id, extract_meta_features(&log));
    }

    let mut ctl = OnlineTuneController::with_options(
        std::sync::Arc::new(repository),
        FleetOptions {
            n_refit: 32,
            pool: otune_pool::Pool::new(threads),
        },
    );
    let telemetry = Telemetry::ring(1).0;
    ctl.set_telemetry(telemetry.clone());
    let tasks: Vec<_> = (0..NEW_TASKS)
        .map(|i| generator.generate_one(1_000_000 + i))
        .collect();
    let handles: Vec<_> = tasks
        .iter()
        .enumerate()
        .map(|(i, t)| {
            ctl.create_task(
                &format!("new-{i}"),
                t.space(),
                TunerOptions {
                    beta: 0.5,
                    budget: WAVES as usize,
                    enable_meta: true,
                    seed: 17,
                    ..TunerOptions::default()
                },
            )
        })
        .collect();
    let requests: Vec<FleetRequest> = handles
        .iter()
        .map(|h| FleetRequest {
            handle: h,
            context: &[],
        })
        .collect();
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for wave in 0..WAVES {
        let configs: Vec<Configuration> = ctl
            .request_configs(&requests)
            .into_iter()
            .map(|c| c.expect("request"))
            .collect();
        let reports: Vec<FleetReport> = configs
            .into_iter()
            .enumerate()
            .map(|(i, config)| {
                for v in tasks[i].space().encode(&config) {
                    for byte in v.to_bits().to_le_bytes() {
                        digest ^= byte as u64;
                        digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
                    }
                }
                let r = tasks[i].job().run(&config, wave + 1);
                FleetReport {
                    handle: &handles[i],
                    config,
                    runtime_s: r.runtime_s,
                    resource: r.resource,
                    context: &[],
                    meta_features: (wave == 0).then(|| extract_meta_features(&r.event_log)),
                }
            })
            .collect();
        for res in ctl.report_results(&reports) {
            res.expect("report");
        }
    }
    // The campaign really went through one similarity refit and the
    // distance-weighted ensemble: with a single refit, every shared
    // signature hit is a task reusing a base signature another task took.
    use otune_core::telemetry::metric;
    let counters = telemetry.snapshot().expect("metrics").counters;
    let count = |k: &str| counters.get(k).copied().unwrap_or(0);
    assert_eq!(count(metric::SIMILARITY_REFITS), 1);
    assert!(count(metric::SHARED_SIG_HITS) > 0);
    digest
}

#[test]
fn meta_fleet_suggestions_match_the_pinned_digest() {
    // Pinned suggestions of the meta path: memoizing base fits, their
    // prediction signatures and the sample points must not move a bit.
    const PINNED: u64 = 10_083_784_553_488_133_663;
    for threads in [1, 2] {
        assert_eq!(
            meta_fleet_digest(threads),
            PINNED,
            "meta fleet digest moved on a {threads}-thread pool"
        );
    }
}
