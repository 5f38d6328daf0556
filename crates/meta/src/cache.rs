//! Cross-iteration caches for the meta-learning ensemble (§5.2).
//!
//! Rebuilding `M_meta` from scratch every `suggest` call repeats three
//! expensive jobs whose inputs rarely change in the online paradigm:
//!
//! 1. **Base-task surrogates and their signatures** — each previous task's
//!    history is frozen, so its surrogate never changes. [`MetaCache`] fits
//!    it once per distinct observation set (keyed by task id + history
//!    fingerprint, which the caller computes once per base set) and hands
//!    out `Arc` clones afterwards, together with the surrogate's prediction
//!    signature at the shared sample `D_rand` (whose encoded points are
//!    memoized too), so a base's Kendall-τ distance to the target costs no
//!    base prediction after the first build.
//! 2. **The target task's own surrogate** — the target history grows by one
//!    observation per iteration, so the fit is maintained through the same
//!    incremental [`SurrogateCache`] machinery the generator uses.
//! 3. **The target-weight validation fits** — the classic leave-one-out
//!    scheme refits `n` models whenever one point arrives. The cache uses
//!    *progressive validation* instead: each point past the first three is
//!    predicted by a fixed-hyper model fitted on the points before it, so
//!    appending one observation adds exactly one fold (one O(n²) model
//!    extension) and every earlier fold is memoized.

use crate::distance::{kendall_tau, signature, Sample};
use crate::shared::{fit_base_entry, SharedMetaStore};
use crate::similarity::TaskRecord;
use otune_bo::{
    observation_fingerprint, surrogate_kinds, Observation, SurrogateCache, SurrogateInput,
};
use otune_gp::{GaussianProcess, GpConfig, IncrementalPolicy};
use otune_pool::Pool;
use otune_space::ConfigSpace;
use otune_telemetry::{metric, Telemetry};
use std::collections::HashMap;
use std::sync::Arc;

/// How many of the most recent progressive-validation folds feed the
/// target-weight Kendall score. A bounded window keeps the weight
/// responsive to the current region of the search.
const WEIGHT_FOLD_WINDOW: usize = 16;

/// A cached base-task member: frozen surrogate plus the task's objective
/// statistics (mean, std) used to standardize its predictions.
type BaseEntry = Option<(Arc<GaussianProcess>, f64, f64)>;

/// One base task's cached fit, keyed by its history fingerprint, and the
/// fit's signature at the memoized sample once requested.
#[derive(Debug)]
struct BaseSlot {
    fp: u64,
    entry: BaseEntry,
    signature: Option<Arc<[f64]>>,
}

/// Memoized progressive-validation state for the target weight.
#[derive(Debug, Default)]
struct WeightMemo {
    /// Per-observation fingerprints of the processed history prefix.
    fps: Vec<u64>,
    /// Running fixed-hyper model over the processed prefix.
    gp: Option<GaussianProcess>,
    /// Held-out predictions and truths, one per completed fold.
    preds: Vec<f64>,
    truth: Vec<f64>,
}

impl WeightMemo {
    fn clear(&mut self) {
        *self = WeightMemo::default();
    }
}

/// Cross-call cache backing [`crate::EnsembleSurrogate::build_cached`].
#[derive(Debug)]
pub struct MetaCache {
    policy: IncrementalPolicy,
    bases: HashMap<String, BaseSlot>,
    /// The sample `D_rand` every signature in `bases` was taken at.
    sample: Option<Arc<Sample>>,
    target: SurrogateCache,
    weight: WeightMemo,
    /// Optional fleet-wide store consulted on local base-surrogate misses,
    /// so identical fits are shared across tasks.
    shared: Option<Arc<SharedMetaStore>>,
}

impl MetaCache {
    /// Empty caches under the given maintenance policy.
    pub fn new(policy: IncrementalPolicy) -> Self {
        MetaCache {
            policy,
            bases: HashMap::new(),
            sample: None,
            target: SurrogateCache::new(SurrogateInput::Objective, policy),
            weight: WeightMemo::default(),
            shared: None,
        }
    }

    /// Attach a fleet-wide [`SharedMetaStore`]. Base-surrogate fits are a
    /// pure function of `(space, history, seed)`, so serving them from the
    /// shared store leaves every prediction bitwise unchanged.
    pub fn set_shared(&mut self, store: Arc<SharedMetaStore>) {
        self.shared = Some(store);
    }

    /// The maintenance policy these caches apply.
    pub fn policy(&self) -> &IncrementalPolicy {
        &self.policy
    }

    /// Drop all locally cached state. An attached [`SharedMetaStore`] is
    /// kept: it is fleet-lifetime and append-only.
    pub fn clear(&mut self) {
        self.bases.clear();
        self.sample = None;
        self.target.clear();
        self.weight.clear();
    }

    /// Frozen surrogate + objective statistics for one base task whose
    /// history fingerprint is `fp`, fitted at most once per distinct
    /// observation set. Tasks whose history is too small for a surrogate
    /// cache a `None` so they are not refitted either.
    pub(crate) fn base_surrogate(
        &mut self,
        space: &ConfigSpace,
        task: &TaskRecord,
        fp: u64,
        seed: u64,
        telemetry: &Telemetry,
    ) -> BaseEntry {
        if let Some(slot) = self.bases.get(&task.task_id) {
            if slot.fp == fp {
                telemetry.incr(metric::META_BASE_CACHE_HITS);
                return slot.entry.clone();
            }
        }
        telemetry.incr(metric::META_BASE_CACHE_MISSES);
        let entry = match &self.shared {
            Some(store) => store.base_surrogate_at(space, task, fp, seed, telemetry),
            None => fit_base_entry(space, task, seed, telemetry),
        };
        let slot = BaseSlot {
            fp,
            entry: entry.clone(),
            signature: None,
        };
        self.bases.insert(task.task_id.clone(), slot);
        entry
    }

    /// The sample for `(n_sample, seed)`, drawn once. A new sample
    /// invalidates every cached base signature.
    pub(crate) fn sample(
        &mut self,
        space: &ConfigSpace,
        n_sample: usize,
        seed: u64,
    ) -> Arc<Sample> {
        if let Some(sample) = &self.sample {
            if (sample.n_sample, sample.seed) == (n_sample, seed) {
                return Arc::clone(sample);
            }
        }
        let sample = Arc::new(Sample::draw(space, n_sample, seed));
        for slot in self.bases.values_mut() {
            slot.signature = None;
        }
        self.sample = Some(Arc::clone(&sample));
        sample
    }

    /// The signature at `sample` — which must come from
    /// [`MetaCache::sample`] — of base task `task_id`'s fit `gp`, whose
    /// history fingerprint is `fp` and fit seed `seed`. Computed once per
    /// fit — by the shared store when one is attached — and kept next to
    /// the fit [`MetaCache::base_surrogate`] cached.
    pub(crate) fn base_signature(
        &mut self,
        task_id: &str,
        fp: u64,
        seed: u64,
        gp: &GaussianProcess,
        sample: &Sample,
        telemetry: &Telemetry,
    ) -> Arc<[f64]> {
        // A base set listing one task id twice leaves only the later
        // history's slot; the earlier one is then served uncached.
        let slot = self.bases.get_mut(task_id).filter(|slot| slot.fp == fp);
        if let Some(sig) = slot.as_ref().and_then(|slot| slot.signature.clone()) {
            return sig;
        }
        let sig = match &self.shared {
            Some(store) => store.base_signature(task_id, fp, seed, gp, sample, telemetry),
            None => signature(gp, sample).into(),
        };
        if let Some(slot) = slot {
            slot.signature = Some(Arc::clone(&sig));
        }
        sig
    }

    /// The target task's own (context-stripped) surrogate, maintained
    /// incrementally while its history only grows. `None` below 3 points.
    pub(crate) fn target_surrogate(
        &mut self,
        space: &ConfigSpace,
        stripped: &[Observation],
        seed: u64,
        telemetry: &Telemetry,
    ) -> Option<Arc<GaussianProcess>> {
        if stripped.len() < 3 {
            return None;
        }
        self.target
            .prepare(space, stripped, seed, telemetry, Pool::global())
            .ok()
    }

    /// Target-model weight from progressive validation: the Kendall
    /// concordance between held-out predictions and truths over the most
    /// recent folds, mapped to `[0, 1]`. Only folds for observations not
    /// seen before are computed; a history edit resets the memo.
    pub(crate) fn target_weight(
        &mut self,
        space: &ConfigSpace,
        stripped: &[Observation],
        seed: u64,
        telemetry: &Telemetry,
    ) -> f64 {
        let _trace = telemetry.trace_span("target_weight");
        let n = stripped.len();
        let fps: Vec<u64> = stripped
            .iter()
            .map(|o| observation_fingerprint(space, o, SurrogateInput::Objective))
            .collect();
        let done = self.weight.fps.len();
        if fps.len() < done || fps[..done] != self.weight.fps[..] {
            self.weight.clear();
        } else if done > 0 {
            telemetry.add(metric::META_LOO_MEMO_HITS, done as u64);
        }

        let kinds = surrogate_kinds(space, 0);
        let policy = IncrementalPolicy::never_research();
        let cfg = GpConfig {
            optimize_hypers: false,
            seed,
            ..GpConfig::default()
        };
        for k in self.weight.fps.len()..n {
            let x_k = space.encode(&stripped[k].config);
            let y_k = stripped[k].objective;
            if let Some(gp) = &mut self.weight.gp {
                self.weight.preds.push(gp.predict_mean(&x_k));
                self.weight.truth.push(y_k);
                if gp.update(x_k, y_k, &policy, cfg, Pool::global()).is_err() {
                    self.weight.gp = None;
                }
            }
            if self.weight.gp.is_none() && k + 1 >= 3 {
                // (Re)establish the running fit on the processed prefix so
                // the next fold can predict. Failed fits retry next point.
                let xt: Vec<Vec<f64>> = stripped[..=k]
                    .iter()
                    .map(|o| space.encode(&o.config))
                    .collect();
                let yt: Vec<f64> = stripped[..=k].iter().map(|o| o.objective).collect();
                self.weight.gp = GaussianProcess::fit(kinds.clone(), xt, &yt, cfg).ok();
            }
            self.weight.fps.push(fps[k]);
        }

        if n < 4 || self.weight.preds.len() < 2 {
            return 0.3; // scarce history: modest default trust
        }
        let lo = self.weight.preds.len().saturating_sub(WEIGHT_FOLD_WINDOW);
        ((kendall_tau(&self.weight.preds[lo..], &self.weight.truth[lo..]) + 1.0) / 2.0)
            .clamp(0.05, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otune_space::Parameter;
    use rand::{rngs::StdRng, SeedableRng};

    fn space() -> ConfigSpace {
        ConfigSpace::new(vec![Parameter::float("a", 0.0, 1.0, 0.5)])
    }

    fn obs(space: &ConfigSpace, n: usize, seed: u64) -> Vec<Observation> {
        let mut rng = StdRng::seed_from_u64(seed);
        space
            .sample_n(n, &mut rng)
            .into_iter()
            .map(|config| {
                let a = config[0].as_float().unwrap();
                Observation {
                    failed: false,
                    config,
                    objective: (a - 0.3) * (a - 0.3) * 20.0,
                    runtime: 1.0,
                    resource: 1.0,
                    context: vec![],
                }
            })
            .collect()
    }

    fn telemetry() -> Telemetry {
        Telemetry::new(Box::new(otune_telemetry::NullSink))
    }

    fn fp(space: &ConfigSpace, t: &TaskRecord) -> u64 {
        otune_bo::history_fingerprint(space, &t.observations, SurrogateInput::Objective)
    }

    #[test]
    fn base_surrogates_fit_once_per_history() {
        let s = space();
        let t = TaskRecord {
            task_id: "b1".into(),
            meta_features: vec![0.0],
            observations: obs(&s, 12, 1),
        };
        let tm = telemetry();
        let mut cache = MetaCache::new(IncrementalPolicy::default());
        let a = cache.base_surrogate(&s, &t, fp(&s, &t), 0, &tm).unwrap();
        let b = cache.base_surrogate(&s, &t, fp(&s, &t), 0, &tm).unwrap();
        assert!(Arc::ptr_eq(&a.0, &b.0));
        let snap = tm.snapshot().unwrap();
        assert_eq!(snap.counters[metric::META_BASE_CACHE_HITS], 1);
        assert_eq!(snap.counters[metric::META_BASE_CACHE_MISSES], 1);
    }

    #[test]
    fn shared_store_serves_private_cache_misses() {
        let s = space();
        let t = TaskRecord {
            task_id: "b1".into(),
            meta_features: vec![0.0],
            observations: obs(&s, 12, 7),
        };
        let tm = telemetry();
        let store = Arc::new(crate::SharedMetaStore::new());
        let mut c1 = MetaCache::new(IncrementalPolicy::default());
        let mut c2 = MetaCache::new(IncrementalPolicy::default());
        c1.set_shared(Arc::clone(&store));
        c2.set_shared(Arc::clone(&store));
        let a = c1.base_surrogate(&s, &t, fp(&s, &t), 0, &tm).unwrap();
        let b = c2.base_surrogate(&s, &t, fp(&s, &t), 0, &tm).unwrap();
        // Both private caches hold the same shared fit.
        assert!(Arc::ptr_eq(&a.0, &b.0));
        assert_eq!(store.n_bases(), 1);
        let snap = tm.snapshot().unwrap();
        assert_eq!(snap.counters[metric::SHARED_META_MISSES], 1);
        assert_eq!(snap.counters[metric::SHARED_META_HITS], 1);
        // Values match a private, storeless fit bitwise.
        let mut lone = MetaCache::new(IncrementalPolicy::default());
        let c = lone.base_surrogate(&s, &t, fp(&s, &t), 0, &tm).unwrap();
        let x = vec![0.37];
        assert_eq!(
            a.0.predict_mean(&x).to_bits(),
            c.0.predict_mean(&x).to_bits()
        );
    }

    #[test]
    fn base_cache_invalidates_on_history_change() {
        let s = space();
        let mut t = TaskRecord {
            task_id: "b1".into(),
            meta_features: vec![0.0],
            observations: obs(&s, 10, 2),
        };
        let tm = telemetry();
        let mut cache = MetaCache::new(IncrementalPolicy::default());
        cache.base_surrogate(&s, &t, fp(&s, &t), 0, &tm);
        t.observations[0].objective += 1.0;
        cache.base_surrogate(&s, &t, fp(&s, &t), 0, &tm);
        let snap = tm.snapshot().unwrap();
        assert_eq!(snap.counters[metric::META_BASE_CACHE_MISSES], 2);
    }

    #[test]
    fn points_and_base_signatures_are_computed_once() {
        let s = space();
        let t = TaskRecord {
            task_id: "b1".into(),
            meta_features: vec![0.0],
            observations: obs(&s, 12, 5),
        };
        let tm = telemetry();
        let store = Arc::new(crate::SharedMetaStore::new());
        let mut c1 = MetaCache::new(IncrementalPolicy::default());
        let mut c2 = MetaCache::new(IncrementalPolicy::default());
        c1.set_shared(Arc::clone(&store));
        c2.set_shared(Arc::clone(&store));
        let sig = |cache: &mut MetaCache, seed: u64| {
            let sample = cache.sample(&s, 20, seed);
            let (gp, _, _) = cache.base_surrogate(&s, &t, fp(&s, &t), 0, &tm).unwrap();
            let sig = cache.base_signature("b1", fp(&s, &t), 0, &gp, &sample, &tm);
            assert_eq!(
                sig.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                signature(&gp, &sample)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            );
            (sample, sig)
        };
        let (p1, s1) = sig(&mut c1, 0);
        let (p2, s2) = sig(&mut c1, 0);
        assert!(Arc::ptr_eq(&p1, &p2), "points are memoized");
        assert!(
            Arc::ptr_eq(&s1, &s2),
            "the private cache keeps the signature"
        );
        let (_, s3) = sig(&mut c2, 0);
        assert!(
            Arc::ptr_eq(&s1, &s3),
            "a second cache is served by the store"
        );
        // New points invalidate the cached signature.
        let (p4, s4) = sig(&mut c1, 1);
        assert!(!Arc::ptr_eq(&p1, &p4) && !Arc::ptr_eq(&s1, &s4));
        let snap = tm.snapshot().unwrap();
        assert_eq!(snap.counters[metric::SHARED_SIG_MISSES], 2);
        assert_eq!(snap.counters[metric::SHARED_SIG_HITS], 1);
        assert_eq!(store.n_signatures(), 2);
    }

    #[test]
    fn target_weight_matches_fresh_cache_recompute() {
        let s = space();
        let history = obs(&s, 14, 3);
        let tm = Telemetry::disabled();
        let mut warm = MetaCache::new(IncrementalPolicy::default());
        // Feed the memoized cache one point at a time.
        let mut w_warm = 0.0;
        for n in 4..=history.len() {
            w_warm = warm.target_weight(&s, &history[..n], 0, &tm);
        }
        // A cold cache sees the full history at once.
        let mut cold = MetaCache::new(IncrementalPolicy::default());
        let w_cold = cold.target_weight(&s, &history, 0, &tm);
        assert_eq!(w_warm.to_bits(), w_cold.to_bits());
    }

    #[test]
    fn target_weight_memo_counts_hits_and_resets_on_edit() {
        let s = space();
        let mut history = obs(&s, 8, 4);
        let tm = telemetry();
        let mut cache = MetaCache::new(IncrementalPolicy::default());
        cache.target_weight(&s, &history[..6], 0, &tm);
        cache.target_weight(&s, &history, 0, &tm);
        let snap = tm.snapshot().unwrap();
        assert_eq!(snap.counters[metric::META_LOO_MEMO_HITS], 6);
        // An edited prefix resets the memo: no further hits counted.
        history[1].objective += 0.5;
        cache.target_weight(&s, &history, 0, &tm);
        let snap = tm.snapshot().unwrap();
        assert_eq!(snap.counters[metric::META_LOO_MEMO_HITS], 6);
    }
}
