//! Fleet-wide shared read-only meta-knowledge store.
//!
//! A multi-task controller runs many tuners that warm-start from the *same*
//! historical base tasks. Each tuner's private [`MetaCache`] already fits a
//! base surrogate only once per task — but "once per task" still multiplies
//! into `n_tasks × n_bases` identical fits across a fleet. The
//! [`SharedMetaStore`] dedupes that work process-wide:
//!
//! * **Base surrogates** are keyed by `(task id, history fingerprint, seed)`
//!   and fitted exactly once: concurrent requesters of one key wait for a
//!   single fit, and every tuner whose private cache misses gets an `Arc`
//!   clone of it.
//! * **Prediction signatures** — a base surrogate's posterior means at the
//!   shared random sample `D_rand` — are keyed like the fit plus the sample
//!   size and computed at most once, so a Kendall-τ distance to a base
//!   (an ensemble weight, or a similarity-model training label) costs one
//!   τ over two cached vectors.
//!
//! Sharing is *transparent*: a fit is a pure function of
//! `(space, history, seed)` and a signature of `(fit, space, n_sample,
//! seed)`, so a task's suggestions are bitwise identical whether its
//! entries were computed privately, by another task, or served from the
//! store. The store is append-only for the lifetime of the fleet —
//! base-task histories are frozen, so entries are never invalidated, only
//! added.
//!
//! [`MetaCache`]: crate::MetaCache

use crate::corpus::{CorpusRecord, RetrievalIndex, TuningCorpus};
use crate::distance::{signature, Sample};
use crate::ensemble::{otune_linalg_mean, otune_linalg_std};
use crate::similarity::TaskRecord;
use otune_bo::{history_fingerprint, SurrogateInput};
use otune_gp::GaussianProcess;
use otune_space::{ConfigSpace, Configuration};
use otune_telemetry::{metric, Telemetry};
use std::collections::HashMap;
use std::hash::Hash;
use std::io;
use std::sync::{Arc, Mutex, OnceLock};

/// A shared base-task entry: frozen surrogate plus the task's objective
/// mean/std used to standardize its predictions. `None` is cached for
/// tasks whose history is too small so they are not re-attempted.
pub(crate) type SharedBaseEntry = Option<(Arc<GaussianProcess>, f64, f64)>;

/// A base fit's key: `(task id, history fingerprint, fit seed)`.
type BaseKey = (String, u64, u64);

/// Values computed once per key. The map lock is held only to find or
/// insert a key's cell; the first requester computes the value inside the
/// cell while later requesters of that key wait on it alone.
type OnceMap<K, V> = Mutex<HashMap<K, Arc<OnceLock<V>>>>;

/// The value for `key`, computed by `init` on first request, and whether
/// this call computed it.
fn once<K: Hash + Eq, V: Clone>(
    map: &OnceMap<K, V>,
    key: K,
    init: impl FnOnce() -> V,
) -> (V, bool) {
    let cell = Arc::clone(
        map.lock()
            .expect("shared meta store lock")
            .entry(key)
            .or_default(),
    );
    let mut computed = false;
    let value = cell.get_or_init(|| {
        computed = true;
        init()
    });
    (value.clone(), computed)
}

/// Fit a base-task entry from scratch: the canonical pure function backing
/// both the private [`crate::MetaCache`] and the shared store, and the only
/// place a `base_fit` span opens.
pub(crate) fn fit_base_entry(
    space: &ConfigSpace,
    task: &TaskRecord,
    seed: u64,
    telemetry: &Telemetry,
) -> SharedBaseEntry {
    let _trace = telemetry.trace_span("base_fit");
    task.surrogate(space, seed).map(|s| {
        let ys: Vec<f64> = task.observations.iter().map(|o| o.objective).collect();
        (
            Arc::new(s),
            otune_linalg_mean(&ys),
            otune_linalg_std(&ys).max(1e-9),
        )
    })
}

/// The persistent tuning corpus plus its memoized retrieval index. The
/// memo is keyed by (record count, query width): the corpus is
/// append-only, so a matching count means the index is current.
#[derive(Debug, Default)]
struct CorpusState {
    corpus: TuningCorpus,
    index: Option<(usize, usize, Arc<RetrievalIndex>)>,
}

/// Process-wide read-only meta-knowledge shared by every task in a fleet.
#[derive(Debug, Default)]
pub struct SharedMetaStore {
    /// Base surrogates by fit key.
    bases: OnceMap<BaseKey, SharedBaseEntry>,
    /// Base prediction signatures by fit key and sample `(n_sample, seed)`.
    signatures: OnceMap<(BaseKey, usize, u64), Arc<[f64]>>,
    /// Optional persistent tuning corpus for zero-execution retrieval.
    corpus: Mutex<Option<CorpusState>>,
}

impl SharedMetaStore {
    /// An empty store.
    pub fn new() -> Self {
        SharedMetaStore::default()
    }

    /// Number of cached base-surrogate entries.
    pub fn n_bases(&self) -> usize {
        self.bases.lock().expect("shared meta store lock").len()
    }

    /// Number of cached base prediction signatures.
    #[cfg(test)]
    pub(crate) fn n_signatures(&self) -> usize {
        self.signatures
            .lock()
            .expect("shared meta store lock")
            .len()
    }

    /// Shared base surrogate for `task`, fitted on first request and served
    /// from the store afterwards.
    pub fn base_surrogate(
        &self,
        space: &ConfigSpace,
        task: &TaskRecord,
        seed: u64,
        telemetry: &Telemetry,
    ) -> SharedBaseEntry {
        let fp = history_fingerprint(space, &task.observations, SurrogateInput::Objective);
        self.base_surrogate_at(space, task, fp, seed, telemetry)
    }

    /// [`SharedMetaStore::base_surrogate`] with the fingerprint already
    /// computed (private caches have it at hand).
    pub(crate) fn base_surrogate_at(
        &self,
        space: &ConfigSpace,
        task: &TaskRecord,
        fp: u64,
        seed: u64,
        telemetry: &Telemetry,
    ) -> SharedBaseEntry {
        let key = (task.task_id.clone(), fp, seed);
        let (entry, fitted) = once(&self.bases, key, || {
            fit_base_entry(space, task, seed, telemetry)
        });
        telemetry.incr(if fitted {
            metric::SHARED_META_MISSES
        } else {
            metric::SHARED_META_HITS
        });
        entry
    }

    /// The signature at `sample` of `gp`, the base fit keyed
    /// `(task_id, fp, seed)`. Computed on first request and served
    /// afterwards.
    pub(crate) fn base_signature(
        &self,
        task_id: &str,
        fp: u64,
        seed: u64,
        gp: &GaussianProcess,
        sample: &Sample,
        telemetry: &Telemetry,
    ) -> Arc<[f64]> {
        let key = (
            (task_id.to_string(), fp, seed),
            sample.n_sample,
            sample.seed,
        );
        let (sig, computed) = once(&self.signatures, key, || signature(gp, sample).into());
        telemetry.incr(if computed {
            metric::SHARED_SIG_MISSES
        } else {
            metric::SHARED_SIG_HITS
        });
        sig
    }

    /// Attach a tuning corpus. Every completed fleet observation reported
    /// through [`SharedMetaStore::record_outcome`] is appended to it, and
    /// [`SharedMetaStore::retrieval_bootstrap`] answers zero-execution
    /// cold-start queries from it.
    pub fn set_corpus(&self, corpus: TuningCorpus) {
        *self.corpus.lock().expect("shared meta store lock") = Some(CorpusState {
            corpus,
            index: None,
        });
    }

    /// Whether a corpus is attached.
    pub fn has_corpus(&self) -> bool {
        self.corpus
            .lock()
            .expect("shared meta store lock")
            .is_some()
    }

    /// Records held by the attached corpus (0 when none is attached).
    pub fn corpus_len(&self) -> usize {
        self.corpus
            .lock()
            .expect("shared meta store lock")
            .as_ref()
            .map_or(0, |s| s.corpus.len())
    }

    /// Append one completed observation to the attached corpus (durably
    /// when the corpus is file-backed) and refresh the `corpus_records`
    /// gauge. A missing corpus is a no-op.
    pub fn record_outcome(&self, record: CorpusRecord, telemetry: &Telemetry) -> io::Result<()> {
        let mut guard = self.corpus.lock().expect("shared meta store lock");
        let Some(state) = guard.as_mut() else {
            return Ok(());
        };
        state.corpus.append(record)?;
        telemetry.gauge(metric::CORPUS_RECORDS, state.corpus.len() as f64);
        Ok(())
    }

    /// Flush the attached corpus' staged appends (a no-op when none is
    /// attached, free under the default `every` policy). Fleet
    /// checkpoints and shutdown call this so a lazy sync policy never
    /// leaves outcomes in memory past a semantic boundary.
    pub fn flush_corpus(&self) -> io::Result<()> {
        match self.corpus.lock().expect("shared meta store lock").as_mut() {
            Some(state) => state.corpus.flush(),
            None => Ok(()),
        }
    }

    /// The zero-execution bootstrap design for a task with meta-features
    /// `query`: the distance-weighted blend of the `k` nearest corpus
    /// neighbors plus those neighbors' configurations, or an empty design
    /// on a retrieval miss (no usable corpus) or fallback (no neighbor
    /// within `max_distance`). The retrieval index is memoized and
    /// rebuilt only after the corpus has grown.
    pub fn retrieval_bootstrap(
        &self,
        space: &ConfigSpace,
        query: &[f64],
        k: usize,
        max_distance: f64,
        telemetry: &Telemetry,
    ) -> Vec<Configuration> {
        let index = {
            let mut guard = self.corpus.lock().expect("shared meta store lock");
            let Some(state) = guard.as_mut() else {
                telemetry.incr(metric::RETRIEVAL_MISSES);
                return Vec::new();
            };
            let (len, dim) = (state.corpus.len(), query.len());
            match &state.index {
                Some((l, d, idx)) if *l == len && *d == dim => Arc::clone(idx),
                _ => {
                    let idx = Arc::new(state.corpus.index_for(dim));
                    state.index = Some((len, dim, Arc::clone(&idx)));
                    idx
                }
            }
        };
        index.bootstrap_with(space, query, k, max_distance, telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otune_bo::Observation;
    use otune_space::Parameter;
    use rand::{rngs::StdRng, SeedableRng};

    fn space() -> ConfigSpace {
        ConfigSpace::new(vec![Parameter::float("a", 0.0, 1.0, 0.5)])
    }

    fn task(space: &ConfigSpace, id: &str, n: usize, seed: u64) -> TaskRecord {
        let mut rng = StdRng::seed_from_u64(seed);
        let observations: Vec<Observation> = space
            .sample_n(n, &mut rng)
            .into_iter()
            .map(|config| {
                let a = config[0].as_float().unwrap();
                Observation {
                    failed: false,
                    config,
                    objective: (a - 0.4) * (a - 0.4) * 10.0,
                    runtime: 1.0,
                    resource: 1.0,
                    context: vec![],
                }
            })
            .collect();
        TaskRecord {
            task_id: id.to_string(),
            meta_features: vec![1.0],
            observations,
        }
    }

    fn telemetry() -> Telemetry {
        Telemetry::new(Box::new(otune_telemetry::NullSink))
    }

    #[test]
    fn base_surrogate_fitted_once_and_shared() {
        let s = space();
        let t = task(&s, "b", 10, 1);
        let tm = telemetry();
        let store = SharedMetaStore::new();
        let a = store.base_surrogate(&s, &t, 0, &tm).unwrap();
        let b = store.base_surrogate(&s, &t, 0, &tm).unwrap();
        assert!(Arc::ptr_eq(&a.0, &b.0));
        assert_eq!(store.n_bases(), 1);
        let snap = tm.snapshot().unwrap();
        assert_eq!(snap.counters[metric::SHARED_META_HITS], 1);
        assert_eq!(snap.counters[metric::SHARED_META_MISSES], 1);
    }

    #[test]
    fn short_history_caches_none() {
        let s = space();
        let t = task(&s, "tiny", 2, 2);
        let tm = telemetry();
        let store = SharedMetaStore::new();
        assert!(store.base_surrogate(&s, &t, 0, &tm).is_none());
        assert!(store.base_surrogate(&s, &t, 0, &tm).is_none());
        let snap = tm.snapshot().unwrap();
        assert_eq!(snap.counters[metric::SHARED_META_MISSES], 1);
    }

    #[test]
    fn different_seeds_fit_separately() {
        let s = space();
        let t = task(&s, "b", 10, 3);
        let tm = telemetry();
        let store = SharedMetaStore::new();
        store.base_surrogate(&s, &t, 0, &tm);
        store.base_surrogate(&s, &t, 1, &tm);
        assert_eq!(store.n_bases(), 2);
    }

    #[test]
    fn signatures_memoized_and_match_the_direct_distance() {
        let s = space();
        let ta = task(&s, "a", 10, 4);
        let tb = task(&s, "b", 10, 5);
        let tm = telemetry();
        let store = SharedMetaStore::new();
        let sample = Sample::draw(&s, 30, 0);
        let sig = |t: &TaskRecord| {
            let fp = history_fingerprint(&s, &t.observations, SurrogateInput::Objective);
            let gp = store.base_surrogate_at(&s, t, fp, 0, &tm).unwrap().0;
            store.base_signature(&t.task_id, fp, 0, &gp, &sample, &tm)
        };
        let (sa, sb) = (sig(&ta), sig(&tb));
        assert!(Arc::ptr_eq(&sa, &sig(&ta)), "second request is served");
        let gp = |t: &TaskRecord| store.base_surrogate(&s, t, 0, &tm).unwrap().0;
        assert_eq!(
            crate::distance::signature_distance(&sa, &sb).to_bits(),
            crate::distance::surrogate_distance(&s, &gp(&ta), &gp(&tb), 30, 0).to_bits()
        );
        assert_eq!(store.n_signatures(), 2);
        let snap = tm.snapshot().unwrap();
        assert_eq!(snap.counters[metric::SHARED_SIG_HITS], 1);
        assert_eq!(snap.counters[metric::SHARED_SIG_MISSES], 2);
    }

    #[test]
    fn concurrent_requesters_share_one_fit_and_one_span() {
        let s = space();
        let t = task(&s, "b", 12, 6);
        let (tm, _) = Telemetry::ring_traced(1, 1);
        let store = SharedMetaStore::new();
        let start = std::sync::Barrier::new(4);
        let fits: Vec<Arc<GaussianProcess>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        store.base_surrogate(&s, &t, 0, &tm).unwrap().0
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert!(fits.iter().all(|f| Arc::ptr_eq(f, &fits[0])));
        let spans = tm.traces();
        assert_eq!(spans.iter().filter(|r| r.name == "base_fit").count(), 1);
        let snap = tm.snapshot().unwrap();
        assert_eq!(snap.counters[metric::SHARED_META_MISSES], 1);
        assert_eq!(snap.counters[metric::SHARED_META_HITS], 3);
    }

    #[test]
    fn corpus_outcomes_feed_retrieval_bootstrap() {
        let s = space();
        let tm = telemetry();
        let store = SharedMetaStore::new();
        // No corpus attached: recording is a no-op, retrieval misses.
        let mk = |task: &str, a: f64, obj: f64| CorpusRecord {
            task_id: task.to_string(),
            meta_features: vec![a, a],
            config: s.decode(&[a]),
            objective: obj,
            runtime: obj,
            resource: 1.0,
            failed: false,
        };
        store.record_outcome(mk("x", 0.3, 2.0), &tm).unwrap();
        assert_eq!(store.corpus_len(), 0);
        assert!(store
            .retrieval_bootstrap(&s, &[0.3, 0.3], 3, 2.0, &tm)
            .is_empty());

        store.set_corpus(TuningCorpus::in_memory());
        assert!(store.has_corpus());
        store.record_outcome(mk("a", 0.3, 2.0), &tm).unwrap();
        store.record_outcome(mk("b", 0.6, 3.0), &tm).unwrap();
        assert_eq!(store.corpus_len(), 2);
        let boot = store.retrieval_bootstrap(&s, &[0.3, 0.3], 2, 2.0, &tm);
        assert!(!boot.is_empty());
        // The memoized index is reused while the corpus has not grown,
        // and rebuilt (bitwise-identically) after an append.
        let again = store.retrieval_bootstrap(&s, &[0.3, 0.3], 2, 2.0, &tm);
        assert_eq!(boot, again);
        store.record_outcome(mk("c", 0.31, 1.0), &tm).unwrap();
        let after = store.retrieval_bootstrap(&s, &[0.3, 0.3], 2, 2.0, &tm);
        assert_ne!(boot, after, "new neighbor changes the blend");
        let snap = tm.snapshot().unwrap();
        assert_eq!(snap.counters[metric::RETRIEVAL_MISSES], 1);
        assert_eq!(snap.counters[metric::RETRIEVAL_HITS], 3);
        assert_eq!(snap.gauges[metric::CORPUS_RECORDS], 3.0);
    }
}
