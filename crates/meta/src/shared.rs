//! Fleet-wide shared read-only meta-knowledge store.
//!
//! A multi-task controller runs many tuners that warm-start from the *same*
//! historical base tasks. Each tuner's private [`MetaCache`] already fits a
//! base surrogate only once per task — but "once per task" still multiplies
//! into `n_tasks × n_bases` identical fits across a fleet. The
//! [`SharedMetaStore`] dedupes that work process-wide:
//!
//! * **Base surrogates** are keyed by `(task id, history fingerprint, seed)`
//!   and fitted at most once; every tuner whose private cache misses gets an
//!   `Arc` clone of the shared fit.
//! * **Pairwise surrogate distances** (the similarity model's training
//!   labels) are memoized by the two tasks' history fingerprints plus the
//!   sample size and seed, so a scheduled similarity refit only pays for
//!   pairs it has never seen.
//!
//! Sharing is *transparent*: a fit is a pure function of
//! `(space, history, seed)` and a distance of
//! `(space, surrogates, n_sample, seed)`, so a task's suggestions are
//! bitwise identical whether its entries were fitted privately, fitted by
//! another task, or served from the memo. The store is append-only for the
//! lifetime of the fleet — base-task histories are frozen, so entries are
//! never invalidated, only added.
//!
//! [`MetaCache`]: crate::MetaCache

use crate::corpus::{CorpusRecord, RetrievalIndex, TuningCorpus};
use crate::distance::surrogate_distance;
use crate::ensemble::{otune_linalg_mean, otune_linalg_std};
use crate::similarity::TaskRecord;
use otune_bo::{history_fingerprint, SurrogateInput};
use otune_gp::GaussianProcess;
use otune_space::{ConfigSpace, Configuration};
use otune_telemetry::{metric, Telemetry};
use std::collections::HashMap;
use std::io;
use std::sync::{Arc, Mutex};

/// A shared base-task entry: frozen surrogate plus the task's objective
/// mean/std used to standardize its predictions. `None` is cached for
/// tasks whose history is too small so they are not re-attempted.
pub(crate) type SharedBaseEntry = Option<(Arc<GaussianProcess>, f64, f64)>;

/// Fit a base-task entry from scratch: the canonical pure function backing
/// both the private [`crate::MetaCache`] and the shared store.
pub(crate) fn fit_base_entry(space: &ConfigSpace, task: &TaskRecord, seed: u64) -> SharedBaseEntry {
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
    /// Base surrogates by `(task id, history fingerprint, fit seed)`.
    bases: Mutex<HashMap<(String, u64, u64), SharedBaseEntry>>,
    /// Pairwise surrogate distances by
    /// `(fingerprint a, fingerprint b, n_sample, seed)`.
    distances: Mutex<HashMap<(u64, u64, usize, u64), f64>>,
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

    /// Number of memoized pairwise distances.
    pub fn n_distances(&self) -> usize {
        self.distances.lock().expect("shared meta store lock").len()
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
        if let Some(entry) = self.bases.lock().expect("shared meta store lock").get(&key) {
            telemetry.incr(metric::SHARED_META_HITS);
            return entry.clone();
        }
        // Fit outside the lock so concurrent workers never serialize on a
        // fit. A racing duplicate fit produces the identical entry (the fit
        // is pure), so last-write-wins is harmless.
        telemetry.incr(metric::SHARED_META_MISSES);
        let entry = fit_base_entry(space, task, seed);
        self.bases
            .lock()
            .expect("shared meta store lock")
            .insert(key, entry.clone());
        entry
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

    /// Memoized surrogate distance between two frozen tasks, keyed by their
    /// history fingerprints. `a` and `b` pair each task's fingerprint with
    /// its fitted surrogate.
    pub(crate) fn memo_distance(
        &self,
        space: &ConfigSpace,
        a: (u64, &GaussianProcess),
        b: (u64, &GaussianProcess),
        n_sample: usize,
        seed: u64,
        telemetry: &Telemetry,
    ) -> f64 {
        let key = (a.0, b.0, n_sample, seed);
        if let Some(d) = self
            .distances
            .lock()
            .expect("shared meta store lock")
            .get(&key)
        {
            telemetry.incr(metric::SHARED_DIST_HITS);
            return *d;
        }
        telemetry.incr(metric::SHARED_DIST_MISSES);
        let d = surrogate_distance(space, a.1, b.1, n_sample, seed);
        self.distances
            .lock()
            .expect("shared meta store lock")
            .insert(key, d);
        d
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
    fn distances_memoized_and_stable() {
        let s = space();
        let ta = task(&s, "a", 10, 4);
        let tb = task(&s, "b", 10, 5);
        let tm = telemetry();
        let store = SharedMetaStore::new();
        let sa = store.base_surrogate(&s, &ta, 0, &tm).unwrap();
        let sb = store.base_surrogate(&s, &tb, 0, &tm).unwrap();
        let fa = history_fingerprint(&s, &ta.observations, SurrogateInput::Objective);
        let fb = history_fingerprint(&s, &tb.observations, SurrogateInput::Objective);
        let d1 = store.memo_distance(&s, (fa, &sa.0), (fb, &sb.0), 30, 0, &tm);
        let d2 = store.memo_distance(&s, (fa, &sa.0), (fb, &sb.0), 30, 0, &tm);
        assert_eq!(d1.to_bits(), d2.to_bits());
        assert_eq!(
            d1.to_bits(),
            surrogate_distance(&s, &sa.0, &sb.0, 30, 0).to_bits()
        );
        assert_eq!(store.n_distances(), 1);
        let snap = tm.snapshot().unwrap();
        assert_eq!(snap.counters[metric::SHARED_DIST_HITS], 1);
        assert_eq!(snap.counters[metric::SHARED_DIST_MISSES], 1);
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
