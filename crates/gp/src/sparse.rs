//! Local-subset sparse GP approximation for large histories.
//!
//! Online tuning accumulates observations without bound, and the exact GP
//! pays O(n³) per refit and O(n·m) kernel work per candidate batch. Past a
//! history threshold this module caps the surrogate's working set: the `m`
//! training points *most similar to a center point* (the current
//! incumbent, encoded with its workload context) are selected by kernel
//! distance and an exact GP is fitted on just that subset, bounding
//! per-suggest cost to O(m²·n) regardless of history length. The
//! approximation is local in exactly the sense the acquisition search is:
//! EIC candidates concentrate around the incumbent, where the selected
//! neighbours carry nearly all the posterior information.
//!
//! Selection is deterministic: similarity is evaluated under
//! [`KernelHyper::default`] (a pure function of the data, independent of
//! any fitted state, so cache replays and fresh fits always agree), ties
//! break toward the lower index, and the chosen indices are returned in
//! ascending order so the subset preserves the history's observation
//! order. Unlike the blocked kernels, the sparse posterior is *not*
//! bitwise-equal to the exact GP — it is an approximation, gated by a
//! suggestion-quality regression test instead (`tests/sparse_gp_quality.rs`).

use crate::kernel::{FeatureKind, KernelHyper, MixedKernel};

/// Environment variable enabling the sparse GP with default parameters.
pub const SPARSE_ENV: &str = "OTUNE_SPARSE_GP";

/// Sparse-GP activation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SparseGpConfig {
    /// Histories strictly larger than this stay exact.
    pub threshold: usize,
    /// Number of neighbours fitted once active.
    pub subset_size: usize,
}

impl Default for SparseGpConfig {
    fn default() -> Self {
        SparseGpConfig {
            threshold: 96,
            subset_size: 24,
        }
    }
}

impl SparseGpConfig {
    /// Defaults when `OTUNE_SPARSE_GP` is set to a truthy value
    /// (anything but `0`/`false`/`off`), `None` otherwise.
    pub fn from_env() -> Option<Self> {
        let v = std::env::var(SPARSE_ENV).ok()?;
        let v = v.trim().to_ascii_lowercase();
        if v.is_empty() || v == "0" || v == "false" || v == "off" {
            None
        } else {
            Some(SparseGpConfig::default())
        }
    }

    /// Whether a history of `n` observations triggers subset selection.
    pub fn activates(&self, n: usize) -> bool {
        n > self.threshold && self.subset_size < n
    }
}

/// Indices of the `m` training points most similar to `center` under the
/// default-hyper mixed kernel, in ascending index order.
///
/// Ranking is by descending `k(x_i, center)` with ties broken toward the
/// lower index (`total_cmp`, so NaN-free inputs give a total order and
/// even pathological values stay deterministic). Returns all indices when
/// `m >= x.len()`.
pub fn select_local_subset(
    kinds: &[FeatureKind],
    x: &[Vec<f64>],
    center: &[f64],
    m: usize,
) -> Vec<usize> {
    if m >= x.len() {
        return (0..x.len()).collect();
    }
    let kernel = MixedKernel::new(kinds.to_vec(), KernelHyper::default());
    let mut scored: Vec<(usize, f64)> = x
        .iter()
        .enumerate()
        .map(|(i, xi)| (i, kernel.eval(xi, center)))
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut idx: Vec<usize> = scored.into_iter().take(m).map(|(i, _)| i).collect();
    idx.sort_unstable();
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points() -> Vec<Vec<f64>> {
        (0..10).map(|i| vec![i as f64 / 10.0]).collect()
    }

    #[test]
    fn selects_nearest_by_kernel_distance() {
        let kinds = vec![FeatureKind::Numeric];
        let got = select_local_subset(&kinds, &points(), &[0.45], 3);
        // Nearest to 0.45 on the 0.0..0.9 grid: 0.4, 0.5, then 0.3/0.6.
        assert!(got.contains(&4));
        assert!(got.contains(&5));
        assert_eq!(got.len(), 3);
        // Ascending order.
        assert!(got.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn ties_break_toward_lower_index() {
        let kinds = vec![FeatureKind::Numeric];
        // Duplicate points: equal similarity, lower index wins.
        let x = vec![vec![0.5], vec![0.5], vec![0.5]];
        assert_eq!(select_local_subset(&kinds, &x, &[0.5], 2), vec![0, 1]);
    }

    #[test]
    fn oversized_subset_returns_everything() {
        let kinds = vec![FeatureKind::Numeric];
        assert_eq!(
            select_local_subset(&kinds, &points(), &[0.0], 99),
            (0..10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn activation_threshold() {
        let cfg = SparseGpConfig {
            threshold: 16,
            subset_size: 12,
        };
        assert!(!cfg.activates(16));
        assert!(cfg.activates(17));
        // Degenerate: subset at least as large as the history stays exact.
        assert!(!SparseGpConfig {
            threshold: 4,
            subset_size: 32
        }
        .activates(10));
    }

    #[test]
    fn selection_is_deterministic() {
        let kinds = vec![FeatureKind::Numeric, FeatureKind::DataSize];
        let x: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![(i as f64 * 0.37) % 1.0, 0.5])
            .collect();
        let a = select_local_subset(&kinds, &x, &[0.2, 0.5], 8);
        let b = select_local_subset(&kinds, &x, &[0.2, 0.5], 8);
        assert_eq!(a, b);
    }
}
