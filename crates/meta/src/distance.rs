//! Kendall-τ task distance (§5.1).
//!
//! The distance between tasks `i` and `j` is computed from their surrogate
//! models: sample a shared set of random configurations `D_rand`, predict
//! with both surrogates, and count discordant prediction pairs.
//! `Dist(Mⁱ, Mʲ) = (1 − τ(Mⁱ, Mʲ)) / 2 ∈ [0, 1]` — 0 for identical
//! orderings, 1 for fully reversed ones.
//!
//! A surrogate's predictions at `D_rand` are its *signature*. The points
//! depend only on `(space, n_sample, seed)` and a frozen surrogate's
//! signature only on its fit, so callers memoize both and a distance costs
//! one τ over two signatures.

use otune_gp::GaussianProcess;
use otune_space::ConfigSpace;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Kendall rank-correlation coefficient of two equal-length vectors
/// (τ-a: ties count as discordant-neutral with denominator `n(n−1)/2`).
pub fn kendall_tau(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "vectors must be the same length");
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    for i in 0..n {
        for j in (i + 1)..n {
            let s = (a[i] - a[j]) * (b[i] - b[j]);
            concordant += (s > 0.0) as i64;
            discordant += (s < 0.0) as i64;
        }
    }
    let pairs = (n * (n - 1) / 2) as f64;
    (concordant - discordant) as f64 / pairs
}

/// The shared sample `D_rand`: `n_sample` (at least 2) random
/// configurations drawn from `seed`, encoded.
#[derive(Debug)]
pub(crate) struct Sample {
    pub(crate) n_sample: usize,
    pub(crate) seed: u64,
    pub(crate) points: Vec<Vec<f64>>,
}

impl Sample {
    pub(crate) fn draw(space: &ConfigSpace, n_sample: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let points = space
            .sample_n(n_sample.max(2), &mut rng)
            .iter()
            .map(|c| space.encode(c))
            .collect();
        Sample {
            n_sample,
            seed,
            points,
        }
    }
}

/// A surrogate's signature: its posterior means at the sample points.
pub(crate) fn signature(gp: &GaussianProcess, sample: &Sample) -> Vec<f64> {
    sample.points.iter().map(|x| gp.predict_mean(x)).collect()
}

/// Distance between two signatures over the same points: `(1 − τ)/2`,
/// clamped to `[0, 1]`.
pub(crate) fn signature_distance(a: &[f64], b: &[f64]) -> f64 {
    ((1.0 - kendall_tau(a, b)) / 2.0).clamp(0.0, 1.0)
}

/// Distance between two fitted surrogates over a shared random sample of
/// `n_sample` configurations: `(1 − τ)/2`, clamped to `[0, 1]`.
///
/// Both surrogates must be fitted on configuration-only encodings of the
/// same space (no context dims) so their inputs align.
pub fn surrogate_distance(
    space: &ConfigSpace,
    a: &GaussianProcess,
    b: &GaussianProcess,
    n_sample: usize,
    seed: u64,
) -> f64 {
    let sample = Sample::draw(space, n_sample, seed);
    signature_distance(&signature(a, &sample), &signature(b, &sample))
}

#[cfg(test)]
mod tests {
    use super::*;
    use otune_bo::{fit_surrogate, Observation, SurrogateInput};
    use otune_space::{ConfigSpace, Parameter};

    #[test]
    fn tau_perfect_agreement() {
        let a = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(kendall_tau(&a, &a), 1.0);
        let b = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(kendall_tau(&a, &b), 1.0);
    }

    #[test]
    fn tau_perfect_reversal() {
        let a = [1.0, 2.0, 3.0];
        let b = [3.0, 2.0, 1.0];
        assert_eq!(kendall_tau(&a, &b), -1.0);
    }

    #[test]
    fn tau_partial() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [1.0, 3.0, 2.0, 4.0];
        // One discordant pair of six.
        assert!((kendall_tau(&a, &b) - (5.0 - 1.0) / 6.0).abs() < 1e-12);
    }

    #[test]
    fn tau_degenerate() {
        assert_eq!(kendall_tau(&[], &[]), 1.0);
        assert_eq!(kendall_tau(&[1.0], &[2.0]), 1.0);
        // All ties → τ = 0.
        assert_eq!(kendall_tau(&[1.0, 1.0, 1.0], &[2.0, 2.0, 2.0]), 0.0);
    }

    fn space() -> ConfigSpace {
        ConfigSpace::new(vec![Parameter::float("a", 0.0, 1.0, 0.5)])
    }

    fn surrogate_for<F: Fn(f64) -> f64>(space: &ConfigSpace, f: F) -> GaussianProcess {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(1);
        let obs: Vec<Observation> = space
            .sample_n(20, &mut rng)
            .into_iter()
            .map(|config| {
                let v = f(config[0].as_float().unwrap());
                Observation {
                    failed: false,
                    config,
                    objective: v,
                    runtime: v,
                    resource: 1.0,
                    context: vec![],
                }
            })
            .collect();
        fit_surrogate(space, &obs, SurrogateInput::Objective, 0).unwrap()
    }

    #[test]
    fn similar_tasks_have_small_distance() {
        let s = space();
        let a = surrogate_for(&s, |x| x * 10.0);
        let b = surrogate_for(&s, |x| x * 12.0 + 1.0); // same ordering
        let c = surrogate_for(&s, |x| -x * 10.0); // reversed ordering
        let d_ab = surrogate_distance(&s, &a, &b, 50, 7);
        let d_ac = surrogate_distance(&s, &a, &c, 50, 7);
        assert!(d_ab < 0.15, "aligned surrogates: {d_ab}");
        assert!(d_ac > 0.85, "reversed surrogates: {d_ac}");
    }

    /// Reference τ with branchy counting: the branchless counts must
    /// match it bit for bit, NaN and ties included.
    fn kendall_tau_branchy(a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len(), "vectors must be the same length");
        let n = a.len();
        if n < 2 {
            return 1.0;
        }
        let mut concordant = 0i64;
        let mut discordant = 0i64;
        for i in 0..n {
            for j in (i + 1)..n {
                let da = a[i] - a[j];
                let db = b[i] - b[j];
                let s = da * db;
                if s > 0.0 {
                    concordant += 1;
                } else if s < 0.0 {
                    discordant += 1;
                }
            }
        }
        let pairs = (n * (n - 1) / 2) as f64;
        (concordant - discordant) as f64 / pairs
    }

    /// Reference distance without memoization: resample, re-encode and
    /// re-predict (full `predict`) both surrogates on every call.
    fn surrogate_distance_per_pair(
        space: &ConfigSpace,
        a: &GaussianProcess,
        b: &GaussianProcess,
        n_sample: usize,
        seed: u64,
    ) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<Vec<f64>> = space
            .sample_n(n_sample.max(2), &mut rng)
            .iter()
            .map(|c| space.encode(c))
            .collect();
        let pa: Vec<f64> = xs.iter().map(|x| a.predict(x).0).collect();
        let pb: Vec<f64> = xs.iter().map(|x| b.predict(x).0).collect();
        ((1.0 - kendall_tau_branchy(&pa, &pb)) / 2.0).clamp(0.0, 1.0)
    }

    /// Random vectors drawn from a handful of values (so ties are
    /// common), with NaN and ±∞ sprinkled in.
    fn tie_heavy(rng: &mut StdRng, n: usize) -> Vec<f64> {
        use rand::Rng;
        const VALUES: [f64; 8] = [
            0.0,
            -0.0,
            1.0,
            2.5,
            -3.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        (0..n)
            .map(|_| {
                if rng.gen::<f64>() < 0.5 {
                    VALUES[rng.gen_range(0..VALUES.len())]
                } else {
                    rng.gen::<f64>() * 4.0 - 2.0
                }
            })
            .collect()
    }

    #[test]
    fn branchless_tau_matches_branchy_oracle_bitwise() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in 0..40 {
            for _ in 0..25 {
                let a = tie_heavy(&mut rng, n);
                let b = tie_heavy(&mut rng, n);
                assert_eq!(
                    kendall_tau(&a, &b).to_bits(),
                    kendall_tau_branchy(&a, &b).to_bits(),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn signature_distance_matches_per_pair_oracle_bitwise() {
        let s = ConfigSpace::new(vec![
            Parameter::float("a", 0.0, 1.0, 0.5),
            Parameter::int("b", 1, 20, 4),
            Parameter::categorical("c", &["x", "y", "z"], 0),
        ]);
        let fit = |seed: u64, f: &dyn Fn(f64, f64) -> f64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let obs: Vec<Observation> = s
                .sample_n(14, &mut rng)
                .into_iter()
                .map(|config| {
                    let x = s.encode(&config);
                    let v = f(x[0], x[1]) + x[2];
                    Observation {
                        failed: false,
                        config,
                        objective: v,
                        runtime: v,
                        resource: 1.0,
                        context: vec![],
                    }
                })
                .collect();
            fit_surrogate(&s, &obs, SurrogateInput::Objective, seed).unwrap()
        };
        let gps = [
            fit(1, &|a, b| a * 3.0 + b),
            fit(2, &|a, b| (a - 0.4) * (a - 0.4) - b),
            fit(3, &|a, b| (a * 5.0).sin() * b),
        ];
        for n_sample in [0, 1, 2, 7, 50] {
            for seed in [0, 7, 301] {
                let sample = Sample::draw(&s, n_sample, seed);
                let sigs: Vec<Vec<f64>> = gps.iter().map(|g| signature(g, &sample)).collect();
                for (i, a) in gps.iter().enumerate() {
                    for (j, b) in gps.iter().enumerate() {
                        let want = surrogate_distance_per_pair(&s, a, b, n_sample, seed);
                        let memo = signature_distance(&sigs[i], &sigs[j]);
                        let direct = surrogate_distance(&s, a, b, n_sample, seed);
                        assert_eq!(memo.to_bits(), want.to_bits());
                        assert_eq!(direct.to_bits(), want.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn distance_is_deterministic_given_seed() {
        let s = space();
        let a = surrogate_for(&s, |x| x);
        let b = surrogate_for(&s, |x| x * x);
        assert_eq!(
            surrogate_distance(&s, &a, &b, 40, 3),
            surrogate_distance(&s, &a, &b, 40, 3)
        );
    }
}
