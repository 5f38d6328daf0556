//! Sample streams, the interference filter, and percentiles.

use std::collections::BTreeMap;
use std::time::Instant;

/// Named sample streams of one replay. Index `i` of a stream is the same
/// step of the same deterministic campaign in every replay, which is what
/// lets the interference filter take a per-index minimum.
#[derive(Debug, Default, Clone)]
pub struct Streams(pub BTreeMap<&'static str, Vec<f64>>);

impl Streams {
    pub fn push(&mut self, stream: &'static str, value: f64) {
        self.0.entry(stream).or_default().push(value);
    }

    pub fn get(&self, stream: &str) -> &[f64] {
        self.0.get(stream).map_or(&[], |v| v.as_slice())
    }

    pub fn sum(&self, stream: &str) -> f64 {
        self.get(stream).iter().sum()
    }
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Time `f`, adding its wall time in seconds to `stream`.
pub fn timed<R>(streams: &mut Streams, stream: &'static str, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    streams.push(stream, secs(start));
    out
}

/// The interference filter: the per-index minimum over replays of the same
/// campaign. `Err` names a stream whose length differs between replays,
/// which means the replays did not run the same campaign.
pub fn filter_min(replays: &[Streams]) -> Result<Streams, String> {
    let mut out = replays[0].clone();
    for r in &replays[1..] {
        for (name, values) in out.0.iter_mut() {
            let other = r.get(name);
            if other.len() != values.len() {
                return Err(format!(
                    "stream {name}: {} samples in one replay, {} in another",
                    values.len(),
                    other.len()
                ));
            }
            for (v, o) in values.iter_mut().zip(other) {
                *v = v.min(*o);
            }
        }
    }
    Ok(out)
}

/// Linear-interpolated percentile `p` in `[0, 100]` (NaN on no samples).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The highest of p95, p90, p75 and p50 that leaves at least ten samples
/// beyond it in `n` samples.
pub fn tail_percentile(n: usize) -> f64 {
    [95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| (n as f64) * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

/// FNV-1a, folded over every suggestion of a replay: equal digests mean
/// bitwise-identical suggestion traces (`Debug` prints each `f64` in its
/// shortest round-trip form, so equal text is equal bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, item: &impl std::fmt::Debug) {
        for b in format!("{item:?}").bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 25.0), 2.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(417), 95.0);
        assert_eq!(tail_percentile(108), 90.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(18), 50.0);
    }

    #[test]
    fn filter_takes_per_index_minimum() {
        let mut a = Streams::default();
        let mut b = Streams::default();
        for (x, y) in [(1.0, 2.0), (5.0, 3.0)] {
            a.push("s", x);
            b.push("s", y);
        }
        assert_eq!(filter_min(&[a.clone(), b]).unwrap().get("s"), &[1.0, 3.0]);
        let mut c = Streams::default();
        c.push("s", 1.0);
        assert!(filter_min(&[a, c]).is_err());
    }
}
