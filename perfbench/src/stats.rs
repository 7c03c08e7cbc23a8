//! Statistics shared by every workload: medians, quartiles, the
//! percentile-with-a-tail rule, and hit/miss classification from the load
//! generator's own key history.

use std::collections::HashSet;

/// The percentiles a latency may be reported at, highest first. A
/// requested percentile falls down this ladder until enough samples lie
/// beyond it; the median is the floor.
const LADDER: [u32; 3] = [99, 90, 50];

/// Samples that must lie beyond a reported percentile above the median.
const MIN_TAIL: usize = 10;

/// The median (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so a spread computed here matches the one the acceptance check uses.
///
/// # Panics
///
/// Panics with fewer than two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let v = sorted(values);
    let len = v.len();
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The interquartile range as a share of the median.
#[must_use]
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// One reported latency: which percentile it is, its value, and how many
/// samples it was drawn from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (at most the one asked for).
    pub percentile: u32,
    /// Its value, in the samples' unit.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// The nearest-rank `wanted` percentile of `samples`, or, when fewer than
/// [`MIN_TAIL`] samples lie beyond it, the next lower percentile of the
/// ladder that has them; the median is always reported. `None` for no
/// samples.
#[must_use]
pub fn tail(samples: &[f64], wanted: u32) -> Option<Tail> {
    if samples.is_empty() {
        return None;
    }
    let v = sorted(samples);
    let n = v.len();
    for &p in LADDER.iter().filter(|&&p| p <= wanted) {
        let rank = (p as usize * n).div_ceil(100).max(1);
        if p == 50 || n - rank >= MIN_TAIL {
            let value = if p == 50 { median(&v) } else { v[rank - 1] };
            return Some(Tail {
                percentile: p,
                value,
                samples: n,
            });
        }
    }
    unreachable!("the ladder ends at the median")
}

/// Whether a request's answer was already known to the system under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The generator sent (or set-up filled) this exact request before.
    Hit,
    /// The first time this request was sent.
    Miss,
}

/// The load generator's memory of every request it has issued. A request
/// is a hit exactly when its key was seen before; the server's own answer
/// never decides it.
#[derive(Debug, Default)]
pub struct KeyHistory {
    seen: HashSet<String>,
}

impl KeyHistory {
    /// Records a key filled outside the measured phase (set-up).
    pub fn remember(&mut self, key: &str) {
        self.seen.insert(key.to_string());
    }

    /// Classifies `key` and records it.
    pub fn observe(&mut self, key: &str) -> Kind {
        if self.seen.insert(key.to_string()) {
            Kind::Miss
        } else {
            Kind::Hit
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[2.0; 10]), 0.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 is rank 990, with exactly 10 beyond.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v, 99).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (99, 990.0, 1000));

        // 999 samples: p99 is rank 990 with only 9 beyond, so p90 (rank
        // 900, 99 beyond) is reported instead.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        let t = tail(&v, 99).unwrap();
        assert_eq!((t.percentile, t.value), (90, 900.0));

        // 100 samples: p90 is rank 90, 10 beyond — allowed.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v, 90).unwrap().percentile, 90);
        // 99 samples: p90 is rank 90, 9 beyond — falls to the median.
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        let t = tail(&v, 90).unwrap();
        assert_eq!((t.percentile, t.value), (50, 50.0));
    }

    #[test]
    fn median_is_always_reported() {
        let t = tail(&[5.0, 1.0, 3.0], 99).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (50, 3.0, 3));
        assert_eq!(tail(&[], 50), None);
    }

    #[test]
    fn hits_come_from_the_generators_history() {
        let mut h = KeyHistory::default();
        h.remember("run:a");
        assert_eq!(h.observe("run:a"), Kind::Hit);
        assert_eq!(h.observe("run:b"), Kind::Miss);
        assert_eq!(h.observe("run:b"), Kind::Hit);
        assert_eq!(h.observe("run:c"), Kind::Miss);
    }
}
