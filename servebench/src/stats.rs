//! Sample summaries: percentiles that refuse to extrapolate, and the
//! failure tally every workload reports.

/// A percentile must have at least this many samples beyond it, or it is
/// not reported.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank `q`-quantile of `sorted` (ascending), or `None` when fewer
/// than [`MIN_TAIL`] samples lie strictly above its rank.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    // The epsilon keeps `0.99 * 1000` from rounding up to rank 991.
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_TAIL).then(|| sorted[rank - 1])
}

/// The fewest samples that support a `q`-quantile in [`percentile`].
pub fn min_samples(q: f64) -> usize {
    (1..)
        .find(|&n| {
            let rank = ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
            n - rank >= MIN_TAIL
        })
        .expect("some sample count supports every q < 1")
}

/// Sorts a copy of `samples` ascending.
pub fn sorted(samples: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = samples.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted samples (lower middle for even counts); 0 when empty.
pub fn median(samples: impl IntoIterator<Item = f64>) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        0.0
    } else {
        v[(v.len() - 1) / 2]
    }
}

/// Attempts and failures of one run. Every way an answer can go wrong
/// lands here: a reject or transport error, a malformed answer (wrong
/// length, non-finite value), and an answer the oracle finds different
/// from the direct computation.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Requests sent in the measured window.
    pub attempted: u64,
    /// Requests answered with an error (rejects, transport errors).
    pub errors: u64,
    /// Answers of the wrong length or with a non-finite value.
    pub malformed: u64,
    /// Sampled answers that disagree with the direct computation.
    pub mismatched: u64,
}

impl Tally {
    /// Folds another client's tally into this one.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.malformed += other.malformed;
        self.mismatched += other.mismatched;
    }

    /// Requests that failed for any reason.
    pub fn failed(&self) -> u64 {
        self.errors + self.malformed + self.mismatched
    }

    /// Share of attempted requests that failed.
    pub fn error_rate(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }

    /// Whether every answer the run checked was right. Rejects are
    /// failures but not wrong answers.
    pub fn correct(&self) -> bool {
        self.malformed == 0 && self.mismatched == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reported_percentile_has_ten_samples_beyond_it() {
        for n in [1usize, 10, 11, 50, 999, 1000, 1010, 1011, 5000] {
            let v = sorted((0..n).map(|i| i as f64));
            for q in [0.5, 0.9, 0.99] {
                if let Some(p) = percentile(&v, q) {
                    let beyond = v.iter().filter(|&&x| x > p).count();
                    assert!(beyond >= MIN_TAIL, "n={n} q={q}: {beyond} beyond");
                }
            }
        }
        assert_eq!(
            percentile(&sorted((0..1000).map(|i| i as f64)), 0.99),
            Some(989.0)
        );
        assert_eq!(percentile(&sorted((0..999).map(|i| i as f64)), 0.99), None);
        for q in [0.5, 0.99] {
            let n = min_samples(q);
            let v = |n: usize| sorted((0..n).map(|i| i as f64));
            assert!(percentile(&v(n), q).is_some() && percentile(&v(n - 1), q).is_none());
        }
    }

    #[test]
    fn rejected_or_mismatched_answers_count_as_failures() {
        let mut t = Tally {
            attempted: 10,
            ..Tally::default()
        };
        assert_eq!(t.failed(), 0);
        assert!(t.correct());
        t.errors += 1;
        assert_eq!(t.failed(), 1);
        assert!(t.correct(), "a reject is a failure, not a wrong answer");
        t.mismatched += 1;
        t.malformed += 1;
        assert_eq!(t.failed(), 3);
        assert!(!t.correct());
        assert!((t.error_rate() - 0.3).abs() < 1e-12);
    }
}
