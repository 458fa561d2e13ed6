//! Percentiles, run-to-run spread and the compare verdict.

/// Nearest-rank percentile of ascending `sorted`: the value at 1-based
/// rank ⌈pct·n/100⌉. Integer arithmetic, so p99 of 1000 samples is
/// exactly rank 990.
pub fn nearest_rank(sorted: &[u64], pct: u64) -> Option<u64> {
    debug_assert!((1..=100).contains(&pct));
    let n = sorted.len() as u64;
    if n == 0 {
        return None;
    }
    let rank = (pct * n).div_ceil(100).clamp(1, n);
    Some(sorted[(rank - 1) as usize])
}

/// Samples strictly beyond the nearest-rank `pct` percentile of `n`
/// samples. A percentile is reported only when at least ten lie beyond
/// it, so p99 needs n ≥ 1000.
pub fn beyond(n: usize, pct: u64) -> u64 {
    let n = n as u64;
    n - (pct * n).div_ceil(100).min(n)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles as Python's `statistics.quantiles(values,
/// n=4)` computes them (the default "exclusive" method).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile range as a share of the median; 0 when both are 0.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let iqr = q3 - q1;
    if iqr == 0.0 {
        0.0
    } else {
        iqr / median(values).abs()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much better `a` is than `b` (positive = better).
    fn gain(self, a: f64, b: f64) -> f64 {
        match self {
            Better::Lower => b - a,
            Better::Higher => a - b,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `new` against `base`, pairing runs by position.
///
/// * improved: `new` wins at least nine tenths of the pairs (ties count
///   for neither) and the medians differ, in `new`'s favour, by more than
///   `base`'s inter-quartile range;
/// * regressed: with a `bound`, `new`'s median is worse than `base`'s by
///   more than `bound` × `base`'s median; without one (per-layer
///   metrics), the mirror image of the improvement rule holds;
/// * unresolved: otherwise, when either side's spread exceeds the
///   bound, unless every `new` run reads better than every `base` run;
/// * unchanged: otherwise.
pub fn verdict(base: &[f64], new: &[f64], better: Better, bound: Option<f64>) -> Verdict {
    let pairs = base.len().min(new.len());
    if pairs == 0 {
        return Verdict::Unresolved;
    }
    let (mut wins, mut losses) = (0usize, 0usize);
    for (b, n) in base.iter().zip(new) {
        let g = better.gain(*n, *b);
        wins += (g > 0.0) as usize;
        losses += (g < 0.0) as usize;
    }
    let (q1, q3) = quartiles(base);
    let base_iqr = q3 - q1;
    let (mb, mn) = (median(base), median(new));
    let gain = better.gain(mn, mb);
    if wins * 10 >= pairs * 9 && gain > base_iqr {
        return Verdict::Improved;
    }
    match bound {
        Some(b) if -gain > b * mb.abs() => return Verdict::Regressed,
        None if losses * 10 >= pairs * 9 && -gain > base_iqr => return Verdict::Regressed,
        _ => {}
    }
    if let Some(b) = bound {
        let all_better = new
            .iter()
            .all(|n| base.iter().all(|b| better.gain(*n, *b) > 0.0));
        if (spread(base) > b || spread(new) > b) && !all_better {
            return Verdict::Unresolved;
        }
    }
    Verdict::Unchanged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_observed_samples() {
        let v: Vec<u64> = (1..=4).collect();
        assert_eq!(nearest_rank(&v, 50), Some(2));
        assert_eq!(nearest_rank(&v, 99), Some(4));
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(nearest_rank(&v, 50), Some(500));
        assert_eq!(nearest_rank(&v, 99), Some(990));
        assert_eq!(nearest_rank(&[7], 99), Some(7));
        assert_eq!(nearest_rank(&[], 50), None);
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        assert_eq!(beyond(1000, 99), 10);
        assert_eq!(beyond(999, 99), 9);
        assert_eq!(beyond(5000, 99), 50);
        assert_eq!(beyond(20, 50), 10);
        assert_eq!(beyond(0, 99), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    fn runs(center: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + jitter * ((i * 7 % 10) as f64 / 10.0 - 0.45))
            .collect()
    }

    #[test]
    fn verdicts_follow_the_gain_and_bound_rules() {
        let base = runs(100.0, 1.0);
        // Same distribution: unchanged.
        assert_eq!(
            verdict(&base, &runs(100.0, 1.0), Better::Lower, Some(0.1)),
            Verdict::Unchanged
        );
        // Every run 5 % faster, gap far beyond the base IQR: improved.
        assert_eq!(
            verdict(&base, &runs(95.0, 1.0), Better::Lower, Some(0.1)),
            Verdict::Improved
        );
        // 20 % slower against a 10 % bound: regressed.
        assert_eq!(
            verdict(&base, &runs(120.0, 1.0), Better::Lower, Some(0.1)),
            Verdict::Regressed
        );
        // 5 % slower is within the 10 % bound.
        assert_eq!(
            verdict(&base, &runs(105.0, 1.0), Better::Lower, Some(0.1)),
            Verdict::Unchanged
        );
        // Higher-is-better flips the direction.
        assert_eq!(
            verdict(&base, &runs(105.0, 1.0), Better::Higher, Some(0.1)),
            Verdict::Improved
        );
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let base = runs(100.0, 40.0);
        let new = runs(101.0, 40.0);
        assert_eq!(
            verdict(&base, &new, Better::Lower, Some(0.1)),
            Verdict::Unresolved
        );
        // ...unless every new run beats every base run.
        let noisy = vec![100.0, 104.0, 150.0, 101.0, 103.0];
        let better = vec![90.0, 92.0, 95.0, 91.0, 99.0];
        assert_ne!(
            verdict(&noisy, &better, Better::Lower, Some(0.01)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn a_gain_needs_nine_tenths_of_the_pairs() {
        let base = vec![10.0; 10];
        let mut new = vec![9.0; 10];
        new[0] = 11.0;
        new[1] = 11.0;
        // 8 of 10 pairs won: not a gain, though the median moved.
        assert_eq!(
            verdict(&base, &new, Better::Lower, Some(0.5)),
            Verdict::Unchanged
        );
        new[1] = 9.0;
        assert_eq!(
            verdict(&base, &new, Better::Lower, Some(0.5)),
            Verdict::Improved
        );
        // Ties count for neither side.
        assert_eq!(
            verdict(&base, &base, Better::Lower, None),
            Verdict::Unchanged
        );
        // Without a bound, a consistent loss larger than the IQR regresses.
        assert_eq!(
            verdict(&base, &[11.0; 10], Better::Lower, None),
            Verdict::Regressed
        );
    }
}
