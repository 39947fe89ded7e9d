//! Medians, quartiles, and the verdict rule `--compare` applies.

/// The median of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method);
/// a single value is all three.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let q = |i: i64| {
        let m = i * (n as i64 + 1);
        let j = (m / 4).clamp(1, n as i64 - 1);
        // Outside the clamp `delta` leaves 0..4 and extrapolates, as
        // Python does.
        let delta = m - 4 * j;
        let j = j as usize;
        (v[j - 1] * (4 - delta) as f64 + v[j] * delta as f64) / 4.0
    };
    (q(1), q(2), q(3))
}

/// What a change did to one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better, by the pairing rule.
    Improved,
    /// No worse than the bound allows, on a metric steady enough to say so.
    NoChange,
    /// Worse than the parent's median by more than the bound.
    Regressed,
    /// Neither: the spread is wider than the bound, or a gain is not
    /// shown by enough pairs.
    Unresolved,
}

impl Verdict {
    /// The verdict as printed.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::NoChange => "no change",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Pairs a gain must be shown on.
pub const MIN_PAIRS: usize = 10;

/// Judge `change` against `parent`, run `i` of each forming pair `i`
/// (the runs alternate which side goes first). A gain needs at least
/// [`MIN_PAIRS`] pairs, a win in nine tenths of them, and a median gap
/// larger than the parent's interquartile range. A regression is a
/// median worse than the parent's by more than `bound` (a share of the
/// parent's median). When the parent's own spread exceeds `bound`, no
/// change cannot be told from noise, unless every change run beats
/// every parent run.
///
/// # Panics
///
/// Panics when either side is empty.
pub fn verdict(parent: &[f64], change: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let better = |a: f64, b: f64| if higher_is_better { a > b } else { a < b };
    let (q1, p_med, q3) = quartiles(parent);
    let c_med = median(change);
    let scale = p_med.abs().max(f64::MIN_POSITIVE);
    let gain = if higher_is_better {
        c_med - p_med
    } else {
        p_med - c_med
    };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better(c, p))
        .count();
    if pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && gain > q3 - q1 {
        return Verdict::Improved;
    }
    if -gain > bound * scale {
        return Verdict::Regressed;
    }
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    if (q3 - q1) > bound * scale && !all_better {
        return Verdict::Unresolved;
    }
    if gain > bound * scale {
        return Verdict::Unresolved;
    }
    Verdict::NoChange
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0]), 4.0);
    }

    #[test]
    fn verdicts_follow_the_pairing_rule() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let same = parent.clone();
        assert_eq!(verdict(&parent, &same, true, 0.1), Verdict::NoChange);
        let faster: Vec<f64> = parent.iter().map(|p| p * 1.3).collect();
        assert_eq!(verdict(&parent, &faster, true, 0.1), Verdict::Improved);
        assert_eq!(verdict(&parent, &faster, false, 0.1), Verdict::Regressed);
        // Three pairs cannot show a gain, however large.
        assert_eq!(
            verdict(&parent[..3], &faster[..3], true, 0.1),
            Verdict::Unresolved
        );
        let noisy = [50.0, 100.0, 150.0];
        assert_eq!(
            verdict(&noisy, &[100.0, 101.0, 99.0], true, 0.1),
            Verdict::Unresolved
        );
    }
}
