//! The harness's own arithmetic: order statistics, span self time and
//! score orientation. Pure functions, unit-tested below
//! (`cargo test --manifest-path e2ebench/Cargo.toml`).

/// Median of `xs` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics if `xs` is empty or holds a NaN.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The `p`-th percentile of `xs` (`0 ≤ p ≤ 100`), linearly interpolated
/// between closest ranks: rank `p/100·(n−1)` of the sorted samples.
///
/// # Panics
///
/// Panics if `xs` is empty, holds a NaN, or `p` is outside `[0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    assert!(
        (0.0..=100.0).contains(&p),
        "percentile {p} outside [0, 100]"
    );
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Total length covered by a set of `[start, end)` intervals, overlaps
/// counted once.
pub fn union_len(intervals: &[(f64, f64)]) -> f64 {
    let mut sorted: Vec<(f64, f64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN interval"));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (s, e) in sorted {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// Self time of a span `[start, end)`: its duration minus the part of that
/// interval its children cover. Children running in parallel on several
/// lanes overlap; the covered part counts each instant once, so self time
/// is never negative.
pub fn self_time(span: (f64, f64), children: &[(f64, f64)]) -> f64 {
    let clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(span.0), e.min(span.1)))
        .collect();
    (span.1 - span.0) - union_len(&clipped)
}

/// A figure of merit oriented so that higher is always better: the FoM
/// itself for power objectives, its reciprocal for contrast objectives
/// (the isolator's backward/forward ratio, which is minimised).
pub fn oriented_score(fom: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        fom
    } else {
        1.0 / fom
    }
}

/// `true` when `value` matches `reference` within relative tolerance
/// `rel_tol` (both finite).
pub fn matches_reference(value: f64, reference: f64, rel_tol: f64) -> bool {
    value.is_finite() && (value - reference).abs() <= rel_tol * reference.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&xs, 0.0), 10.0);
        assert_eq!(percentile(&xs, 100.0), 50.0);
        assert_eq!(percentile(&xs, 25.0), 20.0);
        // Rank 0.9·4 = 3.6: 40 + 0.6·10.
        assert!((percentile(&xs, 90.0) - 46.0).abs() < 1e-12);
        // Order of the input does not matter.
        assert_eq!(percentile(&[50.0, 10.0, 40.0, 20.0, 30.0], 75.0), 40.0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn percentile_of_nothing_panics() {
        percentile(&[], 50.0);
    }

    #[test]
    fn union_counts_overlaps_once() {
        assert_eq!(union_len(&[]), 0.0);
        assert_eq!(union_len(&[(0.0, 2.0), (1.0, 3.0)]), 3.0);
        assert_eq!(union_len(&[(0.0, 1.0), (2.0, 3.0)]), 2.0);
        assert_eq!(union_len(&[(0.0, 4.0), (1.0, 2.0)]), 4.0);
        // Touching intervals merge; empty ones are ignored.
        assert_eq!(union_len(&[(2.0, 3.0), (0.0, 2.0), (5.0, 5.0)]), 3.0);
    }

    #[test]
    fn self_time_subtracts_children_once_when_they_overlap() {
        // A 10-unit parent; two lanes run children over [1, 6) and [2, 8):
        // they cover [1, 8) — 7 units, not 11.
        assert_eq!(self_time((0.0, 10.0), &[(1.0, 6.0), (2.0, 8.0)]), 3.0);
        // Sequential children.
        assert_eq!(self_time((0.0, 10.0), &[(0.0, 2.0), (5.0, 9.0)]), 4.0);
        // A child spilling past the parent is clipped to it.
        assert_eq!(self_time((0.0, 10.0), &[(8.0, 12.0)]), 8.0);
        // No children: all self.
        assert_eq!(self_time((3.0, 5.0), &[]), 2.0);
    }

    #[test]
    fn scores_orient_higher_is_better() {
        // Bend/crossing transmission: the FoM itself.
        assert_eq!(oriented_score(0.8, true), 0.8);
        // Isolator contrast (minimised): inverted, so a better (smaller)
        // contrast gives a larger score.
        assert_eq!(oriented_score(0.05, false), 20.0);
        assert!(oriented_score(0.01, false) > oriented_score(0.1, false));
    }

    #[test]
    fn reference_match_is_relative_and_rejects_non_finite() {
        assert!(matches_reference(1.00001, 1.0, 1e-4));
        assert!(!matches_reference(1.001, 1.0, 1e-4));
        assert!(matches_reference(-2.0, -2.0, 0.0));
        assert!(!matches_reference(f64::NAN, 1.0, 1e-4));
        assert!(!matches_reference(f64::INFINITY, 1.0, 1e-4));
    }
}
