//! Brute-force `O(n²)` test references: the obviously-correct scans the
//! property tests compare [`crate::KdTree`]'s queries against.

use crate::dist_sq;

/// Index and squared distance of the nearest point to `query`, excluding
/// indices for which `skip` returns `true`. `None` if all points are
/// skipped or the set is empty.
pub(crate) fn nearest_excluding(
    dim: usize,
    points: &[f64],
    query: &[f64],
    skip: impl Fn(usize) -> bool,
) -> Option<(usize, f64)> {
    assert_eq!(query.len(), dim);
    let n = points.len() / dim;
    let mut best: Option<(usize, f64)> = None;
    for i in 0..n {
        if skip(i) {
            continue;
        }
        let d = dist_sq(&points[i * dim..(i + 1) * dim], query);
        if best.is_none_or(|(_, bd)| d < bd) {
            best = Some((i, d));
        }
    }
    best
}

/// Nearest point to `query` (no exclusions).
pub(crate) fn nearest(dim: usize, points: &[f64], query: &[f64]) -> Option<(usize, f64)> {
    nearest_excluding(dim, points, query, |_| false)
}

/// Number of points with distance to `query` strictly less than `radius`.
///
/// The strict inequality matches the count `cᵢ` of paper Eq. 20.
pub(crate) fn count_within_strict(dim: usize, points: &[f64], query: &[f64], radius: f64) -> usize {
    let r2 = radius * radius;
    let n = points.len() / dim;
    (0..n)
        .filter(|&i| dist_sq(&points[i * dim..(i + 1) * dim], query) < r2)
        .count()
}

/// Number of points with distance to `query` less than or equal `radius`.
pub(crate) fn count_within_inclusive(
    dim: usize,
    points: &[f64],
    query: &[f64],
    radius: f64,
) -> usize {
    let r2 = radius * radius;
    let n = points.len() / dim;
    (0..n)
        .filter(|&i| dist_sq(&points[i * dim..(i + 1) * dim], query) <= r2)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    const PTS: [f64; 10] = [0.0, 0.0, 1.0, 0.0, 0.0, 2.0, 5.0, 5.0, -1.0, -1.0];

    #[test]
    fn nearest_finds_closest() {
        let (i, d2) = nearest(2, &PTS, &[0.9, 0.1]).unwrap();
        assert_eq!(i, 1);
        assert!((d2 - 0.02).abs() < 1e-12);
    }

    #[test]
    fn nearest_excluding_skips() {
        let (i, _) = nearest_excluding(2, &PTS, &[0.9, 0.1], |i| i == 1).unwrap();
        assert_eq!(i, 0);
        assert!(nearest_excluding(2, &PTS, &[0.0, 0.0], |_| true).is_none());
    }

    #[test]
    fn count_strict_vs_inclusive_on_boundary() {
        // Point 1 is at distance exactly 1 from origin.
        assert_eq!(count_within_strict(2, &PTS, &[0.0, 0.0], 1.0), 1); // only itself-like origin point
        assert_eq!(count_within_inclusive(2, &PTS, &[0.0, 0.0], 1.0), 2);
    }
}
