//! Brute-force `O(n²)` reference implementations.
//!
//! These are the ground truth the property tests compare [`crate::KdTree`]
//! and [`crate::CellGrid`] against. [`knn`] and [`pairs_within`] are also
//! the `O(n²)` baselines of the substrate benches; the nearest-point and
//! range-count references exist only in test builds.

use crate::dist_sq;

/// The `k` nearest points to `query`, sorted by ascending squared distance
/// (ties broken by index). Returns fewer than `k` entries if the set is
/// smaller.
pub fn knn(dim: usize, points: &[f64], query: &[f64], k: usize) -> Vec<(usize, f64)> {
    assert_eq!(query.len(), dim);
    let n = points.len() / dim;
    let mut all: Vec<(usize, f64)> = (0..n)
        .map(|i| (i, dist_sq(&points[i * dim..(i + 1) * dim], query)))
        .collect();
    all.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
    all.truncate(k);
    all
}

/// All unordered pairs `(i, j)`, `i < j`, with distance ≤ `radius`, in
/// lexicographic order.
pub fn pairs_within(dim: usize, points: &[f64], radius: f64) -> Vec<(usize, usize)> {
    let r2 = radius * radius;
    let n = points.len() / dim;
    let mut out = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if dist_sq(
                &points[i * dim..(i + 1) * dim],
                &points[j * dim..(j + 1) * dim],
            ) <= r2
            {
                out.push((i, j));
            }
        }
    }
    out
}

/// Index and squared distance of the nearest point to `query`, excluding
/// indices for which `skip` returns `true`. `None` if all points are
/// skipped or the set is empty.
#[cfg(test)]
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
#[cfg(test)]
pub(crate) fn nearest(dim: usize, points: &[f64], query: &[f64]) -> Option<(usize, f64)> {
    nearest_excluding(dim, points, query, |_| false)
}

/// Number of points with distance to `query` strictly less than `radius`.
///
/// The strict inequality matches the count `cᵢ` of paper Eq. 20.
#[cfg(test)]
pub(crate) fn count_within_strict(dim: usize, points: &[f64], query: &[f64], radius: f64) -> usize {
    let r2 = radius * radius;
    let n = points.len() / dim;
    (0..n)
        .filter(|&i| dist_sq(&points[i * dim..(i + 1) * dim], query) < r2)
        .count()
}

/// Number of points with distance to `query` less than or equal `radius`.
#[cfg(test)]
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
    fn knn_ordering_and_truncation() {
        let nn = knn(2, &PTS, &[0.0, 0.0], 3);
        assert_eq!(nn.len(), 3);
        assert_eq!(nn[0].0, 0);
        assert_eq!(nn[1].0, 1);
        // (0,2) at d2=4 before (-1,-1) at d2=2? No: (-1,-1) has d2=2 < 4.
        assert_eq!(nn[2].0, 4);
        let all = knn(2, &PTS, &[0.0, 0.0], 99);
        assert_eq!(all.len(), 5);
    }

    #[test]
    fn count_strict_vs_inclusive_on_boundary() {
        // Point 1 is at distance exactly 1 from origin.
        assert_eq!(count_within_strict(2, &PTS, &[0.0, 0.0], 1.0), 1); // only itself-like origin point
        assert_eq!(count_within_inclusive(2, &PTS, &[0.0, 0.0], 1.0), 2);
    }

    #[test]
    fn pairs_within_small() {
        let pairs = pairs_within(2, &PTS, 1.5);
        assert!(pairs.contains(&(0, 1)));
        assert!(pairs.contains(&(0, 4)));
        assert!(!pairs.contains(&(0, 3)));
    }
}
