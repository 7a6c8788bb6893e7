//! Symmetric per-type-pair parameter matrices.
//!
//! The interaction parameters of the particle model — `k_{αβ}` (force
//! scale), `r_{αβ}` (preferred distance), `σ_{αβ}`, `τ_{αβ}` (Gaussian
//! widths) — are symmetric `l × l` matrices indexed by particle type
//! (paper §4.1). The paper only considers symmetric matrices because
//! asymmetric preferred distances lead to unstable or cycling dynamics, so
//! this type stores the upper triangle only and enforces symmetry by
//! construction.

/// Symmetric `l × l` matrix of `f64` parameters indexed by particle type.
///
/// Storage is the upper triangle in row-major order
/// (`(0,0), (0,1), …, (0,l−1), (1,1), …`), so `l(l+1)/2` values.
///
/// ```
/// use sops_math::PairMatrix;
/// let mut r = PairMatrix::constant(2, 1.0);
/// r.set(0, 1, 2.5);
/// assert_eq!(r.get(1, 0), 2.5); // symmetric by construction
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PairMatrix {
    types: usize,
    data: Vec<f64>,
}

impl PairMatrix {
    /// Creates a matrix with every entry set to `value`.
    pub fn constant(types: usize, value: f64) -> Self {
        assert!(types > 0, "PairMatrix: need at least one type");
        PairMatrix {
            types,
            data: vec![value; types * (types + 1) / 2],
        }
    }

    /// Builds a matrix from a full row-major `l × l` slice, checking
    /// symmetry.
    ///
    /// # Panics
    ///
    /// Panics if `full.len() != l²` or if the data is not symmetric to
    /// within `1e-12`.
    pub fn from_full(types: usize, full: &[f64]) -> Self {
        assert_eq!(full.len(), types * types, "PairMatrix::from_full: size");
        let mut m = PairMatrix::constant(types, 0.0);
        for a in 0..types {
            for b in a..types {
                let upper = full[a * types + b];
                let lower = full[b * types + a];
                assert!(
                    (upper - lower).abs() <= 1e-12,
                    "PairMatrix::from_full: entry ({a},{b}) not symmetric: {upper} vs {lower}"
                );
                m.set(a, b, upper);
            }
        }
        m
    }

    /// Builds a matrix by evaluating `f(min(a,b), max(a,b))` for each pair.
    pub fn from_fn(types: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = PairMatrix::constant(types, 0.0);
        for a in 0..types {
            for b in a..types {
                m.set(a, b, f(a, b));
            }
        }
        m
    }

    /// Number of types `l`.
    pub fn types(&self) -> usize {
        self.types
    }

    #[inline]
    fn index(&self, a: usize, b: usize) -> usize {
        debug_assert!(a < self.types && b < self.types);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        // Row `lo` of the upper triangle starts after
        // sum_{r<lo} (types - r) = lo*types - lo(lo-1)/2 entries.
        lo * self.types - lo * (lo.wrapping_sub(1)) / 2 + (hi - lo)
    }

    /// Parameter for the (unordered) type pair `{a, b}`.
    #[inline]
    pub fn get(&self, a: usize, b: usize) -> f64 {
        self.data[self.index(a, b)]
    }

    /// Sets the parameter for the (unordered) type pair `{a, b}`.
    #[inline]
    pub fn set(&mut self, a: usize, b: usize, value: f64) {
        let i = self.index(a, b);
        self.data[i] = value;
    }

    /// Applies `f` to every stored entry.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> PairMatrix {
        PairMatrix {
            types: self.types,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constant_fill() {
        let m = PairMatrix::constant(3, 2.5);
        for a in 0..3 {
            for b in 0..3 {
                assert_eq!(m.get(a, b), 2.5);
            }
        }
    }

    #[test]
    fn symmetric_set_get() {
        let mut m = PairMatrix::constant(4, 0.0);
        m.set(1, 3, 7.0);
        assert_eq!(m.get(3, 1), 7.0);
        assert_eq!(m.get(1, 3), 7.0);
        m.set(3, 1, 9.0);
        assert_eq!(m.get(1, 3), 9.0);
    }

    #[test]
    fn from_full_fig4_matrix() {
        // The Fig. 4 preferred-distance matrix from the paper.
        let m = PairMatrix::from_full(3, &[2.5, 5.0, 4.0, 5.0, 2.5, 2.0, 4.0, 2.0, 3.5]);
        assert_eq!(m.get(0, 1), 5.0);
        assert_eq!(m.get(2, 1), 2.0);
        assert_eq!(m.get(2, 2), 3.5);
    }

    #[test]
    #[should_panic(expected = "not symmetric")]
    fn from_full_rejects_asymmetric() {
        PairMatrix::from_full(2, &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn from_fn_fills_the_upper_triangle() {
        let m = PairMatrix::from_fn(3, |a, b| (a * 10 + b) as f64);
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(1, 0), 1.0);
        assert_eq!(m.get(2, 2), 22.0);
    }

    #[test]
    fn map_applies_elementwise() {
        let m = PairMatrix::constant(2, 2.0).map(|v| v * v);
        assert_eq!(m.get(0, 1), 4.0);
    }

    proptest! {
        #[test]
        fn get_is_order_invariant(types in 1..8usize, seed in proptest::collection::vec(0.0..1.0f64, 36)) {
            let m = PairMatrix::from_fn(types, |a, b| seed[(a * 6 + b) % 36]);
            for a in 0..types {
                for b in 0..types {
                    prop_assert_eq!(m.get(a, b), m.get(b, a));
                }
            }
        }

        #[test]
        fn index_covers_triangle_bijectively(types in 1..10usize) {
            let mut m = PairMatrix::constant(types, 0.0);
            let mut counter = 0.0;
            for a in 0..types {
                for b in a..types {
                    counter += 1.0;
                    m.set(a, b, counter);
                }
            }
            // All entries distinct => no two pairs alias the same slot.
            let mut seen: Vec<f64> = (0..types)
                .flat_map(|a| (a..types).map(move |b| (a, b)))
                .map(|(a, b)| m.get(a, b))
                .collect();
            seen.sort_by(|x, y| x.partial_cmp(y).unwrap());
            seen.dedup();
            prop_assert_eq!(seen.len(), types * (types + 1) / 2);
        }
    }
}
