//! Small dense matrices with the handful of factorizations the workspace
//! needs.
//!
//! The estimators and their tests need: covariance matrices of sample
//! ensembles and Cholesky factors (to draw correlated Gaussians and to
//! compute `ln det Σ` for analytic multi-information). Dimensions are tiny
//! (≤ a few hundred), so a straightforward row-major implementation is
//! appropriate — no BLAS.

/// Row-major dense `rows × cols` matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow of the row-major backing storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Cholesky factorization `Σ = L Lᵀ` for a symmetric positive-definite
    /// matrix; returns the lower-triangular factor, or `None` if the matrix
    /// is not (numerically) positive definite.
    pub fn cholesky(&self) -> Option<Matrix> {
        assert_eq!(self.rows, self.cols, "cholesky: matrix must be square");
        let n = self.rows;
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 {
                        return None;
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Some(l)
    }

    /// Natural log of the determinant of a symmetric positive-definite
    /// matrix, via Cholesky (`ln det Σ = 2 Σᵢ ln Lᵢᵢ`). `None` if not SPD.
    pub fn ln_det_spd(&self) -> Option<f64> {
        let l = self.cholesky()?;
        let mut acc = 0.0;
        for i in 0..self.rows {
            acc += l[(i, i)].ln();
        }
        Some(2.0 * acc)
    }

    /// Sample covariance matrix of `m` observations of a `d`-dimensional
    /// variable given as `m` rows of length `d` (unbiased, divides by
    /// `m − 1`).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two observations are given or rows are ragged.
    pub fn covariance_of(samples: &[&[f64]]) -> Matrix {
        let m = samples.len();
        assert!(m >= 2, "covariance_of: need at least two samples");
        let d = samples[0].len();
        let mut mean = vec![0.0; d];
        for s in samples {
            assert_eq!(s.len(), d, "covariance_of: ragged samples");
            for (acc, &v) in mean.iter_mut().zip(*s) {
                *acc += v;
            }
        }
        for v in &mut mean {
            *v /= m as f64;
        }
        let mut cov = Matrix::zeros(d, d);
        for s in samples {
            for i in 0..d {
                let di = s[i] - mean[i];
                for j in i..d {
                    cov[(i, j)] += di * (s[j] - mean[j]);
                }
            }
        }
        let denom = (m - 1) as f64;
        for i in 0..d {
            for j in i..d {
                cov[(i, j)] /= denom;
                cov[(j, i)] = cov[(i, j)];
            }
        }
        cov
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    /// The `n × n` matrix with row-major entries `data`.
    fn square(n: usize, data: &[f64]) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for (i, &v) in data.iter().enumerate() {
            m[(i / n, i % n)] = v;
        }
        m
    }

    #[test]
    fn identity_and_indexing() {
        let i3 = Matrix::identity(3);
        assert_eq!(i3[(0, 0)], 1.0);
        assert_eq!(i3[(0, 1)], 0.0);
        assert_eq!(i3.rows(), 3);
        assert_eq!(i3.cols(), 3);
    }

    #[test]
    fn cholesky_of_known_spd() {
        // [[4, 2], [2, 3]] = L L^T with L = [[2, 0], [1, sqrt(2)]]
        let a = square(2, &[4.0, 2.0, 2.0, 3.0]);
        let l = a.cholesky().unwrap();
        assert!(close(l[(0, 0)], 2.0, 1e-12));
        assert!(close(l[(1, 0)], 1.0, 1e-12));
        assert!(close(l[(1, 1)], 2.0f64.sqrt(), 1e-12));
        // det = 4*3 - 2*2 = 8
        assert!(close(a.ln_det_spd().unwrap(), 8.0f64.ln(), 1e-12));
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = square(2, &[1.0, 2.0, 2.0, 1.0]); // eigenvalues 3, -1
        assert!(a.cholesky().is_none());
    }

    #[test]
    fn covariance_of_simple_cloud() {
        // Two perfectly correlated coordinates.
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, 2.0 * i as f64]).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let cov = Matrix::covariance_of(&refs);
        assert!(close(cov[(0, 1)], 2.0 * cov[(0, 0)], 1e-12));
        assert!(close(cov[(1, 1)], 4.0 * cov[(0, 0)], 1e-12));
        // Perfectly dependent => singular covariance.
        assert!((cov[(0, 0)] * cov[(1, 1)] - cov[(0, 1)] * cov[(1, 0)]).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn ln_det_matches_closed_form_for_spd(v in proptest::collection::vec(-2.0..2.0f64, 9)) {
            // Build SPD as B^T B + I and compare with the rule of Sarrus.
            let b = square(3, &v);
            let mut spd = Matrix::identity(3);
            for i in 0..3 {
                for j in 0..3 {
                    spd[(i, j)] += (0..3).map(|k| b[(k, i)] * b[(k, j)]).sum::<f64>();
                }
            }
            let m = |i, j| spd[(i, j)];
            let det = m(0, 0) * (m(1, 1) * m(2, 2) - m(1, 2) * m(2, 1))
                - m(0, 1) * (m(1, 0) * m(2, 2) - m(1, 2) * m(2, 0))
                + m(0, 2) * (m(1, 0) * m(2, 1) - m(1, 1) * m(2, 0));
            let ch = spd.ln_det_spd().expect("SPD by construction").exp();
            prop_assert!(close(det, ch, 1e-8));
        }

        #[test]
        fn covariance_is_symmetric_psd_diag(rows in proptest::collection::vec(proptest::collection::vec(-5.0..5.0f64, 3), 4..30)) {
            let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
            let cov = Matrix::covariance_of(&refs);
            for i in 0..3 {
                prop_assert!(cov[(i, i)] >= -1e-12);
                for j in 0..3 {
                    prop_assert!(close(cov[(i, j)], cov[(j, i)], 1e-12));
                }
            }
        }
    }
}
