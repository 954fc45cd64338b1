//! Dense column-major matrices with Cholesky and LU factorizations.

use crate::{Error, Result};

/// A dense column-major matrix of `f64`.
///
/// Used for the small dense Schur-complement systems in the barrier solver
/// and as a reference implementation in tests.
///
/// # Example
///
/// ```
/// use optim::linalg::DenseMatrix;
///
/// # fn main() -> Result<(), optim::Error> {
/// let mut a = DenseMatrix::zeros(2, 2);
/// a.set(0, 0, 4.0);
/// a.set(1, 1, 9.0);
/// let chol = a.cholesky()?;
/// let x = chol.solve(&[8.0, 18.0]);
/// assert_eq!(x, vec![2.0, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DenseMatrix {
    nrows: usize,
    ncols: usize,
    /// Column-major storage: entry (i, j) lives at `data[j * nrows + i]`.
    data: Vec<f64>,
}

impl DenseMatrix {
    /// An `nrows × ncols` matrix of zeros.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        DenseMatrix {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds from a row-major nested slice (for tests and examples).
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = if nrows == 0 { 0 } else { rows[0].len() };
        let mut m = DenseMatrix::zeros(nrows, ncols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), ncols, "ragged rows");
            for (j, &v) in r.iter().enumerate() {
                m.set(i, j, v);
            }
        }
        m
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Entry (i, j).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        self.data[j * self.nrows + i]
    }

    /// Sets entry (i, j).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.nrows && j < self.ncols);
        self.data[j * self.nrows + i] = v;
    }

    /// Adds `v` to entry (i, j).
    #[inline]
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.nrows && j < self.ncols);
        self.data[j * self.nrows + i] += v;
    }

    /// Column `j` as a slice.
    #[inline]
    pub fn column(&self, j: usize) -> &[f64] {
        &self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Column `j` as a mutable slice.
    #[inline]
    pub fn column_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Matrix-vector product `A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols, "dimension mismatch");
        let mut y = vec![0.0; self.nrows];
        for j in 0..self.ncols {
            let xj = x[j];
            if xj == 0.0 {
                continue;
            }
            let col = self.column(j);
            for i in 0..self.nrows {
                y[i] += col[i] * xj;
            }
        }
        y
    }

    /// Reshapes to `nrows × ncols` and zeroes every entry, reusing the
    /// existing storage when its capacity suffices. The workhorse of the
    /// allocation-free Schur-complement path: after the first Newton step
    /// sized a scratch matrix, subsequent steps reshape for free.
    pub fn resize_reset(&mut self, nrows: usize, ncols: usize) {
        self.nrows = nrows;
        self.ncols = ncols;
        self.data.clear();
        self.data.resize(nrows * ncols, 0.0);
    }

    /// Copies another matrix's values into this one, reshaping as needed
    /// (storage is reused when capacity suffices).
    pub fn copy_values_from(&mut self, other: &DenseMatrix) {
        self.nrows = other.nrows;
        self.ncols = other.ncols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// Adds another matrix of the same shape into this one, entrywise.
    /// Allocation-free; used to merge per-worker partial accumulations.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_from(&mut self, other: &DenseMatrix) {
        assert_eq!(
            (self.nrows, self.ncols),
            (other.nrows, other.ncols),
            "shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place Cholesky factorization `A = L Lᵀ` of a symmetric positive
    /// definite matrix (only the lower triangle is read).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Numerical`] if a non-positive pivot is encountered
    /// (the matrix is not positive definite to working precision).
    pub fn cholesky(&self) -> Result<DenseCholesky> {
        let mut l = self.clone();
        l.cholesky_in_place()?;
        Ok(DenseCholesky { l })
    }

    /// Factorizes `self = L Lᵀ` in place, leaving `L` in the lower triangle
    /// (strict upper triangle zeroed). Allocation-free counterpart of
    /// [`DenseMatrix::cholesky`]; solve against the factor with
    /// [`DenseMatrix::chol_solve_in_place`]. On error the contents are
    /// partially overwritten and must be rebuilt before retrying.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Numerical`] on a non-positive pivot and
    /// [`Error::Dimension`] for a non-square matrix.
    pub fn cholesky_in_place(&mut self) -> Result<()> {
        if self.nrows != self.ncols {
            return Err(Error::Dimension("cholesky requires a square matrix".into()));
        }
        let n = self.nrows;
        for j in 0..n {
            // d = A[j,j] - sum_k L[j,k]^2
            let mut d = self.get(j, j);
            for k in 0..j {
                let ljk = self.get(j, k);
                d -= ljk * ljk;
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(Error::Numerical(format!(
                    "non-positive pivot {d:.3e} at column {j} in dense Cholesky"
                )));
            }
            let dj = d.sqrt();
            self.set(j, j, dj);
            for i in (j + 1)..n {
                let mut s = self.get(i, j);
                for k in 0..j {
                    s -= self.get(i, k) * self.get(j, k);
                }
                self.set(i, j, s / dj);
            }
        }
        // Zero the strict upper triangle for cleanliness.
        for j in 0..n {
            for i in 0..j {
                self.set(i, j, 0.0);
            }
        }
        Ok(())
    }

    /// Solves `L Lᵀ x = b` in place, treating `self` as the lower-triangular
    /// factor produced by [`DenseMatrix::cholesky_in_place`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` does not match the factor dimension.
    pub fn chol_solve_in_place(&self, x: &mut [f64]) {
        let n = self.nrows;
        assert_eq!(x.len(), n, "dimension mismatch in chol_solve_in_place");
        // Forward: L y = b
        for j in 0..n {
            x[j] /= self.get(j, j);
            let xj = x[j];
            let col = self.column(j);
            for i in (j + 1)..n {
                x[i] -= col[i] * xj;
            }
        }
        // Backward: Lᵀ x = y
        for j in (0..n).rev() {
            let col = self.column(j);
            let mut s = x[j];
            for i in (j + 1)..n {
                s -= col[i] * x[i];
            }
            x[j] = s / col[j];
        }
    }

    /// LU factorization with partial pivoting, `P A = L U`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Numerical`] if the matrix is singular to working
    /// precision.
    pub fn lu(&self) -> Result<DenseLu> {
        if self.nrows != self.ncols {
            return Err(Error::Dimension("lu requires a square matrix".into()));
        }
        let n = self.nrows;
        let mut a = self.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Pivot search.
            let mut p = k;
            let mut best = a.get(k, k).abs();
            for i in (k + 1)..n {
                let v = a.get(i, k).abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best < 1e-300 || !best.is_finite() {
                return Err(Error::Numerical(format!(
                    "singular matrix at pivot {k} in dense LU"
                )));
            }
            if p != k {
                perm.swap(p, k);
                for j in 0..n {
                    let t = a.get(k, j);
                    a.set(k, j, a.get(p, j));
                    a.set(p, j, t);
                }
            }
            let pivot = a.get(k, k);
            for i in (k + 1)..n {
                let m = a.get(i, k) / pivot;
                a.set(i, k, m);
                if m != 0.0 {
                    for j in (k + 1)..n {
                        a.add(i, j, -m * a.get(k, j));
                    }
                }
            }
        }
        Ok(DenseLu { lu: a, perm })
    }
}

/// A dense Cholesky factor `L` with `A = L Lᵀ`.
#[derive(Debug, Clone)]
pub struct DenseCholesky {
    l: DenseMatrix,
}

impl DenseCholesky {
    /// Solves `A x = b`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the factor dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.l.chol_solve_in_place(&mut x);
        x
    }

    /// The factor `L` (lower triangular).
    pub fn factor(&self) -> &DenseMatrix {
        &self.l
    }
}

/// A dense LU factorization with partial pivoting, `P A = L U`.
#[derive(Debug, Clone)]
pub struct DenseLu {
    lu: DenseMatrix,
    perm: Vec<usize>,
}

impl DenseLu {
    /// Solves `A x = b`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the factor dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.lu.nrows();
        assert_eq!(b.len(), n, "dimension mismatch in solve");
        // Apply permutation.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        // Forward: L y = Pb (unit diagonal).
        for j in 0..n {
            let xj = x[j];
            if xj != 0.0 {
                for i in (j + 1)..n {
                    x[i] -= self.lu.get(i, j) * xj;
                }
            }
        }
        // Backward: U x = y.
        for j in (0..n).rev() {
            x[j] /= self.lu.get(j, j);
            let xj = x[j];
            if xj != 0.0 {
                for i in 0..j {
                    x[i] -= self.lu.get(i, j) * xj;
                }
            }
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cholesky_solves_spd_system() {
        let a = DenseMatrix::from_rows(&[&[4.0, 2.0, 0.0], &[2.0, 5.0, 1.0], &[0.0, 1.0, 3.0]]);
        let chol = a.cholesky().unwrap();
        let b = [6.0, 8.0, 4.0];
        let x = chol.solve(&b);
        let ax = a.mul_vec(&x);
        for i in 0..3 {
            assert!((ax[i] - b[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        assert!(matches!(a.cholesky(), Err(Error::Numerical(_))));
    }

    #[test]
    fn lu_solves_general_system() {
        let a = DenseMatrix::from_rows(&[&[0.0, 2.0, 1.0], &[1.0, -1.0, 0.0], &[3.0, 0.0, -2.0]]);
        let lu = a.lu().unwrap();
        let b = [3.0, 0.0, 1.0];
        let x = lu.solve(&b);
        let ax = a.mul_vec(&x);
        for i in 0..3 {
            assert!((ax[i] - b[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn lu_rejects_singular() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(a.lu().is_err());
    }

    #[test]
    fn in_place_cholesky_matches_cloning_api() {
        let a = DenseMatrix::from_rows(&[&[4.0, 2.0, 0.0], &[2.0, 5.0, 1.0], &[0.0, 1.0, 3.0]]);
        let mut l = DenseMatrix::zeros(1, 1);
        l.copy_values_from(&a);
        l.cholesky_in_place().unwrap();
        assert_eq!(&l, a.cholesky().unwrap().factor());
        let b = [6.0, 8.0, 4.0];
        let mut x = b.to_vec();
        l.chol_solve_in_place(&mut x);
        let ax = a.mul_vec(&x);
        for i in 0..3 {
            assert!((ax[i] - b[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn resize_reset_reuses_storage_and_zeroes() {
        let mut m = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        m.resize_reset(2, 2);
        assert_eq!(m, DenseMatrix::zeros(2, 2));
        m.set(1, 1, 7.0);
        m.resize_reset(1, 1);
        assert_eq!(m.nrows(), 1);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn identity_solves_trivially() {
        let i3 = DenseMatrix::identity(3);
        let chol = i3.cholesky().unwrap();
        assert_eq!(chol.solve(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
    }
}
