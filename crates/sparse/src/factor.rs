//! A unified direct factorisation handle.
//!
//! Power-grid conductance and companion matrices are symmetric positive
//! definite in the nominal case, but Galerkin-augmented matrices can lose
//! numerical positive definiteness for large variation magnitudes. Callers
//! therefore routinely want "Cholesky, falling back to LU when the matrix is
//! not SPD". [`MatrixFactor`] packages that policy (and the pure-Cholesky and
//! pure-LU variants) behind one `solve` interface so downstream crates do not
//! each carry their own two-variant enum.

use crate::cholesky::{CholeskyFactor, SymbolicCholesky};
use crate::csr::CsrMatrix;
use crate::lu::LuFactor;
use crate::panel::{Panel, SolveWorkspace};
use crate::Result;

/// A factored sparse matrix: either a sparse Cholesky factor (SPD input) or a
/// left-looking LU factor with partial pivoting (general input).
#[derive(Debug)]
pub enum MatrixFactor {
    /// Sparse Cholesky factor of an SPD matrix.
    Cholesky(CholeskyFactor),
    /// Left-looking LU factor with partial pivoting.
    Lu(LuFactor),
}

impl MatrixFactor {
    /// Factors `a` with sparse Cholesky, falling back to left-looking LU if
    /// the matrix is not numerically positive definite.
    ///
    /// # Errors
    ///
    /// Returns the LU factorisation error if both attempts fail.
    pub fn cholesky_or_lu(a: &CsrMatrix) -> Result<Self> {
        match CholeskyFactor::factor(a) {
            Ok(f) => Ok(MatrixFactor::Cholesky(f)),
            Err(_) => Ok(MatrixFactor::Lu(LuFactor::factor(a)?)),
        }
    }

    /// Factors `a` with a numeric-only Cholesky against a shared symbolic
    /// analysis, falling back to left-looking LU if that fails — the
    /// [`MatrixFactor::cholesky_or_lu`] policy for callers that factor many
    /// matrices of one pattern. Any Cholesky error (not positive definite,
    /// or an entry outside the analysed pattern) takes the LU path for this
    /// matrix only; the shared analysis is unaffected.
    ///
    /// # Errors
    ///
    /// Returns the LU factorisation error if both attempts fail.
    pub fn cholesky_or_lu_with(symbolic: &SymbolicCholesky, a: &CsrMatrix) -> Result<Self> {
        match symbolic.factor_numeric(a) {
            Ok(f) => Ok(MatrixFactor::Cholesky(f)),
            Err(_) => Self::lu(a),
        }
    }

    /// Factors `a` with sparse Cholesky only (no LU fallback).
    ///
    /// # Errors
    ///
    /// Returns the Cholesky error if `a` is not numerically SPD.
    pub fn cholesky(a: &CsrMatrix) -> Result<Self> {
        Ok(MatrixFactor::Cholesky(CholeskyFactor::factor(a)?))
    }

    /// Factors `a` with left-looking LU with partial pivoting, regardless of
    /// symmetry or definiteness.
    ///
    /// # Errors
    ///
    /// Returns the LU error for singular matrices.
    pub fn lu(a: &CsrMatrix) -> Result<Self> {
        Ok(MatrixFactor::Lu(LuFactor::factor(a)?))
    }

    /// Returns `true` if the factor is a Cholesky factor.
    pub fn is_cholesky(&self) -> bool {
        matches!(self, MatrixFactor::Cholesky(_))
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        match self {
            MatrixFactor::Cholesky(f) => f.dim(),
            MatrixFactor::Lu(f) => f.dim(),
        }
    }

    /// Solves `A·x = b`, allocating the result. In hot loops prefer
    /// [`MatrixFactor::solve_in_place`] with a reused [`SolveWorkspace`].
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        match self {
            MatrixFactor::Cholesky(f) => f.solve(b),
            MatrixFactor::Lu(f) => f.solve(b),
        }
    }

    /// Solves `A·x = b` in place with workspace-borrowed scratch; zero heap
    /// allocations once `ws` is warm. Bit-identical to
    /// [`MatrixFactor::solve`].
    pub fn solve_in_place(&self, b: &mut [f64], ws: &mut SolveWorkspace) {
        match self {
            MatrixFactor::Cholesky(f) => f.solve_in_place(b, ws),
            MatrixFactor::Lu(f) => f.solve_in_place(b, ws),
        }
    }

    /// Solves `A·X = B` in place for every column of the panel through the
    /// blocked multi-RHS triangular kernels. Each panel column is
    /// bit-identical to [`MatrixFactor::solve`] on that column.
    pub fn solve_panel(&self, b: &mut Panel, ws: &mut SolveWorkspace) {
        match self {
            MatrixFactor::Cholesky(f) => f.solve_panel(b, ws),
            MatrixFactor::Lu(f) => f.solve_panel(b, ws),
        }
    }

    /// Solves `A·X = B` in place for `k` right-hand sides stacked
    /// column-major in `b` (`b.len() == k·n`). Cholesky factors run the
    /// blocked panel kernels on the buffer; LU factors solve column by
    /// column. Either way each column is bit-identical to
    /// [`MatrixFactor::solve`] on that column.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` is not a multiple of the matrix dimension.
    pub fn solve_columns_in_place(&self, b: &mut [f64], ws: &mut SolveWorkspace) {
        match self {
            MatrixFactor::Cholesky(f) => f.solve_columns_in_place(b, ws),
            MatrixFactor::Lu(f) => {
                let n = f.dim();
                assert!(
                    n > 0 && b.len().is_multiple_of(n),
                    "stacked rhs length must be a multiple of the dimension"
                );
                for column in b.chunks_exact_mut(n) {
                    f.solve_in_place(column, ws);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triplet::TripletMatrix;

    fn spd2() -> CsrMatrix {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 4.0);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        t.push(1, 1, 3.0);
        t.to_csr()
    }

    fn indefinite2() -> CsrMatrix {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 0.0);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        t.push(1, 1, 0.0);
        t.to_csr()
    }

    #[test]
    fn spd_matrix_takes_the_cholesky_path() {
        let a = spd2();
        let f = MatrixFactor::cholesky_or_lu(&a).unwrap();
        assert!(f.is_cholesky());
        assert_eq!(f.dim(), 2);
        let x = f.solve(&[5.0, 4.0]);
        assert!((a.residual_inf_norm(&x, &[5.0, 4.0])) < 1e-12);
    }

    #[test]
    fn non_spd_matrix_falls_back_to_lu() {
        let a = indefinite2();
        let f = MatrixFactor::cholesky_or_lu(&a).unwrap();
        assert!(!f.is_cholesky());
        let x = f.solve(&[2.0, 3.0]);
        // A swaps the entries: x = [3, 2].
        assert!((x[0] - 3.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn shared_analysis_factors_spd_matrices_and_falls_back_to_lu_otherwise() {
        // Tridiagonal pattern analysed once; the SPD realization takes the
        // numeric-only Cholesky path, the indefinite one (same pattern,
        // negative leading pivot) the LU fallback.
        let tridiagonal = |diag: f64| {
            let mut t = TripletMatrix::new(4, 4);
            t.push(0, 0, diag);
            for i in 1..4 {
                t.push(i, i, 3.0);
                t.add_symmetric_pair(i - 1, i, 1.0);
            }
            t.to_csr()
        };
        let symbolic = SymbolicCholesky::analyze(&tridiagonal(3.0)).unwrap();
        let b = [1.0, -2.0, 0.5, 4.0];
        let spd = tridiagonal(5.0);
        let f = MatrixFactor::cholesky_or_lu_with(&symbolic, &spd).unwrap();
        assert!(f.is_cholesky());
        assert!(spd.residual_inf_norm(&f.solve(&b), &b) < 1e-12);
        let indefinite = tridiagonal(-2.0);
        let f = MatrixFactor::cholesky_or_lu_with(&symbolic, &indefinite).unwrap();
        assert!(!f.is_cholesky());
        assert!(indefinite.residual_inf_norm(&f.solve(&b), &b) < 1e-12);
    }

    #[test]
    fn in_place_and_panel_solves_match_on_both_variants() {
        let rhs: Vec<Vec<f64>> = (0..3).map(|k| vec![1.0 + k as f64, -2.0]).collect();
        for factor in [
            MatrixFactor::cholesky(&spd2()).unwrap(),
            MatrixFactor::lu(&indefinite2()).unwrap(),
        ] {
            let mut ws = SolveWorkspace::new();
            let mut panel = Panel::from_columns(&rhs);
            factor.solve_panel(&mut panel, &mut ws);
            for (j, b) in rhs.iter().enumerate() {
                let expected = factor.solve(b);
                assert_eq!(panel.col(j), &expected[..]);
                let mut x = b.clone();
                factor.solve_in_place(&mut x, &mut ws);
                assert_eq!(x, expected);
            }
        }
    }

    #[test]
    fn pure_variants_respect_their_contract() {
        assert!(MatrixFactor::cholesky(&indefinite2()).is_err());
        let f = MatrixFactor::lu(&spd2()).unwrap();
        assert!(!f.is_cholesky());
        let x = f.solve(&[4.0, 1.0]);
        assert!(spd2().residual_inf_norm(&x, &[4.0, 1.0]) < 1e-12);
    }
}
