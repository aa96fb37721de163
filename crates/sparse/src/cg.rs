//! Preconditioned conjugate gradient solver.
//!
//! For the largest power grids (hundreds of thousands of nodes) a direct
//! factorisation can be memory hungry; the paper notes that iterative block
//! solvers with appropriate preconditioners can be used instead. This module
//! provides a standard preconditioned CG for symmetric positive definite
//! systems together with Jacobi and zero-fill incomplete Cholesky
//! preconditioners. [`solve_into`] is the allocation-free form: it borrows
//! its iteration vectors and any preconditioner scratch from a
//! [`SolveWorkspace`].

use crate::{CscMatrix, CsrMatrix, Result, SolveWorkspace, SparseError, TripletMatrix};

/// A symmetric positive definite preconditioner `M ≈ A` applied as `z = M⁻¹ r`.
pub trait Preconditioner {
    /// Writes `M⁻¹ r` into `z`, borrowing any scratch from `ws`.
    fn apply_into(&self, r: &[f64], z: &mut [f64], ws: &mut SolveWorkspace);
}

/// The identity preconditioner (plain CG).
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityPreconditioner;

impl Preconditioner for IdentityPreconditioner {
    fn apply_into(&self, r: &[f64], z: &mut [f64], _ws: &mut SolveWorkspace) {
        z.copy_from_slice(r);
    }
}

/// Diagonal (Jacobi) preconditioner.
#[derive(Debug, Clone)]
pub struct JacobiPreconditioner {
    inv_diag: Vec<f64>,
}

impl JacobiPreconditioner {
    /// Builds the preconditioner from the diagonal of `a`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::NotPositiveDefinite`] if any diagonal entry is
    /// not strictly positive.
    pub fn new(a: &CsrMatrix) -> Result<Self> {
        let diag = a.diagonal();
        let mut inv_diag = Vec::with_capacity(diag.len());
        for (i, d) in diag.iter().enumerate() {
            if *d <= 0.0 {
                return Err(SparseError::NotPositiveDefinite {
                    column: i,
                    pivot: *d,
                });
            }
            inv_diag.push(1.0 / d);
        }
        Ok(JacobiPreconditioner { inv_diag })
    }
}

impl Preconditioner for JacobiPreconditioner {
    fn apply_into(&self, r: &[f64], z: &mut [f64], _ws: &mut SolveWorkspace) {
        for ((zi, x), d) in z.iter_mut().zip(r).zip(&self.inv_diag) {
            *zi = x * d;
        }
    }
}

/// Zero-fill incomplete Cholesky preconditioner IC(0).
///
/// The factor keeps exactly the lower-triangular sparsity pattern of `A`.
/// Applying the preconditioner performs one forward and one backward sparse
/// triangular solve.
#[derive(Debug, Clone)]
pub struct IncompleteCholesky {
    l: CscMatrix,
}

impl IncompleteCholesky {
    /// Builds the IC(0) factor of a symmetric positive definite matrix.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::NotPositiveDefinite`] when a pivot becomes
    /// non-positive during the incomplete factorisation (this can happen for
    /// SPD matrices that are not M-matrices; grid matrices are fine).
    pub fn new(a: &CsrMatrix) -> Result<Self> {
        if a.nrows() != a.ncols() {
            return Err(SparseError::NotSquare {
                shape: (a.nrows(), a.ncols()),
            });
        }
        let n = a.nrows();
        let lower = a.to_csc().lower_triangle();
        // Column-oriented IC(0): process columns left to right, keeping only
        // positions present in the original lower triangle.
        let indptr = lower.indptr().to_vec();
        let indices = lower.indices().to_vec();
        let mut data = lower.data().to_vec();

        for j in 0..n {
            let start = indptr[j];
            let end = indptr[j + 1];
            if start == end || indices[start] != j {
                return Err(SparseError::InvalidStructure {
                    reason: format!("missing diagonal entry in column {j}"),
                });
            }
            let diag = data[start];
            if diag <= 0.0 {
                return Err(SparseError::NotPositiveDefinite {
                    column: j,
                    pivot: diag,
                });
            }
            let diag_sqrt = diag.sqrt();
            data[start] = diag_sqrt;
            for v in &mut data[start + 1..end] {
                *v /= diag_sqrt;
            }
            // Update the remaining columns k > j restricted to their pattern.
            for p in (start + 1)..end {
                let k = indices[p];
                let ljk = data[p];
                if ljk == 0.0 {
                    continue;
                }
                let kstart = indptr[k];
                let kend = indptr[k + 1];
                // For every entry (i, k) in column k with i >= k, subtract
                // L(i, j) * L(k, j) if (i, j) is in the pattern of column j.
                let mut pj = start + 1;
                for pk in kstart..kend {
                    let i = indices[pk];
                    // advance pj until indices[pj] >= i
                    while pj < end && indices[pj] < i {
                        pj += 1;
                    }
                    if pj < end && indices[pj] == i {
                        data[pk] -= data[pj] * ljk;
                    }
                }
            }
        }
        let l = CscMatrix::from_raw_parts(n, n, indptr, indices, data)?;
        Ok(IncompleteCholesky { l })
    }

    /// The incomplete factor `L` (lower triangular, diagonal first per column).
    pub fn lower(&self) -> &CscMatrix {
        &self.l
    }
}

impl Preconditioner for IncompleteCholesky {
    fn apply_into(&self, r: &[f64], z: &mut [f64], _ws: &mut SolveWorkspace) {
        z.copy_from_slice(r);
        crate::triangular::solve_lower_csc(&self.l, z);
        crate::triangular::solve_lower_transpose_csc(&self.l, z);
    }
}

/// Options controlling the conjugate gradient iteration.
#[derive(Debug, Clone, Copy)]
pub struct CgOptions {
    /// Maximum number of iterations.
    pub max_iterations: usize,
    /// Relative residual tolerance `‖r‖₂ / ‖b‖₂`.
    pub tolerance: f64,
}

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions {
            max_iterations: 10_000,
            tolerance: 1e-10,
        }
    }
}

/// Outcome of a conjugate gradient solve.
#[derive(Debug, Clone)]
pub struct CgSolution {
    /// The computed solution vector.
    pub x: Vec<f64>,
    /// Number of iterations performed.
    pub iterations: usize,
    /// Final relative residual.
    pub relative_residual: f64,
}

/// Convergence record of a [`solve_into`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgConvergence {
    /// Number of iterations performed.
    pub iterations: usize,
    /// Final relative residual.
    pub relative_residual: f64,
}

/// Solves the SPD system `A·x = b` with preconditioned conjugate gradient.
/// Allocating wrapper around [`solve_into`].
///
/// # Errors
///
/// Returns [`SparseError::DidNotConverge`] if the relative residual does not
/// fall below `options.tolerance` within `options.max_iterations` iterations,
/// and [`SparseError::NotSquare`] / [`SparseError::DimensionMismatch`] for
/// shape problems.
///
/// # Example
///
/// ```
/// use opera_sparse::{CsrMatrix, cg};
///
/// # fn main() -> Result<(), opera_sparse::SparseError> {
/// let a = CsrMatrix::from_dense(2, 2, &[4.0, 1.0, 1.0, 3.0], 0.0);
/// let sol = cg::solve(
///     &a,
///     &[1.0, 2.0],
///     &cg::JacobiPreconditioner::new(&a)?,
///     cg::CgOptions::default(),
/// )?;
/// assert!(a.residual_inf_norm(&sol.x, &[1.0, 2.0]) < 1e-8);
/// # Ok(())
/// # }
/// ```
pub fn solve(
    a: &CsrMatrix,
    b: &[f64],
    preconditioner: &impl Preconditioner,
    options: CgOptions,
) -> Result<CgSolution> {
    let mut x = vec![0.0; b.len()];
    let convergence = solve_into(
        a,
        b,
        &mut x,
        preconditioner,
        options,
        &mut SolveWorkspace::new(),
    )?;
    Ok(CgSolution {
        x,
        iterations: convergence.iterations,
        relative_residual: convergence.relative_residual,
    })
}

/// Solves `A·x = b` from a zero start into `x`, borrowing the iteration
/// vectors (and the preconditioner's scratch) from `ws`: once the workspace
/// is warm, a solve performs zero heap allocations. Bit-identical to
/// [`solve`].
///
/// # Errors
///
/// Same contract as [`solve`]; `x` holds the last iterate when the
/// iteration does not converge.
pub fn solve_into(
    a: &CsrMatrix,
    b: &[f64],
    x: &mut [f64],
    preconditioner: &impl Preconditioner,
    options: CgOptions,
    ws: &mut SolveWorkspace,
) -> Result<CgConvergence> {
    let _span = opera_trace::span("cg.solve");
    if a.nrows() != a.ncols() {
        return Err(SparseError::NotSquare {
            shape: (a.nrows(), a.ncols()),
        });
    }
    if b.len() != a.nrows() || x.len() != b.len() {
        return Err(SparseError::DimensionMismatch {
            op: "cg::solve",
            left: (a.nrows(), a.ncols()),
            right: (b.len(), 1),
        });
    }
    x.fill(0.0);
    let norm_b = dot(b, b).sqrt();
    if norm_b == 0.0 {
        return Ok(CgConvergence {
            iterations: 0,
            relative_residual: 0.0,
        });
    }
    let n = b.len();
    let mut r = ws.take_vector(n);
    let mut z = ws.take_vector(n);
    let mut p = ws.take_vector(n);
    let mut ap = ws.take_vector(n);
    r.copy_from_slice(b);
    let result = iterate(
        a,
        norm_b,
        x,
        [&mut r, &mut z, &mut p, &mut ap],
        preconditioner,
        options,
        ws,
    );
    for v in [ap, p, z, r] {
        ws.give_back(v);
    }
    result
}

/// The preconditioned CG iteration of [`solve_into`] on its borrowed
/// vectors, with `r` holding `b` and `x` zero on entry.
fn iterate(
    a: &CsrMatrix,
    norm_b: f64,
    x: &mut [f64],
    [r, z, p, ap]: [&mut [f64]; 4],
    preconditioner: &impl Preconditioner,
    options: CgOptions,
    ws: &mut SolveWorkspace,
) -> Result<CgConvergence> {
    preconditioner.apply_into(r, z, ws);
    p.copy_from_slice(z);
    let mut rz = dot(r, z);

    for iter in 0..options.max_iterations {
        opera_trace::count("cg.iterations", 1);
        a.matvec_into(p, ap);
        let pap = dot(p, ap);
        if pap <= 0.0 {
            return Err(SparseError::NotPositiveDefinite {
                column: iter,
                pivot: pap,
            });
        }
        let alpha = rz / pap;
        for i in 0..x.len() {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let res = dot(r, r).sqrt() / norm_b;
        if res < options.tolerance {
            return Ok(CgConvergence {
                iterations: iter + 1,
                relative_residual: res,
            });
        }
        preconditioner.apply_into(r, z, ws);
        let rz_new = dot(r, z);
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..x.len() {
            p[i] = z[i] + beta * p[i];
        }
    }
    let res = dot(r, r).sqrt() / norm_b;
    Err(SparseError::DidNotConverge {
        iterations: options.max_iterations,
        residual: res,
    })
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Builds a small SPD test matrix: 2-D grid Laplacian plus a diagonal shift.
/// Exposed for benches and doc-tests of downstream crates.
pub fn laplacian_2d(nx: usize, ny: usize, shift: f64) -> CsrMatrix {
    let n = nx * ny;
    let idx = |x: usize, y: usize| y * nx + x;
    let mut t = TripletMatrix::new(n, n);
    for y in 0..ny {
        for x in 0..nx {
            t.push(idx(x, y), idx(x, y), shift);
            if x + 1 < nx {
                t.add_symmetric_pair(idx(x, y), idx(x + 1, y), 1.0);
            }
            if y + 1 < ny {
                t.add_symmetric_pair(idx(x, y), idx(x, y + 1), 1.0);
            }
        }
    }
    t.to_csr()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_cg_solves_small_system() {
        let a = laplacian_2d(5, 5, 0.3);
        let x_true: Vec<f64> = (0..a.nrows()).map(|i| (i as f64 * 0.2).cos()).collect();
        let b = a.matvec(&x_true);
        let sol = solve(&a, &b, &IdentityPreconditioner, CgOptions::default()).unwrap();
        assert!(a.residual_inf_norm(&sol.x, &b) < 1e-8);
    }

    #[test]
    fn jacobi_preconditioner_reduces_iterations() {
        // Badly scaled diagonal makes plain CG slow; Jacobi fixes the scaling.
        let n = 50;
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 1.0 + 1000.0 * (i as f64 / n as f64));
            if i + 1 < n {
                t.add_symmetric_pair(i, i + 1, 0.3);
            }
        }
        let a = t.to_csr();
        let b: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
        let plain = solve(&a, &b, &IdentityPreconditioner, CgOptions::default()).unwrap();
        let jacobi = solve(
            &a,
            &b,
            &JacobiPreconditioner::new(&a).unwrap(),
            CgOptions::default(),
        )
        .unwrap();
        assert!(jacobi.iterations <= plain.iterations);
        assert!(a.residual_inf_norm(&jacobi.x, &b) < 1e-6);
    }

    #[test]
    fn incomplete_cholesky_preconditioner_converges_fast_on_grid() {
        let a = laplacian_2d(12, 12, 0.05);
        let b: Vec<f64> = (0..a.nrows())
            .map(|i| ((i * 13 % 7) as f64) - 3.0)
            .collect();
        let ic = IncompleteCholesky::new(&a).unwrap();
        let plain = solve(&a, &b, &IdentityPreconditioner, CgOptions::default()).unwrap();
        let pre = solve(&a, &b, &ic, CgOptions::default()).unwrap();
        assert!(pre.iterations < plain.iterations);
        assert!(a.residual_inf_norm(&pre.x, &b) < 1e-7);
    }

    #[test]
    fn ic0_is_exact_for_tridiagonal_matrices() {
        // A tridiagonal SPD matrix has no fill, so IC(0) equals the exact
        // Cholesky factor and PCG converges in very few iterations.
        let n = 30;
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.5);
            if i + 1 < n {
                t.add_symmetric_pair(i, i + 1, 1.0);
            }
        }
        let a = t.to_csr();
        let b = vec![1.0; n];
        let ic = IncompleteCholesky::new(&a).unwrap();
        let sol = solve(&a, &b, &ic, CgOptions::default()).unwrap();
        assert!(sol.iterations <= 3, "took {} iterations", sol.iterations);
    }

    #[test]
    fn zero_rhs_returns_zero_solution() {
        let a = laplacian_2d(4, 4, 1.0);
        let sol = solve(
            &a,
            &vec![0.0; a.nrows()],
            &IdentityPreconditioner,
            CgOptions::default(),
        )
        .unwrap();
        assert_eq!(sol.iterations, 0);
        assert!(sol.x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn warm_solve_into_allocates_nothing_and_matches_solve() {
        let a = laplacian_2d(8, 8, 0.1);
        let b: Vec<f64> = (0..a.nrows()).map(|i| ((i * 5 % 9) as f64) - 4.0).collect();
        let ic = IncompleteCholesky::new(&a).unwrap();
        let reference = solve(&a, &b, &ic, CgOptions::default()).unwrap();
        let mut ws = SolveWorkspace::new();
        let mut x = vec![1.0; a.nrows()];
        solve_into(&a, &b, &mut x, &ic, CgOptions::default(), &mut ws).unwrap();
        let warm = ws.allocation_count();
        let convergence = solve_into(&a, &b, &mut x, &ic, CgOptions::default(), &mut ws).unwrap();
        assert_eq!(ws.allocation_count(), warm);
        assert_eq!(convergence.iterations, reference.iterations);
        assert_eq!(x, reference.x);
    }

    #[test]
    fn non_convergence_is_reported() {
        let a = laplacian_2d(10, 10, 0.01);
        // A non-smooth right-hand side so CG genuinely needs many iterations
        // (a constant vector is an eigenvector of the shifted Laplacian and
        // would converge in a single step).
        let b: Vec<f64> = (0..a.nrows())
            .map(|i| ((i * 37 % 11) as f64) - 5.0)
            .collect();
        let result = solve(
            &a,
            &b,
            &IdentityPreconditioner,
            CgOptions {
                max_iterations: 2,
                tolerance: 1e-14,
            },
        );
        assert!(matches!(result, Err(SparseError::DidNotConverge { .. })));
    }

    #[test]
    fn jacobi_rejects_non_positive_diagonal() {
        let a = CsrMatrix::from_dense(2, 2, &[1.0, 0.0, 0.0, -1.0], 0.0);
        assert!(JacobiPreconditioner::new(&a).is_err());
    }
}
