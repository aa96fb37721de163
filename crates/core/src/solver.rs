//! Pluggable solver backends for the augmented Galerkin system.
//!
//! The OPERA pipeline splits one stochastic transient analysis into two
//! phases with very different costs:
//!
//! 1. **prepare** — symbolic + numeric factorisation (or preconditioner
//!    construction) for a given [`GalerkinSystem`] and time step, and
//! 2. **step** — one implicit time step per transient point, reusing the
//!    prepared factors.
//!
//! [`SolverBackend`] captures phase 1 and returns a [`PreparedSolver`] that
//! captures phase 2. The split is what lets the
//! [`OperaEngine`](crate::engine::OperaEngine) amortise a single preparation
//! over arbitrarily many scenarios, and it lets a custom solver plug in by
//! value ([`EngineBuilder::solver`](crate::engine::EngineBuilder::solver))
//! instead of as a match-arm edit in the transient loop.
//!
//! Two backends ship with the crate, both also reachable by name through
//! [`backend_by_name`]:
//!
//! * [`BlockJacobiCg`] — the engine default: conjugate gradient on the
//!   augmented system with the mean-based block preconditioner, one
//!   factorisation of the *nominal* `n × n` companion matrix applied to
//!   every chaos block (the paper's §5.2 "iterative block solver with
//!   appropriate pre-conditioner" remark; Ghanem & Kruger 1996, Powell &
//!   Elman 2009). Its factor is the size of a deterministic analysis, so it
//!   builds, re-steps and solves several times faster than the direct
//!   backend from order 1 up (`docs/PERFORMANCE.md`).
//! * [`DirectCholesky`] — sparse Cholesky of the full augmented companion
//!   matrix, factored once and reused for every step (falls back to
//!   left-looking LU, per matrix, if the matrix is not numerically SPD). The
//!   small-grid oracle of the tests.

use std::fmt;
use std::sync::Arc;

use opera_sparse::cg::{self, CgOptions};
use opera_sparse::{CsrMatrix, MatrixFactor, Panel, SolveWorkspace, SparseError};
use opera_variation::StochasticGridModel;
use rayon::prelude::*;

use crate::galerkin::GalerkinSystem;
use crate::transient::{
    companion_scale, tr_bdf2_error_rhs, CompanionFamily, CompanionSystem, IntegrationMethod,
    TransientOptions, TR_BDF2_W_MID, TR_BDF2_W_OLD,
};
use crate::{OperaError, Result};

/// A strategy for solving the augmented Galerkin system.
///
/// Implementations perform all one-time work (factorisations, preconditioner
/// setup) in [`SolverBackend::prepare`] and return a [`PreparedSolver`] that
/// owns the factors and can be reused for every time step — and, through the
/// engine, for every scenario that shares the system and time step.
pub trait SolverBackend: fmt::Debug + Send + Sync {
    /// Stable identifier of the backend (for the built-in backends, the name
    /// [`backend_by_name`] resolves).
    fn name(&self) -> &str;

    /// Validates the backend's own parameters.
    ///
    /// # Errors
    ///
    /// Returns [`OperaError::InvalidOptions`] for inconsistent parameters.
    fn validate(&self) -> Result<()> {
        Ok(())
    }

    /// Performs the one-time setup for `system` and the given transient
    /// configuration: factorisations of the DC and companion matrices, or the
    /// equivalent preconditioner construction.
    ///
    /// # Errors
    ///
    /// Propagates factorisation errors.
    fn prepare(
        &self,
        model: &StochasticGridModel,
        system: &GalerkinSystem,
        transient: &TransientOptions,
    ) -> Result<Box<dyn PreparedSolver>>;
}

/// The reusable product of [`SolverBackend::prepare`]: owns every factor
/// needed to run an augmented transient and is shareable across threads, so
/// batched scenarios can step it concurrently.
///
/// The required methods are the allocation-free workspace forms
/// ([`solve_dc_into`](PreparedSolver::solve_dc_into) /
/// [`step_into`](PreparedSolver::step_into)): they write into caller-provided
/// buffers and borrow scratch from a [`SolveWorkspace`], so a steady-state
/// transient loop with a warm workspace never touches the allocator (every
/// built-in backend). The panel forms step several independent
/// right-hand-side columns at once: the provided defaults run the scalar
/// form on every column in parallel on the ambient thread pool (what the CG
/// backend uses), and the direct backends override them with **one**
/// blocked multi-RHS solve. Every implementation must keep each panel
/// column bit-identical to the scalar form on that column.
pub trait PreparedSolver: Send + Sync {
    /// Solves the DC system `G̃·a(0) = Ũ(0)` into `out` for the initial
    /// condition.
    ///
    /// # Errors
    ///
    /// Propagates solver errors (iterative backends may fail to converge).
    fn solve_dc_into(&self, u0: &[f64], out: &mut [f64], ws: &mut SolveWorkspace) -> Result<()>;

    /// Advances one implicit time step into `out`: given the state at `t_k`
    /// and the excitations at `t_k` and `t_{k+1}`, computes the state at
    /// `t_{k+1}`.
    ///
    /// # Errors
    ///
    /// Propagates solver errors (iterative backends may fail to converge).
    fn step_into(
        &self,
        state: &[f64],
        u_prev: &[f64],
        u_next: &[f64],
        out: &mut [f64],
        ws: &mut SolveWorkspace,
    ) -> Result<()>;

    /// Solves the DC system for every column of a panel of initial
    /// excitations. The default solves the columns in parallel (see
    /// [`PreparedSolver`]); direct backends override it with one blocked
    /// panel solve.
    ///
    /// # Errors
    ///
    /// Propagates the first failing column's solver error.
    fn solve_dc_panel(&self, u0: &Panel, out: &mut Panel, ws: &mut SolveWorkspace) -> Result<()> {
        assert_eq!(u0.ncols(), out.ncols(), "panel column count mismatch");
        for_each_column(out, None, ws, |j, out, _, ws| {
            self.solve_dc_into(u0.col(j), out, ws)
        })
    }

    /// Advances one implicit time step for a panel of independent states
    /// (column `j` of `out` steps column `j` of `state`). The default steps
    /// the columns in parallel; direct backends override it with one blocked
    /// panel solve.
    ///
    /// # Errors
    ///
    /// Propagates the first failing column's solver error.
    fn step_panel_into(
        &self,
        state: &Panel,
        u_prev: &Panel,
        u_next: &Panel,
        out: &mut Panel,
        ws: &mut SolveWorkspace,
    ) -> Result<()> {
        assert_eq!(state.ncols(), out.ncols(), "panel column count mismatch");
        for_each_column(out, None, ws, |j, out, _, ws| {
            self.step_into(state.col(j), u_prev.col(j), u_next.col(j), out, ws)
        })
    }

    /// Allocating convenience wrapper around
    /// [`solve_dc_into`](PreparedSolver::solve_dc_into).
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    fn solve_dc(&self, u0: &[f64]) -> Result<Vec<f64>> {
        let mut out = vec![0.0; u0.len()];
        self.solve_dc_into(u0, &mut out, &mut SolveWorkspace::new())?;
        Ok(out)
    }

    /// Allocating convenience wrapper around
    /// [`step_into`](PreparedSolver::step_into).
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    fn step(&self, state: &[f64], u_prev: &[f64], u_next: &[f64]) -> Result<Vec<f64>> {
        let mut out = vec![0.0; state.len()];
        self.step_into(state, u_prev, u_next, &mut out, &mut SolveWorkspace::new())?;
        Ok(out)
    }

    /// Advances one TR-BDF2 composite step into `out`: the trapezoidal stage
    /// over `[t, t + γh]` lands in `stage`, the BDF2 stage over the rest of
    /// the step lands in `out`. `u_mid` is the excitation at `t + γh`.
    ///
    /// The default rejects the call; backends prepared for
    /// [`IntegrationMethod::TrBdf2`] override it.
    ///
    /// # Errors
    ///
    /// Returns [`OperaError::InvalidOptions`] when the backend does not
    /// support TR-BDF2, and propagates solver errors otherwise.
    #[allow(clippy::too_many_arguments)]
    fn step_tr_bdf2_into(
        &self,
        state: &[f64],
        u_prev: &[f64],
        u_mid: &[f64],
        u_next: &[f64],
        stage: &mut [f64],
        out: &mut [f64],
        ws: &mut SolveWorkspace,
    ) -> Result<()> {
        let _ = (state, u_prev, u_mid, u_next, stage, out, ws);
        Err(OperaError::InvalidOptions {
            reason: "this solver backend was not prepared for TR-BDF2 stepping".to_string(),
        })
    }

    /// Advances one TR-BDF2 step for a panel of independent states. The
    /// default steps the columns in parallel through
    /// [`step_tr_bdf2_into`](PreparedSolver::step_tr_bdf2_into); direct
    /// backends override it with blocked panel solves.
    ///
    /// # Errors
    ///
    /// Propagates the first failing column's solver error.
    #[allow(clippy::too_many_arguments)]
    fn step_tr_bdf2_panel_into(
        &self,
        state: &Panel,
        u_prev: &Panel,
        u_mid: &Panel,
        u_next: &Panel,
        stage: &mut Panel,
        out: &mut Panel,
        ws: &mut SolveWorkspace,
    ) -> Result<()> {
        assert_eq!(state.ncols(), out.ncols(), "panel column count mismatch");
        assert_eq!(stage.ncols(), out.ncols(), "stage panel column mismatch");
        for_each_column(out, Some(stage), ws, |j, out, stage, ws| {
            self.step_tr_bdf2_into(
                state.col(j),
                u_prev.col(j),
                u_mid.col(j),
                u_next.col(j),
                stage,
                out,
                ws,
            )
        })
    }

    /// The embedded TR-BDF2 local-truncation-error estimate of a step just
    /// taken by [`step_tr_bdf2_into`](PreparedSolver::step_tr_bdf2_into)
    /// (see [`CompanionSystem::tr_bdf2_error_into`]): solves the companion
    /// system for the weighted stage residuals into `err`. This is what the
    /// adaptive controller of [`crate::adaptive`] steers by.
    ///
    /// The default rejects the call; backends prepared for
    /// [`IntegrationMethod::TrBdf2`] override it.
    ///
    /// # Errors
    ///
    /// Returns [`OperaError::InvalidOptions`] when the backend does not
    /// support TR-BDF2, and propagates solver errors otherwise.
    #[allow(clippy::too_many_arguments)]
    fn tr_bdf2_error_into(
        &self,
        v_k: &[f64],
        v_mid: &[f64],
        v_k1: &[f64],
        u_k: &[f64],
        u_mid: &[f64],
        u_k1: &[f64],
        err: &mut [f64],
        ws: &mut SolveWorkspace,
    ) -> Result<()> {
        let _ = (v_k, v_mid, v_k1, u_k, u_mid, u_k1, err, ws);
        Err(OperaError::InvalidOptions {
            reason: "this solver backend provides no TR-BDF2 error estimate".to_string(),
        })
    }

    /// The companion-system family behind this solver, when it has one: the
    /// augmented `G̃ + s·C̃` family for the direct backend, the nominal
    /// `G_a + s·C_a` preconditioner family for the CG backend. Its counters
    /// tell how many symbolic analyses and numeric refactorisations the
    /// solver and every solver re-stepped from it have run.
    fn companion_family(&self) -> Option<&CompanionFamily> {
        None
    }

    /// Re-prepares this solver for a different fixed time step, reusing
    /// every step-size-independent artifact (the DC factor and the shared
    /// symbolic analysis) and re-running only the numeric companion
    /// factorisation. The result steps bit-identically to a fresh
    /// [`SolverBackend::prepare`] at `time_step` with the same scheme.
    /// Returns `Ok(None)` when the backend cannot re-step cheaply and the
    /// caller should run a full prepare.
    ///
    /// # Errors
    ///
    /// Propagates factorisation errors.
    fn with_time_step(&self, time_step: f64) -> Result<Option<Box<dyn PreparedSolver>>> {
        let _ = time_step;
        Ok(None)
    }
}

/// One panel column handed to a worker: its index, its output column and
/// its stage column (empty for single-stage schemes).
type ColumnTask<'p> = (usize, &'p mut [f64], &'p mut [f64]);

/// Runs `column(j, out_j, stage_j, ws)` for every column `j` of `out` (and
/// of `stage`, when given) on the ambient thread pool. The columns are split
/// into one contiguous group per worker, each with its own worker workspace
/// of `ws`. Columns are independent, so each is bit-identical to the column
/// solved alone for any thread count; the first failing column (in column
/// order) is reported.
fn for_each_column(
    out: &mut Panel,
    stage: Option<&mut Panel>,
    ws: &mut SolveWorkspace,
    column: impl Fn(usize, &mut [f64], &mut [f64], &mut SolveWorkspace) -> Result<()> + Sync,
) -> Result<()> {
    let n = out.nrows();
    let k = out.ncols();
    let stages: Vec<&mut [f64]> = match stage {
        Some(stage) => stage.data_mut().chunks_mut(n).collect(),
        None => (0..k).map(|_| <&mut [f64]>::default()).collect(),
    };
    let mut tasks = out
        .data_mut()
        .chunks_mut(n)
        .zip(stages)
        .enumerate()
        .map(|(j, (out, stage))| (j, out, stage));
    let run = |tasks: &mut dyn Iterator<Item = ColumnTask<'_>>, ws: &mut SolveWorkspace| {
        for (j, out, stage) in tasks {
            column(j, out, stage, ws)?;
        }
        Ok(())
    };
    let workers = rayon::current_num_threads().min(k);
    if workers <= 1 {
        return run(&mut tasks, ws);
    }
    let per_worker = k.div_ceil(workers);
    let groups: Vec<(Vec<ColumnTask<'_>>, &mut SolveWorkspace)> = ws
        .workers(workers)
        .iter_mut()
        .map(|worker_ws| (tasks.by_ref().take(per_worker).collect(), worker_ws))
        .collect();
    let parent = opera_trace::current_span();
    groups
        .into_par_iter()
        .map(|(group, ws)| {
            let _span = opera_trace::span_under(parent, "solver.panel_columns");
            run(&mut group.into_iter(), ws)
        })
        .collect::<Result<Vec<()>>>()?;
    Ok(())
}

// --------------------------------------------------------------------------
// Direct Cholesky backend.
// --------------------------------------------------------------------------

/// Sparse Cholesky factorisation of the full `(N+1)·n` augmented companion
/// matrix, factored once and reused for every time step. Falls back to
/// left-looking LU if the augmented matrix is not numerically positive
/// definite ([`MatrixFactor::cholesky_or_lu`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DirectCholesky;

/// The factors of a prepared [`DirectCholesky`]: a DC factor of `G̃`, the
/// companion family (one symbolic analysis for every step size), and the
/// family's factored companion system for the prepared time step.
///
/// The DC factor deliberately keeps its own full factorisation instead of
/// the family's union-pattern analysis: `G̃`'s pattern is a strict subset of
/// `G̃ + C̃`, so factoring it against the union analysis would change fill
/// and break bit-identity with the pre-family behaviour.
struct DirectPrepared {
    dc: Arc<MatrixFactor>,
    family: Arc<CompanionFamily>,
    companion: Arc<CompanionSystem>,
}

impl DirectPrepared {
    fn new(
        dc: MatrixFactor,
        family: CompanionFamily,
        transient: &TransientOptions,
    ) -> Result<Self> {
        let family = Arc::new(family);
        let companion = family.system_for(transient.time_step, transient.method)?;
        Ok(DirectPrepared {
            dc: Arc::new(dc),
            family,
            companion,
        })
    }
}

impl PreparedSolver for DirectPrepared {
    fn solve_dc_into(&self, u0: &[f64], out: &mut [f64], ws: &mut SolveWorkspace) -> Result<()> {
        out.copy_from_slice(u0);
        self.dc.solve_in_place(out, ws);
        Ok(())
    }

    fn step_into(
        &self,
        state: &[f64],
        u_prev: &[f64],
        u_next: &[f64],
        out: &mut [f64],
        ws: &mut SolveWorkspace,
    ) -> Result<()> {
        self.companion.step_into(state, u_prev, u_next, out, ws);
        Ok(())
    }

    fn solve_dc_panel(&self, u0: &Panel, out: &mut Panel, ws: &mut SolveWorkspace) -> Result<()> {
        out.data_mut().copy_from_slice(u0.data());
        self.dc.solve_panel(out, ws);
        Ok(())
    }

    fn step_panel_into(
        &self,
        state: &Panel,
        u_prev: &Panel,
        u_next: &Panel,
        out: &mut Panel,
        ws: &mut SolveWorkspace,
    ) -> Result<()> {
        self.companion
            .step_panel_into(state, u_prev, u_next, out, ws);
        Ok(())
    }

    fn step_tr_bdf2_into(
        &self,
        state: &[f64],
        u_prev: &[f64],
        u_mid: &[f64],
        u_next: &[f64],
        stage: &mut [f64],
        out: &mut [f64],
        ws: &mut SolveWorkspace,
    ) -> Result<()> {
        self.companion
            .step_tr_bdf2_into(state, u_prev, u_mid, u_next, stage, out, ws);
        Ok(())
    }

    fn step_tr_bdf2_panel_into(
        &self,
        state: &Panel,
        u_prev: &Panel,
        u_mid: &Panel,
        u_next: &Panel,
        stage: &mut Panel,
        out: &mut Panel,
        ws: &mut SolveWorkspace,
    ) -> Result<()> {
        self.companion
            .step_tr_bdf2_panel_into(state, u_prev, u_mid, u_next, stage, out, ws);
        Ok(())
    }

    fn tr_bdf2_error_into(
        &self,
        v_k: &[f64],
        v_mid: &[f64],
        v_k1: &[f64],
        u_k: &[f64],
        u_mid: &[f64],
        u_k1: &[f64],
        err: &mut [f64],
        ws: &mut SolveWorkspace,
    ) -> Result<()> {
        self.companion
            .tr_bdf2_error_into(v_k, v_mid, v_k1, u_k, u_mid, u_k1, err, ws);
        Ok(())
    }

    fn companion_family(&self) -> Option<&CompanionFamily> {
        Some(&self.family)
    }

    fn with_time_step(&self, time_step: f64) -> Result<Option<Box<dyn PreparedSolver>>> {
        let companion = self.family.system_for(time_step, self.companion.method())?;
        Ok(Some(Box::new(DirectPrepared {
            dc: Arc::clone(&self.dc),
            family: Arc::clone(&self.family),
            companion,
        })))
    }
}

/// A direct Cholesky (LU fallback) TR-BDF2 solver of the deterministic
/// system `G·v + C·dv/dt = u` at `time_step`: the adaptive integrator's
/// entry point for deterministic transients.
///
/// # Errors
///
/// Propagates factorisation errors.
pub(crate) fn direct_tr_bdf2(
    g: &CsrMatrix,
    c: &CsrMatrix,
    time_step: f64,
) -> Result<Box<dyn PreparedSolver>> {
    let family = CompanionFamily::new(g, c)?;
    let dc = MatrixFactor::cholesky_or_lu(g)?;
    let transient = TransientOptions {
        time_step,
        end_time: time_step,
        method: IntegrationMethod::TrBdf2,
    };
    Ok(Box::new(DirectPrepared::new(dc, family, &transient)?))
}

impl SolverBackend for DirectCholesky {
    fn name(&self) -> &str {
        DIRECT_CHOLESKY
    }

    fn prepare(
        &self,
        _model: &StochasticGridModel,
        system: &GalerkinSystem,
        transient: &TransientOptions,
    ) -> Result<Box<dyn PreparedSolver>> {
        let _span = opera_trace::span("solver.prepare");
        let dc = MatrixFactor::cholesky_or_lu(system.conductance())?;
        let family = CompanionFamily::new(system.conductance(), system.capacitance())?;
        Ok(Box::new(DirectPrepared::new(dc, family, transient)?))
    }
}

// --------------------------------------------------------------------------
// Block-Jacobi preconditioned CG backend.
// --------------------------------------------------------------------------

/// Conjugate gradient on the augmented system with the mean-based
/// block-Jacobi preconditioner: one factorisation of the nominal companion
/// matrix `G_a + s·C_a`, applied to every chaos block (the diagonal blocks of
/// the augmented matrix are exactly `⟨ψ_i²⟩(G_a + s·C_a)` for symmetric
/// variations). This keeps the OPERA cost close to a single deterministic
/// transient even for very large grids. The engine's default backend.
///
/// A time-step change refactors only the nominal companion, numeric-only
/// against one shared symbolic analysis of its pattern
/// ([`PreparedSolver::with_time_step`]); the DC preconditioner and `G̃`, `C̃`
/// are reused. A solve that does not reach `tolerance` within
/// `max_iterations` fails with [`SparseError::DidNotConverge`], whose
/// residual is relative to the right-hand side of that solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockJacobiCg {
    /// Relative residual tolerance of the CG iteration.
    pub tolerance: f64,
    /// Maximum CG iterations per solve.
    pub max_iterations: usize,
}

impl Default for BlockJacobiCg {
    fn default() -> Self {
        BlockJacobiCg {
            tolerance: 1e-10,
            max_iterations: 2_000,
        }
    }
}

impl SolverBackend for BlockJacobiCg {
    fn name(&self) -> &str {
        BLOCK_JACOBI_CG
    }

    fn validate(&self) -> Result<()> {
        // A tolerance of 1 or more (or a non-finite one) is met by any
        // initial guess, so the solve would return the guess unsolved.
        let tolerance_ok = self.tolerance > 0.0 && self.tolerance < 1.0;
        if !tolerance_ok || self.max_iterations == 0 {
            return Err(OperaError::InvalidOptions {
                reason: format!(
                    "CG tolerance must lie in (0, 1) and max_iterations be nonzero, got \
                     tolerance {} and max_iterations {}",
                    self.tolerance, self.max_iterations
                ),
            });
        }
        Ok(())
    }

    fn prepare(
        &self,
        model: &StochasticGridModel,
        system: &GalerkinSystem,
        transient: &TransientOptions,
    ) -> Result<Box<dyn PreparedSolver>> {
        let _span = opera_trace::span("solver.prepare");
        self.validate()?;
        let inv_norms = (0..system.basis_size())
            .map(|i| 1.0 / system.coupling().norm_squared(i))
            .collect();
        // The only factorisations are of nominal size: G_a for the DC start
        // and the companion family's G_a + s·C_a for stepping.
        let shared = Arc::new(CgShared {
            g_hat: system.conductance().clone(),
            c_hat: system.capacitance().clone(),
            dc_factor: MatrixFactor::cholesky(model.nominal_conductance())?,
            family: CompanionFamily::new(model.nominal_conductance(), model.nominal_capacitance())?,
            inv_norms,
            options: CgOptions {
                max_iterations: self.max_iterations,
                tolerance: self.tolerance,
            },
        });
        Ok(Box::new(CgPrepared::at_step(
            shared,
            transient.time_step,
            transient.method,
        )?))
    }
}

/// The mean-based block preconditioner: every chaos block of a stacked
/// residual is solved with one shared nominal factor and scaled by
/// `1 / ⟨ψ_i²⟩`.
struct BlockNominalPreconditioner<'a> {
    factor: &'a MatrixFactor,
    inv_norms: &'a [f64],
}

impl cg::Preconditioner for BlockNominalPreconditioner<'_> {
    fn apply_into(&self, r: &[f64], z: &mut [f64], ws: &mut SolveWorkspace) {
        // The stacked residual is column-major over basis blocks, so it *is*
        // a panel: all blocks go through one blocked multi-RHS solve of the
        // shared nominal factor instead of one scalar solve per block. Each
        // block's values are bit-identical to the per-block path.
        z.copy_from_slice(r);
        self.factor.solve_columns_in_place(z, ws);
        for (block, inv_norm) in z.chunks_mut(self.factor.dim()).zip(self.inv_norms) {
            for v in block {
                *v *= inv_norm;
            }
        }
    }
}

/// The step-size-independent half of a prepared [`BlockJacobiCg`], shared by
/// every solver re-stepped from it.
struct CgShared {
    /// Augmented conductance `G̃`: the DC operator and the step right-hand
    /// sides.
    g_hat: CsrMatrix,
    /// Augmented capacitance `C̃`, scaled per step size.
    c_hat: CsrMatrix,
    /// Nominal conductance factor: the DC preconditioner.
    dc_factor: MatrixFactor,
    /// Nominal companion family: one symbolic analysis, one numeric
    /// refactorisation per step size.
    family: CompanionFamily,
    /// `1 / ⟨ψ_i²⟩` per chaos block.
    inv_norms: Vec<f64>,
    options: CgOptions,
}

/// A [`BlockJacobiCg`] prepared for one step size and scheme.
struct CgPrepared {
    shared: Arc<CgShared>,
    /// Augmented companion matrix `G̃ + s·C̃` (for matvecs only — never
    /// factored).
    a_hat: CsrMatrix,
    /// `s·C̃`.
    c_over_h: CsrMatrix,
    /// The factored nominal companion `G_a + s·C_a`: the step
    /// preconditioner.
    step: Arc<CompanionSystem>,
}

impl CgPrepared {
    fn at_step(shared: Arc<CgShared>, time_step: f64, method: IntegrationMethod) -> Result<Self> {
        // Matches the direct backend's companion matrix for every scheme
        // (TR-BDF2's two stages share the single scale 2/(γh)).
        let c_over_h = shared.c_hat.scaled(companion_scale(method, time_step));
        let a_hat = shared.g_hat.add_scaled(&c_over_h, 1.0)?;
        let step = shared.family.system_for(time_step, method)?;
        Ok(CgPrepared {
            shared,
            a_hat,
            c_over_h,
            step,
        })
    }

    fn method(&self) -> IntegrationMethod {
        self.step.method()
    }

    fn step_preconditioner(&self) -> BlockNominalPreconditioner<'_> {
        BlockNominalPreconditioner {
            factor: self.step.factor(),
            inv_norms: &self.shared.inv_norms,
        }
    }

    /// Solves `Â·out = rhs` from `guess`.
    fn solve_step(
        &self,
        rhs: &[f64],
        guess: &[f64],
        out: &mut [f64],
        ws: &mut SolveWorkspace,
    ) -> Result<()> {
        let options = self.shared.options;
        let preconditioner = self.step_preconditioner();
        cg_with_guess(&self.a_hat, rhs, guess, out, &preconditioner, options, ws)
    }

    /// Claims one solve's whole working set from `ws` before solving: the
    /// right-hand side (or DC guess), the correction residual and CG's four
    /// iteration vectors, plus the preconditioner's panel scratch. A solve
    /// whose guess already meets the tolerance returns before it iterates;
    /// it must not leave the growth to a later step.
    fn reserve(ws: &mut SolveWorkspace, dim: usize) {
        const WORKING_SET: usize = 6;
        ws.reserve(WORKING_SET, dim, dim);
    }

    fn require_tr_bdf2(&self) -> Result<()> {
        if self.method() == IntegrationMethod::TrBdf2 {
            Ok(())
        } else {
            Err(OperaError::InvalidOptions {
                reason: "backend was prepared for a single-stage scheme, not TR-BDF2".to_string(),
            })
        }
    }
}

impl PreparedSolver for CgPrepared {
    fn solve_dc_into(&self, u0: &[f64], out: &mut [f64], ws: &mut SolveWorkspace) -> Result<()> {
        // CG on G̃ with the nominal DC solution in block 0 as the guess.
        Self::reserve(ws, u0.len());
        let shared = &self.shared;
        ws.with_vector(u0.len(), |guess, ws| {
            let n = shared.dc_factor.dim();
            guess[..n].copy_from_slice(&u0[..n]);
            shared.dc_factor.solve_in_place(&mut guess[..n], ws);
            let preconditioner = BlockNominalPreconditioner {
                factor: &shared.dc_factor,
                inv_norms: &shared.inv_norms,
            };
            cg_with_guess(
                &shared.g_hat,
                u0,
                guess,
                out,
                &preconditioner,
                shared.options,
                ws,
            )
        })
    }

    fn step_into(
        &self,
        state: &[f64],
        u_prev: &[f64],
        u_next: &[f64],
        out: &mut [f64],
        ws: &mut SolveWorkspace,
    ) -> Result<()> {
        let method = self.method();
        if method == IntegrationMethod::TrBdf2 {
            return Err(OperaError::InvalidOptions {
                reason: "TR-BDF2 needs the mid-stage excitation: step via step_tr_bdf2_into"
                    .to_string(),
            });
        }
        Self::reserve(ws, state.len());
        ws.with_vector(state.len(), |rhs, ws| {
            // Right-hand side of the implicit step.
            self.c_over_h.matvec_into(state, rhs);
            if method == IntegrationMethod::Trapezoidal {
                self.shared.g_hat.matvec_acc(state, -1.0, rhs);
                for ((r, a), b) in rhs.iter_mut().zip(u_prev).zip(u_next) {
                    *r += a + b;
                }
            } else {
                for (r, u) in rhs.iter_mut().zip(u_next) {
                    *r += u;
                }
            }
            self.solve_step(rhs, state, out, ws)
        })
    }

    fn step_tr_bdf2_into(
        &self,
        state: &[f64],
        u_prev: &[f64],
        u_mid: &[f64],
        u_next: &[f64],
        stage: &mut [f64],
        out: &mut [f64],
        ws: &mut SolveWorkspace,
    ) -> Result<()> {
        self.require_tr_bdf2()?;
        Self::reserve(ws, state.len());
        ws.with_vector(state.len(), |rhs, ws| {
            // TR stage: Â v_γ = u_k + u_γ + (2C̃/(γh) − G̃) v_k, with the
            // step-start state as the CG guess.
            self.c_over_h.matvec_into(state, rhs);
            self.shared.g_hat.matvec_acc(state, -1.0, rhs);
            for ((r, a), b) in rhs.iter_mut().zip(u_prev).zip(u_mid) {
                *r += a + b;
            }
            self.solve_step(rhs, state, stage, ws)?;
            // BDF2 stage: Â v_{k+1} = u_{k+1} + (2C̃/(γh))·(v_γ/(2(1−γ)) −
            // v_k·(1−γ)/2), with the mid state as the guess.
            self.c_over_h.matvec_into(stage, rhs);
            for r in rhs.iter_mut() {
                *r *= TR_BDF2_W_MID;
            }
            self.c_over_h.matvec_acc(state, -TR_BDF2_W_OLD, rhs);
            for (r, u) in rhs.iter_mut().zip(u_next) {
                *r += u;
            }
            self.solve_step(rhs, stage, out, ws)
        })
    }

    fn tr_bdf2_error_into(
        &self,
        v_k: &[f64],
        v_mid: &[f64],
        v_k1: &[f64],
        u_k: &[f64],
        u_mid: &[f64],
        u_k1: &[f64],
        err: &mut [f64],
        ws: &mut SolveWorkspace,
    ) -> Result<()> {
        self.require_tr_bdf2()?;
        Self::reserve(ws, err.len());
        ws.with_vector(err.len(), |rhs, ws| {
            tr_bdf2_error_rhs(
                &self.shared.g_hat,
                [v_k, v_mid, v_k1],
                [u_k, u_mid, u_k1],
                rhs,
            );
            // The error has no useful guess: CG starts from zero.
            let options = self.shared.options;
            cg::solve_into(
                &self.a_hat,
                rhs,
                err,
                &self.step_preconditioner(),
                options,
                ws,
            )?;
            Ok(())
        })
    }

    fn companion_family(&self) -> Option<&CompanionFamily> {
        Some(&self.shared.family)
    }

    fn with_time_step(&self, time_step: f64) -> Result<Option<Box<dyn PreparedSolver>>> {
        Ok(Some(Box::new(CgPrepared::at_step(
            Arc::clone(&self.shared),
            time_step,
            self.method(),
        )?)))
    }
}

/// Preconditioned CG with an initial guess: solves `A·out = b` by iterating
/// on the correction `A·δ = b − A·guess`, with the tolerance rescaled so
/// that the overall relative residual (with respect to `‖b‖`) matches
/// `options.tolerance`. Every vector is borrowed from `ws`. A solve that does
/// not converge reports its residual relative to `‖b‖` as well.
fn cg_with_guess(
    a: &CsrMatrix,
    b: &[f64],
    guess: &[f64],
    out: &mut [f64],
    preconditioner: &BlockNominalPreconditioner<'_>,
    options: CgOptions,
    ws: &mut SolveWorkspace,
) -> Result<()> {
    ws.with_vector(b.len(), |residual, ws| {
        residual.copy_from_slice(b);
        a.matvec_acc(guess, -1.0, residual);
        let norm_b = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        let norm_r = residual.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm_r <= options.tolerance * norm_b.max(f64::MIN_POSITIVE) {
            out.copy_from_slice(guess);
            return Ok(());
        }
        let correction_options = CgOptions {
            tolerance: (options.tolerance * norm_b / norm_r).clamp(1e-14, 0.5),
            ..options
        };
        cg::solve_into(a, residual, out, preconditioner, correction_options, ws).map_err(|e| {
            match e {
                SparseError::DidNotConverge {
                    iterations,
                    residual,
                } => SparseError::DidNotConverge {
                    iterations,
                    residual: residual * norm_r / norm_b.max(f64::MIN_POSITIVE),
                },
                other => other,
            }
        })?;
        for (o, g) in out.iter_mut().zip(guess) {
            *o += g;
        }
        Ok(())
    })
}

// --------------------------------------------------------------------------
// Backends by name.
// --------------------------------------------------------------------------

/// Name of [`DirectCholesky`].
pub const DIRECT_CHOLESKY: &str = "direct-cholesky";
/// Name of [`BlockJacobiCg`].
pub const BLOCK_JACOBI_CG: &str = "block-jacobi-cg";

/// Instantiates the built-in backend called `name` ([`DIRECT_CHOLESKY`] or
/// [`BLOCK_JACOBI_CG`], the latter with its default parameters). A custom
/// backend plugs in by value through
/// [`EngineBuilder::solver`](crate::engine::EngineBuilder::solver).
///
/// # Errors
///
/// Returns [`OperaError::InvalidOptions`] for unknown names, listing the
/// built-in backends.
pub fn backend_by_name(name: &str) -> Result<Arc<dyn SolverBackend>> {
    match name {
        DIRECT_CHOLESKY => Ok(Arc::new(DirectCholesky)),
        BLOCK_JACOBI_CG => Ok(Arc::new(BlockJacobiCg::default())),
        _ => Err(OperaError::InvalidOptions {
            reason: format!(
                "unknown solver backend {name:?}; built-in backends: {BLOCK_JACOBI_CG}, \
                 {DIRECT_CHOLESKY}"
            ),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opera_grid::GridSpec;
    use opera_pce::{OrthogonalBasis, PolynomialFamily};
    use opera_variation::{StochasticGridModel, VariationSpec};

    fn prepared_setup() -> (StochasticGridModel, GalerkinSystem, TransientOptions) {
        let grid = GridSpec::small_test(60).with_seed(2).build().unwrap();
        let model =
            StochasticGridModel::inter_die(&grid, &VariationSpec::paper_defaults()).unwrap();
        let basis = OrthogonalBasis::total_order(PolynomialFamily::Hermite, 2, 2).unwrap();
        let system = GalerkinSystem::assemble(&model, &basis).unwrap();
        (model, system, TransientOptions::new(0.2e-9, 1.0e-9))
    }

    #[test]
    fn both_backend_names_round_trip_and_unknown_names_list_them() {
        for name in [DIRECT_CHOLESKY, BLOCK_JACOBI_CG] {
            assert_eq!(backend_by_name(name).unwrap().name(), name);
        }
        match backend_by_name("no-such-backend") {
            Err(OperaError::InvalidOptions { reason }) => {
                assert!(reason.contains("no-such-backend"), "{reason}");
                assert!(reason.contains(DIRECT_CHOLESKY), "{reason}");
                assert!(reason.contains(BLOCK_JACOBI_CG), "{reason}");
            }
            other => panic!(
                "expected InvalidOptions, got {:?}",
                other.map(|b| b.name().to_string())
            ),
        }
    }

    #[test]
    fn both_backends_agree_on_a_time_step() {
        let (model, system, transient) = prepared_setup();
        let u0 = system.excitation(&model, 0.0);
        let u1 = system.excitation(&model, transient.time_step);
        let mut states = Vec::new();
        for name in [DIRECT_CHOLESKY, BLOCK_JACOBI_CG] {
            let backend = backend_by_name(name).unwrap();
            let prepared = backend.prepare(&model, &system, &transient).unwrap();
            let a0 = prepared.solve_dc(&u0).unwrap();
            let a1 = prepared.step(&a0, &u0, &u1).unwrap();
            states.push(a1);
        }
        let scale = states[0]
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()))
            .max(1.0);
        for other in &states[1..] {
            for (a, b) in states[0].iter().zip(other) {
                assert!((a - b).abs() < 1e-7 * scale, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn both_backends_agree_on_a_tr_bdf2_step() {
        use crate::transient::TR_BDF2_GAMMA;
        let (model, system, mut transient) = prepared_setup();
        transient.method = IntegrationMethod::TrBdf2;
        let u0 = system.excitation(&model, 0.0);
        let u_mid = system.excitation(&model, TR_BDF2_GAMMA * transient.time_step);
        let u1 = system.excitation(&model, transient.time_step);
        let dim = u0.len();
        let mut states = Vec::new();
        for name in [DIRECT_CHOLESKY, BLOCK_JACOBI_CG] {
            let backend = backend_by_name(name).unwrap();
            let prepared = backend.prepare(&model, &system, &transient).unwrap();
            let a0 = prepared.solve_dc(&u0).unwrap();
            let mut stage = vec![0.0; dim];
            let mut a1 = vec![0.0; dim];
            prepared
                .step_tr_bdf2_into(
                    &a0,
                    &u0,
                    &u_mid,
                    &u1,
                    &mut stage,
                    &mut a1,
                    &mut SolveWorkspace::new(),
                )
                .unwrap();
            if name == BLOCK_JACOBI_CG {
                // The single-stage entry must refuse a TR-BDF2 preparation
                // (the direct backend enforces the same contract by panic).
                assert!(prepared.step(&a0, &u0, &u1).is_err());
            }
            states.push(a1);
        }
        let scale = states[0]
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()))
            .max(1.0);
        for other in &states[1..] {
            for (a, b) in states[0].iter().zip(other) {
                assert!((a - b).abs() < 1e-7 * scale, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn with_time_step_reuses_the_symbolic_analysis() {
        let (model, system, transient) = prepared_setup();
        let mut halved = transient;
        halved.time_step /= 2.0;
        let u0 = system.excitation(&model, 0.0);
        let u1 = system.excitation(&model, halved.time_step);
        // The CG backend re-steps its nominal preconditioner family, the
        // direct backend its augmented one.
        for name in [BLOCK_JACOBI_CG, DIRECT_CHOLESKY] {
            let backend = backend_by_name(name).unwrap();
            let prepared = backend.prepare(&model, &system, &transient).unwrap();
            let family = prepared
                .companion_family()
                .expect("built-in backends expose their family");
            assert_eq!(family.symbolic_analysis_count(), 1, "{name}");
            let refactors_before = family.refactorization_count();
            let restepped = prepared
                .with_time_step(halved.time_step)
                .unwrap()
                .expect("built-in backends re-step cheaply");
            let family = restepped.companion_family().unwrap();
            // One numeric refactorisation, zero new symbolic analyses.
            assert_eq!(family.symbolic_analysis_count(), 1, "{name}");
            assert_eq!(
                family.refactorization_count(),
                refactors_before + 1,
                "{name}"
            );
            // The re-stepped solver matches a from-scratch preparation
            // bitwise.
            let fresh = backend.prepare(&model, &system, &halved).unwrap();
            let a0 = fresh.solve_dc(&u0).unwrap();
            let via_fresh = fresh.step(&a0, &u0, &u1).unwrap();
            let via_restep = restepped.step(&a0, &u0, &u1).unwrap();
            for (x, y) in via_fresh.iter().zip(&via_restep) {
                assert_eq!(x.to_bits(), y.to_bits(), "{name}");
            }
        }
    }

    #[test]
    fn invalid_cg_parameters_are_rejected() {
        let bad = BlockJacobiCg {
            tolerance: 0.0,
            max_iterations: 10,
        };
        assert!(bad.validate().is_err());
        let bad = BlockJacobiCg {
            tolerance: 1e-10,
            max_iterations: 0,
        };
        assert!(bad.validate().is_err());
        // A tolerance the initial guess always meets would skip the solve.
        for tolerance in [f64::INFINITY, f64::NAN, 1.0, 2.0, -1e-10] {
            let bad = BlockJacobiCg {
                tolerance,
                max_iterations: 10,
            };
            assert!(
                matches!(bad.validate(), Err(OperaError::InvalidOptions { .. })),
                "tolerance {tolerance} accepted"
            );
        }
        assert!(BlockJacobiCg::default().validate().is_ok());
    }
}
