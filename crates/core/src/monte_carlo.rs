//! Monte Carlo baseline for stochastic power-grid analysis.
//!
//! The paper validates OPERA against plain Monte Carlo with 1000 samples per
//! grid: each sample draws a value of the process variables, realises the
//! perturbed `G`, `C` and excitation, and runs a full deterministic transient
//! analysis. Mean and variance are accumulated per node and time point with
//! Welford's algorithm; full sample traces are kept only for a small set of
//! probe nodes (used for the distribution plots of Figures 1–2).
//!
//! # Shared per-run work
//!
//! Every inter-die sample has the same sparsity pattern, so [`run`]
//! analyses it once per run instead of once per sample matrix: one
//! symbolic Cholesky analysis of the all-ones realization `G_a + Σ_d G_d`
//! and one of its companion `G + s·C` (a single analysis when the two
//! patterns coincide). Each sample then runs only a numeric DC and a
//! numeric companion factorization, each falling back to LU for that sample
//! if Cholesky fails. The sample-independent excitation terms `u_a(t)` and
//! `u_d(t)` are likewise tabulated once per run. Both leave the statistics
//! bit-identical to a per-sample analysis: the ordering depends on the
//! pattern alone, and each sample folds the tabulated terms exactly as
//! [`StochasticGridModel::sample_excitation`] does.
//!
//! # Parallelism and determinism
//!
//! Samples are independent, so the loop runs on a `rayon` pool bounded by
//! the installed [`Parallelism`](crate::parallel::Parallelism). Each sample
//! draws from its own RNG stream seeded by
//! [`sample_seed`]`(options.seed, index)`, and
//! batches of traces are folded into the Welford accumulator *in sample
//! order*, so the statistics are bit-identical for every thread count
//! (serial included). Memory stays bounded: at most one batch of traces
//! (a small multiple of the worker count) is alive at a time.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

use opera_grid::PowerGrid;
use opera_sparse::{CsrMatrix, MatrixFactor, Panel, SolveWorkspace, SymbolicCholesky};
use opera_variation::{LeakageModel, StochasticGridModel};

use crate::parallel::sample_seed;
use crate::transient::{
    companion_scale, CompanionSystem, IntegrationMethod, TransientOptions, TR_BDF2_GAMMA,
};
use crate::{OperaError, Result};

/// Options for a Monte Carlo run.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarloOptions {
    /// Number of samples (the paper uses 1000).
    pub samples: usize,
    /// RNG seed for reproducibility.
    pub seed: u64,
    /// Transient analysis options (shared with the OPERA run being compared).
    pub transient: TransientOptions,
    /// Nodes whose full per-sample voltage traces are recorded.
    pub probe_nodes: Vec<usize>,
    /// Multiplier applied to the switching currents (`1.0` = as modelled):
    /// the per-sample excitation is scaled around its quiescent `t = 0`
    /// value, mirroring the engine's
    /// [`Scenario::current_scale`](crate::engine::Scenario). With the default
    /// `1.0` the excitation path is bit-identical to the unscaled code.
    pub current_scale: f64,
}

impl MonteCarloOptions {
    /// Creates options with no probes and unscaled currents.
    pub fn new(samples: usize, seed: u64, transient: TransientOptions) -> Self {
        MonteCarloOptions {
            samples,
            seed,
            transient,
            probe_nodes: Vec::new(),
            current_scale: 1.0,
        }
    }

    /// Validates the options.
    ///
    /// # Errors
    ///
    /// Returns [`OperaError::InvalidOptions`] for zero samples, a negative or
    /// non-finite current scale, or invalid transient options.
    pub fn validate(&self) -> Result<()> {
        if self.samples == 0 {
            return Err(OperaError::InvalidOptions {
                reason: "Monte Carlo needs at least one sample".to_string(),
            });
        }
        if !self.current_scale.is_finite() || self.current_scale < 0.0 {
            return Err(OperaError::InvalidOptions {
                reason: format!(
                    "current_scale must be finite and non-negative, got {}",
                    self.current_scale
                ),
            });
        }
        self.transient.validate()
    }
}

/// Accumulated Monte Carlo statistics.
#[derive(Debug, Clone)]
pub struct MonteCarloResult {
    /// Time points of the transient analyses.
    pub times: Vec<f64>,
    /// Per time point and node: sample mean of the voltage.
    pub mean: Vec<Vec<f64>>,
    /// Per time point and node: unbiased sample variance of the voltage.
    pub variance: Vec<Vec<f64>>,
    /// Probe nodes whose full traces were recorded.
    pub probe_nodes: Vec<usize>,
    /// `probe_traces[p][s][k]`: voltage of probe `p` in sample `s` at time
    /// index `k`.
    pub probe_traces: Vec<Vec<Vec<f64>>>,
    /// Number of samples that were run.
    pub samples: usize,
}

impl MonteCarloResult {
    /// Standard deviation at a time index and node.
    pub fn std_dev_at(&self, k: usize, node: usize) -> f64 {
        self.variance[k][node].sqrt()
    }

    /// The node, time index and value of the worst mean voltage drop.
    pub fn worst_mean_drop(&self, vdd: f64) -> (usize, usize, f64) {
        let mut best = (0usize, 0usize, f64::NEG_INFINITY);
        for (k, row) in self.mean.iter().enumerate() {
            for (n, &v) in row.iter().enumerate() {
                let drop = vdd - v;
                if drop > best.2 {
                    best = (n, k, drop);
                }
            }
        }
        best
    }

    /// Per-sample voltages of a probe node at one time index, or `None`
    /// when the node was not among the probe nodes of the run.
    pub fn probe_samples_at(&self, node: usize, k: usize) -> Option<Vec<f64>> {
        let p = self.probe_nodes.iter().position(|&n| n == node)?;
        Some(self.probe_traces[p].iter().map(|trace| trace[k]).collect())
    }
}

/// Welford accumulator over vectors indexed by (time, node).
struct WelfordGrid {
    count: usize,
    mean: Vec<Vec<f64>>,
    m2: Vec<Vec<f64>>,
}

impl WelfordGrid {
    fn new(times: usize, nodes: usize) -> Self {
        WelfordGrid {
            count: 0,
            mean: vec![vec![0.0; nodes]; times],
            m2: vec![vec![0.0; nodes]; times],
        }
    }

    fn update(&mut self, sample: &[Vec<f64>]) {
        self.count += 1;
        let c = self.count as f64;
        let backend = opera_simd::active();
        for (k, row) in sample.iter().enumerate() {
            opera_simd::welford_update(&mut self.mean[k], &mut self.m2[k], row, c, backend);
        }
    }

    fn finish(self) -> (Vec<Vec<f64>>, Vec<Vec<f64>>, usize) {
        let denom = (self.count.max(2) - 1) as f64;
        let variance = self
            .m2
            .into_iter()
            .map(|row| row.into_iter().map(|m2| m2 / denom).collect())
            .collect();
        (self.mean, variance, self.count)
    }
}

/// Runs the Monte Carlo baseline for an inter-die variation model.
///
/// The sample-independent work is done once per run: the symbolic analyses
/// every sample factors against and the excitation terms `u_a(t)`, `u_d(t)`
/// every sample combines (see the module docs).
///
/// # Errors
///
/// Returns [`OperaError::InvalidOptions`] for invalid options, and propagates
/// sampling or factorisation errors.
pub fn run(model: &StochasticGridModel, options: &MonteCarloOptions) -> Result<MonteCarloResult> {
    let _span = opera_trace::span("mc.run");
    options.validate()?;
    let times = options.transient.time_points();
    let n = model.node_count();
    let families = model.families();
    let analysis = SampleAnalysis::new(model, &options.transient)?;
    let excitation = ExcitationTable::new(model, &times, options.transient.method);

    accumulate_samples(options, times, n, |sample_index| {
        let mut rng = StdRng::seed_from_u64(sample_seed(options.seed, sample_index as u64));
        let xi: Vec<f64> = families.iter().map(|f| f.sample(&mut rng)).collect();
        let g = model.sample_conductance(&xi)?;
        let c = model.sample_capacitance(&xi)?;
        transient_sample(&g, &c, &xi, &analysis, &excitation, options)
    })
}

/// The symbolic Cholesky analyses shared by every sample of a run.
///
/// Each sample realises `G(ξ) = G_a + Σ_d ξ_d·G_d` (and `C(ξ)` likewise)
/// with [`CsrMatrix::add_scaled`], which keeps every explicit entry, so all
/// samples share the pattern of the all-ones realization — a sub-pattern
/// only when some `ξ_d == 0`, which the numeric-only factorisation accepts.
/// The AMD ordering, elimination tree and supernodes depend on the pattern
/// alone, so the numeric factors are bit-identical to analysing each
/// sample's matrices afresh. (A draw with `ξ_d == 0`, which has probability
/// zero, is still factored exactly, but may round differently.)
struct SampleAnalysis {
    /// Analysis of the conductance pattern, for the DC factor.
    dc: SymbolicCholesky,
    /// Analysis of the companion pattern `G + s·C`; `None` when it equals
    /// the conductance pattern (a diagonal `C` inside `G`'s pattern), so
    /// `dc` serves both factors.
    companion: Option<SymbolicCholesky>,
}

impl SampleAnalysis {
    fn new(model: &StochasticGridModel, transient: &TransientOptions) -> Result<Self> {
        let ones = vec![1.0; model.n_vars()];
        let g = model.sample_conductance(&ones)?;
        let c_scaled = model
            .sample_capacitance(&ones)?
            .scaled(companion_scale(transient.method, transient.time_step));
        let companion = g.add_scaled(&c_scaled, 1.0)?;
        let dc = SymbolicCholesky::analyze(&g)?;
        let same_pattern = g.indptr() == companion.indptr() && g.indices() == companion.indices();
        let companion = if same_pattern {
            None
        } else {
            Some(SymbolicCholesky::analyze(&companion)?)
        };
        Ok(SampleAnalysis { dc, companion })
    }

    fn companion(&self) -> &SymbolicCholesky {
        self.companion.as_ref().unwrap_or(&self.dc)
    }
}

/// The sample-independent excitation terms of a run — `u_a(t)` followed by
/// every `u_d(t)`, `n` entries each — evaluated once per time point (and,
/// for TR-BDF2, per mid-stage time) instead of once per sample. The terms
/// change over time only where load currents flow, so each point keeps just
/// the entries whose bits differ from the terms at `times[0]`.
struct ExcitationTable {
    n: usize,
    /// The terms at `times[0]`.
    initial: Vec<f64>,
    /// `at_times[k]`: the changed `(position, value)` entries at `times[k]`.
    at_times: Vec<Vec<(usize, f64)>>,
    /// `at_mids[k - 1]`: the changed entries at the TR-BDF2 mid-stage time
    /// of step `k`; empty for one-stage schemes.
    at_mids: Vec<Vec<(usize, f64)>>,
}

impl ExcitationTable {
    fn new(model: &StochasticGridModel, times: &[f64], method: IntegrationMethod) -> Self {
        let terms = |t: f64| {
            let mut terms = model.excitation_nominal(t);
            for d in 0..model.n_vars() {
                terms.extend(model.excitation_perturbation(d, t));
            }
            terms
        };
        let initial = terms(times[0]);
        let changes = |t: f64| -> Vec<(usize, f64)> {
            terms(t)
                .into_iter()
                .zip(&initial)
                .enumerate()
                .filter(|(_, (v, v0))| v.to_bits() != v0.to_bits())
                .map(|(i, (v, _))| (i, v))
                .collect()
        };
        let at_times = times.iter().map(|&t| changes(t)).collect();
        let at_mids = if method == IntegrationMethod::TrBdf2 {
            times
                .windows(2)
                .map(|w| changes(w[0] + TR_BDF2_GAMMA * (w[1] - w[0])))
                .collect()
        } else {
            Vec::new()
        };
        ExcitationTable {
            n: model.node_count(),
            initial,
            at_times,
            at_mids,
        }
    }

    /// Folds dense terms into the sample excitation
    /// `u_a(t) + Σ_d ξ_d·u_d(t)`, in the order and with the `ξ_d == 0` skip
    /// of [`StochasticGridModel::sample_excitation`], so the result is
    /// bit-identical to evaluating the waveforms for the sample.
    fn fold(&self, terms: &[f64], xi: &[f64], out: &mut [f64]) {
        let (nominal, perturbations) = terms.split_at(self.n);
        out.copy_from_slice(nominal);
        for (&x, ud) in xi.iter().zip(perturbations.chunks_exact(self.n)) {
            if x == 0.0 {
                continue;
            }
            for (u_n, ud_n) in out.iter_mut().zip(ud) {
                *u_n += x * ud_n;
            }
        }
    }
}

/// Runs the per-sample closure over all samples on the installed `rayon`
/// pool and folds the resulting traces into the Welford statistics in sample
/// order. Batching keeps at most ~2 traces per worker alive, bounding memory
/// on paper-scale grids while keeping every worker busy.
fn accumulate_samples(
    options: &MonteCarloOptions,
    times: Vec<f64>,
    n: usize,
    sample_trace: impl Fn(usize) -> Result<Vec<Vec<f64>>> + Sync,
) -> Result<MonteCarloResult> {
    accumulate_sample_groups(options, times, n, 1, |range| {
        range.map(&sample_trace).collect()
    })
}

/// Width of the sample panels in shared-factor Monte Carlo runs: each worker
/// advances this many samples in lock step through one blocked panel solve
/// per time step. The partition into groups is fixed (independent of the
/// thread count), so statistics stay bit-identical for every setting.
const MC_PANEL_WIDTH: usize = 4;

/// Grouped generalisation of the sample accumulator: samples are partitioned
/// into contiguous groups of `group_width`, one worker produces all traces of
/// a group (e.g. by stepping them as one panel), and groups are folded into
/// the Welford statistics strictly in sample order. `group_width == 1`
/// recovers the plain per-sample loop.
fn accumulate_sample_groups(
    options: &MonteCarloOptions,
    times: Vec<f64>,
    n: usize,
    group_width: usize,
    group_traces: impl Fn(std::ops::Range<usize>) -> Result<Vec<Vec<Vec<f64>>>> + Sync,
) -> Result<MonteCarloResult> {
    let mut stats = WelfordGrid::new(times.len(), n);
    let mut probe_traces: Vec<Vec<Vec<f64>>> =
        vec![Vec::with_capacity(options.samples); options.probe_nodes.len()];

    let total_groups = options.samples.div_ceil(group_width.max(1)).max(1);
    let batch = (rayon::current_num_threads().max(1) * 2).min(total_groups);
    // Captured before the fan-out: worker threads attach their group spans
    // to the span that spawned the sweep, not to a thread-local root.
    let parent = opera_trace::current_span();
    let mut group = 0;
    while group < total_groups {
        let end = (group + batch).min(total_groups);
        let results: Vec<Result<Vec<Vec<Vec<f64>>>>> = (group..end)
            .into_par_iter()
            .map(|g| {
                let start = g * group_width;
                let stop = (start + group_width).min(options.samples);
                let _span = opera_trace::span_under(parent, "mc.sample_group");
                opera_trace::count("mc.samples", (stop - start) as u64);
                group_traces(start..stop)
            })
            .collect();
        for group_result in results {
            for voltages in group_result? {
                stats.update(&voltages);
                for (p, &node) in options.probe_nodes.iter().enumerate() {
                    probe_traces[p].push(voltages.iter().map(|row| row[node]).collect());
                }
            }
        }
        group = end;
    }
    let (mean, variance, samples) = stats.finish();
    Ok(MonteCarloResult {
        times,
        mean,
        variance,
        probe_nodes: options.probe_nodes.clone(),
        probe_traces,
        samples,
    })
}

/// Runs the Monte Carlo baseline for the RHS-only leakage variation of the
/// paper's special case: the matrices stay nominal, only the excitation is
/// resampled, so a single factorisation is shared by all samples — and the
/// samples of each worker's group advance in lock step through **one blocked
/// panel solve** per time step (groups of `MC_PANEL_WIDTH` = 4 samples)
/// instead of one scalar solve per sample per step. Each panel column
/// performs exactly
/// the scalar arithmetic, so the statistics are bit-identical to the
/// per-sample path for every thread count.
///
/// # Errors
///
/// Returns [`OperaError::InvalidOptions`] for invalid options and propagates
/// factorisation errors.
pub fn run_leakage(
    grid: &PowerGrid,
    leakage: &LeakageModel,
    options: &MonteCarloOptions,
) -> Result<MonteCarloResult> {
    let _span = opera_trace::span("mc.run");
    options.validate()?;
    let times = options.transient.time_points();
    let n = grid.node_count();
    let families = leakage.families();

    let g = grid.conductance_matrix();
    let c = grid.capacitance_matrix();
    let companion = crate::transient::CompanionSystem::new(
        &g,
        &c,
        options.transient.time_step,
        options.transient.method,
    )?;
    let dc = MatrixFactor::cholesky_or_lu(&g)?;
    let scale = options.current_scale;

    // The waveform scaling is anchored at t = 0, so it rescales only the
    // switching currents; the (time-independent) leakage is untouched. The
    // switching excitation is shared by every sample — only the subtracted
    // leakage differs — so each group evaluates it once per time point.
    let anchor = (scale != 1.0).then(|| grid.excitation(0.0));
    let base_at = |t: f64| {
        let mut u = grid.excitation(t);
        if let Some(u0) = &anchor {
            crate::transient::rescale_around_anchor(&mut u, u0, scale);
        }
        u
    };

    accumulate_sample_groups(options, times.clone(), n, MC_PANEL_WIDTH, |range| {
        // Per-sample leakage draws, from each sample's own RNG stream.
        let leaks: Vec<Vec<f64>> = range
            .map(|sample_index| {
                let mut rng = StdRng::seed_from_u64(sample_seed(options.seed, sample_index as u64));
                let xi: Vec<f64> = families.iter().map(|f| f.sample(&mut rng)).collect();
                leakage.sample_leakage(&xi)
            })
            .collect();
        let w = leaks.len();
        let fill = |u_panel: &mut Panel, base: &[f64]| {
            for (j, leak) in leaks.iter().enumerate() {
                for ((u_n, &b), l_n) in u_panel.col_mut(j).iter_mut().zip(base).zip(leak) {
                    *u_n = b - l_n;
                }
            }
        };

        // DC start + shared-factor panel transient (the factors are shared
        // across groups *and* threads; they are only read). One workspace
        // per group: the steady-state loop allocates only its output traces.
        let mut ws = SolveWorkspace::with_capacity(n * w);
        let mut u_prev = Panel::zeros(n, w);
        fill(&mut u_prev, &base_at(0.0));
        let mut state = Panel::zeros(n, w);
        state.data_mut().copy_from_slice(u_prev.data());
        dc.solve_panel(&mut state, &mut ws);

        let mut traces: Vec<Vec<Vec<f64>>> = state
            .columns()
            .map(|col| {
                let mut series = Vec::with_capacity(times.len());
                series.push(col.to_vec());
                series
            })
            .collect();
        let mut u_next = Panel::zeros(n, w);
        let mut next = Panel::zeros(n, w);
        let two_stage = options.transient.method == crate::transient::IntegrationMethod::TrBdf2;
        let cols_mid = if two_stage { w } else { 0 };
        let mut u_mid = Panel::zeros(n, cols_mid);
        let mut stage = Panel::zeros(n, cols_mid);
        let mut t_prev = times[0];
        for &t in &times[1..] {
            fill(&mut u_next, &base_at(t));
            if two_stage {
                let tm = t_prev + crate::transient::TR_BDF2_GAMMA * (t - t_prev);
                fill(&mut u_mid, &base_at(tm));
                companion.step_tr_bdf2_panel_into(
                    &state, &u_prev, &u_mid, &u_next, &mut stage, &mut next, &mut ws,
                );
            } else {
                companion.step_panel_into(&state, &u_prev, &u_next, &mut next, &mut ws);
            }
            for (series, col) in traces.iter_mut().zip(next.columns()) {
                series.push(col.to_vec());
            }
            std::mem::swap(&mut state, &mut next);
            std::mem::swap(&mut u_prev, &mut u_next);
            t_prev = t;
        }
        Ok(traces)
    })
}

/// One Monte Carlo transient: DC start plus fixed-step integration with the
/// sampled matrices, both factored numerically against the run's shared
/// analysis (with a per-sample LU fallback), and the sample's excitation
/// folded from the run's table. The output rows are allocated up front and
/// each step writes straight into its row with one reused solver workspace
/// and double-buffered excitations, so the steady-state loop performs no
/// per-step allocations.
fn transient_sample<'a>(
    g: &CsrMatrix,
    c: &CsrMatrix,
    xi: &[f64],
    analysis: &SampleAnalysis,
    table: &'a ExcitationTable,
    options: &MonteCarloOptions,
) -> Result<Vec<Vec<f64>>> {
    let n = g.nrows();
    let scale = options.current_scale;
    // `times[0]` is `t = 0`: anchor the waveform scaling at the quiescent
    // excitation of *this* sample, so only the switching currents are
    // rescaled.
    let anchor = (scale != 1.0).then(|| {
        let mut u0 = vec![0.0; n];
        table.fold(&table.initial, xi, &mut u0);
        u0
    });
    // The sample's dense copy of the terms: each point restores the entries
    // the previous point changed, then applies its own.
    let mut terms = table.initial.clone();
    let mut changed: &[(usize, f64)] = &[];
    let mut excite = |point: &'a [(usize, f64)], out: &mut [f64]| {
        for &(i, _) in changed {
            terms[i] = table.initial[i];
        }
        for &(i, v) in point {
            terms[i] = v;
        }
        changed = point;
        table.fold(&terms, xi, out);
        if let Some(u0) = &anchor {
            crate::transient::rescale_around_anchor(out, u0, scale);
        }
    };
    let mut u_prev = vec![0.0; n];
    excite(&table.at_times[0], &mut u_prev);
    let dc = MatrixFactor::cholesky_or_lu_with(&analysis.dc, g)?;
    let v0 = dc.solve(&u_prev);
    let TransientOptions {
        time_step, method, ..
    } = options.transient;
    let companion = CompanionSystem::with_symbolic(g, c, time_step, method, analysis.companion())?;
    let mut voltages = vec![vec![0.0; n]; table.at_times.len()];
    voltages[0] = v0;
    let mut ws = SolveWorkspace::with_capacity(n);
    let mut u_next = vec![0.0; n];
    let two_stage = method == IntegrationMethod::TrBdf2;
    let mut u_mid = vec![0.0; if two_stage { n } else { 0 }];
    let mut stage = vec![0.0; if two_stage { n } else { 0 }];
    for k in 1..voltages.len() {
        excite(&table.at_times[k], &mut u_next);
        let (done, rest) = voltages.split_at_mut(k);
        if two_stage {
            excite(&table.at_mids[k - 1], &mut u_mid);
            companion.step_tr_bdf2_into(
                &done[k - 1],
                &u_prev,
                &u_mid,
                &u_next,
                &mut stage,
                &mut rest[0],
                &mut ws,
            );
        } else {
            companion.step_into(&done[k - 1], &u_prev, &u_next, &mut rest[0], &mut ws);
        }
        std::mem::swap(&mut u_prev, &mut u_next);
    }
    Ok(voltages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::builder_for;
    use opera_grid::GridSpec;
    use opera_variation::{StochasticGridModel, VariationSpec};

    fn setup() -> (opera_grid::PowerGrid, StochasticGridModel) {
        let grid = GridSpec::small_test(80).with_seed(21).build().unwrap();
        let model =
            StochasticGridModel::inter_die(&grid, &VariationSpec::paper_defaults()).unwrap();
        (grid, model)
    }

    #[test]
    fn monte_carlo_matches_opera_mean_and_variance() {
        let (grid, model) = setup();
        let topts = TransientOptions::new(0.2e-9, 1.0e-9);
        let opera = builder_for(&model, 2, topts)
            .build()
            .unwrap()
            .solve()
            .unwrap();
        let mc = run(&model, &MonteCarloOptions::new(200, 1, topts)).unwrap();
        let (node, k, _) = opera.worst_mean_drop(grid.vdd());
        let mean_err = (opera.mean_at(k, node) - mc.mean[k][node]).abs() / grid.vdd();
        assert!(mean_err < 5e-3, "mean error {mean_err}");
        let sigma_opera = opera.std_dev_at(k, node);
        let sigma_mc = mc.std_dev_at(k, node);
        assert!(sigma_mc > 0.0);
        let rel = (sigma_opera - sigma_mc).abs() / sigma_mc;
        assert!(rel < 0.25, "sigma mismatch: {sigma_opera} vs {sigma_mc}");
    }

    #[test]
    fn probe_traces_have_expected_shape() {
        let (_grid, model) = setup();
        let topts = TransientOptions::new(0.25e-9, 1.0e-9);
        let mut opts = MonteCarloOptions::new(5, 3, topts);
        opts.probe_nodes = vec![0, 7];
        let mc = run(&model, &opts).unwrap();
        assert_eq!(mc.probe_traces.len(), 2);
        assert_eq!(mc.probe_traces[0].len(), 5);
        assert_eq!(mc.probe_traces[0][0].len(), mc.times.len());
        let samples = mc.probe_samples_at(7, 1).expect("probe node");
        assert_eq!(samples.len(), 5);
        assert_eq!(mc.samples, 5);
    }

    #[test]
    fn leakage_monte_carlo_records_probe_traces_and_matches_nominal_without_variation() {
        use opera_variation::LeakageModel;
        let grid = GridSpec::small_test(70).with_seed(19).build().unwrap();
        let topts = TransientOptions::new(0.25e-9, 0.5e-9);
        // Zero Vth sigma: every sample is identical, so the variance must be
        // (numerically) zero and the probes all coincide.
        let leakage =
            LeakageModel::uniform_slices(grid.node_count(), 2, 1.0e-5, 0.0, 23.0).unwrap();
        let mut opts = MonteCarloOptions::new(8, 4, topts);
        opts.probe_nodes = vec![3];
        let mc = run_leakage(&grid, &leakage, &opts).unwrap();
        assert_eq!(mc.probe_traces[0].len(), 8);
        let k = mc.times.len() - 1;
        let samples = mc.probe_samples_at(3, k).expect("probe node");
        for s in &samples {
            assert!((s - samples[0]).abs() < 1e-12);
        }
        for n in 0..grid.node_count() {
            assert!(mc.std_dev_at(k, n) < 1e-10);
        }
        let (_, _, worst) = mc.worst_mean_drop(grid.vdd());
        assert!(worst >= 0.0);
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let (_grid, model) = setup();
        let topts = TransientOptions::new(0.25e-9, 0.5e-9);
        let a = run(&model, &MonteCarloOptions::new(10, 11, topts)).unwrap();
        let b = run(&model, &MonteCarloOptions::new(10, 11, topts)).unwrap();
        let c = run(&model, &MonteCarloOptions::new(10, 12, topts)).unwrap();
        assert_eq!(a.mean, b.mean);
        assert_ne!(a.mean, c.mean);
    }

    #[test]
    fn zero_samples_is_rejected() {
        let (_grid, model) = setup();
        let opts = MonteCarloOptions::new(0, 1, TransientOptions::new(0.1e-9, 1.0e-9));
        assert!(matches!(
            run(&model, &opts),
            Err(OperaError::InvalidOptions { .. })
        ));
    }
}
