//! Integration test for the setup-once/solve-many contract of `OperaEngine`:
//! a batch of K scenarios must be served by exactly one Galerkin assembly and
//! one factorisation (counted via the engine's test hooks), while returning
//! statistics bit-identical to K independent one-shot runs, each on a fresh
//! engine that rebuilds everything from scratch.

use std::sync::Arc;

use opera::adaptive::AdaptiveOptions;
use opera::engine::{EngineBuilder, OperaEngine, Scenario};
use opera::solver::{BlockJacobiCg, BLOCK_JACOBI_CG, DIRECT_CHOLESKY};
use opera::transient::IntegrationMethod;
use opera::{OperaError, StochasticSolution};
use opera_grid::GridSpec;
use opera_sparse::SparseError;
use opera_variation::{StochasticGridModel, VariationSpec};

/// The small demo flow: five 0.2 ns steps on a `nodes`-node test grid with a
/// 40-sample Monte Carlo validation.
fn demo(nodes: usize) -> EngineBuilder {
    OperaEngine::for_grid(GridSpec::small_test(nodes))
        .unwrap()
        .time_step(0.2e-9)
        .end_time(1.0e-9)
        .mc_samples(40)
        .mc_seed(7)
        .histogram_bins(12)
}

#[test]
fn run_batch_shares_one_assembly_and_matches_one_shot_runs_bit_for_bit() {
    let engine = demo(140).build().unwrap();
    assert_eq!(engine.assembly_count(), 1);
    assert_eq!(engine.factorization_count(), 1);

    // K scenarios differing only in their Monte Carlo seed: pure reuse.
    let seeds = [7u64, 1001, 2002];
    let scenarios: Vec<Scenario> = seeds
        .iter()
        .map(|&seed| Scenario::named(format!("seed-{seed}")).with_mc_seed(seed))
        .collect();
    let batch = engine.run_batch(&scenarios).unwrap();
    assert_eq!(batch.len(), seeds.len());

    // The whole batch was served by the one assembly + one factorisation
    // performed at engine build time.
    assert_eq!(engine.assembly_count(), 1, "run_batch re-assembled");
    assert_eq!(engine.factorization_count(), 1, "run_batch re-factored");

    // Each batched report must be bit-identical (timings aside) to the
    // corresponding one-shot run on a fresh engine, which rebuilds grid,
    // model, system and factorisation from scratch.
    for (&seed, batched) in seeds.iter().zip(&batch) {
        let fresh = demo(140).mc_seed(seed).build().unwrap();
        let one_shot = fresh.run_scenario(&Scenario::default()).unwrap().report;

        assert_eq!(batched.report.node_count, one_shot.node_count);
        assert_eq!(batched.report.mc_samples, one_shot.mc_samples);
        // DropSummary and AccuracySummary are PartialEq over raw f64 fields:
        // equality here means bit-identical statistics.
        assert_eq!(batched.report.opera, one_shot.opera, "seed {seed}");
        assert_eq!(batched.report.errors, one_shot.errors, "seed {seed}");
        // Distribution histograms: same probe, same bins, same counts.
        assert_eq!(batched.report.distribution.node, one_shot.distribution.node);
        assert_eq!(
            batched.report.distribution.time_index,
            one_shot.distribution.time_index
        );
        assert_eq!(
            batched.report.distribution.opera.edges(),
            one_shot.distribution.opera.edges()
        );
        assert_eq!(
            batched.report.distribution.opera.counts(),
            one_shot.distribution.opera.counts()
        );
        assert_eq!(
            batched.report.distribution.monte_carlo.counts(),
            one_shot.distribution.monte_carlo.counts()
        );
    }
}

#[test]
fn time_step_overrides_refactor_but_never_reassemble() {
    let engine = demo(120).build().unwrap();
    let scenarios = [
        Scenario::named("baseline"),
        Scenario::named("fine").with_time_step(0.1e-9),
        Scenario::named("short").with_end_time(0.6e-9),
    ];
    let reports = engine.run_batch(&scenarios).unwrap();
    assert_eq!(reports.len(), 3);
    // Exactly one extra preparation (for the fine time step); the end-time
    // override shares the baseline factorisation, and nothing re-assembles.
    assert_eq!(engine.assembly_count(), 1);
    assert_eq!(engine.factorization_count(), 2);
    // A finer step means more time points, same physics: worst drops differ
    // by discretisation only.
    let base = reports[0].report.opera.worst_mean_drop;
    let fine = reports[1].report.opera.worst_mean_drop;
    assert!((base - fine).abs() / base < 0.2, "base {base}, fine {fine}");
}

#[test]
fn solver_backends_are_interchangeable_through_the_engine_builder() {
    let run = |builder: EngineBuilder| {
        let engine = builder.build().unwrap();
        engine.run_scenario(&Scenario::default()).unwrap().report
    };
    let direct = run(demo(110).solver_name(DIRECT_CHOLESKY).unwrap());
    let report = run(demo(110).solver_name(BLOCK_JACOBI_CG).unwrap());
    // Same grid and seeds; only the augmented-system solver differs, so the
    // statistics agree to solver tolerance.
    let rel = (report.opera.worst_mean_drop - direct.opera.worst_mean_drop).abs()
        / direct.opera.worst_mean_drop;
    assert!(rel < 1e-6, "{BLOCK_JACOBI_CG}: worst drop differs by {rel}");
    assert_eq!(report.distribution.node, direct.distribution.node);
}

/// Largest gaps in mean and σ between two solutions on the same time grid,
/// over every node and time point.
fn mean_and_sigma_gaps(a: &StochasticSolution, b: &StochasticSolution) -> (f64, f64) {
    assert_eq!(a.times(), b.times());
    let mut gaps = (0.0f64, 0.0f64);
    for k in 0..a.times().len() {
        for node in 0..a.node_count() {
            gaps.0 = gaps.0.max((a.mean_at(k, node) - b.mean_at(k, node)).abs());
            gaps.1 = gaps
                .1
                .max((a.std_dev_at(k, node) - b.std_dev_at(k, node)).abs());
        }
    }
    gaps
}

/// The direct backend is the oracle of the default one: on a small seeded
/// grid the engine default (mean-preconditioned CG) and `direct-cholesky`
/// agree at orders 1–3, in mean and σ, for every fixed-step scheme and for
/// adaptive TR-BDF2.
#[test]
fn default_backend_matches_the_direct_oracle_at_orders_one_to_three() {
    let grid = GridSpec::small_test(120).with_seed(9).build().unwrap();
    let vdd = grid.vdd();
    let model = StochasticGridModel::inter_die(&grid, &VariationSpec::paper_defaults()).unwrap();
    let builder = |order: u32| {
        OperaEngine::for_model(model.clone())
            .order(order)
            .time_step(0.1e-9)
            .end_time(1.0e-9)
    };
    let direct = |builder: EngineBuilder| builder.solver_name(DIRECT_CHOLESKY).unwrap();
    for order in 1..=3 {
        for method in [
            IntegrationMethod::BackwardEuler,
            IntegrationMethod::Trapezoidal,
            IntegrationMethod::TrBdf2,
        ] {
            let solve = |builder: EngineBuilder| {
                builder
                    .integration_method(method)
                    .build()
                    .unwrap()
                    .solve()
                    .unwrap()
            };
            let default = solve(builder(order));
            let oracle = solve(direct(builder(order)));
            let (mean_gap, sigma_gap) = mean_and_sigma_gaps(&default, &oracle);
            assert!(
                mean_gap < 1e-8 * vdd && sigma_gap < 1e-8 * vdd,
                "order {order}, {method:?}: mean gap {mean_gap:.3e} V, σ gap {sigma_gap:.3e} V"
            );
        }
        // Adaptive TR-BDF2: each backend's controller picks its own step
        // sequence, so the two agree to the engine-level golden budget
        // (2 % of the worst mean drop, at the golden suite's rel_tol 1e-6)
        // rather than to solver tolerance.
        let adaptive = AdaptiveOptions::with_rel_tol(1e-6);
        let solve = |builder: EngineBuilder| {
            builder
                .adaptive(adaptive.clone())
                .build()
                .unwrap()
                .solve()
                .unwrap()
        };
        let default = solve(builder(order));
        let oracle = solve(direct(builder(order)));
        let (_, _, drop) = oracle.worst_mean_drop(vdd);
        let (mean_gap, sigma_gap) = mean_and_sigma_gaps(&default, &oracle);
        assert!(
            mean_gap < 2e-2 * drop && sigma_gap < 2e-2 * drop,
            "order {order}, adaptive: mean gap {mean_gap:.3e} V, σ gap {sigma_gap:.3e} V \
             (worst drop {drop:.3e} V)"
        );
    }
}

/// A CG solve that runs out of iterations fails through the engine with a
/// typed error carrying its residual, instead of returning numbers.
#[test]
fn starved_cg_fails_with_a_typed_non_convergence() {
    let starved = BlockJacobiCg {
        max_iterations: 2,
        ..BlockJacobiCg::default()
    };
    let engine = demo(110).solver(Arc::new(starved)).build().unwrap();
    match engine.solve() {
        Err(OperaError::Sparse(SparseError::DidNotConverge {
            iterations,
            residual,
        })) => {
            assert_eq!(iterations, 2);
            assert!(
                residual.is_finite() && residual > starved.tolerance,
                "residual {residual:e}"
            );
        }
        other => panic!("expected a typed non-convergence, got {other:?}"),
    }
}
