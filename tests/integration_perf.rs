//! Integration tests of the blocked multi-RHS solve engine: the
//! zero-allocation steady-state contract, panel-batched scenario sweeps and
//! the thread-count invariance of the panel-grouped Monte Carlo.

use opera::engine::{OperaEngine, Scenario};
use opera::monte_carlo::{run_leakage, MonteCarloOptions};
use opera::special_case::{solve_leakage, solve_leakage_reference, SpecialCaseOptions};
use opera::transient::TransientOptions;
use opera::Parallelism;
use opera_grid::GridSpec;
use opera_variation::{LeakageModel, VariationSpec};

fn small_engine(solver: &str) -> OperaEngine {
    OperaEngine::for_grid(GridSpec::small_test(120))
        .unwrap()
        .variation(VariationSpec::paper_defaults())
        .solver_name(solver)
        .unwrap()
        .time_step(0.25e-9)
        .end_time(1.0e-9)
        .mc_samples(6)
        .mc_seed(3)
        .build()
        .unwrap()
}

/// The CI-enforced hot-loop contract: once the solver workspace is warm, a
/// steady-state transient step performs zero heap allocations, for every
/// built-in backend (CG borrows its iteration vectors from the workspace).
#[test]
fn steady_state_transient_steps_allocate_nothing() {
    for solver in ["direct-cholesky", "block-jacobi-cg"] {
        let engine = small_engine(solver);
        assert_eq!(
            engine.steady_state_step_allocations().unwrap(),
            0,
            "{solver} allocated in the steady-state step loop"
        );
    }
}

/// Panel-batched `run_batch` must produce reports bit-identical to solving
/// every scenario alone, including when the batch mixes panel-eligible
/// scenarios (engine time grid) with ones that need a private factorisation
/// (time-step override). The CG backend steps its panel columns in parallel,
/// so it is checked at one and at two worker threads.
#[test]
fn mixed_batches_match_individual_scenario_runs_bit_for_bit() {
    let scenarios = vec![
        Scenario::named("light").with_current_scale(0.75),
        Scenario::named("nominal"),
        Scenario::named("heavy").with_current_scale(1.5),
        Scenario::named("fine").with_time_step(0.125e-9),
    ];
    for (solver, parallelism) in [
        ("direct-cholesky", Parallelism::Max),
        ("block-jacobi-cg", Parallelism::Serial),
        ("block-jacobi-cg", Parallelism::Threads(2)),
    ] {
        let mut engine = small_engine(solver);
        engine.set_parallelism(parallelism);
        let batch = engine.run_batch(&scenarios).unwrap();
        assert_eq!(batch.len(), scenarios.len());
        for (scenario, batched) in scenarios.iter().zip(&batch) {
            let alone = engine.run_scenario(scenario).unwrap();
            assert_eq!(batched.label, alone.label);
            assert_eq!(
                batched.report.opera, alone.report.opera,
                "{solver} at {parallelism:?}, {}: drop summary differs",
                scenario.label
            );
            assert_eq!(
                batched.report.errors, alone.report.errors,
                "{solver} at {parallelism:?}, {}: error summary differs",
                scenario.label
            );
        }
    }
}

/// The panel-grouped leakage Monte Carlo must stay bit-identical across
/// worker-thread counts (the group partition is fixed, the fold is in sample
/// order, and each panel column performs the scalar arithmetic).
#[test]
fn panel_grouped_leakage_monte_carlo_is_thread_count_invariant() {
    let grid = GridSpec::small_test(90).with_seed(5).build().unwrap();
    let leakage = LeakageModel::uniform_slices(grid.node_count(), 2, 3.0e-5, 0.04, 23.0).unwrap();
    let mut opts = MonteCarloOptions::new(13, 9, TransientOptions::new(0.25e-9, 1.0e-9));
    opts.probe_nodes = vec![2];
    let runs: Vec<_> = [
        Parallelism::Serial,
        Parallelism::Threads(2),
        Parallelism::Threads(8),
    ]
    .iter()
    .map(|p| {
        p.install(|| run_leakage(&grid, &leakage, &opts))
            .unwrap()
            .unwrap()
    })
    .collect();
    for other in &runs[1..] {
        assert_eq!(runs[0].mean, other.mean);
        assert_eq!(runs[0].variance, other.variance);
        assert_eq!(runs[0].probe_traces, other.probe_traces);
    }
}

/// The panel special case and its per-column reference agree bit for bit
/// across thread counts too (the reference fans columns over the pool).
#[test]
fn special_case_panel_and_reference_agree_for_all_thread_counts() {
    let grid = GridSpec::small_test(80).with_seed(11).build().unwrap();
    let leakage = LeakageModel::uniform_slices(grid.node_count(), 2, 3.0e-5, 0.04, 23.0).unwrap();
    let opts = SpecialCaseOptions::order2(TransientOptions::new(0.25e-9, 1.0e-9));
    let panel = solve_leakage(&grid, &leakage, &opts).unwrap();
    for p in [Parallelism::Serial, Parallelism::Threads(8)] {
        let reference = p
            .install(|| solve_leakage_reference(&grid, &leakage, &opts))
            .unwrap()
            .unwrap();
        let k = panel.times().len() - 1;
        for j in 0..panel.basis_size() {
            for n in 0..grid.node_count() {
                assert_eq!(
                    panel.coefficient(k, j, n),
                    reference.coefficient(k, j, n),
                    "({k}, {j}, {n}) differs at {p:?}"
                );
            }
        }
    }
}
