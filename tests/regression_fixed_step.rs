//! Regression pins for the fixed-step transient paths.
//!
//! The adaptive TR-BDF2 PR refactored `CompanionSystem` around
//! `CompanionFamily` (shared symbolic analysis, LRU'd numeric factors) and
//! threaded an `IntegrationMethod` through every stepping loop. Fixed-step
//! backward Euler and trapezoidal results must be **bit-identical** to the
//! pre-refactor behaviour: this file pins FNV-1a hashes of full
//! trajectories, computed on the pre-PR loop shape, so any future change
//! that perturbs a single mantissa bit of the fixed-step paths fails here.
//!
//! Adaptive stepping is opt-in: the defaults are also pinned (backward
//! Euler, no adaptive options on a default-built engine). The direct
//! backend's adaptive TR-BDF2 path is pinned as well, so driving the
//! controller through the generic solver interface cannot move it.
//!
//! The Galerkin solve is pinned too: the engine's polynomial-chaos
//! coefficients must stay bit-identical to those of the one-shot solver
//! front end it replaced, for every fixed-step scheme and both solver
//! families.

use opera::adaptive::{solve_transient_adaptive, AdaptiveOptions};
use opera::engine::{OperaEngine, Scenario};
use opera::solver::{BLOCK_JACOBI_CG, DIRECT_CHOLESKY};
use opera::transient::{
    solve_transient, CompanionFamily, CompanionSystem, IntegrationMethod, TransientOptions,
};
use opera_grid::GridSpec;
use opera_sparse::{CsrMatrix, TripletMatrix};
use opera_variation::{StochasticGridModel, VariationSpec};

/// FNV-1a over the IEEE-754 bit patterns of a sequence, order-sensitive.
fn fnv1a_bits(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
    }
    hash
}

/// A fixed 4-node RC mesh with hand-picked values — no RNG, so the pinned
/// hashes are reproducible from the source alone.
fn pinned_circuit() -> (CsrMatrix, CsrMatrix) {
    let mut g = TripletMatrix::new(4, 4);
    let mut c = TripletMatrix::new(4, 4);
    for (i, (leak, cap)) in [(0.5, 1.0), (0.25, 0.5), (0.125, 2.0), (1.0, 0.75)]
        .into_iter()
        .enumerate()
    {
        g.push(i, i, leak);
        c.push(i, i, cap);
    }
    g.add_symmetric_pair(0, 1, 1.5);
    g.add_symmetric_pair(1, 2, 0.75);
    g.add_symmetric_pair(2, 3, 2.0);
    g.add_symmetric_pair(0, 3, 0.25);
    (g.to_csr(), c.to_csr())
}

fn pinned_excitation(t: f64) -> Vec<f64> {
    (0..4)
        .map(|i| 0.8 * ((i + 1) as f64 * (2.0 * t + 0.1)).sin())
        .collect()
}

#[test]
fn fixed_step_trajectories_are_bit_identical_to_the_pre_refactor_pins() {
    let (g, c) = pinned_circuit();
    // Hashes recorded from the pre-CompanionFamily stepping loop; the
    // refactor must not move a single bit.
    let pins = [
        (IntegrationMethod::BackwardEuler, 0xc8b1_2ef2_e494_9979_u64),
        (IntegrationMethod::Trapezoidal, 0x6046_e4f7_a090_8666_u64),
    ];
    for (method, expected) in pins {
        let options = TransientOptions {
            time_step: 0.125,
            end_time: 2.0,
            method,
        };
        let sol = solve_transient(&g, &c, pinned_excitation, &options).unwrap();
        // The state panel is column-major with one column per time point, so
        // its contiguous data is the pre-refactor row-of-vectors order
        // (time-major, node-minor).
        let hash = fnv1a_bits(sol.states().data().iter().copied());
        assert_eq!(
            hash, expected,
            "{method:?}: fixed-step trajectory hash changed (got {hash:#018x})"
        );
    }
}

#[test]
fn galerkin_coefficients_are_bit_identical_to_the_one_shot_pins() {
    // Hashes recorded from the one-shot solver front end on a 117-node test
    // grid (order 2, six basis functions, eleven time points).
    let pins = [
        (
            IntegrationMethod::BackwardEuler,
            DIRECT_CHOLESKY,
            0x091f_d61d_bd2b_4fc8_u64,
        ),
        (
            IntegrationMethod::BackwardEuler,
            BLOCK_JACOBI_CG,
            0x9e3e_5efa_406f_03fd,
        ),
        (
            IntegrationMethod::Trapezoidal,
            DIRECT_CHOLESKY,
            0xcb66_ddf7_2a54_19fd,
        ),
        (
            IntegrationMethod::Trapezoidal,
            BLOCK_JACOBI_CG,
            0x8d56_2044_1563_f4e0,
        ),
        (
            IntegrationMethod::TrBdf2,
            DIRECT_CHOLESKY,
            0x2d0d_d0e4_f5fd_d654,
        ),
        (
            IntegrationMethod::TrBdf2,
            BLOCK_JACOBI_CG,
            0xfc79_38f4_ee00_81fc,
        ),
    ];
    let grid = GridSpec::small_test(120).with_seed(9).build().unwrap();
    let model = StochasticGridModel::inter_die(&grid, &VariationSpec::paper_defaults()).unwrap();
    for (method, solver, expected) in pins {
        let sol = OperaEngine::for_model(model.clone())
            .order(2)
            .solver_name(solver)
            .unwrap()
            .time_step(0.1e-9)
            .end_time(1.0e-9)
            .integration_method(method)
            .build()
            .unwrap()
            .solve()
            .unwrap();
        // Time-major, then basis index, then node.
        let mut coefficients = Vec::new();
        for k in 0..sol.times().len() {
            for i in 0..sol.basis_size() {
                coefficients.extend((0..sol.node_count()).map(|n| sol.coefficient(k, i, n)));
            }
        }
        let hash = fnv1a_bits(coefficients);
        assert_eq!(
            hash, expected,
            "{method:?}/{solver}: Galerkin coefficient hash changed (got {hash:#018x})"
        );
    }
}

/// The adaptive integrator now drives any prepared solver through
/// `with_time_step`; on the direct backend it must still reproduce the
/// family-driven controller bit for bit. Hashes (and controller counts)
/// recorded from the family-driven integrator on the same 117-node grid
/// and on the pinned RC mesh.
#[test]
fn direct_adaptive_tr_bdf2_is_bit_identical_to_the_family_driven_pins() {
    let grid = GridSpec::small_test(120).with_seed(9).build().unwrap();
    let model = StochasticGridModel::inter_die(&grid, &VariationSpec::paper_defaults()).unwrap();
    let adaptive = AdaptiveOptions::with_rel_tol(1e-4);
    let pins = [
        (1, 0x6e67_4035_c8c9_614f_u64, [5, 5, 0, 4]),
        (2, 0xfd97_061a_77eb_f774, [88, 45, 43, 71]),
    ];
    for (order, expected, counts) in pins {
        let engine = OperaEngine::for_model(model.clone())
            .order(order)
            .solver_name(DIRECT_CHOLESKY)
            .unwrap()
            .time_step(0.1e-9)
            .end_time(1.0e-9)
            .adaptive(adaptive.clone())
            .build()
            .unwrap();
        let (sol, stats) = engine
            .solve_scenario_adaptive(&Scenario::default(), &adaptive)
            .unwrap();
        let mut coefficients = Vec::new();
        for k in 0..sol.times().len() {
            for i in 0..sol.basis_size() {
                coefficients.extend((0..sol.node_count()).map(|n| sol.coefficient(k, i, n)));
            }
        }
        let hash = fnv1a_bits(coefficients);
        assert_eq!(
            hash, expected,
            "order {order}: adaptive coefficient hash changed (got {hash:#018x})"
        );
        assert_eq!(
            [
                stats.steps_attempted,
                stats.steps_accepted,
                stats.steps_rejected,
                stats.refactorizations
            ],
            counts,
            "order {order}"
        );
        assert_eq!(stats.symbolic_analyses, 1);
    }

    let (g, c) = pinned_circuit();
    let options = TransientOptions {
        time_step: 0.125,
        end_time: 2.0,
        method: IntegrationMethod::TrBdf2,
    };
    let sol = solve_transient_adaptive(
        &g,
        &c,
        pinned_excitation,
        &options,
        &AdaptiveOptions::default(),
    )
    .unwrap();
    let hash = fnv1a_bits(
        sol.solution
            .states()
            .data()
            .iter()
            .chain(&sol.accepted_times)
            .chain(sol.accepted_states.iter().flatten())
            .copied(),
    );
    assert_eq!(
        hash, 0xd74a_90ac_c48d_abad,
        "deterministic adaptive hash changed (got {hash:#018x})"
    );
    assert_eq!(
        [
            sol.stats.steps_attempted,
            sol.stats.steps_accepted,
            sol.stats.steps_rejected,
            sol.stats.refactorizations,
            sol.stats.symbolic_analyses
        ],
        [65, 52, 13, 22, 1]
    );
}

/// The family-built companion system must step bit-identically to a
/// one-shot `CompanionSystem::new` — the exact contract that lets the
/// engine swap its prepared solver onto the shared symbolic analysis.
#[test]
fn family_factors_step_bit_identically_to_one_shot_systems() {
    let (g, c) = pinned_circuit();
    let family = CompanionFamily::new(&g, &c).unwrap();
    for method in [
        IntegrationMethod::BackwardEuler,
        IntegrationMethod::Trapezoidal,
    ] {
        for h in [0.125, 0.25, 0.125] {
            let from_family = family.system_for(h, method).unwrap();
            let one_shot = CompanionSystem::new(&g, &c, h, method).unwrap();
            let v = pinned_excitation(0.3);
            let u_prev = pinned_excitation(0.0);
            let u_next = pinned_excitation(h);
            assert_eq!(
                from_family.step(&v, &u_prev, &u_next),
                one_shot.step(&v, &u_prev, &u_next),
                "{method:?} at h = {h}"
            );
        }
    }
    // Three distinct (h, method) factors, one symbolic analysis; the repeat
    // of h = 0.125 hit the LRU cache instead of refactoring.
    assert_eq!(family.symbolic_analysis_count(), 1);
    assert_eq!(family.refactorization_count(), 4);
}

#[test]
fn engine_defaults_keep_adaptive_stepping_opt_in() {
    // Backward Euler stays the default scheme…
    assert_eq!(
        TransientOptions::new(0.1, 1.0).method,
        IntegrationMethod::BackwardEuler
    );
    // …and a default-built engine carries no adaptive options, so
    // `solve_scenario` takes the fixed-step path unchanged.
    let engine = OperaEngine::for_grid(GridSpec::small_test(60).with_seed(7))
        .unwrap()
        .build()
        .unwrap();
    assert!(engine.adaptive_options().is_none());
    assert_eq!(engine.transient().method, IntegrationMethod::BackwardEuler);
    // Opting in flips the method to TR-BDF2 (the only scheme with an
    // embedded error estimate).
    let opted_in = OperaEngine::for_grid(GridSpec::small_test(60).with_seed(7))
        .unwrap()
        .adaptive(AdaptiveOptions::default())
        .build()
        .unwrap();
    assert!(opted_in.adaptive_options().is_some());
    assert_eq!(opted_in.transient().method, IntegrationMethod::TrBdf2);
}
