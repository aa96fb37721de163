//! Ordering-quality and ordering-runtime regression tests behind the
//! `OrderingChoice::ApproximateMinimumDegree` default (PR 6, `docs/SPARSE.md`).
//!
//! Fill quality: AMD must never produce more factor fill than reverse
//! Cuthill–McKee (RCM), the ordering it replaced, on the matrices this
//! repository actually factors — the paper-grid companion and both netlist
//! fixtures. RCM is no longer in the code; its `nnz_l` on each matrix was
//! recorded at commit db732d0 and is pinned below.
//!
//! Runtime: the AMD ordering pass must stay linear-ish on the
//! Galerkin-augmented companion, the matrix whose exact minimum-degree
//! ordering ran for minutes and motivated the switch to AMD.

use std::time::Instant;

use opera::galerkin::GalerkinSystem;
use opera_grid::GridSpec;
use opera_pce::OrthogonalBasis;
use opera_sparse::{ordering, CsrMatrix, SymbolicCholesky};
use opera_variation::{StochasticGridModel, VariationSpec};

/// Companion matrix `G + C/h` at the paper's 0.05 ns step.
fn companion(g: &CsrMatrix, c: &CsrMatrix) -> CsrMatrix {
    g.add_scaled(&c.scaled(1.0 / 0.05e-9), 1.0).unwrap()
}

/// Factor nonzeros under the default (AMD) ordering.
fn amd_fill(matrix: &CsrMatrix) -> usize {
    SymbolicCholesky::analyze(matrix).unwrap().nnz_l()
}

#[test]
fn amd_fill_never_exceeds_rcm_fill_on_paper_grid() {
    // A reduced paper grid keeps this a sub-second test; the full-scale
    // numbers live in the `orderings` section of `BENCH_6.json`.
    let grid = GridSpec::paper_grid(0)
        .unwrap()
        .scaled_nodes(0.15)
        .build()
        .unwrap();
    let m = companion(&grid.conductance_matrix(), &grid.capacitance_matrix());
    let amd = amd_fill(&m);
    // RCM's `nnz_l` on this companion, recorded at commit db732d0.
    let rcm = 129_527;
    assert!(
        amd <= rcm,
        "AMD fill {amd} exceeds RCM fill {rcm} on the paper-grid companion"
    );
}

#[test]
fn amd_fill_never_exceeds_rcm_fill_on_netlist_fixtures() {
    // RCM's `nnz_l` on each fixture's companion, recorded at commit db732d0.
    for (fixture, rcm) in [
        ("tests/fixtures/ibmpg_style.sp", 106),
        ("tests/fixtures/docs_chain.sp", 6),
    ] {
        let lowered = opera_netlist::load(fixture).unwrap();
        let m = companion(
            &lowered.grid.conductance_matrix(),
            &lowered.grid.capacitance_matrix(),
        );
        let amd = amd_fill(&m);
        assert!(
            amd <= rcm,
            "AMD fill {amd} exceeds RCM fill {rcm} on {fixture}"
        );
    }
}

/// The ordering pass itself (no symbolic analysis, no numeric work) must
/// scale linear-ish in the number of nonzeros on the Galerkin-augmented
/// companion. The budget is deliberately loose — 2 µs per nonzero plus a
/// second of slack covers debug builds and loaded CI boxes by an order of
/// magnitude, while the exact-minimum-degree pass this replaces blows
/// through it a hundredfold (minutes at full scale).
#[test]
fn amd_ordering_runtime_stays_linearish_on_augmented_companion() {
    // Scaled down for CI: dim ≈ 17k. The full 115k companion obeys the same
    // budget (`BENCH_6.json` records its measured analyze time).
    let scale = 0.15;
    let grid = GridSpec::paper_grid(0)
        .unwrap()
        .scaled_nodes(scale)
        .build()
        .unwrap();
    let model = StochasticGridModel::inter_die(&grid, &VariationSpec::paper_defaults()).unwrap();
    let basis = OrthogonalBasis::total_order_mixed(model.families(), model.n_vars(), 2).unwrap();
    let system = GalerkinSystem::assemble(&model, &basis).unwrap();
    let aug = companion(system.conductance(), system.capacitance());

    let csc = aug.to_csc();
    let t0 = Instant::now();
    let perm = ordering::approximate_minimum_degree(&csc);
    let elapsed = t0.elapsed().as_secs_f64();

    assert_eq!(perm.len(), aug.nrows());
    let budget = 2e-6 * aug.nnz() as f64 + 1.0;
    assert!(
        elapsed < budget,
        "AMD ordering took {elapsed:.3}s on {} nonzeros (budget {budget:.3}s)",
        aug.nnz()
    );
}
