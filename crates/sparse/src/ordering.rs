//! Fill-reducing node ordering.
//!
//! Power-grid conductance matrices are essentially 2-D mesh Laplacians.
//! [`approximate_minimum_degree`] — AMD on a quotient graph with element
//! absorption, supernode (indistinguishable-node) merging and approximate
//! external degrees — gives minimum-degree-quality fill in near-linear time
//! and is the workspace default ([`crate::OrderingChoice::default`]); the
//! natural order ([`crate::OrderingChoice::Natural`]) is the identity
//! reference.
//!
//! AMD replaced reverse Cuthill–McKee (a banded ordering with about 4× more
//! fill on the paper-grid companion) and an exact greedy minimum-degree pass
//! (about 80× slower to analyse). The measurements are recorded in
//! `BENCH_6.json` and `docs/PERFORMANCE.md` §4; the fill tests below pin AMD
//! against the fill those orderings produced.

use crate::{CscMatrix, Permutation};

/// Adjacency structure (undirected graph) of the nonzero pattern of a square
/// sparse matrix, ignoring the diagonal.
fn adjacency(a: &CscMatrix) -> Vec<Vec<usize>> {
    let n = a.ncols();
    assert_eq!(a.nrows(), n, "ordering requires a square matrix");
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for j in 0..n {
        let (rows, _) = a.col(j);
        for &i in rows {
            if i != j {
                adj[i].push(j);
                adj[j].push(i);
            }
        }
    }
    for list in &mut adj {
        list.sort_unstable();
        list.dedup();
    }
    adj
}

/// Doubly linked degree buckets used by the AMD pivot selection: bucket `d`
/// holds the live supervariables whose current approximate external degree is
/// `d`, so the minimum-degree pivot is found by scanning buckets upward from
/// the last known minimum.
struct DegreeLists {
    head: Vec<usize>,
    next: Vec<usize>,
    prev: Vec<usize>,
    /// Bucket each node is currently filed under (`NONE` when unlisted).
    bucket: Vec<usize>,
}

const NONE: usize = usize::MAX;

impl DegreeLists {
    fn new(n: usize) -> Self {
        DegreeLists {
            head: vec![NONE; n.max(1)],
            next: vec![NONE; n],
            prev: vec![NONE; n],
            bucket: vec![NONE; n],
        }
    }

    fn insert(&mut self, i: usize, d: usize) {
        debug_assert_eq!(self.bucket[i], NONE, "node {i} already listed");
        let h = self.head[d];
        self.prev[i] = NONE;
        self.next[i] = h;
        if h != NONE {
            self.prev[h] = i;
        }
        self.head[d] = i;
        self.bucket[i] = d;
    }

    fn remove(&mut self, i: usize) {
        let d = self.bucket[i];
        if d == NONE {
            return;
        }
        let (p, nx) = (self.prev[i], self.next[i]);
        if p != NONE {
            self.next[p] = nx;
        } else {
            self.head[d] = nx;
        }
        if nx != NONE {
            self.prev[nx] = p;
        }
        self.bucket[i] = NONE;
    }
}

/// Life-cycle of a node in the AMD quotient graph: every node starts as a
/// variable, is either eliminated (becoming an element — the clique of its
/// former neighbourhood) or merged into an indistinguishable supervariable,
/// and elements in turn die when absorbed into a newer element that covers
/// them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum NodeState {
    Variable,
    Element,
    DeadVariable,
    DeadElement,
}

/// Computes an approximate minimum degree (AMD) ordering of the symmetric
/// pattern of `a`.
///
/// This is the Amestoy–Davis–Duff algorithm on a **quotient graph**: instead
/// of inserting explicit clique edges after each elimination (the quadratic
/// cost of exact minimum degree), each eliminated pivot becomes an *element*
/// that represents its clique implicitly, elements wholly covered by a newer
/// element are **absorbed** (including aggressive absorption of elements
/// whose variables all lie in the new pivot's neighbourhood), variables with
/// identical quotient-graph adjacency are merged into **supervariables**
/// (detected by hashing, eliminated together), and external degrees are
/// tracked by the upper bound
/// `d̄ᵢ = min(n − nel, d̄ᵢ + |Lk∖i|, |Aᵢ∖Lk| + |Lk∖i| + Σₑ|Lₑ∖Lk|)`
/// whose `|Lₑ∖Lk|` terms are computed for all affected elements in one pass.
/// The result is minimum-degree-quality fill at near-linear ordering cost —
/// ordering the 115 k-unknown Galerkin-augmented companion takes well under a
/// second where exact minimum degree needed minutes (`docs/PERFORMANCE.md`
/// §4).
///
/// `p.get(i)` of the returned permutation is the original node placed at
/// elimination position `i`, to be applied as `P·A·Pᵀ` via
/// [`CscMatrix::permute_symmetric`].
///
/// # Example
///
/// ```
/// use opera_sparse::{TripletMatrix, ordering};
///
/// // Star graph: AMD eliminates degree-1 leaves before the hub.
/// let mut t = TripletMatrix::new(5, 5);
/// for i in 1..5 {
///     t.add_symmetric_pair(0, i, 1.0);
/// }
/// let p = ordering::approximate_minimum_degree(&t.to_csc());
/// assert_eq!(p.len(), 5);
/// assert_ne!(p.get(0), 0, "a leaf, not the hub, is eliminated first");
/// ```
///
/// # Panics
///
/// Panics if the matrix is not square.
pub fn approximate_minimum_degree(a: &CscMatrix) -> Permutation {
    let n = a.ncols();
    assert_eq!(a.nrows(), n, "ordering requires a square matrix");
    if n == 0 {
        return Permutation::identity(0);
    }

    // Quotient-graph state. `alist` holds the original variable-variable
    // edges (pruned as they become represented by elements), `elist` the
    // elements adjacent to each variable, and `elem` the variable list of
    // each live element.
    let mut alist: Vec<Vec<usize>> = adjacency(a);
    let mut elist: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut elem: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut state = vec![NodeState::Variable; n];
    // Supervariable weights (0 once merged away) and approximate external
    // degrees, both in units of represented original variables.
    let mut nv: Vec<usize> = vec![1; n];
    let mut degree: Vec<usize> = alist.iter().map(Vec::len).collect();
    // Merge forest: parent of a variable absorbed into a supervariable.
    let mut merge_parent: Vec<usize> = vec![NONE; n];

    let mut lists = DegreeLists::new(n);
    for (i, &d) in degree.iter().enumerate() {
        lists.insert(i, d);
    }

    // Round stamps replace per-round clearing of the two work arrays:
    // `mark` flags membership in the current pivot neighbourhood `Lk`,
    // `wval`/`wstamp` hold the per-element |Le \ Lk| counters.
    let mut mark = vec![0u64; n];
    let mut wstamp = vec![0u64; n];
    let mut wval = vec![0usize; n];
    let mut stamp = 0u64;

    let mut pivots: Vec<usize> = Vec::with_capacity(n);
    let mut nel = 0usize;
    let mut min_deg = 0usize;
    // Scratch reused across rounds.
    let mut lk: Vec<usize> = Vec::new();
    let mut hash_head: Vec<usize> = vec![NONE; n];
    let mut hash_next: Vec<usize> = vec![NONE; n];
    let mut hashed: Vec<usize> = Vec::new();

    while nel < n {
        // --- Pivot selection: minimum approximate degree. -----------------
        while lists.head[min_deg] == NONE {
            min_deg += 1;
        }
        let k = lists.head[min_deg];
        lists.remove(k);
        let nvk = nv[k];
        nel += nvk;
        stamp += 1;

        // --- Element construction: Lk = (A_k ∪ ⋃ L_e) \ {k}. --------------
        lk.clear();
        mark[k] = stamp;
        for &j in &alist[k] {
            if state[j] == NodeState::Variable && nv[j] > 0 && mark[j] != stamp {
                mark[j] = stamp;
                lk.push(j);
            }
        }
        for &e in &elist[k] {
            if state[e] != NodeState::Element {
                continue;
            }
            for &j in &elem[e] {
                if state[j] == NodeState::Variable && nv[j] > 0 && mark[j] != stamp {
                    mark[j] = stamp;
                    lk.push(j);
                }
            }
            // The old element's clique is covered by the new one: absorb it.
            state[e] = NodeState::DeadElement;
            elem[e] = Vec::new();
        }
        alist[k] = Vec::new();
        elist[k] = Vec::new();
        state[k] = NodeState::Element;
        pivots.push(k);

        let lk_weight: usize = lk.iter().map(|&j| nv[j]).sum();
        for &i in &lk {
            lists.remove(i);
        }

        // --- One pass over affected elements: wval[e] = |L_e \ L_k|. ------
        for &i in &lk {
            for &e in &elist[i] {
                if state[e] != NodeState::Element {
                    continue;
                }
                if wstamp[e] != stamp {
                    wstamp[e] = stamp;
                    // Compact the element's variable list while sizing it, so
                    // stale (merged) variables never accumulate.
                    elem[e].retain(|&j| state[j] == NodeState::Variable && nv[j] > 0);
                    wval[e] = elem[e].iter().map(|&j| nv[j]).sum();
                }
                wval[e] -= nv[i];
            }
        }

        // --- Approximate degree update, pruning and absorption. -----------
        for &i in &lk {
            // Edges to Lk members (and to dead variables) are now carried by
            // element k; keep only the untouched external edges.
            alist[i].retain(|&j| state[j] == NodeState::Variable && nv[j] > 0 && mark[j] != stamp);
            let a_weight: usize = alist[i].iter().map(|&j| nv[j]).sum();

            let mut d = a_weight + (lk_weight - nv[i]);
            let mut kept = 0usize;
            for e_idx in 0..elist[i].len() {
                let e = elist[i][e_idx];
                if state[e] != NodeState::Element {
                    continue;
                }
                if wval[e] == 0 {
                    // Aggressive absorption: L_e ⊆ L_k, the element is
                    // redundant everywhere.
                    state[e] = NodeState::DeadElement;
                    elem[e] = Vec::new();
                    continue;
                }
                d += wval[e];
                elist[i][kept] = e;
                kept += 1;
            }
            elist[i].truncate(kept);
            elist[i].push(k);

            let external_cap = (n - nel).saturating_sub(nv[i]);
            degree[i] = d.min(degree[i] + (lk_weight - nv[i])).min(external_cap);
        }

        // --- Supernode detection: merge indistinguishable variables. ------
        // Variables of Lk with identical quotient-graph adjacency would stay
        // tied for degree forever and produce identical factor columns;
        // hashing buckets the candidates, an exact sorted comparison
        // confirms, and the loser is folded into the winner's weight.
        hashed.clear();
        for &i in &lk {
            if nv[i] == 0 {
                continue;
            }
            let h: usize = elist[i]
                .iter()
                .chain(alist[i].iter())
                .fold(0usize, |acc, &x| acc.wrapping_add(x))
                % n;
            if hash_head[h] == NONE {
                hashed.push(h);
            }
            hash_next[i] = hash_head[h];
            hash_head[h] = i;
            alist[i].sort_unstable();
            elist[i].sort_unstable();
        }
        for &h in &hashed {
            let mut i = hash_head[h];
            hash_head[h] = NONE;
            while i != NONE {
                let mut j = hash_next[i];
                if nv[i] > 0 {
                    while j != NONE {
                        let j_next = hash_next[j];
                        if nv[j] > 0 && alist[i] == alist[j] && elist[i] == elist[j] {
                            // j is indistinguishable from i: merge. The
                            // `|Lk \ i|` term of i's degree bound counted j,
                            // which is now internal to the supervariable.
                            degree[i] = degree[i].saturating_sub(nv[j]);
                            nv[i] += nv[j];
                            nv[j] = 0;
                            state[j] = NodeState::DeadVariable;
                            merge_parent[j] = i;
                            alist[j] = Vec::new();
                            elist[j] = Vec::new();
                        }
                        j = j_next;
                    }
                }
                i = hash_next[i];
            }
        }

        // --- Refile the survivors and finalise element k. -----------------
        for &i in &lk {
            if nv[i] == 0 {
                continue;
            }
            lists.insert(i, degree[i]);
            min_deg = min_deg.min(degree[i]);
        }
        lk.retain(|&j| state[j] == NodeState::Variable && nv[j] > 0);
        if lk.is_empty() {
            state[k] = NodeState::DeadElement;
        } else {
            std::mem::swap(&mut elem[k], &mut lk);
        }
        lk.clear();
    }

    // --- Output: pivots in elimination order, merged variables expanded. --
    // Every variable absorbed into a supervariable is emitted immediately
    // after its representative (the two have identical factor structure, so
    // any relative order is optimal).
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (j, &p) in merge_parent.iter().enumerate() {
        if p != NONE {
            children[p].push(j);
        }
    }
    let mut order = Vec::with_capacity(n);
    let mut dfs: Vec<usize> = Vec::new();
    for &k in &pivots {
        dfs.push(k);
        while let Some(v) = dfs.pop() {
            order.push(v);
            dfs.extend_from_slice(&children[v]);
        }
    }
    // lint: allow(L001, supervariable expansion emits each variable exactly once)
    Permutation::from_vec(order).expect("AMD produces a valid permutation")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TripletMatrix;

    /// Builds the Laplacian (plus identity, to be SPD) of an `nx` × `ny` grid.
    fn grid_matrix(nx: usize, ny: usize) -> CscMatrix {
        let n = nx * ny;
        let idx = |x: usize, y: usize| y * nx + x;
        let mut t = TripletMatrix::new(n, n);
        for y in 0..ny {
            for x in 0..nx {
                t.push(idx(x, y), idx(x, y), 1.0);
                if x + 1 < nx {
                    t.add_symmetric_pair(idx(x, y), idx(x + 1, y), 1.0);
                }
                if y + 1 < ny {
                    t.add_symmetric_pair(idx(x, y), idx(x, y + 1), 1.0);
                }
            }
        }
        t.to_csc()
    }

    /// Cholesky factor nonzeros of `P·A·Pᵀ`, from the elimination tree's
    /// column counts (exact, no numeric factorisation).
    fn cholesky_fill(a: &CscMatrix, p: &Permutation) -> usize {
        let ap = a.permute_symmetric(p).unwrap();
        let parent = crate::etree::elimination_tree(&ap);
        crate::etree::column_counts(&ap, &parent).iter().sum()
    }

    #[test]
    fn amd_is_a_permutation_on_grids() {
        for (nx, ny) in [(1, 1), (2, 3), (8, 8), (13, 7)] {
            let a = grid_matrix(nx, ny);
            let p = approximate_minimum_degree(&a);
            assert_eq!(p.len(), nx * ny);
        }
    }

    #[test]
    fn amd_handles_the_empty_matrix_and_disconnected_components() {
        assert_eq!(approximate_minimum_degree(&CscMatrix::identity(0)).len(), 0);
        let mut t = TripletMatrix::new(5, 5);
        t.add_symmetric_pair(0, 1, 1.0);
        t.add_symmetric_pair(2, 3, 1.0);
        t.push(4, 4, 1.0);
        assert_eq!(approximate_minimum_degree(&t.to_csc()).len(), 5);
    }

    #[test]
    fn amd_orders_star_leaves_before_the_hub() {
        // Star graph: the hub (degree 5) only reaches the minimum degree
        // after four of the five degree-1 leaves are gone, so it cannot be
        // eliminated before position 4.
        let mut t = TripletMatrix::new(6, 6);
        for i in 1..6 {
            t.add_symmetric_pair(0, i, 1.0);
        }
        let p = approximate_minimum_degree(&t.to_csc());
        assert!(
            p.position_of(0) >= 4,
            "hub eliminated too early (position {})",
            p.position_of(0)
        );
    }

    #[test]
    fn amd_fill_is_no_worse_than_rcm_on_grids() {
        // Reverse Cuthill–McKee's fill on the same grids, recorded from the
        // RCM implementation at commit db732d0 before it was removed.
        for (nx, ny, rcm_fill) in [(8, 8, 428), (16, 16, 3096), (20, 11, 2244)] {
            let a = grid_matrix(nx, ny);
            let amd_fill = cholesky_fill(&a, &approximate_minimum_degree(&a));
            assert!(
                amd_fill <= rcm_fill,
                "{nx}x{ny} grid: AMD fill {amd_fill} > RCM fill {rcm_fill}"
            );
        }
    }

    #[test]
    fn amd_fill_is_close_to_exact_minimum_degree() {
        // The approximation must stay within a modest factor of the exact
        // greedy algorithm it replaced; on small meshes they are near-equal.
        // Exact minimum degree's fill on this grid, recorded at commit
        // db732d0 before that ordering was removed.
        const MD_FILL_12X12: usize = 1026;
        let a = grid_matrix(12, 12);
        let amd_fill = cholesky_fill(&a, &approximate_minimum_degree(&a));
        assert!(
            (amd_fill as f64) <= 1.25 * (MD_FILL_12X12 as f64),
            "AMD fill {amd_fill} vs exact minimum-degree fill {MD_FILL_12X12}"
        );
    }

    #[test]
    fn amd_handles_a_dense_block_bordered_by_a_path() {
        // A 4-clique (all indistinguishable after the first elimination)
        // attached to a path exercises element absorption and supervariable
        // merging together.
        let mut t = TripletMatrix::new(10, 10);
        for i in 0..4 {
            for j in (i + 1)..4 {
                t.add_symmetric_pair(i, j, 1.0);
            }
        }
        for i in 4..9 {
            t.add_symmetric_pair(i, i + 1, 1.0);
        }
        t.add_symmetric_pair(3, 4, 1.0);
        let p = approximate_minimum_degree(&t.to_csc());
        assert_eq!(p.len(), 10);
    }
}
