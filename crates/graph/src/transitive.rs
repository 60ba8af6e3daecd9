//! Transitive reduction of DAGs.
//!
//! Algorithm 1 of the paper stores, for each sampled possible world, the
//! transitive *reduction* of its SCC condensation: the unique minimal DAG
//! with the same reachability (Aho, Garey & Ullman, SIAM J. Comput. 1972).
//! An arc `(u, v)` is dropped iff some other direct successor of `u`
//! already reaches `v`.
//!
//! Such an arc can exist only if `u` has at least two out-arcs and `v` at
//! least two in-arcs (the other successor's path ends in a second arc
//! into `v`). Only those heads, the *candidate targets*, get a column in
//! the bottom-up reachability bitsets, so the cost follows the arcs that
//! could be removed rather than the square of the node count: in sampled
//! worlds of sparse graphs only a small share of the components are
//! candidates.

use crate::{DiGraph, NodeId};

/// A topological order of a DAG (Kahn's algorithm).
///
/// Returns `None` if the graph has a cycle — callers in this workspace pass
/// condensations, which are DAGs by construction, but the check is cheap
/// and turns corruption into an error instead of nonsense.
pub fn topological_order(g: &DiGraph) -> Option<Vec<NodeId>> {
    let n = g.num_nodes();
    let mut in_deg = g.in_degrees();
    let mut queue: Vec<NodeId> = (0..n as NodeId)
        .filter(|&v| in_deg[v as usize] == 0)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(v) = queue.pop() {
        order.push(v);
        for &w in g.out_neighbors(v) {
            in_deg[w as usize] -= 1;
            if in_deg[w as usize] == 0 {
                queue.push(w);
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// Column marker for nodes that are not candidate targets.
const NO_COLUMN: usize = usize::MAX;

/// The transitive reduction of a DAG.
///
/// Keeps arc `(u, v)` iff no other direct successor `w` of `u` reaches `v`.
/// For DAGs this produces the unique minimum-arc graph with identical
/// reachability. Returns `None` on cyclic input.
///
/// Time is `O(n + m)` plus `O(m · |T| / 64)` word operations and memory
/// `O(n · |T| / 64)` words, where `T` is the set of candidate targets
/// (heads with in-degree ≥ 2 of some tail with out-degree ≥ 2).
pub fn transitive_reduction(g: &DiGraph) -> Option<DiGraph> {
    let order = topological_order(g)?;
    let n = g.num_nodes();

    let in_deg = g.in_degrees();
    let mut column = vec![NO_COLUMN; n];
    let mut num_columns = 0usize;
    for u in g.nodes() {
        let succs = g.out_neighbors(u);
        if succs.len() < 2 {
            continue;
        }
        for &v in succs {
            if in_deg[v as usize] >= 2 && column[v as usize] == NO_COLUMN {
                column[v as usize] = num_columns;
                num_columns += 1;
            }
        }
    }
    if num_columns == 0 {
        return Some(g.clone());
    }

    // One row of candidate-target bits per node: the candidates reachable
    // from it by a path of length >= 1. Rows are laid out in reverse
    // topological order, so every successor's row is complete and sits
    // before the row being filled.
    let words = num_columns.div_ceil(64);
    let mut rows = vec![0u64; n * words];
    let mut row_of = vec![0usize; n];
    let mut kept = vec![true; g.num_edges()];
    for (i, &u) in order.iter().rev().enumerate() {
        row_of[u as usize] = i;
        let (done, rest) = rows.split_at_mut(i * words);
        let row = &mut rest[..words];
        let succs = g.out_neighbors(u);
        for &w in succs {
            let start = row_of[w as usize] * words;
            for (acc, &bits) in row.iter_mut().zip(&done[start..start + words]) {
                *acc |= bits;
            }
        }
        // `row` now holds what the successors reach. A DAG node never
        // reaches itself, so a successor `v` found here is reached through
        // some other successor: the arc `(u, v)` is redundant.
        for (e, &v) in g.edge_range(u).zip(succs) {
            let c = column[v as usize];
            if c != NO_COLUMN && row[c / 64] & (1 << (c % 64)) != 0 {
                kept[e] = false;
            }
        }
        for &v in succs {
            let c = column[v as usize];
            if c != NO_COLUMN {
                row[c / 64] |= 1 << (c % 64);
            }
        }
    }

    let (offsets, targets) = g.csr_parts();
    let mut new_offsets = Vec::with_capacity(n + 1);
    let mut new_targets = Vec::with_capacity(g.num_edges());
    new_offsets.push(0);
    for u in 0..n {
        for e in offsets[u]..offsets[u + 1] {
            if kept[e] {
                new_targets.push(targets[e]);
            }
        }
        new_offsets.push(new_targets.len());
    }
    // A subsequence of each sorted neighbour list stays sorted.
    Some(DiGraph::from_csr_parts(new_offsets, new_targets))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, scc::Condensation};
    use soi_util::rng::{Rng, Xoshiro256pp};
    use soi_util::BitSet;

    /// The transitive closure as one full bitset row per node: `closure[v]`
    /// holds every node reachable from `v` by a path of length >= 1.
    fn transitive_closure(g: &DiGraph) -> Option<Vec<BitSet>> {
        let n = g.num_nodes();
        let order = topological_order(g)?;
        let mut closure: Vec<BitSet> = (0..n).map(|_| BitSet::new(n)).collect();
        for &v in order.iter().rev() {
            let mut row = BitSet::new(n);
            for &w in g.out_neighbors(v) {
                row.insert(w as usize);
                row.union_with(&closure[w as usize]);
            }
            closure[v as usize] = row;
        }
        Some(closure)
    }

    /// Reference oracle: the full-closure reduction, testing every arc
    /// against every other successor's closure row.
    fn reference_reduction(g: &DiGraph) -> Option<DiGraph> {
        let closure = transitive_closure(g)?;
        let mut kept: Vec<(NodeId, NodeId)> = Vec::new();
        for u in g.nodes() {
            let succs = g.out_neighbors(u);
            for &v in succs {
                let redundant = succs
                    .iter()
                    .any(|&w| w != v && closure[w as usize].contains(v as usize));
                if !redundant {
                    kept.push((u, v));
                }
            }
        }
        Some(DiGraph::from_edges(g.num_nodes(), &kept).unwrap())
    }

    fn diamond_with_shortcut() -> DiGraph {
        // 0->1->3, 0->2->3, plus redundant shortcut 0->3.
        DiGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn topo_order_respects_arcs() {
        let g = diamond_with_shortcut();
        let order = topological_order(&g).unwrap();
        let pos = |x: NodeId| order.iter().position(|&y| y == x).unwrap();
        for (u, v) in g.edges() {
            assert!(pos(u) < pos(v));
        }
    }

    #[test]
    fn topo_order_detects_cycles() {
        // A 2-cycle has no candidate target; the cycle check still runs.
        let g = DiGraph::from_edges(2, &[(0, 1), (1, 0)]).unwrap();
        assert!(topological_order(&g).is_none());
        assert!(transitive_closure(&g).is_none());
        assert!(transitive_reduction(&g).is_none());
        let g = DiGraph::from_edges(3, &[(0, 1), (0, 2), (1, 2), (2, 0)]).unwrap();
        assert!(transitive_reduction(&g).is_none());
    }

    #[test]
    fn closure_of_chain() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let c = transitive_closure(&g).unwrap();
        assert_eq!(c[0].to_vec_u32(), vec![1, 2, 3]);
        assert_eq!(c[1].to_vec_u32(), vec![2, 3]);
        assert_eq!(c[3].to_vec_u32(), Vec::<u32>::new());
    }

    #[test]
    fn reduction_removes_shortcut() {
        let g = diamond_with_shortcut();
        let r = transitive_reduction(&g).unwrap();
        assert_eq!(r.num_edges(), 4);
        assert!(!r.has_edge(0, 3), "shortcut arc removed");
        assert!(r.has_edge(0, 1) && r.has_edge(0, 2) && r.has_edge(1, 3) && r.has_edge(2, 3));
    }

    #[test]
    fn reduction_of_already_minimal_graph_is_identity() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(transitive_reduction(&g).unwrap(), g);
    }

    #[test]
    fn reduction_long_redundancy() {
        // 0->1->2->3 with shortcuts 0->2, 0->3, 1->3: all shortcuts die.
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 2), (0, 3), (1, 3)]).unwrap();
        let r = transitive_reduction(&g).unwrap();
        assert_eq!(r.num_edges(), 3);
    }

    /// Orients every pair from low to high id, which makes any arc list a
    /// DAG. Parallel arcs are kept unless `dedup`.
    fn dag_from_pairs(n: usize, pairs: &[(usize, usize)], dedup: bool) -> DiGraph {
        let mut arcs: Vec<(NodeId, NodeId)> = pairs
            .iter()
            .filter(|&&(a, b)| a != b)
            .map(|&(a, b)| (a.min(b) as NodeId, a.max(b) as NodeId))
            .collect();
        if dedup {
            arcs.sort_unstable();
            arcs.dedup();
        }
        DiGraph::from_edges(n, &arcs).unwrap()
    }

    /// A random DAG on `n` nodes with up to `max_arcs` drawn pairs.
    fn random_dag(rng: &mut Xoshiro256pp, n: usize, max_arcs: usize, dedup: bool) -> DiGraph {
        let len = rng.random_range(0..max_arcs + 1);
        let pairs: Vec<(usize, usize)> = (0..len)
            .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
            .collect();
        dag_from_pairs(n, &pairs, dedup)
    }

    /// A random tree on `n` nodes, arcs pointing away from the root or,
    /// if `inward`, towards it. Either way no arc can be redundant.
    fn random_tree(rng: &mut Xoshiro256pp, n: usize, inward: bool) -> DiGraph {
        let arcs: Vec<(NodeId, NodeId)> = (1..n)
            .map(|v| {
                let parent = rng.random_range(0..v) as NodeId;
                if inward {
                    (v as NodeId, parent)
                } else {
                    (parent, v as NodeId)
                }
            })
            .collect();
        DiGraph::from_edges(n, &arcs).unwrap()
    }

    /// The condensation of a possible world: every arc of `g` kept with
    /// probability `p`, then SCCs contracted.
    fn world_condensation(rng: &mut Xoshiro256pp, g: &DiGraph, p: f64) -> DiGraph {
        let live: Vec<(NodeId, NodeId)> = g.edges().filter(|_| rng.random::<f64>() < p).collect();
        Condensation::new(&DiGraph::from_edges(g.num_nodes(), &live).unwrap()).dag
    }

    /// Every node `i` points at every `j > i`.
    fn complete_dag(n: usize) -> DiGraph {
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .collect();
        dag_from_pairs(n, &pairs, false)
    }

    /// Seeded property test over inputs from trivial to dense: the
    /// reduction equals the full-closure reference (CSR-equal), never has
    /// more arcs than the input, and preserves the closure exactly.
    /// Inputs with no candidate target come back unchanged.
    #[test]
    fn reduction_preserves_reachability() {
        let mut inputs: Vec<(String, DiGraph, bool)> = vec![
            ("empty".into(), DiGraph::empty(0), true),
            ("single".into(), DiGraph::empty(1), true),
            ("isolated".into(), DiGraph::empty(5), true),
            ("chain".into(), gen::path(40), true),
            ("star".into(), gen::star(30), true),
        ];
        for n in [2usize, 3, 8, 33, 64, 65, 130] {
            inputs.push((format!("complete_{n}"), complete_dag(n), n < 3));
        }
        for case in 0..32u64 {
            let mut rng = Xoshiro256pp::from_stream(0x07A1_1DA6, case);
            let n = rng.random_range(1usize..120);
            let out_tree = random_tree(&mut rng, n, false);
            let in_tree = random_tree(&mut rng, n, true);
            let sparse = random_dag(&mut rng, 20, 60, true);
            let parallel = random_dag(&mut rng, 12, 40, false);
            let dense_n = rng.random_range(2usize..150);
            let dense = random_dag(&mut rng, dense_n, dense_n * dense_n / 3, true);
            let base = if case % 2 == 0 {
                gen::barabasi_albert(300, 3, true, &mut rng)
            } else {
                gen::gnm(300, 1_800, &mut rng)
            };
            let p = [0.05, 0.15, 0.3, 0.6][case as usize % 4];
            let world = world_condensation(&mut rng, &base, p);
            inputs.extend([
                (format!("out_tree {case}"), out_tree, true),
                (format!("in_tree {case}"), in_tree, true),
                (format!("sparse {case}"), sparse, false),
                (format!("parallel {case}"), parallel, false),
                (format!("dense {case}"), dense, false),
                (format!("world {case} p={p}"), world, false),
            ]);
        }

        for (name, g, candidate_free) in &inputs {
            let r = transitive_reduction(g).unwrap();
            assert_eq!(r, reference_reduction(g).unwrap(), "{name}");
            assert!(r.num_edges() <= g.num_edges(), "{name}");
            if *candidate_free {
                assert_eq!(&r, g, "{name}");
            }
            let cg = transitive_closure(g).unwrap();
            let cr = transitive_closure(&r).unwrap();
            for v in 0..g.num_nodes() {
                assert_eq!(cg[v].to_vec_u32(), cr[v].to_vec_u32(), "{name}");
            }
        }
    }

    /// The reduction is minimal: removing any arc changes reachability.
    #[test]
    fn reduction_is_minimal() {
        for case in 0..32u64 {
            let mut rng = Xoshiro256pp::from_stream(0x07A1_1DA6, case);
            let n = 12;
            let g = random_dag(&mut rng, n, 30, true);
            let r = transitive_reduction(&g).unwrap();
            let arcs: Vec<_> = r.edges().collect();
            for skip in 0..arcs.len() {
                let rest: Vec<_> = arcs
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != skip)
                    .map(|(_, &e)| e)
                    .collect();
                let sub = DiGraph::from_edges(n, &rest).unwrap();
                let (u, v) = arcs[skip];
                let c = transitive_closure(&sub).unwrap();
                assert!(
                    !c[u as usize].contains(v as usize),
                    "arc {u}->{v} was redundant in the reduction (case {case})"
                );
            }
        }
    }
}
