//! Micro-benchmarks for the graph substrate: Tarjan SCC, condensation,
//! and transitive reduction — the per-world work inside Algorithm 1's
//! index construction.

use soi_bench::microbench::Bencher;
use soi_graph::{gen, scc::Condensation, transitive, DiGraph};
use soi_util::rng::{Rng, Xoshiro256pp};
use std::hint::black_box;

fn graph_with(n: usize, avg_deg: usize, seed: u64) -> DiGraph {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    gen::gnm(n, n * avg_deg, &mut rng)
}

fn bench_scc() {
    let b = Bencher::group("tarjan_scc");
    for &n in &[1_000usize, 10_000, 50_000] {
        let g = graph_with(n, 4, 7);
        b.bench(n, || soi_graph::scc::tarjan_scc(black_box(&g)));
    }
}

fn bench_condensation() {
    let b = Bencher::group("condensation");
    for &n in &[1_000usize, 10_000] {
        let g = graph_with(n, 4, 8);
        b.bench(n, || Condensation::new(black_box(&g)));
    }
}

/// A DAG on `n` nodes with exactly `m` distinct arcs, each from a lower
/// to a higher id.
fn random_dag(n: usize, m: usize, seed: u64) -> DiGraph {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut arcs = std::collections::BTreeSet::new();
    while arcs.len() < m {
        let (a, b) = (rng.random_range(0..n as u32), rng.random_range(0..n as u32));
        if a != b {
            arcs.insert((a.min(b), a.max(b)));
        }
    }
    DiGraph::from_edges(n, &arcs.into_iter().collect::<Vec<_>>()).unwrap()
}

fn bench_transitive_reduction() {
    let b = Bencher::group("transitive_reduction");
    // The realistic input is the condensation of a *sampled possible
    // world* (p = 0.15 keeps worlds sparse, so condensations stay large —
    // a dense deterministic graph collapses to one giant SCC).
    let mut sampler = soi_sampling::WorldSampler::new();
    for &n in &[500usize, 2_000] {
        let pg = soi_graph::ProbGraph::fixed(graph_with(n, 6, 9), 0.15).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(10);
        let world = sampler.sample(&pg, &mut rng);
        let dag = Condensation::new(&world).dag;
        b.bench(format!("dag_comps_{}", dag.num_nodes()), || {
            transitive::transitive_reduction(black_box(&dag)).unwrap()
        });
    }
    // The benchmark-shaped world: a 10^4-node directed Barabási–Albert
    // graph (m = 3) under weighted cascade, whose condensations keep
    // nearly every node as its own component.
    let mut rng = Xoshiro256pp::seed_from_u64(11);
    let pg =
        soi_graph::ProbGraph::weighted_cascade(gen::barabasi_albert(10_000, 3, true, &mut rng));
    let dag = Condensation::new(&sampler.sample(&pg, &mut rng)).dag;
    b.bench("ba_wc_10000", || {
        transitive::transitive_reduction(black_box(&dag)).unwrap()
    });
    // Dense DAGs leave many candidate arcs; this row guards the worst
    // case against the full-closure cost.
    let dag = random_dag(2_000, 40_000, 12);
    b.bench("dense_dag_2000_40000", || {
        transitive::transitive_reduction(black_box(&dag)).unwrap()
    });
}

fn main() {
    bench_scc();
    bench_condensation();
    bench_transitive_reduction();
    soi_bench::microbench::write_summary();
}
