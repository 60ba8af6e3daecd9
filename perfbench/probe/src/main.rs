//! `perfbench-probe` — the in-process half of the repository benchmark
//! (`perfbench/run.py`).
//!
//! ```text
//! perfbench-probe gen WORKLOAD SEED DIR          # graphs + request pool + stream
//! perfbench-probe expect DIR OUT                 # warm in-process answers per pool entry
//! perfbench-probe spheres-ref GRAPH SAMPLES SEED OUT
//! perfbench-probe layers DIR GRAPH_NAME [--with-t1]
//! ```
//!
//! `gen` writes every input of a workload from its seed: graphs through
//! `soi_graph::gen` as TSV, a pool of distinct request bodies and a
//! stream of pool indices drawn with `soi_util::rng`. `expect` and
//! `spheres-ref` are the correctness oracles: the same engine and
//! pipeline calls the `soi` binary makes, run in this process. `layers`
//! times the public call of each layer on the workload's inputs and
//! prints one JSON object of per-layer metrics; it adds no
//! instrumentation inside the program.

use soi_graph::io as gio;
use soi_graph::{gen, NodeId, ProbGraph};
use soi_index::{CascadeIndex, IndexConfig};
use soi_jaccard::median::MedianConfig;
use soi_server::protocol;
use soi_server::{EngineConfig, Request, ServerEngine};
use soi_sketch::{ReachSketches, SketchConfig};
use soi_util::rng::{Rng, Xoshiro256pp};
use soi_util::runtime::Deadline;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Worlds ℓ per index, as `soi spheres --samples 256` and `soi serve`.
const WORLDS: usize = 256;
/// Master seed of `soi serve` (its `--seed` default).
const SERVE_SEED: u64 = 42;
/// Sketch size of `soi serve` (its `--sketch-k` default).
const SKETCH_K: usize = 64;
/// Monte-Carlo samples of every cascade spread-estimate request.
const SPREAD_SAMPLES: usize = 64;
/// Stream length: more requests than any run can send.
const STREAM_LEN: usize = 400_000;
/// serve-routed-churn request kinds.
const TC: u8 = 0;
const MC: u8 = 1;
const SKETCH: u8 = 2;
const INFMAX: u8 = 3;
const INFMAX_SKETCH: u8 = 4;
/// serve-routed-churn graph names per shard. `soi route`'s hash ring
/// routes each of these names to the listed shard of a two-shard
/// fabric, so each shard serves three graphs.
const CHURN_SHARDS: [[&str; 3]; 2] = [["c0", "c5", "c6"], ["c1", "c2", "c3"]];

type Res<T> = Result<T, String>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match args.first().map(String::as_str) {
        Some("gen") if args.len() == 4 => args[2]
            .parse()
            .map_err(|e| format!("seed: {e}"))
            .and_then(|seed| gen_workload(&args[1], seed, Path::new(&args[3]))),
        Some("expect") if args.len() == 3 => expect(Path::new(&args[1]), Path::new(&args[2])),
        Some("spheres-ref") if args.len() == 5 => spheres_ref(&args[1..]),
        Some("layers") if args.len() >= 3 => layers(
            Path::new(&args[1]),
            &args[2],
            args.iter().any(|a| a == "--with-t1"),
        ),
        _ => Err(
            "usage: perfbench-probe gen WORKLOAD SEED DIR | expect DIR OUT | \
                  spheres-ref GRAPH SAMPLES SEED OUT | layers DIR GRAPH_NAME [--with-t1]"
                .to_string(),
        ),
    };
    match run {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-probe: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------- inputs

/// Zipf(s) sampler over ranks `0..n` by inverse CDF.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut Xoshiro256pp) -> usize {
        let u: f64 = rng.random();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A seeded permutation of `0..n`: maps popularity rank to item.
fn permutation(n: usize, rng: &mut Xoshiro256pp) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..i + 1);
        p.swap(i, j);
    }
    p
}

/// A weighted-cascade Barabási–Albert graph, as
/// `soi generate --model ba --m 3 --prob wc`.
fn ba_graph(nodes: usize, rng: &mut Xoshiro256pp) -> ProbGraph {
    ProbGraph::weighted_cascade(gen::barabasi_albert(nodes, 3, true, rng))
}

fn write_graph(pg: &ProbGraph, path: &Path) -> Res<()> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    gio::write_prob_graph(pg, &mut w).map_err(|e| format!("{}: {e}", path.display()))?;
    w.flush().map_err(|e| format!("{}: {e}", path.display()))
}

fn write_lines(path: &Path, lines: &[String]) -> Res<()> {
    let mut text = lines.join("\n");
    text.push('\n');
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn seed_list(seeds: &[u32]) -> String {
    let items: Vec<String> = seeds.iter().map(u32::to_string).collect();
    format!("[{}]", items.join(","))
}

/// Request bodies without the `v`/`id` envelope fields; the client adds
/// them per request.
fn tc_body(graph: &str, source: u32) -> String {
    format!("\"type\":\"typical-cascade\",\"graph\":\"{graph}\",\"source\":{source}")
}

fn spread_body(graph: &str, seeds: &[u32], seed: u64, sketch: bool) -> String {
    if sketch {
        format!(
            "\"type\":\"spread-estimate\",\"graph\":\"{graph}\",\"seeds\":{},\
             \"samples\":1,\"backend\":\"sketch\"",
            seed_list(seeds)
        )
    } else {
        format!(
            "\"type\":\"spread-estimate\",\"graph\":\"{graph}\",\"seeds\":{},\
             \"samples\":{SPREAD_SAMPLES},\"seed\":{seed}",
            seed_list(seeds)
        )
    }
}

fn infmax_body(graph: &str, sketch: bool) -> String {
    let backend = if sketch {
        ",\"backend\":\"sketch\""
    } else {
        ""
    };
    format!("\"type\":\"infmax-tc\",\"graph\":\"{graph}\",\"k\":5{backend}")
}

/// One to three distinct seed nodes drawn by popularity.
fn seed_set(zipf: &Zipf, popular: &[u32], rng: &mut Xoshiro256pp) -> Vec<u32> {
    let count = rng.random_range(1..4usize);
    let mut seeds: Vec<u32> = (0..count).map(|_| popular[zipf.sample(rng)]).collect();
    seeds.sort_unstable();
    seeds.dedup();
    seeds
}

/// Writes a workload's inputs into `dir`: `graphs.txt`
/// (`name<TAB>file` lines), the graph files, `pool.txt`
/// (distinct request bodies) and `stream.txt` (pool indices in send
/// order).
fn gen_workload(workload: &str, seed: u64, dir: &Path) -> Res<()> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let (names, nodes): (Vec<String>, usize) = match workload {
        "batch-spheres" => (vec!["g0".into()], 10_000),
        "serve-hot" => ((0..2).map(|i| format!("h{i}")).collect(), 10_000),
        "serve-routed-churn" => (
            CHURN_SHARDS
                .concat()
                .into_iter()
                .map(String::from)
                .collect(),
            1_000,
        ),
        other => return Err(format!("unknown workload {other:?}")),
    };
    let mut graph_lines = Vec::new();
    for name in &names {
        let pg = ba_graph(nodes, &mut rng);
        let file = format!("{name}.tsv");
        write_graph(&pg, &dir.join(&file))?;
        graph_lines.push(format!("{name}\t{file}"));
    }
    write_lines(&dir.join("graphs.txt"), &graph_lines)?;
    let popular = permutation(nodes, &mut rng);
    let node_zipf = Zipf::new(nodes, 0.8);
    let mut pool = Vec::new();
    let mut stream = Vec::with_capacity(STREAM_LEN);
    match workload {
        "serve-hot" => {
            // Hot set: typical cascades of popular sources, Monte-Carlo
            // and sketch spread estimates of popular seed sets, in three
            // sub-pools. Every five requests are three typical cascades,
            // one Monte-Carlo and one sketch estimate; within a sub-pool,
            // entries are drawn by popularity. The split and the skew are
            // assumptions: no measured serving traffic exists.
            let sizes = [768, 256, 256];
            for (kind, &size) in sizes.iter().enumerate() {
                for _ in 0..size {
                    let graph = &names[rng.random_range(0..names.len())];
                    pool.push(if kind == 0 {
                        tc_body(graph, popular[node_zipf.sample(&mut rng)])
                    } else {
                        let seeds = seed_set(&node_zipf, &popular, &mut rng);
                        spread_body(graph, &seeds, rng.random::<u32>().into(), kind == 2)
                    });
                }
            }
            let zipfs: Vec<Zipf> = sizes.iter().map(|&n| Zipf::new(n, 0.8)).collect();
            for at in 0..STREAM_LEN {
                let kind = [0, 0, 0, 1, 2][at % 5];
                let base: usize = sizes[..kind].iter().sum();
                stream.push(base + zipfs[kind].sample(&mut rng));
            }
        }
        "serve-routed-churn" => {
            // Per graph, in this order: one cascade and one sketch
            // infmax-tc, sketch and Monte-Carlo spread estimates of one
            // uniform seed, and typical cascades of uniform sources.
            let layout = [
                (INFMAX, 1),
                (INFMAX_SKETCH, 1),
                (SKETCH, 4),
                (MC, 8),
                (TC, 34),
            ];
            let mut ranges = [(0, 0); 5];
            let mut per_graph = 0;
            for &(kind, count) in &layout {
                ranges[usize::from(kind)] = (per_graph, count);
                per_graph += count;
            }
            for graph in &names {
                for &(kind, count) in &layout {
                    for _ in 0..count {
                        let node = rng.random_range(0..nodes as u32);
                        pool.push(match kind {
                            INFMAX => infmax_body(graph, false),
                            INFMAX_SKETCH => infmax_body(graph, true),
                            TC => tc_body(graph, node),
                            _ => spread_body(
                                graph,
                                &[node],
                                rng.random::<u32>().into(),
                                kind == SKETCH,
                            ),
                        });
                    }
                }
            }
            // Even positions go to shard 0's graphs, odd ones to shard
            // 1's; within a shard, graph popularity follows list order.
            // Each shard's j-th request has a fixed kind: 2% cascade and
            // 1% sketch infmax-tc, 5% sketch and 10% Monte-Carlo spread
            // estimates, the rest typical cascades. These shares and the
            // skew are assumptions, like serve-hot's.
            let per_shard = CHURN_SHARDS[0].len();
            let graph_zipf = Zipf::new(per_shard, 1.0);
            for at in 0..STREAM_LEN {
                let j = at / 2;
                let kind = match (j % 50, j % 100, j % 20, j % 10) {
                    (0, _, _, _) => INFMAX,
                    (_, 25, _, _) => INFMAX_SKETCH,
                    (_, _, 7, _) => SKETCH,
                    (_, _, _, 3) => MC,
                    _ => TC,
                };
                let (offset, count) = ranges[usize::from(kind)];
                let g = (at % 2) * per_shard + graph_zipf.sample(&mut rng);
                stream.push(g * per_graph + offset + rng.random_range(0..count));
            }
        }
        _ => {}
    }
    write_lines(&dir.join("pool.txt"), &pool)?;
    let stream: Vec<String> = stream.iter().map(usize::to_string).collect();
    write_lines(&dir.join("stream.txt"), &stream)
}

// ---------------------------------------------------------------- oracles

fn read_prob_graph(path: &Path) -> Res<ProbGraph> {
    let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    match gio::read_graph(std::io::BufReader::new(file))
        .map_err(|e| format!("{}: {e}", path.display()))?
    {
        gio::ParsedGraph::Probabilistic(pg) => Ok(pg),
        gio::ParsedGraph::Plain(_) => Err(format!("{}: no probabilities", path.display())),
    }
}

fn read_text(path: &Path) -> Res<String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// `(name, path)` of every graph of a generated workload.
fn graph_specs(dir: &Path) -> Res<Vec<(String, PathBuf)>> {
    read_text(&dir.join("graphs.txt"))?
        .lines()
        .map(|l| {
            l.split_once('\t')
                .map(|(name, file)| (name.to_string(), dir.join(file)))
                .ok_or_else(|| format!("bad graphs.txt line {l:?}"))
        })
        .collect()
}

/// The engine `soi serve` builds with its default flags, holding every
/// graph of `dir` with room for both backends of each in its cache.
fn warm_engine(dir: &Path) -> Res<ServerEngine> {
    let specs = graph_specs(dir)?;
    let mut engine = ServerEngine::new(EngineConfig {
        num_worlds: WORLDS,
        seed: SERVE_SEED,
        cache_cap: 2 * specs.len(),
        sketch_k: SKETCH_K,
        ..EngineConfig::default()
    });
    for (name, path) in &specs {
        engine.add_graph(name.clone(), read_prob_graph(path)?);
    }
    engine.warm();
    Ok(engine)
}

fn request_line(body: &str) -> String {
    format!("{{\"v\":1,\"id\":0,{body}}}")
}

fn parse(body: &str) -> Res<Request> {
    protocol::parse_request(&request_line(body))
        .map(|env| env.req)
        .map_err(|e| format!("pool entry {body:?}: {e}"))
}

/// The wall-masked answer the daemon gives `body` (id 0).
fn answer(engine: &ServerEngine, body: &str) -> Res<String> {
    let req = parse(body)?;
    let line = match engine.execute(&req) {
        Ok(out) => match out.partial {
            None => protocol::encode_ok(0, &out.payload, 0),
            Some((done, total, reason)) => {
                protocol::encode_partial(0, &out.payload, done, total, reason, 0)
            }
        },
        Err(e) => protocol::encode_error(Some(0), &e),
    };
    Ok(soi_obs::report::mask_wall_clock(&line))
}

/// Writes one expected answer per pool entry, computed on two threads.
fn expect(dir: &Path, out: &Path) -> Res<()> {
    let engine = warm_engine(dir)?;
    let pool: Vec<String> = read_text(&dir.join("pool.txt"))?
        .lines()
        .map(str::to_string)
        .collect();
    let lanes = std::thread::available_parallelism().map_or(1, usize::from);
    let chunk = pool.len().div_ceil(lanes).max(1);
    let answers: Vec<Res<Vec<String>>> = std::thread::scope(|s| {
        let handles: Vec<_> = pool
            .chunks(chunk)
            .map(|part| {
                let engine = &engine;
                s.spawn(move || part.iter().map(|b| answer(engine, b)).collect())
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("oracle thread panicked".into()))
            })
            .collect()
    });
    let mut lines = Vec::with_capacity(pool.len());
    for part in answers {
        lines.extend(part?);
    }
    write_lines(out, &lines)
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn us(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// The index `soi spheres --samples N --seed S` builds, on `threads`.
fn spheres_index(pg: &ProbGraph, samples: usize, seed: u64, threads: usize) -> CascadeIndex {
    CascadeIndex::build(
        pg,
        IndexConfig {
            num_worlds: samples,
            seed,
            threads,
            ..IndexConfig::default()
        },
    )
}

/// Writes the sphere file `soi spheres` would write, from a one-thread
/// index build and `all_typical_cascades` at `threads = 1`, and prints
/// the two timings.
fn spheres_ref(args: &[String]) -> Res<()> {
    let pg = read_prob_graph(Path::new(&args[0]))?;
    let samples: usize = args[1].parse().map_err(|e| format!("samples: {e}"))?;
    let seed: u64 = args[2].parse().map_err(|e| format!("seed: {e}"))?;
    let start = Instant::now();
    let index = spheres_index(&pg, samples, seed, 1);
    let build_ms = ms(start);
    let start = Instant::now();
    let spheres = soi_core::all_typical_cascades(&index, &MedianConfig::default(), 1);
    let cascades_ms = ms(start);
    let mut text = String::from("node\tsize\ttraining_cost\tmembers\n");
    for s in &spheres {
        let members: Vec<String> = s.median.iter().map(u32::to_string).collect();
        let _ = writeln!(
            text,
            "{}\t{}\t{:.4}\t{}",
            s.node,
            s.median.len(),
            s.training_cost,
            members.join(",")
        );
    }
    std::fs::write(&args[3], text).map_err(|e| format!("{}: {e}", args[3]))?;
    println!("{{\"index.build_ms.t1\":{build_ms},\"core.cascades_ms.t1\":{cascades_ms}}}");
    Ok(())
}

// ---------------------------------------------------------------- layers

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// Median wall time in µs of `reps` calls of `f`.
fn time_us<T>(reps: usize, mut f: impl FnMut(usize) -> T) -> f64 {
    median(
        (0..reps)
            .map(|i| {
                let start = Instant::now();
                std::hint::black_box(f(i));
                us(start)
            })
            .collect(),
    )
}

/// Times the public call of each layer on graph `name` of workload
/// `dir` and prints one JSON object of per-layer metrics.
fn layers(dir: &Path, name: &str, with_t1: bool) -> Res<()> {
    let path = graph_specs(dir)?
        .into_iter()
        .find(|(n, _)| n == name)
        .map(|(_, p)| p)
        .ok_or_else(|| format!("no graph {name:?} in {}", dir.display()))?;
    let mut m: Vec<(String, f64)> = Vec::new();
    let threads = std::thread::available_parallelism().map_or(1, usize::from);

    // soi-graph: parse the TSV file, hash the graph.
    let read_ms = time_us(5, |_| read_prob_graph(&path)) / 1e3;
    m.push(("graph.read_ms".into(), read_ms));
    let pg = read_prob_graph(&path)?;
    let n = pg.num_nodes();
    m.push((
        "graph.fingerprint_us".into(),
        time_us(21, |_| pg.fingerprint()),
    ));

    // soi-sampling and the per-world index stages, over 32 worlds.
    let mut sampler = soi_sampling::world::WorldSampler::new();
    let (mut world, mut scc, mut cond, mut reduce) = (vec![], vec![], vec![], vec![]);
    for i in 0..32 {
        let start = Instant::now();
        let mut rng = soi_sampling::world::world_rng(SERVE_SEED, i);
        let g = sampler.sample(&pg, &mut rng);
        world.push(us(start));
        let start = Instant::now();
        let result = soi_graph::scc::tarjan_scc(&g);
        scc.push(us(start));
        let start = Instant::now();
        let condensed = soi_graph::scc::Condensation::from_scc(&g, &result);
        cond.push(us(start));
        let start = Instant::now();
        std::hint::black_box(soi_graph::transitive::transitive_reduction(&condensed.dag));
        reduce.push(us(start));
    }
    m.push(("sampling.world_us".into(), median(world)));
    m.push(("index.scc_us".into(), median(scc)));
    m.push(("index.condense_us".into(), median(cond)));
    m.push(("index.reduce_us".into(), median(reduce)));
    let probe_nodes: Vec<NodeId> = (0..256).map(|i| (i * n / 256) as NodeId).collect();
    m.push((
        "sampling.spread_us".into(),
        time_us(51, |i| {
            let seeds = [probe_nodes[i], probe_nodes[i + 100]];
            soi_sampling::estimate_spread(&pg, &seeds, SPREAD_SAMPLES, i as u64)
        }),
    ));

    // soi-index build, on one thread and on every core.
    if with_t1 {
        let start = Instant::now();
        std::hint::black_box(spheres_index(&pg, WORLDS, SERVE_SEED, 1));
        m.push(("index.build_ms.t1".into(), ms(start)));
    }
    let start = Instant::now();
    let index = spheres_index(&pg, WORLDS, SERVE_SEED, threads);
    m.push(("index.build_ms.tN".into(), ms(start)));
    m.push(("index.bytes".into(), index.memory_bytes() as f64));

    // soi-index lookups and soi-jaccard median fits, per node.
    let config = MedianConfig::default();
    let samples: Vec<Vec<Vec<NodeId>>> =
        probe_nodes.iter().map(|&v| index.cascades_of(v)).collect();
    m.push((
        "index.cascades_us".into(),
        time_us(probe_nodes.len(), |i| index.cascades_of(probe_nodes[i])),
    ));
    let prefix = soi_obs::counter("median.prefix_evals");
    let before = prefix.get();
    m.push((
        "median.fit_us".into(),
        time_us(samples.len(), |i| {
            soi_jaccard::median::jaccard_median_with(&samples[i], &config)
        }),
    ));
    m.push(("median.prefix_evals".into(), (prefix.get() - before) as f64));

    // soi-core all-node pipeline, with the pool attribution of the tN run.
    if with_t1 {
        let start = Instant::now();
        std::hint::black_box(soi_core::all_typical_cascades(&index, &config, 1));
        m.push(("core.cascades_ms.t1".into(), ms(start)));
    }
    soi_obs::perthread::reset();
    let start = Instant::now();
    let spheres = soi_core::all_typical_cascades(&index, &config, threads);
    m.push(("core.cascades_ms.tN".into(), ms(start)));
    let (snaps, pool) = soi_obs::perthread::snapshot();
    let busy: u64 = snaps.iter().map(|t| t.busy_ns).sum();
    let capacity = pool.capacity_ns.max(1) as f64;
    m.push(("pool.busy_ppm".into(), busy as f64 / capacity * 1e6));
    m.push((
        "pool.imbalance_ppm".into(),
        pool.imbalance_ns as f64 / capacity * 1e6,
    ));

    // soi-influence cover and the soi-sketch backend.
    let medians: Vec<Vec<NodeId>> = spheres.into_iter().map(|tc| tc.median).collect();
    let start = Instant::now();
    std::hint::black_box(soi_influence::infmax_tc(&medians, 10, 0));
    m.push(("tc.cover_ms".into(), ms(start)));
    let start = Instant::now();
    let sketches = ReachSketches::build(
        &pg,
        SketchConfig {
            num_worlds: WORLDS,
            k: SKETCH_K,
            seed: SERVE_SEED,
            threads,
        },
    );
    m.push(("sketch.build_ms".into(), ms(start)));
    let start = Instant::now();
    std::hint::black_box(soi_sketch::select_seeds(
        &pg,
        &sketches,
        10,
        &Deadline::unlimited(),
    ));
    m.push(("sketch.select_ms".into(), ms(start)));
    m.push((
        "sketch.set_spread_us".into(),
        time_us(probe_nodes.len() - 100, |i| {
            sketches.set_spread(&[probe_nodes[i], probe_nodes[i + 100]])
        }),
    ));

    // soi-server: protocol parse and warm engine execution per type.
    let bodies: Vec<(&str, String)> = (0..32)
        .flat_map(|i| {
            let (a, b) = (probe_nodes[i], probe_nodes[i + 100]);
            [
                ("typical-cascade", tc_body(name, a)),
                (
                    "spread-estimate",
                    spread_body(name, &[a, b], i as u64, false),
                ),
                (
                    "spread-estimate.sketch",
                    spread_body(name, &[a, b], 0, true),
                ),
            ]
        })
        .collect();
    let lines: Vec<String> = bodies.iter().map(|(_, b)| request_line(b)).collect();
    m.push((
        "protocol.parse_us".into(),
        time_us(lines.len(), |i| protocol::parse_request(&lines[i])),
    ));
    let mut engine = ServerEngine::new(EngineConfig {
        num_worlds: WORLDS,
        seed: SERVE_SEED,
        sketch_k: SKETCH_K,
        ..EngineConfig::default()
    });
    engine.add_graph(name, pg.clone());
    engine.warm();
    let mut requests: Vec<(&str, Request)> = Vec::new();
    for (kind, body) in &bodies {
        requests.push((kind, parse(body)?));
    }
    requests.push(("infmax-tc", parse(&infmax_body(name, false))?));
    // First pass warms the sketch backend; the second is timed.
    for (_, req) in &requests {
        engine.execute(req).map_err(|e| e.to_string())?;
    }
    for kind in [
        "typical-cascade",
        "spread-estimate",
        "spread-estimate.sketch",
        "infmax-tc",
    ] {
        let of_kind: Vec<&Request> = requests
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, r)| r)
            .collect();
        m.push((
            format!("engine.execute_us.{kind}"),
            time_us(of_kind.len(), |i| engine.execute(of_kind[i])),
        ));
    }

    let fields: Vec<String> = m.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    println!("{{{}}}", fields.join(","));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("perfbench-probe-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn zipf_stays_in_range_and_favours_low_ranks() {
        let zipf = Zipf::new(10, 1.0);
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[9] * 5, "{counts:?}");
    }

    #[test]
    fn churn_stream_alternates_between_the_shards_graphs() {
        let dir = scratch("churn");
        gen_workload("serve-routed-churn", 7, &dir).expect("gen");
        let pool: Vec<String> = read_text(&dir.join("pool.txt"))
            .expect("pool")
            .lines()
            .map(str::to_string)
            .collect();
        let stream = read_text(&dir.join("stream.txt")).expect("stream");
        for (at, idx) in stream.lines().take(1000).enumerate() {
            let body = &pool[idx.parse::<usize>().expect("index")];
            let owner = CHURN_SHARDS[at % 2]
                .iter()
                .any(|g| body.contains(&format!("\"graph\":\"{g}\"")));
            assert!(owner, "position {at} sent {body} to the other shard");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn same_seed_same_inputs() {
        let (a, b) = (scratch("seed-a"), scratch("seed-b"));
        gen_workload("serve-hot", 5, &a).expect("gen a");
        gen_workload("serve-hot", 5, &b).expect("gen b");
        for file in ["graphs.txt", "h0.tsv", "h1.tsv", "pool.txt", "stream.txt"] {
            assert_eq!(read_text(&a.join(file)), read_text(&b.join(file)), "{file}");
        }
        let _ = std::fs::remove_dir_all(&a);
        let _ = std::fs::remove_dir_all(&b);
    }
}
