//! Criterion microbenches for the matching substrate — the timing
//! counterparts of figures F6 and F12, and the warm re-solves the serving
//! path runs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mbta_graph::random::{complete_bipartite, random_bipartite, RandomGraphSpec};
use mbta_graph::BipartiteGraph;
use mbta_market::benefit::edge_weights;
use mbta_market::Combiner;
use mbta_matching::auction::auction_max_weight;
use mbta_matching::dinic::max_cardinality_bmatching;
use mbta_matching::greedy::greedy_bmatching;
use mbta_matching::hopcroft_karp::hopcroft_karp;
use mbta_matching::hungarian::hungarian_max_weight;
use mbta_matching::local_search::local_search;
use mbta_matching::mcmf::{max_weight_bmatching, FlowMode, PathAlgo};
use mbta_matching::push_relabel::max_cardinality_bmatching_pr;
use mbta_matching::stable::deferred_acceptance;
use mbta_matching::warm::WarmNet;
use mbta_matching::Matching;
use mbta_util::{SolveCtl, SplitMix64};

fn unit_graph(n: usize, seed: u64) -> BipartiteGraph {
    random_bipartite(
        &RandomGraphSpec {
            n_workers: n,
            n_tasks: n / 2,
            avg_degree: 8.0,
            capacity: 1,
            demand: 2,
        },
        seed,
    )
}

fn bgraph(n: usize, seed: u64) -> BipartiteGraph {
    random_bipartite(
        &RandomGraphSpec {
            n_workers: n,
            n_tasks: n / 2,
            avg_degree: 8.0,
            capacity: 2,
            demand: 3,
        },
        seed,
    )
}

fn bench_cardinality(c: &mut Criterion) {
    let mut group = c.benchmark_group("cardinality");
    group.sample_size(10);
    for n in [1_000usize, 4_000] {
        let unit = random_bipartite(
            &RandomGraphSpec {
                n_workers: n,
                n_tasks: n,
                avg_degree: 8.0,
                capacity: 1,
                demand: 1,
            },
            1,
        );
        group.bench_with_input(BenchmarkId::new("hopcroft_karp", n), &unit, |b, g| {
            b.iter(|| hopcroft_karp(g))
        });
        group.bench_with_input(BenchmarkId::new("dinic", n), &unit, |b, g| {
            b.iter(|| max_cardinality_bmatching(g))
        });
        group.bench_with_input(BenchmarkId::new("push_relabel", n), &unit, |b, g| {
            b.iter(|| max_cardinality_bmatching_pr(g))
        });
    }
    group.finish();
}

fn bench_exact(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_bmatching");
    group.sample_size(10);
    for n in [500usize, 2_000] {
        let g = bgraph(n, 2);
        let w = edge_weights(&g, Combiner::balanced());
        group.bench_with_input(BenchmarkId::new("mcmf_dijkstra", n), &n, |b, _| {
            b.iter(|| max_weight_bmatching(&g, &w, FlowMode::FreeCardinality, PathAlgo::Dijkstra))
        });
        group.bench_with_input(BenchmarkId::new("mcmf_spfa", n), &n, |b, _| {
            b.iter(|| max_weight_bmatching(&g, &w, FlowMode::FreeCardinality, PathAlgo::Spfa))
        });
    }
    group.finish();
}

fn bench_heuristics(c: &mut Criterion) {
    let mut group = c.benchmark_group("heuristics");
    group.sample_size(10);
    for n in [2_000usize, 16_000] {
        let g = bgraph(n, 3);
        let w = edge_weights(&g, Combiner::balanced());
        group.bench_with_input(BenchmarkId::new("greedy", n), &n, |b, _| {
            b.iter(|| greedy_bmatching(&g, &w, 0.0))
        });
        group.bench_with_input(BenchmarkId::new("local_search", n), &n, |b, _| {
            b.iter(|| {
                let start = greedy_bmatching(&g, &w, 0.0);
                local_search(&g, &w, start, 8)
            })
        });
        group.bench_with_input(BenchmarkId::new("stable", n), &n, |b, _| {
            b.iter(|| deferred_acceptance(&g))
        });
    }
    group.finish();
}

fn bench_dense_oracles(c: &mut Criterion) {
    let mut group = c.benchmark_group("dense_oracles");
    group.sample_size(10);
    for n in [32usize, 128] {
        let g = complete_bipartite(n, n, 4);
        let w = edge_weights(&g, Combiner::balanced());
        group.bench_with_input(BenchmarkId::new("hungarian", n), &n, |b, _| {
            b.iter(|| hungarian_max_weight(&g, &w))
        });
        group.bench_with_input(BenchmarkId::new("auction", n), &n, |b, _| {
            b.iter(|| auction_max_weight(&g, &w))
        });
        group.bench_with_input(BenchmarkId::new("mcmf", n), &n, |b, _| {
            b.iter(|| max_weight_bmatching(&g, &w, FlowMode::FreeCardinality, PathAlgo::Dijkstra))
        });
    }
    group.finish();
}

fn bench_online(c: &mut Criterion) {
    use mbta_matching::online::{online_assign, OnlinePolicy};
    let mut group = c.benchmark_group("online");
    group.sample_size(10);
    let g = unit_graph(8_000, 5);
    let w = edge_weights(&g, Combiner::balanced());
    let arrivals: Vec<_> = g.workers().collect();
    for (name, policy) in [
        ("greedy", OnlinePolicy::Greedy),
        ("ranking", OnlinePolicy::Ranking { seed: 7 }),
        (
            "two_phase",
            OnlinePolicy::TwoPhase {
                sample_fraction: 0.5,
                threshold_quantile: 0.5,
            },
        ),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| online_assign(&g, &w, &arrivals, policy))
        });
    }
    group.finish();
}

/// `base` scaled edge by edge by a factor in `[0.8, 1.2]`, capped at 1.
fn drifted(base: &[f64], rng: &mut SplitMix64) -> Vec<f64> {
    let scale = |w: &f64| (w * (0.8 + 0.4 * rng.next_f64())).min(1.0);
    base.iter().map(scale).collect()
}

/// `m` cut down, in edge order, to what fits `(workers, tasks)`.
fn trim(g: &BipartiteGraph, m: &Matching, workers: &[u32], tasks: &[u32]) -> Matching {
    let (mut wc, mut tc) = (workers.to_vec(), tasks.to_vec());
    let mut fits = |e: &mbta_graph::EdgeId| {
        let (w, t) = (g.worker_of(*e).index(), g.task_of(*e).index());
        let ok = wc[w] > 0 && tc[t] > 0;
        if ok {
            wc[w] -= 1;
            tc[t] -= 1;
        }
        ok
    };
    Matching::from_edges(m.edges.iter().copied().filter(&mut fits).collect())
}

/// The round a warm bench's `i`-th solve runs: back and forth through
/// `n` rounds, so each solve is one round's step from the last.
fn round(i: usize, n: usize) -> usize {
    let k = i % (2 * n - 2);
    k.min(2 * n - 2 - k)
}

/// Warm re-solves on one carried net, through 64 precomputed rounds.
/// `full_resolve`: a 1000 × 500 market, every node open, weights drifting
/// ±20 % — a shard solve with every node live, whose passes walk every
/// node and edge.
/// `rescue_churn`: the same market shaped like a boundary rescue — about a
/// fifth of the workers and tasks open, so ~4 % of the edges, and a fifth
/// of those nodes closing or resizing each round — whose passes walk the
/// open part only. Each solve is seeded with the last one's matching, cut
/// to the round's capacities.
fn bench_warm(c: &mut Criterion) {
    const ROUNDS: usize = 64;
    let mut group = c.benchmark_group("warm");
    group.sample_size(20);
    let g = bgraph(1_000, 6);
    let base = edge_weights(&g, Combiner::balanced());
    let mut rng = SplitMix64::new(11);
    let weights: Vec<Vec<f64>> = (0..ROUNDS).map(|_| drifted(&base, &mut rng)).collect();
    let ctl = SolveCtl::unlimited();

    let (mut net, mut prev, mut i) = (WarmNet::new(&g), Matching::empty(), 0);
    group.bench_function("full_resolve_1000x500", |b| {
        b.iter(|| {
            i += 1;
            prev = net.solve(&g, &weights[round(i, ROUNDS)], &prev, &ctl).0;
        })
    });

    let size = |rng: &mut SplitMix64| 1 + rng.next_below(3) as u32;
    let churn = |c: u32, rng: &mut SplitMix64| match c {
        0 if rng.next_bool(0.05) => size(rng),
        0 => 0,
        _ if rng.next_bool(0.2) => 0,
        _ if rng.next_bool(0.2) => size(rng),
        c => c,
    };
    let open = |n: usize, rng: &mut SplitMix64| -> Vec<u32> {
        let cap = |rng: &mut SplitMix64| if rng.next_bool(0.2) { size(rng) } else { 0 };
        (0..n).map(|_| cap(rng)).collect()
    };
    let mut caps = vec![(open(g.n_workers(), &mut rng), open(g.n_tasks(), &mut rng))];
    while caps.len() < ROUNDS {
        let (w, t) = caps.last().unwrap();
        let w = w.iter().map(|&c| churn(c, &mut rng)).collect();
        let t = t.iter().map(|&c| churn(c, &mut rng)).collect();
        caps.push((w, t));
    }
    let (mut net, mut prev, mut i) = (WarmNet::new(&g), Matching::empty(), 0);
    group.bench_function("rescue_churn_1000x500", |b| {
        b.iter(|| {
            i += 1;
            let k = round(i, ROUNDS);
            let (w_cap, t_cap) = &caps[k];
            net.restore(std::iter::empty());
            for (v, &c) in w_cap.iter().chain(t_cap).enumerate() {
                net.set_units(v, c);
            }
            let seed = trim(&g, &prev, w_cap, t_cap);
            prev = net.solve(&g, &weights[k], &seed, &ctl).0;
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_cardinality,
    bench_exact,
    bench_heuristics,
    bench_dense_oracles,
    bench_online,
    bench_warm
);
criterion_main!(benches);
