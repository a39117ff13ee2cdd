//! The experiment table — one module per table/figure of DESIGN.md §3.
//!
//! An experiment is one [`EXPERIMENTS`] entry plus the function it names:
//! `fn(Scale, title) -> Vec<Table>`.

use crate::harness::{Experiment, Scale};
use mbta_core::algorithms::Algorithm;
use mbta_graph::BipartiteGraph;
use mbta_market::BenefitParams;
use mbta_workload::{Profile, WorkloadSpec};

pub mod f10;
pub mod f11;
pub mod f12_t13;
pub mod f14_f15;
pub mod f16_f17;
pub mod f18;
pub mod f19;
pub mod f20;
pub mod f21_f22;
pub mod f2_f3;
pub mod f4_f5;
pub mod f6_f7;
pub mod f8;
pub mod f9;
pub mod t1;

/// All experiments, in presentation order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "t1",
        title: "T1: dataset statistics per workload profile",
        run: t1::dataset_stats,
    },
    Experiment {
        id: "f2",
        title: "F2: total mutual benefit vs #workers (n_tasks = n/2, deg 8)",
        run: f2_f3::benefit_vs_workers,
    },
    Experiment {
        id: "f3",
        title: "F3: total mutual benefit vs #tasks (workers fixed, deg 8)",
        run: f2_f3::benefit_vs_tasks,
    },
    Experiment {
        id: "f4",
        title: "F4: per-side benefit decomposition by algorithm",
        run: f4_f5::per_side_benefit,
    },
    Experiment {
        id: "f5",
        title: "F5: lambda-sweep Pareto frontier (ExactMB under Linear(lambda))",
        run: f4_f5::lambda_frontier,
    },
    Experiment {
        id: "f6",
        title: "F6: solve time vs #workers (n_tasks = n/2, deg 8)",
        run: f6_f7::runtime_vs_size,
    },
    Experiment {
        id: "f7",
        title: "F7: benefit and runtime vs average degree",
        run: f6_f7::density_sweep,
    },
    Experiment {
        id: "f8",
        title: "F8: egalitarian (MaxMin) floor vs sum-maximizing solutions",
        run: f8::egalitarian,
    },
    Experiment {
        id: "f9",
        title: "F9: online competitive ratios (policy x arrival order)",
        run: f9::online_policies,
    },
    Experiment {
        id: "f10",
        title: "F10: realized answer accuracy (assignment x aggregation, microtask profile)",
        run: f10::realized_quality,
    },
    Experiment {
        id: "f11",
        title: "F11: combiner ablation (ExactMB under each mutual-benefit definition)",
        run: f11::combiner_ablation,
    },
    Experiment {
        id: "f12",
        title: "F12: exact-solver ablation (Dijkstra vs SPFA path finding)",
        run: f12_t13::mcmf_variants,
    },
    Experiment {
        id: "t13",
        title: "T13: exact-solver cross-validation (flow vs Hungarian vs auction)",
        run: f12_t13::solver_agreement,
    },
    Experiment {
        id: "f14",
        title: "F14: incremental repair vs re-solve under churn",
        run: f14_f15::incremental_churn,
    },
    Experiment {
        id: "f15",
        title: "F15: max-flow engine ablation (Dinic vs push-relabel)",
        run: f14_f15::flow_engines,
    },
    Experiment {
        id: "f16",
        title: "F16: benefit-model calibration (predicted vs realized accuracy)",
        run: f16_f17::model_calibration,
    },
    Experiment {
        id: "f17",
        title: "F17: aggregation under systematically confused workers",
        run: f16_f17::adversarial_aggregation,
    },
    Experiment {
        id: "f18",
        title: "F18: budget-constrained assignment (greedy vs Lagrangian)",
        run: f18::budget_sweep,
    },
    Experiment {
        id: "f19",
        title: "F19: multi-round reliability learning (learned vs oracle vs cold)",
        run: f19::reliability_learning,
    },
    Experiment {
        id: "f20",
        title: "F20: completed work under offer/decline dynamics",
        run: f20::acceptance_throughput,
    },
    Experiment {
        id: "f21",
        title: "F21: worker-arrival vs task-arrival greedy (competitive ratios)",
        run: f21_f22::arrival_asymmetry,
    },
    Experiment {
        id: "f22",
        title: "F22: repeated rounds — cumulative fairness under load rotation",
        run: f21_f22::rotation_fairness,
    },
];

/// Exact-flow solvers (ExactMB, QualityOnly and WorkerOnly all are) are
/// skipped above this worker count at full scale: their solve time
/// explodes, and that cliff is itself one of the findings F6 reports.
const EXACT_MAX_WORKERS: usize = 4_000;

/// Whether F2/F3/F6 skip `alg` on a market of `n_workers` (its cell reads
/// `-`).
pub(crate) fn exact_skipped(alg: Algorithm, n_workers: usize, scale: Scale) -> bool {
    alg.is_exact_flow() && scale == Scale::Full && n_workers > EXACT_MAX_WORKERS
}

/// Standard realized instance for a profile (default benefit parameters).
pub(crate) fn profile_graph(
    profile: Profile,
    n_workers: usize,
    n_tasks: usize,
    avg_degree: f64,
    seed: u64,
) -> BipartiteGraph {
    WorkloadSpec {
        profile,
        n_workers,
        n_tasks,
        avg_worker_degree: avg_degree,
        skill_dims: 8,
        seed,
    }
    .generate()
    .realize(&BenefitParams::default())
    .expect("generated markets realize")
}

/// Uniform-profile instance — the default sweep substrate.
pub(crate) fn uniform_graph(
    n_workers: usize,
    n_tasks: usize,
    avg_degree: f64,
    seed: u64,
) -> BipartiteGraph {
    profile_graph(Profile::Uniform, n_workers, n_tasks, avg_degree, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::parallel_map;
    use mbta_util::table::Table;
    use mbta_util::FxHashSet;
    use std::collections::HashMap;

    /// One data row of a table: header name → cell.
    type Row = HashMap<String, String>;

    /// `t`'s data rows, read back from its CSV by header name.
    fn rows(t: &Table) -> Vec<Row> {
        let csv = t.to_csv();
        let mut lines = csv.lines();
        let header: Vec<&str> = lines.next().expect("a header line").split(',').collect();
        let row = |line: &str| -> Row {
            assert!(!line.contains('"'), "quoted cells are not read: {line}");
            let cells = line.split(',').map(String::from);
            header.iter().map(|h| h.to_string()).zip(cells).collect()
        };
        lines.map(row).collect()
    }

    /// The leading number of a cell (`"0.1234 @57"` reads 0.1234).
    fn num(cell: &str) -> f64 {
        let lead = cell.split(' ').next().unwrap_or(cell);
        lead.parse()
            .unwrap_or_else(|_| panic!("not a number: {cell:?}"))
    }

    /// Column `name` of `t`, as numbers.
    fn col(t: &Table, name: &str) -> Vec<f64> {
        rows(t).iter().map(|r| num(&r[name])).collect()
    }

    /// Cell `name` of the row whose `key` column reads `value`, as a number.
    fn at(t: &Table, key: &str, value: &str, name: &str) -> f64 {
        let rows = rows(t);
        let row = rows.iter().find(|r| r[key] == value);
        num(&row.unwrap_or_else(|| panic!("no row with {key} = {value}"))[name])
    }

    /// Asserts every cell of `t` outside its `key` column is a ratio in
    /// [0, 1].
    fn ratios_in_unit_range(t: &Table, key: &str) {
        for r in rows(t) {
            for (name, cell) in r.iter().filter(|(name, _)| *name != key) {
                assert!((0.0..=1.000001).contains(&num(cell)), "{name}: {r:?}");
            }
        }
    }

    /// The shape each experiment's quick run must show (EXPERIMENTS.md).
    fn check_shape(id: &str, tables: &[Table]) {
        let t = &tables[0];
        match id {
            "t1" => assert_eq!(t.len(), 4, "one row per profile"),
            "f2" => {
                let first = &rows(t)[0];
                let (exact, greedy) = (num(&first["ExactMB"]), num(&first["GreedyMB"]));
                assert!(exact >= greedy - 1e-9, "exact {exact} < greedy {greedy}");
                assert!(greedy > num(&first["Random"]), "random beats greedy");
            }
            "f3" => assert_eq!(t.len(), 5),
            "f4" => assert_eq!(t.len(), Algorithm::comparison_set().len()),
            "f5" => {
                let rbs = col(t, "total_rb");
                assert_eq!(rbs.len(), 11);
                for w in rbs.windows(2) {
                    assert!(w[1] >= w[0] - 0.5, "rb not ~monotone: {w:?}");
                }
            }
            "f6" => assert_eq!(t.len(), 3),
            "f7" => {
                let exact = col(t, "exact_mb");
                assert!(
                    exact.windows(2).all(|w| w[1] >= w[0] * 0.95),
                    "benefit should not shrink with density: {exact:?}"
                );
                // Greedy stays within its approximation band.
                for ratio in col(t, "greedy/exact") {
                    assert!((0.5..=1.0 + 1e-9).contains(&ratio), "ratio {ratio}");
                }
            }
            "f8" => {
                // The bottleneck solver's floor is >= the exact-sum
                // solution's min edge (both at maximum cardinality).
                for r in rows(t) {
                    let floor = num(&r["maxmin_floor"]);
                    assert!(floor >= num(&r["exactsum_min@card"]) - 1e-9, "{r:?}");
                }
            }
            "f9" => {
                ratios_in_unit_range(t, "policy");
                let greedy = at(t, "policy", "Greedy", "random(avg)");
                let ranking = at(t, "policy", "Ranking", "random(avg)");
                assert!(
                    greedy > ranking,
                    "weighted greedy {greedy} should beat cardinality ranking {ranking}"
                );
            }
            "f10" => {
                let exact = at(t, "algorithm", "ExactMB", "majority");
                let random = at(t, "algorithm", "Random", "majority");
                assert!(
                    exact > random,
                    "quality-aware assignment ({exact}) must beat random ({random})"
                );
            }
            "f11" => {
                // Requester-only maximizes Σrb over all rows; worker-only Σwb.
                let rb_max = at(t, "combiner", "Linear(1.0)=rb", "total_rb");
                let wb_max = at(t, "combiner", "Linear(0.0)=wb", "total_wb");
                for r in rows(t) {
                    assert!(num(&r["total_rb"]) <= rb_max + 0.2, "{r:?}");
                    assert!(num(&r["total_wb"]) <= wb_max + 0.2, "{r:?}");
                }
            }
            "f12" => {
                for r in rows(t) {
                    assert_eq!(r["objectives_equal"], "true", "{r:?}");
                }
            }
            "t13" => {
                for r in rows(t) {
                    assert_eq!(r["instances"], r["all_three_agree"], "disagreement: {r:?}");
                }
            }
            "f14" => {
                let ratios = col(t, "inc/exact");
                assert_eq!(ratios.len(), 5, "one row per checkpoint");
                for ratio in ratios {
                    assert!(
                        (0.4..=1.0 + 1e-9).contains(&ratio),
                        "incremental/exact ratio out of band: {ratio}"
                    );
                }
            }
            "f15" => {
                for r in rows(t) {
                    assert_eq!(r["sizes_equal"], "true", "{r:?}");
                }
            }
            "f16" => {
                assert_eq!(tables.len(), 2);
                let ece = col(&tables[1], "ece")[0];
                assert!(ece < 0.05, "ECE {ece}");
            }
            "f17" => {
                // At 30% rotators, full DS beats majority vote clearly.
                let mv = at(t, "rotator_share", "30%", "majority");
                let full = at(t, "rotator_share", "30%", "ds_full");
                assert!(full > mv + 0.05, "full {full} vs mv {mv}");
            }
            "f18" => {
                let mut prev = -1.0f64;
                for r in rows(t) {
                    let lagr = num(&r["lagrangian"]);
                    assert!(lagr >= num(&r["greedy"]) - 1e-6, "{r:?}");
                    assert!(lagr >= prev - 1e-6, "benefit must grow with budget: {r:?}");
                    prev = lagr;
                }
            }
            "f19" => {
                let rank = col(t, "rank_concordance");
                let (first, last) = (rank[0], rank[rank.len() - 1]);
                assert!(
                    last > first.min(0.95),
                    "rank concordance should improve: {first} -> {last}"
                );
                // The learned platform ends at or above the cold baseline.
                let (learned, cold) = (col(t, "learned_acc"), col(t, "cold_acc"));
                let (learned, cold) = (learned[learned.len() - 1], cold[cold.len() - 1]);
                assert!(learned >= cold - 0.02, "learned {learned} vs cold {cold}");
            }
            "f20" => {
                let rows = rows(t);
                let get = |alg: &str, crowd: &str| -> f64 {
                    let row = rows
                        .iter()
                        .find(|r| r["algorithm"] == alg && r["crowd"] == crowd);
                    num(&row.expect("every algorithm x crowd cell")["completed_mb"])
                };
                let exact = get("ExactMB", "benefit_sensitive");
                let quality = get("QualityOnly", "benefit_sensitive");
                assert!(
                    exact > quality,
                    "benefit-sensitive crowd: ExactMB {exact} must beat QualityOnly {quality}"
                );
                // In the compliant crowd the gap shrinks (or reverses) —
                // quality only "loses" when workers can say no.
                let sensitive_gap = (exact - quality) / quality;
                let (exact_c, quality_c) =
                    (get("ExactMB", "compliant"), get("QualityOnly", "compliant"));
                let compliant_gap = (exact_c - quality_c) / quality_c;
                assert!(
                    sensitive_gap > compliant_gap,
                    "gap should be larger in the sensitive crowd: {sensitive_gap} vs {compliant_gap}"
                );
            }
            "f21" => ratios_in_unit_range(t, "profile"),
            "f22" => {
                let get = |policy: &str, name: &str| at(t, "policy", policy, name);
                let (myopic_gini, rot_gini) = (
                    get("myopic", "cum_benefit_gini"),
                    get("rotate(1.0)", "cum_benefit_gini"),
                );
                assert!(
                    rot_gini < myopic_gini,
                    "rotation should reduce Gini: {rot_gini} vs {myopic_gini}"
                );
                let welfare = |p| get(p, "total_welfare");
                assert!(welfare("rotate(1.0)") <= welfare("myopic") + 1e-6);
                // Rotation widens participation.
                let used = |p| get(p, "workers_ever_used");
                assert!(used("rotate(1.0)") >= used("myopic"));
            }
            other => panic!("experiment {other} has no shape check"),
        }
    }

    #[test]
    fn experiment_ids_are_unique() {
        let ids: FxHashSet<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        assert_eq!(ids.len(), 22, "duplicate experiment id");
    }

    #[test]
    fn every_experiment_runs_once_and_keeps_its_shape() {
        // The harness's end-to-end test: each experiment runs once at quick
        // scale, produces only non-empty tables, and shows the shape
        // EXPERIMENTS.md expects of it.
        let runs = parallel_map(EXPERIMENTS.iter().collect(), |e: &Experiment| {
            (e.id, (e.run)(Scale::Quick, e.title))
        });
        for (id, tables) in runs {
            assert!(!tables.is_empty(), "{id} produced no tables");
            for t in &tables {
                assert!(!t.is_empty(), "{id} produced an empty table");
            }
            check_shape(id, &tables);
        }
    }

    #[test]
    fn instances_are_deterministic() {
        let a = uniform_graph(100, 50, 4.0, 1);
        let b = uniform_graph(100, 50, 4.0, 1);
        assert_eq!(a, b);
    }
}
