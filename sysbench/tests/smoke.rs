//! Smoke test: all six workloads at `--smoke` scale through the same code
//! paths as the real benchmark, untraced and traced, in this process.

use mbta_sysbench::run::{run, Args, Outcome};
use mbta_sysbench::spec::{Shape, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    // Under the build's target directory, so nothing leaks outside.
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag)
}

fn value(o: &Outcome, name: &str) -> Option<f64> {
    o.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not reported"))
        .value
}

/// `--seconds 0` still runs one pass of every phase.
fn invoke(name: &str, trace: bool) -> Outcome {
    let w = WORKLOADS.iter().find(|w| w.name == name).unwrap().smoke();
    let args = Args {
        workload: w,
        seed: 7,
        seconds: 0.0,
        trace,
    };
    let o = run(&args, &scratch(&format!("{name}-{}", u8::from(trace)))).expect(name);
    assert!(o.correct, "{name}: {:?}", o.problems);
    assert_eq!(o.failed, 0, "{name}");
    assert!(o.attempted > 0, "{name}");
    o
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    for w in &WORKLOADS {
        let o = invoke(w.name, false);
        assert_eq!(o.metrics.len(), END_TO_END.len());
        for m in &END_TO_END {
            let v = value(&o, m.name).unwrap_or_else(|| panic!("{}: {} is n/a", w.name, m.name));
            assert!(v.is_finite() && v > 0.0, "{}: {} = {v}", w.name, m.name);
        }
        let q = value(&o, "quality_ratio").unwrap();
        assert!(q <= 1.0 + 1e-6, "{}: quality_ratio {q}", w.name);
        // The last line the driver reads is one JSON object.
        let line = o.json_line();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        assert!(!line.contains('\n') && line.ends_with("}}"), "{line}");
    }
}

#[test]
fn traced_runs_fill_the_per_layer_table() {
    for w in &WORKLOADS {
        let o = invoke(w.name, true);
        assert_eq!(o.metrics.len(), PER_LAYER.len());
        for m in &o.metrics {
            // Present with a finite value, or explicitly n/a.
            assert!(m.value.is_none_or(f64::is_finite), "{}: {}", w.name, m.name);
        }
        assert_eq!(value(&o, "failed_share"), Some(0.0), "{}", w.name);
        let cover = value(&o, "service.stage_cover").expect("stage_cover");
        assert!(
            (cover - 1.0).abs() <= 0.05,
            "{}: stage_cover {cover}",
            w.name
        );
        // Every layer is measured on the workload chosen to load it.
        let expect: &[&str] = match w.name {
            "batch_exact" | "batch_budget" => &["matching.mcmf_ms", "core.solve_robust_ms"],
            "online_warm" => &[
                "core.warm_solve_ms",
                "sustainable_eps",
                "telemetry.overhead_share",
            ],
            "sharded_rescue" => &["partition.mincut_plan_ms", "partition.rescue_s"],
            "durable_online" => &["store.commit_us_p50", "store.run_share", "recover_s"],
            _ => &[
                "net.loopback_rtt_us_p50",
                "cluster.vs_inprocess_ratio",
                "cluster.fin_drain_s",
            ],
        };
        for name in expect {
            assert!(value(&o, name).is_some(), "{}: {name} is n/a", w.name);
        }
        if w.shape == Shape::Cluster {
            assert_eq!(
                value(&o, "cluster.admitted"),
                value(&o, "cluster.forwarded")
            );
        }
    }
}
