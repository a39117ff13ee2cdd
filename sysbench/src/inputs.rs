//! Seeded input generation: universe, edge weights, event trace.
//!
//! Everything the program under test sees is generated here from the run
//! seed; the same seed yields byte-identical inputs.

use crate::spec::{Workload, HORIZON};
use mbta_graph::BipartiteGraph;
use mbta_market::benefit::edge_weights;
use mbta_market::{BenefitParams, Combiner};
use mbta_service::{Arrival, BenefitDrift};
use mbta_util::SplitMix64;
use mbta_workload::{TimedEvent, TraceSpec, WorkloadSpec};
use std::time::Instant;

/// Wall time of each generation stage, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct GenTimes {
    /// `WorkloadSpec::generate` + `Market::realize`.
    pub universe_s: f64,
    /// `market::benefit::edge_weights`.
    pub weights_s: f64,
    /// `TraceSpec::generate_repeated` + drift weave.
    pub trace_s: f64,
}

/// One tenant's generated inputs.
pub struct Inputs {
    /// The spec the universe was generated from (cluster processes
    /// regenerate the identical universe from it).
    pub spec: WorkloadSpec,
    /// The realized worker-task universe.
    pub graph: BipartiteGraph,
    /// Balanced mutual-benefit weights over `graph`.
    pub weights: Vec<f64>,
    /// The lifecycle trace before drift is woven in.
    pub trace: Vec<TimedEvent>,
    /// The event stream offered to the service.
    pub events: Vec<Arrival>,
    /// Stage timings.
    pub times: GenTimes,
}

/// Derives the seed of one input stream from the run seed.
fn derive(seed: u64, label: &str, tenant: usize) -> u64 {
    SplitMix64::new(seed)
        .derive(label)
        .derive(&tenant.to_string())
        .next_u64()
}

/// Generates tenant `tenant` of workload `w` under run seed `seed`.
pub fn generate(w: &Workload, seed: u64, tenant: usize) -> Inputs {
    let spec = WorkloadSpec {
        profile: w.profile,
        n_workers: w.workers,
        n_tasks: w.tasks,
        avg_worker_degree: w.degree,
        skill_dims: 8,
        seed: derive(seed, "universe", tenant),
    };
    let t0 = Instant::now();
    let graph = spec
        .generate()
        .realize(&BenefitParams::default())
        .expect("generated markets realize");
    let t1 = Instant::now();
    let weights = edge_weights(&graph, Combiner::balanced());
    let t2 = Instant::now();
    let trace = TraceSpec {
        horizon: HORIZON,
        mean_session: HORIZON * 0.2,
        mean_task_lifetime: HORIZON * 0.3,
        seed: derive(seed, "trace", tenant),
    }
    .generate_repeated(w.workers, w.tasks, w.repeats);
    let lifecycle = trace.iter().copied().map(Arrival::from_trace);
    let events = if w.drift > 0.0 {
        BenefitDrift::new(&graph, w.drift, derive(seed, "drift", tenant)).weave(lifecycle)
    } else {
        lifecycle.collect()
    };
    let t3 = Instant::now();
    Inputs {
        spec,
        graph,
        weights,
        trace,
        events,
        times: GenTimes {
            universe_s: (t1 - t0).as_secs_f64(),
            weights_s: (t2 - t1).as_secs_f64(),
            trace_s: (t3 - t2).as_secs_f64(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let w = WORKLOADS[0].smoke();
        let a = generate(&w, 7, 0);
        let b = generate(&w, 7, 0);
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.events, b.events);
        assert!(a.events.len() > a.trace.len(), "drift is woven in");
        let c = generate(&w, 8, 0);
        assert_ne!(a.events, c.events);
        let d = generate(&w, 7, 1);
        assert_ne!(a.events, d.events);
    }
}
