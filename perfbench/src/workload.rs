//! Workload definitions: trace shapes, class policy, pinned worker counts.

use rcr_qos::QosClass;
use rcr_scenarios::{ArrivalProcess, ClassMix, FadingModel, ScenarioManifest, TraceGenerator};
use rcr_serve::{Payload, ScenarioSpec, SolveRequest, SolverKind};
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop over one pipelined loopback TCP connection, reuse off,
    /// every problem distinct.
    MixTcp,
    /// Closed loop in-process with reuse on, about 60% exact-match hits.
    WarmReuse,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::MixTcp, Workload::WarmReuse];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MixTcp => "mix_tcp",
            Workload::WarmReuse => "warm_reuse",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Pinned service worker count (never `0`/auto).
pub const SERVICE_WORKERS: usize = 2;
/// Worker count of the solver pass's `robust::plan_batch` calls.
pub const PLAN_WORKERS: usize = 1;
/// Worker count of every PSO swarm (the service pins the same).
pub const PSO_WORKERS: usize = 1;

/// Problem shape of every request.
pub const SMALL: (usize, usize) = (3, 6);
/// Problem shape of the solver pass's large problems.
pub const LARGE: (usize, usize) = (8, 32);

/// URLLC / eMBB / mMTC arrival mix.
pub const CLASS_MIX: ClassMix = ClassMix {
    urllc: 0.1,
    embb: 0.3,
    mmtc: 0.6,
};

/// Per-class deadlines (µs), indexed by `QosClass::priority_rank`.
pub const DEADLINES_US: [u64; 3] = [20_000, 200_000, 1_000_000];

/// Virtual arrival rate of every trace. Closed loops ignore arrival
/// times, but the virtual clock decides when a user's channel redraws.
pub const VIRTUAL_RATE: f64 = 250.0;

/// The solver the benchmark asks for on behalf of each class.
pub fn solver_for(class: QosClass) -> SolverKind {
    match class {
        QosClass::Embb => SolverKind::Robust,
        QosClass::Urllc | QosClass::Mmtc => SolverKind::Greedy,
    }
}

/// Lower-case class label used in metric names.
pub fn class_label(class: QosClass) -> &'static str {
    match class {
        QosClass::Urllc => "urllc",
        QosClass::Embb => "embb",
        QosClass::Mmtc => "mmtc",
    }
}

/// The manifest of a workload's trace at `seed`.
pub fn manifest(w: Workload, seed: u64, requests: u64) -> ScenarioManifest {
    let (population, cells, coherence_us) = match w {
        // A million users redrawn every virtual ms: no two requests share
        // a problem.
        Workload::MixTcp => (1_000_000, 64, 1_000),
        // 1000 users redrawn every 10 virtual s: each user asks 2.5 times
        // per channel on average, so about 60% of requests repeat a
        // problem exactly.
        Workload::WarmReuse => (1_000, 1, 10_000_000),
    };
    ScenarioManifest {
        name: w.name().to_string(),
        seed,
        requests: requests.max(1),
        cells,
        population,
        users_per_problem: SMALL.0,
        resource_blocks: SMALL.1,
        class_mix: CLASS_MIX,
        fading: FadingModel::BlockRayleigh { coherence_us },
        arrivals: ArrivalProcess::Poisson {
            rate_per_sec: VIRTUAL_RATE,
        },
        deadlines_us: DEADLINES_US,
        solver: SolverKind::Greedy,
    }
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct TraceItem {
    /// The request, with the per-class solver already set.
    pub request: SolveRequest,
}

impl TraceItem {
    /// The scenario spec the request carries.
    pub fn spec(&self) -> ScenarioSpec {
        match &self.request.payload {
            Payload::Scenario(spec) => *spec,
            Payload::Problem(_) => unreachable!("traces carry scenario payloads"),
        }
    }
}

/// Generates a trace, rewriting each request's solver per class. Returns
/// the trace and the time generation took.
pub fn generate_trace(w: Workload, seed: u64, requests: u64) -> (Vec<TraceItem>, Duration) {
    let start = Instant::now();
    let gen = TraceGenerator::new(&manifest(w, seed, requests))
        .expect("benchmark manifests are valid by construction");
    let items = gen
        .map(|t| {
            let mut request = t.request;
            request.solver = solver_for(request.class);
            TraceItem { request }
        })
        .collect();
    (items, start.elapsed())
}
