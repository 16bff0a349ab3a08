//! The solver pass of every traced run: direct single-threaded calls into
//! `rcr-qos` on the workload's own problems, no service in between.
//!
//! The service reports one `solve_time` per request; this pass times the
//! layers under it. A serving loop runs Greedy and Robust
//! (`plan_batch` + `solve_robust`, as the service dispatches them) on the
//! 3×6 problems, and on one 8×32 problem after every [`LARGE_EVERY`] small
//! ones. Then a budgeted pass runs Exact branch-and-bound and PSO, which
//! take from 33 µs to seconds per 3×6 problem.

use crate::check::{self, AnswerContext};
use crate::metrics::MetricSet;
use crate::spans::Tracer;
use crate::stats::{mean, quantile, ratio};
use crate::workload::{TraceItem, LARGE, PLAN_WORKERS, PSO_WORKERS};
use rcr_minlp::BnbSettings;
use rcr_pso::swarm::PsoSettings;
use rcr_qos::rra::{self, RraProblem, RraSolution};
use rcr_qos::{robust, QosError};
use rcr_runtime::seed_stream;
use rcr_serve::{ScenarioSpec, ServiceConfig, SolverKind};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Small problems taken from the head of the trace.
pub const SMALL_INSTANCES: usize = 2048;
/// Large problems: the first trace specs re-expanded at 8×32.
pub const LARGE_INSTANCES: usize = 32;
/// One large problem is solved after every this many small ones.
pub const LARGE_EVERY: usize = 64;
/// Small problems folded into the digest; a pass always completes them.
pub const DIGEST_INSTANCES: usize = 32;

/// The problems of one pass.
pub struct InstanceSet {
    /// 3 users × 6 RBs, as the service solves them.
    pub small: Vec<RraProblem>,
    /// 8 users × 32 RBs.
    pub large: Vec<RraProblem>,
}

/// Expands the head of a workload's trace into the pass's problems.
pub fn instance_set(items: &[TraceItem]) -> InstanceSet {
    let expand = |item: &TraceItem, spec: ScenarioSpec| {
        spec.to_problem(item.request.class)
            .expect("benchmark scenario specs expand")
    };
    let small = items
        .iter()
        .take(SMALL_INSTANCES)
        .map(|t| expand(t, t.spec()))
        .collect();
    let large = items
        .iter()
        .take(LARGE_INSTANCES)
        .map(|t| {
            let spec = ScenarioSpec {
                users: LARGE.0,
                resource_blocks: LARGE.1,
                seed: seed_stream(t.spec().seed, 1),
            };
            expand(t, spec)
        })
        .collect();
    InstanceSet { small, large }
}

/// One solver call's result.
pub struct Call {
    /// The solver.
    pub solver: SolverKind,
    /// Plan time (Robust only).
    pub plan: Duration,
    /// Solve time.
    pub solve: Duration,
    /// The answer.
    pub result: Result<RraSolution, QosError>,
}

/// Calls one solver the way the service dispatches it, timing plan and
/// solve apart.
pub fn call(problem: &RraProblem, solver: SolverKind, instance: u64) -> Call {
    let start = Instant::now();
    let (plan, result) = match solver {
        SolverKind::Greedy => (Duration::ZERO, rra::solve_greedy(problem)),
        SolverKind::Exact => (
            Duration::ZERO,
            rra::solve_exact(problem, &BnbSettings::default()),
        ),
        SolverKind::Pso => {
            let base = ServiceConfig::default().pso;
            let settings = PsoSettings {
                seed: seed_stream(base.seed, instance),
                workers: PSO_WORKERS,
                ..base
            };
            (Duration::ZERO, rra::solve_pso(problem, &settings))
        }
        SolverKind::Robust => {
            let plan = robust::plan_batch(&[problem], PLAN_WORKERS).pop();
            let planned = start.elapsed();
            let result = match plan {
                Some(Ok(plan)) => robust::solve_robust(problem, &plan),
                Some(Err(e)) => Err(e),
                None => Err(QosError::Solver("empty plan batch".into())),
            };
            (planned, result)
        }
    };
    Call {
        solver,
        plan,
        solve: start.elapsed() - plan,
        result,
    }
}

/// Span name of a solver call.
fn span_name(solver: SolverKind) -> &'static str {
    match solver {
        SolverKind::Greedy => "qos.rra.greedy",
        SolverKind::Exact => "qos.rra.exact",
        SolverKind::Pso => "qos.rra.pso",
        SolverKind::Robust => "qos.robust.solve",
    }
}

/// Records a `harness.instance` span with one child per call (and the
/// robust plan), laid end to end from `started`.
fn trace_calls(tracer: &mut Tracer, started: Instant, id: u64, calls: &[Call]) {
    if !tracer.enabled() {
        return;
    }
    let root = tracer.record("harness.instance", started, Instant::now(), None, id);
    let mut at = tracer.ns(started);
    for c in calls {
        let p = c.plan.as_nanos() as u64;
        if c.solver == SolverKind::Robust {
            tracer.push("qos.robust.plan", at, at + p, Some(root), id, false);
        }
        let s = c.solve.as_nanos() as u64;
        tracer.push(
            span_name(c.solver),
            at + p,
            at + p + s,
            Some(root),
            id,
            false,
        );
        at += p + s;
    }
}

/// Checks an answer against its problem; `None` when it passes.
fn check(problem: &RraProblem, sol: &RraSolution) -> Option<String> {
    let ctx = AnswerContext {
        bound_bps: rra::relaxation_bound_bps(problem),
        in_process: true,
        timing: None,
    };
    check::check_answer(problem, sol, &ctx).err()
}

/// What a solver pass yields.
pub struct Pass {
    /// Per-layer `qos.*` metrics.
    pub metrics: MetricSet,
    /// Output-check violations.
    pub violations: Vec<String>,
    /// Problems attempted.
    pub attempted: u64,
    /// Problems with a failed call.
    pub failed: u64,
    /// Digest over the first [`DIGEST_INSTANCES`] small problems.
    pub digest: String,
    /// Per-call times (ms) keyed by call label.
    pub times: BTreeMap<&'static str, Vec<f64>>,
    /// Problems Exact proved to have no feasible assignment.
    pub infeasible: usize,
}

/// Greedy and Robust on small problems (and on a large one after every
/// [`LARGE_EVERY`]) for `seconds` and at least [`DIGEST_INSTANCES`] small
/// problems; every answer is checked, and `RraProblem::evaluate` on its
/// owners is timed and must reproduce its rate bit for bit.
pub fn serving_loop(set: &InstanceSet, seconds: f64, tracer: &mut Tracer) -> Pass {
    const SOLVERS: [SolverKind; 2] = [SolverKind::Greedy, SolverKind::Robust];
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut p = Pass {
        metrics: MetricSet::default(),
        violations: Vec::new(),
        attempted: 0,
        failed: 0,
        digest: String::new(),
        times: BTreeMap::new(),
        infeasible: 0,
    };
    let mut digest_answers = Vec::new();
    let mut eval: [Vec<f64>; 2] = Default::default();
    let (mut small_n, mut large_n) = (0usize, 0usize);
    while Instant::now() < end || small_n < DIGEST_INSTANCES {
        let large = small_n > 0 && large_n < small_n / LARGE_EVERY;
        let (problem, index) = if large {
            large_n += 1;
            let i = (large_n - 1) % set.large.len();
            (&set.large[i], i)
        } else {
            small_n += 1;
            let i = (small_n - 1) % set.small.len();
            (&set.small[i], i)
        };
        let id = p.attempted;
        let started = Instant::now();
        let calls: Vec<Call> = SOLVERS.iter().map(|&s| call(problem, s, id)).collect();
        trace_calls(tracer, started, id, &calls);
        p.attempted += 1;

        let size = if large { "large" } else { "small" };
        let mut ok = true;
        for c in &calls {
            let ms = |t: Duration| t.as_secs_f64() * 1e3;
            let (solve_key, plan_key) = match (c.solver, large) {
                (SolverKind::Greedy, false) => ("greedy", None),
                (SolverKind::Greedy, true) => ("greedy_large", None),
                (_, false) => ("robust_solve", Some("robust_plan")),
                (_, true) => ("robust_solve_large", Some("robust_plan_large")),
            };
            p.times.entry(solve_key).or_default().push(ms(c.solve));
            if let Some(k) = plan_key {
                p.times.entry(k).or_default().push(ms(c.plan));
            }
            match &c.result {
                Ok(sol) => {
                    if let Some(e) = check(problem, sol) {
                        p.violations
                            .push(format!("{size} problem {index} {}: {e}", c.solver.name()));
                    }
                    let t = Instant::now();
                    let again = problem.evaluate(&sol.owners);
                    eval[usize::from(large)].push(t.elapsed().as_secs_f64() * 1e3);
                    if again.map(|a| a.total_rate_bps.to_bits()) != Ok(sol.total_rate_bps.to_bits())
                    {
                        p.violations.push(format!(
                            "{size} problem {index} {}: evaluate disagrees with the answer",
                            c.solver.name()
                        ));
                    }
                }
                Err(e) => {
                    ok = false;
                    p.violations
                        .push(format!("{size} problem {index} {}: {e}", c.solver.name()));
                }
            }
        }
        p.failed += u64::from(!ok);
        if !large && small_n <= DIGEST_INSTANCES {
            for c in calls {
                digest_answers.push(((small_n - 1) as u64, c.result.ok()));
            }
        }
    }
    p.digest = check::digest(digest_answers.iter().map(|(id, s)| (*id, s.as_ref())));

    let empty = Vec::new();
    let t = |k: &str| p.times.get(k).unwrap_or(&empty);
    let m = &mut p.metrics;
    for (name, key) in [
        ("qos.rra.greedy_ms", "greedy"),
        ("qos.rra.greedy_ms.large", "greedy_large"),
    ] {
        m.set(&format!("{name}.p50"), quantile(t(key), 0.5), t(key).len());
        m.set(&format!("{name}.p99"), quantile(t(key), 0.99), t(key).len());
    }
    for (name, key) in [
        ("qos.robust.plan_ms.small", "robust_plan"),
        ("qos.robust.plan_ms.large", "robust_plan_large"),
        ("qos.robust.solve_ms.small", "robust_solve"),
        ("qos.robust.solve_ms.large", "robust_solve_large"),
    ] {
        m.set(name, mean(t(key)), t(key).len());
    }
    m.set("qos.power.evaluate_ms.small", mean(&eval[0]), eval[0].len());
    m.set("qos.power.evaluate_ms.large", mean(&eval[1]), eval[1].len());
    let [small_eval, large_eval] = eval;
    p.times.insert("evaluate", small_eval);
    p.times.insert("evaluate_large", large_eval);
    p
}

/// Exact and PSO on small problems until `seconds` have passed (at least
/// two problems). An Exact "no feasible assignment" answer is accepted
/// only when neither Greedy nor Robust met every minimum rate on the same
/// problem.
pub fn exact_pso(set: &InstanceSet, seconds: f64, tracer: &mut Tracer, p: &mut Pass) {
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut i = 0usize;
    while Instant::now() < end || i < 2 {
        let problem = &set.small[i % set.small.len()];
        let id = p.attempted;
        let started = Instant::now();
        let calls: Vec<Call> = [SolverKind::Exact, SolverKind::Pso]
            .iter()
            .map(|&s| call(problem, s, id))
            .collect();
        trace_calls(tracer, started, id, &calls);
        p.attempted += 1;
        let heuristic_met_rates = [SolverKind::Greedy, SolverKind::Robust]
            .iter()
            .any(|&s| matches!(call(problem, s, id).result, Ok(sol) if sol.qos_satisfied));
        for c in &calls {
            let key = if c.solver == SolverKind::Exact {
                "exact"
            } else {
                "pso"
            };
            p.times
                .entry(key)
                .or_default()
                .push(c.solve.as_secs_f64() * 1e3);
            match (&c.result, c.solver) {
                (Ok(sol), _) => {
                    if let Some(e) = check(problem, sol) {
                        p.violations.push(format!("small problem {i} {key}: {e}"));
                    }
                }
                (Err(_), SolverKind::Exact) if !heuristic_met_rates => p.infeasible += 1,
                (Err(e), _) => {
                    p.failed += 1;
                    p.violations.push(format!("small problem {i} {key}: {e}"));
                }
            }
        }
        i += 1;
    }
    for (name, key) in [("qos.rra.exact_ms", "exact"), ("qos.rra.pso_ms", "pso")] {
        let t = &p.times[key];
        p.metrics
            .set(&format!("{name}.p50"), quantile(t, 0.5), t.len());
        p.metrics
            .set(&format!("{name}.p99"), quantile(t, 0.99), t.len());
    }
}

/// "Where the time goes" rows of the solver pass: each call's mean and its
/// share of the pass; `evaluate` is timed apart, on the answers' owners.
pub fn time_table(times: &BTreeMap<&'static str, Vec<f64>>) -> String {
    let mut out = String::from("  call                 n       mean_ms   share\n");
    let is_eval = |k: &str| k.starts_with("evaluate");
    let total: f64 = times
        .iter()
        .filter(|(k, _)| !is_eval(k))
        .flat_map(|(_, v)| v)
        .sum();
    for (key, v) in times {
        let share = if is_eval(key) {
            "  (timed apart)".to_string()
        } else {
            format!("{:>7.2}%", 100.0 * ratio(v.iter().sum(), total))
        };
        out.push_str(&format!(
            "  {key:<20} {:<7} {:>9.3} {share}\n",
            v.len(),
            mean(v)
        ));
    }
    out
}
