//! End-to-end QoS-serving benchmark for the rcr workspace.
//!
//! One run measures one workload for a fixed time and prints, as its last
//! stdout line, `{"correct", "attempted", "failed", "metrics"}`. Untraced
//! runs (`--trace 0`) report the end-to-end metrics; traced runs
//! (`--trace 1`) report the per-layer metrics, the "where the time goes"
//! tables and the tracing overhead. See `README.md` in this directory.

pub mod check;
pub mod metrics;
pub mod serve;
pub mod solvers;
pub mod spans;
pub mod stats;
pub mod workload;

use metrics::{MetricSet, END_TO_END, PER_LAYER};
use spans::Tracer;
use std::time::{Duration, Instant};
use workload::Workload;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Where traced runs write their spans.
    pub out_dir: String,
}

/// Parses `--workload W --seed N --seconds S --trace 0|1 [--out DIR]`.
///
/// # Errors
/// A usage message.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut out_dir = ".bench_out".to_string();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => out_dir = value.clone(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        out_dir,
    })
}

/// What a run prints besides its metrics.
pub struct Outcome {
    /// Metrics of the run (restricted to the registry of its mode).
    pub metrics: MetricSet,
    /// Requests or instances attempted.
    pub attempted: u64,
    /// Attempts that failed.
    pub failed: u64,
    /// Output-check violations; any makes the run incorrect.
    pub violations: Vec<String>,
    /// Human-readable report lines.
    pub report: String,
}

fn median_duration(mut xs: Vec<Duration>) -> Duration {
    xs.sort();
    xs[xs.len() / 2]
}

/// Run metadata printed with every result.
pub fn metadata(args: &Args) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".into());
    format!(
        "meta workload={} seed={} seconds={} trace={} nproc={} service_workers={} pso_workers={} plan_batch_workers={} profile={} RCR_WORKERS={} source={} rustc=\"{}\"",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        workload::SERVICE_WORKERS,
        workload::PSO_WORKERS,
        workload::PLAN_WORKERS,
        if cfg!(debug_assertions) { "debug" } else { "release" },
        env("RCR_WORKERS"),
        env("PERFBENCH_SOURCE"),
        env("PERFBENCH_RUSTC"),
    )
}

/// Runs one workload as `args` says.
pub fn run(args: &Args) -> Outcome {
    let w = args.workload;
    let setup = |seconds: f64| {
        let t = Instant::now();
        let len = serve::trace_len(w, seconds);
        let (items, gen) = workload::generate_trace(w, args.seed, len);
        let rig = serve::spawn_rig(w);
        (items, gen, rig, t.elapsed())
    };
    let mut report = String::new();
    if !args.trace {
        let mut setups = Vec::with_capacity(SETUP_REPS);
        let mut last = None;
        for _ in 0..SETUP_REPS {
            drop(last.take());
            let (items, _, rig, took) = setup(args.seconds);
            setups.push(took);
            last = Some((items, rig));
        }
        let (items, rig) = last.expect("SETUP_REPS >= 1");
        let phase = serve::run_phase(rig, &items, args.seconds, false);
        let a = serve::analyze(w, &items, &phase, &mut Tracer::new(false, phase.t0));
        let mut metrics = a.metrics;
        metrics.set("setup_s", median_duration(setups).as_secs_f64(), SETUP_REPS);
        report.push_str(&format!(
            "digest {} (ids < {})\n",
            a.digest,
            serve::DIGEST_PREFIX
        ));
        return Outcome {
            metrics: metrics.restrict(END_TO_END),
            attempted: a.attempted,
            failed: a.failed,
            violations: a.violations,
            report,
        };
    }
    // Traced: a quarter untraced (the overhead baseline), a quarter traced
    // on a fresh service with the same trace, then the solver pass.
    let quarter = args.seconds / 4.0;
    let (items, _, rig, _) = setup(quarter);
    let base = serve::run_phase(rig, &items, quarter, false);
    let base_a = serve::analyze(w, &items, &base, &mut Tracer::new(false, base.t0));
    let (items, gen, rig, _) = setup(quarter);
    let phase = serve::run_phase(rig, &items, quarter, true);
    let mut tracer = Tracer::new(true, phase.t0);
    let gen_ns = gen.as_nanos() as u64;
    tracer.push("scenarios.trace.generate", 0, gen_ns, None, u64::MAX, false);
    let a = serve::analyze(w, &items, &phase, &mut tracer);
    let set = solvers::instance_set(&items);
    let mut pass = solvers::serving_loop(&set, quarter, &mut tracer);
    solvers::exact_pso(&set, quarter, &mut tracer, &mut pass);

    let mut metrics = a.metrics;
    for def in PER_LAYER {
        if let Some(v) = pass.metrics.get(def.name) {
            metrics.set(def.name, v.value, v.samples);
        }
    }
    let per_request_us = gen.as_secs_f64() * 1e6 / items.len() as f64;
    metrics.set("scenarios.trace.gen_us", per_request_us, items.len());
    let overhead = stats::ratio(a.mean_latency_ms, base_a.mean_latency_ms) - 1.0;
    metrics.set("harness.trace_overhead_frac", overhead, 2);

    report.push_str("where the time goes: share of mean client latency, solved requests\n");
    report.push_str(&a.table);
    report.push_str(&format!(
        "harness.trace_overhead_frac {overhead:.4} (mean latency traced {:.3} ms vs untraced {:.3} ms)\n",
        a.mean_latency_ms, base_a.mean_latency_ms
    ));
    report.push_str("where the time goes: solver pass, direct calls on this trace's problems\n");
    report.push_str(&solvers::time_table(&pass.times));
    report.push_str(&format!(
        "exact proved {} problems infeasible (no heuristic met their rates either)\n",
        pass.infeasible
    ));
    report.push_str(&format!(
        "digest {} (solver pass, first {} problems)\n",
        pass.digest,
        solvers::DIGEST_INSTANCES
    ));
    report.push_str(&self_time_report(&tracer));
    report.push_str(&write_spans(args, &tracer));
    let mut violations = base_a.violations;
    violations.extend(a.violations);
    violations.extend(pass.violations);
    Outcome {
        metrics: metrics.restrict(PER_LAYER),
        attempted: base_a.attempted + a.attempted + pass.attempted,
        failed: base_a.failed + a.failed + pass.failed,
        violations,
        report,
    }
}

fn self_time_report(tracer: &Tracer) -> String {
    let mut out = String::from("self time per span name (ms, summed)\n");
    for (name, ns) in tracer.self_times() {
        out.push_str(&format!("  {name:<28} {:>12.3}\n", ns as f64 * 1e-6));
    }
    out
}

fn write_spans(args: &Args, tracer: &Tracer) -> String {
    let path = std::path::Path::new(&args.out_dir).join(format!(
        "spans-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    match tracer.write(&path) {
        Ok(()) => format!(
            "{} spans written to {}\n",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => format!("spans not written ({}): {e}\n", path.display()),
    }
}
