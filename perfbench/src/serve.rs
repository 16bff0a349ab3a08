//! The three serve workloads: drive `rcr-serve` through its public
//! client and TCP frontend, then check and summarize every answer.

use crate::check::{self, AnswerContext};
use crate::metrics::MetricSet;
use crate::solvers;
use crate::spans::Tracer;
use crate::stats::{self, mean, quantile, ratio};
use crate::workload::{class_label, solver_for, TraceItem, Workload, SERVICE_WORKERS};
use rcr_qos::rra::{self, RraProblem, RraSolution};
use rcr_qos::QosClass;
use rcr_serve::wire::{self, WireCommand};
use rcr_serve::{
    ExpiryPhase, MetricsSnapshot, Outcome, Payload, ReuseConfig, ScenarioSpec, Service,
    ServiceConfig, SolveResponse, TcpFrontend,
};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Requests in flight on the `mix_tcp` connection.
pub const TCP_WINDOW: usize = 16;
/// Requests in flight from the `warm_reuse` client. Twice the TCP window:
/// enough queueing that URLLC latency is mostly the wait behind the
/// in-flight batch, not the step-wise Greedy solve time alone.
pub const IN_PROCESS_WINDOW: usize = 32;
/// Answers folded into the determinism digest (ids `0..DIGEST_PREFIX`).
pub const DIGEST_PREFIX: u64 = 500;
/// Reuse cache capacity for `warm_reuse`: four times its population, so
/// the live channels of every user fit.
pub const REUSE_CAPACITY: usize = 4096;

/// Trace length for a phase of `seconds`: a generous multiple of the
/// closed loop's throughput (a run that exhausts it stops early).
pub fn trace_len(w: Workload, seconds: f64) -> u64 {
    let per_sec = match w {
        Workload::MixTcp => 1_500.0,
        Workload::WarmReuse => 4_000.0,
    };
    (per_sec * seconds).ceil() as u64 + 1
}

/// The service configuration of a serve workload.
pub fn service_config(w: Workload) -> ServiceConfig {
    ServiceConfig {
        workers: SERVICE_WORKERS,
        reuse: ReuseConfig {
            enabled: w == Workload::WarmReuse,
            capacity: REUSE_CAPACITY,
        },
        ..ServiceConfig::default()
    }
}

/// A running service, plus its TCP frontend and client connection for
/// `mix_tcp`.
pub struct Rig {
    service: Service,
    tcp: Option<(TcpFrontend, TcpStream)>,
}

/// Spawns the service (and, for `mix_tcp`, binds the frontend and
/// connects to it).
pub fn spawn_rig(w: Workload) -> Rig {
    let service = Service::spawn(service_config(w)).expect("benchmark service config is valid");
    let tcp = (w == Workload::MixTcp).then(|| {
        let frontend =
            TcpFrontend::bind("127.0.0.1:0", service.client()).expect("bind loopback frontend");
        let stream = TcpStream::connect(frontend.local_addr()).expect("connect to frontend");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        (frontend, stream)
    });
    Rig { service, tcp }
}

/// One request's life as the client saw it.
#[derive(Debug, Clone)]
pub struct Record {
    /// Trace index (= request id).
    pub id: u64,
    /// When the request was sent.
    pub start: Instant,
    /// When the submit call (or the wire send) returned; traced runs only.
    pub submit_end: Option<Instant>,
    /// When the client received the response.
    pub at: Instant,
    /// The response.
    pub response: SolveResponse,
    /// Request plus response line bytes (TCP only).
    pub wire_bytes: usize,
    /// `wire::parse_response` time (TCP only).
    pub parse_ns: u64,
}

/// Everything one timed phase produced.
pub struct Phase {
    /// One record per request sent, in id order.
    pub records: Vec<Record>,
    /// Lines sent (TCP only), by id.
    pub sent_lines: Vec<String>,
    /// `wire::encode_request` times (TCP, traced only), ns.
    pub encode_ns: Vec<f64>,
    /// Start of the timed phase.
    pub t0: Instant,
    /// Last response received.
    pub t_end: Instant,
    /// Final service metrics, after a graceful shutdown.
    pub snapshot: MetricsSnapshot,
    /// Transport or protocol errors.
    pub errors: Vec<String>,
}

/// Runs one timed phase of `seconds` on a fresh rig.
pub fn run_phase(rig: Rig, items: &[TraceItem], seconds: f64, traced: bool) -> Phase {
    let Rig { service, tcp } = rig;
    let mut phase = match tcp {
        Some((frontend, stream)) => {
            let phase = closed_tcp(stream, items, seconds, traced);
            drop(frontend);
            phase
        }
        None => closed_in_process(&service, items, seconds, traced),
    };
    phase.snapshot = service.shutdown();
    phase.records.sort_by_key(|r| r.id);
    phase
}

fn empty_phase(t0: Instant) -> Phase {
    Phase {
        records: Vec::new(),
        sent_lines: Vec::new(),
        encode_ns: Vec::new(),
        t0,
        t_end: t0,
        snapshot: MetricsSnapshot::default(),
        errors: Vec::new(),
    }
}

/// Closed loop in-process: at most [`IN_PROCESS_WINDOW`] requests in flight,
/// responses multiplexed onto one `submit_with` channel.
fn closed_in_process(service: &Service, items: &[TraceItem], seconds: f64, traced: bool) -> Phase {
    let client = service.client();
    let (tx, rx) = mpsc::channel::<SolveResponse>();
    let mut pending: HashMap<u64, (Instant, Option<Instant>)> = HashMap::new();
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(seconds);
    let mut phase = empty_phase(t0);
    let mut next = items.iter();
    let mut exhausted = false;
    loop {
        while pending.len() < IN_PROCESS_WINDOW && Instant::now() < end {
            let Some(item) = next.next() else {
                exhausted = true;
                break;
            };
            let start = Instant::now();
            client.submit_with(item.request.clone(), tx.clone());
            let submit_end = traced.then(Instant::now);
            pending.insert(item.request.id, (start, submit_end));
        }
        if pending.is_empty() {
            break;
        }
        let response = rx.recv().expect("the service answers every request");
        let at = Instant::now();
        let Some((start, submit_end)) = pending.remove(&response.id) else {
            phase
                .errors
                .push(format!("unexpected response id {}", response.id));
            continue;
        };
        phase.records.push(Record {
            id: response.id,
            start,
            submit_end,
            at,
            response,
            wire_bytes: 0,
            parse_ns: 0,
        });
    }
    if exhausted {
        phase
            .errors
            .push("the trace ran out before the send window closed".into());
    }
    phase.t_end = phase.records.iter().map(|r| r.at).max().unwrap_or(t0);
    phase
}

/// Closed loop over one pipelined TCP connection: this thread encodes and
/// writes with at most [`TCP_WINDOW`] requests in flight; a reader thread
/// timestamps and parses response lines.
fn closed_tcp(stream: TcpStream, items: &[TraceItem], seconds: f64, traced: bool) -> Phase {
    type Line = (Result<SolveResponse, String>, Instant, usize, u64);
    let read_half = stream.try_clone().expect("clone TCP stream");
    let (tx, rx) = mpsc::channel::<Line>();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(read_half).lines() {
            let Ok(line) = line else { break };
            let at = Instant::now();
            let parsed = wire::parse_response(&line);
            let parse_ns = at.elapsed().as_nanos() as u64;
            if tx.send((parsed, at, line.len() + 1, parse_ns)).is_err() {
                break;
            }
        }
    });
    let mut stream = stream;
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(seconds);
    let mut phase = empty_phase(t0);
    let mut pending: HashMap<u64, (Instant, Option<Instant>, usize)> = HashMap::new();
    let mut next = items.iter();
    let mut exhausted = false;
    'run: loop {
        while pending.len() < TCP_WINDOW && Instant::now() < end {
            let Some(item) = next.next() else {
                exhausted = true;
                break;
            };
            let start = Instant::now();
            let mut line = match wire::encode_request(&item.request) {
                Ok(line) => line,
                Err(e) => {
                    phase
                        .errors
                        .push(format!("encode request {}: {e}", item.request.id));
                    break 'run;
                }
            };
            if traced {
                phase.encode_ns.push(start.elapsed().as_nanos() as f64);
            }
            phase.sent_lines.push(line.clone());
            line.push('\n');
            if let Err(e) = stream.write_all(line.as_bytes()) {
                phase.errors.push(format!("write: {e}"));
                break 'run;
            }
            pending.insert(
                item.request.id,
                (start, traced.then(Instant::now), line.len()),
            );
        }
        if pending.is_empty() {
            break;
        }
        let Ok((parsed, at, bytes, parse_ns)) = rx.recv() else {
            phase
                .errors
                .push("connection closed with requests in flight".into());
            break;
        };
        let response = match parsed {
            Ok(r) => r,
            Err(e) => {
                phase.errors.push(format!("unparseable response: {e}"));
                continue;
            }
        };
        let Some((start, submit_end, sent_bytes)) = pending.remove(&response.id) else {
            phase
                .errors
                .push(format!("unexpected response id {}", response.id));
            continue;
        };
        phase.records.push(Record {
            id: response.id,
            start,
            submit_end,
            at,
            response,
            wire_bytes: sent_bytes + bytes,
            parse_ns,
        });
    }
    let _ = stream.shutdown(Shutdown::Write);
    reader.join().expect("reader thread");
    if exhausted {
        phase
            .errors
            .push("the trace ran out before the send window closed".into());
    }
    phase.t_end = phase.records.iter().map(|r| r.at).max().unwrap_or(t0);
    phase
}

/// Per-class tallies kept by the harness.
#[derive(Debug, Default, Clone, Copy)]
struct Books {
    offered: u64,
    solved: u64,
    rejected: u64,
    expired: u64,
    failed: u64,
}

/// What the analysis of one phase yields.
pub struct Analysis {
    /// End-to-end and per-layer metrics measurable from the records.
    pub metrics: MetricSet,
    /// Output-check violations.
    pub violations: Vec<String>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests answered `Failed`, plus transport errors.
    pub failed: u64,
    /// Determinism digest over direct solves of ids `0..DIGEST_PREFIX`.
    pub digest: String,
    /// Mean client latency over solved requests, ms.
    pub mean_latency_ms: f64,
    /// "Where the time goes" rows (traced only).
    pub table: String,
}

/// The problem the service actually solved for a request: for TCP, what
/// `wire::parse_request` makes of the very line sent.
fn solved_spec(item: &TraceItem, sent_line: Option<&String>) -> (ScenarioSpec, bool) {
    let sent = item.spec();
    match sent_line.map(|l| wire::parse_request(l)) {
        Some(Ok(WireCommand::Solve(req))) => match req.payload {
            Payload::Scenario(spec) => (spec, spec.seed != sent.seed),
            Payload::Problem(_) => (sent, false),
        },
        _ => (sent, false),
    }
}

/// Checks and summarizes one phase.
pub fn analyze(w: Workload, items: &[TraceItem], phase: &Phase, tracer: &mut Tracer) -> Analysis {
    let traced = tracer.enabled();
    let in_process = w != Workload::MixTcp;
    let mut violations: Vec<String> = phase.errors.clone();
    let mut m = MetricSet::default();
    let mut books = [Books::default(); 3];
    let rank = |c: QosClass| c.priority_rank();

    let attempted = phase.records.len() as u64 + phase.errors.len() as u64;
    for item in items.iter().take(phase.records.len()) {
        books[rank(item.request.class)].offered += 1;
    }
    for (i, r) in phase.records.iter().enumerate() {
        if r.id != i as u64 {
            violations.push(format!("response ids are not 0..n: found {} at {i}", r.id));
            break;
        }
    }

    let mut problems: HashMap<(usize, u64), (RraProblem, f64)> = HashMap::new();
    let mut lat: [Vec<f64>; 3] = Default::default();
    let mut queue_ms: [Vec<f64>; 3] = Default::default();
    let mut residual_ms: [Vec<f64>; 3] = Default::default();
    let mut solve_ms: [Vec<f64>; 2] = Default::default();
    let mut submit_us = Vec::new();
    let mut batch: [Vec<f64>; 3] = Default::default();
    let (mut se, mut sat, mut gap) = (Vec::new(), 0usize, Vec::new());
    let mut expired_phase = [0u64; 3];
    let mut fallback = 0usize;
    let mut residual_negative = 0usize;
    let mut shares: [[f64; 5]; 3] = [[0.0; 5]; 3];
    let mut answers: Vec<(u64, QosClass, ScenarioSpec, Option<RraSolution>)> = Vec::new();

    for r in &phase.records {
        let Some(item) = items.get(r.id as usize) else {
            violations.push(format!("response id {} outside the trace", r.id));
            continue;
        };
        let class = item.request.class;
        let c = rank(class);
        if r.response.class != class {
            violations.push(format!("request {}: class changed on the way", r.id));
        }
        let (spec, fell_back) = solved_spec(item, phase.sent_lines.get(r.id as usize));
        fallback += usize::from(fell_back);
        let b = &mut books[c];
        let latency_ms = r.at.saturating_duration_since(r.start).as_secs_f64() * 1e3;
        let q_ms = r.response.queue_time.as_secs_f64() * 1e3;
        let s_ms = r.response.solve_time.as_secs_f64() * 1e3;
        let mut solution = None;
        match &r.response.outcome {
            Outcome::Solved(s) => {
                b.solved += 1;
                lat[c].push(latency_ms);
                queue_ms[c].push(q_ms);
                batch[c].push(s.batch_size as f64);
                let slot = if class == QosClass::Embb { 1 } else { 0 };
                solve_ms[slot].push(s_ms);
                let residual = latency_ms - q_ms - s_ms;
                if residual < 0.0 {
                    residual_negative += 1;
                }
                let submit_ms = r.submit_end.map_or(0.0, |e| {
                    e.saturating_duration_since(r.start).as_secs_f64() * 1e3
                });
                residual_ms[c].push(residual);
                submit_us.push(submit_ms * 1e3);
                for (acc, v) in shares[c].iter_mut().zip([
                    latency_ms,
                    submit_ms,
                    q_ms,
                    s_ms,
                    residual - submit_ms,
                ]) {
                    *acc += v;
                }
                if traced {
                    let root = tracer.record("harness.request", r.start, r.at, None, r.id);
                    let s0 = tracer.ns(r.submit_end.unwrap_or(r.start));
                    let layer = if in_process {
                        "serve.service.submit"
                    } else {
                        "serve.wire.send"
                    };
                    tracer.record(
                        layer,
                        r.start,
                        r.submit_end.unwrap_or(r.start),
                        Some(root),
                        r.id,
                    );
                    let q_ns = r.response.queue_time.as_nanos() as u64;
                    let s_ns = r.response.solve_time.as_nanos() as u64;
                    tracer.push("serve.queue.wait", s0, s0 + q_ns, Some(root), r.id, true);
                    tracer.push(
                        "serve.service.solve",
                        s0 + q_ns,
                        s0 + q_ns + s_ns,
                        Some(root),
                        r.id,
                        true,
                    );
                }
                let (problem, bound) = problems.entry((c, spec.seed)).or_insert_with(|| {
                    let p = spec
                        .to_problem(class)
                        .expect("the service solved this spec, so it expands");
                    let bound = rra::relaxation_bound_bps(&p);
                    (p, bound)
                });
                let ctx = AnswerContext {
                    bound_bps: *bound,
                    in_process,
                    timing: Some((
                        r.response.queue_time + r.response.solve_time,
                        item.request.deadline,
                    )),
                };
                if let Err(e) = check::check_answer(problem, &s.solution, &ctx) {
                    violations.push(format!("request {}: {e}", r.id));
                }
                se.push(s.solution.spectral_efficiency);
                sat += usize::from(s.solution.qos_satisfied);
                gap.push(ratio(*bound - s.solution.total_rate_bps, *bound));
                if r.id < DIGEST_PREFIX {
                    solution = Some(s.solution.clone());
                }
            }
            Outcome::Rejected(_) => b.rejected += 1,
            Outcome::Expired(missed) => {
                b.expired += 1;
                let k = match missed.phase {
                    ExpiryPhase::AtEnqueue => 0,
                    ExpiryPhase::InQueue => 1,
                    ExpiryPhase::AfterSolve => 2,
                };
                expired_phase[k] += 1;
                if k > 0 {
                    queue_ms[c].push(q_ms);
                }
            }
            Outcome::Failed(e) => {
                b.failed += 1;
                violations.push(format!("request {}: solver failed: {e}", r.id));
            }
        }
        if r.id < DIGEST_PREFIX {
            answers.push((r.id, class, spec, solution));
        }
    }

    // Books: harness and service must agree class by class.
    for class in QosClass::ALL {
        let b = books[rank(class)];
        let s = phase.snapshot.class(class);
        if b.offered != b.solved + b.rejected + b.expired + b.failed {
            violations.push(format!(
                "{}: offered {} != solved + rejected + expired + failed ({})",
                class.name(),
                b.offered,
                b.solved + b.rejected + b.expired + b.failed
            ));
        }
        let ours = [b.solved, b.rejected, b.expired, b.failed];
        let theirs = [s.solved, s.rejected, s.expired, s.failed];
        if ours != theirs {
            violations.push(format!(
                "{}: harness counts solved/rejected/expired/failed {ours:?}, service {theirs:?}",
                class.name()
            ));
        }
    }

    let offered: u64 = books.iter().map(|b| b.offered).sum();
    let solved: u64 = books.iter().map(|b| b.solved).sum();
    let failed: u64 = books.iter().map(|b| b.failed).sum::<u64>() + phase.errors.len() as u64;
    let wall = phase
        .t_end
        .saturating_duration_since(phase.t0)
        .as_secs_f64();
    m.set("solved_rps", ratio(solved as f64, wall), solved as usize);
    m.set(
        "hit_frac",
        ratio(solved as f64, offered as f64),
        offered as usize,
    );
    let u = books[rank(QosClass::Urllc)];
    m.set(
        "urllc_hit_frac",
        ratio(u.solved as f64, u.offered as f64),
        u.offered as usize,
    );
    for class in QosClass::ALL {
        let l = &lat[rank(class)];
        let label = class_label(class);
        m.set(&format!("{label}_p50_ms"), quantile(l, 0.5), l.len());
        m.set(&format!("{label}_p99_ms"), quantile(l, 0.99), l.len());
    }
    m.set("mean_se", mean(&se), se.len());
    m.set("qos_sat_frac", ratio(sat as f64, se.len() as f64), se.len());
    m.set("bound_gap", mean(&gap), gap.len());

    // Per-layer numbers read from responses and the service snapshot.
    let snap = &phase.snapshot;
    for class in QosClass::ALL {
        let c = rank(class);
        let label = class_label(class);
        m.set(
            &format!("serve.queue.wait_ms.{label}.p50"),
            quantile(&queue_ms[c], 0.5),
            queue_ms[c].len(),
        );
        m.set(
            &format!("serve.queue.wait_ms.{label}.p99"),
            quantile(&queue_ms[c], 0.99),
            queue_ms[c].len(),
        );
        m.set(
            &format!("serve.service.residual_ms.{label}.p50"),
            quantile(&residual_ms[c], 0.5),
            residual_ms[c].len(),
        );
        m.set(
            &format!("serve.service.residual_ms.{label}.p99"),
            quantile(&residual_ms[c], 0.99),
            residual_ms[c].len(),
        );
        m.set(
            &format!("serve.queue.lane_hwm.{label}"),
            snap.lane_high_water(class) as f64,
            1,
        );
    }
    for (slot, name) in [(0, "greedy"), (1, "robust")] {
        let s = &solve_ms[slot];
        m.set(
            &format!("serve.service.solve_ms.{name}.p50"),
            quantile(s, 0.5),
            s.len(),
        );
        m.set(
            &format!("serve.service.solve_ms.{name}.p99"),
            quantile(s, 0.99),
            s.len(),
        );
    }
    m.set(
        "serve.service.batch_size.embb",
        mean(&batch[rank(QosClass::Embb)]),
        batch[rank(QosClass::Embb)].len(),
    );
    m.set(
        "serve.service.batch_size.mmtc",
        mean(&batch[rank(QosClass::Mmtc)]),
        batch[rank(QosClass::Mmtc)].len(),
    );
    m.set("serve.service.batches", snap.batches as f64, 1);
    let rejected: u64 = books.iter().map(|b| b.rejected).sum();
    m.set(
        "serve.queue.rejected_frac",
        ratio(rejected as f64, offered as f64),
        offered as usize,
    );
    for (k, name) in ["enqueue", "queue", "solve"].iter().enumerate() {
        m.set(
            &format!("serve.queue.expired_frac.{name}"),
            ratio(expired_phase[k] as f64, offered as f64),
            offered as usize,
        );
    }
    let lookups = snap.reuse.hits + snap.reuse.misses;
    m.set(
        "serve.reuse.hit_ratio",
        ratio(snap.reuse.hits as f64, lookups as f64),
        lookups as usize,
    );
    m.set("serve.reuse.evictions", snap.reuse.evictions as f64, 1);
    m.set(
        "harness.residual_negative",
        residual_negative as f64,
        solved as usize,
    );
    if residual_negative > 0 {
        violations.push(format!(
            "{residual_negative} requests have a negative residual"
        ));
    }
    if in_process {
        m.set(
            "serve.service.submit_us.p50",
            quantile(&submit_us, 0.5),
            submit_us.len(),
        );
        m.set(
            "serve.service.submit_us.p99",
            quantile(&submit_us, 0.99),
            submit_us.len(),
        );
    }
    if w == Workload::MixTcp {
        wire_metrics(&mut m, phase, fallback);
    }

    // The digest folds a direct solve of each of the first requests, so it
    // does not depend on which of them happened to expire; every one the
    // service did solve must match its direct solve bit for bit.
    let mut reference = Vec::with_capacity(answers.len());
    for (id, class, spec, served) in answers {
        let problem = spec.to_problem(class).expect("trace specs expand");
        let direct = solvers::call(&problem, solver_for(class), id).result.ok();
        if let (Some(s), Some(d)) = (&served, &direct) {
            if s.owners != d.owners || s.total_rate_bps.to_bits() != d.total_rate_bps.to_bits() {
                violations.push(format!(
                    "request {id}: served answer differs from a direct solve"
                ));
            }
        }
        reference.push((id, direct));
    }
    let digest = check::digest(reference.iter().map(|(id, s)| (*id, s.as_ref())));
    let all_lat: Vec<f64> = lat.iter().flatten().copied().collect();
    let table = if traced {
        time_table(&shares, &lat)
    } else {
        String::new()
    };
    Analysis {
        metrics: m,
        violations,
        attempted,
        failed,
        digest,
        mean_latency_ms: stats::mean(&all_lat),
        table,
    }
}

/// Wire-layer numbers of `mix_tcp`, timed on the very lines sent and
/// received (parse/encode of the server side are replayed here).
fn wire_metrics(m: &mut MetricSet, phase: &Phase, fallback: usize) {
    let n = phase.sent_lines.len();
    m.set(
        "serve.wire.seed_fallback_frac",
        ratio(fallback as f64, n as f64),
        n,
    );
    let bytes: Vec<f64> = phase.records.iter().map(|r| r.wire_bytes as f64).collect();
    m.set("serve.wire.bytes_per_req", mean(&bytes), bytes.len());
    if phase.encode_ns.is_empty() {
        return; // untraced: the codec was not timed
    }
    m.set(
        "serve.wire.encode_request_us",
        mean(&phase.encode_ns) * 1e-3,
        phase.encode_ns.len(),
    );
    let parse: Vec<f64> = phase.records.iter().map(|r| r.parse_ns as f64).collect();
    m.set(
        "serve.wire.parse_response_us",
        mean(&parse) * 1e-3,
        parse.len(),
    );
    let mut parse_req = Vec::with_capacity(n);
    for line in &phase.sent_lines {
        let t = Instant::now();
        let _ = std::hint::black_box(wire::parse_request(std::hint::black_box(line)));
        parse_req.push(t.elapsed().as_nanos() as f64);
    }
    m.set(
        "serve.wire.parse_request_us",
        mean(&parse_req) * 1e-3,
        parse_req.len(),
    );
    let mut enc_resp = Vec::with_capacity(phase.records.len());
    for r in &phase.records {
        let t = Instant::now();
        let _ = std::hint::black_box(wire::encode_response(std::hint::black_box(&r.response)));
        enc_resp.push(t.elapsed().as_nanos() as f64);
    }
    m.set(
        "serve.wire.encode_response_us",
        mean(&enc_resp) * 1e-3,
        enc_resp.len(),
    );
}

/// "Where the time goes": share of mean client latency per class.
fn time_table(shares: &[[f64; 5]; 3], lat: &[Vec<f64>; 3]) -> String {
    let mut out = String::from(
        "  class   n       mean_ms   submit   queue    solve    residual(excl. submit)\n",
    );
    for class in QosClass::ALL {
        let c = class.priority_rank();
        let n = lat[c].len();
        let [total, submit, queue, solve, rest] = shares[c];
        let pct = |x: f64| 100.0 * ratio(x, total);
        out.push_str(&format!(
            "  {:<7} {:<7} {:>8.3} {:>7.2}% {:>7.2}% {:>7.2}% {:>7.2}%\n",
            class_label(class),
            n,
            ratio(total, n as f64),
            pct(submit),
            pct(queue),
            pct(solve),
            pct(rest)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcr_serve::{Payload, SolveRequest, SolverKind};

    fn item(seed: u64) -> TraceItem {
        TraceItem {
            request: SolveRequest {
                id: 7,
                class: QosClass::Mmtc,
                deadline: Duration::from_secs(1),
                solver: SolverKind::Greedy,
                payload: Payload::Scenario(ScenarioSpec {
                    users: 3,
                    resource_blocks: 6,
                    seed,
                }),
            },
        }
    }

    #[test]
    fn seeds_above_2_pow_53_are_reported_as_falling_back_to_the_id() {
        for (seed, falls_back) in [(42, false), (1 << 53, false), (u64::MAX - 1, true)] {
            let it = item(seed);
            let line = wire::encode_request(&it.request).expect("scenario payloads encode");
            let (spec, fell_back) = solved_spec(&it, Some(&line));
            assert_eq!(fell_back, falls_back, "seed {seed}");
            assert_eq!(spec.seed, if falls_back { 7 } else { seed });
        }
    }
}
