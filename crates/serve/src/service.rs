//! The long-running solver service: admission → lanes → worker-pull
//! dispatch → responses.
//!
//! Submitters (the in-process [`Client`], or TCP connection threads in
//! [`crate::wire`]) enqueue into the [`AdmissionQueue`] under the state
//! mutex and wake a worker through a condvar. There is no batcher thread:
//! each of the `workers` threads locks the state, sweeps expired entries,
//! and takes its next unit of work itself, in class-priority order
//! (URLLC → eMBB → mMTC):
//!
//! * an item from the class's **ready list** — the not-yet-taken items of
//!   a batch already drained from that lane; else
//! * a fresh batch drained from the class's lane, if the lane is ready
//!   (fill, age, or deadline proximity — batch formation stays in the
//!   queue) and that class's ready list is empty. A batch holding robust
//!   items is pre-factored ([`robust::plan_batch`]) by the draining
//!   worker outside the lock before its items join the ready list.
//!
//! Work is taken one item at a time, so a URLLC arrival waits for at most
//! one in-flight solve per worker, never a whole eMBB/mMTC batch. The
//! ready-list rule keeps admission bounded: at most one drained batch per
//! class is ever off its lane, so a full lane still means backpressure.
//! Every item is answered as soon as its own solve finishes.
//!
//! **Reuse hits at admission.** With [`crate::reuse`] enabled, a
//! cacheable request that passes the shutdown and already-expired checks
//! is looked up on the submitter's thread, outside the state lock. A hit
//! is answered there: it is counted admitted and solved, takes no lane
//! slot (so it is served even when its lane is full), wakes no worker and
//! gets no robust pre-factor. A miss goes on to its lane, and the worker
//! looks it up once more before solving (see [`crate::reuse`] for why).
//!
//! **Determinism.** A request's solution depends only on its own problem,
//! solver, and seed — never on batch composition, lane timing, or worker
//! count. Per-request PSO seeds derive from `seed_stream(base, id)`, so a
//! fixed request trace produces bit-identical solver outputs at any
//! `workers` setting; only timing metrics vary.
//!
//! **Deadline safety.** Expiry is checked at enqueue, at every worker
//! pass over the lanes and ready lists, and again after each item's solve
//! completes; a request whose solve finished late is answered `Expired`,
//! so a `Solved` response always means solved *within* its deadline.
//! `queue_time` runs from enqueue to the start of the request's own
//! solve, so it includes any wait behind batch siblings. For a hit
//! answered at admission it is zero, and `solve_time` is the lookup.

use crate::metrics::{Metrics, MetricsSnapshot};
use crate::queue::{AdmissionQueue, EnqueueRejection, QueuePolicy, Queued};
use crate::request::{
    DeadlineMissed, ExpiryPhase, Outcome, Payload, RejectReason, SolveRequest, SolveResponse,
    Solved, SolverKind,
};
use crate::reuse::{self, ReuseCache, ReuseConfig};
use crate::ServeError;
use rcr_minlp::BnbSettings;
use rcr_pso::swarm::PsoSettings;
use rcr_qos::robust::{self, RobustPlan};
use rcr_qos::rra::{self, RraProblem, RraSolution};
use rcr_qos::{QosClass, QosError};
use rcr_runtime::{resolve_workers, seed_stream};
use std::collections::VecDeque;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads pulling work from the lanes: `0` = auto
    /// (`RCR_WORKERS`, with `auto` resolving to the machine's
    /// parallelism, else serial).
    pub workers: usize,
    /// Admission and batching policy per class lane.
    pub queue: QueuePolicy,
    /// Branch-and-bound settings for [`SolverKind::Exact`] requests.
    pub bnb: BnbSettings,
    /// PSO settings for [`SolverKind::Pso`] requests. The configured
    /// `seed` is a *base*: each request's swarm seed is derived from it
    /// and the request id, so results are per-request deterministic and
    /// independent of batching.
    pub pso: PsoSettings,
    /// Exact-match solution reuse (disabled by default). See
    /// [`crate::reuse`] for the determinism contract.
    pub reuse: ReuseConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            queue: QueuePolicy::default(),
            bnb: BnbSettings::default(),
            pso: PsoSettings {
                swarm_size: 12,
                max_iter: 40,
                ..Default::default()
            },
            reuse: ReuseConfig::default(),
        }
    }
}

/// Solver dispatch shared by every worker.
#[derive(Debug)]
struct Engine {
    bnb: BnbSettings,
    pso: PsoSettings,
    reuse: Option<ReuseCache>,
}

impl Engine {
    /// The reuse cache, if enabled and `solver` is cacheable: what the
    /// admission lookup in [`Client::submit_with`] consults.
    fn admission_cache(&self, solver: SolverKind) -> Option<&ReuseCache> {
        self.reuse.as_ref().filter(|_| reuse::cacheable(solver))
    }

    /// The worker-side solve. Its lookup still catches a duplicate that
    /// was admitted before its twin's solution landed in the cache.
    fn solve_one(&self, job: &Job) -> Result<RraSolution, QosError> {
        let (solver, problem) = (job.solver, &job.problem);
        if let Some(cache) = &self.reuse {
            if reuse::cacheable(solver) {
                if let Some(hit) = cache.get(solver, problem) {
                    // Bit-identical to a fresh solve: the cache only
                    // stores deterministic solver kinds keyed bit-exact.
                    return Ok(hit);
                }
            } else {
                cache.count_bypass();
            }
        }
        let result = self.dispatch(job);
        if let (Some(cache), Ok(solution)) = (&self.reuse, &result) {
            if reuse::cacheable(solver) {
                cache.put(solver, problem, solution);
            }
        }
        result
    }

    fn dispatch(&self, job: &Job) -> Result<RraSolution, QosError> {
        let problem = &job.problem;
        match job.solver {
            SolverKind::Greedy => rra::solve_greedy(problem),
            SolverKind::Exact => rra::solve_exact(problem, &self.bnb),
            SolverKind::Pso => {
                // Per-request stream off the configured base seed: the
                // same request solves identically in any batch.
                let settings = PsoSettings {
                    seed: seed_stream(self.pso.seed, job.id),
                    // Item-level parallelism only: nested swarm fan-out
                    // would oversubscribe the workers.
                    workers: 1,
                    ..self.pso
                };
                rra::solve_pso(problem, &settings)
            }
            SolverKind::Robust => match &job.plan {
                // The batch pre-factor phase already built the KKT
                // Cholesky; this solve runs the ADMM iterations only.
                Some(plan) => robust::solve_robust(problem, plan),
                None => robust::solve_robust_auto(problem),
            },
        }
    }
}

/// A queued job: everything needed to answer the request later. The
/// class and timestamps live on the [`Queued`] wrapper, not here.
#[derive(Debug)]
struct Job {
    id: u64,
    solver: SolverKind,
    problem: RraProblem,
    responder: Sender<SolveResponse>,
    /// Size of the batch the job was drained in (0 while in its lane).
    batch_size: usize,
    /// Pre-built robust plan from the batch pre-factor phase; `None` for
    /// non-robust jobs (and for robust jobs whose planning failed — the
    /// dispatch falls back to an inline plan so the planning error
    /// surfaces through the normal solve path).
    plan: Option<Box<RobustPlan>>,
}

/// What a worker took from the shared state.
enum Work {
    /// Solve and answer one request.
    Solve(Queued<Job>),
    /// Pre-factor a freshly drained batch that holds robust jobs, then
    /// hand its entries to the class's ready list.
    Plan(QosClass, Vec<Queued<Job>>),
}

#[derive(Debug)]
struct State {
    queue: AdmissionQueue<Job>,
    /// Drained-but-untaken entries per class, indexed by
    /// [`QosClass::priority_rank`], in the batch's drain order.
    ready: [VecDeque<Queued<Job>>; 3],
    /// Classes whose drained batch is being pre-factored outside the lock.
    planning: [bool; 3],
    /// Batches drained from the lanes.
    batches: u64,
    shutdown: bool,
}

impl State {
    /// Removes every expired entry, from the lanes and the ready lists.
    fn sweep_expired(&mut self, now: Instant) -> Vec<Queued<Job>> {
        let mut expired = self.queue.sweep_expired(now);
        for ready in &mut self.ready {
            if ready.iter().any(|entry| entry.deadline_at <= now) {
                let (dead, live): (VecDeque<_>, _) =
                    ready.drain(..).partition(|entry| entry.deadline_at <= now);
                expired.extend(dead);
                *ready = live;
            }
        }
        expired
    }

    /// The next unit of work in class-priority order: a ready item, else
    /// a batch drained from a ready lane whose class has no ready items
    /// and no batch in planning. `None` when nothing is actionable.
    fn next_work(&mut self, now: Instant) -> Option<Work> {
        let force = self.shutdown;
        for class in QosClass::ALL {
            let rank = class.priority_rank();
            if let Some(entry) = self.ready[rank].pop_front() {
                return Some(Work::Solve(entry));
            }
            if self.planning[rank] {
                continue;
            }
            let Some(mut entries) = self.queue.drain_lane(class, now, force) else {
                continue;
            };
            self.batches += 1;
            let batch_size = entries.len();
            for entry in &mut entries {
                entry.item.batch_size = batch_size;
            }
            if entries.iter().any(|e| e.item.solver == SolverKind::Robust) {
                self.planning[rank] = true;
                return Some(Work::Plan(class, entries));
            }
            self.ready[rank].extend(entries);
            return self.ready[rank].pop_front().map(Work::Solve);
        }
        None
    }

    /// Nothing queued, ready, or in planning.
    fn idle(&self) -> bool {
        self.queue.is_empty()
            && self.ready.iter().all(VecDeque::is_empty)
            && !self.planning.contains(&true)
    }
}

#[derive(Debug)]
struct Shared {
    state: Mutex<State>,
    wakeup: Condvar,
    metrics: Mutex<Metrics>,
    engine: Engine,
}

impl Shared {
    fn snapshot(&self) -> MetricsSnapshot {
        let (high_water, lane_high_waters, batches) = {
            let state = self.state.lock().expect("serve: state mutex poisoned");
            (
                state.queue.depth_high_water(),
                state.queue.lane_high_waters(),
                state.batches,
            )
        };
        let reuse = self
            .engine
            .reuse
            .as_ref()
            .map(ReuseCache::counters)
            .unwrap_or_default();
        self.metrics
            .lock()
            .expect("serve: metrics mutex poisoned")
            .snapshot(high_water, lane_high_waters, batches, reuse)
    }
}

/// A pending response, returned by [`Client::submit`].
#[derive(Debug)]
pub struct Ticket {
    rx: Receiver<SolveResponse>,
}

impl Ticket {
    /// Blocks until the response arrives.
    ///
    /// # Errors
    /// [`ServeError::ChannelClosed`] if the service dropped the request
    /// without responding (it never does under normal operation).
    pub fn wait(self) -> Result<SolveResponse, ServeError> {
        self.rx.recv().map_err(|_| ServeError::ChannelClosed)
    }

    /// Non-blocking poll; `None` until the response is ready.
    pub fn poll(&self) -> Option<SolveResponse> {
        self.rx.try_recv().ok()
    }
}

/// A cheap cloneable handle for submitting requests.
#[derive(Debug, Clone)]
pub struct Client {
    shared: Arc<Shared>,
}

impl Client {
    /// Submits a request and returns a [`Ticket`] for its response.
    /// Admission outcomes (rejected / already-expired / payload
    /// conversion failure) and reuse hits are decided synchronously and
    /// delivered through the ticket immediately.
    pub fn submit(&self, request: SolveRequest) -> Ticket {
        let (tx, rx) = mpsc::channel();
        self.submit_with(request, tx);
        Ticket { rx }
    }

    /// Like [`Client::submit`], but routes the response into an existing
    /// channel — used by connection handlers multiplexing many requests
    /// onto one writer.
    pub fn submit_with(&self, request: SolveRequest, responder: Sender<SolveResponse>) {
        let SolveRequest {
            id,
            class,
            deadline,
            solver,
            payload,
        } = request;
        let respond = |outcome: Outcome| {
            let _ = responder.send(SolveResponse {
                id,
                class,
                outcome,
                queue_time: Duration::ZERO,
                solve_time: Duration::ZERO,
            });
        };

        // Payload conversion happens on the submitter's thread: cheap,
        // and conversion errors never occupy a lane slot.
        let problem = match payload {
            Payload::Problem(p) => *p,
            Payload::Scenario(spec) => match spec.to_problem(class) {
                Ok(p) => p,
                Err(e) => {
                    self.count(class, |c| c.failed += 1);
                    respond(Outcome::Failed(e.to_string()));
                    return;
                }
            },
        };

        let now = Instant::now();
        // A client-supplied deadline large enough to overflow `Instant`
        // is effectively "never": clamp to ~30 years out (double failure
        // would need centuries of uptime; fall back to immediate expiry
        // rather than panic).
        const EFFECTIVELY_NEVER: Duration = Duration::from_secs(30 * 365 * 86_400);
        let deadline_at = now
            .checked_add(deadline)
            .or_else(|| now.checked_add(EFFECTIVELY_NEVER))
            .unwrap_or(now);
        let mut job = Job {
            id,
            solver,
            problem,
            responder: responder.clone(),
            batch_size: 0,
            plan: None,
        };

        let mut state = self
            .shared
            .state
            .lock()
            .expect("serve: state mutex poisoned");
        // A reuse hit is answered here, after the shutdown and expiry
        // checks so it never changes an admission outcome, and outside
        // the state lock so the lookup never holds up the workers.
        if !state.shutdown && deadline_at > now {
            if let Some(cache) = self.shared.engine.admission_cache(solver) {
                drop(state);
                let started_at = Instant::now();
                if let Some(solution) = cache.get_at_admission(solver, &job.problem) {
                    self.count(class, |c| c.admitted += 1);
                    job.batch_size = 1;
                    // Enqueued as the lookup starts: no lane wait, and
                    // the lookup is the whole solve.
                    answer(
                        &self.shared,
                        &job,
                        class,
                        started_at,
                        started_at,
                        deadline_at,
                        Ok(solution),
                    );
                    return;
                }
                state = self
                    .shared
                    .state
                    .lock()
                    .expect("serve: state mutex poisoned");
            }
        }
        if state.shutdown {
            drop(state);
            self.count(class, |c| c.rejected += 1);
            respond(Outcome::Rejected(RejectReason::ShuttingDown));
            return;
        }
        match state.queue.enqueue(job, class, now, deadline_at) {
            Ok(()) => {
                drop(state);
                self.count(class, |c| c.admitted += 1);
                // One new request: one idle worker is enough to act on it.
                self.shared.wakeup.notify_one();
            }
            Err(EnqueueRejection::QueueFull {
                depth, capacity, ..
            }) => {
                drop(state);
                self.count(class, |c| c.rejected += 1);
                respond(Outcome::Rejected(RejectReason::QueueFull {
                    depth,
                    capacity,
                }));
            }
            Err(EnqueueRejection::AlreadyExpired { late_by, .. }) => {
                drop(state);
                self.count(class, |c| c.expired += 1);
                respond(Outcome::Expired(DeadlineMissed {
                    phase: ExpiryPhase::AtEnqueue,
                    late_by,
                }));
            }
        }
    }

    /// Submits and blocks for the response.
    ///
    /// # Errors
    /// See [`Ticket::wait`].
    pub fn solve(&self, request: SolveRequest) -> Result<SolveResponse, ServeError> {
        self.submit(request).wait()
    }

    /// A point-in-time copy of the service metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.snapshot()
    }

    fn count(&self, class: QosClass, f: impl FnOnce(&mut crate::metrics::ClassCounters)) {
        let mut m = self
            .shared
            .metrics
            .lock()
            .expect("serve: metrics mutex poisoned");
        f(m.class_mut(class));
    }
}

/// The running service; dropping it (or calling [`Service::shutdown`])
/// drains the queue and joins the workers.
#[derive(Debug)]
pub struct Service {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Service {
    /// Spawns the worker threads.
    ///
    /// # Errors
    /// [`ServeError::InvalidPolicy`] if the queue policy is invalid
    /// (e.g. a lane with `max_batch == 0`); nothing is spawned.
    pub fn spawn(config: ServiceConfig) -> Result<Service, ServeError> {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: AdmissionQueue::new(&config.queue)?,
                ready: Default::default(),
                planning: [false; 3],
                batches: 0,
                shutdown: false,
            }),
            wakeup: Condvar::new(),
            metrics: Mutex::new(Metrics::default()),
            engine: Engine {
                bnb: config.bnb,
                pso: config.pso,
                reuse: ReuseCache::from_config(&config.reuse),
            },
        });
        let workers = (0..resolve_workers(config.workers).max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name("rcr-serve-worker".into())
                    .spawn(move || worker_loop(&shared))
                    // rcr-lint: allow(no-unwrap-in-lib, reason = "spawn fails only on OS resource exhaustion at service startup; the service cannot run without its workers")
                    .expect("serve: failed to spawn worker thread")
            })
            .collect();
        Ok(Service { shared, workers })
    }

    /// A submission handle.
    pub fn client(&self) -> Client {
        Client {
            shared: Arc::clone(&self.shared),
        }
    }

    /// A point-in-time copy of the service metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.snapshot()
    }

    /// Graceful shutdown: stops admitting, drains every queued request
    /// (in-flight solves included), joins the workers, and returns the
    /// final metrics. Unexpired queued requests are *solved*, not
    /// dropped.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.stop_and_join();
        self.shared.snapshot()
    }

    fn stop_and_join(&mut self) {
        {
            let mut state = self
                .shared
                .state
                .lock()
                .expect("serve: state mutex poisoned");
            state.shutdown = true;
        }
        self.shared.wakeup.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Delivers terminal responses for requests that expired before their
/// solve started (in a lane or a ready list).
fn respond_expired(shared: &Shared, expired: Vec<Queued<Job>>, now: Instant) {
    {
        let mut metrics = shared
            .metrics
            .lock()
            .expect("serve: metrics mutex poisoned");
        for entry in &expired {
            metrics.class_mut(entry.class).expired += 1;
        }
    }
    for entry in expired {
        let _ = entry.item.responder.send(SolveResponse {
            id: entry.item.id,
            class: entry.class,
            outcome: Outcome::Expired(DeadlineMissed {
                phase: ExpiryPhase::InQueue,
                late_by: now.saturating_duration_since(entry.deadline_at),
            }),
            queue_time: now.saturating_duration_since(entry.enqueued_at),
            solve_time: Duration::ZERO,
        });
    }
}

/// The batch pre-factor phase: plans every robust item's relaxation in
/// one `rcr_linalg::BatchFactor` pass (batched Gram eigendecompositions
/// and KKT Cholesky factorizations), so the per-request factorizations
/// amortize over the batch instead of running inside each item's solve.
/// It runs inline on the draining worker: the other workers are the
/// parallelism. Items whose planning fails keep `plan: None` and fall
/// back to the inline path, where the same error surfaces through the
/// normal solve outcome.
fn attach_robust_plans(entries: &mut [Queued<Job>]) {
    let robust_idx: Vec<usize> = entries
        .iter()
        .enumerate()
        .filter(|(_, e)| e.item.solver == SolverKind::Robust)
        .map(|(i, _)| i)
        .collect();
    let problems: Vec<&RraProblem> = robust_idx
        .iter()
        .map(|&i| &entries[i].item.problem)
        .collect();
    let plans = robust::plan_batch(&problems, 1);
    for (&i, plan) in robust_idx.iter().zip(plans) {
        entries[i].item.plan = plan.ok().map(Box::new);
    }
}

/// Solves one request and answers it, gated on its own deadline.
fn solve_and_answer(shared: &Shared, entry: Queued<Job>) {
    let started_at = Instant::now();
    // A panicking solver answers `Failed` instead of taking the worker,
    // and with it every later request, down.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        shared.engine.solve_one(&entry.item)
    }))
    .unwrap_or_else(|_| Err(QosError::Solver("solver panicked".into())));
    answer(
        shared,
        &entry.item,
        entry.class,
        entry.enqueued_at,
        started_at,
        entry.deadline_at,
        result,
    );
}

/// Records a finished solve in the metrics and answers it. A solve that
/// finished past its deadline is answered `Expired`, so "solved ⇒ in
/// time" holds for worker solves and admission hits alike.
fn answer(
    shared: &Shared,
    job: &Job,
    class: QosClass,
    enqueued_at: Instant,
    started_at: Instant,
    deadline_at: Instant,
    result: Result<RraSolution, QosError>,
) {
    let finished_at = Instant::now();
    let queue_time = started_at.saturating_duration_since(enqueued_at);
    let solve_time = finished_at.saturating_duration_since(started_at);
    let response_time = finished_at.saturating_duration_since(enqueued_at);
    let outcome = {
        let mut metrics = shared
            .metrics
            .lock()
            .expect("serve: metrics mutex poisoned");
        metrics.queue_latency.record(queue_time);
        metrics.solve_latency.record(solve_time);
        metrics.response_latency.record(response_time);
        metrics.class_response_mut(class).record(response_time);
        match result {
            // The deadline gate: a late solve is reported as expired, so
            // downstream consumers can rely on "solved ⇒ in time".
            Ok(_) if finished_at > deadline_at => {
                metrics.class_mut(class).expired += 1;
                Outcome::Expired(DeadlineMissed {
                    phase: ExpiryPhase::AfterSolve,
                    late_by: finished_at.saturating_duration_since(deadline_at),
                })
            }
            Ok(solution) => {
                metrics.class_mut(class).solved += 1;
                Outcome::Solved(Solved {
                    solution,
                    batch_size: job.batch_size,
                })
            }
            Err(e) => {
                metrics.class_mut(class).failed += 1;
                Outcome::Failed(e.to_string())
            }
        }
    };
    let _ = job.responder.send(SolveResponse {
        id: job.id,
        class,
        outcome,
        queue_time,
        solve_time,
    });
}

/// One worker: take work in class-priority order until shutdown has
/// drained everything.
fn worker_loop(shared: &Shared) {
    let mut state = shared.state.lock().expect("serve: state mutex poisoned");
    loop {
        let now = Instant::now();
        let expired = state.sweep_expired(now);
        let work = state.next_work(now);
        if !expired.is_empty() || work.is_some() {
            // Unlock while responding/solving so submitters and the other
            // workers keep flowing.
            drop(state);
            if !expired.is_empty() {
                respond_expired(shared, expired, now);
            }
            let planned = match work {
                Some(Work::Solve(entry)) => {
                    solve_and_answer(shared, entry);
                    None
                }
                Some(Work::Plan(class, mut entries)) => {
                    attach_robust_plans(&mut entries);
                    Some((class, entries))
                }
                None => None,
            };
            state = shared.state.lock().expect("serve: state mutex poisoned");
            if let Some((class, entries)) = planned {
                let rank = class.priority_rank();
                state.planning[rank] = false;
                state.ready[rank].extend(entries);
                shared.wakeup.notify_all();
            }
            continue;
        }
        if state.shutdown && state.idle() {
            return;
        }

        // Lanes held back by a batch in planning are not drainable until
        // the planner hands its items over (and notifies), so they must
        // not schedule an immediate wakeup.
        let planning = state.planning;
        state = match state
            .queue
            .next_wakeup_among(now, |class| !planning[class.priority_rank()])
        {
            None => shared
                .wakeup
                .wait(state)
                // rcr-lint: allow(no-unwrap-in-lib, reason = "condvar re-lock poisoning means a holder already panicked; propagate it")
                .expect("serve: state mutex poisoned"),
            Some(at) => {
                // `at <= now` only from clock races between the sweep
                // above and this read; the floor keeps that from
                // becoming a hot spin.
                let wait = at
                    .saturating_duration_since(now)
                    .max(Duration::from_micros(50));
                shared
                    .wakeup
                    .wait_timeout(state, wait)
                    // rcr-lint: allow(no-unwrap-in-lib, reason = "condvar re-lock poisoning means a holder already panicked; propagate it")
                    .expect("serve: state mutex poisoned")
                    .0
            }
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::LanePolicy;
    use crate::request::ScenarioSpec;

    fn spec_request(id: u64, class: QosClass, deadline: Duration) -> SolveRequest {
        SolveRequest {
            id,
            class,
            deadline,
            solver: SolverKind::Greedy,
            payload: Payload::Scenario(ScenarioSpec {
                users: 3,
                resource_blocks: 6,
                seed: id,
            }),
        }
    }

    #[test]
    fn solves_a_request_end_to_end() {
        let service = Service::spawn(ServiceConfig::default()).unwrap();
        let client = service.client();
        let resp = client
            .solve(spec_request(1, QosClass::Urllc, Duration::from_secs(30)))
            .unwrap();
        assert_eq!(resp.id, 1);
        match &resp.outcome {
            Outcome::Solved(s) => {
                assert!(s.solution.total_rate_bps > 0.0);
                assert_eq!(s.batch_size, 1, "URLLC fires alone");
            }
            other => panic!("expected Solved, got {other:?}"),
        }
        let snap = service.shutdown();
        assert_eq!(snap.class(QosClass::Urllc).solved, 1);
        assert_eq!(snap.total_responses(), 1);
    }

    #[test]
    fn zero_deadline_expires_at_enqueue() {
        let service = Service::spawn(ServiceConfig::default()).unwrap();
        let resp = service
            .client()
            .solve(spec_request(2, QosClass::Embb, Duration::ZERO))
            .unwrap();
        assert!(matches!(
            resp.outcome,
            Outcome::Expired(DeadlineMissed {
                phase: ExpiryPhase::AtEnqueue,
                ..
            })
        ));
        let snap = service.shutdown();
        assert_eq!(snap.class(QosClass::Embb).expired, 1);
        assert_eq!(snap.class(QosClass::Embb).solved, 0);
    }

    #[test]
    fn full_lane_backpressures() {
        let config = ServiceConfig {
            queue: QueuePolicy {
                mmtc: LanePolicy {
                    capacity: 0,
                    max_batch: 8,
                    max_age: Duration::from_secs(1),
                },
                ..QueuePolicy::default()
            },
            ..ServiceConfig::default()
        };
        let service = Service::spawn(config).unwrap();
        let resp = service
            .client()
            .solve(spec_request(3, QosClass::Mmtc, Duration::from_secs(30)))
            .unwrap();
        assert!(matches!(
            resp.outcome,
            Outcome::Rejected(RejectReason::QueueFull { capacity: 0, .. })
        ));
        let snap = service.shutdown();
        assert_eq!(snap.class(QosClass::Mmtc).rejected, 1);
    }

    #[test]
    fn shutdown_drains_queued_requests() {
        let service = Service::spawn(ServiceConfig::default()).unwrap();
        let client = service.client();
        // mMTC coalesces for up to 2 ms; submit then shut down at once —
        // the drain must still answer them all with solutions.
        let tickets: Vec<Ticket> = (0..8)
            .map(|i| client.submit(spec_request(i, QosClass::Mmtc, Duration::from_secs(30))))
            .collect();
        let snap = service.shutdown();
        for t in tickets {
            let resp = t.wait().unwrap();
            assert!(
                matches!(resp.outcome, Outcome::Solved(_)),
                "got {:?}",
                resp.outcome
            );
        }
        assert_eq!(snap.class(QosClass::Mmtc).solved, 8);
    }

    #[test]
    fn submissions_after_shutdown_are_rejected() {
        let service = Service::spawn(ServiceConfig::default()).unwrap();
        let client = service.client();
        let snap = service.shutdown();
        assert_eq!(snap.total_responses(), 0);
        let resp = client
            .solve(spec_request(9, QosClass::Urllc, Duration::from_secs(30)))
            .unwrap();
        assert!(matches!(
            resp.outcome,
            Outcome::Rejected(RejectReason::ShuttingDown)
        ));
    }

    #[test]
    fn embb_requests_coalesce_into_batches() {
        // A generous age window so the whole burst lands in one batch.
        let config = ServiceConfig {
            workers: 2,
            queue: QueuePolicy {
                embb: LanePolicy {
                    capacity: 64,
                    max_batch: 8,
                    max_age: Duration::from_millis(200),
                },
                ..QueuePolicy::default()
            },
            ..ServiceConfig::default()
        };
        let service = Service::spawn(config).unwrap();
        let client = service.client();
        let tickets: Vec<Ticket> = (0..8)
            .map(|i| client.submit(spec_request(i, QosClass::Embb, Duration::from_secs(30))))
            .collect();
        let mut max_batch = 0usize;
        for t in tickets {
            match t.wait().unwrap().outcome {
                Outcome::Solved(s) => max_batch = max_batch.max(s.batch_size),
                other => panic!("expected Solved, got {other:?}"),
            }
        }
        assert!(max_batch >= 2, "no coalescing observed (max {max_batch})");
        let snap = service.shutdown();
        assert!(snap.batches < 8, "batches: {}", snap.batches);
        assert_eq!(snap.response_latency.count, 8);
    }

    #[test]
    fn reuse_serves_identical_requests_from_cache() {
        let config = ServiceConfig {
            reuse: ReuseConfig {
                enabled: true,
                capacity: 64,
            },
            ..ServiceConfig::default()
        };
        let service = Service::spawn(config).unwrap();
        let client = service.client();
        let request = |id: u64| SolveRequest {
            id,
            class: QosClass::Urllc,
            deadline: Duration::from_secs(30),
            solver: SolverKind::Greedy,
            payload: Payload::Scenario(ScenarioSpec {
                users: 3,
                resource_blocks: 6,
                seed: 5,
            }),
        };
        // Sequential solves of the *same* problem under different ids:
        // the second must hit and answer bit-identically.
        let first = client.solve(request(1)).unwrap();
        let second = client.solve(request(2)).unwrap();
        let rate = |resp: &SolveResponse| match &resp.outcome {
            Outcome::Solved(s) => s.solution.total_rate_bps,
            other => panic!("expected Solved, got {other:?}"),
        };
        assert_eq!(rate(&first).to_bits(), rate(&second).to_bits());
        // The second was answered at admission, without a lane or worker.
        assert_eq!(second.queue_time, Duration::ZERO);
        assert!(matches!(&second.outcome, Outcome::Solved(s) if s.batch_size == 1));
        let snap = service.shutdown();
        assert_eq!(snap.reuse.hits, 1);
        assert_eq!(snap.reuse.admission_hits, 1);
        assert_eq!(snap.reuse.misses, 1);
        assert_eq!(snap.reuse.evictions, 0);
        assert_eq!(snap.class(QosClass::Urllc).admitted, 2);
        assert_eq!(snap.class(QosClass::Urllc).solved, 2);
        assert_eq!(snap.response_latency.count, 2);
        assert_eq!(snap.batches, 1, "the hit formed no batch");
    }

    fn reuse_config(queue: QueuePolicy) -> ServiceConfig {
        ServiceConfig {
            workers: 1,
            queue,
            reuse: ReuseConfig {
                enabled: true,
                capacity: 64,
            },
            ..ServiceConfig::default()
        }
    }

    /// A request for an explicit problem, so the same problem (and cache
    /// key) can be sent under any class.
    fn problem_request(id: u64, class: QosClass, deadline: Duration) -> SolveRequest {
        let problem = ScenarioSpec {
            users: 3,
            resource_blocks: 6,
            seed: 77,
        }
        .to_problem(QosClass::Urllc)
        .unwrap();
        SolveRequest {
            id,
            class,
            deadline,
            solver: SolverKind::Greedy,
            payload: Payload::Problem(Box::new(problem)),
        }
    }

    /// Spawns a reuse-enabled service and caches [`problem_request`]'s
    /// problem through one cold URLLC solve.
    fn service_with_cached_problem(queue: QueuePolicy) -> (Service, Client) {
        let service = Service::spawn(reuse_config(queue)).unwrap();
        let client = service.client();
        let warm = client
            .solve(problem_request(0, QosClass::Urllc, Duration::from_secs(30)))
            .unwrap();
        assert!(matches!(warm.outcome, Outcome::Solved(_)));
        (service, client)
    }

    #[test]
    fn admission_hit_does_not_wait_for_a_worker() {
        // One worker, busy with a full mMTC batch of cold Greedy solves.
        // A request whose problem is cached is answered before its
        // submit returns, ahead of the batch's remaining items.
        let batch = 8u64;
        let config = reuse_config(QueuePolicy {
            mmtc: LanePolicy {
                capacity: 64,
                max_batch: batch as usize,
                max_age: Duration::from_secs(10),
            },
            ..QueuePolicy::default()
        });
        let service = Service::spawn(config).unwrap();
        let client = service.client();
        let (tx, rx) = mpsc::channel();
        let submit_batch = |first_id: u64| {
            for i in first_id..first_id + batch {
                client.submit_with(
                    spec_request(i, QosClass::Mmtc, Duration::from_secs(30)),
                    tx.clone(),
                );
            }
        };
        // The first batch fills the cache.
        submit_batch(0);
        assert_eq!(rx.iter().take(batch as usize).count(), batch as usize);
        // The second batch is cold; it is being solved once its first
        // answer is out.
        submit_batch(100);
        let first = rx.recv().unwrap();
        assert!(first.id >= 100);
        let hit_id = 3;
        client.submit_with(
            spec_request(hit_id, QosClass::Mmtc, Duration::from_secs(30)),
            tx,
        );
        // Answered synchronously: already in the channel, behind at most
        // the batch items that finished meanwhile.
        let ready: Vec<SolveResponse> = rx.try_iter().collect();
        let hit = ready
            .iter()
            .find(|r| r.id == hit_id)
            .expect("the hit is answered before submit returns");
        let mmtc_before = 1 + ready.iter().filter(|r| r.id >= 100).count();
        assert!(
            mmtc_before < batch as usize / 2,
            "hit answered after {mmtc_before} of {batch} batch items"
        );
        assert_eq!(hit.queue_time, Duration::ZERO);
        match &hit.outcome {
            Outcome::Solved(s) => assert_eq!(s.batch_size, 1),
            other => panic!("expected Solved, got {other:?}"),
        }
        let snap = service.shutdown();
        assert_eq!(snap.batches, 2, "the hit formed no batch");
        assert_eq!(snap.reuse.admission_hits, 1);
        assert_eq!(snap.reuse.hits, 1);
        // Every cacheable request counted once: 16 cold, 1 hit.
        assert_eq!(snap.reuse.misses, 2 * batch);
        assert_eq!(snap.class(QosClass::Mmtc).admitted, 2 * batch + 1);
        assert_eq!(snap.class(QosClass::Mmtc).solved, 2 * batch + 1);
    }

    #[test]
    fn cached_problem_with_zero_deadline_still_expires_at_enqueue() {
        let (service, client) = service_with_cached_problem(QueuePolicy::default());
        let resp = client
            .solve(problem_request(1, QosClass::Embb, Duration::ZERO))
            .unwrap();
        assert!(
            matches!(
                resp.outcome,
                Outcome::Expired(DeadlineMissed {
                    phase: ExpiryPhase::AtEnqueue,
                    ..
                })
            ),
            "{:?}",
            resp.outcome
        );
        let snap = service.shutdown();
        assert_eq!(snap.class(QosClass::Embb).expired, 1);
        assert_eq!(snap.class(QosClass::Embb).admitted, 0);
        assert_eq!(snap.reuse.hits, 0, "no lookup for an expired request");
    }

    #[test]
    fn cached_problem_after_shutdown_is_still_rejected() {
        let (service, client) = service_with_cached_problem(QueuePolicy::default());
        let snap = service.shutdown();
        assert_eq!(snap.reuse.misses, 1);
        let resp = client
            .solve(problem_request(1, QosClass::Urllc, Duration::from_secs(30)))
            .unwrap();
        assert!(matches!(
            resp.outcome,
            Outcome::Rejected(RejectReason::ShuttingDown)
        ));
        assert_eq!(client.metrics().reuse.hits, 0);
        assert_eq!(client.metrics().class(QosClass::Urllc).rejected, 1);
    }

    #[test]
    fn cached_problem_is_served_when_its_lane_is_full() {
        // A capacity-1 mMTC lane held full by one cold request that
        // waits out a long age trigger.
        let (service, client) = service_with_cached_problem(QueuePolicy {
            mmtc: LanePolicy {
                capacity: 1,
                max_batch: 8,
                max_age: Duration::from_secs(10),
            },
            ..QueuePolicy::default()
        });
        let held = client.submit(spec_request(1, QosClass::Mmtc, Duration::from_secs(30)));
        let cold = client
            .solve(spec_request(2, QosClass::Mmtc, Duration::from_secs(30)))
            .unwrap();
        assert!(
            matches!(
                cold.outcome,
                Outcome::Rejected(RejectReason::QueueFull { capacity: 1, .. })
            ),
            "{:?}",
            cold.outcome
        );
        let hit = client
            .solve(problem_request(3, QosClass::Mmtc, Duration::from_secs(30)))
            .unwrap();
        assert!(
            matches!(hit.outcome, Outcome::Solved(_)),
            "{:?}",
            hit.outcome
        );
        assert_eq!(hit.queue_time, Duration::ZERO);
        // Shutdown drains the held request.
        let snap = service.shutdown();
        assert!(matches!(held.wait().unwrap().outcome, Outcome::Solved(_)));
        let mmtc = snap.class(QosClass::Mmtc);
        assert_eq!((mmtc.admitted, mmtc.rejected, mmtc.solved), (2, 1, 2));
        assert_eq!(snap.lane_high_water(QosClass::Mmtc), 1);
        assert_eq!(snap.reuse.admission_hits, 1);
    }

    #[test]
    fn spawn_rejects_zero_max_batch_policy() {
        let config = ServiceConfig {
            queue: QueuePolicy {
                urllc: LanePolicy {
                    capacity: 8,
                    max_batch: 0,
                    max_age: Duration::ZERO,
                },
                ..QueuePolicy::default()
            },
            ..ServiceConfig::default()
        };
        match Service::spawn(config) {
            Err(ServeError::InvalidPolicy(crate::queue::PolicyError::ZeroMaxBatch { class })) => {
                assert_eq!(class, QosClass::Urllc)
            }
            other => panic!("expected InvalidPolicy, got {other:?}"),
        }
    }

    #[test]
    fn robust_requests_solve_identically_at_any_worker_count() {
        // The robust path adds a batch pre-factor phase; this pins that
        // neither the phase nor the worker count leaks into solutions.
        let solve_all = |workers: usize| -> Vec<u64> {
            let config = ServiceConfig {
                workers,
                queue: QueuePolicy {
                    embb: LanePolicy {
                        capacity: 64,
                        max_batch: 8,
                        max_age: Duration::from_millis(100),
                    },
                    ..QueuePolicy::default()
                },
                ..ServiceConfig::default()
            };
            let service = Service::spawn(config).unwrap();
            let client = service.client();
            let tickets: Vec<Ticket> = (0..6)
                .map(|i| {
                    client.submit(SolveRequest {
                        id: i,
                        class: QosClass::Embb,
                        deadline: Duration::from_secs(30),
                        solver: SolverKind::Robust,
                        payload: Payload::Scenario(ScenarioSpec {
                            users: 3,
                            resource_blocks: 6,
                            seed: 40 + i,
                        }),
                    })
                })
                .collect();
            let rates = tickets
                .into_iter()
                .map(|t| match t.wait().unwrap().outcome {
                    Outcome::Solved(s) => s.solution.total_rate_bps.to_bits(),
                    other => panic!("expected Solved, got {other:?}"),
                })
                .collect();
            service.shutdown();
            rates
        };
        assert_eq!(solve_all(1), solve_all(4));
    }

    #[test]
    fn failed_solves_are_reported_not_panicked() {
        // An infeasible exact solve returns Outcome::Failed.
        let spec = ScenarioSpec {
            users: 2,
            resource_blocks: 2,
            seed: 3,
        };
        let mut problem = spec.to_problem(QosClass::Embb).unwrap();
        problem.min_rates_bps = vec![1e15; 2];
        let service = Service::spawn(ServiceConfig::default()).unwrap();
        let resp = service
            .client()
            .solve(SolveRequest {
                id: 4,
                class: QosClass::Embb,
                deadline: Duration::from_secs(30),
                solver: SolverKind::Exact,
                payload: Payload::Problem(Box::new(problem)),
            })
            .unwrap();
        assert!(
            matches!(resp.outcome, Outcome::Failed(_)),
            "{:?}",
            resp.outcome
        );
        let snap = service.shutdown();
        assert_eq!(snap.class(QosClass::Embb).failed, 1);
    }

    #[test]
    fn urllc_waits_for_one_inflight_solve_not_a_whole_batch() {
        // One worker, one full mMTC batch of real Greedy solves. A URLLC
        // request submitted while the batch is being solved must jump the
        // batch's remaining items: pull dispatch takes work one item at a
        // time, in class-priority order.
        let batch = 8u64;
        let config = ServiceConfig {
            workers: 1,
            queue: QueuePolicy {
                mmtc: LanePolicy {
                    capacity: 64,
                    max_batch: batch as usize,
                    max_age: Duration::from_secs(10),
                },
                ..QueuePolicy::default()
            },
            ..ServiceConfig::default()
        };
        let service = Service::spawn(config).unwrap();
        let client = service.client();
        // One channel for every answer: its order is the answer order.
        let (tx, rx) = mpsc::channel();
        for i in 0..batch {
            client.submit_with(
                spec_request(i, QosClass::Mmtc, Duration::from_secs(30)),
                tx.clone(),
            );
        }
        // The batch is being solved once its first answer is out.
        let first = rx.recv().unwrap();
        assert_eq!(first.class, QosClass::Mmtc);
        let urllc_id = 100;
        client.submit_with(
            spec_request(urllc_id, QosClass::Urllc, Duration::from_secs(30)),
            tx,
        );
        let order: Vec<SolveResponse> = rx.iter().take(batch as usize).collect();
        let urllc_at = order
            .iter()
            .position(|r| r.id == urllc_id)
            .expect("URLLC answered");
        // Answers before the URLLC one: the first plus those that were
        // in flight when it arrived (one worker ⇒ one, barring a
        // descheduled test thread).
        let mmtc_before = 1 + urllc_at;
        assert!(
            mmtc_before < batch as usize / 2,
            "URLLC answered after {mmtc_before} of {batch} batch items"
        );
        for r in std::iter::once(&first).chain(&order) {
            match &r.outcome {
                Outcome::Solved(s) if r.class == QosClass::Mmtc => {
                    assert_eq!(s.batch_size, batch as usize)
                }
                Outcome::Solved(s) => assert_eq!(s.batch_size, 1),
                other => panic!("expected Solved, got {other:?}"),
            }
        }
        let snap = service.shutdown();
        assert_eq!(snap.batches, 2);
    }

    #[test]
    fn queue_time_runs_to_solve_start() {
        // One worker drains a full eMBB batch and solves it item by item:
        // each item's queue_time includes its siblings' solves, and
        // queue + solve never exceeds what the client saw.
        let batch = 6usize;
        let config = ServiceConfig {
            workers: 1,
            queue: QueuePolicy {
                embb: LanePolicy {
                    capacity: 64,
                    max_batch: batch,
                    max_age: Duration::from_secs(10),
                },
                ..QueuePolicy::default()
            },
            ..ServiceConfig::default()
        };
        let service = Service::spawn(config).unwrap();
        let client = service.client();
        let t0 = Instant::now();
        let tickets: Vec<(Instant, Ticket)> = (0..batch as u64)
            .map(|i| {
                let sent = Instant::now();
                let ticket =
                    client.submit(spec_request(i, QosClass::Embb, Duration::from_secs(30)));
                (sent, ticket)
            })
            .collect();
        // Enqueue instants differ by at most the submission span.
        let span = t0.elapsed();
        let mut answers = Vec::new();
        for (sent, ticket) in tickets {
            let resp = ticket.wait().unwrap();
            let seen = sent.elapsed();
            assert!(
                matches!(resp.outcome, Outcome::Solved(_)),
                "{:?}",
                resp.outcome
            );
            assert!(
                resp.queue_time + resp.solve_time <= seen,
                "queue {:?} + solve {:?} > response {seen:?}",
                resp.queue_time,
                resp.solve_time
            );
            answers.push(resp);
        }
        // The last item to start waited for every sibling's solve.
        answers.sort_by_key(|r| r.queue_time);
        let (last, rest) = answers.split_last().unwrap();
        let siblings: Duration = rest.iter().map(|r| r.solve_time).sum();
        assert!(
            last.queue_time + span >= siblings,
            "queue {:?} excludes sibling solves {siblings:?}",
            last.queue_time
        );
        service.shutdown();
    }

    #[test]
    fn ready_list_gates_draining_and_expires_untaken_items() {
        let ms = Duration::from_millis(1);
        let lane = LanePolicy {
            capacity: 8,
            max_batch: 2,
            max_age: Duration::from_secs(10),
        };
        let mut state = State {
            queue: AdmissionQueue::new(&QueuePolicy {
                embb: lane,
                mmtc: lane,
                ..QueuePolicy::default()
            })
            .unwrap(),
            ready: Default::default(),
            planning: [false; 3],
            batches: 0,
            shutdown: false,
        };
        let (tx, _rx) = mpsc::channel();
        let t0 = Instant::now();
        let mut enqueue = |id: u64, class: QosClass, solver: SolverKind, deadline: Duration| {
            let problem = ScenarioSpec {
                users: 3,
                resource_blocks: 6,
                seed: id,
            }
            .to_problem(class)
            .unwrap();
            let job = Job {
                id,
                solver,
                problem,
                responder: tx.clone(),
                batch_size: 0,
                plan: None,
            };
            state
                .queue
                .enqueue(job, class, t0, t0 + deadline)
                .map_err(|_| "enqueue refused")
                .unwrap();
        };
        let greedy = SolverKind::Greedy;
        for id in 1..=4 {
            enqueue(id, QosClass::Mmtc, greedy, 50 * ms * id as u32);
        }
        // A robust eMBB batch is handed out for planning, and its lane
        // stays held back until the planner returns its items.
        enqueue(10, QosClass::Embb, SolverKind::Robust, 900 * ms);
        enqueue(11, QosClass::Embb, SolverKind::Robust, 900 * ms);
        enqueue(12, QosClass::Embb, greedy, 900 * ms);
        enqueue(13, QosClass::Embb, greedy, 900 * ms);
        let taken = |state: &mut State| match state.next_work(t0) {
            Some(Work::Solve(entry)) => (entry.class, entry.item.id, entry.item.batch_size),
            Some(Work::Plan(class, entries)) => (class, entries[0].item.id, entries.len()),
            None => panic!("no work"),
        };
        assert_eq!(taken(&mut state), (QosClass::Embb, 10, 2));
        assert!(state.planning[QosClass::Embb.priority_rank()]);
        // mMTC: the first item of a drained batch; its sibling waits in
        // the ready list, and the full lane is not drained meanwhile.
        assert_eq!(taken(&mut state), (QosClass::Mmtc, 1, 2));
        assert_eq!(state.queue.lane_depth(QosClass::Mmtc), 2);
        assert_eq!(state.batches, 2);
        // The sibling's deadline passes before a worker takes it: it is
        // swept from the ready list, not solved.
        let expired = state.sweep_expired(t0 + 120 * ms);
        let ids: Vec<u64> = expired.iter().map(|e| e.item.id).collect();
        assert_eq!(ids, [2]);
        // With the ready list empty, the lane drains again.
        assert_eq!(taken(&mut state), (QosClass::Mmtc, 3, 2));
        assert_eq!(state.batches, 3);
        assert!(!state.idle());
    }
}
