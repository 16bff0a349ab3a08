//! The typed request/response model of the solver service.
//!
//! A [`SolveRequest`] names a service class, a deadline budget, a solver,
//! and a payload (either a concrete [`RraProblem`] or a compact
//! [`ScenarioSpec`] the service expands deterministically). Every request
//! is answered by exactly one [`SolveResponse`] whose [`Outcome`] is one
//! of *solved*, *rejected* (backpressure), *expired* (deadline missed),
//! or *failed* (solver error) — the service never drops a request
//! silently.

use rcr_qos::rra::{RraProblem, RraSolution};
use rcr_qos::workload::{Scenario, ScenarioConfig};
use rcr_qos::{QosClass, QosError};
use std::time::Duration;

/// Which RRA solver a request runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SolverKind {
    /// Greedy max-gain assignment with rate repair, the default for
    /// interactive traffic. One power allocation per repair round: at 3
    /// users × 6 RBs a served solve measured 1.9 ms p50 and 13 ms p99
    /// (release build, 2-vCPU host).
    #[default]
    Greedy,
    /// Exact branch-and-bound over the convex relaxation — optimal with
    /// a certificate, milliseconds to seconds.
    Exact,
    /// Discrete PSO metaheuristic — near-optimal, tunable budget.
    Pso,
    /// Robust convex relaxation — hedges the assignment against channel
    /// uncertainty via a margin-discounted box QP whose KKT factor the
    /// service pre-builds per batch through `rcr_linalg::BatchFactor`.
    Robust,
}

impl SolverKind {
    /// Canonical lower-case wire name (`"greedy"`, `"exact"`, `"pso"`,
    /// `"robust"`).
    pub fn name(&self) -> &'static str {
        match self {
            SolverKind::Greedy => "greedy",
            SolverKind::Exact => "exact",
            SolverKind::Pso => "pso",
            SolverKind::Robust => "robust",
        }
    }

    /// Parses a wire name, case-insensitively.
    pub fn from_name(name: &str) -> Option<SolverKind> {
        let name = name.trim();
        [
            SolverKind::Greedy,
            SolverKind::Exact,
            SolverKind::Pso,
            SolverKind::Robust,
        ]
        .into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(name))
    }
}

/// A compact, wire-friendly problem description: a single-class cell of
/// `users` on `resource_blocks`, realized deterministically from `seed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// Number of users in the cell.
    pub users: usize,
    /// Number of resource blocks.
    pub resource_blocks: usize,
    /// Channel-realization seed; the same `(class, spec)` always expands
    /// to the same problem, which is what makes fixed request traces
    /// bit-reproducible across service runs and worker counts.
    pub seed: u64,
}

impl ScenarioSpec {
    /// Expands the spec into a concrete [`RraProblem`] whose every user
    /// carries `class`.
    ///
    /// # Errors
    /// Propagates scenario-generation failures as [`QosError`].
    pub fn to_problem(&self, class: QosClass) -> Result<RraProblem, QosError> {
        let config = ScenarioConfig::single_class(class, self.users, self.resource_blocks);
        Scenario::generate(&config, self.seed).map(|s| s.rra)
    }
}

/// What a request asks the service to solve.
#[derive(Debug, Clone)]
pub enum Payload {
    /// A concrete problem instance, handed over by an in-process caller.
    Problem(Box<RraProblem>),
    /// A spec the service expands via [`ScenarioSpec::to_problem`] — the
    /// form the TCP wire protocol carries.
    Scenario(ScenarioSpec),
}

/// One unit of service work.
#[derive(Debug, Clone)]
pub struct SolveRequest {
    /// Caller-chosen correlation id, echoed verbatim in the response.
    pub id: u64,
    /// Service class — selects the admission lane and batching policy.
    pub class: QosClass,
    /// Deadline budget measured from enqueue; a response after this
    /// budget reports [`Outcome::Expired`], never a late solution.
    pub deadline: Duration,
    /// Solver to run.
    pub solver: SolverKind,
    /// The problem.
    pub payload: Payload,
}

/// Why a request was refused admission (backpressure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The class's lane was at capacity — the explicit alternative to
    /// unbounded buffering.
    QueueFull {
        /// Lane depth observed at enqueue.
        depth: usize,
        /// The lane's configured capacity.
        capacity: usize,
    },
    /// The service is shutting down and no longer admits work.
    ShuttingDown,
}

/// Where on its path a request's deadline was missed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpiryPhase {
    /// Already past deadline when enqueue was attempted.
    AtEnqueue,
    /// Expired while waiting in its lane.
    InQueue,
    /// The solve finished after the deadline; the solution is withheld
    /// so a "solved" response always means "solved in time".
    AfterSolve,
}

/// A missed deadline, with where and by how much.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineMissed {
    /// Where the miss was detected.
    pub phase: ExpiryPhase,
    /// How far past the deadline the request was at detection.
    pub late_by: Duration,
}

/// The solved portion of a response.
#[derive(Debug, Clone)]
pub struct Solved {
    /// The allocation.
    pub solution: RraSolution,
    /// How many requests shared the batch this one was solved in.
    pub batch_size: usize,
}

/// Exactly one of these describes every request's fate.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Solved within deadline.
    Solved(Solved),
    /// Refused admission.
    Rejected(RejectReason),
    /// Deadline missed.
    Expired(DeadlineMissed),
    /// The solver itself failed.
    Failed(String),
}

impl Outcome {
    /// Canonical wire tag of the variant.
    pub fn tag(&self) -> &'static str {
        match self {
            Outcome::Solved(_) => "solved",
            Outcome::Rejected(_) => "rejected",
            Outcome::Expired(_) => "expired",
            Outcome::Failed(_) => "failed",
        }
    }
}

/// The service's answer to one [`SolveRequest`].
#[derive(Debug, Clone)]
pub struct SolveResponse {
    /// The request's correlation id.
    pub id: u64,
    /// The request's service class.
    pub class: QosClass,
    /// What happened.
    pub outcome: Outcome,
    /// Time spent queued (enqueue → batch drain; zero for requests never
    /// admitted).
    pub queue_time: Duration,
    /// Time spent solving (zero for requests never solved).
    pub solve_time: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solver_names_round_trip() {
        for kind in [
            SolverKind::Greedy,
            SolverKind::Exact,
            SolverKind::Pso,
            SolverKind::Robust,
        ] {
            assert_eq!(SolverKind::from_name(kind.name()), Some(kind));
            assert_eq!(
                SolverKind::from_name(&kind.name().to_uppercase()),
                Some(kind)
            );
        }
        assert_eq!(SolverKind::from_name("simplex"), None);
        assert_eq!(SolverKind::default(), SolverKind::Greedy);
    }

    #[test]
    fn scenario_spec_expands_deterministically() {
        let spec = ScenarioSpec {
            users: 3,
            resource_blocks: 6,
            seed: 9,
        };
        let a = spec.to_problem(QosClass::Embb).unwrap();
        let b = spec.to_problem(QosClass::Embb).unwrap();
        assert_eq!(a.min_rates_bps, b.min_rates_bps);
        assert_eq!(a.users(), 3);
        assert_eq!(a.resource_blocks(), 6);
        // Class changes the rate floors.
        let c = spec.to_problem(QosClass::Mmtc).unwrap();
        assert!(c.min_rates_bps[0] < a.min_rates_bps[0]);
    }

    #[test]
    fn outcome_tags() {
        assert_eq!(Outcome::Failed("x".into()).tag(), "failed");
        assert_eq!(
            Outcome::Rejected(RejectReason::ShuttingDown).tag(),
            "rejected"
        );
    }
}
