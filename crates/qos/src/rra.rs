//! The Radio Resource Allocation MINLP and its three solvers.
//!
//! Per the paper's §I formulation: frequency–time resource blocks are the
//! integer variables (which connection owns each block), transmit powers
//! the continuous variables, the objective is spectral efficiency, and
//! per-connection minimum rates are the QoS guarantees. Solvers:
//!
//! * [`solve_exact`] — branch-and-bound over the per-RB best-user convex
//!   relaxation ([`rcr_minlp`]), with water-filling inner solves: the
//!   global optimum with a certificate.
//! * [`solve_pso`] — the metaheuristic the paper leans on (§II-A), using
//!   distribution-attribute discrete PSO with a penalty for unmet rates.
//! * [`solve_greedy`] — the max-gain baseline with a repair pass.

use crate::channel::Channel;
use crate::power::{solve_power, solve_power_into, PowerProblem, PowerScratch, PowerSolution};
use crate::QosError;
use rcr_minlp::{BnbSettings, MinlpError, RelaxableProblem, Relaxation};
use rcr_pso::discrete::{minimize_mixed, DiscreteStrategy, VarSpec};
use rcr_pso::swarm::PsoSettings;
use rcr_runtime::BatchSolve;

/// An RRA problem instance.
#[derive(Debug, Clone)]
pub struct RraProblem {
    channel: Channel,
    /// Noise power per RB (W).
    pub noise_power_w: f64,
    /// Total transmit power budget (W).
    pub power_budget_w: f64,
    /// Bandwidth per RB (Hz).
    pub rb_bandwidth_hz: f64,
    /// Minimum rate per user (bit/s).
    pub min_rates_bps: Vec<f64>,
}

/// A solved allocation.
#[derive(Debug, Clone)]
pub struct RraSolution {
    /// RB → user assignment.
    pub owners: Vec<usize>,
    /// The inner power allocation.
    pub power: PowerSolution,
    /// Total downlink rate (bit/s).
    pub total_rate_bps: f64,
    /// Spectral efficiency (bit/s/Hz over the whole band).
    pub spectral_efficiency: f64,
    /// Whether all minimum rates are satisfied.
    pub qos_satisfied: bool,
}

impl RraSolution {
    /// An empty placeholder (no RBs, zero rate, QoS unmet): the output
    /// buffer [`RraProblem::evaluate_into`] fills.
    pub fn empty() -> RraSolution {
        RraSolution {
            owners: Vec::new(),
            power: PowerSolution::empty(),
            total_rate_bps: 0.0,
            spectral_efficiency: 0.0,
            qos_satisfied: false,
        }
    }
}

/// Reusable buffers for [`RraProblem::evaluate_into`]: the power
/// problem's gains, owners and minimum rates, plus the power solver's
/// own [`PowerScratch`]. One scratch serves any number of evaluations of
/// any problem size; nothing carries over between them.
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    power_problem: PowerProblem,
    power: PowerScratch,
}

impl EvalScratch {
    /// Empty buffers; the first evaluation sizes them.
    pub fn new() -> EvalScratch {
        EvalScratch::default()
    }
}

impl RraProblem {
    /// Builds a problem over a channel realization.
    ///
    /// # Errors
    /// Returns [`QosError::InvalidParameter`] on malformed data.
    // rcr-lint: unit(noise_power_w = PowerLinear, power_budget_w = PowerLinear, rb_bandwidth_hz = Hz, reason = "problem data is linear-domain watts and Hz; dB inputs must be converted upstream")
    pub fn new(
        channel: Channel,
        noise_power_w: f64,
        power_budget_w: f64,
        rb_bandwidth_hz: f64,
        min_rates_bps: Vec<f64>,
    ) -> Result<Self, QosError> {
        if min_rates_bps.len() != channel.users() {
            return Err(QosError::InvalidParameter(format!(
                "{} min rates for {} users",
                min_rates_bps.len(),
                channel.users()
            )));
        }
        if !(noise_power_w > 0.0) || !(power_budget_w > 0.0) || !(rb_bandwidth_hz > 0.0) {
            return Err(QosError::InvalidParameter(
                "noise, budget and bandwidth must be positive".into(),
            ));
        }
        if min_rates_bps.iter().any(|r| *r < 0.0 || !r.is_finite()) {
            return Err(QosError::InvalidParameter(
                "negative or non-finite min rate".into(),
            ));
        }
        Ok(RraProblem {
            channel,
            noise_power_w,
            power_budget_w,
            rb_bandwidth_hz,
            min_rates_bps,
        })
    }

    /// The underlying channel.
    pub fn channel(&self) -> &Channel {
        &self.channel
    }

    /// Number of users.
    pub fn users(&self) -> usize {
        self.channel.users()
    }

    /// Number of resource blocks.
    pub fn resource_blocks(&self) -> usize {
        self.channel.resource_blocks()
    }

    /// Normalized gain `a = g / N` of `user` on `rb`.
    // rcr-lint: unit(return = GainLinear, reason = "linear power ratio gain/noise, the `a_k` of the water-filling inner problem")
    pub fn normalized_gain(&self, user: usize, rb: usize) -> f64 {
        self.channel.gain(user, rb) / self.noise_power_w
    }

    /// Evaluates a full assignment: inner water-filling power solve with
    /// the minimum-rate constraints. One-shot wrapper over
    /// [`RraProblem::evaluate_into`] with a fresh scratch.
    ///
    /// # Errors
    /// Propagates power-allocation failures and index errors.
    pub fn evaluate(&self, owners: &[usize]) -> Result<RraSolution, QosError> {
        let mut out = RraSolution::empty();
        self.evaluate_into(owners, &mut EvalScratch::new(), &mut out)?;
        Ok(out)
    }

    /// [`RraProblem::evaluate`] into caller-owned buffers: bit-identical
    /// to it, and allocation-free on the success path once `scratch` and
    /// `out` have grown to the problem's size. On error `out` is left
    /// unspecified.
    ///
    /// # Errors
    /// Propagates power-allocation failures and index errors.
    pub fn evaluate_into(
        &self,
        owners: &[usize],
        scratch: &mut EvalScratch,
        out: &mut RraSolution,
    ) -> Result<(), QosError> {
        if owners.len() != self.resource_blocks() {
            return Err(QosError::InvalidParameter(format!(
                "{} owners for {} RBs",
                owners.len(),
                self.resource_blocks()
            )));
        }
        if owners.iter().any(|&u| u >= self.users()) {
            return Err(QosError::InvalidParameter(
                "owner index out of range".into(),
            ));
        }
        let problem = &mut scratch.power_problem;
        problem.gains.clear();
        problem.gains.extend(
            owners
                .iter()
                .enumerate()
                .map(|(k, &u)| self.normalized_gain(u, k)),
        );
        problem.owners.clear();
        problem.owners.extend_from_slice(owners);
        problem.power_budget = self.power_budget_w;
        problem.rb_bandwidth_hz = self.rb_bandwidth_hz;
        problem.min_rates_bps.clear();
        problem.min_rates_bps.extend_from_slice(&self.min_rates_bps);
        solve_power_into(problem, &mut scratch.power, &mut out.power)?;
        let band = self.rb_bandwidth_hz * self.resource_blocks() as f64;
        out.owners.clear();
        out.owners.extend_from_slice(owners);
        out.total_rate_bps = out.power.total_rate_bps;
        out.spectral_efficiency = out.power.total_rate_bps / band;
        out.qos_satisfied = out.power.feasible;
        Ok(())
    }

    /// Evaluates many candidate assignments, fanning the independent
    /// water-filling solves across `workers` threads (`0` = auto: the
    /// `RCR_WORKERS` environment variable, else serial).
    ///
    /// Results are returned in input order and are identical to calling
    /// [`RraProblem::evaluate`] per assignment — per-candidate errors are
    /// reported in place rather than aborting the batch. This is the
    /// batched evaluation seam for admission sweeps and scheduling
    /// candidate scoring.
    pub fn evaluate_batch(
        &self,
        assignments: &[Vec<usize>],
        workers: usize,
    ) -> Vec<Result<RraSolution, QosError>> {
        let workers = rcr_runtime::resolve_workers(workers);
        self.solve_batch(assignments, workers)
    }

    /// The relaxation bound for an assignment sub-box: each RB may go to
    /// any user in its index range; taking the per-RB maximum gain and
    /// water-filling without rate constraints over-estimates every
    /// feasible completion.
    fn relaxation_rate(&self, bounds: &[(i64, i64)]) -> Result<(f64, Vec<f64>), QosError> {
        let best: Vec<(usize, f64)> = bounds
            .iter()
            .enumerate()
            .map(|(k, &(lo, hi))| {
                let mut best_u = lo as usize;
                let mut best_g = f64::NEG_INFINITY;
                for u in lo..=hi {
                    let g = self.normalized_gain(u as usize, k);
                    if g > best_g {
                        best_g = g;
                        best_u = u as usize;
                    }
                }
                (best_u, best_g)
            })
            .collect();
        let gains: Vec<f64> = best.iter().map(|&(_, g)| g).collect();
        let owners: Vec<usize> = best.iter().map(|&(u, _)| u).collect();
        let sol = solve_power(&PowerProblem {
            gains,
            owners: owners.clone(),
            power_budget: self.power_budget_w,
            rb_bandwidth_hz: self.rb_bandwidth_hz,
            min_rates_bps: vec![0.0; self.users()],
        })?;
        Ok((
            sol.total_rate_bps,
            owners.iter().map(|&u| u as f64).collect(),
        ))
    }
}

/// Candidate-assignment evaluation is the batch-solve workload of the
/// QoS layer: each item is an independent inner water-filling solve, so
/// the runtime's generic fan-out applies directly. [`RraProblem::evaluate_batch`]
/// routes through this impl.
impl BatchSolve for RraProblem {
    type Item = Vec<usize>;
    type Output = Result<RraSolution, QosError>;

    fn solve_item(&self, _index: usize, owners: &Vec<usize>) -> Self::Output {
        self.evaluate(owners)
    }
}

/// MINLP view of an RRA problem (minimizing `−total_rate`).
#[derive(Debug)]
struct RraMinlp<'a> {
    problem: &'a RraProblem,
}

impl RelaxableProblem for RraMinlp<'_> {
    fn num_integers(&self) -> usize {
        self.problem.resource_blocks()
    }

    fn integer_bounds(&self) -> Vec<(i64, i64)> {
        vec![(0, self.problem.users() as i64 - 1); self.problem.resource_blocks()]
    }

    fn solve_relaxation(&self, bounds: &[(i64, i64)]) -> Result<Relaxation, MinlpError> {
        let (rate, values) = self
            .problem
            .relaxation_rate(bounds)
            .map_err(|e| MinlpError::SubproblemFailure(e.to_string()))?;
        Ok(Relaxation {
            lower_bound: -rate,
            values,
        })
    }

    fn evaluate_assignment(&self, assignment: &[i64]) -> Result<Option<f64>, MinlpError> {
        let owners: Vec<usize> = assignment.iter().map(|&v| v as usize).collect();
        let sol = self
            .problem
            .evaluate(&owners)
            .map_err(|e| MinlpError::SubproblemFailure(e.to_string()))?;
        Ok(if sol.qos_satisfied {
            Some(-sol.total_rate_bps)
        } else {
            None
        })
    }
}

/// Solves the RRA MINLP to proven optimality by branch-and-bound.
///
/// # Errors
/// Propagates [`rcr_minlp`] errors (infeasibility, budget exhaustion).
pub fn solve_exact(problem: &RraProblem, settings: &BnbSettings) -> Result<RraSolution, QosError> {
    let adapter = RraMinlp { problem };
    let report = rcr_minlp::solve(&adapter, settings)?;
    let owners: Vec<usize> = report.assignment.iter().map(|&v| v as usize).collect();
    problem.evaluate(&owners)
}

/// The relaxation upper bound on the total rate (drop integrality *and*
/// minimum rates) — the certificate companion to heuristic solvers.
// rcr-lint: unit(return = BitsPerSec, reason = "upper bound on the same bit/s objective the solvers report")
pub fn relaxation_bound_bps(problem: &RraProblem) -> f64 {
    let bounds = vec![(0i64, problem.users() as i64 - 1); problem.resource_blocks()];
    // Validated problem data cannot fail the unconstrained water-filling;
    // degrade to 0 (a useless but sound bound) rather than panicking.
    problem
        .relaxation_rate(&bounds)
        .map(|(r, _)| r)
        .unwrap_or(0.0)
}

/// Solves the RRA problem with discrete PSO (distribution attributes) and
/// a rate-violation penalty.
///
/// # Errors
/// Propagates PSO and evaluation errors.
pub fn solve_pso(problem: &RraProblem, settings: &PsoSettings) -> Result<RraSolution, QosError> {
    let specs = vec![
        VarSpec::Integer {
            lo: 0,
            hi: problem.users() as i64 - 1
        };
        problem.resource_blocks()
    ];
    let band = problem.rb_bandwidth_hz * problem.resource_blocks() as f64;
    // One set of buffers serves every fitness call of the swarm.
    let mut owners = Vec::with_capacity(problem.resource_blocks());
    let mut scratch = EvalScratch::new();
    let mut sol = RraSolution::empty();
    let fitness = |x: &[f64]| -> f64 {
        owners.clear();
        owners.extend(x.iter().map(|&v| v as usize));
        match problem.evaluate_into(&owners, &mut scratch, &mut sol) {
            Ok(()) => {
                let violation: f64 = sol
                    .power
                    .user_rates_bps
                    .iter()
                    .zip(&problem.min_rates_bps)
                    .map(|(r, m)| (m - r).max(0.0))
                    .sum();
                (-sol.total_rate_bps + 10.0 * violation) / band
            }
            Err(_) => f64::MAX / 1e6,
        }
    };
    let result = minimize_mixed(fitness, &specs, DiscreteStrategy::Distribution, settings)?;
    let owners: Vec<usize> = result.best_position.iter().map(|&v| v as usize).collect();
    problem.evaluate(&owners)
}

/// Greedy baseline: give each RB to its best-gain user, then repair unmet
/// minimum rates by reassigning the weakest blocks of over-served users.
///
/// # Errors
/// Propagates evaluation errors.
pub fn solve_greedy(problem: &RraProblem) -> Result<RraSolution, QosError> {
    // IEEE total order throughout this solver: a NaN gain ranks above
    // every finite gain (total_cmp), so a corrupt channel entry claims
    // the block deterministically and surfaces in evaluate() instead of
    // panicking mid-assignment.
    let mut owners = Vec::with_capacity(problem.resource_blocks());
    for k in 0..problem.resource_blocks() {
        let owner = (0..problem.users())
            .max_by(|&a, &b| {
                problem
                    .normalized_gain(a, k)
                    .total_cmp(&problem.normalized_gain(b, k))
            })
            .ok_or_else(|| QosError::InvalidParameter("problem has no users".into()))?;
        owners.push(owner);
    }
    repair_min_rates(problem, &mut owners)
}

/// Evaluates `owners`, then runs the repair pass shared by the greedy and
/// robust solvers: while some user misses its minimum rate, hand the
/// most-deficient user its best-gain block among those it does not own,
/// re-evaluating after each steal (bounded by one round per resource
/// block). One [`EvalScratch`] serves every evaluation of the pass.
///
/// # Errors
/// Propagates evaluation errors.
pub(crate) fn repair_min_rates(
    problem: &RraProblem,
    owners: &mut [usize],
) -> Result<RraSolution, QosError> {
    let mut scratch = EvalScratch::new();
    let mut best = RraSolution::empty();
    problem.evaluate_into(owners, &mut scratch, &mut best)?;
    for _round in 0..problem.resource_blocks() {
        if best.qos_satisfied {
            break;
        }
        let rates = &best.power.user_rates_bps;
        let Some(needy) = (0..problem.users())
            .filter(|&u| rates[u] < problem.min_rates_bps[u] - 1e-9)
            .max_by(|&a, &b| {
                let da = problem.min_rates_bps[a] - rates[a];
                let db = problem.min_rates_bps[b] - rates[b];
                // NaN deficit ranks greatest: the corrupt user is
                // repaired first and the NaN reaches evaluate().
                da.total_cmp(&db)
            })
        else {
            break;
        };
        let candidate = (0..problem.resource_blocks())
            .filter(|&k| owners[k] != needy)
            .max_by(|&a, &b| {
                problem
                    .normalized_gain(needy, a)
                    .total_cmp(&problem.normalized_gain(needy, b))
            });
        let Some(k) = candidate else { break };
        owners[k] = needy;
        problem.evaluate_into(owners, &mut scratch, &mut best)?;
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{Channel, ChannelConfig};

    fn problem(users: usize, rbs: usize, seed: u64, min_rate: f64) -> RraProblem {
        let ch = Channel::generate(&ChannelConfig::default(), users, rbs, seed).unwrap();
        RraProblem::new(ch, 1e-12, 1.0, 180e3, vec![min_rate; users]).unwrap()
    }

    /// `evaluate` through the allocating oracle power solve.
    fn evaluate_reference(p: &RraProblem, owners: &[usize]) -> RraSolution {
        let gains = owners
            .iter()
            .enumerate()
            .map(|(k, &u)| p.normalized_gain(u, k))
            .collect();
        let power = crate::power::solve_power_reference(&PowerProblem {
            gains,
            owners: owners.to_vec(),
            power_budget: p.power_budget_w,
            rb_bandwidth_hz: p.rb_bandwidth_hz,
            min_rates_bps: p.min_rates_bps.clone(),
        })
        .unwrap();
        let band = p.rb_bandwidth_hz * p.resource_blocks() as f64;
        RraSolution {
            owners: owners.to_vec(),
            total_rate_bps: power.total_rate_bps,
            spectral_efficiency: power.total_rate_bps / band,
            qos_satisfied: power.feasible,
            power,
        }
    }

    fn assert_bit_identical(a: &RraSolution, b: &RraSolution) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(a.owners, b.owners);
        assert_eq!(bits(&a.power.powers), bits(&b.power.powers));
        assert_eq!(bits(&a.power.rb_rates_bps), bits(&b.power.rb_rates_bps));
        assert_eq!(bits(&a.power.user_rates_bps), bits(&b.power.user_rates_bps));
        assert_eq!(a.total_rate_bps.to_bits(), b.total_rate_bps.to_bits());
        assert_eq!(
            a.spectral_efficiency.to_bits(),
            b.spectral_efficiency.to_bits()
        );
        assert_eq!(a.qos_satisfied, b.qos_satisfied);
        assert_eq!(a.power.feasible, b.power.feasible);
    }

    #[test]
    fn evaluate_into_reuses_scratch_bit_identically() {
        let mut scratch = EvalScratch::new();
        let mut out = RraSolution::empty();
        for (users, rbs, seed) in [(3, 6, 1u64), (8, 32, 2), (3, 6, 3), (2, 4, 4)] {
            let p = problem(users, rbs, seed, 1e5);
            for shift in 0..users {
                let owners: Vec<usize> = (0..rbs).map(|k| (k * 7 + shift) % users).collect();
                p.evaluate_into(&owners, &mut scratch, &mut out).unwrap();
                assert_bit_identical(&out, &p.evaluate(&owners).unwrap());
                assert_bit_identical(&out, &evaluate_reference(&p, &owners));
            }
        }
        // A rejected assignment leaves the scratch usable.
        let p = problem(3, 6, 1, 1e5);
        assert!(p.evaluate_into(&[0, 1], &mut scratch, &mut out).is_err());
        p.evaluate_into(&[0, 1, 2, 0, 1, 2], &mut scratch, &mut out)
            .unwrap();
        assert_bit_identical(&out, &evaluate_reference(&p, &[0, 1, 2, 0, 1, 2]));
    }

    /// Greedy, Robust, Exact and PSO answers (owners, total-rate bits) as
    /// the allocating power solve produced them, per channel seed.
    type Golden = [(&'static [usize], u64); 4];
    const SOLVER_GOLDEN: [(u64, Golden); 3] = [
        (
            1,
            [
                (&[2, 2, 2, 1, 2, 0], 0x4150_0828_0e99_c86a),
                (&[2, 2, 2, 1, 2, 0], 0x4150_0828_0e99_c86a),
                (&[2, 0, 2, 1, 2, 2], 0x4150_a584_9aa3_3aa8),
                (&[2, 0, 1, 1, 2, 2], 0x414c_58a4_140d_f7d0),
            ],
        ),
        (
            2,
            [
                (&[0, 1, 2, 2, 2, 0], 0x4136_8095_893f_8f6c),
                (&[0, 1, 2, 2, 2, 0], 0x4136_8095_893f_8f6c),
                (&[0, 1, 2, 2, 2, 0], 0x4136_8095_893f_8f6c),
                (&[0, 2, 1, 2, 1, 0], 0x4130_edf7_93ae_2c16),
            ],
        ),
        (
            3,
            [
                (&[1, 2, 0, 0, 0, 0], 0x4155_b554_0e03_0702),
                (&[1, 2, 0, 0, 0, 0], 0x4155_b554_0e03_0702),
                (&[1, 2, 0, 0, 0, 0], 0x4155_b554_0e03_0702),
                (&[1, 2, 0, 0, 0, 0], 0x4155_b554_0e03_0702),
            ],
        ),
    ];

    #[test]
    fn every_solver_answer_matches_the_reference_evaluation() {
        for (seed, golden) in SOLVER_GOLDEN {
            let p = problem(3, 6, seed, 1e5);
            let pso = PsoSettings {
                swarm_size: 10,
                max_iter: 15,
                seed,
                ..Default::default()
            };
            let answers = [
                solve_greedy(&p).unwrap(),
                crate::robust::solve_robust_auto(&p).unwrap(),
                solve_exact(&p, &BnbSettings::default()).unwrap(),
                solve_pso(&p, &pso).unwrap(),
            ];
            for (sol, (owners, total_bits)) in answers.iter().zip(golden) {
                assert_bit_identical(sol, &evaluate_reference(&p, &sol.owners));
                assert_eq!(sol.owners, owners, "seed {seed}");
                assert_eq!(sol.total_rate_bps.to_bits(), total_bits, "seed {seed}");
            }
        }
    }

    #[test]
    fn evaluate_checks_inputs() {
        let p = problem(2, 4, 1, 0.0);
        assert!(p.evaluate(&[0, 1]).is_err());
        assert!(p.evaluate(&[0, 1, 2, 0]).is_err());
        assert!(p.evaluate(&[0, 1, 0, 1]).is_ok());
    }

    #[test]
    fn exact_beats_or_matches_greedy() {
        for seed in [1u64, 2, 3] {
            let p = problem(3, 5, seed, 1e5);
            let exact = solve_exact(&p, &BnbSettings::default()).unwrap();
            let greedy = solve_greedy(&p).unwrap();
            assert!(exact.qos_satisfied);
            if greedy.qos_satisfied {
                assert!(
                    exact.total_rate_bps >= greedy.total_rate_bps - 1e-6,
                    "seed {seed}: exact {} < greedy {}",
                    exact.total_rate_bps,
                    greedy.total_rate_bps
                );
            }
        }
    }

    #[test]
    fn exact_within_relaxation_bound() {
        let p = problem(3, 6, 5, 1e5);
        let exact = solve_exact(&p, &BnbSettings::default()).unwrap();
        let bound = relaxation_bound_bps(&p);
        assert!(exact.total_rate_bps <= bound + 1e-6);
        // The bound should not be absurdly loose on small instances.
        assert!(
            exact.total_rate_bps > 0.5 * bound,
            "rate {} bound {bound}",
            exact.total_rate_bps
        );
    }

    #[test]
    fn exact_matches_brute_force_tiny() {
        let p = problem(2, 4, 7, 5e4);
        let exact = solve_exact(&p, &BnbSettings::default()).unwrap();
        // Brute force all 2^4 assignments.
        let mut best = 0.0f64;
        for mask in 0..16usize {
            let owners: Vec<usize> = (0..4).map(|k| (mask >> k) & 1).collect();
            let sol = p.evaluate(&owners).unwrap();
            if sol.qos_satisfied && sol.total_rate_bps > best {
                best = sol.total_rate_bps;
            }
        }
        assert!(
            (exact.total_rate_bps - best).abs() <= 1e-6 * best,
            "bnb {} vs brute {best}",
            exact.total_rate_bps
        );
    }

    #[test]
    fn pso_finds_feasible_near_optimal() {
        let p = problem(3, 6, 9, 1e5);
        let exact = solve_exact(&p, &BnbSettings::default()).unwrap();
        let pso = solve_pso(
            &p,
            &PsoSettings {
                swarm_size: 20,
                max_iter: 60,
                seed: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            pso.qos_satisfied,
            "PSO rates {:?}",
            pso.power.user_rates_bps
        );
        assert!(
            pso.total_rate_bps >= 0.85 * exact.total_rate_bps,
            "pso {} vs exact {}",
            pso.total_rate_bps,
            exact.total_rate_bps
        );
    }

    #[test]
    fn infeasible_min_rates_detected() {
        let p = problem(2, 2, 3, 1e12);
        assert!(matches!(
            solve_exact(&p, &BnbSettings::default()),
            Err(QosError::Solver(_))
        ));
    }

    #[test]
    fn spectral_efficiency_consistent() {
        let p = problem(2, 4, 11, 0.0);
        let sol = solve_greedy(&p).unwrap();
        let band = 180e3 * 4.0;
        assert!((sol.spectral_efficiency - sol.total_rate_bps / band).abs() < 1e-12);
        assert!(sol.spectral_efficiency > 0.0);
    }

    #[test]
    fn problem_validation() {
        let ch = Channel::generate(&ChannelConfig::default(), 2, 2, 0).unwrap();
        assert!(RraProblem::new(ch.clone(), 1e-12, 1.0, 180e3, vec![0.0]).is_err());
        assert!(RraProblem::new(ch.clone(), 0.0, 1.0, 180e3, vec![0.0, 0.0]).is_err());
        assert!(RraProblem::new(ch, 1e-12, 1.0, 180e3, vec![-1.0, 0.0]).is_err());
    }
}
