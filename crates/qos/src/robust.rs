//! Robust convex relaxation of the RRA assignment with a batched
//! pre-factorization path.
//!
//! The paper's robustness recipe: instead of assigning each resource block
//! greedily on the nominal channel, hedge against channel uncertainty by
//! (1) measuring the spread of the per-user gain profiles through the
//! spectrum of their Gram matrix — a wide spectral range means user
//! profiles that disagree strongly across the band, i.e. an assignment
//! sensitive to estimation error — and (2) solving a box-constrained QP
//! whose linear term is the nominal gain *discounted by that uncertainty
//! margin* and whose quadratic term couples users sharing a block through
//! the same Gram matrix. The relaxed solution is rounded per-block and then
//! repaired by the same minimum-rate repair pass the greedy solver uses.
//!
//! The expensive pieces — one `users x users` eigendecomposition and one
//! `n x n` KKT Cholesky per request — are exactly the shape
//! [`rcr_linalg::BatchFactor`] batches: [`plan_batch`] pre-factors a whole
//! serve batch through the worker pool, and [`solve_robust`] consumes one
//! pre-built [`RobustPlan`] without refactorizing.

use rcr_convex::qp::{QpProblem, QpSettings, QpSolution};
use rcr_linalg::{BatchFactor, Cholesky, Matrix};

use crate::rra::{repair_min_rates, RraProblem, RraSolution};
use crate::QosError;

/// Weight of the Gram coupling term in the QP objective. Keeps
/// `alpha·C + I` well-conditioned (C has unit-bounded entries) while still
/// penalizing x-mass on spectrally-correlated users.
const ROBUST_ALPHA: f64 = 0.5;

/// Scale of the uncertainty discount derived from the Gram spectral range.
const ROBUST_BETA: f64 = 0.25;

/// ADMM settings for the relaxation QP. Fixed (not caller-supplied) so a
/// plan's KKT factor always matches the settings the solve will use.
fn robust_qp_settings() -> QpSettings {
    QpSettings {
        max_iter: 4000,
        eps_abs: 1e-6,
        eps_rel: 1e-6,
        ..QpSettings::default()
    }
}

/// A pre-factored robust relaxation for one request: the assembled QP and
/// the Cholesky factor of its condensed KKT matrix.
#[derive(Debug, Clone)]
pub struct RobustPlan {
    qp: QpProblem,
    factor: Cholesky,
    users: usize,
    rbs: usize,
}

/// Normalized gain weights `w[u][rb] ∈ [0, 1]` (nominal gains scaled by
/// the problem-wide maximum; an all-zero or non-finite channel yields all
/// zeros, which downstream degrades to margin 0 and a uniform objective).
fn weights(problem: &RraProblem) -> Vec<Vec<f64>> {
    let users = problem.users();
    let rbs = problem.resource_blocks();
    let mut gmax = 0.0f64;
    for u in 0..users {
        for r in 0..rbs {
            let g = problem.normalized_gain(u, r);
            if g.is_finite() && g > gmax {
                gmax = g;
            }
        }
    }
    let scale = if gmax > 0.0 { 1.0 / gmax } else { 0.0 };
    (0..users)
        .map(|u| {
            (0..rbs)
                .map(|r| {
                    let g = problem.normalized_gain(u, r) * scale;
                    if g.is_finite() {
                        g.clamp(0.0, 1.0)
                    } else {
                        0.0
                    }
                })
                .collect()
        })
        .collect()
}

/// Gram matrix of the weight profiles: `C[i][j] = ⟨w_i, w_j⟩ / rbs`.
/// Symmetric PSD with entries in `[0, 1]`.
fn gram(problem: &RraProblem) -> Matrix {
    let users = problem.users();
    let rbs = problem.resource_blocks();
    let w = weights(problem);
    Matrix::from_fn(users, users, |i, j| {
        let mut s = 0.0;
        for r in 0..rbs {
            s += w[i][r] * w[j][r];
        }
        s / rbs.max(1) as f64
    })
}

/// Assembles the relaxation QP for one request given its uncertainty
/// margin. Variables `x[u·rbs + r] ∈ [0, 1]` relax the block-ownership
/// indicators; per block the coupling is `alpha·C + I` (block-diagonal in
/// `r`, so `P` is PSD), the linear term rewards margin-discounted gain,
/// and one constraint row per block caps the block's total mass at 1.
fn assemble_qp(problem: &RraProblem, margin: f64, gram_c: &Matrix) -> Result<QpProblem, QosError> {
    let users = problem.users();
    let rbs = problem.resource_blocks();
    let n = users * rbs;
    let w = weights(problem);
    let p = Matrix::from_fn(n, n, |row, col| {
        let (u, r) = (row / rbs, row % rbs);
        let (v, r2) = (col / rbs, col % rbs);
        if r != r2 {
            return 0.0;
        }
        ROBUST_ALPHA * gram_c[(u, v)] + if u == v { 1.0 } else { 0.0 }
    });
    let q: Vec<f64> = (0..n).map(|i| -(w[i / rbs][i % rbs] - margin)).collect();
    // Rows 0..n: box 0 <= x <= 1. Rows n..n+rbs: per-block mass <= 1.
    let m = n + rbs;
    let a = Matrix::from_fn(m, n, |row, col| {
        if row < n {
            return if row == col { 1.0 } else { 0.0 };
        }
        if col % rbs == row - n {
            1.0
        } else {
            0.0
        }
    });
    let mut l = vec![0.0; m];
    let mut u_bound = vec![1.0; m];
    for i in n..m {
        l[i] = 0.0;
        u_bound[i] = 1.0;
    }
    QpProblem::new(p, q, a, l, u_bound)
        .map_err(|e| QosError::Solver(format!("robust QP assembly: {e}")))
}

/// Uncertainty margin from the Gram spectrum: `beta·sqrt(range/users)`
/// where `range` is the spectral spread `λ_max − λ_min`.
fn margin_from_spectrum(vals: &[f64], users: usize) -> f64 {
    match (vals.first(), vals.last()) {
        (Some(lo), Some(hi)) => ROBUST_BETA * (((hi - lo).max(0.0)) / users.max(1) as f64).sqrt(),
        _ => 0.0,
    }
}

/// Pre-factors the robust relaxations of a whole batch of independent
/// requests: Gram assembly in parallel, one batched eigendecomposition for
/// the margins, QP/KKT assembly in parallel, one batched Cholesky for the
/// factors. Per-item results are bit-identical for every worker count —
/// parallelism is only across requests.
pub fn plan_batch(problems: &[&RraProblem], workers: usize) -> Vec<Result<RobustPlan, QosError>> {
    let batch = BatchFactor::new(workers);
    let settings = robust_qp_settings();

    let grams: Vec<Matrix> = rcr_runtime::parallel_map(problems, workers, |_, p| gram(p));
    let eigs = batch.eigh_batch(&grams);
    let margins: Vec<Result<f64, QosError>> = eigs
        .iter()
        .zip(problems)
        .map(|(e, p)| match e {
            Ok(e) => Ok(margin_from_spectrum(e.eigenvalues(), p.users())),
            Err(err) => Err(QosError::Solver(format!("gram eigendecomposition: {err}"))),
        })
        .collect();

    let qps: Vec<Result<(QpProblem, Matrix), QosError>> =
        rcr_runtime::parallel_map(problems, workers, |i, p| {
            let margin = margins[i].clone()?;
            let qp = assemble_qp(p, margin, &grams[i])?;
            let kkt = qp
                .kkt_matrix(settings.rho, settings.sigma)
                .map_err(|e| QosError::Solver(format!("robust KKT assembly: {e}")))?;
            Ok((qp, kkt))
        });

    // Batched Cholesky over the successfully assembled KKT matrices;
    // failed items get a 1x1 placeholder whose factor is discarded.
    let kkts: Vec<Matrix> = qps
        .iter()
        .map(|r| match r {
            Ok((_, kkt)) => kkt.clone(),
            Err(_) => Matrix::identity(1),
        })
        .collect();
    let factors = batch.cholesky_batch(&kkts);

    qps.into_iter()
        .zip(factors)
        .zip(problems)
        .map(|((qp, factor), p)| {
            let (qp, _) = qp?;
            let factor =
                factor.map_err(|e| QosError::Solver(format!("robust KKT factorization: {e}")))?;
            Ok(RobustPlan {
                qp,
                factor,
                users: p.users(),
                rbs: p.resource_blocks(),
            })
        })
        .collect()
}

/// Builds a [`RobustPlan`] for a single request (the serve path uses
/// [`plan_batch`]; this is the fallback when no pre-factor phase ran).
///
/// # Errors
/// Propagates assembly/factorization failures as [`QosError::Solver`].
pub fn plan_one(problem: &RraProblem) -> Result<RobustPlan, QosError> {
    plan_batch(&[problem], 1)
        .pop()
        .unwrap_or_else(|| Err(QosError::Solver("empty plan batch".into())))
}

/// Solves the robust relaxation using a pre-built plan, rounds the relaxed
/// assignment per block, and repairs minimum rates.
///
/// # Errors
/// * [`QosError::InvalidParameter`] when the plan was built for different
///   problem dimensions.
/// * [`QosError::Solver`] when the QP solve fails.
/// * Evaluation errors from the rounded assignment.
pub fn solve_robust(problem: &RraProblem, plan: &RobustPlan) -> Result<RraSolution, QosError> {
    let users = problem.users();
    let rbs = problem.resource_blocks();
    if plan.users != users || plan.rbs != rbs {
        return Err(QosError::InvalidParameter(format!(
            "plan built for {}x{} (users x RBs), problem is {}x{}",
            plan.users, plan.rbs, users, rbs
        )));
    }
    let sol: QpSolution = plan
        .qp
        .solve_prefactored(&robust_qp_settings(), &plan.factor)
        .map_err(|e| QosError::Solver(format!("robust QP solve: {e}")))?;
    // Round: each block goes to the user holding the most relaxed mass on
    // it. total_cmp so NaN (corrupt input) claims deterministically and
    // surfaces in evaluate() instead of panicking here.
    let mut owners = Vec::with_capacity(rbs);
    for r in 0..rbs {
        let owner = (0..users)
            .max_by(|&a, &b| sol.x[a * rbs + r].total_cmp(&sol.x[b * rbs + r]))
            .ok_or_else(|| QosError::InvalidParameter("problem has no users".into()))?;
        owners.push(owner);
    }
    repair_min_rates(problem, &mut owners)
}

/// One-shot robust solve: builds the plan inline and solves. Equivalent to
/// `solve_robust(problem, &plan_one(problem)?)`.
///
/// # Errors
/// As for [`plan_one`] and [`solve_robust`].
pub fn solve_robust_auto(problem: &RraProblem) -> Result<RraSolution, QosError> {
    let plan = plan_one(problem)?;
    solve_robust(problem, &plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{Channel, ChannelConfig};
    use crate::rra::solve_greedy;

    fn problem(users: usize, rbs: usize, seed: u64, min_rate: f64) -> RraProblem {
        let ch = Channel::generate(&ChannelConfig::default(), users, rbs, seed).unwrap();
        RraProblem::new(ch, 1e-12, 1.0, 180e3, vec![min_rate; users]).unwrap()
    }

    #[test]
    fn robust_solve_produces_valid_assignment() {
        let p = problem(4, 12, 11, 1e5);
        let sol = solve_robust_auto(&p).unwrap();
        assert_eq!(sol.owners.len(), 12);
        assert!(sol.owners.iter().all(|&u| u < 4));
        assert!(sol.total_rate_bps > 0.0);
    }

    #[test]
    fn robust_is_deterministic_across_worker_counts() {
        let problems: Vec<RraProblem> = (0..5).map(|s| problem(3, 8, 100 + s, 5e4)).collect();
        let refs: Vec<&RraProblem> = problems.iter().collect();
        let plans1 = plan_batch(&refs, 1);
        let plans4 = plan_batch(&refs, 4);
        for ((p, a), b) in problems.iter().zip(&plans1).zip(&plans4) {
            let sa = solve_robust(p, a.as_ref().unwrap()).unwrap();
            let sb = solve_robust(p, b.as_ref().unwrap()).unwrap();
            assert_eq!(sa.owners, sb.owners);
            assert_eq!(sa.total_rate_bps.to_bits(), sb.total_rate_bps.to_bits());
        }
    }

    #[test]
    fn plan_dimension_mismatch_rejected() {
        let p = problem(3, 8, 7, 1e4);
        let other = problem(4, 8, 7, 1e4);
        let plan = plan_one(&p).unwrap();
        assert!(matches!(
            solve_robust(&other, &plan),
            Err(QosError::InvalidParameter(_))
        ));
    }

    #[test]
    fn robust_stays_close_to_greedy_on_benign_channels() {
        // The margin discount must not wreck nominal performance: on a
        // well-conditioned channel the robust assignment's total rate stays
        // within a constant factor of greedy's.
        let p = problem(4, 16, 42, 1e4);
        let greedy = solve_greedy(&p).unwrap();
        let robust = solve_robust_auto(&p).unwrap();
        assert!(
            robust.total_rate_bps > 0.25 * greedy.total_rate_bps,
            "robust {} vs greedy {}",
            robust.total_rate_bps,
            greedy.total_rate_bps
        );
    }
}
