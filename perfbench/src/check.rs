//! Output checks on every answer, and the determinism digest.

use rcr_qos::rra::{RraProblem, RraSolution};
use rcr_scenarios::Digest128;
use std::time::Duration;

/// Relative slack for float identities recomputed outside the solver.
const REL_TOL: f64 = 1e-9;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

/// What is known about the answer's context besides the solution.
#[derive(Debug, Clone, Copy)]
pub struct AnswerContext {
    /// `rra::relaxation_bound_bps` of the problem.
    pub bound_bps: f64,
    /// The answer carries the full power allocation (in-process only; the
    /// wire drops it).
    pub in_process: bool,
    /// Service-reported queue plus solve time, with the request deadline;
    /// `None` for direct solver calls.
    pub timing: Option<(Duration, Duration)>,
}

/// Checks one solved answer from outside the solver.
///
/// # Errors
/// A message naming the first violated property.
pub fn check_answer(
    problem: &RraProblem,
    sol: &RraSolution,
    ctx: &AnswerContext,
) -> Result<(), String> {
    let (users, rbs) = (problem.users(), problem.resource_blocks());
    if sol.owners.len() != rbs {
        return Err(format!("{} owners for {rbs} RBs", sol.owners.len()));
    }
    if let Some(&o) = sol.owners.iter().find(|&&o| o >= users) {
        return Err(format!("owner {o} out of range for {users} users"));
    }
    if !sol.total_rate_bps.is_finite() || sol.total_rate_bps < 0.0 {
        return Err(format!("rate {} is not a finite rate", sol.total_rate_bps));
    }
    if sol.total_rate_bps > ctx.bound_bps * (1.0 + REL_TOL) {
        return Err(format!(
            "rate {} exceeds the relaxation bound {}",
            sol.total_rate_bps, ctx.bound_bps
        ));
    }
    let band = problem.rb_bandwidth_hz * rbs as f64;
    if !close(sol.spectral_efficiency, sol.total_rate_bps / band) {
        return Err(format!(
            "spectral efficiency {} != rate / band {}",
            sol.spectral_efficiency,
            sol.total_rate_bps / band
        ));
    }
    if ctx.in_process {
        let p = &sol.power;
        if p.powers.len() != rbs || p.rb_rates_bps.len() != rbs {
            return Err(format!("power allocation has {} RBs", p.powers.len()));
        }
        let total_power: f64 = p.powers.iter().sum();
        if total_power > problem.power_budget_w * (1.0 + REL_TOL) {
            return Err(format!(
                "power {total_power} exceeds the budget {}",
                problem.power_budget_w
            ));
        }
        for (k, (&owner, (&pw, &rate))) in sol
            .owners
            .iter()
            .zip(p.powers.iter().zip(&p.rb_rates_bps))
            .enumerate()
        {
            let shannon =
                problem.rb_bandwidth_hz * (1.0 + problem.normalized_gain(owner, k) * pw).log2();
            if pw < 0.0 || !close(shannon, rate) {
                return Err(format!(
                    "RB {k}: power {pw} gives Shannon rate {shannon}, answer says {rate}"
                ));
            }
        }
    }
    if let Some((spent, deadline)) = ctx.timing {
        if spent > deadline {
            return Err(format!(
                "queue + solve time {spent:?} exceeds the deadline {deadline:?}"
            ));
        }
    }
    Ok(())
}

/// Digest of answers in request-id order: id, owners and the bits of
/// `total_rate_bps`. A missing answer folds a marker instead.
pub fn digest<'a>(answers: impl IntoIterator<Item = (u64, Option<&'a RraSolution>)>) -> String {
    let mut d = Digest128::new(0x5eed_d16e);
    for (id, sol) in answers {
        d.u64(id);
        match sol {
            Some(s) => {
                for &o in &s.owners {
                    d.u64(o as u64);
                }
                d.u64(s.total_rate_bps.to_bits());
            }
            None => d.str("unsolved"),
        }
    }
    d.hex()
}
