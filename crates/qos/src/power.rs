//! The continuous inner problem of the RRA MINLP: power allocation over
//! assigned resource blocks.
//!
//! For a fixed RB→user assignment the remaining problem is concave:
//!
//! ```text
//! maximize   Σ_k B·log2(1 + a_k p_k)
//! subject to Σ_k p_k ≤ P_total,  p ≥ 0
//!            Σ_{k ∈ K_u} B·log2(1 + a_k p_k) ≥ r_u   ∀u
//! ```
//!
//! with `a_k = g_{u(k),k} / N₀B` the normalized gain of RB `k`'s owner.
//! Without rate constraints the solution is classical water-filling; the
//! constrained version is solved by dual subgradient ascent on the rate
//! multipliers μ with an inner bisection on the water level — each inner
//! problem is *weighted* water-filling `p_k = (w_k/λ − 1/a_k)₊` with
//! `w_k = 1 + μ_{u(k)}`.
//!
//! # Scratch contract
//!
//! [`solve_power_into`] is the production path. It writes into a
//! caller-owned [`PowerScratch`] and [`PowerSolution`]; once both have
//! grown to the problem's size it performs no heap allocation on the
//! success path (only [`QosError`] construction allocates). Its output
//! is bit-identical to [`solve_power_reference`]: the same 300 dual
//! steps, the same 200 bisection probes per step, and the same
//! floating-point operations in the same order. Each probe's total is
//! one mapped-iterator sum over the RBs, in RB order, instead of a
//! collected `Vec`. Values that are the same every time are computed
//! once: `1/a_k` once per solve, and `w_k/λ` (still a division, never
//! `w_k·(1/λ)`) once per user per probe, since all of a user's RBs share
//! its weight.
//!
//! [`solve_power_reference`] is the original allocating loop, kept as
//! the oracle for the bit-identity tests and the `power/` benches; no
//! solver calls it. [`solve_power`] is a thin wrapper that owns one
//! scratch for a single solve.

use crate::QosError;

/// Dual subgradient steps per solve (fewer only when the unconstrained
/// optimum already meets every minimum rate).
const DUAL_STEPS: usize = 300;

/// Geometric-bisection probes per water-level search.
const BISECTION_PROBES: usize = 200;

/// Power-allocation problem description for one assignment. The
/// default (no RBs, zero budget) is an empty buffer to fill, not a
/// valid problem.
#[derive(Debug, Clone, Default)]
pub struct PowerProblem {
    /// Normalized gain `a_k` per RB (gain / noise power).
    pub gains: Vec<f64>,
    /// Owner user of each RB.
    pub owners: Vec<usize>,
    /// Total power budget (W).
    pub power_budget: f64,
    /// Bandwidth per RB (Hz).
    pub rb_bandwidth_hz: f64,
    /// Minimum rate per user (bit/s); users without assigned RBs must
    /// have 0 here to be satisfiable.
    pub min_rates_bps: Vec<f64>,
}

/// Result of a power allocation.
#[derive(Debug, Clone)]
pub struct PowerSolution {
    /// Power per RB (W).
    pub powers: Vec<f64>,
    /// Rate per RB (bit/s).
    pub rb_rates_bps: Vec<f64>,
    /// Rate per user (bit/s).
    pub user_rates_bps: Vec<f64>,
    /// Total rate (bit/s).
    pub total_rate_bps: f64,
    /// True when every minimum-rate constraint is met (within tolerance).
    pub feasible: bool,
}

impl PowerSolution {
    /// An empty placeholder allocation (no RBs, no users, zero rate,
    /// infeasible) — for decoders and summaries that carry a solution's
    /// headline numbers without the per-RB breakdown, and as the output
    /// buffer [`solve_power_into`] fills.
    pub fn empty() -> PowerSolution {
        PowerSolution {
            powers: Vec::new(),
            rb_rates_bps: Vec::new(),
            user_rates_bps: Vec::new(),
            total_rate_bps: 0.0,
            feasible: false,
        }
    }
}

/// Reusable working buffers for [`solve_power_into`]. They grow to the
/// largest problem seen and are rewritten before every read, so nothing
/// carries over from one solve to the next.
#[derive(Debug, Clone, Default)]
pub struct PowerScratch {
    /// `1/a_k` per RB.
    inv_gains: Vec<f64>,
    /// `(1 + μ_u) / λ` per user at the current bisection probe.
    quotients: Vec<f64>,
    /// The current dual step's power per RB.
    powers: Vec<f64>,
    /// The current dual step's rate per RB.
    rb_rates: Vec<f64>,
    /// The current dual step's rate per user.
    user_rates: Vec<f64>,
    /// Rate multiplier μ per user.
    mu: Vec<f64>,
}

impl PowerScratch {
    /// Empty buffers; the first solve sizes them.
    pub fn new() -> PowerScratch {
        PowerScratch::default()
    }
}

/// Overwrites `buf` with `values`, reusing its capacity.
fn refill(buf: &mut Vec<f64>, values: impl Iterator<Item = f64>) {
    buf.clear();
    buf.extend(values);
}

// rcr-lint: unit(bandwidth = Hz, a = GainLinear, p = PowerLinear, return = BitsPerSec, reason = "Shannon rate per RB: Hz times log2(1 + normalized-gain times watts)")
fn rate_bps(bandwidth: f64, a: f64, p: f64) -> f64 {
    bandwidth * (1.0 + a * p).log2()
}

/// `p_k = (w_{u(k)}/λ − 1/a_k)₊` per RB, given `quotients[u] = w_u/λ`
/// and `inv_gains[k] = 1/a_k`.
fn water_powers<'a>(
    inv_gains: &'a [f64],
    owners: &'a [usize],
    quotients: &'a [f64],
) -> impl Iterator<Item = f64> + 'a {
    inv_gains
        .iter()
        .zip(owners)
        .map(move |(&inv_a, &u)| (quotients[u] - inv_a).max(0.0))
}

/// Weighted water-filling: maximize `Σ w_k log(1 + a_k p_k)` subject to
/// `Σ p ≤ budget`, `p ≥ 0`, with `w_k = 1 + μ_{u(k)}`, writing the
/// powers into `powers`. Exact via bisection on the water level. RBs of
/// one user share a weight, so each probe divides once per user into
/// `quotients`.
// rcr-lint: unit(budget = PowerLinear, reason = "water-filling spends a watt budget, never dB")
fn weighted_waterfill_into(
    inv_gains: &[f64],
    owners: &[usize],
    mu: &[f64],
    budget: f64,
    quotients: &mut [f64],
    powers: &mut Vec<f64>,
) {
    let divide = |quotients: &mut [f64], lambda: f64| {
        for (q, &m) in quotients.iter_mut().zip(mu) {
            *q = (1.0 + m) / lambda;
        }
    };
    // λ ∈ (0, ∞): total power decreases in λ. Find λ with Σp = budget.
    let mut lo = 1e-12f64;
    let mut hi = 1e12;
    for _ in 0..BISECTION_PROBES {
        let mid = (lo * hi).sqrt(); // geometric bisection for scale-freeness
        divide(quotients, mid);
        let total: f64 = water_powers(inv_gains, owners, quotients).sum();
        if total > budget {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    divide(quotients, (lo * hi).sqrt());
    refill(powers, water_powers(inv_gains, owners, quotients));
}

/// Rejects malformed problem data (shared by every entry point).
fn validate(problem: &PowerProblem) -> Result<(), QosError> {
    let k = problem.gains.len();
    if k == 0 || problem.owners.len() != k {
        return Err(QosError::InvalidParameter(format!(
            "{} gains vs {} owners",
            k,
            problem.owners.len()
        )));
    }
    if !(problem.power_budget > 0.0) || !(problem.rb_bandwidth_hz > 0.0) {
        return Err(QosError::InvalidParameter(
            "budget and bandwidth must be positive".into(),
        ));
    }
    if problem.gains.iter().any(|&a| !(a > 0.0) || !a.is_finite()) {
        return Err(QosError::InvalidParameter(
            "gains must be positive and finite".into(),
        ));
    }
    let users = problem.min_rates_bps.len();
    if problem.owners.iter().any(|&u| u >= users) {
        return Err(QosError::InvalidParameter(
            "owner index out of range".into(),
        ));
    }
    Ok(())
}

/// Solves the constrained power allocation.
///
/// ```
/// use rcr_qos::power::{solve_power, PowerProblem};
///
/// # fn main() -> Result<(), rcr_qos::QosError> {
/// let sol = solve_power(&PowerProblem {
///     gains: vec![10.0, 2.0],
///     owners: vec![0, 1],
///     power_budget: 1.0,
///     rb_bandwidth_hz: 1.0,
///     min_rates_bps: vec![0.0, 0.0],
/// })?;
/// assert!(sol.feasible);
/// assert!(sol.powers.iter().sum::<f64>() <= 1.0 + 1e-9);
/// # Ok(())
/// # }
/// ```
///
/// Returns the best allocation found; `feasible` reports whether the
/// minimum rates were met. When some user's minimum rate is unattainable
/// even with the whole budget on its best RB, the result comes back
/// infeasible rather than erroring. One-shot wrapper over
/// [`solve_power_into`] with a fresh scratch; loops should keep their
/// own scratch and call that directly.
///
/// # Errors
/// Returns [`QosError::InvalidParameter`] for malformed problem data.
pub fn solve_power(problem: &PowerProblem) -> Result<PowerSolution, QosError> {
    let mut out = PowerSolution::empty();
    solve_power_into(problem, &mut PowerScratch::new(), &mut out)?;
    Ok(out)
}

/// [`solve_power`] into caller-owned buffers: writes the allocation into
/// `out`, working in `scratch`. Bit-identical to [`solve_power_reference`]
/// and allocation-free on the success path once `scratch` and `out` have
/// grown to the problem's size (see the module docs). On error `out` is
/// left unspecified.
///
/// # Errors
/// Returns [`QosError::InvalidParameter`] for malformed problem data.
pub fn solve_power_into(
    problem: &PowerProblem,
    scratch: &mut PowerScratch,
    out: &mut PowerSolution,
) -> Result<(), QosError> {
    validate(problem)?;
    let users = problem.min_rates_bps.len();
    let bandwidth = problem.rb_bandwidth_hz;
    let PowerScratch {
        inv_gains,
        quotients,
        powers,
        rb_rates,
        user_rates,
        mu,
    } = scratch;
    refill(inv_gains, problem.gains.iter().map(|&a| 1.0 / a));
    mu.clear();
    mu.resize(users, 0.0);
    quotients.clear();
    quotients.resize(users, 0.0);

    // Dual subgradient on μ ≥ 0 (one per user with a positive min rate).
    // `out` holds the best candidate so far from the first step on.
    for it in 0..DUAL_STEPS {
        weighted_waterfill_into(
            inv_gains,
            &problem.owners,
            mu,
            problem.power_budget,
            quotients,
            powers,
        );
        refill(
            rb_rates,
            powers
                .iter()
                .zip(&problem.gains)
                .map(|(&p, &a)| rate_bps(bandwidth, a, p)),
        );
        user_rates.clear();
        user_rates.resize(users, 0.0);
        for (&r, &u) in rb_rates.iter().zip(&problem.owners) {
            user_rates[u] += r;
        }
        let feasible = user_rates
            .iter()
            .zip(&problem.min_rates_bps)
            .all(|(r, m)| m - r <= 1e-6 * bandwidth.max(1.0));
        let total: f64 = rb_rates.iter().sum();

        let better = it == 0
            || (feasible && !out.feasible)
            || (feasible == out.feasible && total > out.total_rate_bps);
        if better {
            refill(&mut out.powers, powers.iter().copied());
            refill(&mut out.rb_rates_bps, rb_rates.iter().copied());
            refill(&mut out.user_rates_bps, user_rates.iter().copied());
            out.total_rate_bps = total;
            out.feasible = feasible;
        }
        if feasible && mu.iter().all(|&m| m == 0.0) {
            break; // unconstrained optimum already satisfies the rates
        }
        // Subgradient step on μ: grow where violated, shrink otherwise.
        let step = 2.0 / (1.0 + it as f64).sqrt();
        for ((m, r), min) in mu
            .iter_mut()
            .zip(user_rates.iter())
            .zip(&problem.min_rates_bps)
        {
            *m = (*m + step * (min - r) / bandwidth.max(1.0)).max(0.0);
        }
    }
    Ok(())
}

/// The original allocating power solve, kept verbatim as the oracle that
/// the bit-identity tests and the `power/` benches compare
/// [`solve_power_into`] against. No solver calls it.
///
/// # Errors
/// Returns [`QosError::InvalidParameter`] for malformed problem data.
pub fn solve_power_reference(problem: &PowerProblem) -> Result<PowerSolution, QosError> {
    validate(problem)?;
    let users = problem.min_rates_bps.len();

    let user_rates = |powers: &[f64]| -> Vec<f64> {
        let mut rates = vec![0.0; users];
        for ((&p, &a), &u) in powers.iter().zip(&problem.gains).zip(&problem.owners) {
            rates[u] += rate_bps(problem.rb_bandwidth_hz, a, p);
        }
        rates
    };

    // Dual subgradient on μ ≥ 0 (one per user with a positive min rate).
    let mut mu = vec![0.0; users];
    let mut best: Option<PowerSolution> = None;
    for it in 0..DUAL_STEPS {
        let weights: Vec<f64> = problem.owners.iter().map(|&u| 1.0 + mu[u]).collect();
        let powers = weighted_waterfill_reference(&problem.gains, &weights, problem.power_budget);
        let rates = user_rates(&powers);
        let violation: Vec<f64> = rates
            .iter()
            .zip(&problem.min_rates_bps)
            .map(|(r, m)| m - r)
            .collect();
        let feasible = violation
            .iter()
            .all(|&v| v <= 1e-6 * problem.rb_bandwidth_hz.max(1.0));

        let rb_rates: Vec<f64> = powers
            .iter()
            .zip(&problem.gains)
            .map(|(&p, &a)| rate_bps(problem.rb_bandwidth_hz, a, p))
            .collect();
        let total: f64 = rb_rates.iter().sum();
        let candidate = PowerSolution {
            powers,
            rb_rates_bps: rb_rates,
            user_rates_bps: rates,
            total_rate_bps: total,
            feasible,
        };
        let better = match &best {
            None => true,
            Some(b) => {
                (candidate.feasible && !b.feasible)
                    || (candidate.feasible == b.feasible
                        && candidate.total_rate_bps > b.total_rate_bps)
            }
        };
        if better {
            best = Some(candidate);
        }
        if feasible && mu.iter().all(|&m| m == 0.0) {
            break; // unconstrained optimum already satisfies the rates
        }
        // Subgradient step on μ: grow where violated, shrink otherwise.
        let step = 2.0 / (1.0 + it as f64).sqrt();
        for (m, v) in mu.iter_mut().zip(&violation) {
            *m = (*m + step * v / problem.rb_bandwidth_hz.max(1.0)).max(0.0);
        }
    }
    best.ok_or_else(|| {
        QosError::PowerAllocationFailure("subgradient loop completed zero iterations".into())
    })
}

/// The oracle's water-filling: one collected `Vec` per bisection probe.
// rcr-lint: unit(gains = GainLinear, budget = PowerLinear, reason = "water-filling works on linear normalized gains and a watt budget, never dB")
fn weighted_waterfill_reference(gains: &[f64], weights: &[f64], budget: f64) -> Vec<f64> {
    let power_at = |lambda: f64| -> Vec<f64> {
        gains
            .iter()
            .zip(weights)
            .map(|(&a, &w)| ((w / lambda) - 1.0 / a).max(0.0))
            .collect()
    };
    // λ ∈ (0, ∞): total power decreases in λ. Find λ with Σp = budget.
    let mut lo = 1e-12f64;
    let mut hi = 1e12;
    for _ in 0..BISECTION_PROBES {
        let mid = (lo * hi).sqrt(); // geometric bisection for scale-freeness
        let total: f64 = power_at(mid).iter().sum();
        if total > budget {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    power_at((lo * hi).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every output field of `a` equals `b`'s bit for bit.
    fn assert_bit_identical(a: &PowerSolution, b: &PowerSolution) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.powers), bits(&b.powers), "powers");
        assert_eq!(bits(&a.rb_rates_bps), bits(&b.rb_rates_bps), "rb rates");
        assert_eq!(
            bits(&a.user_rates_bps),
            bits(&b.user_rates_bps),
            "user rates"
        );
        assert_eq!(
            a.total_rate_bps.to_bits(),
            b.total_rate_bps.to_bits(),
            "total"
        );
        assert_eq!(a.feasible, b.feasible, "feasible");
    }

    /// Deterministic `users x rbs` problem with log-uniform gains over
    /// 1e-6..1e6 and a mix of zero, attainable and unattainable floors.
    fn seeded_problem(users: usize, rbs: usize, mut state: u64) -> PowerProblem {
        let mut unit = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        };
        let gains = (0..rbs).map(|_| 10f64.powf(12.0 * unit() - 6.0)).collect();
        let owners = (0..rbs).map(|k| k % users).collect();
        let min_rates_bps = (0..users)
            .map(|u| [0.0, 2e5, 1e12][u % 3] * unit())
            .collect();
        PowerProblem {
            gains,
            owners,
            power_budget: 1.0,
            rb_bandwidth_hz: 180e3,
            min_rates_bps,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn scratch_path_is_bit_identical_to_reference(
            gain_exps in prop::collection::vec(-6.0f64..6.0, 1..40),
            owner_draws in prop::collection::vec(0usize..8, 40),
            users in 1usize..9,
            floor_draws in prop::collection::vec(0.0f64..1.0, 8),
            budget_exp in -3.0f64..1.0,
            wide_band in any::<bool>(),
        ) {
            let rb_bandwidth_hz = if wide_band { 180e3 } else { 1.0 };
            // Owners drawn independently of K, so some users own no RB.
            let owners: Vec<usize> = owner_draws[..gain_exps.len()]
                .iter()
                .map(|&d| d % users)
                .collect();
            // Floors: 40% zero, 50% up to ~2 bit/s/Hz per RB, 10% far
            // beyond any allocation of the budget.
            let min_rates_bps = floor_draws[..users]
                .iter()
                .map(|&f| match f {
                    f if f < 0.4 => 0.0,
                    f if f < 0.9 => (f - 0.4) * 4.0 * rb_bandwidth_hz,
                    _ => 1e12 * rb_bandwidth_hz,
                })
                .collect();
            let problem = PowerProblem {
                gains: gain_exps.iter().map(|&e| 10f64.powf(e)).collect(),
                owners,
                power_budget: 10f64.powf(budget_exp),
                rb_bandwidth_hz,
                min_rates_bps,
            };
            let reference = solve_power_reference(&problem).unwrap();
            let mut out = PowerSolution::empty();
            solve_power_into(&problem, &mut PowerScratch::new(), &mut out).unwrap();
            assert_bit_identical(&out, &reference);
            assert_bit_identical(&solve_power(&problem).unwrap(), &reference);
        }
    }

    #[test]
    fn reused_scratch_leaks_no_state_across_sizes() {
        let mut scratch = PowerScratch::new();
        let mut out = PowerSolution::empty();
        for (users, rbs, seed) in [(3, 6, 1), (8, 32, 2), (3, 6, 3), (8, 32, 4), (3, 6, 1)] {
            let problem = seeded_problem(users, rbs, seed);
            solve_power_into(&problem, &mut scratch, &mut out).unwrap();
            let fresh = solve_power(&problem).unwrap();
            assert_bit_identical(&out, &fresh);
            assert_bit_identical(&out, &solve_power_reference(&problem).unwrap());
        }
    }

    #[test]
    fn error_paths_match_reference() {
        let mut bad = seeded_problem(3, 6, 9);
        bad.owners[0] = 7;
        let mut out = PowerSolution::empty();
        let mut scratch = PowerScratch::new();
        assert!(solve_power_into(&bad, &mut scratch, &mut out).is_err());
        assert!(solve_power_reference(&bad).is_err());
        // The scratch stays usable after a rejected problem.
        let good = seeded_problem(3, 6, 9);
        solve_power_into(&good, &mut scratch, &mut out).unwrap();
        assert_bit_identical(&out, &solve_power_reference(&good).unwrap());
    }

    fn base_problem() -> PowerProblem {
        PowerProblem {
            gains: vec![10.0, 5.0, 1.0],
            owners: vec![0, 0, 1],
            power_budget: 3.0,
            rb_bandwidth_hz: 1.0,
            min_rates_bps: vec![0.0, 0.0],
        }
    }

    #[test]
    fn unconstrained_matches_classic_waterfilling() {
        let p = base_problem();
        let s = solve_power(&p).unwrap();
        assert!(s.feasible);
        assert!((s.powers.iter().sum::<f64>() - 3.0).abs() < 1e-6);
        // Water-filling: p_k = (1/λ − 1/a_k)₊ with common water level:
        // better channels get *more* power only through the 1/a term —
        // levels p_k + 1/a_k must be equal where p > 0.
        let levels: Vec<f64> = s
            .powers
            .iter()
            .zip(&p.gains)
            .map(|(&pw, &a)| pw + 1.0 / a)
            .collect();
        for w in levels.windows(2) {
            if s.powers[0] > 1e-9 && s.powers[1] > 1e-9 {
                assert!((w[0] - w[1]).abs() < 1e-5, "levels {levels:?}");
            }
        }
    }

    #[test]
    fn weak_channel_gets_no_power_under_tight_budget() {
        let p = PowerProblem {
            gains: vec![100.0, 0.001],
            owners: vec![0, 1],
            power_budget: 0.5,
            rb_bandwidth_hz: 1.0,
            min_rates_bps: vec![0.0, 0.0],
        };
        let s = solve_power(&p).unwrap();
        assert!(s.powers[1] < 1e-9, "weak RB power {}", s.powers[1]);
    }

    #[test]
    fn min_rate_constraint_diverts_power() {
        // User 1 owns only the weak RB; without a constraint it gets
        // almost nothing, with one it must reach its floor.
        let mut p = base_problem();
        let unconstrained = solve_power(&p).unwrap();
        p.min_rates_bps = vec![0.0, 1.0];
        let constrained = solve_power(&p).unwrap();
        assert!(
            constrained.feasible,
            "rates {:?}",
            constrained.user_rates_bps
        );
        assert!(constrained.user_rates_bps[1] >= 1.0 - 1e-4);
        assert!(constrained.user_rates_bps[1] > unconstrained.user_rates_bps[1]);
        // The diverted power costs total throughput.
        assert!(constrained.total_rate_bps <= unconstrained.total_rate_bps + 1e-9);
    }

    #[test]
    fn impossible_rate_reported_infeasible() {
        let mut p = base_problem();
        p.min_rates_bps = vec![0.0, 1000.0];
        let s = solve_power(&p).unwrap();
        assert!(!s.feasible);
    }

    #[test]
    fn rates_consistent_with_powers() {
        let p = base_problem();
        let s = solve_power(&p).unwrap();
        for ((&r, &pw), &a) in s.rb_rates_bps.iter().zip(&s.powers).zip(&p.gains) {
            assert!((r - (1.0 + a * pw).log2()).abs() < 1e-9);
        }
        let sum: f64 = s.user_rates_bps.iter().sum();
        assert!((sum - s.total_rate_bps).abs() < 1e-9);
    }

    #[test]
    fn validation() {
        let mut p = base_problem();
        p.owners = vec![0, 0];
        assert!(solve_power(&p).is_err());
        let mut p = base_problem();
        p.power_budget = 0.0;
        assert!(solve_power(&p).is_err());
        let mut p = base_problem();
        p.gains[0] = -1.0;
        assert!(solve_power(&p).is_err());
        let mut p = base_problem();
        p.owners = vec![0, 0, 5];
        assert!(solve_power(&p).is_err());
    }
}
