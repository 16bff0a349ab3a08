//! Complete verification by input-domain branch-and-bound — the paper's
//! "exact (complete)" verifier arm.
//!
//! §II-B-2: "prototypical exact verifiers are predicated upon …
//! Branch-and-Bound … by definition, these exact verifiers are not beset
//! by false positives or false negatives, but they must contend with
//! resolving NP-hard optimization problems, which in turn obviates their
//! scalability." This implementation bisects the input box along its
//! widest dimension, bounds each sub-box with CROWN, falsifies with
//! concrete center/corner evaluations, and terminates with an exact
//! verdict up to the requested gap `epsilon`.

use crate::bounds::interval_bounds_scratch;
use crate::crown::crown_lower_scratch;
use crate::net::{validate_box, AffineReluNet, Specification};
use crate::{Scratch, VerifyError};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Node bound: the tighter of the CROWN linear relaxation and the plain
/// IBP interval bound (neither dominates the other in general).
///
/// Every buffer — the per-layer interval bounds and the CROWN backward
/// state — cycles through the calling thread's scratch pool, so
/// re-verifying a branch-and-bound node is allocation-free once the pool
/// is warm.
fn node_bound(
    net: &AffineReluNet,
    domain: &[(f64, f64)],
    spec: &Specification,
) -> Result<f64, VerifyError> {
    crate::with_scratch(|scratch| {
        let ib = interval_bounds_scratch(net, domain, 1, scratch)?;
        let cb = crown_lower_scratch(net, domain, spec, &ib, scratch)?;
        let mut ibp_spec = spec.offset;
        for (ci, &(lo, hi)) in spec.c.iter().zip(ib.output()) {
            ibp_spec += if *ci >= 0.0 { ci * lo } else { ci * hi };
        }
        let lower = cb.lower.max(ibp_spec);
        cb.recycle(scratch);
        ib.recycle(scratch);
        Ok(lower)
    })
}

/// Margin `spec(net(x))` evaluated through scratch buffers: the forward
/// pass ping-pongs two pooled activation vectors and the final
/// specification dot keeps the `.sum()` fold, so the value is bit-identical
/// to `spec.eval(&net.eval(x)?)` without its per-layer allocations.
fn eval_margin_scratch(
    net: &AffineReluNet,
    spec: &Specification,
    x: &[f64],
    scratch: &mut Scratch,
) -> Result<f64, VerifyError> {
    if x.len() != net.input_dim() {
        return Err(VerifyError::DimensionMismatch(format!(
            "input has {} entries, expected {}",
            x.len(),
            net.input_dim()
        )));
    }
    let mut cur = scratch.take_f64(x.len(), 0.0);
    cur.copy_from_slice(x);
    let depth = net.depth();
    for (i, (w, b)) in net.layers().iter().enumerate() {
        let mut z = scratch.take_f64(w.rows(), 0.0);
        rcr_kernels::gemv(w.rows(), w.cols(), w.as_slice(), &cur, &mut z);
        for (zi, bi) in z.iter_mut().zip(b) {
            *zi += bi;
        }
        if i + 1 < depth {
            for zi in &mut z {
                *zi = zi.max(0.0);
            }
        }
        scratch.give_f64(std::mem::replace(&mut cur, z));
    }
    let margin = rcr_kernels::dot(&spec.c, &cur) + spec.offset;
    scratch.give_f64(cur);
    Ok(margin)
}

/// Verdict of a complete verification run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// The specification holds everywhere in the box (min margin > 0).
    Verified {
        /// A certified lower bound on the margin.
        lower_bound: f64,
    },
    /// A concrete counterexample was found.
    Falsified {
        /// The margin at the counterexample (≤ 0).
        margin: f64,
    },
}

/// Statistics of a branch-and-bound run.
#[derive(Debug, Clone)]
pub struct BnbReport {
    /// Final verdict.
    pub verdict: Verdict,
    /// Nodes (sub-boxes) explored.
    pub nodes: usize,
    /// Best certified global lower bound on the margin.
    pub lower_bound: f64,
    /// Best concrete margin observed (a sound upper bound on the min).
    pub upper_bound: f64,
    /// Counterexample input when falsified.
    pub counterexample: Option<Vec<f64>>,
}

/// Branch-and-bound settings.
#[derive(Debug, Clone)]
pub struct BnbSettings {
    /// Node budget before giving up.
    pub max_nodes: usize,
    /// Terminate once `upper − lower < epsilon` (bound gap).
    pub epsilon: f64,
    /// Worker threads for bounding/probing subproblems: `0` = auto (the
    /// `RCR_WORKERS` environment variable, else serial). Results are
    /// identical for every worker count.
    pub workers: usize,
    /// Open nodes popped and bounded per round. The wave size — not the
    /// worker count — determines the exploration order, which is why
    /// verdicts and node counts are worker-count independent. `0` is
    /// treated as `1`.
    pub wave: usize,
}

impl Default for BnbSettings {
    fn default() -> Self {
        BnbSettings {
            max_nodes: 100_000,
            epsilon: 1e-6,
            workers: 0,
            wave: 8,
        }
    }
}

#[derive(Debug)]
struct Node {
    lower: f64,
    domain: Vec<(f64, f64)>,
}

// Min-heap on lower bound: explore the weakest-bound node first.
impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.lower == other.lower
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the smallest lower.
        other.lower.total_cmp(&self.lower)
    }
}

/// Runs complete verification of `spec` over `input_box`.
///
/// ```
/// use rcr_linalg::Matrix;
/// use rcr_verify::exact::{verify_complete, BnbSettings, Verdict};
/// use rcr_verify::net::{AffineReluNet, Specification};
///
/// # fn main() -> Result<(), rcr_verify::VerifyError> {
/// // f(x) = ReLU(x): prove f(x) + 0.5 > 0 on [-1, 1].
/// let net = AffineReluNet::new(vec![
///     (Matrix::identity(1), vec![0.0]),
///     (Matrix::identity(1), vec![0.0]),
/// ])?;
/// let spec = Specification { c: vec![1.0], offset: 0.5 };
/// let report = verify_complete(&net, &[(-1.0, 1.0)], &spec, &BnbSettings::default())?;
/// assert!(matches!(report.verdict, Verdict::Verified { .. }));
/// # Ok(())
/// # }
/// ```
///
/// # Errors
/// * [`VerifyError::InvalidInput`] / [`VerifyError::DimensionMismatch`]
///   for malformed problems.
/// * [`VerifyError::BudgetExhausted`] when `max_nodes` is reached without
///   a verdict (the partial bounds are lost; raise the budget).
pub fn verify_complete(
    net: &AffineReluNet,
    input_box: &[(f64, f64)],
    spec: &Specification,
    settings: &BnbSettings,
) -> Result<BnbReport, VerifyError> {
    validate_box(input_box)?;
    if settings.max_nodes == 0 || !(settings.epsilon > 0.0) {
        return Err(VerifyError::InvalidInput(
            "max_nodes >= 1 and epsilon > 0 required".into(),
        ));
    }

    // Concrete probes: center and corners (corners capped at 2^10). One
    // pooled point buffer is rewritten per candidate; only the winning
    // probe point is materialised as an owned witness vector.
    let probe = |domain: &[(f64, f64)]| -> Result<(f64, Vec<f64>), VerifyError> {
        crate::with_scratch(|scratch| {
            let mut x = scratch.take_f64(domain.len(), 0.0);
            for (xi, &(l, h)) in x.iter_mut().zip(domain) {
                *xi = 0.5 * (l + h);
            }
            let mut best_margin = eval_margin_scratch(net, spec, &x, scratch)?;
            // `None` marks the center as the incumbent probe point.
            let mut best_mask: Option<usize> = None;
            if domain.len() <= 10 {
                for mask in 0..(1usize << domain.len()) {
                    for (i, (xi, &(l, h))) in x.iter_mut().zip(domain).enumerate() {
                        *xi = if mask >> i & 1 == 1 { h } else { l };
                    }
                    let m = eval_margin_scratch(net, spec, &x, scratch)?;
                    if m < best_margin {
                        best_margin = m;
                        best_mask = Some(mask);
                    }
                }
            }
            scratch.give_f64(x);
            let witness: Vec<f64> = match best_mask {
                None => domain.iter().map(|&(l, h)| 0.5 * (l + h)).collect(),
                Some(mask) => domain
                    .iter()
                    .enumerate()
                    .map(|(i, &(l, h))| if mask >> i & 1 == 1 { h } else { l })
                    .collect(),
            };
            Ok((best_margin, witness))
        })
    };

    let root_lower = node_bound(net, input_box, spec)?;
    let (mut upper, mut witness) = probe(input_box)?;
    let mut lower_global = root_lower;
    let mut nodes = 1usize;

    if upper <= 0.0 {
        return Ok(BnbReport {
            verdict: Verdict::Falsified { margin: upper },
            nodes,
            lower_bound: lower_global,
            upper_bound: upper,
            counterexample: Some(witness),
        });
    }
    if lower_global > 0.0 {
        return Ok(BnbReport {
            verdict: Verdict::Verified {
                lower_bound: lower_global,
            },
            nodes,
            lower_bound: lower_global,
            upper_bound: upper,
            counterexample: None,
        });
    }

    let workers = rcr_runtime::resolve_workers(settings.workers);
    let wave = settings.wave.max(1);
    let mut heap = BinaryHeap::new();
    heap.push(Node {
        lower: root_lower,
        domain: input_box.to_vec(),
    });

    while !heap.is_empty() {
        // Pop a wave of the weakest-bound open nodes. The wave size is a
        // setting, not the worker count, so the exploration schedule —
        // and with it every bound, verdict, and node count — is the same
        // no matter how many threads compute it.
        let mut batch = Vec::with_capacity(wave);
        while batch.len() < wave {
            match heap.pop() {
                Some(n) => batch.push(n),
                None => break,
            }
        }

        // Global lower bound = weakest open node (first of the batch).
        lower_global = batch[0].lower;
        if lower_global > 0.0 {
            return Ok(BnbReport {
                verdict: Verdict::Verified {
                    lower_bound: lower_global,
                },
                nodes,
                lower_bound: lower_global,
                upper_bound: upper,
                counterexample: None,
            });
        }
        if upper - lower_global < settings.epsilon {
            // Gap closed: the true minimum is ≈ upper; sign decides.
            let verdict = if upper > 0.0 {
                Verdict::Verified {
                    lower_bound: lower_global,
                }
            } else {
                Verdict::Falsified { margin: upper }
            };
            return Ok(BnbReport {
                verdict,
                nodes,
                lower_bound: lower_global,
                upper_bound: upper,
                counterexample: if upper <= 0.0 { Some(witness) } else { None },
            });
        }
        if nodes >= settings.max_nodes {
            return Err(VerifyError::BudgetExhausted { nodes });
        }

        // Bound and probe both children of every node in the wave across
        // the worker pool; each child subproblem is independent.
        type Child = ((f64, f64), Vec<f64>, Vec<(f64, f64)>);
        let results: Vec<Result<Vec<Child>, VerifyError>> =
            rcr_runtime::parallel_map(&batch, workers, |_, node| {
                // Split along the widest dimension.
                let (dim, _) = node
                    .domain
                    .iter()
                    .enumerate()
                    .map(|(i, &(l, h))| (i, h - l))
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                    .ok_or_else(|| VerifyError::InvalidInput("empty domain".into()))?;
                let mid = 0.5 * (node.domain[dim].0 + node.domain[dim].1);
                let mut children = Vec::with_capacity(2);
                for half in 0..2 {
                    let mut sub = node.domain.clone();
                    if half == 0 {
                        sub[dim].1 = mid;
                    } else {
                        sub[dim].0 = mid;
                    }
                    let lower = node_bound(net, &sub, spec)?;
                    let (m, x) = probe(&sub)?;
                    children.push(((lower, m), x, sub));
                }
                Ok(children)
            });

        // Serial merge in wave order: identical to processing the popped
        // nodes one by one.
        for node_children in results {
            for ((lower, m), x, sub) in node_children? {
                nodes += 1;
                if m < upper {
                    upper = m;
                    witness = x;
                    if upper <= 0.0 {
                        return Ok(BnbReport {
                            verdict: Verdict::Falsified { margin: upper },
                            nodes,
                            lower_bound: lower_global,
                            upper_bound: upper,
                            counterexample: Some(witness),
                        });
                    }
                }
                if lower <= 0.0 {
                    heap.push(Node { lower, domain: sub });
                }
            }
        }
    }

    // No open node has a bound ≤ 0 anymore: verified everywhere.
    Ok(BnbReport {
        verdict: Verdict::Verified { lower_bound: 0.0 },
        nodes,
        lower_bound: 0.0,
        upper_bound: upper,
        counterexample: None,
    })
}

/// Largest `ε` in `[0, max_eps]` (to resolution `tol`) for which the
/// margin specification holds on the `ε`-ball (infinity norm) around
/// `center` — the *certified radius*, computed by bisection with the
/// given verifier.
///
/// # Errors
/// Propagates verifier errors.
pub fn certified_radius(
    net: &AffineReluNet,
    center: &[f64],
    spec: &Specification,
    max_eps: f64,
    tol: f64,
    settings: &BnbSettings,
) -> Result<f64, VerifyError> {
    if !(max_eps > 0.0) || !(tol > 0.0) {
        return Err(VerifyError::InvalidInput(
            "max_eps and tol must be positive".into(),
        ));
    }
    let ball =
        |eps: f64| -> Vec<(f64, f64)> { center.iter().map(|&c| (c - eps, c + eps)).collect() };
    // The margin at the center must be positive to begin with.
    if spec.eval(&net.eval(center)?) <= 0.0 {
        return Ok(0.0);
    }
    let mut lo = 0.0;
    let mut hi = max_eps;
    // Check the outer radius first: maybe everything verifies.
    if matches!(
        verify_complete(net, &ball(max_eps), spec, settings)?.verdict,
        Verdict::Verified { .. }
    ) {
        return Ok(max_eps);
    }
    while hi - lo > tol {
        let mid = 0.5 * (lo + hi);
        match verify_complete(net, &ball(mid), spec, settings)?.verdict {
            Verdict::Verified { .. } => lo = mid,
            Verdict::Falsified { .. } => hi = mid,
        }
    }
    Ok(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcr_linalg::Matrix;

    fn abs_net() -> AffineReluNet {
        // f(x) = |x|.
        AffineReluNet::new(vec![
            (
                Matrix::from_rows(&[&[1.0], &[-1.0]]).unwrap(),
                vec![0.0, 0.0],
            ),
            (Matrix::from_rows(&[&[1.0, 1.0]]).unwrap(), vec![0.0]),
        ])
        .unwrap()
    }

    fn settings() -> BnbSettings {
        BnbSettings::default()
    }

    #[test]
    fn verifies_true_property() {
        // |x| + 0.5 > 0 everywhere: trivially true, needs tight bounding
        // because IBP at the root gives lower −... actually 0.5 > 0.
        let net = abs_net();
        let spec = Specification {
            c: vec![1.0],
            offset: 0.5,
        };
        let r = verify_complete(&net, &[(-1.0, 1.0)], &spec, &settings()).unwrap();
        assert!(matches!(r.verdict, Verdict::Verified { .. }), "{r:?}");
    }

    #[test]
    fn falsifies_false_property() {
        // |x| − 0.5 > 0 fails near x = 0.
        let net = abs_net();
        let spec = Specification {
            c: vec![1.0],
            offset: -0.5,
        };
        let r = verify_complete(&net, &[(-1.0, 1.0)], &spec, &settings()).unwrap();
        match r.verdict {
            Verdict::Falsified { margin } => {
                assert!(margin <= 0.0);
                let x = r.counterexample.unwrap();
                assert!(x[0].abs() < 0.5 + 1e-9, "cex {x:?}");
            }
            v => panic!("expected falsified, got {v:?}"),
        }
    }

    /// `f(x) = |x| − 0.9x` built so the pass-through neuron (`x + 10`,
    /// always active on small boxes) defeats CROWN's coefficient
    /// cancellation: the root bound is −0.9 although the true minimum
    /// over `[-1, 1]` is `+0.1`.
    fn loose_net() -> AffineReluNet {
        AffineReluNet::new(vec![
            (
                Matrix::from_rows(&[&[1.0], &[-1.0], &[1.0]]).unwrap(),
                vec![0.0, 0.0, 10.0],
            ),
            (Matrix::from_rows(&[&[1.0, 1.0, -0.9]]).unwrap(), vec![9.0]),
        ])
        .unwrap()
    }

    #[test]
    fn tight_true_property_requires_branching() {
        let net = loose_net();
        // f(x) = |x| − 0.9x has min 0 at x = 0, so f + 0.05 > 0 holds
        // everywhere with margin 0.05.
        let spec = Specification {
            c: vec![1.0],
            offset: 0.05,
        };
        // Root CROWN bound is loose (≈ −0.85) so branching must kick in.
        let mut scratch = Scratch::new();
        let ib =
            crate::bounds::interval_bounds_scratch(&net, &[(-1.0, 1.0)], 1, &mut scratch).unwrap();
        let root =
            crate::crown::crown_lower_scratch(&net, &[(-1.0, 1.0)], &spec, &ib, &mut scratch)
                .unwrap();
        assert!(
            root.lower < 0.0,
            "root bound unexpectedly tight: {}",
            root.lower
        );
        let r = verify_complete(&net, &[(-1.0, 1.0)], &spec, &settings()).unwrap();
        assert!(matches!(r.verdict, Verdict::Verified { .. }), "{r:?}");
        assert!(r.nodes > 1, "expected branching, got {} nodes", r.nodes);
    }

    #[test]
    fn margin_spec_on_two_output_net() {
        // f(x) = (x, 1 − x) on [0, 0.4]: f₀ < f₁ everywhere (x < 0.5),
        // so margin(1, 0) verifies and margin(0, 1) falsifies.
        let net = AffineReluNet::new(vec![(
            Matrix::from_rows(&[&[1.0], &[-1.0]]).unwrap(),
            vec![0.0, 1.0],
        )])
        .unwrap();
        let good = Specification::margin(2, 1, 0).unwrap();
        let bad = Specification::margin(2, 0, 1).unwrap();
        let r1 = verify_complete(&net, &[(0.0, 0.4)], &good, &settings()).unwrap();
        assert!(matches!(r1.verdict, Verdict::Verified { .. }));
        let r2 = verify_complete(&net, &[(0.0, 0.4)], &bad, &settings()).unwrap();
        assert!(matches!(r2.verdict, Verdict::Falsified { .. }));
    }

    #[test]
    fn two_dim_input_bnb() {
        // f(x, y) = |x| + |y| − 0.3 > 0 fails inside the L1 ball of radius
        // 0.3 — BnB must find it.
        let net = AffineReluNet::new(vec![
            (
                Matrix::from_rows(&[&[1.0, 0.0], &[-1.0, 0.0], &[0.0, 1.0], &[0.0, -1.0]]).unwrap(),
                vec![0.0; 4],
            ),
            (
                Matrix::from_rows(&[&[1.0, 1.0, 1.0, 1.0]]).unwrap(),
                vec![-0.3],
            ),
        ])
        .unwrap();
        let spec = Specification {
            c: vec![1.0],
            offset: 0.0,
        };
        let r = verify_complete(&net, &[(-1.0, 1.0), (-1.0, 1.0)], &spec, &settings()).unwrap();
        assert!(matches!(r.verdict, Verdict::Falsified { .. }));
        // Restricted to a far corner, the property holds.
        let r = verify_complete(&net, &[(0.5, 1.0), (0.5, 1.0)], &spec, &settings()).unwrap();
        assert!(matches!(r.verdict, Verdict::Verified { .. }));
    }

    #[test]
    fn budget_exhaustion_reported() {
        // True property with a loose root bound: verification needs many
        // nodes, a 2-node budget cannot finish.
        let net = loose_net();
        let spec = Specification {
            c: vec![1.0],
            offset: 0.05,
        };
        let s = BnbSettings {
            max_nodes: 1,
            epsilon: 1e-12,
            ..Default::default()
        };
        let r = verify_complete(&net, &[(-1.0, 1.0)], &spec, &s);
        assert!(
            matches!(r, Err(VerifyError::BudgetExhausted { .. })),
            "{r:?}"
        );
    }

    #[test]
    fn certified_radius_matches_geometry() {
        // f(x) = |x| − margin spec at center 0.6: property f > 0.2 holds
        // while |x| > 0.2, i.e. radius 0.4 around 0.6.
        let net = abs_net();
        let spec = Specification {
            c: vec![1.0],
            offset: -0.2,
        };
        let r = certified_radius(&net, &[0.6], &spec, 1.0, 1e-3, &settings()).unwrap();
        assert!((r - 0.4).abs() < 5e-3, "radius {r}");
    }

    #[test]
    fn certified_radius_zero_for_misclassified_center() {
        let net = abs_net();
        let spec = Specification {
            c: vec![1.0],
            offset: -0.5,
        };
        // At center 0.1 the margin is already negative.
        let r = certified_radius(&net, &[0.1], &spec, 1.0, 1e-3, &settings()).unwrap();
        assert_eq!(r, 0.0);
    }

    #[test]
    fn full_radius_when_property_globally_true() {
        let net = abs_net();
        let spec = Specification {
            c: vec![1.0],
            offset: 1.0,
        };
        let r = certified_radius(&net, &[0.0], &spec, 0.5, 1e-3, &settings()).unwrap();
        assert_eq!(r, 0.5);
    }

    #[test]
    fn validation() {
        let net = abs_net();
        let spec = Specification {
            c: vec![1.0],
            offset: 0.0,
        };
        assert!(verify_complete(&net, &[], &spec, &settings()).is_err());
        let bad = BnbSettings {
            max_nodes: 0,
            epsilon: 1e-6,
            ..Default::default()
        };
        assert!(verify_complete(&net, &[(0.0, 1.0)], &spec, &bad).is_err());
        assert!(certified_radius(&net, &[0.0], &spec, -1.0, 1e-3, &settings()).is_err());
    }
}
