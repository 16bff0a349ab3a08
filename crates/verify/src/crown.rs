//! CROWN-style backward linear relaxation with the ReLU triangle
//! envelope — the paper's "tightened convex relaxation" verifier arm
//! (Anderson et al. 2020, Salman et al. 2019).
//!
//! A linear function of the network output is propagated backward; at
//! each unstable ReLU the coefficient sign selects the convex
//! under-estimator (a line `λz` through the origin) or the concave
//! over-estimator (the chord `u(z − l)/(u − l)`), exactly the
//! envelope pair of §II-B. The result is an affine minorant of the
//! specification over the input box, concretized by interval arithmetic.

use crate::bounds::{interval_bounds_scratch, LayerBounds};
use crate::net::{validate_box, AffineReluNet, Specification};
use crate::VerifyError;
use rcr_kernels::Scratch;

/// Result of a CROWN bound computation.
#[derive(Debug, Clone)]
pub struct CrownBound {
    /// Sound lower bound on `cᵀ f(x) + offset` over the box.
    pub lower: f64,
    /// The affine minorant's coefficients over the input (for diagnosis
    /// and for warm-starting branch-and-bound).
    pub input_coeffs: Vec<f64>,
    /// The affine minorant's constant term.
    pub constant: f64,
}

impl CrownBound {
    /// Returns [`CrownBound::input_coeffs`] to `scratch`, mirroring
    /// [`LayerBounds::recycle`]: a caller that recycles both is
    /// allocation-free once the pool is warm. Branch-and-bound calls this
    /// once per node.
    pub fn recycle(self, scratch: &mut Scratch) {
        scratch.give_f64(self.input_coeffs);
    }
}

/// Computes a CROWN lower bound for `spec` over `input_box` from
/// caller-provided interval bounds (so branch-and-bound can pass refined
/// per-node bounds), propagating the backward state through buffers
/// checked out of `scratch`. The intermediate coefficient vectors
/// ping-pong through the pool; [`CrownBound::input_coeffs`] is checked
/// out of it too, so hand the result back via [`CrownBound::recycle`].
///
/// Accumulation orders are exactly those of the historical
/// implementation: the bias dot is a sequential `.sum()`-seeded fold and
/// the `aᵀW` row combination keeps the increasing-`r` order with the
/// `ar == 0.0` skip.
///
/// # Errors
/// * [`VerifyError::InvalidInput`] on malformed box/spec.
/// * [`VerifyError::DimensionMismatch`] on incompatible dimensions.
pub fn crown_lower_scratch(
    net: &AffineReluNet,
    input_box: &[(f64, f64)],
    spec: &Specification,
    bounds: &LayerBounds,
    scratch: &mut Scratch,
) -> Result<CrownBound, VerifyError> {
    validate_box(input_box)?;
    if spec.c.len() != net.output_dim() {
        return Err(VerifyError::DimensionMismatch(format!(
            "spec has {} coefficients, network emits {}",
            spec.c.len(),
            net.output_dim()
        )));
    }
    if input_box.len() != net.input_dim() {
        return Err(VerifyError::DimensionMismatch(format!(
            "box has {} dims, network expects {}",
            input_box.len(),
            net.input_dim()
        )));
    }

    let depth = net.depth();
    // Backward state: spec ≥ a·h + c where h is the post-activation of
    // layer `li` (initially the output itself).
    let mut a = scratch.take_f64(spec.c.len(), 0.0);
    a.copy_from_slice(&spec.c);
    let mut c = spec.offset;

    for li in (0..depth).rev() {
        let (w, b) = &net.layers()[li];
        // Through the affine layer: h_post(li) relates to previous post as
        // z = W h_prev + b, and (except the last layer) h = ReLU(z).
        // `a` currently multiplies h(li)-post; first undo the ReLU (if
        // any), turning it into a function of z(li).
        if li + 1 < depth {
            // a·h with h = ReLU(z): relax each unstable coordinate.
            let pre = &bounds.pre_activation()[li];
            for (j, aj) in a.iter_mut().enumerate() {
                let (l, u) = pre[j];
                if u <= 0.0 {
                    *aj = 0.0; // neuron always off
                } else if l >= 0.0 {
                    // identity: keep aj
                } else if *aj >= 0.0 {
                    // lower envelope: h ≥ λ z, λ ∈ [0, 1]; adaptive pick.
                    let lambda = if u >= -l { 1.0 } else { 0.0 };
                    *aj *= lambda;
                } else {
                    // upper envelope: h ≤ u (z − l)/(u − l).
                    let slope = u / (u - l);
                    c += *aj * (-l * slope);
                    *aj *= slope;
                }
            }
        }
        // Now through the affine map z = W h_prev + b:
        // a·z + c = (aᵀW)·h_prev + a·b + c.
        c += rcr_kernels::dot(&a, b);
        let mut new_a = scratch.take_f64(w.cols(), 0.0);
        for (r, ar) in a.iter().enumerate() {
            if *ar == 0.0 {
                continue;
            }
            rcr_kernels::axpy(*ar, w.row(r), &mut new_a);
        }
        scratch.give_f64(std::mem::replace(&mut a, new_a));
    }

    // Concretize over the input box.
    let mut lower = c;
    for (ai, &(lo, hi)) in a.iter().zip(input_box) {
        lower += if *ai >= 0.0 { ai * lo } else { ai * hi };
    }
    Ok(CrownBound {
        lower,
        input_coeffs: a,
        constant: c,
    })
}

/// Per-output CROWN bounds `(lo, hi)` via unit specifications (the upper
/// bound of output `j` is minus the lower bound of `−e_j`), with the
/// per-output backward passes fanned out across `workers` threads (a
/// count as resolved by [`rcr_runtime::resolve_workers`]).
///
/// Each output's `±e_j` backward substitutions are independent and share
/// only the read-only pre-activation bounds, so results are bit-identical
/// for every worker count.
///
/// # Errors
/// Same as [`crown_lower_scratch`].
pub fn crown_output_bounds(
    net: &AffineReluNet,
    input_box: &[(f64, f64)],
    workers: usize,
) -> Result<Vec<(f64, f64)>, VerifyError> {
    let bounds = interval_bounds_scratch(net, input_box, 1, &mut Scratch::new())?;
    let m = net.output_dim();
    let outputs: Vec<usize> = (0..m).collect();
    let per_output = rcr_runtime::parallel_map(&outputs, workers, |_, &j| {
        // Both ±e_j backward passes run through this worker thread's
        // scratch pool: after the first output, no allocations remain.
        crate::with_scratch(|scratch| {
            let mut spec = Specification {
                c: scratch.take_f64(m, 0.0),
                offset: 0.0,
            };
            spec.c[j] = 1.0;
            let lo = crown_lower_scratch(net, input_box, &spec, &bounds, scratch)?;
            for v in &mut spec.c {
                *v = -*v;
            }
            let neg_hi = crown_lower_scratch(net, input_box, &spec, &bounds, scratch)?;
            let out = (lo.lower, -neg_hi.lower);
            lo.recycle(scratch);
            neg_hi.recycle(scratch);
            scratch.give_f64(spec.c);
            Ok::<(f64, f64), VerifyError>(out)
        })
    });
    per_output.into_iter().collect()
}

/// Largest `ε` in `[0, max_eps]` (to resolution `tol`) at which the
/// *relaxed* verifier still certifies `spec` on the `ε`-ball around
/// `center` — the incomplete-verifier analogue of
/// [`crate::exact::certified_radius`]. Because the bound is conservative,
/// this radius is always ≤ the exact certified radius; the difference is
/// the paper's "convex relaxation barrier" in radius units.
///
/// # Errors
/// Propagates bound-computation errors; rejects non-positive `max_eps`
/// or `tol`.
pub fn relaxed_certified_radius(
    net: &AffineReluNet,
    center: &[f64],
    spec: &Specification,
    max_eps: f64,
    tol: f64,
) -> Result<f64, VerifyError> {
    if !(max_eps > 0.0) || !(tol > 0.0) {
        return Err(VerifyError::InvalidInput(
            "max_eps and tol must be positive".into(),
        ));
    }
    let ball =
        |eps: f64| -> Vec<(f64, f64)> { center.iter().map(|&c| (c - eps, c + eps)).collect() };
    let mut scratch = Scratch::new();
    let mut holds = |eps: f64| -> Result<bool, VerifyError> {
        let bx = ball(eps);
        let ib = interval_bounds_scratch(net, &bx, 1, &mut scratch)?;
        let cb = crown_lower_scratch(net, &bx, spec, &ib, &mut scratch)?;
        let certified = cb.lower > 0.0;
        cb.recycle(&mut scratch);
        ib.recycle(&mut scratch);
        Ok(certified)
    };
    if spec.eval(&net.eval(center)?) <= 0.0 {
        return Ok(0.0);
    }
    if holds(max_eps)? {
        return Ok(max_eps);
    }
    let mut lo = 0.0;
    let mut hi = max_eps;
    while hi - lo > tol {
        let mid = 0.5 * (lo + hi);
        if holds(mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcr_linalg::Matrix;

    fn fresh_ibp(
        net: &AffineReluNet,
        input_box: &[(f64, f64)],
    ) -> Result<LayerBounds, VerifyError> {
        interval_bounds_scratch(net, input_box, 1, &mut Scratch::new())
    }

    fn fresh_crown(
        net: &AffineReluNet,
        input_box: &[(f64, f64)],
        spec: &Specification,
    ) -> Result<CrownBound, VerifyError> {
        let mut scratch = Scratch::new();
        let bounds = interval_bounds_scratch(net, input_box, 1, &mut scratch)?;
        crown_lower_scratch(net, input_box, spec, &bounds, &mut scratch)
    }

    fn abs_net() -> AffineReluNet {
        AffineReluNet::new(vec![
            (
                Matrix::from_rows(&[&[1.0], &[-1.0]]).unwrap(),
                vec![0.0, 0.0],
            ),
            (Matrix::from_rows(&[&[1.0, 1.0]]).unwrap(), vec![0.0]),
        ])
        .unwrap()
    }

    fn random_net(seed: u64) -> AffineReluNet {
        // Deterministic pseudo-random 2-4-4-1 network.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mk = |rows: usize, cols: usize, f: &mut dyn FnMut() -> f64| {
            Matrix::from_fn(rows, cols, |_, _| f())
        };
        AffineReluNet::new(vec![
            (mk(4, 2, &mut next), vec![0.1, -0.1, 0.2, 0.0]),
            (mk(4, 4, &mut next), vec![0.0, 0.05, -0.05, 0.1]),
            (mk(1, 4, &mut next), vec![0.0]),
        ])
        .unwrap()
    }

    fn spec1() -> Specification {
        Specification {
            c: vec![1.0],
            offset: 0.0,
        }
    }

    #[test]
    fn exact_for_stable_region() {
        // Box entirely positive: |x| = x exactly; CROWN is exact.
        let net = abs_net();
        let b = fresh_crown(&net, &[(0.5, 1.0)], &spec1()).unwrap();
        assert!((b.lower - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sound_and_tighter_than_ibp_on_abs() {
        let net = abs_net();
        let input_box = [(-1.0, 1.0)];
        // True min of |x| is 0.
        let cb = fresh_crown(&net, &input_box, &spec1()).unwrap();
        assert!(cb.lower <= 0.0 + 1e-12, "must be sound: {}", cb.lower);
        let ibp = fresh_ibp(&net, &input_box).unwrap();
        assert!(
            cb.lower >= ibp.output()[0].0 - 1e-12,
            "never looser than IBP here"
        );
    }

    #[test]
    fn crown_sound_on_random_networks() {
        for seed in 0..5u64 {
            let net = random_net(seed);
            let input_box = [(-0.8, 0.8), (-0.5, 1.0)];
            let cb = fresh_crown(&net, &input_box, &spec1()).unwrap();
            // Exhaustive grid sample: the bound must lie below every value.
            let mut min_seen = f64::INFINITY;
            for i in 0..=24 {
                for j in 0..=24 {
                    let x = [-0.8 + 1.6 * i as f64 / 24.0, -0.5 + 1.5 * j as f64 / 24.0];
                    min_seen = min_seen.min(net.eval(&x).unwrap()[0]);
                }
            }
            assert!(
                cb.lower <= min_seen + 1e-9,
                "seed {seed}: crown {} above sampled min {min_seen}",
                cb.lower
            );
        }
    }

    #[test]
    fn crown_tighter_than_ibp_under_cancellation() {
        // CROWN's advantage over IBP is *cancellation*: when paths through
        // the network carry correlated signals, the backward linear form
        // cancels them while interval arithmetic double-counts. (On tiny
        // monotone networks whose neurons all peak at a shared corner,
        // IBP is exact and CROWN's chord slack can even lose — the regime
        // the CROWN-IBP literature documents.)
        //
        // f(x) = ReLU(x + 1.5) + ReLU(−x + 1.5) ≡ 3 on [−1, 1] (both
        // neurons stably active): CROWN is exact, IBP is off by 2.
        let net = AffineReluNet::new(vec![
            (
                Matrix::from_rows(&[&[1.0], &[-1.0]]).unwrap(),
                vec![1.5, 1.5],
            ),
            (Matrix::from_rows(&[&[1.0, 1.0]]).unwrap(), vec![0.0]),
        ])
        .unwrap();
        let input_box = [(-1.0, 1.0)];
        let cb = fresh_crown(&net, &input_box, &spec1()).unwrap();
        let ibp = fresh_ibp(&net, &input_box).unwrap().output()[0].0;
        assert!((cb.lower - 3.0).abs() < 1e-12, "crown {}", cb.lower);
        assert!((ibp - 1.0).abs() < 1e-12, "ibp {ibp}");
    }

    #[test]
    fn output_bounds_bracket_function() {
        let net = random_net(7);
        let input_box = [(-0.5, 0.5), (-0.5, 0.5)];
        let ob = crown_output_bounds(&net, &input_box, 1).unwrap();
        assert_eq!(ob.len(), 1);
        let (lo, hi) = ob[0];
        assert!(lo <= hi);
        for i in 0..=10 {
            for j in 0..=10 {
                let x = [-0.5 + i as f64 / 10.0, -0.5 + j as f64 / 10.0];
                let y = net.eval(&x).unwrap()[0];
                assert!(y >= lo - 1e-9 && y <= hi + 1e-9);
            }
        }
    }

    #[test]
    fn point_box_is_exact() {
        let net = random_net(3);
        let x = [0.3, -0.2];
        let cb = fresh_crown(&net, &[(x[0], x[0]), (x[1], x[1])], &spec1()).unwrap();
        assert!((cb.lower - net.eval(&x).unwrap()[0]).abs() < 1e-9);
    }

    #[test]
    fn validation() {
        let net = abs_net();
        assert!(fresh_crown(&net, &[], &spec1()).is_err());
        assert!(fresh_crown(&net, &[(0.0, 1.0), (0.0, 1.0)], &spec1()).is_err());
        let bad_spec = Specification {
            c: vec![1.0, 2.0],
            offset: 0.0,
        };
        assert!(fresh_crown(&net, &[(0.0, 1.0)], &bad_spec).is_err());
    }

    #[test]
    fn relaxed_radius_never_exceeds_exact() {
        // f(x) = |x| − 0.2 > 0 holds on the ball around 0.6 of radius 0.4
        // exactly; CROWN certifies a subset of that.
        let net = abs_net();
        let spec = Specification {
            c: vec![1.0],
            offset: -0.2,
        };
        let relaxed = relaxed_certified_radius(&net, &[0.6], &spec, 1.0, 1e-3).unwrap();
        let exact = crate::exact::certified_radius(
            &net,
            &[0.6],
            &spec,
            1.0,
            1e-3,
            &crate::exact::BnbSettings::default(),
        )
        .unwrap();
        assert!(relaxed <= exact + 1e-3, "relaxed {relaxed} > exact {exact}");
        assert!(relaxed > 0.0);
        // Misclassified center → zero radius, mirroring the exact API.
        let r0 = relaxed_certified_radius(&net, &[0.1], &spec, 1.0, 1e-3).unwrap();
        assert_eq!(r0, 0.0);
        assert!(relaxed_certified_radius(&net, &[0.6], &spec, -1.0, 1e-3).is_err());
    }
}
