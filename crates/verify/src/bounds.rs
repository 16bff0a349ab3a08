//! Interval bound propagation — the loosest layer-wise convex relaxation.
//!
//! Each affine layer maps an input box to the tightest output box
//! obtainable coordinate-wise (exact for a single affine layer, loose for
//! compositions because inter-neuron correlations are dropped); ReLU
//! clamps lower bounds at 0. The per-layer boxes are exactly the
//! "layer-wise" relaxations the paper's RCR framework tracks, and the
//! pre-activation intervals feed the CROWN triangle relaxation.

use crate::net::{validate_box, AffineReluNet};
use crate::VerifyError;
use rcr_kernels::Scratch;

/// Per-layer interval bounds for one network and input box.
#[derive(Debug, Clone)]
pub struct LayerBounds {
    /// Pre-activation bounds of each affine layer:
    /// `pre[i][j] = (lo, hi)` of neuron `j` of layer `i`.
    pre: Vec<Vec<(f64, f64)>>,
    /// Post-activation bounds (same shape; last layer has no ReLU).
    post: Vec<Vec<(f64, f64)>>,
}

impl LayerBounds {
    /// Pre-activation bounds per layer.
    pub fn pre_activation(&self) -> &[Vec<(f64, f64)>] {
        &self.pre
    }

    /// Post-activation bounds per layer.
    pub fn post_activation(&self) -> &[Vec<(f64, f64)>] {
        &self.post
    }

    /// Bounds of the network output (post of the last layer).
    pub fn output(&self) -> &[(f64, f64)] {
        // rcr-lint: allow(no-unwrap-in-lib, reason = "constructor rejects empty networks, so post always has one entry per layer")
        self.post.last().expect("at least one layer")
    }

    /// Number of *unstable* ReLU neurons (pre-activation straddles 0) —
    /// the combinatorial hardness measure for complete verification.
    pub fn unstable_count(&self) -> usize {
        // The last layer has no ReLU; skip it.
        self.pre[..self.pre.len().saturating_sub(1)]
            .iter()
            .flatten()
            .filter(|&&(lo, hi)| lo < 0.0 && hi > 0.0)
            .count()
    }

    /// Mean width of the output box — the bound-tightness metric used by
    /// experiment E10.
    pub fn output_mean_width(&self) -> f64 {
        let out = self.output();
        out.iter().map(|(lo, hi)| hi - lo).sum::<f64>() / out.len().max(1) as f64
    }

    /// Returns the per-layer bound buffers to `scratch` so the next
    /// propagation through [`interval_bounds_scratch`] can reuse them
    /// instead of allocating. Branch-and-bound calls this once per node.
    pub fn recycle(self, scratch: &mut Scratch) {
        for buf in self.pre {
            scratch.give_pairs(buf);
        }
        for buf in self.post {
            scratch.give_pairs(buf);
        }
    }
}

/// One affine row of interval arithmetic: the tightest `(lo, hi)` of
/// `bias + Σ row[c]·x[c]` over the box `cur`. Accumulation order matches
/// the historical per-row loop exactly (increasing `c`, lo/hi interleaved).
#[inline]
fn ibp_row(row: &[f64], bias: f64, cur: &[(f64, f64)]) -> (f64, f64) {
    let mut lo = bias;
    let mut hi = bias;
    for (&wv, &(xl, xh)) in row.iter().zip(cur) {
        if wv >= 0.0 {
            lo += wv * xl;
            hi += wv * xh;
        } else {
            lo += wv * xh;
            hi += wv * xl;
        }
    }
    (lo, hi)
}

/// Propagates interval bounds through the network, with each layer's row
/// sweep fanned out across `workers` threads (a count as resolved by
/// [`rcr_runtime::resolve_workers`]) and every per-layer buffer checked
/// out of `scratch`. Pass the returned [`LayerBounds`] back via
/// [`LayerBounds::recycle`] to keep the pool warm; branch-and-bound does
/// so once per node.
///
/// Rows of one layer are independent and each row's accumulation order
/// is fixed, so the result is bit-identical for every worker count.
/// Layers stay sequential — each consumes the previous layer's
/// post-activation box. The row sweep writes results in place via
/// `rcr_runtime::parallel_map_mut` chunks (no per-row index vector, no
/// reassembly copy, no per-layer clones).
///
/// # Errors
/// * [`VerifyError::InvalidInput`] for a malformed box.
/// * [`VerifyError::DimensionMismatch`] when the box width differs from
///   the network input dimension.
pub fn interval_bounds_scratch(
    net: &AffineReluNet,
    input_box: &[(f64, f64)],
    workers: usize,
    scratch: &mut Scratch,
) -> Result<LayerBounds, VerifyError> {
    validate_box(input_box)?;
    if input_box.len() != net.input_dim() {
        return Err(VerifyError::DimensionMismatch(format!(
            "box has {} dims, network expects {}",
            input_box.len(),
            net.input_dim()
        )));
    }
    let depth = net.depth();
    let mut pre: Vec<Vec<(f64, f64)>> = Vec::with_capacity(depth);
    let mut post: Vec<Vec<(f64, f64)>> = Vec::with_capacity(depth);
    for (li, (w, b)) in net.layers().iter().enumerate() {
        let mut layer_pre = scratch.take_pairs(w.rows(), (0.0, 0.0));
        {
            let cur: &[(f64, f64)] = if li == 0 { input_box } else { &post[li - 1] };
            rcr_runtime::parallel_map_mut(&mut layer_pre, workers, |r, slot| {
                *slot = ibp_row(w.row(r), b[r], cur);
            });
        }
        let mut layer_post = scratch.take_pairs(w.rows(), (0.0, 0.0));
        if li + 1 < depth {
            for (dst, &(lo, hi)) in layer_post.iter_mut().zip(&layer_pre) {
                *dst = (lo.max(0.0), hi.max(0.0));
            }
        } else {
            layer_post.copy_from_slice(&layer_pre);
        }
        pre.push(layer_pre);
        post.push(layer_post);
    }
    Ok(LayerBounds { pre, post })
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

    #[test]
    fn single_affine_layer_is_exact() {
        let net = AffineReluNet::new(vec![(
            Matrix::from_rows(&[&[2.0, -1.0]]).unwrap(),
            vec![0.5],
        )])
        .unwrap();
        let b = fresh_ibp(&net, &[(0.0, 1.0), (-1.0, 1.0)]).unwrap();
        // 2x₁ − x₂ + 0.5 over the box: [0−1+0.5, 2+1+0.5].
        assert_eq!(b.output()[0], (-0.5, 3.5));
    }

    #[test]
    fn abs_network_bounds_are_sound_but_loose() {
        let net = abs_net();
        let b = fresh_ibp(&net, &[(-1.0, 1.0)]).unwrap();
        let (lo, hi) = b.output()[0];
        // True range of |x| over [-1,1] is [0,1]; IBP must contain it.
        assert!(lo <= 0.0 && hi >= 1.0);
        // And IBP is loose here: it reports hi = 2 (both branches active).
        assert_eq!((lo, hi), (0.0, 2.0));
    }

    #[test]
    fn bounds_contain_sampled_outputs() {
        let net = AffineReluNet::new(vec![
            (
                Matrix::from_rows(&[&[0.5, -1.2], &[0.7, 0.3], &[-0.4, 0.9]]).unwrap(),
                vec![0.1, -0.2, 0.0],
            ),
            (Matrix::from_rows(&[&[1.0, -1.0, 0.5]]).unwrap(), vec![0.3]),
        ])
        .unwrap();
        let input_box = [(-0.5, 0.5), (0.0, 1.0)];
        let b = fresh_ibp(&net, &input_box).unwrap();
        let (lo, hi) = b.output()[0];
        for i in 0..=10 {
            for j in 0..=10 {
                let x = [
                    input_box[0].0 + (input_box[0].1 - input_box[0].0) * i as f64 / 10.0,
                    input_box[1].0 + (input_box[1].1 - input_box[1].0) * j as f64 / 10.0,
                ];
                let y = net.eval(&x).unwrap()[0];
                assert!(
                    y >= lo - 1e-12 && y <= hi + 1e-12,
                    "y={y} outside [{lo},{hi}]"
                );
            }
        }
    }

    #[test]
    fn unstable_count_reflects_straddling_neurons() {
        let net = abs_net();
        // Box entirely positive: the −x branch is stably inactive, the +x
        // branch stably active → 0 unstable.
        let b = fresh_ibp(&net, &[(0.5, 1.0)]).unwrap();
        assert_eq!(b.unstable_count(), 0);
        // Box straddling 0: both neurons unstable.
        let b = fresh_ibp(&net, &[(-1.0, 1.0)]).unwrap();
        assert_eq!(b.unstable_count(), 2);
    }

    #[test]
    fn degenerate_point_box() {
        let net = abs_net();
        let b = fresh_ibp(&net, &[(0.7, 0.7)]).unwrap();
        let (lo, hi) = b.output()[0];
        assert!((lo - 0.7).abs() < 1e-12 && (hi - 0.7).abs() < 1e-12);
    }

    #[test]
    fn validation() {
        let net = abs_net();
        assert!(fresh_ibp(&net, &[]).is_err());
        assert!(fresh_ibp(&net, &[(1.0, -1.0)]).is_err());
        assert!(fresh_ibp(&net, &[(0.0, 1.0), (0.0, 1.0)]).is_err());
    }
}
