//! Bit-equivalence of the scratch-pooled verifier paths against the
//! pre-kernels naive implementations.
//!
//! The reference functions in this file are verbatim copies of the IBP and
//! CROWN loops as they existed before the `rcr-kernels` rewiring (fresh
//! `Vec` per layer, `Matrix` index access). The scratch entry points must
//! agree with them to the bit — from a fresh pool, from a warm pool, and
//! from a pool last used by a net of another shape — on fixed-seed nets
//! and on random shapes.

use proptest::prelude::*;
use rcr_linalg::Matrix;
use rcr_verify::bounds::interval_bounds_scratch;
use rcr_verify::crown::crown_lower_scratch;
use rcr_verify::net::{AffineReluNet, Specification};
use rcr_verify::Scratch;

/// Deterministic pseudo-random weights (splitmix64 folded to [-1, 1]).
fn weights(n: usize, mut state: u64) -> Vec<f64> {
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        })
        .collect()
}

/// Per-layer `(lo, hi)` boxes, one vec per layer.
type LayerBoxes = Vec<Vec<(f64, f64)>>;

/// Pre-PR interval propagation, kept verbatim as the bitwise oracle.
fn naive_interval_bounds(
    net: &AffineReluNet,
    input_box: &[(f64, f64)],
) -> (LayerBoxes, LayerBoxes) {
    let mut cur: Vec<(f64, f64)> = input_box.to_vec();
    let depth = net.depth();
    let mut pre = Vec::with_capacity(depth);
    let mut post = Vec::with_capacity(depth);
    for (li, (w, b)) in net.layers().iter().enumerate() {
        let layer_pre: Vec<(f64, f64)> = (0..w.rows())
            .map(|r| {
                let mut lo = b[r];
                let mut hi = b[r];
                for c in 0..w.cols() {
                    let wv = w[(r, c)];
                    let (xl, xh) = cur[c];
                    if wv >= 0.0 {
                        lo += wv * xl;
                        hi += wv * xh;
                    } else {
                        lo += wv * xh;
                        hi += wv * xl;
                    }
                }
                (lo, hi)
            })
            .collect();
        let layer_post: Vec<(f64, f64)> = if li + 1 < depth {
            layer_pre
                .iter()
                .map(|&(lo, hi)| (lo.max(0.0), hi.max(0.0)))
                .collect()
        } else {
            layer_pre.clone()
        };
        cur = layer_post.clone();
        pre.push(layer_pre);
        post.push(layer_post);
    }
    (pre, post)
}

/// Pre-PR CROWN backward pass, kept verbatim as the bitwise oracle.
/// Returns `(lower, constant, input_coeffs)`.
fn naive_crown_lower(
    net: &AffineReluNet,
    input_box: &[(f64, f64)],
    spec: &Specification,
    pre_bounds: &[Vec<(f64, f64)>],
) -> (f64, f64, Vec<f64>) {
    let depth = net.depth();
    let mut a: Vec<f64> = spec.c.clone();
    let mut c = spec.offset;
    for li in (0..depth).rev() {
        let (w, b) = &net.layers()[li];
        if li + 1 < depth {
            let pre = &pre_bounds[li];
            for (j, aj) in a.iter_mut().enumerate() {
                let (l, u) = pre[j];
                if u <= 0.0 {
                    *aj = 0.0;
                } else if l >= 0.0 {
                } else if *aj >= 0.0 {
                    let lambda = if u >= -l { 1.0 } else { 0.0 };
                    *aj *= lambda;
                } else {
                    let slope = u / (u - l);
                    c += *aj * (-l * slope);
                    *aj *= slope;
                }
            }
        }
        c += a.iter().zip(b).map(|(ai, bi)| ai * bi).sum::<f64>();
        let mut new_a = vec![0.0; w.cols()];
        for (r, ar) in a.iter().enumerate() {
            if *ar == 0.0 {
                continue;
            }
            for (cc, na) in new_a.iter_mut().enumerate() {
                *na += ar * w[(r, cc)];
            }
        }
        a = new_a;
    }
    let mut lower = c;
    for (ai, &(lo, hi)) in a.iter().zip(input_box) {
        lower += if *ai >= 0.0 { ai * lo } else { ai * hi };
    }
    (lower, c, a)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn pair_bits(v: &[(f64, f64)]) -> Vec<(u64, u64)> {
    v.iter().map(|&(a, b)| (a.to_bits(), b.to_bits())).collect()
}

/// A ReLU net of layer widths `dims` (input first) with fixed
/// pseudo-random parameters drawn from `seed`.
fn seeded_net(dims: &[usize], seed: u64) -> AffineReluNet {
    let layers = dims
        .windows(2)
        .zip(seed..)
        .map(|(io, s)| {
            let (cols, rows) = (io[0], io[1]);
            let w = Matrix::from_vec(rows, cols, weights(rows * cols, 2 * s)).unwrap();
            (w, weights(rows, 2 * s + 1))
        })
        .collect();
    AffineReluNet::new(layers).unwrap()
}

/// A 3-16-16-2 ReLU net with fixed pseudo-random parameters (the same
/// construction the parallel-determinism suite pins).
fn test_net() -> AffineReluNet {
    let w1 = Matrix::from_vec(16, 3, weights(48, 1)).unwrap();
    let w2 = Matrix::from_vec(16, 16, weights(256, 2)).unwrap();
    let w3 = Matrix::from_vec(2, 16, weights(32, 3)).unwrap();
    AffineReluNet::new(vec![
        (w1, weights(16, 4)),
        (w2, weights(16, 5)),
        (w3, weights(2, 6)),
    ])
    .unwrap()
}

const BOX: [(f64, f64); 3] = [(-0.6, 0.4), (-0.5, 0.5), (-0.2, 0.8)];

#[test]
fn ibp_matches_pre_pr_reference_on_fixed_net() {
    let net = test_net();
    let (naive_pre, naive_post) = naive_interval_bounds(&net, &BOX);
    let mut scratch = Scratch::new();
    // Three rounds through the same pool: cold, then recycled buffers.
    for round in 0..3 {
        let got = interval_bounds_scratch(&net, &BOX, 1, &mut scratch).unwrap();
        for (li, (np, gp)) in naive_pre.iter().zip(got.pre_activation()).enumerate() {
            assert_eq!(pair_bits(np), pair_bits(gp), "round {round} layer {li} pre");
        }
        for (li, (np, gp)) in naive_post.iter().zip(got.post_activation()).enumerate() {
            assert_eq!(
                pair_bits(np),
                pair_bits(gp),
                "round {round} layer {li} post"
            );
        }
        got.recycle(&mut scratch);
    }
    // A fresh pool and the parallel sweep agree too.
    let fresh = interval_bounds_scratch(&net, &BOX, 1, &mut Scratch::new()).unwrap();
    assert_eq!(
        pair_bits(fresh.output()),
        pair_bits(naive_post.last().unwrap())
    );
    let par = interval_bounds_scratch(&net, &BOX, 4, &mut Scratch::new()).unwrap();
    assert_eq!(
        pair_bits(par.output()),
        pair_bits(naive_post.last().unwrap())
    );
}

#[test]
fn crown_matches_pre_pr_reference_on_fixed_net() {
    let net = test_net();
    let ib = interval_bounds_scratch(&net, &BOX, 1, &mut Scratch::new()).unwrap();
    let spec = Specification {
        c: vec![1.0, -0.5],
        offset: 0.25,
    };
    let (want_lower, want_const, want_coeffs) =
        naive_crown_lower(&net, &BOX, &spec, ib.pre_activation());

    let fresh = crown_lower_scratch(&net, &BOX, &spec, &ib, &mut Scratch::new()).unwrap();
    assert_eq!(fresh.lower.to_bits(), want_lower.to_bits());
    assert_eq!(fresh.constant.to_bits(), want_const.to_bits());
    assert_eq!(bits(&fresh.input_coeffs), bits(&want_coeffs));

    // Three rounds through the same pool: cold, then recycled buffers.
    let mut scratch = Scratch::new();
    for round in 0..3 {
        let cb = crown_lower_scratch(&net, &BOX, &spec, &ib, &mut scratch).unwrap();
        assert_eq!(cb.lower.to_bits(), want_lower.to_bits(), "round {round}");
        assert_eq!(cb.constant.to_bits(), want_const.to_bits(), "round {round}");
        assert_eq!(bits(&cb.input_coeffs), bits(&want_coeffs), "round {round}");
        cb.recycle(&mut scratch);
    }
}

#[test]
fn warm_scratch_rounds_do_not_allocate() {
    let net = test_net();
    let spec = Specification {
        c: vec![1.0, -0.5],
        offset: 0.25,
    };
    let mut scratch = Scratch::new();
    // Warm-up: populate the pool.
    for _ in 0..2 {
        let ib = interval_bounds_scratch(&net, &BOX, 1, &mut scratch).unwrap();
        let cb = crown_lower_scratch(&net, &BOX, &spec, &ib, &mut scratch).unwrap();
        cb.recycle(&mut scratch);
        ib.recycle(&mut scratch);
    }
    let cold_before = scratch.cold_allocs();
    for _ in 0..50 {
        let ib = interval_bounds_scratch(&net, &BOX, 1, &mut scratch).unwrap();
        let cb = crown_lower_scratch(&net, &BOX, &spec, &ib, &mut scratch).unwrap();
        cb.recycle(&mut scratch);
        ib.recycle(&mut scratch);
    }
    assert_eq!(
        scratch.cold_allocs(),
        cold_before,
        "steady-state IBP+CROWN rounds must be served entirely from the pool"
    );
}

#[test]
fn one_pool_reused_across_net_shapes_matches_naive() {
    // Shrinking and growing layer widths and depths hand the pool buffers
    // recycled from another shape; every result must still match the
    // naive oracles to the bit.
    let shapes: [&[usize]; 3] = [&[2, 4, 1], &[8, 16, 16, 3], &[2, 4, 1]];
    for workers in [1usize, 4] {
        let mut scratch = Scratch::new();
        for (step, dims) in shapes.iter().enumerate() {
            let net = seeded_net(dims, 10 * step as u64 + 1);
            let bx: Vec<(f64, f64)> = (0..dims[0])
                .map(|i| (-0.4 - 0.05 * i as f64, 0.3 + 0.02 * i as f64))
                .collect();
            let out = dims[dims.len() - 1];
            let spec = Specification {
                c: weights(out, 99 + step as u64),
                offset: 0.125,
            };
            let ctx = format!("{workers} workers, step {step} ({dims:?})");

            let (naive_pre, naive_post) = naive_interval_bounds(&net, &bx);
            let ib = interval_bounds_scratch(&net, &bx, workers, &mut scratch).unwrap();
            assert_eq!(ib.pre_activation().len(), naive_pre.len(), "{ctx}");
            for (li, (np, gp)) in naive_pre.iter().zip(ib.pre_activation()).enumerate() {
                assert_eq!(pair_bits(np), pair_bits(gp), "{ctx}: layer {li} pre");
            }
            for (li, (np, gp)) in naive_post.iter().zip(ib.post_activation()).enumerate() {
                assert_eq!(pair_bits(np), pair_bits(gp), "{ctx}: layer {li} post");
            }

            let (want_lower, want_const, want_coeffs) =
                naive_crown_lower(&net, &bx, &spec, &naive_pre);
            let cb = crown_lower_scratch(&net, &bx, &spec, &ib, &mut scratch).unwrap();
            assert_eq!(cb.lower.to_bits(), want_lower.to_bits(), "{ctx}: lower");
            assert_eq!(
                cb.constant.to_bits(),
                want_const.to_bits(),
                "{ctx}: constant"
            );
            assert_eq!(bits(&cb.input_coeffs), bits(&want_coeffs), "{ctx}: coeffs");
            cb.recycle(&mut scratch);
            ib.recycle(&mut scratch);
        }
    }
}

fn net_from(weights: &[f64], biases: &[f64]) -> AffineReluNet {
    // 2-4-1 ReLU net: 8 + 4 weights, 4 + 1 biases.
    let w1 = Matrix::from_vec(4, 2, weights[..8].to_vec()).unwrap();
    let w2 = Matrix::from_vec(1, 4, weights[8..12].to_vec()).unwrap();
    AffineReluNet::new(vec![(w1, biases[..4].to_vec()), (w2, vec![biases[4]])]).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn scratch_paths_match_naive_on_random_nets(
        ws in prop::collection::vec(-1.5f64..1.5, 12),
        bs in prop::collection::vec(-0.5f64..0.5, 5),
        cx in -0.5f64..0.5,
        cy in -0.5f64..0.5,
        eps in 0.05f64..0.4,
        c0 in -2.0f64..2.0,
        offset in -1.0f64..1.0,
    ) {
        let net = net_from(&ws, &bs);
        let bx = [(cx - eps, cx + eps), (cy - eps, cy + eps)];
        let spec = Specification { c: vec![c0], offset };

        let (naive_pre, naive_post) = naive_interval_bounds(&net, &bx);
        let mut scratch = Scratch::new();
        let ib = interval_bounds_scratch(&net, &bx, 1, &mut scratch).unwrap();
        for (np, gp) in naive_pre.iter().zip(ib.pre_activation()) {
            prop_assert_eq!(pair_bits(np), pair_bits(gp));
        }
        for (np, gp) in naive_post.iter().zip(ib.post_activation()) {
            prop_assert_eq!(pair_bits(np), pair_bits(gp));
        }

        let (want_lower, want_const, want_coeffs) =
            naive_crown_lower(&net, &bx, &spec, ib.pre_activation());
        let cb = crown_lower_scratch(&net, &bx, &spec, &ib, &mut scratch).unwrap();
        prop_assert_eq!(cb.lower.to_bits(), want_lower.to_bits());
        prop_assert_eq!(cb.constant.to_bits(), want_const.to_bits());
        prop_assert_eq!(bits(&cb.input_coeffs), bits(&want_coeffs));
    }
}
