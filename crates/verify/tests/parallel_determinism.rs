//! The whole verifier ladder — IBP, CROWN, and complete branch-and-bound
//! — must produce bit-identical results for every worker count. Rows,
//! output nodes, and wave subproblems are data-parallel with unchanged
//! per-item accumulation order, and all merges run serially in
//! deterministic order, so parallelism is purely a throughput knob.

use rcr_linalg::Matrix;
use rcr_verify::bounds::interval_bounds_scratch;
use rcr_verify::crown::crown_output_bounds;
use rcr_verify::exact::{verify_complete, BnbSettings, Verdict};
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

/// A 3-16-16-2 ReLU net with fixed pseudo-random parameters.
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
fn interval_bounds_bit_identical_across_worker_counts() {
    let net = test_net();
    let mut scratch = Scratch::new();
    let serial = interval_bounds_scratch(&net, &BOX, 1, &mut scratch).unwrap();
    for workers in [2usize, 4, 7] {
        let par = interval_bounds_scratch(&net, &BOX, workers, &mut scratch).unwrap();
        assert_eq!(
            serial.pre_activation(),
            par.pre_activation(),
            "{workers} workers: pre"
        );
        assert_eq!(
            serial.post_activation(),
            par.post_activation(),
            "{workers} workers: post"
        );
        assert_eq!(serial.output(), par.output(), "{workers} workers: output");
    }
}

#[test]
fn crown_bounds_bit_identical_across_worker_counts() {
    let net = test_net();
    let serial = crown_output_bounds(&net, &BOX, 1).unwrap();
    for workers in [2usize, 4, 7] {
        let par = crown_output_bounds(&net, &BOX, workers).unwrap();
        assert_eq!(serial.len(), par.len());
        for (j, ((slo, shi), (plo, phi))) in serial.iter().zip(&par).enumerate() {
            assert_eq!(
                slo.to_bits(),
                plo.to_bits(),
                "{workers} workers: output {j} lower"
            );
            assert_eq!(
                shi.to_bits(),
                phi.to_bits(),
                "{workers} workers: output {j} upper"
            );
        }
    }
}

#[test]
fn branch_and_bound_bit_identical_across_worker_counts() {
    let net = test_net();
    // An offset that forces real branching without exhausting the budget.
    let spec = Specification {
        c: vec![1.0, -0.5],
        offset: 0.9,
    };
    let run = |workers: usize| {
        let settings = BnbSettings {
            max_nodes: 50_000,
            epsilon: 1e-6,
            workers,
            wave: 8,
        };
        verify_complete(&net, &BOX, &spec, &settings).unwrap()
    };
    let serial = run(1);
    for workers in [2usize, 4, 7] {
        let par = run(workers);
        assert_eq!(serial.nodes, par.nodes, "{workers} workers: node count");
        assert_eq!(
            serial.lower_bound.to_bits(),
            par.lower_bound.to_bits(),
            "{workers} workers: lower bound"
        );
        assert_eq!(
            serial.upper_bound.to_bits(),
            par.upper_bound.to_bits(),
            "{workers} workers: upper bound"
        );
        match (&serial.verdict, &par.verdict) {
            (Verdict::Verified { lower_bound: a }, Verdict::Verified { lower_bound: b }) => {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{workers} workers: verified bound"
                )
            }
            (Verdict::Falsified { margin: a }, Verdict::Falsified { margin: b }) => {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{workers} workers: falsified margin"
                )
            }
            (a, b) => panic!("{workers} workers: verdicts diverge: {a:?} vs {b:?}"),
        }
        assert_eq!(
            serial.counterexample, par.counterexample,
            "{workers} workers: witness"
        );
    }
}

#[test]
fn wave_size_is_the_schedule_knob_not_workers() {
    // Changing the wave size may legitimately change the exploration
    // order (and thus node counts), but for a FIXED wave size every
    // worker count must agree — that's the documented contract.
    let net = test_net();
    let spec = Specification {
        c: vec![1.0, -0.5],
        offset: 0.9,
    };
    for wave in [1usize, 4, 16] {
        let run = |workers: usize| {
            let settings = BnbSettings {
                max_nodes: 50_000,
                epsilon: 1e-6,
                workers,
                wave,
            };
            verify_complete(&net, &BOX, &spec, &settings).unwrap()
        };
        let serial = run(1);
        let par = run(4);
        assert_eq!(serial.nodes, par.nodes, "wave {wave}: node count");
        assert_eq!(
            serial.lower_bound.to_bits(),
            par.lower_bound.to_bits(),
            "wave {wave}: lower bound"
        );
    }
}
