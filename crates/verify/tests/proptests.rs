//! Property-based invariants of the verification stack: soundness of
//! every bound against concrete evaluations, and agreement between the
//! relaxed and exact verdicts on verified instances.

use proptest::prelude::*;
use rcr_linalg::Matrix;
use rcr_verify::bounds::interval_bounds_scratch;
use rcr_verify::crown::crown_lower_scratch;
use rcr_verify::exact::{verify_complete, BnbSettings, Verdict};
use rcr_verify::net::{AffineReluNet, Specification};
use rcr_verify::Scratch;

fn net_from(weights: &[f64], biases: &[f64]) -> AffineReluNet {
    // 2-4-1 ReLU net: 8 + 4 weights, 4 + 1 biases.
    let w1 = Matrix::from_vec(4, 2, weights[..8].to_vec()).unwrap();
    let w2 = Matrix::from_vec(1, 4, weights[8..12].to_vec()).unwrap();
    AffineReluNet::new(vec![(w1, biases[..4].to_vec()), (w2, vec![biases[4]])]).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn all_bounds_sound_against_grid(
        weights in prop::collection::vec(-1.5f64..1.5, 12),
        biases in prop::collection::vec(-0.5f64..0.5, 5),
        cx in -0.5f64..0.5,
        cy in -0.5f64..0.5,
        eps in 0.05f64..0.4,
    ) {
        let net = net_from(&weights, &biases);
        let spec = Specification { c: vec![1.0], offset: 0.0 };
        let bx = [(cx - eps, cx + eps), (cy - eps, cy + eps)];

        let mut scratch = Scratch::new();
        let ib = interval_bounds_scratch(&net, &bx, 1, &mut scratch).unwrap();
        let ibp = ib.output()[0].0;
        let crown = crown_lower_scratch(&net, &bx, &spec, &ib, &mut scratch).unwrap().lower;

        let mut grid_min = f64::INFINITY;
        for i in 0..=8 {
            for j in 0..=8 {
                let x = [
                    bx[0].0 + (bx[0].1 - bx[0].0) * i as f64 / 8.0,
                    bx[1].0 + (bx[1].1 - bx[1].0) * j as f64 / 8.0,
                ];
                grid_min = grid_min.min(net.eval(&x).unwrap()[0]);
            }
        }
        prop_assert!(ibp <= grid_min + 1e-9, "ibp {ibp} > grid {grid_min}");
        prop_assert!(crown <= grid_min + 1e-9, "crown {crown} > grid {grid_min}");
    }

    #[test]
    fn exact_verdict_consistent_with_concrete_margins(
        weights in prop::collection::vec(-1.5f64..1.5, 12),
        biases in prop::collection::vec(-0.5f64..0.5, 5),
        offset in -1.0f64..1.0,
    ) {
        let net = net_from(&weights, &biases);
        let spec = Specification { c: vec![1.0], offset };
        let bx = [(-0.3, 0.3), (-0.3, 0.3)];
        let settings = BnbSettings { max_nodes: 20_000, epsilon: 1e-5, ..Default::default() };
        let Ok(report) = verify_complete(&net, &bx, &spec, &settings) else {
            // Budget exhaustion on a degenerate margin: acceptable.
            return Ok(());
        };
        match report.verdict {
            Verdict::Verified { lower_bound } => {
                // Every sampled point must satisfy the spec.
                for i in 0..=6 {
                    for j in 0..=6 {
                        let x = [-0.3 + 0.6 * i as f64 / 6.0, -0.3 + 0.6 * j as f64 / 6.0];
                        let m = spec.eval(&net.eval(&x).unwrap());
                        prop_assert!(m >= lower_bound - 1e-6, "margin {m} < bound {lower_bound}");
                    }
                }
            }
            Verdict::Falsified { margin } => {
                let cex = report.counterexample.expect("falsified carries a witness");
                let m = spec.eval(&net.eval(&cex).unwrap());
                prop_assert!((m - margin).abs() < 1e-9);
                prop_assert!(m <= 0.0);
                // Witness inside the box.
                prop_assert!(cex.iter().all(|&v| (-0.3..=0.3).contains(&v)));
            }
        }
    }
}
