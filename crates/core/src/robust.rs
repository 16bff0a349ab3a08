//! Convex-relaxation adversarial training and hybrid verification —
//! Phase 1 of the RCR stack.
//!
//! §II-B-2: "One approach that has gained great interest due to its
//! robustness and accuracy leverages convex relaxation adversarial
//! training" and "a certain convex relaxation is posited for the purpose
//! of ascertaining an upper bound for a worst-case instability scenario".
//!
//! The implementation trains a small ReLU MLP classifier on a 2-D
//! two-blob task, optionally hardening it with *relaxation-guided*
//! adversarial examples: for each training point the CROWN backward pass
//! yields an affine minorant of the true-class margin over the ε-box; its
//! minimizing corner (the sign pattern of the linear coefficients) is the
//! convex relaxation's worst case, and the model trains on that corner.
//! Certification then runs the paper's two verifier arms — relaxed
//! (IBP / CROWN) and exact (branch-and-bound) — and tabulates agreement,
//! the data of experiment E10.

use crate::CoreError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rcr_nn::layers::{Activation, ActivationLayer, Layer, Linear};
use rcr_nn::tensor::Tensor;
use rcr_verify::bounds::interval_bounds_scratch;
use rcr_verify::crown::crown_lower_scratch;
use rcr_verify::exact::{verify_complete, BnbSettings, Verdict};
use rcr_verify::net::{AffineReluNet, Specification};
use rcr_verify::Scratch;

/// Training mode for the classifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainMode {
    /// Plain cross-entropy training.
    Standard,
    /// Convex-relaxation adversarial training: each example is replaced by
    /// the minimizing corner of its CROWN margin minorant over the ε-box.
    RelaxationAdversarial,
}

/// Configuration for robust training.
#[derive(Debug, Clone)]
pub struct RobustTrainConfig {
    /// Perturbation radius for training and certification.
    pub epsilon: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// Hidden width of the two hidden layers.
    pub hidden: usize,
    /// Training mode.
    pub mode: TrainMode,
    /// Samples per class.
    pub samples_per_class: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RobustTrainConfig {
    fn default() -> Self {
        RobustTrainConfig {
            epsilon: 0.15,
            epochs: 60,
            learning_rate: 0.02,
            hidden: 8,
            mode: TrainMode::RelaxationAdversarial,
            samples_per_class: 60,
            seed: 0,
        }
    }
}

/// The 2-D two-blob dataset: class 0 around (−1, 0), class 1 around
/// (1, 0), standard deviation 0.3.
#[derive(Debug, Clone)]
pub struct BlobData {
    /// Input points.
    pub x: Vec<[f64; 2]>,
    /// Labels (0/1).
    pub y: Vec<usize>,
}

impl BlobData {
    /// Generates the dataset deterministically.
    pub fn generate(samples_per_class: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let gauss = move |rng: &mut StdRng| {
            let u1: f64 = rng.gen_range(1e-12..1.0);
            let u2: f64 = rng.gen();
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        };
        let mut x = Vec::with_capacity(2 * samples_per_class);
        let mut y = Vec::with_capacity(2 * samples_per_class);
        for class in 0..2usize {
            let cx = if class == 0 { -1.0 } else { 1.0 };
            for _ in 0..samples_per_class {
                x.push([cx + 0.3 * gauss(&mut rng), 0.3 * gauss(&mut rng)]);
                y.push(class);
            }
        }
        BlobData { x, y }
    }
}

/// A trained verification-friendly classifier (Linear-ReLU-Linear-ReLU-
/// Linear) with typed access to its affine layers.
#[derive(Debug)]
pub struct RobustClassifier {
    l1: Linear,
    l2: Linear,
    l3: Linear,
    a1: ActivationLayer,
    a2: ActivationLayer,
}

impl RobustClassifier {
    fn new(hidden: usize, seed: u64) -> Result<Self, CoreError> {
        Ok(RobustClassifier {
            l1: Linear::new(2, hidden, seed)?,
            l2: Linear::new(hidden, hidden, seed + 1)?,
            l3: Linear::new(hidden, 2, seed + 2)?,
            a1: ActivationLayer::new(Activation::Relu),
            a2: ActivationLayer::new(Activation::Relu),
        })
    }

    fn forward(&mut self, x: &Tensor) -> Result<Tensor, CoreError> {
        let h = self.a1.forward(&self.l1.forward(x, true)?, true)?;
        let h = self.a2.forward(&self.l2.forward(&h, true)?, true)?;
        Ok(self.l3.forward(&h, true)?)
    }

    fn backward_and_step(&mut self, grad: &Tensor, lr: f64) -> Result<(), CoreError> {
        let g = self.l3.backward(grad)?;
        let g = self.a2.backward(&g)?;
        let g = self.l2.backward(&g)?;
        let g = self.a1.backward(&g)?;
        let _ = self.l1.backward(&g)?;
        for layer in [&mut self.l1 as &mut dyn Layer, &mut self.l2, &mut self.l3] {
            for (param, grad) in layer.params_mut() {
                for (p, g) in param.iter_mut().zip(grad.iter()) {
                    *p -= lr * g;
                }
            }
            layer.zero_grad();
        }
        Ok(())
    }

    /// Exports the network in the verifier's affine-ReLU form.
    ///
    /// # Errors
    /// Propagates extraction errors.
    pub fn to_affine_relu(&self) -> Result<AffineReluNet, CoreError> {
        Ok(AffineReluNet::from_linear_layers(&[
            &self.l1, &self.l2, &self.l3,
        ])?)
    }

    /// Predicts the class of a point.
    ///
    /// # Errors
    /// Propagates network errors.
    pub fn predict(&mut self, p: [f64; 2]) -> Result<usize, CoreError> {
        let x = Tensor::from_vec(vec![1, 2], vec![p[0], p[1]])?;
        let out = self.forward(&x)?;
        Ok(usize::from(out.data()[1] > out.data()[0]))
    }
}

/// Softmax cross-entropy gradient for a `[N, 2]` logit tensor.
fn ce_grad(logits: &Tensor, labels: &[usize]) -> (f64, Tensor) {
    let n = labels.len();
    let mut grad = logits.clone();
    let mut loss = 0.0;
    for i in 0..n {
        let row = &logits.data()[i * 2..i * 2 + 2];
        let probs = rcr_numerics::stable::softmax(row);
        let lp = rcr_numerics::stable::log_softmax(row);
        loss -= lp[labels[i]];
        for c in 0..2 {
            grad.data_mut()[i * 2 + c] =
                (probs[c] - if c == labels[i] { 1.0 } else { 0.0 }) / n as f64;
        }
    }
    (loss / n as f64, grad)
}

/// Trains a classifier on the blob data.
///
/// # Errors
/// Propagates layer and verification errors.
pub fn train_classifier(
    data: &BlobData,
    config: &RobustTrainConfig,
) -> Result<RobustClassifier, CoreError> {
    if config.epochs == 0 || !(config.epsilon >= 0.0) {
        return Err(CoreError::InvalidConfig(
            "epochs >= 1 and epsilon >= 0 required".into(),
        ));
    }
    let mut model = RobustClassifier::new(config.hidden, config.seed)?;
    let n = data.x.len();
    let mut scratch = Scratch::new();
    for _epoch in 0..config.epochs {
        // Assemble the (possibly relaxation-perturbed) batch.
        let mut batch = Vec::with_capacity(n * 2);
        match config.mode {
            TrainMode::Standard => {
                for p in &data.x {
                    batch.extend_from_slice(p);
                }
            }
            TrainMode::RelaxationAdversarial => {
                let net = model.to_affine_relu()?;
                for (p, &label) in data.x.iter().zip(&data.y) {
                    let spec = Specification::margin(2, label, 1 - label)?;
                    let bx = [
                        (p[0] - config.epsilon, p[0] + config.epsilon),
                        (p[1] - config.epsilon, p[1] + config.epsilon),
                    ];
                    let ib = interval_bounds_scratch(&net, &bx, 1, &mut scratch)?;
                    let cb = crown_lower_scratch(&net, &bx, &spec, &ib, &mut scratch)?;
                    // Minimizing corner of the affine minorant.
                    for (d, coeff) in cb.input_coeffs.iter().enumerate() {
                        batch.push(if *coeff >= 0.0 {
                            p[d] - config.epsilon
                        } else {
                            p[d] + config.epsilon
                        });
                    }
                    cb.recycle(&mut scratch);
                    ib.recycle(&mut scratch);
                }
            }
        }
        let x = Tensor::from_vec(vec![n, 2], batch)?;
        let logits = model.forward(&x)?;
        let (_, grad) = ce_grad(&logits, &data.y);
        model.backward_and_step(&grad, config.learning_rate)?;
    }
    Ok(model)
}

/// Certification report comparing the verifier arms (experiment E10).
#[derive(Debug, Clone)]
pub struct CertReport {
    /// Clean accuracy on the evaluated points.
    pub clean_accuracy: f64,
    /// Fraction verified robust at ε by IBP alone.
    pub verified_ibp: f64,
    /// Fraction verified robust at ε by CROWN.
    pub verified_crown: f64,
    /// Fraction verified robust at ε by the complete verifier (ground
    /// truth robustness rate).
    pub verified_exact: f64,
    /// Mean margin-bound gap `exact_lb − ibp_lb` (relaxation looseness).
    pub mean_ibp_gap: f64,
    /// Mean margin-bound gap `exact_lb − crown_lb`.
    pub mean_crown_gap: f64,
    /// Points evaluated.
    pub points: usize,
}

/// Certifies robustness of `model` at radius `epsilon` over `data`,
/// running all three verifier arms on every correctly-classified point.
///
/// # Errors
/// Propagates verifier errors.
pub fn certify(
    model: &mut RobustClassifier,
    data: &BlobData,
    epsilon: f64,
    bnb: &BnbSettings,
) -> Result<CertReport, CoreError> {
    let net = model.to_affine_relu()?;
    let mut correct = 0usize;
    let mut v_ibp = 0usize;
    let mut v_crown = 0usize;
    let mut v_exact = 0usize;
    let mut gap_ibp = 0.0;
    let mut gap_crown = 0.0;
    let mut gap_count = 0usize;
    let mut scratch = Scratch::new();
    for (p, &label) in data.x.iter().zip(&data.y) {
        if model.predict(*p)? != label {
            continue;
        }
        correct += 1;
        let spec = Specification::margin(2, label, 1 - label)?;
        let bx = [
            (p[0] - epsilon, p[0] + epsilon),
            (p[1] - epsilon, p[1] + epsilon),
        ];

        // IBP bound of the margin.
        let ib = interval_bounds_scratch(&net, &bx, 1, &mut scratch)?;
        let out = ib.output();
        let ibp_lb = out[label].0 - out[1 - label].1;
        if ibp_lb > 0.0 {
            v_ibp += 1;
        }
        // CROWN bound, from the same interval bounds.
        let cb = crown_lower_scratch(&net, &bx, &spec, &ib, &mut scratch)?;
        let crown_lb = cb.lower;
        if crown_lb > 0.0 {
            v_crown += 1;
        }
        cb.recycle(&mut scratch);
        ib.recycle(&mut scratch);
        // Exact verdict.
        let exact = verify_complete(&net, &bx, &spec, bnb)?;
        if let Verdict::Verified { .. } = exact.verdict {
            v_exact += 1;
        }
        gap_ibp += exact.lower_bound - ibp_lb;
        gap_crown += exact.lower_bound - crown_lb;
        gap_count += 1;
    }
    let n = data.x.len();
    Ok(CertReport {
        clean_accuracy: correct as f64 / n.max(1) as f64,
        verified_ibp: v_ibp as f64 / n.max(1) as f64,
        verified_crown: v_crown as f64 / n.max(1) as f64,
        verified_exact: v_exact as f64 / n.max(1) as f64,
        mean_ibp_gap: gap_ibp / gap_count.max(1) as f64,
        mean_crown_gap: gap_crown / gap_count.max(1) as f64,
        points: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config(mode: TrainMode) -> RobustTrainConfig {
        RobustTrainConfig {
            epochs: 40,
            samples_per_class: 40,
            mode,
            seed: 3,
            ..Default::default()
        }
    }

    #[test]
    fn blob_data_generation() {
        let d = BlobData::generate(25, 1);
        assert_eq!(d.x.len(), 50);
        assert_eq!(d.y.iter().filter(|&&y| y == 0).count(), 25);
        // Classes are separated in the first coordinate on average.
        let mean0: f64 =
            d.x.iter()
                .zip(&d.y)
                .filter(|(_, &y)| y == 0)
                .map(|(p, _)| p[0])
                .sum::<f64>()
                / 25.0;
        let mean1: f64 =
            d.x.iter()
                .zip(&d.y)
                .filter(|(_, &y)| y == 1)
                .map(|(p, _)| p[0])
                .sum::<f64>()
                / 25.0;
        assert!(mean0 < -0.7 && mean1 > 0.7);
    }

    #[test]
    fn standard_training_reaches_high_clean_accuracy() {
        let data = BlobData::generate(40, 5);
        let mut m = train_classifier(&data, &quick_config(TrainMode::Standard)).unwrap();
        let report = certify(&mut m, &data, 0.05, &BnbSettings::default()).unwrap();
        assert!(report.clean_accuracy > 0.9, "acc {}", report.clean_accuracy);
    }

    #[test]
    fn relaxation_training_improves_verified_robustness() {
        let data = BlobData::generate(40, 7);
        let eval = BlobData::generate(30, 8);
        let mut std_m = train_classifier(&data, &quick_config(TrainMode::Standard)).unwrap();
        let mut rob_m =
            train_classifier(&data, &quick_config(TrainMode::RelaxationAdversarial)).unwrap();
        let eps = 0.15;
        let r_std = certify(&mut std_m, &eval, eps, &BnbSettings::default()).unwrap();
        let r_rob = certify(&mut rob_m, &eval, eps, &BnbSettings::default()).unwrap();
        assert!(
            r_rob.verified_exact >= r_std.verified_exact - 0.05,
            "robust {} vs standard {}",
            r_rob.verified_exact,
            r_std.verified_exact
        );
        assert!(r_rob.clean_accuracy > 0.85);
    }

    #[test]
    fn verifier_hierarchy_holds() {
        // Soundness ordering: IBP ⊆ CROWN∪IBP ⊆ exact verified sets; in
        // rates: verified_ibp ≤ verified_exact and verified_crown ≤
        // verified_exact (exact is complete).
        let data = BlobData::generate(30, 11);
        let mut m = train_classifier(&data, &quick_config(TrainMode::Standard)).unwrap();
        let r = certify(&mut m, &data, 0.1, &BnbSettings::default()).unwrap();
        assert!(r.verified_ibp <= r.verified_exact + 1e-12);
        assert!(r.verified_crown <= r.verified_exact + 1e-12);
        // Gaps are nonnegative (exact bound dominates the relaxations).
        assert!(r.mean_ibp_gap >= -1e-9, "gap {}", r.mean_ibp_gap);
        assert!(r.mean_crown_gap >= -1e-9, "gap {}", r.mean_crown_gap);
    }

    #[test]
    fn config_validation() {
        let data = BlobData::generate(5, 0);
        let bad = RobustTrainConfig {
            epochs: 0,
            ..Default::default()
        };
        assert!(train_classifier(&data, &bad).is_err());
    }

    #[test]
    fn exported_net_matches_model_predictions() {
        let data = BlobData::generate(20, 13);
        let mut m = train_classifier(&data, &quick_config(TrainMode::Standard)).unwrap();
        let net = m.to_affine_relu().unwrap();
        for p in data.x.iter().take(10) {
            let model_pred = m.predict(*p).unwrap();
            let out = net.eval(&[p[0], p[1]]).unwrap();
            let net_pred = usize::from(out[1] > out[0]);
            assert_eq!(model_pred, net_pred);
        }
    }
}
