//! Performance companion to E10: the cost ladder IBP → CROWN → exact
//! branch-and-bound, on a trained classifier.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rcr_core::robust::{train_classifier, BlobData, RobustTrainConfig, TrainMode};
use rcr_linalg::Matrix;
use rcr_verify::bounds::interval_bounds_scratch;
use rcr_verify::crown::{crown_lower_scratch, crown_output_bounds};
use rcr_verify::exact::{verify_complete, BnbSettings};
use rcr_verify::net::{AffineReluNet, Specification};
use rcr_verify::Scratch;
use std::hint::black_box;

fn bench_verifiers(c: &mut Criterion) {
    let data = BlobData::generate(40, 3);
    let cfg = RobustTrainConfig {
        mode: TrainMode::Standard,
        epochs: 60,
        ..Default::default()
    };
    let model = train_classifier(&data, &cfg).expect("training");
    let net = model.to_affine_relu().expect("extraction");
    let spec = Specification::margin(2, 1, 0).expect("spec");
    let center = [1.0, 0.0];
    let eps = 0.25;
    let bx = [
        (center[0] - eps, center[0] + eps),
        (center[1] - eps, center[1] + eps),
    ];

    let mut group = c.benchmark_group("verify");
    group.sample_size(30);
    let mut scratch = Scratch::new();
    group.bench_function("ibp", |b| {
        b.iter(|| {
            let lb = interval_bounds_scratch(black_box(&net), black_box(&bx), 1, &mut scratch)
                .expect("ibp");
            let lo = lb.output()[0].0;
            lb.recycle(&mut scratch);
            lo
        })
    });
    group.bench_function("crown", |b| {
        b.iter(|| {
            let lb = interval_bounds_scratch(black_box(&net), black_box(&bx), 1, &mut scratch)
                .expect("ibp");
            let cb = crown_lower_scratch(black_box(&net), black_box(&bx), &spec, &lb, &mut scratch)
                .expect("crown");
            let lower = cb.lower;
            cb.recycle(&mut scratch);
            lb.recycle(&mut scratch);
            lower
        })
    });
    group.bench_function("exact_bnb", |b| {
        b.iter(|| {
            verify_complete(
                black_box(&net),
                black_box(&bx),
                &spec,
                &BnbSettings::default(),
            )
            .expect("bnb")
        })
    });
    group.finish();
}

/// Deterministic pseudo-random weights in [-1, 1] (splitmix64).
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

/// Serial vs parallel bound computation on a wide synthetic net — large
/// enough (6-256-256-16) that per-row/per-output work dominates thread
/// hand-off. Results are bit-identical for every worker count; on a
/// multi-core host 4+ workers should clearly beat serial.
fn bench_workers(c: &mut Criterion) {
    let net = AffineReluNet::new(vec![
        (
            Matrix::from_vec(256, 6, weights(1536, 1)).expect("w1"),
            weights(256, 2),
        ),
        (
            Matrix::from_vec(256, 256, weights(65536, 3)).expect("w2"),
            weights(256, 4),
        ),
        (
            Matrix::from_vec(16, 256, weights(4096, 5)).expect("w3"),
            weights(16, 6),
        ),
    ])
    .expect("net");
    let bx: Vec<(f64, f64)> = (0..6).map(|i| (-0.3 - 0.01 * i as f64, 0.3)).collect();

    let mut group = c.benchmark_group("verify_workers_ibp");
    group.sample_size(20);
    for &workers in &[1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            b.iter(|| {
                interval_bounds_scratch(black_box(&net), black_box(&bx), w, &mut Scratch::new())
                    .expect("ibp")
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("verify_workers_crown");
    group.sample_size(10);
    for &workers in &[1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            b.iter(|| crown_output_bounds(black_box(&net), black_box(&bx), w).expect("crown"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_verifiers, bench_workers);
criterion_main!(benches);
