//! The deterministic-parallelism contract, end to end.
//!
//! ```sh
//! cargo run --release --example parallel_workers
//! RCR_WORKERS=4 cargo run --release --example parallel_workers
//! ```
//!
//! Runs the three parallel seams — PSO particle evaluation, the
//! IBP/CROWN verifier sweeps, and batched RRA candidate scoring — and
//! prints the results as exact bit patterns. The output must be
//! byte-for-byte identical for every worker count (`RCR_WORKERS` or the
//! per-call `workers` fields): parallelism is a throughput knob, never a
//! results knob.

use rcr::linalg::Matrix;
use rcr::pso::swarm::{PsoSettings, Swarm};
use rcr::qos::workload::{Scenario, ScenarioConfig};
use rcr::runtime::resolve_workers;
use rcr::verify::bounds::interval_bounds_scratch;
use rcr::verify::crown::crown_output_bounds;
use rcr::verify::net::AffineReluNet;
use rcr::verify::Scratch;

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

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workers = resolve_workers(0);
    println!("effective workers: {workers} (set RCR_WORKERS to change)");

    // --- 1. PSO: per-particle RNG streams make the swarm trajectory
    // independent of how particles are spread over threads.
    let rastrigin = |x: &[f64]| {
        10.0 * x.len() as f64
            + x.iter()
                .map(|&v| v * v - 10.0 * (2.0 * std::f64::consts::PI * v).cos())
                .sum::<f64>()
    };
    let settings = PsoSettings {
        swarm_size: 24,
        max_iter: 80,
        seed: 7,
        workers: 0, // auto: RCR_WORKERS, else serial
        ..Default::default()
    };
    let run = Swarm::minimize(rastrigin, &[(-5.12, 5.12); 6], &settings)?;
    println!(
        "pso     best {:+.6e}  bits {:016x}  evals {}",
        run.best_value,
        run.best_value.to_bits(),
        run.evaluations
    );

    // --- 2. Verification: output-node and row sweeps fan out.
    let net = AffineReluNet::new(vec![
        (Matrix::from_vec(16, 4, weights(64, 1))?, weights(16, 2)),
        (Matrix::from_vec(8, 16, weights(128, 3))?, weights(8, 4)),
    ])?;
    let input_box = [(-0.5, 0.5); 4];
    let ibp = interval_bounds_scratch(&net, &input_box, workers, &mut Scratch::new())?;
    let crown = crown_output_bounds(&net, &input_box, workers)?;
    let (ilo, ihi) = ibp.output()[0];
    println!(
        "ibp     out0 [{ilo:+.6}, {ihi:+.6}]  bits {:016x}/{:016x}",
        ilo.to_bits(),
        ihi.to_bits()
    );
    let (clo, chi) = crown[0];
    println!(
        "crown   out0 [{clo:+.6}, {chi:+.6}]  bits {:016x}/{:016x}",
        clo.to_bits(),
        chi.to_bits()
    );

    // --- 3. QoS: batched candidate scoring through the BatchSolve seam.
    let scenario = Scenario::generate(
        &ScenarioConfig {
            users: 4,
            resource_blocks: 8,
            ..Default::default()
        },
        2026,
    )?;
    let candidates: Vec<Vec<usize>> = (0..6)
        .map(|s| (0..8).map(|k| (k + s) % 4).collect())
        .collect();
    for (i, result) in scenario
        .rra
        .evaluate_batch(&candidates, 0)
        .iter()
        .enumerate()
    {
        let sol = result.as_ref().map_err(|e| e.to_string())?;
        println!(
            "rra #{i}  rate {:>9.3} Mb/s  bits {:016x}  qos {}",
            sol.total_rate_bps / 1e6,
            sol.total_rate_bps.to_bits(),
            if sol.qos_satisfied { "ok" } else { "violated" }
        );
    }

    Ok(())
}
