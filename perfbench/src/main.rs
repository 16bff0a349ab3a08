//! `rcr-perfbench --workload W --seed N --seconds S --trace 0|1 [--out DIR]`

use rcr_perfbench::{metadata, metrics, parse_args, run};

/// The aggregate `cpu` line of `/proc/stat`, where the host has one.
fn cpu_ticks() -> Option<Vec<u64>> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    line.split_whitespace().map(|v| v.parse().ok()).collect()
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage error: {e}");
            eprintln!(
                "usage: rcr-perfbench --workload W --seed N --seconds S --trace 0|1 [--out DIR]"
            );
            std::process::exit(2);
        }
    };
    println!("{}", metadata(&args));
    let before = cpu_ticks();
    let out = run(&args);
    if let (Some(a), Some(b)) = (before, cpu_ticks()) {
        let d: Vec<u64> = a
            .iter()
            .zip(&b)
            .map(|(x, y)| y.saturating_sub(*x))
            .collect();
        let total: u64 = d.iter().sum();
        // Field 8 of the `cpu` line is steal: time the hypervisor ran
        // someone else while this machine wanted the CPU.
        if let (Some(steal), true) = (d.get(7), total > 0) {
            println!(
                "host steal share during the run: {:.3}",
                *steal as f64 / total as f64
            );
        }
    }
    print!("{}", out.report);
    println!(
        "metrics ({})",
        if args.trace {
            "per-layer"
        } else {
            "end-to-end"
        }
    );
    print!("{}", out.metrics.render());
    for v in out.violations.iter().take(20) {
        println!("CHECK FAILED: {v}");
    }
    if out.violations.len() > 20 {
        println!("... {} more check failures", out.violations.len() - 20);
    }
    let correct = out.violations.is_empty() && out.attempted > 0;
    println!(
        "{}",
        metrics::result_line(correct, out.attempted, out.failed, &out.metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
