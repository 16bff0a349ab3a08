//! The benchmark's own tests: its metric registry matches
//! `BENCHMARK.json`, the output checks catch a corrupted answer, and the
//! digest follows the seed. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use rcr_perfbench::check::{self, AnswerContext};
use rcr_perfbench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use rcr_perfbench::solvers;
use rcr_perfbench::spans::Tracer;
use rcr_perfbench::workload::{self, Workload};
use rcr_qos::rra::{self, RraProblem, RraSolution};
use rcr_qos::QosClass;
use rcr_serve::json::{self, JsonValue};
use rcr_serve::ScenarioSpec;
use std::time::{Duration, Instant};

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn section<'a>(doc: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    doc.as_object()
        .and_then(|o| o.get(key))
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} array"))
}

fn field<'a>(entry: &'a JsonValue, key: &str) -> &'a JsonValue {
    entry
        .as_object()
        .and_then(|o| o.get(key))
        .unwrap_or_else(|| panic!("entry without {key}: {entry:?}"))
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn assert_matches(defs: &[MetricDef], entries: &[JsonValue], with_bound: bool) {
    assert_eq!(defs.len(), entries.len(), "metric count differs");
    for (def, entry) in defs.iter().zip(entries) {
        assert!(valid_name(def.name), "bad metric name {}", def.name);
        assert_eq!(field(entry, "name").as_str(), Some(def.name));
        assert_eq!(
            field(entry, "unit").as_str(),
            Some(def.unit),
            "{}",
            def.name
        );
        assert_eq!(
            field(entry, "better").as_str(),
            Some(def.better.name()),
            "{}",
            def.name
        );
        let has_bound = entry.as_object().and_then(|o| o.get("bound")).is_some();
        assert_eq!(has_bound, with_bound, "{}: bound presence", def.name);
    }
}

#[test]
fn metric_names_are_valid_unique_and_match_benchmark_json() {
    let doc = benchmark_json();
    assert_matches(END_TO_END, section(&doc, "end_to_end"), true);
    assert_matches(PER_LAYER, section(&doc, "per_layer"), false);
    let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
    names.sort_unstable();
    let before = names.len();
    names.dedup();
    assert_eq!(names.len(), before, "metric names repeat");

    let workloads: Vec<&str> = section(&doc, "workloads")
        .iter()
        .map(|w| field(w, "name").as_str().expect("workload name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn every_end_to_end_metric_has_unit_direction_and_bound() {
    let doc = benchmark_json();
    let mut setup_bound = 0.0;
    let mut max_bound: f64 = 0.0;
    for entry in section(&doc, "end_to_end") {
        let name = field(entry, "name").as_str().expect("name");
        assert!(!field(entry, "unit").as_str().expect("unit").is_empty());
        assert!(matches!(
            field(entry, "better").as_str(),
            Some("higher" | "lower")
        ));
        let bound = field(entry, "bound").as_f64().expect("numeric bound");
        assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
        max_bound = max_bound.max(bound);
        if name == "setup_s" {
            setup_bound = bound;
            assert_eq!(field(entry, "unit").as_str(), Some("s"));
            assert_eq!(field(entry, "better").as_str(), Some("lower"));
        }
    }
    assert_eq!(setup_bound, max_bound, "setup_s carries the largest bound");
}

fn solved() -> (RraProblem, RraSolution, AnswerContext) {
    let problem = ScenarioSpec {
        users: 3,
        resource_blocks: 6,
        seed: 42,
    }
    .to_problem(QosClass::Embb)
    .expect("spec expands");
    let solution = rra::solve_greedy(&problem).expect("greedy solves");
    let ctx = AnswerContext {
        bound_bps: rra::relaxation_bound_bps(&problem),
        in_process: true,
        timing: Some((Duration::from_millis(1), Duration::from_millis(20))),
    };
    (problem, solution, ctx)
}

#[test]
fn a_correct_answer_passes_the_output_check() {
    let (problem, solution, ctx) = solved();
    check::check_answer(&problem, &solution, &ctx).expect("greedy answer is valid");
}

/// Breaks one property of an answer (or of its context).
type Corruption = Box<dyn Fn(&mut RraSolution, &mut AnswerContext)>;

#[test]
fn a_corrupted_answer_fails_the_output_check() {
    let (problem, good, ctx) = solved();
    let corruptions: Vec<(&str, Corruption)> = vec![
        ("owner out of range", Box::new(|s, _| s.owners[0] = 3)),
        (
            "owners too short",
            Box::new(|s, _| {
                s.owners.pop();
            }),
        ),
        (
            "rate above the bound",
            Box::new(|s, c| s.total_rate_bps = c.bound_bps * 1.01),
        ),
        (
            "spectral efficiency",
            Box::new(|s, _| s.spectral_efficiency *= 1.001),
        ),
        (
            "power over budget",
            Box::new(|s, _| s.power.powers[0] += 1e3),
        ),
        (
            "Shannon rate",
            Box::new(|s, _| s.power.rb_rates_bps[1] *= 1.001),
        ),
        (
            "late answer",
            Box::new(|_, c| {
                c.timing = Some((Duration::from_millis(21), Duration::from_millis(20)))
            }),
        ),
    ];
    for (what, corrupt) in corruptions {
        let (mut bad, mut ctx) = (good.clone(), ctx);
        corrupt(&mut bad, &mut ctx);
        assert!(
            check::check_answer(&problem, &bad, &ctx).is_err(),
            "{what} went unnoticed"
        );
    }
}

/// Digest and metric names of a minimal solver pass (the serving loop
/// only: Exact and PSO take seconds) over `mix_tcp`'s trace at `seed`.
fn pass_digest(seed: u64) -> (String, Vec<&'static str>) {
    let (items, _) = workload::generate_trace(Workload::MixTcp, seed, 64);
    let set = solvers::instance_set(&items);
    let pass = solvers::serving_loop(&set, 0.0, &mut Tracer::new(false, Instant::now()));
    assert!(pass.violations.is_empty(), "{:?}", pass.violations);
    let mut names: Vec<&'static str> = PER_LAYER
        .iter()
        .map(|d| d.name)
        .filter(|n| pass.metrics.get(n).is_some())
        .collect();
    names.sort_unstable();
    (pass.digest, names)
}

#[test]
fn the_seed_changes_the_digest_but_not_the_metric_set() {
    let (a, names_a) = pass_digest(1);
    let (again, _) = pass_digest(1);
    let (b, names_b) = pass_digest(2);
    assert_eq!(a, again, "same seed, same digest");
    assert_ne!(a, b, "another seed, another digest");
    assert_eq!(names_a, names_b);
    assert!(!names_a.is_empty());
}
