//! Test-sized self-check of the benchmark: every workload runs, every
//! metric `BENCHMARK.json` names is emitted with its unit, and nothing
//! fails (`error_ratio` is 0).
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use maestro_perfbench::{
    per_layer_metrics, result_json, run, Opts, Outcome, Size, E2E_METRICS, WORKLOADS,
};

fn bench(workload: &str, trace: bool) -> Outcome {
    let opts = Opts {
        workload: workload.to_string(),
        seed: 1,
        seconds: 0.0,
        trace,
        size: Size::Test,
        trace_dir: None,
    };
    run(&opts).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

fn check(workload: &str, o: &Outcome, expected: &[(String, &str)]) {
    assert!(o.correct, "{workload}: {:?}", o.failures);
    assert_eq!(o.failed, 0, "{workload}: {:?}", o.failures);
    assert!(o.attempted > 0, "{workload}");
    let error_ratio = o
        .summary
        .iter()
        .find(|m| m.name == "error_ratio")
        .expect("error_ratio printed");
    assert_eq!(error_ratio.value, 0.0, "{workload}");
    let got: Vec<(String, &str)> = o.metrics.iter().map(|m| (m.name.clone(), m.unit)).collect();
    assert_eq!(got, expected, "{workload}: metric names and units");
    for m in &o.metrics {
        assert!(m.value.is_finite(), "{workload}: {} = {}", m.name, m.value);
    }
    let line = result_json(o);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    let expected: Vec<(String, &str)> = E2E_METRICS
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for w in WORKLOADS {
        let o = bench(w, false);
        check(w, &o, &expected);
        for m in &o.metrics {
            assert!(
                m.value > 0.0,
                "{w}: end-to-end metric {} must never be 0",
                m.name
            );
        }
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric() {
    let expected = per_layer_metrics();
    for w in WORKLOADS {
        let o = bench(w, true);
        check(w, &o, &expected);
        let get = |name: &str| {
            o.metrics
                .iter()
                .find(|m| m.name == name)
                .expect("listed")
                .value
        };
        assert!(
            get("runtime.probe_steps_per_s") > 0.0 && get("machine.advance_ns") > 0.0,
            "{w}"
        );
    }
}

#[test]
fn simulated_results_do_not_depend_on_tracing() {
    for w in WORKLOADS {
        assert_eq!(
            bench(w, false).digest,
            bench(w, true).digest,
            "{w}: the timers must not change behaviour"
        );
    }
}

#[test]
fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json =
        std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark directory");
    let listed = |name: &str, unit: &str| {
        json.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\""))
    };
    let metrics: Vec<(String, &str)> = E2E_METRICS
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .chain(per_layer_metrics())
        .collect();
    for (name, unit) in &metrics {
        assert!(
            listed(name, unit),
            "BENCHMARK.json must list {name} in {unit}"
        );
    }
    assert_eq!(
        json.matches("\"unit\": ").count(),
        metrics.len(),
        "BENCHMARK.json lists extra metrics"
    );
    for w in WORKLOADS {
        assert!(
            json.contains(&format!("{{\"name\": \"{w}\", \"why\": ")),
            "BENCHMARK.json must list {w}"
        );
    }
    assert_eq!(
        json.matches("\"why\": ").count(),
        WORKLOADS.len(),
        "BENCHMARK.json lists extra workloads"
    );
}
