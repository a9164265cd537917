//! Self-tests of the benchmark contract: smoke-sized runs of every
//! workload pass the oracle gate, the metric names emitted are the
//! names `BENCHMARK.json` declares, a wrong oracle digest fails the
//! run, and the latency histogram has at least ten samples beyond p99.

use ccs_perfbench::{run, workload, Options, Outcome, END_TO_END, MIN_BEYOND_P99, PER_LAYER};
use serde_json::Value;
use std::process::Command;

fn smoke(name: &str, trace: bool) -> Outcome {
    let mut opts = Options::new(name, 7, 0.0, trace);
    opts.smoke = true;
    run(&opts).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn spec() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match &v[key] {
        Value::Array(items) => items,
        other => panic!("{key} is not a list: {other:?}"),
    }
}

/// `(name, unit)` pairs of one metric list of the spec.
fn declared(key: &str) -> Vec<(String, String)> {
    list(&spec(), key)
        .iter()
        .map(|m| {
            let name = m["name"].as_str().expect("metric name").to_string();
            let unit = m["unit"].as_str().expect("metric unit").to_string();
            (name, unit)
        })
        .collect()
}

fn emitted(o: &Outcome) -> Vec<(String, String)> {
    o.metrics
        .iter()
        .map(|&(n, _, u)| (n.to_string(), u.to_string()))
        .collect()
}

fn listed(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn smoke_runs_of_every_workload_pass_the_oracle_gate() {
    for name in workload::NAMES {
        for trace in [false, true] {
            let o = smoke(name, trace);
            assert!(o.correct(), "{name} trace={trace}: {:?}", o.errors);
            assert_eq!(o.failed, 0);
            assert!(o.attempted >= 3, "{name}: {} jobs", o.attempted);
        }
    }
}

#[test]
fn emitted_metric_names_equal_the_declared_names() {
    assert_eq!(declared("end_to_end"), listed(&END_TO_END));
    assert_eq!(declared("per_layer"), listed(&PER_LAYER));
    let spec = spec();
    let workloads: Vec<&str> = list(&spec, "workloads")
        .iter()
        .map(|w| w["name"].as_str().expect("workload name"))
        .collect();
    assert_eq!(workloads, workload::NAMES);
    let name = workload::NAMES[0];
    assert_eq!(emitted(&smoke(name, false)), declared("end_to_end"));
    assert_eq!(emitted(&smoke(name, true)), declared("per_layer"));
}

#[test]
fn a_wrong_oracle_digest_fails_the_run() {
    let mut opts = Options::new("dag-multirate", 9, 0.0, false);
    opts.smoke = true;
    opts.corrupt_oracle = true;
    let o = run(&opts).expect("the run itself completes");
    assert!(!o.correct());
    assert!(o.failed > 0 && o.failed <= o.attempted);

    // The command exits nonzero and says so on its result line.
    let out = Command::new(env!("CARGO_BIN_EXE_ccs-perfbench"))
        .args([
            "--workload",
            "dag-multirate",
            "--seed",
            "9",
            "--seconds",
            "0",
            "--trace",
            "0",
        ])
        .args(["--smoke", "--corrupt-oracle"])
        .output()
        .expect("the benchmark binary starts");
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last: Value =
        serde_json::from_str(stdout.lines().last().expect("a result line")).expect("JSON");
    assert_eq!(last["correct"].as_bool(), Some(false));
    assert!(last["failed"].as_u64().expect("failed count") > 0);
}

#[test]
fn latency_histogram_holds_ten_samples_beyond_p99() {
    for name in workload::NAMES {
        let o = smoke(name, false);
        assert!(
            o.latency_beyond_p99 >= MIN_BEYOND_P99,
            "{name}: {} of {} samples beyond p99",
            o.latency_beyond_p99,
            o.latency_samples
        );
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "dag-large", "--trace", "2"][..],
        &["--seed", "1"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ccs-perfbench"))
            .args(args)
            .output()
            .expect("the benchmark binary starts");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
