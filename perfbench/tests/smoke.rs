//! Smoke test: every workload at a tiny size prints every metric that
//! `BENCHMARK.json` names, with its unit, and no operation fails.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

use ndc::types::Json;

const WORKLOADS: [&str; 3] = ["fig4-paper", "mesh-16x16", "compile-corpus"];

fn contract() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one list of the contract.
fn declared(contract: &Json, list: &str) -> Vec<(String, String)> {
    let Some(Json::Arr(items)) = contract.get(list) else {
        panic!("BENCHMARK.json has no {list} list");
    };
    items
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("metric has name and unit")
            };
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

/// Run the benchmark; returns its standard output.
fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "11", "--seconds", "0"])
        .args(["--trace", &trace.to_string(), "--size", "tiny"])
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited with {}",
        out.status
    );
    String::from_utf8(out.stdout).expect("output is UTF-8")
}

fn check(workload: &str, trace: u8, expected: &[(String, String)]) -> String {
    let stdout = run(workload, trace);
    let last = stdout.lines().last().expect("benchmark prints a result");
    let result = Json::parse(last).expect("the last line is JSON");
    assert_eq!(
        result.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}: {stdout}"
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_u64),
        Some(0),
        "{workload}"
    );
    assert!(result
        .get("attempted")
        .and_then(Json::as_u64)
        .is_some_and(|n| n >= 1));
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("{workload}: result has no metrics object");
    };
    let mut names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let mut wanted: Vec<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
    names.sort_unstable();
    wanted.sort_unstable();
    assert_eq!(names, wanted, "{workload} --trace {trace}: metric names");
    for (name, unit) in expected {
        let m = &metrics
            .iter()
            .find(|(k, _)| k == name)
            .expect("metric present")
            .1;
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        assert!(
            m.get("value")
                .and_then(Json::as_f64)
                .is_some_and(f64::is_finite),
            "{name}"
        );
    }
    stdout
}

#[test]
fn untraced_runs_print_every_end_to_end_metric() {
    let contract = contract();
    let expected = declared(&contract, "end_to_end");
    for w in WORKLOADS {
        let stdout = check(w, 0, &expected);
        // The human-readable table also carries the end-to-end metrics
        // that only some workloads define, and the failure rate.
        let mut table = vec!["wall_s", "peak_rss_mb", "setup_s", "fail_rate"];
        if w != "compile-corpus" {
            table.extend(["sim_minsts_per_s", "alg2_speedup"]);
        }
        if w == "fig4-paper" {
            table.push("alg1_speedup");
        }
        for name in table {
            let line = stdout
                .lines()
                .find(|l| l.split_whitespace().next() == Some(name))
                .unwrap_or_else(|| panic!("{w}: no {name} line"));
            if name == "fail_rate" {
                assert!(line.contains(" 0.000000 ratio"), "{w}: {line}");
            }
        }
    }
}

#[test]
fn traced_runs_print_every_per_layer_metric() {
    let contract = contract();
    let expected = declared(&contract, "per_layer");
    for w in WORKLOADS {
        let stdout = check(w, 1, &expected);
        let value = |name: &str| {
            let last = stdout.lines().last().expect("result line");
            let result = Json::parse(last).expect("JSON");
            let m = result
                .get("metrics")
                .and_then(|m| m.get(name))
                .expect("metric present");
            m.get("value")
                .and_then(Json::as_f64)
                .expect("numeric value")
        };
        // The workloads split the layers as designed: compile-corpus
        // never reaches the simulator.
        let sim_ms = value("sim.baseline_ms") + value("sim.ndc_all_ms") + value("sim.compiled_ms");
        if w == "compile-corpus" {
            assert_eq!(sim_ms, 0.0, "{w}");
        } else {
            assert!(sim_ms > 0.0, "{w}");
        }
    }
}

#[test]
fn bad_arguments_exit_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "no-such-workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
