//! Self-tests of the benchmark: its output matches `BENCHMARK.json`, its
//! correctness check catches a wrong statistic, and the exact simulated
//! counts it reports hold.

use std::process::Command;

use sam_simbench::bench::{self, Kind, Reference, GOLDEN_SEED};
use sam_util::json::Json;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            )
        })
        .collect()
}

/// Runs the benchmark binary and returns its exit success and the parsed
/// last stdout line.
fn run(workload: &str, trace: u8) -> (bool, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_simbench"))
        .args(["--workload", workload, "--seconds", "0", "--trace"])
        .arg(trace.to_string())
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("some output");
    (
        out.status.success(),
        Json::parse(last).expect("last line is JSON"),
    )
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

#[test]
fn every_listed_metric_is_printed_with_its_unit() {
    let doc = benchmark_json();
    for w in doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
    {
        let name = w.get("name").and_then(Json::as_str).expect("workload name");
        assert!(Kind::from_name(name).is_some(), "unknown workload {name}");
    }
    for (list, trace) in [("end_to_end", 0), ("per_layer", 1)] {
        let expected = names(&doc, list);
        let (ok, result) = run("fig16_hybrid", trace);
        assert!(ok, "benchmark failed on fig16_hybrid --trace {trace}");
        let Some(Json::Object(printed)) = result.get("metrics") else {
            panic!("no metrics object");
        };
        let printed: Vec<(String, String)> = printed
            .iter()
            .map(|(k, v)| {
                let unit = v.get("unit").and_then(Json::as_str).expect("unit");
                (k.clone(), unit.to_string())
            })
            .collect();
        assert_eq!(
            printed, expected,
            "--trace {trace} prints exactly the {list} metrics"
        );
        for (name, _) in &printed {
            assert!(
                !name.is_empty()
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "metric name {name:?} is outside [A-Za-z0-9_.-]+"
            );
        }
    }
}

#[test]
fn an_altered_golden_statistic_counts_as_a_failure() {
    let mut setup = bench::setup(Kind::Fig16Hybrid, GOLDEN_SEED).expect("set-up");
    let clean = bench::measure(&setup, 0.0).expect("set-up");
    assert!(clean.correct() && clean.fail_frac() == 0.0);

    let Reference::Golden(goldens) = &mut setup.reference else {
        panic!("the golden seed checks against goldens");
    };
    goldens[3].read_latency_mean += 1e-9;
    let report = bench::measure(&setup, 0.0).expect("set-up");
    assert!(!report.correct());
    // One altered record, one failing run per pass.
    assert_eq!(report.failed, report.passes.0 as u64);
    assert!(report.fail_frac() > 0.0);
}

#[test]
fn an_altered_stream_count_counts_as_a_failure() {
    let mut setup = bench::setup(Kind::CtrlStream, GOLDEN_SEED).expect("set-up");
    let Reference::Streams(expected) = &mut setup.reference else {
        panic!("the golden seed checks against committed stream counts");
    };
    expected[7].starved += 1;
    let report = bench::measure(&setup, 0.0).expect("set-up");
    assert_eq!(report.failed, report.passes.0 as u64);
}

#[test]
fn another_seed_checks_pass_to_pass_identity() {
    let setup = bench::setup(Kind::Fig16Hybrid, 7).expect("set-up");
    assert!(matches!(setup.reference, Reference::FirstPass));
    assert!(setup.check_description().contains("first pass"));
    let report = bench::measure(&setup, 0.0).expect("set-up");
    assert!(report.correct());
}

#[test]
fn exact_counts_at_the_golden_seed() {
    let mut requests = 0.0;
    let mut starved = Vec::new();
    for kind in [Kind::Fig12Q, Kind::Fig12Qs] {
        let setup = bench::setup(kind, GOLDEN_SEED).expect("set-up");
        let report = bench::trace(&setup, 0.0);
        assert!(report.correct(), "{:?}", report.failures);
        let get = |name: &str| {
            report
                .metrics
                .iter()
                .find(|(n, _, _)| *n == name)
                .unwrap_or_else(|| panic!("metric {name} missing"))
                .1
        };
        assert_eq!(get("dram.replay_errors"), 0.0);
        assert_eq!(get("fail_frac"), 0.0);
        requests += get("sim.requests");
        starved.push(get("memctrl.starvation_forced"));
    }
    assert_eq!(requests, 1_320_002.0);
    assert_eq!(starved, [11_107.0, 234_546.0]);
}

#[test]
fn the_binary_exits_zero_and_reports_a_clean_run() {
    let (ok, result) = run("ctrl_stream", 0);
    assert!(ok);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(result.get("failed"), Some(&Json::UInt(0)));
    assert!(metric(&result, "req_per_s") > 0.0);
}
