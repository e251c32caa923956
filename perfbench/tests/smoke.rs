//! Smoke-mode checks of the benchmark command: every metric named in
//! `BENCHMARK.json` is emitted with its unit, and a corrupted reference
//! corpus trips the output oracle.

use serde::Value;
use std::process::Command;

const MANIFEST_DIR: &str = env!("CARGO_MANIFEST_DIR");

fn benchmark_json() -> Value {
    let path = format!("{MANIFEST_DIR}/../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(v: &'a Value, key: &str) -> &'a Vec<Value> {
    v.get(key)
        .and_then(Value::as_seq)
        .expect("list in BENCHMARK.json")
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("{key}: expected a string, found {other:?}"),
    }
}

/// Run the benchmark in smoke mode; returns the exit code and the parsed
/// last line of standard output.
fn run(workload: &str, trace: u8, reference: Option<&str>) -> (i32, Value) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args(["--workload", workload, "--seed", "3", "--seconds", "0.3"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"));
    if let Some(r) = reference {
        cmd.args(["--reference", r]);
    }
    let out = cmd.output().expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_default();
    let result = serde_json::from_str(last)
        .unwrap_or_else(|e| panic!("{workload}: last line {last:?} is not JSON: {e}"));
    (out.status.code().unwrap_or(-1), result)
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    let bench = benchmark_json();
    for w in list(&bench, "workloads") {
        let workload = str_of(w, "name");
        for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
            let (code, result) = run(workload, trace, None);
            assert_eq!(code, 0, "{workload} trace {trace} failed: {result:?}");
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
            let keys: Vec<&str> = result
                .as_map()
                .expect("result object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let metrics = result
                .get("metrics")
                .and_then(Value::as_map)
                .expect("metrics");
            let expected = list(&bench, section);
            let emitted: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let named: Vec<&str> = expected.iter().map(|m| str_of(m, "name")).collect();
            assert_eq!(emitted, named, "{workload} trace {trace}");
            for m in expected {
                let got = result
                    .get("metrics")
                    .and_then(|ms| ms.get(str_of(m, "name")));
                let got = got.expect("metric present");
                assert_eq!(str_of(got, "unit"), str_of(m, "unit"));
                assert!(matches!(got.get("value"), Some(Value::Float(_))));
            }
        }
    }
}

#[test]
fn corrupted_reference_trips_the_oracle() {
    let text = std::fs::read_to_string(format!("{MANIFEST_DIR}/reference.txt")).expect("corpus");
    // One case per output field: a wrong final-state digest on a single-run
    // workload, a wrong record-stream hash on a service job.
    for (workload, field) in [("wellmixed-det", 4), ("serve-batch", 5)] {
        let corrupted: String = text
            .lines()
            .map(|line| {
                let mut f: Vec<String> = line.split_whitespace().map(String::from).collect();
                if f.len() == 6 && f[0] == "smoke" && f[1] == workload {
                    let flipped = u64::from_str_radix(&f[field], 16).expect("hex") ^ 1;
                    f[field] = format!("{flipped:016x}");
                }
                f.join(" ") + "\n"
            })
            .collect();
        let path = format!("{}/corrupt-{workload}.txt", env!("CARGO_TARGET_TMPDIR"));
        std::fs::write(&path, corrupted).expect("write corrupted corpus");
        let (code, result) = run(workload, 0, Some(&path));
        assert_eq!(code, 1, "{workload}: a mismatch must fail the command");
        assert_eq!(result.get("correct"), Some(&Value::Bool(false)));
        assert!(matches!(result.get("failed"), Some(Value::UInt(n)) if *n > 0));
    }
}
