//! A tiny run of every workload through the benchmark's own command,
//! untraced and traced: each must exit 0 and end with a correct JSON
//! result carrying every metric `BENCHMARK.json` declares for its mode.

use std::process::Command;

/// The metric names `BENCHMARK.json` declares under `key`.
fn declared(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let serde_json::Value::Array(items) = field(&doc, key) else { panic!("{key} is not a list") };
    items
        .iter()
        .map(|m| match field(m, "name") {
            serde_json::Value::Str(s) => s.clone(),
            other => panic!("metric name {other:?}"),
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> serde_json::Value {
    let out =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    let result = Command::new(env!("CARGO_BIN_EXE_gem-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8_lossy(&result.stdout);
    assert!(
        result.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&result.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).unwrap_or_else(|e| panic!("result is not JSON ({e:?}): {last}"))
}

fn field<'a>(v: &'a serde_json::Value, key: &str) -> &'a serde_json::Value {
    v.as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == key).map(|(_, v)| v))
        .unwrap_or_else(|| panic!("no {key:?} in {v:?}"))
}

/// Runs one workload in both modes; every metric `BENCHMARK.json`
/// declares for a mode must be in that mode's result, as a finite number.
fn check(workload: &str) {
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let v = run(workload, trace);
        assert_eq!(field(&v, "correct"), &serde_json::Value::Bool(true), "{v:?}");
        assert!(matches!(field(&v, "failed"), serde_json::Value::U64(0)), "{v:?}");
        let metrics = field(&v, "metrics");
        for name in declared(key) {
            let value = field(field(metrics, &name), "value");
            assert!(
                matches!(value, serde_json::Value::F64(x) if x.is_finite())
                    || matches!(value, serde_json::Value::U64(_) | serde_json::Value::I64(_)),
                "{workload} --trace {trace}: {name} = {value:?}"
            );
        }
    }
}

#[test]
fn session_long_smoke() {
    check("session-long");
}

#[test]
fn fleet_commute_smoke() {
    check("fleet-commute");
}

#[test]
fn cold_tier_smoke() {
    check("cold-tier");
}

#[test]
fn bad_arguments_exit_non_zero() {
    let status = Command::new(env!("CARGO_BIN_EXE_gem-perfbench"))
        .args(["--workload", "no-such-workload"])
        .output()
        .expect("the benchmark runs")
        .status;
    assert!(!status.success());
}
