//! Holds `BENCHMARK.json`, the harness's vocabulary and the harness's
//! output in step, by running the whole suite at `--quick` scale.

use std::path::PathBuf;
use std::process::Command;

use seqdb_perf::json::Json;
use seqdb_perf::spec::{END_TO_END, PER_LAYER, WORKLOADS};

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(spec: &Json, section: &str) -> Vec<(String, String)> {
    spec.get(section)
        .expect("section exists")
        .as_arr()
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Json::as_str).unwrap().to_string(),
                m.get("unit").and_then(Json::as_str).unwrap().to_string(),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_declares_the_harness_vocabulary() {
    let spec = benchmark_json();
    let names: Vec<&str> = spec
        .get("workloads")
        .unwrap()
        .as_arr()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(names, WORKLOADS);
    let pairs = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared(&spec, "end_to_end"), pairs(&END_TO_END));
    assert_eq!(declared(&spec, "per_layer"), pairs(&PER_LAYER));
    for m in spec.get("end_to_end").unwrap().as_arr() {
        let bound = m.get("bound").and_then(Json::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound} out of range");
    }
}

#[test]
fn quick_suite_reports_every_declared_metric_once() {
    let spec = benchmark_json();
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("quick");
    std::fs::create_dir_all(&work).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["--quick", "--seed", "5"])
        .current_dir(&work)
        .env("CARGO_TARGET_DIR", work.join("target"))
        .output()
        .expect("perf runs");
    assert!(
        output.status.success(),
        "perf --quick failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let doc = Json::parse(&String::from_utf8(output.stdout).unwrap()).expect("suite output parses");
    let runs = doc.get("runs").unwrap().as_arr();
    assert_eq!(runs.len(), 1);
    let workloads = runs[0].get("workloads").unwrap();
    for w in WORKLOADS {
        let result = workloads.get(w).unwrap_or_else(|| panic!("{w} missing"));
        assert_eq!(
            result.get("failed").and_then(Json::as_f64),
            Some(0.0),
            "{w}"
        );
        for section in ["end_to_end", "per_layer"] {
            let reported = result.get(section).unwrap().as_obj();
            for (name, unit) in declared(&spec, section) {
                let hits: Vec<&Json> = reported
                    .iter()
                    .filter(|(k, _)| *k == name)
                    .map(|(_, v)| v)
                    .collect();
                assert_eq!(hits.len(), 1, "{w}/{name} reported {} times", hits.len());
                let value = hits[0].get("value").and_then(Json::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{w}/{name} is not a finite number"
                );
                assert_eq!(hits[0].get("unit").and_then(Json::as_str), Some(&*unit));
                if section == "end_to_end" {
                    assert!(value.unwrap() > 0.0, "{w}/{name} must never be 0");
                }
            }
            assert_eq!(
                reported.len(),
                declared(&spec, section).len(),
                "{w}/{section}"
            );
        }
    }
}
