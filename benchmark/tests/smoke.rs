//! Drives the built binary: `BENCHMARK.json` agrees with the tables in
//! `src/spec.rs`, `--smoke` runs and verifies all four workloads with the
//! full schema, and one seed gives one script and one set of exact
//! per-layer counts.

use std::process::{Command, Stdio};

use gcc_benchmark::spec::{run_metrics, MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};
use gcc_scene::json::{self, Value};

fn benchmark() -> Command {
    Command::new(env!("CARGO_BIN_EXE_benchmark"))
}

fn number(v: &Value) -> f64 {
    match v {
        Value::Num(token) => token.parse().expect("a JSON number"),
        other => panic!("expected a number, got {other:?}"),
    }
}

fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

/// The (record, result) line pairs a run printed, parsed.
fn line_pairs(stdout: &[u8]) -> Vec<(Value, Value)> {
    let text = String::from_utf8_lossy(stdout);
    let docs: Vec<Value> = text
        .lines()
        .map(|l| json::parse(l).unwrap_or_else(|e| panic!("line is not JSON ({e}): {l}")))
        .collect();
    assert!(
        docs.len().is_multiple_of(2),
        "record and result lines come in pairs"
    );
    docs.chunks(2)
        .map(|p| (p[0].clone(), p[1].clone()))
        .collect()
}

/// Asserts `result` is a contract line carrying exactly `metrics`.
fn assert_result(result: &Value, metrics: &[MetricSpec]) {
    assert_eq!(keys(result), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    assert!(number(result.get("attempted").unwrap()) >= 1.0);
    assert_eq!(number(result.get("failed").unwrap()), 0.0);
    let table = result.get("metrics").unwrap();
    let names: Vec<&str> = metrics.iter().map(|m| m.name).collect();
    assert_eq!(keys(table), names);
    for m in metrics {
        let entry = table.get(m.name).unwrap();
        assert_eq!(keys(entry), ["value", "unit"], "{}", m.name);
        assert!(
            number(entry.get("value").unwrap()).is_finite(),
            "{}",
            m.name
        );
        assert_eq!(entry.get("unit").and_then(Value::as_str), Some(m.unit));
    }
}

#[test]
fn benchmark_json_states_the_spec_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let paths = doc.get("paths").and_then(Value::as_arr).unwrap();
    assert_eq!(paths, [Value::Str("benchmark".into())]);
    let run_seconds = number(doc.get("run_seconds").unwrap());
    assert!((1.0..=60.0).contains(&run_seconds));

    let workloads = doc.get("workloads").and_then(Value::as_arr).unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (stated, spec) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(keys(stated), ["name", "why"]);
        assert_eq!(stated.get("name").and_then(Value::as_str), Some(spec.name));
        assert_eq!(stated.get("why").and_then(Value::as_str), Some(spec.why));
    }
    for (key, specs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let stated = doc.get(key).and_then(Value::as_arr).unwrap();
        assert_eq!(stated.len(), specs.len(), "{key}");
        for (entry, spec) in stated.iter().zip(specs) {
            let str_of = |k: &str| entry.get(k).and_then(Value::as_str);
            assert_eq!(str_of("name"), Some(spec.name));
            assert_eq!(str_of("unit"), Some(spec.unit), "{}", spec.name);
            assert_eq!(str_of("better"), Some(spec.better.name()), "{}", spec.name);
            match spec.bound {
                Some(bound) => {
                    assert_eq!(keys(entry), ["name", "unit", "better", "bound"]);
                    assert_eq!(number(entry.get("bound").unwrap()), bound, "{}", spec.name);
                }
                None => assert_eq!(keys(entry), ["name", "unit", "better"]),
            }
        }
    }
}

#[test]
fn smoke_runs_and_verifies_every_workload_on_a_second_seed() {
    let out = benchmark()
        .args(["run", "--workload", "all", "--smoke", "--seed", "13"])
        .stderr(Stdio::inherit())
        .output()
        .expect("run the benchmark binary");
    assert!(out.status.success(), "smoke run failed: {}", out.status);
    let pairs = line_pairs(&out.stdout);
    assert_eq!(pairs.len(), WORKLOADS.len());
    for ((record, result), spec) in pairs.iter().zip(&WORKLOADS) {
        assert_result(result, &END_TO_END);
        assert_eq!(
            record.get("workload").and_then(Value::as_str),
            Some(spec.name)
        );
        assert_eq!(number(record.get("seed").unwrap()), 13.0);
        // The record names all eight metrics of the pass, each with the
        // number of samples behind it.
        let recorded = record.get("metrics").unwrap();
        let eight: Vec<&str> = run_metrics().iter().map(|m| m.name).collect();
        assert_eq!(keys(recorded), eight);
        for name in eight {
            let entry = recorded.get(name).unwrap();
            assert_eq!(keys(entry), ["value", "unit", "samples"], "{name}");
        }
        for field in [
            "nproc",
            "backend",
            "workers",
            "client_threads",
            "wire_version",
            "script_hash",
            "measured_s",
        ] {
            assert!(
                record.get(field).is_some(),
                "{}: record lacks {field}",
                spec.name
            );
        }
        let verified = result
            .get("metrics")
            .and_then(|m| m.get("verified_share"))
            .and_then(|m| m.get("value"))
            .map(number);
        assert_eq!(verified, Some(1.0), "{}", spec.name);
    }
}

#[test]
fn one_seed_gives_one_script_and_one_set_of_exact_counts() {
    let spawn = || {
        benchmark()
            .args(["--workload", "render_orbit", "--smoke", "--trace", "1"])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("run the benchmark binary")
    };
    // Timing plays no part in what is compared: run both at once.
    let (first, second) = (spawn(), spawn());
    let runs: Vec<(Value, Value)> = [first, second]
        .into_iter()
        .map(|child| {
            let out = child.wait_with_output().expect("wait for the traced run");
            assert!(out.status.success(), "traced run failed: {}", out.status);
            line_pairs(&out.stdout).remove(0)
        })
        .collect();
    for (_, result) in &runs {
        assert_result(result, &PER_LAYER);
    }
    assert_eq!(runs[0].0.get("script_hash"), runs[1].0.get("script_hash"));
    for m in PER_LAYER.iter().filter(|m| m.exact) {
        let value = |run: &(Value, Value)| {
            run.1
                .get("metrics")
                .and_then(|t| t.get(m.name))
                .and_then(|e| e.get("value"))
                .cloned()
        };
        assert_eq!(
            value(&runs[0]),
            value(&runs[1]),
            "{} must repeat exactly",
            m.name
        );
    }
}
