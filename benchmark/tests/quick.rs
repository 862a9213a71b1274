//! Drives the real binary in `--quick` mode and holds its output, the
//! metric tables in `src/metrics.rs` and `BENCHMARK.json` against each
//! other, so none of the three can drift.

use c3_benchmark::json::Json;
use c3_benchmark::metrics::{END_TO_END, PER_LAYER};
use c3_benchmark::workload::WORKLOADS;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

fn manifest() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(m: &'a Json, key: &str) -> &'a [Json] {
    m.get(key).and_then(Json::as_arr).unwrap_or_else(|| panic!("{key} is an array"))
}

fn text<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("{key} is a string in {v}"))
}

fn keys(v: &Json) -> Vec<&str> {
    v.as_obj().expect("an object").iter().map(|(k, _)| k.as_str()).collect()
}

/// `[A-Za-z0-9][A-Za-z0-9_.-]*`, at most 64 characters.
fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn manifest_repeats_the_tables() {
    let m = manifest();
    assert_eq!(
        keys(&m),
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    );

    let workloads = entries(&m, "workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (w, (name, why)) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(keys(w), ["name", "why"]);
        assert_eq!(text(w, "name"), name);
        assert_eq!(text(w, "why"), why);
        assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why is one short line");
    }

    let end_to_end = entries(&m, "end_to_end");
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (e, def) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(keys(e), ["name", "unit", "better", "bound"]);
        assert_eq!(text(e, "name"), def.name);
        assert_eq!(text(e, "unit"), def.unit);
        assert_eq!(text(e, "better"), "lower");
        assert_eq!(e.get("bound").and_then(Json::as_f64), Some(def.bound));
        assert!(def.bound > 0.0 && def.bound <= 0.25);
    }
    let largest = END_TO_END.iter().map(|d| d.bound).fold(0.0, f64::max);
    let setup = END_TO_END.iter().find(|d| d.name == "setup_s").expect("setup_s is reported");
    assert_eq!((setup.unit, setup.bound), ("s", largest));

    let per_layer = entries(&m, "per_layer");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (l, def) in per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(keys(l), ["name", "unit", "better"]);
        assert_eq!(text(l, "name"), def.name);
        assert_eq!(text(l, "unit"), def.unit);
        assert_eq!(text(l, "better"), def.better.name());
    }

    let names: Vec<&str> = WORKLOADS
        .iter()
        .map(|(n, _)| *n)
        .chain(END_TO_END.iter().map(|d| d.name))
        .chain(PER_LAYER.iter().map(|d| d.name))
        .collect();
    assert!(names.iter().all(|n| is_name(n)), "{names:?}");
    assert_eq!(names.iter().collect::<BTreeSet<_>>().len(), names.len(), "a name is used twice");
    let units = END_TO_END.iter().map(|d| d.unit).chain(PER_LAYER.iter().map(|d| d.unit));
    assert!(units.clone().all(is_unit), "{:?}", units.collect::<Vec<_>>());

    let seconds = m.get("run_seconds").and_then(Json::as_f64).expect("run_seconds");
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
    assert_eq!(entries(&m, "paths"), [Json::from("benchmark")]);
}

/// Run one workload in quick mode; returns everything printed and the
/// parsed result line.
fn quick(workload: &str, trace: &str, out: &Path) -> (String, Json) {
    let run = Command::new(env!("CARGO_BIN_EXE_c3-benchmark"))
        .args(["run", "--quick", "--workload", workload, "--seed", "5", "--trace", trace, "--out"])
        .arg(out)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(run.stdout).expect("utf-8 output");
    assert!(run.status.success(), "{workload}: {}", String::from_utf8_lossy(&run.stderr));
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).unwrap_or_else(|e| panic!("{workload}: {e} in {last}"));
    (stdout, result)
}

#[test]
fn quick_run_prints_exactly_the_manifest_metrics_for_every_workload() {
    let m = manifest();
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("quick");
    for w in entries(&m, "workloads") {
        let workload = text(w, "name");
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (stdout, result) = quick(workload, trace, &out);
            assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}\n{stdout}");
            assert_eq!(result.get("failed"), Some(&Json::Num(0.0)), "{workload}\n{stdout}");
            assert!(result.get("attempted").and_then(Json::as_f64).is_some_and(|n| n >= 1.0));

            let expected: Vec<(&str, &str)> =
                entries(&m, key).iter().map(|e| (text(e, "name"), text(e, "unit"))).collect();
            let metrics = result.get("metrics").expect("metrics");
            let printed: Vec<(&str, &str)> = metrics
                .as_obj()
                .expect("metrics is an object")
                .iter()
                .map(|(name, v)| {
                    assert_eq!(keys(v), ["value", "unit"]);
                    assert!(v.get("value").and_then(Json::as_f64).is_some(), "{name} has a value");
                    (name.as_str(), text(v, "unit"))
                })
                .collect();
            assert_eq!(printed, expected, "{workload} --trace {trace}");
        }
        // The untraced run leaves one greppable line, the traced run a trace file.
        let (stdout, _) = quick(workload, "0", &out);
        let artifact = format!("[ARTIFACT][c3-bench] workload={workload} job_wall_ms=");
        assert!(stdout.lines().any(|l| l.starts_with(&artifact)), "{stdout}");
        let trace = std::fs::read_to_string(out.join(format!("trace-{workload}.json")))
            .expect("the traced run wrote its trace");
        let trace = Json::parse(&trace).expect("the trace file parses");
        assert!(!entries(&trace, "spans").is_empty() && !entries(&trace, "jobs").is_empty());
    }
    // Every store is deleted after its job.
    let stores = std::fs::read_dir(out.join("stores")).map_or(0, |d| d.count());
    assert_eq!(stores, 0, "a checkpoint store was left behind");
}

#[test]
fn refuses_to_measure_with_a_knob_set() {
    let run = Command::new(env!("CARGO_BIN_EXE_c3-benchmark"))
        .args(["run", "--quick", "--workload", "compute2"])
        .env("C3_SCHED", "threads")
        .output()
        .expect("the benchmark binary runs");
    assert!(!run.status.success());
    assert!(String::from_utf8_lossy(&run.stderr).contains("C3_SCHED"));
    assert!(run.stdout.is_empty(), "no result is printed");
}
