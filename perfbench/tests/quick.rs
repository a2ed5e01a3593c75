//! Drives the built `primer-bench` end to end in `--quick` mode, so the
//! benchmark keeps compiling and its output stays well-formed: every
//! workload and metric `BENCHMARK.json` declares is emitted, and nothing
//! undeclared is.

use primer_perfbench::report::{self, Json, ResultFile, END_TO_END};
use primer_perfbench::workloads::WORKLOADS;
use std::path::{Path, PathBuf};
use std::process::Command;

fn bench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_primer-bench"))
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn spec() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("valid JSON")
}

fn names(spec: &Json, key: &str) -> Vec<String> {
    spec.get(key)
        .and_then(Json::as_arr)
        .expect("a list")
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).expect("a name").to_string())
        .collect()
}

#[test]
fn benchmark_json_is_what_this_build_declares() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(committed, report::benchmark_spec(&WORKLOADS.map(|w| (w.name, w.why))));
    let spec = spec();
    assert_eq!(names(&spec, "workloads"), WORKLOADS.map(|w| w.name.to_string()));
    assert_eq!(names(&spec, "end_to_end"), END_TO_END.map(|m| m.name.to_string()));
    let layers = names(&spec, "per_layer");
    assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
    assert!(names(&spec, "end_to_end").contains(&"setup_s".to_string()));
    let mut all: Vec<String> = layers.into_iter().chain(names(&spec, "end_to_end")).collect();
    let total = all.len();
    all.sort();
    all.dedup();
    assert_eq!(all.len(), total, "a metric name is used twice");
}

#[test]
fn quick_run_emits_every_end_to_end_metric_and_compare_refuses_it() {
    let dir = scratch("quick-run");
    let out = dir.join("quick.json");
    let status = bench()
        .args(["run", "--quick", "--seed", "5", "--out"])
        .arg(&out)
        .status()
        .expect("spawn primer-bench");
    assert!(status.success(), "run --quick failed");
    let file =
        ResultFile::parse(&std::fs::read_to_string(&out).expect("result file")).expect("parse");
    assert!(file.quick && !file.trace);
    for key in [
        "nproc",
        "simd",
        "primer_threads",
        "primer_layout",
        "rustc",
        "git_commit",
        "seed",
        "seconds",
    ] {
        assert!(file.header.contains_key(key), "header lacks {key}");
    }
    let spec = spec();
    let declared = names(&spec, "end_to_end");
    assert_eq!(file.workloads.keys().cloned().collect::<Vec<_>>(), {
        let mut w = names(&spec, "workloads");
        w.sort();
        w
    });
    for (workload, runs) in &file.workloads {
        assert_eq!(runs.len(), 1);
        let run = &runs[0];
        assert!(run.correct() && run.attempted >= 1, "{workload}: {run:?}");
        assert!(run.samples.contains("online="), "{workload}: no sample counts");
        let mut emitted: Vec<&str> = run.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
        emitted.sort_unstable();
        let mut want: Vec<&str> = declared.iter().map(String::as_str).collect();
        want.sort_unstable();
        assert_eq!(emitted, want, "{workload}");
        for (name, value, _) in &run.metrics {
            assert!(*value > 0.0, "{workload}/{name} = {value}");
        }
    }
    // Counts repeat exactly across workloads that share a wire schedule.
    assert_eq!(
        file.values("fpc_sim_mem", "wire_bytes_per_query"),
        file.values("fpc_sim_tcp_lan", "wire_bytes_per_query")
    );

    let refused = bench()
        .args(["compare"])
        .arg(&out)
        .arg(&out)
        .arg("--spec")
        .arg(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
        .output()
        .expect("spawn primer-bench");
    assert_eq!(refused.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&refused.stderr).contains("--quick"));
}

#[test]
fn quick_traced_run_emits_every_per_layer_metric_and_a_trace_file() {
    let dir = scratch("quick-traced");
    let output = bench()
        .args([
            "--workload",
            "fpc_sim_mem",
            "--seed",
            "6",
            "--seconds",
            "1",
            "--trace",
            "1",
            "--quick",
        ])
        .arg("--out-dir")
        .arg(&dir)
        .output()
        .expect("spawn primer-bench");
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = Json::parse(stdout.lines().last().expect("a result line")).expect("valid JSON");
    let mut keys: Vec<&str> = line.as_obj().expect("object").keys().map(String::as_str).collect();
    keys.sort_unstable();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    let emitted: Vec<String> =
        line.get("metrics").and_then(Json::as_obj).expect("metrics").keys().cloned().collect();
    let mut declared = names(&spec(), "per_layer");
    declared.sort();
    assert_eq!(emitted, declared);

    // The traced run itself asserts the step ledger's bytes add up to
    // the metered wire; here, that the rows carry them.
    let metric = |name: &str| {
        line.get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("metric {name}"))
    };
    let step_bytes: f64 =
        report::STEPS.iter().map(|s| metric(&format!("core.step.{s}.bytes"))).sum();
    assert!(step_bytes > 0.0 && step_bytes.fract() == 0.0, "{step_bytes}");
    assert!(metric("core.step.online_coverage") > 0.5);

    let trace = std::fs::read_to_string(dir.join("trace-fpc_sim_mem.jsonl")).expect("trace file");
    let spans: Vec<Json> = trace.lines().map(|l| Json::parse(l).expect("span is JSON")).collect();
    let named =
        |n: &str| spans.iter().filter(|s| s.get("name").and_then(Json::as_str) == Some(n)).count();
    assert_eq!(named("workload"), 1);
    assert_eq!(named("session.setup"), 2);
    assert_eq!(named("session.infer"), 2);
    assert_eq!(named("session.serve_one"), 2);
    assert!(named("transport.send") > 0 && named("transport.recv") > 0);
}

#[test]
fn an_unknown_workload_or_a_set_primer_trace_is_refused() {
    let bad = bench()
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output();
    assert_eq!(bad.expect("spawn").status.code(), Some(2));
    let traced_env = bench()
        .env("PRIMER_TRACE", "/dev/null")
        .args(["--workload", "fpc_sim_mem", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("spawn");
    assert_eq!(traced_env.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&traced_env.stderr).contains("PRIMER_TRACE"));
}
