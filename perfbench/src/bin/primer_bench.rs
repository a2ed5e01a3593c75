//! `primer-bench` — the repo benchmark.
//!
//! ```text
//! primer-bench --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--out-dir DIR]
//! primer-bench run    [--seed N] [--seconds S] [--runs K] [--quick] --out FILE
//! primer-bench traced [--seed N] [--seconds S] [--quick] --out FILE
//! primer-bench compare A.json B.json [--spec BENCHMARK.json]
//! primer-bench spec
//! ```
//!
//! The first form is the contract `BENCHMARK.json` names: one workload,
//! one run, every metric printed by name with its unit and, as the last
//! line of standard output, one JSON object. With `--trace 0` that is the
//! end-to-end metrics, measured with tracing off; with `--trace 1` the
//! workload runs at a quarter of the length twice — plain, then under
//! benchmark-side spans — followed by the layer probes, and the line
//! carries the per-layer metrics. `run` / `traced` do that for all four
//! workloads, each in a child process of its own, and write one result
//! file; `compare` judges two `run` files under the bounds of
//! `BENCHMARK.json`; `spec` prints the `BENCHMARK.json` this build
//! declares.

use primer_perfbench::report::{self, Json, ResultFile, RunResult, Verdict};
use primer_perfbench::workloads::{self, Limits, Workload, WORKLOADS};
use primer_perfbench::{probes, spans};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{exit, Command};

/// The line of a run's output that states its sample counts.
const SAMPLES_PREFIX: &str = "# samples: ";

fn usage() -> ! {
    eprintln!(
        "usage: primer-bench --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--out-dir DIR]\n\
         \x20      primer-bench run|traced [--seed N] [--seconds S] [--runs K] [--quick] --out FILE\n\
         \x20      primer-bench compare A.json B.json [--spec BENCHMARK.json]\n\
         \x20      primer-bench spec\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    exit(2);
}

/// `--flag value` pairs and bare words, in order.
struct Args {
    flags: BTreeMap<String, String>,
    words: Vec<String>,
    quick: bool,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Args {
        let mut args = Args { flags: BTreeMap::new(), words: Vec::new(), quick: false };
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            if a == "--quick" {
                args.quick = true;
            } else if let Some(flag) = a.strip_prefix("--") {
                let Some(value) = raw.next() else { usage() };
                args.flags.insert(flag.to_string(), value);
            } else {
                args.words.push(a);
            }
        }
        args
    }

    fn get<T: std::str::FromStr>(&self, flag: &str) -> Option<T> {
        self.flags.get(flag).map(|v| v.parse().unwrap_or_else(|_| usage()))
    }
}

fn main() {
    let args = Args::parse(std::env::args().skip(1));
    match args.words.first().map(String::as_str) {
        None => single(&args),
        Some("run") => all(&args, false),
        Some("traced") => all(&args, true),
        Some("compare") => compare(&args),
        Some("spec") => print!("{}", report::benchmark_spec(&WORKLOADS.map(|w| (w.name, w.why)))),
        Some(_) => usage(),
    }
}

/// Pins what the numbers depend on, and refuses a set-up that would make
/// them mean something else.
fn pin_environment() {
    if std::env::var_os("PRIMER_TRACE").is_some() {
        eprintln!(
            "primer-bench: PRIMER_TRACE is set; end-to-end numbers are measured with the \
             program's own tracing off — unset it"
        );
        exit(2);
    }
    // One thread per party: the two parties are the two threads.
    std::env::set_var("PRIMER_THREADS", "1");
    if nproc() < 2 {
        eprintln!(
            "primer-bench: WARNING: {} core(s) — the two parties share a core, so phase walls \
             are sums, not the side-by-side times a two-core host gives",
            nproc()
        );
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// The contract form: one workload, one run.
fn single(args: &Args) {
    let (Some(name), Some(seed), Some(seconds), Some(trace)) = (
        args.get::<String>("workload"),
        args.get::<u64>("seed"),
        args.get::<f64>("seconds"),
        args.get::<u8>("trace"),
    ) else {
        usage()
    };
    let Some(workload) = workloads::find(&name) else {
        eprintln!("primer-bench: no workload {name:?}");
        usage()
    };
    if trace > 1 || seconds.is_nan() || seconds <= 0.0 {
        usage();
    }
    pin_environment();
    let out_dir = args.get::<PathBuf>("out-dir").unwrap_or_else(|| "perfbench/out".into());
    println!(
        "# primer-bench {name} seed={seed} seconds={seconds} trace={trace}{} nproc={} simd={} \
         PRIMER_THREADS=1 PRIMER_LAYOUT={}",
        if args.quick { " quick" } else { "" },
        nproc(),
        primer_he::simd::level().name(),
        std::env::var("PRIMER_LAYOUT").unwrap_or_else(|_| "auto".into()),
    );
    let result = if trace == 0 {
        let limits = if args.quick { Limits::quick() } else { Limits::full(seconds) };
        let outcome = workloads::run(workload, seed, limits, false);
        if let Some((p, _)) = report::tail_percentile(&outcome.online_ms) {
            println!("# online_ms_tail is p{p:.1} (ten samples beyond it)");
        } else {
            println!("# online_ms_tail is the maximum (fewer than twenty samples)");
        }
        outcome.end_to_end()
    } else {
        traced(workload, seed, seconds, args.quick, &out_dir)
    };
    println!("{SAMPLES_PREFIX}{}", result.samples);
    for (name, value, unit) in &result.metrics {
        println!("{name:<44} {value:>18.6} {unit}");
    }
    println!(
        "failed_share                                 {:>18.6} share  ({} of {})",
        result.failed as f64 / result.attempted as f64,
        result.failed,
        result.attempted
    );
    println!("{}", result.to_json().dump());
    if !result.correct() {
        exit(1);
    }
}

/// The traced form of one workload: a quarter-length plain run, the same
/// under spans (the difference is the tracing overhead), the trace file,
/// then the layer probes.
fn traced(w: &Workload, seed: u64, seconds: f64, quick: bool, out_dir: &Path) -> RunResult {
    let limits = if quick {
        Limits::quick()
    } else {
        Limits { seconds: seconds / 4.0, setups: 1, quick: false }
    };
    let plain = workloads::run(w, seed, limits, false);
    let traced = workloads::run(w, seed, limits, true);
    std::fs::create_dir_all(out_dir).unwrap_or_else(|e| {
        eprintln!("primer-bench: create {}: {e}", out_dir.display());
        exit(1);
    });
    let path = out_dir.join(format!("trace-{}.jsonl", w.name));
    spans::write_jsonl(&path, &traced.spans).unwrap_or_else(|e| {
        eprintln!("primer-bench: write {}: {e}", path.display());
        exit(1);
    });
    println!("# {} spans written to {}", traced.spans.len(), path.display());
    let iterations = if quick { 3 } else { 30 };
    let metrics = probes::per_layer(w, &plain, &traced, iterations, out_dir);
    RunResult {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        metrics,
        samples: format!(
            "plain_queries={} traced_queries={} probe_samples={iterations} slow_probe_samples={}",
            plain.attempted,
            traced.attempted,
            probes::SLOW_SAMPLES
        ),
    }
}

/// `run` / `traced`: every workload, each in a child process of its own
/// (so `peak_rss_mb` is that workload's alone), into one result file.
fn all(args: &Args, trace: bool) {
    let Some(out) = args.get::<PathBuf>("out") else { usage() };
    pin_environment();
    let seed = args.get::<u64>("seed").unwrap_or(1);
    let seconds = args.get::<f64>("seconds").unwrap_or(report::RUN_SECONDS as f64);
    let runs = if trace { 1 } else { args.get::<usize>("runs").unwrap_or(1).max(1) };
    let exe = std::env::current_exe().expect("own path");
    let mut file = ResultFile {
        quick: args.quick,
        trace,
        header: header(seed, seconds),
        workloads: BTreeMap::new(),
    };
    let mut failed = false;
    for w in &WORKLOADS {
        for run in 0..runs {
            eprintln!("primer-bench: {} run {}/{runs}", w.name, run + 1);
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name, "--trace", if trace { "1" } else { "0" }])
                .args(["--seed", &(seed + run as u64).to_string()])
                .args(["--seconds", &seconds.to_string()]);
            if args.quick {
                cmd.arg("--quick");
            }
            if let Some(dir) = args.flags.get("out-dir") {
                cmd.args(["--out-dir", dir]);
            }
            let output = cmd.output().expect("spawn own executable");
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            let parsed = stdout
                .lines()
                .last()
                .ok_or_else(|| "no output".to_string())
                .and_then(Json::parse)
                .and_then(|v| RunResult::from_json(&v));
            match parsed {
                Ok(mut result) => {
                    result.samples = stdout
                        .lines()
                        .find_map(|l| l.strip_prefix(SAMPLES_PREFIX))
                        .unwrap_or_default()
                        .to_string();
                    failed |= !result.correct() || !output.status.success();
                    file.workloads.entry(w.name.to_string()).or_default().push(result);
                }
                Err(e) => {
                    eprintln!("primer-bench: {} printed no result: {e}", w.name);
                    failed = true;
                }
            }
        }
    }
    std::fs::write(&out, file.to_json().dump() + "\n").unwrap_or_else(|e| {
        eprintln!("primer-bench: write {}: {e}", out.display());
        exit(1);
    });
    eprintln!("primer-bench: wrote {}", out.display());
    if failed {
        exit(1);
    }
}

/// What the numbers of a result file depend on.
fn header(seed: u64, seconds: f64) -> BTreeMap<String, String> {
    let tool = |program: &str, args: &[&str]| {
        Command::new(program).args(args).output().ok().filter(|o| o.status.success()).map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
    };
    [
        ("nproc", nproc().to_string()),
        ("simd", primer_he::simd::level().name().to_string()),
        ("primer_threads", "1".to_string()),
        ("primer_layout", std::env::var("PRIMER_LAYOUT").unwrap_or_else(|_| "auto".into())),
        ("rustc", tool("rustc", &["--version"])),
        ("git_commit", tool("git", &["rev-parse", "HEAD"])),
        ("seed", seed.to_string()),
        ("seconds", seconds.to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

fn compare(args: &Args) {
    let [_, a, b] = args.words.as_slice() else { usage() };
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("primer-bench: read {path}: {e}");
            exit(2);
        })
    };
    let load = |path: &str| {
        ResultFile::parse(&read(path)).unwrap_or_else(|e| {
            eprintln!("primer-bench: {path}: {e}");
            exit(2);
        })
    };
    let spec_path = args.get::<String>("spec").unwrap_or_else(|| "BENCHMARK.json".into());
    let spec = Json::parse(&read(&spec_path)).unwrap_or_else(|e| {
        eprintln!("primer-bench: {spec_path}: {e}");
        exit(2);
    });
    let rows = report::compare(&spec, &load(a), &load(b)).unwrap_or_else(|e| {
        eprintln!("primer-bench: {e}");
        exit(2);
    });
    println!(
        "{:<18} {:<24} {:>18} {:>18}  verdict",
        "workload", "metric", "A (median)", "B (median)"
    );
    for r in &rows {
        println!(
            "{:<18} {:<24} {:>18.4} {:>18.4}  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.verdict.as_str()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} regressed, {} unresolved",
        count(Verdict::Ok),
        count(Verdict::Regressed),
        count(Verdict::Unresolved)
    );
    if count(Verdict::Regressed) > 0 {
        exit(1);
    }
}
