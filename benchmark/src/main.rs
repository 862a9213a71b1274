//! Command line of the benchmark. `run` measures one workload (or all of
//! them) and prints, last, one JSON result line per workload; `selfcheck`
//! runs the whole set twice and compares the two against the bounds.

use c3_benchmark::harness::{self, Env, Tally};
use c3_benchmark::json::Json;
use c3_benchmark::metrics::{END_TO_END, PER_LAYER};
use c3_benchmark::stats::Summary;
use c3_benchmark::trace::trace_file;
use c3_benchmark::workload::{Workload, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  c3-benchmark run [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--quick] [--out DIR]
  c3-benchmark selfcheck [--seed N] [--seconds N] [--out DIR]

run        measure one workload (default: all five, one after the other); the last line
           printed for a workload is its result as one JSON object
selfcheck  run all workloads twice and fail if a metric differs by more than its bound
--trace 1  report the per-layer metrics and write <out>/trace-<workload>.json;
           --trace 0 (default) reports the end-to-end metrics, untraced
--seconds  how long one run measures (default 20)
--quick    smoke test: tiny sizes, one sample of everything
--out      directory for checkpoint stores and trace files (default benchmark/out)";

struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let mut args = Args {
        command: argv.next().ok_or("missing command")?,
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        quick: false,
        out: PathBuf::from("benchmark/out"),
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--quick" => args.quick = true,
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

/// One metric as the result line carries it.
struct Value {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

/// One workload's result.
struct Report {
    tally: Tally,
    metrics: Vec<Value>,
}

impl Report {
    fn json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.tally.failed == 0)),
            ("attempted", self.tally.attempted.into()),
            ("failed", self.tally.failed.into()),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (m.name, Json::obj([("value", m.value.into()), ("unit", m.unit.into())]))
                })),
            ),
        ])
    }

    fn get(&self, name: &str) -> f64 {
        self.metrics.iter().find(|m| m.name == name).map_or(f64::NAN, |m| m.value)
    }
}

/// The untraced run of one workload: prints every end-to-end metric with
/// its spread and the artifact line.
fn run_end_to_end(env: &Env, w: &Workload, seconds: f64) -> Result<Report, String> {
    let m = harness::measure(env, w, seconds)?;
    let mut metrics = Vec::new();
    for def in &END_TO_END {
        let s = Summary::of(m.samples.get(def.name));
        println!("{:<12} {:<3} {s}", def.name, def.unit);
        metrics.push(Value { name: def.name, unit: def.unit, value: s.median });
    }
    let report = Report { tally: m.tally, metrics };
    println!(
        "core.overhead_ratio ratio {:.4} (job_wall_ms / raw_wall_ms of this run; never gated)",
        report.get("job_wall_ms") / report.get("raw_wall_ms")
    );
    println!(
        "[ARTIFACT][c3-bench] workload={} job_wall_ms={:.3} raw_wall_ms={:.3} job_cpu_ms={:.3} \
         n={} failed={}/{}",
        w.name,
        report.get("job_wall_ms"),
        report.get("raw_wall_ms"),
        report.get("job_cpu_ms"),
        m.samples.get("job_wall_ms").len(),
        report.tally.failed,
        report.tally.attempted,
    );
    Ok(report)
}

/// The traced run of one workload: prints every per-layer metric and writes
/// the trace file.
fn run_per_layer(env: &Env, w: &Workload, seconds: f64) -> Result<Report, String> {
    let layers = harness::trace(env, w, seconds)?;
    let mut metrics = Vec::new();
    for def in &PER_LAYER {
        let values = layers.samples.get(def.name);
        if values.is_empty() {
            let why = layers.tally.first_failure.as_deref().unwrap_or("never measured");
            return Err(format!("no sample of {}: {why}", def.name));
        }
        let s = Summary::of(values);
        let (lo, hi) =
            values.iter().fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
        let exact = match def.exact {
            Some(_) if lo != hi => format!(" varied {lo}..{hi} in this run"),
            Some(true) => " exact".to_string(),
            Some(false) => " inexact across runs".to_string(),
            None => String::new(),
        };
        println!("{:<28} {:<5} {:.3} (n {}{exact})", def.name, def.unit, s.median, s.n);
        metrics.push(Value { name: def.name, unit: def.unit, value: s.median });
    }
    std::fs::create_dir_all(&env.out_dir).map_err(|e| format!("{}: {e}", env.out_dir.display()))?;
    let path = env.out_dir.join(format!("trace-{}.json", w.name));
    std::fs::write(&path, trace_file(w.name, w.nranks, &layers.jobs).to_string())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("trace written to {}", path.display());
    Ok(Report { tally: layers.tally, metrics })
}

fn run_workload(env: &Env, args: &Args, name: &str) -> Result<Report, String> {
    let w = Workload::build(name, args.seed, args.quick)
        .ok_or_else(|| format!("unknown workload '{name}'"))?;
    println!(
        "[c3-bench] workload={name} seed={} seconds={} trace={} cpus={} stores={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        env.out_dir.join("stores").display(),
    );
    let report = if args.trace {
        run_per_layer(env, &w, args.seconds)
    } else {
        run_end_to_end(env, &w, args.seconds)
    }?;
    if let Some(why) = &report.tally.first_failure {
        println!("first failed operation: {why}");
    }
    Ok(report)
}

fn names(args: &Args) -> Vec<&str> {
    match &args.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.iter().map(|(name, _)| *name).collect(),
    }
}

fn run(env: &Env, args: &Args) -> Result<(), String> {
    for name in names(args) {
        let report = run_workload(env, args, name)?;
        println!("{}", report.json());
    }
    Ok(())
}

/// Two sets of runs of the same code must agree within the bounds, and no
/// operation may fail in either.
fn selfcheck(env: &Env, args: &Args) -> Result<(), String> {
    let mut sets = Vec::new();
    for set in 1..=2 {
        println!("== set {set} ==");
        let reports: Result<Vec<Report>, String> =
            names(args).into_iter().map(|name| run_workload(env, args, name)).collect();
        sets.push(reports?);
    }
    println!("== selfcheck: set 2 against set 1 ==");
    let mut ok = true;
    for (name, (a, b)) in names(args).into_iter().zip(sets[0].iter().zip(&sets[1])) {
        for def in &END_TO_END {
            let (x, y) = (a.get(def.name), b.get(def.name));
            let diff = (y - x) / x;
            let within = diff.abs() <= def.bound;
            ok &= within;
            println!(
                "{name:<14} {:<12} {x:>10.3} -> {y:>10.3} {:>+7.2}%  bound {:.0}%  {}",
                def.name,
                diff * 100.0,
                def.bound * 100.0,
                if within { "ok" } else { "EXCEEDED" },
            );
        }
        let failed = a.tally.failed + b.tally.failed;
        let attempted = a.tally.attempted + b.tally.attempted;
        ok &= failed == 0;
        println!("{name:<14} failed {failed}/{attempted}");
    }
    if ok {
        println!("selfcheck passed");
        Ok(())
    } else {
        Err("selfcheck failed".to_string())
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The knobs would change what is measured without showing in the result.
    if let Some((knob, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("C3_"))
    {
        eprintln!("refusing to measure with {} set", knob.to_string_lossy());
        return ExitCode::from(2);
    }
    let env = Env::new(args.out.clone(), args.quick);
    let done = match args.command.as_str() {
        "run" => run(&env, &args),
        "selfcheck" => selfcheck(&env, &args),
        other => {
            eprintln!("unknown command '{other}'\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("c3-benchmark: {why}");
            ExitCode::FAILURE
        }
    }
}
