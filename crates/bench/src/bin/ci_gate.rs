//! `ci_gate` — the single source of truth for the CI step list.
//!
//! `.github/workflows/ci.yml` and the local `ci.sh` both run exactly this
//! binary, so the workflow and local verification cannot drift: adding,
//! removing, or reordering a gate step happens here and nowhere else.
//!
//! Steps (each prints a PASS/FAIL line with its wall seconds, so step
//! times such as the test suite's and the soak's can be read from the
//! gate's own log; the gate exits nonzero if any step fails, after running
//! the independent remainder so one failure does not hide another):
//!
//! 1. `cargo build --release --workspace`
//! 2. `cargo test --workspace -q` (superset of the tier-1 `cargo test -q`)
//! 3. `cargo test -q --manifest-path benchmark/Cargo.toml` (the benchmark
//!    harness in `--quick` mode: all five `BENCHMARK.json` workloads at
//!    smoke size, every job checked bit for bit against its raw reference —
//!    a protocol change that hangs or diverges under the benchmark fails
//!    here instead of timing the pipeline out)
//! 4. `cargo fmt --check`
//! 5. `cargo clippy --workspace --all-targets -- -D warnings`
//! 6. `RUSTDOCFLAGS="-D warnings" cargo doc --no-deps` (the public API
//!    documentation must build warning-free: broken intra-doc links and
//!    undocumented public items gate here)
//! 7. `chaos_soak --seeds 32 --quick` (deterministic fault-injection
//!    smoke; writes `BENCH_recovery.json` under `--out-dir`, passed as
//!    `BENCH_OUT_DIR`; run by hand it writes to `target/bench-out/`)
//! 8. `message_path` (fresh run under `--out-dir`, for the ratchet below)
//! 9. `scaling --smoke` (weak-scaling smoke: cg at 256 ranks under the
//!    event scheduler; writes `BENCH_scaling.json` under `--out-dir`)
//! 10. BENCH hygiene: the fresh and the committed `BENCH_recovery.json` /
//!     `BENCH_message_path.json` / `BENCH_scaling.json` parse and carry the
//!     expected schema keys — for the recovery file that includes the
//!     per-mode `ckpt_mode` and `ckpt_bytes` fields the volume comparison
//!     reads
//! 11. message-path ratchet: each fresh `ns_per_op` must stay within a
//!     per-entry tolerance factor of the committed baseline (2× for the
//!     stable µs-scale scenarios, 3× for the noise-prone ns-scale ones),
//!     and every committed scenario must be present in the fresh run
//! 12. scaling ratchet: the fresh `scaling --smoke` cg@256 `wall_ms` must
//!     stay within the ns-scale tolerance (3×) of the
//!     committed `BENCH_scaling.json` entry; a missing entry fails
//! 13. non-test line count — prints `[ARTIFACT][c3-loc] nontest_lines=N`
//!     over `src/` and `crates/*/src` minus `crates/compat`, each file cut
//!     at its `#[cfg(test)] mod tests`, after one
//!     `[ARTIFACT][c3-loc] crate=<package> nontest_lines=N` line per crate
//!     (informational: no threshold; fails only if a source file cannot be
//!     read)
//!
//! ```text
//! ci_gate [--skip-build] [--out-dir DIR]
//! ```
//!
//! `--skip-build` assumes step 1 already ran (the workflow runs the gate
//! via `cargo run --release`, which has just built everything anyway —
//! the explicit step stays so a local `ci.sh` from a cold tree is
//! self-contained). `--out-dir` defaults to `target/ci` so the gate never
//! clobbers the committed benchmark baselines.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

struct Step {
    name: &'static str,
    ok: bool,
    /// Wall seconds the step took.
    secs: f64,
}

/// Print a step's header and start its clock.
fn begin(name: &str) -> Instant {
    println!("\n=== ci_gate: {name} ===");
    Instant::now()
}

/// Print a step's PASS/FAIL line with its wall seconds, and record it.
fn finish(name: &'static str, ok: bool, t0: Instant, results: &mut Vec<Step>) {
    let secs = t0.elapsed().as_secs_f64();
    println!("=== ci_gate: {name}: {} ({secs:.1} s) ===", if ok { "PASS" } else { "FAIL" });
    results.push(Step { name, ok, secs });
}

fn run(name: &'static str, mut cmd: Command, results: &mut Vec<Step>) {
    let t0 = begin(name);
    let ok = match cmd.status() {
        Ok(st) => st.success(),
        Err(e) => {
            eprintln!("ci_gate: cannot spawn {name}: {e}");
            false
        }
    };
    finish(name, ok, t0, results);
}

fn cargo(args: &[&str]) -> Command {
    let mut c = Command::new(env!("CARGO"));
    c.args(args);
    c
}

/// Assert `body` contains every `keys` entry as a JSON key (`"key"`).
/// Returns the missing keys.
fn missing_keys<'k>(body: &str, keys: &[&'k str]) -> Vec<&'k str> {
    keys.iter().filter(|k| !body.contains(&format!("\"{k}\""))).copied().collect()
}

/// BENCH hygiene: every benchmark baseline must parse and carry the schema
/// the trend tooling reads, *before* any diff runs — a malformed baseline
/// must fail loudly here, not as a confusing trend-diff error.
fn check_bench_schemas(out_dir: &std::path::Path, results: &mut Vec<Step>) {
    let t0 = begin("bench schema validation");
    let recovery_keys = [
        "bench",
        "seeds",
        "divergences",
        "kernels",
        "name",
        "network",
        "ckpt_mode",
        "runs",
        "restart_histogram",
        "restart_cost_ns",
        "ckpt_bytes",
        "p50",
        "p90",
        "p99",
    ];
    let message_path_keys = ["bench", "unit", "results", "name", "ns_per_op", "bytes_per_op"];
    let scaling_keys = [
        "bench",
        "unit",
        "sched",
        "results",
        "kernel",
        "nranks",
        "wall_ms",
        "makespan_ms",
        "msgs_sent",
        "checksum",
    ];
    let fresh = |name: &str| out_dir.join(name).to_string_lossy().into_owned();
    let targets: [(&str, String, &[&str]); 6] = [
        ("committed BENCH_recovery.json", "BENCH_recovery.json".into(), &recovery_keys),
        ("fresh BENCH_recovery.json", fresh("BENCH_recovery.json"), &recovery_keys),
        ("committed BENCH_message_path.json", "BENCH_message_path.json".into(), &message_path_keys),
        ("fresh BENCH_message_path.json", fresh("BENCH_message_path.json"), &message_path_keys),
        ("committed BENCH_scaling.json", "BENCH_scaling.json".into(), &scaling_keys),
        ("fresh BENCH_scaling.json", fresh("BENCH_scaling.json"), &scaling_keys),
    ];
    let mut ok = true;
    for (label, path, keys) in targets {
        match std::fs::read_to_string(&path) {
            Ok(body) => {
                let missing = missing_keys(&body, keys);
                if missing.is_empty() {
                    println!("ci_gate: {label}: schema ok ({} keys)", keys.len());
                } else {
                    eprintln!("ci_gate: {label}: missing schema keys {missing:?}");
                    ok = false;
                }
            }
            Err(e) => {
                eprintln!("ci_gate: {label}: cannot read {path}: {e}");
                ok = false;
            }
        }
    }
    finish("bench schema validation", ok, t0, results);
}

/// Parse `(name, ns_per_op)` pairs out of a `BENCH_message_path.json` body
/// (hand-rolled scanner).
fn parse_message_path(body: &str) -> Vec<(String, f64)> {
    let mut rows = Vec::new();
    let mut rest = body;
    while let Some(open) = rest.find("{\"name\": \"") {
        let obj = &rest[open..];
        let name_start = "{\"name\": \"".len();
        let Some(name_end) = obj[name_start..].find('"') else { break };
        let name = obj[name_start..name_start + name_end].to_string();
        let ns = obj
            .find("\"ns_per_op\": ")
            .and_then(|at| leading_number(&obj[at + "\"ns_per_op\": ".len()..]));
        if let Some(ns) = ns {
            rows.push((name, ns));
        }
        rest = &obj[name_start + name_end..];
    }
    rows
}

/// Per-entry ratchet tolerance. The µs-scale scenarios (ping-pong
/// round-trips, fan-out) average thousands of ns over whole reps, so
/// runner noise is proportionally small and a 2× budget already means a
/// real structural regression — an accidental copy on the zero-copy path,
/// a lock pushed into the per-message fast path. The ns-scale mailbox
/// micro-claims and the sub-µs shared-payload fan-out sit close to timer
/// and cache-state noise, so they keep the wider 3× catastrophic-only
/// budget.
fn ratchet_factor_for(name: &str) -> f64 {
    match name {
        "ping_pong/copying" | "ping_pong/zero_copy" | "fan_out/copy_per_destination" => 2.0,
        _ => NOISY_FACTOR,
    }
}

/// Tolerance of the noise-prone ratchet entries: the ns-scale message-path
/// scenarios and the tens-of-ms scaling smoke.
const NOISY_FACTOR: f64 = 3.0;

/// The leading decimal number of `s`, if any.
fn leading_number(s: &str) -> Option<f64> {
    let num: String = s.chars().take_while(|c| c.is_ascii_digit() || *c == '.').collect();
    num.parse().ok()
}

/// The message-path perf ratchet: every scenario in the committed
/// `BENCH_message_path.json` must still exist in the fresh run and must
/// not exceed `committed × factor` ns/op, with the factor chosen
/// per entry ([`ratchet_factor_for`]) so the stable µs-scale scenarios are
/// held to a tighter budget than the noise-prone ns-scale ones. A
/// scenario present in the committed baseline but missing from the fresh
/// run fails the gate — a silently dropped benchmark is a regression in
/// coverage, not noise.
fn check_message_path_ratchet(out_dir: &std::path::Path, results: &mut Vec<Step>) {
    let t0 = begin("message_path ratchet");
    let fresh_path = out_dir.join("BENCH_message_path.json");
    let mut ok = true;
    match (std::fs::read_to_string("BENCH_message_path.json"), std::fs::read_to_string(&fresh_path))
    {
        (Ok(committed), Ok(fresh)) => {
            let baseline = parse_message_path(&committed);
            let current = parse_message_path(&fresh);
            if baseline.is_empty() {
                eprintln!("ci_gate: committed BENCH_message_path.json has no scenarios");
                ok = false;
            }
            for (name, base_ns) in &baseline {
                let factor = ratchet_factor_for(name);
                match current.iter().find(|(n, _)| n == name) {
                    Some((_, cur_ns)) => {
                        let ratio = cur_ns / base_ns;
                        let verdict = if ratio <= factor { "ok" } else { "REGRESSED" };
                        println!(
                            "ci_gate: {name}: {base_ns:.1} -> {cur_ns:.1} ns/op \
                             ({ratio:.2}x, limit {factor:.1}x): {verdict}"
                        );
                        if ratio > factor {
                            ok = false;
                        }
                    }
                    None => {
                        eprintln!("ci_gate: {name}: missing from the fresh run");
                        ok = false;
                    }
                }
            }
        }
        (c, f) => {
            if let Err(e) = c {
                eprintln!("ci_gate: cannot read committed BENCH_message_path.json: {e}");
            }
            if let Err(e) = f {
                eprintln!("ci_gate: cannot read {}: {e}", fresh_path.display());
            }
            ok = false;
        }
    }
    finish("message_path ratchet", ok, t0, results);
}

/// `wall_ms` of the `kernel` row at `nranks` in a `BENCH_scaling.json` body.
fn scaling_wall_ms(body: &str, kernel: &str, nranks: usize) -> Option<f64> {
    let key = format!("{{\"kernel\": \"{kernel}\", \"nranks\": {nranks}, \"wall_ms\": ");
    body.find(&key).and_then(|at| leading_number(&body[at + key.len()..]))
}

/// The scaling ratchet: the fresh `scaling --smoke` cg@256 wall time must
/// stay within [`NOISY_FACTOR`] of the committed `BENCH_scaling.json`
/// entry; a missing entry on either side fails the gate.
fn check_scaling_ratchet(out_dir: &std::path::Path, results: &mut Vec<Step>) {
    let t0 = begin("scaling ratchet");
    let factor = NOISY_FACTOR;
    let cg256 = |path: &std::path::Path| {
        std::fs::read_to_string(path).ok().and_then(|body| scaling_wall_ms(&body, "cg", 256))
    };
    let fresh_path = out_dir.join("BENCH_scaling.json");
    let ok = match (cg256(std::path::Path::new("BENCH_scaling.json")), cg256(&fresh_path)) {
        (Some(base), Some(cur)) => {
            let ratio = cur / base;
            let ok = ratio <= factor;
            println!(
                "ci_gate: scaling cg@256: {base:.1} -> {cur:.1} ms ({ratio:.2}x, limit \
                 {factor:.1}x): {}",
                if ok { "ok" } else { "REGRESSED" }
            );
            ok
        }
        (base, cur) => {
            eprintln!(
                "ci_gate: scaling cg@256 entry missing (committed {base:?}, fresh {cur:?} in {})",
                fresh_path.display()
            );
            false
        }
    };
    finish("scaling ratchet", ok, t0, results);
}

/// Lines of `src` before its `#[cfg(test)]` + `mod tests` pair (all of
/// them if it has none).
fn nontest_lines_of(src: &str) -> usize {
    let lines: Vec<&str> = src.lines().collect();
    lines
        .windows(2)
        .position(|w| w[0] == "#[cfg(test)]" && w[1].starts_with("mod tests"))
        .unwrap_or(lines.len())
}

/// Sum of [`nontest_lines_of`] over every `.rs` file under `dir`.
fn nontest_lines_under(dir: &Path) -> std::io::Result<usize> {
    let mut n = 0;
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            n += nontest_lines_under(&path)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            n += nontest_lines_of(&std::fs::read_to_string(&path)?);
        }
    }
    Ok(n)
}

/// The package name in the `Cargo.toml` of `dir`: its first `name = "…"`
/// line.
fn package_name(dir: &Path) -> std::io::Result<String> {
    let manifest = std::fs::read_to_string(dir.join("Cargo.toml"))?;
    Ok(manifest
        .lines()
        .find_map(|l| l.strip_prefix("name = \"")?.strip_suffix('"'))
        .unwrap_or("?")
        .to_string())
}

/// Non-test lines of the workspace's own code by package name: the root
/// package (`src/`) and every `crates/*` crate but the vendored shims in
/// `crates/compat`.
fn nontest_lines_per_crate() -> std::io::Result<Vec<(String, usize)>> {
    let mut crates = std::fs::read_dir("crates")?
        .map(|e| e.map(|e| e.path()))
        .collect::<std::io::Result<Vec<_>>>()?;
    crates.retain(|k| k.file_name().is_some_and(|f| f != "compat") && k.join("src").is_dir());
    crates.sort();
    std::iter::once(Path::new(".").to_path_buf())
        .chain(crates)
        .map(|root| Ok((package_name(&root)?, nontest_lines_under(&root.join("src"))?)))
        .collect()
}

/// The non-test line count, printed as one artifact line per crate and one
/// for the total. Informational: it fails only on an unreadable file.
fn count_nontest_lines(results: &mut Vec<Step>) {
    let t0 = begin("non-test line count");
    let ok = match nontest_lines_per_crate() {
        Ok(per_crate) => {
            for (name, n) in &per_crate {
                println!("[ARTIFACT][c3-loc] crate={name} nontest_lines={n}");
            }
            let total: usize = per_crate.iter().map(|(_, n)| n).sum();
            println!("[ARTIFACT][c3-loc] nontest_lines={total}");
            true
        }
        Err(e) => {
            eprintln!("ci_gate: cannot count source lines: {e}");
            false
        }
    };
    finish("non-test line count", ok, t0, results);
}

fn main() {
    let mut skip_build = false;
    let mut out_dir = "target/ci".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--skip-build" => skip_build = true,
            "--out-dir" => {
                out_dir = it.next().unwrap_or_else(|| {
                    eprintln!("--out-dir needs a value");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {out_dir}: {e}");
        std::process::exit(2);
    }

    let mut results = Vec::new();
    if !skip_build {
        run(
            "cargo build --release --workspace",
            cargo(&["build", "--release", "--workspace"]),
            &mut results,
        );
    }
    run("cargo test --workspace -q", cargo(&["test", "--workspace", "-q"]), &mut results);
    run(
        "cargo test -q --manifest-path benchmark/Cargo.toml",
        cargo(&["test", "-q", "--manifest-path", "benchmark/Cargo.toml"]),
        &mut results,
    );
    run("cargo fmt --check", cargo(&["fmt", "--check"]), &mut results);
    run(
        "cargo clippy -D warnings",
        cargo(&["clippy", "--workspace", "--all-targets", "--", "-D", "warnings"]),
        &mut results,
    );
    {
        let mut doc = cargo(&["doc", "--no-deps", "--workspace", "-q"]);
        doc.env("RUSTDOCFLAGS", "-D warnings");
        run("cargo doc --no-deps (RUSTDOCFLAGS=-D warnings)", doc, &mut results);
    }
    {
        let mut soak = cargo(&[
            "run",
            "--release",
            "-q",
            "-p",
            "c3-bench",
            "--bin",
            "chaos_soak",
            "--",
            "--seeds",
            "32",
            "--quick",
        ]);
        soak.env("BENCH_OUT_DIR", &out_dir);
        run("chaos_soak --seeds 32 --quick", soak, &mut results);
    }
    {
        let mut mp = cargo(&["run", "--release", "-q", "-p", "c3-bench", "--bin", "message_path"]);
        mp.env("BENCH_OUT_DIR", &out_dir);
        run("message_path (fresh)", mp, &mut results);
    }
    {
        let mut sc = cargo(&[
            "run",
            "--release",
            "-q",
            "-p",
            "c3-bench",
            "--bin",
            "scaling",
            "--",
            "--smoke",
        ]);
        sc.env("BENCH_OUT_DIR", &out_dir);
        run("scaling --smoke (256 ranks)", sc, &mut results);
    }
    let out_dir_path = std::path::Path::new(&out_dir);
    check_bench_schemas(out_dir_path, &mut results);
    check_message_path_ratchet(out_dir_path, &mut results);
    check_scaling_ratchet(out_dir_path, &mut results);
    count_nontest_lines(&mut results);

    println!("\n=== ci_gate summary ===");
    let mut failed = 0;
    for s in &results {
        println!("  {} {} ({:.1} s)", if s.ok { "PASS" } else { "FAIL" }, s.name, s.secs);
        if !s.ok {
            failed += 1;
        }
    }
    if failed > 0 {
        println!("{failed} step(s) failed");
        std::process::exit(1);
    }
    println!("all {} steps passed", results.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nontest_lines_stop_at_the_test_module() {
        assert_eq!(nontest_lines_of("a\nb\n"), 2);
        assert_eq!(
            nontest_lines_of("a\n#[cfg(test)]\nfn f() {}\n#[cfg(test)]\nmod tests {\n}\n"),
            3
        );
    }

    #[test]
    fn package_name_reads_the_manifest() {
        // Tests run in the package's own directory.
        assert_eq!(package_name(Path::new(".")).unwrap(), "c3-bench");
    }
}
