//! `recovery_trend` — restart-cost trend tracking across PRs.
//!
//! Diffs the per-kernel restart-cost percentiles of the current
//! `BENCH_recovery.json` (by default the one `chaos_soak` last wrote, in
//! `$BENCH_OUT_DIR` or `target/bench-out/`) against a baseline copy
//! — by default the one committed at `HEAD`, i.e. the previous PR's
//! numbers — the way `BENCH_message_path.json` is tracked for the message
//! path. Entries are matched on `(kernel, network, ckpt mode)`; baseline
//! files from before the network cross-product (no `"network"` key) match
//! as `"reliable"`, and files from before the checkpoint-mode axis (no
//! `"ckpt_mode"` key) match as `"full"`. Checkpoint volumes
//! (`ckpt_bytes.p50`) are diffed alongside the restart-cost percentiles,
//! and the report closes with the incremental-vs-full volume ratio per
//! (kernel, network) — the headline number of the incremental mode.
//!
//! ```text
//! recovery_trend [--current PATH] [--baseline PATH]
//! ```
//!
//! Exit codes: 0 = report printed (trend data, not a gate; percentile noise
//! on wall-clock restart costs is expected), 2 = a file could not be read
//! or parsed. Large regressions are flagged in the report with `<<` so a
//! human (or the verify checklist) can spot them without gating CI on
//! scheduler noise.

use c3_bench::{Align, Table};

/// One `kernels[]` entry's restart-cost and checkpoint-volume row.
#[derive(Clone, Debug, PartialEq)]
struct Row {
    kernel: String,
    network: String,
    mode: String,
    runs: u64,
    p50: u64,
    p90: u64,
    p99: u64,
    /// `ckpt_bytes.p50` — 0 for baselines predating the volume field.
    bytes_p50: u64,
}

/// Extract the string value following `"key": "` inside `obj`.
fn str_field(obj: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = obj.find(&pat)? + pat.len();
    let end = obj[start..].find('"')?;
    Some(obj[start..start + end].to_string())
}

/// Extract the integer value following `"key": ` inside `obj`.
fn int_field(obj: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\": ");
    let start = obj.find(&pat)? + pat.len();
    let digits: String = obj[start..].chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

/// Parse the `kernels` entries out of a `BENCH_recovery.json` body. A
/// hand-rolled scanner (no JSON dependency in the container): each entry is
/// one `{...}` object containing a nested `restart_cost_ns` object.
fn parse(body: &str) -> Result<Vec<Row>, String> {
    let kernels_at = body.find("\"kernels\"").ok_or_else(|| "no \"kernels\" array".to_string())?;
    let tail = &body[kernels_at..];
    // Entries contain nested arrays (`restart_histogram`), so the array's
    // end is located by the next top-level key, not by the first `]`.
    let end = tail.find("\"failing_shrunk\"").unwrap_or(tail.len());
    let arr = &tail[..end];
    let mut rows = Vec::new();
    // Entries start at `{"name":` (modulo whitespace); one entry spans up
    // to the next entry's opening (or the array's end). Nested objects
    // (`restart_cost_ns`, `ckpt_bytes`) are pulled out by key within the
    // entry slice.
    let mut rest = arr;
    while let Some(open) = rest.find("{\"name\"") {
        let after = &rest[open..];
        let entry_end = after[1..].find("{\"name\"").map(|i| i + 1).unwrap_or(after.len());
        let obj = &after[..entry_end];
        let nested = |key: &str| -> Option<&str> {
            let at = obj.find(key)?;
            let open_b = at + obj[at..].find('{')?;
            let close = open_b + obj[open_b..].find('}')?;
            Some(&obj[open_b..=close])
        };
        let cost = nested("restart_cost_ns").ok_or("entry without restart_cost_ns")?;
        rows.push(Row {
            kernel: str_field(obj, "name").ok_or("entry without name")?,
            network: str_field(obj, "network").unwrap_or_else(|| "reliable".into()),
            mode: str_field(obj, "ckpt_mode").unwrap_or_else(|| "full".into()),
            runs: int_field(obj, "runs").unwrap_or(0),
            p50: int_field(cost, "p50").ok_or("missing p50")?,
            p90: int_field(cost, "p90").ok_or("missing p90")?,
            p99: int_field(cost, "p99").ok_or("missing p99")?,
            bytes_p50: nested("ckpt_bytes").and_then(|b| int_field(b, "p50")).unwrap_or(0),
        });
        rest = &after[entry_end..];
    }
    if rows.is_empty() {
        return Err("no kernel entries found".into());
    }
    Ok(rows)
}

/// The baseline body: an explicit file, or the copy committed at `HEAD`.
fn baseline_body(path: Option<&str>) -> Result<(String, String), String> {
    if let Some(p) = path {
        return std::fs::read_to_string(p)
            .map(|b| (b, p.to_string()))
            .map_err(|e| format!("cannot read baseline {p}: {e}"));
    }
    let out = std::process::Command::new("git")
        .args(["show", "HEAD:BENCH_recovery.json"])
        .output()
        .map_err(|e| format!("cannot run git: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "git show HEAD:BENCH_recovery.json failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    String::from_utf8(out.stdout)
        .map(|b| (b, "HEAD:BENCH_recovery.json".into()))
        .map_err(|e| format!("baseline not UTF-8: {e}"))
}

fn delta(cur: u64, base: u64) -> String {
    if base == 0 {
        return if cur == 0 { "=".into() } else { "new".into() };
    }
    let pct = (cur as f64 - base as f64) / base as f64 * 100.0;
    let flag = if pct >= 50.0 { "  <<" } else { "" };
    format!("{pct:+.1}%{flag}")
}

fn ms(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1e6)
}

fn main() {
    let mut current = c3_bench::bench_out_dir().join("BENCH_recovery.json").display().to_string();
    let mut baseline: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut grab = |what: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--current" => current = grab("--current"),
            "--baseline" => baseline = Some(grab("--baseline")),
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }

    let cur_body = std::fs::read_to_string(&current).unwrap_or_else(|e| {
        eprintln!("cannot read {current}: {e} (run chaos_soak first)");
        std::process::exit(2);
    });
    let cur = parse(&cur_body).unwrap_or_else(|e| {
        eprintln!("cannot parse {current}: {e}");
        std::process::exit(2);
    });
    let (base_body, base_name) = baseline_body(baseline.as_deref()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let base = parse(&base_body).unwrap_or_else(|e| {
        eprintln!("cannot parse {base_name}: {e}");
        std::process::exit(2);
    });

    let mut t = Table::new(
        format!("recovery_trend — {current} vs {base_name} (restart cost + ckpt volume)"),
        &[
            ("kernel", Align::Left),
            ("network", Align::Left),
            ("ckpt", Align::Left),
            ("p50 ms", Align::Right),
            ("Δp50", Align::Right),
            ("p90 ms", Align::Right),
            ("Δp90", Align::Right),
            ("p99 ms", Align::Right),
            ("Δp99", Align::Right),
            ("bytes p50 KB", Align::Right),
            ("Δbytes", Align::Right),
        ],
    );
    let mut matched = 0usize;
    for row in &cur {
        let b = base
            .iter()
            .find(|b| b.kernel == row.kernel && b.network == row.network && b.mode == row.mode);
        let (d50, d90, d99, db) = match b {
            Some(b) => {
                matched += 1;
                (
                    delta(row.p50, b.p50),
                    delta(row.p90, b.p90),
                    delta(row.p99, b.p99),
                    delta(row.bytes_p50, b.bytes_p50),
                )
            }
            None => ("new".into(), "new".into(), "new".into(), "new".into()),
        };
        t.row(vec![
            row.kernel.clone(),
            row.network.clone(),
            row.mode.clone(),
            ms(row.p50),
            d50,
            ms(row.p90),
            d90,
            ms(row.p99),
            d99,
            format!("{:.1}", row.bytes_p50 as f64 / 1024.0),
            db,
        ]);
    }
    t.print();

    // Incremental-vs-full checkpoint-volume ratio per (kernel, network): the
    // number the incremental mode is judged on (ci_gate enforces < 1.0 for
    // the state-carrying kernels; the PR target is < 0.5).
    for row in &cur {
        if row.mode != "incr4" || row.bytes_p50 == 0 {
            continue;
        }
        if let Some(full) = cur.iter().find(|f| {
            f.kernel == row.kernel
                && f.network == row.network
                && f.mode == "full"
                && f.bytes_p50 > 0
        }) {
            println!(
                "ckpt volume {} [{}]: incr4/full = {:.3}",
                row.kernel,
                row.network,
                row.bytes_p50 as f64 / full.bytes_p50 as f64
            );
        }
    }
    for b in &base {
        if !cur.iter().any(|c| c.kernel == b.kernel && c.network == b.network && c.mode == b.mode) {
            println!("dropped since baseline: {} [{}/{}]", b.kernel, b.network, b.mode);
        }
    }
    println!(
        "{} current entries, {} matched against baseline ({} total in baseline)",
        cur.len(),
        matched,
        base.len()
    );
}
