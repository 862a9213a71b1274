//! `scaling` — the weak-scaling bench behind the rank scheduler.
//!
//! The paper's platform (§6) runs up to thousands of MPI processes. The
//! scheduler runs ranks as coroutines on a fixed worker pool, not one OS
//! thread each, so one process can simulate 4096 ranks.
//! This bench pins that claim: NPB kernels at weak-scaling problem sizes
//! (per-rank work constant) from 64 to 4096 ranks on the Lemieux cluster
//! model, emitting `BENCH_scaling.json` into `$BENCH_OUT_DIR`, else
//! `target/bench-out/`, never over the committed baseline at the repo root
//! (a deliberate rebaseline runs with `BENCH_OUT_DIR=.` from there).
//!
//! Kernels:
//! * `cg` — conjugate gradient, `n = 32 × nranks` rows (32 per rank):
//!   nearest-neighbor halo exchange plus three allreduces per iteration —
//!   the communication-bound shape;
//! * `ep` — embarrassingly parallel, one block per rank: pure compute with
//!   three final allreduces — the synchronization-floor shape.
//!
//! At the smallest scale the default worker pool is cross-checked against
//! the serial `workers: 1` schedule (the determinism anchor: results,
//! makespans and message counts are schedule-independent), so the numbers
//! recorded here are provably measurements of the same computation.
//!
//! Flags: `--smoke` runs only cg at 256 ranks (the ci_gate configuration);
//! `--max-ranks N` caps the sweep.

use c3_bench::{Align, Table};
use mpisim::{ClusterModel, JobSpec, SchedMode};
use npb::cg::CgConfig;
use npb::ep::EpConfig;
use npb::Kernel;
use std::time::Instant;

const RANKS: [usize; 4] = [64, 256, 1024, 4096];
/// Scale at which the serial schedule is also run for the bit-equality
/// cross-check.
const SERIAL_RANKS: usize = 64;

struct Row {
    kernel: String,
    nranks: usize,
    wall_ms: f64,
    makespan_ms: f64,
    msgs_sent: u64,
    checksum: u64,
}

/// CG's weak-scaling problem: 32 rows per rank.
fn cg(nranks: usize) -> Kernel {
    Kernel::Cg(CgConfig { n: 32 * nranks, iters: 4 })
}

/// EP's weak-scaling problem: one block per rank.
fn ep(nranks: usize) -> Kernel {
    Kernel::Ep(EpConfig { m_per_block: 10, blocks: nranks as u64 })
}

/// One weak-scaling run: per-rank work is constant, the job grows.
fn run_kernel(kernel: Kernel, nranks: usize, sched: SchedMode) -> Row {
    let spec = JobSpec::new(nranks).cluster(ClusterModel::lemieux()).sched(sched);
    let start = Instant::now();
    let out = mpisim::launch(&spec, |ctx| kernel.run(ctx).map(f64::to_bits))
        .unwrap_or_else(|e| panic!("{} at {nranks} ranks: {e}", kernel.name()));
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    Row {
        kernel: kernel.name().to_lowercase(),
        nranks,
        wall_ms,
        makespan_ms: out.makespan_ns() as f64 / 1e6,
        msgs_sent: out.msgs_sent,
        checksum: out.results.iter().fold(0u64, |a, b| a.wrapping_mul(31).wrapping_add(*b)),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let max_ranks = args
        .iter()
        .position(|a| a == "--max-ranks")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(usize::MAX);

    let pool = SchedMode::default();
    let plan: Vec<(Kernel, usize)> = if smoke {
        vec![(cg(256), 256)]
    } else {
        let mut p = Vec::new();
        for &n in RANKS.iter().filter(|&&n| n <= max_ranks) {
            p.push((cg(n), n));
            p.push((ep(n), n));
        }
        p
    };

    // Determinism anchor: at the smallest scale of the sweep, the worker
    // pool must reproduce the serial schedule bit for bit.
    if !smoke {
        let serial = SchedMode::EventDriven { workers: 1 };
        for kernel in [cg(SERIAL_RANKS), ep(SERIAL_RANKS)] {
            let [a, b] = [pool, serial].map(|s| run_kernel(kernel, SERIAL_RANKS, s));
            assert_eq!(
                (a.checksum, a.makespan_ms, a.msgs_sent),
                (b.checksum, b.makespan_ms, b.msgs_sent),
                "{} at {SERIAL_RANKS} ranks: the worker pool diverged from workers: 1",
                a.kernel
            );
        }
        eprintln!("serial cross-check at {SERIAL_RANKS} ranks: bit-identical");
    }

    let rows: Vec<Row> = plan.into_iter().map(|(k, n)| run_kernel(k, n, pool)).collect();

    let mut t = Table::new(
        "weak scaling — rank coroutines on a worker pool, Lemieux cluster model",
        &[
            ("kernel", Align::Left),
            ("ranks", Align::Right),
            ("wall ms", Align::Right),
            ("makespan ms", Align::Right),
            ("msgs", Align::Right),
        ],
    );
    for r in &rows {
        t.row(vec![
            r.kernel.clone(),
            r.nranks.to_string(),
            format!("{:.1}", r.wall_ms),
            format!("{:.3}", r.makespan_ms),
            r.msgs_sent.to_string(),
        ]);
    }
    t.print();

    // Hand-rolled JSON (no serde in the container): flat schema, one object
    // per (kernel, scale) point. The checksum is hex so the record pins
    // bit-identical results across PRs, not just timings.
    let mut json =
        String::from("{\n  \"bench\": \"scaling\",\n  \"unit\": \"ms\",\n  \"sched\": \"event\",\n  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"nranks\": {}, \"wall_ms\": {:.1}, \"makespan_ms\": {:.3}, \
             \"msgs_sent\": {}, \"checksum\": \"{:016x}\"}}{}\n",
            r.kernel,
            r.nranks,
            r.wall_ms,
            r.makespan_ms,
            r.msgs_sent,
            r.checksum,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    let dir = c3_bench::bench_out_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let path = dir.join("BENCH_scaling.json");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("\nwrote {}", path.display());
}
