//! `chaos_soak` — deterministic seed-sweep fault-injection soak.
//!
//! For every NPB kernel, every seed, and every network mode, derive an
//! ordered multi-fault [`ChaosPlan`] (`ChaosPlan::from_seed`, which may add
//! its own seed-derived drop/duplication/reorder component), run the kernel
//! under the C³ protocol via the unified `c3::Job` builder — faults land at
//! pragmas, at arbitrary substrate operations (mid-collective,
//! mid-control-plane, mid-restore-handshake), in the torn-commit window,
//! and mid-replay, while the network may reorder, drop, and duplicate —
//! and compare the recovered result bit-for-bit against the failure-free
//! raw-substrate baseline.
//!
//! The sweep is the full cross-product *chaos seeds × network models*: an
//! in-order reliable fabric, `NetModel::reorder` with nonzero
//! drop/duplication rates (one hold stage in `mpisim`: each envelope's
//! drop, duplication or reorder hold is a pure hash of its seed, signature
//! and sequence number — the ROADMAP "chaos × reordering" item), and a
//! tight bounded-mailbox fabric (`mailbox_capacity = 2·nranks`) where
//! senders park under backpressure — the ROADMAP "backpressure /
//! congestion modeling" item.
//!
//! Any divergent seed is greedily shrunk (`c3::shrink_plan`) to a minimal
//! reproduction — over the network-fault component as well as the
//! fail-stop schedule — by re-running candidate plans. The shrinker's own
//! unit tests (`c3::failure`) keep it exercised while the protocol is
//! healthy.
//!
//! The sweep also crosses a **checkpoint-mode axis** — `CkptMode::Full`
//! against `CkptMode::Incremental { every_n: 4 }` — so every seed
//! validates recovery through delta chains and the harness measures what
//! the incremental representation saves.
//!
//! Emits `BENCH_recovery.json` (into `$BENCH_OUT_DIR`, else
//! `target/bench-out/`, so a run never overwrites the committed baseline) with
//! per-(kernel, network, ckpt mode) restart counts, §6.5-style restart-cost
//! percentiles (`last_commit_wall_ns` of the surviving incarnation), and
//! checkpoint-volume percentiles (`ckpt_line_bytes` summed across ranks),
//! each entry recording the network model and checkpoint mode it ran under.
//!
//! ```text
//! chaos_soak [--seeds N] [--base-seed S] [--quick] [--jobs J] [--kernels cg,ft,...]
//! ```

use c3::{shrink_plan, C3Config, C3Error, ChaosPlan, ChaosSpace, CkptPolicy, Job};
use c3_bench::{Align, Table};
use mpisim::{JobSpec, NetModel};
use npb::{bt, cg, ep, ft, hpl, is, lu, mg, smg, sp, Kernel};
use statesave::TempStore;
use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering;
use std::sync::Mutex;

/// The network-model axis of the sweep.
#[derive(Clone, Copy, PartialEq, Eq)]
enum NetMode {
    /// In-order reliable fabric (the seed's behavior).
    Reliable,
    /// Seeded cross-signature reordering plus nonzero drop/duplication.
    Faulty,
    /// Bounded mailboxes at the 2·nranks floor: senders park under
    /// backpressure whenever a burst outruns the receiver, exercising the
    /// protocol's flow-control assumptions (the paper's buffered-send
    /// discussion) on every seed.
    TightMailbox,
}

impl NetMode {
    const ALL: [NetMode; 3] = [NetMode::Reliable, NetMode::Faulty, NetMode::TightMailbox];

    /// The base network model for one run (the plan's own `NetFault`
    /// component, if any, is merged on top by the builder).
    fn model(self, seed: u64, nranks: usize) -> NetModel {
        match self {
            NetMode::Reliable => NetModel::reliable().seed(seed),
            NetMode::Faulty => NetModel::reorder(seed).drop_rate(15).duplicate_rate(10),
            NetMode::TightMailbox => NetModel::reliable().seed(seed).mailbox_capacity(2 * nranks),
        }
    }

    fn name(self) -> &'static str {
        match self {
            NetMode::Reliable => "reliable",
            NetMode::Faulty => "reorder+drop15+dup10",
            NetMode::TightMailbox => "tight-mailbox",
        }
    }
}

/// The checkpoint-representation axis of the sweep ([`c3::CkptMode`]).
#[derive(Clone, Copy, PartialEq, Eq)]
enum ModeAxis {
    /// Every commit writes the full line sections (the seed's behavior).
    Full,
    /// Base-plus-delta chains of length 4 — the configuration the
    /// incremental-checkpointing claims are made on.
    Incr4,
}

impl ModeAxis {
    const ALL: [ModeAxis; 2] = [ModeAxis::Full, ModeAxis::Incr4];

    fn apply(self, cfg: C3Config) -> C3Config {
        match self {
            ModeAxis::Full => cfg,
            ModeAxis::Incr4 => cfg.ckpt_mode(c3::CkptMode::Incremental { every_n: 4 }),
        }
    }

    fn name(self) -> &'static str {
        match self {
            ModeAxis::Full => "full",
            ModeAxis::Incr4 => "incr4",
        }
    }
}

/// One chaos run's observables.
struct RunOutcome {
    /// Per-rank result bits (bit-exact comparison basis).
    bits: Vec<u64>,
    restarts: u32,
    /// Wall ns from final-incarnation start to its last checkpoint commit,
    /// max across ranks (0 when the surviving incarnation never committed).
    wall_ns: u64,
    /// Recovery-line state bytes written by the surviving incarnation,
    /// summed across ranks (`C3Stats::ckpt_line_bytes`): the per-mode
    /// checkpoint volume, excluding the mode-independent late log.
    ckpt_bytes: u64,
}

/// One sweep row: a kernel with its soak name, rank count, commit cadence
/// and fault space.
struct Row {
    name: &'static str,
    kernel: Kernel,
    nranks: usize,
    /// Commit cadence (`CkptPolicy::EveryNth`). Most kernels commit every
    /// third pragma; the state-carrying volume kernels (bt, smg) commit at
    /// every pragma so delta chains track pragma-to-pragma state drift.
    every: u64,
    space: ChaosSpace,
}

fn row(
    name: &'static str,
    kernel: Kernel,
    nranks: usize,
    every: u64,
    max_pragma: u64,
    max_op: u64,
) -> Row {
    Row { name, kernel, nranks, every, space: ChaosSpace { nranks, max_pragma, max_op } }
}

impl Row {
    /// The failure-free raw-substrate run, as per-rank result bits.
    fn baseline(&self) -> Vec<u64> {
        let kernel = self.kernel;
        let out = mpisim::launch(&JobSpec::new(self.nranks), move |ctx| kernel.run(ctx))
            .unwrap_or_else(|e| panic!("{} baseline failed: {e}", self.name));
        out.results.iter().map(|r| r.to_bits()).collect()
    }

    /// One protocol-instrumented chaos run.
    fn chaos(&self, job: &Job, plan: &ChaosPlan) -> Result<RunOutcome, String> {
        let kernel = self.kernel;
        let rec = job
            .clone()
            .chaos(plan.clone())
            .run(move |ctx| {
                let r = kernel.run(ctx).map_err(C3Error::Mpi)?;
                let s = ctx.stats();
                Ok((r, s.last_commit_wall_ns, s.ckpt_line_bytes))
            })
            .map_err(|e| e.to_string())?;
        Ok(RunOutcome {
            bits: rec.handle.results.iter().map(|(r, _, _)| r.to_bits()).collect(),
            restarts: rec.restarts,
            wall_ns: rec.handle.results.iter().map(|(_, w, _)| *w).max().unwrap_or(0),
            ckpt_bytes: rec.handle.results.iter().map(|(_, _, b)| *b).sum(),
        })
    }
}

/// The paper's ten kernels. `quick` shrinks problem sizes for the tier-1
/// smoke (`--seeds 32 --quick` finishes well under a minute); the default
/// sizes match `tests/recovery_kernels.rs`. EP runs on one rank for the
/// same scheduler-dependence reason documented there.
fn kernels(quick: bool) -> Vec<Row> {
    let lu_s = Kernel::Lu(lu::LuConfig { n: 64, isteps: 6, omega: 1.2 });
    if quick {
        vec![
            row("cg", Kernel::Cg(cg::CgConfig { n: 48, iters: 6 }), 3, 3, 6, 150),
            row("lu", lu_s, 4, 3, 8, 150),
            row("sp", Kernel::Sp(sp::SpConfig { n: 24, steps: 6, lambda: 0.4 }), 3, 3, 6, 150),
            row(
                "bt",
                Kernel::Bt(bt::BtConfig { n: 15, steps: 4, lambda: 0.35, kappa: 0.1 }),
                3,
                1,
                4,
                120,
            ),
            row("mg", Kernel::Mg(mg::MgConfig { log2_n: 6, cycles: 4, smooth: 2 }), 4, 3, 4, 150),
            row("ft", Kernel::Ft(ft::FtConfig { n: 16, steps: 4, alpha: 1e-4 }), 4, 3, 4, 120),
            row(
                "is",
                Kernel::Is(is::IsConfig { total_keys: 1024, max_key: 2048, iters: 4 }),
                4,
                3,
                4,
                120,
            ),
            row("ep", Kernel::Ep(ep::EpConfig { m_per_block: 10, blocks: 8 }), 1, 3, 8, 60),
            row(
                "smg",
                Kernel::Smg(smg::SmgConfig { log2_n: 6, iters: 4, smooth: 2 }),
                4,
                1,
                8,
                150,
            ),
            row("hpl", Kernel::Hpl(hpl::HplConfig { n: 24 }), 4, 3, 24, 150),
        ]
    } else {
        vec![
            row("cg", Kernel::Cg(cg::CgConfig { n: 96, iters: 8 }), 4, 3, 8, 300),
            row("lu", lu_s, 4, 3, 10, 300),
            row("sp", Kernel::Sp(sp::SpConfig { n: 32, steps: 8, lambda: 0.4 }), 4, 3, 8, 300),
            // bt/mg/smg carry real grid state and run long enough for the
            // incremental mode to build full base-plus-delta chains — the
            // configurations the checkpoint-volume comparison in
            // BENCH_recovery.json is made on. bt and smg commit at every
            // pragma (delta = one step/iteration of drift); mg commits every
            // third pragma (delta = one V-cycle of drift). bt's 64 steps let
            // the symmetrically-coupled field contract onto its forcing
            // steady state, where late-chain deltas collapse.
            row(
                "bt",
                Kernel::Bt(bt::BtConfig { n: 21, steps: 64, lambda: 0.35, kappa: 0.7 }),
                3,
                1,
                12,
                250,
            ),
            row(
                "mg",
                Kernel::Mg(mg::MgConfig { log2_n: 12, cycles: 36, smooth: 2 }),
                4,
                3,
                12,
                300,
            ),
            row("ft", Kernel::Ft(ft::FtConfig { n: 32, steps: 6, alpha: 1e-4 }), 4, 3, 6, 250),
            row(
                "is",
                Kernel::Is(is::IsConfig { total_keys: 2048, max_key: 4096, iters: 6 }),
                4,
                3,
                6,
                250,
            ),
            row("ep", Kernel::Ep(ep::EpConfig { m_per_block: 10, blocks: 12 }), 1, 3, 12, 80),
            row(
                "smg",
                Kernel::Smg(smg::SmgConfig { log2_n: 8, iters: 24, smooth: 2 }),
                4,
                1,
                10,
                300,
            ),
            row("hpl", Kernel::Hpl(hpl::HplConfig { n: 40 }), 4, 3, 40, 300),
        ]
    }
}

fn chaos_cfg(store: &TempStore, mode: ModeAxis, every: u64) -> C3Config {
    mode.apply(C3Config {
        // Every rank applies the policy: concurrent initiations exercise
        // the §4.5 "any process may initiate" interleavings under fire.
        policy: CkptPolicy::EveryNth(every),
        ..C3Config::passive(store.path())
    })
}

/// One sweep record.
struct Record {
    kernel: usize,
    net: NetMode,
    mode: ModeAxis,
    seed: u64,
    plan: ChaosPlan,
    outcome: Result<(RunOutcome, bool), String>, // bool = matches baseline
}

struct Args {
    seeds: u64,
    base_seed: u64,
    quick: bool,
    jobs: usize,
    kernels: Option<Vec<String>>,
}

fn parse_args() -> Args {
    let mut args = Args {
        seeds: 200,
        base_seed: 0,
        quick: false,
        // Full parallelism by default; `--jobs` overrides in either
        // direction (the old hard cap of 8 silently wasted wider hosts).
        jobs: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
        kernels: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut grab = |what: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--seeds" => args.seeds = grab("--seeds").parse().expect("--seeds N"),
            "--base-seed" => args.base_seed = grab("--base-seed").parse().expect("--base-seed N"),
            "--quick" => args.quick = true,
            "--jobs" => args.jobs = grab("--jobs").parse().expect("--jobs N"),
            "--kernels" => {
                args.kernels = Some(grab("--kernels").split(',').map(str::to_string).collect())
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    args.jobs = args.jobs.max(1);
    args
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn main() {
    let args = parse_args();
    let mut kset = kernels(args.quick);
    if let Some(filter) = &args.kernels {
        kset.retain(|k| filter.iter().any(|f| f == k.name));
        if kset.is_empty() {
            eprintln!("--kernels matched nothing");
            std::process::exit(2);
        }
    }

    // Failure-free baselines, once per kernel.
    let baselines: Vec<Vec<u64>> = kset.iter().map(Row::baseline).collect();

    // The sweep: kernels × network modes × checkpoint modes × seeds,
    // claimed by a fixed-size worker pool.
    let tasks: Vec<(usize, NetMode, ModeAxis, u64)> = (0..kset.len())
        .flat_map(|k| {
            NetMode::ALL.into_iter().flat_map(move |net| {
                ModeAxis::ALL.into_iter().flat_map(move |mode| {
                    (0..args.seeds).map(move |s| (k, net, mode, args.base_seed + s))
                })
            })
        })
        .collect();
    let next = AtomicUsize::new(0);
    let records: Mutex<Vec<Record>> = Mutex::new(Vec::with_capacity(tasks.len()));
    std::thread::scope(|scope| {
        for _ in 0..args.jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(kidx, net, mode, seed)) = tasks.get(i) else { break };
                let k = &kset[kidx];
                let plan = ChaosPlan::from_seed(seed, &k.space);
                let store = TempStore::new(k.name);
                let job = Job::new(k.nranks, chaos_cfg(&store, mode, k.every))
                    .network(net.model(seed, k.nranks));
                let outcome = k.chaos(&job, &plan).map(|run| {
                    let ok = run.bits == baselines[kidx];
                    (run, ok)
                });
                records.lock().unwrap().push(Record {
                    kernel: kidx,
                    net,
                    mode,
                    seed,
                    plan,
                    outcome,
                });
            });
        }
    });
    // Workers finish in scheduler order; sort so the report, the failing
    // list, and BENCH_recovery.json are byte-stable across identical runs.
    let mut records = records.into_inner().unwrap();
    records.sort_by_key(|r| (r.kernel, r.net as u8, r.mode as u8, r.seed));

    // Aggregate per (kernel, network mode, checkpoint mode).
    let mut table = Table::new(
        format!(
            "chaos_soak — {} seeds × {} kernels × {} networks × {} ckpt modes ({} plans)",
            args.seeds,
            kset.len(),
            NetMode::ALL.len(),
            ModeAxis::ALL.len(),
            records.len()
        ),
        &[
            ("kernel", Align::Left),
            ("network", Align::Left),
            ("ckpt", Align::Left),
            ("runs", Align::Right),
            ("diverged", Align::Right),
            ("errors", Align::Right),
            ("faults fired", Align::Right),
            ("max restarts", Align::Right),
            ("restart-cost p50/p99 ms", Align::Right),
            ("ckpt p50 KB", Align::Right),
        ],
    );
    let mut json_kernels = Vec::new();
    let mut total_diverged = 0usize;
    let mut failing: Vec<&Record> = Vec::new();
    // The number the incremental mode is judged on: its checkpoint volume
    // against the full mode's, per (kernel, network).
    let mut volume_ratios = Vec::new();
    for (kidx, k) in kset.iter().enumerate() {
        for net in NetMode::ALL {
            let mut bytes_p50 = [0u64; ModeAxis::ALL.len()];
            for mode in ModeAxis::ALL {
                let mine: Vec<&Record> = records
                    .iter()
                    .filter(|r| r.kernel == kidx && r.net == net && r.mode == mode)
                    .collect();
                let mut diverged = 0usize;
                let mut errors = 0usize;
                let mut fired = 0u64;
                let mut max_restarts = 0u32;
                let mut hist: Vec<u64> = Vec::new();
                let mut costs: Vec<u64> = Vec::new();
                let mut volumes: Vec<u64> = Vec::new();
                for r in &mine {
                    match &r.outcome {
                        Ok((run, ok)) => {
                            if !ok {
                                diverged += 1;
                                failing.push(r);
                            }
                            fired += run.restarts as u64;
                            max_restarts = max_restarts.max(run.restarts);
                            let slot = run.restarts as usize;
                            if hist.len() <= slot {
                                hist.resize(slot + 1, 0);
                            }
                            hist[slot] += 1;
                            if run.wall_ns > 0 {
                                costs.push(run.wall_ns);
                            }
                            volumes.push(run.ckpt_bytes);
                        }
                        Err(_) => {
                            errors += 1;
                            failing.push(r);
                        }
                    }
                }
                total_diverged += diverged + errors;
                costs.sort_unstable();
                volumes.sort_unstable();
                let (p50, p90, p99) =
                    (percentile(&costs, 0.50), percentile(&costs, 0.90), percentile(&costs, 0.99));
                let (b50, b90, b99) = (
                    percentile(&volumes, 0.50),
                    percentile(&volumes, 0.90),
                    percentile(&volumes, 0.99),
                );
                bytes_p50[mode as usize] = b50;
                table.row(vec![
                    k.name.to_string(),
                    net.name().to_string(),
                    mode.name().to_string(),
                    mine.len().to_string(),
                    diverged.to_string(),
                    errors.to_string(),
                    fired.to_string(),
                    max_restarts.to_string(),
                    format!("{:.2}/{:.2}", p50 as f64 / 1e6, p99 as f64 / 1e6),
                    format!("{:.1}", b50 as f64 / 1024.0),
                ]);
                let hist_json = hist.iter().map(u64::to_string).collect::<Vec<_>>().join(", ");
                json_kernels.push(format!(
                    "    {{\"name\": \"{}\", \"network\": \"{}\", \"ckpt_mode\": \"{}\", \
                     \"runs\": {}, \"divergences\": {}, \
                     \"errors\": {}, \"faults_fired\": {}, \"max_restarts\": {}, \
                     \"restart_histogram\": [{}], \
                     \"restart_cost_ns\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}, \
                     \"ckpt_bytes\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}}}",
                    k.name,
                    net.name(),
                    mode.name(),
                    mine.len(),
                    diverged,
                    errors,
                    fired,
                    max_restarts,
                    hist_json,
                    p50,
                    p90,
                    p99,
                    costs.last().copied().unwrap_or(0),
                    b50,
                    b90,
                    b99,
                    volumes.last().copied().unwrap_or(0),
                ));
            }
            let [full, incr] = bytes_p50;
            if full > 0 && incr > 0 {
                volume_ratios.push(format!(
                    "ckpt volume {} [{}]: incr4/full = {:.3}",
                    k.name,
                    net.name(),
                    incr as f64 / full as f64
                ));
            }
        }
    }
    table.print();
    for line in &volume_ratios {
        println!("{line}");
    }

    // Shrink every failing seed to a minimal reproduction by re-running
    // (over the network-fault component too).
    let mut shrunk_json = Vec::new();
    for r in &failing {
        let k = &kset[r.kernel];
        let still_fails = |cand: &ChaosPlan| {
            let store = TempStore::new("shrink");
            let job = Job::new(k.nranks, chaos_cfg(&store, r.mode, k.every))
                .network(r.net.model(r.seed, k.nranks));
            match k.chaos(&job, cand) {
                Ok(run) => run.bits != baselines[r.kernel],
                Err(_) => true,
            }
        };
        let min = shrink_plan(&r.plan, still_fails);
        let why = match &r.outcome {
            Ok(_) => "diverged from baseline".to_string(),
            Err(e) => format!("error: {e}"),
        };
        println!(
            "FAIL {} [{}/{}] seed {}: plan {} shrank to minimal reproduction {} ({why}) — \
             rerun: cargo run --release -q -p c3-bench --bin chaos_soak -- --base-seed {} \
             --seeds 1 --kernels {}{}",
            k.name,
            r.net.name(),
            r.mode.name(),
            r.seed,
            r.plan,
            min,
            r.seed,
            k.name,
            if args.quick { " --quick" } else { "" },
        );
        shrunk_json.push(format!(
            "    {{\"kernel\": \"{}\", \"network\": \"{}\", \"ckpt_mode\": \"{}\", \"seed\": {}, \
             \"plan\": \"{}\", \"shrunk\": \"{}\"}}",
            k.name,
            r.net.name(),
            r.mode.name(),
            r.seed,
            r.plan,
            min
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"chaos_soak\",\n  \"seeds\": {},\n  \"base_seed\": {},\n  \
         \"quick\": {},\n  \"divergences\": {},\n  \"kernels\": [\n{}\n  ],\n  \
         \"failing_shrunk\": [\n{}\n  ]\n}}\n",
        args.seeds,
        args.base_seed,
        args.quick,
        total_diverged,
        json_kernels.join(",\n"),
        shrunk_json.join(",\n"),
    );
    let dir = c3_bench::bench_out_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let path = dir.join("BENCH_recovery.json");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("wrote {}", path.display());

    if total_diverged > 0 {
        std::process::exit(1);
    }
}
