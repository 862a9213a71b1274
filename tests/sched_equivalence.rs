//! Scheduler equivalence: a job's observable behaviour must not depend on
//! how its ranks are scheduled onto worker threads. `workers: 1` is the
//! serial reference schedule (one OS thread resuming ranks in ready-queue
//! order); `workers: NRANKS` runs every rank at once on preempted OS
//! threads, the most concurrent schedule the pool allows.
//!
//! The per-rank op clock ticks at exactly the points where a rank can block
//! (send, posted receive, wait, collective entry) and never on polling, so
//! on the raw substrate it is a pure function of the rank's call sequence —
//! the schedule must not move it. The protocol layer polls its control
//! plane, so *when* a rank sees a Checkpoint-Initiated message, and hence
//! where its own rounds start, can follow the schedule. These suites run 32
//! seeds per network model (reliable, reorder+drop+dup, tight bounded
//! mailboxes), protocol layer included:
//!
//! * **failure-free runs** (checkpoint rounds active, no fail-stop): the
//!   per-rank results are bit-identical between the two schedules; on the
//!   reliable and tight-mailbox networks the final op clocks are too. On
//!   the reordering, dropping, duplicating network only the results are
//!   compared: there the release point of withheld traffic, and with it a
//!   Checkpoint-Initiated fan-out, is not a function of the receiver's op
//!   sequence;
//! * **fail-stop chaos runs** (seeded multi-fault [`ChaosPlan`]s): both
//!   schedules recover to the failure-free result bit for bit. Final op
//!   clocks and committed-line progressions are *not* compared across
//!   chaos runs: which round has committed when an asynchronous fault
//!   tears the job down — and hence how many receives the restarted
//!   incarnation serves from the replay log without posting a substrate op
//!   — depends on the interleaving, so the recovered result is the
//!   strongest chaos-side observable that is deterministic at all;
//! * raw substrate: the results and op clocks of NPB CG, LU and BT are
//!   bit-identical between the serial schedule and several worker-pool
//!   widths.

mod util;

use c3::{C3Config, C3Ctx, C3Error, ChaosPlan, ChaosSpace, CkptPolicy, Job};
use mpisim::{JobSpec, NetModel, SchedMode};
use statesave::codec::{Decoder, Encoder};
use util::TempStore;

const NRANKS: usize = 3;
const ITERS: u64 = 10;
const SEEDS: u64 = 32;
const SERIAL: SchedMode = SchedMode::EventDriven { workers: 1 };
const CONCURRENT: SchedMode = SchedMode::EventDriven { workers: NRANKS };

/// The chaos ring workload (the `chaos_soak` smoke workload): checkpoint
/// every third pragma, pass a token around the ring, fold into a checksum.
/// Returns the checksum and the rank's final op clock.
fn ring(ctx: &mut C3Ctx<'_>, iters: u64) -> Result<(u64, u64), C3Error> {
    let (mut iter, mut acc) = match ctx.take_restored_state() {
        Some(b) => {
            let mut d = Decoder::new(&b);
            (d.u64()?, d.u64()?)
        }
        None => (0, 0),
    };
    let me = ctx.rank();
    let n = ctx.nranks();
    while iter < iters {
        ctx.pragma(|e: &mut Encoder| {
            e.u64(iter);
            e.u64(acc);
        })?;
        ctx.send((me + 1) % n, 5, &[iter * 31 + me as u64])?;
        let (v, _) = ctx.recv::<u64>(((me + n - 1) % n) as i32, 5)?;
        acc = acc.wrapping_mul(0x100000001b3).wrapping_add(v[0]);
        iter += 1;
    }
    Ok((acc, ctx.mpi().op_clock()))
}

fn chaos_cfg(store: &TempStore) -> C3Config {
    C3Config { policy: CkptPolicy::EveryNth(3), ..C3Config::passive(store.path()) }
}

/// One protocol run of the ring under `sched`, with an optional seeded
/// chaos plan. Returns per-rank `(checksum, final op clock)`.
fn run_ring(
    seed: u64,
    net: NetModel,
    sched: SchedMode,
    plan: Option<ChaosPlan>,
    tag: &str,
) -> Vec<(u64, u64)> {
    let store = TempStore::new(&format!("sched-eq-{tag}-{seed}"));
    let rec = Job::new(NRANKS, chaos_cfg(&store))
        .network(net)
        .sched(sched)
        .chaos(plan.clone().unwrap_or_else(ChaosPlan::none))
        .run(|ctx| ring(ctx, ITERS))
        .unwrap_or_else(|e| panic!("seed {seed} plan {plan:?} under {sched:?}: {e}"));
    rec.handle.results.clone()
}

/// The full sweep for one network family: per seed, (a) failure-free runs
/// must match bit-for-bit across both schedules — including op clocks if
/// `clocks` — and (b) seeded chaos runs under both schedules must recover
/// to that same failure-free result.
fn sweep(tag: &str, clocks: bool, net_for_seed: impl Fn(u64) -> NetModel) {
    let space = ChaosSpace { nranks: NRANKS, max_pragma: ITERS, max_op: 80 };
    let mut divergences = 0u32;
    for seed in 0..SEEDS {
        let net = net_for_seed(seed);
        let serial = run_ring(seed, net, SERIAL, None, tag);
        let concurrent = run_ring(seed, net, CONCURRENT, None, tag);
        let same = if clocks {
            concurrent == serial
        } else {
            concurrent.iter().map(|(acc, _)| acc).eq(serial.iter().map(|(acc, _)| acc))
        };
        if !same {
            eprintln!("seed {seed} ({tag}): failure-free run diverged");
            eprintln!("  workers 1: {serial:?}\n  workers {NRANKS}: {concurrent:?}");
            divergences += 1;
        }
        let plan = ChaosPlan::from_seed(seed, &space);
        let baseline: Vec<u64> = serial.iter().map(|(acc, _)| *acc).collect();
        for sched in [SERIAL, CONCURRENT] {
            let got: Vec<u64> = run_ring(seed, net, sched, Some(plan.clone()), tag)
                .iter()
                .map(|(acc, _)| *acc)
                .collect();
            if got != baseline {
                eprintln!("seed {seed} ({tag}): chaos recovery under {sched:?} diverged");
                divergences += 1;
            }
        }
    }
    assert_eq!(divergences, 0, "{tag}: {divergences} divergences across {SEEDS} seeds");
}

#[test]
fn sweep_reliable_network() {
    sweep("rel", true, |seed| NetModel::reliable().seed(seed));
}

#[test]
fn sweep_reorder_drop_duplicate() {
    sweep("fault", false, |seed| NetModel::reorder(seed).drop_rate(15).duplicate_rate(10));
}

#[test]
fn sweep_tight_mailboxes() {
    sweep("tight", true, |seed| NetModel::reliable().seed(seed).mailbox_capacity(2 * NRANKS));
}

/// Raw substrate (no protocol layer): NPB CG, LU and BT results and final
/// op clocks are bit-identical between the serial schedule and several
/// worker-pool widths. LU and BT pipeline their sweeps in column tiles, so
/// they hand off between ranks the most per step. CG on 6 rows splits them
/// 2/2/1/1, so its halo comes from ranks two away as well.
#[test]
fn raw_substrate_op_clocks_match_across_schedulers_and_worker_counts() {
    type Kernel = fn(&mut mpisim::RankCtx) -> Result<f64, mpisim::MpiError>;
    let kernels: [(&str, Kernel); 4] = [
        ("cg", |ctx| npb::cg::run(ctx, &npb::cg::CgConfig { n: 64, iters: 6 })),
        ("cg thin", |ctx| npb::cg::run(ctx, &npb::cg::CgConfig { n: 6, iters: 6 })),
        ("lu", |ctx| npb::lu::run(ctx, &npb::lu::LuConfig { n: 37, isteps: 4, omega: 1.2 })),
        ("bt", |ctx| {
            npb::bt::run(ctx, &npb::bt::BtConfig { n: 30, steps: 3, lambda: 0.35, kappa: 0.1 })
        }),
    ];
    for (name, kernel) in kernels {
        let run = |sched: SchedMode| -> Vec<(u64, u64)> {
            let spec = JobSpec::new(4).sched(sched);
            let out = mpisim::launch(&spec, |ctx| Ok((kernel(ctx)?.to_bits(), ctx.op_clock())))
                .unwrap_or_else(|e| panic!("{name} under {sched:?}: {e}"));
            out.results
        };
        let serial = run(SERIAL);
        for workers in [0, 2, 4] {
            let got = run(SchedMode::EventDriven { workers });
            assert_eq!(got, serial, "{workers} workers diverged from workers: 1 on {name}");
        }
    }
}
