//! Bounded-mailbox backpressure, end to end: the substrate's credit-based
//! flow control (`NetModel::mailbox_capacity`) under real workloads, the
//! deadlock watchdog's diagnosable report, and the protocol-layer traces
//! the tentpole interactions pin down — a sender parked across a
//! checkpoint pragma (the parked message is *provably* late: its piggyback
//! is stamped before the park, and the receiver's checkpoint is ordered
//! after the claim that caused the park), a peer dying while a sender is
//! parked, and late-message replay through a restore under a tight bound.

mod util;

use c3::{C3Config, C3Ctx, C3Error, ChaosPlan, CkptPolicy, FailAt, FailurePlan, Job};
use mpisim::{
    JobError, JobSpec, NetModel, SchedMode, ANY_SOURCE, BACKPRESSURE_DEADLOCK_MARKER, COMM_WORLD,
};
use proptest::prelude::*;
use statesave::codec::{Decoder, Encoder};
use util::TempStore;

// ----------------------------------------------------------------------
// Raw substrate: every NPB kernel is bit-identical bounded vs unbounded
// ----------------------------------------------------------------------

/// The ten NPB kernels at the quick problem sizes (mirroring
/// `chaos_soak --quick`), run on the raw substrate.
fn kernel_bits(kernel: usize, net: NetModel) -> Vec<u64> {
    fn run<C: Sync>(
        nranks: usize,
        net: NetModel,
        cfg: C,
        f: impl Fn(&mut mpisim::RankCtx, &C) -> Result<f64, mpisim::MpiError> + Sync,
    ) -> Vec<u64> {
        let spec = JobSpec::new(nranks).net(net);
        let out = mpisim::launch(&spec, |ctx| f(ctx, &cfg))
            .unwrap_or_else(|e| panic!("kernel failed under {net:?}: {e}"));
        out.results.iter().map(|r| r.to_bits()).collect()
    }
    match kernel {
        0 => run(3, net, npb::cg::CgConfig { n: 48, iters: 6 }, npb::cg::run),
        1 => run(4, net, npb::lu::LuConfig { n: 64, isteps: 6, omega: 1.2 }, npb::lu::run),
        2 => run(3, net, npb::sp::SpConfig { n: 24, steps: 6, lambda: 0.4 }, npb::sp::run),
        3 => run(
            3,
            net,
            npb::bt::BtConfig { n: 15, steps: 4, lambda: 0.35, kappa: 0.1 },
            npb::bt::run,
        ),
        4 => run(4, net, npb::mg::MgConfig { log2_n: 6, cycles: 4, smooth: 2 }, npb::mg::run),
        5 => run(4, net, npb::ft::FtConfig { n: 16, steps: 4, alpha: 1e-4 }, npb::ft::run),
        6 => run(
            4,
            net,
            npb::is::IsConfig { total_keys: 1024, max_key: 2048, iters: 4 },
            npb::is::run,
        ),
        7 => run(1, net, npb::ep::EpConfig { m_per_block: 10, blocks: 8 }, npb::ep::run),
        8 => run(4, net, npb::smg::SmgConfig { log2_n: 6, iters: 4, smooth: 2 }, npb::smg::run),
        _ => run(4, net, npb::hpl::HplConfig { n: 24 }, npb::hpl::run),
    }
}

const KERNEL_NAMES: [&str; 10] = ["cg", "lu", "sp", "bt", "mg", "ft", "is", "ep", "smg", "hpl"];

/// Each kernel's minimal deadlock-free capacity, measured by sweeping
/// capacities 1..=8 (`probe_capacity_floors`, `--ignored`): below the
/// floor the watchdog proves a deadlock — the kernel legitimately *needs*
/// that much buffering (mg/smg exchange several halo faces per neighbor
/// before receiving) — and at the floor and above, results are
/// bit-identical to unbounded.
const CAPACITY_FLOORS: [usize; 10] = [2, 1, 1, 1, 3, 1, 1, 1, 3, 1];

/// Probe each kernel's minimal safe capacity (run with --ignored --nocapture).
#[test]
#[ignore]
fn probe_capacity_floors() {
    for (kernel, name) in KERNEL_NAMES.iter().enumerate() {
        let unbounded = kernel_bits_checked(kernel, NetModel::reliable()).unwrap();
        for cap in 1..=8usize {
            let got = kernel_bits_checked(kernel, NetModel::reliable().mailbox_capacity(cap));
            let verdict = match got {
                Ok(bits) if bits == unbounded => "ok".to_string(),
                Ok(_) => "DIVERGED".to_string(),
                Err(e) => format!("ERR: {}", e.chars().take(60).collect::<String>()),
            };
            println!("{name} cap {cap}: {verdict}");
        }
    }
}

fn kernel_bits_checked(kernel: usize, net: NetModel) -> Result<Vec<u64>, String> {
    std::panic::catch_unwind(|| kernel_bits(kernel, net))
        .map_err(|e| e.downcast_ref::<String>().cloned().unwrap_or_else(|| "panic".into()))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]
    /// Backpressure must be invisible to a correct program: for every NPB
    /// kernel, a bounded-mailbox run produces results bit-identical to the
    /// unbounded run at every sampled capacity down to the kernel's floor.
    #[test]
    fn bounded_mailbox_kernels_match_unbounded(kernel in 0usize..10, slack in 0usize..8) {
        let cap = CAPACITY_FLOORS[kernel] + slack;
        let unbounded = kernel_bits(kernel, NetModel::reliable());
        let bounded = kernel_bits(kernel, NetModel::reliable().mailbox_capacity(cap));
        prop_assert_eq!(
            &bounded,
            &unbounded,
            "kernel {} diverged at mailbox capacity {}",
            KERNEL_NAMES[kernel],
            cap
        );
    }
}

/// Below its floor a kernel genuinely deadlocks — and the watchdog must
/// turn that into a diagnosable poison (send-cycle proof or no-progress
/// stall), never a hang.
#[test]
fn kernel_below_its_floor_reports_a_backpressure_deadlock() {
    let err =
        kernel_bits_checked(4 /* mg, floor 3 */, NetModel::reliable().mailbox_capacity(1))
            .expect_err("mg at capacity 1 must deadlock");
    assert!(err.contains(BACKPRESSURE_DEADLOCK_MARKER), "got: {err}");
    assert!(err.contains("capacity 1"), "got: {err}");
}

// ----------------------------------------------------------------------
// The deliberate send cycle: watchdog report end-to-end
// ----------------------------------------------------------------------

/// Two ranks each send `capacity + 1` messages to the other before either
/// receives — with capacity 1 both park on the second send and the cycle
/// walk must prove the deadlock and name both ranks and the bound.
#[test]
fn send_cycle_deadlock_fires_the_watchdog_with_a_useful_report() {
    let spec = JobSpec::new(2).mailbox_capacity(1);
    let err = mpisim::launch(&spec, |ctx| {
        let peer = 1 - ctx.rank();
        for i in 0..2u64 {
            ctx.send(peer, 7, &[i])?;
        }
        for _ in 0..2 {
            let _ = ctx.recv::<u64>(peer as i32, 7)?;
        }
        Ok(())
    })
    .unwrap_err();
    let JobError::Aborted { reason } = err else { panic!("expected abort, got {err:?}") };
    assert!(reason.starts_with(BACKPRESSURE_DEADLOCK_MARKER), "reason: {reason}");
    assert!(reason.contains("send cycle"), "reason: {reason}");
    assert!(reason.contains("rank 0") && reason.contains("rank 1"), "reason: {reason}");
    assert!(reason.contains("capacity 1"), "reason: {reason}");
}

// ----------------------------------------------------------------------
// Protocol traces: parked sends × pragmas, peer death, restore
// ----------------------------------------------------------------------

/// Rank 1 initiates a checkpoint round at every pragma; other ranks join
/// rounds via the Checkpoint-Initiated control flow.
fn rank1_initiates(store: &TempStore) -> C3Config {
    C3Config {
        policy: CkptPolicy::EveryNth(1),
        initiator: Some(1),
        ..C3Config::passive(store.path())
    }
}

/// A sender parks across its receiver's checkpoint pragma, and the parked
/// message is **provably late**: with capacity 1, rank 0's second message
/// is piggyback-stamped (epoch 0) *before* the park, and rank 1 initiates
/// its checkpoint (epoch 1) before draining — so the parked message
/// crosses the recovery line and must be logged as late. Pins the
/// classification count exactly, plus commit under backpressure.
#[test]
fn parked_send_across_a_checkpoint_pragma_is_logged_late() {
    const FLOOD: u64 = 6;
    let store = TempStore::new("bp-pragma");
    let out = Job::new(2, rank1_initiates(&store))
        .network(NetModel::reliable().mailbox_capacity(1))
        .run(|ctx| {
            let stats = match ctx.rank() {
                0 => {
                    // m0 takes the only credit; m1 is stamped epoch 0 and
                    // parks (rank 1 claims m0 only on its first recv below,
                    // which happens after its pragma).
                    for i in 0..FLOOD {
                        ctx.send(1, 5, &[i])?;
                    }
                    ctx.pragma(|e: &mut Encoder| e.u64(0))?;
                    // The token is ordered after this rank's CI (same
                    // destination, in-order network), so once rank 1 has
                    // claimed it the CI is in rank 1's mailbox; the barrier
                    // below gives rank 1 the post-claim operation whose
                    // control drain observes the CI and finishes the commit
                    // before rank 1 reads its stats.
                    ctx.send(1, 6, &[9u64])?;
                    ctx.barrier()?;
                    (0, 0)
                }
                _ => {
                    // Initiate the checkpoint before receiving anything:
                    // every flood message was sent in epoch 0, so every one
                    // received from here on is late.
                    let took = ctx.pragma(|e: &mut Encoder| e.u64(0))?;
                    assert!(took, "rank 1 must initiate");
                    for want in 0..FLOOD {
                        let (v, _) = ctx.recv::<u64>(0, 5)?;
                        assert_eq!(v[0], want, "bounded delivery must stay FIFO");
                    }
                    let (v, _) = ctx.recv::<u64>(0, 6)?;
                    assert_eq!(v[0], 9);
                    ctx.barrier()?;
                    (ctx.stats().late_logged, ctx.stats().ckpts_committed)
                }
            };
            let parked =
                ctx.mpi().network().sends_parked.load(std::sync::atomic::Ordering::Relaxed);
            Ok((stats, parked))
        })
        .unwrap();
    let ((late, committed), _) = out.results[1];
    // Rank 1 initiated before rank 0 saw any CI, and rank 0's whole flood
    // was stamped before it could next drain control (it was blocked in
    // send), so every flood message crossed the line: all late, all logged.
    assert_eq!(late, FLOOD, "every flood message must be classified late and logged");
    assert_eq!(committed, 1, "the round must commit under backpressure");
    let (_, parked) = out.results[0];
    assert!(parked > 0, "capacity 1 with a deferred receiver must park the sender");
}

/// A freed credit wakes exactly the FIFO ticket head. The park order is
/// forced to rank 2 → rank 3 (each successor is released only after the
/// network has observed the predecessor's ticket via `sends_parked`), so
/// every claim at the receiver must grant the earlier ticket first and the
/// wildcard drain must observe sources 1, 2, 3 — deterministically, every
/// round. This pins the observable contract of the targeted wake to the
/// ticket head. Rank 0 spin-waits on the network, so every rank gets its
/// own worker.
#[test]
fn credit_return_wakes_the_ticket_head_in_fifo_order() {
    use std::sync::atomic::Ordering;
    for round in 0..8 {
        let spec = JobSpec::new(4).mailbox_capacity(1).sched(SchedMode::EventDriven { workers: 4 });
        let out = mpisim::launch(&spec, |ctx| {
            let (go, payload) = (9, 5);
            if ctx.rank() == 0 {
                let net = std::sync::Arc::clone(ctx.network());
                // Rank 1's payload takes the only credit...
                ctx.send(1, go, &[1u64])?;
                while ctx.iprobe(1, payload, COMM_WORLD)?.is_none() {
                    std::thread::yield_now();
                }
                // ...rank 2 parks behind it (earlier ticket)...
                ctx.send(2, go, &[1u64])?;
                while net.sends_parked.load(Ordering::Relaxed) < 1 {
                    std::thread::yield_now();
                }
                // ...then rank 3 (later ticket).
                ctx.send(3, go, &[1u64])?;
                while net.sends_parked.load(Ordering::Relaxed) < 2 {
                    std::thread::yield_now();
                }
                let mut order = Vec::new();
                for _ in 0..3 {
                    let (_, st) = ctx.recv_bytes(ANY_SOURCE, payload, COMM_WORLD)?;
                    order.push(st.src);
                }
                assert_eq!(order, vec![1, 2, 3], "round {round}: grant left FIFO ticket order");
            } else {
                ctx.recv::<u64>(0, go)?;
                let me = ctx.rank() as u64;
                ctx.send(0, payload, &[me])?;
            }
            Ok(0u64)
        });
        out.unwrap_or_else(|e| panic!("round {round}: {e}"));
    }
}

/// A peer dies while a bounded-mailbox flood is in flight: rank 0 runs
/// ahead of rank 1 under capacity 1 (parking whenever it outruns the
/// drain) and rank 2 is killed at its first substrate operation. Any rank
/// caught parked must wake with the abort (pinned deterministically at the
/// substrate level by `network::tests::poison_releases_parked_senders`),
/// and the chaos driver must restart and converge to the fault-free
/// result.
///
/// Note the receive pattern: rank 1 drains the flood unconditionally, in
/// order. Under a bounded mailbox a *selective* receive gated on a third
/// party is an unsafe program — the gating message can starve behind
/// unclaimed flood credits (the watchdog reports exactly that shape).
#[test]
fn peer_death_during_a_bounded_flood_recovers_and_converges() {
    const FLOOD: u64 = 6;
    let app = |ctx: &mut C3Ctx<'_>| -> Result<u64, C3Error> {
        match ctx.rank() {
            0 => {
                for i in 0..FLOOD {
                    ctx.send(1, 5, &[i])?; // parks whenever it outruns the drain
                }
                ctx.barrier()?;
                Ok(1)
            }
            1 => {
                let mut acc = 0u64;
                for _ in 0..FLOOD {
                    let (v, _) = ctx.recv::<u64>(0, 5)?;
                    acc = acc.wrapping_mul(31).wrapping_add(v[0]);
                }
                ctx.barrier()?;
                Ok(acc)
            }
            _ => {
                ctx.barrier()?; // killed at its first operation (inside the barrier)
                Ok(7)
            }
        }
    };
    let base_store = TempStore::new("bp-death-base");
    let baseline =
        Job::new(3, C3Config::passive(base_store.path())).run(app).unwrap().handle.results.clone();

    let store = TempStore::new("bp-death");
    let rec = Job::new(3, C3Config::passive(store.path()))
        .network(NetModel::reliable().mailbox_capacity(1))
        .failure(FailurePlan { rank: 2, when: FailAt::Op(1) })
        .run(app)
        .unwrap();
    assert_eq!(rec.restarts, 1, "the injected death must cost exactly one restart");
    assert_eq!(rec.handle.results, baseline, "recovery must converge to the fault-free result");
}

/// Late-send replay through a restore, under a tight bound: rank 1 commits
/// a line whose late log contains the flood (guaranteed late as above),
/// dies after the commit, and the restarted incarnation must serve those
/// receives from the replay log while rank 0 re-executes its sends under
/// the same capacity-1 backpressure.
#[test]
fn late_messages_from_a_parked_sender_replay_after_a_post_commit_death() {
    const FLOOD: u64 = 5;
    let app = |ctx: &mut C3Ctx<'_>| -> Result<(u64, u64), C3Error> {
        // Application-level checkpointing: a restored incarnation resumes
        // from the recovery line (both ranks' lines sit between the flood
        // and the barrier), and the protocol serves the late-logged flood
        // receives from the replay log.
        let restored = ctx.take_restored_state().is_some();
        match ctx.rank() {
            0 => {
                if !restored {
                    for i in 0..FLOOD {
                        ctx.send(1, 5, &[i * 3 + 1])?;
                    }
                    ctx.pragma(|e: &mut Encoder| e.u64(0))?;
                }
                // Ordered after this rank's CI, so rank 1's token receive
                // observes the CI and commits line 1 before its pragma 2.
                ctx.send(1, 6, &[9u64])?;
                ctx.barrier()?;
                ctx.pragma(|e: &mut Encoder| e.u64(1))?;
                Ok((0, 0))
            }
            _ => {
                if !restored {
                    let took = ctx.pragma(|e: &mut Encoder| e.u64(0))?;
                    assert!(took, "rank 1 must initiate");
                }
                let mut acc = 0u64;
                for _ in 0..FLOOD {
                    let (v, _) = ctx.recv::<u64>(0, 5)?;
                    acc = acc.wrapping_mul(1099511628211).wrapping_add(v[0]);
                }
                let (v, _) = ctx.recv::<u64>(0, 6)?;
                acc = acc.wrapping_add(v[0]);
                ctx.barrier()?;
                // Dies at this pragma on the first incarnation, after the
                // line above committed (its late log holds the flood).
                ctx.pragma(|e: &mut Encoder| e.u64(1))?;
                Ok((acc, ctx.stats().replayed_recvs))
            }
        }
    };
    let base_store = TempStore::new("bp-replay-base");
    let baseline: Vec<u64> = Job::new(2, rank1_initiates(&base_store))
        .run(app)
        .unwrap()
        .handle
        .results
        .iter()
        .map(|(acc, _)| *acc)
        .collect();

    let store = TempStore::new("bp-replay");
    let rec = Job::new(2, rank1_initiates(&store))
        .network(NetModel::reliable().mailbox_capacity(1))
        .failure(FailurePlan { rank: 1, when: FailAt::AfterCommits { commits: 1, pragma: 2 } })
        .run(app)
        .unwrap();
    assert_eq!(rec.restarts, 1);
    let got: Vec<u64> = rec.handle.results.iter().map(|(acc, _)| *acc).collect();
    assert_eq!(got, baseline, "replayed late messages must reproduce the exact values");
    let (_, replayed) = rec.handle.results[1];
    assert!(
        replayed >= FLOOD,
        "rank 1's restarted incarnation must serve the flood from the replay log, got {replayed}"
    );
    assert!(rec.lines.last().is_some_and(|l| *l >= 1), "the death must land after commit 1");
}

/// The ring workload from the chaos smoke, swept across multi-fault chaos
/// plans under a tight bound: every recovered result must stay
/// bit-identical to the unbounded failure-free baseline (the tight-mailbox
/// column of `chaos_soak`, in miniature, inside tier-1).
#[test]
fn chaos_plans_under_tight_mailboxes_stay_bit_identical() {
    const NRANKS: usize = 3;
    const ITERS: u64 = 10;
    fn ring(ctx: &mut C3Ctx<'_>, iters: u64) -> Result<u64, C3Error> {
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
        Ok(acc)
    }

    fn chaos_cfg(store: &TempStore) -> C3Config {
        C3Config { policy: CkptPolicy::EveryNth(3), ..C3Config::passive(store.path()) }
    }
    let base_store = TempStore::new("bp-chaos-base");
    let baseline = Job::new(NRANKS, chaos_cfg(&base_store)).run(|ctx| ring(ctx, ITERS)).unwrap();

    let space = c3::ChaosSpace { nranks: NRANKS, max_pragma: ITERS, max_op: 80 };
    let mut fired = 0u32;
    for seed in 0..12u64 {
        let plan = ChaosPlan::from_seed(seed, &space);
        let store = TempStore::new("bp-chaos");
        let rec = Job::new(NRANKS, chaos_cfg(&store))
            .network(NetModel::reliable().seed(seed).mailbox_capacity(2 * NRANKS))
            .chaos(plan.clone())
            .run(|ctx| ring(ctx, ITERS))
            .unwrap_or_else(|e| panic!("seed {seed} plan {plan} under tight mailboxes: {e}"));
        fired += rec.restarts;
        assert_eq!(
            rec.handle.results, baseline.handle.results,
            "seed {seed} plan {plan} diverged under tight mailboxes"
        );
    }
    assert!(fired > 0, "12 seeds should fire at least one fault");
}
