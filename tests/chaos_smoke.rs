//! Bounded deterministic chaos sweep — the tier-1 slice of the soak
//! harness (`chaos_soak` in `c3-bench` runs the full 200-seed × 10-kernel
//! × 3-network version). Every PR fuzzes the protocol with the same seeds:
//! each seed derives an ordered multi-fault [`ChaosPlan`] (pragma /
//! op-clock / mid-commit / mid-replay deaths across successive
//! incarnations, plus seed-derived network drop/duplication/reorder
//! faults), runs on the reliable in-order fabric, on a randomly reordering
//! one with nonzero drop/duplication rates, and on a tight bounded-mailbox
//! fabric where senders park under backpressure — and the recovered
//! result must be bit-identical to the failure-free run.

mod util;

use c3::{C3Config, C3Ctx, C3Error, ChaosPlan, ChaosSpace, CkptPolicy, Job};
use mpisim::{JobSpec, NetModel};
use statesave::codec::{Decoder, Encoder};
use util::TempStore;

/// The ring workload: deterministic, wildcard-free, with a pragma per
/// iteration — small enough that 32 seeds stay well under the tier-1 time
/// budget even in debug builds.
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

#[test]
fn chaos_sweep_ring_32_seeds_times_3_networks() {
    const NRANKS: usize = 3;
    const ITERS: u64 = 12;

    let base_store = TempStore::new("chaos-ring-base");
    let baseline =
        Job::new(NRANKS, C3Config::passive(base_store.path())).run(|ctx| ring(ctx, ITERS)).unwrap();

    let space = ChaosSpace { nranks: NRANKS, max_pragma: ITERS, max_op: 80 };
    let mut fired_total = 0u32;
    let mut max_restarts = 0u32;
    let mut net_faulted = 0u32;
    // The chaos seeds × network models cross-product, in miniature: each
    // seed runs on the reliable in-order fabric and on a reordering fabric
    // with nonzero drop/duplication rates.
    let networks = |seed: u64| {
        [
            NetModel::reliable().seed(seed),
            NetModel::reorder(seed).drop_rate(15).duplicate_rate(10),
            // Bounded mailboxes at the 2·nranks floor: senders park under
            // backpressure whenever a burst outruns the receiver.
            NetModel::reliable().seed(seed).mailbox_capacity(2 * NRANKS),
        ]
    };
    for seed in 0..32u64 {
        let plan = ChaosPlan::from_seed(seed, &space);
        if plan.net.is_some() {
            net_faulted += 1;
        }
        for net in networks(seed) {
            let store = TempStore::new("chaos-ring");
            let cfg = C3Config {
                policy: CkptPolicy::EveryNth(3), // on every rank: more interleavings
                ..C3Config::passive(store.path())
            };
            let rec = Job::new(NRANKS, cfg)
                .network(net)
                .chaos(plan.clone())
                .run(|ctx| ring(ctx, ITERS))
                .unwrap_or_else(|e| panic!("seed {seed} plan {plan} failed: {e}"));
            assert_eq!(
                rec.handle.results, baseline.results,
                "seed {seed} plan {plan} diverged after {} restarts",
                rec.restarts
            );
            assert!(
                rec.restarts as usize <= plan.len(),
                "seed {seed}: more faults fired than planned"
            );
            fired_total += rec.restarts;
            max_restarts = max_restarts.max(rec.restarts);
        }
    }
    // The sweep must actually exercise recovery, not just run clean jobs.
    assert!(fired_total >= 48, "only {fired_total} faults fired across 96 runs");
    assert!(max_restarts >= 2, "no seed produced a multi-failure recovery");
    assert!(net_faulted >= 8, "seed derivation produced too few network-fault plans");
}

/// A smaller sweep over a real kernel (CG: allreduce + halo p2p) against
/// the raw-substrate baseline, mirroring `recovery_kernels` but with
/// seed-derived multi-fault plans.
#[test]
fn chaos_sweep_cg_8_seeds() {
    let spec = JobSpec::new(3);
    let cfg = npb::cg::CgConfig { n: 48, iters: 6 };
    let baseline = mpisim::launch(&spec, move |ctx| npb::cg::run(ctx, &cfg)).unwrap();

    let space = ChaosSpace { nranks: 3, max_pragma: 6, max_op: 150 };
    for seed in 0..8u64 {
        let plan = ChaosPlan::from_seed(seed, &space);
        let store = TempStore::new("chaos-cg");
        let c3cfg = C3Config::at_pragmas(store.path(), vec![2, 4]);
        let rec = Job::from_spec(&spec, c3cfg)
            .chaos(plan.clone())
            .run(move |ctx| npb::cg::run(ctx, &cfg).map_err(C3Error::Mpi))
            .unwrap_or_else(|e| panic!("seed {seed} plan {plan} failed: {e}"));
        assert_eq!(
            rec.handle.results, baseline.results,
            "seed {seed} plan {plan} diverged after {} restarts",
            rec.restarts
        );
    }
}
