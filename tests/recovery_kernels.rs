//! The reproduction's central invariant (`docs/ARCHITECTURE.md` §5): for
//! every benchmark kernel, a run that checkpoints, suffers a fail-stop
//! failure, and recovers from the last committed recovery line produces
//! **exactly the same result** as a failure-free run on the raw substrate
//! (no C³ layer at all).
//!
//! Every kernel exercises a different slice of the protocol: CG (allreduce +
//! halo p2p), LU/SP/BT (pipelined wavefronts), MG (barriers + gather/bcast),
//! FT (alltoall), IS (alltoall + allreduce-vec), EP (pure reductions),
//! SMG (multi-location pragmas incl. inside the preconditioner), HPL
//! (bcast-dominated with a pragma per elimination step).

mod util;

use c3::{C3Config, C3Error, FailAt, FailurePlan};
use mpisim::{JobSpec, NetModel};
use util::TempStore;

macro_rules! check {
    ($name:ident, $nranks:expr, $fail_rank:expr, $ckpt_pragma:expr, $fail_pragma:expr,
     $module:ident, $cfg:expr) => {
        #[test]
        fn $name() {
            let spec = JobSpec::new($nranks);
            let cfg = $cfg;
            let baseline = mpisim::launch(&spec, move |ctx| npb::$module::run(ctx, &cfg))
                .unwrap_or_else(|e| panic!("{} baseline failed: {e}", stringify!($name)));

            let store = TempStore::new(stringify!($name));
            let c3cfg = C3Config::at_pragmas(store.path(), vec![$ckpt_pragma]);
            let plan = FailurePlan {
                rank: $fail_rank,
                when: FailAt::AfterCommits { commits: 1, pragma: $fail_pragma },
            };
            let rec = c3::Job::from_spec(&spec, c3cfg)
                .failure(plan)
                .run(move |ctx| npb::$module::run(ctx, &cfg).map_err(C3Error::Mpi))
                .unwrap_or_else(|e| panic!("{} failed to recover: {e}", stringify!($name)));
            assert!(rec.restarts >= 1, "{}: failure never fired", stringify!($name));
            assert_eq!(
                rec.handle.results,
                baseline.results,
                "{}: recovered result differs from failure-free baseline",
                stringify!($name)
            );
        }
    };
}

check!(cg_recovers, 4, 2, 3, 5, cg, npb::cg::CgConfig { n: 96, iters: 8 });
check!(lu_recovers, 4, 1, 3, 5, lu, npb::lu::LuConfig { n: 64, isteps: 6, omega: 1.2 });
check!(sp_recovers, 4, 3, 3, 5, sp, npb::sp::SpConfig { n: 32, steps: 8, lambda: 0.4 });
check!(
    bt_recovers,
    3,
    1,
    3,
    5,
    bt,
    npb::bt::BtConfig { n: 21, steps: 6, lambda: 0.35, kappa: 0.1 }
);
check!(mg_recovers, 4, 2, 3, 5, mg, npb::mg::MgConfig { log2_n: 8, cycles: 6, smooth: 2 });
check!(ft_recovers, 4, 1, 3, 5, ft, npb::ft::FtConfig { n: 32, steps: 6, alpha: 1e-4 });
check!(
    is_recovers,
    4,
    3,
    3,
    5,
    is,
    npb::is::IsConfig { total_keys: 2048, max_key: 4096, iters: 6 }
);

check!(smg_recovers, 4, 1, 4, 9, smg, npb::smg::SmgConfig { log2_n: 8, iters: 6, smooth: 2 });
check!(hpl_recovers, 4, 3, 10, 20, hpl, npb::hpl::HplConfig { n: 40 });

// SMG runs 35 pragmas at this size: three in setup, five per PCG iteration
// (loop top plus one per V-cycle level), then #6 and #7 after the solve.
// The line is taken at #6 and the rank dies at #7, so the restored state
// resumes after the solve. One rank commits at once (no peer CIs to wait
// for); on more ranks nothing after #6 drives the commit before #7.
check!(
    smg_recovers_from_a_post_solve_checkpoint,
    1,
    0,
    34,
    35,
    smg,
    npb::smg::SmgConfig { log2_n: 8, iters: 6, smooth: 2 }
);

/// EP has no communication inside its block loop, so at several ranks the
/// timing of checkpoint coordination relative to the (very fast) loop is
/// scheduler-dependent. The paper itself only evaluates EP sequentially
/// (Table 1's uniprocessor checkpoint sizes), so the recovery test runs on
/// one rank, where initiation → commit → failure is fully deterministic.
#[test]
fn ep_recovers() {
    let spec = JobSpec::new(1);
    let cfg = npb::ep::EpConfig { m_per_block: 10, blocks: 12 };
    let baseline = mpisim::launch(&spec, move |ctx| npb::ep::run(ctx, &cfg)).unwrap();

    let store = TempStore::new("ep");
    let c3cfg = C3Config::at_pragmas(store.path(), vec![3]);
    let plan = FailurePlan { rank: 0, when: FailAt::AfterCommits { commits: 1, pragma: 7 } };
    let rec = c3::Job::from_spec(&spec, c3cfg)
        .failure(plan)
        .run(move |ctx| npb::ep::run(ctx, &cfg).map_err(C3Error::Mpi))
        .unwrap();
    assert!(rec.restarts >= 1, "ep: failure never fired");
    assert_eq!(rec.handle.results, baseline.results);
}

/// CG under an adversarial reordering network still recovers exactly.
#[test]
fn cg_recovers_under_reordering() {
    let spec = JobSpec::new(4).net(NetModel::reorder(20040613));
    let cfg = npb::cg::CgConfig { n: 96, iters: 8 };
    let baseline = mpisim::launch(&spec, move |ctx| npb::cg::run(ctx, &cfg)).unwrap();

    let store = TempStore::new("cg-reorder");
    let c3cfg = C3Config::at_pragmas(store.path(), vec![3]);
    let plan = FailurePlan { rank: 1, when: FailAt::AfterCommits { commits: 1, pragma: 5 } };
    let rec = c3::Job::from_spec(&spec, c3cfg)
        .failure(plan)
        .run(move |ctx| npb::cg::run(ctx, &cfg).map_err(C3Error::Mpi))
        .unwrap();
    assert!(rec.restarts >= 1);
    assert_eq!(rec.handle.results, baseline.results);
}

/// FT's alltoall traffic under reordering recovers exactly.
#[test]
fn ft_recovers_under_reordering() {
    let spec = JobSpec::new(4).net(NetModel::reorder(77));
    let cfg = npb::ft::FtConfig { n: 32, steps: 6, alpha: 1e-4 };
    let baseline = mpisim::launch(&spec, move |ctx| npb::ft::run(ctx, &cfg)).unwrap();

    let store = TempStore::new("ft-reorder");
    let c3cfg = C3Config::at_pragmas(store.path(), vec![3]);
    let plan = FailurePlan { rank: 2, when: FailAt::AfterCommits { commits: 1, pragma: 5 } };
    let rec = c3::Job::from_spec(&spec, c3cfg)
        .failure(plan)
        .run(move |ctx| npb::ft::run(ctx, &cfg).map_err(C3Error::Mpi))
        .unwrap();
    assert!(rec.restarts >= 1);
    assert_eq!(rec.handle.results, baseline.results);
}

/// Two checkpoint rounds; the failure lands after the second commit, so
/// recovery must come from the *latest* line, not the first.
#[test]
fn cg_recovers_from_second_line() {
    let spec = JobSpec::new(4);
    let cfg = npb::cg::CgConfig { n: 96, iters: 10 };
    let baseline = mpisim::launch(&spec, move |ctx| npb::cg::run(ctx, &cfg)).unwrap();

    let store = TempStore::new("cg-two");
    let c3cfg = C3Config::at_pragmas(store.path(), vec![3, 6]);
    let plan = FailurePlan { rank: 2, when: FailAt::AfterCommits { commits: 2, pragma: 8 } };
    let rec = c3::Job::from_spec(&spec, c3cfg)
        .failure(plan)
        .run(move |ctx| npb::cg::run(ctx, &cfg).map_err(C3Error::Mpi))
        .unwrap();
    assert!(rec.restarts >= 1);
    assert_eq!(rec.handle.results, baseline.results);
}

/// A failure *before any commit* restarts the job from scratch and still
/// matches the baseline.
#[test]
fn failure_before_any_commit_restarts_from_scratch() {
    let spec = JobSpec::new(3);
    let cfg = npb::sp::SpConfig { n: 32, steps: 6, lambda: 0.4 };
    let baseline = mpisim::launch(&spec, move |ctx| npb::sp::run(ctx, &cfg)).unwrap();

    // Checkpoints never initiate; the failure fires at pragma 2.
    let store = TempStore::new("sp-scratch");
    let c3cfg = C3Config::passive(store.path());
    let plan = FailurePlan { rank: 1, when: FailAt::Pragma(2) };
    let rec = c3::Job::from_spec(&spec, c3cfg)
        .failure(plan)
        .run(move |ctx| npb::sp::run(ctx, &cfg).map_err(C3Error::Mpi))
        .unwrap();
    assert_eq!(rec.restarts, 1);
    assert_eq!(rec.handle.results, baseline.results);
}
