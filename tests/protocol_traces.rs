//! Scripted protocol traces: deterministic scenarios that pin down the
//! message classifications of Figure 2, the attached-buffer state of
//! Figure 5, and multi-initiator checkpoint rounds (§4.5 "can be initiated
//! by any process").

mod util;

use c3::{C3Config, C3Ctx, C3Error, ChaosPlan, CkptPolicy, FailAt, FailurePlan};
use statesave::codec::{Decoder, Encoder};
use util::TempStore;

/// Figure 2 as a deterministic script on three processes P=0, Q=1, R=2.
///
/// * P checkpoints *before* sending to Q; Q receives while still in epoch 0
///   — wait, the figure's **late** message is the reverse: P sends in epoch
///   0 and Q receives after its own checkpoint. Both directions appear
///   below, sequenced by tags so the classification is forced:
///   - `late`: Q sends to P before Q's checkpoint; P receives after P's
///     checkpoint (P is in epoch 1, color says sender epoch 0 → Late).
///   - `early`: Q sends to R after Q's checkpoint; R receives before R's
///     checkpoint (R in epoch 0, sender epoch 1 → Early).
///   - `intra-epoch`: everything sent and received within one epoch.
///
/// The per-rank protocol statistics then pin the exact counts.
#[test]
fn figure2_classifications_are_exact() {
    let app = |ctx: &mut C3Ctx<'_>| -> Result<(u64, u64, u64), C3Error> {
        let me = ctx.rank();
        // Drive with explicit sequencing messages (tag 9) so the schedule is
        // deterministic regardless of thread timing.
        match me {
            0 => {
                // P: intra-epoch exchange with Q in epoch 0.
                ctx.send(1, 1, &[10u64])?;
                // Checkpoint now (P initiates; epoch 0 → 1).
                let took = ctx.pragma(|e| e.u64(0))?;
                assert!(took, "P must initiate here");
                // Tell Q it may send its pre-checkpoint (late) message.
                ctx.send(1, 9, &[1u64])?;
                // This receive happens in P's epoch 1; Q sent in epoch 0.
                let (v, _) = ctx.recv::<u64>(1, 2)?;
                assert_eq!(v[0], 20);
                // Let the round finish everywhere.
                ctx.barrier()?;
                ctx.pragma(|e| e.u64(1))?;
            }
            1 => {
                // Q: receive P's intra-epoch message (both in epoch 0).
                let (v, _) = ctx.recv::<u64>(0, 1)?;
                assert_eq!(v[0], 10);
                // Wait for P's go-ahead — P has already checkpointed, but Q
                // has not, so Q is still in epoch 0. The go-ahead itself
                // arrives as a LATE-class?? No: P sent it in epoch 1, Q is
                // in epoch 0 → that is an *early* message for Q.
                let (_, _) = ctx.recv::<u64>(0, 9)?;
                // Q's own late message to P: sent in epoch 0 (Q has not
                // checkpointed), received by P in epoch 1.
                ctx.send(0, 2, &[20u64])?;
                // Q sends to R before checkpointing: R is also epoch 0, so
                // this is intra-epoch at R.
                ctx.send(2, 3, &[30u64])?;
                // Now Q checkpoints (its pragma; CI from P already arrived,
                // and the pragma acts on it).
                ctx.pragma(|e| e.u64(0))?;
                // Q sends to R *after* its checkpoint; R still in epoch 0 →
                // early at R.
                ctx.send(2, 4, &[40u64])?;
                ctx.barrier()?;
                ctx.pragma(|e| e.u64(1))?;
            }
            2 => {
                // R: receive Q's pre-checkpoint message (intra-epoch).
                let (v, _) = ctx.recv::<u64>(1, 3)?;
                assert_eq!(v[0], 30);
                // Receive Q's post-checkpoint message while still epoch 0 →
                // early (recorded in R's Early-Message-Registry).
                let (v, _) = ctx.recv::<u64>(1, 4)?;
                assert_eq!(v[0], 40);
                // R checkpoints last.
                ctx.pragma(|e| e.u64(0))?;
                ctx.barrier()?;
                ctx.pragma(|e| e.u64(1))?;
            }
            _ => unreachable!(),
        }
        let s = ctx.stats();
        Ok((s.late_logged, s.early_recorded, ctx.epoch()))
    };

    // Rank 0 initiates at its 1st pragma.
    let store = TempStore::new("fig2");
    let mut cfg = C3Config::at_pragmas(store.path(), vec![1]);
    cfg.initiator = Some(0);
    let out = c3::Job::new(3, cfg).run(app).unwrap();

    let (p_late, p_early, p_epoch) = out.results[0];
    let (q_late, q_early, q_epoch) = out.results[1];
    let (r_late, r_early, r_epoch) = out.results[2];
    // P logged exactly one late message (Q's tag-2 send).
    assert_eq!(p_late, 1, "P late count");
    assert_eq!(p_early, 0, "P early count");
    // Q recorded exactly one early message (P's tag-9 go-ahead).
    assert_eq!(q_late, 0, "Q late count");
    assert_eq!(q_early, 1, "Q early count");
    // R recorded exactly one early message (Q's tag-4 send).
    assert_eq!(r_late, 0, "R late count");
    assert_eq!(r_early, 1, "R early count");
    // Everyone finished the round in epoch 1.
    assert_eq!((p_epoch, q_epoch, r_epoch), (1, 1, 1));
}

/// §4.5: "the protocol described here can be initiated by any process" —
/// every rank applies an EveryNth policy, producing several overlapping
/// initiation attempts per round; all rounds must commit, and recovery from
/// a late failure must still be exact.
#[test]
fn concurrent_initiators_commit_and_recover() {
    fn app(ctx: &mut C3Ctx<'_>) -> Result<u64, C3Error> {
        let (mut iter, mut acc) = match ctx.take_restored_state() {
            Some(b) => {
                let mut d = Decoder::new(&b);
                (d.u64()?, d.u64()?)
            }
            None => (0, 0),
        };
        let me = ctx.rank();
        let n = ctx.nranks();
        while iter < 20 {
            ctx.pragma(|e: &mut Encoder| {
                e.u64(iter);
                e.u64(acc);
            })?;
            ctx.send((me + 1) % n, 1, &[iter * 5 + me as u64])?;
            let (v, _) = ctx.recv::<u64>(((me + n - 1) % n) as i32, 1)?;
            acc = acc.wrapping_mul(31).wrapping_add(v[0]);
            iter += 1;
        }
        Ok(acc)
    }

    let base_store = TempStore::new("multi-base");
    let baseline = c3::Job::new(4, C3Config::passive(base_store.path())).run(app).unwrap();

    let store = TempStore::new("multi-fail");
    let cfg = C3Config {
        store_root: store.path().to_path_buf(),
        write_disk: true,
        policy: CkptPolicy::EveryNth(5),
        initiator: None, // every rank initiates
        ckpt_mode: c3::CkptMode::Full,
    };
    let sanity = c3::Job::new(4, cfg)
        .run(|ctx| {
            let r = app(ctx)?;
            Ok((r, ctx.commits()))
        })
        .unwrap();
    assert!(
        sanity.results.iter().all(|(_, c)| *c >= 2),
        "expected several committed rounds, got {:?}",
        sanity.results.iter().map(|(_, c)| *c).collect::<Vec<_>>()
    );
    assert_eq!(sanity.results.iter().map(|(r, _)| *r).collect::<Vec<_>>(), baseline.results);

    let store2 = TempStore::new("multi-fail2");
    let cfg2 = C3Config {
        store_root: store2.path().to_path_buf(),
        write_disk: true,
        policy: CkptPolicy::EveryNth(5),
        initiator: None,
        ckpt_mode: c3::CkptMode::Full,
    };
    let plan = FailurePlan { rank: 3, when: FailAt::AfterCommits { commits: 2, pragma: 14 } };
    let rec = c3::Job::new(4, cfg2).failure(plan).run(app).unwrap();
    assert!(rec.restarts >= 1);
    assert_eq!(rec.handle.results, baseline.results);
}

/// Failure *during recovery*: after a first death and restart, a second
/// rank dies mid-replay — at the very instant it is consuming a logged late
/// message — while its peers are themselves still working through their
/// `Restore` phase. The job must take a third incarnation and still
/// converge to the failure-free result.
///
/// The trace is sequenced so a late message deterministically exists in the
/// replay log (same device as `figure2_classifications_are_exact`): Q's ACK
/// orders Q's last pre-line pragma strictly before P's checkpoint, and P's
/// GO orders Q's DATA send strictly after it, so DATA always crosses P's
/// recovery line forward (Late) and is logged and replayed.
#[test]
fn second_failure_during_replay_converges() {
    const ITERS: u64 = 8;

    /// Spin (boundedly) until every rank's *local* commit count reached 1,
    /// via an allreduce-min: all ranks observe the same folded value each
    /// round, so they exit after the same number of collective calls. This
    /// pins "the line is committed on every node" *before* the first death,
    /// making the recovery source — and hence the replay-log contents the
    /// second fault depends on — deterministic. Under a passive config the
    /// min stays 0 and the loop just runs its bound.
    fn commit_barrier(ctx: &mut C3Ctx<'_>) -> Result<(), C3Error> {
        for _ in 0..200 {
            if ctx.allreduce_u64(ctx.commits(), &mpisim::ReduceOp::Min)? >= 1 {
                break;
            }
        }
        Ok(())
    }

    fn app(ctx: &mut C3Ctx<'_>) -> Result<u64, C3Error> {
        let (mut iter, mut acc, mut ack_done) = match ctx.take_restored_state() {
            Some(b) => {
                let mut d = Decoder::new(&b);
                (d.u64()?, d.u64()?, d.bool()?)
            }
            None => (0, 0, false),
        };
        while iter < ITERS {
            if iter == 4 {
                commit_barrier(ctx)?;
            }
            match ctx.rank() {
                0 => {
                    // P: the ACK is consumed *before* the pragma, so the
                    // saved flag tells a resumed run to skip re-receiving it.
                    if !ack_done {
                        let _ = ctx.recv::<u64>(1, 7)?;
                    }
                    ctx.pragma(|e: &mut Encoder| {
                        e.u64(iter);
                        e.u64(acc);
                        e.bool(true);
                    })?;
                    ctx.send(1, 9, &[iter])?; // GO (early at Q on the ckpt round)
                    ctx.send(2, 8, &[iter])?; // TOKEN
                    let (v, _) = ctx.recv::<u64>(1, 2)?; // DATA (late on the ckpt round)
                    acc = acc.wrapping_mul(31).wrapping_add(v[0]);
                }
                1 => {
                    // Q: pragma first, then ACK → P's checkpoint (and its
                    // CI) cannot exist before Q's pre-line pragma ran.
                    ctx.pragma(|e: &mut Encoder| {
                        e.u64(iter);
                        e.u64(acc);
                        e.bool(false);
                    })?;
                    ctx.send(0, 7, &[iter])?; // ACK
                    let (g, _) = ctx.recv::<u64>(0, 9)?; // GO
                    ctx.send(0, 2, &[g[0] * 100 + iter])?; // DATA
                }
                2 => {
                    // R: bystander kept in lockstep by P's token.
                    ctx.pragma(|e: &mut Encoder| {
                        e.u64(iter);
                        e.u64(acc);
                        e.bool(false);
                    })?;
                    let (t, _) = ctx.recv::<u64>(0, 8)?; // TOKEN
                    acc = acc.wrapping_add(t[0]);
                }
                _ => unreachable!(),
            }
            ack_done = false;
            iter += 1;
        }
        Ok(acc)
    }

    let base_store = TempStore::new("replay-death-base");
    let baseline = c3::Job::new(3, C3Config::passive(base_store.path())).run(app).unwrap();

    let store = TempStore::new("replay-death");
    // P initiates at its 3rd pragma (top of iteration 2).
    let cfg = C3Config::at_pragmas(store.path(), vec![3]);
    let plan = ChaosPlan::new(vec![
        // Incarnation 0: R dies after the iteration-4 commit barrier,
        // i.e. once the line has committed on *every* node.
        FailurePlan { rank: 2, when: FailAt::AfterCommits { commits: 1, pragma: 7 } },
        // Incarnation 1: P dies at its first receive served from the
        // replay log — mid-recovery, with its peers still in Restore.
        FailurePlan { rank: 0, when: FailAt::DuringRestore { nth_replay: 1 } },
    ]);
    let rec = c3::Job::new(3, cfg).chaos(plan).run(app).unwrap();
    assert_eq!(rec.restarts, 2, "both faults must fire");
    assert_eq!(rec.faults_fired, 2);
    // Forward progress: the committed line never regressed across restarts,
    // and the first death happened only after line 1 was committed globally.
    assert!(rec.lines[0] >= 1, "lines: {:?}", rec.lines);
    assert!(rec.lines[1] >= rec.lines[0], "lines: {:?}", rec.lines);
    assert_eq!(
        rec.handle.results, baseline.results,
        "triple-incarnation run diverged from the failure-free baseline"
    );
}

/// §4.1 under recovery, on a task farm: the master posts one `irecv` per
/// busy worker, takes the first completion with `wait_any`, a batch with
/// `wait_some`, and the stragglers with a bounded `test` spin before
/// `wait`. Which index completes first is timing-dependent; everything the
/// application computes is not (each round collects every busy worker and
/// refills in worker order), so every recovery must reproduce the
/// failure-free result bit for bit.
mod farm {
    use super::TempStore;
    use c3::requests::C3Req;
    use c3::{C3Config, C3Ctx, C3Error, ChaosPlan, FailAt, FailurePlan, Mode, RecoveredJob};
    use mpisim::SchedMode;
    use statesave::codec::{Decoder, Encoder};

    pub const WORKERS: usize = 3;
    const TASKS: u64 = 30;

    /// Per rank: the checksum, and the per-incarnation indices of the
    /// pragmas it entered in NonDet-Log (where a `Pragma` fault fires).
    pub type Out = (u64, Vec<u64>);

    fn crunch(task: u64) -> u64 {
        let mut x = task.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for _ in 0..200 + (task % 5) * 150 {
            x ^= x >> 33;
            x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        }
        x
    }

    fn pragma(
        ctx: &mut C3Ctx<'_>,
        count: &mut u64,
        nondet: &mut Vec<u64>,
        save: impl FnOnce(&mut Encoder),
    ) -> Result<(), C3Error> {
        *count += 1;
        if ctx.mode() == Mode::NonDetLog {
            nondet.push(*count);
        }
        ctx.pragma(save).map(|_| ())
    }

    /// Every worker holds up to two assigned tasks (one buffered), so a
    /// worker finishing a task reaches its next pragma without parking —
    /// before its peers have seen the initiator's CI.
    fn master(ctx: &mut C3Ctx<'_>) -> Result<Out, C3Error> {
        let (mut next, mut acc, mut owed, mut stopped) = match ctx.take_restored_state() {
            Some(b) => {
                let mut d = Decoder::new(&b);
                (d.u64()?, d.u64()?, d.u64_vec()?, d.u64_vec()?)
            }
            None => {
                let mut next = 0;
                for _ in 0..2 {
                    for w in 1..=WORKERS {
                        ctx.send(w, 1, &[next])?;
                        next += 1;
                    }
                }
                (next, 0, vec![2; WORKERS], vec![0; WORKERS])
            }
        };
        let (mut pragmas, mut nondet) = (0, Vec::new());
        while owed.iter().any(|o| *o > 0) {
            pragma(ctx, &mut pragmas, &mut nondet, |e| {
                e.u64(next);
                e.u64(acc);
                e.u64_slice(&owed);
                e.u64_slice(&stopped);
            })?;
            let busy: Vec<usize> = (1..=WORKERS).filter(|w| owed[w - 1] > 0).collect();
            let reqs: Vec<C3Req> =
                busy.iter().map(|w| ctx.irecv(*w as i32, 2)).collect::<Result<_, _>>()?;
            let (first, _, data) = ctx.wait_any(&reqs)?;
            let mut got = vec![data];
            let mut rest: Vec<C3Req> =
                reqs.iter().enumerate().filter(|(i, _)| *i != first).map(|(_, r)| *r).collect();
            if !rest.is_empty() {
                let some = ctx.wait_some(&rest)?;
                let done: Vec<usize> = some.iter().map(|(i, _, _)| *i).collect();
                got.extend(some.into_iter().map(|(_, _, d)| d));
                rest = rest
                    .into_iter()
                    .enumerate()
                    .filter(|(i, _)| !done.contains(i))
                    .map(|(_, r)| r)
                    .collect();
            }
            for r in rest {
                let mut hit = None;
                for _ in 0..3 {
                    if let Some((_, d)) = ctx.test(r)? {
                        hit = Some(d);
                        break;
                    }
                }
                got.push(match hit {
                    Some(d) => d,
                    None => ctx.wait(r)?.1,
                });
            }
            // [worker, task, result] per completion, folded and refilled in
            // worker order, so the schedule never reaches the result.
            let mut rows: Vec<Vec<u64>> = got.iter().map(|d| mpisim::vec_from_bytes(d)).collect();
            rows.sort_unstable();
            for row in rows {
                let (w, task, result) = (row[0] as usize, row[1], row[2]);
                assert_eq!(result, crunch(task), "worker {w} returned a wrong result");
                acc = acc.wrapping_mul(0x100_0000_01b3).wrapping_add(task ^ result);
                owed[w - 1] -= 1;
                if next < TASKS {
                    ctx.send(w, 1, &[next])?;
                    owed[w - 1] += 1;
                    next += 1;
                } else if stopped[w - 1] == 0 {
                    ctx.send(w, 1, &[u64::MAX])?;
                    stopped[w - 1] = 1;
                }
            }
        }
        Ok((acc, nondet))
    }

    fn worker(ctx: &mut C3Ctx<'_>) -> Result<Out, C3Error> {
        let mut tally = match ctx.take_restored_state() {
            Some(b) => Decoder::new(&b).u64()?,
            None => 0,
        };
        let (mut pragmas, mut nondet) = (0, Vec::new());
        loop {
            pragma(ctx, &mut pragmas, &mut nondet, |e| e.u64(tally))?;
            let (t, _) = ctx.recv::<u64>(0, 1)?;
            if t[0] == u64::MAX {
                return Ok((tally, nondet));
            }
            tally = tally.wrapping_mul(31).wrapping_add(t[0] + 1);
            ctx.send(0, 2, &[ctx.rank() as u64, t[0], crunch(t[0])])?;
        }
    }

    pub fn app(ctx: &mut C3Ctx<'_>) -> Result<Out, C3Error> {
        if ctx.rank() == 0 {
            master(ctx)
        } else {
            worker(ctx)
        }
    }

    pub fn checksums(results: &[Out]) -> Vec<u64> {
        results.iter().map(|(c, _)| *c).collect()
    }

    pub const SERIAL: SchedMode = SchedMode::EventDriven { workers: 1 };

    /// The master initiates at its 2nd and 5th pragmas.
    fn cfg(store: &TempStore) -> C3Config {
        C3Config::at_pragmas(store.path(), vec![2, 5])
    }

    /// Run every plan of the sweep on `sched` and check each recovery
    /// against the failure-free run: a pragma the serial reference run
    /// spends inside NonDet-Log, substrate op counts on the master and on
    /// a worker (each after a line has committed), and a death at the first
    /// receive replayed after a restart. Returns each plan's recovery.
    pub fn sweep(sched: SchedMode) -> Vec<(ChaosPlan, RecoveredJob<Out>)> {
        let n = WORKERS + 1;
        let base_store = TempStore::new("farm-base");
        let baseline = c3::Job::new(n, C3Config::passive(base_store.path())).run(app).unwrap();
        let baseline = checksums(&baseline.results);

        let ref_store = TempStore::new("farm-ref");
        let reference = c3::Job::new(n, cfg(&ref_store)).sched(SERIAL).run(app).unwrap();
        assert_eq!(checksums(&reference.results), baseline, "checkpointing changed the result");
        let (rank, nondet_pragma) = reference
            .results
            .iter()
            .enumerate()
            .filter_map(|(r, (_, p))| p.last().map(|p| (r, *p)))
            .max_by_key(|(_, p)| *p)
            .expect("the serial reference run never reaches a pragma inside NonDet-Log");

        let plans = [
            ChaosPlan::single(FailurePlan { rank, when: FailAt::Pragma(nondet_pragma) }),
            ChaosPlan::single(FailurePlan { rank: 0, when: FailAt::Op(60) }),
            ChaosPlan::single(FailurePlan { rank: 0, when: FailAt::Op(80) }),
            ChaosPlan::single(FailurePlan { rank: 2, when: FailAt::Op(22) }),
            ChaosPlan::new(vec![
                FailurePlan { rank: 1, when: FailAt::AfterCommits { commits: 1, pragma: 8 } },
                FailurePlan { rank: 0, when: FailAt::DuringRestore { nth_replay: 1 } },
            ]),
        ];
        plans
            .into_iter()
            .map(|plan| {
                let store = TempStore::new("farm-chaos");
                let rec = c3::Job::new(n, cfg(&store)).sched(sched).chaos(plan.clone()).run(app);
                let rec = rec.unwrap_or_else(|e| panic!("{plan:?} on {sched:?}: {e}"));
                assert_eq!(
                    checksums(&rec.handle.results),
                    baseline,
                    "{plan:?} on {sched:?} diverged from the failure-free run"
                );
                (plan, rec)
            })
            .collect()
    }
}

/// The task farm's fault sweep on the fully concurrent schedule.
#[test]
fn task_farm_nonblocking_completions_recover_bit_identically() {
    let workers = farm::WORKERS + 1;
    farm::sweep(mpisim::SchedMode::EventDriven { workers });
}

/// The same sweep on the serial schedule, where every instant is
/// deterministic: each fault fires and recovery starts from a committed
/// line, so the restored master replays `wait_any`/`wait_some`/`test`
/// completions against its replay log. Two ways this once went wrong: a
/// `test` beyond the logged period posted its receive live while the
/// request's late data still sat in the log, so the later `wait` served the
/// log and left the posted receive to swallow an uncounted message (the
/// next commit then waited forever for it); and a receive posted during
/// `Restore` — posted lazily — reached a normal-mode `wait_any` after
/// recovery ended with no substrate request behind it.
#[test]
fn task_farm_recovers_from_committed_lines_on_the_serial_schedule() {
    for (plan, rec) in farm::sweep(farm::SERIAL) {
        assert_eq!(rec.faults_fired as usize, plan.len(), "{plan:?}: a fault never fired");
        assert!(rec.lines[0] >= 1, "{plan:?}: restarted without a committed line: {:?}", rec.lines);
    }
}
