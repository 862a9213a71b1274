//! Incremental (base-plus-delta) checkpointing on the live commit path.
//!
//! The paper lists incremental checkpointing as ongoing work (§5); the
//! reproduction wires it through `CkptMode::Incremental`. The invariant
//! under test everywhere here: **recovery through a delta chain is
//! bit-for-bit equivalent to recovery from full checkpoints** — same
//! results, same lines — while writing fewer bytes for slowly-mutating
//! state.

mod util;

use c3::{C3Config, C3Ctx, C3Error, CkptMode, CkptPolicy, FailAt, FailurePlan, Job};
use mpisim::{JobSpec, SchedMode};
use proptest::prelude::*;
use statesave::codec::{Decoder, Encoder};
use statesave::{CkptStore, DirtyTracker, IncrementalSaver};
use std::collections::BTreeMap;
use util::TempStore;

fn incr_cfg(store: &TempStore, nth: u64, every_n: u32) -> C3Config {
    C3Config {
        policy: CkptPolicy::EveryNth(nth),
        initiator: Some(0),
        ckpt_mode: CkptMode::Incremental { every_n },
        ..C3Config::passive(store.path())
    }
}

fn full_cfg(store: &TempStore, nth: u64) -> C3Config {
    C3Config {
        policy: CkptPolicy::EveryNth(nth),
        initiator: Some(0),
        ..C3Config::passive(store.path())
    }
}

// ====================================================================
// Property: chain restore == full state, across seeds and every_n
// ====================================================================

/// Deterministic state evolution for the property test: `sections` is
/// mutated in place with seed-derived point writes, resizes, and stretches
/// of unchanged bytes (the slowly-mutating-grid shape deltas exploit).
fn evolve(sections: &mut [(String, Vec<u8>)], seed: &mut u64) {
    let mut next = || {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed
    };
    for (_, bytes) in sections.iter_mut() {
        match next() % 4 {
            0 => {} // untouched this step: the incremental win
            1 => {
                // Point update: dirty one spot, leave the rest alone.
                if !bytes.is_empty() {
                    let i = (next() as usize) % bytes.len();
                    bytes[i] = bytes[i].wrapping_add(1);
                }
            }
            2 => {
                // Grow (append seed bytes).
                let extra = (next() % 64) as usize;
                for _ in 0..extra {
                    bytes.push((next() & 0xff) as u8);
                }
            }
            _ => {
                // Shrink.
                let keep = if bytes.is_empty() { 0 } else { (next() as usize) % bytes.len() };
                bytes.truncate(keep);
            }
        }
    }
}

proptest! {
    /// For every seed and `every_n ∈ {1,2,4,8}`: drive the protocol's
    /// base/delta cadence over an evolving set of sections; at every
    /// checkpoint, reconstructing the chain from the last base yields
    /// exactly the sections a full checkpoint would have written.
    #[test]
    fn chain_restore_equals_full_restore(seed in 1u64..u64::MAX, steps in 4usize..12) {
        for every_n in [1u32, 2, 4, 8] {
            let mut s = seed;
            let mut sections: Vec<(String, Vec<u8>)> = vec![
                ("app".into(), vec![0u8; 600]),
                ("mpi".into(), vec![1u8; 90]),
                ("tables".into(), vec![2u8; 40]),
                ("early".into(), Vec::new()),
            ];
            let mut tracker = DirtyTracker::with_chunk_size(64);
            let mut chain = Vec::new();
            for step in 0..steps {
                evolve(&mut sections, &mut s);
                // The commit path's cadence: base every `every_n` commits.
                if step % every_n as usize == 0 {
                    tracker.reset();
                    chain.clear();
                }
                let borrowed: Vec<(&str, &[u8])> =
                    sections.iter().map(|(n, b)| (n.as_str(), b.as_slice())).collect();
                chain.push(tracker.checkpoint(&borrowed));
                let chunks = IncrementalSaver::reconstruct(&chain).unwrap();
                let restored = DirtyTracker::assemble(&chunks).unwrap();
                let want: BTreeMap<String, Vec<u8>> = sections.iter().cloned().collect();
                prop_assert_eq!(&restored, &want,
                    "every_n={} step={}: chain restore diverged", every_n, step);
            }
        }
    }
}

// ====================================================================
// End-to-end: kernels recover identically in every mode
// ====================================================================

/// MG under a mid-run failure: incremental recovery reproduces the
/// failure-free raw-substrate result bit-for-bit, for every chain length
/// in the `every_n` set.
#[test]
fn mg_incremental_recovery_matches_full() {
    let spec = JobSpec::new(4);
    let cfg = npb::mg::MgConfig { log2_n: 8, cycles: 6, smooth: 2 };
    let baseline = mpisim::launch(&spec, move |ctx| npb::mg::run(ctx, &cfg)).unwrap();

    for (tag, every_n) in [("e1", 1u32), ("e2", 2), ("e4", 4)] {
        let store = TempStore::new(&format!("mg-incr-{tag}"));
        let plan = FailurePlan { rank: 2, when: FailAt::AfterCommits { commits: 1, pragma: 5 } };
        let rec = Job::from_spec(&spec, incr_cfg(&store, 3, every_n))
            .failure(plan)
            .run(move |ctx| npb::mg::run(ctx, &cfg).map_err(C3Error::Mpi))
            .unwrap_or_else(|e| panic!("mg incr {tag} failed to recover: {e}"));
        assert!(rec.restarts >= 1, "mg incr {tag}: failure never fired");
        assert_eq!(
            rec.handle.results, baseline.results,
            "mg incr {tag}: recovered result differs from failure-free baseline"
        );
    }
}

/// CG (allreduce + halo traffic) through a delta chain.
#[test]
fn cg_incremental_recovery_matches_full() {
    let spec = JobSpec::new(4);
    let cfg = npb::cg::CgConfig { n: 96, iters: 8 };
    let baseline = mpisim::launch(&spec, move |ctx| npb::cg::run(ctx, &cfg)).unwrap();

    let store = TempStore::new("cg-incr");
    let plan = FailurePlan { rank: 1, when: FailAt::AfterCommits { commits: 1, pragma: 5 } };
    let rec = Job::from_spec(&spec, incr_cfg(&store, 3, 4))
        .failure(plan)
        .run(move |ctx| npb::cg::run(ctx, &cfg).map_err(C3Error::Mpi))
        .unwrap();
    assert!(rec.restarts >= 1);
    assert_eq!(rec.handle.results, baseline.results);
}

// ====================================================================
// Torn chains and mode switches
// ====================================================================

/// Death in the torn-commit window *inside a delta chain* (late log on
/// disk, no commit record): the uncommitted delta must be discarded and
/// recovery must come from the last complete chain prefix, then the job
/// still converges to the failure-free result.
#[test]
fn torn_delta_chain_falls_back_to_last_complete_prefix() {
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
        while iter < 16 {
            ctx.pragma(|e: &mut Encoder| {
                e.u64(iter);
                e.u64(acc);
            })?;
            ctx.send((me + 1) % n, 1, &[iter * 7 + me as u64])?;
            let (v, _) = ctx.recv::<u64>(((me + n - 1) % n) as i32, 1)?;
            acc = acc.wrapping_mul(31).wrapping_add(v[0]);
            iter += 1;
        }
        Ok(acc)
    }

    let base_store = TempStore::new("torn-base");
    let baseline = Job::new(3, C3Config::passive(base_store.path())).run(app).unwrap();

    // every_n = 4, a commit per pragma: v1 is a base, v2.. are deltas. The
    // first fault kills rank 1 after two commits (line 2, mid-chain); the
    // second incarnation arms `DuringCommit`, so rank 1 dies with delta v3's
    // late log written but no commit record — a torn chain tail.
    let store = TempStore::new("torn-chain");
    let plan = c3::ChaosPlan {
        faults: vec![
            FailurePlan { rank: 1, when: FailAt::AfterCommits { commits: 2, pragma: 3 } },
            FailurePlan { rank: 1, when: FailAt::DuringCommit },
        ],
        net: None,
    };
    let rec = Job::new(3, incr_cfg(&store, 1, 4)).chaos(plan).run(app).unwrap();
    assert_eq!(rec.restarts, 2, "both faults must fire");
    assert_eq!(rec.handle.results, baseline.results);
    // Both restarts recovered from a committed line inside the delta chain
    // (never back to scratch), and the torn tail never became the line.
    assert!(rec.lines[0] >= 1, "first restart must restore a committed line");
    assert!(rec.lines[1] >= rec.lines[0], "line regressed across the torn commit");
}

/// A restart that finds no line committed on every rank starts from
/// scratch, and must still discard the versions the dead incarnation left
/// behind: a commit record surviving from it would vouch for that version
/// once the new incarnation rewrites part of it, so a later restart could
/// restore a line mixing two incarnations (seen as HPL chaos plans ending
/// in `SCHED_DEADLOCK`).
#[test]
fn restart_from_scratch_discards_the_dead_incarnations_versions() {
    fn app(ctx: &mut C3Ctx<'_>) -> Result<u64, C3Error> {
        let mut iter = match ctx.take_restored_state() {
            Some(b) => Decoder::new(&b).u64()?,
            None => 0,
        };
        let (me, n) = (ctx.rank(), ctx.nranks());
        let mut acc = 0u64;
        while iter < 6 {
            ctx.pragma(|e: &mut Encoder| e.u64(iter))?;
            ctx.send((me + 1) % n, 1, &[iter * 7 + me as u64])?;
            let (v, _) = ctx.recv::<u64>(((me + n - 1) % n) as i32, 1)?;
            acc = acc.wrapping_mul(31).wrapping_add(v[0]);
            iter += 1;
        }
        Ok(acc)
    }

    // A finished job commits v1 on both ranks. Cutting rank 1's v1 file
    // just before its commit record (the last 17 bytes: an empty name's
    // length byte, the payload length and the record's own offset) leaves
    // the store as a death in rank 1's torn-commit window would.
    let store = TempStore::new("stale-after-scratch");
    let cfg = C3Config::at_pragmas(store.path(), vec![2]);
    let first = Job::new(2, cfg.clone()).run(app).unwrap();
    let torn =
        std::fs::OpenOptions::new().write(true).open(store.path().join("v1.r1.ckpt")).unwrap();
    torn.set_len(torn.metadata().unwrap().len() - 17).unwrap();
    assert_eq!(CkptStore::new(store.path()).unwrap().last_committed(1), None);

    // The restart agrees on line 0. Each rank looks for a v1 file before its
    // first send, so before any rank of this incarnation can write v1 again.
    let root = store.path();
    let rec = Job::new(2, cfg)
        .restore()
        .run(|ctx| {
            let stale = std::fs::read_dir(root)?
                .any(|e| e.is_ok_and(|e| e.file_name().to_string_lossy().starts_with("v1.")));
            Ok((stale, app(ctx)?))
        })
        .unwrap();
    for (rank, (stale, acc)) in rec.handle.results.iter().enumerate() {
        assert!(!stale, "rank {rank} started next to the dead incarnation's v1");
        assert_eq!(*acc, first.handle.results[rank]);
    }
}

/// The store — not the config — decides how a line is restored: a job may
/// write a delta chain, die, and be restarted under `CkptMode::Full` (or
/// vice versa) and recovery still works, so `C3Config::ckpt_mode` may
/// differ between incarnations.
#[test]
fn mode_switch_across_restart_restores_cleanly() {
    fn app(ctx: &mut C3Ctx<'_>) -> Result<u64, C3Error> {
        let mut iter = match ctx.take_restored_state() {
            Some(b) => Decoder::new(&b).u64()?,
            None => 0,
        };
        let me = ctx.rank() as u64;
        let mut acc = 0u64;
        while iter < 12 {
            ctx.pragma(|e: &mut Encoder| e.u64(iter))?;
            acc = ctx.allreduce_u64(iter + me, &mpisim::ReduceOp::Sum)?;
            iter += 1;
        }
        Ok(acc)
    }

    let base_store = TempStore::new("switch-base");
    let baseline = Job::new(3, C3Config::passive(base_store.path())).run(app).unwrap();

    // Phase 1: run incrementally, die mid-chain, recover, complete. The
    // store now holds a committed delta chain.
    let store = TempStore::new("switch");
    let plan = FailurePlan { rank: 0, when: FailAt::AfterCommits { commits: 3, pragma: 4 } };
    let rec = Job::new(3, incr_cfg(&store, 1, 4)).failure(plan).run(app).unwrap();
    assert!(rec.restarts >= 1);
    assert_eq!(rec.handle.results, baseline.results);

    // Phase 2: restart the *same store* under Full mode from its last
    // committed line; the delta-chain line must restore transparently.
    let rec2 = Job::new(3, full_cfg(&store, 1)).restore().run(app).unwrap();
    assert_eq!(rec2.handle.results, baseline.results);
}

// ====================================================================
// The win condition: deltas write fewer bytes
// ====================================================================

/// MG with a convergent tail: once the V-cycles approach the fixed point
/// the grid stops changing bitwise, so delta checkpoints shrink toward the
/// per-commit protocol metadata. Incremental mode must write strictly
/// fewer checkpoint bytes than full mode for the identical run, at the
/// identical result.
#[test]
fn mg_deltas_write_fewer_bytes_than_full() {
    let spec = JobSpec::new(4);
    // Large enough that grid state dominates the per-section bookkeeping,
    // as in the recovery benchmarks — the byte claim is about state volume.
    let cfg = npb::mg::MgConfig { log2_n: 12, cycles: 48, smooth: 2 };

    let run = |c3cfg: C3Config| {
        let rec = Job::from_spec(&spec, c3cfg)
            .run(move |ctx| {
                let r = npb::mg::run(ctx, &cfg).map_err(C3Error::Mpi)?;
                let s = ctx.stats();
                Ok((r, s.ckpt_bytes_written, s.ckpt_line_bytes, s.ckpt_bases, s.ckpt_deltas))
            })
            .unwrap();
        let bytes: u64 = rec.handle.results.iter().map(|(_, b, _, _, _)| b).sum();
        let line: u64 = rec.handle.results.iter().map(|(_, _, l, _, _)| l).sum();
        let bases: u64 = rec.handle.results.iter().map(|(_, _, _, b, _)| b).sum();
        let deltas: u64 = rec.handle.results.iter().map(|(_, _, _, _, d)| d).sum();
        let results: Vec<f64> = rec.handle.results.iter().map(|(r, _, _, _, _)| *r).collect();
        (results, bytes, line, bases, deltas)
    };

    let full_store = TempStore::new("mg-bytes-full");
    let (full_res, full_bytes, full_line, full_bases, full_deltas) = run(full_cfg(&full_store, 1));
    assert!(full_bases > 0 && full_deltas == 0, "full mode writes only bases");

    let incr_store = TempStore::new("mg-bytes-incr");
    let (incr_res, incr_bytes, incr_line, incr_bases, incr_deltas) =
        run(incr_cfg(&incr_store, 1, 4));
    eprintln!(
        "mg ckpt bytes full={full_bytes} (line {full_line}) \
         incr={incr_bytes} (line {incr_line})"
    );
    assert_eq!(incr_res, full_res, "checkpoint representation changed the result");
    assert!(incr_deltas > 0, "expected delta links in the chain");
    assert!(
        incr_bases < incr_deltas,
        "every_n=4 writes more deltas than bases ({incr_bases} vs {incr_deltas})"
    );
    assert!(
        incr_bytes < full_bytes,
        "incremental mode wrote no fewer bytes: {incr_bytes} vs {full_bytes}"
    );
    assert!(
        incr_line * 2 < full_line,
        "incremental line bytes not under half of full: {incr_line} vs {full_line}"
    );
}

// ====================================================================
// The bytes themselves: pinned per version, rank and section
// ====================================================================

/// Every section a version can hold: the five line sections of a full
/// checkpoint, the single `delta` section of an incremental one, and the
/// commit-time `late` log.
const SECTIONS: [&str; 7] = ["app", "mpi", "tables", "comms", "early", "delta", "late"];

/// Run CG on 4 ranks on one worker, checkpointing every 3rd pragma, check
/// that the store root holds exactly one file per version and rank, and
/// return an FNV-1a digest over (version, rank, section, bytes) of every
/// committed section left in the store, the number of those sections, and
/// the job's total `ckpt_line_bytes`.
fn cg_ckpt_digest(tag: &str, mode: CkptMode) -> (u64, usize, u64) {
    let spec = JobSpec::new(4).sched(SchedMode::EventDriven { workers: 1 });
    let cfg = npb::cg::CgConfig { n: 96, iters: 8 };
    let store = TempStore::new(tag);
    let c3cfg = C3Config { ckpt_mode: mode, ..full_cfg(&store, 3) };
    let rec = Job::from_spec(&spec, c3cfg)
        .run(move |ctx| {
            npb::cg::run(ctx, &cfg).map_err(C3Error::Mpi)?;
            Ok(ctx.stats().ckpt_line_bytes)
        })
        .unwrap();
    let line_bytes = rec.handle.results.iter().sum();

    let ckpts = CkptStore::new(store.path()).unwrap();
    // The root holds one regular file per version and rank, nothing else.
    let mut files: Vec<String> = std::fs::read_dir(store.path())
        .unwrap()
        .map(|e| e.unwrap())
        .inspect(|e| assert!(e.file_type().unwrap().is_file(), "{:?} is not a file", e.path()))
        .map(|e| e.file_name().into_string().unwrap())
        .collect();
    files.sort();
    let mut want: Vec<String> = ckpts
        .versions()
        .into_iter()
        .flat_map(|v| (0..4).map(move |r| format!("v{v}.r{r}.ckpt")))
        .collect();
    want.sort();
    assert_eq!(files, want);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let mut sections = 0;
    for v in ckpts.versions() {
        for rank in 0..4 {
            if !ckpts.is_committed(v, rank) {
                continue;
            }
            for name in SECTIONS {
                if !ckpts.has_section(v, rank, name) {
                    continue;
                }
                let bytes = ckpts.read_section(v, rank, name).unwrap();
                feed(&v.to_le_bytes());
                feed(&(rank as u64).to_le_bytes());
                feed(name.as_bytes());
                feed(&(bytes.len() as u64).to_le_bytes());
                feed(&bytes);
                sections += 1;
            }
        }
    }
    (h, sections, line_bytes)
}

/// The checkpoint bytes of a serial-schedule CG job, full and incremental,
/// are pinned: a change to how sections are encoded or buffered must write
/// exactly the same files.
#[test]
fn cg_checkpoint_bytes_are_pinned() {
    let full = cg_ckpt_digest("pin-full", CkptMode::Full);
    let incr = cg_ckpt_digest("pin-incr", CkptMode::Incremental { every_n: 2 });
    assert_eq!(full, (7_790_371_992_205_464_101, 48, 6192));
    assert_eq!(incr, (4_796_170_134_591_443_860, 16, 5851));
}
