//! Single-layer probes: short timed calls into one layer's public
//! functions, at the workload's rank count and on its network where that
//! matters. They say how fast a layer is on its own; the spans of the
//! traced jobs say how much of a job it is.

use crate::harness::{Env, Samples, Tally};
use crate::trace::Side;
use crate::workload::Workload;
use c3::{C3Config, C3Error, CkptPolicy};
use mpisim::{JobError, MpiError};
use npb::backend::{Comm, Op};
use statesave::{CkptStore, Decoder, DirtyTracker, Encoder, IncrementalSaver};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

const MB: f64 = 1e6;

/// `mpisim.launch_us`: launch and join of a job whose ranks do nothing.
pub fn launch(env: &Env, w: &Workload, s: &mut Samples, tally: &mut Tally) {
    let spec = w.spec();
    for _ in 0..env.reps(20) {
        let t0 = Instant::now();
        let done = mpisim::launch(&spec, |_| Ok(()));
        let us = t0.elapsed().as_secs_f64() * 1e6;
        if tally.count(done.map_err(|e| format!("no-op launch failed: {e}"))).is_some() {
            s.push("mpisim.launch_us", us);
        }
    }
}

/// A loop of `calls` calls on one rank; returns the nanoseconds it took.
type CallLoop = fn(&mut dyn Comm, u32) -> Result<u64, MpiError>;

fn allreduce_loop(c: &mut dyn Comm, calls: u32) -> Result<u64, MpiError> {
    c.barrier()?;
    let t0 = Instant::now();
    for i in 0..calls {
        black_box(c.allreduce_f64(f64::from(i), Op::Sum)?);
    }
    Ok(t0.elapsed().as_nanos() as u64)
}

/// Ranks 0 and 1 bounce an 8-byte message; the others leave at once.
fn pingpong_loop(c: &mut dyn Comm, calls: u32) -> Result<u64, MpiError> {
    let t0 = Instant::now();
    for i in 0..calls {
        let msg = u64::from(i).to_le_bytes();
        match c.rank() {
            0 => {
                c.send_bytes(1, 7, &msg)?;
                black_box(c.recv_bytes(1, 7)?);
            }
            1 => {
                black_box(c.recv_bytes(0, 7)?);
                c.send_bytes(0, 7, &msg)?;
            }
            _ => return Ok(0),
        }
    }
    Ok(t0.elapsed().as_nanos() as u64)
}

/// Nanoseconds per call of `body`, taken from the slowest rank.
fn per_call_ns(
    side: Side,
    w: &Workload,
    store: &Path,
    body: CallLoop,
    calls: u32,
) -> Result<f64, JobError> {
    let spec = w.spec();
    let elapsed: Vec<u64> = match side {
        Side::Raw => mpisim::launch(&spec, |ctx| body(ctx, calls))?.results,
        Side::C3 => {
            c3::Job::from_spec(&spec, C3Config::passive(store))
                .run(|ctx| body(ctx, calls).map_err(C3Error::Mpi))?
                .handle
                .results
        }
    };
    Ok(elapsed.into_iter().max().unwrap_or(0) as f64 / f64::from(calls))
}

/// `{mpisim,core}.allreduce_us` and `{mpisim,core}.pingpong_ns`.
pub fn calls(env: &Env, w: &Workload, s: &mut Samples, tally: &mut Tally) {
    // An all-reduce on many ranks takes milliseconds: fewer calls there.
    let allreduces = if env.quick { 4 } else { (4000 / w.nranks as u32).max(20) };
    let pingpongs = if env.quick { 16 } else { 10_000 };
    let store = env.new_store();
    for _ in 0..env.reps(3) {
        for (side, allreduce, pingpong) in [
            (Side::Raw, "mpisim.allreduce_us", "mpisim.pingpong_ns"),
            (Side::C3, "core.allreduce_us", "core.pingpong_ns"),
        ] {
            let ns = per_call_ns(side, w, &store, allreduce_loop, allreduces);
            if let Some(ns) = tally.count(ns.map_err(|e| format!("{allreduce}: {e}"))) {
                s.push(allreduce, ns / 1e3);
            }
            let ns = per_call_ns(side, w, &store, pingpong_loop, pingpongs);
            if let Some(ns) = tally.count(ns.map_err(|e| format!("{pingpong}: {e}"))) {
                s.push(pingpong, ns);
            }
        }
    }
    env.drop_store(&store);
}

/// Throughput in MB/s of `bytes` handled in the time since `t0`.
fn mb_s(bytes: usize, t0: Instant) -> f64 {
    bytes as f64 / MB / t0.elapsed().as_secs_f64()
}

/// The `statesave.*_mb_s` metrics: codec on an 8 MB `f64` array, store on a
/// 2 MB section with its commit marker, dirty-chunk scan of an 8 MB section
/// with 5% of its chunks changed, and applying that delta to its base.
pub fn statesave(env: &Env, s: &mut Samples, tally: &mut Tally) {
    let n = if env.quick { 1 << 12 } else { 1 << 20 };
    let mut data: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
    let bytes = n * 8;

    let mut encoded = Vec::new();
    for _ in 0..env.reps(10) {
        let t0 = Instant::now();
        let mut e = Encoder::new();
        e.f64_slice(black_box(&data));
        encoded = e.finish();
        s.push("statesave.encode_mb_s", mb_s(bytes, t0));

        let t0 = Instant::now();
        let back = Decoder::new(black_box(&encoded)).f64_vec();
        s.push("statesave.decode_mb_s", mb_s(bytes, t0));
        let ok = matches!(&back, Ok(v) if v == &data);
        tally.count(if ok { Ok(()) } else { Err("codec round trip changed the data".into()) });
    }

    let root = env.new_store();
    let section = &encoded[..encoded.len().min(2 << 20)];
    let io = |e: std::io::Error| format!("store probe: {e}");
    for version in 1..=env.reps(10) as u64 {
        let round_trip = CkptStore::new(&root).map_err(io).and_then(|store| {
            let t0 = Instant::now();
            store.write_section(version, 0, "app", section).map_err(io)?;
            store.mark_committed(version, 0).map_err(io)?;
            let write = mb_s(section.len(), t0);
            let t0 = Instant::now();
            let back = store.read_section(version, 0, "app").map_err(io)?;
            let read = mb_s(section.len(), t0);
            if back != section {
                return Err("store read back different bytes".to_string());
            }
            Ok((write, read))
        });
        if let Some((write, read)) = tally.count(round_trip) {
            s.push("statesave.store_write_mb_s", write);
            s.push("statesave.store_read_mb_s", read);
        }
    }
    env.drop_store(&root);

    let mut tracker = DirtyTracker::new();
    let base = tracker.checkpoint(&[("app", mpisim::bytes_of(&data))]);
    let chunk_f64s = statesave::incremental::DEFAULT_CHUNK_SIZE / 8;
    for rep in 0..env.reps(5) {
        // Touch one value in every 20th chunk.
        for x in data.iter_mut().step_by(20 * chunk_f64s) {
            *x += 1.0 + rep as f64;
        }
        let t0 = Instant::now();
        let delta = tracker.checkpoint(&[("app", black_box(mpisim::bytes_of(&data)))]);
        s.push("statesave.dirty_scan_mb_s", mb_s(bytes, t0));

        // The tracker diffs against the previous checkpoint, so only the
        // first delta applies directly to the base.
        if rep == 0 {
            let chain = [base.clone(), delta];
            let t0 = Instant::now();
            let state = IncrementalSaver::reconstruct(black_box(&chain));
            s.push("statesave.delta_apply_mb_s", mb_s(bytes, t0));
            let ok = state
                .ok()
                .and_then(|chunks| DirtyTracker::assemble(&chunks).ok())
                .is_some_and(|sections| sections["app"] == mpisim::bytes_of(&data));
            tally.count(if ok { Ok(()) } else { Err("delta chain rebuilt other bytes".into()) });
        }
    }
}

/// `core.restore_ms`: `Job::restore().run` from a store whose recovery line
/// is the last pragma the job can be resumed from, so the run is launch +
/// restore + the little work after that pragma. The store is filled by one
/// failure-free job that checkpoints where the workload does and at that
/// pragma. The probe walks back from the kernel's last pragma because a
/// kernel that stops communicating after a pragma never commits there, and
/// because debug builds of SMG assert when resumed after its solve.
pub fn restore(
    env: &Env,
    w: &Workload,
    pragmas: u64,
    reference: &[u64],
    s: &mut Samples,
    tally: &mut Tally,
) {
    let kernel = w.kernel;
    let run = |job: &c3::Job| {
        let t0 = Instant::now();
        let done = job.run(|ctx| kernel.run(ctx).map_err(C3Error::Mpi));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let rec = done.map_err(|e| format!("restore probe failed: {e}"))?;
        if !rec.handle.results.iter().map(|v| v.to_bits()).eq(reference.iter().copied()) {
            return Err("restore probe diverged from the raw reference".to_string());
        }
        Ok(ms)
    };
    let store = env.new_store();
    let mut filled = Err("restore probe: the kernel has no pragma".to_string());
    for last in (pragmas.saturating_sub(3).max(1)..=pragmas).rev() {
        let mut at: Vec<u64> = match w.policy {
            CkptPolicy::EveryNth(n) => (1..last).filter(|p| p % n == 0).collect(),
            _ => Vec::new(),
        };
        at.push(last);
        let mut cfg = w.config(&store);
        cfg.policy = CkptPolicy::AtPragmas(at.clone());
        let job = c3::Job::from_spec(&w.spec(), cfg);
        // Versions count checkpoints started, so the line is `at.len()`
        // exactly when every one of them committed on every rank. One
        // untimed restore shows the line can be resumed from.
        filled = run(&job).and_then(|_| {
            let st = CkptStore::new(&store).map_err(|e| e.to_string())?;
            let line = (0..w.nranks).map(|r| st.last_committed(r).unwrap_or(0)).min();
            if line != Some(at.len() as u64) {
                return Err(format!("restore probe: line {line:?} after {} checkpoints", at.len()));
            }
            let job = job.restore();
            run(&job).map(|_| job)
        });
        if filled.is_ok() {
            break;
        }
        env.drop_store(&store);
    }
    if let Some(job) = tally.count(filled) {
        for _ in 0..env.reps(5) {
            if let Some(ms) = tally.count(run(&job)) {
                s.push("core.restore_ms", ms);
            }
        }
    }
    env.drop_store(&store);
}
