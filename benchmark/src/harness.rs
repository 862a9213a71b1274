//! Running jobs on both sides, checking them, and the two measuring loops.
//!
//! Closed loop: one job at a time from a single generator thread; the
//! substrate schedules the ranks (event-driven, one worker per CPU). Raw
//! and C³ jobs alternate, so drift on the host hits both sides alike.

use crate::probes;
use crate::stats::{median, process_cpu_ns};
use crate::trace::{now_ns, JobLayers, JobTrace, Side, TimedComm, PRAGMA};
use crate::workload::Workload;
use c3::{C3Error, C3Stats};
use mpisim::JobError;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Where this process keeps its files, and how much work it does.
pub struct Env {
    /// Checkpoint stores and the trace file go under here.
    pub out_dir: PathBuf,
    /// Smoke-test mode: tiny sizes, one slot, one repetition of each probe.
    pub quick: bool,
    next_id: std::cell::Cell<u64>,
}

impl Env {
    pub fn new(out_dir: PathBuf, quick: bool) -> Env {
        Env { out_dir, quick, next_id: std::cell::Cell::new(0) }
    }

    /// `n` repetitions, or one in quick mode.
    pub fn reps(&self, n: usize) -> usize {
        if self.quick {
            1
        } else {
            n
        }
    }

    pub fn next_id(&self) -> u64 {
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        id
    }

    /// A store root no job has used. Each rank creates the directory itself
    /// (`CkptStore::new`); [`Env::drop_store`] deletes it after the job.
    pub fn new_store(&self) -> PathBuf {
        self.out_dir.join("stores").join(format!("{}-{}", std::process::id(), self.next_id()))
    }

    pub fn drop_store(&self, root: &Path) {
        let _ = std::fs::remove_dir_all(root);
    }
}

/// Jobs attempted, jobs that failed, and why the first one did.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    /// Count one job; `Err` says what was wrong with it.
    pub fn count<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(why) => {
                self.failed += 1;
                self.first_failure.get_or_insert(why);
                None
            }
        }
    }
}

/// Samples by metric name; a metric's value is the median of its samples.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], |v| v)
    }
}

/// Per-rank results as bit patterns: jobs must agree bit for bit.
fn bits(results: impl IntoIterator<Item = f64>) -> Vec<u64> {
    results.into_iter().map(f64::to_bits).collect()
}

pub struct RawJob {
    pub start_ns: u64,
    pub end_ns: u64,
    pub bits: Vec<u64>,
    pub msgs: u64,
    pub bytes: u64,
    pub makespan_ns: u64,
}

impl RawJob {
    pub fn wall_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// One failure-free job on the raw substrate.
pub fn run_raw(w: &Workload, trace: Option<&JobTrace>) -> Result<RawJob, JobError> {
    let spec = w.spec();
    let kernel = w.kernel;
    let start_ns = now_ns();
    let h = mpisim::launch(&spec, |ctx| match trace {
        Some(job) => kernel.run(&mut TimedComm::new(ctx, job)),
        None => kernel.run(ctx),
    })?;
    let end_ns = now_ns();
    Ok(RawJob {
        start_ns,
        end_ns,
        makespan_ns: h.makespan_ns(),
        msgs: h.msgs_sent,
        bytes: h.bytes_sent,
        bits: bits(h.results),
    })
}

pub struct C3Job {
    pub start_ns: u64,
    pub end_ns: u64,
    pub cpu_ms: f64,
    pub bits: Vec<u64>,
    pub restarts: u32,
    pub lines: Vec<u64>,
    /// Substrate traffic of the last incarnation, protocol messages included.
    pub wire_msgs: u64,
    pub wire_bytes: u64,
    /// Every rank's protocol statistics of the last incarnation.
    pub stats: Vec<C3Stats>,
}

impl C3Job {
    pub fn wall_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    pub fn sum(&self, field: impl Fn(&C3Stats) -> u64) -> f64 {
        self.stats.iter().map(field).sum::<u64>() as f64
    }
}

/// One job under the protocol, with the workload's checkpoints and faults,
/// checkpointing to `store` (which the caller deletes).
pub fn run_c3(w: &Workload, store: &Path, trace: Option<&JobTrace>) -> Result<C3Job, JobError> {
    let kernel = w.kernel;
    let job = c3::Job::from_spec(&w.spec(), w.config(store)).chaos(w.chaos());
    let cpu0 = process_cpu_ns();
    let start_ns = now_ns();
    let rec = job.run(|ctx| {
        let value = match trace {
            Some(job) => kernel.run(&mut TimedComm::new(ctx, job)),
            None => kernel.run(ctx),
        }
        .map_err(C3Error::Mpi)?;
        Ok((value, ctx.stats().clone()))
    })?;
    let end_ns = now_ns();
    let cpu_ms = (process_cpu_ns() - cpu0) as f64 / 1e6;
    let (values, stats): (Vec<f64>, Vec<C3Stats>) = rec.handle.results.into_iter().unzip();
    Ok(C3Job {
        start_ns,
        end_ns,
        cpu_ms,
        bits: bits(values),
        restarts: rec.restarts,
        lines: rec.lines,
        wire_msgs: rec.handle.msgs_sent,
        wire_bytes: rec.handle.bytes_sent,
        stats,
    })
}

/// A C³ job counts only if it finished, reproduced the raw reference bit
/// for bit, restarted once per planned fault, and — where the workload
/// checkpoints — committed on every rank.
fn check_c3(
    w: &Workload,
    job: Result<C3Job, JobError>,
    reference: &[u64],
) -> Result<C3Job, String> {
    let job = job.map_err(|e| format!("C3 job failed: {e}"))?;
    if job.bits != reference {
        return Err(format!("C3 job diverged from the raw reference (lines {:?})", job.lines));
    }
    if job.restarts as usize != w.faults.len() {
        return Err(format!("{} of {} faults fired", job.restarts, w.faults.len()));
    }
    if w.checkpoints() && job.stats.iter().any(|s| s.ckpts_committed == 0) {
        return Err("a rank finished without committing a checkpoint".to_string());
    }
    Ok(job)
}

fn checked_raw(
    w: &Workload,
    trace: Option<&JobTrace>,
    reference: &[u64],
    t: &mut Tally,
) -> Option<RawJob> {
    t.count(match run_raw(w, trace) {
        Ok(job) if job.bits == reference => Ok(job),
        Ok(_) => Err("raw job diverged from the reference".to_string()),
        Err(e) => Err(format!("raw job failed: {e}")),
    })
}

fn checked_c3(
    env: &Env,
    w: &Workload,
    trace: Option<&JobTrace>,
    reference: &[u64],
    t: &mut Tally,
) -> Option<C3Job> {
    let store = env.new_store();
    let job = t.count(check_c3(w, run_c3(w, &store, trace), reference));
    env.drop_store(&store);
    job
}

/// Set-up: the raw reference every later job is compared with, then one
/// discarded pair to warm caches, pools and the page cache.
fn set_up(env: &Env, w: &Workload, t: &mut Tally) -> Result<Vec<u64>, String> {
    let reference = t
        .count(run_raw(w, None).map_err(|e| format!("reference run failed: {e}")))
        .ok_or("no reference to compare with")?
        .bits;
    checked_raw(w, None, &reference, t);
    checked_c3(env, w, None, &reference, t);
    Ok(reference)
}

/// What a run measured: samples by metric name, the traced jobs with their
/// layer split (none in an untraced run), and the count of operations.
pub struct Measured {
    pub samples: Samples,
    pub jobs: Vec<(JobTrace, JobLayers)>,
    pub tally: Tally,
}

/// How often one run sets up, so `setup_s` is a median and not one sample.
const SETUPS: usize = 5;

/// The untraced run: set up, then alternate raw and C³ slots for `seconds`.
/// Samples are named after the end-to-end metrics.
pub fn measure(env: &Env, w: &Workload, seconds: f64) -> Result<Measured, String> {
    let mut tally = Tally::default();
    let mut s = Samples::default();
    let mut reference = Vec::new();
    for _ in 0..env.reps(SETUPS) {
        let t0 = Instant::now();
        let again = set_up(env, w, &mut tally)?;
        s.push("setup_s", t0.elapsed().as_secs_f64());
        if !reference.is_empty() && again != reference {
            return Err("the raw reference does not repeat".to_string());
        }
        reference = again;
    }
    let t0 = Instant::now();
    loop {
        for _ in 0..w.raw_per_slot {
            if let Some(job) = checked_raw(w, None, &reference, &mut tally) {
                s.push("raw_wall_ms", job.wall_ms());
            }
        }
        if let Some(job) = checked_c3(env, w, None, &reference, &mut tally) {
            s.push("job_wall_ms", job.wall_ms());
            s.push("job_cpu_ms", job.cpu_ms);
        }
        if env.quick || t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    if s.get("job_wall_ms").is_empty() || s.get("raw_wall_ms").is_empty() {
        let why = tally.first_failure.as_deref().unwrap_or("unknown");
        return Err(format!("no job of one side succeeded: {why}"));
    }
    Ok(Measured { samples: s, jobs: Vec::new(), tally })
}

/// Share of `seconds` the traced run spends on whole jobs; the probes that
/// follow take a few seconds whatever the workload.
const JOB_SHARE: f64 = 0.7;

/// The traced run: slots of {raw, C³} × {untraced, traced} jobs, then the
/// single-layer probes. Samples are named after the per-layer metrics.
pub fn trace(env: &Env, w: &Workload, seconds: f64) -> Result<Measured, String> {
    let mut tally = Tally::default();
    let mut s = Samples::default();
    let mut jobs = Vec::new();
    let (mut raw_ms, mut job_ms, mut traced_ms) = (Vec::new(), Vec::new(), Vec::new());
    let reference = set_up(env, w, &mut tally)?;
    let mut pragmas = 0;
    let t0 = Instant::now();
    loop {
        if let Some(job) = checked_raw(w, None, &reference, &mut tally) {
            raw_ms.push(job.wall_ms());
        }
        if let Some(job) = checked_c3(env, w, None, &reference, &mut tally) {
            job_ms.push(job.wall_ms());
        }

        let mut traced = JobTrace::new(env.next_id(), Side::Raw);
        if let Some(job) = checked_raw(w, Some(&traced), &reference, &mut tally) {
            (traced.start_ns, traced.end_ns) = (job.start_ns, job.end_ns);
            let l = traced.layers(w.nranks);
            s.push("npb.compute_ms", l.compute_ms);
            s.push("mpisim.p2p_call_ms", l.p2p_ms);
            s.push("mpisim.coll_call_ms", l.coll_ms);
            s.push("mpisim.raw_msgs", job.msgs as f64);
            s.push("mpisim.raw_bytes", job.bytes as f64);
            s.push("mpisim.makespan_ms", job.makespan_ns as f64 / 1e6);
            let rank0 = &traced.ranks()[0];
            pragmas = rank0.spans.iter().filter(|s| s.name == PRAGMA).count() as u64;
            jobs.push((traced, l));
        }

        let mut traced = JobTrace::new(env.next_id(), Side::C3);
        if let Some(job) = checked_c3(env, w, Some(&traced), &reference, &mut tally) {
            (traced.start_ns, traced.end_ns) = (job.start_ns, job.end_ns);
            let l = traced.layers(w.nranks);
            traced_ms.push(job.wall_ms());
            s.push("core.p2p_call_ms", l.p2p_ms);
            s.push("core.coll_call_ms", l.coll_ms);
            s.push("core.pragma_call_ms", l.pragma_ms);
            s.push("statesave.app_encode_ms", l.app_encode_ms);
            s.push("core.relaunch_ms", l.relaunch_ms);
            s.push("core.restarts", f64::from(job.restarts));
            s.push("core.wire_msgs", job.wire_msgs as f64);
            s.push("core.wire_bytes", job.wire_bytes as f64);
            s.push("core.msgs_sent", job.sum(|c| c.msgs_sent));
            s.push("core.ci_sent", job.sum(|c| c.ci_sent));
            s.push("core.late_logged", job.sum(|c| c.late_logged));
            s.push("core.late_bytes", job.sum(|c| c.late_bytes));
            s.push("core.replayed_recvs", job.sum(|c| c.replayed_recvs));
            s.push("core.suppressed_sends", job.sum(|c| c.suppressed_sends));
            s.push("core.ckpts_committed", job.sum(|c| c.ckpts_committed));
            s.push("statesave.bytes_written", job.sum(|c| c.ckpt_bytes_written));
            s.push("statesave.line_bytes", job.sum(|c| c.ckpt_line_bytes));
            s.push("statesave.bases", job.sum(|c| c.ckpt_bases));
            s.push("statesave.deltas", job.sum(|c| c.ckpt_deltas));
            jobs.push((traced, l));
        }
        if env.quick || t0.elapsed().as_secs_f64() >= seconds * JOB_SHARE {
            break;
        }
    }
    if raw_ms.is_empty() || job_ms.is_empty() || traced_ms.is_empty() || pragmas == 0 {
        let why = tally.first_failure.as_deref().unwrap_or("unknown");
        return Err(format!("no job of one kind succeeded: {why}"));
    }
    let untraced = median(&job_ms);
    s.push("core.overhead_ratio", untraced / median(&raw_ms));
    s.push("trace.overhead_pct", (median(&traced_ms) / untraced - 1.0) * 100.0);

    probes::launch(env, w, &mut s, &mut tally);
    probes::calls(env, w, &mut s, &mut tally);
    probes::statesave(env, &mut s, &mut tally);
    probes::restore(env, w, pragmas, &reference, &mut s, &mut tally);
    Ok(Measured { samples: s, jobs, tally })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(name: &str) -> Env {
        let dir = std::env::temp_dir().join(format!("c3-benchmark-{name}-{}", std::process::id()));
        Env::new(dir, true)
    }

    #[test]
    fn traced_jobs_equal_untraced_jobs_bit_for_bit() {
        let env = env("traced-bits");
        for (name, _) in crate::workload::WORKLOADS {
            let w = Workload::build(name, 3, true).unwrap();
            let plain = run_raw(&w, None).unwrap();
            let trace = JobTrace::new(0, Side::Raw);
            assert_eq!(run_raw(&w, Some(&trace)).unwrap().bits, plain.bits, "{name} raw");
            assert_eq!(trace.ranks().len(), w.nranks, "{name}: one trace per rank");

            let store = env.new_store();
            let untraced = run_c3(&w, &store, None).unwrap();
            env.drop_store(&store);
            let trace = JobTrace::new(1, Side::C3);
            let traced = run_c3(&w, &store, Some(&trace)).unwrap();
            env.drop_store(&store);
            assert_eq!(untraced.bits, plain.bits, "{name} C3 untraced");
            assert_eq!(traced.bits, plain.bits, "{name} C3 traced");
            assert_eq!(traced.restarts as usize, w.faults.len(), "{name} restarts");
        }
        let _ = std::fs::remove_dir_all(&env.out_dir);
    }

    #[test]
    fn a_job_that_misses_its_restarts_is_a_failed_operation() {
        let env = env("missed-restart");
        let mut w = Workload::build("recover_incr4", 1, true).unwrap();
        let reference = run_raw(&w, None).unwrap().bits;
        // A fault that can never fire: the job completes with 0 of 1 restarts.
        w.faults = vec![c3::FailurePlan { rank: 0, when: c3::FailAt::Pragma(1_000_000) }];
        let mut tally = Tally::default();
        assert!(checked_c3(&env, &w, None, &reference, &mut tally).is_none());
        assert_eq!((tally.attempted, tally.failed), (1, 1));
        assert!(tally.first_failure.unwrap().contains("0 of 1 faults fired"));
        let _ = std::fs::remove_dir_all(&env.out_dir);
    }
}
