//! Job launch: rank coroutines on the job's worker pool, fail-stop
//! propagation, result collection.

use crate::ctx::RankCtx;
use crate::error::MpiError;
use crate::network::{ClusterModel, NetModel, Network};
use crate::sched::SchedMode;
use crate::Rank;
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Everything needed to launch a job.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Number of ranks.
    pub nranks: usize,
    /// Interconnect timing model (virtual time only).
    pub cluster: ClusterModel,
    /// Fault-and-delivery model: reordering, drop, duplication, seed.
    pub net: NetModel,
    /// Rank scheduler: the worker-pool width.
    pub sched: SchedMode,
}

impl JobSpec {
    /// A job on the ideal, reliable, in-order network.
    pub fn new(nranks: usize) -> Self {
        JobSpec {
            nranks,
            cluster: ClusterModel::ideal(),
            net: NetModel::reliable(),
            sched: SchedMode::default(),
        }
    }

    /// Set the cluster model.
    pub fn cluster(mut self, c: ClusterModel) -> Self {
        self.cluster = c;
        self
    }

    /// Replace the whole fault-and-delivery model.
    pub fn net(mut self, n: NetModel) -> Self {
        self.net = n;
        self
    }

    /// Select the rank scheduler.
    pub fn sched(mut self, s: SchedMode) -> Self {
        self.sched = s;
        self
    }
}

/// Why a job did not complete.
#[derive(Debug, Clone)]
pub enum JobError {
    /// The job was poisoned (fail-stop failure or deliberate abort).
    Aborted {
        /// Human-readable failure description.
        reason: String,
    },
    /// A rank returned a non-abort error.
    Rank {
        /// The failing rank.
        rank: Rank,
        /// Its error.
        err: MpiError,
    },
    /// A rank panicked.
    Panicked {
        /// The panicking rank.
        rank: Rank,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Aborted { reason } => write!(f, "job aborted: {reason}"),
            JobError::Rank { rank, err } => write!(f, "rank {rank} failed: {err}"),
            JobError::Panicked { rank } => write!(f, "rank {rank} panicked"),
        }
    }
}

impl std::error::Error for JobError {}

/// A completed job's results and aggregate statistics.
#[derive(Debug)]
pub struct JobHandle<T> {
    /// Per-rank return values, indexed by rank.
    pub results: Vec<T>,
    /// Per-rank final virtual clocks (ns).
    pub vtimes: Vec<u64>,
    /// Total messages injected into the network.
    pub msgs_sent: u64,
    /// Total bytes injected into the network.
    pub bytes_sent: u64,
}

impl<T> JobHandle<T> {
    /// The job's virtual makespan: the maximum rank virtual clock.
    pub fn makespan_ns(&self) -> u64 {
        self.vtimes.iter().copied().max().unwrap_or(0)
    }
}

/// Run `f` on every rank of a fresh job and collect the results.
///
/// `f` is invoked once per rank with that rank's [`RankCtx`]. If any rank
/// fails (returns `Err` or panics) the job is poisoned so all other ranks
/// unwind promptly, and an error describing the *first cause* is returned.
pub fn launch<T, F>(spec: &JobSpec, f: F) -> Result<JobHandle<T>, JobError>
where
    T: Send,
    F: Fn(&mut RankCtx) -> Result<T, MpiError> + Sync,
{
    assert!(spec.nranks > 0, "job needs at least one rank");
    let net = Arc::new(Network::new(spec));
    let f = &f;

    enum Outcome<T> {
        Ok(T, u64, u64, u64), // result, final vclock, messages and bytes sent
        Err(MpiError),
        Panic,
    }

    // One coroutine per rank on the scheduler's worker pool; the
    // `catch_unwind` below keeps every panic on the rank's own stack (see
    // `coro.rs`).
    let run_rank = |rank: Rank| {
        let mut ctx = RankCtx::new(rank, Arc::clone(&net));
        let outcome = match catch_unwind(AssertUnwindSafe(|| f(&mut ctx))) {
            Ok(Ok(v)) => Outcome::Ok(v, ctx.vtime(), ctx.msgs_sent, ctx.bytes_sent),
            Ok(Err(e)) => {
                if e != MpiError::Aborted {
                    net.poison(&format!("rank {rank} failed: {e}"));
                }
                Outcome::Err(e)
            }
            Err(_) => {
                net.poison(&format!("rank {rank} panicked"));
                Outcome::Panic
            }
        };
        // This mailbox will never be drained again; release any sender
        // parked on it, and let the scheduler account the exit (the last
        // runnable rank leaving must trigger the deadlock detective).
        net.rank_done(rank);
        outcome
    };

    let slots: Vec<Mutex<Option<Outcome<T>>>> =
        (0..spec.nranks).map(|_| Mutex::new(None)).collect();
    net.sched().run_tasks(&|rank| *slots[rank].lock() = Some(run_rank(rank)));
    let outcomes: Vec<Outcome<T>> =
        slots.iter().map(|s| s.lock().take().expect("every rank ran to completion")).collect();

    // Classify: panics dominate, then non-abort errors, then abort.
    for (rank, o) in outcomes.iter().enumerate() {
        if matches!(o, Outcome::Panic) {
            return Err(JobError::Panicked { rank });
        }
    }
    for (rank, o) in outcomes.iter().enumerate() {
        if let Outcome::Err(e) = o {
            if *e != MpiError::Aborted {
                return Err(JobError::Rank { rank, err: e.clone() });
            }
        }
    }
    if net.is_poisoned() {
        return Err(JobError::Aborted {
            reason: net.poison_reason().unwrap_or_else(|| "unknown".into()),
        });
    }
    let mut results = Vec::with_capacity(spec.nranks);
    let mut vtimes = Vec::with_capacity(spec.nranks);
    let (mut msgs_sent, mut bytes_sent) = (0, 0);
    for o in outcomes {
        match o {
            Outcome::Ok(v, vt, msgs, bytes) => {
                results.push(v);
                vtimes.push(vt);
                msgs_sent += msgs;
                bytes_sent += bytes;
            }
            _ => unreachable!("error cases handled above"),
        }
    }
    Ok(JobHandle { results, vtimes, msgs_sent, bytes_sent })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::ReduceOp;
    use crate::pod::{bytes_of, vec_from_bytes};
    use crate::{BasicType, Tag, ANY_SOURCE, ANY_TAG, COMM_WORLD};
    use std::sync::atomic::Ordering;

    #[test]
    fn ring_pass() {
        let spec = JobSpec::new(4);
        let out = launch(&spec, |ctx| {
            let me = ctx.rank();
            let n = ctx.nranks();
            let next = (me + 1) % n;
            let prev = (me + n - 1) % n;
            ctx.send(next, 1, &[me as u64])?;
            let (vals, st) = ctx.recv::<u64>(prev as i32, 1)?;
            assert_eq!(st.src, prev);
            Ok(vals[0])
        })
        .unwrap();
        assert_eq!(out.results, vec![3, 0, 1, 2]);
        assert_eq!(out.msgs_sent, 4);
    }

    #[test]
    fn job_totals_do_not_depend_on_the_worker_count() {
        let totals = |workers| {
            let spec = JobSpec::new(8).sched(SchedMode::EventDriven { workers });
            let out = launch(&spec, |ctx| {
                let (me, n) = (ctx.rank(), ctx.nranks());
                ctx.send((me + 1) % n, 1, &vec![me as u8; me + 1])?;
                ctx.recv::<u8>(((me + n - 1) % n) as i32, 1)?;
                let sum = ctx.allreduce(
                    COMM_WORLD,
                    bytes_of(&[me as u64]),
                    BasicType::U64,
                    &ReduceOp::Sum,
                )?;
                Ok(vec_from_bytes::<u64>(&sum)[0])
            })
            .unwrap();
            assert_eq!(out.results, vec![28; 8]);
            (out.msgs_sent, out.bytes_sent)
        };
        let serial = totals(1);
        assert!(serial.0 > 8 && serial.1 > 36, "ring plus allreduce traffic: {serial:?}");
        assert_eq!(totals(2), serial);
        assert_eq!(totals(4), serial);
    }

    #[test]
    fn wildcard_receive_collects_all() {
        let out = launch(&JobSpec::new(4), |ctx| {
            if ctx.rank() == 0 {
                let mut sum = 0u64;
                for _ in 0..3 {
                    let (vals, _) = ctx.recv::<u64>(ANY_SOURCE, ANY_TAG)?;
                    sum += vals[0];
                }
                Ok(sum)
            } else {
                ctx.send(0, ctx.rank() as i32, &[ctx.rank() as u64 * 10])?;
                Ok(0)
            }
        })
        .unwrap();
        assert_eq!(out.results[0], 60);
    }

    #[test]
    fn irecv_matches_by_signature_not_send_order() {
        let out = launch(&JobSpec::new(2), |ctx| {
            if ctx.rank() == 0 {
                let r1 = ctx.irecv(1, 1)?;
                let r2 = ctx.irecv(1, 2)?;
                let (_, b) = ctx.wait(r2)?;
                let (_, a) = ctx.wait(r1)?;
                let (a, b): (Vec<f64>, Vec<f64>) = (vec_from_bytes(&a), vec_from_bytes(&b));
                Ok(a[0] + b[0])
            } else {
                // Send in reverse tag order; matching is by signature.
                ctx.send(0, 2, &[2.5f64])?;
                ctx.send(0, 1, &[1.25f64])?;
                Ok(0.0)
            }
        })
        .unwrap();
        assert_eq!(out.results[0], 3.75);
    }

    /// A posted receive keeps its matching priority against a later poll
    /// and a later blocking receive of the same signature, on the serial
    /// and the threaded schedule.
    #[test]
    fn posted_receive_outranks_later_polls_and_blocking_receives() {
        for workers in [1, 2] {
            let spec = JobSpec::new(2).sched(SchedMode::EventDriven { workers });
            launch(&spec, |ctx| {
                if ctx.rank() == 0 {
                    // The marker follows message 0 on a reliable network, so
                    // message 0 sits unclaimed when the wildcard is posted.
                    ctx.recv::<u8>(1, 8)?;
                    let wild = ctx.irecv(ANY_SOURCE, ANY_TAG)?;
                    assert!(ctx.try_recv_bytes(1, 5, COMM_WORLD)?.is_none());
                    ctx.send(1, 9, &[0u8])?; // go: send message 1
                    let (later, _) = ctx.recv::<u64>(1, 5)?;
                    let (_, first) = ctx.wait(wild)?;
                    assert_eq!(later, [1]);
                    assert_eq!(vec_from_bytes::<u64>(&first), [0]);
                } else {
                    ctx.send(0, 5, &[0u64])?;
                    ctx.send(0, 8, &[0u8])?;
                    ctx.recv::<u8>(0, 9)?;
                    ctx.send(0, 5, &[1u64])?;
                }
                Ok(())
            })
            .unwrap_or_else(|e| panic!("workers {workers}: {e}"));
        }
    }

    #[test]
    fn collectives_end_to_end() {
        let out = launch(&JobSpec::new(5), |ctx| {
            let me = ctx.rank() as i64;
            // allreduce sum
            let res = ctx.allreduce(COMM_WORLD, bytes_of(&[me]), BasicType::I64, &ReduceOp::Sum)?;
            let sum: Vec<i64> = vec_from_bytes(&res);
            assert_eq!(sum[0], 1 + 2 + 3 + 4);
            // scan
            let res = ctx.scan(COMM_WORLD, bytes_of(&[me]), BasicType::I64, &ReduceOp::Sum)?;
            let pre: Vec<i64> = vec_from_bytes(&res);
            assert_eq!(pre[0], (0..=me).sum::<i64>());
            // bcast
            let mut data = if ctx.rank() == 2 { vec![9u8, 9, 9] } else { Vec::new() };
            ctx.bcast(COMM_WORLD, 2, &mut data)?;
            assert_eq!(data, vec![9, 9, 9]);
            // gather (variable sizes)
            let mine = vec![ctx.rank() as u8; ctx.rank() + 1];
            let g = ctx.gather(COMM_WORLD, 1, &mine)?;
            if ctx.rank() == 1 {
                let g = g.unwrap();
                assert_eq!(g.len(), 5);
                for (src, d) in g.iter().enumerate() {
                    assert_eq!(d, &vec![src as u8; src + 1]);
                }
            } else {
                assert!(g.is_none());
            }
            // alltoall
            let parts: Vec<Vec<u8>> = (0..5).map(|d| vec![(ctx.rank() * 10 + d) as u8]).collect();
            let recvd = ctx.alltoall(COMM_WORLD, &parts)?;
            for (src, d) in recvd.iter().enumerate() {
                assert_eq!(d[0] as usize, src * 10 + ctx.rank());
            }
            // barrier
            ctx.barrier(COMM_WORLD)?;
            // reduce
            let r =
                ctx.reduce(COMM_WORLD, 0, bytes_of(&[me as f64]), BasicType::F64, &ReduceOp::Max)?;
            if ctx.rank() == 0 {
                let v: Vec<f64> = vec_from_bytes(&r.unwrap());
                assert_eq!(v[0], 4.0);
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(out.results.len(), 5);
    }

    #[test]
    fn allgather_returns_everyones_data() {
        launch(&JobSpec::new(3), |ctx| {
            let mine = vec![ctx.rank() as u8 + 100];
            let all = ctx.allgather(COMM_WORLD, &mine)?;
            assert_eq!(all, vec![vec![100], vec![101], vec![102]]);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn fail_stop_aborts_everyone() {
        let err = launch(&JobSpec::new(3), |ctx| {
            if ctx.rank() == 1 {
                ctx.fail_stop("injected fault at rank 1");
                return Err(MpiError::Aborted);
            }
            // Other ranks block forever on a message that never comes; the
            // poison must wake them.
            let _ = ctx.recv::<u64>(ANY_SOURCE, ANY_TAG)?;
            Ok(())
        })
        .unwrap_err();
        match err {
            JobError::Aborted { reason } => assert!(reason.contains("rank 1")),
            other => panic!("expected abort, got {other:?}"),
        }
    }

    #[test]
    fn panic_in_rank_reported() {
        let err = launch(&JobSpec::new(2), |ctx| {
            if ctx.rank() == 0 {
                panic!("boom");
            }
            let _ = ctx.recv::<u64>(ANY_SOURCE, ANY_TAG)?;
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(err, JobError::Panicked { rank: 0 }));
    }

    #[test]
    fn wait_any_then_wait() {
        launch(&JobSpec::new(2), |ctx| {
            if ctx.rank() == 0 {
                let r1 = ctx.irecv(1, 1)?;
                let r2 = ctx.irecv(1, 2)?;
                let (idx, st, payload) = ctx.wait_any(&[r1, r2])?;
                assert!(idx < 2);
                assert_eq!(
                    (st.src, st.tag, &payload[..]),
                    (1, idx as Tag + 1, &[idx as u8 + 1][..])
                );
                let rest = if idx == 0 { r2 } else { r1 };
                let (st, _) = ctx.wait(rest)?;
                assert_eq!(st.tag, 2 - idx as Tag);
                assert!(ctx.wait(rest).is_err(), "a completed request is consumed");
            } else {
                ctx.send(0, 1, &[1u8])?;
                ctx.send(0, 2, &[2u8])?;
            }
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn virtual_time_advances_with_cluster_model() {
        let spec = JobSpec::new(2).cluster(ClusterModel::lemieux());
        let out = launch(&spec, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 0, &[0u8; 25_000])?;
            } else {
                ctx.recv::<u8>(0, 0)?;
            }
            Ok(())
        })
        .unwrap();
        // Receiver's clock includes latency + transfer time.
        assert!(out.vtimes[1] >= 105_000, "vtime {} too small", out.vtimes[1]);
        assert!(out.makespan_ns() >= 105_000);
    }

    #[test]
    fn ring_pass_under_one_worker_event_scheduler() {
        // A single worker slot forces full serialization through the gate:
        // any lost wakeup or missed park abort deadlocks this test.
        let spec = JobSpec::new(4).sched(SchedMode::EventDriven { workers: 1 });
        let out = launch(&spec, |ctx| {
            let me = ctx.rank();
            let n = ctx.nranks();
            ctx.send((me + 1) % n, 1, &[me as u64])?;
            let (vals, _) = ctx.recv::<u64>(((me + n - 1) % n) as i32, 1)?;
            Ok(vals[0])
        })
        .unwrap();
        assert_eq!(out.results, vec![3, 0, 1, 2]);
    }

    /// The process's current OS thread count.
    fn os_threads() -> usize {
        let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
        let line = status.lines().find(|l| l.starts_with("Threads:")).expect("Threads: line");
        line["Threads:".len()..].trim().parse().expect("thread count")
    }

    #[test]
    fn a_4096_rank_ring_runs_on_a_few_worker_threads() {
        // Concurrent tests in this binary own threads too; 4096 ranks as
        // OS threads would exceed this slack by two orders of magnitude.
        const SLACK: usize = 32;
        for workers in [1, 2] {
            let spec = JobSpec::new(4096).sched(SchedMode::EventDriven { workers });
            let peak = std::sync::atomic::AtomicUsize::new(0);
            let out = launch(&spec, |ctx| {
                let (me, n) = (ctx.rank(), ctx.nranks());
                ctx.send((me + 1) % n, 1, &[me as u64])?;
                if me % 512 == 0 {
                    peak.fetch_max(os_threads(), Ordering::Relaxed);
                }
                let (vals, _) = ctx.recv::<u64>(((me + n - 1) % n) as i32, 1)?;
                Ok(vals[0])
            })
            .unwrap();
            assert!(out.results.iter().enumerate().all(|(r, v)| *v as usize == (r + 4095) % 4096));
            let peak = peak.load(Ordering::Relaxed);
            assert!(peak <= workers + SLACK, "{peak} OS threads with {workers} worker(s)");
        }
    }

    #[test]
    fn a_rank_panic_leaves_the_stack_pool_usable() {
        let spec = JobSpec::new(3).sched(SchedMode::EventDriven { workers: 2 });
        let err = launch(&spec, |ctx| {
            if ctx.rank() == 1 {
                panic!("boom");
            }
            ctx.recv::<u64>(ANY_SOURCE, ANY_TAG).map(|_| ())
        })
        .unwrap_err();
        assert!(matches!(err, JobError::Panicked { rank: 1 }), "got {err:?}");
        let out = launch(&spec, |ctx| Ok(ctx.rank())).unwrap();
        assert_eq!(out.results, vec![0, 1, 2]);
    }

    #[test]
    fn half_a_mebibyte_of_recursion_fits_a_rank_stack() {
        const DEPTH: usize = 512 << 10;
        /// Recurse until `DEPTH` bytes of stack lie below `top`; returns
        /// the number of frames it took.
        fn deep(top: usize) -> usize {
            let frame = std::hint::black_box([1u8; 1024]);
            if top - frame.as_ptr() as usize >= DEPTH {
                return frame[0] as usize;
            }
            deep(top) + frame[1023] as usize
        }
        let out = launch(&JobSpec::new(2), |_| {
            let top = std::hint::black_box(0u8);
            Ok(deep(&top as *const u8 as usize))
        })
        .unwrap();
        assert!(out.results.iter().all(|frames| *frames > 1), "{:?}", out.results);
    }

    #[test]
    fn scheduler_detects_a_missing_send_deadlock() {
        // Rank 0 receives a message no one sends; rank 1 exits immediately.
        // The scheduler proves quiescence and poisons with the generic
        // deadlock verdict instead of hanging.
        let spec = JobSpec::new(2).sched(SchedMode::EventDriven { workers: 2 });
        let err = launch(&spec, |ctx| {
            if ctx.rank() == 0 {
                let _ = ctx.recv::<u64>(1, 1)?;
            }
            Ok(())
        })
        .unwrap_err();
        match err {
            JobError::Aborted { reason } => {
                assert!(reason.starts_with(crate::SCHED_DEADLOCK_MARKER), "reason: {reason}");
            }
            other => panic!("expected abort, got {other:?}"),
        }
    }

    #[test]
    fn reordering_job_still_correct_per_signature() {
        let spec = JobSpec::new(2).net(NetModel::reorder(99));
        let out = launch(&spec, |ctx| {
            if ctx.rank() == 0 {
                for i in 0..50u64 {
                    ctx.send(1, 3, &[i])?;
                }
                Ok(0)
            } else {
                let mut prev = None;
                for _ in 0..50 {
                    let (v, _) = ctx.recv::<u64>(0, 3)?;
                    if let Some(p) = prev {
                        assert!(v[0] > p);
                    }
                    prev = Some(v[0]);
                }
                Ok(prev.unwrap())
            }
        })
        .unwrap();
        assert_eq!(out.results[1], 49);
    }
}
