//! The rank scheduler: rank coroutines on a fixed worker pool.
//!
//! # The parking-points invariant
//!
//! A rank may block in exactly the places where the op clock already ticks:
//! a posted receive being waited on (`wait`/`wait_any`, and the blocking
//! receives and collectives that lower to them, all in the one loop
//! `RankCtx::block_until`) and credit acquisition under a bounded mailbox.
//! Because the op clock is a pure function of the application's call
//! sequence — polling calls do not tick — moving *when* a rank runs cannot
//! move *where* it blocks. `workers: 1` is
//! the reference schedule (one OS thread resuming ranks in ready-queue
//! order); `workers: nranks` runs every rank at once on preempted OS threads.
//! That purity is the substrate's: a raw job's results and op clocks are
//! bit-identical between the two. A protocol layer that *polls* (as `c3`
//! polls its control plane) can turn a schedule-dependent poll result into
//! different definite operations, so on fault networks, where the release
//! of withheld traffic follows the schedule, `tests/sched_equivalence.rs`
//! pins only result equality for protocol runs; on reliable and
//! tight-mailbox networks it still finds their op clocks equal too.
//!
//! # Parking and waking
//!
//! Each rank is a stackful coroutine (`coro.rs`) on a pooled 1 MiB stack,
//! run by `W = min(workers, nranks)` OS threads scoped to the launch. A
//! blocked rank *parks*: it switches back to its worker, which picks the
//! next runnable rank. A parked rank costs no CPU and no OS thread until an
//! event that can change its condition *wakes* it (a mailbox delivery, a
//! withhold, a credit grant, rank completion, poison) and queues it again.
//! The scheduler does work proportional to messages, which is what makes the
//! weak-scaling bench (`bench/src/bin/scaling.rs`) possible.
//!
//! Every worker owns a FIFO of runnable ranks. Rank `r` has the fixed *home*
//! worker `r * W / nranks`, so contiguous ranks share one: halo neighbours
//! and the low levels of the binomial collective trees stay on one core. A
//! wake, or the re-queue of a rank woken while it switched out, pushes to
//! the back of the rank's home FIFO. A worker pops the front of its own FIFO
//! first; when that is empty it *steals* the oldest rank of another worker's
//! FIFO. On `workers: 1` there is one FIFO, pushed at the back and popped at
//! the front: the serial reference schedule, pinned by a unit test. A push
//! or pop takes one queue's mutex; the one shared mutex is the sleep mutex,
//! taken only to sleep or to notify a sleeping worker.
//!
//! The wake protocol is lost-wakeup-free by construction: a waiter samples
//! its epoch *before* re-checking its condition and commits to waiting only
//! if the epoch is unchanged; every waker makes the condition true before
//! bumping the epoch. Racing wakes coalesce: however many land while a rank
//! is runnable, they cost it one epoch observation.
//!
//! A rank's state (`Running | Parking | Parked | Woken | Done`) lives under
//! its own mutex. `park` commits (`Running → Parking`) and switches out;
//! only once the switch has completed does the worker turn `Parking →
//! Parked`. A wake that arrives during the switch marks the rank `Woken`
//! and the *worker* re-queues it after the switch — so a rank is in at most
//! one queue and no two workers ever enter one stack, stealing or not.
//!
//! An idle worker spin-yields a bounded number of times over every queue's
//! length before it sleeps, which keeps tight request/reply handoffs
//! futex-free. The sleep check is Dekker-ordered, so no wakeup of a worker
//! is lost either: a sleeper counts itself in `sleepers` and *then* scans
//! every queue's length; a pusher raises its queue's length and *then*
//! reads `sleepers`. All four accesses are sequentially consistent, so
//! either the sleeper's scan sees the rank or the pusher sees the sleeper
//! and notifies it. The sleeper counts, scans and waits under the sleep
//! mutex, which the pusher takes to notify, so the notify cannot fall
//! between the scan and the wait.
//!
//! # Exact quiescence detection
//!
//! One atomic word holds `live << 32 | blocked`: ranks not yet exited and
//! committed-blocked ranks. The rank whose park would make *every* live
//! rank blocked does not park — its compare-and-swap refuses `blocked + 1 ==
//! live`, and the scheduler reports global quiescence instead, so the
//! network runs a deterministic deadlock detective (flush withheld
//! envelopes, re-check, then prove a send cycle or poison with a diagnosable
//! verdict). A wake un-counts a committed-blocked rank with one `fetch_sub`,
//! and an exiting rank drops `live` with another. Every update is a
//! read-modify-write of the one word, so the two counts move through one
//! order of values and two ranks can never both believe the other is still
//! runnable. No wall-clock window is involved, so deadlock verdicts do not
//! depend on machine load.

use crate::coro::{self, Sp, Stack};
use crate::{CachePadded, Rank};
use parking_lot::{Condvar, Mutex};
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Bounded idle spin of a worker (each one `yield_now` plus a scan of the
/// queue lengths) before it sleeps.
const IDLE_SPIN: u32 = 64;

/// One live rank in the quiescence word; the low 32 bits count blocked ranks.
const LIVE: u64 = 1 << 32;

/// How ranks of a job are scheduled onto OS threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedMode {
    /// Ranks are stackful coroutines on `workers` OS threads: blocked ranks
    /// park until an event wakes them. `workers: 0` means one worker per
    /// available CPU; `workers: 1` is the serial reference schedule.
    EventDriven {
        /// Worker threads running rank coroutines (0 = number of CPUs).
        workers: usize,
    },
}

impl Default for SchedMode {
    fn default() -> Self {
        SchedMode::EventDriven { workers: 0 }
    }
}

/// What a park attempt observed.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Parked {
    /// Either a wake consumed the attempt or the rank slept and was woken:
    /// re-check the condition.
    Ran,
    /// This rank is the last unblocked live rank and its epoch is unchanged:
    /// the job is quiescent. The caller must run the deadlock detective.
    Quiescent,
}

/// Where a rank coroutine is in its life. `Parking` and `Parked` are the
/// committed-blocked states counted in [`Sched::quiet`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    /// On a worker.
    Running,
    /// Committed to a park, still switching out of its worker.
    Parking,
    /// Switched out; a wake must queue it.
    Parked,
    /// Runnable and queued (or about to be re-queued by the worker that is
    /// finishing its switch out).
    Woken,
    /// Returned from its body; its stack is recycled.
    Done,
}

/// One rank coroutine. The epoch (an atomic, so sampling it on the hot path
/// is lock-free) counts wakes; epoch bumps happen under `st` so the
/// re-check inside a committing park is atomic.
struct Task {
    epoch: AtomicU64,
    st: Mutex<State>,
    /// Set while a worker runs this rank: entering a stack twice panics,
    /// and parking off the rank's own coroutine is refused.
    on_cpu: AtomicBool,
    /// The suspended coroutine's stack pointer.
    sp: UnsafeCell<Sp>,
    /// The save slot of the worker running this rank.
    worker: UnsafeCell<*mut Sp>,
    /// Mapped at first resume, recycled at `Done`.
    stack: UnsafeCell<Option<Stack>>,
}

// SAFETY: the `UnsafeCell` fields are touched only by the worker that owns
// the rank's execution — between popping it (`Woken → Running` under `st`)
// and observing its switch out (under `st` again) — and by the coroutine
// itself while it runs on that worker. The `st` transitions and the queue
// mutexes order every hand-off between workers; `on_cpu` checks it.
// The raw pointers name a stack and a worker slot, neither tied to the
// thread that created the `Task`.
unsafe impl Sync for Task {}
// SAFETY: as for `Sync`.
unsafe impl Send for Task {}

/// One worker's FIFO of runnable ranks. `len` mirrors the deque so idle
/// workers can scan every queue without its lock.
#[derive(Default)]
struct Queue {
    ranks: Mutex<VecDeque<Rank>>,
    len: AtomicUsize,
}

/// The runnable ranks, one FIFO per worker, and the sleep of idle workers.
struct Ready {
    queues: Vec<CachePadded<Queue>>,
    /// Idle workers wait on `cv` under `idle`; `sleepers` counts them so a
    /// push skips the lock and the notify syscall when none sleeps.
    idle: Mutex<()>,
    cv: Condvar,
    sleepers: CachePadded<AtomicUsize>,
    /// Ranks not yet `Done`; workers exit when it reaches zero.
    remaining: CachePadded<AtomicUsize>,
}

/// The job's scheduler: the rank coroutines, the ready queues, and the
/// quiescence accounting.
pub(crate) struct Sched {
    /// Padded: a rank's wakers and its worker may be on different cores.
    tasks: Vec<CachePadded<Task>>,
    /// `live << 32 | blocked`, see "Exact quiescence detection".
    quiet: CachePadded<AtomicU64>,
    ready: Ready,
}

impl Sched {
    pub(crate) fn new(mode: SchedMode, nranks: usize) -> Self {
        let SchedMode::EventDriven { workers } = mode;
        let workers = if workers == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            workers
        };
        let sched = Sched {
            tasks: (0..nranks)
                .map(|_| Task {
                    epoch: AtomicU64::new(0),
                    st: Mutex::new(State::Woken),
                    on_cpu: AtomicBool::new(false),
                    sp: UnsafeCell::new(std::ptr::null_mut()),
                    worker: UnsafeCell::new(std::ptr::null_mut()),
                    stack: UnsafeCell::new(None),
                })
                .map(CachePadded)
                .collect(),
            quiet: CachePadded(AtomicU64::new(nranks as u64 * LIVE)),
            ready: Ready {
                queues: (0..workers.min(nranks).max(1)).map(|_| CachePadded::default()).collect(),
                idle: Mutex::new(()),
                cv: Condvar::new(),
                sleepers: CachePadded(AtomicUsize::new(0)),
                remaining: CachePadded(AtomicUsize::new(nranks)),
            },
        };
        for rank in 0..nranks {
            sched.push(rank);
        }
        sched
    }

    /// Run `body(rank)` for every rank as coroutines on the worker pool and
    /// return when all have finished. `body` must not unwind (see
    /// [`crate::coro`]). Call once per scheduler.
    pub(crate) fn run_tasks(&self, body: &(dyn Fn(Rank) + Sync)) {
        let boots: Vec<Boot> =
            (0..self.tasks.len()).map(|rank| Boot { sched: self, body, rank }).collect();
        std::thread::scope(|s| {
            for me in 1..self.ready.queues.len() {
                let boots = &boots;
                s.spawn(move || self.work(boots, me));
            }
            self.work(&boots, 0);
        });
    }

    /// The rank's current wake epoch. Sample this *before* checking the
    /// blocking condition; pass it to [`Sched::park`].
    #[inline]
    pub(crate) fn epoch(&self, rank: Rank) -> u64 {
        self.tasks[rank].epoch.load(Ordering::Acquire)
    }

    /// Wake `rank`: bump its epoch and queue it if committed-blocked.
    /// Callers must make the rank's wake condition true *before* calling.
    pub(crate) fn wake(&self, rank: Rank) {
        let t = &self.tasks[rank];
        let mut st = t.st.lock();
        t.epoch.fetch_add(1, Ordering::Release);
        let prev = *st;
        if matches!(prev, State::Parking | State::Parked) {
            *st = State::Woken;
            self.quiet.fetch_sub(1, Ordering::AcqRel);
        }
        drop(st);
        if prev == State::Parked {
            self.push(rank);
        }
    }

    /// Wake every rank (poison propagation).
    pub(crate) fn wake_all(&self) {
        for rank in 0..self.tasks.len() {
            self.wake(rank);
        }
    }

    /// Park `rank` — from its own coroutine — until its epoch moves past
    /// `seen`, handing its worker to the next runnable rank. Returns
    /// [`Parked::Quiescent`] instead of parking when this park would leave
    /// no live rank runnable.
    pub(crate) fn park(&self, rank: Rank, seen: u64) -> Parked {
        let t = &self.tasks[rank];
        if t.epoch.load(Ordering::Acquire) != seen {
            return Parked::Ran; // a wake raced the condition check
        }
        assert!(t.on_cpu.load(Ordering::Relaxed), "rank {rank} parked off its own coroutine");
        {
            let mut st = t.st.lock();
            if t.epoch.load(Ordering::Acquire) != seen {
                return Parked::Ran;
            }
            let counted = self.quiet.fetch_update(Ordering::AcqRel, Ordering::Acquire, |q| {
                (q % LIVE + 1 != q / LIVE).then_some(q + 1)
            });
            if counted.is_err() {
                return Parked::Quiescent;
            }
            // Commit: from here a waker bumps the epoch and un-counts the
            // rank under `st`; the worker re-queues it once we are off the
            // stack (`Woken`) or a later wake queues it (`Parked`).
            *st = State::Parking;
        }
        // SAFETY: we run on this rank's coroutine (`on_cpu`), holding no
        // lock; `worker` is the save slot of the worker that resumed us, which
        // stays suspended in `work` until we switch back. Our own context is
        // resumed only after that worker has seen `Parking` turn into a
        // queue entry.
        unsafe { coro::switch(t.sp.get(), **t.worker.get()) };
        Parked::Ran
    }

    /// Is `rank` committed-blocked in a park? Tests wait on this to force
    /// the interleaving they check.
    #[cfg(test)]
    pub(crate) fn is_parked(&self, rank: Rank) -> bool {
        matches!(*self.tasks[rank].st.lock(), State::Parking | State::Parked)
    }

    /// Mark a rank's task finished. Returns true when the remaining live
    /// ranks are all committed-blocked — the exiting rank was their last
    /// possible waker, so the caller must run the deadlock detective.
    pub(crate) fn rank_exit(&self) -> bool {
        let q = self.quiet.fetch_sub(LIVE, Ordering::AcqRel) - LIVE;
        let live = q / LIVE;
        live > 0 && q % LIVE == live
    }

    /// Queue a runnable rank at the back of its home worker's FIFO.
    fn push(&self, rank: Rank) {
        let home = rank * self.ready.queues.len() / self.tasks.len();
        self.ready.push(home, rank);
    }

    /// Worker `me`: resume runnable ranks until every rank is `Done`.
    fn work(&self, boots: &[Boot<'_>], me: usize) {
        let mut saved: Sp = std::ptr::null_mut();
        let slot: *mut Sp = &mut saved;
        while let Some(rank) = self.ready.pop(me) {
            let t = &self.tasks[rank];
            *t.st.lock() = State::Running;
            assert!(!t.on_cpu.swap(true, Ordering::Acquire), "rank {rank}'s stack entered twice");
            // SAFETY: popping the rank made this worker the owner of its
            // cells (see `Task`); its stack is either fresh or holds a context
            // suspended by `switch`, entered by no one else (`on_cpu`).
            unsafe {
                let stack = &mut *t.stack.get();
                if stack.is_none() {
                    let boot = &boots[rank] as *const Boot<'_> as *mut u8;
                    *t.sp.get() = stack.insert(Stack::take()).prepare(rank_main, boot);
                }
                *t.worker.get() = slot;
                coro::switch(slot, *t.sp.get());
            }
            t.on_cpu.store(false, Ordering::Release);
            let mut st = t.st.lock();
            match *st {
                State::Parking => *st = State::Parked,
                State::Woken => {
                    drop(st);
                    self.push(rank);
                }
                State::Done => {
                    drop(st);
                    // SAFETY: the coroutine is `Done` and off its stack.
                    if let Some(stack) = unsafe { (*t.stack.get()).take() } {
                        stack.recycle();
                    }
                    self.ready.finish_one();
                }
                s @ (State::Running | State::Parked) => {
                    unreachable!("rank {rank} switched out in state {s:?}")
                }
            }
        }
    }
}

/// A coroutine's entry argument: everything its first resume needs.
struct Boot<'a> {
    sched: &'a Sched,
    body: &'a (dyn Fn(Rank) + Sync),
    rank: Rank,
}

extern "C" fn rank_main(arg: *mut u8) -> ! {
    // SAFETY: `arg` is this rank's `Boot`, which `run_tasks` keeps alive
    // until every worker has returned, i.e. until every rank is `Done`.
    let boot = unsafe { &*(arg as *const Boot<'_>) };
    (boot.body)(boot.rank);
    let t = &boot.sched.tasks[boot.rank];
    *t.st.lock() = State::Done;
    // SAFETY: as in `park`; a `Done` context is never resumed, and its
    // stack is recycled only after this switch completed.
    unsafe { coro::switch(t.sp.get(), **t.worker.get()) };
    unreachable!("a finished rank coroutine was resumed");
}

impl Ready {
    /// Push `rank` at the back of worker `w`'s FIFO and wake a sleeping
    /// worker if there is one; any worker may run it.
    fn push(&self, w: usize, rank: Rank) {
        let q = &self.queues[w];
        let mut ranks = q.ranks.lock();
        ranks.push_back(rank);
        q.len.fetch_add(1, Ordering::SeqCst);
        drop(ranks);
        // Dekker with the sleeper in `pop`: length up, then `sleepers` read.
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _idle = self.idle.lock();
            self.cv.notify_one();
        }
    }

    /// The next rank for worker `me`, or `None` once every rank is `Done`.
    fn pop(&self, me: usize) -> Option<Rank> {
        let mut spins = 0;
        loop {
            if let Some(rank) = self.take(me) {
                return Some(rank);
            }
            if self.remaining.load(Ordering::Acquire) == 0 {
                return None;
            }
            if spins < IDLE_SPIN {
                spins += 1;
                std::thread::yield_now();
                continue;
            }
            let mut idle = self.idle.lock();
            // Dekker with `push`: `sleepers` up, then every length read.
            self.sleepers.fetch_add(1, Ordering::SeqCst);
            if self.remaining.load(Ordering::Acquire) > 0
                && self.queues.iter().all(|q| q.len.load(Ordering::SeqCst) == 0)
            {
                self.cv.wait(&mut idle);
            }
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// The front of worker `me`'s own FIFO, else the oldest rank stolen from
    /// another worker's, scanning from `me + 1` on.
    fn take(&self, me: usize) -> Option<Rank> {
        let n = self.queues.len();
        (me..me + n).find_map(|w| {
            let q = &self.queues[w % n];
            if q.len.load(Ordering::Acquire) == 0 {
                return None;
            }
            let rank = q.ranks.lock().pop_front()?;
            q.len.fetch_sub(1, Ordering::Relaxed);
            Some(rank)
        })
    }

    /// A rank reached `Done`; the last one releases every idle worker.
    fn finish_one(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _idle = self.idle.lock();
            self.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::{Duration, Instant};

    #[test]
    fn wake_before_park_is_not_lost() {
        let s = Sched::new(SchedMode::EventDriven { workers: 2 }, 2);
        let seen = s.epoch(0);
        s.wake(0); // condition became true before the park
        assert_eq!(s.park(0, seen), Parked::Ran);
    }

    #[test]
    fn coalesced_wakes_cost_one_epoch_observation() {
        let s = Sched::new(SchedMode::EventDriven { workers: 2 }, 2);
        let seen = s.epoch(0);
        // A batch flush wakes once; racing wakes while runnable coalesce:
        // however many bumps land, one park observes them all.
        s.wake(0);
        s.wake(0);
        s.wake(0);
        assert_eq!(s.park(0, seen), Parked::Ran);
        let seen = s.epoch(0);
        assert_eq!(seen, 3);
        s.wake(0);
        assert_eq!(s.park(0, seen), Parked::Ran);
    }

    #[test]
    fn last_unblocked_rank_observes_quiescence() {
        // One worker serializes the ranks: rank 0 runs first and parks,
        // then rank 1 — the last runnable rank — must not park.
        let s = Sched::new(SchedMode::EventDriven { workers: 1 }, 2);
        let outs = [AtomicU64::new(9), AtomicU64::new(9)];
        s.run_tasks(&|rank| {
            let seen = s.epoch(rank);
            if rank == 0 {
                let out = s.park(0, seen);
                outs[0].store((out == Parked::Quiescent) as u64, Ordering::SeqCst);
            } else {
                let out = s.park(1, seen);
                outs[1].store((out == Parked::Quiescent) as u64, Ordering::SeqCst);
                s.wake(0);
            }
            s.rank_exit();
        });
        assert_eq!(outs[0].load(Ordering::SeqCst), 0, "rank 0 parked and was woken");
        assert_eq!(outs[1].load(Ordering::SeqCst), 1, "rank 1 must observe quiescence");
    }

    #[test]
    fn rank_exit_reports_quiescence_of_the_remainder() {
        let s = Sched::new(SchedMode::EventDriven { workers: 1 }, 2);
        let reported = AtomicBool::new(false);
        s.run_tasks(&|rank| {
            if rank == 0 {
                let seen = s.epoch(0);
                assert_eq!(s.park(0, seen), Parked::Ran);
            } else {
                // Rank 0 is parked: exiting rank 1 leaves only blocked ranks.
                reported.store(s.rank_exit(), Ordering::SeqCst);
                s.wake(0);
                return;
            }
            s.rank_exit();
        });
        assert!(reported.load(Ordering::SeqCst), "exiting rank 1 must report quiescence");
    }

    #[test]
    fn at_most_workers_ranks_run_at_once() {
        let s = Sched::new(SchedMode::EventDriven { workers: 2 }, 6);
        let (inside, peak) = (AtomicU64::new(0), AtomicU64::new(0));
        s.run_tasks(&|_| {
            let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            for _ in 0..100 {
                std::thread::yield_now();
            }
            inside.fetch_sub(1, Ordering::SeqCst);
            s.rank_exit();
        });
        assert!(peak.load(Ordering::SeqCst) <= 2, "two workers ran more than two ranks");
    }

    /// The wake-during-switch-out race: two ranks hand a token back and
    /// forth on two workers, so wakes routinely land while the waker's peer
    /// is still switching out. `on_cpu` panics if a stack is ever entered
    /// by two workers at once.
    #[test]
    fn ping_pong_handoffs_never_enter_a_stack_twice() {
        const HANDOFFS: u64 = 100_000;
        let s = Sched::new(SchedMode::EventDriven { workers: 2 }, 2);
        let turn = AtomicU64::new(0);
        s.run_tasks(&|rank| {
            let peer = 1 - rank;
            loop {
                let seen = s.epoch(rank);
                let t = turn.load(Ordering::SeqCst);
                if t >= HANDOFFS {
                    break;
                }
                if t % 2 == rank as u64 {
                    turn.store(t + 1, Ordering::SeqCst);
                    s.wake(peer);
                } else {
                    assert_eq!(s.park(rank, seen), Parked::Ran, "the peer always wakes us");
                }
            }
            s.rank_exit();
            s.wake(peer);
        });
        assert_eq!(turn.load(Ordering::SeqCst), HANDOFFS);
    }

    /// The same race across homes: on two workers, ranks 0 and 1 live on
    /// worker 0 and ranks 2 and 3 on worker 1, and the pairs (0, 2) and
    /// (1, 3) each hand a token back and forth. Every wake crosses homes, so
    /// it lands from the foreign worker, often while the woken rank is still
    /// switching out, and either worker may steal it.
    #[test]
    fn cross_home_handoffs_never_enter_a_stack_twice() {
        const HANDOFFS: u64 = 50_000;
        let s = Sched::new(SchedMode::EventDriven { workers: 2 }, 4);
        assert_eq!(*s.ready.queues[0].ranks.lock(), [0, 1]);
        let turns = [AtomicU64::new(0), AtomicU64::new(0)];
        s.run_tasks(&|rank| {
            let (peer, turn) = ((rank + 2) % 4, &turns[rank % 2]);
            loop {
                let seen = s.epoch(rank);
                let t = turn.load(Ordering::SeqCst);
                if t >= HANDOFFS {
                    break;
                }
                if t % 2 == (rank / 2) as u64 {
                    turn.store(t + 1, Ordering::SeqCst);
                    s.wake(peer);
                } else {
                    assert_eq!(s.park(rank, seen), Parked::Ran, "the peer always wakes us");
                }
            }
            s.rank_exit();
            s.wake(peer);
        });
        assert!(turns.iter().all(|t| t.load(Ordering::SeqCst) == HANDOFFS));
    }

    /// An idle worker steals from a busy home. On two workers, ranks 0 and 1
    /// share home 0 and each spins, without parking, until the other has
    /// started; ranks 2 and 3 on worker 1 exit at once. The spinners meet
    /// only if worker 1 steals one of them while worker 0 runs the other.
    #[test]
    fn an_idle_worker_steals_from_a_busy_home() {
        let s = Sched::new(SchedMode::EventDriven { workers: 2 }, 4);
        assert_eq!(*s.ready.queues[0].ranks.lock(), [0, 1]);
        let started = [AtomicBool::new(false), AtomicBool::new(false)];
        let stuck = AtomicBool::new(false);
        let deadline = Instant::now() + Duration::from_secs(30);
        s.run_tasks(&|rank| {
            if rank < 2 {
                started[rank].store(true, Ordering::SeqCst);
                while !started[1 - rank].load(Ordering::SeqCst) {
                    if Instant::now() > deadline {
                        stuck.store(true, Ordering::SeqCst);
                        break;
                    }
                    std::thread::yield_now();
                }
            }
            s.rank_exit();
        });
        assert!(!stuck.load(Ordering::SeqCst), "no idle worker stole from home 0 in 30 s");
    }

    /// The serial reference schedule, pinned. On one worker, four ranks pass
    /// a token around a ring; the holder also wakes the rank two ahead, so
    /// parked, queued and already-runnable ranks all take wakes. The order in
    /// which the worker resumes ranks is hard-coded: a ready-queue change
    /// that reorders `workers: 1` (a run-next slot, a LIFO pop) fails here.
    #[test]
    fn serial_schedule_resume_order_is_pinned() {
        const N: usize = 4;
        const PASSES: u64 = 12;
        let s = Sched::new(SchedMode::EventDriven { workers: 1 }, N);
        let token = AtomicU64::new(0);
        let resumed = Mutex::new(Vec::new());
        s.run_tasks(&|rank| {
            resumed.lock().push(rank);
            loop {
                let seen = s.epoch(rank);
                let t = token.load(Ordering::SeqCst);
                if t >= PASSES {
                    break;
                }
                if t % N as u64 == rank as u64 {
                    token.store(t + 1, Ordering::SeqCst);
                    s.wake((rank + 1) % N);
                    s.wake((rank + 2) % N);
                } else {
                    // One worker: nothing can move the epoch before the
                    // park, so an unchanged epoch means a real switch out.
                    let switches = s.epoch(rank) == seen;
                    assert_eq!(s.park(rank, seen), Parked::Ran);
                    if switches {
                        resumed.lock().push(rank);
                    }
                }
            }
            s.rank_exit();
            s.wake((rank + 1) % N);
        });
        assert_eq!(token.load(Ordering::SeqCst), PASSES);
        assert_eq!(*resumed.lock(), [0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2]);
    }
}
