//! The rank scheduler: thread-per-rank (the determinism oracle) or
//! event-driven resumable rank tasks on a fixed worker pool.
//!
//! # The parking-points invariant
//!
//! A rank may block in exactly the places where the op clock already ticks:
//! a posted receive being waited on (`wait`/`wait_any`/`wait_some`, and the
//! blocking receives and collectives that lower to them) and credit
//! acquisition under a bounded mailbox. Because the op clock is a pure
//! function of the application's call sequence — polling calls do not tick —
//! moving *when* a rank runs (thread preemption vs. event-driven resumption)
//! cannot move *where* it blocks, so every `ChaosPlan` trace, every
//! piggyback stamp, and every committed recovery line is bit-for-bit
//! identical under both schedulers. `tests/sched_equivalence.rs` pins this
//! across a chaos seed sweep.
//!
//! # How event mode works
//!
//! Each rank still owns a (small-stack) carrier thread — its resumable
//! task's stack — but at most `workers` of them are runnable at once (the
//! `Gate`); the rest are parked on per-rank epoch `Parker`s and consume
//! no CPU. Parking replaces the old 200 µs progress polling: a blocked rank
//! sleeps until an event that can change its condition *wakes* it (a mailbox
//! delivery, a credit grant, rank completion, poison). At 4096 ranks the
//! polling scheme degenerates into ~20 M wakeups/s of pure overhead; the
//! event scheduler does work proportional to messages, which is what makes
//! the weak-scaling bench (`bench/src/bin/scaling.rs`) possible.
//!
//! The wake protocol is lost-wakeup-free by construction: a waiter samples
//! its epoch *before* re-checking its condition and commits to waiting only
//! if the epoch is unchanged; every waker makes the condition true before
//! bumping the epoch.
//!
//! # Wakeup coalescing and the spin-then-park fast path
//!
//! The epoch is the natural coalescing point: a sender flushing a batch of
//! envelopes bumps the destination's epoch once, and however many wakes race
//! in while a rank is runnable collapse into one epoch observation — the
//! `committed` flag guarantees at most one condvar notify per actual sleep.
//!
//! A futex round trip costs ~2.5 µs of thread handoff on the bench host;
//! a `yield_now` handoff costs ~0.6 µs. Small jobs (≤ `SPIN_RANK_CAP`
//! ranks, override with `C3_PARK_SPIN`; `0` disables) therefore spin-yield
//! a bounded number of times — watching the epoch atomic, *after* yielding
//! their worker slot — before committing to a condvar sleep. Tight
//! request/reply loops then run futex-free. The spin changes only where
//! time goes, never where a rank blocks: a spinning rank is still runnable,
//! and after the bound it falls into the exact committed-park path, so
//! quiescence detection and op clocks are untouched.
//!
//! # Exact quiescence detection
//!
//! Committed-blocked ranks are counted; the rank whose park would make
//! *every* live rank blocked does not wait — the scheduler reports global
//! quiescence instead and the network runs a deterministic deadlock
//! detective (flush withheld envelopes, re-check, then prove a send cycle or
//! poison with a diagnosable verdict). No wall-clock window is involved, so
//! deadlock verdicts are reproducible in chaos runs regardless of machine
//! load — the event-mode replacement for the thread-mode oracle's
//! `C3_STALL_MS` fallback.

use crate::Rank;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Jobs with at most this many ranks spin-yield before a condvar park.
const SPIN_RANK_CAP: usize = 8;
/// Bounded spin iterations (each one `yield_now` + an epoch load).
const DEFAULT_PARK_SPIN: u32 = 64;

fn park_spin_override() -> Option<u32> {
    static SPIN: OnceLock<Option<u32>> = OnceLock::new();
    *SPIN.get_or_init(|| std::env::var("C3_PARK_SPIN").ok().and_then(|v| v.parse().ok()))
}

/// How ranks of a job are scheduled onto OS threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedMode {
    /// One full OS thread per rank, blocking ops poll every 200 µs. The
    /// original scheduler, kept as the determinism oracle
    /// (`C3_SCHED=threads` forces it globally).
    ThreadPerRank,
    /// Ranks are resumable tasks on a fixed worker pool: at most `workers`
    /// ranks are runnable at once and blocked ranks park until an event
    /// wakes them. `workers: 0` means one worker per available CPU.
    EventDriven {
        /// Maximum concurrently-runnable ranks (0 = number of CPUs).
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

/// Per-rank epoch parker. The epoch (an atomic, so sampling it on the hot
/// path is lock-free) counts wakes; `committed` is true while the owning
/// rank is inside `cv.wait` (it is the quiescence-accounting truth: a rank
/// with a pending, not-yet-processed wake is *not* counted blocked, because
/// `wake` clears the flag synchronously). Epoch bumps happen under the
/// `committed` lock so the re-check inside the committed park is atomic.
struct Parker {
    epoch: AtomicU64,
    st: Mutex<ParkerState>,
    cv: Condvar,
}

struct ParkerState {
    committed: bool,
}

impl Parker {
    fn new() -> Self {
        Parker {
            epoch: AtomicU64::new(0),
            st: Mutex::new(ParkerState { committed: false }),
            cv: Condvar::new(),
        }
    }
}

/// Blocked/live accounting for quiescence detection. One mutex makes the
/// "last unblocked rank" determination exact: two ranks can never both
/// believe the other is still runnable.
struct Counts {
    blocked: usize,
    live: usize,
}

/// Admission gate: at most `workers` rank tasks are runnable at once.
/// Elided entirely (`None` in [`EventSched`]) when the worker pool covers
/// every rank, since the gate can then never block. The waiter count lets
/// `release` skip the condvar syscall when nobody is asleep — the common
/// case once parks spin-yield.
struct Gate {
    st: Mutex<GateState>,
    cv: Condvar,
}

struct GateState {
    free: usize,
    waiters: usize,
}

impl Gate {
    fn acquire(&self, spin: u32) {
        for _ in 0..spin {
            if let Some(mut st) = self.st.try_lock() {
                if st.free > 0 {
                    st.free -= 1;
                    return;
                }
            }
            std::thread::yield_now();
        }
        let mut st = self.st.lock();
        while st.free == 0 {
            st.waiters += 1;
            self.cv.wait(&mut st);
            st.waiters -= 1;
        }
        st.free -= 1;
    }

    fn release(&self) {
        let mut st = self.st.lock();
        st.free += 1;
        if st.waiters > 0 {
            self.cv.notify_one();
        }
    }
}

struct EventSched {
    parkers: Vec<Parker>,
    counts: Mutex<Counts>,
    gate: Option<Gate>,
    spin: u32,
}

/// The job's scheduler. In thread-per-rank mode every method is a cheap
/// no-op; in event mode it owns the parkers, the worker gate, and the
/// quiescence accounting.
pub(crate) struct Sched {
    ev: Option<EventSched>,
}

impl Sched {
    pub(crate) fn new(mode: SchedMode, nranks: usize) -> Self {
        let ev = match mode {
            SchedMode::ThreadPerRank => None,
            SchedMode::EventDriven { workers } => {
                let workers = if workers == 0 {
                    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
                } else {
                    workers
                };
                let spin = park_spin_override().unwrap_or(if nranks <= SPIN_RANK_CAP {
                    DEFAULT_PARK_SPIN
                } else {
                    0
                });
                Some(EventSched {
                    parkers: (0..nranks).map(|_| Parker::new()).collect(),
                    counts: Mutex::new(Counts { blocked: 0, live: nranks }),
                    gate: (workers < nranks).then(|| Gate {
                        st: Mutex::new(GateState { free: workers, waiters: 0 }),
                        cv: Condvar::new(),
                    }),
                    spin,
                })
            }
        };
        Sched { ev }
    }

    /// Is the event-driven scheduler active?
    #[inline]
    pub(crate) fn is_event(&self) -> bool {
        self.ev.is_some()
    }

    /// The rank's current wake epoch (0 in thread mode). Sample this
    /// *before* checking the blocking condition; pass it to [`Sched::park`].
    #[inline]
    pub(crate) fn epoch(&self, rank: Rank) -> u64 {
        match &self.ev {
            Some(ev) => ev.parkers[rank].epoch.load(Ordering::Acquire),
            None => 0,
        }
    }

    /// Wake `rank`: bump its epoch and release it if committed-blocked.
    /// Callers must make the rank's wake condition true *before* calling.
    pub(crate) fn wake(&self, rank: Rank) {
        if let Some(ev) = &self.ev {
            ev.wake(rank);
        }
    }

    /// Wake every rank (poison propagation).
    pub(crate) fn wake_all(&self) {
        if let Some(ev) = &self.ev {
            for rank in 0..ev.parkers.len() {
                ev.wake(rank);
            }
        }
    }

    /// Park `rank` until its epoch moves past `seen`, yielding its worker
    /// slot while blocked. Returns [`Parked::Quiescent`] instead of sleeping
    /// when this park would leave no live rank runnable.
    pub(crate) fn park(&self, rank: Rank, seen: u64) -> Parked {
        let Some(ev) = &self.ev else {
            return Parked::Ran;
        };
        let p = &ev.parkers[rank];
        if p.epoch.load(Ordering::Acquire) != seen {
            return Parked::Ran; // a wake raced the condition check
        }
        ev.gate_release();
        // Fast path: spin-yield watching the epoch before paying a futex
        // sleep. The worker slot is already yielded, so a peer can run.
        let mut out = None;
        for _ in 0..ev.spin {
            std::thread::yield_now();
            if p.epoch.load(Ordering::Acquire) != seen {
                out = Some(Parked::Ran);
                break;
            }
        }
        let out = out.unwrap_or_else(|| ev.park(rank, seen));
        ev.gate_acquire();
        out
    }

    /// Is `rank` committed-blocked in a park? Tests wait on this to force
    /// the interleaving they check.
    #[cfg(test)]
    pub(crate) fn is_parked(&self, rank: Rank) -> bool {
        self.ev.as_ref().is_some_and(|ev| ev.parkers[rank].st.lock().committed)
    }

    /// Take a worker slot (carrier-thread entry; no-op in thread mode).
    pub(crate) fn enter(&self) {
        if let Some(ev) = &self.ev {
            ev.gate_acquire();
        }
    }

    /// Return the worker slot (carrier-thread exit; no-op in thread mode).
    pub(crate) fn leave(&self) {
        if let Some(ev) = &self.ev {
            ev.gate_release();
        }
    }

    /// Mark a rank's task finished. Returns true when the remaining live
    /// ranks are all committed-blocked — the exiting rank was their last
    /// possible waker, so the caller must run the deadlock detective.
    pub(crate) fn rank_exit(&self) -> bool {
        match &self.ev {
            Some(ev) => {
                let mut c = ev.counts.lock();
                c.live -= 1;
                c.live > 0 && c.blocked == c.live
            }
            None => false,
        }
    }
}

impl EventSched {
    fn gate_acquire(&self) {
        if let Some(g) = &self.gate {
            g.acquire(self.spin);
        }
    }

    fn gate_release(&self) {
        if let Some(g) = &self.gate {
            g.release();
        }
    }

    fn park(&self, rank: Rank, seen: u64) -> Parked {
        let p = &self.parkers[rank];
        let mut st = p.st.lock();
        if p.epoch.load(Ordering::Acquire) != seen {
            return Parked::Ran; // woken while yielding the gate slot
        }
        {
            let mut c = self.counts.lock();
            c.blocked += 1;
            if c.blocked == c.live {
                c.blocked -= 1;
                return Parked::Quiescent;
            }
        }
        // Commit: from here a waker both bumps the epoch and clears the
        // flag (decrementing `blocked`), all under the parker lock we hold
        // until the wait releases it — no lost wakeup, no stale accounting.
        st.committed = true;
        while st.committed {
            p.cv.wait(&mut st);
        }
        Parked::Ran
    }

    fn wake(&self, rank: Rank) {
        let p = &self.parkers[rank];
        let mut st = p.st.lock();
        p.epoch.fetch_add(1, Ordering::Release);
        if st.committed {
            st.committed = false;
            self.counts.lock().blocked -= 1;
            p.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn thread_mode_is_inert() {
        let s = Sched::new(SchedMode::ThreadPerRank, 4);
        assert!(!s.is_event());
        assert_eq!(s.epoch(0), 0);
        assert_eq!(s.park(0, 0), Parked::Ran);
        assert!(!s.rank_exit());
    }

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
    fn park_sleeps_until_woken() {
        let s = Arc::new(Sched::new(SchedMode::EventDriven { workers: 2 }, 2));
        let turns = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            let (s1, t1) = (Arc::clone(&s), Arc::clone(&turns));
            scope.spawn(move || {
                s1.enter();
                let seen = s1.epoch(0);
                assert_eq!(s1.park(0, seen), Parked::Ran);
                t1.fetch_add(1, Ordering::SeqCst);
                s1.leave();
            });
            let (s2, t2) = (Arc::clone(&s), Arc::clone(&turns));
            scope.spawn(move || {
                s2.enter();
                std::thread::sleep(std::time::Duration::from_millis(20));
                assert_eq!(t2.load(Ordering::SeqCst), 0, "rank 0 must stay parked");
                s2.wake(0);
                s2.leave();
            });
        });
        assert_eq!(turns.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn last_unblocked_rank_observes_quiescence() {
        let s = Arc::new(Sched::new(SchedMode::EventDriven { workers: 2 }, 2));
        std::thread::scope(|scope| {
            let s1 = Arc::clone(&s);
            let h = scope.spawn(move || {
                s1.enter();
                let seen = s1.epoch(0);
                let out = s1.park(0, seen);
                s1.leave();
                out
            });
            // Wait until rank 0 is committed-blocked, then rank 1's park
            // must not sleep: it is the last runnable rank. (Parking before
            // rank 0 commits would itself commit — and nothing ever wakes
            // rank 1 — so the wait must watch the committed flag, not race
            // the park.)
            let s2 = Arc::clone(&s);
            s2.enter();
            while !s2.is_parked(0) {
                std::thread::yield_now();
            }
            let seen = s2.epoch(1);
            assert_eq!(s2.park(1, seen), Parked::Quiescent);
            s2.wake(0);
            s2.leave();
            assert_eq!(h.join().unwrap(), Parked::Ran);
        });
    }

    #[test]
    fn rank_exit_reports_quiescence_of_the_remainder() {
        let s = Arc::new(Sched::new(SchedMode::EventDriven { workers: 2 }, 2));
        std::thread::scope(|scope| {
            let s1 = Arc::clone(&s);
            let h = scope.spawn(move || {
                s1.enter();
                let seen = s1.epoch(0);
                let out = s1.park(0, seen);
                s1.leave();
                out
            });
            // Wait until rank 0 commits, then "exit" rank 1: the exit must
            // flag that everyone left alive is blocked. (Parking rank 1 to
            // detect this would commit rank 1 forever if it won the race,
            // so watch the committed flag directly.)
            while !s.is_parked(0) {
                std::thread::yield_now();
            }
            assert!(s.rank_exit(), "rank 0 is blocked; exiting rank 1 must report quiescence");
            s.wake(0);
            assert_eq!(h.join().unwrap(), Parked::Ran);
        });
    }

    #[test]
    fn gate_admits_at_most_workers() {
        let s = Arc::new(Sched::new(SchedMode::EventDriven { workers: 1 }, 3));
        let inside = Arc::new(AtomicU64::new(0));
        let peak = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let (s, inside, peak) = (Arc::clone(&s), Arc::clone(&inside), Arc::clone(&peak));
                scope.spawn(move || {
                    s.enter();
                    let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    inside.fetch_sub(1, Ordering::SeqCst);
                    s.leave();
                });
            }
        });
        assert_eq!(peak.load(Ordering::SeqCst), 1, "one worker slot must serialize the tasks");
    }

    #[test]
    fn gate_is_elided_when_workers_cover_ranks() {
        let s = Sched::new(SchedMode::EventDriven { workers: 4 }, 3);
        let ev = s.ev.as_ref().unwrap();
        assert!(ev.gate.is_none(), "a gate that can never block must not exist");
        // enter/leave must still be callable no-ops.
        s.enter();
        s.leave();
    }
}
