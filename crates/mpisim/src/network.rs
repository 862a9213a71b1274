//! The shared network: cluster timing models, the fault-and-delivery
//! models, bounded-mailbox backpressure, and job poisoning (fail-stop
//! propagation).
//!
//! Delivery is one pipeline: [`Network::send`] takes a credit, then
//! `inject` (due holds, fate) → `deliver`, the only caller of
//! [`Mailbox::deliver_batch`] (duplicate filter, one mailbox lock, one
//! wake). The network faults have **one** hold stage: a per-destination
//! queue of withheld envelopes, filled by one pure fate hash (a drop, or
//! under [`NetModel::reorder`] a hold) and by head-of-line blocking behind a
//! withheld same-signature predecessor, and emptied from its head as holds
//! come due. [`Network::nudge`] drains the queue through `deliver` and
//! returns how many envelopes it delivered: at proven quiescence only the
//! deadlock detective can deliver, so its own flush's count tells it whether
//! anything moved. Locks nest fault → dedup → mailbox → credit ledger; the
//! credit ledger of a bounded mailbox is one lock for the job.

use crate::envelope::Envelope;
use crate::error::MpiError;
use crate::mailbox::Mailbox;
use crate::sched::{Parked, Sched};
use crate::world::JobSpec;
use crate::{CachePadded, Fx, Rank};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Virtual-time cost model of an interconnect, in the style of the paper's
/// evaluation platforms (§6). Costs feed the per-rank virtual clocks, not
/// wall-clock sleeps, so simulations stay fast while still exposing the
/// platform-dependent *shape* of communication cost.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClusterModel {
    /// Human-readable platform name (shows up in reports).
    pub name: &'static str,
    /// One-way message latency in nanoseconds.
    pub latency_ns: u64,
    /// Bandwidth in bytes per microsecond (i.e. MB/s).
    pub bytes_per_us: u64,
    /// Per-message CPU cost at the sender in nanoseconds (injection
    /// overhead).
    pub send_overhead_ns: u64,
}

impl ClusterModel {
    /// Lemieux (PSC): Alphaserver ES45 nodes, Quadrics interconnect.
    pub fn lemieux() -> Self {
        ClusterModel {
            name: "Lemieux",
            latency_ns: 5_000,
            bytes_per_us: 250,
            send_overhead_ns: 900,
        }
    }

    /// Velocity 2 (CTC): Pentium 4 Xeon nodes, Force10 Gigabit Ethernet.
    pub fn velocity2() -> Self {
        ClusterModel {
            name: "Velocity2",
            latency_ns: 60_000,
            bytes_per_us: 100,
            send_overhead_ns: 4_000,
        }
    }

    /// CMI (CTC): Pentium 3 nodes, Giganet switch.
    pub fn cmi() -> Self {
        ClusterModel { name: "CMI", latency_ns: 40_000, bytes_per_us: 100, send_overhead_ns: 3_000 }
    }

    /// An idealized zero-cost network (useful in unit tests).
    pub fn ideal() -> Self {
        ClusterModel { name: "ideal", latency_ns: 0, bytes_per_us: u64::MAX, send_overhead_ns: 0 }
    }

    /// Virtual transfer time for a payload of `bytes`.
    #[inline]
    pub fn transfer_ns(&self, bytes: usize) -> u64 {
        if self.bytes_per_us == u64::MAX {
            return 0;
        }
        self.latency_ns + (bytes as u64 * 1_000) / self.bytes_per_us
    }
}

/// The complete fault-and-delivery model of the interconnect: cross-signature
/// reordering plus transport-level message **drop** and **duplication**.
///
/// MPI itself is reliable, so the faults model the transport *below* it and
/// come with the recovery machinery real stacks have:
///
/// * a **dropped** message is retransmitted, and a **reordered** one is held
///   back: either way it waits in the destination's hold queue for a fixed
///   number of later deliveries (head-of-line blocking any same-signature
///   successor, as a reliable transport must) and is then injected, so
///   delivery timing and cross-signature order are perturbed, per-signature
///   FIFO survives and nothing is lost;
/// * a **duplicated** message is injected twice; the receive side suppresses
///   the second copy by `(source, sequence)` — tolerate, not re-deliver —
///   so matching stays exactly-once.
///
/// Every fault decision is a *pure function* of `(seed, signature, seq)`
/// (no shared RNG stream), so which messages fault is independent of thread
/// interleaving: the same seed faults the same messages on every run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetModel {
    /// Cross-signature reordering: hold back a seeded share of the
    /// envelopes no other fault touches.
    pub reorder: bool,
    /// Per-message drop (retransmit) probability in permille (0..=1000).
    pub drop_permille: u32,
    /// Per-message duplication probability in permille (0..=1000).
    pub dup_permille: u32,
    /// Seed of the fate hash.
    pub seed: u64,
    /// Per-destination mailbox capacity for **application** traffic
    /// (bounded-buffer backpressure). `None` models MPI's idealized
    /// unbounded buffered send; `Some(c)` admits at most `c` unclaimed
    /// application messages per destination — further senders park on a
    /// FIFO credit waitlist until the receiver drains a slot. Internal
    /// traffic (collective shadow communicators, the control plane) is
    /// library traffic with its own progress guarantee and bypasses the
    /// bound. A send cycle among parked ranks poisons the job with a
    /// [`crate::BACKPRESSURE_DEADLOCK_MARKER`] reason instead of hanging.
    pub mailbox_capacity: Option<usize>,
}

impl NetModel {
    /// A reliable, in-order network (the default).
    pub fn reliable() -> Self {
        NetModel {
            reorder: false,
            drop_permille: 0,
            dup_permille: 0,
            seed: 1,
            mailbox_capacity: None,
        }
    }

    /// Seeded cross-signature reordering.
    pub fn reorder(seed: u64) -> Self {
        NetModel { reorder: true, seed, ..NetModel::reliable() }
    }

    /// Set the drop (retransmit) rate in permille.
    pub fn drop_rate(mut self, permille: u32) -> Self {
        self.drop_permille = permille.min(1000);
        self
    }

    /// Set the duplication rate in permille.
    pub fn duplicate_rate(mut self, permille: u32) -> Self {
        self.dup_permille = permille.min(1000);
        self
    }

    /// Set the seed of the fate hash.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Bound every destination mailbox to `cap` unclaimed application
    /// messages (see the field docs; `cap` is clamped to at least 1).
    pub fn mailbox_capacity(mut self, cap: usize) -> Self {
        self.mailbox_capacity = Some(cap.max(1));
        self
    }

    /// True if any reorder, drop or duplication fault can fire.
    #[inline]
    pub fn has_faults(&self) -> bool {
        self.reorder || self.drop_permille > 0 || self.dup_permille > 0
    }
}

impl Default for NetModel {
    fn default() -> Self {
        NetModel::reliable()
    }
}

/// How many subsequent deliveries to a destination a withheld envelope
/// waits before it is injected (it is also injected by any
/// [`Network::nudge`]/[`Network::flush`], so a blocked receiver never waits
/// on it forever). Every hold lasts this long, so holds come due in queue
/// order.
const HOLD_FOR: u64 = 6;

/// Share, in permille, of the envelopes neither dropped nor duplicated that
/// a reordering network holds back.
const REORDER_PERMILLE: u64 = 300;

/// Cap on envelopes concurrently withheld per destination; at the cap
/// further drops and holds deliver normally (a transport retries harder
/// under congestion, it does not buffer unboundedly).
const MAX_HELD: usize = 32;

/// What the fate hash decides for one message.
enum Fate {
    Deliver,
    Hold,
    Drop,
    Duplicate,
}

/// Per-source duplicate-suppression window: `next` is the lowest sequence
/// number not yet seen from that source, `ahead` the out-of-order ones
/// already seen above it (bounded by the hold window). Its lock is taken
/// inside the fault lock and held across the mailbox insert.
#[derive(Default)]
struct DedupWindow {
    next: u64,
    ahead: std::collections::HashSet<u64, Fx>,
}

impl DedupWindow {
    /// Record `seq`; true if it was already seen (a duplicate).
    fn seen_before(&mut self, seq: u64) -> bool {
        if seq < self.next {
            return true;
        }
        if !self.ahead.insert(seq) {
            return true;
        }
        while self.ahead.remove(&self.next) {
            self.next += 1;
        }
        false
    }
}

/// One destination's hold stage. Its lock is the outermost of the
/// delivery path: fault → dedup → mailbox → credit ledger.
#[derive(Default)]
struct FaultState {
    /// Withheld envelopes (dropped or held by the fate hash), each with the
    /// delivery tick it comes due. Same-signature successors queue here too
    /// (head-of-line), so per-signature FIFO survives. Strictly FIFO: push
    /// back, pop front.
    delayed: VecDeque<(Envelope, u64)>,
    /// Monotone count of injections towards this destination.
    ticks: u64,
}

/// Credit-based flow control for bounded mailboxes (one per job): the
/// whole credit ledger sits under **one** lock, so every verdict — a grant,
/// a release, the deadlock walk — reads one consistent state.
///
/// Invariants:
/// * `outstanding` (per destination `d`) counts application envelopes
///   granted a credit toward `d` and not yet claimed by `d` (queued in the
///   mailbox *or* withheld in the hold stage — in-flight buffer space
///   either way).
/// * A credit is released exactly once, when the owning rank claims the
///   envelope from its mailbox ([`Backpressure::release`]).
/// * Parked senders are granted credits strictly in `waiting` (FIFO)
///   order, so wake order — and therefore delivery order — is
///   reproducible. Wakes are *targeted*: a freed credit wakes exactly the
///   sender at the queue front, never the whole waitlist.
/// * `done` marks a rank whose application function has returned; sends
///   to it complete without credits (nothing will ever drain that mailbox
///   again, and unbounded fire-and-forget sends at job end must keep
///   working identically).
/// * `parked[s] = Some(d)` exactly while rank `s` is on `d`'s `waiting`
///   queue. A rank parks on at most one destination, so its rank number
///   identifies its queue entry.
pub(crate) struct Backpressure {
    capacity: usize,
    ledger: Mutex<Ledger>,
    /// Wakes parked senders.
    sched: Arc<Sched>,
}

/// The credit state under [`Backpressure`]'s lock.
struct Ledger {
    dests: Vec<Credits>,
    /// `parked[s] = Some(d)` while rank `s` is parked sending to `d`.
    parked: Vec<Option<Rank>>,
}

/// One destination's credits.
#[derive(Default)]
struct Credits {
    outstanding: usize,
    /// FIFO of parked sender ranks.
    waiting: VecDeque<Rank>,
    done: bool,
}

impl Backpressure {
    fn new(nranks: usize, capacity: usize, sched: Arc<Sched>) -> Self {
        Backpressure {
            capacity: capacity.max(1),
            ledger: Mutex::new(Ledger {
                dests: (0..nranks).map(|_| Credits::default()).collect(),
                parked: vec![None; nranks],
            }),
            sched,
        }
    }

    /// Return the credit held by a claimed application envelope and wake
    /// the parked sender at the queue front (FIFO grant order). Only the
    /// front can take the freed credit, so only the front is woken.
    pub(crate) fn release(&self, dst: Rank) {
        let l = &mut *self.ledger.lock();
        let d = &mut l.dests[dst];
        d.outstanding = d.outstanding.saturating_sub(1);
        if let Some(&front) = d.waiting.front() {
            self.sched.wake(front);
        }
    }

    /// Under the held ledger: grant `src` a credit toward `dst` if it may
    /// take one — the done-rank bypass, or a free slot with `src` at the
    /// queue front (an empty queue counts as `src`'s turn). A parked sender
    /// leaves the queue and the next one is woken.
    fn try_grant(&self, l: &mut Ledger, src: Rank, dst: Rank) -> bool {
        let d = &mut l.dests[dst];
        let turn = d.waiting.front().is_none_or(|&s| s == src);
        if !(d.done || (turn && d.outstanding < self.capacity)) {
            return false;
        }
        if !d.done {
            d.outstanding += 1;
        }
        self.leave(l, src);
        true
    }

    /// Under the held ledger: take `src` off the queue it is parked on (if
    /// any) and wake the sender now at that queue's front.
    fn leave(&self, l: &mut Ledger, src: Rank) {
        let Some(dst) = l.parked[src].take() else { return };
        let waiting = &mut l.dests[dst].waiting;
        // Strict FIFO: a capacity grant only ever goes to the queue front;
        // only the done-rank bypass or poison can pull a mid-queue entry.
        if waiting.front() == Some(&src) {
            waiting.pop_front();
        } else {
            waiting.retain(|&s| s != src);
        }
        if let Some(&next) = waiting.front() {
            self.sched.wake(next);
        }
    }

    /// Why the job is wedged, read from one consistent snapshot of the
    /// ledger: a proven send cycle (each member parked sending to the next
    /// member's full, unfinished mailbox — credits are only released by the
    /// owner claiming, and every owner in the cycle is blocked in a send),
    /// else a sender parked with nothing in flight, else `None`.
    fn stall_reason(&self) -> Option<String> {
        let l = self.ledger.lock();
        let parked: Vec<(Rank, Rank)> =
            l.parked.iter().enumerate().filter_map(|(s, d)| d.map(|d| (s, d))).collect();
        if let Some(cycle) = parked.iter().find_map(|&(s, _)| self.find_cycle(&l, s)) {
            let path = cycle
                .iter()
                .chain(cycle.first())
                .map(|r| format!("rank {r}"))
                .collect::<Vec<_>>()
                .join(" -> ");
            return Some(format!(
                "{}: send cycle {path} with every mailbox at capacity {} — \
                 each rank is blocked sending to the next, so no mailbox can drain; \
                 the application (or protocol) relies on more buffering than the \
                 configured bound provides",
                crate::BACKPRESSURE_DEADLOCK_MARKER,
                self.capacity,
            ));
        }
        let &(src, dst) = parked.first()?;
        Some(format!(
            "{}: job quiescent with rank {src} parked sending to rank {dst} and \
             no message in flight — a receive is blocked on a message that can \
             never arrive; the application (or protocol) relies on more buffering \
             than mailbox capacity {} provides",
            crate::BACKPRESSURE_DEADLOCK_MARKER,
            self.capacity
        ))
    }

    /// The wait-for cycle `start`'s park chain leads into, if every hop
    /// targets a full, unfinished mailbox.
    fn find_cycle(&self, l: &Ledger, start: Rank) -> Option<Vec<Rank>> {
        let mut chain = vec![start];
        let mut cur = start;
        loop {
            let dst = l.parked[cur]?;
            let d = &l.dests[dst];
            if d.outstanding < self.capacity || d.done {
                return None; // that destination will grant a credit shortly
            }
            if let Some(pos) = chain.iter().position(|&r| r == dst) {
                return Some(chain.split_off(pos));
            }
            chain.push(dst);
            cur = dst;
        }
    }
}

/// SplitMix64 finalizer: the avalanche mixer behind the fate hash.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The shared fabric connecting all ranks of a job.
pub struct Network {
    /// Padded: senders and the owner write them from any worker.
    mailboxes: Vec<CachePadded<Mailbox>>,
    cluster: ClusterModel,
    model: NetModel,
    /// Per-destination hold stages.
    fault_state: Vec<Mutex<FaultState>>,
    /// Per-destination duplicate filters, indexed by source rank. Allocated
    /// only when the duplication fault is active: the table is O(nranks²)
    /// and would dominate memory at 4096 ranks for jobs that never
    /// duplicate.
    dedup_state: Option<Vec<Mutex<Vec<DedupWindow>>>>,
    /// Bounded-mailbox flow control (`NetModel::mailbox_capacity`).
    backpressure: Option<Arc<Backpressure>>,
    /// The job's rank scheduler: parks and wakes blocked ranks.
    sched: Arc<Sched>,
    /// Read by every operation; padded away from the counters below.
    poisoned: CachePadded<AtomicBool>,
    poison_reason: Mutex<Option<String>>,
    /// Messages the fault model dropped and later retransmitted.
    pub msgs_dropped: AtomicU64,
    /// Messages the fault model injected twice.
    pub msgs_duplicated: AtomicU64,
    /// Duplicate copies suppressed at the receive side.
    pub dups_suppressed: AtomicU64,
    /// Sends that parked on the credit waitlist (backpressure actually
    /// engaged, not merely enabled).
    pub sends_parked: AtomicU64,
}

impl Network {
    /// Create the network of a job: `spec`'s ranks, cluster and
    /// fault-and-delivery model, with blocking points managed by `spec`'s
    /// scheduler.
    pub fn new(spec: &JobSpec) -> Self {
        let (nranks, cluster, model) = (spec.nranks, spec.cluster, spec.net);
        let sched = Arc::new(Sched::new(spec.sched, nranks));
        let fault_state = (0..nranks).map(|_| Mutex::new(FaultState::default())).collect();
        let dedup_state = (model.dup_permille > 0).then(|| {
            (0..nranks)
                .map(|_| Mutex::new((0..nranks).map(|_| DedupWindow::default()).collect()))
                .collect()
        });
        let backpressure = model
            .mailbox_capacity
            .map(|cap| Arc::new(Backpressure::new(nranks, cap, Arc::clone(&sched))));
        let mailboxes = (0..nranks)
            .map(|dst| match &backpressure {
                Some(bp) => Mailbox::with_credit(Arc::clone(bp), dst),
                None => Mailbox::new(),
            })
            .map(CachePadded)
            .collect();
        Network {
            mailboxes,
            cluster,
            model,
            fault_state,
            dedup_state,
            backpressure,
            sched,
            poisoned: CachePadded(AtomicBool::new(false)),
            poison_reason: Mutex::new(None),
            msgs_dropped: AtomicU64::new(0),
            msgs_duplicated: AtomicU64::new(0),
            dups_suppressed: AtomicU64::new(0),
            sends_parked: AtomicU64::new(0),
        }
    }

    /// Number of ranks.
    pub fn nranks(&self) -> usize {
        self.mailboxes.len()
    }

    /// The cluster timing model.
    pub fn cluster(&self) -> &ClusterModel {
        &self.cluster
    }

    /// The fault-and-delivery model.
    pub fn model(&self) -> &NetModel {
        &self.model
    }

    /// The mailbox of `rank`.
    pub fn mailbox(&self, rank: Rank) -> &Mailbox {
        &self.mailboxes[rank]
    }

    /// Send an envelope through the pipeline `inject → deliver`.
    /// Under a bounded mailbox (`NetModel::mailbox_capacity`) application
    /// traffic first acquires a delivery credit, parking the calling rank
    /// on the destination's FIFO waitlist while the mailbox is full.
    /// Returns `Err(MpiError::Aborted)` only if the job was poisoned while
    /// the sender was parked.
    pub fn send(&self, env: Envelope) -> Result<(), MpiError> {
        if let Some(bp) = &self.backpressure {
            if !env.comm.is_internal() {
                self.acquire_credit(bp, env.src, env.dst)?;
            }
        }
        self.inject(env);
        Ok(())
    }

    /// Block until `dst` has a free application-message slot for `src`
    /// (see [`Backpressure`]): granted at once if the queue is empty and a
    /// slot is free, otherwise `src` joins the FIFO waitlist and parks on
    /// the scheduler. Every event that could grant the credit — a release
    /// on `dst`, a done mark, poison — wakes `src`; a park that would leave
    /// every live rank blocked runs the deadlock detective instead
    /// ([`Network::on_quiescent`]), so verdicts need no wall-clock window.
    fn acquire_credit(&self, bp: &Backpressure, src: Rank, dst: Rank) -> Result<(), MpiError> {
        let mut queued = false;
        loop {
            let seen = self.sched.epoch(src);
            {
                let l = &mut *bp.ledger.lock();
                let poisoned = self.is_poisoned();
                // A parked sender woken by poison aborts even if a credit
                // is free.
                if !(queued && poisoned) && bp.try_grant(l, src, dst) {
                    return Ok(());
                }
                if poisoned {
                    bp.leave(l, src);
                    return Err(MpiError::Aborted);
                }
                if !queued {
                    l.dests[dst].waiting.push_back(src);
                    l.parked[src] = Some(dst);
                    queued = true;
                    self.sends_parked.fetch_add(1, Ordering::Relaxed);
                }
            }
            if let Parked::Quiescent = self.sched.park(src, seen) {
                self.on_quiescent();
            }
        }
    }

    /// The deadlock detective, run at proven global quiescence: every live
    /// rank is committed-blocked and the caller's park (or rank exit) was
    /// the last runnable step. In a closed world the only remaining message
    /// source is the hold stage — flush it, and if anything moved return
    /// (the deliveries woke their receivers). No rank runs while the
    /// detective does, so only its own flush can deliver.
    /// Otherwise the job is wedged; diagnose deterministically: a proven
    /// send cycle, else a sender parked on credits with nothing in flight,
    /// else a generic missing-send deadlock. No wall clock is involved, so
    /// chaos-run verdicts are bit-reproducible.
    pub(crate) fn on_quiescent(&self) {
        if self.is_poisoned() {
            return; // the poison wake is already propagating
        }
        if self.flush() > 0 {
            return; // something was in flight after all; its wakes resume the job
        }
        let reason = self.backpressure.as_ref().and_then(|bp| bp.stall_reason());
        self.poison(&reason.unwrap_or_else(|| {
            format!(
                "{}: every live rank is blocked with no message in flight and no sender \
                 parked on credits — some receive waits for a message that is never sent",
                crate::SCHED_DEADLOCK_MARKER
            )
        }));
    }

    /// Mark `rank`'s application function as returned: its mailbox will
    /// never be drained again, so pending and future sends toward it
    /// complete without credits (matching unbounded fire-and-forget
    /// semantics during job wind-down). The exit also hands the scheduler
    /// its live-rank accounting — if every remaining rank is blocked, the
    /// exiting rank was their last possible waker and the deadlock
    /// detective must run now.
    pub fn rank_done(&self, rank: Rank) {
        if let Some(bp) = &self.backpressure {
            let l = &mut *bp.ledger.lock();
            let d = &mut l.dests[rank];
            d.done = true;
            // Done-rank bypass admits *every* queued sender, not just the
            // front, so this is the one case where all waiters are woken.
            for &s in &d.waiting {
                self.sched.wake(s);
            }
        }
        if self.sched.rank_exit() {
            self.on_quiescent();
        }
    }

    /// The job's scheduler (runs the ranks as coroutines).
    pub(crate) fn sched(&self) -> &Sched {
        &self.sched
    }

    /// The calling rank's wake epoch: sample *before* re-checking a
    /// blocking condition, then pass to [`Network::block_on_mailbox`]
    /// (the lost-wakeup guard).
    pub(crate) fn park_epoch(&self, rank: Rank) -> u64 {
        self.sched.epoch(rank)
    }

    /// Block `rank` until new mailbox activity is possible.
    ///
    /// Flush envelopes the hold stage withholds for this rank first (if
    /// the flush delivers anything the rank's own epoch moves and the park
    /// aborts), then park until a delivery, a withhold (whose
    /// envelope the next attempt's flush then delivers), a credit event, or
    /// poison wakes the rank. A park that would leave every live rank
    /// blocked runs the deadlock detective instead of sleeping.
    pub(crate) fn block_on_mailbox(&self, rank: Rank, seen: u64) {
        self.nudge(rank);
        if let Parked::Quiescent = self.sched.park(rank, seen) {
            self.on_quiescent();
        }
    }

    /// Hold stage: draw the envelope's fate, withhold it (a drop or hold, or
    /// queued head-of-line behind a withheld same-signature predecessor) or
    /// pass it on — after the holds that came due with this injection.
    fn inject(&self, env: Envelope) {
        let dst = env.dst;
        if !self.model.has_faults() {
            self.deliver(dst, std::iter::once(env));
            return;
        }
        // The fault lock is held across delivery so a concurrent sender
        // cannot overtake an envelope between the hold queue and the
        // mailbox.
        let mut fs = self.fault_state[dst].lock();
        fs.ticks += 1;
        let now = fs.ticks;
        // Due holds leave strictly from the queue head: every hold lasts
        // `HOLD_FOR` ticks, so the due entries are a prefix of the queue.
        let n_due = fs.delayed.iter().take_while(|(_, at)| *at <= now).count();
        let due: Vec<Envelope> = fs.delayed.drain(..n_due).map(|(e, _)| e).collect();
        // Head-of-line: while a same-signature predecessor is withheld,
        // successors must queue behind it (a reliable transport cannot
        // deliver segment n+1 before redelivering n).
        let sig = env.signature();
        let blocked = fs.delayed.iter().any(|(e, _)| e.signature() == sig);
        let fate = self.fate(&env);
        let mut copies = match fate {
            Fate::Duplicate => {
                self.msgs_duplicated.fetch_add(1, Ordering::Relaxed);
                [Some(env.clone()), Some(env)]
            }
            _ => [Some(env), None],
        };
        let holding = matches!(fate, Fate::Drop | Fate::Hold) && fs.delayed.len() < MAX_HELD;
        if holding && matches!(fate, Fate::Drop) {
            self.msgs_dropped.fetch_add(1, Ordering::Relaxed);
        }
        if blocked || holding {
            let due_at = now + HOLD_FOR;
            fs.delayed.extend(copies.iter_mut().filter_map(Option::take).map(|e| (e, due_at)));
            // A withhold wakes the destination: were it already parked on
            // its mailbox, only later traffic to it or global quiescence
            // would release the envelope. Its next blocking attempt nudges
            // first and so delivers it.
            self.sched.wake(dst);
        }
        self.deliver(dst, due.into_iter().chain(copies.into_iter().flatten()));
    }

    /// Seed-deterministic fate of one message: a pure function of
    /// `(seed, signature, seq)`, independent of thread interleaving. The
    /// hash's lowest three decimal digits decide drop and duplication;
    /// under reordering its next three decide whether the rest are held.
    fn fate(&self, env: &Envelope) -> Fate {
        let h = mix64(
            self.model.seed
                ^ mix64((env.src as u64) << 32 | env.dst as u64)
                ^ mix64((env.tag as u64) << 32 | env.comm.0 as u64)
                ^ mix64(env.seq.wrapping_mul(0x2545_f491_4f6c_dd1d)),
        );
        let roll = (h % 1000) as u32;
        if roll < self.model.drop_permille {
            Fate::Drop
        } else if roll < self.model.drop_permille + self.model.dup_permille {
            Fate::Duplicate
        } else if self.model.reorder && (h / 1000) % 1000 < REORDER_PERMILLE {
            Fate::Hold
        } else {
            Fate::Deliver
        }
    }

    /// Delivery: `batch` (already in delivery order) enters `dst`'s mailbox
    /// under one lock acquisition, minus duplicate copies by
    /// `(source, seq)` when the duplication fault is active, and `dst` is
    /// woken **once**. Arrival stamps follow batch order, so the result is
    /// bit-identical to delivering one at a time. Returns how many
    /// envelopes entered the mailbox.
    fn deliver(&self, dst: Rank, batch: impl IntoIterator<Item = Envelope>) -> usize {
        let mut batch = batch.into_iter().peekable();
        if batch.peek().is_none() {
            return 0;
        }
        let mut windows = self.dedup_state.as_ref().map(|d| d[dst].lock());
        let delivered = self.mailboxes[dst].deliver_batch(batch.filter(|env| {
            let dup = windows.as_mut().is_some_and(|w| w[env.src].seen_before(env.seq));
            if dup {
                self.dups_suppressed.fetch_add(1, Ordering::Relaxed);
            }
            !dup
        }));
        drop(windows);
        if delivered > 0 {
            self.sched.wake(dst);
        }
        delivered
    }

    /// Deliver every envelope the hold stage withholds for `dst`, due or
    /// not. Called by a rank's blocked wait loops so that withheld messages
    /// are eventually delivered even if no further traffic arrives (models
    /// "in flight, but not lost"). Returns how many envelopes it delivered.
    pub fn nudge(&self, dst: Rank) -> usize {
        if !self.model.has_faults() {
            return 0;
        }
        let mut fs = self.fault_state[dst].lock();
        self.deliver(dst, fs.delayed.drain(..).map(|(e, _)| e))
    }

    /// Flush every withheld envelope (used at teardown / quiescence points
    /// so no message is lost to the hold stage). Returns how many envelopes
    /// it delivered.
    pub fn flush(&self) -> usize {
        (0..self.mailboxes.len()).map(|dst| self.nudge(dst)).sum()
    }

    /// Poison the job: every blocked/future operation returns `Aborted`.
    /// Models a fail-stop hardware failure (§1 footnote 1).
    pub fn poison(&self, reason: &str) {
        if !self.poisoned.swap(true, Ordering::SeqCst) {
            *self.poison_reason.lock() = Some(reason.to_string());
        }
        // Parked ranks re-check the poison flag on wake.
        self.sched.wake_all();
    }

    /// Has the job been poisoned?
    #[inline]
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Relaxed)
    }

    /// Why the job was poisoned, if it was.
    pub fn poison_reason(&self) -> Option<String> {
        self.poison_reason.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{launch, JobError, SchedMode, Tag, COMM_WORLD};

    fn env(src: Rank, dst: Rank, tag: Tag, seq: u64) -> Envelope {
        Envelope {
            src,
            dst,
            tag,
            comm: COMM_WORLD,
            seq,
            piggyback: 0,
            depart_vt: 0,
            payload: crate::payload::Payload::empty(),
        }
    }

    /// A network driven directly by the test thread (no ranks launched).
    fn test_net(nranks: usize, model: NetModel) -> Network {
        Network::new(&JobSpec::new(nranks).net(model))
    }

    #[test]
    fn plain_delivery() {
        let net = test_net(2, NetModel::reliable());
        net.send(env(0, 1, 3, 0)).unwrap();
        assert_eq!(net.mailbox(1).len(), 1);
        assert_eq!(net.mailbox(0).len(), 0);
    }

    #[test]
    fn reorder_preserves_per_signature_fifo() {
        let net = test_net(2, NetModel::reorder(42));
        // Send 200 messages on the SAME signature; they must arrive in order.
        for seq in 0..200 {
            net.send(env(0, 1, 7, seq)).unwrap();
        }
        net.flush();
        let mut last = None;
        while let Some(e) = net.mailbox(1).try_claim(0, 7, COMM_WORLD) {
            if let Some(prev) = last {
                assert!(e.seq > prev, "per-signature FIFO violated: {} after {}", e.seq, prev);
            }
            last = Some(e.seq);
        }
        assert_eq!(last, Some(199));
    }

    #[test]
    fn reorder_actually_reorders_across_signatures() {
        let net = test_net(2, NetModel::reorder(7));
        // Alternate two signatures; with some envelopes held some tag-1
        // message should arrive after a later-sent tag-2 message.
        for i in 0..100u64 {
            net.send(env(0, 1, (i % 2) as Tag, i / 2)).unwrap();
        }
        net.flush();
        let arrivals: Vec<(Tag, u64)> =
            net.mailbox(1).lock().snapshot_arrival_order().iter().map(|e| (e.tag, e.seq)).collect();
        assert_eq!(arrivals.len(), 100);
        // Detect at least one cross-signature inversion vs. global send
        // order (tag alternation means global order is (0,k),(1,k),(0,k+1)..).
        let global = |t: Tag, s: u64| s * 2 + t as u64;
        let inverted = arrivals.windows(2).any(|w| global(w[0].0, w[0].1) > global(w[1].0, w[1].1));
        assert!(inverted, "expected at least one cross-signature reorder");
    }

    #[test]
    fn drop_faults_retransmit_and_preserve_per_signature_fifo() {
        let net = test_net(2, NetModel::reliable().drop_rate(300).seed(11));
        for seq in 0..300 {
            net.send(env(0, 1, 7, seq)).unwrap();
        }
        net.flush();
        assert!(
            net.msgs_dropped.load(Ordering::Relaxed) > 0,
            "30% drop rate never fired over 300 messages"
        );
        // Reliable despite the drops: every message arrives, in order.
        let mut last = None;
        let mut count = 0;
        while let Some(e) = net.mailbox(1).try_claim(0, 7, COMM_WORLD) {
            if let Some(prev) = last {
                assert!(e.seq > prev, "per-signature FIFO violated: {} after {}", e.seq, prev);
            }
            last = Some(e.seq);
            count += 1;
        }
        assert_eq!(count, 300, "a dropped message was never retransmitted");
    }

    #[test]
    fn duplicate_faults_are_suppressed_exactly_once() {
        let net = test_net(2, NetModel::reliable().duplicate_rate(400).seed(3));
        for seq in 0..200 {
            net.send(env(0, 1, 9, seq)).unwrap();
        }
        net.flush();
        let dups = net.msgs_duplicated.load(Ordering::Relaxed);
        assert!(dups > 0, "40% duplication rate never fired over 200 messages");
        assert_eq!(
            net.dups_suppressed.load(Ordering::Relaxed),
            dups,
            "every duplicate copy must be suppressed at the receive side"
        );
        let mut seen = Vec::new();
        while let Some(e) = net.mailbox(1).try_claim(0, 9, COMM_WORLD) {
            seen.push(e.seq);
        }
        assert_eq!(seen, (0..200).collect::<Vec<u64>>(), "delivery must stay exactly-once");
    }

    #[test]
    fn fault_fate_is_a_pure_function_of_seed_and_signature() {
        let drops = |seed: u64| {
            let net = test_net(2, NetModel::reliable().drop_rate(250).seed(seed));
            let mut dropped = Vec::new();
            for seq in 0..100 {
                let before = net.msgs_dropped.load(Ordering::Relaxed);
                net.send(env(0, 1, 5, seq)).unwrap();
                if net.msgs_dropped.load(Ordering::Relaxed) > before {
                    dropped.push(seq);
                }
            }
            dropped
        };
        assert_eq!(drops(77), drops(77), "same seed must drop the same messages");
        assert_ne!(drops(77), drops(78), "different seeds should drop differently");
    }

    #[test]
    fn combined_faults_and_reordering_stay_reliable() {
        let net = test_net(2, NetModel::reorder(99).drop_rate(150).duplicate_rate(150));
        // Two interleaved signatures under drop + dup + reorder. As in the
        // real substrate, `seq` is unique per (src, dst) across tags.
        for i in 0..400u64 {
            net.send(env(0, 1, (i % 2) as Tag, i)).unwrap();
        }
        net.flush();
        let (mut last0, mut last1, mut n) = (None, None, 0);
        while let Some(e) = net.mailbox(1).try_claim(0, crate::ANY_TAG, COMM_WORLD) {
            let last = if e.tag == 0 { &mut last0 } else { &mut last1 };
            if let Some(prev) = *last {
                assert!(e.seq > prev, "tag {} FIFO violated: {} after {prev}", e.tag, e.seq);
            }
            *last = Some(e.seq);
            n += 1;
        }
        assert_eq!(n, 400, "lost or double-delivered messages under combined faults");
    }

    /// FNV-1a digest of the arrival order at ranks 2 and 3 after a fixed
    /// traffic pattern: sources 0–2 send 1 200 messages over 4 tags, with
    /// `seq` unique per (src, dst), a `nudge(dst)` every 97th send and a
    /// final flush.
    fn arrival_digest(model: NetModel) -> u64 {
        let net = test_net(4, model);
        let mut next_seq = [[0u64; 4]; 3];
        for i in 0..1200usize {
            let (src, dst, tag) = (i % 3, 2 + (i / 3) % 2, ((i / 7) % 4) as Tag);
            let seq = next_seq[src][dst];
            next_seq[src][dst] += 1;
            net.send(env(src, dst, tag, seq)).unwrap();
            if i % 97 == 96 {
                net.nudge(dst);
            }
        }
        net.flush();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for d in [2, 3] {
            for e in net.mailbox(d).lock().snapshot_arrival_order() {
                for x in [e.src as u64, e.tag as u64, e.seq] {
                    for b in x.to_le_bytes() {
                        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
                    }
                }
            }
        }
        h
    }

    /// Pins every fate and arrival stamp of the delivery pipeline: any
    /// change to the fate hash, the hold stage or batching moves a digest.
    #[test]
    fn arrival_order_is_pinned_per_network_model() {
        let digests = [
            arrival_digest(NetModel::reliable()),
            arrival_digest(NetModel::reorder(5)),
            arrival_digest(NetModel::reliable().drop_rate(200)),
            arrival_digest(NetModel::reliable().duplicate_rate(200)),
            arrival_digest(NetModel::reorder(8).drop_rate(150).duplicate_rate(100)),
        ];
        assert_eq!(
            digests,
            [
                13_373_766_197_472_281_637,
                16_724_458_780_705_451_365,
                8_528_088_831_168_406_629,
                13_373_766_197_472_281_637,
                16_938_225_091_617_988_197,
            ]
        );
    }

    /// Which envelopes the hold stage withholds is a pure function of the
    /// envelopes themselves, not of how the senders to one destination
    /// interleave: every envelope has its own signature (so nothing queues
    /// head-of-line) and is checked right after its own send.
    #[test]
    fn held_set_is_independent_of_send_interleaving() {
        let held = |round_robin: bool| {
            let net = test_net(4, NetModel::reorder(13));
            let sends: Vec<(Rank, u64)> = if round_robin {
                (0..20).flat_map(|seq| (0..3).map(move |src| (src, seq))).collect()
            } else {
                (0..3).flat_map(|src| (0..20).map(move |seq| (src, seq))).collect()
            };
            let mut held = std::collections::BTreeSet::new();
            for (src, seq) in sends {
                net.send(env(src, 3, (src as u64 * 20 + seq) as Tag, seq)).unwrap();
                let arrived = net.mailbox(3).lock().snapshot_arrival_order();
                if !arrived.iter().any(|e| e.src == src && e.seq == seq) {
                    held.insert((src, seq));
                }
            }
            held
        };
        let round_robin = held(true);
        assert!(!round_robin.is_empty(), "reordering never held an envelope");
        assert_eq!(round_robin, held(false));
    }

    #[test]
    fn poison_is_sticky_and_carries_reason() {
        let net = test_net(1, NetModel::reliable());
        assert!(!net.is_poisoned());
        net.poison("rank 0 killed by fault injector");
        net.poison("second reason ignored");
        assert!(net.is_poisoned());
        assert_eq!(net.poison_reason().unwrap(), "rank 0 killed by fault injector");
    }

    #[test]
    fn bounded_mailbox_parks_senders_and_preserves_order() {
        let spec = JobSpec::new(2)
            .net(NetModel::reliable().mailbox_capacity(2))
            .sched(SchedMode::EventDriven { workers: 2 });
        let out = launch(&spec, |ctx| {
            if ctx.rank() == 0 {
                for seq in 0..6u64 {
                    ctx.send(1, 7, &[seq])?;
                }
                return Ok(ctx.network().sends_parked.load(Ordering::Relaxed));
            }
            // Drain once the sender is parked; each claim releases a credit
            // and wakes the parked sender FIFO.
            while !ctx.network().sched().is_parked(0) {
                std::thread::yield_now();
            }
            for want in 0..6u64 {
                let (v, _) = ctx.recv::<u64>(0, 7)?;
                assert_eq!(v[0], want, "bounded delivery must stay per-signature FIFO");
            }
            // The capacity bound held: nothing is left queued.
            assert!(ctx.network().mailbox(1).is_empty());
            Ok(0)
        })
        .unwrap();
        assert!(out.results[0] > 0, "6 sends against capacity 2 never parked");
    }

    #[test]
    fn internal_traffic_bypasses_the_mailbox_bound() {
        let net = test_net(2, NetModel::reliable().mailbox_capacity(1));
        for seq in 0..5 {
            let mut e = env(0, 1, 3, seq);
            e.comm = crate::COMM_CTRL;
            net.send(e).unwrap(); // would park forever if counted
        }
        for seq in 0..5 {
            let mut e = env(0, 1, 4, seq);
            e.comm = COMM_WORLD.collective_shadow();
            net.send(e).unwrap();
        }
        assert_eq!(net.mailbox(1).len(), 10);
        assert_eq!(net.sends_parked.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn sends_to_a_finished_rank_complete_without_credits() {
        let net = test_net(2, NetModel::reliable().mailbox_capacity(1));
        net.send(env(0, 1, 3, 0)).unwrap(); // takes the only credit
        net.rank_done(1);
        for seq in 1..5 {
            net.send(env(0, 1, 3, seq)).unwrap(); // fire-and-forget at wind-down
        }
        assert_eq!(net.mailbox(1).len(), 5);
    }

    #[test]
    fn deadlock_watchdog_catches_a_self_send_cycle() {
        let err = launch(&JobSpec::new(1).net(NetModel::reliable().mailbox_capacity(1)), |ctx| {
            ctx.send(0, 2, &[0u64])?;
            let second = ctx.send(0, 2, &[1u64]);
            assert_eq!(second, Err(MpiError::Aborted));
            second
        })
        .unwrap_err();
        let JobError::Aborted { reason } = err else { panic!("expected abort, got {err:?}") };
        assert!(reason.starts_with(crate::BACKPRESSURE_DEADLOCK_MARKER), "reason: {reason}");
        assert!(reason.contains("send cycle rank 0 -> rank 0"), "reason: {reason}");
    }

    /// Rank 0 is parked on rank 1 but is not part of the cycle: the walk
    /// from rank 0 must report only the cycle it leads into.
    #[test]
    fn deadlock_watchdog_reports_the_cycle_past_a_bystander() {
        let err = launch(&JobSpec::new(4).net(NetModel::reliable().mailbox_capacity(1)), |ctx| {
            let dst = match ctx.rank() {
                0 | 3 => 1,
                r => r + 1,
            };
            ctx.send(dst, 2, &[0u64])?;
            ctx.send(dst, 2, &[1u64])?;
            ctx.recv::<u64>(crate::ANY_SOURCE, 2).map(|_| ())
        })
        .unwrap_err();
        let JobError::Aborted { reason } = err else { panic!("expected abort, got {err:?}") };
        assert!(reason.starts_with(crate::BACKPRESSURE_DEADLOCK_MARKER), "reason: {reason}");
        assert!(
            reason.contains("send cycle rank 1 -> rank 2 -> rank 3 -> rank 1 with"),
            "reason: {reason}"
        );
    }

    #[test]
    fn poison_releases_parked_senders() {
        let spec = JobSpec::new(2)
            .net(NetModel::reliable().mailbox_capacity(1))
            .sched(SchedMode::EventDriven { workers: 2 });
        let err = launch(&spec, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 7, &[0u64])?;
                let parked = ctx.send(1, 7, &[1u64]);
                assert_eq!(parked, Err(MpiError::Aborted));
                return parked;
            }
            while !ctx.network().sched().is_parked(0) {
                std::thread::yield_now();
            }
            ctx.network().poison("rank 1 killed by fault injector");
            Ok(())
        })
        .unwrap_err();
        let JobError::Aborted { reason } = err else { panic!("expected abort, got {err:?}") };
        assert_eq!(reason, "rank 1 killed by fault injector");
    }

    /// An envelope withheld *after* its receiver parked must not wait for
    /// later traffic or global quiescence: rank 2 stays runnable throughout,
    /// so only the withhold's own wake can release rank 0's message to the
    /// parked rank 1 (and rank 1's ack to the parked rank 0).
    fn withheld_message_reaches_a_parked_receiver(model: NetModel) {
        use std::sync::atomic::AtomicBool;
        use std::time::{Duration, Instant};
        let received = AtomicBool::new(false);
        let spec = JobSpec::new(3).net(model).sched(SchedMode::EventDriven { workers: 3 });
        let out = launch(&spec, |ctx| match ctx.rank() {
            0 => {
                let sched = ctx.network().sched();
                while !sched.is_parked(1) {
                    std::thread::yield_now();
                }
                ctx.send_bytes(1, 5, COMM_WORLD, 0, b"data")?;
                ctx.recv_bytes(1, 6, COMM_WORLD).map(|_| true)
            }
            1 => {
                ctx.recv_bytes(0, 5, COMM_WORLD)?;
                received.store(true, Ordering::SeqCst);
                ctx.send_bytes(0, 6, COMM_WORLD, 0, b"ack").map(|_| true)
            }
            _ => {
                let deadline = Instant::now() + Duration::from_secs(10);
                while !received.load(Ordering::SeqCst) && Instant::now() < deadline {
                    std::thread::yield_now();
                }
                Ok(received.load(Ordering::SeqCst))
            }
        })
        .unwrap();
        assert!(out.results[2], "the message was released only when rank 2 stopped running");
    }

    #[test]
    fn dropped_message_wakes_the_parked_receiver() {
        withheld_message_reaches_a_parked_receiver(NetModel::reliable().drop_rate(1000));
    }

    #[test]
    fn cluster_transfer_costs() {
        let lx = ClusterModel::lemieux();
        assert_eq!(lx.transfer_ns(0), 5_000);
        // 250 MB/s = 250 bytes/us: 25_000 bytes take 100 us.
        assert_eq!(lx.transfer_ns(25_000), 5_000 + 100_000);
        assert_eq!(ClusterModel::ideal().transfer_ns(1 << 20), 0);
    }
}
