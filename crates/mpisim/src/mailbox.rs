//! Per-rank mailboxes: signature-indexed arrival queues with MPI matching,
//! plus dedicated lanes for hot signatures.
//!
//! Each rank owns one mailbox. Senders push envelopes (possibly through the
//! network's reordering model); the owning rank matches them against posted
//! receives. The mailbox is indexed by message [`Signature`]
//! (`(src, tag, comm)`): each signature gets its own FIFO queue, and every
//! arrival is stamped with a mailbox-global arrival counter.
//!
//! * An **exact-signature** receive is O(1): one hash lookup, pop the
//!   queue's front (per-signature FIFO is the queue order).
//! * A **wildcard** receive (`ANY_SOURCE`/`ANY_TAG`) walks the queue
//!   *fronts* in ascending arrival order (a `BTreeMap` keyed by each front's
//!   arrival stamp) and claims the first match — the first matching message
//!   in true arrival order, exactly what the old linear scan returned, but
//!   stopping at the first hit instead of scanning O(#queued messages).
//!
//! # Lanes: the lock-reduced hot path
//!
//! A signature that keeps being claimed exactly (no wildcards) is the
//! steady-state shape of every point-to-point loop in the NPB kernels. After
//! [`PROMOTE_AFTER`] consecutive exact claims of one signature the mailbox
//! *promotes* it to a `Lane`: a dedicated queue with its own lock, so the
//! delivering sender no longer contends on the main shelf mutex or touches
//! the front index at all. Promotion and demotion are decided purely by the
//! receiver's claim sequence — never by timing — so a failure-free run makes
//! identical lane decisions under every scheduler.
//!
//! Correctness rests on one invariant: **a signature's envelopes may be
//! split between its shelf queue and its lane, each internally in arrival
//! order, and every claim takes the smaller front stamp of the two.** Stamps
//! come from one shared atomic counter, so the split is totally ordered:
//! promotion stragglers still in the shelf drain first, and a demoted lane
//! keeps draining through claims (producers just stop feeding it). Wildcard
//! claims compute their minimum over the shelf front index *and* every lane
//! front, which preserves exact global arrival order; a wildcard claim that
//! touches a promoted signature demotes its lane (wildcard traffic needs the
//! global index anyway).
//!
//! The producer side of a lane is single-writer by construction: a
//! signature names its source rank, and on the reliable path only that
//! rank (its thread or coroutine) delivers it; on the fault/reorder paths all
//! deliveries to a destination serialize under the per-destination
//! fault/reorder stage locks. The lane's own mutex makes the structure safe
//! even if a caller outside the network breaks that discipline.
//!
//! Because lane producers bypass the shelf mutex, a multi-claim pass (the
//! request engine's posted-order scan under [`Mailbox::lock`]) snapshots
//! the arrival counter and only claims envelopes stamped below it: the
//! pass matches against a frozen mailbox, so a lane arrival mid-scan can
//! never be handed to a later-posted receive ahead of an earlier-posted
//! one that already looked. Together with the posted-order scan in the
//! request engine this reproduces MPI's matching rules.

use crate::envelope::{Envelope, Signature};
use crate::network::Backpressure;
use crate::{CommId, Rank, Tag, ANY_SOURCE, ANY_TAG};
use parking_lot::{Mutex, MutexGuard, RwLock};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Consecutive exact claims of one signature before it gets a lane.
pub const PROMOTE_AFTER: u32 = 8;
/// Promotion threshold meaning "never promote" (lanes disabled).
pub const LANES_OFF: u32 = u32::MAX;
/// Maximum lanes per mailbox. Lanes are never removed (claims must keep
/// seeing demoted lanes until they drain); the cap bounds the per-delivery
/// lane scan.
const MAX_LANES: usize = 8;
/// Emptied per-signature shelf queues retained (capacity and all) instead
/// of freed, so steady-state deliver/claim cycles stop churning the
/// allocator. Beyond this many idle queues, emptied ones are freed again.
const RETAINED_EMPTY_QUEUES: usize = 64;

#[derive(Debug)]
struct Stamped {
    arrival: u64,
    env: Envelope,
}

/// A promoted signature's dedicated queue. The `front` stamp is mirrored
/// into an atomic so claims can compare lane fronts against the shelf front
/// index without taking the lane lock.
#[derive(Debug)]
struct Lane {
    sig: Signature,
    q: Mutex<VecDeque<Stamped>>,
    /// Arrival stamp of the front entry; `u64::MAX` when empty.
    front: AtomicU64,
    /// Producers deliver here only while set; claims drain regardless.
    active: AtomicBool,
}

impl Lane {
    fn new(sig: Signature) -> Arc<Lane> {
        Arc::new(Lane {
            sig,
            q: Mutex::new(VecDeque::new()),
            front: AtomicU64::new(u64::MAX),
            active: AtomicBool::new(true),
        })
    }

    /// Append an envelope, drawing its arrival stamp from `counter` *inside
    /// the lane critical section*. Stamping under the lock keeps the queue
    /// sorted by stamp even if two producers race, and guarantees snapshot
    /// consumers ([`Mailbox::lock`]) that once they hold this lock, every
    /// envelope stamped below their ceiling is visible in the queue.
    fn push(&self, counter: &AtomicU64, env: Envelope) {
        let mut q = self.q.lock();
        let arrival = counter.fetch_add(1, Ordering::Relaxed);
        if q.is_empty() {
            self.front.store(arrival, Ordering::Release);
        }
        q.push_back(Stamped { arrival, env });
    }

    /// Pop the front entry. Callers are serialized by the mailbox shelf
    /// lock (the single-consumer side).
    fn pop(&self) -> Option<Envelope> {
        let mut q = self.q.lock();
        let s = q.pop_front()?;
        self.front.store(q.front().map_or(u64::MAX, |n| n.arrival), Ordering::Release);
        Some(s.env)
    }
}

fn sig_matches(sig: &Signature, src: i32, tag: Tag, comm: CommId) -> bool {
    sig.matches(src, tag, comm)
}

/// The state under the mailbox shelf lock.
///
/// Invariant: `fronts` holds exactly one entry per non-empty queue, keyed by
/// that queue's front arrival stamp (stamps are unique); emptied queues stay
/// in `queues` (bounded by [`RETAINED_EMPTY_QUEUES`]) with no `fronts`
/// entry.
#[derive(Debug, Default)]
struct Shelves {
    /// Per-signature FIFO queues (possibly empty-but-retained).
    queues: HashMap<Signature, VecDeque<Stamped>>,
    /// Arrival stamp of each live queue's front envelope → its signature.
    /// Iterating this in key order visits queue heads oldest-first.
    fronts: BTreeMap<u64, Signature>,
    /// Number of empty queues currently retained in `queues`.
    idle_queues: usize,
    /// Consecutive exact claims per signature (lane promotion bookkeeping;
    /// reset by a wildcard claim of that signature).
    streaks: HashMap<Signature, u32>,
}

impl Shelves {
    fn push(&mut self, arrival: u64, env: Envelope) {
        use std::collections::hash_map::Entry;
        let sig = env.signature();
        match self.queues.entry(sig) {
            Entry::Occupied(e) => {
                let q = e.into_mut();
                if q.is_empty() {
                    // Reviving a retained-idle queue: it leaves the idle set.
                    // (A freshly created queue was never counted, so the
                    // decrement lives only on this arm — otherwise the
                    // counter drifts low and the retention bound in
                    // `pop_shelf` never saturates.)
                    self.idle_queues = self.idle_queues.saturating_sub(1);
                    self.fronts.insert(arrival, sig);
                }
                q.push_back(Stamped { arrival, env });
            }
            Entry::Vacant(e) => {
                self.fronts.insert(arrival, sig);
                e.insert(VecDeque::new()).push_back(Stamped { arrival, env });
            }
        }
    }

    /// Front arrival stamp of `sig`'s shelf queue, if non-empty.
    fn shelf_front(&self, sig: &Signature) -> Option<u64> {
        self.queues.get(sig).and_then(|q| q.front()).map(|s| s.arrival)
    }

    /// Pop the front of `sig`'s (non-empty) shelf queue, maintaining the
    /// front index and the retained-queue arena.
    fn pop_shelf(&mut self, sig: Signature) -> Envelope {
        let q = self.queues.get_mut(&sig).expect("pop_shelf on live queue");
        let stamped = q.pop_front().expect("pop_shelf on non-empty queue");
        self.fronts.remove(&stamped.arrival);
        match q.front() {
            Some(next) => {
                self.fronts.insert(next.arrival, sig);
            }
            None => {
                if self.idle_queues < RETAINED_EMPTY_QUEUES {
                    self.idle_queues += 1; // keep the allocation warm
                } else {
                    self.queues.remove(&sig);
                }
            }
        }
        stamped.env
    }

    /// The matching signature whose shelf-front envelope arrived earliest
    /// (stamped below `ceiling`), with its stamp. Queues are FIFO by stamp,
    /// so a front at or past the ceiling hides its whole queue.
    fn best_shelf(
        &self,
        src: i32,
        tag: Tag,
        comm: CommId,
        ceiling: u64,
    ) -> Option<(u64, Signature)> {
        if src != ANY_SOURCE && tag != ANY_TAG {
            // Exact signature: single hash lookup.
            let sig = Signature { src: src as Rank, tag, comm };
            return self
                .shelf_front(&sig)
                .filter(|stamp| *stamp < ceiling)
                .map(|stamp| (stamp, sig));
        }
        // Wildcard: fronts in ascending arrival order; the first matching
        // front is the earliest matching message overall, because any later
        // message of the same signature sits behind its queue's front.
        self.fronts
            .range(..ceiling)
            .find(|(_, sig)| sig_matches(sig, src, tag, comm))
            .map(|(stamp, sig)| (*stamp, *sig))
    }
}

/// A rank's incoming-message queue.
pub struct Mailbox {
    inner: Mutex<Shelves>,
    /// Mailbox-global arrival counter, shared by the shelf and lane paths
    /// (total ordering of deliveries).
    next_arrival: AtomicU64,
    /// Total queued envelopes across shelves and lanes.
    total: AtomicUsize,
    /// Promoted-signature lanes. Append-only (demoted lanes stay visible to
    /// claims until re-promoted or drained); writers only on promotion.
    lanes: RwLock<Vec<Arc<Lane>>>,
    /// Exact-claim streak that promotes a signature ([`LANES_OFF`] disables
    /// lanes entirely).
    promote_after: u32,
    /// Under bounded-mailbox backpressure: the job's credit ledger and this
    /// mailbox's rank, so claiming an application envelope returns its
    /// delivery credit and wakes parked senders.
    credit: Option<(Arc<Backpressure>, Rank)>,
}

impl Default for Mailbox {
    fn default() -> Self {
        Mailbox {
            inner: Mutex::new(Shelves::default()),
            next_arrival: AtomicU64::new(0),
            total: AtomicUsize::new(0),
            lanes: RwLock::new(Vec::new()),
            promote_after: PROMOTE_AFTER,
            credit: None,
        }
    }
}

impl std::fmt::Debug for Mailbox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mailbox")
            .field("total", &self.total.load(Ordering::Relaxed))
            .field("lanes", &self.lanes.read().len())
            .field("bounded", &self.credit.is_some())
            .finish()
    }
}

impl Mailbox {
    /// Create an empty mailbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty mailbox with an explicit lane-promotion threshold
    /// (`0` promotes on the first exact claim; [`LANES_OFF`] disables
    /// lanes). Tests and the property suite use this to exercise the lane
    /// machinery aggressively.
    pub fn with_promote_after(promote_after: u32) -> Self {
        Mailbox { promote_after: promote_after.max(1), ..Self::default() }
    }

    /// Create an empty bounded mailbox owned by `rank`, wired to the job's
    /// credit ledger.
    pub(crate) fn with_credit(bp: Arc<Backpressure>, rank: Rank, promote_after: u32) -> Self {
        Mailbox { credit: Some((bp, rank)), promote_after: promote_after.max(1), ..Self::default() }
    }

    /// Return the delivery credit of a claimed application envelope.
    fn release_credit(&self, env: &Envelope) {
        if let Some((bp, rank)) = &self.credit {
            if !env.comm.is_internal() {
                bp.release(*rank);
            }
        }
    }

    /// The active lane for `sig`, if any.
    fn active_lane(&self, sig: &Signature) -> Option<Arc<Lane>> {
        self.lanes
            .read()
            .iter()
            .find(|l| l.sig == *sig && l.active.load(Ordering::Relaxed))
            .cloned()
    }

    /// Deliver an envelope (called by the network from any thread).
    pub fn deliver(&self, env: Envelope) {
        // Count before publishing: a concurrent claim's decrement can then
        // never land first and transiently wrap `total` (len()/is_empty()
        // may briefly overreport instead, which callers tolerate — they
        // just find nothing and re-check).
        self.total.fetch_add(1, Ordering::Release);
        match self.active_lane(&env.signature()) {
            Some(lane) => lane.push(&self.next_arrival, env),
            None => {
                let mut sh = self.inner.lock();
                let arrival = self.next_arrival.fetch_add(1, Ordering::Relaxed);
                sh.push(arrival, env);
            }
        }
    }

    /// Deliver a batch of envelopes to this mailbox, taking each internal
    /// lock at most once — the delivery half of wakeup coalescing (the
    /// scheduler wake is the caller's, also once per batch).
    pub fn deliver_batch(&self, envs: Vec<Envelope>) {
        if envs.is_empty() {
            return;
        }
        // Count before publishing — same wrap-avoidance as `deliver`.
        self.total.fetch_add(envs.len(), Ordering::Release);
        let mut sh: Option<MutexGuard<'_, Shelves>> = None;
        for env in envs {
            match self.active_lane(&env.signature()) {
                Some(lane) => lane.push(&self.next_arrival, env),
                None => {
                    let sh = sh.get_or_insert_with(|| self.inner.lock());
                    let arrival = self.next_arrival.fetch_add(1, Ordering::Relaxed);
                    sh.push(arrival, env);
                }
            }
        }
    }

    /// The combined claim over shelves and lanes: take the matching
    /// envelope with the smallest front stamp below `ceiling`, run the lane
    /// promotion/demotion bookkeeping, and maintain the total. Runs under
    /// the shelf lock (the guard), which serializes all consumers.
    ///
    /// `ceiling` is `u64::MAX` for one-shot claims; a [`MailboxGuard`]
    /// passes its arrival-counter snapshot so a multi-claim pass sees a
    /// frozen mailbox even though lane deliveries bypass the shelf mutex.
    fn claim_locked(
        &self,
        sh: &mut Shelves,
        src: i32,
        tag: Tag,
        comm: CommId,
        ceiling: u64,
    ) -> Option<Envelope> {
        let exact = src != ANY_SOURCE && tag != ANY_TAG;
        let shelf_best = sh.best_shelf(src, tag, comm, ceiling);
        // Lane fronts: for exact claims only the one signature can match;
        // wildcards scan every lane (bounded by MAX_LANES). Unbounded claims
        // read the mirrored front atomics; snapshot claims take each lane
        // lock, which serializes with in-flight pushes so an envelope
        // stamped below the ceiling is never missed mid-publish.
        let lane_best: Option<Arc<Lane>> = {
            let lanes = self.lanes.read();
            let mut best: Option<(u64, &Arc<Lane>)> = None;
            for l in lanes.iter() {
                if !sig_matches(&l.sig, src, tag, comm) {
                    continue;
                }
                let front = if ceiling == u64::MAX {
                    l.front.load(Ordering::Acquire)
                } else {
                    l.q.lock().front().map_or(u64::MAX, |s| s.arrival)
                };
                if front < ceiling && best.is_none_or(|(b, _)| front < b) {
                    best = Some((front, l));
                }
            }
            match (shelf_best, best) {
                (Some((s, _)), Some((f, l))) if f < s => Some(Arc::clone(l)),
                (None, Some((_, l))) => Some(Arc::clone(l)),
                _ => None,
            }
        };
        let env = match lane_best {
            Some(lane) => lane.pop().expect("lane front was non-empty under the consumer lock"),
            None => {
                let (_, sig) = shelf_best?;
                sh.pop_shelf(sig)
            }
        };
        self.total.fetch_sub(1, Ordering::Release);
        let sig = env.signature();
        if exact {
            if self.promote_after != LANES_OFF {
                let streak = sh.streaks.entry(sig).or_insert(0);
                *streak = streak.saturating_add(1);
                if *streak >= self.promote_after {
                    self.promote(sig);
                }
            }
        } else {
            // A wildcard claim touched this signature: demote its lane (the
            // wildcard path needs the global front index) and restart its
            // streak. Purely a function of the claim sequence.
            sh.streaks.remove(&sig);
            if let Some(l) = self.lanes.read().iter().find(|l| l.sig == sig) {
                l.active.store(false, Ordering::Relaxed);
            }
        }
        Some(env)
    }

    /// Promote `sig`: reactivate its existing lane or create one (bounded
    /// by [`MAX_LANES`]; at the cap the signature simply stays on the shelf
    /// path). Called under the shelf lock.
    fn promote(&self, sig: Signature) {
        {
            let lanes = self.lanes.read();
            if let Some(l) = lanes.iter().find(|l| l.sig == sig) {
                l.active.store(true, Ordering::Relaxed);
                return;
            }
            if lanes.len() >= MAX_LANES {
                return;
            }
        }
        let mut lanes = self.lanes.write();
        // Re-check under the write lock (claims race only with themselves,
        // but stay defensive).
        if lanes.len() < MAX_LANES && !lanes.iter().any(|l| l.sig == sig) {
            lanes.push(Lane::new(sig));
        }
    }

    /// The earliest matching front across shelves and lanes, peeked
    /// (`(stamp, src, tag, payload_len)`).
    fn probe_locked(
        &self,
        sh: &Shelves,
        src: i32,
        tag: Tag,
        comm: CommId,
    ) -> Option<(Rank, Tag, usize)> {
        let shelf_best = sh.best_shelf(src, tag, comm, u64::MAX);
        let lanes = self.lanes.read();
        let mut best: Option<(u64, (Rank, Tag, usize))> = shelf_best.map(|(stamp, sig)| {
            let front = &sh.queues[&sig].front().expect("fronts index a non-empty queue").env;
            (stamp, (front.src, front.tag, front.payload.len()))
        });
        for l in lanes.iter() {
            if !sig_matches(&l.sig, src, tag, comm) {
                continue;
            }
            let q = l.q.lock();
            if let Some(s) = q.front() {
                if best.is_none_or(|(b, _)| s.arrival < b) {
                    best = Some((s.arrival, (s.env.src, s.env.tag, s.env.payload.len())));
                }
            }
        }
        best.map(|(_, info)| info)
    }

    /// Claim the first arrived envelope matching `(src, tag, comm)`, if any.
    pub fn try_claim(&self, src: i32, tag: Tag, comm: CommId) -> Option<Envelope> {
        let env = {
            let mut sh = self.inner.lock();
            self.claim_locked(&mut sh, src, tag, comm, u64::MAX)?
        };
        self.release_credit(&env);
        Some(env)
    }

    /// Peek (do not claim) the first arrived envelope matching
    /// `(src, tag, comm)`, returning `(src, tag, payload_len)` — `iprobe`.
    pub fn probe(&self, src: i32, tag: Tag, comm: CommId) -> Option<(Rank, Tag, usize)> {
        let sh = self.inner.lock();
        self.probe_locked(&sh, src, tag, comm)
    }

    /// Hold the mailbox lock across several matching operations. Used by the
    /// request engine to perform posted-order matching of multiple pending
    /// receives atomically with respect to concurrent deliveries.
    ///
    /// Lane deliveries bypass the shelf mutex, so the guard also snapshots
    /// the arrival counter at acquisition: claims through the guard see only
    /// envelopes stamped below that ceiling. A message landing in a lane
    /// mid-pass is therefore invisible to the *whole* pass — a later-posted
    /// receive can never claim it after an earlier-posted matching receive
    /// already looked and found nothing. It is matched by the next pass,
    /// which re-scans posted receives from the front under a fresh snapshot.
    pub fn lock(&self) -> MailboxGuard<'_> {
        let inner = self.inner.lock();
        // Read after acquiring the shelf lock: shelf stamps are assigned
        // under that lock and lane stamps under their lane lock, so every
        // envelope stamped below this ceiling is observable once the
        // matching queue's lock is (re)taken.
        let ceiling = self.next_arrival.load(Ordering::Acquire);
        MailboxGuard { inner, owner: self, ceiling }
    }

    /// Number of undelivered envelopes (diagnostics / tests).
    pub fn len(&self) -> usize {
        self.total.load(Ordering::Acquire)
    }

    /// True if no envelopes are waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drain every envelope (used when tearing a job down).
    pub fn clear(&self) {
        let mut sh = self.inner.lock();
        sh.queues.clear();
        sh.fronts.clear();
        sh.streaks.clear();
        sh.idle_queues = 0;
        for l in self.lanes.read().iter() {
            let mut q = l.q.lock();
            q.clear();
            l.front.store(u64::MAX, Ordering::Release);
        }
        self.total.store(0, Ordering::Release);
    }
}

/// Exclusive access to a locked mailbox (see [`Mailbox::lock`]).
pub struct MailboxGuard<'a> {
    inner: MutexGuard<'a, Shelves>,
    owner: &'a Mailbox,
    /// Arrival stamps at or past this value were delivered after the guard
    /// was taken and stay invisible to its claims (see [`Mailbox::lock`]).
    ceiling: u64,
}

impl MailboxGuard<'_> {
    /// Claim the earliest-arrived matching envelope under the held lock,
    /// restricted to envelopes delivered before the guard was taken.
    /// Under backpressure the claimed envelope's delivery credit is
    /// returned immediately (lock order mailbox → ledger is the only
    /// nesting of the two).
    pub fn claim(&mut self, src: i32, tag: Tag, comm: CommId) -> Option<Envelope> {
        let env = self.owner.claim_locked(&mut self.inner, src, tag, comm, self.ceiling)?;
        self.owner.release_credit(&env);
        Some(env)
    }

    /// Number of queued envelopes.
    pub fn len(&self) -> usize {
        self.owner.total.load(Ordering::Acquire)
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All queued envelopes in global arrival order (diagnostics / tests).
    /// Envelope clones are cheap: payloads are ref-counted views.
    pub fn snapshot_arrival_order(&self) -> Vec<Envelope> {
        let mut all: Vec<(u64, Envelope)> = self
            .inner
            .queues
            .values()
            .flat_map(|q| q.iter().map(|s| (s.arrival, s.env.clone())))
            .collect();
        for l in self.owner.lanes.read().iter() {
            all.extend(l.q.lock().iter().map(|s| (s.arrival, s.env.clone())));
        }
        all.sort_by_key(|(arrival, _)| *arrival);
        all.into_iter().map(|(_, env)| env).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::Payload;
    use crate::{ANY_SOURCE, ANY_TAG, COMM_WORLD};

    fn env(src: usize, tag: Tag, seq: u64) -> Envelope {
        Envelope {
            src,
            dst: 0,
            tag,
            comm: COMM_WORLD,
            seq,
            piggyback: 0,
            depart_vt: 0,
            payload: Payload::from_vec(vec![seq as u8]),
        }
    }

    #[test]
    fn claims_in_arrival_order_per_signature() {
        let mb = Mailbox::new();
        mb.deliver(env(1, 5, 0));
        mb.deliver(env(1, 5, 1));
        let a = mb.try_claim(1, 5, COMM_WORLD).unwrap();
        let b = mb.try_claim(1, 5, COMM_WORLD).unwrap();
        assert_eq!(a.seq, 0);
        assert_eq!(b.seq, 1);
        assert!(mb.try_claim(1, 5, COMM_WORLD).is_none());
    }

    #[test]
    fn cross_signature_selective_receive() {
        // The application can receive messages in an order different from
        // arrival order by using different signatures — the paper's §2.4
        // point that this "has nothing to do with FIFO behavior of the
        // underlying communication system".
        let mb = Mailbox::new();
        mb.deliver(env(1, 5, 0));
        mb.deliver(env(2, 9, 0));
        let first = mb.try_claim(2, 9, COMM_WORLD).unwrap();
        assert_eq!(first.src, 2);
        let second = mb.try_claim(1, 5, COMM_WORLD).unwrap();
        assert_eq!(second.src, 1);
    }

    #[test]
    fn wildcard_takes_earliest_arrival() {
        let mb = Mailbox::new();
        mb.deliver(env(2, 9, 0));
        mb.deliver(env(1, 5, 0));
        let got = mb.try_claim(ANY_SOURCE, ANY_TAG, COMM_WORLD).unwrap();
        assert_eq!(got.src, 2);
    }

    #[test]
    fn wildcard_respects_arrival_order_across_interleaved_signatures() {
        // Deliveries interleave three signatures; a pure-wildcard drain must
        // reproduce the exact global arrival order even though each
        // signature lives in its own indexed queue.
        let mb = Mailbox::new();
        let order = [(1usize, 5), (3, 2), (1, 5), (2, 7), (3, 2), (2, 7), (1, 5)];
        for (i, (src, tag)) in order.iter().enumerate() {
            mb.deliver(env(*src, *tag, i as u64));
        }
        for (i, (src, tag)) in order.iter().enumerate() {
            let got = mb.try_claim(ANY_SOURCE, ANY_TAG, COMM_WORLD).unwrap();
            assert_eq!((got.src, got.tag, got.seq), (*src, *tag, i as u64));
        }
        assert!(mb.is_empty());
    }

    #[test]
    fn partial_wildcards_match_in_arrival_order() {
        let mb = Mailbox::new();
        mb.deliver(env(2, 9, 0)); // other source
        mb.deliver(env(1, 5, 1));
        mb.deliver(env(1, 8, 2));
        mb.deliver(env(1, 5, 3));
        // ANY_TAG from src 1: earliest arrival from that source is seq 1.
        let got = mb.try_claim(1, ANY_TAG, COMM_WORLD).unwrap();
        assert_eq!((got.tag, got.seq), (5, 1));
        // ANY_SOURCE with tag 5: next is seq 3 (seq 1 already claimed).
        let got = mb.try_claim(ANY_SOURCE, 5, COMM_WORLD).unwrap();
        assert_eq!((got.src, got.seq), (1, 3));
        assert_eq!(mb.len(), 2);
    }

    #[test]
    fn wildcards_do_not_cross_communicators() {
        let mb = Mailbox::new();
        let mut other = env(1, 5, 0);
        other.comm = CommId(9);
        mb.deliver(other);
        mb.deliver(env(1, 5, 1));
        let got = mb.try_claim(ANY_SOURCE, ANY_TAG, COMM_WORLD).unwrap();
        assert_eq!(got.seq, 1, "wildcard must not match a different communicator");
        assert!(mb.try_claim(ANY_SOURCE, ANY_TAG, COMM_WORLD).is_none());
        assert_eq!(mb.len(), 1);
    }

    #[test]
    fn probe_does_not_claim() {
        let mb = Mailbox::new();
        mb.deliver(env(3, 1, 7));
        let (src, tag, len) = mb.probe(ANY_SOURCE, ANY_TAG, COMM_WORLD).unwrap();
        assert_eq!((src, tag, len), (3, 1, 1));
        assert_eq!(mb.len(), 1);
    }

    #[test]
    fn snapshot_preserves_global_arrival_order() {
        let mb = Mailbox::new();
        mb.deliver(env(2, 1, 0));
        mb.deliver(env(1, 1, 0));
        mb.deliver(env(2, 1, 1));
        let snap = mb.lock().snapshot_arrival_order();
        let srcs: Vec<usize> = snap.iter().map(|e| e.src).collect();
        assert_eq!(srcs, vec![2, 1, 2]);
    }

    #[test]
    fn locked_guard_claims_atomically() {
        let mb = Mailbox::new();
        mb.deliver(env(1, 5, 0));
        mb.deliver(env(2, 5, 1));
        let mut g = mb.lock();
        assert_eq!(g.len(), 2);
        let a = g.claim(ANY_SOURCE, 5, COMM_WORLD).unwrap();
        let b = g.claim(ANY_SOURCE, 5, COMM_WORLD).unwrap();
        assert_eq!((a.src, b.src), (1, 2));
        assert!(g.is_empty());
    }

    // ------------------------------------------------------------------
    // Lane promotion / demotion mechanics
    // ------------------------------------------------------------------

    fn lane_count(mb: &Mailbox, active: bool) -> usize {
        mb.lanes.read().iter().filter(|l| l.active.load(Ordering::Relaxed) == active).count()
    }

    #[test]
    fn exact_claim_streak_promotes_a_lane() {
        let mb = Mailbox::with_promote_after(3);
        for seq in 0..6u64 {
            mb.deliver(env(1, 5, seq));
        }
        for seq in 0..3u64 {
            assert_eq!(mb.try_claim(1, 5, COMM_WORLD).unwrap().seq, seq);
        }
        assert_eq!(lane_count(&mb, true), 1, "3 exact claims must promote (1,5)");
        // New deliveries land in the lane; shelf stragglers drain first.
        for seq in 6..9u64 {
            mb.deliver(env(1, 5, seq));
        }
        for seq in 3..9u64 {
            assert_eq!(mb.try_claim(1, 5, COMM_WORLD).unwrap().seq, seq, "FIFO across the split");
        }
        assert!(mb.is_empty());
    }

    #[test]
    fn wildcard_claim_demotes_the_lane_but_never_loses_order() {
        let mb = Mailbox::with_promote_after(2);
        for seq in 0..2u64 {
            mb.deliver(env(1, 5, seq));
            mb.try_claim(1, 5, COMM_WORLD).unwrap();
        }
        assert_eq!(lane_count(&mb, true), 1);
        // Interleave lane traffic with another signature, then drain by
        // wildcard: exact global arrival order, and the lane is demoted.
        mb.deliver(env(1, 5, 2)); // lane
        mb.deliver(env(2, 9, 0)); // shelf
        mb.deliver(env(1, 5, 3)); // lane
        let a = mb.try_claim(ANY_SOURCE, ANY_TAG, COMM_WORLD).unwrap();
        assert_eq!((a.src, a.seq), (1, 2));
        assert_eq!(lane_count(&mb, false), 1, "wildcard touching the lane must demote it");
        // Post-demotion deliveries go to the shelf; the lane still drains.
        mb.deliver(env(1, 5, 4));
        let b = mb.try_claim(ANY_SOURCE, ANY_TAG, COMM_WORLD).unwrap();
        assert_eq!((b.src, b.seq), (2, 0));
        for seq in 3..5u64 {
            assert_eq!(mb.try_claim(1, 5, COMM_WORLD).unwrap().seq, seq);
        }
        assert!(mb.is_empty());
    }

    #[test]
    fn guard_snapshot_hides_lane_deliveries_made_during_the_guard() {
        // The posted-order scan holds a MailboxGuard while checking posted
        // receives one by one. A lane delivery bypasses the shelf mutex, so
        // without the snapshot ceiling it could surface halfway through the
        // scan and be claimed by a later-posted receive after an
        // earlier-posted matching receive already looked and found nothing.
        let mb = Mailbox::with_promote_after(1);
        mb.deliver(env(1, 5, 0));
        mb.try_claim(1, 5, COMM_WORLD).unwrap(); // promotes (1,5)
        assert_eq!(lane_count(&mb, true), 1);
        let mut g = mb.lock();
        mb.deliver(env(1, 5, 1)); // lands in the lane, shelf lock not needed
        assert!(
            g.claim(1, 5, COMM_WORLD).is_none(),
            "a mid-guard lane arrival must stay invisible to the whole pass"
        );
        assert!(g.claim(ANY_SOURCE, ANY_TAG, COMM_WORLD).is_none());
        drop(g);
        // The next pass runs under a fresh snapshot and matches it.
        assert_eq!(mb.try_claim(1, 5, COMM_WORLD).unwrap().seq, 1);
        assert!(mb.is_empty());
    }

    #[test]
    fn retained_empty_queue_bound_holds_across_many_signatures() {
        // Drain one message per distinct signature: each pop leaves an empty
        // queue, and only RETAINED_EMPTY_QUEUES of them may stay allocated.
        let mb = Mailbox::with_promote_after(LANES_OFF);
        for i in 0..RETAINED_EMPTY_QUEUES + 50 {
            mb.deliver(env(i, 1, 0));
            mb.try_claim(i as i32, 1, COMM_WORLD).unwrap();
        }
        let sh = mb.inner.lock();
        assert_eq!(sh.idle_queues, RETAINED_EMPTY_QUEUES);
        assert_eq!(
            sh.queues.len(),
            RETAINED_EMPTY_QUEUES,
            "emptied queues beyond the retention bound must be freed"
        );
    }

    #[test]
    fn deliver_batch_matches_sequential_delivery() {
        let mb = Mailbox::new();
        let batch: Vec<Envelope> = (0..5u64).map(|i| env(1 + (i as usize % 2), 5, i)).collect();
        mb.deliver_batch(batch);
        assert_eq!(mb.len(), 5);
        for i in 0..5u64 {
            let got = mb.try_claim(ANY_SOURCE, ANY_TAG, COMM_WORLD).unwrap();
            assert_eq!(got.seq, i, "batch delivery must preserve arrival order");
        }
    }
}
