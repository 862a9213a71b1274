//! Per-rank mailboxes: signature-indexed arrival queues with MPI matching.
//!
//! Each rank owns one mailbox. Senders push envelopes (possibly through the
//! network's hold stage); the owning rank matches them against posted
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
//! The queues, the front index and the arrival counter live under one
//! mutex, and [`Mailbox::lock`] hands that same lock to the request
//! engine's posted-order scan, so no delivery can land mid-pass. Together
//! with the posted-order scan this reproduces MPI's matching rules.
//!
//! An atomic counts the queued [`COMM_CTRL`] envelopes, written under the
//! lock and read without it: a protocol layer's poll of its control plane
//! ([`Mailbox::try_claim`]) costs one load while none is queued. A zero that
//! races a delivery is a message not yet arrived; the delivery's wake orders
//! the increment before the rank's next poll.

use crate::envelope::{Envelope, Signature};
use crate::network::Backpressure;
use crate::{CommId, Fx, Rank, Tag, ANY_SOURCE, ANY_TAG, COMM_CTRL};
use parking_lot::{Mutex, MutexGuard};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Emptied per-signature queues retained (capacity and all) instead of
/// freed, so steady-state deliver/claim cycles stop churning the
/// allocator. Beyond this many idle queues, emptied ones are freed again.
const RETAINED_EMPTY_QUEUES: usize = 64;

#[derive(Debug)]
struct Stamped {
    arrival: u64,
    env: Envelope,
}

/// The state under the mailbox lock.
///
/// Invariant: `fronts` holds exactly one entry per non-empty queue, keyed by
/// that queue's front arrival stamp (stamps are unique); emptied queues stay
/// in `queues` (bounded by [`RETAINED_EMPTY_QUEUES`]) with no `fronts`
/// entry.
#[derive(Debug, Default)]
struct Shelves {
    /// Per-signature FIFO queues (possibly empty-but-retained).
    queues: HashMap<Signature, VecDeque<Stamped>, Fx>,
    /// Arrival stamp of each live queue's front envelope → its signature.
    /// Iterating this in key order visits queue heads oldest-first.
    fronts: BTreeMap<u64, Signature>,
    /// Number of empty queues currently retained in `queues`.
    idle_queues: usize,
    /// The next arrival stamp (total order of deliveries).
    next_arrival: u64,
    /// Total queued envelopes.
    len: usize,
}

impl Shelves {
    fn push(&mut self, env: Envelope) {
        use std::collections::hash_map::Entry;
        let arrival = self.next_arrival;
        self.next_arrival += 1;
        self.len += 1;
        let sig = env.signature();
        match self.queues.entry(sig) {
            Entry::Occupied(e) => {
                let q = e.into_mut();
                if q.is_empty() {
                    // Reviving a retained-idle queue: it leaves the idle set.
                    // (A freshly created queue was never counted, so the
                    // decrement lives only on this arm — otherwise the
                    // counter drifts low and the retention bound in
                    // `pop` never saturates.)
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

    /// The matching signature whose front envelope arrived earliest.
    fn best(&self, src: i32, tag: Tag, comm: CommId) -> Option<Signature> {
        if src != ANY_SOURCE && tag != ANY_TAG {
            // Exact signature: single hash lookup.
            let sig = Signature { src: src as Rank, tag, comm };
            return self.queues.get(&sig).is_some_and(|q| !q.is_empty()).then_some(sig);
        }
        // Wildcard: fronts in ascending arrival order; the first matching
        // front is the earliest matching message overall, because any later
        // message of the same signature sits behind its queue's front.
        self.fronts.values().find(|sig| sig.matches(src, tag, comm)).copied()
    }

    /// Pop the front of `sig`'s (non-empty) queue, maintaining the front
    /// index and the retained-queue arena.
    fn pop(&mut self, sig: Signature) -> Envelope {
        let q = self.queues.get_mut(&sig).expect("pop on live queue");
        let stamped = q.pop_front().expect("pop on non-empty queue");
        self.len -= 1;
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

    /// Claim the earliest-arrived envelope matching `(src, tag, comm)`.
    fn claim(&mut self, src: i32, tag: Tag, comm: CommId) -> Option<Envelope> {
        let sig = self.best(src, tag, comm)?;
        Some(self.pop(sig))
    }
}

/// A rank's incoming-message queue.
#[derive(Default)]
pub struct Mailbox {
    inner: Mutex<Shelves>,
    /// Queued `COMM_CTRL` envelopes; publishes nothing, so `Relaxed`.
    ctrl: AtomicUsize,
    /// Under bounded-mailbox backpressure: the job's credit ledger and this
    /// mailbox's rank, so claiming an application envelope returns its
    /// delivery credit and wakes parked senders.
    credit: Option<(Arc<Backpressure>, Rank)>,
}

impl std::fmt::Debug for Mailbox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mailbox")
            // `None` while the mailbox is locked (formatting must not block).
            .field("len", &self.inner.try_lock().map(|sh| sh.len))
            .field("bounded", &self.credit.is_some())
            .finish()
    }
}

impl Mailbox {
    /// Create an empty mailbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty bounded mailbox owned by `rank`, wired to the job's
    /// credit ledger.
    pub(crate) fn with_credit(bp: Arc<Backpressure>, rank: Rank) -> Self {
        Mailbox { credit: Some((bp, rank)), ..Self::default() }
    }

    /// Under the lock: un-count a claimed control envelope, or return the
    /// delivery credit of a claimed application envelope.
    fn claimed(&self, env: &Envelope) {
        if env.comm == COMM_CTRL {
            self.ctrl.fetch_sub(1, Ordering::Relaxed);
        }
        if let Some((bp, rank)) = &self.credit {
            if !env.comm.is_internal() {
                bp.release(*rank);
            }
        }
    }

    /// Deliver an envelope (called by the network from any thread).
    pub fn deliver(&self, env: Envelope) {
        self.deliver_batch([env]);
    }

    /// Deliver a batch of envelopes to this mailbox under one lock
    /// acquisition — the delivery half of wakeup coalescing (the scheduler
    /// wake is the caller's, also once per batch). Returns how many were
    /// delivered.
    pub fn deliver_batch(&self, envs: impl IntoIterator<Item = Envelope>) -> usize {
        let mut sh = self.inner.lock();
        let before = sh.len;
        for env in envs {
            if env.comm == COMM_CTRL {
                self.ctrl.fetch_add(1, Ordering::Relaxed);
            }
            sh.push(env);
        }
        sh.len - before
    }

    /// Claim the first arrived envelope matching `(src, tag, comm)`, if any.
    /// On `COMM_CTRL` with no control envelope queued, this takes no lock.
    pub fn try_claim(&self, src: i32, tag: Tag, comm: CommId) -> Option<Envelope> {
        if comm == COMM_CTRL && self.ctrl.load(Ordering::Relaxed) == 0 {
            return None;
        }
        self.lock().claim(src, tag, comm)
    }

    /// Peek (do not claim) the first arrived envelope matching
    /// `(src, tag, comm)`, returning `(src, tag, payload_len)` — `iprobe`.
    pub fn probe(&self, src: i32, tag: Tag, comm: CommId) -> Option<(Rank, Tag, usize)> {
        let sh = self.inner.lock();
        let sig = sh.best(src, tag, comm)?;
        let front = &sh.queues[&sig].front().expect("best names a non-empty queue").env;
        Some((front.src, front.tag, front.payload.len()))
    }

    /// Hold the mailbox lock across several matching operations. Used by the
    /// request engine to perform posted-order matching of multiple pending
    /// receives atomically with respect to concurrent deliveries: a
    /// later-posted receive can never claim a message that arrived after an
    /// earlier-posted matching receive already looked.
    pub fn lock(&self) -> MailboxGuard<'_> {
        MailboxGuard { inner: self.inner.lock(), owner: self }
    }

    /// Number of undelivered envelopes (diagnostics / tests).
    pub fn len(&self) -> usize {
        self.inner.lock().len
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
        sh.idle_queues = 0;
        sh.len = 0;
        self.ctrl.store(0, Ordering::Relaxed);
    }
}

/// Exclusive access to a locked mailbox (see [`Mailbox::lock`]).
pub struct MailboxGuard<'a> {
    inner: MutexGuard<'a, Shelves>,
    owner: &'a Mailbox,
}

impl MailboxGuard<'_> {
    /// Claim the earliest-arrived matching envelope under the held lock.
    /// Under backpressure the claimed envelope's delivery credit is
    /// returned immediately (lock order mailbox → ledger is the only
    /// nesting of the two).
    pub fn claim(&mut self, src: i32, tag: Tag, comm: CommId) -> Option<Envelope> {
        let env = self.inner.claim(src, tag, comm)?;
        self.owner.claimed(&env);
        Some(env)
    }

    /// Number of queued envelopes.
    pub fn len(&self) -> usize {
        self.inner.len
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All queued envelopes in global arrival order (diagnostics / tests).
    /// Envelope clones are cheap: payloads are ref-counted buffers.
    pub fn snapshot_arrival_order(&self) -> Vec<Envelope> {
        let mut all: Vec<&Stamped> = self.inner.queues.values().flatten().collect();
        all.sort_by_key(|s| s.arrival);
        all.into_iter().map(|s| s.env.clone()).collect()
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

    #[test]
    fn retained_empty_queue_bound_holds_across_many_signatures() {
        // Drain one message per distinct signature: each pop leaves an empty
        // queue, and only RETAINED_EMPTY_QUEUES of them may stay allocated.
        let mb = Mailbox::new();
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

    fn ctrl(src: usize, seq: u64) -> Envelope {
        Envelope { comm: COMM_CTRL, ..env(src, 3, seq) }
    }

    #[test]
    fn control_count_is_exact_across_deliveries_claims_and_clear() {
        // Unbounded, and bounded (the claim paths also return credits).
        let net = crate::Network::new(
            &crate::JobSpec::new(1).net(crate::NetModel::reliable().mailbox_capacity(2)),
        );
        for mb in [&Mailbox::new(), net.mailbox(0)] {
            let count = || mb.ctrl.load(Ordering::Relaxed);
            mb.deliver(ctrl(1, 0));
            assert_eq!(count(), 1);
            assert_eq!(mb.deliver_batch([ctrl(2, 0), env(1, 5, 0), ctrl(1, 1)]), 3);
            assert_eq!(count(), 3);
            assert_eq!(mb.try_claim(ANY_SOURCE, ANY_TAG, COMM_CTRL).unwrap().src, 1);
            assert_eq!(count(), 2);
            assert_eq!(mb.lock().claim(2, ANY_TAG, COMM_CTRL).unwrap().src, 2);
            assert_eq!(count(), 1);
            // Application traffic leaves the count alone.
            assert_eq!(mb.try_claim(1, 5, COMM_WORLD).unwrap().comm, COMM_WORLD);
            mb.deliver(env(1, 5, 1));
            assert_eq!(count(), 1);
            mb.clear();
            assert_eq!(count(), 0);
            assert!(mb.try_claim(ANY_SOURCE, ANY_TAG, COMM_CTRL).is_none());
            mb.deliver(ctrl(1, 2));
            assert_eq!(mb.lock().claim(ANY_SOURCE, ANY_TAG, COMM_CTRL).unwrap().seq, 2);
            assert_eq!(count(), 0);
            assert!(mb.is_empty());
        }
    }

    #[test]
    fn control_envelope_after_a_zero_count_probe_is_claimed_by_the_next_probe() {
        let mb = Mailbox::new();
        mb.deliver(env(1, 5, 0));
        assert!(mb.try_claim(ANY_SOURCE, ANY_TAG, COMM_CTRL).is_none());
        mb.deliver(ctrl(2, 7));
        let got = mb.try_claim(ANY_SOURCE, ANY_TAG, COMM_CTRL).unwrap();
        assert_eq!((got.src, got.seq), (2, 7));
        assert!(mb.try_claim(ANY_SOURCE, ANY_TAG, COMM_CTRL).is_none());
        assert_eq!(mb.len(), 1, "the application envelope stays queued");
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
