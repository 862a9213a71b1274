//! Non-blocking receive requests.
//!
//! Requests separate initiation from completion (`MPI_Irecv` +
//! `MPI_Test`/`MPI_Wait`). Sends in this substrate are buffered and complete
//! at initiation, so only receives are requests: each stays pending until a
//! matching envelope is claimed. Pending receives are matched in *posted
//! order* against envelopes in *arrival order*, reproducing MPI's matching
//! rules for overlapping (wildcard) receives.

use crate::envelope::Envelope;
use crate::error::{MpiError, Result};
use crate::mailbox::Mailbox;
use crate::{CommId, Fx, Rank, Tag};
use std::collections::{HashMap, VecDeque};

/// Identifier of a request in a rank's request table.
///
/// Identifiers are never reused within a job, which lets the protocol layer
/// above store them in application state and re-instantiate "all request
/// objects with the same request identifiers during recovery" (§4.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ReqId(pub u64);

/// What a completed receive matched — MPI's `MPI_Status`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Status {
    /// World rank of the message source.
    pub src: Rank,
    /// Message tag.
    pub tag: Tag,
    /// Payload size in bytes.
    pub bytes: usize,
    /// The sender's piggyback byte (protocol-layer data).
    pub piggyback: u8,
}

#[derive(Debug)]
enum ReqState {
    /// Posted receive, not yet matched.
    Pending { src: i32, tag: Tag, comm: CommId },
    /// Matched receive with the claimed message.
    Done(Envelope),
}

/// Rank-local request table with posted-order matching.
#[derive(Debug, Default)]
pub(crate) struct RequestTable {
    slots: HashMap<u64, ReqState, Fx>,
    /// Pending receive ids in posted order.
    posted: VecDeque<u64>,
    next: u64,
}

impl RequestTable {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add_recv(&mut self, src: i32, tag: Tag, comm: CommId) -> ReqId {
        let id = self.next;
        self.next += 1;
        self.slots.insert(id, ReqState::Pending { src, tag, comm });
        self.posted.push_back(id);
        ReqId(id)
    }

    /// Drive matching: claim arrived envelopes for pending receives in
    /// posted order. Runs entirely under the mailbox lock so that matching
    /// is atomic with respect to concurrent deliveries. Each claim is an
    /// indexed lookup (O(1) for exact signatures; arrival-ordered across
    /// signatures for wildcards).
    pub fn progress(&mut self, mailbox: &Mailbox) {
        if self.posted.is_empty() {
            return;
        }
        let mut guard = mailbox.lock();
        self.posted.retain(|id| {
            let (src, tag, comm) = match self.slots.get(id) {
                Some(ReqState::Pending { src, tag, comm }) => (*src, *tag, *comm),
                _ => return false, // no longer pending: drop from queue
            };
            if guard.is_empty() {
                return true;
            }
            match guard.claim(src, tag, comm) {
                Some(env) => {
                    self.slots.insert(*id, ReqState::Done(env));
                    false
                }
                None => true,
            }
        });
    }

    /// Consume a completed request and return its claimed envelope;
    /// `Ok(None)` leaves a pending one in place.
    pub fn take(&mut self, id: ReqId) -> Result<Option<Envelope>> {
        match self.slots.get(&id.0) {
            None => Err(MpiError::InvalidArg(format!("unknown request {id:?}"))),
            Some(ReqState::Pending { .. }) => Ok(None),
            Some(ReqState::Done(_)) => match self.slots.remove(&id.0) {
                Some(ReqState::Done(env)) => Ok(Some(env)),
                _ => unreachable!("the slot was just seen done"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::COMM_WORLD;

    fn env(src: Rank, tag: Tag, seq: u64) -> Envelope {
        Envelope {
            src,
            dst: 0,
            tag,
            comm: COMM_WORLD,
            seq,
            piggyback: 9,
            depart_vt: 0,
            payload: crate::payload::Payload::from_vec(vec![seq as u8]),
        }
    }

    #[test]
    fn posted_order_matching_with_wildcards() {
        let mb = Mailbox::new();
        let mut rt = RequestTable::new();
        // Post a wildcard receive, then a specific one.
        let r_wild = rt.add_recv(crate::ANY_SOURCE, crate::ANY_TAG, COMM_WORLD);
        let r_spec = rt.add_recv(1, 5, COMM_WORLD);
        // One message from (1,5) arrives: the wildcard was posted first, so
        // it gets the message.
        mb.deliver(env(1, 5, 0));
        rt.progress(&mb);
        assert!(rt.take(r_spec).unwrap().is_none(), "posted later, still pending");
        let first = rt.take(r_wild).unwrap().expect("posted first, matched first");
        assert_eq!((first.seq, first.piggyback), (0, 9));
        assert!(rt.take(r_wild).is_err(), "a taken request is gone");
        // Second message completes the specific receive.
        mb.deliver(env(1, 5, 1));
        rt.progress(&mb);
        assert_eq!(rt.take(r_spec).unwrap().unwrap().seq, 1);
    }

    #[test]
    fn ids_never_reused() {
        let mb = Mailbox::new();
        let mut rt = RequestTable::new();
        let a = rt.add_recv(0, 0, COMM_WORLD);
        mb.deliver(env(0, 0, 0));
        rt.progress(&mb);
        rt.take(a).unwrap().unwrap();
        let b = rt.add_recv(0, 0, COMM_WORLD);
        assert_ne!(a, b);
    }
}
