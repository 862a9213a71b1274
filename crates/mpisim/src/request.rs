//! Non-blocking communication requests.
//!
//! Requests separate initiation from completion (`MPI_Isend`/`MPI_Irecv` +
//! `MPI_Test`/`MPI_Wait`). Sends in this substrate are buffered and complete
//! at initiation; receives stay pending until a matching envelope is claimed.
//! Pending receives are matched in *posted order* against envelopes in
//! *arrival order*, reproducing MPI's matching rules for overlapping
//! (wildcard) receives.

use crate::envelope::Envelope;
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

/// Completion information for a receive (or send) — MPI's `MPI_Status`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Status {
    /// World rank of the message source (the receiver itself for sends).
    pub src: Rank,
    /// Message tag.
    pub tag: Tag,
    /// Payload size in bytes.
    pub bytes: usize,
    /// The sender's piggyback byte (protocol-layer data).
    pub piggyback: u8,
}

#[derive(Debug)]
pub(crate) enum ReqState {
    /// Buffered send, already complete.
    SendDone { dst: Rank, tag: Tag, bytes: usize },
    /// Posted receive, not yet matched.
    RecvPending { src: i32, tag: Tag, comm: CommId },
    /// Matched receive with the claimed message.
    RecvDone { env: Envelope },
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

    pub fn add_send(&mut self, dst: Rank, tag: Tag, bytes: usize) -> ReqId {
        let id = self.next;
        self.next += 1;
        self.slots.insert(id, ReqState::SendDone { dst, tag, bytes });
        ReqId(id)
    }

    pub fn add_recv(&mut self, src: i32, tag: Tag, comm: CommId) -> ReqId {
        let id = self.next;
        self.next += 1;
        self.slots.insert(id, ReqState::RecvPending { src, tag, comm });
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
                Some(ReqState::RecvPending { src, tag, comm }) => (*src, *tag, *comm),
                _ => return false, // no longer pending: drop from queue
            };
            if guard.is_empty() {
                return true;
            }
            match guard.claim(src, tag, comm) {
                Some(env) => {
                    self.slots.insert(*id, ReqState::RecvDone { env });
                    false
                }
                None => true,
            }
        });
    }

    /// Is the request complete? (Does not consume it.)
    pub fn is_done(&self, id: ReqId) -> Option<bool> {
        self.slots.get(&id.0).map(|s| !matches!(s, ReqState::RecvPending { .. }))
    }

    /// Consume a completed request, returning its status and (for receives)
    /// the claimed payload.
    pub fn take(&mut self, id: ReqId) -> Option<(Status, Option<Envelope>)> {
        match self.slots.get(&id.0) {
            Some(ReqState::RecvPending { .. }) | None => None,
            Some(ReqState::SendDone { .. }) => {
                if let Some(ReqState::SendDone { dst, tag, bytes }) = self.slots.remove(&id.0) {
                    Some((Status { src: dst, tag, bytes, piggyback: 0 }, None))
                } else {
                    unreachable!()
                }
            }
            Some(ReqState::RecvDone { .. }) => {
                if let Some(ReqState::RecvDone { env }) = self.slots.remove(&id.0) {
                    let st = Status {
                        src: env.src,
                        tag: env.tag,
                        bytes: env.payload.len(),
                        piggyback: env.piggyback,
                    };
                    Some((st, Some(env)))
                } else {
                    unreachable!()
                }
            }
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
        assert_eq!(rt.is_done(r_wild), Some(true));
        assert_eq!(rt.is_done(r_spec), Some(false));
        // Second message completes the specific receive.
        mb.deliver(env(1, 5, 1));
        rt.progress(&mb);
        assert_eq!(rt.is_done(r_spec), Some(true));
        let (st, envlp) = rt.take(r_wild).unwrap();
        assert_eq!(st.piggyback, 9);
        assert_eq!(envlp.unwrap().seq, 0);
        let (_, envlp2) = rt.take(r_spec).unwrap();
        assert_eq!(envlp2.unwrap().seq, 1);
    }

    #[test]
    fn sends_complete_immediately() {
        let mut rt = RequestTable::new();
        let r = rt.add_send(3, 11, 64);
        assert_eq!(rt.is_done(r), Some(true));
        let (st, env) = rt.take(r).unwrap();
        assert_eq!(st.bytes, 64);
        assert!(env.is_none());
    }

    #[test]
    fn ids_never_reused() {
        let mut rt = RequestTable::new();
        let a = rt.add_send(0, 0, 0);
        rt.take(a).unwrap();
        let b = rt.add_send(0, 0, 0);
        assert_ne!(a, b);
    }
}
