//! Message envelopes and matching signatures.

use crate::payload::Payload;
use crate::{CommId, Rank, Tag};

/// The matching signature of a message: `(source, tag, communicator)`.
///
/// This is exactly the paper's message signature (`<sending node number,
/// tag, communicator>`): per-signature delivery is FIFO, but there is no
/// ordering guarantee *across* signatures, which is why the protocol layer
/// must piggyback epoch information on every message (§2.4, §3.2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Signature {
    /// World rank of the sender.
    pub src: Rank,
    /// Application tag.
    pub tag: Tag,
    /// Communicator the message travels on.
    pub comm: CommId,
}

impl Signature {
    /// Does this signature match a receive posted with the given (possibly
    /// wildcard) source and tag on `comm`? The single definition of MPI
    /// matching; [`Envelope::matches`] and the mailbox index delegate here.
    #[inline]
    pub fn matches(&self, src: i32, tag: Tag, comm: CommId) -> bool {
        self.comm == comm
            && (src == crate::ANY_SOURCE || self.src == src as Rank)
            && (tag == crate::ANY_TAG || self.tag == tag)
    }
}

/// A message in flight or in a mailbox.
///
/// Cloning an envelope is cheap: the payload is a ref-counted buffer, so a
/// broadcast fan-out shares one buffer across every destination's envelope.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// World rank of the sender.
    pub src: Rank,
    /// World rank of the destination.
    pub dst: Rank,
    /// Application tag.
    pub tag: Tag,
    /// Communicator.
    pub comm: CommId,
    /// Per-(src,dst) monotone sequence number, unique across tags and
    /// communicators; used to assert per-signature FIFO in tests, by the
    /// fault model's fate hash and by its duplicate suppression.
    pub seq: u64,
    /// Opaque piggyback byte owned by the protocol layer above the substrate
    /// (the paper's 3 piggybacked bits travel here). The substrate never
    /// interprets it.
    pub piggyback: u8,
    /// Virtual departure time (ns) under the cluster model.
    pub depart_vt: u64,
    /// The (packed) message payload — a shared, zero-copy buffer.
    pub payload: Payload,
}

impl Envelope {
    /// This message's matching signature.
    #[inline]
    pub fn signature(&self) -> Signature {
        Signature { src: self.src, tag: self.tag, comm: self.comm }
    }

    /// Does this envelope match a receive posted with the given (possibly
    /// wildcard) source and tag on `comm`?
    #[inline]
    pub fn matches(&self, src: i32, tag: Tag, comm: CommId) -> bool {
        self.signature().matches(src, tag, comm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ANY_SOURCE, ANY_TAG, COMM_WORLD};

    fn env(src: Rank, tag: Tag) -> Envelope {
        Envelope {
            src,
            dst: 0,
            tag,
            comm: COMM_WORLD,
            seq: 0,
            piggyback: 0,
            depart_vt: 0,
            payload: Payload::empty(),
        }
    }

    #[test]
    fn exact_match() {
        assert!(env(3, 7).matches(3, 7, COMM_WORLD));
        assert!(!env(3, 7).matches(2, 7, COMM_WORLD));
        assert!(!env(3, 7).matches(3, 8, COMM_WORLD));
        assert!(!env(3, 7).matches(3, 7, CommId(5)));
    }

    #[test]
    fn wildcards() {
        assert!(env(3, 7).matches(ANY_SOURCE, 7, COMM_WORLD));
        assert!(env(3, 7).matches(3, ANY_TAG, COMM_WORLD));
        assert!(env(3, 7).matches(ANY_SOURCE, ANY_TAG, COMM_WORLD));
    }
}
