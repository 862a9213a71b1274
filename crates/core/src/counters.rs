//! Per-peer message counters and the local commit condition (§3.1).
//!
//! Each process maintains `Sent-Count[Q]` (messages sent to Q this epoch,
//! counting every logical stream, collective streams included) plus
//! received / early-received / late-received counters. When a checkpoint is
//! taken the counters are shuffled exactly as in `chkpt_StartCheckpoint`
//! (Fig. 5):
//!
//! ```text
//! Late-Received  := Received          (prev-epoch messages seen so far)
//! Received       := Early-Received    (they were this epoch's intra all along)
//! Early-Received := 0
//! ```
//!
//! The process can commit when, for every peer Q, a `Checkpoint-Initiated`
//! message has supplied Q's `Sent-Count[me]` for the previous epoch and
//! `Late-Received[Q]` has reached it. The decision is entirely local — the
//! paper's scalability improvement over the earlier initiator-based design
//! (§4.5).

use statesave::codec::{CodecError, Decoder, Encoder};

/// Per-peer counters for one process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counters {
    /// Messages (logical streams) sent to each peer in the current epoch.
    pub sent: Vec<u64>,
    /// Intra-epoch messages received from each peer in the current epoch.
    pub received: Vec<u64>,
    /// Early messages received from each peer (belonging to the next epoch).
    pub early_received: Vec<u64>,
    /// Previous-epoch messages received from each peer (pre-checkpoint
    /// intra + post-checkpoint late).
    pub late_received: Vec<u64>,
    /// Peers' sent-counts from their Checkpoint-Initiated messages for the
    /// line being committed (`None` until the CI arrives).
    pub late_expected: Vec<Option<u64>>,
}

impl Counters {
    /// Zeroed counters for an `n`-rank job.
    pub fn new(n: usize) -> Self {
        Counters {
            sent: vec![0; n],
            received: vec![0; n],
            early_received: vec![0; n],
            late_received: vec![0; n],
            late_expected: vec![None; n],
        }
    }

    /// Number of peers.
    pub fn nranks(&self) -> usize {
        self.sent.len()
    }

    /// The checkpoint-time shuffle of Fig. 5. Returns the per-peer sent
    /// counts that must travel with the Checkpoint-Initiated messages.
    pub fn start_checkpoint(&mut self) -> Vec<u64> {
        let n = self.nranks();
        let ci = std::mem::replace(&mut self.sent, vec![0; n]);
        self.late_received = std::mem::replace(&mut self.received, self.early_received.clone());
        for e in &mut self.early_received {
            *e = 0;
        }
        self.late_expected = vec![None; n];
        ci
    }

    /// Record a peer's Checkpoint-Initiated sent-count for the line being
    /// committed.
    pub fn set_expected(&mut self, peer: usize, count: u64) {
        self.late_expected[peer] = Some(count);
    }

    /// Has every peer's CI arrived?
    pub fn all_ci_received(&self, me: usize) -> bool {
        self.late_expected.iter().enumerate().all(|(q, v)| q == me || v.is_some())
    }

    /// The local commit condition: all CIs present and every promised late
    /// message received.
    pub fn all_late_received(&self, me: usize) -> bool {
        self.late_expected.iter().enumerate().all(|(q, v)| {
            if q == me {
                return true;
            }
            match v {
                Some(exp) => self.late_received[q] >= *exp,
                None => false,
            }
        })
    }

    /// Invariant check: a process can never receive more late messages from
    /// a peer than that peer's CI promised. Violation means an
    /// epoch-accounting bug.
    pub fn late_overrun(&self, me: usize) -> Option<usize> {
        self.late_expected.iter().enumerate().find_map(|(q, v)| match v {
            Some(exp) if q != me && self.late_received[q] > *exp => Some(q),
            _ => None,
        })
    }

    /// Serialize for the recovery line, which saves them right after the
    /// Fig. 5 shuffle: only `received` can be non-zero there, and it carries
    /// the early messages that will not be re-sent.
    pub fn save(&self, e: &mut Encoder) {
        debug_assert!(self.sent.iter().chain(&self.early_received).all(|&c| c == 0));
        e.u64_slice(&self.received);
    }

    /// Deserialize; late bookkeeping restarts clean (the restored line was
    /// fully committed).
    pub fn load(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let received = d.u64_vec()?;
        let n = received.len();
        Ok(Counters { received, ..Counters::new(n) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_shuffle() {
        let mut c = Counters::new(3);
        c.sent = vec![5, 0, 2];
        c.received = vec![1, 0, 4];
        c.early_received = vec![0, 0, 3];
        let ci = c.start_checkpoint();
        assert_eq!(ci, vec![5, 0, 2]);
        assert_eq!(c.sent, vec![0, 0, 0]);
        assert_eq!(c.late_received, vec![1, 0, 4]);
        assert_eq!(c.received, vec![0, 0, 3]);
        assert_eq!(c.early_received, vec![0, 0, 0]);
    }

    #[test]
    fn commit_condition_requires_all_cis_and_counts() {
        let mut c = Counters::new(3);
        let me = 0;
        c.received = vec![0, 2, 1];
        c.start_checkpoint();
        assert!(!c.all_ci_received(me));
        assert!(!c.all_late_received(me));
        // Peer 1 sent 3 messages in the old epoch; we saw 2 before the line.
        c.set_expected(1, 3);
        c.set_expected(2, 1);
        assert!(c.all_ci_received(me));
        assert!(!c.all_late_received(me), "one late message from peer 1 still missing");
        c.late_received[1] += 1;
        assert!(c.all_late_received(me));
        assert!(c.late_overrun(me).is_none());
        c.late_received[2] += 1;
        assert_eq!(c.late_overrun(me), Some(2));
    }

    #[test]
    fn counters_codec_roundtrip() {
        let mut c = Counters::new(2);
        c.sent = vec![7, 8];
        c.received = vec![1, 2];
        c.early_received = vec![0, 5];
        // A line saves the counters right after the shuffle.
        c.start_checkpoint();
        let mut e = Encoder::new();
        c.save(&mut e);
        let buf = e.finish();
        let c2 = Counters::load(&mut Decoder::new(&buf)).unwrap();
        assert_eq!(c2.sent, vec![0, 0]);
        assert_eq!(c2.received, vec![0, 5]);
        assert_eq!(c2.early_received, vec![0, 0]);
        assert_eq!(c2.late_received, vec![0, 0]);
    }
}
