//! Out-of-band control messages of the co-ordination layer.
//!
//! Control traffic travels on the reserved `COMM_CTRL` communicator so it can
//! never be confused with application messages. The only control message
//! during normal operation is `Checkpoint-Initiated` (CI): sent by a process
//! to every peer when it takes its local checkpoint, carrying the new epoch
//! number and `Sent-Count[peer]` for the epoch that just ended (§3.1).
//!
//! CI messages for *different* checkpoint rounds can be in flight
//! simultaneously (a fast process may initiate round `r+1` while a slow one
//! is still committing round `r`), so the tracker files them by epoch.

use statesave::codec::{CodecError, Decoder, Encoder};
use std::collections::HashMap;

/// Tag of Checkpoint-Initiated messages on `COMM_CTRL`.
pub const TAG_CI: i32 = 1;

/// A decoded Checkpoint-Initiated message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CiMsg {
    /// The sender's *new* epoch (it has just started this epoch's
    /// checkpoint; the sent-count refers to epoch `new_epoch - 1`).
    pub new_epoch: u64,
    /// How many messages (logical streams) the sender sent to the recipient
    /// during the epoch that just ended.
    pub sent_count: u64,
}

impl CiMsg {
    /// Encode for the wire.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u64(self.new_epoch);
        e.u64(self.sent_count);
        e.finish()
    }

    /// Decode from the wire.
    pub fn decode(b: &[u8]) -> Result<Self, CodecError> {
        let mut d = Decoder::new(b);
        let msg = CiMsg { new_epoch: d.u64()?, sent_count: d.u64()? };
        if !d.is_exhausted() {
            return Err(CodecError("trailing bytes in CI message".into()));
        }
        Ok(msg)
    }
}

/// Files CI messages by round so that rounds may overlap.
#[derive(Default, Debug)]
pub struct CiTracker {
    /// epoch → (peer → sent_count).
    by_epoch: HashMap<u64, HashMap<usize, u64>>,
}

impl CiTracker {
    /// Empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// File a CI from `peer`.
    pub fn record(&mut self, peer: usize, msg: CiMsg) {
        self.by_epoch.entry(msg.new_epoch).or_default().insert(peer, msg.sent_count);
    }

    /// How many peers have initiated checkpoint round `epoch`?
    pub fn count(&self, epoch: u64) -> usize {
        self.by_epoch.get(&epoch).map(|m| m.len()).unwrap_or(0)
    }

    /// Has any peer initiated round `epoch`? (The "another process started a
    /// checkpoint" trigger at pragmas.)
    pub fn any(&self, epoch: u64) -> bool {
        self.count(epoch) > 0
    }

    /// Drain the recorded CIs for a round (consumed when the local process
    /// takes its own checkpoint for that round).
    pub fn take_round(&mut self, epoch: u64) -> HashMap<usize, u64> {
        self.by_epoch.remove(&epoch).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ci_wire_roundtrip() {
        let m = CiMsg { new_epoch: 3, sent_count: 999 };
        assert_eq!(CiMsg::decode(&m.encode()).unwrap(), m);
        assert!(CiMsg::decode(&[1, 2, 3]).is_err());
    }

    #[test]
    fn tracker_files_by_round() {
        let mut t = CiTracker::new();
        t.record(1, CiMsg { new_epoch: 2, sent_count: 10 });
        t.record(2, CiMsg { new_epoch: 2, sent_count: 0 });
        t.record(1, CiMsg { new_epoch: 3, sent_count: 4 });
        assert_eq!(t.count(2), 2);
        assert_eq!(t.count(3), 1);
        assert!(t.any(3));
        assert!(!t.any(4));
        let round = t.take_round(2);
        assert_eq!(round.len(), 2);
        assert_eq!(round.get(&1), Some(&10));
        assert_eq!(round.get(&3), None);
        assert_eq!(t.count(2), 0);
        assert_eq!(t.count(3), 1, "taking one round leaves the others");
    }

    #[test]
    fn duplicate_ci_overwrites() {
        let mut t = CiTracker::new();
        t.record(1, CiMsg { new_epoch: 2, sent_count: 5 });
        t.record(1, CiMsg { new_epoch: 2, sent_count: 5 });
        assert_eq!(t.count(2), 1);
    }
}
