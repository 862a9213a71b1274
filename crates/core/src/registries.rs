//! The protocol's message registries (§2.3, §3.1).
//!
//! * [`ReplayLog`] — the `Late-Message-Registry`: late-message *data* plus
//!   the *signatures* of intra-epoch wild-card receives logged during
//!   `NonDet-Log`, in application receive order. On recovery, receives are
//!   served from (and wild-cards forced by) this log.
//! * [`EarlyRegistry`] — signatures of early messages received, in order;
//!   saved with the checkpoint and distributed back to the original senders
//!   at restart.
//! * [`WasEarlyRegistry`] — the sender-side multiset built from peers'
//!   early registries; matching sends are suppressed during recovery.

use statesave::codec::{CodecError, Decoder, Encoder, Saveable};

/// A world rank (mirrors `mpisim::Rank`, kept as u32 on the wire).
pub type Rank = usize;

/// What kind of logical stream a registry entry refers to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum StreamKind {
    /// Plain point-to-point message with an application tag.
    P2p {
        /// Application tag.
        tag: i32,
    },
    /// One logical stream of collective call number `call` on its
    /// communicator (collectives match by call order, so the pair
    /// `(comm, call)` identifies the instance deterministically).
    Coll {
        /// Collective instance number on the communicator.
        call: u64,
    },
}

/// The paper's message signature, extended to collective streams:
/// `<sending node, tag-or-collective-instance, communicator>`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct StreamSig {
    /// World rank of the sender.
    pub src: Rank,
    /// World rank of the receiver.
    pub dst: Rank,
    /// Communicator id.
    pub comm: u32,
    /// P2p tag or collective instance.
    pub kind: StreamKind,
}

impl Saveable for StreamSig {
    fn save(&self, e: &mut Encoder) {
        e.u32(self.src as u32);
        e.u32(self.dst as u32);
        e.u32(self.comm);
        match self.kind {
            StreamKind::P2p { tag } => {
                e.u8(0);
                e.i32(tag);
            }
            StreamKind::Coll { call } => {
                e.u8(1);
                e.u64(call);
            }
        }
    }
    fn load(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let src = d.u32()? as Rank;
        let dst = d.u32()? as Rank;
        let comm = d.u32()?;
        let kind = match d.u8()? {
            0 => StreamKind::P2p { tag: d.i32()? },
            1 => StreamKind::Coll { call: d.u64()? },
            k => return Err(CodecError(format!("bad StreamKind {k}"))),
        };
        Ok(StreamSig { src, dst, comm, kind })
    }
}

impl StreamSig {
    /// Does this signature match a receive request with (possibly wildcard)
    /// `src` and `tag` on `comm`? Only P2p entries match p2p requests.
    pub fn matches_p2p(&self, src: i32, tag: i32, comm: u32) -> bool {
        if self.comm != comm {
            return false;
        }
        let tag_ok = match self.kind {
            StreamKind::P2p { tag: t } => tag == mpisim::ANY_TAG || t == tag,
            StreamKind::Coll { .. } => return false,
        };
        tag_ok && (src == mpisim::ANY_SOURCE || self.src == src as Rank)
    }
}

/// One entry of the replay log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayEntry {
    /// The stream the entry describes.
    pub sig: StreamSig,
    /// `Some(payload)` for a logged **late** message (data replayed from the
    /// log); `None` for a logged intra-epoch **wild-card signature** (the
    /// wild-card is forced to this signature, data comes from the live
    /// re-execution).
    pub data: Option<Vec<u8>>,
}

impl Saveable for ReplayEntry {
    fn save(&self, e: &mut Encoder) {
        self.sig.save(e);
        match &self.data {
            None => e.u8(0),
            Some(d) => {
                e.u8(1);
                e.bytes(d);
            }
        }
    }
    fn load(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let sig = StreamSig::load(d)?;
        let data = match d.u8()? {
            0 => None,
            1 => Some(d.bytes()?),
            k => return Err(CodecError(format!("bad ReplayEntry discriminant {k}"))),
        };
        Ok(ReplayEntry { sig, data })
    }
}

/// The `Late-Message-Registry`: ordered log of late-message data and
/// intra-epoch wild-card signatures.
#[derive(Default, Debug, Clone, PartialEq, Eq)]
pub struct ReplayLog {
    entries: std::collections::VecDeque<ReplayEntry>,
}

impl ReplayLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a late message's data.
    pub fn push_late(&mut self, sig: StreamSig, data: Vec<u8>) {
        self.entries.push_back(ReplayEntry { sig, data: Some(data) });
    }

    /// Append an intra-epoch wild-card receive's signature (NonDet-Log).
    pub fn push_wildcard_sig(&mut self, sig: StreamSig) {
        self.entries.push_back(ReplayEntry { sig, data: None });
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Do any entries still hold late *data*? (The Restore→Run condition
    /// cares about data entries; leftover wild-card signatures are dropped
    /// when recovery completes.)
    pub fn has_data(&self) -> bool {
        self.entries.iter().any(|e| e.data.is_some())
    }

    /// Find and remove the first entry matching a p2p receive request.
    /// Returns the entry (late data or wild-card signature to force).
    pub fn take_p2p_match(&mut self, src: i32, tag: i32, comm: u32) -> Option<ReplayEntry> {
        let idx = self.entries.iter().position(|e| e.sig.matches_p2p(src, tag, comm))?;
        self.entries.remove(idx)
    }

    /// Find and remove the late-data entry for one collective stream.
    pub fn take_coll_match(&mut self, comm: u32, call: u64, src: Rank) -> Option<Vec<u8>> {
        let idx = self.entries.iter().position(|e| {
            e.sig.comm == comm
                && e.sig.src == src
                && e.sig.kind == StreamKind::Coll { call }
                && e.data.is_some()
        })?;
        self.entries.remove(idx).and_then(|e| e.data)
    }

    /// Serialize.
    pub fn save(&self, e: &mut Encoder) {
        e.u64(self.entries.len() as u64);
        for en in &self.entries {
            en.save(e);
        }
    }

    /// Deserialize.
    pub fn load(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let n = d.u64()? as usize;
        let mut entries = std::collections::VecDeque::with_capacity(n);
        for _ in 0..n {
            entries.push_back(ReplayEntry::load(d)?);
        }
        Ok(ReplayLog { entries })
    }
}

/// The `Early-Message-Registry`: signatures of early messages received, in
/// receive order.
#[derive(Default, Debug, Clone, PartialEq, Eq)]
pub struct EarlyRegistry {
    entries: Vec<StreamSig>,
}

impl EarlyRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one early message.
    pub fn push(&mut self, sig: StreamSig) {
        self.entries.push(sig);
    }

    /// Number of recorded early messages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Reset (after the registry is saved with the checkpoint).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// The entries originating at `src` — what gets sent back to `src`
    /// during `chkpt_RestoreCheckpoint`.
    pub fn entries_from(&self, src: Rank) -> Vec<StreamSig> {
        self.entries.iter().copied().filter(|s| s.src == src).collect()
    }

    /// All entries in receive order.
    pub fn entries(&self) -> &[StreamSig] {
        &self.entries
    }

    /// Serialize.
    pub fn save(&self, e: &mut Encoder) {
        e.save(&self.entries.to_vec());
    }

    /// Deserialize.
    pub fn load(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(EarlyRegistry { entries: d.load()? })
    }
}

/// The `Was-Early-Registry`: a multiset of stream signatures whose matching
/// sends must be suppressed during recovery.
#[derive(Default, Debug, Clone)]
pub struct WasEarlyRegistry {
    counts: std::collections::HashMap<StreamSig, u32>,
    total: usize,
}

impl WasEarlyRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one suppression obligation.
    pub fn add(&mut self, sig: StreamSig) {
        *self.counts.entry(sig).or_insert(0) += 1;
        self.total += 1;
    }

    /// Total outstanding suppressions.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Is the registry empty? (Part of the Restore→Run condition.)
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// If a send with this signature must be suppressed, consume one
    /// obligation and return true.
    pub fn try_suppress(&mut self, sig: &StreamSig) -> bool {
        match self.counts.get_mut(sig) {
            Some(c) if *c > 0 => {
                *c -= 1;
                if *c == 0 {
                    self.counts.remove(sig);
                }
                self.total -= 1;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::{ANY_SOURCE, ANY_TAG};

    fn p2p(src: Rank, dst: Rank, tag: i32) -> StreamSig {
        StreamSig { src, dst, comm: 0, kind: StreamKind::P2p { tag } }
    }

    fn coll(src: Rank, dst: Rank, call: u64) -> StreamSig {
        StreamSig { src, dst, comm: 0, kind: StreamKind::Coll { call } }
    }

    #[test]
    fn p2p_matching_with_wildcards() {
        let s = p2p(2, 0, 7);
        assert!(s.matches_p2p(2, 7, 0));
        assert!(s.matches_p2p(ANY_SOURCE, 7, 0));
        assert!(s.matches_p2p(2, ANY_TAG, 0));
        assert!(s.matches_p2p(ANY_SOURCE, ANY_TAG, 0));
        assert!(!s.matches_p2p(1, 7, 0));
        assert!(!s.matches_p2p(2, 8, 0));
        assert!(!s.matches_p2p(2, 7, 1));
        // Collective entries never match p2p requests.
        assert!(!coll(2, 0, 7).matches_p2p(2, 7, 0));
    }

    #[test]
    fn replay_log_order_and_matching() {
        let mut log = ReplayLog::new();
        log.push_late(p2p(1, 0, 5), vec![1]);
        log.push_wildcard_sig(p2p(2, 0, 5));
        log.push_late(p2p(1, 0, 5), vec![2]);
        assert_eq!(log.len(), 3);
        assert!(log.has_data());
        // A wildcard receive takes the earliest matching entry: the first
        // late message from 1.
        let e = log.take_p2p_match(ANY_SOURCE, ANY_TAG, 0).unwrap();
        assert_eq!(e.data, Some(vec![1]));
        // Next wildcard gets the signature entry (forcing the wildcard).
        let e = log.take_p2p_match(ANY_SOURCE, 5, 0).unwrap();
        assert!(e.data.is_none());
        assert_eq!(e.sig.src, 2);
        // A specific receive from 1 takes the remaining data entry.
        let e = log.take_p2p_match(1, 5, 0).unwrap();
        assert_eq!(e.data, Some(vec![2]));
        assert!(log.is_empty());
    }

    #[test]
    fn coll_matching_is_exact() {
        let mut log = ReplayLog::new();
        log.push_late(coll(3, 0, 11), vec![9, 9]);
        assert!(log.take_coll_match(0, 11, 2).is_none());
        assert!(log.take_coll_match(0, 12, 3).is_none());
        assert_eq!(log.take_coll_match(0, 11, 3).unwrap(), vec![9, 9]);
    }

    #[test]
    fn replay_log_codec_roundtrip() {
        let mut log = ReplayLog::new();
        log.push_late(coll(1, 2, 3), vec![1, 2, 3]);
        log.push_wildcard_sig(p2p(0, 2, -0x7fff));
        let mut e = Encoder::new();
        log.save(&mut e);
        let buf = e.finish();
        let log2 = ReplayLog::load(&mut Decoder::new(&buf)).unwrap();
        assert_eq!(log, log2);
    }

    #[test]
    fn early_registry_distribution() {
        let mut er = EarlyRegistry::new();
        er.push(p2p(1, 0, 4));
        er.push(p2p(2, 0, 4));
        er.push(p2p(1, 0, 9));
        assert_eq!(er.entries_from(1).len(), 2);
        assert_eq!(er.entries_from(2).len(), 1);
        assert_eq!(er.entries_from(0).len(), 0);
        let mut e = Encoder::new();
        er.save(&mut e);
        let buf = e.finish();
        let er2 = EarlyRegistry::load(&mut Decoder::new(&buf)).unwrap();
        assert_eq!(er, er2);
    }

    #[test]
    fn was_early_multiset_semantics() {
        let mut we = WasEarlyRegistry::new();
        let s = p2p(0, 1, 7);
        we.add(s);
        we.add(s);
        assert_eq!(we.len(), 2);
        assert!(we.try_suppress(&s));
        assert!(we.try_suppress(&s));
        assert!(!we.try_suppress(&s));
        assert!(we.is_empty());
    }
}
