//! The protocol core: one rank's C³ state machine (Figs. 3–5), with no I/O.
//!
//! [`Protocol`] holds the epoch, the mode, the [`Counters`], the CIs filed
//! by round, the three registries and the pragma-policy bookkeeping, and
//! makes every protocol decision. It takes events (a wrapped send, a live
//! arrival with its piggyback byte, a CI, a pragma, the line written, the
//! commit written, a restore) and returns small decisions: stamp this byte
//! or suppress, start a line with these CI counts, commit now, serve this
//! receive from the log, restore finished. [`crate::C3Ctx`] is the I/O
//! shell that carries them out. Nothing here touches a substrate, a store
//! or a clock, so `tests/protocol_model.rs` drives two of these through
//! every interleaving.

use crate::api::CkptPolicy;
use crate::counters::Counters;
use crate::mode::Mode;
use crate::piggyback::{self, MsgClass, PigData};
use crate::registries::{EarlyRegistry, ReplayEntry, ReplayLog, StreamSig, WasEarlyRegistry};
use statesave::codec::{CodecError, Decoder, Encoder};
use std::collections::BTreeMap;

/// Tag of Checkpoint-Initiated messages on `COMM_CTRL`, the reserved
/// communicator that keeps control traffic apart from application
/// messages.
pub const TAG_CI: i32 = 1;

/// A Checkpoint-Initiated (CI) message, the only control message during
/// normal operation: sent by a process to every peer when it takes its
/// local checkpoint (§3.1).
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

/// The follow-up an event asks of the shell.
#[must_use]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Next {
    /// Nothing to do.
    Continue,
    /// Write the commit record now (`chkpt_CommitCheckpoint`), then call
    /// [`Protocol::committed`].
    Commit,
    /// Recovery is over and the mode is `Run`: drop the request table's
    /// replay state.
    RestoreDone,
}

/// The decision for a wrapped send.
#[must_use]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outgoing {
    /// Send live with this piggyback byte.
    Stamp(u8),
    /// Send nothing: the receiver consumed this message before the failure.
    Suppress(Next),
}

/// What a live arrival was (Definition 1), for the statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Arrival {
    /// Intra-epoch (every arrival in `Restore`): counted only.
    Intra,
    /// Intra-epoch wild-card receive in `NonDet-Log`: signature logged.
    WildcardLogged,
    /// Late: data logged for replay.
    Late,
    /// Early: signature recorded for suppression on recovery.
    Early,
}

/// One rank's protocol state.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Protocol {
    me: usize,
    /// Starts at 0; checkpoint `v` begins epoch `v`.
    epoch: u64,
    /// Changed only by [`Protocol::set_mode`] after construction.
    mode: Mode,
    counters: Counters,
    /// CIs by round, epoch → (peer → sent count): the round being committed,
    /// and rounds a faster peer has started since.
    ci: BTreeMap<u64, BTreeMap<usize, u64>>,
    /// Late-Message-Registry (logging) / replay source (`Restore`).
    replay: ReplayLog,
    early: EarlyRegistry,
    was_early: WasEarlyRegistry,
    pragma_count: u64,
    /// Pragma count and virtual time (ns) at the last checkpoint started,
    /// forced or joined, for the policies.
    last_ckpt_pragma: u64,
    last_ckpt_ns: u64,
}

impl Protocol {
    /// Rank `me` of an `nranks`-rank job at its start: epoch 0, `Run`.
    pub fn new(me: usize, nranks: usize) -> Self {
        Protocol {
            me,
            epoch: 0,
            mode: Mode::Run,
            counters: Counters::new(nranks),
            ci: BTreeMap::new(),
            replay: ReplayLog::new(),
            early: EarlyRegistry::new(),
            was_early: WasEarlyRegistry::new(),
            pragma_count: 0,
            last_ckpt_pragma: 0,
            last_ckpt_ns: 0,
        }
    }

    /// Rank `me` restarted from committed line `epoch` with its restored
    /// counters and replay log, and the suppressions its peers sent back
    /// (`chkpt_RestoreCheckpoint`). Enters `Restore` directly, as Run →
    /// Restore is no Fig. 3 edge, and leaves it at once if nothing is left
    /// to replay or suppress.
    pub fn restore(
        me: usize,
        epoch: u64,
        counters: Counters,
        replay: ReplayLog,
        was_early: WasEarlyRegistry,
    ) -> (Self, Next) {
        let n = counters.nranks();
        let mut p = Protocol {
            epoch,
            mode: Mode::Restore,
            counters,
            replay,
            was_early,
            ..Protocol::new(me, n)
        };
        let next = p.restore_done();
        (p, next)
    }

    /// Current epoch.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Current mode.
    #[inline]
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The counters, as a line saves them.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// The Early-Message-Registry, as a line saves it.
    pub fn early(&self) -> &EarlyRegistry {
        &self.early
    }

    /// The Late-Message-Registry, as a commit saves it.
    pub fn replay_log(&self) -> &ReplayLog {
        &self.replay
    }

    /// Pragmas reached so far.
    pub fn pragmas(&self) -> u64 {
        self.pragma_count
    }

    fn set_mode(&mut self, next: Mode) {
        debug_assert!(self.mode.can_transition(next), "{:?} -> {next:?}", self.mode);
        self.mode = next;
    }

    /// A Checkpoint-Initiated message from `src`; call
    /// [`Protocol::advance`] once the control plane is drained.
    pub fn ci_arrived(&mut self, src: usize, msg: CiMsg) {
        // A CI of a round already committed is stale.
        if msg.new_epoch > self.epoch || (msg.new_epoch == self.epoch && self.mode.is_logging()) {
            self.ci.entry(msg.new_epoch).or_default().insert(src, msg.sent_count);
        }
    }

    /// NonDet-Log → RecvOnly-Log → commit, as their conditions hold. The
    /// commit is local: every CI in and every promised late message
    /// received.
    pub fn advance(&mut self) -> Next {
        if !self.mode.is_logging() {
            return Next::Continue;
        }
        let promised = self.ci.get(&self.epoch).into_iter().flatten();
        let late = &self.counters.late_received;
        debug_assert!(
            promised.clone().all(|(&q, &n)| late[q] <= n),
            "rank {}: received more late messages than a peer's CI promised",
            self.me
        );
        let all_ci = promised.clone().count() + 1 == late.len();
        let all_late = all_ci && promised.clone().all(|(&q, &n)| late[q] >= n);
        if self.mode == Mode::NonDetLog && all_ci {
            self.set_mode(Mode::RecvOnlyLog);
        }
        if self.mode == Mode::RecvOnlyLog && all_late {
            return Next::Commit;
        }
        Next::Continue
    }

    /// A wrapped send of `sig`: counted either way (a suppressed send is in
    /// the receiver's restored `received` count), suppressed if it was
    /// early before the failure.
    pub fn send(&mut self, sig: &StreamSig) -> Outgoing {
        self.counters.sent[sig.dst] += 1;
        if self.mode == Mode::Restore && self.was_early.try_suppress(sig) {
            return Outgoing::Suppress(self.restore_done());
        }
        Outgoing::Stamp(piggyback::encode(PigData::of(self.epoch, self.mode)))
    }

    /// A live arrival of `sig` stamped `piggyback` (the receive side of
    /// Fig. 4). In `Restore` every message is intra-epoch and the exit
    /// condition cannot change, so it is only counted.
    pub fn arrive(
        &mut self,
        sig: StreamSig,
        piggyback: u8,
        wildcard: bool,
        data: &[u8],
    ) -> (Arrival, Next) {
        if self.mode == Mode::Restore {
            self.counters.received[sig.src] += 1;
            debug_assert!(self.replay.has_data() || !self.was_early.is_empty());
            return (Arrival::Intra, Next::Continue);
        }
        let (color, sender_logging) = piggyback::decode(piggyback);
        let arrival = match piggyback::classify(self.epoch, color) {
            MsgClass::Late => {
                // Every late message is in before its round commits.
                debug_assert!(self.mode.is_logging(), "late message after the commit");
                self.counters.late_received[sig.src] += 1;
                self.replay.push_late(sig, data.to_vec());
                Arrival::Late
            }
            MsgClass::Early => {
                self.counters.early_received[sig.src] += 1;
                self.early.push(sig);
                Arrival::Early
            }
            MsgClass::IntraEpoch => {
                self.counters.received[sig.src] += 1;
                match (self.mode, sender_logging, wildcard) {
                    // The sender knows every process has started; stop
                    // logging nondeterminism too (§3.1's causality).
                    (Mode::NonDetLog, false, _) => self.set_mode(Mode::RecvOnlyLog),
                    (Mode::NonDetLog, true, true) => {
                        self.replay.push_wildcard_sig(sig);
                        return (Arrival::WildcardLogged, self.advance());
                    }
                    _ => {}
                }
                Arrival::Intra
            }
        };
        (arrival, self.advance())
    }

    /// In `Restore`, the log entry serving a p2p receive for `(src, tag,
    /// comm)`: late data completes it; a wild-card signature forces it
    /// onto the logged source. `None`: the receive goes live.
    pub fn replay_p2p(&mut self, src: i32, tag: i32, comm: u32) -> Option<(ReplayEntry, Next)> {
        let entry = self.restoring()?.replay.take_p2p_match(src, tag, comm)?;
        let next = if entry.data.is_some() { self.restore_done() } else { Next::Continue };
        Some((entry, next))
    }

    /// In `Restore`, the logged late data of collective stream `(comm,
    /// call)` from `src`.
    pub fn replay_coll(&mut self, comm: u32, call: u64, src: usize) -> Option<(Vec<u8>, Next)> {
        let data = self.restoring()?.replay.take_coll_match(comm, call, src)?;
        Some((data, self.restore_done()))
    }

    fn restoring(&mut self) -> Option<&mut Self> {
        (self.mode == Mode::Restore).then_some(self)
    }

    /// Restore → Run once no late data is left to replay and no early send
    /// to suppress; leftover wild-card signatures go with the log.
    fn restore_done(&mut self) -> Next {
        if self.mode != Mode::Restore || self.replay.has_data() || !self.was_early.is_empty() {
            return Next::Continue;
        }
        self.replay = ReplayLog::new();
        self.set_mode(Mode::Run);
        Next::RestoreDone
    }

    /// `#pragma ccc checkpoint` at virtual time `vtime`, under `policy` if
    /// it applies to this rank. In `Run`, when the policy forces a line or
    /// a peer has started the next round, starts one (Fig. 5): advances
    /// the epoch, shuffles the counters, and returns the per-peer sent
    /// counts for the CIs. The shell writes the line and sends the CIs,
    /// then calls [`Protocol::line_written`].
    pub fn pragma(&mut self, policy: Option<&CkptPolicy>, vtime: u64) -> Option<Vec<u64>> {
        self.pragma_count += 1;
        if self.mode != Mode::Run {
            return None;
        }
        let since_last = vtime.saturating_sub(self.last_ckpt_ns);
        let force =
            policy.is_some_and(|p| p.wants(self.pragma_count, self.last_ckpt_pragma, since_last));
        if !force && !self.ci.contains_key(&(self.epoch + 1)) {
            return None;
        }
        self.epoch += 1;
        Some(self.counters.start_checkpoint())
    }

    /// The line is written and its CIs sent, at virtual time `vtime`: reset
    /// the Early-Message-Registry and enter `NonDet-Log`.
    pub fn line_written(&mut self, vtime: u64) -> Next {
        self.early.clear();
        self.set_mode(Mode::NonDetLog);
        self.last_ckpt_pragma = self.pragma_count;
        self.last_ckpt_ns = vtime;
        self.advance()
    }

    /// The commit record is written: the round's CIs and log are done, back
    /// to `Run`.
    pub fn committed(&mut self) {
        self.ci.remove(&self.epoch);
        self.replay = ReplayLog::new();
        self.set_mode(Mode::Run);
    }
}

impl CkptPolicy {
    /// Does the policy force a checkpoint at pragma `pragma_count`, when
    /// this rank's last checkpoint started at pragma `last_ckpt_pragma`
    /// (0 for none) and `since_last_ckpt_ns` of virtual time ago?
    fn wants(&self, pragma_count: u64, last_ckpt_pragma: u64, since_last_ckpt_ns: u64) -> bool {
        match self {
            CkptPolicy::Never => false,
            CkptPolicy::AtPragmas(v) => {
                let prev = v.iter().copied().filter(|&p| p < pragma_count).max().unwrap_or(0);
                v.contains(&pragma_count) && last_ckpt_pragma <= prev
            }
            CkptPolicy::EveryNth(n) => {
                *n > 0
                    && pragma_count.is_multiple_of(*n)
                    && pragma_count.saturating_sub(last_ckpt_pragma) >= *n
            }
            CkptPolicy::Timer(d) => since_last_ckpt_ns as u128 >= d.as_nanos(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registries::StreamKind;

    fn sig(src: usize, dst: usize) -> StreamSig {
        StreamSig { src, dst, comm: 0, kind: StreamKind::P2p { tag: 0 } }
    }

    #[test]
    fn a_joined_checkpoint_satisfies_the_next_policy_pragma() {
        let every3 = CkptPolicy::EveryNth(3);
        assert!(every3.wants(3, 0, 0));
        assert!(!every3.wants(4, 0, 0));
        // Forced at 3: pragma 6 forces again. Joined at 5: it does not.
        assert!(every3.wants(6, 3, 0));
        assert!(!every3.wants(6, 5, 0));
        assert!(every3.wants(9, 5, 0));
        let at = CkptPolicy::AtPragmas(vec![2, 7]);
        assert!(at.wants(2, 0, 0));
        assert!(at.wants(7, 2, 0));
        assert!(!at.wants(7, 4, 0));
        assert!(!at.wants(5, 0, 0));
        assert!(!CkptPolicy::Never.wants(3, 0, u64::MAX));
    }

    #[test]
    fn a_lone_initiator_commits_once_its_peer_joins() {
        let policy = CkptPolicy::AtPragmas(vec![1]);
        let (mut a, mut b) = (Protocol::new(0, 2), Protocol::new(1, 2));
        let Outgoing::Stamp(pig) = a.send(&sig(0, 1)) else { panic!("suppressed in Run") };
        let counts = a.pragma(Some(&policy), 0).expect("the policy forces pragma 1");
        assert_eq!((counts, a.epoch()), (vec![0, 1], 1));
        assert_eq!(a.line_written(0), Next::Continue);
        assert_eq!(a.mode(), Mode::NonDetLog);
        // b has not seen the CI: its pragma starts nothing.
        assert_eq!(b.pragma(None, 0), None);
        b.ci_arrived(0, CiMsg { new_epoch: 1, sent_count: 1 });
        assert_eq!(b.advance(), Next::Continue);
        let counts = b.pragma(None, 0).expect("a filed CI joins the round");
        assert_eq!(b.line_written(0), Next::Continue);
        // a's pre-line message reaches b after b's line: late.
        assert_eq!(b.arrive(sig(0, 1), pig, false, &[7]), (Arrival::Late, Next::Commit));
        b.committed();
        a.ci_arrived(1, CiMsg { new_epoch: 1, sent_count: counts[0] });
        assert_eq!(a.advance(), Next::Commit);
        a.committed();
        assert_eq!((a.mode(), b.mode()), (Mode::Run, Mode::Run));
    }

    #[test]
    fn ci_wire_roundtrip() {
        let m = CiMsg { new_epoch: 3, sent_count: 999 };
        assert_eq!(CiMsg::decode(&m.encode()).unwrap(), m);
        assert!(CiMsg::decode(&[1, 2, 3]).is_err());
    }

    #[test]
    fn a_single_rank_commits_at_its_line() {
        let mut p = Protocol::new(0, 1);
        assert!(p.pragma(Some(&CkptPolicy::EveryNth(1)), 0).is_some());
        assert_eq!(p.line_written(0), Next::Commit);
    }

    #[test]
    fn cis_are_filed_by_round() {
        let ci = |new_epoch, sent_count| CiMsg { new_epoch, sent_count };
        let mut p = Protocol::new(0, 3);
        // Rank 1 is already at round 2; rank 2's round-1 CI comes twice.
        p.ci_arrived(1, ci(2, 4));
        p.ci_arrived(2, ci(1, 0));
        p.ci_arrived(2, ci(1, 0));
        assert!(p.pragma(None, 0).is_some(), "a filed round-1 CI joins round 1");
        assert_eq!(p.line_written(0), Next::Continue);
        assert_eq!(p.mode(), Mode::NonDetLog, "rank 1's round-1 CI is missing");
        p.ci_arrived(1, ci(1, 0));
        assert_eq!(p.advance(), Next::Commit);
        p.committed();
        // A stale round-1 CI is ignored; the filed round-2 one applies.
        p.ci_arrived(2, ci(1, 9));
        assert!(p.pragma(None, 0).is_some(), "the filed round-2 CI joins round 2");
        assert_eq!(p.line_written(0), Next::Continue);
        p.ci_arrived(2, ci(2, 0));
        assert_eq!(p.advance(), Next::Continue, "rank 1 promised 4 late messages");
        assert_eq!(p.mode(), Mode::RecvOnlyLog);
    }

    #[test]
    fn restore_suppresses_then_finishes() {
        let mut was_early = WasEarlyRegistry::new();
        was_early.add(sig(0, 1));
        let (mut p, next) = Protocol::restore(0, 3, Counters::new(2), ReplayLog::new(), was_early);
        assert_eq!((next, p.mode()), (Next::Continue, Mode::Restore));
        assert_eq!(p.send(&sig(0, 1)), Outgoing::Suppress(Next::RestoreDone));
        assert_eq!(p.mode(), Mode::Run);
        assert!(matches!(p.send(&sig(0, 1)), Outgoing::Stamp(_)));
        assert_eq!(p.counters().sent, vec![0, 2]);
        let (_, next) =
            Protocol::restore(0, 3, Counters::new(2), ReplayLog::new(), Default::default());
        assert_eq!(next, Next::RestoreDone);
    }
}
