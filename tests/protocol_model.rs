//! An explicit-state checker over the protocol core: two
//! [`c3::machine::Protocol`] values joined by per-direction FIFO channels,
//! every interleaving of their steps enumerated, visited states
//! deduplicated by hash. No substrate, no store, no threads.
//!
//! Each rank sends up to two messages on its one application signature,
//! reaches a pragma that starts (as an initiator) or joins (once the
//! peer's Checkpoint-Initiated message is in) round 1, then sends up to two
//! more. Taking a CI from the control channel and receiving the next
//! application message are steps of their own, enabled whenever the
//! channel is non-empty. In every terminal state both ranks have committed
//! line 1, and the paper's Definition 1 holds message by message:
//!
//! * a message sent before its sender's line and received after the
//!   receiver's line is late, and the commit saved it in the late log
//!   exactly once;
//! * a message sent after its sender's line and received before the
//!   receiver's line is early, and the line saved it in the early registry
//!   exactly once;
//! * every other message is intra-epoch, and the counters agree.

use c3::machine::{Arrival, CiMsg, Next, Outgoing, Protocol};
use c3::registries::{StreamKind, StreamSig};
use c3::{CkptPolicy, Mode};
use mpisim::{ANY_SOURCE, ANY_TAG};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashSet, VecDeque};
use std::hash::{Hash, Hasher};

/// One rank's program: `pre` sends, the pragma, `post` sends.
#[derive(Clone, Copy, Debug)]
struct Program {
    pre: u8,
    post: u8,
    initiator: bool,
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct Rank {
    p: Protocol,
    /// Messages sent so far; message `i` carries payload `[i]`.
    sent: u8,
    pragma_done: bool,
    commits: u8,
    /// Messages received.
    got: u8,
    /// Indices of the messages the core classified late, in order.
    late: Vec<u8>,
    /// Messages the core classified early.
    early: usize,
    /// Message indices in the late log a commit saved.
    saved_late: Vec<u8>,
    /// Entries in the early registry the line saved.
    saved_early: usize,
    /// `late_received[peer]` when the commit was written.
    late_at_commit: u64,
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct State {
    ranks: [Rank; 2],
    /// Application messages in flight from rank `r`: (index, piggyback).
    app: [VecDeque<(u8, u8)>; 2],
    /// CIs in flight from rank `r`: (new epoch, sent count).
    ci: [VecDeque<(u64, u64)>; 2],
}

fn sig(src: usize) -> StreamSig {
    StreamSig { src, dst: 1 - src, comm: 0, kind: StreamKind::P2p { tag: 0 } }
}

impl State {
    fn new() -> Self {
        let rank = |me| Rank {
            p: Protocol::new(me, 2),
            sent: 0,
            pragma_done: false,
            commits: 0,
            got: 0,
            late: Vec::new(),
            early: 0,
            saved_late: Vec::new(),
            saved_early: 0,
            late_at_commit: 0,
        };
        State { ranks: [rank(0), rank(1)], app: Default::default(), ci: Default::default() }
    }

    /// Carry out a follow-up decision the way the shell does.
    fn carry_out(&mut self, r: usize, next: Next) {
        let rank = &mut self.ranks[r];
        match next {
            Next::Continue => {}
            Next::Commit => {
                let mut log = rank.p.replay_log().clone();
                while let Some(e) = log.take_p2p_match(ANY_SOURCE, ANY_TAG, 0) {
                    rank.saved_late.push(e.data.expect("only late data is logged")[0]);
                }
                rank.late_at_commit = rank.p.counters().late_received[1 - r];
                rank.p.committed();
                rank.commits += 1;
            }
            Next::RestoreDone => panic!("rank {r} finished a restore it never began"),
        }
    }

    /// Every state one step of rank `r` leads to.
    fn steps(&self, r: usize, progs: &[Program; 2], out: &mut Vec<State>) {
        let (me, prog) = (&self.ranks[r], progs[r]);
        let peer = 1 - r;
        let limit = if me.pragma_done { prog.pre + prog.post } else { prog.pre };
        if me.sent < limit {
            let mut s = self.clone();
            let rank = &mut s.ranks[r];
            let Outgoing::Stamp(pig) = rank.p.send(&sig(r)) else {
                panic!("rank {r} suppressed a send outside Restore")
            };
            s.app[r].push_back((rank.sent, pig));
            rank.sent += 1;
            out.push(s);
        }
        if !me.pragma_done && me.sent == prog.pre {
            let policy = CkptPolicy::AtPragmas(vec![1]);
            let mut p = me.p.clone();
            // A pragma that would start nothing is not a step: the rank
            // waits at it for the peer's CI.
            if let Some(counts) = p.pragma(prog.initiator.then_some(&policy), 0) {
                let mut s = self.clone();
                s.ci[r].push_back((p.epoch(), counts[peer]));
                let rank = &mut s.ranks[r];
                rank.saved_early = p.early().entries().len();
                rank.pragma_done = true;
                let next = p.line_written(0);
                rank.p = p;
                s.carry_out(r, next);
                out.push(s);
            }
        }
        if let Some(&(new_epoch, sent_count)) = self.ci[peer].front() {
            let mut s = self.clone();
            s.ci[peer].pop_front();
            let p = &mut s.ranks[r].p;
            p.ci_arrived(peer, CiMsg { new_epoch, sent_count });
            let next = p.advance();
            s.carry_out(r, next);
            out.push(s);
        }
        if let Some(&(i, pig)) = self.app[peer].front() {
            let mut s = self.clone();
            s.app[peer].pop_front();
            let rank = &mut s.ranks[r];
            let epoch = rank.p.epoch();
            let (arrival, next) = rank.p.arrive(sig(peer), pig, false, &[i]);
            // Definition 1, from where the message left its sender's
            // program and where it reached the receiver's.
            let want = match (i < progs[peer].pre, epoch) {
                (true, 1) => Arrival::Late,
                (false, 0) => Arrival::Early,
                _ => Arrival::Intra,
            };
            assert_eq!(arrival, want, "{progs:?}: rank {r} got message {i} in epoch {epoch}");
            rank.got += 1;
            match arrival {
                Arrival::Late => rank.late.push(i),
                Arrival::Early => rank.early += 1,
                _ => {}
            }
            s.carry_out(r, next);
            out.push(s);
        }
    }

    /// The verdict on a state with no step left.
    fn check_terminal(&self, progs: &[Program; 2]) {
        for r in 0..2 {
            let (me, peer) = (&self.ranks[r], 1 - r);
            let (pre, post) = (progs[peer].pre, progs[peer].post);
            let ctx = || format!("rank {r} of {progs:?}");
            assert!(me.pragma_done && me.sent == progs[r].pre + progs[r].post, "{}: stuck", ctx());
            assert!(
                self.app[peer].is_empty() && self.ci[peer].is_empty(),
                "{}: undelivered",
                ctx()
            );
            assert_eq!((me.commits, me.p.epoch(), me.p.mode()), (1, 1, Mode::Run), "{}", ctx());
            assert_eq!(me.got, pre + post, "{}: lost a message", ctx());
            assert_eq!(me.saved_late, me.late, "{}: late log at commit", ctx());
            assert_eq!(me.saved_early, me.early, "{}: early registry at the line", ctx());
            let c = me.p.counters();
            assert_eq!(me.late_at_commit, pre as u64, "{}: late_received at commit", ctx());
            assert_eq!(c.received[peer], post as u64, "{}: epoch-1 messages received", ctx());
            assert_eq!(c.sent[peer], progs[r].post as u64, "{}: epoch-1 messages sent", ctx());
        }
    }
}

/// Every interleaving of one pair of programs; returns (states visited,
/// terminal states).
fn explore(progs: [Program; 2]) -> (usize, usize) {
    let hash = |s: &State| {
        let mut h = DefaultHasher::new();
        s.hash(&mut h);
        h.finish()
    };
    let mut seen = HashSet::new();
    let mut stack = vec![State::new()];
    seen.insert(hash(&stack[0]));
    let (mut visited, mut terminals) = (0, 0);
    let mut next = Vec::new();
    while let Some(s) = stack.pop() {
        visited += 1;
        next.clear();
        s.steps(0, &progs, &mut next);
        s.steps(1, &progs, &mut next);
        if next.is_empty() {
            s.check_terminal(&progs);
            terminals += 1;
        }
        for n in next.drain(..) {
            if seen.insert(hash(&n)) {
                stack.push(n);
            }
        }
    }
    (visited, terminals)
}

#[test]
fn every_interleaving_of_two_ranks_commits_line_1_with_definition_1() {
    let mut total = 0;
    for initiators in [[true, false], [true, true]] {
        for code in 0..81u8 {
            let counts = [code % 3, code / 3 % 3, code / 9 % 3, code / 27];
            if initiators[1] && counts[..2] > counts[2..] {
                continue; // the mirror image of a pair already explored
            }
            let progs = [0, 1].map(|r| Program {
                pre: counts[2 * r],
                post: counts[2 * r + 1],
                initiator: initiators[r],
            });
            let (visited, terminals) = explore(progs);
            assert!(terminals > 0, "{progs:?}: no terminal state");
            total += visited;
        }
    }
    // A drop here means the enumeration stopped covering interleavings.
    assert!(total > 10_000, "only {total} states visited");
}
