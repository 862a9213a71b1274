//! The request indirection table (§4.1).
//!
//! "To stay independent of the underlying MPI implementation, we implement a
//! separate indirection table for all requests. For each request allocated by
//! MPI, we allocate an entry in this table and use it to store the necessary
//! information, including type of operation, message parameters, and the
//! epoch in which the request has been allocated... The index to this table
//! replaces the MPI request in the target application. This enables our MPI
//! layer to instantiate all request objects with the same request
//! identifiers during recovery."
//!
//! The table also carries the §4.1 non-determinism machinery: a per-request
//! counter of unsuccessful `test` calls (recorded while in `NonDet-Log`,
//! replayed on recovery with the final `test` substituted by a `wait`), and
//! an ordered log of `wait_any`/`wait_some` completion indices.
//!
//! The paper also marks "the type of message matching the posted request",
//! so that a receive a late message completed is not re-posted on
//! recovery. Here no such mark is kept: a restored receive has no substrate
//! request until it completes, and completion asks the replay log before it
//! posts one, so a receive the log serves never reaches the substrate.

use statesave::codec::{CodecError, Decoder, Encoder, Saveable};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Application-visible request handle (an index into the indirection table;
/// identifiers are deterministic across re-execution).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct C3Req(pub u64);

impl Saveable for C3Req {
    fn save(&self, e: &mut Encoder) {
        e.u64(self.0);
    }
    fn load(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(C3Req(d.u64()?))
    }
}

/// Operation type of a table entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum C3ReqKind {
    /// Non-blocking send (buffered; complete at initiation).
    Send,
    /// Non-blocking receive.
    Recv,
}

/// One entry of the indirection table.
#[derive(Debug)]
pub struct ReqEntry {
    /// Operation type.
    pub kind: C3ReqKind,
    /// Source spec for receives (may be wildcard) / destination for sends.
    pub src: i32,
    /// Tag spec (may be wildcard for receives).
    pub tag: i32,
    /// Communicator id.
    pub comm: u32,
    /// Epoch in which the request was allocated.
    pub epoch_allocated: u64,
    /// The live substrate request, when one exists.
    pub mpi: Option<mpisim::ReqId>,
    /// Unsuccessful `test` calls recorded while in `NonDet-Log`.
    pub test_fails: u64,
    /// Completed during the current checkpoint period (entry retained until
    /// the table is saved — "we delay any deallocation of request table
    /// entries until after the request table has been saved").
    pub completed: bool,
    /// Completion happened during NonDet-Log: a replayed `test` that
    /// originally succeeded becomes a `wait`.
    pub completed_during_log: bool,
    /// Entry kept only for the pending table save; free after saving.
    pub dealloc_deferred: bool,
}

/// The saved image of an entry is what re-execution needs: the operation,
/// its parameters, the allocation epoch and the replay state. A loaded
/// entry has no substrate request (receives post lazily), and a send is
/// complete from its initiation.
impl Saveable for ReqEntry {
    fn save(&self, e: &mut Encoder) {
        e.u8(match self.kind {
            C3ReqKind::Send => 0,
            C3ReqKind::Recv => 1,
        });
        e.i32(self.src);
        e.i32(self.tag);
        e.u32(self.comm);
        e.u64(self.epoch_allocated);
        e.u64(self.test_fails);
        e.bool(self.completed_during_log);
    }
    fn load(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let kind = match d.u8()? {
            0 => C3ReqKind::Send,
            1 => C3ReqKind::Recv,
            k => return Err(CodecError(format!("bad req kind {k}"))),
        };
        Ok(ReqEntry {
            kind,
            src: d.i32()?,
            tag: d.i32()?,
            comm: d.u32()?,
            epoch_allocated: d.u64()?,
            mpi: None,
            test_fails: d.u64()?,
            completed: kind == C3ReqKind::Send,
            completed_during_log: d.bool()?,
            dealloc_deferred: false,
        })
    }
}

/// A logged nondeterministic completion event (`wait_any` / `wait_some`
/// outcomes recorded during `NonDet-Log`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NondetEvent {
    /// `wait_any` completed the request at this position in the caller's
    /// array.
    WaitAny(u32),
    /// `wait_some` completed these positions.
    WaitSome(Vec<u32>),
}

impl Saveable for NondetEvent {
    fn save(&self, e: &mut Encoder) {
        match self {
            NondetEvent::WaitAny(i) => {
                e.u8(0);
                e.u32(*i);
            }
            NondetEvent::WaitSome(v) => {
                e.u8(1);
                e.save(v);
            }
        }
    }
    fn load(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(match d.u8()? {
            0 => NondetEvent::WaitAny(d.u32()?),
            1 => NondetEvent::WaitSome(d.load()?),
            k => return Err(CodecError(format!("bad NondetEvent {k}"))),
        })
    }
}

/// The indirection table plus the saved-image machinery.
#[derive(Default, Debug)]
pub struct C3ReqTable {
    entries: BTreeMap<u64, ReqEntry>,
    next: u64,
    /// Ordered log of `wait_any`/`wait_some` outcomes (NonDet-Log only).
    pub nondet_events: VecDeque<NondetEvent>,
    /// Saved entries of requests that re-execution will re-allocate
    /// (restored from a checkpoint; keyed by request id), read for their
    /// `test` replay state.
    pub replay: HashMap<u64, ReqEntry>,
}

impl C3ReqTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate an entry; ids are deterministic (monotone), so re-execution
    /// reproduces them.
    pub fn alloc(
        &mut self,
        kind: C3ReqKind,
        src: i32,
        tag: i32,
        comm: u32,
        epoch: u64,
        mpi: Option<mpisim::ReqId>,
    ) -> C3Req {
        let id = self.next;
        self.next += 1;
        self.entries.insert(
            id,
            ReqEntry {
                kind,
                src,
                tag,
                comm,
                epoch_allocated: epoch,
                mpi,
                test_fails: 0,
                completed: false,
                completed_during_log: false,
                dealloc_deferred: false,
            },
        );
        C3Req(id)
    }

    /// Borrow an entry.
    pub fn get(&self, r: C3Req) -> Option<&ReqEntry> {
        self.entries.get(&r.0)
    }

    /// Mutably borrow an entry.
    pub fn get_mut(&mut self, r: C3Req) -> Option<&mut ReqEntry> {
        self.entries.get_mut(&r.0)
    }

    /// Remove an entry after the application collects it. If a checkpoint
    /// period is open (`defer`), the entry is retained for the table save.
    pub fn release(&mut self, r: C3Req, defer: bool) {
        if defer {
            if let Some(e) = self.entries.get_mut(&r.0) {
                e.dealloc_deferred = true;
            }
        } else {
            self.entries.remove(&r.0);
        }
    }

    /// Live entry count (diagnostics).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries exist.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Reset per-checkpoint-period nondeterminism bookkeeping (start of a
    /// checkpoint period: test counters and the event log).
    pub fn reset_period(&mut self) {
        for e in self.entries.values_mut() {
            e.test_fails = 0;
        }
        self.nondet_events.clear();
    }

    /// Serialize the table image at commit time: every entry (deferred ones
    /// included), the id watermark at the recovery line, and the
    /// nondeterminism log.
    pub fn save(&self, line_next: u64, e: &mut Encoder) {
        e.u64(line_next);
        e.u64(self.entries.len() as u64);
        for (id, en) in &self.entries {
            e.u64(*id);
            en.save(e);
        }
        let events: Vec<NondetEvent> = self.nondet_events.iter().cloned().collect();
        e.save(&events);
    }

    /// Rebuild from a checkpoint: the id counter is rolled back to the
    /// recovery line, pre-line entries become live again, and post-line
    /// entries become replay state for re-execution.
    pub fn load(d: &mut Decoder<'_>, line_epoch: u64) -> Result<Self, CodecError> {
        let line_next = d.u64()?;
        let n = d.u64()? as usize;
        let mut table = C3ReqTable { next: line_next, ..Default::default() };
        for _ in 0..n {
            let id = d.u64()?;
            let entry = ReqEntry::load(d)?;
            if entry.epoch_allocated < line_epoch {
                // Crossed the recovery line: live again, with no substrate
                // request yet. A receive a late message completed is served
                // from the replay log.
                table.entries.insert(id, entry);
            } else {
                // Allocated after the line: deleted from the table ("roll
                // the contents of the request table back"), kept for the
                // deterministic re-allocation.
                table.replay.insert(id, entry);
            }
        }
        let events: Vec<NondetEvent> = d.load()?;
        table.nondet_events = events.into();
        Ok(table)
    }

    /// Purge entries whose deallocation was deferred for the table save
    /// (end of `chkpt_CommitCheckpoint`).
    pub fn purge_deferred(&mut self) {
        self.entries.retain(|_, e| !e.dealloc_deferred);
    }

    /// The id watermark (next id to allocate) — captured at the recovery
    /// line for the table image.
    pub fn next_id(&self) -> u64 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recv_entry(t: &mut C3ReqTable, epoch: u64) -> C3Req {
        t.alloc(C3ReqKind::Recv, mpisim::ANY_SOURCE, 5, 0, epoch, None)
    }

    #[test]
    fn deterministic_ids() {
        let mut t = C3ReqTable::new();
        let a = recv_entry(&mut t, 0);
        let b = recv_entry(&mut t, 0);
        assert_eq!(a, C3Req(0));
        assert_eq!(b, C3Req(1));
    }

    #[test]
    fn deferred_release_keeps_entry_until_purge() {
        let mut t = C3ReqTable::new();
        let a = recv_entry(&mut t, 0);
        t.release(a, true);
        assert_eq!(t.len(), 1);
        t.purge_deferred();
        assert_eq!(t.len(), 0);
        let b = recv_entry(&mut t, 0);
        t.release(b, false);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn save_load_splits_pre_and_post_line() {
        let mut t = C3ReqTable::new();
        // Pre-line receive, completed while logging.
        let a = recv_entry(&mut t, 3);
        t.get_mut(a).unwrap().completed = true;
        t.get_mut(a).unwrap().completed_during_log = true;
        // Pre-line pending receive, still open.
        let b = recv_entry(&mut t, 3);
        let line_next = t.next_id();
        // Post-line receive with test failures to replay.
        let c = recv_entry(&mut t, 4);
        t.get_mut(c).unwrap().test_fails = 7;

        let mut e = Encoder::new();
        t.save(line_next, &mut e);
        let buf = e.finish();
        let t2 = C3ReqTable::load(&mut Decoder::new(&buf), 4).unwrap();
        // a and b are live entries with no substrate request, to be
        // completed again by re-execution; a keeps its replay state. c is
        // replay state only.
        let a2 = t2.get(a).unwrap();
        assert!(a2.completed_during_log && !a2.completed && a2.mpi.is_none());
        let b2 = t2.get(b).unwrap();
        assert!(!b2.completed_during_log && !b2.completed && b2.mpi.is_none());
        assert!(t2.get(c).is_none());
        assert_eq!(t2.replay.get(&c.0).unwrap().test_fails, 7);
        // The id counter resumed at the line: re-execution re-creates c with
        // the same id.
        assert_eq!(t2.next_id(), line_next);
        let mut t2 = t2;
        let c2 = recv_entry(&mut t2, 4);
        assert_eq!(c2, c);
    }

    #[test]
    fn nondet_event_log_roundtrip() {
        let mut t = C3ReqTable::new();
        t.nondet_events.push_back(NondetEvent::WaitAny(2));
        t.nondet_events.push_back(NondetEvent::WaitSome(vec![0, 3]));
        let mut e = Encoder::new();
        t.save(0, &mut e);
        let buf = e.finish();
        let t2 = C3ReqTable::load(&mut Decoder::new(&buf), 0).unwrap();
        assert_eq!(t2.nondet_events.len(), 2);
        assert_eq!(t2.nondet_events[0], NondetEvent::WaitAny(2));
    }

    #[test]
    fn reset_period_clears_counters_and_events() {
        let mut t = C3ReqTable::new();
        let a = recv_entry(&mut t, 0);
        t.get_mut(a).unwrap().test_fails = 5;
        t.nondet_events.push_back(NondetEvent::WaitAny(0));
        t.reset_period();
        assert_eq!(t.get(a).unwrap().test_fails, 0);
        assert!(t.nondet_events.is_empty());
    }
}
