//! The wrapped MPI operations (Figures 4 and 5): sends and receives,
//! non-blocking requests, the checkpoint pragma, and the I/O of the
//! start / commit / restore checkpoint functions. Every protocol decision
//! is [`crate::machine`]'s; this shell feeds it the events and carries its
//! decisions out against the substrate, the store and the request table.

use crate::api::{C3Config, C3Ctx, C3Error};
use crate::ckpt;
use crate::failure::{FailAt, FailurePlan};
use crate::machine::{Arrival, CiMsg, Next, Outgoing, Protocol, TAG_CI};
use crate::mode::Mode;
use crate::registries::{EarlyRegistry, StreamKind, StreamSig, WasEarlyRegistry};
use crate::requests::{C3Req, C3ReqKind, C3ReqTable, NondetEvent};
use crate::Result;
use mpisim::{
    bytes_of, vec_from_bytes, CommId, Datatype, DatatypeHandle, MpiError, Payload, Pod, RankCtx,
    Status, ANY_SOURCE, ANY_TAG, COMM_CTRL, COMM_WORLD,
};
use statesave::codec::Encoder;
use statesave::CkptStore;
use std::time::Instant;

/// Transport mapping of a logical stream: p2p streams use the application
/// communicator and tag; collective streams travel on the communicator's
/// shadow with a tag derived from the deterministic call number.
pub(crate) fn transport(comm: u32, kind: StreamKind) -> (CommId, i32) {
    match kind {
        StreamKind::P2p { tag } => (CommId(comm), tag),
        StreamKind::Coll { call } => (CommId(comm).collective_shadow(), (call % (1 << 30)) as i32),
    }
}

impl<'a> C3Ctx<'a> {
    /// Build a fresh (epoch-0) co-ordination layer around a rank, armed with
    /// `failure` if that fault names this rank.
    pub fn fresh(
        mpi: &'a mut RankCtx,
        cfg: C3Config,
        failure: Option<FailurePlan>,
    ) -> Result<Self> {
        let failure = failure.filter(|f| f.rank == mpi.rank());
        // Op-indexed faults are delegated to the substrate's watchdog so
        // they can land inside collectives, the control plane, and the
        // restore handshake — places the protocol layer never sees.
        if let Some(FailurePlan { when: FailAt::Op(n), .. }) = failure {
            mpi.set_fail_at_op(Some(n));
        }
        let incr = match cfg.ckpt_mode {
            crate::api::CkptMode::Incremental { every_n } => {
                Some(crate::ckpt::IncrCkpt::new(every_n))
            }
            crate::api::CkptMode::Full => None,
        };
        let n = mpi.nranks();
        let store = CkptStore::new(&cfg.store_root)?;
        Ok(C3Ctx {
            proto: Protocol::new(mpi.rank(), n),
            mpi,
            cfg,
            reqs: C3ReqTable::new(),
            comms: crate::comms::CommTable::new(n),
            store,
            restored_app_state: None,
            wall_origin: Instant::now(),
            stats: Default::default(),
            incr,
            failure,
        })
    }

    /// Build the layer in recovery: find the last globally committed
    /// recovery line (a reduction, as in `chkpt_RestoreCheckpoint`), load
    /// its sections, exchange early registries, and enter `Restore` mode.
    /// Falls back to a fresh start if no line was ever committed.
    pub fn restore_or_fresh(
        mpi: &'a mut RankCtx,
        cfg: C3Config,
        failure: Option<FailurePlan>,
    ) -> Result<Self> {
        let mut ctx = Self::fresh(mpi, cfg, failure)?;
        let local = ctx.store.last_committed(ctx.mpi.rank()).unwrap_or(0);
        let reduced = ctx.mpi.allreduce(
            COMM_CTRL,
            bytes_of(&[local]),
            mpisim::BasicType::U64,
            &mpisim::ReduceOp::Min,
        )?;
        let line: u64 = vec_from_bytes::<u64>(&reduced)[0];
        // Discard newer versions even when no line survives: a dead
        // incarnation's commit record would vouch for this one's rewrite of
        // its version, mixing two incarnations. One rank prunes, all wait.
        if ctx.mpi.rank() == 0 {
            ctx.store.prune(line)?;
        }
        ctx.mpi.barrier(COMM_CTRL)?;
        if line == 0 {
            return Ok(ctx); // nothing committed anywhere: restart from scratch
        }
        let (counters, early, replay) = ckpt::restore_line(&mut ctx, line)?;
        let was_early = ctx.exchange_early_registries(&early)?;
        let (proto, next) = Protocol::restore(ctx.rank(), line, counters, replay, was_early);
        ctx.proto = proto;
        ctx.carry_out(next)?;
        Ok(ctx)
    }

    /// Distribute the restored Early-Message-Registry entries to their
    /// original senders; build the local Was-Early-Registry from what the
    /// peers send back (Fig. 5, `chkpt_RestoreCheckpoint`). The restored
    /// registry's job is then done: it was reset at the line.
    fn exchange_early_registries(&mut self, early: &EarlyRegistry) -> Result<WasEarlyRegistry> {
        let parts: Vec<Vec<u8>> = (0..self.nranks())
            .map(|q| {
                let mut e = Encoder::new();
                e.save(&early.entries_from(q));
                e.finish()
            })
            .collect();
        let replies = self.mpi.alltoall(COMM_CTRL, &parts)?;
        let mut was_early = WasEarlyRegistry::new();
        for bytes in replies {
            let mut d = statesave::Decoder::new(&bytes);
            let sigs: Vec<StreamSig> = d.load()?;
            for s in sigs {
                debug_assert_eq!(s.src, self.mpi.rank(), "was-early entry routed to wrong sender");
                was_early.add(s);
            }
        }
        Ok(was_early)
    }

    /// Carry out a follow-up decision of the protocol core.
    fn carry_out(&mut self, next: Next) -> Result<()> {
        match next {
            Next::Continue => {}
            Next::Commit => {
                // `chkpt_CommitCheckpoint` (Fig. 5): write the
                // Late-Message-Registry and request table, mark the version
                // committed.
                ckpt::write_commit_sections(self, self.epoch())?;
                self.proto.committed();
                self.reqs.purge_deferred();
                self.stats.ckpts_committed += 1;
                self.stats.last_commit_wall_ns = self.wall_origin.elapsed().as_nanos() as u64;
            }
            Next::RestoreDone => {
                // Request replay metadata no longer matters: nothing that
                // remains can affect any saved state.
                self.reqs.replay.clear();
                self.reqs.nondet_events.clear();
            }
        }
        Ok(())
    }

    // ==================================================================
    // Control plane
    // ==================================================================

    /// "Check for control messages": hand every Checkpoint-Initiated
    /// message to the core, then let it apply the mode transitions. Called
    /// at every wrapped operation and pragma.
    pub(crate) fn drain_control(&mut self) -> Result<()> {
        while let Some((bytes, st)) = self.mpi.try_recv_bytes(ANY_SOURCE, TAG_CI, COMM_CTRL)? {
            self.proto.ci_arrived(st.src, CiMsg::decode(&bytes)?);
        }
        let next = self.proto.advance();
        self.carry_out(next)
    }

    // ==================================================================
    // Logical stream primitives (shared by p2p and collectives)
    // ==================================================================

    /// Protocol-wrapped send of one logical stream (`chkpt_MPI_Send`): the
    /// core stamps or suppresses it. The payload transfers (or shares) its
    /// buffer without copying, so build it once and clone it when the same
    /// bytes fan out to several destinations.
    pub(crate) fn stream_send(
        &mut self,
        dst: usize,
        comm: u32,
        kind: StreamKind,
        payload: Payload,
    ) -> Result<()> {
        self.drain_control()?;
        match self.proto.send(&StreamSig { src: self.mpi.rank(), dst, comm, kind }) {
            Outgoing::Stamp(pig) => {
                let (mcomm, mtag) = transport(comm, kind);
                self.mpi.send_payload(dst, mtag, mcomm, pig, payload)?;
                self.stats.msgs_sent += 1;
                Ok(())
            }
            Outgoing::Suppress(next) => {
                self.stats.suppressed_sends += 1;
                self.carry_out(next)
            }
        }
    }

    /// Protocol-wrapped blocking p2p receive (`chkpt_MPI_Recv`), wildcards
    /// allowed.
    pub(crate) fn stream_recv_p2p(
        &mut self,
        src: i32,
        tag: i32,
        comm: u32,
    ) -> Result<(Vec<u8>, Status)> {
        self.drain_control()?;
        if let Some(done) = self.replayed(src, tag, comm)? {
            return Ok(done);
        }
        let (bytes, st) = self.mpi.recv_bytes(src, tag, CommId(comm))?;
        let wildcard = src == ANY_SOURCE || tag == ANY_TAG;
        self.arrived(self.p2p_sig(&st, comm), st.piggyback, wildcard, &bytes, None)?;
        Ok((bytes, st))
    }

    /// Protocol-wrapped receive of one collective stream (concrete source,
    /// instance `call`).
    pub(crate) fn stream_recv_coll(&mut self, src: usize, comm: u32, call: u64) -> Result<Vec<u8>> {
        self.drain_control()?;
        if let Some((data, next)) = self.proto.replay_coll(comm, call, src) {
            self.note_replayed()?;
            self.carry_out(next)?;
            return Ok(data);
        }
        let kind = StreamKind::Coll { call };
        let (mcomm, mtag) = transport(comm, kind);
        let (bytes, st) = self.mpi.recv_bytes(src as i32, mtag, mcomm)?;
        let sig = StreamSig { src, dst: self.mpi.rank(), comm, kind };
        self.arrived(sig, st.piggyback, false, &bytes, None)?;
        Ok(bytes)
    }

    /// The replay source of a p2p receive, as the core serves it. Late
    /// data completes the receive from the log ("the data for that receive
    /// is received from this registry"); an intra-epoch wild-card signature
    /// forces the receive onto the logged source ("fill in any wild-cards
    /// to force intra-epoch messages to be received in the order they were
    /// received prior to failure"), which blocks until that source
    /// re-sends. `None`: the receive goes live.
    fn replayed(&mut self, src: i32, tag: i32, comm: u32) -> Result<Option<(Vec<u8>, Status)>> {
        let Some((entry, next)) = self.proto.replay_p2p(src, tag, comm) else {
            return Ok(None);
        };
        let StreamKind::P2p { tag: forced_tag } = entry.sig.kind else {
            unreachable!("p2p match returned a collective stream")
        };
        match entry.data {
            Some(data) => {
                self.note_replayed()?;
                self.carry_out(next)?;
                // Intra-epoch by construction on the restored run.
                let st =
                    Status { src: entry.sig.src, tag: forced_tag, bytes: data.len(), piggyback: 0 };
                Ok(Some((data, st)))
            }
            None => {
                let (bytes, st) =
                    self.mpi.recv_bytes(entry.sig.src as i32, forced_tag, CommId(comm))?;
                self.arrived(self.p2p_sig(&st, comm), st.piggyback, false, &bytes, None)?;
                Ok(Some((bytes, st)))
            }
        }
    }

    /// Account one live arrival: hand it to the core and count what it
    /// was. `req`, the request it completes, is marked first, because a
    /// commit the arrival triggers saves the request table.
    fn arrived(
        &mut self,
        sig: StreamSig,
        piggyback: u8,
        wildcard: bool,
        data: &[u8],
        req: Option<C3Req>,
    ) -> Result<()> {
        if let Some(r) = req {
            let during_nondet = self.mode() == Mode::NonDetLog;
            self.reqs.get_mut(r).expect("completing a known request").completed_during_log =
                during_nondet;
        }
        let (arrival, next) = self.proto.arrive(sig, piggyback, wildcard, data);
        match arrival {
            Arrival::Intra => {}
            Arrival::WildcardLogged => self.stats.wildcard_sigs_logged += 1,
            Arrival::Late => {
                self.stats.late_logged += 1;
                self.stats.late_bytes += data.len() as u64;
            }
            Arrival::Early => self.stats.early_recorded += 1,
        }
        self.carry_out(next)
    }

    /// The stream signature of a received p2p message.
    fn p2p_sig(&self, st: &Status, comm: u32) -> StreamSig {
        StreamSig { src: st.src, dst: self.mpi.rank(), comm, kind: StreamKind::P2p { tag: st.tag } }
    }

    // ==================================================================
    // Public point-to-point API (world communicator)
    // ==================================================================

    /// Blocking send of raw bytes on the world communicator.
    pub fn send_bytes(&mut self, dst: usize, tag: i32, payload: &[u8]) -> Result<()> {
        self.stream_send(dst, COMM_WORLD.0, StreamKind::P2p { tag }, payload.into())
    }

    /// Blocking send of a typed slice.
    pub fn send<T: Pod>(&mut self, dst: usize, tag: i32, data: &[T]) -> Result<()> {
        self.send_bytes(dst, tag, bytes_of(data))
    }

    /// Blocking send of `count` elements of derived datatype `dt` gathered
    /// from `buf` (§4.2: the datatype hierarchy is traversed to pack each
    /// piece, for both transmission and any logging).
    pub fn send_typed(
        &mut self,
        dst: usize,
        tag: i32,
        buf: &[u8],
        count: usize,
        dt: DatatypeHandle,
    ) -> Result<()> {
        let packed = self.mpi.types.pack(buf, count, dt).map_err(C3Error::Mpi)?;
        self.send_bytes(dst, tag, &packed)
    }

    /// Blocking receive of raw bytes (wildcards allowed).
    pub fn recv_bytes(&mut self, src: i32, tag: i32) -> Result<(Vec<u8>, Status)> {
        self.stream_recv_p2p(src, tag, COMM_WORLD.0)
    }

    /// Blocking receive of a typed vector.
    pub fn recv<T: Pod>(&mut self, src: i32, tag: i32) -> Result<(Vec<T>, Status)> {
        let (bytes, st) = self.recv_bytes(src, tag)?;
        Ok((vec_from_bytes(&bytes), st))
    }

    /// Create a contiguous derived datatype (§4.2). The substrate's type
    /// table is checkpointed with every line and recreated on recovery, so
    /// the handle value is stable across restarts.
    pub fn type_contiguous(
        &mut self,
        count: usize,
        child: DatatypeHandle,
    ) -> Result<DatatypeHandle> {
        Ok(self.mpi.types.commit(Datatype::Contiguous { count, child })?)
    }

    /// Create a strided-vector derived datatype (§4.2).
    pub fn type_vector(
        &mut self,
        count: usize,
        blocklen: usize,
        stride: usize,
        child: DatatypeHandle,
    ) -> Result<DatatypeHandle> {
        Ok(self.mpi.types.commit(Datatype::Vector { count, blocklen, stride, child })?)
    }

    /// Free a derived datatype. The handle is invalid at once; the
    /// substrate keeps its definition, and checkpoints it, until every
    /// type built from it is freed too, so recovery can rebuild the
    /// hierarchy (§4.2).
    pub fn type_free(&mut self, dt: DatatypeHandle) -> Result<()> {
        Ok(self.mpi.types.free(dt)?)
    }

    /// Blocking receive scattering `count` elements of `dt` into `buf`.
    pub fn recv_typed(
        &mut self,
        src: i32,
        tag: i32,
        buf: &mut [u8],
        count: usize,
        dt: DatatypeHandle,
    ) -> Result<Status> {
        let (bytes, st) = self.recv_bytes(src, tag)?;
        self.mpi.types.unpack(&bytes, buf, count, dt).map_err(C3Error::Mpi)?;
        Ok(st)
    }

    // ==================================================================
    // Non-blocking API (§4.1)
    // ==================================================================

    /// Non-blocking send. Buffered: completes at initiation, but must be
    /// collected with `test`/`wait`.
    pub fn isend_bytes(&mut self, dst: usize, tag: i32, payload: &[u8]) -> Result<C3Req> {
        self.stream_send(dst, COMM_WORLD.0, StreamKind::P2p { tag }, payload.into())?;
        Ok(self.reqs.alloc(C3ReqKind::Send, dst as i32, tag, COMM_WORLD.0, self.epoch(), None))
    }

    /// Non-blocking typed send.
    pub fn isend<T: Pod>(&mut self, dst: usize, tag: i32, data: &[T]) -> Result<C3Req> {
        self.isend_bytes(dst, tag, bytes_of(data))
    }

    /// Post a non-blocking receive (wildcards allowed). During recovery the
    /// underlying receive is posted lazily at completion time, so that
    /// replayed-from-log messages never leave a stale posted receive behind.
    pub fn irecv(&mut self, src: i32, tag: i32) -> Result<C3Req> {
        self.drain_control()?;
        let mpi = if self.mode() == Mode::Restore {
            None
        } else {
            Some(self.mpi.irecv_bytes(src, tag, COMM_WORLD).map_err(C3Error::Mpi)?)
        };
        Ok(self.reqs.alloc(C3ReqKind::Recv, src, tag, COMM_WORLD.0, self.epoch(), mpi))
    }

    /// Test a request without blocking. Unsuccessful tests are counted while
    /// in NonDet-Log and replayed during recovery, with the originally
    /// successful test substituted by a wait (§4.1).
    pub fn test(&mut self, r: C3Req) -> Result<Option<(Status, Vec<u8>)>> {
        self.drain_control()?;
        let block = if self.mode() == Mode::Restore {
            match self.replay_test(r) {
                // "If the counter is not zero, the counter is decremented and
                // the call returns without attempting to complete the
                // request."
                None => return Ok(None),
                // "If the original call was successful, the call is
                // substituted with a corresponding Wait operation", which
                // cannot deadlock: the matching message is in the log or
                // guaranteed to arrive.
                Some(succeeded) => succeeded,
            }
        } else {
            false
        };
        let done = self.complete(r, block)?;
        if done.is_none() && self.mode() == Mode::NonDetLog {
            if let Some(e) = self.reqs.get_mut(r) {
                e.test_fails += 1;
            }
        }
        Ok(done)
    }

    /// Block until a request completes; consume it.
    pub fn wait(&mut self, r: C3Req) -> Result<(Status, Vec<u8>)> {
        self.drain_control()?;
        Ok(self.complete(r, true)?.expect("a blocking completion completes"))
    }

    /// Block until any of the requests completes; returns its index.
    /// Completion indices are logged during NonDet-Log and replayed during
    /// recovery (§4.1 "log the index or indices of MPI_Wait_any").
    pub fn wait_any(&mut self, list: &[C3Req]) -> Result<(usize, Status, Vec<u8>)> {
        self.drain_control()?;
        let log = self.mode() == Mode::NonDetLog;
        self.complete_any(list, log)
    }

    /// Block until at least one request completes; consume and return all
    /// completed `(index, status, payload)` triples.
    pub fn wait_some(&mut self, list: &[C3Req]) -> Result<Vec<(usize, Status, Vec<u8>)>> {
        self.drain_control()?;
        let restoring = self.mode() == Mode::Restore;
        if restoring {
            if let Some(NondetEvent::WaitSome(indices)) = self.reqs.nondet_events.front().cloned() {
                self.reqs.nondet_events.pop_front();
                let mut out = Vec::with_capacity(indices.len());
                for i in indices.into_iter().map(|i| i as usize).filter(|i| *i < list.len()) {
                    let (st, data) = self.complete(list[i], true)?.expect("blocking");
                    out.push((i, st, data));
                }
                if !out.is_empty() {
                    return Ok(out);
                }
            }
        }
        // Block for one, then (outside recovery) sweep the other posted
        // receives without counting tests: the paper's counter covers the
        // application's `test` calls, not this sweep.
        let mut out = vec![self.complete_any(list, false)?];
        if !restoring {
            for (i, r) in list.iter().enumerate() {
                if i == out[0].0 || self.reqs.get(*r).is_none_or(|e| e.mpi.is_none()) {
                    continue;
                }
                if let Some((st, data)) = self.complete(*r, false)? {
                    out.push((i, st, data));
                }
            }
        }
        // Unlike `wait_any`'s single index, the set is known only after its
        // arrivals took effect, so it is logged if logging outlived them.
        if self.mode() == Mode::NonDetLog {
            self.reqs
                .nondet_events
                .push_back(NondetEvent::WaitSome(out.iter().map(|(i, _, _)| *i as u32).collect()));
        }
        Ok(out)
    }

    /// Complete one request of `list`: in `Restore` the logged index first;
    /// then, in index order, a send or a receive the replay log serves;
    /// then whichever posted receive the substrate completes first. With
    /// `log`, the index is logged before the arrival's effects, which may
    /// commit the checkpoint that saves the log.
    fn complete_any(&mut self, list: &[C3Req], log: bool) -> Result<(usize, Status, Vec<u8>)> {
        if list.is_empty() {
            return Err(C3Error::Protocol("wait_any on empty request list".into()));
        }
        if self.mode() == Mode::Restore {
            if let Some(&NondetEvent::WaitAny(i)) = self.reqs.nondet_events.front() {
                self.reqs.nondet_events.pop_front();
                let i = i as usize;
                if i < list.len() {
                    let (st, data) = self.complete(list[i], true)?.expect("blocking");
                    return Ok((i, st, data));
                }
            }
        }
        for (i, r) in list.iter().enumerate() {
            if let Some((st, data)) = self.complete_now(*r)? {
                if log {
                    self.reqs.nondet_events.push_back(NondetEvent::WaitAny(i as u32));
                }
                return Ok((i, st, data));
            }
        }
        let ids = list.iter().map(|r| self.posted(*r)).collect::<Result<Vec<_>>>()?;
        let (i, st, payload) = self.mpi.wait_any(&ids).map_err(C3Error::Mpi)?;
        if log {
            self.reqs.nondet_events.push_back(NondetEvent::WaitAny(i as u32));
        }
        let (st, data) = self.finish_live(list[i], st, payload.into_vec())?;
        Ok((i, st, data))
    }

    /// Complete a request, blocking or not — the one completion path
    /// behind `test`, `wait`, `wait_any` and `wait_some` in every mode:
    /// first what needs no substrate (sends, replay-log data), then the
    /// live receive.
    fn complete(&mut self, r: C3Req, block: bool) -> Result<Option<(Status, Vec<u8>)>> {
        if let Some(done) = self.complete_now(r)? {
            return Ok(Some(done));
        }
        let mreq = self.posted(r)?;
        let done = if block {
            Some(self.mpi.wait(mreq).map_err(C3Error::Mpi)?)
        } else {
            self.mpi.test(mreq).map_err(C3Error::Mpi)?
        };
        match done {
            Some((st, payload)) => self.finish_live(r, st, payload.into_vec()).map(Some),
            None => Ok(None),
        }
    }

    /// Complete `r` without the substrate, if possible: a send (buffered,
    /// complete at initiation) or, in `Restore`, a receive the replay log
    /// serves.
    fn complete_now(&mut self, r: C3Req) -> Result<Option<(Status, Vec<u8>)>> {
        let e =
            self.reqs.get(r).ok_or_else(|| C3Error::Protocol(format!("unknown request {r:?}")))?;
        let (kind, src, tag, comm) = (e.kind, e.src, e.tag, e.comm);
        let done = match kind {
            C3ReqKind::Send => {
                Some((Status { src: src as usize, tag, bytes: 0, piggyback: 0 }, Vec::new()))
            }
            C3ReqKind::Recv => self.replayed(src, tag, comm)?.map(|(data, st)| (st, data)),
        };
        if done.is_some() {
            // Replay serves a request before anything posts it live: the
            // log is consulted first on every path and never grows in
            // `Restore`.
            debug_assert!(
                kind == C3ReqKind::Send || self.reqs.get(r).is_some_and(|e| e.mpi.is_none())
            );
            self.reqs.release(r, self.mode().is_logging());
        }
        Ok(done)
    }

    /// Account a receive the substrate completed for `r`, and release it.
    fn finish_live(&mut self, r: C3Req, st: Status, payload: Vec<u8>) -> Result<(Status, Vec<u8>)> {
        let e = self.reqs.get(r).expect("completing a known request");
        let (wildcard, comm) = (e.src == ANY_SOURCE || e.tag == ANY_TAG, e.comm);
        self.arrived(self.p2p_sig(&st, comm), st.piggyback, wildcard, &payload, Some(r))?;
        self.reqs.release(r, self.mode().is_logging());
        Ok((st, payload))
    }

    /// The substrate receive behind `r`, posted now if it is not yet:
    /// requests restored across the line or created during recovery post
    /// lazily, so replayed-from-log messages never leave a stale posted
    /// receive behind.
    fn posted(&mut self, r: C3Req) -> Result<mpisim::ReqId> {
        let e =
            self.reqs.get(r).ok_or_else(|| C3Error::Protocol(format!("unknown request {r:?}")))?;
        if let Some(m) = e.mpi {
            return Ok(m);
        }
        if e.kind != C3ReqKind::Recv {
            return Err(C3Error::Protocol(format!("send request {r:?} has no receive to post")));
        }
        let m = self.mpi.irecv_bytes(e.src, e.tag, CommId(e.comm)).map_err(C3Error::Mpi)?;
        self.reqs.get_mut(r).expect("known request").mpi = Some(m);
        Ok(m)
    }

    /// `Restore`: replay a request's logged `test` outcome, kept in the
    /// table for pre-line requests and in the replay map for post-line
    /// re-allocations. `None`: a logged unsuccessful test is consumed.
    /// `Some(succeeded)`: whether the original test succeeded while logging
    /// (never, for a send, which completes at its first test).
    fn replay_test(&mut self, r: C3Req) -> Option<bool> {
        let (fails, succeeded) = match self.reqs.replay.get_mut(&r.0) {
            Some(m) => (&mut m.test_fails, m.completed_during_log),
            None => match self.reqs.get_mut(r) {
                Some(e) => (&mut e.test_fails, e.completed_during_log),
                None => return Some(false),
            },
        };
        if *fails > 0 {
            *fails -= 1;
            return None;
        }
        Some(succeeded)
    }

    // ==================================================================
    // Fault injection hooks (the chaos engine's protocol-layer instants)
    // ==================================================================

    /// Fire the armed fault: disarm it, poison the job with the injected
    /// marker, and surface `Aborted` to the application.
    fn fire_failure<T>(&mut self, what: &str) -> Result<T> {
        self.failure = None;
        let reason =
            format!("{} at rank {} ({what})", mpisim::INJECTED_FAULT_MARKER, self.mpi.rank());
        self.mpi.fail_stop(&reason);
        Err(C3Error::Mpi(MpiError::Aborted))
    }

    /// Torn-commit crash window: called between writing the late log and
    /// writing the commit record (see `ckpt::write_commit_sections`).
    pub(crate) fn maybe_fail_during_commit(&mut self) -> Result<()> {
        if let Some(FailurePlan { when: FailAt::DuringCommit, .. }) = self.failure {
            return self.fire_failure(&format!("mid-commit of line {}", self.epoch()));
        }
        Ok(())
    }

    /// Count one receive served from the replay log; a `DuringRestore`
    /// fault kills the rank at its n-th replayed receive — mid-recovery,
    /// while peers may themselves still be replaying.
    fn note_replayed(&mut self) -> Result<()> {
        self.stats.replayed_recvs += 1;
        if let Some(FailurePlan { when: FailAt::DuringRestore { nth_replay }, .. }) = self.failure {
            if self.stats.replayed_recvs >= nth_replay.max(1) {
                return self
                    .fire_failure(&format!("replay {} during restore", self.stats.replayed_recvs));
            }
        }
        Ok(())
    }

    // ==================================================================
    // The checkpoint pragma and checkpoint actions (Fig. 5)
    // ==================================================================

    /// `#pragma ccc checkpoint`: the only application-side requirement of
    /// the paper. Returns `Ok(true)` if a checkpoint was started here.
    ///
    /// The closure produces the application state to save; it is invoked
    /// only when a checkpoint is actually taken.
    pub fn pragma<F: FnOnce(&mut Encoder)>(&mut self, save: F) -> Result<bool> {
        if let Some(f) = self.failure {
            let (pragma, commits) = (self.proto.pragmas() + 1, self.stats.ckpts_committed);
            let hit = match f.when {
                FailAt::Pragma(p) => pragma >= p,
                FailAt::AfterCommits { commits: c, pragma: p } => commits >= c && pragma >= p,
                _ => false,
            };
            if hit {
                return self.fire_failure(&format!("pragma {pragma}, {commits} commits"));
            }
        }
        self.drain_control()?;
        let me = self.mpi.rank();
        let policy = self.cfg.initiator.is_none_or(|r| r == me).then_some(&self.cfg.policy);
        let Some(ci_counts) = self.proto.pragma(policy, self.mpi.vtime()) else {
            return Ok(false);
        };
        let mut enc = Encoder::new();
        save(&mut enc);
        // `chkpt_StartCheckpoint` (Fig. 5), after the core advanced the
        // epoch and shuffled the counters: save application state, basic
        // MPI state, the datatype table and the Early-Message-Registry, then
        // send Checkpoint-Initiated to every node Q with Sent-Count[Q].
        self.stats.ckpts_started += 1;
        let version = self.epoch();
        self.reqs.reset_period();
        ckpt::write_line_sections(self, version, enc.finish())?;
        for (q, count) in ci_counts.into_iter().enumerate().filter(|&(q, _)| q != me) {
            let payload = CiMsg { new_epoch: version, sent_count: count }.encode();
            self.mpi.send_bytes(q, TAG_CI, COMM_CTRL, 0, &payload)?;
            self.stats.ci_sent += 1;
        }
        let next = self.proto.line_written(self.mpi.vtime());
        self.carry_out(next)?;
        Ok(true)
    }
}
