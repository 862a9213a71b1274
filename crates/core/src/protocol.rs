//! The protocol actions (Figures 4 and 5): wrapped sends/receives,
//! non-blocking requests, the checkpoint pragma, and the
//! start / commit / restore checkpoint functions.

use crate::api::{C3Config, C3Ctx, C3Error, FailureTrigger};
use crate::ckpt;
use crate::control::{CiMsg, CiTracker, TAG_CI};
use crate::counters::Counters;
use crate::mode::Mode;
use crate::piggyback::{self, MsgClass, PigData};
use crate::registries::{EarlyRegistry, ReplayLog, StreamKind, StreamSig, WasEarlyRegistry};
use crate::requests::{C3Req, C3ReqKind, C3ReqTable, NondetEvent};
use crate::Result;
use mpisim::{
    bytes_of, vec_from_bytes, CommId, Datatype, DatatypeHandle, MpiError, Payload, Pod, RankCtx,
    Status, ANY_SOURCE, ANY_TAG, COMM_CTRL, COMM_WORLD,
};
use statesave::codec::Encoder;
use statesave::CkptStore;
use std::sync::atomic::Ordering;
use std::sync::Arc;
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
    /// Build a fresh (epoch-0) co-ordination layer around a rank.
    pub fn fresh(
        mpi: &'a mut RankCtx,
        cfg: C3Config,
        failure: Option<Arc<FailureTrigger>>,
    ) -> Result<Self> {
        // Op-indexed faults are delegated to the substrate's watchdog so
        // they can land inside collectives, the control plane, and the
        // restore handshake — places the protocol layer never sees.
        if let Some(f) = &failure {
            if f.plan.rank == mpi.rank() {
                if let crate::failure::FailAt::Op(n) = f.plan.when {
                    mpi.set_fail_at_op(Some(n));
                }
            }
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
            mpi,
            cfg,
            epoch: 0,
            mode: Mode::Run,
            counters: Counters::new(n),
            ci: CiTracker::new(),
            replay: ReplayLog::new(),
            early: EarlyRegistry::new(),
            was_early: WasEarlyRegistry::new(),
            reqs: C3ReqTable::new(),
            comms: crate::comms::CommTable::new(n),
            store,
            pragma_count: 0,
            commit_count: 0,
            restored_app_state: None,
            line_next_req: 0,
            last_ckpt_pragma: 0,
            last_ckpt_ns: 0,
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
        failure: Option<Arc<FailureTrigger>>,
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
        ckpt::restore_line(&mut ctx, line)?;
        ctx.exchange_early_registries()?;
        ctx.mode = Mode::Restore;
        ctx.check_restore_done();
        Ok(ctx)
    }

    /// Distribute the restored Early-Message-Registry entries to their
    /// original senders; build the local Was-Early-Registry from what the
    /// peers send back (Fig. 5, `chkpt_RestoreCheckpoint`).
    fn exchange_early_registries(&mut self) -> Result<()> {
        let n = self.nranks();
        let mut parts: Vec<Vec<u8>> = Vec::with_capacity(n);
        for q in 0..n {
            let sigs = self.early.entries_from(q);
            let mut e = Encoder::new();
            e.save(&sigs);
            parts.push(e.finish());
        }
        let replies = self.mpi.alltoall(COMM_CTRL, &parts)?;
        for bytes in replies {
            let mut d = statesave::Decoder::new(&bytes);
            let sigs: Vec<StreamSig> = d.load()?;
            for s in sigs {
                debug_assert_eq!(s.src, self.mpi.rank(), "was-early entry routed to wrong sender");
                self.was_early.add(s);
            }
        }
        // The restored registry's job is done; it was re-initialized at the
        // line ("Reset Early-Message-Registry").
        self.early.clear();
        Ok(())
    }

    // ==================================================================
    // Control plane
    // ==================================================================

    /// "Check for control messages": drain Checkpoint-Initiated messages and
    /// apply mode transitions. Called at every wrapped operation and pragma.
    pub(crate) fn drain_control(&mut self) -> Result<()> {
        while let Some((bytes, st)) = self.mpi.try_recv_bytes(ANY_SOURCE, TAG_CI, COMM_CTRL)? {
            let msg = CiMsg::decode(&bytes)?;
            if msg.new_epoch == self.epoch && self.mode.is_logging() {
                // CI for the round we are committing: record the peer's
                // sent-count for the late-message condition.
                self.counters.set_expected(st.src, msg.sent_count);
            } else if msg.new_epoch > self.epoch {
                // CI for a round we have not started yet (triggers a
                // checkpoint at our next pragma).
                self.ci.record(st.src, msg);
            }
            // Stale CI (round already committed): ignore.
        }
        self.maybe_advance()
    }

    /// Apply the NonDet-Log → RecvOnly-Log → Run transitions when their
    /// conditions hold (Fig. 3). Commit is local: all CIs present and all
    /// promised late messages received.
    pub(crate) fn maybe_advance(&mut self) -> Result<()> {
        let me = self.mpi.rank();
        if self.mode == Mode::NonDetLog && self.counters.all_ci_received(me) {
            self.mode = Mode::RecvOnlyLog;
        }
        if self.mode == Mode::RecvOnlyLog && self.counters.all_late_received(me) {
            self.commit_checkpoint()?;
        }
        debug_assert!(
            self.counters.late_overrun(me).is_none(),
            "rank {me}: received more late messages than a peer's CI promised"
        );
        Ok(())
    }

    /// Restore → Run when the replay log holds no more late data and every
    /// early send has been suppressed ("Late-Message-Registry is empty and
    /// Was-Early-Registry is empty").
    pub(crate) fn check_restore_done(&mut self) {
        if self.mode == Mode::Restore && !self.replay.has_data() && self.was_early.is_empty() {
            // Leftover wild-card forcing entries and request replay metadata
            // no longer matter: nothing that remains can affect any saved
            // state.
            self.replay = ReplayLog::new();
            self.reqs.replay.clear();
            self.reqs.nondet_events.clear();
            self.mode = Mode::Run;
        }
    }

    // ==================================================================
    // Arrival classification (the receive side of Fig. 4)
    // ==================================================================

    /// Classify an arrived message by its piggybacked bits.
    ///
    /// Public (together with [`C3Ctx::apply_arrival`]) as the protocol's
    /// verification seam: property tests drive arbitrary piggyback bytes
    /// through the real classification and arrival effects against a
    /// reference model. Applications never need to call it.
    pub fn classify(&self, piggyback: u8) -> (MsgClass, bool) {
        let (color, logging) = piggyback::decode(piggyback);
        (piggyback::classify(self.epoch, color), logging)
    }

    /// Apply the protocol effects of receiving a message: counters, logging,
    /// early recording, and mode transitions. Public as a verification seam
    /// (see [`C3Ctx::classify`]); wrapped operations call it internally.
    pub fn apply_arrival(
        &mut self,
        class: MsgClass,
        sender_logging: bool,
        sig: StreamSig,
        wildcard: bool,
        data: &[u8],
    ) -> Result<()> {
        match class {
            MsgClass::Late => {
                self.counters.late_received[sig.src] += 1;
                self.stats.late_logged += 1;
                self.stats.late_bytes += data.len() as u64;
                self.replay.push_late(sig, data.to_vec());
            }
            MsgClass::IntraEpoch => {
                self.counters.received[sig.src] += 1;
                if self.mode == Mode::NonDetLog {
                    if !sender_logging {
                        // The sender knows every process has started its
                        // checkpoint; we must stop logging nondeterminism
                        // too (the causality argument of §3.1).
                        self.mode = Mode::RecvOnlyLog;
                    } else if wildcard {
                        self.stats.wildcard_sigs_logged += 1;
                        self.replay.push_wildcard_sig(sig);
                    }
                }
            }
            MsgClass::Early => {
                self.counters.early_received[sig.src] += 1;
                self.stats.early_recorded += 1;
                self.early.push(sig);
            }
        }
        self.maybe_advance()
    }

    // ==================================================================
    // Logical stream primitives (shared by p2p and collectives)
    // ==================================================================

    /// Protocol-wrapped send of one logical stream (`chkpt_MPI_Send`).
    /// Copies `payload` once into a fresh buffer; use
    /// [`C3Ctx::stream_send_payload`] (or build the payload once and clone
    /// it) when the same bytes fan out to several destinations.
    pub(crate) fn stream_send(
        &mut self,
        dst: usize,
        comm: u32,
        kind: StreamKind,
        payload: &[u8],
    ) -> Result<()> {
        self.stream_send_payload(dst, comm, kind, Payload::from(payload))
    }

    /// Protocol-wrapped zero-copy send of one logical stream: the payload
    /// transfers (or shares) its buffer without copying. All protocol
    /// bookkeeping — suppression during restore, piggyback stamping,
    /// counters — is identical to [`C3Ctx::stream_send`].
    pub(crate) fn stream_send_payload(
        &mut self,
        dst: usize,
        comm: u32,
        kind: StreamKind,
        payload: Payload,
    ) -> Result<()> {
        self.drain_control()?;
        if self.mode == Mode::Restore {
            let sig = StreamSig { src: self.mpi.rank(), dst, comm, kind };
            if self.was_early.try_suppress(&sig) {
                // The receiver consumed this message before the failure, so
                // its restored `received` baseline includes it; the sent
                // count must match even though nothing travels.
                self.counters.sent[dst] += 1;
                self.stats.suppressed_sends += 1;
                self.check_restore_done();
                return Ok(());
            }
        }
        let pig = piggyback::encode(PigData::of(self.epoch, self.mode));
        let (mcomm, mtag) = transport(comm, kind);
        self.mpi.send_payload(dst, mtag, mcomm, pig, payload)?;
        self.counters.sent[dst] += 1;
        self.stats.msgs_sent += 1;
        Ok(())
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
        if self.mode == Mode::Restore {
            if let Some(data) = self.replay.take_coll_match(comm, call, src) {
                self.note_replayed()?;
                return Ok(data);
            }
        }
        let kind = StreamKind::Coll { call };
        let (mcomm, mtag) = transport(comm, kind);
        let (bytes, st) = self.mpi.recv_bytes(src as i32, mtag, mcomm)?;
        let sig = StreamSig { src, dst: self.mpi.rank(), comm, kind };
        self.arrived(sig, st.piggyback, false, &bytes, None)?;
        Ok(bytes)
    }

    /// The replay source of a p2p receive: in `Restore`, consume the first
    /// replay-log entry matching `(src, tag, comm)`. Late data completes the
    /// receive from the log ("the data for that receive is received from
    /// this registry"); an intra-epoch wild-card signature forces the
    /// receive onto the logged source ("fill in any wild-cards to force
    /// intra-epoch messages to be received in the order they were received
    /// prior to failure"), which blocks until that source re-sends. `None`
    /// outside `Restore` or without a match: the receive goes live.
    fn replayed(&mut self, src: i32, tag: i32, comm: u32) -> Result<Option<(Vec<u8>, Status)>> {
        if self.mode != Mode::Restore {
            return Ok(None);
        }
        let Some(entry) = self.replay.take_p2p_match(src, tag, comm) else {
            return Ok(None);
        };
        let StreamKind::P2p { tag: forced_tag } = entry.sig.kind else {
            unreachable!("p2p match returned a collective stream")
        };
        match entry.data {
            Some(data) => {
                self.note_replayed()?;
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

    /// Account one live arrival. In `Restore` every message is intra-epoch,
    /// so it is only counted. The Restore → Run condition (no late data
    /// left, no early send left to suppress) cannot change here — it is
    /// checked where it can, when log data is consumed or a send
    /// suppressed. Otherwise the arrival is classified by its piggyback
    /// and its protocol effects applied; `req`, the request it completes,
    /// is marked first, because a commit those effects trigger saves the
    /// request table.
    fn arrived(
        &mut self,
        sig: StreamSig,
        piggyback: u8,
        wildcard: bool,
        data: &[u8],
        req: Option<C3Req>,
    ) -> Result<()> {
        if self.mode == Mode::Restore {
            self.counters.received[sig.src] += 1;
            debug_assert!(
                self.replay.has_data() || !self.was_early.is_empty(),
                "Restore outlived its exit condition"
            );
            return Ok(());
        }
        let (class, logging) = self.classify(piggyback);
        if let Some(r) = req {
            let during_nondet = self.mode == Mode::NonDetLog;
            let e = self.reqs.get_mut(r).expect("completing a known request");
            e.completed = true;
            e.completed_class = Some(class);
            e.completed_during_log = during_nondet;
        }
        self.apply_arrival(class, logging, sig, wildcard, data)
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
        self.stream_send(dst, COMM_WORLD.0, StreamKind::P2p { tag }, payload)
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
        self.stream_send(dst, COMM_WORLD.0, StreamKind::P2p { tag }, payload)?;
        Ok(self.reqs.alloc(C3ReqKind::Send, dst as i32, tag, COMM_WORLD.0, self.epoch, None))
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
        let mpi = if self.mode == Mode::Restore {
            None
        } else {
            Some(self.mpi.irecv_bytes(src, tag, COMM_WORLD).map_err(C3Error::Mpi)?)
        };
        Ok(self.reqs.alloc(C3ReqKind::Recv, src, tag, COMM_WORLD.0, self.epoch, mpi))
    }

    /// Test a request without blocking. Unsuccessful tests are counted while
    /// in NonDet-Log and replayed during recovery, with the originally
    /// successful test substituted by a wait (§4.1).
    pub fn test(&mut self, r: C3Req) -> Result<Option<(Status, Vec<u8>)>> {
        self.drain_control()?;
        let block = if self.mode == Mode::Restore {
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
        if done.is_none() && self.mode == Mode::NonDetLog {
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
        let log = self.mode == Mode::NonDetLog;
        self.complete_any(list, log)
    }

    /// Block until at least one request completes; consume and return all
    /// completed `(index, status, payload)` triples.
    pub fn wait_some(&mut self, list: &[C3Req]) -> Result<Vec<(usize, Status, Vec<u8>)>> {
        self.drain_control()?;
        let restoring = self.mode == Mode::Restore;
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
        if self.mode == Mode::NonDetLog {
            self.reqs
                .nondet_events
                .push_back(NondetEvent::WaitSome(out.iter().map(|(i, _, _)| *i as u32).collect()));
        }
        Ok(out)
    }

    /// Wait for all requests, in order.
    pub fn wait_all(&mut self, list: &[C3Req]) -> Result<Vec<(Status, Vec<u8>)>> {
        let mut out = Vec::with_capacity(list.len());
        for r in list {
            out.push(self.wait(*r)?);
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
        if self.mode == Mode::Restore {
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
        let (st, data) = self.finish_live(list[i], st, payload.unwrap_or_default())?;
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
            Some(self.mpi.wait_payload(mreq).map_err(C3Error::Mpi)?)
        } else {
            self.mpi.test(mreq).map_err(C3Error::Mpi)?
        };
        match done {
            Some((st, payload)) => self.finish_live(r, st, payload.unwrap_or_default()).map(Some),
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
            self.reqs.release(r, self.mode.is_logging());
        }
        Ok(done)
    }

    /// Account a receive the substrate completed for `r`, and release it.
    fn finish_live(&mut self, r: C3Req, st: Status, payload: Vec<u8>) -> Result<(Status, Vec<u8>)> {
        let e = self.reqs.get(r).expect("completing a known request");
        let (wildcard, comm) = (e.src == ANY_SOURCE || e.tag == ANY_TAG, e.comm);
        self.arrived(self.p2p_sig(&st, comm), st.piggyback, wildcard, &payload, Some(r))?;
        self.reqs.release(r, self.mode.is_logging());
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
        if e.kind != C3ReqKind::Recv || e.completed {
            return Err(C3Error::Protocol(format!("request {r:?} was already collected")));
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

    /// The armed fault, if it targets this rank and has not fired yet.
    fn armed_failure(&self) -> Option<Arc<FailureTrigger>> {
        match &self.failure {
            Some(f) if f.plan.rank == self.mpi.rank() && !f.fired.load(Ordering::SeqCst) => {
                Some(Arc::clone(f))
            }
            _ => None,
        }
    }

    /// Fire the armed fault: mark it, poison the job with the injected
    /// marker, and surface `Aborted` to the application.
    fn fire_failure<T>(&mut self, f: &FailureTrigger, what: &str) -> Result<T> {
        f.fired.store(true, Ordering::SeqCst);
        let reason =
            format!("{} at rank {} ({what})", mpisim::INJECTED_FAULT_MARKER, self.mpi.rank());
        self.mpi.fail_stop(&reason);
        Err(C3Error::Mpi(MpiError::Aborted))
    }

    /// Torn-commit crash window: called between writing the late log and
    /// writing the commit record (see `ckpt::write_commit_sections`).
    pub(crate) fn maybe_fail_during_commit(&mut self) -> Result<()> {
        if let Some(f) = self.armed_failure() {
            if matches!(f.plan.when, crate::failure::FailAt::DuringCommit) {
                return self.fire_failure(&f, &format!("mid-commit of line {}", self.epoch));
            }
        }
        Ok(())
    }

    /// Count one receive served from the replay log and leave `Restore` if
    /// that was the last late data; a `DuringRestore` fault kills the rank
    /// at its n-th replayed receive — mid-recovery, while peers may
    /// themselves still be replaying.
    fn note_replayed(&mut self) -> Result<()> {
        self.stats.replayed_recvs += 1;
        if let Some(f) = self.armed_failure() {
            if let crate::failure::FailAt::DuringRestore { nth_replay } = f.plan.when {
                if self.stats.replayed_recvs >= nth_replay.max(1) {
                    return self.fire_failure(
                        &f,
                        &format!("replay {} during restore", self.stats.replayed_recvs),
                    );
                }
            }
        }
        self.check_restore_done();
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
        self.pragma_count += 1;
        if let Some(f) = self.armed_failure() {
            let hit = match f.plan.when {
                crate::failure::FailAt::Pragma(p) => self.pragma_count >= p,
                crate::failure::FailAt::AfterCommits { commits, pragma } => {
                    self.commit_count >= commits && self.pragma_count >= pragma
                }
                _ => false,
            };
            if hit {
                return self.fire_failure(
                    &f,
                    &format!("pragma {}, {} commits", self.pragma_count, self.commit_count),
                );
            }
        }
        self.drain_control()?;
        if self.mode != Mode::Run {
            return Ok(false);
        }
        let policy_applies = self.cfg.initiator.is_none_or(|r| r == self.mpi.rank());
        let since_last = self.mpi.vtime().saturating_sub(self.last_ckpt_ns);
        let force = policy_applies
            && self.cfg.policy.wants(self.pragma_count, self.last_ckpt_pragma, since_last);
        if force || self.ci.any(self.epoch + 1) {
            let mut enc = Encoder::new();
            save(&mut enc);
            self.start_checkpoint(enc.finish())?;
            return Ok(true);
        }
        Ok(false)
    }

    /// `chkpt_StartCheckpoint` (Fig. 5).
    pub(crate) fn start_checkpoint(&mut self, app_state: Vec<u8>) -> Result<()> {
        debug_assert_eq!(self.mode, Mode::Run, "checkpoints start from Run");
        // Advance Epoch.
        self.epoch += 1;
        self.stats.ckpts_started += 1;
        let version = self.epoch;
        // Prepare counters (returns the sent-counts for the CI messages).
        let ci_counts = self.counters.start_checkpoint();
        self.line_next_req = self.reqs.next_id();
        self.reqs.reset_period();
        // Save application state, basic MPI state, the datatype table, and
        // the Early-Message-Registry.
        ckpt::write_line_sections(self, version, app_state)?;
        self.early.clear();
        // Send Checkpoint-Initiated to every node Q with Sent-Count[Q].
        let me = self.mpi.rank();
        for (q, count) in ci_counts.iter().enumerate() {
            if q == me {
                continue;
            }
            let payload = CiMsg { new_epoch: self.epoch, sent_count: *count }.encode();
            self.mpi.send_bytes(q, TAG_CI, COMM_CTRL, 0, &payload)?;
            self.stats.ci_sent += 1;
        }
        // Apply CIs already received for this round.
        for (peer, count) in self.ci.take_round(self.epoch) {
            self.counters.set_expected(peer, count);
        }
        self.mode = Mode::NonDetLog;
        self.last_ckpt_pragma = self.pragma_count;
        self.last_ckpt_ns = self.mpi.vtime();
        self.maybe_advance()
    }

    /// `chkpt_CommitCheckpoint` (Fig. 5): write the Late-Message-Registry
    /// and request table, mark the version committed.
    pub(crate) fn commit_checkpoint(&mut self) -> Result<()> {
        debug_assert_eq!(self.mode, Mode::RecvOnlyLog, "commit happens from RecvOnly-Log");
        ckpt::write_commit_sections(self, self.epoch)?;
        self.replay = ReplayLog::new();
        self.reqs.purge_deferred();
        self.commit_count += 1;
        self.stats.ckpts_committed += 1;
        self.stats.last_commit_wall_ns = self.wall_origin.elapsed().as_nanos() as u64;
        self.mode = Mode::Run;
        Ok(())
    }
}
