//! The per-rank handle to the substrate: point-to-point operations,
//! request management, the datatype table, virtual time.

use crate::datatype::TypeTable;
use crate::envelope::Envelope;
use crate::error::{MpiError, Result};
use crate::network::Network;
use crate::payload::Payload;
use crate::pod::{self, Pod};
use crate::request::{ReqId, RequestTable, Status};
use crate::{CommId, Fx, Rank, Tag, COMM_WORLD};
use std::collections::HashMap;
use std::sync::Arc;

/// A rank's handle to the job: the substrate analogue of "the MPI library"
/// as seen by one process.
pub struct RankCtx {
    rank: Rank,
    nranks: usize,
    net: Arc<Network>,
    pub(crate) reqs: RequestTable,
    /// Committed datatypes of this rank.
    pub types: TypeTable,
    /// Per-destination send sequence numbers (FIFO bookkeeping).
    send_seq: Vec<u64>,
    /// Per-communicator collective call counters (collectives match by call
    /// order on the communicator, as in MPI).
    pub(crate) coll_seq: HashMap<CommId, u64, Fx>,
    /// Virtual clock in nanoseconds under the cluster model.
    vclock: u64,
    /// Monotone *operation clock*: ticks once at the initiation of every
    /// definite MPI operation this rank issues (sends, posted receives,
    /// waits, collective entries). Polling calls (`test`, `try_recv_bytes`,
    /// `iprobe`) do not tick, so the clock is a pure function of the
    /// application's call sequence rather than of thread timing — the
    /// property a deterministic chaos engine needs to target "rank r's n-th
    /// MPI operation".
    op_clock: u64,
    /// Fail-stop watchdog: when set, the rank poisons the job the moment its
    /// op clock reaches this value (fault injection *inside* collectives and
    /// protocol-layer traffic, not just at application pragmas).
    fail_at_op: Option<u64>,
    /// Messages and payload bytes this rank sent; `launch` sums them per job.
    pub(crate) msgs_sent: u64,
    pub(crate) bytes_sent: u64,
}

impl RankCtx {
    pub(crate) fn new(rank: Rank, net: Arc<Network>) -> Self {
        let nranks = net.nranks();
        RankCtx {
            rank,
            nranks,
            net,
            reqs: RequestTable::new(),
            types: TypeTable::new(),
            send_seq: vec![0; nranks],
            coll_seq: HashMap::default(),
            msgs_sent: 0,
            bytes_sent: 0,
            vclock: 0,
            op_clock: 0,
            fail_at_op: None,
        }
    }

    /// This rank's index in the world communicator.
    #[inline]
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Number of ranks in the job.
    #[inline]
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// The shared network (for diagnostics and fault injection).
    pub fn network(&self) -> &Arc<Network> {
        &self.net
    }

    /// Current virtual time in nanoseconds.
    #[inline]
    pub fn vtime(&self) -> u64 {
        self.vclock
    }

    /// Advance the virtual clock by `ns` of computation.
    #[inline]
    pub fn compute(&mut self, ns: u64) {
        self.vclock += ns;
    }

    /// Return `Err(Aborted)` if the job has been poisoned.
    #[inline]
    pub fn check_abort(&self) -> Result<()> {
        if self.net.is_poisoned() {
            Err(MpiError::Aborted)
        } else {
            Ok(())
        }
    }

    /// Poison the job (fail-stop this rank). Every rank's next blocking or
    /// issued operation returns `Aborted`.
    pub fn fail_stop(&self, reason: &str) {
        self.net.poison(reason);
    }

    /// Current value of the per-rank operation clock (see the field docs for
    /// what counts as an operation).
    #[inline]
    pub fn op_clock(&self) -> u64 {
        self.op_clock
    }

    /// Arm (or disarm) the deterministic fail-stop watchdog: the rank
    /// fail-stops when its op clock reaches `at`. The poison reason starts
    /// with [`crate::INJECTED_FAULT_MARKER`] so drivers can tell the
    /// injected death from a genuine failure.
    pub fn set_fail_at_op(&mut self, at: Option<u64>) {
        self.fail_at_op = at;
    }

    /// Tick the operation clock; fire the watchdog if armed and due.
    /// `pub(crate)` so collectives (a sibling module) tick at their entry.
    #[inline]
    pub(crate) fn tick_op(&mut self) -> Result<()> {
        self.op_clock += 1;
        if let Some(n) = self.fail_at_op {
            if self.op_clock >= n {
                self.fail_at_op = None;
                self.net.poison(&format!(
                    "{} at rank {} (op {})",
                    crate::INJECTED_FAULT_MARKER,
                    self.rank,
                    self.op_clock
                ));
                return Err(MpiError::Aborted);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Send raw bytes to `dst` with full control over communicator and the
    /// protocol piggyback byte. Standard-mode buffered: completes locally.
    ///
    /// Copies `payload` once into a fresh buffer (the caller keeps its
    /// slice). For copy-free sends, use [`RankCtx::send_owned`] or
    /// [`RankCtx::send_payload`].
    pub fn send_bytes(
        &mut self,
        dst: Rank,
        tag: Tag,
        comm: CommId,
        piggyback: u8,
        payload: &[u8],
    ) -> Result<()> {
        self.send_payload(dst, tag, comm, piggyback, Payload::from(payload))
    }

    /// Send an owned buffer: ownership transfers into the substrate with
    /// zero copies, and a sole receiver takes the same allocation back out
    /// through [`RankCtx::recv_bytes`].
    pub fn send_owned(
        &mut self,
        dst: Rank,
        tag: Tag,
        comm: CommId,
        piggyback: u8,
        payload: Vec<u8>,
    ) -> Result<()> {
        self.send_payload(dst, tag, comm, piggyback, Payload::from_vec(payload))
    }

    /// Send a [`Payload`]: the zero-copy primitive every other send
    /// path lowers to. Cloning the payload before the call lets one buffer
    /// fan out to many destinations (bcast, allgather).
    pub fn send_payload(
        &mut self,
        dst: Rank,
        tag: Tag,
        comm: CommId,
        piggyback: u8,
        payload: Payload,
    ) -> Result<()> {
        self.check_abort()?;
        self.tick_op()?;
        if dst >= self.nranks {
            return Err(MpiError::InvalidArg(format!("destination {dst} out of range")));
        }
        if tag < 0 {
            return Err(MpiError::InvalidArg(format!("negative tag {tag} on send")));
        }
        self.vclock += self.net.cluster().send_overhead_ns;
        let seq = self.send_seq[dst];
        self.send_seq[dst] += 1;
        self.msgs_sent += 1;
        self.bytes_sent += payload.len() as u64;
        // Under a bounded mailbox this may park the rank until `dst` drains
        // a slot (standard-mode send semantics with finite buffering); it
        // returns `Aborted` if the job is poisoned while parked.
        self.net.send(Envelope {
            src: self.rank,
            dst,
            tag,
            comm,
            seq,
            piggyback,
            depart_vt: self.vclock,
            payload,
        })
    }

    /// Send a typed slice on the world communicator (piggyback 0).
    pub fn send<T: Pod>(&mut self, dst: Rank, tag: Tag, data: &[T]) -> Result<()> {
        self.send_bytes(dst, tag, COMM_WORLD, 0, pod::bytes_of(data))
    }

    /// Blocking receive of raw bytes matching `(src, tag, comm)` (wildcards
    /// allowed). Returns the payload and status (which carries the sender's
    /// piggyback byte). Zero-copy when this rank holds the only reference to
    /// the buffer (the steady-state point-to-point case).
    pub fn recv_bytes(&mut self, src: i32, tag: Tag, comm: CommId) -> Result<(Vec<u8>, Status)> {
        let (payload, st) = self.recv_payload(src, tag, comm)?;
        Ok((payload.into_vec(), st))
    }

    /// Blocking receive returning the shared [`Payload`] directly, without
    /// materializing a vector.
    pub fn recv_payload(&mut self, src: i32, tag: Tag, comm: CommId) -> Result<(Payload, Status)> {
        let req = self.irecv_bytes(src, tag, comm)?;
        let (st, payload) = self.wait(req)?;
        Ok((payload, st))
    }

    /// Blocking receive of a typed vector on the world communicator.
    pub fn recv<T: Pod>(&mut self, src: i32, tag: Tag) -> Result<(Vec<T>, Status)> {
        let (bytes, st) = self.recv_bytes(src, tag, COMM_WORLD)?;
        Ok((pod::vec_from_bytes(&bytes), st))
    }

    /// Non-blocking claim: receive a matching message only if one has
    /// already arrived.
    pub fn try_recv_bytes(
        &mut self,
        src: i32,
        tag: Tag,
        comm: CommId,
    ) -> Result<Option<(Vec<u8>, Status)>> {
        self.check_abort()?;
        // Pending posted receives have matching priority; do not steal from
        // them. Progress first so they claim what is theirs.
        self.reqs.progress(self.net.mailbox(self.rank));
        let claimed = self.net.mailbox(self.rank).try_claim(src, tag, comm);
        Ok(claimed.map(|env| {
            let (st, payload) = self.arrived(env);
            (payload.into_vec(), st)
        }))
    }

    /// Non-destructive probe for a matching message: `(src, tag, bytes)`.
    pub fn iprobe(
        &mut self,
        src: i32,
        tag: Tag,
        comm: CommId,
    ) -> Result<Option<(Rank, Tag, usize)>> {
        self.check_abort()?;
        self.net.nudge(self.rank);
        Ok(self.net.mailbox(self.rank).probe(src, tag, comm))
    }

    // ------------------------------------------------------------------
    // Non-blocking receives
    // ------------------------------------------------------------------

    /// Post a non-blocking receive (wildcards allowed).
    pub fn irecv_bytes(&mut self, src: i32, tag: Tag, comm: CommId) -> Result<ReqId> {
        self.check_abort()?;
        self.tick_op()?;
        Ok(self.reqs.add_recv(src, tag, comm))
    }

    /// Post a non-blocking receive on the world communicator.
    pub fn irecv(&mut self, src: i32, tag: Tag) -> Result<ReqId> {
        self.irecv_bytes(src, tag, COMM_WORLD)
    }

    /// Test a receive for completion without blocking. On completion the
    /// request is consumed and its payload returned.
    pub fn test(&mut self, req: ReqId) -> Result<Option<(Status, Payload)>> {
        self.check_abort()?;
        self.reqs.progress(self.net.mailbox(self.rank));
        Ok(self.reqs.take(req)?.map(|env| self.arrived(env)))
    }

    /// Block until a receive completes; consume it and return its payload.
    pub fn wait(&mut self, req: ReqId) -> Result<(Status, Payload)> {
        self.tick_op()?;
        let env = self.block_until(|reqs| reqs.take(req))?;
        Ok(self.arrived(env))
    }

    /// Block until *any* of the given receives completes; returns its index
    /// in `reqs` plus status and payload. Which one completes is
    /// nondeterministic (arrival timing), which is exactly the
    /// nondeterminism the protocol layer must log for `MPI_Waitany` (§4.1).
    pub fn wait_any(&mut self, reqs: &[ReqId]) -> Result<(usize, Status, Payload)> {
        if reqs.is_empty() {
            return Err(MpiError::InvalidArg("wait_any on empty request list".into()));
        }
        self.tick_op()?;
        let (i, env) = self.block_until(|table| {
            for (i, r) in reqs.iter().enumerate() {
                if let Some(env) = table.take(*r)? {
                    return Ok(Some((i, env)));
                }
            }
            Ok(None)
        })?;
        let (st, payload) = self.arrived(env);
        Ok((i, st, payload))
    }

    /// The one place a rank blocks on a receive: match arrivals against the
    /// posted receives, ask `done` for its result, and park on the mailbox
    /// until the next delivery (or poison) if it has none yet.
    fn block_until<T>(
        &mut self,
        mut done: impl FnMut(&mut RequestTable) -> Result<Option<T>>,
    ) -> Result<T> {
        loop {
            // Epoch before the poison check and progress: a poison or a
            // delivery that lands after either check bumps the epoch and
            // aborts the park (lost-wakeup guard).
            let seen = self.net.park_epoch(self.rank);
            self.check_abort()?;
            self.reqs.progress(self.net.mailbox(self.rank));
            if let Some(t) = done(&mut self.reqs)? {
                return Ok(t);
            }
            self.net.block_on_mailbox(self.rank, seen);
        }
    }

    /// Take delivery of a claimed envelope: advance the virtual clock to its
    /// arrival time and split it into status and payload.
    fn arrived(&mut self, env: Envelope) -> (Status, Payload) {
        let arrive = env.depart_vt + self.net.cluster().transfer_ns(env.payload.len());
        self.vclock = self.vclock.max(arrive);
        let st = Status {
            src: env.src,
            tag: env.tag,
            bytes: env.payload.len(),
            piggyback: env.piggyback,
        };
        (st, env.payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JobSpec, ANY_SOURCE, ANY_TAG};

    fn pair() -> (RankCtx, RankCtx) {
        let net = Arc::new(Network::new(&JobSpec::new(2)));
        (RankCtx::new(0, Arc::clone(&net)), RankCtx::new(1, net))
    }

    #[test]
    fn send_owned_transfers_the_buffer_without_copying() {
        let (mut tx, mut rx) = pair();
        let buf = vec![9u8; 10_000];
        let ptr = buf.as_ptr();
        tx.send_owned(1, 3, COMM_WORLD, 0, buf).unwrap();
        // The envelope in the mailbox references the sender's allocation.
        let (payload, st) = rx.recv_payload(0, 3, COMM_WORLD).unwrap();
        assert_eq!(payload.ptr(), ptr, "send_owned must not copy the payload");
        assert_eq!(payload.ref_count(), 1);
        assert_eq!(st.bytes, 10_000);
        // And the receiver can take the very same allocation back out.
        let bytes = payload.into_vec();
        assert_eq!(bytes.as_ptr(), ptr, "unique receive must not copy either");
        assert_eq!(bytes.len(), 10_000);
    }

    #[test]
    fn fan_out_shares_one_buffer_across_destinations() {
        let n = 8;
        let net = Arc::new(Network::new(&JobSpec::new(n)));
        let mut tx = RankCtx::new(0, Arc::clone(&net));
        let payload = Payload::from_vec(vec![7u8; 4096]);
        let ptr = payload.ptr();
        for dst in 1..n {
            tx.send_payload(dst, 1, COMM_WORLD, 0, payload.clone()).unwrap();
        }
        // One buffer, n references: the local handle plus one per mailbox.
        assert_eq!(payload.ref_count(), n);
        for dst in 1..n {
            let mut rx = RankCtx::new(dst, Arc::clone(&net));
            let (p, _st) = rx.recv_payload(0, 1, COMM_WORLD).unwrap();
            assert_eq!(p.ptr(), ptr, "rank {dst} must share the broadcast buffer");
        }
        // All mailbox references released; the sole handle remains.
        assert_eq!(payload.ref_count(), 1);
    }

    #[test]
    fn op_clock_is_a_pure_function_of_the_call_sequence() {
        let run = || {
            let (mut tx, mut rx) = pair();
            tx.send_bytes(1, 1, COMM_WORLD, 0, &[1, 2, 3]).unwrap();
            tx.send_bytes(1, 2, COMM_WORLD, 0, &[4]).unwrap();
            let _ = rx.recv_bytes(0, 1, COMM_WORLD).unwrap();
            let _ = rx.recv_bytes(0, 2, COMM_WORLD).unwrap();
            // Polling calls must NOT tick: their count depends on timing.
            let _ = rx.try_recv_bytes(ANY_SOURCE, ANY_TAG, COMM_WORLD).unwrap();
            let _ = rx.iprobe(ANY_SOURCE, ANY_TAG, COMM_WORLD).unwrap();
            (tx.op_clock(), rx.op_clock())
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "op clock diverged across identical runs");
        assert_eq!(a.0, 2, "two sends tick twice");
        assert_eq!(a.1, 4, "two blocking receives tick twice each (post + wait)");
    }

    #[test]
    fn fail_at_op_watchdog_poisons_with_the_injected_marker() {
        let (mut tx, _rx) = pair();
        tx.set_fail_at_op(Some(3));
        tx.send_bytes(1, 1, COMM_WORLD, 0, &[0]).unwrap();
        tx.send_bytes(1, 1, COMM_WORLD, 0, &[0]).unwrap();
        let err = tx.send_bytes(1, 1, COMM_WORLD, 0, &[0]).unwrap_err();
        assert_eq!(err, MpiError::Aborted);
        let reason = tx.network().poison_reason().unwrap();
        assert!(reason.starts_with(crate::INJECTED_FAULT_MARKER), "reason: {reason}");
        assert!(reason.contains("op 3"), "reason: {reason}");
    }

    #[test]
    fn collectives_tick_the_op_clock_at_entry() {
        let net = Arc::new(Network::new(&JobSpec::new(1)));
        let mut solo = RankCtx::new(0, net);
        // Single-rank bcast takes the early-return path but still ticks.
        let mut data = vec![1u8];
        solo.bcast(COMM_WORLD, 0, &mut data).unwrap();
        assert_eq!(solo.op_clock(), 1);
        solo.set_fail_at_op(Some(2));
        assert_eq!(solo.bcast(COMM_WORLD, 0, &mut data).unwrap_err(), MpiError::Aborted);
    }
}
