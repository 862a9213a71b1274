//! # minimpi — an in-process message-passing substrate with MPI semantics
//!
//! This crate is the *substrate* of the C³ reproduction: it stands in for the
//! native MPI library of the paper ("Implementation and Evaluation of a
//! Scalable Application-level Checkpoint-Recovery Scheme for MPI Programs",
//! SC 2004). Ranks run inside one process as stackful coroutines on a small
//! worker-thread pool ([`SchedMode`] sets its width); each rank owns a
//! mailbox and communicates through a shared [`network::Network`].
//!
//! What matters for the checkpointing protocol built on top is not the wire
//! transport but MPI's *matching semantics*, which this crate reproduces
//! faithfully:
//!
//! * point-to-point messages are matched by `(source, tag, communicator)`
//!   with per-signature FIFO order, wildcard source/tag receives, and
//!   **no FIFO guarantee across different signatures** (an optional
//!   reordering model makes cross-signature reordering actually happen);
//! * non-blocking receives with request objects, `test`/`wait`/`wait_any`
//!   and posted-receive matching order (sends are buffered and complete at
//!   initiation, so they need no request);
//! * derived datatypes (contiguous / vector / indexed / struct) with
//!   hierarchical construction and pack/unpack of non-contiguous buffers;
//! * collective operations (barrier, bcast, gather(v), scatter(v),
//!   allgather, alltoall(v), reduce, allreduce, scan) that, like MPI's, do
//!   **not** synchronize participants (other than barrier);
//! * a virtual-time network model (latency/bandwidth/per-message CPU cost)
//!   with presets for the paper's evaluation platforms.
//!
//! The crate is deliberately independent of the checkpointing protocol: it
//! knows nothing about epochs, recovery lines, or logging. The `c3` crate
//! layers the paper's protocol on top of this API without modifying it, just
//! as the paper's co-ordination layer wraps an unmodified MPI library.

pub mod collective;
mod coro;
pub mod ctx;
pub mod datatype;
pub mod envelope;
pub mod error;
pub mod mailbox;
pub mod network;
pub mod op;
pub mod payload;
pub mod pod;
pub mod request;
pub mod sched;
pub mod world;

pub use ctx::RankCtx;
pub use datatype::{
    BasicType, Datatype, DatatypeHandle, TypeTable, DT_F32, DT_F64, DT_I32, DT_I64, DT_U64, DT_U8,
};
pub use envelope::{Envelope, Signature};
pub use error::MpiError;
pub use mailbox::{Mailbox, MailboxGuard};
pub use network::{ClusterModel, NetModel, Network};
pub use op::{apply_op, ReduceOp, UserOpFn};
pub use payload::Payload;
pub use pod::{bytes_of, bytes_of_mut, copy_to_slice, vec_from_bytes, Pod};
pub use request::{ReqId, Status};
pub use sched::SchedMode;
pub use world::{launch, JobError, JobHandle, JobSpec};

/// A process index in the world communicator (`0..nranks`).
pub type Rank = usize;

/// Prefix of every poison reason produced by *deliberate* fault injection
/// (the substrate's op-clock watchdog and any protocol-layer injector). A
/// recovery driver distinguishes injected fail-stops from genuine errors by
/// this marker, never by exit codes or timing.
pub const INJECTED_FAULT_MARKER: &str = "injected fail-stop";

/// Prefix of the poison reason produced when the bounded-mailbox watchdog
/// proves a send cycle among parked ranks (`NetModel::mailbox_capacity`):
/// every rank in the cycle is blocked sending to the next rank's full
/// mailbox, so no mailbox can ever drain — or finds the job quiescent with
/// a sender still parked on credits. The job is poisoned with a
/// diagnosable reason instead of hanging.
pub const BACKPRESSURE_DEADLOCK_MARKER: &str = "BACKPRESSURE_DEADLOCK";

/// Prefix of the poison reason produced when the scheduler proves the job
/// is wedged for a reason *other* than mailbox backpressure: every live rank
/// is committed-blocked, no withheld envelope remains to flush, and no rank
/// is parked on credits — i.e. some receive waits for a message that is
/// never sent.
pub const SCHED_DEADLOCK_MARKER: &str = "SCHED_DEADLOCK";

/// A message tag. Non-negative in applications; negative values are reserved
/// for wildcards and internal use.
pub type Tag = i32;

/// Wildcard source for receive operations (`MPI_ANY_SOURCE`).
pub const ANY_SOURCE: i32 = -1;

/// Wildcard tag for receive operations (`MPI_ANY_TAG`).
pub const ANY_TAG: i32 = -2;

/// A communicator identifier. Identifiers with the high bit set are reserved
/// for internal collective traffic; [`COMM_CTRL`] is reserved for a protocol
/// layer's control messages.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CommId(pub u32);

/// The world communicator containing every rank of the job.
pub const COMM_WORLD: CommId = CommId(0);

/// Communicator reserved for out-of-band control traffic of a protocol layer
/// (the C³ co-ordination layer sends its `Checkpoint-Initiated` and recovery
/// messages here). Application code must not use it.
pub const COMM_CTRL: CommId = CommId(0x7fff_ffff);

impl CommId {
    /// The hidden communicator used for collective traffic of `self`.
    #[inline]
    pub fn collective_shadow(self) -> CommId {
        CommId(self.0 | 0x8000_0000)
    }

    /// True if this id is one of the reserved internal communicators.
    #[inline]
    pub fn is_internal(self) -> bool {
        self.0 & 0x8000_0000 != 0 || self == COMM_CTRL
    }
}

/// rustc's Fx hash (multiply-rotate) for maps with program-made integer
/// keys, which need no SipHash defence against chosen collisions.
#[derive(Default)]
pub(crate) struct FxHasher(u64);

impl std::hash::Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(i.into());
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0.rotate_left(5) ^ i).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The hasher of the substrate's `HashMap`s and `HashSet`s.
pub(crate) type Fx = std::hash::BuildHasherDefault<FxHasher>;

/// `T` alone on its own pair of 64-byte cache lines (the adjacent-line
/// prefetcher fetches pairs), so writes to a neighbour never invalidate it.
#[derive(Default)]
#[repr(align(128))]
pub(crate) struct CachePadded<T>(pub(crate) T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}
