//! The application-facing context and configuration.
//!
//! [`C3Ctx`] is what an instrumented application sees instead of "MPI": the
//! same communication operations, plus the checkpoint pragma. The paper's
//! precompiler emits code against exactly this kind of interface; here the
//! application calls it directly.

use crate::machine::Protocol;
use crate::mode::Mode;
use crate::requests::C3ReqTable;
use mpisim::{MpiError, RankCtx};
use statesave::CkptStore;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Errors surfaced to instrumented applications.
#[derive(Debug)]
pub enum C3Error {
    /// Substrate communication error (including job abort on failure).
    Mpi(MpiError),
    /// Checkpoint I/O failed.
    Io(std::io::Error),
    /// Checkpoint (de)serialization failed.
    Codec(statesave::codec::CodecError),
    /// Protocol invariant violation — a bug, surfaced loudly.
    Protocol(String),
}

impl std::fmt::Display for C3Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            C3Error::Mpi(e) => write!(f, "{e}"),
            C3Error::Io(e) => write!(f, "checkpoint I/O: {e}"),
            C3Error::Codec(e) => write!(f, "checkpoint codec: {e}"),
            C3Error::Protocol(m) => write!(f, "protocol violation: {m}"),
        }
    }
}

impl std::error::Error for C3Error {}

impl From<MpiError> for C3Error {
    fn from(e: MpiError) -> Self {
        C3Error::Mpi(e)
    }
}

impl From<std::io::Error> for C3Error {
    fn from(e: std::io::Error) -> Self {
        C3Error::Io(e)
    }
}

impl From<statesave::codec::CodecError> for C3Error {
    fn from(e: statesave::codec::CodecError) -> Self {
        C3Error::Codec(e)
    }
}

impl C3Error {
    /// Collapse into a substrate error for `mpisim::launch` closures.
    pub fn into_mpi(self) -> MpiError {
        match self {
            C3Error::Mpi(e) => e,
            other => MpiError::Internal(other.to_string()),
        }
    }
}

/// When does a process *initiate* a checkpoint at a `ccc_checkpoint` pragma?
///
/// Regardless of policy, every process also starts a checkpoint at its next
/// pragma once it learns (via a Checkpoint-Initiated message) that another
/// process has started one — that is the protocol's coordination, not the
/// policy's. A checkpoint joined that way counts for the policy: a pragma
/// the policy names forces no second checkpoint when one has started since
/// the policy's previous pragma, just as [`CkptPolicy::Timer`] measures
/// from the last checkpoint started, joined ones included.
#[derive(Clone, Debug)]
pub enum CkptPolicy {
    /// Never initiate (participate only when others initiate).
    Never,
    /// Force a checkpoint at these pragma counts (1-based).
    AtPragmas(Vec<u64>),
    /// Force every `n`-th pragma.
    EveryNth(u64),
    /// Force when this much virtual time (`RankCtx::vtime`, a pure
    /// function of the rank's call sequence and the cluster model) has
    /// passed since the last checkpoint — the paper's "timer expired"
    /// trigger, reproducible bit for bit.
    Timer(Duration),
}

/// How the recovery-line sections are written to the checkpoint store.
///
/// The paper lists base-plus-delta incremental checkpointing as ongoing
/// work (§5): "save only those data that have been modified since the last
/// checkpoint". [`CkptMode::Incremental`] implements it on the live commit
/// path via [`statesave::DirtyTracker`]: every `every_n`-th commit writes a
/// self-contained *base*, the commits between write chunk-granular deltas,
/// and a restore replays the base-plus-delta chain. Chunks are addressed by
/// (section index, chunk index); each changed chunk is compressed once, as
/// an XOR patch or by value, and an unchanged one travels as a hash
/// reference. A restore decodes every link in place into one buffer per
/// section and checks every chunk against its hash. The commit record and
/// the late-message log are unaffected — only the line sections change
/// representation, so recovery semantics are bit-for-bit identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CkptMode {
    /// Every checkpoint is self-contained: each line section is written
    /// whole, every commit.
    #[default]
    Full,
    /// A full base every `every_n` commits; the commits in between write
    /// only the state chunks that changed (plus hash references for the
    /// rest). `every_n == 1` degenerates to a base every commit.
    Incremental {
        /// Chain length: a base, then `every_n - 1` deltas, then the next
        /// base. Clamped to at least 1.
        every_n: u32,
    },
}

/// Configuration of the co-ordination layer for one job.
#[derive(Clone, Debug)]
pub struct C3Config {
    /// Root directory of the checkpoint store.
    pub store_root: PathBuf,
    /// Write checkpoint data to disk (the paper's configuration #3) or only
    /// run the protocol and discard the bytes (configuration #2).
    pub write_disk: bool,
    /// Checkpoint initiation policy.
    pub policy: CkptPolicy,
    /// If set, only this rank applies `policy` (a single initiating process;
    /// any process *may* initiate in the protocol, this just makes
    /// experiments deterministic). `None`: every rank applies the policy.
    pub initiator: Option<usize>,
    /// Full or base-plus-delta checkpoint representation.
    pub ckpt_mode: CkptMode,
}

impl C3Config {
    /// A config that never checkpoints (continuous-overhead measurements).
    pub fn passive(store_root: impl Into<PathBuf>) -> Self {
        C3Config {
            store_root: store_root.into(),
            write_disk: true,
            policy: CkptPolicy::Never,
            initiator: None,
            ckpt_mode: CkptMode::Full,
        }
    }

    /// Rank 0 initiates at the given pragma counts; data goes to disk.
    pub fn at_pragmas(store_root: impl Into<PathBuf>, pragmas: Vec<u64>) -> Self {
        C3Config {
            policy: CkptPolicy::AtPragmas(pragmas),
            initiator: Some(0),
            ..C3Config::passive(store_root)
        }
    }

    /// Disable disk writes (configuration #2).
    pub fn no_disk(mut self) -> Self {
        self.write_disk = false;
        self
    }

    /// Select the checkpoint representation ([`CkptMode`]).
    pub fn ckpt_mode(mut self, m: CkptMode) -> Self {
        self.ckpt_mode = m;
        self
    }
}

/// Aggregate protocol statistics, reported by the benchmark harness.
#[derive(Clone, Debug, Default)]
pub struct C3Stats {
    /// Application messages sent (piggybacked).
    pub msgs_sent: u64,
    /// Late messages logged (count).
    pub late_logged: u64,
    /// Late message bytes logged.
    pub late_bytes: u64,
    /// Intra-epoch wild-card signatures logged during NonDet-Log.
    pub wildcard_sigs_logged: u64,
    /// Early messages recorded.
    pub early_recorded: u64,
    /// Sends suppressed during recovery.
    pub suppressed_sends: u64,
    /// Checkpoint-Initiated control messages sent.
    pub ci_sent: u64,
    /// Checkpoints started.
    pub ckpts_started: u64,
    /// Checkpoints committed.
    pub ckpts_committed: u64,
    /// Bytes written for checkpoints (app+mpi+tables+early at the line,
    /// late log at commit). Under [`CkptMode::Incremental`] this counts the
    /// delta representation actually written, so it reflects the saving.
    pub ckpt_bytes_written: u64,
    /// Bytes written for *recovery-line state* only (the five line
    /// sections, or their delta representation in incremental mode). This
    /// is [`C3Stats::ckpt_bytes_written`] minus the commit-time late log,
    /// which is identical across [`CkptMode`]s — the number that isolates
    /// what a checkpoint representation costs.
    pub ckpt_line_bytes: u64,
    /// Line sections written as self-contained bases (all checkpoints in
    /// [`CkptMode::Full`]; every `every_n`-th in incremental mode).
    pub ckpt_bases: u64,
    /// Line sections written as chunk-granular deltas (incremental mode
    /// only).
    pub ckpt_deltas: u64,
    /// Receives served from the replay log during recovery.
    pub replayed_recvs: u64,
    /// Wall-clock nanoseconds from context creation to the most recent
    /// checkpoint commit (the paper's §6.5 restart-cost measurement needs
    /// "elapsed time from when the last checkpoint is finished to the
    /// end").
    pub last_commit_wall_ns: u64,
}

/// The per-rank co-ordination layer: the paper's protocol state plus the
/// state-saving substrate, wrapped around a substrate rank handle.
pub struct C3Ctx<'a> {
    /// The underlying "MPI library".
    pub(crate) mpi: &'a mut RankCtx,
    /// Job configuration.
    pub(crate) cfg: C3Config,
    /// The protocol core: epoch, mode, counters, registries and the
    /// pragma-policy bookkeeping ([`crate::machine`]).
    pub(crate) proto: Protocol,
    /// Request indirection table.
    pub(crate) reqs: C3ReqTable,
    /// Communicator indirection table (§4.4 extension).
    pub(crate) comms: crate::comms::CommTable,
    /// Checkpoint store.
    pub(crate) store: CkptStore,
    /// App state restored from a checkpoint, consumed by the app at startup.
    pub(crate) restored_app_state: Option<Vec<u8>>,
    /// Wall-clock origin: context creation (for
    /// [`C3Stats::last_commit_wall_ns`]).
    pub(crate) wall_origin: Instant,
    /// Statistics.
    pub(crate) stats: C3Stats,
    /// Incremental-checkpoint state (`Some` iff the effective mode is
    /// [`CkptMode::Incremental`]): dirty tracker + chain position.
    pub(crate) incr: Option<crate::ckpt::IncrCkpt>,
    /// This incarnation's armed fault ([`crate::failure`]), if it names this
    /// rank and has not fired.
    pub(crate) failure: Option<crate::failure::FailurePlan>,
}

impl<'a> C3Ctx<'a> {
    /// This rank.
    #[inline]
    pub fn rank(&self) -> usize {
        self.mpi.rank()
    }

    /// Number of ranks.
    #[inline]
    pub fn nranks(&self) -> usize {
        self.mpi.nranks()
    }

    /// Current epoch.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.proto.epoch()
    }

    /// Current protocol mode.
    #[inline]
    pub fn mode(&self) -> Mode {
        self.proto.mode()
    }

    /// Checkpoints committed so far in this run.
    #[inline]
    pub fn commits(&self) -> u64 {
        self.stats.ckpts_committed
    }

    /// Protocol statistics so far.
    pub fn stats(&self) -> &C3Stats {
        &self.stats
    }

    /// Direct access to the substrate (virtual time, compute accounting,
    /// the datatype table). Every derived type committed in `types`, for
    /// example an `Indexed` or `Struct` one, is checkpointed with each line
    /// and recreated at its handle on recovery (§4.2).
    pub fn mpi(&mut self) -> &mut RankCtx {
        self.mpi
    }

    /// Advance the virtual compute clock (forwarded to the substrate).
    pub fn compute(&mut self, ns: u64) {
        self.mpi.compute(ns);
    }

    /// The state restored from the last committed checkpoint, if this run is
    /// a recovery. The application consumes this once at startup:
    ///
    /// ```ignore
    /// let mut st = match ctx.take_restored_state() {
    ///     Some(bytes) => AppState::load(&mut Decoder::new(&bytes))?,
    ///     None => AppState::fresh(),
    /// };
    /// ```
    pub fn take_restored_state(&mut self) -> Option<Vec<u8>> {
        self.restored_app_state.take()
    }
}
