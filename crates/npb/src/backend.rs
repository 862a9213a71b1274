//! The dual-backend communication trait.
//!
//! One kernel source, two compilations — the paper's methodology for its
//! overhead tables. [`Comm`] is the surface the kernels use; `mpisim`'s
//! `RankCtx` implements it directly ("Original"), `c3`'s `C3Ctx` implements
//! it through the co-ordination layer ("C³").
//!
//! On the raw backend the checkpoint pragma is a no-op and
//! `take_restored_state` always returns `None`, exactly like compiling the
//! source without the precompiler.

use mpisim::{BasicType, MpiError, RankCtx, ReduceOp, Status, COMM_WORLD};
use statesave::codec::Encoder;

/// Reduction selector for the trait's typed reductions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    /// Elementwise sum.
    Sum,
    /// Elementwise max.
    Max,
    /// Elementwise min.
    Min,
}

impl Op {
    fn to_reduce(self) -> ReduceOp {
        match self {
            Op::Sum => ReduceOp::Sum,
            Op::Max => ReduceOp::Max,
            Op::Min => ReduceOp::Min,
        }
    }
}

/// What a kernel needs from its message-passing layer.
pub trait Comm {
    /// This rank.
    fn rank(&self) -> usize;
    /// Number of ranks.
    fn nranks(&self) -> usize;

    /// Blocking send of raw bytes.
    fn send_bytes(&mut self, dst: usize, tag: i32, data: &[u8]) -> Result<(), MpiError>;
    /// Blocking receive of raw bytes (wildcards allowed).
    fn recv_bytes(&mut self, src: i32, tag: i32) -> Result<(Vec<u8>, Status), MpiError>;

    /// Blocking typed f64 send.
    fn send_f64(&mut self, dst: usize, tag: i32, data: &[f64]) -> Result<(), MpiError> {
        self.send_bytes(dst, tag, mpisim::bytes_of(data))
    }
    /// Blocking typed f64 receive.
    fn recv_f64(&mut self, src: i32, tag: i32) -> Result<Vec<f64>, MpiError> {
        let (b, _) = self.recv_bytes(src, tag)?;
        Ok(mpisim::vec_from_bytes(&b))
    }
    /// Blocking typed u64 send.
    fn send_u64(&mut self, dst: usize, tag: i32, data: &[u64]) -> Result<(), MpiError> {
        self.send_bytes(dst, tag, mpisim::bytes_of(data))
    }
    /// Blocking typed u64 receive.
    fn recv_u64(&mut self, src: i32, tag: i32) -> Result<Vec<u64>, MpiError> {
        let (b, _) = self.recv_bytes(src, tag)?;
        Ok(mpisim::vec_from_bytes(&b))
    }

    /// Scalar f64 all-reduce: the one-element vector all-reduce.
    fn allreduce_f64(&mut self, x: f64, op: Op) -> Result<f64, MpiError> {
        Ok(self.allreduce_f64_vec(&[x], op)?[0])
    }
    /// Scalar u64 all-reduce: the one-element vector all-reduce.
    fn allreduce_u64(&mut self, x: u64, op: Op) -> Result<u64, MpiError> {
        Ok(self.allreduce_u64_vec(&[x], op)?[0])
    }
    /// Vector f64 all-reduce (elementwise).
    fn allreduce_f64_vec(&mut self, xs: &[f64], op: Op) -> Result<Vec<f64>, MpiError>;
    /// Vector u64 all-reduce (elementwise).
    fn allreduce_u64_vec(&mut self, xs: &[u64], op: Op) -> Result<Vec<u64>, MpiError>;

    /// Broadcast raw bytes from `root`.
    fn bcast_bytes(&mut self, root: usize, data: &mut Vec<u8>) -> Result<(), MpiError>;
    /// Gather raw bytes at `root` (rank-ordered; `None` on non-roots).
    fn gather_bytes(&mut self, root: usize, mine: &[u8]) -> Result<Option<Vec<Vec<u8>>>, MpiError>;
    /// All-to-all personalized exchange (rank-ordered result).
    fn alltoall_bytes(&mut self, parts: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, MpiError>;
    /// Barrier.
    fn barrier(&mut self) -> Result<(), MpiError>;

    /// The `#pragma ccc checkpoint` equivalent. The closure produces the
    /// application state; it is invoked only if a checkpoint is taken.
    /// Returns whether one was.
    fn pragma(&mut self, save: &mut dyn FnMut(&mut Encoder)) -> Result<bool, MpiError>;

    /// Restored application state, consumed once at startup on a recovery
    /// run (`None` on the raw backend and on fresh runs).
    fn take_restored_state(&mut self) -> Option<Vec<u8>>;

    /// Account `ns` nanoseconds of virtual compute time (no-op cost model
    /// hook; both backends forward to the substrate's virtual clock).
    fn compute(&mut self, ns: u64);
}

impl Comm for RankCtx {
    fn rank(&self) -> usize {
        RankCtx::rank(self)
    }
    fn nranks(&self) -> usize {
        RankCtx::nranks(self)
    }
    fn send_bytes(&mut self, dst: usize, tag: i32, data: &[u8]) -> Result<(), MpiError> {
        RankCtx::send_bytes(self, dst, tag, COMM_WORLD, 0, data)
    }
    fn recv_bytes(&mut self, src: i32, tag: i32) -> Result<(Vec<u8>, Status), MpiError> {
        RankCtx::recv_bytes(self, src, tag, COMM_WORLD)
    }
    fn allreduce_f64_vec(&mut self, xs: &[f64], op: Op) -> Result<Vec<f64>, MpiError> {
        let out =
            self.allreduce(COMM_WORLD, mpisim::bytes_of(xs), BasicType::F64, &op.to_reduce())?;
        Ok(mpisim::vec_from_bytes(&out))
    }
    fn allreduce_u64_vec(&mut self, xs: &[u64], op: Op) -> Result<Vec<u64>, MpiError> {
        let out =
            self.allreduce(COMM_WORLD, mpisim::bytes_of(xs), BasicType::U64, &op.to_reduce())?;
        Ok(mpisim::vec_from_bytes(&out))
    }
    fn bcast_bytes(&mut self, root: usize, data: &mut Vec<u8>) -> Result<(), MpiError> {
        RankCtx::bcast(self, COMM_WORLD, root, data)
    }
    fn gather_bytes(&mut self, root: usize, mine: &[u8]) -> Result<Option<Vec<Vec<u8>>>, MpiError> {
        RankCtx::gather(self, COMM_WORLD, root, mine)
    }
    fn alltoall_bytes(&mut self, parts: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, MpiError> {
        RankCtx::alltoall(self, COMM_WORLD, parts)
    }
    fn barrier(&mut self) -> Result<(), MpiError> {
        RankCtx::barrier(self, COMM_WORLD)
    }
    fn pragma(&mut self, _save: &mut dyn FnMut(&mut Encoder)) -> Result<bool, MpiError> {
        Ok(false) // compiled without the precompiler: pragmas are comments
    }
    fn take_restored_state(&mut self) -> Option<Vec<u8>> {
        None
    }
    fn compute(&mut self, ns: u64) {
        RankCtx::compute(self, ns)
    }
}

impl<'a> Comm for c3::C3Ctx<'a> {
    fn rank(&self) -> usize {
        c3::C3Ctx::rank(self)
    }
    fn nranks(&self) -> usize {
        c3::C3Ctx::nranks(self)
    }
    fn send_bytes(&mut self, dst: usize, tag: i32, data: &[u8]) -> Result<(), MpiError> {
        c3::C3Ctx::send_bytes(self, dst, tag, data).map_err(|e| e.into_mpi())
    }
    fn recv_bytes(&mut self, src: i32, tag: i32) -> Result<(Vec<u8>, Status), MpiError> {
        c3::C3Ctx::recv_bytes(self, src, tag).map_err(|e| e.into_mpi())
    }
    fn allreduce_f64_vec(&mut self, xs: &[f64], op: Op) -> Result<Vec<f64>, MpiError> {
        let out = c3::C3Ctx::allreduce(self, mpisim::bytes_of(xs), BasicType::F64, &op.to_reduce())
            .map_err(|e| e.into_mpi())?;
        Ok(mpisim::vec_from_bytes(&out))
    }
    fn allreduce_u64_vec(&mut self, xs: &[u64], op: Op) -> Result<Vec<u64>, MpiError> {
        let out = c3::C3Ctx::allreduce(self, mpisim::bytes_of(xs), BasicType::U64, &op.to_reduce())
            .map_err(|e| e.into_mpi())?;
        Ok(mpisim::vec_from_bytes(&out))
    }
    fn bcast_bytes(&mut self, root: usize, data: &mut Vec<u8>) -> Result<(), MpiError> {
        c3::C3Ctx::bcast(self, root, data).map_err(|e| e.into_mpi())
    }
    fn gather_bytes(&mut self, root: usize, mine: &[u8]) -> Result<Option<Vec<Vec<u8>>>, MpiError> {
        c3::C3Ctx::gather(self, root, mine).map_err(|e| e.into_mpi())
    }
    fn alltoall_bytes(&mut self, parts: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, MpiError> {
        c3::C3Ctx::alltoall(self, parts).map_err(|e| e.into_mpi())
    }
    fn barrier(&mut self) -> Result<(), MpiError> {
        c3::C3Ctx::barrier(self).map_err(|e| e.into_mpi())
    }
    fn pragma(&mut self, save: &mut dyn FnMut(&mut Encoder)) -> Result<bool, MpiError> {
        c3::C3Ctx::pragma(self, |e| save(e)).map_err(|e| e.into_mpi())
    }
    fn take_restored_state(&mut self) -> Option<Vec<u8>> {
        c3::C3Ctx::take_restored_state(self)
    }
    fn compute(&mut self, ns: u64) {
        c3::C3Ctx::compute(self, ns)
    }
}
