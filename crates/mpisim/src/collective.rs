//! Collective operations.
//!
//! As in MPI, collectives match across ranks by call order on the
//! communicator and (with the exception of barrier) do not synchronize the
//! participants. Internally they run over point-to-point messages on a
//! hidden shadow communicator, so they never interfere with application
//! matching.
//!
//! Reductions are folded in rank order, making results deterministic for a
//! fixed rank count — a property the protocol layer's replay relies on.

use crate::ctx::RankCtx;
use crate::datatype::BasicType;
use crate::error::{MpiError, Result};
use crate::op::{apply_op, ReduceOp};
use crate::{CommId, Rank, Tag};

/// Frame rank-ordered parts into one buffer: each part behind its `u32`
/// length.
fn frame(parts: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(parts.iter().map(|p| 4 + p.len()).sum());
    for p in parts {
        out.extend_from_slice(&(p.len() as u32).to_le_bytes());
        out.extend_from_slice(p);
    }
    out
}

/// Inverse of [`frame`]; a malformed buffer is an internal error.
fn unframe(mut b: &[u8]) -> Result<Vec<Vec<u8>>> {
    let bad = || MpiError::Internal("malformed allgather bundle".into());
    let mut out = Vec::new();
    while !b.is_empty() {
        let (len, rest) = b.split_first_chunk::<4>().ok_or_else(bad)?;
        let len = u32::from_le_bytes(*len) as usize;
        let (part, rest) = rest.split_at_checked(len).ok_or_else(bad)?;
        out.push(part.to_vec());
        b = rest;
    }
    Ok(out)
}

/// Fold `next` into `acc` preserving operand order: `acc = op(acc, next)`.
pub fn fold_into(op: &ReduceOp, acc: &mut [u8], next: &[u8], ty: BasicType) -> Result<()> {
    let prev = acc.to_vec();
    acc.copy_from_slice(next);
    apply_op(op, &prev, acc, ty)
}

/// Left-to-right fold of a root's rank-ordered gather.
fn fold_in_rank_order(parts: Vec<Vec<u8>>, ty: BasicType, op: &ReduceOp) -> Result<Vec<u8>> {
    let mut parts = parts.into_iter();
    let mut acc = parts.next().expect("gather at root is nonempty");
    for p in parts {
        fold_into(op, &mut acc, &p, ty)?;
    }
    Ok(acc)
}

impl RankCtx {
    /// Allocate the matching tag for the next collective call on `comm`.
    /// Every collective enters through here exactly once, which is also
    /// where the collective ticks the rank's operation clock — so an
    /// op-targeted fault can land *inside* a collective, between its
    /// constituent streams, exactly as the fail-stop model permits.
    fn coll_tag(&mut self, comm: CommId) -> Result<Tag> {
        self.tick_op()?;
        let c = self.coll_seq.entry(comm).or_insert(0);
        let t = (*c % (1 << 30)) as Tag;
        *c += 1;
        Ok(t)
    }

    /// Broadcast `data` from `root` down a binomial tree.
    pub fn bcast(&mut self, comm: CommId, root: Rank, data: &mut Vec<u8>) -> Result<()> {
        let n = self.nranks();
        let me = self.rank();
        let tag = self.coll_tag(comm)?;
        let shadow = comm.collective_shadow();
        if n == 1 {
            return Ok(());
        }
        let relrank = (me + n - root) % n;
        let mut received = None;
        // Receive phase.
        let mut mask = 1usize;
        while mask < n {
            if relrank & mask != 0 {
                let src = (relrank - mask + root) % n;
                received = Some(self.recv_payload(src as i32, tag, shadow)?.0);
                break;
            }
            mask <<= 1;
        }
        // Send phase: one buffer — the root's pooled copy, or the payload
        // this rank received — shared by reference across every child, so
        // the fan-out never copies per destination.
        let is_root = received.is_none();
        let payload = received.unwrap_or_else(|| self.network().pool().payload_from(data));
        mask >>= 1;
        while mask > 0 {
            if relrank + mask < n {
                let dst = (relrank + mask + root) % n;
                self.send_payload(dst, tag, shadow, 0, payload.clone())?;
            }
            mask >>= 1;
        }
        if !is_root {
            *data = payload.into_vec();
        }
        Ok(())
    }

    /// Gather every rank's buffer at `root`. Streams go directly to the
    /// root, which returns them ordered by source rank (including its own);
    /// non-roots return `None`. Buffers may have different lengths
    /// (subsumes `MPI_Gatherv`).
    pub fn gather(
        &mut self,
        comm: CommId,
        root: Rank,
        mine: &[u8],
    ) -> Result<Option<Vec<Vec<u8>>>> {
        let n = self.nranks();
        let me = self.rank();
        let tag = self.coll_tag(comm)?;
        let shadow = comm.collective_shadow();
        if me != root {
            self.send_bytes(root, tag, shadow, 0, mine)?;
            return Ok(None);
        }
        let mut out = Vec::with_capacity(n);
        for src in 0..n {
            out.push(if src == me {
                mine.to_vec()
            } else {
                self.recv_bytes(src as i32, tag, shadow)?.0
            });
        }
        Ok(Some(out))
    }

    /// Scatter per-rank buffers from `root`; each rank receives its part.
    /// Subsumes `MPI_Scatterv`.
    pub fn scatter(
        &mut self,
        comm: CommId,
        root: Rank,
        parts: Option<&[Vec<u8>]>,
    ) -> Result<Vec<u8>> {
        let n = self.nranks();
        let me = self.rank();
        let tag = self.coll_tag(comm)?;
        let shadow = comm.collective_shadow();
        if me != root {
            return Ok(self.recv_bytes(root as i32, tag, shadow)?.0);
        }
        let parts = parts.ok_or_else(|| MpiError::InvalidArg("root must supply parts".into()))?;
        if parts.len() != n {
            return Err(MpiError::InvalidArg(format!(
                "scatter needs {n} parts, got {}",
                parts.len()
            )));
        }
        for (dst, part) in parts.iter().enumerate() {
            if dst != me {
                self.send_bytes(dst, tag, shadow, 0, part)?;
            }
        }
        Ok(parts[me].clone())
    }

    /// All-gather: every rank receives every rank's buffer, indexed by
    /// rank. Implemented as gather-at-0 + bcast.
    pub fn allgather(&mut self, comm: CommId, mine: &[u8]) -> Result<Vec<Vec<u8>>> {
        let mut bundle = self.gather(comm, 0, mine)?.map_or_else(Vec::new, |parts| frame(&parts));
        self.bcast(comm, 0, &mut bundle)?;
        unframe(&bundle)
    }

    /// Barrier: an empty gather at 0 followed by an empty bcast.
    pub fn barrier(&mut self, comm: CommId) -> Result<()> {
        self.gather(comm, 0, &[])?;
        self.bcast(comm, 0, &mut Vec::new())
    }

    /// All-to-all personalized exchange: `parts[i]` goes to rank `i`; the
    /// result is indexed by source rank. Subsumes `MPI_Alltoallv`.
    pub fn alltoall(&mut self, comm: CommId, parts: &[Vec<u8>]) -> Result<Vec<Vec<u8>>> {
        let n = self.nranks();
        let me = self.rank();
        if parts.len() != n {
            return Err(MpiError::InvalidArg(format!(
                "alltoall needs {n} parts, got {}",
                parts.len()
            )));
        }
        let tag = self.coll_tag(comm)?;
        let shadow = comm.collective_shadow();
        let mut out = vec![Vec::new(); n];
        out[me] = parts[me].clone();
        // Pairwise rounds; sends are buffered so send-then-recv cannot
        // deadlock.
        for k in 1..n {
            let dst = (me + k) % n;
            let src = (me + n - k) % n;
            self.send_bytes(dst, tag, shadow, 0, &parts[dst])?;
            out[src] = self.recv_bytes(src as i32, tag, shadow)?.0;
        }
        Ok(out)
    }

    /// Reduce to `root` with deterministic rank-order folding. Returns the
    /// result at the root, `None` elsewhere.
    pub fn reduce(
        &mut self,
        comm: CommId,
        root: Rank,
        data: &[u8],
        ty: BasicType,
        op: &ReduceOp,
    ) -> Result<Option<Vec<u8>>> {
        self.gather(comm, root, data)?.map(|parts| fold_in_rank_order(parts, ty, op)).transpose()
    }

    /// All-reduce with deterministic rank-order folding: gather at 0, fold
    /// left to right, bcast the result.
    pub fn allreduce(
        &mut self,
        comm: CommId,
        data: &[u8],
        ty: BasicType,
        op: &ReduceOp,
    ) -> Result<Vec<u8>> {
        let mut acc = match self.gather(comm, 0, data)? {
            Some(parts) => fold_in_rank_order(parts, ty, op)?,
            None => Vec::new(),
        };
        self.bcast(comm, 0, &mut acc)?;
        Ok(acc)
    }

    /// Inclusive prefix scan with rank-order folding along the chain
    /// (rank `i` receives the prefix of ranks `0..i`).
    pub fn scan(
        &mut self,
        comm: CommId,
        data: &[u8],
        ty: BasicType,
        op: &ReduceOp,
    ) -> Result<Vec<u8>> {
        let n = self.nranks();
        let me = self.rank();
        let tag = self.coll_tag(comm)?;
        let shadow = comm.collective_shadow();
        let mut result = data.to_vec();
        if me > 0 {
            let (mut acc, _) = self.recv_bytes((me - 1) as i32, tag, shadow)?;
            fold_into(op, &mut acc, data, ty)?;
            result = acc;
        }
        if me + 1 < n {
            self.send_bytes(me + 1, tag, shadow, 0, &result)?;
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrips_and_rejects_truncation() {
        let parts = vec![vec![1u8, 2, 3], Vec::new(), vec![9]];
        let b = frame(&parts);
        assert_eq!(unframe(&b).unwrap(), parts);
        assert!(unframe(&[]).unwrap().is_empty());
        for cut in [1, 5, b.len() - 1] {
            assert!(matches!(unframe(&b[..cut]), Err(MpiError::Internal(_))), "cut at {cut}");
        }
    }
}
