//! Collective operations, written once for every layer.
//!
//! Each collective is a generic function over [`Streams`], a group whose
//! members are addressed by local rank. [`RankCtx`] runs them over its
//! hidden shadow communicator; a protocol layer runs the same functions
//! over its wrapped streams. The topologies: `bcast` is a binomial tree
//! (the root sends ⌈log₂ n⌉ streams, relays forward the rest, n−1 in all);
//! `gather` and `scatter` are flat; `allgather`, `barrier` and `allreduce`
//! are a gather to rank 0 plus a bcast from it; `alltoall` runs pairwise
//! rounds; `scan` is a chain of n−1 streams.
//!
//! As in MPI, collectives match across ranks by call order on the
//! communicator and (except barrier) do not synchronize the participants.
//! Reductions gather flat and fold left to right in rank order, so results
//! are deterministic for a fixed group — a property the protocol layer's
//! replay relies on.

use crate::ctx::RankCtx;
use crate::datatype::BasicType;
use crate::error::{MpiError, Result};
use crate::op::{apply_op, ReduceOp};
use crate::payload::Payload;
use crate::{CommId, Rank, Tag};

/// The streams of one group, as the collectives see them: members are
/// addressed by local rank `0..size()`.
pub trait Streams {
    /// The layer's error type; argument errors arrive as `MpiError`.
    type Error: From<MpiError>;
    /// Number of members.
    fn size(&self) -> usize;
    /// This member's local rank.
    fn me(&self) -> usize;
    /// Start the next collective call on the group. A collective opens one
    /// call per phase (allreduce = a gather call + a bcast call), and every
    /// stream up to the next `open` belongs to it.
    fn open(&mut self) -> std::result::Result<(), Self::Error>;
    /// Send one stream of the open call to member `to`.
    fn send(&mut self, to: usize, data: Payload) -> std::result::Result<(), Self::Error>;
    /// Receive the stream of the open call from member `from`.
    fn recv(&mut self, from: usize) -> std::result::Result<Payload, Self::Error>;
}

type Out<S, T> = std::result::Result<T, <S as Streams>::Error>;

/// An argument error unless `ok`; collectives check before any stream moves.
fn check(ok: bool, msg: impl FnOnce() -> String) -> Result<()> {
    ok.then_some(()).ok_or_else(|| MpiError::InvalidArg(msg()))
}

/// Reject a root outside the group.
fn check_root(root: usize, n: usize) -> Result<()> {
    check(root < n, || format!("root {root} out of range for {n} members"))
}

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
fn fold_into(op: &ReduceOp, acc: &mut [u8], next: &[u8], ty: BasicType) -> Result<()> {
    let prev = acc.to_vec();
    acc.copy_from_slice(next);
    apply_op(op, &prev, acc, ty)
}

/// Left-to-right fold of a root's rank-ordered gather.
fn fold_in_rank_order(parts: Vec<Vec<u8>>, ty: BasicType, op: &ReduceOp) -> Result<Vec<u8>> {
    let mut parts = parts.into_iter();
    let mut acc = parts.next().expect("gather at root is nonempty");
    parts.try_for_each(|p| fold_into(op, &mut acc, &p, ty))?;
    Ok(acc)
}

/// Broadcast `data` from `root` down a binomial tree over relative ranks
/// `(me − root) mod n`: a member receives from the parent that clears its
/// lowest set bit, then relays to the children below that bit. One buffer —
/// the root's, or the payload a relay received — is shared by reference
/// across every child, so the fan-out never copies per destination.
pub fn bcast<S: Streams>(s: &mut S, root: usize, data: &mut Vec<u8>) -> Out<S, ()> {
    let (n, me) = (s.size(), s.me());
    check_root(root, n)?;
    s.open()?;
    if n == 1 {
        return Ok(());
    }
    let rel = (me + n - root) % n;
    let mut received = None;
    let mut mask = 1usize;
    while mask < n {
        if rel & mask != 0 {
            received = Some(s.recv((rel - mask + root) % n)?);
            break;
        }
        mask <<= 1;
    }
    let payload = received.unwrap_or_else(|| Payload::from_vec(std::mem::take(data)));
    mask >>= 1;
    while mask > 0 {
        if rel + mask < n {
            s.send((rel + mask + root) % n, payload.clone())?;
        }
        mask >>= 1;
    }
    *data = payload.into_vec();
    Ok(())
}

/// Gather every member's buffer at `root`. Streams go directly to the root,
/// which returns them ordered by local rank (including its own); others
/// return `None`. Buffers may have different lengths (subsumes
/// `MPI_Gatherv`).
pub fn gather<S: Streams>(s: &mut S, root: usize, mine: &[u8]) -> Out<S, Option<Vec<Vec<u8>>>> {
    let (n, me) = (s.size(), s.me());
    check_root(root, n)?;
    s.open()?;
    if me != root {
        s.send(root, Payload::from(mine))?;
        return Ok(None);
    }
    let mut out = Vec::with_capacity(n);
    for src in 0..n {
        out.push(if src == me { mine.to_vec() } else { s.recv(src)?.into_vec() });
    }
    Ok(Some(out))
}

/// Scatter per-member buffers from `root`; each member receives its part.
/// Subsumes `MPI_Scatterv`.
pub fn scatter<S: Streams>(s: &mut S, root: usize, parts: Option<&[Vec<u8>]>) -> Out<S, Vec<u8>> {
    let (n, me) = (s.size(), s.me());
    check_root(root, n)?;
    s.open()?;
    if me != root {
        return Ok(s.recv(root)?.into_vec());
    }
    let parts = parts.ok_or_else(|| MpiError::InvalidArg("root must supply parts".into()))?;
    check(parts.len() == n, || format!("scatter needs {n} parts, got {}", parts.len()))?;
    for (dst, part) in parts.iter().enumerate() {
        if dst != me {
            s.send(dst, Payload::from(part.as_slice()))?;
        }
    }
    Ok(parts[me].clone())
}

/// All-gather: every member receives every member's buffer, indexed by
/// local rank. A gather at 0, which frames the parts and broadcasts them.
pub fn allgather<S: Streams>(s: &mut S, mine: &[u8]) -> Out<S, Vec<Vec<u8>>> {
    let gathered = gather(s, 0, mine)?;
    let mut bundle = gathered.as_deref().map_or_else(Vec::new, frame);
    bcast(s, 0, &mut bundle)?;
    match gathered {
        Some(parts) => Ok(parts), // the root keeps what it gathered
        None => Ok(unframe(&bundle)?),
    }
}

/// Barrier: an empty gather at 0 followed by an empty bcast.
pub fn barrier<S: Streams>(s: &mut S) -> Out<S, ()> {
    gather(s, 0, &[])?;
    bcast(s, 0, &mut Vec::new())
}

/// All-to-all personalized exchange: `parts[i]` goes to member `i`; the
/// result is indexed by source. Subsumes `MPI_Alltoallv`.
pub fn alltoall<S: Streams>(s: &mut S, parts: &[Vec<u8>]) -> Out<S, Vec<Vec<u8>>> {
    let (n, me) = (s.size(), s.me());
    check(parts.len() == n, || format!("alltoall needs {n} parts, got {}", parts.len()))?;
    s.open()?;
    let mut out = vec![Vec::new(); n];
    out[me] = parts[me].clone();
    // Pairwise rounds; sends are buffered so send-then-recv cannot
    // deadlock.
    for k in 1..n {
        let (dst, src) = ((me + k) % n, (me + n - k) % n);
        s.send(dst, Payload::from(parts[dst].as_slice()))?;
        out[src] = s.recv(src)?.into_vec();
    }
    Ok(out)
}

/// Reduce to `root`: a gather, then a left-to-right fold in rank order at
/// the root. Returns the result at the root, `None` elsewhere.
pub fn reduce<S: Streams>(
    s: &mut S,
    root: usize,
    data: &[u8],
    ty: BasicType,
    op: &ReduceOp,
) -> Out<S, Option<Vec<u8>>> {
    let parts = gather(s, root, data)?;
    Ok(parts.map(|parts| fold_in_rank_order(parts, ty, op)).transpose()?)
}

/// All-reduce: [`reduce`] to 0, then a bcast of the result, so every member
/// holds the bit-identical rank-order fold.
pub fn allreduce<S: Streams>(
    s: &mut S,
    data: &[u8],
    ty: BasicType,
    op: &ReduceOp,
) -> Out<S, Vec<u8>> {
    let mut acc = reduce(s, 0, data, ty, op)?.unwrap_or_default();
    bcast(s, 0, &mut acc)?;
    Ok(acc)
}

/// Inclusive prefix scan with rank-order folding along the chain: member
/// `i` receives the prefix of `0..i` from `i − 1`, folds its own data in
/// and forwards the result to `i + 1`.
pub fn scan<S: Streams>(s: &mut S, data: &[u8], ty: BasicType, op: &ReduceOp) -> Out<S, Vec<u8>> {
    let (n, me) = (s.size(), s.me());
    s.open()?;
    let mut result = data.to_vec();
    if me > 0 {
        let mut acc = s.recv(me - 1)?.into_vec();
        fold_into(op, &mut acc, data, ty)?;
        result = acc;
    }
    if me + 1 < n {
        s.send(me + 1, Payload::from(result.as_slice()))?;
    }
    Ok(result)
}

/// The raw substrate's [`Streams`]: the whole job on `comm`'s hidden shadow
/// communicator, one tag per collective call.
struct Shadow<'r> {
    ctx: &'r mut RankCtx,
    comm: CommId,
    tag: Tag,
}

impl Streams for Shadow<'_> {
    type Error = MpiError;

    fn size(&self) -> usize {
        self.ctx.nranks()
    }

    fn me(&self) -> usize {
        self.ctx.rank()
    }

    /// Every collective call enters through here once, which is also where
    /// it ticks the rank's operation clock — so an op-targeted fault can
    /// land *inside* a collective, between its constituent streams, exactly
    /// as the fail-stop model permits.
    fn open(&mut self) -> Result<()> {
        self.ctx.tick_op()?;
        let c = self.ctx.coll_seq.entry(self.comm).or_insert(0);
        self.tag = (*c % (1 << 30)) as Tag;
        *c += 1;
        Ok(())
    }

    fn send(&mut self, to: usize, data: Payload) -> Result<()> {
        self.ctx.send_payload(to, self.tag, self.comm.collective_shadow(), 0, data)
    }

    fn recv(&mut self, from: usize) -> Result<Payload> {
        Ok(self.ctx.recv_payload(from as i32, self.tag, self.comm.collective_shadow())?.0)
    }
}

impl RankCtx {
    fn shadow(&mut self, comm: CommId) -> Shadow<'_> {
        Shadow { ctx: self, comm, tag: 0 }
    }

    /// Broadcast `data` from `root` (see [`bcast`]).
    pub fn bcast(&mut self, comm: CommId, root: Rank, data: &mut Vec<u8>) -> Result<()> {
        bcast(&mut self.shadow(comm), root, data)
    }

    /// Gather every rank's buffer at `root` (see [`gather`]).
    pub fn gather(
        &mut self,
        comm: CommId,
        root: Rank,
        mine: &[u8],
    ) -> Result<Option<Vec<Vec<u8>>>> {
        gather(&mut self.shadow(comm), root, mine)
    }

    /// Scatter per-rank buffers from `root` (see [`scatter`]).
    pub fn scatter(
        &mut self,
        comm: CommId,
        root: Rank,
        parts: Option<&[Vec<u8>]>,
    ) -> Result<Vec<u8>> {
        scatter(&mut self.shadow(comm), root, parts)
    }

    /// All-gather, indexed by rank (see [`allgather`]).
    pub fn allgather(&mut self, comm: CommId, mine: &[u8]) -> Result<Vec<Vec<u8>>> {
        allgather(&mut self.shadow(comm), mine)
    }

    /// Barrier (see [`barrier`]).
    pub fn barrier(&mut self, comm: CommId) -> Result<()> {
        barrier(&mut self.shadow(comm))
    }

    /// All-to-all personalized exchange (see [`alltoall`]).
    pub fn alltoall(&mut self, comm: CommId, parts: &[Vec<u8>]) -> Result<Vec<Vec<u8>>> {
        alltoall(&mut self.shadow(comm), parts)
    }

    /// Reduce to `root` in rank order (see [`reduce`]).
    pub fn reduce(
        &mut self,
        comm: CommId,
        root: Rank,
        data: &[u8],
        ty: BasicType,
        op: &ReduceOp,
    ) -> Result<Option<Vec<u8>>> {
        reduce(&mut self.shadow(comm), root, data, ty, op)
    }

    /// All-reduce in rank order (see [`allreduce`]).
    pub fn allreduce(
        &mut self,
        comm: CommId,
        data: &[u8],
        ty: BasicType,
        op: &ReduceOp,
    ) -> Result<Vec<u8>> {
        allreduce(&mut self.shadow(comm), data, ty, op)
    }

    /// Inclusive prefix scan in rank order (see [`scan`]).
    pub fn scan(
        &mut self,
        comm: CommId,
        data: &[u8],
        ty: BasicType,
        op: &ReduceOp,
    ) -> Result<Vec<u8>> {
        scan(&mut self.shadow(comm), data, ty, op)
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
