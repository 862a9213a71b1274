//! Protocol-wrapped collective communication (§4.3).
//!
//! "The approach we take is... to apply the base protocol to the start and
//! end points of each individual communication stream within a collective
//! operation." The collectives — topology, fold order, framing — are
//! [`mpisim::collective`]'s, written once over its `Streams` trait. This
//! module only supplies the streams: a `Group` whose sends and receives
//! are `stream_send` / `stream_recv_coll`, which apply the full
//! protocol (piggyback classification, counters, late-data logging, early
//! recording, and in recovery replay and suppression). Since the argument
//! holds hop by hop, any topology will do: a bcast relays down a tree and
//! a scan runs along a chain. Replay is keyed by a stream's source
//! (`take_coll_match(comm, call, src)`), so a relayed hop replays like a
//! direct one. Gathers stay flat and the root folds in local-rank order —
//! the paper's construction for `MPI_Reduce` — so a re-executed reduction
//! reproduces the logged result bit for bit.

use crate::api::{C3Ctx, C3Error};
use crate::comms::{C3Comm, COMM_WORLD_HANDLE};
use crate::registries::StreamKind;
use crate::Result;
use mpisim::collective::{self, Streams};
use mpisim::{BasicType, Payload, ReduceOp};
use std::sync::Arc;

/// A communicator's members (world ranks, in local-rank order) as
/// protocol-wrapped collective streams on its wire id.
struct Group<'g, 'a> {
    ctx: &'g mut C3Ctx<'a>,
    comm: C3Comm,
    members: Arc<[usize]>,
    me: usize,
    wire: u32,
    call: u64,
}

impl Streams for Group<'_, '_> {
    type Error = C3Error;

    fn size(&self) -> usize {
        self.members.len()
    }

    fn me(&self) -> usize {
        self.me
    }

    fn open(&mut self) -> Result<()> {
        self.call = self.ctx.comm_next_call(self.comm)?;
        Ok(())
    }

    fn send(&mut self, to: usize, data: Payload) -> Result<()> {
        let kind = StreamKind::Coll { call: self.call };
        self.ctx.stream_send(self.members[to], self.wire, kind, data)
    }

    fn recv(&mut self, from: usize) -> Result<Payload> {
        self.ctx.stream_recv_coll(self.members[from], self.wire, self.call).map(Payload::from_vec)
    }
}

impl<'a> C3Ctx<'a> {
    /// The streams of `c` as this rank sees them (error unless a member).
    fn group(&mut self, c: C3Comm) -> Result<Group<'_, 'a>> {
        let members = self.comm_members(c)?;
        let wire = self.comm_entry(c)?.wire;
        let me = members.iter().position(|&r| r == self.rank()).expect("members include me");
        Ok(Group { ctx: self, comm: c, members, me, wire, call: 0 })
    }

    /// Broadcast `data` from `root` to every rank.
    pub fn bcast(&mut self, root: usize, data: &mut Vec<u8>) -> Result<()> {
        self.bcast_on(COMM_WORLD_HANDLE, root, data)
    }

    /// Gather every rank's buffer at `root` (rank-ordered; sizes may vary).
    pub fn gather(&mut self, root: usize, mine: &[u8]) -> Result<Option<Vec<Vec<u8>>>> {
        collective::gather(&mut self.group(COMM_WORLD_HANDLE)?, root, mine)
    }

    /// Scatter per-rank buffers from `root`.
    pub fn scatter(&mut self, root: usize, parts: Option<&[Vec<u8>]>) -> Result<Vec<u8>> {
        collective::scatter(&mut self.group(COMM_WORLD_HANDLE)?, root, parts)
    }

    /// All-gather: every rank receives every rank's buffer (rank-ordered).
    pub fn allgather(&mut self, mine: &[u8]) -> Result<Vec<Vec<u8>>> {
        self.allgather_on(COMM_WORLD_HANDLE, mine)
    }

    /// Barrier: returns when every rank has entered.
    pub fn barrier(&mut self) -> Result<()> {
        self.barrier_on(COMM_WORLD_HANDLE)
    }

    /// All-to-all personalized exchange: `parts[i]` goes to rank `i`.
    pub fn alltoall(&mut self, parts: &[Vec<u8>]) -> Result<Vec<Vec<u8>>> {
        collective::alltoall(&mut self.group(COMM_WORLD_HANDLE)?, parts)
    }

    /// Reduce to `root`: gather + root-side fold in rank order — the paper's
    /// own construction for `MPI_Reduce`, which gives the protocol the
    /// individual messages it needs for correct replay.
    pub fn reduce(
        &mut self,
        root: usize,
        data: &[u8],
        ty: BasicType,
        op: &ReduceOp,
    ) -> Result<Option<Vec<u8>>> {
        collective::reduce(&mut self.group(COMM_WORLD_HANDLE)?, root, data, ty, op)
    }

    /// All-reduce: [`C3Ctx::reduce`] to rank 0, then a broadcast of the
    /// result, so every rank holds the bit-identical rank-order fold.
    pub fn allreduce(&mut self, data: &[u8], ty: BasicType, op: &ReduceOp) -> Result<Vec<u8>> {
        self.allreduce_on(COMM_WORLD_HANDLE, data, ty, op)
    }

    /// Typed all-reduce convenience for one `f64`.
    pub fn allreduce_f64(&mut self, x: f64, op: &ReduceOp) -> Result<f64> {
        let out = self.allreduce(&x.to_le_bytes(), BasicType::F64, op)?;
        Ok(f64::from_le_bytes(out[..8].try_into().unwrap()))
    }

    /// Typed all-reduce convenience for one `u64`.
    pub fn allreduce_u64(&mut self, x: u64, op: &ReduceOp) -> Result<u64> {
        let out = self.allreduce(&x.to_le_bytes(), BasicType::U64, op)?;
        Ok(u64::from_le_bytes(out[..8].try_into().unwrap()))
    }

    /// Inclusive prefix scan: rank `i` folds contributions of ranks `0..=i`
    /// in rank order. Streams follow the dependency chain, so "any result of
    /// MPI_Scan is either stored in the log or is computed after the
    /// logging... along this dependency chain".
    pub fn scan(&mut self, data: &[u8], ty: BasicType, op: &ReduceOp) -> Result<Vec<u8>> {
        collective::scan(&mut self.group(COMM_WORLD_HANDLE)?, data, ty, op)
    }

    /// All-gather over `c` (local-rank order).
    pub fn allgather_on(&mut self, c: C3Comm, mine: &[u8]) -> Result<Vec<Vec<u8>>> {
        collective::allgather(&mut self.group(c)?, mine)
    }

    /// Barrier over `c`.
    pub fn barrier_on(&mut self, c: C3Comm) -> Result<()> {
        collective::barrier(&mut self.group(c)?)
    }

    /// Broadcast over `c` from local rank `root`.
    pub fn bcast_on(&mut self, c: C3Comm, root: usize, data: &mut Vec<u8>) -> Result<()> {
        collective::bcast(&mut self.group(c)?, root, data)
    }

    /// All-reduce over `c` (fold in local-rank order).
    pub fn allreduce_on(
        &mut self,
        c: C3Comm,
        data: &[u8],
        ty: BasicType,
        op: &ReduceOp,
    ) -> Result<Vec<u8>> {
        collective::allreduce(&mut self.group(c)?, data, ty, op)
    }
}
