//! Protocol-wrapped collective communication (§4.3).
//!
//! "The approach we take is... to apply the base protocol to the start and
//! end points of each individual communication stream within a collective
//! operation." Every collective below is decomposed into its *logical
//! streams* and each stream goes through `stream_send` / `stream_recv_coll`,
//! which apply the full protocol: piggyback classification, counters,
//! late-data logging, early recording, and — during recovery — replay from
//! the log and suppression of early re-sends. Because normal operation and
//! recovery use the same stream topology, ranks that have already finished
//! recovery interoperate with ranks still replaying, with no switch-over
//! protocol.
//!
//! Stream topologies (the logical data-flow of each operation):
//!
//! * `bcast`, `scatter`: root → every other rank;
//! * `gather`, `reduce`: every other rank → root;
//! * `allgather`, `allreduce`, `barrier`: a gather to local rank 0, then a
//!   bcast of the result — 2(n−1) streams per call. This is the paper's
//!   exact treatment of `MPI_Reduce` ("first send all data to the root
//!   using an independent gather and then perform the actual reduction")
//!   applied to every reduction; each hop is still one protocol-wrapped
//!   stream, so the composite inherits logging, suppression and replay;
//! * `alltoall`: all ↔ all (every pair carries distinct data);
//! * `scan`: every rank j → every rank i > j (the prefix dependency chain).
//!
//! The rooted operations are written once over a `Group` (members, wire id,
//! call number) and serve the world and derived communicators
//! ([`crate::comms`]) alike. The root folds in local-rank order, so
//! reduction results are reproducible across re-execution, which the replay
//! correctness argument requires.

use crate::api::{C3Ctx, C3Error};
use crate::comms::COMM_WORLD_HANDLE;
use crate::registries::StreamKind;
use crate::Result;
use mpisim::{fold_into, BasicType, Payload, ReduceOp, COMM_WORLD};
use statesave::codec::{Decoder, Encoder};

/// One collective instance: the communicator's members (world ranks, in
/// local-rank order), its wire id, and the instance's call number.
pub(crate) struct Group {
    pub(crate) members: Vec<usize>,
    pub(crate) wire: u32,
    pub(crate) call: u64,
}

/// Fold `parts` left to right, seeded by ownership transfer of the first.
fn fold_in_order(parts: Vec<Vec<u8>>, ty: BasicType, op: &ReduceOp) -> Result<Vec<u8>> {
    let mut parts = parts.into_iter();
    let mut acc = parts.next().expect("a gather at its root is nonempty");
    for p in parts {
        fold_into(op, &mut acc, &p, ty).map_err(C3Error::Mpi)?;
    }
    Ok(acc)
}

impl<'a> C3Ctx<'a> {
    // ------------------------------------------------------------------
    // The rooted collectives, once, over a `Group` (`root` is a world rank).
    // ------------------------------------------------------------------

    /// Root → every other member. The fan-out shares a single buffer.
    pub(crate) fn bcast_in(&mut self, g: &Group, root: usize, data: &mut Vec<u8>) -> Result<()> {
        if self.rank() != root {
            *data = self.stream_recv_coll(root, g.wire, g.call)?;
            return Ok(());
        }
        // Ownership transfer into a shared payload: no copy, one buffer for
        // all n-1 envelopes; the root's copy is restored from the same buffer
        // afterwards (in place when nothing is still in flight).
        let payload = Payload::from_vec(std::mem::take(data));
        for &dst in g.members.iter().filter(|&&m| m != root) {
            let kind = StreamKind::Coll { call: g.call };
            self.stream_send_payload(dst, g.wire, kind, payload.clone())?;
        }
        *data = payload.into_vec();
        Ok(())
    }

    /// Every other member → root; the root gets the parts in member order.
    pub(crate) fn gather_in(
        &mut self,
        g: &Group,
        root: usize,
        mine: &[u8],
    ) -> Result<Option<Vec<Vec<u8>>>> {
        if self.rank() != root {
            self.stream_send(root, g.wire, StreamKind::Coll { call: g.call }, mine)?;
            return Ok(None);
        }
        let mut out = Vec::with_capacity(g.members.len());
        for &src in &g.members {
            out.push(if src == root {
                mine.to_vec()
            } else {
                self.stream_recv_coll(src, g.wire, g.call)?
            });
        }
        Ok(Some(out))
    }

    /// Gather to the first member, which frames the parts and broadcasts
    /// them. Both phases share the call number: their streams run in
    /// opposite directions, so no signature repeats.
    pub(crate) fn allgather_in(&mut self, g: &Group, mine: &[u8]) -> Result<Vec<Vec<u8>>> {
        let root = g.members[0];
        let gathered = self.gather_in(g, root, mine)?;
        let mut framed = Encoder::new();
        gathered.iter().flatten().for_each(|p| framed.bytes(p));
        let mut framed = framed.finish();
        self.bcast_in(g, root, &mut framed)?;
        if let Some(parts) = gathered {
            return Ok(parts); // the root keeps what it gathered
        }
        let mut d = Decoder::new(&framed);
        (0..g.members.len()).map(|_| Ok(d.bytes()?)).collect()
    }

    /// Gather to the first member, which folds in member order and
    /// broadcasts the result (see [`C3Ctx::reduce`]).
    pub(crate) fn allreduce_in(
        &mut self,
        g: &Group,
        data: &[u8],
        ty: BasicType,
        op: &ReduceOp,
    ) -> Result<Vec<u8>> {
        let root = g.members[0];
        let mut acc = match self.gather_in(g, root, data)? {
            Some(parts) => fold_in_order(parts, ty, op)?,
            None => Vec::new(),
        };
        self.bcast_in(g, root, &mut acc)?;
        Ok(acc)
    }

    // ------------------------------------------------------------------
    // World-communicator operations.
    // ------------------------------------------------------------------

    /// Broadcast `data` from `root` to every rank.
    pub fn bcast(&mut self, root: usize, data: &mut Vec<u8>) -> Result<()> {
        self.bcast_on(COMM_WORLD_HANDLE, root, data)
    }

    /// Gather every rank's buffer at `root` (rank-ordered; sizes may vary).
    pub fn gather(&mut self, root: usize, mine: &[u8]) -> Result<Option<Vec<Vec<u8>>>> {
        let g = self.coll_group(COMM_WORLD_HANDLE)?;
        self.gather_in(&g, root, mine)
    }

    /// Scatter per-rank buffers from `root`.
    pub fn scatter(&mut self, root: usize, parts: Option<&[Vec<u8>]>) -> Result<Vec<u8>> {
        let call = self.comm_next_call(COMM_WORLD_HANDLE)?;
        let me = self.rank();
        let n = self.nranks();
        if me == root {
            let parts =
                parts.ok_or_else(|| C3Error::Protocol("scatter root must supply parts".into()))?;
            if parts.len() != n {
                return Err(C3Error::Protocol(format!(
                    "scatter needs {n} parts, got {}",
                    parts.len()
                )));
            }
            for (dst, part) in parts.iter().enumerate() {
                if dst != me {
                    self.stream_send(dst, COMM_WORLD.0, StreamKind::Coll { call }, part)?;
                }
            }
            Ok(parts[me].clone())
        } else {
            self.stream_recv_coll(root, COMM_WORLD.0, call)
        }
    }

    /// All-gather: every rank receives every rank's buffer (rank-ordered).
    pub fn allgather(&mut self, mine: &[u8]) -> Result<Vec<Vec<u8>>> {
        self.allgather_on(COMM_WORLD_HANDLE, mine)
    }

    /// Barrier: an all-gather of empty payloads; returns when every rank has
    /// entered.
    pub fn barrier(&mut self) -> Result<()> {
        self.barrier_on(COMM_WORLD_HANDLE)
    }

    /// All-to-all personalized exchange: `parts[i]` goes to rank `i`.
    pub fn alltoall(&mut self, parts: &[Vec<u8>]) -> Result<Vec<Vec<u8>>> {
        let n = self.nranks();
        if parts.len() != n {
            return Err(C3Error::Protocol(format!(
                "alltoall needs {n} parts, got {}",
                parts.len()
            )));
        }
        let call = self.comm_next_call(COMM_WORLD_HANDLE)?;
        let me = self.rank();
        for (dst, part) in parts.iter().enumerate() {
            if dst != me {
                self.stream_send(dst, COMM_WORLD.0, StreamKind::Coll { call }, part)?;
            }
        }
        let mut out = Vec::with_capacity(n);
        for src in 0..n {
            if src == me {
                out.push(parts[me].clone());
            } else {
                out.push(self.stream_recv_coll(src, COMM_WORLD.0, call)?);
            }
        }
        Ok(out)
    }

    /// Reduce to `root`: gather + root-side fold in rank order — the paper's
    /// own construction for `MPI_Reduce` ("we first send all data to the
    /// root node of the reduction using an independent MPI_Gather and then
    /// perform the actual reduction"), which gives the protocol the
    /// individual messages it needs for correct replay.
    pub fn reduce(
        &mut self,
        root: usize,
        data: &[u8],
        ty: BasicType,
        op: &ReduceOp,
    ) -> Result<Option<Vec<u8>>> {
        self.gather(root, data)?.map(|parts| fold_in_order(parts, ty, op)).transpose()
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
    /// in rank order. Streams follow the dependency chain (every `j < i`
    /// sends to `i`), so "any result of MPI_Scan is either stored in the log
    /// or is computed after the logging... along this dependency chain".
    pub fn scan(&mut self, data: &[u8], ty: BasicType, op: &ReduceOp) -> Result<Vec<u8>> {
        let call = self.comm_next_call(COMM_WORLD_HANDLE)?;
        let me = self.rank();
        let n = self.nranks();
        // One pooled copy, shared by reference across the fan-out.
        let payload = self.mpi.network().pool().payload_from(data);
        for dst in me + 1..n {
            self.stream_send_payload(
                dst,
                COMM_WORLD.0,
                StreamKind::Coll { call },
                payload.clone(),
            )?;
        }
        let mut acc: Option<Vec<u8>> = None;
        for src in 0..me {
            let part = self.stream_recv_coll(src, COMM_WORLD.0, call)?;
            match &mut acc {
                None => acc = Some(part),
                Some(a) => fold_into(op, a, &part, ty).map_err(C3Error::Mpi)?,
            }
        }
        match acc {
            None => Ok(data.to_vec()),
            Some(mut a) => {
                fold_into(op, &mut a, data, ty).map_err(C3Error::Mpi)?;
                Ok(a)
            }
        }
    }
}
