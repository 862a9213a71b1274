//! Communicators and groups (§4.4).
//!
//! The paper lists this as the extension "currently under development":
//!
//! > "Similarly to datatypes, any creation or deletion has to be recorded
//! >  and stored as part of the checkpoint. On recovery, we read this
//! >  information and replay the necessary MPI calls to recreate the
//! >  respective structures."
//!
//! Here the creating call's outcome is what is recorded: a communicator
//! indirection table holds, per handle, the member list in local-rank
//! order, the wire identifier used for message matching, and the
//! communicator's own deterministic collective-call counter. The table is
//! saved with every recovery line and reloaded on restart, which rebuilds
//! every communicator from its membership without replaying the split or
//! dup; nothing else is needed because the substrate's communicators are
//! pure identifiers.
//!
//! Point-to-point traffic on a derived communicator goes through the same
//! `stream_send`/`stream_recv_p2p` protocol paths as world traffic (the
//! registries key streams by communicator id), and collectives decompose
//! into per-stream sends/receives exactly as in [`crate::collectives`] — so
//! late/early classification, logging, replay, and suppression all work on
//! derived communicators with no additional protocol machinery.

use crate::api::{C3Ctx, C3Error};
use crate::registries::StreamKind;
use crate::Result;
use mpisim::Status;
use statesave::codec::{CodecError, Decoder, Encoder};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A communicator handle (index into the indirection table). Handle 0 is
/// always the world communicator.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct C3Comm(pub u64);

/// The world communicator handle.
pub const COMM_WORLD_HANDLE: C3Comm = C3Comm(0);

/// One communicator table entry.
#[derive(Clone, Debug)]
pub struct CommEntry {
    /// World ranks of the members, in local-rank order; `None` when this
    /// rank is not a member (it keeps the entry so handle numbering stays
    /// aligned across ranks). Shared, so a collective's view of the group
    /// costs a reference count, not a copy.
    pub members: Option<Arc<[usize]>>,
    /// Wire communicator id used for matching.
    pub wire: u32,
    /// Deterministic collective-call counter for this communicator.
    pub coll_calls: u64,
    /// Children created from this communicator so far (wire derivation).
    pub children: u64,
    /// Freed with `comm_free` (the entry is retained, like datatype table
    /// entries, so recovery can rebuild interior references).
    pub freed: bool,
}

/// The communicator indirection table.
#[derive(Clone, Debug)]
pub struct CommTable {
    entries: BTreeMap<u64, CommEntry>,
    next_id: u64,
}

impl CommTable {
    /// A fresh table holding only the world communicator.
    pub fn new(nranks: usize) -> Self {
        let mut entries = BTreeMap::new();
        entries.insert(
            0,
            CommEntry {
                members: Some((0..nranks).collect()),
                wire: mpisim::COMM_WORLD.0,
                coll_calls: 0,
                children: 0,
                freed: false,
            },
        );
        CommTable { entries, next_id: 1 }
    }

    /// Look up an entry.
    pub fn get(&self, c: C3Comm) -> Option<&CommEntry> {
        self.entries.get(&c.0)
    }

    fn get_mut(&mut self, c: C3Comm) -> Option<&mut CommEntry> {
        self.entries.get_mut(&c.0)
    }

    /// Number of entries (including non-member and freed placeholders).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when only the world communicator exists.
    pub fn is_empty(&self) -> bool {
        self.entries.len() <= 1
    }

    fn insert(&mut self, e: CommEntry) -> C3Comm {
        let id = self.next_id;
        self.next_id += 1;
        self.entries.insert(id, e);
        C3Comm(id)
    }

    /// Serialize for the checkpoint (`comms` section).
    pub fn save(&self, e: &mut Encoder) {
        e.u64(self.next_id);
        e.usize(self.entries.len());
        for (id, en) in &self.entries {
            e.u64(*id);
            e.bool(en.members.is_some());
            if let Some(m) = &en.members {
                e.u64_slice(&m.iter().map(|r| *r as u64).collect::<Vec<_>>());
            }
            e.u32(en.wire);
            e.u64(en.coll_calls);
            e.u64(en.children);
            e.bool(en.freed);
        }
    }

    /// Reload from a checkpoint.
    pub fn load(d: &mut Decoder<'_>) -> std::result::Result<Self, CodecError> {
        let next_id = d.u64()?;
        let n = d.usize()?;
        let mut entries = BTreeMap::new();
        for _ in 0..n {
            let id = d.u64()?;
            let members = if d.bool()? {
                Some(d.u64_vec()?.into_iter().map(|r| r as usize).collect())
            } else {
                None
            };
            entries.insert(
                id,
                CommEntry {
                    members,
                    wire: d.u32()?,
                    coll_calls: d.u64()?,
                    children: d.u64()?,
                    freed: d.bool()?,
                },
            );
        }
        Ok(CommTable { entries, next_id })
    }
}

/// Deterministic wire id for the `idx`-th communicator derived from
/// `parent_wire`. All members of the parent agree on `idx` (creation calls
/// are collective over the parent), so they derive the same wire id without
/// any global coordination; ids live in a reserved range away from the
/// world id and the internal shadows.
fn derive_wire(parent_wire: u32, idx: u64) -> u32 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in parent_wire.to_le_bytes().into_iter().chain(idx.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    // 30-bit space, offset so it can never be 0 (world) and never has the
    // shadow/control high bits set.
    0x1000_0000 | ((h as u32) & 0x0FFF_FFFF)
}

impl<'a> C3Ctx<'a> {
    /// The world communicator handle.
    pub fn comm_world(&self) -> C3Comm {
        COMM_WORLD_HANDLE
    }

    pub(crate) fn comm_entry(&self, c: C3Comm) -> Result<&CommEntry> {
        self.comms
            .get(c)
            .ok_or_else(|| C3Error::Protocol(format!("unknown communicator handle {c:?}")))
    }

    pub(crate) fn comm_members(&self, c: C3Comm) -> Result<Arc<[usize]>> {
        let e = self.comm_entry(c)?;
        if e.freed {
            return Err(C3Error::Protocol(format!("communicator {c:?} was freed")));
        }
        e.members
            .clone()
            .ok_or_else(|| C3Error::Protocol(format!("this rank is not a member of {c:?}")))
    }

    /// This rank's local rank within `c` (`None` if not a member).
    pub fn comm_rank(&self, c: C3Comm) -> Result<Option<usize>> {
        let e = self.comm_entry(c)?;
        let world = self.rank();
        Ok(e.members.as_ref().and_then(|m| m.iter().position(|r| *r == world)))
    }

    /// Number of members of `c` (error if this rank is not a member).
    pub fn comm_size(&self, c: C3Comm) -> Result<usize> {
        Ok(self.comm_members(c)?.len())
    }

    /// Take the next deterministic collective-call number on `c` from its
    /// table entry — the world communicator's too, so every world
    /// collective, whichever entry point it came through, numbers one
    /// stream space.
    pub(crate) fn comm_next_call(&mut self, c: C3Comm) -> Result<u64> {
        let e = self
            .comms
            .get_mut(c)
            .ok_or_else(|| C3Error::Protocol(format!("unknown communicator handle {c:?}")))?;
        let call = e.coll_calls;
        e.coll_calls += 1;
        Ok(call)
    }

    /// `MPI_Comm_split`: collective over `c`'s members. Ranks passing
    /// `color = None` (MPI_UNDEFINED) participate but receive `None`.
    /// Members of each color class are ordered by `(key, parent rank)`.
    pub fn comm_split(
        &mut self,
        c: C3Comm,
        color: Option<i64>,
        key: i64,
    ) -> Result<Option<C3Comm>> {
        let members = self.comm_members(c)?;

        // Exchange (color, key) across the parent (an allgather on c).
        let mut msg = Encoder::new();
        msg.save(&color);
        msg.i64(key);
        let parts = self.allgather_on(c, &msg.finish())?;
        let mut infos: Vec<(Option<i64>, i64, usize)> = Vec::with_capacity(members.len());
        for (local, bytes) in parts.iter().enumerate() {
            let mut d = Decoder::new(bytes);
            let col: Option<i64> = d.load()?;
            let k = d.i64()?;
            infos.push((col, k, local));
        }

        // Wire id from the parent's creation counter (consistent across the
        // parent's members because the exchange above is collective).
        let (parent_wire, idx) = {
            let e =
                self.comms.get_mut(c).ok_or_else(|| C3Error::Protocol("parent vanished".into()))?;
            let idx = e.children;
            e.children += 1;
            (e.wire, idx)
        };

        // Every color class becomes one communicator; this rank records the
        // entry for *its* class (or a placeholder when undefined), keeping
        // the handle counter aligned by allocating exactly one entry per
        // split call on every participant.
        let my_members = color.map(|my_color| {
            let mut class: Vec<(i64, usize)> = infos
                .iter()
                .filter(|(col, _, _)| *col == Some(my_color))
                .map(|(_, k, local)| (*k, *local))
                .collect();
            class.sort();
            class.into_iter().map(|(_, local)| members[local]).collect::<Arc<[usize]>>()
        });

        // The wire must differ per color class, or two classes would share a
        // matching space; fold the color into the derivation.
        let wire = match color {
            Some(col) => derive_wire(parent_wire, idx ^ (col as u64).wrapping_mul(0x9E37_79B9)),
            None => 0,
        };
        let handle = self.comms.insert(CommEntry {
            members: my_members.clone(),
            wire,
            coll_calls: 0,
            children: 0,
            freed: false,
        });
        Ok(my_members.map(|_| handle))
    }

    /// `MPI_Comm_dup`: a congruent communicator with a fresh matching space.
    pub fn comm_dup(&mut self, c: C3Comm) -> Result<C3Comm> {
        let members = self.comm_members(c)?;
        // Collective over c (synchronizes the children counter).
        self.barrier_on(c)?;
        let (parent_wire, idx) = {
            let e =
                self.comms.get_mut(c).ok_or_else(|| C3Error::Protocol("parent vanished".into()))?;
            let idx = e.children;
            e.children += 1;
            (e.wire, idx)
        };
        Ok(self.comms.insert(CommEntry {
            members: Some(members),
            wire: derive_wire(parent_wire, idx),
            coll_calls: 0,
            children: 0,
            freed: false,
        }))
    }

    /// `MPI_Comm_free`: the entry is retained (like datatype-table entries)
    /// so recovery can rebuild the numbering, but further use is an error.
    pub fn comm_free(&mut self, c: C3Comm) -> Result<()> {
        if c == COMM_WORLD_HANDLE {
            return Err(C3Error::Protocol("cannot free the world communicator".into()));
        }
        let e = self
            .comms
            .get_mut(c)
            .ok_or_else(|| C3Error::Protocol(format!("unknown communicator handle {c:?}")))?;
        if e.freed {
            return Err(C3Error::Protocol(format!("double free of {c:?}")));
        }
        e.freed = true;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Point-to-point on a derived communicator (local ranks).
    // ------------------------------------------------------------------

    /// Blocking send to local rank `dst` of `c`.
    pub fn send_on(&mut self, c: C3Comm, dst: usize, tag: i32, payload: &[u8]) -> Result<()> {
        let members = self.comm_members(c)?;
        let wire = self.comm_entry(c)?.wire;
        let world_dst = *members
            .get(dst)
            .ok_or_else(|| C3Error::Protocol(format!("no local rank {dst} in {c:?}")))?;
        self.stream_send(world_dst, wire, StreamKind::P2p { tag }, payload.into())
    }

    /// Blocking receive from local rank `src` of `c` (wildcards allowed).
    /// The returned status's `src` is the *local* rank.
    pub fn recv_on(&mut self, c: C3Comm, src: i32, tag: i32) -> Result<(Vec<u8>, Status)> {
        let members = self.comm_members(c)?;
        let wire = self.comm_entry(c)?.wire;
        let world_src = if src == mpisim::ANY_SOURCE {
            mpisim::ANY_SOURCE
        } else {
            *members
                .get(src as usize)
                .ok_or_else(|| C3Error::Protocol(format!("no local rank {src} in {c:?}")))?
                as i32
        };
        let (bytes, mut st) = self.stream_recv_p2p(world_src, tag, wire)?;
        st.src = members
            .iter()
            .position(|r| *r == st.src)
            .ok_or_else(|| C3Error::Protocol("message from non-member".into()))?;
        Ok((bytes, st))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrips_through_codec() {
        let mut t = CommTable::new(4);
        t.insert(CommEntry {
            members: Some(Arc::from([1, 3])),
            wire: 0x1234_5678 & 0x1FFF_FFFF,
            coll_calls: 7,
            children: 2,
            freed: false,
        });
        t.insert(CommEntry {
            members: None,
            wire: 0x1000_0001,
            coll_calls: 0,
            children: 0,
            freed: true,
        });
        let mut e = Encoder::new();
        t.save(&mut e);
        let buf = e.finish();
        let back = CommTable::load(&mut Decoder::new(&buf)).unwrap();
        assert_eq!(back.len(), t.len());
        assert_eq!(back.get(C3Comm(1)).unwrap().members.as_deref(), Some(&[1, 3][..]));
        assert_eq!(back.get(C3Comm(1)).unwrap().coll_calls, 7);
        assert!(back.get(C3Comm(2)).unwrap().freed);
    }

    #[test]
    fn derived_wires_avoid_reserved_ranges() {
        for parent in [0u32, 0x1000_0000, 0x1FFF_FFFF] {
            for idx in 0..64 {
                let w = derive_wire(parent, idx);
                assert_ne!(w, 0);
                assert_eq!(w & 0x8000_0000, 0, "shadow bit set");
                assert_ne!(w, mpisim::COMM_CTRL.0);
            }
        }
    }

    #[test]
    fn derived_wires_differ_for_siblings() {
        let a = derive_wire(0, 0);
        let b = derive_wire(0, 1);
        let c = derive_wire(a, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }
}
