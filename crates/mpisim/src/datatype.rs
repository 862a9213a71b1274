//! MPI-style derived datatypes.
//!
//! Datatypes describe (possibly non-contiguous) memory layouts. They are
//! built hierarchically — contiguous/vector/indexed/struct constructors take
//! previously committed types. Each rank's [`TypeTable`] is the one record
//! of its derived types: a protocol layer checkpoints its derived entries
//! (handle, definition, freed flag) and recreates them on recovery at the
//! same handles (paper §4.2), as `MPI_Type_get_envelope`/
//! `MPI_Type_get_contents` let a layer over a real MPI read a type back.
//!
//! `pack` gathers the typed regions of a buffer into a dense byte string
//! (used both for sending and for the protocol's message logging of
//! non-contiguous payloads); `unpack` scatters a dense byte string back.

use crate::error::{MpiError, Result};
use std::collections::{BTreeMap, HashSet};

/// Primitive element types.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BasicType {
    U8,
    I32,
    I64,
    U64,
    F32,
    F64,
}

impl BasicType {
    /// Size in bytes of one element.
    #[inline]
    pub fn size(self) -> usize {
        match self {
            BasicType::U8 => 1,
            BasicType::I32 | BasicType::F32 => 4,
            BasicType::I64 | BasicType::U64 | BasicType::F64 => 8,
        }
    }
}

/// Handle to a committed datatype in a rank's [`TypeTable`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct DatatypeHandle(pub u32);

/// Predefined handle for `u8`.
pub const DT_U8: DatatypeHandle = DatatypeHandle(0);
/// Predefined handle for `i32`.
pub const DT_I32: DatatypeHandle = DatatypeHandle(1);
/// Predefined handle for `i64`.
pub const DT_I64: DatatypeHandle = DatatypeHandle(2);
/// Predefined handle for `u64`.
pub const DT_U64: DatatypeHandle = DatatypeHandle(3);
/// Predefined handle for `f32`.
pub const DT_F32: DatatypeHandle = DatatypeHandle(4);
/// Predefined handle for `f64`.
pub const DT_F64: DatatypeHandle = DatatypeHandle(5);

const NUM_BASIC: u32 = 6;

/// The structural definition of a datatype.
///
/// Child types are referenced by handle, forming the hierarchy the protocol
/// layer must preserve across checkpoints.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Datatype {
    /// A primitive element.
    Basic(BasicType),
    /// `count` consecutive copies of the child type.
    Contiguous { count: usize, child: DatatypeHandle },
    /// `count` blocks of `blocklen` child elements, block starts separated by
    /// `stride` child *extents* (like `MPI_Type_vector`).
    Vector { count: usize, blocklen: usize, stride: usize, child: DatatypeHandle },
    /// Blocks at explicit displacements measured in child extents
    /// (like `MPI_Type_indexed`): `(displacement, blocklen)` pairs.
    Indexed { blocks: Vec<(usize, usize)>, child: DatatypeHandle },
    /// Heterogeneous fields at byte offsets (like `MPI_Type_create_struct`):
    /// `(byte_offset, count, child)` triples. `extent` is the total byte
    /// extent of one element of the struct type.
    Struct { fields: Vec<(usize, usize, DatatypeHandle)>, extent: usize },
}

impl Datatype {
    /// The handles this definition is built from.
    fn children(&self) -> Vec<DatatypeHandle> {
        match self {
            Datatype::Basic(_) => Vec::new(),
            Datatype::Contiguous { child, .. }
            | Datatype::Vector { child, .. }
            | Datatype::Indexed { child, .. } => vec![*child],
            Datatype::Struct { fields, .. } => fields.iter().map(|f| f.2).collect(),
        }
    }
}

/// A committed type and whether the user has freed its handle.
#[derive(Debug)]
struct Entry {
    dt: Datatype,
    freed: bool,
}

/// A rank-local table of committed datatypes.
///
/// Handle values are assigned monotonically and never reused, so a restored
/// protocol layer can rebuild the table with identical handles.
///
/// Retention (§4.2): as in MPI, a committed type is self-contained, so
/// freeing a child must not break parents built from it. `free` invalidates
/// the handle for user operations at once but keeps the definition while a
/// retained definition references it; the last such free cascades it away.
#[derive(Debug)]
pub struct TypeTable {
    entries: BTreeMap<u32, Entry>,
    next: u32,
}

impl Default for TypeTable {
    fn default() -> Self {
        Self::new()
    }
}

impl TypeTable {
    /// Create a table pre-populated with the basic types.
    pub fn new() -> Self {
        let basics = [
            BasicType::U8,
            BasicType::I32,
            BasicType::I64,
            BasicType::U64,
            BasicType::F32,
            BasicType::F64,
        ];
        let entries = (0..)
            .zip(basics)
            .map(|(h, b)| (h, Entry { dt: Datatype::Basic(b), freed: false }))
            .collect();
        TypeTable { entries, next: NUM_BASIC }
    }

    /// Commit a new datatype, returning its handle.
    pub fn commit(&mut self, dt: Datatype) -> Result<DatatypeHandle> {
        self.validate(&dt)?;
        let h = DatatypeHandle(self.next);
        self.next += 1;
        self.entries.insert(h.0, Entry { dt, freed: false });
        Ok(h)
    }

    /// Commit a datatype at a *specific* handle value. Used by the protocol
    /// layer on recovery so that restored handles match the original run.
    pub fn commit_at(&mut self, h: DatatypeHandle, dt: Datatype) -> Result<()> {
        self.validate(&dt)?;
        if self.entries.contains_key(&h.0) {
            return Err(MpiError::InvalidArg(format!("handle {h:?} already committed")));
        }
        self.entries.insert(h.0, Entry { dt, freed: false });
        self.next = self.next.max(h.0 + 1);
        Ok(())
    }

    /// Free a datatype. Basic types cannot be freed. The definition stays
    /// while retained definitions reference it; definitions freed earlier
    /// that nothing retained references any more are dropped too.
    pub fn free(&mut self, h: DatatypeHandle) -> Result<()> {
        if h.0 < NUM_BASIC {
            return Err(MpiError::InvalidArg("cannot free a basic datatype".into()));
        }
        match self.entries.get_mut(&h.0) {
            Some(e) if !e.freed => e.freed = true,
            _ => return Err(MpiError::InvalidArg(format!("unknown datatype handle {h:?}"))),
        }
        loop {
            let referenced: HashSet<DatatypeHandle> =
                self.entries.values().flat_map(|e| e.dt.children()).collect();
            let before = self.entries.len();
            self.entries.retain(|h, e| !e.freed || referenced.contains(&DatatypeHandle(*h)));
            if self.entries.len() == before {
                return Ok(());
            }
        }
    }

    /// Look up a handle. Freed handles are invalid for user operations even
    /// though their definitions may be retained.
    pub fn get(&self, h: DatatypeHandle) -> Result<&Datatype> {
        match self.entries.get(&h.0) {
            Some(e) if e.freed => {
                Err(MpiError::InvalidArg(format!("datatype handle {h:?} was freed")))
            }
            Some(e) => Ok(&e.dt),
            None => Err(MpiError::InvalidArg(format!("unknown datatype handle {h:?}"))),
        }
    }

    /// Internal lookup that resolves retained definitions of freed handles
    /// (layout resolution for types built from since-freed children).
    fn get_internal(&self, h: DatatypeHandle) -> Result<&Datatype> {
        self.entries
            .get(&h.0)
            .map(|e| &e.dt)
            .ok_or_else(|| MpiError::InvalidArg(format!("unknown datatype handle {h:?}")))
    }

    /// Every retained derived type in ascending handle order — children
    /// before parents — as (handle, definition, freed flag): the record a
    /// protocol layer checkpoints and replays with [`TypeTable::commit_at`]
    /// then [`TypeTable::free`].
    pub fn derived(&self) -> impl Iterator<Item = (DatatypeHandle, &Datatype, bool)> {
        self.entries.range(NUM_BASIC..).map(|(h, e)| (DatatypeHandle(*h), &e.dt, e.freed))
    }

    /// Basic types are predefined; a derived type's children must be
    /// committed and not freed.
    fn validate(&self, dt: &Datatype) -> Result<()> {
        if let Datatype::Basic(_) = dt {
            return Err(MpiError::InvalidArg("basic datatypes are predefined".into()));
        }
        for c in dt.children() {
            self.get(c)?;
        }
        Ok(())
    }

    /// The number of bytes of *data* in one element of `h` (sum of all basic
    /// elements; the MPI "size").
    pub fn type_size(&self, h: DatatypeHandle) -> Result<usize> {
        Ok(match self.get_internal(h)? {
            Datatype::Basic(b) => b.size(),
            Datatype::Contiguous { count, child } => count * self.type_size(*child)?,
            Datatype::Vector { count, blocklen, child, .. } => {
                count * blocklen * self.type_size(*child)?
            }
            Datatype::Indexed { blocks, child } => {
                let cs = self.type_size(*child)?;
                blocks.iter().map(|(_, bl)| bl * cs).sum()
            }
            Datatype::Struct { fields, .. } => {
                let mut s = 0;
                for (_, count, c) in fields {
                    s += count * self.type_size(*c)?;
                }
                s
            }
        })
    }

    /// The byte extent of one element of `h` (span in the user buffer,
    /// including holes; the MPI "extent").
    pub fn type_extent(&self, h: DatatypeHandle) -> Result<usize> {
        Ok(match self.get_internal(h)? {
            Datatype::Basic(b) => b.size(),
            Datatype::Contiguous { count, child } => count * self.type_extent(*child)?,
            Datatype::Vector { count, blocklen, stride, child } => {
                let ce = self.type_extent(*child)?;
                if *count == 0 {
                    0
                } else {
                    // Span from the start of the first block to the end of
                    // the last block.
                    (count - 1) * stride * ce + blocklen * ce
                }
            }
            Datatype::Indexed { blocks, child } => {
                let ce = self.type_extent(*child)?;
                blocks.iter().map(|(d, bl)| (d + bl) * ce).max().unwrap_or(0)
            }
            Datatype::Struct { extent, .. } => *extent,
        })
    }

    /// Gather `count` elements of type `h` from `buf` into a dense byte
    /// string. Used by sends with non-contiguous layouts and by the protocol
    /// layer's message logging (§4.2: "the datatype hierarchy is recursively
    /// traversed to identify and individually store each piece").
    pub fn pack(&self, buf: &[u8], count: usize, h: DatatypeHandle) -> Result<Vec<u8>> {
        self.get(h)?;
        let mut out = Vec::with_capacity(count * self.type_size(h)?);
        self.for_each_piece(count, h, buf.len(), &mut |off, len| {
            out.extend_from_slice(&buf[off..off + len])
        })?;
        Ok(out)
    }

    /// Scatter a dense byte string produced by [`TypeTable::pack`] back into
    /// a typed buffer.
    pub fn unpack(
        &self,
        packed: &[u8],
        buf: &mut [u8],
        count: usize,
        h: DatatypeHandle,
    ) -> Result<()> {
        self.get(h)?;
        let need = count * self.type_size(h)?;
        if packed.len() != need {
            return Err(MpiError::Truncated { expected: need, got: packed.len() });
        }
        let mut pos = 0;
        let buf_len = buf.len();
        self.for_each_piece(count, h, buf_len, &mut |off, len| {
            buf[off..off + len].copy_from_slice(&packed[pos..pos + len]);
            pos += len;
        })
    }

    /// Visit the byte range `(offset, len)` of every basic element of
    /// `count` elements of `h` in a buffer of `buf_len` bytes, in pack
    /// order — the one traversal behind `pack` and `unpack`.
    fn for_each_piece(
        &self,
        count: usize,
        h: DatatypeHandle,
        buf_len: usize,
        visit: &mut impl FnMut(usize, usize),
    ) -> Result<()> {
        let extent = self.type_extent(h)?;
        for i in 0..count {
            self.walk(h, i * extent, buf_len, visit)?;
        }
        Ok(())
    }

    fn walk(
        &self,
        h: DatatypeHandle,
        base: usize,
        buf_len: usize,
        visit: &mut impl FnMut(usize, usize),
    ) -> Result<()> {
        match self.get_internal(h)? {
            Datatype::Basic(b) => {
                let end = base + b.size();
                if end > buf_len {
                    return Err(MpiError::Truncated { expected: buf_len, got: end });
                }
                visit(base, b.size());
                Ok(())
            }
            Datatype::Contiguous { count, child } => {
                self.walk_blocks(*child, base, [(0, *count)], buf_len, visit)
            }
            Datatype::Vector { count, blocklen, stride, child } => {
                let blocks = (0..*count).map(|blk| (blk * stride, *blocklen));
                self.walk_blocks(*child, base, blocks, buf_len, visit)
            }
            Datatype::Indexed { blocks, child } => {
                self.walk_blocks(*child, base, blocks.iter().copied(), buf_len, visit)
            }
            Datatype::Struct { fields, .. } => {
                for &(off, count, child) in fields {
                    self.walk_blocks(child, base + off, [(0, count)], buf_len, visit)?;
                }
                Ok(())
            }
        }
    }

    /// Walk `blocklen` consecutive `child` elements at each
    /// `(displacement, blocklen)`, displacements in child extents.
    fn walk_blocks(
        &self,
        child: DatatypeHandle,
        base: usize,
        blocks: impl IntoIterator<Item = (usize, usize)>,
        buf_len: usize,
        visit: &mut impl FnMut(usize, usize),
    ) -> Result<()> {
        let ce = self.type_extent(child)?;
        for (disp, blocklen) in blocks {
            for j in 0..blocklen {
                self.walk(child, base + (disp + j) * ce, buf_len, visit)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_sizes() {
        let t = TypeTable::new();
        assert_eq!(t.type_size(DT_F64).unwrap(), 8);
        assert_eq!(t.type_extent(DT_I32).unwrap(), 4);
    }

    #[test]
    fn contiguous_pack_roundtrip() {
        let mut t = TypeTable::new();
        let c = t.commit(Datatype::Contiguous { count: 3, child: DT_F64 }).unwrap();
        let data = [1.0f64, 2.0, 3.0, 4.0, 5.0, 6.0];
        let bytes = crate::pod::bytes_of(&data);
        let packed = t.pack(bytes, 2, c).unwrap();
        assert_eq!(packed.len(), 48);
        let mut out = vec![0u8; 48];
        t.unpack(&packed, &mut out, 2, c).unwrap();
        assert_eq!(&out[..], bytes);
    }

    #[test]
    fn vector_selects_strided_columns() {
        let mut t = TypeTable::new();
        // A 4x4 row-major matrix of f64; a "column" type: 4 blocks of 1
        // element with stride 4.
        let col =
            t.commit(Datatype::Vector { count: 4, blocklen: 1, stride: 4, child: DT_F64 }).unwrap();
        let m: Vec<f64> = (0..16).map(|x| x as f64).collect();
        let packed = t.pack(crate::pod::bytes_of(&m), 1, col).unwrap();
        let col_vals: Vec<f64> = crate::pod::vec_from_bytes(&packed);
        assert_eq!(col_vals, vec![0.0, 4.0, 8.0, 12.0]);

        // Unpack into a zeroed matrix: only the column cells are written.
        let mut out = vec![0u8; 128];
        t.unpack(&packed, &mut out, 1, col).unwrap();
        let back: Vec<f64> = crate::pod::vec_from_bytes(&out);
        assert_eq!(back[0], 0.0);
        assert_eq!(back[4], 4.0);
        assert_eq!(back[8], 8.0);
        assert_eq!(back[12], 12.0);
        assert_eq!(back[1], 0.0);
    }

    #[test]
    fn indexed_blocks() {
        let mut t = TypeTable::new();
        let ix =
            t.commit(Datatype::Indexed { blocks: vec![(0, 2), (5, 1)], child: DT_I32 }).unwrap();
        assert_eq!(t.type_size(ix).unwrap(), 12);
        assert_eq!(t.type_extent(ix).unwrap(), 24);
        let data = [10i32, 11, 12, 13, 14, 15];
        let packed = t.pack(crate::pod::bytes_of(&data), 1, ix).unwrap();
        let vals: Vec<i32> = crate::pod::vec_from_bytes(&packed);
        assert_eq!(vals, vec![10, 11, 15]);
    }

    #[test]
    fn hierarchical_struct() {
        let mut t = TypeTable::new();
        // struct { i32 a; f64 b[2]; } with manual layout: a at 0, b at 8,
        // extent 24.
        let pair = t.commit(Datatype::Contiguous { count: 2, child: DT_F64 }).unwrap();
        let st = t
            .commit(Datatype::Struct { fields: vec![(0, 1, DT_I32), (8, 1, pair)], extent: 24 })
            .unwrap();
        assert_eq!(t.type_size(st).unwrap(), 4 + 16);
        assert_eq!(t.type_extent(st).unwrap(), 24);

        let mut raw = vec![0u8; 48];
        raw[0..4].copy_from_slice(&7i32.to_le_bytes());
        raw[8..16].copy_from_slice(&1.5f64.to_le_bytes());
        raw[16..24].copy_from_slice(&2.5f64.to_le_bytes());
        raw[24..28].copy_from_slice(&9i32.to_le_bytes());
        raw[32..40].copy_from_slice(&3.5f64.to_le_bytes());
        raw[40..48].copy_from_slice(&4.5f64.to_le_bytes());

        let packed = t.pack(&raw, 2, st).unwrap();
        assert_eq!(packed.len(), 40);
        let mut out = vec![0u8; 48];
        t.unpack(&packed, &mut out, 2, st).unwrap();
        assert_eq!(out[0..4], raw[0..4]);
        assert_eq!(out[8..24], raw[8..24]);
        assert_eq!(out[24..28], raw[24..28]);
        assert_eq!(out[32..48], raw[32..48]);
    }

    #[test]
    fn free_and_reject_unknown() {
        let mut t = TypeTable::new();
        let c = t.commit(Datatype::Contiguous { count: 1, child: DT_U8 }).unwrap();
        t.free(c).unwrap();
        assert!(t.get(c).is_err());
        assert!(t.free(c).is_err());
        assert!(t.free(DT_U8).is_err());
        assert!(t.commit(Datatype::Basic(BasicType::U8)).is_err());
    }

    #[test]
    fn freed_intermediate_is_retained_then_cascades_away() {
        let mut t = TypeTable::new();
        let inner = t.commit(Datatype::Contiguous { count: 4, child: DT_F64 }).unwrap();
        let outer =
            t.commit(Datatype::Vector { count: 2, blocklen: 1, stride: 3, child: inner }).unwrap();
        assert_eq!(t.derived().count(), 2);
        // Freeing the child retains its definition (outer depends on it)
        // but invalidates the handle.
        t.free(inner).unwrap();
        assert_eq!(t.derived().count(), 2);
        assert!(t.get(inner).is_err());
        assert!(t.get(outer).is_ok());
        // The outer type still resolves and packs.
        assert_eq!(t.type_size(outer).unwrap(), 2 * 4 * 8);
        let data: Vec<f64> = (0..28).map(f64::from).collect();
        assert_eq!(t.pack(crate::pod::bytes_of(&data), 1, outer).unwrap().len(), 64);
        // Freeing the parent cascades the child away.
        t.free(outer).unwrap();
        assert_eq!(t.derived().count(), 0);
    }

    #[test]
    fn rejects_a_freed_child() {
        let mut t = TypeTable::new();
        let inner = t.commit(Datatype::Contiguous { count: 2, child: DT_F64 }).unwrap();
        let outer = t.commit(Datatype::Contiguous { count: 2, child: inner }).unwrap();
        t.free(inner).unwrap();
        // Retained for `outer`, yet not a valid child for a new type.
        assert!(t.commit(Datatype::Contiguous { count: 2, child: inner }).is_err());
        t.free(outer).unwrap();
        assert!(t.commit(Datatype::Contiguous { count: 2, child: inner }).is_err());
    }

    #[test]
    fn commit_at_restores_handles() {
        let mut t = TypeTable::new();
        let h = DatatypeHandle(42);
        t.commit_at(h, Datatype::Contiguous { count: 2, child: DT_F32 }).unwrap();
        assert_eq!(t.type_size(h).unwrap(), 8);
        // Subsequent commits do not collide.
        let h2 = t.commit(Datatype::Contiguous { count: 1, child: DT_U8 }).unwrap();
        assert!(h2.0 > 42);
    }

    #[test]
    fn rejects_uncommitted_child() {
        let mut t = TypeTable::new();
        let bogus = DatatypeHandle(999);
        assert!(t.commit(Datatype::Contiguous { count: 1, child: bogus }).is_err());
    }
}
