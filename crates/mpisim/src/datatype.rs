//! MPI-style derived datatypes.
//!
//! Datatypes describe (possibly non-contiguous) memory layouts. They are
//! built hierarchically — contiguous/vector/indexed/struct constructors take
//! previously committed types — exactly the structure the paper's protocol
//! layer must record and rebuild on recovery (§4.2). The substrate keeps a
//! per-rank [`TypeTable`]; the protocol layer keeps its own indirection table
//! with creation recipes on top of it.
//!
//! `pack` gathers the typed regions of a buffer into a dense byte string
//! (used both for sending and for the protocol's message logging of
//! non-contiguous payloads); `unpack` scatters a dense byte string back.

use crate::error::{MpiError, Result};
use std::collections::HashMap;

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

    /// Stable numeric id used by checkpoint encodings.
    pub fn code(self) -> u8 {
        match self {
            BasicType::U8 => 0,
            BasicType::I32 => 1,
            BasicType::I64 => 2,
            BasicType::U64 => 3,
            BasicType::F32 => 4,
            BasicType::F64 => 5,
        }
    }

    /// Inverse of [`BasicType::code`].
    pub fn from_code(c: u8) -> Option<BasicType> {
        Some(match c {
            0 => BasicType::U8,
            1 => BasicType::I32,
            2 => BasicType::I64,
            3 => BasicType::U64,
            4 => BasicType::F32,
            5 => BasicType::F64,
            _ => return None,
        })
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

/// A rank-local table of committed datatypes.
///
/// Handle values are assigned monotonically and never reused, so a restored
/// protocol layer can rebuild the table with identical handles.
#[derive(Debug)]
pub struct TypeTable {
    entries: HashMap<u32, Datatype>,
    /// Handles freed by the user. As in MPI, a committed type is
    /// self-contained: freeing a child must not break parents built from it,
    /// so definitions are retained internally; only the *handle* becomes
    /// invalid for user operations.
    freed: std::collections::HashSet<u32>,
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
        let mut entries = HashMap::new();
        entries.insert(DT_U8.0, Datatype::Basic(BasicType::U8));
        entries.insert(DT_I32.0, Datatype::Basic(BasicType::I32));
        entries.insert(DT_I64.0, Datatype::Basic(BasicType::I64));
        entries.insert(DT_U64.0, Datatype::Basic(BasicType::U64));
        entries.insert(DT_F32.0, Datatype::Basic(BasicType::F32));
        entries.insert(DT_F64.0, Datatype::Basic(BasicType::F64));
        TypeTable { entries, freed: std::collections::HashSet::new(), next: NUM_BASIC }
    }

    /// Commit a new datatype, returning its handle.
    pub fn commit(&mut self, dt: Datatype) -> Result<DatatypeHandle> {
        self.validate(&dt)?;
        let h = DatatypeHandle(self.next);
        self.next += 1;
        self.entries.insert(h.0, dt);
        Ok(h)
    }

    /// Commit a datatype at a *specific* handle value. Used by the protocol
    /// layer on recovery so that restored handles match the original run.
    pub fn commit_at(&mut self, h: DatatypeHandle, dt: Datatype) -> Result<()> {
        self.validate(&dt)?;
        if self.entries.contains_key(&h.0) && !self.freed.contains(&h.0) {
            return Err(MpiError::InvalidArg(format!("handle {h:?} already committed")));
        }
        self.freed.remove(&h.0);
        self.entries.insert(h.0, dt);
        self.next = self.next.max(h.0 + 1);
        Ok(())
    }

    /// Free a datatype. Basic types cannot be freed. Note that, as in MPI,
    /// freeing a parent type that other committed types reference is the
    /// caller's responsibility to avoid; the protocol layer's indirection
    /// table tracks dependents (§4.2) and only frees when safe.
    pub fn free(&mut self, h: DatatypeHandle) -> Result<()> {
        if h.0 < NUM_BASIC {
            return Err(MpiError::InvalidArg("cannot free a basic datatype".into()));
        }
        if !self.entries.contains_key(&h.0) || self.freed.contains(&h.0) {
            return Err(MpiError::InvalidArg(format!("unknown datatype handle {h:?}")));
        }
        self.freed.insert(h.0);
        Ok(())
    }

    /// Look up a handle. Freed handles are invalid for user operations even
    /// though their definitions are retained internally.
    pub fn get(&self, h: DatatypeHandle) -> Result<&Datatype> {
        if self.freed.contains(&h.0) {
            return Err(MpiError::InvalidArg(format!("datatype handle {h:?} was freed")));
        }
        self.entries
            .get(&h.0)
            .ok_or_else(|| MpiError::InvalidArg(format!("unknown datatype handle {h:?}")))
    }

    /// Internal lookup that resolves retained definitions of freed handles
    /// (layout resolution for types built from since-freed children).
    fn get_internal(&self, h: DatatypeHandle) -> Result<&Datatype> {
        self.entries
            .get(&h.0)
            .ok_or_else(|| MpiError::InvalidArg(format!("unknown datatype handle {h:?}")))
    }

    /// Number of committed (non-freed) entries, including the basics.
    pub fn len(&self) -> usize {
        self.entries.len() - self.freed.len()
    }

    /// True if only the basic types are committed.
    pub fn is_empty(&self) -> bool {
        self.len() == NUM_BASIC as usize
    }

    fn validate(&self, dt: &Datatype) -> Result<()> {
        let check = |h: &DatatypeHandle| -> Result<()> {
            if self.entries.contains_key(&h.0) {
                Ok(())
            } else {
                Err(MpiError::InvalidArg(format!("child handle {h:?} not committed")))
            }
        };
        match dt {
            Datatype::Basic(_) => Ok(()),
            Datatype::Contiguous { child, .. } | Datatype::Vector { child, .. } => check(child),
            Datatype::Indexed { child, .. } => check(child),
            Datatype::Struct { fields, .. } => {
                for (_, _, c) in fields {
                    check(c)?;
                }
                Ok(())
            }
        }
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
        let extent = self.type_extent(h)?;
        for i in 0..count {
            self.pack_one(buf, i * extent, h, &mut out)?;
        }
        Ok(out)
    }

    fn pack_one(
        &self,
        buf: &[u8],
        base: usize,
        h: DatatypeHandle,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        match self.get_internal(h)?.clone() {
            Datatype::Basic(b) => {
                let end = base + b.size();
                if end > buf.len() {
                    return Err(MpiError::Truncated { expected: buf.len(), got: end });
                }
                out.extend_from_slice(&buf[base..end]);
            }
            Datatype::Contiguous { count, child } => {
                let ce = self.type_extent(child)?;
                for i in 0..count {
                    self.pack_one(buf, base + i * ce, child, out)?;
                }
            }
            Datatype::Vector { count, blocklen, stride, child } => {
                let ce = self.type_extent(child)?;
                for blk in 0..count {
                    for j in 0..blocklen {
                        self.pack_one(buf, base + (blk * stride + j) * ce, child, out)?;
                    }
                }
            }
            Datatype::Indexed { blocks, child } => {
                let ce = self.type_extent(child)?;
                for (disp, blocklen) in blocks {
                    for j in 0..blocklen {
                        self.pack_one(buf, base + (disp + j) * ce, child, out)?;
                    }
                }
            }
            Datatype::Struct { fields, .. } => {
                for (off, count, child) in fields {
                    let ce = self.type_extent(child)?;
                    for j in 0..count {
                        self.pack_one(buf, base + off + j * ce, child, out)?;
                    }
                }
            }
        }
        Ok(())
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
        let extent = self.type_extent(h)?;
        let mut pos = 0usize;
        for i in 0..count {
            self.unpack_one(packed, &mut pos, buf, i * extent, h)?;
        }
        Ok(())
    }

    fn unpack_one(
        &self,
        packed: &[u8],
        pos: &mut usize,
        buf: &mut [u8],
        base: usize,
        h: DatatypeHandle,
    ) -> Result<()> {
        match self.get_internal(h)?.clone() {
            Datatype::Basic(b) => {
                let sz = b.size();
                let end = base + sz;
                if end > buf.len() {
                    return Err(MpiError::Truncated { expected: buf.len(), got: end });
                }
                buf[base..end].copy_from_slice(&packed[*pos..*pos + sz]);
                *pos += sz;
            }
            Datatype::Contiguous { count, child } => {
                let ce = self.type_extent(child)?;
                for i in 0..count {
                    self.unpack_one(packed, pos, buf, base + i * ce, child)?;
                }
            }
            Datatype::Vector { count, blocklen, stride, child } => {
                let ce = self.type_extent(child)?;
                for blk in 0..count {
                    for j in 0..blocklen {
                        self.unpack_one(packed, pos, buf, base + (blk * stride + j) * ce, child)?;
                    }
                }
            }
            Datatype::Indexed { blocks, child } => {
                let ce = self.type_extent(child)?;
                for (disp, blocklen) in blocks {
                    for j in 0..blocklen {
                        self.unpack_one(packed, pos, buf, base + (disp + j) * ce, child)?;
                    }
                }
            }
            Datatype::Struct { fields, .. } => {
                for (off, count, child) in fields {
                    let ce = self.type_extent(child)?;
                    for j in 0..count {
                        self.unpack_one(packed, pos, buf, base + off + j * ce, child)?;
                    }
                }
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
        assert!(t.free(DT_U8).is_err());
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
