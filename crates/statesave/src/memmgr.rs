//! A checkpointable heap with stable object identifiers.
//!
//! C³ provides its own memory manager so that, on restart, dynamically
//! allocated objects can be restored "to their original addresses, otherwise
//! pointers would no longer be correct" (§5). In safe Rust the analogue of a
//! stable address is a stable *object id*: applications allocate through
//! [`CkptHeap`], keep [`ObjId`]s in their state, and after a restore the same
//! ids refer to the same (restored) objects.
//!
//! The heap also tracks its *arena high-water mark* — the total footprint
//! including freed-but-not-returned blocks. A system-level checkpointer must
//! dump that whole image; an application-level checkpointer saves "only live
//! data (memory that has not been freed by the programmer)" (§6.1). The gap
//! between the two is exactly what the paper's Table 1 measures.

use crate::codec::{CodecError, Decoder, Encoder};
use std::collections::BTreeMap;

/// Stable identifier of a heap object (the address stand-in).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ObjId(pub u64);

impl crate::codec::Saveable for ObjId {
    fn save(&self, e: &mut Encoder) {
        e.u64(self.0);
    }
    fn load(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(ObjId(d.u64()?))
    }
}

/// A heap whose live contents can be checkpointed and rebuilt.
#[derive(Default, Debug)]
pub struct CkptHeap {
    objects: BTreeMap<u64, Vec<u8>>,
    next: u64,
    live_bytes: usize,
    /// Peak of `live_bytes + freed_not_reused` — the simulated process-image
    /// footprint a system-level checkpointer would dump.
    arena_high_water: usize,
    /// Bytes freed whose arena space has not been reused (C-malloc style
    /// arenas rarely return memory to the OS).
    freed_unreclaimed: usize,
}

impl CkptHeap {
    /// Empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a zeroed object of `size` bytes.
    pub fn alloc(&mut self, size: usize) -> ObjId {
        self.alloc_init(vec![0u8; size])
    }

    /// Allocate an object with initial contents.
    pub fn alloc_init(&mut self, bytes: Vec<u8>) -> ObjId {
        let id = ObjId(self.next);
        self.next += 1;
        self.live_bytes += bytes.len();
        // Reuse "arena space" from freed blocks first, growing the arena
        // only for the remainder — a first-fit arena abstraction.
        let reused = self.freed_unreclaimed.min(bytes.len());
        self.freed_unreclaimed -= reused;
        self.arena_high_water = self.arena_high_water.max(self.live_bytes + self.freed_unreclaimed);
        self.objects.insert(id.0, bytes);
        id
    }

    /// Free an object. The arena space is retained (not returned to the OS),
    /// as in a C allocator; only a future allocation can reuse it.
    pub fn free(&mut self, id: ObjId) -> bool {
        match self.objects.remove(&id.0) {
            Some(b) => {
                self.live_bytes -= b.len();
                self.freed_unreclaimed += b.len();
                true
            }
            None => false,
        }
    }

    /// Borrow an object's bytes.
    pub fn get(&self, id: ObjId) -> Option<&[u8]> {
        self.objects.get(&id.0).map(|v| v.as_slice())
    }

    /// Mutably borrow an object's bytes.
    pub fn get_mut(&mut self, id: ObjId) -> Option<&mut Vec<u8>> {
        self.objects.get_mut(&id.0)
    }

    /// Number of live objects.
    pub fn live_objects(&self) -> usize {
        self.objects.len()
    }

    /// Total bytes of live objects — what an ALC checkpoint saves.
    pub fn live_bytes(&self) -> usize {
        self.live_bytes
    }

    /// Simulated process-image footprint — what an SLC checkpoint dumps
    /// (live + freed-but-unreclaimed arena space, at its peak).
    pub fn image_bytes(&self) -> usize {
        self.arena_high_water
    }

    /// Checkpoint: save only live objects with their ids.
    pub fn save(&self, e: &mut Encoder) {
        e.u64(self.next);
        e.u64(self.arena_high_water as u64);
        e.u64(self.freed_unreclaimed as u64);
        e.u64(self.objects.len() as u64);
        for (id, bytes) in &self.objects {
            e.u64(*id);
            e.bytes(bytes);
        }
    }

    /// Restore: rebuild the heap so the same [`ObjId`]s are valid again.
    pub fn load(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let next = d.u64()?;
        let arena_high_water = d.u64()? as usize;
        let freed_unreclaimed = d.u64()? as usize;
        let n = d.u64()? as usize;
        let mut objects = BTreeMap::new();
        let mut live_bytes = 0usize;
        for _ in 0..n {
            let id = d.u64()?;
            let bytes = d.bytes()?;
            live_bytes += bytes.len();
            objects.insert(id, bytes);
        }
        Ok(CkptHeap { objects, next, live_bytes, arena_high_water, freed_unreclaimed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_accounting() {
        let mut h = CkptHeap::new();
        let a = h.alloc(100);
        let b = h.alloc(50);
        assert_eq!(h.live_bytes(), 150);
        assert_eq!(h.image_bytes(), 150);
        assert!(h.free(a));
        assert_eq!(h.live_bytes(), 50);
        // Freed space stays in the image.
        assert_eq!(h.image_bytes(), 150);
        // New allocation reuses freed arena space: image does not grow.
        let _c = h.alloc(80);
        assert_eq!(h.live_bytes(), 130);
        assert_eq!(h.image_bytes(), 150);
        // Growing past reuse extends the image.
        let _d = h.alloc(200);
        assert!(h.image_bytes() >= 330);
        // b is still live: freeing it succeeds exactly once.
        assert!(h.free(b));
        assert!(!h.free(b), "double free must be rejected");
    }

    #[test]
    fn stable_ids_across_save_restore() {
        let mut h = CkptHeap::new();
        let a = h.alloc_init(vec![1, 2, 3]);
        let b = h.alloc_init(vec![9; 8]);
        h.free(a);
        let mut e = Encoder::new();
        h.save(&mut e);
        let buf = e.finish();
        let mut h2 = CkptHeap::load(&mut Decoder::new(&buf)).unwrap();
        assert_eq!(h2.get(b).unwrap(), &[9; 8][..]);
        assert!(h2.get(a).is_none());
        assert_eq!(h2.live_bytes(), h.live_bytes());
        assert_eq!(h2.image_bytes(), h.image_bytes());
        // Fresh allocations never collide with restored ids.
        let c = h2.alloc(4);
        assert!(c.0 > b.0);
    }

    #[test]
    fn double_free_is_harmless() {
        let mut h = CkptHeap::new();
        let a = h.alloc(10);
        assert!(h.free(a));
        assert!(!h.free(a));
        assert_eq!(h.live_bytes(), 0);
    }

    #[test]
    fn ep_shape_live_much_smaller_than_image() {
        // The EP benchmark shape from Table 1: lots of transient allocation,
        // tiny live state at checkpoint time -> ALC checkpoint much smaller
        // than the SLC image.
        let mut h = CkptHeap::new();
        for _ in 0..100 {
            let t = h.alloc(10_000);
            h.free(t);
        }
        let keep = h.alloc_init(vec![7; 128]);
        assert_eq!(h.live_bytes(), 128);
        assert!(h.image_bytes() >= 10_000);
        assert!(h.get(keep).is_some());
    }
}
