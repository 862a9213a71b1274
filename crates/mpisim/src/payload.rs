//! Zero-copy message payloads and the per-world buffer pool.
//!
//! The paper sells its protocol on *low overhead* (§6): piggybacking is
//! squeezed to 3 bits and checkpointing is application-level precisely so
//! the steady-state message path stays cheap. The substrate honors that by
//! making payload handling allocation- and copy-free on the common case:
//!
//! * [`Payload`] is a ref-counted byte buffer with an `(offset, len)` view,
//!   so cloning is a pointer bump — a broadcast to N ranks shares **one**
//!   buffer across all N envelopes instead of deep-copying per destination;
//! * [`BufferPool`] recycles send buffers per world, so steady-state sends
//!   of similar sizes stop allocating at all;
//! * ownership-transfer constructors ([`Payload::from_vec`]) let a sender
//!   hand its buffer to the substrate with **zero** copies, and
//!   [`Payload::into_vec`] gives it back to the sole receiver the same way.
//!
//! ## Ownership rules
//!
//! 1. A `Payload` is immutable once constructed; views never alias mutable
//!    data.
//! 2. `from_vec` transfers ownership (no copy). `copy_in` copies once into a
//!    pooled buffer; every subsequent `clone`/[`Payload::view`] is free.
//! 3. `into_vec` is zero-copy exactly when this handle is the last reference
//!    and covers the whole buffer; otherwise it copies its view.
//! 4. Pooled buffers return to their pool when the last `Payload` referring
//!    to them drops; the pool is bounded, so the steady state neither grows
//!    nor thrashes the allocator.
//! 5. Payload *headers* (the ref-counted backing shells) are arena-allocated
//!    too: a pool keeps a freelist of retired shells, and the zero-copy
//!    receive path ([`Payload::into_vec`]) returns the shell it vacates, so
//!    a steady-state send/recv loop performs no allocator calls at all.
//!
//! ## The process-global warm-page arena
//!
//! A `BufferPool` is per-world, but worlds can be short-lived (the benches
//! launch a fresh world per repetition) and a pool's per-class shelves are
//! shallow. Freeing a large buffer returns its pages to the kernel, so a
//! workload that cycles worlds re-faults every page of every buffer — the
//! PR 6 fan-out regression: ~16 minor faults per 64 KiB send. Overflow and
//! teardown therefore *donate* buffers to a process-global, byte-bounded
//! arena instead of freeing them, and `lease` falls back to the arena on a
//! local miss. The arena holds at most 128 MiB of buffer capacity. It
//! affects only where buffer memory comes from — never message semantics
//! or op clocks.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

/// Smallest pooled buffer capacity (shelf 0).
const MIN_SHELF_BYTES: usize = 64;
/// Number of power-of-two size classes (64 B .. 64 MiB).
const SHELVES: usize = 21;
/// Maximum buffers retained per size class.
const SHELF_DEPTH: usize = 32;
/// Maximum retired backing shells kept per pool for header reuse.
const SHELL_DEPTH: usize = 64;
/// Bound of the process-global arena, in buffer capacity bytes (128 MiB).
const ARENA_BYTES: usize = 128 << 20;

/// The process-global warm-buffer store: per-class stacks of retired
/// buffers, bounded by total capacity bytes.
struct GlobalArena {
    shelves: Vec<Mutex<Vec<Vec<u8>>>>,
    bytes: AtomicUsize,
}

fn arena() -> &'static GlobalArena {
    static ARENA: OnceLock<GlobalArena> = OnceLock::new();
    ARENA.get_or_init(|| GlobalArena {
        shelves: (0..SHELVES).map(|_| Mutex::new(Vec::new())).collect(),
        bytes: AtomicUsize::new(0),
    })
}

impl GlobalArena {
    fn take(&self, shelf: usize) -> Option<Vec<u8>> {
        let v = self.shelves[shelf].lock().unwrap_or_else(|e| e.into_inner()).pop()?;
        self.bytes.fetch_sub(v.capacity(), Ordering::Relaxed);
        Some(v)
    }

    fn put(&self, mut vec: Vec<u8>) {
        let cap = vec.capacity();
        if cap == 0 {
            return; // nothing to keep
        }
        // Reserve the bytes atomically — optimistic add, undo on overshoot —
        // so concurrent puts cannot collectively exceed the cap the way a
        // separate load-then-add would.
        if self.bytes.fetch_add(cap, Ordering::Relaxed) + cap > ARENA_BYTES {
            self.bytes.fetch_sub(cap, Ordering::Relaxed);
            return; // full: let the allocator have it
        }
        vec.clear();
        self.shelves[shelf_for(cap)].lock().unwrap_or_else(|e| e.into_inner()).push(vec);
    }
}

/// A bounded pool of reusable byte buffers, organized in power-of-two size
/// classes. One pool is shared per world (see `Network::pool`); leases are
/// cheap and thread-safe.
pub struct BufferPool {
    shelves: Vec<Mutex<Vec<Vec<u8>>>>,
    /// Retired backing shells, reused so steady-state payload construction
    /// allocates no headers (see module docs, rule 5).
    shells: Mutex<Vec<Arc<Backing>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    recycled: AtomicU64,
}

impl fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BufferPool")
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("misses", &self.misses.load(Ordering::Relaxed))
            .field("recycled", &self.recycled.load(Ordering::Relaxed))
            .finish()
    }
}

fn shelf_for(capacity: usize) -> usize {
    let c = capacity.max(MIN_SHELF_BYTES);
    let idx = (usize::BITS - (c - 1).leading_zeros()) as usize
        - MIN_SHELF_BYTES.trailing_zeros() as usize;
    idx.min(SHELVES - 1)
}

impl BufferPool {
    /// A fresh, empty pool.
    pub fn new() -> Arc<Self> {
        Arc::new(BufferPool {
            shelves: (0..SHELVES).map(|_| Mutex::new(Vec::new())).collect(),
            shells: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            recycled: AtomicU64::new(0),
        })
    }

    /// Lease an empty buffer with at least `capacity` bytes of room. The
    /// lease returns to the pool when dropped (or when the [`Payload`] it is
    /// frozen into drops its last reference).
    pub fn lease(self: &Arc<Self>, capacity: usize) -> Lease {
        let shelf = shelf_for(capacity);
        let reuse = self.shelves[shelf].lock().unwrap_or_else(|e| e.into_inner()).pop();
        let vec = match reuse {
            Some(mut v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                v.clear();
                if v.capacity() < capacity {
                    v.reserve(capacity);
                }
                v
            }
            None => {
                // Local miss: a warm buffer from the process-global arena
                // (already-faulted pages) beats a fresh allocation. Counted
                // as a miss — the *pool* missed — so per-pool stats stay
                // independent of cross-world arena state.
                self.misses.fetch_add(1, Ordering::Relaxed);
                match arena().take(shelf) {
                    Some(mut v) => {
                        if v.capacity() < capacity {
                            v.reserve(capacity);
                        }
                        v
                    }
                    None => Vec::with_capacity(capacity.max(MIN_SHELF_BYTES << shelf.min(10))),
                }
            }
        };
        Lease { vec, pool: Arc::downgrade(self) }
    }

    /// Copy `bytes` into a pooled buffer and freeze it into a payload: one
    /// copy now, free sharing afterwards.
    pub fn payload_from(self: &Arc<Self>, bytes: &[u8]) -> Payload {
        let mut lease = self.lease(bytes.len());
        lease.extend_from_slice(bytes);
        lease.freeze()
    }

    fn give_back(&self, mut vec: Vec<u8>) {
        if vec.capacity() == 0 {
            return;
        }
        let shelf = shelf_for(vec.capacity());
        {
            let mut s = self.shelves[shelf].lock().unwrap_or_else(|e| e.into_inner());
            if s.len() < SHELF_DEPTH {
                vec.clear();
                s.push(vec);
                self.recycled.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        // Shelf full: donate to the global arena instead of freeing, so a
        // burst larger than the shelf (fan-out) stays warm for the next
        // lease — even a lease by a different (later) world.
        arena().put(vec);
    }

    /// Freeze `vec` into a pool-attached payload without copying: the
    /// ownership-transfer twin of [`BufferPool::payload_from`]. The buffer
    /// returns to this pool when the last reference drops, and the header
    /// comes from the shell freelist — the steady-state `send_owned` path
    /// allocates nothing.
    pub fn payload_from_vec(self: &Arc<Self>, vec: Vec<u8>) -> Payload {
        let len = vec.len();
        Payload { buf: self.shell(vec), off: 0, len }
    }

    /// Wrap `vec` in a backing shell, reusing a retired one if available.
    fn shell(self: &Arc<Self>, vec: Vec<u8>) -> Arc<Backing> {
        let retired = self.shells.lock().unwrap_or_else(|e| e.into_inner()).pop();
        match retired {
            Some(mut shell) => {
                let b = Arc::get_mut(&mut shell).expect("freelisted shells have no other refs");
                b.vec = vec;
                b.pool = Arc::downgrade(self);
                shell
            }
            None => Arc::new(Backing { vec, pool: Arc::downgrade(self) }),
        }
    }

    /// Return a vacated backing shell (empty vec, detached pool) for reuse.
    fn reshelve(&self, shell: Arc<Backing>) {
        debug_assert!(Arc::strong_count(&shell) == 1 && shell.vec.capacity() == 0);
        let mut shells = self.shells.lock().unwrap_or_else(|e| e.into_inner());
        if shells.len() < SHELL_DEPTH {
            shells.push(shell);
        }
    }

    /// `(lease hits, lease misses, buffers recycled)` — observability for
    /// benches and tests.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.recycled.load(Ordering::Relaxed),
        )
    }

    #[cfg(test)]
    fn shell_count(&self) -> usize {
        self.shells.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

impl Drop for BufferPool {
    fn drop(&mut self) {
        // The world is going away; keep its warm buffers for the next one.
        for shelf in &self.shelves {
            let mut s = shelf.lock().unwrap_or_else(|e| e.into_inner());
            for vec in s.drain(..) {
                arena().put(vec);
            }
        }
    }
}

/// A writable buffer leased from a [`BufferPool`]. Derefs to `Vec<u8>`;
/// freeze it into an immutable [`Payload`] when filled.
pub struct Lease {
    vec: Vec<u8>,
    pool: Weak<BufferPool>,
}

impl Lease {
    /// Freeze into an immutable, shareable payload (no copy). The header
    /// comes from the pool's shell freelist when one is retired.
    pub fn freeze(mut self) -> Payload {
        let vec = std::mem::take(&mut self.vec);
        let pool = std::mem::replace(&mut self.pool, Weak::new());
        let len = vec.len();
        let buf = match pool.upgrade() {
            Some(pool) => pool.shell(vec),
            None => Arc::new(Backing { vec, pool }),
        };
        Payload { buf, off: 0, len }
    }
}

impl std::ops::Deref for Lease {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        &self.vec
    }
}

impl std::ops::DerefMut for Lease {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.vec
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.upgrade() {
            pool.give_back(std::mem::take(&mut self.vec));
        }
    }
}

/// The shared storage behind one or more [`Payload`] views.
struct Backing {
    vec: Vec<u8>,
    /// The pool this buffer returns to on drop (dangling for plain owned
    /// vectors).
    pool: Weak<BufferPool>,
}

impl Drop for Backing {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.upgrade() {
            pool.give_back(std::mem::take(&mut self.vec));
        }
    }
}

/// An immutable, cheaply clonable byte payload: a ref-counted buffer plus an
/// `(offset, len)` window. See the module docs for the ownership rules.
#[derive(Clone)]
pub struct Payload {
    buf: Arc<Backing>,
    off: usize,
    len: usize,
}

impl Payload {
    /// The empty payload (no allocation).
    pub fn empty() -> Payload {
        Payload::from_vec(Vec::new())
    }

    /// Take ownership of `vec` without copying.
    pub fn from_vec(vec: Vec<u8>) -> Payload {
        let len = vec.len();
        Payload { buf: Arc::new(Backing { vec, pool: Weak::new() }), off: 0, len }
    }

    /// This view's bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf.vec[self.off..self.off + self.len]
    }

    /// View length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A sub-view of `len` bytes starting at `start` (relative to this
    /// view). Shares the backing buffer; no copy.
    pub fn view(&self, start: usize, len: usize) -> Payload {
        assert!(start + len <= self.len, "view out of range");
        Payload { buf: Arc::clone(&self.buf), off: self.off + start, len }
    }

    /// Copy this view into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Recover an owned `Vec`. Zero-copy when this is the last reference and
    /// the view covers the whole buffer (the steady-state receive path);
    /// copies the view otherwise. The vacated header shell returns to the
    /// pool's freelist, so the zero-copy round trip frees nothing.
    pub fn into_vec(mut self) -> Vec<u8> {
        let off = self.off;
        let len = self.len;
        // Sole owner: steal the vec (detach from the pool — the caller now
        // owns the allocation).
        let stolen = Arc::get_mut(&mut self.buf).map(|backing| {
            let pool = backing.pool.upgrade();
            backing.pool = Weak::new();
            (std::mem::take(&mut backing.vec), pool)
        });
        match stolen {
            Some((mut v, pool)) => {
                if let Some(pool) = pool {
                    pool.reshelve(self.buf);
                }
                if off != 0 {
                    v.copy_within(off..off + len, 0);
                }
                v.truncate(len);
                v
            }
            None => self.buf.vec[off..off + len].to_vec(),
        }
    }

    /// Number of `Payload` handles sharing this buffer (tests/benches).
    pub fn ref_count(&self) -> usize {
        Arc::strong_count(&self.buf)
    }

    /// Address of the first byte of the backing buffer — pointer-identity
    /// assertions in zero-copy tests.
    pub fn ptr(&self) -> *const u8 {
        self.buf.vec.as_ptr()
    }
}

impl std::ops::Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload({} bytes @{}, rc {})", self.len, self.off, self.ref_count())
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Payload {}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Payload {
        Payload::from_vec(v)
    }
}

impl From<&[u8]> for Payload {
    fn from(s: &[u8]) -> Payload {
        Payload::from_vec(s.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_is_zero_copy_roundtrip() {
        let v = vec![1u8, 2, 3, 4];
        let ptr = v.as_ptr();
        let p = Payload::from_vec(v);
        assert_eq!(p.ptr(), ptr, "from_vec must not copy");
        assert_eq!(p.as_slice(), &[1, 2, 3, 4]);
        let back = p.into_vec();
        assert_eq!(back.as_ptr(), ptr, "unique into_vec must not copy");
        assert_eq!(back, vec![1, 2, 3, 4]);
    }

    #[test]
    fn clones_share_storage() {
        let p = Payload::from_vec(vec![7u8; 1024]);
        let clones: Vec<Payload> = (0..8).map(|_| p.clone()).collect();
        assert_eq!(p.ref_count(), 9);
        for c in &clones {
            assert_eq!(c.ptr(), p.ptr(), "clone must share, not copy");
        }
        drop(clones);
        assert_eq!(p.ref_count(), 1);
    }

    #[test]
    fn shared_into_vec_copies() {
        let p = Payload::from_vec(vec![5u8; 16]);
        let q = p.clone();
        let v = p.into_vec();
        assert_ne!(v.as_ptr(), q.ptr(), "shared into_vec must copy");
        assert_eq!(v, q.to_vec());
    }

    #[test]
    fn views_window_without_copy() {
        let p = Payload::from_vec((0u8..32).collect());
        let v = p.view(8, 8);
        assert_eq!(v.ptr(), p.ptr());
        assert_eq!(v.as_slice(), (8u8..16).collect::<Vec<_>>().as_slice());
        let vv = v.view(2, 3);
        assert_eq!(vv.as_slice(), &[10, 11, 12]);
        // Offset view into_vec on a unique handle compacts in place.
        drop((p, v));
        let solo = Payload::from_vec((0u8..32).collect()).view(4, 4);
        assert_eq!(solo.clone().into_vec(), vec![4, 5, 6, 7]);
    }

    #[test]
    fn pool_recycles_buffers() {
        let pool = BufferPool::new();
        let p = pool.payload_from(&[9u8; 500]);
        let ptr = p.ptr();
        drop(p); // last ref: buffer returns to the pool
        let (_, _, recycled) = pool.stats();
        assert_eq!(recycled, 1);
        let q = pool.payload_from(&[3u8; 400]);
        assert_eq!(q.ptr(), ptr, "second lease must reuse the recycled buffer");
        let (hits, misses, _) = pool.stats();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn pool_buffer_survives_while_shared() {
        let pool = BufferPool::new();
        let p = pool.payload_from(&[1u8; 100]);
        let q = p.clone();
        drop(p);
        assert_eq!(pool.stats().2, 0, "buffer must not recycle while shared");
        assert_eq!(q.as_slice(), &[1u8; 100]);
        drop(q);
        assert_eq!(pool.stats().2, 1);
    }

    #[test]
    fn into_vec_detaches_from_pool() {
        let pool = BufferPool::new();
        let p = pool.payload_from(&[2u8; 64]);
        let v = p.into_vec(); // caller takes the allocation
        assert_eq!(pool.stats().2, 0, "stolen buffer must not also recycle");
        drop(v);
        assert_eq!(pool.stats().2, 0);
    }

    #[test]
    fn arena_keeps_buffers_warm_across_pools() {
        // A size class nothing else in this test binary touches, so the
        // process-global arena interaction is deterministic.
        const BIG: usize = 3 << 20;
        let first = BufferPool::new();
        let p = first.payload_from(&vec![7u8; BIG]);
        let ptr = p.ptr();
        drop(p); // recycles into `first`'s local shelf
        drop(first); // shelf drains into the process-global arena
        let second = BufferPool::new();
        let q = second.payload_from(&vec![8u8; BIG]);
        assert_eq!(q.ptr(), ptr, "a new world must lease the retired world's warm buffer");
    }

    #[test]
    fn zero_copy_round_trip_recycles_the_header_shell() {
        let pool = BufferPool::new();
        assert_eq!(pool.shell_count(), 0);
        let src = vec![1u8; 32];
        let ptr = src.as_ptr();
        let p = pool.payload_from_vec(src);
        assert_eq!(p.ptr(), ptr, "payload_from_vec must not copy");
        let v = p.into_vec();
        assert_eq!(v.as_ptr(), ptr, "unique into_vec must not copy");
        assert_eq!(pool.shell_count(), 1, "into_vec must return the vacated shell");
        let _q = pool.payload_from_vec(v);
        assert_eq!(pool.shell_count(), 0, "the next payload must reuse the retired shell");
    }

    #[test]
    fn shelf_classes_are_sane() {
        assert_eq!(shelf_for(0), 0);
        assert_eq!(shelf_for(64), 0);
        assert_eq!(shelf_for(65), 1);
        assert_eq!(shelf_for(128), 1);
        assert!(shelf_for(usize::MAX / 2) == SHELVES - 1);
    }
}
