//! Zero-copy message payloads.
//!
//! The paper sells its protocol on *low overhead* (§6): piggybacking is
//! squeezed to 3 bits and checkpointing is application-level precisely so
//! the steady-state message path stays cheap. The substrate honors that by
//! making payload handling copy-free on the common case:
//!
//! * [`Payload`] is a ref-counted byte buffer, so cloning is a pointer bump
//!   — a broadcast to N ranks shares **one** buffer across all N envelopes
//!   instead of deep-copying per destination;
//! * ownership-transfer constructors ([`Payload::from_vec`]) let a sender
//!   hand its buffer to the substrate with **zero** copies, and
//!   [`Payload::into_vec`] gives it back to the sole receiver the same way.
//!
//! Buffers come from and return to the system allocator; there is no pool.
//!
//! ## Ownership rules
//!
//! 1. A `Payload` is immutable once constructed.
//! 2. `from_vec` transfers ownership (no copy). `From<&[u8]>` copies once;
//!    every subsequent `clone` is free.
//! 3. `into_vec` is zero-copy exactly when this handle is the last
//!    reference; otherwise it copies the bytes.

use std::fmt;
use std::sync::Arc;

/// An immutable, cheaply clonable byte payload: a ref-counted buffer. See
/// the module docs for the ownership rules.
#[derive(Clone)]
pub struct Payload(Arc<Vec<u8>>);

impl Payload {
    /// The empty payload (no buffer allocation).
    pub fn empty() -> Payload {
        Payload::from_vec(Vec::new())
    }

    /// Take ownership of `vec` without copying.
    pub fn from_vec(vec: Vec<u8>) -> Payload {
        Payload(Arc::new(vec))
    }

    /// The payload's bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the payload is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Copy the bytes into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Recover an owned `Vec`. Zero-copy when this is the last reference
    /// (the steady-state receive path); copies otherwise.
    pub fn into_vec(self) -> Vec<u8> {
        Arc::try_unwrap(self.0).unwrap_or_else(|shared| shared.as_slice().to_vec())
    }

    /// Number of `Payload` handles sharing this buffer (tests/benches).
    pub fn ref_count(&self) -> usize {
        Arc::strong_count(&self.0)
    }

    /// Address of the first byte of the buffer — pointer-identity
    /// assertions in zero-copy tests.
    pub fn ptr(&self) -> *const u8 {
        self.0.as_ptr()
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
        write!(f, "Payload({} bytes, rc {})", self.len(), self.ref_count())
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
}
