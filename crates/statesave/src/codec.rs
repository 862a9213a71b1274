//! A compact self-describing binary codec.
//!
//! The paper's C³ "saves all data as binary, irrespective of the data's
//! type", trading portability for efficiency and transparency (§5). This
//! codec does the same: values are written little-endian with minimal
//! framing (length prefixes for variable-size data), and every write has a
//! matching read. There is no schema negotiation — as with C³'s checkpoints,
//! the reader must be the same program that wrote the data.

use std::fmt;

/// Error produced when a decode runs off the end of the buffer or meets an
/// impossible value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// Decode result alias.
pub type Result<T> = std::result::Result<T, CodecError>;

/// Binary encoder. Append values, then [`Encoder::finish`] (or borrow the
/// bytes with [`Encoder::as_bytes`]).
#[derive(Default, Debug)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Fresh empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes so far, without consuming the encoder.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the encoder, yielding the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Write a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian i64.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian i32.
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an f64 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a usize as u64.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Write length-prefixed raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Bulk-write an f64 slice (length-prefixed). The hot path for array
    /// state in the benchmark kernels.
    pub fn f64_slice(&mut self, v: &[f64]) {
        self.u64(v.len() as u64);
        self.buf.reserve(v.len() * 8);
        for x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Bulk-write a u64 slice (length-prefixed).
    pub fn u64_slice(&mut self, v: &[u64]) {
        self.u64(v.len() as u64);
        self.buf.reserve(v.len() * 8);
        for x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Write any [`Saveable`].
    pub fn save<T: Saveable>(&mut self, v: &T) {
        v.save(self);
    }
}

/// Binary decoder over a byte buffer.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Decode from `buf`, starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the whole buffer has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Borrow the next `n` bytes.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(CodecError(format!(
                "read of {n} bytes at {} exceeds buffer of {}",
                self.pos,
                self.buf.len()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a bool.
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(CodecError(format!("invalid bool byte {v}"))),
        }
    }

    /// Read a u32.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a u64.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an i64.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an i32.
    pub fn i32(&mut self) -> Result<i32> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read an f64.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a usize (stored as u64).
    pub fn usize(&mut self) -> Result<usize> {
        Ok(self.u64()? as usize)
    }

    /// Read length-prefixed raw bytes.
    pub fn bytes(&mut self) -> Result<Vec<u8>> {
        let n = self.u64()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let b = self.bytes()?;
        String::from_utf8(b).map_err(|e| CodecError(format!("invalid utf8: {e}")))
    }

    /// Bulk-read an f64 vector.
    pub fn f64_vec(&mut self) -> Result<Vec<f64>> {
        let n = self.u64()? as usize;
        let raw = self.take(n * 8)?;
        Ok(raw.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().unwrap())).collect())
    }

    /// Bulk-read a u64 vector.
    pub fn u64_vec(&mut self) -> Result<Vec<u64>> {
        let n = self.u64()? as usize;
        let raw = self.take(n * 8)?;
        Ok(raw.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect())
    }

    /// Read any [`Saveable`].
    pub fn load<T: Saveable>(&mut self) -> Result<T> {
        T::load(self)
    }
}

/// A value that knows how to write itself to an [`Encoder`] and rebuild
/// itself from a [`Decoder`]. Benchmark kernels implement this for their
/// state structs — the moral equivalent of the code the C³ precompiler
/// would have generated.
pub trait Saveable {
    /// Serialize into `e`.
    fn save(&self, e: &mut Encoder);
    /// Deserialize from `d`.
    fn load(d: &mut Decoder<'_>) -> Result<Self>
    where
        Self: Sized;
}

impl Saveable for u32 {
    fn save(&self, e: &mut Encoder) {
        e.u32(*self);
    }
    fn load(d: &mut Decoder<'_>) -> Result<Self> {
        d.u32()
    }
}

impl Saveable for u64 {
    fn save(&self, e: &mut Encoder) {
        e.u64(*self);
    }
    fn load(d: &mut Decoder<'_>) -> Result<Self> {
        d.u64()
    }
}

impl Saveable for i64 {
    fn save(&self, e: &mut Encoder) {
        e.i64(*self);
    }
    fn load(d: &mut Decoder<'_>) -> Result<Self> {
        d.i64()
    }
}

impl Saveable for usize {
    fn save(&self, e: &mut Encoder) {
        e.usize(*self);
    }
    fn load(d: &mut Decoder<'_>) -> Result<Self> {
        d.usize()
    }
}

impl<T: Saveable> Saveable for Vec<T> {
    fn save(&self, e: &mut Encoder) {
        e.u64(self.len() as u64);
        for x in self {
            x.save(e);
        }
    }
    fn load(d: &mut Decoder<'_>) -> Result<Self> {
        let n = d.u64()? as usize;
        let mut v = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            v.push(T::load(d)?);
        }
        Ok(v)
    }
}

impl<T: Saveable> Saveable for Option<T> {
    fn save(&self, e: &mut Encoder) {
        match self {
            None => e.u8(0),
            Some(x) => {
                e.u8(1);
                x.save(e);
            }
        }
    }
    fn load(d: &mut Decoder<'_>) -> Result<Self> {
        match d.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(d)?)),
            v => Err(CodecError(format!("invalid Option discriminant {v}"))),
        }
    }
}

impl<A: Saveable, B: Saveable> Saveable for (A, B) {
    fn save(&self, e: &mut Encoder) {
        self.0.save(e);
        self.1.save(e);
    }
    fn load(d: &mut Decoder<'_>) -> Result<Self> {
        Ok((A::load(d)?, B::load(d)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut e = Encoder::new();
        e.u8(7);
        e.bool(true);
        e.u32(0xdead_beef);
        e.u64(u64::MAX);
        e.i64(-42);
        e.i32(-1);
        e.f64(3.5);
        e.str("hello κόσμος");
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        assert_eq!(d.u8().unwrap(), 7);
        assert!(d.bool().unwrap());
        assert_eq!(d.u32().unwrap(), 0xdead_beef);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.i64().unwrap(), -42);
        assert_eq!(d.i32().unwrap(), -1);
        assert_eq!(d.f64().unwrap(), 3.5);
        assert_eq!(d.str().unwrap(), "hello κόσμος");
        assert!(d.is_exhausted());
    }

    #[test]
    fn containers_roundtrip() {
        let mut e = Encoder::new();
        let v: Vec<(u64, i64)> = vec![(1, -1), (2, 2)];
        e.save(&v);
        let o: Option<usize> = Some(25);
        e.save(&o);
        let none: Option<usize> = None;
        e.save(&none);
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        assert_eq!(d.load::<Vec<(u64, i64)>>().unwrap(), v);
        assert_eq!(d.load::<Option<usize>>().unwrap(), o);
        assert_eq!(d.load::<Option<usize>>().unwrap(), None);
        assert!(d.is_exhausted());
    }

    #[test]
    fn bulk_slices() {
        let xs: Vec<f64> = (0..1000).map(|i| i as f64 * 0.5).collect();
        let ys: Vec<u64> = (0..1000).collect();
        let mut e = Encoder::new();
        e.f64_slice(&xs);
        e.u64_slice(&ys);
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        assert_eq!(d.f64_vec().unwrap(), xs);
        assert_eq!(d.u64_vec().unwrap(), ys);
    }

    #[test]
    fn truncated_read_fails_cleanly() {
        let mut e = Encoder::new();
        e.u64(5);
        let buf = e.finish();
        let mut d = Decoder::new(&buf[..4]);
        assert!(d.u64().is_err());
    }

    #[test]
    fn invalid_discriminants_rejected() {
        let buf = [9u8];
        assert!(Decoder::new(&buf).bool().is_err());
        let buf2 = [7u8];
        assert!(Decoder::new(&buf2).load::<Option<u64>>().is_err());
    }
}
