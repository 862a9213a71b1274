//! Incremental checkpointing.
//!
//! Listed by the paper as ongoing work: "we are incorporating incremental
//! checkpointing into our system, which will permit the system to save only
//! those data that have been modified since the last checkpoint" (§5).
//!
//! [`DirtyTracker`] cuts named sections into chunks addressed by (section
//! index, chunk index) and keeps the previous checkpoint as [`Sections`]:
//! one buffer per section plus each chunk's hash. An unchanged chunk
//! travels as a 9-byte reference carrying its stored hash. A changed chunk
//! is hashed once and compressed once — as an XOR patch against its
//! previous content when its length is unchanged, by value otherwise (every
//! chunk of a base) — and copied into the buffer in place. A [`Delta`] is
//! kept in its wire form; nothing makes a second pass over it.
//!
//! A restore applies a base-to-latest chain into the section buffers in
//! place ([`Sections::apply`]), checking every decoded chunk against its
//! hash and every reference against the chunk held, so a damaged link is an
//! error naming the link, never a different state. The rebuilt sections
//! move into a tracker ([`DirtyTracker::prime`]) to continue the chain.
//!
//! Wire format of a delta (integers little-endian):
//!
//! ```text
//! [chunk size u32][section count u32]
//! per section:           [name length u8][name][byte length u64]
//! per section and chunk: [kind u8][hash u64], and for a patch or a value
//!                        [payload length u32][payload]
//! ```
//!
//! A payload is the chunk (or its XOR) moved into eight byte planes and
//! run-length coded: for `f64` state the sign and exponent planes, and the
//! XOR of values that barely moved, collapse into long runs.

use crate::codec::{CodecError, Decoder};
use std::collections::BTreeMap;

/// Default [`DirtyTracker`] chunk size: small enough that a point update to
/// a large grid dirties one chunk, large enough that per-chunk references
/// stay a tiny fraction of the data.
pub const DEFAULT_CHUNK_SIZE: usize = 4096;

/// Chunk kinds on the wire: unchanged (hash only), XOR patch, by value.
const REF: u8 = 0;
const PATCH: u8 = 1;
const VALUE: u8 = 2;

/// One link of an incremental chain as [`DirtyTracker::checkpoint`] wrote
/// it — a base (every chunk by value) or a delta against the previous
/// link — held in its wire form (module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delta(Vec<u8>);

impl Delta {
    /// The wire bytes: what the store keeps and [`Sections::apply`] reads.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

/// One section: its name, its bytes, and the hash of each chunk.
#[derive(Debug, Default)]
struct Section {
    name: String,
    bytes: Vec<u8>,
    hashes: Vec<u64>,
}

/// The sections of one checkpoint, one buffer each, with the hash of every
/// chunk: what a chain rebuilds and what a [`DirtyTracker`] diffs against.
#[derive(Debug, Default)]
pub struct Sections {
    chunk_size: usize,
    sections: Vec<Section>,
}

impl Sections {
    /// The bytes of the section named `name`.
    pub fn get(&self, name: &str) -> Option<&[u8]> {
        self.sections.iter().find(|s| s.name == name).map(|s| &s.bytes[..])
    }

    /// Apply one link (a [`Delta`]'s wire bytes) in place: chunks by value
    /// and patches are decoded into the section buffers and checked against
    /// their hashes, references against the hash of the chunk held. A link
    /// with another chunk size than the sections' starts them afresh, so
    /// only a base applies. On error the sections are partly applied.
    pub fn apply(&mut self, link: &[u8]) -> Result<(), CodecError> {
        let mut d = Decoder::new(link);
        let cs = d.u32()? as usize;
        if cs == 0 {
            return Err(CodecError("chunk size 0".into()));
        }
        if cs != self.chunk_size {
            self.sections.clear();
            self.chunk_size = cs;
        }
        let n = d.u32()? as usize;
        let mut table = Vec::with_capacity(n.min(256));
        for _ in 0..n {
            let len = d.u8()? as usize;
            let name = std::str::from_utf8(d.take(len)?)
                .map_err(|e| CodecError(format!("section name: {e}")))?;
            table.push((name, d.u64()? as usize));
        }
        self.sections.resize_with(n, Section::default);
        let (coded, patch) = (&mut Vec::new(), &mut Vec::new());
        for (i, (s, (name, len))) in self.sections.iter_mut().zip(table).enumerate() {
            if s.name != name {
                s.name = name.to_string();
            }
            let (nchunks, old_len) = (len.div_ceil(cs), s.bytes.len());
            // A chunk record takes 9 bytes or more, and a payload byte
            // decodes to 65 at most: bound what a damaged length allocates.
            if nchunks > d.remaining() / 9 || len.saturating_sub(old_len) > d.remaining() * 65 {
                return Err(CodecError(format!("section {i} is longer than the link encodes")));
            }
            if s.bytes.is_empty() {
                s.bytes = vec![0; len];
            } else {
                s.bytes.resize(len, 0);
            }
            s.hashes.resize(nchunks, 0);
            for j in 0..nchunks {
                let lo = j * cs;
                let clen = cs.min(len - lo);
                let held = old_len.saturating_sub(lo).min(cs) == clen;
                let chunk_err = |m: &str| CodecError(format!("section {i} chunk {j}: {m}"));
                let (kind, hash) = (d.u8()?, d.u64()?);
                if kind == REF {
                    if !held || s.hashes[j] != hash {
                        return Err(chunk_err("reference to a chunk the chain does not hold"));
                    }
                    continue;
                }
                let payload_len = d.u32()? as usize;
                let payload = d.take(payload_len)?;
                match kind {
                    PATCH if !held => {
                        return Err(chunk_err("patch of a chunk the chain does not hold"))
                    }
                    PATCH | VALUE => {}
                    k => return Err(chunk_err(&format!("unknown chunk kind {k}"))),
                }
                coded.resize(clen, 0);
                rle_decompress_into(payload, coded).map_err(|CodecError(m)| chunk_err(&m))?;
                let dst = &mut s.bytes[lo..lo + clen];
                if kind == PATCH {
                    patch.resize(clen, 0);
                    planes(coded, patch, false);
                    dst.iter_mut().zip(&*patch).for_each(|(d, x)| *d ^= x);
                } else {
                    planes(coded, dst, false);
                }
                if chunk_hash(dst) != hash {
                    return Err(chunk_err("hash mismatch"));
                }
                s.hashes[j] = hash;
            }
        }
        if !d.is_exhausted() {
            return Err(CodecError(format!("{} trailing bytes", d.remaining())));
        }
        Ok(())
    }
}

/// Rebuilds state from a base-to-latest chain of [`Delta`]s, as written by
/// [`DirtyTracker::checkpoint`].
#[derive(Debug)]
pub struct IncrementalSaver;

impl IncrementalSaver {
    /// Apply a base-to-latest chain in order ([`Sections::apply`]); an
    /// error names the link (`link <index>: …`).
    pub fn reconstruct(chain: &[Delta]) -> Result<Sections, CodecError> {
        let mut sections = Sections::default();
        for (i, link) in chain.iter().enumerate() {
            sections
                .apply(link.as_bytes())
                .map_err(|CodecError(m)| CodecError(format!("link {i}: {m}")))?;
        }
        Ok(sections)
    }
}

/// Chunk-granular dirty tracking over named state *sections* (the
/// protocol's `app`, `mpi`, … buffers), so a delta carries only the chunks
/// that changed. The commit path in `c3` calls [`DirtyTracker::reset`]
/// before each base, [`DirtyTracker::checkpoint`] at every commit, and on
/// restore [`DirtyTracker::prime`]s a fresh tracker with the applied chain.
#[derive(Debug)]
pub struct DirtyTracker {
    /// The previous checkpoint, updated in place by each checkpoint.
    prev: Sections,
    /// One chunk's XOR with its previous content, and its byte planes.
    scratch: [Vec<u8>; 2],
}

impl Default for DirtyTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl DirtyTracker {
    /// Tracker with [`DEFAULT_CHUNK_SIZE`]; the first checkpoint is a base.
    pub fn new() -> Self {
        Self::with_chunk_size(DEFAULT_CHUNK_SIZE)
    }

    /// Tracker with a chunk size of 1 byte to 1 GiB (a payload's length is a `u32`).
    pub fn with_chunk_size(chunk_size: usize) -> Self {
        let chunk_size = chunk_size.clamp(1, 1 << 30);
        DirtyTracker {
            prev: Sections { chunk_size, sections: Vec::new() },
            scratch: Default::default(),
        }
    }

    /// Forget the previous checkpoint, keeping its buffers: the next
    /// checkpoint writes every chunk by value, a self-contained base.
    pub fn reset(&mut self) {
        for s in &mut self.prev.sections {
            s.bytes.clear();
            s.hashes.clear();
        }
    }

    /// Build the delta for the current sections (name → bytes; names of at
    /// most 255 bytes) and advance the tracker. Sections are matched to the
    /// previous checkpoint's by position. An unchanged chunk becomes a
    /// reference, a changed chunk of unchanged length an XOR patch, any
    /// other chunk a value.
    pub fn checkpoint(&mut self, sections: &[(&str, &[u8])]) -> Delta {
        let cs = self.prev.chunk_size;
        let total: usize = sections.iter().map(|(_, b)| b.len()).sum();
        let mut out = Vec::with_capacity(8 + total + total / 64 + 64 * sections.len());
        out.extend_from_slice(&(cs as u32).to_le_bytes());
        out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
        for (name, bytes) in sections {
            out.push(u8::try_from(name.len()).expect("section name longer than 255 bytes"));
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        }
        let DirtyTracker { prev: line, scratch: [xor, coded] } = self;
        line.sections.resize_with(sections.len(), Section::default);
        for (s, (name, cur)) in line.sections.iter_mut().zip(sections) {
            if s.name != *name {
                s.name = name.to_string();
            }
            let old_len = s.bytes.len();
            s.bytes.resize(cur.len(), 0);
            s.hashes.resize(cur.len().div_ceil(cs), 0);
            for (j, chunk) in cur.chunks(cs).enumerate() {
                let lo = j * cs;
                let prev = &mut s.bytes[lo..lo + chunk.len()];
                let held = old_len.saturating_sub(lo).min(cs) == chunk.len();
                if held && prev == chunk {
                    out.push(REF);
                    out.extend_from_slice(&s.hashes[j].to_le_bytes());
                    continue;
                }
                let hash = chunk_hash(chunk);
                out.push(if held { PATCH } else { VALUE });
                out.extend_from_slice(&hash.to_le_bytes());
                let src = if held {
                    xor.clear();
                    xor.extend(prev.iter().zip(chunk).map(|(a, b)| a ^ b));
                    &xor[..]
                } else {
                    chunk
                };
                coded.resize(chunk.len(), 0);
                planes(src, coded, true);
                let at = out.len();
                out.extend_from_slice(&[0; 4]);
                rle_compress(coded, &mut out);
                let payload_len = (out.len() - at - 4) as u32;
                out[at..at + 4].copy_from_slice(&payload_len.to_le_bytes());
                prev.copy_from_slice(chunk);
                s.hashes[j] = hash;
            }
        }
        Delta(out)
    }

    /// Continue a restored chain: the rebuilt sections (and their chunk
    /// size) become the previous checkpoint, moved in, not copied.
    pub fn prime(&mut self, restored: Sections) {
        self.prev = restored;
    }

    /// The rebuilt sections as name → bytes. Errors on a name that appears
    /// twice.
    pub fn assemble(sections: &Sections) -> Result<BTreeMap<String, Vec<u8>>, CodecError> {
        let mut out = BTreeMap::new();
        for s in &sections.sections {
            if out.insert(s.name.clone(), s.bytes.clone()).is_some() {
                return Err(CodecError(format!("section '{}' appears twice", s.name)));
            }
        }
        Ok(out)
    }
}

/// Chunk hash, a word at a time: eight lanes fold 64-bit words (rotate,
/// xor, odd multiply — each step a bijection, so one changed word always
/// changes the result), then the lanes, the tail and the length fold into
/// one word and a final avalanche spreads it.
fn chunk_hash(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let fold = |h: u64, w: u64| (h.rotate_left(29) ^ w).wrapping_mul(K);
    let mut lanes: [u64; 8] = std::array::from_fn(|i| i as u64 + 1);
    let mut blocks = bytes.chunks_exact(64);
    for block in &mut blocks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = fold(*lane, word_at(block, 8 * i));
        }
    }
    let mut h = lanes.into_iter().fold(bytes.len() as u64, fold);
    for tail in blocks.remainder().chunks(8) {
        h = fold(h, tail.iter().rev().fold(0, |w, &b| w << 8 | b as u64));
    }
    h = (h ^ h >> 33).wrapping_mul(0xff51_afd7_ed55_8ccd);
    h = (h ^ h >> 33).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ h >> 33
}

/// Move `src` into byte planes in `dst` (`to_planes`), or back: plane `p`
/// holds the bytes at offsets ≡ `p` (mod 8) — one per byte of an `f64` —
/// and the first `len % 8` planes hold one byte more.
fn planes(src: &[u8], dst: &mut [u8], to_planes: bool) {
    let len = src.len();
    let starts: [usize; 8] = std::array::from_fn(|p| p * (len / 8) + p.min(len % 8));
    #[cfg(target_arch = "x86_64")]
    let done = sse2_planes(src, dst, to_planes, &starts);
    #[cfg(not(target_arch = "x86_64"))]
    let done = 0;
    for i in done..len {
        let plane = starts[i % 8] + i / 8;
        if to_planes {
            dst[plane] = src[i];
        } else {
            dst[i] = src[plane];
        }
    }
}

/// [`planes`] for the whole 64-byte blocks, each an 8×8 byte transpose in
/// SSE2 registers (SSE2 is part of the x86_64 baseline): row `i` of block
/// `k` is word `i` of the block on one side and the 8 bytes at
/// `starts[i] + 8k` on the other. Returns the bytes done.
#[cfg(target_arch = "x86_64")]
fn sse2_planes(src: &[u8], dst: &mut [u8], to_planes: bool, starts: &[usize; 8]) -> usize {
    use std::arch::x86_64::*;
    let blocks = src.len() / 64;
    assert!(dst.len() == src.len() && starts.iter().all(|&s| s + 8 * blocks <= src.len()));
    // (load, store) offsets of row `i` of block `k`.
    let at = |k: usize, i: usize| {
        let (word, plane) = (64 * k + 8 * i, starts[i] + 8 * k);
        if to_planes {
            (word, plane)
        } else {
            (plane, word)
        }
    };
    let (from, to) = (src.as_ptr(), dst.as_mut_ptr());
    for k in 0..blocks {
        // SAFETY: a word offset is at most 64 * blocks - 8 and a plane
        // offset at most starts[i] + 8 * blocks - 8, so by the assert every
        // 8-byte unaligned load and store is in bounds.
        unsafe {
            let r: [__m128i; 8] =
                std::array::from_fn(|i| _mm_loadl_epi64(from.add(at(k, i).0).cast()));
            let a = [0, 2, 4, 6].map(|i| _mm_unpacklo_epi8(r[i], r[i + 1]));
            let b = [(0, 1), (2, 3)]
                .map(|(x, y)| [_mm_unpacklo_epi16(a[x], a[y]), _mm_unpackhi_epi16(a[x], a[y])]);
            let c = [
                _mm_unpacklo_epi32(b[0][0], b[1][0]),
                _mm_unpackhi_epi32(b[0][0], b[1][0]),
                _mm_unpacklo_epi32(b[0][1], b[1][1]),
                _mm_unpackhi_epi32(b[0][1], b[1][1]),
            ];
            for (i, c) in c.into_iter().enumerate() {
                _mm_storel_epi64(to.add(at(k, 2 * i).1).cast(), c);
                _mm_storel_epi64(to.add(at(k, 2 * i + 1).1).cast(), _mm_unpackhi_epi64(c, c));
            }
        }
    }
    64 * blocks
}

/// Byte-oriented run-length coding of one chunk's planes.
///
/// Token stream: a control byte `c < 0x80` copies the next `c + 1` literal
/// bytes; `c >= 0x80` repeats the next byte `c - 0x80 + 3` times (runs of
/// 3–130). Worst-case expansion is 1/128. Output is appended to `dst`.
fn rle_compress(src: &[u8], dst: &mut Vec<u8>) {
    let flush_literals = |dst: &mut Vec<u8>, lit: &[u8]| {
        for part in lit.chunks(128) {
            dst.push((part.len() - 1) as u8);
            dst.extend_from_slice(part);
        }
    };
    let mut lit_start = 0;
    while let Some(i) = next_run(src, lit_start) {
        let b = src[i];
        let max = 130.min(src.len() - i);
        let mut run = 3;
        while run + 8 <= max && word_at(src, i + run) == LO * b as u64 {
            run += 8;
        }
        while run < max && src[i + run] == b {
            run += 1;
        }
        flush_literals(dst, &src[lit_start..i]);
        dst.push(0x80 + (run - 3) as u8);
        dst.push(b);
        lit_start = i + run;
    }
    flush_literals(dst, &src[lit_start..]);
}

/// The little-endian word at byte `i` of `b`.
fn word_at(b: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(b[i..i + 8].try_into().expect("an 8-byte slice"))
}

/// A byte's value in every byte of a word.
const LO: u64 = 0x0101_0101_0101_0101;

/// The first offset at or after `from` where three equal bytes start,
/// eight offsets at a time: a byte of `(w ^ w1) | (w ^ w2)` is zero where
/// a byte equals the next two, and the lowest zero byte is exact.
fn next_run(src: &[u8], from: usize) -> Option<usize> {
    let mut i = from;
    while i + 10 <= src.len() {
        let w = word_at(src, i);
        let x = (w ^ word_at(src, i + 1)) | (w ^ word_at(src, i + 2));
        let zero = x.wrapping_sub(LO) & !x & (LO << 7);
        if zero != 0 {
            return Some(i + zero.trailing_zeros() as usize / 8);
        }
        i += 8;
    }
    (i..src.len().saturating_sub(2)).find(|&k| src[k] == src[k + 1] && src[k] == src[k + 2])
}

/// Inverse of [`rle_compress`] into `dst`, which the tokens must fill
/// exactly.
fn rle_decompress_into(src: &[u8], dst: &mut [u8]) -> Result<(), CodecError> {
    let (mut i, mut o) = (0, 0);
    while let Some(&c) = src.get(i) {
        let literal = c < 0x80;
        let n = if literal { c as usize + 1 } else { (c - 0x80) as usize + 3 };
        let out = dst.get_mut(o..o + n);
        let done = if literal {
            src.get(i + 1..i + 1 + n).zip(out).map(|(lit, out)| out.copy_from_slice(lit))
        } else {
            src.get(i + 1).zip(out).map(|(&b, out)| out.fill(b))
        };
        done.ok_or_else(|| CodecError(format!("rle: token at {i} runs past its input or chunk")))?;
        i += if literal { 1 + n } else { 2 };
        o += n;
    }
    if o != dst.len() {
        return Err(CodecError(format!("rle: {o} bytes for a chunk of {}", dst.len())));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sections(pairs: &[(&str, &[u8])]) -> BTreeMap<String, Vec<u8>> {
        pairs.iter().map(|(k, v)| (k.to_string(), v.to_vec())).collect()
    }

    /// Rebuild a chain back into whole sections.
    fn rebuild(chain: &[Delta]) -> BTreeMap<String, Vec<u8>> {
        DirtyTracker::assemble(&IncrementalSaver::reconstruct(chain).unwrap()).unwrap()
    }

    /// Each chunk record of a delta, in wire order: its kind and the range
    /// of its payload in the wire bytes (empty for a reference).
    fn records(d: &Delta) -> Vec<(u8, std::ops::Range<usize>)> {
        let mut r = Decoder::new(d.as_bytes());
        let cs = r.u32().unwrap() as usize;
        let n = r.u32().unwrap();
        let mut nchunks = 0;
        for _ in 0..n {
            let len = r.u8().unwrap() as usize;
            r.take(len).unwrap();
            nchunks += (r.u64().unwrap() as usize).div_ceil(cs);
        }
        (0..nchunks)
            .map(|_| {
                let kind = r.u8().unwrap();
                r.u64().unwrap();
                let len = if kind == REF { 0 } else { r.u32().unwrap() as usize };
                let at = d.as_bytes().len() - r.remaining();
                r.take(len).unwrap();
                (kind, at..at + len)
            })
            .collect()
    }

    fn count(d: &Delta, kind: u8) -> usize {
        records(d).iter().filter(|(k, _)| *k == kind).count()
    }

    fn f64_bytes(g: &[f64]) -> Vec<u8> {
        g.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    #[test]
    fn first_checkpoint_is_full() {
        let mut t = DirtyTracker::new();
        let d = t.checkpoint(&[("a", b"111"), ("b", b"22")]);
        assert_eq!(count(&d, VALUE), 2);
        assert_eq!(records(&d).len(), 2);
    }

    #[test]
    fn unchanged_chunks_become_references() {
        let grid: Vec<u8> = (0..10_000u32).map(|i| (i * 37 % 251) as u8).collect();
        let mut t = DirtyTracker::new();
        let d1 = t.checkpoint(&[("grid", &grid), ("step", b"1")]);
        let d2 = t.checkpoint(&[("grid", &grid), ("step", b"2")]);
        assert_eq!(count(&d2, REF), 3, "the grid's three chunks");
        assert_eq!(count(&d2, PATCH), 1, "the step chunk");
        // Incremental payload is much smaller than the full one.
        assert!(d2.as_bytes().len() * 100 < d1.as_bytes().len());
        // And the chain reconstructs the exact state.
        assert_eq!(rebuild(&[d1, d2]), sections(&[("grid", &grid), ("step", b"2")]));
    }

    #[test]
    fn removed_sections_disappear() {
        let mut t = DirtyTracker::new();
        let d1 = t.checkpoint(&[("a", b"x"), ("b", b"y")]);
        let d2 = t.checkpoint(&[("a", b"x")]);
        assert_eq!(records(&d2).len(), 1);
        assert_eq!(rebuild(&[d1, d2]), sections(&[("a", b"x")]));
    }

    #[test]
    fn corrupted_chain_detected() {
        let mut t = DirtyTracker::new();
        let d1 = t.checkpoint(&[("a", b"x")]);
        let d2 = t.checkpoint(&[("a", b"x")]);
        // Corrupt: drop the base delta.
        let err = IncrementalSaver::reconstruct(std::slice::from_ref(&d2)).unwrap_err();
        assert!(err.0.contains("link 0") && err.0.contains("does not hold"), "{err}");
        // Corrupt: tamper with the referenced hash (the last wire byte).
        let mut bad = d2.0.clone();
        *bad.last_mut().unwrap() ^= 1;
        let err = IncrementalSaver::reconstruct(&[d1, Delta(bad)]).unwrap_err();
        assert!(err.0.contains("link 1"), "{err}");
    }

    #[test]
    fn dirty_tracker_chunks_sections() {
        let mut t = DirtyTracker::with_chunk_size(4);
        let big = [7u8; 20];
        let d1 = t.checkpoint(&[("grid", &big), ("step", b"1")]);
        assert_eq!(count(&d1, VALUE), 6, "first checkpoint is a base");
        // Flip one byte inside one chunk of the big section.
        let mut big2 = big;
        big2[9] = 8;
        let d2 = t.checkpoint(&[("grid", &big2), ("step", b"2")]);
        let kinds: Vec<u8> = records(&d2).into_iter().map(|(k, _)| k).collect();
        assert_eq!(kinds, [REF, REF, PATCH, REF, REF, PATCH], "grid chunk 2 and the step");
        let state = IncrementalSaver::reconstruct(&[d1, d2]).unwrap();
        assert_eq!(state.get("grid"), Some(&big2[..]));
        assert_eq!(state.get("step"), Some(&b"2"[..]));
    }

    #[test]
    fn dirty_tracker_handles_shrink_grow_and_empty() {
        let mut t = DirtyTracker::with_chunk_size(4);
        let d1 = t.checkpoint(&[("s", &[1u8; 10]), ("e", b"")]);
        let d2 = t.checkpoint(&[("s", &[1u8; 3]), ("e", b"")]);
        assert_eq!(records(&d2).len(), 1, "shrink drops the tail chunks");
        let d3 = t.checkpoint(&[("s", &[2u8; 11]), ("e", b"")]);
        let rebuilt = rebuild(&[d1, d2, d3]);
        assert_eq!(rebuilt["s"], vec![2u8; 11]);
        assert_eq!(rebuilt["e"], Vec::<u8>::new(), "empty section survives the round trip");
    }

    #[test]
    fn dirty_tracker_reset_and_prime() {
        let mut t = DirtyTracker::with_chunk_size(4);
        let _ = t.checkpoint(&[("s", &[1u8; 8])]);
        t.reset();
        let base = t.checkpoint(&[("s", &[1u8; 8])]);
        assert_eq!(count(&base, VALUE), 2, "after reset everything is by value");
        let state = IncrementalSaver::reconstruct(std::slice::from_ref(&base)).unwrap();
        let mut t2 = DirtyTracker::with_chunk_size(4);
        t2.prime(state);
        let d = t2.checkpoint(&[("s", &[1u8; 8])]);
        assert_eq!(count(&d, REF), 2, "primed tracker sees the restored state as clean");
        assert!(IncrementalSaver::reconstruct(&[base, d]).is_ok());
    }

    /// A tracker primed from a chain restored at any link of an
    /// `every_n = 4` chain — the base, a middle link, the last link — emits
    /// the same next delta, byte for byte, as the tracker that wrote the
    /// chain and never restarted.
    #[test]
    fn primed_tracker_continues_the_chain_byte_for_byte() {
        let states: Vec<Vec<u8>> = (0..5u32)
            .map(|s| {
                let grid: Vec<f64> =
                    (0..700).map(|i| (i as f64 * 0.37 + s as f64 * 1e-9).sin()).collect();
                let mut b = f64_bytes(&grid);
                b.truncate(b.len() - s as usize * 3); // the last chunk's length moves too
                b
            })
            .collect();
        let checkpoint = |t: &mut DirtyTracker, k: usize| {
            t.checkpoint(&[("app", &states[k]), ("mpi", &(k as u64).to_le_bytes())])
        };
        let mut writer = DirtyTracker::with_chunk_size(512);
        let chain: Vec<Delta> = (0..5).map(|k| checkpoint(&mut writer, k)).collect();
        for restored_at in [0, 1, 3] {
            let mut t = DirtyTracker::new();
            t.prime(IncrementalSaver::reconstruct(&chain[..=restored_at]).unwrap());
            assert_eq!(
                checkpoint(&mut t, restored_at + 1),
                chain[restored_at + 1],
                "restored at link {restored_at}"
            );
        }
    }

    #[test]
    fn smooth_float_state_becomes_small_patches() {
        // A grid of doubles drifting in the low mantissa: the XOR patch
        // must be much smaller than the chunk, and the chain must rebuild
        // the exact bits.
        let mut t = DirtyTracker::with_chunk_size(512);
        let grid: Vec<f64> = (0..256).map(|i| 1.0 + i as f64 * 1e-3).collect();
        let b0 = f64_bytes(&grid);
        let d0 = t.checkpoint(&[("grid", &b0)]);
        let b1 = f64_bytes(&grid.iter().map(|v| v + 1e-13).collect::<Vec<_>>());
        let d1 = t.checkpoint(&[("grid", &b1)]);
        assert_eq!(count(&d1, PATCH), 4, "drifting chunks are patched");
        assert!(
            d1.as_bytes().len() * 2 < d0.as_bytes().len(),
            "patch delta {} should be well under half the base {}",
            d1.as_bytes().len(),
            d0.as_bytes().len()
        );
        assert_eq!(rebuild(&[d0, d1])["grid"], b1, "patched chain restores bit for bit");
    }

    /// Flip one payload byte of a chunk of `kind` in link `at` of a three-
    /// link chain; the rebuild must fail naming that link.
    fn flip_payload_byte(kind: u8, at: usize) {
        let mut t = DirtyTracker::with_chunk_size(512);
        let mut grid: Vec<f64> = (0..256).map(|i| 1.0 + i as f64 / 7.0).collect();
        let mut chain = Vec::new();
        for _ in 0..3 {
            chain.push(t.checkpoint(&[("grid", &f64_bytes(&grid))]));
            grid.iter_mut().step_by(3).for_each(|v| *v *= 1.000_001);
        }
        assert!(IncrementalSaver::reconstruct(&chain).is_ok());
        let (_, payload) = records(&chain[at]).into_iter().find(|(k, _)| *k == kind).unwrap();
        chain[at].0[payload.start + payload.len() / 2] ^= 0x10;
        let err = IncrementalSaver::reconstruct(&chain).unwrap_err();
        assert!(err.0.starts_with(&format!("link {at}: ")), "{err}");
    }

    #[test]
    fn damaged_value_chunk_in_the_base_is_an_error() {
        flip_payload_byte(VALUE, 0);
    }

    #[test]
    fn damaged_patch_in_a_middle_link_is_an_error() {
        flip_payload_byte(PATCH, 1);
    }

    #[test]
    fn planes_round_trip_every_length() {
        let src: Vec<u8> = (0..300u32).map(|i| (i * 37 % 251) as u8).collect();
        for len in 0..src.len() {
            let (mut p, mut back) = (vec![0u8; len], vec![0u8; len]);
            planes(&src[..len], &mut p, true);
            let mut want = Vec::new();
            for phase in 0..8 {
                want.extend(src[..len].iter().skip(phase).step_by(8));
            }
            assert_eq!(p, want, "len {len}");
            planes(&p, &mut back, false);
            assert_eq!(back, &src[..len]);
        }
    }

    #[test]
    fn rle_roundtrip_and_ratio() {
        let mut zeros = vec![0u8; 4096];
        zeros[100] = 9;
        let mut mixed: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        mixed.extend_from_slice(&[42u8; 500]);
        for src in [&zeros, &mixed, &Vec::new(), &vec![5u8; 2]] {
            let mut packed = Vec::new();
            rle_compress(src, &mut packed);
            let mut back = vec![0u8; src.len()];
            rle_decompress_into(&packed, &mut back).unwrap();
            assert_eq!(&back, src);
        }
        let mut packed = Vec::new();
        rle_compress(&zeros, &mut packed);
        assert!(packed.len() < zeros.len() / 10, "zero-heavy data compresses well");
        let mut out = [0u8; 8];
        assert!(rle_decompress_into(&[0x85], &mut out).is_err(), "truncated repeat run");
        assert!(rle_decompress_into(&[0x05, 1, 2], &mut out).is_err(), "truncated literal run");
        assert!(rle_decompress_into(&[0x86, 0], &mut out).is_err(), "run past the chunk");
        assert!(rle_decompress_into(&[0x80, 0], &mut out).is_err(), "chunk not filled");
    }

    #[test]
    fn one_changed_word_changes_the_hash() {
        let base: Vec<u8> = (0..100u8).collect();
        let h = chunk_hash(&base);
        for i in 0..base.len() {
            let mut b = base.clone();
            b[i] ^= 0x80;
            assert_ne!(chunk_hash(&b), h, "byte {i}");
        }
        assert_ne!(chunk_hash(&base[..99]), h, "the length is hashed");
    }
}
