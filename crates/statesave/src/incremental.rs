//! Incremental checkpointing.
//!
//! Listed by the paper as ongoing work: "we are incorporating incremental
//! checkpointing into our system, which will permit the system to save only
//! those data that have been modified since the last checkpoint" (§5). This
//! module implements it with [`DirtyTracker`], which slices named sections
//! into chunks and compares each with its content at the previous
//! checkpoint: unchanged chunks are recorded by hash reference, changed
//! chunks by value or by a compressed XOR patch. A restore replays the
//! base-plus-delta chain ([`IncrementalSaver::reconstruct`]).

use crate::codec::{CodecError, Decoder, Encoder};
use std::collections::BTreeMap;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One incremental checkpoint: changed chunks by value or by compressed
/// XOR patch, unchanged chunks by hash reference, and tombstones for
/// removed chunks.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Delta {
    /// Chunks whose content changed (or are new): name → bytes.
    pub changed: BTreeMap<String, Vec<u8>>,
    /// Chunks unchanged since the previous checkpoint: name → content hash.
    pub unchanged: BTreeMap<String, u64>,
    /// Names removed since the previous checkpoint.
    pub removed: Vec<String>,
    /// Chunks whose content changed, expressed as a patch against the
    /// chunk's previous content: name → (encoded patch, hash of the patched
    /// result). See `encode_patch` for the wire format. Only emitted when
    /// the patch is strictly smaller than the raw chunk.
    pub patched: BTreeMap<String, (Vec<u8>, u64)>,
}

impl Delta {
    /// Bytes that must be written for this checkpoint (the paper's saving:
    /// only modified data travels to disk).
    pub fn payload_bytes(&self) -> usize {
        self.changed.iter().map(|(k, v)| k.len() + v.len()).sum::<usize>()
            + self.unchanged.keys().map(|k| k.len() + 8).sum::<usize>()
            + self.patched.iter().map(|(k, (p, _))| k.len() + p.len() + 8).sum::<usize>()
    }

    /// Serialize.
    pub fn save(&self, e: &mut Encoder) {
        e.save(&self.changed);
        e.save(&self.unchanged);
        e.save(&self.removed);
        e.save(&self.patched);
    }

    /// Deserialize.
    pub fn load(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Delta {
            changed: d.load()?,
            unchanged: d.load()?,
            removed: d.load()?,
            patched: d.load()?,
        })
    }
}

/// Rebuilds state from a base-to-latest chain of [`Delta`]s, as written by
/// [`DirtyTracker::checkpoint`].
#[derive(Debug)]
pub struct IncrementalSaver;

impl IncrementalSaver {
    /// Reconstruct full state from a base-to-latest chain of deltas.
    /// Returns an error if an `unchanged` reference points at a chunk that
    /// is missing or whose hash disagrees (a corrupted chain).
    pub fn reconstruct(chain: &[Delta]) -> Result<BTreeMap<String, Vec<u8>>, CodecError> {
        let mut state: BTreeMap<String, Vec<u8>> = BTreeMap::new();
        for (i, delta) in chain.iter().enumerate() {
            apply_delta(&mut state, delta)
                .map_err(|CodecError(m)| CodecError(format!("delta {i}: {m}")))?;
        }
        Ok(state)
    }
}

/// Apply one delta to accumulated chunk state, validating every
/// `unchanged` reference against the accumulated bytes and every patched
/// chunk against its recorded result hash.
fn apply_delta(state: &mut BTreeMap<String, Vec<u8>>, delta: &Delta) -> Result<(), CodecError> {
    for name in &delta.removed {
        state.remove(name);
    }
    // Unchanged references must resolve against accumulated state.
    for (name, h) in &delta.unchanged {
        match state.get(name) {
            Some(bytes) if fnv1a(bytes) == *h => {}
            Some(_) => {
                return Err(CodecError(format!("hash mismatch for unchanged chunk '{name}'")))
            }
            None => return Err(CodecError(format!("unchanged chunk '{name}' missing from chain"))),
        }
    }
    // Patched chunks rebuild from the accumulated previous content.
    for (name, (patch, h)) in &delta.patched {
        let prev = state
            .get(name)
            .ok_or_else(|| CodecError(format!("patched chunk '{name}' missing from chain")))?;
        let cur = decode_patch(prev, patch)
            .map_err(|CodecError(m)| CodecError(format!("patched chunk '{name}': {m}")))?;
        if fnv1a(&cur) != *h {
            return Err(CodecError(format!("hash mismatch for patched chunk '{name}'")));
        }
        state.insert(name.clone(), cur);
    }
    for (name, bytes) in &delta.changed {
        state.insert(name.clone(), bytes.clone());
    }
    // Chunks present before but in no list were implicitly dropped (not
    // referenced by this checkpoint).
    let referenced: std::collections::BTreeSet<&String> =
        delta.changed.keys().chain(delta.unchanged.keys()).chain(delta.patched.keys()).collect();
    state.retain(|k, _| referenced.contains(k));
    Ok(())
}

/// Stride of the byte-plane shuffle applied to XOR patches: one plane per
/// byte of an `f64`, so the stable sign/exponent/high-mantissa planes of a
/// smoothly evolving grid collapse into long zero runs.
const SHUFFLE_STRIDE: usize = 8;

/// Transpose `src` into byte planes: all bytes at offset 0 mod `stride`,
/// then 1 mod `stride`, … Appends to `dst`.
fn byte_shuffle(src: &[u8], stride: usize, dst: &mut Vec<u8>) {
    for phase in 0..stride {
        dst.extend(src.iter().skip(phase).step_by(stride));
    }
}

/// Inverse of [`byte_shuffle`].
fn byte_unshuffle(src: &[u8], stride: usize) -> Vec<u8> {
    let mut out = vec![0u8; src.len()];
    let mut k = 0;
    for phase in 0..stride {
        let mut i = phase;
        while i < src.len() {
            out[i] = src[k];
            k += 1;
            i += stride;
        }
    }
    out
}

/// Encode `cur` as a patch against the equal-length `prev`: XOR the two,
/// shuffle into byte planes ([`SHUFFLE_STRIDE`]), run-length compress. For
/// floating-point state evolving smoothly (the dominant checkpoint
/// payload), only the low mantissa bytes differ between commits, so the
/// shuffled XOR is zero-heavy and the patch is a fraction of the chunk.
fn encode_patch(prev: &[u8], cur: &[u8]) -> Vec<u8> {
    debug_assert_eq!(prev.len(), cur.len());
    let xor: Vec<u8> = prev.iter().zip(cur).map(|(a, b)| a ^ b).collect();
    let mut shuffled = Vec::with_capacity(xor.len());
    byte_shuffle(&xor, SHUFFLE_STRIDE, &mut shuffled);
    let mut packed = Vec::new();
    rle_compress(&shuffled, &mut packed);
    packed
}

/// Inverse of [`encode_patch`]: rebuild the current chunk from its previous
/// content and the packed patch. Errors if the patch does not decompress to
/// exactly `prev.len()` bytes.
fn decode_patch(prev: &[u8], packed: &[u8]) -> Result<Vec<u8>, CodecError> {
    let shuffled = rle_decompress(packed)?;
    if shuffled.len() != prev.len() {
        return Err(CodecError(format!(
            "patch length {} does not match chunk length {}",
            shuffled.len(),
            prev.len()
        )));
    }
    let xor = byte_unshuffle(&shuffled, SHUFFLE_STRIDE);
    Ok(prev.iter().zip(&xor).map(|(a, b)| a ^ b).collect())
}

/// Default [`DirtyTracker`] chunk size: small enough that a point update to
/// a large grid dirties one chunk, large enough that per-chunk hash
/// references stay a tiny fraction of the data.
pub const DEFAULT_CHUNK_SIZE: usize = 4096;

/// Chunk-granular dirty tracking over named state *sections*.
///
/// Checkpoint sections (the protocol's `app`, `mpi`, … buffers) are single
/// large byte strings, so diffing them whole would mark the entire section
/// dirty on any one-byte change. `DirtyTracker` slices each section into
/// fixed-size chunks named `"<section>.<index>"` and compares those, so a
/// delta carries only the chunks that actually changed plus 8-byte hash
/// references for the rest.
///
/// Typical cycle, mirroring the commit path in `c3`:
///
/// 1. [`DirtyTracker::reset`] + [`DirtyTracker::checkpoint`] → a
///    self-contained *base* delta (everything dirty);
/// 2. [`DirtyTracker::checkpoint`] on later commits → chained deltas;
/// 3. on restore, [`IncrementalSaver::reconstruct`] the chunk map,
///    [`DirtyTracker::assemble`] it back into sections, and
///    [`DirtyTracker::prime`] a fresh tracker so the next delta references
///    the restored state.
#[derive(Debug)]
pub struct DirtyTracker {
    chunk_size: usize,
    /// Previous chunk contents, kept so a changed chunk can be emitted as a
    /// compressed XOR patch instead of by value (one in-memory copy of the
    /// checkpoint — the paper's trade of memory for I/O volume).
    prev_chunks: BTreeMap<String, Vec<u8>>,
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

    /// Tracker with an explicit chunk size (min 1 byte).
    pub fn with_chunk_size(chunk_size: usize) -> Self {
        DirtyTracker { chunk_size: chunk_size.max(1), prev_chunks: BTreeMap::new() }
    }

    /// Forget all previous chunks: the next [`DirtyTracker::checkpoint`]
    /// emits every chunk by value (a self-contained base).
    pub fn reset(&mut self) {
        self.prev_chunks.clear();
    }

    /// The chunk name for chunk `idx` of `section`. Indices are
    /// zero-padded so lexicographic chunk order is chunk order.
    fn chunk_name(section: &str, idx: usize) -> String {
        format!("{section}.{idx:08}")
    }

    /// Build the delta for the current sections (name → bytes; names must
    /// not contain `'.'`) and advance the tracker. Unchanged chunks become
    /// hash references; a changed chunk whose length is stable becomes a
    /// compressed XOR patch when that is strictly smaller than the raw
    /// bytes; an empty section still contributes one empty chunk so it
    /// survives reassembly.
    pub fn checkpoint(&mut self, sections: &[(&str, &[u8])]) -> Delta {
        let mut delta = Delta::default();
        let mut new_chunks = BTreeMap::new();
        for (section, bytes) in sections {
            debug_assert!(!section.contains('.'), "section name '{section}' contains '.'");
            let nchunks = bytes.len().div_ceil(self.chunk_size).max(1);
            for idx in 0..nchunks {
                let lo = idx * self.chunk_size;
                let hi = (lo + self.chunk_size).min(bytes.len());
                let chunk = &bytes[lo..hi];
                let name = Self::chunk_name(section, idx);
                let h = fnv1a(chunk);
                match self.prev_chunks.get(&name) {
                    Some(prev) if prev[..] == chunk[..] => {
                        delta.unchanged.insert(name.clone(), h);
                    }
                    Some(prev) if prev.len() == chunk.len() => {
                        let patch = encode_patch(prev, chunk);
                        if patch.len() + 8 < chunk.len() {
                            delta.patched.insert(name.clone(), (patch, h));
                        } else {
                            delta.changed.insert(name.clone(), chunk.to_vec());
                        }
                    }
                    _ => {
                        delta.changed.insert(name.clone(), chunk.to_vec());
                    }
                }
                new_chunks.insert(name, chunk.to_vec());
            }
        }
        for name in self.prev_chunks.keys() {
            if !new_chunks.contains_key(name) {
                delta.removed.push(name.clone());
            }
        }
        self.prev_chunks = new_chunks;
        delta
    }

    /// Seed the tracker from a reconstructed chunk map (the restore path),
    /// so the next [`DirtyTracker::checkpoint`] diffs against the restored
    /// state instead of emitting a base.
    pub fn prime(&mut self, chunks: &BTreeMap<String, Vec<u8>>) {
        self.prev_chunks = chunks.clone();
    }

    /// Reassemble a reconstructed chunk map back into whole sections
    /// (inverse of the slicing in [`DirtyTracker::checkpoint`]). Errors on
    /// a chunk name without a `'.'` separator.
    pub fn assemble(
        chunks: &BTreeMap<String, Vec<u8>>,
    ) -> Result<BTreeMap<String, Vec<u8>>, CodecError> {
        let mut sections: BTreeMap<String, Vec<u8>> = BTreeMap::new();
        // BTreeMap order + zero-padded indices ⇒ chunks arrive in order.
        for (name, bytes) in chunks {
            let dot = name
                .rfind('.')
                .ok_or_else(|| CodecError(format!("chunk name '{name}' has no section prefix")))?;
            sections.entry(name[..dot].to_string()).or_default().extend_from_slice(bytes);
        }
        Ok(sections)
    }
}

/// Byte-oriented run-length compression for delta payloads.
///
/// Token stream: a control byte `c < 0x80` copies the next `c + 1` literal
/// bytes; `c >= 0x80` repeats the next byte `c - 0x80 + 3` times (runs of
/// 3–130). Worst-case expansion is 1/128; zero-heavy grid state (the common
/// checkpoint payload) compresses by an order of magnitude. Output is
/// appended to `dst`.
pub fn rle_compress(src: &[u8], dst: &mut Vec<u8>) {
    let mut i = 0;
    let mut lit_start = 0;
    let flush_literals = |dst: &mut Vec<u8>, lit: &[u8]| {
        for part in lit.chunks(128) {
            dst.push((part.len() - 1) as u8);
            dst.extend_from_slice(part);
        }
    };
    while i < src.len() {
        let b = src[i];
        let mut run = 1;
        while run < 130 && i + run < src.len() && src[i + run] == b {
            run += 1;
        }
        if run >= 3 {
            flush_literals(dst, &src[lit_start..i]);
            dst.push(0x80 + (run - 3) as u8);
            dst.push(b);
            i += run;
            lit_start = i;
        } else {
            i += run;
        }
    }
    flush_literals(dst, &src[lit_start..]);
}

/// Byte-plane compression for whole delta payloads: transpose into
/// `SHUFFLE_STRIDE` byte planes, then `rle_compress`. On encoded
/// checkpoint state — dominated by raw `f64` chunks in base links — the
/// transpose gathers the slowly-varying sign/exponent bytes into long runs
/// that plain RLE cannot see through the 8-byte interleave. Appends to
/// `dst`.
pub fn plane_compress(src: &[u8], dst: &mut Vec<u8>) {
    let mut shuffled = Vec::with_capacity(src.len());
    byte_shuffle(src, SHUFFLE_STRIDE, &mut shuffled);
    rle_compress(&shuffled, dst);
}

/// Inverse of [`plane_compress`].
pub fn plane_decompress(src: &[u8]) -> Result<Vec<u8>, CodecError> {
    let shuffled = rle_decompress(src)?;
    Ok(byte_unshuffle(&shuffled, SHUFFLE_STRIDE))
}

/// Inverse of [`rle_compress`]. Errors on a truncated token stream.
pub fn rle_decompress(src: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::with_capacity(src.len() * 2);
    let mut i = 0;
    while i < src.len() {
        let c = src[i];
        i += 1;
        if c < 0x80 {
            let n = c as usize + 1;
            let lit =
                src.get(i..i + n).ok_or_else(|| CodecError("rle: truncated literal run".into()))?;
            out.extend_from_slice(lit);
            i += n;
        } else {
            let b = *src.get(i).ok_or_else(|| CodecError("rle: truncated repeat run".into()))?;
            i += 1;
            out.resize(out.len() + (c - 0x80) as usize + 3, b);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunks(pairs: &[(&str, &[u8])]) -> BTreeMap<String, Vec<u8>> {
        pairs.iter().map(|(k, v)| (k.to_string(), v.to_vec())).collect()
    }

    /// Rebuild a chain back into whole sections.
    fn rebuild(chain: &[Delta]) -> BTreeMap<String, Vec<u8>> {
        DirtyTracker::assemble(&IncrementalSaver::reconstruct(chain).unwrap()).unwrap()
    }

    #[test]
    fn first_checkpoint_is_full() {
        let mut t = DirtyTracker::new();
        let d = t.checkpoint(&[("a", b"111"), ("b", b"22")]);
        assert_eq!(d.changed.len(), 2);
        assert!(d.unchanged.is_empty());
    }

    #[test]
    fn unchanged_chunks_become_references() {
        let mut t = DirtyTracker::new();
        let d1 = t.checkpoint(&[("grid", &[0u8; 1000]), ("step", b"1")]);
        let d2 = t.checkpoint(&[("grid", &[0u8; 1000]), ("step", b"2")]);
        assert_eq!(d2.changed.len(), 1);
        assert!(d2.changed.contains_key("step.00000000"));
        assert_eq!(d2.unchanged.len(), 1);
        // Incremental payload is much smaller than the full one.
        assert!(d2.payload_bytes() < d1.payload_bytes() / 10);
        // And the chain reconstructs the exact state.
        assert_eq!(rebuild(&[d1, d2]), chunks(&[("grid", &[0u8; 1000]), ("step", b"2")]));
    }

    #[test]
    fn removed_chunks_disappear() {
        let mut t = DirtyTracker::new();
        let d1 = t.checkpoint(&[("a", b"x"), ("b", b"y")]);
        let d2 = t.checkpoint(&[("a", b"x")]);
        assert_eq!(d2.removed, vec!["b.00000000".to_string()]);
        assert_eq!(rebuild(&[d1, d2]), chunks(&[("a", b"x")]));
    }

    #[test]
    fn corrupted_chain_detected() {
        let mut t = DirtyTracker::new();
        let d1 = t.checkpoint(&[("a", b"x")]);
        let mut d2 = t.checkpoint(&[("a", b"x")]);
        // Corrupt: drop the base delta.
        let err = IncrementalSaver::reconstruct(std::slice::from_ref(&d2));
        assert!(err.is_err());
        // Corrupt: tamper with the referenced hash.
        if let Some(h) = d2.unchanged.get_mut("a.00000000") {
            *h ^= 1;
        }
        assert!(IncrementalSaver::reconstruct(&[d1, d2]).is_err());
    }

    #[test]
    fn dirty_tracker_chunks_sections() {
        let mut t = DirtyTracker::with_chunk_size(4);
        let big = [7u8; 20];
        let d1 = t.checkpoint(&[("grid", &big), ("step", b"1")]);
        assert!(d1.unchanged.is_empty(), "first checkpoint is a base");
        // Flip one byte inside one chunk of the big section.
        let mut big2 = big;
        big2[9] = 8;
        let d2 = t.checkpoint(&[("grid", &big2), ("step", b"2")]);
        assert_eq!(d2.changed.len(), 2, "one grid chunk + the step section");
        assert!(d2.changed.contains_key("grid.00000002"));
        assert_eq!(d2.unchanged.len(), 4);
        let state = IncrementalSaver::reconstruct(&[d1, d2]).unwrap();
        let sections = DirtyTracker::assemble(&state).unwrap();
        assert_eq!(sections["grid"], big2.to_vec());
        assert_eq!(sections["step"], b"2".to_vec());
    }

    #[test]
    fn dirty_tracker_handles_shrink_grow_and_empty() {
        let mut t = DirtyTracker::with_chunk_size(4);
        let d1 = t.checkpoint(&[("s", &[1u8; 10]), ("e", b"")]);
        let d2 = t.checkpoint(&[("s", &[1u8; 3]), ("e", b"")]);
        assert!(d2.removed.iter().any(|n| n.starts_with("s.")), "shrink tombstones tail chunks");
        let d3 = t.checkpoint(&[("s", &[2u8; 11]), ("e", b"")]);
        let state = IncrementalSaver::reconstruct(&[d1, d2, d3]).unwrap();
        let sections = DirtyTracker::assemble(&state).unwrap();
        assert_eq!(sections["s"], vec![2u8; 11]);
        assert_eq!(sections["e"], Vec::<u8>::new(), "empty section survives the round trip");
    }

    #[test]
    fn dirty_tracker_reset_and_prime() {
        let mut t = DirtyTracker::with_chunk_size(4);
        let _ = t.checkpoint(&[("s", &[1u8; 8])]);
        t.reset();
        let base = t.checkpoint(&[("s", &[1u8; 8])]);
        assert!(base.unchanged.is_empty(), "after reset everything is dirty");
        let state = IncrementalSaver::reconstruct(std::slice::from_ref(&base)).unwrap();
        let mut t2 = DirtyTracker::with_chunk_size(4);
        t2.prime(&state);
        let d = t2.checkpoint(&[("s", &[1u8; 8])]);
        assert!(d.changed.is_empty(), "primed tracker sees the restored state as clean");
        assert!(IncrementalSaver::reconstruct(&[base, d]).is_ok());
    }

    #[test]
    fn smooth_float_state_becomes_small_patches() {
        // A grid of doubles drifting in the low mantissa: the XOR patch
        // must be much smaller than the chunk, and the chain must rebuild
        // the exact bits.
        let mut t = DirtyTracker::with_chunk_size(512);
        let grid: Vec<f64> = (0..256).map(|i| 1.0 + i as f64 * 1e-3).collect();
        let as_bytes = |g: &[f64]| g.iter().flat_map(|v| v.to_le_bytes()).collect::<Vec<u8>>();
        let b0 = as_bytes(&grid);
        let d0 = t.checkpoint(&[("grid", &b0)]);
        let drifted: Vec<f64> = grid.iter().map(|v| v + 1e-13).collect();
        let b1 = as_bytes(&drifted);
        let d1 = t.checkpoint(&[("grid", &b1)]);
        assert!(!d1.patched.is_empty(), "drifting chunks should be patched");
        assert!(d1.changed.is_empty());
        assert!(
            d1.payload_bytes() < d0.payload_bytes() / 2,
            "patch delta {} should be well under half the base {}",
            d1.payload_bytes(),
            d0.payload_bytes()
        );
        let state = IncrementalSaver::reconstruct(&[d0, d1]).unwrap();
        let sections = DirtyTracker::assemble(&state).unwrap();
        assert_eq!(sections["grid"], b1, "patched chain restores bit-for-bit");
    }

    #[test]
    fn tampered_patch_detected() {
        let mut t = DirtyTracker::with_chunk_size(512);
        let b0: Vec<u8> = (0..256u32).flat_map(|i| (i as f64).to_le_bytes()).collect();
        let mut b1 = b0.clone();
        b1[3] ^= 1;
        let d0 = t.checkpoint(&[("g", &b0)]);
        let mut d1 = t.checkpoint(&[("g", &b1)]);
        assert!(!d1.patched.is_empty());
        if let Some((_, h)) = d1.patched.values_mut().next() {
            *h ^= 1;
        }
        let err = IncrementalSaver::reconstruct(&[d0.clone(), d1]);
        assert!(err.is_err(), "tampered patch hash must fail the chain");
        let state = IncrementalSaver::reconstruct(&[d0]).unwrap();
        assert_eq!(DirtyTracker::assemble(&state).unwrap()["g"], b0);
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
            assert_eq!(&rle_decompress(&packed).unwrap(), src);
        }
        let mut packed = Vec::new();
        rle_compress(&zeros, &mut packed);
        assert!(packed.len() < zeros.len() / 10, "zero-heavy data compresses well");
        assert!(rle_decompress(&[0x85]).is_err(), "truncated repeat run detected");
        assert!(rle_decompress(&[0x05, 1, 2]).is_err(), "truncated literal run detected");
    }

    #[test]
    fn delta_codec_roundtrip() {
        let mut t = DirtyTracker::new();
        let _ = t.checkpoint(&[("a", b"1"), ("b", b"2")]);
        let d = t.checkpoint(&[("a", b"1"), ("c", b"3")]);
        let mut e = Encoder::new();
        d.save(&mut e);
        let buf = e.finish();
        let d2 = Delta::load(&mut Decoder::new(&buf)).unwrap();
        assert_eq!(d, d2);
    }
}
