//! IS — parallel integer bucket sort.
//!
//! Each iteration generates keys, computes a global histogram with an
//! all-reduce, routes keys to their destination rank with an all-to-all,
//! and counting-sorts locally — the NPB IS communication skeleton.
//!
//! The key sequence is defined over *global* key indices and the digest is
//! sampled at *global* sorted positions with a commutative combine, so the
//! result is identical for every rank count (the determinism foundation the
//! recovery tests rely on).

use crate::backend::{Comm, Op};
use mpisim::MpiError;
use statesave::codec::{Decoder, Encoder};

/// IS parameters.
#[derive(Clone, Copy, Debug)]
pub struct IsConfig {
    /// Total keys per iteration (split evenly over the ranks).
    pub total_keys: usize,
    /// Key range `[0, max_key)`.
    pub max_key: u64,
    /// Ranking iterations.
    pub iters: u64,
}

struct IsState {
    iter: u64,
    digest: u64,
    /// The rank's sorted key bucket from the last completed iteration.
    /// Recovery regenerates keys, so this is *dead* state — but the paper's
    /// C³ has "not yet implemented the compiler analysis to reduce the size
    /// of the saved state" (§1), and NPB IS's ranked key array is exactly
    /// why its checkpoints are ~96 MB in Table 1. Saving it reproduces that
    /// checkpoint shape.
    keys: Vec<u64>,
}

impl IsState {
    fn save(&self, e: &mut Encoder) {
        e.u64(self.iter);
        e.u64(self.digest);
        e.u64_slice(&self.keys);
    }
    fn load(b: &[u8]) -> Result<Self, MpiError> {
        let mut d = Decoder::new(b);
        let conv = |e: statesave::codec::CodecError| MpiError::Internal(e.to_string());
        Ok(IsState {
            iter: d.u64().map_err(conv)?,
            digest: d.u64().map_err(conv)?,
            keys: d.u64_vec().map_err(conv)?,
        })
    }
}

/// Key for global index `g` at iteration `iter` — independent of the rank
/// layout.
fn keygen(iter: u64, g: u64, max_key: u64) -> u64 {
    let mut x = g
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(iter.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(0x94d0_49bb_1331_11eb);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x % max_key
}

/// Commutative per-sample digest contribution.
fn mix(key: u64, pos: u64) -> u64 {
    let mut x = key.wrapping_mul(0xff51_afd7_ed55_8ccd).wrapping_add(pos);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 29)
}

/// Run IS; returns a digest over the globally sorted key ranks (exact in
/// f64: only the low 52 bits of the digest are kept).
pub fn run<C: Comm>(comm: &mut C, cfg: &IsConfig) -> Result<f64, MpiError> {
    let me = comm.rank();
    let p = comm.nranks();
    let mut st = match comm.take_restored_state() {
        Some(b) => IsState::load(&b)?,
        None => IsState { iter: 0, digest: 0, keys: Vec::new() },
    };
    let total = cfg.total_keys;
    // Global sample stride (rank-count independent).
    let stride = (total as u64 / 64).max(1);

    while st.iter < cfg.iters {
        // Generate this rank's slice of the global key sequence.
        let keys: Vec<u64> =
            crate::split(total, me, p).map(|g| keygen(st.iter, g as u64, cfg.max_key)).collect();

        // Global histogram over p coarse buckets (keys are near-uniform, so
        // equal key-ranges balance; NPB IS splits by histogram mass — the
        // all-reduced histogram also provides every rank's global offset).
        let bucket_of = |k: u64| ((k as u128 * p as u128) / cfg.max_key as u128) as usize;
        let mut hist = vec![0u64; p];
        for k in &keys {
            hist[bucket_of(*k)] += 1;
        }
        let global_hist = comm.allreduce_u64_vec(&hist, Op::Sum)?;
        let grand_total: u64 = global_hist.iter().sum();
        debug_assert_eq!(grand_total as usize, total);

        // Route keys to their bucket's rank.
        let mut parts: Vec<Vec<u64>> = vec![Vec::new(); p];
        for k in &keys {
            parts[bucket_of(*k)].push(*k);
        }
        let parts_bytes: Vec<Vec<u8>> =
            parts.iter().map(|v| mpisim::bytes_of(v.as_slice()).to_vec()).collect();
        let recvd = comm.alltoall_bytes(&parts_bytes)?;
        let mut mine: Vec<u64> = Vec::new();
        for b in &recvd {
            mine.extend(mpisim::vec_from_bytes::<u64>(b));
        }

        // Local sort within the bucket; my keys occupy the global sorted
        // positions [offset, offset + len).
        mine.sort_unstable();
        let offset: u64 = global_hist[..me].iter().sum();

        // Verify the global order with a boundary exchange: my smallest key
        // must not be below my left neighbour's largest.
        if me + 1 < p {
            let largest = mine.last().copied().unwrap_or(0);
            comm.send_u64(me + 1, 31, &[largest])?;
        }
        if me > 0 {
            let v = comm.recv_u64((me - 1) as i32, 31)?;
            if let Some(first) = mine.first() {
                if *first < v[0] {
                    return Err(MpiError::Internal(format!(
                        "IS: global order violated at rank {me}: {first} < {}",
                        v[0]
                    )));
                }
            }
        }

        // Fold sampled global positions into the digest (xor: commutative,
        // so the cross-rank combine is layout-independent).
        let first_sample = offset.div_ceil(stride) * stride;
        let mut pos = first_sample;
        while pos < offset + mine.len() as u64 {
            st.digest ^= mix(mine[(pos - offset) as usize], pos);
            pos += stride;
        }

        st.keys = mine;
        st.iter += 1;
        comm.pragma(&mut |e| st.save(e))?;
    }

    // Combine rank digests commutatively (xor) via gather at 0 + bcast.
    let gathered = comm.gather_bytes(0, &st.digest.to_le_bytes())?;
    let mut combined = match gathered {
        Some(parts) => {
            let mut acc = 0u64;
            for part in parts {
                acc ^= u64::from_le_bytes(part[..8].try_into().unwrap());
            }
            acc.to_le_bytes().to_vec()
        }
        None => Vec::new(),
    };
    comm.bcast_bytes(0, &mut combined)?;
    let digest = u64::from_le_bytes(combined[..8].try_into().unwrap());
    Ok((digest & ((1u64 << 52) - 1)) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keygen_uniformish() {
        let max = 1024u64;
        let mut hist = vec![0u64; 8];
        for g in 0..8000 {
            hist[(keygen(2, g, max) * 8 / max) as usize] += 1;
        }
        for h in hist {
            assert!(h > 700 && h < 1300, "bucket count {h} far from uniform");
        }
    }

    #[test]
    fn digest_is_rank_count_independent() {
        let cfg = IsConfig { total_keys: 2048, max_key: 4096, iters: 3 };
        let mut first = None;
        for p in [1usize, 2, 3, 4] {
            let out = mpisim::launch(&mpisim::JobSpec::new(p), |ctx| run(ctx, &cfg)).unwrap();
            for r in &out.results {
                assert_eq!(*r, out.results[0], "ranks disagree at p={p}");
            }
            match first {
                None => first = Some(out.results[0]),
                Some(f) => assert_eq!(f, out.results[0], "digest differs at p={p}"),
            }
        }
    }
}
