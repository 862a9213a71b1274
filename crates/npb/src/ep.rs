//! EP — embarrassingly parallel pseudo-random tallies.
//!
//! Each rank generates Gaussian pairs with an NPB-style linear-congruential
//! generator and tallies them into ten annuli; the only communication is the
//! final (and per-block) reductions. The interesting property for the paper
//! is Table 1's checkpoint shape: enormous transient computation, *tiny*
//! live state — exactly why C³'s EP checkpoint is 71% smaller than Condor's.

use crate::backend::{Comm, Op};
use mpisim::MpiError;
use statesave::codec::{Decoder, Encoder};

/// EP parameters.
#[derive(Clone, Copy, Debug)]
pub struct EpConfig {
    /// log2 of the pair count per block.
    pub m_per_block: u32,
    /// Total number of blocks across all ranks, dealt cyclically (a pragma
    /// sits after each local block). The global stream set — and therefore
    /// the result — is independent of the rank count.
    pub blocks: u64,
}

/// NPB's multiplicative LCG: x_{k+1} = a * x_k mod 2^46.
struct Lcg {
    x: u64,
}

const A: u64 = 5u64.pow(13);
const MASK: u64 = (1 << 46) - 1;

impl Lcg {
    #[cfg(test)]
    fn new(seed: u64) -> Self {
        Lcg { x: seed & MASK }
    }
    fn next_f64(&mut self) -> f64 {
        self.x = self.x.wrapping_mul(A) & MASK;
        self.x as f64 / (1u64 << 46) as f64
    }
    /// Jump the stream to absolute position `k` (for deterministic
    /// per-block seeding independent of history).
    fn seeded_at(seed: u64, k: u64) -> Self {
        // a^k mod 2^46 by binary exponentiation.
        let mut base = A;
        let mut exp = k;
        let mut mult: u64 = 1;
        while exp > 0 {
            if exp & 1 == 1 {
                mult = mult.wrapping_mul(base) & MASK;
            }
            base = base.wrapping_mul(base) & MASK;
            exp >>= 1;
        }
        Lcg { x: seed.wrapping_mul(mult) & MASK }
    }
}

struct EpState {
    block: u64,
    counts: [u64; 10],
    sx: f64,
    sy: f64,
}

impl EpState {
    fn save(&self, e: &mut Encoder) {
        e.u64(self.block);
        for c in self.counts {
            e.u64(c);
        }
        e.f64(self.sx);
        e.f64(self.sy);
    }
    fn load(b: &[u8]) -> Result<Self, MpiError> {
        let mut d = Decoder::new(b);
        let conv = |e: statesave::codec::CodecError| MpiError::Internal(e.to_string());
        let block = d.u64().map_err(conv)?;
        let mut counts = [0u64; 10];
        for c in &mut counts {
            *c = d.u64().map_err(conv)?;
        }
        Ok(EpState { block, counts, sx: d.f64().map_err(conv)?, sy: d.f64().map_err(conv)? })
    }
}

/// Run EP; returns a digest of the annulus tallies and Gaussian sums.
pub fn run<C: Comm>(comm: &mut C, cfg: &EpConfig) -> Result<f64, MpiError> {
    let me = comm.rank() as u64;
    let p = comm.nranks() as u64;
    let mut st = match comm.take_restored_state() {
        Some(b) => EpState::load(&b)?,
        None => EpState { block: 0, counts: [0; 10], sx: 0.0, sy: 0.0 },
    };
    let pairs_per_block = 1u64 << cfg.m_per_block;
    // Global blocks are dealt cyclically: this rank runs me, me+p, me+2p, …
    let my_blocks = (cfg.blocks + p - 1 - me) / p;

    while st.block < my_blocks {
        // Deterministic stream position of the *global* block.
        let gblock = me + st.block * p;
        let offset = gblock * pairs_per_block * 2;
        let mut rng = Lcg::seeded_at(271_828_183, offset + 1);
        for _ in 0..pairs_per_block {
            let x = 2.0 * rng.next_f64() - 1.0;
            let y = 2.0 * rng.next_f64() - 1.0;
            let t = x * x + y * y;
            if t <= 1.0 {
                // Box–Muller acceptance: tally the Gaussian deviates.
                let f = ((-2.0 * t.ln()) / t).sqrt();
                let gx = x * f;
                let gy = y * f;
                let l = gx.abs().max(gy.abs()) as usize;
                if l < 10 {
                    st.counts[l] += 1;
                }
                st.sx += gx;
                st.sy += gy;
            }
        }
        st.block += 1;
        // Checkpoint after each block: the live state is just the tallies.
        comm.pragma(&mut |e| st.save(e))?;
    }

    let counts = comm.allreduce_u64_vec(st.counts.as_ref(), Op::Sum)?;
    let sx = comm.allreduce_f64(st.sx, Op::Sum)?;
    let sy = comm.allreduce_f64(st.sy, Op::Sum)?;
    let mut digest = sx + 2.0 * sy;
    for (i, c) in counts.iter().enumerate() {
        digest += (*c as f64) * (i as f64 + 1.0);
    }
    Ok(digest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcg_jump_matches_sequential() {
        let mut seq = Lcg::new(271_828_183);
        for _ in 0..100 {
            seq.next_f64();
        }
        let mut jumped = Lcg::seeded_at(271_828_183, 100);
        assert_eq!(seq.next_f64(), jumped.next_f64());
    }

    #[test]
    fn deterministic_across_rank_counts_when_total_fixed() {
        // The global block set is fixed, so any rank count tallies the same
        // streams (float sums reassociate, hence the small tolerance).
        let cfg = EpConfig { m_per_block: 8, blocks: 4 };
        let a = mpisim::launch(&mpisim::JobSpec::new(1), |ctx| run(ctx, &cfg)).unwrap().results[0];
        let b = mpisim::launch(&mpisim::JobSpec::new(1), |ctx| run(ctx, &cfg)).unwrap().results[0];
        assert_eq!(a, b);
        for p in [2usize, 3, 4] {
            let c =
                mpisim::launch(&mpisim::JobSpec::new(p), |ctx| run(ctx, &cfg)).unwrap().results[0];
            assert!((a - c).abs() <= 1e-9 * a.abs(), "p={p}: {c} vs {a}");
        }
    }

    #[test]
    fn gaussian_acceptance_reasonable() {
        // ~pi/4 of pairs accepted.
        let cfg = EpConfig { m_per_block: 12, blocks: 1 };
        let out = mpisim::launch(&mpisim::JobSpec::new(1), |ctx| {
            let me = ctx.rank() as u64;
            let _ = me;
            run(ctx, &cfg)
        })
        .unwrap();
        assert!(out.results[0].is_finite());
    }
}
