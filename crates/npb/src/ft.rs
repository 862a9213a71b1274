//! FT — spectral evolution with an all-to-all transpose (the NPB FT
//! skeleton).
//!
//! A 2D complex field on an `n × n` grid (n a power of two), distributed in
//! row blocks. The forward FFT runs local row FFTs, transposes the grid with
//! `MPI_Alltoall`, and runs row FFTs again — the canonical distributed FFT
//! decomposition and the paper set's only all-to-all-dominated code. Each
//! time step multiplies the spectrum by a diffusion evolution factor,
//! inverse-transforms, and accumulates a checksum; the checkpoint location
//! sits at the bottom of the time-step loop.

use crate::backend::{Comm, Op};
use mpisim::MpiError;
use statesave::codec::{Decoder, Encoder};

/// FT parameters.
#[derive(Clone, Copy, Debug)]
pub struct FtConfig {
    /// Grid is `n × n` complex points; `n` must be a power of two and a
    /// multiple of the rank count.
    pub n: usize,
    /// Evolution time steps.
    pub steps: u64,
    /// Diffusion coefficient in the evolution factor.
    pub alpha: f64,
}

/// In-place iterative radix-2 FFT of interleaved complex data
/// (`re0, im0, re1, im1, …`). `sign` is -1 for forward, +1 for inverse
/// (unnormalized; the caller divides by `len` after an inverse transform).
fn fft_line(data: &mut [f64], sign: f64) {
    let n = data.len() / 2;
    debug_assert!(n.is_power_of_two());
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 0..n {
        if i < j {
            data.swap(2 * i, 2 * j);
            data.swap(2 * i + 1, 2 * j + 1);
        }
        let mut m = n >> 1;
        while m >= 1 && j & m != 0 {
            j ^= m;
            m >>= 1;
        }
        j |= m;
    }
    // Danielson-Lanczos butterflies.
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let (wr0, wi0) = (ang.cos(), ang.sin());
        let mut i = 0;
        while i < n {
            let (mut wr, mut wi) = (1.0f64, 0.0f64);
            for k in 0..len / 2 {
                let a = i + k;
                let b = a + len / 2;
                let (ar, ai) = (data[2 * a], data[2 * a + 1]);
                let (br, bi) = (data[2 * b], data[2 * b + 1]);
                let tr = br * wr - bi * wi;
                let ti = br * wi + bi * wr;
                data[2 * a] = ar + tr;
                data[2 * a + 1] = ai + ti;
                data[2 * b] = ar - tr;
                data[2 * b + 1] = ai - ti;
                let nwr = wr * wr0 - wi * wi0;
                wi = wr * wi0 + wi * wr0;
                wr = nwr;
            }
            i += len;
        }
        len <<= 1;
    }
}

/// Distributed transpose of a row-block-distributed `n × n` interleaved
/// complex matrix: every rank sends the column block owned by rank `q` of
/// each of its rows, and reassembles received pieces as its new rows.
fn transpose<C: Comm>(comm: &mut C, local: &[f64], n: usize) -> Result<Vec<f64>, MpiError> {
    let p = comm.nranks();
    let rows = local.len() / (2 * n);
    let cols_per = n / p;
    let mut parts: Vec<Vec<u8>> = Vec::with_capacity(p);
    for q in 0..p {
        // Sub-block destined for rank q: my rows × q's columns, transposed
        // already (column-major over my rows) so the receiver can place each
        // received row contiguously.
        let mut piece = Vec::with_capacity(cols_per * rows * 2);
        for c in 0..cols_per {
            let gc = q * cols_per + c;
            for r in 0..rows {
                piece.push(local[(r * n + gc) * 2]);
                piece.push(local[(r * n + gc) * 2 + 1]);
            }
        }
        parts.push(mpisim::bytes_of(&piece).to_vec());
    }
    let recvd = comm.alltoall_bytes(&parts)?;
    // My new rows are the old global columns [me*cols_per, …). The piece
    // from rank q covers the old-row range owned by q, i.e. new-column range
    // q*rows_q… — with n divisible by p all blocks are rows × cols_per.
    let mut out = vec![0.0f64; rows * n * 2];
    for (q, bytes) in recvd.iter().enumerate() {
        let piece: Vec<f64> = mpisim::vec_from_bytes(bytes);
        let qrows = piece.len() / (2 * cols_per);
        for c in 0..cols_per {
            for r in 0..qrows {
                let src = (c * qrows + r) * 2;
                let dst = (c * n + q * qrows + r) * 2;
                out[dst] = piece[src];
                out[dst + 1] = piece[src + 1];
            }
        }
    }
    Ok(out)
}

/// Distributed 2D FFT: local row FFTs, transpose, local row FFTs. The
/// result is left in *transposed* layout; applying the same routine with the
/// opposite sign and normalizing returns to the original layout.
fn fft2<C: Comm>(comm: &mut C, local: Vec<f64>, n: usize, sign: f64) -> Result<Vec<f64>, MpiError> {
    let rows = local.len() / (2 * n);
    let mut a = local;
    for r in 0..rows {
        fft_line(&mut a[r * 2 * n..(r + 1) * 2 * n], sign);
    }
    let mut t = transpose(comm, &a, n)?;
    for r in 0..rows {
        fft_line(&mut t[r * 2 * n..(r + 1) * 2 * n], sign);
    }
    Ok(t)
}

struct FtState {
    step: u64,
    /// Frequency-domain field, transposed layout, interleaved complex.
    xf: Vec<f64>,
    /// Running checksum (re, im).
    csum: [f64; 2],
}

impl FtState {
    fn save(&self, e: &mut Encoder) {
        e.u64(self.step);
        e.f64_slice(&self.xf);
        e.f64(self.csum[0]);
        e.f64(self.csum[1]);
    }
    fn load(b: &[u8]) -> Result<Self, MpiError> {
        let mut d = Decoder::new(b);
        let conv = |e: statesave::codec::CodecError| MpiError::Internal(e.to_string());
        Ok(FtState {
            step: d.u64().map_err(conv)?,
            xf: d.f64_vec().map_err(conv)?,
            csum: [d.f64().map_err(conv)?, d.f64().map_err(conv)?],
        })
    }
}

/// Evolution factor `exp(-α t (k1² + k2²))` for global frequency indices,
/// with the usual wrap to signed frequencies.
fn evolve_factor(k1: usize, k2: usize, n: usize, t: f64, alpha: f64) -> f64 {
    let s1 = if k1 <= n / 2 { k1 as f64 } else { k1 as f64 - n as f64 };
    let s2 = if k2 <= n / 2 { k2 as f64 } else { k2 as f64 - n as f64 };
    (-alpha * t * (s1 * s1 + s2 * s2)).exp()
}

/// Run FT; returns the magnitude of the accumulated global checksum.
pub fn run<C: Comm>(comm: &mut C, cfg: &FtConfig) -> Result<f64, MpiError> {
    let me = comm.rank();
    let p = comm.nranks();
    let n = cfg.n;
    assert!(n.is_power_of_two(), "FT grid must be a power of two");
    assert_eq!(n % p, 0, "FT rank count must divide n");
    let rows = n / p;
    let lo = me * rows;

    let mut st = match comm.take_restored_state() {
        Some(b) => FtState::load(&b)?,
        None => {
            // Deterministic pseudo-random initial field, then one forward
            // transform; the spectrum is the persistent state (as in NPB FT).
            let x: Vec<f64> = (0..rows * n * 2)
                .map(|k| {
                    let g = (lo * n * 2 + k) as u64;
                    ((g.wrapping_mul(0xD1B54A32D192ED03) >> 33) % 2048) as f64 / 2048.0 - 0.5
                })
                .collect();
            let xf = fft2(comm, x, n, -1.0)?;
            FtState { step: 0, xf, csum: [0.0, 0.0] }
        }
    };

    while st.step < cfg.steps {
        let t = (st.step + 1) as f64;
        // Evolve the spectrum. Layout is transposed: local row r is global
        // frequency column lo+r; position j in the row is frequency row j.
        let mut w = st.xf.clone();
        for r in 0..rows {
            let k2 = lo + r;
            for j in 0..n {
                let f = evolve_factor(j, k2, n, t, cfg.alpha);
                w[(r * n + j) * 2] *= f;
                w[(r * n + j) * 2 + 1] *= f;
            }
        }
        // Inverse transform back to physical (and back to row layout).
        let mut xt = fft2(comm, w, n, 1.0)?;
        let scale = 1.0 / (n as f64 * n as f64);
        for v in xt.iter_mut() {
            *v *= scale;
        }
        // NPB-style checksum: sample 2n strided points of the global field.
        let mut local_cs = [0.0f64; 2];
        for q in 1..=(2 * n) {
            let gi = (5 * q) % n; // global row
            let gj = (3 * q) % n; // global column
            if gi >= lo && gi < lo + rows {
                local_cs[0] += xt[((gi - lo) * n + gj) * 2];
                local_cs[1] += xt[((gi - lo) * n + gj) * 2 + 1];
            }
        }
        let cs = comm.allreduce_f64_vec(&local_cs, Op::Sum)?;
        st.csum[0] += cs[0];
        st.csum[1] += cs[1];
        st.step += 1;
        // Checkpoint at the bottom of the evolution loop.
        comm.pragma(&mut |e| st.save(e))?;
    }

    Ok((st.csum[0] * st.csum[0] + st.csum[1] * st.csum[1]).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_roundtrip_identity() {
        let n = 64;
        let mut data: Vec<f64> =
            (0..2 * n).map(|k| (k as f64 * 0.61).sin() + 0.2 * (k as f64 * 1.7).cos()).collect();
        let orig = data.clone();
        fft_line(&mut data, -1.0);
        fft_line(&mut data, 1.0);
        for v in data.iter_mut() {
            *v /= n as f64;
        }
        for k in 0..2 * n {
            assert!((data[k] - orig[k]).abs() < 1e-10, "k={k}");
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let n = 16;
        let mut data = vec![0.0; 2 * n];
        data[0] = 1.0; // delta at zero
        fft_line(&mut data, -1.0);
        for k in 0..n {
            assert!((data[2 * k] - 1.0).abs() < 1e-12);
            assert!(data[2 * k + 1].abs() < 1e-12);
        }
    }

    #[test]
    fn transpose_is_involution() {
        let n = 8;
        let out = mpisim::launch(&mpisim::JobSpec::new(2), |ctx| {
            let rows = n / 2;
            let lo = ctx.rank() * rows;
            let local: Vec<f64> = (0..rows * n * 2).map(|k| (lo * n * 2 + k) as f64).collect();
            let t = transpose(ctx, &local, n)?;
            let tt = transpose(ctx, &t, n)?;
            Ok(local.iter().zip(&tt).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max))
        })
        .unwrap();
        for r in out.results {
            assert_eq!(r, 0.0);
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let cfg = FtConfig { n: 32, steps: 3, alpha: 1e-4 };
        let serial =
            mpisim::launch(&mpisim::JobSpec::new(1), |ctx| run(ctx, &cfg)).unwrap().results[0];
        for p in [2usize, 4] {
            let par =
                mpisim::launch(&mpisim::JobSpec::new(p), |ctx| run(ctx, &cfg)).unwrap().results[0];
            assert!(
                (serial - par).abs() <= 1e-8 * serial.abs().max(1e-12),
                "p={p}: {par} vs {serial}"
            );
        }
    }
}
