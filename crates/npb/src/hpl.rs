//! HPL — right-looking LU factorization with partial pivoting and a
//! distributed triangular solve (the High-Performance Linpack skeleton).
//!
//! Columns are distributed cyclically (column `j` lives on rank `j mod p`,
//! the 1D special case of HPL's block-cyclic layout). Each elimination step
//! the panel owner selects the pivot, and broadcasts the pivot index plus the
//! multiplier column; every rank then swaps rows and updates its share of
//! the trailing matrix — broadcast-dominated communication with no global
//! barriers, exactly the property the paper highlights about HPL (§1). The
//! checkpoint location is "the top of the innermost driver loop" (§6.3),
//! i.e. the top of the panel loop here.

use crate::backend::{Comm, Op};
use mpisim::MpiError;
use statesave::codec::{Decoder, Encoder};

/// HPL parameters.
#[derive(Clone, Copy, Debug)]
pub struct HplConfig {
    /// Matrix order.
    pub n: usize,
}

/// Deterministic well-conditioned test matrix: diagonally dominant with
/// pseudo-random off-diagonal entries in (-0.5, 0.5).
fn a_entry(i: usize, j: usize, n: usize) -> f64 {
    if i == j {
        return n as f64;
    }
    let h = (i.wrapping_mul(0x9E3779B9).wrapping_add(j.wrapping_mul(0x85EBCA6B))) as u32;
    ((h % 4096) as f64) / 4096.0 - 0.5
}

fn b_entry(i: usize) -> f64 {
    ((i.wrapping_mul(0xC2B2AE35) % 1024) as f64) / 1024.0 + 0.5
}

struct HplState {
    /// Next elimination step (columns `0..k` are factored).
    k: usize,
    /// Local columns, each of length `n`, in ascending global-column order.
    cols: Vec<f64>,
    /// Right-hand side, replicated (pivot swaps and updates applied).
    b: Vec<f64>,
    /// Pivot row chosen at each completed step (for verification).
    piv: Vec<u64>,
}

impl HplState {
    fn save(&self, e: &mut Encoder) {
        e.usize(self.k);
        e.f64_slice(&self.cols);
        e.f64_slice(&self.b);
        e.u64_slice(&self.piv);
    }
    fn load(bytes: &[u8]) -> Result<Self, MpiError> {
        let mut d = Decoder::new(bytes);
        let conv = |e: statesave::codec::CodecError| MpiError::Internal(e.to_string());
        Ok(HplState {
            k: d.usize().map_err(conv)?,
            cols: d.f64_vec().map_err(conv)?,
            b: d.f64_vec().map_err(conv)?,
            piv: d.u64_vec().map_err(conv)?,
        })
    }
}

/// Global column index of local column `lc` on `rank`.
#[inline]
fn gcol(rank: usize, p: usize, lc: usize) -> usize {
    lc * p + rank
}

/// Number of local columns on `rank` for an order-`n` matrix.
#[inline]
fn ncols(rank: usize, p: usize, n: usize) -> usize {
    n / p + usize::from(rank < n % p)
}

/// Local column index of global column `j` (must be owned by `j % p`).
#[inline]
fn lcol(j: usize, p: usize) -> usize {
    j / p
}

/// Run HPL; returns the solution checksum `||x||_2`. A zero-tolerance
/// residual check runs inside (debug assertions) so a wrong factorization
/// cannot silently produce a "checksum".
pub fn run<C: Comm>(comm: &mut C, cfg: &HplConfig) -> Result<f64, MpiError> {
    let me = comm.rank();
    let p = comm.nranks();
    let n = cfg.n;
    let mync = ncols(me, p, n);

    let mut st = match comm.take_restored_state() {
        Some(bytes) => HplState::load(&bytes)?,
        None => {
            let mut cols = Vec::with_capacity(mync * n);
            for lc in 0..mync {
                let j = gcol(me, p, lc);
                cols.extend((0..n).map(|i| a_entry(i, j, n)));
            }
            let b = (0..n).map(b_entry).collect();
            HplState { k: 0, cols, b, piv: Vec::with_capacity(n) }
        }
    };

    while st.k < n {
        // §6.3: checkpoint at the top of the innermost driver loop.
        comm.pragma(&mut |e| st.save(e))?;
        let k = st.k;
        let owner = k % p;

        // The owner selects the pivot and forms the multiplier column.
        let mut msg: Vec<f64> = if me == owner {
            let lc = lcol(k, p);
            let col = &mut st.cols[lc * n..(lc + 1) * n];
            let mut piv = k;
            for i in k + 1..n {
                if col[i].abs() > col[piv].abs() {
                    piv = i;
                }
            }
            col.swap(k, piv);
            let d = col[k];
            debug_assert!(d.abs() > 1e-300, "HPL: zero pivot at step {k}");
            for i in k + 1..n {
                col[i] /= d;
            }
            // Payload: pivot row, then the multipliers L[k+1..n, k].
            let mut m = Vec::with_capacity(1 + n - k - 1);
            m.push(piv as f64);
            m.extend_from_slice(&col[k + 1..]);
            m
        } else {
            Vec::new()
        };
        {
            let mut bytes = mpisim::bytes_of(&msg).to_vec();
            comm.bcast_bytes(owner, &mut bytes)?;
            msg = mpisim::vec_from_bytes(&bytes);
        }
        let piv = msg[0] as usize;
        let lmult = &msg[1..]; // multipliers for rows k+1..n

        // Everyone applies the row swap to their unfactored columns and to b
        // (the owner's pivot column was swapped before the broadcast).
        if piv != k {
            for lc in 0..mync {
                let j = gcol(me, p, lc);
                if j > k {
                    st.cols.swap(lc * n + k, lc * n + piv);
                }
            }
            st.b.swap(k, piv);
        }
        // Rank-1 trailing update on owned columns j > k, and on b.
        for lc in 0..mync {
            let j = gcol(me, p, lc);
            if j > k {
                let col = &mut st.cols[lc * n..(lc + 1) * n];
                let akj = col[k];
                if akj != 0.0 {
                    for (i, &l) in lmult.iter().enumerate() {
                        col[k + 1 + i] -= l * akj;
                    }
                }
            }
        }
        let bk = st.b[k];
        if bk != 0.0 {
            for (i, &l) in lmult.iter().enumerate() {
                st.b[k + 1 + i] -= l * bk;
            }
        }
        st.piv.push(piv as u64);
        st.k += 1;
    }

    // Distributed back-substitution: U x = b. The owner of column k solves
    // x[k] and broadcasts the update contributions U[0..k, k] * x[k].
    let mut x = vec![0.0f64; n];
    let mut bb = st.b.clone();
    for k in (0..n).rev() {
        let owner = k % p;
        let mut msg: Vec<f64> = if me == owner {
            let lc = lcol(k, p);
            let col = &st.cols[lc * n..(lc + 1) * n];
            let xk = bb[k] / col[k];
            let mut m = Vec::with_capacity(1 + k);
            m.push(xk);
            m.extend(col[..k].iter().map(|&u| u * xk));
            m
        } else {
            Vec::new()
        };
        {
            let mut bytes = mpisim::bytes_of(&msg).to_vec();
            comm.bcast_bytes(owner, &mut bytes)?;
            msg = mpisim::vec_from_bytes(&bytes);
        }
        x[k] = msg[0];
        for (i, upd) in msg[1..].iter().enumerate() {
            bb[i] -= upd;
        }
    }

    // Verify the residual of the original system on rank 0's authority:
    // every rank checks its share of rows (rows are fully known since A is
    // regenerable). HPL reports a scaled residual; we assert it is tiny.
    let mut local_res: f64 = 0.0;
    for i in (me..n).step_by(p) {
        let mut ax = 0.0;
        for (j, &xj) in x.iter().enumerate() {
            ax += a_entry(i, j, n) * xj;
        }
        local_res = local_res.max((ax - b_entry(i)).abs());
    }
    let res = comm.allreduce_f64(local_res, Op::Max)?;
    if res > 1e-6 * n as f64 {
        return Err(MpiError::Internal(format!("HPL residual check failed: {res}")));
    }

    Ok(x.iter().map(|v| v * v).sum::<f64>().sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cyclic_layout_is_a_partition() {
        for n in [10usize, 13, 48] {
            for p in [1usize, 2, 3, 5] {
                let mut seen = vec![false; n];
                for r in 0..p {
                    for lc in 0..ncols(r, p, n) {
                        let j = gcol(r, p, lc);
                        assert!(j < n);
                        assert!(!seen[j]);
                        assert_eq!(j % p, r);
                        assert_eq!(lcol(j, p), lc);
                        seen[j] = true;
                    }
                }
                assert!(seen.iter().all(|&s| s));
            }
        }
    }

    #[test]
    fn serial_solves_the_system() {
        let cfg = HplConfig { n: 32 };
        let out = mpisim::launch(&mpisim::JobSpec::new(1), |ctx| run(ctx, &cfg)).unwrap();
        assert!(out.results[0] > 0.0); // the residual check inside run() is the real assertion
    }

    #[test]
    fn parallel_matches_serial() {
        let cfg = HplConfig { n: 40 };
        let serial =
            mpisim::launch(&mpisim::JobSpec::new(1), |ctx| run(ctx, &cfg)).unwrap().results[0];
        for p in [2usize, 3, 4] {
            let par =
                mpisim::launch(&mpisim::JobSpec::new(p), |ctx| run(ctx, &cfg)).unwrap().results[0];
            assert!(
                (serial - par).abs() <= 1e-9 * serial.abs().max(1e-12),
                "p={p}: {par} vs {serial}"
            );
        }
    }
}
