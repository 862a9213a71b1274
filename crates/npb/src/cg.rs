//! CG — conjugate gradient on a banded symmetric positive-definite system.
//!
//! Row-block partitioning; each mat-vec exchanges a two-row halo with the
//! neighbouring ranks and each dot product is an all-reduce — the NPB CG
//! communication skeleton (no barriers anywhere in the iteration). The
//! checkpoint location is "the bottom of the main loop in `conj_grad`"
//! (§6.3).

use crate::backend::{Comm, Op};
use mpisim::MpiError;
use statesave::codec::{Decoder, Encoder};

/// CG problem parameters.
#[derive(Clone, Copy, Debug)]
pub struct CgConfig {
    /// Global unknowns.
    pub n: usize,
    /// CG iterations.
    pub iters: u64,
}

impl CgConfig {
    /// Class presets.
    pub fn class(c: crate::Class) -> Self {
        match c {
            crate::Class::S => CgConfig { n: 256, iters: 8 },
            crate::Class::W => CgConfig { n: 4_096, iters: 25 },
            crate::Class::A => CgConfig { n: 65_536, iters: 60 },
        }
    }
}

/// The banded SPD operator: pentadiagonal with deterministic pseudo-random
/// off-diagonal weights, strongly diagonally dominant.
fn coeff(i: usize, j: usize) -> f64 {
    if i == j {
        return 8.0;
    }
    let d = i.abs_diff(j);
    if d > 2 {
        return 0.0;
    }
    // Symmetric pseudo-random weight in (-1, 0].
    let (a, b) = if i < j { (i, j) } else { (j, i) };
    let h = (a.wrapping_mul(0x9e3779b9).wrapping_add(b.wrapping_mul(0x85ebca6b))) as u32;
    -((h % 997) as f64) / 1994.0 - 0.25
}

struct CgState {
    iter: u64,
    x: Vec<f64>,
    r: Vec<f64>,
    p: Vec<f64>,
    rho: f64,
}

impl CgState {
    fn save(&self, e: &mut Encoder) {
        e.u64(self.iter);
        e.f64_slice(&self.x);
        e.f64_slice(&self.r);
        e.f64_slice(&self.p);
        e.f64(self.rho);
    }
    fn load(b: &[u8]) -> Result<Self, MpiError> {
        let mut d = Decoder::new(b);
        let conv = |e: statesave::codec::CodecError| MpiError::Internal(e.to_string());
        Ok(CgState {
            iter: d.u64().map_err(conv)?,
            x: d.f64_vec().map_err(conv)?,
            r: d.f64_vec().map_err(conv)?,
            p: d.f64_vec().map_err(conv)?,
            rho: d.f64().map_err(conv)?,
        })
    }
}

/// Halo-exchange mat-vec: `out = A * v` on the local rows, pulling two
/// boundary entries from each neighbour.
fn matvec<C: Comm>(
    comm: &mut C,
    v: &[f64],
    lo: usize,
    n: usize,
    tagbase: i32,
) -> Result<Vec<f64>, MpiError> {
    let me = comm.rank();
    let p = comm.nranks();
    let nl = v.len();
    // Exchange two boundary values with each existing neighbour.
    let mut left_halo: Vec<f64> = Vec::new();
    let mut right_halo: Vec<f64> = Vec::new();
    if me > 0 {
        let cnt = nl.min(2);
        comm.send_f64(me - 1, tagbase, &v[..cnt])?;
    }
    if me + 1 < p {
        let s = nl.saturating_sub(2);
        comm.send_f64(me + 1, tagbase + 1, &v[s..])?;
    }
    if me > 0 {
        left_halo = comm.recv_f64((me - 1) as i32, tagbase + 1)?;
    }
    if me + 1 < p {
        right_halo = comm.recv_f64((me + 1) as i32, tagbase)?;
    }
    let fetch = |g: i64| -> f64 {
        if g < 0 || g as usize >= n {
            return 0.0;
        }
        let g = g as usize;
        if g >= lo && g < lo + nl {
            v[g - lo]
        } else if g < lo {
            // From the left halo (the neighbour's last entries).
            let off = lo - g; // 1 or 2
            let lh = left_halo.len();
            if off <= lh {
                left_halo[lh - off]
            } else {
                0.0
            }
        } else {
            let off = g - (lo + nl); // 0 or 1
            if off < right_halo.len() {
                right_halo[off]
            } else {
                0.0
            }
        }
    };
    let mut out = vec![0.0; nl];
    for (li, o) in out.iter_mut().enumerate() {
        let gi = lo + li;
        let mut acc = 0.0;
        for gj in gi.saturating_sub(2)..=(gi + 2).min(n - 1) {
            let c = coeff(gi, gj);
            if c != 0.0 {
                acc += c * fetch(gj as i64);
            }
        }
        *o = acc;
    }
    Ok(out)
}

/// Run CG; returns the solution norm as the verification value.
pub fn run<C: Comm>(comm: &mut C, cfg: &CgConfig) -> Result<f64, MpiError> {
    let rows = crate::split(cfg.n, comm.rank(), comm.nranks());
    let (lo, nl) = (rows.start, rows.len());

    let mut st = match comm.take_restored_state() {
        Some(b) => CgState::load(&b)?,
        None => {
            // b_i = deterministic in (0,1]; x0 = 0 => r = b, p = b.
            let b: Vec<f64> =
                rows.map(|i| ((i.wrapping_mul(0x9e3779b9) % 1000) as f64 + 1.0) / 1000.0).collect();
            let local_dot: f64 = b.iter().map(|x| x * x).sum();
            CgState { iter: 0, x: vec![0.0; nl], r: b.clone(), p: b, rho: local_dot }
        }
    };
    if st.iter == 0 {
        // rho starts as the *global* <r, r>.
        let local: f64 = st.r.iter().map(|x| x * x).sum();
        st.rho = comm.allreduce_f64(local, Op::Sum)?;
    }

    while st.iter < cfg.iters {
        let q = matvec(comm, &st.p, lo, cfg.n, 100)?;
        let local_pq: f64 = st.p.iter().zip(&q).map(|(a, b)| a * b).sum();
        let pq = comm.allreduce_f64(local_pq, Op::Sum)?;
        let alpha = st.rho / pq;
        for i in 0..nl {
            st.x[i] += alpha * st.p[i];
            st.r[i] -= alpha * q[i];
        }
        let local_rr: f64 = st.r.iter().map(|x| x * x).sum();
        let rho_new = comm.allreduce_f64(local_rr, Op::Sum)?;
        let beta = rho_new / st.rho;
        for i in 0..nl {
            st.p[i] = st.r[i] + beta * st.p[i];
        }
        st.rho = rho_new;
        st.iter += 1;
        // §6.3: checkpoint location at the bottom of the conj_grad loop.
        comm.pragma(&mut |e| st.save(e))?;
    }

    let local_norm: f64 = st.x.iter().map(|x| x * x).sum();
    let norm = comm.allreduce_f64(local_norm, Op::Sum)?;
    Ok(norm.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operator_is_symmetric_and_dominant() {
        for i in 0..50usize {
            for j in 0..50usize {
                assert_eq!(coeff(i, j), coeff(j, i));
            }
            let off: f64 = (0..50).filter(|&j| j != i).map(|j| coeff(i, j).abs()).sum();
            assert!(coeff(i, i) > off, "row {i} not diagonally dominant");
        }
    }

    #[test]
    fn serial_cg_reduces_residual() {
        let cfg = CgConfig { n: 128, iters: 30 };
        let out = mpisim::launch(&mpisim::JobSpec::new(1), |ctx| {
            let norm = run(ctx, &cfg)?;
            // Recompute the residual directly.
            Ok(norm)
        })
        .unwrap();
        assert!(out.results[0] > 0.0);
    }

    #[test]
    fn parallel_matches_serial() {
        let cfg = CgConfig { n: 192, iters: 12 };
        let serial =
            mpisim::launch(&mpisim::JobSpec::new(1), |ctx| run(ctx, &cfg)).unwrap().results[0];
        for p in [2usize, 3, 4] {
            let par =
                mpisim::launch(&mpisim::JobSpec::new(p), |ctx| run(ctx, &cfg)).unwrap().results[0];
            assert!(
                (serial - par).abs() < 1e-9 * serial.abs().max(1.0),
                "p={p}: serial {serial} vs parallel {par}"
            );
        }
    }
}
