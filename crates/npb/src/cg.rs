//! CG — conjugate gradient on a banded symmetric positive-definite system.
//!
//! Row-block partitioning; each mat-vec exchanges a two-row halo with the
//! neighbouring ranks and each dot product is an all-reduce — the NPB CG
//! communication skeleton (no barriers anywhere in the iteration). The
//! checkpoint location is "the bottom of the main loop in `conj_grad`"
//! (§6.3).
//!
//! Each incarnation builds its rows of the operator once, as a `Band`
//! stored diagonal by diagonal, so the mat-vec is packed multiplies and adds
//! over an extended vector `[2 halo | local | 2 halo]`. The band comes from
//! the config and is not checkpointed. The halo rows are taken from their
//! owners: ranks `me ± 1`, and also `me ± 2` when a neighbour owns a single
//! row.
//!
//! Dot products take two passes: the products go to a scratch buffer, then
//! are summed left to right, so the bits equal a one-pass sum. Once the
//! residual has converged the products are subnormal, and a scalar multiply
//! with a subnormal result takes a microcode assist each; the packed
//! multiplies of the first pass take one per vector.

use crate::backend::{Comm, Op};
use mpisim::MpiError;
use statesave::codec::{Decoder, Encoder};
use std::ops::Range;

/// CG problem parameters.
#[derive(Clone, Copy, Debug)]
pub struct CgConfig {
    /// Global unknowns.
    pub n: usize,
    /// CG iterations.
    pub iters: u64,
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

/// The local rows of the operator, built once from [`coeff`]: `diag[k][i]`
/// multiplies global column `lo + i + k - 2`, and is 0.0 where that column
/// lies outside the grid.
struct Band {
    diag: [Vec<f64>; 5],
}

impl Band {
    fn new(n: usize, rows: Range<usize>) -> Self {
        let diag = std::array::from_fn(|k| {
            rows.clone()
                .map(|i| match (i + k).checked_sub(2) {
                    Some(j) if j < n => coeff(i, j),
                    _ => 0.0,
                })
                .collect()
        });
        Band { diag }
    }

    /// `q = A v` on the local rows, reading `ext = [2 halo | v | 2 halo]`.
    /// Each row adds its products onto 0.0 in column order. A column outside
    /// the grid adds 0.0 · 0.0, which changes no bit: a sum that starts at
    /// +0.0 is never -0.0, so the global edge rows come out as the sum of
    /// their in-grid terms alone.
    fn apply(&self, ext: &[f64], q: &mut [f64]) {
        let nl = q.len();
        let [d0, d1, d2, d3, d4] = self.diag.each_ref().map(|d| &d[..nl]);
        let [e0, e1, e2, e3, e4] = std::array::from_fn(|k| &ext[k..k + nl]);
        for i in 0..nl {
            q[i] =
                0.0 + d0[i] * e0[i] + d1[i] * e1[i] + d2[i] * e2[i] + d3[i] * e3[i] + d4[i] * e4[i];
        }
    }
}

/// Halo-exchange mat-vec: `q = A v` on this rank's rows, whose entries `v` holds.
///
/// The two rows on each side belong to ranks `me ± 1`, or to `me ± 2` as
/// well when a neighbour owns a single row. Each rank sends every
/// neighbour the part of `v` in that neighbour's halo, then receives its
/// own halo rows into `ext`; a rank without rows trades nothing. A message
/// travelling left carries `tagbase`, one travelling right `tagbase + 1`.
fn matvec<C: Comm>(
    comm: &mut C,
    band: &Band,
    n: usize,
    v: &[f64],
    ext: &mut [f64],
    q: &mut [f64],
    tagbase: i32,
) -> Result<(), MpiError> {
    let (me, p) = (comm.rank(), comm.nranks());
    let mine = crate::split(n, me, p);
    let lo = mine.start;
    let halo = |rows: &Range<usize>| {
        if rows.is_empty() {
            return [0..0, 0..0];
        }
        [rows.start.saturating_sub(2)..rows.start, rows.end..n.min(rows.end + 2)]
    };
    let meet = |a: &Range<usize>, b: &Range<usize>| a.start.max(b.start)..a.end.min(b.end);
    let tag = |from: usize, to: usize| tagbase + i32::from(from < to);
    let near = [me.wrapping_sub(1), me.wrapping_sub(2), me + 1, me + 2];
    let near = near.into_iter().filter(|&r| r < p).map(|r| (r, crate::split(n, r, p)));
    for (r, theirs) in near.clone() {
        for s in halo(&theirs).iter().map(|h| meet(h, &mine)).filter(|s| !s.is_empty()) {
            comm.send_f64(r, tag(me, r), &v[s.start - lo..s.end - lo])?;
        }
    }
    for (r, theirs) in near {
        for s in halo(&mine).iter().map(|h| meet(h, &theirs)).filter(|s| !s.is_empty()) {
            let got = comm.recv_f64(r as i32, tag(r, me))?;
            ext[s.start + 2 - lo..s.end + 2 - lo].copy_from_slice(&got);
        }
    }
    ext[2..2 + v.len()].copy_from_slice(v);
    band.apply(ext, q);
    Ok(())
}

/// `Σ a_i · b_i` in index order, in two passes through `prod`: the
/// products first, which compile to packed multiplies, then their sum left
/// to right, which has the bits of a one-pass `map(|(a, b)| a * b).sum()`.
fn dot(a: &[f64], b: &[f64], prod: &mut [f64]) -> f64 {
    for ((o, x), y) in prod.iter_mut().zip(a).zip(b) {
        *o = x * y;
    }
    prod.iter().sum()
}

/// Run CG; returns the solution norm as the verification value.
pub fn run<C: Comm>(comm: &mut C, cfg: &CgConfig) -> Result<f64, MpiError> {
    let rows = crate::split(cfg.n, comm.rank(), comm.nranks());
    let nl = rows.len();
    let band = Band::new(cfg.n, rows.clone());
    let (mut ext, mut q, mut prod) = (vec![0.0; nl + 4], vec![0.0; nl], vec![0.0; nl]);

    let mut st = match comm.take_restored_state() {
        Some(b) => CgState::load(&b)?,
        None => {
            // b_i = deterministic in (0,1]; x0 = 0 => r = b, p = b.
            let b: Vec<f64> =
                rows.map(|i| ((i.wrapping_mul(0x9e3779b9) % 1000) as f64 + 1.0) / 1000.0).collect();
            CgState { iter: 0, x: vec![0.0; nl], r: b.clone(), p: b, rho: 0.0 }
        }
    };
    if st.iter == 0 {
        // rho starts as the *global* <r, r>.
        st.rho = comm.allreduce_f64(dot(&st.r, &st.r, &mut prod), Op::Sum)?;
    }

    while st.iter < cfg.iters {
        matvec(comm, &band, cfg.n, &st.p, &mut ext, &mut q, 100)?;
        let pq = comm.allreduce_f64(dot(&st.p, &q, &mut prod), Op::Sum)?;
        // Once the residual's products underflow, `pq` and then `rho` are
        // 0: step by 0 instead of dividing by it, so x stays finite.
        let alpha = if pq == 0.0 { 0.0 } else { st.rho / pq };
        for i in 0..nl {
            st.x[i] += alpha * st.p[i];
            st.r[i] -= alpha * q[i];
        }
        let rho_new = comm.allreduce_f64(dot(&st.r, &st.r, &mut prod), Op::Sum)?;
        let beta = if st.rho == 0.0 { 0.0 } else { rho_new / st.rho };
        for i in 0..nl {
            st.p[i] = st.r[i] + beta * st.p[i];
        }
        st.rho = rho_new;
        st.iter += 1;
        // §6.3: checkpoint location at the bottom of the conj_grad loop.
        comm.pragma(&mut |e| st.save(e))?;
    }

    let norm = comm.allreduce_f64(dot(&st.x, &st.x, &mut prod), Op::Sum)?;
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

    fn solve(cfg: CgConfig, p: usize) -> f64 {
        mpisim::launch(&mpisim::JobSpec::new(p), |ctx| run(ctx, &cfg)).unwrap().results[0]
    }

    /// Includes rank counts past n / 2, where some ranks own a single row
    /// and the halo spans two ranks on a side.
    #[test]
    fn parallel_matches_serial() {
        let cases: [(usize, &[usize]); 3] =
            [(192, &[2, 3, 4]), (10, &[6, 7, 10, 12]), (37, &[20, 30])];
        for (n, ranks) in cases {
            let cfg = CgConfig { n, iters: 12 };
            let serial = solve(cfg, 1);
            for &p in ranks {
                let par = solve(cfg, p);
                assert!(
                    (serial - par).abs() < 1e-12 * serial.abs().max(1.0),
                    "n={n} p={p}: serial {serial} vs parallel {par}"
                );
            }
        }
    }

    /// Small systems reach an exactly zero residual; the iterate then stays
    /// where it is instead of turning NaN.
    #[test]
    fn zero_residual_keeps_the_solution() {
        for n in [64, 1024] {
            let done = solve(CgConfig { n, iters: 150 }, 1);
            assert!(done.is_finite(), "n={n}: {done}");
            assert_eq!(solve(CgConfig { n, iters: 400 }, 1).to_bits(), done.to_bits(), "n={n}");
        }
    }
}
