//! SP — ADI with scalar tridiagonal line solves (the NPB SP skeleton).
//!
//! Alternating-direction implicit time stepping on an `n x n` grid
//! partitioned in block rows ([`crate::split`]): the x-direction solves are
//! rank-local; the y-direction solves run a *pipelined Thomas algorithm*
//! across ranks. The columns are cut into [`crate::wave_tiles`] tiles.
//! Forward elimination flows down the rank pipeline one tile at a time —
//! rank `r` receives the upper neighbour's last `(c', d')` pair for a tile,
//! eliminates the tile in all its rows and forwards its own last pair — so
//! rank `r + 1` works on tile `t` while rank `r` computes tile `t + 1`.
//! Back-substitution then flows up the pipeline, again tile by tile. Each
//! column's recurrence is independent of the others, so any tile order
//! gives the same bits. Point-to-point messages only, no barriers.
//!
//! The coefficients are constant, so the Thomas factors `m` and `c'`
//! depend only on the point's position along the line; each incarnation
//! computes them once (`Factors`). The forward messages still carry the
//! `c'` half of each pair, so the pipeline moves NPB's communication
//! volume, although the receiver reads its own table entry.
//!
//! Ranks at or past `n` own no rows: the pipeline runs over ranks
//! `0..min(p, n)`, and the others skip the solves but still reach every
//! pragma and the final all-reduce. The checkpoint location is "the bottom
//! of the `step` loop" (§6.3).

use crate::backend::{Comm, Op};
use mpisim::MpiError;
use statesave::codec::{Decoder, Encoder};

/// SP parameters.
#[derive(Clone, Copy, Debug)]
pub struct SpConfig {
    /// Grid is `n x n`.
    pub n: usize,
    /// Time steps.
    pub steps: u64,
    /// Implicit diffusion number (off-diagonal weight).
    pub lambda: f64,
}

/// The Thomas factors of a line of `(1+2λ) x_k - λ x_{k±1} = d_k`:
/// `m[k]` (`m_0 = b`, `m_k = b − a·c'_{k−1}`) and `c'[k] = a / m[k]`. They
/// depend only on `(λ, k)`, never on the field, so each incarnation computes
/// them once; they are derived data and are not checkpointed.
struct Factors {
    a: f64,
    m: Vec<f64>,
    cp: Vec<f64>,
}

impl Factors {
    fn new(len: usize, lambda: f64) -> Self {
        let b = 1.0 + 2.0 * lambda;
        let a = -lambda;
        let (mut m, mut cp) = (Vec::with_capacity(len), Vec::with_capacity(len));
        for k in 0..len {
            m.push(if k == 0 { b } else { b - a * cp[k - 1] });
            cp.push(a / m[k]);
        }
        Factors { a, m, cp }
    }
}

/// Local tridiagonal solve (Thomas) along one row.
fn solve_line(d: &mut [f64], f: &Factors) {
    let n = d.len();
    d[0] /= f.m[0];
    for i in 1..n {
        d[i] = (d[i] - f.a * d[i - 1]) / f.m[i];
    }
    for i in (0..n - 1).rev() {
        d[i] -= f.cp[i] * d[i + 1];
    }
}

struct SpState {
    step: u64,
    u: Vec<f64>, // rows x n row-major
}

impl SpState {
    fn save(&self, e: &mut Encoder) {
        e.u64(self.step);
        e.f64_slice(&self.u);
    }
    fn load(b: &[u8]) -> Result<Self, MpiError> {
        let mut d = Decoder::new(b);
        let conv = |e: statesave::codec::CodecError| MpiError::Internal(e.to_string());
        Ok(SpState { step: d.u64().map_err(conv)?, u: d.f64_vec().map_err(conv)? })
    }
}

/// Pipelined Thomas elimination down the ranks, then back-substitution
/// up, one column tile at a time (see the module docs). Global row
/// `g = lo + r` uses the factors of line point `g`.
fn y_solve<C: Comm>(comm: &mut C, u: &mut [f64], n: usize, f: &Factors) -> Result<(), MpiError> {
    let me = comm.rank();
    let rows = u.len() / n;
    if rows == 0 {
        return Ok(());
    }
    let lo = crate::split(n, me, comm.nranks()).start;
    let active = comm.nranks().min(n);
    let tiles = crate::wave_tiles(n);

    // Forward elimination: per tile, receive the previous rank's last
    // (c', d') pair per column. `c'` equals this rank's `cp[lo - 1]`.
    for t in 0..tiles {
        let cols = crate::split(n, t, tiles);
        let w = cols.len();
        let carry = if me > 0 { comm.recv_f64(me as i32 - 1, 60)? } else { vec![0.0; 2 * w] };
        let (cp_prev, dp_prev) = carry.split_at(w);
        debug_assert!(me == 0 || cp_prev.iter().all(|c| c.to_bits() == f.cp[lo - 1].to_bits()));
        for r in 0..rows {
            for (k, j) in cols.clone().enumerate() {
                let dprev = if r == 0 { dp_prev[k] } else { u[(r - 1) * n + j] };
                let idx = r * n + j;
                let dval = if lo + r == 0 { u[idx] } else { u[idx] - f.a * dprev };
                u[idx] = dval / f.m[lo + r];
            }
        }
        if me + 1 < active {
            let last = (rows - 1) * n;
            let mut send = vec![f.cp[lo + rows - 1]; w];
            send.extend_from_slice(&u[last..][cols]);
            comm.send_f64(me + 1, 60, &send)?;
        }
    }

    // Back-substitution: per tile, receive the next rank's first solution
    // row. On the last rank the last row is already the solution.
    for t in 0..tiles {
        let cols = crate::split(n, t, tiles);
        let below = if me + 1 < active { Some(comm.recv_f64(me as i32 + 1, 61)?) } else { None };
        for r in (0..rows).rev() {
            for (k, j) in cols.clone().enumerate() {
                let next = if r + 1 < rows {
                    u[(r + 1) * n + j]
                } else if let Some(below) = &below {
                    below[k]
                } else {
                    continue;
                };
                u[r * n + j] -= f.cp[lo + r] * next;
            }
        }
        if me > 0 {
            comm.send_f64(me - 1, 61, &u[cols])?;
        }
    }
    Ok(())
}

/// Run SP; returns the field norm after the final step.
pub fn run<C: Comm>(comm: &mut C, cfg: &SpConfig) -> Result<f64, MpiError> {
    let n = cfg.n;
    let mine = crate::split(n, comm.rank(), comm.nranks());
    let (lo, rows) = (mine.start, mine.len());

    let mut st = match comm.take_restored_state() {
        Some(b) => SpState::load(&b)?,
        None => {
            let u: Vec<f64> = (0..rows * n)
                .map(|k| {
                    let g = (lo * n + k) as u64;
                    ((g.wrapping_mul(0x2545F4914F6CDD1D) >> 33) % 1000) as f64 / 1000.0
                })
                .collect();
            SpState { step: 0, u }
        }
    };

    let f = Factors::new(n, cfg.lambda);
    while st.step < cfg.steps {
        // x-direction implicit solve: local per row.
        for r in 0..rows {
            solve_line(&mut st.u[r * n..(r + 1) * n], &f);
        }
        // y-direction implicit solve: pipelined across ranks.
        y_solve(comm, &mut st.u, n, &f)?;
        // Mild forcing keeps the field from decaying to zero.
        for (k, v) in st.u.iter_mut().enumerate() {
            *v += 1e-3 * (((lo * n + k) % 7) as f64 - 3.0);
        }
        st.step += 1;
        // §6.3: checkpoint at the bottom of the step loop.
        comm.pragma(&mut |e| st.save(e))?;
    }

    let local: f64 = st.u.iter().map(|x| x * x).sum();
    let norm = comm.allreduce_f64(local, Op::Sum)?;
    Ok((norm / (n * n) as f64).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thomas_line_solver_exact() {
        // Solve (1+2λ)x - λx_neighbors = d for a known x.
        let n = 10;
        let lambda = 0.3;
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut d = vec![0.0; n];
        for i in 0..n {
            let left = if i > 0 { x_true[i - 1] } else { 0.0 };
            let right = if i + 1 < n { x_true[i + 1] } else { 0.0 };
            d[i] = (1.0 + 2.0 * lambda) * x_true[i] - lambda * (left + right);
        }
        solve_line(&mut d, &Factors::new(n, lambda));
        for i in 0..n {
            assert!((d[i] - x_true[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let cfg = SpConfig { n: 40, steps: 4, lambda: 0.35 };
        let serial =
            mpisim::launch(&mpisim::JobSpec::new(1), |ctx| run(ctx, &cfg)).unwrap().results[0];
        for p in [2usize, 4, 5] {
            let par =
                mpisim::launch(&mpisim::JobSpec::new(p), |ctx| run(ctx, &cfg)).unwrap().results[0];
            assert!(
                (serial - par).abs() <= 1e-9 * serial.abs().max(1e-12),
                "p={p}: {par} vs {serial}"
            );
        }
    }
}
