//! LU — SSOR wavefront sweeps (the NPB LU communication skeleton).
//!
//! A 2D grid is partitioned in block rows ([`crate::split`]). Each SSOR
//! iteration makes a forward sweep (data dependence on the row above and
//! the column to the left) and a backward sweep (below/right), pipelined
//! across the ranks as NPB LU pipelines its planes: the columns are cut
//! into [`crate::wave_tiles`] tiles, and for each tile in ascending order
//! rank `r` receives that tile of its upper neighbour's boundary row,
//! updates the tile in all its rows and forwards the tile of its own last
//! row. Rank `r + 1` thus works on tile `t` while rank `r` computes tile
//! `t + 1`. The backward sweep runs the same pipeline upwards in
//! descending tile order. Every point gets the same arithmetic from the
//! same neighbour values whatever the tile and rank counts, so results
//! depend on them only through the final all-reduce. Point-to-point
//! messages only, no barriers.
//!
//! Ranks at or past `n` own no rows: the pipeline runs over ranks
//! `0..min(p, n)`, and the others skip the sweeps but still reach every
//! pragma and the final all-reduce. The checkpoint location is "the bottom
//! of the `istep` loop in `ssor`" (§6.3).

use crate::backend::{Comm, Op};
use mpisim::MpiError;
use statesave::codec::{Decoder, Encoder};

/// LU parameters.
#[derive(Clone, Copy, Debug)]
pub struct LuConfig {
    /// Grid is `n x n`.
    pub n: usize,
    /// SSOR iterations.
    pub isteps: u64,
    /// Relaxation factor.
    pub omega: f64,
}

struct LuState {
    istep: u64,
    u: Vec<f64>, // local block, row-major (rows x n)
}

impl LuState {
    fn save(&self, e: &mut Encoder) {
        e.u64(self.istep);
        e.f64_slice(&self.u);
    }
    fn load(b: &[u8]) -> Result<Self, MpiError> {
        let mut d = Decoder::new(b);
        let conv = |e: statesave::codec::CodecError| MpiError::Internal(e.to_string());
        Ok(LuState { istep: d.u64().map_err(conv)?, u: d.f64_vec().map_err(conv)? })
    }
}

/// One SSOR point update: `x` relaxed toward the mean of `near` (the
/// neighbour in the row the sweep came from) and `prev` (the neighbour the
/// sweep updated just before it in the same row).
fn relax(x: f64, near: f64, prev: f64, omega: f64) -> f64 {
    let rhs = 0.25 * (near + prev) + 0.5 * x;
    (1.0 - omega) * x + omega * rhs
}

/// Run LU-SSOR; returns the grid norm after the final iteration.
pub fn run<C: Comm>(comm: &mut C, cfg: &LuConfig) -> Result<f64, MpiError> {
    let me = comm.rank();
    let n = cfg.n;
    let mine = crate::split(n, me, comm.nranks());
    let (lo, rows) = (mine.start, mine.len());
    // Only ranks `0..active` own rows (see the module docs).
    let active = comm.nranks().min(n);
    let tiles = crate::wave_tiles(n);
    let omega = cfg.omega;

    let mut st = match comm.take_restored_state() {
        Some(b) => LuState::load(&b)?,
        None => {
            // Deterministic initial field.
            let u: Vec<f64> = (0..rows * n)
                .map(|k| {
                    let g = (lo * n + k) as u64;
                    (g.wrapping_mul(0x9e3779b97f4a7c15) % 1000) as f64 / 1000.0 + 0.5
                })
                .collect();
            LuState { istep: 0, u }
        }
    };

    while st.istep < cfg.isteps {
        if rows > 0 {
            // -------- forward sweep (dependences: north, west) --------
            for t in 0..tiles {
                let cols = crate::split(n, t, tiles);
                let north =
                    if me > 0 { comm.recv_f64(me as i32 - 1, 40)? } else { vec![0.0; cols.len()] };
                for r in 0..rows {
                    let (done, rest) = st.u.split_at_mut(r * n);
                    let near = if r == 0 { &north[..] } else { &done[(r - 1) * n..][cols.clone()] };
                    let row = &mut rest[..n];
                    let mut left = if cols.start == 0 { 0.0 } else { row[cols.start - 1] };
                    for (x, &up) in row[cols.clone()].iter_mut().zip(near) {
                        *x = relax(*x, up, left, omega);
                        left = *x;
                    }
                }
                if me + 1 < active {
                    comm.send_f64(me + 1, 40, &st.u[(rows - 1) * n..][cols])?;
                }
            }

            // -------- backward sweep (dependences: south, east) --------
            for t in (0..tiles).rev() {
                let cols = crate::split(n, t, tiles);
                let south = if me + 1 < active {
                    comm.recv_f64(me as i32 + 1, 41)?
                } else {
                    vec![0.0; cols.len()]
                };
                for r in (0..rows).rev() {
                    let (upto, below) = st.u.split_at_mut((r + 1) * n);
                    let near = if r + 1 == rows { &south[..] } else { &below[..n][cols.clone()] };
                    let row = &mut upto[r * n..];
                    let mut right = if cols.end == n { 0.0 } else { row[cols.end] };
                    for (x, &down) in row[cols.clone()].iter_mut().zip(near).rev() {
                        *x = relax(*x, down, right, omega);
                        right = *x;
                    }
                }
                if me > 0 {
                    comm.send_f64(me - 1, 41, &st.u[cols])?;
                }
            }
        }

        st.istep += 1;
        // §6.3: checkpoint at the bottom of the istep loop.
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
    fn parallel_matches_serial() {
        let cfg = LuConfig { n: 48, isteps: 5, omega: 1.1 };
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

    #[test]
    fn sweeps_contract_toward_zero_bc() {
        // With zero boundary forcing the relaxation keeps values finite and
        // positive for this diagonally-weighted stencil.
        let cfg = LuConfig { n: 32, isteps: 10, omega: 1.0 };
        let out = mpisim::launch(&mpisim::JobSpec::new(2), |ctx| run(ctx, &cfg)).unwrap();
        assert!(out.results[0].is_finite());
        assert!(out.results[0] > 0.0);
    }
}
