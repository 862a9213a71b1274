//! MG — multigrid V-cycles on a 1D periodic Helmholtz problem.
//!
//! Block-partitioned ring grid with one-point halo exchanges at every
//! smoothing, restriction and prolongation step; the coarsest level is
//! gathered to rank 0, solved directly (cyclic Thomas), and broadcast back.
//! The periodic domain mirrors the real NAS MG benchmark (whose 3D grid is
//! periodic) and makes coarsening geometrically exact for power-of-two
//! grids. MG is the one benchmark in the paper's set that calls
//! `MPI_Barrier` *during* the computation — a barrier closes every V-cycle
//! here too.

use crate::backend::{Comm, Op};
use crate::grid::{gather_solve_bcast, h2_of, jacobi, prolong_add, residual, restrict_fw};
use mpisim::MpiError;
use statesave::codec::{Decoder, Encoder};

/// MG parameters.
#[derive(Clone, Copy, Debug)]
pub struct MgConfig {
    /// log2 of the finest grid size (grid has `2^k + 1` points; interior
    /// unknowns are distributed).
    pub log2_n: u32,
    /// V-cycles.
    pub cycles: u64,
    /// Jacobi pre/post smoothing sweeps per level.
    pub smooth: usize,
}

/// A distributed level: each rank holds `n / p` points of an `n`-point
/// ring (n a power of two, p dividing n at every level we descend to).
struct Level {
    /// Global points at this level.
    n: usize,
    /// Mesh spacing squared.
    h2: f64,
}

/// Coarse floor of the V-cycle ladder: rank-count independent so the
/// numerical result does not depend on `p` (for `p <= COARSEST / 2`).
const COARSEST: usize = 32;

/// One V-cycle; recursion bottoms out with a gather-solve-bcast on rank 0.
fn vcycle<C: Comm>(
    comm: &mut C,
    u: &mut [f64],
    f: &[f64],
    lvl: Level,
    smooth_sweeps: usize,
) -> Result<(), MpiError> {
    if lvl.n <= COARSEST {
        // Solve the *residual* equation exactly so the bottom-out is correct
        // even when `u` is non-zero (e.g. a tiny top-level grid).
        let mut res = vec![0.0; u.len()];
        residual(comm, u, f, lvl.h2, 300, &mut res)?;
        let e = gather_solve_bcast(comm, &res, lvl.n, lvl.h2)?;
        for (ui, ei) in u.iter_mut().zip(&e) {
            *ui += ei;
        }
        return Ok(());
    }
    jacobi(comm, u, f, lvl.h2, smooth_sweeps, 200)?;
    let mut res = vec![0.0; u.len()];
    residual(comm, u, f, lvl.h2, 310, &mut res)?;
    let mut coarse_f = vec![0.0; u.len() / 2];
    restrict_fw(comm, &res, 400, &mut coarse_f)?;
    let mut coarse_u = vec![0.0; coarse_f.len()];
    let coarse_lvl = Level { n: lvl.n / 2, h2: h2_of(lvl.n / 2) };
    vcycle(comm, &mut coarse_u, &coarse_f, coarse_lvl, smooth_sweeps)?;
    prolong_add(comm, &coarse_u, u, 500)?;
    jacobi(comm, u, f, lvl.h2, smooth_sweeps, 210)?;
    Ok(())
}

struct MgState {
    cycle: u64,
    u: Vec<f64>,
}

impl MgState {
    fn save(&self, e: &mut Encoder) {
        e.u64(self.cycle);
        e.f64_slice(&self.u);
    }
    fn load(b: &[u8]) -> Result<Self, MpiError> {
        let mut d = Decoder::new(b);
        let conv = |e: statesave::codec::CodecError| MpiError::Internal(e.to_string());
        Ok(MgState { cycle: d.u64().map_err(conv)?, u: d.f64_vec().map_err(conv)? })
    }
}

/// Run MG; returns the final residual norm.
pub fn run<C: Comm>(comm: &mut C, cfg: &MgConfig) -> Result<f64, MpiError> {
    let p = comm.nranks();
    let n = 1usize << cfg.log2_n;
    if !n.is_multiple_of(p) || (n / p) & 1 != 0 {
        return Err(MpiError::InvalidArg(format!("MG needs p | n with even shares; n={n} p={p}")));
    }
    if p > COARSEST / 2 {
        return Err(MpiError::InvalidArg(format!("MG supports at most {} ranks", COARSEST / 2)));
    }
    let share = n / p;
    let lo = comm.rank() * share;
    let lvl = Level { n, h2: h2_of(n) };
    let f: Vec<f64> = (0..share)
        .map(|i| {
            let x = (lo + i) as f64 / n as f64;
            (2.0 * std::f64::consts::PI * x).sin() + 0.5 * (6.0 * std::f64::consts::PI * x).sin()
        })
        .collect();

    let mut st = match comm.take_restored_state() {
        Some(b) => MgState::load(&b)?,
        None => MgState { cycle: 0, u: vec![0.0; share] },
    };

    while st.cycle < cfg.cycles {
        vcycle(comm, &mut st.u, &f, Level { n: lvl.n, h2: lvl.h2 }, cfg.smooth)?;
        // MG is the benchmark that calls MPI_Barrier during computation.
        comm.barrier()?;
        st.cycle += 1;
        comm.pragma(&mut |e| st.save(e))?;
    }

    let mut res = vec![0.0; share];
    residual(comm, &st.u, &f, lvl.h2, 320, &mut res)?;
    let local: f64 = res.iter().map(|x| x * x).sum();
    let norm = comm.allreduce_f64(local, Op::Sum)?;
    Ok((norm / n as f64).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vcycles_reduce_residual() {
        let cfg = MgConfig { log2_n: 8, cycles: 6, smooth: 2 };
        let out = mpisim::launch(&mpisim::JobSpec::new(2), |ctx| run(ctx, &cfg)).unwrap();
        assert!(out.results[0] < 1e-4, "residual too large: {}", out.results[0]);
    }

    #[test]
    fn bottom_out_is_exact_on_tiny_grid() {
        // A grid at the coarse floor is solved directly in one "cycle".
        let cfg = MgConfig { log2_n: 5, cycles: 1, smooth: 2 };
        let out = mpisim::launch(&mpisim::JobSpec::new(1), |ctx| run(ctx, &cfg)).unwrap();
        assert!(out.results[0] < 1e-10, "direct bottom-out not exact: {}", out.results[0]);
    }

    #[test]
    fn parallel_matches_serial() {
        let cfg = MgConfig { log2_n: 7, cycles: 3, smooth: 2 };
        let serial =
            mpisim::launch(&mpisim::JobSpec::new(1), |ctx| run(ctx, &cfg)).unwrap().results[0];
        for p in [2usize, 4] {
            let par =
                mpisim::launch(&mpisim::JobSpec::new(p), |ctx| run(ctx, &cfg)).unwrap().results[0];
            assert!(
                (serial - par).abs() <= 1e-7 * serial.abs().max(1e-12),
                "p={p}: {par} vs {serial}"
            );
        }
    }
}
