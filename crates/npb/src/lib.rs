//! # npb — benchmark applications for the C³ reproduction
//!
//! Scaled-down but algorithmically real implementations of the codes the
//! paper evaluates (§6): the NAS Parallel Benchmarks CG, LU, SP, BT, MG, FT,
//! IS and EP, the SMG2000-like PCG+multigrid solver, and an HPL-like LU
//! factorization.
//!
//! Every kernel is written once against the [`Comm`] trait, and [`Kernel`]
//! names each one with its problem size; it is the one dispatch table the
//! `tables` binary, the soak, the scaling sweep and [`verify`] share. Every
//! kernel runs on two backends:
//!
//! * [`mpisim::RankCtx`] — the "Original" column of Tables 2–5: plain MPI,
//!   pragmas compile to nothing;
//! * [`c3::C3Ctx`] — the "C³" column: the co-ordination layer wraps every
//!   operation, pragmas may take checkpoints.
//!
//! This mirrors the paper's methodology exactly: the same source, compiled
//! with and without the C³ precompiler.
//!
//! Checkpoint pragma placements follow §6.3 (bottom of `conj_grad` loop for
//! CG, bottom of the `ssor` `istep` loop for LU, bottom of the `step` loop
//! for SP, eight locations for SMG2000, top of the panel loop for HPL).

// Numerical kernels index their stencils explicitly: the i/j loops mirror
// the papers' formulas and read better than zipped iterators in this domain.
#![allow(clippy::needless_range_loop)]

pub mod backend;
pub mod bt;
pub mod cg;
pub mod ep;
pub mod ft;
pub mod grid;
pub mod hpl;
pub mod is;
pub mod lu;
pub mod mg;
pub mod smg;
pub mod sp;
pub mod verify;

pub use backend::Comm;

use std::ops::Range;

/// The balanced split of `0..n` into `parts` contiguous ranges, returning
/// part `i`: every part gets `n / parts` items and the first `n % parts`
/// parts one more.
///
/// Every row-partitioned kernel gives rank `i` of `parts` its rows with it,
/// and the wavefront kernels (LU, SP, BT) cut their columns into
/// [`wave_tiles`] pipeline tiles with it. A part is empty exactly when
/// `i >= n`: a job with more ranks than rows leaves ranks `n..` without
/// rows, and the wavefronts run over ranks `0..min(parts, n)` only.
pub fn split(n: usize, i: usize, parts: usize) -> Range<usize> {
    let base = n / parts;
    let extra = n % parts;
    let lo = i * base + i.min(extra);
    lo..lo + base + usize::from(i < extra)
}

/// Column tiles per wavefront sweep on an `n`-column grid: `min(8, n)`.
///
/// LU, SP and BT sweep their rows in a rank pipeline. Each rank receives,
/// updates and forwards one tile of columns at a time, so rank `r + 1`
/// works on tile `t` while rank `r` computes tile `t + 1`, instead of
/// waiting for rank `r`'s whole block.
pub fn wave_tiles(n: usize) -> usize {
    n.min(8)
}

/// One of the paper's codes with its problem size: the kernel table every
/// harness (the paper tables, the soak, the scaling sweep, verification)
/// dispatches through.
#[derive(Clone, Copy, Debug)]
pub enum Kernel {
    /// Conjugate gradient.
    Cg(cg::CgConfig),
    /// SSOR wavefront.
    Lu(lu::LuConfig),
    /// Scalar-pentadiagonal ADI.
    Sp(sp::SpConfig),
    /// Block-tridiagonal ADI.
    Bt(bt::BtConfig),
    /// Multigrid V-cycles (the only one with barriers).
    Mg(mg::MgConfig),
    /// Spectral evolution (alltoall).
    Ft(ft::FtConfig),
    /// Integer sort.
    Is(is::IsConfig),
    /// Embarrassingly parallel tallies.
    Ep(ep::EpConfig),
    /// SMG2000-like PCG with a semicoarsening multigrid preconditioner.
    Smg(smg::SmgConfig),
    /// HPL-like LU factorization with partial pivoting.
    Hpl(hpl::HplConfig),
}

impl Kernel {
    /// All ten kernels at the tiny size of NPB's class S: unit tests,
    /// verification and smoke runs.
    pub const CLASS_S: [Kernel; 10] = [
        Kernel::Cg(cg::CgConfig { n: 256, iters: 8 }),
        Kernel::Lu(lu::LuConfig { n: 64, isteps: 6, omega: 1.2 }),
        Kernel::Sp(sp::SpConfig { n: 64, steps: 5, lambda: 0.4 }),
        Kernel::Bt(bt::BtConfig { n: 40, steps: 4, lambda: 0.35, kappa: 0.1 }),
        Kernel::Mg(mg::MgConfig { log2_n: 8, cycles: 4, smooth: 2 }),
        Kernel::Ft(ft::FtConfig { n: 32, steps: 4, alpha: 1e-4 }),
        Kernel::Is(is::IsConfig { total_keys: 1 << 12, max_key: 1 << 11, iters: 4 }),
        Kernel::Ep(ep::EpConfig { m_per_block: 10, blocks: 8 }),
        Kernel::Smg(smg::SmgConfig { log2_n: 8, iters: 4, smooth: 2 }),
        Kernel::Hpl(hpl::HplConfig { n: 48 }),
    ];

    /// Display name, matching the paper's table rows.
    pub fn name(&self) -> &'static str {
        match self {
            Kernel::Cg(_) => "CG",
            Kernel::Lu(_) => "LU",
            Kernel::Sp(_) => "SP",
            Kernel::Bt(_) => "BT",
            Kernel::Mg(_) => "MG",
            Kernel::Ft(_) => "FT",
            Kernel::Is(_) => "IS",
            Kernel::Ep(_) => "EP",
            Kernel::Smg(_) => "SMG2000",
            Kernel::Hpl(_) => "HPL",
        }
    }

    /// Run this kernel on any backend.
    pub fn run<C: Comm>(&self, comm: &mut C) -> Result<f64, mpisim::MpiError> {
        match self {
            Kernel::Cg(cfg) => cg::run(comm, cfg),
            Kernel::Lu(cfg) => lu::run(comm, cfg),
            Kernel::Sp(cfg) => sp::run(comm, cfg),
            Kernel::Bt(cfg) => bt::run(comm, cfg),
            Kernel::Mg(cfg) => mg::run(comm, cfg),
            Kernel::Ft(cfg) => ft::run(comm, cfg),
            Kernel::Is(cfg) => is::run(comm, cfg),
            Kernel::Ep(cfg) => ep::run(comm, cfg),
            Kernel::Smg(cfg) => smg::run(comm, cfg),
            Kernel::Hpl(cfg) => hpl::run(comm, cfg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_covers_everything_in_order() {
        for n in [0usize, 4, 10, 17, 64] {
            for parts in [1usize, 3, 4, 7, 9] {
                let mut next = 0;
                for i in 0..parts {
                    let r = split(n, i, parts);
                    assert_eq!(r.start, next);
                    assert!(r.len() == n / parts || r.len() == n / parts + 1);
                    assert_eq!(r.is_empty(), i >= n, "n={n} part {i}/{parts}");
                    next = r.end;
                }
                assert_eq!(next, n);
            }
        }
    }
}
