//! # npb — benchmark applications for the C³ reproduction
//!
//! Scaled-down but algorithmically real implementations of the codes the
//! paper evaluates (§6): the NAS Parallel Benchmarks CG, LU, SP, BT, MG, FT,
//! IS and EP, the SMG2000-like PCG+multigrid solver, and an HPL-like LU
//! factorization.
//!
//! Every kernel is written once against the [`Comm`] trait and runs on two
//! backends:
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

/// Problem classes, loosely following NPB naming: `S` (tiny smoke test),
/// `W` (workstation), `A` (the largest we run in-process).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    /// Tiny: unit tests and smoke runs.
    S,
    /// Small: integration tests and fast table rows.
    W,
    /// Medium: the benchmark tables.
    A,
}

impl Class {
    /// Parse from a letter.
    pub fn parse(s: &str) -> Option<Class> {
        match s {
            "S" | "s" => Some(Class::S),
            "W" | "w" => Some(Class::W),
            "A" | "a" => Some(Class::A),
            _ => None,
        }
    }

    /// Display letter.
    pub fn letter(self) -> &'static str {
        match self {
            Class::S => "S",
            Class::W => "W",
            Class::A => "A",
        }
    }
}

/// The benchmark set of the paper's evaluation, for table harnesses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kernel {
    /// Conjugate gradient.
    CG,
    /// SSOR wavefront solver.
    LU,
    /// Scalar pentadiagonal ADI.
    SP,
    /// Block tridiagonal ADI.
    BT,
    /// Multigrid V-cycles (the only one with barriers).
    MG,
    /// FFT with all-to-all transpose.
    FT,
    /// Integer bucket sort.
    IS,
    /// Embarrassingly parallel random tallies.
    EP,
    /// SMG2000-like PCG with multigrid preconditioner.
    SMG,
    /// HPL-like LU factorization with partial pivoting.
    HPL,
}

impl Kernel {
    /// All kernels.
    pub const ALL: [Kernel; 10] = [
        Kernel::CG,
        Kernel::LU,
        Kernel::SP,
        Kernel::BT,
        Kernel::MG,
        Kernel::FT,
        Kernel::IS,
        Kernel::EP,
        Kernel::SMG,
        Kernel::HPL,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::CG => "CG",
            Kernel::LU => "LU",
            Kernel::SP => "SP",
            Kernel::BT => "BT",
            Kernel::MG => "MG",
            Kernel::FT => "FT",
            Kernel::IS => "IS",
            Kernel::EP => "EP",
            Kernel::SMG => "SMG2000",
            Kernel::HPL => "HPL",
        }
    }

    /// Run this kernel on any backend at the given class.
    pub fn run<C: Comm>(self, comm: &mut C, class: Class) -> Result<f64, mpisim::MpiError> {
        match self {
            Kernel::CG => cg::run(comm, &cg::CgConfig::class(class)),
            Kernel::LU => lu::run(comm, &lu::LuConfig::class(class)),
            Kernel::SP => sp::run(comm, &sp::SpConfig::class(class)),
            Kernel::BT => bt::run(comm, &bt::BtConfig::class(class)),
            Kernel::MG => mg::run(comm, &mg::MgConfig::class(class)),
            Kernel::FT => ft::run(comm, &ft::FtConfig::class(class)),
            Kernel::IS => is::run(comm, &is::IsConfig::class(class)),
            Kernel::EP => ep::run(comm, &ep::EpConfig::class(class)),
            Kernel::SMG => smg::run(comm, &smg::SmgConfig::class(class)),
            Kernel::HPL => hpl::run(comm, &hpl::HplConfig::class(class)),
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
