//! SMG — a PCG solver with a semicoarsening-multigrid preconditioner (the
//! SMG2000 skeleton from the ASCI Purple benchmarks).
//!
//! A 1D diffusion system distributed in block rows: the outer solver is
//! preconditioned conjugate gradient (`hypre_PCGSolve`) and the
//! preconditioner is one multigrid V-cycle per application
//! (`hypre_SMGSolve`) with weighted-Jacobi smoothing, halo exchanges at
//! every level, and heavy smoothing on the coarsest level.
//!
//! The paper places **eight** checkpoint locations in SMG2000 (§6.3): at the
//! top of the `while i` loop in `hypre_PCGSolve`, at the top of the `for i`
//! loop in `hypre_SMGSolve`, and five more throughout `main` — "a mixture of
//! locations both inside and outside main computation loops". We mirror
//! that: the saved state carries a phase marker *and*, for the in-V-cycle
//! location, the V-cycle's own descent position — the moral equivalent of
//! the C³ precompiler saving the execution context so recovery resumes at
//! the pragma, not at some earlier loop head.
//!
//! Like hypre, the solver preallocates its level hierarchy once (`vf`/`vu`,
//! one RHS and one correction array per ladder level) and the V-cycle writes
//! into those arrays in place: it smooths `vu[lvl]` in place, computes the
//! residual into one scratch array, restricts it straight into `vf[lvl + 1]`
//! and leaves the preconditioned residual `z` in `vu[0]`. The scratch array
//! also holds PCG's `A·p`; it is allocated once per incarnation and never
//! saved, since no pragma falls while it is live. So a PCG iteration
//! allocates no level-sized array (`tests/smg_allocs.rs` pins that).
//!
//! Because the hierarchy is fixed, the checkpoint always dumps the same
//! memory regions — levels the current descent has not reached yet simply
//! still hold the previous cycle's values, exactly as the C original's heap
//! would. A layout that is identical at every pragma site is also what lets
//! incremental checkpointing patch chunks instead of rewriting them.

use crate::backend::{Comm, Op};
use crate::grid::{
    apply_helmholtz, gather_solve_bcast, h2_of, jacobi, prolong_add, residual, restrict_fw,
};
use mpisim::MpiError;
use statesave::codec::{CodecError, Decoder, Encoder};

/// SMG parameters.
#[derive(Clone, Copy, Debug)]
pub struct SmgConfig {
    /// log2 of the fine-grid unknown count (grid size `2^k`, distributed).
    pub log2_n: u32,
    /// PCG iterations.
    pub iters: u64,
    /// Jacobi sweeps per level per V-cycle half.
    pub smooth: usize,
}

fn conv(e: CodecError) -> MpiError {
    MpiError::Internal(e.to_string())
}

/// Where in `main` execution stands — saved with every checkpoint so every
/// pragma location is a legitimate resume point.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    /// Before problem setup (pragma in `main`).
    PreSetup,
    /// After setup, before the solve (two pragmas in `main`).
    PreSolve,
    /// Inside `hypre_PCGSolve` at iteration `iter`, top of the loop.
    Solve,
    /// Inside the preconditioner V-cycle of iteration `iter` (`lvl` carries
    /// the descent position; `vf`/`vu` hold the per-level data).
    SolveInVcycle,
    /// After the solve, before the norm reduction (pragma #6 in `main`).
    PostSolve,
    /// After the norm reduction (pragma #7 in `main`); `rho` holds the
    /// reduced ‖x‖².
    Finished,
}

impl Phase {
    fn code(self) -> u8 {
        match self {
            Phase::PreSetup => 0,
            Phase::PreSolve => 1,
            Phase::Solve => 2,
            Phase::SolveInVcycle => 3,
            Phase::PostSolve => 4,
            Phase::Finished => 5,
        }
    }
    fn from_code(c: u8) -> Result<Self, MpiError> {
        Ok(match c {
            0 => Phase::PreSetup,
            1 => Phase::PreSolve,
            2 => Phase::Solve,
            3 => Phase::SolveInVcycle,
            4 => Phase::PostSolve,
            5 => Phase::Finished,
            other => return Err(MpiError::Internal(format!("bad SMG phase {other}"))),
        })
    }
}

#[derive(Clone, Debug)]
struct SmgState {
    phase: Phase,
    iter: u64,
    x: Vec<f64>,
    r: Vec<f64>,
    pdir: Vec<f64>,
    rho: f64,
    rhs: Vec<f64>,
    /// Descent position of the in-flight V-cycle; meaningful only in
    /// [`Phase::SolveInVcycle`] (stale otherwise, like any C local).
    lvl: usize,
    /// Per-level V-cycle RHS arrays (`vf[0]` receives the residual handed
    /// to the preconditioner), allocated once at setup like hypre's level
    /// hierarchy and overwritten in place by each descent.
    vf: Vec<Vec<f64>>,
    /// Per-level correction arrays, same lifecycle as `vf`.
    vu: Vec<Vec<f64>>,
}

impl SmgState {
    fn fresh() -> Self {
        SmgState {
            phase: Phase::PreSetup,
            iter: 0,
            x: Vec::new(),
            r: Vec::new(),
            pdir: Vec::new(),
            rho: 0.0,
            rhs: Vec::new(),
            lvl: 0,
            vf: Vec::new(),
            vu: Vec::new(),
        }
    }
    fn save(&self, e: &mut Encoder) {
        save_parts(
            (self.phase, self.iter, self.rho),
            (&self.x, &self.r, &self.pdir, &self.rhs),
            self.lvl,
            &self.vf,
            &self.vu,
            e,
        );
    }
    fn load(b: &[u8]) -> Result<Self, MpiError> {
        let mut d = Decoder::new(b);
        let phase = Phase::from_code(d.u8().map_err(conv)?)?;
        let iter = d.u64().map_err(conv)?;
        let x = d.f64_vec().map_err(conv)?;
        let r = d.f64_vec().map_err(conv)?;
        let pdir = d.f64_vec().map_err(conv)?;
        let rho = d.f64().map_err(conv)?;
        let rhs = d.f64_vec().map_err(conv)?;
        let lvl = d.usize().map_err(conv)?;
        let levels = d.usize().map_err(conv)?;
        let mut vf = Vec::with_capacity(levels);
        let mut vu = Vec::with_capacity(levels);
        for _ in 0..levels {
            vf.push(d.f64_vec().map_err(conv)?);
            vu.push(d.f64_vec().map_err(conv)?);
        }
        Ok(SmgState { phase, iter, x, r, pdir, rho, rhs, lvl, vf, vu })
    }
}

/// The level ladder for an `n_global` fine grid: halve down to a fixed,
/// rank-count-independent coarse floor so the preconditioner (and hence the
/// numerical result) is identical for every `p`. The caller asserts
/// `p <= COARSEST / 2`, which keeps every rank at >= 2 points per level.
const COARSEST: usize = 32;

fn level_sizes(n_global: usize) -> Vec<usize> {
    let mut sizes = vec![n_global];
    while sizes.last().unwrap() / 2 >= COARSEST && sizes.last().unwrap() % 2 == 0 {
        let s = sizes.last().unwrap() / 2;
        sizes.push(s);
    }
    sizes
}

/// Checkpoint-pragma callback fired at the top of every descent level with
/// `(comm, level, vf, vu)` — the position and hierarchy a save would need.
type PragmaFn<'a, C> =
    dyn FnMut(&mut C, usize, &[Vec<f64>], &[Vec<f64>]) -> Result<(), MpiError> + 'a;

/// One V-cycle of the multigrid preconditioner over the preallocated level
/// hierarchy, resumable: `start_lvl` is 0 for a fresh cycle or the descent
/// position restored from a checkpoint (with `vf[0..=start_lvl]` and
/// `vu[0..start_lvl]` already holding this cycle's data). `pragma` fires at
/// the top of every descent level (the paper's `hypre_SMGSolve` pragma).
/// The preconditioned residual is left in `vu[0]`. `scratch` (a level-0
/// share) holds each level's residual between its computation and its
/// restriction, which no pragma separates, so it is never saved.
fn vcycle<C: Comm>(
    comm: &mut C,
    smooth: usize,
    start_lvl: usize,
    vf: &mut [Vec<f64>],
    vu: &mut [Vec<f64>],
    scratch: &mut [f64],
    pragma: &mut PragmaFn<'_, C>,
) -> Result<(), MpiError> {
    let levels = vf.len();
    // Every rank holds an equal share of each level's global points.
    let p = comm.nranks();

    // Descend: smooth, compute residual, restrict into the next level's
    // RHS. Arrays beyond the current level keep the previous cycle's bytes
    // until overwritten.
    for lvl in start_lvl..levels {
        pragma(comm, lvl, vf, vu)?;
        let (nl, tag) = (vf[lvl].len() * p, 20 * lvl as i32);
        if lvl + 1 < levels {
            let res = &mut scratch[..vf[lvl].len()];
            vu[lvl].fill(0.0);
            jacobi(comm, &mut vu[lvl], &vf[lvl], h2_of(nl), smooth, 300 + tag)?;
            residual(comm, &vu[lvl], &vf[lvl], h2_of(nl), 400 + tag, res)?;
            restrict_fw(comm, res, 500 + tag, &mut vf[lvl + 1])?;
        } else {
            // Coarsest level: exact gather-solve-broadcast (hypre-style),
            // identical for every rank count.
            let u = gather_solve_bcast(comm, &vf[lvl], nl, h2_of(nl))?;
            vu[lvl].copy_from_slice(&u);
        }
    }

    // Ascend: prolong each level's correction into the next finer one and
    // post-smooth in place (no pragmas; the paper's SMG pragma is in the
    // descent loop).
    for lvl in (0..levels - 1).rev() {
        let (fine, coarse) = vu.split_at_mut(lvl + 1);
        let tag = 20 * lvl as i32;
        prolong_add(comm, &coarse[0], &mut fine[lvl], 700 + tag)?;
        jacobi(comm, &mut vu[lvl], &vf[lvl], h2_of(vf[lvl].len() * p), smooth, 800 + tag)?;
    }
    Ok(())
}

/// Finish one PCG iteration given the preconditioned residual `z`, which
/// the V-cycle left in `vu[0]`. The level hierarchy is left as the finished
/// cycle wrote it — stale data, exactly like hypre's heap between
/// preconditioner applications.
fn finish_iteration<C: Comm>(comm: &mut C, st: &mut SmgState) -> Result<(), MpiError> {
    let z = &st.vu[0];
    let local_rz: f64 = st.r.iter().zip(z).map(|(a, b)| a * b).sum();
    let rho_new = comm.allreduce_f64(local_rz, Op::Sum)?;
    let beta = rho_new / st.rho;
    for (p, zi) in st.pdir.iter_mut().zip(z) {
        *p = zi + beta * *p;
    }
    st.rho = rho_new;
    st.iter += 1;
    st.phase = Phase::Solve;
    Ok(())
}

/// Run one preconditioner application (V-cycle) for `st`, firing the
/// in-V-cycle pragma at every descent level. Split-borrows the state so the
/// pragma closure can encode the scalars and solver vectors while `vcycle`
/// mutates the level hierarchy.
fn precondition<C: Comm>(
    comm: &mut C,
    smooth: usize,
    st: &mut SmgState,
    scratch: &mut [f64],
) -> Result<(), MpiError> {
    let SmgState { phase, iter, rho, x, r, pdir, rhs, lvl, vf, vu } = st;
    let (head, tail) = ((*phase, *iter, *rho), (&x[..], &r[..], &pdir[..], &rhs[..]));
    vcycle(comm, smooth, *lvl, vf, vu, scratch, &mut |c, at, f, u| {
        c.pragma(&mut |e| save_parts(head, tail, at, f, u, e)).map(|_| ())
    })
}

/// Run SMG; returns the solution norm.
pub fn run<C: Comm>(comm: &mut C, cfg: &SmgConfig) -> Result<f64, MpiError> {
    let me = comm.rank();
    let p = comm.nranks();
    let n = 1usize << cfg.log2_n;
    assert_eq!(n % p, 0, "SMG rank count must divide the grid");
    assert!(p <= COARSEST / 2, "SMG supports at most {} ranks", COARSEST / 2);
    let nl = n / p;
    let lo = me * nl;
    let h2 = h2_of(n);

    let mut st = match comm.take_restored_state() {
        Some(b) => SmgState::load(&b)?,
        None => SmgState::fresh(),
    };
    // PCG's `A·p`, then each V-cycle level's residual: dead at every
    // pragma, so allocated once per incarnation and never saved.
    let mut scratch = vec![0.0; nl];

    // --- main, pragma #1: before setup ---
    if st.phase == Phase::PreSetup {
        comm.pragma(&mut |e| st.save(e))?;
        st.rhs = (lo..lo + nl)
            .map(|g| {
                let t = g as f64 / n as f64;
                (2.0 * std::f64::consts::PI * t).sin()
                    + 0.3 * (6.0 * std::f64::consts::PI * t).sin()
            })
            .collect();
        st.x = vec![0.0; nl];
        // Allocate the level hierarchy once, hypre-style (per-rank slices
        // of each ladder level).
        let lsizes: Vec<usize> = level_sizes(n).iter().map(|s| s / p).collect();
        st.vf = lsizes.iter().map(|&s| vec![0.0; s]).collect();
        st.vu = lsizes.iter().map(|&s| vec![0.0; s]).collect();
        st.phase = Phase::PreSolve;
    }

    // --- main, pragmas #2 and #3: after setup, before the solve ---
    if st.phase == Phase::PreSolve {
        comm.pragma(&mut |e| st.save(e))?;
        // r = rhs - A·0 = rhs; z = M⁻¹ r; p = z; rho = <r, z>.
        st.r = st.rhs.clone();
        comm.pragma(&mut |e| st.save(e))?;
        st.vf[0].copy_from_slice(&st.r);
        st.lvl = 0;
        let SmgState { vf, vu, .. } = &mut st;
        vcycle(comm, cfg.smooth, 0, vf, vu, &mut scratch, &mut |_c, _l, _f, _u| Ok(()))?;
        let local: f64 = st.r.iter().zip(&st.vu[0]).map(|(a, b)| a * b).sum();
        st.rho = comm.allreduce_f64(local, Op::Sum)?;
        st.pdir = st.vu[0].clone();
        st.phase = Phase::Solve;
    }

    // --- hypre_PCGSolve (pragmas #4 at loop top, #5 inside the V-cycle) ---
    // A state restored after the solve skips it.
    while matches!(st.phase, Phase::Solve | Phase::SolveInVcycle) {
        // A restored in-V-cycle state re-enters here first: resume the
        // preconditioner from the saved descent position. A further
        // checkpoint inside the resumed V-cycle is again possible.
        if st.phase == Phase::SolveInVcycle {
            precondition(comm, cfg.smooth, &mut st, &mut scratch)?;
            finish_iteration(comm, &mut st)?;
            continue;
        }
        if st.iter >= cfg.iters {
            st.phase = Phase::PostSolve;
            break;
        }
        // §6.3: pragma at the top of the while-i loop in hypre_PCGSolve.
        comm.pragma(&mut |e| st.save(e))?;
        apply_helmholtz(comm, &st.pdir, h2, 100, &mut scratch)?;
        let ap = &scratch;
        let local_pap: f64 = st.pdir.iter().zip(ap).map(|(a, b)| a * b).sum();
        let pap = comm.allreduce_f64(local_pap, Op::Sum)?;
        if !pap.is_finite() || pap.abs() < 1e-290 {
            // The solve converged to machine zero; continuing would divide
            // 0/0. The guard is an all-reduced value, so every rank takes
            // this branch at the same iteration (deterministic on recovery).
            st.phase = Phase::PostSolve;
            break;
        }
        let alpha = st.rho / pap;
        for i in 0..nl {
            st.x[i] += alpha * st.pdir[i];
            st.r[i] -= alpha * ap[i];
        }
        // Preconditioner with the in-V-cycle pragma: the state saved there
        // marks this exact position (SolveInVcycle + descent level).
        st.phase = Phase::SolveInVcycle;
        st.vf[0].copy_from_slice(&st.r);
        st.lvl = 0;
        precondition(comm, cfg.smooth, &mut st, &mut scratch)?;
        finish_iteration(comm, &mut st)?;
    }

    // --- main, pragmas #6 and #7: after the solve ---
    if st.phase == Phase::PostSolve {
        comm.pragma(&mut |e| st.save(e))?;
        let local: f64 = st.x.iter().map(|v| v * v).sum();
        // The PCG scalar is dead after the solve; its slot carries the norm
        // to pragma #7, so the saved layout stays the same at every site.
        st.rho = comm.allreduce_f64(local, Op::Sum)?;
        st.phase = Phase::Finished;
    }
    comm.pragma(&mut |e| st.save(e))?;
    Ok((st.rho / n as f64).sqrt())
}

/// Borrow split so the V-cycle pragma can encode the full state (scalars +
/// solver vectors) while `vcycle` independently mutates the hierarchy.
type StateHead = (Phase, u64, f64);
type StateTail<'a> = (&'a [f64], &'a [f64], &'a [f64], &'a [f64]);

/// The single serialization shape every pragma site uses: scalars, the four
/// solver vectors, the descent position, then the whole level hierarchy.
/// Post-setup the encoded length is identical at every site (see the module
/// doc on fixed layouts and incremental checkpointing).
fn save_parts(
    head: StateHead,
    tail: StateTail<'_>,
    lvl: usize,
    vf: &[Vec<f64>],
    vu: &[Vec<f64>],
    e: &mut Encoder,
) {
    let (phase, iter, rho) = head;
    let (x, r, pdir, rhs) = tail;
    e.u8(phase.code());
    e.u64(iter);
    e.f64_slice(x);
    e.f64_slice(r);
    e.f64_slice(pdir);
    e.f64(rho);
    e.f64_slice(rhs);
    e.usize(lvl);
    e.usize(vf.len());
    for (f, u) in vf.iter().zip(vu) {
        e.f64_slice(f);
        e.f64_slice(u);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vcycle_reduces_helmholtz_residual() {
        let out = mpisim::launch(&mpisim::JobSpec::new(1), |ctx| {
            let n = 256usize;
            let f: Vec<f64> =
                (0..n).map(|g| (2.0 * std::f64::consts::PI * g as f64 / n as f64).sin()).collect();
            let sizes = level_sizes(n);
            let mut vf: Vec<Vec<f64>> = sizes.iter().map(|&s| vec![0.0; s]).collect();
            let mut vu = vf.clone();
            vf[0].copy_from_slice(&f);
            let mut scratch = vec![0.0; n];
            vcycle(ctx, 2, 0, &mut vf, &mut vu, &mut scratch, &mut |_c, _l, _f, _u| Ok(()))?;
            let mut az = vec![0.0; n];
            apply_helmholtz(ctx, &vu[0], h2_of(n), 900, &mut az)?;
            let res: f64 = f.iter().zip(&az).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
            let f0: f64 = f.iter().map(|v| v * v).sum::<f64>().sqrt();
            Ok(res / f0)
        })
        .unwrap();
        assert!(out.results[0] < 0.3, "V-cycle barely reduced the residual: {}", out.results[0]);
    }

    #[test]
    fn level_ladder_is_rank_count_independent() {
        let sizes = level_sizes(1 << 10);
        assert!(sizes.len() > 1);
        assert_eq!(*sizes.last().unwrap(), COARSEST);
        for w in sizes.windows(2) {
            assert_eq!(w[0], 2 * w[1]);
        }
    }

    #[test]
    fn state_roundtrips_through_codec() {
        let st = SmgState {
            phase: Phase::SolveInVcycle,
            iter: 7,
            x: vec![1.0, 2.0, 3.0, 4.0],
            r: vec![3.0; 4],
            pdir: vec![4.0, 5.0, 6.0, 7.0],
            rho: 0.25,
            rhs: vec![9.0; 4],
            lvl: 1,
            vf: vec![vec![1.0, 2.0, 3.0, 4.0], vec![5.0, 6.0], vec![7.0]],
            vu: vec![vec![8.0, 9.0, 10.0, 11.0], vec![12.0, 13.0], vec![14.0]],
        };
        let mut e = Encoder::new();
        st.save(&mut e);
        let back = SmgState::load(&e.finish()).unwrap();
        assert_eq!(back.phase, st.phase);
        assert_eq!(back.iter, st.iter);
        assert_eq!(back.x, st.x);
        assert_eq!(back.rho, st.rho);
        assert_eq!(back.lvl, st.lvl);
        assert_eq!(back.vf, st.vf);
        assert_eq!(back.vu, st.vu);
    }

    /// Every post-setup pragma site must produce an identically shaped
    /// encoding (same length, same field offsets) regardless of whether —
    /// or how deep — a V-cycle is in flight, or incremental checkpointing
    /// cannot patch chunks across commits.
    #[test]
    fn serialized_layout_is_pragma_site_invariant() {
        let base = SmgState {
            phase: Phase::Solve,
            iter: 3,
            x: vec![1.0; 4],
            r: vec![2.0; 4],
            pdir: vec![3.0; 4],
            rho: 1.0,
            rhs: vec![4.0; 4],
            lvl: 0,
            vf: vec![vec![1.0; 4], vec![2.0; 2], vec![3.0; 1]],
            vu: vec![vec![4.0; 4], vec![5.0; 2], vec![6.0; 1]],
        };
        let mut lens = Vec::new();
        for (phase, lvl) in
            [(Phase::Solve, 2), (Phase::SolveInVcycle, 0), (Phase::SolveInVcycle, 2)]
        {
            let st = SmgState { phase, lvl, ..base.clone() };
            let mut e = Encoder::new();
            st.save(&mut e);
            lens.push(e.finish().len());
        }
        assert!(lens.windows(2).all(|w| w[0] == w[1]), "layout varies by site: {lens:?}");
    }

    #[test]
    fn parallel_matches_serial() {
        let cfg = SmgConfig { log2_n: 8, iters: 5, smooth: 2 };
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
