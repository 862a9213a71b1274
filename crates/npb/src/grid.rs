//! Shared periodic-grid machinery for the multigrid kernels (MG, SMG).
//!
//! Both kernels solve the 1D periodic Helmholtz problem `-u'' + σu = f`
//! (σ > 0 keeps the periodic operator SPD and nonsingular). Periodic
//! boundaries make coarsening geometrically exact for power-of-two grids —
//! the coarse grid is every second point with uniform spacing `2h` — which
//! is also what the real NAS MG benchmark does (its 3D grid is periodic).
//!
//! The operator, residual, smoother and transfer helpers write into arrays
//! the caller passes in, and the smoother updates in place, so a V-cycle
//! over preallocated levels allocates nothing. Only the coarse solve,
//! [`gather_solve_bcast`], builds its (coarsest-level sized) vectors.

use crate::backend::Comm;
use mpisim::MpiError;

/// The Helmholtz shift σ.
pub const SIGMA: f64 = 1.0;

/// Periodic grid spacing squared for an `n`-point ring (`h = 1/n`).
pub fn h2_of(n: usize) -> f64 {
    let h = 1.0 / n as f64;
    h * h
}

/// Periodic ring halo: returns (predecessor's last point, successor's first
/// point). At `p == 1` the wrap is rank-local; at `p == 2` both neighbours
/// are the same rank and the two directions are kept apart by tag.
pub fn halo_ring<C: Comm>(comm: &mut C, u: &[f64], tag: i32) -> Result<(f64, f64), MpiError> {
    let me = comm.rank();
    let p = comm.nranks();
    if p == 1 {
        return Ok((*u.last().unwrap(), u[0]));
    }
    let left = (me + p - 1) % p;
    let right = (me + 1) % p;
    comm.send_f64(left, tag, &[u[0]])?;
    comm.send_f64(right, tag + 1, &[*u.last().unwrap()])?;
    let l = comm.recv_f64(left as i32, tag + 1)?[0];
    let r = comm.recv_f64(right as i32, tag)?[0];
    Ok((l, r))
}

/// `out = A u` for the periodic Helmholtz operator
/// `(2u_i - u_{i-1} - u_{i+1})/h² + σ u_i`.
pub fn apply_helmholtz<C: Comm>(
    comm: &mut C,
    u: &[f64],
    h2: f64,
    tag: i32,
    out: &mut [f64],
) -> Result<(), MpiError> {
    let (l, r) = halo_ring(comm, u, tag)?;
    let nl = u.len();
    for i in 0..nl {
        let left = if i == 0 { l } else { u[i - 1] };
        let right = if i + 1 == nl { r } else { u[i + 1] };
        out[i] = (2.0 * u[i] - left - right) / h2 + SIGMA * u[i];
    }
    Ok(())
}

/// `out = f - A u`: the residual of `u`.
pub fn residual<C: Comm>(
    comm: &mut C,
    u: &[f64],
    f: &[f64],
    h2: f64,
    tag: i32,
    out: &mut [f64],
) -> Result<(), MpiError> {
    apply_helmholtz(comm, u, h2, tag, out)?;
    for (o, fv) in out.iter_mut().zip(f) {
        *o = fv - *o;
    }
    Ok(())
}

/// Weighted-Jacobi sweeps on `A u = f` (ω = 2/3, the 1D smoothing optimum),
/// in place: each point reads its left neighbour's value from before the
/// sweep, kept in one scalar, and its right neighbour's, not yet updated.
pub fn jacobi<C: Comm>(
    comm: &mut C,
    u: &mut [f64],
    f: &[f64],
    h2: f64,
    sweeps: usize,
    tag: i32,
) -> Result<(), MpiError> {
    let omega = 2.0 / 3.0;
    let diag = 2.0 / h2 + SIGMA;
    for s in 0..sweeps {
        let (mut left, r) = halo_ring(comm, u, tag + 2 * s as i32)?;
        let nl = u.len();
        for i in 0..nl {
            let old = u[i];
            let right = if i + 1 == nl { r } else { u[i + 1] };
            u[i] = (1.0 - omega) * old + omega * ((left + right) / h2 + f[i]) / diag;
            left = old;
        }
    }
    Ok(())
}

/// Full-weighting restriction of `res` onto the local odd points, into
/// `coarse` (coarse point `i` sits at fine point `2i+1`; globally consistent
/// because every rank's share is even wherever this is called).
pub fn restrict_fw<C: Comm>(
    comm: &mut C,
    res: &[f64],
    tag: i32,
    coarse: &mut [f64],
) -> Result<(), MpiError> {
    let (_, rr) = halo_ring(comm, res, tag)?;
    debug_assert_eq!(coarse.len(), res.len() / 2);
    for (i, c) in coarse.iter_mut().enumerate() {
        let fi = 2 * i + 1;
        let left = res[fi - 1];
        let right = if fi + 1 == res.len() { rr } else { res[fi + 1] };
        *c = 0.25 * left + 0.5 * res[fi] + 0.25 * right;
    }
    Ok(())
}

/// Linear prolongation of a coarse correction added into `fine`. Odd fine
/// points coincide with coarse points; even fine points average their two
/// coarse neighbours (the left one may live on the predecessor rank).
pub fn prolong_add<C: Comm>(
    comm: &mut C,
    coarse: &[f64],
    fine: &mut [f64],
    tag: i32,
) -> Result<(), MpiError> {
    let (l, _) = halo_ring(comm, coarse, tag)?;
    for (fi, fv) in fine.iter_mut().enumerate() {
        let add = if fi % 2 == 1 {
            coarse[fi / 2]
        } else {
            let left = if fi == 0 { l } else { coarse[(fi - 1) / 2] };
            0.5 * (left + coarse[fi / 2])
        };
        *fv += add;
    }
    Ok(())
}

/// Direct solve of the periodic (cyclic tridiagonal) Helmholtz system via
/// Sherman-Morrison: diagonal `b = 2/h² + σ`, off-diagonals and corners
/// `a = -1/h²`.
pub fn cyclic_thomas(rhs: &[f64], h2: f64, sigma: f64) -> Vec<f64> {
    let n = rhs.len();
    assert!(n >= 3, "cyclic Thomas needs at least 3 unknowns");
    let a = -1.0 / h2;
    let b = 2.0 / h2 + sigma;
    let gamma = -b;
    let mut diag = vec![b; n];
    diag[0] = b - gamma;
    diag[n - 1] = b - a * a / gamma;
    let solve = |d: &mut [f64]| {
        let mut cp = vec![0.0; n];
        cp[0] = a / diag[0];
        d[0] /= diag[0];
        for i in 1..n {
            let m = diag[i] - a * cp[i - 1];
            cp[i] = a / m;
            d[i] = (d[i] - a * d[i - 1]) / m;
        }
        for i in (0..n - 1).rev() {
            d[i] -= cp[i] * d[i + 1];
        }
    };
    let mut x1 = rhs.to_vec();
    solve(&mut x1);
    let mut x2 = vec![0.0; n];
    x2[0] = gamma;
    x2[n - 1] = a;
    solve(&mut x2);
    let fact = (x1[0] + a * x1[n - 1] / gamma) / (1.0 + x2[0] + a * x2[n - 1] / gamma);
    x1.iter().zip(&x2).map(|(y, z)| y - fact * z).collect()
}

/// Gather the distributed RHS to rank 0, solve the periodic system exactly,
/// and broadcast; returns this rank's share of the solution. The coarsest
/// level of both multigrid kernels uses this (hypre-style coarse solve), so
/// the numerical result is identical for every rank count.
pub fn gather_solve_bcast<C: Comm>(
    comm: &mut C,
    f: &[f64],
    n: usize,
    h2: f64,
) -> Result<Vec<f64>, MpiError> {
    let p = comm.nranks();
    let gathered = comm.gather_bytes(0, mpisim::bytes_of(f))?;
    let mut sol_bytes = Vec::new();
    if let Some(parts) = gathered {
        let mut rhs: Vec<f64> = Vec::with_capacity(n);
        for part in parts {
            rhs.extend(mpisim::vec_from_bytes::<f64>(&part));
        }
        debug_assert_eq!(rhs.len(), n);
        let sol = cyclic_thomas(&rhs, h2, SIGMA);
        sol_bytes = mpisim::bytes_of(&sol).to_vec();
    }
    comm.bcast_bytes(0, &mut sol_bytes)?;
    let sol: Vec<f64> = mpisim::vec_from_bytes(&sol_bytes);
    let share = n / p;
    let lo = comm.rank() * share;
    Ok(sol[lo..lo + share].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cyclic_thomas_solves_the_cyclic_system() {
        let n = 64;
        let h2 = h2_of(n);
        let rhs: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * i as f64 / n as f64).sin() + 0.1)
            .collect();
        let x = cyclic_thomas(&rhs, h2, SIGMA);
        for i in 0..n {
            let l = x[(i + n - 1) % n];
            let r = x[(i + 1) % n];
            let ax = (2.0 * x[i] - l - r) / h2 + SIGMA * x[i];
            assert!(
                (ax - rhs[i]).abs() < 1e-9 * rhs[i].abs().max(1.0),
                "row {i}: {ax} vs {}",
                rhs[i]
            );
        }
    }

    #[test]
    fn halo_ring_wraps() {
        let out = mpisim::launch(&mpisim::JobSpec::new(3), |ctx| {
            let me = ctx.rank();
            let u = vec![me as f64 * 10.0, me as f64 * 10.0 + 1.0];
            let (l, r) = halo_ring(ctx, &u, 40)?;
            Ok((l, r))
        })
        .unwrap();
        // Rank 0's left neighbour is rank 2 (last point 21), right is rank 1
        // (first point 10).
        assert_eq!(out.results[0], (21.0, 10.0));
        assert_eq!(out.results[1], (1.0, 20.0));
        assert_eq!(out.results[2], (11.0, 0.0));
    }

    #[test]
    fn halo_ring_single_rank_wraps_locally() {
        let out = mpisim::launch(&mpisim::JobSpec::new(1), |ctx| {
            let u = vec![7.0, 8.0, 9.0];
            halo_ring(ctx, &u, 40)
        })
        .unwrap();
        assert_eq!(out.results[0], (9.0, 7.0));
    }

    #[test]
    fn restriction_and_prolongation_are_adjoint_up_to_scale() {
        // <R v, w>_coarse ≈ 0.5 <v, P w>_fine for full weighting / linear
        // interpolation on a periodic grid.
        let out = mpisim::launch(&mpisim::JobSpec::new(1), |ctx| {
            let n = 16;
            let v: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 11) as f64 - 5.0).collect();
            let w: Vec<f64> = (0..n / 2).map(|i| ((i * 5 + 1) % 7) as f64 - 3.0).collect();
            let mut rv = vec![0.0; n / 2];
            restrict_fw(ctx, &v, 50, &mut rv)?;
            let mut pw = vec![0.0; n];
            prolong_add(ctx, &w, &mut pw, 52)?;
            let lhs: f64 = rv.iter().zip(&w).map(|(a, b)| a * b).sum();
            let rhs: f64 = v.iter().zip(&pw).map(|(a, b)| a * b).sum();
            Ok((lhs, rhs))
        })
        .unwrap();
        let (lhs, rhs) = out.results[0];
        assert!((lhs - 0.5 * rhs).abs() < 1e-12, "adjointness broken: {lhs} vs {}", 0.5 * rhs);
    }

    #[test]
    fn jacobi_converges_on_small_ring() {
        let out = mpisim::launch(&mpisim::JobSpec::new(1), |ctx| {
            let n = 8;
            let h2 = h2_of(n);
            let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.9).cos()).collect();
            let mut f = vec![0.0; n];
            apply_helmholtz(ctx, &x_true, h2, 60, &mut f)?;
            let mut u = vec![0.0; n];
            jacobi(ctx, &mut u, &f, h2, 6000, 62)?;
            let err: f64 =
                u.iter().zip(&x_true).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
            Ok(err)
        })
        .unwrap();
        assert!(out.results[0] < 1e-6, "Jacobi failed to converge: {}", out.results[0]);
    }
}
