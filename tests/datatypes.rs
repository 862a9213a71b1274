//! Derived datatypes across recovery lines (§4.2): the substrate's type
//! table, which retains freed types while dependents need them, is saved
//! with every checkpoint; recovery recreates every type (including
//! intermediate types of a hierarchy) with the same handle values, so
//! restored application state holding a handle keeps working.

mod util;

use c3::{C3Config, C3Ctx, C3Error, FailAt, FailurePlan};
use mpisim::{Datatype, ReduceOp, DT_F64, DT_I32};
use statesave::codec::{Decoder, Encoder};
use std::sync::Arc;
use util::TempStore;

/// Ranks exchange a strided column of an 8×8 row-major matrix every
/// iteration using a vector-of-contiguous datatype hierarchy created once at
/// startup. The handle is part of the saved state; after recovery the
/// restored handle must address the recreated type.
///
/// Each iteration also folds in a user-op allreduce. The op is an
/// order-sensitive chain (`b = 31·b + a`), built as a plain value and
/// passed with the call like `ReduceOp::Sum`: nothing is registered, and a
/// restarted rank simply builds it again.
fn typed_app(ctx: &mut C3Ctx<'_>) -> Result<u64, C3Error> {
    const N: usize = 8;
    let chain = ReduceOp::User {
        name: "chain".into(),
        f: Arc::new(|a, b, _| {
            for (ca, cb) in a.chunks_exact(8).zip(b.chunks_exact_mut(8)) {
                let x = u64::from_le_bytes(ca.try_into().unwrap());
                let y = u64::from_le_bytes((&*cb).try_into().unwrap());
                cb.copy_from_slice(&y.wrapping_mul(31).wrapping_add(x).to_le_bytes());
            }
        }),
    };
    let (mut iter, mut acc, col_ty) = match ctx.take_restored_state() {
        Some(b) => {
            let mut d = Decoder::new(&b);
            (d.u64()?, d.u64()?, mpisim::DatatypeHandle(d.u32()?))
        }
        None => {
            // A hierarchy: pair = 2 contiguous f64, column = every N-th
            // pair-start, 4 blocks of 1 pair.
            let pair = ctx.type_contiguous(2, DT_F64)?;
            let col = ctx.type_vector(4, 1, N / 2, pair)?;
            (0, 0, col)
        }
    };
    let me = ctx.rank();
    let n = ctx.nranks();
    while iter < 8 {
        ctx.pragma(|e: &mut Encoder| {
            e.u64(iter);
            e.u64(acc);
            e.u32(col_ty.0);
        })?;
        // Fill the matrix deterministically; send the strided column to the
        // successor; receive the predecessor's.
        let mat: Vec<f64> =
            (0..N * N).map(|k| (iter * 1000 + me as u64 * 100 + k as u64) as f64).collect();
        let bytes = mpisim::bytes_of(&mat);
        ctx.send_typed((me + 1) % n, 6, bytes, 1, col_ty)?;
        let mut recv_mat = vec![0.0f64; N * N];
        ctx.recv_typed(
            ((me + n - 1) % n) as i32,
            6,
            mpisim::bytes_of_mut(&mut recv_mat),
            1,
            col_ty,
        )?;
        // The received column landed at the strided positions; fold them.
        for blk in 0..4 {
            for j in 0..2 {
                let idx = blk * N + j;
                acc = acc.wrapping_mul(31).wrapping_add(recv_mat[idx] as u64);
            }
        }
        // World coupling keeps checkpoint coordination inside the loop.
        acc ^= ctx.allreduce_u64(acc, &chain)?;
        iter += 1;
    }
    Ok(acc)
}

#[test]
fn derived_datatype_roundtrip_is_strided() {
    // Sanity without failure: the strided pattern transfers the right cells.
    let store = TempStore::new("dt-plain");
    let out = c3::Job::new(2, C3Config::passive(store.path())).run(typed_app).unwrap();
    assert!(out.results.iter().all(|r| *r != 0));
    assert!(out.results[0] != out.results[1]); // different senders
}

#[test]
fn derived_datatypes_survive_failure_and_recovery() {
    let base_store = TempStore::new("dt-base");
    let baseline = c3::Job::new(3, C3Config::passive(base_store.path())).run(typed_app).unwrap();

    let store = TempStore::new("dt-fail");
    let cfg = C3Config::at_pragmas(store.path(), vec![3]);
    let plan = FailurePlan { rank: 1, when: FailAt::AfterCommits { commits: 1, pragma: 6 } };
    let rec = c3::Job::new(3, cfg).failure(plan).run(typed_app).unwrap();
    assert!(rec.restarts >= 1);
    assert_eq!(rec.handle.results, baseline.results);
}

/// Freeing an intermediate type of a hierarchy keeps the table entry until
/// dependents are gone (§4.2), so a checkpoint taken after the free still
/// recreates the full hierarchy on recovery.
#[test]
fn freed_intermediate_type_still_recovers() {
    fn app(ctx: &mut C3Ctx<'_>) -> Result<u64, C3Error> {
        let (mut iter, mut acc, outer) = match ctx.take_restored_state() {
            Some(b) => {
                let mut d = Decoder::new(&b);
                (d.u64()?, d.u64()?, mpisim::DatatypeHandle(d.u32()?))
            }
            None => {
                let inner = ctx.type_contiguous(3, DT_F64)?;
                let outer = ctx.type_vector(2, 1, 2, inner)?;
                // Free the intermediate immediately — MPI permits this; the
                // outer type must keep working, including across recovery.
                ctx.type_free(inner)?;
                (0, 0, outer)
            }
        };
        let me = ctx.rank();
        let n = ctx.nranks();
        while iter < 6 {
            ctx.pragma(|e: &mut Encoder| {
                e.u64(iter);
                e.u64(acc);
                e.u32(outer.0);
            })?;
            let data: Vec<f64> = (0..12).map(|k| (iter * 50 + me as u64 * 7 + k) as f64).collect();
            ctx.send_typed((me + 1) % n, 2, mpisim::bytes_of(&data), 1, outer)?;
            let mut got = vec![0.0f64; 12];
            ctx.recv_typed(((me + n - 1) % n) as i32, 2, mpisim::bytes_of_mut(&mut got), 1, outer)?;
            for v in &got {
                acc = acc.wrapping_mul(31).wrapping_add(*v as u64);
            }
            let _ = ctx.allreduce_u64(iter, &mpisim::ReduceOp::Max)?;
            iter += 1;
        }
        Ok(acc)
    }

    let base_store = TempStore::new("dt-free-base");
    let baseline = c3::Job::new(2, C3Config::passive(base_store.path())).run(app).unwrap();
    let store = TempStore::new("dt-free-fail");
    let cfg = C3Config::at_pragmas(store.path(), vec![2]);
    let plan = FailurePlan { rank: 0, when: FailAt::AfterCommits { commits: 1, pragma: 5 } };
    let rec = c3::Job::new(2, cfg).failure(plan).run(app).unwrap();
    assert!(rec.restarts >= 1);
    assert_eq!(rec.handle.results, baseline.results);
}

/// A type committed straight on the substrate — the only way to build an
/// `Indexed` one — is checkpointed like the protocol layer's own: after
/// recovery the handle restored from the application state addresses the
/// same layout.
#[test]
fn substrate_committed_indexed_type_survives_recovery() {
    fn app(ctx: &mut C3Ctx<'_>) -> Result<u64, C3Error> {
        let (mut iter, mut acc, ix) = match ctx.take_restored_state() {
            Some(b) => {
                let mut d = Decoder::new(&b);
                (d.u64()?, d.u64()?, mpisim::DatatypeHandle(d.u32()?))
            }
            None => {
                let blocks = vec![(0, 2), (5, 1), (9, 3)];
                let ix = ctx.mpi().types.commit(Datatype::Indexed { blocks, child: DT_I32 })?;
                (0, 0, ix)
            }
        };
        let me = ctx.rank();
        let n = ctx.nranks();
        while iter < 6 {
            ctx.pragma(|e: &mut Encoder| {
                e.u64(iter);
                e.u64(acc);
                e.u32(ix.0);
            })?;
            let data: Vec<i32> = (0..12).map(|k| (iter * 40 + me as u64 * 5) as i32 + k).collect();
            ctx.send_typed((me + 1) % n, 4, mpisim::bytes_of(&data), 1, ix)?;
            let mut got = vec![0i32; 12];
            ctx.recv_typed(((me + n - 1) % n) as i32, 4, mpisim::bytes_of_mut(&mut got), 1, ix)?;
            for v in &got {
                acc = acc.wrapping_mul(31).wrapping_add(*v as u64);
            }
            let _ = ctx.allreduce_u64(iter, &ReduceOp::Max)?;
            iter += 1;
        }
        Ok(acc)
    }

    let base_store = TempStore::new("dt-ix-base");
    let baseline = c3::Job::new(3, C3Config::passive(base_store.path())).run(app).unwrap();
    let store = TempStore::new("dt-ix-fail");
    let cfg = C3Config::at_pragmas(store.path(), vec![2]);
    let plan = FailurePlan { rank: 1, when: FailAt::AfterCommits { commits: 1, pragma: 5 } };
    let rec = c3::Job::new(3, cfg).failure(plan).run(app).unwrap();
    assert!(rec.restarts >= 1);
    assert_eq!(rec.handle.results, baseline.results);
}
