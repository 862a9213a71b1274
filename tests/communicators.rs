//! The §4.4 extension: communicators and groups. Creation is recorded in an
//! indirection table saved with every checkpoint; derived-communicator
//! traffic (p2p and collectives) runs through the same protocol streams as
//! world traffic, so recovery replays and suppresses it identically.

mod util;

use c3::{C3Comm, C3Config, C3Ctx, C3Error, FailAt, FailurePlan};
use mpisim::ReduceOp;
use statesave::codec::{Decoder, Encoder};
use util::TempStore;

#[test]
fn split_partitions_and_orders_by_key() {
    let store = TempStore::new("split");
    let out = c3::Job::new(6, C3Config::passive(store.path()))
        .run(|ctx| {
            let world = ctx.comm_world();
            // Even/odd split; keys reverse the world order inside each half.
            let color = (ctx.rank() % 2) as i64;
            let key = -(ctx.rank() as i64);
            let sub = ctx.comm_split(world, Some(color), key)?.expect("member");
            let size = ctx.comm_size(sub)?;
            let local = ctx.comm_rank(sub)?.expect("member rank");
            Ok((size, local))
        })
        .unwrap();
    for (world_rank, (size, local)) in out.results.iter().enumerate() {
        assert_eq!(*size, 3, "rank {world_rank}");
        // Keys are negative world ranks, so local order is reversed: world
        // rank 0 (key 0) is the *last* of the evens, world 4 the first.
        let expected = match world_rank {
            0 => 2,
            2 => 1,
            4 => 0,
            1 => 2,
            3 => 1,
            5 => 0,
            _ => unreachable!(),
        };
        assert_eq!(*local, expected, "world rank {world_rank}");
    }
}

#[test]
fn undefined_color_yields_none_but_participates() {
    let store = TempStore::new("undef");
    let out = c3::Job::new(4, C3Config::passive(store.path()))
        .run(|ctx| {
            let world = ctx.comm_world();
            let color = if ctx.rank() < 2 { Some(0) } else { None };
            let sub = ctx.comm_split(world, color, 0)?;
            Ok(sub.is_some())
        })
        .unwrap();
    assert_eq!(out.results, vec![true, true, false, false]);
}

#[test]
fn subgroup_collectives_and_p2p() {
    let store = TempStore::new("coll");
    let out = c3::Job::new(6, C3Config::passive(store.path()))
        .run(|ctx| {
            let world = ctx.comm_world();
            let color = (ctx.rank() / 3) as i64; // {0,1,2} and {3,4,5}
            let sub = ctx.comm_split(world, Some(color), 0)?.expect("member");
            let local = ctx.comm_rank(sub)?.unwrap();

            // Allreduce of world ranks inside the subgroup.
            let sum = ctx.allreduce_on(
                sub,
                &(ctx.rank() as u64).to_le_bytes(),
                mpisim::BasicType::U64,
                &ReduceOp::Sum,
            )?;
            let sum = u64::from_le_bytes(sum[..8].try_into().unwrap());

            // Bcast from subgroup root.
            let mut data = if local == 0 { vec![color as u8 + 10] } else { Vec::new() };
            ctx.bcast_on(sub, 0, &mut data)?;

            // Ring p2p inside the subgroup (local ranks).
            let n = ctx.comm_size(sub)?;
            ctx.send_on(sub, (local + 1) % n, 5, &[local as u8])?;
            let (got, st) = ctx.recv_on(sub, ((local + n - 1) % n) as i32, 5)?;
            assert_eq!(st.src, (local + n - 1) % n, "status carries the local rank");

            Ok((sum, data[0], got[0]))
        })
        .unwrap();
    for (world_rank, (sum, b, got)) in out.results.iter().enumerate() {
        let expected_sum: u64 = if world_rank < 3 { 1 + 2 } else { 3 + 4 + 5 };
        assert_eq!(*sum, expected_sum, "rank {world_rank}");
        assert_eq!(*b, if world_rank < 3 { 10 } else { 11 });
        let local = world_rank % 3;
        assert_eq!(*got as usize, (local + 2) % 3);
    }
}

#[test]
fn same_tag_different_comms_do_not_cross() {
    // Two sibling split communicators with overlapping tags: a message sent
    // on one must never match a receive on the other, even with identical
    // (world-src, tag) pairs — the derived wire ids separate them.
    let store = TempStore::new("cross");
    let out = c3::Job::new(2, C3Config::passive(store.path()))
        .run(|ctx| {
            let world = ctx.comm_world();
            let a = ctx.comm_split(world, Some(0), 0)?.unwrap();
            let b = ctx.comm_dup(a)?;
            if ctx.rank() == 0 {
                ctx.send_on(a, 1, 9, &[1u8])?;
                ctx.send_on(b, 1, 9, &[2u8])?;
                Ok(0)
            } else {
                // Receive in the *opposite* order of sending: comm separation,
                // not arrival order, must route these.
                let (vb, _) = ctx.recv_on(b, 0, 9)?;
                let (va, _) = ctx.recv_on(a, 0, 9)?;
                assert_eq!((va[0], vb[0]), (1, 2));
                Ok(1)
            }
        })
        .unwrap();
    assert_eq!(out.results, vec![0, 1]);
}

#[test]
fn comm_free_rejects_reuse_and_double_free() {
    let store = TempStore::new("free");
    c3::Job::new(2, C3Config::passive(store.path()))
        .run(|ctx| {
            let world = ctx.comm_world();
            let sub = ctx.comm_dup(world)?;
            ctx.comm_free(sub)?;
            assert!(ctx.comm_free(sub).is_err(), "double free must fail");
            assert!(ctx.barrier_on(sub).is_err(), "use after free must fail");
            assert!(ctx.comm_free(ctx.comm_world()).is_err(), "world is not freeable");
            Ok(())
        })
        .unwrap();
}

/// The paper's requirement: communicator structures are part of the
/// checkpoint and recovery rebuilds them. A job splits the world, works on
/// the halves, checkpoints, fails, recovers, and keeps using the restored
/// communicator handle — result equals the failure-free run.
#[test]
fn derived_comms_survive_failure_and_recovery() {
    fn app(ctx: &mut C3Ctx<'_>) -> Result<u64, C3Error> {
        let world = ctx.comm_world();
        // State: iteration + checksum + the communicator handle id. The
        // handle is restored from the comms checkpoint section; the id is
        // saved app-side like any other variable.
        let (mut iter, mut acc, sub) = match ctx.take_restored_state() {
            Some(b) => {
                let mut d = Decoder::new(&b);
                (d.u64()?, d.u64()?, C3Comm(d.u64()?))
            }
            None => {
                let color = (ctx.rank() % 2) as i64;
                let sub = ctx.comm_split(world, Some(color), 0)?.expect("member");
                (0, 0, sub)
            }
        };
        let local = ctx.comm_rank(sub)?.expect("restored membership");
        let n = ctx.comm_size(sub)?;
        while iter < 10 {
            ctx.pragma(|e: &mut Encoder| {
                e.u64(iter);
                e.u64(acc);
                e.u64(sub.0);
            })?;
            // Subgroup ring + subgroup reduction each iteration.
            ctx.send_on(sub, (local + 1) % n, 3, &(iter * 7 + local as u64).to_le_bytes())?;
            let (v, _) = ctx.recv_on(sub, ((local + n - 1) % n) as i32, 3)?;
            let s = ctx.allreduce_on(sub, &v[..8], mpisim::BasicType::U64, &ReduceOp::Sum)?;
            acc = acc
                .wrapping_mul(0x100000001b3)
                .wrapping_add(u64::from_le_bytes(s[..8].try_into().unwrap()));
            // World coupling each iteration (as every real kernel has): it
            // keeps all ranks advancing together so the checkpoint
            // coordination completes while the loop is still running.
            let world_sum = ctx.allreduce_u64(iter, &ReduceOp::Sum)?;
            acc = acc.wrapping_add(world_sum);
            iter += 1;
        }
        Ok(acc)
    }

    let base_store = TempStore::new("rec-base");
    let baseline = c3::Job::new(4, C3Config::passive(base_store.path())).run(app).unwrap();

    let store = TempStore::new("rec-fail");
    let cfg = C3Config::at_pragmas(store.path(), vec![4]);
    let plan = FailurePlan { rank: 3, when: FailAt::AfterCommits { commits: 1, pragma: 7 } };
    let rec = c3::Job::new(4, cfg).failure(plan).run(app).unwrap();
    assert!(rec.restarts >= 1);
    assert_eq!(rec.handle.results, baseline.results);
}

/// Nested derivation: split a split, with traffic on all three levels.
#[test]
fn nested_splits() {
    let store = TempStore::new("nest");
    let out = c3::Job::new(8, C3Config::passive(store.path()))
        .run(|ctx| {
            let world = ctx.comm_world();
            let half = ctx.comm_split(world, Some((ctx.rank() / 4) as i64), 0)?.unwrap();
            let quarter =
                ctx.comm_split(half, Some((ctx.comm_rank(half)?.unwrap() / 2) as i64), 0)?.unwrap();
            assert_eq!(ctx.comm_size(quarter)?, 2);
            let s = ctx.allreduce_on(
                quarter,
                &(ctx.rank() as u64).to_le_bytes(),
                mpisim::BasicType::U64,
                &ReduceOp::Sum,
            )?;
            Ok(u64::from_le_bytes(s[..8].try_into().unwrap()))
        })
        .unwrap();
    // Quarters are {0,1},{2,3},{4,5},{6,7}: sums 1,1,5,5,9,9,13,13.
    assert_eq!(out.results, vec![1, 1, 5, 5, 9, 9, 13, 13]);
}

/// A 2D Cartesian topology (§4.4 "topologies"): halo exchange over cart
/// shifts, checkpointed and recovered.
#[test]
fn cart_topology_halo_exchange_recovers() {
    fn app(ctx: &mut C3Ctx<'_>) -> Result<u64, C3Error> {
        let world = ctx.comm_world();
        let (mut iter, mut val, topo) = match ctx.take_restored_state() {
            Some(b) => {
                let mut d = Decoder::new(&b);
                let iter = d.u64()?;
                let val = d.u64()?;
                let comm = C3Comm(d.u64()?);
                // The topology is pure data over the recorded communicator.
                (iter, val, c3::CartTopo { comm, dims: vec![2, 2], periodic: vec![true, true] })
            }
            None => {
                let topo = ctx.cart_create(world, &[2, 2], &[true, true])?.expect("fits");
                (0, ctx.rank() as u64, topo)
            }
        };
        let me = ctx.comm_rank(topo.comm)?.expect("grid member");
        while iter < 8 {
            ctx.pragma(|e: &mut Encoder| {
                e.u64(iter);
                e.u64(val);
                e.u64(topo.comm.0);
            })?;
            // Shift along alternating dimensions each iteration.
            let dim = (iter % 2) as usize;
            let (src, dst) = topo.shift(me, dim, 1);
            let (src, dst) = (src.unwrap(), dst.unwrap()); // periodic: always Some
            ctx.send_on(topo.comm, dst, 4, &val.to_le_bytes())?;
            let (v, _) = ctx.recv_on(topo.comm, src as i32, 4)?;
            val = val.wrapping_mul(31).wrapping_add(u64::from_le_bytes(v[..8].try_into().unwrap()));
            // World coupling so checkpoint coordination completes in-loop.
            let _ = ctx.allreduce_u64(val, &ReduceOp::Max)?;
            iter += 1;
        }
        Ok(val)
    }

    let base_store = TempStore::new("cart-base");
    let baseline = c3::Job::new(4, C3Config::passive(base_store.path())).run(app).unwrap();
    let store = TempStore::new("cart-fail");
    let cfg = C3Config::at_pragmas(store.path(), vec![3]);
    let plan = FailurePlan { rank: 2, when: FailAt::AfterCommits { commits: 1, pragma: 6 } };
    let rec = c3::Job::new(4, cfg).failure(plan).run(app).unwrap();
    assert!(rec.restarts >= 1);
    assert_eq!(rec.handle.results, baseline.results);
}

/// Replay depends on reductions folding strictly left to right in
/// local-rank order: a recomputed result must equal the logged one bit for
/// bit. The inputs make every other association (pairwise tree, right
/// fold) differ from the left fold in the last bit, on the world and on a
/// split whose keys reverse the world order.
#[test]
fn allreduce_is_the_sequential_rank_order_fold() {
    // 1e16 + 1.0 rounds back to 1e16, so where the ±1e16 pair cancels
    // decides which of the 1.0s survive.
    let input = |local: usize| -> f64 { [1e16, 1.0, -1e16, 1.0][local % 4] };
    let left_fold = |m: usize| (1..m).fold(input(0), |acc, i| acc + input(i)).to_bits();
    assert_ne!(left_fold(4), ((input(0) + input(1)) + (input(2) + input(3))).to_bits());

    for n in [1usize, 2, 3, 5, 8] {
        let store = TempStore::new(&format!("fold-order-{n}"));
        let out = c3::Job::new(n, C3Config::passive(store.path()))
            .run(|ctx| {
                let world = ctx.comm_world();
                let color = (ctx.rank() % 2) as i64;
                let half = ctx.comm_split(world, Some(color), -(ctx.rank() as i64))?.unwrap();
                let mut bits = Vec::new();
                for c in [world, half] {
                    let local = ctx.comm_rank(c)?.expect("member");
                    let sum = ctx.allreduce_on(
                        c,
                        &input(local).to_le_bytes(),
                        mpisim::BasicType::F64,
                        &ReduceOp::Sum,
                    )?;
                    bits.push(u64::from_le_bytes(sum[..8].try_into().unwrap()));
                }
                Ok(bits)
            })
            .unwrap();
        for (rank, bits) in out.results.iter().enumerate() {
            let half_size = if rank % 2 == 0 { n.div_ceil(2) } else { n / 2 };
            assert_eq!(bits[0], left_fold(n), "n={n} rank {rank} world");
            assert_eq!(bits[1], left_fold(half_size), "n={n} rank {rank} half");
        }
    }
}

/// The protocol bcast is the substrate's binomial relay tree: from a
/// non-zero root, the root sends ⌈log₂ m⌉ streams and the job m−1, on the
/// world and on a split that reverses the world order. A scan is a chain of
/// n−1 streams.
#[test]
fn bcast_is_a_relay_tree_and_scan_a_chain() {
    for m in [2usize, 5, 8] {
        let store = TempStore::new(&format!("relay-tree-{m}"));
        let out = c3::Job::new(m, C3Config::passive(store.path()))
            .run(|ctx| {
                let world = ctx.comm_world();
                let rev = ctx.comm_split(world, Some(0), -(ctx.rank() as i64))?.expect("member");
                // (local rank, streams sent) per bcast, then the scan's.
                let mut sent = Vec::new();
                for c in [world, rev] {
                    let local = ctx.comm_rank(c)?.expect("member");
                    let mut data = if local == 1 { vec![7u8; 3] } else { Vec::new() };
                    let at = ctx.stats().msgs_sent;
                    ctx.bcast_on(c, 1, &mut data)?;
                    sent.push((local, ctx.stats().msgs_sent - at));
                    assert_eq!(data, vec![7u8; 3]);
                }
                let at = ctx.stats().msgs_sent;
                ctx.scan(&1u64.to_le_bytes(), mpisim::BasicType::U64, &ReduceOp::Sum)?;
                sent.push((ctx.rank(), ctx.stats().msgs_sent - at));
                Ok(sent)
            })
            .unwrap();
        let depth = m.next_power_of_two().trailing_zeros() as u64;
        for (call, what) in ["world bcast", "split bcast", "scan"].iter().enumerate() {
            let total: u64 = out.results.iter().map(|s| s[call].1).sum();
            assert_eq!(total, m as u64 - 1, "m={m} {what} total");
        }
        for call in 0..2 {
            let root = out.results.iter().find(|s| s[call].0 == 1).expect("a root");
            assert_eq!(root[call].1, depth, "m={m} call {call} root");
        }
    }
}

/// A root outside the group is an argument error on both layers, raised
/// before any stream moves — not an arithmetic panic inside the tree.
#[test]
fn rooted_collectives_reject_a_root_past_the_group() {
    use mpisim::{BasicType, MpiError, COMM_WORLD};
    let bad = |r: Result<(), MpiError>| matches!(r, Err(MpiError::InvalidArg(_)));
    let raw = mpisim::launch(&mpisim::JobSpec::new(2), |ctx| {
        let n = ctx.nranks();
        Ok([
            bad(ctx.bcast(COMM_WORLD, n, &mut vec![1])),
            bad(ctx.gather(COMM_WORLD, n, &[1]).map(drop)),
            bad(ctx.scatter(COMM_WORLD, n, None).map(drop)),
            bad(ctx.reduce(COMM_WORLD, n, &[1], BasicType::U8, &ReduceOp::Sum).map(drop)),
        ])
    })
    .unwrap();
    assert!(raw.results.iter().flatten().all(|ok| *ok), "raw: {:?}", raw.results);

    let store = TempStore::new("root-past-group");
    let c3 = c3::Job::new(4, C3Config::passive(store.path()))
        .run(|ctx| {
            let world = ctx.comm_world();
            let half = ctx.comm_split(world, Some((ctx.rank() % 2) as i64), 0)?.expect("member");
            let on_half = ctx.bcast_on(half, 2, &mut vec![1]);
            let on_world = ctx.bcast(4, &mut vec![1]);
            // The group still works afterwards: nothing was consumed.
            ctx.barrier_on(half)?;
            Ok([on_half, on_world].map(|r| bad(r.map_err(C3Error::into_mpi))))
        })
        .unwrap();
    assert!(c3.results.iter().flatten().all(|ok| *ok), "c3: {:?}", c3.results);
}
