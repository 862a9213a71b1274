//! Property-based tests on the protocol's data structures and invariants,
//! spanning the `c3` and `statesave` crates.

mod util;

use c3::piggyback::{self, MsgClass, PigData};
use c3::registries::{EarlyRegistry, ReplayLog, StreamKind, StreamSig, WasEarlyRegistry};
use c3::Mode;
use proptest::prelude::*;
use statesave::codec::{Decoder, Encoder};
use statesave::{DirtyTracker, IncrementalSaver};
use std::collections::BTreeMap;

fn any_mode() -> impl Strategy<Value = Mode> {
    prop_oneof![
        Just(Mode::Run),
        Just(Mode::NonDetLog),
        Just(Mode::RecvOnlyLog),
        Just(Mode::Restore),
    ]
}

fn any_kind() -> impl Strategy<Value = StreamKind> {
    prop_oneof![
        (0i32..1000).prop_map(|tag| StreamKind::P2p { tag }),
        (0u64..10_000).prop_map(|call| StreamKind::Coll { call }),
    ]
}

fn any_sig() -> impl Strategy<Value = StreamSig> {
    (0usize..64, 0usize..64, 0u32..4, any_kind()).prop_map(|(src, dst, comm, kind)| StreamSig {
        src,
        dst,
        comm,
        kind,
    })
}

proptest! {
    /// The 3-bit piggyback roundtrips the epoch color and logging bit for
    /// every epoch × mode combination (§3.2).
    #[test]
    fn piggyback_roundtrip(epoch in 0u64..1_000_000, mode in any_mode()) {
        let pig = PigData::of(epoch, mode);
        let byte = piggyback::encode(pig);
        // Only 3 bits on the wire.
        prop_assert!(byte < 8, "more than 3 bits used: {byte:#x}");
        let (color, logging) = piggyback::decode(byte);
        prop_assert_eq!(color, (epoch % 3) as u8);
        prop_assert_eq!(logging, mode.nondet_logging());
    }

    /// Classification recovers the sender-receiver epoch relation for every
    /// legal epoch distance (|eA - eB| <= 1, Definition 1 + the at-most-one-
    /// line-crossing property).
    #[test]
    fn classification_matches_epoch_relation(
        receiver_epoch in 1u64..1_000_000,
        delta in -1i64..=1,
        mode in any_mode(),
    ) {
        let sender_epoch = (receiver_epoch as i64 + delta) as u64;
        let pig = PigData::of(sender_epoch, mode);
        let (color, _) = piggyback::decode(piggyback::encode(pig));
        let class = piggyback::classify(receiver_epoch, color);
        let expected = match delta {
            -1 => MsgClass::Late,
            0 => MsgClass::IntraEpoch,
            1 => MsgClass::Early,
            _ => unreachable!(),
        };
        prop_assert_eq!(class, expected);
    }

    /// Transition legality matches Fig. 3 exactly.
    #[test]
    fn mode_machine_is_fig3(a in any_mode(), b in any_mode()) {
        let legal = matches!(
            (a, b),
            (Mode::Run, Mode::NonDetLog)            // start checkpoint
                | (Mode::NonDetLog, Mode::RecvOnlyLog) // all nodes started
                | (Mode::RecvOnlyLog, Mode::Run)       // commit
                | (Mode::NonDetLog, Mode::Run)         // fast-path commit (Fig. 5
                                                       // pragma: no late expected)
                | (Mode::Restore, Mode::Run)           // restore done
        );
        prop_assert_eq!(a.can_transition(b), legal, "transition {:?} -> {:?}", a, b);
    }

    /// The binary codec roundtrips arbitrary interleavings of values — the
    /// paper's "all data saved as binary" format must be self-consistent.
    #[test]
    fn codec_roundtrip(
        us in proptest::collection::vec(any::<u64>(), 0..50),
        is in proptest::collection::vec(any::<i64>(), 0..50),
        fs in proptest::collection::vec(any::<f64>(), 0..50),
        bs in proptest::collection::vec(any::<u8>(), 0..200),
        s in "[ -~]{0,64}",
        flag in any::<bool>(),
    ) {
        let mut e = Encoder::new();
        e.bool(flag);
        for v in &us { e.u64(*v); }
        e.str(&s);
        for v in &is { e.i64(*v); }
        e.bytes(&bs);
        e.f64_slice(&fs);
        e.usize(us.len());

        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        prop_assert_eq!(d.bool().unwrap(), flag);
        for v in &us { prop_assert_eq!(d.u64().unwrap(), *v); }
        prop_assert_eq!(d.str().unwrap(), s);
        for v in &is { prop_assert_eq!(d.i64().unwrap(), *v); }
        prop_assert_eq!(d.bytes().unwrap(), bs);
        let back = d.f64_vec().unwrap();
        prop_assert_eq!(back.len(), fs.len());
        for (a, b) in back.iter().zip(&fs) {
            prop_assert!(a == b || (a.is_nan() && b.is_nan()));
        }
        prop_assert_eq!(d.usize().unwrap(), us.len());
        prop_assert!(d.is_exhausted());
    }

    /// Truncated buffers always produce an error, never a panic or a bogus
    /// value read past the end.
    #[test]
    fn codec_rejects_truncation(
        vals in proptest::collection::vec(any::<u64>(), 1..20),
        cut in any::<proptest::sample::Index>(),
    ) {
        let mut e = Encoder::new();
        for v in &vals { e.u64(*v); }
        let buf = e.finish();
        let cut = cut.index(buf.len().max(1));
        let mut d = Decoder::new(&buf[..cut]);
        let mut ok = 0usize;
        while let Ok(v) = d.u64() {
            prop_assert_eq!(v, vals[ok]);
            ok += 1;
            prop_assert!(ok <= vals.len());
        }
        prop_assert_eq!(ok, cut / 8);
    }

    /// The replay log preserves per-signature FIFO: entries with the same
    /// signature are taken in insertion order, and every inserted late
    /// message is taken exactly once.
    #[test]
    fn replay_log_fifo_per_signature(
        sigs in proptest::collection::vec(any_sig(), 1..40),
    ) {
        let mut log = ReplayLog::new();
        // Tag each message's payload with its global insertion index.
        for (i, sig) in sigs.iter().enumerate() {
            log.push_late(*sig, vec![i as u8]);
        }
        // Drain by repeatedly taking the match for each distinct signature.
        let mut taken: Vec<(StreamSig, u8)> = Vec::new();
        for sig in &sigs {
            if let StreamKind::P2p { tag } = sig.kind {
                if let Some(entry) = log.take_p2p_match(sig.src as i32, tag, sig.comm) {
                    taken.push((entry.sig, entry.data.unwrap()[0]));
                }
            } else if let StreamKind::Coll { call } = sig.kind {
                if let Some(data) = log.take_coll_match(sig.comm, call, sig.src) {
                    taken.push((*sig, data[0]));
                }
            }
        }
        // Per signature, indices must be increasing.
        let mut last: BTreeMap<String, u8> = BTreeMap::new();
        for (sig, idx) in &taken {
            let key = format!("{sig:?}");
            if let Some(prev) = last.get(&key) {
                prop_assert!(idx > prev, "same-signature replay out of order");
            }
            last.insert(key, *idx);
        }
    }

    /// Early-registry entries routed per sender and suppressed in the
    /// Was-Early-Registry: every recorded early message is suppressed
    /// exactly once, and an extra send is NOT suppressed.
    #[test]
    fn early_suppression_is_exactly_once(
        sigs in proptest::collection::vec(any_sig(), 0..30),
    ) {
        let mut early = EarlyRegistry::new();
        for s in &sigs {
            early.push(*s);
        }
        let mut was = WasEarlyRegistry::new();
        for src in 0..64 {
            for s in early.entries_from(src) {
                was.add(s);
            }
        }
        prop_assert_eq!(was.len(), sigs.len());
        for s in &sigs {
            prop_assert!(was.try_suppress(s), "recorded early send not suppressed");
        }
        prop_assert!(was.is_empty());
        for s in &sigs {
            prop_assert!(!was.try_suppress(s), "suppressed more sends than were early");
        }
    }

    /// Registries roundtrip through the checkpoint codec.
    #[test]
    fn registries_roundtrip_codec(sigs in proptest::collection::vec(any_sig(), 0..30)) {
        let mut log = ReplayLog::new();
        let mut early = EarlyRegistry::new();
        for (i, s) in sigs.iter().enumerate() {
            log.push_late(*s, vec![i as u8; i % 7]);
            early.push(*s);
        }
        let mut e = Encoder::new();
        log.save(&mut e);
        early.save(&mut e);
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        let log2 = ReplayLog::load(&mut d).unwrap();
        let early2 = EarlyRegistry::load(&mut d).unwrap();
        prop_assert_eq!(&log2, &log);
        prop_assert_eq!(early2.entries(), early.entries());
    }

    /// Incremental checkpointing (§8 future work, implemented here):
    /// reconstructing from any delta chain equals the full state at the last
    /// checkpoint, and unchanged chunks are not re-stored.
    #[test]
    fn incremental_reconstructs_exactly(
        steps in proptest::collection::vec(
            proptest::collection::btree_map("[a-d]", proptest::collection::vec(any::<u8>(), 0..12), 0..4),
            1..8,
        ),
    ) {
        const CHUNK: usize = 4;
        let mut tracker = DirtyTracker::with_chunk_size(CHUNK);
        let mut chain = Vec::new();
        let mut state: BTreeMap<String, Vec<u8>> = BTreeMap::new();
        let checkpoint = |tracker: &mut DirtyTracker, state: &BTreeMap<String, Vec<u8>>| {
            let sections: Vec<(&str, &[u8])> =
                state.iter().map(|(k, v)| (k.as_str(), v.as_slice())).collect();
            tracker.checkpoint(&sections)
        };
        for step in &steps {
            for (k, v) in step {
                state.insert(k.clone(), v.clone());
            }
            chain.push(checkpoint(&mut tracker, &state));
        }
        let rebuilt = DirtyTracker::assemble(&IncrementalSaver::reconstruct(&chain).unwrap()).unwrap();
        prop_assert_eq!(&rebuilt, &state);
        // A checkpoint with no changes re-stores no chunk *data* — only the
        // header (chunk size, section count), the section table (name
        // length, name, byte length) and one 9-byte reference (kind, hash)
        // per chunk.
        let empty_delta = checkpoint(&mut tracker, &state);
        let table: usize = state.keys().map(|k| 1 + k.len() + 8).sum();
        let refs: usize = state.values().map(|v| v.len().div_ceil(CHUNK) * 9).sum();
        prop_assert_eq!(empty_delta.as_bytes().len(), 8 + table + refs);
    }
}

/// The signature-indexed mailbox must be observationally identical to the
/// linear-scan model it replaced: for any interleaving of deliveries and
/// (possibly wildcard) claims, every claim returns the first envelope in
/// *global arrival order* whose signature matches, and per-signature FIFO
/// is never violated.
mod mailbox_model {
    use super::*;
    use mpisim::{Envelope, Mailbox, Payload, ANY_SOURCE, ANY_TAG, COMM_WORLD};

    fn mk_env(src: usize, tag: i32, label: u64) -> Envelope {
        Envelope {
            src,
            dst: 0,
            tag,
            comm: COMM_WORLD,
            seq: label,
            piggyback: 0,
            depart_vt: 0,
            payload: Payload::from_vec(label.to_le_bytes().to_vec()),
        }
    }

    proptest! {
        /// One generated step is `(kind, src, tag, wild_src, wild_tag,
        /// batch_len)`: kind 0 delivers `(src, tag)`, kind 1 delivers a
        /// batch of `batch_len` mixed-source envelopes, and any other kind
        /// claims with independently wildcarded source and tag. Batches
        /// enter the reference in vec order, which is the determinism
        /// contract for `deliver_batch`.
        #[test]
        fn indexed_mailbox_matches_linear_scan_reference(
            ops in proptest::collection::vec(
                (0u8..3, 0usize..4, 0i32..3, any::<bool>(), any::<bool>(), 1usize..5),
                1..200,
            ),
        ) {
            let mb = Mailbox::new();
            // Reference model: arrival-ordered vector, claims scan front to
            // back — the seed implementation's exact semantics.
            let mut reference: Vec<Envelope> = Vec::new();
            let mut label = 0u64;
            for (kind, src, tag, wild_src, wild_tag, batch_len) in ops {
                match kind {
                    0 => {
                        let e = mk_env(src, tag, label);
                        label += 1;
                        mb.deliver(e.clone());
                        reference.push(e);
                    }
                    1 => {
                        let mut batch = Vec::with_capacity(batch_len);
                        for i in 0..batch_len {
                            let e = mk_env((src + i) % 4, tag, label);
                            label += 1;
                            reference.push(e.clone());
                            batch.push(e);
                        }
                        mb.deliver_batch(batch);
                    }
                    _ => {
                        let qsrc = if wild_src { ANY_SOURCE } else { src as i32 };
                        let qtag = if wild_tag { ANY_TAG } else { tag };
                        // Probe must agree with the model *before* the claim.
                        let expect_probe = reference
                            .iter()
                            .find(|e| e.matches(qsrc, qtag, COMM_WORLD))
                            .map(|e| (e.src, e.tag, e.payload.len()));
                        prop_assert_eq!(mb.probe(qsrc, qtag, COMM_WORLD), expect_probe);
                        let expected = reference
                            .iter()
                            .position(|e| e.matches(qsrc, qtag, COMM_WORLD))
                            .map(|i| reference.remove(i));
                        let got = mb.try_claim(qsrc, qtag, COMM_WORLD);
                        prop_assert_eq!(
                            expected.as_ref().map(|e| (e.src, e.tag, e.seq)),
                            got.as_ref().map(|g| (g.src, g.tag, g.seq)),
                            "claim (src {}, tag {}) diverged from the reference",
                            qsrc,
                            qtag
                        );
                        prop_assert_eq!(mb.len(), reference.len());
                    }
                }
            }
            // Full-wildcard drain must replay the remaining envelopes in
            // exact global arrival order, whatever mix of signatures is
            // left.
            for e in reference {
                let g = mb.try_claim(ANY_SOURCE, ANY_TAG, COMM_WORLD).unwrap();
                prop_assert_eq!((e.src, e.tag, e.seq), (g.src, g.tag, g.seq));
            }
            prop_assert!(mb.is_empty());
        }

        /// Per-signature FIFO survives the indexed rewrite: draining any one
        /// signature with exact claims yields its labels in send order.
        #[test]
        fn per_signature_fifo_under_exact_claims(
            sends in proptest::collection::vec((0usize..3, 0i32..3), 1..120),
        ) {
            let mb = Mailbox::new();
            for (label, (src, tag)) in sends.iter().enumerate() {
                mb.deliver(mk_env(*src, *tag, label as u64));
            }
            for src in 0..3usize {
                for tag in 0..3i32 {
                    let mut last: Option<u64> = None;
                    while let Some(e) = mb.try_claim(src as i32, tag, COMM_WORLD) {
                        if let Some(prev) = last {
                            prop_assert!(
                                e.seq > prev,
                                "signature ({src},{tag}) replayed out of order: {} after {}",
                                e.seq,
                                prev
                            );
                        }
                        last = Some(e.seq);
                    }
                }
            }
            prop_assert!(mb.is_empty());
        }
    }
}

/// The receive-side protocol (Fig. 4) as a reference model: shuffled
/// sequences of epoch deltas (late / intra-epoch / early), sender-logging
/// bits, and wildcard flags are driven through the protocol core's
/// `Protocol::arrive`, and every observable effect — the class, late/early/
/// wildcard-signature counts, logged bytes, and the mode machine — must
/// match an independent model derived from the paper's Definition 1 and
/// §3.1/§4.1 logging rules.
mod arrival_classification_model {
    use super::*;
    use c3::machine::{Arrival, Next, Protocol};
    use c3::CkptPolicy;

    /// One generated arrival: epoch delta (-1/0/+1 relative to the
    /// receiver), the sender's logging bit, the receiver-side wildcard
    /// flag, a tag, and a payload length.
    type ArrivalCase = (i8, bool, bool, u8, u8);

    /// The independent model of the receive side.
    #[derive(Default)]
    struct Model {
        late: u64,
        late_bytes: u64,
        early: u64,
        wildcard_sigs: u64,
        /// 0 = Run, 1 = NonDetLog, 2 = RecvOnlyLog.
        mode: u8,
    }

    impl Model {
        fn apply(&mut self, class: MsgClass, sender_logging: bool, wildcard: bool, len: u64) {
            match class {
                MsgClass::Late => {
                    self.late += 1;
                    self.late_bytes += len;
                }
                MsgClass::IntraEpoch => {
                    if self.mode == 1 {
                        if !sender_logging {
                            // §3.1: the sender knows everyone started, so
                            // the receiver must stop nondet logging too.
                            self.mode = 2;
                        } else if wildcard {
                            self.wildcard_sigs += 1;
                        }
                    }
                }
                MsgClass::Early => self.early += 1,
            }
        }
    }

    /// The same effects, as the core reports them.
    #[derive(Default, Debug, PartialEq)]
    struct Seen {
        late: u64,
        late_bytes: u64,
        early: u64,
        wildcard_sigs: u64,
    }

    fn drive(p: &mut Protocol, model: &mut Model, seen: &mut Seen, arrivals: &[ArrivalCase]) {
        for &(delta, logging, wildcard, tag, len) in arrivals {
            let recv_epoch = p.epoch();
            if delta < 0 && recv_epoch == 0 {
                continue; // no epoch -1 sender exists
            }
            let sender_epoch = (recv_epoch as i64 + delta as i64) as u64;
            // NonDetLog is the only mode that piggybacks logging=true; any
            // mode works for the wire bit, so pick by the flag.
            let pig_mode = if logging { Mode::NonDetLog } else { Mode::Run };
            let byte = piggyback::encode(PigData::of(sender_epoch, pig_mode));
            let class = match delta {
                -1 => MsgClass::Late,
                0 => MsgClass::IntraEpoch,
                _ => MsgClass::Early,
            };
            let sig =
                StreamSig { src: 1, dst: 0, comm: 0, kind: StreamKind::P2p { tag: tag as i32 } };
            let data = vec![0xabu8; len as usize];
            let (arrival, next) = p.arrive(sig, byte, wildcard, &data);
            // Rank 1 never answers the CI, so the round never commits.
            assert_eq!(next, Next::Continue);
            match arrival {
                Arrival::Late => {
                    seen.late += 1;
                    seen.late_bytes += len as u64;
                }
                Arrival::Early => seen.early += 1,
                Arrival::WildcardLogged => seen.wildcard_sigs += 1,
                Arrival::Intra => {}
            }
            let want_class = match arrival {
                Arrival::Late => MsgClass::Late,
                Arrival::Early => MsgClass::Early,
                Arrival::Intra | Arrival::WildcardLogged => MsgClass::IntraEpoch,
            };
            assert_eq!(want_class, class, "classified delta {delta} as {arrival:?}");
            model.apply(class, logging, wildcard, len as u64);

            let want = Seen {
                late: model.late,
                late_bytes: model.late_bytes,
                early: model.early,
                wildcard_sigs: model.wildcard_sigs,
            };
            assert_eq!(*seen, want, "logged effects diverged");
            let mode = match p.mode() {
                Mode::Run => 0,
                Mode::NonDetLog => 1,
                Mode::RecvOnlyLog => 2,
                Mode::Restore => 3,
            };
            assert_eq!(mode, model.mode, "mode machine diverged");
        }
    }

    proptest! {
        #[test]
        fn classify_and_apply_arrival_match_the_reference_model(
            run_phase in proptest::collection::vec(
                (0i8..=1, any::<bool>(), any::<bool>(), 0u8..8, 0u8..32), 0..12),
            log_phase in proptest::collection::vec(
                (-1i8..=1, any::<bool>(), any::<bool>(), 0u8..8, 0u8..32), 0..40),
        ) {
            // Rank 0 of two; rank 1 exists only so epoch-0/±1 senders are
            // addressable and the checkpoint round stays open (it never
            // answers the CI, so rank 0 is held in NonDetLog for the whole
            // second phase).
            let mut p = Protocol::new(0, 2);
            let (mut model, mut seen) = (Model::default(), Seen::default());
            // Phase 1: epoch 0, Run mode — only intra and early arrive.
            drive(&mut p, &mut model, &mut seen, &run_phase);
            // Start a checkpoint: epoch 1, NonDet-Log.
            let policy = CkptPolicy::AtPragmas(vec![1]);
            prop_assert!(p.pragma(Some(&policy), 0).is_some(), "rank 0 initiates at pragma 1");
            prop_assert_eq!(p.line_written(0), Next::Continue);
            model.mode = 1;
            prop_assert_eq!(p.epoch(), 1);
            // Phase 2: all three classes, logging rules active.
            drive(&mut p, &mut model, &mut seen, &log_phase);
        }
    }
}

/// Randomized end-to-end determinism: a ring application with a random
/// iteration count, checkpoint pragma, and failure point always recovers to
/// the failure-free result. Runs fewer cases than the pure-data properties
/// because each case launches real thread jobs.
mod random_recovery {
    use super::*;
    use c3::{C3Config, C3Ctx, C3Error, FailAt, FailurePlan};
    use mpisim::{JobSpec, NetModel};

    fn ring(ctx: &mut C3Ctx<'_>, iters: u64) -> Result<u64, C3Error> {
        let mut st = match ctx.take_restored_state() {
            Some(b) => {
                let mut d = Decoder::new(&b);
                (d.u64()?, d.u64()?)
            }
            None => (0, 0),
        };
        let me = ctx.rank();
        let n = ctx.nranks();
        while st.0 < iters {
            ctx.pragma(|e| {
                e.u64(st.0);
                e.u64(st.1);
            })?;
            ctx.send((me + 1) % n, 5, &[st.0 * 31 + me as u64])?;
            let (v, _) = ctx.recv::<u64>(((me + n - 1) % n) as i32, 5)?;
            st.1 = st.1.wrapping_mul(0x100000001b3).wrapping_add(v[0]);
            st.0 += 1;
        }
        Ok(st.1)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]
        #[test]
        fn random_failure_point_recovers(
            nranks in 2usize..5,
            iters in 6u64..14,
            ckpt in 2u64..5,
            fail_after in 0u64..6,
            seed in any::<u64>(),
        ) {
            let fail_pragma = ckpt + 1 + fail_after;
            let spec = JobSpec::new(nranks).net(NetModel::reliable().seed(seed));
            let baseline =
                mpisim::launch(&spec, move |ctx| {
                    // The raw baseline runs the same logic without C³.
                    let me = ctx.rank();
                    let n = ctx.nranks();
                    let mut iter = 0u64;
                    let mut sum = 0u64;
                    while iter < iters {
                        ctx.send_bytes((me + 1) % n, 5, mpisim::COMM_WORLD, 0,
                            mpisim::bytes_of(&[iter * 31 + me as u64]))?;
                        let (b, _) = ctx.recv_bytes(((me + n - 1) % n) as i32, 5, mpisim::COMM_WORLD)?;
                        let v: Vec<u64> = mpisim::vec_from_bytes(&b);
                        sum = sum.wrapping_mul(0x100000001b3).wrapping_add(v[0]);
                        iter += 1;
                    }
                    Ok(sum)
                })
                .unwrap();

            let store = crate::util::TempStore::new("prop-recovery");
            let cfg = C3Config::at_pragmas(store.path(), vec![ckpt]);
            let plan = FailurePlan {
                rank: (seed as usize) % nranks,
                when: FailAt::AfterCommits { commits: 1, pragma: fail_pragma },
            };
            let rec = c3::Job::from_spec(&spec, cfg).failure(plan).run(move |ctx| ring(ctx, iters));
            let rec = rec.unwrap();
            prop_assert_eq!(rec.handle.results, baseline.results);
        }
    }
}
