//! Ablation (paper §4.5): the new protocol separates
//! non-deterministic-event logging (NonDet-Log) from late-message recording
//! (RecvOnly-Log); the old protocol of [5, 6] kept one combined phase in
//! which *both* kinds of logging ran for the whole checkpoint interval.
//! This bench processes the same synthetic message stream under both
//! policies and reports the processing time; the log *volume* ratio is
//! printed once at startup.

use c3::registries::{ReplayLog, StreamKind, StreamSig};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

const MSGS: usize = 4096;
const PAYLOAD: usize = 512;
/// Fraction of the interval during which the new protocol still logs
/// non-deterministic events (until all CIs arrive) — typically short.
const NONDET_FRACTION: f64 = 0.25;
/// Fraction of messages that are late (must be logged by data either way).
const LATE_FRACTION: f64 = 0.1;
/// Fraction of intra-epoch receives that used a wildcard.
const WILD_FRACTION: f64 = 0.3;

fn sig(i: usize) -> StreamSig {
    StreamSig { src: i % 8, dst: 0, comm: 0, kind: StreamKind::P2p { tag: (i % 4) as i32 } }
}

fn is_late(i: usize) -> bool {
    (i as f64 / MSGS as f64) < LATE_FRACTION
}

fn is_wild(i: usize) -> bool {
    i % 10 < (WILD_FRACTION * 10.0) as usize
}

/// New protocol: late data always; wildcard signatures only while in
/// NonDet-Log (the first NONDET_FRACTION of the stream).
fn new_protocol(payload: &[u8]) -> (usize, u64) {
    let mut log = ReplayLog::new();
    let cutoff = (MSGS as f64 * NONDET_FRACTION) as usize;
    for i in 0..MSGS {
        if is_late(i) {
            log.push_late(sig(i), payload.to_vec());
        } else if i < cutoff && is_wild(i) {
            log.push_wildcard_sig(sig(i));
        }
    }
    (log.len(), log.data_bytes() as u64)
}

/// Old protocol: one combined phase — every message's *data* is logged for
/// the whole interval (the [5,6] design logged message data plus events
/// together until the global decision to stop).
fn old_protocol(payload: &[u8]) -> (usize, u64) {
    let mut log = ReplayLog::new();
    for i in 0..MSGS {
        log.push_late(sig(i), payload.to_vec());
    }
    (log.len(), log.data_bytes() as u64)
}

fn bench(c: &mut Criterion) {
    let payload = vec![7u8; PAYLOAD];
    let (n_new, bytes_new) = new_protocol(&payload);
    let (n_old, bytes_old) = old_protocol(&payload);
    eprintln!(
        "logging volume: new protocol {n_new} entries / {bytes_new} B, \
         old combined phase {n_old} entries / {bytes_old} B ({}x reduction)",
        bytes_old as f64 / bytes_new as f64
    );

    let mut g = c.benchmark_group("logging_phases");
    g.bench_function("new_separated_phases", |b| b.iter(|| black_box(new_protocol(&payload))));
    g.bench_function("old_combined_phase", |b| b.iter(|| black_box(old_protocol(&payload))));
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
