//! Ablation: the paper's 3-bit piggyback (§3.2) vs
//! piggybacking the full epoch integer + mode. The economical encoding is
//! both smaller on the wire (3 bits vs 9 bytes) and cheaper to process.

use c3::piggyback::{self, PigData};
use c3::Mode;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let pigs: Vec<PigData> = (0..1024u64)
        .map(|e| {
            PigData::of(
                e,
                match e % 4 {
                    0 => Mode::Run,
                    1 => Mode::NonDetLog,
                    2 => Mode::RecvOnlyLog,
                    _ => Mode::Restore,
                },
            )
        })
        .collect();

    let mut g = c.benchmark_group("piggyback");
    g.bench_function("encode_decode_3bit", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for p in &pigs {
                let byte = piggyback::encode(black_box(*p));
                let (color, logging) = piggyback::decode(byte);
                acc += color as u32 + logging as u32;
            }
            acc
        })
    });
    g.bench_function("encode_decode_full_epoch", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for p in &pigs {
                let bytes = piggyback::encode_full(black_box(*p));
                let back = piggyback::decode_full(&bytes);
                acc += back.epoch & 1;
            }
            acc
        })
    });
    g.bench_function("classify", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for p in &pigs {
                let byte = piggyback::encode(*p);
                let (color, _) = piggyback::decode(byte);
                acc += piggyback::classify(black_box(500), color) as usize;
            }
            acc
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
