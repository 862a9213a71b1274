//! CG on the raw substrate, pinned bit for bit.
//!
//! `cg::tests::parallel_matches_serial` compares rank counts within a
//! tolerance; this suite pins the exact `f64` bits of the solution norm and
//! the number of messages the job injected, at several rank counts and
//! sizes, including one the row split does not divide evenly. A rewrite of
//! the mat-vec or the dot products must reproduce every bit. The long runs
//! converge early and then iterate on residuals whose products are
//! subnormal, so they pin that regime too.

use npb::cg::{self, CgConfig};

const RANKS: [usize; 6] = [1, 2, 3, 4, 7, 8];

/// Run on `p` raw-substrate ranks; returns rank 0's result bits and the
/// number of messages the job injected.
fn run(cfg: CgConfig, p: usize) -> (u64, u64) {
    let out = mpisim::launch(&mpisim::JobSpec::new(p), |ctx| cg::run(ctx, &cfg))
        .unwrap_or_else(|e| panic!("{cfg:?} on {p} ranks: {e}"));
    assert!(out.results.iter().all(|r| r.to_bits() == out.results[0].to_bits()));
    (out.results[0].to_bits(), out.msgs_sent)
}

/// Messages injected by a 12- and a 300-iteration job at p = 1, 2, 3, 4, 7, 8:
/// a two-row halo each way between neighbouring ranks plus the all-reduces.
const MSGS_12: [u64; 6] = [0, 76, 152, 228, 456, 532];
const MSGS_300: [u64; 6] = [0, 1804, 3608, 5412, 10824, 12628];

/// `(config, bits at p = 1, 2, 3, 4, 7, 8, msgs_sent)`, recorded from the
/// mat-vec that recomputed every matrix entry per call and the one-pass
/// dot products.
fn pinned() -> Vec<(CgConfig, [u64; 6], [u64; 6])> {
    vec![
        (
            CgConfig { n: 64, iters: 12 },
            [
                0x3fe7a5c8fe444c56,
                0x3fe7a5c8fe444c57,
                0x3fe7a5c8fe444c57,
                0x3fe7a5c8fe444c57,
                0x3fe7a5c8fe444c57,
                0x3fe7a5c8fe444c57,
            ],
            MSGS_12,
        ),
        (
            CgConfig { n: 37, iters: 12 },
            [
                0x3fe2123f1078fe27,
                0x3fe2123f1078fe27,
                0x3fe2123f1078fe27,
                0x3fe2123f1078fe26,
                0x3fe2123f1078fe27,
                0x3fe2123f1078fe27,
            ],
            MSGS_12,
        ),
        (
            CgConfig { n: 4096, iters: 12 },
            [
                0x40171ee9b5d45f8f,
                0x40171ee9b5d45f8f,
                0x40171ee9b5d45f8e,
                0x40171ee9b5d45f92,
                0x40171ee9b5d45f90,
                0x40171ee9b5d45f8f,
            ],
            MSGS_12,
        ),
        (
            CgConfig { n: 4096, iters: 300 },
            [
                0x40171ee9b5d45f98,
                0x40171ee9b5d45f93,
                0x40171ee9b5d45f94,
                0x40171ee9b5d45f91,
                0x40171ee9b5d45f90,
                0x40171ee9b5d45f90,
            ],
            MSGS_300,
        ),
    ]
}

#[test]
fn results_are_pinned_bit_for_bit() {
    let mut bad = Vec::new();
    let mut table = String::new();
    for (cfg, bits, msgs) in pinned() {
        let got: Vec<(u64, u64)> = RANKS.iter().map(|&p| run(cfg, p)).collect();
        table.push_str(&format!("{cfg:?} => {got:#x?}\n"));
        for (((&p, g), b), m) in RANKS.iter().zip(&got).zip(bits).zip(msgs) {
            let w = (b, m);
            if *g != w {
                bad.push(format!("{cfg:?} p={p}: {g:#x?} != pinned {w:#x?}"));
            }
        }
    }
    assert!(bad.is_empty(), "{}\nall results:\n{table}", bad.join("\n"));
}

/// The benchmark's `faultnet8` problem: 8 ranks, n 8192, 400 iterations,
/// most of them past convergence.
#[test]
fn faultnet8_problem_is_pinned() {
    let got = run(CgConfig { n: 8192, iters: 400 }, 8);
    assert_eq!(got, (0x40205787141ce512, 16828), "{got:#x?}");
}
