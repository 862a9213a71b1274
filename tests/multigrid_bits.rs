//! The multigrid kernels MG and SMG on the raw substrate.
//!
//! Both run V-cycles over a level hierarchy with a halo exchange at every
//! smoothing, restriction and prolongation step. How the cycle stores its
//! intermediate arrays (fresh vectors or buffers reused across cycles) must
//! not change a single bit of the result, nor a single message. The
//! `parallel_matches_serial` unit tests compare within a tolerance; this
//! suite pins the exact `f64` bits of each kernel at several rank counts and
//! grid sizes, and the messages and bytes each job sends.

use npb::{mg, smg};

const RANKS: [usize; 3] = [1, 2, 4];

#[derive(Clone, Copy, Debug)]
enum Multigrid {
    Mg(mg::MgConfig),
    Smg(smg::SmgConfig),
}

impl Multigrid {
    /// Run on `p` raw-substrate ranks; returns rank 0's result bits and the
    /// messages and payload bytes the job injected.
    fn run(self, p: usize) -> (u64, u64, u64) {
        let out = mpisim::launch(&mpisim::JobSpec::new(p), |ctx| match self {
            Multigrid::Mg(c) => mg::run(ctx, &c),
            Multigrid::Smg(c) => smg::run(ctx, &c),
        })
        .unwrap_or_else(|e| panic!("{self:?} on {p} ranks: {e}"));
        assert!(out.results.iter().all(|r| r.to_bits() == out.results[0].to_bits()));
        (out.results[0].to_bits(), out.msgs_sent, out.bytes_sent)
    }
}

fn mg(log2_n: u32, cycles: u64, smooth: usize) -> Multigrid {
    Multigrid::Mg(mg::MgConfig { log2_n, cycles, smooth })
}

fn smg(log2_n: u32, iters: u64, smooth: usize) -> Multigrid {
    Multigrid::Smg(smg::SmgConfig { log2_n, iters, smooth })
}

/// `(kernel, bits at p = 1, 2, 4, (messages, bytes) at the same p)`.
type Pin = (Multigrid, [u64; 3], [(u64, u64); 3]);

/// The pinned cases: a grid at MG's coarse floor (no descent at all), small
/// ladders, and a 2^16-point SMG whose level-0 share is a large heap block.
fn pinned() -> Vec<Pin> {
    vec![
        (
            mg(5, 1, 2),
            [0x3cecdb8f5be9ab77, 0x3cecdb8f5be9ab77, 0x3cecdb8f5be9ab77],
            [(0, 0), (14, 464), (34, 1136)],
        ),
        (
            mg(8, 3, 2),
            [0x3f1014fff784b2f4, 0x3f1014fff784b2f5, 0x3f1014fff784b2f5],
            [(0, 0), (282, 3312), (578, 7216)],
        ),
        (
            mg(10, 4, 3),
            [0x3e972c6c61480993, 0x3e972c6c61480990, 0x3e972c6c61480990],
            [(0, 0), (758, 7472), (1534, 15728)],
        ),
        (
            smg(8, 5, 2),
            [0x3f91e635a5dc2374, 0x3f91e635a5dc2376, 0x3f91e635a5dc2376],
            [(0, 0), (560, 6688), (1156, 14720)],
        ),
        (
            smg(10, 6, 3),
            [0x3f91e5ff4b57c75d, 0x3f91e5ff4b57c75e, 0x3f91e5ff4b57c75c],
            [(0, 0), (1326, 13184), (2694, 27936)],
        ),
        (
            smg(16, 3, 2),
            [0x3f91e5fbabf89453, 0x3f91e5fbabf89469, 0x3f91e5fbabf8946d],
            [(0, 0), (1268, 11616), (2560, 24128)],
        ),
    ]
}

#[test]
fn results_are_pinned_bit_for_bit() {
    let mut bad = Vec::new();
    let mut table = String::new();
    for (kernel, want, want_traffic) in pinned() {
        let got: Vec<(u64, u64, u64)> = RANKS.iter().map(|&p| kernel.run(p)).collect();
        table.push_str(&format!("{kernel:?} => {got:#x?}\n"));
        for ((&p, &(g, msgs, bytes)), (w, wt)) in
            RANKS.iter().zip(&got).zip(want.into_iter().zip(want_traffic))
        {
            if g != w {
                bad.push(format!("{kernel:?} p={p}: {g:#x} != pinned {w:#x}"));
            }
            if (msgs, bytes) != wt {
                bad.push(format!("{kernel:?} p={p}: traffic {:?} != pinned {wt:?}", (msgs, bytes)));
            }
        }
    }
    assert!(bad.is_empty(), "{}\nall results:\n{table}", bad.join("\n"));
}
