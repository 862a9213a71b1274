//! The wavefront kernels LU, SP and BT on the raw substrate.
//!
//! Their sweeps hand data from rank to rank in a pipeline, so a change to
//! how the pipeline is cut (how many messages per sweep, in what order the
//! columns are visited) must not change a single bit of the result. The
//! `parallel_matches_serial` unit tests compare within a tolerance; this
//! suite pins the exact `f64` bits of every kernel at several rank counts
//! and grid sizes, including sizes that the rank and column splits do not
//! divide evenly, and the messages and bytes each job sends, so a change to
//! the arithmetic around the pipeline cannot quietly change its traffic.

use npb::{bt, lu, sp};

const RANKS: [usize; 5] = [1, 2, 3, 4, 7];

#[derive(Clone, Copy, Debug)]
enum Wave {
    Lu(lu::LuConfig),
    Sp(sp::SpConfig),
    Bt(bt::BtConfig),
}

impl Wave {
    /// Run on `p` raw-substrate ranks; returns rank 0's result bits and the
    /// messages and payload bytes the job injected.
    fn run(self, p: usize) -> (u64, u64, u64) {
        let out = mpisim::launch(&mpisim::JobSpec::new(p), |ctx| match self {
            Wave::Lu(c) => lu::run(ctx, &c),
            Wave::Sp(c) => sp::run(ctx, &c),
            Wave::Bt(c) => bt::run(ctx, &c),
        })
        .unwrap_or_else(|e| panic!("{self:?} on {p} ranks: {e}"));
        assert!(out.results.iter().all(|r| r.to_bits() == out.results[0].to_bits()));
        (out.results[0].to_bits(), out.msgs_sent, out.bytes_sent)
    }
}

fn lu(n: usize, isteps: u64) -> Wave {
    Wave::Lu(lu::LuConfig { n, isteps, omega: 1.2 })
}

fn sp(n: usize, steps: u64) -> Wave {
    Wave::Sp(sp::SpConfig { n, steps, lambda: 0.4 })
}

fn bt(n: usize, steps: u64) -> Wave {
    Wave::Bt(bt::BtConfig { n, steps, lambda: 0.35, kappa: 0.1 })
}

/// `(kernel, bits at p = 1, 2, 3, 4, 7, (messages, bytes) at the same p)`.
type Pin = (Wave, [u64; 5], [(u64, u64); 5]);

/// The pinned cases. Any cut of the pipeline must reproduce the bits (all
/// but the last case were recorded from sweeps that move each rank's whole
/// boundary row in one message). The traffic is pinned too, so how a sweep
/// computes its line factors cannot change what it sends.
fn pinned() -> Vec<Pin> {
    vec![
        (
            lu(48, 3),
            [
                0x3fece3022ba38622,
                0x3fece3022ba38622,
                0x3fece3022ba38626,
                0x3fece3022ba38623,
                0x3fece3022ba38622,
            ],
            [(0, 0), (50, 2320), (100, 4640), (150, 6960), (300, 13920)],
        ),
        (
            lu(37, 3),
            [
                0x3febe5ac78e68bc7,
                0x3febe5ac78e68bc4,
                0x3febe5ac78e68bc2,
                0x3febe5ac78e68bc7,
                0x3febe5ac78e68bc4,
            ],
            [(0, 0), (50, 1792), (100, 3584), (150, 5376), (300, 10752)],
        ),
        (
            lu(64, 6),
            [
                0x3fec5170fc27ff93,
                0x3fec5170fc27ff8b,
                0x3fec5170fc27ff8d,
                0x3fec5170fc27ff8d,
                0x3fec5170fc27ff8a,
            ],
            [(0, 0), (98, 6160), (196, 12320), (294, 18480), (588, 36960)],
        ),
        (
            sp(48, 3),
            [
                0x3fde5ef5e4058e86,
                0x3fde5ef5e4058e89,
                0x3fde5ef5e4058e85,
                0x3fde5ef5e4058e84,
                0x3fde5ef5e4058e84,
            ],
            [(0, 0), (50, 3472), (100, 6944), (150, 10416), (300, 20832)],
        ),
        (
            sp(37, 3),
            [
                0x3fddb1654bf24ced,
                0x3fddb1654bf24ced,
                0x3fddb1654bf24cf1,
                0x3fddb1654bf24cef,
                0x3fddb1654bf24cf1,
            ],
            [(0, 0), (50, 2680), (100, 5360), (150, 8040), (300, 16080)],
        ),
        (
            sp(64, 5),
            [
                0x3fde6bf42fe06bdb,
                0x3fde6bf42fe06be0,
                0x3fde6bf42fe06bdf,
                0x3fde6bf42fe06be0,
                0x3fde6bf42fe06be0,
            ],
            [(0, 0), (82, 7696), (164, 15392), (246, 23088), (492, 46176)],
        ),
        (
            bt(24, 3),
            [
                0x3fc3d79d60f61a8e,
                0x3fc3d79d60f61a8a,
                0x3fc3d79d60f61a8d,
                0x3fc3d79d60f61a8d,
                0x3fc3d79d60f61a8d,
            ],
            [(0, 0), (50, 8656), (100, 17312), (150, 25968), (300, 51936)],
        ),
        (
            bt(37, 2),
            [
                0x3fce0e5be8149c06,
                0x3fce0e5be8149c06,
                0x3fce0e5be8149c02,
                0x3fce0e5be8149c02,
                0x3fce0e5be8149c01,
            ],
            [(0, 0), (34, 8896), (68, 17792), (102, 26688), (204, 53376)],
        ),
        (
            bt(40, 4),
            [
                0x3fbc380d266fa57f,
                0x3fbc380d266fa576,
                0x3fbc380d266fa576,
                0x3fbc380d266fa579,
                0x3fbc380d266fa577,
            ],
            [(0, 0), (66, 19216), (132, 38432), (198, 57648), (396, 115296)],
        ),
        // The benchmark's BT grid (`recover_incr4` runs it on 4 ranks): the
        // harness compares C³ with raw runs of the same build, so only this
        // pin catches a change to the kernel's bits at that shape.
        (
            bt(200, 6),
            [
                0x3facf34e60a067d6,
                0x3facf34e60a067d8,
                0x3facf34e60a06800,
                0x3facf34e60a067e0,
                0x3facf34e60a067f3,
            ],
            [(0, 0), (98, 144016), (196, 288032), (294, 432048), (588, 864096)],
        ),
    ]
}

#[test]
fn results_are_pinned_bit_for_bit() {
    let mut bad = Vec::new();
    let mut table = String::new();
    for (wave, want, want_traffic) in pinned() {
        let got: Vec<(u64, u64, u64)> = RANKS.iter().map(|&p| wave.run(p)).collect();
        table.push_str(&format!("{wave:?} => {got:#x?}\n"));
        for ((&p, &(g, msgs, bytes)), (w, wt)) in
            RANKS.iter().zip(&got).zip(want.into_iter().zip(want_traffic))
        {
            if g != w {
                bad.push(format!("{wave:?} p={p}: {g:#x} != pinned {w:#x}"));
            }
            if (msgs, bytes) != wt {
                bad.push(format!("{wave:?} p={p}: traffic {:?} != pinned {wt:?}", (msgs, bytes)));
            }
        }
    }
    assert!(bad.is_empty(), "{}\nall results:\n{table}", bad.join("\n"));
}

/// The sweeps are pipelined in column tiles: one outer iteration sends one
/// message per tile per sweep direction between each pair of neighbouring
/// active ranks. A regression to one boundary message per sweep (`2·(p−1)`
/// per iteration) fails this.
#[test]
fn each_iteration_sends_one_message_per_tile_and_direction() {
    let p = 4;
    let kernels: [fn(usize, u64) -> Wave; 3] = [lu, sp, bt];
    for kernel in kernels {
        for n in [37, 6, 3] {
            let (_, before, _) = kernel(n, 2).run(p);
            let (_, after, _) = kernel(n, 3).run(p);
            let want = 2 * (p.min(n) as u64 - 1) * n.min(8) as u64;
            assert_eq!(after - before, want, "{:?}: messages per iteration", kernel(n, 3));
        }
    }
}

/// A rank past the last grid row owns no rows: it skips the sweeps but
/// still joins every pragma and the final all-reduce, and the active
/// ranks' pipeline does not wait for it. Adding such ranks does not change
/// a bit of the result.
#[test]
fn ranks_without_rows_leave_the_result_unchanged() {
    for wave in [lu(4, 3), sp(4, 3), bt(4, 3)] {
        let (want, ..) = wave.run(4);
        for p in [6, 9] {
            assert_eq!(wave.run(p).0, want, "{wave:?} on {p} ranks");
        }
    }
}
