//! The wavefront kernels LU, SP and BT on the raw substrate.
//!
//! Their sweeps hand data from rank to rank in a pipeline, so a change to
//! how the pipeline is cut (how many messages per sweep, in what order the
//! columns are visited) must not change a single bit of the result. The
//! `parallel_matches_serial` unit tests compare within a tolerance; this
//! suite pins the exact `f64` bits of every kernel at several rank counts
//! and grid sizes, including sizes that the rank and column splits do not
//! divide evenly.

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
    /// number of messages the job injected.
    fn run(self, p: usize) -> (u64, u64) {
        let out = mpisim::launch(&mpisim::JobSpec::new(p), |ctx| match self {
            Wave::Lu(c) => lu::run(ctx, &c),
            Wave::Sp(c) => sp::run(ctx, &c),
            Wave::Bt(c) => bt::run(ctx, &c),
        })
        .unwrap_or_else(|e| panic!("{self:?} on {p} ranks: {e}"));
        assert!(out.results.iter().all(|r| r.to_bits() == out.results[0].to_bits()));
        (out.results[0].to_bits(), out.msgs_sent)
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

/// `(kernel, bits at p = 1, 2, 3, 4, 7)`, recorded from sweeps that move
/// each rank's whole boundary row in one message. Any other cut of the
/// pipeline must reproduce them.
fn pinned() -> Vec<(Wave, [u64; 5])> {
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
        ),
    ]
}

#[test]
fn results_are_pinned_bit_for_bit() {
    let mut bad = Vec::new();
    let mut table = String::new();
    for (wave, want) in pinned() {
        let got: Vec<u64> = RANKS.iter().map(|&p| wave.run(p).0).collect();
        table.push_str(&format!("{wave:?} => {got:#x?}\n"));
        for ((&p, g), w) in RANKS.iter().zip(&got).zip(want) {
            if *g != w {
                bad.push(format!("{wave:?} p={p}: {g:#x} != pinned {w:#x}"));
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
            let (_, before) = kernel(n, 2).run(p);
            let (_, after) = kernel(n, 3).run(p);
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
        let (want, _) = wave.run(4);
        for p in [6, 9] {
            assert_eq!(wave.run(p).0, want, "{wave:?} on {p} ranks");
        }
    }
}
