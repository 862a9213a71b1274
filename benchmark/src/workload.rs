//! The five workloads: which kernel, how many ranks, which network, which
//! checkpoint policy, which faults — and what `--seed` changes.
//!
//! Sizes are set so one C³ job takes 0.2–0.5 s on a 2-core host and a
//! 20-second run collects at least 25 jobs per side.

use c3::{C3Config, ChaosPlan, CkptMode, CkptPolicy, FailAt, FailurePlan};
use mpisim::{ClusterModel, JobSpec, MpiError, NetModel};
use npb::backend::Comm;
use npb::{bt, cg, lu, smg};
use std::path::Path;

/// Name and reason of each workload, in the order they run. `ckpt_full4`
/// writes and deletes a gigabyte per run, and on a disk mounted with
/// `discard` the kernel is still busy with that for a minute afterwards:
/// the workload after it is the one that cannot notice.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "msg64",
        "CG on 64 ranks, almost no arithmetic: scheduler park/wake, mailbox and the protocol's \
         piggyback and all-to-all collective streams set the time",
    ),
    (
        "faultnet8",
        "CG on 8 ranks over a reordering, dropping, duplicating network: the fault stages the \
         reliable workloads bypass",
    ),
    (
        "recover_incr4",
        "BT on 4 ranks, incremental checkpoints and four injected deaths: delta write, chain \
         read and apply, recomputation and a relaunch per restart",
    ),
    (
        "ckpt_full4",
        "SMG on 4 ranks with a full checkpoint every 64th pragma: application encode, line \
         sections, commit and store writes",
    ),
    (
        "compute2",
        "LU on 2 ranks, compute-bound control: protocol, substrate and statesave changes predict \
         no change here",
    ),
];

#[derive(Clone, Copy, Debug)]
pub enum Kernel {
    Cg(cg::CgConfig),
    Lu(lu::LuConfig),
    Smg(smg::SmgConfig),
    Bt(bt::BtConfig),
}

impl Kernel {
    pub fn run<C: Comm>(&self, c: &mut C) -> Result<f64, MpiError> {
        match self {
            Kernel::Cg(cfg) => cg::run(c, cfg),
            Kernel::Lu(cfg) => lu::run(c, cfg),
            Kernel::Smg(cfg) => smg::run(c, cfg),
            Kernel::Bt(cfg) => bt::run(c, cfg),
        }
    }
}

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kernel: Kernel,
    pub nranks: usize,
    pub net: NetModel,
    pub policy: CkptPolicy,
    pub mode: CkptMode,
    /// Fail-stop faults of the C³ job; every one of them must fire.
    pub faults: Vec<FailurePlan>,
    /// Raw jobs per slot (a slot has one C³ job): where the raw job is
    /// short it runs several times, so both sides collect samples at a
    /// similar rate.
    pub raw_per_slot: usize,
}

/// SplitMix64: the seed-derived choices below must not depend on a crate
/// whose generator could change.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Workload {
    /// The workload `name` with the inputs `seed` selects. `quick` shrinks
    /// every size to a smoke test. `None` for an unknown name.
    ///
    /// The seed is the network's fault seed on every workload (inert on a
    /// reliable network), LU's relaxation factor on `compute2`, and on
    /// `recover_incr4` which rank each of the four faults kills.
    pub fn build(name: &str, seed: u64, quick: bool) -> Option<Workload> {
        let reliable = NetModel::reliable().seed(seed);
        let passive = |name, kernel, nranks, net| Workload {
            name,
            kernel,
            nranks,
            net,
            policy: CkptPolicy::Never,
            mode: CkptMode::Full,
            faults: Vec::new(),
            raw_per_slot: 1,
        };
        Some(match name {
            "msg64" => {
                let cfg = if quick {
                    cg::CgConfig { n: 512, iters: 2 }
                } else {
                    cg::CgConfig { n: 4096, iters: 16 }
                };
                Workload { raw_per_slot: 3, ..passive("msg64", Kernel::Cg(cfg), 64, reliable) }
            }
            "compute2" => {
                let omega = 1.2 + (mix(seed, 1) % 11) as f64 * 0.005;
                let cfg = if quick {
                    lu::LuConfig { n: 48, isteps: 4, omega }
                } else {
                    lu::LuConfig { n: 480, isteps: 90, omega }
                };
                passive("compute2", Kernel::Lu(cfg), 2, reliable)
            }
            "ckpt_full4" => {
                let cfg = if quick {
                    smg::SmgConfig { log2_n: 8, iters: 4, smooth: 2 }
                } else {
                    smg::SmgConfig { log2_n: 18, iters: 12, smooth: 2 }
                };
                Workload {
                    policy: CkptPolicy::EveryNth(if quick { 4 } else { 64 }),
                    raw_per_slot: 2,
                    ..passive("ckpt_full4", Kernel::Smg(cfg), 4, reliable)
                }
            }
            "recover_incr4" => {
                let cfg = if quick {
                    bt::BtConfig { n: 24, steps: 42, lambda: 0.35, kappa: 0.1 }
                } else {
                    bt::BtConfig { n: 200, steps: 42, lambda: 0.35, kappa: 0.1 }
                };
                // A seed-chosen permutation of the four ranks: fault i kills
                // `victims[i]`.
                let mut victims = [0, 1, 2, 3];
                for i in (1..4).rev() {
                    victims.swap(i, (mix(seed, 10 + i as u64) % (i as u64 + 1)) as usize);
                }
                // Counts are per incarnation, and a checkpoint is taken every
                // 8th pragma. The fire points are the same for every seed, so
                // every seed recomputes the same 13 steps, commits the same
                // checkpoints and restores the same chains: a death one pragma
                // after the first commit, a torn second commit, a death one
                // pragma after two more commits, a death before any commit.
                let after = |commits| FailAt::AfterCommits { commits, pragma: 0 };
                let faults = vec![
                    FailurePlan { rank: victims[0], when: after(1) },
                    FailurePlan { rank: victims[1], when: FailAt::DuringCommit },
                    FailurePlan { rank: victims[2], when: after(2) },
                    FailurePlan { rank: victims[3], when: FailAt::Pragma(3) },
                ];
                Workload {
                    policy: CkptPolicy::EveryNth(8),
                    mode: CkptMode::Incremental { every_n: 4 },
                    faults,
                    ..passive("recover_incr4", Kernel::Bt(cfg), 4, reliable)
                }
            }
            "faultnet8" => {
                let cfg = if quick {
                    cg::CgConfig { n: 512, iters: 8 }
                } else {
                    cg::CgConfig { n: 8192, iters: 400 }
                };
                let net = NetModel::reorder(seed).drop_rate(20).duplicate_rate(10);
                passive("faultnet8", Kernel::Cg(cfg), 8, net)
            }
            _ => return None,
        })
    }

    /// The substrate spec both sides launch with: default scheduler
    /// (event-driven, one worker per CPU). The cluster model only feeds the
    /// virtual clock; the paper's machine makes `mpisim.makespan_ms` a
    /// number instead of the ideal model's zero.
    pub fn spec(&self) -> JobSpec {
        JobSpec::new(self.nranks).net(self.net).cluster(ClusterModel::lemieux())
    }

    /// The protocol configuration, checkpointing to `store_root`.
    pub fn config(&self, store_root: &Path) -> C3Config {
        let mut cfg = C3Config::passive(store_root).ckpt_mode(self.mode);
        cfg.policy = self.policy.clone();
        cfg
    }

    pub fn chaos(&self) -> ChaosPlan {
        ChaosPlan::new(self.faults.clone())
    }

    pub fn checkpoints(&self) -> bool {
        !matches!(self.policy, CkptPolicy::Never)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_every_name_builds() {
        for (name, _) in WORKLOADS {
            let a = Workload::build(name, 7, false).expect(name);
            let b = Workload::build(name, 7, false).expect(name);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            assert_eq!(a.name, name);
        }
        assert!(Workload::build("nope", 1, false).is_none());
    }

    #[test]
    fn recovery_faults_hit_four_different_ranks_for_every_seed() {
        for seed in 0..64 {
            let w = Workload::build("recover_incr4", seed, false).unwrap();
            let mut ranks: Vec<usize> = w.faults.iter().map(|f| f.rank).collect();
            ranks.sort_unstable();
            assert_eq!(ranks, [0, 1, 2, 3], "seed {seed}");
        }
    }
}
