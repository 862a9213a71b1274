//! Fail-stop fault injection, chaos plans, and the whole-job recovery driver.
//!
//! The paper's fault model is fail-stop (§1, footnote 1): a failing node
//! simply stops — *at any instant*, mid-epoch, inside a collective, during
//! checkpoint commit, or while replaying a previous recovery. Recovery
//! restarts the job from the last recovery line committed on all nodes.
//! This module provides:
//!
//! * [`FailAt`] / [`FailurePlan`] — one deterministic fault: kill rank `r`
//!   at a pragma, after commits, at its `n`-th substrate MPI operation,
//!   mid-commit, or at its `n`-th replayed receive during recovery;
//! * [`ChaosPlan`] — an *ordered sequence* of faults, possibly hitting
//!   different ranks (or the same rank again) across successive restarts;
//!   [`ChaosPlan::from_seed`] derives a plan from a deterministic RNG and
//!   [`shrink_plan`] greedily reduces a failing plan to a minimal
//!   reproduction;
//! * [`NetFault`] — a plan's network-fault component: seed-derived message
//!   drop/duplication rates and optional random reordering, merged into the
//!   job's `NetModel` by the driver so [`shrink_plan`] minimizes over the
//!   network faults together with the fail-stop schedule.
//!
//! The [`crate::Job`] builder owns the restart/chaos orchestration that
//! runs these plans (see [`crate::job`]).

use mpisim::NetModel;
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// When a planned failure fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailAt {
    /// At the rank's `n`-th checkpoint pragma (counted per incarnation).
    Pragma(u64),
    /// At the first pragma after the rank has committed `commits`
    /// checkpoints and reached pragma `pragma`.
    AfterCommits {
        /// Required committed checkpoints.
        commits: u64,
        /// Required pragma count.
        pragma: u64,
    },
    /// At the rank's `n`-th substrate MPI operation (sends, posted receives,
    /// waits, collective entries — see `mpisim::RankCtx::op_clock`). Lands
    /// *inside* collectives, the control plane, checkpoint I/O, and the
    /// restore handshake, not just at pragma boundaries.
    Op(u64),
    /// In the middle of the rank's next checkpoint commit: after the late
    /// log has been written but before the commit record — the classic
    /// torn-commit crash window.
    DuringCommit,
    /// While the rank is in `Restore` mode, at its `n`-th receive served
    /// from the replay log (1-based). Only meaningful for faults armed on a
    /// restart incarnation; a fresh run is never in `Restore`.
    DuringRestore {
        /// Which replayed receive kills the rank (1-based; 0 acts as 1).
        nth_replay: u64,
    },
}

impl std::fmt::Display for FailAt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailAt::Pragma(p) => write!(f, "pragma({p})"),
            FailAt::AfterCommits { commits, pragma } => {
                write!(f, "after-commits({commits})@pragma({pragma})")
            }
            FailAt::Op(n) => write!(f, "op({n})"),
            FailAt::DuringCommit => write!(f, "during-commit"),
            FailAt::DuringRestore { nth_replay } => write!(f, "during-restore({nth_replay})"),
        }
    }
}

/// One deterministic fail-stop fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FailurePlan {
    /// The rank that fails.
    pub rank: usize,
    /// When it fails.
    pub when: FailAt,
}

impl std::fmt::Display for FailurePlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank{}@{}", self.rank, self.when)
    }
}

/// The network-fault component of a chaos plan: transport-level message
/// drop and duplication rates plus optional seeded cross-signature
/// reordering (all three land in `mpisim`'s one hold stage and its fate
/// hash), applied for the *whole* job (every incarnation) on top of
/// the job's base network model. Like the fail-stop faults, these are part
/// of the reproduction recipe: [`ChaosPlan::from_seed`] derives them
/// deterministically and [`shrink_plan`] minimizes over them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetFault {
    /// Message drop (retransmit) probability in permille.
    pub drop_permille: u32,
    /// Message duplication probability in permille.
    pub dup_permille: u32,
    /// Enable seeded cross-signature reordering (`NetModel::reorder`).
    pub reorder: bool,
    /// Bound every destination mailbox to this many unclaimed application
    /// messages (`mpisim::NetModel::mailbox_capacity`): senders park when
    /// the destination is full, exercising the protocol's flow-control
    /// assumptions. `None` leaves the base model's bound unchanged.
    pub mailbox_capacity: Option<usize>,
}

impl NetFault {
    /// A fault component that perturbs nothing (useful as a struct-update
    /// base when only some axes matter).
    pub fn none() -> Self {
        NetFault { drop_permille: 0, dup_permille: 0, reorder: false, mailbox_capacity: None }
    }

    /// Merge into a base network model. Strictly strengthening: rates are
    /// `max`ed with the base's (a plan can never *weaken* the network the
    /// job advertises, which also keeps [`shrink_plan`]'s weaker-is-simpler
    /// ordering monotone — shrinking the component to nothing converges on
    /// exactly the base model), reordering is enabled on top of the base if
    /// requested (never disabled), the mailbox bound is the *tighter* of
    /// the two (a smaller capacity is the stronger perturbation), and the
    /// base seed is kept.
    pub fn apply_to(self, mut base: NetModel) -> NetModel {
        base.drop_permille = base.drop_permille.max(self.drop_permille.min(1000));
        base.dup_permille = base.dup_permille.max(self.dup_permille.min(1000));
        base.reorder |= self.reorder;
        // Clamped to 1 like every other capacity entry point, so the model
        // a plan advertises always matches the bound the substrate enforces.
        let fault_cap = self.mailbox_capacity.map(|c| c.max(1));
        base.mailbox_capacity = match (base.mailbox_capacity, fault_cap) {
            (Some(b), Some(f)) => Some(b.min(f)),
            (b, f) => f.or(b),
        };
        base
    }
}

impl std::fmt::Display for NetFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "net{{drop:{}‰,dup:{}‰", self.drop_permille, self.dup_permille)?;
        if self.reorder {
            write!(f, ",reorder")?;
        }
        if let Some(cap) = self.mailbox_capacity {
            write!(f, ",cap:{cap}")?;
        }
        write!(f, "}}")
    }
}

/// An ordered sequence of fail-stop faults applied across successive job
/// incarnations: fault 0 is armed on the fresh run; after it fires and the
/// job restarts from its recovery line, fault 1 is armed on the restarted
/// incarnation, and so on. Faults that never fire (the job completes first)
/// are simply unspent budget. An optional [`NetFault`] perturbs the network
/// underneath every incarnation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosPlan {
    /// The faults, in arming order.
    pub faults: Vec<FailurePlan>,
    /// Network faults for the whole job, if any.
    pub net: Option<NetFault>,
}

/// The space [`ChaosPlan::from_seed`] samples from — bounds chosen per
/// workload so derived faults have a realistic chance of firing.
#[derive(Clone, Copy, Debug)]
pub struct ChaosSpace {
    /// Ranks in the job.
    pub nranks: usize,
    /// Upper bound (inclusive) for pragma-indexed faults.
    pub max_pragma: u64,
    /// Upper bound (inclusive) for op-clock-indexed faults.
    pub max_op: u64,
}

impl ChaosPlan {
    /// The empty plan: no injection at all.
    pub fn none() -> Self {
        ChaosPlan { faults: Vec::new(), net: None }
    }

    /// A plan of the given fail-stop faults, reliable network.
    pub fn new(faults: Vec<FailurePlan>) -> Self {
        ChaosPlan { faults, net: None }
    }

    /// The seed behavior: a plan of exactly one fault.
    pub fn single(fault: FailurePlan) -> Self {
        ChaosPlan { faults: vec![fault], net: None }
    }

    /// Add a network-fault component.
    pub fn with_net(mut self, nf: NetFault) -> Self {
        self.net = Some(nf);
        self
    }

    /// Derive a plan from a deterministic RNG: 1–3 faults with random ranks
    /// and fire points drawn from `space`. The same `(seed, space)` always
    /// yields the same plan, which is what makes a failing seed a
    /// reproduction recipe.
    pub fn from_seed(seed: u64, space: &ChaosSpace) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let nfaults = 1 + rng.gen_range(0..3) as usize;
        let mut faults = Vec::with_capacity(nfaults);
        for i in 0..nfaults {
            let rank = rng.gen_range(0..space.nranks as u32) as usize;
            // Restore-phase faults only make sense once a restart happened.
            let nvariants = if i == 0 { 4 } else { 5 };
            let when = match rng.gen_range(0..nvariants) {
                0 => FailAt::Pragma(1 + rng.gen_range(0..space.max_pragma.max(1) as u32) as u64),
                1 => FailAt::AfterCommits {
                    commits: 1 + rng.gen_range(0..2) as u64,
                    pragma: 1 + rng.gen_range(0..space.max_pragma.max(1) as u32) as u64,
                },
                2 => FailAt::Op(1 + rng.gen_range(0..space.max_op.max(1) as u32) as u64),
                3 => FailAt::DuringCommit,
                _ => FailAt::DuringRestore { nth_replay: 1 + rng.gen_range(0..4) as u64 },
            };
            faults.push(FailurePlan { rank, when });
        }
        // Half the seeds also perturb the network: drop/duplication rates in
        // {10,20,30}‰, optional random reordering, and (for a third of
        // those) a bounded mailbox. The capacity floor is 2·nranks: the
        // protocol's own collectives legitimately buffer up to ~2(n-1)
        // messages per destination across adjacent rounds, so anything
        // tighter would deadlock correct programs rather than probe the
        // protocol's flow-control handling.
        let net = if rng.gen_range(0..2) == 1 {
            Some(NetFault {
                drop_permille: 10 * (1 + rng.gen_range(0..3)),
                dup_permille: 10 * rng.gen_range(0..3),
                reorder: rng.gen_range(0..2) == 1,
                mailbox_capacity: if rng.gen_range(0..3) == 0 {
                    Some(space.nranks * (2 + rng.gen_range(0..3) as usize))
                } else {
                    None
                },
            })
        } else {
            None
        };
        ChaosPlan { faults, net }
    }

    /// Number of faults in the plan.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True for the empty plan (no injection at all).
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

impl std::fmt::Display for ChaosPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, fault) in self.faults.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{fault}")?;
        }
        write!(f, "]")?;
        if let Some(nf) = &self.net {
            write!(f, " + {nf}")?;
        }
        Ok(())
    }
}

/// Greedily shrink a failing plan to a minimal one: repeatedly try dropping
/// whole faults, removing or weakening the network-fault component, lowering
/// ranks, and reducing fire points (halving, then decrementing), keeping
/// every candidate for which `still_fails` holds. `still_fails(&plan)` must
/// be true for the input plan; the result is a plan that still fails but
/// from which no single greedy step can be removed.
pub fn shrink_plan(plan: &ChaosPlan, still_fails: impl Fn(&ChaosPlan) -> bool) -> ChaosPlan {
    let mut cur = plan.clone();
    // Bounded: each accepted step strictly shrinks a finite measure.
    'outer: for _ in 0..10_000 {
        // 1. Drop a whole fault — down to the empty schedule: a failure
        // reproduced by the network-fault component alone must not keep a
        // spurious rank-kill in its minimal plan.
        for i in 0..cur.faults.len() {
            let mut cand = cur.clone();
            cand.faults.remove(i);
            if still_fails(&cand) {
                cur = cand;
                continue 'outer;
            }
        }
        // 2. Drop the network-fault component.
        if cur.net.is_some() {
            let mut cand = cur.clone();
            cand.net = None;
            if still_fails(&cand) {
                cur = cand;
                continue 'outer;
            }
        }
        // 3. Simplify one fault in place.
        for i in 0..cur.faults.len() {
            for cand_fault in simpler(&cur.faults[i]) {
                let mut cand = cur.clone();
                cand.faults[i] = cand_fault;
                if still_fails(&cand) {
                    cur = cand;
                    continue 'outer;
                }
            }
        }
        // 4. Weaken the network-fault component.
        if let Some(nf) = cur.net {
            for cand_nf in simpler_net(&nf) {
                let mut cand = cur.clone();
                cand.net = Some(cand_nf);
                if still_fails(&cand) {
                    cur = cand;
                    continue 'outer;
                }
            }
        }
        break;
    }
    cur
}

/// Strictly-weaker single-step candidates for a network fault (disable
/// reordering; halve, then decrement, each rate; relax the mailbox bound
/// toward unbounded — a *larger* capacity is the weaker perturbation).
fn simpler_net(nf: &NetFault) -> Vec<NetFault> {
    let mut out = Vec::new();
    if nf.reorder {
        out.push(NetFault { reorder: false, ..*nf });
    }
    if let Some(cap) = nf.mailbox_capacity {
        out.push(NetFault { mailbox_capacity: None, ..*nf });
        // Guards keep every candidate strictly different from the input
        // (cap 0 would make cap*2 a no-op candidate and stall the loop).
        if cap > 0 && cap < 4096 {
            out.push(NetFault { mailbox_capacity: Some(cap * 2), ..*nf });
            out.push(NetFault { mailbox_capacity: Some(cap + 1), ..*nf });
        }
    }
    for (halved, dec) in [
        (
            NetFault { drop_permille: nf.drop_permille / 2, ..*nf },
            NetFault { drop_permille: nf.drop_permille.saturating_sub(1), ..*nf },
        ),
        (
            NetFault { dup_permille: nf.dup_permille / 2, ..*nf },
            NetFault { dup_permille: nf.dup_permille.saturating_sub(1), ..*nf },
        ),
    ] {
        if halved != *nf {
            out.push(halved);
        }
        if dec != *nf && dec != halved {
            out.push(dec);
        }
    }
    out
}

/// Strictly-simpler single-step candidates for one fault (smaller rank,
/// halved/decremented fire point, simpler variant).
fn simpler(f: &FailurePlan) -> Vec<FailurePlan> {
    let mut out = Vec::new();
    if f.rank > 0 {
        out.push(FailurePlan { rank: 0, when: f.when });
        if f.rank > 1 {
            out.push(FailurePlan { rank: f.rank - 1, when: f.when });
        }
    }
    let mut whens = Vec::new();
    match f.when {
        FailAt::Pragma(p) if p > 1 => {
            whens.push(FailAt::Pragma(p / 2));
            whens.push(FailAt::Pragma(p - 1));
        }
        FailAt::AfterCommits { commits, pragma } => {
            whens.push(FailAt::Pragma(pragma));
            if pragma > 1 {
                whens.push(FailAt::AfterCommits { commits, pragma: pragma / 2 });
                whens.push(FailAt::AfterCommits { commits, pragma: pragma - 1 });
            }
            if commits > 0 {
                whens.push(FailAt::AfterCommits { commits: commits - 1, pragma });
            }
        }
        FailAt::Op(n) if n > 1 => {
            whens.push(FailAt::Op(n / 2));
            whens.push(FailAt::Op(n - 1));
        }
        FailAt::DuringCommit => whens.push(FailAt::Pragma(1)),
        FailAt::DuringRestore { nth_replay } if nth_replay > 1 => {
            whens.push(FailAt::DuringRestore { nth_replay: nth_replay / 2 });
            whens.push(FailAt::DuringRestore { nth_replay: nth_replay - 1 });
        }
        _ => {}
    }
    out.extend(whens.into_iter().map(|when| FailurePlan { rank: f.rank, when }));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_seed_is_deterministic_and_in_bounds() {
        let space = ChaosSpace { nranks: 4, max_pragma: 10, max_op: 200 };
        for seed in 0..500u64 {
            let a = ChaosPlan::from_seed(seed, &space);
            let b = ChaosPlan::from_seed(seed, &space);
            assert_eq!(a, b, "seed {seed} not deterministic");
            assert!((1..=3).contains(&a.len()), "seed {seed}: {} faults", a.len());
            for (i, f) in a.faults.iter().enumerate() {
                assert!(f.rank < 4);
                match f.when {
                    FailAt::Pragma(p) => assert!((1..=10).contains(&p)),
                    FailAt::AfterCommits { commits, pragma } => {
                        assert!((1..=2).contains(&commits) && (1..=10).contains(&pragma))
                    }
                    FailAt::Op(n) => assert!((1..=200).contains(&n)),
                    FailAt::DuringCommit => {}
                    FailAt::DuringRestore { nth_replay } => {
                        assert!(i > 0, "seed {seed}: restore fault on the fresh incarnation");
                        assert!((1..=4).contains(&nth_replay));
                    }
                }
            }
        }
    }

    #[test]
    fn seeds_cover_every_variant() {
        let space = ChaosSpace { nranks: 4, max_pragma: 10, max_op: 200 };
        let mut seen = [false; 5];
        for seed in 0..200u64 {
            for f in ChaosPlan::from_seed(seed, &space).faults {
                match f.when {
                    FailAt::Pragma(_) => seen[0] = true,
                    FailAt::AfterCommits { .. } => seen[1] = true,
                    FailAt::Op(_) => seen[2] = true,
                    FailAt::DuringCommit => seen[3] = true,
                    FailAt::DuringRestore { .. } => seen[4] = true,
                }
            }
        }
        assert_eq!(seen, [true; 5], "200 seeds should hit every fault variant");
    }

    #[test]
    fn shrinker_reduces_a_known_bad_plan_to_its_minimal_core() {
        // Synthetic oracle: the plan "fails" iff it contains an op fault
        // with op >= 10. The minimal reproduction is a single rank-0 fault
        // at exactly op 10, without the irrelevant network component.
        let bad = ChaosPlan::new(vec![
            FailurePlan { rank: 1, when: FailAt::Pragma(7) },
            FailurePlan { rank: 3, when: FailAt::Op(123) },
            FailurePlan { rank: 2, when: FailAt::DuringRestore { nth_replay: 3 } },
        ])
        .with_net(NetFault {
            drop_permille: 30,
            dup_permille: 20,
            reorder: true,
            mailbox_capacity: None,
        });
        let fails =
            |p: &ChaosPlan| p.faults.iter().any(|f| matches!(f.when, FailAt::Op(n) if n >= 10));
        assert!(fails(&bad));
        let min = shrink_plan(&bad, fails);
        assert_eq!(
            min,
            ChaosPlan::single(FailurePlan { rank: 0, when: FailAt::Op(10) }),
            "got {min}"
        );
    }

    #[test]
    fn shrinker_keeps_multi_fault_cores_when_both_faults_matter() {
        // Oracle needs one pragma fault AND one during-restore fault.
        let bad = ChaosPlan::new(vec![
            FailurePlan { rank: 2, when: FailAt::AfterCommits { commits: 2, pragma: 9 } },
            FailurePlan { rank: 1, when: FailAt::Op(50) },
            FailurePlan { rank: 3, when: FailAt::DuringRestore { nth_replay: 4 } },
        ]);
        let fails = |p: &ChaosPlan| {
            p.faults
                .iter()
                .any(|f| matches!(f.when, FailAt::Pragma(_) | FailAt::AfterCommits { .. }))
                && p.faults.iter().any(|f| matches!(f.when, FailAt::DuringRestore { .. }))
        };
        assert!(fails(&bad));
        let min = shrink_plan(&bad, fails);
        assert_eq!(min.len(), 2, "got {min}");
        assert_eq!(
            min.faults,
            vec![
                FailurePlan { rank: 0, when: FailAt::Pragma(1) },
                FailurePlan { rank: 0, when: FailAt::DuringRestore { nth_replay: 1 } },
            ],
            "got {min}"
        );
    }

    #[test]
    fn display_is_a_readable_reproduction_recipe() {
        let plan = ChaosPlan::new(vec![
            FailurePlan { rank: 2, when: FailAt::AfterCommits { commits: 1, pragma: 5 } },
            FailurePlan { rank: 0, when: FailAt::DuringRestore { nth_replay: 2 } },
        ]);
        assert_eq!(plan.to_string(), "[rank2@after-commits(1)@pragma(5), rank0@during-restore(2)]");
        let with_net = plan.with_net(NetFault {
            drop_permille: 20,
            dup_permille: 10,
            reorder: true,
            mailbox_capacity: None,
        });
        assert_eq!(
            with_net.to_string(),
            "[rank2@after-commits(1)@pragma(5), rank0@during-restore(2)] + net{drop:20‰,dup:10‰,reorder}"
        );
    }

    #[test]
    fn seeds_derive_network_faults_deterministically() {
        let space = ChaosSpace { nranks: 4, max_pragma: 10, max_op: 200 };
        let mut with_net = 0;
        for seed in 0..200u64 {
            let a = ChaosPlan::from_seed(seed, &space);
            assert_eq!(a.net, ChaosPlan::from_seed(seed, &space).net, "seed {seed}");
            if let Some(nf) = a.net {
                with_net += 1;
                assert!(nf.drop_permille <= 30 && nf.dup_permille <= 20, "seed {seed}: {nf}");
            }
        }
        // Roughly half the seeds perturb the network.
        assert!((50..150).contains(&with_net), "{with_net} net-faulted seeds out of 200");
    }

    #[test]
    fn shrinker_removes_irrelevant_network_faults() {
        let bad = ChaosPlan::new(vec![FailurePlan { rank: 1, when: FailAt::Op(64) }]).with_net(
            NetFault { drop_permille: 30, dup_permille: 20, reorder: true, mailbox_capacity: None },
        );
        let fails =
            |p: &ChaosPlan| p.faults.iter().any(|f| matches!(f.when, FailAt::Op(n) if n >= 10));
        let min = shrink_plan(&bad, fails);
        assert_eq!(
            min,
            ChaosPlan::single(FailurePlan { rank: 0, when: FailAt::Op(10) }),
            "got {min}"
        );
    }

    #[test]
    fn shrinker_minimizes_network_faults_when_they_matter() {
        let bad = ChaosPlan::new(vec![FailurePlan { rank: 2, when: FailAt::Pragma(9) }]).with_net(
            NetFault { drop_permille: 37, dup_permille: 12, reorder: true, mailbox_capacity: None },
        );
        // Oracle: fails iff the network can drop at a rate of at least 10‰.
        // No rank death is needed, so the minimal plan has NO fail-stop
        // fault at all — only the minimized network component.
        let fails = |p: &ChaosPlan| p.net.is_some_and(|n| n.drop_permille >= 10);
        let min = shrink_plan(&bad, fails);
        assert!(min.faults.is_empty(), "got {min}");
        assert_eq!(
            min.net,
            Some(NetFault {
                drop_permille: 10,
                dup_permille: 0,
                reorder: false,
                mailbox_capacity: None
            }),
            "got {min}"
        );
    }

    #[test]
    fn seeds_derive_mailbox_capacities_deterministically_and_above_the_floor() {
        let space = ChaosSpace { nranks: 4, max_pragma: 10, max_op: 200 };
        let mut with_cap = 0;
        for seed in 0..600u64 {
            let a = ChaosPlan::from_seed(seed, &space);
            assert_eq!(a.net, ChaosPlan::from_seed(seed, &space).net, "seed {seed}");
            if let Some(cap) = a.net.and_then(|nf| nf.mailbox_capacity) {
                with_cap += 1;
                // Floor 2·nranks: tighter bounds deadlock correct programs
                // (the protocol's collectives buffer ~2(n-1) per peer).
                assert!(
                    (2 * space.nranks..=4 * space.nranks).contains(&cap),
                    "seed {seed}: capacity {cap} outside [{}, {}]",
                    2 * space.nranks,
                    4 * space.nranks
                );
            }
        }
        // Roughly a sixth of all seeds (a third of the net-faulted half).
        assert!((40..180).contains(&with_cap), "{with_cap} capacity-bounded seeds out of 600");
    }

    #[test]
    fn shrinker_relaxes_the_mailbox_bound_toward_unbounded() {
        let bad = ChaosPlan::new(vec![FailurePlan { rank: 2, when: FailAt::Pragma(9) }]).with_net(
            NetFault {
                drop_permille: 30,
                dup_permille: 10,
                reorder: true,
                mailbox_capacity: Some(8),
            },
        );
        // Oracle: fails iff the mailbox bound is at most 20 — the minimal
        // (weakest still-failing) reproduction is capacity 20 alone.
        let fails =
            |p: &ChaosPlan| p.net.is_some_and(|n| n.mailbox_capacity.is_some_and(|c| c <= 20));
        assert!(fails(&bad));
        let min = shrink_plan(&bad, fails);
        assert!(min.faults.is_empty(), "got {min}");
        assert_eq!(
            min.net,
            Some(NetFault { mailbox_capacity: Some(20), ..NetFault::none() }),
            "got {min}"
        );
    }

    #[test]
    fn shrinker_drops_an_irrelevant_mailbox_bound() {
        let bad = ChaosPlan::new(vec![FailurePlan { rank: 1, when: FailAt::Op(64) }]).with_net(
            NetFault {
                drop_permille: 0,
                dup_permille: 0,
                reorder: false,
                mailbox_capacity: Some(8),
            },
        );
        let fails =
            |p: &ChaosPlan| p.faults.iter().any(|f| matches!(f.when, FailAt::Op(n) if n >= 10));
        let min = shrink_plan(&bad, fails);
        assert_eq!(
            min,
            ChaosPlan::single(FailurePlan { rank: 0, when: FailAt::Op(10) }),
            "got {min}"
        );
    }

    #[test]
    fn mailbox_bound_merge_takes_the_tighter_capacity() {
        let nf = NetFault { mailbox_capacity: Some(8), ..NetFault::none() };
        assert_eq!(nf.apply_to(NetModel::reliable()).mailbox_capacity, Some(8));
        assert_eq!(nf.apply_to(NetModel::reliable().mailbox_capacity(4)).mailbox_capacity, Some(4));
        assert_eq!(
            nf.apply_to(NetModel::reliable().mailbox_capacity(64)).mailbox_capacity,
            Some(8)
        );
        // Capacity 0 is clamped to 1 (matching every other entry point), so
        // the advertised model always equals the enforced bound.
        let zero = NetFault { mailbox_capacity: Some(0), ..NetFault::none() };
        assert_eq!(zero.apply_to(NetModel::reliable()).mailbox_capacity, Some(1));
        let none = NetFault::none();
        assert_eq!(
            none.apply_to(NetModel::reliable().mailbox_capacity(4)).mailbox_capacity,
            Some(4)
        );
        assert_ne!(nf, NetFault::none());
        assert_eq!(nf.to_string(), "net{drop:0‰,dup:0‰,cap:8}");
    }

    #[test]
    fn net_fault_merges_onto_base_model() {
        let nf =
            NetFault { drop_permille: 25, dup_permille: 15, reorder: true, mailbox_capacity: None };
        let merged = nf.apply_to(NetModel::reliable().seed(9));
        assert_eq!(merged.drop_permille, 25);
        assert_eq!(merged.dup_permille, 15);
        assert_eq!(merged.seed, 9, "base seed is kept");
        assert!(merged.reorder);
        // Strictly strengthening: a weaker component never lowers the base's
        // advertised rates (and shrinking it to nothing restores the base).
        let weak =
            NetFault { drop_permille: 5, dup_permille: 0, reorder: false, mailbox_capacity: None };
        let merged = weak.apply_to(NetModel::reliable().drop_rate(15).duplicate_rate(10));
        assert_eq!((merged.drop_permille, merged.dup_permille), (15, 10));
        // An existing reorder is never downgraded.
        let merged =
            NetFault { drop_permille: 0, dup_permille: 0, reorder: false, mailbox_capacity: None }
                .apply_to(NetModel::reorder(3));
        assert!(merged.reorder);
        assert_eq!(
            NetFault { drop_permille: 0, dup_permille: 0, reorder: false, mailbox_capacity: None },
            NetFault::none()
        );
    }
}
