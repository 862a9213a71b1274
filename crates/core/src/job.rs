//! The unified job builder: one entry point for launch, restore, and chaos.
//!
//! The paper's protocol is agnostic to *how* a job is driven — any process
//! may initiate, any rank may die, the network may reorder, drop, or
//! duplicate. [`Job`] composes all of those axes behind a single builder:
//!
//! ```ignore
//! use c3::{ChaosPlan, Job};
//! use mpisim::NetModel;
//!
//! let rec = Job::new(4, cfg)
//!     .network(NetModel::reorder(seed).drop_rate(20).duplicate_rate(10))
//!     .chaos(ChaosPlan::from_seed(seed, &space))
//!     .run(app)?;
//! assert_eq!(rec.results, baseline);
//! ```
//!
//! A `Job` is a substrate [`JobSpec`] plus the protocol config, restore
//! mode and fault plan. A plain run has no chaos plan; a restart-cost run
//! is [`Job::restore`]; a single fail-stop fault is [`Job::failure`].
//!
//! The builder owns the restart/chaos orchestration: it arms the plan's
//! faults one incarnation at a time (each rank's context keeps the fault
//! only if it names that rank), restarts from the last committed recovery
//! line after each injected death, and asserts forward progress (every
//! restart consumes one fault of the budget and the committed line never
//! regresses). Network-fault entries of the plan
//! ([`crate::failure::NetFault`]) are merged into the job's [`NetModel`]
//! before launch, so a seed-derived plan perturbs the network and the
//! fail-stop schedule together — and [`crate::failure::shrink_plan`]
//! minimizes over both.

use crate::api::{C3Config, C3Ctx, C3Error};
use crate::failure::{ChaosPlan, FailurePlan};
use mpisim::{JobError, JobHandle, JobSpec, NetModel, SchedMode, INJECTED_FAULT_MARKER};
use statesave::CkptStore;

/// The outcome of a job that survived zero or more injected failures.
#[derive(Debug)]
pub struct RecoveredJob<T> {
    /// The completed job (per-rank results and statistics). Also reachable
    /// directly: `RecoveredJob` derefs to [`JobHandle`].
    pub handle: JobHandle<T>,
    /// How many times the job was restarted from a recovery line: one per
    /// fault of the plan that fired.
    pub restarts: u32,
    /// The globally committed recovery line observed at each restart, in
    /// order — non-decreasing by the forward-progress invariant.
    pub lines: Vec<u64>,
}

impl<T> std::ops::Deref for RecoveredJob<T> {
    type Target = JobHandle<T>;
    fn deref(&self) -> &JobHandle<T> {
        &self.handle
    }
}

/// Builder for one protocol-instrumented job: topology, network model,
/// restore mode, and fault plan. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct Job {
    /// The substrate spec, before the chaos plan's network faults merge in.
    spec: JobSpec,
    cfg: C3Config,
    chaos: ChaosPlan,
    restore: bool,
}

impl Job {
    /// A job of `nranks` ranks on [`JobSpec::new`]'s ideal, reliable
    /// network, fresh start, no fault injection.
    pub fn new(nranks: usize, cfg: C3Config) -> Self {
        Self::from_spec(&JobSpec::new(nranks), cfg)
    }

    /// Build from an existing substrate [`JobSpec`] (topology + cluster +
    /// network model + scheduler). Used by harnesses that share one spec
    /// between raw-substrate baselines and protocol runs.
    pub fn from_spec(spec: &JobSpec, cfg: C3Config) -> Self {
        Job { spec: spec.clone(), cfg, chaos: ChaosPlan::none(), restore: false }
    }

    /// Set the network fault-and-delivery model (reordering, drop,
    /// duplication, seed).
    pub fn network(mut self, n: NetModel) -> Self {
        self.spec.net = n;
        self
    }

    /// Select the rank scheduler's worker-pool width (one worker per CPU by
    /// default; `workers: 1` is the serial reference schedule the
    /// equivalence suites compare against).
    pub fn sched(mut self, s: SchedMode) -> Self {
        self.spec.sched = s;
        self
    }

    /// Arm an ordered multi-fault chaos plan (fail-stop faults across
    /// incarnations, plus optional network faults).
    pub fn chaos(mut self, plan: ChaosPlan) -> Self {
        self.chaos = plan;
        self
    }

    /// Arm a single fail-stop fault (a [`ChaosPlan`] of length 1).
    pub fn failure(mut self, f: FailurePlan) -> Self {
        self.chaos = ChaosPlan::single(f);
        self
    }

    /// Start from the last committed recovery line instead of fresh (the
    /// §6.5 restart-cost measurement). Falls back to a fresh start when the
    /// store holds no committed line.
    pub fn restore(mut self) -> Self {
        self.restore = true;
        self
    }

    /// The job's configuration.
    pub fn config(&self) -> &C3Config {
        &self.cfg
    }

    /// The network model the job will actually run under: the builder's
    /// model with the chaos plan's network-fault entries merged in.
    pub fn effective_net(&self) -> NetModel {
        match self.chaos.net {
            Some(nf) => nf.apply_to(self.spec.net),
            None => self.spec.net,
        }
    }

    /// The substrate spec this job launches with (shared with raw-substrate
    /// baseline runs so both sides see the identical network).
    pub fn spec(&self) -> JobSpec {
        JobSpec { net: self.effective_net(), ..self.spec.clone() }
    }

    /// One incarnation: launch, wrap every rank in the co-ordination layer
    /// (fresh or restoring), run the application.
    fn attempt<T, F>(
        &self,
        spec: &JobSpec,
        failure: Option<FailurePlan>,
        restore: bool,
        app: &F,
    ) -> Result<JobHandle<T>, JobError>
    where
        T: Send,
        F: Fn(&mut C3Ctx<'_>) -> Result<T, C3Error> + Sync,
    {
        let cfg = &self.cfg;
        mpisim::launch(spec, |mpi| {
            let mut ctx = if restore {
                C3Ctx::restore_or_fresh(mpi, cfg.clone(), failure)
            } else {
                C3Ctx::fresh(mpi, cfg.clone(), failure)
            }
            .map_err(|e| e.into_mpi())?;
            app(&mut ctx).map_err(|e| e.into_mpi())
        })
    }

    /// The recovery line currently committed on *every* rank (0 if none).
    fn committed_line(&self) -> u64 {
        let store = match CkptStore::new(&self.cfg.store_root) {
            Ok(s) => s,
            Err(_) => return 0,
        };
        (0..self.spec.nranks).map(|r| store.last_committed(r).unwrap_or(0)).min().unwrap_or(0)
    }

    /// Run the job to completion, restarting from the last committed
    /// recovery line after every injected death.
    ///
    /// Forward progress is asserted on every restart: an abort is only
    /// accepted when the armed fault actually fired (any other abort
    /// propagates as an error, so a wedged protocol cannot be papered over
    /// by retries), each restart consumes exactly one fault of the plan's
    /// budget, and the committed recovery line never regresses.
    pub fn run<T, F>(&self, app: F) -> Result<RecoveredJob<T>, JobError>
    where
        T: Send,
        F: Fn(&mut C3Ctx<'_>) -> Result<T, C3Error> + Sync,
    {
        let spec = self.spec();
        let mut restarts = 0u32;
        let mut restore = self.restore;
        let mut lines = Vec::new();
        loop {
            let fault = self.chaos.faults.get(restarts as usize).copied();
            match self.attempt(&spec, fault, restore, &app) {
                Ok(handle) => return Ok(RecoveredJob { handle, restarts, lines }),
                Err(JobError::Aborted { reason }) => {
                    // Only a death we injected ourselves justifies a restart.
                    if !reason.contains(INJECTED_FAULT_MARKER) {
                        return Err(JobError::Aborted { reason });
                    }
                    // Forward-progress invariants surface as errors, not
                    // panics, so a soak harness can record and shrink exactly
                    // this failure class instead of losing the whole sweep.
                    if fault.is_none() {
                        return Err(JobError::Aborted {
                            reason: format!(
                                "chaos driver invariant violated: abort marked as injected \
                                 but the plan is exhausted ({reason})"
                            ),
                        });
                    }
                    let line = self.committed_line();
                    if lines.last().is_some_and(|prev| line < *prev) {
                        return Err(JobError::Aborted {
                            reason: format!(
                                "chaos driver invariant violated: committed recovery line \
                                 regressed to {line} after {lines:?}"
                            ),
                        });
                    }
                    lines.push(line);
                    restarts += 1;
                    restore = true;
                }
                Err(other) => return Err(other),
            }
        }
    }
}
