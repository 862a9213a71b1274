//! Shared measurement machinery for the table generators in [`crate::tables`].
//!
//! Every table compares the same application compiled two ways (§6): the
//! "Original" run goes straight to the substrate (`mpisim::launch`), the
//! "C³" run goes through the co-ordination layer (`c3::Job`). Wall-clock
//! time is the measured quantity — the C³ bookkeeping is real CPU work on
//! real threads, exactly the overhead the paper measures.

use c3::{C3Config, C3Error, C3Stats};
use mpisim::JobSpec;
use npb::Kernel;
use statesave::CkptStore;
use std::path::Path;
use std::time::{Duration, Instant};

/// Outcome of one timed job.
pub struct Timed {
    /// Wall-clock duration of the whole job.
    pub wall: Duration,
    /// Per-rank results.
    pub results: Vec<f64>,
    /// Virtual-time makespan (cluster-model time, ns).
    pub makespan_ns: u64,
    /// Per-rank C³ statistics (empty for original runs).
    pub stats: Vec<C3Stats>,
}

impl Timed {
    /// One C³ statistic summed over the ranks.
    pub fn total(&self, field: impl Fn(&C3Stats) -> u64) -> u64 {
        self.stats.iter().map(field).sum()
    }
}

/// Run the original (un-instrumented) application.
pub fn run_original(spec: &JobSpec, kernel: Kernel) -> Timed {
    let t0 = Instant::now();
    let h = mpisim::launch(spec, move |ctx| kernel.run(ctx))
        .unwrap_or_else(|e| panic!("original {} failed: {e}", kernel.name()));
    let makespan_ns = h.makespan_ns();
    Timed { wall: t0.elapsed(), results: h.results, makespan_ns, stats: Vec::new() }
}

/// Run under the C³ layer with the given configuration.
pub fn run_c3(spec: &JobSpec, cfg: &C3Config, kernel: Kernel) -> Timed {
    let t0 = Instant::now();
    let h = c3::Job::from_spec(spec, cfg.clone())
        .run(move |ctx| {
            let r = kernel.run(ctx).map_err(C3Error::Mpi)?;
            Ok((r, ctx.stats().clone()))
        })
        .unwrap_or_else(|e| panic!("C³ {} failed: {e}", kernel.name()));
    let wall = t0.elapsed();
    let makespan_ns = h.makespan_ns();
    let (results, stats) = h.handle.results.into_iter().unzip();
    Timed { wall, results, makespan_ns, stats }
}

/// Wall time of the best of `reps` runs of `f` (minimum damps scheduler
/// noise the way the paper's repeated runs would have).
pub fn best_of<F: FnMut() -> Timed>(reps: usize, mut f: F) -> Timed {
    let mut best: Option<Timed> = None;
    for _ in 0..reps.max(1) {
        let t = f();
        if best.as_ref().is_none_or(|b| t.wall < b.wall) {
            best = Some(t);
        }
    }
    best.unwrap()
}

/// Per-rank checkpoint sizes of the newest committed version in a store.
pub fn checkpoint_sizes(store_root: &Path, nranks: usize) -> Vec<u64> {
    let store = CkptStore::new(store_root).expect("open store");
    let version = store.versions().into_iter().max().unwrap_or(0);
    (0..nranks).map(|r| store.checkpoint_bytes(version, r).unwrap_or(0)).collect()
}

/// Verify that the C³ results equal the original results bit-for-bit; the
/// tables must never report overheads for a run that silently diverged.
pub fn assert_same_results(name: &str, a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "{name}: rank count mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x == y || (x - y).abs() <= 1e-9 * x.abs().max(1e-300),
            "{name}: rank {i} diverged ({x} vs {y})"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use statesave::TempStore;

    #[test]
    fn original_and_c3_agree_on_cg() {
        let spec = JobSpec::new(2);
        let k = Kernel::Cg(npb::cg::CgConfig { n: 512, iters: 5 });
        let orig = run_original(&spec, k);
        let store = TempStore::new("runner-cg");
        let cfg = C3Config::passive(store.path());
        let c3r = run_c3(&spec, &cfg, k);
        assert_same_results("cg", &orig.results, &c3r.results);
        assert_eq!(c3r.total(|s| s.ckpts_committed), 0);
        assert!(c3r.total(|s| s.msgs_sent) > 0);
    }

    #[test]
    fn checkpoint_sizes_read_back() {
        let spec = JobSpec::new(2);
        let k = Kernel::Sp(npb::sp::SpConfig { n: 32, steps: 6, lambda: 0.4 });
        let store = TempStore::new("runner-sizes");
        let cfg = C3Config::at_pragmas(store.path(), vec![2]);
        let t = run_c3(&spec, &cfg, k);
        let committed = t.total(|s| s.ckpts_committed);
        assert_eq!(committed, 2);
        assert!(t.total(|s| s.ckpt_line_bytes) > 0);
        assert_eq!(t.total(|s| s.ckpt_bases), committed);
        let sizes = checkpoint_sizes(store.path(), 2);
        assert!(sizes.iter().all(|s| *s > 0), "sizes: {sizes:?}");
    }

    /// The tables run several fresh jobs on one store before reading its
    /// sizes: each job's line replaces the last, so the sizes are one job's.
    #[test]
    fn checkpoint_sizes_of_repeated_jobs_are_one_jobs() {
        let spec = JobSpec::new(2);
        let k = Kernel::Sp(npb::sp::SpConfig { n: 32, steps: 6, lambda: 0.4 });
        let store = TempStore::new("runner-reps");
        let cfg = C3Config::at_pragmas(store.path(), vec![2]);
        run_c3(&spec, &cfg, k);
        let once = checkpoint_sizes(store.path(), 2);
        run_c3(&spec, &cfg, k);
        assert_eq!(checkpoint_sizes(store.path(), 2), once);
    }

    #[test]
    fn best_of_picks_minimum() {
        let mut calls = 0;
        let t = best_of(3, || {
            calls += 1;
            Timed {
                wall: Duration::from_millis(100 - calls * 10),
                results: vec![],
                makespan_ns: 0,
                stats: Vec::new(),
            }
        });
        assert_eq!(t.wall, Duration::from_millis(70));
    }
}
