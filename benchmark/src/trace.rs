//! In-memory spans recorded from outside the program.
//!
//! Every number a layer gets comes from timing calls into its public
//! functions: [`TimedComm`] wraps an [`npb::Comm`] backend and records one
//! span per trait call (plus one around the `save` closure a pragma
//! invokes), and the harness records a span around `mpisim::launch` /
//! `c3::Job::run` ([`JobTrace`]). Spans stay in memory until the benchmark
//! ends. A span's *self time* is its duration minus the part of that
//! interval its children cover.

use crate::json::Json;
use mpisim::{MpiError, Status};
use npb::backend::{Comm, Op};
use statesave::Encoder;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Nanoseconds since the first call in this process: one time base for the
/// job spans and every rank's spans.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Root span of a rank: the application closure of one incarnation.
pub const APP: &str = "app";
/// Span around the `save` closure of a pragma (child of `pragma`).
pub const PRAGMA_SAVE: &str = "pragma.save";
pub const PRAGMA: &str = "pragma";

/// One timed interval on one rank. `parent` indexes the same rank's span
/// list; a rank's root span has none (its parent is the job span).
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Duration of `spans[idx]` minus the part of its interval that its direct
/// children cover (overlapping children are counted once).
pub fn self_time_ns(spans: &[Span], idx: usize) -> u64 {
    let me = &spans[idx];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx as u32))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(lo, hi)| hi > lo)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = me.start_ns;
    for (lo, hi) in kids {
        if hi > reach {
            covered += hi - lo.max(reach);
            reach = hi;
        }
    }
    me.duration_ns() - covered
}

/// The spans one rank recorded during one incarnation; `spans[0]` is the
/// [`APP`] root.
#[derive(Clone, Debug)]
pub struct RankTrace {
    pub rank: usize,
    pub spans: Vec<Span>,
}

/// Which side of the comparison a job ran on; prefixes its layer metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// `mpisim::launch`, no protocol.
    Raw,
    /// `c3::Job::run`.
    C3,
}

impl Side {
    pub fn name(self) -> &'static str {
        match self {
            Side::Raw => "raw",
            Side::C3 => "c3",
        }
    }
}

/// One job's spans: the job span itself (set by the harness around the
/// launch call) and what every rank of every incarnation recorded.
#[derive(Debug)]
pub struct JobTrace {
    pub id: u64,
    pub side: Side,
    pub start_ns: u64,
    pub end_ns: u64,
    ranks: Mutex<Vec<RankTrace>>,
}

impl JobTrace {
    pub fn new(id: u64, side: Side) -> JobTrace {
        JobTrace { id, side, start_ns: 0, end_ns: 0, ranks: Mutex::new(Vec::new()) }
    }

    /// Rank traces in the order of their start.
    pub fn ranks(&self) -> Vec<RankTrace> {
        let mut v = self.ranks.lock().expect("a rank panicked while handing in its spans").clone();
        v.sort_by_key(|r| r.spans[0].start_ns);
        v
    }

    /// Per-rank-mean milliseconds by layer, for this job.
    pub fn layers(&self, nranks: usize) -> JobLayers {
        let ranks = self.ranks();
        let mut l = JobLayers::default();
        let per_rank_ms = |ns: u64| ns as f64 / 1e6 / nranks as f64;
        for r in &ranks {
            l.compute_ms += per_rank_ms(self_time_ns(&r.spans, 0));
            for s in &r.spans[1..] {
                let ms = per_rank_ms(s.duration_ns());
                match s.name {
                    PRAGMA => l.pragma_ms += ms,
                    PRAGMA_SAVE => l.app_encode_ms += ms,
                    n if n.starts_with("p2p.") => l.p2p_ms += ms,
                    n if n.starts_with("coll.") => l.coll_ms += ms,
                    n => unreachable!("unknown span name {n}"),
                }
            }
        }
        // `launch` joins every rank before the next incarnation starts, so
        // a rank that starts after everything seen so far has ended opens a
        // new incarnation.
        let mut in_app_ns = 0;
        let mut current: Option<(u64, u64)> = None;
        for r in &ranks {
            let (lo, hi) = (r.spans[0].start_ns, r.spans[0].end_ns);
            current = match current {
                Some((a, b)) if lo < b => Some((a, b.max(hi))),
                Some((a, b)) => {
                    in_app_ns += b - a;
                    l.incarnations += 1;
                    Some((lo, hi))
                }
                None => Some((lo, hi)),
            };
        }
        if let Some((a, b)) = current {
            in_app_ns += b - a;
            l.incarnations += 1;
        }
        l.relaunch_ms = (self.end_ns - self.start_ns).saturating_sub(in_app_ns) as f64 / 1e6;
        l
    }

    fn header_json(&self, l: &JobLayers) -> Json {
        Json::obj([
            ("id", self.id.into()),
            ("side", self.side.name().into()),
            ("start_ns", self.start_ns.into()),
            ("end_ns", self.end_ns.into()),
            ("incarnations", l.incarnations.into()),
            ("compute_ms", l.compute_ms.into()),
            ("p2p_call_ms", l.p2p_ms.into()),
            ("coll_call_ms", l.coll_ms.into()),
            ("pragma_call_ms", l.pragma_ms.into()),
            ("app_encode_ms", l.app_encode_ms.into()),
            ("relaunch_ms", l.relaunch_ms.into()),
        ])
    }

    fn spans_json(&self, out: &mut Vec<Json>) {
        for (n, r) in self.ranks().iter().enumerate() {
            for (i, s) in r.spans.iter().enumerate() {
                out.push(Json::obj([
                    ("job", Json::from(self.id)),
                    // Rank traces are numbered per job: one per rank per incarnation.
                    ("trace", (n as u64).into()),
                    ("rank", (r.rank as u64).into()),
                    ("id", (i as u64).into()),
                    ("parent", s.parent.map_or(Json::Null, |p| u64::from(p).into())),
                    ("name", s.name.into()),
                    ("start_ns", s.start_ns.into()),
                    ("end_ns", s.end_ns.into()),
                ]));
            }
        }
    }
}

/// What one traced job spent where. Call times are busy + wait, summed over
/// a rank's calls and averaged over the ranks.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JobLayers {
    /// Rank wall minus time inside `Comm` calls (self time of [`APP`]).
    pub compute_ms: f64,
    pub p2p_ms: f64,
    pub coll_ms: f64,
    /// Whole pragma calls, the `save` closure included.
    pub pragma_ms: f64,
    /// The `save` closures alone.
    pub app_encode_ms: f64,
    /// Job wall minus the time some rank was inside the application:
    /// launch, restore and teardown of every incarnation.
    pub relaunch_ms: f64,
    pub incarnations: u64,
}

/// The trace file: a header with the layer split for every traced job, and
/// the full span list of the last traced job of each side (64 ranks record
/// tens of thousands of spans per job; all jobs' spans would be hundreds of
/// megabytes of JSON).
pub fn trace_file(workload: &str, nranks: usize, jobs: &[(JobTrace, JobLayers)]) -> Json {
    let mut spans = Vec::new();
    for side in [Side::Raw, Side::C3] {
        if let Some((j, _)) = jobs.iter().rev().find(|(j, _)| j.side == side) {
            j.spans_json(&mut spans);
        }
    }
    Json::obj([
        ("workload", Json::from(workload)),
        ("nranks", (nranks as u64).into()),
        ("jobs", Json::Arr(jobs.iter().map(|(j, l)| j.header_json(l)).collect())),
        ("spans", Json::Arr(spans)),
    ])
}

/// An [`npb::Comm`] backend with a timer around every call. Hands its spans
/// to the job's trace when dropped, so an incarnation that dies (error or
/// panic unwinding through the kernel) still reports what it did.
pub struct TimedComm<'a, C: Comm> {
    inner: &'a mut C,
    rec: Recorder,
    job: &'a JobTrace,
}

#[derive(Default)]
struct Recorder {
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    fn open(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns: now_ns(), end_ns: 0, parent });
        self.open.push(id);
        id
    }

    fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }
}

impl<'a, C: Comm> TimedComm<'a, C> {
    /// Start the rank's [`APP`] span; it ends when the wrapper is dropped.
    pub fn new(inner: &'a mut C, job: &'a JobTrace) -> Self {
        let mut rec = Recorder::default();
        rec.open(APP);
        TimedComm { inner, rec, job }
    }

    fn timed<T>(&mut self, name: &'static str, call: impl FnOnce(&mut C) -> T) -> T {
        let id = self.rec.open(name);
        let out = call(self.inner);
        self.rec.close(id);
        out
    }
}

impl<C: Comm> Drop for TimedComm<'_, C> {
    fn drop(&mut self) {
        let end = now_ns();
        // A call that unwound left its span open: end it with the rank.
        for id in std::mem::take(&mut self.rec.open) {
            self.rec.spans[id as usize].end_ns = end;
        }
        let trace =
            RankTrace { rank: self.inner.rank(), spans: std::mem::take(&mut self.rec.spans) };
        // Never panic in drop: a poisoned lock only loses this rank's spans.
        if let Ok(mut ranks) = self.job.ranks.lock() {
            ranks.push(trace);
        }
    }
}

impl<C: Comm> Comm for TimedComm<'_, C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn nranks(&self) -> usize {
        self.inner.nranks()
    }
    fn send_bytes(&mut self, dst: usize, tag: i32, data: &[u8]) -> Result<(), MpiError> {
        self.timed("p2p.send", |c| c.send_bytes(dst, tag, data))
    }
    fn recv_bytes(&mut self, src: i32, tag: i32) -> Result<(Vec<u8>, Status), MpiError> {
        self.timed("p2p.recv", |c| c.recv_bytes(src, tag))
    }
    fn allreduce_f64(&mut self, x: f64, op: Op) -> Result<f64, MpiError> {
        self.timed("coll.allreduce", |c| c.allreduce_f64(x, op))
    }
    fn allreduce_u64(&mut self, x: u64, op: Op) -> Result<u64, MpiError> {
        self.timed("coll.allreduce", |c| c.allreduce_u64(x, op))
    }
    fn allreduce_f64_vec(&mut self, xs: &[f64], op: Op) -> Result<Vec<f64>, MpiError> {
        self.timed("coll.allreduce", |c| c.allreduce_f64_vec(xs, op))
    }
    fn allreduce_u64_vec(&mut self, xs: &[u64], op: Op) -> Result<Vec<u64>, MpiError> {
        self.timed("coll.allreduce", |c| c.allreduce_u64_vec(xs, op))
    }
    fn bcast_bytes(&mut self, root: usize, data: &mut Vec<u8>) -> Result<(), MpiError> {
        self.timed("coll.bcast", |c| c.bcast_bytes(root, data))
    }
    fn gather_bytes(&mut self, root: usize, mine: &[u8]) -> Result<Option<Vec<Vec<u8>>>, MpiError> {
        self.timed("coll.gather", |c| c.gather_bytes(root, mine))
    }
    fn alltoall_bytes(&mut self, parts: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, MpiError> {
        self.timed("coll.alltoall", |c| c.alltoall_bytes(parts))
    }
    fn barrier(&mut self) -> Result<(), MpiError> {
        self.timed("coll.barrier", |c| c.barrier())
    }
    fn pragma(&mut self, save: &mut dyn FnMut(&mut Encoder)) -> Result<bool, MpiError> {
        let id = self.rec.open(PRAGMA);
        let rec = &mut self.rec;
        let out = self.inner.pragma(&mut |e| {
            let id = rec.open(PRAGMA_SAVE);
            save(e);
            rec.close(id);
        });
        self.rec.close(id);
        out
    }
    fn take_restored_state(&mut self) -> Option<Vec<u8>> {
        self.inner.take_restored_state()
    }
    fn compute(&mut self, ns: u64) {
        self.inner.compute(ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span { name, start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_is_duration_minus_child_covered_interval() {
        let spans = [
            span(APP, 100, 1100, None),
            span("p2p.send", 200, 300, Some(0)),
            span(PRAGMA, 400, 700, Some(0)),
            span(PRAGMA_SAVE, 450, 650, Some(2)),
            // Overlaps the pragma span: the shared 100 ns count once.
            span("coll.barrier", 600, 900, Some(0)),
            // Sticks out past the parent: only the part inside counts.
            span("p2p.recv", 1050, 1300, Some(0)),
        ];
        // Children cover [200,300) ∪ [400,900) ∪ [1050,1100) = 650 of 1000.
        assert_eq!(self_time_ns(&spans, 0), 350);
        // A grandchild is not subtracted twice: pragma's self time only
        // excludes its own child.
        assert_eq!(self_time_ns(&spans, 2), 100);
        assert_eq!(self_time_ns(&spans, 1), 100);
    }

    #[test]
    fn incarnations_are_split_where_all_earlier_ranks_have_ended() {
        let mut job = JobTrace::new(7, Side::C3);
        job.start_ns = 0;
        job.end_ns = 1_000_000;
        {
            let mut ranks = job.ranks.lock().unwrap();
            // Incarnation 1: ranks overlap in [100k, 400k).
            ranks.push(RankTrace { rank: 1, spans: vec![span(APP, 150_000, 400_000, None)] });
            ranks.push(RankTrace { rank: 0, spans: vec![span(APP, 100_000, 300_000, None)] });
            // Incarnation 2: [500k, 900k), only one rank got as far as the app.
            ranks.push(RankTrace { rank: 0, spans: vec![span(APP, 500_000, 900_000, None)] });
        }
        let l = job.layers(2);
        assert_eq!(l.incarnations, 2);
        // 1 ms of job, 0.3 + 0.4 ms inside the application.
        assert!((l.relaunch_ms - 0.3).abs() < 1e-9, "{l:?}");
        // compute = (250k + 200k + 400k) ns over 2 ranks.
        assert!((l.compute_ms - 0.425).abs() < 1e-9, "{l:?}");
    }
}
