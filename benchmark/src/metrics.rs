//! The metric tables. `BENCHMARK.json` at the repo root repeats names,
//! units, directions and bounds; `tests/quick.rs` fails when the two differ.

/// A metric a user of the system would see; lower is better for all four.
/// Every bound is the largest the driver accepts: the same code measured an
/// hour apart on this host differed by up to 25% (see README, calibration).
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "job_wall_ms", unit: "ms", bound: 0.25 },
    EndToEnd { name: "raw_wall_ms", unit: "ms", bound: 0.25 },
    EndToEnd { name: "job_cpu_ms", unit: "ms", bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", bound: 0.25 },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric of one layer (layer = crate, the prefix of the name).
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// For counts: did the value repeat exactly, on every workload, within
    /// and across three traced runs? Only an exact count may carry a later
    /// claim; a change that makes one vary flips its mark. `None` for
    /// timings and ratios.
    pub exact: Option<bool>,
}

const fn time(name: &'static str, unit: &'static str) -> Layer {
    Layer { name, unit, better: Better::Lower, exact: None }
}

const fn rate(name: &'static str) -> Layer {
    Layer { name, unit: "MB/s", better: Better::Higher, exact: None }
}

const fn count(name: &'static str, unit: &'static str, exact: bool) -> Layer {
    Layer { name, unit, better: Better::Lower, exact: Some(exact) }
}

pub const PER_LAYER: [Layer; 39] = [
    time("npb.compute_ms", "ms"),
    time("mpisim.p2p_call_ms", "ms"),
    time("mpisim.coll_call_ms", "ms"),
    time("core.p2p_call_ms", "ms"),
    time("core.coll_call_ms", "ms"),
    time("core.pragma_call_ms", "ms"),
    time("statesave.app_encode_ms", "ms"),
    time("core.relaunch_ms", "ms"),
    time("core.restore_ms", "ms"),
    time("mpisim.launch_us", "us"),
    time("mpisim.allreduce_us", "us"),
    time("core.allreduce_us", "us"),
    time("mpisim.pingpong_ns", "ns"),
    time("core.pingpong_ns", "ns"),
    rate("statesave.encode_mb_s"),
    rate("statesave.decode_mb_s"),
    rate("statesave.store_write_mb_s"),
    rate("statesave.store_read_mb_s"),
    rate("statesave.dirty_scan_mb_s"),
    rate("statesave.delta_apply_mb_s"),
    count("core.restarts", "count", true),
    count("mpisim.raw_msgs", "count", true),
    count("mpisim.raw_bytes", "bytes", true),
    count("mpisim.makespan_ms", "ms", true),
    count("core.wire_msgs", "count", true),
    count("core.wire_bytes", "bytes", true),
    count("core.msgs_sent", "count", true),
    count("core.ci_sent", "count", true),
    count("core.late_logged", "count", true),
    count("core.late_bytes", "bytes", true),
    count("core.replayed_recvs", "count", true),
    count("core.suppressed_sends", "count", true),
    count("core.ckpts_committed", "count", true),
    count("statesave.bytes_written", "bytes", true),
    count("statesave.line_bytes", "bytes", true),
    count("statesave.bases", "count", true),
    count("statesave.deltas", "count", true),
    time("core.overhead_ratio", "ratio"),
    time("trace.overhead_pct", "%"),
];
