//! The metric tables: every name the benchmark prints, with its unit and
//! direction, in the order `BENCHMARK.json` lists them. A unit test holds
//! the two in step.

use std::collections::BTreeMap;

/// Measured values by metric name.
pub type Values = BTreeMap<String, f64>;

/// One metric's declaration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when larger is better.
    pub higher: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end only; per-layer metrics carry no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric { name, unit, higher: false, bound }
}

const fn lo(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, higher: false, bound: 0.0 }
}

const fn hi(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, higher: true, bound: 0.0 }
}

/// What a user of `defined-dbg` sees. Every workload reports every one.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", 0.25),
    e2e("record_wall_s", "s", 0.15),
    e2e("replay_wall_s", "s", 0.08),
    e2e("debug_step_p50_us", "us", 0.1),
    e2e("debug_step_p99_us", "us", 0.1),
    e2e("debug_rstep_p50_us", "us", 0.15),
    e2e("debug_rstep_p99_us", "us", 0.2),
    e2e("debug_goto_p50_us", "us", 0.2),
    e2e("explore_wall_s", "s", 0.05),
    e2e("bisect_wall_s", "s", 0.1),
    e2e("store_record_wall_s", "s", 0.15),
    e2e("verify_wall_s", "s", 0.12),
    e2e("store_bytes", "bytes", 0.05),
    e2e("peak_rss_mb", "MB", 0.25),
];

/// Single-layer metrics, reported by traced runs. A metric a workload does
/// not exercise (another protocol's `ns_per_event`, the scale probe off
/// `rb-churn`) reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    lo("topology.build_s", "s"),
    lo("scenario.parse_validate_s", "s"),
    lo("netsim.null_ns_per_event", "ns"),
    lo("netsim.baseline_wall_s", "s"),
    lo("netsim.baseline_events", "count"),
    lo("routing.rip.ns_per_event", "ns"),
    lo("routing.ospf.ns_per_event", "ns"),
    lo("routing.bgp.ns_per_event", "ns"),
    lo("routing.snapshot_encode_ns", "ns"),
    lo("routing.snapshot_decode_ns", "ns"),
    lo("routing.snapshot_bytes", "bytes"),
    lo("rb.rollbacks", "count"),
    lo("rb.rolled_entries", "count"),
    hi("rb.jumps", "count"),
    hi("rb.fast_path", "count"),
    lo("rb.unsend_msgs", "count"),
    hi("rb.useful_ratio", "ratio"),
    lo("rb.redeliver_s", "s"),
    lo("rb.other_s", "s"),
    lo("rb.overhead_x", "ratio"),
    lo("rb.scale_growth_x", "ratio"),
    lo("rb.scale_base_wall_s", "s"),
    lo("ckpt.capture_s", "s"),
    lo("ckpt.captures", "count"),
    lo("ckpt.restore_s", "s"),
    lo("ckpt.restores", "count"),
    hi("ckpt.pool.hits", "count"),
    lo("ckpt.pool.misses", "count"),
    lo("ckpt.mi.capture_ns", "ns"),
    lo("ckpt.mi.restore_ns", "ns"),
    lo("ckpt.mi.physical_bytes", "bytes"),
    hi("ckpt.mi.dedup_ratio", "ratio"),
    lo("timeline.record_us", "us"),
    lo("timeline.restore_us", "us"),
    lo("ls.image_capture_us", "us"),
    lo("ls.image_restore_us", "us"),
    lo("ls.image_bytes", "bytes"),
    lo("ls.build_s", "s"),
    lo("ls.run_s", "s"),
    lo("ls.delivered", "count"),
    hi("ls.events_per_s", "1/s"),
    lo("ls.wave_s", "s"),
    lo("ls.run_shards2_s", "s"),
    hi("ls.shard_speedup_x", "ratio"),
    lo("wire.rec_bytes", "bytes"),
    hi("wire.encode_mb_per_s", "MB/s"),
    hi("wire.decode_mb_per_s", "MB/s"),
    lo("store.write_mem_s", "s"),
    lo("store.write_file_s", "s"),
    lo("store.scan_s", "s"),
    lo("store.open_s", "s"),
    lo("store.fsyncs", "count"),
    lo("store.sync_points", "count"),
    lo("store.bytes_written", "bytes"),
    lo("store.stream_overhead_s", "s"),
    lo("store.expansion_x", "ratio"),
    lo("farm.explore_serial_s", "s"),
    lo("farm.explore_jobs2_s", "s"),
    hi("farm.speedup_x", "ratio"),
    hi("farm.replays_per_s", "1/s"),
    lo("farm.bisect_probes", "count"),
    lo("farm.goto_s", "s"),
    hi("farm.probe_seeded", "count"),
    hi("farm.probe_continued", "count"),
    lo("debug.step_slow_share", "ratio"),
    lo("debug.rewind_replayed_mean", "count"),
    lo("debug.timeline_physical_mb", "MB"),
    lo("obs.trace_overhead_pct", "%"),
    lo("record.unattributed_share", "ratio"),
    lo("replay.unattributed_share", "ratio"),
    lo("store_record.unattributed_share", "ratio"),
    lo("verify.unattributed_share", "ratio"),
];

/// Per-layer counts that must repeat exactly between two runs of one seed
/// (the `rb.*` / `ls.*` / `store.*` counts `compare` checks).
pub const EXACT_COUNTS: &[&str] = &[
    "netsim.baseline_events",
    "rb.rollbacks",
    "rb.rolled_entries",
    "rb.jumps",
    "rb.fast_path",
    "rb.unsend_msgs",
    "ls.delivered",
    "wire.rec_bytes",
    "store.fsyncs",
    "store.sync_points",
    "store.bytes_written",
    "farm.bisect_probes",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(EXACT_COUNTS.iter().all(|n| PER_LAYER.iter().any(|m| m.name == *n)));
    }
}
