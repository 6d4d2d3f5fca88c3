//! Observability non-perturbation: turning the obs substrate on, off, or
//! up (tracing) is invisible in every replay-relevant output.
//!
//! This is the engineering half of Ronsse's re-run invariant — observing
//! an execution must not change it. The obs layer guarantees it by
//! construction (wall-clock reads live only inside `defined-obs`, metrics
//! are write-only from the hot path, switches gate only *recording*), and
//! these tests hold the whole stack to that contract:
//!
//! * recordings, commit logs, debug transcripts, explore/bisect farm
//!   reports, the streamed on-disk `.drec` store (byte-for-byte), and its
//!   verify report are identical with collection enabled, disabled, and
//!   with Chrome-trace capture running, across shards ∈ {1, 2} and farm
//!   jobs ∈ {1, 2} (the `--profile`/`--trace-out` CLI paths);
//! * a disabled registry records nothing at all;
//! * the log2 histogram buckets and cross-thread snapshot merging the
//!   profile report is built on behave as specified (complementing the
//!   unit suites inside `crates/obs`).
//!
//! The compiled-out leg of the contract is the workspace `obs-off`
//! feature: building with it erases every call site, so there is nothing
//! left to diverge (CI builds it; it cannot be toggled from a test).
//!
//! Tests in this binary serialise on one lock: the obs switches are
//! process-global, so a test flipping them must not interleave with the
//! others.

use defined::core::config::CapturePolicy;
use defined::core::recorder::CommitRecord;
use defined::core::{FarmConfig, RbMetrics};
use defined::obs;
use defined::scenario;
use std::sync::{Mutex, MutexGuard};

fn serial_guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const SCRIPT: &str = "where\nstepg 3\nwhere\nstep 5\ninspect 0\nrun\nwhere\n";

/// Every replay-relevant artifact one scenario produces end to end.
#[derive(PartialEq, Debug)]
struct Artifacts {
    recording: Vec<u8>,
    production_logs: Vec<Vec<CommitRecord>>,
    replay_logs: Vec<Vec<CommitRecord>>,
    transcript: String,
    explore: String,
    bisect: String,
    /// The streamed `.drec` file, byte for byte — obs must not perturb
    /// what reaches the disk, not just what replays from it.
    store_bytes: Vec<u8>,
    verify: String,
}

fn run_workflow(name: &str, shards: usize, jobs: usize) -> Artifacts {
    let scn = scenario::find(name).expect("registry scenario");
    let run = scn.record_run().expect("records");
    let replay_logs = scn.replay_logs_sharded(&run.bytes, shards).expect("replays");
    let transcript =
        scn.debug_transcript_sharded(&run.bytes, SCRIPT, shards).expect("debugs");
    let farm = FarmConfig::with_jobs(jobs).with_shards(shards);
    let explore = scn.explore_run(&run.bytes, 6, &farm).expect("explores").render();
    let bisect =
        scn.bisect_run(&run.bytes, &farm).expect("bisects").expect("has groups").render();
    let path = std::env::temp_dir().join(format!("defined-obs-{name}-{shards}-{jobs}.drec"));
    let _ = scn.record_run_to_store(&path).expect("streamed record");
    let store_bytes = std::fs::read(&path).expect("store file readable");
    let _ = std::fs::remove_file(&path);
    let verify = scn.verify_store(&store_bytes, shards).expect("verify opens").render();
    Artifacts {
        recording: run.bytes,
        production_logs: run.logs,
        replay_logs,
        transcript,
        explore,
        bisect,
        store_bytes,
        verify,
    }
}

/// A production run whose rollbacks have prefixes to replay and tails to
/// jump over — `rip-blackhole` as registered captures before every
/// delivery, so its rollbacks restore *at* the straggler and the
/// state-only replay, the jump probe and their obs call sites never run.
fn record_with_deep_rollbacks() -> (Vec<u8>, Vec<Vec<CommitRecord>>, RbMetrics) {
    let scn = scenario::find("brite-race").expect("registry scenario");
    let run = scn.with_capture(CapturePolicy::auto()).record_run().expect("records");
    assert!(run.metrics.jumps > 0 && run.metrics.unsend_msgs > 0, "{:?}", run.metrics);
    (run.bytes, run.logs, run.metrics)
}

/// The headline contract: enabled vs disabled vs tracing, across shard
/// and job counts, on a scenario with rollbacks, drops, and a death cut.
#[test]
fn workflow_outputs_are_identical_with_obs_on_off_and_tracing() {
    let _serial = serial_guard();
    obs::set_enabled(true);
    let on = record_with_deep_rollbacks();
    obs::set_tracing(true);
    let traced = record_with_deep_rollbacks();
    obs::set_tracing(false);
    let _ = obs::take_events();
    obs::set_enabled(false);
    let off = record_with_deep_rollbacks();
    obs::set_enabled(true);
    assert!(on == off, "obs on vs off diverged on the deep-rollback record");
    assert!(on == traced, "tracing perturbed the deep-rollback record");
    for shards in [1usize, 2] {
        for jobs in [1usize, 2] {
            obs::set_enabled(true);
            let on = run_workflow("rip-blackhole", shards, jobs);

            obs::set_tracing(true);
            let traced = run_workflow("rip-blackhole", shards, jobs);
            obs::set_tracing(false);
            let _ = obs::take_events(); // Drop the capture buffer.

            obs::set_enabled(false);
            let off = run_workflow("rip-blackhole", shards, jobs);
            obs::set_enabled(true);

            assert_eq!(on, off, "obs on vs off diverged (shards={shards}, jobs={jobs})");
            assert_eq!(on, traced, "tracing perturbed the run (shards={shards}, jobs={jobs})");
        }
    }
}

/// A disabled registry records nothing: counters, spans, histograms, and
/// the trace buffer all stay put while a full workflow runs.
#[test]
fn disabled_collection_records_nothing() {
    let _serial = serial_guard();
    obs::set_enabled(false);
    let before = obs::global().snapshot();
    let _ = run_workflow("rip-blackhole", 2, 2);
    let _ = record_with_deep_rollbacks();
    let after = obs::global().snapshot();
    obs::set_enabled(true);
    for key in [
        "ls.delivered",
        "ls.waves",
        "wire.bytes_encoded",
        "gvt.samples",
        "ckpt.pool.bytes_deduped",
        "store.bytes_written",
        "store.fsync",
        "store.drain.frames",
        "store.drain.scanned",
    ] {
        assert_eq!(
            before.counter(key),
            after.counter(key),
            "counter {key} moved while collection was off"
        );
    }
    // The call sites still register their (zeroed) cells — only the
    // recorded counts must stay put.
    for span in
        ["ls.wave", "store.drain", "store.fsync", "store.finish", "rb.redeliver", "rb.probe"]
    {
        assert_eq!(
            before.spans.get(span).map_or(0, |s| s.count),
            after.spans.get(span).map_or(0, |s| s.count),
            "span {span} recorded while collection was off"
        );
    }
    for hist in ["rb.prefix_len", "rb.tail_len"] {
        assert_eq!(
            before.histograms.get(hist).map_or(0, |h| h.count),
            after.histograms.get(hist).map_or(0, |h| h.count),
            "histogram {hist} recorded while collection was off"
        );
    }
}

/// An enabled run populates the metrics every subsystem contributes —
/// the positive control for the test above.
#[test]
fn enabled_collection_covers_the_whole_stack() {
    let _serial = serial_guard();
    obs::set_enabled(true);
    let before = obs::global().snapshot();
    let _ = run_workflow("rip-blackhole", 2, 2);
    let after = obs::global().snapshot();
    let deep = record_with_deep_rollbacks().2;
    let after_deep = obs::global().snapshot();
    for key in [
        "ls.waves",
        "ls.delivered",
        "farm.jobs_claimed",
        "ckpt.captures",
        "ckpt.pool.misses",
        "gvt.samples",
        "wire.bytes_encoded",
        "wire.bytes_decoded",
        "store.bytes_written",
        "store.fsync",
        "store.sync_points",
        "store.drain.frames",
        "store.drain.scanned",
    ] {
        assert!(
            after.counter(key) > before.counter(key),
            "counter {key} did not advance over a full workflow"
        );
    }
    let spans = |snap: &obs::Snapshot, name: &str| snap.spans.get(name).map_or(0, |s| s.count);
    for span in ["ls.wave", "store.drain", "store.fsync", "store.finish", "rb.redeliver"] {
        assert!(spans(&after, span) > spans(&before, span), "span {span} did not record");
    }
    // The store write path's spans and counters tell one story: every
    // fsync is timed, every advancing drain ends in a sync point (the one
    // other sync point opens the file), and a streamed record finishes once.
    let delta = |name: &str| after.counter(name) - before.counter(name);
    let records = spans(&after, "store.finish") - spans(&before, "store.finish");
    assert_eq!(records, 1, "run_workflow streams one record");
    assert_eq!(spans(&after, "store.fsync") - spans(&before, "store.fsync"), delta("store.fsync"));
    assert_eq!(
        spans(&after, "store.drain") - spans(&before, "store.drain"),
        delta("store.sync_points") - records,
    );
    // The page-pool dedup counters move together: every hit saves a page's
    // worth of bytes, so one cannot advance without the other. (Whether any
    // hit fires depends on the scenario's state size — rip-blackhole's
    // single-page node states may never dedup — so only consistency is
    // pinned here; `tests/checkpoint_model.rs` proves the sharing itself.)
    let hits = after.counter("ckpt.pool.hits") - before.counter("ckpt.pool.hits");
    let deduped =
        after.counter("ckpt.pool.bytes_deduped") - before.counter("ckpt.pool.bytes_deduped");
    assert_eq!(hits > 0, deduped > 0, "pool hits ({hits}) vs bytes_deduped ({deduped}) diverge");
    let hist = |snap: &obs::Snapshot, name: &str| snap.histograms.get(name).map_or(0, |h| h.count);
    assert!(
        hist(&after, "ls.wave_events") > hist(&before, "ls.wave_events"),
        "histogram ls.wave_events did not record"
    );
    // The rollback path's shape on the deep-rollback record: every
    // rollback is one redelivery span; every insert-rollback records its
    // prefix and its tail once; a straggler with a prefix before it and a
    // tail behind it is bracketed by two probes, and only a probed
    // straggler can jump.
    let spans_deep = |name: &str| spans(&after_deep, name) - spans(&after, name);
    let hist_deep = |name: &str| hist(&after_deep, name) - hist(&after, name);
    assert_eq!(spans_deep("rb.redeliver"), deep.rollbacks);
    let inserts = hist_deep("rb.prefix_len");
    assert!(0 < inserts && inserts <= deep.rollbacks, "{inserts} of {}", deep.rollbacks);
    assert_eq!(inserts, hist_deep("rb.tail_len"));
    let probes = spans_deep("rb.probe");
    assert_eq!(probes % 2, 0, "probes come in pre/post pairs");
    assert!(probes / 2 <= inserts, "{probes} probes over {inserts} insert-rollbacks");
    assert!(deep.jumps <= probes / 2, "a jump without a probe pair");
    assert_eq!(after_deep.counter("rb.jump") - after.counter("rb.jump"), deep.jumps);
    // The histograms sum what the counters count: a rollback replays its
    // prefix, the straggler and its tail, except that the straggler is
    // new (and an anti-message rollback records no shape at all).
    let sum = |name: &str| {
        let of = |snap: &obs::Snapshot| snap.histograms.get(name).map_or(0, |h| h.sum);
        of(&after_deep) - of(&after)
    };
    assert!(sum("rb.prefix_len") + sum("rb.tail_len") <= deep.rolled_entries);
    assert!(sum("rb.tail_len") >= deep.jumped_entries);
}

/// Log2 bucketing: zeros land in bucket 0, and each value `v >= 1` lands
/// in the bucket whose floor is the largest power of two `<= v`.
#[test]
fn histogram_bucketing_is_log2_exact() {
    assert_eq!(obs::bucket_index(0), 0);
    for (v, want) in [(1u64, 1usize), (2, 2), (3, 2), (4, 3), (7, 3), (8, 4), (1023, 10)] {
        assert_eq!(obs::bucket_index(v), want, "bucket_index({v})");
        assert!(obs::bucket_floor(obs::bucket_index(v)) <= v);
        assert!(v < obs::bucket_floor(obs::bucket_index(v) + 1));
    }
    assert_eq!(obs::bucket_index(u64::MAX), 64);
}

/// Snapshots taken from registries written by different threads merge to
/// the same totals a single registry would have seen.
#[test]
fn snapshots_merge_across_threads() {
    let _serial = serial_guard();
    obs::set_enabled(true);
    let a = obs::Registry::new();
    let b = obs::Registry::new();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            a.counter("merge.events").add(30);
            a.histogram("merge.sizes").record(16);
        });
        scope.spawn(|| {
            b.counter("merge.events").add(12);
            b.histogram("merge.sizes").record(1024);
            b.histogram("merge.sizes").record(16);
        });
    });
    let mut merged = a.snapshot();
    merged.merge(&b.snapshot());
    assert_eq!(merged.counter("merge.events"), 42);
    let h = merged.histograms.get("merge.sizes").expect("merged histogram");
    assert_eq!(h.count, 3);
    assert_eq!(h.sum, 16 + 1024 + 16);
    assert_eq!(h.buckets.get(&obs::bucket_index(16)), Some(&2));
}
