//! Shard determinism: splitting a single replay across worker shards is
//! invisible in every observable output.
//!
//! `ShardedWaves` block-partitions each lockstep wave over the nodes and
//! re-merges the shards' emissions in deterministic `(OrderKey, to)` order,
//! so the shard count — like the farm's job count — is a pure *cost* knob.
//! These tests hold that contract end to end through the scenario engine:
//!
//! * commit logs are byte-identical for shards ∈ {1, 2, 4} on all three
//!   protocols, including a crash-fault scenario whose death cut must be
//!   applied per destination shard;
//! * scripted debug transcripts are byte-identical for every shard count;
//! * checkpoint-seeded farm searches (`--jobs 2 --shards 2`) render the
//!   same explore/bisect reports as the fully serial engines.
//!
//! Everything here runs on any host: a 1-CPU machine still exercises the
//! real cross-thread exchange because `ShardedWaves` spawns its scoped
//! workers regardless of the core count.

use defined::core::FarmConfig;
use defined::scenario;

/// One scenario per protocol, plus a second crash-fault case: RIP with a
/// crashed next hop (death cut), OSPF under a recorded loss window, BGP's
/// MED case study, and an OSPF hub crash on a Barabási–Albert topology.
const SCENARIOS: [&str; 4] = ["rip-blackhole", "ospf-loss-window", "bgp-med", "ba-hub-crash"];

const SCRIPT: &str = "where\nstepg 3\nwhere\nstep 5\ninspect 0\nlog 0 3\nrun\nwhere\n";

#[test]
fn commit_logs_are_shard_count_invariant() {
    for name in SCENARIOS {
        let scn = scenario::find(name).expect("registry scenario");
        let run = scn.record_run().expect("records");
        let serial = scn.replay_logs_sharded(&run.bytes, 1).expect("serial replay");
        for shards in [2usize, 4] {
            let sharded =
                scn.replay_logs_sharded(&run.bytes, shards).expect("sharded replay");
            assert_eq!(sharded, serial, "{name}: commit logs diverge at shards={shards}");
        }
    }
}

#[test]
fn debug_transcripts_are_shard_count_invariant() {
    for name in SCENARIOS {
        let scn = scenario::find(name).expect("registry scenario");
        let run = scn.record_run().expect("records");
        let reference = scn
            .debug_transcript_sharded(&run.bytes, SCRIPT, 1)
            .expect("serial transcript");
        assert!(!reference.is_empty(), "{name}: empty transcript");
        for shards in [2usize, 4] {
            let transcript = scn
                .debug_transcript_sharded(&run.bytes, SCRIPT, shards)
                .expect("sharded transcript");
            assert_eq!(transcript, reference, "{name}: transcript diverges at shards={shards}");
        }
    }
}

/// Checkpoint-seeded farm probes compose with sharding: a farm running
/// `jobs = 2` whose every probe replay is itself split 2-way must render
/// the same explore and bisect reports as the serial engines. This is the
/// `--jobs 2 --shards 2` CLI configuration.
#[test]
fn farm_searches_are_shard_invariant() {
    for name in ["rip-blackhole", "bgp-med"] {
        let scn = scenario::find(name).expect("registry scenario");
        let run = scn.record_run().expect("records");
        let serial = FarmConfig::serial();
        let sharded = FarmConfig::with_jobs(2).with_shards(2);
        assert_eq!(
            scn.explore_run(&run.bytes, 8, &sharded).expect("explores").render(),
            scn.explore_run(&run.bytes, 8, &serial).expect("explores").render(),
            "{name}: explore report varies under --jobs 2 --shards 2"
        );
        assert_eq!(
            scn.bisect_run(&run.bytes, &sharded).expect("bisects").expect("groups").render(),
            scn.bisect_run(&run.bytes, &serial).expect("bisects").expect("groups").render(),
            "{name}: bisect report varies under --jobs 2 --shards 2"
        );
    }
}

/// The churn-adaptive capture policy (`--ckpt-interval auto`) is a pure
/// cost knob like the shard count: the recording it produces is
/// byte-identical to the fixed-interval one, and every sharded replay of it
/// matches the serial fixed-interval commit logs.
#[test]
fn adaptive_capture_is_shard_count_invariant() {
    use defined::core::config::CapturePolicy;
    let fixed = scenario::find("ospf-loss-window").expect("registry scenario");
    let auto = fixed.clone().with_capture(CapturePolicy::auto());
    let run = auto.record_run().expect("records under adaptive capture");
    let run_fixed = fixed.record_run().expect("records under fixed capture");
    assert_eq!(run.bytes, run_fixed.bytes, "capture policy leaked into the recording");
    let serial = fixed.replay_logs_sharded(&run_fixed.bytes, 1).expect("serial replay");
    assert_eq!(
        auto.replay_logs_sharded(&run.bytes, 1).expect("adaptive replay"),
        serial,
        "capture policy changed the committed logs"
    );
    for shards in [2usize, 4] {
        let sharded = auto.replay_logs_sharded(&run.bytes, shards).expect("sharded replay");
        assert_eq!(sharded, serial, "adaptive capture diverges at shards={shards}");
    }
}

/// `--shards 0` (auto) resolves to the available core count and still
/// reproduces the serial logs — the resolution path used by the CLI.
#[test]
fn auto_shard_count_reproduces_serial_logs() {
    let scn = scenario::find("ospf-loss-window").expect("registry scenario");
    let run = scn.record_run().expect("records");
    let serial = scn.replay_logs_sharded(&run.bytes, 1).expect("serial replay");
    let auto = scn.replay_logs_sharded(&run.bytes, 0).expect("auto-sharded replay");
    assert_eq!(auto, serial, "auto shard count diverges from serial");
}
