//! The scenario-engine matrix: every registered scenario must record, and
//! its recording must replay — Theorem 1 as a property of the *whole
//! registry*, not just the two paper case studies.
//!
//! For each scenario:
//!
//! * the production run records without error and makes virtual-time
//!   progress;
//! * the lockstep replay commits exactly the production execution up to the
//!   comparison frontier (skipped for scenarios whose fault schedule
//!   restarts a node — a restart discards the pre-crash log, DESIGN.md §7);
//! * two scripted debug sessions over the same recording produce
//!   byte-identical transcripts.

use defined::core::ls::first_divergence;
use defined::core::recorder::trim_log;
use defined::scenario::registry;

const SCRIPT: &str = "where\nstepg 3\nwhere\nstep 5\nlog 0 3\nrun\nwhere\n";

#[test]
fn every_scenario_records_and_replays() {
    for scn in registry() {
        let run = scn.record_run().unwrap_or_else(|e| panic!("{}: record failed: {e}", scn.name));
        assert!(run.n_groups >= 5, "{}: only {} groups completed", scn.name, run.n_groups);

        if !scn.has_restart() {
            let ls_logs = scn
                .replay_logs_sharded(&run.bytes, 1)
                .unwrap_or_else(|e| panic!("{}: replay failed: {e}", scn.name));
            let div = first_divergence(&run.logs, &ls_logs, run.upto);
            assert!(div.is_none(), "{}: production/replay divergence: {div:?}", scn.name);
        }

        let t1 = scn
            .debug_transcript_sharded(&run.bytes, SCRIPT, 1)
            .unwrap_or_else(|e| panic!("{}: debug failed: {e}", scn.name));
        let t2 = scn.debug_transcript_sharded(&run.bytes, SCRIPT, 1).expect("second debug run");
        assert_eq!(t1, t2, "{}: repeated debug transcripts diverged", scn.name);
        assert!(!t1.is_empty(), "{}: empty transcript", scn.name);
    }
}

#[test]
fn every_scenario_survives_a_store_round_trip() {
    // The on-disk store is a second serialisation of the same recording:
    // for every registered scenario, streaming the run into a store and
    // debugging from the file must be indistinguishable from debugging the
    // raw recording bytes, and `verify` must pass against the stored
    // commit logs (skipped for restart scenarios, whose production logs
    // are not replay-equivalent past the restart — DESIGN.md §7).
    for scn in registry() {
        let path = std::env::temp_dir().join(format!("defined-matrix-{}.drec", scn.name));
        let run = scn
            .record_run_to_store(&path)
            .unwrap_or_else(|e| panic!("{}: streamed record failed: {e}", scn.name));
        let bytes = std::fs::read(&path).expect("store file readable");
        let _ = std::fs::remove_file(&path);
        let info = defined::store::scan(&bytes)
            .unwrap_or_else(|e| panic!("{}: store scan failed: {e}", scn.name));
        assert!(info.finished, "{}: streamed store did not finish", scn.name);
        assert_eq!(info.scenario, scn.name);

        let t_store = scn
            .debug_transcript_sharded(&bytes, SCRIPT, 1)
            .unwrap_or_else(|e| panic!("{}: debug from store failed: {e}", scn.name));
        let t_raw =
            scn.debug_transcript_sharded(&run.bytes, SCRIPT, 1).expect("debug from raw bytes");
        assert_eq!(t_store, t_raw, "{}: store and raw transcripts diverged", scn.name);

        if !scn.has_restart() {
            let report = scn
                .verify_store(&bytes, 1)
                .unwrap_or_else(|e| panic!("{}: verify failed to open: {e}", scn.name));
            assert!(report.ok(), "{}: verify found divergence: {}", scn.name, report.render());
        }
    }
}

#[test]
fn scenario_outcomes_are_seed_independent() {
    // The committed execution — and with it the probed outcome — must be a
    // function of the recorded externals only, never of the jitter seed.
    // Spot-check the three protocols. (Loss-window scenarios are excluded
    // by design: Bernoulli losses are *recorded* external nondeterminism,
    // seed-dependent in production and replayed exactly from the recording.)
    for name in ["rip-blackhole", "bgp-med", "beacon-failover"] {
        let scn = defined::scenario::find(name).expect(name);
        let a = scn.clone().with_seed(1000).record_run().expect("seed 1000");
        let b = scn.with_seed(2000).record_run().expect("seed 2000");
        assert_eq!(a.outcome, b.outcome, "{name}: outcome changed with the seed");
        let upto = a.upto.min(b.upto);
        for (i, (x, y)) in a.logs.iter().zip(b.logs.iter()).enumerate() {
            assert_eq!(
                trim_log(x, upto),
                trim_log(y, upto),
                "{name}: node {i} diverged across seeds"
            );
        }
    }
}

#[test]
fn case_study_outcomes_match_the_paper() {
    // The re-expressed case studies still reproduce the paper's bugs, and
    // the patched variant validates the fix.
    let med = defined::scenario::find("bgp-med").unwrap().record_run().unwrap();
    assert_eq!(med.outcome.as_deref(), Some("n2 selects p2 for 9"), "buggy MED outcome");
    let patched = defined::scenario::find("bgp-med-patched").unwrap().record_run().unwrap();
    assert_eq!(patched.outcome.as_deref(), Some("n2 selects p3 for 9"), "patched outcome");
    let rip = defined::scenario::find("rip-blackhole").unwrap().record_run().unwrap();
    assert_eq!(
        rip.outcome.as_deref(),
        Some("n0 routes 77 via n1"),
        "black hole: R1 still points at dead R2"
    );
    assert_eq!(rip.n_mutes, 1, "R2's death cut recorded");
}
