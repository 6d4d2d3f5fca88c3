//! Farm determinism: the parallel search engines are byte-equivalent to
//! the serial ones, for every worker count, on all three protocols.
//!
//! The replay farm's whole contract is that `jobs` (and the seeding
//! checkpoints) change only *cost*: a parallel `ordering_survey` must
//! yield the identical `(salt, final state)` — the earliest match in the
//! salt sequence, not the first to finish — and parallel bisection the
//! identical `BisectReport`, across jobs ∈ {1, 2, 8}. The salt set itself
//! is property-swept so the equivalence is not an artifact of one sweep.

use defined::core::bisect::{first_bad_event, first_bad_group, BisectReport};
use defined::core::explore::ordering_survey;
use defined::core::ls::LockstepNet;
use defined::core::order::debug_digest;
use defined::core::{DefinedConfig, FarmConfig};
use defined::netsim::NodeId;
use defined::routing::bgp::BgpProcess;
use defined::routing::ospf::OspfProcess;
use defined::routing::rip::RipProcess;
use defined::routing::ControlPlane;
use defined::scenario::{self, Scenario};
use defined::topology::Graph;
use proptest::prelude::*;

const JOBS: [usize; 3] = [1, 2, 8];

/// Record a registry scenario and hand back its graph + recording bytes.
fn recorded(name: &str) -> (Scenario, Graph, Vec<u8>) {
    let scn = scenario::find(name).expect("registry scenario");
    let g = scn.topology.build();
    let run = scn.record_run().expect("records");
    (scn, g, run.bytes)
}

/// Asserts explore + bisect farm results are invariant in the job count
/// for one protocol instantiation.
fn check_invariance<P, S, F, B>(
    g: &Graph,
    rec: &defined::core::recorder::Recording<P::Ext>,
    spawn: S,
    predicate: F,
    bad: B,
    salts: &[u64],
    what: &str,
) where
    P: ControlPlane,
    P::Msg: defined::core::wire::Wire,
    P::Ext: defined::core::wire::Wire + Sync,
    S: Fn(NodeId) -> P + Sync + Copy,
    F: Fn(&LockstepNet<P>) -> bool + Sync + Copy,
    B: Fn(&LockstepNet<P>) -> bool + Sync + Copy,
{
    let cfg = DefinedConfig::default();
    let serial = FarmConfig::serial();
    // One sweep answers both questions: the earliest salt satisfying the
    // predicate with its final execution, and how many of the salts do.
    let explore = |farm: &FarmConfig| {
        let project = |ls: &LockstepNet<P>| predicate(ls).then(|| debug_digest(&ls.logs()));
        let hits: Vec<Option<u64>> =
            ordering_survey(g, &cfg, rec, spawn, salts.iter().copied(), project, farm)
                .into_iter()
                .map(|h| h.expect("no probe panics"))
                .collect();
        let earliest = hits.iter().position(Option::is_some).map(|i| (salts[i], hits[i]));
        (earliest, (hits.iter().flatten().count(), hits.len()))
    };
    let (reference, ref_sense) = explore(&serial);
    let ref_bisect: Option<BisectReport> = first_bad_group(g, &cfg, rec, spawn, bad, &serial);
    let ref_event = ref_bisect.and_then(|r| {
        first_bad_event(g, &cfg, rec, spawn, r.first_bad_group, bad, &serial).map(|(ev, _)| ev)
    });
    for jobs in JOBS {
        let farm = FarmConfig { jobs, speculation: 1, ..FarmConfig::serial() };
        let (earliest, sense) = explore(&farm);
        assert_eq!(earliest, reference, "{what}: explore result varies at jobs={jobs}");
        assert_eq!(sense, ref_sense, "{what}: sensitivity varies at jobs={jobs}");
        assert_eq!(
            first_bad_group(g, &cfg, rec, spawn, bad, &farm),
            ref_bisect,
            "{what}: bisect report varies at jobs={jobs}"
        );
        if let Some(r) = ref_bisect {
            let ev = first_bad_event(g, &cfg, rec, spawn, r.first_bad_group, bad, &farm)
                .map(|(ev, _)| ev);
            assert_eq!(ev, ref_event, "{what}: culprit event varies at jobs={jobs}");
        }
        // Speculative rounds must still land on the same group (replay
        // counts legitimately differ from the serial schedule).
        let wide = FarmConfig { jobs, speculation: 3, ..FarmConfig::serial() };
        assert_eq!(
            first_bad_group(g, &cfg, rec, spawn, bad, &wide).map(|r| r.first_bad_group),
            ref_bisect.map(|r| r.first_bad_group),
            "{what}: speculative bisection diverged at jobs={jobs}"
        );
    }
}

fn rip_case(salts: &[u64]) {
    let (scn, g, bytes) = recorded("rip-blackhole");
    let rec = defined::core::recorder::Recording::from_bytes(&bytes).expect("decodes");
    let procs = match scn.protocol {
        scenario::ProtocolSpec::Rip { mode } => scenario::rip_processes(&g, mode),
        _ => unreachable!("rip-blackhole is RIP"),
    };
    let spawn = |id: NodeId| -> RipProcess { procs[id.index()].clone() };
    // Outcome-flavoured predicates: where does n0 route the prefix?
    let via_backup = |ls: &LockstepNet<RipProcess>| {
        ls.control_plane(NodeId(0)).route(77).and_then(|r| r.next_hop) == Some(NodeId(2))
    };
    let installed = |ls: &LockstepNet<RipProcess>| ls.control_plane(NodeId(0)).route(77).is_some();
    check_invariance(&g, &rec, spawn, via_backup, installed, salts, "rip");
}

fn bgp_case(salts: &[u64]) {
    let (scn, g, bytes) = recorded("bgp-med");
    let rec = defined::core::recorder::Recording::from_bytes(&bytes).expect("decodes");
    let procs = match scn.protocol {
        scenario::ProtocolSpec::Bgp { mode } => {
            let roles = scn.topology.fig4_roles().expect("fig4");
            scenario::bgp_fig4_processes(&roles, mode)
        }
        _ => unreachable!("bgp-med is BGP"),
    };
    let spawn = |id: NodeId| -> BgpProcess { procs[id.index()].clone() };
    let selects_p3 = |ls: &LockstepNet<BgpProcess>| {
        ls.control_plane(NodeId(2)).best_path(9).map(|p| p.route_id) == Some(3)
    };
    let has_path =
        |ls: &LockstepNet<BgpProcess>| ls.control_plane(NodeId(2)).best_path(9).is_some();
    check_invariance(&g, &rec, spawn, selects_p3, has_path, salts, "bgp");
}

fn ospf_case(salts: &[u64]) {
    let (scn, g, bytes) = recorded("ospf-loss-window");
    let rec = defined::core::recorder::Recording::from_bytes(&bytes).expect("decodes");
    assert!(matches!(scn.protocol, scenario::ProtocolSpec::Ospf));
    let procs = scenario::ospf_processes(&g);
    let spawn = |id: NodeId| -> OspfProcess { procs[id.index()].clone() };
    let n = g.node_count();
    let converged = move |ls: &LockstepNet<OspfProcess>| {
        ls.control_plane(NodeId(2)).routing_table().len() >= n - 1
    };
    // Exploration predicate: some node's table digest, order-sensitive in
    // principle; any predicate works — invariance is what is asserted.
    let odd_digest = |ls: &LockstepNet<OspfProcess>| {
        debug_digest(ls.control_plane(NodeId(1))) % 2 == 1
    };
    check_invariance(&g, &rec, spawn, odd_digest, converged, salts, "ospf");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3, .. ProptestConfig::default() })]

    /// Random salt sets: farm answers are job-count invariant on all three
    /// protocols whatever the swept sequence looks like.
    #[test]
    fn farm_is_job_count_invariant(base in 0u64..1000, n in 4usize..10) {
        let salts: Vec<u64> = (0..n as u64).map(|i| base + 3 * i).collect();
        rip_case(&salts);
        bgp_case(&salts);
        ospf_case(&salts);
    }
}

/// The canonical sweep the CLI uses (salts 0..N) — pinned outside the
/// property loop so a regression names itself clearly.
#[test]
fn canonical_sweep_is_invariant() {
    let salts: Vec<u64> = (0..12).collect();
    rip_case(&salts);
    bgp_case(&salts);
    ospf_case(&salts);
}

/// Adaptive capture composes with the farm: a recording taken under
/// `--ckpt-interval auto` yields explore and bisect reports identical to
/// the fixed-interval serial reference, at every job count.
#[test]
fn adaptive_capture_reports_are_job_count_invariant() {
    use defined::core::config::CapturePolicy;
    let fixed = scenario::find("rip-blackhole").expect("registry scenario");
    let auto = fixed.clone().with_capture(CapturePolicy::auto());
    let run = auto.record_run().expect("records under adaptive capture");
    let serial = FarmConfig::serial();
    let explore_ref = fixed.explore_run(&run.bytes, 8, &serial).expect("explores").render();
    let bisect_ref =
        fixed.bisect_run(&run.bytes, &serial).expect("bisects").expect("has groups").render();
    for jobs in [1usize, 2] {
        let farm = FarmConfig::with_jobs(jobs);
        assert_eq!(
            auto.explore_run(&run.bytes, 8, &farm).expect("explores").render(),
            explore_ref,
            "adaptive capture changed the explore report at jobs={jobs}"
        );
        assert_eq!(
            auto.bisect_run(&run.bytes, &farm).expect("bisects").expect("has groups").render(),
            bisect_ref,
            "adaptive capture changed the bisect report at jobs={jobs}"
        );
    }
}

/// End-to-end through the scenario engine: `explore_run` / `bisect_run`
/// render identical reports for jobs ∈ {1, 2, 8}.
#[test]
fn scenario_engine_reports_are_job_count_invariant() {
    for name in ["rip-blackhole", "bgp-med"] {
        let scn = scenario::find(name).expect("registry scenario");
        let run = scn.record_run().expect("records");
        let serial = FarmConfig::serial();
        let explore_ref = scn.explore_run(&run.bytes, 8, &serial).expect("explores").render();
        let bisect_ref = scn
            .bisect_run(&run.bytes, &serial)
            .expect("bisects")
            .expect("has groups")
            .render();
        for jobs in [2usize, 8] {
            let farm = FarmConfig::with_jobs(jobs);
            assert_eq!(
                scn.explore_run(&run.bytes, 8, &farm).expect("explores").render(),
                explore_ref,
                "{name}: explore report varies at jobs={jobs}"
            );
            assert_eq!(
                scn.bisect_run(&run.bytes, &farm).expect("bisects").expect("has groups").render(),
                bisect_ref,
                "{name}: bisect report varies at jobs={jobs}"
            );
        }
    }
}
