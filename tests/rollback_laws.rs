//! Laws and counter pins for the rollback path (`crates/core/src/rb.rs`).
//!
//! A rollback has many ways to stay *correct* while quietly doing other
//! work: keep a different wire message alive, unsend one it could have
//! kept, jump where it should have re-executed. Commit logs cannot see
//! that — Theorem 1 holds either way — but the shim's own counters can,
//! and for a fixed scenario and seed they are exact. The jump decision
//! itself rests on one law of [`Snapshotable::encode_primary`], and every
//! restore on the codec law of [`Snapshotable::decode_from`]; both are held
//! here over states harvested from running networks.

use defined::checkpoint::enc::Reader;
use defined::checkpoint::Snapshotable;
use defined::core::config::CapturePolicy;
use defined::core::snapshot::NodeSnapshot;
use defined::core::{DefinedConfig, RbMetrics, RbNetwork};
use defined::netsim::{NodeId, SimDuration, SimTime};
use defined::routing::bgp::{BgpExt, DecisionMode, PathAttrs};
use defined::routing::rip::{RefreshMode, RipExt};
use defined::routing::{ControlPlane, TimerToken};
use defined::scenario::{self, Scenario, TopologySpec};
use defined::topology::canonical;
use std::fmt::Write;

/// Every node's control plane, cloned out of `net` every `step_ms` up to
/// `secs`: states that repeat (a quiet node between two samples) and
/// states that differ in anything from one unacknowledged LSA to a whole
/// table.
fn harvest<P: ControlPlane + 'static>(mut net: RbNetwork<P>, step_ms: u64, secs: u64) -> Vec<P> {
    let n = net.graph().node_count() as u32;
    let mut states = Vec::new();
    for step in 1..=secs * 1000 / step_ms {
        net.run_until(SimTime::from_millis(step * step_ms));
        states.extend((0..n).map(|i| net.control_plane(NodeId(i)).clone()));
    }
    states
}

/// The law `encode_primary` documents: over states of one type, equal
/// primary bytes if and only if equal full encodings.
fn assert_primary_decides_encoding<S: Snapshotable>(what: &str, states: &[S]) {
    let bytes = |f: fn(&S, &mut Vec<u8>)| -> Vec<Vec<u8>> {
        states
            .iter()
            .map(|s| {
                let mut buf = Vec::new();
                f(s, &mut buf);
                buf
            })
            .collect()
    };
    let (primary, full) = (bytes(S::encode_primary), bytes(S::encode));
    let (mut equal, mut distinct) = (0u32, 0u32);
    for a in 0..states.len() {
        for b in a + 1..states.len() {
            let same = full[a] == full[b];
            assert_eq!(primary[a] == primary[b], same, "{what}: states {a} and {b}");
            *(if same { &mut equal } else { &mut distinct }) += 1;
        }
    }
    assert!(equal > 0 && distinct > 0, "{what}: {equal} equal pairs, {distinct} distinct");
}

/// The codec law composite states decode by: `decode_from` consumes
/// exactly the bytes `encode` wrote — whatever follows them is left
/// unread — and gives back the encoded state (held on re-encoded bytes:
/// not every state is `PartialEq`); `decode` is that over a whole buffer.
fn assert_codec_composes<S: Snapshotable>(what: &str, states: &[S]) {
    const TAIL: &[u8] = b"\x00\xff the next part of a composite";
    for (i, state) in states.iter().enumerate() {
        let mut buf = Vec::new();
        state.encode(&mut buf);
        let reencoded = |s: S| {
            let mut again = Vec::new();
            s.encode(&mut again);
            again
        };
        let whole = S::decode(&buf).unwrap_or_else(|| panic!("{what}: state {i} decodes"));
        assert_eq!(reencoded(whole), buf, "{what}: state {i} round trip");
        let len = buf.len();
        buf.extend_from_slice(TAIL);
        let mut r = Reader::new(&buf);
        let part = S::decode_from(&mut r).unwrap_or_else(|| panic!("{what}: state {i} + tail"));
        assert_eq!(r.remaining(), TAIL.len(), "{what}: state {i} left exactly the tail unread");
        assert_eq!(reencoded(part), buf[..len], "{what}: state {i} decoded beside a tail");
    }
}

/// Both laws, over one harvest.
fn assert_state_laws<S: Snapshotable>(what: &str, states: &[S]) {
    assert_primary_decides_encoding(what, states);
    assert_codec_composes(what, states);
}

/// One harvest per protocol, and the composite the shim probes, held to
/// both state laws.
#[test]
fn primary_bytes_decide_the_full_encoding() {
    let ms = SimDuration::from_millis;
    let cfg = DefinedConfig::default;

    // OSPF: the one control plane with derived state (the SPF table).
    let g = canonical::ring(6, ms(4));
    let procs = scenario::ospf_processes(&g);
    let mut net = RbNetwork::new(&g, cfg(), 3, 0.5, move |id| procs[id.index()].clone());
    net.schedule_link(SimTime::from_millis(2100), NodeId(0), NodeId(1), false);
    let ospf = harvest(net, 7, 8);
    assert_state_laws("ospf", &ospf);

    let g = canonical::grid(3, 3, ms(3));
    let procs = scenario::rip_processes(&g, RefreshMode::DestinationAndNextHop);
    let mut net = RbNetwork::new(&g, cfg(), 4, 0.5, move |id| procs[id.index()].clone());
    net.inject_external(SimTime::from_millis(100), NodeId(8), RipExt::Connect { prefix: 7 });
    net.schedule_link(SimTime::from_millis(4100), NodeId(7), NodeId(8), false);
    assert_state_laws("rip", &harvest(net, 50, 12));

    let topo = TopologySpec::Fig4Bgp { internal: ms(8), external: ms(12) };
    let roles = topo.fig4_roles().expect("fig4");
    let procs = scenario::bgp_fig4_processes(&roles, DecisionMode::BuggyIncremental);
    let mut net = RbNetwork::new(&topo.build(), cfg(), 5, 0.5, move |id| procs[id.index()].clone());
    for (i, er) in [roles.er1, roles.er2, roles.er3].into_iter().enumerate() {
        let attrs = PathAttrs {
            route_id: i as u32 + 1,
            as_path_len: 2,
            neighbor_as: 100 + i as u16,
            med: 10 * i as u32,
            igp_dist: 5,
        };
        let at = SimTime::from_millis(600 + 700 * i as u64);
        net.inject_external(at, er, BgpExt::Announce { prefix: 9, attrs });
    }
    assert_state_laws("bgp", &harvest(net, 10, 4));

    // The composite the shim probes: the same control planes under shim
    // contexts that differ in group, timer wheel, or nothing.
    let snaps: Vec<NodeSnapshot<_>> = ospf
        .iter()
        .step_by(97)
        .flat_map(|cp| {
            let plain = NodeSnapshot::new(cp.clone());
            let mut later = plain.clone();
            later.current_group = 3;
            let mut armed = later.clone();
            armed.apply_timer_ops(&[(TimerToken(1), 4)], &[]);
            let mut rearmed = armed.clone();
            rearmed.apply_timer_ops(&[(TimerToken(1), 4)], &[]);
            [plain, later, armed, rearmed]
        })
        .collect();
    assert_state_laws("node snapshot", &snaps);
}

/// RIP on a 4×4 grid, three prefixes, three link flaps: the registry's RIP
/// scenarios roll back a handful of single entries, too few to pin
/// anything.
fn rip_grid_churn() -> Scenario {
    scenario::scn::parse(
        "name rip-grid-churn\n\
         topology grid 4 4 3ms\n\
         protocol rip destination-and-next-hop\n\
         jitter 0.6\n\
         duration 40s\n\
         inject 100ms 5 rip-connect 10\n\
         inject 300ms 15 rip-connect 11\n\
         inject 700ms 2 rip-connect 12\n\
         fault 6s flap 0 1 700ms 1500ms 3\n\
         fault 9s flap 5 6 500ms 1300ms 3\n\
         fault 14s flap 10 14 900ms 2s 2\n\
         fault 22s link-down 6 7\n\
         fault 29s link-up 6 7\n\
         probe rip-route 12 10\n",
    )
    .expect("parses")
}

/// The Fig. 4 BGP network under 300 announces and withdraws of 16
/// prefixes, drawn from a fixed LCG (ER1..ER3 are nodes 3..5 and advertise
/// routes 1..3).
fn bgp_fig4_churn() -> Scenario {
    let mut text = String::from(
        "name bgp-fig4-churn\n\
         topology fig4-bgp 8ms 12ms\n\
         protocol bgp buggy-incremental\n\
         jitter 0.5\n\
         duration 62s\n\
         probe bgp-best 2 0\n",
    );
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut draw = |below: u64| {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % below
    };
    for i in 0..300u64 {
        let (at, er, prefix) = (500 + i * 200 + draw(150), 3 + draw(3), draw(16));
        let route_id = er - 2;
        if i == 0 || draw(10) < 6 {
            let neighbor_as = if er == 5 { 200 } else { 100 };
            let (len, med, igp) = (1 + draw(5), draw(50), 5 + draw(35));
            writeln!(
                text,
                "inject {at}ms {er} bgp-announce {prefix} {route_id} {len} {neighbor_as} {med} {igp}"
            )
        } else {
            writeln!(text, "inject {at}ms {er} bgp-withdraw {prefix} {route_id}")
        }
        .expect("writes to a String");
    }
    scenario::scn::parse(&text).expect("parses")
}

/// The rollback counters of `scn` recorded under the churn-adaptive
/// capture policy — under `Every(1)` every entry owns a checkpoint, so no
/// rollback has a prefix to replay or a tail to jump over — summed over
/// `seeds`.
fn recorded(scn: Scenario, seeds: std::ops::RangeInclusive<u64>) -> [u64; 8] {
    let mut sum = RbMetrics::default();
    for seed in seeds {
        let scn = scn.clone().with_seed(seed).with_capture(CapturePolicy::auto());
        sum.absorb(&scn.record_run().expect("records").metrics);
    }
    [
        sum.rollbacks,
        sum.rolled_entries,
        sum.jumps,
        sum.jumped_entries,
        sum.lazy_hits,
        sum.unsend_msgs,
        sum.unsent_ids,
        sum.app_msgs_sent,
    ]
}

fn registered(name: &str) -> Scenario {
    scenario::find(name).expect("registry scenario")
}

/// `[rollbacks, rolled_entries, jumps, jumped_entries, lazy_hits,
/// unsend_msgs, unsent_ids, app_msgs_sent]` per scenario, equal to what
/// the commit before per-entry lazy cancellation produced: the constants
/// were captured by running this test at 5e458f0, where one pool keyed by
/// `(to, annotation, digest)` was built over every rolled-back send and
/// consulted by every re-delivery, the replayed prefix included.
///
/// Mutation-checked: matching a regenerated send against the entry's
/// recorded sends on `(to, digest)` alone, without the annotation, keeps
/// the wrong message alive wherever a handler emits twice to one peer, and
/// moves the OSPF row.
#[test]
fn per_entry_lazy_cancellation_counts_what_the_global_pool_counted() {
    let rows = [
        (
            "ospf: ba-hub-crash",
            registered("ba-hub-crash"),
            2,
            [5714, 262_719, 2966, 71_470, 163_044, 949, 1412, 7340],
        ),
        ("rip: rip-flap-storm", registered("rip-flap-storm"), 4, [4, 4, 0, 0, 0, 0, 0, 192]),
        ("rip: rip-grid-churn", rip_grid_churn(), 2, [646, 1896, 20, 20, 999, 0, 0, 3568]),
        ("bgp: bgp-churn", registered("bgp-churn"), 4, [35, 62, 0, 0, 38, 0, 0, 56]),
        ("bgp: bgp-fig4-churn", bgp_fig4_churn(), 2, [1025, 12_894, 8, 8, 3796, 0, 0, 1220]),
    ];
    let (got, want): (Vec<_>, Vec<_>) = rows
        .into_iter()
        .map(|(what, scn, seeds, want)| ((what, recorded(scn, 1..=seeds)), (what, want)))
        .unzip();
    assert_eq!(got, want);
}
