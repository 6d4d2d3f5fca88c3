//! Automated fault localisation over a recording.
//!
//! The case studies (§4) end with the troubleshooter using DEFINED-LS's
//! stepping "to find the exact point at which XORP begins behaving
//! incorrectly". Because replays are deterministic, that search can be
//! mechanised: [`first_bad_group`] binary-searches the earliest group whose
//! replay prefix already exhibits the bug, and [`first_bad_event`] then
//! steps through that group event by event to name the exact delivery.
//!
//! A probe of "groups `1..=g`" is a replay positioned at the *exact* start
//! of group `g + 1` ([`LockstepNet::run_to_group_start`]). Determinism
//! (Theorem 1) is what makes the probes comparable at all — and it is also
//! what lets the probes run on the replay farm ([`crate::farm`]):
//! [`first_bad_group`] probes `farm.speculation` midpoints per round across
//! `farm.jobs` workers, each probe seeded from the nearest retained
//! checkpoint instead of event zero, and still converges to the same group
//! as the classic binary search (the probe schedule is fixed by the
//! speculation width, so the report does not depend on the worker count).
//! [`FarmConfig::serial`] *is* that binary search: one inline worker, one
//! midpoint per round.

use crate::config::DefinedConfig;
use crate::farm::{self, FarmConfig, ProbeSession, SessionPool};
use crate::ls::{LockstepNet, LsEvent};
use crate::recorder::Recording;
use crate::wire::Wire;
use netsim::NodeId;
use routing::ControlPlane;
use topology::Graph;

/// Result of a group-level bisection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BisectReport {
    /// The earliest group whose replay prefix satisfies the bug predicate.
    pub first_bad_group: u64,
    /// Prefix probes performed. `≈ log2(groups)` for the serial search;
    /// k-way speculation trades more probes for fewer (parallel) rounds.
    /// A pure function of the recording and the speculation width — never
    /// of the worker count.
    pub replays: usize,
    /// Evidence that the predicate is *not* monotone over prefixes, when
    /// the probes happened to expose it: a group whose prefix was observed
    /// bad (`.0`) together with a *later* group whose prefix was observed
    /// healthy (`.1`). Bisection assumes monotonicity; when this is
    /// `Some`, `first_bad_group` narrows one bad region but is not a
    /// trustworthy "first" — treat it as a warning. Detection is
    /// best-effort over the probes the search actually ran (a pure
    /// function of the recording and the speculation width, so reports
    /// stay job-count invariant).
    pub oscillation: Option<(u64, u64)>,
}

/// Searches for the earliest group `g` such that replaying groups `1..=g`
/// makes `bad` true: speculative k-way bisection on the replay farm.
///
/// Assumes the predicate is *monotone* over prefixes (once the bug has
/// manifested it stays manifested), which holds for state corruption like a
/// wrong best path or a stuck stale route. Returns `None` when even the
/// full replay is healthy, and on degenerate recordings with no groups
/// (`last_group == 0`) — there is no prefix to blame.
///
/// Each round probes `farm.speculation` midpoints that split the open
/// interval into equal parts; the round's outcomes narrow the interval to
/// the segment between the last healthy and the first bad midpoint. With
/// `speculation = 1` ([`FarmConfig::serial`]) this *is* the binary search,
/// probe for probe. Probes are distributed over `farm.jobs` workers and
/// each worker seeds its replay from the nearest checkpoint its session
/// retains ([`ProbeSession`]), so a probe costs one checkpoint interval of
/// re-execution rather than a from-zero replay.
///
/// The returned [`BisectReport`] is identical for every `farm.jobs` value
/// (`first_bad_group` is the same for every configuration; `replays`
/// additionally depends on the speculation width).
pub fn first_bad_group<P, S, F>(
    graph: &Graph,
    cfg: &DefinedConfig,
    recording: &Recording<P::Ext>,
    spawn: S,
    bad: F,
    farm: &FarmConfig,
) -> Option<BisectReport>
where
    P: ControlPlane,
    P::Msg: Wire,
    P::Ext: Wire + Sync,
    S: Fn(NodeId) -> P + Sync,
    F: Fn(&LockstepNet<P>) -> bool + Sync,
{
    let pool: SessionPool<P> = SessionPool::new();
    bisect_with_pool(&pool, graph, cfg, recording, &spawn, &bad, farm)
}

/// Group bisection plus event localisation in one call, sharing the probe
/// sessions between the two phases: the event-level scan reuses a session
/// whose timeline already holds checkpoints near the located group from
/// the bisection probes, so reaching the group boundary costs one
/// checkpoint interval of re-execution instead of a from-zero replay —
/// this is where the farm's seeding pays off for the event search.
///
/// Returns the report and, when a single delivery inside the located
/// group establishes the predicate, that event with the network frozen at
/// it.
#[allow(clippy::type_complexity)]
pub fn localise_fault<P, S, F>(
    graph: &Graph,
    cfg: &DefinedConfig,
    recording: &Recording<P::Ext>,
    spawn: S,
    bad: F,
    farm: &FarmConfig,
) -> Option<(BisectReport, Option<(LsEvent, LockstepNet<P>)>)>
where
    P: ControlPlane,
    P::Msg: Wire,
    P::Ext: Wire + Sync,
    S: Fn(NodeId) -> P + Sync,
    F: Fn(&LockstepNet<P>) -> bool + Sync,
{
    let pool: SessionPool<P> = SessionPool::new();
    let report = bisect_with_pool(&pool, graph, cfg, recording, &spawn, &bad, farm)?;
    let session = pool.take().unwrap_or_else(|| {
        ProbeSession::new(graph, cfg.clone(), recording.clone(), &spawn, farm)
    });
    let event = scan_group_for_event(session, report.first_bad_group, &bad);
    Some((report, event))
}

fn bisect_with_pool<P, S, F>(
    pool: &SessionPool<P>,
    graph: &Graph,
    cfg: &DefinedConfig,
    recording: &Recording<P::Ext>,
    spawn: &S,
    bad: &F,
    farm: &FarmConfig,
) -> Option<BisectReport>
where
    P: ControlPlane,
    P::Msg: Wire,
    P::Ext: Wire + Sync,
    S: Fn(NodeId) -> P + Sync,
    F: Fn(&LockstepNet<P>) -> bool + Sync,
{
    // A probe-only / empty recording has no group to blame.
    if recording.last_group == 0 {
        return None;
    }
    let probe = |g: u64| -> bool {
        let mut session = pool.take().unwrap_or_else(|| {
            ProbeSession::new(graph, cfg.clone(), recording.clone(), &spawn, farm)
        });
        let hit = session.probe_prefix(g, bad);
        pool.put(session);
        hit
    };
    let mut replays = 1usize;
    if !farm::supervised(|| probe(recording.last_group)) {
        return None;
    }
    // Every probe outcome the search observes, for the oscillation check
    // below. A round always evaluates *all* its points (no early exit), so
    // healthy points above the narrowed interval are observed too.
    let mut observed: Vec<(u64, bool)> = vec![(recording.last_group, true)];
    // Invariant: bad(hi) is known true; the answer lies in [lo, hi].
    let (mut lo, mut hi) = (1u64, recording.last_group);
    while lo < hi {
        let span = hi - lo;
        let k = (farm.speculation.max(1) as u64).min(span);
        // k distinct probe points inside [lo, hi - 1], splitting the open
        // interval into k + 1 near-equal segments. k = 1 gives the serial
        // midpoint lo + span / 2.
        let points: Vec<u64> = (1..=k).map(|i| lo + span * i / (k + 1)).collect();
        let eval = |i: usize| probe(points[i]);
        let outcomes = farm::settle(farm::map_indexed(farm.jobs, points.len(), eval), eval);
        replays += points.len();
        observed.extend(points.iter().copied().zip(outcomes.iter().copied()));
        match outcomes.iter().position(|&b| b) {
            Some(0) => hi = points[0],
            Some(i) => {
                lo = points[i - 1] + 1;
                hi = points[i];
            }
            None => lo = *points.last().expect("k >= 1") + 1,
        }
    }
    // Monotonicity spot check over everything the search saw: a healthy
    // prefix *above* some bad prefix means the predicate oscillates and
    // `lo` is merely *a* bad onset, not necessarily the first.
    let min_bad = observed.iter().filter(|&&(_, b)| b).map(|&(g, _)| g).min();
    let oscillation = min_bad.and_then(|mb| {
        observed
            .iter()
            .filter(|&&(g, b)| !b && g > mb)
            .map(|&(g, _)| g)
            .max()
            .map(|healthy| (mb, healthy))
    });
    Some(BisectReport { first_bad_group: lo, replays, oscillation })
}

/// Steps through the first bad group one event at a time and returns the
/// exact delivery after which `bad` first holds, together with the network
/// frozen at that point for inspection.
///
/// `first_bad_group` must come from [`first_bad_group`] (or be otherwise
/// known); the replay runs healthy to the exact group boundary, then probes
/// after every single event of the group — including its first. Returns
/// `None` if the predicate never fires strictly inside the group (the
/// check precedes the probe, so an event of group `g + 1` can never be
/// credited to group `g`).
///
/// Stepping inside the group is inherently sequential, so `farm.jobs` does
/// not apply; a *standalone* call replays the healthy prefix once from
/// event zero (a fresh session has only its position-0 anchor to seed
/// from). When the group came out of [`first_bad_group`], prefer
/// [`localise_fault`], which reuses the bisection's probe sessions — their
/// retained checkpoints make reaching the boundary cost one checkpoint
/// interval instead of the whole prefix.
pub fn first_bad_event<P, S, F>(
    graph: &Graph,
    cfg: &DefinedConfig,
    recording: &Recording<P::Ext>,
    spawn: S,
    first_bad_group: u64,
    bad: F,
    farm: &FarmConfig,
) -> Option<(LsEvent, LockstepNet<P>)>
where
    P: ControlPlane,
    P::Msg: Wire,
    P::Ext: Wire + Sync,
    S: Fn(NodeId) -> P + Sync,
    F: Fn(&LockstepNet<P>) -> bool + Sync,
{
    let session =
        ProbeSession::new(graph, cfg.clone(), recording.clone(), &spawn, farm);
    scan_group_for_event(session, first_bad_group, bad)
}

/// Positions `session` at the exact start of `group` (seeded from
/// whatever checkpoints it retains) and steps the group's events one by
/// one, returning the first after which `bad` holds. The boundary check
/// precedes the probe, so an event of a later group is never credited to
/// `group`.
fn scan_group_for_event<P, F>(
    mut session: ProbeSession<P>,
    group: u64,
    bad: F,
) -> Option<(LsEvent, LockstepNet<P>)>
where
    P: ControlPlane,
    P::Msg: Wire,
    P::Ext: Wire,
    F: Fn(&LockstepNet<P>) -> bool,
{
    session.goto_group_start(group);
    let mut ls = session.into_net();
    loop {
        let ev = ls.step_event()?;
        if ev.group > group {
            return None; // The predicate never fired inside the group.
        }
        if bad(&ls) {
            return Some((ev, ls));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::RbNetwork;
    use netsim::{SimDuration, SimTime};
    use routing::ospf::{OspfConfig, OspfProcess};
    use routing::rip::{RefreshMode, RipConfig, RipExt, RipProcess};
    use topology::canonical;

    const DEST: u32 = 7;

    fn spawner(
        g: &topology::Graph,
        mode: RefreshMode,
    ) -> impl Fn(NodeId) -> RipProcess + 'static {
        let g = g.clone();
        move |id: NodeId| {
            RipProcess::new(id, g.neighbors(id), RipConfig::emulation(mode))
        }
    }

    /// Records the Fig. 5 black-hole production run: the destination prefix
    /// is attached behind R2 (main) and R3 (backup); R2 dies mid-run.
    fn record_run(
        mode: RefreshMode,
    ) -> (topology::Graph, canonical::Fig5Roles, crate::recorder::Recording<RipExt>) {
        let (g, roles) = canonical::fig5_rip(SimDuration::from_millis(10));
        let cfg = DefinedConfig::default();
        let mut net = RbNetwork::new(&g, cfg, 2, 0.6, spawner(&g, mode));
        net.inject_external(SimTime::from_millis(100), roles.dest, RipExt::Connect { prefix: DEST });
        net.schedule_node(SimTime::from_secs(8), roles.r2, false);
        net.run_until(SimTime::from_secs(26));
        let (rec, _) = net.into_recording();
        (g, roles, rec)
    }

    /// The group in which R2 fell silent, read off its death cut.
    fn death_group(rec: &crate::recorder::Recording<RipExt>, r2: NodeId) -> u64 {
        rec.mutes
            .iter()
            .find(|m| m.node == r2)
            .expect("R2 died, so it has a death cut")
            .allowed
            .iter()
            .map(|k| k.group())
            .max()
            .unwrap_or(0)
    }

    /// Group-level bisection localises the Quagga black hole (Fig. 5) to
    /// the first group where the stale route has outlived its timeout, in a
    /// logarithmic number of replays.
    #[test]
    fn bisects_the_rip_black_hole() {
        let (g, roles, rec) = record_run(RefreshMode::DestinationOnly);
        let cfg = DefinedConfig::default();
        let (r1, r2) = (roles.r1, roles.r2);
        let dead_at = death_group(&rec, r2);
        assert!(dead_at > 20, "death cut sanity: {dead_at}");
        // Black hole: well past R2's death plus the route timeout, R1 still
        // forwards through the corpse.
        let horizon = dead_at + 20;
        let bad = move |ls: &LockstepNet<RipProcess>| {
            ls.current_group() > horizon
                && ls.control_plane(r1).route(DEST).and_then(|r| r.next_hop) == Some(r2)
        };
        let spawn = spawner(&g, RefreshMode::DestinationOnly);
        let report = first_bad_group(&g, &cfg, &rec, spawn, bad, &FarmConfig::serial())
            .expect("the black hole must manifest in the replay");
        assert!(
            report.first_bad_group >= horizon,
            "bad group {} must lie at or past the horizon {horizon}",
            report.first_bad_group,
        );
        let log2 = 64 - rec.last_group.leading_zeros() as usize;
        assert!(
            report.replays <= log2 + 2,
            "bisection must stay logarithmic: {} replays for {} groups",
            report.replays,
            rec.last_group,
        );
    }

    /// Speculative parallel bisection agrees with the serial search on the
    /// located group, for every job count and speculation width, and its
    /// report is invariant in the job count.
    #[test]
    fn farm_bisection_matches_serial() {
        let (g, roles, rec) = record_run(RefreshMode::DestinationOnly);
        let cfg = DefinedConfig::default();
        let r1 = roles.r1;
        let has_route = move |ls: &LockstepNet<RipProcess>| {
            ls.control_plane(r1).route(DEST).is_some()
        };
        let spawn = spawner(&g, RefreshMode::DestinationOnly);
        let serial = first_bad_group(&g, &cfg, &rec, &spawn, has_route, &FarmConfig::serial())
            .expect("the route is eventually installed");
        for (jobs, speculation) in [(1, 3), (2, 2), (2, 3), (8, 8)] {
            let farm = FarmConfig { jobs, speculation, ..FarmConfig::serial() };
            let report = first_bad_group(&g, &cfg, &rec, &spawn, has_route, &farm)
                .expect("same predicate, same recording");
            assert_eq!(
                report.first_bad_group, serial.first_bad_group,
                "jobs={jobs} speculation={speculation}"
            );
            // Same schedule at a different job count → identical report.
            let farm1 = FarmConfig { jobs: 1, speculation, ..FarmConfig::serial() };
            assert_eq!(
                first_bad_group(&g, &cfg, &rec, &spawn, has_route, &farm1),
                Some(report),
                "speculation={speculation}: report depends on job count"
            );
        }
        // speculation = 1 reproduces the serial report exactly.
        let farm = FarmConfig { jobs: 4, speculation: 1, ..FarmConfig::serial() };
        assert_eq!(
            first_bad_group(&g, &cfg, &rec, &spawn, has_route, &farm),
            Some(serial),
        );
    }

    /// Regression: death cuts are event *identities*, not
    /// ordering-dependent keys — a crashed node still boots and delivers
    /// its recorded pre-crash events when the recording is replayed under
    /// a different (salted) ordering, as exploration sweeps do. Before the
    /// fix, no `OrderKey` matched under `Permuted` (the `rank` component
    /// differs), so the node absorbed everything including its `Start`.
    #[test]
    fn death_cuts_survive_ordering_sweeps() {
        use crate::config::OrderingMode;
        let (g, roles, rec) = record_run(RefreshMode::DestinationOnly);
        let spawn = spawner(&g, RefreshMode::DestinationOnly);
        let delivered_at_r2 = |ordering: OrderingMode| {
            let cfg = DefinedConfig { ordering, ..DefinedConfig::default() };
            let mut ls: LockstepNet<RipProcess> =
                LockstepNet::new(&g, cfg, rec.clone(), &spawn);
            ls.run_to_end();
            ls.logs()[roles.r2.index()].len()
        };
        let production = delivered_at_r2(OrderingMode::Optimized);
        assert!(production > 0, "R2 committed events before dying");
        for salt in [0, 1, 7] {
            let swept = delivered_at_r2(OrderingMode::Permuted(salt));
            assert!(
                swept > 0,
                "salt {salt}: the crashed node was erased from the salted replay"
            );
        }
    }

    /// Event-level localisation pins the exact delivery that installs R1's
    /// route — a message handled at R1.
    #[test]
    fn localises_the_install_event() {
        let (g, roles, rec) = record_run(RefreshMode::DestinationOnly);
        let cfg = DefinedConfig::default();
        let r1 = roles.r1;
        let has_route = move |ls: &LockstepNet<RipProcess>| {
            ls.control_plane(r1).route(DEST).is_some()
        };
        let spawn = spawner(&g, RefreshMode::DestinationOnly);
        let serial = FarmConfig::serial();
        let report = first_bad_group(&g, &cfg, &rec, &spawn, has_route, &serial)
            .expect("the route is eventually installed");
        let (ev, ls) =
            first_bad_event(&g, &cfg, &rec, &spawn, report.first_bad_group, has_route, &serial)
                .expect("the installing event exists inside the group");
        assert_eq!(ev.node, r1, "the install happens at R1: {ev:?}");
        assert_eq!(ev.group, report.first_bad_group, "the event lies inside the bad group");
        assert_eq!(ev.record.ann.class, crate::order::EventClass::Message);
        assert!(ls.control_plane(r1).route(DEST).is_some());
    }

    /// A healthy replay (fixed comparison mode) yields no bad group.
    #[test]
    fn healthy_replay_bisects_to_none() {
        let (g, roles, rec) = record_run(RefreshMode::DestinationAndNextHop);
        let cfg = DefinedConfig::default();
        let (r1, r2) = (roles.r1, roles.r2);
        let dead_at = death_group(&rec, r2);
        let horizon = dead_at + 20;
        let report = first_bad_group(
            &g,
            &cfg,
            &rec,
            spawner(&g, RefreshMode::DestinationAndNextHop),
            move |ls| {
                ls.current_group() > horizon
                    && ls.control_plane(r1).route(DEST).and_then(|r| r.next_hop) == Some(r2)
            },
            &FarmConfig::serial(),
        );
        assert_eq!(report, None, "the patched protocol has no bad group");
    }

    fn ospf_recording() -> (topology::Graph, crate::recorder::Recording<()>, Vec<OspfProcess>) {
        let g = canonical::ring(4, SimDuration::from_millis(4));
        let procs: Vec<OspfProcess> = {
            let f = OspfProcess::for_graph(&g, OspfConfig::stress(4));
            (0..4).map(|i| f(NodeId(i))).collect()
        };
        let spawn = procs.clone();
        let mut net = RbNetwork::new(&g, DefinedConfig::default(), 7, 0.4, move |id| {
            spawn[id.index()].clone()
        });
        net.run_until(SimTime::from_secs(4));
        let (rec, _) = net.into_recording();
        (g, rec, procs)
    }

    /// Regression for the boundary off-by-one: a predicate that first fires
    /// exactly at a group boundary (it observes the group counter, not any
    /// event inside the group) bisects to the boundary group, and the
    /// event-level search correctly reports that *no event inside that
    /// group* triggered it — instead of crediting the first event of the
    /// next group.
    #[test]
    fn boundary_predicate_is_not_credited_to_the_previous_group() {
        let (g, rec, procs) = ospf_recording();
        let cfg = DefinedConfig::default();
        let spawn = |id: NodeId| procs[id.index()].clone();
        let boundary = rec.last_group / 2;
        assert!(boundary >= 2);
        // True exactly when the replay has reached group `boundary`:
        // probe(g) evaluates at the start of group g + 1, so the earliest
        // bad prefix is g = boundary - 1.
        let pred = move |ls: &LockstepNet<OspfProcess>| ls.current_group() >= boundary;
        let serial = FarmConfig::serial();
        let report =
            first_bad_group(&g, &cfg, &rec, spawn, pred, &serial).expect("fires by the end");
        assert_eq!(report.first_bad_group, boundary - 1);
        // No event of group boundary - 1 made it true — the group counter
        // ticked over *after* the group's last event. Before the fix the
        // probe ran ahead of the boundary check and blamed the first event
        // of group `boundary`.
        assert!(
            first_bad_event(&g, &cfg, &rec, spawn, report.first_bad_group, pred, &serial).is_none()
        );
    }

    /// Regression for the unprobed first event: when the culprit is the
    /// very first delivery of the bad group, the event-level search names
    /// it — not the delivery after it.
    #[test]
    fn first_event_of_the_bad_group_is_probed() {
        let (g, rec, procs) = ospf_recording();
        let cfg = DefinedConfig::default();
        let spawn = |id: NodeId| procs[id.index()].clone();
        // Reference replay: find the first delivered event of some interior
        // group and the per-node log length it produces.
        let mut reference = LockstepNet::new(&g, cfg.clone(), rec.clone(), spawn);
        let target_group = rec.last_group / 2;
        reference.run_to_group_start(target_group);
        let first_ev = reference.step_event().expect("group has events");
        assert_eq!(first_ev.group, target_group);
        let node = first_ev.node;
        let len = reference.logs()[node.index()].len();
        // Predicate: that node's committed log has reached the length the
        // first event of `target_group` produces. Monotone by construction.
        let pred = move |ls: &LockstepNet<OspfProcess>| ls.logs()[node.index()].len() >= len;
        let serial = FarmConfig::serial();
        let report = first_bad_group(&g, &cfg, &rec, spawn, pred, &serial).expect("fires");
        assert_eq!(report.first_bad_group, target_group);
        let (ev, _) = first_bad_event(&g, &cfg, &rec, spawn, target_group, pred, &serial)
            .expect("the culprit is inside the group");
        assert_eq!(ev, first_ev, "the *first* event of the group is the culprit");
    }

    /// Degenerate recordings: no groups at all → `None` (group 1 does not
    /// exist); a single-group recording bisects within group 1.
    #[test]
    fn degenerate_recordings_bisect_cleanly() {
        let n_nodes = 3;
        let g = canonical::line(n_nodes, SimDuration::from_millis(2));
        let cfg = DefinedConfig::default();
        let f = OspfProcess::for_graph(&g, OspfConfig::stress(n_nodes));
        let spawn = move |id: NodeId| f(id);
        let empty: Recording<()> = Recording {
            n_nodes,
            source: NodeId(0),
            externals: vec![],
            drops: vec![],
            mutes: vec![],
            ticks: vec![],
            last_group: 0,
        };
        let serial = FarmConfig::serial();
        assert_eq!(
            first_bad_group(&g, &cfg, &empty, &spawn, |_| true, &serial),
            None,
            "an empty recording has no group to blame"
        );
        let single = Recording { last_group: 1, ..empty };
        let report = first_bad_group(&g, &cfg, &single, &spawn, |_| true, &serial)
            .expect("a trivially-true predicate is bad from group 1");
        assert_eq!(report.first_bad_group, 1);
        assert_eq!(report.replays, 1, "probe(last) alone settles a one-group search");
        assert_eq!(first_bad_group(&g, &cfg, &single, &spawn, |_| false, &serial), None);
    }

    /// A predicate that oscillates (bad in an early window, healthy again,
    /// bad at the end) violates the documented monotonicity assumption —
    /// the report must carry the observed evidence instead of silently
    /// presenting `first_bad_group` as trustworthy, and it must do so
    /// identically under every job count.
    #[test]
    fn oscillating_predicates_are_flagged() {
        let (g, rec, procs) = ospf_recording();
        let cfg = DefinedConfig::default();
        let spawn = |id: NodeId| procs[id.index()].clone();
        let last = rec.last_group;
        assert!(last >= 12, "recording long enough: {last}");
        let (w_lo, w_hi) = (last / 6, last / 2);
        let pred = move |ls: &LockstepNet<OspfProcess>| {
            let cg = ls.current_group();
            (cg >= w_lo && cg < w_hi) || cg >= last
        };
        let farm = FarmConfig { speculation: 4, ..FarmConfig::serial() };
        let report = first_bad_group(&g, &cfg, &rec, spawn, pred, &farm)
            .expect("the full prefix is bad");
        let (bad_g, healthy_g) =
            report.oscillation.expect("the speculative round saw the healthy gap");
        assert!(bad_g < healthy_g, "witness order: bad {bad_g} < healthy {healthy_g}");
        let farm2 = FarmConfig { jobs: 2, speculation: 4, ..FarmConfig::serial() };
        assert_eq!(
            first_bad_group(&g, &cfg, &rec, spawn, pred, &farm2),
            Some(report),
            "oscillation evidence must be job-count invariant"
        );
        // A genuinely monotone predicate is never flagged.
        let mono = move |ls: &LockstepNet<OspfProcess>| ls.current_group() >= w_hi;
        let clean =
            first_bad_group(&g, &cfg, &rec, spawn, mono, &FarmConfig::serial()).expect("fires");
        assert_eq!(clean.oscillation, None);
    }

    /// A probe that panics transiently (here: on its very first call) is
    /// retried under supervision; the bisection completes without hanging
    /// and reaches the same answer as the clean run. The panicked probe's
    /// session is simply lost — the pool replenishes on demand.
    #[test]
    fn bisection_tolerates_transient_probe_panics() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let (g, rec, procs) = ospf_recording();
        let cfg = DefinedConfig::default();
        let spawn = |id: NodeId| procs[id.index()].clone();
        let boundary = rec.last_group / 2;
        let clean = move |ls: &LockstepNet<OspfProcess>| ls.current_group() >= boundary;
        let expected =
            first_bad_group(&g, &cfg, &rec, spawn, clean, &FarmConfig::serial()).expect("fires");
        let tripped = AtomicBool::new(false);
        let flaky = |ls: &LockstepNet<OspfProcess>| {
            if !tripped.swap(true, Ordering::SeqCst) {
                panic!("deliberately flaky probe");
            }
            clean(ls)
        };
        let farm = FarmConfig { jobs: 2, speculation: 2, ..FarmConfig::serial() };
        let report =
            first_bad_group(&g, &cfg, &rec, spawn, flaky, &farm).expect("still fires");
        assert_eq!(report.first_bad_group, expected.first_bad_group);
    }
}
