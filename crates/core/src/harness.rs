//! Glue: builds an instrumented production network over the simulator,
//! drives workloads, and extracts recordings and committed logs.

use crate::config::DefinedConfig;
use crate::metrics::RbMetrics;
use crate::rb::{Envelope, RbShared, RbShim};
use crate::recorder::{CommitRecord, DropByIndex, ExtRecord, Recording};
use netsim::{
    JitterModel, LinkParams, NodeId, SimBuilder, SimDuration, SimTime, Simulator,
};
use routing::ControlPlane;
use std::collections::HashMap;
use std::sync::Arc;
use topology::Graph;

/// A production network instrumented with DEFINED-RB.
pub struct RbNetwork<P: ControlPlane> {
    sim: Simulator<RbShim<P>>,
    shared: Arc<RbShared>,
    graph: Graph,
}

impl<P: ControlPlane + 'static> RbNetwork<P> {
    /// Instruments `graph` with DEFINED-RB.
    ///
    /// * `cfg` — the DEFINED configuration;
    /// * `seed` — network nondeterminism seed (jitter);
    /// * `jitter_frac` — uniform per-packet jitter as a fraction of each
    ///   link's base delay;
    /// * `spawn` — constructs each node's control plane.
    pub fn new(
        graph: &Graph,
        cfg: DefinedConfig,
        seed: u64,
        jitter_frac: f64,
        mut spawn: impl FnMut(NodeId) -> P + 'static,
    ) -> Self {
        let n = graph.node_count();
        let shared = Arc::new(RbShared::new(graph, cfg));
        let links = graph.to_links(|e| {
            LinkParams::with_delay(e.delay).jitter(JitterModel::Uniform { frac: jitter_frac })
        });
        let shared_for_spawn = Arc::clone(&shared);
        let mut sim = SimBuilder::new(n).links(links).build(seed, move |id| {
            RbShim::new(id, spawn(id), Arc::clone(&shared_for_spawn))
        });
        sim.set_collect_drop_payloads(true);
        RbNetwork { sim, shared, graph: graph.clone() }
    }

    /// The underlying simulator.
    pub fn sim(&self) -> &Simulator<RbShim<P>> {
        &self.sim
    }

    /// Mutable access to the simulator (schedule failures, externals, ...).
    pub fn sim_mut(&mut self) -> &mut Simulator<RbShim<P>> {
        &mut self.sim
    }

    /// The instrumented topology.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The shared run context.
    pub fn shared(&self) -> &RbShared {
        &self.shared
    }

    /// Runs the production network until `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.sim.run_until(deadline);
    }

    /// Schedules an external input.
    pub fn inject_external(&mut self, t: SimTime, node: NodeId, ev: P::Ext) {
        self.sim.schedule_external(t, node, ev);
    }

    /// Schedules a link failure/recovery.
    pub fn schedule_link(&mut self, t: SimTime, a: NodeId, b: NodeId, up: bool) {
        self.sim.schedule_link_admin(t, a, b, up);
    }

    /// Schedules a node crash/restart.
    pub fn schedule_node(&mut self, t: SimTime, node: NodeId, up: bool) {
        self.sim.schedule_node_admin(t, node, up);
    }

    /// Schedules `count` down/up flap cycles of the `a — b` link (see
    /// [`Simulator::schedule_link_flap`]).
    pub fn schedule_flap(
        &mut self,
        start: SimTime,
        a: NodeId,
        b: NodeId,
        down_for: SimDuration,
        period: SimDuration,
        count: u32,
    ) {
        self.sim.schedule_link_flap(start, a, b, down_for, period, count);
    }

    /// Schedules a bisection partition at `cut_at` — every link with exactly
    /// one endpoint in `side` goes down — healed again at `heal_at` when
    /// given. Returns the undirected pairs that were cut. The cut is
    /// computed from the static topology: the heal re-raises every crossing
    /// link, even one a separate fault had taken down.
    pub fn schedule_partition(
        &mut self,
        cut_at: SimTime,
        heal_at: Option<SimTime>,
        side: &[NodeId],
    ) -> Vec<(NodeId, NodeId)> {
        let cut = self.sim.schedule_partition(cut_at, side, false);
        if let Some(t) = heal_at {
            for &(a, b) in &cut {
                self.sim.schedule_link_admin(t, a, b, true);
            }
        }
        cut
    }

    /// Schedules a message-loss window on the `a — b` link: Bernoulli loss
    /// with probability `p` between `from` and `until`. Losses are committed
    /// into the partial recording by send index (footnote 4), so the window
    /// replays exactly in the debugging network.
    pub fn schedule_loss_window(
        &mut self,
        from: SimTime,
        until: SimTime,
        a: NodeId,
        b: NodeId,
        p: f64,
    ) {
        self.sim.schedule_link_loss(from, a, b, netsim::LossModel::Bernoulli { p });
        self.sim.schedule_link_loss(until, a, b, netsim::LossModel::None);
    }

    /// One node's control plane.
    pub fn control_plane(&self, node: NodeId) -> &P {
        self.sim.process(node).control_plane()
    }

    /// One node's RB metrics.
    pub fn node_metrics(&self, node: NodeId) -> RbMetrics {
        self.sim.process(node).metrics
    }

    /// All nodes' rollback shape samples, concatenated.
    pub fn rollback_samples(&self) -> Vec<crate::rb::RollbackSample> {
        (0..self.sim.node_count())
            .flat_map(|i| self.sim.process(NodeId(i as u32)).rollback_samples().to_vec())
            .collect()
    }

    /// All nodes' checkpoint shape samples, concatenated.
    pub fn checkpoint_samples(&self) -> Vec<crate::rb::CheckpointSample> {
        (0..self.sim.node_count())
            .flat_map(|i| self.sim.process(NodeId(i as u32)).checkpoint_samples().to_vec())
            .collect()
    }

    /// Aggregated RB metrics across all nodes.
    pub fn total_metrics(&self) -> RbMetrics {
        let mut total = RbMetrics::default();
        for i in 0..self.sim.node_count() {
            total.absorb(&self.sim.process(NodeId(i as u32)).metrics);
        }
        total
    }

    /// The initially configured beacon source (what
    /// [`into_recording`](Self::into_recording) stores as the recording's
    /// `source`).
    pub fn initial_source(&self) -> NodeId {
        self.shared.initial_source
    }

    /// Per-node committed delivery logs (committed + live entries). Clones
    /// and digests every entry: for end-of-run extraction and tests, not
    /// for polling a run in flight ([`RbShim::ticks_from`] is the
    /// incremental reader).
    pub fn commit_logs(&self) -> Vec<Vec<CommitRecord>> {
        (0..self.sim.node_count())
            .map(|i| self.sim.process(NodeId(i as u32)).commit_records())
            .collect()
    }

    /// The highest group fully completed network-wide, with a safety margin
    /// of `margin` groups for in-flight chains.
    ///
    /// Nodes that are administratively down are excluded: their group
    /// counters froze at death, but their committed logs are final (the
    /// recording carries their death cut), so they do not hold back the
    /// comparison frontier of the surviving network.
    pub fn completed_group(&self, margin: u64) -> u64 {
        let min_group = (0..self.sim.node_count())
            .filter(|&i| self.sim.node_up(NodeId(i as u32)))
            .map(|i| self.sim.process(NodeId(i as u32)).current_group())
            .min()
            .unwrap_or(0);
        min_group.saturating_sub(margin)
    }

    /// Finalises every node and extracts the partial recording: external
    /// events with their group tags, plus committed message losses
    /// (footnote 4). Consumes the network.
    pub fn into_recording(mut self) -> (Recording<P::Ext>, Vec<Vec<CommitRecord>>) {
        let last_group = self.completed_group(0);
        let logs = self.commit_logs();
        // Build the committed send index: MsgId → (sender, committed idx).
        let mut send_index: HashMap<crate::order::MsgId, DropByIndex> = HashMap::new();
        let mut externals: Vec<ExtRecord<P::Ext>> = Vec::new();
        for i in 0..self.sim.node_count() {
            let node = NodeId(i as u32);
            for e in self.sim.process(node).ext_log() {
                externals.push(ExtRecord {
                    node,
                    ext_seq: e.ext_seq,
                    group: e.group,
                    payload: e.payload.clone(),
                });
            }
            let committed = self.sim.process_mut(node).finalize();
            for (idx, id) in committed.into_iter().enumerate() {
                send_index.insert(id, DropByIndex { sender: node, idx: idx as u64 });
            }
        }
        externals.sort_by_key(|e| (e.group, e.node, e.ext_seq));
        // Map in-flight losses back to committed send indexes.
        let mut drops = Vec::new();
        for env in self.sim.dropped_payloads() {
            if let Envelope::App { id, .. } = env {
                if let Some(&d) = send_index.get(id) {
                    drops.push(d);
                }
            }
        }
        drops.sort_by_key(|d| (d.sender, d.idx));
        drops.dedup();
        // Death cuts: nodes down at the end of the run replay only the
        // events they committed before crashing, then fall silent.
        let mut mutes = Vec::new();
        for (i, log) in logs.iter().enumerate() {
            let node = NodeId(i as u32);
            if !self.sim.node_up(node) {
                mutes.push(crate::recorder::MuteRecord {
                    node,
                    allowed: log.iter().map(|r| r.key).collect(),
                });
            }
        }
        // Beacon delivery schedule: which group ticks each node actually
        // delivered (partitions make nodes skip ticks; failovers change the
        // announcing source). Both are downstream of recorded external
        // events, so they are part of the partial recording.
        let mut ticks = Vec::new();
        for (i, log) in logs.iter().enumerate() {
            for r in log {
                if r.ann.class == crate::order::EventClass::Beacon && r.ann.group <= last_group {
                    ticks.push(crate::recorder::TickRecord {
                        node: NodeId(i as u32),
                        group: r.ann.group,
                        source: r.ann.origin,
                    });
                }
            }
        }
        ticks.sort_by_key(|t| (t.group, t.node));
        let recording = Recording {
            n_nodes: self.sim.node_count(),
            source: self.shared.initial_source,
            externals,
            drops,
            mutes,
            ticks,
            last_group,
        };
        (recording, logs)
    }
}

/// Builds an uninstrumented baseline network over the same graph — the
/// "unmodified XORP" configuration every figure compares against.
pub fn baseline_network<P: ControlPlane + 'static>(
    graph: &Graph,
    tick: SimDuration,
    seed: u64,
    jitter_frac: f64,
    mut spawn: impl FnMut(NodeId) -> P + 'static,
) -> Simulator<routing::NativeAdapter<P>> {
    let links = graph.to_links(|e| {
        LinkParams::with_delay(e.delay).jitter(JitterModel::Uniform { frac: jitter_frac })
    });
    SimBuilder::new(graph.node_count())
        .links(links)
        .build(seed, move |id| routing::NativeAdapter::new(spawn(id), tick))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::SimDuration;
    use routing::enc::Reader;
    use routing::ospf::{OspfConfig, OspfProcess};
    use routing::{NativeAdapter, Outbox, Snapshotable, TimerToken};
    use topology::{canonical, TopoMask};

    fn ring_rb(seed: u64, jitter: f64) -> RbNetwork<OspfProcess> {
        let g = canonical::ring(4, SimDuration::from_millis(5));
        let cfg = DefinedConfig::default();
        let spawn: Vec<OspfProcess> = {
            let f = OspfProcess::for_graph(&g, OspfConfig::stress(4));
            (0..4).map(|i| f(NodeId(i))).collect()
        };
        RbNetwork::new(&g, cfg, seed, jitter, move |id| spawn[id.index()].clone())
    }

    #[test]
    fn beacons_advance_groups() {
        let mut net = ring_rb(1, 0.2);
        net.run_until(SimTime::from_secs(5));
        for i in 0..4 {
            let g = net.sim().process(NodeId(i)).current_group();
            assert!(g >= 15, "node {i} group {g} after 5s of 250ms beacons");
        }
    }

    #[test]
    fn ospf_converges_under_rb() {
        let mut net = ring_rb(2, 0.3);
        net.run_until(SimTime::from_secs(12));
        let g = net.graph().clone();
        for i in 0..4 {
            let expected = OspfProcess::expected_table(&g, &TopoMask::default(), NodeId(i));
            assert_eq!(
                *net.control_plane(NodeId(i)).routing_table(),
                expected,
                "node {i} table"
            );
        }
    }

    #[test]
    fn determinism_across_seeds() {
        // The headline property: different jitter seeds, identical committed
        // per-node delivery sequences.
        let run = |seed| {
            let mut net = ring_rb(seed, 0.5);
            net.run_until(SimTime::from_secs(8));
            let last = net.completed_group(2);
            let logs = net.commit_logs();
            logs.into_iter()
                .map(|l| crate::recorder::trim_log(&l, last))
                .collect::<Vec<_>>()
        };
        let a = run(11);
        let b = run(999);
        assert_eq!(a, b, "committed logs must match across seeds");
        assert!(a.iter().map(|l| l.len()).sum::<usize>() > 50, "logs non-trivial");
    }

    /// OSPF that also logs the sender of every delivery, in order.
    #[derive(Clone, Debug)]
    struct Seen {
        cp: OspfProcess,
        from: Vec<NodeId>,
    }

    impl Snapshotable for Seen {
        fn encode(&self, buf: &mut Vec<u8>) {
            self.cp.encode(buf);
        }
        fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
            Some(Seen { cp: OspfProcess::decode_from(r)?, from: Vec::new() })
        }
    }

    impl ControlPlane for Seen {
        type Msg = <OspfProcess as ControlPlane>::Msg;
        type Ext = <OspfProcess as ControlPlane>::Ext;
        fn on_start(&mut self, out: &mut Outbox<Self::Msg>) {
            self.cp.on_start(out);
        }
        fn on_message(&mut self, from: NodeId, msg: &Self::Msg, out: &mut Outbox<Self::Msg>) {
            self.from.push(from);
            self.cp.on_message(from, msg, out);
        }
        fn on_external(&mut self, ev: &Self::Ext, out: &mut Outbox<Self::Msg>) {
            self.cp.on_external(ev, out);
        }
        fn on_timer(&mut self, token: TimerToken, out: &mut Outbox<Self::Msg>) {
            self.cp.on_timer(token, out);
        }
    }

    /// A `baseline_network` of [`Seen`] OSPF nodes over `g`.
    fn seen_baseline(g: &Graph, seed: u64) -> Simulator<NativeAdapter<Seen>> {
        let f = OspfProcess::for_graph(g, OspfConfig::stress(g.node_count()));
        let spawn: Vec<Seen> =
            (0..g.node_count()).map(|i| Seen { cp: f(NodeId(i as u32)), from: Vec::new() }).collect();
        baseline_network(g, SimDuration::from_millis(250), seed, 0.5, move |id| spawn[id.index()].clone())
    }

    fn delivery_orders(sim: &Simulator<NativeAdapter<Seen>>) -> Vec<Vec<NodeId>> {
        (0..sim.node_count())
            .map(|i| sim.process(NodeId(i as u32)).control_plane().from.clone())
            .collect()
    }

    #[test]
    fn baseline_is_not_deterministic() {
        // Sanity check that the masked nondeterminism is real: the baseline
        // delivers in different orders across seeds.
        let g = canonical::ring(4, SimDuration::from_millis(5));
        let run = |seed| {
            let mut sim = seen_baseline(&g, seed);
            sim.run_until(SimTime::from_secs(5));
            delivery_orders(&sim)
        };
        assert_ne!(run(11), run(999));
    }

    /// Golden pin on the baseline network's draws: jitter, a Bernoulli loss
    /// window, a flap, a partition and a node restart. Any change to what
    /// the network RNG decides, or in which order it is asked, moves the
    /// digest of every node's delivery order and the simulator's counters.
    /// The constant was captured on the simulator as it stood before its
    /// drop log, trace log and link modes were removed; a change that moves
    /// it on purpose re-captures it by running this test at its parent.
    #[test]
    fn baseline_draws_are_pinned() {
        let g = canonical::grid(2, 3, SimDuration::from_millis(4));
        let mut sim = seen_baseline(&g, 17);
        sim.set_collect_drop_payloads(true);
        let ms = SimTime::from_millis;
        sim.schedule_link_loss(ms(500), NodeId(1), NodeId(4), netsim::LossModel::Bernoulli { p: 0.5 });
        sim.schedule_link_loss(ms(4000), NodeId(1), NodeId(4), netsim::LossModel::None);
        sim.schedule_link_flap(
            ms(1000),
            NodeId(1),
            NodeId(2),
            SimDuration::from_millis(300),
            SimDuration::from_millis(700),
            3,
        );
        sim.schedule_partition(ms(2000), &[NodeId(0), NodeId(3)], false);
        sim.schedule_partition(ms(3000), &[NodeId(0), NodeId(3)], true);
        sim.schedule_node_admin(ms(4500), NodeId(5), false);
        sim.schedule_node_admin(ms(5500), NodeId(5), true);
        sim.run_until(SimTime::from_secs(8));
        let counters: Vec<_> = sim.metrics().iter().map(|(_, m)| *m).collect();
        let seen = format!(
            "{:?} {:?} {:?} {}",
            delivery_orders(&sim),
            counters,
            sim.queue_stats(),
            sim.dropped_payloads().len()
        );
        assert!(sim.metrics().total_dropped() > 0, "the faults must cost packets");
        assert_eq!(routing::fnv1a(seen.as_bytes()), 4_524_183_753_547_855_698, "{seen}");
    }

    #[test]
    fn rollbacks_happen_under_jitter() {
        let mut net = ring_rb(3, 0.9);
        net.run_until(SimTime::from_secs(10));
        let m = net.total_metrics();
        assert!(m.fast_path > 0);
        assert!(m.rollbacks > 0, "heavy jitter should force some rollbacks");
        assert_eq!(m.window_violations, 0);
    }

    #[test]
    fn recording_extraction_works() {
        let mut net = ring_rb(4, 0.3);
        net.run_until(SimTime::from_secs(4));
        let (rec, logs) = net.into_recording();
        assert_eq!(rec.n_nodes, 4);
        assert!(rec.last_group >= 10);
        // Startup is implicit; no runtime externals were injected.
        assert!(rec.externals.is_empty());
        assert_eq!(logs.len(), 4);
        let bytes = rec.to_bytes();
        assert_eq!(Recording::from_bytes(&bytes), Some(rec));
    }

    #[test]
    fn loss_window_and_flap_reproduce_in_lockstep() {
        // The new fault hooks must stay inside Theorem 1: a run with a
        // Bernoulli loss window and a link flap replays exactly from its
        // partial recording.
        let g = canonical::ring(4, SimDuration::from_millis(5));
        let f = OspfProcess::for_graph(&g, OspfConfig::stress(4));
        let procs: Vec<OspfProcess> = (0..4).map(|i| f(NodeId(i))).collect();
        let p2 = procs.clone();
        let mut net =
            RbNetwork::new(&g, DefinedConfig::default(), 21, 0.5, move |id| procs[id.index()].clone());
        net.schedule_loss_window(
            SimTime::from_millis(1500),
            SimTime::from_millis(3000),
            NodeId(1),
            NodeId(2),
            0.5,
        );
        net.schedule_flap(
            SimTime::from_millis(3500),
            NodeId(0),
            NodeId(3),
            SimDuration::from_millis(400),
            SimDuration::from_millis(900),
            2,
        );
        net.run_until(SimTime::from_secs(7));
        let upto = net.completed_group(2);
        let (rec, rb_logs) = net.into_recording();
        assert!(!rec.drops.is_empty(), "window + flap should cost some packets");
        let mut ls = crate::ls::LockstepNet::new(&g, DefinedConfig::default(), rec, move |id| {
            p2[id.index()].clone()
        });
        ls.run_to_end();
        let div = crate::ls::first_divergence(&rb_logs, ls.logs(), upto);
        assert!(div.is_none(), "loss-window replay diverged: {div:?}");
    }

    #[test]
    fn partition_hook_cuts_and_heals() {
        let g = canonical::grid(2, 3, SimDuration::from_millis(4));
        let f = OspfProcess::for_graph(&g, OspfConfig::stress(6));
        let procs: Vec<OspfProcess> = (0..6).map(|i| f(NodeId(i))).collect();
        let mut net =
            RbNetwork::new(&g, DefinedConfig::default(), 2, 0.3, move |id| procs[id.index()].clone());
        let cut = net.schedule_partition(
            SimTime::from_secs(2),
            Some(SimTime::from_secs(4)),
            &[NodeId(0), NodeId(3)],
        );
        // Grid 2x3 (row-major): {0,3} is the left column; 0-1 and 3-4 cross.
        assert_eq!(cut, vec![(NodeId(0), NodeId(1)), (NodeId(3), NodeId(4))]);
        net.run_until(SimTime::from_secs(3));
        assert!(!net.sim().link_up(NodeId(0), NodeId(1)));
        assert!(net.sim().link_up(NodeId(0), NodeId(3)), "intra-side link stays up");
        net.run_until(SimTime::from_secs(6));
        assert!(net.sim().link_up(NodeId(0), NodeId(1)), "partition healed");
    }

    #[test]
    fn commit_horizon_gc_bounds_history() {
        let g = canonical::ring(4, SimDuration::from_millis(5));
        let cfg = DefinedConfig::production(SimDuration::from_millis(500));
        let f = OspfProcess::for_graph(&g, OspfConfig::stress(4));
        let spawn: Vec<OspfProcess> = (0..4).map(|i| f(NodeId(i))).collect();
        let mut net = RbNetwork::new(&g, cfg, 5, 0.3, move |id| spawn[id.index()].clone());
        net.run_until(SimTime::from_secs(20));
        let m = net.total_metrics();
        assert_eq!(m.window_violations, 0, "horizon must be safe");
        for i in 0..4 {
            let len = net.sim().process(NodeId(i)).history_len();
            assert!(len < 200, "node {i} history {len} should be GC-bounded");
        }
    }
}
