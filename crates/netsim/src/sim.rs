//! The event loop: builds a network of [`Process`] nodes and runs it.

use crate::event::{EventQueue, QueueStats};
use crate::link::{Link, LinkKey, LinkParams, LossModel};
use crate::metrics::Metrics;
use crate::process::{Action, NodeId, Process, ProcessCtx, TimerId, TimerKey};
use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, HashSet};

/// Seed base for per-node process RNGs.
///
/// Deliberately *not* mixed with the run seed: node-local randomness is
/// identical across runs, modelling the paper's assumption that single-node
/// internal nondeterminism has been removed (§2.5). Only the network RNG
/// (jitter, loss) varies with the run seed.
const NODE_SEED_BASE: u64 = 0xDEF1_AED0_5EED_0000;

enum Ev<M, X> {
    Deliver { src: NodeId, dst: NodeId, msg: M, control: bool },
    Timer { node: NodeId, id: TimerId, key: TimerKey },
    LinkAdmin { a: NodeId, b: NodeId, up: bool },
    NodeAdmin { node: NodeId, up: bool },
    External { node: NodeId, ev: X },
    LossAdmin { a: NodeId, b: NodeId, loss: LossModel },
}

struct NodeSlot<P> {
    process: P,
    up: bool,
    /// Times this node was respawned by a `NodeAdmin { up: true }`.
    restarts: u32,
    rng: DetRng,
}

/// Declarative description of the network, consumed by [`SimBuilder::build`].
pub struct SimBuilder {
    n: usize,
    links: Vec<(NodeId, NodeId, LinkParams)>,
}

impl SimBuilder {
    /// Starts a builder for a network of `n` nodes (ids `0..n`).
    pub fn new(n: usize) -> Self {
        SimBuilder { n, links: Vec::new() }
    }

    /// Adds a bidirectional link (two directed links with equal parameters).
    pub fn link(mut self, a: NodeId, b: NodeId, params: LinkParams) -> Self {
        self.links.push((a, b, params));
        self
    }

    /// Adds every `(a, b, params)` triple as a bidirectional link.
    pub fn links(mut self, it: impl IntoIterator<Item = (NodeId, NodeId, LinkParams)>) -> Self {
        self.links.extend(it);
        self
    }

    /// Instantiates the simulator. `seed` drives only network nondeterminism
    /// (jitter and loss); `spawn` creates each node's process.
    ///
    /// # Panics
    ///
    /// Panics if a link references a node id `>= n`.
    pub fn build<P, F>(self, seed: u64, mut spawn: F) -> Simulator<P>
    where
        P: Process,
        F: FnMut(NodeId) -> P + 'static,
    {
        let mut links = BTreeMap::new();
        for &(a, b, params) in &self.links {
            assert!(a.index() < self.n && b.index() < self.n, "link endpoint out of range");
            links.insert(LinkKey { src: a, dst: b }, Link::new(params));
            links.insert(LinkKey { src: b, dst: a }, Link::new(params));
        }
        let nodes: Vec<NodeSlot<P>> = (0..self.n)
            .map(|i| NodeSlot {
                process: spawn(NodeId(i as u32)),
                up: true,
                restarts: 0,
                rng: DetRng::new(NODE_SEED_BASE | i as u64),
            })
            .collect();
        let mut sim = Simulator {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            nodes,
            links,
            neighbors: Vec::new(),
            net_rng: DetRng::new(seed),
            metrics: Metrics::new(self.n),
            next_timer_id: 0,
            armed: HashSet::new(),
            spawn: Box::new(spawn),
            collect_drop_payloads: false,
            dropped_payloads: Vec::new(),
        };
        sim.rebuild_neighbors();
        for i in 0..sim.nodes.len() {
            sim.with_ctx(NodeId(i as u32), |p, ctx| p.on_start(ctx));
        }
        sim
    }
}

/// A running simulation over processes of type `P`.
pub struct Simulator<P: Process> {
    now: SimTime,
    queue: EventQueue<Ev<P::Msg, P::Ext>>,
    nodes: Vec<NodeSlot<P>>,
    links: BTreeMap<LinkKey, Link>,
    neighbors: Vec<Vec<NodeId>>,
    net_rng: DetRng,
    metrics: Metrics,
    next_timer_id: u64,
    armed: HashSet<TimerId>,
    spawn: Box<dyn FnMut(NodeId) -> P>,
    collect_drop_payloads: bool,
    dropped_payloads: Vec<P::Msg>,
}

impl<P: Process> Simulator<P> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Immutable access to a node's process.
    pub fn process(&self, id: NodeId) -> &P {
        &self.nodes[id.index()].process
    }

    /// Mutable access to a node's process (for debugger-style state edits).
    pub fn process_mut(&mut self, id: NodeId) -> &mut P {
        &mut self.nodes[id.index()].process
    }

    /// Whether the node is administratively up.
    pub fn node_up(&self, id: NodeId) -> bool {
        self.nodes[id.index()].up
    }

    /// How many times the node has been restarted with a fresh process
    /// (see [`schedule_node_admin`](Self::schedule_node_admin)). Anything
    /// that holds a position into a process's state across events must
    /// discard it when this moves: the process it pointed into is gone.
    pub fn node_restarts(&self, id: NodeId) -> u32 {
        self.nodes[id.index()].restarts
    }

    /// Whether the directed link is present and administratively up.
    pub fn link_up(&self, src: NodeId, dst: NodeId) -> bool {
        self.links.get(&LinkKey { src, dst }).map(|l| l.up).unwrap_or(false)
    }

    /// Per-node counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Event-queue statistics.
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }

    /// Enables capture of dropped payloads, which DEFINED's recorder uses to
    /// map losses back to the messages that suffered them.
    pub fn set_collect_drop_payloads(&mut self, on: bool) {
        self.collect_drop_payloads = on;
    }

    /// Dropped payloads captured so far (see
    /// [`Simulator::set_collect_drop_payloads`]).
    pub fn dropped_payloads(&self) -> &[P::Msg] {
        &self.dropped_payloads
    }

    /// Schedules an external input for `node` at absolute time `t`.
    pub fn schedule_external(&mut self, t: SimTime, node: NodeId, ev: P::Ext) {
        self.queue.push(t, Ev::External { node, ev });
    }

    /// Schedules both directions of the `a — b` link to go down/up at `t`.
    pub fn schedule_link_admin(&mut self, t: SimTime, a: NodeId, b: NodeId, up: bool) {
        self.queue.push(t, Ev::LinkAdmin { a, b, up });
    }

    /// Schedules node `node` to crash (`up = false`) or restart with a fresh
    /// process (`up = true`) at `t`.
    pub fn schedule_node_admin(&mut self, t: SimTime, node: NodeId, up: bool) {
        self.queue.push(t, Ev::NodeAdmin { node, up });
    }

    /// Schedules `count` down/up cycles of the `a — b` link: the link goes
    /// down at `start + k * period` and comes back `down_for` later, for
    /// `k` in `0..count`.
    ///
    /// # Panics
    ///
    /// Panics unless `down_for < period` (each flap must recover before the
    /// next begins).
    pub fn schedule_link_flap(
        &mut self,
        start: SimTime,
        a: NodeId,
        b: NodeId,
        down_for: SimDuration,
        period: SimDuration,
        count: u32,
    ) {
        assert!(down_for < period, "flap down time must be shorter than its period");
        for k in 0..count {
            let down_at = start + period * k as u64;
            self.schedule_link_admin(down_at, a, b, false);
            self.schedule_link_admin(down_at + down_for, a, b, true);
        }
    }

    /// Schedules every link with exactly one endpoint in `side` to go down
    /// (`up = false`) or up (`up = true`) at `t` — a bisection partition of
    /// the network, or its heal. Returns the affected undirected pairs so
    /// callers can report or re-heal the exact cut.
    pub fn schedule_partition(&mut self, t: SimTime, side: &[NodeId], up: bool) -> Vec<(NodeId, NodeId)> {
        let inside: HashSet<NodeId> = side.iter().copied().collect();
        let mut cut = Vec::new();
        for key in self.links.keys() {
            if key.src < key.dst && inside.contains(&key.src) != inside.contains(&key.dst) {
                cut.push((key.src, key.dst));
            }
        }
        for &(a, b) in &cut {
            self.schedule_link_admin(t, a, b, up);
        }
        cut
    }

    /// Schedules both directions of the `a — b` link to switch to `loss` at
    /// `t` — a message-loss window is one such event installing a Bernoulli
    /// model and a second one restoring [`LossModel::None`].
    pub fn schedule_link_loss(&mut self, t: SimTime, a: NodeId, b: NodeId, loss: LossModel) {
        self.queue.push(t, Ev::LossAdmin { a, b, loss });
    }

    /// Runs until the queue is exhausted or the next event is after
    /// `deadline`; leaves `now == deadline` unless exhausted earlier.
    pub fn run_until(&mut self, deadline: SimTime) {
        while self.step_until(deadline) {}
        if self.now < deadline && deadline != SimTime::MAX {
            self.now = deadline;
        }
    }

    /// Runs until `keep_going` returns false or `deadline` passes. The
    /// predicate is evaluated after every processed event.
    pub fn run_while(
        &mut self,
        deadline: SimTime,
        mut keep_going: impl FnMut(&Simulator<P>) -> bool,
    ) {
        while keep_going(self) {
            if !self.step_until(deadline) {
                break;
            }
        }
    }

    /// Processes the next event if it is due at or before `deadline`.
    ///
    /// Returns `false` when the queue is empty or the next event lies beyond
    /// the deadline. Cancelled timers are skipped transparently.
    pub fn step_until(&mut self, deadline: SimTime) -> bool {
        loop {
            match self.queue.peek_time() {
                Some(t) if t <= deadline => {}
                _ => return false,
            }
            let ev = self.queue.pop().expect("peeked");
            self.now = ev.time;
            match ev.payload {
                Ev::Deliver { src, dst, msg, control } => {
                    // Loss is decided at delivery time, by the loss model the
                    // link carries then. Control packets never suffer
                    // stochastic loss.
                    let link = &self.links[&LinkKey { src, dst }];
                    let lost = match link.params.loss {
                        LossModel::Bernoulli { p } if !control => self.net_rng.gen_bool(p),
                        _ => false,
                    };
                    if lost || !link.up || !self.nodes[dst.index()].up {
                        self.record_drop(dst, msg);
                    } else {
                        self.metrics.node_mut(dst).msgs_received += 1;
                        self.with_ctx(dst, |p, ctx| p.on_message(ctx, src, msg));
                    }
                    return true;
                }
                Ev::Timer { node, id, key } => {
                    if !self.armed.remove(&id) || !self.nodes[node.index()].up {
                        continue; // Cancelled or owner down: skip silently.
                    }
                    self.metrics.node_mut(node).timers_fired += 1;
                    self.with_ctx(node, |p, ctx| p.on_timer(ctx, id, key));
                    return true;
                }
                Ev::LinkAdmin { a, b, up } => {
                    self.set_link_state(a, b, up);
                    if self.nodes[a.index()].up {
                        self.with_ctx(a, |p, ctx| p.on_link_change(ctx, b, up));
                    }
                    if self.nodes[b.index()].up {
                        self.with_ctx(b, |p, ctx| p.on_link_change(ctx, a, up));
                    }
                    return true;
                }
                Ev::NodeAdmin { node, up } => {
                    if up {
                        let slot = &mut self.nodes[node.index()];
                        slot.up = true;
                        slot.restarts += 1;
                        slot.process = (self.spawn)(node);
                        self.with_ctx(node, |p, ctx| p.on_start(ctx));
                    } else {
                        self.nodes[node.index()].up = false;
                    }
                    return true;
                }
                Ev::External { node, ev } => {
                    if !self.nodes[node.index()].up {
                        continue;
                    }
                    self.metrics.node_mut(node).externals += 1;
                    self.with_ctx(node, |p, ctx| p.on_external(ctx, ev));
                    return true;
                }
                Ev::LossAdmin { a, b, loss } => {
                    for key in [LinkKey { src: a, dst: b }, LinkKey { src: b, dst: a }] {
                        if let Some(l) = self.links.get_mut(&key) {
                            l.params.loss = loss;
                        }
                    }
                    return true;
                }
            }
        }
    }

    fn set_link_state(&mut self, a: NodeId, b: NodeId, up: bool) {
        for key in [LinkKey { src: a, dst: b }, LinkKey { src: b, dst: a }] {
            if let Some(l) = self.links.get_mut(&key) {
                l.up = up;
            }
        }
        self.rebuild_neighbors();
    }

    fn rebuild_neighbors(&mut self) {
        let n = self.nodes.len();
        let mut adj = vec![Vec::new(); n];
        for (key, link) in &self.links {
            if link.up {
                adj[key.src.index()].push(key.dst);
            }
        }
        for v in &mut adj {
            v.sort_unstable();
        }
        self.neighbors = adj;
    }

    /// Runs `f` with a fresh context for `node`, then applies the buffered
    /// actions.
    fn with_ctx(&mut self, node: NodeId, f: impl FnOnce(&mut P, &mut ProcessCtx<'_, P::Msg>)) {
        let idx = node.index();
        let slot = &mut self.nodes[idx];
        let mut ctx = ProcessCtx {
            node,
            now: self.now,
            neighbors: &self.neighbors[idx],
            rng: &mut slot.rng,
            actions: Vec::new(),
            next_timer_id: &mut self.next_timer_id,
        };
        f(&mut slot.process, &mut ctx);
        let actions = ctx.actions;
        self.apply_actions(node, actions);
    }

    fn apply_actions(&mut self, node: NodeId, actions: Vec<Action<P::Msg>>) {
        for action in actions {
            match action {
                Action::Send { to, msg, extra_delay, control } => {
                    self.do_send(node, to, msg, extra_delay, control)
                }
                Action::SetTimer { id, delay, key } => {
                    self.armed.insert(id);
                    self.queue.push(self.now + delay, Ev::Timer { node, id, key });
                }
                Action::CancelTimer(id) => {
                    self.armed.remove(&id);
                }
            }
        }
    }

    fn do_send(
        &mut self,
        src: NodeId,
        dst: NodeId,
        msg: P::Msg,
        extra_delay: SimDuration,
        control: bool,
    ) {
        // No such link: the send is silently discarded.
        let Some(link) = self.links.get(&LinkKey { src, dst }) else {
            return;
        };
        self.metrics.node_mut(src).msgs_sent += 1;
        if !link.up {
            self.record_drop(dst, msg);
            return;
        }
        let params = link.params;
        let jitter = if control {
            SimDuration::ZERO
        } else {
            params.jitter.sample(params.delay, &mut self.net_rng)
        };
        let deliver_at = self.now + extra_delay + params.delay + jitter;
        self.queue.push(deliver_at, Ev::Deliver { src, dst, msg, control });
    }

    fn record_drop(&mut self, dst: NodeId, msg: P::Msg) {
        self.metrics.node_mut(dst).msgs_dropped += 1;
        if self.collect_drop_payloads {
            self.dropped_payloads.push(msg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::JitterModel;
    use crate::time::SimDuration;

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Ping(u32),
        Pong(u32),
    }

    /// Node 0 pings everyone on start; everyone pongs back. Each node logs
    /// what reached it: deliveries as `(when, from)`, link changes as
    /// `(when, peer, up)`.
    #[derive(Default)]
    struct PingPong {
        pings: Vec<(NodeId, u32)>,
        pongs: Vec<(NodeId, u32)>,
        timer_fired: u32,
        delivered: Vec<(SimTime, NodeId)>,
        link_events: Vec<(SimTime, NodeId, bool)>,
    }

    impl Process for PingPong {
        type Msg = Msg;
        type Ext = u32;

        fn on_start(&mut self, ctx: &mut ProcessCtx<'_, Msg>) {
            if ctx.id() == NodeId(0) {
                for (i, &nb) in ctx.neighbors().to_vec().iter().enumerate() {
                    ctx.send(nb, Msg::Ping(i as u32));
                }
            }
        }

        fn on_message(&mut self, ctx: &mut ProcessCtx<'_, Msg>, from: NodeId, msg: Msg) {
            self.delivered.push((ctx.now(), from));
            match msg {
                Msg::Ping(x) => {
                    self.pings.push((from, x));
                    ctx.send(from, Msg::Pong(x));
                }
                Msg::Pong(x) => self.pongs.push((from, x)),
            }
        }

        fn on_external(&mut self, ctx: &mut ProcessCtx<'_, Msg>, ev: u32) {
            // Externals trigger a ping to the first neighbour.
            if let Some(&nb) = ctx.neighbors().first() {
                ctx.send(nb, Msg::Ping(ev));
            }
        }

        fn on_timer(&mut self, _ctx: &mut ProcessCtx<'_, Msg>, _id: TimerId, _key: TimerKey) {
            self.timer_fired += 1;
        }

        fn on_link_change(&mut self, ctx: &mut ProcessCtx<'_, Msg>, peer: NodeId, up: bool) {
            self.link_events.push((ctx.now(), peer, up));
        }
    }

    fn triangle(seed: u64) -> Simulator<PingPong> {
        triangle_with(seed, LinkParams::with_delay(SimDuration::from_millis(10)))
    }

    fn triangle_with(seed: u64, d: LinkParams) -> Simulator<PingPong> {
        SimBuilder::new(3)
            .link(NodeId(0), NodeId(1), d)
            .link(NodeId(1), NodeId(2), d)
            .link(NodeId(0), NodeId(2), d)
            .build(seed, |_| PingPong::default())
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut sim = triangle(1);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.process(NodeId(1)).pings.len(), 1);
        assert_eq!(sim.process(NodeId(2)).pings.len(), 1);
        assert_eq!(sim.process(NodeId(0)).pongs.len(), 2);
        assert_eq!(sim.metrics().total_sent(), 4);
        assert_eq!(sim.metrics().total_received(), 4);
    }

    #[test]
    fn identical_seeds_identical_runs() {
        let run = |seed| {
            let p = LinkParams::with_delay(SimDuration::from_millis(10))
                .jitter(JitterModel::Uniform { frac: 1.0 })
                .loss(LossModel::Bernoulli { p: 0.2 });
            let mut sim = triangle_with(seed, p);
            for i in 0..30u64 {
                sim.schedule_external(SimTime::from_millis(i * 3), NodeId((i % 3) as u32), i as u32);
            }
            sim.schedule_link_flap(
                SimTime::from_millis(20),
                NodeId(1),
                NodeId(2),
                SimDuration::from_millis(5),
                SimDuration::from_millis(30),
                2,
            );
            sim.run_until(SimTime::from_secs(1));
            let seen = (0..3)
                .map(|i| {
                    let p = sim.process(NodeId(i));
                    (p.delivered.clone(), p.link_events.clone())
                })
                .collect::<Vec<_>>();
            (seen, sim.metrics().total_dropped())
        };
        let a = run(77);
        assert_eq!(a, run(77));
        assert_ne!(a, run(78), "the seed must matter, or the check above shows nothing");
    }

    #[test]
    fn jitter_reorders_across_seeds() {
        // With heavy jitter, two seeds should produce different delivery
        // orders at node 2 when nodes 0 and 1 both send to it.
        #[derive(Default)]
        struct Sink {
            order: Vec<NodeId>,
        }
        impl Process for Sink {
            type Msg = u8;
            type Ext = ();
            fn on_start(&mut self, ctx: &mut ProcessCtx<'_, u8>) {
                if ctx.id() != NodeId(2) {
                    for i in 0..20 {
                        ctx.send(NodeId(2), i);
                    }
                }
            }
            fn on_message(&mut self, _ctx: &mut ProcessCtx<'_, u8>, from: NodeId, _m: u8) {
                self.order.push(from);
            }
        }
        let build = |seed| {
            let p = LinkParams::with_delay(SimDuration::from_millis(10))
                .jitter(JitterModel::Uniform { frac: 1.0 });
            let mut sim = SimBuilder::new(3)
                .link(NodeId(0), NodeId(2), p)
                .link(NodeId(1), NodeId(2), p)
                .build(seed, |_| Sink::default());
            sim.run_until(SimTime::from_secs(1));
            sim.process(NodeId(2)).order.clone()
        };
        let o1 = build(1);
        let o2 = build(2);
        assert_eq!(o1.len(), 40);
        assert_ne!(o1, o2, "expected different interleavings across seeds");
    }

    #[test]
    fn loss_drops_packets_and_records_them() {
        #[derive(Default)]
        struct Sink {
            got: usize,
        }
        impl Process for Sink {
            type Msg = u8;
            type Ext = ();
            fn on_start(&mut self, ctx: &mut ProcessCtx<'_, u8>) {
                if ctx.id() == NodeId(0) {
                    for i in 0..200 {
                        ctx.send(NodeId(1), (i % 256) as u8);
                    }
                }
            }
            fn on_message(&mut self, _ctx: &mut ProcessCtx<'_, u8>, _from: NodeId, _m: u8) {
                self.got += 1;
            }
        }
        let p = LinkParams::with_delay(SimDuration::from_millis(1))
            .loss(LossModel::Bernoulli { p: 0.3 });
        let mut sim = SimBuilder::new(2)
            .link(NodeId(0), NodeId(1), p)
            .build(9, |_| Sink::default());
        sim.run_until(SimTime::from_secs(1));
        let got = sim.process(NodeId(1)).got;
        assert!(got < 200, "some packets must drop");
        assert_eq!(got as u64 + sim.metrics().total_dropped(), 200);
    }

    #[test]
    fn timers_fire_and_cancel() {
        struct T {
            fired: Vec<TimerKey>,
        }
        impl Process for T {
            type Msg = ();
            type Ext = ();
            fn on_start(&mut self, ctx: &mut ProcessCtx<'_, ()>) {
                ctx.set_timer(SimDuration::from_millis(10), TimerKey(1));
                let c = ctx.set_timer(SimDuration::from_millis(20), TimerKey(2));
                ctx.cancel_timer(c);
                ctx.set_timer(SimDuration::from_millis(30), TimerKey(3));
            }
            fn on_message(&mut self, _ctx: &mut ProcessCtx<'_, ()>, _from: NodeId, _m: ()) {}
            fn on_timer(&mut self, _ctx: &mut ProcessCtx<'_, ()>, _id: TimerId, key: TimerKey) {
                self.fired.push(key);
            }
        }
        let mut sim = SimBuilder::new(1).build(1, |_| T { fired: Vec::new() });
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.process(NodeId(0)).fired, vec![TimerKey(1), TimerKey(3)]);
    }

    #[test]
    fn link_down_drops_in_flight_and_notifies() {
        let mut sim = triangle(3);
        sim.schedule_link_admin(SimTime::from_millis(1), NodeId(0), NodeId(1), false);
        sim.run_until(SimTime::from_secs(1));
        // Ping from 0 to 1 was in flight (sent at t=0, 10ms delay) when the
        // link dropped at 1ms, so node 1 never saw it.
        assert_eq!(sim.process(NodeId(1)).pings.len(), 0);
        assert!(!sim.process(NodeId(0)).link_events.is_empty());
        assert!(!sim.process(NodeId(1)).link_events.is_empty());
    }

    #[test]
    fn node_restart_resets_state() {
        let mut sim = triangle(3);
        sim.run_until(SimTime::from_millis(100));
        assert!(!sim.process(NodeId(1)).pings.is_empty());
        sim.schedule_node_admin(SimTime::from_millis(200), NodeId(1), false);
        sim.schedule_node_admin(SimTime::from_millis(300), NodeId(1), true);
        sim.run_until(SimTime::from_secs(1));
        assert!(sim.node_up(NodeId(1)));
        assert!(sim.process(NodeId(1)).pings.is_empty(), "restart spawns fresh state");
        assert_eq!(sim.node_restarts(NodeId(1)), 1, "the respawn is counted");
        assert_eq!(sim.node_restarts(NodeId(0)), 0, "untouched nodes count none");
    }

    #[test]
    fn externals_reach_processes() {
        let mut sim = triangle(3);
        sim.schedule_external(SimTime::from_millis(50), NodeId(2), 42);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.metrics().node(NodeId(2)).externals, 1);
        // The external made node 2 ping its first neighbour (node 0).
        assert!(sim.process(NodeId(0)).pings.iter().any(|&(from, x)| from == NodeId(2) && x == 42));
    }

    #[test]
    fn down_node_drops_deliveries() {
        let mut sim = triangle(3);
        sim.schedule_node_admin(SimTime::from_millis(1), NodeId(1), false);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.process(NodeId(1)).pings.len(), 0);
        assert!(sim.metrics().node(NodeId(1)).msgs_dropped >= 1);
    }

    /// Control-channel sends arrive at exactly the base delay, independent
    /// of the seed, while ordinary sends jitter.
    #[test]
    fn control_sends_are_jitter_free() {
        #[derive(Default)]
        struct Sink {
            arrivals: Vec<(SimTime, u8)>,
        }
        impl Process for Sink {
            type Msg = u8;
            type Ext = ();
            fn on_start(&mut self, ctx: &mut ProcessCtx<'_, u8>) {
                if ctx.id() == NodeId(0) {
                    for i in 0..10 {
                        ctx.send_control(NodeId(1), i);
                        ctx.send(NodeId(1), 100 + i);
                    }
                }
            }
            fn on_message(&mut self, ctx: &mut ProcessCtx<'_, u8>, _from: NodeId, m: u8) {
                self.arrivals.push((ctx.now(), m));
            }
        }
        let run = |seed| {
            let p = LinkParams::with_delay(SimDuration::from_millis(10))
                .jitter(JitterModel::Uniform { frac: 1.0 });
            let mut sim =
                SimBuilder::new(2).link(NodeId(0), NodeId(1), p).build(seed, |_| Sink::default());
            sim.run_until(SimTime::from_secs(1));
            sim.process(NodeId(1)).arrivals.clone()
        };
        let a = run(1);
        let b = run(2);
        let control = |v: &[(SimTime, u8)]| -> Vec<(SimTime, u8)> {
            v.iter().copied().filter(|&(_, m)| m < 100).collect()
        };
        let data = |v: &[(SimTime, u8)]| -> Vec<(SimTime, u8)> {
            v.iter().copied().filter(|&(_, m)| m >= 100).collect()
        };
        // Control arrivals: exactly the 10 ms base delay, identical across
        // seeds.
        assert_eq!(control(&a), control(&b));
        assert!(control(&a).iter().all(|&(t, _)| t == SimTime::from_millis(10)));
        // Data arrivals: seed-dependent.
        assert_ne!(data(&a), data(&b));
    }

    /// Control-channel sends are exempt from stochastic loss but still die
    /// on a down link.
    #[test]
    fn control_sends_skip_loss_but_not_down_links() {
        #[derive(Default)]
        struct Sink {
            got: usize,
        }
        impl Process for Sink {
            type Msg = u8;
            type Ext = ();
            fn on_external(&mut self, ctx: &mut ProcessCtx<'_, u8>, _ev: ()) {
                if ctx.id() == NodeId(0) {
                    ctx.send_control(NodeId(1), 1);
                }
            }
            fn on_message(&mut self, _ctx: &mut ProcessCtx<'_, u8>, _from: NodeId, _m: u8) {
                self.got += 1;
            }
        }
        let p = LinkParams::with_delay(SimDuration::from_millis(1))
            .loss(LossModel::Bernoulli { p: 0.9 });
        let mut sim =
            SimBuilder::new(2).link(NodeId(0), NodeId(1), p).build(3, |_| Sink::default());
        for i in 0..100u64 {
            sim.schedule_external(SimTime::from_millis(i * 2), NodeId(0), ());
        }
        sim.run_until(SimTime::from_millis(250));
        assert_eq!(sim.process(NodeId(1)).got, 100, "90% loss must not touch control");
        // But an administratively down link drops control packets too.
        sim.schedule_link_admin(SimTime::from_millis(300), NodeId(0), NodeId(1), false);
        sim.schedule_external(SimTime::from_millis(301), NodeId(0), ());
        sim.run_until(SimTime::from_millis(400));
        assert_eq!(sim.process(NodeId(1)).got, 100, "down link still drops control");
    }

    #[test]
    fn link_flap_schedules_paired_transitions() {
        let mut sim = triangle(6);
        // Three 100 ms outages every 300 ms starting at 1 s.
        sim.schedule_link_flap(
            SimTime::from_secs(1),
            NodeId(0),
            NodeId(1),
            SimDuration::from_millis(100),
            SimDuration::from_millis(300),
            3,
        );
        sim.run_until(SimTime::from_secs(3));
        let changes: Vec<(SimTime, bool)> = sim
            .process(NodeId(0))
            .link_events
            .iter()
            .filter(|&&(_, peer, _)| peer == NodeId(1))
            .map(|&(t, _, up)| (t, up))
            .collect();
        assert_eq!(changes.len(), 6, "three down/up pairs: {changes:?}");
        assert!(changes.iter().step_by(2).all(|&(_, up)| !up));
        assert!(changes.iter().skip(1).step_by(2).all(|&(_, up)| up));
        assert_eq!(changes[0].0, SimTime::from_secs(1));
        assert_eq!(changes[1].0, SimTime::from_millis(1100));
        assert_eq!(changes[4].0, SimTime::from_millis(1600));
        assert!(sim.link_up(NodeId(0), NodeId(1)), "link restored after the last flap");
    }

    #[test]
    #[should_panic(expected = "flap down time")]
    fn link_flap_rejects_overlapping_cycles() {
        let mut sim = triangle(1);
        sim.schedule_link_flap(
            SimTime::ZERO,
            NodeId(0),
            NodeId(1),
            SimDuration::from_millis(300),
            SimDuration::from_millis(300),
            2,
        );
    }

    #[test]
    fn partition_cuts_exactly_the_crossing_links() {
        let mut sim = triangle(2);
        let cut = sim.schedule_partition(SimTime::from_millis(5), &[NodeId(0)], false);
        assert_eq!(cut, vec![(NodeId(0), NodeId(1)), (NodeId(0), NodeId(2))]);
        sim.run_until(SimTime::from_millis(10));
        assert!(!sim.link_up(NodeId(0), NodeId(1)));
        assert!(!sim.link_up(NodeId(0), NodeId(2)));
        assert!(sim.link_up(NodeId(1), NodeId(2)), "intra-side link untouched");
        let healed = sim.schedule_partition(SimTime::from_millis(20), &[NodeId(0)], true);
        assert_eq!(healed, cut);
        sim.run_until(SimTime::from_millis(30));
        assert!(sim.link_up(NodeId(0), NodeId(1)));
        assert!(sim.link_up(NodeId(0), NodeId(2)));
    }

    #[test]
    fn loss_window_drops_only_inside_the_window() {
        #[derive(Default)]
        struct Sink {
            got: usize,
        }
        impl Process for Sink {
            type Msg = u8;
            type Ext = ();
            fn on_external(&mut self, ctx: &mut ProcessCtx<'_, u8>, _ev: ()) {
                if ctx.id() == NodeId(0) {
                    ctx.send(NodeId(1), 1);
                }
            }
            fn on_message(&mut self, _ctx: &mut ProcessCtx<'_, u8>, _from: NodeId, _m: u8) {
                self.got += 1;
            }
        }
        let p = LinkParams::with_delay(SimDuration::from_micros(100));
        let mut sim =
            SimBuilder::new(2).link(NodeId(0), NodeId(1), p).build(3, |_| Sink::default());
        // 100 sends before, 100 inside, 100 after a total-loss window.
        for i in 0..300u64 {
            sim.schedule_external(SimTime::from_millis(i), NodeId(0), ());
        }
        sim.schedule_link_loss(
            SimTime::from_millis(100),
            NodeId(0),
            NodeId(1),
            LossModel::Bernoulli { p: 1.0 },
        );
        sim.schedule_link_loss(SimTime::from_millis(200), NodeId(0), NodeId(1), LossModel::None);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.process(NodeId(1)).got, 200, "only the window's packets die");
        assert_eq!(sim.metrics().total_dropped(), 100);
    }

    #[test]
    fn run_while_stops_on_predicate() {
        let mut sim = triangle(4);
        let mut steps = 0;
        sim.run_while(SimTime::from_secs(1), |_| {
            steps += 1;
            steps <= 2
        });
        assert_eq!(steps, 3);
    }
}
