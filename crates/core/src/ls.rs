//! DEFINED-LS: the lockstep debugging network (paper §2.3).
//!
//! [`LockstepNet`] replays a partial [`Recording`] group by group. Within a
//! group, execution proceeds in sub-cycles that alternate the paper's
//! *transmission* and *processing* phases: every message materialised in
//! sub-cycle `c` has causal chain depth `c+1` and is delivered — sorted by
//! the same ordering function the production network used — in sub-cycle
//! `c+1`. Because the production order key leads with `(group, chain)`, the
//! lockstep delivery order *is* the production committed order, which is how
//! Theorem 1 (reproducibility) holds by construction here. What a delivery
//! *does* is not defined here at all: each one is the kernel the production
//! shim runs ([`NodeSnapshot::execute`]), annotated by the same
//! [`RbShared`] recipes.
//!
//! Recorded message losses are replayed by committed send index
//! (footnote 4), and recorded external events are injected at the start of
//! the group they were tagged with.
//!
//! The engine exposes single-event stepping for the interactive debugger and
//! a timed model ([`LockstepNet::step_times`]) that estimates per-step
//! response time for Figs. 6c and 8c.

use crate::config::DefinedConfig;
use crate::order::Annotation;
use crate::rb::RbShared;
use crate::recorder::{CommitRecord, Recording};
use crate::shard::{DeliveryCtx, LsNode, Pending, ShardedWaves};
use crate::snapshot::{Event, NodeSnapshot};
use crate::wire::Wire;
use checkpoint::Snapshotable;
use defined_obs as obs;
use netsim::NodeId;
use routing::enc::{put_u32, put_u64, put_u8, Reader};
use routing::ControlPlane;
use std::collections::{BTreeMap, HashSet};
use topology::Graph;

// The response-time model of Fig. 6c / 8c ([`LockstepNet::step_times`]).
/// Cost of delivering one event to the control plane (ns), covering the
/// debugger bookkeeping the paper's implementation pays per event: 2 ms.
const PER_DELIVERY_NS: u64 = 2_000_000;
/// Fixed per-phase coordination cost (ns) of the distributed semaphore
/// beyond propagation (syscalls, TCP handling): 5 ms per barrier round.
const BARRIER_BASE_NS: u64 = 5_000_000;
/// The coordinator node (markers and GO messages flow to/from it).
const COORDINATOR: NodeId = NodeId(0);

/// The deliveries staged for one lockstep sub-cycle.
type Wave<P> = Vec<Pending<<P as ControlPlane>::Msg, <P as ControlPlane>::Ext>>;

/// One delivered event, as reported to the debugger.
#[derive(Clone, Debug, PartialEq)]
pub struct LsEvent {
    /// The node that processed the event.
    pub node: NodeId,
    /// Group being replayed.
    pub group: u64,
    /// Sub-cycle (causal chain depth) within the group.
    pub chain: u32,
    /// The committed record (key, annotation, payload digest).
    pub record: CommitRecord,
}

/// The lockstep debugging network.
pub struct LockstepNet<P: ControlPlane> {
    /// The configuration, delay estimates and annotation recipes — the same
    /// struct the production shims run under.
    shared: RbShared,
    recording: Recording<P::Ext>,
    drops: HashSet<(NodeId, u64)>,
    /// Recorded beacon delivery schedule: group → [(node, announcing
    /// source)]. A node missing from a group's list skipped that tick in
    /// production (it was partitioned from the source).
    ticks: BTreeMap<u64, Vec<(NodeId, NodeId)>>,
    /// Death cuts: node → identities of the events it may still deliver
    /// (absent = alive). Identities, not full keys: membership must not
    /// depend on the replay's ordering salt (see [`OrderKey::identity`]).
    ///
    /// [`OrderKey::identity`]: crate::order::OrderKey::identity
    mutes: BTreeMap<NodeId, HashSet<crate::order::EventIdentity>>,
    nodes: Vec<LsNode<P>>,
    logs: Vec<Vec<CommitRecord>>,
    group: u64,
    chain: u32,
    queue: Wave<P>,
    queue_pos: usize,
    next_wave: Wave<P>,
    holdover: BTreeMap<u64, Wave<P>>,
    step_times: Vec<(u64, f64)>,
    done: bool,
    /// How staged waves execute: serial sweep (`ShardedWaves::new(1)`, the
    /// default) or partitioned across worker shards.
    engine: ShardedWaves,
}

impl<P: ControlPlane> LockstepNet<P> {
    /// Builds a debugging network over `graph`, replaying `recording`, with
    /// fresh control planes from `spawn`.
    pub fn new(
        graph: &Graph,
        cfg: DefinedConfig,
        recording: Recording<P::Ext>,
        mut spawn: impl FnMut(NodeId) -> P,
    ) -> Self {
        let n = graph.node_count();
        assert_eq!(n, recording.n_nodes, "recording is for a different network");
        let drops = recording.drops.iter().map(|d| (d.sender, d.idx)).collect();
        let mut ticks: BTreeMap<u64, Vec<(NodeId, NodeId)>> = BTreeMap::new();
        for t in &recording.ticks {
            ticks.entry(t.group).or_default().push((t.node, t.source));
        }
        let mutes = recording
            .mutes
            .iter()
            .map(|m| (m.node, m.allowed.iter().map(|k| k.identity()).collect()))
            .collect();
        let nodes = (0..n)
            .map(|i| LsNode { snap: NodeSnapshot::new(spawn(NodeId(i as u32))), send_count: 0 })
            .collect();
        LockstepNet {
            shared: RbShared::new(graph, cfg),
            recording,
            drops,
            ticks,
            mutes,
            nodes,
            logs: vec![Vec::new(); n],
            group: 0,
            chain: 0,
            queue: Vec::new(),
            queue_pos: 0,
            next_wave: Vec::new(),
            holdover: BTreeMap::new(),
            step_times: Vec::new(),
            done: false,
            engine: ShardedWaves::new(1),
        }
    }

    /// Executes waves across `shards` worker shards (`0` = auto, the host's
    /// available parallelism). By the [`ShardedWaves::execute`] contract
    /// this changes only cost: committed logs, images, and transcripts are
    /// byte-identical for every shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.engine = ShardedWaves::new(shards);
        self
    }

    /// The installed engine's worker-shard count.
    pub fn shards(&self) -> usize {
        self.engine.shards()
    }

    /// The group currently being replayed.
    pub fn current_group(&self) -> u64 {
        self.group
    }

    /// Whether the replay has consumed every group.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Per-node delivered logs so far.
    pub fn logs(&self) -> &[Vec<CommitRecord>] {
        &self.logs
    }

    /// Per-sub-cycle response times (seconds) of the timed model.
    pub fn step_times(&self) -> Vec<f64> {
        self.step_times.iter().map(|&(_, t)| t).collect()
    }

    /// Step times of sub-cycles in groups after `warmup_groups` — the
    /// steady-state measurement (the synchronized cold-boot flood of group 1
    /// is a simulator artifact the paper's converged testbed never sees).
    pub fn steady_step_times(&self, warmup_groups: u64) -> Vec<f64> {
        self.step_times
            .iter()
            .filter(|&&(g, _)| g > warmup_groups)
            .map(|&(_, t)| t)
            .collect()
    }

    /// One node's control plane (state inspection).
    pub fn control_plane(&self, node: NodeId) -> &P {
        &self.nodes[node.index()].snap.cp
    }

    /// Mutable control-plane access — the debugger's "manipulate state" /
    /// patch-in-place hook (§2.1).
    pub fn control_plane_mut(&mut self, node: NodeId) -> &mut P {
        &mut self.nodes[node.index()].snap.cp
    }

    /// Delivers exactly one event, advancing phases and groups as needed.
    ///
    /// Returns `None` when the recording is exhausted.
    pub fn step_event(&mut self) -> Option<LsEvent> {
        loop {
            if let Some(ev) = self.deliver_next_staged() {
                return Some(ev);
            }
            if !self.advance_phase() {
                return None;
            }
        }
    }

    /// Delivers the next event of the *currently staged* queue, or `None`
    /// when the queue is exhausted (never advances phases or groups). The
    /// one place the death-cut filter lives: a crashed node delivers only
    /// the events of its recorded cut; everything else is silently
    /// absorbed, exactly as the dead production node absorbed nothing
    /// further. Shared by [`step_event`] and [`run_to_group_start`] so
    /// both walk the identical event sequence.
    ///
    /// [`step_event`]: LockstepNet::step_event
    /// [`run_to_group_start`]: LockstepNet::run_to_group_start
    fn deliver_next_staged(&mut self) -> Option<LsEvent> {
        let ctx = DeliveryCtx {
            shared: &self.shared,
            group: self.group,
            chain: self.chain,
            drops: &self.drops,
            mutes: &self.mutes,
        };
        while self.queue_pos < self.queue.len() {
            let p = &self.queue[self.queue_pos];
            self.queue_pos += 1;
            if !ctx.allows(p) {
                continue;
            }
            let idx = p.to.index();
            let mut emitted = Vec::new();
            let ev = ctx.deliver(&mut self.nodes[idx], &mut self.logs[idx], p, &mut emitted);
            obs::counter!("ls.delivered").add(1);
            obs::counter!("ls.emitted").add(emitted.len() as u64);
            route_emitted(self.group, &mut self.next_wave, &mut self.holdover, emitted);
            return Some(ev);
        }
        None
    }

    /// Executes the *whole* remaining staged wave through the engine — the
    /// sharded fast path. Equivalent to draining [`deliver_next_staged`]
    /// (the [`ShardedWaves::execute`] contract), but the engine sees
    /// the wave at once and may partition it across workers. Returns false
    /// when nothing was staged (never advances phases or groups).
    ///
    /// [`deliver_next_staged`]: LockstepNet::deliver_next_staged
    fn drain_staged_wave(&mut self) -> bool {
        if self.queue_pos >= self.queue.len() {
            return false;
        }
        let ctx = DeliveryCtx {
            shared: &self.shared,
            group: self.group,
            chain: self.chain,
            drops: &self.drops,
            mutes: &self.mutes,
        };
        let out = {
            let _wave = obs::span!("ls.wave");
            let wave = &self.queue[self.queue_pos..];
            self.engine.execute(&ctx, &mut self.nodes, &mut self.logs, wave)
        };
        obs::counter!("ls.waves").add(1);
        obs::counter!("ls.delivered").add(out.delivered as u64);
        obs::counter!("ls.emitted").add(out.emitted.len() as u64);
        obs::hist!("ls.wave_events").record(out.delivered as u64);
        self.queue_pos = self.queue.len();
        route_emitted(self.group, &mut self.next_wave, &mut self.holdover, out.emitted);
        true
    }

    /// Runs the whole recording; returns the per-node logs.
    pub fn run_to_end(&mut self) -> &[Vec<CommitRecord>] {
        loop {
            if !self.drain_staged_wave() && !self.advance_phase() {
                break;
            }
        }
        self.logs()
    }

    /// Whether the replay sits exactly at a group start: the group's first
    /// wave is staged (or empty) but nothing of it has been delivered.
    pub fn at_group_start(&self) -> bool {
        self.chain == 0 && self.queue_pos == 0
    }

    /// Runs to the *exact* start of `group`: every event of earlier groups
    /// is delivered and none of `group`'s. Returns false when the recording
    /// is exhausted before reaching `group` — the state is then the
    /// complete replay, which is itself a well-defined prefix (all groups).
    ///
    /// This is the boundary the bisection probes and the checkpoint-seeded
    /// replay farm need: a probe of "groups `1..=g`" is
    /// `run_to_group_start(g + 1)`, and an image captured here restores to
    /// the identical boundary.
    pub fn run_to_group_start(&mut self, group: u64) -> bool {
        while !self.done && self.group < group {
            if !self.drain_staged_wave() && !self.advance_phase() {
                return false;
            }
        }
        !self.done
    }

    /// Finishes the current sub-cycle and records its modelled duration;
    /// then stages the next wave or the next group. Returns false when done.
    fn advance_phase(&mut self) -> bool {
        if self.done {
            return false;
        }
        if !self.queue.is_empty() {
            self.record_step_time();
        }
        if !self.next_wave.is_empty() {
            self.chain += 1;
            let wave = std::mem::take(&mut self.next_wave);
            self.stage_wave(wave);
            return true;
        }
        // Next group.
        self.group += 1;
        if self.group > self.recording.last_group {
            self.done = true;
            return false;
        }
        self.chain = 0;
        let mut wave: Vec<Pending<P::Msg, P::Ext>> = Vec::new();
        if self.group == 1 {
            for i in 0..self.nodes.len() {
                let node = NodeId(i as u32);
                wave.push(Pending {
                    to: node,
                    ann: Annotation::external(node, 1, 0),
                    ev: Event::Start,
                });
            }
        }
        for e in self.recording.externals_for_group(self.group) {
            wave.push(Pending {
                to: e.node,
                ann: Annotation::external(e.node, self.group, e.ext_seq),
                ev: Event::External(e.payload),
            });
        }
        // Beacon ticks follow the recorded delivery schedule: a node that
        // missed a tick in production (partition) or saw it announced by a
        // failover source gets exactly the same tick here.
        for &(node, source) in self.ticks.get(&self.group).map(Vec::as_slice).unwrap_or(&[]) {
            wave.push(Pending {
                to: node,
                ann: self.shared.beacon_annotation(source, self.group, node),
                ev: Event::BeaconTick,
            });
        }
        self.stage_wave(wave);
        // Chain-overflow messages assigned to this group join sub-cycle 1.
        if let Some(held) = self.holdover.remove(&self.group) {
            self.next_wave.extend(held);
        }
        true
    }

    /// Sorts `wave` by the production order key and stages it for delivery.
    /// The `(OrderKey, to)` sort key is *strictly* total over any one wave
    /// (lineage digests separate causally distinct events, `to` separates
    /// same-annotation beacon fan-out) — which is what erases both the
    /// emit-concatenation order of the previous wave's shards and the sort
    /// algorithm's stability, so sharded and serial staging coincide.
    fn stage_wave(&mut self, mut wave: Wave<P>) {
        let ordering = self.shared.cfg.ordering;
        wave.sort_by_key(|a| (a.ann.key(ordering), a.to));
        debug_assert!(
            wave.windows(2).all(|w| (w[0].ann.key(ordering), w[0].to) < (w[1].ann.key(ordering), w[1].to)),
            "a staged wave's sort keys must be strictly increasing"
        );
        self.queue = wave;
        self.queue_pos = 0;
    }

    fn record_step_time(&mut self) {
        // Transmission: messages cross links concurrently → the slowest link
        // bounds the phase. Processing: the busiest node bounds the phase.
        // Coordination: two barrier rounds through the coordinator.
        let mut max_link = 0u64;
        let mut per_node: BTreeMap<NodeId, u64> = BTreeMap::new();
        for p in &self.queue {
            // The transmitter: the sender of a message, the announcing
            // source of a tick, the node itself for its own externals.
            let from = p.ann.sender;
            if from != p.to {
                let l = self.shared.link_est[from.index()]
                    .get(&p.to)
                    .copied()
                    .unwrap_or(self.shared.dist[from.index()][p.to.index()]);
                max_link = max_link.max(l);
            }
            *per_node.entry(p.to).or_default() += 1;
        }
        let max_proc = per_node.values().max().copied().unwrap_or(0) * PER_DELIVERY_NS;
        let max_coord = (0..self.nodes.len())
            .map(|i| self.shared.dist[COORDINATOR.index()][i])
            .max()
            .unwrap_or(0);
        let barrier = 2 * (max_coord + BARRIER_BASE_NS);
        let total_ns = barrier + max_link + max_proc;
        self.step_times.push((self.group, total_ns as f64 / 1e9));
    }

    /// Captures a full image of the replayer's mutable state — node
    /// snapshots, send counters, the staged delivery queues (including
    /// in-flight chain-overflow messages), and phase markers. Restoring
    /// the image and re-stepping reproduces the original execution byte
    /// for byte (Theorem 1 applied twice).
    ///
    /// The committed logs and step-time samples are append-only and fully
    /// determined by replay position, so the image records only their
    /// *lengths* — its size is O(network state), independent of how long
    /// the replay has run, which is what keeps a dense checkpoint cadence
    /// (and therefore flat rewind latency) affordable.
    pub fn capture_image(&self) -> LsImage<P> {
        LsImage {
            nodes: self.nodes.iter().map(|n| (n.snap.clone(), n.send_count)).collect(),
            log_lens: self.logs.iter().map(Vec::len).collect(),
            group: self.group,
            chain: self.chain,
            queue: self.queue.clone(),
            queue_pos: self.queue_pos,
            next_wave: self.next_wave.clone(),
            holdover: self.holdover.clone(),
            step_times_len: self.step_times.len(),
            done: self.done,
        }
    }

    /// Restores a previously captured image, rewinding the replayer to
    /// exactly the captured instant. Logs and step-time samples are
    /// truncated to their captured lengths — an image therefore rewinds
    /// only the replay it (or a byte-identical one) was captured from,
    /// which is precisely the reverse-execution use case.
    ///
    /// # Panics
    ///
    /// Panics if the image is for a different network size, or if the
    /// replay is *behind* the image (its logs are shorter than the
    /// captured lengths).
    pub fn restore_image(&mut self, img: LsImage<P>) {
        assert_eq!(img.nodes.len(), self.nodes.len(), "image is for a different network");
        self.nodes = img
            .nodes
            .into_iter()
            .map(|(snap, send_count)| LsNode { snap, send_count })
            .collect();
        for (log, &len) in self.logs.iter_mut().zip(&img.log_lens) {
            assert!(log.len() >= len, "image is ahead of this replay; cannot rewind to it");
            log.truncate(len);
        }
        self.group = img.group;
        self.chain = img.chain;
        self.queue = img.queue;
        self.queue_pos = img.queue_pos;
        self.next_wave = img.next_wave;
        self.holdover = img.holdover;
        assert!(self.step_times.len() >= img.step_times_len, "image is ahead of this replay");
        self.step_times.truncate(img.step_times_len);
        self.done = img.done;
    }

    /// Extends `history` with whatever this replay has committed beyond it.
    ///
    /// The committed logs and step-time samples of a lockstep replay are
    /// append-only and fully determined by position (Theorem 1), so every
    /// replay of one recording under one configuration walks the same
    /// canonical history; the longest prefix observed so far is therefore
    /// authoritative for every shorter position.
    pub fn merge_history(&self, history: &mut LsHistory) {
        assert_eq!(history.logs.len(), self.logs.len(), "history is for a different network");
        for (hist, log) in history.logs.iter_mut().zip(&self.logs) {
            if log.len() > hist.len() {
                hist.extend_from_slice(&log[hist.len()..]);
            }
        }
        if self.step_times.len() > history.step_times.len() {
            history
                .step_times
                .extend_from_slice(&self.step_times[history.step_times.len()..]);
        }
    }

    /// Restores `img`, reconstructing the committed logs and step-time
    /// samples from `history` instead of truncating this replay's own —
    /// which also works when the image lies *ahead* of the replay's current
    /// position, the case [`LockstepNet::restore_image`] rejects. This is
    /// the replay-farm path: a probe session jumps in both directions over
    /// one canonical history it has accumulated via
    /// [`LockstepNet::merge_history`].
    ///
    /// # Panics
    ///
    /// Panics if the image is for a different network size or if `history`
    /// is shorter than the image (the image must have been captured from a
    /// replay whose progress was merged into `history`).
    pub fn restore_image_seeded(&mut self, img: LsImage<P>, history: &LsHistory) {
        assert_eq!(img.nodes.len(), self.nodes.len(), "image is for a different network");
        assert_eq!(history.logs.len(), self.nodes.len(), "history is for a different network");
        self.nodes = img
            .nodes
            .into_iter()
            .map(|(snap, send_count)| LsNode { snap, send_count })
            .collect();
        for ((log, hist), &len) in self.logs.iter_mut().zip(&history.logs).zip(&img.log_lens) {
            assert!(hist.len() >= len, "history does not cover the image");
            log.clear();
            log.extend_from_slice(&hist[..len]);
        }
        assert!(
            history.step_times.len() >= img.step_times_len,
            "history does not cover the image"
        );
        self.step_times.clear();
        self.step_times.extend_from_slice(&history.step_times[..img.step_times_len]);
        self.group = img.group;
        self.chain = img.chain;
        self.queue = img.queue;
        self.queue_pos = img.queue_pos;
        self.next_wave = img.next_wave;
        self.holdover = img.holdover;
        self.done = img.done;
    }

}

/// Routes the messages a wave emitted: same-group sends join the next
/// sub-cycle, chain-overflow sends wait in holdover for their target group.
/// (The next wave is fully re-sorted before consumption, so the emit order
/// reaching this function — including cross-shard concatenation order —
/// never matters.)
fn route_emitted<M, X>(
    group: u64,
    next_wave: &mut Vec<Pending<M, X>>,
    holdover: &mut BTreeMap<u64, Vec<Pending<M, X>>>,
    emitted: Vec<Pending<M, X>>,
) {
    for p in emitted {
        let g = p.ann.group;
        if g == group {
            next_wave.push(p);
        } else {
            holdover.entry(g).or_default().push(p);
        }
    }
}

/// The canonical append-only history of one recording's lockstep replay:
/// per-node committed logs plus step-time samples, accumulated across any
/// number of (partial) replays of the same recording via
/// [`LockstepNet::merge_history`] and consulted by
/// [`LockstepNet::restore_image_seeded`] to reconstruct the log state of an
/// image that lies ahead of the current replay position.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LsHistory {
    logs: Vec<Vec<CommitRecord>>,
    step_times: Vec<(u64, f64)>,
}

impl LsHistory {
    /// An empty history for a network of `n_nodes` nodes.
    pub fn new(n_nodes: usize) -> Self {
        LsHistory { logs: vec![Vec::new(); n_nodes], step_times: Vec::new() }
    }

    /// Committed events accumulated so far, summed over nodes.
    pub fn len(&self) -> usize {
        self.logs.iter().map(Vec::len).sum()
    }

    /// Whether nothing has been accumulated yet.
    pub fn is_empty(&self) -> bool {
        self.logs.iter().all(Vec::is_empty)
    }
}

/// A whole-network checkpoint of a [`LockstepNet`]: every node's composite
/// snapshot plus the replayer's own delivery state (append-only histories
/// are stored as lengths — see [`LockstepNet::capture_image`]).
///
/// Created by [`LockstepNet::capture_image`] and consumed by
/// [`LockstepNet::restore_image`]. When the message and external payload
/// types have [`Wire`] codecs the image is [`Snapshotable`], so it can be
/// stored in a [`checkpoint::Checkpointer`] or [`checkpoint::Timeline`]
/// under any strategy — with `MemIntercept`, retained images share every
/// unchanged 4 KiB page, which is what makes a dense reverse-execution
/// checkpoint cadence affordable.
pub struct LsImage<P: ControlPlane> {
    nodes: Vec<(NodeSnapshot<P>, u64)>,
    log_lens: Vec<usize>,
    group: u64,
    chain: u32,
    queue: Wave<P>,
    queue_pos: usize,
    next_wave: Wave<P>,
    holdover: BTreeMap<u64, Wave<P>>,
    step_times_len: usize,
    done: bool,
}

impl<P: ControlPlane> Clone for LsImage<P> {
    fn clone(&self) -> Self {
        LsImage {
            nodes: self.nodes.clone(),
            log_lens: self.log_lens.clone(),
            group: self.group,
            chain: self.chain,
            queue: self.queue.clone(),
            queue_pos: self.queue_pos,
            next_wave: self.next_wave.clone(),
            holdover: self.holdover.clone(),
            step_times_len: self.step_times_len,
            done: self.done,
        }
    }
}

fn encode_pending<M: Wire, X: Wire>(p: &Pending<M, X>, buf: &mut Vec<u8>) {
    put_u32(buf, p.to.0);
    p.ann.encode(buf);
    match &p.ev {
        Event::Start => put_u8(buf, 0),
        Event::External(x) => {
            put_u8(buf, 1);
            x.encode(buf);
        }
        Event::BeaconTick => put_u8(buf, 2),
        Event::Msg { from, payload } => {
            put_u8(buf, 3);
            put_u32(buf, from.0);
            payload.encode(buf);
        }
    }
}

fn decode_pending<M: Wire, X: Wire>(r: &mut Reader<'_>) -> Option<Pending<M, X>> {
    let to = NodeId(r.u32()?);
    let ann = Annotation::decode(r)?;
    let ev = match r.u8()? {
        0 => Event::Start,
        1 => Event::External(X::decode(r)?),
        2 => Event::BeaconTick,
        3 => Event::Msg { from: NodeId(r.u32()?), payload: M::decode(r)? },
        _ => return None,
    };
    Some(Pending { to, ann, ev })
}

fn encode_wave<M: Wire, X: Wire>(wave: &[Pending<M, X>], buf: &mut Vec<u8>) {
    put_u64(buf, wave.len() as u64);
    for p in wave {
        encode_pending(p, buf);
    }
}

fn decode_wave<M: Wire, X: Wire>(r: &mut Reader<'_>) -> Option<Vec<Pending<M, X>>> {
    let n = r.len()?;
    let mut wave = Vec::with_capacity(n);
    for _ in 0..n {
        wave.push(decode_pending(r)?);
    }
    Some(wave)
}

impl<P> Snapshotable for LsImage<P>
where
    P: ControlPlane,
    P::Msg: Wire,
    P::Ext: Wire,
{
    fn encode(&self, buf: &mut Vec<u8>) {
        let start = buf.len();
        put_u64(buf, self.nodes.len() as u64);
        for (snap, send_count) in &self.nodes {
            snap.encode(buf);
            put_u64(buf, *send_count);
        }
        for &len in &self.log_lens {
            put_u64(buf, len as u64);
        }
        put_u64(buf, self.group);
        put_u32(buf, self.chain);
        encode_wave(&self.queue, buf);
        put_u64(buf, self.queue_pos as u64);
        encode_wave(&self.next_wave, buf);
        put_u64(buf, self.holdover.len() as u64);
        for (group, wave) in &self.holdover {
            put_u64(buf, *group);
            encode_wave(wave, buf);
        }
        put_u64(buf, self.step_times_len as u64);
        put_u8(buf, self.done as u8);
        obs::counter!("wire.bytes_encoded").add((buf.len() - start) as u64);
    }

    fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
        let start = r.remaining();
        let n_nodes = r.len()?;
        let mut nodes = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            nodes.push((NodeSnapshot::<P>::decode_from(r)?, r.u64()?));
        }
        let mut log_lens = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            log_lens.push(r.u64()? as usize);
        }
        let group = r.u64()?;
        let chain = r.u32()?;
        let queue = decode_wave(r)?;
        // A position, not an element count — `Reader::len`'s remaining-bytes
        // sanity check does not apply.
        let queue_pos = r.u64()? as usize;
        if queue_pos > queue.len() {
            return None;
        }
        let next_wave = decode_wave(r)?;
        let n_hold = r.len()?;
        let mut holdover = BTreeMap::new();
        for _ in 0..n_hold {
            let g = r.u64()?;
            holdover.insert(g, decode_wave(r)?);
        }
        let step_times_len = r.u64()? as usize;
        let done = r.u8()? != 0;
        obs::counter!("wire.bytes_decoded").add((start - r.remaining()) as u64);
        Some(LsImage {
            nodes,
            log_lens,
            group,
            chain,
            queue,
            queue_pos,
            next_wave,
            holdover,
            step_times_len,
            done,
        })
    }
}

/// Compares two committed logs (e.g. RB production vs LS replay), trimmed to
/// groups `<= upto_group`. Returns the first divergence as
/// `(node, position, left, right)` if any.
#[allow(clippy::type_complexity)]
pub fn first_divergence(
    a: &[Vec<CommitRecord>],
    b: &[Vec<CommitRecord>],
    upto_group: u64,
) -> Option<(usize, usize, Option<CommitRecord>, Option<CommitRecord>)> {
    for (node, (la, lb)) in a.iter().zip(b.iter()).enumerate() {
        let ta = crate::recorder::trim_log(la, upto_group);
        let tb = crate::recorder::trim_log(lb, upto_group);
        let len = ta.len().max(tb.len());
        for i in 0..len {
            let x = ta.get(i).copied();
            let y = tb.get(i).copied();
            if x != y {
                return Some((node, i, x, y));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DefinedConfig, OrderingMode};
    use crate::harness::RbNetwork;
    use netsim::{SimDuration, SimTime};
    use proptest::prelude::*;
    use routing::ospf::{OspfConfig, OspfProcess};
    use topology::canonical;

    /// Theorem 1 end-to-end: the LS replay of an RB recording reproduces the
    /// RB committed execution exactly.
    fn check_reproducibility(ordering: OrderingMode, jitter: f64, seed: u64) {
        let g = canonical::ring(5, SimDuration::from_millis(4));
        let cfg = DefinedConfig { ordering, ..DefinedConfig::default() };
        let f = OspfProcess::for_graph(&g, OspfConfig::stress(5));
        let spawn: Vec<OspfProcess> = (0..5).map(|i| f(netsim::NodeId(i))).collect();
        let spawn2 = spawn.clone();
        let mut net =
            RbNetwork::new(&g, cfg.clone(), seed, jitter, move |id| spawn[id.index()].clone());
        net.run_until(SimTime::from_secs(6));
        let margin = 2;
        let upto = net.completed_group(margin);
        let (rec, rb_logs) = net.into_recording();
        assert!(upto > 5, "run long enough to cover several groups");

        let mut ls = LockstepNet::new(&g, cfg, rec, move |id| spawn2[id.index()].clone());
        ls.run_to_end();
        let div = first_divergence(&rb_logs, ls.logs(), upto);
        assert!(div.is_none(), "LS must reproduce RB: {div:?}");
        // The comparison must be non-vacuous.
        let total: usize = rb_logs
            .iter()
            .map(|l| crate::recorder::trim_log(l, upto).len())
            .sum();
        assert!(total > 100, "compared {total} events");
    }

    #[test]
    fn theorem1_optimized_low_jitter() {
        check_reproducibility(OrderingMode::Optimized, 0.2, 7);
    }

    #[test]
    fn theorem1_optimized_heavy_jitter() {
        check_reproducibility(OrderingMode::Optimized, 0.9, 8);
    }

    #[test]
    fn theorem1_random_ordering() {
        check_reproducibility(OrderingMode::Random, 0.5, 9);
    }

    #[test]
    fn ls_step_times_recorded() {
        let g = canonical::ring(4, SimDuration::from_millis(4));
        let cfg = DefinedConfig::default();
        let f = OspfProcess::for_graph(&g, OspfConfig::stress(4));
        let spawn: Vec<OspfProcess> = (0..4).map(|i| f(netsim::NodeId(i))).collect();
        let spawn2 = spawn.clone();
        let mut net = RbNetwork::new(&g, cfg.clone(), 3, 0.2, move |id| spawn[id.index()].clone());
        net.run_until(SimTime::from_secs(3));
        let (rec, _) = net.into_recording();
        let mut ls = LockstepNet::new(&g, cfg, rec, move |id| spawn2[id.index()].clone());
        ls.run_to_end();
        assert!(!ls.step_times().is_empty());
        // Every step under a second, as Fig. 6c reports.
        assert!(ls.step_times().iter().all(|&t| t < 1.0));
    }

    fn small_ls() -> LockstepNet<OspfProcess> {
        let g = canonical::ring(4, SimDuration::from_millis(4));
        let cfg = DefinedConfig::default();
        let f = OspfProcess::for_graph(&g, OspfConfig::stress(4));
        let spawn: Vec<OspfProcess> = (0..4).map(|i| f(netsim::NodeId(i))).collect();
        let spawn2 = spawn.clone();
        let mut net = RbNetwork::new(&g, cfg.clone(), 9, 0.4, move |id| spawn[id.index()].clone());
        net.run_until(SimTime::from_secs(3));
        let (rec, _) = net.into_recording();
        LockstepNet::new(&g, cfg, rec, move |id| spawn2[id.index()].clone())
    }

    /// Restoring a mid-run image and re-stepping must reproduce the exact
    /// same suffix — the primitive reverse execution is built on.
    #[test]
    fn image_restore_reproduces_the_suffix() {
        let mut ls = small_ls();
        for _ in 0..25 {
            ls.step_event().expect("events available");
        }
        let img = ls.capture_image();
        let mark: Vec<usize> = ls.logs().iter().map(Vec::len).collect();
        let first: Vec<Vec<CommitRecord>> = {
            ls.run_to_end();
            ls.logs().to_vec()
        };
        ls.restore_image(img.clone());
        assert_eq!(
            ls.logs().iter().map(Vec::len).collect::<Vec<_>>(),
            mark,
            "restore rewinds the logs"
        );
        ls.run_to_end();
        assert_eq!(ls.logs(), &first[..], "re-executed suffix diverged");
        drop(img);
    }

    /// The image survives the byte codec (the page-diff checkpoint path)
    /// with full fidelity, mid-group — queues and holdover included.
    #[test]
    fn image_byte_codec_round_trips_mid_group() {
        let mut ls = small_ls();
        for _ in 0..37 {
            ls.step_event().expect("events available");
        }
        let img = ls.capture_image();
        let mut buf = Vec::new();
        img.encode(&mut buf);
        let back: LsImage<OspfProcess> = Snapshotable::decode(&buf).expect("decodes");
        assert_eq!(back.digest(), img.digest());
        // Continue from the decoded image: byte-identical tail.
        let direct = {
            let mut a = small_ls();
            for _ in 0..37 {
                a.step_event();
            }
            a.run_to_end();
            a.logs().to_vec()
        };
        ls.restore_image(back);
        ls.run_to_end();
        assert_eq!(ls.logs(), &direct[..]);
        // Corrupt input fails cleanly.
        assert!(<LsImage<OspfProcess> as Snapshotable>::decode(&buf[..buf.len() / 2]).is_none());
    }

    /// `run_to_group_start` stops exactly on group boundaries: everything
    /// of earlier groups delivered, nothing of the target group, matching a
    /// step-by-step replay filtered by event group.
    #[test]
    fn run_to_group_start_is_exact() {
        let mut ls = small_ls();
        let reference = {
            let mut r = small_ls();
            r.run_to_end();
            r.logs().to_vec()
        };
        for target in [2u64, 5, 9] {
            assert!(ls.run_to_group_start(target) || ls.is_done());
            assert!(ls.at_group_start());
            assert_eq!(ls.current_group(), target);
            for (node, log) in ls.logs().iter().enumerate() {
                assert!(
                    log.iter().all(|r| r.ann.group < target),
                    "node {node} delivered an event of group >= {target}"
                );
                let expect: Vec<_> = reference[node]
                    .iter()
                    .filter(|r| r.ann.group < target)
                    .copied()
                    .collect();
                assert_eq!(log, &expect, "node {node} prefix mismatch at group {target}");
            }
        }
    }

    /// A seeded restore reconstructs logs from accumulated history even
    /// when the image lies ahead of the replay — and the re-executed tail
    /// is byte-identical.
    #[test]
    fn seeded_restore_jumps_forward_over_history() {
        let mut ls = small_ls();
        let mut history = LsHistory::new(4);
        assert!(history.is_empty());
        for _ in 0..40 {
            ls.step_event().expect("events");
        }
        let ahead = ls.capture_image();
        let ahead_logs = ls.logs().to_vec();
        ls.merge_history(&mut history);
        assert_eq!(history.len(), 40);
        // Rewind to the start via a fresh replay, then jump *forward* onto
        // the captured image — plain `restore_image` would panic here.
        let mut fresh = small_ls();
        fresh.step_event();
        fresh.restore_image_seeded(ahead, &history);
        assert_eq!(fresh.logs(), &ahead_logs[..], "reconstructed logs diverged");
        let expect = {
            let mut r = small_ls();
            r.run_to_end();
            r.logs().to_vec()
        };
        fresh.run_to_end();
        assert_eq!(fresh.logs(), &expect[..], "re-executed tail diverged");
    }

    /// The tentpole invariant at unit scale: waves executed across real
    /// thread boundaries (4 shards of 1 node, inline threshold disabled)
    /// commit the identical logs, and an image captured under one shard
    /// count restores into a replay running another — images are
    /// shard-count-agnostic by construction.
    #[test]
    fn sharded_waves_match_serial_and_images_compose() {
        let serial_logs = {
            let mut s = small_ls();
            s.run_to_end();
            s.logs().to_vec()
        };
        for shards in [2usize, 4] {
            let mut net = small_ls();
            net.engine = ShardedWaves::new(shards).with_min_wave_per_shard(0);
            assert_eq!(net.shards(), shards);
            net.run_to_end();
            assert_eq!(net.logs(), &serial_logs[..], "shards={shards} diverged from serial");
        }
        // Cross-shard-count checkpoint seeding: capture under shards=2,
        // restore into shards=4, finish — still the serial logs.
        let mut two = small_ls();
        two.engine = ShardedWaves::new(2).with_min_wave_per_shard(0);
        two.run_to_group_start(5);
        let img = two.capture_image();
        let mut history = LsHistory::new(4);
        two.run_to_end();
        two.merge_history(&mut history);
        let mut four = small_ls();
        four.engine = ShardedWaves::new(4).with_min_wave_per_shard(0);
        four.restore_image_seeded(img, &history);
        four.run_to_end();
        assert_eq!(four.logs(), &serial_logs[..], "cross-shard-count restore diverged");
    }

    /// One worker shard per node — the thread-per-node shape, where OS
    /// scheduling decides which node's deliveries finish first — commits
    /// exactly the serial replayer's logs and the production run's, run
    /// after run, and across a death cut (a crashed node absorbing its
    /// peers' sends).
    #[test]
    fn one_shard_per_node_matches_serial_and_production_repeatably() {
        use routing::rip::{RefreshMode, RipConfig, RipExt, RipProcess};

        fn check<P: ControlPlane + 'static>(
            g: &Graph,
            net: RbNetwork<P>,
            spawn: impl Fn(NodeId) -> P + Clone,
            death_cuts: usize,
            what: &str,
        ) {
            let upto = net.completed_group(2);
            let (rec, rb_logs) = net.into_recording();
            assert_eq!(rec.mutes.len(), death_cuts, "{what}: recorded death cuts");
            let cfg = DefinedConfig::default();
            let replay = |per_node: bool| {
                let mut ls = LockstepNet::new(g, cfg.clone(), rec.clone(), spawn.clone());
                if per_node {
                    let n = g.node_count();
                    ls.engine = ShardedWaves::new(n).with_min_wave_per_shard(0);
                    assert_eq!(ls.shards(), n);
                }
                ls.run_to_end();
                ls.logs().to_vec()
            };
            let serial = replay(false);
            let first = replay(true);
            assert_eq!(first, serial, "{what}: one shard per node diverged from serial");
            let div = first_divergence(&rb_logs, &first, upto);
            assert!(div.is_none(), "{what}: must reproduce the production run: {div:?}");
            assert_eq!(replay(true), first, "{what}: not repeatable across runs");
        }

        let g = canonical::ring(4, SimDuration::from_millis(4));
        let f = OspfProcess::for_graph(&g, OspfConfig::stress(4));
        let procs: Vec<OspfProcess> = (0..4).map(|i| f(NodeId(i))).collect();
        let spawn = move |id: NodeId| procs[id.index()].clone();
        let mut net = RbNetwork::new(&g, DefinedConfig::default(), 21, 0.6, spawn.clone());
        net.run_until(SimTime::from_secs(4));
        check(&g, net, spawn, 0, "ring OSPF");

        let (g, roles) = canonical::fig5_rip(SimDuration::from_millis(10));
        let spawn = {
            let g = g.clone();
            move |id: NodeId| {
                let cfg = RipConfig::emulation(RefreshMode::DestinationOnly);
                RipProcess::new(id, g.neighbors(id), cfg)
            }
        };
        let mut net = RbNetwork::new(&g, DefinedConfig::default(), 2, 0.6, spawn.clone());
        net.inject_external(SimTime::from_millis(100), roles.dest, RipExt::Connect { prefix: 7 });
        net.schedule_node(SimTime::from_secs(6), roles.r2, false);
        net.run_until(SimTime::from_secs(20));
        check(&g, net, spawn, 1, "Fig. 5 RIP crash");
    }

    /// Sharded phase advancement stops on the same exact group boundaries
    /// as single-event stepping.
    #[test]
    fn sharded_run_to_group_start_is_exact() {
        let reference = {
            let mut r = small_ls();
            r.run_to_end();
            r.logs().to_vec()
        };
        let mut ls = small_ls();
        ls.engine = ShardedWaves::new(2).with_min_wave_per_shard(0);
        assert!(ls.run_to_group_start(5) || ls.is_done());
        assert!(ls.at_group_start());
        assert_eq!(ls.current_group(), 5);
        for (node, log) in ls.logs().iter().enumerate() {
            let expect: Vec<_> =
                reference[node].iter().filter(|r| r.ann.group < 5).copied().collect();
            assert_eq!(log, &expect, "node {node} prefix mismatch");
        }
    }

    /// Merging partial replays into an [`LsHistory`] at step counts
    /// `positions`, each from a fresh replay.
    fn history_after(positions: &[usize]) -> LsHistory {
        let mut h = LsHistory::new(4);
        for &n in positions {
            let mut ls = small_ls();
            for _ in 0..n {
                ls.step_event().expect("events available");
            }
            ls.merge_history(&mut h);
        }
        h
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

        /// `merge_history` is order-independent: merging the same replay
        /// positions in any order yields the same canonical history — the
        /// precondition sharded checkpoint seeding leans on (a probe farm
        /// merges whichever shard-replayed prefix finishes first).
        #[test]
        fn merge_history_is_order_independent(
            perm in Just(vec![5usize, 12, 20, 28, 40]).prop_shuffle()
        ) {
            let canonical = history_after(&[5, 12, 20, 28, 40]);
            prop_assert_eq!(history_after(&perm), canonical);
        }
    }

    #[test]
    fn ls_stops_at_last_group() {
        let g = canonical::line(3, SimDuration::from_millis(2));
        let cfg = DefinedConfig::default();
        let f = OspfProcess::for_graph(&g, OspfConfig::stress(3));
        let spawn: Vec<OspfProcess> = (0..3).map(|i| f(netsim::NodeId(i))).collect();
        let spawn2 = spawn.clone();
        let mut net = RbNetwork::new(&g, cfg.clone(), 4, 0.1, move |id| spawn[id.index()].clone());
        net.run_until(SimTime::from_secs(3));
        let (rec, _) = net.into_recording();
        let last = rec.last_group;
        let mut ls = LockstepNet::new(&g, cfg, rec, move |id| spawn2[id.index()].clone());
        ls.run_to_end();
        assert!(ls.is_done());
        assert_eq!(ls.current_group(), last + 1);
        for log in ls.logs() {
            assert!(log.iter().all(|r| r.ann.group <= last + 1));
        }
    }
}
