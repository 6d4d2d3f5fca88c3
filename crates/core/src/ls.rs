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
use std::sync::atomic::{AtomicU64, Ordering};
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

/// The process-wide source of state versions. Each number is handed out
/// once, so two equal versions name the same state — whichever net, image
/// or restore they are read from.
static NEXT_VERSION: AtomicU64 = AtomicU64::new(1);

/// Hands out `n` fresh versions and returns the first.
fn fresh_versions(n: usize) -> u64 {
    // Relaxed: the counter publishes no other data, and `fetch_add` alone
    // makes every number unique.
    NEXT_VERSION.fetch_add(n as u64, Ordering::Relaxed)
}

fn fresh_version() -> u64 {
    fresh_versions(1)
}

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
///
/// Every node state and the staged wave carry a *version*: a fresh number
/// (from one process-wide counter, never reused) whenever they may change
/// — each delivery to a node, each newly staged wave, and each
/// [`LockstepNet::control_plane_mut`], which renews both the node's and the
/// wave's (the patched node's later sends join the staged waves). An
/// [`LsImage`] records the versions it was
/// captured at, so [`LockstepNet::rewind_from_bytes`] decodes only what
/// differs from the live replay.
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
    /// Version of the staged waves, fresh on every `stage_wave` and every
    /// `control_plane_mut`. In between, the queue is fixed, `next_wave` and
    /// every `holdover` entry only grow, and what they grow by is decided
    /// by the queue position alone, so an image with this version differs
    /// from the live waves only by `queue_pos` and by those lengths.
    wave_version: u64,
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
            .map(|i| LsNode {
                snap: NodeSnapshot::new(spawn(NodeId(i as u32))),
                send_count: 0,
                version: fresh_version(),
            })
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
            wave_version: fresh_version(),
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
    ///
    /// Takes a fresh version for the node and for the staged wave: what the
    /// patched node emits from here on joins `next_wave` and the holdover,
    /// so an image captured before the patch, further along the same wave,
    /// is no longer a prefix of the live waves.
    pub fn control_plane_mut(&mut self, node: NodeId) -> &mut P {
        self.wave_version = fresh_version();
        let node = &mut self.nodes[node.index()];
        node.version = fresh_version();
        &mut node.snap.cp
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
            self.nodes[idx].version = fresh_version();
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
            let first = fresh_versions(wave.len());
            for (p, version) in wave.iter().zip(first..) {
                self.nodes[p.to.index()].version = version;
            }
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
        self.wave_version = fresh_version();
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
    /// in-flight chain-overflow messages), phase markers, and the versions
    /// of the node states and of the staged wave. Restoring the image and
    /// re-stepping reproduces the original execution byte for byte
    /// (Theorem 1 applied twice).
    ///
    /// The committed logs and step-time samples are append-only and fully
    /// determined by replay position, so the image records only their
    /// *lengths* — its size is O(network state), independent of how long
    /// the replay has run, which is what keeps a dense checkpoint cadence
    /// (and therefore flat rewind latency) affordable.
    pub fn capture_image(&self) -> LsImage<P> {
        LsImage {
            nodes: self.nodes.clone(),
            log_lens: self.logs.iter().map(Vec::len).collect(),
            phase: Phase {
                group: self.group,
                chain: self.chain,
                queue_pos: self.queue_pos,
                step_times_len: self.step_times.len(),
                done: self.done,
            },
            wave_version: self.wave_version,
            queue: self.queue.clone(),
            next_wave: self.next_wave.clone(),
            holdover: self.holdover.clone(),
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
        for (log, &len) in self.logs.iter_mut().zip(&img.log_lens) {
            assert!(log.len() >= len, "image is ahead of this replay; cannot rewind to it");
            log.truncate(len);
        }
        assert!(self.step_times.len() >= img.phase.step_times_len, "image is ahead of this replay");
        self.step_times.truncate(img.phase.step_times_len);
        self.install(img);
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
        for ((log, hist), &len) in self.logs.iter_mut().zip(&history.logs).zip(&img.log_lens) {
            assert!(hist.len() >= len, "history does not cover the image");
            log.clear();
            log.extend_from_slice(&hist[..len]);
        }
        let steps = img.phase.step_times_len;
        assert!(history.step_times.len() >= steps, "history does not cover the image");
        self.step_times.clear();
        self.step_times.extend_from_slice(&history.step_times[..steps]);
        self.install(img);
    }

    /// Adopts an image's node states, waves, phase markers and versions
    /// (the logs and step times are the caller's).
    fn install(&mut self, img: LsImage<P>) {
        self.nodes = img.nodes;
        self.set_phase(img.phase);
        self.wave_version = img.wave_version;
        self.queue = img.queue;
        self.next_wave = img.next_wave;
        self.holdover = img.holdover;
    }

    fn set_phase(&mut self, phase: Phase) {
        self.group = phase.group;
        self.chain = phase.chain;
        self.queue_pos = phase.queue_pos;
        self.done = phase.done;
    }
}

impl<P> LockstepNet<P>
where
    P: ControlPlane,
    P::Msg: Wire,
    P::Ext: Wire,
{
    /// Rewinds in place to the image encoded in `bytes`
    /// ([`Snapshotable::encode`]), landing exactly where
    /// [`LockstepNet::restore_image`] of the decoded image lands, but
    /// paying only for what differs:
    ///
    /// * a node segment is decoded only when the image's version of that
    ///   node differs from the live one (or the live state is not
    ///   [`Snapshotable::is_canonical`]); an equal version is the same
    ///   state;
    /// * when the image's wave version is the live one and the live
    ///   `next_wave` and holdover are at least the image's lengths, the
    ///   waves are rewound by resetting `queue_pos` and truncating those
    ///   append-only lists; otherwise they are decoded;
    /// * logs and step times are truncated, as `restore_image` does.
    ///
    /// Returns what the rewind decoded, or `None`, leaving the replay
    /// untouched, when the bytes do not parse as an image of this network
    /// or the replay is behind the image.
    pub fn rewind_from_bytes(&mut self, bytes: &[u8]) -> Option<Rewound> {
        let _span = obs::span!("ls.rewind");
        let mut r = Reader::new(bytes);
        let h = ImageHeader::read(&mut r)?;
        if h.versions.len() != self.nodes.len()
            || self.logs.iter().zip(&h.log_lens).any(|(log, &len)| log.len() < len)
            || self.step_times.len() < h.phase.step_times_len
        {
            return None;
        }
        // Parse and decode everything first: a malformed image must leave
        // the replay as it was.
        let mut decoded = Vec::new();
        let mut decoded_bytes = 0;
        for (i, (live, &version)) in self.nodes.iter().zip(&h.versions).enumerate() {
            let seg = segment(&mut r)?;
            if live.version != version || !live.snap.is_canonical() {
                decoded.push((i, decode_node::<P>(seg, version)?));
                decoded_bytes += seg.len();
            }
        }
        let frames = wave_frames(&mut r, &h)?;
        if r.remaining() != 0 {
            return None;
        }
        let waves = if self.keeps_wave(&h) {
            None
        } else {
            decoded_bytes += frames.iter().map(|f| f.len()).sum::<usize>();
            Some(decode_waves::<P>(&frames, &h)?)
        };

        let rewound = Rewound { nodes_decoded: decoded.len(), wave_kept: waves.is_none() };
        obs::counter!("ls.rewind.nodes_decoded").add(rewound.nodes_decoded as u64);
        obs::counter!("wire.bytes_decoded").add(decoded_bytes as u64);
        for (i, node) in decoded {
            self.nodes[i] = node;
        }
        for (log, &len) in self.logs.iter_mut().zip(&h.log_lens) {
            log.truncate(len);
        }
        self.step_times.truncate(h.phase.step_times_len);
        self.set_phase(h.phase);
        match waves {
            Some((queue, next_wave, holdover)) => {
                self.queue = queue;
                self.next_wave = next_wave;
                self.holdover = holdover;
            }
            None => {
                obs::counter!("ls.rewind.wave_kept").add(1);
                self.next_wave.truncate(h.next_wave_len);
                let lens = &h.holdover_lens;
                self.holdover.retain(|g, wave| match lens.binary_search_by_key(g, |&(g, _)| g) {
                    Ok(k) => {
                        wave.truncate(lens[k].1);
                        true
                    }
                    Err(_) => false,
                });
            }
        }
        self.wave_version = h.wave_version;
        Some(rewound)
    }

    /// Whether the live waves are the image's plus appended entries: the
    /// same staged wave (same version), and every append-only list at
    /// least as long as the image's.
    fn keeps_wave(&self, h: &ImageHeader) -> bool {
        h.wave_version == self.wave_version
            && h.phase.queue_pos <= self.queue.len()
            && h.next_wave_len <= self.next_wave.len()
            && h.holdover_lens
                .iter()
                .all(|&(g, len)| self.holdover.get(&g).is_some_and(|w| w.len() >= len))
    }
}

/// What one [`LockstepNet::rewind_from_bytes`] decoded.
///
/// The `ls.rewind.*` counters publish the same numbers, but summed over the
/// whole process (every replay and every concurrently running test) and not
/// at all under the `obs-off` feature; this is the per-call account, which
/// the oracle tests use to show that both wave branches ran.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rewound {
    /// Node segments decoded (the rest were kept in place).
    pub nodes_decoded: usize,
    /// Whether the staged waves were kept and truncated instead of decoded.
    pub wave_kept: bool,
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
/// are stored as lengths — see [`LockstepNet::capture_image`]), and the
/// versions of the node states and of the staged wave.
///
/// Created by [`LockstepNet::capture_image`] and consumed by
/// [`LockstepNet::restore_image`]. When the message and external payload
/// types have [`Wire`] codecs the image is [`Snapshotable`], so it can be
/// stored in a [`checkpoint::Checkpointer`] or [`checkpoint::Timeline`]
/// under any strategy — with `MemIntercept`, retained images share every
/// unchanged 4 KiB page, which is what makes a dense reverse-execution
/// checkpoint cadence affordable.
///
/// The encoding is laid out for [`LockstepNet::rewind_from_bytes`], which
/// reads the bytes without decoding all of them:
///
/// 1. a header — node count; each node's version and log length; the wave
///    version; group, chain, queue position, step-time count and done
///    flag; the `next_wave` length; each holdover group and its length;
/// 2. one segment per node, length-prefixed: its snapshot and send count;
/// 3. the waves, each a length-prefixed segment led by its own count
///    (which must agree with the header): the queue, `next_wave`, then
///    each holdover wave in group order.
///
/// Versions are numbers of this process, so the encoding is an in-memory
/// format: it is never written to a recording or store.
#[derive(Clone)]
pub struct LsImage<P: ControlPlane> {
    nodes: Vec<LsNode<P>>,
    log_lens: Vec<usize>,
    phase: Phase,
    wave_version: u64,
    queue: Wave<P>,
    next_wave: Wave<P>,
    holdover: BTreeMap<u64, Wave<P>>,
}

/// Where an image's replay stood: the scalar phase markers.
#[derive(Clone, Copy)]
struct Phase {
    group: u64,
    chain: u32,
    queue_pos: usize,
    step_times_len: usize,
    done: bool,
}

/// The header of an encoded [`LsImage`]: everything but the node segments
/// and the waves.
struct ImageHeader {
    versions: Vec<u64>,
    log_lens: Vec<usize>,
    wave_version: u64,
    phase: Phase,
    next_wave_len: usize,
    /// `(group, length)` per holdover wave, groups strictly increasing.
    holdover_lens: Vec<(u64, usize)>,
}

impl ImageHeader {
    fn read(r: &mut Reader<'_>) -> Option<Self> {
        let n = r.len()?;
        let mut versions = Vec::with_capacity(n);
        let mut log_lens = Vec::with_capacity(n);
        for _ in 0..n {
            versions.push(r.u64()?);
            log_lens.push(r.u64()? as usize);
        }
        let wave_version = r.u64()?;
        // A position and a count, not element counts of what follows —
        // `Reader::len`'s remaining-bytes sanity check does not apply.
        let phase = Phase {
            group: r.u64()?,
            chain: r.u32()?,
            queue_pos: r.u64()? as usize,
            step_times_len: r.u64()? as usize,
            done: r.boolean()?,
        };
        let next_wave_len = r.len()?;
        let n_hold = r.len()?;
        let mut holdover_lens: Vec<(u64, usize)> = Vec::with_capacity(n_hold);
        for _ in 0..n_hold {
            let g = r.u64()?;
            if holdover_lens.last().is_some_and(|&(prev, _)| prev >= g) {
                return None;
            }
            holdover_lens.push((g, r.len()?));
        }
        Some(ImageHeader { versions, log_lens, wave_version, phase, next_wave_len, holdover_lens })
    }
}

/// Appends one length-prefixed segment holding what `write` appends.
fn put_segment(buf: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    let at = buf.len();
    put_u64(buf, 0);
    write(buf);
    let len = (buf.len() - at - 8) as u64;
    buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
}

/// Reads one length-prefixed segment.
fn segment<'a>(r: &mut Reader<'a>) -> Option<&'a [u8]> {
    let n = r.len()?;
    r.bytes(n)
}

/// Splits the waves section into its segments — queue, `next_wave`, the
/// holdover waves — checking each one's leading count against the header
/// without decoding it.
fn wave_frames<'a>(r: &mut Reader<'a>, h: &ImageHeader) -> Option<Vec<&'a [u8]>> {
    let lens = h.holdover_lens.iter().map(|&(_, len)| Some(len));
    [None, Some(h.next_wave_len)]
        .into_iter()
        .chain(lens)
        .map(|want| {
            let frame = segment(r)?;
            let count = Reader::new(frame).u64()?;
            want.is_none_or(|len| len as u64 == count).then_some(frame)
        })
        .collect()
}

/// Decodes one node segment, which must be consumed exactly.
fn decode_node<P: ControlPlane>(seg: &[u8], version: u64) -> Option<LsNode<P>> {
    let mut r = Reader::new(seg);
    let snap = NodeSnapshot::decode_from(&mut r)?;
    let send_count = r.u64()?;
    (r.remaining() == 0).then_some(LsNode { snap, send_count, version })
}

/// An image's queue, `next_wave` and holdover.
type Waves<P> = (Wave<P>, Wave<P>, BTreeMap<u64, Wave<P>>);

/// Decodes the [`wave_frames`] of an image with header `h`.
fn decode_waves<P>(frames: &[&[u8]], h: &ImageHeader) -> Option<Waves<P>>
where
    P: ControlPlane,
    P::Msg: Wire,
    P::Ext: Wire,
{
    let decode = |frame: &[u8]| {
        let mut r = Reader::new(frame);
        let wave = decode_wave(&mut r)?;
        (r.remaining() == 0).then_some(wave)
    };
    let queue = decode(frames[0])?;
    if h.phase.queue_pos > queue.len() {
        return None;
    }
    let next_wave = decode(frames[1])?;
    let holdover = h
        .holdover_lens
        .iter()
        .zip(&frames[2..])
        .map(|(&(g, _), frame)| Some((g, decode(frame)?)))
        .collect::<Option<_>>()?;
    Some((queue, next_wave, holdover))
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
        for (node, &len) in self.nodes.iter().zip(&self.log_lens) {
            put_u64(buf, node.version);
            put_u64(buf, len as u64);
        }
        put_u64(buf, self.wave_version);
        let p = self.phase;
        put_u64(buf, p.group);
        put_u32(buf, p.chain);
        put_u64(buf, p.queue_pos as u64);
        put_u64(buf, p.step_times_len as u64);
        put_u8(buf, p.done as u8);
        put_u64(buf, self.next_wave.len() as u64);
        put_u64(buf, self.holdover.len() as u64);
        for (&group, wave) in &self.holdover {
            put_u64(buf, group);
            put_u64(buf, wave.len() as u64);
        }
        for node in &self.nodes {
            put_segment(buf, |buf| {
                node.snap.encode(buf);
                put_u64(buf, node.send_count);
            });
        }
        let waves = [&self.queue, &self.next_wave].into_iter().chain(self.holdover.values());
        for wave in waves {
            put_segment(buf, |buf| encode_wave(wave, buf));
        }
        obs::counter!("wire.bytes_encoded").add((buf.len() - start) as u64);
    }

    fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
        let start = r.remaining();
        let h = ImageHeader::read(r)?;
        let nodes = h
            .versions
            .iter()
            .map(|&version| decode_node(segment(r)?, version))
            .collect::<Option<Vec<_>>>()?;
        let (queue, next_wave, holdover) = decode_waves::<P>(&wave_frames(r, &h)?, &h)?;
        obs::counter!("wire.bytes_decoded").add((start - r.remaining()) as u64);
        Some(LsImage {
            nodes,
            log_lens: h.log_lens,
            phase: h.phase,
            wave_version: h.wave_version,
            queue,
            next_wave,
            holdover,
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
    }

    fn encoded(img: &LsImage<OspfProcess>) -> Vec<u8> {
        let mut buf = Vec::new();
        img.encode(&mut buf);
        buf
    }

    /// A ring-4 OSPF replay whose causal-chain bound of 2 sends
    /// chain-overflow messages to the holdover.
    fn overflowing_ls() -> LockstepNet<OspfProcess> {
        let g = canonical::ring(4, SimDuration::from_millis(4));
        let cfg = DefinedConfig { chain_bound: 2, ..DefinedConfig::default() };
        let f = OspfProcess::for_graph(&g, OspfConfig::stress(4));
        let spawn: Vec<OspfProcess> = (0..4).map(|i| f(netsim::NodeId(i))).collect();
        let spawn2 = spawn.clone();
        let mut net = RbNetwork::new(&g, cfg.clone(), 9, 0.4, move |id| spawn[id.index()].clone());
        net.run_until(SimTime::from_secs(3));
        let (rec, _) = net.into_recording();
        LockstepNet::new(&g, cfg, rec, move |id| spawn2[id.index()].clone())
    }

    /// A replay stepped to the first position where `want` holds, the
    /// bytes of its image there, and a twin replay of the same recording
    /// run to its end. The stepped replay still holds every version the
    /// image names, so a rewind of it keeps the waves; the twin holds none
    /// of them, so a rewind of it decodes everything.
    fn image_and_targets(
        want: impl Fn(&LockstepNet<OspfProcess>) -> bool,
    ) -> (Vec<u8>, [LockstepNet<OspfProcess>; 2]) {
        let mut ls = overflowing_ls();
        while !want(&ls) {
            ls.step_event().expect("the replay reaches a wanted position");
        }
        let bytes = encoded(&ls.capture_image());
        let mut twin = overflowing_ls();
        twin.run_to_end();
        (bytes, [ls, twin])
    }

    /// Asserts that the image decoder and a rewind of every target refuse
    /// `bytes`, and that a refused rewind leaves its replay as it was.
    fn assert_refused(bytes: &[u8], targets: &mut [LockstepNet<OspfProcess>], what: &str) {
        assert!(<LsImage<OspfProcess> as Snapshotable>::decode(bytes).is_none(), "decoded {what}");
        for (k, net) in targets.iter_mut().enumerate() {
            let before = encoded(&net.capture_image());
            assert!(net.rewind_from_bytes(bytes).is_none(), "target {k} rewound to {what}");
            assert_eq!(encoded(&net.capture_image()), before, "target {k} changed by {what}");
        }
    }

    /// A rewind from bytes lands where a restore of the decoded image
    /// does, keeping the waves on the replay the image came from and
    /// decoding them on a twin.
    #[test]
    fn rewind_from_bytes_matches_a_full_restore() {
        // Mid-wave, with messages already emitted into the next wave.
        let (bytes, [mut ls, mut twin]) =
            image_and_targets(|ls| ls.queue_pos < ls.queue.len() && !ls.next_wave.is_empty());
        let mut restored = overflowing_ls();
        restored.run_to_end();
        restored.restore_image(Snapshotable::decode(&bytes).expect("decodes"));
        let want = encoded(&restored.capture_image());
        // At the image and one event past it the staged wave is the
        // image's: kept, not decoded.
        for steps in [0, 1] {
            for _ in 0..steps {
                ls.step_event().expect("events");
            }
            let rewound = ls.rewind_from_bytes(&bytes).expect("rewinds");
            assert!(rewound.wave_kept, "{steps} step(s) on: {rewound:?}");
            assert_eq!(encoded(&ls.capture_image()), want);
        }
        ls.run_to_group_start(ls.current_group() + 2);
        let rewound = ls.rewind_from_bytes(&bytes).expect("rewinds");
        assert!(!rewound.wave_kept, "a later group's wave is a different wave");
        assert_eq!(encoded(&ls.capture_image()), want);
        let rewound = twin.rewind_from_bytes(&bytes).expect("rewinds");
        assert_eq!(rewound, Rewound { nodes_decoded: 4, wave_kept: false });
        assert_eq!(encoded(&twin.capture_image()), want);
        let tail = |mut net: LockstepNet<OspfProcess>| {
            net.run_to_end();
            net.logs().to_vec()
        };
        let expect = tail(restored);
        assert_eq!(tail(ls), expect);
        assert_eq!(tail(twin), expect);
    }

    /// A patch renews the wave version. The debugger keeps a checkpoint it
    /// recorded before a patch, and going forward again does not record
    /// that position anew, so a rewind can reach an image captured further
    /// along the live wave *before* the patch. Its waves must be decoded:
    /// the live `next_wave` and holdover have grown by what the patched
    /// nodes sent, which is not the image's.
    #[test]
    fn a_patch_renews_the_staged_wave() {
        let boot = overflowing_ls();
        let mut ls = overflowing_ls();
        let mut checked = 0;
        while !ls.done {
            if ls.queue_pos + 1 >= ls.queue.len() {
                ls.step_event();
                continue;
            }
            let before = encoded(&ls.capture_image());
            ls.step_event().expect("the staged wave has events left");
            let ahead = encoded(&ls.capture_image());
            let header = |b: &[u8]| ImageHeader::read(&mut Reader::new(b)).expect("header");
            ls.rewind_from_bytes(&before).expect("rewinds");
            ls.step_event().expect("the staged wave has events left");
            assert!(ls.keeps_wave(&header(&ahead)), "unpatched, the waves are the image's");
            ls.rewind_from_bytes(&before).expect("rewinds");
            for i in 0..4 {
                let node = NodeId(i);
                *ls.control_plane_mut(node) = boot.control_plane(node).clone();
            }
            ls.step_event().expect("the staged wave has events left");
            assert!(!ls.keeps_wave(&header(&ahead)), "a pre-patch image kept the wave");
            ls.rewind_from_bytes(&ahead).expect("rewinds");
            assert_eq!(encoded(&ls.capture_image()), ahead, "landed off the image");
            checked += 1;
        }
        assert!(checked > 10, "only {checked} positions checked");
    }

    /// No malformed image decodes or rewinds, and none panics: a cut at
    /// every byte, a wrong node-segment length prefix, and a header whose
    /// `next_wave` or holdover length disagrees with the encoded wave.
    #[test]
    fn malformed_images_are_refused() {
        // One image with a staged next wave, one with holdover waves.
        let with_next_wave = |ls: &LockstepNet<OspfProcess>| !ls.next_wave.is_empty();
        let with_holdover = |ls: &LockstepNet<OspfProcess>| !ls.holdover.is_empty();
        let (bytes, mut targets) = image_and_targets(with_next_wave);
        check_refusals(&bytes, &mut targets, false);
        let (bytes, mut targets) = image_and_targets(with_holdover);
        check_refusals(&bytes, &mut targets, true);
    }

    fn check_refusals(bytes: &[u8], targets: &mut [LockstepNet<OspfProcess>], holdover: bool) {
        for cut in 0..bytes.len() {
            assert_refused(&bytes[..cut], targets, &format!("a cut at byte {cut}"));
        }
        // The header: node count, per node version and log length, wave
        // version, phase (group, chain, queue position, step-time count,
        // done), `next_wave` length, holdover count, per holdover group and
        // length; the node segments follow.
        let n = 4;
        let next_wave_at = 8 + 16 * n + 8 + 29;
        let n_hold = u64::from_le_bytes(bytes[next_wave_at + 8..][..8].try_into().unwrap());
        assert_eq!(n_hold > 0, holdover, "the image has holdover waves");
        let first_hold_len_at = next_wave_at + 16 + 8;
        let mut at = next_wave_at + 16 + 16 * n_hold as usize;
        let mut prefixes = Vec::new();
        for _ in 0..n {
            prefixes.push(at);
            at += 8 + u64::from_le_bytes(bytes[at..][..8].try_into().unwrap()) as usize;
        }
        let with = |at: usize, delta: i64| {
            let mut b = bytes.to_vec();
            let v = u64::from_le_bytes(b[at..][..8].try_into().unwrap()).wrapping_add_signed(delta);
            b[at..at + 8].copy_from_slice(&v.to_le_bytes());
            b
        };
        for (node, &at) in prefixes.iter().enumerate() {
            for delta in [-1, 1, i64::MAX] {
                let what = format!("node {node}'s segment length {delta:+}");
                assert_refused(&with(at, delta), targets, &what);
            }
        }
        let mut fields = vec![(next_wave_at, "next_wave")];
        if holdover {
            fields.push((first_hold_len_at, "holdover"));
        }
        for (at, field) in fields {
            for delta in [-1, 1] {
                let what = format!("a header {field} length {delta:+}");
                assert_refused(&with(at, delta), targets, &what);
            }
        }
        // The unmodified image is accepted by both.
        for net in targets {
            assert!(net.rewind_from_bytes(bytes).is_some());
        }
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
