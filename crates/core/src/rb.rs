//! DEFINED-RB: the production-network shim (paper §2.2, §3).
//!
//! [`RbShim`] wraps a [`ControlPlane`] and interposes on every message,
//! timer, and external input. Arrivals are delivered *speculatively* in
//! arrival order; each node independently computes the pseudorandom order
//! ([`crate::order`]) over its receive history, and when an arrival violates
//! that order the node rolls back — restoring a checkpoint, *unsending*
//! previously transmitted messages with anti-message control packets, and
//! replaying the history suffix in the correct order. Cascading rollbacks
//! terminate by the paper's Theorem 2 (group numbers are bounded below and
//! GVT advances).
//!
//! Virtual time: one node (the beacon source, elected on failure) floods a
//! beacon per 250 ms; a beacon's receipt is itself an ordered, rollback-able
//! history event whose delivery advances the node's group counter and fires
//! due protocol timers deterministically.

use crate::config::{CapturePolicy, DefinedConfig};
use crate::metrics::RbMetrics;
use defined_obs as obs;
use crate::order::{debug_digest, Annotation, EventClass, MsgId, OrderKey};
use crate::recorder::CommitRecord;
use crate::snapshot::{Event, NodeSnapshot};
use checkpoint::{Checkpointer, Snapshotable};
use netsim::{NodeId, Process, ProcessCtx, SimDuration, SimTime, TimerId, TimerKey};
use routing::ControlPlane;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use topology::{Graph, TopoMask};

/// Real (simulator wall-clock) timers the shim itself uses.
const TK_BEACON: TimerKey = TimerKey(1);
const TK_GC: TimerKey = TimerKey(2);
const TK_WATCHDOG: TimerKey = TimerKey(3);
const TK_CLAIM: TimerKey = TimerKey(4);

/// The wire format of an instrumented network.
#[derive(Clone, Debug)]
pub enum Envelope<M> {
    /// An annotated application message.
    App {
        /// Unique message identity (for unsend matching).
        id: MsgId,
        /// Ordering annotation.
        ann: Annotation,
        /// The control-plane payload.
        payload: M,
    },
    /// A flooded group-number beacon.
    Beacon {
        /// Election epoch (increments when a new source takes over).
        epoch: u32,
        /// The beacon source.
        source: NodeId,
        /// Beacon number == the group it opens.
        number: u64,
    },
    /// An anti-message: the listed ids must be rolled back.
    Unsend {
        /// Message ids to retract.
        ids: Vec<MsgId>,
    },
}

/// Network-wide immutable context shared by every shim, and by the
/// lockstep replayer: the run configuration, the delay estimates measured
/// before launch, and the two annotation recipes built on them. Both
/// runtimes annotate through this one struct, which is what keeps a
/// replayed key equal to the production key.
#[derive(Clone, Debug)]
pub struct RbShared {
    /// The run configuration.
    pub cfg: DefinedConfig,
    /// `link_est[a]` maps neighbour → measured average delay (ns) of the
    /// `a → neighbour` link, measured before launch as §2.2 prescribes.
    pub link_est: Vec<BTreeMap<NodeId, u64>>,
    /// `dist[s][n]`: estimated shortest-path delay (ns) from `s` to `n`,
    /// used to annotate beacon ticks.
    pub dist: Vec<Vec<u64>>,
    /// The initially configured beacon source.
    pub initial_source: NodeId,
}

/// Builds the per-source shortest-path delay estimates (`dist[s][n]`, ns)
/// beacon ticks are annotated with.
fn delay_estimates(g: &Graph) -> Vec<Vec<u64>> {
    let mask = TopoMask::default();
    (0..g.node_count())
        .map(|s| {
            let info = g.shortest_paths(NodeId(s as u32), &mask);
            info.dist
                .iter()
                .map(|d| d.map(|x| x.0).unwrap_or(u64::MAX / 4))
                .collect()
        })
        .collect()
}

impl RbShared {
    /// The context of a run over `graph`: link delays read off its edges,
    /// path delays from its shortest paths, node 0 the beacon source.
    pub fn new(graph: &Graph, cfg: DefinedConfig) -> Self {
        let mut link_est = vec![BTreeMap::new(); graph.node_count()];
        for e in graph.edges() {
            link_est[e.a.index()].insert(e.b, e.delay.0);
            link_est[e.b.index()].insert(e.a, e.delay.0);
        }
        RbShared { cfg, link_est, dist: delay_estimates(graph), initial_source: NodeId(0) }
    }

    /// Annotation of the `emit`-th message `me` sends to `to` while
    /// handling the event annotated `parent` (an unmeasured link counts as
    /// 1 ns).
    pub fn child_annotation(
        &self,
        parent: &Annotation,
        me: NodeId,
        to: NodeId,
        emit: usize,
    ) -> Annotation {
        let link = self.link_est[me.index()].get(&to).copied().unwrap_or(1);
        Annotation::child(parent, me, link, emit as u32, self.cfg.chain_bound)
    }

    /// Annotation of the group-`number` tick announced by `source`, as
    /// delivered at `node`.
    pub fn beacon_annotation(&self, source: NodeId, number: u64, node: NodeId) -> Annotation {
        Annotation::beacon(source, number, self.dist[source.index()][node.index()])
    }
}

#[derive(Clone, Debug)]
struct Entry<M, X> {
    key: OrderKey,
    ann: Annotation,
    /// Wire identity for messages (unsend matching).
    id: Option<MsgId>,
    ev: Event<M, X>,
    ckpt: Option<checkpoint::CheckpointId>,
    arrived: SimTime,
    /// Messages this entry's delivery transmitted (replaced on redelivery);
    /// exactly the set an unsend of this entry must retract.
    sends: Vec<SentRec>,
}

/// One transmitted message, as its history entry remembers it. An entry's
/// `sends` are in emit order and every send is recorded, so
/// `sends[i].ann.emit == i`.
///
/// Re-delivering an entry matches what the handler regenerates against
/// these (Time-Warp lazy cancellation): a message identical in
/// destination, annotation, and payload *keeps* the original wire message,
/// so no anti-message and no re-send are needed for it. Only the leftovers
/// — sends the new execution did not reproduce — are unsent. This is what
/// keeps cascading rollbacks from echoing identical traffic around the
/// network. Matching is per entry because an annotation's `lineage` chains
/// its parent entry's identity: a regenerated send can only equal a
/// retracted send of the entry that is regenerating it.
#[derive(Clone, Copy, Debug)]
struct SentRec {
    id: MsgId,
    to: NodeId,
    /// Annotation the message was sent with (lazy-cancellation matching).
    ann: Annotation,
    /// Payload digest (lazy-cancellation matching).
    digest: u64,
}

/// A recorded external input (consumed by the harness to build a
/// [`crate::recorder::Recording`]).
#[derive(Clone, Debug)]
pub struct ExtLogEntry<X> {
    /// Arrival index at this node (0 = startup).
    pub ext_seq: u64,
    /// Group the event was tagged with.
    pub group: u64,
    /// Payload.
    pub payload: X,
}

/// Measured shape of one rollback episode (drives the Fig. 7a cost curves).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RollbackSample {
    /// Mean retained checkpoint image size at the time (bytes).
    pub state_bytes: usize,
    /// Dirty pages of the most recent checkpoint (MI strategy; 0 otherwise).
    pub dirty_pages: usize,
    /// History entries replayed.
    pub replayed: usize,
}

/// Measured shape of one checkpoint (drives the Fig. 7b cost curves).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointSample {
    /// Mean retained checkpoint image size at the time (bytes).
    pub state_bytes: usize,
    /// Dirty pages copied (MI strategy; full page count otherwise).
    pub dirty_pages: usize,
}

/// A reader's position in one shim's delivered stream (`committed ++
/// history`), held across [`RbShim::ticks_from`] calls so the stream is
/// consumed incrementally instead of rescanned.
///
/// A cursor is only as good as the prefix behind it is final: the caller
/// must bound every walk by a frontier below which no straggler or
/// anti-message can land (the GVT margin), and must start over from
/// [`Default`] when the node restarts — the shim it pointed into is gone.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeliveredCursor {
    at: usize,
    /// Key of the last entry passed; debug builds check it is still there.
    last: Option<OrderKey>,
}

impl DeliveredCursor {
    /// Entries passed so far.
    pub fn position(&self) -> usize {
        self.at
    }
}

/// Cap on retained cost samples per node.
const SAMPLE_CAP: usize = 20_000;

/// The DEFINED-RB shim around one control plane.
pub struct RbShim<P: ControlPlane> {
    me: NodeId,
    shared: Arc<RbShared>,
    snap: NodeSnapshot<P>,
    history: Vec<Entry<P::Msg, P::Ext>>,
    committed: Vec<CommitRecord>,
    committed_max_key: Option<OrderKey>,
    committed_sends: Vec<MsgId>,
    ckpt: Checkpointer<NodeSnapshot<P>>,
    deliveries_since_ckpt: u32,
    /// Current effective capture interval (fixed for
    /// [`CapturePolicy::Every`]; moves within the configured bounds under
    /// [`CapturePolicy::Auto`]).
    capture_interval: u32,
    /// Deliveries since the last adaptation decision.
    adapt_window: u32,
    /// `metrics.rollbacks` at the last adaptation decision.
    adapt_rollbacks_base: u64,
    ext_seq: u64,
    ext_log: Vec<ExtLogEntry<P::Ext>>,
    send_seq: u64,
    incarnation: u32,
    /// Retracted sends the running rollback's replay did not regenerate,
    /// awaiting [`RbShim::unsend_leftovers`]; empty between rollbacks.
    leftovers: Vec<(NodeId, MsgId)>,
    /// Jump-probe scratch: the primary state bytes before and after the
    /// straggler, kept for their capacity.
    probe_pre: Vec<u8>,
    probe_post: Vec<u8>,
    /// Every message id ever received (duplicate-arrival guard).
    seen_ids: HashSet<MsgId>,
    poison: HashSet<MsgId>,
    started: bool,
    // Beaconing / election.
    max_beacon_seen: u64,
    /// Highest `(epoch, number)` flooded so far (relay dedup; lexicographic
    /// so a failover epoch propagates even when its numbers have not yet
    /// caught up with this node's `max_beacon_seen`).
    last_flood: (u32, u64),
    epoch: u32,
    known_source: NodeId,
    i_am_source: bool,
    last_beacon_wall: SimTime,
    watchdog: Option<TimerId>,
    pending_overhead: SimDuration,
    rollback_samples: Vec<RollbackSample>,
    ckpt_samples: Vec<CheckpointSample>,
    /// Overhead/rollback counters.
    pub metrics: RbMetrics,
}

impl<P: ControlPlane> RbShim<P> {
    /// Wraps `cp` for node `me` under the shared run context.
    pub fn new(me: NodeId, cp: P, shared: Arc<RbShared>) -> Self {
        let strategy = shared.cfg.strategy;
        let capture_interval = shared.cfg.capture.initial_interval();
        RbShim {
            me,
            shared,
            snap: NodeSnapshot::new(cp),
            history: Vec::new(),
            committed: Vec::new(),
            committed_max_key: None,
            committed_sends: Vec::new(),
            capture_interval,
            adapt_window: 0,
            adapt_rollbacks_base: 0,
            ckpt: Checkpointer::new(strategy),
            deliveries_since_ckpt: 0,
            ext_seq: 0,
            ext_log: Vec::new(),
            send_seq: 0,
            incarnation: 0,
            leftovers: Vec::new(),
            probe_pre: Vec::new(),
            probe_post: Vec::new(),
            seen_ids: HashSet::new(),
            poison: HashSet::new(),
            started: false,
            max_beacon_seen: 0,
            last_flood: (0, 0),
            epoch: 0,
            known_source: NodeId(0),
            i_am_source: false,
            last_beacon_wall: SimTime::ZERO,
            watchdog: None,
            pending_overhead: SimDuration::ZERO,
            rollback_samples: Vec::new(),
            ckpt_samples: Vec::new(),
            metrics: RbMetrics::default(),
        }
    }

    /// Per-rollback shape samples collected so far.
    pub fn rollback_samples(&self) -> &[RollbackSample] {
        &self.rollback_samples
    }

    /// Per-checkpoint shape samples collected so far.
    pub fn checkpoint_samples(&self) -> &[CheckpointSample] {
        &self.ckpt_samples
    }

    /// The wrapped control plane (current speculative state).
    pub fn control_plane(&self) -> &P {
        &self.snap.cp
    }

    /// Current virtual-time group.
    pub fn current_group(&self) -> u64 {
        self.snap.current_group
    }

    /// Live (uncommitted) history length.
    pub fn history_len(&self) -> usize {
        self.history.len()
    }

    /// The full delivered log: committed records followed by live entries.
    pub fn commit_records(&self) -> Vec<CommitRecord> {
        let mut out = self.committed.clone();
        out.extend(self.history.iter().map(|e| Self::record_of(e)));
        out
    }

    /// Length of the delivered stream: committed records plus live entries.
    pub fn delivered_len(&self) -> usize {
        self.committed.len() + self.history.len()
    }

    fn delivered_at(&self, i: usize) -> Option<(OrderKey, &Annotation)> {
        match self.committed.get(i) {
            Some(r) => Some((r.key, &r.ann)),
            None => self.history.get(i - self.committed.len()).map(|e| (e.key, &e.ann)),
        }
    }

    /// Walks the delivered stream forward from `cursor` over every entry
    /// in groups `<= upto`, reporting each beacon tick passed as
    /// `tick(group, announcing source)`, and returns where it stopped. The
    /// stream is key-sorted and keys are group-major, so the entries at or
    /// below `upto` are exactly a prefix; nothing is cloned or digested.
    ///
    /// Cost is the entries passed plus one. An error from `tick` aborts the
    /// walk and is returned as is.
    pub fn ticks_from<E>(
        &self,
        cursor: DeliveredCursor,
        upto: u64,
        mut tick: impl FnMut(u64, NodeId) -> Result<(), E>,
    ) -> Result<DeliveredCursor, E> {
        debug_assert!(
            cursor.at.checked_sub(1).and_then(|i| self.delivered_at(i)).map(|(k, _)| k)
                == cursor.last,
            "node {}: the delivered prefix changed behind a cursor at {} — an entry at or \
             below a drained frontier was inserted or removed",
            self.me,
            cursor.at,
        );
        let mut c = cursor;
        while let Some((key, ann)) = self.delivered_at(c.at) {
            if ann.group > upto {
                break;
            }
            debug_assert!(c.last.is_none_or(|l| l <= key), "delivered stream out of key order");
            if ann.class == EventClass::Beacon {
                tick(ann.group, ann.origin)?;
            }
            c = DeliveredCursor { at: c.at + 1, last: Some(key) };
        }
        Ok(c)
    }

    /// Recorded external inputs at this node.
    pub fn ext_log(&self) -> &[ExtLogEntry<P::Ext>] {
        &self.ext_log
    }

    /// Commits everything still live and returns the node's committed send
    /// sequence. Call once, after the run.
    pub fn finalize(&mut self) -> Vec<MsgId> {
        let n = self.history.len();
        self.commit_prefix(n);
        self.committed_sends.clone()
    }

    /// Checkpoint-store statistics (for memory-overhead figures).
    pub fn checkpoint_stats(&self) -> checkpoint::MemStats {
        self.ckpt.stats()
    }

    /// The group of this node's earliest *uncommitted* (still rollback-able)
    /// history entry, or the current group when nothing is live.
    ///
    /// The network-wide minimum of this value is a lower bound on the global
    /// virtual time (GVT) of Jefferson's Lemma 2: no node can ever again
    /// roll back below it.
    pub fn earliest_live_group(&self) -> u64 {
        self.history
            .first()
            .map(|e| e.key.group())
            .unwrap_or(self.snap.current_group)
    }

    /// Commits (and garbage-collects) every history entry in groups
    /// `<= group` — Jefferson-style fossil collection once GVT has passed
    /// `group`.
    ///
    /// Like the wall-clock horizon GC, the cut is clamped so the first
    /// retained entry still owns a checkpoint.
    pub fn commit_through_group(&mut self, group: u64) {
        let p = self.history.partition_point(|e| e.key.group() <= group);
        self.commit_prefix(p);
    }

    fn record_of(e: &Entry<P::Msg, P::Ext>) -> CommitRecord {
        CommitRecord { key: e.key, ann: e.ann, payload_digest: e.ev.payload_digest() }
    }

    // ------------------------------------------------------------------
    // Delivery machinery.
    // ------------------------------------------------------------------

    fn insert_arrival(
        &mut self,
        ctx: &mut ProcessCtx<'_, Envelope<P::Msg>>,
        ann: Annotation,
        id: Option<MsgId>,
        ev: Event<P::Msg, P::Ext>,
    ) {
        let key = ann.key(self.shared.cfg.ordering);
        let entry = Entry {
            key,
            ann,
            id,
            ev,
            ckpt: None,
            arrived: ctx.now(),
            sends: Vec::new(),
        };
        if let Some(cmk) = self.committed_max_key {
            if key <= cmk {
                // The commit horizon was too small: the entry this arrival
                // should precede is already garbage-collected. Deliver late
                // and record the violation (§2.2 sizes the horizon so this
                // never fires).
                self.metrics.window_violations += 1;
                self.deliver_at_end(ctx, entry, self.history.is_empty());
                return;
            }
        }
        let pos = self.history.partition_point(|e| e.key <= key);
        if pos == self.history.len() {
            self.metrics.fast_path += 1;
            self.deliver_at_end(ctx, entry, self.history.is_empty());
        } else {
            self.rollback_insert(ctx, pos, entry);
        }
        self.metrics.max_history = self.metrics.max_history.max(self.history.len());
    }

    /// Checkpoints (per the capture cadence, or unconditionally when
    /// `force`) and delivers at the end of the history: the fast path, and
    /// each step of a rollback's re-execution.
    fn deliver_at_end(
        &mut self,
        ctx: &mut ProcessCtx<'_, Envelope<P::Msg>>,
        mut entry: Entry<P::Msg, P::Ext>,
        force: bool,
    ) {
        entry.ckpt = None;
        self.maybe_checkpoint(&mut entry, force);
        self.deliver(ctx, &mut entry);
        self.history.push(entry);
    }

    /// Re-evaluates the adaptive capture interval once per
    /// [`CapturePolicy::ADAPT_WINDOW`] deliveries: a window that rolled
    /// back doubles the interval (churn makes per-commit captures the
    /// dominant cost), a quiet window shortens it by one delivery back
    /// toward cheap rollbacks. The decrease is additive on purpose — under
    /// sustained churn rollbacks land in only *some* windows, and a
    /// symmetric halving would give the interval back as fast as it was
    /// earned, pinning it near `min` exactly when captures dominate.
    /// Inputs are this node's own delivered history and rollback count —
    /// both replay identically, so the schedule is deterministic.
    fn adapt_capture_interval(&mut self) {
        let CapturePolicy::Auto { min, max } = self.shared.cfg.capture else {
            return;
        };
        if self.adapt_window < CapturePolicy::ADAPT_WINDOW {
            return;
        }
        self.adapt_window = 0;
        let rolled = self.metrics.rollbacks - self.adapt_rollbacks_base;
        self.adapt_rollbacks_base = self.metrics.rollbacks;
        let next = if rolled > 0 {
            self.capture_interval.saturating_mul(2).min(max.max(1))
        } else {
            (self.capture_interval - 1).max(min.max(1))
        };
        if next > self.capture_interval {
            obs::counter!("ckpt.adapt.widen").add(1);
        } else if next < self.capture_interval {
            obs::counter!("ckpt.adapt.narrow").add(1);
        }
        self.capture_interval = next;
        obs::hist!("ckpt.interval").record(self.capture_interval as u64);
    }

    fn maybe_checkpoint(&mut self, entry: &mut Entry<P::Msg, P::Ext>, force: bool) {
        self.adapt_capture_interval();
        let due = self.deliveries_since_ckpt.is_multiple_of(self.capture_interval.max(1));
        if force || due {
            let id = self.ckpt.checkpoint(&self.snap);
            entry.ckpt = Some(id);
            self.deliveries_since_ckpt = 0;
            let stats = self.ckpt.stats();
            let bytes = stats.virtual_bytes / stats.retained.max(1);
            if self.ckpt_samples.len() < SAMPLE_CAP {
                self.ckpt_samples.push(CheckpointSample {
                    state_bytes: bytes,
                    dirty_pages: stats.last_dirty_pages,
                });
            }
            let ns = match self.shared.cfg.strategy {
                // MI copies only pool-fresh pages; already-pooled dirty
                // pages are priced as dedup hits, matching what the
                // store's `bytes_stored` records.
                checkpoint::Strategy::MemIntercept => self.shared.cfg.cost.capture_ns(
                    self.shared.cfg.fork_timing,
                    stats.last_dirty_pages,
                    stats.last_fresh_pages,
                ),
                _ => self.shared.cfg.cost.checkpoint_ns(self.shared.cfg.fork_timing, bytes, None),
            };
            self.pending_overhead += SimDuration::from_nanos(ns);
            self.metrics.overhead_ns += ns;
        }
        self.deliveries_since_ckpt += 1;
        self.adapt_window += 1;
    }

    /// Executes one entry against the control plane and transmits its
    /// outputs, everything logged for possible unsending. On a re-delivery
    /// `entry.sends` holds what the previous execution transmitted: a
    /// regenerated send identical to the one recorded at its emit index
    /// stands as transmitted (lazy cancellation — no re-send, no
    /// anti-message), and the recorded sends not regenerated go to
    /// `self.leftovers`.
    fn deliver(
        &mut self,
        ctx: &mut ProcessCtx<'_, Envelope<P::Msg>>,
        entry: &mut Entry<P::Msg, P::Ext>,
    ) {
        let out = self.snap.execute(entry.ann.group, &entry.ev);
        let extra = self.pending_overhead;
        let mut recs = std::mem::take(&mut entry.sends);
        let emitted = out.len();
        for (emit, (to, payload)) in out.into_iter().enumerate() {
            let ann = self.shared.child_annotation(&entry.ann, self.me, to, emit);
            let digest = debug_digest(&payload);
            if let Some(old) = recs.get(emit) {
                if (old.digest, old.to, old.ann) == (digest, to, ann) {
                    self.metrics.lazy_hits += 1;
                    continue;
                }
                self.leftovers.push((old.to, old.id));
            }
            let id = MsgId { sender: self.me, incarnation: self.incarnation, seq: self.send_seq };
            self.send_seq += 1;
            self.metrics.app_msgs_sent += 1;
            let rec = SentRec { id, to, ann, digest };
            match recs.get_mut(emit) {
                Some(slot) => *slot = rec,
                None => recs.push(rec),
            }
            ctx.send_delayed(to, Envelope::App { id, ann, payload }, extra);
        }
        self.leftovers.extend(recs.drain(emitted.min(recs.len())..).map(|old| (old.to, old.id)));
        entry.sends = recs;
        self.pending_overhead = SimDuration::ZERO;
    }

    /// Re-executes an entry whose inputs are unchanged — it sits between a
    /// restored checkpoint and the straggler — for its effect on the state
    /// alone. Determinism guarantees the handler regenerates exactly the
    /// sends `entry.sends` records, so nothing is annotated, digested,
    /// matched, or transmitted: every recorded send stands as a lazy hit.
    /// Debug builds regenerate and compare every send, which makes every
    /// rollback-exercising test the optimisation-off oracle.
    fn replay_state_only(&mut self, entry: &Entry<P::Msg, P::Ext>) {
        let out = self.snap.execute(entry.ann.group, &entry.ev);
        assert_eq!(
            out.len(),
            entry.sends.len(),
            "node {}: re-executing {:?} from unchanged inputs changed its send count — \
             the control plane is not deterministic",
            self.me,
            entry.key,
        );
        if cfg!(debug_assertions) {
            for (emit, ((to, payload), rec)) in out.iter().zip(&entry.sends).enumerate() {
                let regenerated = (
                    *to,
                    self.shared.child_annotation(&entry.ann, self.me, *to, emit),
                    debug_digest(payload),
                );
                debug_assert_eq!(
                    regenerated,
                    (rec.to, rec.ann, rec.digest),
                    "node {}: send {emit} of {:?} differs on state-only replay",
                    self.me,
                    entry.key,
                );
            }
        }
        self.metrics.lazy_hits += out.len() as u64;
        self.pending_overhead = SimDuration::ZERO;
    }

    /// Rolls back to the checkpoint covering `pos` and replays the suffix
    /// with `new_entry` inserted at `pos`, its place in key order. The
    /// replay goes through [`RbShim::redeliver_insert`], which can jump
    /// forward over the tail when the straggler proves to be a state no-op.
    fn rollback_insert(
        &mut self,
        ctx: &mut ProcessCtx<'_, Envelope<P::Msg>>,
        pos: usize,
        new_entry: Entry<P::Msg, P::Ext>,
    ) {
        let j = self.checkpoint_index_at_or_before(pos);
        self.metrics.rollbacks += 1;
        self.metrics.rolled_entries += (self.history.len() - j) as u64;
        obs::hist!("rb.prefix_len").record((pos - j) as u64);
        obs::hist!("rb.tail_len").record((self.history.len() - pos) as u64);
        let restored = self.history[j].ckpt.expect("target has checkpoint");
        // The pre-rollback head state: if the straggler leaves the replayed
        // state byte-identical, this is exactly the state the suffix replay
        // would rebuild.
        let head = self.restore_keeping(j);
        let mut suffix = self.history.split_off(j);
        suffix.insert(pos - j, new_entry);
        self.redeliver_insert(ctx, suffix, pos - j, restored, head);
    }

    /// Handles an anti-message: removes the listed entries (or poisons
    /// not-yet-arrived ids) and replays from the earliest affected point.
    fn handle_unsend(&mut self, ctx: &mut ProcessCtx<'_, Envelope<P::Msg>>, ids: Vec<MsgId>) {
        let idset: HashSet<MsgId> = ids.into_iter().collect();
        let matched: Vec<usize> = self
            .history
            .iter()
            .enumerate()
            .filter(|(_, e)| e.id.map(|i| idset.contains(&i)).unwrap_or(false))
            .map(|(i, _)| i)
            .collect();
        let matched_ids: HashSet<MsgId> =
            matched.iter().map(|&i| self.history[i].id.unwrap()).collect();
        for id in idset.difference(&matched_ids) {
            self.poison.insert(*id);
        }
        let Some(&i_min) = matched.first() else { return };
        let j = self.checkpoint_index_at_or_before(i_min);
        self.metrics.rollbacks += 1;
        self.metrics.rolled_entries += (self.history.len() - j) as u64;
        self.restore_to(j);
        let suffix = self.history.split_off(j);
        let mut keep = Vec::with_capacity(suffix.len());
        for e in suffix {
            if e.id.is_some_and(|i| matched_ids.contains(&i)) {
                // Nothing re-executes a removed entry, so nothing can
                // regenerate its sends: they are leftovers outright.
                self.leftovers.extend(e.sends.iter().map(|rec| (rec.to, rec.id)));
            } else {
                keep.push(e);
            }
        }
        self.redeliver(ctx, keep);
    }

    fn checkpoint_index_at_or_before(&self, pos: usize) -> usize {
        let start = pos.min(self.history.len().saturating_sub(1));
        (0..=start)
            .rev()
            .find(|&i| self.history[i].ckpt.is_some())
            .expect("first live history entry always holds a checkpoint")
    }

    /// Restores the snapshot at history index `j` and invalidates every
    /// checkpoint at or after the restored-to one. Nothing is unsent here;
    /// [`RbShim::redeliver`] retracts only the sends the replay fails to
    /// regenerate.
    fn restore_to(&mut self, j: usize) {
        let cid = self.history[j].ckpt.expect("target has checkpoint");
        self.restore_keeping(j);
        self.ckpt.truncate_from(cid);
    }

    /// [`RbShim::restore_to`] minus the checkpoint invalidation: an
    /// insert-rollback's replay reproduces states byte-for-byte until it
    /// reaches the straggler, so the existing images stay valid and
    /// [`RbShim::redeliver_insert`] truncates only once divergence is
    /// proven. Returns the state the restore replaced.
    fn restore_keeping(&mut self, j: usize) -> NodeSnapshot<P> {
        let cid = self.history[j].ckpt.expect("target has checkpoint");
        let restored = self.ckpt.restore(cid).expect("checkpoint restorable");
        let head = std::mem::replace(&mut self.snap, restored);
        self.incarnation += 1;
        let stats = self.ckpt.stats();
        let bytes = stats.virtual_bytes / stats.retained.max(1);
        let replayed = self.history.len() - j;
        if self.rollback_samples.len() < SAMPLE_CAP {
            self.rollback_samples.push(RollbackSample {
                state_bytes: bytes,
                dirty_pages: stats.last_dirty_pages,
                replayed,
            });
        }
        let dirty = match self.shared.cfg.strategy {
            checkpoint::Strategy::MemIntercept => Some(stats.last_dirty_pages.max(1)),
            _ => None,
        };
        let ns = self.shared.cfg.cost.rollback_ns(bytes, dirty, replayed, 20_000);
        self.pending_overhead += SimDuration::from_nanos(ns);
        self.metrics.overhead_ns += ns;
        head
    }

    /// Re-executes `entries` (already key-sorted) from the restored state,
    /// then unsends whatever the replay did not regenerate.
    fn redeliver(
        &mut self,
        ctx: &mut ProcessCtx<'_, Envelope<P::Msg>>,
        entries: Vec<Entry<P::Msg, P::Ext>>,
    ) {
        let _span = obs::span!("rb.redeliver");
        for (i, e) in entries.into_iter().enumerate() {
            self.deliver_at_end(ctx, e, i == 0);
        }
        self.unsend_leftovers(ctx);
    }

    /// [`RbShim::redeliver`] specialised for a straggler insert at
    /// `entries[k]`, adding the Time-Warp "jump forward" optimisation (lazy
    /// re-evaluation).
    ///
    /// The replay of the prefix — the entries between the restored-to
    /// checkpoint and the straggler — has unchanged inputs, so determinism
    /// reproduces every state and send exactly: the entries keep their
    /// live checkpoint references (the restore did not truncate), their
    /// recorded sends, and only their handlers run. The straggler is then
    /// delivered bracketed by state probes. If it left the state
    /// byte-identical — duplicate floods and stale acks usually do — every
    /// later entry would replay to exactly its previous result, so the
    /// pre-rollback head state is reinstated and the tail spliced back,
    /// checkpoints and all, without re-execution. Only on proven
    /// divergence are the tail's images dropped and its entries
    /// re-executed. The decision depends only on node-local replayed state,
    /// so it is identical across seeds, shard counts, and farm job counts.
    fn redeliver_insert(
        &mut self,
        ctx: &mut ProcessCtx<'_, Envelope<P::Msg>>,
        mut entries: Vec<Entry<P::Msg, P::Ext>>,
        k: usize,
        restored: checkpoint::CheckpointId,
        head: NodeSnapshot<P>,
    ) {
        if k == 0 {
            // The straggler sorted ahead of the restored-to entry, so even
            // that entry now replays from a changed state: no image can be
            // kept. Invalidate them all and take the plain replay path.
            self.ckpt.truncate_from(restored);
            return self.redeliver(ctx, entries);
        }
        let _span = obs::span!("rb.redeliver");
        let tail = entries.split_off(k + 1);
        let mut straggler = entries.pop().expect("prefix ends with the straggler");
        // Phase 1 — the prefix: unchanged inputs, reproduced exactly; the
        // recorded sends stand and checkpoint refs stay live.
        for e in entries {
            self.replay_state_only(&e);
            self.history.push(e);
        }
        // Phase 2 — the straggler, bracketed by state probes (skipped when
        // there is no tail to jump over).
        let probe = !tail.is_empty();
        // Debug builds hold the verdict against the one full encodings
        // give (the optimisation-off oracle).
        let full_pre = (probe && cfg!(debug_assertions)).then(|| self.snap.digest());
        if probe {
            probe_into(&self.snap, &mut self.probe_pre);
        }
        self.deliver(ctx, &mut straggler);
        self.history.push(straggler);
        let unchanged = probe && {
            probe_into(&self.snap, &mut self.probe_post);
            self.probe_pre == self.probe_post
        };
        if let Some(full_pre) = full_pre {
            debug_assert_eq!(
                unchanged,
                full_pre == self.snap.digest(),
                "node {}: primary bytes and the full encoding disagree on a jump",
                self.me,
            );
        }
        if unchanged {
            // Jump forward: reinstate the head state and splice the tail
            // back untouched. Its sends stand as transmitted, and neither
            // the prefix nor the (never before delivered) straggler left
            // anything to unsend.
            debug_assert!(self.leftovers.is_empty());
            self.metrics.jumps += 1;
            self.metrics.jumped_entries += tail.len() as u64;
            obs::counter!("rb.jump").add(1);
            self.snap = head;
            self.history.extend(tail);
            return;
        }
        // Phase 3 — divergence: every image captured at or after the
        // straggler's position is stale. Drop them (the earliest parks as
        // the next capture's diff base) and replay the tail with captures
        // back on the normal cadence. A live checkpoint still exists below
        // the straggler (the prefix starts with one), so no forced
        // capture is needed.
        if let Some(dead) = tail.iter().find_map(|e| e.ckpt) {
            self.ckpt.truncate_from(dead);
        }
        for e in tail {
            self.deliver_at_end(ctx, e, false);
        }
        self.unsend_leftovers(ctx);
    }

    /// Retracts the sends the replay did not regenerate, one anti-message
    /// per peer.
    fn unsend_leftovers(&mut self, ctx: &mut ProcessCtx<'_, Envelope<P::Msg>>) {
        let mut leftovers = std::mem::take(&mut self.leftovers);
        leftovers.sort_unstable();
        for peer in leftovers.chunk_by(|a, b| a.0 == b.0) {
            self.metrics.unsend_msgs += 1;
            self.metrics.unsent_ids += peer.len() as u64;
            let ids = peer.iter().map(|&(_, id)| id).collect();
            ctx.send_control(peer[0].0, Envelope::Unsend { ids });
        }
        leftovers.clear();
        self.leftovers = leftovers;
    }

    /// Commits the first `p` history entries (after clamping `p` so the
    /// first retained entry still owns a checkpoint).
    fn commit_prefix(&mut self, p: usize) {
        let mut p = p.min(self.history.len());
        while p < self.history.len() && self.history[p].ckpt.is_none() {
            p -= 1;
            if p == 0 {
                return;
            }
        }
        if p == 0 {
            return;
        }
        for e in self.history.drain(..p) {
            self.committed_max_key = Some(e.key);
            self.committed.push(Self::record_of(&e));
            self.committed_sends.extend(e.sends.iter().map(|rec| rec.id));
        }
        if let Some(first) = self.history.first() {
            self.ckpt.release_before(first.ckpt.expect("clamped to checkpointed entry"));
        }
    }

    fn run_gc(&mut self, now: SimTime) {
        let Some(h) = self.shared.cfg.commit_horizon else { return };
        let p = self
            .history
            .iter()
            .position(|e| e.arrived + h > now)
            .unwrap_or(self.history.len());
        self.commit_prefix(p);
    }

    // ------------------------------------------------------------------
    // Beacons and election.
    // ------------------------------------------------------------------

    fn emit_beacon(&mut self, ctx: &mut ProcessCtx<'_, Envelope<P::Msg>>) {
        let number = self.max_beacon_seen.max(self.snap.current_group) + 1;
        self.max_beacon_seen = number;
        self.last_flood = self.last_flood.max((self.epoch, number));
        self.last_beacon_wall = ctx.now();
        for nb in ctx.neighbors().to_vec() {
            ctx.send_control(nb, Envelope::Beacon { epoch: self.epoch, source: self.me, number });
        }
        self.deliver_start_if_pending(ctx, number);
        let ann = self.shared.beacon_annotation(self.me, number, self.me);
        self.insert_arrival(ctx, ann, None, Event::BeaconTick);
    }

    /// Startup is deferred until the group is known (first beacon), so a
    /// node restarted mid-run tags its boot outputs with the live group
    /// rather than group 1.
    fn deliver_start_if_pending(
        &mut self,
        ctx: &mut ProcessCtx<'_, Envelope<P::Msg>>,
        group: u64,
    ) {
        if self.started {
            return;
        }
        self.started = true;
        let ann = Annotation::external(self.me, group, 0);
        self.ext_seq = 1;
        self.insert_arrival(ctx, ann, None, Event::Start);
    }

    fn on_beacon(
        &mut self,
        ctx: &mut ProcessCtx<'_, Envelope<P::Msg>>,
        from: NodeId,
        epoch: u32,
        source: NodeId,
        number: u64,
    ) {
        // Election acceptance: a higher epoch always wins; within an epoch,
        // the lower node id wins.
        if epoch > self.epoch {
            self.epoch = epoch;
            self.known_source = source;
            if self.i_am_source && source != self.me {
                self.i_am_source = false;
            }
        } else if epoch < self.epoch {
            return;
        } else if source != self.known_source {
            if source < self.known_source {
                self.known_source = source;
                if self.i_am_source && source != self.me {
                    self.i_am_source = false;
                }
            } else {
                return;
            }
        }
        // Flood dedup by (epoch, number): a failover epoch must be relayed
        // even while its numbering trails this node's max (a healed
        // partition), or the election would never propagate.
        if (epoch, number) <= self.last_flood {
            return;
        }
        self.last_flood = (epoch, number);
        self.last_beacon_wall = ctx.now();
        // Re-arm the watchdog.
        if let Some(w) = self.watchdog.take() {
            ctx.cancel_timer(w);
        }
        let wd = ctx.set_timer(self.shared.cfg.beacon_interval * 4, TK_WATCHDOG);
        self.watchdog = Some(wd);
        // Relay the flood.
        for nb in ctx.neighbors().to_vec() {
            if nb != from {
                self.metrics.beacon_relays += 1;
                ctx.send_control(nb, Envelope::Beacon { epoch: self.epoch, source, number });
            }
        }
        // Deliver a tick only for strictly increasing numbers: groups are
        // virtual time and never run backwards.
        if number <= self.max_beacon_seen {
            return;
        }
        self.max_beacon_seen = number;
        self.deliver_start_if_pending(ctx, number);
        let ann = self.shared.beacon_annotation(source, number, self.me);
        self.insert_arrival(ctx, ann, None, Event::BeaconTick);
    }
}

/// One half of the jump probe: refills `buf` with the state's primary bytes
/// — those that determine the full encoding a checkpoint would store, so
/// equality has the same verdict — without bringing derived state (the OSPF
/// routing table the prefix replay just dirtied) up to date.
fn probe_into<S: Snapshotable>(state: &S, buf: &mut Vec<u8>) {
    let _span = obs::span!("rb.probe");
    buf.clear();
    state.encode_primary(buf);
}

impl<P: ControlPlane> Process for RbShim<P> {
    type Msg = Envelope<P::Msg>;
    type Ext = P::Ext;

    fn on_start(&mut self, ctx: &mut ProcessCtx<'_, Envelope<P::Msg>>) {
        self.known_source = self.shared.initial_source;
        if self.me == self.shared.initial_source && ctx.now() == SimTime::ZERO {
            self.i_am_source = true;
            ctx.set_timer(self.shared.cfg.beacon_interval, TK_BEACON);
        } else {
            let wd = ctx.set_timer(self.shared.cfg.beacon_interval * 4, TK_WATCHDOG);
            self.watchdog = Some(wd);
        }
        if let Some(h) = self.shared.cfg.commit_horizon {
            ctx.set_timer(h, TK_GC);
        }
        // At cold boot (t = 0) the first group is known to be 1, so start
        // immediately; restarted nodes wait for a beacon.
        if ctx.now() == SimTime::ZERO {
            self.deliver_start_if_pending(ctx, 1);
        }
    }

    fn on_message(&mut self, ctx: &mut ProcessCtx<'_, Envelope<P::Msg>>, from: NodeId, msg: Envelope<P::Msg>) {
        match msg {
            Envelope::App { id, ann, payload } => {
                if self.poison.remove(&id) {
                    self.metrics.poisoned += 1;
                    return;
                }
                if !self.seen_ids.insert(id) {
                    return; // Duplicate arrival.
                }
                self.insert_arrival(ctx, ann, Some(id), Event::Msg { from, payload });
            }
            Envelope::Beacon { epoch, source, number } => {
                self.on_beacon(ctx, from, epoch, source, number);
            }
            Envelope::Unsend { ids } => {
                self.handle_unsend(ctx, ids);
            }
        }
    }

    fn on_external(&mut self, ctx: &mut ProcessCtx<'_, Envelope<P::Msg>>, ev: P::Ext) {
        let group = self.snap.current_group + 1;
        let seq = self.ext_seq;
        self.ext_seq += 1;
        // Virtual time never runs backwards at a node, so the log is
        // group-sorted — what lets a reader consume it by cursor.
        debug_assert!(
            self.ext_log.last().is_none_or(|l| l.group <= group),
            "node {}: external tagged group {group} after one tagged later",
            self.me,
        );
        self.ext_log.push(ExtLogEntry { ext_seq: seq, group, payload: ev.clone() });
        let ann = Annotation::external(self.me, group, seq);
        self.insert_arrival(ctx, ann, None, Event::External(ev));
    }

    fn on_timer(&mut self, ctx: &mut ProcessCtx<'_, Envelope<P::Msg>>, _id: TimerId, key: TimerKey) {
        match key {
            TK_BEACON
                if self.i_am_source => {
                    self.emit_beacon(ctx);
                    ctx.set_timer(self.shared.cfg.beacon_interval, TK_BEACON);
                }
            TK_GC => {
                self.run_gc(ctx.now());
                if let Some(h) = self.shared.cfg.commit_horizon {
                    ctx.set_timer(h, TK_GC);
                }
            }
            TK_WATCHDOG => {
                // Beacons stopped: back off proportionally to our id, then
                // claim the source role if silence persists (deterministic
                // preference for low ids).
                self.watchdog = None;
                if !self.i_am_source {
                    ctx.set_timer(
                        self.shared.cfg.beacon_interval * (self.me.0 as u64 + 1),
                        TK_CLAIM,
                    );
                }
            }
            TK_CLAIM => {
                let silence = ctx.now().saturating_sub(self.last_beacon_wall);
                if silence >= self.shared.cfg.beacon_interval * 4 && !self.i_am_source {
                    self.epoch += 1;
                    self.i_am_source = true;
                    self.known_source = self.me;
                    // Virtual time advances at the configured beacon rate
                    // (§3): estimate the ticks missed during the silence so
                    // the new numbering stays wall-aligned with any other
                    // partition. Otherwise a healed network stalls while the
                    // failover numbering catches up with the old one.
                    let interval = self.shared.cfg.beacon_interval.0.max(1);
                    let missed = (silence.0 / interval).saturating_sub(1);
                    self.max_beacon_seen += missed;
                    self.emit_beacon(ctx);
                    ctx.set_timer(self.shared.cfg.beacon_interval, TK_BEACON);
                }
            }
            _ => {}
        }
    }
}
