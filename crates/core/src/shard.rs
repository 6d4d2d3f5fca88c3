//! The shard-local wave engine behind [`LockstepNet`]: deterministic
//! intra-replay parallelism (DESIGN.md §10).
//!
//! A lockstep replay advances in *waves* — the deliveries of one sub-cycle,
//! sorted by the production order key. Within a wave, deliveries to
//! *different* nodes are independent by construction: a delivery mutates
//! only its destination node's snapshot, send counter, and committed log,
//! and every message it emits joins the *next* wave (or a later group's
//! holdover), never the wave in flight. Partitioning the nodes across
//! worker shards and executing one wave barrier-to-barrier therefore
//! commutes with the serial sweep, event for event:
//!
//! * per-node delivery order is the wave order restricted to that node's
//!   shard, which equals the serial order restricted to that node;
//! * the death-cut [`EventIdentity`] filter is evaluated per destination
//!   node, so it holds shard-locally exactly as it holds serially;
//! * recorded losses are keyed by the *sender's* committed send index,
//!   which only the sender's own deliveries advance;
//! * the emitted messages of all shards are merged in any order and then
//!   sorted by the strictly total `(OrderKey, to)` before the next wave is
//!   consumed, so the cross-shard exchange erases shard boundaries.
//!
//! [`ShardedWaves`] is the one engine: it executes a wave across a block
//! partition of the nodes (`shards = 1` is the inline serial sweep), and
//! each delivery is the kernel both runtimes share
//! ([`NodeSnapshot::execute`]) under the annotation recipes of
//! [`RbShared`].
//!
//! [`LockstepNet`]: crate::ls::LockstepNet
//! [`EventIdentity`]: crate::order::EventIdentity

use crate::ls::LsEvent;
use crate::order::{Annotation, EventIdentity};
use crate::rb::RbShared;
use crate::recorder::CommitRecord;
use crate::snapshot::{Event, NodeSnapshot};
use defined_obs as obs;
use netsim::NodeId;
use routing::ControlPlane;
use std::collections::{BTreeMap, HashSet};

/// Resolves a requested worker count: `0` means "auto" — the host's
/// available parallelism (`1` when it cannot be determined).
pub fn resolve_workers(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        requested
    }
}

/// One staged delivery of a lockstep wave: the event, its ordering
/// annotation, and the destination node the shard partition routes on.
#[derive(Clone, Debug)]
pub struct Pending<M, X> {
    pub(crate) to: NodeId,
    pub(crate) ann: Annotation,
    pub(crate) ev: Event<M, X>,
}

/// One replayed node: its composite snapshot, the committed send counter
/// recorded losses are keyed by, and the version that names this state
/// (see [`crate::ls::LockstepNet::rewind_from_bytes`]).
pub struct LsNode<P: ControlPlane> {
    pub(crate) snap: NodeSnapshot<P>,
    pub(crate) send_count: u64,
    pub(crate) version: u64,
}

impl<P: ControlPlane> Clone for LsNode<P> {
    fn clone(&self) -> Self {
        LsNode { snap: self.snap.clone(), send_count: self.send_count, version: self.version }
    }
}

/// The read-only delivery context one wave executes under: the run's
/// shared context (ordering configuration, link estimates), the
/// recording-derived tables (losses, death cuts), and the wave's phase
/// markers. Shared by every shard of a wave — nothing in it is written
/// during execution, which is what makes the shards independent.
pub struct DeliveryCtx<'a> {
    pub(crate) shared: &'a RbShared,
    pub(crate) group: u64,
    pub(crate) chain: u32,
    pub(crate) drops: &'a HashSet<(NodeId, u64)>,
    pub(crate) mutes: &'a BTreeMap<NodeId, HashSet<EventIdentity>>,
}

impl DeliveryCtx<'_> {
    /// The death-cut filter, evaluated at the destination: a crashed node
    /// delivers only the events of its recorded cut. Membership is tested
    /// by ordering-salt-independent [`EventIdentity`], and depends only on
    /// the destination node — so the filter holds per shard exactly as it
    /// holds serially.
    pub fn allows<M, X>(&self, p: &Pending<M, X>) -> bool {
        match self.mutes.get(&p.to) {
            Some(allowed) => allowed.contains(&p.ann.key(self.shared.cfg.ordering).identity()),
            None => true,
        }
    }

    /// Delivers `p` to its destination node through the shared kernel,
    /// pushing the commit record onto `log` and every surviving send —
    /// annotated, counted against the node's committed send index, recorded
    /// losses replayed — onto `emitted`. Touches nothing but `node`, `log`,
    /// and `emitted` — the whole determinism argument of sharded execution
    /// rests on this signature.
    pub fn deliver<P: ControlPlane>(
        &self,
        node: &mut LsNode<P>,
        log: &mut Vec<CommitRecord>,
        p: &Pending<P::Msg, P::Ext>,
        emitted: &mut Vec<Pending<P::Msg, P::Ext>>,
    ) -> LsEvent {
        let sends = node.snap.execute(p.ann.group, &p.ev);
        for (emit, (to, payload)) in sends.into_iter().enumerate() {
            let ann = self.shared.child_annotation(&p.ann, p.to, to, emit);
            let send_idx = node.send_count;
            node.send_count += 1;
            if self.drops.contains(&(p.to, send_idx)) {
                continue; // Replay the recorded loss.
            }
            emitted.push(Pending { to, ann, ev: Event::Msg { from: p.to, payload } });
        }
        let record = CommitRecord {
            key: p.ann.key(self.shared.cfg.ordering),
            ann: p.ann,
            payload_digest: p.ev.payload_digest(),
        };
        log.push(record);
        LsEvent { node: p.to, group: self.group, chain: self.chain, record }
    }
}

/// What executing one wave produced: the delivered-event count and the
/// messages emitted into later sub-cycles, in an *arbitrary* cross-shard
/// order — the caller sorts by the strictly total `(OrderKey, to)` before
/// the next wave is consumed, so this order never matters.
pub struct WaveOutput<M, X> {
    /// Events actually delivered (death-cut-filtered ones are absorbed).
    pub delivered: usize,
    /// Messages materialised by the wave's handlers.
    pub emitted: Vec<Pending<M, X>>,
}

/// Below this many staged deliveries per shard a wave runs inline: spawning
/// scoped workers costs more than sweeping a short wave, and by the
/// determinism contract the choice affects only cost, never results.
const DEFAULT_MIN_WAVE_PER_SHARD: usize = 4;

/// The block-partitioned wave engine: nodes are split into `shards`
/// contiguous blocks, one scoped worker per block sweeps the shared wave
/// for deliveries addressed to its block, and the per-block outputs are
/// concatenated. `shards = 1` (the default) is exactly the serial sweep,
/// inline on the calling thread.
#[derive(Clone, Copy, Debug)]
pub struct ShardedWaves {
    shards: usize,
    min_wave_per_shard: usize,
}

impl ShardedWaves {
    /// An engine with `shards` workers; `0` means "auto"
    /// ([`resolve_workers`]).
    pub fn new(shards: usize) -> Self {
        ShardedWaves {
            shards: resolve_workers(shards).max(1),
            min_wave_per_shard: DEFAULT_MIN_WAVE_PER_SHARD,
        }
    }

    /// Overrides the inline-execution threshold — tests force `0` so even
    /// tiny waves cross real thread boundaries.
    pub fn with_min_wave_per_shard(mut self, min: usize) -> Self {
        self.min_wave_per_shard = min;
        self
    }

    /// The worker-shard count this engine runs, for display and planning.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Executes one wave against the whole network.
    ///
    /// The contract that lets Theorem 1 survive sharding: each node
    /// receives exactly the wave's deliveries addressed to it that pass
    /// [`DeliveryCtx::allows`], in wave order; each delivery goes through
    /// [`DeliveryCtx::deliver`] against that node's own state and log; and
    /// every emitted message is returned (order among them is free — the
    /// caller re-sorts).
    pub fn execute<P: ControlPlane>(
        &self,
        ctx: &DeliveryCtx<'_>,
        nodes: &mut [LsNode<P>],
        logs: &mut [Vec<CommitRecord>],
        wave: &[Pending<P::Msg, P::Ext>],
    ) -> WaveOutput<P::Msg, P::Ext> {
        let shards = self.shards.min(nodes.len()).max(1);
        if shards == 1 || wave.len() < shards * self.min_wave_per_shard {
            return execute_block(ctx, nodes, logs, 0, wave);
        }
        let per = nodes.len().div_ceil(shards);
        let mut out = WaveOutput { delivered: 0, emitted: Vec::new() };
        let (mut most, mut least) = (0usize, usize::MAX);
        std::thread::scope(|scope| {
            let workers: Vec<_> = nodes
                .chunks_mut(per)
                .zip(logs.chunks_mut(per))
                .enumerate()
                .map(|(s, (block, block_logs))| {
                    scope.spawn(move || {
                        // The shard span gives each worker its own lane in
                        // a Chrome trace (one flamegraph row per shard).
                        let _lane = obs::span!("ls.shard");
                        execute_block(ctx, block, block_logs, s * per, wave)
                    })
                })
                .collect();
            // Joined in shard order; the concatenation order is erased by
            // the caller's sort anyway.
            for w in workers {
                let part = w.join().expect("a shard worker panicked");
                most = most.max(part.delivered);
                least = least.min(part.delivered);
                out.delivered += part.delivered;
                out.emitted.extend(part.emitted);
            }
        });
        // Shard imbalance: deliveries the busiest worker handled beyond
        // the laziest — the block partition's load-skew observable.
        obs::hist!("ls.shard_imbalance").record((most - least) as u64);
        out
    }
}

/// The serial sweep of one wave restricted to the node block starting at
/// `base`: the sharded execution is this function applied per block, and
/// `shards = 1` is this function applied to the whole network.
fn execute_block<P: ControlPlane>(
    ctx: &DeliveryCtx<'_>,
    block: &mut [LsNode<P>],
    block_logs: &mut [Vec<CommitRecord>],
    base: usize,
    wave: &[Pending<P::Msg, P::Ext>],
) -> WaveOutput<P::Msg, P::Ext> {
    let mut out = WaveOutput { delivered: 0, emitted: Vec::new() };
    for p in wave {
        let idx = p.to.index();
        if idx < base || idx >= base + block.len() || !ctx.allows(p) {
            continue;
        }
        ctx.deliver(&mut block[idx - base], &mut block_logs[idx - base], p, &mut out.emitted);
        out.delivered += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_workers_auto_is_at_least_one() {
        assert!(resolve_workers(0) >= 1);
        assert_eq!(resolve_workers(3), 3);
    }

    #[test]
    fn sharded_waves_clamp_to_at_least_one() {
        let e = ShardedWaves::new(0);
        assert!(e.shards >= 1, "auto resolves to >= 1");
        assert_eq!(ShardedWaves::new(5).shards, 5);
    }
}
