//! Message identities, annotations, and the pseudorandom ordering function.
//!
//! Every deliverable event carries an [`Annotation`] built from the paper's
//! three fields — originating node `nᵢ`, origin sequence `sᵢ`, and estimated
//! delay `dᵢ` (§2.2, Fig. 1) — plus the group number, the causal-chain depth,
//! and two deterministic tie-breaks. [`Annotation::key`] turns it into the
//! totally ordered [`OrderKey`] every node sorts by.

use crate::config::OrderingMode;
use checkpoint::{fnv1a, Fnv1a};
use netsim::NodeId;

/// Globally unique identity of one transmitted message.
///
/// `incarnation` increments at the sender on every rollback, so re-sent
/// messages are never confused with the rolled-back originals they replace,
/// even when their annotations are identical.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MsgId {
    /// Transmitting node.
    pub sender: NodeId,
    /// Sender's rollback incarnation at send time.
    pub incarnation: u32,
    /// Sender-local send counter (never reused).
    pub seq: u64,
}

/// What kind of event an annotation describes; a component of the order key
/// so that, within a group, externals precede the beacon tick, which precedes
/// all messages.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum EventClass {
    /// An external input (including node startup), always chain depth 0.
    External = 0,
    /// The beacon / virtual-time tick for the group, chain depth 0.
    Beacon = 1,
    /// An application message, chain depth ≥ 1.
    Message = 2,
}

/// The ordering metadata attached to every deliverable event.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Annotation {
    /// Group (timestep) number; strictly increasing, broadcast by beacons.
    pub group: u64,
    /// Causal chain depth within the group (0 for externals/beacons; a
    /// message's depth is its parent's + 1). Equals the lockstep sub-cycle
    /// in which DEFINED-LS materialises the message.
    pub chain: u32,
    /// Event class (see [`EventClass`]).
    pub class: EventClass,
    /// `dᵢ`: deterministic estimate (ns) of the delay from the originating
    /// node, accumulated over average link delays along the causal chain.
    pub delay: u64,
    /// `nᵢ`: the node that originated the causal chain.
    pub origin: NodeId,
    /// `sᵢ`: strictly increasing counter at the originating node.
    pub origin_seq: u64,
    /// Tie-break: the node that transmitted this particular message.
    pub sender: NodeId,
    /// Tie-break: index of this send within its parent handler's outbox.
    pub emit: u32,
    /// Final tie-break: a digest chained over the causal path
    /// (`H(parent.lineage, sender, emit)`, grounded at the unique external
    /// or beacon origin). Two *distinct* messages can share every paper
    /// field — e.g. when equal-delay flood copies of the same origin chain
    /// reach a node and each handler emits at the same outbox index — and
    /// without this component the "total" order would fall back to arrival
    /// order, which jitter can flip. The lineage digest makes the ordering
    /// function a genuine total order over causally distinct events.
    pub lineage: u64,
}

/// A total order over events; larger keys are delivered later.
///
/// Component order: group, chain, class, then either the delay estimate
/// (optimised mode) or a hash permutation (random mode), then origin, origin
/// sequence, sender, and emit index.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct OrderKey {
    pub(crate) group: u64,
    pub(crate) chain: u32,
    pub(crate) class: u8,
    pub(crate) rank: u64,
    pub(crate) origin: u32,
    pub(crate) origin_seq: u64,
    pub(crate) sender: u32,
    pub(crate) emit: u32,
    pub(crate) lineage: u64,
}

impl OrderKey {
    /// Appends a stable binary encoding (49 bytes).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.group.to_le_bytes());
        buf.extend_from_slice(&self.chain.to_le_bytes());
        buf.push(self.class);
        buf.extend_from_slice(&self.rank.to_le_bytes());
        buf.extend_from_slice(&self.origin.to_le_bytes());
        buf.extend_from_slice(&self.origin_seq.to_le_bytes());
        buf.extend_from_slice(&self.sender.to_le_bytes());
        buf.extend_from_slice(&self.emit.to_le_bytes());
        buf.extend_from_slice(&self.lineage.to_le_bytes());
    }

    /// Decodes what [`OrderKey::encode`] wrote.
    pub fn decode(r: &mut routing::enc::Reader<'_>) -> Option<Self> {
        Some(OrderKey {
            group: r.u64()?,
            chain: r.u32()?,
            class: r.u8()?,
            rank: r.u64()?,
            origin: r.u32()?,
            origin_seq: r.u64()?,
            sender: r.u32()?,
            emit: r.u32()?,
            lineage: r.u64()?,
        })
    }

    /// The group component (used for trimming comparisons).
    pub fn group(&self) -> u64 {
        self.group
    }

    /// The ordering-independent *event identity*: every component except
    /// `rank`, the only field that depends on the ordering mode/salt in
    /// effect when the key was computed. Distinct events always differ in
    /// some identity field (`lineage` chains the causal path at minimum),
    /// so under any one fixed ordering identity equality coincides with
    /// key equality.
    ///
    /// Death cuts are sets of *events*, not schedule positions; membership
    /// tests against them use this, so a replay under a different ordering
    /// function (an exploration sweep) still recognises — and a crashed
    /// node still delivers — the recorded pre-crash events it reproduces.
    pub fn identity(&self) -> EventIdentity {
        EventIdentity {
            group: self.group,
            chain: self.chain,
            class: self.class,
            origin: self.origin,
            origin_seq: self.origin_seq,
            sender: self.sender,
            emit: self.emit,
            lineage: self.lineage,
        }
    }
}

/// An [`OrderKey`] minus its ordering-dependent `rank` — the stable
/// identity of one committed event (see [`OrderKey::identity`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventIdentity {
    group: u64,
    chain: u32,
    class: u8,
    origin: u32,
    origin_seq: u64,
    sender: u32,
    emit: u32,
    lineage: u64,
}

impl EventIdentity {
    /// The group component (e.g. for "last group with anything left to
    /// deliver" bounds).
    pub fn group(&self) -> u64 {
        self.group
    }
}

impl std::fmt::Display for EventClass {
    /// The lowercase noun the debugger surfaces use (`external`, `beacon`,
    /// `message`).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            EventClass::External => "external",
            EventClass::Beacon => "beacon",
            EventClass::Message => "message",
        })
    }
}

impl EventClass {
    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(EventClass::External),
            1 => Some(EventClass::Beacon),
            2 => Some(EventClass::Message),
            _ => None,
        }
    }
}

impl Annotation {
    /// Appends a stable binary encoding of every field.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.group.to_le_bytes());
        buf.extend_from_slice(&self.chain.to_le_bytes());
        buf.push(self.class as u8);
        buf.extend_from_slice(&self.delay.to_le_bytes());
        buf.extend_from_slice(&self.origin.0.to_le_bytes());
        buf.extend_from_slice(&self.origin_seq.to_le_bytes());
        buf.extend_from_slice(&self.sender.0.to_le_bytes());
        buf.extend_from_slice(&self.emit.to_le_bytes());
        buf.extend_from_slice(&self.lineage.to_le_bytes());
    }

    /// Decodes what [`Annotation::encode`] wrote.
    pub fn decode(r: &mut routing::enc::Reader<'_>) -> Option<Self> {
        Some(Annotation {
            group: r.u64()?,
            chain: r.u32()?,
            class: EventClass::from_u8(r.u8()?)?,
            delay: r.u64()?,
            origin: NodeId(r.u32()?),
            origin_seq: r.u64()?,
            sender: NodeId(r.u32()?),
            emit: r.u32()?,
            lineage: r.u64()?,
        })
    }
}

/// Mixes a sequence of words into a deterministic 64-bit digest (lineage
/// chaining): FNV-1a over the words' little-endian bytes.
fn mix(parts: &[u64]) -> u64 {
    let mut h = Fnv1a::default();
    for p in parts {
        h.update(&p.to_le_bytes());
    }
    h.finish()
}

impl Annotation {
    /// Computes the order key under the given mode.
    pub fn key(&self, mode: OrderingMode) -> OrderKey {
        let rank = match mode {
            OrderingMode::Optimized => self.delay,
            OrderingMode::Random => self.permuted_rank(0),
            OrderingMode::Permuted(salt) => self.permuted_rank(salt),
        };
        OrderKey {
            group: self.group,
            chain: self.chain,
            class: self.class as u8,
            rank,
            origin: self.origin.0,
            origin_seq: self.origin_seq,
            sender: self.sender.0,
            emit: self.emit,
            lineage: self.lineage,
        }
    }

    /// Deterministic hash permutation of the identifying fields — the
    /// "straightforward hashing" strawman of §2.2, salted so different
    /// schedules can be explored.
    fn permuted_rank(&self, salt: u64) -> u64 {
        let mut bytes = [0u8; 36];
        bytes[..8].copy_from_slice(&self.delay.to_le_bytes());
        bytes[8..12].copy_from_slice(&self.origin.0.to_le_bytes());
        bytes[12..20].copy_from_slice(&self.origin_seq.to_le_bytes());
        bytes[20..24].copy_from_slice(&self.sender.0.to_le_bytes());
        bytes[24..28].copy_from_slice(&self.emit.to_le_bytes());
        bytes[28..36].copy_from_slice(&salt.to_le_bytes());
        fnv1a(&bytes)
    }

    /// Annotation for an external event (or node startup) at `node`.
    pub fn external(node: NodeId, group: u64, ext_seq: u64) -> Self {
        Annotation {
            group,
            chain: 0,
            class: EventClass::External,
            delay: 0,
            origin: node,
            origin_seq: ext_seq,
            sender: node,
            emit: 0,
            lineage: mix(&[0, node.0 as u64, group, ext_seq]),
        }
    }

    /// Annotation for the group-`number` beacon tick as observed at a node
    /// whose estimated distance from the beacon source is `dist`.
    pub fn beacon(source: NodeId, number: u64, dist: u64) -> Self {
        Annotation {
            group: number,
            chain: 0,
            class: EventClass::Beacon,
            delay: dist,
            origin: source,
            origin_seq: number,
            sender: source,
            emit: 0,
            lineage: mix(&[1, source.0 as u64, number]),
        }
    }

    /// Annotation for a message that starts a new causal chain at `sender`
    /// (an output of an external event or timer firing).
    pub fn chain_start(
        sender: NodeId,
        group: u64,
        origin_seq: u64,
        link_est: u64,
        emit: u32,
    ) -> Self {
        Annotation {
            group,
            chain: 1,
            class: EventClass::Message,
            delay: link_est,
            origin: sender,
            origin_seq,
            sender,
            emit,
            lineage: mix(&[2, sender.0 as u64, group, origin_seq, emit as u64]),
        }
    }

    /// Annotation for a message generated while processing `parent` and sent
    /// by `sender` over a link with estimated delay `link_est`.
    ///
    /// The child inherits the origin identity and accumulates delay
    /// (`dᵢ = d_parent + l`, Fig. 1). When the chain bound is exceeded the
    /// child is pushed into the next group with a fresh chain (§2.2).
    pub fn child(
        parent: &Annotation,
        sender: NodeId,
        link_est: u64,
        emit: u32,
        chain_bound: u32,
    ) -> Self {
        // The handler that produced this send is identified by the parent's
        // lineage plus the node running the handler (a beacon tick with one
        // lineage is delivered at every node); `emit` separates siblings.
        let lineage = mix(&[3, parent.lineage, sender.0 as u64, emit as u64]);
        let chain = parent.chain + 1;
        if chain > chain_bound {
            Annotation {
                group: parent.group + 1,
                chain: 1,
                class: EventClass::Message,
                delay: link_est,
                origin: parent.origin,
                origin_seq: parent.origin_seq,
                sender,
                emit,
                lineage,
            }
        } else {
            Annotation {
                group: parent.group,
                chain,
                class: EventClass::Message,
                delay: parent.delay.saturating_add(link_est),
                origin: parent.origin,
                origin_seq: parent.origin_seq,
                sender,
                emit,
                lineage,
            }
        }
    }
}

/// FNV digest of a `Debug` rendering; the cheap deterministic payload digest
/// used in committed-log comparisons. Equals
/// `fnv1a(format!("{t:?}").as_bytes())`, but the rendering streams through
/// the hash instead of being materialised.
pub fn debug_digest<T: std::fmt::Debug>(t: &T) -> u64 {
    use std::fmt::Write;
    let mut h = Fnv1a::default();
    write!(h, "{t:?}").expect("the hash sink never errors");
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(group: u64, chain: u32, delay: u64, origin: u32, seq: u64) -> Annotation {
        Annotation {
            group,
            chain,
            class: EventClass::Message,
            delay,
            origin: NodeId(origin),
            origin_seq: seq,
            sender: NodeId(9),
            emit: 0,
            lineage: 0,
        }
    }

    #[test]
    fn groups_dominate() {
        let a = msg(1, 5, 999, 7, 7).key(OrderingMode::Optimized);
        let b = msg(2, 0, 0, 0, 0).key(OrderingMode::Optimized);
        assert!(a < b);
    }

    #[test]
    fn chain_dominates_delay() {
        let a = msg(1, 1, 999, 0, 0).key(OrderingMode::Optimized);
        let b = msg(1, 2, 1, 0, 0).key(OrderingMode::Optimized);
        assert!(a < b);
    }

    #[test]
    fn paper_field_order_within_chain() {
        // Within a group and chain: delay, then origin, then seq (§2.2).
        let by_delay = msg(1, 1, 5, 9, 9).key(OrderingMode::Optimized)
            < msg(1, 1, 6, 0, 0).key(OrderingMode::Optimized);
        let by_origin = msg(1, 1, 5, 1, 9).key(OrderingMode::Optimized)
            < msg(1, 1, 5, 2, 0).key(OrderingMode::Optimized);
        let by_seq = msg(1, 1, 5, 1, 1).key(OrderingMode::Optimized)
            < msg(1, 1, 5, 1, 2).key(OrderingMode::Optimized);
        assert!(by_delay && by_origin && by_seq);
    }

    #[test]
    fn class_orders_externals_beacon_messages() {
        let e = Annotation::external(NodeId(3), 4, 0).key(OrderingMode::Optimized);
        let b = Annotation::beacon(NodeId(0), 4, 500).key(OrderingMode::Optimized);
        let m = msg(4, 1, 0, 0, 0).key(OrderingMode::Optimized);
        assert!(e < b, "external before beacon");
        assert!(b < m, "beacon before messages");
    }

    #[test]
    fn child_accumulates_delay_and_chain() {
        let p = Annotation::chain_start(NodeId(1), 7, 3, 100, 0);
        let c = Annotation::child(&p, NodeId(2), 50, 1, 24);
        assert_eq!(c.group, 7);
        assert_eq!(c.chain, 2);
        assert_eq!(c.delay, 150);
        assert_eq!(c.origin, NodeId(1));
        assert_eq!(c.origin_seq, 3);
        assert_eq!(c.sender, NodeId(2));
        assert_eq!(c.emit, 1);
        // Parent always sorts before child at any node (causal consistency).
        assert!(p.key(OrderingMode::Optimized) < c.key(OrderingMode::Optimized));
        assert!(p.key(OrderingMode::Random) < c.key(OrderingMode::Random));
    }

    #[test]
    fn chain_bound_pushes_to_next_group() {
        let p = msg(7, 24, 1000, 1, 3);
        let c = Annotation::child(&p, NodeId(2), 50, 0, 24);
        assert_eq!(c.group, 8);
        assert_eq!(c.chain, 1);
        assert_eq!(c.delay, 50, "delay resets with the fresh chain");
        assert_eq!(c.origin, NodeId(1), "causal identity preserved");
    }

    #[test]
    fn random_mode_permutes_but_respects_structure() {
        let a = msg(1, 1, 5, 1, 1);
        let b = msg(1, 1, 6, 1, 2);
        // Same keys on repeated computation (deterministic).
        assert_eq!(a.key(OrderingMode::Random), a.key(OrderingMode::Random));
        // Group/chain still dominate in random mode.
        let c = msg(2, 1, 0, 0, 0);
        assert!(a.key(OrderingMode::Random) < c.key(OrderingMode::Random));
        // The permutation differs from the optimised order for *some* pair;
        // check a small ensemble to avoid flakiness.
        let mut disagree = false;
        for s in 0..20u64 {
            let x = msg(1, 1, 10 + s, 1, s);
            let y = msg(1, 1, 11 + s, 2, s);
            let opt = x.key(OrderingMode::Optimized) < y.key(OrderingMode::Optimized);
            let rnd = x.key(OrderingMode::Random) < y.key(OrderingMode::Random);
            if opt != rnd {
                disagree = true;
                break;
            }
        }
        assert!(disagree, "random mode should reorder some pairs");
        let _ = (a, b);
    }

    #[test]
    fn sender_emit_break_ties() {
        let mut a = msg(1, 1, 5, 1, 1);
        let mut b = msg(1, 1, 5, 1, 1);
        a.sender = NodeId(2);
        b.sender = NodeId(3);
        assert!(a.key(OrderingMode::Optimized) < b.key(OrderingMode::Optimized));
        b.sender = NodeId(2);
        a.emit = 0;
        b.emit = 1;
        assert!(a.key(OrderingMode::Optimized) < b.key(OrderingMode::Optimized));
    }

    #[test]
    fn debug_digest_distinguishes() {
        assert_ne!(debug_digest(&(1, "a")), debug_digest(&(1, "b")));
        assert_eq!(debug_digest(&42u8), debug_digest(&42u8));
    }

    /// Two children of equal-delay flood copies that share every paper field
    /// must still be totally ordered: their lineages differ because their
    /// causal paths differ.
    #[test]
    fn lineage_separates_colliding_siblings() {
        let start = Annotation::external(NodeId(5), 1, 0);
        // Two distinct chain-1 messages (different emit slots) fan out...
        let via_a = Annotation::child(&start, NodeId(5), 4, 0, 24);
        let via_b = Annotation::child(&start, NodeId(5), 4, 1, 24);
        // ...travel equal-delay paths, and at chain 3 the *same* forwarder
        // emits from two different handler invocations at the same slot.
        let mid_a = Annotation::child(&via_a, NodeId(2), 4, 0, 24);
        let mid_b = Annotation::child(&via_b, NodeId(4), 4, 0, 24);
        let leaf_a = Annotation::child(&mid_a, NodeId(3), 4, 0, 24);
        let leaf_b = Annotation::child(&mid_b, NodeId(3), 4, 0, 24);
        // Every paper field collides...
        assert_eq!(
            (leaf_a.group, leaf_a.chain, leaf_a.delay, leaf_a.origin, leaf_a.origin_seq),
            (leaf_b.group, leaf_b.chain, leaf_b.delay, leaf_b.origin, leaf_b.origin_seq),
        );
        assert_eq!((leaf_a.sender, leaf_a.emit), (leaf_b.sender, leaf_b.emit));
        // ...but the keys still differ, deterministically.
        assert_ne!(leaf_a.key(OrderingMode::Optimized), leaf_b.key(OrderingMode::Optimized));
        assert_ne!(leaf_a.lineage, leaf_b.lineage);
    }

    #[test]
    fn lineage_is_deterministic() {
        let a = Annotation::external(NodeId(1), 2, 3);
        let b = Annotation::external(NodeId(1), 2, 3);
        assert_eq!(a, b);
        let ca = Annotation::child(&a, NodeId(4), 10, 1, 24);
        let cb = Annotation::child(&b, NodeId(4), 10, 1, 24);
        assert_eq!(ca, cb);
        assert_eq!(ca.key(OrderingMode::Optimized), cb.key(OrderingMode::Optimized));
    }

    #[test]
    fn annotation_round_trips() {
        for ann in [
            Annotation::external(NodeId(2), 5, 1),
            Annotation::beacon(NodeId(0), 9, 400),
            Annotation::child(&Annotation::external(NodeId(3), 7, 1), NodeId(2), 9, 4, 24),
        ] {
            let mut buf = Vec::new();
            ann.encode(&mut buf);
            let mut r = routing::enc::Reader::new(&buf);
            assert_eq!(Annotation::decode(&mut r), Some(ann));
            assert_eq!(r.remaining(), 0);
        }
        // A bad class byte fails cleanly.
        let mut bad = Vec::new();
        Annotation::external(NodeId(2), 5, 1).encode(&mut bad);
        bad[12] = 7;
        assert!(Annotation::decode(&mut routing::enc::Reader::new(&bad)).is_none());
    }

    #[test]
    fn order_key_round_trips_with_lineage() {
        let k = Annotation::child(&Annotation::external(NodeId(3), 7, 1), NodeId(2), 9, 4, 24)
            .key(OrderingMode::Optimized);
        let mut buf = Vec::new();
        k.encode(&mut buf);
        assert_eq!(buf.len(), 49);
        let mut r = routing::enc::Reader::new(&buf);
        assert_eq!(OrderKey::decode(&mut r), Some(k));
    }
}
