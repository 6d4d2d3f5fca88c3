//! Partial recordings: the only state DEFINED needs to reproduce a
//! production execution (§2.1).
//!
//! A [`Recording`] holds the externally-visible nondeterminism: external
//! events tagged with the group numbers they received in production, plus
//! the committed send indexes of messages that were lost in flight (the
//! paper's footnote 4). Everything else — message orderings, timings, timer
//! firings — is regenerated deterministically by DEFINED-LS.

use crate::order::{Annotation, OrderKey};
use crate::wire::Wire;
use defined_obs as obs;
use netsim::NodeId;
use routing::enc::{put_u32, put_u64, Reader};

/// One recorded external event.
#[derive(Clone, Debug, PartialEq)]
pub struct ExtRecord<X> {
    /// The node that received the input.
    pub node: NodeId,
    /// Per-node arrival index (0 is reserved for node startup).
    pub ext_seq: u64,
    /// The group the event was tagged with in production.
    pub group: u64,
    /// The payload.
    pub payload: X,
}

/// One committed message loss: the `idx`-th committed send of `sender`
/// never arrived.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DropByIndex {
    /// Transmitting node.
    pub sender: NodeId,
    /// Index into the sender's committed send sequence.
    pub idx: u64,
}

/// The death cut of a node that crashed during the production run: exactly
/// the events it committed before dying. The replay delivers only these
/// keys at that node, then mutes it — crash timing is external
/// nondeterminism, so it belongs in the partial recording.
#[derive(Clone, Debug, PartialEq)]
pub struct MuteRecord {
    /// The crashed node.
    pub node: NodeId,
    /// Keys of the events it committed before the crash.
    pub allowed: Vec<OrderKey>,
}

/// One delivered beacon tick: `node` delivered the group-`group` tick
/// announced by `source`.
///
/// Which ticks a node delivers is a function of recorded *external*
/// nondeterminism — a node partitioned from the beacon source by a link
/// failure misses ticks and jumps forward on heal, and a source failover
/// changes the announcing node — so the tick schedule belongs in the partial
/// recording alongside the external events that caused it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TickRecord {
    /// The node that delivered the tick.
    pub node: NodeId,
    /// The group the tick opened.
    pub group: u64,
    /// The node whose beacon announced the group.
    pub source: NodeId,
}

/// A partial recording of a production run.
#[derive(Clone, Debug, PartialEq)]
pub struct Recording<X> {
    /// Number of nodes in the network.
    pub n_nodes: usize,
    /// The initially configured beacon source.
    pub source: NodeId,
    /// External events, sorted by `(group, node, ext_seq)`.
    pub externals: Vec<ExtRecord<X>>,
    /// Committed message losses.
    pub drops: Vec<DropByIndex>,
    /// Death cuts of crashed nodes.
    pub mutes: Vec<MuteRecord>,
    /// Beacon ticks each node delivered, sorted by `(group, node)`.
    pub ticks: Vec<TickRecord>,
    /// Highest group number the production run completed.
    pub last_group: u64,
}

impl<X: Clone> Recording<X> {
    /// External events belonging to `group`, in `(node, ext_seq)` order.
    pub fn externals_for_group(&self, group: u64) -> Vec<ExtRecord<X>> {
        let mut v: Vec<ExtRecord<X>> = self
            .externals
            .iter()
            .filter(|e| e.group == group)
            .cloned()
            .collect();
        v.sort_by_key(|e| (e.node, e.ext_seq));
        v
    }
}

impl<X: Wire> ExtRecord<X> {
    /// Appends the wire encoding of this record.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        Self::encode_fields(self.node, self.ext_seq, self.group, &self.payload, buf);
    }

    /// [`encode`](Self::encode) from borrowed fields, for a caller that
    /// holds the payload elsewhere and should not clone it into a record
    /// just to serialise it.
    pub fn encode_fields(node: NodeId, ext_seq: u64, group: u64, payload: &X, buf: &mut Vec<u8>) {
        put_u32(buf, node.0);
        put_u64(buf, ext_seq);
        put_u64(buf, group);
        payload.encode(buf);
    }

    /// Decodes one record, advancing the reader.
    pub fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(ExtRecord {
            node: NodeId(r.u32()?),
            ext_seq: r.u64()?,
            group: r.u64()?,
            payload: X::decode(r)?,
        })
    }
}

impl DropByIndex {
    /// Appends the wire encoding of this record.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.sender.0);
        put_u64(buf, self.idx);
    }

    /// Decodes one record, advancing the reader.
    pub fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(DropByIndex { sender: NodeId(r.u32()?), idx: r.u64()? })
    }
}

impl MuteRecord {
    /// Appends the wire encoding of this record.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.node.0);
        put_u64(buf, self.allowed.len() as u64);
        for k in &self.allowed {
            k.encode(buf);
        }
    }

    /// Decodes one record, advancing the reader.
    pub fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let node = NodeId(r.u32()?);
        let n_keys = r.len()?;
        let mut allowed = Vec::with_capacity(n_keys);
        for _ in 0..n_keys {
            allowed.push(OrderKey::decode(r)?);
        }
        Some(MuteRecord { node, allowed })
    }
}

impl TickRecord {
    /// Appends the wire encoding of this record.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.node.0);
        put_u64(buf, self.group);
        put_u32(buf, self.source.0);
    }

    /// Decodes one record, advancing the reader.
    pub fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(TickRecord { node: NodeId(r.u32()?), group: r.u64()?, source: NodeId(r.u32()?) })
    }
}

impl<X: Wire> Recording<X> {
    /// Serialises the recording.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        let start = buf.len();
        put_u64(&mut buf, self.n_nodes as u64);
        put_u32(&mut buf, self.source.0);
        put_u64(&mut buf, self.last_group);
        put_u64(&mut buf, self.externals.len() as u64);
        for e in &self.externals {
            e.encode(&mut buf);
        }
        put_u64(&mut buf, self.drops.len() as u64);
        for d in &self.drops {
            d.encode(&mut buf);
        }
        put_u64(&mut buf, self.mutes.len() as u64);
        for m in &self.mutes {
            m.encode(&mut buf);
        }
        put_u64(&mut buf, self.ticks.len() as u64);
        for t in &self.ticks {
            t.encode(&mut buf);
        }
        obs::counter!("wire.bytes_encoded").add((buf.len() - start) as u64);
        buf
    }

    /// Deserialises a recording, or `None` on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        obs::counter!("wire.bytes_decoded").add(bytes.len() as u64);
        let mut r = Reader::new(bytes);
        let n_nodes = r.u64()? as usize;
        let source = NodeId(r.u32()?);
        let last_group = r.u64()?;
        let n_ext = r.len()?;
        let mut externals = Vec::with_capacity(n_ext);
        for _ in 0..n_ext {
            externals.push(ExtRecord::decode(&mut r)?);
        }
        let n_drops = r.len()?;
        let mut drops = Vec::with_capacity(n_drops);
        for _ in 0..n_drops {
            drops.push(DropByIndex::decode(&mut r)?);
        }
        let n_mutes = r.len()?;
        let mut mutes = Vec::with_capacity(n_mutes);
        for _ in 0..n_mutes {
            mutes.push(MuteRecord::decode(&mut r)?);
        }
        let n_ticks = r.len()?;
        let mut ticks = Vec::with_capacity(n_ticks);
        for _ in 0..n_ticks {
            ticks.push(TickRecord::decode(&mut r)?);
        }
        Some(Recording { n_nodes, source, externals, drops, mutes, ticks, last_group })
    }
}

/// One committed delivered event, used to compare executions across
/// RB-production and LS-replay runs (serial or sharded).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommitRecord {
    /// The event's order key (already incorporates group/chain/class).
    pub key: OrderKey,
    /// The full annotation.
    pub ann: Annotation,
    /// Digest of the payload (0 for beacon ticks).
    pub payload_digest: u64,
}

impl CommitRecord {
    /// Appends the wire encoding of this record.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        self.key.encode(buf);
        self.ann.encode(buf);
        put_u64(buf, self.payload_digest);
    }

    /// Decodes one record, advancing the reader.
    pub fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(CommitRecord {
            key: OrderKey::decode(r)?,
            ann: Annotation::decode(r)?,
            payload_digest: r.u64()?,
        })
    }
}

/// Trims a committed log to events in groups `<= last_group`, the window
/// over which two runs are comparable (later groups may still have had
/// messages in flight when the production run stopped).
pub fn trim_log(log: &[CommitRecord], last_group: u64) -> Vec<CommitRecord> {
    log.iter().filter(|r| r.ann.group <= last_group).copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_round_trip() {
        let rec: Recording<u64> = Recording {
            n_nodes: 4,
            source: NodeId(0),
            externals: vec![
                ExtRecord { node: NodeId(2), ext_seq: 1, group: 3, payload: 42 },
                ExtRecord { node: NodeId(1), ext_seq: 1, group: 5, payload: 7 },
            ],
            drops: vec![DropByIndex { sender: NodeId(3), idx: 17 }],
            mutes: vec![MuteRecord {
                node: NodeId(1),
                allowed: vec![Annotation::external(NodeId(1), 1, 0)
                    .key(crate::config::OrderingMode::Optimized)],
            }],
            ticks: vec![
                TickRecord { node: NodeId(0), group: 1, source: NodeId(0) },
                TickRecord { node: NodeId(2), group: 1, source: NodeId(0) },
            ],
            last_group: 9,
        };
        let bytes = rec.to_bytes();
        assert_eq!(Recording::<u64>::from_bytes(&bytes), Some(rec));
        assert!(Recording::<u64>::from_bytes(&bytes[..5]).is_none());
    }

    #[test]
    fn externals_for_group_sorted() {
        let rec: Recording<u64> = Recording {
            n_nodes: 4,
            source: NodeId(0),
            externals: vec![
                ExtRecord { node: NodeId(3), ext_seq: 1, group: 2, payload: 1 },
                ExtRecord { node: NodeId(1), ext_seq: 2, group: 2, payload: 2 },
                ExtRecord { node: NodeId(1), ext_seq: 1, group: 2, payload: 3 },
                ExtRecord { node: NodeId(1), ext_seq: 1, group: 4, payload: 4 },
            ],
            drops: vec![],
            mutes: vec![],
            ticks: vec![],
            last_group: 5,
        };
        let g2 = rec.externals_for_group(2);
        assert_eq!(g2.len(), 3);
        assert_eq!(g2[0].payload, 3);
        assert_eq!(g2[1].payload, 2);
        assert_eq!(g2[2].payload, 1);
        assert!(rec.externals_for_group(3).is_empty());
    }

    #[test]
    fn trim_filters_late_groups() {
        use crate::config::OrderingMode;
        let mk = |group| {
            let ann = Annotation::external(NodeId(0), group, 1);
            CommitRecord { key: ann.key(OrderingMode::Optimized), ann, payload_digest: 0 }
        };
        let log = vec![mk(1), mk(2), mk(3)];
        assert_eq!(trim_log(&log, 2).len(), 2);
    }

    mod prop {
        //! Per-record-type codec round trips: each record that makes up a
        //! [`Recording`] must survive encode → decode verbatim, and a
        //! decoder must consume exactly the bytes its encoder produced —
        //! the invariant that keeps saved recordings loadable as the
        //! format grows new sections.

        use super::*;
        use proptest::prelude::*;
        use routing::enc::Reader;

        fn round_trip<T: PartialEq + std::fmt::Debug>(
            v: &T,
            enc: impl Fn(&T, &mut Vec<u8>),
            dec: impl Fn(&mut Reader<'_>) -> Option<T>,
        ) -> Result<(), TestCaseError> {
            let mut buf = Vec::new();
            enc(v, &mut buf);
            let mut r = Reader::new(&buf);
            let decoded = dec(&mut r);
            prop_assert_eq!(decoded.as_ref(), Some(v), "decode mismatch");
            prop_assert_eq!(r.remaining(), 0, "decoder must consume exactly what was encoded");
            Ok(())
        }

        fn order_key() -> impl Strategy<Value = OrderKey> {
            (0u32..64, 1u64..1000, 0u64..64, 0u32..8, 0u64..1_000_000).prop_map(
                |(node, group, seq, emit, link)| {
                    let root = Annotation::external(NodeId(node), group, seq);
                    Annotation::child(&root, NodeId(node ^ 1), link, emit, 24)
                        .key(crate::config::OrderingMode::Optimized)
                },
            )
        }

        proptest! {
            #[test]
            fn ext_record_round_trips(
                node in 0u32..256,
                ext_seq in proptest::arbitrary::any::<u64>(),
                group in proptest::arbitrary::any::<u64>(),
                payload in proptest::arbitrary::any::<u64>(),
            ) {
                let e = ExtRecord { node: NodeId(node), ext_seq, group, payload };
                round_trip(&e, ExtRecord::encode, ExtRecord::<u64>::decode)?;
            }

            #[test]
            fn drop_by_index_round_trips(
                sender in 0u32..256,
                idx in proptest::arbitrary::any::<u64>(),
            ) {
                let d = DropByIndex { sender: NodeId(sender), idx };
                round_trip(&d, DropByIndex::encode, DropByIndex::decode)?;
            }

            #[test]
            fn mute_record_round_trips(
                node in 0u32..256,
                allowed in proptest::collection::vec(order_key(), 0..12),
            ) {
                let m = MuteRecord { node: NodeId(node), allowed };
                round_trip(&m, MuteRecord::encode, MuteRecord::decode)?;
            }

            #[test]
            fn tick_record_round_trips(
                node in 0u32..256,
                group in proptest::arbitrary::any::<u64>(),
                source in 0u32..256,
            ) {
                let t = TickRecord { node: NodeId(node), group, source: NodeId(source) };
                round_trip(&t, TickRecord::encode, TickRecord::decode)?;
            }

            #[test]
            fn record_sequences_concatenate_cleanly(
                ticks in proptest::collection::vec(
                    (0u32..64, 0u64..1000, 0u32..64).prop_map(|(n, g, s)| TickRecord {
                        node: NodeId(n),
                        group: g,
                        source: NodeId(s),
                    }),
                    0..20,
                ),
            ) {
                // Self-delimiting: back-to-back records decode in order.
                let mut buf = Vec::new();
                for t in &ticks {
                    t.encode(&mut buf);
                }
                let mut r = Reader::new(&buf);
                for t in &ticks {
                    let decoded = TickRecord::decode(&mut r);
                    prop_assert_eq!(decoded.as_ref(), Some(t));
                }
                prop_assert_eq!(r.remaining(), 0);
            }
        }
    }
}
