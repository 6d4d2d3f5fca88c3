//! Property tests of the pseudorandom ordering function (paper §2.2).
//!
//! The paper requires the ordering to be (i) deterministic, (ii) consistent
//! with causality, and (iii) close to the common-case arrival order. The
//! first two are universally quantified claims, so they get proptests over
//! random causal forests; the third is measured by Fig. 8a (OO vs RO).

use defined::checkpoint::fnv1a;
use defined::core::order::debug_digest;
use defined::core::{Annotation, OrderingMode};
use defined::netsim::NodeId;
use defined::routing::bgp::{BgpMsg, PathAttrs};
use defined::routing::ospf::{Lsa, OspfMsg};
use defined::routing::rip::RipAnnouncement;
use proptest::prelude::*;

/// A recipe for one causal chain: where it starts and which (node, emit)
/// hops extend it.
#[derive(Clone, Debug)]
struct ChainSpec {
    origin: u32,
    group: u64,
    ext_seq: u64,
    hops: Vec<(u32, u32, u64)>, // (forwarder node, emit slot, link delay)
}

fn chain_spec() -> impl Strategy<Value = ChainSpec> {
    (
        0u32..12,
        1u64..6,
        0u64..4,
        proptest::collection::vec((0u32..12, 0u32..3, 1u64..20_000_000), 1..10),
    )
        .prop_map(|(origin, group, ext_seq, hops)| ChainSpec { origin, group, ext_seq, hops })
}

/// Materialises a chain: external root, then message children hop by hop.
fn build_chain(spec: &ChainSpec, bound: u32) -> Vec<Annotation> {
    let mut out = Vec::with_capacity(spec.hops.len() + 1);
    let mut cur = Annotation::external(NodeId(spec.origin), spec.group, spec.ext_seq);
    out.push(cur);
    for &(node, emit, link) in &spec.hops {
        cur = Annotation::child(&cur, NodeId(node), link, emit, bound);
        out.push(cur);
    }
    out
}

fn rip_msg() -> impl Strategy<Value = RipAnnouncement> {
    proptest::collection::vec((any::<u32>(), 0u32..17), 0..12)
        .prop_map(|entries| RipAnnouncement { entries })
}

fn ospf_msg() -> impl Strategy<Value = OspfMsg> {
    let links = proptest::collection::vec((0u32..64, any::<u64>()), 0..8);
    prop_oneof![
        Just(OspfMsg::Hello),
        (0u32..64, any::<u64>(), links).prop_map(|(origin, seq, links)| {
            let links = links.into_iter().map(|(p, c)| (NodeId(p), c)).collect();
            OspfMsg::Lsa(Lsa { origin: NodeId(origin), seq, links })
        }),
        (0u32..64, any::<u64>()).prop_map(|(o, seq)| OspfMsg::Ack { origin: NodeId(o), seq }),
    ]
}

fn bgp_msg() -> impl Strategy<Value = BgpMsg> {
    let attrs = (any::<u32>(), any::<u8>(), any::<u16>(), any::<u32>(), any::<u32>()).prop_map(
        |(route_id, as_path_len, neighbor_as, med, igp_dist)| PathAttrs {
            route_id,
            as_path_len,
            neighbor_as,
            med,
            igp_dist,
        },
    );
    prop_oneof![
        (any::<u32>(), attrs).prop_map(|(prefix, attrs)| BgpMsg::Update { prefix, attrs }),
        (any::<u32>(), any::<u32>())
            .prop_map(|(prefix, route_id)| BgpMsg::Withdraw { prefix, route_id }),
    ]
}

/// Lineage digests are part of every order key and every `.drec` frame:
/// the values below were computed by the `Vec`-materialising `mix` this
/// crate shipped with, and no rewrite of it may move them.
#[test]
fn lineage_digests_are_golden() {
    let ext = Annotation::external(NodeId(3), 7, 2);
    let beacon = Annotation::beacon(NodeId(0), 9, 400);
    let start = Annotation::chain_start(NodeId(5), 4, 11, 3_000_000, 1);
    let child = Annotation::child(&ext, NodeId(6), 2_000_000, 3, 24);
    let spilled = Annotation::child(&child, NodeId(1), 1_000_000, 0, 1);
    assert_eq!(
        [ext.lineage, beacon.lineage, start.lineage, child.lineage, spilled.lineage],
        [
            0xde38_1d85_c169_fb03,
            0x47ce_2ea4_a53b_d3cd,
            0x6ffd_3a3f_1818_582c,
            0xbe5d_34c6_a149_18b7,
            0x6852_40b2_551a_7747,
        ],
    );
}

proptest! {
    /// `debug_digest` streams the `Debug` rendering through the hash; it
    /// must equal hashing the materialised rendering, for every payload
    /// type whose digest lands in commit logs and recordings.
    #[test]
    fn debug_digest_is_fnv_of_the_debug_rendering(
        rip in rip_msg(),
        ospf in ospf_msg(),
        bgp in bgp_msg(),
    ) {
        prop_assert_eq!(debug_digest(&rip), fnv1a(format!("{rip:?}").as_bytes()));
        prop_assert_eq!(debug_digest(&ospf), fnv1a(format!("{ospf:?}").as_bytes()));
        prop_assert_eq!(debug_digest(&bgp), fnv1a(format!("{bgp:?}").as_bytes()));
        // Nested in the containers commit records and logs put them in.
        let nested = (vec![ospf.clone()], Some(&bgp), "rip", &rip);
        prop_assert_eq!(debug_digest(&nested), fnv1a(format!("{nested:?}").as_bytes()));
    }

    /// Determinism: rebuilding the same chain yields identical annotations
    /// and identical keys under every ordering mode.
    #[test]
    fn keys_are_deterministic(spec in chain_spec(), salt in 0u64..1000) {
        let a = build_chain(&spec, 24);
        let b = build_chain(&spec, 24);
        prop_assert_eq!(&a, &b);
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.key(OrderingMode::Optimized), y.key(OrderingMode::Optimized));
            prop_assert_eq!(x.key(OrderingMode::Random), y.key(OrderingMode::Random));
            prop_assert_eq!(
                x.key(OrderingMode::Permuted(salt)),
                y.key(OrderingMode::Permuted(salt))
            );
        }
    }

    /// Causal consistency: every parent sorts strictly before its child,
    /// under every ordering mode — the property the paper's footnote 1
    /// argues for `d` and that `(group, chain)` makes structural here.
    #[test]
    fn parents_precede_children(spec in chain_spec(), salt in 0u64..1000) {
        for mode in [
            OrderingMode::Optimized,
            OrderingMode::Random,
            OrderingMode::Permuted(salt),
        ] {
            let chain = build_chain(&spec, 24);
            for w in chain.windows(2) {
                prop_assert!(
                    w[0].key(mode) < w[1].key(mode),
                    "parent {:?} !< child {:?} under {:?}",
                    w[0],
                    w[1],
                    mode,
                );
            }
        }
    }

    /// Lineage totality: annotations built along *different* causal paths
    /// never collide, even when every paper field agrees. (Within one
    /// chain, `(group, chain)` already separates.)
    #[test]
    fn distinct_paths_have_distinct_keys(
        a in chain_spec(),
        b in chain_spec(),
    ) {
        let ca = build_chain(&a, 24);
        let cb = build_chain(&b, 24);
        for (i, x) in ca.iter().enumerate() {
            for (j, y) in cb.iter().enumerate() {
                // Identical prefixes legitimately produce identical events;
                // skip pairs that are the same construction.
                let same_construction = a.origin == b.origin
                    && a.group == b.group
                    && a.ext_seq == b.ext_seq
                    && i == j
                    && a.hops[..i] == b.hops[..j];
                if same_construction {
                    continue;
                }
                prop_assert!(
                    x.key(OrderingMode::Optimized) != y.key(OrderingMode::Optimized)
                        || x == y,
                    "distinct events share a key:\n  {x:?}\n  {y:?}",
                );
            }
        }
    }

    /// The chain bound always lands children in the next group with a fresh
    /// chain, preserving the origin identity (paper §2.2).
    #[test]
    fn chain_bound_rolls_over(
        spec in chain_spec(),
        bound in 1u32..6,
    ) {
        let chain = build_chain(&spec, bound);
        for w in chain.windows(2) {
            let (p, c) = (&w[0], &w[1]);
            prop_assert_eq!(c.origin, p.origin);
            prop_assert_eq!(c.origin_seq, p.origin_seq);
            if p.chain + 1 > bound {
                prop_assert_eq!(c.group, p.group + 1, "overflow enters next group");
                prop_assert_eq!(c.chain, 1u32);
            } else {
                prop_assert_eq!(c.group, p.group);
                prop_assert_eq!(c.chain, p.chain + 1);
                prop_assert!(c.delay >= p.delay, "delay accumulates");
            }
        }
    }

    /// Key encoding round-trips for arbitrary chain-derived keys.
    #[test]
    fn order_keys_round_trip(spec in chain_spec(), salt in 0u64..1000) {
        for ann in build_chain(&spec, 24) {
            for mode in [
                OrderingMode::Optimized,
                OrderingMode::Random,
                OrderingMode::Permuted(salt),
            ] {
                let k = ann.key(mode);
                let mut buf = Vec::new();
                k.encode(&mut buf);
                let mut r = defined::routing::enc::Reader::new(&buf);
                prop_assert_eq!(defined::core::OrderKey::decode(&mut r), Some(k));
            }
        }
    }

    /// Group always dominates the order, in every mode: any event of group
    /// `g` sorts before any event of group `g + k`.
    #[test]
    fn groups_dominate_everything(
        a in chain_spec(),
        b in chain_spec(),
        bump in 1u64..5,
    ) {
        let mut late = b.clone();
        late.group = a.group + bump + 10; // Clear any chain-bound spill of `a`.
        let ca = build_chain(&a, 24);
        let cb = build_chain(&late, 24);
        for x in &ca {
            for y in &cb {
                if y.group > x.group {
                    prop_assert!(x.key(OrderingMode::Random) < y.key(OrderingMode::Random));
                }
            }
        }
    }
}
