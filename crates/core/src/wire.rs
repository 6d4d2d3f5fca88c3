//! Wire codec for recording payloads.
//!
//! Recordings must survive serialisation so a debugging session can load a
//! production recording from disk. The [`Wire`] trait is the minimal codec
//! contract; implementations are provided for the protocol external-input
//! types used in the case studies, and for the protocol *message* types so
//! a whole debugging network — including its in-flight messages — can be
//! checkpointed through the page-diff snapshot store (reverse execution).

use netsim::NodeId;
use routing::enc::{put_u32, put_u64, put_u8, Reader};
use routing::{bgp, ospf, rip};

/// A self-delimiting binary codec.
pub trait Wire: Sized {
    /// Appends the encoded value.
    fn encode(&self, buf: &mut Vec<u8>);
    /// Decodes a value, advancing the reader.
    fn decode(r: &mut Reader<'_>) -> Option<Self>;
}

impl Wire for () {
    fn encode(&self, _buf: &mut Vec<u8>) {}
    fn decode(_r: &mut Reader<'_>) -> Option<Self> {
        Some(())
    }
}

impl Wire for u64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, *self);
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        r.u64()
    }
}

impl Wire for bgp::PathAttrs {
    fn encode(&self, buf: &mut Vec<u8>) {
        bgp::put_attrs(buf, self);
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        bgp::get_attrs(r)
    }
}

impl Wire for bgp::BgpExt {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            bgp::BgpExt::Announce { prefix, attrs } => {
                put_u8(buf, 0);
                put_u32(buf, *prefix);
                attrs.encode(buf);
            }
            bgp::BgpExt::Withdraw { prefix, route_id } => {
                put_u8(buf, 1);
                put_u32(buf, *prefix);
                put_u32(buf, *route_id);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        match r.u8()? {
            0 => Some(bgp::BgpExt::Announce {
                prefix: r.u32()?,
                attrs: bgp::PathAttrs::decode(r)?,
            }),
            1 => Some(bgp::BgpExt::Withdraw { prefix: r.u32()?, route_id: r.u32()? }),
            _ => None,
        }
    }
}

impl Wire for rip::RipExt {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            rip::RipExt::Connect { prefix } => put_u32(buf, *prefix),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(rip::RipExt::Connect { prefix: r.u32()? })
    }
}

impl Wire for ospf::Lsa {
    fn encode(&self, buf: &mut Vec<u8>) {
        ospf::put_lsa(buf, self);
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        ospf::get_lsa(r)
    }
}

impl Wire for ospf::OspfMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ospf::OspfMsg::Hello => put_u8(buf, 0),
            ospf::OspfMsg::Lsa(lsa) => {
                put_u8(buf, 1);
                lsa.encode(buf);
            }
            ospf::OspfMsg::Ack { origin, seq } => {
                put_u8(buf, 2);
                put_u32(buf, origin.0);
                put_u64(buf, *seq);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        match r.u8()? {
            0 => Some(ospf::OspfMsg::Hello),
            1 => Some(ospf::OspfMsg::Lsa(ospf::Lsa::decode(r)?)),
            2 => Some(ospf::OspfMsg::Ack { origin: NodeId(r.u32()?), seq: r.u64()? }),
            _ => None,
        }
    }
}

impl Wire for rip::RipAnnouncement {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.entries.len() as u64);
        for &(prefix, metric) in &self.entries {
            put_u32(buf, prefix);
            put_u32(buf, metric);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let n = r.len()?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            entries.push((r.u32()?, r.u32()?));
        }
        Some(rip::RipAnnouncement { entries })
    }
}

impl Wire for bgp::BgpMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            bgp::BgpMsg::Update { prefix, attrs } => {
                put_u8(buf, 0);
                put_u32(buf, *prefix);
                attrs.encode(buf);
            }
            bgp::BgpMsg::Withdraw { prefix, route_id } => {
                put_u8(buf, 1);
                put_u32(buf, *prefix);
                put_u32(buf, *route_id);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        match r.u8()? {
            0 => Some(bgp::BgpMsg::Update { prefix: r.u32()?, attrs: bgp::PathAttrs::decode(r)? }),
            1 => Some(bgp::BgpMsg::Withdraw { prefix: r.u32()?, route_id: r.u32()? }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        let mut r = Reader::new(&buf);
        assert_eq!(T::decode(&mut r), Some(v));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn primitives() {
        round_trip(());
        round_trip(77u64);
    }

    #[test]
    fn bgp_externals() {
        let attrs = bgp::PathAttrs {
            route_id: 1,
            as_path_len: 3,
            neighbor_as: 100,
            med: 10,
            igp_dist: 10,
        };
        round_trip(bgp::BgpExt::Announce { prefix: 9, attrs });
        round_trip(bgp::BgpExt::Withdraw { prefix: 9, route_id: 4 });
    }

    #[test]
    fn rip_externals() {
        round_trip(rip::RipExt::Connect { prefix: 5 });
    }

    #[test]
    fn protocol_messages() {
        round_trip(ospf::OspfMsg::Hello);
        round_trip(ospf::OspfMsg::Lsa(ospf::Lsa {
            origin: NodeId(3),
            seq: 9,
            links: vec![(NodeId(1), 4), (NodeId(2), 7)],
        }));
        round_trip(ospf::OspfMsg::Ack { origin: NodeId(3), seq: 9 });
        round_trip(rip::RipAnnouncement { entries: vec![(7, 1), (9, 16)] });
        round_trip(rip::RipAnnouncement { entries: vec![] });
        let attrs = bgp::PathAttrs {
            route_id: 2,
            as_path_len: 1,
            neighbor_as: 7,
            med: 3,
            igp_dist: 5,
        };
        round_trip(bgp::BgpMsg::Update { prefix: 8, attrs });
        round_trip(bgp::BgpMsg::Withdraw { prefix: 8, route_id: 2 });
    }

    #[test]
    fn corrupt_input_fails_cleanly() {
        let mut r = Reader::new(&[2]);
        assert!(bgp::BgpExt::decode(&mut r).is_none());
        let mut r = Reader::new(&[3]);
        assert!(ospf::OspfMsg::decode(&mut r).is_none());
        let mut r = Reader::new(&[9]);
        assert!(bgp::BgpMsg::decode(&mut r).is_none());
    }
}
