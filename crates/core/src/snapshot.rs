//! The composite per-node state DEFINED-RB checkpoints.
//!
//! A rollback must restore not just the control-plane state but also the
//! shim-local context that deliveries mutate: the virtual-time group, the
//! origin-sequence counter, and the timer wheel. Wrapping them in one
//! [`NodeSnapshot`] keeps checkpoint/restore atomic.

use checkpoint::Snapshotable;
use routing::enc::{put_u64, Reader};
use routing::{ControlPlane, TimerToken};
use std::collections::BTreeMap;

/// Everything a rollback restores on one node.
#[derive(Clone, Debug)]
pub struct NodeSnapshot<P> {
    /// The wrapped control plane.
    pub cp: P,
    /// Virtual time = last beacon group processed.
    pub current_group: u64,
    /// The `sᵢ` counter for locally originated chains.
    pub origin_seq: u64,
    /// Deterministic arm-order counter for the timer wheel.
    pub arm_seq: u64,
    /// Timer wheel: `(fire_group, arm_seq) → token`.
    pub wheel: BTreeMap<(u64, u64), TimerToken>,
    /// Reverse index: armed token → wheel slot.
    pub armed: BTreeMap<TimerToken, (u64, u64)>,
}

impl<P: ControlPlane> NodeSnapshot<P> {
    /// A fresh snapshot around a just-constructed control plane.
    pub fn new(cp: P) -> Self {
        NodeSnapshot {
            cp,
            current_group: 0,
            origin_seq: 0,
            arm_seq: 0,
            wheel: BTreeMap::new(),
            armed: BTreeMap::new(),
        }
    }

    /// Applies an outbox's timer operations to the wheel (arms replace
    /// previous instances of the same token; cancels are idempotent).
    pub fn apply_timer_ops(&mut self, arms: &[(TimerToken, u64)], cancels: &[TimerToken]) {
        for token in cancels {
            if let Some(slot) = self.armed.remove(token) {
                self.wheel.remove(&slot);
            }
        }
        for &(token, ticks) in arms {
            if let Some(slot) = self.armed.remove(&token) {
                self.wheel.remove(&slot);
            }
            let slot = (self.current_group + ticks, self.arm_seq);
            self.arm_seq += 1;
            self.wheel.insert(slot, token);
            self.armed.insert(token, slot);
        }
    }

    /// Removes and returns all timers due at or before `group`, in
    /// deterministic `(fire_group, arm_seq)` order.
    pub fn take_due_timers(&mut self, group: u64) -> Vec<TimerToken> {
        let mut due = Vec::new();
        while let Some((&slot, &token)) = self.wheel.iter().next() {
            if slot.0 > group {
                break;
            }
            self.wheel.remove(&slot);
            self.armed.remove(&token);
            due.push(token);
        }
        due
    }

    /// The shim-local context behind the control plane's bytes. (`armed`
    /// is the wheel's reverse index and is rebuilt on decode.)
    fn encode_shim_context(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.current_group);
        put_u64(buf, self.origin_seq);
        put_u64(buf, self.arm_seq);
        put_u64(buf, self.wheel.len() as u64);
        for (&(g, s), &t) in &self.wheel {
            put_u64(buf, g);
            put_u64(buf, s);
            put_u64(buf, t.0);
        }
    }
}

impl<P: ControlPlane> Snapshotable for NodeSnapshot<P> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.cp.encode(buf);
        self.encode_shim_context(buf);
    }

    fn encode_primary(&self, buf: &mut Vec<u8>) {
        self.cp.encode_primary(buf);
        self.encode_shim_context(buf);
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        // The control plane encodes first and is self-delimiting; decode it
        // by trial length. Rather than guess, re-encode to find the split.
        // The probe is pure scratch — restores run hot under rollback, so
        // it comes from the buffer pool rather than a fresh allocation.
        let cp = P::decode(bytes)?;
        let split = crate::bufpool::with_buf(|probe| {
            cp.encode(probe);
            probe.len()
        });
        let rest = bytes.get(split..)?;
        let mut r = Reader::new(rest);
        let current_group = r.u64()?;
        let origin_seq = r.u64()?;
        let arm_seq = r.u64()?;
        let n = r.len()?;
        let mut wheel = BTreeMap::new();
        let mut armed = BTreeMap::new();
        for _ in 0..n {
            let g = r.u64()?;
            let s = r.u64()?;
            let t = TimerToken(r.u64()?);
            wheel.insert((g, s), t);
            armed.insert(t, (g, s));
        }
        Some(NodeSnapshot { cp, current_group, origin_seq, arm_seq, wheel, armed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::NodeId;
    use routing::rip::{RefreshMode, RipConfig, RipProcess};

    fn snap() -> NodeSnapshot<RipProcess> {
        let cp = RipProcess::new(
            NodeId(0),
            vec![NodeId(1)],
            RipConfig::emulation(RefreshMode::DestinationAndNextHop),
        );
        NodeSnapshot::new(cp)
    }

    #[test]
    fn arm_and_fire_in_order() {
        let mut s = snap();
        s.current_group = 10;
        s.apply_timer_ops(&[(TimerToken(1), 2), (TimerToken(2), 1), (TimerToken(3), 2)], &[]);
        assert!(s.take_due_timers(10).is_empty());
        assert_eq!(s.take_due_timers(11), vec![TimerToken(2)]);
        // Equal fire groups resolve by arm order.
        assert_eq!(s.take_due_timers(12), vec![TimerToken(1), TimerToken(3)]);
        assert!(s.wheel.is_empty());
    }

    #[test]
    fn rearm_replaces() {
        let mut s = snap();
        s.apply_timer_ops(&[(TimerToken(7), 5)], &[]);
        s.apply_timer_ops(&[(TimerToken(7), 1)], &[]);
        assert_eq!(s.wheel.len(), 1);
        assert_eq!(s.take_due_timers(1), vec![TimerToken(7)]);
    }

    #[test]
    fn cancel_removes() {
        let mut s = snap();
        s.apply_timer_ops(&[(TimerToken(7), 5)], &[]);
        s.apply_timer_ops(&[], &[TimerToken(7)]);
        assert!(s.take_due_timers(100).is_empty());
        // Cancelling an unarmed token is a no-op.
        s.apply_timer_ops(&[], &[TimerToken(9)]);
    }

    #[test]
    fn snapshot_round_trip() {
        let mut s = snap();
        s.current_group = 3;
        s.origin_seq = 9;
        s.apply_timer_ops(&[(TimerToken(1), 4), (TimerToken(2), 8)], &[]);
        let mut buf = Vec::new();
        s.encode(&mut buf);
        let back: NodeSnapshot<RipProcess> = Snapshotable::decode(&buf).expect("decodes");
        assert_eq!(back.current_group, 3);
        assert_eq!(back.origin_seq, 9);
        assert_eq!(back.wheel, s.wheel);
        assert_eq!(back.armed, s.armed);
        assert_eq!(back.digest(), s.digest());
    }
}
