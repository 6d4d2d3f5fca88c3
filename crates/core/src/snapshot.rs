//! The composite per-node state DEFINED-RB checkpoints, and the delivery
//! kernel both runtimes apply to it.
//!
//! A rollback must restore not just the control-plane state but also the
//! shim-local context that deliveries mutate: the virtual-time group, the
//! origin-sequence counter, and the timer wheel. Wrapping them in one
//! [`NodeSnapshot`] keeps checkpoint/restore atomic.
//!
//! Theorem 1 holds because DEFINED-RB and DEFINED-LS apply the *same*
//! function to an event. That function is defined here, once:
//! [`NodeSnapshot::execute`] runs an [`Event`]'s handler(s) and
//! [`Event::payload_digest`] is what its commit record remembers of it.
//! What the runtimes do with the returned sends — annotate
//! ([`crate::rb::RbShared::child_annotation`]), match against a previous
//! execution and transmit (RB), count against recorded losses and stage
//! (LS) — is their environment, not the rule.

use crate::order::debug_digest;
use checkpoint::Snapshotable;
use netsim::NodeId;
use routing::enc::{put_u64, Reader};
use routing::{ControlPlane, Outbox, TimerToken};
use std::collections::BTreeMap;

/// One deliverable event at a node — the unit both runtimes order, deliver
/// and commit.
#[derive(Clone, Debug)]
pub enum Event<M, X> {
    /// Node startup (`on_start`).
    Start,
    /// An external input.
    External(X),
    /// A beacon tick: advance virtual time, fire due timers.
    BeaconTick,
    /// An application message.
    Msg {
        /// The transmitting neighbour.
        from: NodeId,
        /// The control-plane payload.
        payload: M,
    },
}

impl<M: std::fmt::Debug, X: std::fmt::Debug> Event<M, X> {
    /// The payload digest of the event's commit record: `1` for startup,
    /// `0` for a tick (neither carries a payload), else the
    /// [`debug_digest`] of what was delivered.
    pub fn payload_digest(&self) -> u64 {
        match self {
            Event::Start => 1,
            Event::BeaconTick => 0,
            Event::External(x) => debug_digest(x),
            Event::Msg { payload, .. } => debug_digest(payload),
        }
    }
}

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

    /// Delivers `ev` — the per-event rule of both runtimes. Runs the
    /// event's handler against the control plane, applies its timer
    /// operations to the wheel, and returns what it sent, in emit order. A
    /// tick first moves virtual time to `group` (the tick's annotation
    /// group; other events ignore it), then fires due timers until
    /// quiescent — a handler may arm a timer due in the same group — and
    /// its sends are those of every handler run, concatenated. Touches
    /// nothing outside `self`.
    pub fn execute(&mut self, group: u64, ev: &Event<P::Msg, P::Ext>) -> Vec<(NodeId, P::Msg)> {
        // Match by reference: events carry whole LSA/update payloads, and
        // this runs once per (re-)delivery.
        let mut out = Outbox::new();
        match ev {
            Event::Start => self.cp.on_start(&mut out),
            Event::External(x) => self.cp.on_external(x, &mut out),
            Event::Msg { from, payload } => self.cp.on_message(*from, payload, &mut out),
            Event::BeaconTick => {
                self.current_group = group;
                loop {
                    let due = self.take_due_timers(group);
                    if due.is_empty() {
                        return out.sends;
                    }
                    for token in due {
                        let mut fired = Outbox::new();
                        self.cp.on_timer(token, &mut fired);
                        self.apply_timer_ops(&fired.arms, &fired.cancels);
                        out.sends.append(&mut fired.sends);
                    }
                }
            }
        }
        self.apply_timer_ops(&out.arms, &out.cancels);
        out.sends
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

    fn is_canonical(&self) -> bool {
        self.cp.is_canonical()
    }

    fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
        let cp = P::decode_from(r)?;
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

    /// A stateless control plane that scripts the kernel's corner cases:
    /// timer 1 sends twice and arms timer 2 for the *same* tick, timer 2
    /// sends once; every other handler sends one message naming itself.
    #[derive(Clone, Debug)]
    struct Chain;

    impl Snapshotable for Chain {
        fn encode(&self, _: &mut Vec<u8>) {}
        fn decode_from(_: &mut Reader<'_>) -> Option<Self> {
            Some(Chain)
        }
    }

    impl ControlPlane for Chain {
        type Msg = &'static str;
        type Ext = u8;
        fn on_start(&mut self, out: &mut Outbox<&'static str>) {
            out.send(NodeId(1), "start");
            out.arm(TimerToken(1), 2);
        }
        fn on_message(&mut self, from: NodeId, _: &&'static str, out: &mut Outbox<&'static str>) {
            out.send(from, "echo");
        }
        fn on_external(&mut self, _: &u8, out: &mut Outbox<&'static str>) {
            out.send(NodeId(2), "ext");
        }
        fn on_timer(&mut self, token: TimerToken, out: &mut Outbox<&'static str>) {
            match token.0 {
                1 => {
                    out.send(NodeId(1), "t1-a");
                    out.send(NodeId(2), "t1-b");
                    out.arm(TimerToken(2), 0);
                }
                _ => out.send(NodeId(1), "t2"),
            }
        }
    }

    #[test]
    fn tick_fires_to_quiescence_with_sends_in_emit_order_across_handlers() {
        let mut s = NodeSnapshot::new(Chain);
        let tick = Event::BeaconTick;
        assert_eq!(s.execute(7, &Event::Start), vec![(NodeId(1), "start")]);
        assert_eq!(s.current_group, 0, "only a tick moves virtual time");
        // Not yet due: the tick advances time and fires nothing.
        assert!(s.execute(1, &tick).is_empty());
        assert_eq!(s.current_group, 1);
        // Due: timer 1 fires, arms timer 2 for this same group, and the
        // one tick delivery runs it too — sends concatenated in emit order.
        assert_eq!(
            s.execute(2, &tick),
            vec![(NodeId(1), "t1-a"), (NodeId(2), "t1-b"), (NodeId(1), "t2")]
        );
        assert!(s.wheel.is_empty() && s.armed.is_empty());
        assert_eq!(s.execute(9, &Event::External(4)), vec![(NodeId(2), "ext")]);
        let msg = Event::Msg { from: NodeId(3), payload: "hi" };
        assert_eq!(s.execute(9, &msg), vec![(NodeId(3), "echo")]);
        assert_eq!(s.current_group, 2);
    }

    #[test]
    fn payload_digest_follows_the_four_case_rule() {
        type Ev = Event<&'static str, u8>;
        assert_eq!(Ev::Start.payload_digest(), 1);
        assert_eq!(Ev::BeaconTick.payload_digest(), 0);
        assert_eq!(Ev::External(4).payload_digest(), debug_digest(&4u8));
        // A message's digest covers the payload alone, not who sent it.
        let from = |n| Ev::Msg { from: NodeId(n), payload: "hi" };
        assert_eq!(from(1).payload_digest(), debug_digest(&"hi"));
        assert_eq!(from(1).payload_digest(), from(2).payload_digest());
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
