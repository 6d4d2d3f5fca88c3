//! Control-plane protocol implementations and the [`ControlPlane`] interface
//! DEFINED instruments.
//!
//! The paper instruments real routing daemons (XORP's BGP and OSPF modules,
//! Quagga's RIP module) by wrapping their message-send, message-receive, and
//! timer calls. Here the equivalent seam is the [`ControlPlane`] trait: a
//! *pure, deterministic state machine* whose only effects flow through an
//! [`Outbox`]. That purity is what the paper's §2.5 assumes when it requires
//! single-node internal nondeterminism to be removed, and it is what lets the
//! DEFINED-RB shim checkpoint, roll back, and replay a node.
//!
//! Causal marking (paper §3, "interfaces to mark causal relationships") is
//! structural rather than manual: every message pushed into the outbox while
//! `on_message(m)` runs is an immediate causal child of `m`; messages pushed
//! from `on_external` or `on_timer` start new causal chains.
//!
//! Three protocols are provided:
//!
//! * [`ospf`] — link-state routing (hellos, LSA flooding with acks and
//!   retransmission, Dijkstra SPF); the main evaluation workload.
//! * [`bgp`] — path-vector decision process with the XORP 0.4 MED ordering
//!   bug behind [`bgp::DecisionMode`].
//! * [`rip`] — distance-vector with per-route timers and the Quagga 0.96.5
//!   timer-refresh bug behind [`rip::RefreshMode`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod adapter;
pub mod bgp;
pub mod ospf;
pub mod rip;

pub use adapter::NativeAdapter;
pub use checkpoint::{enc, fnv1a, Snapshotable};

use netsim::NodeId;
use std::fmt;

/// A protocol-chosen timer discriminator.
///
/// Arming a token that is already armed *replaces* the previous arm (the
/// semantics of per-route protocol timers); cancelling an unarmed token is a
/// no-op.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TimerToken(pub u64);

/// Buffered effects of one control-plane handler invocation.
///
/// All sends buffered while processing message `m` are immediate causal
/// children of `m`; the DEFINED shim uses this to annotate and, on rollback,
/// to know which messages to unsend.
#[derive(Clone, Debug, Default)]
pub struct Outbox<M> {
    /// Messages to transmit, in push order.
    pub sends: Vec<(NodeId, M)>,
    /// Timer arms: `(token, after_ticks)` in virtual-time ticks.
    pub arms: Vec<(TimerToken, u64)>,
    /// Timer cancellations.
    pub cancels: Vec<TimerToken>,
}

impl<M> Outbox<M> {
    /// Creates an empty outbox.
    pub fn new() -> Self {
        Outbox { sends: Vec::new(), arms: Vec::new(), cancels: Vec::new() }
    }

    /// Queues a message to `to`.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.sends.push((to, msg));
    }

    /// Arms (or re-arms) `token` to fire after `after_ticks` virtual-time
    /// ticks. One tick corresponds to one beacon interval (250 ms by
    /// default).
    pub fn arm(&mut self, token: TimerToken, after_ticks: u64) {
        self.arms.push((token, after_ticks));
    }

    /// Cancels `token` if armed.
    pub fn cancel(&mut self, token: TimerToken) {
        self.cancels.push(token);
    }

    /// True if no effects were produced.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty() && self.arms.is_empty() && self.cancels.is_empty()
    }
}

/// A deterministic control-plane state machine.
///
/// Implementations must be pure: identical call sequences produce identical
/// state and identical outbox contents. All time is virtual (ticks); all
/// randomness must be derived deterministically from state.
///
/// The [`Snapshotable`] supertrait supplies the stable byte encoding the
/// checkpoint substrate diffs at page granularity and restores from on
/// rollback; `encode` followed by `decode` must reproduce the state exactly.
///
/// Control planes and their payloads are `Send`/`Sync`: a pure state
/// machine owns no thread-affine resources, and the bound is what lets the
/// sharded wave engine and the replay farm move whole debugging networks
/// across worker threads.
pub trait ControlPlane: Snapshotable + fmt::Debug + Send {
    /// Wire message type.
    type Msg: Clone + fmt::Debug + PartialEq + Send + Sync;
    /// External (out-of-band) input type, recorded by DEFINED's partial
    /// recorder.
    type Ext: Clone + fmt::Debug + PartialEq + Send + Sync;

    /// Called once at boot; arms initial timers, sends initial messages.
    fn on_start(&mut self, out: &mut Outbox<Self::Msg>);

    /// Handles a delivered message.
    fn on_message(&mut self, from: NodeId, msg: &Self::Msg, out: &mut Outbox<Self::Msg>);

    /// Handles an external input.
    fn on_external(&mut self, ev: &Self::Ext, out: &mut Outbox<Self::Msg>);

    /// Handles an expired timer.
    fn on_timer(&mut self, token: TimerToken, out: &mut Outbox<Self::Msg>);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbox_collects_in_order() {
        let mut out: Outbox<&str> = Outbox::new();
        assert!(out.is_empty());
        out.send(NodeId(1), "x");
        out.arm(TimerToken(5), 4);
        out.cancel(TimerToken(6));
        assert!(!out.is_empty());
        assert_eq!(out.sends, vec![(NodeId(1), "x")]);
        assert_eq!(out.arms, vec![(TimerToken(5), 4)]);
        assert_eq!(out.cancels, vec![TimerToken(6)]);
    }
}
