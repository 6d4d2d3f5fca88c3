//! The [`Process`] trait — the state machine a simulated node runs — and the
//! [`ProcessCtx`] handed to its handlers.

use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};
use std::fmt;

/// Identifier of a simulated node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Opaque handle identifying one armed timer instance.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TimerId(pub u64);

/// Application-chosen discriminator carried by a timer.
///
/// Protocols use this to tell their timers apart (hello timer, retransmit
/// timer, per-route timeout, ...). The value is opaque to the simulator.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct TimerKey(pub u64);

/// An action emitted by a process handler, applied by the simulator after the
/// handler returns.
#[derive(Debug)]
pub(crate) enum Action<M> {
    /// Send `msg` to node `to` over the connecting link.
    Send {
        /// Destination node.
        to: NodeId,
        /// Payload.
        msg: M,
        /// Extra delay before the packet enters the link, modelling local
        /// processing overhead (e.g. checkpointing cost).
        extra_delay: SimDuration,
        /// Control-channel packet: delivered at the link's base delay with
        /// no jitter and no stochastic loss (still dropped by down links and
        /// down nodes). Models a reliable transport whose delay variance is
        /// absorbed into the deterministic estimate.
        control: bool,
    },
    /// Arm a timer that fires after `delay`.
    SetTimer {
        /// Handle assigned at arm time.
        id: TimerId,
        /// Fire after this much simulated time.
        delay: SimDuration,
        /// Application discriminator, echoed back on fire.
        key: TimerKey,
    },
    /// Cancel a previously armed timer. Cancelling an already-fired or
    /// unknown timer is a no-op.
    CancelTimer(TimerId),
}

/// Context handed to every [`Process`] handler.
///
/// Reads (time, identity, neighbours, RNG) happen directly; writes (sends,
/// timer operations) are buffered as actions and applied by the simulator
/// once the handler returns, which keeps handlers free of borrow gymnastics
/// and makes the emitted action list observable in tests.
pub struct ProcessCtx<'a, M> {
    pub(crate) node: NodeId,
    pub(crate) now: SimTime,
    pub(crate) neighbors: &'a [NodeId],
    pub(crate) rng: &'a mut DetRng,
    pub(crate) actions: Vec<Action<M>>,
    pub(crate) next_timer_id: &'a mut u64,
}

impl<'a, M> ProcessCtx<'a, M> {
    /// Identity of the node running this handler.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Nodes reachable over currently-up links, in ascending id order.
    pub fn neighbors(&self) -> &[NodeId] {
        self.neighbors
    }

    /// This node's deterministic RNG (seeded from the node id, *not* the run
    /// seed, so node-local randomness is identical across runs).
    pub fn rng(&mut self) -> &mut DetRng {
        self.rng
    }

    /// Sends `msg` to `to`. Silently dropped if no up link exists at
    /// delivery-scheduling time.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.actions.push(Action::Send {
            to,
            msg,
            extra_delay: SimDuration::ZERO,
            control: false,
        });
    }

    /// Sends `msg` to `to` after holding it locally for `extra_delay`,
    /// modelling processing overhead on the critical path.
    pub fn send_delayed(&mut self, to: NodeId, msg: M, extra_delay: SimDuration) {
        self.actions.push(Action::Send { to, msg, extra_delay, control: false });
    }

    /// Sends `msg` to `to` on the control channel: base link delay, no
    /// jitter, no stochastic loss (down links and nodes still drop it).
    ///
    /// DEFINED's own infrastructure traffic (beacon floods, anti-messages)
    /// uses this so that elections and retractions are deterministic
    /// functions of the recorded external events rather than of per-packet
    /// network noise.
    pub fn send_control(&mut self, to: NodeId, msg: M) {
        self.actions.push(Action::Send {
            to,
            msg,
            extra_delay: SimDuration::ZERO,
            control: true,
        });
    }

    /// Arms a timer firing after `delay`, returning its handle.
    pub fn set_timer(&mut self, delay: SimDuration, key: TimerKey) -> TimerId {
        let id = TimerId(*self.next_timer_id);
        *self.next_timer_id += 1;
        self.actions.push(Action::SetTimer { id, delay, key });
        id
    }

    /// Cancels a previously armed timer.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.actions.push(Action::CancelTimer(id));
    }
}

/// A node-local state machine driven by the simulator.
///
/// All handlers are synchronous and must not block; outputs go through the
/// [`ProcessCtx`]. The associated `Ext` type carries protocol-level external
/// inputs (e.g. an eBGP route announcement) injected by the test harness.
pub trait Process {
    /// Message payload exchanged between nodes.
    type Msg: Clone + fmt::Debug;
    /// External (out-of-band) input type.
    type Ext: Clone + fmt::Debug;

    /// Called once when the node boots (simulation start or node restart).
    fn on_start(&mut self, ctx: &mut ProcessCtx<'_, Self::Msg>) {
        let _ = ctx;
    }

    /// Called for every delivered message.
    fn on_message(&mut self, ctx: &mut ProcessCtx<'_, Self::Msg>, from: NodeId, msg: Self::Msg);

    /// Called for every injected external input.
    fn on_external(&mut self, ctx: &mut ProcessCtx<'_, Self::Msg>, ev: Self::Ext) {
        let _ = (ctx, ev);
    }

    /// Called when an armed, uncancelled timer fires.
    fn on_timer(&mut self, ctx: &mut ProcessCtx<'_, Self::Msg>, id: TimerId, key: TimerKey) {
        let _ = (ctx, id, key);
    }

    /// Called when an adjacent link changes administrative state.
    ///
    /// Protocols that rely purely on hello timeouts can ignore this; it
    /// models carrier-loss interrupts available on real routers.
    fn on_link_change(&mut self, ctx: &mut ProcessCtx<'_, Self::Msg>, peer: NodeId, up: bool) {
        let _ = (ctx, peer, up);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_buffers_actions_in_order() {
        let mut rng = DetRng::new(1);
        let mut next_id = 0;
        let neighbors = vec![NodeId(1), NodeId(2)];
        let mut ctx: ProcessCtx<'_, &'static str> = ProcessCtx {
            node: NodeId(0),
            now: SimTime::from_millis(5),
            neighbors: &neighbors,
            rng: &mut rng,
            actions: Vec::new(),
            next_timer_id: &mut next_id,
        };
        ctx.send(NodeId(1), "a");
        let t = ctx.set_timer(SimDuration::from_millis(10), TimerKey(7));
        ctx.cancel_timer(t);
        assert_eq!(ctx.actions.len(), 3);
        match &ctx.actions[0] {
            Action::Send { to, msg, extra_delay, control } => {
                assert_eq!(*to, NodeId(1));
                assert_eq!(*msg, "a");
                assert_eq!(*extra_delay, SimDuration::ZERO);
                assert!(!control);
            }
            other => panic!("unexpected action {other:?}"),
        }
        match &ctx.actions[1] {
            Action::SetTimer { id, delay, key } => {
                assert_eq!(*id, t);
                assert_eq!(*delay, SimDuration::from_millis(10));
                assert_eq!(*key, TimerKey(7));
            }
            other => panic!("unexpected action {other:?}"),
        }
        match &ctx.actions[2] {
            Action::CancelTimer(id) => assert_eq!(*id, t),
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn timer_ids_are_unique_and_monotonic() {
        let mut rng = DetRng::new(1);
        let mut next_id = 0;
        let neighbors: Vec<NodeId> = Vec::new();
        let mut ctx: ProcessCtx<'_, ()> = ProcessCtx {
            node: NodeId(0),
            now: SimTime::ZERO,
            neighbors: &neighbors,
            rng: &mut rng,
            actions: Vec::new(),
            next_timer_id: &mut next_id,
        };
        let a = ctx.set_timer(SimDuration::ZERO, TimerKey(0));
        let b = ctx.set_timer(SimDuration::ZERO, TimerKey(0));
        assert!(b.0 > a.0);
    }
}
