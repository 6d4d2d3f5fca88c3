//! Runs a [`ControlPlane`] directly on the simulator — the *uninstrumented*
//! baseline ("unmodified XORP" in the paper's comparisons).

use crate::{ControlPlane, Outbox, TimerToken};
use netsim::{NodeId, Process, ProcessCtx, SimDuration, TimerId, TimerKey};
use std::collections::HashMap;

/// Adapter running a control plane natively: messages are delivered in
/// arrival order (whatever the jittered network produces) and virtual-time
/// ticks are mapped onto wall-clock timers of `tick` length.
///
/// This is the baseline configuration every DEFINED experiment compares
/// against: same protocol code, no determinism layer.
#[derive(Debug)]
pub struct NativeAdapter<P: ControlPlane> {
    cp: P,
    tick: SimDuration,
    armed: HashMap<TimerToken, TimerId>,
    /// Reverse map: netsim key → token (key is the token's raw value).
    deliveries: u64,
}

impl<P: ControlPlane> NativeAdapter<P> {
    /// Wraps `cp`, mapping one virtual-time tick to `tick` of simulated
    /// wall-clock time (the paper's beacon interval, 250 ms, by default).
    pub fn new(cp: P, tick: SimDuration) -> Self {
        NativeAdapter { cp, tick, armed: HashMap::new(), deliveries: 0 }
    }

    /// The wrapped control plane.
    pub fn control_plane(&self) -> &P {
        &self.cp
    }

    /// Mutable access (used by debugger-style tests).
    pub fn control_plane_mut(&mut self) -> &mut P {
        &mut self.cp
    }

    /// Messages delivered so far.
    pub fn deliveries(&self) -> u64 {
        self.deliveries
    }

    fn apply(&mut self, ctx: &mut ProcessCtx<'_, P::Msg>, out: Outbox<P::Msg>) {
        for (to, msg) in out.sends {
            ctx.send(to, msg);
        }
        for token in out.cancels {
            if let Some(id) = self.armed.remove(&token) {
                ctx.cancel_timer(id);
            }
        }
        for (token, ticks) in out.arms {
            // Re-arming replaces: cancel any previous instance.
            if let Some(id) = self.armed.remove(&token) {
                ctx.cancel_timer(id);
            }
            let id = ctx.set_timer(self.tick * ticks, TimerKey(token.0));
            self.armed.insert(token, id);
        }
    }
}

impl<P: ControlPlane> Process for NativeAdapter<P> {
    type Msg = P::Msg;
    type Ext = P::Ext;

    fn on_start(&mut self, ctx: &mut ProcessCtx<'_, P::Msg>) {
        let mut out = Outbox::new();
        self.cp.on_start(&mut out);
        self.apply(ctx, out);
    }

    fn on_message(&mut self, ctx: &mut ProcessCtx<'_, P::Msg>, from: NodeId, msg: P::Msg) {
        self.deliveries += 1;
        let mut out = Outbox::new();
        self.cp.on_message(from, &msg, &mut out);
        self.apply(ctx, out);
    }

    fn on_external(&mut self, ctx: &mut ProcessCtx<'_, P::Msg>, ev: P::Ext) {
        let mut out = Outbox::new();
        self.cp.on_external(&ev, &mut out);
        self.apply(ctx, out);
    }

    fn on_timer(&mut self, ctx: &mut ProcessCtx<'_, P::Msg>, id: TimerId, key: TimerKey) {
        let token = TimerToken(key.0);
        // Ignore stale firings from replaced arms.
        if self.armed.get(&token) != Some(&id) {
            return;
        }
        self.armed.remove(&token);
        let mut out = Outbox::new();
        self.cp.on_timer(token, &mut out);
        self.apply(ctx, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{LinkParams, SimBuilder, SimTime};

    /// A control plane that pings its peer on start and counts echoes; its
    /// timer re-arms twice.
    #[derive(Clone, Debug, Default)]
    struct Toy {
        echoes: u32,
        timer_fires: u32,
    }

    impl checkpoint::Snapshotable for Toy {
        fn encode(&self, buf: &mut Vec<u8>) {
            crate::enc::put_u32(buf, self.echoes);
            crate::enc::put_u32(buf, self.timer_fires);
        }
        fn decode_from(r: &mut crate::enc::Reader<'_>) -> Option<Self> {
            Some(Toy { echoes: r.u32()?, timer_fires: r.u32()? })
        }
    }

    impl ControlPlane for Toy {
        type Msg = u8;
        type Ext = ();
        fn on_start(&mut self, out: &mut Outbox<u8>) {
            out.send(NodeId(1), 1);
            out.arm(TimerToken(1), 2);
        }
        fn on_message(&mut self, from: NodeId, msg: &u8, out: &mut Outbox<u8>) {
            if *msg == 1 {
                out.send(from, 2);
            } else {
                self.echoes += 1;
            }
        }
        fn on_external(&mut self, _ev: &(), _out: &mut Outbox<u8>) {}
        fn on_timer(&mut self, token: TimerToken, out: &mut Outbox<u8>) {
            self.timer_fires += 1;
            if self.timer_fires < 3 {
                out.arm(token, 2);
            }
        }
    }

    #[test]
    fn adapter_routes_messages_and_timers() {
        let mut sim = SimBuilder::new(2)
            .link(NodeId(0), NodeId(1), LinkParams::with_delay(SimDuration::from_millis(5)))
            .build(1, |_| NativeAdapter::new(Toy::default(), SimDuration::from_millis(250)));
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(sim.process(NodeId(0)).control_plane().echoes, 1);
        assert_eq!(sim.process(NodeId(0)).control_plane().timer_fires, 3);
        assert_eq!(sim.process(NodeId(1)).control_plane().timer_fires, 3);
        assert!(sim.process(NodeId(1)).deliveries() >= 1);
    }

    #[test]
    fn rearm_replaces_pending_timer() {
        /// Arms token 9 at 4 ticks on start, then re-arms it at 1 tick via an
        /// external; only one fire may happen.
        #[derive(Clone, Debug, Default)]
        struct Rearm {
            fires: u32,
        }
        impl checkpoint::Snapshotable for Rearm {
            fn encode(&self, buf: &mut Vec<u8>) {
                crate::enc::put_u32(buf, self.fires);
            }
            fn decode_from(r: &mut crate::enc::Reader<'_>) -> Option<Self> {
                Some(Rearm { fires: r.u32()? })
            }
        }
        impl ControlPlane for Rearm {
            type Msg = ();
            type Ext = ();
            fn on_start(&mut self, out: &mut Outbox<()>) {
                out.arm(TimerToken(9), 4);
            }
            fn on_message(&mut self, _f: NodeId, _m: &(), _o: &mut Outbox<()>) {}
            fn on_external(&mut self, _ev: &(), out: &mut Outbox<()>) {
                out.arm(TimerToken(9), 1);
            }
            fn on_timer(&mut self, _t: TimerToken, _o: &mut Outbox<()>) {
                self.fires += 1;
            }
        }
        let mut sim = SimBuilder::new(1)
            .build(1, |_| NativeAdapter::new(Rearm::default(), SimDuration::from_millis(250)));
        sim.schedule_external(SimTime::from_millis(100), NodeId(0), ());
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.process(NodeId(0)).control_plane().fires, 1);
    }
}
