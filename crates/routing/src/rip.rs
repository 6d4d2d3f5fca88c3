//! A RIP-like distance-vector control plane reproducing the Quagga 0.96.5
//! timer-refresh bug (paper §4, Figure 5).
//!
//! Each route carries a timeout timer refreshed by matching announcements
//! and a garbage-collection timer started at expiry. The Quagga bug: when an
//! announcement for an already-known destination arrives, the implementation
//! refreshes the route's timeout after matching on the **destination field
//! only**, ignoring the next hop ([`RefreshMode::DestinationOnly`]). With a
//! main and a backup provider for the same destination, the backup's
//! periodic announcements keep refreshing the route *through the dead main
//! router*, leaving a black hole whose appearance depends on announcement
//! timing relative to the timeout — the timing bug DEFINED reproduces
//! deterministically.

use crate::enc::{put_u32, put_u64, put_u8, Reader};
use crate::{ControlPlane, Outbox, Snapshotable, TimerToken};
use netsim::NodeId;
use std::collections::BTreeMap;

/// A route prefix (opaque u32, as in [`crate::bgp`]).
pub type Prefix = u32;

/// The metric value treated as unreachable.
pub const INFINITY: u32 = 16;

const TOK_UPDATE: u64 = 1 << 60;
const TOK_TIMEOUT: u64 = 2 << 60;
const TOK_GC: u64 = 3 << 60;

/// How announcement-to-route matching is performed on refresh.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefreshMode {
    /// Quagga 0.96.5: match on destination only; any announcement for the
    /// destination refreshes the installed route's timer.
    DestinationOnly,
    /// Fixed behaviour: refresh only when the announcement comes from the
    /// installed next hop.
    DestinationAndNextHop,
}

/// RIP configuration (all intervals in virtual-time ticks).
#[derive(Clone, Copy, Debug)]
pub struct RipConfig {
    /// Periodic full-table announcement interval (RFC default 30 s; the
    /// emulation shrinks it to keep runs short).
    pub update_ticks: u64,
    /// Route timeout. Chosen as a small multiple of `update_ticks` so the
    /// refresh race of Figure 5 is exercised.
    pub timeout_ticks: u64,
    /// Garbage-collection interval after timeout.
    pub gc_ticks: u64,
    /// The refresh matching mode (the bug toggle).
    pub refresh: RefreshMode,
    /// Whether to apply split horizon when announcing.
    pub split_horizon: bool,
}

impl RipConfig {
    /// Emulation defaults: update every 4 ticks (1 s), timeout 12 ticks
    /// (3 s), GC 8 ticks, split horizon on.
    pub fn emulation(refresh: RefreshMode) -> Self {
        RipConfig {
            update_ticks: 4,
            timeout_ticks: 12,
            gc_ticks: 8,
            refresh,
            split_horizon: true,
        }
    }
}

/// One installed route.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RipRoute {
    /// Current metric (hop count).
    pub metric: u32,
    /// Next hop, or `None` for directly connected prefixes.
    pub next_hop: Option<NodeId>,
    /// Whether the route is in garbage-collection (metric advertised as
    /// infinity).
    pub garbage: bool,
}

/// RIP wire message: a full-table announcement.
#[derive(Clone, Debug, PartialEq)]
pub struct RipAnnouncement {
    /// `(prefix, metric)` entries.
    pub entries: Vec<(Prefix, u32)>,
}

/// External inputs.
#[derive(Clone, Debug, PartialEq)]
pub enum RipExt {
    /// Attach a directly connected prefix (advertised with metric 1).
    Connect {
        /// The prefix to own.
        prefix: Prefix,
    },
}

/// The RIP control plane for one router.
#[derive(Clone, Debug)]
pub struct RipProcess {
    id: NodeId,
    cfg: RipConfig,
    neighbors: Vec<NodeId>,
    table: BTreeMap<Prefix, RipRoute>,
    /// Timer-refresh events observed, per prefix — the quantity the case
    /// study inspects while stepping.
    refreshes: BTreeMap<Prefix, u64>,
}

impl RipProcess {
    /// Creates a router with the given neighbour set.
    pub fn new(id: NodeId, mut neighbors: Vec<NodeId>, cfg: RipConfig) -> Self {
        neighbors.sort_unstable();
        RipProcess { id, cfg, neighbors, table: BTreeMap::new(), refreshes: BTreeMap::new() }
    }

    /// The current route for `prefix`.
    pub fn route(&self, prefix: Prefix) -> Option<&RipRoute> {
        self.table.get(&prefix)
    }

    /// The full table.
    pub fn table(&self) -> &BTreeMap<Prefix, RipRoute> {
        &self.table
    }

    /// Timer refreshes recorded for `prefix`.
    pub fn refresh_count(&self, prefix: Prefix) -> u64 {
        self.refreshes.get(&prefix).copied().unwrap_or(0)
    }

    /// Applies the fix in place (the case study's patch step).
    pub fn set_refresh_mode(&mut self, mode: RefreshMode) {
        self.cfg.refresh = mode;
    }

    fn announce(&self, out: &mut Outbox<RipAnnouncement>) {
        for &nb in &self.neighbors {
            let entries: Vec<(Prefix, u32)> = self
                .table
                .iter()
                .filter(|(_, r)| {
                    // Split horizon: do not announce a route back to the
                    // neighbour it was learned from.
                    !(self.cfg.split_horizon && r.next_hop == Some(nb))
                })
                .map(|(&p, r)| (p, if r.garbage { INFINITY } else { r.metric }))
                .collect();
            if !entries.is_empty() {
                out.send(nb, RipAnnouncement { entries });
            }
        }
    }

    fn timeout_token(prefix: Prefix) -> TimerToken {
        TimerToken(TOK_TIMEOUT | prefix as u64)
    }

    fn gc_token(prefix: Prefix) -> TimerToken {
        TimerToken(TOK_GC | prefix as u64)
    }

    fn refresh(&mut self, prefix: Prefix, out: &mut Outbox<RipAnnouncement>) {
        *self.refreshes.entry(prefix).or_default() += 1;
        out.arm(Self::timeout_token(prefix), self.cfg.timeout_ticks);
    }

    fn handle_entry(
        &mut self,
        from: NodeId,
        prefix: Prefix,
        adv_metric: u32,
        out: &mut Outbox<RipAnnouncement>,
    ) {
        let metric = (adv_metric + 1).min(INFINITY);
        match self.table.get(&prefix).copied() {
            None => {
                if metric < INFINITY {
                    self.table.insert(
                        prefix,
                        RipRoute { metric, next_hop: Some(from), garbage: false },
                    );
                    self.refresh(prefix, out);
                }
            }
            Some(route) => {
                if route.next_hop.is_none() {
                    return; // Directly connected routes never change.
                }
                let from_next_hop = route.next_hop == Some(from);
                if from_next_hop {
                    // Announcement from the installed gateway: adopt its
                    // metric unconditionally.
                    if metric >= INFINITY {
                        self.start_gc(prefix, out);
                    } else {
                        self.table.insert(
                            prefix,
                            RipRoute { metric, next_hop: Some(from), garbage: false },
                        );
                        self.refresh(prefix, out);
                    }
                } else if metric < route.metric || route.garbage {
                    // Strictly better (or replacing a dying route): switch.
                    self.table.insert(
                        prefix,
                        RipRoute { metric, next_hop: Some(from), garbage: false },
                    );
                    out.cancel(Self::gc_token(prefix));
                    self.refresh(prefix, out);
                } else if metric < INFINITY {
                    // Equal-or-worse announcement from a different gateway.
                    // Correct RIP ignores it; buggy Quagga matches on the
                    // destination alone and refreshes the installed route's
                    // timer anyway.
                    if self.cfg.refresh == RefreshMode::DestinationOnly {
                        self.refresh(prefix, out);
                    }
                }
            }
        }
    }

    fn start_gc(&mut self, prefix: Prefix, out: &mut Outbox<RipAnnouncement>) {
        if let Some(route) = self.table.get_mut(&prefix) {
            if route.next_hop.is_none() || route.garbage {
                return;
            }
            route.garbage = true;
            route.metric = INFINITY;
            out.cancel(Self::timeout_token(prefix));
            out.arm(Self::gc_token(prefix), self.cfg.gc_ticks);
        }
    }
}

impl ControlPlane for RipProcess {
    type Msg = RipAnnouncement;
    type Ext = RipExt;

    fn on_start(&mut self, out: &mut Outbox<RipAnnouncement>) {
        out.arm(TimerToken(TOK_UPDATE), self.cfg.update_ticks);
    }

    fn on_message(&mut self, from: NodeId, msg: &RipAnnouncement, out: &mut Outbox<RipAnnouncement>) {
        for &(prefix, metric) in &msg.entries {
            self.handle_entry(from, prefix, metric, out);
        }
    }

    fn on_external(&mut self, ev: &RipExt, out: &mut Outbox<RipAnnouncement>) {
        match ev {
            RipExt::Connect { prefix } => {
                self.table.insert(
                    *prefix,
                    RipRoute { metric: 1, next_hop: None, garbage: false },
                );
                // Announce eagerly so connectivity spreads without waiting a
                // full period.
                self.announce(out);
            }
        }
    }

    fn on_timer(&mut self, token: TimerToken, out: &mut Outbox<RipAnnouncement>) {
        let tag = token.0 >> 60;
        let prefix = (token.0 & 0xFFFF_FFFF) as Prefix;
        if tag == TOK_UPDATE >> 60 {
            self.announce(out);
            out.arm(TimerToken(TOK_UPDATE), self.cfg.update_ticks);
        } else if tag == TOK_GC >> 60 {
            if self.table.get(&prefix).map(|r| r.garbage).unwrap_or(false) {
                self.table.remove(&prefix);
            }
        } else if tag == TOK_TIMEOUT >> 60 {
            self.start_gc(prefix, out);
        }
    }

}

impl Snapshotable for RipProcess {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.id.0);
        put_u64(buf, self.cfg.update_ticks);
        put_u64(buf, self.cfg.timeout_ticks);
        put_u64(buf, self.cfg.gc_ticks);
        put_u8(buf, matches!(self.cfg.refresh, RefreshMode::DestinationOnly) as u8);
        put_u8(buf, self.cfg.split_horizon as u8);
        put_u64(buf, self.neighbors.len() as u64);
        for n in &self.neighbors {
            put_u32(buf, n.0);
        }
        put_u64(buf, self.table.len() as u64);
        for (p, r) in &self.table {
            put_u32(buf, *p);
            put_u32(buf, r.metric);
            put_u32(buf, r.next_hop.map(|n| n.0).unwrap_or(u32::MAX));
            put_u8(buf, r.garbage as u8);
        }
        put_u64(buf, self.refreshes.len() as u64);
        for (p, c) in &self.refreshes {
            put_u32(buf, *p);
            put_u64(buf, *c);
        }
    }

    fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
        let id = NodeId(r.u32()?);
        let cfg = RipConfig {
            update_ticks: r.u64()?,
            timeout_ticks: r.u64()?,
            gc_ticks: r.u64()?,
            refresh: if r.boolean()? {
                RefreshMode::DestinationOnly
            } else {
                RefreshMode::DestinationAndNextHop
            },
            split_horizon: r.boolean()?,
        };
        let n_nbr = r.len()?;
        let mut neighbors = Vec::with_capacity(n_nbr);
        for _ in 0..n_nbr {
            neighbors.push(NodeId(r.u32()?));
        }
        let n_table = r.len()?;
        let mut table = BTreeMap::new();
        for _ in 0..n_table {
            let p = r.u32()?;
            let metric = r.u32()?;
            let nh = r.u32()?;
            let garbage = r.boolean()?;
            table.insert(
                p,
                RipRoute {
                    metric,
                    next_hop: if nh == u32::MAX { None } else { Some(NodeId(nh)) },
                    garbage,
                },
            );
        }
        let n_ref = r.len()?;
        let mut refreshes = BTreeMap::new();
        for _ in 0..n_ref {
            let p = r.u32()?;
            let c = r.u64()?;
            refreshes.insert(p, c);
        }
        Some(RipProcess { id, cfg, neighbors, table, refreshes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NativeAdapter;
    use netsim::{JitterModel, LinkParams, SimBuilder, SimDuration, SimTime, Simulator};
    use topology::canonical;

    const TICK: SimDuration = SimDuration(250_000_000);
    const DEST: Prefix = 77;

    fn fig5_sim(
        refresh: RefreshMode,
        seed: u64,
        jitter: f64,
    ) -> (Simulator<NativeAdapter<RipProcess>>, canonical::Fig5Roles) {
        let (g, roles) = canonical::fig5_rip(SimDuration::from_millis(10));
        let links = g.to_links(|e| {
            LinkParams::with_delay(e.delay).jitter(JitterModel::Uniform { frac: jitter })
        });
        let cfg = RipConfig::emulation(refresh);
        let sim = SimBuilder::new(g.node_count()).links(links).build(seed, move |id| {
            let nbrs = g.neighbors(id);
            NativeAdapter::new(RipProcess::new(id, nbrs, cfg), TICK)
        });
        (sim, roles)
    }

    #[test]
    fn routes_propagate() {
        let (mut sim, roles) = fig5_sim(RefreshMode::DestinationAndNextHop, 1, 0.0);
        sim.schedule_external(SimTime::from_millis(10), roles.dest, RipExt::Connect { prefix: DEST });
        sim.run_until(SimTime::from_secs(10));
        let r1 = sim.process(roles.r1).control_plane().route(DEST).copied().expect("route");
        assert!(r1.next_hop == Some(roles.r2) || r1.next_hop == Some(roles.r3));
        assert_eq!(r1.metric, 3);
        // R2 and R3 learn it directly from dest.
        assert_eq!(
            sim.process(roles.r2).control_plane().route(DEST).unwrap().next_hop,
            Some(roles.dest)
        );
    }

    #[test]
    fn correct_mode_fails_over_after_main_dies() {
        let (mut sim, roles) = fig5_sim(RefreshMode::DestinationAndNextHop, 2, 0.2);
        sim.schedule_external(SimTime::from_millis(10), roles.dest, RipExt::Connect { prefix: DEST });
        sim.run_until(SimTime::from_secs(8));
        // Force the installed route through R2 for a deterministic start.
        let via = sim.process(roles.r1).control_plane().route(DEST).unwrap().next_hop;
        let main = via.expect("has next hop");
        sim.schedule_node_admin(SimTime::from_secs(8), main, false);
        sim.run_until(SimTime::from_secs(30));
        let backup = if main == roles.r2 { roles.r3 } else { roles.r2 };
        let r = sim.process(roles.r1).control_plane().route(DEST).copied().expect("route");
        assert_eq!(r.next_hop, Some(backup), "must fail over to the backup");
        assert!(!r.garbage);
    }

    #[test]
    fn buggy_mode_refreshes_on_foreign_announcements() {
        let (mut sim, roles) = fig5_sim(RefreshMode::DestinationOnly, 3, 0.0);
        sim.schedule_external(SimTime::from_millis(10), roles.dest, RipExt::Connect { prefix: DEST });
        sim.run_until(SimTime::from_secs(10));
        // Both R2's and R3's periodic announcements hit R1; with the bug the
        // non-next-hop ones also refresh.
        let cp = sim.process(roles.r1).control_plane();
        let installed = cp.route(DEST).unwrap().next_hop.unwrap();
        assert!(installed == roles.r2 || installed == roles.r3);
        let refreshes = cp.refresh_count(DEST);
        // In 10s with 1s updates from two providers, correct mode would see
        // ~9 refreshes; buggy mode roughly doubles that.
        assert!(refreshes >= 14, "expected extra refreshes, got {refreshes}");
    }

    #[test]
    fn buggy_mode_black_holes_when_announcements_race_ahead() {
        // With zero jitter the backup's announcements always arrive inside
        // the refresh window, so the stale route never times out: permanent
        // black hole.
        let (mut sim, roles) = fig5_sim(RefreshMode::DestinationOnly, 4, 0.0);
        sim.schedule_external(SimTime::from_millis(10), roles.dest, RipExt::Connect { prefix: DEST });
        sim.run_until(SimTime::from_secs(8));
        let main = sim.process(roles.r1).control_plane().route(DEST).unwrap().next_hop.unwrap();
        sim.schedule_node_admin(SimTime::from_secs(8), main, false);
        sim.run_until(SimTime::from_secs(40));
        let r = sim.process(roles.r1).control_plane().route(DEST).copied().expect("route");
        assert_eq!(r.next_hop, Some(main), "black hole: still pointing at the dead router");
    }

    #[test]
    fn split_horizon_suppresses_echo() {
        let (g, roles) = canonical::fig5_rip(SimDuration::from_millis(10));
        let cfg = RipConfig::emulation(RefreshMode::DestinationAndNextHop);
        let mut rip = RipProcess::new(roles.r2, g.neighbors(roles.r2), cfg);
        let mut out = Outbox::new();
        rip.on_message(
            roles.dest,
            &RipAnnouncement { entries: vec![(DEST, 1)] },
            &mut out,
        );
        let mut out = Outbox::new();
        rip.announce(&mut out);
        // r2's neighbours are r1 and dest; the route learned from dest must
        // not be announced back to dest.
        let to_dest: Vec<_> = out.sends.iter().filter(|(to, _)| *to == roles.dest).collect();
        assert!(to_dest.is_empty(), "split horizon must suppress the echo");
        let to_r1: Vec<_> = out.sends.iter().filter(|(to, _)| *to == roles.r1).collect();
        assert_eq!(to_r1.len(), 1);
    }

    #[test]
    fn gc_removes_expired_routes() {
        let cfg = RipConfig::emulation(RefreshMode::DestinationAndNextHop);
        let mut rip = RipProcess::new(NodeId(0), vec![NodeId(1)], cfg);
        let mut out = Outbox::new();
        rip.on_message(NodeId(1), &RipAnnouncement { entries: vec![(DEST, 1)] }, &mut out);
        assert!(rip.route(DEST).is_some());
        // Timeout fires.
        let mut out = Outbox::new();
        rip.on_timer(RipProcess::timeout_token(DEST), &mut out);
        assert!(rip.route(DEST).unwrap().garbage);
        assert_eq!(rip.route(DEST).unwrap().metric, INFINITY);
        // GC fires.
        let mut out = Outbox::new();
        rip.on_timer(RipProcess::gc_token(DEST), &mut out);
        assert!(rip.route(DEST).is_none());
    }

    #[test]
    fn infinity_announcement_from_gateway_poisons() {
        let cfg = RipConfig::emulation(RefreshMode::DestinationAndNextHop);
        let mut rip = RipProcess::new(NodeId(0), vec![NodeId(1)], cfg);
        let mut out = Outbox::new();
        rip.on_message(NodeId(1), &RipAnnouncement { entries: vec![(DEST, 1)] }, &mut out);
        let mut out = Outbox::new();
        rip.on_message(NodeId(1), &RipAnnouncement { entries: vec![(DEST, INFINITY)] }, &mut out);
        assert!(rip.route(DEST).unwrap().garbage);
    }

    #[test]
    fn better_metric_switches_gateway() {
        let cfg = RipConfig::emulation(RefreshMode::DestinationAndNextHop);
        let mut rip = RipProcess::new(NodeId(0), vec![NodeId(1), NodeId(2)], cfg);
        let mut out = Outbox::new();
        rip.on_message(NodeId(1), &RipAnnouncement { entries: vec![(DEST, 5)] }, &mut out);
        assert_eq!(rip.route(DEST).unwrap().metric, 6);
        let mut out = Outbox::new();
        rip.on_message(NodeId(2), &RipAnnouncement { entries: vec![(DEST, 2)] }, &mut out);
        let r = rip.route(DEST).unwrap();
        assert_eq!(r.metric, 3);
        assert_eq!(r.next_hop, Some(NodeId(2)));
    }

    #[test]
    fn worse_metric_from_other_gateway_ignored_in_correct_mode() {
        let cfg = RipConfig::emulation(RefreshMode::DestinationAndNextHop);
        let mut rip = RipProcess::new(NodeId(0), vec![NodeId(1), NodeId(2)], cfg);
        let mut out = Outbox::new();
        rip.on_message(NodeId(1), &RipAnnouncement { entries: vec![(DEST, 2)] }, &mut out);
        let before = rip.refresh_count(DEST);
        let mut out = Outbox::new();
        rip.on_message(NodeId(2), &RipAnnouncement { entries: vec![(DEST, 2)] }, &mut out);
        assert_eq!(rip.route(DEST).unwrap().next_hop, Some(NodeId(1)));
        assert_eq!(rip.refresh_count(DEST), before, "no refresh from foreign gateway");
    }

    #[test]
    fn snapshot_round_trip_with_routes() {
        let cfg = RipConfig::emulation(RefreshMode::DestinationOnly);
        let mut rip = RipProcess::new(NodeId(0), vec![NodeId(1), NodeId(2)], cfg);
        let mut out = Outbox::new();
        rip.on_external(&RipExt::Connect { prefix: 5 }, &mut out);
        let mut out = Outbox::new();
        rip.on_message(NodeId(1), &RipAnnouncement { entries: vec![(DEST, 2)] }, &mut out);
        let mut buf = Vec::new();
        rip.encode(&mut buf);
        let back = RipProcess::decode(&buf).expect("decodes");
        assert_eq!(back.table(), rip.table());
        assert_eq!(back.refresh_count(DEST), rip.refresh_count(DEST));
        assert_eq!(back.digest(), rip.digest());
        assert!(RipProcess::decode(&[0]).is_none());
    }

    #[test]
    fn patch_in_place_changes_behaviour() {
        let cfg = RipConfig::emulation(RefreshMode::DestinationOnly);
        let mut rip = RipProcess::new(NodeId(0), vec![NodeId(1), NodeId(2)], cfg);
        let mut out = Outbox::new();
        rip.on_message(NodeId(1), &RipAnnouncement { entries: vec![(DEST, 2)] }, &mut out);
        let mut out = Outbox::new();
        rip.on_message(NodeId(2), &RipAnnouncement { entries: vec![(DEST, 2)] }, &mut out);
        let buggy_refreshes = rip.refresh_count(DEST);
        assert_eq!(buggy_refreshes, 2, "bug refreshes on the foreign announcement");
        rip.set_refresh_mode(RefreshMode::DestinationAndNextHop);
        let mut out = Outbox::new();
        rip.on_message(NodeId(2), &RipAnnouncement { entries: vec![(DEST, 2)] }, &mut out);
        assert_eq!(rip.refresh_count(DEST), buggy_refreshes, "patched: no refresh");
    }
}
