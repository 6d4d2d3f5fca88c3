//! A link-state routing protocol modelled on the XORP OSPF daemon used in the
//! paper's evaluation (§5.1).
//!
//! Implemented behaviour:
//!
//! * periodic hellos with a dead interval for neighbour liveness (the paper
//!   stresses its runs by shrinking hello/retransmit intervals to 1 s);
//! * router-LSA origination on adjacency change, sequence-numbered flooding
//!   with explicit acks and periodic retransmission of unacked LSAs;
//! * full LSDB exchange when an adjacency forms (standing in for OSPF's
//!   database-description handshake);
//! * Dijkstra SPF over bidirectionally-confirmed links, with the same
//!   deterministic tie-break as [`topology::Graph::shortest_paths`], so
//!   converged tables can be compared against ground truth exactly;
//! * the 1-second flood-delay behaviour of XORP's default configuration:
//!   with [`OspfConfig::immediate_flood`] `false`, received LSAs are queued
//!   and propagated on the next retransmit-timer firing, which is the delay
//!   the authors removed to make DEFINED's overheads visible (§5.2).

use crate::enc::{put_u32, put_u64, put_u8, Reader};
use crate::{ControlPlane, Outbox, Snapshotable, TimerToken};
use netsim::{NodeId, SimDuration};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{RwLock, RwLockReadGuard};
use topology::{Graph, TopoMask};

/// Timer token tags (upper nibble of the token value).
const TOK_HELLO: u64 = 1 << 60;
const TOK_RXMT: u64 = 2 << 60;
const TOK_DEAD: u64 = 3 << 60;

/// Static OSPF configuration.
#[derive(Clone, Copy, Debug)]
pub struct OspfConfig {
    /// Total number of routers in the area (bounds SPF).
    pub n_nodes: usize,
    /// Hello interval in virtual-time ticks (4 ticks = 1 s at 250 ms/tick,
    /// the paper's stress setting).
    pub hello_ticks: u64,
    /// Dead interval in ticks; a neighbour is declared down after this much
    /// hello silence.
    pub dead_ticks: u64,
    /// Retransmit interval in ticks; also the flood-delay period when
    /// `immediate_flood` is off.
    pub rxmt_ticks: u64,
    /// When `false`, LSAs learned from a neighbour are queued and flooded on
    /// the next retransmit tick (XORP's default 1 s propagation delay); when
    /// `true`, they are flooded on receipt (the authors' modification).
    pub immediate_flood: bool,
}

impl OspfConfig {
    /// The paper's stress configuration: 1 s hello, 4 s dead, 1 s retransmit,
    /// flood delay removed.
    pub fn stress(n_nodes: usize) -> Self {
        OspfConfig {
            n_nodes,
            hello_ticks: 4,
            dead_ticks: 16,
            rxmt_ticks: 4,
            immediate_flood: true,
        }
    }

    /// XORP-like defaults: same intervals but with the 1 s flood delay.
    pub fn xorp_default(n_nodes: usize) -> Self {
        OspfConfig { immediate_flood: false, ..OspfConfig::stress(n_nodes) }
    }
}

/// One configured point-to-point interface.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interface {
    /// Neighbour router on this interface.
    pub peer: NodeId,
    /// Link cost; by convention the link's propagation delay in nanoseconds,
    /// so SPF results are comparable with [`topology::Graph`] ground truth.
    pub cost: u64,
}

/// A router LSA: the originator's current adjacencies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Lsa {
    /// Originating router.
    pub origin: NodeId,
    /// Strictly increasing per-origin sequence number.
    pub seq: u64,
    /// Up adjacencies `(peer, cost)`, sorted by peer.
    pub links: Vec<(NodeId, u64)>,
}

/// OSPF wire messages.
#[derive(Clone, Debug, PartialEq)]
pub enum OspfMsg {
    /// Liveness probe.
    Hello,
    /// Flooded link-state advertisement.
    Lsa(Lsa),
    /// Acknowledgement of an LSA.
    Ack {
        /// Origin of the acknowledged LSA.
        origin: NodeId,
        /// Sequence number acknowledged.
        seq: u64,
    },
}

/// The OSPF control plane for one router.
#[derive(Debug)]
pub struct OspfProcess {
    id: NodeId,
    cfg: OspfConfig,
    interfaces: Vec<Interface>,
    /// Adjacency state per neighbour.
    nbr_up: BTreeMap<NodeId, bool>,
    /// Installed LSAs by origin.
    lsdb: BTreeMap<NodeId, Lsa>,
    my_seq: u64,
    /// LSAs awaiting flood when `immediate_flood` is off: `(exclude, lsa)`.
    pending_flood: Vec<(NodeId, Lsa)>,
    /// Unacknowledged floods: `(peer, origin) → lsa`.
    unacked: BTreeMap<(NodeId, NodeId), Lsa>,
    /// Computed routing table: destination → first hop. Derived lazily from
    /// the LSDB: installs only mark it dirty, and SPF runs when the table is
    /// actually read (or the state is snapshotted). Under rollback-heavy
    /// replay most LSA deliveries are re-executions whose table is never
    /// consulted, so deferring Dijkstra takes it off the redelivery path
    /// entirely. Interior-mutable (and `Sync`, for the replay farm) so reads
    /// can recompute from `&self`; concurrent forcings race benignly because
    /// the table is a pure function of the LSDB.
    table: RwLock<BTreeMap<NodeId, NodeId>>,
    /// Whether the LSDB changed since `table` was last computed.
    table_dirty: AtomicBool,
    /// Count of adjacency-loss detections (dead-interval expiries); lets the
    /// harness timestamp failure detection.
    detections: u64,
}

impl Clone for OspfProcess {
    fn clone(&self) -> Self {
        OspfProcess {
            id: self.id,
            cfg: self.cfg,
            interfaces: self.interfaces.clone(),
            nbr_up: self.nbr_up.clone(),
            lsdb: self.lsdb.clone(),
            my_seq: self.my_seq,
            pending_flood: self.pending_flood.clone(),
            unacked: self.unacked.clone(),
            table: RwLock::new(self.table.read().expect("spf lock").clone()),
            table_dirty: AtomicBool::new(self.table_dirty.load(Ordering::Acquire)),
            detections: self.detections,
        }
    }
}

impl OspfProcess {
    /// Creates a router with the given interfaces (sorted internally).
    pub fn new(id: NodeId, mut interfaces: Vec<Interface>, cfg: OspfConfig) -> Self {
        interfaces.sort_by_key(|i| i.peer);
        let nbr_up = interfaces.iter().map(|i| (i.peer, false)).collect();
        OspfProcess {
            id,
            cfg,
            interfaces,
            nbr_up,
            lsdb: BTreeMap::new(),
            my_seq: 0,
            pending_flood: Vec::new(),
            unacked: BTreeMap::new(),
            table: RwLock::new(BTreeMap::new()),
            table_dirty: AtomicBool::new(false),
            detections: 0,
        }
    }

    /// Convenience: builds one process per node of `g`, with costs equal to
    /// edge delays in nanoseconds.
    pub fn for_graph(g: &Graph, cfg: OspfConfig) -> impl Fn(NodeId) -> OspfProcess + '_ {
        move |id| {
            let interfaces = g
                .neighbors(id)
                .into_iter()
                .map(|peer| Interface { peer, cost: g.edge_delay(id, peer).unwrap().0 })
                .collect();
            OspfProcess::new(id, interfaces, cfg)
        }
    }

    /// The current routing table (destination → deterministic first hop).
    /// Runs SPF first if the LSDB changed since the last computation, so the
    /// result is always identical to an eager implementation's.
    pub fn routing_table(&self) -> RwLockReadGuard<'_, BTreeMap<NodeId, NodeId>> {
        self.spf_if_dirty();
        self.table.read().expect("spf lock")
    }

    /// Neighbours currently considered up.
    pub fn up_neighbors(&self) -> Vec<NodeId> {
        self.nbr_up.iter().filter(|&(_, &up)| up).map(|(&p, _)| p).collect()
    }

    /// Number of dead-interval detections so far.
    pub fn detections(&self) -> u64 {
        self.detections
    }

    /// The installed LSA for `origin`, if any.
    pub fn lsa(&self, origin: NodeId) -> Option<&Lsa> {
        self.lsdb.get(&origin)
    }

    /// The ground-truth table this router *should* converge to given the
    /// physical graph and failure mask.
    pub fn expected_table(g: &Graph, mask: &TopoMask, src: NodeId) -> BTreeMap<NodeId, NodeId> {
        let info = g.shortest_paths(src, mask);
        let mut t = BTreeMap::new();
        for dst in 0..g.node_count() {
            if dst == src.index() {
                continue;
            }
            if let Some(h) = info.first_hop[dst] {
                t.insert(NodeId(dst as u32), h);
            }
        }
        t
    }

    fn cost_to(&self, peer: NodeId) -> Option<u64> {
        self.interfaces.iter().find(|i| i.peer == peer).map(|i| i.cost)
    }

    fn originate(&mut self, out: &mut Outbox<OspfMsg>) {
        self.my_seq += 1;
        let links: Vec<(NodeId, u64)> = self
            .interfaces
            .iter()
            .filter(|i| *self.nbr_up.get(&i.peer).unwrap_or(&false))
            .map(|i| (i.peer, i.cost))
            .collect();
        let lsa = Lsa { origin: self.id, seq: self.my_seq, links };
        self.lsdb.insert(self.id, lsa.clone());
        self.flood(lsa, None, out);
        self.table_dirty.store(true, Ordering::Release);
    }

    /// Floods `lsa` to all up neighbours except `exclude`, honouring the
    /// flood-delay configuration and registering retransmission state.
    fn flood(&mut self, lsa: Lsa, exclude: Option<NodeId>, out: &mut Outbox<OspfMsg>) {
        if self.cfg.immediate_flood {
            for i in 0..self.interfaces.len() {
                let peer = self.interfaces[i].peer;
                if Some(peer) == exclude || !self.nbr_up[&peer] {
                    continue;
                }
                self.unacked.insert((peer, lsa.origin), lsa.clone());
                out.send(peer, OspfMsg::Lsa(lsa.clone()));
            }
        } else {
            self.pending_flood.push((exclude.unwrap_or(NodeId(u32::MAX)), lsa));
        }
    }

    /// Sends queued floods (flood-delay mode) and retransmits unacked LSAs.
    fn flush_and_retransmit(&mut self, out: &mut Outbox<OspfMsg>) {
        let pending = std::mem::take(&mut self.pending_flood);
        for (exclude, lsa) in pending {
            for i in 0..self.interfaces.len() {
                let peer = self.interfaces[i].peer;
                if peer == exclude || !self.nbr_up[&peer] {
                    continue;
                }
                self.unacked.insert((peer, lsa.origin), lsa.clone());
                out.send(peer, OspfMsg::Lsa(lsa.clone()));
            }
        }
        // Retransmit whatever is still unacked (skip entries queued this
        // very tick would be a refinement; one duplicate is harmless).
        for ((peer, _origin), lsa) in self.unacked.iter() {
            if self.nbr_up[peer] {
                out.send(*peer, OspfMsg::Lsa(lsa.clone()));
            }
        }
    }

    /// Recomputes the routing table from the LSDB if it is stale. The table
    /// is a pure function of the LSDB, so running this at read time (rather
    /// than on every install) is observationally identical.
    fn spf_if_dirty(&self) {
        if !self.table_dirty.load(Ordering::Acquire) {
            return;
        }
        let mut table = self.table.write().expect("spf lock");
        if !self.table_dirty.load(Ordering::Acquire) {
            return; // Another reader recomputed while we waited.
        }
        let mut g = Graph::new(self.cfg.n_nodes);
        for (origin, lsa) in &self.lsdb {
            for &(peer, cost) in &lsa.links {
                if peer.index() >= self.cfg.n_nodes {
                    continue;
                }
                // Only bidirectionally-confirmed links enter SPF.
                let confirmed = self
                    .lsdb
                    .get(&peer)
                    .map(|pl| pl.links.iter().any(|&(q, _)| q == *origin))
                    .unwrap_or(false);
                if confirmed {
                    g.add_edge(*origin, peer, SimDuration(cost));
                }
            }
        }
        *table = Self::expected_table(&g, &TopoMask::default(), self.id);
        self.table_dirty.store(false, Ordering::Release);
    }

    fn adjacency_up(&mut self, peer: NodeId, out: &mut Outbox<OspfMsg>) {
        self.nbr_up.insert(peer, true);
        // Database exchange: push our entire LSDB at the new neighbour.
        let snapshot: Vec<Lsa> = self.lsdb.values().cloned().collect();
        for lsa in snapshot {
            if lsa.origin == self.id {
                continue; // The fresh self-LSA below covers it.
            }
            self.unacked.insert((peer, lsa.origin), lsa.clone());
            out.send(peer, OspfMsg::Lsa(lsa));
        }
        self.originate(out);
    }
}

impl ControlPlane for OspfProcess {
    type Msg = OspfMsg;
    type Ext = ();

    fn on_start(&mut self, out: &mut Outbox<OspfMsg>) {
        for i in &self.interfaces {
            out.send(i.peer, OspfMsg::Hello);
        }
        out.arm(TimerToken(TOK_HELLO), self.cfg.hello_ticks);
        out.arm(TimerToken(TOK_RXMT), self.cfg.rxmt_ticks);
        self.originate(out);
    }

    fn on_message(&mut self, from: NodeId, msg: &OspfMsg, out: &mut Outbox<OspfMsg>) {
        match msg {
            OspfMsg::Hello => {
                if self.cost_to(from).is_none() {
                    return; // Not a configured interface.
                }
                if !self.nbr_up[&from] {
                    self.adjacency_up(from, out);
                }
                out.arm(TimerToken(TOK_DEAD | from.0 as u64), self.cfg.dead_ticks);
            }
            OspfMsg::Lsa(lsa) => {
                out.send(from, OspfMsg::Ack { origin: lsa.origin, seq: lsa.seq });
                let newer = self.lsdb.get(&lsa.origin).map(|cur| lsa.seq > cur.seq).unwrap_or(true);
                if newer {
                    self.lsdb.insert(lsa.origin, lsa.clone());
                    self.flood(lsa.clone(), Some(from), out);
                    self.table_dirty.store(true, Ordering::Release);
                }
            }
            OspfMsg::Ack { origin, seq } => {
                if let Some(stored) = self.unacked.get(&(from, *origin)) {
                    if stored.seq <= *seq {
                        self.unacked.remove(&(from, *origin));
                    }
                }
            }
        }
    }

    fn on_external(&mut self, _ev: &(), _out: &mut Outbox<OspfMsg>) {}

    fn on_timer(&mut self, token: TimerToken, out: &mut Outbox<OspfMsg>) {
        let tag = token.0 >> 60;
        if tag == TOK_HELLO >> 60 {
            for i in &self.interfaces {
                out.send(i.peer, OspfMsg::Hello);
            }
            out.arm(TimerToken(TOK_HELLO), self.cfg.hello_ticks);
        } else if tag == TOK_RXMT >> 60 {
            self.flush_and_retransmit(out);
            out.arm(TimerToken(TOK_RXMT), self.cfg.rxmt_ticks);
        } else if tag == TOK_DEAD >> 60 {
            let peer = NodeId((token.0 & 0xFFFF_FFFF) as u32);
            if self.nbr_up.get(&peer) == Some(&true) {
                self.nbr_up.insert(peer, false);
                self.detections += 1;
                // Drop retransmission state towards the dead neighbour.
                self.unacked.retain(|(p, _), _| *p != peer);
                self.originate(out);
            }
        }
    }
}

/// Appends an LSA — the one definition of its byte layout, shared by the
/// state codec below and the message wire codec.
#[inline] // runs per LSA inside the state codec's loops, as it did when private
pub fn put_lsa(buf: &mut Vec<u8>, lsa: &Lsa) {
    put_u32(buf, lsa.origin.0);
    put_u64(buf, lsa.seq);
    put_u64(buf, lsa.links.len() as u64);
    for &(p, c) in &lsa.links {
        put_u32(buf, p.0);
        put_u64(buf, c);
    }
}

/// Reads what [`put_lsa`] wrote.
pub fn get_lsa(r: &mut Reader<'_>) -> Option<Lsa> {
    let origin = NodeId(r.u32()?);
    let seq = r.u64()?;
    let n = r.len()?;
    let mut links = Vec::with_capacity(n);
    for _ in 0..n {
        let p = NodeId(r.u32()?);
        let c = r.u64()?;
        links.push((p, c));
    }
    Some(Lsa { origin, seq, links })
}

impl Snapshotable for OspfProcess {
    /// Everything but the routing table, which is a pure function of the
    /// LSDB encoded here: no SPF runs.
    fn encode_primary(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.id.0);
        put_u64(buf, self.cfg.n_nodes as u64);
        put_u64(buf, self.cfg.hello_ticks);
        put_u64(buf, self.cfg.dead_ticks);
        put_u64(buf, self.cfg.rxmt_ticks);
        put_u8(buf, self.cfg.immediate_flood as u8);
        put_u64(buf, self.interfaces.len() as u64);
        for i in &self.interfaces {
            put_u32(buf, i.peer.0);
            put_u64(buf, i.cost);
        }
        put_u64(buf, self.my_seq);
        put_u64(buf, self.detections);
        put_u64(buf, self.nbr_up.len() as u64);
        for (p, up) in &self.nbr_up {
            put_u32(buf, p.0);
            put_u8(buf, *up as u8);
        }
        put_u64(buf, self.lsdb.len() as u64);
        for lsa in self.lsdb.values() {
            put_lsa(buf, lsa);
        }
        put_u64(buf, self.pending_flood.len() as u64);
        for (ex, lsa) in &self.pending_flood {
            put_u32(buf, ex.0);
            put_lsa(buf, lsa);
        }
        put_u64(buf, self.unacked.len() as u64);
        for ((p, _o), lsa) in &self.unacked {
            put_u32(buf, p.0);
            put_lsa(buf, lsa);
        }
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        self.encode_primary(buf);
        // Force SPF before snapshotting so the encoding stays a pure
        // function of the LSDB regardless of when the table was last read.
        self.spf_if_dirty();
        let table = self.table.read().expect("spf lock");
        put_u64(buf, table.len() as u64);
        for (d, h) in table.iter() {
            put_u32(buf, d.0);
            put_u32(buf, h.0);
        }
    }

    /// A decoded process holds a computed table; a live one whose table
    /// awaits SPF does not.
    fn is_canonical(&self) -> bool {
        !self.table_dirty.load(Ordering::Acquire)
    }

    fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
        let id = NodeId(r.u32()?);
        let cfg = OspfConfig {
            n_nodes: r.u64()? as usize,
            hello_ticks: r.u64()?,
            dead_ticks: r.u64()?,
            rxmt_ticks: r.u64()?,
            immediate_flood: r.boolean()?,
        };
        let n_if = r.len()?;
        let mut interfaces = Vec::with_capacity(n_if);
        for _ in 0..n_if {
            let peer = NodeId(r.u32()?);
            let cost = r.u64()?;
            interfaces.push(Interface { peer, cost });
        }
        let my_seq = r.u64()?;
        let detections = r.u64()?;
        let n_nbr = r.len()?;
        let mut nbr_up = BTreeMap::new();
        for _ in 0..n_nbr {
            let p = NodeId(r.u32()?);
            let up = r.boolean()?;
            nbr_up.insert(p, up);
        }
        let n_lsdb = r.len()?;
        let mut lsdb = BTreeMap::new();
        for _ in 0..n_lsdb {
            let lsa = get_lsa(r)?;
            lsdb.insert(lsa.origin, lsa);
        }
        let n_pending = r.len()?;
        let mut pending_flood = Vec::with_capacity(n_pending);
        for _ in 0..n_pending {
            let ex = NodeId(r.u32()?);
            let lsa = get_lsa(r)?;
            pending_flood.push((ex, lsa));
        }
        let n_unacked = r.len()?;
        let mut unacked = BTreeMap::new();
        for _ in 0..n_unacked {
            let p = NodeId(r.u32()?);
            let lsa = get_lsa(r)?;
            unacked.insert((p, lsa.origin), lsa);
        }
        let n_table = r.len()?;
        let mut table = BTreeMap::new();
        for _ in 0..n_table {
            let d = NodeId(r.u32()?);
            let h = NodeId(r.u32()?);
            table.insert(d, h);
        }
        Some(OspfProcess {
            id,
            cfg,
            interfaces,
            nbr_up,
            lsdb,
            my_seq,
            pending_flood,
            unacked,
            // The encoded table was clean at capture time, so a decoded
            // process re-encodes to the same bytes without re-running SPF.
            table: RwLock::new(table),
            table_dirty: AtomicBool::new(false),
            detections,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NativeAdapter;
    use netsim::{JitterModel, LinkParams, SimBuilder, SimTime, Simulator};
    use topology::canonical;

    const TICK: SimDuration = SimDuration(250_000_000);

    fn build_sim(
        g: &Graph,
        cfg: OspfConfig,
        seed: u64,
        jitter: f64,
    ) -> Simulator<NativeAdapter<OspfProcess>> {
        let links = g.to_links(|e| {
            LinkParams::with_delay(e.delay).jitter(JitterModel::Uniform { frac: jitter })
        });
        let spawn = OspfProcess::for_graph(g, cfg);
        let spawn_owned: Vec<OspfProcess> =
            (0..g.node_count()).map(|i| spawn(NodeId(i as u32))).collect();
        SimBuilder::new(g.node_count()).links(links).build(seed, move |id| {
            NativeAdapter::new(spawn_owned[id.index()].clone(), TICK)
        })
    }

    fn converged(sim: &Simulator<NativeAdapter<OspfProcess>>, g: &Graph, mask: &TopoMask) -> bool {
        (0..g.node_count()).all(|i| {
            let src = NodeId(i as u32);
            if mask.nodes_down.contains(&src) {
                return true;
            }
            let expected = OspfProcess::expected_table(g, mask, src);
            *sim.process(src).control_plane().routing_table() == expected
        })
    }

    #[test]
    fn pair_converges() {
        let g = canonical::line(2, SimDuration::from_millis(5));
        let mut sim = build_sim(&g, OspfConfig::stress(2), 1, 0.0);
        sim.run_until(SimTime::from_secs(10));
        assert!(converged(&sim, &g, &TopoMask::default()));
    }

    #[test]
    fn ring_converges_to_ground_truth() {
        let g = canonical::ring(6, SimDuration::from_millis(3));
        let mut sim = build_sim(&g, OspfConfig::stress(6), 2, 0.2);
        sim.run_until(SimTime::from_secs(20));
        assert!(converged(&sim, &g, &TopoMask::default()));
    }

    #[test]
    fn grid_converges_with_jitter() {
        let g = canonical::grid(3, 3, SimDuration::from_millis(2));
        let mut sim = build_sim(&g, OspfConfig::stress(9), 3, 0.5);
        sim.run_until(SimTime::from_secs(30));
        assert!(converged(&sim, &g, &TopoMask::default()));
    }

    #[test]
    fn link_failure_detected_and_rerouted() {
        let g = canonical::ring(5, SimDuration::from_millis(2));
        let mut sim = build_sim(&g, OspfConfig::stress(5), 4, 0.2);
        sim.run_until(SimTime::from_secs(20));
        assert!(converged(&sim, &g, &TopoMask::default()));
        // Fail link 0-1 and wait out dead interval + reconvergence.
        sim.schedule_link_admin(SimTime::from_secs(20), NodeId(0), NodeId(1), false);
        sim.run_until(SimTime::from_secs(40));
        let mut mask = TopoMask::default();
        mask.link_down(NodeId(0), NodeId(1));
        assert!(converged(&sim, &g, &mask));
        assert!(sim.process(NodeId(0)).control_plane().detections() >= 1);
        assert!(sim.process(NodeId(1)).control_plane().detections() >= 1);
    }

    #[test]
    fn link_recovery_reconverges() {
        let g = canonical::ring(4, SimDuration::from_millis(2));
        let mut sim = build_sim(&g, OspfConfig::stress(4), 5, 0.2);
        sim.schedule_link_admin(SimTime::from_secs(15), NodeId(0), NodeId(1), false);
        sim.schedule_link_admin(SimTime::from_secs(30), NodeId(0), NodeId(1), true);
        sim.run_until(SimTime::from_secs(50));
        assert!(converged(&sim, &g, &TopoMask::default()));
    }

    #[test]
    fn flood_delay_slows_convergence() {
        let g = canonical::line(6, SimDuration::from_millis(2));
        let deadline = SimTime::from_secs(300);

        let time_to_converge = |cfg: OspfConfig| -> f64 {
            let mut sim = build_sim(&g, cfg, 6, 0.0);
            let mut when = None;
            sim.run_while(deadline, |s| {
                if converged(s, &g, &TopoMask::default()) {
                    when = Some(s.now());
                    false
                } else {
                    true
                }
            });
            when.expect("must converge").as_secs_f64()
        };

        let fast = time_to_converge(OspfConfig::stress(6));
        let slow = time_to_converge(OspfConfig::xorp_default(6));
        assert!(
            slow > fast + 0.5,
            "flood delay should slow convergence: fast={fast:.3}s slow={slow:.3}s"
        );
    }

    #[test]
    fn same_seed_same_tables() {
        let g = canonical::grid(2, 3, SimDuration::from_millis(2));
        let run = |seed| {
            let mut sim = build_sim(&g, OspfConfig::stress(6), seed, 0.5);
            sim.run_until(SimTime::from_secs(20));
            (0..6)
                .map(|i| sim.process(NodeId(i)).control_plane().routing_table().clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn expected_table_excludes_self_and_unreachable() {
        let g = canonical::line(3, SimDuration::from_millis(1));
        let mut mask = TopoMask::default();
        mask.link_down(NodeId(1), NodeId(2));
        let t = OspfProcess::expected_table(&g, &mask, NodeId(0));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&NodeId(1)), Some(&NodeId(1)));
    }

    #[test]
    fn snapshot_round_trip_after_convergence() {
        let g = canonical::ring(5, SimDuration::from_millis(2));
        let mut sim = build_sim(&g, OspfConfig::stress(5), 8, 0.3);
        sim.run_until(SimTime::from_secs(15));
        for i in 0..5 {
            let cp = sim.process(NodeId(i)).control_plane();
            let mut buf = Vec::new();
            cp.encode(&mut buf);
            let back = OspfProcess::decode(&buf).expect("decodes");
            let mut buf2 = Vec::new();
            back.encode(&mut buf2);
            assert_eq!(buf, buf2, "node {i} round trip");
            assert_eq!(cp.digest(), back.digest());
            assert_eq!(*cp.routing_table(), *back.routing_table());
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(OspfProcess::decode(&[1, 2, 3]).is_none());
        assert!(OspfProcess::decode(&[]).is_none());
    }

    #[test]
    fn digest_changes_with_state() {
        let g = canonical::line(2, SimDuration::from_millis(1));
        let cfg = OspfConfig::stress(2);
        let spawn = OspfProcess::for_graph(&g, cfg);
        let a = spawn(NodeId(0));
        let mut b = spawn(NodeId(0));
        assert_eq!(a.digest(), b.digest());
        let mut out = Outbox::new();
        b.on_start(&mut out);
        assert_ne!(a.digest(), b.digest());
    }
}
