//! A BGP-like path-vector control plane reproducing the XORP 0.4 path
//! selection bug (paper §4, Figure 4).
//!
//! The decision process applies three of BGP's rules: shortest AS-path
//! length, then lowest MED *within each neighbouring-AS group*, then lowest
//! IGP distance. Because MED is only compared within a group, the induced
//! pairwise preference is non-transitive, so a correct implementation must
//! re-evaluate **all** candidate paths on every change. XORP 0.4 instead
//! compared each incoming path only against the current best
//! ([`DecisionMode::BuggyIncremental`]), making the selected route depend on
//! message arrival order — the ordering bug DEFINED reproduces
//! deterministically.
//!
//! Topology model: external routers (role [`Role::External`]) receive
//! announcements as external inputs and push them over eBGP to their border
//! router; borders redistribute every eBGP-learned path to all iBGP peers
//! (add-path semantics, so the studied router sees every candidate); every
//! router runs the decision process over its Adj-RIB-In.

use crate::enc::{put_u16, put_u32, put_u64, put_u8, Reader};
use crate::{ControlPlane, Outbox, Snapshotable, TimerToken};
use netsim::NodeId;
use std::collections::BTreeMap;

/// A route prefix (opaque identifier; one u32 per destination network).
pub type Prefix = u32;

/// BGP path attributes relevant to the studied decision rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathAttrs {
    /// Unique id of this path (used for deterministic final tie-breaks and
    /// withdraws).
    pub route_id: u32,
    /// Length of the AS path.
    pub as_path_len: u8,
    /// The neighbouring AS the path was learned from.
    pub neighbor_as: u16,
    /// Multi-exit discriminator, compared only within a neighbour-AS group.
    pub med: u32,
    /// IGP distance to the exit point.
    pub igp_dist: u32,
}

/// BGP wire messages.
#[derive(Clone, Debug, PartialEq)]
pub enum BgpMsg {
    /// Announce a path for a prefix.
    Update {
        /// Destination prefix.
        prefix: Prefix,
        /// Path attributes.
        attrs: PathAttrs,
    },
    /// Withdraw a previously announced path.
    Withdraw {
        /// Destination prefix.
        prefix: Prefix,
        /// The `route_id` of the withdrawn path.
        route_id: u32,
    },
}

/// External inputs delivered to [`Role::External`] routers.
#[derive(Clone, Debug, PartialEq)]
pub enum BgpExt {
    /// Start announcing a path.
    Announce {
        /// Destination prefix.
        prefix: Prefix,
        /// Path attributes.
        attrs: PathAttrs,
    },
    /// Stop announcing it.
    Withdraw {
        /// Destination prefix.
        prefix: Prefix,
        /// The `route_id` to retract.
        route_id: u32,
    },
}

/// How the decision process is executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecisionMode {
    /// Re-evaluate all candidate paths on every change (post-fix behaviour).
    CorrectFull,
    /// XORP 0.4: compare the incoming path only against the current best.
    BuggyIncremental,
}

/// RFC 2439-style route flap damping, scaled to virtual-time ticks.
///
/// The paper's §3 uses exactly this algorithm to motivate running protocols
/// in a virtual time that "progresses at a rate similar to real wall-clock
/// time": a damped route must be held down for a similar duration whether
/// the daemon runs uninstrumented or under DEFINED. The integration tests
/// measure that fidelity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DampingConfig {
    /// Penalty added when a known path flaps (is withdrawn).
    pub penalty_per_flap: u32,
    /// Suppress the path once its penalty exceeds this.
    pub suppress_threshold: u32,
    /// Reuse the path once decay brings the penalty below this.
    pub reuse_threshold: u32,
    /// Per-tick exponential decay: `penalty -= penalty >> decay_shift`
    /// (integer-only so checkpointed state stays bit-stable).
    pub decay_shift: u8,
}

impl DampingConfig {
    /// Emulation-scale parameters: three quick flaps suppress; the penalty
    /// half-life is ~5.2 ticks (1.3 s at 250 ms beacons).
    pub fn emulation() -> Self {
        DampingConfig {
            penalty_per_flap: 1000,
            suppress_threshold: 2500,
            reuse_threshold: 800,
            decay_shift: 3,
        }
    }

    /// Half-life of the penalty decay, in ticks.
    pub fn half_life_ticks(&self) -> f64 {
        let keep = 1.0 - (1.0 / f64::from(1u32 << self.decay_shift));
        (0.5f64).ln() / keep.ln()
    }
}

/// Damping state of one `(prefix, route_id)` path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct DampState {
    /// Accumulated flap penalty (decays every tick).
    pub penalty: u32,
    /// Whether the path is currently suppressed (excluded from decision).
    pub suppressed: bool,
}

/// Timer token for the per-tick damping decay.
const TOK_DAMP: TimerToken = TimerToken(0xDA << 56);

/// The function a router performs in the Figure 4 scenario.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Role {
    /// An external router of a neighbouring AS, homed onto one border router.
    External {
        /// The border router it peers with.
        border: NodeId,
    },
    /// A border/internal router of the AS under study, iBGP-meshed with
    /// `ibgp_peers`.
    Internal {
        /// All other routers of the AS.
        ibgp_peers: Vec<NodeId>,
    },
}

/// The BGP control plane for one router.
#[derive(Clone, Debug)]
pub struct BgpProcess {
    id: NodeId,
    role: Role,
    mode: DecisionMode,
    /// Candidate paths per prefix, in arrival order (arrival order is what
    /// the buggy mode is sensitive to).
    rib_in: BTreeMap<Prefix, Vec<PathAttrs>>,
    /// Selected best path per prefix.
    best: BTreeMap<Prefix, PathAttrs>,
    /// Decision-process invocations (exposed for the case study's stepping).
    decisions: u64,
    /// Flap damping, if enabled.
    damping: Option<DampingConfig>,
    /// Per-path damping state.
    damp: BTreeMap<(Prefix, u32), DampState>,
}

/// Pairwise preference used by both modes: `true` if `a` beats `b`.
///
/// MED is compared only when both paths come from the same neighbouring AS —
/// exactly the rule that makes the relation non-transitive.
pub fn pairwise_better(a: &PathAttrs, b: &PathAttrs) -> bool {
    if a.as_path_len != b.as_path_len {
        return a.as_path_len < b.as_path_len;
    }
    if a.neighbor_as == b.neighbor_as && a.med != b.med {
        return a.med < b.med;
    }
    if a.igp_dist != b.igp_dist {
        return a.igp_dist < b.igp_dist;
    }
    a.route_id < b.route_id
}

/// The correct, full decision process over a candidate set.
///
/// Returns `None` for an empty set. Implements: shortest AS path; then
/// per-neighbour-AS MED elimination; then lowest IGP distance; then lowest
/// route id.
pub fn full_decision(candidates: &[PathAttrs]) -> Option<PathAttrs> {
    if candidates.is_empty() {
        return None;
    }
    let min_len = candidates.iter().map(|p| p.as_path_len).min().unwrap();
    let shortlist: Vec<&PathAttrs> =
        candidates.iter().filter(|p| p.as_path_len == min_len).collect();
    // Per-neighbour-AS MED elimination.
    let mut med_best: BTreeMap<u16, &PathAttrs> = BTreeMap::new();
    for p in &shortlist {
        med_best
            .entry(p.neighbor_as)
            .and_modify(|cur| {
                if (p.med, p.route_id) < (cur.med, cur.route_id) {
                    *cur = p;
                }
            })
            .or_insert(p);
    }
    med_best
        .values()
        .copied()
        .min_by_key(|p| (p.igp_dist, p.route_id))
        .copied()
}

impl BgpProcess {
    /// Creates a router with the given role and decision mode.
    pub fn new(id: NodeId, role: Role, mode: DecisionMode) -> Self {
        BgpProcess {
            id,
            role,
            mode,
            rib_in: BTreeMap::new(),
            best: BTreeMap::new(),
            decisions: 0,
            damping: None,
            damp: BTreeMap::new(),
        }
    }

    /// Enables route flap damping.
    pub fn with_damping(mut self, cfg: DampingConfig) -> Self {
        self.damping = Some(cfg);
        self
    }

    /// The damping state of a path, if damping is enabled and the path has
    /// flapped.
    pub fn damp_state(&self, prefix: Prefix, route_id: u32) -> Option<DampState> {
        self.damp.get(&(prefix, route_id)).copied()
    }

    /// Whether a path is currently suppressed by damping.
    pub fn is_suppressed(&self, prefix: Prefix, route_id: u32) -> bool {
        self.damp
            .get(&(prefix, route_id))
            .map(|s| s.suppressed)
            .unwrap_or(false)
    }

    /// Candidates of `prefix` that damping currently allows into the
    /// decision process.
    fn usable(&self, prefix: Prefix) -> Vec<PathAttrs> {
        self.rib_in
            .get(&prefix)
            .map(|l| {
                l.iter()
                    .filter(|p| !self.is_suppressed(prefix, p.route_id))
                    .copied()
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The currently selected best path for `prefix`.
    pub fn best_path(&self, prefix: Prefix) -> Option<&PathAttrs> {
        self.best.get(&prefix)
    }

    /// All known candidates for `prefix`, in arrival order.
    pub fn candidates(&self, prefix: Prefix) -> &[PathAttrs] {
        self.rib_in.get(&prefix).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Times the decision process has run.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Switches decision mode in place — the case study's "install the
    /// patch" step, applied through the debugger.
    pub fn set_mode(&mut self, mode: DecisionMode) {
        self.mode = mode;
    }

    /// The configured decision mode.
    pub fn mode(&self) -> DecisionMode {
        self.mode
    }

    fn ingest(&mut self, prefix: Prefix, attrs: PathAttrs) {
        let list = self.rib_in.entry(prefix).or_default();
        if let Some(existing) = list.iter_mut().find(|p| p.route_id == attrs.route_id) {
            *existing = attrs;
        } else {
            list.push(attrs);
        }
        if self.is_suppressed(prefix, attrs.route_id) {
            // A re-announced but still-damped path sits in the Adj-RIB-In
            // without entering the decision until its reuse time.
            return;
        }
        self.decide_incoming(prefix, attrs);
    }

    fn decide_incoming(&mut self, prefix: Prefix, incoming: PathAttrs) {
        self.decisions += 1;
        match self.mode {
            DecisionMode::CorrectFull => {
                let all = self.usable(prefix);
                if let Some(b) = full_decision(&all) {
                    self.best.insert(prefix, b);
                }
            }
            DecisionMode::BuggyIncremental => {
                // The XORP 0.4 mistake: only the incoming path and the
                // current best are compared.
                match self.best.get(&prefix) {
                    None => {
                        self.best.insert(prefix, incoming);
                    }
                    Some(cur) => {
                        if pairwise_better(&incoming, cur) {
                            self.best.insert(prefix, incoming);
                        }
                    }
                }
            }
        }
    }

    fn withdraw(&mut self, prefix: Prefix, route_id: u32) {
        let was_known = self
            .rib_in
            .get(&prefix)
            .map(|l| l.iter().any(|p| p.route_id == route_id))
            .unwrap_or(false);
        if let Some(list) = self.rib_in.get_mut(&prefix) {
            list.retain(|p| p.route_id != route_id);
        }
        // Flap accounting: withdrawing a known path earns a penalty; past
        // the threshold the path is suppressed until the penalty decays.
        if was_known {
            if let Some(cfg) = self.damping {
                let st = self.damp.entry((prefix, route_id)).or_default();
                st.penalty = st.penalty.saturating_add(cfg.penalty_per_flap);
                if st.penalty >= cfg.suppress_threshold {
                    st.suppressed = true;
                }
            }
        }
        let was_best = self.best.get(&prefix).map(|b| b.route_id == route_id).unwrap_or(false);
        if was_best {
            self.best.remove(&prefix);
            self.decisions += 1;
            let remaining = self.usable(prefix);
            match self.mode {
                DecisionMode::CorrectFull => {
                    if let Some(b) = full_decision(&remaining) {
                        self.best.insert(prefix, b);
                    }
                }
                DecisionMode::BuggyIncremental => {
                    // Rescan pairwise in arrival order, mirroring the
                    // incremental implementation's re-selection.
                    let mut best: Option<PathAttrs> = None;
                    for p in remaining {
                        match &best {
                            None => best = Some(p),
                            Some(b) => {
                                if pairwise_better(&p, b) {
                                    best = Some(p);
                                }
                            }
                        }
                    }
                    if let Some(b) = best {
                        self.best.insert(prefix, b);
                    }
                }
            }
        }
    }
}

impl ControlPlane for BgpProcess {
    type Msg = BgpMsg;
    type Ext = BgpExt;

    fn on_start(&mut self, out: &mut Outbox<BgpMsg>) {
        if self.damping.is_some() {
            out.arm(TOK_DAMP, 1);
        }
    }

    fn on_message(&mut self, _from: NodeId, msg: &BgpMsg, out: &mut Outbox<BgpMsg>) {
        match (msg, self.role.clone()) {
            (BgpMsg::Update { prefix, attrs }, Role::Internal { ibgp_peers }) => {
                let known = self
                    .rib_in
                    .get(prefix)
                    .map(|l| l.iter().any(|p| p.route_id == attrs.route_id))
                    .unwrap_or(false);
                self.ingest(*prefix, *attrs);
                // Borders redistribute eBGP-learned paths to iBGP peers once
                // (add-path); iBGP-learned paths are not reflected.
                if !known && _from.index() != usize::MAX && !ibgp_peers.contains(&_from) {
                    for peer in &ibgp_peers {
                        out.send(*peer, BgpMsg::Update { prefix: *prefix, attrs: *attrs });
                    }
                }
            }
            (BgpMsg::Withdraw { prefix, route_id }, Role::Internal { ibgp_peers }) => {
                let known = self
                    .rib_in
                    .get(prefix)
                    .map(|l| l.iter().any(|p| p.route_id == *route_id))
                    .unwrap_or(false);
                self.withdraw(*prefix, *route_id);
                if known && !ibgp_peers.contains(&_from) {
                    for peer in &ibgp_peers {
                        out.send(*peer, BgpMsg::Withdraw { prefix: *prefix, route_id: *route_id });
                    }
                }
            }
            (_, Role::External { .. }) => {
                // External routers only originate; inbound updates ignored.
            }
        }
    }

    fn on_external(&mut self, ev: &BgpExt, out: &mut Outbox<BgpMsg>) {
        if let Role::External { border } = self.role {
            match ev {
                BgpExt::Announce { prefix, attrs } => {
                    out.send(border, BgpMsg::Update { prefix: *prefix, attrs: *attrs });
                }
                BgpExt::Withdraw { prefix, route_id } => {
                    out.send(border, BgpMsg::Withdraw { prefix: *prefix, route_id: *route_id });
                }
            }
        }
    }

    fn on_timer(&mut self, token: TimerToken, out: &mut Outbox<BgpMsg>) {
        if token != TOK_DAMP {
            return;
        }
        let Some(cfg) = self.damping else { return };
        // Decay every penalty; collect the paths whose reuse time arrived.
        let mut reused: Vec<(Prefix, u32)> = Vec::new();
        self.damp.retain(|&(prefix, route_id), st| {
            st.penalty -= st.penalty >> cfg.decay_shift;
            // The shift underestimates decay for tiny penalties; zero the
            // tail so entries are eventually dropped.
            if st.penalty < 16 {
                st.penalty = 0;
            }
            if st.suppressed && st.penalty <= cfg.reuse_threshold {
                st.suppressed = false;
                reused.push((prefix, route_id));
            }
            st.penalty > 0 || st.suppressed
        });
        // A reused path re-enters the decision as if it had just arrived.
        for (prefix, route_id) in reused {
            let cand = self
                .rib_in
                .get(&prefix)
                .and_then(|l| l.iter().find(|p| p.route_id == route_id))
                .copied();
            if let Some(p) = cand {
                self.decide_incoming(prefix, p);
            }
        }
        out.arm(TOK_DAMP, 1);
    }
}

/// Appends a path's attributes — the one definition of their byte layout,
/// shared by the state codec below and the message wire codec.
#[inline] // runs per path inside the state codec's loops, as it did when private
pub fn put_attrs(buf: &mut Vec<u8>, p: &PathAttrs) {
    put_u32(buf, p.route_id);
    put_u8(buf, p.as_path_len);
    put_u16(buf, p.neighbor_as);
    put_u32(buf, p.med);
    put_u32(buf, p.igp_dist);
}

/// Reads what [`put_attrs`] wrote.
pub fn get_attrs(r: &mut Reader<'_>) -> Option<PathAttrs> {
    Some(PathAttrs {
        route_id: r.u32()?,
        as_path_len: r.u8()?,
        neighbor_as: r.u16()?,
        med: r.u32()?,
        igp_dist: r.u32()?,
    })
}

impl Snapshotable for BgpProcess {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.id.0);
        match &self.role {
            Role::External { border } => {
                put_u8(buf, 0);
                put_u32(buf, border.0);
            }
            Role::Internal { ibgp_peers } => {
                put_u8(buf, 1);
                put_u64(buf, ibgp_peers.len() as u64);
                for p in ibgp_peers {
                    put_u32(buf, p.0);
                }
            }
        }
        put_u8(buf, matches!(self.mode, DecisionMode::BuggyIncremental) as u8);
        put_u64(buf, self.decisions);
        put_u64(buf, self.rib_in.len() as u64);
        for (prefix, list) in &self.rib_in {
            put_u32(buf, *prefix);
            put_u64(buf, list.len() as u64);
            for p in list {
                put_attrs(buf, p);
            }
        }
        put_u64(buf, self.best.len() as u64);
        for (prefix, p) in &self.best {
            put_u32(buf, *prefix);
            put_attrs(buf, p);
        }
        match &self.damping {
            None => put_u8(buf, 0),
            Some(cfg) => {
                put_u8(buf, 1);
                put_u32(buf, cfg.penalty_per_flap);
                put_u32(buf, cfg.suppress_threshold);
                put_u32(buf, cfg.reuse_threshold);
                put_u8(buf, cfg.decay_shift);
            }
        }
        put_u64(buf, self.damp.len() as u64);
        for (&(prefix, route_id), st) in &self.damp {
            put_u32(buf, prefix);
            put_u32(buf, route_id);
            put_u32(buf, st.penalty);
            put_u8(buf, st.suppressed as u8);
        }
    }

    fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
        let id = NodeId(r.u32()?);
        let role = match r.u8()? {
            0 => Role::External { border: NodeId(r.u32()?) },
            1 => {
                let n = r.len()?;
                let mut peers = Vec::with_capacity(n);
                for _ in 0..n {
                    peers.push(NodeId(r.u32()?));
                }
                Role::Internal { ibgp_peers: peers }
            }
            _ => return None,
        };
        let mode = if r.boolean()? {
            DecisionMode::BuggyIncremental
        } else {
            DecisionMode::CorrectFull
        };
        let decisions = r.u64()?;
        let n_rib = r.len()?;
        let mut rib_in = BTreeMap::new();
        for _ in 0..n_rib {
            let prefix = r.u32()?;
            let n = r.len()?;
            let mut list = Vec::with_capacity(n);
            for _ in 0..n {
                list.push(get_attrs(r)?);
            }
            rib_in.insert(prefix, list);
        }
        let n_best = r.len()?;
        let mut best = BTreeMap::new();
        for _ in 0..n_best {
            let prefix = r.u32()?;
            best.insert(prefix, get_attrs(r)?);
        }
        let damping = match r.u8()? {
            0 => None,
            1 => Some(DampingConfig {
                penalty_per_flap: r.u32()?,
                suppress_threshold: r.u32()?,
                reuse_threshold: r.u32()?,
                decay_shift: r.u8()?,
            }),
            _ => return None,
        };
        let n_damp = r.len()?;
        let mut damp = BTreeMap::new();
        for _ in 0..n_damp {
            let prefix = r.u32()?;
            let route_id = r.u32()?;
            let penalty = r.u32()?;
            let suppressed = r.boolean()?;
            damp.insert((prefix, route_id), DampState { penalty, suppressed });
        }
        Some(BgpProcess { id, role, mode, rib_in, best, decisions, damping, damp })
    }
}

/// The three paths of Figure 4: equal AS-path lengths; `p1`/`p2` share
/// neighbour AS 100; MEDs 10/5/20; IGP distances 10/30/20.
///
/// Correct full decision selects `p3`; the buggy incremental decision
/// selects `p2` when paths arrive in the order `p1, p3, p2`.
pub fn fig4_paths() -> [PathAttrs; 3] {
    [
        PathAttrs { route_id: 1, as_path_len: 3, neighbor_as: 100, med: 10, igp_dist: 10 },
        PathAttrs { route_id: 2, as_path_len: 3, neighbor_as: 100, med: 5, igp_dist: 30 },
        PathAttrs { route_id: 3, as_path_len: 3, neighbor_as: 200, med: 20, igp_dist: 20 },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_preferences_are_non_transitive() {
        let [p1, p2, p3] = fig4_paths();
        assert!(pairwise_better(&p2, &p1), "p2 beats p1 on MED");
        assert!(pairwise_better(&p3, &p2), "p3 beats p2 on IGP");
        assert!(pairwise_better(&p1, &p3), "p1 beats p3 on IGP");
    }

    #[test]
    fn full_decision_selects_p3_regardless_of_order() {
        let [p1, p2, p3] = fig4_paths();
        let orders = [
            [p1, p2, p3],
            [p1, p3, p2],
            [p2, p1, p3],
            [p2, p3, p1],
            [p3, p1, p2],
            [p3, p2, p1],
        ];
        for order in orders {
            assert_eq!(full_decision(&order).unwrap().route_id, 3, "order {order:?}");
        }
    }

    #[test]
    fn buggy_decision_depends_on_order() {
        let [p1, p2, p3] = fig4_paths();
        let run = |order: [PathAttrs; 3]| {
            let mut r =
                BgpProcess::new(NodeId(0), Role::Internal { ibgp_peers: vec![] }, DecisionMode::BuggyIncremental);
            for p in order {
                r.ingest(9, p);
            }
            r.best_path(9).unwrap().route_id
        };
        assert_eq!(run([p1, p2, p3]), 3, "lucky order still lands on p3");
        assert_eq!(run([p1, p3, p2]), 2, "the paper's buggy order selects p2");
    }

    #[test]
    fn withdraw_of_best_reselects() {
        let [p1, p2, p3] = fig4_paths();
        let mut r = BgpProcess::new(
            NodeId(0),
            Role::Internal { ibgp_peers: vec![] },
            DecisionMode::CorrectFull,
        );
        for p in [p1, p2, p3] {
            r.ingest(9, p);
        }
        assert_eq!(r.best_path(9).unwrap().route_id, 3);
        r.withdraw(9, 3);
        // Without p3, AS-100 MED elimination keeps p2; p2 vs nothing else.
        assert_eq!(r.best_path(9).unwrap().route_id, 2);
        r.withdraw(9, 2);
        assert_eq!(r.best_path(9).unwrap().route_id, 1);
        r.withdraw(9, 1);
        assert!(r.best_path(9).is_none());
    }

    #[test]
    fn withdraw_of_non_best_keeps_best() {
        let [p1, p2, p3] = fig4_paths();
        let mut r = BgpProcess::new(
            NodeId(0),
            Role::Internal { ibgp_peers: vec![] },
            DecisionMode::CorrectFull,
        );
        for p in [p1, p2, p3] {
            r.ingest(9, p);
        }
        r.withdraw(9, 1);
        assert_eq!(r.best_path(9).unwrap().route_id, 3);
    }

    #[test]
    fn update_replaces_same_route_id() {
        let [p1, _, _] = fig4_paths();
        let mut r = BgpProcess::new(
            NodeId(0),
            Role::Internal { ibgp_peers: vec![] },
            DecisionMode::CorrectFull,
        );
        r.ingest(9, p1);
        let better = PathAttrs { igp_dist: 1, ..p1 };
        r.ingest(9, better);
        assert_eq!(r.candidates(9).len(), 1);
        assert_eq!(r.best_path(9).unwrap().igp_dist, 1);
    }

    #[test]
    fn set_mode_patches_behaviour() {
        let [p1, p2, p3] = fig4_paths();
        let mut r = BgpProcess::new(
            NodeId(0),
            Role::Internal { ibgp_peers: vec![] },
            DecisionMode::BuggyIncremental,
        );
        for p in [p1, p3, p2] {
            r.ingest(9, p);
        }
        assert_eq!(r.best_path(9).unwrap().route_id, 2, "bug manifests");
        r.set_mode(DecisionMode::CorrectFull);
        assert_eq!(r.mode(), DecisionMode::CorrectFull);
        // Re-trigger the decision (as a new update would).
        r.ingest(9, p2);
        assert_eq!(r.best_path(9).unwrap().route_id, 3, "patched decision recovers");
    }

    #[test]
    fn snapshot_round_trip_both_roles() {
        let [p1, p2, p3] = fig4_paths();
        let mut internal = BgpProcess::new(
            NodeId(2),
            Role::Internal { ibgp_peers: vec![NodeId(0), NodeId(1)] },
            DecisionMode::BuggyIncremental,
        );
        for p in [p1, p3, p2] {
            internal.ingest(9, p);
        }
        let mut buf = Vec::new();
        internal.encode(&mut buf);
        let back = BgpProcess::decode(&buf).expect("decodes");
        assert_eq!(back.best_path(9), internal.best_path(9));
        assert_eq!(back.candidates(9), internal.candidates(9));
        assert_eq!(back.digest(), internal.digest());

        let external = BgpProcess::new(
            NodeId(3),
            Role::External { border: NodeId(0) },
            DecisionMode::CorrectFull,
        );
        let mut buf = Vec::new();
        external.encode(&mut buf);
        let back = BgpProcess::decode(&buf).expect("decodes");
        assert_eq!(back.digest(), external.digest());
        assert!(BgpProcess::decode(&[9, 9]).is_none());
    }

    fn flap(r: &mut BgpProcess, prefix: Prefix, attrs: PathAttrs) {
        r.withdraw(prefix, attrs.route_id);
        r.ingest(prefix, attrs);
    }

    fn tick(r: &mut BgpProcess) {
        let mut out = Outbox::new();
        r.on_timer(TOK_DAMP, &mut out);
    }

    #[test]
    fn damping_suppresses_after_repeated_flaps() {
        let [p1, _, p3] = fig4_paths();
        let mut r = BgpProcess::new(
            NodeId(0),
            Role::Internal { ibgp_peers: vec![] },
            DecisionMode::CorrectFull,
        )
        .with_damping(DampingConfig::emulation());
        r.ingest(9, p1);
        r.ingest(9, p3);
        // p1 wins on IGP distance while it behaves.
        assert_eq!(r.best_path(9).unwrap().route_id, 1);
        // Three quick flaps cross the suppress threshold (3 × 1000 ≥ 2500).
        flap(&mut r, 9, p1);
        assert!(!r.is_suppressed(9, 1), "one flap is tolerated");
        flap(&mut r, 9, p1);
        flap(&mut r, 9, p1);
        assert!(r.is_suppressed(9, 1));
        // The decision falls back to the stable alternative.
        assert_eq!(r.best_path(9).unwrap().route_id, 3);
        // The suppressed path sits in the RIB but not in the decision.
        assert_eq!(r.candidates(9).len(), 2);
    }

    #[test]
    fn damping_reuses_after_decay() {
        let cfg = DampingConfig::emulation();
        let [p1, _, p3] = fig4_paths();
        let mut r = BgpProcess::new(
            NodeId(0),
            Role::Internal { ibgp_peers: vec![] },
            DecisionMode::CorrectFull,
        )
        .with_damping(cfg);
        r.ingest(9, p1);
        r.ingest(9, p3);
        for _ in 0..3 {
            flap(&mut r, 9, p1);
        }
        assert!(r.is_suppressed(9, 1));
        assert_eq!(r.best_path(9).unwrap().route_id, 3);
        // Decay ticks until the reuse threshold clears; the path must come
        // back and win the decision again without any new announcement.
        let mut ticks = 0;
        while r.is_suppressed(9, 1) {
            tick(&mut r);
            ticks += 1;
            assert!(ticks < 100, "reuse must happen");
        }
        assert_eq!(r.best_path(9).unwrap().route_id, 1, "reused path wins again");
        // Penalty ~3000 must decay past reuse 800: ln(3000/800)/ln(8/7)
        // ≈ 9.9 ticks; allow the integer decay some slack.
        assert!((6..=16).contains(&ticks), "reuse after {ticks} ticks");
        // The damping state eventually evaporates entirely.
        for _ in 0..60 {
            tick(&mut r);
        }
        assert_eq!(r.damp_state(9, 1), None);
    }

    #[test]
    fn damping_half_life_estimate_matches_shift() {
        let cfg = DampingConfig::emulation();
        // decay_shift 3 → keep 7/8 per tick → half-life ≈ 5.19 ticks.
        assert!((cfg.half_life_ticks() - 5.19).abs() < 0.1);
    }

    #[test]
    fn suppressed_reannouncement_stays_out_of_decision() {
        let [p1, _, p3] = fig4_paths();
        let mut r = BgpProcess::new(
            NodeId(0),
            Role::Internal { ibgp_peers: vec![] },
            DecisionMode::CorrectFull,
        )
        .with_damping(DampingConfig::emulation());
        r.ingest(9, p3);
        r.ingest(9, p1);
        for _ in 0..3 {
            flap(&mut r, 9, p1);
        }
        assert!(r.is_suppressed(9, 1));
        // A fresh announcement of the damped path does not dislodge p3.
        r.ingest(9, p1);
        assert_eq!(r.best_path(9).unwrap().route_id, 3);
    }

    #[test]
    fn damping_state_snapshots_round_trip() {
        let [p1, _, p3] = fig4_paths();
        let mut r = BgpProcess::new(
            NodeId(0),
            Role::Internal { ibgp_peers: vec![] },
            DecisionMode::CorrectFull,
        )
        .with_damping(DampingConfig::emulation());
        r.ingest(9, p1);
        r.ingest(9, p3);
        for _ in 0..3 {
            flap(&mut r, 9, p1);
        }
        let mut buf = Vec::new();
        r.encode(&mut buf);
        let back = BgpProcess::decode(&buf).expect("decodes");
        assert_eq!(back.damp_state(9, 1), r.damp_state(9, 1));
        assert!(back.is_suppressed(9, 1));
        assert_eq!(back.digest(), r.digest());
    }

    #[test]
    fn digest_tracks_rib_changes() {
        let [p1, ..] = fig4_paths();
        let mut r = BgpProcess::new(
            NodeId(0),
            Role::Internal { ibgp_peers: vec![] },
            DecisionMode::CorrectFull,
        );
        let d0 = r.digest();
        r.ingest(9, p1);
        assert_ne!(d0, r.digest());
    }
}
