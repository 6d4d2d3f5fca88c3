//! The declarative vocabulary a [`Scenario`](crate::Scenario) is written in:
//! topology, protocol, workload injections, fault schedule, and outcome
//! probe. Everything here is plain data — building networks and running them
//! happens in the engine.

use netsim::{NodeId, SimDuration, SimTime};
use routing::bgp::{DecisionMode, PathAttrs};
use routing::rip::RefreshMode;
use topology::brite::{self, WaxmanParams};
use topology::rocketfuel::{self, Isp};
use topology::{canonical, Graph};

/// Which network graph the scenario runs on.
#[derive(Clone, Debug, PartialEq)]
pub enum TopologySpec {
    /// A line `0 — 1 — … — n-1`.
    Line {
        /// Node count.
        n: usize,
        /// Uniform edge delay.
        delay: SimDuration,
    },
    /// A ring over `n` nodes.
    Ring {
        /// Node count.
        n: usize,
        /// Uniform edge delay.
        delay: SimDuration,
    },
    /// A star with node 0 in the centre.
    Star {
        /// Node count (centre + n-1 spokes).
        n: usize,
        /// Uniform edge delay.
        delay: SimDuration,
    },
    /// A `rows × cols` grid, row-major node ids.
    Grid {
        /// Row count.
        rows: usize,
        /// Column count.
        cols: usize,
        /// Uniform edge delay.
        delay: SimDuration,
    },
    /// A complete graph.
    FullMesh {
        /// Node count.
        n: usize,
        /// Uniform edge delay.
        delay: SimDuration,
    },
    /// The paper's Fig. 4 XORP BGP MED network (6 nodes, fixed roles).
    Fig4Bgp {
        /// iBGP full-mesh link delay.
        internal: SimDuration,
        /// eBGP session link delay.
        external: SimDuration,
    },
    /// The paper's Fig. 5 Quagga RIP network (4 nodes, fixed roles).
    Fig5Rip {
        /// Uniform edge delay.
        delay: SimDuration,
    },
    /// A synthesised Rocketfuel-like PoP-level ISP map.
    Rocketfuel {
        /// Which ISP to synthesise.
        isp: Isp,
    },
    /// A BRITE-style Waxman random graph.
    Waxman {
        /// Node count.
        n: usize,
        /// Waxman parameters (`alpha`, `beta`).
        params: WaxmanParams,
        /// Generation seed (part of the topology identity, not the run
        /// seed — the same spec always builds the same graph).
        seed: u64,
    },
    /// A BRITE-style Barabási–Albert preferential-attachment graph.
    BarabasiAlbert {
        /// Node count.
        n: usize,
        /// Edges per new node.
        m: usize,
        /// Generation seed.
        seed: u64,
    },
}

/// Upper bound on generated scenario sizes. Scenarios describe debugging
/// workloads, not internet-scale graphs; the cap turns a hostile or
/// fat-fingered node count in a `.scn` file into a clean validation error
/// instead of a multi-gigabyte allocation (or, for `grid`, a debug-build
/// multiplication overflow) inside the topology generators.
pub const MAX_SCENARIO_NODES: usize = 512;

impl TopologySpec {
    /// Validates the generator *parameters* without building anything —
    /// every precondition the topology generators would otherwise enforce
    /// by panic (node-count bounds, `waxman`'s `n >= 2`, `ba`'s
    /// `n > m >= 1`, finite Waxman parameters) becomes an `Err` here, so
    /// untrusted `.scn` input can never panic or exhaust memory through
    /// [`TopologySpec::build`].
    pub fn check(&self) -> Result<(), String> {
        let bounded = |n: usize, what: &str| {
            if n < 2 {
                Err(format!("{what}: need at least 2 nodes, got {n}"))
            } else if n > MAX_SCENARIO_NODES {
                Err(format!("{what}: {n} nodes exceeds the {MAX_SCENARIO_NODES}-node cap"))
            } else {
                Ok(())
            }
        };
        match *self {
            TopologySpec::Line { n, .. } => bounded(n, "line"),
            TopologySpec::Ring { n, .. } => bounded(n, "ring"),
            TopologySpec::Star { n, .. } => bounded(n, "star"),
            TopologySpec::FullMesh { n, .. } => bounded(n, "full-mesh"),
            TopologySpec::Grid { rows, cols, .. } => {
                let n = rows
                    .checked_mul(cols)
                    .ok_or_else(|| format!("grid: {rows}x{cols} overflows"))?;
                bounded(n, "grid")
            }
            TopologySpec::Fig4Bgp { .. } | TopologySpec::Fig5Rip { .. } => Ok(()),
            TopologySpec::Rocketfuel { .. } => Ok(()),
            TopologySpec::Waxman { n, params, .. } => {
                bounded(n, "waxman")?;
                if !params.alpha.is_finite() || params.alpha < 0.0 {
                    return Err(format!("waxman: alpha {} must be finite and >= 0", params.alpha));
                }
                if !params.beta.is_finite() || params.beta <= 0.0 {
                    return Err(format!("waxman: beta {} must be finite and > 0", params.beta));
                }
                Ok(())
            }
            TopologySpec::BarabasiAlbert { n, m, .. } => {
                bounded(n, "ba")?;
                if m == 0 || m >= n {
                    return Err(format!("ba: need n > m >= 1, got n {n}, m {m}"));
                }
                Ok(())
            }
        }
    }

    /// Builds the graph this spec describes. Deterministic: the same spec
    /// always yields the same graph.
    ///
    /// Call [`TopologySpec::check`] first on untrusted specs — the
    /// generators enforce their preconditions by panic.
    pub fn build(&self) -> Graph {
        match *self {
            TopologySpec::Line { n, delay } => canonical::line(n, delay),
            TopologySpec::Ring { n, delay } => canonical::ring(n, delay),
            TopologySpec::Star { n, delay } => canonical::star(n, delay),
            TopologySpec::Grid { rows, cols, delay } => canonical::grid(rows, cols, delay),
            TopologySpec::FullMesh { n, delay } => canonical::full_mesh(n, delay),
            TopologySpec::Fig4Bgp { internal, external } => canonical::fig4_bgp(internal, external).0,
            TopologySpec::Fig5Rip { delay } => canonical::fig5_rip(delay).0,
            TopologySpec::Rocketfuel { isp } => rocketfuel::build(isp),
            TopologySpec::Waxman { n, params, seed } => brite::waxman(n, params, seed),
            TopologySpec::BarabasiAlbert { n, m, seed } => brite::barabasi_albert(n, m, seed),
        }
    }

    /// The Fig. 4 role assignment, when this is the Fig. 4 topology.
    pub fn fig4_roles(&self) -> Option<canonical::Fig4Roles> {
        match *self {
            TopologySpec::Fig4Bgp { internal, external } => {
                Some(canonical::fig4_bgp(internal, external).1)
            }
            _ => None,
        }
    }
}

/// Which control plane every node runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolSpec {
    /// RIP on every node, neighbours taken from the graph.
    Rip {
        /// Timer-refresh behaviour (the Quagga bug toggle).
        mode: RefreshMode,
    },
    /// OSPF on every node (interfaces from the graph, stress timers).
    Ospf,
    /// BGP with the Fig. 4 role assignment; requires
    /// [`TopologySpec::Fig4Bgp`].
    Bgp {
        /// Decision-process behaviour (the XORP bug toggle).
        mode: DecisionMode,
    },
}

impl ProtocolSpec {
    /// Short protocol name for listings.
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolSpec::Rip { .. } => "rip",
            ProtocolSpec::Ospf => "ospf",
            ProtocolSpec::Bgp { .. } => "bgp",
        }
    }
}

/// A protocol-neutral external event; the engine converts it to the running
/// protocol's `Ext` type and rejects mismatches at validation time.
#[derive(Clone, Debug, PartialEq)]
pub enum ExtSpec {
    /// RIP: attach a directly connected prefix.
    RipConnect {
        /// The prefix to own.
        prefix: u32,
    },
    /// BGP: start announcing a path at an external router.
    BgpAnnounce {
        /// Destination prefix.
        prefix: u32,
        /// Path attributes.
        attrs: PathAttrs,
    },
    /// BGP: withdraw a previously announced path.
    BgpWithdraw {
        /// Destination prefix.
        prefix: u32,
        /// The `route_id` to retract.
        route_id: u32,
    },
}

impl ExtSpec {
    /// Whether this event can be delivered under `protocol`.
    pub fn fits(&self, protocol: &ProtocolSpec) -> bool {
        matches!(
            (self, protocol),
            (ExtSpec::RipConnect { .. }, ProtocolSpec::Rip { .. })
                | (ExtSpec::BgpAnnounce { .. }, ProtocolSpec::Bgp { .. })
                | (ExtSpec::BgpWithdraw { .. }, ProtocolSpec::Bgp { .. })
        )
    }
}

/// One timed external-event injection — the workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Injection {
    /// Absolute injection time.
    pub at: SimTime,
    /// Receiving node.
    pub node: NodeId,
    /// The event.
    pub ev: ExtSpec,
}

/// One entry of the fault schedule.
#[derive(Clone, Debug, PartialEq)]
pub enum Fault {
    /// Crash a node (its death cut enters the partial recording).
    NodeDown {
        /// Crash time.
        at: SimTime,
        /// The node.
        node: NodeId,
    },
    /// Restart a crashed node with a fresh process. Recordable, but the
    /// pre-crash committed log is lost with the old process, so
    /// production ↔ replay equivalence is not guaranteed past a restart
    /// (see DESIGN.md §7); use for RB-side exploration.
    NodeUp {
        /// Restart time.
        at: SimTime,
        /// The node.
        node: NodeId,
    },
    /// Take a link down administratively.
    LinkDown {
        /// Failure time.
        at: SimTime,
        /// One endpoint.
        a: NodeId,
        /// Other endpoint.
        b: NodeId,
    },
    /// Bring a link back up.
    LinkUp {
        /// Recovery time.
        at: SimTime,
        /// One endpoint.
        a: NodeId,
        /// Other endpoint.
        b: NodeId,
    },
    /// `count` down/up cycles: down at `at + k*period`, up `down_for`
    /// later.
    LinkFlap {
        /// First outage time.
        at: SimTime,
        /// One endpoint.
        a: NodeId,
        /// Other endpoint.
        b: NodeId,
        /// Outage length.
        down_for: SimDuration,
        /// Cycle period (must exceed `down_for`).
        period: SimDuration,
        /// Number of cycles; validation bounds it, and the last cycle must
        /// start within the run.
        count: u32,
    },
    /// Bisection partition: every link with exactly one endpoint in `side`
    /// goes down at `at`, and comes back at `heal` when given.
    ///
    /// The cut is computed from the static topology, so the heal re-raises
    /// *every* crossing link — including one another fault took down
    /// earlier. Schedule a permanent outage of a crossing link after the
    /// heal if it must persist.
    Partition {
        /// Cut time.
        at: SimTime,
        /// Heal time, if the partition heals.
        heal: Option<SimTime>,
        /// One side of the bisection.
        side: Vec<NodeId>,
    },
    /// Bernoulli message loss with probability `p` on the `a — b` link
    /// between `from` and `until` (committed losses replay exactly).
    LossWindow {
        /// Window start.
        from: SimTime,
        /// Window end.
        until: SimTime,
        /// One endpoint.
        a: NodeId,
        /// Other endpoint.
        b: NodeId,
        /// Per-packet loss probability.
        p: f64,
    },
}

/// What to report about the production outcome after a recorded run.
#[derive(Clone, Debug, PartialEq)]
pub enum Probe {
    /// Report nothing.
    None,
    /// RIP: `node`'s next hop towards `prefix`.
    RipRoute {
        /// Inspected node.
        node: NodeId,
        /// Destination prefix.
        prefix: u32,
    },
    /// BGP: the `route_id` `node` selected for `prefix`.
    BgpBest {
        /// Inspected node.
        node: NodeId,
        /// Destination prefix.
        prefix: u32,
    },
    /// OSPF: how many destinations `node` can reach.
    OspfReachable {
        /// Inspected node.
        node: NodeId,
    },
}

impl Probe {
    /// The node the probe inspects, if any.
    pub fn node(&self) -> Option<NodeId> {
        match *self {
            Probe::None => None,
            Probe::RipRoute { node, .. }
            | Probe::BgpBest { node, .. }
            | Probe::OspfReachable { node } => Some(node),
        }
    }
}
