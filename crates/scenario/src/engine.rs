//! The engine: compiles a [`Scenario`] onto the DEFINED record → replay
//! workflow. Every verb walks the same pipeline — decode ([`decode_for`]),
//! validate ([`Scenario::checked_build`]), dispatch ([`with_protocol!`]),
//! build ([`Scenario::build`] / [`Scenario::production_net`]), run, probe
//! ([`Scenario::probe_on`]), render — and everything downstream of the
//! dispatch is generic over [`ScenarioProtocol`] (DESIGN.md §0).

use crate::spec::{ExtSpec, Fault, Probe, ProtocolSpec};
use crate::stream::StoreStreamer;
use crate::{Scenario, ScenarioError};
use defined_core::bisect::{localise_fault, BisectReport};
use defined_core::debugger::Debugger;
use defined_core::explore::ordering_survey;
use defined_core::farm::JobPanic;
use defined_core::gvt::GvtMonitor;
use defined_core::ls::first_divergence;
use defined_core::recorder::{trim_log, CommitRecord, Recording};
use defined_core::session::DebugSession;
use defined_core::wire::Wire;
use defined_core::{DefinedConfig, FarmConfig, LockstepNet, RbMetrics, RbNetwork};
use defined_obs as obs;
use defined_store::{FileIo, StoreError, StoreMeta};
use netsim::{NodeId, SimTime};
use std::path::Path;
use routing::bgp::{BgpExt, BgpProcess};
use routing::ospf::OspfProcess;
use routing::rip::{RipExt, RipProcess};
use routing::ControlPlane;
use topology::Graph;

/// Everything a recorded production run yields: the serialised partial
/// recording, headline counts for reporting, the probe outcome, and the
/// committed logs a replay can be checked against.
#[derive(Clone, Debug)]
pub struct RecordedRun {
    /// The serialised partial recording ([`Recording::to_bytes`]).
    pub bytes: Vec<u8>,
    /// Highest group the production run completed.
    pub n_groups: u64,
    /// Recorded external events.
    pub n_externals: usize,
    /// Death cuts (nodes down at the end of the run).
    pub n_mutes: usize,
    /// Committed message losses.
    pub n_drops: usize,
    /// The probe's report on the production outcome, if any.
    pub outcome: Option<String>,
    /// Comparison frontier: groups `<= upto` are settled network-wide and
    /// must match between production and replay.
    pub upto: u64,
    /// Per-node committed delivery logs of the production run.
    pub logs: Vec<Vec<CommitRecord>>,
    /// GVT progression of the optimistic production run.
    pub gvt: GvtReport,
    /// The production run's rollback counters, summed over nodes.
    pub metrics: RbMetrics,
}

impl RecordedRun {
    /// One-line summary for CLI output.
    pub fn summary(&self, name: &str) -> String {
        format!(
            "recorded {name}: {} groups, {} externals, {} drop(s), {} death cut(s)",
            self.n_groups, self.n_externals, self.n_drops, self.n_mutes,
        )
    }
}

/// How the production run's global-virtual-time bound progressed — the
/// observable that makes an optimistic (Time Warp) run's stalls visible
/// instead of silent: a bound that stops advancing while rollbacks climb
/// means speculative work is being thrown away faster than it commits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GvtReport {
    /// GVT bound at the first sample.
    pub first: u64,
    /// GVT bound at the last sample.
    pub last: u64,
    /// Rollback floor (lowest group any node may still rewind to) at the
    /// last sample.
    pub floor: u64,
    /// Samples taken over the run.
    pub samples: usize,
    /// Whether the bound never regressed between samples (Theorem 2's
    /// monotonicity, observed).
    pub monotone: bool,
    /// Total bound advance summed over sample intervals.
    pub total_advance: u64,
    /// Rollbacks the production run performed, summed over nodes.
    pub rollbacks: u64,
    /// The effective checkpoint-capture policy the run used, rendered
    /// (e.g. `every 1` or `auto 1..64`).
    pub capture: String,
}

impl GvtReport {
    /// One-line CLI rendering.
    pub fn render(&self) -> String {
        format!(
            "gvt: bound {} -> {} over {} samples ({}), floor {}, {} rollback(s), capture {}",
            self.first,
            self.last,
            self.samples,
            if self.monotone { "monotone" } else { "NOT monotone" },
            self.floor,
            self.rollbacks,
            self.capture,
        )
    }
}

/// What the engine needs from a control plane beyond [`ControlPlane`]: wire
/// codecs for its payloads, and the two protocol-specific translations a
/// scenario carries as data — injections in, the probe's report out.
pub(crate) trait ScenarioProtocol:
    ControlPlane<Msg: Wire, Ext: Wire> + Clone + Sync + 'static
{
    /// The runtime external `ev` describes; `None` when it is another
    /// protocol's.
    fn ext(ev: &ExtSpec) -> Option<Self::Ext>;

    /// The probe's report, read off one control plane; `None` when the
    /// probe is another protocol's.
    fn outcome(probe: &Probe, cp: &Self) -> Option<String>;
}

impl ScenarioProtocol for RipProcess {
    fn ext(ev: &ExtSpec) -> Option<RipExt> {
        match ev {
            ExtSpec::RipConnect { prefix } => Some(RipExt::Connect { prefix: *prefix }),
            _ => None,
        }
    }

    fn outcome(probe: &Probe, cp: &Self) -> Option<String> {
        match *probe {
            Probe::RipRoute { node, prefix } => {
                let via = cp.route(prefix).and_then(|r| r.next_hop);
                Some(match via {
                    Some(nh) => format!("{node} routes {prefix} via {nh}"),
                    None => format!("{node} has no route to {prefix}"),
                })
            }
            _ => None,
        }
    }
}

impl ScenarioProtocol for OspfProcess {
    fn ext(_ev: &ExtSpec) -> Option<()> {
        None // OSPF takes no runtime externals; validation rejects them.
    }

    fn outcome(probe: &Probe, cp: &Self) -> Option<String> {
        match *probe {
            Probe::OspfReachable { node } => {
                Some(format!("{node} reaches {} destinations", cp.routing_table().len()))
            }
            _ => None,
        }
    }
}

impl ScenarioProtocol for BgpProcess {
    fn ext(ev: &ExtSpec) -> Option<BgpExt> {
        match ev {
            ExtSpec::BgpAnnounce { prefix, attrs } => {
                Some(BgpExt::Announce { prefix: *prefix, attrs: *attrs })
            }
            ExtSpec::BgpWithdraw { prefix, route_id } => {
                Some(BgpExt::Withdraw { prefix: *prefix, route_id: *route_id })
            }
            _ => None,
        }
    }

    fn outcome(probe: &Probe, cp: &Self) -> Option<String> {
        match *probe {
            Probe::BgpBest { node, prefix } => {
                let best = cp.best_path(prefix).map(|p| p.route_id);
                Some(match best {
                    Some(id) => format!("{node} selects p{id} for {prefix}"),
                    None => format!("{node} has no path to {prefix}"),
                })
            }
            _ => None,
        }
    }
}

/// The one protocol dispatch: evaluates `$body` with `$procs` bound to the
/// scenario's control planes, one per node of `$g` — a `Vec<P>` for the
/// `P: ScenarioProtocol` the scenario names, built by the registry
/// spawners. `$body` is instantiated once per protocol, so it must be
/// generic in `P` (in practice: one call to a `*_typed` function).
macro_rules! with_protocol {
    ($scn:expr, $g:expr, |$procs:ident| $body:expr) => {
        match $scn.protocol {
            $crate::ProtocolSpec::Rip { mode } => {
                let $procs = $crate::rip_processes($g, mode);
                $body
            }
            $crate::ProtocolSpec::Ospf => {
                let $procs = $crate::ospf_processes($g);
                $body
            }
            $crate::ProtocolSpec::Bgp { mode } => {
                // Unreachable: every caller ran `checked_build`, whose
                // `validate_on` rejects BGP off the Fig. 4 topology.
                let roles = $scn.topology.fig4_roles().expect("validated");
                let $procs = $crate::bgp_fig4_processes(&roles, mode);
                $body
            }
        }
    };
}
#[cfg(test)]
pub(crate) use with_protocol; // stream.rs's tests build production networks through it

/// Decodes a recording and checks it was taken on a network of this
/// scenario's size — `LockstepNet::new` asserts on a mismatch, and a
/// recording from a same-protocol but different-sized scenario should be a
/// clean [`ScenarioError::BadRecording`], not a panic.
///
/// Accepts both serialisations transparently: the on-disk store format
/// (sniffed by its magic; torn tails recover to the last sync point,
/// corruption is a typed [`ScenarioError::Store`]) and the raw in-memory
/// [`Recording::to_bytes`] framing.
fn decode_for<P: ScenarioProtocol>(
    g: &Graph,
    bytes: &[u8],
) -> Result<Recording<P::Ext>, ScenarioError> {
    let rec = if defined_store::is_store(bytes) {
        defined_store::open_bytes::<P::Ext>(bytes)?.recording
    } else {
        Recording::<P::Ext>::from_bytes(bytes).ok_or(ScenarioError::BadRecording)?
    };
    if rec.n_nodes != g.node_count() {
        return Err(ScenarioError::BadRecording);
    }
    Ok(rec)
}

impl Scenario {
    /// Checks the description for internal consistency: node and link
    /// references resolve in the topology, injections fit the protocol,
    /// fault parameters are well-formed, and event times fall inside the
    /// run.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        self.checked_build().map(|_| ())
    }

    /// Validates the topology parameters, builds the graph, and validates
    /// the rest of the scenario against it — the one entry point every run
    /// path shares, so no untrusted spec reaches a generator panic.
    pub(crate) fn checked_build(&self) -> Result<Graph, ScenarioError> {
        self.topology.check().map_err(ScenarioError::Invalid)?;
        let g = self.topology.build();
        self.validate_on(&g)?;
        Ok(g)
    }

    /// The run configuration every engine path shares: the defaults plus
    /// this scenario's checkpoint-capture policy.
    fn run_config(&self) -> DefinedConfig {
        DefinedConfig { capture: self.capture, ..DefinedConfig::default() }
    }

    /// [`validate`](Self::validate) against an already-built graph, so the
    /// run paths build the (possibly generator-backed) topology once.
    fn validate_on(&self, g: &Graph) -> Result<(), ScenarioError> {
        let err = |msg: String| Err(ScenarioError::Invalid(msg));
        let n = g.node_count();
        let end = SimTime::ZERO + self.duration;
        let check_node = |node: NodeId, what: &str| {
            if node.index() >= n {
                err(format!("{what} references node {node} but the topology has {n} nodes"))
            } else {
                Ok(())
            }
        };
        let check_edge = |a: NodeId, b: NodeId, what: &str| {
            if a.index() >= n || b.index() >= n || !g.has_edge(a, b) {
                err(format!("{what} references link {a}—{b}, which the topology lacks"))
            } else {
                Ok(())
            }
        };
        if self.duration == netsim::SimDuration::ZERO {
            return err("duration must be positive".into());
        }
        if !(0.0..=2.0).contains(&self.jitter_frac) {
            return err(format!("jitter fraction {} out of range [0, 2]", self.jitter_frac));
        }
        if matches!(self.protocol, ProtocolSpec::Bgp { .. })
            && self.topology.fig4_roles().is_none()
        {
            return err("the BGP protocol requires the fig4-bgp topology (role assignment)".into());
        }
        for inj in &self.workload {
            check_node(inj.node, "an injection")?;
            if !inj.ev.fits(&self.protocol) {
                return err(format!(
                    "injection {:?} does not fit protocol {}",
                    inj.ev,
                    self.protocol.name()
                ));
            }
            if inj.at > end {
                return err(format!("injection at {} lands after the {} run", inj.at, end));
            }
        }
        let mut loss_windows: Vec<(NodeId, NodeId, SimTime, SimTime)> = Vec::new();
        for f in &self.faults {
            let start = match f {
                Fault::NodeDown { at, .. }
                | Fault::NodeUp { at, .. }
                | Fault::LinkDown { at, .. }
                | Fault::LinkUp { at, .. }
                | Fault::LinkFlap { at, .. }
                | Fault::Partition { at, .. } => *at,
                Fault::LossWindow { from, .. } => *from,
            };
            if start > end {
                return err(format!("a fault at {start} lands after the {end} run"));
            }
            match f {
                Fault::NodeDown { node, .. } | Fault::NodeUp { node, .. } => {
                    check_node(*node, "a node fault")?;
                }
                Fault::LinkDown { a, b, .. } | Fault::LinkUp { a, b, .. } => {
                    check_edge(*a, *b, "a link fault")?;
                }
                Fault::LinkFlap { a, b, down_for, period, count, .. } => {
                    check_edge(*a, *b, "a link flap")?;
                    if down_for >= period {
                        return err(format!(
                            "flap down time {down_for} must be shorter than its period {period}"
                        ));
                    }
                    if *count == 0 {
                        return err("a flap needs at least one cycle".into());
                    }
                    if *count > MAX_FLAP_CYCLES {
                        return err(format!("a flap runs at most {MAX_FLAP_CYCLES} cycles, not {count}"));
                    }
                    let last = start + *period * (u64::from(*count) - 1);
                    if last > end {
                        return err(format!("a flap's last cycle at {last} lands after the {end} run"));
                    }
                }
                Fault::Partition { side, heal, at } => {
                    let unique: std::collections::BTreeSet<NodeId> = side.iter().copied().collect();
                    if unique.is_empty() || unique.len() >= n {
                        return err("a partition side must be a nonempty proper node subset".into());
                    }
                    for &node in side {
                        check_node(node, "a partition")?;
                    }
                    if let Some(h) = heal {
                        if h <= at {
                            return err(format!("partition heal {h} precedes its cut {at}"));
                        }
                        if *h > end {
                            return err(format!("partition heal {h} lands after the {end} run"));
                        }
                    }
                }
                Fault::LossWindow { from, until, a, b, p } => {
                    check_edge(*a, *b, "a loss window")?;
                    if !(0.0..=1.0).contains(p) {
                        return err(format!("loss probability {p} out of range [0, 1]"));
                    }
                    if until <= from {
                        return err(format!("loss window end {until} precedes its start {from}"));
                    }
                    // Windows install/clear a per-link loss model, so two
                    // overlapping windows on one link would silently
                    // truncate each other.
                    let (lo, hi) = if a.0 <= b.0 { (*a, *b) } else { (*b, *a) };
                    for &(wa, wb, wf, wu) in &loss_windows {
                        if (wa, wb) == (lo, hi) && *from < wu && wf < *until {
                            return err(format!(
                                "overlapping loss windows on link {lo}—{hi} \
                                 ({wf}..{wu} and {from}..{until})"
                            ));
                        }
                    }
                    loss_windows.push((lo, hi, *from, *until));
                }
            }
        }
        match (&self.probe, &self.protocol) {
            (Probe::None, _) => {}
            (Probe::RipRoute { node, .. }, ProtocolSpec::Rip { .. })
            | (Probe::OspfReachable { node }, ProtocolSpec::Ospf)
            | (Probe::BgpBest { node, .. }, ProtocolSpec::Bgp { .. }) => {
                check_node(*node, "the probe")?;
            }
            (p, proto) => {
                return err(format!("probe {p:?} does not fit protocol {}", proto.name()));
            }
        }
        Ok(())
    }

    /// Runs the instrumented production network and extracts the partial
    /// recording (the `record` half of the workflow).
    pub fn record_run(&self) -> Result<RecordedRun, ScenarioError> {
        self.record_dispatch(None)
    }

    /// [`record_run`](Self::record_run), additionally *streaming* the
    /// recording into an on-disk store at `path` as the run progresses:
    /// committed frames are appended and fsynced at every sync point, so a
    /// crash mid-run leaves a recoverable prefix instead of nothing. The
    /// returned [`RecordedRun`] is identical to the store-less path.
    pub fn record_run_to_store(&self, path: &Path) -> Result<RecordedRun, ScenarioError> {
        self.record_dispatch(Some(path))
    }

    fn record_dispatch(&self, store: Option<&Path>) -> Result<RecordedRun, ScenarioError> {
        let g = self.checked_build()?;
        with_protocol!(self, &g, |procs| self.record_typed(&g, procs, store))
    }

    /// Replays a serialised recording in lockstep, its waves executed
    /// across `shards` worker shards (`0` = auto, `1` = serial), and
    /// returns the per-node committed logs (for equivalence checks against
    /// [`RecordedRun::logs`]). The logs are byte-identical for every shard
    /// count — the `--shards` self-check in `defined-dbg record` leans on
    /// this.
    pub fn replay_logs_sharded(
        &self,
        bytes: &[u8],
        shards: usize,
    ) -> Result<Vec<Vec<CommitRecord>>, ScenarioError> {
        let g = self.checked_build()?;
        with_protocol!(self, &g, |procs| self.replay_typed(&g, procs, bytes, shards))
    }

    /// Loads a serialised recording into a debugging network and drives a
    /// scripted [`DebugSession`] over it, returning the transcript (the
    /// `debug` half of the workflow). Deterministic: the same recording and
    /// script always produce the same transcript, for every `shards` value
    /// (`0` = auto, `1` = serial) — interactive stepping is wave-serial
    /// either way; sharding accelerates the bulk moves (`run`, `stepg`,
    /// checkpoint re-execution).
    pub fn debug_transcript_sharded(
        &self,
        bytes: &[u8],
        script: &str,
        shards: usize,
    ) -> Result<String, ScenarioError> {
        let g = self.checked_build()?;
        with_protocol!(self, &g, |procs| self.debug_typed(&g, procs, bytes, script, shards))
    }

    /// Builds the RB-instrumented production network with the workload and
    /// fault schedule applied, ready to run.
    pub(crate) fn production_net<P: ScenarioProtocol>(
        &self,
        g: &Graph,
        procs: Vec<P>,
    ) -> Result<RbNetwork<P>, ScenarioError> {
        let mut net = RbNetwork::new(g, self.run_config(), self.seed, self.jitter_frac, {
            move |id: NodeId| procs[id.index()].clone()
        });
        for inj in &self.workload {
            let ev = P::ext(&inj.ev).ok_or_else(|| {
                ScenarioError::Invalid(format!("injection {:?} does not fit the protocol", inj.ev))
            })?;
            net.inject_external(inj.at, inj.node, ev);
        }
        for f in &self.faults {
            match f {
                Fault::NodeDown { at, node } => net.schedule_node(*at, *node, false),
                Fault::NodeUp { at, node } => net.schedule_node(*at, *node, true),
                Fault::LinkDown { at, a, b } => net.schedule_link(*at, *a, *b, false),
                Fault::LinkUp { at, a, b } => net.schedule_link(*at, *a, *b, true),
                Fault::LinkFlap { at, a, b, down_for, period, count } => {
                    net.schedule_flap(*at, *a, *b, *down_for, *period, *count);
                }
                Fault::Partition { at, heal, side } => {
                    net.schedule_partition(*at, *heal, side);
                }
                Fault::LossWindow { from, until, a, b, p } => {
                    net.schedule_loss_window(*from, *until, *a, *b, *p);
                }
            }
        }
        Ok(net)
    }

    /// What a store of this scenario's run on `net` declares about itself.
    pub(crate) fn store_meta<P: ControlPlane + 'static>(&self, net: &RbNetwork<P>) -> StoreMeta {
        StoreMeta {
            n_nodes: net.graph().node_count(),
            source: net.initial_source(),
            scenario: self.name.clone(),
        }
    }

    /// Runs `net` to the scenario's deadline in beacon-sized slices,
    /// calling `each` after every slice — the simulator is a pure event
    /// pump, so incremental `run_until` calls commit the identical
    /// execution as one call to the deadline.
    pub(crate) fn run_sliced<P: ControlPlane + 'static>(
        &self,
        net: &mut RbNetwork<P>,
        mut each: impl FnMut(&RbNetwork<P>) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        let end = SimTime::ZERO + self.duration;
        let slice = DefinedConfig::default().beacon_interval * 4;
        let mut t = SimTime::ZERO;
        while t < end {
            t = (t + slice).min(end);
            net.run_until(t);
            each(net)?;
        }
        Ok(())
    }

    /// Runs the production network to the deadline — sampling the GVT
    /// bound and draining into the store, if any, at every slice — and
    /// extracts the recording.
    fn record_typed<P: ScenarioProtocol>(
        &self,
        g: &Graph,
        procs: Vec<P>,
        store: Option<&Path>,
    ) -> Result<RecordedRun, ScenarioError> {
        let mut net = self.production_net(g, procs)?;
        let mut streamer = match store {
            Some(path) => {
                let io = FileIo::create(path).map_err(StoreError::from)?;
                Some(StoreStreamer::create(io, &self.store_meta(&net))?)
            }
            None => None,
        };
        let mut monitor = GvtMonitor::new();
        self.run_sliced(&mut net, |net| {
            monitor.observe(net);
            streamer.as_mut().map_or(Ok(()), |s| s.drain(net))
        })?;
        let outcome = self.probe_on(|node| net.control_plane(node));
        let upto = net.completed_group(2);
        // Publish the production run's rollback tallies as gauge-style
        // counters (§11) for `--profile` and the benchmark's layer table.
        // Nothing printed reads them back: the `gvt:` line renders from the
        // `GvtReport` below, so stdout is the same with obs compiled out.
        let m = net.total_metrics();
        obs::counter!("rb.rollbacks").set(m.rollbacks);
        obs::counter!("rb.rolled_entries").set(m.rolled_entries);
        obs::counter!("rb.unsend_msgs").set(m.unsend_msgs);
        obs::counter!("rb.fast_path").set(m.fast_path);
        let samples = monitor.samples();
        let gvt = GvtReport {
            first: samples.first().map(|s| s.gvt).unwrap_or(0),
            last: samples.last().map(|s| s.gvt).unwrap_or(0),
            floor: samples.last().map(|s| s.floor).unwrap_or(0),
            samples: samples.len(),
            monotone: monitor.is_monotone(),
            total_advance: monitor.total_advance(),
            rollbacks: m.rollbacks,
            capture: self.capture.to_string(),
        };
        let (rec, logs) = net.into_recording();
        if let Some(s) = streamer {
            // Store the commit logs trimmed to the comparison horizon: that
            // is exactly the prefix `verify` replays against, and groups
            // past `upto` are not settled network-wide anyway.
            let trimmed: Vec<Vec<CommitRecord>> =
                logs.iter().map(|l| trim_log(l, upto)).collect();
            s.finish(&rec, &trimmed, upto)?;
        }
        Ok(RecordedRun {
            bytes: rec.to_bytes(),
            n_groups: rec.last_group,
            n_externals: rec.externals.len(),
            n_mutes: rec.mutes.len(),
            n_drops: rec.drops.len(),
            outcome,
            upto,
            logs,
            gvt,
            metrics: m,
        })
    }

    /// The build stage of every replaying verb: the lockstep debugging
    /// network over `rec`, its waves executed across `shards` shards.
    fn build<P: ScenarioProtocol>(
        &self,
        g: &Graph,
        procs: &[P],
        rec: Recording<P::Ext>,
        shards: usize,
    ) -> LockstepNet<P> {
        LockstepNet::new(g, self.run_config(), rec, |id: NodeId| procs[id.index()].clone())
            .with_shards(shards)
    }

    /// The probe stage: the outcome probe's report, read off the control
    /// plane `cp` hands back for the probed node. `None` for `Probe::None`.
    fn probe_on<'a, P: ScenarioProtocol>(
        &self,
        cp: impl FnOnce(NodeId) -> &'a P,
    ) -> Option<String> {
        P::outcome(&self.probe, cp(self.probe.node()?))
    }

    fn replay_typed<P: ScenarioProtocol>(
        &self,
        g: &Graph,
        procs: Vec<P>,
        bytes: &[u8],
        shards: usize,
    ) -> Result<Vec<Vec<CommitRecord>>, ScenarioError> {
        let mut ls = self.build(g, &procs, decode_for::<P>(g, bytes)?, shards);
        ls.run_to_end();
        Ok(ls.logs().to_vec())
    }

    fn debug_typed<P: ScenarioProtocol>(
        &self,
        g: &Graph,
        procs: Vec<P>,
        bytes: &[u8],
        script: &str,
        shards: usize,
    ) -> Result<String, ScenarioError> {
        let ls = self.build(g, &procs, decode_for::<P>(g, bytes)?, shards);
        let mut session = DebugSession::new(Debugger::new(ls), g.node_count());
        Ok(session.run_script(script))
    }

    /// Sweeps `salts` permuted orderings over a recording on the replay
    /// farm, using the scenario's outcome probe as the search predicate:
    /// the baseline is the probe outcome of the replay under the production
    /// ordering, and a salt "hits" when its outcome differs. Deterministic
    /// for every `farm.jobs` and `farm.shards` value (the earliest divergent
    /// salt is reported, not the first to finish).
    pub fn explore_run(
        &self,
        bytes: &[u8],
        salts: u64,
        farm: &FarmConfig,
    ) -> Result<ExploreReport, ScenarioError> {
        if salts > MAX_EXPLORE_SALTS {
            return Err(ScenarioError::Invalid(format!(
                "explore sweeps at most {MAX_EXPLORE_SALTS} salts (each is one full replay), \
                 asked for {salts}"
            )));
        }
        let g = self.checked_build()?;
        self.require_probe()?;
        with_protocol!(self, &g, |procs| self.explore_typed(&g, procs, bytes, salts, farm))
    }

    /// Localises when the scenario's final probe outcome was established:
    /// bisects the recording on the replay farm for the earliest group
    /// whose prefix replay already reports the full run's outcome, then
    /// steps that group for the exact event. Returns `Ok(None)` only for
    /// degenerate (group-less) recordings.
    ///
    /// Like [`defined_core::bisect::first_bad_group`], the bisection assumes
    /// the predicate — "the probe already reports the final outcome" — is *monotone*
    /// over prefixes, which holds when the outcome persists once
    /// established (the case-study bugs: a wrong best path, a stuck stale
    /// route). On scenarios whose outcome oscillates before settling
    /// (flap/heal/restart schedules where the final state matches an
    /// early transient), the located group is a heuristic: its prefix
    /// provably reports the outcome and the probed predecessors did not,
    /// but an intervening un-establishment may exist. The located group is
    /// still a pure function of the recording (never of `farm.jobs` or
    /// `farm.shards`).
    pub fn bisect_run(
        &self,
        bytes: &[u8],
        farm: &FarmConfig,
    ) -> Result<Option<BisectSummary>, ScenarioError> {
        let g = self.checked_build()?;
        self.require_probe()?;
        with_protocol!(self, &g, |procs| self.bisect_typed(&g, procs, bytes, farm))
    }

    fn require_probe(&self) -> Result<(), ScenarioError> {
        if matches!(self.probe, Probe::None) {
            return Err(ScenarioError::Invalid(format!(
                "scenario {} has no outcome probe to compile into a search predicate",
                self.name
            )));
        }
        Ok(())
    }

    /// The probe's report on a replay — what the search verbs observe.
    fn read_probe<P: ScenarioProtocol>(&self, ls: &LockstepNet<P>) -> String {
        self.probe_on(|node| ls.control_plane(node))
            .expect("require_probe passed and validate_on fitted the probe to the protocol")
    }

    fn explore_typed<P: ScenarioProtocol>(
        &self,
        g: &Graph,
        procs: Vec<P>,
        bytes: &[u8],
        salts: u64,
        farm: &FarmConfig,
    ) -> Result<ExploreReport, ScenarioError> {
        let rec = decode_for::<P>(g, bytes)?;
        let mut base = self.build(g, &procs, rec.clone(), farm.shards);
        base.run_to_end();
        let baseline = self.read_probe(&base);
        let spawn = |id: NodeId| procs[id.index()].clone();
        // One sweep yields everything the report needs: each salt's outcome
        // string, from which both the sensitivity tally and the earliest
        // divergence fall out — half the replays of a find-then-count pair.
        let read = |ls: &LockstepNet<P>| self.read_probe(ls);
        let outcomes = ordering_survey(g, &self.run_config(), &rec, spawn, 0..salts, read, farm);
        let mut divergent = 0;
        let mut found = None;
        let mut failures = Vec::new();
        for (i, o) in outcomes.into_iter().enumerate() {
            match o {
                Ok(o) if o != baseline => {
                    divergent += 1;
                    if found.is_none() {
                        found = Some((i as u64, o));
                    }
                }
                Ok(_) => {}
                Err(p) => failures.push(p),
            }
        }
        Ok(ExploreReport { baseline, found, divergent, total: salts as usize, failures })
    }

    fn bisect_typed<P: ScenarioProtocol>(
        &self,
        g: &Graph,
        procs: Vec<P>,
        bytes: &[u8],
        farm: &FarmConfig,
    ) -> Result<Option<BisectSummary>, ScenarioError> {
        let rec = decode_for::<P>(g, bytes)?;
        let mut full = self.build(g, &procs, rec.clone(), farm.shards);
        full.run_to_end();
        let target = self.read_probe(&full);
        let spawn = |id: NodeId| procs[id.index()].clone();
        // The speculation width fixes the probe *schedule*; keeping it
        // constant (rather than tied to `jobs`) makes the rendered report —
        // replay count included — byte-identical for every `--jobs` value.
        let farm = FarmConfig { speculation: 4, ..*farm };
        let bad = |ls: &LockstepNet<P>| self.read_probe(ls) == target;
        // One call shares the probe sessions between the group bisection
        // and the event scan, so the scan seeds from their checkpoints.
        let Some((report, located)) =
            localise_fault(g, &self.run_config(), &rec, spawn, bad, &farm)
        else {
            return Ok(None); // Only a degenerate group-less recording.
        };
        let event = located.map(|(ev, _)| {
            format!("[g{} c{}] {} @ {}", ev.group, ev.chain, ev.record.ann.class, ev.node)
        });
        Ok(Some(BisectSummary { outcome: target, report, event }))
    }

    /// Verifies an on-disk recording store end to end: structural
    /// integrity (every frame CRC, self-check tallies), then a fresh
    /// lockstep replay checked entry-by-entry against the commit logs the
    /// production run stored. Strict: a store that needed torn-tail
    /// recovery, or whose bytes were corrupted anywhere, is a typed
    /// [`ScenarioError::Store`] — never a panic, never a silent pass.
    pub fn verify_store(&self, bytes: &[u8], shards: usize) -> Result<VerifyReport, ScenarioError> {
        let g = self.checked_build()?;
        with_protocol!(self, &g, |procs| self.verify_typed(&g, procs, bytes, shards))
    }

    fn verify_typed<P: ScenarioProtocol>(
        &self,
        g: &Graph,
        procs: Vec<P>,
        bytes: &[u8],
        shards: usize,
    ) -> Result<VerifyReport, ScenarioError> {
        let r = defined_store::open_bytes_strict::<P::Ext>(bytes)?;
        if r.recording.n_nodes != g.node_count() {
            return Err(ScenarioError::BadRecording);
        }
        let commits = r.commits.expect("strict open only passes finished stores");
        let upto = r.upto.expect("strict open only passes finished stores");
        let last_group = r.recording.last_group;
        let mut ls = self.build(g, &procs, r.recording, shards);
        ls.run_to_end();
        let divergence = first_divergence(&commits, ls.logs(), upto).map(|(node, i, a, b)| {
            format!("node {node}, entry {i}: stored {a:?}, replay {b:?}")
        });
        let checked_entries = commits.iter().map(|l| trim_log(l, upto).len()).sum();
        Ok(VerifyReport {
            scenario: r.info.scenario,
            frames: r.info.frames,
            last_group,
            upto,
            checked_nodes: commits.len(),
            checked_entries,
            divergence,
        })
    }
}

/// Most salts one [`Scenario::explore_run`] sweeps. Each salt is one full
/// replay and one result slot, so the cap excludes no sweep that could
/// finish; it keeps a hostile count from sizing an allocation.
pub const MAX_EXPLORE_SALTS: u64 = 1 << 20;

/// Most cycles one [`Fault::LinkFlap`] runs. Every cycle is queued as two
/// events before the run starts, and a period may be 1 ns, so the cap
/// keeps one `.scn` line from sizing the event queue.
const MAX_FLAP_CYCLES: u32 = 1 << 16;

/// What an ordering sweep over a scenario's recording found.
#[derive(Clone, Debug)]
pub struct ExploreReport {
    /// Probe outcome of the replay under the production ordering.
    pub baseline: String,
    /// Earliest salt whose replay reports a different outcome, with that
    /// outcome — `None` when every swept ordering agrees with the baseline.
    pub found: Option<(u64, String)>,
    /// How many swept salts diverge from the baseline.
    pub divergent: usize,
    /// How many salts were swept.
    pub total: usize,
    /// Jobs whose probe panicked even after a retry and a serial fallback;
    /// their salts are excluded from the tallies above. Surfaced instead
    /// of aborting the sweep — one poisoned salt should not cost the rest.
    pub failures: Vec<JobPanic>,
}

impl ExploreReport {
    /// Multi-line CLI rendering.
    pub fn render(&self) -> String {
        let mut out = format!(
            "baseline outcome: {}\nsensitivity: {}/{} orderings diverge\n",
            self.baseline, self.divergent, self.total
        );
        match &self.found {
            Some((salt, outcome)) => {
                out.push_str(&format!("first divergence: salt {salt} -> {outcome}\n"));
            }
            None => out.push_str("no divergent ordering in the swept range\n"),
        }
        for p in &self.failures {
            out.push_str(&format!("WARNING: {p}; its salt is excluded from the sweep\n"));
        }
        out
    }
}

/// Where a scenario's final probe outcome was established (assuming it
/// persisted from there — see [`Scenario::bisect_run`] on monotonicity).
#[derive(Clone, Debug)]
pub struct BisectSummary {
    /// The full replay's probe outcome (the state being localised).
    pub outcome: String,
    /// Group-level bisection result.
    pub report: BisectReport,
    /// The exact delivery inside the located group that established the
    /// outcome, rendered for display; `None` when the outcome appears only
    /// at the group boundary itself.
    pub event: Option<String>,
}

impl BisectSummary {
    /// Multi-line CLI rendering.
    pub fn render(&self) -> String {
        let mut out = format!(
            "outcome: {}\nestablished by group {} ({} prefix replays)\n",
            self.outcome, self.report.first_bad_group, self.report.replays
        );
        match &self.event {
            Some(ev) => out.push_str(&format!("culprit event: {ev}\n")),
            None => out.push_str("culprit event: at the group boundary (no single delivery)\n"),
        }
        if let Some((bad, healthy)) = self.report.oscillation {
            out.push_str(&format!(
                "WARNING: the predicate oscillates — group {bad} already reports the \
                 outcome but later group {healthy} does not; the located group is where \
                 it *last* became established, not a provable first cause\n"
            ));
        }
        out
    }
}

/// What [`Scenario::verify_store`] checked and found.
#[derive(Clone, Debug)]
pub struct VerifyReport {
    /// Scenario name recorded in the store's meta frame.
    pub scenario: String,
    /// Valid frames in the store.
    pub frames: usize,
    /// Highest group the stored run completed.
    pub last_group: u64,
    /// Comparison horizon: groups `<= upto` are settled network-wide and
    /// were checked against the replay.
    pub upto: u64,
    /// Nodes whose commit logs were compared.
    pub checked_nodes: usize,
    /// Commit-log entries compared (trimmed to the horizon).
    pub checked_entries: usize,
    /// First replay/stored mismatch, rendered — `None` when the replay
    /// matches the stored logs exactly.
    pub divergence: Option<String>,
}

impl VerifyReport {
    /// Whether verification passed.
    pub fn ok(&self) -> bool {
        self.divergence.is_none()
    }

    /// Multi-line CLI rendering.
    pub fn render(&self) -> String {
        let head = format!(
            "scenario {}: {} frames, last group {}, replay horizon {}\n",
            self.scenario, self.frames, self.last_group, self.upto,
        );
        match &self.divergence {
            Some(d) => format!(
                "{head}VERIFY FAILED: replay diverges from the stored commit log\n  {d}\n"
            ),
            None => format!(
                "{head}verify ok: {} commit-log entries across {} node(s) match a fresh replay\n",
                self.checked_entries, self.checked_nodes,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Injection;
    use defined_core::ls::first_divergence;
    use netsim::SimDuration;

    fn mini_ospf() -> Scenario {
        Scenario {
            name: "mini".into(),
            description: "4-ring OSPF with one link fault".into(),
            topology: TopologySpec::Ring { n: 4, delay: SimDuration::from_millis(4) },
            protocol: ProtocolSpec::Ospf,
            seed: 5,
            jitter_frac: 0.4,
            duration: SimDuration::from_secs(3),
            workload: vec![],
            faults: vec![Fault::LinkDown {
                at: SimTime::from_millis(1500),
                a: NodeId(0),
                b: NodeId(1),
            }],
            probe: Probe::OspfReachable { node: NodeId(2) },
            capture: defined_core::config::CapturePolicy::default(),
        }
    }

    use crate::spec::TopologySpec;

    #[test]
    fn record_replay_debug_cycle() {
        let scn = mini_ospf();
        let run = scn.record_run().expect("records");
        assert!(run.n_groups >= 5);
        assert_eq!(run.outcome.as_deref(), Some("n2 reaches 3 destinations"));
        let ls = scn.replay_logs_sharded(&run.bytes, 1).expect("replays");
        assert!(first_divergence(&run.logs, &ls, run.upto).is_none());
        let debug = || scn.debug_transcript_sharded(&run.bytes, "stepg 2\nwhere\n", 1);
        let t1 = debug().expect("debugs");
        let t2 = debug().expect("debugs again");
        assert_eq!(t1, t2);
        assert!(t1.contains("group"), "{t1}");
    }

    #[test]
    fn recorded_run_carries_a_gvt_report() {
        let run = mini_ospf().record_run().expect("records");
        let gvt = &run.gvt;
        assert!(gvt.samples >= 2, "too few GVT samples: {gvt:?}");
        assert!(gvt.monotone, "GVT bound regressed: {gvt:?}");
        assert!(gvt.last >= gvt.first, "{gvt:?}");
        assert_eq!(gvt.total_advance, gvt.last - gvt.first, "{gvt:?}");
        assert!(gvt.floor <= gvt.last, "fossil floor beyond the bound: {gvt:?}");
        let line = gvt.render();
        assert!(line.starts_with("gvt: bound"), "{line}");
        assert!(line.contains("rollback"), "{line}");
        // The report is a pure function of the scenario: re-recording
        // reproduces it exactly.
        assert_eq!(run.gvt, mini_ospf().record_run().expect("re-records").gvt);
    }

    #[test]
    fn sharded_scenario_replay_matches_serial() {
        let scn = mini_ospf();
        let run = scn.record_run().expect("records");
        let serial = scn.replay_logs_sharded(&run.bytes, 1).expect("serial");
        for shards in [2usize, 3] {
            assert_eq!(
                scn.replay_logs_sharded(&run.bytes, shards).expect("sharded"),
                serial,
                "shards={shards}"
            );
        }
    }

    #[test]
    fn bad_recordings_are_rejected() {
        let scn = mini_ospf();
        assert!(matches!(
            scn.debug_transcript_sharded(b"garbage", "step\n", 1),
            Err(ScenarioError::BadRecording)
        ));
        assert!(matches!(scn.replay_logs_sharded(&[1, 2, 3], 1), Err(ScenarioError::BadRecording)));
    }

    #[test]
    fn validation_rejects_mismatches() {
        // BGP off the Fig. 4 topology.
        let mut scn = mini_ospf();
        scn.protocol = ProtocolSpec::Bgp { mode: routing::bgp::DecisionMode::CorrectFull };
        assert!(matches!(scn.record_run(), Err(ScenarioError::Invalid(_))));

        // An injection that does not fit the protocol.
        let mut scn = mini_ospf();
        scn.workload.push(Injection {
            at: SimTime::from_millis(100),
            node: NodeId(0),
            ev: ExtSpec::RipConnect { prefix: 7 },
        });
        assert!(matches!(scn.record_run(), Err(ScenarioError::Invalid(_))));

        // A fault on a link the topology lacks (0—2 is a chord of the ring).
        let mut scn = mini_ospf();
        scn.faults.push(Fault::LinkDown {
            at: SimTime::from_millis(100),
            a: NodeId(0),
            b: NodeId(2),
        });
        assert!(matches!(scn.record_run(), Err(ScenarioError::Invalid(_))));

        // A probe that does not fit the protocol.
        let mut scn = mini_ospf();
        scn.probe = Probe::RipRoute { node: NodeId(0), prefix: 7 };
        assert!(matches!(scn.record_run(), Err(ScenarioError::Invalid(_))));

        // A fault scheduled after the end of the run would silently never
        // fire and report a misleading healthy outcome.
        let mut scn = mini_ospf();
        scn.faults.push(Fault::LinkDown {
            at: SimTime::from_secs(10),
            a: NodeId(0),
            b: NodeId(1),
        });
        assert!(matches!(scn.record_run(), Err(ScenarioError::Invalid(_))));

        // Overlapping loss windows on one link (either orientation) would
        // truncate each other when the first window's end clears the model.
        let mut scn = mini_ospf();
        scn.faults = vec![
            Fault::LossWindow {
                from: SimTime::from_millis(500),
                until: SimTime::from_millis(2500),
                a: NodeId(1),
                b: NodeId(2),
                p: 0.5,
            },
            Fault::LossWindow {
                from: SimTime::from_millis(2000),
                until: SimTime::from_millis(2800),
                a: NodeId(2),
                b: NodeId(1),
                p: 0.9,
            },
        ];
        assert!(matches!(scn.record_run(), Err(ScenarioError::Invalid(_))));

        // A partition heal after the run end would silently never heal.
        let mut scn = mini_ospf();
        scn.faults = vec![Fault::Partition {
            at: SimTime::from_millis(500),
            heal: Some(SimTime::from_secs(50)),
            side: vec![NodeId(0)],
        }];
        assert!(matches!(scn.record_run(), Err(ScenarioError::Invalid(_))));

        // Duplicate ids in a partition side are harmless — the *set* must be
        // a proper subset, not the raw list length.
        let mut scn = mini_ospf();
        scn.faults = vec![Fault::Partition {
            at: SimTime::from_millis(500),
            heal: None,
            side: vec![NodeId(0), NodeId(0), NodeId(1), NodeId(1)],
        }];
        assert!(scn.validate().is_ok());

        // A flap whose last cycle starts after the run end, and one whose
        // count alone would size the event queue, are refused before either
        // is scheduled; a flap whose last cycle starts at the end fits.
        let flap = |period_ms: u64, count: u32| {
            let mut scn = mini_ospf();
            scn.faults = vec![Fault::LinkFlap {
                at: SimTime::from_millis(1000),
                a: NodeId(0),
                b: NodeId(1),
                down_for: SimDuration::from_nanos(1),
                period: SimDuration::from_millis(period_ms),
                count,
            }];
            scn
        };
        assert!(flap(500, 5).validate().is_ok(), "last cycle at exactly 3 s");
        assert!(matches!(flap(500, 6).validate(), Err(ScenarioError::Invalid(_))));
        assert!(matches!(flap(1, u32::MAX).validate(), Err(ScenarioError::Invalid(_))));
        let mut scn = flap(1, MAX_FLAP_CYCLES + 1);
        scn.duration = SimDuration::from_secs(100);
        assert!(matches!(scn.validate(), Err(ScenarioError::Invalid(_))), "cap holds in time too");
    }

    #[test]
    fn wrong_size_recording_is_rejected_cleanly() {
        // A same-protocol recording from a different-sized network must be
        // BadRecording, not a LockstepNet size-assert panic.
        let run = mini_ospf().record_run().expect("records");
        let mut big = mini_ospf();
        big.topology = TopologySpec::Ring { n: 5, delay: SimDuration::from_millis(4) };
        assert!(matches!(big.replay_logs_sharded(&run.bytes, 1), Err(ScenarioError::BadRecording)));
        assert!(matches!(
            big.debug_transcript_sharded(&run.bytes, "step\n", 1),
            Err(ScenarioError::BadRecording)
        ));
    }
}
