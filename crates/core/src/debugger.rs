//! The interactive debugging front-end over DEFINED-LS (paper §2.1, §4).
//!
//! A human troubleshooter loads a production recording into a debugging
//! network, steps through events at chosen granularity, inspects and
//! manipulates node state, sets breakpoints on state predicates, and
//! validates patches in place — the workflow of both case studies.
//!
//! # Reverse execution
//!
//! With time travel enabled the debugger also steps *backward*:
//! [`Debugger::reverse_step`], [`Debugger::reverse_continue`], and
//! [`Debugger::goto`]. The engine takes a whole-network checkpoint
//! ([`crate::ls::LsImage`], stored page-diffed in a
//! [`checkpoint::Timeline`]) every `interval` delivered events; any
//! backward jump rewinds to the nearest checkpoint at or before the target
//! and re-executes forward at most `interval` events. Because the lockstep
//! replay is deterministic (Theorem 1), the re-executed prefix — logs,
//! state, and transcript — is byte-identical to the original pass, so
//! rewind cost is O(checkpoint interval), not O(run length).
//!
//! Every backward jump goes through one rewind: the timeline hands back the
//! checkpoint's bytes undecoded, and [`LockstepNet::rewind_from_bytes`]
//! decodes only the node states whose version differs from the live ones,
//! keeping the staged wave in place when it is still the same wave — so a
//! short jump pays for the state that changed, not for the whole network.

use crate::ls::{LockstepNet, LsEvent, LsImage};
use crate::recorder::CommitRecord;
use crate::wire::Wire;
use checkpoint::{MemStats, RetentionPolicy, Strategy, Timeline};
use netsim::NodeId;
use routing::ControlPlane;

/// Stepping granularity (§2.1: "steps may be chosen at various levels of
/// granularity").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepGranularity {
    /// One delivered event.
    Event,
    /// All events of one group (one full beacon interval).
    Group,
}

/// Outcome of a debugger step.
#[derive(Clone, Debug)]
pub struct StepReport {
    /// Events delivered during the step.
    pub events: Vec<LsEvent>,
    /// Group after the step.
    pub group: u64,
    /// True if a breakpoint fired during the step (stepping stopped there).
    pub hit_breakpoint: bool,
    /// Watches whose projected value changed during the step:
    /// `(watch label, old value, new value)`.
    pub watch_changes: Vec<(String, u64, u64)>,
}

type Predicate<P> = Box<dyn Fn(&LsEvent, &LockstepNet<P>) -> bool>;
type Projection<P> = Box<dyn Fn(&LockstepNet<P>) -> u64>;

struct Watch<P: ControlPlane> {
    label: String,
    project: Projection<P>,
    last: u64,
}

/// Why a time-travel request could not be satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimeTravelError {
    /// Time travel was never enabled on this debugger.
    Disabled,
    /// The target position precedes the earliest retained checkpoint.
    BeforeHistory,
}

impl std::fmt::Display for TimeTravelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimeTravelError::Disabled => write!(f, "time travel is not enabled"),
            TimeTravelError::BeforeHistory => {
                write!(f, "target precedes the earliest retained checkpoint")
            }
        }
    }
}

impl std::error::Error for TimeTravelError {}

/// The reverse-execution engine: a position-keyed checkpoint timeline plus
/// the cadence it is filled at.
struct TimeTravel<P: ControlPlane> {
    interval: u64,
    timeline: Timeline<LsImage<P>>,
    /// Events re-executed by the most recent backward jump (bounded by the
    /// retained checkpoint spacing — the O(interval) claim, observable).
    last_rewind_replayed: u64,
    /// The restored checkpoint's bytes, reused across rewinds.
    bytes: Vec<u8>,
}

/// An interactive debugger session.
pub struct Debugger<P: ControlPlane> {
    net: LockstepNet<P>,
    breakpoints: Vec<Predicate<P>>,
    watches: Vec<Watch<P>>,
    delivered: u64,
    travel: Option<TimeTravel<P>>,
}

impl<P: ControlPlane> Debugger<P> {
    /// Wraps a loaded debugging network.
    pub fn new(net: LockstepNet<P>) -> Self {
        Debugger { net, breakpoints: Vec::new(), watches: Vec::new(), delivered: 0, travel: None }
    }

    /// The underlying lockstep network.
    pub fn net(&self) -> &LockstepNet<P> {
        &self.net
    }

    /// Total events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Registers a breakpoint; stepping stops after an event for which the
    /// predicate returns true.
    pub fn add_breakpoint(&mut self, pred: impl Fn(&LsEvent, &LockstepNet<P>) -> bool + 'static) {
        self.breakpoints.push(Box::new(pred));
    }

    /// Removes every registered breakpoint.
    pub fn clear_breakpoints(&mut self) {
        self.breakpoints.clear();
    }

    /// Registers a watch: `project` extracts a value (e.g. a route's next
    /// hop, a table digest) from the network; every step reports the
    /// watches whose value changed — a distributed watchpoint.
    pub fn add_watch(
        &mut self,
        label: impl Into<String>,
        project: impl Fn(&LockstepNet<P>) -> u64 + 'static,
    ) {
        let last = project(&self.net);
        self.watches.push(Watch { label: label.into(), project: Box::new(project), last });
    }

    /// Removes every registered watch.
    pub fn clear_watches(&mut self) {
        self.watches.clear();
    }

    fn poll_watches(&mut self) -> Vec<(String, u64, u64)> {
        let mut changes = Vec::new();
        for w in &mut self.watches {
            let now = (w.project)(&self.net);
            if now != w.last {
                changes.push((w.label.clone(), w.last, now));
                w.last = now;
            }
        }
        changes
    }

    /// Re-baselines every watch against the current state (after a
    /// navigation jump, so the next change report compares against the
    /// landed-on position, not the departed-from one).
    fn reprime_watches(&mut self) {
        for w in &mut self.watches {
            w.last = (w.project)(&self.net);
        }
    }

    /// Inspects a node's control-plane state.
    pub fn inspect(&self, node: NodeId) -> &P {
        self.net.control_plane(node)
    }

    /// Manipulates a node's state in place (e.g. applying a candidate patch
    /// before validating it, as in the case studies).
    pub fn patch(&mut self, node: NodeId, f: impl FnOnce(&mut P)) {
        f(self.net.control_plane_mut(node));
    }

    /// Steps once at the given granularity.
    ///
    /// Returns `None` when the recording is exhausted.
    pub fn step(&mut self, granularity: StepGranularity) -> Option<StepReport>
    where
        P::Msg: Wire,
        P::Ext: Wire,
    {
        match granularity {
            StepGranularity::Event => {
                let ev = self.advance()?;
                let hit = self.breakpoints.iter().any(|p| p(&ev, &self.net));
                let watch_changes = self.poll_watches();
                Some(StepReport {
                    group: self.net.current_group(),
                    events: vec![ev],
                    hit_breakpoint: hit,
                    watch_changes,
                })
            }
            StepGranularity::Group => {
                let start_group = self.net.current_group();
                let mut events = Vec::new();
                let mut hit = false;
                let mut watch_changes = Vec::new();
                loop {
                    if self.net.is_done() {
                        break;
                    }
                    // Stop before crossing into the next group.
                    let Some(ev) = self.advance() else { break };
                    let fired = self.breakpoints.iter().any(|p| p(&ev, &self.net));
                    let group_now = self.net.current_group();
                    events.push(ev);
                    watch_changes.extend(self.poll_watches());
                    if fired {
                        hit = true;
                        break;
                    }
                    if group_now > start_group.max(1) {
                        break;
                    }
                }
                if events.is_empty() {
                    None
                } else {
                    Some(StepReport {
                        group: self.net.current_group(),
                        events,
                        hit_breakpoint: hit,
                        watch_changes,
                    })
                }
            }
        }
    }

    /// Runs until any watch value changes or the recording ends; returns
    /// the triggering event and the changes.
    #[allow(clippy::type_complexity)]
    pub fn run_until_watch_change(&mut self) -> Option<(LsEvent, Vec<(String, u64, u64)>)>
    where
        P::Msg: Wire,
        P::Ext: Wire,
    {
        loop {
            let ev = self.advance()?;
            let changes = self.poll_watches();
            if !changes.is_empty() {
                return Some((ev, changes));
            }
        }
    }

    /// Runs until a breakpoint fires or the recording ends; returns the
    /// triggering event if any.
    pub fn run_until_break(&mut self) -> Option<LsEvent>
    where
        P::Msg: Wire,
        P::Ext: Wire,
    {
        loop {
            let ev = self.advance()?;
            if self.breakpoints.iter().any(|p| p(&ev, &self.net)) {
                return Some(ev);
            }
        }
    }

    /// Runs the rest of the recording; returns per-node logs.
    pub fn run_to_end(&mut self) -> Vec<Vec<CommitRecord>>
    where
        P::Msg: Wire,
        P::Ext: Wire,
    {
        while self.advance().is_some() {}
        self.net.logs().to_vec()
    }
}

/// Reverse execution. Requires [`Wire`] codecs for the protocol's message
/// and external payload types so in-flight messages checkpoint with the
/// rest of the network image.
impl<P> Debugger<P>
where
    P: ControlPlane,
    P::Msg: Wire,
    P::Ext: Wire,
{
    /// Enables time travel: a whole-network checkpoint every `interval`
    /// delivered events (plus one immediately, anchoring the reachable
    /// history at the current position), stored under `strategy` and
    /// thinned per `policy`.
    ///
    /// Smaller intervals rewind faster but checkpoint more often; see
    /// DESIGN.md §8 for the cadence/latency trade-off.
    pub fn enable_time_travel(
        &mut self,
        interval: u64,
        strategy: Strategy,
        policy: RetentionPolicy,
    ) {
        let mut timeline = Timeline::new(strategy, policy);
        timeline.record(self.delivered, &self.net.capture_image());
        self.travel = Some(TimeTravel {
            interval: interval.max(1),
            timeline,
            last_rewind_replayed: 0,
            bytes: Vec::new(),
        });
    }

    /// Whether reverse execution is available.
    pub fn time_travel_enabled(&self) -> bool {
        self.travel.is_some()
    }

    /// The checkpoint cadence, when time travel is enabled.
    pub fn checkpoint_interval(&self) -> Option<u64> {
        self.travel.as_ref().map(|t| t.interval)
    }

    /// Events re-executed by the most recent backward jump — bounded by the
    /// retained checkpoint spacing, never by the run length.
    pub fn last_rewind_replayed(&self) -> u64 {
        self.travel.as_ref().map(|t| t.last_rewind_replayed).unwrap_or(0)
    }

    /// Memory statistics of the checkpoint timeline.
    pub fn timeline_stats(&self) -> Option<MemStats> {
        self.travel.as_ref().map(|t| t.timeline.stats())
    }

    /// Delivers one event and checkpoints when the cadence comes due.
    fn advance(&mut self) -> Option<LsEvent> {
        let ev = self.net.step_event()?;
        self.delivered += 1;
        if let Some(t) = &mut self.travel {
            if self.delivered.is_multiple_of(t.interval) && !t.timeline.contains(self.delivered) {
                t.timeline.record(self.delivered, &self.net.capture_image());
            }
        }
        Some(ev)
    }

    /// Rewinds the network to the retained checkpoint nearest at or before
    /// `position` and returns that checkpoint's position, or `None` when
    /// nothing that early is retained. The one backward path of every jump.
    fn rewind_at_or_before(&mut self, position: u64) -> Result<Option<u64>, TimeTravelError> {
        let t = self.travel.as_mut().ok_or(TimeTravelError::Disabled)?;
        let Some(at) = t.timeline.restore_bytes_at_or_before(position, &mut t.bytes) else {
            return Ok(None);
        };
        if self.net.rewind_from_bytes(&t.bytes).is_none() {
            return Ok(None);
        }
        self.delivered = at;
        Ok(Some(at))
    }

    /// Jumps to `target` (an absolute delivered-event position), in either
    /// direction, and returns the position landed on.
    ///
    /// Forward jumps re-execute from here. Backward jumps restore the
    /// nearest checkpoint at or before `target` and re-execute forward —
    /// O(checkpoint interval) work. Navigation re-execution does not fire
    /// breakpoints or watch reports; watches are re-baselined at the
    /// landing position. A forward target past the end of the recording
    /// lands at the end.
    pub fn goto(&mut self, target: u64) -> Result<u64, TimeTravelError> {
        if target < self.delivered {
            self.rewind_at_or_before(target)?.ok_or(TimeTravelError::BeforeHistory)?;
            let mut replayed = 0u64;
            while self.delivered < target && self.advance().is_some() {
                replayed += 1;
            }
            if let Some(t) = &mut self.travel {
                t.last_rewind_replayed = replayed;
            }
        } else {
            while self.delivered < target && self.advance().is_some() {}
        }
        self.reprime_watches();
        Ok(self.delivered)
    }

    /// Steps `n` events backward (clamped at the earliest retained
    /// checkpoint's position); returns the position landed on.
    pub fn reverse_step(&mut self, n: u64) -> Result<u64, TimeTravelError> {
        match self.goto(self.delivered.saturating_sub(n)) {
            Err(TimeTravelError::BeforeHistory) => {
                // Clamp to the earliest reachable position instead of
                // failing: "step as far back as you can".
                let earliest = self
                    .travel
                    .as_ref()
                    .and_then(|t| t.timeline.positions().next())
                    .ok_or(TimeTravelError::Disabled)?;
                self.goto(earliest)
            }
            r => r,
        }
    }

    /// Runs *backward* to the most recent earlier event at which a
    /// breakpoint fired or a watch value changed (in either direction of
    /// the value), landing just after that event.
    ///
    /// Returns the triggering event and the watch changes observed at it,
    /// or `Ok(None)` after landing at the start of retained history with
    /// no hit. Scanning restores checkpoint segments and replays them
    /// forward, newest segment first, so the cost is proportional to the
    /// distance travelled, not the run length.
    #[allow(clippy::type_complexity)]
    pub fn reverse_continue(
        &mut self,
    ) -> Result<Option<(LsEvent, Vec<(String, u64, u64)>)>, TimeTravelError> {
        if self.travel.is_none() {
            return Err(TimeTravelError::Disabled);
        }
        let origin = self.delivered;
        let mut upper = origin;
        loop {
            let Some(before) = upper.checked_sub(1) else {
                // Scanned all the way down to position 0 with no hit; land
                // there (the scan itself left us at the top of the last
                // segment).
                self.goto(0)?;
                return Ok(None);
            };
            let Some(seg_start) = self.rewind_at_or_before(before)? else {
                // Everything at or below `upper` is out of retained
                // history; stay where the scan left us (== `upper`).
                self.goto(upper)?;
                return Ok(None);
            };
            self.reprime_watches();
            // Scan positions (seg_start, upper], recording the *last* hit
            // strictly before the origin.
            let mut hit: Option<(u64, LsEvent, Vec<(String, u64, u64)>)> = None;
            while self.delivered < upper {
                let Some(ev) = self.advance() else { break };
                let fired = self.breakpoints.iter().any(|p| p(&ev, &self.net));
                let changes = self.poll_watches();
                if (fired || !changes.is_empty()) && self.delivered < origin {
                    hit = Some((self.delivered, ev, changes));
                }
            }
            if let Some((pos, ev, changes)) = hit {
                self.goto(pos)?;
                return Ok(Some((ev, changes)));
            }
            upper = seg_start;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DefinedConfig;
    use crate::harness::RbNetwork;
    use crate::order::EventClass;
    use netsim::{SimDuration, SimTime};
    use routing::ospf::{OspfConfig, OspfProcess};
    use topology::canonical;

    fn session() -> Debugger<OspfProcess> {
        let g = canonical::ring(4, SimDuration::from_millis(4));
        let cfg = DefinedConfig::default();
        let f = OspfProcess::for_graph(&g, OspfConfig::stress(4));
        let spawn: Vec<OspfProcess> = (0..4).map(|i| f(NodeId(i))).collect();
        let s2 = spawn.clone();
        let mut net = RbNetwork::new(&g, cfg.clone(), 6, 0.3, move |id| spawn[id.index()].clone());
        net.run_until(SimTime::from_secs(4));
        let (rec, _) = net.into_recording();
        Debugger::new(LockstepNet::new(&g, cfg, rec, move |id| s2[id.index()].clone()))
    }

    #[test]
    fn event_stepping_advances_one_at_a_time() {
        let mut dbg = session();
        let r1 = dbg.step(StepGranularity::Event).expect("first event");
        assert_eq!(r1.events.len(), 1);
        assert_eq!(dbg.delivered(), 1);
        let r2 = dbg.step(StepGranularity::Event).expect("second event");
        assert_eq!(r2.events.len(), 1);
        assert_eq!(dbg.delivered(), 2);
    }

    #[test]
    fn group_stepping_covers_whole_groups() {
        let mut dbg = session();
        let r = dbg.step(StepGranularity::Group).expect("group step");
        assert!(r.events.len() >= 4, "a group includes at least all beacon ticks");
        assert!(!r.hit_breakpoint);
    }

    #[test]
    fn breakpoints_stop_stepping() {
        let mut dbg = session();
        // Break on the first beacon tick of group 3.
        dbg.add_breakpoint(|ev, _| {
            ev.record.ann.class == EventClass::Beacon && ev.record.ann.group == 3
        });
        let hit = dbg.run_until_break().expect("breakpoint should fire");
        assert_eq!(hit.record.ann.group, 3);
        assert_eq!(hit.record.ann.class, EventClass::Beacon);
    }

    #[test]
    fn inspect_and_patch_state() {
        let mut dbg = session();
        // Run a while so adjacencies form.
        for _ in 0..60 {
            if dbg.step(StepGranularity::Event).is_none() {
                break;
            }
        }
        let before = dbg.inspect(NodeId(1)).up_neighbors().len();
        assert!(before > 0, "adjacency should have formed");
        // Patch does run against the live state.
        let mut seen = 0;
        dbg.patch(NodeId(1), |cp| {
            seen = cp.up_neighbors().len();
        });
        assert_eq!(seen, before);
    }

    #[test]
    fn watches_report_state_changes() {
        let mut dbg = session();
        // Watch node 1's adjacency count.
        dbg.add_watch("n1 adjacencies", |net| {
            net.control_plane(NodeId(1)).up_neighbors().len() as u64
        });
        let (ev, changes) = dbg.run_until_watch_change().expect("adjacency forms");
        assert_eq!(changes.len(), 1);
        let (label, old, new) = &changes[0];
        assert_eq!(label, "n1 adjacencies");
        assert!(new > old, "adjacency count grew: {old} -> {new}");
        // The triggering event is a delivery at node 1 — the state that
        // changed belongs to it.
        assert_eq!(ev.node, NodeId(1));
    }

    #[test]
    fn watches_are_quiet_when_state_is_stable() {
        let mut dbg = session();
        // A constant projection never fires.
        dbg.add_watch("constant", |_| 42);
        for _ in 0..30 {
            let Some(r) = dbg.step(StepGranularity::Event) else { break };
            assert!(r.watch_changes.is_empty());
        }
        dbg.clear_watches();
        assert!(dbg.run_until_watch_change().is_none());
    }

    #[test]
    fn run_to_end_consumes_everything() {
        let mut dbg = session();
        let logs = dbg.run_to_end();
        assert_eq!(logs.len(), 4);
        assert!(dbg.net().is_done());
        assert!(dbg.delivered() > 50);
        assert!(dbg.step(StepGranularity::Event).is_none());
    }

    fn travel_session(interval: u64) -> Debugger<OspfProcess> {
        let mut dbg = session();
        dbg.enable_time_travel(
            interval,
            checkpoint::Strategy::MemIntercept,
            checkpoint::RetentionPolicy::default(),
        );
        dbg
    }

    fn event_keys(r: &StepReport) -> Vec<(u64, u32, NodeId, u64)> {
        r.events
            .iter()
            .map(|e| (e.group, e.chain, e.node, e.record.payload_digest))
            .collect()
    }

    /// Forward → reverse → forward reproduces the same events (Theorem 1
    /// applied twice).
    #[test]
    fn reverse_step_then_forward_is_byte_identical() {
        let mut dbg = travel_session(8);
        let first: Vec<_> = (0..40)
            .map(|_| event_keys(&dbg.step(StepGranularity::Event).expect("events")))
            .collect();
        assert_eq!(dbg.reverse_step(25), Ok(15));
        assert!(
            dbg.last_rewind_replayed() < 8,
            "rewind replayed {} events, more than the interval",
            dbg.last_rewind_replayed()
        );
        let again: Vec<_> = (0..25)
            .map(|_| event_keys(&dbg.step(StepGranularity::Event).expect("events")))
            .collect();
        assert_eq!(again, first[15..], "re-executed events diverged");
        assert_eq!(dbg.delivered(), 40);
    }

    #[test]
    fn goto_jumps_both_directions_and_clamps_at_the_end() {
        let mut dbg = travel_session(16);
        let full = dbg.run_to_end();
        let end = dbg.delivered();
        assert_eq!(dbg.goto(0), Ok(0));
        assert!(dbg.net().logs().iter().all(|l| l.is_empty()), "goto 0 rewinds the logs");
        assert_eq!(dbg.goto(end + 1000), Ok(end), "past-the-end forward goto lands at the end");
        assert_eq!(dbg.run_to_end(), full, "round trip through position 0 diverged");
        // Backward jumps re-execute at most one checkpoint interval.
        assert_eq!(dbg.goto(end / 2), Ok(end / 2));
        assert!(dbg.last_rewind_replayed() < 16);
    }

    #[test]
    fn reverse_continue_finds_the_last_watch_change() {
        let mut dbg = travel_session(8);
        let adjacencies =
            |net: &LockstepNet<OspfProcess>| net.control_plane(NodeId(2)).up_neighbors().len() as u64;
        dbg.add_watch("n2 adjacencies", adjacencies);
        // Run forward long enough for the adjacency count to settle.
        for _ in 0..120 {
            if dbg.step(StepGranularity::Event).is_none() {
                break;
            }
        }
        let here = dbg.delivered();
        let (ev, changes) = dbg
            .reverse_continue()
            .expect("time travel on")
            .expect("adjacency changed somewhere behind us");
        assert!(dbg.delivered() < here);
        assert_eq!(ev.node, NodeId(2), "the change happened at the watched node");
        assert_eq!(changes.len(), 1);
        let stop_at = dbg.delivered();
        // The hit is the *most recent* change: re-running forward from just
        // after it up to `here` must not change the watch again.
        while dbg.delivered() < here {
            let r = dbg.step(StepGranularity::Event).expect("replayable");
            assert!(r.watch_changes.is_empty(), "a later change existed: {:?}", r.watch_changes);
        }
        // Reverse again from the stop position: the next hit (the same
        // value changing in the other direction of travel) is strictly
        // earlier.
        dbg.goto(stop_at).unwrap();
        if let Some(_hit) = dbg.reverse_continue().expect("enabled") {
            assert!(dbg.delivered() < stop_at);
        }
    }

    #[test]
    fn reverse_continue_respects_breakpoints() {
        let mut dbg = travel_session(8);
        dbg.run_to_end();
        let end = dbg.delivered();
        dbg.add_breakpoint(|ev, _| {
            ev.record.ann.class == EventClass::Beacon && ev.record.ann.group == 3
        });
        let (ev, changes) = dbg.reverse_continue().expect("enabled").expect("group 3 is behind");
        assert_eq!(ev.record.ann.group, 3);
        assert_eq!(ev.record.ann.class, EventClass::Beacon);
        assert!(changes.is_empty(), "no watches registered");
        assert!(dbg.delivered() < end);
        // It stopped at the *last* matching event: no later beacon of
        // group 3 exists between here and the end.
        let here = dbg.delivered();
        let later = dbg.run_until_break();
        assert!(later.is_none(), "found a later group-3 beacon after position {here}");
    }

    #[test]
    fn reverse_continue_without_hits_lands_at_history_start() {
        let mut dbg = travel_session(8);
        for _ in 0..30 {
            dbg.step(StepGranularity::Event);
        }
        // No breakpoints, no watches: scan the whole history, land at 0.
        assert_eq!(dbg.reverse_continue(), Ok(None));
        assert_eq!(dbg.delivered(), 0);
        // At position 0, reverse-continue is a no-op.
        assert_eq!(dbg.reverse_continue(), Ok(None));
        assert_eq!(dbg.delivered(), 0);
    }

    #[test]
    fn time_travel_disabled_errors() {
        let mut dbg = session();
        for _ in 0..10 {
            dbg.step(StepGranularity::Event);
        }
        assert_eq!(dbg.goto(2), Err(TimeTravelError::Disabled));
        assert_eq!(dbg.reverse_step(1), Err(TimeTravelError::Disabled));
        assert_eq!(dbg.reverse_continue(), Err(TimeTravelError::Disabled));
        assert!(dbg.timeline_stats().is_none());
        // Forward goto works without checkpoints.
        assert_eq!(dbg.goto(15), Ok(15));
    }

    #[test]
    fn late_enable_bounds_reachable_history() {
        let mut dbg = session();
        for _ in 0..20 {
            dbg.step(StepGranularity::Event);
        }
        dbg.enable_time_travel(
            8,
            checkpoint::Strategy::Fork,
            checkpoint::RetentionPolicy::default(),
        );
        for _ in 0..20 {
            dbg.step(StepGranularity::Event);
        }
        // Position 5 precedes the anchor (20): unreachable.
        assert_eq!(dbg.goto(5), Err(TimeTravelError::BeforeHistory));
        // reverse_step clamps at the anchor instead.
        assert_eq!(dbg.reverse_step(10_000), Ok(20));
    }

    #[test]
    fn watches_reprime_across_jumps() {
        let mut dbg = travel_session(8);
        dbg.add_watch("n1 state", |net| {
            crate::order::debug_digest(net.control_plane(NodeId(1)))
        });
        for _ in 0..60 {
            dbg.step(StepGranularity::Event);
        }
        // Jumping must not report the jump itself as a watch change: the
        // next step's report reflects only that step.
        dbg.reverse_step(30).unwrap();
        let r = dbg.step(StepGranularity::Event).expect("events");
        for (label, old, new) in &r.watch_changes {
            assert_ne!(old, new, "self-change reported for {label}");
        }
    }
}
