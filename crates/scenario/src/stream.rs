//! Streaming a production run's recording into a store while the run is
//! still in flight (`record --out`, DESIGN.md §12).

use defined_core::gvt::gvt_estimate;
use defined_core::rb::DeliveredCursor;
use defined_core::recorder::{CommitRecord, Recording, TickRecord};
use defined_core::wire::Wire;
use defined_core::RbNetwork;
use defined_obs as obs;
use defined_store::{FsyncPolicy, StoreError, StoreIo, StoreMeta, StoreWriter};
use netsim::NodeId;
use routing::ControlPlane;
use std::collections::{HashMap, HashSet};

/// Where the streamer stands in one node's logs. Valid for one incarnation
/// of the node: a restart replaces the shim (and both logs) wholesale.
#[derive(Clone, Copy, Default)]
struct NodeCursor {
    /// The node's restart count when the positions below were taken.
    restarts: u32,
    /// Position in the node's external-event log.
    ext: usize,
    /// Position in the node's delivered stream.
    delivered: DeliveredCursor,
}

/// Streams a production run's recording into an on-disk store *while the
/// run is in flight*, so a crash mid-run loses at most one inter-sync
/// window instead of the whole recording.
///
/// Only committed state is durable: the drain frontier trails the GVT
/// bound by a safety margin, so every streamed frame is below the
/// rollback floor and can never be invalidated by a later Time-Warp
/// rewind. The same invariant makes draining incremental: nothing at or
/// below a drained frontier is ever inserted, removed or reordered, so
/// each node's logs are consumed through a cursor and a drain costs what
/// was committed since the last one, not the run so far. Frames the
/// frontier never reached are appended at [`finish`](Self::finish) from
/// the final canonical recording.
pub(crate) struct StoreStreamer<X: Wire, Io: StoreIo> {
    w: StoreWriter<X, Io>,
    /// Streamed externals, keyed `(node, ext_seq)`, valued by group — the
    /// value lets [`finish`](Self::finish) detect a streamed frame the
    /// canonical recording no longer contains.
    seen_ext: HashMap<(NodeId, u64), u64>,
    /// Streamed ticks, keyed `(node, group)`, valued by beacon source.
    seen_ticks: HashMap<(NodeId, u64), NodeId>,
    frontier: u64,
    cursors: Vec<NodeCursor>,
}

impl<X: Wire, Io: StoreIo> StoreStreamer<X, Io> {
    pub(crate) fn create(io: Io, meta: &StoreMeta) -> Result<Self, StoreError> {
        Ok(StoreStreamer {
            w: StoreWriter::create(io, meta, FsyncPolicy::OnSync)?,
            seen_ext: HashMap::new(),
            seen_ticks: HashMap::new(),
            frontier: 0,
            cursors: vec![NodeCursor::default(); meta.n_nodes],
        })
    }

    /// Persists everything newly committed since the last drain and
    /// declares it durable with a sync point: externals node-major, then
    /// ticks node-major, each node's in log order.
    pub(crate) fn drain<P>(&mut self, net: &RbNetwork<P>) -> Result<(), StoreError>
    where
        P: ControlPlane<Ext = X> + 'static,
    {
        let f = gvt_estimate(net).saturating_sub(2);
        if f <= self.frontier {
            return Ok(());
        }
        // The span ends before the sync point, so `store.drain` (walk and
        // framing) and `store.fsync` partition the drain's cost.
        let span = obs::span!("store.drain");
        let StoreStreamer { w, seen_ext, seen_ticks, cursors, .. } = self;
        let sim = net.sim();
        // Work done, in log entries passed plus one per node visited — what
        // `store.drain.scanned` bounds to O(new commits).
        let mut scanned = cursors.len();
        let mut frames = 0u64;
        for (i, c) in cursors.iter_mut().enumerate() {
            let node = NodeId(i as u32);
            let restarts = sim.node_restarts(node);
            if c.restarts != restarts {
                // A fresh shim: its logs start over, and a stale position
                // that still fits them would silently skip their head.
                *c = NodeCursor { restarts, ..NodeCursor::default() };
            }
            let log = sim.process(node).ext_log();
            while let Some(e) = log.get(c.ext).filter(|e| e.group <= f) {
                c.ext += 1;
                scanned += 1;
                if seen_ext.insert((node, e.ext_seq), e.group).is_none() {
                    w.append_ext_fields(node, e.ext_seq, e.group, &e.payload)?;
                    frames += 1;
                }
            }
        }
        for (i, c) in cursors.iter_mut().enumerate() {
            let node = NodeId(i as u32);
            let next = sim.process(node).ticks_from(c.delivered, f, |group, source| {
                if seen_ticks.insert((node, group), source).is_none() {
                    w.append_tick(&TickRecord { node, group, source })?;
                    frames += 1;
                }
                Ok::<(), StoreError>(())
            })?;
            scanned += next.position() - c.delivered.position();
            c.delivered = next;
        }
        obs::counter!("store.drain.scanned").add(scanned as u64);
        obs::counter!("store.drain.frames").add(frames);
        drop(span);
        self.frontier = f;
        self.w.sync_point(f)
    }

    /// Appends whatever the streaming frontier never reached — straggler
    /// externals and ticks, the drops and death cuts (only knowable at
    /// finalisation) — then closes the store with the commit logs.
    ///
    /// One wrinkle: a node restart discards that node's pre-crash
    /// committed log (DESIGN.md §7), so frames this streamer durably wrote
    /// mid-run can be absent from the final canonical recording. The file
    /// is append-only, so when that happens the streamed content is
    /// retracted with a [`StoreWriter::reset`] tombstone and the canonical
    /// recording is appended whole — the finished store always opens to
    /// exactly `rec`, while a torn (pre-finish) file still recovers the
    /// streamed prefix, which was committed truth at the time it synced.
    pub(crate) fn finish(
        mut self,
        rec: &Recording<X>,
        commits: &[Vec<CommitRecord>],
        upto: u64,
    ) -> Result<(), StoreError> {
        let _span = obs::span!("store.finish");
        let rec_ext: HashSet<(NodeId, u64, u64)> =
            rec.externals.iter().map(|e| (e.node, e.ext_seq, e.group)).collect();
        let rec_ticks: HashSet<(NodeId, u64, NodeId)> =
            rec.ticks.iter().map(|t| (t.node, t.group, t.source)).collect();
        // Ticks past `last_group` are dropped on open regardless, so only
        // in-range stragglers count as superseded.
        let superseded = self
            .seen_ext
            .iter()
            .any(|(&(node, seq), &group)| !rec_ext.contains(&(node, seq, group)))
            || self.seen_ticks.iter().any(|(&(node, group), &source)| {
                group <= rec.last_group && !rec_ticks.contains(&(node, group, source))
            });
        if superseded {
            self.w.reset()?;
            self.seen_ext.clear();
            self.seen_ticks.clear();
        }
        for e in &rec.externals {
            if !self.seen_ext.contains_key(&(e.node, e.ext_seq)) {
                self.w.append_ext(e)?;
            }
        }
        for t in &rec.ticks {
            if !self.seen_ticks.contains_key(&(t.node, t.group)) {
                self.w.append_tick(t)?;
            }
        }
        for d in &rec.drops {
            self.w.append_drop(d)?;
        }
        for m in &rec.mutes {
            self.w.append_mute(m)?;
        }
        self.w.finish(rec.last_group, upto, commits)?;
        Ok(())
    }
}

#[cfg(test)]
impl<X: Wire, Io: StoreIo> StoreStreamer<X, Io> {
    /// The drain this module replaced, kept as the oracle the cursor drain
    /// must match byte for byte: clones and re-filters every node's whole
    /// logs on every call — O(run so far) per slice.
    fn drain_rescan<P>(&mut self, net: &RbNetwork<P>) -> Result<(), StoreError>
    where
        P: ControlPlane<Ext = X> + 'static,
    {
        use defined_core::EventClass;
        let f = gvt_estimate(net).saturating_sub(2);
        if f <= self.frontier {
            return Ok(());
        }
        for i in 0..net.sim().node_count() {
            let node = NodeId(i as u32);
            for e in net.sim().process(node).ext_log() {
                if e.group <= f && self.seen_ext.insert((node, e.ext_seq), e.group).is_none() {
                    self.w.append_ext_fields(node, e.ext_seq, e.group, &e.payload)?;
                }
            }
        }
        for (i, log) in net.commit_logs().iter().enumerate() {
            let node = NodeId(i as u32);
            for r in log {
                if r.ann.class == EventClass::Beacon
                    && r.ann.group <= f
                    && self.seen_ticks.insert((node, r.ann.group), r.ann.origin).is_none()
                {
                    self.w.append_tick(&TickRecord {
                        node,
                        group: r.ann.group,
                        source: r.ann.origin,
                    })?;
                }
            }
        }
        self.frontier = f;
        self.w.sync_point(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{with_protocol, ScenarioProtocol};
    use crate::registry::registry;
    use crate::spec::Fault;
    use crate::Scenario;
    use defined_core::config::CapturePolicy;
    use defined_core::recorder::trim_log;
    use defined_store::{open_bytes, FaultMode, FaultyIo};
    use netsim::SimTime;
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::{Mutex, MutexGuard};

    /// The tests here read process-global obs counters or drain many
    /// streamers off one run; serialise them so a delta is one test's own.
    fn serial_guard() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// An in-memory sink the test can read while a streamer owns a handle
    /// to it; remembers where every write (one per frame) ended.
    #[derive(Clone, Default)]
    struct SharedIo(Rc<RefCell<(Vec<u8>, Vec<usize>)>>);

    impl SharedIo {
        fn bytes(&self) -> Vec<u8> {
            self.0.borrow().0.clone()
        }

        fn write_ends(&self) -> Vec<usize> {
            self.0.borrow().1.clone()
        }
    }

    impl StoreIo for SharedIo {
        fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
            let mut tap = self.0.borrow_mut();
            tap.0.extend_from_slice(buf);
            let end = tap.0.len();
            tap.1.push(end);
            Ok(())
        }

        fn sync(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Something to do with a scenario's production network, whatever
    /// protocol it runs.
    trait NetCheck {
        fn run<P: ScenarioProtocol>(&mut self, scn: &Scenario, net: RbNetwork<P>);
    }

    fn with_production_net(scn: &Scenario, check: &mut impl NetCheck) {
        let g = scn.checked_build().expect("scenario validates");
        with_protocol!(scn, &g, |procs| {
            check.run(scn, scn.production_net(&g, procs).expect("builds"))
        })
    }

    /// What `record_typed` hands `finish`: the canonical recording, the
    /// commit logs trimmed to the comparison horizon, and that horizon.
    fn finalise<P>(net: RbNetwork<P>) -> (Recording<P::Ext>, Vec<Vec<CommitRecord>>, u64)
    where
        P: ControlPlane + 'static,
    {
        let upto = net.completed_group(2);
        let (rec, logs) = net.into_recording();
        let trimmed = logs.iter().map(|l| trim_log(l, upto)).collect();
        (rec, trimmed, upto)
    }

    /// A restart placed so that the fresh log outgrows the pre-crash
    /// cursor before the next drain: a streamer that spotted restarts by
    /// `len < cursor` would carry the stale position over and skip the new
    /// incarnation's first ticks.
    fn early_restart() -> Scenario {
        let mut scn = crate::find("rip-count-to-infinity").expect("registry scenario");
        scn.name = "early-restart".into();
        scn.faults = vec![
            Fault::NodeDown { at: SimTime::from_millis(1100), node: NodeId(1) },
            Fault::NodeUp { at: SimTime::from_millis(1300), node: NodeId(1) },
        ];
        scn
    }

    /// Drains a cursor streamer and the full-rescan oracle off the same
    /// run and holds their bytes equal after every slice and after
    /// `finish`, and the cursor streamer's work to what was committed.
    struct OracleCheck {
        restarts_seen: u32,
    }

    impl NetCheck for OracleCheck {
        fn run<P: ScenarioProtocol>(&mut self, scn: &Scenario, mut net: RbNetwork<P>) {
            let what = format!("{} seed {}", scn.name, scn.seed);
            let meta = scn.store_meta(&net);
            let (cursor_io, rescan_io) = (SharedIo::default(), SharedIo::default());
            let mut cursor = StoreStreamer::create(cursor_io.clone(), &meta).expect("create");
            let mut rescan = StoreStreamer::create(rescan_io.clone(), &meta).expect("create");
            let n = meta.n_nodes;
            let log_len = |net: &RbNetwork<P>, i: usize| {
                let shim = net.sim().process(NodeId(i as u32));
                shim.delivered_len() + shim.ext_log().len()
            };
            // Work budget: every log entry of every incarnation once…
            let (mut last_len, mut restarts, mut discarded) = (vec![0; n], vec![0; n], 0);
            let (mut slices, mut drains, mut written) = (0, 0, cursor_io.bytes().len());
            let scanned = || obs::global().snapshot().counter("store.drain.scanned");
            let before = scanned();
            scn.run_sliced(&mut net, |net| {
                slices += 1;
                cursor.drain(net)?;
                rescan.drain_rescan(net)?;
                let bytes = cursor_io.bytes();
                assert_eq!(bytes, rescan_io.bytes(), "{what}: streams differ after slice {slices}");
                drains += usize::from(bytes.len() > written);
                written = bytes.len();
                for i in 0..n {
                    let r = net.sim().node_restarts(NodeId(i as u32));
                    if r != restarts[i] {
                        restarts[i] = r;
                        discarded += last_len[i];
                    }
                    last_len[i] = log_len(net, i);
                }
                Ok(())
            })
            .expect("in-memory sinks cannot fail");
            // …plus one unit per node per drain that advanced the frontier.
            let budget = (0..n).map(|i| log_len(&net, i)).sum::<usize>() + discarded + n * drains;
            let work = scanned() - before;
            assert!(drains >= 2, "{what}: only {drains} drain(s) advanced");
            assert!(
                work <= budget as u64,
                "{what}: {work} log entries scanned over {drains} drains, budget {budget}"
            );
            self.restarts_seen += restarts.iter().sum::<u32>();

            let (rec, trimmed, upto) = finalise(net);
            cursor.finish(&rec, &trimmed, upto).expect("finish");
            rescan.finish(&rec, &trimmed, upto).expect("finish");
            let bytes = cursor_io.bytes();
            assert_eq!(bytes, rescan_io.bytes(), "{what}: finished stores differ");
            let opened = open_bytes::<P::Ext>(&bytes).expect("finished store opens");
            assert!(opened.info.finished);
            assert_eq!(opened.recording, rec, "{what}: store does not open to the recording");
        }
    }

    #[test]
    fn cursor_drain_matches_the_full_rescan_slice_by_slice_within_its_work_bound() {
        let _serial = serial_guard();
        let mut check = OracleCheck { restarts_seen: 0 };
        // Every run captures adaptively: the policy may not change what
        // commits, and at `Every(1)` the one `ospf-flood-storm` run costs
        // minutes in a debug build (`tests/scenario_matrix.rs` streams the
        // registry as registered).
        for scn in registry().into_iter().chain([early_restart()]) {
            for seed in [scn.seed, 11, 12] {
                let scn = scn.clone().with_seed(seed).with_capture(CapturePolicy::auto());
                with_production_net(&scn, &mut check);
            }
        }
        assert!(check.restarts_seen >= 6, "both restart scenarios must restart on every seed");
    }

    /// The recording a durable prefix at sync point `g` must equal (the
    /// `prefix_of` of `tests/store_recovery.rs`), with `skip`ped nodes
    /// left out of the comparison.
    fn prefix_of<X: Clone>(rec: &Recording<X>, g: u64, skip: &[NodeId]) -> Recording<X> {
        Recording {
            n_nodes: rec.n_nodes,
            source: rec.source,
            externals: (rec.externals.iter())
                .filter(|e| e.group <= g && !skip.contains(&e.node))
                .cloned()
                .collect(),
            drops: Vec::new(),
            mutes: Vec::new(),
            ticks: (rec.ticks.iter())
                .filter(|t| t.group <= g && !skip.contains(&t.node))
                .cloned()
                .collect(),
            last_group: g,
        }
    }

    /// Learns a clean streamed run's write layout, then re-runs the
    /// scenario with one streamer per injected fault — in the streaming
    /// phase and in every part of `finish` — all draining the same
    /// network.
    struct FaultCheck {
        /// Write counts of the clean run: `(while streaming, in all)`.
        layout: Option<(usize, usize)>,
        clean: Vec<u8>,
        write_ends: Vec<usize>,
        rollbacks: u64,
    }

    impl NetCheck for FaultCheck {
        fn run<P: ScenarioProtocol>(&mut self, scn: &Scenario, mut net: RbNetwork<P>) {
            let meta = scn.store_meta(&net);
            let Some((streamed, total)) = self.layout else {
                let io = SharedIo::default();
                let mut s = StoreStreamer::create(io.clone(), &meta).expect("create");
                scn.run_sliced(&mut net, |net| s.drain(net)).expect("clean run");
                let streamed = io.write_ends().len();
                self.rollbacks = net.total_metrics().rollbacks;
                let (rec, trimmed, upto) = finalise(net);
                s.finish(&rec, &trimmed, upto).expect("clean finish");
                self.write_ends = io.write_ends();
                self.clean = io.bytes();
                self.layout = Some((streamed, self.write_ends.len()));
                if scn.has_restart() {
                    // The tombstone, the whole recording again, the closing segment.
                    let reappended = rec.externals.len() + rec.ticks.len() + rec.drops.len();
                    let closing = rec.mutes.len() + meta.n_nodes + 1;
                    assert_eq!(
                        self.write_ends.len() - streamed,
                        1 + reappended + closing,
                        "{}: the restart must force a RESET and a full re-append",
                        scn.name
                    );
                }
                return;
            };
            assert!(streamed > 12 && total > streamed + 4, "{}: run too small", scn.name);
            // 1-based write indices: before the first sync point, through
            // the stream, the last streamed sync, the first frame of
            // `finish` (the RESET tombstone when there is one), inside the
            // re-append, the closing segment, the terminal frame.
            let nths = [
                2,
                streamed / 3,
                2 * streamed / 3,
                streamed,
                streamed + 1,
                streamed + 2,
                (streamed + total) / 2,
                total - 1,
                total,
            ];
            let modes: Vec<FaultMode> = nths
                .iter()
                .flat_map(|&nth| {
                    let end = self.write_ends[nth - 1];
                    [
                        FaultMode::FailWrite { nth },
                        FaultMode::ShortWrite { nth, keep: 3 },
                        FaultMode::KillAfter { bytes: end - 2 },
                    ]
                })
                .collect();
            let mut ios: Vec<FaultyIo> = modes.iter().map(|&m| FaultyIo::new(m)).collect();
            // A streamer lives until its first error, which is kept.
            let mut cases: Vec<Result<StoreStreamer<P::Ext, &mut FaultyIo>, StoreError>> =
                ios.iter_mut().map(|io| StoreStreamer::create(io, &meta)).collect();
            scn.run_sliced(&mut net, |net| {
                for case in &mut cases {
                    if let Ok(s) = case {
                        if let Err(e) = s.drain(net) {
                            *case = Err(e);
                        }
                    }
                }
                Ok(())
            })
            .expect("faults are kept per case");
            let (rec, trimmed, upto) = finalise(net);
            let outcomes: Vec<Result<(), StoreError>> = cases
                .into_iter()
                .map(|case| case.and_then(|s| s.finish(&rec, &trimmed, upto)))
                .collect();

            let restarted: Vec<NodeId> = (scn.faults.iter())
                .filter_map(|f| match f {
                    Fault::NodeUp { node, .. } => Some(*node),
                    _ => None,
                })
                .collect();
            let mut recovered_mid_stream = 0;
            for ((mode, io), outcome) in modes.iter().zip(&ios).zip(&outcomes) {
                let what = format!("{} under {mode:?}", scn.name);
                match mode {
                    FaultMode::KillAfter { .. } => {
                        assert!(outcome.is_ok(), "{what}: a lying sink reports success")
                    }
                    _ => assert!(
                        matches!(outcome, Err(StoreError::Io(_))),
                        "{what}: expected a typed I/O error, got {outcome:?}"
                    ),
                }
                let persisted = io.persisted();
                assert!(persisted.len() < self.clean.len(), "{what}: nothing was lost");
                assert_eq!(
                    persisted,
                    &self.clean[..persisted.len()],
                    "{what}: wrote on past the fault, or wrote something else"
                );
                match open_bytes::<P::Ext>(persisted) {
                    Ok(r) => {
                        assert!(!r.info.finished, "{what}: a torn store passed as finished");
                        let g = r.recording.last_group;
                        // A restarted node's pre-crash frames were committed
                        // truth when they synced, but the final recording
                        // disowns them: compare the other nodes.
                        assert_eq!(
                            prefix_of(&r.recording, g, &restarted),
                            prefix_of(&rec, g, &restarted),
                            "{what}: recovered prefix at group {g} is not the recording's"
                        );
                        recovered_mid_stream += usize::from(g > 0);
                    }
                    Err(e) => assert!(!e.to_string().is_empty(), "{what}"),
                }
            }
            assert!(
                recovered_mid_stream >= modes.len() / 2,
                "{}: only {recovered_mid_stream} of {} faults recovered a streamed prefix",
                scn.name,
                modes.len()
            );
            assert!(self.rollbacks > 0, "{}: the streamed run must roll back", scn.name);
        }
    }

    #[test]
    fn faults_injected_mid_stream_yield_typed_errors_and_recoverable_prefixes() {
        let _serial = serial_guard();
        // Rollback-heavy OSPF with a death cut; then the restart scenario,
        // whose `finish` tombstones the stream and re-appends it whole.
        for name in ["ba-hub-crash", "bgp-churn"] {
            let scn = crate::find(name).expect("registry scenario");
            let mut check = FaultCheck {
                layout: None,
                clean: Vec::new(),
                write_ends: Vec::new(),
                rollbacks: 0,
            };
            with_production_net(&scn, &mut check); // learn the layout
            with_production_net(&scn, &mut check); // inject
        }
    }
}
