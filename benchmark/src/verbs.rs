//! Every call the benchmark makes into the repo's crates lives in this
//! file, in the form `src/bin/defined-dbg.rs` (or, for layer probes, the
//! scenario engine) itself uses. When ROADMAP item 3 renames or merges an
//! entry point, re-pointing the benchmark is an edit here and nowhere
//! else. `README.md` lists what is called.

use crate::metrics::Values;
use crate::spans::Spans;
use defined::checkpoint::{Checkpointer, RetentionPolicy, Snapshotable, Strategy, Timeline};
use defined::core::debugger::Debugger;
use defined::core::harness::baseline_network;
use defined::core::ls::first_divergence;
use defined::core::recorder::{trim_log, CommitRecord, Recording};
use defined::core::session::DebugSession;
use defined::core::wire::Wire;
use defined::core::{DefinedConfig, FarmConfig, LockstepNet};
use defined::netsim::{
    LinkParams, LossModel, NodeId, Process, ProcessCtx, SimBuilder, SimDuration, SimTime,
};
use defined::obs;
use defined::routing::bgp::{BgpExt, BgpProcess};
use defined::routing::ospf::OspfProcess;
use defined::routing::rip::{RipExt, RipProcess};
use defined::routing::ControlPlane;
use defined::scenario::{self, ExtSpec, Fault, ProtocolSpec};
use defined::store::{self, FileIo, FsyncPolicy, StoreMeta, VecIo};
use defined::topology::Graph;
use std::hint::black_box;
use std::path::Path;

pub use defined::obs::Snapshot;
pub use defined::scenario::{RecordedRun, Scenario};

/// Per-node committed delivery logs.
pub type Logs = Vec<Vec<CommitRecord>>;

/// Worker count wherever a verb takes one: `jobs = 2` / `shards = 2`,
/// never more (the load model in README.md).
pub const WORKERS: usize = 2;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

// ---------------------------------------------------------------------
// The user verbs (end-to-end path).
// ---------------------------------------------------------------------

/// `scn::parse` + `Scenario::validate`: what `defined-dbg` does with a
/// `.scn` path before any verb runs.
pub fn parse_validate(text: &str) -> Result<Scenario, String> {
    let scn = scenario::scn::parse(text).map_err(err)?;
    scn.validate().map_err(err)?;
    Ok(scn)
}

/// `TopologySpec::build`.
pub fn build_topology(scn: &Scenario) -> Graph {
    scn.topology.build()
}

/// The undirected edge list of the graph a `topology …` directive
/// describes — the generators draw fault links from it.
pub fn edges_of(topology_directive: &str) -> Vec<(u32, u32)> {
    let text = format!("name probe\ntopology {topology_directive}\nprotocol ospf\nduration 1s\n");
    let scn = scenario::scn::parse(&text).expect("generator emits a valid topology directive");
    scn.topology.check().expect("generator emits in-range topology parameters");
    scn.topology.build().edges().iter().map(|e| (e.a.0, e.b.0)).collect()
}

/// `record` without `--out`.
pub fn record(scn: &Scenario) -> Result<RecordedRun, String> {
    scn.record_run().map_err(err)
}

/// `record --out <run.drec>`: real `FileIo`, fsync at every sync point.
pub fn record_to_store(scn: &Scenario, path: &Path) -> Result<RecordedRun, String> {
    scn.record_run_to_store(path).map_err(err)
}

/// `replay [--shards n]`.
pub fn replay(scn: &Scenario, bytes: &[u8], shards: usize) -> Result<Logs, String> {
    scn.replay_logs_sharded(bytes, shards).map_err(err)
}

/// Theorem 1's check: replay logs equal production logs up to
/// `RecordedRun::upto`. `None` means they agree.
pub fn divergence(run: &RecordedRun, replayed: &Logs) -> Option<String> {
    first_divergence(&run.logs, replayed, run.upto)
        .map(|(node, i, a, b)| format!("node {node}, entry {i}: production {a:?}, replay {b:?}"))
}

/// `debug <scenario> <recording> <script>` in one call — the reference
/// transcript the per-command session is checked against.
pub fn debug_transcript(scn: &Scenario, bytes: &[u8], script: &str) -> Result<String, String> {
    scn.debug_transcript_sharded(bytes, script, 1).map_err(err)
}

/// `explore --salts n --jobs j`, rendered as the CLI prints it.
pub fn explore(scn: &Scenario, bytes: &[u8], salts: u64, jobs: usize) -> Result<String, String> {
    scn.explore_run(bytes, salts, &farm(jobs)).map(|r| r.render()).map_err(err)
}

/// `bisect --jobs j`: the rendered summary and its prefix-replay count.
pub fn bisect(scn: &Scenario, bytes: &[u8], jobs: usize) -> Result<(String, u64), String> {
    match scn.bisect_run(bytes, &farm(jobs)).map_err(err)? {
        Some(s) => Ok((s.render(), s.report.replays as u64)),
        None => Err("the recording has no groups to bisect".into()),
    }
}

fn farm(jobs: usize) -> FarmConfig {
    if jobs <= 1 {
        FarmConfig::serial()
    } else {
        FarmConfig::with_jobs(jobs)
    }
}

/// `verify <run.drec>`: `Ok(rendered report)` iff the report is `ok()`.
pub fn verify(scn: &Scenario, store_bytes: &[u8]) -> Result<String, String> {
    let report = scn.verify_store(store_bytes, 1).map_err(err)?;
    if report.ok() {
        Ok(report.render())
    } else {
        Err(report.render())
    }
}

/// `store::scan`: the protocol-independent integrity walk; passes only a
/// finished store.
pub fn store_scan(store_bytes: &[u8]) -> Result<(), String> {
    let info = store::scan(store_bytes).map_err(err)?;
    if info.finished {
        Ok(())
    } else {
        Err("store has a torn tail".into())
    }
}

/// `defined::obs::global().snapshot()`.
pub fn registry() -> Snapshot {
    obs::global().snapshot()
}

/// The wire encoding of every committed record, node by node — what the
/// `commit_digest` hashes.
pub fn logs_bytes(logs: &Logs) -> Vec<u8> {
    let mut buf = Vec::new();
    for log in logs {
        buf.extend_from_slice(&(log.len() as u64).to_le_bytes());
        for r in log {
            r.encode(&mut buf);
        }
    }
    buf
}

// ---------------------------------------------------------------------
// Protocol dispatch: the one three-armed match in the benchmark.
// ---------------------------------------------------------------------

/// What the generic probes need from a control plane beyond
/// `ControlPlane`: the `ExtSpec` conversion the engine keeps private.
pub trait Proto: ControlPlane<Msg: Wire, Ext: Wire> + Clone + Sync + 'static {
    fn ext(ev: &ExtSpec) -> Option<Self::Ext>;
}

impl Proto for RipProcess {
    fn ext(ev: &ExtSpec) -> Option<RipExt> {
        match ev {
            ExtSpec::RipConnect { prefix } => Some(RipExt::Connect { prefix: *prefix }),
            _ => None,
        }
    }
}

impl Proto for OspfProcess {
    fn ext(_: &ExtSpec) -> Option<()> {
        None
    }
}

impl Proto for BgpProcess {
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
}

/// Calls `$f::<P>(procs, args…)` with the scenario's control planes, built
/// by the registry spawners the engine itself uses.
macro_rules! with_protocol {
    ($scn:expr, $g:expr, $f:ident($($arg:expr),*)) => {
        match $scn.protocol {
            ProtocolSpec::Rip { mode } => $f(scenario::rip_processes($g, mode), $($arg),*),
            ProtocolSpec::Ospf => $f(scenario::ospf_processes($g), $($arg),*),
            ProtocolSpec::Bgp { mode } => {
                let roles = $scn.topology.fig4_roles().ok_or("bgp needs the fig4 topology")?;
                $f(scenario::bgp_fig4_processes(&roles, mode), $($arg),*)
            }
        }
    };
}

/// The engine's `run_config()`.
fn run_config(scn: &Scenario) -> DefinedConfig {
    DefinedConfig { capture: scn.capture, ..DefinedConfig::default() }
}

/// The engine's `decode_for` on raw `.rec` bytes.
fn decode<P: Proto>(g: &Graph, bytes: &[u8]) -> Result<Recording<P::Ext>, String> {
    let rec = Recording::<P::Ext>::from_bytes(bytes).ok_or("recording does not decode")?;
    if rec.n_nodes != g.node_count() {
        return Err("recording is for a different network".into());
    }
    Ok(rec)
}

fn lockstep<P: Proto>(
    scn: &Scenario,
    g: &Graph,
    procs: &[P],
    rec: Recording<P::Ext>,
) -> LockstepNet<P> {
    LockstepNet::new(g, run_config(scn), rec, |id: NodeId| procs[id.index()].clone())
}

// ---------------------------------------------------------------------
// The interactive session, one command at a time.
// ---------------------------------------------------------------------

/// A `DebugSession` with its protocol erased.
pub trait Session {
    /// `DebugSession::exec`.
    fn exec(&mut self, line: &str) -> Result<String, String>;
    /// `Debugger::last_rewind_replayed`.
    fn rewind_replayed(&self) -> u64;
    /// `Debugger::timeline_stats().physical_bytes`.
    fn timeline_physical_bytes(&self) -> usize;
}

impl<P: Proto> Session for DebugSession<P> {
    fn exec(&mut self, line: &str) -> Result<String, String> {
        DebugSession::exec(self, line).map_err(err)
    }

    fn rewind_replayed(&self) -> u64 {
        self.debugger().last_rewind_replayed()
    }

    fn timeline_physical_bytes(&self) -> usize {
        self.debugger().timeline_stats().map_or(0, |s| s.physical_bytes)
    }
}

/// Builds the session exactly as the engine's `debug_typed` does: decode,
/// `LockstepNet::new`, `Debugger::new`, `DebugSession::new` (which turns
/// on time travel at the default 32-event cadence).
pub fn open_session(scn: &Scenario, bytes: &[u8]) -> Result<Box<dyn Session>, String> {
    fn typed<P: Proto>(
        procs: Vec<P>,
        scn: &Scenario,
        g: &Graph,
        bytes: &[u8],
    ) -> Result<Box<dyn Session>, String> {
        let ls = lockstep(scn, g, &procs, decode::<P>(g, bytes)?);
        Ok(Box::new(DebugSession::new(Debugger::new(ls), g.node_count())))
    }
    let g = build_topology(scn);
    with_protocol!(scn, &g, typed(scn, &g, bytes))
}

/// Whether a finished store reopens (`store::open_bytes`) to exactly the
/// recording the `.rec` bytes hold.
pub fn store_matches_rec(
    scn: &Scenario,
    store_bytes: &[u8],
    rec_bytes: &[u8],
) -> Result<bool, String> {
    fn typed<P: Proto>(_: Vec<P>, store_bytes: &[u8], rec_bytes: &[u8]) -> Result<bool, String> {
        let opened = store::open_bytes::<P::Ext>(store_bytes).map_err(err)?;
        Ok(opened.recording.to_bytes() == rec_bytes)
    }
    let g = build_topology(scn);
    with_protocol!(scn, &g, typed(store_bytes, rec_bytes))
}

// ---------------------------------------------------------------------
// Layer probes (traced runs only). Each times calls into one crate's
// public functions; none adds a span inside a crate.
// ---------------------------------------------------------------------

/// A no-op process for `netsim.null_ns_per_event`: every node keeps one
/// token circulating round a ring, so the simulator does nothing but
/// schedule, pop and deliver.
struct Relay;

impl Process for Relay {
    type Msg = u32;
    type Ext = ();

    fn on_start(&mut self, ctx: &mut ProcessCtx<'_, u32>) {
        let next = ctx.neighbors()[0];
        ctx.send(next, 0);
    }

    fn on_message(&mut self, ctx: &mut ProcessCtx<'_, u32>, from: NodeId, hops: u32) {
        let next = ctx.neighbors().iter().copied().find(|&n| n != from).unwrap_or(from);
        ctx.send(next, hops.wrapping_add(1));
    }
}

/// Bare event-loop cost: a 16-ring of [`Relay`]s for a fixed 12.5 sim-s
/// (16 tokens × 1 ms hops = 200 000 deliveries).
pub fn netsim_null(spans: &mut Spans, m: &mut Values) {
    const N: u32 = 16;
    let links = (0..N).map(|i| {
        (NodeId(i), NodeId((i + 1) % N), LinkParams::with_delay(SimDuration::from_millis(1)))
    });
    let open = spans.enter("netsim.null");
    let mut sim = SimBuilder::new(N as usize).links(links).build(1, |_| Relay);
    sim.run_until(SimTime::from_millis(12_500));
    let secs = spans.exit(open);
    let events = sim.queue_stats().popped;
    m.insert("netsim.null_ns_per_event".into(), secs * 1e9 / events.max(1) as f64);
}

/// The uninstrumented twin of `scn`: the same graph, control planes,
/// injections and faults on `baseline_network`, no DEFINED-RB shim.
/// Returns `(wall seconds, events popped)`.
pub fn baseline(scn: &Scenario, spans: &mut Spans) -> Result<(f64, u64), String> {
    fn typed<P: Proto>(
        procs: Vec<P>,
        scn: &Scenario,
        g: &Graph,
        spans: &mut Spans,
    ) -> Result<(f64, u64), String> {
        let exts: Vec<(SimTime, NodeId, P::Ext)> = scn
            .workload
            .iter()
            .map(|inj| Ok((inj.at, inj.node, P::ext(&inj.ev).ok_or("injection does not fit")?)))
            .collect::<Result<_, String>>()?;
        let tick = DefinedConfig::default().beacon_interval;
        let open = spans.enter("netsim.baseline");
        let mut sim = baseline_network(g, tick, scn.seed, scn.jitter_frac, move |id: NodeId| {
            procs[id.index()].clone()
        });
        for (at, node, ev) in exts {
            sim.schedule_external(at, node, ev);
        }
        for f in &scn.faults {
            match f {
                Fault::NodeDown { at, node } => sim.schedule_node_admin(*at, *node, false),
                Fault::NodeUp { at, node } => sim.schedule_node_admin(*at, *node, true),
                Fault::LinkDown { at, a, b } => sim.schedule_link_admin(*at, *a, *b, false),
                Fault::LinkUp { at, a, b } => sim.schedule_link_admin(*at, *a, *b, true),
                Fault::LinkFlap { at, a, b, down_for, period, count } => {
                    sim.schedule_link_flap(*at, *a, *b, *down_for, *period, *count);
                }
                Fault::Partition { at, heal, side } => {
                    let cut = sim.schedule_partition(*at, side, false);
                    if let Some(t) = heal {
                        for (a, b) in cut {
                            sim.schedule_link_admin(*t, a, b, true);
                        }
                    }
                }
                Fault::LossWindow { from, until, a, b, p } => {
                    sim.schedule_link_loss(*from, *a, *b, LossModel::Bernoulli { p: *p });
                    sim.schedule_link_loss(*until, *a, *b, LossModel::None);
                }
            }
        }
        sim.run_until(SimTime::ZERO + scn.duration);
        let secs = spans.exit(open);
        Ok((secs, sim.queue_stats().popped))
    }
    let g = build_topology(scn);
    with_protocol!(scn, &g, typed(scn, &g, spans))
}

/// The `routing.<protocol>.ns_per_event` name for `scn`.
pub fn ns_per_event_metric(scn: &Scenario) -> &'static str {
    match scn.protocol {
        ProtocolSpec::Rip { .. } => "routing.rip.ns_per_event",
        ProtocolSpec::Ospf => "routing.ospf.ns_per_event",
        ProtocolSpec::Bgp { .. } => "routing.bgp.ns_per_event",
    }
}

/// Mean seconds per call of `f` over `reps` calls.
fn mean_secs(spans: &mut Spans, name: &'static str, reps: usize, mut f: impl FnMut()) -> f64 {
    let open = spans.enter(name);
    for _ in 0..reps {
        f();
    }
    spans.exit(open) / reps.max(1) as f64
}

/// Every probe that needs the protocol's concrete types: the state codec,
/// the checkpoint store in isolation, lockstep images and the position
/// timeline, lockstep build/run (serial and 2-sharded), the wire codec and
/// the store's offline write/scan/open paths. `scratch` is a directory the
/// probe may create files in.
pub fn typed_layers(
    scn: &Scenario,
    run: &RecordedRun,
    scratch: &Path,
    spans: &mut Spans,
    m: &mut Values,
) -> Result<(), String> {
    fn typed<P: Proto>(
        procs: Vec<P>,
        scn: &Scenario,
        g: &Graph,
        run: &RecordedRun,
        scratch: &Path,
        spans: &mut Spans,
        m: &mut Values,
    ) -> Result<(), String> {
        let mut set = |k: &str, v: f64| {
            m.insert(k.to_string(), v);
        };

        // core::wire / recorder: decode, then re-encode, the `.rec` bytes.
        let mb = run.bytes.len() as f64 / 1e6;
        let reps = (4_000_000 / run.bytes.len().max(1)).clamp(3, 2000);
        let rec = decode::<P>(g, &run.bytes)?;
        let dec = mean_secs(spans, "wire.decode", reps, || {
            black_box(Recording::<P::Ext>::from_bytes(black_box(&run.bytes)));
        });
        let enc = mean_secs(spans, "wire.encode", reps, || {
            black_box(black_box(&rec).to_bytes());
        });
        set("wire.rec_bytes", run.bytes.len() as f64);
        set("wire.decode_mb_per_s", mb / dec);
        set("wire.encode_mb_per_s", mb / enc);

        // core::ls: build and run, serial.
        let before = registry();
        let open = spans.enter("ls.build");
        let mut ls = lockstep(scn, g, &procs, decode::<P>(g, &run.bytes)?);
        set("ls.build_s", spans.exit(open));
        let open = spans.enter("ls.run");
        ls.run_to_end();
        let run_s = spans.exit(open);
        let after = registry();
        let delivered: usize = ls.logs().iter().map(Vec::len).sum();
        set("ls.run_s", run_s);
        set("ls.delivered", delivered as f64);
        set("ls.events_per_s", delivered as f64 / run_s);
        set("ls.wave_s", span_delta(&before, &after, "ls.wave"));

        // routing (state codec) on the converged control planes.
        let n = g.node_count();
        let images: Vec<Vec<u8>> = (0..n)
            .map(|i| {
                let mut b = Vec::new();
                ls.control_plane(NodeId(i as u32)).encode(&mut b);
                b
            })
            .collect();
        let codec_reps = 20;
        let mut buf = Vec::new();
        let open = spans.enter("routing.snapshot_encode");
        for _ in 0..codec_reps {
            for i in 0..n {
                buf.clear();
                ls.control_plane(NodeId(i as u32)).encode(&mut buf);
                black_box(&buf);
            }
        }
        let enc_s = spans.exit(open);
        let open = spans.enter("routing.snapshot_decode");
        for _ in 0..codec_reps {
            for img in &images {
                black_box(P::decode(black_box(img)).ok_or("state image does not decode")?);
            }
        }
        let dec_s = spans.exit(open);
        let ops = (codec_reps * n) as f64;
        set("routing.snapshot_encode_ns", enc_s * 1e9 / ops);
        set("routing.snapshot_decode_ns", dec_s * 1e9 / ops);
        set("routing.snapshot_bytes", images.iter().map(Vec::len).sum::<usize>() as f64 / n as f64);
        drop(ls);

        // core::shard: the same replay, 2-sharded.
        let mut sharded = lockstep(scn, g, &procs, rec.clone()).with_shards(WORKERS);
        let open = spans.enter("ls.run_shards2");
        sharded.run_to_end();
        let shard_s = spans.exit(open);
        if sharded.logs().iter().map(Vec::len).sum::<usize>() != delivered {
            return Err("sharded replay delivered a different event count".into());
        }
        set("ls.run_shards2_s", shard_s);
        set("ls.shard_speedup_x", run_s / shard_s);
        drop(sharded);

        // core::ls images + checkpoint::Timeline at three positions, and
        // the successive real states of the busiest node for the isolated
        // checkpoint probe, all from one stepped replay.
        let busiest = (0..n).max_by_key(|&i| run.logs[i].len()).unwrap_or(0);
        let marks = [delivered / 4, delivered / 2, delivered * 3 / 4];
        let mut stepper = lockstep(scn, g, &procs, rec.clone());
        let mut timeline = Timeline::new(Strategy::MemIntercept, RetentionPolicy::default());
        let mut states: Vec<P> = Vec::new();
        let (mut cap_s, mut rec_s, mut img_bytes) = (0.0, 0.0, 0usize);
        let mut taken = Vec::new();
        let mut pos = 0usize;
        while let Some(ev) = stepper.step_event() {
            pos += 1;
            if ev.node.index() == busiest && states.len() < 512 {
                states.push(stepper.control_plane(ev.node).clone());
            }
            if marks.contains(&pos) {
                let (img, s) = spans.time("ls.image_capture", || stepper.capture_image());
                cap_s += s;
                let mut b = Vec::new();
                img.encode(&mut b);
                img_bytes += b.len();
                let (_, s) = spans.time("timeline.record", || timeline.record(pos as u64, &img));
                rec_s += s;
                taken.push(pos);
            }
        }
        let k = taken.len().max(1) as f64;
        let (mut tl_restore_s, mut img_restore_s) = (0.0, 0.0);
        for &p in taken.iter().rev() {
            let (got, s) =
                spans.time("timeline.restore", || timeline.restore_at_or_before(p as u64));
            tl_restore_s += s;
            let (at, img) = got.ok_or("timeline lost a recorded position")?;
            if at != p as u64 {
                return Err("timeline restored the wrong position".into());
            }
            let ((), s) = spans.time("ls.image_restore", || stepper.restore_image(img));
            img_restore_s += s;
        }
        set("ls.image_capture_us", cap_s * 1e6 / k);
        set("ls.image_restore_us", img_restore_s * 1e6 / k);
        set("ls.image_bytes", img_bytes as f64 / k);
        set("timeline.record_us", rec_s * 1e6 / k);
        set("timeline.restore_us", tl_restore_s * 1e6 / k);
        drop(stepper);

        // checkpoint (isolated): page-diff capture then restore of each
        // successive state.
        if !states.is_empty() {
            let mut store = Checkpointer::<P>::new(Strategy::MemIntercept);
            let open = spans.enter("ckpt.mi.capture");
            let ids: Vec<_> = states.iter().map(|s| store.checkpoint(s)).collect();
            let cap = spans.exit(open);
            let stats = store.stats();
            let open = spans.enter("ckpt.mi.restore");
            for id in &ids {
                black_box(store.restore(*id).ok_or("isolated store lost a checkpoint")?);
            }
            let res = spans.exit(open);
            let k = states.len() as f64;
            set("ckpt.mi.capture_ns", cap * 1e9 / k);
            set("ckpt.mi.restore_ns", res * 1e9 / k);
            set("ckpt.mi.physical_bytes", stats.physical_bytes as f64);
            set(
                "ckpt.mi.dedup_ratio",
                stats.virtual_bytes as f64 / stats.physical_bytes.max(1) as f64,
            );
        }

        // store: the offline write path to memory and to a real file, then
        // the structural scan and the typed open.
        let meta = StoreMeta { n_nodes: n, source: rec.source, scenario: scn.name.clone() };
        let commits: Logs = run.logs.iter().map(|l| trim_log(l, run.upto)).collect();
        let (mem, s) = spans.time("store.write_mem", || {
            store::write_recording(
                VecIo::new(),
                &meta,
                &rec,
                &commits,
                run.upto,
                4,
                FsyncPolicy::OnSync,
            )
        });
        let mem = mem.map_err(err)?.bytes;
        set("store.write_mem_s", s);
        let path = scratch.join("layer-probe.drec");
        let (file, s) = spans.time("store.write_file", || {
            FileIo::create(&path).map_err(err).and_then(|io| {
                store::write_recording(io, &meta, &rec, &commits, run.upto, 4, FsyncPolicy::OnSync)
                    .map_err(err)
            })
        });
        file?;
        set("store.write_file_s", s);
        let on_disk = std::fs::read(&path).map_err(err)?;
        let _ = std::fs::remove_file(&path);
        if on_disk != mem {
            return Err("file-backed and in-memory stores differ".into());
        }
        let (scanned, s) = spans.time("store.scan", || store::scan(&mem));
        scanned.map_err(err)?;
        set("store.scan_s", s);
        let (opened, s) = spans.time("store.open", || store::open_bytes::<P::Ext>(&mem));
        if opened.map_err(err)?.recording != rec {
            return Err("offline store does not reopen to the recording".into());
        }
        set("store.open_s", s);
        Ok(())
    }
    let g = build_topology(scn);
    with_protocol!(scn, &g, typed(scn, &g, run, scratch, spans, m))
}

/// Seconds the registry span `name` accumulated between two snapshots.
pub fn span_delta(before: &Snapshot, after: &Snapshot, name: &str) -> f64 {
    let ns = |s: &Snapshot| s.spans.get(name).map_or(0, |x| x.total_ns);
    ns(after).saturating_sub(ns(before)) as f64 / 1e9
}

/// How much the registry counter `name` grew between two snapshots.
pub fn counter_delta(before: &Snapshot, after: &Snapshot, name: &str) -> f64 {
    after.counter(name).saturating_sub(before.counter(name)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn every_generated_scenario_validates_for_seeds_0_to_63() {
        for seed in 0..64 {
            for w in gen::WORKLOADS {
                for quick in [false, true] {
                    let text = gen::scenario(w, gen::sub_seed(seed, w, seed % 3), quick, &edges_of);
                    let scn = parse_validate(&text)
                        .unwrap_or_else(|e| panic!("{w} seed {seed} quick {quick}: {e}\n{text}"));
                    assert!(!scn.has_restart(), "{w}: restarts break replay equivalence");
                    assert_eq!(scn.name, w);
                }
            }
        }
    }

    #[test]
    fn scale_siblings_validate() {
        let w = "rb-churn";
        let n = gen::ba_nodes(w, false);
        let sub = gen::sub_seed(11, w, 0);
        // The base sibling is the workload's own scenario.
        assert_eq!(gen::ospf_ba_sized(w, sub, n), gen::scenario(w, sub, false, &edges_of));
        parse_validate(&gen::ospf_ba_sized(w, sub, 2 * n)).expect("the doubled sibling validates");
    }

    #[test]
    fn edges_come_from_the_built_graph() {
        let e = edges_of("grid 3 3 3ms");
        assert_eq!(e.len(), 12);
        assert!(e.contains(&(0, 1)) && e.contains(&(0, 3)));
        assert_eq!(edges_of("rocketfuel ebone").iter().map(|p| p.0.max(p.1)).max(), Some(24));
    }
}
