//! One workload run: cycles of the six user verbs over seeded inputs,
//! every output checked, every timing a harness-side span.
//!
//! Load model: closed loop, one client — each operation starts when the
//! previous one returns. A cycle generates one input from its sub-seed and
//! walks `record → replay → debug → explore → bisect → record --out →
//! verify` on it; the run repeats cycles (fresh sub-seed each) until
//! `--seconds` have passed, and reports medians over cycles (for latency
//! percentiles: the median over sessions of each session's percentile).

use crate::gen::{self, Cmd, Ops, Sample};
use crate::metrics::Values;
use crate::spans::Spans;
use crate::stats::{self, Fnv, Latency};
use crate::verbs::{self, RecordedRun, Scenario, Snapshot, WORKERS};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What to run.
#[derive(Clone, Debug)]
pub struct RunOpts {
    pub workload: String,
    pub seed: u64,
    /// Measure for this long (whole cycles; at least [`MIN_CYCLES`]).
    pub seconds: f64,
    /// `false`: end-to-end metrics, harness spans discarded. `true`: the
    /// per-layer table, harness spans retained.
    pub trace: bool,
    /// Smoke-test sizes; results are not comparable with full runs.
    pub quick: bool,
    /// Directory for store files; created if missing.
    pub scratch: PathBuf,
    /// Where to write the retained span list (traced runs).
    pub spans_out: Option<PathBuf>,
}

/// Cycles an end-to-end run always completes, however short `--seconds`.
pub const MIN_CYCLES: u64 = 3;
/// A batch of a small read-only verb runs at least this long…
const BATCH_SECS: f64 = 0.06;
/// …but no more than this many calls.
const BATCH_MAX: f64 = 8.0;
/// `setup_s` samples per cycle.
const SETUP_REPS: usize = 20;

/// What a run yields.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure messages, for the log.
    pub failures: Vec<String>,
    pub values: Values,
    pub cycles: u64,
    /// FNV-1a per cycle over recording bytes, commit logs, transcript and
    /// rendered reports.
    pub digests: Vec<u64>,
    /// Sample counts behind the reported medians / percentiles.
    pub samples: Vec<(&'static str, String)>,
    /// Store size per cycle (exact per seed).
    pub store_bytes: Vec<u64>,
    /// Traced runs: the harness spans folded by name — `(name, count,
    /// total seconds, self seconds)`.
    pub span_table: Vec<(&'static str, u64, f64, f64)>,
}

/// Counts operations and runs each one panic-safely.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn fail(&mut self, what: &str, why: &str) {
        self.failed += 1;
        if self.failures.len() < 8 {
            let why: String = why.chars().take(300).collect();
            self.failures.push(format!("{what}: {why}"));
        }
    }

    /// One operation: an `Err` or a panic is a failure and yields `None`.
    fn op<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => Some(v),
            Ok(Err(e)) => {
                self.fail(what, &e);
                None
            }
            Err(p) => {
                let msg = p
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| p.downcast_ref::<&str>().copied())
                    .unwrap_or("panic");
                self.fail(what, &format!("panicked: {msg}"));
                None
            }
        }
    }

    /// A read-only operation repeated back to back until its calls have
    /// run for [`BATCH_SECS`] (at most [`BATCH_MAX`] times): one sample is
    /// the mean wall of a call — each call its own span, so comparing and
    /// dropping a result is not timed. A 15 ms call on two workers is
    /// otherwise at the mercy of one 3 ms scheduler quantum, which makes
    /// its samples bimodal and their median flip from seed to seed. Every
    /// repetition is counted and must return what the first returned.
    fn batch<T: PartialEq>(
        &mut self,
        spans: &mut Spans,
        name: &'static str,
        mut f: impl FnMut() -> Result<T, String>,
    ) -> Option<(T, f64, f64)> {
        let mut call = |tally: &mut Tally| {
            let open = spans.enter(name);
            let out = tally.op(name, &mut f);
            (out, spans.exit(open))
        };
        let (first, mut secs) = call(self);
        let mut reps = 1.0;
        let mut agree = true;
        while first.is_some() && secs < BATCH_SECS && reps < BATCH_MAX {
            let (again, took) = call(self);
            agree &= again == first;
            secs += took;
            reps += 1.0;
        }
        self.check(name, agree, || "repeated calls disagree".into());
        first.filter(|_| agree).map(|v| (v, secs / reps, reps))
    }

    /// An oracle on an operation already counted: a mismatch turns that
    /// operation into a failure.
    fn check(&mut self, what: &str, ok: bool, why: impl FnOnce() -> String) -> bool {
        if !ok {
            self.fail(what, &why());
        }
        ok
    }
}

/// Raw samples of one run, one entry per cycle unless noted.
#[derive(Default)]
struct Samples {
    /// `SETUP_REPS` per cycle.
    setup: Vec<f64>,
    record: Vec<f64>,
    replay: Vec<f64>,
    /// Per-`exec` latency of each debug session, reduced per session:
    /// sessions walk different inputs, and a percentile pooled over them
    /// would just report the slowest input.
    step: Vec<Latency>,
    rstep: Vec<Latency>,
    goto: Vec<Latency>,
    explore: Vec<f64>,
    bisect: Vec<f64>,
    store_record: Vec<f64>,
    verify: Vec<f64>,
    store_bytes: Vec<f64>,
    /// The process's resident high-water mark (`VmHWM`, MB) when its first
    /// cycle ended: what a fresh process walking every verb once needs.
    /// Later cycles re-use freed heap, so their marks depend on the
    /// allocator's mood and do not repeat.
    rss: Vec<f64>,
}

/// What a traced cycle adds to the per-layer table: registry deltas and
/// the ratios derived from them.
#[derive(Default)]
struct Layers {
    values: Values,
    /// The traced cycle's `record` wall, for `rb.other_s` / `rb.overhead_x`
    /// once the baseline twin has been timed.
    record_s: f64,
}

impl Layers {
    fn set(&mut self, k: &str, v: f64) {
        self.values.insert(k.to_string(), v);
    }
}

/// The moving parts every cycle of a run shares.
struct Harness {
    spans: Spans,
    tally: Tally,
    samples: Samples,
}

fn program_spans(before: &Snapshot, after: &Snapshot) -> (f64, f64, f64) {
    (
        verbs::span_delta(before, after, "rb.redeliver"),
        verbs::span_delta(before, after, "ckpt.capture"),
        verbs::span_delta(before, after, "ckpt.restore"),
    )
}

/// A recorded input a later cycle may walk again.
struct Recorded {
    scn: Scenario,
    run: RecordedRun,
    total_events: u64,
    n_nodes: u64,
}

/// Set-up, [`SETUP_REPS`] times: generate the scenario text for `sub`,
/// parse it, validate it (which builds the topology). Returns the text.
fn set_up(h: &mut Harness, opts: &RunOpts, sub: u64) -> String {
    let mut text = String::new();
    for _ in 0..SETUP_REPS {
        let open = h.spans.enter("setup");
        text = gen::scenario(&opts.workload, sub, opts.quick, &verbs::edges_of);
        let parsed = verbs::parse_validate(&text);
        h.samples.setup.push(h.spans.exit(open));
        drop(parsed);
    }
    text
}

/// One cycle on the input drawn from `sub`. Returns the cycle's verb wall
/// (the sum of its timed verbs) and the input it recorded, or `None` when
/// the input could not even be recorded.
fn cycle(
    h: &mut Harness,
    opts: &RunOpts,
    ops: Ops,
    sub: u64,
    digest: &mut Fnv,
    mut layers: Option<&mut Layers>,
) -> Option<(f64, Recorded)> {
    let traced = layers.is_some();
    let whole = h.spans.enter("cycle");
    let text = set_up(h, opts, sub);
    let Harness { spans, tally, samples: s } = h;
    let Some(scn): Option<Scenario> = tally.op("parse+validate", || verbs::parse_validate(&text))
    else {
        spans.exit(whole);
        return None;
    };
    let mut wall = 0.0;

    // record
    let before = traced.then(verbs::registry);
    let open = spans.enter("record");
    let run: Option<RecordedRun> = tally.op("record", || verbs::record(&scn));
    let record_s = spans.exit(open);
    let Some(run) = run else {
        spans.exit(whole);
        return None;
    };
    s.record.push(record_s);
    wall += record_s;
    digest.update(&run.bytes);
    digest.update(&verbs::logs_bytes(&run.logs));
    let committed: usize = run.logs.iter().map(Vec::len).sum();
    let n_nodes = run.logs.len() as u64;
    if let (Some(l), Some(before)) = (layers.as_deref_mut(), before) {
        let after = verbs::registry();
        let (redeliver, capture, restore) = program_spans(&before, &after);
        // The rb.* tallies are gauges the engine sets at the end of each
        // production run; everything else is a monotone counter.
        for name in ["rb.rollbacks", "rb.rolled_entries", "rb.fast_path", "rb.unsend_msgs"] {
            l.set(name, after.counter(name) as f64);
        }
        l.set("rb.jumps", verbs::counter_delta(&before, &after, "rb.jump"));
        let rolled = after.counter("rb.rolled_entries") as f64;
        l.set("rb.useful_ratio", committed as f64 / (committed as f64 + rolled).max(1.0));
        l.set("rb.redeliver_s", redeliver);
        l.set("ckpt.capture_s", capture);
        l.set("ckpt.restore_s", restore);
        for name in ["ckpt.captures", "ckpt.restores", "ckpt.pool.hits", "ckpt.pool.misses"] {
            l.set(name, verbs::counter_delta(&before, &after, name));
        }
        // The program's spans nest (a capture taken while redelivering
        // counts in both), so their sum can pass the wall: floor at 0.
        let inside = redeliver + capture + restore;
        l.set("record.unattributed_share", (1.0 - inside / record_s).max(0.0));
        l.record_s = record_s;
    }

    // replay, then debug: one exec at a time, each its own sample.
    let mut rec = Recorded { scn, run, total_events: committed as u64, n_nodes };
    wall += replay(h, &mut rec, layers.as_deref_mut());
    let script = gen::script(sub, rec.total_events, n_nodes, ops);
    wall += debug_walk(h, &rec, &script, !opts.quick, digest, layers.as_deref_mut());
    wall += search(h, &rec, ops, digest, layers.as_deref_mut());
    let Harness { spans, tally, samples: s } = h;
    let Recorded { scn, run, .. } = &rec;

    // record --out, then verify the file.
    let path = store_path(opts);
    let before = traced.then(verbs::registry);
    let open = spans.enter("store_record");
    let stored = tally.op("record --out", || verbs::record_to_store(scn, &path));
    let store_record_s = spans.exit(open);
    if let Some(again) = stored {
        // Two records of one scenario must agree to the byte.
        let same = again.bytes == run.bytes && again.logs == run.logs;
        if tally.check("record --out", same, || "store-backed record differs from record".into()) {
            s.store_record.push(store_record_s);
            wall += store_record_s;
        }
        if let (Some(l), Some(before)) = (layers.as_deref_mut(), before) {
            let after = verbs::registry();
            let (redeliver, capture, restore) = program_spans(&before, &after);
            l.set("store.fsyncs", verbs::counter_delta(&before, &after, "store.fsync"));
            for name in ["store.sync_points", "store.bytes_written"] {
                l.set(name, verbs::counter_delta(&before, &after, name));
            }
            l.set("store.stream_overhead_s", store_record_s - record_s);
            let inside = redeliver + capture + restore;
            l.set("store_record.unattributed_share", (1.0 - inside / store_record_s).max(0.0));
        }
        wall += verify(h, &rec, &path, digest, layers);
    }
    let Harness { spans, samples: s, .. } = h;
    spans.exit(whole);
    if s.rss.is_empty() {
        s.rss.extend(peak_rss_mb());
    }
    Some((wall, rec))
}

/// `replay` of `rec`, held against the production logs; sets
/// `rec.total_events` to what it delivered. Returns the verb wall.
fn replay(h: &mut Harness, rec: &mut Recorded, layers: Option<&mut Layers>) -> f64 {
    let Harness { spans, tally, samples: s } = h;
    let before = layers.is_some().then(verbs::registry);
    let replayed = tally.batch(spans, "replay", || verbs::replay(&rec.scn, &rec.run.bytes, 1));
    let Some((logs, replay_s, reps)) = replayed else {
        return 0.0;
    };
    rec.total_events = logs.iter().map(|l| l.len() as u64).sum();
    if let (Some(l), Some(before)) = (layers, before) {
        let waves = verbs::span_delta(&before, &verbs::registry(), "ls.wave") / reps;
        l.set("replay.unattributed_share", 1.0 - waves / replay_s);
    }
    let diverged = verbs::divergence(&rec.run, &logs);
    if !tally.check("replay", diverged.is_none(), || diverged.clone().unwrap_or_default()) {
        return 0.0;
    }
    s.replay.push(replay_s);
    replay_s
}

/// Where a run keeps its store file: rewritten by every `record --out`,
/// removed when the run ends.
fn store_path(opts: &RunOpts) -> PathBuf {
    opts.scratch.join(format!("{}-{}.drec", opts.workload, std::process::id()))
}

/// `verify` of the store file `record --out` left at `path`: read it, walk
/// its checksums, replay it against `rec`. Returns the verb wall.
fn verify(
    h: &mut Harness,
    rec: &Recorded,
    path: &Path,
    digest: &mut Fnv,
    layers: Option<&mut Layers>,
) -> f64 {
    let Harness { spans, tally, samples: s } = h;
    let Recorded { scn, run, .. } = rec;
    let before = layers.is_some().then(verbs::registry);
    let verified = tally.batch(spans, "verify", || {
        let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
        verbs::store_scan(&bytes)?;
        let report = verbs::verify(scn, &bytes)?;
        Ok((bytes, report))
    });
    let Some(((bytes, report), verify_s, reps)) = verified else {
        return 0.0;
    };
    if let (Some(l), Some(before)) = (layers, before) {
        let waves = verbs::span_delta(&before, &verbs::registry(), "ls.wave") / reps;
        l.set("verify.unattributed_share", 1.0 - waves / verify_s);
        l.set("store.expansion_x", bytes.len() as f64 / run.bytes.len().max(1) as f64);
    }
    let matches = verbs::store_matches_rec(scn, &bytes, &run.bytes);
    if !tally.check("verify", matches == Ok(true), || format!("reopened store: {matches:?}")) {
        return 0.0;
    }
    s.verify.push(verify_s);
    s.store_bytes.push(bytes.len() as f64);
    digest.update(&bytes);
    digest.update(report.as_bytes());
    verify_s
}

/// `explore` then `bisect` over `rec`. Returns their verb wall.
///
/// The end-to-end samples are the serial engines' (`FarmConfig::serial()`):
/// on the sizing host the second vCPU comes and goes — two parallel
/// burners take anywhere from 1.0x to 2.1x one — which moves a `jobs = 2`
/// wall by up to 70 % with no change in the code. The farm still runs
/// every time: its report must equal the serial one, and its wall feeds
/// the per-layer `farm.*` metrics.
fn search(
    h: &mut Harness,
    rec: &Recorded,
    ops: Ops,
    digest: &mut Fnv,
    mut layers: Option<&mut Layers>,
) -> f64 {
    let Harness { spans, tally, samples: s } = h;
    let Recorded { scn, run, .. } = rec;
    let traced = layers.is_some();
    let mut wall = 0.0;
    let found = tally.batch(spans, "explore", || verbs::explore(scn, &run.bytes, ops.salts, 1));
    let open = spans.enter("explore.jobs2");
    let farmed =
        tally.op("explore --jobs 2", || verbs::explore(scn, &run.bytes, ops.salts, WORKERS));
    let explore_jobs2_s = spans.exit(open);
    if let (Some((report, explore_s, _)), Some(farmed)) = (found, farmed) {
        let same = farmed == report;
        if tally.check("explore", same, || format!("jobs=2 {farmed:?} != serial {report:?}")) {
            s.explore.push(explore_s);
            wall += explore_s;
            digest.update(report.as_bytes());
        }
        if let Some(l) = layers.as_deref_mut() {
            l.set("farm.explore_serial_s", explore_s);
            l.set("farm.explore_jobs2_s", explore_jobs2_s);
            l.set("farm.speedup_x", explore_s / explore_jobs2_s);
            l.set("farm.replays_per_s", (ops.salts + 1) as f64 / explore_jobs2_s);
        }
    }

    let located = tally.batch(spans, "bisect", || verbs::bisect(scn, &run.bytes, 1));
    let before = traced.then(verbs::registry);
    let farmed = tally.op("bisect --jobs 2", || verbs::bisect(scn, &run.bytes, WORKERS));
    let after = traced.then(verbs::registry);
    if let (Some(((report, _), bisect_s, _)), Some((farmed, probes))) = (located, farmed) {
        let same = farmed == report;
        if tally.check("bisect", same, || format!("jobs=2 {farmed:?} != serial {report:?}")) {
            s.bisect.push(bisect_s);
            wall += bisect_s;
            digest.update(report.as_bytes());
        }
        if let (Some(l), Some(before), Some(after)) = (layers, before, after) {
            l.set("farm.bisect_probes", probes as f64);
            l.set("farm.goto_s", verbs::span_delta(&before, &after, "farm.goto"));
            for name in ["farm.probe_seeded", "farm.probe_continued"] {
                l.set(name, verbs::counter_delta(&before, &after, name));
            }
        }
    }
    wall
}

/// Drives one debug session over `rec`, command by command. Returns the
/// seconds spent in `exec`.
fn debug_walk(
    h: &mut Harness,
    rec: &Recorded,
    script: &[Cmd],
    strict: bool,
    digest: &mut Fnv,
    layers: Option<&mut Layers>,
) -> f64 {
    let Harness { spans, tally, samples: s } = h;
    let Recorded { scn, run, .. } = rec;
    let whole = spans.enter("debug");
    let session = tally.op("debug: open", || verbs::open_session(scn, &run.bytes));
    let Some(mut session) = session else {
        spans.exit(whole);
        return 0.0;
    };
    let traced = layers.is_some();
    let mut transcript = String::new();
    let mut wheres: Vec<String> = Vec::new();
    let (mut steps, mut rsteps, mut gotos) = (Vec::new(), Vec::new(), Vec::new());
    let mut rewound = Vec::new();
    let mut spent = 0.0;
    let mut panicked = false;
    for Cmd { line, sample } in script {
        let name = match sample {
            Sample::Step => "debug.step",
            Sample::Rstep => "debug.rstep",
            Sample::GotoBack => "debug.goto",
            Sample::None => "debug.other",
        };
        transcript.push_str("> ");
        transcript.push_str(line);
        transcript.push('\n');
        tally.attempted += 1;
        let t = Instant::now();
        let open = traced.then(|| spans.enter(name));
        let out = catch_unwind(AssertUnwindSafe(|| session.exec(line)));
        if let Some(open) = open {
            spans.exit(open);
        }
        let us = t.elapsed().as_secs_f64() * 1e6;
        spent += us / 1e6;
        match out {
            Ok(Ok(o)) => {
                match sample {
                    Sample::Step => steps.push(us),
                    Sample::Rstep => {
                        rsteps.push(us);
                        if traced {
                            rewound.push(session.rewind_replayed() as f64);
                        }
                    }
                    Sample::GotoBack => gotos.push(us),
                    Sample::None if line == "where" => wheres.push(o.clone()),
                    Sample::None => {}
                }
                transcript.push_str(&o);
            }
            Ok(Err(e)) => {
                tally.fail(line, &e);
                transcript.push_str(&format!("error: {e}\n"));
            }
            Err(_) => {
                tally.fail(line, "panicked");
                panicked = true;
                break;
            }
        }
    }
    // Forward → reverse → forward lands where it started.
    let round_trip = !panicked && wheres.len() >= 2 && wheres[0] == wheres[1];
    tally.check("debug: rstep/step round trip", round_trip, || format!("{wheres:?}"));
    // The per-exec transcript equals the one-call CLI transcript. Checked
    // on a run's first session (it costs a second whole session); later
    // sessions still feed their transcript to the digest.
    let same = !s.step.is_empty() || {
        let lines: Vec<&str> = script.iter().map(|c| c.line.as_str()).collect();
        let reference = verbs::debug_transcript(scn, &run.bytes, &lines.join("\n"));
        let same = reference.as_ref() == Ok(&transcript);
        tally.check("debug: transcript", same, || {
            "per-exec transcript differs from debug_transcript".into()
        })
    };
    if round_trip && same {
        digest.update(transcript.as_bytes());
        if let Some(l) = layers {
            if let Some(lat) = stats::latency(&steps, false) {
                let slow = steps.iter().filter(|&&us| us > 10.0 * lat.p50).count();
                l.set("debug.step_slow_share", slow as f64 / lat.n as f64);
            }
            let mean = rewound.iter().sum::<f64>() / rewound.len().max(1) as f64;
            l.set("debug.rewind_replayed_mean", mean);
            l.set("debug.timeline_physical_mb", session.timeline_physical_bytes() as f64 / 1e6);
        }
        s.step.extend(stats::latency(&steps, strict));
        s.rstep.extend(stats::latency(&rsteps, strict));
        s.goto.extend(stats::latency(&gotos, strict));
    }
    spans.exit(whole);
    spent
}

/// Peak resident set of this process so far, MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Runs one workload and reduces it to the metrics of its mode.
pub fn run(opts: &RunOpts) -> Outcome {
    std::fs::create_dir_all(&opts.scratch).expect("scratch directory is creatable");
    let ops = gen::ops(&opts.workload, opts.quick);
    let mut h = Harness {
        spans: Spans::new(opts.trace),
        tally: Tally::default(),
        samples: Samples::default(),
    };
    let mut out = Outcome::default();
    if opts.trace {
        traced_run(&mut h, opts, ops, &mut out);
    } else {
        end_to_end_run(&mut h, opts, ops, &mut out);
    }
    let _ = std::fs::remove_file(store_path(opts));
    out.attempted = h.tally.attempted;
    out.failed = h.tally.failed;
    out.failures = h.tally.failures;
    out
}

fn end_to_end_run(h: &mut Harness, opts: &RunOpts, ops: Ops, out: &mut Outcome) {
    let started = Instant::now();
    let min_cycles = if opts.quick { 1 } else { MIN_CYCLES };
    // `debug-walk` records its Ebone input once per run (2.5 s of OSPF
    // flooding under the shim, the same work `rb-churn` measures) and then
    // repeats what it exists for — the interactive session — and the short
    // read-only verbs, which do not repeat when reported from one batch.
    let walk_again = opts.workload == "debug-walk";
    let mut recorded: Option<Recorded> = None;
    while out.cycles < min_cycles || started.elapsed().as_secs_f64() < opts.seconds {
        let sub = gen::sub_seed(opts.seed, &opts.workload, out.cycles);
        let mut digest = Fnv::default();
        match recorded.as_mut() {
            Some(rec) if walk_again => {
                // Set-up is still sampled: twenty samples from a process
                // that has run nothing yet would be a cold-start number.
                let text = set_up(h, opts, sub);
                // Same network, this cycle's probe: the recording does not
                // depend on the probe, and what `bisect` costs does.
                if let Some(scn) = h.tally.op("parse+validate", || verbs::parse_validate(&text)) {
                    rec.scn = scn;
                }
                replay(h, rec, None);
                let script = gen::script(sub, rec.total_events, rec.n_nodes, ops);
                debug_walk(h, rec, &script, true, &mut digest, None);
                search(h, rec, ops, &mut digest, None);
                verify(h, rec, &store_path(opts), &mut digest, None);
            }
            _ => recorded = cycle(h, opts, ops, sub, &mut digest, None).map(|(_, rec)| rec),
        }
        out.digests.push(digest.0);
        out.cycles += 1;
    }
    let s = &h.samples;
    out.store_bytes = s.store_bytes.iter().map(|&b| b as u64).collect();
    let wall = |name, v: &[f64]| (name, v.len().to_string(), stats::median(v));
    // Median over sessions of each session's own percentile.
    let session = |name, l: &[Latency], f: fn(&Latency) -> Option<f64>| {
        let per_session: Vec<f64> = l.iter().filter_map(f).collect();
        let n = format!("{} session(s) x {}", per_session.len(), l.first().map_or(0, |l| l.n));
        (name, n, stats::median(&per_session))
    };
    for (name, n, value) in [
        wall("setup_s", &s.setup),
        wall("record_wall_s", &s.record),
        wall("replay_wall_s", &s.replay),
        session("debug_step_p50_us", &s.step, |l| Some(l.p50)),
        session("debug_step_p99_us", &s.step, |l| l.p99),
        session("debug_rstep_p50_us", &s.rstep, |l| Some(l.p50)),
        session("debug_rstep_p99_us", &s.rstep, |l| l.p99),
        session("debug_goto_p50_us", &s.goto, |l| Some(l.p50)),
        wall("explore_wall_s", &s.explore),
        wall("bisect_wall_s", &s.bisect),
        wall("store_record_wall_s", &s.store_record),
        wall("verify_wall_s", &s.verify),
        wall("store_bytes", &s.store_bytes),
        wall("peak_rss_mb", &s.rss),
    ] {
        out.samples.push((name, n));
        match value {
            Some(v) => {
                out.values.insert(name.to_string(), v);
            }
            None => h.tally.fail(name, "no successful sample to report"),
        }
    }
}

/// Traced cycles of a traced run (one in smoke runs), each between two
/// plain ones.
const TRACED_CYCLES: usize = 2;
/// Harness tracing must cost less than this share of a cycle's verb wall.
const TRACE_OVERHEAD_LIMIT_PCT: f64 = 3.0;

fn traced_run(h: &mut Harness, opts: &RunOpts, ops: Ops, out: &mut Outcome) {
    let w = opts.workload.as_str();
    let sub = gen::sub_seed(opts.seed, w, 0);
    let mut layers = Layers::default();

    // The same cycle with harness spans off, on, off, on, off: a traced
    // wall over the mean of its two plain neighbours is what tracing
    // costs. A process's cycles slow by a few percent as it ages (the
    // first is up to 8 % faster than the third), which any pairing that
    // does not bracket the traced cycle reports as overhead.
    let mut walls = Vec::new();
    for i in 0..2 * if opts.quick { 1 } else { TRACED_CYCLES } + 1 {
        let keep = i % 2 == 1;
        h.spans.set_keep(keep);
        h.samples = Samples::default();
        let mut digest = Fnv::default();
        let done = cycle(h, opts, ops, sub, &mut digest, keep.then_some(&mut layers));
        walls.push(done.map(|(wall, _)| wall));
        out.digests = vec![digest.0];
        out.cycles += 1;
    }
    let overheads: Vec<f64> = walls
        .windows(3)
        .step_by(2)
        .filter_map(|w| match w {
            [Some(before), Some(traced), Some(after)] => {
                Some((traced / ((before + after) / 2.0) - 1.0) * 100.0)
            }
            _ => None,
        })
        .collect();
    let Layers { mut values, record_s } = layers;
    if !overheads.is_empty() {
        let mean = overheads.iter().sum::<f64>() / overheads.len() as f64;
        values.insert("obs.trace_overhead_pct".into(), mean);
        // One ratio wanders by a few percent on its own, so the run fails
        // only when every traced cycle puts the cost at the limit or above. Smoke cycles last milliseconds;
        // their ratio is all noise.
        let resolved = overheads.iter().all(|&o| o >= TRACE_OVERHEAD_LIMIT_PCT);
        h.tally.check("trace overhead", opts.quick || !resolved, || {
            format!("harness tracing costs {overheads:.2?} % of a cycle, limit {TRACE_OVERHEAD_LIMIT_PCT} %")
        });
    }

    // Isolated probes, each around one crate's public functions.
    let Harness { spans, tally, .. } = h;
    let text = gen::scenario(w, sub, opts.quick, &verbs::edges_of);
    let probes = tally.op("layer probes", || {
        let scn = verbs::parse_validate(&text)?;
        const REPS: usize = 50;
        let open = spans.enter("scenario.parse_validate");
        for _ in 0..REPS {
            black_box(verbs::parse_validate(black_box(&text))?);
        }
        values.insert("scenario.parse_validate_s".into(), spans.exit(open) / REPS as f64);
        let open = spans.enter("topology.build");
        for _ in 0..REPS {
            black_box(verbs::build_topology(black_box(&scn)));
        }
        values.insert("topology.build_s".into(), spans.exit(open) / REPS as f64);

        verbs::netsim_null(spans, &mut values);
        let null_ns = values["netsim.null_ns_per_event"];
        let (base_s, events) = verbs::baseline(&scn, spans)?;
        values.insert("netsim.baseline_wall_s".into(), base_s);
        values.insert("netsim.baseline_events".into(), events as f64);
        let per_event = base_s * 1e9 / events.max(1) as f64 - null_ns;
        values.insert(verbs::ns_per_event_metric(&scn).into(), per_event);
        if record_s > 0.0 {
            let inside: f64 = ["rb.redeliver_s", "ckpt.capture_s", "ckpt.restore_s"]
                .iter()
                .map(|k| values[*k])
                .sum();
            // Floored like the unattributed shares: the program's spans nest.
            values.insert("rb.other_s".into(), (record_s - base_s - inside).max(0.0));
            values.insert("rb.overhead_x".into(), record_s / base_s);
        }

        let run = verbs::record(&scn)?;
        verbs::typed_layers(&scn, &run, &opts.scratch, spans, &mut values)?;

        // Scale growth (ROADMAP item 2): wall at 2n ÷ wall at n. Only on
        // `rb-churn`: under `Every(1)` the doubled `rb-default` runs for
        // most of a minute.
        if w == "rb-churn" && !opts.quick {
            let n = gen::ba_nodes(w, false);
            let mut walls = [0.0; 2];
            for (slot, size) in walls.iter_mut().zip([n, 2 * n]) {
                let scn = verbs::parse_validate(&gen::ospf_ba_sized(w, sub, size))?;
                let (r, secs) = spans.time("rb.scale", || verbs::record(&scn));
                r?;
                *slot = secs;
            }
            values.insert("rb.scale_base_wall_s".into(), walls[0]);
            values.insert("rb.scale_growth_x".into(), walls[1] / walls[0]);
        }
        Ok(())
    });
    if probes.is_some() {
        out.values = values;
    }
    if let Some(path) = &opts.spans_out {
        if let Err(e) = std::fs::write(path, spans.to_json_lines(w)) {
            tally.fail("write spans", &e.to_string());
        }
    }
    out.span_table = spans.self_times();
}
