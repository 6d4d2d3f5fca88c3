//! `defined-dbg` — record a production scenario and debug its recording
//! interactively, the paper's full workflow as a command-line tool. Run it
//! without arguments for the synopsis of every verb and the flags it owns
//! (generated from the [`VERBS`] table): `record`, `debug`, `replay`,
//! `explore`, `bisect`, `verify`, `check-profile`, `scenarios`.
//!
//! `record`, `explore`, and `bisect` — the verbs that run production
//! in-process — additionally accept `--ckpt-interval <n>|auto`, overriding
//! the scenario's checkpoint-capture policy: capture before every n-th
//! delivery, or adapt the interval to the observed rollback churn
//! (DESIGN.md §13). Like `--seed`, the policy is
//! sweepable — the committed execution never depends on it — and the
//! effective policy is echoed in the `gvt:` line.
//!
//! Every run verb additionally accepts the observability flags (DESIGN.md
//! §11): `--profile` prints a human metric summary after the run,
//! `--profile-json <path>` writes the machine-readable dump, and
//! `--trace-out <path>` captures Chrome trace events (open in
//! `about:tracing` or Perfetto for a per-shard flamegraph). None of them
//! perturbs the run: commit logs, transcripts, and reports are
//! byte-identical with or without them (`tests/obs_determinism.rs`).
//! `check-profile` validates a `--profile-json` dump from a record+replay
//! run — the CI step that keeps the JSON schema honest.
//!
//! `<scenario>` is either a name from the bundled registry (`defined-dbg
//! scenarios` lists them) or a path to a `.scn` scenario file (see the
//! `scenario::scn` module docs for the format). Scenarios bundle a
//! topology, a protocol, a workload of external events, a fault schedule,
//! and an outcome probe.
//!
//! `record` runs the DEFINED-RB-instrumented production network and writes
//! the partial recording (external events, losses, death cuts, beacon tick
//! schedule) to the file; `--seed` overrides the scenario's network-
//! nondeterminism seed — sweeping it must not change the committed
//! execution. With `--out <run.drec>` the recording is additionally (or
//! instead) *streamed* into the append-only crash-safe store format
//! (DESIGN.md §12) as the run progresses: committed frames are fsynced at
//! every sync point, so killing the recorder mid-run leaves a recoverable
//! prefix rather than nothing. `debug` rebuilds the debugging network from
//! the same scenario, loads the recording, and drives a `DebugSession`
//! with commands from the script file (or stdin when omitted) — `help`
//! lists them. Replays are deterministic, so sessions are exactly
//! repeatable.
//!
//! Every verb that reads a recording file accepts both formats
//! transparently — the raw `record` output and a `.drec` store (sniffed by
//! magic). A store with a torn tail is recovered to its last sync point
//! with a warning on stderr; mid-file corruption is a typed error, never a
//! panic and never a silently wrong replay. `replay` re-executes a
//! recording in lockstep without an interactive session. `verify` is the
//! store's integrity gate: it checks every frame CRC and the writer's
//! self-check tallies, then replays the recording and compares the commit
//! logs entry-by-entry against the logs the production run stored,
//! exiting non-zero on any mismatch (the scenario defaults to the name in
//! the store's meta frame; `--scenario` overrides it).
//!
//! Sessions are also *reversible*: `rstep [n]`, `rcont`, and `goto P` walk
//! execution backward over periodic whole-network checkpoints, so any
//! recorded scenario can be navigated in either direction; stepping
//! forward again reproduces the original transcript byte for byte.
//!
//! `explore` and `bisect` mechanise the troubleshooter: both record the
//! scenario in-process and compile its outcome probe into a search
//! predicate run on the parallel replay farm. `explore` sweeps salted
//! ordering functions for one that changes the outcome (the paper's §4
//! masked-bug discussion); `bisect` finds the earliest group — and the
//! exact delivery — at which the final outcome was established. `--jobs`
//! chooses the farm worker count and never changes the answer: the farm
//! reports the earliest divergent salt and a job-count-invariant bisection.
//! When `--jobs` is omitted (or `0`), one worker per available core is
//! used.
//!
//! `--shards` splits each individual replay across worker shards
//! (`ShardedWaves`): every lockstep wave is block-partitioned over the nodes
//! and the shards' outputs are re-merged in deterministic `OrderKey` order,
//! so commit logs, transcripts, and search reports are byte-identical for
//! every shard count. `--shards 0` means one shard per available core;
//! omitting the flag keeps the replay serial. On `record`, `--shards <n>`
//! additionally replays the fresh recording `n`-way sharded and verifies
//! the logs against the production commits before reporting success.

use defined::core::config::CapturePolicy;
use defined::core::FarmConfig;
use defined::scenario::{self, Scenario};
use std::io::Read as _;
use std::ops::RangeInclusive;
use std::process::ExitCode;

/// Everything the flags can set. A verb sees only what the flags it owns
/// ([`Verb::flags`]) put here; the rest stays at its default.
#[derive(Default)]
struct Opts {
    seed: Option<u64>,
    out: Option<String>,
    capture: Option<CapturePolicy>,
    salts: Option<u64>,
    jobs: Option<u64>,
    scenario: Option<String>,
    shards: Option<u64>,
    obs: ObsOpts,
}

impl Opts {
    /// Resolves a scenario argument and applies the `--seed` and
    /// `--ckpt-interval` overrides.
    fn scenario(&self, arg: &str) -> Result<Scenario, String> {
        let mut scn = resolve(arg)?;
        if let Some(c) = self.capture {
            scn = scn.with_capture(c);
        }
        if let Some(s) = self.seed {
            scn = scn.with_seed(s);
        }
        Ok(scn)
    }

    /// Omitted `--shards` keeps each replay serial; `--shards 0` means auto.
    fn shards(&self) -> usize {
        defined::core::resolve_workers(self.shards.unwrap_or(1) as usize)
    }

    /// Omitted `--jobs` means auto (`with_jobs(0)` resolves to the core
    /// count).
    fn farm(&self) -> FarmConfig {
        FarmConfig::with_jobs(self.jobs.unwrap_or(0) as usize).with_shards(self.shards())
    }
}

/// Where a flag's value lands in [`Opts`], by the type it parses to.
enum Slot<'a> {
    U64(&'a mut Option<u64>),
    Text(&'a mut Option<String>),
    Capture(&'a mut Option<CapturePolicy>),
    Switch(&'a mut bool),
}

/// One command-line flag: `--name`, the placeholder of its value in the
/// usage text (empty for a bare switch), and its slot.
#[derive(Clone, Copy)]
struct Flag {
    name: &'static str,
    value: &'static str,
    slot: fn(&mut Opts) -> Slot<'_>,
}

const SEED: Flag = Flag { name: "seed", value: "<u64>", slot: |o| Slot::U64(&mut o.seed) };
const OUT: Flag = Flag { name: "out", value: "<run.drec>", slot: |o| Slot::Text(&mut o.out) };
const CKPT: Flag =
    Flag { name: "ckpt-interval", value: "<n>|auto", slot: |o| Slot::Capture(&mut o.capture) };
const SALTS: Flag = Flag { name: "salts", value: "<n>", slot: |o| Slot::U64(&mut o.salts) };
const JOBS: Flag = Flag { name: "jobs", value: "<n>", slot: |o| Slot::U64(&mut o.jobs) };
const SCENARIO: Flag =
    Flag { name: "scenario", value: "<name>", slot: |o| Slot::Text(&mut o.scenario) };
const SHARDS: Flag = Flag { name: "shards", value: "<n>", slot: |o| Slot::U64(&mut o.shards) };
const PROFILE: Flag =
    Flag { name: "profile", value: "", slot: |o| Slot::Switch(&mut o.obs.profile) };
const PROFILE_JSON: Flag =
    Flag { name: "profile-json", value: "<path>", slot: |o| Slot::Text(&mut o.obs.profile_json) };
const TRACE_OUT: Flag =
    Flag { name: "trace-out", value: "<path>", slot: |o| Slot::Text(&mut o.obs.trace_out) };

impl Flag {
    /// Pulls `--<name> [value]` out of the argument list, if present. A
    /// missing or malformed value is an error message, never a panic.
    fn take(&self, args: &mut Vec<String>, opts: &mut Opts) -> Result<(), String> {
        let flag = format!("--{}", self.name);
        let Some(pos) = args.iter().position(|a| *a == flag) else {
            return Ok(());
        };
        args.remove(pos);
        let mut value = || {
            if pos < args.len() {
                Ok(args.remove(pos))
            } else {
                Err(format!("{flag} needs a value"))
            }
        };
        match (self.slot)(opts) {
            Slot::Switch(on) => *on = true,
            Slot::Text(slot) => *slot = Some(value()?),
            Slot::U64(slot) => {
                let v = value()?;
                *slot = Some(v.parse().map_err(|_| format!("{flag} {v}: not a u64"))?);
            }
            Slot::Capture(slot) => {
                *slot = Some(value()?.parse::<CapturePolicy>().map_err(|e| e.to_string())?);
            }
        }
        Ok(())
    }
}

/// Why a verb produced no exit code of its own: `None` when its arguments
/// do not fit (print the usage text), else what to report as
/// `defined-dbg: <message>`. `?` lifts a `String` error into `Some`.
type CliError = Option<String>;

/// One subcommand: its positional synopsis (`<required>` / `[optional]`,
/// which also fixes how many positionals it takes), the flags it owns —
/// in the order they are pulled from the argument list — and its handler.
/// A flag on a verb that does not own it is left among the positionals,
/// where it breaks the arity: a usage error, not a silently ignored
/// argument.
struct Verb {
    name: &'static str,
    positionals: &'static [&'static str],
    flags: &'static [Flag],
    run: fn(&[String], &Opts) -> Result<ExitCode, CliError>,
}

impl Verb {
    fn arity(&self) -> RangeInclusive<usize> {
        let required = self.positionals.iter().filter(|p| p.starts_with('<')).count();
        required..=self.positionals.len()
    }
}

const VERBS: &[Verb] = &[
    Verb {
        name: "record",
        positionals: &["<scenario>", "[recording-file]"],
        flags: &[SEED, OUT, CKPT, SHARDS, PROFILE, PROFILE_JSON, TRACE_OUT],
        run: record,
    },
    Verb {
        name: "debug",
        positionals: &["<scenario>", "<recording-file>", "[script-file]"],
        flags: &[SHARDS, PROFILE, PROFILE_JSON, TRACE_OUT],
        run: debug,
    },
    Verb {
        name: "replay",
        positionals: &["<scenario>", "<recording-file>"],
        flags: &[SHARDS, PROFILE, PROFILE_JSON, TRACE_OUT],
        run: replay,
    },
    Verb {
        name: "explore",
        positionals: &["<scenario>", "[recording-file]"],
        flags: &[CKPT, SALTS, JOBS, SHARDS, PROFILE, PROFILE_JSON, TRACE_OUT],
        run: explore,
    },
    Verb {
        name: "bisect",
        positionals: &["<scenario>", "[recording-file]"],
        flags: &[CKPT, JOBS, SHARDS, PROFILE, PROFILE_JSON, TRACE_OUT],
        run: bisect,
    },
    Verb {
        name: "verify",
        positionals: &["<run.drec>"],
        flags: &[SCENARIO, SHARDS, PROFILE, PROFILE_JSON, TRACE_OUT],
        run: verify,
    },
    Verb {
        name: "check-profile",
        positionals: &["<profile.json>"],
        flags: &[],
        run: |args, _| Ok(check_profile(&args[0])?),
    },
    Verb { name: "scenarios", positionals: &[], flags: &[], run: |_, _| Ok(list_scenarios()) },
];

/// Prints the synopsis of every verb, generated from [`VERBS`].
fn usage() -> ExitCode {
    for (i, verb) in VERBS.iter().enumerate() {
        let lead = if i == 0 { "usage:" } else { "      " };
        let mut line = format!("{lead} defined-dbg {}", verb.name);
        for p in verb.positionals {
            line += &format!(" {p}");
        }
        for f in verb.flags {
            line += format!(" [--{} {}", f.name, f.value).trim_end();
            line += "]";
        }
        eprintln!("{line}");
    }
    eprintln!(
        "\n<scenario> is a registry name (see `defined-dbg scenarios`) or a .scn file path\n\
         recording files may be raw `record` output or a crash-safe .drec store (--out)\n\
         --jobs 0 / --shards 0 mean one worker per available core"
    );
    ExitCode::FAILURE
}

/// Resolves a scenario argument: a registry name, else a `.scn` file path
/// (anything that ends in `.scn` or names an existing file). Registry first,
/// so a stray file in the working directory cannot shadow a scenario name.
fn resolve(arg: &str) -> Result<Scenario, String> {
    if let Some(scn) = scenario::find(arg) {
        return Ok(scn);
    }
    if arg.ends_with(".scn") || std::path::Path::new(arg).exists() {
        let text = std::fs::read_to_string(arg).map_err(|e| format!("{arg}: {e}"))?;
        scenario::scn::parse(&text).map_err(|e| format!("{arg}: {e}"))
    } else {
        Err(format!("unknown scenario: {arg} (try `defined-dbg scenarios`)"))
    }
}

fn list_scenarios() -> ExitCode {
    let reg = scenario::registry();
    let width = reg.iter().map(|s| s.name.len()).max().unwrap_or(0);
    for s in &reg {
        println!("{:width$}  {}", s.name, s.description);
    }
    ExitCode::SUCCESS
}

fn record(args: &[String], opts: &Opts) -> Result<ExitCode, CliError> {
    let (path, out) = (args.get(1).map(String::as_str), opts.out.as_deref());
    let dest = out.or(path).ok_or(None)?; // Some output is mandatory: else a usage error.
    let scn = opts.scenario(&args[0])?;
    let run = match out {
        Some(store_path) => scn
            .record_run_to_store(std::path::Path::new(store_path))
            .map_err(|e| format!("{store_path}: {e}"))?,
        None => scn.record_run().map_err(|e| e.to_string())?,
    };
    if let Some(path) = path {
        std::fs::write(path, &run.bytes).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{} -> {dest}", run.summary(&scn.name));
    println!("{}", run.gvt.render());
    if let Some(outcome) = &run.outcome {
        println!("production outcome: {outcome}");
    }
    if opts.shards.is_some() {
        // Self-check: replay the fresh recording sharded and hold it to
        // Theorem 1 against the production commit logs.
        let shards = opts.shards();
        let logs = scn.replay_logs_sharded(&run.bytes, shards).map_err(|e| e.to_string())?;
        if let Some(d) = defined::core::ls::first_divergence(&run.logs, &logs, run.upto) {
            eprintln!("{}: sharded replay diverged from production: {d:?}", scn.name);
            return Ok(ExitCode::FAILURE);
        }
        println!("sharded replay check: {shards} shard(s), identical to production");
    }
    Ok(ExitCode::SUCCESS)
}

fn read_script(arg: Option<&str>) -> Result<String, String> {
    match arg {
        Some(path) => std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}")),
        None => {
            let mut s = String::new();
            std::io::stdin().read_to_string(&mut s).map_err(|e| e.to_string())?;
            Ok(s)
        }
    }
}

/// Warns (stderr) when a store file needed torn-tail recovery, so a
/// replay of the durable prefix is never mistaken for the full run. A
/// structurally corrupt store stays silent here — the verb's own open
/// will surface the typed error.
fn warn_recovered(path: &str, bytes: &[u8]) {
    if !defined::store::is_store(bytes) {
        return;
    }
    if let Ok(info) = defined::store::scan(bytes) {
        if !info.finished {
            eprintln!(
                "{path}: torn tail recovered — replaying the durable prefix through \
                 group {} ({} byte(s) past the last sync point discarded)",
                info.synced_group, info.recovered_tail_bytes
            );
        }
    }
}

fn debug(args: &[String], opts: &Opts) -> Result<ExitCode, CliError> {
    let scn = opts.scenario(&args[0])?;
    let rec_path = &args[1];
    let bytes = std::fs::read(rec_path).map_err(|e| format!("{rec_path}: {e}"))?;
    warn_recovered(rec_path, &bytes);
    let script = read_script(args.get(2).map(String::as_str))?;
    match scn.debug_transcript_sharded(&bytes, &script, opts.shards()) {
        Ok(transcript) => {
            print!("{transcript}");
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("{rec_path}: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

/// Default ordering-sweep width for `explore` when `--salts` is omitted.
const DEFAULT_SALTS: u64 = 32;

/// The recording bytes a search verb operates on: loaded from a file when
/// one was given (skipping the re-record), freshly recorded otherwise.
fn search_bytes(scn: &Scenario, rec_path: Option<&str>) -> Result<Vec<u8>, String> {
    match rec_path {
        Some(path) => {
            let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
            warn_recovered(path, &bytes);
            Ok(bytes)
        }
        None => {
            let run = scn.record_run().map_err(|e| e.to_string())?;
            println!("{}", run.summary(&scn.name));
            println!("{}", run.gvt.render());
            Ok(run.bytes)
        }
    }
}

fn explore(args: &[String], opts: &Opts) -> Result<ExitCode, CliError> {
    let scn = opts.scenario(&args[0])?;
    let bytes = search_bytes(&scn, args.get(1).map(String::as_str))?;
    let salts = opts.salts.unwrap_or(DEFAULT_SALTS);
    let report = scn.explore_run(&bytes, salts, &opts.farm()).map_err(|e| e.to_string())?;
    print!("{}", report.render());
    Ok(ExitCode::SUCCESS)
}

fn replay(args: &[String], opts: &Opts) -> Result<ExitCode, CliError> {
    let scn = opts.scenario(&args[0])?;
    let rec_path = &args[1];
    let bytes = std::fs::read(rec_path).map_err(|e| format!("{rec_path}: {e}"))?;
    warn_recovered(rec_path, &bytes);
    let logs =
        scn.replay_logs_sharded(&bytes, opts.shards()).map_err(|e| format!("{rec_path}: {e}"))?;
    let entries: usize = logs.iter().map(Vec::len).sum();
    println!("replayed {}: {} node(s), {} committed entries", scn.name, logs.len(), entries);
    Ok(ExitCode::SUCCESS)
}

fn verify(args: &[String], opts: &Opts) -> Result<ExitCode, CliError> {
    let rec_path = &args[0];
    let bytes = std::fs::read(rec_path).map_err(|e| format!("{rec_path}: {e}"))?;
    if !defined::store::is_store(&bytes) {
        return Err(format!("{rec_path}: not a recording store (missing DREC magic)").into());
    }
    let scn = match &opts.scenario {
        Some(arg) => resolve(arg)?,
        None => {
            // The store keeps the scenario's name; only a registry entry
            // can be found by name alone.
            let info = defined::store::scan(&bytes).map_err(|e| format!("{rec_path}: {e}"))?;
            scenario::find(&info.scenario).ok_or_else(|| {
                format!(
                    "{rec_path}: recorded from scenario `{}`, which is not in the registry; \
                     pass its .scn file with --scenario <path>",
                    info.scenario
                )
            })?
        }
    };
    match scn.verify_store(&bytes, opts.shards()) {
        Ok(report) => {
            print!("{}", report.render());
            Ok(if report.ok() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
        }
        Err(e) => {
            eprintln!("{rec_path}: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn bisect(args: &[String], opts: &Opts) -> Result<ExitCode, CliError> {
    let scn = opts.scenario(&args[0])?;
    let bytes = search_bytes(&scn, args.get(1).map(String::as_str))?;
    match scn.bisect_run(&bytes, &opts.farm()).map_err(|e| e.to_string())? {
        Some(summary) => {
            print!("{}", summary.render());
            Ok(ExitCode::SUCCESS)
        }
        None => {
            eprintln!("{}: the recording has no groups to bisect", scn.name);
            Ok(ExitCode::FAILURE)
        }
    }
}

/// Where a run's observability is surfaced (DESIGN.md §11). Reporting
/// only: none of these change what the run computes.
#[derive(Default)]
struct ObsOpts {
    profile: bool,
    profile_json: Option<String>,
    trace_out: Option<String>,
}

/// Writes the requested observability artifacts after a run.
fn emit_obs(opts: &ObsOpts) -> Result<(), String> {
    if !opts.profile && opts.profile_json.is_none() && opts.trace_out.is_none() {
        return Ok(());
    }
    let snap = defined::obs::global().snapshot();
    if opts.profile {
        print!("{}", snap.render_profile());
    }
    if let Some(path) = &opts.profile_json {
        std::fs::write(path, snap.to_json()).map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = &opts.trace_out {
        let events = defined::obs::take_events();
        std::fs::write(path, defined::obs::chrome_trace_json(&events))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

/// Validates a `--profile-json` dump from a record+replay run: the schema
/// version, the three sections, and the counters/spans CI depends on.
fn check_profile(path: &str) -> Result<ExitCode, String> {
    use defined::obs::json::Value;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = defined::obs::json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if v.get("version").and_then(Value::as_u64) != Some(1) {
        return Err(format!("{path}: missing or unsupported profile schema version"));
    }
    let section = |key: &str| match v.get(key) {
        Some(Value::Obj(m)) => Ok(m.len()),
        _ => Err(format!("{path}: missing `{key}` section")),
    };
    let n_counters = section("counters")?;
    let n_spans = section("spans")?;
    let n_hists = section("histograms")?;
    let counters = v.get("counters").expect("checked");
    for name in
        ["gvt.samples", "ls.waves", "ls.delivered", "wire.bytes_encoded", "wire.bytes_decoded"]
    {
        if counters.get(name).and_then(Value::as_u64).is_none() {
            return Err(format!("{path}: required counter `{name}` missing"));
        }
    }
    let span_count = v
        .get("spans")
        .and_then(|s| s.get("ls.wave"))
        .and_then(|s| s.get("count"))
        .and_then(Value::as_u64);
    if span_count.is_none() {
        return Err(format!("{path}: required span `ls.wave` missing"));
    }
    println!("{path}: valid profile ({n_counters} counters, {n_spans} spans, {n_hists} histograms)");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let Some(verb) = args.first().and_then(|name| VERBS.iter().find(|v| v.name == name)) else {
        return usage();
    };
    args.remove(0);
    let mut opts = Opts::default();
    for flag in verb.flags {
        if let Err(e) = flag.take(&mut args, &mut opts) {
            eprintln!("defined-dbg: {e}");
            return ExitCode::FAILURE;
        }
    }
    if !verb.arity().contains(&args.len()) {
        return usage();
    }
    if opts.obs.trace_out.is_some() {
        defined::obs::set_tracing(true);
    }
    // The observability artifacts are written after the verb, win or lose —
    // a failing run's profile is exactly the one worth reading.
    let result = (verb.run)(&args, &opts).and_then(|code| Ok(emit_obs(&opts.obs).map(|()| code)?));
    match result {
        Ok(code) => code,
        Err(None) => usage(),
        Err(Some(e)) => {
            eprintln!("defined-dbg: {e}");
            ExitCode::FAILURE
        }
    }
}
