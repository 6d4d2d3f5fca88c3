//! The DEFINED benchmark harness. See `README.md` for the workloads, the
//! metric tables and the load model, and `../BENCHMARK.json` for the
//! machine-readable contract.
//!
//! ```text
//! defined-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, in-process
//! defined-benchmark run     [--seed n] [--seconds s] [--quick] [--workload w]… [--out file]
//! defined-benchmark trace   [same flags] [--spans dir]
//! defined-benchmark compare <a.json|dir> <b.json|dir>
//! ```
//!
//! The first form is what `BENCHMARK.json`'s `command` runs: it prints
//! every metric of the mode by name and unit, then one JSON object as its
//! last line, and exits non-zero if any oracle failed. `run` / `trace`
//! drive every workload that way, each in its own child process (so
//! `peak_rss_mb` is that workload's own high-water mark), and gather the
//! children's results into one document.

mod compare;
mod gen;
mod metrics;
mod report;
mod spans;
mod stats;
mod verbs;
mod workload;

use report::Document;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workload::RunOpts;

/// Default `--seed`; 12 is the held-back seed later claims must also hold on.
const DEFAULT_SEED: u64 = 11;
/// Default `--seconds`: `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 18.0;

fn usage() -> ExitCode {
    eprintln!(
        "usage: defined-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]\n\
         \x20      defined-benchmark run|trace [--seed n] [--seconds s] [--quick] [--workload w]... [--out file] [--spans dir]\n\
         \x20      defined-benchmark compare <a.json|dir> <b.json|dir>\n\
         workloads: {}",
        gen::WORKLOADS.join(" ")
    );
    ExitCode::from(2)
}

/// Flags shared by the driver form and `run` / `trace`.
#[derive(Default)]
struct Flags {
    workloads: Vec<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let w = value()?;
                if !gen::WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}`"));
                }
                f.workloads.push(w.clone());
            }
            "--seed" => f.seed = Some(value()?.parse().map_err(|_| "--seed: not a u64")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds: not a number")?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds: must be finite and non-negative".into());
                }
                f.seconds = Some(s);
            }
            "--trace" => {
                f.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace: expected 0 or 1".into()),
                })
            }
            "--quick" => f.quick = true,
            "--out" => f.out = Some(PathBuf::from(value()?)),
            "--spans" => f.spans = Some(PathBuf::from(value()?)),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(f)
}

/// Store files go under the build directory when the driver names one
/// (it is inside the checkout and ignored by git), else under `target/`.
fn scratch_dir() -> PathBuf {
    let base =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    base.join("defined-benchmark-scratch")
}

/// The driver form: one workload, in this process.
fn one_workload(f: &Flags) -> ExitCode {
    let [workload] = f.workloads.as_slice() else {
        eprintln!("defined-benchmark: exactly one --workload");
        return usage();
    };
    let trace = f.trace.unwrap_or(false);
    let opts = RunOpts {
        workload: workload.clone(),
        seed: f.seed.unwrap_or(DEFAULT_SEED),
        seconds: f.seconds.unwrap_or(DEFAULT_SECONDS),
        trace,
        quick: f.quick,
        scratch: scratch_dir(),
        spans_out: f.spans.clone(),
    };
    println!(
        "defined-benchmark: workload {} seed {} seconds {} trace {} threads<={} cores {}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(trace),
        verbs::WORKERS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let outcome = workload::run(&opts);
    print!("{}", report::render(workload, &outcome, trace, f.quick));
    println!("{}", report::detail_line(&outcome));
    println!("{}", report::result_line(&outcome, trace));
    if report::correct(&outcome, trace) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `run` / `trace`: every (selected) workload, each in a child process.
fn all_workloads(f: &Flags, trace: bool) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("defined-benchmark: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let seed = f.seed.unwrap_or(DEFAULT_SEED);
    let seconds = f.seconds.unwrap_or(if f.quick { 0.0 } else { DEFAULT_SECONDS });
    let selected: Vec<&str> = if f.workloads.is_empty() {
        gen::WORKLOADS.to_vec()
    } else {
        gen::WORKLOADS.iter().copied().filter(|w| f.workloads.iter().any(|x| x == w)).collect()
    };
    let mut doc = Document {
        mode: if trace { "per_layer" } else { "end_to_end" }.into(),
        quick: f.quick,
        seed,
        seconds,
        workloads: Default::default(),
    };
    let mut ok = true;
    for w in selected {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w, "--seed", &seed.to_string(), "--seconds", &seconds.to_string()]);
        cmd.args(["--trace", if trace { "1" } else { "0" }]);
        if f.quick {
            cmd.arg("--quick");
        }
        if let Some(dir) = &f.spans {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("defined-benchmark: {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
            cmd.arg("--spans").arg(dir.join(format!("{w}.spans.jsonl")));
        }
        // `output` waits for the child, so none outlives this process.
        let output = match cmd.output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("defined-benchmark: cannot start {w}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        ok &= output.status.success();
        match report::parse_child(&stdout) {
            Ok(r) => {
                ok &= r.correct;
                doc.workloads.insert(w.to_string(), r);
            }
            Err(e) => {
                eprintln!("defined-benchmark: {w}: unreadable result: {e}");
                ok = false;
            }
        }
    }
    let json = doc.to_json();
    match &f.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("defined-benchmark: {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("wrote {}", path.display());
        }
        None => print!("{json}"),
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("defined-benchmark: at least one workload failed an oracle");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (verb, rest) = match args.first().map(String::as_str) {
        Some("run") => ("run", &args[1..]),
        Some("trace") => ("trace", &args[1..]),
        Some("compare") => ("compare", &args[1..]),
        Some(a) if a.starts_with("--") => ("one", &args[..]),
        _ => return usage(),
    };
    if verb == "compare" {
        let [a, b] = rest else { return usage() };
        let sides = compare::load(a.as_ref()).and_then(|a| Ok((a, compare::load(b.as_ref())?)));
        return match sides.and_then(|(a, b)| compare::compare(&a, &b)) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("defined-benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }
    let flags = match parse_flags(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("defined-benchmark: {e}");
            return usage();
        }
    };
    match verb {
        "one" => one_workload(&flags),
        "run" => all_workloads(&flags, flags.trace.unwrap_or(false)),
        _ => all_workloads(&flags, true),
    }
}
