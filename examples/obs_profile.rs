//! Profiles the Fig. 8 scaling workload (`fig8_size/rb_oo_2s`) with the
//! obs substrate: one RB production run per network size, top-3 span and
//! counter attribution from registry deltas (ROADMAP item 4's "profile"
//! half — the EXPERIMENTS.md fig8 row records what this prints).
//!
//! Run with: `cargo run --release --example obs_profile`
//!
//! Flags:
//!
//! * `--quick` — profile only n=20 (the CI-sized run);
//! * `--check <ns>` — scale-regression guard: exit non-zero if, in any
//!   profiled run, `ckpt.capture` time exceeds `<ns>` nanoseconds per
//!   4 KiB page of state captured (`ckpt.pages_total`: captures × image
//!   size). CI runs `--quick --check` with the checked-in ceiling so a
//!   change that re-inflates the checkpoint hot path fails the build. The
//!   gate is capture's own unit cost, not its share of the run: a share
//!   moves whenever anything *else* in the run gets faster or slower
//!   (cheaper redelivery alone took it from 10% to 20% at n=40 with
//!   capture untouched). The share is still printed.

use defined::core::config::CapturePolicy;
use defined::core::{DefinedConfig, OrderingMode, RbNetwork};
use defined::netsim::{NodeId, SimDuration, SimTime};
use defined::obs;
use defined::routing::ospf::{OspfConfig, OspfProcess};
use defined::topology::brite;
use std::process::ExitCode;

/// The exact workload of `fig8_size/rb_oo_2s` in `crates/bench`, under the
/// production capture policy (churn-adaptive, page-diff checkpoints).
fn rb_run(n: usize) -> defined::core::RbMetrics {
    let g = brite::barabasi_albert(n, 2, 80 + n as u64);
    let f = OspfProcess::for_graph(&g, OspfConfig::stress(n));
    let spawn: Vec<OspfProcess> = (0..n).map(|i| f(NodeId(i as u32))).collect();
    let cfg = DefinedConfig {
        ordering: OrderingMode::Optimized,
        strategy: defined::checkpoint::Strategy::MemIntercept,
        capture: CapturePolicy::auto(),
        commit_horizon: Some(SimDuration::from_secs(2)),
        ..DefinedConfig::default()
    };
    let mut net = RbNetwork::new(&g, cfg, 5, 0.3, move |id| spawn[id.index()].clone());
    net.run_until(SimTime::from_secs(2));
    net.total_metrics()
}

fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=9_999 => format!("{ns}ns"),
        10_000..=9_999_999 => format!("{:.1}µs", ns as f64 / 1e3),
        10_000_000..=9_999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: obs_profile [--quick] [--check <max-capture-ns-per-page>]");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut quick = false;
    let mut check: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--check" => match args.next().map(|v| v.parse::<u64>()) {
                Some(Ok(ns)) => check = Some(ns),
                _ => return usage(),
            },
            _ => return usage(),
        }
    }

    obs::set_enabled(true);
    println!("== Profiling fig8_size/rb_oo_2s (RB production, 2 sim-seconds) ==");

    let sizes: &[usize] = if quick { &[20] } else { &[20, 40] };
    let mut worst_capture_ns = 0u64;
    for &n in sizes {
        let before = obs::global().snapshot();
        let metrics = {
            let _run = obs::span!("profile.rb_run");
            rb_run(n)
        };
        let after = obs::global().snapshot();

        // Delta spans, attributed against the whole-run span.
        let total_ns = after
            .spans
            .get("profile.rb_run")
            .map_or(0, |s| s.total_ns)
            - before.spans.get("profile.rb_run").map_or(0, |s| s.total_ns);
        let mut spans: Vec<(String, u64, u64)> = after
            .spans
            .iter()
            .filter(|(name, _)| name.as_str() != "profile.rb_run")
            .map(|(name, s)| {
                let b = before.spans.get(name);
                (
                    name.clone(),
                    s.count - b.map_or(0, |b| b.count),
                    s.total_ns - b.map_or(0, |b| b.total_ns),
                )
            })
            .filter(|(_, count, _)| *count > 0)
            .collect();
        spans.sort_by_key(|(_, _, ns)| std::cmp::Reverse(*ns));

        let mut counters: Vec<(String, u64)> = after
            .counters
            .iter()
            .map(|(name, v)| (name.clone(), v - before.counter(name)))
            .filter(|(_, delta)| *delta > 0)
            .collect();
        counters.sort_by_key(|(_, delta)| std::cmp::Reverse(*delta));

        println!(
            "\nn={n}: {} wall, {} fast-path deliveries, {} rollback(s), \
             {} rolled entries ({} skipped by {} jumps)",
            fmt_ns(total_ns),
            metrics.fast_path,
            metrics.rollbacks,
            metrics.rolled_entries,
            metrics.jumped_entries,
            metrics.jumps
        );
        println!("  top spans (of {} run time):", fmt_ns(total_ns));
        for (name, count, ns) in spans.iter().take(3) {
            let pct = (ns * 100).checked_div(total_ns).unwrap_or(0);
            println!("    {name:<28} {:>8} total ({pct:>2}% of run), {count} call(s)", fmt_ns(*ns));
        }
        println!("  top counters:");
        for (name, delta) in counters.iter().take(3) {
            println!("    {name:<28} +{delta}");
        }

        // The guard metric: what capturing one page of state costs. (The
        // share of the run is printed for orientation; it moves with every
        // other layer.)
        let (captures, capture_ns) = spans
            .iter()
            .find(|(name, _, _)| name == "ckpt.capture")
            .map_or((0, 0), |(_, count, ns)| (*count, *ns));
        let pages = after.counter("ckpt.pages_total") - before.counter("ckpt.pages_total");
        let per_page_ns = capture_ns.checked_div(pages).unwrap_or(0);
        let capture_pct = (capture_ns * 100).checked_div(total_ns).unwrap_or(0);
        let stored = after.counter("ckpt.bytes_stored") - before.counter("ckpt.bytes_stored");
        println!(
            "  ckpt.capture: {per_page_ns} ns/page ({captures} captures of {pages} pages, \
             {} ns/capture, {capture_pct}% of run)  ckpt.bytes_stored: +{stored}",
            capture_ns.checked_div(captures).unwrap_or(0),
        );
        worst_capture_ns = worst_capture_ns.max(per_page_ns);
    }

    if let Some(max_ns) = check {
        if worst_capture_ns > max_ns {
            eprintln!(
                "FAIL: ckpt.capture took {worst_capture_ns} ns per captured page in a profiled \
                 run (ceiling {max_ns} ns) — the checkpoint hot path regressed"
            );
            return ExitCode::FAILURE;
        }
        println!("\ncheck ok: ckpt.capture {worst_capture_ns} ns/page <= {max_ns} ns");
    }
    ExitCode::SUCCESS
}
