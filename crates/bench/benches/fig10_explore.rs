//! Fig. 10 (new for this reproduction): the replay farm — parallel
//! exploration throughput and checkpoint-seeded bisection probes.
//!
//! Two claims under test:
//!
//! 1. **Parallel sweeps scale.** An ordering sweep is a set of independent
//!    deterministic replays; with `jobs >= 2` the farm must beat the serial
//!    sweep wall-clock while returning the identical survey
//!    (determinism is asserted by `tests/farm_determinism.rs`; this bench
//!    records the speed side).
//! 2. **Checkpoint-seeded probes are sublinear.** A bisection probe seeded
//!    from the nearest retained group-boundary image re-executes at most
//!    one checkpoint interval, so a whole bisection costs far less than
//!    the from-zero probes of cyclic debugging (each O(prefix length)).
//!
//! Benchmarks:
//!
//! * `fig10_explore/sweep/serial|jobs2|jobs4` — a full 8-salt ordering
//!   survey (every salt replays).
//! * `fig10_explore/bisect/from_zero` — binary search with fresh
//!   from-event-zero replays per probe (the pre-farm engine).
//! * `fig10_explore/bisect/seeded` — the same search over one
//!   checkpoint-seeded probe session (`FarmConfig::serial`).
//! * `fig10_explore/bisect/seeded_jobs2` — speculative 2-way rounds on two
//!   workers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use defined_core::bisect::first_bad_group;
use defined_core::explore::ordering_survey;
use defined_core::{DefinedConfig, FarmConfig, LockstepNet, RbNetwork};
use netsim::{NodeId, SimDuration, SimTime};
use routing::ospf::{OspfConfig, OspfProcess};
use topology::canonical;

/// Records an OSPF ring run and returns the replay inputs.
fn recorded(secs: u64) -> (topology::Graph, defined_core::recorder::Recording<()>, Vec<OspfProcess>) {
    let g = canonical::ring(5, SimDuration::from_millis(4));
    let procs: Vec<OspfProcess> = {
        let f = OspfProcess::for_graph(&g, OspfConfig::stress(5));
        (0..5).map(|i| f(NodeId(i))).collect()
    };
    let spawn = procs.clone();
    let mut net =
        RbNetwork::new(&g, DefinedConfig::default(), 11, 0.4, move |id| spawn[id.index()].clone());
    net.run_until(SimTime::from_secs(secs));
    let (rec, _) = net.into_recording();
    (g, rec, procs)
}

fn bench_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10_explore/sweep");
    group.sample_size(10);
    let (g, rec, procs) = recorded(6);
    let cfg = DefinedConfig::default();
    let spawn = |id: NodeId| procs[id.index()].clone();
    // A survey replays all 8 salts whatever they lead to, so the
    // measurement is pure probe throughput.
    let events = |ls: &LockstepNet<OspfProcess>| ls.logs().iter().map(Vec::len).sum::<usize>();
    for jobs in [1usize, 2, 4] {
        let label = if jobs == 1 { "serial".to_string() } else { format!("jobs{jobs}") };
        let farm = FarmConfig::with_jobs(jobs);
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                let swept = ordering_survey(&g, &cfg, &rec, spawn, 0..8u64, events, &farm);
                assert!(swept.iter().all(|r| r.as_ref().is_ok_and(|&n| n > 0)));
            });
        });
    }
    group.finish();
}

fn bench_bisect(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10_explore/bisect");
    group.sample_size(10);
    let (g, rec, procs) = recorded(24);
    let cfg = DefinedConfig::default();
    let spawn = |id: NodeId| procs[id.index()].clone();
    // A monotone predicate with a mid-run answer: node 2's committed log
    // has reached the length it first attains around the middle group.
    let target_len = {
        let mut ls = LockstepNet::new(&g, cfg.clone(), rec.clone(), spawn);
        ls.run_to_group_start(rec.last_group / 2);
        ls.logs()[2].len()
    };
    assert!(target_len > 0);
    let bad = move |ls: &LockstepNet<OspfProcess>| ls.logs()[2].len() >= target_len;

    // Baseline: every probe replays its whole prefix from event zero — the
    // pre-farm engine, i.e. cyclic debugging with a binary search driver.
    group.bench_function(BenchmarkId::from_parameter("from_zero"), |b| {
        b.iter(|| {
            let mut replays = 0usize;
            let mut probe = |g_up: u64| -> bool {
                replays += 1;
                let mut ls = LockstepNet::new(&g, cfg.clone(), rec.clone(), spawn);
                ls.run_to_group_start(g_up + 1);
                bad(&ls)
            };
            assert!(probe(rec.last_group));
            let (mut lo, mut hi) = (1u64, rec.last_group);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if probe(mid) {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            lo
        });
    });

    // The farm's checkpoint-seeded session: identical probe schedule, each
    // probe re-executes at most one checkpoint interval.
    for (label, farm) in [
        ("seeded", FarmConfig::serial()),
        ("seeded_jobs2", FarmConfig::with_jobs(2)),
    ] {
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                first_bad_group(&g, &cfg, &rec, spawn, bad, &farm).expect("predicate fires")
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sweep, bench_bisect);
criterion_main!(benches);
