//! The replay farm: parallel, checkpoint-accelerated probe execution for
//! the mechanised search engines ([`crate::explore`], [`crate::bisect`]).
//!
//! DEFINED's determinism (Theorem 1) makes replays *comparable*, so
//! debugging searches — ordering sweeps, prefix bisection — are
//! embarrassingly parallel: every probe is an independent deterministic
//! replay. This module supplies the two ingredients that let one search
//! engine run on any number of workers without changing its answers:
//!
//! * **Worker pools** whose results are a pure function of the probe
//!   *schedule*, never of thread timing. Every round — a salt survey, the
//!   midpoints of a bisection step — is a deterministic parallel map
//!   (`map_indexed`): results are placed by index, so the earliest matching
//!   salt is the first hit in the result vector, not the first to finish,
//!   and speculative k-way bisection converges to the same group as the
//!   serial binary search.
//! * **Checkpoint-seeded probe sessions** ([`ProbeSession`]): each worker
//!   owns a [`LockstepNet`] plus a [`Timeline`] of group-boundary images
//!   captured during its own forward replays. A prefix probe restores the
//!   nearest checkpoint at or before the target group and re-executes at
//!   most one checkpoint interval — sublinear per probe, instead of a full
//!   replay from event zero.
//!
//! DESIGN.md §9 gives the determinism argument in full.

use crate::config::DefinedConfig;
use crate::ls::{LockstepNet, LsHistory, LsImage};
use crate::recorder::Recording;
use crate::wire::Wire;
use checkpoint::{RetentionPolicy, Strategy, Timeline};
use defined_obs as obs;
use netsim::NodeId;
use routing::ControlPlane;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use topology::Graph;

/// Default spacing, in groups, between the images a [`ProbeSession`]
/// retains along its forward replays. Small enough that a probe re-executes
/// only a short tail; large enough that image capture stays off the hot
/// path.
pub const DEFAULT_PROBE_CHECKPOINT_INTERVAL: u64 = 8;

/// How a farm runs its probes. Every field influences only *cost*; the
/// results of the search engines are identical for any configuration
/// (asserted by `tests/farm_determinism.rs`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FarmConfig {
    /// Worker threads. `1` runs probes inline on the calling thread.
    pub jobs: usize,
    /// Midpoints probed per bisection round (k-way speculation). `1` is
    /// exactly the serial binary search; the probe *schedule* is a function
    /// of this value alone, so `replays` in a [`crate::bisect::BisectReport`]
    /// does not depend on `jobs`.
    pub speculation: usize,
    /// Groups between retained probe-session checkpoints.
    pub checkpoint_every: u64,
    /// Worker shards *within* each probe replay
    /// ([`LockstepNet::with_shards`]) — intra-replay parallelism, composing
    /// with the inter-probe parallelism of `jobs`.
    pub shards: usize,
}

impl FarmConfig {
    /// The serial configuration: one inline worker, binary (non-speculative)
    /// bisection, unsharded replays. There is no separate serial engine:
    /// the search functions of [`crate::explore`] and [`crate::bisect`] take
    /// a `&FarmConfig`, and this value is their one-worker reference run.
    pub fn serial() -> Self {
        FarmConfig {
            jobs: 1,
            speculation: 1,
            checkpoint_every: DEFAULT_PROBE_CHECKPOINT_INTERVAL,
            shards: 1,
        }
    }

    /// `jobs` workers with matching speculation width (each bisection round
    /// keeps every worker busy). `0` means auto: the host's available
    /// parallelism ([`crate::shard::resolve_workers`]).
    pub fn with_jobs(jobs: usize) -> Self {
        let jobs = crate::shard::resolve_workers(jobs);
        FarmConfig { jobs, speculation: jobs, ..FarmConfig::serial() }
    }

    /// Builder: shards each probe replay `shards` ways (`0` = auto).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = crate::shard::resolve_workers(shards);
        self
    }
}

impl Default for FarmConfig {
    fn default() -> Self {
        FarmConfig::serial()
    }
}

/// A probe job that panicked on both its supervised attempts.
///
/// Worker panics never take the farm down: each job runs under
/// `catch_unwind`, is retried once, and only then reported as this
/// structured per-job failure — the surviving jobs' results are unaffected
/// (and remain job-count invariant).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobPanic {
    /// The job's index in its round.
    pub index: usize,
    /// The panic payload, when it was a string.
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "probe job {} panicked: {}", self.index, self.message)
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `eval` under `catch_unwind` with one retry: transient panics cost
/// a retry, a second panic becomes a structured [`JobPanic`].
fn eval_supervised<T>(eval: impl Fn() -> T, index: usize) -> Result<T, JobPanic> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(&eval)) {
        Ok(t) => Ok(t),
        Err(first) => {
            obs::counter!("farm.job_panics").add(1);
            obs::counter!("farm.job_retries").add(1);
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(&eval)) {
                Ok(t) => Ok(t),
                Err(_) => {
                    obs::counter!("farm.job_panics").add(1);
                    Err(JobPanic { index, message: panic_message(&*first) })
                }
            }
        }
    }
}

/// Two supervised attempts, then a third *uncaught* one on the calling
/// thread — the graceful degradation to serial for callers whose return
/// type cannot carry a per-job error: a transient panic is absorbed, a
/// deterministic one propagates cleanly (no hung workers, no dead
/// mailboxes) after the farm has already wound down.
pub(crate) fn supervised<T>(eval: impl Fn() -> T) -> T {
    match eval_supervised(&eval, 0) {
        Ok(t) => t,
        Err(_) => {
            obs::counter!("farm.serial_fallback").add(1);
            eval()
        }
    }
}

/// Resolves a round of supervised results: surviving jobs pass through,
/// failed jobs are re-evaluated serially (uncaught) in index order.
pub(crate) fn settle<T>(results: Vec<Result<T, JobPanic>>, eval: impl Fn(usize) -> T) -> Vec<T> {
    results
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            r.unwrap_or_else(|_| {
                obs::counter!("farm.serial_fallback").add(1);
                eval(i)
            })
        })
        .collect()
}

/// Locks `m`, recovering the guard when a holder panicked: every critical
/// section of the farm is one slot store, push or pop, so the data is valid
/// at every step.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `eval(0..n)` across `jobs` workers and returns the results in
/// index order — a deterministic parallel map. Workers claim indices from a
/// shared counter; placement by index erases completion order. Each job is
/// supervised: a panicking probe yields `Err(JobPanic)` in its slot rather
/// than tearing down the scope.
pub(crate) fn map_indexed<T, F>(jobs: usize, n: usize, eval: F) -> Vec<Result<T, JobPanic>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = jobs.max(1).min(n.max(1));
    let queued = obs::Stopwatch::start();
    if jobs == 1 {
        return (0..n)
            .map(|i| {
                obs::counter!("farm.jobs_claimed").add(1);
                queued.lap(obs::hist!("farm.queue_wait_ns"));
                eval_supervised(|| eval(i), i)
            })
            .collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Result<T, JobPanic>>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= n {
                    break;
                }
                obs::counter!("farm.jobs_claimed").add(1);
                queued.lap(obs::hist!("farm.queue_wait_ns"));
                let out = eval_supervised(|| eval(i), i);
                lock(&slots)[i] = Some(out);
            });
        }
    });
    let slots = slots.into_inner().unwrap_or_else(PoisonError::into_inner);
    slots.into_iter().map(|s| s.expect("every index evaluated")).collect()
}

/// A reusable probe worker: a lockstep replay plus the checkpoint timeline
/// of its own history. Repositioning restores the nearest retained image at
/// or before the target and re-executes forward, capturing fresh images at
/// every [`FarmConfig::checkpoint_every`] group boundary on the way — so a
/// session's probes cost one checkpoint interval of replay, not the whole
/// run, wherever in the recording they land.
///
/// Images are captured only at exact group starts
/// ([`LockstepNet::run_to_group_start`]), which is also the boundary the
/// bisection probes are defined on.
pub struct ProbeSession<P: ControlPlane> {
    net: LockstepNet<P>,
    timeline: Timeline<LsImage<P>>,
    /// Longest canonical history observed by this session's replays: lets a
    /// restore land *ahead* of the current position with full log fidelity
    /// (see [`LockstepNet::restore_image_seeded`]).
    history: LsHistory,
    interval: u64,
}

impl<P> ProbeSession<P>
where
    P: ControlPlane,
    P::Msg: Wire,
    P::Ext: Wire,
{
    /// Builds a session over a fresh replay and anchors its timeline at
    /// position 0 (the anchor is never thinned, so every rewind target is
    /// reachable). The session's replay runs under `farm.shards` worker
    /// shards and checkpoints every `farm.checkpoint_every` groups — images
    /// themselves are shard-count-agnostic, so a timeline seeded under one
    /// shard count restores under any other.
    pub fn new(
        graph: &Graph,
        cfg: DefinedConfig,
        recording: Recording<P::Ext>,
        spawn: impl FnMut(NodeId) -> P,
        farm: &FarmConfig,
    ) -> Self {
        let net = LockstepNet::new(graph, cfg, recording, spawn).with_shards(farm.shards);
        // CloneState: probe farms optimise replay latency, not resident
        // memory, and deep clones skip the encode pass entirely.
        let mut timeline = Timeline::new(Strategy::CloneState, RetentionPolicy::default());
        timeline.record(0, &net.capture_image());
        let history = LsHistory::new(graph.node_count());
        ProbeSession { net, timeline, history, interval: farm.checkpoint_every.max(1) }
    }

    /// The replay at its current position.
    pub fn net(&self) -> &LockstepNet<P> {
        &self.net
    }

    /// Unwraps the session, keeping the replay where it stands (for
    /// event-level stepping past a located boundary).
    pub fn into_net(self) -> LockstepNet<P> {
        self.net
    }

    /// Retained checkpoint positions (groups), for inspection.
    pub fn checkpoint_positions(&self) -> Vec<u64> {
        self.timeline.positions().collect()
    }

    /// Positions the replay at the exact start of `group`, seeding from the
    /// best retained checkpoint: rewinds restore the nearest image at or
    /// before the target; forward moves also restore when a retained image
    /// lies *beyond* the current position (a previous probe already covered
    /// the ground).
    pub fn goto_group_start(&mut self, group: u64) {
        let _span = obs::span!("farm.goto");
        self.net.merge_history(&mut self.history);
        let cur = self.net.current_group();
        let usable_forward = !self.net.is_done()
            && (cur < group || (cur == group && self.net.at_group_start()));
        let seed = self.timeline.position_at_or_before(group);
        if !usable_forward || seed.is_some_and(|p| p > cur) {
            let (pos, img) = self
                .timeline
                .restore_at_or_before(group)
                .expect("the anchor at position 0 is never thinned");
            if pos == 0 {
                obs::counter!("farm.probe_from_zero").add(1);
            } else {
                obs::counter!("farm.probe_seeded").add(1);
            }
            // Seeded restore: the image may lie ahead of the current
            // position; the session's accumulated history supplies the
            // canonical log prefix either way.
            self.net.restore_image_seeded(img, &self.history);
        } else {
            obs::counter!("farm.probe_continued").add(1);
        }
        let replay_from = self.net.current_group();
        while !self.net.is_done() && self.net.current_group() < group {
            let cur = self.net.current_group();
            let target = ((cur / self.interval + 1) * self.interval).min(group);
            if !self.net.run_to_group_start(target) {
                break; // Recording exhausted: the state is the full replay.
            }
            if target.is_multiple_of(self.interval) {
                self.timeline.record(target, &self.net.capture_image());
            }
        }
        obs::hist!("farm.probe_groups_replayed")
            .record(self.net.current_group().saturating_sub(replay_from));
        self.net.merge_history(&mut self.history);
    }

    /// One prefix probe: positions at the end of group `g` (the exact start
    /// of `g + 1`) and evaluates the predicate there.
    pub fn probe_prefix(&mut self, g: u64, bad: impl Fn(&LockstepNet<P>) -> bool) -> bool {
        self.goto_group_start(g + 1);
        bad(&self.net)
    }
}

/// A shared bag of [`ProbeSession`]s: workers borrow one per probe and
/// return it, so session state (and its checkpoints) survives across rounds
/// however the round's probes are scheduled onto threads.
pub(crate) struct SessionPool<P: ControlPlane>(Mutex<Vec<ProbeSession<P>>>);

impl<P: ControlPlane> SessionPool<P> {
    pub(crate) fn new() -> Self {
        SessionPool(Mutex::new(Vec::new()))
    }

    pub(crate) fn take(&self) -> Option<ProbeSession<P>> {
        lock(&self.0).pop()
    }

    pub(crate) fn put(&self, session: ProbeSession<P>) {
        lock(&self.0).push(session);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::RbNetwork;
    use netsim::{SimDuration, SimTime};
    use routing::ospf::{OspfConfig, OspfProcess};
    use topology::canonical;

    #[test]
    fn map_indexed_orders_results_by_index() {
        for jobs in [1, 2, 8] {
            let out: Vec<usize> =
                map_indexed(jobs, 20, |i| i * i).into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(out, (0..20).map(|i| i * i).collect::<Vec<_>>(), "jobs={jobs}");
        }
        assert!(map_indexed(4, 0, |i| i).is_empty());
    }

    /// A deterministically panicking job becomes a structured `Err` in its
    /// slot — no hang, no scope teardown — and every surviving job's
    /// result is identical under any job count.
    #[test]
    fn panicking_jobs_are_reported_not_fatal() {
        for jobs in [1, 2, 8] {
            let out = map_indexed(jobs, 12, |i| {
                assert!(i != 5, "deliberate probe panic");
                i * 3
            });
            assert_eq!(out.len(), 12, "jobs={jobs}");
            for (i, r) in out.iter().enumerate() {
                match r {
                    Ok(v) if i != 5 => assert_eq!(*v, i * 3),
                    Err(p) if i == 5 => {
                        assert_eq!(p.index, 5);
                        assert!(p.message.contains("deliberate probe panic"), "{p}");
                    }
                    other => panic!("jobs={jobs} slot {i}: unexpected {other:?}"),
                }
            }
        }
    }

    /// A transient panic is absorbed by the single retry.
    #[test]
    fn transient_panics_are_retried() {
        let tripped = AtomicUsize::new(0);
        let out = map_indexed(2, 8, |i| {
            if i == 3 && tripped.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("transient");
            }
            i
        });
        assert!(out.iter().enumerate().all(|(i, r)| r.as_ref() == Ok(&i)), "{out:?}");
        assert_eq!(tripped.load(Ordering::SeqCst), 2, "one failure + one retry");
    }

    /// `settle` re-runs failed jobs serially so Option-shaped callers
    /// still get a full result set when the panic was transient.
    #[test]
    fn settle_degrades_failed_jobs_to_serial() {
        let results = vec![Ok(10), Err(JobPanic { index: 1, message: "boom".into() }), Ok(30)];
        assert_eq!(settle(results, |i| i * 100), vec![10, 100, 30]);
    }

    fn recorded() -> (topology::Graph, Recording<()>, Vec<OspfProcess>) {
        let g = canonical::ring(4, SimDuration::from_millis(4));
        let procs: Vec<OspfProcess> = {
            let f = OspfProcess::for_graph(&g, OspfConfig::stress(4));
            (0..4).map(|i| f(NodeId(i))).collect()
        };
        let spawn = procs.clone();
        let mut net = RbNetwork::new(&g, DefinedConfig::default(), 9, 0.4, move |id| {
            spawn[id.index()].clone()
        });
        net.run_until(SimTime::from_secs(4));
        let (rec, _) = net.into_recording();
        (g, rec, procs)
    }

    /// A session's probes land on the same states a fresh from-zero replay
    /// reaches, in any probe order, and its timeline accumulates seeds.
    #[test]
    fn probe_session_matches_from_zero_replays_in_any_order() {
        let (g, rec, procs) = recorded();
        let last = rec.last_group;
        assert!(last > 10, "recording long enough: {last}");
        let spawn = |id: NodeId| procs[id.index()].clone();
        let farm = FarmConfig { checkpoint_every: 4, ..FarmConfig::serial() };
        let mut session =
            ProbeSession::new(&g, DefinedConfig::default(), rec.clone(), spawn, &farm);
        for target in [last, 3, last / 2, 5, last / 2, last + 1] {
            session.goto_group_start(target);
            let mut fresh =
                LockstepNet::new(&g, DefinedConfig::default(), rec.clone(), spawn);
            fresh.run_to_group_start(target);
            assert_eq!(
                session.net().logs(),
                fresh.logs(),
                "probe at group {target} diverged from the from-zero replay"
            );
        }
        assert!(
            session.checkpoint_positions().len() > 2,
            "forward replays retained boundary images: {:?}",
            session.checkpoint_positions()
        );
    }
}
