//! Execution-path exploration (paper §4, discussion).
//!
//! DEFINED's determinism means some interleavings never occur in an
//! instrumented network — a bug that depends on them is masked (which also
//! *protects* the production network from it). The paper notes a
//! troubleshooter can apply *different ordering functions* in DEFINED-LS to
//! examine the other execution paths. [`explore_orderings`] does exactly
//! that: it replays the same partial recording under a sweep of salted
//! ordering functions until a predicate (e.g. "the bug manifested") holds.
//!
//! Each salted replay is independent, so the sweep runs on the replay farm
//! ([`crate::farm`]): the salts fan out across `farm.jobs` workers and the
//! result is still the *earliest* matching salt in the given sequence — not
//! the first to finish — so the answer is byte-identical for every job
//! count. [`FarmConfig::serial`] is the inline one-worker sweep.

use crate::config::{DefinedConfig, OrderingMode};
use crate::farm::{self, FarmConfig, JobPanic};
use crate::ls::LockstepNet;
use crate::recorder::Recording;
use netsim::NodeId;
use routing::ControlPlane;
use topology::Graph;

/// Replays `recording` under [`OrderingMode::Permuted`] for each salt in
/// `salts`, returning the first `(salt, finished network)` whose final state
/// satisfies `predicate`.
///
/// Each replay is a complete, valid execution of the recorded external
/// events — just under a different (still deterministic) schedule. The
/// salts are evaluated by `farm.jobs` workers, and the result is the match
/// *earliest in the salt sequence* — identical for every job count. Salts
/// past the earliest match are skipped once it is known.
///
/// The salt sequence is consumed lazily in bounded batches, so an
/// unbounded sweep (`0..`) terminates at the first match; only one batch
/// of salts is ever materialised.
pub fn explore_orderings<P, F, S>(
    graph: &Graph,
    base_cfg: &DefinedConfig,
    recording: &Recording<P::Ext>,
    spawn: S,
    salts: impl IntoIterator<Item = u64>,
    predicate: F,
    farm: &FarmConfig,
) -> Option<(u64, LockstepNet<P>)>
where
    P: ControlPlane,
    P::Ext: Sync,
    S: Fn(NodeId) -> P + Sync,
    F: Fn(&LockstepNet<P>) -> bool + Sync,
{
    let mut salts = salts.into_iter();
    let jobs = farm.jobs.max(1);
    // Batches are processed in sequence order, so the first batch with a
    // hit contains the globally earliest one; within a batch `sweep_min`
    // guarantees the earliest index. Jobs=1 gets a batch of 1 — the lazy
    // one-salt-at-a-time loop.
    let batch_len = if jobs == 1 { 1 } else { jobs * 8 };
    loop {
        let batch: Vec<u64> = salts.by_ref().take(batch_len).collect();
        if batch.is_empty() {
            return None;
        }
        let hit = farm::sweep_min(jobs, batch.len(), |i| {
            let ls = salted_replay(graph, base_cfg, recording, &spawn, batch[i], farm.shards);
            predicate(&ls).then_some(ls)
        });
        if let Some((i, ls)) = hit {
            return Some((batch[i], ls));
        }
    }
}

/// Maps *every* salt of a finite sequence to `project(replay)` on the
/// replay farm, in salt order — one full sweep that yields whatever
/// per-ordering observation the caller wants (an outcome string, a digest,
/// a metric). Strictly one replay per salt, so a caller needing both
/// "first match" and "how many match" pays a single sweep instead of two.
/// The result vector is a pure function of the salt sequence, independent
/// of `farm.jobs`.
///
/// Each probe is supervised: a replay that panics (twice) under some salt
/// comes back as `Err(JobPanic)` in its slot instead of taking down the
/// sweep, so one poisoned ordering cannot mask the rest of the survey.
pub fn ordering_survey<P, T, F, S>(
    graph: &Graph,
    base_cfg: &DefinedConfig,
    recording: &Recording<P::Ext>,
    spawn: S,
    salts: impl IntoIterator<Item = u64>,
    project: F,
    farm: &FarmConfig,
) -> Vec<Result<T, JobPanic>>
where
    P: ControlPlane,
    P::Ext: Sync,
    T: Send,
    S: Fn(NodeId) -> P + Sync,
    F: Fn(&LockstepNet<P>) -> T + Sync,
{
    let salts: Vec<u64> = salts.into_iter().collect();
    farm::map_indexed(farm.jobs, salts.len(), |i| {
        let ls = salted_replay(graph, base_cfg, recording, &spawn, salts[i], farm.shards);
        project(&ls)
    })
}

/// One complete replay under the salted permuted ordering, executed across
/// `shards` worker shards (shard-count invariant by the [`WaveEngine`]
/// contract, so a sharded sweep answers exactly as a serial one).
///
/// [`WaveEngine`]: crate::shard::WaveEngine
fn salted_replay<P, S>(
    graph: &Graph,
    base_cfg: &DefinedConfig,
    recording: &Recording<P::Ext>,
    spawn: &S,
    salt: u64,
    shards: usize,
) -> LockstepNet<P>
where
    P: ControlPlane,
    S: Fn(NodeId) -> P,
{
    let cfg = DefinedConfig { ordering: OrderingMode::Permuted(salt), ..base_cfg.clone() };
    let mut ls = LockstepNet::new(graph, cfg, recording.clone(), spawn).with_shards(shards);
    ls.run_to_end();
    ls
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::RbNetwork;
    use netsim::{SimDuration, SimTime};
    use routing::bgp::{fig4_paths, BgpExt, BgpProcess, DecisionMode, Role};
    use topology::canonical;

    const PREFIX: u32 = 9;

    fn processes(roles: &canonical::Fig4Roles) -> Vec<BgpProcess> {
        let internal = [roles.r1, roles.r2, roles.r3];
        (0..6u32)
            .map(|i| {
                let id = NodeId(i);
                if id == roles.er1 || id == roles.er2 {
                    BgpProcess::new(id, Role::External { border: roles.r1 }, DecisionMode::BuggyIncremental)
                } else if id == roles.er3 {
                    BgpProcess::new(id, Role::External { border: roles.r2 }, DecisionMode::BuggyIncremental)
                } else {
                    let peers = internal.iter().copied().filter(|&p| p != id).collect();
                    BgpProcess::new(id, Role::Internal { ibgp_peers: peers }, DecisionMode::BuggyIncremental)
                }
            })
            .collect()
    }

    fn fig4_recording() -> (Graph, canonical::Fig4Roles, Recording<BgpExt>) {
        let (graph, roles) =
            canonical::fig4_bgp(SimDuration::from_millis(8), SimDuration::from_millis(12));
        let cfg = DefinedConfig::default();
        let procs = processes(&roles);
        let mut net = RbNetwork::new(&graph, cfg, 1, 0.5, move |id| procs[id.index()].clone());
        let [p1, p2, p3] = fig4_paths();
        for (er, p) in [(roles.er1, p1), (roles.er2, p2), (roles.er3, p3)] {
            net.inject_external(
                SimTime::from_millis(700),
                er,
                BgpExt::Announce { prefix: PREFIX, attrs: p },
            );
        }
        net.run_until(SimTime::from_secs(4));
        let (rec, _) = net.into_recording();
        (graph, roles, rec)
    }

    /// How many of the salts satisfy the predicate, out of how many — a
    /// rough measure of how order-dependent an outcome is.
    fn sensitivity(
        graph: &Graph,
        cfg: &DefinedConfig,
        rec: &Recording<BgpExt>,
        spawn: impl Fn(NodeId) -> BgpProcess + Sync,
        salts: std::ops::Range<u64>,
        predicate: impl Fn(&LockstepNet<BgpProcess>) -> bool + Sync,
        farm: &FarmConfig,
    ) -> (usize, usize) {
        let hits = ordering_survey(graph, cfg, rec, spawn, salts, predicate, farm);
        (hits.iter().filter(|h| *h.as_ref().expect("no probe panics")).count(), hits.len())
    }

    /// §4's discussion, end to end: even if the production ordering masks
    /// the MED bug, sweeping ordering functions in the debugging network
    /// finds an execution path where it manifests.
    #[test]
    fn exploration_finds_the_masked_bgp_bug() {
        let (graph, roles, rec) = fig4_recording();
        let cfg = DefinedConfig::default();
        let roles2 = roles;
        let spawn = |id: NodeId| processes(&roles2)[id.index()].clone();
        let serial = FarmConfig::serial();
        let selects = |route_id: u32| {
            move |ls: &LockstepNet<BgpProcess>| {
                ls.control_plane(roles2.r3).best_path(PREFIX).map(|p| p.route_id) == Some(route_id)
            }
        };
        let found = explore_orderings(&graph, &cfg, &rec, spawn, 0..32u64, selects(2), &serial);
        let (_, ls) = found.expect("some ordering must trigger the bug");
        assert_eq!(ls.control_plane(roles.r3).best_path(PREFIX).unwrap().route_id, 2);
        // And sensitivity should show the bug is genuinely order-dependent:
        // some orderings select the correct p3.
        let (correct_hits, total) =
            sensitivity(&graph, &cfg, &rec, spawn, 0..32u64, selects(3), &serial);
        assert!(correct_hits > 0 && correct_hits < total, "mixed outcomes across orderings");
    }

    /// The farm returns the identical earliest salt and final state for
    /// every worker count, and the identical sensitivity tally.
    #[test]
    fn farm_sweeps_are_job_count_invariant() {
        let (graph, roles, rec) = fig4_recording();
        let cfg = DefinedConfig::default();
        let roles2 = roles;
        let spawn = |id: NodeId| processes(&roles2)[id.index()].clone();
        let bug = |ls: &LockstepNet<BgpProcess>| {
            ls.control_plane(roles2.r3).best_path(PREFIX).map(|p| p.route_id) == Some(2)
        };
        let serial = FarmConfig::serial();
        let reference = explore_orderings(&graph, &cfg, &rec, spawn, 0..32u64, bug, &serial)
            .expect("bug reachable");
        let ref_digest = crate::order::debug_digest(&reference.1.logs());
        let ref_sense = sensitivity(&graph, &cfg, &rec, spawn, 0..32u64, bug, &serial);
        for jobs in [2usize, 8] {
            let farm = FarmConfig::with_jobs(jobs);
            let (salt, ls) = explore_orderings(&graph, &cfg, &rec, spawn, 0..32u64, bug, &farm)
                .expect("bug reachable");
            assert_eq!(salt, reference.0, "jobs={jobs}: earliest salt changed");
            assert_eq!(
                crate::order::debug_digest(&ls.logs()),
                ref_digest,
                "jobs={jobs}: final execution changed"
            );
            assert_eq!(
                sensitivity(&graph, &cfg, &rec, spawn, 0..32u64, bug, &farm),
                ref_sense,
                "jobs={jobs}: sensitivity tally changed"
            );
        }
    }
}
