//! Execution-path exploration (paper §4, discussion).
//!
//! DEFINED's determinism means some interleavings never occur in an
//! instrumented network — a bug that depends on them is masked (which also
//! *protects* the production network from it). The paper notes a
//! troubleshooter can apply *different ordering functions* in DEFINED-LS to
//! examine the other execution paths. [`ordering_survey`] does exactly
//! that: it replays the same partial recording under a sweep of salted
//! ordering functions and reports what each one led to (e.g. "the bug
//! manifested").
//!
//! Each salted replay is independent, so the sweep runs on the replay farm
//! ([`crate::farm`]): the salts fan out across `farm.jobs` workers and the
//! results come back in salt order, so the *earliest* matching salt is the
//! first hit in the vector — not the first to finish — and the answer is
//! byte-identical for every job count. [`FarmConfig::serial`] is the inline
//! one-worker sweep.

use crate::config::{DefinedConfig, OrderingMode};
use crate::farm::{self, FarmConfig, JobPanic};
use crate::ls::LockstepNet;
use crate::recorder::Recording;
use netsim::NodeId;
use routing::ControlPlane;
use topology::Graph;

/// Replays `recording` under [`OrderingMode::Permuted`] for *every* salt of
/// a finite sequence and maps each finished replay to `project(replay)` on
/// the replay farm, in salt order — one full sweep that yields whatever
/// per-ordering observation the caller wants (an outcome string, a digest,
/// a metric). Each replay is a complete, valid execution of the recorded
/// external events — just under a different (still deterministic)
/// schedule. Strictly one replay per salt, so a caller reads both "first
/// match" (`.position(..)`) and "how many match" off a single sweep. The
/// result vector is a pure function of the salt sequence, independent of
/// `farm.jobs`.
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
        // Sharding is invisible here: by the `ShardedWaves::execute`
        // contract a sharded sweep answers exactly as a serial one.
        let cfg = DefinedConfig { ordering: OrderingMode::Permuted(salts[i]), ..base_cfg.clone() };
        let mut ls =
            LockstepNet::new(graph, cfg, recording.clone(), &spawn).with_shards(farm.shards);
        ls.run_to_end();
        project(&ls)
    })
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

    /// One survey of salts `0..32`: per salt, the digest of the finished
    /// replay's logs when its final state satisfies `predicate`.
    fn survey(
        graph: &Graph,
        rec: &Recording<BgpExt>,
        spawn: impl Fn(NodeId) -> BgpProcess + Sync,
        predicate: impl Fn(&LockstepNet<BgpProcess>) -> bool + Sync,
        farm: &FarmConfig,
    ) -> Vec<Option<u64>> {
        let project = |ls: &LockstepNet<BgpProcess>| {
            predicate(ls).then(|| crate::order::debug_digest(&ls.logs()))
        };
        ordering_survey(graph, &DefinedConfig::default(), rec, spawn, 0..32u64, project, farm)
            .into_iter()
            .map(|h| h.expect("no probe panics"))
            .collect()
    }

    /// §4's discussion, end to end: even if the production ordering masks
    /// the MED bug, sweeping ordering functions in the debugging network
    /// finds an execution path where it manifests.
    #[test]
    fn exploration_finds_the_masked_bgp_bug() {
        let (graph, roles, rec) = fig4_recording();
        let spawn = |id: NodeId| processes(&roles)[id.index()].clone();
        let serial = FarmConfig::serial();
        let selects = |route_id: u32| {
            move |ls: &LockstepNet<BgpProcess>| {
                ls.control_plane(roles.r3).best_path(PREFIX).map(|p| p.route_id) == Some(route_id)
            }
        };
        let buggy = survey(&graph, &rec, spawn, selects(2), &serial);
        assert!(buggy.iter().any(Option::is_some), "some ordering must trigger the bug");
        // And the bug is genuinely order-dependent: some orderings select
        // the correct p3.
        let correct = survey(&graph, &rec, spawn, selects(3), &serial);
        let correct_hits = correct.iter().flatten().count();
        let mixed = correct_hits > 0 && correct_hits < correct.len();
        assert!(mixed, "some orderings select p3, some do not: {correct_hits}");
    }

    /// The farm returns the identical survey — hence the identical earliest
    /// salt, final execution and sensitivity tally — for every worker count.
    #[test]
    fn farm_sweeps_are_job_count_invariant() {
        let (graph, roles, rec) = fig4_recording();
        let spawn = |id: NodeId| processes(&roles)[id.index()].clone();
        let bug = |ls: &LockstepNet<BgpProcess>| {
            ls.control_plane(roles.r3).best_path(PREFIX).map(|p| p.route_id) == Some(2)
        };
        let reference = survey(&graph, &rec, spawn, bug, &FarmConfig::serial());
        assert!(reference.iter().any(Option::is_some), "bug reachable");
        for jobs in [2usize, 8] {
            let hits = survey(&graph, &rec, spawn, bug, &FarmConfig::with_jobs(jobs));
            assert_eq!(hits, reference, "jobs={jobs}: a salt's hit or final execution changed");
        }
    }
}
