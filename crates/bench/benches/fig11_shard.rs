//! Fig. 11 (this reproduction's addition): lockstep replay throughput vs
//! shard count on a Rocketfuel PoP graph.
//!
//! A single recording of an OSPF run over the Ebone topology is replayed
//! with the wave engine split 1-, 2-, and 4-way (`ShardedWaves`). The replayed
//! event count is fixed — it is printed once so the timings read directly
//! as events/sec — and the outputs are byte-identical by construction
//! (`tests/shard_determinism.rs`), so only the wall clock varies. On a
//! single-core host the sharded points still run (the scoped workers are
//! real threads) but measure coordination overhead, not speed-up; a skip
//! note says so.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use defined_core::recorder::Recording;
use defined_core::{DefinedConfig, LockstepNet, RbNetwork};
use netsim::{NodeId, SimTime};
use routing::ospf::{OspfConfig, OspfProcess};
use topology::{rocketfuel, Graph};

/// Records ~3 simulated seconds of stressed OSPF on Ebone (25 PoPs).
fn record_ebone() -> (Graph, Vec<OspfProcess>, Recording<<OspfProcess as routing::ControlPlane>::Ext>) {
    let g = rocketfuel::build(rocketfuel::Isp::Ebone);
    let n = g.node_count();
    let procs: Vec<OspfProcess> = {
        let f = OspfProcess::for_graph(&g, OspfConfig::stress(n));
        (0..n).map(|i| f(NodeId(i as u32))).collect()
    };
    let spawn = {
        let procs = procs.clone();
        move |id: NodeId| procs[id.index()].clone()
    };
    let mut net = RbNetwork::new(&g, DefinedConfig::default(), 11, 0.3, spawn);
    net.run_until(SimTime::from_secs(3));
    let (recording, _) = net.into_recording();
    (g, procs, recording)
}

fn bench_shards(c: &mut Criterion) {
    if std::thread::available_parallelism().map_or(1, |p| p.get()) < 2 {
        eprintln!(
            "fig11_shard: single-core host — shards > 1 measure thread-exchange \
             overhead only, not speed-up"
        );
    }
    let (g, procs, recording) = record_ebone();
    let events: usize = {
        let spawn = |id: NodeId| procs[id.index()].clone();
        let mut ls = LockstepNet::new(&g, DefinedConfig::default(), recording.clone(), spawn);
        ls.run_to_end();
        ls.logs().iter().map(|l| l.len()).sum()
    };
    eprintln!("fig11_shard: {events} committed events per replay (divide by the time per iter)");

    let mut group = c.benchmark_group("fig11_shard");
    group.sample_size(10);
    for shards in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(shards), &shards, |b, &shards| {
            b.iter(|| {
                let spawn = |id: NodeId| procs[id.index()].clone();
                let mut ls =
                    LockstepNet::new(&g, DefinedConfig::default(), recording.clone(), spawn)
                        .with_shards(shards);
                ls.run_to_end();
                ls.logs().iter().map(|l| l.len()).sum::<usize>()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_shards);
criterion_main!(benches);
