//! OSPF workload runners: drive a trace against a baseline or RB-instrumented
//! network and measure the paper's §5 metrics.

use defined_core::{DefinedConfig, RbMetrics, RbNetwork};
use netsim::{NodeId, SimDuration, SimTime, Simulator};
use routing::ospf::{OspfConfig, OspfProcess};
use routing::NativeAdapter;
use topology::trace::{EventKind, NetworkEvent};
use topology::{Graph, TopoMask};

/// Which execution substrate carries the protocol.
pub enum OspfRunner {
    /// Uninstrumented (the paper's "unmodified XORP").
    Baseline(Simulator<NativeAdapter<OspfProcess>>),
    /// Instrumented with DEFINED-RB.
    Rb(RbNetwork<OspfProcess>),
}

/// Per-event measurements collected while replaying a trace.
#[derive(Clone, Debug, Default)]
pub struct TraceStats {
    /// For each event, packets sent per node during its convergence window.
    pub pkts_per_node: Vec<Vec<u64>>,
    /// Convergence time (seconds) per event; `None` if the deadline passed.
    pub convergence: Vec<Option<f64>>,
    /// Aggregated RB metrics at the end (zeroed for baseline runs).
    pub rb: RbMetrics,
}

impl OspfRunner {
    /// Builds a baseline runner.
    pub fn baseline(g: &Graph, ospf: OspfConfig, seed: u64, jitter: f64) -> Self {
        let f = OspfProcess::for_graph(g, ospf);
        let spawn: Vec<OspfProcess> =
            (0..g.node_count()).map(|i| f(NodeId(i as u32))).collect();
        OspfRunner::Baseline(defined_core::harness::baseline_network(
            g,
            SimDuration::from_millis(250),
            seed,
            jitter,
            move |id| spawn[id.index()].clone(),
        ))
    }

    /// Builds an RB-instrumented runner.
    pub fn rb(g: &Graph, ospf: OspfConfig, cfg: DefinedConfig, seed: u64, jitter: f64) -> Self {
        let f = OspfProcess::for_graph(g, ospf);
        let spawn: Vec<OspfProcess> =
            (0..g.node_count()).map(|i| f(NodeId(i as u32))).collect();
        OspfRunner::Rb(RbNetwork::new(g, cfg, seed, jitter, move |id| {
            spawn[id.index()].clone()
        }))
    }

    fn now(&self) -> SimTime {
        match self {
            OspfRunner::Baseline(s) => s.now(),
            OspfRunner::Rb(n) => n.sim().now(),
        }
    }

    fn step(&mut self, deadline: SimTime) -> bool {
        match self {
            OspfRunner::Baseline(s) => s.step_until(deadline),
            OspfRunner::Rb(n) => n.sim_mut().step_until(deadline),
        }
    }

    fn run_until(&mut self, deadline: SimTime) {
        match self {
            OspfRunner::Baseline(s) => s.run_until(deadline),
            OspfRunner::Rb(n) => n.run_until(deadline),
        }
    }

    fn table_matches(&self, g: &Graph, mask: &TopoMask) -> bool {
        let n = g.node_count();
        (0..n).all(|i| {
            let id = NodeId(i as u32);
            if mask.nodes_down.contains(&id) {
                return true;
            }
            let expected = OspfProcess::expected_table(g, mask, id);
            let actual = match self {
                OspfRunner::Baseline(s) => s.process(id).control_plane().routing_table(),
                OspfRunner::Rb(net) => net.control_plane(id).routing_table(),
            };
            *actual == expected
        })
    }

    fn schedule(&mut self, t: SimTime, ev: &NetworkEvent) {
        match ev.kind {
            EventKind::LinkDown(a, b) => match self {
                OspfRunner::Baseline(s) => s.schedule_link_admin(t, a, b, false),
                OspfRunner::Rb(n) => n.schedule_link(t, a, b, false),
            },
            EventKind::LinkUp(a, b) => match self {
                OspfRunner::Baseline(s) => s.schedule_link_admin(t, a, b, true),
                OspfRunner::Rb(n) => n.schedule_link(t, a, b, true),
            },
            EventKind::NodeDown(x) => match self {
                OspfRunner::Baseline(s) => s.schedule_node_admin(t, x, false),
                OspfRunner::Rb(n) => n.schedule_node(t, x, false),
            },
            EventKind::NodeUp(x) => match self {
                OspfRunner::Baseline(s) => s.schedule_node_admin(t, x, true),
                OspfRunner::Rb(n) => n.schedule_node(t, x, true),
            },
        }
    }

    /// Per-node protocol packets sent since build (DEFINED control traffic
    /// included for RB; beacon flood traffic excluded so the comparison
    /// isolates event-driven overhead, as Fig. 6a does).
    fn pkt_counts(&self, n: usize) -> Vec<u64> {
        match self {
            OspfRunner::Baseline(s) => {
                (0..n).map(|i| s.metrics().node(NodeId(i as u32)).msgs_sent).collect()
            }
            OspfRunner::Rb(net) => (0..n)
                .map(|i| {
                    let m = net.node_metrics(NodeId(i as u32));
                    m.app_msgs_sent + m.unsend_msgs
                })
                .collect(),
        }
    }

    /// Aggregated RB metrics (zero for baseline).
    pub fn rb_metrics(&self) -> RbMetrics {
        match self {
            OspfRunner::Baseline(_) => RbMetrics::default(),
            OspfRunner::Rb(n) => n.total_metrics(),
        }
    }

    /// Replays `events` with per-event measurement.
    ///
    /// Each event is injected once the network has stabilised from the
    /// previous one (or `spacing` has elapsed); convergence is declared when
    /// every routing table matches the post-event ground truth, checked
    /// every few simulator steps. `deadline_per_event` bounds the wait.
    pub fn replay_trace(
        &mut self,
        g: &Graph,
        events: &[NetworkEvent],
        warmup: SimDuration,
        spacing: SimDuration,
        deadline_per_event: SimDuration,
    ) -> TraceStats {
        let n = g.node_count();
        let mut stats = TraceStats::default();
        let mut mask = TopoMask::default();
        self.run_until(SimTime::ZERO + warmup);
        let mut t = self.now();
        for ev in events {
            // Apply the event to the ground-truth mask.
            match ev.kind {
                EventKind::LinkDown(a, b) => mask.link_down(a, b),
                EventKind::LinkUp(a, b) => mask.link_up(a, b),
                EventKind::NodeDown(x) => mask.node_down(x),
                EventKind::NodeUp(x) => mask.node_up(x),
            }
            if !g.is_connected(&mask) {
                // Convergence to a partitioned truth is ill-defined for this
                // harness; revert and skip.
                match ev.kind {
                    EventKind::LinkDown(a, b) => mask.link_up(a, b),
                    EventKind::NodeDown(x) => mask.node_up(x),
                    _ => {}
                }
                continue;
            }
            t += spacing;
            self.schedule(t, ev);
            let before = self.pkt_counts(n);
            let deadline = t + deadline_per_event;
            let mut converged_at = None;
            let mut checks = 0u32;
            while self.step(deadline) {
                if self.now() < t {
                    continue;
                }
                checks += 1;
                if checks.is_multiple_of(8) && self.table_matches(g, &mask) {
                    converged_at = Some(self.now());
                    break;
                }
            }
            if converged_at.is_none() && self.table_matches(g, &mask) {
                converged_at = Some(self.now());
            }
            let after = self.pkt_counts(n);
            stats.pkts_per_node.push(
                before.iter().zip(after.iter()).map(|(b, a)| a - b).collect(),
            );
            stats
                .convergence
                .push(converged_at.map(|c| c.saturating_sub(t).as_secs_f64()));
            t = self.now().max(t);
        }
        stats.rb = self.rb_metrics();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::canonical;

    fn small_trace(g: &Graph) -> Vec<NetworkEvent> {
        let e = g.edges()[0];
        vec![
            NetworkEvent { at: SimTime::ZERO, kind: EventKind::LinkDown(e.a, e.b) },
            NetworkEvent { at: SimTime::ZERO, kind: EventKind::LinkUp(e.a, e.b) },
        ]
    }

    #[test]
    fn baseline_trace_replay_converges() {
        let g = canonical::ring(5, SimDuration::from_millis(3));
        let mut r = OspfRunner::baseline(&g, OspfConfig::stress(5), 1, 0.2);
        let stats = r.replay_trace(
            &g,
            &small_trace(&g),
            SimDuration::from_secs(12),
            SimDuration::from_secs(2),
            SimDuration::from_secs(30),
        );
        assert_eq!(stats.convergence.len(), 2);
        assert!(stats.convergence.iter().all(|c| c.is_some()), "{:?}", stats.convergence);
        assert!(stats.pkts_per_node[0].iter().sum::<u64>() > 0);
    }

    #[test]
    fn rb_trace_replay_converges_with_bounded_overhead() {
        let g = canonical::ring(5, SimDuration::from_millis(3));
        let cfg = DefinedConfig::production(SimDuration::from_secs(1));
        let mut r = OspfRunner::rb(&g, OspfConfig::stress(5), cfg, 2, 0.2);
        let stats = r.replay_trace(
            &g,
            &small_trace(&g),
            SimDuration::from_secs(12),
            SimDuration::from_secs(2),
            SimDuration::from_secs(30),
        );
        assert!(stats.convergence.iter().all(|c| c.is_some()), "{:?}", stats.convergence);
        assert_eq!(stats.rb.window_violations, 0);
    }
}
