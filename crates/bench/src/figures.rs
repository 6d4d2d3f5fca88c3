//! Data generators for every figure of the evaluation (paper §5, Figs. 6–8).
//!
//! Each generator returns a [`FigureData`] whose series carry the same
//! semantics as the paper's panels. Absolute values come from this
//! reproduction's simulator and cost model; EXPERIMENTS.md compares the
//! *shapes* against the paper.

use crate::cdf::Cdf;
use crate::ospf_run::OspfRunner;
use checkpoint::{CostModel, ForkTiming, Strategy, PAGE_SIZE};
use defined_core::{DefinedConfig, LockstepNet, OrderingMode};
use netsim::{NodeId, SimDuration, SimTime};
use routing::ospf::{OspfConfig, OspfProcess};
use std::fmt::Write as _;
use topology::trace::{self, EventKind, NetworkEvent, Tier1Spec};
use topology::{brite, rocketfuel, Graph, TopoMask};

/// One plotted series.
#[derive(Clone, Debug)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// `(x, y)` points.
    pub points: Vec<(f64, f64)>,
}

/// One figure panel's data.
#[derive(Clone, Debug)]
pub struct FigureData {
    /// Figure id, e.g. `"6a"`.
    pub id: &'static str,
    /// Panel title.
    pub title: String,
    /// X-axis label.
    pub xlabel: String,
    /// Y-axis label.
    pub ylabel: String,
    /// The series.
    pub series: Vec<Series>,
}

impl FigureData {
    /// Renders the panel as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== Figure {} — {} ==", self.id, self.title);
        let _ = writeln!(out, "   x: {} | y: {}", self.xlabel, self.ylabel);
        for s in &self.series {
            let _ = writeln!(out, "  series: {}", s.label);
            for &(x, y) in &s.points {
                let _ = writeln!(out, "    {x:>12.6}  {y:>10.6}");
            }
        }
        out
    }

    /// Compact one-line summary per series: median/mean/max of the
    /// *measured* quantity (the x axis for CDF panels, y otherwise).
    pub fn summary(&self) -> String {
        let is_cdf = self.ylabel == "cumulative fraction";
        let mut out = String::new();
        for s in &self.series {
            let vals: Vec<f64> =
                s.points.iter().map(|p| if is_cdf { p.0 } else { p.1 }).collect();
            let c = Cdf::new(vals);
            let _ = writeln!(
                out,
                "  fig{} {:<24} n={} median={:.4} mean={:.4} max={:.4}  [{}]",
                self.id,
                s.label,
                c.len(),
                c.median().unwrap_or(f64::NAN),
                c.mean().unwrap_or(f64::NAN),
                c.max().unwrap_or(f64::NAN),
                if is_cdf { &self.xlabel } else { &self.ylabel },
            );
        }
        out
    }
}

/// Workload scale: `quick` shrinks topologies/event counts for CI runs.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Use smaller topologies and fewer events.
    pub quick: bool,
}

impl Scale {
    fn sprintlink(&self) -> Graph {
        if self.quick {
            rocketfuel::build(rocketfuel::Isp::Ebone)
        } else {
            rocketfuel::build(rocketfuel::Isp::Sprintlink)
        }
    }

    fn fig6_events(&self) -> usize {
        if self.quick {
            10
        } else {
            40
        }
    }

    fn fig8_sizes(&self) -> Vec<usize> {
        if self.quick {
            vec![20, 40]
        } else {
            vec![20, 40, 60, 80]
        }
    }

    fn fig8_events(&self) -> usize {
        if self.quick {
            4
        } else {
            10
        }
    }
}

fn cdf_series(label: &str, samples: Vec<f64>, points: usize) -> Series {
    Series { label: label.to_string(), points: Cdf::new(samples).curve(points) }
}

/// Builds a link-event-only trace (down/up pairs that keep the graph
/// connected), Tier-1-flavoured.
fn link_trace(g: &Graph, events: usize, seed: u64) -> Vec<NetworkEvent> {
    let spec = Tier1Spec { events: events * 3, node_event_frac: 0.0, ..Tier1Spec::default() };
    let all = trace::tier1_trace(g, spec, seed);
    let mut mask = TopoMask::default();
    let mut out = Vec::new();
    for e in all {
        match e.kind {
            EventKind::LinkDown(a, b) => {
                mask.link_down(a, b);
                if g.is_connected(&mask) && out.len() < events {
                    out.push(e);
                } else {
                    mask.link_up(a, b);
                }
            }
            EventKind::LinkUp(a, b)
                if mask.links_down.contains(&(a.min(b), a.max(b))) && out.len() < events => {
                    mask.link_up(a, b);
                    out.push(e);
                }
            _ => {}
        }
        if out.len() >= events {
            break;
        }
    }
    out
}

const WARMUP: SimDuration = SimDuration(15_000_000_000);
const SPACING: SimDuration = SimDuration(3_000_000_000);
const EVENT_DEADLINE: SimDuration = SimDuration(30_000_000_000);

fn production_cfg() -> DefinedConfig {
    DefinedConfig {
        strategy: Strategy::MemIntercept,
        fork_timing: ForkTiming::PreForkTouch,
        commit_horizon: Some(SimDuration::from_secs(2)),
        ..DefinedConfig::default()
    }
}

/// Figures 6a + 6b: control overhead and convergence-time CDFs on the
/// Sprintlink topology with a Tier-1-style workload, XORP vs DEFINED-RB.
pub fn fig6ab(scale: Scale) -> (FigureData, FigureData) {
    let g = scale.sprintlink();
    let n = g.node_count();
    let events = link_trace(&g, scale.fig6_events(), 61);
    // The paper removes XORP's 1 s flood delay to make overheads visible.
    let ospf = OspfConfig::stress(n);

    let mut base = OspfRunner::baseline(&g, ospf, 1, 0.3);
    let bstats = base.replay_trace(&g, &events, WARMUP, SPACING, EVENT_DEADLINE);

    let mut rb = OspfRunner::rb(&g, ospf, production_cfg(), 1, 0.3);
    let rstats = rb.replay_trace(&g, &events, WARMUP, SPACING, EVENT_DEADLINE);

    let flat = |stats: &crate::ospf_run::TraceStats| -> Vec<f64> {
        stats
            .pkts_per_node
            .iter()
            .flat_map(|per_node| per_node.iter().map(|&p| p as f64))
            .collect()
    };
    let fig6a = FigureData {
        id: "6a",
        title: "control message overhead (packets per node per event)".into(),
        xlabel: "packets per node".into(),
        ylabel: "cumulative fraction".into(),
        series: vec![
            cdf_series("XORP", flat(&bstats), 40),
            cdf_series("DEFINED-RB", flat(&rstats), 40),
        ],
    };
    let conv = |stats: &crate::ospf_run::TraceStats| -> Vec<f64> {
        stats.convergence.iter().flatten().copied().collect()
    };
    let fig6b = FigureData {
        id: "6b",
        title: "convergence time (1 s flood delay removed)".into(),
        xlabel: "convergence time [s]".into(),
        ylabel: "cumulative fraction".into(),
        series: vec![
            cdf_series("XORP", conv(&bstats), 40),
            cdf_series("DEFINED-RB", conv(&rstats), 40),
        ],
    };
    (fig6a, fig6b)
}

/// Figure 6c: DEFINED-LS per-step response time CDF.
pub fn fig6c(scale: Scale) -> FigureData {
    let g = scale.sprintlink();
    let n = g.node_count();
    let cfg = DefinedConfig::recording();
    let f = OspfProcess::for_graph(&g, OspfConfig::stress(n));
    let spawn: Vec<OspfProcess> = (0..n).map(|i| f(NodeId(i as u32))).collect();
    let spawn2 = spawn.clone();
    let mut net = defined_core::RbNetwork::new(&g, cfg.clone(), 3, 0.3, move |id| {
        spawn[id.index()].clone()
    });
    // A short production run with one failure event in the middle.
    let e = g.edges()[g.edge_count() / 2];
    net.schedule_link(SimTime::from_secs(4), e.a, e.b, false);
    net.run_until(SimTime::from_secs(if scale.quick { 8 } else { 15 }));
    let (rec, _) = net.into_recording();
    let mut ls = LockstepNet::new(&g, cfg, rec, move |id| spawn2[id.index()].clone());
    ls.run_to_end();
    // Steady state: skip the synchronized cold-boot flood of the first two
    // groups, which the paper's converged testbed never replays.
    FigureData {
        id: "6c",
        title: "DEFINED-LS response time per step".into(),
        xlabel: "response time [s]".into(),
        ylabel: "cumulative fraction".into(),
        series: vec![cdf_series("DEFINED-LS", ls.steady_step_times(2), 40)],
    }
}

/// Collects rollback and checkpoint shape samples from a high-jitter RB run.
fn node_level_samples(
    scale: Scale,
) -> (Vec<defined_core::rb::RollbackSample>, Vec<defined_core::rb::CheckpointSample>) {
    let g = scale.sprintlink();
    let n = g.node_count();
    let cfg = DefinedConfig {
        strategy: Strategy::MemIntercept,
        commit_horizon: Some(SimDuration::from_secs(2)),
        ..DefinedConfig::default()
    };
    let f = OspfProcess::for_graph(&g, OspfConfig::stress(n));
    let spawn: Vec<OspfProcess> = (0..n).map(|i| f(NodeId(i as u32))).collect();
    let mut net = defined_core::RbNetwork::new(&g, cfg, 7, 0.95, move |id| {
        spawn[id.index()].clone()
    });
    let e = g.edges()[1];
    net.schedule_link(SimTime::from_secs(5), e.a, e.b, false);
    net.schedule_link(SimTime::from_secs(9), e.a, e.b, true);
    net.run_until(SimTime::from_secs(if scale.quick { 10 } else { 20 }));
    (net.rollback_samples(), net.checkpoint_samples())
}

/// Figure 7a: rollback overhead CDF, memory interception (MI) vs fork (FK).
///
/// Shapes (state size, dirty pages, replay depth) are measured from a real
/// instrumented run; per-sample costs come from the calibrated
/// [`CostModel`], with the real Criterion microbenchmarks reported
/// separately by `benches/fig7_node.rs`.
pub fn fig7a(scale: Scale) -> FigureData {
    let (rollbacks, _) = node_level_samples(scale);
    let m = CostModel::default();
    let mi: Vec<f64> = rollbacks
        .iter()
        .map(|s| {
            m.rollback_ns(s.state_bytes, Some(s.dirty_pages.max(1)), s.replayed, 20_000) as f64
                / 1e6
        })
        .collect();
    let fk: Vec<f64> = rollbacks
        .iter()
        .map(|s| m.rollback_ns(s.state_bytes, None, s.replayed, 20_000) as f64 / 1e6)
        .collect();
    FigureData {
        id: "7a",
        title: "rollback overhead".into(),
        xlabel: "processing time [ms]".into(),
        ylabel: "cumulative fraction".into(),
        series: vec![
            cdf_series("DEFINED-RB(MI)", mi, 40),
            cdf_series("DEFINED-RB(FK)", fk, 40),
        ],
    }
}

/// Figure 7b: non-rollback per-packet overhead CDF — XORP baseline vs
/// touch-memory (TM), pre-fork (PF), and fork-on-arrival (TF).
pub fn fig7b(scale: Scale) -> FigureData {
    let (_, ckpts) = node_level_samples(scale);
    let m = CostModel::default();
    // Baseline packet processing cost: proportional to state touched.
    let base = |s: &defined_core::rb::CheckpointSample| {
        0.02 + (s.state_bytes as f64 / PAGE_SIZE as f64) * 0.0004
    };
    let with = |timing: ForkTiming| -> Vec<f64> {
        ckpts
            .iter()
            .map(|s| base(s) + m.checkpoint_ns(timing, s.state_bytes, None) as f64 / 1e6)
            .collect()
    };
    FigureData {
        id: "7b",
        title: "non-rollback overhead per packet".into(),
        xlabel: "processing time [ms]".into(),
        ylabel: "cumulative fraction".into(),
        series: vec![
            cdf_series("XORP", ckpts.iter().map(base).collect(), 40),
            cdf_series("DEFINED-RB(TM)", with(ForkTiming::PreForkTouch), 40),
            cdf_series("DEFINED-RB(PF)", with(ForkTiming::PreFork), 40),
            cdf_series("DEFINED-RB(TF)", with(ForkTiming::OnArrival), 40),
        ],
    }
}

/// Figure 7c: memory overhead CDF — virtual (VM) vs physical (PM) vs bare
/// process. Page sharing is measured, not modelled.
pub fn fig7c(scale: Scale) -> FigureData {
    let g = scale.sprintlink();
    let n = g.node_count();
    let cfg = DefinedConfig {
        strategy: Strategy::MemIntercept,
        commit_horizon: Some(SimDuration::from_secs(4)),
        ..DefinedConfig::default()
    };
    let f = OspfProcess::for_graph(&g, OspfConfig::stress(n));
    let spawn: Vec<OspfProcess> = (0..n).map(|i| f(NodeId(i as u32))).collect();
    let mut net = defined_core::RbNetwork::new(&g, cfg, 9, 0.4, move |id| {
        spawn[id.index()].clone()
    });
    let horizon = SimTime::from_secs(if scale.quick { 10 } else { 20 });
    let mut vm = Vec::new();
    let mut pm = Vec::new();
    let mut bare = Vec::new();
    let mut next_sample = SimTime::from_secs(2);
    while net.sim().now() < horizon {
        net.run_until(next_sample);
        for i in 0..n {
            let stats = net.sim().process(NodeId(i as u32)).checkpoint_stats();
            let per_image = stats.virtual_bytes as f64 / stats.retained.max(1) as f64;
            let mb = 1024.0 * 1024.0;
            bare.push(per_image / mb);
            vm.push((per_image + stats.virtual_bytes as f64) / mb);
            pm.push((per_image + stats.physical_bytes as f64) / mb);
        }
        next_sample += SimDuration::from_secs(1);
    }
    FigureData {
        id: "7c",
        title: "memory overhead".into(),
        xlabel: "memory [MB]".into(),
        ylabel: "cumulative fraction".into(),
        series: vec![
            cdf_series("XORP", bare, 40),
            cdf_series("DEFINED-RB(PM)", pm, 40),
            cdf_series("DEFINED-RB(VM)", vm, 40),
        ],
    }
}

/// Per-size run for Fig. 8a/8b: returns (mean packets per node per event,
/// mean convergence seconds).
fn fig8_run(n: usize, ordering: Option<OrderingMode>, events: usize, seed: u64) -> (f64, f64) {
    let g = brite::barabasi_albert(n, 2, 80 + n as u64);
    let ospf = OspfConfig::stress(n);
    let trace = link_trace(&g, events, seed);
    let stats = match ordering {
        None => {
            let mut r = OspfRunner::baseline(&g, ospf, seed, 0.3);
            r.replay_trace(&g, &trace, WARMUP, SPACING, EVENT_DEADLINE)
        }
        Some(mode) => {
            let cfg = DefinedConfig { ordering: mode, ..production_cfg() };
            let mut r = OspfRunner::rb(&g, ospf, cfg, seed, 0.3);
            r.replay_trace(&g, &trace, WARMUP, SPACING, EVENT_DEADLINE)
        }
    };
    let pkts: Vec<f64> = stats
        .pkts_per_node
        .iter()
        .flat_map(|v| v.iter().map(|&p| p as f64))
        .collect();
    let mean_pkts = Cdf::new(pkts).mean().unwrap_or(0.0);
    let conv: Vec<f64> = stats.convergence.iter().flatten().copied().collect();
    let mean_conv = Cdf::new(conv).mean().unwrap_or(f64::NAN);
    (mean_pkts, mean_conv)
}

/// Figures 8a + 8b: scalability over network size — control packets and
/// convergence time for random ordering (RO), optimised ordering (OO), and
/// the XORP baseline.
pub fn fig8ab(scale: Scale) -> (FigureData, FigureData) {
    let mut pkt_series: Vec<Series> = ["DEFINED-RB(RO)", "DEFINED-RB(OO)", "XORP"]
        .iter()
        .map(|l| Series { label: l.to_string(), points: Vec::new() })
        .collect();
    let mut conv_series = pkt_series.clone();
    for &n in &scale.fig8_sizes() {
        let (ro_p, ro_c) = fig8_run(n, Some(OrderingMode::Random), scale.fig8_events(), 31);
        let (oo_p, oo_c) = fig8_run(n, Some(OrderingMode::Optimized), scale.fig8_events(), 31);
        let (bl_p, bl_c) = fig8_run(n, None, scale.fig8_events(), 31);
        for (s, v) in pkt_series.iter_mut().zip([ro_p, oo_p, bl_p]) {
            s.points.push((n as f64, v));
        }
        for (s, v) in conv_series.iter_mut().zip([ro_c, oo_c, bl_c]) {
            s.points.push((n as f64, v));
        }
    }
    (
        FigureData {
            id: "8a",
            title: "control overhead vs network size".into(),
            xlabel: "number of nodes".into(),
            ylabel: "packets per node per event".into(),
            series: pkt_series,
        },
        FigureData {
            id: "8b",
            title: "convergence time vs network size".into(),
            xlabel: "number of nodes".into(),
            ylabel: "convergence time [s]".into(),
            series: conv_series,
        },
    )
}

/// Figure 8c: DEFINED-LS response time per step vs network size.
pub fn fig8c(scale: Scale) -> FigureData {
    let mut points = Vec::new();
    for &n in &scale.fig8_sizes() {
        let g = brite::barabasi_albert(n, 2, 80 + n as u64);
        let cfg = DefinedConfig::recording();
        let f = OspfProcess::for_graph(&g, OspfConfig::stress(n));
        let spawn: Vec<OspfProcess> = (0..n).map(|i| f(NodeId(i as u32))).collect();
        let spawn2 = spawn.clone();
        let mut net = defined_core::RbNetwork::new(&g, cfg.clone(), 13, 0.3, move |id| {
            spawn[id.index()].clone()
        });
        let e = g.edges()[0];
        net.schedule_link(SimTime::from_secs(3), e.a, e.b, false);
        net.run_until(SimTime::from_secs(if scale.quick { 6 } else { 10 }));
        let (rec, _) = net.into_recording();
        let mut ls = LockstepNet::new(&g, cfg, rec, move |id| spawn2[id.index()].clone());
        ls.run_to_end();
        let mean = Cdf::new(ls.steady_step_times(2)).mean().unwrap_or(0.0);
        points.push((n as f64, mean));
    }
    FigureData {
        id: "8c",
        title: "DEFINED-LS response time vs network size".into(),
        xlabel: "number of nodes".into(),
        ylabel: "response time per step [s]".into(),
        series: vec![Series { label: "DEFINED-LS".into(), points }],
    }
}

/// Figure 8d: DEFINED-RB convergence time vs event rate.
pub fn fig8d(scale: Scale) -> FigureData {
    let g = if scale.quick {
        brite::barabasi_albert(20, 2, 99)
    } else {
        scale.sprintlink()
    };
    let n = g.node_count();
    let rates: Vec<f64> = if scale.quick { vec![2.0, 6.0, 10.0] } else { vec![2.0, 4.0, 6.0, 8.0, 10.0] };
    let mut points = Vec::new();
    for &rate in &rates {
        let window = SimDuration::from_secs(5);
        let raw = trace::poisson_events(&g, rate, window, SimDuration::from_millis(800), 17);
        // Keep only events that preserve connectivity.
        let mut mask = TopoMask::default();
        let mut events = Vec::new();
        for e in raw {
            match e.kind {
                EventKind::LinkDown(a, b) => {
                    mask.link_down(a, b);
                    if g.is_connected(&mask) {
                        events.push(e);
                    } else {
                        mask.link_up(a, b);
                    }
                }
                EventKind::LinkUp(a, b)
                    if mask.links_down.contains(&(a.min(b), a.max(b))) => {
                        mask.link_up(a, b);
                        events.push(e);
                    }
                _ => {}
            }
        }
        let cfg = production_cfg();
        let ospf = OspfConfig::stress(n);
        let f = OspfProcess::for_graph(&g, ospf);
        let spawn: Vec<OspfProcess> = (0..n).map(|i| f(NodeId(i as u32))).collect();
        let mut net = defined_core::RbNetwork::new(&g, cfg, 23, 0.3, move |id| {
            spawn[id.index()].clone()
        });
        let start = SimTime::ZERO + WARMUP;
        for e in &events {
            match e.kind {
                EventKind::LinkDown(a, b) => net.schedule_link(start + (e.at - SimTime::ZERO), a, b, false),
                EventKind::LinkUp(a, b) => net.schedule_link(start + (e.at - SimTime::ZERO), a, b, true),
                _ => {}
            }
        }
        net.run_until(start);
        // After the burst ends, measure how long the network takes to settle
        // onto the final ground truth — the convergence figure under load.
        let burst_end = start + window + SimDuration::from_millis(800);
        net.run_until(burst_end);
        let deadline = burst_end + SimDuration::from_secs(30);
        let mut converged_at = None;
        let mut checks = 0u32;
        while net.sim_mut().step_until(deadline) {
            checks += 1;
            if !checks.is_multiple_of(8) {
                continue;
            }
            let ok = (0..n).all(|i| {
                let id = NodeId(i as u32);
                let expected = OspfProcess::expected_table(&g, &mask, id);
                *net.control_plane(id).routing_table() == expected
            });
            if ok {
                converged_at = Some(net.sim().now());
                break;
            }
        }
        // Saturating: a network already converged at the first post-burst
        // check reports 0, not a debug-build underflow panic.
        let conv = converged_at
            .map(|c| c.saturating_sub(burst_end).as_secs_f64())
            .unwrap_or(30.0);
        // Report settle time plus the mean per-event spacing contribution,
        // mirroring the paper's "convergence time" under sustained load.
        points.push((rate, conv + 1.0 / rate));
    }
    FigureData {
        id: "8d",
        title: "convergence time vs event rate".into(),
        xlabel: "events per second".into(),
        ylabel: "convergence time [s]".into(),
        series: vec![Series { label: "DEFINED-RB".into(), points }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUICK: Scale = Scale { quick: true };

    #[test]
    fn fig6ab_shapes() {
        let (a, b) = fig6ab(QUICK);
        assert_eq!(a.series.len(), 2);
        assert_eq!(b.series.len(), 2);
        assert!(a.series.iter().all(|s| !s.points.is_empty()));
        assert!(b.series.iter().all(|s| !s.points.is_empty()));
        // RB overhead should be in the same ballpark as the baseline for
        // most nodes (medians within 3x).
        let med = |s: &Series| {
            let c = Cdf::new(s.points.iter().map(|p| p.0).collect());
            c.median().unwrap()
        };
        let xorp = med(&a.series[0]);
        let rb = med(&a.series[1]);
        assert!(rb <= xorp * 3.0 + 4.0, "xorp={xorp} rb={rb}");
        let _ = a.render();
        let _ = a.summary();
    }

    #[test]
    fn fig6c_steps_under_a_second() {
        let f = fig6c(QUICK);
        assert_eq!(f.series.len(), 1);
        assert!(!f.series[0].points.is_empty());
        assert!(f.series[0].points.iter().all(|&(x, _)| x < 1.0));
    }

    #[test]
    fn fig7a_mi_cheaper_than_fk() {
        let f = fig7a(QUICK);
        let med = |s: &Series| Cdf::new(s.points.iter().map(|p| p.0).collect()).median().unwrap();
        let mi = med(&f.series[0]);
        let fk = med(&f.series[1]);
        assert!(mi < fk, "MI ({mi} ms) must beat FK ({fk} ms)");
        assert!((0.05..5.0).contains(&mi), "MI median {mi} ms near paper's 0.6 ms");
    }

    #[test]
    fn fig7b_ordering_xorp_tm_pf_tf() {
        let f = fig7b(QUICK);
        let med: Vec<f64> = f
            .series
            .iter()
            .map(|s| Cdf::new(s.points.iter().map(|p| p.0).collect()).median().unwrap())
            .collect();
        assert!(med[0] < med[1], "XORP < TM");
        assert!(med[1] < med[2], "TM < PF");
        assert!(med[2] < med[3], "PF < TF");
        assert!(med[3] < 1.5, "all under ~1 ms as in the paper, got {}", med[3]);
    }

    #[test]
    fn fig7c_pm_much_smaller_than_vm() {
        let f = fig7c(QUICK);
        let med = |s: &Series| Cdf::new(s.points.iter().map(|p| p.0).collect()).median().unwrap();
        let bare = med(&f.series[0]);
        let pm = med(&f.series[1]);
        let vm = med(&f.series[2]);
        assert!(vm > pm, "VM ({vm}) must exceed PM ({pm})");
        // The paper reports < 2% physical inflation; allow slack for the
        // much smaller simulated state.
        assert!(pm < bare * 2.0 + 0.5, "PM {pm} vs bare {bare}");
    }
}
