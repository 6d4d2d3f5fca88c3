//! Seeded input generators: every workload's `.scn` text and debug script
//! derive from `--seed` and nothing else. The crates under test see only
//! the generated text, scripts and (their own) recording bytes.
//!
//! A run measures several *cycles*; cycle `k` of workload `w` draws its
//! input from [`sub_seed`]`(seed, w, k)`, so one run's medians are taken
//! over several topologies / fault schedules of the same family. That is
//! what keeps a metric steady from one `--seed` to the next.

use std::fmt::Write as _;

/// The six workloads, in reporting order. Names are part of the contract
/// with `BENCHMARK.json`.
pub const WORKLOADS: [&str; 6] =
    ["rb-churn", "rb-default", "rb-quiet", "debug-walk", "search-farm", "store-cycle"];

/// SplitMix64: small, seedable, and independent of the crates under test.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`; `hi > lo`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    /// Removes and returns a uniformly chosen element.
    fn take<T>(&mut self, v: &mut Vec<T>) -> T {
        let i = self.range(0, v.len() as u64) as usize;
        v.swap_remove(i)
    }
}

/// The seed of cycle `cycle` of `workload` under run seed `seed`.
pub fn sub_seed(seed: u64, workload: &str, cycle: u64) -> u64 {
    let mut h = Rng::new(seed);
    let mut s = h.next();
    for b in workload.bytes() {
        s = Rng::new(s ^ b as u64).next();
    }
    Rng::new(s ^ cycle.wrapping_mul(0x2545_f491_4f6c_dd1d)).next()
}

/// How much one cycle does on its input, beyond the scenario itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ops {
    /// Salted orderings `explore` sweeps.
    pub salts: u64,
    /// Forward single-steps in the debug script.
    pub steps: u64,
    /// Reverse single-steps (each followed later by a forward re-step).
    pub rsteps: u64,
    /// Seeded backward `goto P` jumps drawn (repeats are dropped).
    pub gotos: u64,
}

/// The op counts of `workload`. `quick` shrinks them to smoke-test size.
///
/// A session's p99 needs 1000 samples (ten beyond it), so full-size
/// scripts step 1000 events forward and 1000 back. `rb-quiet` walks three
/// times as far and jumps eight times as often: on a 64-node grid a rewind
/// costs what it re-executes from the nearest retained image — anywhere
/// from 40 to 500 us, evenly — and the median of a hundred draws from a
/// spread that wide, or of a thousand over only 31 images, does not repeat.
pub fn ops(workload: &str, quick: bool) -> Ops {
    let salts = match workload {
        "search-farm" => 32,
        "debug-walk" | "rb-quiet" => 4,
        _ => 8,
    };
    if quick {
        Ops { salts: salts.min(4), steps: 150, rsteps: 75, gotos: 4 }
    } else if workload == "rb-quiet" {
        Ops { salts, steps: 3000, rsteps: 3000, gotos: 768 }
    } else {
        Ops { salts, steps: 1000, rsteps: 1000, gotos: 96 }
    }
}

/// Undirected edge list of a topology, as the built graph reports it.
pub type Edges = Vec<(u32, u32)>;

/// Generates the `.scn` text of one cycle's scenario. `edges_of` builds
/// the graph a `topology …` directive describes (through the topology
/// crate), so fault links are always real edges of the seeded graph.
pub fn scenario(workload: &str, sub: u64, quick: bool, edges_of: &dyn Fn(&str) -> Edges) -> String {
    let mut r = Rng::new(sub);
    match workload {
        "rb-churn" | "rb-default" => ospf_ba(workload, &mut r, ba_nodes(workload, quick)),
        "rb-quiet" => {
            let (side, secs) = if quick { (4, 60) } else { (8, 90) };
            rip_grid(workload, &mut r, side, secs, 0.0, 4, true, edges_of)
        }
        // Smoke runs trade Ebone (2.5 s a record) for a ring.
        "debug-walk" => ospf_hub_cut(
            workload,
            &mut r,
            if quick { "ring 10 4ms" } else { "rocketfuel ebone" },
            edges_of,
        ),
        "search-farm" => {
            let (side, secs) = if quick { (4, 40) } else { (5, 120) };
            rip_grid(workload, &mut r, side, secs, 0.3, 1, false, edges_of)
        }
        "store-cycle" => {
            let (secs, externals) = if quick { (60, 200) } else { (300, 1500) };
            bgp_fig4(workload, &mut r, secs, externals)
        }
        other => panic!("unknown workload {other}"),
    }
}

/// Node count of the BA workloads' graph.
pub fn ba_nodes(workload: &str, quick: bool) -> u64 {
    match (workload, quick) {
        ("rb-churn", false) => 20,
        ("rb-churn", true) => 12,
        (_, false) => 14,
        (_, true) => 8,
    }
}

/// The sibling of a BA workload at `n` nodes, for the per-layer
/// scale-growth probe.
pub fn ospf_ba_sized(workload: &str, sub: u64, n: u64) -> String {
    ospf_ba(workload, &mut Rng::new(sub), n)
}

fn header(out: &mut String, name: &str, what: &str) {
    let _ = writeln!(out, "# generated by defined-benchmark; do not edit");
    let _ = writeln!(out, "name {name}");
    let _ = writeln!(out, "description {what}");
}

/// OSPF (stress timers) on a Barabási–Albert graph, 2 sim-s, jitter 0.3:
/// every LSA flood races its neighbours, so the shim rolls back constantly.
///
/// The graph is `fig8_size`'s (`ba n 2 (80+n)`), the same for every seed:
/// which BA graph is drawn moves the wall by ±15 %, more than any bound,
/// while the jitter stream over one graph moves it by a few percent. The
/// probe sits on the last-attached node for the same reason (which node
/// is probed decides how many prefixes `bisect` replays). The run seed —
/// the jitter stream, hence the rollback pattern — is what `--seed`
/// varies here.
fn ospf_ba(name: &str, r: &mut Rng, n: u64) -> String {
    let mut s = String::new();
    header(&mut s, name, "OSPF flooding race on the fig8 BA graph");
    let _ = writeln!(s, "topology ba {n} 2 {}", 80 + n);
    let _ = writeln!(s, "protocol ospf");
    let _ = writeln!(s, "seed {}", r.range(1, 1 << 20));
    let _ = writeln!(s, "jitter 0.3");
    let _ = writeln!(s, "duration 2s");
    if name == "rb-churn" {
        let _ = writeln!(s, "ckpt-interval auto");
    }
    let _ = writeln!(s, "probe ospf-reachable {}", n - 1);
    s
}

/// RIP on a `side × side` grid with seeded prefix injections and link
/// faults drawn from the grid's real edges.
#[allow(clippy::too_many_arguments)]
fn rip_grid(
    name: &str,
    r: &mut Rng,
    side: u64,
    secs: u64,
    jitter: f64,
    injections: u64,
    node_down: bool,
    edges_of: &dyn Fn(&str) -> Edges,
) -> String {
    let topo = format!("grid {side} {side} 3ms");
    let mut edges = edges_of(&topo);
    let n = side * side;
    let ms = secs * 1000;
    let mut s = String::new();
    header(&mut s, name, "RIP on a grid under seeded link faults");
    let _ = writeln!(s, "topology {topo}");
    let _ = writeln!(s, "protocol rip destination-and-next-hop");
    let _ = writeln!(s, "seed {}", r.range(1, 1 << 20));
    let _ = writeln!(s, "jitter {jitter}");
    let _ = writeln!(s, "duration {secs}s");
    let _ = writeln!(s, "ckpt-interval auto");
    let mut nodes: Vec<u64> = (1..n).collect();
    const FIRST_PREFIX: u64 = 10;
    for i in 0..injections {
        let owner = r.take(&mut nodes);
        let at = r.range(100, 100 + ms / 50);
        let _ = writeln!(s, "inject {at}ms {owner} rip-connect {}", FIRST_PREFIX + i);
    }
    // Two flaps (three on the farm workload) in the first half, then one
    // clean down/up, on distinct links.
    let flaps = if node_down { 2 } else { 3 };
    for _ in 0..flaps {
        let (a, b) = r.take(&mut edges);
        let at = r.range(ms / 10, ms / 2);
        let period = r.range(ms / 40, ms / 20).max(4);
        let down = r.range(period / 4, period / 2).max(1);
        let _ = writeln!(s, "fault {at}ms flap {a} {b} {down}ms {period}ms {}", r.range(2, 4));
    }
    let (a, b) = r.take(&mut edges);
    let down_at = r.range(ms / 2, ms * 6 / 10);
    let _ = writeln!(s, "fault {down_at}ms link-down {a} {b}");
    let _ = writeln!(s, "fault {}ms link-up {a} {b}", r.range(ms * 65 / 100, ms * 7 / 10));
    let probe = r.take(&mut nodes);
    if node_down {
        // Never the beacon source (node 0), a prefix owner, or the probe.
        let dead = r.take(&mut nodes);
        let _ = writeln!(s, "fault {}ms node-down {dead}", r.range(ms * 8 / 10, ms * 9 / 10));
    }
    let _ = writeln!(s, "probe rip-route {probe} {FIRST_PREFIX}");
    s
}

/// OSPF on `topo` (the Ebone map at full size): the best-connected node is
/// partitioned at 1.5 s and healed at 3 s. The run seed is the registry's (`ospf-flood-storm`,
/// 3): the committed execution — all this workload's sessions ever see —
/// does not depend on it, and the workload records once per run, so a
/// seeded jitter stream would only put ±8 % of single-sample noise on
/// `record_wall_s`. `--seed` varies the probed PoP and every script.
fn ospf_hub_cut(name: &str, r: &mut Rng, topo: &str, edges_of: &dyn Fn(&str) -> Edges) -> String {
    let edges = edges_of(topo);
    let n = edges.iter().map(|&(a, b)| a.max(b)).max().map_or(0, |m| m as u64 + 1);
    let mut degree = vec![0u64; n as usize];
    for &(a, b) in &edges {
        degree[a as usize] += 1;
        degree[b as usize] += 1;
    }
    let mut by_degree: Vec<u64> = (0..n).collect();
    by_degree.sort_by_key(|&i| (std::cmp::Reverse(degree[i as usize]), i));
    let hub = by_degree[0];
    let mut others: Vec<u64> = (0..n).filter(|&i| i != hub).collect();
    let mut s = String::new();
    header(&mut s, name, "OSPF flooding storm: hub partition and heal");
    let _ = writeln!(s, "topology {topo}");
    let _ = writeln!(s, "protocol ospf");
    let _ = writeln!(s, "seed 3");
    let _ = writeln!(s, "jitter 0.5");
    let _ = writeln!(s, "duration 5s");
    let _ = writeln!(s, "ckpt-interval auto");
    let _ = writeln!(s, "fault 1500ms partition {hub} heal 3s");
    let _ = writeln!(s, "probe ospf-reachable {}", r.take(&mut others));
    s
}

/// The Fig. 4 BGP network under a seeded announce/withdraw stream over 64
/// prefixes: an externals-heavy recording.
fn bgp_fig4(name: &str, r: &mut Rng, secs: u64, externals: u64) -> String {
    let mut s = String::new();
    header(&mut s, name, "Fig. 4 BGP under a seeded announce/withdraw stream");
    let _ = writeln!(s, "topology fig4-bgp 8ms 12ms");
    let _ = writeln!(s, "protocol bgp buggy-incremental");
    let _ = writeln!(s, "seed {}", r.range(1, 1 << 20));
    let _ = writeln!(s, "jitter 0.5");
    let _ = writeln!(s, "duration {secs}s");
    let _ = writeln!(s, "ckpt-interval auto");
    let mut times: Vec<u64> = (0..externals).map(|_| r.range(500, secs * 1000 - 1000)).collect();
    times.sort_unstable();
    let probe_prefix = r.range(0, 64);
    for (i, at) in times.into_iter().enumerate() {
        // ER1..ER3 are nodes 3..5 and advertise routes 1..3 (Fig. 4).
        let er = r.range(3, 6);
        let route_id = er - 2;
        // The first event announces the probed prefix so the probe always
        // has a path history to report on.
        let prefix = if i == 0 { probe_prefix } else { r.range(0, 64) };
        if i == 0 || r.range(0, 10) < 6 {
            let _ = writeln!(
                s,
                "inject {at}ms {er} bgp-announce {prefix} {route_id} {} {} {} {}",
                r.range(1, 6),
                if er == 5 { 200 } else { 100 },
                r.range(0, 50),
                r.range(5, 40),
            );
        } else {
            let _ = writeln!(s, "inject {at}ms {er} bgp-withdraw {prefix} {route_id}");
        }
    }
    let _ = writeln!(s, "probe bgp-best 2 {probe_prefix}");
    s
}

/// Which latency sample, if any, a scripted command contributes to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sample {
    Step,
    Rstep,
    /// A backward `goto` — the reverse-debugging case.
    GotoBack,
    /// Positioning and inspection commands: executed and checked, not
    /// sampled.
    None,
}

/// One scripted debugger command.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cmd {
    pub line: String,
    pub sample: Sample,
}

/// One session's debug script. `total` is the recording's committed-event
/// count; every position is drawn inside it.
///
/// Shape: jump three quarters of the way in — past every scheduled link
/// fault and its reconvergence, before the late node-down, so sessions on
/// differently-seeded fault schedules walk comparable states — or as late
/// as still leaves room for the walk (plus a seeded offset, so the walk
/// does not always start on a checkpoint boundary), step forward over new
/// ground, `where`, step back, step forward again, `where` (must print the
/// same), then seeded backward `goto`s down the walk, each from where the
/// last one landed, then `where` and `inspect`.
///
/// Moving forward over new ground checkpoints the whole network every 32
/// events, so a forward jump costs its distance, while a backward jump
/// costs one restore plus the events re-executed from that image, however
/// far it jumps. Only backward jumps are sampled: a `goto` metric mixing
/// the two modes has its median on the boundary between them and does not
/// repeat.
pub fn script(sub: u64, total: u64, n_nodes: u64, ops: Ops) -> Vec<Cmd> {
    let mut r = Rng::new(sub ^ 0x5c41_9e77);
    let steps = ops.steps.min(total / 2).max(1);
    let rsteps = ops.rsteps.min(steps);
    let offset = r.range(0, 64).min(total / 8);
    let start = (total * 3 / 4).min(total.saturating_sub(steps + 64)) + offset;
    let cmd = |line: String, sample| Cmd { line, sample };
    let repeat = |line: &'static str, n: u64, sample| (0..n).map(move |_| cmd(line.into(), sample));
    let mut script = vec![cmd(format!("goto {start}"), Sample::None)];
    script.extend(repeat("step", steps, Sample::Step));
    script.push(cmd("where".into(), Sample::None));
    script.extend(repeat("rstep", rsteps, Sample::Rstep));
    script.extend(repeat("step", rsteps, Sample::Step));
    script.push(cmd("where".into(), Sample::None));
    let end = (start + steps).min(total);
    let mut targets: Vec<u64> =
        (0..ops.gotos).map(|_| end.saturating_sub(r.range(1, steps + 1))).collect();
    targets.sort_unstable_by(|a, b| b.cmp(a));
    targets.dedup();
    script.extend(targets.into_iter().map(|p| cmd(format!("goto {p}"), Sample::GotoBack)));
    script.push(cmd("where".into(), Sample::None));
    script.push(cmd(format!("inspect {}", r.range(0, n_nodes.max(1))), Sample::None));
    script
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_edges(topo: &str) -> Edges {
        // `grid R C d` by hand, so these tests need no crate under test;
        // tests/ in verbs.rs check the real graph agrees.
        let mut it = topo.split_whitespace();
        match it.next() {
            Some("grid") => {
                let rows: u32 = it.next().unwrap().parse().unwrap();
                let cols: u32 = it.next().unwrap().parse().unwrap();
                let mut e = Vec::new();
                for y in 0..rows {
                    for x in 0..cols {
                        let id = y * cols + x;
                        if x + 1 < cols {
                            e.push((id, id + 1));
                        }
                        if y + 1 < rows {
                            e.push((id, id + cols));
                        }
                    }
                }
                e
            }
            _ => (0..24).map(|i| (i, i + 1)).chain([(0, 5), (0, 9), (3, 7)]).collect(),
        }
    }

    #[test]
    fn same_seed_same_text_different_seed_different_text() {
        for w in WORKLOADS {
            for quick in [false, true] {
                let a = scenario(w, sub_seed(11, w, 0), quick, &grid_edges);
                let b = scenario(w, sub_seed(11, w, 0), quick, &grid_edges);
                assert_eq!(a, b, "{w}");
                let c = scenario(w, sub_seed(12, w, 0), quick, &grid_edges);
                assert_ne!(a, c, "{w}: seed must matter");
                let d = scenario(w, sub_seed(11, w, 1), quick, &grid_edges);
                assert_ne!(a, d, "{w}: cycle must matter");
            }
        }
    }

    #[test]
    fn scripts_are_seeded_and_inside_the_recording() {
        let o = ops("debug-walk", false);
        let a = script(7, 50_000, 25, o);
        assert_eq!(a, script(7, 50_000, 25, o));
        assert_ne!(a, script(8, 50_000, 25, o));
        let count = |s: &[Cmd], k: Sample| s.iter().filter(|c| c.sample == k).count() as u64;
        assert_eq!(count(&a, Sample::Rstep), o.rsteps);
        assert_eq!(count(&a, Sample::Step), o.steps + o.rsteps);
        assert!((o.gotos * 9 / 10..=o.gotos).contains(&count(&a, Sample::GotoBack)));
        let target = |c: &Cmd| c.line.strip_prefix("goto ")?.parse::<u64>().ok();
        let start = target(&a[0]).expect("script opens with a goto");
        assert!((37_500..37_564).contains(&start), "walk starts three quarters in");
        let end = start + o.steps;
        // Every sampled jump lands inside the walk, behind the one before.
        let mut at = end;
        for c in a.iter().filter(|c| c.sample == Sample::GotoBack) {
            let p = target(c).expect("goto has a target");
            assert!((start..at).contains(&p), "{c:?} from {at}");
            at = p;
        }
        // A tiny recording clamps the walk instead of stepping off the end.
        let tiny = script(7, 40, 4, o);
        assert_eq!(count(&tiny, Sample::Rstep), 20);
        assert!(tiny.iter().filter_map(target).all(|p| p <= 40));
        // A short one starts as late as leaves room for the whole walk.
        let short = script(7, 2_600, 14, o);
        let start = target(&short[0]).expect("goto");
        assert!(start + o.steps <= 2_600 && start >= 2_600 - o.steps - 64, "{start}");
    }

    #[test]
    fn sub_seeds_do_not_collide_across_workloads_or_cycles() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..16 {
            for w in WORKLOADS {
                for k in 0..16 {
                    assert!(seen.insert(sub_seed(seed, w, k)), "{seed} {w} {k}");
                }
            }
        }
    }
}
