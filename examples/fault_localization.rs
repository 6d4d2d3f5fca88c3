//! Automated fault localisation over a recording — the mechanised version
//! of the case studies' final step ("find the exact point at which the
//! software begins behaving incorrectly", paper §4).
//!
//! The Quagga RIP black hole (Fig. 5) is recorded in production, then:
//!
//! 1. `bisect::first_bad_group` binary-searches the earliest group whose
//!    replay prefix already shows the stale route — O(log groups) complete
//!    replays, each deterministic by Theorem 1;
//! 2. `bisect::first_bad_event` steps through that group and names the
//!    exact delivery;
//! 3. the patch is validated by bisecting the fixed protocol: no bad group.
//!
//! Run with: `cargo run --example fault_localization`

use defined::core::bisect::{first_bad_event, first_bad_group};
use defined::core::{DefinedConfig, FarmConfig, LockstepNet, RbNetwork};
use defined::netsim::{NodeId, SimDuration, SimTime};
use defined::routing::rip::{RefreshMode, RipConfig, RipExt, RipProcess};
use defined::topology::canonical;

const DEST: u32 = 77;

fn spawner(
    g: &defined::topology::Graph,
    mode: RefreshMode,
) -> impl Fn(NodeId) -> RipProcess + 'static {
    let g = g.clone();
    move |id: NodeId| RipProcess::new(id, g.neighbors(id), RipConfig::emulation(mode))
}

fn main() {
    let (g, roles) = canonical::fig5_rip(SimDuration::from_millis(10));
    println!("== automated localisation of the Quagga RIP black hole ==\n");

    // Record the production run: destination attached, main router dies.
    let cfg = DefinedConfig::default();
    let mut net = RbNetwork::new(&g, cfg.clone(), 2, 0.6, spawner(&g, RefreshMode::DestinationOnly));
    net.inject_external(SimTime::from_millis(100), roles.dest, RipExt::Connect { prefix: DEST });
    net.schedule_node(SimTime::from_secs(8), roles.r2, false);
    net.run_until(SimTime::from_secs(26));
    let via = net.control_plane(roles.r1).route(DEST).and_then(|r| r.next_hop);
    println!("production: R1 routes the prefix via {via:?} (R2 = {:?} is dead) — black hole\n", roles.r2);
    let (rec, _) = net.into_recording();
    println!(
        "partial recording: {} externals, {} ticks, {} groups, {} death cut(s)\n",
        rec.externals.len(),
        rec.ticks.len(),
        rec.last_group,
        rec.mutes.len(),
    );

    // Step 1: group-level bisection.
    let dead_at = rec
        .mutes
        .iter()
        .find(|m| m.node == roles.r2)
        .and_then(|m| m.allowed.iter().map(|k| k.group()).max())
        .expect("R2's death cut");
    let horizon = dead_at + 20;
    let (r1, r2) = (roles.r1, roles.r2);
    let bad = move |ls: &LockstepNet<RipProcess>| {
        ls.current_group() > horizon
            && ls.control_plane(r1).route(DEST).and_then(|r| r.next_hop) == Some(r2)
    };
    let serial = FarmConfig::serial();
    let buggy = spawner(&g, RefreshMode::DestinationOnly);
    let report = first_bad_group(&g, &cfg, &rec, &buggy, bad, &serial)
        .expect("black hole must reproduce in the debugging network");
    println!(
        "bisection: first bad group = {} (R2 died in group {}), using {} replays of ≤{} groups",
        report.first_bad_group, dead_at, report.replays, rec.last_group,
    );

    // Step 2: event-level localisation of the route install (how R1 came to
    // depend on R2 in the first place).
    let has_route =
        move |ls: &LockstepNet<RipProcess>| ls.control_plane(r1).route(DEST).is_some();
    let install = first_bad_group(&g, &cfg, &rec, &buggy, has_route, &serial)
        .expect("route is installed at some group");
    let (ev, ls) =
        first_bad_event(&g, &cfg, &rec, &buggy, install.first_bad_group, has_route, &serial)
            .expect("exact install event");
    println!(
        "install event: group {} chain {} at {:?} (class {:?}) — R1 learned the route here",
        ev.group, ev.chain, ev.node, ev.record.ann.class,
    );
    println!(
        "  at that instant R1's table: via {:?}, metric {:?}\n",
        ls.control_plane(r1).route(DEST).and_then(|r| r.next_hop),
        ls.control_plane(r1).route(DEST).map(|r| r.metric),
    );

    // Step 3: validate the patch by bisecting the fixed protocol.
    let patched = spawner(&g, RefreshMode::DestinationAndNextHop);
    let fixed = first_bad_group(&g, &cfg, &rec, patched, bad, &serial);
    match fixed {
        None => println!("patched protocol (match destination AND next hop): no bad group ✓"),
        Some(r) => println!("patch FAILED: still bad at group {}", r.first_bad_group),
    }
}
