//! End-to-end reverse-execution guarantees, checked deterministically
//! (event counts, not wall clock — the latency story is `fig9_reverse`):
//!
//! 1. **Byte-identical transcripts**: forward → reverse → forward through a
//!    `DebugSession` reproduces the straight replay's output exactly, on
//!    every protocol in the registry (Theorem 1 applied twice).
//! 2. **Bounded rewind work**: however long the recorded run, a backward
//!    step re-executes fewer events than the checkpoint interval.
//! 3. **Watchpoints fire in both directions**: `rcont` lands on the same
//!    state change `run` found going forward.
//! 4. **Rewinding only what changed is a full restore**: the in-place
//!    rewind a backward jump takes lands on exactly the state a restore of
//!    the whole decoded image lands on (the optimisation-off oracle).

use defined::checkpoint::Snapshotable;
use defined::core::debugger::{Debugger, StepGranularity};
use defined::core::recorder::Recording;
use defined::core::wire::Wire;
use defined::core::{DefinedConfig, LockstepNet, RbNetwork};
use defined::netsim::{NodeId, SimDuration, SimTime};
use defined::routing::ospf::{OspfConfig, OspfProcess};
use defined::routing::ControlPlane;
use defined::scenario::{self, ProtocolSpec};
use defined::topology::{canonical, Graph};

/// Records a scenario and returns a fresh scripted-debug closure over it.
fn transcript_of(name: &str, script: &str) -> String {
    let scn = scenario::find(name).expect("registry scenario");
    let run = scn.record_run().expect("records");
    scn.debug_transcript_sharded(&run.bytes, script, 1).expect("debugs")
}

#[test]
fn forward_reverse_forward_transcripts_are_byte_identical_across_protocols() {
    // One scenario per protocol: OSPF, RIP, BGP.
    for name in ["ospf-loss-window", "rip-blackhole", "bgp-med"] {
        let straight = transcript_of(name, "step 40\n");
        let round_trip = transcript_of(name, "step 40\nrstep 40\nstep 40\n");
        // The round trip's transcript is: the straight block, the rstep
        // line, then the straight block again (minus its `> step 40`
        // echo). Check the third command reproduces the first exactly.
        let straight_body: Vec<&str> = straight.lines().skip(1).collect();
        let lines: Vec<&str> = round_trip.lines().collect();
        let second_step = lines
            .iter()
            .rposition(|l| *l == "> step 40")
            .expect("second step echo present");
        assert_eq!(
            &lines[second_step + 1..],
            &straight_body[..],
            "{name}: forward -> reverse -> forward transcript diverged"
        );
        // And the whole session is reproducible end to end.
        assert_eq!(
            transcript_of(name, "step 40\nrstep 40\nstep 40\n"),
            round_trip,
            "{name}: repeated reverse session diverged"
        );
    }
}

#[test]
fn goto_zero_round_trip_matches_straight_replay() {
    let straight = transcript_of("beacon-failover", "run\nlog 0 8\nwhere\n");
    let round = transcript_of("beacon-failover", "run\ngoto 0\nrun\nlog 0 8\nwhere\n");
    let tail = |t: &str| {
        let lines: Vec<String> = t.lines().map(str::to_string).collect();
        let at = lines.iter().rposition(|l| l == "> log 0 8").expect("log echo");
        lines[at..].join("\n")
    };
    assert_eq!(tail(&straight), tail(&round), "state after goto-0 round trip diverged");
}

/// Rewind work is bounded by the checkpoint interval, not the run length:
/// grow the recorded run 10x and the re-executed event count per reverse
/// step stays under the interval both times.
#[test]
fn rewind_work_is_flat_in_run_length() {
    let interval = 16u64;
    let counts: Vec<(u64, u64)> = [3u64, 30]
        .into_iter()
        .map(|secs| {
            let g = canonical::ring(5, SimDuration::from_millis(4));
            let mk = OspfProcess::for_graph(&g, OspfConfig::stress(5));
            let procs: Vec<OspfProcess> = (0..5).map(|i| mk(NodeId(i))).collect();
            let spawn = procs.clone();
            let mut net = RbNetwork::new(&g, DefinedConfig::default(), 5, 0.4, move |id| {
                spawn[id.index()].clone()
            });
            net.run_until(SimTime::from_secs(secs));
            let (rec, _) = net.into_recording();
            let ls = LockstepNet::new(&g, DefinedConfig::default(), rec, move |id| {
                procs[id.index()].clone()
            });
            let mut dbg = Debugger::new(ls);
            dbg.enable_time_travel(
                interval,
                defined::checkpoint::Strategy::MemIntercept,
                defined::checkpoint::RetentionPolicy::default(),
            );
            dbg.run_to_end();
            let end = dbg.delivered();
            let mut worst = 0;
            for _ in 0..2 * interval {
                dbg.reverse_step(1).expect("rewind");
                worst = worst.max(dbg.last_rewind_replayed());
                dbg.step(StepGranularity::Event);
            }
            (end, worst)
        })
        .collect();
    let (short_end, short_worst) = counts[0];
    let (long_end, long_worst) = counts[1];
    assert!(long_end > 5 * short_end, "runs must differ in length: {short_end} vs {long_end}");
    assert!(short_worst < interval, "short-run rewind replayed {short_worst}");
    assert!(long_worst < interval, "long-run rewind replayed {long_worst}");
}

/// `rcont` finds, going backward, the same state change `run` (watch mode)
/// found going forward.
#[test]
fn reverse_continue_agrees_with_forward_watch() {
    let scn = scenario::find("ospf-loss-window").expect("registry scenario");
    let run = scn.record_run().expect("records");
    // Forward: run until node 1's state first changes; note the position.
    let fwd = scn
        .debug_transcript_sharded(&run.bytes, "watch 1\nrun\nwhere\n", 1)
        .expect("debugs");
    assert!(fwd.contains("* watch n1 state"), "{fwd}");
    // Backward from the end: the last change is found without replaying
    // from zero, and stepping past it forward again is byte-stable.
    let back = scn
        .debug_transcript_sharded(&run.bytes, "run\nwatch 1\nrcont\nwhere\n", 1)
        .expect("debugs");
    assert!(back.contains("* stopped after"), "{back}");
}

/// Everything two replays must agree on after a jump: the image encoding
/// (states, waves, phase, versions), every control plane's `Debug`
/// rendering (which shows derived parts the encoding recomputes), and the
/// committed logs.
fn assert_same_replay<P>(net: &LockstepNet<P>, twin: &LockstepNet<P>, what: &str)
where
    P: ControlPlane,
    P::Msg: Wire,
    P::Ext: Wire,
{
    let encoded = |n: &LockstepNet<P>| {
        let mut buf = Vec::new();
        n.capture_image().encode(&mut buf);
        buf
    };
    assert!(encoded(net) == encoded(twin), "{what}: images differ");
    for i in 0..net.logs().len() {
        let node = NodeId(i as u32);
        let (a, b) = (net.control_plane(node), twin.control_plane(node));
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}: node {i} renders differently");
    }
    assert!(net.logs() == twin.logs(), "{what}: logs differ");
}

/// Drives a replay and its twin through seeded forward steps and whole-wave
/// runs, capturing an image after each, patching a node between jumps, and
/// jumping back: to the newest image (usually inside the live wave), to the
/// image from before a whole-wave run (across a group boundary), or to one
/// of the last three. Two rounds in three then record an image a few
/// events on, jump back, patch every node so that the patch survives, walk
/// forward again and jump to that image, recorded before the patch: the
/// rewind must land on it, not splice it onto the patched future. The
/// replay rewinds with `rewind_from_bytes`, which decodes only what
/// changed; the twin restores the whole decoded image. After every jump the
/// two must be the same replay, and their next 64 events identical; then
/// both jump back to the landing point, which is checked the same way.
fn check_rewind_oracle<P>(
    g: &Graph,
    rec: Recording<P::Ext>,
    spawn: impl Fn(NodeId) -> P,
    what: &str,
) where
    P: ControlPlane,
    P::Msg: Wire,
    P::Ext: Wire,
{
    let cfg = DefinedConfig::default();
    let mut net = LockstepNet::new(g, cfg.clone(), rec.clone(), &spawn);
    let mut twin = LockstepNet::new(g, cfg, rec, &spawn);
    let position = |n: &LockstepNet<P>| n.logs().iter().map(Vec::len).sum::<usize>();
    let image = |n: &LockstepNet<P>| {
        let mut buf = Vec::new();
        n.capture_image().encode(&mut buf);
        (position(n), buf)
    };
    let step_both = |net: &mut LockstepNet<P>, twin: &mut LockstepNet<P>, k: u64| {
        for _ in 0..k {
            assert_eq!(net.step_event(), twin.step_event(), "{what}: stepping diverged");
        }
    };
    let (mut kept, mut decoded) = (0, 0);
    // Rewinds both nets to `bytes`, or neither when the replay refuses it
    // (it is behind the image: a full restore would panic).
    let mut jump = |net: &mut LockstepNet<P>, twin: &mut LockstepNet<P>, bytes: &[u8], at, how| {
        let Some(rewound) = net.rewind_from_bytes(bytes) else {
            return false;
        };
        twin.restore_image(Snapshotable::decode(bytes).expect("the image decodes"));
        if rewound.wave_kept {
            kept += 1;
        } else {
            decoded += 1;
        }
        let how = format!("{what}: {how} to position {at}");
        assert_eq!(position(net), at, "{how}");
        assert_same_replay(net, twin, &how);
        true
    };
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let mut draw = |bound: u64| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng % bound
    };
    // Images of the replay's own history, in position order.
    let mut images = vec![image(&net)];
    let mut stale = 0;
    for round in 0..48 {
        if round % 3 == 2 {
            let group = net.current_group() + 1;
            assert_eq!(net.run_to_group_start(group), twin.run_to_group_start(group));
        } else {
            step_both(&mut net, &mut twin, 1 + draw(64));
        }
        images.push(image(&net));
        if round % 4 == 1 {
            // Patch a node between jumps: back to its boot state.
            let node = NodeId(draw(g.node_count() as u64) as u32);
            *net.control_plane_mut(node) = spawn(node);
            *twin.control_plane_mut(node) = spawn(node);
        }
        step_both(&mut net, &mut twin, draw(3));
        let target = match round % 3 {
            0 => images.len() - 1,
            1 => images.len() - 1 - draw(images.len().min(3) as u64) as usize,
            _ => images.len() - 2,
        };
        let (at, bytes) = images[target].clone();
        let how = format!("round {round}, jump");
        let landed = jump(&mut net, &mut twin, &bytes, at, how);
        assert!(landed, "{what}: the replay refused its own image");
        step_both(&mut net, &mut twin, 64);
        let how = format!("round {round}, jump back");
        assert!(jump(&mut net, &mut twin, &bytes, at, how), "{what}: refused");
        // Images past the landing point belong to a future a patch may
        // have rewritten.
        images.retain(|&(p, _)| p <= at);
        if round % 3 == 0 {
            continue;
        }
        // A patch that survives. A few events on, record an image; jump
        // back; patch every node to its boot state; walk forward to the
        // image's position again and jump to it (as `goto` does when it
        // already holds that position: it is not recorded again). The
        // rewind must land on that image, not splice it onto the patched
        // future.
        step_both(&mut net, &mut twin, 1 + draw(8));
        let (ahead, stale_bytes) = image(&net);
        let how = format!("round {round}, jump back before the patch");
        assert!(jump(&mut net, &mut twin, &bytes, at, how), "{what}: refused");
        for i in 0..g.node_count() {
            let node = NodeId(i as u32);
            *net.control_plane_mut(node) = spawn(node);
            *twin.control_plane_mut(node) = spawn(node);
        }
        while position(&net) < ahead {
            let ev = net.step_event();
            assert_eq!(ev, twin.step_event(), "{what}: stepping diverged");
            if ev.is_none() {
                break;
            }
        }
        // Across a wave boundary the patched future may have spread the
        // events over the nodes differently: then the replay is behind the
        // image and refuses it, as a full restore would.
        let how = format!("round {round}, stale jump");
        if position(&net) == ahead && jump(&mut net, &mut twin, &stale_bytes, ahead, how) {
            stale += 1;
            step_both(&mut net, &mut twin, 64);
            let how = format!("round {round}, stale jump back");
            assert!(jump(&mut net, &mut twin, &stale_bytes, ahead, how), "{what}: refused");
            images.push((ahead, stale_bytes));
        }
    }
    assert!(kept > 0, "{what}: no jump kept the staged wave");
    assert!(decoded > 0, "{what}: no jump decoded the waves");
    assert!(stale > 0, "{what}: no jump landed on an image a patch made stale");
}

#[test]
fn in_place_rewind_matches_a_full_restore_across_protocols() {
    for name in ["ospf-loss-window", "rip-blackhole", "bgp-med"] {
        let scn = scenario::find(name).expect("registry scenario");
        let g = scn.topology.build();
        let run = scn.record_run().expect("records");
        match scn.protocol {
            ProtocolSpec::Ospf => {
                let procs = scenario::ospf_processes(&g);
                let rec = Recording::from_bytes(&run.bytes).expect("decodes");
                check_rewind_oracle(&g, rec, |id| procs[id.index()].clone(), name);
            }
            ProtocolSpec::Rip { mode } => {
                let procs = scenario::rip_processes(&g, mode);
                let rec = Recording::from_bytes(&run.bytes).expect("decodes");
                check_rewind_oracle(&g, rec, |id| procs[id.index()].clone(), name);
            }
            ProtocolSpec::Bgp { mode } => {
                let roles = scn.topology.fig4_roles().expect("fig4 topology");
                let procs = scenario::bgp_fig4_processes(&roles, mode);
                let rec = Recording::from_bytes(&run.bytes).expect("decodes");
                check_rewind_oracle(&g, rec, |id| procs[id.index()].clone(), name);
            }
        }
    }
}
