//! Smoke tests for the `defined-dbg` binary: record → debug round trips of
//! registry scenarios and `.scn` file scenarios, driven exactly as a user
//! would drive them. These keep the CLI wired into tier-1 — a build that
//! breaks the binary's argument handling, the scenario registry, the `.scn`
//! parser, or the recording file format fails here.

use std::path::PathBuf;
use std::process::{Command, Output};

fn defined_dbg() -> Command {
    Command::new(env!("CARGO_BIN_EXE_defined-dbg"))
}

fn tmp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("defined-dbg-smoke-{}-{}", std::process::id(), name));
    p
}

fn assert_success(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed with {:?}\nstdout: {}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
}

#[test]
fn scenarios_lists_the_full_registry() {
    let out = defined_dbg().arg("scenarios").output().expect("spawns");
    assert_success(&out, "defined-dbg scenarios");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.lines().count() >= 10, "registry shrank below 10 entries:\n{stdout}");
    for name in ["rip-blackhole", "bgp-med", "ospf-flood-storm", "beacon-failover"] {
        assert!(stdout.contains(name), "missing scenario {name}: {stdout}");
    }
}

/// Records `scenario` and debugs it twice with the same script; the two
/// transcripts must match byte for byte (deterministic replay).
fn round_trip(scenario: &str, tag: &str) {
    let rec = tmp_path(&format!("{tag}.rec"));
    let script = tmp_path(&format!("{tag}.script"));
    std::fs::write(&script, "help\nrun\nwhere\ninspect 0\nlog 0\n").expect("writes script");

    let out = defined_dbg().args(["record", scenario]).arg(&rec).output().expect("spawns");
    assert_success(&out, &format!("record {scenario}"));
    assert!(rec.exists(), "recording file written");

    let out = defined_dbg()
        .args(["debug", scenario])
        .arg(&rec)
        .arg(&script)
        .output()
        .expect("spawns");
    assert_success(&out, &format!("debug {scenario}"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.is_empty(), "debug session produced no output");

    let again = defined_dbg()
        .args(["debug", scenario])
        .arg(&rec)
        .arg(&script)
        .output()
        .expect("spawns");
    assert_success(&again, &format!("debug {scenario} (second run)"));
    assert_eq!(out.stdout, again.stdout, "{scenario}: replay transcripts diverged");

    let _ = std::fs::remove_file(&rec);
    let _ = std::fs::remove_file(&script);
}

#[test]
fn record_then_debug_rip_blackhole_round_trips() {
    round_trip("rip-blackhole", "rip");
}

#[test]
fn record_then_debug_bgp_med_round_trips() {
    round_trip("bgp-med", "bgp");
}

#[test]
fn record_then_debug_loss_window_round_trips() {
    round_trip("ospf-loss-window", "olw");
}

#[test]
fn scn_file_scenario_records_and_debugs() {
    // A scenario loaded from a .scn file gets the same workflow as a
    // registry entry. The file lives in the repo's scenarios/ directory
    // (tests run with the package root as the working directory).
    round_trip("scenarios/ring-loss.scn", "scn");
}

/// Record → debug → reverse-step → forward-step through the real binary:
/// the re-executed forward block must be byte-identical to the original
/// one, and the whole reverse session must be exactly repeatable.
#[test]
fn record_debug_reverse_step_forward_step_round_trips() {
    let rec = tmp_path("reverse.rec");
    let fwd_script = tmp_path("reverse-fwd.script");
    let rev_script = tmp_path("reverse-rev.script");
    std::fs::write(&fwd_script, "step 25\n").expect("writes script");
    std::fs::write(&rev_script, "step 25\nrstep 10\nstep 10\nwhere\n").expect("writes script");

    let out = defined_dbg().args(["record", "ospf-flood-storm"]).arg(&rec).output().expect("spawns");
    assert_success(&out, "record ospf-flood-storm");

    let fwd = defined_dbg()
        .args(["debug", "ospf-flood-storm"])
        .arg(&rec)
        .arg(&fwd_script)
        .output()
        .expect("spawns");
    assert_success(&fwd, "debug (forward)");
    let fwd_lines: Vec<String> =
        String::from_utf8_lossy(&fwd.stdout).lines().map(str::to_string).collect();

    let rev = defined_dbg()
        .args(["debug", "ospf-flood-storm"])
        .arg(&rec)
        .arg(&rev_script)
        .output()
        .expect("spawns");
    assert_success(&rev, "debug (reverse)");
    let rev_text = String::from_utf8_lossy(&rev.stdout).to_string();
    let rev_lines: Vec<String> = rev_text.lines().map(str::to_string).collect();

    // The reverse session's re-executed `step 10` block reproduces the
    // last 10 lines of the forward-only session's `step 25` block.
    assert!(rev_text.contains("<- position 15"), "reverse-step missing:\n{rev_text}");
    let step10 = rev_lines.iter().rposition(|l| l == "> step 10").expect("step 10 echo");
    let replayed = &rev_lines[step10 + 1..step10 + 11];
    let original = &fwd_lines[fwd_lines.len() - 10..];
    assert_eq!(replayed, original, "reverse -> forward replay diverged from the original");
    assert!(rev_text.contains("25 events delivered"), "{rev_text}");

    // The reverse session itself is deterministic.
    let again = defined_dbg()
        .args(["debug", "ospf-flood-storm"])
        .arg(&rec)
        .arg(&rev_script)
        .output()
        .expect("spawns");
    assert_eq!(rev.stdout, again.stdout, "reverse transcripts diverged");

    let _ = std::fs::remove_file(&rec);
    let _ = std::fs::remove_file(&fwd_script);
    let _ = std::fs::remove_file(&rev_script);
}

#[test]
fn seed_flag_sweeps_jitter_without_changing_the_outcome() {
    let rec_a = tmp_path("seed-a.rec");
    let rec_b = tmp_path("seed-b.rec");
    let outcome = |out: &Output| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .find(|l| l.starts_with("production outcome:"))
            .expect("outcome line")
            .to_string()
    };
    let a = defined_dbg()
        .args(["record", "bgp-med"])
        .arg(&rec_a)
        .args(["--seed", "17"])
        .output()
        .expect("spawns");
    assert_success(&a, "record --seed 17");
    let b = defined_dbg()
        .args(["record", "bgp-med"])
        .arg(&rec_b)
        .args(["--seed", "40404"])
        .output()
        .expect("spawns");
    assert_success(&b, "record --seed 40404");
    // Different jitter seeds, identical committed outcome — the paper's
    // headline property, exercised from the CLI surface.
    assert_eq!(outcome(&a), outcome(&b), "outcome must not depend on the seed");

    let _ = std::fs::remove_file(&rec_a);
    let _ = std::fs::remove_file(&rec_b);
}

#[test]
fn debug_script_via_stdin_is_accepted() {
    use std::io::Write as _;
    use std::process::Stdio;

    let rec = tmp_path("stdin.rec");
    let out = defined_dbg().args(["record", "bgp-med"]).arg(&rec).output().expect("spawns");
    assert_success(&out, "record bgp-med");

    let mut child = defined_dbg()
        .args(["debug", "bgp-med"])
        .arg(&rec)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawns");
    child.stdin.take().expect("stdin piped").write_all(b"help\nstep\n").expect("writes");
    let out = child.wait_with_output().expect("waits");
    assert_success(&out, "debug bgp-med with stdin script");

    let _ = std::fs::remove_file(&rec);
}

/// `explore` and `bisect` compile the scenario's outcome probe into a farm
/// search; their reports must be byte-identical across `--jobs` values.
#[test]
fn explore_and_bisect_are_jobs_invariant_through_the_binary() {
    let explore = |jobs: &str| {
        let out = defined_dbg()
            .args(["explore", "rip-blackhole", "--salts", "8", "--jobs", jobs])
            .output()
            .expect("spawns");
        assert_success(&out, &format!("explore --jobs {jobs}"));
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let e1 = explore("1");
    assert!(e1.contains("baseline outcome:"), "{e1}");
    assert!(e1.contains("first divergence: salt"), "the black hole is order-sensitive:\n{e1}");
    assert_eq!(e1, explore("2"), "explore report varies with --jobs");

    let bisect = |jobs: &str| {
        let out = defined_dbg()
            .args(["bisect", "rip-blackhole", "--jobs", jobs])
            .output()
            .expect("spawns");
        assert_success(&out, &format!("bisect --jobs {jobs}"));
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let b1 = bisect("1");
    assert!(b1.contains("established by group"), "{b1}");
    assert!(b1.contains("culprit event:"), "{b1}");
    assert_eq!(b1, bisect("2"), "bisect report varies with --jobs");
}

/// The durable-store workflow end to end, exactly as a user drives it:
/// `record --out` streams a `.drec` file, `debug`/`replay` accept it
/// without re-recording, `verify` passes on the intact file — and a
/// single flipped byte makes `verify` fail with a typed diagnostic (a
/// clean error line, never a panic backtrace).
#[test]
fn store_record_verify_and_corruption_detection() {
    let drec = tmp_path("store.drec");
    let script = tmp_path("store.script");
    std::fs::write(&script, "where\nstepg 2\nrun\nwhere\n").expect("writes script");

    let out = defined_dbg()
        .args(["record", "ospf-loss-window", "--out"])
        .arg(&drec)
        .output()
        .expect("spawns");
    assert_success(&out, "record --out");
    let bytes = std::fs::read(&drec).expect("store written");
    assert_eq!(&bytes[..4], b"DREC", "store file carries the magic");

    let dbg = defined_dbg()
        .args(["debug", "ospf-loss-window"])
        .arg(&drec)
        .arg(&script)
        .output()
        .expect("spawns");
    assert_success(&dbg, "debug from .drec");

    let replay = defined_dbg()
        .args(["replay", "ospf-loss-window"])
        .arg(&drec)
        .output()
        .expect("spawns");
    assert_success(&replay, "replay from .drec");
    assert!(String::from_utf8_lossy(&replay.stdout).contains("replayed ospf-loss-window"));

    // The scenario name travels in the file; verify needs no other args.
    let verify = defined_dbg().arg("verify").arg(&drec).output().expect("spawns");
    assert_success(&verify, "verify intact store");
    assert!(String::from_utf8_lossy(&verify.stdout).contains("verify ok"));

    // Flip one mid-file byte: verification must fail with a clean typed
    // diagnostic — exit non-zero, no panic backtrace on either stream.
    let mut corrupt = bytes.clone();
    let pos = corrupt.len() / 2;
    corrupt[pos] ^= 0x10;
    std::fs::write(&drec, &corrupt).expect("writes corrupted store");
    let bad = defined_dbg().arg("verify").arg(&drec).output().expect("spawns");
    assert!(!bad.status.success(), "corrupted store must fail verification");
    let err = String::from_utf8_lossy(&bad.stderr).to_string()
        + &String::from_utf8_lossy(&bad.stdout);
    assert!(!err.contains("panicked"), "diagnostic must be typed, not a backtrace:\n{err}");
    assert!(err.contains("byte") || err.contains("corrupt") || err.contains("unfinished"), "{err}");

    // Truncate to two thirds: strict verify refuses, but replay recovers
    // the durable prefix (with a torn-tail warning on stderr).
    std::fs::write(&drec, &bytes[..bytes.len() * 2 / 3]).expect("writes torn store");
    let torn = defined_dbg().arg("verify").arg(&drec).output().expect("spawns");
    assert!(!torn.status.success(), "torn store must fail strict verification");
    let recovered = defined_dbg()
        .args(["replay", "ospf-loss-window"])
        .arg(&drec)
        .output()
        .expect("spawns");
    assert_success(&recovered, "replay recovers the torn store's durable prefix");
    assert!(
        String::from_utf8_lossy(&recovered.stderr).contains("torn tail"),
        "recovery must be announced"
    );

    let _ = std::fs::remove_file(&drec);
    let _ = std::fs::remove_file(&script);
}

/// A store recorded from a `.scn` file names a scenario the registry does
/// not hold: `verify` without `--scenario` exits 1 and says which file to
/// pass, and passing it verifies.
#[test]
fn verify_of_a_scn_store_names_the_missing_scenario() {
    let drec = tmp_path("scn-store.drec");
    let out = defined_dbg()
        .args(["record", "scenarios/ring-loss.scn", "--out"])
        .arg(&drec)
        .output()
        .expect("spawns");
    assert_success(&out, "record scenarios/ring-loss.scn --out");
    let bare = defined_dbg().arg("verify").arg(&drec).output().expect("spawns");
    assert_eq!(bare.status.code(), Some(1), "verify without --scenario");
    let stderr = String::from_utf8_lossy(&bare.stderr);
    assert!(
        stderr.contains("recorded from scenario `ring-loss`, which is not in the registry")
            && stderr.contains("--scenario <path>"),
        "{stderr}"
    );
    let named = defined_dbg()
        .arg("verify")
        .arg(&drec)
        .args(["--scenario", "scenarios/ring-loss.scn"])
        .output()
        .expect("spawns");
    assert_success(&named, "verify --scenario scenarios/ring-loss.scn");
    assert!(String::from_utf8_lossy(&named.stdout).contains("verify ok"));
    let _ = std::fs::remove_file(&drec);
}

#[test]
fn bad_usage_exits_nonzero() {
    for args in [
        &[][..],
        &["frobnicate"][..],
        &["record", "no-such-scenario", "/tmp/x"][..],
        &["record", "bgp-med", "/tmp/x", "--seed"][..],
        &["record", "bgp-med", "/tmp/x", "--seed", "not-a-number"][..],
        &["record", "/tmp/no-such-file.scn", "/tmp/x"][..],
        // --seed belongs to record; elsewhere it must not be silently eaten.
        &["debug", "bgp-med", "/tmp/x", "--seed", "9"][..],
        &["scenarios", "--seed", "9"][..],
        // Farm flags belong to explore/bisect and demand values.
        &["explore", "no-such-scenario"][..],
        &["explore", "rip-blackhole", "--salts"][..],
        &["explore", "rip-blackhole", "--jobs", "two"][..],
        &["bisect", "rip-blackhole", "--salts", "4"][..],
        &["record", "bgp-med", "/tmp/x", "--jobs", "2"][..],
        // Store verbs: record needs some output, verify/replay need paths.
        &["record", "bgp-med"][..],
        &["record", "bgp-med", "--out"][..],
        &["verify"][..],
        &["verify", "/tmp/no-such-store.drec"][..],
        &["replay", "bgp-med"][..],
        // --out belongs to record; --scenario belongs to verify.
        &["debug", "bgp-med", "/tmp/x", "--out", "/tmp/y"][..],
        &["record", "bgp-med", "/tmp/x", "--scenario", "bgp-med"][..],
        // --ckpt-interval belongs to the verbs that run production; no
        // replay path reads the capture policy.
        &["replay", "bgp-med", "/tmp/x", "--ckpt-interval", "4"][..],
        // A salt count no sweep could finish is refused before anything is
        // sized by it (these used to die on `capacity overflow` and on a
        // failed 80 PB allocation).
        &["explore", "rip-blackhole", "--salts", "18446744073709551615"][..],
        &["explore", "rip-blackhole", "--salts", "9999999999999999"][..],
    ] {
        let out = defined_dbg().args(args).output().expect("spawns");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "defined-dbg {args:?} must fail as a usage or typed error:\n{}\n{stderr}",
            String::from_utf8_lossy(&out.stdout)
        );
        assert!(
            !stderr.contains("panicked") && !stderr.contains("allocation"),
            "defined-dbg {args:?} died instead of reporting:\n{stderr}"
        );
    }
}

/// A `.scn` flap is bounded before anything is queued for it: a count that
/// would size the event queue, and a last cycle after the run end, are both
/// typed errors.
#[test]
fn hostile_flap_counts_are_refused() {
    let base = std::fs::read_to_string("scenarios/ring-loss.scn").expect("reads ring-loss.scn");
    for (tag, flap) in [
        ("flap-count", "fault 2s flap 0 1 1ns 2ns 4294967295"),
        ("flap-late", "fault 2s flap 0 1 400ms 900ms 6"),
    ] {
        let scn = tmp_path(&format!("{tag}.scn"));
        let rec = tmp_path(&format!("{tag}.rec"));
        std::fs::write(&scn, base.replace("fault 2s flap 0 1 400ms 900ms 2", flap)).expect("writes");
        let out = defined_dbg().arg("record").arg(&scn).arg(&rec).output().expect("spawns");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flap} must be refused:\n{stderr}");
        assert!(stderr.contains("defined-dbg:") && stderr.contains("flap"), "{flap}: {stderr}");
        assert!(
            !stderr.contains("panicked") && !stderr.contains("allocation"),
            "{flap} died instead of reporting:\n{stderr}"
        );
        assert!(!rec.exists(), "{flap}: nothing recorded");
        let _ = std::fs::remove_file(&scn);
    }
}

#[test]
fn registry_names_are_not_shadowed_by_cwd_files() {
    // A stray file in the working directory named after a registry scenario
    // must not hijack the name: the registry wins, files need a path/.scn.
    let dir = tmp_path("shadow-dir");
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join("bgp-med"), b"not a scenario").expect("writes");
    let rec = tmp_path("shadow.rec");
    let out = defined_dbg()
        .current_dir(&dir)
        .args(["record", "bgp-med"])
        .arg(&rec)
        .output()
        .expect("spawns");
    assert_success(&out, "record bgp-med with a shadowing cwd file");
    let _ = std::fs::remove_file(&rec);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn debug_rejects_garbage_recording() {
    let rec = tmp_path("garbage.rec");
    std::fs::write(&rec, b"not a recording at all").expect("writes");
    let out = defined_dbg()
        .args(["debug", "rip-blackhole"])
        .arg(&rec)
        .arg("/dev/null")
        .output()
        .expect("spawns");
    assert!(!out.status.success(), "garbage recording must be rejected");
    let _ = std::fs::remove_file(&rec);
}
