//! A text-command debugger session — the troubleshooter-facing surface of
//! DEFINED-LS (§2.1's "debugging coordinator with the interactive stepping
//! functionality"), suitable for a REPL, a script, or a test.
//!
//! Commands (one per line; `#` starts a comment):
//!
//! ```text
//! step [n]          deliver the next n events (default 1)
//! stepg [n]         step n whole groups (default 1)
//! run               run until a breakpoint fires or the recording ends
//! rstep [n]         step n events backward (reverse-step; default 1)
//! rcont             run backward to the last earlier breakpoint/watch hit
//!                   (reverse-continue)
//! goto P            jump to absolute event position P, either direction
//! checkpoints       show the reverse-execution checkpoint timeline
//! break group G     break on the first event of group G
//! break node N      break on any delivery at node N
//! clear             remove all breakpoints
//! watch N           watch node N's state digest; `run` stops when it
//!                   changes, `rcont` when it last changed
//! unwatch           remove all watches
//! inspect N         print node N's control-plane state
//! log N [K]         print node N's last K committed records (default 5)
//! where             current group / delivered-event count
//! help              list commands
//! ```
//!
//! Replays are deterministic, so stepping forward again after `rstep` /
//! `goto` reproduces the original output byte for byte.

use crate::debugger::{Debugger, StepGranularity, TimeTravelError};
use crate::wire::Wire;
use checkpoint::{RetentionPolicy, Strategy};
use netsim::NodeId;
use routing::ControlPlane;
use std::fmt::Write as _;

/// Default checkpoint cadence for session-level time travel, in delivered
/// events: dense enough that any `rstep` re-executes at most a few dozen
/// events, sparse enough that page-diff images stay cheap (DESIGN.md §8).
pub const DEFAULT_CHECKPOINT_INTERVAL: u64 = 32;

/// Why a command was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionError {
    /// The verb is not a known command.
    UnknownCommand(String),
    /// The verb is known but an argument is missing or malformed.
    BadArguments(String),
    /// A node id is out of range for the debugging network.
    NoSuchNode(u32),
    /// A reverse-execution request could not be satisfied.
    TimeTravel(TimeTravelError),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::UnknownCommand(c) => write!(f, "unknown command: {c} (try `help`)"),
            SessionError::BadArguments(m) => write!(f, "bad arguments: {m}"),
            SessionError::NoSuchNode(n) => write!(f, "no such node: n{n}"),
            SessionError::TimeTravel(e) => write!(f, "time travel: {e}"),
        }
    }
}

impl From<TimeTravelError> for SessionError {
    fn from(e: TimeTravelError) -> Self {
        SessionError::TimeTravel(e)
    }
}

impl std::error::Error for SessionError {}

/// A command-driven debugging session over a [`Debugger`].
pub struct DebugSession<P: ControlPlane> {
    dbg: Debugger<P>,
    n_nodes: usize,
    /// Whether `run` should also stop on watch changes.
    watching: bool,
}

impl<P> DebugSession<P>
where
    P: ControlPlane,
    P::Msg: Wire,
    P::Ext: Wire,
{
    /// Wraps a debugger for a network of `n_nodes` nodes.
    ///
    /// Time travel is enabled by default (page-diff checkpoints every
    /// [`DEFAULT_CHECKPOINT_INTERVAL`] events), so every session — and
    /// every registry scenario driven through one — is debuggable
    /// backwards.
    pub fn new(mut dbg: Debugger<P>, n_nodes: usize) -> Self {
        if !dbg.time_travel_enabled() {
            dbg.enable_time_travel(
                DEFAULT_CHECKPOINT_INTERVAL,
                Strategy::MemIntercept,
                RetentionPolicy::default(),
            );
        }
        DebugSession { dbg, n_nodes, watching: false }
    }

    /// The wrapped debugger (for programmatic use alongside commands).
    pub fn debugger(&self) -> &Debugger<P> {
        &self.dbg
    }

    fn parse_node(&self, tok: Option<&str>) -> Result<NodeId, SessionError> {
        let t = tok.ok_or_else(|| SessionError::BadArguments("expected a node id".into()))?;
        let raw = t.strip_prefix('n').unwrap_or(t);
        let id: u32 = raw
            .parse()
            .map_err(|_| SessionError::BadArguments(format!("`{t}` is not a node id")))?;
        if (id as usize) < self.n_nodes {
            Ok(NodeId(id))
        } else {
            Err(SessionError::NoSuchNode(id))
        }
    }

    /// Executes one command line, returning its printable output.
    pub fn exec(&mut self, line: &str) -> Result<String, SessionError> {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            return Ok(String::new());
        }
        let mut it = line.split_whitespace();
        let verb = it.next().expect("non-empty line");
        match verb {
            "step" => {
                let n: u64 = match it.next() {
                    None => 1,
                    Some(t) => t.parse().map_err(|_| {
                        SessionError::BadArguments(format!("`{t}` is not a count"))
                    })?,
                };
                let mut out = String::new();
                for _ in 0..n {
                    match self.dbg.step(StepGranularity::Event) {
                        None => {
                            let _ = writeln!(out, "(recording exhausted)");
                            break;
                        }
                        Some(r) => {
                            for ev in &r.events {
                                let _ = writeln!(
                                    out,
                                    "[g{} c{}] {} @ {:?} (digest {:016x})",
                                    ev.group,
                                    ev.chain,
                                    ev.record.ann.class,
                                    ev.node,
                                    ev.record.payload_digest,
                                );
                            }
                            if r.hit_breakpoint {
                                let _ = writeln!(out, "* breakpoint hit");
                                break;
                            }
                        }
                    }
                }
                Ok(out)
            }
            "stepg" => {
                let n: u64 = match it.next() {
                    None => 1,
                    Some(t) => t.parse().map_err(|_| {
                        SessionError::BadArguments(format!("`{t}` is not a count"))
                    })?,
                };
                let mut out = String::new();
                for _ in 0..n {
                    match self.dbg.step(StepGranularity::Group) {
                        None => {
                            let _ = writeln!(out, "(recording exhausted)");
                            break;
                        }
                        Some(r) => {
                            let _ = writeln!(
                                out,
                                "group -> {} ({} events{})",
                                r.group,
                                r.events.len(),
                                if r.hit_breakpoint { ", breakpoint hit" } else { "" },
                            );
                            if r.hit_breakpoint {
                                break;
                            }
                        }
                    }
                }
                Ok(out)
            }
            "run" => {
                if self.watching {
                    match self.dbg.run_until_watch_change() {
                        None => Ok("(recording exhausted)\n".into()),
                        Some((ev, changes)) => {
                            let mut out = String::new();
                            for (label, old, new) in changes {
                                let _ = writeln!(
                                    out,
                                    "* watch {label}: {old:016x} -> {new:016x}",
                                );
                            }
                            let _ = writeln!(
                                out,
                                "  at [g{} c{}] {} @ {:?}",
                                ev.group,
                                ev.chain,
                                ev.record.ann.class,
                                ev.node,
                            );
                            Ok(out)
                        }
                    }
                } else {
                    match self.dbg.run_until_break() {
                        None => Ok("(recording exhausted)\n".into()),
                        Some(ev) => Ok(format!(
                            "* breakpoint: [g{} c{}] {} @ {:?}\n",
                            ev.group,
                            ev.chain,
                            ev.record.ann.class,
                            ev.node,
                        )),
                    }
                }
            }
            "rstep" | "reverse-step" => {
                let n: u64 = match it.next() {
                    None => 1,
                    Some(t) => t.parse().map_err(|_| {
                        SessionError::BadArguments(format!("`{t}` is not a count"))
                    })?,
                };
                let pos = self.dbg.reverse_step(n)?;
                Ok(format!(
                    "<- position {pos} | group {} | replayed {} event(s)\n",
                    self.dbg.net().current_group(),
                    self.dbg.last_rewind_replayed(),
                ))
            }
            "goto" => {
                let target: u64 = it
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| SessionError::BadArguments("goto <event-position>".into()))?;
                let pos = self.dbg.goto(target)?;
                Ok(format!(
                    "-> position {pos} | group {}{}\n",
                    self.dbg.net().current_group(),
                    if pos < target { " (end of recording)" } else { "" },
                ))
            }
            "rcont" | "reverse-continue" => match self.dbg.reverse_continue()? {
                None => Ok(format!(
                    "(start of retained history, position {})\n",
                    self.dbg.delivered(),
                )),
                Some((ev, changes)) => {
                    let mut out = String::new();
                    for (label, old, new) in changes {
                        let _ = writeln!(out, "* watch {label}: {old:016x} -> {new:016x}");
                    }
                    let _ = writeln!(
                        out,
                        "* stopped after [g{} c{}] {} @ {:?} | position {}",
                        ev.group,
                        ev.chain,
                        ev.record.ann.class,
                        ev.node,
                        self.dbg.delivered(),
                    );
                    Ok(out)
                }
            },
            "checkpoints" => match self.dbg.timeline_stats() {
                None => Ok("time travel is not enabled\n".into()),
                Some(s) => Ok(format!(
                    "{} checkpoint(s) | interval {} | {} KiB physical of {} KiB virtual\n",
                    s.retained,
                    self.dbg.checkpoint_interval().unwrap_or(0),
                    s.physical_bytes / 1024,
                    s.virtual_bytes / 1024,
                )),
            },
            "break" => match it.next() {
                Some("group") => {
                    let g: u64 = it
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| SessionError::BadArguments("break group G".into()))?;
                    self.dbg.add_breakpoint(move |ev, _| ev.group >= g);
                    Ok(format!("breakpoint set: group {g}\n"))
                }
                Some("node") => {
                    let node = self.parse_node(it.next())?;
                    self.dbg.add_breakpoint(move |ev, _| ev.node == node);
                    Ok(format!("breakpoint set: node {node}\n"))
                }
                _ => Err(SessionError::BadArguments(
                    "break group <G> | break node <N>".into(),
                )),
            },
            "clear" => {
                self.dbg.clear_breakpoints();
                Ok("breakpoints cleared\n".into())
            }
            "watch" => {
                let node = self.parse_node(it.next())?;
                self.dbg.add_watch(format!("{node} state"), move |net| {
                    crate::order::debug_digest(net.control_plane(node))
                });
                // Watches report through `run`: stop on the first change.
                self.watching = true;
                Ok(format!("watching {node}'s state digest\n"))
            }
            "unwatch" => {
                self.dbg.clear_watches();
                self.watching = false;
                Ok("watches cleared\n".into())
            }
            "inspect" => {
                let node = self.parse_node(it.next())?;
                Ok(format!("{:#?}\n", self.dbg.inspect(node)))
            }
            "log" => {
                let node = self.parse_node(it.next())?;
                let k: usize = match it.next() {
                    None => 5,
                    Some(t) => t.parse().map_err(|_| {
                        SessionError::BadArguments(format!("`{t}` is not a count"))
                    })?,
                };
                let logs = self.dbg.net().logs();
                let log = &logs[node.index()];
                let mut out = String::new();
                let start = log.len().saturating_sub(k);
                for r in &log[start..] {
                    let _ = writeln!(
                        out,
                        "[g{} c{}] {} from {:?} (digest {:016x})",
                        r.ann.group,
                        r.ann.chain,
                        r.ann.class,
                        r.ann.sender,
                        r.payload_digest,
                    );
                }
                if out.is_empty() {
                    out.push_str("(no committed events yet)\n");
                }
                Ok(out)
            }
            "where" => Ok(format!(
                "group {} | {} events delivered | {}\n",
                self.dbg.net().current_group(),
                self.dbg.delivered(),
                if self.dbg.net().is_done() { "done" } else { "running" },
            )),
            "help" => Ok("commands: step [n] | stepg [n] | run | rstep [n] | rcont | \
                          goto P | checkpoints | break group G | break node N | clear | \
                          watch N | unwatch | inspect N | log N [K] | where | help\n"
                .into()),
            other => Err(SessionError::UnknownCommand(other.to_string())),
        }
    }

    /// Runs a multi-line script, echoing each command, and returns the full
    /// transcript. Errors are rendered inline and do not abort the script.
    pub fn run_script(&mut self, script: &str) -> String {
        let mut out = String::new();
        for line in script.lines() {
            let trimmed = line.split('#').next().unwrap_or("").trim();
            if trimmed.is_empty() {
                continue;
            }
            let _ = writeln!(out, "> {trimmed}");
            match self.exec(trimmed) {
                Ok(o) => out.push_str(&o),
                Err(e) => {
                    let _ = writeln!(out, "error: {e}");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DefinedConfig;
    use crate::harness::RbNetwork;
    use crate::ls::LockstepNet;
    use netsim::{SimDuration, SimTime};
    use routing::ospf::{OspfConfig, OspfProcess};
    use topology::canonical;

    fn session() -> DebugSession<OspfProcess> {
        let g = canonical::ring(4, SimDuration::from_millis(4));
        let cfg = DefinedConfig::default();
        let f = OspfProcess::for_graph(&g, OspfConfig::stress(4));
        let spawn: Vec<OspfProcess> = (0..4).map(|i| f(NodeId(i))).collect();
        let s2 = spawn.clone();
        let mut net = RbNetwork::new(&g, cfg.clone(), 6, 0.3, move |id| spawn[id.index()].clone());
        net.run_until(SimTime::from_secs(3));
        let (rec, _) = net.into_recording();
        let dbg = Debugger::new(LockstepNet::new(&g, cfg, rec, move |id| s2[id.index()].clone()));
        DebugSession::new(dbg, 4)
    }

    #[test]
    fn stepping_and_where() {
        let mut s = session();
        let out = s.exec("step 3").unwrap();
        assert_eq!(out.lines().count(), 3, "{out}");
        let w = s.exec("where").unwrap();
        assert!(w.contains("3 events delivered"), "{w}");
    }

    #[test]
    fn break_and_run() {
        let mut s = session();
        s.exec("break group 3").unwrap();
        let out = s.exec("run").unwrap();
        assert!(out.contains("breakpoint"), "{out}");
        assert!(s.debugger().net().current_group() >= 3);
    }

    #[test]
    fn node_breakpoints() {
        let mut s = session();
        s.exec("break node n2").unwrap();
        let out = s.exec("run").unwrap();
        assert!(out.contains("@ n2"), "{out}");
    }

    #[test]
    fn inspect_and_log() {
        let mut s = session();
        s.exec("stepg 2").unwrap();
        let st = s.exec("inspect 1").unwrap();
        assert!(st.contains("Ospf"), "{st}");
        let lg = s.exec("log 1 3").unwrap();
        assert!(lg.lines().count() <= 3, "{lg}");
        assert!(lg.contains("[g"), "{lg}");
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mut s = session();
        assert!(matches!(s.exec("frobnicate"), Err(SessionError::UnknownCommand(_))));
        assert!(matches!(s.exec("inspect 99"), Err(SessionError::NoSuchNode(99))));
        assert!(matches!(s.exec("step zap"), Err(SessionError::BadArguments(_))));
        assert!(matches!(s.exec("break"), Err(SessionError::BadArguments(_))));
        // The session is still usable.
        assert!(s.exec("step").is_ok());
    }

    #[test]
    fn scripts_produce_transcripts() {
        let mut s = session();
        let t = s.run_script(
            "# a comment-only line\n\
             stepg 1\n\
             where\n\
             nonsense\n\
             step 2\n",
        );
        assert!(t.contains("> stepg 1"), "{t}");
        assert!(t.contains("error: unknown command"), "{t}");
        assert!(t.contains("> step 2"), "{t}");
    }

    #[test]
    fn clear_removes_breakpoints() {
        let mut s = session();
        s.exec("break group 2").unwrap();
        s.exec("clear").unwrap();
        let out = s.exec("run").unwrap();
        assert!(out.contains("exhausted"), "{out}");
    }

    /// Forward → reverse → forward: the re-executed `step` output is byte
    /// for byte the original output (Theorem 1 applied twice).
    #[test]
    fn reverse_then_forward_transcript_is_byte_identical() {
        let mut s = session();
        let first = s.exec("step 30").unwrap();
        let back = s.exec("rstep 30").unwrap();
        assert!(back.starts_with("<- position 0 | group"), "{back}");
        let again = s.exec("step 30").unwrap();
        assert_eq!(first, again, "forward -> reverse -> forward diverged");
        // And through an interior position too.
        s.exec("rstep 7").unwrap();
        let tail = s.exec("step 7").unwrap();
        let mut lines = first.lines().rev().take(7).collect::<Vec<_>>();
        lines.reverse();
        assert_eq!(tail.trim_end().lines().collect::<Vec<_>>(), lines);
    }

    #[test]
    fn goto_verb_navigates_both_directions() {
        let mut s = session();
        s.exec("step 40").unwrap();
        let out = s.exec("goto 10").unwrap();
        assert!(out.starts_with("-> position 10 | group"), "{out}");
        let out = s.exec("goto 35").unwrap();
        assert!(out.starts_with("-> position 35"), "{out}");
        let w = s.exec("where").unwrap();
        assert!(w.contains("35 events delivered"), "{w}");
        // A huge forward target lands at the end of the recording.
        let out = s.exec("goto 1000000000").unwrap();
        assert!(out.contains("(end of recording)"), "{out}");
    }

    #[test]
    fn rcont_stops_at_the_last_breakpoint_hit_behind() {
        let mut s = session();
        s.exec("break group 2").unwrap();
        s.exec("goto 200").unwrap();
        let out = s.exec("rcont").unwrap();
        assert!(out.contains("* stopped after [g"), "{out}");
        // Without breakpoints or watches, rcont lands at history start.
        s.exec("clear").unwrap();
        let out = s.exec("rcont").unwrap();
        assert!(out.contains("start of retained history, position 0"), "{out}");
    }

    #[test]
    fn checkpoints_verb_reports_the_timeline() {
        let mut s = session();
        s.exec("step 100").unwrap();
        let out = s.exec("checkpoints").unwrap();
        assert!(out.contains("checkpoint(s) | interval 32"), "{out}");
    }

    #[test]
    fn reverse_verbs_reject_bad_arguments() {
        let mut s = session();
        assert!(matches!(s.exec("rstep zap"), Err(SessionError::BadArguments(_))));
        assert!(matches!(s.exec("goto"), Err(SessionError::BadArguments(_))));
        assert!(matches!(s.exec("goto x"), Err(SessionError::BadArguments(_))));
        // Long aliases work.
        s.exec("step 5").unwrap();
        assert!(s.exec("reverse-step 2").unwrap().starts_with("<- position 3"));
        assert!(s.exec("reverse-continue").is_ok());
    }

    #[test]
    fn watch_command_stops_on_state_change() {
        let mut s = session();
        let out = s.exec("watch 2").unwrap();
        assert!(out.contains("watching n2"), "{out}");
        let run = s.exec("run").unwrap();
        assert!(run.contains("* watch n2 state"), "{run}");
        assert!(run.contains("at [g"), "{run}");
        // Unwatch reverts `run` to breakpoint semantics (none set → runs
        // to the end).
        s.exec("unwatch").unwrap();
        let run = s.exec("run").unwrap();
        assert!(run.contains("exhausted"), "{run}");
    }
}
