//! A declarative scenario & fault-injection engine for DEFINED.
//!
//! The paper's workflow — instrument a production network with DEFINED-RB,
//! take a partial recording, replay it interactively under DEFINED-LS — is
//! only as useful as the misbehaviours you can reproduce. This crate turns
//! that workflow into a function of *data*: a [`Scenario`] is a composable
//! description of
//!
//! * **topology** ([`TopologySpec`]) — the paper's Fig. 4/5 case-study
//!   graphs, canonical shapes, Rocketfuel-like ISP maps, BRITE generators;
//! * **protocol** ([`ProtocolSpec`]) — RIP, OSPF, or BGP with their bug
//!   toggles;
//! * **workload** ([`Injection`]) — timed external events, the only inputs
//!   DEFINED records;
//! * **fault schedule** ([`Fault`]) — node crash/restart, link down/up and
//!   flap sequences, bisection partitions with heals, Bernoulli
//!   message-loss windows;
//! * **probe** ([`Probe`]) — what to report about the production outcome.
//!
//! The engine compiles any such description onto
//! [`RbNetwork`](defined_core::RbNetwork) /
//! [`LockstepNet`](defined_core::LockstepNet), so *every* scenario gets the
//! full record → replay → interactive-debug cycle for free:
//! [`Scenario::record_run`] produces a serialised partial recording,
//! [`Scenario::replay_logs_sharded`] re-executes it in lockstep, and
//! [`Scenario::debug_transcript_sharded`] drives a scripted
//! [`DebugSession`](defined_core::session::DebugSession) over it. The
//! outcome probe also compiles into a *search predicate*:
//! [`Scenario::explore_run`] sweeps salted orderings on the parallel replay
//! farm for one that changes the outcome, and [`Scenario::bisect_run`]
//! localises the group — and the exact delivery — that established it.
//!
//! A [`registry()`] of named, ready-made scenarios ships with the crate, and
//! the [`scn`] module parses a line-oriented `.scn` text format so
//! scenarios can also live in files:
//!
//! ```text
//! name ring-loss
//! description OSPF ring with a loss window
//! topology ring 5 4ms
//! protocol ospf
//! seed 3
//! jitter 0.5
//! duration 6s
//! fault 1500ms loss 1 2 0.5 until 3s
//! probe ospf-reachable 0
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod engine;
pub mod registry;
pub mod scn;
pub mod spec;
mod stream;

pub use engine::{BisectSummary, ExploreReport, RecordedRun, VerifyReport};
pub use registry::{bgp_fig4_processes, find, ospf_processes, registry, rip_processes};
pub use spec::{ExtSpec, Fault, Injection, Probe, ProtocolSpec, TopologySpec};

use defined_core::config::CapturePolicy;
use netsim::SimDuration;

/// A complete, runnable scenario description.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Registry / CLI name (kebab-case).
    pub name: String,
    /// One-line human description.
    pub description: String,
    /// The network graph.
    pub topology: TopologySpec,
    /// The control plane every node runs.
    pub protocol: ProtocolSpec,
    /// Network-nondeterminism seed (link jitter and loss draws). Sweepable:
    /// the committed execution must not depend on it.
    pub seed: u64,
    /// Uniform per-packet jitter as a fraction of each link's base delay.
    pub jitter_frac: f64,
    /// How long the production run lasts.
    pub duration: SimDuration,
    /// Timed external-event injections.
    pub workload: Vec<Injection>,
    /// The fault schedule.
    pub faults: Vec<Fault>,
    /// Outcome probe evaluated after the production run.
    pub probe: Probe,
    /// Checkpoint-capture policy for every run of this scenario (fixed
    /// interval or churn-adaptive). Like `seed`, sweepable: the committed
    /// execution must not depend on it.
    pub capture: CapturePolicy,
}

impl Scenario {
    /// Returns the scenario with its run seed replaced — the CLI's
    /// `--seed` override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the scenario with its checkpoint-capture policy replaced —
    /// the CLI's `--ckpt-interval` override.
    pub fn with_capture(mut self, capture: CapturePolicy) -> Self {
        self.capture = capture;
        self
    }

    /// Whether the fault schedule restarts a node. Restarts lose the
    /// pre-crash committed log, so production ↔ replay equivalence is not
    /// guaranteed past one (DESIGN.md §7); repeated *debug* runs of one
    /// recording remain deterministic regardless.
    pub fn has_restart(&self) -> bool {
        self.faults.iter().any(|f| matches!(f, Fault::NodeUp { .. }))
    }
}

/// Why a scenario was rejected or failed to run.
#[derive(Debug)]
pub enum ScenarioError {
    /// The description is inconsistent (bad node id, protocol/topology
    /// mismatch, malformed fault, …).
    Invalid(String),
    /// A `.scn` line failed to parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// The recording bytes do not decode under this scenario's protocol.
    BadRecording,
    /// An on-disk recording store failed to open, verify, or write — the
    /// inner error names the offset and the kind of corruption or I/O
    /// failure (DESIGN.md §12).
    Store(defined_store::StoreError),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Invalid(msg) => write!(f, "invalid scenario: {msg}"),
            ScenarioError::Parse { line, msg } => write!(f, "scn parse error (line {line}): {msg}"),
            ScenarioError::BadRecording => write!(f, "recording does not match the scenario"),
            ScenarioError::Store(e) => write!(f, "recording store: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<defined_store::StoreError> for ScenarioError {
    fn from(e: defined_store::StoreError) -> Self {
        ScenarioError::Store(e)
    }
}
