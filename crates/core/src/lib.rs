//! DEFINED: deterministic execution for interactive control-plane debugging.
//!
//! This crate implements the paper's contribution on top of the workspace
//! substrates ([`netsim`], [`topology`], [`routing`], [`checkpoint`]):
//!
//! * **DEFINED-RB** ([`rb::RbShim`], wired up by [`harness::RbNetwork`]) —
//!   instruments a production network. Each node intercepts message and
//!   timer events, computes a deterministic pseudorandom order over them
//!   (the [`order`] module), delivers speculatively in arrival order, and
//!   rolls back — restoring a checkpoint and *unsending* messages with
//!   anti-messages — whenever arrivals violate the computed order (§2.2).
//! * **Virtual time** — a beacon node floods group-number beacons (one per
//!   250 ms); beacons are themselves ordered events, so the virtual-time
//!   counter and every protocol timer fire deterministically relative to
//!   message deliveries (§3).
//! * **Partial recording** ([`recorder::Recording`]) — only external events
//!   (and observed message losses, per the paper's footnote 4) are logged.
//! * **DEFINED-LS** ([`ls::LockstepNet`]) — replays a recording in lockstep
//!   (transmission/processing phases), applying the *same* ordering
//!   function, which reproduces the production execution exactly
//!   (Theorem 1). Its waves can execute across worker shards
//!   ([`shard::ShardedWaves`]) — real threads, identical commits.
//! * **One delivery kernel** ([`snapshot::NodeSnapshot::execute`],
//!   [`snapshot::Event`], annotated through [`rb::RbShared`]) — the
//!   per-event rule (run the handler, fire due timers to quiescence, sends
//!   in emit order, payload digest) exists once, and both runtimes above
//!   call it; Theorem 1 is that sentence.
//! * **Interactive debugging** ([`debugger::Debugger`]) — single-event
//!   stepping, state inspection, breakpoints, and in-place patching; a
//!   text-command front-end ([`session::DebugSession`]) for scripts and
//!   REPLs; automated fault localisation ([`bisect`]) and execution-path
//!   exploration ([`explore`]) on top, both running their probes on a
//!   parallel, checkpoint-seeded replay farm ([`farm`]) without changing
//!   their answers.
//! * **GVT & fossil collection** ([`gvt`]) — the Jefferson global-virtual-
//!   time bound behind Theorem 2, as a monitored invariant and as an
//!   alternative commit/GC policy.
//!
//! # Ordering-function refinement
//!
//! The paper orders messages within a group by `(dᵢ, nᵢ, sᵢ)`. For Theorem 1
//! to hold *by construction* against a lockstep replayer, the key here is
//! refined to `(group, chain, class, d, origin, origin_seq, sender, emit,
//! lineage)`: `chain` (causal depth, which equals the lockstep sub-cycle
//! that produces the message) leads, and `sender`/`emit`/`lineage` break
//! residual ties deterministically. `d` remains the dominant intra-chain
//! component, so the optimised ordering still tracks expected arrival times
//! and keeps rollbacks rare, as §2.2 intends. DESIGN.md discusses the
//! refinement.
//!
//! # Examples
//!
//! The full production → recording → debugging cycle:
//!
//! ```
//! use defined_core::ls::first_divergence;
//! use defined_core::{DefinedConfig, LockstepNet, RbNetwork};
//! use netsim::{NodeId, SimDuration, SimTime};
//! use routing::ospf::{OspfConfig, OspfProcess};
//! use topology::canonical;
//!
//! // A 5-node OSPF ring, instrumented with DEFINED-RB, under 50% jitter.
//! let graph = canonical::ring(5, SimDuration::from_millis(4));
//! let mk = OspfProcess::for_graph(&graph, OspfConfig::stress(5));
//! let procs: Vec<OspfProcess> = (0..5).map(|i| mk(NodeId(i))).collect();
//! let spawn = {
//!     let procs = procs.clone();
//!     move |id: NodeId| procs[id.index()].clone()
//! };
//! let mut net = RbNetwork::new(&graph, DefinedConfig::default(), 7, 0.5, spawn);
//! net.schedule_link(SimTime::from_secs(2), NodeId(0), NodeId(1), false);
//! net.run_until(SimTime::from_secs(5));
//!
//! // Extract the partial recording and replay it in lockstep: Theorem 1
//! // says the replay reproduces the production execution exactly.
//! let upto = net.completed_group(2);
//! let (recording, production_logs) = net.into_recording();
//! let mut ls = LockstepNet::new(&graph, DefinedConfig::default(), recording, move |id| {
//!     procs[id.index()].clone()
//! });
//! ls.run_to_end();
//! assert!(first_divergence(&production_logs, ls.logs(), upto).is_none());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bisect;
pub mod config;
pub mod debugger;
pub mod explore;
pub mod farm;
pub mod gvt;
pub mod harness;
pub mod session;
pub mod ls;
pub mod metrics;
pub mod order;
pub mod rb;
pub mod recorder;
pub mod shard;
pub mod snapshot;
pub mod wire;

pub use config::{DefinedConfig, OrderingMode};
pub use farm::{FarmConfig, ProbeSession};
pub use harness::RbNetwork;
pub use ls::LockstepNet;
pub use metrics::RbMetrics;
pub use order::{Annotation, EventClass, MsgId, OrderKey};
pub use rb::{Envelope, RbShim};
pub use recorder::{CommitRecord, ExtRecord, Recording};
pub use shard::{resolve_workers, ShardedWaves};
