//! Deterministic discrete-event network simulator.
//!
//! `netsim` is the event pump under the DEFINED reproduction. The paper
//! evaluated on Emulab with real routing daemons; here, a discrete-event
//! simulation provides the same degrees of freedom DEFINED cares about —
//! message orderings, delays, jitter, losses, and failures — while staying
//! fully reproducible from a seed. It keeps no record of its own: DEFINED's
//! partial recording is built from what the processes logged plus the
//! payloads of dropped packets ([`Simulator::set_collect_drop_payloads`]).
//!
//! The central abstractions are:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual wall clock.
//! * [`DetRng`] — a self-contained splitmix64/xoshiro256++ generator so that
//!   determinism never depends on an external crate's algorithm choices.
//! * [`Process`] — the state machine a node runs (a routing daemon, or the
//!   DEFINED shim wrapping one).
//! * [`Simulator`] — the event loop: links with delay/jitter/loss, timers,
//!   failure injection, and per-node metrics.
//!
//! Nondeterminism enters *only* through the network RNG seed (link jitter and
//! loss draws). Per-node process RNGs are seeded by node id, modelling the
//! paper's assumption (§2.5) that single-node internal nondeterminism has
//! already been removed.
//!
//! # Examples
//!
//! ```
//! use netsim::{LinkParams, Process, ProcessCtx, NodeId, SimBuilder, SimDuration};
//!
//! #[derive(Clone, Debug)]
//! struct Ping;
//!
//! #[derive(Default)]
//! struct Echo {
//!     got: usize,
//! }
//!
//! impl Process for Echo {
//!     type Msg = Ping;
//!     type Ext = ();
//!     fn on_start(&mut self, ctx: &mut ProcessCtx<'_, Ping>) {
//!         if ctx.id() == NodeId(0) {
//!             ctx.send(NodeId(1), Ping);
//!         }
//!     }
//!     fn on_message(&mut self, _ctx: &mut ProcessCtx<'_, Ping>, _from: NodeId, _msg: Ping) {
//!         self.got += 1;
//!     }
//! }
//!
//! let mut sim = SimBuilder::new(2)
//!     .link(NodeId(0), NodeId(1), LinkParams::with_delay(SimDuration::from_millis(5)))
//!     .build(7, |_| Echo::default());
//! sim.run_until(netsim::SimTime::from_millis(100));
//! assert_eq!(sim.process(NodeId(1)).got, 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod event;
mod link;
mod metrics;
mod process;
mod rng;
mod sim;
mod time;

pub use event::QueueStats;
pub use link::{JitterModel, LinkKey, LinkParams, LossModel};
pub use metrics::{Metrics, NodeMetrics};
pub use process::{NodeId, Process, ProcessCtx, TimerId, TimerKey};
pub use rng::DetRng;
pub use sim::{SimBuilder, Simulator};
pub use time::{SimDuration, SimTime};
