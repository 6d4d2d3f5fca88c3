//! Umbrella crate for the DEFINED reproduction.
//!
//! DEFINED (Lin et al., USENIX ATC 2013) provides deterministic execution
//! for interactive control-plane debugging: a production network is
//! instrumented so that message orderings and timer firings become
//! deterministic (DEFINED-RB), a partial recording of external events is
//! taken, and a lockstep debugging network (DEFINED-LS) reproduces the
//! execution exactly for interactive stepping.
//!
//! This crate re-exports the workspace:
//!
//! * [`netsim`] — deterministic discrete-event network simulator;
//! * [`topology`] — graphs, ISP-like topologies, trace synthesis;
//! * [`routing`] — OSPF-, BGP-, and RIP-like control planes (with the
//!   paper's case-study bugs behind toggles);
//! * [`checkpoint`] — snapshot strategies with page-level accounting;
//! * [`core`] — the DEFINED-RB and DEFINED-LS engines, the recorder, the
//!   debugger, and the replay farm;
//! * [`store`] — the append-only, crash-safe on-disk recording store with
//!   torn-tail recovery and fault-injectable I/O (DESIGN.md §12);
//! * [`scenario`] — the declarative scenario & fault-injection engine and
//!   its registry of named workloads;
//! * [`obs`] — the determinism-safe tracing & metrics substrate the whole
//!   stack records into (DESIGN.md §11).
//!
//! See `examples/quickstart.rs` for the end-to-end flow.

#![warn(missing_docs)]

pub use checkpoint;
pub use defined_core as core;
pub use defined_obs as obs;
pub use defined_store as store;
pub use netsim;
pub use routing;
pub use scenario;
pub use topology;
