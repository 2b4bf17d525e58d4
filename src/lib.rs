//! # ruo — restricted-use objects with read/update complexity tradeoffs
//!
//! Facade crate re-exporting the whole workspace. See the README for an
//! overview and `DESIGN.md` for the mapping to the PODC 2014 paper
//! *"Complexity Tradeoffs for Read and Update Operations"* (Hendler &
//! Khait).
//!
//! * [`core`] — the concurrent objects: max registers (Algorithm A, AAC),
//!   counters and single-writer snapshots, each with a real-atomics
//!   implementation and a simulator step-machine implementation.
//! * [`sim`] — the deterministic shared-memory simulator (base objects,
//!   schedulers, exact step counting, linearizability checking).
//! * [`lowerbound`] — the mechanized lower-bound constructions
//!   (information flow, the Lemma 1 adversary, essential sets).
//! * [`metrics`] — a practical metrics toolkit (watermarks, progress
//!   gauges, histograms) built on the objects above.
//! * [`scenario`] — the declarative scenario engine: an object registry
//!   covering both faces of every implementation, JSON scenario specs,
//!   and one driver each for threads, the simulator and the explorer.
//! * [`serve`] — the fault-tolerant service layer: a std-TCP server over
//!   the registry objects with chaos injection, deadlines/retries/
//!   backoff, graceful degradation, and a post-run linearizability
//!   audit.

#![forbid(unsafe_code)]

pub use ruo_core as core;
pub use ruo_lowerbound as lowerbound;
pub use ruo_metrics as metrics;
pub use ruo_scenario as scenario;
pub use ruo_serve as serve;
pub use ruo_sim as sim;
