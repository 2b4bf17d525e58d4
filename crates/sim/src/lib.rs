//! # ruo-sim — a deterministic asynchronous shared-memory simulator
//!
//! This crate is the substrate on which the PODC 2014 paper
//! *"Complexity Tradeoffs for Read and Update Operations"* (Hendler &
//! Khait) is reproduced. The paper's model is the standard asynchronous
//! shared-memory model: `N` processes communicate by applying `read`,
//! `write` and `CAS` primitives to shared *base objects*; a *step* is one
//! shared-memory event; an adversarial *scheduler* decides which enabled
//! process moves next.
//!
//! The simulator provides exactly that model:
//!
//! * [`Memory`] — a collection of base objects (single-word cells) that
//!   supports the three primitives and records every event in an
//!   [`EventLog`].
//! * [`Machine`] — an operation expressed as a step machine built from
//!   continuation combinators ([`read`], [`write()`], [`cas`], [`done`]),
//!   or from an `async` body whose accesses are [`Access`] futures
//!   ([`body`]), so algorithms read like straight-line pseudo-code while
//!   still exposing one shared-memory event at a time to the scheduler.
//! * [`Scheduler`] implementations — round-robin, seeded-random, and solo
//!   (obstruction-free) schedules — plus an [`Executor`] that runs whole
//!   workloads and records invocation/response [`History`]s.
//! * Linearizability checking ([`lin`]) — an exact search for small
//!   histories and specialized sound checkers for the paper's three
//!   object families (max registers, counters, single-writer snapshots).
//!
//! Step counts measured here are *exactly* the complexity measure used by
//! the paper, which is the point of simulating instead of timing.
//!
//! ```
//! use ruo_sim::{Memory, Machine, read, write, done, Word};
//!
//! // A two-step operation: read cell, then write incremented value back.
//! let mut mem = Memory::new();
//! let cell = mem.alloc(41);
//! let pid = ruo_sim::ProcessId(0);
//! let mut op = Machine::new(read(cell, move |v| write(cell, v + 1, move || done(v + 1))));
//! while !op.is_done() {
//!     let prim = op.enabled().expect("machine still running");
//!     let resp = mem.apply(pid, prim);
//!     op.feed(resp);
//! }
//! assert_eq!(op.result(), Some(42));
//! assert_eq!(mem.peek(cell), 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod event;
mod exec;
mod ids;
mod machine;
mod mem;
mod rng;
mod sched;

pub mod explore;
pub mod fault;
pub mod history;
pub mod lin;
pub mod recorder;
pub mod spec;
pub mod stepcount;

pub use event::{Event, EventLog, Prim};
pub use exec::{ExecOutcome, Executor, OpSpec, WorkloadBuilder};
pub use fault::{Fault, FaultClock, FaultPlan};
pub use history::{History, OpDesc, OpOutput, OpRecord, StripPendingError};
pub use ids::{ObjId, ProcessId};
pub use machine::{
    access, body, cas, done, read, run_solo, write, Access, BoxedStep, Machine, Step,
};
pub use mem::Memory;
pub use rng::SplitMix64;
pub use sched::{RandomScheduler, RoundRobin, Scheduler, ScriptedScheduler, Solo};

/// The value stored in a base object.
///
/// The paper's model does not bound register width, but every algorithm
/// reproduced here fits its per-object state in one signed 64-bit word.
/// Negative values are reserved for sentinels such as
/// [`NEG_INF`] (the `-∞` initial value of Algorithm A's
/// tree nodes).
pub type Word = i64;

/// The `-∞` sentinel used as the initial value of max-register tree nodes.
pub const NEG_INF: Word = i64::MIN;
