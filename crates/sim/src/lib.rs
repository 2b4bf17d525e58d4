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
//!   supports the three primitives: each step returns its [`Event`], and
//!   the code that reads an execution keeps the events in an
//!   [`EventLog`].
//! * [`Machine`] — an operation as a step machine: an `async` body whose
//!   shared-memory accesses are [`Access`] futures, boxed once, or a
//!   single access that needs no body ([`Machine::single`]). Algorithms
//!   read like straight-line pseudo-code while still exposing one
//!   shared-memory event at a time to the scheduler. With no scheduler,
//!   [`run_solo`] runs a body to its end in one poll and takes the same
//!   steps.
//! * [`Scheduler`] implementations — round-robin, seeded-random, and solo
//!   (obstruction-free) schedules — plus an [`Executor`] that runs whole
//!   workloads and records invocation/response [`History`]s.
//! * Linearizability checking ([`lin`]) — one complete search over a
//!   chain decomposition of the interval order that decides histories of
//!   any length, for the paper's three object families (max registers,
//!   counters, single-writer snapshots), and a bitmask search for small
//!   histories as its differential oracle.
//!
//! Step counts measured here are *exactly* the complexity measure used by
//! the paper, which is the point of simulating instead of timing.
//!
//! ```
//! use ruo_sim::{access, Machine, Memory, Prim};
//!
//! // A two-step operation: read cell, then write incremented value back.
//! let mut mem = Memory::new();
//! let cell = mem.alloc(41);
//! let pid = ruo_sim::ProcessId(0);
//! let mut op = Machine::new(async move {
//!     let v = access(Prim::Read(cell)).await;
//!     access(Prim::Write(cell, v + 1)).await;
//!     v + 1
//! });
//! while !op.is_done() {
//!     let prim = op.enabled().expect("machine still running");
//!     op.feed(mem.apply(pid, prim).resp);
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
pub use machine::{access, run_solo, run_solo_vector, Access, Machine};
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

#[cfg(test)]
mod tests {
    use super::{run_solo, Machine, Memory, Prim, ProcessId};

    #[test]
    fn run_solo_counts_steps() {
        let mut mem = Memory::new();
        let o = mem.alloc(7);
        let read = Machine::single(Prim::Read(o), |v| v);
        let (v, steps) = run_solo(&mut mem, ProcessId(0), read);
        assert_eq!(v, 7);
        assert_eq!(steps, 1);
    }
}
