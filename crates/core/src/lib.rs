//! # ruo-core — restricted-use concurrent objects
//!
//! From-scratch implementations of the three object families studied in
//! *"Complexity Tradeoffs for Read and Update Operations"* (Hendler &
//! Khait, PODC 2014):
//!
//! * **Max registers** — [`maxreg::TreeMaxRegister`] is the paper's
//!   Algorithm A: wait-free, linearizable, `O(1)`-step `ReadMax` and
//!   `O(min(log N, log v))`-step `WriteMax(v)`, built from `read`/`write`/
//!   `CAS`. [`maxreg::AacMaxRegister`] is the Aspnes–Attiya–Censor
//!   register from reads and writes only (`O(log M)` both operations) —
//!   the prior state of the art the paper improves on for reads.
//! * **Counters** — [`counter::FArrayCounter`] (Jayanti-style `O(1)` read,
//!   `O(log N)` increment, CAS variant), [`counter::AacCounter`]
//!   (read/write only, `O(log N)` read, `O(log N · log M)` increment), and
//!   hardware baselines.
//! * **Snapshots** — [`snapshot::DoubleCollectSnapshot`] (obstruction-free),
//!   [`snapshot::AfekSnapshot`] (wait-free with helping), and
//!   [`snapshot::PathCopySnapshot`] (restricted-use, one read pins a
//!   consistent view).
//!
//! Every object has two faces: a real concurrent implementation on
//! `std::sync::atomic` (this crate's public structs), and a step machine
//! against the [`ruo_sim`] simulator (the `Sim*` structs), used for
//! exact step counting, the explorer and the mechanized lower-bound
//! constructions in `ruo-lowerbound`. Where the faces take the same
//! steps the algorithm is **one body, two backends**: an `async` body
//! over [`cells::Cells`], polled once on real cells and stepped one
//! access at a time on simulator cells. The f-array
//! ([`farray::FArray`]) and its counter and max register, Algorithm A's
//! real climb, the sharded, approximate and snapshot counters, the
//! three snapshots, the CAS cell, and the AAC register and counter are
//! written that way, with no pointer and no `unsafe`.
//!
//! The one simulator face still written apart from the real code is
//! Algorithm A's: its always-double-CAS climb pins the benchmark's W5
//! scope.
//!
//! ## Quick start
//!
//! ```
//! use ruo_core::maxreg::TreeMaxRegister;
//! use ruo_core::MaxRegister;
//! use ruo_sim::ProcessId;
//!
//! let reg = TreeMaxRegister::new(4); // shared by 4 processes
//! reg.write_max(ProcessId(0), 17);
//! reg.write_max(ProcessId(1), 9);
//! assert_eq!(reg.read_max(), 17);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod accuracy;
pub mod b1tree;
pub mod cells;
pub mod counter;
pub mod farray;
pub mod maxreg;
pub mod pad;
pub mod reduction;
pub mod shape;
pub mod snapshot;
mod traits;
pub mod value;

pub use traits::{Counter, MaxRegister, Snapshot};
