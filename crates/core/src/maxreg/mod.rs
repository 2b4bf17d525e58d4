//! Max-register implementations.
//!
//! | Implementation | Primitives | `ReadMax` | `WriteMax(v)` | Progress |
//! |---|---|---|---|---|
//! | [`TreeMaxRegister`] (Algorithm A) | read/write/CAS | `O(1)` | `O(min(log N, log v))` | wait-free |
//! | [`AacMaxRegister`] | read/write | `O(log M)` | `O(log M)` | wait-free, `M`-bounded |
//! | [`FArrayMaxRegister`] (Jayanti) | read/write/CAS | `O(1)` | `O(log N)` | wait-free |
//! | [`CasRetryMaxRegister`] | read/CAS | `O(1)` | `O(1)` uncontended | lock-free |
//! | [`ApproxMaxRegister`] (k-accurate, HKM) | read/CAS | `O(1)`, within factor `k` | `O(1)` dominated | lock-free |
//! | [`LockMaxRegister`] | mutex | — | — | blocking baseline |
//!
//! All but the mutex also exist as simulator step machines ([`sim`]),
//! where their step counts can be measured exactly and the lower-bound
//! adversaries of `ruo-lowerbound` can be run against them.

pub mod aac;
mod approx;
mod cas_retry;
mod farray;
mod lock;
pub mod sim;
mod tree;

pub use aac::{AacMaxRegister, AacShape, CapacityError};
pub use approx::{ApproxMaxRegister, SimApproxMaxRegister};
pub use cas_retry::CasRetryMaxRegister;
pub use farray::FArrayMaxRegister;
pub use lock::LockMaxRegister;
pub use tree::{check_tree_size, TreeMaxRegister, TreeSizeError, MAX_PROCESSES};
