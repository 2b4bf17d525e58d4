//! Counter implementations.
//!
//! | Implementation | Primitives | `CounterRead` | `CounterIncrement` | Progress |
//! |---|---|---|---|---|
//! | [`FArrayCounter`] (Jayanti-style, CAS variant) | read/write/CAS | `O(1)` | `O(log N)` | wait-free |
//! | [`ShardedCounter`] (per-process stripes) | read/write | `O(N)` | `O(1)` | wait-free |
//! | [`AacCounter`] | read/write | `O(log M)` | `O(log N · log M)` | wait-free, restricted use |
//! | [`FetchAddCounter`] | fetch-and-add | `O(1)` | `O(1)` | wait-free (stronger primitive) |
//! | [`ApproxCounter`] (k-accurate, HKM) | read/write | `O(N)`, within factor `k` | `O(1)`, publishes `O(log_k c)` times | wait-free |
//!
//! Theorem 1 of the paper says these tradeoffs are inherent for
//! read/write/CAS: reads in `O(f(N))` force increments to
//! `Ω(log(N / f(N)))`. The f-array counter sits at one end
//! (`f(N) = 1`, increments `Θ(log N)`), the AAC counter near the other
//! (`f(N) = Θ(log N)` for polynomially many increments); the fetch-add
//! baseline escapes the tradeoff only by using a stronger primitive than
//! the model allows. The f-array and sharded counters are the two
//! wait-free endpoints built on one per-process layout: per-increment
//! propagation (`O(1)` reads) or pure stripes (`O(1)` increments). A
//! caller picks one by type, or by registry id (`counter/farray`,
//! `counter/sharded`).

mod aac;
mod approx;
mod farray;
mod fetch_add;
mod sharded;
pub mod sim;

pub use aac::AacCounter;
pub use approx::{ApproxCounter, SimApproxCounter};
pub use farray::FArrayCounter;
pub use fetch_add::FetchAddCounter;
pub use sharded::ShardedCounter;
