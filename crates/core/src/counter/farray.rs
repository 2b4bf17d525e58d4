//! The f-array counter (Jayanti, PODC 2002), CAS variant.
//!
//! A complete binary tree with one leaf per process. Leaf `i` holds the
//! number of increments by process `i` (single-writer); every internal
//! node holds the sum of its children. `CounterIncrement` bumps the
//! caller's leaf and propagates sums to the root with the f-array's
//! double-CAS climb, the body Algorithm A's `Propagate` runs too;
//! `CounterRead` reads the root — one step. Both faces wrap the
//! f-array's ([`FArray<Sum>`], [`SimFArray<Sum>`]), so they take the
//! same steps.
//!
//! Jayanti's original construction uses LL/SC; the paper notes it "can
//! be made to work also using CAS", which is what this module does. The
//! usual CAS hazard (ABA) is absent because node values — sums of
//! monotonically growing leaves — never decrease.
//!
//! Together with Theorem 1 this counter is *optimal at the read end* of
//! the tradeoff curve: `f(N) = O(1)` forces increments to `Ω(log N)`,
//! and it achieves `O(log N)`.

use std::fmt;

use ruo_sim::{Machine, Memory, ProcessId, Word};

use super::sim::SimCounter;
use crate::farray::{FArray, SimFArray, Sum};
use crate::traits::Counter;

/// Wait-free counter with `O(1)` reads and `O(log N)` increments from
/// read/write/CAS: an [`FArray<Sum>`] whose slot `i` counts process
/// `i`'s increments.
///
/// ```
/// use ruo_core::counter::FArrayCounter;
/// use ruo_core::Counter;
/// use ruo_sim::ProcessId;
///
/// let counter = FArrayCounter::new(4);
/// counter.increment(ProcessId(0));
/// counter.increment(ProcessId(3));
/// assert_eq!(counter.read(), 2);
/// ```
pub struct FArrayCounter {
    fa: FArray<Sum>,
}

impl fmt::Debug for FArrayCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FArrayCounter")
            .field("n", &self.n())
            .field("count", &self.read())
            .finish()
    }
}

impl FArrayCounter {
    /// Creates a counter shared by `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "at least one process required");
        FArrayCounter { fa: FArray::new(n) }
    }

    /// Number of processes sharing the counter.
    pub fn n(&self) -> usize {
        self.fa.n()
    }

    /// Adds `k` to the counter in **one** leaf-to-root propagation:
    /// bumps the caller's leaf by `k` and runs the double-CAS climb
    /// once, so a batch of `k` pending increments costs the same
    /// `O(log N)` shared-memory steps as a single increment.
    ///
    /// This is the aggregation primitive behind
    /// [`CombiningCounter`](crate::counter::CombiningCounter): the
    /// combiner drains its publication array and applies the whole batch
    /// through this method. `add(pid, 0)` is a no-op (no leaf access, no
    /// propagation) so callers need not special-case empty batches.
    pub fn add(&self, pid: ProcessId, k: u64) {
        if k > 0 {
            self.fa.merge(pid, k as Word);
        }
    }
}

impl Counter for FArrayCounter {
    fn increment(&self, pid: ProcessId) {
        self.add(pid, 1);
    }

    fn read(&self) -> u64 {
        self.fa.read() as u64
    }
}

/// The f-array counter as step machines, on the same merge and climb
/// bodies: `CounterRead` is exactly one step, `CounterIncrement` is
/// `2 + 4·⌈log₂ N⌉` solo.
#[derive(Debug)]
pub struct SimFArrayCounter {
    fa: SimFArray<Sum>,
}

impl SimFArrayCounter {
    /// Allocates the tree's cells (all `0`) in `mem` for `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(mem: &mut Memory, n: usize) -> Self {
        SimFArrayCounter {
            fa: SimFArray::new(mem, n),
        }
    }
}

impl SimCounter for SimFArrayCounter {
    fn n(&self) -> usize {
        self.fa.n()
    }

    fn increment(&self, pid: ProcessId) -> Machine {
        self.fa.merge(pid, 1)
    }

    fn read(&self, _pid: ProcessId) -> Machine {
        self.fa.read()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    #[test]
    fn fresh_counter_reads_zero() {
        assert_eq!(FArrayCounter::new(4).read(), 0);
    }

    #[test]
    fn sequential_increments_count() {
        let c = FArrayCounter::new(3);
        for i in 0..9usize {
            c.increment(ProcessId(i % 3));
            assert_eq!(c.read(), i as u64 + 1);
        }
    }

    #[test]
    fn add_applies_a_whole_batch_in_one_propagation() {
        let c = FArrayCounter::new(4);
        c.add(ProcessId(0), 0); // empty batch is a no-op
        assert_eq!(c.read(), 0);
        c.add(ProcessId(1), 57);
        assert_eq!(c.read(), 57);
        c.add(ProcessId(1), 3);
        c.increment(ProcessId(2));
        assert_eq!(c.read(), 61);
    }

    #[test]
    fn concurrent_batched_adds_are_all_counted() {
        let n = 4;
        let c = Arc::new(FArrayCounter::new(n));
        std::thread::scope(|s| {
            for i in 0..n {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for k in 1..=100u64 {
                        c.add(ProcessId(i), k);
                    }
                });
            }
        });
        assert_eq!(c.read(), n as u64 * 5050);
    }

    #[test]
    fn single_process_counter_works() {
        let c = FArrayCounter::new(1);
        c.increment(ProcessId(0));
        c.increment(ProcessId(0));
        assert_eq!(c.read(), 2);
    }

    #[test]
    fn concurrent_increments_are_all_counted() {
        let n = 8;
        let per = 1000u64;
        let c = Arc::new(FArrayCounter::new(n));
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..per {
                        c.increment(ProcessId(i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.read(), n as u64 * per);
    }

    #[test]
    fn reads_are_monotone_under_concurrency() {
        let c = Arc::new(FArrayCounter::new(4));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let reader = {
            let c = Arc::clone(&c);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut last = 0;
                while !stop.load(Ordering::Relaxed) {
                    let v = c.read();
                    assert!(v >= last, "count regressed from {last} to {v}");
                    last = v;
                }
            })
        };
        let writers: Vec<_> = (0..4usize)
            .map(|i| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..2000 {
                        c.increment(ProcessId(i));
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        reader.join().unwrap();
        assert_eq!(c.read(), 8000);
    }

    #[test]
    fn read_never_overshoots_completed_increments() {
        // A read concurrent with increments must stay within
        // [completed, invoked]; after everything joins, exact.
        let c = Arc::new(FArrayCounter::new(2));
        let w = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                for _ in 0..5000 {
                    c.increment(ProcessId(1));
                }
            })
        };
        let mut last = 0;
        loop {
            let v = c.read();
            assert!(v <= 5000);
            assert!(v >= last);
            last = v;
            if v == 5000 {
                break;
            }
        }
        w.join().unwrap();
    }
}
