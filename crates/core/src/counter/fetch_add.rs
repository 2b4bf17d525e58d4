//! Hardware fetch-and-add counter — the out-of-model baseline.
//!
//! `fetch_add` is a stronger primitive than the paper's read/write/CAS
//! model allows, which is exactly why this counter escapes Theorem 1's
//! tradeoff (`O(1)` read *and* `O(1)` increment). It anchors the
//! benchmarks: the gap between this and [`super::FArrayCounter`] is the
//! cost of staying within the model.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use ruo_sim::stepcount::Tally;
use ruo_sim::ProcessId;

use crate::pad::CachePadded;
use crate::traits::Counter;

/// `O(1)`/`O(1)` counter using the hardware fetch-and-add primitive.
///
/// ```
/// use ruo_core::counter::FetchAddCounter;
/// use ruo_core::Counter;
/// use ruo_sim::ProcessId;
///
/// let counter = FetchAddCounter::new();
/// counter.increment(ProcessId(0));
/// assert_eq!(counter.read(), 1);
/// ```
#[derive(Default)]
pub struct FetchAddCounter {
    /// Padded so the counter never false-shares with neighbouring
    /// allocations in the embedding structure.
    cell: CachePadded<AtomicU64>,
}

impl fmt::Debug for FetchAddCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FetchAddCounter")
            .field("count", &self.read())
            .finish()
    }
}

impl FetchAddCounter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Counter for FetchAddCounter {
    fn increment(&self, _pid: ProcessId) {
        // Relaxed: the RMW still participates in the cell's total
        // modification order, which alone linearizes increments; the
        // counter publishes nothing but its own value (DESIGN.md
        // § Memory orderings). The RMW counts as a successful CAS.
        Tally::start().cas(true);
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    fn read(&self) -> u64 {
        // Acquire: reads linearize at the load and see every increment
        // that happens-before them.
        Tally::start().read();
        self.cell.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::counted;
    use ruo_sim::stepcount::OpCounts;
    use std::sync::Arc;

    #[test]
    fn increment_and_read_tallies_are_pinned() {
        let c = FetchAddCounter::new();
        let (_, increment) = counted(|| c.increment(ProcessId(0)));
        let (v, read) = counted(|| c.read());
        assert_eq!(v, 1);
        let none = OpCounts::new();
        assert_eq!(increment, OpCounts { cas_ok: 1, ..none });
        assert_eq!(read, OpCounts { reads: 1, ..none });
    }

    #[test]
    fn counts_increments() {
        let c = FetchAddCounter::new();
        assert_eq!(c.read(), 0);
        c.increment(ProcessId(0));
        c.increment(ProcessId(1));
        assert_eq!(c.read(), 2);
    }

    #[test]
    fn concurrent_increments_are_exact() {
        let c = Arc::new(FetchAddCounter::new());
        let handles: Vec<_> = (0..8usize)
            .map(|i| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.increment(ProcessId(i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.read(), 80_000);
    }
}
