//! Corollary 1's reduction: a counter from a single-writer snapshot.
//!
//! "To perform a `CounterIncrement`, process `pᵢ` increments the value
//! of the `i`-th component by performing a single `Update` operation. To
//! read the counter, a process performs a single `Scan` operation and
//! returns the sum of all components." — Section 3.
//!
//! Both faces run the double-collect snapshot's bodies: an increment is
//! one `Update` of the caller's own segment (a read and a write; the
//! segment is single-writer), a read one `Scan`, summed. This is how the
//! snapshot lower bound is transported to counters: `O(1)` increments
//! bought with linear reads, the f-array's opposite end of Theorem 1's
//! tradeoff.

use std::sync::Arc;

use ruo_sim::{Machine, Memory, ObjId, ProcessId, Word};

use crate::cells::{real_cells, run, Cells, Real, Words};
use crate::counter::sim::SimCounter;
use crate::snapshot::double_collect::{double_collect, update};
use crate::traits::Counter;

/// `CounterIncrement` of `pid`: one `Update` of its own segment.
async fn increment<C: Cells + ?Sized>(cells: &C, pid: ProcessId) {
    update(cells, pid.index(), |count| count + 1).await;
}

/// `CounterRead`: one double-collect `Scan`, summed.
async fn read<C: Cells + ?Sized>(cells: &C, n: usize) -> u64 {
    let view = double_collect(cells, n, usize::MAX).await;
    view.expect("an unbounded scan returns").iter().sum()
}

/// Corollary 1's counter: 2-step increments, `2N`-step reads solo,
/// obstruction-free.
///
/// ```
/// use ruo_core::reduction::SnapshotCounter;
/// use ruo_core::Counter;
/// use ruo_sim::ProcessId;
///
/// let counter = SnapshotCounter::new(4);
/// counter.increment(ProcessId(0));
/// counter.increment(ProcessId(2));
/// assert_eq!(counter.read(), 2);
/// ```
#[derive(Debug)]
pub struct SnapshotCounter {
    /// Per-process segments packing `(seq << 32) | count`.
    segments: Box<Words>,
}

impl SnapshotCounter {
    /// A counter at zero for `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "at least one segment required");
        SnapshotCounter {
            segments: real_cells(n, 0),
        }
    }
}

impl Counter for SnapshotCounter {
    fn increment(&self, pid: ProcessId) {
        run(increment(&Real::new(&*self.segments), pid));
    }

    fn read(&self) -> u64 {
        run(read(&Real::new(&*self.segments), self.segments.len()))
    }
}

/// Corollary 1's counter as step machines, on the same bodies.
#[derive(Debug)]
pub struct SimSnapshotCounter {
    /// Per-process segments packing `(seq << 32) | count`.
    pub(crate) segments: Arc<[ObjId]>,
}

impl SimSnapshotCounter {
    /// Allocates `n` zeroed segments in `mem`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(mem: &mut Memory, n: usize) -> Self {
        assert!(n >= 1, "at least one segment required");
        SimSnapshotCounter {
            segments: mem.alloc_n(n, 0).into(),
        }
    }
}

impl SimCounter for SimSnapshotCounter {
    fn n(&self) -> usize {
        self.segments.len()
    }

    fn increment(&self, pid: ProcessId) -> Machine {
        let segments = Arc::clone(&self.segments);
        Machine::new(async move {
            increment(&*segments, pid).await;
            0
        })
    }

    fn read(&self, _pid: ProcessId) -> Machine {
        let segments = Arc::clone(&self.segments);
        Machine::new(async move { read(&*segments, segments.len()).await as Word })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::counted;
    use ruo_sim::stepcount::OpCounts;

    #[test]
    fn counts_via_double_collect() {
        let c = SnapshotCounter::new(3);
        for i in 0..6usize {
            c.increment(ProcessId(i % 3));
        }
        assert_eq!(c.read(), 6);
        // An increment is one Update: a read and a write of its segment.
        let (_, steps) = counted(|| c.increment(ProcessId(1)));
        let none = OpCounts::new();
        assert_eq!(
            steps,
            OpCounts {
                reads: 1,
                writes: 1,
                ..none
            }
        );
        // A quiet read is one clean double collect.
        let (v, steps) = counted(|| c.read());
        assert_eq!((v, steps), (7, OpCounts { reads: 6, ..none }));
    }

    #[test]
    fn concurrent_reduction_counts_exactly() {
        let n = 4;
        let per = 200u64;
        let c = Arc::new(SnapshotCounter::new(n));
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
}
