//! Sharded (striped) counter: the opposite end of the tradeoff curve.
//!
//! One cache-padded stripe per process — the f-array's leaf layer,
//! *without* the internal sum tree (and padded per stripe, where the
//! f-array's blocked tree shares a line between a leaf and the nodes it
//! climbs through). `CounterIncrement` is a
//! single store into the caller's own stripe (`O(1)`, wait-free, no
//! propagation, no CAS contention); `CounterRead` aggregates by summing
//! every stripe (`O(N)`).
//!
//! In the paper's terms this sits at the far write-optimal end of
//! Theorem 1's curve: updates in `O(1)` force reads to `Ω(N / ...)` —
//! and the stripe collect pays exactly that linear read. The
//! [`FArrayCounter`](crate::counter::FArrayCounter) is the other end on
//! the same leaf layout (`O(1)` read / `O(log N)` increment).
//!
//! # Linearizability
//!
//! Each stripe is single-writer and monotone. A collect reads stripe
//! `i` at some instant, so the returned sum lies between the number of
//! increments *completed before the read started* and the number
//! *invoked before it returned* — a valid linearization point exists.
//! Two non-overlapping reads collect each stripe in real-time order, so
//! later reads never report less (stripes never decrease). Stores and
//! collect loads are `SeqCst`, the same single-total-order discipline
//! the f-array's leaf stores rely on (DESIGN.md § Memory orderings).
//!
//! Both faces run the same two bodies over [`Cells`]: [`ShardedCounter`]
//! on real cells, [`SimShardedCounter`] on simulator cells.

use std::fmt;
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use ruo_sim::{Machine, Memory, ObjId, ProcessId, Word};

use super::sim::SimCounter;
use crate::cells::{real_cells, run, Cells, Real, Words};
use crate::traits::Counter;

/// Adds one to the single-writer stripe `i` — a read of our own last
/// store and a write, no CAS. Returns the new stripe value.
pub(super) async fn bump<C: Cells + ?Sized>(cells: &C, i: usize) -> Word {
    let c = cells.load(i).await + 1;
    cells.store(i, c).await;
    c
}

/// One collect of the cells in `range`, summed.
pub(super) async fn collect_sum<C: Cells + ?Sized>(cells: &C, range: Range<usize>) -> Word {
    let mut sum = 0;
    for i in range {
        sum += cells.load(i).await;
    }
    sum
}

/// Per-process striped counter: `O(1)` wait-free increments, `O(N)`
/// collect-sum reads.
///
/// ```
/// use ruo_core::counter::ShardedCounter;
/// use ruo_core::Counter;
/// use ruo_sim::ProcessId;
///
/// let counter = ShardedCounter::new(4);
/// counter.increment(ProcessId(0));
/// counter.increment(ProcessId(3));
/// assert_eq!(counter.read(), 2);
/// assert_eq!(counter.stripe(3), 1);
/// ```
pub struct ShardedCounter {
    /// One padded cell per process; stripe `i` is written only by
    /// process `i` (see [`crate::pad`] for why each owns a line pair).
    stripes: Box<Words>,
}

impl fmt::Debug for ShardedCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedCounter")
            .field("n", &self.n())
            .field("count", &self.read())
            .finish()
    }
}

impl ShardedCounter {
    /// Creates a counter shared by `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "at least one process required");
        ShardedCounter {
            stripes: real_cells(n, 0),
        }
    }

    /// Number of processes (and stripes).
    pub fn n(&self) -> usize {
        self.stripes.len()
    }

    /// Current value of stripe `i` — the number of increments by process
    /// `i`. Feeds the per-stripe gauges in `ruo-metrics`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    pub fn stripe(&self, i: usize) -> u64 {
        Real::new(&*self.stripes).load_with(i, Ordering::Acquire) as u64
    }

    /// One collect of all stripes, in index order — the raw material of
    /// the metrics-side imbalance gauges.
    pub fn stripe_counts(&self) -> Vec<u64> {
        let stripes = Real::new(&*self.stripes);
        (0..self.n())
            .map(|i| stripes.load_with(i, Ordering::SeqCst) as u64)
            .collect()
    }
}

impl Counter for ShardedCounter {
    fn increment(&self, pid: ProcessId) {
        run(bump(&Real::new(&*self.stripes), pid.index()));
    }

    fn read(&self) -> u64 {
        // One collect; no double-collect needed — monotone single-writer
        // stripes make a single pass linearizable (module docs).
        run(collect_sum(&Real::new(&*self.stripes), 0..self.n())) as u64
    }
}

/// The sharded counter as step machines, on the same bodies:
/// `CounterIncrement` is 2 steps, `CounterRead` is `N`.
#[derive(Debug)]
pub struct SimShardedCounter {
    stripes: Arc<[ObjId]>,
}

impl SimShardedCounter {
    /// Allocates `n` zeroed stripes in `mem`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(mem: &mut Memory, n: usize) -> Self {
        assert!(n >= 1, "at least one process required");
        SimShardedCounter {
            stripes: mem.alloc_n(n, 0).into(),
        }
    }
}

impl SimCounter for SimShardedCounter {
    fn n(&self) -> usize {
        self.stripes.len()
    }

    fn increment(&self, pid: ProcessId) -> Machine {
        let stripes = Arc::clone(&self.stripes);
        Machine::new(async move {
            bump(&*stripes, pid.index()).await;
            0
        })
    }

    fn read(&self, _pid: ProcessId) -> Machine {
        let stripes = Arc::clone(&self.stripes);
        Machine::new(async move { collect_sum(&*stripes, 0..stripes.len()).await })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fresh_counter_reads_zero() {
        assert_eq!(ShardedCounter::new(4).read(), 0);
    }

    #[test]
    fn sequential_increments_count() {
        let c = ShardedCounter::new(3);
        for i in 0..9usize {
            c.increment(ProcessId(i % 3));
            assert_eq!(c.read(), i as u64 + 1);
        }
        assert_eq!(c.stripe_counts(), vec![3, 3, 3]);
    }

    #[test]
    fn single_process_counter_works() {
        let c = ShardedCounter::new(1);
        c.increment(ProcessId(0));
        c.increment(ProcessId(0));
        assert_eq!(c.read(), 2);
        assert_eq!(c.stripe(0), 2);
    }

    #[test]
    fn concurrent_increments_are_all_counted() {
        let n = 8;
        let per = 5000u64;
        let c = Arc::new(ShardedCounter::new(n));
        std::thread::scope(|s| {
            for i in 0..n {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..per {
                        c.increment(ProcessId(i));
                    }
                });
            }
        });
        assert_eq!(c.read(), n as u64 * per);
        assert!(c.stripe_counts().iter().all(|&s| s == per));
    }

    #[test]
    fn reads_are_monotone_under_concurrency() {
        let c = Arc::new(ShardedCounter::new(4));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|s| {
            {
                let c = Arc::clone(&c);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut last = 0;
                    while !stop.load(Ordering::Relaxed) {
                        let v = c.read();
                        assert!(v >= last, "count regressed from {last} to {v}");
                        last = v;
                    }
                });
            }
            let writers: Vec<_> = (0..4usize)
                .map(|i| {
                    let c = Arc::clone(&c);
                    s.spawn(move || {
                        for _ in 0..3000 {
                            c.increment(ProcessId(i));
                        }
                    })
                })
                .collect();
            for w in writers {
                w.join().unwrap();
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(c.read(), 12_000);
    }

    #[test]
    fn read_never_undercounts_completed_increments() {
        let c = Arc::new(ShardedCounter::new(2));
        std::thread::scope(|s| {
            let w = {
                let c = Arc::clone(&c);
                s.spawn(move || {
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
        });
    }
}
