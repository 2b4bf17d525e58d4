//! Simulator step machines for the counters.
//!
//! The exact step counts measured here feed the Theorem 1 experiment:
//! the Lemma 1 adversary in `ruo-lowerbound` drives these machines one
//! enabled event at a time.
//!
//! The f-array, sharded, approximate and AAC counters derive their
//! machines from the bodies they ship with ([`crate::cells`]) and live
//! beside them. Below are two counters that exist only in the
//! simulator: the CAS loop and Corollary 1's snapshot counter.

use std::sync::Arc;

use ruo_sim::{Machine, Memory, ObjId, Prim, ProcessId, Word};

pub use super::aac::SimAacCounter;
pub use super::farray::SimFArrayCounter;
pub use super::sharded::SimShardedCounter;
use crate::cells::Cells;
use crate::snapshot::double_collect;

/// A counter whose operations are simulator step machines.
pub trait SimCounter: Send + Sync {
    /// Number of processes the counter supports.
    fn n(&self) -> usize;

    /// A `CounterIncrement` by `pid` as a step machine.
    fn increment(&self, pid: ProcessId) -> Machine;

    /// A `CounterRead` as a step machine; the machine's result is the
    /// count.
    fn read(&self, pid: ProcessId) -> Machine;
}

/// The single-cell CAS-loop counter as step machines: both operations
/// `O(1)` solo, increments lock-free only.
#[derive(Debug)]
pub struct SimCasLoopCounter {
    cell: ObjId,
    n: usize,
}

impl SimCasLoopCounter {
    /// Allocates the cell (value `0`) in `mem`.
    pub fn new(mem: &mut Memory, n: usize) -> Self {
        SimCasLoopCounter {
            cell: mem.alloc(0),
            n,
        }
    }
}

/// Adds one to `cells[cell]`: read it and CAS the successor in,
/// retrying from a fresh read when the CAS fails (the textbook loop,
/// which T1's CAS-loop row measures).
async fn cas_loop_increment<C: Cells + ?Sized>(cells: &C, cell: usize) {
    loop {
        let v = cells.load(cell).await;
        if cells.cas(cell, v, v + 1).await == v {
            return;
        }
    }
}

impl SimCounter for SimCasLoopCounter {
    fn n(&self) -> usize {
        self.n
    }

    fn increment(&self, _pid: ProcessId) -> Machine {
        let cell = [self.cell];
        Machine::new(async move {
            cas_loop_increment(&cell[..], 0).await;
            0
        })
    }

    fn read(&self, _pid: ProcessId) -> Machine {
        Machine::single(Prim::Read(self.cell), |w| w)
    }
}

/// Corollary 1's reduction as step machines: a counter whose
/// `CounterIncrement` is a single snapshot `Update` (2 steps — the
/// process knows its own count) and whose `CounterRead` is a
/// double-collect `Scan` summed (`Ω(N)` steps, obstruction-free), on
/// the double-collect snapshot's own bodies.
///
/// This is the *opposite* end of Theorem 1's tradeoff from the f-array:
/// `O(1)` updates bought with linear reads — and the vehicle by which
/// the paper transports the counter lower bound to snapshots.
#[derive(Debug)]
pub struct SimSnapshotCounter {
    /// Per-process segments packing `(seq << 32) | count`.
    segments: Arc<[ObjId]>,
}

impl SimSnapshotCounter {
    /// Allocates `n` zeroed segments in `mem`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(mem: &mut Memory, n: usize) -> Self {
        assert!(n >= 1);
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
        // Single-writer segment: one snapshot Update of our own count.
        let segments = Arc::clone(&self.segments);
        Machine::new(async move {
            double_collect::update(&*segments, pid.index(), |count| count + 1).await;
            0
        })
    }

    fn read(&self, _pid: ProcessId) -> Machine {
        let segments = Arc::clone(&self.segments);
        Machine::new(async move {
            let view = double_collect::double_collect(&*segments, segments.len(), usize::MAX)
                .await
                .expect("an unbounded scan returns");
            view.iter().sum::<u64>() as Word
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruo_sim::run_solo;

    #[test]
    fn farray_read_is_one_step() {
        let mut mem = Memory::new();
        let c = SimFArrayCounter::new(&mut mem, 8);
        let (v, steps) = run_solo(&mut mem, ProcessId(0), c.read(ProcessId(0)));
        assert_eq!(v, 0);
        assert_eq!(steps, 1);
    }

    #[test]
    fn farray_counts_sequential_increments() {
        let mut mem = Memory::new();
        let c = SimFArrayCounter::new(&mut mem, 4);
        for i in 0..8usize {
            run_solo(&mut mem, ProcessId(i % 4), c.increment(ProcessId(i % 4)));
            let (v, _) = run_solo(&mut mem, ProcessId(0), c.read(ProcessId(0)));
            assert_eq!(v, i as Word + 1);
        }
    }

    #[test]
    fn farray_increment_is_logarithmic() {
        for n in [2usize, 8, 64, 256] {
            let mut mem = Memory::new();
            let c = SimFArrayCounter::new(&mut mem, n);
            let (_, steps) = run_solo(&mut mem, ProcessId(0), c.increment(ProcessId(0)));
            let depth = (n as f64).log2().ceil() as usize;
            assert!(
                steps <= 2 + 4 * depth,
                "n={n}: {steps} steps > bound {}",
                2 + 4 * depth
            );
            assert!(steps >= depth, "n={n}: suspiciously few steps {steps}");
        }
    }

    #[test]
    fn aac_counter_counts_sequential_increments() {
        let mut mem = Memory::new();
        let c = SimAacCounter::new(&mut mem, 4, 32);
        for i in 0..8usize {
            run_solo(&mut mem, ProcessId(i % 4), c.increment(ProcessId(i % 4)));
            let (v, _) = run_solo(&mut mem, ProcessId(0), c.read(ProcessId(0)));
            assert_eq!(v, i as Word + 1);
        }
    }

    #[test]
    fn aac_counter_read_is_logarithmic_in_bound() {
        let mut mem = Memory::new();
        let c = SimAacCounter::new(&mut mem, 8, (1 << 10) - 1);
        let (_, steps) = run_solo(&mut mem, ProcessId(0), c.read(ProcessId(0)));
        assert!((10..=11).contains(&steps), "read steps {steps}");
    }

    #[test]
    fn aac_counter_increment_is_log_n_times_log_m() {
        let n = 8usize;
        let m = (1 << 8) - 1;
        let mut mem = Memory::new();
        let c = SimAacCounter::new(&mut mem, n, m);
        let (_, steps) = run_solo(&mut mem, ProcessId(0), c.increment(ProcessId(0)));
        // 3 levels, each ~ two child reads + one WriteMax, all O(log M).
        let bound = 2 + 3 * 3 * 9;
        assert!(steps <= bound, "{steps} > {bound}");
        assert!(steps >= 9, "suspiciously few steps {steps}");
    }

    #[test]
    fn snapshot_counter_counts_and_has_linear_reads() {
        let n = 8;
        let mut mem = Memory::new();
        let c = SimSnapshotCounter::new(&mut mem, n);
        for i in 0..n {
            let (_, steps) = run_solo(&mut mem, ProcessId(i), c.increment(ProcessId(i)));
            assert_eq!(steps, 2, "increment is one snapshot Update");
        }
        let (v, steps) = run_solo(&mut mem, ProcessId(0), c.read(ProcessId(0)));
        assert_eq!(v, n as Word);
        assert_eq!(steps, 2 * n, "solo read is one clean double collect");
    }

    #[test]
    fn snapshot_counter_read_detects_interference() {
        let mut mem = Memory::new();
        let c = SimSnapshotCounter::new(&mut mem, 2);
        let mut rd = c.read(ProcessId(0));
        // First collect (2 reads).
        for _ in 0..2 {
            let p = rd.enabled().unwrap();
            let r = mem.apply(ProcessId(0), p).resp;
            rd.feed(r);
        }
        // Concurrent increment invalidates the collect; the read retries.
        run_solo(&mut mem, ProcessId(1), c.increment(ProcessId(1)));
        let (v, steps) = run_solo(&mut mem, ProcessId(0), rd);
        assert!(steps > 4, "read should have retried");
        assert_eq!(v, 1);
    }

    #[test]
    fn snapshot_counter_same_count_reincrement_is_visible() {
        // The seq half of the word makes every increment visible even
        // when... counts always change here, but the seq also guards
        // against 2^32-wrap aliasing within a collect window.
        let mut mem = Memory::new();
        let c = SimSnapshotCounter::new(&mut mem, 1);
        run_solo(&mut mem, ProcessId(0), c.increment(ProcessId(0)));
        let w1 = mem.peek(c.segments[0]);
        run_solo(&mut mem, ProcessId(0), c.increment(ProcessId(0)));
        let w2 = mem.peek(c.segments[0]);
        assert_ne!(w1, w2);
        assert_ne!((w1 as u64) >> 32, (w2 as u64) >> 32);
    }

    #[test]
    fn sharded_increment_is_constant_and_read_is_linear() {
        let n = 8;
        let mut mem = Memory::new();
        let c = SimShardedCounter::new(&mut mem, n);
        for i in 0..n {
            let (_, steps) = run_solo(&mut mem, ProcessId(i), c.increment(ProcessId(i)));
            assert_eq!(steps, 2, "stripe bump is read + write");
        }
        let (v, steps) = run_solo(&mut mem, ProcessId(0), c.read(ProcessId(0)));
        assert_eq!(v, n as Word);
        assert_eq!(steps, n, "read is a single collect");
    }

    #[test]
    fn sharded_counts_sequential_increments() {
        let mut mem = Memory::new();
        let c = SimShardedCounter::new(&mut mem, 3);
        for i in 0..9usize {
            run_solo(&mut mem, ProcessId(i % 3), c.increment(ProcessId(i % 3)));
            let (v, _) = run_solo(&mut mem, ProcessId(1), c.read(ProcessId(1)));
            assert_eq!(v, i as Word + 1);
        }
    }

    #[test]
    fn cas_loop_counter_counts() {
        let mut mem = Memory::new();
        let c = SimCasLoopCounter::new(&mut mem, 2);
        run_solo(&mut mem, ProcessId(0), c.increment(ProcessId(0)));
        run_solo(&mut mem, ProcessId(1), c.increment(ProcessId(1)));
        let (v, steps) = run_solo(&mut mem, ProcessId(0), c.read(ProcessId(0)));
        assert_eq!(v, 2);
        assert_eq!(steps, 1);
    }

    #[test]
    fn single_process_counters_degenerate_gracefully() {
        let mut mem = Memory::new();
        let f = SimFArrayCounter::new(&mut mem, 1);
        run_solo(&mut mem, ProcessId(0), f.increment(ProcessId(0)));
        let (v, _) = run_solo(&mut mem, ProcessId(0), f.read(ProcessId(0)));
        assert_eq!(v, 1);

        let a = SimAacCounter::new(&mut mem, 1, 4);
        run_solo(&mut mem, ProcessId(0), a.increment(ProcessId(0)));
        let (v, _) = run_solo(&mut mem, ProcessId(0), a.read(ProcessId(0)));
        assert_eq!(v, 1);
    }

    #[test]
    fn interleaved_farray_increments_all_count() {
        let mut mem = Memory::new();
        let n = 4;
        let c = SimFArrayCounter::new(&mut mem, n);
        let mut machines: Vec<Machine> = (0..n).map(|i| c.increment(ProcessId(i))).collect();
        loop {
            let mut progressed = false;
            for (i, m) in machines.iter_mut().enumerate() {
                if let Some(p) = m.enabled() {
                    let r = mem.apply(ProcessId(i), p).resp;
                    m.feed(r);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        let (v, _) = run_solo(&mut mem, ProcessId(0), c.read(ProcessId(0)));
        assert_eq!(v, n as Word);
    }
}
