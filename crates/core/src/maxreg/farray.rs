//! The f-array max register (Jayanti, PODC 2002) — the construction the
//! paper credits for `O(1)`-read counters/snapshots and contrasts with
//! Algorithm A.
//!
//! One single-writer slot per process holding that process's largest
//! written value; the tree aggregates with `max`. `ReadMax` is one root
//! load; `WriteMax(v)` is a slot update plus `O(log N)` double-CAS
//! propagation — **always** `O(log N)`, with no Bentley–Yao shortcut
//! for small values. That missing shortcut is precisely what Algorithm
//! A's B1 subtree adds: compare `FArrayMaxRegister` (write cost flat in
//! `v`) against [`super::TreeMaxRegister`] (write cost `O(min(log N,
//! log v))`) in the benches.
//!
//! Both faces are thin wrappers of the f-array's two faces
//! ([`FArray<Max>`], [`SimFArray<Max>`]), so they take the same steps.

use std::fmt;

use ruo_sim::{done, read, Machine, Memory, ProcessId, Word};

use super::sim::SimMaxRegister;
use crate::farray::{FArray, Max, SimFArray};
use crate::traits::MaxRegister;
use crate::value::{from_word, to_word};

/// Jayanti-style max register: `O(1)` `ReadMax`, `O(log N)` `WriteMax`
/// (regardless of the value), wait-free, from read/write/CAS.
///
/// ```
/// use ruo_core::maxreg::FArrayMaxRegister;
/// use ruo_core::MaxRegister;
/// use ruo_sim::ProcessId;
///
/// let reg = FArrayMaxRegister::new(4);
/// reg.write_max(ProcessId(0), 9);
/// reg.write_max(ProcessId(3), 4);
/// assert_eq!(reg.read_max(), 9);
/// ```
pub struct FArrayMaxRegister {
    fa: FArray<Max>,
}

impl fmt::Debug for FArrayMaxRegister {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FArrayMaxRegister")
            .field("value", &self.read_max())
            .finish()
    }
}

impl FArrayMaxRegister {
    /// Creates a register shared by `n` processes; reads `0` until
    /// written.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        FArrayMaxRegister {
            fa: FArray::<Max>::new(n),
        }
    }

    /// Number of processes sharing the register.
    pub fn n(&self) -> usize {
        self.fa.n()
    }
}

impl MaxRegister for FArrayMaxRegister {
    fn write_max(&self, pid: ProcessId, v: u64) {
        // A `Max` merge keeps the slot monotone; a write the slot
        // already covers ends after the slot read (single-writer slot:
        // our own earlier completed write has propagated).
        self.fa.merge(pid, to_word(v));
    }

    fn read_max(&self) -> u64 {
        from_word(self.fa.read())
    }
}

/// The f-array max register as step machines, on the same merge and
/// climb bodies: `O(1)` read, `O(log N)` write *regardless of the
/// value* (no B1 shortcut; compare
/// [`SimTreeMaxRegister`](super::sim::SimTreeMaxRegister)).
#[derive(Debug)]
pub struct SimFArrayMaxRegister {
    fa: SimFArray<Max>,
}

impl SimFArrayMaxRegister {
    /// Allocates the tree's cells (all `-∞`) in `mem` for `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(mem: &mut Memory, n: usize) -> Self {
        SimFArrayMaxRegister {
            fa: SimFArray::new(mem, n),
        }
    }
}

impl SimMaxRegister for SimFArrayMaxRegister {
    fn n(&self) -> usize {
        self.fa.n()
    }

    fn write_max(&self, pid: ProcessId, v: u64) -> Machine {
        self.fa.merge(pid, to_word(v))
    }

    fn read_max(&self, _pid: ProcessId) -> Machine {
        Machine::new(read(self.fa.root_cell(), |w| done(from_word(w) as Word)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fresh_register_reads_zero() {
        assert_eq!(FArrayMaxRegister::new(3).read_max(), 0);
    }

    #[test]
    fn keeps_the_maximum() {
        let reg = FArrayMaxRegister::new(3);
        reg.write_max(ProcessId(0), 5);
        reg.write_max(ProcessId(1), 12);
        reg.write_max(ProcessId(2), 7);
        assert_eq!(reg.read_max(), 12);
    }

    #[test]
    fn dominated_own_write_is_skipped() {
        let reg = FArrayMaxRegister::new(2);
        reg.write_max(ProcessId(0), 9);
        reg.write_max(ProcessId(0), 3); // own slot already covers it
        assert_eq!(reg.read_max(), 9);
    }

    #[test]
    fn concurrent_writers_converge_to_maximum() {
        let n = 8;
        let reg = Arc::new(FArrayMaxRegister::new(n));
        let handles: Vec<_> = (0..n)
            .map(|t| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    for k in 0..1000u64 {
                        let v = k * n as u64 + t as u64;
                        reg.write_max(ProcessId(t), v);
                        assert!(reg.read_max() >= v);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.read_max(), 999 * n as u64 + n as u64 - 1);
    }

    #[test]
    fn reads_are_monotone() {
        let reg = Arc::new(FArrayMaxRegister::new(2));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let reader = {
            let reg = Arc::clone(&reg);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut last = 0;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let v = reg.read_max();
                    assert!(v >= last);
                    last = v;
                }
            })
        };
        for v in 1..=3000 {
            reg.write_max(ProcessId(0), v);
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        reader.join().unwrap();
        assert_eq!(reg.read_max(), 3000);
    }
}
