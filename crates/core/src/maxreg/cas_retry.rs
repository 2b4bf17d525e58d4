//! The obvious single-cell max register: a CAS retry loop.
//!
//! `ReadMax` is one load; `WriteMax(v)` reads the cell and CASes `v` in
//! if it is larger, retrying from the CAS's witness on interference.
//! Both operations are `O(1)` steps *when run solo* — but the write is
//! only **lock-free**, not wait-free: an unlucky writer can be starved
//! by faster writers forever. The paper's tradeoffs are about
//! *wait-free / obstruction-free worst-case step complexity*, which
//! this baseline sidesteps rather than beats; it exists to anchor the
//! benchmarks at "what a single CAS cell buys you".
//!
//! The write is one body, [`raise`], over [`Cells`]:
//! [`CasRetryMaxRegister`] runs it on one real cell and
//! [`SimCasRetryMaxRegister`] on one simulator cell, so both faces take
//! the same steps. The k-accurate register raises its code cell with
//! the same body.

use std::fmt;
use std::sync::atomic::{AtomicI64, Ordering};

use ruo_sim::{Machine, Memory, ObjId, Prim, ProcessId, Word};

use super::sim::SimMaxRegister;
use crate::cells::{run, Cells, Real};
use crate::pad::CachePadded;
use crate::traits::MaxRegister;
use crate::value::to_word;

/// Raises `cells[cell]` to at least `v`: read it, return when it holds
/// `v` or more, and CAS `v` in otherwise. A failed CAS witnesses the
/// cell's current value, and the loop goes on from that value with no
/// re-read (lock-free).
///
/// A single cell's modification order is the linearization order, so
/// returning on a value `≥ v` is sound: the write that put it there
/// already covers ours.
pub(crate) async fn raise<C: Cells + ?Sized>(cells: &C, cell: usize, v: Word) {
    let mut cur = cells.load(cell).await;
    while cur < v {
        let witness = cells.cas(cell, cur, v).await;
        if witness == cur {
            return;
        }
        cur = witness;
    }
}

/// Lock-free single-cell max register (CAS retry loop).
///
/// ```
/// use ruo_core::maxreg::CasRetryMaxRegister;
/// use ruo_core::MaxRegister;
/// use ruo_sim::ProcessId;
///
/// let reg = CasRetryMaxRegister::new();
/// reg.write_max(ProcessId(0), 12);
/// reg.write_max(ProcessId(1), 5);
/// assert_eq!(reg.read_max(), 12);
/// ```
#[derive(Default)]
pub struct CasRetryMaxRegister {
    /// One cell, padded so the register never false-shares with
    /// whatever the embedding structure allocates next to it.
    cell: [CachePadded<AtomicI64>; 1],
}

impl fmt::Debug for CasRetryMaxRegister {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CasRetryMaxRegister")
            .field(
                "value",
                &Real::new(&self.cell[..]).load_with(0, Ordering::Relaxed),
            )
            .finish()
    }
}

impl CasRetryMaxRegister {
    /// Creates a register reading `0`.
    pub fn new() -> Self {
        Self::default()
    }
}

impl MaxRegister for CasRetryMaxRegister {
    /// # Panics
    ///
    /// Panics if `v` exceeds [`MAX_VALUE`](crate::value::MAX_VALUE).
    fn write_max(&self, _pid: ProcessId, v: u64) {
        run(raise(&Real::new(&self.cell[..]), 0, to_word(v)));
    }

    fn read_max(&self) -> u64 {
        // One load of a single cell: Acquire orders the write it reads
        // before our completion (DESIGN.md § Memory orderings).
        Real::new(&self.cell[..]).load_with(0, Ordering::Acquire) as u64
    }
}

/// The single-cell CAS-retry register as step machines, on the same
/// body: `ReadMax` is 1 step, a solo `WriteMax` 2.
#[derive(Debug)]
pub struct SimCasRetryMaxRegister {
    cell: ObjId,
    n: usize,
}

impl SimCasRetryMaxRegister {
    /// Allocates the cell (value `0`) in `mem`.
    pub fn new(mem: &mut Memory, n: usize) -> Self {
        SimCasRetryMaxRegister {
            cell: mem.alloc(0),
            n,
        }
    }
}

impl SimMaxRegister for SimCasRetryMaxRegister {
    fn n(&self) -> usize {
        self.n
    }

    fn write_max(&self, _pid: ProcessId, v: u64) -> Machine {
        let (cell, w) = ([self.cell], to_word(v));
        Machine::new(async move {
            raise(&cell[..], 0, w).await;
            0
        })
    }

    fn read_max(&self, _pid: ProcessId) -> Machine {
        Machine::single(Prim::Read(self.cell), |w| w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn keeps_the_maximum() {
        let reg = CasRetryMaxRegister::new();
        reg.write_max(ProcessId(0), 10);
        reg.write_max(ProcessId(1), 3);
        assert_eq!(reg.read_max(), 10);
        reg.write_max(ProcessId(0), 11);
        assert_eq!(reg.read_max(), 11);
    }

    #[test]
    fn fresh_register_reads_zero() {
        assert_eq!(CasRetryMaxRegister::new().read_max(), 0);
    }

    #[test]
    fn concurrent_writes_converge() {
        let reg = Arc::new(CasRetryMaxRegister::new());
        let handles: Vec<_> = (0..8usize)
            .map(|i| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    for k in 0..1000u64 {
                        reg.write_max(ProcessId(i), k * 8 + i as u64);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.read_max(), 999 * 8 + 7);
    }
}
