//! Simulator step machines for snapshots.
//!
//! Every snapshot's simulator face runs the bodies its real face ships
//! with, on simulator cells, and keeps its state in
//! [`Memory`](ruo_sim::Memory) only: the explorer clones a scope's
//! memory and rebuilds its machines from the one face.

use ruo_sim::{Machine, ProcessId};

pub use super::afek::SimAfekSnapshot;
pub use super::double_collect::SimDoubleCollectSnapshot;
pub use super::path_copy::SimPathCopySnapshot;

/// A snapshot whose operations are simulator step machines.
pub trait SimSnapshot: Send + Sync {
    /// An `Update(v)` of `pid`'s segment as a step machine.
    fn update(&self, pid: ProcessId, v: u64) -> Machine;

    /// A `Scan` as a [`Machine::vector`]: its output is the vector.
    fn scan(&self, pid: ProcessId) -> Machine;
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruo_sim::{run_solo, run_solo_vector, Memory, Word};

    fn unpack_val(word: Word) -> u64 {
        (word as u64) & 0xFFFF_FFFF
    }

    #[test]
    fn update_is_exactly_two_steps() {
        let mut mem = Memory::new();
        let s = SimDoubleCollectSnapshot::new(&mut mem, 4);
        let (_, steps) = run_solo(&mut mem, ProcessId(0), s.update(ProcessId(0), 9));
        assert_eq!(steps, 2);
    }

    #[test]
    fn solo_scan_takes_two_collects() {
        let mut mem = Memory::new();
        let n = 4;
        let s = SimDoubleCollectSnapshot::new(&mut mem, n);
        let (cut, steps) = run_solo_vector(&mut mem, ProcessId(0), s.scan(ProcessId(0)));
        assert_eq!(steps, 2 * n);
        assert_eq!(cut, vec![0; n]);
    }

    #[test]
    fn scan_sees_updates() {
        let mut mem = Memory::new();
        let s = SimDoubleCollectSnapshot::new(&mut mem, 3);
        run_solo(&mut mem, ProcessId(1), s.update(ProcessId(1), 5));
        run_solo(&mut mem, ProcessId(2), s.update(ProcessId(2), 7));
        let (cut, _) = run_solo_vector(&mut mem, ProcessId(0), s.scan(ProcessId(0)));
        assert_eq!(cut, vec![0, 5, 7]);
    }

    #[test]
    fn interfered_scan_retries() {
        // Interleave an update between the scan's two collects; the scan
        // must take extra rounds.
        let mut mem = Memory::new();
        let s = SimDoubleCollectSnapshot::new(&mut mem, 2);
        let mut scan = s.scan(ProcessId(0));
        // First collect (2 reads).
        for _ in 0..2 {
            let p = scan.enabled().unwrap();
            let r = mem.apply(ProcessId(0), p).resp;
            scan.feed(r);
        }
        // Now p1 updates segment 1, invalidating the first collect.
        run_solo(&mut mem, ProcessId(1), s.update(ProcessId(1), 3));
        // Let the scan finish.
        let (cut, steps) = run_solo_vector(&mut mem, ProcessId(0), scan);
        assert!(steps > 4, "scan should have retried");
        assert_eq!(cut, vec![0, 3]);
    }

    #[test]
    fn same_value_update_perturbs_scans() {
        // Sequence numbers make same-value rewrites visible.
        let mut mem = Memory::new();
        let s = SimDoubleCollectSnapshot::new(&mut mem, 1);
        run_solo(&mut mem, ProcessId(0), s.update(ProcessId(0), 5));
        let before = mem.peek(s.segments[0]);
        run_solo(&mut mem, ProcessId(0), s.update(ProcessId(0), 5));
        let after = mem.peek(s.segments[0]);
        assert_ne!(before, after);
        assert_eq!(unpack_val(before), unpack_val(after));
    }
}
