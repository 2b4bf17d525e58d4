//! Simulator step machines for snapshots.
//!
//! Only the double-collect snapshot is simulated: it is the snapshot
//! whose step behaviour the Theorem 1 / Corollary 1 experiments need
//! (an `O(1)`-update snapshot whose scans an adversary can stretch), and
//! it fits the model's single-word base objects. The Afek and
//! path-copying snapshots rely on wide registers / pointers and exist as
//! real-atomics implementations only (see `DESIGN.md`).

use ruo_sim::{Machine, ProcessId, Word};

pub use super::double_collect::SimDoubleCollectSnapshot;

/// A snapshot whose operations are simulator step machines.
///
/// Scan machines return a *token*; exchange it for the scanned vector
/// with [`take_scan_result`](SimSnapshot::take_scan_result) (the
/// executor's `OpSpec::vector` does this automatically).
pub trait SimSnapshot: Send + Sync {
    /// Number of segments.
    fn n(&self) -> usize;

    /// An `Update(v)` of `pid`'s segment as a step machine.
    fn update(&self, pid: ProcessId, v: u64) -> Machine;

    /// A `Scan` as a step machine; the machine's result is a token.
    fn scan(&self, pid: ProcessId) -> Machine;

    /// Exchanges a scan machine's token for the scanned vector.
    fn take_scan_result(&self, token: Word) -> Vec<u64>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruo_sim::{run_solo, Memory};

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
        let (token, steps) = run_solo(&mut mem, ProcessId(0), s.scan(ProcessId(0)));
        assert_eq!(steps, 2 * n);
        assert_eq!(s.take_scan_result(token), vec![0; n]);
    }

    #[test]
    fn scan_sees_updates() {
        let mut mem = Memory::new();
        let s = SimDoubleCollectSnapshot::new(&mut mem, 3);
        run_solo(&mut mem, ProcessId(1), s.update(ProcessId(1), 5));
        run_solo(&mut mem, ProcessId(2), s.update(ProcessId(2), 7));
        let (token, _) = run_solo(&mut mem, ProcessId(0), s.scan(ProcessId(0)));
        assert_eq!(s.take_scan_result(token), vec![0, 5, 7]);
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
            let r = mem.apply(ProcessId(0), p);
            scan.feed(r);
        }
        // Now p1 updates segment 1, invalidating the first collect.
        run_solo(&mut mem, ProcessId(1), s.update(ProcessId(1), 3));
        // Let the scan finish.
        while let Some(p) = scan.enabled() {
            let r = mem.apply(ProcessId(0), p);
            scan.feed(r);
        }
        assert!(scan.steps() > 4, "scan should have retried");
        let token = scan.result().unwrap();
        assert_eq!(s.take_scan_result(token), vec![0, 3]);
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
