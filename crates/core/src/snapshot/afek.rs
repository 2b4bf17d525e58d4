//! The Afek–Attiya–Dolev–Gafni–Merritt–Shavit wait-free snapshot
//! (JACM 1993), with helping.
//!
//! A segment holds the index of its latest record, `N + 1` words of a
//! restricted-use [`Arena`]: the value and the *embedded view*, a scan
//! the updater took first. `Scan` double-collects the segments; once the
//! *same* segment has moved twice during one scan, its latest record was
//! written by an update whose scan started after ours did, so the
//! scanner **borrows** that view. At most `N` single moves occur before
//! some segment moves twice, so scans and updates take `O(N²)` steps:
//! wait-free from reads and writes. Every update takes its own slice, so
//! no sequence number is needed to see a move.

use std::fmt;
use std::sync::atomic::AtomicI64;
use std::sync::Arc;

use ruo_sim::{Machine, Memory, ObjId, ProcessId, Word};

use super::double_collect::collect;
use super::sim::SimSnapshot;
use super::Arena;
use crate::cells::{run, Cells, Packed, Real};
use crate::traits::Snapshot;

/// The first segment cell; segment `i` is `SEGMENTS + i`.
const SEGMENTS: usize = 1;

/// The ticket, the segments and the initial record (the value `0`, which
/// every segment starts at), then one `n + 1`-word record per update.
fn arena(n: usize, max_updates: u64) -> Arena {
    Arena::new(n, max_updates, SEGMENTS + n + 1, n + 1)
}

/// The fixed cells: the ticket at 0, the segments, the initial record.
fn fixed(n: usize) -> Vec<Word> {
    let mut words = vec![(SEGMENTS + n) as Word; SEGMENTS + n + 1];
    (words[0], words[SEGMENTS + n]) = (0, 0);
    words
}

/// `Scan`: collect until two consecutive collects agree, then read each
/// record's value (`3N` reads solo), or until a segment has moved twice,
/// then read that record's embedded view.
async fn scan<C: Cells + ?Sized>(cells: &C, n: usize) -> Vec<Word> {
    let segments = SEGMENTS..SEGMENTS + n;
    let mut moved = vec![false; n];
    let mut prev = collect(cells, segments.clone()).await;
    loop {
        let cur = collect(cells, segments.clone()).await;
        if prev == cur {
            return values(cells, &cur).await;
        }
        for i in 0..n {
            if prev[i] != cur[i] {
                if moved[i] {
                    let view = cur[i] as usize + 1;
                    return collect(cells, view..view + n).await;
                }
                moved[i] = true;
            }
        }
        prev = cur;
    }
}

/// The values of `records`, one read each.
async fn values<C: Cells + ?Sized>(cells: &C, records: &[Word]) -> Vec<Word> {
    let mut values = Vec::with_capacity(records.len());
    for &record in records {
        values.push(cells.load(record as usize).await);
    }
    values
}

/// `Update` of segment `i` to `v`: scan, take a slice, write the value
/// and the view into it, and publish its index in the segment.
async fn update<C: Cells + ?Sized>(cells: &C, arena: Arena, i: usize, v: u64) {
    let view = scan(cells, arena.n).await;
    let record = arena.take(cells).await;
    cells.store(record, v as Word).await;
    for (k, &w) in view.iter().enumerate() {
        cells.store(record + 1 + k, w).await;
    }
    cells.store(SEGMENTS + i, record as Word).await;
}

/// Wait-free snapshot with embedded-scan helping: `O(N²)` scans and
/// updates from reads and writes, for a bounded number of updates.
///
/// ```
/// use ruo_core::snapshot::AfekSnapshot;
/// use ruo_core::Snapshot;
/// use ruo_sim::ProcessId;
///
/// let snap = AfekSnapshot::new(3, 100);
/// snap.update(ProcessId(0), 11);
/// snap.update(ProcessId(2), 22);
/// assert_eq!(snap.scan(), vec![11, 0, 22]);
/// ```
pub struct AfekSnapshot {
    cells: Box<Packed>,
    arena: Arena,
}

impl fmt::Debug for AfekSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AfekSnapshot")
            .field("arena", &self.arena)
            .finish()
    }
}

impl AfekSnapshot {
    /// Creates a snapshot with `n` zeroed segments supporting at most
    /// `max_updates` updates in total.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `max_updates == 0`.
    pub fn new(n: usize, max_updates: u64) -> Self {
        let arena = arena(n, max_updates);
        AfekSnapshot {
            cells: arena.words(fixed(n)).map(AtomicI64::new).collect(),
            arena,
        }
    }
}

impl Snapshot for AfekSnapshot {
    fn n(&self) -> usize {
        self.arena.n
    }

    fn update(&self, pid: ProcessId, v: u64) {
        assert!(pid.index() < self.arena.n, "process out of range");
        run(update(&Real::new(&*self.cells), self.arena, pid.index(), v));
    }

    fn scan(&self) -> Vec<u64> {
        let words = run(scan(&Real::new(&*self.cells), self.arena.n));
        words.into_iter().map(|w| w as u64).collect()
    }
}

/// The Afek et al. snapshot as step machines, on the same bodies: a
/// solo scan takes `3N` reads and a solo update `4N + 4` steps.
#[derive(Debug)]
pub struct SimAfekSnapshot {
    cells: Arc<[ObjId]>,
    arena: Arena,
}

impl SimAfekSnapshot {
    /// [`AfekSnapshot::new`]'s snapshot, allocated in `mem`.
    pub fn new(mem: &mut Memory, n: usize, max_updates: u64) -> Self {
        let arena = arena(n, max_updates);
        SimAfekSnapshot {
            cells: arena.words(fixed(n)).map(|w| mem.alloc(w)).collect(),
            arena,
        }
    }
}

impl SimSnapshot for SimAfekSnapshot {
    fn update(&self, pid: ProcessId, v: u64) -> Machine {
        let (cells, arena) = (Arc::clone(&self.cells), self.arena);
        Machine::new(async move {
            update(&*cells, arena, pid.index(), v).await;
            0
        })
    }

    fn scan(&self, _pid: ProcessId) -> Machine {
        let (cells, n) = (Arc::clone(&self.cells), self.arena.n);
        Machine::vector(async move { scan(&*cells, n).await })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::counted;
    use crate::snapshot::testing::explore_two_updaters_and_a_scanner;
    use ruo_sim::stepcount::OpCounts;
    use std::sync::Arc;

    #[test]
    fn fresh_snapshot_is_all_zero() {
        assert_eq!(AfekSnapshot::new(3, 1).scan(), vec![0; 3]);
    }

    #[test]
    fn sequential_updates_are_visible() {
        let s = AfekSnapshot::new(3, 3);
        s.update(ProcessId(0), 5);
        assert_eq!(s.scan(), vec![5, 0, 0]);
        s.update(ProcessId(2), 7);
        assert_eq!(s.scan(), vec![5, 0, 7]);
        s.update(ProcessId(0), 1);
        assert_eq!(s.scan(), vec![1, 0, 7]);
    }

    #[test]
    fn single_segment_snapshot() {
        let s = AfekSnapshot::new(1, 1);
        s.update(ProcessId(0), 9);
        assert_eq!(s.scan(), vec![9]);
    }

    #[test]
    fn update_and_scan_tallies_are_pinned() {
        let n = 3;
        let s = AfekSnapshot::new(n, 2);
        // The embedded scan (3N reads), the ticket's read and CAS, the
        // value, the view and the segment (N + 2 writes).
        let (_, update) = counted(|| s.update(ProcessId(1), 5));
        let (view, scan) = counted(|| s.scan());
        assert_eq!(view, vec![0, 5, 0]);
        let none = OpCounts::new();
        let reads = 3 * n as u64;
        assert_eq!(
            update,
            OpCounts {
                reads: reads + 1,
                writes: n as u64 + 2,
                cas_ok: 1,
                ..none
            }
        );
        assert_eq!(scan, OpCounts { reads, ..none });
    }

    #[test]
    fn update_bound_is_enforced() {
        let s = AfekSnapshot::new(2, 1);
        s.update(ProcessId(0), 1);
        let r = std::panic::catch_unwind(|| s.update(ProcessId(1), 2));
        assert!(r.is_err());
        assert_eq!(s.scan(), vec![1, 0]);
    }

    #[test]
    fn concurrent_updates_and_scans_stay_consistent() {
        let n = 4;
        let per = 300u64;
        let s = Arc::new(AfekSnapshot::new(n, n as u64 * per));
        // Each writer publishes strictly increasing values; scans must be
        // coordinatewise monotone over time.
        let writers: Vec<_> = (0..n)
            .map(|i| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for v in 1..=per {
                        s.update(ProcessId(i), v);
                    }
                })
            })
            .collect();
        let scanners: Vec<_> = (0..2)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let mut last = vec![0u64; n];
                    for _ in 0..200 {
                        let cur = s.scan();
                        for i in 0..n {
                            assert!(
                                cur[i] >= last[i],
                                "segment {i} regressed: {last:?} -> {cur:?}"
                            );
                        }
                        last = cur;
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        for sc in scanners {
            sc.join().unwrap();
        }
        assert_eq!(s.scan(), vec![per; n]);
    }

    #[test]
    fn no_memory_unsafety_on_drop_with_history() {
        let s = AfekSnapshot::new(2, 100);
        for v in 0..50 {
            s.update(ProcessId(0), v);
            s.update(ProcessId(1), v);
        }
        drop(s);
    }

    /// The planted bug: a scan that borrows a view after one move
    /// instead of two.
    async fn scan_borrowing_after_one_move<C: Cells + ?Sized>(cells: &C, n: usize) -> Vec<Word> {
        let segments = SEGMENTS..SEGMENTS + n;
        let mut prev = collect(cells, segments.clone()).await;
        loop {
            let cur = collect(cells, segments.clone()).await;
            if prev == cur {
                return values(cells, &cur).await;
            }
            if let Some(i) = (0..n).find(|&i| prev[i] != cur[i]) {
                let view = cur[i] as usize + 1;
                return collect(cells, view..view + n).await;
            }
            prev = cur;
        }
    }

    #[test]
    fn explorer_catches_a_view_borrowed_after_one_move() {
        let build = |mem: &mut Memory, n| SimAfekSnapshot::new(mem, n, 2);
        let early = |s: &SimAfekSnapshot| {
            let (cells, n) = (Arc::clone(&s.cells), s.arena.n);
            Machine::vector(async move { scan_borrowing_after_one_move(&*cells, n).await })
        };
        let (violated, _) = explore_two_updaters_and_a_scanner(build, early);
        assert!(violated, "borrowing after one move must be caught");
        let shipped = |s: &SimAfekSnapshot| s.scan(ProcessId(2));
        let (violated, schedules) = explore_two_updaters_and_a_scanner(build, shipped);
        assert!(!violated, "the shipped scan has no violation");
        assert!(schedules > 1);
    }
}
