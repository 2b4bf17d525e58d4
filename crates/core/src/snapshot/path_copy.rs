//! A restricted-use path-copying snapshot: one read pins a consistent
//! view, `O(log N)` uncontended updates.
//!
//! The segments are the leaves of an immutable binary tree whose root
//! record's index sits in the root cell. `Update` copies the path to the
//! caller's leaf into its own [`Arena`] slice, sharing every untouched
//! subtree, and CASes the root to the copy; `Scan` reads the root, one
//! step, and copies that version out in `O(N)` reads. It is the f-array
//! of arXiv 1407.6153 copying paths instead of refreshing nodes, at the
//! `O(1)`-read end of Corollary 1's tradeoff. A record is one word: a
//! leaf's value, or an internal node's two child indices (left in the
//! high half); in-flight scans may read any old version, so records live
//! as long as the snapshot, and construction takes a `max_updates` bound.

use std::fmt;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use ruo_sim::{Machine, Memory, ObjId, ProcessId, Word};

use super::sim::SimSnapshot;
use super::{Arena, TICKET};
use crate::cells::{run, Cells, Packed, Real};
use crate::traits::Snapshot;

/// The cell holding the current root's record index.
const ROOT: usize = 1;

/// An internal node's word: its children's record indices.
fn pack(left: usize, right: usize) -> Word {
    ((left as u64) << 32 | right as u64) as Word
}

fn unpack(node: Word) -> (usize, usize) {
    let node = node as u64;
    ((node >> 32) as usize, node as u32 as usize)
}

/// The ticket, the root and the initial tree's `2n − 1` records, then
/// one path per update.
fn arena(n: usize, max_updates: u64) -> Arena {
    let depth = n.next_power_of_two().trailing_zeros() as usize;
    Arena::new(n, max_updates, ROOT + 2 * n, depth + 1)
}

/// The fixed cells: the ticket at 0, the root, and the zeroed tree.
fn fixed(n: usize) -> Vec<Word> {
    /// Appends a zeroed subtree of `k` leaves and returns its root.
    fn subtree(words: &mut Vec<Word>, k: usize) -> usize {
        let word = if k == 1 {
            0
        } else {
            let half = k.div_ceil(2);
            let left = subtree(words, half);
            pack(left, subtree(words, k - half))
        };
        words.push(word);
        words.len() - 1
    }
    let mut words = vec![0, 0];
    words[ROOT] = subtree(&mut words, n) as Word;
    words
}

/// `Update` of leaf `i` to `v`: take a slice, copy the path to leaf `i`
/// into it top down (per level one read of the old node and one write
/// of its copy), write the leaf, and CAS the root to the copy. A failed
/// CAS witnesses the new root; the retry copies its path into the same
/// slice, which nothing can reach yet.
async fn update<C: Cells + ?Sized>(cells: &C, arena: Arena, i: usize, v: u64) {
    let slice = arena.take(cells).await;
    let mut root = cells.load(ROOT).await;
    loop {
        let (mut node, mut count, mut i) = (root as usize, arena.n, i);
        let mut at = slice;
        while count > 1 {
            let (left, right) = unpack(cells.load(node).await);
            let half = count.div_ceil(2);
            let copy = if i < half {
                (node, count) = (left, half);
                pack(at + 1, right)
            } else {
                (node, count, i) = (right, count - half, i - half);
                pack(left, at + 1)
            };
            cells.store(at, copy).await;
            at += 1;
        }
        cells.store(at, v as Word).await;
        let witness = cells.cas(ROOT, root, slice as Word).await;
        if witness == root {
            return;
        }
        root = witness;
    }
}

/// Copies the `n` leaves of the version rooted at `root` out, left to
/// right, one read per record (`2n − 1`). Right subtrees wait on a stack
/// of one per level, and 32-bit indices bound the levels by 32.
async fn copy_out<C: Cells + ?Sized>(cells: &C, n: usize, root: usize) -> Vec<Word> {
    let mut out = Vec::with_capacity(n);
    let (mut pending, mut waiting) = ([(0, 0); 32], 0);
    let (mut node, mut count) = (root, n);
    loop {
        let word = cells.load(node).await;
        if count > 1 {
            let (left, right) = unpack(word);
            let half = count.div_ceil(2);
            pending[waiting] = (right, count - half);
            (node, count, waiting) = (left, half, waiting + 1);
        } else {
            out.push(word);
            if waiting == 0 {
                return out;
            }
            waiting -= 1;
            (node, count) = pending[waiting];
        }
    }
}

/// `Scan`: one read of the root pins a version; `2n − 1` copy it out.
async fn scan<C: Cells + ?Sized>(cells: &C, n: usize) -> Vec<Word> {
    let root = cells.load(ROOT).await;
    copy_out(cells, n, root as usize).await
}

/// Lock-free restricted-use snapshot: one read pins a consistent view.
///
/// ```
/// use ruo_core::snapshot::PathCopySnapshot;
/// use ruo_core::Snapshot;
/// use ruo_sim::ProcessId;
///
/// let snap = PathCopySnapshot::new(4, 1_000);
/// snap.update(ProcessId(1), 5);
/// let view = snap.view();
/// assert_eq!(view.get(1), 5);
/// assert_eq!(snap.scan(), vec![0, 5, 0, 0]);
/// ```
pub struct PathCopySnapshot {
    cells: Box<Packed>,
    arena: Arena,
}

impl fmt::Debug for PathCopySnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PathCopySnapshot")
            .field("arena", &self.arena)
            .field("updates", &self.updates())
            .finish()
    }
}

impl PathCopySnapshot {
    /// Creates a snapshot with `n` zeroed segments supporting at most
    /// `max_updates` updates in total.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `max_updates == 0`.
    pub fn new(n: usize, max_updates: u64) -> Self {
        let arena = arena(n, max_updates);
        PathCopySnapshot {
            cells: arena.words(fixed(n)).map(AtomicI64::new).collect(),
            arena,
        }
    }

    /// Pins the current version: a consistent, immutable view of all
    /// segments, obtained with a single read.
    pub fn view(&self) -> SnapshotView<'_> {
        let cells = Real::new(&*self.cells);
        let root = run(cells.load(ROOT)) as usize;
        SnapshotView {
            cells,
            root,
            n: self.arena.n,
        }
    }

    /// Number of updates that have taken a slice so far.
    pub fn updates(&self) -> u64 {
        self.cells[TICKET].load(Ordering::Relaxed) as u64
    }

    /// The restricted-use bound.
    pub fn max_updates(&self) -> u64 {
        self.arena.bound
    }
}

impl Snapshot for PathCopySnapshot {
    fn n(&self) -> usize {
        self.arena.n
    }

    fn update(&self, pid: ProcessId, v: u64) {
        assert!(pid.index() < self.arena.n, "process out of range");
        run(update(&Real::new(&*self.cells), self.arena, pid.index(), v));
    }

    fn scan(&self) -> Vec<u64> {
        self.view().to_vec()
    }
}

/// A consistent, immutable view of a [`PathCopySnapshot`] version.
///
/// Obtained in one read; individual segments are read in `O(log N)` and
/// the whole vector in `O(N)`. The view stays valid (and frozen) for the
/// lifetime of the snapshot borrow, no matter how many updates happen
/// concurrently. It counts its reads into the operation that pinned it.
pub struct SnapshotView<'a> {
    cells: Real<'a, Packed>,
    root: usize,
    n: usize,
}

impl fmt::Debug for SnapshotView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapshotView")
            .field("segments", &self.to_vec())
            .finish()
    }
}

impl SnapshotView<'_> {
    /// Reads segment `idx` from this frozen version (`O(log N)`).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn get(&self, idx: usize) -> u64 {
        assert!(idx < self.n, "segment {idx} out of range");
        let (mut node, mut count, mut idx) = (self.root, self.n, idx);
        loop {
            let word = self.cells.load_with(node, Ordering::SeqCst);
            if count == 1 {
                return word as u64;
            }
            let (left, right) = unpack(word);
            let half = count.div_ceil(2);
            if idx < half {
                (node, count) = (left, half);
            } else {
                (node, count, idx) = (right, count - half, idx - half);
            }
        }
    }

    /// Copies every segment out of this frozen version (`O(N)`).
    pub fn to_vec(&self) -> Vec<u64> {
        let words = run(copy_out(&self.cells, self.n, self.root));
        words.into_iter().map(|w| w as u64).collect()
    }
}

/// The path-copying snapshot as step machines, on the same bodies: a
/// solo scan takes `2N` reads, a solo update `2⌈log₂ N⌉ + 5` at most.
#[derive(Debug)]
pub struct SimPathCopySnapshot {
    cells: Arc<[ObjId]>,
    arena: Arena,
}

impl SimPathCopySnapshot {
    /// [`PathCopySnapshot::new`]'s snapshot, allocated in `mem`.
    pub fn new(mem: &mut Memory, n: usize, max_updates: u64) -> Self {
        let arena = arena(n, max_updates);
        SimPathCopySnapshot {
            cells: arena.words(fixed(n)).map(|w| mem.alloc(w)).collect(),
            arena,
        }
    }
}

impl SimSnapshot for SimPathCopySnapshot {
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
    use ruo_sim::stepcount::OpCounts;
    use std::sync::Arc;

    #[test]
    fn update_and_scan_tallies_are_pinned() {
        let s = PathCopySnapshot::new(4, 10);
        // The ticket's read and CAS, the root read, per level of the
        // two a read of the old node and a write of its copy, the leaf
        // write, and the root CAS.
        let (_, update) = counted(|| s.update(ProcessId(1), 5));
        // The root read and the seven records of the version.
        let (view, scan) = counted(|| s.scan());
        assert_eq!(view, vec![0, 5, 0, 0]);
        let none = OpCounts::new();
        assert_eq!(
            update,
            OpCounts {
                reads: 4,
                writes: 3,
                cas_ok: 2,
                ..none
            }
        );
        assert_eq!(scan, OpCounts { reads: 8, ..none });
        // Pinning a view is one read; a segment is a walk down to it,
        // counted into the operation that pinned the view.
        let (_, pin) = counted(|| s.view());
        assert_eq!(pin, OpCounts { reads: 1, ..none });
        let (v, get) = counted(|| s.view().get(1));
        assert_eq!((v, get), (5, OpCounts { reads: 4, ..none }));
    }

    #[test]
    fn fresh_snapshot_is_all_zero() {
        let s = PathCopySnapshot::new(5, 10);
        assert_eq!(s.scan(), vec![0; 5]);
    }

    #[test]
    fn updates_land_in_own_segment() {
        let s = PathCopySnapshot::new(4, 100);
        s.update(ProcessId(2), 7);
        s.update(ProcessId(0), 3);
        assert_eq!(s.scan(), vec![3, 0, 7, 0]);
        let v = s.view();
        assert_eq!(v.get(0), 3);
        assert_eq!(v.get(2), 7);
        assert_eq!(v.get(3), 0);
    }

    #[test]
    fn views_are_frozen_versions() {
        let s = PathCopySnapshot::new(2, 100);
        s.update(ProcessId(0), 1);
        let old = s.view();
        s.update(ProcessId(0), 2);
        s.update(ProcessId(1), 9);
        // The old view is unaffected by later updates.
        assert_eq!(old.to_vec(), vec![1, 0]);
        assert_eq!(s.scan(), vec![2, 9]);
    }

    #[test]
    fn update_bound_is_enforced() {
        let s = PathCopySnapshot::new(2, 2);
        s.update(ProcessId(0), 1);
        s.update(ProcessId(1), 1);
        let r = std::panic::catch_unwind(|| s.update(ProcessId(0), 2));
        assert!(r.is_err());
        assert_eq!(s.updates(), 2, "a refused update takes no ticket");
    }

    #[test]
    fn single_segment_works() {
        let s = PathCopySnapshot::new(1, 8);
        s.update(ProcessId(0), 4);
        assert_eq!(s.scan(), vec![4]);
        assert_eq!(s.view().get(0), 4);
    }

    #[test]
    fn concurrent_updates_all_land() {
        // The bound is exact: an update that retried into a new slice
        // would run out of tickets.
        let n = 8;
        let per = 50u64;
        let s = Arc::new(PathCopySnapshot::new(n, n as u64 * per));
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for v in 1..=per {
                        s.update(ProcessId(i), v);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.scan(), vec![per; n]);
    }

    #[test]
    fn concurrent_scans_are_coordinatewise_monotone() {
        let s = Arc::new(PathCopySnapshot::new(3, 4000));
        let writer = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                for v in 1..=1000u64 {
                    s.update(ProcessId(0), v);
                }
            })
        };
        let mut last = 0;
        for _ in 0..500 {
            let cur = s.scan();
            assert!(cur[0] >= last, "segment regressed");
            last = cur[0];
        }
        writer.join().unwrap();
    }

    #[test]
    fn drop_frees_everything_without_crashing() {
        let s = PathCopySnapshot::new(4, 1000);
        for v in 0..200 {
            s.update(ProcessId((v % 4) as usize), v as u64);
        }
        drop(s);
    }
}
