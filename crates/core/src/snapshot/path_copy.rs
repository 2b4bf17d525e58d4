//! A restricted-use path-copying snapshot: `O(1)` consistent-view
//! acquisition, `O(log N)` uncontended updates.
//!
//! The segments are the leaves of an immutable complete binary tree; the
//! root pointer is the only mutable cell. `Update` path-copies from the
//! caller's leaf to a fresh root (sharing all untouched subtrees) and
//! CASes the root pointer; `Scan` loads the root — one step — and walks
//! the *immutable* tree at leisure. This is the pointer-based analogue
//! of Jayanti's f-array, sitting at the `O(1)`-read end of Corollary 1's
//! tradeoff.
//!
//! **Restricted use**: nodes are never freed while the snapshot lives
//! (old versions may still be referenced by in-flight scans), so memory
//! grows by `O(log N)` nodes per update. The paper's setting — at most
//! polynomially many updates — is exactly the regime where this is
//! acceptable; construction takes an explicit `max_updates` bound and
//! refuses to exceed it.

use std::fmt;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

use ruo_sim::stepcount::Tally;
use ruo_sim::ProcessId;

use crate::traits::Snapshot;

struct Node {
    /// Null for leaves.
    left: *const Node,
    /// Null for leaves.
    right: *const Node,
    /// Number of leaves in the left subtree (navigation).
    left_leaves: usize,
    /// Leaf payload (unused on internal nodes).
    value: u64,
    /// Intrusive allocation-registry link (see `alloc_head`).
    next_alloc: AtomicPtr<Node>,
}

/// Lock-free restricted-use snapshot with `O(1)` view acquisition.
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
    root: AtomicPtr<Node>,
    /// Head of the intrusive list of every node ever allocated; freed in
    /// `Drop`.
    alloc_head: AtomicPtr<Node>,
    updates: AtomicU64,
    max_updates: u64,
    n: usize,
}

// SAFETY: all reachable `Node`s are immutable after publication and are
// only freed in `Drop` (which takes `&mut self`); the mutable state is
// confined to atomics.
unsafe impl Send for PathCopySnapshot {}
// SAFETY: same reasoning — shared access only ever reads immutable nodes
// or uses atomic operations.
unsafe impl Sync for PathCopySnapshot {}

impl fmt::Debug for PathCopySnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PathCopySnapshot")
            .field("n", &self.n)
            .field("updates", &self.updates.load(Ordering::Relaxed))
            .field("max_updates", &self.max_updates)
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
        assert!(n >= 1, "at least one segment required");
        assert!(max_updates >= 1, "update bound must be positive");
        let snap = PathCopySnapshot {
            root: AtomicPtr::new(ptr::null_mut()),
            alloc_head: AtomicPtr::new(ptr::null_mut()),
            updates: AtomicU64::new(0),
            max_updates,
            n,
        };
        let root = snap.build_zeroed(n);
        snap.root.store(root as *mut Node, Ordering::SeqCst);
        snap
    }

    /// Allocates a node and links it into the allocation registry so
    /// `Drop` can free it.
    fn alloc(
        &self,
        left: *const Node,
        right: *const Node,
        left_leaves: usize,
        value: u64,
    ) -> *const Node {
        let node = Box::into_raw(Box::new(Node {
            left,
            right,
            left_leaves,
            value,
            next_alloc: AtomicPtr::new(ptr::null_mut()),
        }));
        let mut head = self.alloc_head.load(Ordering::Relaxed);
        loop {
            // SAFETY: `node` is unpublished — we hold the only pointer.
            unsafe { (*node).next_alloc.store(head, Ordering::Relaxed) };
            match self.alloc_head.compare_exchange_weak(
                head,
                node,
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => return node,
                Err(actual) => head = actual,
            }
        }
    }

    fn build_zeroed(&self, k: usize) -> *const Node {
        if k == 1 {
            return self.alloc(ptr::null(), ptr::null(), 0, 0);
        }
        let left_count = k.div_ceil(2);
        let left = self.build_zeroed(left_count);
        let right = self.build_zeroed(k - left_count);
        self.alloc(left, right, left_count, 0)
    }

    /// Path-copies `root`, setting leaf `idx` (within a subtree of
    /// `count` leaves) to `v`.
    ///
    /// # Safety
    ///
    /// `node` must point to a live node of this snapshot.
    unsafe fn copy_path(&self, node: *const Node, count: usize, idx: usize, v: u64) -> *const Node {
        let cur = &*node;
        if count == 1 {
            return self.alloc(ptr::null(), ptr::null(), 0, v);
        }
        if idx < cur.left_leaves {
            let new_left = self.copy_path(cur.left, cur.left_leaves, idx, v);
            self.alloc(new_left, cur.right, cur.left_leaves, 0)
        } else {
            let new_right =
                self.copy_path(cur.right, count - cur.left_leaves, idx - cur.left_leaves, v);
            self.alloc(cur.left, new_right, cur.left_leaves, 0)
        }
    }

    /// Pins the current version: a consistent, immutable view of all
    /// segments, obtained with a single atomic load.
    pub fn view(&self) -> SnapshotView<'_> {
        // Pointer cells are no word table; count the primitive by hand
        // so scans still cost their one shared-memory step.
        Tally::start().read();
        SnapshotView {
            root: self.root.load(Ordering::SeqCst),
            n: self.n,
            _snap: std::marker::PhantomData,
        }
    }

    /// Number of updates performed so far.
    pub fn updates(&self) -> u64 {
        self.updates.load(Ordering::Relaxed)
    }

    /// The restricted-use bound.
    pub fn max_updates(&self) -> u64 {
        self.max_updates
    }
}

impl Snapshot for PathCopySnapshot {
    fn n(&self) -> usize {
        self.n
    }

    /// # Panics
    ///
    /// Panics if the restricted-use update bound is exceeded.
    fn update(&self, pid: ProcessId, v: u64) {
        assert!(pid.index() < self.n, "process out of range");
        // Shared RMW on the update ticket — one step (counted as a
        // successful CAS, the convention for fetch_add).
        let tally = Tally::start();
        tally.cas(true);
        let used = self.updates.fetch_add(1, Ordering::Relaxed);
        assert!(
            used < self.max_updates,
            "restricted-use bound of {} updates exceeded",
            self.max_updates
        );
        loop {
            tally.read();
            let cur = self.root.load(Ordering::SeqCst);
            // SAFETY: `cur` came from the root pointer and nodes live
            // until `Drop`.
            let new = unsafe { self.copy_path(cur, self.n, pid.index(), v) };
            let swapped = self
                .root
                .compare_exchange(cur, new as *mut Node, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok();
            tally.cas(swapped);
            if swapped {
                return;
            }
            // Lost the race; the abandoned path stays in the registry and
            // is reclaimed at drop. Retry against the new root.
        }
    }

    fn scan(&self) -> Vec<u64> {
        self.view().to_vec()
    }
}

impl Drop for PathCopySnapshot {
    fn drop(&mut self) {
        let mut cur = self.alloc_head.load(Ordering::Relaxed);
        while !cur.is_null() {
            // SAFETY: every node was allocated by `alloc` via
            // `Box::into_raw` and appears exactly once in this list; we
            // have `&mut self`, so no readers remain.
            let boxed = unsafe { Box::from_raw(cur) };
            cur = boxed.next_alloc.load(Ordering::Relaxed);
        }
    }
}

/// A consistent, immutable view of a [`PathCopySnapshot`] version.
///
/// Obtained in `O(1)`; individual segments are read in `O(log N)` and
/// the whole vector in `O(N)`. The view stays valid (and frozen) for the
/// lifetime of the snapshot borrow, no matter how many updates happen
/// concurrently.
pub struct SnapshotView<'a> {
    root: *const Node,
    n: usize,
    _snap: std::marker::PhantomData<&'a PathCopySnapshot>,
}

// SAFETY: a view only reads immutable nodes kept alive by the snapshot
// borrow.
unsafe impl Send for SnapshotView<'_> {}
// SAFETY: same — all access is read-only.
unsafe impl Sync for SnapshotView<'_> {}

impl fmt::Debug for SnapshotView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapshotView")
            .field("segments", &self.to_vec())
            .finish()
    }
}

impl SnapshotView<'_> {
    /// Number of segments.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the view has no segments (never true: `n ≥ 1`).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Reads segment `idx` from this frozen version (`O(log N)`).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn get(&self, idx: usize) -> u64 {
        assert!(idx < self.n, "segment {idx} out of range");
        let mut node = self.root;
        let mut count = self.n;
        let mut idx = idx;
        loop {
            // SAFETY: nodes live until the snapshot drops, and the view
            // borrows the snapshot.
            let cur = unsafe { &*node };
            if count == 1 {
                return cur.value;
            }
            if idx < cur.left_leaves {
                node = cur.left;
                count = cur.left_leaves;
            } else {
                idx -= cur.left_leaves;
                count -= cur.left_leaves;
                node = cur.right;
            }
        }
    }

    /// Copies every segment out of this frozen version (`O(N)`).
    pub fn to_vec(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.n);
        // SAFETY: as in `get`.
        unsafe { collect_leaves(self.root, &mut out) };
        out
    }
}

/// # Safety
///
/// `node` must point to a live node tree.
unsafe fn collect_leaves(node: *const Node, out: &mut Vec<u64>) {
    let cur = &*node;
    if cur.left.is_null() {
        out.push(cur.value);
    } else {
        collect_leaves(cur.left, out);
        collect_leaves(cur.right, out);
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
        // The ticket's fetch_add, the root read and the root CAS.
        let (_, update) = counted(|| s.update(ProcessId(1), 5));
        let (view, scan) = counted(|| s.scan());
        assert_eq!(view, vec![0, 5, 0, 0]);
        let none = OpCounts::new();
        assert_eq!(
            update,
            OpCounts {
                reads: 1,
                cas_ok: 2,
                ..none
            }
        );
        assert_eq!(scan, OpCounts { reads: 1, ..none });
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
