//! The classic double-collect snapshot.
//!
//! Each segment is one word packing a per-segment sequence number with
//! the value. `Update` is a single-writer read-modify-write of the
//! caller's own segment (two steps). `Scan` repeatedly *collects* (reads
//! all `N` segments) until two consecutive collects are identical — a
//! clean double collect is a consistent cut, because any concurrent
//! update would have bumped a sequence number between the collects.
//!
//! `Scan` is only **obstruction-free**: a steady stream of updates can
//! starve it forever. This is the `O(1)`-update end of Corollary 1's
//! tradeoff, paid for on the scan side.
//!
//! Both faces run the same bodies over [`Cells`]:
//! [`DoubleCollectSnapshot`] on real cells, [`SimDoubleCollectSnapshot`]
//! on simulator cells.

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use ruo_sim::{Machine, Memory, ObjId, ProcessId, Word};

use super::sim::SimSnapshot;
use crate::cells::{real_cells, run, Cells, Real, Words};
use crate::traits::Snapshot;

/// Largest storable segment value: the packed word spends 32 bits on the
/// per-segment sequence number.
pub const MAX_SEGMENT_VALUE: u64 = u32::MAX as u64;

#[inline]
fn pack(seq: u32, val: u32) -> Word {
    (((seq as u64) << 32) | val as u64) as Word
}

#[inline]
fn unpack(word: Word) -> (u32, u32) {
    (((word as u64) >> 32) as u32, word as u32)
}

/// `Update` of the single-writer segment `i`: read our own last word,
/// write `f(value)` with the next sequence number — read + write, no
/// CAS.
pub(crate) async fn update<C: Cells + ?Sized>(cells: &C, i: usize, f: impl FnOnce(u32) -> u32) {
    let (seq, val) = unpack(cells.load(i).await);
    cells.store(i, pack(seq.wrapping_add(1), f(val))).await;
}

fn check_value(v: u64) -> u32 {
    assert!(
        v <= MAX_SEGMENT_VALUE,
        "value {v} exceeds MAX_SEGMENT_VALUE"
    );
    v as u32
}

/// One collect: the cells of `range`, in order.
pub(super) async fn collect<C: Cells + ?Sized>(cells: &C, range: Range<usize>) -> Vec<Word> {
    let mut words = Vec::with_capacity(range.len());
    for cell in range {
        words.push(cells.load(cell).await);
    }
    words
}

/// Collects until two consecutive collects agree — a consistent cut —
/// and returns its values; gives up after `max_attempts` collects past
/// the first.
pub(crate) async fn double_collect<C: Cells + ?Sized>(
    cells: &C,
    n: usize,
    max_attempts: usize,
) -> Option<Vec<u64>> {
    let mut prev = collect(cells, 0..n).await;
    for _ in 0..max_attempts {
        let cur = collect(cells, 0..n).await;
        if prev == cur {
            return Some(cur.into_iter().map(|w| unpack(w).1 as u64).collect());
        }
        prev = cur;
    }
    None
}

/// Obstruction-free snapshot: `O(1)` updates, double-collect scans.
///
/// ```
/// use ruo_core::snapshot::DoubleCollectSnapshot;
/// use ruo_core::Snapshot;
/// use ruo_sim::ProcessId;
///
/// let snap = DoubleCollectSnapshot::new(3);
/// snap.update(ProcessId(1), 42);
/// assert_eq!(snap.scan(), vec![0, 42, 0]);
/// ```
pub struct DoubleCollectSnapshot {
    segments: Box<Words>,
}

impl fmt::Debug for DoubleCollectSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DoubleCollectSnapshot")
            .field("n", &self.segments.len())
            .finish()
    }
}

impl DoubleCollectSnapshot {
    /// Creates a snapshot with `n` zeroed segments.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "at least one segment required");
        DoubleCollectSnapshot {
            segments: real_cells(n, 0),
        }
    }

    /// A bounded-retry scan: attempts at most `max_attempts` double
    /// collects and returns `None` if updates kept interfering.
    ///
    /// `scan` (the trait method) can spin forever under a steady update
    /// stream — that is what obstruction-freedom means. Latency-bounded
    /// callers should use this and fall back (retry later, degrade to a
    /// possibly-torn read, …) on `None`.
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts == 0`.
    pub fn try_scan(&self, max_attempts: usize) -> Option<Vec<u64>> {
        assert!(max_attempts >= 1, "at least one attempt required");
        run(double_collect(
            &Real::new(&*self.segments),
            self.n(),
            max_attempts,
        ))
    }
}

impl Snapshot for DoubleCollectSnapshot {
    fn n(&self) -> usize {
        self.segments.len()
    }

    /// # Panics
    ///
    /// Panics if `v` exceeds [`MAX_SEGMENT_VALUE`] or `pid` is out of
    /// range.
    fn update(&self, pid: ProcessId, v: u64) {
        let v = check_value(v);
        run(update(&Real::new(&*self.segments), pid.index(), |_| v));
    }

    fn scan(&self) -> Vec<u64> {
        self.try_scan(usize::MAX)
            .expect("an unbounded scan returns")
    }
}

/// The double-collect snapshot as step machines, on the same bodies:
/// updates are exactly 2 steps; scans take `N` steps per collect and
/// collect until two consecutive collects agree.
#[derive(Debug)]
pub struct SimDoubleCollectSnapshot {
    pub(super) segments: Arc<[ObjId]>,
}

impl SimDoubleCollectSnapshot {
    /// Allocates `n` zeroed segments in `mem`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(mem: &mut Memory, n: usize) -> Self {
        assert!(n >= 1, "at least one segment required");
        SimDoubleCollectSnapshot {
            segments: mem.alloc_n(n, 0).into(),
        }
    }
}

impl SimSnapshot for SimDoubleCollectSnapshot {
    /// # Panics
    ///
    /// Panics if `v` exceeds [`MAX_SEGMENT_VALUE`].
    fn update(&self, pid: ProcessId, v: u64) -> Machine {
        let (segments, v) = (Arc::clone(&self.segments), check_value(v));
        Machine::new(async move {
            update(&*segments, pid.index(), |_| v).await;
            0
        })
    }

    fn scan(&self, _pid: ProcessId) -> Machine {
        let segments = Arc::clone(&self.segments);
        Machine::vector(async move {
            let cut = double_collect(&*segments, segments.len(), usize::MAX).await;
            let cut = cut.expect("an unbounded scan returns");
            cut.into_iter().map(|v| v as Word).collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::testing::explore_two_updaters_and_a_scanner;
    use std::sync::atomic::Ordering;

    #[test]
    fn fresh_snapshot_is_all_zero() {
        assert_eq!(DoubleCollectSnapshot::new(4).scan(), vec![0; 4]);
    }

    #[test]
    fn updates_land_in_own_segment() {
        let s = DoubleCollectSnapshot::new(3);
        s.update(ProcessId(0), 7);
        s.update(ProcessId(2), 9);
        assert_eq!(s.scan(), vec![7, 0, 9]);
    }

    #[test]
    fn repeated_updates_overwrite() {
        let s = DoubleCollectSnapshot::new(2);
        s.update(ProcessId(1), 1);
        s.update(ProcessId(1), 2);
        s.update(ProcessId(1), 3);
        assert_eq!(s.scan(), vec![0, 3]);
    }

    #[test]
    fn same_value_update_still_advances_seq() {
        // Writing the same value twice must still be detectable by a
        // concurrent scan (the seq changes) — regression guard for the
        // packing logic.
        let s = DoubleCollectSnapshot::new(1);
        s.update(ProcessId(0), 5);
        let w1 = s.segments[0].load(Ordering::SeqCst);
        s.update(ProcessId(0), 5);
        let w2 = s.segments[0].load(Ordering::SeqCst);
        assert_ne!(w1, w2);
        assert_eq!(unpack(w1).1, unpack(w2).1);
    }

    #[test]
    #[should_panic(expected = "MAX_SEGMENT_VALUE")]
    fn oversized_value_is_rejected() {
        DoubleCollectSnapshot::new(1).update(ProcessId(0), u64::MAX);
    }

    #[test]
    fn try_scan_succeeds_when_quiet() {
        let s = DoubleCollectSnapshot::new(3);
        s.update(ProcessId(1), 4);
        assert_eq!(s.try_scan(1), Some(vec![0, 4, 0]));
    }

    #[test]
    fn try_scan_gives_up_under_synthetic_interference() {
        // Interfere by writing between the collects from this same
        // thread: impossible via the public API, so emulate contention
        // by checking the bound is respected with a single attempt on a
        // snapshot being hammered from another thread.
        let s = Arc::new(DoubleCollectSnapshot::new(1));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer = {
            let s = Arc::clone(&s);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut v = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    v += 1;
                    s.update(ProcessId(0), v % 1000);
                }
            })
        };
        // With bounded attempts the call MUST return (either verdict).
        for _ in 0..1000 {
            let _ = s.try_scan(2);
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
        // Quiet again: must succeed.
        assert!(s.try_scan(1).is_some());
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn try_scan_rejects_zero_attempts() {
        let _ = DoubleCollectSnapshot::new(1).try_scan(0);
    }

    /// The planted bug: a scan that trusts a single collect.
    async fn single_collect<C: Cells + ?Sized>(cells: &C, n: usize) -> Vec<Word> {
        let words = collect(cells, 0..n).await;
        words.into_iter().map(|w| unpack(w).1 as Word).collect()
    }

    #[test]
    fn explorer_catches_a_single_collect_scan() {
        let build = |mem: &mut Memory, n| SimDoubleCollectSnapshot::new(mem, n);
        let single = |s: &SimDoubleCollectSnapshot| {
            let segments = Arc::clone(&s.segments);
            Machine::vector(async move { single_collect(&*segments, segments.len()).await })
        };
        let (violated, _) = explore_two_updaters_and_a_scanner(build, single);
        assert!(violated, "a single collect must be caught");
        let shipped = |s: &SimDoubleCollectSnapshot| s.scan(ProcessId(2));
        let (violated, schedules) = explore_two_updaters_and_a_scanner(build, shipped);
        assert!(!violated, "the shipped scan has no violation");
        assert!(schedules > 1);
    }

    #[test]
    fn concurrent_scans_see_consistent_states() {
        let s = Arc::new(DoubleCollectSnapshot::new(2));
        // Writer keeps both segments equal; scanners must never see them
        // differ by more than one step.
        let writer = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                for v in 1..=2000u64 {
                    s.update(ProcessId(0), v);
                    s.update(ProcessId(1), v);
                }
            })
        };
        let scanner = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                for _ in 0..200 {
                    let view = s.scan();
                    let diff = view[0].abs_diff(view[1]);
                    assert!(diff <= 1, "torn scan: {view:?}");
                }
            })
        };
        writer.join().unwrap();
        scanner.join().unwrap();
    }
}
