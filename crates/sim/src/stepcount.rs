//! Step counting for the *real-atomics* world.
//!
//! The simulator counts steps exactly: every [`crate::Memory::apply`]
//! logs one event, and histories carry per-op
//! step counts natively. Real threads have no such seam — so the core
//! implementations store their shared state in [`CountingU64`] /
//! [`CountingI64`] instead of bare `AtomicU64` / `AtomicI64`. Each
//! wrapper method forwards to the underlying atomic with the caller's
//! ordering and, *when counting is enabled*, bumps a thread-local
//! per-operation tally ([`OpCounts`]) classified the same way the sim
//! classifies its events: read, write, CAS-success, CAS-failure.
//!
//! Cost when disabled (the default): one `Relaxed` load of a process-wide
//! flag and a predictable branch per shared-memory access — no shared
//! writes, no fences. Timed throughput batches run with counting
//! disabled, so the wrapper is invisible to W4-style measurements.
//!
//! Enabling is process-wide ([`CountingMem::enable`]); the tallies are
//! thread-local, so concurrent operations never contend on them. A
//! harness brackets each high-level operation with
//! [`CountingMem::begin_op`] / [`CountingMem::take_op_counts`] on the
//! thread that runs it.
//!
//! Implementations whose shared state is not a plain integer cell (e.g.
//! pointer-swinging snapshots) count their primitive events manually via
//! [`count_read`] / [`count_write`] / [`count_cas`].
//!
//! ```
//! use ruo_sim::stepcount::{CountingMem, CountingU64};
//! use std::sync::atomic::Ordering;
//!
//! let cell = CountingU64::new(0);
//! CountingMem::enable();
//! CountingMem::begin_op();
//! cell.store(7, Ordering::SeqCst);
//! assert_eq!(cell.load(Ordering::SeqCst), 7);
//! let counts = CountingMem::take_op_counts();
//! CountingMem::disable();
//! assert_eq!((counts.reads, counts.writes), (1, 1));
//! assert_eq!(counts.steps(), 2);
//! ```

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

use crate::Event;

/// Process-wide switch; `Relaxed` loads on the hot path.
static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// The current operation's tally on this thread.
    static OP_COUNTS: Cell<OpCounts> = const { Cell::new(OpCounts::new()) };
}

/// Primitive-event tally, classified like the simulator's events: of
/// one real operation, one simulated operation or execution, or an
/// explorer's forward steps. The four tallies partition the steps, so
/// [`steps`](OpCounts::steps) *is* the step count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Reads (atomic loads).
    pub reads: u64,
    /// Writes (atomic stores).
    pub writes: u64,
    /// Successful CAS events. Hardware read-modify-writes that cannot
    /// fail (`fetch_add`) are counted here too: they are one primitive
    /// event that always mutates.
    pub cas_ok: u64,
    /// Failed CAS events.
    pub cas_fail: u64,
}

impl OpCounts {
    /// The all-zero tally.
    pub const fn new() -> Self {
        OpCounts {
            reads: 0,
            writes: 0,
            cas_ok: 0,
            cas_fail: 0,
        }
    }

    /// Total shared-memory events — the paper's step count.
    pub fn steps(&self) -> u64 {
        self.reads + self.writes + self.cas_ok + self.cas_fail
    }

    /// Adds another tally into this one.
    pub fn add(&mut self, other: &OpCounts) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.cas_ok += other.cas_ok;
        self.cas_fail += other.cas_fail;
    }

    /// Classifies one simulator event into the matching tally.
    pub fn add_event(&mut self, ev: &Event) {
        if ev.prim.is_read() {
            self.reads += 1;
        } else if ev.prim.is_write() {
            self.writes += 1;
        } else if ev.cas_succeeded() {
            self.cas_ok += 1;
        } else {
            self.cas_fail += 1;
        }
    }
}

/// Controller for the real-world counting instrumentation.
///
/// A unit struct carrying the global enable switch and the per-thread
/// operation tallies; see the module docs for the protocol.
#[derive(Debug)]
pub struct CountingMem;

impl CountingMem {
    /// Turns counting on, process-wide.
    pub fn enable() {
        ENABLED.store(true, Ordering::SeqCst);
    }

    /// Turns counting off, process-wide.
    pub fn disable() {
        ENABLED.store(false, Ordering::SeqCst);
    }

    /// Whether counting is currently enabled.
    #[inline]
    pub fn is_enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Resets this thread's tally; call just before an operation.
    pub fn begin_op() {
        OP_COUNTS.with(|c| c.set(OpCounts::new()));
    }

    /// Reads and resets this thread's tally; call just after an
    /// operation.
    pub fn take_op_counts() -> OpCounts {
        OP_COUNTS.with(|c| c.replace(OpCounts::new()))
    }
}

#[inline]
fn bump(f: impl FnOnce(&mut OpCounts)) {
    if ENABLED.load(Ordering::Relaxed) {
        OP_COUNTS.with(|c| {
            let mut counts = c.get();
            f(&mut counts);
            c.set(counts);
        });
    }
}

/// Counts one read event (for manually instrumented implementations).
#[inline]
pub fn count_read() {
    bump(|c| c.reads += 1);
}

/// Counts one write event (for manually instrumented implementations).
#[inline]
pub fn count_write() {
    bump(|c| c.writes += 1);
}

/// Counts one CAS event (for manually instrumented implementations).
#[inline]
pub fn count_cas(ok: bool) {
    bump(|c| {
        if ok {
            c.cas_ok += 1;
        } else {
            c.cas_fail += 1;
        }
    });
}

/// An `AtomicU64` that counts its accesses into the thread-local
/// per-operation tally when [`CountingMem`] is enabled.
///
/// Method-for-method compatible with the `AtomicU64` surface the core
/// implementations use; orderings pass straight through.
#[derive(Debug, Default)]
pub struct CountingU64 {
    inner: AtomicU64,
}

impl CountingU64 {
    /// A new cell holding `v`.
    pub const fn new(v: u64) -> Self {
        CountingU64 {
            inner: AtomicU64::new(v),
        }
    }

    /// Counted [`AtomicU64::load`].
    #[inline]
    pub fn load(&self, order: Ordering) -> u64 {
        count_read();
        self.inner.load(order)
    }

    /// Counted [`AtomicU64::store`].
    #[inline]
    pub fn store(&self, v: u64, order: Ordering) {
        count_write();
        self.inner.store(v, order);
    }

    /// Counted [`AtomicU64::compare_exchange`].
    #[inline]
    pub fn compare_exchange(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        let r = self.inner.compare_exchange(current, new, success, failure);
        count_cas(r.is_ok());
        r
    }

    /// Counted [`AtomicU64::fetch_add`] (tallied as a successful RMW).
    #[inline]
    pub fn fetch_add(&self, v: u64, order: Ordering) -> u64 {
        count_cas(true);
        self.inner.fetch_add(v, order)
    }
}

/// An `AtomicI64` that counts its accesses into the thread-local
/// per-operation tally when [`CountingMem`] is enabled.
#[derive(Debug, Default)]
pub struct CountingI64 {
    inner: AtomicI64,
}

impl CountingI64 {
    /// A new cell holding `v`.
    pub const fn new(v: i64) -> Self {
        CountingI64 {
            inner: AtomicI64::new(v),
        }
    }

    /// Counted [`AtomicI64::load`].
    #[inline]
    pub fn load(&self, order: Ordering) -> i64 {
        count_read();
        self.inner.load(order)
    }

    /// Counted [`AtomicI64::store`].
    #[inline]
    pub fn store(&self, v: i64, order: Ordering) {
        count_write();
        self.inner.store(v, order);
    }

    /// Counted [`AtomicI64::compare_exchange`].
    #[inline]
    pub fn compare_exchange(
        &self,
        current: i64,
        new: i64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<i64, i64> {
        let r = self.inner.compare_exchange(current, new, success, failure);
        count_cas(r.is_ok());
        r
    }

    /// Counted [`AtomicI64::fetch_add`] (tallied as a successful RMW).
    #[inline]
    pub fn fetch_add(&self, v: i64, order: Ordering) -> i64 {
        count_cas(true);
        self.inner.fetch_add(v, order)
    }
}

/// Serializes tests that touch the process-wide switch (the sim crate's
/// own tests and the recorder's run in one binary, in parallel threads).
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The switch is process-wide, so tests sharing it must serialize.
    fn with_counting<T>(f: impl FnOnce() -> T) -> T {
        let _g = test_lock();
        CountingMem::enable();
        CountingMem::begin_op();
        let out = f();
        CountingMem::disable();
        out
    }

    #[test]
    fn disabled_counting_tallies_nothing() {
        let _g = test_lock();
        let cell = CountingU64::new(0);
        CountingMem::begin_op();
        cell.store(1, Ordering::SeqCst);
        let _ = cell.load(Ordering::SeqCst);
        assert_eq!(CountingMem::take_op_counts(), OpCounts::new());
    }

    #[test]
    fn every_event_kind_is_classified() {
        let counts = with_counting(|| {
            let cell = CountingU64::new(0);
            cell.store(5, Ordering::SeqCst);
            let _ = cell.load(Ordering::Acquire);
            assert!(cell
                .compare_exchange(5, 6, Ordering::AcqRel, Ordering::Acquire)
                .is_ok());
            assert!(cell
                .compare_exchange(5, 7, Ordering::AcqRel, Ordering::Acquire)
                .is_err());
            cell.fetch_add(1, Ordering::Relaxed);
            CountingMem::take_op_counts()
        });
        assert_eq!(counts.reads, 1);
        assert_eq!(counts.writes, 1);
        assert_eq!(counts.cas_ok, 2); // CAS success + fetch_add
        assert_eq!(counts.cas_fail, 1);
        assert_eq!(counts.steps(), 5);
    }

    #[test]
    fn take_resets_the_tally() {
        let counts = with_counting(|| {
            let cell = CountingI64::new(-3);
            let _ = cell.load(Ordering::SeqCst);
            let first = CountingMem::take_op_counts();
            assert_eq!(first.steps(), 1);
            CountingMem::take_op_counts()
        });
        assert_eq!(counts, OpCounts::new());
    }

    #[test]
    fn counts_are_thread_local() {
        let counts = with_counting(|| {
            let cell = std::sync::Arc::new(CountingI64::new(0));
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let cell = std::sync::Arc::clone(&cell);
                    s.spawn(move || {
                        CountingMem::begin_op();
                        for _ in 0..100 {
                            cell.fetch_add(1, Ordering::SeqCst);
                        }
                        assert_eq!(CountingMem::take_op_counts().cas_ok, 100);
                    });
                }
            });
            // The spawning thread saw none of the workers' events.
            CountingMem::take_op_counts()
        });
        assert_eq!(counts, OpCounts::new());
    }
}
