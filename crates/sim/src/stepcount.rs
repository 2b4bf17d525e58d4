//! Step counting for the *real-atomics* world.
//!
//! The simulator counts steps exactly: every [`crate::Memory::apply`]
//! is one event, and histories carry per-op step counts natively. Real
//! threads have no such seam, so a real operation counts its own
//! accesses: it reads the process-wide switch once, when it starts, into
//! a [`Tally`], and reports each shared-memory access to it. When the
//! switch was on, the tally adds the access to a thread-local
//! per-operation [`OpCounts`], classified the same way the sim
//! classifies its events: read, write, CAS-success, CAS-failure.
//!
//! Cost when disabled (the default): one `Relaxed` load of the switch
//! per operation, and per access a branch on a value the operation
//! already holds, which the compiler can hoist out of a loop. An
//! `N`-cell collect therefore pays one flag load, not `N`. A load per
//! access was far from free: when every access loaded the flag, the
//! sharded counter's 64-stripe collect in perfbench's `objects`
//! workload took 69 ns traced, against 31 ns with one load per
//! operation (medians of eight seeds, EXPERIMENTS.md § W4). A one-load
//! read still pays one flag load beside its access.
//!
//! Enabling is process-wide ([`CountingMem::enable`]); the tallies are
//! thread-local, so concurrent operations never contend on them. A
//! harness brackets each high-level operation with
//! [`CountingMem::begin_op`] / [`CountingMem::take_op_counts`] on the
//! thread that runs it; an operation that starts while counting is off
//! is not counted, even if counting is turned on before it ends.
//!
//! ```
//! use ruo_sim::stepcount::{CountingMem, Tally};
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let cell = AtomicU64::new(0);
//! CountingMem::enable();
//! CountingMem::begin_op();
//! let tally = Tally::start();
//! tally.write();
//! cell.store(7, Ordering::SeqCst);
//! tally.read();
//! assert_eq!(cell.load(Ordering::SeqCst), 7);
//! let counts = CountingMem::take_op_counts();
//! CountingMem::disable();
//! assert_eq!((counts.reads, counts.writes), (1, 1));
//! assert_eq!(counts.steps(), 2);
//! ```

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::Event;

/// The process-wide switch; an operation loads it once, `Relaxed`, into
/// its [`Tally`].
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

/// The counting switch as one operation read it when it started.
///
/// A real operation makes its tally first ([`Tally::start`], the one
/// load of the switch) and reports each of its accesses to it; the
/// tally adds the access to this thread's [`OpCounts`] when counting
/// was on, and does nothing otherwise. Nothing else decides whether a
/// real access counts.
#[derive(Clone, Copy, Debug)]
pub struct Tally {
    on: bool,
}

impl Tally {
    /// Reads the switch, for an operation that starts now.
    #[inline]
    pub fn start() -> Tally {
        Tally {
            on: CountingMem::is_enabled(),
        }
    }

    #[inline]
    fn bump(self, f: impl FnOnce(&mut OpCounts)) {
        if self.on {
            OP_COUNTS.with(|c| {
                let mut counts = c.get();
                f(&mut counts);
                c.set(counts);
            });
        }
    }

    /// Counts one read.
    #[inline]
    pub fn read(self) {
        self.bump(|c| c.reads += 1);
    }

    /// Counts one write.
    #[inline]
    pub fn write(self) {
        self.bump(|c| c.writes += 1);
    }

    /// Counts one CAS, successful or not. A read-modify-write that
    /// cannot fail (`fetch_add`) counts as a successful CAS: it is one
    /// primitive event that always mutates.
    #[inline]
    pub fn cas(self, ok: bool) {
        self.bump(|c| {
            if ok {
                c.cas_ok += 1;
            } else {
                c.cas_fail += 1;
            }
        });
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
        CountingMem::begin_op();
        let tally = Tally::start();
        tally.write();
        tally.read();
        assert_eq!(CountingMem::take_op_counts(), OpCounts::new());
    }

    #[test]
    fn an_operation_reads_the_switch_once() {
        let _g = test_lock();
        CountingMem::begin_op();
        let before = Tally::start();
        CountingMem::enable();
        let during = Tally::start();
        CountingMem::disable();
        before.read();
        during.read();
        during.cas(false);
        let counts = CountingMem::take_op_counts();
        assert_eq!((counts.reads, counts.cas_fail, counts.steps()), (1, 1, 2));
    }

    #[test]
    fn every_event_kind_is_classified() {
        let counts = with_counting(|| {
            let tally = Tally::start();
            tally.write();
            tally.read();
            tally.cas(true);
            tally.cas(false);
            tally.cas(true); // a fetch_add
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
            Tally::start().read();
            let first = CountingMem::take_op_counts();
            assert_eq!(first.steps(), 1);
            CountingMem::take_op_counts()
        });
        assert_eq!(counts, OpCounts::new());
    }

    #[test]
    fn counts_are_thread_local() {
        let counts = with_counting(|| {
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        CountingMem::begin_op();
                        let tally = Tally::start();
                        for _ in 0..100 {
                            tally.cas(true);
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
