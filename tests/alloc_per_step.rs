//! Allocation gate for simulated steps: an operation boxes its body
//! once, a step allocates nothing, and a one-access read allocates
//! nothing at all. Exploring a scope allocates less than it steps.
//!
//! A counting global allocator tallies, per thread, the allocations made
//! while a machine is built and while it is fed its responses. Applying
//! an event to `Memory` is left out of the solo runs: its event log grows
//! on its own. An exploration is counted whole. The counts are
//! deterministic, so the gate blocks where a wall-clock comparison could
//! only warn.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ruo::core::counter::sim::{SimCounter, SimFArrayCounter};
use ruo::core::maxreg::sim::{SimMaxRegister, SimTreeMaxRegister};
use ruo::scenario::{explore_parts, ScenarioSpec};
use ruo::sim::explore::{explore, history_is_wellformed, ExploreConfig};
use ruo::sim::{Machine, Memory, ProcessId};

/// The system allocator, counting allocations on threads that asked for
/// it.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: both calls are forwarded unchanged to `System`, and the
// count only touches constant-initialized thread-locals, which never
// allocate. The default `alloc_zeroed` and `realloc` go through `alloc`,
// so they are counted too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.get() {
            ALLOCS.set(ALLOCS.get() + 1);
        }
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`, returning its output and the allocations it made on this
/// thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.get();
    COUNTING.set(true);
    let out = f();
    COUNTING.set(false);
    (out, ALLOCS.get() - before)
}

/// Runs the machine `make` builds solo: `(allocations, steps)`, counting
/// its construction and every `feed`, but not `Memory::apply`.
fn solo(mem: &mut Memory, pid: ProcessId, make: impl FnOnce() -> Machine) -> (usize, usize) {
    let (mut machine, mut allocs) = counted(make);
    while let Some(prim) = machine.enabled() {
        let resp = mem.apply(pid, prim);
        allocs += counted(|| machine.feed(resp)).1;
    }
    (allocs, machine.steps())
}

#[test]
fn one_access_reads_allocate_nothing() {
    let p = ProcessId(0);
    let mut mem = Memory::new();
    let counter = SimFArrayCounter::new(&mut mem, 64);
    assert_eq!(solo(&mut mem, p, || counter.read(p)), (0, 1));
    let mut mem = Memory::new();
    let reg = SimTreeMaxRegister::new(&mut mem, 64);
    assert_eq!(solo(&mut mem, p, || reg.read_max(p)), (0, 1));
}

#[test]
fn farray_increment_allocates_once_whatever_its_steps() {
    let p = ProcessId(1);
    let increment = |n: usize| {
        let mut mem = Memory::new();
        let counter = SimFArrayCounter::new(&mut mem, n);
        solo(&mut mem, p, || counter.increment(p))
    };
    let (small, small_steps) = increment(2);
    let (large, large_steps) = increment(64);
    assert_eq!((small_steps, large_steps), (6, 26));
    assert_eq!(small, large, "allocations grew with the steps");
    assert!(large <= 1, "{large} allocations for one increment");
}

#[test]
fn algorithm_a_write_allocates_at_most_once() {
    let p = ProcessId(5);
    let mut mem = Memory::new();
    let reg = SimTreeMaxRegister::new(&mut mem, 64);
    let (allocs, steps) = solo(&mut mem, p, || reg.write_max(p, 1 << 16));
    assert_eq!(steps, 58);
    assert!(allocs <= 1, "{allocs} allocations for one write");
}

/// The pruned W5 scope, built as the scenario suite builds it: three
/// writers and a reader on Algorithm A with N = 4 and the root fast
/// path, after a seed `WriteMax(3)`.
#[test]
fn exploring_keeps_machines_and_allocates_less_than_it_steps() {
    let spec = ScenarioSpec::parse(include_str!("../scenarios/w5_explore_pruned.json"))
        .expect("the W5 scenario parses");
    let parts = explore_parts(&spec).expect("the W5 scope builds");
    let calls = Cell::new(0usize);
    let setup = || {
        calls.set(calls.get() + 1);
        (parts.setup)()
    };
    let cfg = ExploreConfig {
        max_schedules: 100_000,
        prune: true,
        max_crashes: 0,
    };
    let (summary, allocs) =
        counted(|| explore(&setup, &parts.ops, &mut history_is_wellformed, cfg));
    assert!(summary.violation.is_none() && !summary.truncated);
    assert_eq!(
        (summary.schedules, summary.stats.executed_steps),
        (696, 8_748)
    );
    // A machine is rebuilt only when a step's response differs from the
    // one it consumed at that position.
    assert!(
        calls.get() < summary.schedules,
        "{} setup calls for {} schedules",
        calls.get(),
        summary.schedules
    );
    // No DFS node allocates: what is left is each schedule's history and
    // the rebuilds.
    assert!(
        (allocs as u64) < summary.stats.executed_steps,
        "{allocs} allocations for {} executed steps",
        summary.stats.executed_steps
    );
}
