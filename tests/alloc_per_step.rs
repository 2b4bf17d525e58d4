//! Allocation gate for simulated steps: an operation boxes its body
//! once, a step allocates nothing, and a one-access read allocates
//! nothing at all. Exploring a scope, and running a workload under the
//! executor, allocate less than they step.
//!
//! A counting global allocator tallies, per thread, the allocations made
//! while a machine is built and while it runs: every step, `Memory::apply`
//! included. An exploration and an executor run are counted whole. The
//! counts are deterministic, so the gate blocks where a wall-clock
//! comparison could only warn.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use ruo::core::counter::sim::{SimCounter, SimFArrayCounter};
use ruo::core::maxreg::sim::{SimMaxRegister, SimTreeMaxRegister};
use ruo::scenario::{explore_parts, ScenarioSpec};
use ruo::sim::explore::{explore, history_is_wellformed, ExploreConfig};
use ruo::sim::{
    run_solo, Executor, Machine, Memory, OpDesc, OpSpec, ProcessId, RandomScheduler,
    WorkloadBuilder,
};

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
/// its construction and every step.
fn solo(mem: &mut Memory, pid: ProcessId, make: impl FnOnce() -> Machine) -> (usize, usize) {
    let (machine, built) = counted(make);
    let ((_, steps), run) = counted(|| run_solo(mem, pid, machine));
    (built + run, steps)
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
fn ten_thousand_solo_reads_on_one_memory_allocate_nothing() {
    let mut mem = Memory::new();
    let counter = SimFArrayCounter::new(&mut mem, 64);
    let (steps, allocs) = counted(|| {
        (0..10_000)
            .map(|i| {
                let p = ProcessId(i % 64);
                run_solo(&mut mem, p, counter.read(p)).1
            })
            .sum::<usize>()
    });
    assert_eq!((steps, mem.steps()), (10_000, 10_000));
    assert_eq!(allocs, 0, "{allocs} allocations for 10,000 reads");
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

/// A W9-shaped run: the f-array counter at N = 4, each process
/// alternating increments and reads, 100 operations per process, under a
/// random schedule. What the run allocates grows with its operations
/// (each machine's box, the history), not with its steps, which
/// `mem.steps()` counts: a scheduling step allocates nothing, and a run
/// that no caller records keeps no events.
#[test]
fn executor_run_allocates_less_than_it_steps() {
    let n = 4;
    let mut mem = Memory::new();
    let counter = Arc::new(SimFArrayCounter::new(&mut mem, n));
    let mut w = WorkloadBuilder::new(n);
    for p in 0..n {
        let pid = ProcessId(p);
        for i in 0..100 {
            let c = Arc::clone(&counter);
            let op = if i % 2 == 0 {
                OpSpec::update(OpDesc::CounterIncrement, move || c.increment(pid))
            } else {
                OpSpec::value(OpDesc::CounterRead, move || c.read(pid))
            };
            w.op(pid, op);
        }
    }
    let mut sched = RandomScheduler::new(9);
    let (outcome, allocs) = counted(|| Executor::new().run(&mut mem, w, &mut sched));
    assert!(outcome.all_done);
    assert_eq!(outcome.history.len(), 400);
    let steps = mem.steps();
    assert!(allocs < steps, "{allocs} allocations for {steps} steps");
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
