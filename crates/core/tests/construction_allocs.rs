//! Allocation gate for building the tree objects: the f-array and
//! Algorithm A lay out their arena, leaf lists and path table each sized
//! before it is filled, so building one takes the same number of
//! allocations at every size.
//!
//! A counting global allocator tallies, per thread, the allocations made
//! while an object is built. The counts are deterministic, so the gate
//! blocks where a wall-clock comparison of set-up time could only warn.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ruo_core::farray::{FArray, Sum};
use ruo_core::maxreg::TreeMaxRegister;

/// The system allocator, counting allocations on threads that asked for
/// it.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: both calls are forwarded unchanged to `System`, and the count
// only touches constant-initialized thread-locals, which never allocate.
// The default `alloc_zeroed` and `realloc` go through `alloc`, so a
// regrown `Vec` is counted too.
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

/// The allocations `build` makes on this thread; what it builds is
/// dropped uncounted.
fn allocs<T>(build: impl FnOnce() -> T) -> usize {
    let before = ALLOCS.get();
    COUNTING.set(true);
    let built = build();
    COUNTING.set(false);
    drop(built);
    ALLOCS.get() - before
}

#[test]
fn farray_builds_in_a_fixed_number_of_allocations() {
    // The arena, the leaf list, the table's steps and spans, the cells.
    for n in [64, 1024] {
        assert_eq!(allocs(|| FArray::<Sum>::new(n)), 5, "n={n}");
    }
}

#[test]
fn algorithm_a_builds_in_a_fixed_number_of_allocations() {
    // The f-array's five, with the leaves in two lists: B1 and TR.
    for n in [64, 1024] {
        assert_eq!(allocs(|| TreeMaxRegister::new(n)), 6, "n={n}");
    }
}
