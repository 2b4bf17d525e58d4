//! What "restricted use" means in practice — and what happens at the
//! edges.
//!
//! The paper's positive results are for *restricted-use* objects:
//! bounded values (max registers) or polynomially many updates (counters,
//! snapshots). This example walks the bounds of every bounded structure
//! in the crate and shows the graceful-degradation story:
//!
//! * `AacMaxRegister::try_write_max` returns a typed error past the bound;
//! * `AacCounter` panics on increment `max_increments + 1` (the internal
//!   `WriteMax` would overflow) — shown via `catch_unwind`;
//! * `PathCopySnapshot` (like `AfekSnapshot`) enforces its update
//!   budget, because the record arena sized at construction is the
//!   resource its restriction protects;
//! * the unbounded structures (Algorithm A, f-array counter) keep going.
//!
//! Run with `cargo run --example restricted_use`.

use std::panic;

use ruo::core::counter::{AacCounter, FArrayCounter};
use ruo::core::maxreg::{AacMaxRegister, TreeMaxRegister};
use ruo::core::snapshot::PathCopySnapshot;
use ruo::core::{Counter, MaxRegister, Snapshot};
use ruo::sim::ProcessId;

fn main() {
    // The bound-violation demos below rely on panics; keep the output
    // readable by silencing the default backtrace printer.
    panic::set_hook(Box::new(|_| {}));
    let p0 = ProcessId(0);

    // ---- Bounded max register ----
    println!("== AacMaxRegister, capacity 16 (values 0..16) ==");
    let reg = AacMaxRegister::new(16);
    reg.write_max(p0, 15);
    println!(
        "  write_max(15)      -> ok, read_max() = {}",
        reg.read_max()
    );
    match reg.try_write_max(16) {
        Ok(()) => unreachable!(),
        Err(e) => println!("  try_write_max(16)  -> Err: {e}"),
    }
    println!("  (the register still reads {})", reg.read_max());

    // ---- Restricted-use counter ----
    println!("\n== AacCounter, max_increments = 3 ==");
    let counter = AacCounter::new(2, 3);
    for i in 1..=3 {
        counter.increment(p0);
        println!("  increment #{i}      -> ok, read() = {}", counter.read());
    }
    let result = panic::catch_unwind(|| counter.increment(p0));
    println!(
        "  increment #4      -> {}",
        if result.is_err() {
            "panicked (restricted-use bound exceeded)"
        } else {
            "unexpectedly succeeded!"
        }
    );

    // ---- Restricted-use snapshot ----
    println!("\n== PathCopySnapshot, 4 segments, max_updates = 5 ==");
    let snap = PathCopySnapshot::new(4, 5);
    for i in 1..=5u64 {
        snap.update(ProcessId((i % 4) as usize), i);
    }
    println!(
        "  5 updates          -> ok, scan() = {:?} ({} of {} budget used)",
        snap.scan(),
        snap.updates(),
        snap.max_updates()
    );
    let result = panic::catch_unwind(|| snap.update(p0, 99));
    println!(
        "  update #6          -> {}",
        if result.is_err() {
            "panicked (update budget exhausted)"
        } else {
            "unexpectedly succeeded!"
        }
    );

    // ---- The unbounded structures keep going ----
    println!("\n== Unbounded structures for comparison ==");
    let tree = TreeMaxRegister::new(2);
    tree.write_max(p0, u64::MAX >> 1); // largest encodable value (2^63 - 1)
    println!(
        "  TreeMaxRegister    -> write_max(2^63 - 1) ok, read_max() = {}",
        tree.read_max()
    );
    let farray = FArrayCounter::new(2);
    for _ in 0..10_000 {
        farray.increment(p0);
    }
    println!(
        "  FArrayCounter      -> 10_000 increments ok, read() = {}",
        farray.read()
    );

    println!("\nThe bounds are the *price* of the upper bounds: Theorem 2 says no");
    println!("read-optimal unrestricted counter from read/write/CAS can beat");
    println!("logarithmic updates anyway, and the AAC structures only achieve their");
    println!("polylog costs because the value/update space is capped.");
}
