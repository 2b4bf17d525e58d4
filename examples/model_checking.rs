//! Scenario: verifying YOUR OWN lock-free algorithm with the simulator.
//!
//! Suppose you sketch a "max pair" — a register holding the two largest
//! values ever written, as two cells: `hi` and `lo`. First attempt:
//!
//! ```text
//! write(v):  h = read(hi)
//!            if v > h { write(hi, v); write(lo, h) }     // demote old max
//!            else if v > read(lo) { write(lo, v) }
//! read2():   (read(hi), read(lo))
//! ```
//!
//! Plausible — and wrong. This example (1) expresses the algorithm as
//! simulator step machines in ~30 lines, (2) lets the exhaustive
//! explorer find a breaking schedule automatically, and (3) shows the
//! CAS-repaired version passing the same exploration.
//!
//! Run with `cargo run --release --example model_checking`.

use ruo::sim::explore::{enumerate, ExploreOp};
use ruo::sim::history::OpOutput;
use ruo::sim::{access, Machine, Memory, ObjId, OpDesc, Prim, ProcessId};

/// The buggy write: plain writes, check-then-act races everywhere.
fn buggy_write(hi: ObjId, lo: ObjId, v: i64) -> Machine {
    Machine::new(async move {
        let h = access(Prim::Read(hi)).await;
        if v > h {
            access(Prim::Write(hi, v)).await;
            access(Prim::Write(lo, h)).await; // demote old max
        } else if v > access(Prim::Read(lo)).await {
            access(Prim::Write(lo, v)).await;
        }
        0
    })
}

/// The repaired write: raise each cell with a CAS loop, demoting what
/// the `hi` swap displaced.
fn fixed_write(hi: ObjId, lo: ObjId, v: i64) -> Machine {
    /// Raises `cell` to `v`; returns what to try on the next cell down.
    async fn raise(cell: ObjId, v: i64) -> Option<i64> {
        loop {
            let cur = access(Prim::Read(cell)).await;
            if v <= cur {
                return Some(v); // v didn't displace anything here; try lower
            }
            let swap = Prim::Cas {
                obj: cell,
                expected: cur,
                new: v,
            };
            if access(swap).await == cur {
                return (cur >= 0).then_some(cur);
            }
        }
    }
    Machine::new(async move {
        if let Some(displaced) = raise(hi, v).await {
            raise(lo, displaced).await;
        }
        0
    })
}

fn read2(hi: ObjId, lo: ObjId) -> Machine {
    Machine::new(async move {
        let h = access(Prim::Read(hi)).await;
        h * 1000 + access(Prim::Read(lo)).await
    })
}

/// The spec: if the read2 ran strictly after both writes of {5, 7}
/// completed, it must see hi = 7, lo = 5. (Histories are sorted by
/// invocation time, so locate operations by process id.)
fn quiescent_read_is_correct(h: &ruo::sim::History) -> bool {
    let reader = h
        .ops()
        .iter()
        .find(|o| o.pid == ProcessId(2))
        .expect("reader present");
    let quiescent = h
        .ops()
        .iter()
        .filter(|o| o.pid != ProcessId(2))
        .all(|w| w.response.unwrap() <= reader.invoke);
    if !quiescent {
        return true; // only quiescent reads have a determined answer
    }
    matches!(reader.output, Some(OpOutput::Value(v)) if v == 7 * 1000 + 5)
}

fn explore(name: &str, make: fn(ObjId, ObjId, i64) -> Machine) {
    let setup = move || {
        let mut mem = Memory::new();
        let hi = mem.alloc(-1);
        let lo = mem.alloc(-1);
        (
            mem,
            vec![
                make(hi, lo, 5),
                make(hi, lo, 7),
                // The explorer interleaves the reader everywhere; the
                // checker only judges schedules where it ran quiescently.
                read2(hi, lo),
            ],
        )
    };
    let ops = vec![
        ExploreOp {
            pid: ProcessId(0),
            desc: OpDesc::WriteMax(5),
            returns_value: false,
        },
        ExploreOp {
            pid: ProcessId(1),
            desc: OpDesc::WriteMax(7),
            returns_value: false,
        },
        ExploreOp {
            pid: ProcessId(2),
            desc: OpDesc::ReadMax,
            returns_value: true,
        },
    ];
    let summary = enumerate(&setup, &ops, &mut quiescent_read_is_correct, 2_000_000);
    match summary.violation {
        Some(schedule) => println!(
            "{name}: BROKEN — quiescent read missed a value after {} schedules\n  schedule: {:?}",
            summary.schedules, schedule
        ),
        None => println!(
            "{name}: no violation in {} schedules (truncated: {})",
            summary.schedules, summary.truncated
        ),
    }
}

fn main() {
    println!("model-checking a user-written \"top two values\" register\n");
    explore("naive read-then-write", buggy_write);
    explore("CAS raise-and-demote ", fixed_write);
    println!("\nThe naive version loses a value when both writers read `hi` before");
    println!("either writes it (or when the demotion of the old maximum races a");
    println!("direct `lo` update). The explorer finds such a schedule mechanically —");
    println!("the same harness that validates this repository's algorithms.");
}
