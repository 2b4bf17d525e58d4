//! Corollary 1's counter-from-snapshot reduction under real concurrency:
//! this is how the paper transports the counter lower bound to
//! snapshots, so the counter that runs the double-collect snapshot's
//! bodies must count exactly. The path-copying and Afek scans are
//! checked directly in `linearizability_threads.rs`.

use std::sync::Arc;

use ruo::core::reduction::SnapshotCounter;
use ruo::core::Counter;
use ruo::sim::stepcount::{CountingMem, OpCounts};
use ruo::sim::ProcessId;

fn hammer(threads: usize, per: u64) {
    let counter = Arc::new(SnapshotCounter::new(threads));
    std::thread::scope(|s| {
        for t in 0..threads {
            let counter = Arc::clone(&counter);
            s.spawn(move || {
                let mut last = 0;
                for i in 0..per {
                    counter.increment(ProcessId(t));
                    if i % 16 == 0 {
                        let v = counter.read();
                        assert!(v >= last, "count regressed");
                        assert!(v <= threads as u64 * per, "overcount");
                        last = v;
                    }
                }
            });
        }
    });
    assert_eq!(counter.read(), threads as u64 * per);
}

#[test]
fn counter_from_double_collect_is_exact() {
    hammer(4, 500);
}

#[test]
fn reduction_uses_one_update_per_increment() {
    // The paper's reduction: CounterIncrement = exactly one Update, a
    // read and a write of the caller's own segment.
    let counter = SnapshotCounter::new(2);
    CountingMem::enable();
    for i in 1..=10u64 {
        CountingMem::begin_op();
        counter.increment(ProcessId(0));
        let steps = CountingMem::take_op_counts();
        assert_eq!(
            steps,
            OpCounts {
                reads: 1,
                writes: 1,
                ..OpCounts::new()
            },
            "increment {i}"
        );
    }
    CountingMem::disable();
    assert_eq!(counter.read(), 10);
}
