//! Linearizability of the real-atomics implementations under genuine
//! hardware concurrency (experiment T5, real-thread half).
//!
//! Threads time-stamp each operation's invocation and response with
//! [`ThreadRecorder`]'s shared tick counter; the recorded histories are checked
//! with the same complete interval checker the simulator histories go
//! through. Any violation it reports is a real linearizability bug.

use ruo::core::counter::{AacCounter, FArrayCounter, FetchAddCounter, ShardedCounter};
use ruo::core::maxreg::{
    AacMaxRegister, CasRetryMaxRegister, FArrayMaxRegister, LockMaxRegister, TreeMaxRegister,
};
use ruo::core::snapshot::{AfekSnapshot, DoubleCollectSnapshot, PathCopySnapshot};
use ruo::core::{Counter, MaxRegister, Snapshot};
use ruo::sim::history::{OpDesc, OpOutput};
use ruo::sim::lin::check_interval;
use ruo::sim::recorder::ThreadRecorder;
use ruo::sim::spec::SeqSpec;
use ruo::sim::ProcessId;
use std::sync::atomic::{AtomicU64, Ordering};

fn exercise_maxreg<R: MaxRegister>(reg: &R, name: &str) {
    let rec = ThreadRecorder::new();
    let threads = 4;
    let ops = 300u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            let rec = &rec;
            s.spawn(move || {
                let pid = ProcessId(t);
                for i in 0..ops {
                    if i % 3 == 2 {
                        rec.record(pid, OpDesc::ReadMax, || {
                            let v = reg.read_max();
                            OpOutput::Value(v as i64)
                        });
                    } else {
                        let v = i * threads as u64 + t as u64 + 1;
                        rec.record(pid, OpDesc::WriteMax(v as i64), || {
                            reg.write_max(pid, v);
                            OpOutput::Unit
                        });
                    }
                }
            });
        }
    });
    let history = rec.history();
    check_interval(&history, &SeqSpec::MaxRegister { initial: 0 })
        .unwrap_or_else(|v| panic!("{name}: {v}"));
}

#[test]
fn tree_max_register_threads_are_linearizable() {
    exercise_maxreg(&TreeMaxRegister::new(4), "TreeMaxRegister");
}

#[test]
fn aac_max_register_threads_are_linearizable() {
    exercise_maxreg(&AacMaxRegister::new(1 << 12), "AacMaxRegister");
}

#[test]
fn cas_retry_max_register_threads_are_linearizable() {
    exercise_maxreg(&CasRetryMaxRegister::new(), "CasRetryMaxRegister");
}

#[test]
fn lock_max_register_threads_are_linearizable() {
    exercise_maxreg(&LockMaxRegister::new(), "LockMaxRegister");
}

#[test]
fn farray_max_register_threads_are_linearizable() {
    exercise_maxreg(&FArrayMaxRegister::new(4), "FArrayMaxRegister");
}

/// Contended stress config: more threads than the 4-thread smoke runs,
/// with a mix of deliberately dominated writes (small values that hit
/// the O(1) root fast path long after larger maxima land) and fresh
/// maxima. This is the workload where an unsound early return would
/// lose a completed write.
fn exercise_maxreg_contended<R: MaxRegister>(reg: &R, name: &str) {
    let rec = ThreadRecorder::new();
    let threads = 8;
    let ops = 400u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            let rec = &rec;
            s.spawn(move || {
                let pid = ProcessId(t);
                for i in 0..ops {
                    match i % 4 {
                        0 => {
                            // Fresh maximum: strictly growing across the run.
                            let v = i * threads as u64 + t as u64 + 1;
                            rec.record(pid, OpDesc::WriteMax(v as i64), || {
                                reg.write_max(pid, v);
                                OpOutput::Unit
                            });
                        }
                        1 | 2 => {
                            // Dominated write: bounded by the values the
                            // `i % 4 == 0` branch wrote many rounds ago,
                            // so under contention it almost always sees
                            // `root >= v` and returns via the fast path.
                            let v = (i / 4) * threads as u64 + 1;
                            rec.record(pid, OpDesc::WriteMax(v as i64), || {
                                reg.write_max(pid, v);
                                OpOutput::Unit
                            });
                        }
                        _ => {
                            rec.record(pid, OpDesc::ReadMax, || {
                                let v = reg.read_max();
                                OpOutput::Value(v as i64)
                            });
                        }
                    }
                }
            });
        }
    });
    let history = rec.history();
    check_interval(&history, &SeqSpec::MaxRegister { initial: 0 })
        .unwrap_or_else(|v| panic!("{name}: {v}"));
}

#[test]
fn tree_max_register_contended_mixed_writes_are_linearizable() {
    exercise_maxreg_contended(&TreeMaxRegister::new(8), "TreeMaxRegister/contended");
}

#[test]
fn elimination_tree_max_register_threads_are_linearizable() {
    exercise_maxreg(
        &TreeMaxRegister::with_elimination(4),
        "TreeMaxRegister+elim",
    );
}

#[test]
fn elimination_tree_max_register_contended_mixed_writes_are_linearizable() {
    // The dominated-write mix is exactly the regime the per-level
    // elimination scan targets: most writes stop at an interior node
    // and run only the partial upward climb. An unsound early return
    // (skipping the climb past a stalled cover) would surface here as a
    // lost maximum.
    exercise_maxreg_contended(
        &TreeMaxRegister::with_elimination(8),
        "TreeMaxRegister+elim/contended",
    );
}

#[test]
fn farray_max_register_contended_mixed_writes_are_linearizable() {
    exercise_maxreg_contended(&FArrayMaxRegister::new(8), "FArrayMaxRegister/contended");
}

#[test]
fn cas_retry_max_register_contended_mixed_writes_are_linearizable() {
    exercise_maxreg_contended(&CasRetryMaxRegister::new(), "CasRetryMaxRegister/contended");
}

#[test]
fn aac_max_register_contended_mixed_writes_are_linearizable() {
    exercise_maxreg_contended(&AacMaxRegister::new(1 << 12), "AacMaxRegister/contended");
}

#[test]
fn unbalanced_aac_max_register_contended_mixed_writes_are_linearizable() {
    exercise_maxreg_contended(
        &AacMaxRegister::new_unbalanced(1 << 12),
        "AacMaxRegister unbalanced/contended",
    );
}

fn exercise_counter<C: Counter>(counter: &C, name: &str) {
    let rec = ThreadRecorder::new();
    let threads = 4;
    let ops = 300u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            let rec = &rec;
            s.spawn(move || {
                let pid = ProcessId(t);
                for i in 0..ops {
                    if i % 3 == 2 {
                        rec.record(pid, OpDesc::CounterRead, || {
                            let v = counter.read();
                            OpOutput::Value(v as i64)
                        });
                    } else {
                        rec.record(pid, OpDesc::CounterIncrement, || {
                            counter.increment(pid);
                            OpOutput::Unit
                        });
                    }
                }
            });
        }
    });
    let history = rec.history();
    check_interval(&history, &SeqSpec::Counter).unwrap_or_else(|v| panic!("{name}: {v}"));
}

/// Contended counter stress: 8 threads, write-heavy (3 increments per
/// read), the regime where f-array climbs collide and the sharded reads
/// must merge in-flight stripes. A climb that loses an increment, or a
/// collect that double-counts a stripe, fails the checker here.
fn exercise_counter_contended<C: Counter>(counter: &C, name: &str) {
    let rec = ThreadRecorder::new();
    let threads = 8;
    let ops = 400u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            let rec = &rec;
            s.spawn(move || {
                let pid = ProcessId(t);
                for i in 0..ops {
                    if i % 4 == 3 {
                        rec.record(pid, OpDesc::CounterRead, || {
                            let v = counter.read();
                            OpOutput::Value(v as i64)
                        });
                    } else {
                        rec.record(pid, OpDesc::CounterIncrement, || {
                            counter.increment(pid);
                            OpOutput::Unit
                        });
                    }
                }
            });
        }
    });
    let history = rec.history();
    check_interval(&history, &SeqSpec::Counter).unwrap_or_else(|v| panic!("{name}: {v}"));
}

#[test]
fn farray_counter_threads_are_linearizable() {
    exercise_counter(&FArrayCounter::new(4), "FArrayCounter");
}

#[test]
fn sharded_counter_threads_are_linearizable() {
    exercise_counter(&ShardedCounter::new(4), "ShardedCounter");
}

#[test]
fn sharded_counter_contended_threads_are_linearizable() {
    exercise_counter_contended(&ShardedCounter::new(8), "ShardedCounter/contended");
}

#[test]
fn farray_counter_contended_threads_are_linearizable() {
    // The exact counter under the same 8-thread write-heavy mix.
    exercise_counter_contended(&FArrayCounter::new(8), "FArrayCounter/contended");
}

#[test]
fn aac_counter_threads_are_linearizable() {
    exercise_counter(&AacCounter::new(4, 1200), "AacCounter");
}

#[test]
fn aac_counter_contended_threads_are_linearizable() {
    exercise_counter_contended(&AacCounter::new(8, 8 * 400), "AacCounter/contended");
}

/// Spins until `ready`, yielding now and then so that a waiter sharing
/// a hardware thread with the thread it waits for lets it run.
fn wait_until(ready: impl Fn() -> bool) {
    let mut spins = 0u32;
    while !ready() {
        spins = spins.wrapping_add(1);
        if spins.is_multiple_of(64) {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// `rounds` lockstep rounds on `counter`: in each, processes 0 and 2
/// increment at once, and once both increments have returned process 0
/// reads the root. Returns the number of rounds whose read fell short
/// of the increments completed.
fn lockstep_rounds(counter: &AacCounter, rounds: u64) -> u64 {
    // Rounds opened by process 0, and increments returned.
    let opened = AtomicU64::new(0);
    let returned = AtomicU64::new(0);
    let mut short = 0;
    std::thread::scope(|s| {
        s.spawn(|| {
            for r in 1..=rounds {
                wait_until(|| opened.load(Ordering::SeqCst) >= r);
                counter.increment(ProcessId(2));
                returned.fetch_add(1, Ordering::SeqCst);
            }
        });
        for r in 1..=rounds {
            opened.store(r, Ordering::SeqCst);
            counter.increment(ProcessId(0));
            returned.fetch_add(1, Ordering::SeqCst);
            wait_until(|| returned.load(Ordering::SeqCst) == 2 * r);
            if counter.read() < 2 * r {
                short += 1;
            }
        }
    });
    short
}

/// Lockstep litmus for the AAC counter's internal nodes. Processes 0
/// and 2 of a 4-process counter sit in different subtrees of the root:
/// each stores into its own subtree's register (a switch of its
/// child's AAC register) and then loads the other's to sum the two at
/// the root. If both loads could miss the other's store, the
/// store-buffering outcome that release stores and acquire loads
/// allow, both would write a sum one short of the total, and a
/// completed increment would be lost. A fresh counter every 1,000
/// rounds replays the early switch patterns, where a register's write
/// sets its switches deepest first.
///
/// The two increments overlap only on two hardware threads or more: on
/// one, the threads take turns and the test cannot interleave them.
#[test]
fn aac_counter_lockstep_increments_in_sibling_subtrees_are_not_lost() {
    const COUNTERS: u64 = 200;
    const ROUNDS: u64 = 1_000;
    let short: u64 = (0..COUNTERS)
        .map(|_| lockstep_rounds(&AacCounter::new(4, 2 * ROUNDS), ROUNDS))
        .sum();
    assert_eq!(
        short,
        0,
        "{short} of {} rounds read the root short of the completed increments",
        COUNTERS * ROUNDS
    );
}

#[test]
fn fetch_add_counter_threads_are_linearizable() {
    exercise_counter(&FetchAddCounter::new(), "FetchAddCounter");
}

fn exercise_snapshot<S: Snapshot>(snap: &S, name: &str) {
    let rec = ThreadRecorder::new();
    let threads = snap.n();
    let ops = 150u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            let rec = &rec;
            s.spawn(move || {
                let pid = ProcessId(t);
                for i in 0..ops {
                    if i % 2 == 0 {
                        // Distinct values per process.
                        let v = t as u64 * 10_000 + i + 1;
                        rec.record(pid, OpDesc::Update(v as i64), || {
                            snap.update(pid, v);
                            OpOutput::Unit
                        });
                    } else {
                        rec.record(pid, OpDesc::Scan, || {
                            let v: Vec<i64> = snap.scan().iter().map(|&x| x as i64).collect();
                            OpOutput::Vector(v)
                        });
                    }
                }
            });
        }
    });
    let history = rec.history();
    check_interval(
        &history,
        &SeqSpec::Snapshot {
            n: threads,
            initial: 0,
        },
    )
    .unwrap_or_else(|v| panic!("{name}: {v}"));
}

#[test]
fn double_collect_snapshot_threads_are_linearizable() {
    exercise_snapshot(&DoubleCollectSnapshot::new(3), "DoubleCollectSnapshot");
}

#[test]
fn afek_snapshot_threads_are_linearizable() {
    exercise_snapshot(&AfekSnapshot::new(3, 10_000), "AfekSnapshot");
}

#[test]
fn path_copy_snapshot_threads_are_linearizable() {
    exercise_snapshot(&PathCopySnapshot::new(3, 10_000), "PathCopySnapshot");
}
