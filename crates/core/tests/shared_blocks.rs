//! Real threads whose climbs meet inside blocks of the tree.
//!
//! The real f-array and Algorithm A keep each height-3 block of their
//! tree on one cache line, so a node's CAS and its children's leaf
//! stores and CASes land on the same line. Threads here run processes
//! whose leaves share blocks, and each run asserts exact final values: a
//! CAS that lost a child's write to a neighbour on the line would leave
//! the counter short or the register below its maximum.
//!
//! Two layouts: N = 8 on 4 threads, each running two processes, and
//! N = 64 on 2 threads with pids 0–31 and 32–63. Those windows open
//! realistically only in optimised code, so CI runs this file in release
//! too.

use std::sync::Barrier;
use std::thread;

use ruo_core::counter::FArrayCounter;
use ruo_core::maxreg::TreeMaxRegister;
use ruo_core::{Counter, MaxRegister};
use ruo_sim::ProcessId;

/// Operations per thread.
const OPS: u64 = 100_000;

/// `(n, threads)`: each thread runs `n / threads` consecutive pids.
const LAYOUTS: [(usize, usize); 2] = [(8, 4), (64, 2)];

/// The pid thread `t` of `threads` uses for its `i`-th operation.
fn pid(n: usize, threads: usize, t: usize, i: u64) -> ProcessId {
    let per = n / threads;
    ProcessId(t * per + (i as usize % per))
}

#[test]
fn farray_counter_counts_every_increment() {
    for (n, threads) in LAYOUTS {
        let c = FArrayCounter::new(n);
        thread::scope(|s| {
            for t in 0..threads {
                let c = &c;
                s.spawn(move || {
                    for i in 0..OPS {
                        c.increment(pid(n, threads, t, i));
                    }
                });
            }
        });
        assert_eq!(c.read(), threads as u64 * OPS, "n={n}, {threads} threads");
    }
}

#[test]
fn algorithm_a_keeps_the_maximum() {
    for (n, threads) in LAYOUTS {
        let reg = TreeMaxRegister::new(n);
        let phase = Barrier::new(threads);
        thread::scope(|s| {
            for t in 0..threads {
                let (reg, phase) = (&reg, &phase);
                s.spawn(move || {
                    // Small values climb from the B1 value leaves.
                    for v in (1 + t as u64..n as u64).step_by(threads) {
                        reg.write_max(pid(n, threads, t, v), v);
                    }
                    phase.wait();
                    assert_eq!(reg.read_max(), n as u64 - 1, "n={n}: value leaves");
                    phase.wait();
                    // Large ones from the process leaves.
                    for i in 0..OPS {
                        let v = n as u64 + i * threads as u64 + t as u64;
                        reg.write_max(pid(n, threads, t, i), v);
                        assert!(reg.read_max() >= v, "n={n}: own write {v} lost");
                    }
                });
            }
        });
        let max = n as u64 + (OPS - 1) * threads as u64 + threads as u64 - 1;
        assert_eq!(reg.read_max(), max, "n={n}, {threads} threads");
    }
}
