//! Scenario: consistent cross-worker statistics with atomic snapshots.
//!
//! Each worker publishes a running "events processed" figure into its
//! own segment. The dashboard needs *consistent* views: the ratio of any
//! two workers' figures is only meaningful if both numbers come from the
//! same instant. That is exactly what a snapshot's `Scan` guarantees and
//! what per-segment reads do not.
//!
//! The example contrasts three scan/update tradeoff points — and
//! demonstrates (by detection, using torn per-segment reads) why a plain
//! array of atomics is not enough.
//!
//! Run with `cargo run --release --example snapshot_monitor`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

use ruo::core::snapshot::{AfekSnapshot, DoubleCollectSnapshot, PathCopySnapshot};
use ruo::core::Snapshot;
use ruo::sim::ProcessId;

const WORKERS: usize = 3;
const EVENTS: u64 = 5_000;

/// Workers keep all segments within `1` of each other by publishing in
/// lock-step rounds; a consistent scan can therefore never observe a
/// spread of 2 or more.
fn run_with<S: Snapshot + 'static>(name: &'static str, snap: Arc<S>) {
    let stop = Arc::new(AtomicBool::new(false));
    let round = Arc::new(AtomicU64::new(0));

    let workers: Vec<_> = (0..WORKERS)
        .map(|w| {
            let snap = Arc::clone(&snap);
            let round = Arc::clone(&round);
            thread::spawn(move || {
                for v in 1..=EVENTS {
                    snap.update(ProcessId(w), v);
                    // Barrier-ish pacing: wait until every worker reached v.
                    let target = v * WORKERS as u64;
                    round.fetch_add(1, Ordering::SeqCst);
                    while round.load(Ordering::SeqCst) < target {
                        // On small machines (CI, single-core boxes) a
                        // pure spin starves the other workers.
                        std::thread::yield_now();
                    }
                }
            })
        })
        .collect();

    let dashboard = {
        let snap = Arc::clone(&snap);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut scans = 0u64;
            let mut max_spread = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let view = snap.scan();
                let hi = *view.iter().max().unwrap();
                let lo = *view.iter().min().unwrap();
                max_spread = max_spread.max(hi - lo);
                scans += 1;
            }
            (scans, max_spread)
        })
    };

    for h in workers {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let (scans, max_spread) = dashboard.join().unwrap();
    println!(
        "{name:<16} scans={scans:>8}  max spread seen={max_spread}  (consistent scans ⇒ spread ≤ 1)"
    );
    assert!(
        max_spread <= 1,
        "{name}: scan tore across rounds (spread {max_spread})"
    );
    assert_eq!(snap.scan(), vec![EVENTS; WORKERS]);
}

fn main() {
    println!("cross-worker statistics: {WORKERS} workers × {EVENTS} events, lock-step rounds\n");
    run_with(
        "double-collect",
        Arc::new(DoubleCollectSnapshot::new(WORKERS)),
    );
    // The restricted-use snapshots take their update bound up front.
    let updates = EVENTS * WORKERS as u64;
    run_with(
        "afek (wait-free)",
        Arc::new(AfekSnapshot::new(WORKERS, updates)),
    );
    run_with(
        "path-copy",
        Arc::new(PathCopySnapshot::new(WORKERS, updates)),
    );

    // The non-solution: independent atomics can tear.
    println!("\nnon-snapshot baseline (independent atomics, torn reads possible):");
    let cells: Arc<Vec<AtomicU64>> = Arc::new((0..WORKERS).map(|_| AtomicU64::new(0)).collect());
    let writer = {
        let cells = Arc::clone(&cells);
        thread::spawn(move || {
            for v in 1..=EVENTS {
                for c in cells.iter() {
                    c.store(v, Ordering::SeqCst);
                }
            }
        })
    };
    let mut max_spread = 0u64;
    for _ in 0..200_000 {
        let view: Vec<u64> = cells.iter().map(|c| c.load(Ordering::SeqCst)).collect();
        let hi = *view.iter().max().unwrap();
        let lo = *view.iter().min().unwrap();
        max_spread = max_spread.max(hi - lo);
    }
    writer.join().unwrap();
    println!("naive reads        max spread seen={max_spread}  (anything > 1 is a torn view)");
}
