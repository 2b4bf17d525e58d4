//! The `objects` workload: direct calls on the real-atomics objects.
//!
//! Two threads call the f-array counter, the sharded counter and
//! Algorithm A's tree max register, each built from the registry for
//! N = 64 process identities; thread `t` cycles over its own 32 pids.
//! Calls come in 64-call batches of one kind on one object, and every
//! block of six batches holds each (object, read/update) pair once, in a
//! seeded order, so the mix is exactly 50/50 and every window sees the
//! same mix. Both threads run the same blocks and start each block
//! together: they always contend on the same object with the same kind
//! of call, so how much they contend does not depend on how far their
//! schedules happen to drift apart. Max-register values only increase
//! and start above N, so every write climbs the process tree instead of
//! returning early as a dominated write. No network, no simulator:
//! `ruo_core` does all the
//! work, and the paper's tradeoff shows as wall clock — O(1) reads with
//! O(log N) updates (f-array, Algorithm A) beside O(N) reads with O(1)
//! updates (sharded).

use std::hint::{black_box, spin_loop};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::Instant;

use ruo_scenario::{find, BuildParams, Family, RealObject};
use ruo_sim::stepcount::{CountingMem, OpCounts};
use ruo_sim::ProcessId;

use crate::report::Report;
use crate::stats::{median, percentiles, window_rates, Percentiles};
use crate::trace::{SpanBuf, Tracer};
use crate::{ns, rng, rounds, Config};

const N: usize = 64;
const THREADS: usize = 2;
const PIDS_PER_THREAD: usize = N / THREADS;
const BATCH: usize = 64;
/// Batch kinds: `2·object + (0 = read, 1 = update)`.
const KINDS: usize = 6;
/// Blocks of [`KINDS`] batches per latency window.
const WINDOW_BLOCKS: usize = 8;
/// Object-set builds timed together as one set-up sample.
const BUILDS_PER_SAMPLE: usize = 32;
/// First max-register value; at or above N every write takes the
/// process-tree arm of Algorithm A.
const FIRST_VALUE: u64 = 1 << 16;
/// Spins before a barrier waiter yields: well past a block's length.
const SPINS: u32 = 1 << 14;
/// Round index of the counting round, apart from every timed round's
/// input stream.
const COUNTING_ROUND: usize = 1 << 20;

const OBJECTS: [(&str, Family, &str); 3] = [
    ("counter_farray", Family::Counter, "farray"),
    ("counter_sharded", Family::Counter, "sharded"),
    ("maxreg_tree", Family::MaxReg, "tree"),
];

const BATCH_SPANS: [&str; KINDS] = [
    "core.counter_farray.read",
    "core.counter_farray.update",
    "core.counter_sharded.read",
    "core.counter_sharded.update",
    "core.maxreg_tree.read",
    "core.maxreg_tree.update",
];

struct Sizes {
    /// Blocks per thread per round.
    blocks: usize,
    /// Blocks per thread in the traced run's counting round.
    count_blocks: usize,
    min_rounds: usize,
}

const FULL: Sizes = Sizes {
    blocks: 2_048,
    count_blocks: 256,
    min_rounds: 3,
};

const TINY: Sizes = Sizes {
    blocks: 16,
    count_blocks: 4,
    min_rounds: 1,
};

fn build() -> Vec<RealObject> {
    OBJECTS
        .iter()
        .map(|&(_, family, id)| {
            find(family, id)
                .and_then(|e| {
                    e.build_real(&BuildParams {
                        n: N,
                        capacity: 1 << 20,
                        root_fast_path: false,
                        accuracy_k: 1,
                    })
                })
                .expect("registry builds every benchmarked object")
        })
        .collect()
}

/// A round's batch kinds: `blocks` seeded shuffles of all six kinds.
fn plan(seed: u64, round: usize, blocks: usize) -> Vec<usize> {
    let mut r = rng(seed, round as u64);
    let mut out = Vec::with_capacity(blocks * KINDS);
    for _ in 0..blocks {
        let mut block: [usize; KINDS] = std::array::from_fn(|k| k);
        for i in (1..KINDS).rev() {
            block.swap(i, r.gen_index(i + 1));
        }
        out.extend_from_slice(&block);
    }
    out
}

/// A spinning barrier for the object threads: a block is a few
/// microseconds, far shorter than a sleeping wake-up. A waiter that has
/// spun [`SPINS`] times yields, so a descheduled partner gets the CPU.
struct SpinBarrier {
    arrived: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    fn new() -> Self {
        SpinBarrier {
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == THREADS {
            self.arrived.store(0, Ordering::Relaxed);
            // Release: the reset above is visible before anyone leaves.
            self.generation.fetch_add(1, Ordering::Release);
        } else {
            let mut spins = 0;
            while self.generation.load(Ordering::Acquire) == generation {
                if spins < SPINS {
                    spins += 1;
                    spin_loop();
                } else {
                    thread::yield_now();
                }
            }
        }
    }
}

fn add(acc: &mut OpCounts, c: OpCounts) {
    acc.reads += c.reads;
    acc.writes += c.writes;
    acc.cas_ok += c.cas_ok;
    acc.cas_fail += c.cas_fail;
}

/// What one thread did in one round.
struct ThreadRun {
    /// `(kind, ns)` per batch, in order.
    batches: Vec<(usize, u64)>,
    /// Batch completion times, ns since the round's start.
    done: Vec<u64>,
    /// Increments applied per object.
    incs: [u64; 3],
    max_written: u64,
    /// Primitive counts per kind (counting rounds only).
    counts: [OpCounts; KINDS],
    sink: u64,
}

#[allow(clippy::too_many_arguments)]
fn work(
    objs: &[RealObject],
    thread: usize,
    kinds: &[usize],
    barrier: &SpinBarrier,
    epoch: Instant,
    counting: bool,
    mut buf: SpanBuf<'_>,
    round_id: u64,
) -> ThreadRun {
    let base = thread * PIDS_PER_THREAD;
    let mut call = 0usize;
    let mut value = FIRST_VALUE + thread as u64;
    let mut run = ThreadRun {
        batches: Vec::with_capacity(kinds.len()),
        done: Vec::with_capacity(kinds.len()),
        incs: [0; 3],
        max_written: 0,
        counts: [OpCounts::new(); KINDS],
        sink: 0,
    };
    for (i, &kind) in kinds.iter().enumerate() {
        if i % KINDS == 0 {
            barrier.wait();
        }
        let (obj, read) = (kind / 2, kind % 2 == 0);
        if counting {
            CountingMem::begin_op();
        }
        let t = Instant::now();
        match (&objs[obj], read) {
            (RealObject::Counter(c), true) => {
                for _ in 0..BATCH {
                    run.sink ^= black_box(c.read());
                }
            }
            (RealObject::Counter(c), false) => {
                for _ in 0..BATCH {
                    c.increment(ProcessId(base + call % PIDS_PER_THREAD));
                    call += 1;
                }
                run.incs[obj] += BATCH as u64;
            }
            (RealObject::MaxReg(m), true) => {
                for _ in 0..BATCH {
                    run.sink ^= black_box(m.read_max());
                }
            }
            (RealObject::MaxReg(m), false) => {
                for _ in 0..BATCH {
                    m.write_max(ProcessId(base + call % PIDS_PER_THREAD), value);
                    call += 1;
                    run.max_written = value;
                    value += THREADS as u64;
                }
            }
            (RealObject::Snapshot(_), _) => unreachable!("no snapshot in the object set"),
        }
        let end = Instant::now();
        if counting {
            add(&mut run.counts[kind], CountingMem::take_op_counts());
        }
        run.batches.push((kind, ns(t, end)));
        run.done.push(ns(epoch, end));
        buf.record(BATCH_SPANS[kind], "core", round_id, t, end);
    }
    run
}

/// Runs one round on fresh objects; returns the threads' runs and the
/// round's wall time, after gating the final object state.
fn round(
    cfg: &Config,
    tracer: &Tracer,
    idx: usize,
    blocks: usize,
    counting: bool,
    report: &mut Report,
) -> (Vec<ThreadRun>, f64, f64) {
    let kinds = plan(cfg.seed, idx, blocks);
    let barrier = SpinBarrier::new();
    let on = tracer.round_records() && !counting;
    let round_id = tracer.id();
    // The heap was trimmed before the round; one untimed build faults its
    // pages back in, so the samples time building, not page faults.
    drop(build());
    let t0 = Instant::now();
    let mut objs = build();
    for _ in 1..BUILDS_PER_SAMPLE {
        objs = black_box(build());
    }
    let built = Instant::now();
    let setup_s = (built - t0).as_secs_f64() / BUILDS_PER_SAMPLE as f64;
    if counting {
        CountingMem::enable();
    }
    let start = Instant::now();
    let runs: Vec<ThreadRun> = thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (objs, kinds, barrier) = (&objs, &kinds, &barrier);
                let buf = tracer.buf(t as u32 + 1, on);
                s.spawn(move || work(objs, t, kinds, barrier, start, counting, buf, round_id))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("object thread panicked"))
            .collect()
    });
    let end = Instant::now();
    if counting {
        CountingMem::disable();
    }
    let mut main = tracer.buf(0, on);
    main.record("core.build", "core", round_id, t0, built);
    main.record_as(round_id, "objects.round", "bench", 0, t0, end, None);

    report.attempted += runs
        .iter()
        .map(|r| (r.batches.len() * BATCH) as u64)
        .sum::<u64>();
    for (i, obj) in objs.iter().enumerate() {
        let ok = match obj {
            RealObject::Counter(c) => c.read() == runs.iter().map(|r| r.incs[i]).sum::<u64>(),
            RealObject::MaxReg(m) => {
                m.read_max() == runs.iter().map(|r| r.max_written).max().unwrap_or(0)
            }
            RealObject::Snapshot(_) => true,
        };
        report.gate(&format!("objects.{}.final_state", OBJECTS[i].0), ok, 1);
    }
    black_box(runs.iter().fold(0, |acc, r| acc ^ r.sink));
    (runs, setup_s, (end - start).as_secs_f64())
}

/// Mean µs per call of one kind over each window of a thread's batches.
fn window_means(run: &ThreadRun, read: bool) -> Vec<f64> {
    run.batches
        .chunks_exact(WINDOW_BLOCKS * KINDS)
        .map(|w| {
            let (total, n) = w
                .iter()
                .filter(|(k, _)| (k % 2 == 0) == read)
                .fold((0u64, 0usize), |(t, n), &(_, ns)| (t + ns, n + BATCH));
            total as f64 / n as f64 / 1e3
        })
        .collect()
}

/// One round's figures; a run keeps these summaries, not the samples.
struct RoundOut {
    setup_s: f64,
    work_s: f64,
    rate: f64,
    read: Percentiles,
    update: Percentiles,
    /// Mean ns per call of each batch, per kind (recorded rounds only).
    kind_ns: Vec<Vec<f64>>,
}

/// Runs the workload.
pub fn run(cfg: &Config, tracer: &Tracer) -> Report {
    let sizes = if cfg.tiny { &TINY } else { &FULL };
    let mut report = Report::default();
    let mut outs: Vec<RoundOut> = Vec::new();
    let peaks = rounds(cfg, tracer, sizes.min_rounds, |i| {
        let on = tracer.round_records();
        let (runs, setup_s, work_s) = round(cfg, tracer, i, sizes.blocks, false, &mut report);
        let mut done: Vec<u64> = runs.iter().flat_map(|r| r.done.iter().copied()).collect();
        let rates = window_rates(&mut done, WINDOW_BLOCKS * KINDS * THREADS);
        let mut kind_ns = vec![Vec::new(); KINDS];
        if on {
            for &(k, ns) in runs.iter().flat_map(|r| &r.batches) {
                kind_ns[k].push(ns as f64 / BATCH as f64);
            }
        }
        outs.push(RoundOut {
            setup_s,
            work_s,
            rate: median(&rates) * BATCH as f64,
            read: percentiles(
                &runs
                    .iter()
                    .flat_map(|r| window_means(r, true))
                    .collect::<Vec<_>>(),
            ),
            update: percentiles(
                &runs
                    .iter()
                    .flat_map(|r| window_means(r, false))
                    .collect::<Vec<_>>(),
            ),
            kind_ns,
        });
    });
    let med = |f: &dyn Fn(&RoundOut) -> f64| median(&outs.iter().map(f).collect::<Vec<_>>());
    report.e2e("setup_s", med(&|o| o.setup_s), "s");
    report.e2e("ops_per_s", med(&|o| o.rate), "ops/s");
    report.e2e("read_p50_us", med(&|o| o.read.p50), "us");
    report.e2e("read_p90_us", med(&|o| o.read.p90), "us");
    report.e2e("update_p50_us", med(&|o| o.update.p50), "us");
    report.e2e("update_p90_us", med(&|o| o.update.p90), "us");
    report.e2e("work_s", med(&|o| o.work_s), "s");
    report.e2e("peak_rss_mb", median(&peaks), "MB");
    if !cfg.traced {
        return report;
    }

    for (k, span) in BATCH_SPANS.iter().enumerate() {
        let samples: Vec<f64> = outs
            .iter()
            .flat_map(|o| o.kind_ns[k].iter().copied())
            .collect();
        if !samples.is_empty() {
            // `core.<obj>.read` → `core.<obj>.read_ns`.
            report.layer(&format!("{span}_ns"), median(&samples), "ns");
        }
    }

    // Primitive counts under contention: one extra round with the
    // counting layer on (it slows every access, so no timing is taken
    // from it).
    let (runs, _, _) = round(
        cfg,
        tracer,
        COUNTING_ROUND,
        sizes.count_blocks,
        true,
        &mut report,
    );
    for (i, (name, _, _)) in OBJECTS.iter().enumerate() {
        let sum = |kind: usize| {
            runs.iter().fold(OpCounts::new(), |mut acc, r| {
                add(&mut acc, r.counts[kind]);
                acc
            })
        };
        let calls = |kind: usize| {
            runs.iter()
                .map(|r| r.batches.iter().filter(|(k, _)| *k == kind).count() * BATCH)
                .sum::<usize>() as f64
        };
        let (r, u) = (sum(2 * i), sum(2 * i + 1));
        let (rc, uc) = (calls(2 * i), calls(2 * i + 1));
        let cas = u.cas_ok + u.cas_fail;
        report.layer(
            &format!("core.{name}.read_loads"),
            r.reads as f64 / rc,
            "count",
        );
        report.layer(
            &format!("core.{name}.update_loads"),
            u.reads as f64 / uc,
            "count",
        );
        report.layer(&format!("core.{name}.update_cas"), cas as f64 / uc, "count");
        // With no CAS attempted, none was wasted.
        let ratio = if cas == 0 {
            1.0
        } else {
            u.cas_ok as f64 / cas as f64
        };
        report.layer(&format!("core.{name}.update_cas_ok_ratio"), ratio, "ratio");
    }

    // Solo step counts: one thread, fresh objects, one update then one
    // read each (the W7 measure).
    let objs = build();
    CountingMem::enable();
    for (i, obj) in objs.iter().enumerate() {
        let pid = ProcessId(0);
        CountingMem::begin_op();
        match obj {
            RealObject::Counter(c) => c.increment(pid),
            RealObject::MaxReg(m) => m.write_max(pid, FIRST_VALUE),
            RealObject::Snapshot(_) => {}
        }
        let update = CountingMem::take_op_counts().steps();
        CountingMem::begin_op();
        match obj {
            RealObject::Counter(c) => black_box(c.read()),
            RealObject::MaxReg(m) => black_box(m.read_max()),
            RealObject::Snapshot(_) => 0,
        };
        let read = CountingMem::take_op_counts().steps();
        let name = OBJECTS[i].0;
        report.layer(
            &format!("core.{name}.read_steps_solo"),
            read as f64,
            "count",
        );
        report.layer(
            &format!("core.{name}.update_steps_solo"),
            update as f64,
            "count",
        );
    }
    CountingMem::disable();
    report
}
