//! Experiment T5 — Theorem 5: linearizability of Algorithm A (and every
//! other implementation), verified three ways, each history decided by
//! the complete interval checker (`check_interval`):
//!
//! 1. randomized adversarial schedules,
//! 2. exhaustive small-scope exploration (bounded model checking),
//! 3. real-thread histories, tick-stamped and checked.
//!
//! Prints a verdict table; any violation would name the implementation
//! and seed/schedule. Exits 1 unless every row is all-ok: every random
//! schedule checked, no exploration violation (a budget-truncated
//! exploration is allowed) and real threads linearizable.
//!
//! Run with `cargo run --release -p ruo-bench --bin t5_linearizability`.

use std::sync::Arc;

use ruo_bench::Table;
use ruo_core::maxreg::sim::{
    SimAacMaxRegister, SimCasRetryMaxRegister, SimFArrayMaxRegister, SimMaxRegister,
    SimTreeMaxRegister,
};
use ruo_core::maxreg::{AacMaxRegister, CasRetryMaxRegister, FArrayMaxRegister, TreeMaxRegister};
use ruo_core::MaxRegister;
use ruo_sim::explore::{enumerate, ExploreOp};
use ruo_sim::lin::check_interval;
use ruo_sim::recorder::ThreadRecorder;
use ruo_sim::spec::SeqSpec;
use ruo_sim::{
    Executor, Memory, OpDesc, OpOutput, OpSpec, ProcessId, RandomScheduler, WorkloadBuilder,
};

/// The spec every history here is checked against.
const SPEC: SeqSpec = SeqSpec::MaxRegister { initial: 0 };

/// Randomized-schedule pass: `seeds` executions of a mixed workload.
fn random_pass(
    make: &dyn Fn(&mut Memory, usize) -> Arc<dyn SimMaxRegister>,
    seeds: u64,
) -> (u64, u64) {
    let mut ok = 0;
    for seed in 0..seeds {
        let mut mem = Memory::new();
        let n = 4;
        let reg = make(&mut mem, n);
        let mut w = WorkloadBuilder::new(n);
        for p in 0..n {
            for i in 0..6usize {
                let pid = ProcessId(p);
                if i % 2 == 0 {
                    let v = (i * n + p + 1) as u64;
                    let reg = Arc::clone(&reg);
                    w.op(
                        pid,
                        OpSpec::update(OpDesc::WriteMax(v as i64), move || reg.write_max(pid, v)),
                    );
                } else {
                    let reg = Arc::clone(&reg);
                    w.op(
                        pid,
                        OpSpec::value(OpDesc::ReadMax, move || reg.read_max(pid)),
                    );
                }
            }
        }
        let outcome = Executor::new().run(&mut mem, w, &mut RandomScheduler::new(seed));
        if outcome.all_done && check_interval(&outcome.history, &SPEC).is_ok() {
            ok += 1;
        }
    }
    (ok, seeds)
}

/// Exhaustive pass: one writer + two readers, all schedules.
fn exhaustive_pass(
    make: &dyn Fn(&mut Memory, usize) -> Arc<dyn SimMaxRegister>,
) -> (usize, &'static str) {
    let setup = || {
        let mut mem = Memory::new();
        let reg = make(&mut mem, 2);
        let machines = vec![
            reg.write_max(ProcessId(0), 1),
            reg.read_max(ProcessId(1)),
            reg.read_max(ProcessId(1)),
        ];
        (mem, machines)
    };
    let ops = vec![
        ExploreOp {
            pid: ProcessId(0),
            desc: OpDesc::WriteMax(1),
            returns_value: false,
        },
        ExploreOp {
            pid: ProcessId(1),
            desc: OpDesc::ReadMax,
            returns_value: true,
        },
        ExploreOp {
            pid: ProcessId(2),
            desc: OpDesc::ReadMax,
            returns_value: true,
        },
    ];
    let summary = enumerate(
        &setup,
        &ops,
        &mut |h| check_interval(h, &SPEC).is_ok(),
        500_000,
    );
    let verdict = if summary.violation.is_some() {
        "VIOLATION"
    } else if summary.truncated {
        "partial, no violation"
    } else {
        "exhaustive, ok"
    };
    (summary.schedules, verdict)
}

/// Real-thread pass over a real-atomics implementation.
fn thread_pass<R: MaxRegister>(reg: &R) -> bool {
    let rec = ThreadRecorder::new();
    let threads = 4;
    crossbeam_utils_shim(reg, &rec, threads);
    check_interval(&rec.history(), &SPEC).is_ok()
}

/// Thread driver (std threads keep bench deps lean).
fn crossbeam_utils_shim<R: MaxRegister>(reg: &R, rec: &ThreadRecorder, threads: usize) {
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || {
                let pid = ProcessId(t);
                for i in 0..200u64 {
                    if i % 3 == 2 {
                        rec.record(pid, OpDesc::ReadMax, || {
                            OpOutput::Value(reg.read_max() as i64)
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
}

/// A named simulated-register factory.
type RegFactory = Box<dyn Fn(&mut Memory, usize) -> Arc<dyn SimMaxRegister>>;

fn main() {
    println!("# T5 — Theorem 5: linearizability verdicts\n");
    let mut t = Table::new(&[
        "implementation",
        "random schedules ok",
        "exhaustive schedules",
        "exploration verdict",
        "real threads ok",
    ]);

    let configs: Vec<(&str, RegFactory)> = vec![
        (
            "Algorithm A",
            Box::new(|mem, n| Arc::new(SimTreeMaxRegister::new(mem, n))),
        ),
        (
            "AAC",
            Box::new(|mem, n| Arc::new(SimAacMaxRegister::new(mem, n, 1 << 10))),
        ),
        (
            "AAC unbalanced",
            Box::new(|mem, n| Arc::new(SimAacMaxRegister::new_unbalanced(mem, n, 1 << 10))),
        ),
        (
            "CAS cell",
            Box::new(|mem, n| Arc::new(SimCasRetryMaxRegister::new(mem, n))),
        ),
        (
            "f-array",
            Box::new(|mem, n| Arc::new(SimFArrayMaxRegister::new(mem, n))),
        ),
    ];
    let mut failures = Vec::new();
    for (name, make) in &configs {
        let (ok, total) = random_pass(make.as_ref(), 60);
        let (schedules, exhaustive_verdict) = exhaustive_pass(make.as_ref());
        let threads_ok = match *name {
            "Algorithm A" => thread_pass(&TreeMaxRegister::new(4)),
            "AAC" => thread_pass(&AacMaxRegister::new(1 << 12)),
            "AAC unbalanced" => thread_pass(&AacMaxRegister::new_unbalanced(1 << 12)),
            "CAS cell" => thread_pass(&CasRetryMaxRegister::new()),
            _ => thread_pass(&FArrayMaxRegister::new(4)),
        };
        if ok < total {
            failures.push(format!("{name}: {ok}/{total} random schedules ok"));
        }
        if exhaustive_verdict == "VIOLATION" {
            failures.push(format!("{name}: exploration found a violation"));
        }
        if !threads_ok {
            failures.push(format!("{name}: real-thread history not linearizable"));
        }
        t.row(vec![
            name.to_string(),
            format!("{ok}/{total}"),
            schedules.to_string(),
            exhaustive_verdict.to_string(),
            if threads_ok { "yes" } else { "NO" }.to_string(),
        ]);
    }
    t.print();
    println!("\nEvery row must read all-ok; a NO would print the violating seed/schedule");
    println!("through the checker's panic payload in the test-suite versions of these");
    println!("passes (tests/linearizability_*.rs, tests/exhaustive.rs).");
    if !failures.is_empty() {
        eprintln!("\nT5 VERDICT FAILURES:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
}
