//! Linearizability of the simulator implementations under randomized
//! adversarial schedules (experiment T5, simulator half).
//!
//! Every implementation is run under many seeded random schedules; the
//! resulting histories are checked with the complete interval checker,
//! and — for small workloads — with the exact Wing–Gong search too.

use std::sync::Arc;

use ruo::core::counter::sim::{SimAacCounter, SimCasLoopCounter, SimCounter, SimFArrayCounter};
use ruo::core::maxreg::sim::{
    SimAacMaxRegister, SimCasRetryMaxRegister, SimMaxRegister, SimTreeMaxRegister,
};
use ruo::core::snapshot::sim::{SimDoubleCollectSnapshot, SimSnapshot};
use ruo::sim::history::OpDesc;
use ruo::sim::lin::{check_exact, check_interval};
use ruo::sim::spec::SeqSpec;
use ruo::sim::{Executor, Memory, OpSpec, ProcessId, RandomScheduler, WorkloadBuilder};

/// Builds a mixed read/write max-register workload: each process does
/// `ops` operations alternating writes (of distinct growing values) and
/// reads.
fn maxreg_workload(reg: &Arc<dyn SimMaxRegister>, n: usize, ops: usize) -> WorkloadBuilder {
    let mut w = WorkloadBuilder::new(n);
    for p in 0..n {
        for i in 0..ops {
            let pid = ProcessId(p);
            if i % 2 == 0 {
                let v = (i * n + p + 1) as u64;
                let reg = Arc::clone(reg);
                w.op(
                    pid,
                    OpSpec::update(OpDesc::WriteMax(v as i64), move || reg.write_max(pid, v)),
                );
            } else {
                let reg = Arc::clone(reg);
                w.op(
                    pid,
                    OpSpec::value(OpDesc::ReadMax, move || reg.read_max(pid)),
                );
            }
        }
    }
    w
}

fn check_maxreg_impl(make: impl Fn(&mut Memory, usize) -> Arc<dyn SimMaxRegister>, name: &str) {
    // Large randomized runs through the interval checker.
    for seed in 0..30 {
        let mut mem = Memory::new();
        let n = 4;
        let reg = make(&mut mem, n);
        let outcome = Executor::new().run(
            &mut mem,
            maxreg_workload(&reg, n, 6),
            &mut RandomScheduler::new(seed),
        );
        assert!(outcome.all_done, "{name} seed {seed}: workload incomplete");
        check_interval(&outcome.history, &SeqSpec::MaxRegister { initial: 0 })
            .unwrap_or_else(|v| panic!("{name} seed {seed}: {v}"));
    }
    // Small runs through the exact checker too.
    for seed in 0..20 {
        let mut mem = Memory::new();
        let n = 3;
        let reg = make(&mut mem, n);
        let outcome = Executor::new().run(
            &mut mem,
            maxreg_workload(&reg, n, 3),
            &mut RandomScheduler::new(seed),
        );
        let spec = SeqSpec::MaxRegister { initial: 0 };
        check_exact(&outcome.history, &spec)
            .unwrap_or_else(|v| panic!("{name} seed {seed} (exact): {v}"));
        check_interval(&outcome.history, &spec)
            .unwrap_or_else(|v| panic!("{name} seed {seed} (interval): {v}"));
    }
}

#[test]
fn tree_max_register_is_linearizable_under_random_schedules() {
    check_maxreg_impl(
        |mem, n| Arc::new(SimTreeMaxRegister::new(mem, n)),
        "SimTreeMaxRegister",
    );
}

#[test]
fn aac_max_register_is_linearizable_under_random_schedules() {
    check_maxreg_impl(
        |mem, n| Arc::new(SimAacMaxRegister::new(mem, n, 1 << 10)),
        "SimAacMaxRegister",
    );
}

#[test]
fn cas_retry_max_register_is_linearizable_under_random_schedules() {
    check_maxreg_impl(
        |mem, n| Arc::new(SimCasRetryMaxRegister::new(mem, n)),
        "SimCasRetryMaxRegister",
    );
}

fn counter_workload(c: &Arc<dyn SimCounter>, n: usize, ops: usize) -> WorkloadBuilder {
    let mut w = WorkloadBuilder::new(n);
    for p in 0..n {
        for i in 0..ops {
            let pid = ProcessId(p);
            let c2 = Arc::clone(c);
            if i % 2 == 0 {
                w.op(
                    pid,
                    OpSpec::update(OpDesc::CounterIncrement, move || c2.increment(pid)),
                );
            } else {
                w.op(
                    pid,
                    OpSpec::value(OpDesc::CounterRead, move || c2.read(pid)),
                );
            }
        }
    }
    w
}

fn check_counter_impl(make: impl Fn(&mut Memory, usize) -> Arc<dyn SimCounter>, name: &str) {
    for seed in 0..30 {
        let mut mem = Memory::new();
        let n = 4;
        let c = make(&mut mem, n);
        let outcome = Executor::new().run(
            &mut mem,
            counter_workload(&c, n, 6),
            &mut RandomScheduler::new(seed),
        );
        assert!(outcome.all_done);
        check_interval(&outcome.history, &SeqSpec::Counter)
            .unwrap_or_else(|v| panic!("{name} seed {seed}: {v}"));
    }
    for seed in 0..20 {
        let mut mem = Memory::new();
        let n = 3;
        let c = make(&mut mem, n);
        let outcome = Executor::new().run(
            &mut mem,
            counter_workload(&c, n, 3),
            &mut RandomScheduler::new(seed),
        );
        check_exact(&outcome.history, &SeqSpec::Counter)
            .unwrap_or_else(|v| panic!("{name} seed {seed} (exact): {v}"));
    }
}

#[test]
fn farray_counter_is_linearizable_under_random_schedules() {
    check_counter_impl(
        |mem, n| Arc::new(SimFArrayCounter::new(mem, n)),
        "SimFArrayCounter",
    );
}

#[test]
fn aac_counter_is_linearizable_under_random_schedules() {
    check_counter_impl(
        |mem, n| Arc::new(SimAacCounter::new(mem, n, 64)),
        "SimAacCounter",
    );
}

#[test]
fn cas_loop_counter_is_linearizable_under_random_schedules() {
    check_counter_impl(
        |mem, n| Arc::new(SimCasLoopCounter::new(mem, n)),
        "SimCasLoopCounter",
    );
}

#[test]
fn double_collect_snapshot_is_linearizable_under_random_schedules() {
    for seed in 0..30 {
        let mut mem = Memory::new();
        let n = 3;
        let snap = Arc::new(SimDoubleCollectSnapshot::new(&mut mem, n));
        let mut w = WorkloadBuilder::new(n);
        for p in 0..n {
            let pid = ProcessId(p);
            for i in 0..4u64 {
                if i % 2 == 0 {
                    let s = Arc::clone(&snap);
                    // Distinct values per process: p*100 + i.
                    let v = p as u64 * 100 + i + 1;
                    w.op(
                        pid,
                        OpSpec::update(OpDesc::Update(v as i64), move || s.update(pid, v)),
                    );
                } else {
                    let s = Arc::clone(&snap);
                    w.op(pid, OpSpec::value(OpDesc::Scan, move || s.scan(pid)));
                }
            }
        }
        // Scans are obstruction-free: budget the execution and strip any
        // starved scans before checking.
        let outcome =
            Executor::with_step_budget(100_000).run(&mut mem, w, &mut RandomScheduler::new(seed));
        assert!(outcome.all_done, "seed {seed}: scan starved within budget");
        let spec = SeqSpec::Snapshot { n, initial: 0 };
        check_interval(&outcome.history, &spec).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
        check_exact(&outcome.history, &spec).unwrap_or_else(|v| panic!("seed {seed} (exact): {v}"));
    }
}
