//! Failure injection: crafted adversarial schedules that (a) break a
//! deliberately weakened variant of Algorithm A — demonstrating that
//! the paper's *double* CAS per level is load-bearing — and (b) confirm
//! the real algorithm helps stalled writers.
//!
//! Algorithm A performs the read-children-then-CAS step **twice** per
//! level; the paper's Lemma 9 shows the second attempt is exactly what
//! makes a failed CAS harmless. The first test builds the classic
//! counterexample for the single-CAS variant:
//!
//! 1. `A` (writing 2) propagates into the shared subtree root, then
//!    pauses just before its root CAS, holding a stale max of 2;
//! 2. `B` (writing 3) propagates 3 into the subtree root, reads it,
//!    and pauses before its root CAS holding max 3;
//! 3. `A`'s CAS installs 2 at the root; `B`'s CAS fails — and the
//!    single-CAS variant gives up, completing `WriteMax(3)` with the
//!    root stuck at 2. A subsequent `ReadMax` returns 2: not
//!    linearizable, and the history checker says so.
//!
//! The same schedule against the real double-CAS machine ends with the
//! root at 3.

use std::sync::Arc;

use ruo::core::maxreg::sim::{write_leaf, SimMaxRegister, SimTreeMaxRegister};
use ruo::core::shape::AlgorithmATree;
use ruo::scenario::{
    build_sim_object, run_sim_seed, CrashAt, EngineKind, Family, FaultSpec, OpMix, ScenarioSpec,
    SimObject,
};
use ruo::sim::history::{History, OpDesc, OpOutput, OpRecord};
use ruo::sim::lin::{check_interval, ViolationKind};
use ruo::sim::spec::SeqSpec;
use ruo::sim::{
    Executor, FaultPlan, Machine, Memory, ObjId, OpSpec, Prim, ProcessId, RandomScheduler, Word,
    WorkloadBuilder, NEG_INF,
};

/// Applies exactly `k` events of `machine` (panics if it finishes
/// early).
fn advance(mem: &mut Memory, pid: ProcessId, machine: &mut Machine, k: usize) {
    for i in 0..k {
        let prim = machine
            .enabled()
            .unwrap_or_else(|| panic!("machine finished after {i} of {k} events"));
        let resp = mem.apply(pid, prim).resp;
        machine.feed(resp);
    }
}

/// Runs `machine` to completion.
fn finish(mem: &mut Memory, pid: ProcessId, machine: &mut Machine) -> usize {
    let mut extra = 0;
    while let Some(prim) = machine.enabled() {
        let resp = mem.apply(pid, prim).resp;
        machine.feed(resp);
        extra += 1;
    }
    extra
}

/// The *broken* variant: Algorithm A's write with only ONE
/// read-children-and-CAS attempt per level, and the paper's literal
/// early return on a dominated leaf.
struct BrokenTreeWrite {
    tree: Arc<AlgorithmATree>,
    cells: Arc<[ObjId]>,
}

impl BrokenTreeWrite {
    fn new(mem: &mut Memory, n: usize) -> Self {
        let tree = AlgorithmATree::new(n);
        let cells = mem.alloc_n(tree.shape().len(), NEG_INF);
        BrokenTreeWrite {
            tree: Arc::new(tree),
            cells: cells.into(),
        }
    }

    fn write_max(&self, pid: ProcessId, v: u64) -> Machine {
        let (tree, cells) = (Arc::clone(&self.tree), Arc::clone(&self.cells));
        Machine::new(async move {
            let leaf = tree.leaf_for(pid.index(), v);
            // ONE attempt only — the injected fault.
            write_leaf(&cells, &tree, leaf, v as Word, false, 1).await;
            0
        })
    }

    fn read_max(&self) -> Machine {
        let root = self.cells[self.tree.root()];
        Machine::single(Prim::Read(root), |v| v.max(0))
    }
}

/// The crafted schedule. With `per_level_pause` = events to advance each
/// writer before unleashing the CAS race: leaf (2 events) + first level
/// (one full attempt) + root-level reads (3 events).
#[test]
fn single_cas_variant_loses_a_completed_write() {
    let mut mem = Memory::new();
    let reg = BrokenTreeWrite::new(&mut mem, 2);
    let a = ProcessId(0);
    let b = ProcessId(1);
    // N = 2: values ≥ 2 go to the writers' TR leaves; the propagation
    // path is [TR-root, root]. Broken machine: 2 leaf events + 4 events
    // per level.
    let mut wa = reg.write_max(a, 2);
    let mut wb = reg.write_max(b, 3);

    advance(&mut mem, a, &mut wa, 2 + 4 + 3); // A: through root-level reads (holds max 2)
    advance(&mut mem, b, &mut wb, 2 + 4 + 3); // B: same (holds max 3; TR-root is 3 now)
    advance(&mut mem, a, &mut wa, 1); // A's root CAS installs 2
    assert!(wa.is_done());
    advance(&mut mem, b, &mut wb, 1); // B's root CAS fails; single-CAS gives up
    assert!(
        wb.is_done(),
        "single-CAS variant completes after one failure"
    );

    let mut rd = reg.read_max();
    finish(&mut mem, a, &mut rd);
    let seen = rd.result().unwrap();
    assert_eq!(seen, 2, "the completed WriteMax(3) was lost");

    // The history checker flags it.
    let mut h = History::new();
    h.push(OpRecord {
        pid: a,
        desc: OpDesc::WriteMax(2),
        invoke: 0,
        response: Some(9),
        output: Some(OpOutput::Unit),
        steps: 10,
    });
    h.push(OpRecord {
        pid: b,
        desc: OpDesc::WriteMax(3),
        invoke: 1,
        response: Some(10),
        output: Some(OpOutput::Unit),
        steps: 10,
    });
    h.push(OpRecord {
        pid: a,
        desc: OpDesc::ReadMax,
        invoke: 11,
        response: Some(12),
        output: Some(OpOutput::Value(seen)),
        steps: 1,
    });
    let violation = check_interval(&h, &SeqSpec::MaxRegister { initial: 0 }).unwrap_err();
    assert_eq!(violation.kind, ViolationKind::NoLinearization);
    // The culprit is the stale read: after both writes it needed 3.
    let culprit = "op#2 ReadMax by p0 [11, 12] returned 2, the spec needed 3";
    assert!(violation.detail.contains(culprit), "{violation}");
}

/// The same adversarial schedule against the REAL register: the second
/// CAS attempt (Lemma 9) repairs the race and the root ends at 3.
#[test]
fn double_cas_survives_the_same_schedule() {
    let mut mem = Memory::new();
    let reg = SimTreeMaxRegister::new(&mut mem, 2);
    let a = ProcessId(0);
    let b = ProcessId(1);
    // Real machine: 2 leaf events + 8 events per level (two attempts of
    // read node / read left / read right / CAS).
    let mut wa = reg.write_max(a, 2);
    let mut wb = reg.write_max(b, 3);

    advance(&mut mem, a, &mut wa, 2 + 8 + 3); // A: root-level attempt-1 reads done
    advance(&mut mem, b, &mut wb, 2 + 8 + 3); // B: likewise (holds 3)
    advance(&mut mem, a, &mut wa, 1); // A installs 2 at the root
    advance(&mut mem, b, &mut wb, 1); // B's first root CAS fails...
    assert!(!wb.is_done(), "the real algorithm retries");
    finish(&mut mem, b, &mut wb); // ...second attempt installs 3
    finish(&mut mem, a, &mut wa);

    let mut rd = reg.read_max(a);
    finish(&mut mem, a, &mut rd);
    assert_eq!(rd.result().unwrap(), 3, "double CAS preserves the maximum");
}

/// A writer that stalls forever mid-propagation does not block others,
/// and its leaf value is *helped* to the root by later writers passing
/// through the same subtree (the max(children) computation carries it).
#[test]
fn stalled_writer_is_helped_by_later_writers() {
    let mut mem = Memory::new();
    let reg = SimTreeMaxRegister::new(&mut mem, 2);
    let a = ProcessId(0);
    let b = ProcessId(1);

    // A writes 100 into its TR leaf, then stalls before propagating.
    let mut wa = reg.write_max(a, 100);
    advance(&mut mem, a, &mut wa, 2); // read leaf + write leaf only

    // B's smaller write shares the TR subtree and must carry A's 100 up.
    let mut wb = reg.write_max(b, 50);
    finish(&mut mem, b, &mut wb);

    let mut rd = reg.read_max(b);
    finish(&mut mem, b, &mut rd);
    assert_eq!(
        rd.result().unwrap(),
        100,
        "B's propagation must publish the stalled writer's larger value"
    );
    // A can still finish later without breaking anything.
    finish(&mut mem, a, &mut wa);
    let mut rd2 = reg.read_max(a);
    finish(&mut mem, a, &mut rd2);
    assert_eq!(rd2.result().unwrap(), 100);
}

/// The PAPER'S LITERAL pseudo-code ("if value ≤ old_value then return",
/// line 16 of Algorithm A) is unsound on shared TL value-leaves: if the
/// first writer of `v` stalls after the leaf store but before
/// propagating, a second `WriteMax(v)` returns after a single read —
/// completing an operation that no subsequent `ReadMax` reflects. Our
/// implementation deviates by *helping* (propagating) on that path; this
/// test keeps the literal variant around and shows the resulting history
/// is rejected by the checker. See DESIGN.md ("Deviations").
#[test]
fn literal_early_return_is_not_linearizable() {
    let mut mem = Memory::new();
    // The literal variant: reuse the broken-machine scaffolding but with
    // the paper's double CAS — the fault under test is ONLY the early
    // return, which `BrokenTreeWrite` shares with the paper's listing.
    let reg = BrokenTreeWrite::new(&mut mem, 4);
    let a = ProcessId(0);
    let b = ProcessId(1);

    // A writes v = 2 (TL value leaf) and stalls right after the leaf
    // store, before any propagation.
    let mut wa = reg.write_max(a, 2);
    advance(&mut mem, a, &mut wa, 2);

    // B's WriteMax(2) hits the leaf already holding 2 and returns after
    // one read — a COMPLETED WriteMax(2).
    let mut wb = reg.write_max(b, 2);
    let steps = finish(&mut mem, b, &mut wb);
    assert_eq!(steps, 1, "literal early return completes after one read");

    // A reader now sees 0: B's completed write is invisible.
    let mut rd = reg.read_max();
    finish(&mut mem, b, &mut rd);
    let seen = rd.result().unwrap();
    assert_eq!(seen, 0, "the literal pseudo-code loses B's completed write");

    let mut h = History::new();
    h.push(OpRecord {
        pid: b,
        desc: OpDesc::WriteMax(2),
        invoke: 0,
        response: Some(1),
        output: Some(OpOutput::Unit),
        steps: 1,
    });
    h.push(OpRecord {
        pid: b,
        desc: OpDesc::ReadMax,
        invoke: 2,
        response: Some(3),
        output: Some(OpOutput::Value(seen)),
        steps: 1,
    });
    let violation = check_interval(&h, &SeqSpec::MaxRegister { initial: 0 }).unwrap_err();
    assert_eq!(violation.kind, ViolationKind::NoLinearization);
    // The culprit is the read that missed B's completed WriteMax(2).
    let culprit = "op#1 ReadMax by p1 [2, 3] returned 0, the spec needed 2";
    assert!(violation.detail.contains(culprit), "{violation}");
}

/// With the helping fix, a stalled writer of a *small* value in the B1
/// subtree is covered by a same-value writer, which propagates on the
/// dominated path instead of returning.
#[test]
fn stalled_small_value_writer_is_covered_by_same_value_writer() {
    let mut mem = Memory::new();
    let reg = SimTreeMaxRegister::new(&mut mem, 4);
    let a = ProcessId(0);
    let b = ProcessId(1);

    // Both write v = 2 (same TL value leaf). A stalls after the leaf
    // write; B runs to completion and publishes 2 for both.
    let mut wa = reg.write_max(a, 2);
    advance(&mut mem, a, &mut wa, 2);
    let mut wb = reg.write_max(b, 2);
    finish(&mut mem, b, &mut wb);

    let mut rd = reg.read_max(b);
    finish(&mut mem, b, &mut rd);
    assert_eq!(rd.result().unwrap(), 2);
    finish(&mut mem, a, &mut wa);
    let mut rd2 = reg.read_max(a);
    finish(&mut mem, a, &mut rd2);
    assert_eq!(rd2.result().unwrap(), 2);
}

/// Crash-during-propagation sweep for the f-array counter: each process
/// in turn is crashed after its `k`-th event for every `k`, under several
/// schedules. A crash between the leaf increment and the last partial-sum
/// CAS leaves the tree torn mid-propagation; the completion rule must
/// cover every resulting history (the pending increment may be counted
/// or dropped, completed increments never lost).
///
/// The sweep rides the scenario engine: one declarative spec (the
/// `Alternate` mix at two ops per process is exactly increment-then-read)
/// plus an explicit crash plan per (pid, k), driven by `run_sim_seed`.
#[test]
fn farray_counter_survives_a_crash_after_every_propagation_step() {
    let n = 3;
    let mut pending_seen = 0usize;
    let mut spec = ScenarioSpec::new(
        "farray-crash-sweep",
        Family::Counter,
        "farray",
        EngineKind::Sim,
        n,
    );
    spec.ops_per_process = 2;
    spec.mix = OpMix::Alternate;
    for crash_pid in 0..n {
        for k in 1..=10usize {
            spec.faults = Some(FaultSpec::Explicit {
                crashes: vec![CrashAt {
                    pid: crash_pid,
                    after: k,
                }],
            });
            for seed in 0..4u64 {
                let plan = FaultPlan::new().crash(ProcessId(crash_pid), k);
                let run = run_sim_seed(&spec, seed, &plan).unwrap();
                if let Some(v) = &run.violation {
                    panic!("crash p{crash_pid} after {k} events, seed {seed}: {v}");
                }
                let pending: Vec<_> = run.outcome.history.pending().collect();
                if let Some(p) = pending.first() {
                    assert_eq!(p.pid, ProcessId(crash_pid));
                    pending_seen += 1;
                }
            }
        }
    }
    assert!(
        pending_seen > 0,
        "the sweep must hit crash points that leave a pending op"
    );
}

/// The same sweep for the double-collect snapshot: crash the updater
/// between its seq-read and its segment write (torn update, invisible),
/// after the write (visible but pending), and crash the scanner anywhere
/// inside a collect. Every history must satisfy the snapshot checker
/// with the pending ops left in place.
#[test]
fn double_collect_snapshot_survives_a_crash_at_every_update_point() {
    let n = 3;
    let mut pending_updates = 0usize;
    for crash_pid in 0..n {
        for k in 1..=8usize {
            for seed in 0..4u64 {
                let spec = ScenarioSpec::new(
                    "dc-crash-sweep",
                    Family::Snapshot,
                    "double_collect",
                    EngineKind::Sim,
                    n,
                );
                let (mut mem, obj) = build_sim_object(&spec).unwrap();
                let SimObject::Snapshot(snap) = obj else {
                    panic!("registry built the wrong face");
                };
                let mut w = WorkloadBuilder::new(n);
                for p in 0..n {
                    let pid = ProcessId(p);
                    for i in 0..2u64 {
                        let v = p as u64 * 100 + i + 1;
                        let s = Arc::clone(&snap);
                        w.op(
                            pid,
                            OpSpec::update(OpDesc::Update(v as i64), move || s.update(pid, v)),
                        );
                    }
                    let s = Arc::clone(&snap);
                    w.op(pid, OpSpec::value(OpDesc::Scan, move || s.scan(pid)));
                }
                let plan = FaultPlan::new().crash(ProcessId(crash_pid), k);
                // Budget guards against scan livelock among the survivors;
                // generous enough that it never triggers here.
                let outcome = Executor::with_step_budget(100_000).run_with_faults(
                    &mut mem,
                    w,
                    &mut RandomScheduler::new(seed),
                    &plan,
                );
                check_interval(&outcome.history, &SeqSpec::Snapshot { n, initial: 0 })
                    .unwrap_or_else(|v| {
                        panic!("crash p{crash_pid} after {k} events, seed {seed}: {v}")
                    });
                for p in outcome.history.pending() {
                    assert_eq!(p.pid, ProcessId(crash_pid));
                    if p.desc.is_update() {
                        pending_updates += 1;
                    }
                }
            }
        }
    }
    assert!(
        pending_updates > 0,
        "the sweep must leave some updates pending mid-write"
    );
}
