//! Exhaustive crash-tolerance proofs: bounded exploration over schedules
//! *with crash points* ([`ExploreConfig::max_crashes`]).
//!
//! Where `tests/failure_injection.rs` drives hand-crafted crash
//! schedules, these tests enumerate **every** schedule with up to one
//! crash inside the scope:
//!
//! * double-CAS Algorithm A survives every 1-crash schedule at `N = 4`
//!   (the crashed writer's value may or may not be visible — the
//!   completion rule — but no completed write is ever lost and reads
//!   stay monotone);
//! * the deliberately weakened single-CAS variant is caught
//!   automatically under the same crash exploration, with the interval
//!   checker handling the pending operations crashes produce;
//! * sleep-set pruning remains sound in the presence of crash branches:
//!   the pruned and unpruned searches agree on the set of history
//!   classes.

use std::sync::Arc;

use ruo::core::maxreg::sim::{write_leaf, SimMaxRegister, SimTreeMaxRegister};
use ruo::core::shape::AlgorithmATree;
use ruo::scenario::{
    explore_parts, EngineKind, ExploreSpec, Family, OpKind, ScenarioOp, ScenarioSpec,
};
use ruo::sim::explore::{explore, ExploreConfig, ExploreOp};
use ruo::sim::lin::{check_exact, check_interval};
use ruo::sim::spec::SeqSpec;
use ruo::sim::{History, Machine, Memory, ObjId, OpDesc, Prim, ProcessId, Word, NEG_INF};

/// The flagship crash-tolerance proof: the scaled `N = 4` scope from
/// `tests/exhaustive.rs` (one 27-step write, two dominated 1-step
/// writes, one read, seeded root of 3), now with a 1-crash budget. The
/// 27-step `WriteMax(4)` can crash after any of its events — mid leaf
/// write, between the two CASes of a level, after the root CAS — and in
/// every resulting schedule the interval checker must accept: the pending
/// write may be visible or not, but completed writes are never lost and
/// reads never go backwards.
#[test]
fn double_cas_survives_every_one_crash_schedule_at_n4() {
    // The scope is the declarative W5 spec with a 1-crash budget; the
    // scenario engine supplies the setup closure and op descriptors,
    // and the test layers its crash-accounting checker on top.
    let mut spec = ScenarioSpec::new(
        "n4-one-crash",
        Family::MaxReg,
        "tree",
        EngineKind::Explore,
        4,
    );
    spec.root_fast_path = true;
    spec.explore = Some(ExploreSpec {
        seed_update: Some(3),
        ops: vec![
            ScenarioOp {
                pid: 0,
                kind: OpKind::Update,
                value: 4,
            }, // 27 steps: the crash target
            ScenarioOp {
                pid: 1,
                kind: OpKind::Update,
                value: 2,
            }, // dominated: 1 root read
            ScenarioOp {
                pid: 2,
                kind: OpKind::Update,
                value: 3,
            }, // dominated: 1 root read
            ScenarioOp {
                pid: 3,
                kind: OpKind::Read,
                value: 0,
            },
        ],
        max_schedules: 2_000_000,
        prune: true,
        max_crashes: 1,
    });
    let parts = explore_parts(&spec).unwrap();
    assert_eq!(parts.initial, 3, "the seed update is the checker's initial");
    let mut crashed_histories = 0usize;
    let summary = explore(
        &*parts.setup,
        &parts.ops,
        &mut |h: &History| {
            let pending: Vec<_> = h.pending().collect();
            assert!(pending.len() <= 1, "crash budget is 1");
            if let Some(p) = pending.first() {
                // Only the 27-step write can crash (the other three ops
                // are single-step, and a crash needs a non-final event).
                assert_eq!(p.desc, OpDesc::WriteMax(4));
                assert!(p.output.is_none());
                crashed_histories += 1;
            }
            check_interval(
                h,
                &SeqSpec::MaxRegister {
                    initial: parts.initial,
                },
            )
            .is_ok()
        },
        ExploreConfig {
            max_schedules: 2_000_000,
            prune: true,
            max_crashes: 1,
        },
    );
    assert!(
        summary.violation.is_none(),
        "1-crash schedule violated Algorithm A: {:?} (crashed: {:?})",
        summary.violation,
        summary.violation_crashed
    );
    assert!(!summary.truncated, "the 1-crash scope must be exhaustive");
    assert!(
        summary.stats.crash_branches > 0 && crashed_histories > 0,
        "crash branches must actually be explored"
    );
    println!(
        "N=4 one-crash proof: {} schedules ({} crash branches, {} with a pending write)",
        summary.schedules, summary.stats.crash_branches, crashed_histories
    );
}

/// The single-CAS variant of Algorithm A, as in
/// `tests/exhaustive.rs::exploration_rediscovers_the_single_cas_bug` —
/// each level does one blind `CAS(node, old, max(children))` instead of
/// the algorithm's double CAS, and a dominated write returns at once.
mod single_cas {
    use super::*;

    pub fn broken_write(
        tree: &Arc<AlgorithmATree>,
        cells: &Arc<[ObjId]>,
        pid: usize,
        v: u64,
    ) -> Machine {
        let (tree, cells) = (Arc::clone(tree), Arc::clone(cells));
        Machine::new(async move {
            let leaf = tree.leaf_for(pid, v);
            write_leaf(&cells, &tree, leaf, v as Word, false, 1).await;
            0
        })
    }
}

/// Crash exploration re-finds the single-CAS lost-write bug with no
/// hand-crafted schedule: the same scope as the crash-free rediscovery
/// test, but searched *through* the 1-crash schedule space — so the
/// interval checker digests hundreds of pending-op histories on the way to the
/// violation, with pruning on and off.
#[test]
fn one_crash_exploration_rediscovers_the_single_cas_bug() {
    let setup = || {
        let mut mem = Memory::new();
        let tree = Arc::new(AlgorithmATree::new(2));
        let cells: Arc<[ObjId]> = mem.alloc_n(tree.shape().len(), NEG_INF).into();
        let root = cells[tree.root()];
        let machines = vec![
            single_cas::broken_write(&tree, &cells, 0, 2),
            single_cas::broken_write(&tree, &cells, 1, 3),
            Machine::single(Prim::Read(root), |v| v.max(0)),
        ];
        (mem, machines)
    };
    let ops = vec![
        ExploreOp {
            pid: ProcessId(0),
            desc: OpDesc::WriteMax(2),
            returns_value: false,
        },
        ExploreOp {
            pid: ProcessId(1),
            desc: OpDesc::WriteMax(3),
            returns_value: false,
        },
        ExploreOp {
            pid: ProcessId(2),
            desc: OpDesc::ReadMax,
            returns_value: true,
        },
    ];
    for prune in [false, true] {
        let mut pending_seen = 0usize;
        let summary = explore(
            &setup,
            &ops,
            &mut |h: &History| {
                pending_seen += h.pending().count();
                check_interval(h, &SeqSpec::MaxRegister { initial: 0 }).is_ok()
            },
            ExploreConfig {
                max_schedules: 4_000_000,
                prune,
                max_crashes: 1,
            },
        );
        let schedule = summary
            .violation
            .unwrap_or_else(|| panic!("prune={prune}: single-CAS bug not found under crashes"));
        assert!(schedule.contains(&ProcessId(0)));
        assert!(schedule.contains(&ProcessId(1)));
        assert!(
            pending_seen > 0,
            "prune={prune}: the search must wade through pending-op histories"
        );
        println!(
            "single-CAS bug under 1-crash exploration (prune={prune}): \
             found after {} schedules, {} crash branches, crashed in violation: {:?}",
            summary.schedules, summary.stats.crash_branches, summary.violation_crashed
        );
    }
}

/// Pruning soundness under crashes, on the real object: the `N = 2`
/// Algorithm A scope (one 10-step write, two 1-step reads) explored with
/// a 1-crash budget, pruned and unpruned. Both searches must accept
/// every history (exact + interval checker agreement) and produce the same
/// set of history classes (outputs, completion flags, precedence).
#[test]
fn crash_pruning_preserves_algorithm_a_history_classes() {
    use std::collections::BTreeSet;

    let setup = || {
        let mut mem = Memory::new();
        let reg = SimTreeMaxRegister::new(&mut mem, 2);
        let machines = vec![
            reg.write_max(ProcessId(0), 1),
            reg.read_max(ProcessId(1)),
            reg.read_max(ProcessId(2)),
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
    let spec = SeqSpec::MaxRegister { initial: 0 };
    let signature = |h: &History| {
        let by_pid = |pid: ProcessId| {
            h.ops()
                .iter()
                .find(|o| o.pid == pid)
                .expect("one record per process")
        };
        let rows: Vec<String> = ops
            .iter()
            .map(|op| {
                let rec = by_pid(op.pid);
                let row: Vec<bool> = ops
                    .iter()
                    .map(|other| rec.precedes(by_pid(other.pid)))
                    .collect();
                format!("{:?}|{}|{:?}", rec.output, rec.is_complete(), row)
            })
            .collect();
        rows.join(";")
    };
    let run = |prune: bool| {
        let mut classes: BTreeSet<String> = BTreeSet::new();
        let summary = explore(
            &setup,
            &ops,
            &mut |h: &History| {
                classes.insert(signature(h));
                check_exact(h, &spec).is_ok() && check_interval(h, &spec).is_ok()
            },
            ExploreConfig {
                max_schedules: 1_000_000,
                prune,
                max_crashes: 1,
            },
        );
        assert!(
            summary.violation.is_none(),
            "prune={prune}: violation {:?}",
            summary.violation
        );
        assert!(!summary.truncated);
        (classes, summary.schedules)
    };
    let (full, full_n) = run(false);
    let (pruned, pruned_n) = run(true);
    assert!(pruned_n <= full_n, "pruned {pruned_n} vs full {full_n}");
    assert_eq!(
        full, pruned,
        "crash pruning changed the set of Algorithm A history classes"
    );
    // A crash-free run of the same scope enumerates 132 interleavings;
    // the crash budget strictly grows the schedule space.
    assert!(full_n > 132, "crash schedules missing: {full_n}");
    println!("N=2 crash soundness: {full_n} full vs {pruned_n} pruned schedules");
}
