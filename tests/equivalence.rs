//! Cross-implementation equivalence: every implementation of an object
//! family must agree with the sequential specification — and therefore
//! with each other — on arbitrary sequential operation streams, both in
//! the real-atomics world and in the simulator.
//!
//! Since the scenario-engine refactor the implementations under test
//! come from the scenario registry: any newly registered implementation
//! is swept automatically, and `registry_completeness.rs` (in the
//! scenario crate) fails if a core implementation is missing from the
//! registry — so nothing can silently escape this test.
//!
//! Faces derived from one algorithm body must agree further: on the
//! same operation stream they return the same outputs and take the same
//! steps, operation by operation, down to the kind of each step (reads,
//! writes, successful and failed CASes).

use std::sync::Arc;

use ruo::scenario::{registry, BuildParams, Family, ImplEntry, RealObject, SimObject};
use ruo::sim::stepcount::{CountingMem, OpCounts};
use ruo::sim::{run_solo, Memory, ProcessId, SplitMix64};

use ruo::core::maxreg::sim::{SimMaxRegister, SimTreeMaxRegister};
use ruo::core::maxreg::TreeMaxRegister;
use ruo::core::snapshot::PathCopySnapshot;
use ruo::core::{MaxRegister, Snapshot};

/// Every registry face of `family`, built fresh: `(label, real)` and
/// `(label, sim)` lists plus the shared memory the sim faces live in.
struct Faces {
    real: Vec<(String, RealObject)>,
    sim: Vec<(String, SimObject)>,
    mem: Memory,
}

fn build_faces(family: Family, p: &BuildParams) -> Faces {
    let mut faces = Faces {
        real: Vec::new(),
        sim: Vec::new(),
        mem: Memory::new(),
    };
    let label = |e: &ImplEntry, face: &str| format!("{}/{} ({face})", e.family, e.id);
    for entry in registry().iter().filter(|e| e.family == family) {
        if entry.has_real() {
            faces
                .real
                .push((label(entry, "real"), entry.build_real(p).unwrap()));
        }
        if entry.has_sim() {
            faces.sim.push((
                label(entry, "sim"),
                entry.build_sim(&mut faces.mem, p).unwrap(),
            ));
        }
    }
    faces
}

fn solo(mem: &mut Memory, pid: ProcessId, m: ruo::sim::Machine) -> i64 {
    run_solo(mem, pid, m).0
}

#[test]
fn all_max_registers_agree_on_random_sequential_streams() {
    let mut rng = SplitMix64::new(2014);
    for _case in 0..50 {
        let n = 1 + rng.gen_index(6);
        let cap = 1u64 << (3 + rng.gen_below(8));
        let mut faces = build_faces(
            Family::MaxReg,
            &BuildParams {
                n,
                capacity: cap,
                root_fast_path: false,
                accuracy_k: 1,
            },
        );
        let mut expected = 0u64;
        for _op in 0..40 {
            let pid = ProcessId(rng.gen_index(n));
            if rng.gen_bool(0.6) {
                let v = rng.gen_below(cap);
                expected = expected.max(v);
                for (_, obj) in &faces.real {
                    if let RealObject::MaxReg(r) = obj {
                        r.write_max(pid, v);
                    }
                }
                for (_, obj) in &faces.sim {
                    if let SimObject::MaxReg(r) = obj {
                        solo(&mut faces.mem, pid, r.write_max(pid, v));
                    }
                }
            } else {
                for (name, obj) in &faces.real {
                    if let RealObject::MaxReg(r) = obj {
                        assert_eq!(r.read_max(), expected, "{name}");
                    }
                }
                for (name, obj) in &faces.sim {
                    if let SimObject::MaxReg(r) = obj {
                        assert_eq!(
                            solo(&mut faces.mem, pid, r.read_max(pid)) as u64,
                            expected,
                            "{name}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn all_counters_agree_on_random_sequential_streams() {
    let mut rng = SplitMix64::new(7);
    for _case in 0..40 {
        let n = 1 + rng.gen_index(6);
        let mut faces = build_faces(
            Family::Counter,
            &BuildParams {
                n,
                capacity: 100,
                root_fast_path: false,
                accuracy_k: 1,
            },
        );
        let mut expected = 0u64;
        for _op in 0..50 {
            let pid = ProcessId(rng.gen_index(n));
            if rng.gen_bool(0.6) {
                expected += 1;
                for (_, obj) in &faces.real {
                    if let RealObject::Counter(c) = obj {
                        c.increment(pid);
                    }
                }
                for (_, obj) in &faces.sim {
                    if let SimObject::Counter(c) = obj {
                        solo(&mut faces.mem, pid, c.increment(pid));
                    }
                }
            } else {
                for (name, obj) in &faces.real {
                    if let RealObject::Counter(c) = obj {
                        assert_eq!(c.read(), expected, "{name}");
                    }
                }
                for (name, obj) in &faces.sim {
                    if let SimObject::Counter(c) = obj {
                        assert_eq!(
                            solo(&mut faces.mem, pid, c.read(pid)) as u64,
                            expected,
                            "{name}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn all_snapshots_agree_on_random_sequential_streams() {
    let mut rng = SplitMix64::new(42);
    for _case in 0..40 {
        let n = 1 + rng.gen_index(5);
        let mut faces = build_faces(
            Family::Snapshot,
            &BuildParams {
                n,
                capacity: 200,
                root_fast_path: false,
                accuracy_k: 1,
            },
        );
        // The path-copy view accessor is outside the `Snapshot` trait;
        // keep one direct instance so views stay covered.
        let pc = PathCopySnapshot::new(n, 200);
        let mut expected = vec![0u64; n];
        for _op in 0..60 {
            let pid = ProcessId(rng.gen_index(n));
            if rng.gen_bool(0.6) {
                let v = rng.gen_below(1_000_000);
                expected[pid.index()] = v;
                pc.update(pid, v);
                for (_, obj) in &faces.real {
                    if let RealObject::Snapshot(s) = obj {
                        s.update(pid, v);
                    }
                }
                for (_, obj) in &faces.sim {
                    if let SimObject::Snapshot(s) = obj {
                        solo(&mut faces.mem, pid, s.update(pid, v));
                    }
                }
            } else {
                for (name, obj) in &faces.real {
                    if let RealObject::Snapshot(s) = obj {
                        assert_eq!(s.scan(), expected, "{name}");
                    }
                }
                for (name, obj) in &faces.sim {
                    if let SimObject::Snapshot(s) = obj {
                        let token = solo(&mut faces.mem, pid, s.scan(pid));
                        assert_eq!(s.take_scan_result(token), expected, "{name}");
                    }
                }
                let view = pc.view();
                for (i, &e) in expected.iter().enumerate() {
                    assert_eq!(view.get(i), e, "SnapshotView");
                }
            }
        }
    }
}

/// Sim machines driven by an interleaving scheduler must agree with the
/// real implementations at quiescence.
#[test]
fn sim_and_real_tree_registers_converge_identically() {
    let mut rng = SplitMix64::new(99);
    for _case in 0..20 {
        let n = 4;
        let real = Arc::new(TreeMaxRegister::new(n));
        let mut mem = Memory::new();
        let sim = SimTreeMaxRegister::new(&mut mem, n);
        // Concurrent-ish sim run: interleave four write machines randomly.
        let values: Vec<u64> = (0..n).map(|_| 1 + rng.gen_below(9_999)).collect();
        let mut machines: Vec<_> = (0..n)
            .map(|i| (ProcessId(i), sim.write_max(ProcessId(i), values[i])))
            .collect();
        while machines.iter().any(|(_, m)| !m.is_done()) {
            let alive: Vec<usize> = machines
                .iter()
                .enumerate()
                .filter(|(_, (_, m))| !m.is_done())
                .map(|(i, _)| i)
                .collect();
            let pick = alive[rng.gen_index(alive.len())];
            let (pid, m) = &mut machines[pick];
            let prim = m.enabled().unwrap();
            let resp = mem.apply(*pid, prim).resp;
            m.feed(resp);
        }
        for (i, &v) in values.iter().enumerate() {
            real.write_max(ProcessId(i), v);
        }
        let sim_result = solo(&mut mem, ProcessId(0), sim.read_max(ProcessId(0))) as u64;
        assert_eq!(sim_result, real.read_max());
        assert_eq!(sim_result, *values.iter().max().unwrap());
    }
}

/// Registry entries whose simulator face is still written apart from
/// the real one, so their steps may differ.
const TWINS: [(Family, &str, &str); 2] = [
    (
        Family::MaxReg,
        "tree",
        "Algorithm A's sim face pins the benchmark's 24,360-schedule W5 scope",
    ),
    (
        Family::MaxReg,
        "tree_elim",
        "shares Algorithm A's pinned sim face",
    ),
];

/// Every other registry entry with two faces, in registry order: each
/// runs one body on both.
const DERIVED: [&str; 10] = [
    "maxreg/aac",
    "maxreg/aac_unbalanced",
    "maxreg/farray",
    "maxreg/cas_cell",
    "maxreg/approx",
    "counter/farray",
    "counter/sharded",
    "counter/approx",
    "counter/aac",
    "snapshot/double_collect",
];

/// One operation on a real face: its output (empty for updates) and the
/// tally of its shared-memory steps.
fn real_op(obj: &RealObject, pid: ProcessId, update: bool, v: u64) -> (Vec<u64>, OpCounts) {
    CountingMem::begin_op();
    let out = match (obj, update) {
        (RealObject::MaxReg(r), true) => {
            r.write_max(pid, v);
            vec![]
        }
        (RealObject::MaxReg(r), false) => vec![r.read_max()],
        (RealObject::Counter(c), true) => {
            c.increment(pid);
            vec![]
        }
        (RealObject::Counter(c), false) => vec![c.read()],
        (RealObject::Snapshot(s), true) => {
            s.update(pid, v);
            vec![]
        }
        (RealObject::Snapshot(s), false) => s.scan(),
    };
    (out, CountingMem::take_op_counts())
}

/// The same operation on a sim face, run solo event by event: its
/// output and its events, classified as the real tally classifies
/// accesses.
fn sim_op(
    mem: &mut Memory,
    obj: &SimObject,
    pid: ProcessId,
    update: bool,
    v: u64,
) -> (Vec<u64>, OpCounts) {
    let mut machine = match (obj, update) {
        (SimObject::MaxReg(r), true) => r.write_max(pid, v),
        (SimObject::MaxReg(r), false) => r.read_max(pid),
        (SimObject::Counter(c), true) => c.increment(pid),
        (SimObject::Counter(c), false) => c.read(pid),
        (SimObject::Snapshot(s), true) => s.update(pid, v),
        (SimObject::Snapshot(s), false) => s.scan(pid),
    };
    let mut counts = OpCounts::new();
    while let Some(prim) = machine.enabled() {
        let ev = mem.apply(pid, prim);
        counts.add_event(&ev);
        machine.feed(ev.resp);
    }
    let result = machine.result().expect("a solo run completes");
    let out = match (obj, update) {
        (_, true) => vec![],
        (SimObject::Snapshot(s), false) => s.take_scan_result(result),
        (_, false) => vec![result as u64],
    };
    (out, counts)
}

#[test]
fn derived_faces_agree_step_for_step() {
    for (family, id, _why) in TWINS {
        let entry = registry()
            .iter()
            .find(|e| e.family == family && e.id == id)
            .unwrap_or_else(|| panic!("{family}/{id} is not registered"));
        assert!(
            entry.has_real() && entry.has_sim(),
            "{family}/{id} no longer has two faces; drop it from TWINS"
        );
    }
    CountingMem::enable();
    let mut rng = SplitMix64::new(1407);
    let mut swept = Vec::new();
    for entry in registry() {
        let twin = TWINS
            .iter()
            .any(|&(family, id, _)| family == entry.family && id == entry.id);
        if twin || !entry.has_real() || !entry.has_sim() {
            continue;
        }
        let name = format!("{}/{}", entry.family, entry.id);
        for _case in 0..20 {
            let p = BuildParams {
                n: 1 + rng.gen_index(6),
                capacity: 1 << 12,
                root_fast_path: false,
                accuracy_k: 1 + rng.gen_below(4),
            };
            let real = entry.build_real(&p).unwrap();
            let mut mem = Memory::new();
            let sim = entry.build_sim(&mut mem, &p).unwrap();
            for op in 0..40 {
                let pid = ProcessId(rng.gen_index(p.n));
                let update = rng.gen_bool(0.6);
                let v = rng.gen_below(p.capacity);
                let (real_out, real_counts) = real_op(&real, pid, update, v);
                let (sim_out, sim_counts) = sim_op(&mut mem, &sim, pid, update, v);
                assert_eq!(real_out, sim_out, "{name} op {op} ({p:?})");
                assert_eq!(real_counts, sim_counts, "{name} op {op} tallies ({p:?})");
            }
        }
        swept.push(name);
    }
    CountingMem::disable();
    assert_eq!(swept, DERIVED, "the sweep's derived faces changed");
}
