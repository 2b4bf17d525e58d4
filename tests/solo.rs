//! `run_solo` against stepping. A solo run feeds a body once and lets
//! every later access apply itself to the memory as the body reaches
//! it; a scheduler steps the same machine one event at a time. Both must
//! take the same steps: equal results, step counts and memory, for every
//! simulator face in the registry, from fresh machines and from machines
//! a scheduler has already advanced.
//!
//! The solo slot that lends the memory to the accesses is per thread,
//! and a panic inside a solo run gives the memory back with the steps
//! applied before it and leaves no slot behind.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread;

use ruo::scenario::{registry, BuildParams, Family, ImplEntry, SimObject};
use ruo::sim::{
    access, run_solo, run_solo_vector, EventLog, Executor, FaultPlan, Machine, Memory, OpDesc,
    OpOutput, OpSpec, Prim, ProcessId, RoundRobin, SplitMix64, Word, WorkloadBuilder,
};

/// Streams per registry entry, and operations per stream.
const STREAMS: usize = 6;
const OPS: usize = 40;

/// Steps `m` on `mem` one event at a time, as a scheduler does, until
/// it completes or `limit` events have been taken.
fn step(mem: &mut Memory, pid: ProcessId, m: &mut Machine, limit: usize) {
    for _ in 0..limit {
        let Some(prim) = m.enabled() else { return };
        m.feed(mem.apply(pid, prim).resp);
    }
}

/// One operation of a stream: an update of `v`, or a read.
fn op(obj: &SimObject, pid: ProcessId, update: bool, v: u64) -> Machine {
    match (obj, update) {
        (SimObject::MaxReg(r), true) => r.write_max(pid, v),
        (SimObject::MaxReg(r), false) => r.read_max(pid),
        (SimObject::Counter(c), true) => c.increment(pid),
        (SimObject::Counter(c), false) => c.read(pid),
        (SimObject::Snapshot(s), true) => s.update(pid, v),
        (SimObject::Snapshot(s), false) => s.scan(pid),
    }
}

/// Runs `m` solo, through `run_solo_vector` for a scan: what it
/// returned and its step count.
fn solo(mem: &mut Memory, pid: ProcessId, m: Machine, scan: bool) -> (OpOutput, usize) {
    if scan {
        let (vector, steps) = run_solo_vector(mem, pid, m);
        (OpOutput::Vector(vector), steps)
    } else {
        let (result, steps) = run_solo(mem, pid, m);
        (OpOutput::Value(result), steps)
    }
}

/// One seeded stream on `entry`, run on two faces built from the same
/// initial memory: through `run_solo` on one, event by event on the
/// other. About a third of the operations are first advanced by hand
/// the same few events on both sides.
fn differential(entry: &ImplEntry, seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let p = BuildParams {
        n: 1 + rng.gen_index(6),
        capacity: 1 << 10,
        root_fast_path: rng.gen_bool(0.5),
        accuracy_k: 1 + rng.gen_below(4),
    };
    let name = format!("{}/{} seed {seed} ({p:?})", entry.family, entry.id);
    let mut solo_mem = Memory::new();
    let solo_face = entry.build_sim(&mut solo_mem, &p).unwrap();
    let mut step_mem = Memory::new();
    let stepped = entry.build_sim(&mut step_mem, &p).unwrap();
    assert_eq!(solo_mem.snapshot(), step_mem.snapshot(), "{name}");
    for i in 0..OPS {
        let pid = ProcessId(rng.gen_index(p.n));
        let update = rng.gen_bool(0.6);
        let v = rng.gen_below(p.capacity);
        let ahead = if rng.gen_bool(0.35) {
            1 + rng.gen_index(4)
        } else {
            0
        };
        let mut a = op(&solo_face, pid, update, v);
        let mut b = op(&stepped, pid, update, v);
        step(&mut solo_mem, pid, &mut a, ahead);
        step(&mut step_mem, pid, &mut b, ahead);
        let scan = matches!(solo_face, SimObject::Snapshot(_)) && !update;
        let (output, steps) = solo(&mut solo_mem, pid, a, scan);
        step(&mut step_mem, pid, &mut b, usize::MAX);
        let want = b.output().expect("stepped to completion");
        assert_eq!(output, want, "{name} op {i}: result");
        assert_eq!(steps, b.steps(), "{name} op {i}: steps");
        assert_eq!(
            solo_mem.snapshot(),
            step_mem.snapshot(),
            "{name} op {i}: memory"
        );
        assert_eq!(
            solo_mem.steps(),
            step_mem.steps(),
            "{name} op {i}: mem.steps()"
        );
    }
}

/// Every registry entry with a simulator face, `STREAMS` seeded streams
/// each; returns the families swept.
fn sweep(seed: u64) -> Vec<Family> {
    let mut rng = SplitMix64::new(seed);
    let mut families = Vec::new();
    for entry in registry().iter().filter(|e| e.has_sim()) {
        for _ in 0..STREAMS {
            differential(entry, rng.next_u64());
        }
        if !families.contains(&entry.family) {
            families.push(entry.family);
        }
    }
    families
}

#[test]
fn run_solo_takes_the_steps_of_stepping_on_every_sim_face() {
    // Two threads at once: each solo run lends its memory to its own
    // thread's slot.
    let swept = thread::scope(|s| {
        let runs = [s.spawn(|| sweep(2014)), s.spawn(|| sweep(1407))];
        runs.map(|r| r.join().expect("a sweep passes"))
    });
    for families in swept {
        assert_eq!(
            families.len(),
            3,
            "every family has a sim face: {families:?}"
        );
    }
}

/// The panic message of a caught panic.
fn message(err: &(dyn std::any::Any + Send)) -> &str {
    err.downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| err.downcast_ref::<&str>().copied())
        .unwrap_or("")
}

/// Runs `m` solo on `mem` and returns the message it panicked with.
fn solo_panic(mem: &mut Memory, m: Machine) -> String {
    let err = catch_unwind(AssertUnwindSafe(|| run_solo(mem, ProcessId(0), m)))
        .expect_err("the solo run panics");
    message(&*err).to_owned()
}

/// What must hold after a solo run unwound: no memory is left in the
/// slot, so a new machine suspends on its first access, and an executor
/// run takes one event per access.
fn assert_slot_is_clear() {
    let mut mem = Memory::new();
    let o = mem.alloc(0);
    let fresh = Machine::new(async move { access(Prim::Read(o)).await });
    assert_eq!(fresh.enabled(), Some(Prim::Read(o)));
    assert_eq!(fresh.steps(), 0);

    let mut w = WorkloadBuilder::new(2);
    for p in 0..2 {
        w.op(
            ProcessId(p),
            OpSpec::update(OpDesc::CounterIncrement, move || {
                Machine::new(async move {
                    let v = access(Prim::Read(o)).await;
                    access(Prim::Write(o, v + 1)).await
                })
            }),
        );
    }
    let mut log = EventLog::new();
    let outcome = Executor::new().run_recorded(
        &mut mem,
        w,
        &mut RoundRobin::new(),
        &FaultPlan::none(),
        &mut log,
    );
    assert!(outcome.all_done);
    assert!(outcome.history.ops().iter().all(|op| op.steps == 2));
    // Round robin interleaves the two: read, read, write, write.
    let pids: Vec<_> = log.events().iter().map(|e| e.pid.index()).collect();
    assert_eq!(pids, [0, 1, 0, 1]);
    assert_eq!(mem.peek(o), 1);
}

#[test]
fn a_body_that_panics_gives_back_the_memory_with_its_steps() {
    const K: usize = 5;
    let mut mem = Memory::new();
    let cells = mem.alloc_n(8, 0);
    let body = Machine::new(async move {
        for (i, &c) in cells.iter().enumerate().take(K) {
            access(Prim::Write(c, i as Word + 1)).await;
        }
        panic!("the body fails after {K} accesses");
    });
    assert_eq!(
        solo_panic(&mut mem, body),
        format!("the body fails after {K} accesses")
    );
    assert_eq!(mem.steps(), K);
    assert_eq!(mem.snapshot(), [1, 2, 3, 4, 5, 0, 0, 0]);
    assert_slot_is_clear();
}

#[test]
fn a_body_awaiting_something_else_panics_and_gives_back_the_memory() {
    let mut mem = Memory::new();
    let [a, b] = [mem.alloc(0), mem.alloc(0)];
    let body = Machine::new(async move {
        access(Prim::Write(a, 7)).await;
        access(Prim::Cas {
            obj: b,
            expected: 0,
            new: 9,
        })
        .await;
        std::future::pending::<()>().await;
        0
    });
    assert_eq!(
        solo_panic(&mut mem, body),
        "a body suspended on something other than an access"
    );
    assert_eq!(mem.steps(), 2);
    assert_eq!(mem.snapshot(), [7, 9]);
    assert_slot_is_clear();
}

#[test]
fn a_solo_run_inside_a_solo_run_panics_and_gives_back_the_memory() {
    let mut mem = Memory::new();
    let o = mem.alloc(0);
    let mut inner = Memory::new();
    let i = inner.alloc(0);
    let nested = Machine::new(async move {
        access(Prim::Read(i)).await;
        access(Prim::Read(i)).await
    });
    let body = Machine::new(async move {
        access(Prim::Write(o, 1)).await;
        access(Prim::Write(o, 2)).await;
        // A one-access machine never uses the slot; a body would.
        run_solo(
            &mut inner,
            ProcessId(1),
            Machine::single(Prim::Read(i), |w| w),
        );
        run_solo(&mut inner, ProcessId(1), nested);
        0
    });
    assert_eq!(
        solo_panic(&mut mem, body),
        "run_solo called inside a solo run"
    );
    assert_eq!((mem.steps(), mem.peek(o)), (2, 2));
    assert_slot_is_clear();
}

#[test]
fn a_machine_built_inside_a_solo_run_panics_and_gives_back_the_memory() {
    let mut mem = Memory::new();
    let o = mem.alloc(0);
    let body = Machine::new(async move {
        access(Prim::Write(o, 1)).await;
        // Built here, the new body does not suspend: its accesses apply
        // themselves to the lent memory at once.
        let inner = Machine::new(async move {
            access(Prim::Write(o, 2)).await;
            access(Prim::Read(o)).await
        });
        access(Prim::Read(o)).await + inner.steps() as Word
    });
    assert_eq!(
        solo_panic(&mut mem, body),
        "Machine::new called inside a solo run: the new body's accesses applied \
         themselves to the solo run's memory"
    );
    // The outer write and the inner body's two accesses, then the panic.
    assert_eq!((mem.steps(), mem.peek(o)), (3, 2));
    assert_slot_is_clear();
}
