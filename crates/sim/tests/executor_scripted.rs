//! Executor + `ScriptedScheduler`: replaying fixed schedules through the
//! high-level executor, the mechanism regression schedules use.

use ruo_sim::history::OpDesc;
use ruo_sim::{
    access, Executor, Machine, Memory, ObjId, OpSpec, Prim, ProcessId, RoundRobin,
    ScriptedScheduler, Word, WorkloadBuilder,
};

async fn incr(o: ObjId) -> Word {
    loop {
        let v = access(Prim::Read(o)).await;
        let cas = Prim::Cas {
            obj: o,
            expected: v,
            new: v + 1,
        };
        if access(cas).await == 1 {
            return v + 1;
        }
    }
}

fn increments(n: usize, o: ObjId) -> WorkloadBuilder {
    let mut w = WorkloadBuilder::new(n);
    for p in 0..n {
        w.op(
            ProcessId(p),
            OpSpec::update(OpDesc::CounterIncrement, move || Machine::new(incr(o))),
        );
    }
    w
}

#[test]
fn scripted_schedule_forces_cas_failures() {
    let mut mem = Memory::new();
    let o = mem.alloc(0);
    // Interleave p0's read, p1's read, then both CAS: exactly one fails
    // and retries (2 extra steps).
    let script = ScriptedScheduler::new([
        ProcessId(0), // p0 read
        ProcessId(1), // p1 read (same value)
        ProcessId(0), // p0 CAS succeeds
        ProcessId(1), // p1 CAS fails
        ProcessId(1), // p1 retry read
        ProcessId(1), // p1 retry CAS succeeds
    ]);
    let outcome = Executor::new().run(&mut mem, increments(2, o), &mut { script });
    assert!(outcome.all_done);
    assert_eq!(mem.peek(o), 2);
    let steps: Vec<usize> = outcome.history.ops().iter().map(|op| op.steps).collect();
    assert_eq!(steps, vec![2, 4], "p1 must have paid the scripted retry");
}

#[test]
fn script_prefix_then_fallback_drains_everything() {
    let mut mem = Memory::new();
    let o = mem.alloc(0);
    // Script only the first two steps; round-robin fallback finishes.
    let script = ScriptedScheduler::new([ProcessId(2), ProcessId(2)]);
    let outcome = Executor::new().run(&mut mem, increments(3, o), &mut { script });
    assert!(outcome.all_done);
    assert_eq!(mem.peek(o), 3);
    // p2 completed first (its 2 steps were scripted back-to-back).
    let first_done = outcome
        .history
        .ops()
        .iter()
        .min_by_key(|op| op.response.unwrap())
        .unwrap();
    assert_eq!(first_done.pid, ProcessId(2));
}

#[test]
fn same_script_reproduces_the_same_execution() {
    let run = || {
        let mut mem = Memory::new();
        let o = mem.alloc(0);
        let script =
            ScriptedScheduler::new([ProcessId(1), ProcessId(0), ProcessId(1), ProcessId(0)]);
        let outcome = Executor::new().run(&mut mem, increments(2, o), &mut { script });
        let steps: Vec<usize> = outcome.history.ops().iter().map(|op| op.steps).collect();
        (mem.steps(), steps)
    };
    assert_eq!(run(), run());
}

#[test]
fn scripted_and_round_robin_agree_on_final_state() {
    let total = |sched: &mut dyn ruo_sim::Scheduler| {
        let mut mem = Memory::new();
        let o = mem.alloc(0);
        let outcome = Executor::new().run(&mut mem, increments(4, o), sched);
        assert!(outcome.all_done);
        mem.peek(o)
    };
    let mut rr = RoundRobin::new();
    let mut scripted = ScriptedScheduler::new((0..4).cycle().take(64).map(ProcessId));
    assert_eq!(total(&mut rr), 4);
    assert_eq!(total(&mut scripted), 4);
}
