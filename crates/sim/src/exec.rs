//! The executor: runs workloads of operations under a scheduler.

use std::collections::VecDeque;
use std::fmt;

use crate::fault::{FaultClock, FaultPlan};
use crate::history::{History, OpDesc, OpOutput, OpRecord};
use crate::{Event, EventLog, Machine, Memory, ProcessId, Scheduler, Word};

type StartFn = Box<dyn FnOnce() -> Machine + Send>;
type FinishFn = Box<dyn FnOnce(Word) -> OpOutput + Send>;

/// One operation a process will perform: a description (for the history)
/// plus a constructor for its step machine.
pub struct OpSpec {
    desc: OpDesc,
    start: StartFn,
    finish: FinishFn,
}

impl fmt::Debug for OpSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OpSpec").field("desc", &self.desc).finish()
    }
}

impl OpSpec {
    /// An update-type operation (output is [`OpOutput::Unit`]).
    pub fn update(desc: OpDesc, start: impl FnOnce() -> Machine + Send + 'static) -> Self {
        OpSpec {
            desc,
            start: Box::new(start),
            finish: Box::new(|_| OpOutput::Unit),
        }
    }

    /// A read-type operation whose machine result is the returned value.
    pub fn value(desc: OpDesc, start: impl FnOnce() -> Machine + Send + 'static) -> Self {
        OpSpec {
            desc,
            start: Box::new(start),
            finish: Box::new(OpOutput::Value),
        }
    }

    /// A scan-type operation; `finish` maps the machine's word result
    /// (typically an index into a side table owned by the object) to the
    /// scanned vector.
    pub fn vector(
        desc: OpDesc,
        start: impl FnOnce() -> Machine + Send + 'static,
        finish: impl FnOnce(Word) -> Vec<Word> + Send + 'static,
    ) -> Self {
        OpSpec {
            desc,
            start: Box::new(start),
            finish: Box::new(move |w| OpOutput::Vector(finish(w))),
        }
    }

    /// The operation's description.
    pub fn desc(&self) -> &OpDesc {
        &self.desc
    }
}

/// Assigns each process the sequence of operations it will perform.
#[derive(Debug)]
pub struct WorkloadBuilder {
    queues: Vec<VecDeque<OpSpec>>,
}

impl WorkloadBuilder {
    /// A workload for `n` processes (ids `0..n`), all initially idle.
    pub fn new(n: usize) -> Self {
        WorkloadBuilder {
            queues: (0..n).map(|_| VecDeque::new()).collect(),
        }
    }

    /// Appends an operation to `pid`'s queue.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    pub fn op(&mut self, pid: ProcessId, spec: OpSpec) -> &mut Self {
        self.queues[pid.index()].push_back(spec);
        self
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.queues.len()
    }
}

/// What happened when an executor ran a workload.
#[derive(Clone, Debug)]
pub struct ExecOutcome {
    /// The invocation/response history of every operation that was
    /// invoked.
    pub history: History,
    /// Whether every queued operation completed. `false` means the step
    /// budget ran out first — expected for obstruction-free algorithms
    /// under adversarial schedules — or that a crashed process left work
    /// behind (see [`ExecOutcome::crashed`]).
    pub all_done: bool,
    /// Processes the [`FaultPlan`] crashed during the run, in id order.
    /// Each crashed process's in-flight operation (if any) is *pending*
    /// in [`ExecOutcome::history`]: invoked but never responded. Empty
    /// for [`Executor::run`].
    pub crashed: Vec<ProcessId>,
}

struct Running {
    machine: Machine,
    hist_idx: usize,
    finish: Option<FinishFn>,
}

struct ProcState {
    queue: VecDeque<OpSpec>,
    current: Option<Running>,
}

/// Runs workloads step by step under a scheduler.
#[derive(Debug, Default)]
pub struct Executor {
    max_steps: Option<usize>,
}

impl Executor {
    /// An executor with no step budget (suitable for wait-free
    /// algorithms, which always terminate).
    pub fn new() -> Self {
        Executor { max_steps: None }
    }

    /// Limits the total number of shared-memory steps. Use for
    /// obstruction-free algorithms (e.g. double-collect scans), whose
    /// operations an adversarial schedule can starve forever.
    pub fn with_step_budget(max_steps: usize) -> Self {
        Executor {
            max_steps: Some(max_steps),
        }
    }

    /// Runs the workload on `mem` under `sched` until every operation
    /// completes or the step budget is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `mem` has already taken steps (see
    /// [`run_with_faults`](Executor::run_with_faults)).
    pub fn run(
        &self,
        mem: &mut Memory,
        workload: WorkloadBuilder,
        sched: &mut dyn Scheduler,
    ) -> ExecOutcome {
        self.run_with_faults(mem, workload, sched, &FaultPlan::none())
    }

    /// Runs the workload on `mem` under `sched` while `plan` injects
    /// crashes and stalls at the executor's scheduling points.
    ///
    /// A crashed process is never scheduled again: its in-flight
    /// operation stays *pending* in the history (the completion rule in
    /// [`lin`](crate::lin) decides whether it took effect) and its
    /// queued operations are never invoked — so `all_done` is `false`
    /// whenever a crash left work behind. A stalled process is skipped
    /// until its window of global steps elapses; if every live process
    /// is stalled at once, the earliest window is released immediately
    /// (time passes vacuously when nobody can move), so stalls never
    /// deadlock the run.
    ///
    /// # Panics
    ///
    /// Panics if `mem` has already taken steps: the history's ticks are
    /// step indices from the initial configuration.
    pub fn run_with_faults(
        &self,
        mem: &mut Memory,
        workload: WorkloadBuilder,
        sched: &mut dyn Scheduler,
        plan: &FaultPlan,
    ) -> ExecOutcome {
        self.drive(mem, workload, sched, plan, |_| {})
    }

    /// [`run_with_faults`](Executor::run_with_faults), appending every
    /// event of the run to `events` in order: the execution whose step
    /// indices the history's ticks are. Step attribution
    /// (`ruo_metrics::trace_execution`) reads it; no other caller needs
    /// the events, so the other entry points keep none.
    ///
    /// # Panics
    ///
    /// Panics if `mem` has already taken steps, or if the run takes a
    /// step while `events` is not empty: an event's `seq` is its
    /// position in the log ([`EventLog::push`]).
    pub fn run_recorded(
        &self,
        mem: &mut Memory,
        workload: WorkloadBuilder,
        sched: &mut dyn Scheduler,
        plan: &FaultPlan,
        events: &mut EventLog,
    ) -> ExecOutcome {
        self.drive(mem, workload, sched, plan, |ev| events.push(ev))
    }

    /// The run loop, handing each step's event to `on_event`.
    fn drive(
        &self,
        mem: &mut Memory,
        workload: WorkloadBuilder,
        sched: &mut dyn Scheduler,
        plan: &FaultPlan,
        mut on_event: impl FnMut(Event),
    ) -> ExecOutcome {
        assert_eq!(
            mem.steps(),
            0,
            "the executor runs from a memory that has taken no steps"
        );
        let mut history = History::new();
        let mut clock = FaultClock::new(plan, workload.queues.len());
        let mut procs: Vec<ProcState> = workload
            .queues
            .into_iter()
            .map(|queue| ProcState {
                queue,
                current: None,
            })
            .collect();
        // Scheduling buffers, refilled at every step.
        let mut alive: Vec<ProcessId> = Vec::with_capacity(procs.len());
        let mut runnable: Vec<ProcessId> = Vec::with_capacity(procs.len());

        loop {
            alive.clear();
            alive.extend(
                procs
                    .iter()
                    .enumerate()
                    .filter(|(_, st)| st.current.is_some() || !st.queue.is_empty())
                    .map(|(i, _)| ProcessId(i))
                    .filter(|&pid| !clock.is_crashed(pid)),
            );
            if alive.is_empty() {
                let all_done = procs
                    .iter()
                    .all(|st| st.current.is_none() && st.queue.is_empty());
                return ExecOutcome {
                    history,
                    all_done,
                    crashed: clock.crashed_processes(),
                };
            }
            if let Some(budget) = self.max_steps {
                if mem.steps() >= budget {
                    return ExecOutcome {
                        history,
                        all_done: false,
                        crashed: clock.crashed_processes(),
                    };
                }
            }
            let now = mem.steps();
            runnable.clear();
            runnable.extend(
                alive
                    .iter()
                    .copied()
                    .filter(|&pid| !clock.is_stalled(pid, now)),
            );
            if runnable.is_empty() {
                let released = clock
                    .release_earliest_stall(&alive)
                    .expect("every live process is stalled");
                runnable.push(released);
            }
            let choice = sched.pick(&runnable);
            let pid = runnable[choice];
            let st = &mut procs[pid.index()];

            if st.current.is_none() {
                let spec = st.queue.pop_front().expect("runnable implies work");
                let machine = (spec.start)();
                let invoke = mem.steps();
                history.push(OpRecord {
                    pid,
                    desc: spec.desc,
                    invoke,
                    response: None,
                    output: None,
                    steps: 0,
                });
                let hist_idx = history.len() - 1;
                if machine.is_done() {
                    let result = machine.result().expect("done machine has result");
                    let rec = &mut history.ops_mut()[hist_idx];
                    // Completion consumes a tick: a zero-step operation
                    // occupies [invoke, invoke + 1], never a zero-width
                    // interval (response == invoke would make two
                    // same-tick operations mutually precede each other
                    // and poison the checkers' precedence relation).
                    rec.response = Some(invoke + 1);
                    rec.output = Some((spec.finish)(result));
                    continue;
                }
                st.current = Some(Running {
                    machine,
                    hist_idx,
                    finish: Some(spec.finish),
                });
            }

            let running = st.current.as_mut().expect("current op present");
            let prim = running.machine.enabled().expect("running op has event");
            let ev = mem.apply(pid, prim);
            on_event(ev);
            clock.on_event(pid, mem.steps());
            let finished = running.machine.feed(ev.resp);
            history.ops_mut()[running.hist_idx].steps = running.machine.steps();
            if finished {
                let result = running.machine.result().expect("finished machine");
                let finish = running.finish.take().expect("finish not yet used");
                let rec = &mut history.ops_mut()[running.hist_idx];
                rec.response = Some(mem.steps());
                rec.output = Some(finish(result));
                st.current = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::OpDesc;
    use crate::{access, Prim, RandomScheduler, RoundRobin, Solo};

    /// A CAS-loop counter increment on a single cell.
    async fn incr(o: crate::ObjId) -> Word {
        loop {
            let v = access(Prim::Read(o)).await;
            let cas = Prim::Cas {
                obj: o,
                expected: v,
                new: v + 1,
            };
            if access(cas).await == v {
                return v + 1;
            }
        }
    }

    fn workload(n: usize, o: crate::ObjId) -> WorkloadBuilder {
        let mut w = WorkloadBuilder::new(n);
        for i in 0..n {
            w.op(
                ProcessId(i),
                OpSpec::update(OpDesc::CounterIncrement, move || Machine::new(incr(o))),
            );
        }
        w
    }

    #[test]
    fn round_robin_runs_all_increments() {
        let mut mem = Memory::new();
        let o = mem.alloc(0);
        let outcome = Executor::new().run(&mut mem, workload(4, o), &mut RoundRobin::new());
        assert!(outcome.all_done);
        assert_eq!(mem.peek(o), 4);
        assert_eq!(outcome.history.len(), 4);
        assert!(outcome.history.completed().count() == 4);
    }

    #[test]
    fn solo_runs_operations_without_interference() {
        let mut mem = Memory::new();
        let o = mem.alloc(0);
        let outcome = Executor::new().run(&mut mem, workload(3, o), &mut Solo::new());
        assert!(outcome.all_done);
        assert_eq!(mem.peek(o), 3);
        // Solo: every increment succeeds on the first CAS — exactly 2 steps.
        for op in outcome.history.ops() {
            assert_eq!(op.steps, 2);
        }
    }

    #[test]
    fn random_schedules_still_count_correctly() {
        for seed in 0..16 {
            let mut mem = Memory::new();
            let o = mem.alloc(0);
            let outcome =
                Executor::new().run(&mut mem, workload(5, o), &mut RandomScheduler::new(seed));
            assert!(outcome.all_done);
            assert_eq!(mem.peek(o), 5, "seed {seed}");
            assert!(outcome.history.ops().iter().all(|op| op.is_complete()));
        }
    }

    #[test]
    fn step_budget_stops_execution() {
        let mut mem = Memory::new();
        let o = mem.alloc(0);
        let outcome =
            Executor::with_step_budget(3).run(&mut mem, workload(4, o), &mut RoundRobin::new());
        assert!(!outcome.all_done);
        assert_eq!(mem.steps(), 3);
    }

    #[test]
    fn history_intervals_nest_inside_execution() {
        let mut mem = Memory::new();
        let o = mem.alloc(0);
        let outcome = Executor::new().run(&mut mem, workload(3, o), &mut RandomScheduler::new(42));
        // Iterate completed() rather than unwrapping responses: the same
        // assertion must hold verbatim for crash-truncated runs, where
        // some operations are pending.
        let mut seen = 0;
        for op in outcome.history.completed() {
            let resp = op.response.expect("completed() yields responded ops");
            assert!(op.invoke < resp);
            assert!(resp <= mem.steps());
            seen += 1;
        }
        assert_eq!(seen, 3);
    }

    #[test]
    fn zero_step_ops_never_get_zero_width_intervals() {
        // Two already-done machines invoked at the same tick: each must
        // be recorded with response == invoke + 1, so neither precedes
        // the other (regression: response == invoke created a mutual-
        // precedence cycle).
        let mut mem = Memory::new();
        let _ = mem.alloc(0);
        let mut w = WorkloadBuilder::new(2);
        for i in 0..2 {
            w.op(
                ProcessId(i),
                OpSpec::update(OpDesc::WriteMax(0), || Machine::completed(0)),
            );
        }
        let outcome = Executor::new().run(&mut mem, w, &mut RoundRobin::new());
        assert!(outcome.all_done);
        let ops = outcome.history.ops();
        assert_eq!(ops.len(), 2);
        for op in ops {
            assert_eq!(op.invoke, 0);
            assert_eq!(op.response, Some(1));
        }
        assert!(ops[0].overlaps(&ops[1]));
        assert!(!ops[0].precedes(&ops[1]));
        assert!(!ops[1].precedes(&ops[0]));
    }

    #[test]
    fn crashed_process_leaves_a_pending_op() {
        // p1 crashes after its first event: its read happened, the CAS
        // never will. The op must stay pending and the run must report
        // unfinished work.
        let mut mem = Memory::new();
        let o = mem.alloc(0);
        let plan = FaultPlan::new().crash(ProcessId(1), 1);
        let outcome = Executor::new().run_with_faults(
            &mut mem,
            workload(2, o),
            &mut RoundRobin::new(),
            &plan,
        );
        assert!(!outcome.all_done);
        assert_eq!(outcome.crashed, vec![ProcessId(1)]);
        assert_eq!(mem.peek(o), 1); // only p0's increment landed
        let ops = outcome.history.ops();
        assert_eq!(ops.len(), 2);
        let pending: Vec<_> = ops.iter().filter(|op| !op.is_complete()).collect();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].pid, ProcessId(1));
        assert!(pending[0].output.is_none());
    }

    #[test]
    fn crash_before_first_event_never_invokes() {
        let mut mem = Memory::new();
        let o = mem.alloc(0);
        let plan = FaultPlan::new().crash(ProcessId(0), 0);
        let outcome = Executor::new().run_with_faults(
            &mut mem,
            workload(3, o),
            &mut RoundRobin::new(),
            &plan,
        );
        assert!(!outcome.all_done);
        assert_eq!(outcome.crashed, vec![ProcessId(0)]);
        // p0's operation was never invoked, so it is absent — not pending.
        assert_eq!(outcome.history.len(), 2);
        assert!(outcome.history.ops().iter().all(|op| op.is_complete()));
        assert_eq!(mem.peek(o), 2);
    }

    #[test]
    fn stalls_delay_but_never_lose_operations() {
        let mut mem = Memory::new();
        let o = mem.alloc(0);
        let plan = FaultPlan::new()
            .stall(ProcessId(0), 1, 8)
            .stall(ProcessId(2), 0, 3);
        let outcome = Executor::new().run_with_faults(
            &mut mem,
            workload(3, o),
            &mut RoundRobin::new(),
            &plan,
        );
        assert!(outcome.all_done);
        assert!(outcome.crashed.is_empty());
        assert_eq!(mem.peek(o), 3);
        assert!(outcome.history.ops().iter().all(|op| op.is_complete()));
    }

    #[test]
    fn mutual_stalls_release_instead_of_deadlocking() {
        // Every process stalled at once: the earliest window must be
        // released so the run terminates.
        let mut mem = Memory::new();
        let o = mem.alloc(0);
        let plan =
            FaultPlan::new()
                .stall(ProcessId(0), 0, 1_000_000)
                .stall(ProcessId(1), 0, 2_000_000);
        let outcome = Executor::new().run_with_faults(
            &mut mem,
            workload(2, o),
            &mut RoundRobin::new(),
            &plan,
        );
        assert!(outcome.all_done);
        assert_eq!(mem.peek(o), 2);
    }

    #[test]
    fn empty_plan_matches_plain_run_exactly() {
        let run = |faulty: bool| {
            let mut mem = Memory::new();
            let o = mem.alloc(0);
            let mut sched = RandomScheduler::new(9);
            let outcome = if faulty {
                Executor::new().run_with_faults(
                    &mut mem,
                    workload(4, o),
                    &mut sched,
                    &FaultPlan::none(),
                )
            } else {
                Executor::new().run(&mut mem, workload(4, o), &mut sched)
            };
            format!("{:?}", outcome.history)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn recorded_run_logs_every_step_of_the_same_run() {
        let run = |record: bool| {
            let mut mem = Memory::new();
            let o = mem.alloc(0);
            let mut sched = RandomScheduler::new(5);
            let plan = FaultPlan::new().crash(ProcessId(2), 1);
            let mut log = EventLog::new();
            let outcome = if record {
                Executor::new().run_recorded(&mut mem, workload(4, o), &mut sched, &plan, &mut log)
            } else {
                Executor::new().run_with_faults(&mut mem, workload(4, o), &mut sched, &plan)
            };
            (format!("{:?}", outcome.history), mem.steps(), log)
        };
        let (plain, steps, empty) = run(false);
        let (recorded, recorded_steps, log) = run(true);
        assert_eq!(plain, recorded);
        assert_eq!(steps, recorded_steps);
        assert!(empty.is_empty());
        assert_eq!(log.len(), steps);
        // p2 crashed after its first event, and took no other.
        assert_eq!(log.steps_of(ProcessId(2)), 1);
    }

    #[test]
    fn per_process_sequences_run_in_order() {
        // One process does two increments; they must not overlap.
        let mut mem = Memory::new();
        let o = mem.alloc(0);
        let mut w = WorkloadBuilder::new(1);
        for _ in 0..2 {
            w.op(
                ProcessId(0),
                OpSpec::update(OpDesc::CounterIncrement, move || Machine::new(incr(o))),
            );
        }
        let outcome = Executor::new().run(&mut mem, w, &mut RoundRobin::new());
        let ops = outcome.history.ops();
        assert_eq!(ops.len(), 2);
        assert!(ops[0].precedes(&ops[1]));
        assert_eq!(mem.peek(o), 2);
    }
}
