//! Exhaustive small-scope schedule exploration.
//!
//! For a workload of one operation per process, [`explore`] walks every
//! interleaving of the operations' shared-memory events (up to a
//! schedule budget) and hands each complete execution's [`History`] to a
//! checker. This is bounded model checking for linearizability: if an
//! algorithm has a bad schedule within the scope, enumeration *will*
//! find it — no luck required, unlike random schedules.
//!
//! Two things keep the search scalable:
//!
//! * **Incremental execution.** The DFS never replays a prefix. Taking a
//!   step applies one primitive; backtracking undoes it with
//!   [`Memory::undo`] (`O(1)`: the search keeps each step's [`Event`],
//!   which holds the overwritten value). A body cannot be rewound past the
//!   accesses it has resumed from, so each operation keeps the *trail* of
//!   (primitive, response) pairs its machine has consumed, and a cursor for
//!   the current DFS path: the path's steps are a prefix of the trail, and
//!   backtracking moves only the cursor. When the operation steps again,
//!   its enabled event is the trail's next primitive (the machine's own at
//!   the trail's end), and if memory returns the response the machine
//!   consumed at that position, the machine is still exact and only the
//!   cursor moves. That holds because a machine is a deterministic function
//!   of the responses fed to it. Only a different response cuts the trail
//!   and rebuilds the machine: one fresh machine from `setup` (the rest of
//!   that call is dropped — no pool of spare machines is kept) re-fed the
//!   path's responses. Full-prefix replay costs `O(tree-size × depth)`
//!   memory events; this costs `O(tree-size)` plus the re-feeds of rebuilt
//!   machines. On the pruned W5 scope it saves 20 replayed events per
//!   executed one, and on the unpruned one it re-feeds none (EXPERIMENTS.md
//!   § W5). A DFS node allocates nothing: the runnable operations are a
//!   `u64` mask, and the explored siblings of every frame share one stack.
//!
//! * **Independence-based pruning** (sleep sets, Godefroid-style),
//!   enabled via [`ExploreConfig::prune`]. Two steps by different
//!   processes are *independent* when they commute as memory actions
//!   (different cells, or both reads) **and** neither is an operation
//!   boundary adjacent to the other's boundary (see below). Schedules
//!   that differ only by swapping adjacent independent steps produce
//!   identical histories, so only one representative per equivalence
//!   class is explored. The opt-out (`prune: false`, the [`enumerate`]
//!   default) enumerates every interleaving — tests use it to prove the
//!   pruned search reaches the same verdicts and histories.
//!
//! # Why pruning is sound here
//!
//! A checker's verdict depends only on (a) each operation's output and
//! (b) the precedence relation `a.response <= b.invoke` between
//! operations (every built-in checker condition is expressible in those
//! terms). Swapping two adjacent steps that commute as memory actions
//! leaves every response — and hence every output and every machine's
//! subsequent behavior — unchanged. It can shift `invoke`/`response`
//! *ticks* by one, which changes the precedence relation only when the
//! earlier step is the **last** step of its operation and the later step
//! is the **first** step of its operation (completion-before-invocation
//! is exactly what `precedes` observes). The dependence relation
//! therefore additionally marks such boundary pairs dependent, which
//! restores history equality for all remaining swaps. Consequence: with
//! pruning enabled the checker must not distinguish histories beyond
//! outputs + precedence (raw-tick inspection may differ between
//! representatives); all checkers in [`crate::lin`] qualify.
//!
//! The number of interleavings is exponential (for two operations of
//! `a` and `b` steps it is `C(a+b, a)`); pruning typically removes the
//! commuting bulk, extending exhaustive scopes to 3–4 processes with
//! realistic operations (see `tests/exhaustive.rs` and EXPERIMENTS.md
//! § W5). The test suite uses this to verify Algorithm A exhaustively at
//! small sizes and to *rediscover* the counterexample schedule against
//! the single-CAS variant automatically — with pruning on and off.
//!
//! # Crash exploration
//!
//! [`ExploreConfig::max_crashes`] additionally enumerates schedules in
//! which up to `k` operations crash — halt permanently right after one
//! of their own events, leaving a *pending* operation (no response, no
//! output) in the history. Because a crash's only observable effect is
//! which of the process's events happened, crashing immediately after
//! each event is a canonical form covering every placement of the crash
//! in the global schedule. This turns the hand-crafted failure-injection
//! schedules of `tests/failure_injection.rs` into exhaustive
//! crash-tolerance proofs within the scope: every 1-crash schedule of
//! Algorithm A at N=4 is checked, and the single-CAS variant's
//! lost-write bug is found automatically (see
//! `tests/crash_exploration.rs` and EXPERIMENTS.md § W6).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use crate::history::{History, OpOutput, OpRecord};
use crate::{Event, Machine, Memory, OpDesc, Prim, ProcessId, Word};

/// Hard per-operation step cap: a machine exceeding this many steps in
/// one schedule would make enumeration meaningless.
const STEP_CAP: usize = 10_000;

/// One process's single operation for exploration: a description plus a
/// machine factory (invoked afresh for every schedule).
#[derive(Clone, Debug)]
pub struct ExploreOp {
    /// The process performing the operation.
    pub pid: ProcessId,
    /// What the operation is (recorded in histories).
    pub desc: OpDesc,
    /// Whether the machine's result is the operation's output value
    /// (reads) or meaningless (updates).
    pub returns_value: bool,
}

/// Search configuration for [`explore`].
#[derive(Clone, Copy, Debug)]
pub struct ExploreConfig {
    /// Schedule budget: the search stops (and reports
    /// [`ExploreSummary::truncated`]) once this many complete schedules
    /// have been checked and more remain.
    pub max_schedules: usize,
    /// Whether to prune trace-equivalent interleavings via sleep sets.
    /// Sound for checkers that depend only on operation outputs and the
    /// precedence relation (all of [`crate::lin`]); disable to enumerate
    /// every interleaving.
    pub prune: bool,
    /// Crash budget: in addition to plain interleavings, explore every
    /// schedule in which up to this many operations *crash* — halt
    /// permanently — right after one of their own events, leaving the
    /// operation pending in the history (no response, no output). `0`
    /// (the default) explores crash-free schedules only.
    ///
    /// Crash points are canonical: a process's crash is observable only
    /// through which of its own events happened, so crashing it
    /// immediately after its k-th event (for every `k ≥ 1`) covers every
    /// placement of the crash in the global schedule. Crashing *before*
    /// the first event is the same as exploring the scope without that
    /// operation, so it is not enumerated — cover it with a smaller
    /// scope if needed.
    ///
    /// Checkers must handle pending operations per the completion rule
    /// (all of [`crate::lin`] do).
    pub max_crashes: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_schedules: 1_000_000,
            prune: true,
            max_crashes: 0,
        }
    }
}

/// Counters describing how much work an exploration did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Complete schedules checked (same as [`ExploreSummary::schedules`]).
    pub schedules: usize,
    /// Branches skipped because the process was in the sleep set (each
    /// skip removes an entire subtree of interleavings).
    pub pruned_branches: usize,
    /// Shared-memory events actually executed during the search.
    pub executed_steps: u64,
    /// Memory events a full-prefix-replay explorer would have executed,
    /// minus this search's actual cost (forward steps are counted by
    /// `executed_steps`; the responses re-fed to a machine rebuilt when
    /// a step's response left its trail are subtracted here). A direct
    /// measure of what undo and keeping machines save.
    pub replay_steps_saved: u64,
    /// Deepest DFS prefix reached (= longest schedule length).
    pub peak_depth: usize,
    /// Crash branches taken: DFS nodes where an operation was crashed
    /// right after one of its events ([`ExploreConfig::max_crashes`]).
    pub crash_branches: usize,
    /// `read` primitives among [`executed_steps`](ExploreStats::executed_steps).
    ///
    /// Like `executed_steps`, the primitive-kind tallies count forward
    /// executions only and never decrement on backtrack, so
    /// `reads + writes + cas_ok + cas_fail == executed_steps`.
    pub reads: u64,
    /// `write` primitives among executed steps.
    pub writes: u64,
    /// Successful CAS primitives among executed steps.
    pub cas_ok: u64,
    /// Failed CAS primitives among executed steps.
    pub cas_fail: u64,
}

/// Summary of an exploration run.
#[derive(Clone, Debug)]
pub struct ExploreSummary {
    /// Number of complete schedules enumerated.
    pub schedules: usize,
    /// Whether the schedule budget truncated the search (if `true`, the
    /// absence of violations is not exhaustive).
    pub truncated: bool,
    /// The first violating schedule found, if any: the order in which
    /// processes took steps.
    pub violation: Option<Vec<ProcessId>>,
    /// Processes that were crashed in the violating schedule (each after
    /// its last step in [`ExploreSummary::violation`]). Empty when the
    /// violation needed no crash, or when there is no violation.
    pub violation_crashed: Vec<ProcessId>,
    /// Work counters for the run.
    pub stats: ExploreStats,
}

/// What the explorer remembers about one executed step, for undo and for
/// the independence relation.
#[derive(Clone, Copy, Debug)]
struct StepInfo {
    /// Index (into `ops`) of the process that stepped.
    idx: usize,
    /// The step's event: what undoing it restores, and its primitive,
    /// which is the operation's enabled event again once it is undone.
    ev: Event,
    /// Whether this was the operation's first step.
    was_first: bool,
    /// Whether this step completed the operation.
    was_last: bool,
}

/// Memory-level commutativity: steps on different cells always commute;
/// steps on the same cell commute only if both are reads.
fn commutes(a: Prim, b: Prim) -> bool {
    a.obj() != b.obj() || (a.is_read() && b.is_read())
}

/// Full independence between two *executed* steps (both boundary flags
/// known): they commute as memory actions and neither's last step
/// immediately precedes the other's first (which is the one swap that
/// can change the precedence relation — see the module docs).
fn independent(a: &StepInfo, b: &StepInfo) -> bool {
    commutes(a.ev.prim, b.ev.prim) && !(a.was_last && b.was_first) && !(b.was_last && a.was_first)
}

/// Cross-worker coordination for [`explore_parallel`]: the global
/// schedule count (shared budget) and a stop flag raised on the first
/// violation or on budget truncation. All accesses are `Relaxed` —
/// the counters gate *work*, never memory visibility (each worker owns
/// its memory and machines outright).
struct SharedSearch {
    schedules: AtomicUsize,
    stop: AtomicBool,
    truncated: AtomicBool,
}

struct Explorer<'a> {
    setup: &'a dyn Fn() -> (Memory, Vec<Machine>),
    ops: &'a [ExploreOp],
    check: &'a mut dyn FnMut(&History) -> bool,
    cfg: ExploreConfig,
    /// Present only under [`explore_parallel`]: the shared budget and
    /// stop flag. `None` keeps the sequential search byte-identical.
    shared: Option<&'a SharedSearch>,
    /// The one memory being mutated and un-mutated in place.
    mem: Memory,
    /// Step count when exploration started (setups may pre-run seed
    /// operations; those steps are never undone).
    base: usize,
    /// Each operation's machine, exact for its whole trail.
    machines: Vec<Machine>,
    /// The (primitive, response) pairs each machine has consumed, in
    /// order. The operation's steps on the current DFS path are a prefix
    /// of its trail.
    trails: Vec<Vec<(Prim, Word)>>,
    /// Each operation's step count on the current DFS path: the length
    /// of the prefix of its trail that the path holds.
    cursors: Vec<usize>,
    /// Tick of each operation's first event, if it has stepped.
    first_step: Vec<Option<usize>>,
    /// Tick just after each operation's last event, if it completed by
    /// stepping (zero-step operations stay `None`).
    completed_at: Vec<Option<usize>>,
    /// The current schedule prefix (operation indices).
    prefix: Vec<usize>,
    /// Bitmask of operations crashed on the current DFS path.
    crashed: u64,
    /// Remaining crash budget on the current DFS path.
    crashes_left: usize,
    /// The siblings each frame on the current DFS path has explored, for
    /// its children's sleep sets: a frame's entries sit behind its
    /// ancestors', and it truncates them when it returns.
    explored: Vec<StepInfo>,
    schedules: usize,
    truncated: bool,
    violation: Option<Vec<ProcessId>>,
    violation_crashed: Vec<ProcessId>,
    stats: ExploreStats,
}

impl<'a> Explorer<'a> {
    /// An explorer at the root of the search, on the memory and machines
    /// of one `setup` call.
    fn new(
        setup: &'a dyn Fn() -> (Memory, Vec<Machine>),
        ops: &'a [ExploreOp],
        check: &'a mut dyn FnMut(&History) -> bool,
        cfg: ExploreConfig,
        shared: Option<&'a SharedSearch>,
    ) -> Self {
        let (mem, machines) = setup();
        assert_eq!(machines.len(), ops.len(), "setup/ops arity mismatch");
        let n = machines.len();
        let base = mem.steps();
        Explorer {
            setup,
            ops,
            check,
            cfg,
            shared,
            mem,
            base,
            machines,
            trails: vec![Vec::new(); n],
            cursors: vec![0; n],
            first_step: vec![None; n],
            completed_at: vec![None; n],
            prefix: Vec::new(),
            crashed: 0,
            crashes_left: cfg.max_crashes,
            explored: Vec::new(),
            schedules: 0,
            truncated: false,
            violation: None,
            violation_crashed: Vec::new(),
            stats: ExploreStats::default(),
        }
    }

    /// Operation `idx`'s enabled event at the current node (`None` once
    /// it completed): the next primitive on its trail, or the machine's
    /// at the trail's end.
    fn enabled(&self, idx: usize) -> Option<Prim> {
        match self.trails[idx].get(self.cursors[idx]) {
            Some(&(prim, _)) => Some(prim),
            None => self.machines[idx].enabled(),
        }
    }

    /// Executes one step of operation `idx` against `mem`, recording
    /// everything needed to undo it. When the response is the one the
    /// machine consumed at this position, only the cursor moves; a
    /// different response rebuilds the machine first.
    fn step_forward(&mut self, idx: usize) -> StepInfo {
        let prim = self.enabled(idx).expect("runnable step exists");
        let at = self.cursors[idx];
        let was_first = at == 0;
        let ev = self.mem.apply(self.ops[idx].pid, prim);
        let resp = ev.resp;
        self.stats.executed_steps += 1;
        if prim.is_read() {
            self.stats.reads += 1;
        } else if prim.is_write() {
            self.stats.writes += 1;
        } else if ev.cas_succeeded() {
            self.stats.cas_ok += 1;
        } else {
            self.stats.cas_fail += 1;
        }
        let consumed = self.trails[idx].get(at).map(|&(_, r)| r);
        if consumed != Some(resp) {
            if consumed.is_some() {
                self.rebuild(idx);
            }
            debug_assert_eq!(
                self.machines[idx].enabled(),
                Some(prim),
                "setup must be deterministic"
            );
            self.machines[idx].feed(resp);
            self.trails[idx].push((prim, resp));
            assert!(
                self.trails[idx].len() <= STEP_CAP,
                "operation exceeded the exploration step cap"
            );
        }
        self.cursors[idx] = at + 1;
        let finished = at + 1 == self.trails[idx].len() && self.machines[idx].is_done();
        if was_first {
            self.first_step[idx] = Some(ev.seq);
        }
        if finished {
            self.completed_at[idx] = Some(ev.seq + 1);
        }
        self.prefix.push(idx);
        StepInfo {
            idx,
            ev,
            was_first,
            was_last: finished,
        }
    }

    /// Undoes the step described by `info`: its event is taken back from
    /// memory in `O(1)` and the operation's cursor moves back one, so the
    /// undone primitive is its enabled event again. The machine and the
    /// trail stay as they are.
    fn step_back(&mut self, info: &StepInfo) {
        self.prefix.pop();
        let idx = info.idx;
        self.mem.undo(&info.ev);
        self.cursors[idx] -= 1;
        if info.was_last {
            self.completed_at[idx] = None;
        }
        if info.was_first {
            self.first_step[idx] = None;
        }
    }

    /// Cuts operation `idx`'s trail at its cursor and brings its machine
    /// back to that point: one fresh machine from `setup` (deterministic
    /// by contract; the memory and other machines it builds are
    /// dropped), re-fed the responses the current path holds.
    fn rebuild(&mut self, idx: usize) {
        let (_, mut fresh) = (self.setup)();
        assert_eq!(fresh.len(), self.ops.len(), "setup/ops arity mismatch");
        let mut m = fresh.swap_remove(idx);
        let trail = &mut self.trails[idx];
        trail.truncate(self.cursors[idx]);
        for &(_, resp) in trail.iter() {
            m.feed(resp);
        }
        let refeeds = trail.len() as u64;
        self.stats.replay_steps_saved = self.stats.replay_steps_saved.saturating_sub(refeeds);
        self.machines[idx] = m;
    }

    /// Starts a root branch from fresh machines, so that what the branch
    /// does never depends on the branches explored before it. That is
    /// what lets [`explore_parallel`]'s workers, each with its own share
    /// of the root branches, add up to a sequential run's stats.
    fn fresh_machines(&mut self) {
        if self.trails.iter().all(Vec::is_empty) {
            return;
        }
        let (_, machines) = (self.setup)();
        assert_eq!(machines.len(), self.ops.len(), "setup/ops arity mismatch");
        self.machines = machines;
        self.trails.iter_mut().for_each(Vec::clear);
    }

    /// The child's sleep set after executing `info`: every process asleep
    /// at this node (inherited or an already-explored sibling) stays
    /// asleep iff its deferred step is independent of `info`.
    fn child_sleep(&self, asleep: u64, explored: &[StepInfo], info: &StepInfo) -> u64 {
        let mut out = 0u64;
        let mut explored_mask = 0u64;
        for s in explored {
            explored_mask |= 1 << s.idx;
            if independent(s, info) {
                out |= 1 << s.idx;
            }
        }
        let mut inherited = asleep & !explored_mask;
        while inherited != 0 {
            let q = inherited.trailing_zeros() as usize;
            inherited &= inherited - 1;
            let prim = self.enabled(q).expect("sleeping op is enabled");
            // Whether q's deferred step would be its operation's *last*
            // is unknown without executing it — assume it could be
            // (conservative: waking a process early never loses a trace
            // class, it only explores more).
            let q_first = self.first_step[q].is_none();
            if commutes(prim, info.ev.prim) && !info.was_first && !(info.was_last && q_first) {
                out |= 1 << q;
            }
        }
        out
    }

    /// Builds the history of the (complete) current schedule. Crashed
    /// operations become *pending* records: invoked at their first
    /// event's tick, no response, no output (crash branches only fire
    /// after an operation's own event, so a crashed operation was always
    /// invoked).
    fn build_history(&self) -> History {
        let mut recs: Vec<OpRecord> = self
            .ops
            .iter()
            .enumerate()
            .map(|(i, op)| {
                // The cursor, not the machine: a crashed op's machine
                // may be ahead (it stepped past the crash point in a
                // sibling subtree before the crash branch ran).
                let steps = self.cursors[i];
                if self.crashed & (1 << i) != 0 {
                    let invoke = self.first_step[i].expect("crashed op took an event");
                    debug_assert!(self.completed_at[i].is_none());
                    return OpRecord {
                        pid: op.pid,
                        desc: op.desc.clone(),
                        invoke,
                        response: None,
                        output: None,
                        steps,
                    };
                }
                // A completed op's path holds its whole trail, so its
                // machine is current.
                let output = if op.returns_value {
                    OpOutput::Value(
                        self.machines[i]
                            .result()
                            .expect("complete schedule has results"),
                    )
                } else {
                    OpOutput::Unit
                };
                let invoke = self.first_step[i].unwrap_or(self.base);
                // Completion consumes a tick: a zero-step operation
                // occupies the virtual interval [invoke, invoke + 1], so
                // `response > invoke` holds for every record (see the
                // invariant on `OpRecord::invoke`).
                let response = self.completed_at[i].unwrap_or(invoke + 1);
                debug_assert!(response > invoke);
                OpRecord {
                    pid: op.pid,
                    desc: op.desc.clone(),
                    invoke,
                    response: Some(response),
                    output: Some(output),
                    steps,
                }
            })
            .collect();
        recs.sort_by_key(|r| r.invoke);
        recs.into_iter().collect()
    }

    /// Operations that can step at this node, as a bitmask: enabled and
    /// not crashed.
    fn runnable(&self) -> u64 {
        (0..self.ops.len())
            .filter(|&i| self.enabled(i).is_some())
            .fold(0, |mask, i| mask | 1 << i)
            & !self.crashed
    }

    /// Whether another worker already stopped the search (violation or
    /// truncation elsewhere). Always `false` for sequential runs.
    fn stopped(&self) -> bool {
        self.shared.is_some_and(|s| s.stop.load(Ordering::Relaxed))
    }

    /// Whether the schedule budget is spent — against the shared global
    /// count under [`explore_parallel`], the local count otherwise.
    fn budget_exhausted(&self) -> bool {
        let done = match self.shared {
            Some(s) => s.schedules.load(Ordering::Relaxed),
            None => self.schedules,
        };
        done >= self.cfg.max_schedules
    }

    fn mark_truncated(&mut self) {
        self.truncated = true;
        if let Some(s) = self.shared {
            s.truncated.store(true, Ordering::Relaxed);
            s.stop.store(true, Ordering::Relaxed);
        }
    }

    fn dfs(&mut self, sleep: u64) {
        if self.violation.is_some() || self.truncated || self.stopped() {
            return;
        }
        if self.budget_exhausted() {
            self.mark_truncated();
            return;
        }
        let depth = self.prefix.len();
        self.stats.peak_depth = self.stats.peak_depth.max(depth);
        if depth > 0 {
            // A full-prefix-replay explorer re-executes the whole prefix
            // to reach this node; the incremental scheme paid one step.
            self.stats.replay_steps_saved += (depth - 1) as u64;
        }
        let mut runnable = self.runnable();
        if runnable == 0 {
            // Complete schedule (every op done or crashed): build the
            // history and check it.
            self.schedules += 1;
            if let Some(s) = self.shared {
                s.schedules.fetch_add(1, Ordering::Relaxed);
            }
            let history = self.build_history();
            if !(self.check)(&history) {
                self.violation = Some(self.prefix.iter().map(|&i| self.ops[i].pid).collect());
                self.violation_crashed = (0..self.ops.len())
                    .filter(|&i| self.crashed & (1 << i) != 0)
                    .map(|i| self.ops[i].pid)
                    .collect();
                if let Some(s) = self.shared {
                    s.stop.store(true, Ordering::Relaxed);
                }
            }
            return;
        }
        let mut asleep = sleep;
        let siblings = self.explored.len();
        while runnable != 0 {
            let idx = runnable.trailing_zeros() as usize;
            runnable &= runnable - 1;
            if self.cfg.prune && asleep & (1 << idx) != 0 {
                self.stats.pruned_branches += 1;
                continue;
            }
            if depth == 0 {
                self.fresh_machines();
            }
            let info = self.step_forward(idx);
            let child_sleep = if self.cfg.prune {
                self.child_sleep(asleep, &self.explored[siblings..], &info)
            } else {
                0
            };
            self.dfs(child_sleep);
            // Crash branch: the same prefix, but idx halts permanently
            // right after the event it just took (canonical crash point;
            // see `ExploreConfig::max_crashes`). Crashing a *finished*
            // operation is a no-op, so only unfinished ops branch. The
            // child's sleep set is reset: earlier siblings were deferred
            // on the assumption that idx keeps stepping, which the crash
            // invalidates (conservative — only explores more).
            if self.crashes_left > 0
                && !info.was_last
                && self.violation.is_none()
                && !self.truncated
            {
                self.crashes_left -= 1;
                self.crashed |= 1 << idx;
                self.stats.crash_branches += 1;
                self.dfs(0);
                self.crashed &= !(1 << idx);
                self.crashes_left += 1;
            }
            self.step_back(&info);
            if self.violation.is_some() || self.truncated || self.stopped() {
                break;
            }
            // Subsequent siblings may defer idx's step until something
            // dependent on it executes.
            asleep |= 1 << idx;
            self.explored.push(info);
        }
        self.explored.truncate(siblings);
    }

    /// Runs the root level of the search, descending only into the
    /// top-level branches whose rank in the root's runnable order is
    /// `≡ worker (mod workers)` — the partition used by
    /// [`explore_parallel`].
    ///
    /// Every worker first *precomputes* each root branch's first step
    /// (executed against the pristine root state and immediately
    /// undone, with the stats snapshot restored so the probe is free):
    /// those [`StepInfo`]s are exactly the `explored` list the
    /// sequential root loop would have accumulated, so an owned branch
    /// at rank `k` starts with the same sleep set — earlier siblings
    /// whose first steps are independent of its own — that the
    /// sequential DFS gives it. Every owned branch then starts from fresh
    /// machines, as in the sequential DFS, so it rebuilds machines at the
    /// same nodes. Union over workers, the searches visit exactly the
    /// sequential node set, so merged counters (schedules, pruned
    /// branches, executed steps, replay savings, crash branches)
    /// reproduce a sequential run field-for-field.
    fn run_root_partition(&mut self, worker: usize, workers: usize) {
        if self.stopped() {
            return;
        }
        if self.budget_exhausted() {
            self.mark_truncated();
            return;
        }
        let runnable = self.runnable();
        if runnable == 0 {
            // Degenerate scope (every op zero-step): exactly one worker
            // checks the single empty schedule.
            if worker == 0 {
                self.dfs(0);
            }
            return;
        }
        let saved = self.stats;
        let infos: Vec<StepInfo> = (0..self.ops.len())
            .filter(|&idx| runnable & (1 << idx) != 0)
            .map(|idx| {
                let info = self.step_forward(idx);
                self.step_back(&info);
                info
            })
            .collect();
        self.stats = saved;
        for (rank, idx) in infos.iter().map(|s| s.idx).enumerate() {
            if rank % workers != worker {
                continue;
            }
            self.fresh_machines();
            let info = self.step_forward(idx);
            debug_assert_eq!(
                info.ev.prim, infos[rank].ev.prim,
                "setup must be deterministic"
            );
            let child_sleep = if self.cfg.prune {
                infos[..rank]
                    .iter()
                    .filter(|s| independent(s, &info))
                    .fold(0u64, |m, s| m | 1 << s.idx)
            } else {
                0
            };
            self.dfs(child_sleep);
            // Crash branch, exactly as in `dfs` (see the comment there).
            if self.crashes_left > 0
                && !info.was_last
                && self.violation.is_none()
                && !self.truncated
                && !self.stopped()
            {
                self.crashes_left -= 1;
                self.crashed |= 1 << idx;
                self.stats.crash_branches += 1;
                self.dfs(0);
                self.crashed &= !(1 << idx);
                self.crashes_left += 1;
            }
            self.step_back(&info);
            if self.violation.is_some() || self.truncated || self.stopped() {
                return;
            }
        }
    }
}

/// Explores interleavings of one-shot operations under `cfg`.
///
/// * `setup` — builds a fresh memory and machines; must be
///   deterministic. It runs once to start the search, at most once more
///   per root branch (each starts from fresh machines), and otherwise
///   only when a step's response differs from the one its machine
///   consumed at that position, when just that one machine is kept; so
///   keep the call cheap. It may pre-run seed operations solo before
///   returning:
///   exploration starts from whatever state `setup` leaves, and recorded
///   ticks are absolute step indices of that memory (its seed steps
///   come first).
/// * `ops` — descriptions matching `setup`'s machines (same order).
/// * `check` — called with each complete execution's history; returning
///   `false` marks the schedule as a violation and stops the search.
///   With [`ExploreConfig::prune`] set, the verdict must depend only on
///   operation outputs and the precedence relation (see module docs).
///
/// Returns the summary; exploration stops at the first violation.
///
/// # Panics
///
/// Panics if `setup` returns a different number of machines than `ops`
/// describes, if there are more than 64 operations, or if any machine
/// exceeds `10_000` steps in one schedule.
pub fn explore(
    setup: &dyn Fn() -> (Memory, Vec<Machine>),
    ops: &[ExploreOp],
    check: &mut dyn FnMut(&History) -> bool,
    cfg: ExploreConfig,
) -> ExploreSummary {
    assert!(
        ops.len() <= 64,
        "explorer supports at most 64 operations, got {}",
        ops.len()
    );
    let mut explorer = Explorer::new(setup, ops, check, cfg, None);
    explorer.dfs(0);
    let mut stats = explorer.stats;
    stats.schedules = explorer.schedules;
    ExploreSummary {
        schedules: explorer.schedules,
        truncated: explorer.truncated,
        violation: explorer.violation,
        violation_crashed: explorer.violation_crashed,
        stats,
    }
}

/// Explores interleavings like [`explore`], but partitions the root
/// branch frontier across `workers` OS threads (`std::thread::scope`).
///
/// Each worker builds its own memory and machines via `setup`, owns a
/// per-worker sleep-set search over its share of the top-level
/// branches (ranks `≡ worker (mod workers)` in the root's runnable
/// order, each seeded with the sleep set the sequential search would
/// give it and started from fresh machines), and the workers coordinate
/// only through a shared schedule budget and a stop flag. The union of
/// the workers' searches visits
/// exactly the sequential node set, so the merged [`ExploreStats`]
/// (fields summed, `peak_depth` maxed) reproduce a sequential
/// [`explore`] of the same scope field-for-field — `tests` assert this
/// and the W5 benchmark records it in `BENCH_explore.json`.
///
/// Differences from [`explore`]:
///
/// * `setup` and `check` must be `Sync` (`check` is `Fn`, not
///   `FnMut` — aggregate across schedules with atomics or a mutex).
/// * On truncation the shared budget may be overshot by up to
///   `workers - 1` schedules (each in-flight worker can complete one
///   before observing the stop flag).
/// * With multiple violating schedules, *which* violation is reported
///   depends on worker timing (the first found wins); whether one
///   exists does not.
///
/// `workers == 0` is treated as `1`. See [`explore`] for the remaining
/// parameter docs and panics.
pub fn explore_parallel(
    setup: &(dyn Fn() -> (Memory, Vec<Machine>) + Sync),
    ops: &[ExploreOp],
    check: &(dyn Fn(&History) -> bool + Sync),
    cfg: ExploreConfig,
    workers: usize,
) -> ExploreSummary {
    assert!(
        ops.len() <= 64,
        "explorer supports at most 64 operations, got {}",
        ops.len()
    );
    let workers = workers.max(1);
    let shared = SharedSearch {
        schedules: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        truncated: AtomicBool::new(false),
    };
    struct WorkerResult {
        schedules: usize,
        violation: Option<Vec<ProcessId>>,
        violation_crashed: Vec<ProcessId>,
        stats: ExploreStats,
    }
    let results: Vec<WorkerResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let shared = &shared;
                scope.spawn(move || {
                    let mut local_check = |h: &History| check(h);
                    let mut explorer =
                        Explorer::new(setup, ops, &mut local_check, cfg, Some(shared));
                    explorer.run_root_partition(w, workers);
                    WorkerResult {
                        schedules: explorer.schedules,
                        violation: explorer.violation,
                        violation_crashed: explorer.violation_crashed,
                        stats: explorer.stats,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("explore worker panicked"))
            .collect()
    });
    let mut stats = ExploreStats::default();
    let mut schedules = 0usize;
    let mut violation = None;
    let mut violation_crashed = Vec::new();
    for r in results {
        schedules += r.schedules;
        stats.pruned_branches += r.stats.pruned_branches;
        stats.executed_steps += r.stats.executed_steps;
        stats.replay_steps_saved += r.stats.replay_steps_saved;
        stats.peak_depth = stats.peak_depth.max(r.stats.peak_depth);
        stats.crash_branches += r.stats.crash_branches;
        stats.reads += r.stats.reads;
        stats.writes += r.stats.writes;
        stats.cas_ok += r.stats.cas_ok;
        stats.cas_fail += r.stats.cas_fail;
        if violation.is_none() {
            if let Some(v) = r.violation {
                violation = Some(v);
                violation_crashed = r.violation_crashed;
            }
        }
    }
    stats.schedules = schedules;
    ExploreSummary {
        schedules,
        truncated: shared.truncated.load(Ordering::Relaxed),
        violation,
        violation_crashed,
        stats,
    }
}

/// Enumerates *every* interleaving of one-shot operations (no pruning).
///
/// Equivalent to [`explore`] with [`ExploreConfig::prune`] off: schedule
/// counts are exact interleaving counts, and the checker may inspect raw
/// ticks. See [`explore`] for parameter docs and panics.
pub fn enumerate(
    setup: &dyn Fn() -> (Memory, Vec<Machine>),
    ops: &[ExploreOp],
    check: &mut dyn FnMut(&History) -> bool,
    max_schedules: usize,
) -> ExploreSummary {
    explore(
        setup,
        ops,
        check,
        ExploreConfig {
            max_schedules,
            prune: false,
            max_crashes: 0,
        },
    )
}

/// Sequentially-seeded helper: explores every interleaving of operations
/// that all *start together* and checks each history with `check`,
/// panicking with the violating schedule if one exists.
///
/// # Panics
///
/// Panics if a violating schedule is found, or if the budget truncates
/// the search (use [`enumerate`] directly to tolerate truncation).
pub fn assert_all_schedules_pass(
    setup: &dyn Fn() -> (Memory, Vec<Machine>),
    ops: &[ExploreOp],
    check: &mut dyn FnMut(&History) -> bool,
    max_schedules: usize,
) -> usize {
    let summary = enumerate(setup, ops, check, max_schedules);
    assert!(
        !summary.truncated,
        "exploration truncated after {} schedules — shrink the scope",
        summary.schedules
    );
    if let Some(schedule) = summary.violation {
        panic!(
            "violating schedule found after {} complete schedules: {:?}",
            summary.schedules, schedule
        );
    }
    summary.schedules
}

/// A quick history-validity predicate for exploration artifacts: every
/// operation completed strictly after it was invoked
/// (`invoke < response` — completion consumes a tick even for zero-step
/// operations) with an output present.
pub fn history_is_wellformed(history: &History) -> bool {
    history
        .ops()
        .iter()
        .all(|o| o.response.map(|r| r > o.invoke).unwrap_or(false) && o.output.is_some())
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::lin::check_interval;
    use crate::spec::SeqSpec;
    use crate::{access, ObjId};

    /// A CAS-loop counter increment on `o`.
    async fn incr(o: ObjId) -> Word {
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

    /// A one-step read of `o`.
    fn reader(o: ObjId) -> Machine {
        Machine::single(Prim::Read(o), |v| v)
    }

    /// A one-step write of `v` to `o`.
    fn writer(o: ObjId, v: Word) -> Machine {
        Machine::single(Prim::Write(o, v), |_| 0)
    }

    /// An increment that reads `o`, then writes `v + 2` before `v + 1`:
    /// a concurrent reader can see the overshoot.
    async fn sloppy_double_incr(o: ObjId) -> Word {
        let v = access(Prim::Read(o)).await;
        access(Prim::Write(o, v + 2)).await;
        access(Prim::Write(o, v + 1)).await;
        0
    }

    fn counter_setup(n: usize) -> (impl Fn() -> (Memory, Vec<Machine>), Vec<ExploreOp>) {
        let setup = move || {
            let mut mem = Memory::new();
            let o = mem.alloc(0);
            let machines = (0..n).map(|_| Machine::new(incr(o))).collect();
            (mem, machines)
        };
        let ops = (0..n)
            .map(|i| ExploreOp {
                pid: ProcessId(i),
                desc: OpDesc::CounterIncrement,
                returns_value: false,
            })
            .collect();
        (setup, ops)
    }

    #[test]
    fn enumerates_all_interleavings_of_two_increments() {
        let (setup, ops) = counter_setup(2);
        let mut count_checks = 0usize;
        let summary = enumerate(
            &setup,
            &ops,
            &mut |h| {
                count_checks += 1;
                history_is_wellformed(h)
            },
            10_000,
        );
        assert!(!summary.truncated);
        assert!(summary.violation.is_none());
        assert_eq!(summary.schedules, count_checks);
        // Two CAS-loop increments: the contention-free interleavings of
        // 2-step ops plus retry paths; at least C(4,2)=6 schedules.
        assert!(summary.schedules >= 6, "{}", summary.schedules);
        // Unpruned enumeration never prunes.
        assert_eq!(summary.stats.pruned_branches, 0);
        assert_eq!(summary.stats.schedules, summary.schedules);
        assert!(summary.stats.peak_depth >= 4);
        assert!(summary.stats.executed_steps >= 4 * 6);
    }

    #[test]
    fn all_schedules_of_three_increments_count_correctly() {
        let (setup, ops) = counter_setup(3);
        let schedules = assert_all_schedules_pass(
            &setup,
            &ops,
            &mut |h| {
                // Completing history: counter checker accepts iff every
                // feasible read... no reads here, but the final count is
                // implicit: verify via history validity + count.
                check_interval(h, &SeqSpec::Counter).is_ok()
            },
            200_000,
        );
        assert!(schedules > 50);
    }

    #[test]
    fn final_count_is_exact_under_every_schedule() {
        let (setup, ops) = counter_setup(2);
        // Re-run enumeration but verify memory state via a read machine
        // appended after completion.
        let summary = enumerate(
            &setup,
            &ops,
            &mut |h| h.ops().iter().all(|o| o.is_complete()),
            10_000,
        );
        assert!(summary.violation.is_none());
    }

    #[test]
    fn budget_truncates_gracefully() {
        let (setup, ops) = counter_setup(3);
        let summary = enumerate(&setup, &ops, &mut |_| true, 5);
        assert!(summary.truncated);
        assert_eq!(summary.schedules, 5);
        assert!(summary.violation.is_none());
    }

    #[test]
    fn violation_reports_the_schedule() {
        let (setup, ops) = counter_setup(2);
        // A checker that rejects everything: the first complete schedule
        // is reported.
        let summary = enumerate(&setup, &ops, &mut |_| false, 10_000);
        let schedule = summary.violation.expect("violation reported");
        assert!(!schedule.is_empty());
        assert_eq!(summary.schedules, 1);
    }

    #[test]
    fn pruning_skips_commuting_interleavings() {
        // Two 2-step ops on *disjoint* cells: all interleavings are
        // trace-equivalent up to boundary effects; pruning must explore
        // strictly fewer than the C(4,2) = 6 full interleavings.
        let setup = || {
            let mut mem = Memory::new();
            let a = mem.alloc(0);
            let b = mem.alloc(0);
            let machines = vec![Machine::new(incr(a)), Machine::new(incr(b))];
            (mem, machines)
        };
        let ops: Vec<ExploreOp> = (0..2)
            .map(|i| ExploreOp {
                pid: ProcessId(i),
                desc: OpDesc::CounterIncrement,
                returns_value: false,
            })
            .collect();
        let full = enumerate(&setup, &ops, &mut |_| true, 10_000);
        assert_eq!(full.schedules, 6);
        let pruned = explore(
            &setup,
            &ops,
            &mut |_| true,
            ExploreConfig {
                max_schedules: 10_000,
                prune: true,
                max_crashes: 0,
            },
        );
        assert!(pruned.violation.is_none());
        assert!(!pruned.truncated);
        assert!(
            pruned.schedules < full.schedules,
            "pruned {} vs full {}",
            pruned.schedules,
            full.schedules
        );
        assert!(pruned.stats.pruned_branches > 0);
    }

    /// A history signature that is invariant across trace-equivalent
    /// schedules: per operation (in `ops` order) its output, step count,
    /// and precedence row against every other operation.
    type Signature = Vec<(Option<OpOutput>, usize, Vec<bool>)>;

    fn signature(ops: &[ExploreOp], h: &History) -> Signature {
        // Map history records (sorted by invoke) back to ops order by pid
        // (one op per process in these scopes).
        let by_pid = |pid: ProcessId| {
            h.ops()
                .iter()
                .find(|o| o.pid == pid)
                .expect("one record per process")
        };
        ops.iter()
            .map(|op| {
                let rec = by_pid(op.pid);
                let row = ops
                    .iter()
                    .map(|other| rec.precedes(by_pid(other.pid)))
                    .collect();
                (rec.output.clone(), rec.steps, row)
            })
            .collect()
    }

    /// The load-bearing soundness property: with pruning on, the *set* of
    /// distinct histories (outputs + step counts + precedence relation)
    /// is exactly the unpruned set — no history class is lost.
    #[test]
    fn pruning_preserves_the_set_of_histories() {
        use std::collections::BTreeSet;

        type Setup = Box<dyn Fn() -> (Memory, Vec<Machine>)>;

        // Scenarios mixing same-cell contention, disjoint cells, reads,
        // and a zero-step operation.
        let scenarios: Vec<(Setup, Vec<ExploreOp>)> = vec![
            // (a) two increments on one cell + read of another cell
            (
                Box::new(|| {
                    let mut mem = Memory::new();
                    let a = mem.alloc(0);
                    let b = mem.alloc(7);
                    let machines = vec![Machine::new(incr(a)), Machine::new(incr(a)), reader(b)];
                    (mem, machines)
                }),
                vec![
                    ExploreOp {
                        pid: ProcessId(0),
                        desc: OpDesc::CounterIncrement,
                        returns_value: false,
                    },
                    ExploreOp {
                        pid: ProcessId(1),
                        desc: OpDesc::CounterIncrement,
                        returns_value: false,
                    },
                    ExploreOp {
                        pid: ProcessId(2),
                        desc: OpDesc::CounterRead,
                        returns_value: true,
                    },
                ],
            ),
            // (b) write/read race on one cell + independent writer
            (
                Box::new(|| {
                    let mut mem = Memory::new();
                    let a = mem.alloc(0);
                    let b = mem.alloc(0);
                    let machines = vec![writer(a, 5), reader(a), writer(b, 9)];
                    (mem, machines)
                }),
                vec![
                    ExploreOp {
                        pid: ProcessId(0),
                        desc: OpDesc::WriteMax(5),
                        returns_value: false,
                    },
                    ExploreOp {
                        pid: ProcessId(1),
                        desc: OpDesc::ReadMax,
                        returns_value: true,
                    },
                    ExploreOp {
                        pid: ProcessId(2),
                        desc: OpDesc::WriteMax(9),
                        returns_value: false,
                    },
                ],
            ),
            // (c) a zero-step op racing a 2-step op and a 1-step reader
            (
                Box::new(|| {
                    let mut mem = Memory::new();
                    let a = mem.alloc(0);
                    let machines = vec![Machine::completed(0), Machine::new(incr(a)), reader(a)];
                    (mem, machines)
                }),
                vec![
                    ExploreOp {
                        pid: ProcessId(0),
                        desc: OpDesc::WriteMax(0),
                        returns_value: false,
                    },
                    ExploreOp {
                        pid: ProcessId(1),
                        desc: OpDesc::CounterIncrement,
                        returns_value: false,
                    },
                    ExploreOp {
                        pid: ProcessId(2),
                        desc: OpDesc::CounterRead,
                        returns_value: true,
                    },
                ],
            ),
        ];

        for (i, (setup, ops)) in scenarios.iter().enumerate() {
            let mut full: BTreeSet<String> = BTreeSet::new();
            let s1 = enumerate(
                &**setup,
                ops,
                &mut |h| {
                    full.insert(format!("{:?}", signature(ops, h)));
                    true
                },
                1_000_000,
            );
            let mut pruned: BTreeSet<String> = BTreeSet::new();
            let s2 = explore(
                &**setup,
                ops,
                &mut |h| {
                    pruned.insert(format!("{:?}", signature(ops, h)));
                    true
                },
                ExploreConfig {
                    max_schedules: 1_000_000,
                    prune: true,
                    max_crashes: 0,
                },
            );
            assert!(!s1.truncated && !s2.truncated);
            assert!(
                s2.schedules <= s1.schedules,
                "scenario {i}: pruned explored more schedules"
            );
            assert_eq!(
                full, pruned,
                "scenario {i}: pruning changed the set of histories"
            );
        }
    }

    #[test]
    fn zero_step_ops_get_strictly_positive_width() {
        // A zero-step machine racing a stepped one: every history must
        // satisfy the strict invoke < response invariant.
        let setup = || {
            let mut mem = Memory::new();
            let a = mem.alloc(0);
            let machines = vec![Machine::completed(3), Machine::new(incr(a))];
            (mem, machines)
        };
        let ops = vec![
            ExploreOp {
                pid: ProcessId(0),
                desc: OpDesc::ReadMax,
                returns_value: true,
            },
            ExploreOp {
                pid: ProcessId(1),
                desc: OpDesc::CounterIncrement,
                returns_value: false,
            },
        ];
        let summary = enumerate(
            &setup,
            &ops,
            &mut |h| {
                history_is_wellformed(h) && h.ops().iter().all(|o| o.response.unwrap() > o.invoke)
            },
            10_000,
        );
        assert!(summary.violation.is_none());
        assert!(summary.schedules >= 1);
    }

    #[test]
    fn seeded_setup_records_absolute_ticks() {
        // The setup pre-runs a seed op solo; explored records must use
        // ticks past the seed's events.
        let setup = || {
            let mut mem = Memory::new();
            let a = mem.alloc(0);
            // Seed: two increments run to completion inside setup.
            for _ in 0..2 {
                let mut m = Machine::new(incr(a));
                while let Some(p) = m.enabled() {
                    m.feed(mem.apply(ProcessId(9), p).resp);
                }
            }
            let machines = vec![Machine::new(incr(a))];
            (mem, machines)
        };
        let ops = vec![ExploreOp {
            pid: ProcessId(0),
            desc: OpDesc::CounterIncrement,
            returns_value: false,
        }];
        let summary = enumerate(
            &setup,
            &ops,
            &mut |h| {
                h.ops()
                    .iter()
                    .all(|o| o.invoke >= 4 && history_is_wellformed(h))
            },
            100,
        );
        assert!(summary.violation.is_none());
        assert_eq!(summary.schedules, 1);
    }

    #[test]
    fn pruned_search_still_finds_violations() {
        // A dirty-read bug: the "increment" writes the new value before
        // validating, so a concurrent reader can observe an overcount.
        // Pruning must still reach a violating schedule.
        let setup = || {
            let mut mem = Memory::new();
            let o = mem.alloc(0);
            let machines = vec![Machine::new(sloppy_double_incr(o)), reader(o)];
            (mem, machines)
        };
        let ops = vec![
            ExploreOp {
                pid: ProcessId(0),
                desc: OpDesc::CounterIncrement,
                returns_value: false,
            },
            ExploreOp {
                pid: ProcessId(1),
                desc: OpDesc::CounterRead,
                returns_value: true,
            },
        ];
        // The read may see 0 or 1 (the final value); seeing the
        // transient 2 is the injected violation.
        let mut check = |h: &History| h.ops().iter().all(|o| o.output != Some(OpOutput::Value(2)));
        for prune in [false, true] {
            let summary = explore(
                &setup,
                &ops,
                &mut check,
                ExploreConfig {
                    max_schedules: 10_000,
                    prune,
                    max_crashes: 0,
                },
            );
            assert!(
                summary.violation.is_some(),
                "prune={prune}: dirty read not found"
            );
        }
    }

    #[test]
    fn crash_exploration_yields_pending_histories() {
        // Two CAS-loop increments with a 1-crash budget: some schedules
        // must contain exactly one pending increment, every history must
        // still satisfy the counter checker (completion rule), and the
        // crash-free schedules must still all be enumerated.
        let (setup, ops) = counter_setup(2);
        let mut pending_histories = 0usize;
        let mut complete_histories = 0usize;
        let summary = explore(
            &setup,
            &ops,
            &mut |h| {
                let pending = h.pending().count();
                assert!(pending <= 1, "crash budget is 1");
                if pending == 1 {
                    pending_histories += 1;
                    // The crashed increment has no response and no output.
                    let p = h.pending().next().unwrap();
                    assert!(p.output.is_none());
                    assert!(p.steps >= 1);
                } else {
                    complete_histories += 1;
                }
                check_interval(h, &SeqSpec::Counter).is_ok()
            },
            ExploreConfig {
                max_schedules: 100_000,
                prune: false,
                max_crashes: 1,
            },
        );
        assert!(!summary.truncated);
        assert!(summary.violation.is_none());
        assert!(summary.violation_crashed.is_empty());
        assert!(summary.stats.crash_branches > 0);
        assert_eq!(
            summary.stats.crash_branches, pending_histories,
            "each crash branch completes into exactly one schedule here"
        );
        // Crash-free schedules are unchanged by the crash budget: the
        // same scope without crashes enumerates exactly this many.
        let baseline = enumerate(&setup, &ops, &mut |_| true, 100_000);
        assert_eq!(complete_histories, baseline.schedules);
    }

    #[test]
    fn crash_budget_zero_changes_nothing() {
        let (setup, ops) = counter_setup(2);
        let a = enumerate(&setup, &ops, &mut |_| true, 100_000);
        let b = explore(
            &setup,
            &ops,
            &mut |_| true,
            ExploreConfig {
                max_schedules: 100_000,
                prune: false,
                max_crashes: 0,
            },
        );
        assert_eq!(a.schedules, b.schedules);
        assert_eq!(b.stats.crash_branches, 0);
    }

    #[test]
    fn crash_exploration_finds_crash_only_bugs() {
        // A two-phase "write-ahead increment": process 0 bumps a dirty
        // flag cell, then the real cell. If it crashes between the two
        // writes, a reader of the dirty cell sees a count the real cell
        // never reaches — a violation that NO crash-free schedule
        // exhibits (the checker below only fails when the crashed state
        // is observed). Crash exploration must find it automatically.
        async fn two_phase(a: ObjId, b: ObjId) -> Word {
            access(Prim::Write(a, 1)).await;
            access(Prim::Write(b, 1)).await;
            0
        }
        let setup = move || {
            let mut mem = Memory::new();
            let a = mem.alloc(0);
            let b = mem.alloc(0);
            let machines = vec![
                Machine::new(two_phase(a, b)),
                Machine::new(async move {
                    let va = access(Prim::Read(a)).await;
                    va - access(Prim::Read(b)).await
                }),
            ];
            (mem, machines)
        };
        let ops = vec![
            ExploreOp {
                pid: ProcessId(0),
                desc: OpDesc::CounterIncrement,
                returns_value: false,
            },
            ExploreOp {
                pid: ProcessId(1),
                desc: OpDesc::CounterRead,
                returns_value: true,
            },
        ];
        // "Violation": the reader observed a - b == 1 AND the writer is
        // pending — i.e. the torn intermediate state outlived the crash.
        let mut check = |h: &History| {
            let torn = h.ops().iter().any(|o| o.output == Some(OpOutput::Value(1)));
            let writer_crashed = h.pending().any(|o| o.desc == OpDesc::CounterIncrement);
            !(torn && writer_crashed)
        };
        // Without crashes the torn state is transient (the writer always
        // finishes): the schedule where the reader interleaves sees a=1,
        // b=0 too — but the writer completes, so `writer_crashed` is
        // false and no violation fires.
        let clean = explore(
            &setup,
            &ops,
            &mut check,
            ExploreConfig {
                max_schedules: 100_000,
                prune: false,
                max_crashes: 0,
            },
        );
        assert!(clean.violation.is_none());
        // With a 1-crash budget the explorer finds the bad crash point.
        for prune in [false, true] {
            let summary = explore(
                &setup,
                &ops,
                &mut check,
                ExploreConfig {
                    max_schedules: 100_000,
                    prune,
                    max_crashes: 1,
                },
            );
            assert!(
                summary.violation.is_some(),
                "prune={prune}: crash-only bug not found"
            );
            assert_eq!(
                summary.violation_crashed,
                vec![ProcessId(0)],
                "prune={prune}: the writer is the crashed process"
            );
        }
    }

    #[test]
    fn crash_exploration_respects_pruning_soundness() {
        // The pruned and unpruned crash explorations must agree on the
        // set of history classes (outputs + step counts + precedence),
        // mirroring `pruning_preserves_the_set_of_histories`.
        use std::collections::BTreeSet;
        let setup = || {
            let mut mem = Memory::new();
            let a = mem.alloc(0);
            let machines = vec![Machine::new(incr(a)), Machine::new(incr(a)), reader(a)];
            (mem, machines)
        };
        let ops = vec![
            ExploreOp {
                pid: ProcessId(0),
                desc: OpDesc::CounterIncrement,
                returns_value: false,
            },
            ExploreOp {
                pid: ProcessId(1),
                desc: OpDesc::CounterIncrement,
                returns_value: false,
            },
            ExploreOp {
                pid: ProcessId(2),
                desc: OpDesc::CounterRead,
                returns_value: true,
            },
        ];
        // Signature tolerant of pending ops: output (None when pending),
        // completion flag, and the precedence row.
        let sig = |h: &History| {
            let by_pid = |pid: ProcessId| h.ops().iter().find(|o| o.pid == pid).unwrap();
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
        let collect = |prune: bool| {
            let mut set: BTreeSet<String> = BTreeSet::new();
            let summary = explore(
                &setup,
                &ops,
                &mut |h| {
                    set.insert(sig(h));
                    true
                },
                ExploreConfig {
                    max_schedules: 1_000_000,
                    prune,
                    max_crashes: 1,
                },
            );
            assert!(!summary.truncated);
            (set, summary.schedules)
        };
        let (full, full_n) = collect(false);
        let (pruned, pruned_n) = collect(true);
        assert!(pruned_n <= full_n);
        assert_eq!(full, pruned, "crash pruning changed the history set");
    }

    /// `n` writes to `o` in a row, of `n` down to 1. The body holds
    /// `token` until the last write completes.
    async fn writes(o: ObjId, n: Word, token: Arc<()>) -> Word {
        for v in (1..=n).rev() {
            access(Prim::Write(o, v)).await;
        }
        drop(token);
        0
    }

    #[test]
    fn backtracking_keeps_no_unfinished_machine_alive() {
        // Every machine holds a clone of `token` until it completes, so
        // at a complete schedule (every machine done) any count above
        // the test's own reference is an unfinished machine kept alive.
        let token = Arc::new(());
        let setup = || {
            let mut mem = Memory::new();
            let a = mem.alloc(0);
            let reader = || {
                let t = Arc::clone(&token);
                Machine::new(async move {
                    let v = access(Prim::Read(a)).await;
                    drop(t);
                    v
                })
            };
            let writer = Machine::new(writes(a, 6, Arc::clone(&token)));
            (mem, vec![writer, reader(), reader()])
        };
        let ops: Vec<ExploreOp> = [OpDesc::WriteMax(6), OpDesc::ReadMax, OpDesc::ReadMax]
            .into_iter()
            .enumerate()
            .map(|(i, desc)| ExploreOp {
                pid: ProcessId(i),
                returns_value: i > 0,
                desc,
            })
            .collect();
        let mut alive = Vec::new();
        let summary = enumerate(
            &setup,
            &ops,
            &mut |_| {
                alive.push(Arc::strong_count(&token) - 1);
                true
            },
            1_000,
        );
        // C(8, 6) * 2 interleavings of a 6-step op and two 1-step ops.
        assert_eq!(summary.schedules, 56);
        assert_eq!(alive, vec![0; 56], "unfinished machines alive per schedule");
        assert_eq!(Arc::strong_count(&token), 1);
    }

    #[test]
    fn crashed_ops_report_the_steps_they_took() {
        // Each crash branch runs after the sibling subtree in which the
        // crashed op stepped past its crash point and was backtracked:
        // its pending record must count the events on the current path,
        // not what its machine was last fed.
        let setup = || {
            let mut mem = Memory::new();
            let a = mem.alloc(0);
            let machines = vec![Machine::new(writes(a, 3, Arc::default())), reader(a)];
            (mem, machines)
        };
        let ops = vec![
            ExploreOp {
                pid: ProcessId(0),
                desc: OpDesc::WriteMax(3),
                returns_value: false,
            },
            ExploreOp {
                pid: ProcessId(1),
                desc: OpDesc::ReadMax,
                returns_value: true,
            },
        ];
        let mut pending_steps = Vec::new();
        let summary = explore(
            &setup,
            &ops,
            &mut |h| {
                pending_steps.extend(h.pending().map(|p| p.steps));
                true
            },
            ExploreConfig {
                max_schedules: 1_000,
                prune: false,
                max_crashes: 1,
            },
        );
        // 4 crash-free schedules, and the writer crashed after its first
        // write (the reader before or after it) or its second (3 places).
        assert_eq!(summary.schedules, 9);
        pending_steps.sort_unstable();
        assert_eq!(pending_steps, [1, 1, 2, 2, 2]);
    }

    #[test]
    fn machines_are_kept_while_their_responses_match() {
        // Writers on disjoint cells and a reader of a cell nobody
        // writes: every interleaving feeds every operation the same
        // responses, so no machine is ever rebuilt. `setup` runs once
        // for the root and at most once more per root branch.
        use std::cell::Cell;
        let calls = Cell::new(0usize);
        let setup = || {
            calls.set(calls.get() + 1);
            let mut mem = Memory::new();
            let cells = mem.alloc_n(4, 0);
            let mut machines: Vec<Machine> = cells[..3]
                .iter()
                .map(|&o| Machine::new(writes(o, 3, Arc::default())))
                .collect();
            machines.push(reader(cells[3]));
            (mem, machines)
        };
        let ops: Vec<ExploreOp> = (0..4)
            .map(|i| ExploreOp {
                pid: ProcessId(i),
                desc: if i < 3 {
                    OpDesc::WriteMax(3)
                } else {
                    OpDesc::ReadMax
                },
                returns_value: i == 3,
            })
            .collect();
        let summary = enumerate(&setup, &ops, &mut |_| true, 1_000_000);
        // 10! / (3!·3!·3!·1!) interleavings of three 3-step writes and a
        // read.
        assert_eq!(summary.schedules, 16_800);
        let root_branches = ops.len();
        assert!(
            calls.get() <= 1 + root_branches,
            "{} setup calls for {root_branches} root branches",
            calls.get()
        );
    }

    #[test]
    fn stats_replay_savings_accumulate() {
        let (setup, ops) = counter_setup(3);
        let summary = enumerate(&setup, &ops, &mut |_| true, 200_000);
        // Every DFS node below depth 1 saves replay work; with thousands
        // of schedules of depth >= 6, savings must be substantial.
        assert!(
            summary.stats.replay_steps_saved > summary.stats.executed_steps,
            "saved {} vs executed {}",
            summary.stats.replay_steps_saved,
            summary.stats.executed_steps
        );
    }

    #[test]
    fn stats_prim_kinds_partition_executed_steps() {
        let (setup, ops) = counter_setup(3);
        let summary = enumerate(&setup, &ops, &mut |_| true, 200_000);
        let s = &summary.stats;
        assert_eq!(
            s.reads + s.writes + s.cas_ok + s.cas_fail,
            s.executed_steps,
            "prim-kind tallies must partition executed_steps"
        );
        // The read-CAS increment loop issues reads and CASes, and with 3
        // contending processes some interleavings must fail a CAS.
        assert!(s.reads > 0 && s.cas_ok > 0 && s.cas_fail > 0);
        assert_eq!(s.writes, 0, "incr uses no write primitive");
    }

    /// Asserts two explorations did exactly the same work, field by
    /// field (parallel merges must reproduce the sequential counters).
    fn assert_stats_eq(a: &ExploreStats, b: &ExploreStats, ctx: &str) {
        assert_eq!(a.schedules, b.schedules, "{ctx}: schedules");
        assert_eq!(
            a.pruned_branches, b.pruned_branches,
            "{ctx}: pruned_branches"
        );
        assert_eq!(a.executed_steps, b.executed_steps, "{ctx}: executed_steps");
        assert_eq!(
            a.replay_steps_saved, b.replay_steps_saved,
            "{ctx}: replay_steps_saved"
        );
        assert_eq!(a.peak_depth, b.peak_depth, "{ctx}: peak_depth");
        assert_eq!(a.crash_branches, b.crash_branches, "{ctx}: crash_branches");
        assert_eq!(a.reads, b.reads, "{ctx}: reads");
        assert_eq!(a.writes, b.writes, "{ctx}: writes");
        assert_eq!(a.cas_ok, b.cas_ok, "{ctx}: cas_ok");
        assert_eq!(a.cas_fail, b.cas_fail, "{ctx}: cas_fail");
    }

    #[test]
    fn parallel_explorer_reproduces_sequential_counts() {
        // Across prune × crash-budget × worker-count, the merged
        // parallel stats must equal the sequential run field for field:
        // the root partition visits exactly the sequential node set.
        let (setup, ops) = counter_setup(3);
        for prune in [false, true] {
            for max_crashes in [0, 1] {
                let cfg = ExploreConfig {
                    max_schedules: 1_000_000,
                    prune,
                    max_crashes,
                };
                let sequential = explore(&setup, &ops, &mut |_| true, cfg);
                assert!(!sequential.truncated);
                for workers in [1, 2, 4] {
                    let parallel = explore_parallel(&setup, &ops, &|_| true, cfg, workers);
                    let ctx = format!("prune={prune} max_crashes={max_crashes} workers={workers}");
                    assert!(!parallel.truncated, "{ctx}: truncated");
                    assert!(parallel.violation.is_none(), "{ctx}: violation");
                    assert_eq!(parallel.schedules, sequential.schedules, "{ctx}");
                    assert_stats_eq(&parallel.stats, &sequential.stats, &ctx);
                }
            }
        }
    }

    #[test]
    fn parallel_explorer_finds_violations() {
        // Same dirty-read scenario as `pruning_reaches_violating_schedules`,
        // but searched in parallel: a transient overcount of 2 must still
        // be found regardless of which worker owns the violating branch.
        let setup = || {
            let mut mem = Memory::new();
            let o = mem.alloc(0);
            let machines = vec![Machine::new(sloppy_double_incr(o)), reader(o)];
            (mem, machines)
        };
        let ops = vec![
            ExploreOp {
                pid: ProcessId(0),
                desc: OpDesc::CounterIncrement,
                returns_value: false,
            },
            ExploreOp {
                pid: ProcessId(1),
                desc: OpDesc::CounterRead,
                returns_value: true,
            },
        ];
        let check = |h: &History| h.ops().iter().all(|o| o.output != Some(OpOutput::Value(2)));
        for prune in [false, true] {
            for workers in [1, 2, 4] {
                let summary = explore_parallel(
                    &setup,
                    &ops,
                    &check,
                    ExploreConfig {
                        max_schedules: 10_000,
                        prune,
                        max_crashes: 0,
                    },
                    workers,
                );
                assert!(
                    summary.violation.is_some(),
                    "prune={prune} workers={workers}: dirty read not found"
                );
            }
        }
    }

    #[test]
    fn parallel_explorer_respects_the_shared_budget() {
        let (setup, ops) = counter_setup(3);
        let workers = 4;
        let budget = 5;
        let summary = explore_parallel(
            &setup,
            &ops,
            &|_| true,
            ExploreConfig {
                max_schedules: budget,
                prune: false,
                max_crashes: 0,
            },
            workers,
        );
        assert!(summary.truncated);
        // The budget is shared; each in-flight worker may complete at
        // most one extra schedule before it observes the stop flag.
        assert!(
            summary.schedules >= budget && summary.schedules < budget + workers,
            "schedules={} budget={budget} workers={workers}",
            summary.schedules
        );
    }
}
