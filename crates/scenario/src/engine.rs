//! The three engines that consume a [`ScenarioSpec`] and emit a
//! [`ScenarioReport`]:
//!
//! * [`run_real`] — OS threads hammering the real-atomics face
//!   (W4-style contended throughput), plus one instrumented batch that
//!   feeds a latency histogram and a [`ProgressCertifier`];
//! * [`run_sim`] — the step-machine executor over seeded adversarial
//!   schedules and fault plans, checked per family (W6-style soak);
//! * [`run_explore`] — the incremental bounded model checker over every
//!   interleaving (and crash placement) of a small scope (W5-style).
//!
//! [`run`] dispatches on the spec's engine. The per-seed and
//! scope-construction helpers ([`run_sim_seed`], [`explore_parts`]) are
//! public so integration tests can reuse the registry plumbing under
//! bespoke checkers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ruo_metrics::{
    trace_execution, LatencyTracker, LowWatermark, MetricDesc, MetricKind, MetricsRegistry,
    ProgressCertifier, SeriesSampler, StepStats, StepTrace, Watermark,
};
use ruo_sim::explore::{explore, ExploreConfig, ExploreOp};
use ruo_sim::lin::{check_exact_k, check_interval_k, Violation};
use ruo_sim::spec::SeqSpec;
use ruo_sim::stepcount::CountingMem;
use ruo_sim::{
    EventLog, ExecOutcome, Executor, FaultPlan, History, Machine, Memory, OpDesc, OpOutput,
    OpRecord, OpSpec, ProcessId, RandomScheduler, RoundRobin, Scheduler, SplitMix64,
    WorkloadBuilder,
};

use crate::registry::{find, BuildError, BuildParams, Family, ImplEntry, RealObject, SimObject};
use crate::report::{ScenarioReport, TelemetryBlock};
use crate::spec::{
    CheckerKind, EngineKind, FaultSpec, OpKind, OpMix, ScenarioSpec, SchedulePolicy, TelemetrySpec,
    TraceSpec,
};

/// Why an engine refused to run a scenario.
#[derive(Clone, Debug)]
pub enum EngineError {
    /// The registry could not construct the implementation.
    Build(BuildError),
    /// The spec combines knobs the engines cannot honor (e.g. exploring
    /// snapshot scans, seeding a counter scope).
    Unsupported(String),
    /// A requested trace export could not be written.
    Trace(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Build(e) => write!(f, "{e}"),
            EngineError::Unsupported(msg) => write!(f, "unsupported scenario: {msg}"),
            EngineError::Trace(msg) => write!(f, "trace export failed: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<BuildError> for EngineError {
    fn from(e: BuildError) -> Self {
        EngineError::Build(e)
    }
}

/// Runs a scenario on the engine its spec names.
pub fn run(spec: &ScenarioSpec, quick: bool) -> Result<ScenarioReport, EngineError> {
    match spec.engine {
        EngineKind::Real => run_real(spec, quick),
        EngineKind::Sim => run_sim(spec, quick),
        EngineKind::Explore => run_explore(spec, quick),
    }
}

/// Runs a scenario under its wall-clock watchdog.
///
/// With `watchdog_secs` unset this is exactly [`run`]. Otherwise the
/// engine runs on a helper thread and the caller waits at most that
/// many seconds for the report: a run that blows the budget (a livelock
/// in an implementation under test, a pathological schedule, an
/// explosion the step budget failed to contain) comes back as a
/// *failing* [`ScenarioReport`] with a `watchdog_fired` counter and a
/// structured note, instead of hanging the harness forever.
///
/// The engines have no cancellation points, so an overrunning run's
/// thread is abandoned (detached) — acceptable for a CLI/CI harness
/// whose process exits soon after, which is the only place a watchdog
/// verdict should be acted on.
pub fn run_with_watchdog(spec: &ScenarioSpec, quick: bool) -> Result<ScenarioReport, EngineError> {
    let Some(secs) = spec.watchdog_secs else {
        return run(spec, quick);
    };
    let (tx, rx) = std::sync::mpsc::channel();
    let owned = spec.clone();
    let handle = std::thread::Builder::new()
        .name(format!("scenario-{}", spec.name))
        .spawn(move || {
            let _ = tx.send(run(&owned, quick));
        })
        .expect("spawn scenario watchdog thread");
    match rx.recv_timeout(std::time::Duration::from_secs(secs)) {
        Ok(result) => {
            let _ = handle.join();
            result
        }
        Err(_) => {
            let mut report = ScenarioReport::new(spec, quick);
            report.ok = false;
            report.set("watchdog_secs", secs);
            report.set("watchdog_fired", 1);
            report.note(format!(
                "watchdog: no report within {secs}s — run abandoned as stuck"
            ));
            Ok(report)
        }
    }
}

/// The checker that actually decides this spec's histories: `auto`
/// resolves to the WGL interval checker on every engine (exact verdicts
/// at any size; on the explorer's tiny histories a call costs a few
/// percent of a schedule). An explicit `exact` passes through. Reports
/// record the resolved name in their `checker` field.
pub fn resolve_checker(spec: &ScenarioSpec) -> CheckerKind {
    match spec.checker {
        CheckerKind::Auto => CheckerKind::Interval,
        explicit => explicit,
    }
}

/// Checks a history against the spec's checker choice.
pub fn check_history(spec: &ScenarioSpec, history: &History) -> Result<(), Violation> {
    check_with(
        resolve_checker(spec),
        history,
        &seq_spec(spec, 0),
        spec.accuracy_k(),
    )
}

/// The sequential spec of the scenario's family; `initial` is a max
/// register's starting value.
fn seq_spec(spec: &ScenarioSpec, initial: i64) -> SeqSpec {
    match spec.family {
        Family::MaxReg => SeqSpec::MaxRegister { initial },
        Family::Counter => SeqSpec::Counter,
        Family::Snapshot => SeqSpec::Snapshot {
            n: spec.n,
            initial: 0,
        },
    }
}

fn check_with(
    checker: CheckerKind,
    history: &History,
    seq: &SeqSpec,
    k: u64,
) -> Result<(), Violation> {
    match checker {
        CheckerKind::Exact => check_exact_k(history, seq, k),
        CheckerKind::Auto | CheckerKind::Interval => check_interval_k(history, seq, k),
    }
}

// ---------------------------------------------------------------------
// Trace plumbing shared by the engines
// ---------------------------------------------------------------------

/// Whether the spec's trace section asks for the `steps` report block.
fn wants_steps(spec: &ScenarioSpec) -> bool {
    spec.trace.as_ref().is_some_and(|t| t.steps)
}

/// Whether the spec's trace section asks for any event-level export.
fn wants_export(spec: &ScenarioSpec) -> bool {
    spec.trace
        .as_ref()
        .is_some_and(|t| t.jsonl.is_some() || t.chrome.is_some())
}

/// Writes `contents` to `path`, creating parent directories.
fn write_trace_file(path: &str, contents: &str) -> Result<(), EngineError> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| EngineError::Trace(format!("creating {}: {e}", parent.display())))?;
        }
    }
    std::fs::write(path, contents).map_err(|e| EngineError::Trace(format!("writing {path}: {e}")))
}

/// Exports a [`StepTrace`] to the paths the trace section names, noting
/// each written file in the report.
fn export_trace(
    tspec: &TraceSpec,
    trace: &StepTrace,
    report: &mut ScenarioReport,
) -> Result<(), EngineError> {
    if let Some(path) = &tspec.jsonl {
        write_trace_file(path, &trace.to_jsonl())?;
        report.note(format!("trace jsonl: {path}"));
    }
    if let Some(path) = &tspec.chrome {
        write_trace_file(path, &trace.to_chrome_trace())?;
        report.note(format!("trace chrome: {path}"));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Telemetry sampling shared by the sim and real engines
// ---------------------------------------------------------------------

/// Sweep-progress scalars the sim engine registers and samples once per
/// `every` seeds (the seed index is the sampler tick, so sampled sim
/// runs stay deterministic — no wall clock anywhere near the ring).
struct SimTelemetry {
    sampler: SeriesSampler,
    every: u64,
    ok_runs: Arc<AtomicU64>,
    crashed_runs: Arc<AtomicU64>,
    checked_ops: Arc<AtomicU64>,
    largest_history: Arc<Watermark>,
}

impl SimTelemetry {
    fn new(t: &TelemetrySpec) -> Self {
        let ok_runs = Arc::new(AtomicU64::new(0));
        let crashed_runs = Arc::new(AtomicU64::new(0));
        let checked_ops = Arc::new(AtomicU64::new(0));
        let largest_history = Arc::new(Watermark::new(1));
        let mut reg = MetricsRegistry::new();
        let r = Arc::clone(&ok_runs);
        reg.register(
            MetricDesc::new(
                "ok_runs",
                MetricKind::Counter,
                "runs",
                "seeded runs that drained and linearized",
            ),
            move || r.load(Ordering::Relaxed),
        );
        let r = Arc::clone(&crashed_runs);
        reg.register(
            MetricDesc::new(
                "crashed_runs",
                MetricKind::Counter,
                "runs",
                "seeded runs whose fault plan crashed a process",
            ),
            move || r.load(Ordering::Relaxed),
        );
        let r = Arc::clone(&checked_ops);
        reg.register(
            MetricDesc::new(
                "checked_ops",
                MetricKind::Counter,
                "ops",
                "operations fed through the checker so far",
            ),
            move || r.load(Ordering::Relaxed),
        );
        largest_history.register_into(
            &mut reg,
            "largest_history",
            "ops",
            "largest single history checked so far",
        );
        SimTelemetry {
            sampler: SeriesSampler::new(Arc::new(reg), t.capacity),
            every: t.every,
            ok_runs,
            crashed_runs,
            checked_ops,
            largest_history,
        }
    }

    /// Publishes the sweep's running totals and samples the registry if
    /// seed index `k` lands on the cadence.
    fn record_seed(&mut self, k: u64, ok: u64, crashed: u64, checked: u64, largest: u64) {
        self.ok_runs.store(ok, Ordering::Relaxed);
        self.crashed_runs.store(crashed, Ordering::Relaxed);
        self.checked_ops.store(checked, Ordering::Relaxed);
        self.largest_history.record(ProcessId(0), largest);
        if k.is_multiple_of(self.every) {
            self.sampler.sample(k);
        }
    }
}

/// Batch-progress scalars the real engine registers and samples once
/// per `every` timed batches (the batch index is the sampler tick).
struct RealTelemetry {
    sampler: SeriesSampler,
    every: u64,
    batches: Arc<AtomicU64>,
    ops_done: Arc<AtomicU64>,
    batch_best: Arc<LowWatermark>,
    batch_worst: Arc<Watermark>,
}

impl RealTelemetry {
    fn new(t: &TelemetrySpec) -> Self {
        let batches = Arc::new(AtomicU64::new(0));
        let ops_done = Arc::new(AtomicU64::new(0));
        let batch_best = Arc::new(LowWatermark::new(1));
        let batch_worst = Arc::new(Watermark::new(1));
        let mut reg = MetricsRegistry::new();
        let r = Arc::clone(&batches);
        reg.register(
            MetricDesc::new(
                "batches",
                MetricKind::Counter,
                "batches",
                "timed contended batches completed",
            ),
            move || r.load(Ordering::Relaxed),
        );
        let r = Arc::clone(&ops_done);
        reg.register(
            MetricDesc::new(
                "ops_done",
                MetricKind::Counter,
                "ops",
                "operations completed across timed batches",
            ),
            move || r.load(Ordering::Relaxed),
        );
        batch_best.register_into(
            &mut reg,
            "batch_best_ns",
            "ns",
            "fastest timed batch so far",
        );
        batch_worst.register_into(
            &mut reg,
            "batch_worst_ns",
            "ns",
            "slowest timed batch so far",
        );
        RealTelemetry {
            sampler: SeriesSampler::new(Arc::new(reg), t.capacity),
            every: t.every,
            batches,
            ops_done,
            batch_best,
            batch_worst,
        }
    }

    /// Publishes one timed batch's outcome and samples the registry if
    /// batch index `idx` lands on the cadence.
    fn record_batch(&mut self, idx: u64, batch_ops: u64, batch_ns: u64) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.ops_done.fetch_add(batch_ops, Ordering::Relaxed);
        self.batch_best.record(ProcessId(0), batch_ns);
        self.batch_worst.record(ProcessId(0), batch_ns);
        if idx.is_multiple_of(self.every) {
            self.sampler.sample(idx);
        }
    }
}

// ---------------------------------------------------------------------
// Sim engine
// ---------------------------------------------------------------------

/// The capacity handed to bounded sim implementations when the spec
/// leaves it implicit: large enough for every value (`value_bound + 1`
/// for max registers) or every update (`n * ops_per_process + 1` for
/// counters and snapshots).
fn sim_capacity(spec: &ScenarioSpec) -> u64 {
    spec.capacity.unwrap_or(match spec.family {
        Family::MaxReg => spec.value_bound + 1,
        Family::Counter | Family::Snapshot => (spec.n as u64) * (spec.ops_per_process as u64) + 1,
    })
}

/// Largest value updates may write: the spec's `value_bound`, clamped
/// below a bounded implementation's capacity.
fn sim_value_bound(spec: &ScenarioSpec, entry: &ImplEntry) -> u64 {
    if entry.caps.bounded_capacity && spec.family == Family::MaxReg {
        spec.value_bound
            .min(sim_capacity(spec).saturating_sub(1))
            .max(1)
    } else {
        spec.value_bound
    }
}

/// Rejects accuracy factors the implementation cannot honor: `k > 1`
/// on an exact face would make the relaxed checkers certify behaviour
/// the implementation never promised, so only entries advertising an
/// accuracy capability may run with a relaxed envelope. Snapshot scans
/// return vectors, which the `_k` checkers never relax — a `k > 1`
/// snapshot spec is a contradiction and is rejected up front.
fn validate_accuracy(spec: &ScenarioSpec, entry: &ImplEntry) -> Result<(), EngineError> {
    let k = spec.accuracy_k();
    if k > 1 && entry.caps.accuracy.is_none() {
        return Err(EngineError::Unsupported(format!(
            "accuracy.k = {k} on exact implementation {}/{} (no accuracy capability)",
            spec.family.name(),
            spec.impl_id
        )));
    }
    if k > 1 && spec.family == Family::Snapshot {
        return Err(EngineError::Unsupported(
            "accuracy.k > 1 is not defined for snapshot scans".into(),
        ));
    }
    Ok(())
}

/// Builds the spec's implementation on the simulator face, allocating
/// in a fresh [`Memory`].
pub fn build_sim_object(spec: &ScenarioSpec) -> Result<(Memory, SimObject), EngineError> {
    let entry = find(spec.family, &spec.impl_id)?;
    validate_accuracy(spec, entry)?;
    let mut mem = Memory::new();
    let obj = entry.build_sim(
        &mut mem,
        &BuildParams {
            n: spec.n,
            capacity: sim_capacity(spec),
            root_fast_path: spec.root_fast_path,
            accuracy_k: spec.accuracy_k(),
        },
    )?;
    Ok((mem, obj))
}

/// The fault plan the sim engine uses for one seeded run.
pub fn fault_plan_for_seed(spec: &ScenarioSpec, run_seed: u64) -> FaultPlan {
    match &spec.faults {
        None => FaultPlan::none(),
        Some(FaultSpec::Random { crashes, max_after }) => {
            FaultPlan::random_crashes(run_seed, spec.n, *crashes, *max_after)
        }
        Some(FaultSpec::Explicit { crashes }) => {
            let mut plan = FaultPlan::new();
            for c in crashes {
                plan = plan.crash(ProcessId(c.pid), c.after);
            }
            plan
        }
    }
}

/// The seeded per-process operation sequences for one run, per the
/// spec's mix.
pub fn sim_workload(
    obj: &SimObject,
    spec: &ScenarioSpec,
    run_seed: u64,
) -> Result<WorkloadBuilder, EngineError> {
    let entry = find(spec.family, &spec.impl_id)?;
    let bound = sim_value_bound(spec, entry);
    let n = spec.n;
    let mut rng = SplitMix64::new(spec.seed ^ run_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut w = WorkloadBuilder::new(n);
    for p in 0..n {
        for i in 0..spec.ops_per_process {
            let pid = ProcessId(p);
            let is_read = match spec.mix {
                OpMix::Alternate => i % 2 != 0,
                OpMix::Random => rng.gen_below(100) < spec.read_pct as u64,
            };
            let value = match spec.mix {
                // The legacy deterministic soak value streams; see
                // `OpMix::Alternate`.
                OpMix::Alternate => match spec.family {
                    Family::MaxReg => {
                        run_seed.wrapping_mul(31).wrapping_add((i * n + p) as u64) % bound + 1
                    }
                    Family::Counter => 0,
                    Family::Snapshot => p as u64 * 1000 + run_seed % 500 + i as u64 + 1,
                },
                OpMix::Random => 1 + rng.gen_below(bound),
            };
            w.op(pid, sim_op(obj, pid, is_read, value));
        }
    }
    Ok(w)
}

/// One operation of the workload, as the executor's `OpSpec`.
fn sim_op(obj: &SimObject, pid: ProcessId, is_read: bool, value: u64) -> OpSpec {
    match obj {
        SimObject::MaxReg(reg) => {
            let reg = Arc::clone(reg);
            if is_read {
                OpSpec::value(OpDesc::ReadMax, move || reg.read_max(pid))
            } else {
                OpSpec::update(OpDesc::WriteMax(value as i64), move || {
                    reg.write_max(pid, value)
                })
            }
        }
        SimObject::Counter(c) => {
            let c = Arc::clone(c);
            if is_read {
                OpSpec::value(OpDesc::CounterRead, move || c.read(pid))
            } else {
                OpSpec::update(OpDesc::CounterIncrement, move || c.increment(pid))
            }
        }
        SimObject::Snapshot(s) => {
            let s = Arc::clone(s);
            if is_read {
                OpSpec::value(OpDesc::Scan, move || s.scan(pid))
            } else {
                OpSpec::update(OpDesc::Update(value as i64), move || s.update(pid, value))
            }
        }
    }
}

fn make_executor(spec: &ScenarioSpec) -> Executor {
    match spec.step_budget {
        Some(budget) => Executor::with_step_budget(budget),
        None => Executor::new(),
    }
}

fn make_scheduler(spec: &ScenarioSpec, run_seed: u64) -> Box<dyn Scheduler> {
    match spec.schedule {
        SchedulePolicy::Random => Box::new(RandomScheduler::new(run_seed)),
        SchedulePolicy::RoundRobin => Box::new(RoundRobin::new()),
    }
}

/// One seeded sim run: outcome, checker verdict and the soak pass
/// criterion (drained — all done, or legitimately crash-pending — and
/// linearizable under the completion rule).
#[derive(Debug)]
pub struct SimSeedRun {
    /// The executor's outcome: history, completion, crashes.
    pub outcome: ExecOutcome,
    /// The run's events, the raw material for step attribution
    /// ([`ruo_metrics::trace_execution`]). Recorded only when the spec's
    /// trace section asks for the `steps` block or an event-level
    /// export, which are what read them.
    pub events: Option<EventLog>,
    /// The checker's verdict on the history.
    pub violation: Option<Violation>,
    /// Whether the run drained: every op completed, or a crash
    /// legitimately left work pending.
    pub drained: bool,
}

impl SimSeedRun {
    /// The soak pass criterion.
    pub fn passed(&self) -> bool {
        self.drained && self.violation.is_none()
    }
}

/// Runs one seeded schedule of the spec's workload under `plan`.
///
/// This is the single per-seed driver behind [`run_sim`]; integration
/// tests use it directly to sweep bespoke fault plans.
pub fn run_sim_seed(
    spec: &ScenarioSpec,
    run_seed: u64,
    plan: &FaultPlan,
) -> Result<SimSeedRun, EngineError> {
    let (mut mem, obj) = build_sim_object(spec)?;
    let w = sim_workload(&obj, spec, run_seed)?;
    let mut sched = make_scheduler(spec, run_seed);
    let executor = make_executor(spec);
    let mut events = (wants_steps(spec) || wants_export(spec)).then(EventLog::new);
    let outcome = match &mut events {
        Some(log) => executor.run_recorded(&mut mem, w, sched.as_mut(), plan, log),
        None => executor.run_with_faults(&mut mem, w, sched.as_mut(), plan),
    };
    let drained = outcome.all_done || !outcome.crashed.is_empty();
    let violation = check_history(spec, &outcome.history).err();
    Ok(SimSeedRun {
        outcome,
        events,
        violation,
        drained,
    })
}

/// Measures the implementation's wait-free step bound for this workload
/// shape from one crash-free round-robin run (schedule-independent for
/// the wait-free families; the soak watchdog's bound).
pub fn measure_step_bound(spec: &ScenarioSpec) -> Result<u64, EngineError> {
    let (mut mem, obj) = build_sim_object(spec)?;
    let w = sim_workload(&obj, spec, spec.seed)?;
    let outcome = make_executor(spec).run_with_faults(
        &mut mem,
        w,
        &mut RoundRobin::new(),
        &FaultPlan::none(),
    );
    Ok(outcome
        .history
        .completed()
        .map(|op| op.steps as u64)
        .max()
        .unwrap_or(0))
}

/// Sweeps `seeds` adversarial schedules (spec'd fault plan applied per
/// seed), checking every history; `--quick` divides the sweep by 20.
///
/// With a `telemetry` section, sweep-progress scalars (`ok_runs`,
/// `crashed_runs`, `checked_ops`, `largest_history`) are registered in
/// a [`MetricsRegistry`] and sampled every `every` seeds into the
/// report's `telemetry` block — the seed index is the sampler tick, so
/// the curves are deterministic.
pub fn run_sim(spec: &ScenarioSpec, quick: bool) -> Result<ScenarioReport, EngineError> {
    let started = Instant::now();
    let seeds = if quick {
        (spec.seeds / 20).max(1)
    } else {
        spec.seeds
    };
    let certifier = if spec.certify {
        Some(ProgressCertifier::new(spec.n, measure_step_bound(spec)?))
    } else {
        None
    };
    let mut report = ScenarioReport::new(spec, quick);
    report.checker = Some(resolve_checker(spec).name().into());
    if let Some(a) = &spec.accuracy {
        report.set("accuracy_k", a.k);
    }
    let mut ok_runs = 0u64;
    let mut crashed_runs = 0u64;
    let mut pending_ops = 0u64;
    let mut checked_ops = 0u64;
    let mut largest_history = 0u64;
    let mut first_violation: Option<String> = None;
    let mut steps = wants_steps(spec).then(StepStats::new);
    let mut first_trace: Option<StepTrace> = None;
    let mut telem = spec.telemetry.as_ref().map(SimTelemetry::new);
    for k in 0..seeds {
        let run_seed = spec.seed.wrapping_add(k);
        let plan = fault_plan_for_seed(spec, run_seed);
        let run = run_sim_seed(spec, run_seed, &plan)?;
        // `run_sim_seed` records the events exactly when these two read them.
        if let Some(acc) = &mut steps {
            acc.record_history(&run.outcome.history);
            acc.record_events(run.events.as_ref().expect("steps are recorded"));
        }
        if first_trace.is_none() && wants_export(spec) {
            let events = run.events.as_ref().expect("an export is recorded");
            first_trace = Some(trace_execution(events, &run.outcome.history));
        }
        if let Some(cert) = &certifier {
            cert.record_outcome(&run.outcome);
        }
        if !run.outcome.crashed.is_empty() {
            crashed_runs += 1;
        }
        pending_ops += run.outcome.history.pending().count() as u64;
        let hist_ops = run.outcome.history.ops().len() as u64;
        checked_ops += hist_ops;
        largest_history = largest_history.max(hist_ops);
        if run.passed() {
            ok_runs += 1;
        } else if first_violation.is_none() {
            first_violation = Some(match &run.violation {
                Some(v) => format!("seed {run_seed}: {v}"),
                None => format!("seed {run_seed}: workload did not drain"),
            });
        }
        if let Some(t) = &mut telem {
            t.record_seed(k, ok_runs, crashed_runs, checked_ops, largest_history);
        }
    }
    report.set("seeds", seeds);
    report.set("ok_runs", ok_runs);
    report.set("violations", seeds - ok_runs);
    report.set("crashed_runs", crashed_runs);
    report.set("pending_ops", pending_ops);
    report.set("checked_ops", checked_ops);
    report.set("largest_history", largest_history);
    report.steps = steps;
    report.telemetry = telem.map(|t| TelemetryBlock::from_sampler(&t.sampler));
    if let (Some(tspec), Some(trace)) = (&spec.trace, &first_trace) {
        export_trace(tspec, trace, &mut report)?;
    }
    report.ok = ok_runs == seeds;
    if let Some(detail) = first_violation {
        report.note(detail);
    }
    if let Some(cert) = &certifier {
        match cert.certify() {
            Ok(p) => {
                report.set("cert_ok", 1);
                report.set("cert_completed", p.completed);
                report.set("cert_worst_steps", p.worst_steps);
                report.set("cert_bound", p.bound);
                report.set("cert_crashed_pending", p.crashed_pending);
            }
            Err(v) => {
                report.set("cert_ok", 0);
                report.ok = false;
                report.note(format!("progress certification failed: {v}"));
            }
        }
    }
    report.set_metric("duration_ms", started.elapsed().as_secs_f64() * 1e3);
    Ok(report)
}

// ---------------------------------------------------------------------
// Real engine
// ---------------------------------------------------------------------

/// Latency histogram boundaries for the instrumented batch, in
/// nanoseconds (log-spaced, 100 ns – 100 ms).
const LATENCY_BOUNDARIES_NS: &[u64] = &[
    100,
    250,
    500,
    1_000,
    2_500,
    5_000,
    10_000,
    25_000,
    50_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
];

struct RealParams {
    threads: usize,
    ops: u64,
    samples: usize,
    read_pct: u64,
    value_bound: u64,
}

fn real_params(spec: &ScenarioSpec, quick: bool) -> RealParams {
    let (threads, ops, samples) = match &spec.real {
        Some(r) => (r.threads, r.ops_per_thread, r.samples),
        None => (spec.n, 20_000, 7),
    };
    RealParams {
        threads,
        ops: if quick { (ops / 20).max(1) } else { ops },
        samples: if quick { samples.min(3) } else { samples },
        read_pct: spec.read_pct as u64,
        value_bound: spec.value_bound.max(1),
    }
}

fn real_capacity(spec: &ScenarioSpec, p: &RealParams) -> u64 {
    spec.capacity.unwrap_or(match spec.family {
        // Writers draw values below `value_bound`, so it doubles as the
        // AAC capacity (the historical W4 convention).
        Family::MaxReg => p.value_bound,
        Family::Counter | Family::Snapshot => p.ops * p.threads as u64 + 1,
    })
}

/// The stable kind name for one real-world operation — the same names
/// [`ruo_metrics::op_kind`] assigns sim-world descriptors, so both
/// worlds' `steps` blocks key identically.
fn real_op_kind(obj: &RealObject, is_read: bool) -> &'static str {
    match (obj, is_read) {
        (RealObject::MaxReg(_), true) => "read_max",
        (RealObject::MaxReg(_), false) => "write_max",
        (RealObject::Counter(_), true) => "counter_read",
        (RealObject::Counter(_), false) => "counter_increment",
        (RealObject::Snapshot(_), true) => "scan",
        (RealObject::Snapshot(_), false) => "update",
    }
}

/// One contended batch over a fresh object; mirrors the historical W4
/// harness loops exactly (per-thread `SplitMix64::new(0x9e37 + t)`
/// streams, XOR sink against dead-code elimination). When `instruments`
/// is set, every operation is additionally timed into the latency
/// tracker and counted by the certifier — instrumented batches are
/// never the timed ones. When `steps` is set (and the
/// [`CountingMem`] layer is enabled), each thread tallies per-op
/// primitive counts locally and merges them into the shared aggregate at
/// batch end.
fn real_batch(
    obj: &RealObject,
    p: &RealParams,
    sink: &AtomicU64,
    instruments: Option<(&LatencyTracker, &ProgressCertifier)>,
    steps: Option<&Mutex<StepStats>>,
) {
    std::thread::scope(|s| {
        for t in 0..p.threads {
            s.spawn(move || {
                let mut rng = SplitMix64::new(0x9e37 + t as u64);
                let mut acc = 0u64;
                let pid = ProcessId(t);
                let mut local = steps.map(|_| StepStats::new());
                for i in 0..p.ops {
                    let started = instruments.map(|_| Instant::now());
                    if local.is_some() {
                        CountingMem::begin_op();
                    }
                    let is_read = rng.gen_below(100) < p.read_pct;
                    if is_read {
                        acc ^= match obj {
                            RealObject::MaxReg(r) => r.read_max(),
                            RealObject::Counter(c) => c.read(),
                            RealObject::Snapshot(sn) => sn.scan().iter().sum::<u64>(),
                        };
                    } else {
                        match obj {
                            RealObject::MaxReg(r) => r.write_max(pid, rng.gen_below(p.value_bound)),
                            RealObject::Counter(c) => c.increment(pid),
                            RealObject::Snapshot(sn) => sn.update(pid, i + 1),
                        }
                    }
                    if let Some(st) = &mut local {
                        let counts = CountingMem::take_op_counts();
                        st.record_op(real_op_kind(obj, is_read), counts.steps());
                        st.record_prims(&counts);
                    }
                    if let (Some(start), Some((lat, cert))) = (started, instruments) {
                        lat.observe(pid, start.elapsed().as_nanos() as u64);
                        cert.record_completion(pid, 1);
                    }
                }
                if let (Some(st), Some(shared)) = (local, steps) {
                    shared.lock().expect("steps poisoned").merge(&st);
                }
                sink.fetch_xor(acc, Ordering::Relaxed);
            });
        }
    });
}

/// Runs the contended-throughput batch (fresh object per batch, one
/// warm-up, median of `samples` timed runs), then one instrumented
/// batch for the latency histogram and progress certificate.
///
/// When the spec has a `trace` section, the counting layer
/// ([`CountingMem`], a process-wide switch) is enabled around the
/// instrumented batch only — the timed batches always run with counting
/// disabled, keeping throughput numbers comparable to untraced runs.
/// Event-level export (`jsonl`/`chrome`) is a sim/explore capability;
/// real threads record counts, not events.
///
/// With a `telemetry` section, batch-progress scalars (`batches`,
/// `ops_done`, `batch_best_ns`, `batch_worst_ns`) are sampled every
/// `every` timed batches into the report's `telemetry` block, ticked by
/// the batch index (the warm-up batch is not sampled).
pub fn run_real(spec: &ScenarioSpec, quick: bool) -> Result<ScenarioReport, EngineError> {
    let started = Instant::now();
    let entry = find(spec.family, &spec.impl_id)?;
    if wants_export(spec) {
        return Err(EngineError::Unsupported(
            "real threads record step counts, not events; \
             jsonl/chrome trace export requires the sim or explore engine"
                .into(),
        ));
    }
    validate_accuracy(spec, entry)?;
    let p = real_params(spec, quick);
    let params = BuildParams {
        n: p.threads,
        capacity: real_capacity(spec, &p),
        root_fast_path: spec.root_fast_path,
        accuracy_k: spec.accuracy_k(),
    };
    let sink = AtomicU64::new(0);
    let mut telem = spec.telemetry.as_ref().map(RealTelemetry::new);
    let mut times: Vec<f64> = Vec::with_capacity(p.samples);
    for sample in 0..=p.samples {
        let obj = entry.build_real(&params)?;
        let start = Instant::now();
        real_batch(&obj, &p, &sink, None, None);
        if sample > 0 {
            // Sample 0 is the warm-up.
            let elapsed_ns = start.elapsed().as_nanos();
            times.push(elapsed_ns as f64);
            if let Some(t) = &mut telem {
                t.record_batch(
                    (sample - 1) as u64,
                    p.ops * p.threads as u64,
                    elapsed_ns as u64,
                );
            }
        }
    }
    times.sort_by(|a, b| a.total_cmp(b));
    let median_ns = times[times.len() / 2];

    let tracker = LatencyTracker::new(p.threads, LATENCY_BOUNDARIES_NS);
    let certifier = ProgressCertifier::new(p.threads, 1);
    let obj = entry.build_real(&params)?;
    let steps = wants_steps(spec).then(|| Mutex::new(StepStats::new()));
    if steps.is_some() {
        CountingMem::enable();
    }
    real_batch(
        &obj,
        &p,
        &sink,
        Some((&tracker, &certifier)),
        steps.as_ref(),
    );
    if steps.is_some() {
        CountingMem::disable();
    }
    let latency = tracker.report();

    let total_ops = p.ops * p.threads as u64;
    let mut report = ScenarioReport::new(spec, quick);
    if let Some(a) = &spec.accuracy {
        report.set("accuracy_k", a.k);
    }
    report.set("threads", p.threads as u64);
    report.set("ops_per_thread", p.ops);
    report.set("total_ops", total_ops);
    report.set("samples", p.samples as u64);
    report.set("latency_peak_ns", latency.peak);
    if let Some(p50) = latency.p50 {
        report.set("latency_p50_ns", p50);
    }
    if let Some(p99) = latency.p99 {
        report.set("latency_p99_ns", p99);
    }
    report.set_metric("median_ns", median_ns);
    report.set_metric("ns_per_op", median_ns / total_ops as f64);
    report.set_metric("mops_per_s", total_ops as f64 / median_ns * 1e3);
    match certifier.certify() {
        Ok(cert) => {
            report.set("cert_ok", 1);
            report.set("cert_completed", cert.completed);
        }
        Err(v) => {
            report.set("cert_ok", 0);
            report.ok = false;
            report.note(format!("progress certification failed: {v}"));
        }
    }
    if let Some(shared) = steps {
        report.steps = Some(shared.into_inner().expect("steps poisoned"));
    }
    report.telemetry = telem.map(|t| TelemetryBlock::from_sampler(&t.sampler));
    // Fold the sink into a counter so the XOR accumulators stay
    // observable (and the optimizer keeps the reads).
    report.set("sink", sink.load(Ordering::Relaxed));
    report.set_metric("duration_ms", started.elapsed().as_secs_f64() * 1e3);
    Ok(report)
}

// ---------------------------------------------------------------------
// Explore engine
// ---------------------------------------------------------------------

/// A scenario's exploration scope, ready for [`ruo_sim::explore`]: the
/// setup closure (a fresh memory + machines per call), the op
/// descriptors, and the checker's initial value.
pub struct ExploreParts {
    /// Returns a fresh memory and machine vector: a clone of the memory
    /// the object was built (and seeded) in once, and new machines on
    /// that one object. The explorer calls it once to start and again
    /// whenever a response leaves a machine's trail, so the call is
    /// kept cheap.
    pub setup: Box<dyn Fn() -> (Memory, Vec<Machine>)>,
    /// One descriptor per machine.
    pub ops: Vec<ExploreOp>,
    /// The checker's initial object value (the seed update, if any).
    pub initial: i64,
    /// The seed update's events, which every memory `setup` returns has
    /// already taken (its steps `0..seed_events.len()`); empty without
    /// a seed update. The canonical trace starts with them.
    pub seed_events: EventLog,
}

impl std::fmt::Debug for ExploreParts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExploreParts")
            .field("ops", &self.ops)
            .field("initial", &self.initial)
            .finish()
    }
}

/// Builds the exploration scope a spec describes.
///
/// Seed updates are for max registers only: the counter and snapshot
/// specs always start at zero.
pub fn explore_parts(spec: &ScenarioSpec) -> Result<ExploreParts, EngineError> {
    let entry = find(spec.family, &spec.impl_id)?;
    if !entry.has_sim() {
        // Surface the standard error shape.
        return Err(entry
            .build_sim(
                &mut Memory::new(),
                &BuildParams {
                    n: spec.n,
                    capacity: sim_capacity(spec),
                    root_fast_path: spec.root_fast_path,
                    accuracy_k: spec.accuracy_k(),
                },
            )
            .err()
            .map(EngineError::Build)
            .unwrap_or_else(|| EngineError::Unsupported("impl has no sim face".into())));
    }
    let espec = spec.explore.as_ref().ok_or_else(|| {
        EngineError::Unsupported("engine \"explore\" requires an explore section".into())
    })?;
    if espec.seed_update.is_some() && spec.family != Family::MaxReg {
        return Err(EngineError::Unsupported(
            "seed_update is only meaningful for max registers \
             (the counter and snapshot specs always start at zero)"
                .into(),
        ));
    }
    // Build the object and run the seed write once, eagerly, so bad
    // capacities error here rather than panicking inside the search.
    // Each setup clones that memory and makes its machines from the
    // shared object: every sim face keeps its state in `Memory` only
    // (its fields are cell ids and shapes).
    let (mut seeded, obj) = build_sim_object(spec)?;
    let mut seed_events = EventLog::new();
    if let (Some(seed_v), SimObject::MaxReg(reg)) = (espec.seed_update, &obj) {
        run_recorded(
            &mut seeded,
            &mut seed_events,
            ProcessId(0),
            &mut reg.write_max(ProcessId(0), seed_v),
        );
    }
    let scope = espec.ops.clone();
    let setup: Box<dyn Fn() -> (Memory, Vec<Machine>)> = Box::new(move || {
        let machines = scope
            .iter()
            .map(|op| {
                let pid = ProcessId(op.pid);
                match (&obj, op.kind) {
                    (SimObject::MaxReg(r), OpKind::Update) => r.write_max(pid, op.value),
                    (SimObject::MaxReg(r), OpKind::Read) => r.read_max(pid),
                    (SimObject::Counter(c), OpKind::Update) => c.increment(pid),
                    (SimObject::Counter(c), OpKind::Read) => c.read(pid),
                    (SimObject::Snapshot(s), OpKind::Update) => s.update(pid, op.value),
                    (SimObject::Snapshot(s), OpKind::Read) => s.scan(pid),
                }
            })
            .collect();
        (seeded.clone(), machines)
    });
    let ops = espec
        .ops
        .iter()
        .map(|op| ExploreOp {
            pid: ProcessId(op.pid),
            desc: match (spec.family, op.kind) {
                (Family::MaxReg, OpKind::Update) => OpDesc::WriteMax(op.value as i64),
                (Family::MaxReg, OpKind::Read) => OpDesc::ReadMax,
                (Family::Counter, OpKind::Update) => OpDesc::CounterIncrement,
                (Family::Counter, OpKind::Read) => OpDesc::CounterRead,
                (Family::Snapshot, OpKind::Update) => OpDesc::Update(op.value as i64),
                (Family::Snapshot, OpKind::Read) => OpDesc::Scan,
            },
            returns_value: op.kind == OpKind::Read,
        })
        .collect();
    Ok(ExploreParts {
        setup,
        ops,
        initial: espec.seed_update.map_or(0, |v| v as i64),
        seed_events,
    })
}

/// Runs `machine` solo on behalf of `pid` to its end, appending each of
/// its events to `log`.
fn run_recorded(mem: &mut Memory, log: &mut EventLog, pid: ProcessId, machine: &mut Machine) {
    while let Some(prim) = machine.enabled() {
        let ev = mem.apply(pid, prim);
        log.push(ev);
        machine.feed(ev.resp);
    }
}

/// Runs the scope's machines to completion sequentially (each op solo,
/// in declaration order) against a fresh setup, attributing every event:
/// the *canonical schedule* exported when an explore scenario asks for a
/// trace. The setup's seed update (if any) appears as the first op.
fn explore_canonical_trace(parts: &ExploreParts, spec: &ScenarioSpec) -> StepTrace {
    let (mut mem, machines) = (parts.setup)();
    let mut log = parts.seed_events.clone();
    let mut history = History::new();
    let seed_steps = log.len();
    if seed_steps > 0 {
        let v = spec
            .explore
            .as_ref()
            .and_then(|e| e.seed_update)
            .unwrap_or(0);
        history.push(OpRecord {
            pid: ProcessId(0),
            desc: OpDesc::WriteMax(v as i64),
            invoke: 0,
            response: Some(seed_steps),
            output: Some(OpOutput::Unit),
            steps: seed_steps,
        });
    }
    for (mut machine, op) in machines.into_iter().zip(&parts.ops) {
        let invoke = log.len();
        run_recorded(&mut mem, &mut log, op.pid, &mut machine);
        let response = log.len().max(invoke + 1);
        history.push(OpRecord {
            pid: op.pid,
            desc: op.desc.clone(),
            invoke,
            response: Some(response),
            output: Some(if op.returns_value {
                machine.output().expect("machine completed")
            } else {
                OpOutput::Unit
            }),
            steps: machine.steps(),
        });
    }
    trace_execution(&log, &history)
}

/// Explores every schedule (and crash placement, per the budget) of the
/// scope, checking each history. `quick` is accepted for interface
/// symmetry but ignored: schedule counts are the verdict, so scaling
/// them down would change what the scenario asserts.
///
/// With a `trace` section, the `steps` block aggregates per-op step
/// counts over *every* explored schedule (the primitive breakdown comes
/// from the search's forward-execution tallies, so incremental replay
/// means `prims.steps()` can undercut the per-op sums); `jsonl`/`chrome`
/// exports carry the canonical sequential schedule of the scope.
pub fn run_explore(spec: &ScenarioSpec, quick: bool) -> Result<ScenarioReport, EngineError> {
    let engine_started = Instant::now();
    if spec.telemetry.is_some() {
        return Err(EngineError::Unsupported(
            "telemetry sampling ticks along seeds (sim) or batches (real); \
             the explorer enumerates schedules and has no sampling clock"
                .into(),
        ));
    }
    let parts = explore_parts(spec)?;
    let espec = spec.explore.as_ref().expect("explore_parts checked");
    let cfg = ExploreConfig {
        max_schedules: espec.max_schedules,
        prune: espec.prune,
        max_crashes: espec.max_crashes,
    };
    let ckind = resolve_checker(spec);
    let seq = seq_spec(spec, parts.initial);
    let k = spec.accuracy_k();
    let mut steps = wants_steps(spec).then(StepStats::new);
    let mut check = |h: &History| -> bool {
        if let Some(acc) = &mut steps {
            acc.record_history(h);
        }
        check_with(ckind, h, &seq, k).is_ok()
    };
    let start = Instant::now();
    let summary = explore(&*parts.setup, &parts.ops, &mut check, cfg);
    let seconds = start.elapsed().as_secs_f64();

    let mut report = ScenarioReport::new(spec, quick);
    report.checker = Some(ckind.name().into());
    if let Some(a) = &spec.accuracy {
        report.set("accuracy_k", a.k);
    }
    report.set("schedules", summary.schedules as u64);
    report.set("truncated", summary.truncated as u64);
    report.set("violation", summary.violation.is_some() as u64);
    report.set("pruned_branches", summary.stats.pruned_branches as u64);
    report.set("executed_steps", summary.stats.executed_steps);
    report.set("replay_steps_saved", summary.stats.replay_steps_saved);
    report.set("peak_depth", summary.stats.peak_depth as u64);
    report.set("crash_branches", summary.stats.crash_branches as u64);
    report.set_metric("seconds", seconds);
    if let Some(mut acc) = steps {
        acc.record_prims(&summary.stats.prims);
        report.steps = Some(acc);
    }
    if let Some(tspec) = &spec.trace {
        if wants_export(spec) {
            let trace = explore_canonical_trace(&parts, spec);
            export_trace(tspec, &trace, &mut report)?;
        }
    }
    report.ok = summary.violation.is_none() && !summary.truncated;
    if let Some(pids) = &summary.violation {
        report.note(format!(
            "violating schedule found (pids {:?}, crashed {:?})",
            pids, summary.violation_crashed
        ));
    }
    if summary.truncated {
        report.note(format!(
            "search truncated at {} schedules",
            summary.schedules
        ));
    }
    report.set_metric("duration_ms", engine_started.elapsed().as_secs_f64() * 1e3);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CrashAt, ExploreSpec, ScenarioOp};

    #[test]
    fn sim_engine_sweeps_cleanly_and_certifies() {
        let mut spec = ScenarioSpec::new("t", Family::MaxReg, "tree", EngineKind::Sim, 4);
        spec.seeds = 20;
        spec.mix = OpMix::Alternate;
        spec.certify = true;
        spec.faults = Some(FaultSpec::Random {
            crashes: 1,
            max_after: 40,
        });
        let r = run_sim(&spec, false).unwrap();
        assert!(r.ok, "notes: {:?}", r.notes);
        assert_eq!(r.checker.as_deref(), Some("interval"), "auto resolves");
        assert_eq!(r.counter("seeds"), Some(20));
        assert_eq!(r.counter("violations"), Some(0));
        assert_eq!(r.counter("cert_ok"), Some(1));
        assert!(r.counter("crashed_runs").unwrap() > 0);
    }

    #[test]
    fn sim_engine_handles_every_sim_face() {
        for entry in crate::registry::registry() {
            if !entry.has_sim() {
                continue;
            }
            let mut spec = ScenarioSpec::new("t", entry.family, entry.id, EngineKind::Sim, 3);
            spec.seeds = 5;
            spec.ops_per_process = 4;
            spec.step_budget = Some(500_000);
            spec.capacity = entry.caps.bounded_capacity.then_some(64);
            spec.value_bound = 50;
            let r = run_sim(&spec, false)
                .unwrap_or_else(|e| panic!("{}/{}: {e}", entry.family, entry.id));
            assert!(r.ok, "{}/{}: {:?}", entry.family, entry.id, r.notes);
        }
    }

    #[test]
    fn accuracy_k_runs_approx_faces_under_every_checker() {
        use crate::spec::AccuracySpec;
        for family in [Family::Counter, Family::MaxReg] {
            for checker in [CheckerKind::Interval, CheckerKind::Exact] {
                let mut spec = ScenarioSpec::new("t", family, "approx", EngineKind::Sim, 3);
                spec.seeds = 5;
                spec.ops_per_process = 4;
                spec.checker = checker;
                spec.accuracy = Some(AccuracySpec { k: 4 });
                let r = run_sim(&spec, false)
                    .unwrap_or_else(|e| panic!("{family}/{}: {e}", checker.name()));
                assert!(r.ok, "{family}/{}: {:?}", checker.name(), r.notes);
                assert_eq!(r.counter("accuracy_k"), Some(4));
                assert_eq!(r.counter("violations"), Some(0));
            }
        }
    }

    #[test]
    fn accuracy_k_is_rejected_on_exact_implementations() {
        use crate::spec::AccuracySpec;
        // k > 1 on an exact face would have the relaxed checkers
        // certify a guarantee the object never made.
        let mut spec = ScenarioSpec::new("t", Family::Counter, "farray", EngineKind::Sim, 2);
        spec.accuracy = Some(AccuracySpec { k: 2 });
        assert!(matches!(
            run_sim(&spec, false),
            Err(EngineError::Unsupported(_))
        ));
        // …and k = 1 on an exact face is just an explicit spelling of
        // the default.
        spec.accuracy = Some(AccuracySpec { k: 1 });
        spec.seeds = 2;
        let r = run_sim(&spec, false).unwrap();
        assert!(r.ok, "notes: {:?}", r.notes);
        assert_eq!(r.counter("accuracy_k"), Some(1));
    }

    #[test]
    fn explicit_crash_plans_leave_pending_work() {
        let mut spec = ScenarioSpec::new("t", Family::Counter, "farray", EngineKind::Sim, 3);
        spec.seeds = 10;
        spec.mix = OpMix::Alternate;
        spec.faults = Some(FaultSpec::Explicit {
            crashes: vec![CrashAt { pid: 1, after: 3 }],
        });
        let r = run_sim(&spec, false).unwrap();
        assert!(r.ok, "notes: {:?}", r.notes);
        assert_eq!(r.counter("crashed_runs"), Some(10));
    }

    #[test]
    fn explore_engine_checks_a_small_scope() {
        let mut spec = ScenarioSpec::new("t", Family::MaxReg, "tree", EngineKind::Explore, 2);
        spec.explore = Some(ExploreSpec {
            seed_update: Some(1),
            ops: vec![
                ScenarioOp {
                    pid: 0,
                    kind: OpKind::Update,
                    value: 2,
                },
                ScenarioOp {
                    pid: 1,
                    kind: OpKind::Read,
                    value: 0,
                },
            ],
            max_schedules: 100_000,
            prune: true,
            max_crashes: 1,
        });
        let r = run_explore(&spec, false).unwrap();
        assert!(r.ok, "notes: {:?}", r.notes);
        assert_eq!(r.checker.as_deref(), Some("interval"));
        assert!(r.counter("schedules").unwrap() > 1);
        assert!(r.counter("crash_branches").unwrap() > 0);
    }

    #[test]
    fn explore_engine_explores_snapshot_scopes() {
        for entry in crate::registry::family_impls(Family::Snapshot) {
            let mut spec =
                ScenarioSpec::new("t", Family::Snapshot, entry.id, EngineKind::Explore, 2);
            spec.capacity = entry.caps.bounded_capacity.then_some(2);
            let op = |pid, kind, value| ScenarioOp { pid, kind, value };
            spec.explore = Some(ExploreSpec {
                seed_update: None,
                ops: vec![op(0, OpKind::Update, 5), op(1, OpKind::Read, 0)],
                max_schedules: 10_000,
                prune: true,
                max_crashes: 1,
            });
            let r = run_explore(&spec, false).unwrap_or_else(|e| panic!("{}: {e}", entry.id));
            assert!(r.ok, "{}: {:?}", entry.id, r.notes);
            assert_eq!(r.counter("truncated"), Some(0), "{}", entry.id);
            assert!(r.counter("schedules").unwrap() > 1, "{}", entry.id);
            // A seed update is for max registers only.
            spec.explore.as_mut().unwrap().seed_update = Some(1);
            assert!(matches!(
                run_explore(&spec, false),
                Err(EngineError::Unsupported(_))
            ));
        }
    }

    /// Serializes tests that run the real engine with tracing: the
    /// counting layer is a process-wide switch, so two such tests
    /// interleaving would clip each other's tallies.
    fn counting_gate() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn tmp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir()
            .join(format!("ruo-trace-test-{}", std::process::id()))
            .join(name)
    }

    fn trace_to(jsonl: Option<&std::path::Path>, chrome: Option<&std::path::Path>) -> TraceSpec {
        TraceSpec {
            steps: true,
            jsonl: jsonl.map(|p| p.to_string_lossy().into_owned()),
            chrome: chrome.map(|p| p.to_string_lossy().into_owned()),
        }
    }

    #[test]
    fn sim_engine_reports_steps_and_exports_traces() {
        use ruo_metrics::Json;
        let jsonl = tmp_path("sim.jsonl");
        let chrome = tmp_path("sim.chrome.json");
        let mut spec = ScenarioSpec::new("t", Family::MaxReg, "tree", EngineKind::Sim, 3);
        spec.seeds = 3;
        spec.ops_per_process = 4;
        spec.trace = Some(trace_to(Some(&jsonl), Some(&chrome)));
        let r = run_sim(&spec, false).unwrap();
        assert!(r.ok, "notes: {:?}", r.notes);
        let steps = r.steps.as_ref().expect("steps block");
        assert!(steps.max_steps("read_max").unwrap() >= 1);
        assert!(steps.max_steps("write_max").unwrap() > 1);
        // Sim attribution is exact: the primitive breakdown partitions
        // exactly the steps the per-kind aggregates account for.
        let per_op_total: u64 = steps.per_op().iter().map(|(_, k)| k.total).sum();
        assert_eq!(steps.prims.steps(), per_op_total);
        // The JSONL stream declares its schema; the Chrome trace is
        // valid JSON in the trace_event object format.
        let head = std::fs::read_to_string(&jsonl).unwrap();
        assert!(head
            .lines()
            .next()
            .unwrap()
            .contains("\"schema\":\"ruo-trace-v1\""));
        let doc = Json::parse(&std::fs::read_to_string(&chrome).unwrap()).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert!(!events.is_empty());
        for ev in events {
            assert_eq!(ev.get("ph").and_then(Json::as_str), Some("X"));
            assert!(ev.get("ts").and_then(Json::as_u64).is_some());
            assert!(ev.get("dur").and_then(Json::as_u64).unwrap() >= 1);
            assert!(ev.get("tid").and_then(Json::as_u64).is_some());
        }
        std::fs::remove_dir_all(jsonl.parent().unwrap()).ok();
    }

    #[test]
    fn real_engine_reports_steps_through_the_counting_layer() {
        let _g = counting_gate();
        let mut spec = ScenarioSpec::new("t", Family::Counter, "farray", EngineKind::Real, 2);
        spec.real = Some(crate::spec::RealSpec {
            threads: 2,
            ops_per_thread: 100,
            samples: 1,
        });
        spec.trace = Some(TraceSpec::default());
        let r = run_real(&spec, false).unwrap();
        assert!(r.ok, "notes: {:?}", r.notes);
        let steps = r.steps.as_ref().expect("steps block");
        let ops: u64 = steps.per_op().iter().map(|(_, k)| k.ops).sum();
        assert_eq!(ops, 200, "every op of the instrumented batch counted");
        assert!(steps.max_steps("counter_increment").unwrap() >= 1);
        let per_op_total: u64 = steps.per_op().iter().map(|(_, k)| k.total).sum();
        assert_eq!(steps.prims.steps(), per_op_total);
        // Event-level export is a sim/explore capability.
        spec.trace = Some(TraceSpec {
            steps: true,
            jsonl: Some("unused.jsonl".into()),
            chrome: None,
        });
        assert!(matches!(
            run_real(&spec, false),
            Err(EngineError::Unsupported(_))
        ));
    }

    #[test]
    fn explore_engine_aggregates_steps_and_exports_canonical_trace() {
        use ruo_metrics::Json;
        let chrome = tmp_path("explore.chrome.json");
        let mut spec = ScenarioSpec::new("t", Family::MaxReg, "tree", EngineKind::Explore, 2);
        spec.explore = Some(ExploreSpec {
            seed_update: Some(1),
            ops: vec![
                ScenarioOp {
                    pid: 0,
                    kind: OpKind::Update,
                    value: 2,
                },
                ScenarioOp {
                    pid: 1,
                    kind: OpKind::Read,
                    value: 0,
                },
            ],
            max_schedules: 100_000,
            prune: true,
            max_crashes: 0,
        });
        spec.trace = Some(trace_to(None, Some(&chrome)));
        let r = run_explore(&spec, false).unwrap();
        assert!(r.ok, "notes: {:?}", r.notes);
        let steps = r.steps.as_ref().expect("steps block");
        // Aggregated over every explored schedule, not just one.
        let ops: u64 = steps.per_op().iter().map(|(_, k)| k.ops).sum();
        assert!(ops > 2, "aggregate spans schedules, got {ops} ops");
        assert!(steps.max_steps("write_max").is_some());
        assert!(steps.prims.steps() > 0);
        let doc = Json::parse(&std::fs::read_to_string(&chrome).unwrap()).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        // Canonical schedule: the seed write, then the two scope ops,
        // each run solo. One slice per op plus one per primitive.
        let (mut mem, obj) = build_sim_object(&spec).unwrap();
        let SimObject::MaxReg(reg) = &obj else {
            panic!("a max register scope");
        };
        let solo =
            |mem: &mut Memory, pid: usize, m: Machine| ruo_sim::run_solo(mem, ProcessId(pid), m).1;
        let seed = solo(&mut mem, 0, reg.write_max(ProcessId(0), 1));
        let write = solo(&mut mem, 0, reg.write_max(ProcessId(0), 2));
        let read = solo(&mut mem, 1, reg.read_max(ProcessId(1)));
        assert_eq!(events.len(), 3 + seed + write + read);
        // The seed op's slice comes first, then its primitives at ticks
        // 0..seed, then the scope's first op.
        let field = |i: usize, key: &str| events[i].get(key).cloned().unwrap();
        assert_eq!(field(0, "name"), Json::from("WriteMax(1)"));
        assert_eq!(field(0, "dur"), Json::from(seed));
        for (tick, i) in (1..=seed).enumerate() {
            assert_eq!(field(i, "cat"), Json::from("prim"), "slice {i}");
            assert_eq!(field(i, "tid"), Json::from(0u64), "slice {i}");
            assert_eq!(field(i, "ts"), Json::from(tick), "slice {i}");
        }
        assert_eq!(field(seed + 1, "name"), Json::from("WriteMax(2)"));
        std::fs::remove_dir_all(chrome.parent().unwrap()).ok();
    }

    #[test]
    fn every_engine_emits_the_same_steps_shape() {
        let _g = counting_gate();
        let mut sim = ScenarioSpec::new("t", Family::MaxReg, "tree", EngineKind::Sim, 2);
        sim.seeds = 2;
        sim.ops_per_process = 2;
        sim.trace = Some(TraceSpec::default());
        let mut real = ScenarioSpec::new("t", Family::MaxReg, "cas_cell", EngineKind::Real, 2);
        real.real = Some(crate::spec::RealSpec {
            threads: 2,
            ops_per_thread: 50,
            samples: 1,
        });
        real.trace = Some(TraceSpec::default());
        let mut explore = ScenarioSpec::new("t", Family::MaxReg, "tree", EngineKind::Explore, 2);
        explore.explore = Some(ExploreSpec {
            seed_update: None,
            ops: vec![
                ScenarioOp {
                    pid: 0,
                    kind: OpKind::Update,
                    value: 1,
                },
                ScenarioOp {
                    pid: 1,
                    kind: OpKind::Read,
                    value: 0,
                },
            ],
            max_schedules: 10_000,
            prune: true,
            max_crashes: 0,
        });
        explore.trace = Some(TraceSpec::default());
        for (spec, label) in [(sim, "sim"), (real, "real"), (explore, "explore")] {
            let r = run(&spec, false).unwrap_or_else(|e| panic!("{label}: {e}"));
            let steps = r
                .steps
                .as_ref()
                .unwrap_or_else(|| panic!("{label}: no steps"));
            assert!(!steps.is_empty(), "{label}: empty steps");
            assert!(
                steps.max_steps("write_max").is_some(),
                "{label}: write_max missing"
            );
            // One serialized shape for all three engines, parseable back.
            let parsed = crate::report::ScenarioReport::parse(&r.to_json())
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(parsed, r, "{label}: steps block must round-trip");
        }
    }

    #[test]
    fn sim_engine_samples_telemetry_along_the_seed_sweep() {
        let mut spec = ScenarioSpec::new("t", Family::Counter, "farray", EngineKind::Sim, 3);
        spec.seeds = 6;
        spec.ops_per_process = 4;
        spec.telemetry = Some(crate::spec::TelemetrySpec {
            capacity: 8,
            every: 2,
        });
        let r = run_sim(&spec, false).unwrap();
        assert!(r.ok, "notes: {:?}", r.notes);
        let t = r.telemetry.as_ref().expect("telemetry block");
        // Seeds 0, 2, 4 land on the every-2 cadence.
        assert_eq!(t.samples, 3);
        let ok_curve = t
            .curves
            .iter()
            .find(|(n, _)| n == "ok_runs")
            .map(|(_, c)| c.clone())
            .expect("ok_runs curve");
        assert_eq!(
            ok_curve.iter().map(|(tick, _)| *tick).collect::<Vec<_>>(),
            vec![0, 2, 4]
        );
        // The sweep passes, so the counter climbs one per seed.
        assert_eq!(
            ok_curve.iter().map(|(_, v)| *v).collect::<Vec<_>>(),
            vec![1, 3, 5]
        );
        assert!(t.curves.iter().any(|(n, _)| n == "largest_history"));
        assert!(r.metric("duration_ms").unwrap() >= 0.0);
        // The block round-trips through the report codec.
        let parsed = crate::report::ScenarioReport::parse(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn real_engine_samples_telemetry_per_timed_batch() {
        let mut spec = ScenarioSpec::new("t", Family::Counter, "farray", EngineKind::Real, 2);
        spec.real = Some(crate::spec::RealSpec {
            threads: 2,
            ops_per_thread: 50,
            samples: 4,
        });
        spec.telemetry = Some(crate::spec::TelemetrySpec {
            capacity: 2,
            every: 1,
        });
        let r = run_real(&spec, false).unwrap();
        assert!(r.ok, "notes: {:?}", r.notes);
        let t = r.telemetry.as_ref().expect("telemetry block");
        // Four timed batches sampled; the ring keeps the last two.
        assert_eq!(t.samples, 4);
        let batches = t
            .curves
            .iter()
            .find(|(n, _)| n == "batches")
            .map(|(_, c)| c.clone())
            .expect("batches curve");
        assert_eq!(batches, vec![(2, 3), (3, 4)]);
        let ops = t
            .curves
            .iter()
            .find(|(n, _)| n == "ops_done")
            .map(|(_, c)| c.clone())
            .expect("ops_done curve");
        assert_eq!(ops.last().unwrap().1, 400, "4 batches x 2 threads x 50");
        assert!(t.curves.iter().any(|(n, _)| n == "batch_best_ns"));
        assert!(r.metric("duration_ms").unwrap() > 0.0);
    }

    #[test]
    fn explore_engine_rejects_telemetry_and_reports_duration() {
        let mut spec = ScenarioSpec::new("t", Family::MaxReg, "tree", EngineKind::Explore, 2);
        spec.explore = Some(ExploreSpec {
            seed_update: None,
            ops: vec![
                ScenarioOp {
                    pid: 0,
                    kind: OpKind::Update,
                    value: 1,
                },
                ScenarioOp {
                    pid: 1,
                    kind: OpKind::Read,
                    value: 0,
                },
            ],
            max_schedules: 10_000,
            prune: true,
            max_crashes: 0,
        });
        spec.telemetry = Some(crate::spec::TelemetrySpec::default());
        assert!(matches!(
            run_explore(&spec, false),
            Err(EngineError::Unsupported(_))
        ));
        spec.telemetry = None;
        let r = run_explore(&spec, false).unwrap();
        assert!(r.ok, "notes: {:?}", r.notes);
        assert!(r.telemetry.is_none());
        assert!(r.metric("duration_ms").unwrap() >= 0.0);
    }

    #[test]
    fn every_engine_reports_wall_clock_duration() {
        let mut sim = ScenarioSpec::new("t", Family::Counter, "farray", EngineKind::Sim, 2);
        sim.seeds = 2;
        let r = run_sim(&sim, false).unwrap();
        assert!(r.metric("duration_ms").is_some(), "sim duration");
        let mut real = ScenarioSpec::new("t", Family::Counter, "farray", EngineKind::Real, 2);
        real.real = Some(crate::spec::RealSpec {
            threads: 2,
            ops_per_thread: 20,
            samples: 1,
        });
        let r = run_real(&real, false).unwrap();
        assert!(r.metric("duration_ms").is_some(), "real duration");
    }

    #[test]
    fn real_engine_reports_throughput_latency_and_certificate() {
        let mut spec = ScenarioSpec::new("t", Family::Counter, "farray", EngineKind::Real, 2);
        spec.real = Some(crate::spec::RealSpec {
            threads: 2,
            ops_per_thread: 200,
            samples: 1,
        });
        let r = run_real(&spec, false).unwrap();
        assert!(r.ok, "notes: {:?}", r.notes);
        assert_eq!(r.counter("total_ops"), Some(400));
        assert_eq!(r.counter("cert_completed"), Some(400));
        assert!(r.metric("mops_per_s").unwrap() > 0.0);
        assert!(r.counter("latency_peak_ns").unwrap() > 0);
    }
}
