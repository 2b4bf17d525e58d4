//! Progress certification (W6): [`ProgressCertifier`] turns the paper's
//! progress claims into checkable verdicts.
//!
//! * Wait-free algorithms (Algorithm A, the f-array counter) certify
//!   their step bounds even while a [`FaultPlan`] crashes peers
//!   mid-operation — crash-pending work is expected, never starvation.
//! * Obstruction-free algorithms (the double-collect scan) *fail*
//!   certification under the adversarial schedules the paper says can
//!   starve them — the watchdog is the detector, not a formality.
//! * The same certifier works under genuine hardware concurrency,
//!   including a worker "killed" mid-workload.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use ruo::core::snapshot::sim::{SimDoubleCollectSnapshot, SimSnapshot};
use ruo::metrics::{ProgressCertifier, ProgressViolation};
use ruo::scenario::{
    measure_step_bound, run_sim, run_sim_seed, CrashAt, EngineKind, Family, FaultSpec, OpMix,
    ScenarioSpec, SchedulePolicy,
};
use ruo::sim::history::OpDesc;
use ruo::sim::{Executor, FaultPlan, Memory, OpSpec, ProcessId, RoundRobin, WorkloadBuilder};

/// Algorithm A's operations have schedule-independent step counts, so
/// one crash-free run yields the exact wait-free bound — which must then
/// hold across a sweep of random schedules with random crash plans, with
/// crashed peers' pending writes never counted as starvation. The whole
/// pipeline (bound measurement, sweep, certification) is the scenario
/// engine's `certify` knob.
#[test]
fn algorithm_a_certifies_its_step_bound_under_crashed_peers() {
    let mut spec = ScenarioSpec::new(
        "cert-tree-crash-sweep",
        Family::MaxReg,
        "tree",
        EngineKind::Sim,
        4,
    );
    spec.seed = 0;
    spec.seeds = 40;
    spec.ops_per_process = 2; // one write, one read per process
    spec.mix = OpMix::Alternate;
    spec.certify = true;
    spec.faults = Some(FaultSpec::Random {
        crashes: 1,
        max_after: 12,
    });
    let report = run_sim(&spec, false).unwrap();
    assert!(report.ok, "sweep failed: {:?}", report.notes);
    assert_eq!(report.counter("violations"), Some(0));
    assert_eq!(report.counter("cert_ok"), Some(1));
    let bound = measure_step_bound(&spec).unwrap();
    assert_eq!(report.counter("cert_bound"), Some(bound));
    assert_eq!(
        report.counter("cert_worst_steps"),
        Some(bound),
        "the bound is tight"
    );
    assert!(
        report.counter("cert_crashed_pending").unwrap() > 0,
        "the crash sweep must actually leave pending operations"
    );
    assert!(report.counter("cert_completed").unwrap() > 0);
}

/// Same certification for the f-array counter, with a hand-picked crash
/// mid-propagation instead of a random sweep — `run_sim_seed` runs the
/// single schedule, the test drives the certifier itself.
#[test]
fn farray_counter_certifies_with_a_peer_crashed_mid_propagation() {
    let n = 3;
    let mut spec = ScenarioSpec::new(
        "cert-farray-torn",
        Family::Counter,
        "farray",
        EngineKind::Sim,
        n,
    );
    spec.ops_per_process = 2;
    spec.mix = OpMix::Alternate;
    spec.schedule = SchedulePolicy::RoundRobin;
    // p1 crashes after 3 events: its leaf increment landed but the sum
    // propagation is torn mid-tree.
    spec.faults = Some(FaultSpec::Explicit {
        crashes: vec![CrashAt { pid: 1, after: 3 }],
    });
    let plan = FaultPlan::new().crash(ProcessId(1), 3);
    let run = run_sim_seed(&spec, 0, &plan).unwrap();
    assert!(
        run.violation.is_none(),
        "completion rule covers the torn increment: {:?}",
        run.violation
    );

    let cert = ProgressCertifier::new(n, 64);
    cert.record_outcome(&run.outcome);
    let report = cert.certify().expect("no starvation, bound generous");
    assert_eq!(report.crashed_pending, 1);
    assert_eq!(cert.starved(), 0, "a crashed process is not starvation");
}

/// The double-collect scan is only obstruction-free: a fair round-robin
/// schedule with a concurrent updater stream makes every second collect
/// differ from the first, so the scan livelocks until the step budget
/// runs out — and the certifier must call that starvation.
#[test]
fn starved_scans_fail_certification() {
    let n = 2;
    let mut mem = Memory::new();
    let snap = Arc::new(SimDoubleCollectSnapshot::new(&mut mem, n));
    let mut w = WorkloadBuilder::new(n);
    for i in 0..30u64 {
        let s = Arc::clone(&snap);
        w.op(
            ProcessId(0),
            OpSpec::update(OpDesc::Update((i + 1) as i64), move || {
                s.update(ProcessId(0), i + 1)
            }),
        );
    }
    let s = Arc::clone(&snap);
    w.op(
        ProcessId(1),
        OpSpec::value(OpDesc::Scan, move || s.scan(ProcessId(1))),
    );
    let outcome = Executor::with_step_budget(60).run(&mut mem, w, &mut RoundRobin::new());
    assert!(!outcome.all_done);
    assert!(outcome.crashed.is_empty());
    let scan = outcome
        .history
        .ops()
        .iter()
        .find(|op| op.desc == OpDesc::Scan)
        .expect("scan was invoked");
    assert!(!scan.is_complete(), "the scan must have livelocked");

    let cert = ProgressCertifier::new(n, 1_000);
    cert.record_outcome(&outcome);
    match cert.certify() {
        Err(ProgressViolation::Starvation { count }) => assert!(count >= 1),
        other => panic!("starved scan not flagged: {other:?}"),
    }
    assert_eq!(cert.crashed_pending(), 0);
}

/// A CAS-retry max register instrumented to count its attempts — the
/// thread-world analogue of step counts. Lock-free, not wait-free: the
/// certifier is given a generous bound that real contention never hits.
struct CountingCasMaxRegister {
    cell: AtomicI64,
}

impl CountingCasMaxRegister {
    fn new() -> Self {
        CountingCasMaxRegister {
            cell: AtomicI64::new(0),
        }
    }

    /// Returns the number of CAS attempts the write needed.
    fn write_max(&self, v: i64) -> u64 {
        let mut attempts = 1u64;
        let mut cur = self.cell.load(Ordering::SeqCst);
        while cur < v {
            match self
                .cell
                .compare_exchange(cur, v, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => break,
                Err(seen) => {
                    cur = seen;
                    attempts += 1;
                }
            }
        }
        attempts
    }

    fn read(&self) -> i64 {
        self.cell.load(Ordering::SeqCst)
    }
}

/// The certifier under genuine hardware concurrency: three workers drive
/// a shared register to completion while a fourth is "killed" mid-
/// workload (its in-flight operation recorded as crash-pending, its
/// remaining work never invoked). Counts must be exact and the killed
/// worker must not read as starvation.
#[test]
fn threads_certify_progress_with_a_killed_worker() {
    let n = 4;
    let per = 400i64;
    let killed = ProcessId(0);
    let reg = Arc::new(CountingCasMaxRegister::new());
    let cert = Arc::new(ProgressCertifier::new(n, 1_000_000));
    std::thread::scope(|s| {
        for t in 0..n {
            let reg = Arc::clone(&reg);
            let cert = Arc::clone(&cert);
            s.spawn(move || {
                for i in 0..per {
                    if ProcessId(t) == killed && i == per / 2 {
                        // The worker dies here: one op in flight, never
                        // finished; the rest of its workload never runs.
                        cert.record_crashed_pending(ProcessId(t));
                        return;
                    }
                    let attempts = reg.write_max(t as i64 * per + i + 1);
                    cert.record_completion(ProcessId(t), attempts);
                }
            });
        }
    });
    let report = cert.certify().expect("kill is not starvation");
    assert_eq!(
        report.completed,
        (n as i64 - 1) as u64 * per as u64 + (per / 2) as u64
    );
    assert_eq!(report.crashed_pending, 1);
    assert!(report.worst_steps >= 1);
    // The register ended at the true maximum: worker 0 was killed, so
    // the top writer (worker n-1) ran to completion and its last value
    // dominates everything the killed worker managed to write.
    assert_eq!(reg.read(), (n as i64 - 1) * per + per);
}
