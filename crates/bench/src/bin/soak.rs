//! Soak test: deep randomized linearizability verification across every
//! simulated implementation family. The test suite runs dozens of seeds
//! per implementation; this binary runs *thousands* (tunable), printing
//! a verdict table — the long-haul version of experiment T5 — and, since
//! W6, re-runs every family under randomized **crash injection** (one
//! crashed process per schedule, pending operations checked under the
//! completion rule) plus a progress-certification verdict for the
//! wait-free families.
//!
//! Since the scenario-engine refactor the binary is a thin layer: it
//! iterates the registry's simulator faces, builds one [`ScenarioSpec`]
//! per (implementation, fault plan) row, and lets
//! [`ruo_scenario::run_sim`] drive the executor, checkers and progress
//! certifier. The workload shapes (the `Alternate` mix) and verdicts
//! are unchanged from the hand-rolled harness.
//!
//! Run with `cargo run --release -p ruo-bench --bin soak [seeds]`
//! (default 2000 seeds per implementation), or `soak --quick` for the
//! CI-sized run. Exits non-zero if any `violations` cell is non-zero,
//! so CI can gate on it directly. Standard output is deterministic: the
//! default run is checked in as `docs/results/soak.txt`, and the engine
//! wall clock goes to standard error.

use ruo_bench::Table;
use ruo_metrics::CheckerGauges;
use ruo_scenario::{
    registry, run_sim, EngineKind, Family, FaultSpec, ImplEntry, OpMix, ScenarioSpec,
};
use ruo_sim::ProcessId;

/// The spec for one soak row: the legacy workload shape for `entry`'s
/// family, with or without the 1-crash plan.
fn row_spec(entry: &ImplEntry, crashes: bool, seeds: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        format!("soak-{}-{}", entry.family.name(), entry.id),
        entry.family,
        entry.id,
        EngineKind::Sim,
        if entry.family == Family::Snapshot {
            3
        } else {
            4
        },
    );
    spec.seed = 0;
    spec.seeds = seeds;
    spec.mix = OpMix::Alternate;
    match entry.family {
        Family::MaxReg => {
            spec.ops_per_process = 8;
            spec.value_bound = 1000;
            // The historical AAC soak capacity.
            spec.capacity = entry.caps.bounded_capacity.then_some(1 << 10);
        }
        Family::Counter => {
            spec.ops_per_process = 8;
            // SimSnapshotCounter reads are obstruction-free: budget
            // generously.
            spec.step_budget = Some(500_000);
            // The historical AAC counter increment budget.
            spec.capacity = entry.caps.bounded_capacity.then_some(64);
        }
        Family::Snapshot => {
            spec.ops_per_process = 4;
            spec.step_budget = Some(500_000);
        }
    }
    if crashes {
        spec.faults = Some(FaultSpec::Random {
            crashes: 1,
            max_after: 40,
        });
        // The watchdog certifies Algorithm A's step bound across the
        // whole crash-injected sweep (its machines are wait-free; the
        // other families include retry loops whose bounds are
        // schedule-dependent).
        spec.certify = entry.family == Family::MaxReg && entry.id == "tree";
    }
    spec
}

fn main() {
    let mut seeds: u64 = 2000;
    for arg in std::env::args().skip(1) {
        if arg == "--quick" {
            seeds = 100;
        } else if let Ok(v) = arg.parse() {
            seeds = v;
        } else {
            eprintln!("usage: soak [--quick] [seeds]");
            std::process::exit(2);
        }
    }
    println!(
        "# Soak — {seeds} random adversarial schedules per implementation, \
         crash-free and 1-crash-injected\n"
    );

    let mut t = Table::new(&["implementation", "faults", "checker", "ok", "violations"]);
    let mut total_violations: u64 = 0;
    let mut total_ms: f64 = 0.0;
    let mut sweeps: u64 = 0;
    let mut watchdog_line: Option<String> = None;
    // One recorder identity per soak process: the whole binary folds its
    // verdicts into a single gauge set, read in O(1) for the footer.
    let gauges = CheckerGauges::new(1);

    for family in Family::all() {
        for entry in registry()
            .iter()
            .filter(|e| e.family == family && e.has_sim())
        {
            for crashes in [false, true] {
                let spec = row_spec(entry, crashes, seeds);
                let report = run_sim(&spec, false)
                    .unwrap_or_else(|e| panic!("soak {}/{}: {e}", family.name(), entry.id));
                let ok = report.counter("ok_runs").unwrap_or(0);
                total_violations += seeds - ok;
                total_ms += report.metric("duration_ms").unwrap_or(0.0);
                sweeps += 1;
                gauges.record_sweep(
                    ProcessId(0),
                    report.counter("seeds").unwrap_or(0),
                    report.counter("checked_ops").unwrap_or(0),
                    seeds - ok,
                    report.counter("largest_history").unwrap_or(0),
                );
                t.row(vec![
                    format!("{}: {}", family.name(), entry.display),
                    if crashes { "1 crash" } else { "none" }.to_string(),
                    report.checker.clone().unwrap_or_else(|| "-".to_string()),
                    format!("{ok}/{seeds}"),
                    (seeds - ok).to_string(),
                ]);
                if spec.certify {
                    watchdog_line = Some(if report.counter("cert_ok") == Some(1) {
                        format!(
                            "\nProgress watchdog (Algorithm A, 1-crash sweep): certified — \
                             {} ops completed, worst {} steps (bound {}), {} crash-pending.",
                            report.counter("cert_completed").unwrap_or(0),
                            report.counter("cert_worst_steps").unwrap_or(0),
                            report.counter("cert_bound").unwrap_or(0),
                            report.counter("cert_crashed_pending").unwrap_or(0),
                        )
                    } else {
                        total_violations += 1;
                        let detail = report
                            .notes
                            .iter()
                            .find(|n| n.contains("certification"))
                            .cloned()
                            .unwrap_or_default();
                        format!(
                            "\nProgress watchdog (Algorithm A, 1-crash sweep): FAILED — {detail}"
                        )
                    });
                }
            }
        }
    }

    t.print();
    if let Some(line) = watchdog_line {
        println!("{line}");
    }
    println!(
        "\nChecker coverage: {} histories / {} operations decided, \
         {} violations, largest single history {} ops.",
        gauges.histories(),
        gauges.operations(),
        gauges.violations(),
        gauges.largest_history(),
    );
    // On stderr: stdout is a deterministic table, diffed byte for byte
    // against docs/results/soak.txt.
    eprintln!(
        "Engine wall clock: {total_ms:.0} ms across {sweeps} sweeps \
         (per-sweep duration_ms is in each report)."
    );

    println!("\nEvery `violations` cell must be 0.");
    if total_violations > 0 {
        eprintln!("soak: {total_violations} violation(s) detected");
        std::process::exit(1);
    }
}
