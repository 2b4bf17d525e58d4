//! Experiment W11 — what does k-multiplicative accuracy buy?
//!
//! The HKM approximate objects (ISSUE 9) trade read precision for
//! update cheapness: a k-accurate counter may skip the expensive
//! publication on most increments, and a k-accurate max register
//! collapses the value domain to ⌈log_k⌉ buckets behind one CAS cell.
//! This harness measures both sides of that trade and writes
//! `BENCH_approx.json` (schema `ruo-approx-v1`):
//!
//! * **steps** — simulator shared-memory step counts per operation for
//!   the approximate faces across `k ∈ {1, 2, 4, 16}` and process
//!   counts (contention in the sim is the process count), next to the
//!   exact structural twins (`counter/sharded`, `maxreg/cas_cell`).
//!   At `k = 1` the approximate faces must pay the exact price — the
//!   reduction is visible as matching step means.
//! * **throughput** — real-atomics contended throughput for the same
//!   faces across thread counts and read-heavy / write-heavy mixes,
//!   via [`ruo_scenario::run_real`] like the W4 harness.
//!
//! Every simulated history is checked (the interval checker at the
//! cell's accuracy factor); a violation exits nonzero — the bench
//! doubles as an envelope gate.
//!
//! CLI: `--quick` (smaller sweeps — the CI target), `--out <path>`
//! (default `BENCH_approx.json`).

use ruo_bench::doc::BenchDoc;
use ruo_metrics::Json;
use ruo_scenario::{
    registry, run_real, AccuracySpec, EngineKind, Family, ImplEntry, RealSpec, ScenarioSpec,
};
use ruo_scenario::{run_sim_seed, SimSeedRun};
use ruo_sim::{FaultPlan, OpDesc};

/// Operand bound for max-register writes (shared with the W4 harness
/// scale so rows are comparable).
const VALUE_BOUND: u64 = 1 << 12;

/// The accuracy factors swept on the approximate faces. `1` is the
/// exactness reduction; the exact twins implicitly run at `k = 1`.
const K_AXIS: [u64; 4] = [1, 2, 4, 16];

#[derive(Clone, Debug)]
struct Config {
    quick: bool,
    out: String,
}

impl Config {
    fn from_args() -> Self {
        let mut cfg = Config {
            quick: false,
            out: "BENCH_approx.json".to_string(),
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => cfg.quick = true,
                "--out" => {
                    cfg.out = args.next().expect("--out requires a path");
                }
                _ => {}
            }
        }
        cfg
    }
}

/// The registry entry for `family/id`, which must exist (the registry
/// completeness tests pin the approximate faces and their twins).
fn face(family: Family, id: &str) -> &'static ImplEntry {
    registry()
        .iter()
        .find(|e| e.family == family && e.id == id)
        .unwrap_or_else(|| panic!("registry has no {family}/{id} face"))
}

/// `(approximate face, exact structural twin)` per relaxable family.
fn family_faces(family: Family) -> (&'static ImplEntry, &'static ImplEntry) {
    match family {
        Family::Counter => (face(family, "approx"), face(family, "sharded")),
        Family::MaxReg => (face(family, "approx"), face(family, "cas_cell")),
        Family::Snapshot => panic!("snapshot has no approximate face"),
    }
}

/// One measured simulator cell.
struct StepRow {
    family: Family,
    impl_name: &'static str,
    k: u64,
    n: usize,
    updates: u64,
    reads: u64,
    update_steps: u64,
    read_steps: u64,
    max_op_steps: u64,
    runs: u64,
}

impl StepRow {
    fn mean_update_steps(&self) -> f64 {
        self.update_steps as f64 / self.updates.max(1) as f64
    }

    fn mean_read_steps(&self) -> f64 {
        self.read_steps as f64 / self.reads.max(1) as f64
    }

    fn id(&self) -> String {
        format!(
            "{}/{}/k{}/n{}",
            self.family.name(),
            self.impl_name,
            self.k,
            self.n
        )
    }
}

/// Builds the shared spec shape for one `(entry, k, n)` cell. The
/// accuracy section is attached only for relaxed runs, so exact twins
/// exercise the spec path scenarios without the section use.
fn cell_spec(entry: &'static ImplEntry, k: u64, n: usize, engine: EngineKind) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        format!("w11/{}/{}/k{k}/n{n}", entry.family.name(), entry.id),
        entry.family,
        entry.id,
        engine,
        n,
    );
    spec.read_pct = 50;
    spec.value_bound = VALUE_BOUND;
    if k > 1 {
        spec.accuracy = Some(AccuracySpec { k });
    }
    spec
}

fn is_update(desc: &OpDesc) -> bool {
    matches!(
        desc,
        OpDesc::CounterIncrement | OpDesc::WriteMax(_) | OpDesc::Update(_)
    )
}

/// Runs `seeds` crash-free simulated schedules of one cell and
/// aggregates per-operation step counts from the histories. Any
/// checker violation is fatal: the bench gates the k-envelope.
fn run_step_cell(
    entry: &'static ImplEntry,
    k: u64,
    n: usize,
    ops_per_process: usize,
    seeds: u64,
) -> StepRow {
    let mut spec = cell_spec(entry, k, n, EngineKind::Sim);
    spec.ops_per_process = ops_per_process;
    let mut row = StepRow {
        family: entry.family,
        impl_name: entry.id,
        k,
        n,
        updates: 0,
        reads: 0,
        update_steps: 0,
        read_steps: 0,
        max_op_steps: 0,
        runs: seeds,
    };
    for seed in 0..seeds {
        let run: SimSeedRun = run_sim_seed(&spec, seed, &FaultPlan::none())
            .unwrap_or_else(|e| panic!("step cell {}: {e}", row.id()));
        if let Some(v) = run.violation {
            eprintln!("ENVELOPE VIOLATION in {} seed {seed}: {v}", row.id());
            std::process::exit(1);
        }
        for op in run.outcome.history.completed() {
            let steps = op.steps as u64;
            row.max_op_steps = row.max_op_steps.max(steps);
            if is_update(&op.desc) {
                row.updates += 1;
                row.update_steps += steps;
            } else {
                row.reads += 1;
                row.read_steps += steps;
            }
        }
    }
    row
}

/// One measured real-atomics cell.
struct ThroughputRow {
    family: Family,
    impl_name: &'static str,
    k: u64,
    workload: &'static str,
    threads: usize,
    total_ops: u64,
    median_ns: f64,
}

impl ThroughputRow {
    fn ns_per_op(&self) -> f64 {
        self.median_ns / self.total_ops.max(1) as f64
    }

    fn mops(&self) -> f64 {
        self.total_ops as f64 / self.median_ns.max(1.0) * 1e3
    }

    fn id(&self) -> String {
        format!(
            "{}/{}/k{}/{}/t{}",
            self.family.name(),
            self.impl_name,
            self.k,
            self.workload,
            self.threads
        )
    }
}

/// Runs one real-atomics cell through the scenario engine.
fn run_throughput_cell(
    cfg: &Config,
    entry: &'static ImplEntry,
    k: u64,
    workload: &'static str,
    read_pct: u8,
    threads: usize,
    sink: &mut u64,
) -> ThroughputRow {
    let mut spec = cell_spec(entry, k, threads, EngineKind::Real);
    spec.read_pct = read_pct;
    spec.real = Some(RealSpec {
        threads,
        ops_per_thread: if cfg.quick { 2_000 } else { 20_000 },
        samples: if cfg.quick { 3 } else { 5 },
    });
    let mut row = ThroughputRow {
        family: entry.family,
        impl_name: entry.id,
        k,
        workload,
        threads,
        total_ops: 0,
        median_ns: 0.0,
    };
    let report =
        run_real(&spec, cfg.quick).unwrap_or_else(|e| panic!("throughput {}: {e}", row.id()));
    *sink ^= report.counter("sink").unwrap_or(0);
    row.total_ops = report.counter("total_ops").unwrap_or(0);
    row.median_ns = report.metric("median_ns").unwrap_or(0.0);
    row
}

fn write_json(
    cfg: &Config,
    steps: &[StepRow],
    throughput: &[ThroughputRow],
) -> std::io::Result<()> {
    let steps: Vec<Json> = steps
        .iter()
        .map(|r| {
            Json::obj([
                ("family", Json::from(r.family.name())),
                ("impl", Json::from(r.impl_name)),
                ("k", Json::from(r.k)),
                ("n", Json::from(r.n)),
                ("runs", Json::from(r.runs)),
                ("updates", Json::from(r.updates)),
                ("reads", Json::from(r.reads)),
                ("mean_update_steps", Json::from(r.mean_update_steps())),
                ("mean_read_steps", Json::from(r.mean_read_steps())),
                ("max_op_steps", Json::from(r.max_op_steps)),
            ])
        })
        .collect();
    let throughput: Vec<Json> = throughput
        .iter()
        .map(|r| {
            Json::obj([
                ("family", Json::from(r.family.name())),
                ("impl", Json::from(r.impl_name)),
                ("k", Json::from(r.k)),
                ("workload", Json::from(r.workload)),
                ("threads", Json::from(r.threads)),
                ("total_ops", Json::from(r.total_ops)),
                ("median_ns", Json::from(r.median_ns)),
                ("ns_per_op", Json::from(r.ns_per_op())),
                ("mops_per_s", Json::from(r.mops())),
            ])
        })
        .collect();
    BenchDoc::new("ruo-approx-v1", cfg.quick)
        .field("steps", steps)
        .field("throughput", throughput)
        .write(&cfg.out)
}

/// The headline trade as a gate: every operation costs at least one
/// step, and at each process count relaxing the counter from `k = 1`
/// to the largest swept `k` strictly cheapens the mean update.
fn trade_failures(steps: &[StepRow]) -> Vec<String> {
    let mut failures: Vec<String> = steps
        .iter()
        .filter(|r| r.max_op_steps == 0)
        .map(|r| format!("{}: no operation took a step", r.id()))
        .collect();
    let k_max = K_AXIS[K_AXIS.len() - 1];
    let mean_update = |k: u64, n: usize| {
        steps
            .iter()
            .find(|r| {
                r.family == Family::Counter && r.impl_name == "approx" && r.k == k && r.n == n
            })
            .map(StepRow::mean_update_steps)
    };
    let ns: std::collections::BTreeSet<usize> = steps.iter().map(|r| r.n).collect();
    for n in ns {
        if let (Some(exact), Some(relaxed)) = (mean_update(1, n), mean_update(k_max, n)) {
            if relaxed >= exact {
                failures.push(format!(
                    "counter/approx n={n}: mean update steps {relaxed:.3} at k={k_max} \
                     is not below {exact:.3} at k=1"
                ));
            }
        }
    }
    failures
}

fn main() {
    let cfg = Config::from_args();
    println!("# W11 — exact vs k-approximate step counts and throughput\n");

    // ---- simulator step counts ------------------------------------
    let n_axis: &[usize] = if cfg.quick { &[2, 8] } else { &[2, 8, 32] };
    let (ops_per_process, seeds) = if cfg.quick { (20, 2) } else { (40, 5) };
    let mut steps: Vec<StepRow> = Vec::new();
    for family in [Family::Counter, Family::MaxReg] {
        let (approx, exact) = family_faces(family);
        for &n in n_axis {
            if exact.has_sim() {
                steps.push(run_step_cell(exact, 1, n, ops_per_process, seeds));
            }
            for k in K_AXIS {
                steps.push(run_step_cell(approx, k, n, ops_per_process, seeds));
            }
        }
    }
    println!("## simulator steps per operation (50/50 mix)\n");
    for r in &steps {
        println!(
            "{:<28} update {:>7.2}  read {:>7.2}  max {:>4}",
            r.id(),
            r.mean_update_steps(),
            r.mean_read_steps(),
            r.max_op_steps
        );
    }

    // ---- real-atomics throughput ----------------------------------
    let thread_axis: &[usize] = if cfg.quick { &[1, 4] } else { &[1, 2, 4] };
    let workloads: [(&str, u8); 2] = [("read_heavy", 90), ("write_heavy", 10)];
    let throughput_k: &[u64] = if cfg.quick { &[1, 16] } else { &[1, 4, 16] };
    let mut throughput: Vec<ThroughputRow> = Vec::new();
    let mut sink = 0u64;
    println!("\n## real-atomics contended throughput\n");
    for family in [Family::Counter, Family::MaxReg] {
        let (approx, exact) = family_faces(family);
        for &(workload, read_pct) in &workloads {
            for &threads in thread_axis {
                if exact.has_real() {
                    let row =
                        run_throughput_cell(&cfg, exact, 1, workload, read_pct, threads, &mut sink);
                    println!(
                        "{:<40} {:>10.1} ns/op {:>9.2} Mops/s",
                        row.id(),
                        row.ns_per_op(),
                        row.mops()
                    );
                    throughput.push(row);
                }
                for &k in throughput_k {
                    let row = run_throughput_cell(
                        &cfg, approx, k, workload, read_pct, threads, &mut sink,
                    );
                    println!(
                        "{:<40} {:>10.1} ns/op {:>9.2} Mops/s",
                        row.id(),
                        row.ns_per_op(),
                        row.mops()
                    );
                    throughput.push(row);
                }
            }
        }
    }

    write_json(&cfg, &steps, &throughput).expect("write approx JSON");
    eprintln!("# sink {sink}");
    println!(
        "\nwrote {} step rows and {} throughput rows to {}",
        steps.len(),
        throughput.len(),
        cfg.out
    );
    let failures = trade_failures(&steps);
    if !failures.is_empty() {
        eprintln!("\nACCURACY TRADE VIOLATIONS:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
}
