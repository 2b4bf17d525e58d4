//! Experiment W4 — reproducible contended-throughput harness.
//!
//! Runs every benched real-atomics implementation of all three object
//! families under multi-threaded contended workloads and writes the
//! results as machine-readable JSON (`BENCH_throughput.json` when run
//! from the repository root), so before/after comparisons across
//! commits are a `diff` rather than a scrollback hunt.
//!
//! Since the scenario-engine refactor the binary is a thin layer: it
//! iterates the registry's benched real faces, builds one
//! [`ScenarioSpec`] per (implementation, workload, thread count) cell,
//! and lets [`ruo_scenario::run_real`] run the scoped-thread batches,
//! median timing, latency histogram and progress certificate.
//!
//! Workloads per family:
//!
//! * `read_heavy`  — 90% reads / scans
//! * `mixed`       — 50% reads
//! * `write_heavy` — 10% reads
//!
//! Writer value streams are uniform in `[0, VALUE_BOUND)`, so for max
//! registers the share of *dominated* writes (`v ≤ current max`) grows
//! over the run exactly as it does in watermark-style production use —
//! the regime the paper's Algorithm A targets.
//!
//! Thread counts: 1, 2, 4, and the machine's available parallelism if
//! larger. On few-core machines contention comes from preemption rather
//! than parallel cache-line traffic; both are real contention — but the
//! harness refuses to *label* a run "contended" when
//! `available_parallelism` is 1 (`"contended": false` in the JSON), so
//! single-core results are never mistaken for cache-line-traffic
//! numbers.
//!
//! # Experiment W8 — `--scaling`
//!
//! `--scaling` switches to the multicore scaling sweep: every benched
//! counter and max-register face × the three workloads × thread counts
//! 1..64 (powers of two), each point carrying p50/p99 latency and
//! ops/sec, written to `BENCH_scaling.json`
//! (schema `ruo-scaling-v1`). It compares the counter tradeoff's two
//! endpoints, `counter/farray` (`O(1)` reads) and `counter/sharded`
//! (`O(1)` increments), on `write_heavy` at the highest thread count.
//! The file also gets a `stripe_balance` section: a direct
//! `ShardedCounter` + `ShardGauges` demo with deliberately skewed
//! per-thread traffic, showing the per-stripe observability the boxed
//! registry face cannot expose.
//!
//! CLI: `--quick` (smoke run: fewer ops, samples and thread counts),
//! `--scaling` (experiment W8), `--out <path>` (default
//! `BENCH_throughput.json`, or `BENCH_scaling.json` with `--scaling`),
//! any positional argument = substring filter on the benchmark id.

use std::sync::Arc;

use ruo_bench::doc::{available_parallelism, BenchDoc};
use ruo_core::counter::ShardedCounter;
use ruo_core::Counter;
use ruo_metrics::{Json, ShardGauges};
use ruo_scenario::{registry, run_real, EngineKind, Family, RealSpec, ScenarioSpec};
use ruo_sim::ProcessId;

/// Operand bound for max-register writes; also the AAC capacity, kept
/// small enough that building the AAC switch arena stays negligible.
const VALUE_BOUND: u64 = 1 << 12;

#[derive(Clone, Debug)]
struct Config {
    quick: bool,
    scaling: bool,
    out: String,
    filters: Vec<String>,
}

impl Config {
    fn from_args() -> Self {
        let mut cfg = Config {
            quick: false,
            scaling: false,
            out: String::new(),
            filters: Vec::new(),
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => cfg.quick = true,
                "--scaling" => cfg.scaling = true,
                "--out" => {
                    cfg.out = args.next().expect("--out requires a path");
                }
                a if a.starts_with("--") => {}
                a => cfg.filters.push(a.to_string()),
            }
        }
        if cfg.out.is_empty() {
            cfg.out = if cfg.scaling {
                "BENCH_scaling.json".to_string()
            } else {
                "BENCH_throughput.json".to_string()
            };
        }
        cfg
    }

    fn matches(&self, id: &str) -> bool {
        self.filters.is_empty() || self.filters.iter().any(|f| id.contains(f))
    }
}

fn ops_per_thread(family: Family) -> u64 {
    match family {
        Family::MaxReg | Family::Counter => 20_000,
        // Scans are O(N)–O(N²); keep batches comparable in duration.
        Family::Snapshot => 2_000,
    }
}

/// `(workload name, read/scan percentage)`.
const WORKLOADS: [(&str, u8); 3] = [("read_heavy", 90), ("mixed", 50), ("write_heavy", 10)];

/// One measured configuration, as echoed into the JSON file. The
/// latency quantiles are filled only by the `--scaling` sweep.
struct Row {
    family: Family,
    impl_name: String,
    workload: &'static str,
    threads: usize,
    total_ops: u64,
    median_ns: f64,
    p50_ns: u64,
    p99_ns: u64,
}

impl Row {
    fn id(&self) -> String {
        format!(
            "{}/{}/{}/t{}",
            self.family.name(),
            self.impl_name,
            self.workload,
            self.threads
        )
    }

    fn ns_per_op(&self) -> f64 {
        self.median_ns / self.total_ops as f64
    }

    fn mops(&self) -> f64 {
        self.total_ops as f64 / self.median_ns * 1e3
    }

    /// The row as written to the bench document; the latency quantiles
    /// only in the scaling sweep.
    fn to_json(&self, quantiles: bool) -> Json {
        let mut fields = vec![
            ("family", Json::from(self.family.name())),
            ("impl", Json::from(self.impl_name.as_str())),
            ("workload", Json::from(self.workload)),
            ("threads", Json::from(self.threads)),
            ("total_ops", Json::from(self.total_ops)),
            ("median_ns", Json::from(self.median_ns)),
            ("ns_per_op", Json::from(self.ns_per_op())),
            ("mops_per_s", Json::from(self.mops())),
        ];
        if quantiles {
            fields.push(("latency_p50_ns", Json::from(self.p50_ns)));
            fields.push(("latency_p99_ns", Json::from(self.p99_ns)));
        }
        Json::obj(fields)
    }
}

fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 2, 4];
    if available_parallelism() > 4 {
        counts.push(available_parallelism());
    }
    counts
}

/// W8 sweep thread counts: powers of two up to 64 regardless of core
/// count — oversubscription is part of the curve (it is where blocking
/// front-ends pay for descheduled combiners). `--quick` keeps the
/// endpoints plus two interior points.
fn scaling_thread_counts(quick: bool) -> Vec<usize> {
    if quick {
        vec![1, 4, 16, 64]
    } else {
        vec![1, 2, 4, 8, 16, 32, 64]
    }
}

/// Runs one registry cell and fills a [`Row`], XOR-ing the engine's
/// anti-elision sink into `sink`.
fn run_cell(cfg: &Config, row: Row, read_pct: u8, ops: u64, samples: usize, sink: &mut u64) -> Row {
    let mut spec = ScenarioSpec::new(
        row.id(),
        row.family,
        // The registry id is interned; recover the &'static str.
        registry()
            .iter()
            .find(|e| e.family == row.family && e.id == row.impl_name)
            .expect("row built from a registry entry")
            .id,
        EngineKind::Real,
        row.threads,
    );
    spec.read_pct = read_pct;
    spec.value_bound = VALUE_BOUND;
    spec.real = Some(RealSpec {
        threads: row.threads,
        ops_per_thread: ops,
        samples,
    });
    let report =
        run_real(&spec, cfg.quick).unwrap_or_else(|e| panic!("throughput {}: {e}", row.id()));
    *sink ^= report.counter("sink").unwrap_or(0);
    Row {
        total_ops: report.counter("total_ops").unwrap_or(0),
        median_ns: report.metric("median_ns").unwrap_or(0.0),
        p50_ns: report.counter("latency_p50_ns").unwrap_or(0),
        p99_ns: report.counter("latency_p99_ns").unwrap_or(0),
        ..row
    }
}

/// Experiment W4: the classic per-family table at 1/2/4/par threads.
fn run_throughput(cfg: &Config) {
    let mut results: Vec<Row> = Vec::new();
    let mut sink = 0u64;

    // One scenario per (thread count, workload, benched registry entry);
    // the engine constructs a fresh object per batch so runs are
    // independent.
    for threads in thread_counts() {
        for &(workload, read_pct) in &WORKLOADS {
            for family in Family::all() {
                for entry in registry()
                    .iter()
                    .filter(|e| e.family == family && e.has_real() && e.caps.benched)
                {
                    let row = Row {
                        family,
                        impl_name: entry.id.to_string(),
                        workload,
                        threads,
                        total_ops: 0,
                        median_ns: 0.0,
                        p50_ns: 0,
                        p99_ns: 0,
                    };
                    if !cfg.matches(&row.id()) {
                        continue;
                    }
                    let row = run_cell(cfg, row, read_pct, ops_per_thread(family), 7, &mut sink);
                    println!(
                        "{:<44} {:>10.1} ns/op {:>9.2} Mops/s",
                        row.id(),
                        row.ns_per_op(),
                        row.mops()
                    );
                    results.push(row);
                }
            }
        }
    }

    BenchDoc::new("ruo-throughput-v1", cfg.quick)
        .field(
            "results",
            results.iter().map(|r| r.to_json(false)).collect::<Vec<_>>(),
        )
        .write(&cfg.out)
        .expect("write throughput JSON");
    eprintln!("# sink {sink}");
    println!("\nwrote {} results to {}", results.len(), cfg.out);
}

/// Per-thread ops for one W8 cell — smaller than W4's batches because
/// the sweep covers 7 thread counts up to 64-way oversubscription.
const SCALING_OPS_PER_THREAD: u64 = 5_000;
const SCALING_SAMPLES: usize = 5;

/// The `stripe_balance` demo measurements.
struct StripeBalance {
    threads: usize,
    increments: Vec<u64>,
    per_stripe: Vec<u64>,
    total: u64,
    imbalance: f64,
    hottest_stripe: usize,
    hottest_count: u64,
}

/// Drives a [`ShardedCounter`] directly (not through the boxed registry
/// face) with deliberately skewed per-thread traffic — thread `i` does
/// `base >> i` increments — and reads the distribution back through
/// [`ShardGauges`]. The registry engine cannot see stripes through
/// `Box<dyn Counter>`; this section is what the per-stripe gauges are
/// *for*.
fn stripe_balance(quick: bool) -> StripeBalance {
    let threads = 8usize;
    let base: u64 = if quick { 4_000 } else { 100_000 };
    let increments: Vec<u64> = (0..threads).map(|i| base >> i).collect();
    let counter = Arc::new(ShardedCounter::new(threads));
    let gauges = ShardGauges::new(Arc::clone(&counter));
    std::thread::scope(|s| {
        for (i, &per) in increments.iter().enumerate() {
            let counter = Arc::clone(&counter);
            s.spawn(move || {
                for _ in 0..per {
                    counter.increment(ProcessId(i));
                }
            });
        }
    });
    let (hot, hot_count) = gauges.hottest();
    StripeBalance {
        threads,
        increments,
        per_stripe: gauges.per_stripe(),
        total: gauges.total(),
        imbalance: gauges.imbalance(),
        hottest_stripe: hot.index(),
        hottest_count: hot_count,
    }
}

/// Experiment W8: scaling curves 1..64 threads for every benched
/// counter and max-register face.
fn run_scaling(cfg: &Config) {
    if available_parallelism() <= 1 {
        eprintln!(
            "# WARNING: available_parallelism is 1 — threads interleave by \
             preemption, not parallel cache-line traffic; results are \
             recorded with \"contended\": false"
        );
    }
    let threads_axis = scaling_thread_counts(cfg.quick);
    let mut results: Vec<Row> = Vec::new();
    let mut sink = 0u64;

    for family in [Family::Counter, Family::MaxReg] {
        for entry in registry()
            .iter()
            .filter(|e| e.family == family && e.has_real() && e.caps.benched)
        {
            for &(workload, read_pct) in &WORKLOADS {
                for &threads in &threads_axis {
                    let row = Row {
                        family,
                        impl_name: entry.id.to_string(),
                        workload,
                        threads,
                        total_ops: 0,
                        median_ns: 0.0,
                        p50_ns: 0,
                        p99_ns: 0,
                    };
                    if !cfg.matches(&row.id()) {
                        continue;
                    }
                    let row = run_cell(
                        cfg,
                        row,
                        read_pct,
                        SCALING_OPS_PER_THREAD,
                        SCALING_SAMPLES,
                        &mut sink,
                    );
                    println!(
                        "{:<44} {:>10.1} ns/op {:>9.2} Mops/s  p50 {:>7} ns  p99 {:>9} ns",
                        row.id(),
                        row.ns_per_op(),
                        row.mops(),
                        row.p50_ns,
                        row.p99_ns
                    );
                    results.push(row);
                }
            }
        }
    }

    let balance = stripe_balance(cfg.quick);
    println!(
        "stripe_balance: total {} imbalance {:.2} hottest stripe {} ({})",
        balance.total, balance.imbalance, balance.hottest_stripe, balance.hottest_count
    );
    BenchDoc::new("ruo-scaling-v1", cfg.quick)
        .field("thread_counts", threads_axis)
        .field(
            "results",
            results.iter().map(|r| r.to_json(true)).collect::<Vec<_>>(),
        )
        .field(
            "stripe_balance",
            Json::obj([
                ("threads", Json::from(balance.threads)),
                ("increments_per_thread", Json::from(balance.increments)),
                ("per_stripe", Json::from(balance.per_stripe)),
                ("total", Json::from(balance.total)),
                ("imbalance", Json::from(balance.imbalance)),
                ("hottest_stripe", Json::from(balance.hottest_stripe)),
                ("hottest_count", Json::from(balance.hottest_count)),
            ]),
        )
        .write(&cfg.out)
        .expect("write scaling JSON");
    eprintln!("# sink {sink}");
    println!("\nwrote {} results to {}", results.len(), cfg.out);
}

fn main() {
    let cfg = Config::from_args();
    if cfg.scaling {
        run_scaling(&cfg);
    } else {
        run_throughput(&cfg);
    }
}
