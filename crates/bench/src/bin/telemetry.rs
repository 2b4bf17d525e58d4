//! Experiment W12 — what does observability cost?
//!
//! The paper's reading of a metrics plane: telemetry is the
//! read-dominated regime taken to its extreme, so the observers must
//! ride the cheap-read side of the tradeoff. This harness measures the
//! three observation paths added by the telemetry plane and writes
//! `BENCH_telemetry.json` (schema `ruo-telemetry-v1`):
//!
//! * **registry** — wall-clock cost of a full [`MetricsRegistry`]
//!   snapshot over every gauge family in `ruo-metrics` plus core-backed
//!   scalars (an `FArrayCounter`, a `TreeMaxRegister`, and a
//!   `ShardedCounter` behind [`ShardGauges`]). The core-backed scalars
//!   live in [`CountingMem`]-instrumented cells, so the harness also
//!   counts the shared-memory loads one snapshot performs — and gates
//!   on the paper's claim: the load count is *invariant* in how much
//!   data the gauges have recorded (reads are `O(1)` per scalar, with
//!   the sharded total's documented `O(stripes)` exception).
//! * **sampler** — cost of one [`SeriesSampler`] tick over that
//!   registry (a snapshot plus a ring push).
//! * **serve** — client-observed request latency of the TCP service
//!   with request spans off (twice, for a same-binary noise floor) and
//!   on (once). Structural gates are hard: spans-off summaries carry no
//!   spans, the spans-on summary carries one span per request and the
//!   shutdown audit stays clean. The wall-clock gate is generous (the
//!   CI box is one noisy core): spans-on median must stay within
//!   `3 × off + 50 µs` of the cheaper spans-off run.
//!
//! Side artifacts: the spans-on run's trace is exported next to the
//! JSON as `w12_spans.jsonl` and `w12_spans.chrome.json`.
//!
//! Any gate failure exits nonzero — the bench doubles as the CI
//! regression sentry's data source (see `bench_compare`).
//!
//! CLI: `--quick` (smaller sweeps — the CI target), `--out <path>`
//! (default `BENCH_telemetry.json`).

use std::sync::Arc;
use std::time::Instant;

use ruo_bench::doc::BenchDoc;
use ruo_core::counter::{FArrayCounter, ShardedCounter};
use ruo_core::maxreg::TreeMaxRegister;
use ruo_core::{Counter as _, MaxRegister as _};
use ruo_metrics::{
    CheckerGauges, HealthEvent, HealthGauges, Histogram, Json, LatencyTracker, LowWatermark,
    MetricDesc, MetricKind, MetricsRegistry, ProgressCertifier, ProgressGauge, SeriesSampler,
    ShardGauges, Watermark,
};
use ruo_serve::{Client, ClientConfig, ObjectDef, ServeConfig, ServeSummary, Server};
use ruo_sim::stepcount::CountingMem;
use ruo_sim::{ProcessId, SplitMix64};

/// Writer identities feeding the gauge families (and stripe count of
/// the sharded counter, so the documented `O(stripes)` total read is
/// visible in the load tally).
const WRITERS: usize = 8;

#[derive(Clone, Debug)]
struct Config {
    quick: bool,
    out: String,
}

impl Config {
    fn from_args() -> Self {
        let mut cfg = Config {
            quick: false,
            out: "BENCH_telemetry.json".to_string(),
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

// ---------------------------------------------------------------- registry

/// Every gauge family the scenario engines and the serve layer expose,
/// plus the core-backed scalars whose reads [`CountingMem`] can tally.
struct Families {
    health: Arc<HealthGauges>,
    checker: Arc<CheckerGauges>,
    certifier: Arc<ProgressCertifier>,
    progress: Arc<ProgressGauge>,
    peak: Arc<Watermark>,
    best: Arc<LowWatermark>,
    hist: Arc<Histogram>,
    latency: Arc<LatencyTracker>,
    sharded: Arc<ShardedCounter>,
    core_counter: Arc<FArrayCounter>,
    core_maxreg: Arc<TreeMaxRegister>,
}

fn build() -> (Families, Arc<MetricsRegistry>) {
    let fam = Families {
        health: Arc::new(HealthGauges::new(WRITERS)),
        checker: Arc::new(CheckerGauges::new(WRITERS)),
        certifier: Arc::new(ProgressCertifier::new(WRITERS, u64::MAX)),
        progress: Arc::new(ProgressGauge::new(WRITERS, u64::MAX)),
        peak: Arc::new(Watermark::new(WRITERS)),
        best: Arc::new(LowWatermark::new(WRITERS)),
        hist: Arc::new(Histogram::new(WRITERS, &[10, 100, 1_000])),
        latency: Arc::new(LatencyTracker::new(WRITERS, &[50, 500])),
        sharded: Arc::new(ShardedCounter::new(WRITERS)),
        core_counter: Arc::new(FArrayCounter::new(WRITERS)),
        core_maxreg: Arc::new(TreeMaxRegister::new(WRITERS)),
    };
    let mut reg = MetricsRegistry::new();
    fam.health.register_telemetry(&mut reg, "health_");
    fam.checker.register_telemetry(&mut reg, "checker_");
    fam.certifier.register_telemetry(&mut reg, "cert_");
    fam.progress.register_telemetry(&mut reg, "work_");
    fam.peak
        .register_into(&mut reg, "peak", "ns", "bench peak value");
    fam.best
        .register_into(&mut reg, "best", "ns", "bench best value");
    fam.hist
        .register_telemetry(&mut reg, "lat", "samples", "bench latency");
    fam.latency.register_telemetry(&mut reg, "rt_", "samples");
    ShardGauges::new(Arc::clone(&fam.sharded)).register_telemetry(&mut reg, "shard_");
    let c = Arc::clone(&fam.core_counter);
    reg.register(
        MetricDesc::new(
            "core_counter",
            MetricKind::Counter,
            "incrs",
            "f-array counter root (O(1) read)",
        ),
        move || c.read(),
    );
    let m = Arc::clone(&fam.core_maxreg);
    reg.register(
        MetricDesc::new(
            "core_maxreg",
            MetricKind::Watermark,
            "value",
            "tree max register root (O(1) read)",
        ),
        move || m.read_max(),
    );
    (fam, Arc::new(reg))
}

/// Pours `events` recording calls into every family, round-robin over
/// the writer identities — single-threaded; this is a data-volume dial,
/// not a contention experiment.
fn feed(fam: &Families, events: u64, rng: &mut SplitMix64) {
    for i in 0..events {
        let pid = ProcessId((i % WRITERS as u64) as usize);
        let v = 1 + rng.gen_below(5_000);
        match i % 5 {
            0 => {
                fam.health.bump(pid, HealthEvent::Served);
                fam.health.record_queue_depth(pid, v % 64);
            }
            1 => fam.checker.record(pid, v as usize, v.is_multiple_of(97)),
            2 => fam.certifier.record_completion(pid, v % 200),
            3 => {
                fam.peak.record(pid, v);
                fam.best.record(pid, v);
                fam.hist.record(pid, v % 2_000);
            }
            _ => {
                fam.latency.observe(pid, v % 1_000);
                fam.sharded.increment(pid);
                fam.core_counter.increment(pid);
                fam.core_maxreg.write_max(pid, v);
            }
        }
        fam.progress.complete(pid);
    }
}

/// Shared-memory loads performed by one full snapshot, as seen by the
/// [`CountingMem`] instrumentation (only the core-backed scalars live
/// in counting cells; the plain-atomic gauge families tally zero).
fn snapshot_loads(reg: &MetricsRegistry) -> u64 {
    CountingMem::enable();
    CountingMem::begin_op();
    let snap = reg.snapshot();
    let counts = CountingMem::take_op_counts();
    CountingMem::disable();
    std::hint::black_box(snap);
    assert_eq!(counts.steps(), counts.reads, "snapshots only load");
    counts.reads
}

/// Median of `reps` timings of `per_rep` iterations of `f`, in
/// nanoseconds per iteration.
fn time_ns(reps: usize, per_rep: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..per_rep {
                f();
            }
            start.elapsed().as_nanos() as f64 / per_rep as f64
        })
        .collect();
    median(&mut samples)
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn percentile(samples: &mut [f64], p: f64) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let at = ((samples.len() - 1) as f64 * p).round() as usize;
    samples[at]
}

struct RegistryResult {
    scalars: usize,
    snapshot_ns: f64,
    loads_per_snapshot: u64,
    loads_at_10x: u64,
    exposition_bytes: usize,
}

fn run_registry(cfg: &Config) -> RegistryResult {
    let (fam, reg) = build();
    let mut rng = SplitMix64::new(0x12_57ee1);
    let base_events: u64 = if cfg.quick { 1_000 } else { 10_000 };

    feed(&fam, base_events, &mut rng);
    let loads_1x = snapshot_loads(&reg);
    // Ten times the recorded data must not change what a snapshot
    // loads: reads are O(1) per scalar regardless of history volume.
    feed(&fam, base_events * 9, &mut rng);
    let loads_10x = snapshot_loads(&reg);

    let (reps, per_rep) = if cfg.quick { (5, 200) } else { (9, 2_000) };
    let snapshot_ns = time_ns(reps, per_rep, || {
        std::hint::black_box(reg.snapshot());
    });
    let exposition_bytes = reg.snapshot().to_text().len();

    RegistryResult {
        scalars: reg.len(),
        snapshot_ns,
        loads_per_snapshot: loads_1x,
        loads_at_10x: loads_10x,
        exposition_bytes,
    }
}

struct SamplerResult {
    capacity: usize,
    tick_ns: f64,
}

fn run_sampler(cfg: &Config) -> SamplerResult {
    let (fam, reg) = build();
    let mut rng = SplitMix64::new(0x5a3713);
    feed(&fam, if cfg.quick { 1_000 } else { 10_000 }, &mut rng);
    let capacity = 64;
    let mut sampler = SeriesSampler::new(Arc::clone(&reg), capacity);
    let (reps, per_rep) = if cfg.quick { (5, 200) } else { (9, 2_000) };
    let mut tick = 0u64;
    let tick_ns = time_ns(reps, per_rep, || {
        sampler.sample(tick);
        tick += 1;
    });
    assert_eq!(sampler.taken(), (reps * per_rep) as u64);
    SamplerResult { capacity, tick_ns }
}

// ------------------------------------------------------------------- serve

struct ServeRow {
    mode: &'static str,
    requests: u64,
    median_ns: f64,
    p99_ns: f64,
    spans: usize,
}

/// Drives one client against a fresh server and returns the
/// client-observed per-request latencies plus the shutdown summary.
fn run_serve(mode: &'static str, spans: bool, requests: u64) -> (ServeRow, ServeSummary) {
    let cfg = ServeConfig {
        workers: 2,
        spans,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg, &[ObjectDef::counter("hits", "farray")])
        .expect("serve bench server starts");
    let addr = server.addr();
    let mut client = Client::new(ClientConfig::new(addr), 12);
    let mut lat: Vec<f64> = Vec::with_capacity(requests as usize);
    for i in 0..requests {
        let start = Instant::now();
        // 80/20 read/increment: the metrics plane's regime.
        if i % 5 == 0 {
            client.incr("hits", 1).expect("incr acked");
        } else {
            client.read("hits").expect("read answered");
        }
        lat.push(start.elapsed().as_nanos() as f64);
    }
    drop(client);
    let summary = server.shutdown();
    assert!(
        summary.audit().ok(),
        "{mode}: shutdown audit failed:\n{}",
        summary.audit()
    );
    let row = ServeRow {
        mode,
        requests,
        median_ns: median(&mut lat),
        p99_ns: percentile(&mut lat, 0.99),
        spans: summary.spans.len(),
    };
    (row, summary)
}

// -------------------------------------------------------------------- main

fn write_json(
    cfg: &Config,
    registry: &RegistryResult,
    sampler: &SamplerResult,
    serve: &[ServeRow],
    noise_ratio: f64,
    overhead_ratio: f64,
    overhead_ok: bool,
) -> std::io::Result<()> {
    let serve: Vec<Json> = serve
        .iter()
        .map(|r| {
            Json::obj([
                ("mode", Json::from(r.mode)),
                ("requests", Json::from(r.requests)),
                ("median_ns", Json::from(r.median_ns)),
                ("p99_ns", Json::from(r.p99_ns)),
                ("spans", Json::from(r.spans)),
            ])
        })
        .collect();
    BenchDoc::new("ruo-telemetry-v1", cfg.quick)
        .field(
            "registry",
            Json::obj([
                ("scalars", Json::from(registry.scalars)),
                ("snapshot_ns", Json::from(registry.snapshot_ns)),
                (
                    "loads_per_snapshot",
                    Json::from(registry.loads_per_snapshot),
                ),
                ("loads_at_10x_data", Json::from(registry.loads_at_10x)),
                (
                    "loads_invariant",
                    Json::from(registry.loads_per_snapshot == registry.loads_at_10x),
                ),
                ("exposition_bytes", Json::from(registry.exposition_bytes)),
            ]),
        )
        .field(
            "sampler",
            Json::obj([
                ("capacity", Json::from(sampler.capacity)),
                ("tick_ns", Json::from(sampler.tick_ns)),
            ]),
        )
        .field("serve", serve)
        .field(
            "gates",
            Json::obj([
                ("noise_ratio", Json::from(noise_ratio)),
                ("overhead_ratio", Json::from(overhead_ratio)),
                ("overhead_ok", Json::from(overhead_ok)),
            ]),
        )
        .write(&cfg.out)
}

fn main() {
    let cfg = Config::from_args();
    println!("# W12 — observability overhead: registry, sampler, serve spans\n");

    // ---- registry snapshot cost -----------------------------------
    let registry = run_registry(&cfg);
    println!(
        "registry: {} scalars, snapshot {:.0} ns, {} counted loads \
         (at 10x data: {}), exposition {} B",
        registry.scalars,
        registry.snapshot_ns,
        registry.loads_per_snapshot,
        registry.loads_at_10x,
        registry.exposition_bytes
    );
    assert!(
        registry.loads_per_snapshot > 0,
        "core-backed scalars must be visible to the load tally"
    );
    assert_eq!(
        registry.loads_per_snapshot, registry.loads_at_10x,
        "snapshot loads grew with recorded data — reads are no longer O(1)"
    );
    // The counted loads come from: shard stripe gauges (1 each), the
    // shard total (O(stripes), documented), and the two O(1) core
    // roots. An average bound of 4 loads per countable scalar leaves
    // headroom for impl tweaks while still catching an accidental
    // O(history) read path.
    let countable = WRITERS + 1 + 2;
    assert!(
        registry.loads_per_snapshot <= 4 * countable as u64,
        "snapshot performs {} loads over {} countable scalars",
        registry.loads_per_snapshot,
        countable
    );

    // ---- sampler tick cost ----------------------------------------
    let sampler = run_sampler(&cfg);
    println!(
        "sampler:  capacity {}, tick {:.0} ns",
        sampler.capacity, sampler.tick_ns
    );

    // ---- serve spans on vs off ------------------------------------
    let requests: u64 = if cfg.quick { 400 } else { 2_000 };
    let (off_a, sum_a) = run_serve("spans_off_a", false, requests);
    let (off_b, sum_b) = run_serve("spans_off_b", false, requests);
    let (on, sum_on) = run_serve("spans_on", true, requests);
    assert!(
        sum_a.spans.is_empty() && sum_b.spans.is_empty(),
        "spans-off summaries must carry no spans"
    );
    assert!(
        sum_on.spans.len() >= requests as usize,
        "spans-on summary has {} spans for {} requests",
        sum_on.spans.len(),
        requests
    );

    let jsonl = sum_on.spans_to_jsonl();
    let chrome = sum_on.spans_to_chrome_trace();
    std::fs::write("w12_spans.jsonl", &jsonl).expect("write w12_spans.jsonl");
    std::fs::write("w12_spans.chrome.json", &chrome).expect("write w12_spans.chrome.json");

    let off_min = off_a.median_ns.min(off_b.median_ns);
    let off_max = off_a.median_ns.max(off_b.median_ns);
    let noise_ratio = off_max / off_min;
    let overhead_ratio = on.median_ns / off_min;
    // Generous on purpose: CI runs on one noisy core, and the off/off
    // noise floor routinely exceeds any real span cost. The structural
    // gates above are the sharp ones.
    let overhead_ok = on.median_ns <= off_min * 3.0 + 50_000.0;
    let serve = [off_a, off_b, on];
    for r in &serve {
        println!(
            "serve:    {:<12} median {:>9.0} ns  p99 {:>9.0} ns  spans {}",
            r.mode, r.median_ns, r.p99_ns, r.spans
        );
    }
    println!(
        "serve:    off/off noise x{noise_ratio:.2}, spans-on/off x{overhead_ratio:.2} \
         (gate: <= 3x + 50us)"
    );
    assert!(
        overhead_ok,
        "span overhead gate failed: on {:.0} ns vs off {:.0} ns",
        serve[2].median_ns, off_min
    );

    write_json(
        &cfg,
        &registry,
        &sampler,
        &serve,
        noise_ratio,
        overhead_ratio,
        overhead_ok,
    )
    .expect("write telemetry JSON");
    println!(
        "\nwrote registry/sampler/serve rows to {} (+ w12_spans.jsonl, w12_spans.chrome.json)",
        cfg.out
    );
}
