//! Experiment W10 — swarm load generator for the serve layer.
//!
//! Stands up an in-process [`ruo_serve::Server`] over four registry
//! objects (exact + sharded counters, a tree max register, a
//! double-collect snapshot) and drives it through four measured
//! phases:
//!
//! 1. **clean** — paced multi-threaded clients, no faults: the latency
//!    baseline (p50/p99 from `ruo_metrics::Histogram`).
//! 2. **chaos** — same workload with every client socket wrapped in the
//!    stock [`NetFaultPlan::chaos`] profile (drops, half-closes,
//!    truncated frames, stalls): retries/backoff/dedup pay the tail.
//! 3. **overload burst** — a connection burst against one slow worker
//!    and a tiny queue walks the whole degradation ladder: exact →
//!    degraded reads → queue-age deadlines → shedding at the gate.
//! 4. **drain** — shutdown mid-burst; every acknowledged increment must
//!    be applied (`acked_lost == 0`).
//!
//! After every phase the server's per-object op log replays through
//! `check_interval` — the run *proves* its retry/chaos semantics, and
//! the CI smoke asserts zero audit violations. Results go to
//! `BENCH_serve.json` (schema `ruo-serve-v1`).
//!
//! CLI: `--quick` (CI smoke sizes), `--seed <n>`, `--out <path>`.

use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ruo_bench::doc::BenchDoc;
use ruo_metrics::{Histogram, HistogramSnapshot, Json};
use ruo_serve::{
    audit, Client, ClientConfig, NetFaultPlan, ObjectDef, ServeConfig, ServeSummary, Server,
};
use ruo_sim::{ProcessId, SplitMix64};

/// Log-spaced latency bucket boundaries, 1 µs … 2 s, in nanoseconds.
fn latency_boundaries() -> Vec<u64> {
    let mut b = Vec::new();
    let mut decade: u64 = 1_000;
    while decade <= 100_000_000 {
        for mult in [10, 15, 22, 33, 47, 68] {
            b.push(decade * mult / 10);
        }
        decade *= 10;
    }
    b.push(1_000_000_000);
    b.push(2_000_000_000);
    b
}

#[derive(Clone, Copy)]
struct Sizes {
    workers: usize,
    clients: usize,
    requests_per_client: u64,
    pace_gap_us: u64,
    burst_conns: usize,
    burst_hold_ms: u64,
    drain_clients: usize,
}

const FULL: Sizes = Sizes {
    workers: 4,
    clients: 8,
    requests_per_client: 300,
    pace_gap_us: 400,
    burst_conns: 24,
    burst_hold_ms: 40,
    drain_clients: 3,
};

const QUICK: Sizes = Sizes {
    workers: 2,
    clients: 4,
    requests_per_client: 60,
    pace_gap_us: 200,
    burst_conns: 12,
    burst_hold_ms: 25,
    drain_clients: 2,
};

fn objects() -> Vec<ObjectDef> {
    vec![
        ObjectDef::counter("hits", "farray"),
        ObjectDef::counter("hits_sharded", "sharded"),
        ObjectDef::maxreg("peak", "tree"),
        ObjectDef::snapshot("segments", "double_collect"),
    ]
}

struct PhaseResult {
    requests: u64,
    ok: u64,
    failed: u64,
    retries: u64,
    reconnects: u64,
    degraded: u64,
    acked_incrs: u64,
    seconds: f64,
    hist: HistogramSnapshot,
    summary: ServeSummary,
}

/// One paced client thread: a fixed request mix with open-loop-style
/// gaps between issues (the gap is paid regardless of how long the
/// previous request took to succeed, so retry storms show up as tail
/// latency, not reduced offered load).
fn client_loop(
    mut client: Client,
    pid: ProcessId,
    hist: &Histogram,
    sizes: Sizes,
    seed: u64,
) -> ruo_serve::ClientStats {
    let mut rng = SplitMix64::new(seed);
    let mut failed_reqs = 0u64;
    for i in 0..sizes.requests_per_client {
        let gap = sizes.pace_gap_us / 2 + rng.gen_below(sizes.pace_gap_us);
        thread::sleep(Duration::from_micros(gap));
        let t0 = Instant::now();
        let outcome = match rng.gen_below(100) {
            0..=39 => client.incr("hits", 1 + rng.gen_below(3)).map(|_| ()),
            40..=49 => client.incr("hits_sharded", 1).map(|_| ()),
            50..=64 => client.write_max("peak", rng.gen_below(1 << 20)).map(|_| ()),
            65..=84 => client.read("hits").map(|_| ()),
            85..=89 => client.read("peak").map(|_| ()),
            90..=94 => client.update("segments", i + 1).map(|_| ()),
            _ => client.scan("segments").map(|_| ()),
        };
        let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        hist.record(pid, ns);
        if outcome.is_err() {
            failed_reqs += 1;
        }
    }
    let _ = failed_reqs;
    client.stats()
}

fn run_phase(label: &str, sizes: Sizes, seed: u64, chaos: Option<NetFaultPlan>) -> PhaseResult {
    let server = Server::start(
        ServeConfig {
            workers: sizes.workers,
            ..ServeConfig::default()
        },
        &objects(),
    )
    .expect("server starts");
    let addr = server.addr();
    let hist = Arc::new(Histogram::new(sizes.clients, &latency_boundaries()));
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for c in 0..sizes.clients {
        let hist = Arc::clone(&hist);
        let chaos = chaos.clone();
        handles.push(thread::spawn(move || {
            let mut cfg = ClientConfig::new(addr);
            cfg.chaos = chaos;
            cfg.max_attempts = 10;
            let client = Client::new(cfg, c as u64 + 1);
            client_loop(
                client,
                ProcessId(c),
                &hist,
                sizes,
                seed ^ (c as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            )
        }));
    }
    let mut ok = 0;
    let mut failed = 0;
    let mut retries = 0;
    let mut reconnects = 0;
    let mut degraded = 0;
    let mut acked_incrs = 0;
    for h in handles {
        let stats = h.join().expect("client thread");
        ok += stats.ok;
        failed += stats.failed;
        retries += stats.retries;
        reconnects += stats.reconnects;
        degraded += stats.degraded;
        acked_incrs += stats.acked_incrs;
    }
    let seconds = t0.elapsed().as_secs_f64();
    let summary = server.shutdown();
    println!(
        "  {label:<6} {:>6} reqs  ok {ok:>6}  failed {failed:>4}  retries {retries:>5}  \
         degraded {degraded:>4}  {seconds:>6.2}s",
        sizes.clients as u64 * sizes.requests_per_client,
    );
    PhaseResult {
        requests: sizes.clients as u64 * sizes.requests_per_client,
        ok,
        failed,
        retries,
        reconnects,
        degraded,
        acked_incrs,
        seconds,
        hist: hist.snapshot(),
        summary,
    }
}

struct BurstResult {
    connections: usize,
    ok_exact: u64,
    ok_degraded: u64,
    err_overload: u64,
    err_deadline: u64,
    io_failed: u64,
    summary: ServeSummary,
}

/// Walks the degradation ladder: one deliberately slow worker, a
/// 4-deep queue, and a burst of short-lived connections each issuing
/// one `read hits` and then holding the socket open (occupying the
/// worker) for `burst_hold_ms`.
fn run_overload_burst(sizes: Sizes) -> BurstResult {
    let server = Server::start(
        ServeConfig {
            workers: 1,
            queue_cap: 4,
            degrade_depth: 2,
            deadline: Duration::from_millis(150),
            ..ServeConfig::default()
        },
        &objects(),
    )
    .expect("server starts");
    let addr = server.addr();
    // Preload the counter so degraded reads have something to miss.
    {
        let mut c = Client::new(ClientConfig::new(addr), 999);
        for _ in 0..10 {
            c.incr("hits", 10).expect("preload");
        }
    }
    let ok_exact = Arc::new(AtomicU64::new(0));
    let ok_degraded = Arc::new(AtomicU64::new(0));
    let err_overload = Arc::new(AtomicU64::new(0));
    let err_deadline = Arc::new(AtomicU64::new(0));
    let io_failed = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for _ in 0..sizes.burst_conns {
        let (a, b, c, d, e) = (
            Arc::clone(&ok_exact),
            Arc::clone(&ok_degraded),
            Arc::clone(&err_overload),
            Arc::clone(&err_deadline),
            Arc::clone(&io_failed),
        );
        let hold = Duration::from_millis(sizes.burst_hold_ms);
        handles.push(thread::spawn(move || {
            let run = || -> std::io::Result<String> {
                let mut stream = TcpStream::connect(addr)?;
                stream.set_read_timeout(Some(Duration::from_secs(3)))?;
                let mut reader = BufReader::new(stream.try_clone()?);
                stream.write_all(b"read hits\n")?;
                let mut line = String::new();
                loop {
                    match reader.read_line(&mut line) {
                        Ok(0) => {
                            return Err(std::io::Error::new(
                                std::io::ErrorKind::UnexpectedEof,
                                "closed",
                            ))
                        }
                        Ok(_) => break,
                        Err(err)
                            if matches!(
                                err.kind(),
                                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                            ) =>
                        {
                            continue
                        }
                        Err(err) => return Err(err),
                    }
                }
                thread::sleep(hold); // occupy the worker
                Ok(line.trim_end().to_string())
            };
            match run() {
                Ok(line) if line.starts_with("ok degraded") => b.fetch_add(1, Ordering::Relaxed),
                Ok(line) if line.starts_with("ok") => a.fetch_add(1, Ordering::Relaxed),
                Ok(line) if line.starts_with("err overload") => c.fetch_add(1, Ordering::Relaxed),
                Ok(line) if line.starts_with("err deadline") => d.fetch_add(1, Ordering::Relaxed),
                _ => e.fetch_add(1, Ordering::Relaxed),
            };
        }));
    }
    for h in handles {
        h.join().expect("burst thread");
    }
    let summary = server.shutdown();
    let result = BurstResult {
        connections: sizes.burst_conns,
        ok_exact: ok_exact.load(Ordering::Relaxed),
        ok_degraded: ok_degraded.load(Ordering::Relaxed),
        err_overload: err_overload.load(Ordering::Relaxed),
        err_deadline: err_deadline.load(Ordering::Relaxed),
        io_failed: io_failed.load(Ordering::Relaxed),
        summary,
    };
    println!(
        "  burst  {:>6} conns exact {} degraded {} overload {} deadline {} io {}",
        result.connections,
        result.ok_exact,
        result.ok_degraded,
        result.err_overload,
        result.err_deadline,
        result.io_failed
    );
    result
}

struct DrainResult {
    acked: u64,
    applied: u64,
    acked_lost: u64,
    summary: ServeSummary,
}

/// Kill-signal drain: increment clients run flat out, the server shuts
/// down under them, and no acknowledged increment may be lost.
fn run_drain(sizes: Sizes) -> DrainResult {
    let server = Server::start(
        ServeConfig {
            workers: sizes.workers,
            ..ServeConfig::default()
        },
        &objects(),
    )
    .expect("server starts");
    let addr = server.addr();
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for c in 0..sizes.drain_clients {
        let stop = Arc::clone(&stop);
        handles.push(thread::spawn(move || {
            let mut cfg = ClientConfig::new(addr);
            cfg.max_attempts = 2; // once the drain starts, give up fast
            let mut client = Client::new(cfg, 7000 + c as u64);
            while !stop.load(Ordering::Relaxed) {
                let _ = client.incr("hits", 1);
            }
            client.stats()
        }));
    }
    thread::sleep(Duration::from_millis(120));
    // The "kill signal": drain while clients are mid-request.
    let summary = server.shutdown();
    stop.store(true, Ordering::Relaxed);
    let mut acked = 0;
    for h in handles {
        acked += h.join().expect("drain client").acked_incrs;
    }
    let applied = summary.final_value("hits").unwrap_or(0);
    let result = DrainResult {
        acked,
        applied,
        acked_lost: acked.saturating_sub(applied),
        summary,
    };
    println!(
        "  drain  acked {}  applied {}  lost {}",
        result.acked, result.applied, result.acked_lost
    );
    result
}

fn quantile_us(hist: &HistogramSnapshot, q: f64) -> f64 {
    hist.quantile_upper_bound(q)
        .map(|ns| ns as f64 / 1_000.0)
        .unwrap_or(0.0)
}

fn health_json(summary: &ServeSummary) -> Json {
    Json::obj(
        summary
            .health
            .to_pairs()
            .into_iter()
            .map(|(k, v)| (k, Json::from(v))),
    )
}

fn phase_json(p: &PhaseResult) -> (Json, usize) {
    let report = p.summary.audit();
    let violations = report.violations();
    (
        Json::obj([
            ("requests", Json::from(p.requests)),
            ("ok", Json::from(p.ok)),
            ("failed", Json::from(p.failed)),
            ("retries", Json::from(p.retries)),
            ("reconnects", Json::from(p.reconnects)),
            ("degraded", Json::from(p.degraded)),
            ("acked_incrs", Json::from(p.acked_incrs)),
            ("seconds", Json::from(p.seconds)),
            ("p50_us", Json::from(quantile_us(&p.hist, 0.50))),
            ("p99_us", Json::from(quantile_us(&p.hist, 0.99))),
            ("audit_ops", Json::from(report.total_ops())),
            ("audit_violations", Json::from(violations)),
            ("health", health_json(&p.summary)),
        ]),
        violations,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut seed = 0xB10C5_u64;
    let mut out = "BENCH_serve.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--seed <u64>")
            }
            "--out" => out = it.next().expect("--out <path>").clone(),
            _ => {}
        }
    }
    let sizes = if quick { QUICK } else { FULL };
    println!(
        "W10 serve swarm: {} workers, {} clients x {} requests{}",
        sizes.workers,
        sizes.clients,
        sizes.requests_per_client,
        if quick { " (quick)" } else { "" }
    );

    let clean = run_phase("clean", sizes, seed, None);
    // The stock profile is tuned per-connection; paced clients reuse
    // connections until a fault kills one, so crank the per-connection
    // odds to keep the fault rate meaningful at swarm conn counts.
    let plan = NetFaultPlan::chaos(seed)
        .drop_per_mille(450)
        .truncate_per_mille(350)
        .stall_per_mille(350, 3_000);
    let chaos = run_phase("chaos", sizes, seed, Some(plan));
    let burst = run_overload_burst(sizes);
    let drain = run_drain(sizes);

    let (clean_json, clean_viol) = phase_json(&clean);
    let (chaos_json, chaos_viol) = phase_json(&chaos);
    let burst_report = burst.summary.audit();
    let drain_report = drain.summary.audit();
    let violations_total =
        clean_viol + chaos_viol + burst_report.violations() + drain_report.violations();

    for (label, report) in [
        ("clean", clean.summary.audit()),
        ("chaos", chaos.summary.audit()),
        ("burst", burst_report.clone()),
        ("drain", drain_report.clone()),
    ] {
        if !report.ok() {
            println!("AUDIT FAILURE in {label} phase:\n{report}");
        }
    }

    BenchDoc::new("ruo-serve-v1", quick)
        .field("experiment", "W10")
        .field("seed", seed)
        .field("workers", sizes.workers)
        .field("clients", sizes.clients)
        .field("requests_per_client", sizes.requests_per_client)
        .field("clean", clean_json)
        .field("chaos", chaos_json)
        .field(
            "overload",
            Json::obj([
                ("connections", Json::from(burst.connections)),
                ("ok_exact", Json::from(burst.ok_exact)),
                ("ok_degraded", Json::from(burst.ok_degraded)),
                ("err_overload", Json::from(burst.err_overload)),
                ("err_deadline", Json::from(burst.err_deadline)),
                ("io_failed", Json::from(burst.io_failed)),
                ("audit_violations", Json::from(burst_report.violations())),
                ("health", health_json(&burst.summary)),
            ]),
        )
        .field(
            "drain",
            Json::obj([
                ("acked", Json::from(drain.acked)),
                ("applied", Json::from(drain.applied)),
                ("acked_lost", Json::from(drain.acked_lost)),
                ("audit_violations", Json::from(drain_report.violations())),
            ]),
        )
        .field("violations_total", violations_total)
        .write(&out)
        .expect("write results JSON");
    println!("  wrote {out}");

    // The swarm is also a gate: chaos must not corrupt semantics.
    assert_eq!(violations_total, 0, "linearizability audit failed");
    assert_eq!(drain.acked_lost, 0, "drain lost acknowledged increments");
    for (label, phase) in [("clean", &clean), ("chaos", &chaos)] {
        assert!(
            quantile_us(&phase.hist, 0.99) > 0.0,
            "{label} phase recorded no latency"
        );
    }
    let _ = audit(&clean.summary.logs); // keep the re-export exercised
}
