//! The `serve` workload: closed-loop clients against an in-process
//! server.
//!
//! Each round starts a fresh `Server` with 2 workers over the four
//! objects the swarm serves, connects 2 clients (one connection each,
//! one request in flight, so the load is closed loop at `nproc` = 2
//! connections), runs a seeded 50/50 mix of reads and updates, then
//! shuts the server down and audits its op logs. There is no chaos. A
//! request's latency is what the client observes around one
//! `Client` call: TCP, framing, worker handoff, the dedup window, the
//! object call and the op-log lock.

use std::hint::black_box;
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use ruo_metrics::HealthSnapshot;
use ruo_serve::{
    Client, ClientConfig, ClientStats, ObjectDef, Request, Response, ServeConfig, Server,
};

use crate::report::Report;
use crate::stats::{median, percentiles, window_rates, Percentiles};
use crate::trace::Tracer;
use crate::{ns, rng, rounds, Config};

const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Largest value written to `peak` or `segments`.
const VALUE_BOUND: u64 = 1 << 20;

struct Sizes {
    /// Mixed requests per client per round.
    requests: usize,
    /// Pings per client after the mix, on traced rounds.
    pings: usize,
    /// Completions per throughput window.
    window: usize,
    min_rounds: usize,
}

const FULL: Sizes = Sizes {
    requests: 4_000,
    pings: 400,
    window: 500,
    min_rounds: 3,
};

const TINY: Sizes = Sizes {
    requests: 60,
    pings: 10,
    window: 20,
    min_rounds: 1,
};

fn objects() -> Vec<ObjectDef> {
    vec![
        ObjectDef::counter("hits", "farray"),
        ObjectDef::counter("hits_sharded", "sharded"),
        ObjectDef::maxreg("peak", "tree"),
        ObjectDef::snapshot("segments", "double_collect"),
    ]
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verb {
    ReadCounter,
    ReadMaxreg,
    Scan,
    Incr,
    WriteMax,
    Update,
}

const VERBS: [Verb; 6] = [
    Verb::ReadCounter,
    Verb::ReadMaxreg,
    Verb::Scan,
    Verb::Incr,
    Verb::WriteMax,
    Verb::Update,
];

impl Verb {
    fn name(self) -> &'static str {
        match self {
            Verb::ReadCounter => "read_counter",
            Verb::ReadMaxreg => "read_maxreg",
            Verb::Scan => "scan",
            Verb::Incr => "incr",
            Verb::WriteMax => "write_max",
            Verb::Update => "update",
        }
    }

    fn is_read(self) -> bool {
        matches!(self, Verb::ReadCounter | Verb::ReadMaxreg | Verb::Scan)
    }
}

#[derive(Clone, Debug)]
struct Op {
    verb: Verb,
    obj: &'static str,
    v: u64,
}

/// One client's requests for one round: half reads (`read hits`,
/// `read peak`, `scan segments`), half updates (tokened `incr` on
/// either counter, `write_max`, `update`).
fn plan(seed: u64, round: usize, client: usize, requests: usize) -> Vec<Op> {
    let mut r = rng(seed, (round * CLIENTS + client) as u64);
    (0..requests)
        .map(|_| {
            let read = r.gen_below(2) == 0;
            match (read, r.gen_below(3)) {
                (true, 0) => (Verb::ReadCounter, "hits", 0),
                (true, 1) => (Verb::ReadMaxreg, "peak", 0),
                (true, _) => (Verb::Scan, "segments", 0),
                (false, 0) if r.gen_below(2) == 0 => (Verb::Incr, "hits", 1),
                (false, 0) => (Verb::Incr, "hits_sharded", 1),
                (false, 1) => (Verb::WriteMax, "peak", 1 + r.gen_below(VALUE_BOUND)),
                (false, _) => (Verb::Update, "segments", 1 + r.gen_below(VALUE_BOUND)),
            }
        })
        .map(|(verb, obj, v)| Op { verb, obj, v })
        .collect()
}

/// The wire request for `op`; `incr_seq` numbers the client's
/// increments the way `Client` numbers its idempotency tokens.
fn request(op: &Op, client: u64, incr_seq: u64) -> Request {
    let obj = op.obj.to_string();
    match op.verb {
        Verb::ReadCounter | Verb::ReadMaxreg => Request::Read { obj },
        Verb::Scan => Request::Scan { obj },
        Verb::Incr => Request::Incr {
            obj,
            k: op.v,
            token: Some(format!("c{client}:{incr_seq}")),
        },
        Verb::WriteMax => Request::WriteMax { obj, v: op.v },
        Verb::Update => Request::Update { obj, v: op.v },
    }
}

/// What one client thread saw in one round.
#[derive(Default)]
struct ClientRun {
    /// `(verb, latency ns)` per mixed request.
    lat: Vec<(Verb, u64)>,
    /// Completion times, ns since the round's start.
    done: Vec<u64>,
    ping_ns: Vec<u64>,
    /// Responses in request order (traced rounds only).
    responses: Vec<Response>,
    sent: u64,
    failed: u64,
    incr_hits: u64,
    incr_sharded: u64,
    max_written: u64,
    stats: ClientStats,
}

#[allow(clippy::too_many_arguments)]
fn client_run(
    tracer: &Tracer,
    on: bool,
    round_id: u64,
    addr: std::net::SocketAddr,
    client: u64,
    ops: &[Op],
    pings: usize,
    epoch: Instant,
    barrier: &Barrier,
) -> ClientRun {
    let mut cfg = ClientConfig::new(addr);
    // A clean workload must never retry: a multi-millisecond stall of a
    // shared host is not a lost request.
    cfg.attempt_timeout = Duration::from_secs(2);
    let mut c = Client::new(cfg, client);
    let mut out = ClientRun::default();
    out.sent += 1;
    if c.ping().is_err() {
        out.failed += 1;
    }
    barrier.wait();
    let mut buf = tracer.buf(client as u32, on);
    for (seq, op) in ops.iter().enumerate() {
        let t = Instant::now();
        let resp = match op.verb {
            Verb::ReadCounter | Verb::ReadMaxreg => c.read(op.obj).map(|r| Response::Value {
                v: r.value,
                degraded: r.degraded,
            }),
            Verb::Scan => c.scan(op.obj).map(|r| Response::Vector {
                vs: r.values,
                degraded: r.degraded,
            }),
            Verb::Incr => c.incr(op.obj, op.v).map(|()| Response::Ok),
            Verb::WriteMax => c.write_max(op.obj, op.v).map(|()| Response::Ok),
            Verb::Update => c.update(op.obj, op.v).map(|()| Response::Ok),
        };
        let end = Instant::now();
        out.sent += 1;
        out.lat.push((op.verb, ns(t, end)));
        out.done.push(ns(epoch, end));
        if buf.on() {
            let id = tracer.id();
            let req = Some((client, seq as u64));
            buf.record_as(id, "serve.request", "serve", round_id, t, end, req);
        }
        match resp {
            Ok(r) => {
                match (op.verb, op.obj) {
                    (Verb::Incr, "hits") => out.incr_hits += op.v,
                    (Verb::Incr, _) => out.incr_sharded += op.v,
                    (Verb::WriteMax, _) => out.max_written = out.max_written.max(op.v),
                    _ => {}
                }
                if on {
                    out.responses.push(r);
                }
            }
            Err(_) => out.failed += 1,
        }
    }
    for _ in 0..pings {
        let t = Instant::now();
        let ok = c.ping().is_ok();
        let end = Instant::now();
        out.sent += 1;
        out.failed += u64::from(!ok);
        out.ping_ns.push(ns(t, end));
        buf.record("serve.ping", "serve", round_id, t, end);
    }
    out.stats = c.stats();
    out
}

/// One round's figures; a run keeps these summaries, not the samples.
struct RoundOut {
    setup_s: f64,
    work_s: f64,
    /// Median of the round's window rates.
    rate: f64,
    read: Percentiles,
    update: Percentiles,
    /// Per verb, in [`VERBS`] order (recorded rounds only).
    verbs: Vec<Percentiles>,
    /// Median ping latency (recorded rounds only).
    ping_p50: Option<f64>,
    parse_ns: f64,
    encode_ns: f64,
    start_ms: f64,
    shutdown_ms: f64,
    audit_s: f64,
    audit_ops: f64,
    health: HealthSnapshot,
    retries: u64,
    reconnects: u64,
}

fn round(
    cfg: &Config,
    tracer: &Tracer,
    sizes: &Sizes,
    idx: usize,
    report: &mut Report,
) -> Option<RoundOut> {
    let plans: Vec<Vec<Op>> = (0..CLIENTS)
        .map(|c| plan(cfg.seed, idx, c, sizes.requests))
        .collect();
    let on = tracer.round_records();
    let pings = if on { sizes.pings } else { 0 };
    let round_id = tracer.id();
    let mut main = tracer.buf(0, on);
    let t0 = Instant::now();
    let server = match Server::start(
        ServeConfig {
            workers: WORKERS,
            ..ServeConfig::default()
        },
        &objects(),
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: server failed to start: {e}");
            report.gate("serve.server_starts", false, 1);
            return None;
        }
    };
    let started = Instant::now();
    main.record("serve.server.start", "serve", round_id, t0, started);
    let addr = server.addr();
    let barrier = Barrier::new(CLIENTS + 1);
    let (runs, ready) = thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(c, ops)| {
                let barrier = &barrier;
                s.spawn(move || {
                    client_run(
                        tracer,
                        on,
                        round_id,
                        addr,
                        c as u64 + 1,
                        ops,
                        pings,
                        t0,
                        barrier,
                    )
                })
            })
            .collect();
        barrier.wait();
        let ready = Instant::now();
        let runs: Vec<ClientRun> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (runs, ready)
    });
    main.record("serve.setup", "serve", round_id, t0, ready);
    let sd = Instant::now();
    let summary = server.shutdown();
    let sd_end = Instant::now();
    main.record("serve.server.shutdown", "serve", round_id, sd, sd_end);
    let audit = summary.audit();
    let audit_end = Instant::now();
    main.record("serve.audit", "serve", round_id, sd_end, audit_end);

    // Codec cost over this round's own lines.
    let (mut parse_ns, mut encode_ns) = (0.0, 0.0);
    if on {
        let lines: Vec<String> = plans
            .iter()
            .enumerate()
            .flat_map(|(c, ops)| {
                let mut incr = 0;
                ops.iter()
                    .map(move |op| {
                        incr += u64::from(op.verb == Verb::Incr);
                        request(op, c as u64 + 1, incr).encode()
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        let t = Instant::now();
        for l in &lines {
            black_box(Request::parse(black_box(l)).is_ok());
        }
        let te = Instant::now();
        main.record("serve.proto.parse", "serve", round_id, t, te);
        parse_ns = ns(t, te) as f64 / lines.len().max(1) as f64;
        let responses: Vec<&Response> = runs.iter().flat_map(|r| &r.responses).collect();
        let t = Instant::now();
        for r in &responses {
            black_box(black_box(*r).encode());
        }
        let te = Instant::now();
        main.record("serve.proto.encode", "serve", round_id, t, te);
        encode_ns = ns(t, te) as f64 / responses.len().max(1) as f64;
    }
    main.record_as(
        round_id,
        "serve.round",
        "bench",
        0,
        t0,
        Instant::now(),
        None,
    );

    // Gates.
    let sent: u64 = runs.iter().map(|r| r.sent).sum();
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    let h = summary.health;
    report.attempted += sent;
    report.gate("serve.no_failed_requests", failed == 0, failed);
    let violations = audit.violations() as u64;
    report.gate("serve.audit_clean", violations == 0, violations);
    report.gate("serve.served_equals_sent", h.served == sent, 1);
    report.gate(
        "serve.no_degraded_reads",
        h.degraded_reads == 0,
        h.degraded_reads,
    );
    report.gate("serve.no_dedup_hits", h.dedup_hits == 0, h.dedup_hits);
    let want = |f: fn(&ClientRun) -> u64| runs.iter().map(f).sum::<u64>();
    let finals_ok = summary.final_value("hits") == Some(want(|r| r.incr_hits))
        && summary.final_value("hits_sharded") == Some(want(|r| r.incr_sharded))
        && summary.final_value("peak") == runs.iter().map(|r| r.max_written).max();
    report.gate("serve.final_values_match", finals_ok, 1);

    let mut done: Vec<u64> = runs.iter().flat_map(|r| r.done.iter().copied()).collect();
    // The mix ends at the last mixed request; traced pings come after.
    let last_done = done.iter().copied().max().unwrap_or(0);
    let lat = |pick: &dyn Fn(Verb) -> bool| {
        let us: Vec<f64> = runs
            .iter()
            .flat_map(|r| &r.lat)
            .filter(|(v, _)| pick(*v))
            .map(|&(_, n)| n as f64 / 1e3)
            .collect();
        percentiles(&us)
    };
    let pings: Vec<f64> = runs
        .iter()
        .flat_map(|r| &r.ping_ns)
        .map(|&n| n as f64 / 1e3)
        .collect();
    Some(RoundOut {
        setup_s: (ready - t0).as_secs_f64(),
        work_s: last_done as f64 / 1e9 - (ready - t0).as_secs_f64(),
        rate: median(&window_rates(&mut done, sizes.window)),
        read: lat(&Verb::is_read),
        update: lat(&|v| !v.is_read()),
        verbs: if on {
            VERBS.iter().map(|&verb| lat(&|v| v == verb)).collect()
        } else {
            Vec::new()
        },
        ping_p50: on.then(|| percentiles(&pings).p50),
        parse_ns,
        encode_ns,
        start_ms: (started - t0).as_secs_f64() * 1e3,
        shutdown_ms: (sd_end - sd).as_secs_f64() * 1e3,
        audit_s: (audit_end - sd_end).as_secs_f64(),
        audit_ops: audit.total_ops() as f64,
        health: h,
        retries: runs.iter().map(|r| r.stats.retries).sum(),
        reconnects: runs.iter().map(|r| r.stats.reconnects).sum(),
    })
}

/// Runs the workload.
pub fn run(cfg: &Config, tracer: &Tracer) -> Report {
    let sizes = if cfg.tiny { &TINY } else { &FULL };
    let mut report = Report::default();
    let mut outs: Vec<RoundOut> = Vec::new();
    let peaks = rounds(cfg, tracer, sizes.min_rounds, |i| {
        if let Some(o) = round(cfg, tracer, sizes, i, &mut report) {
            outs.push(o);
        }
    });
    if outs.is_empty() {
        return report;
    }
    let med = |f: &dyn Fn(&RoundOut) -> f64| median(&outs.iter().map(f).collect::<Vec<_>>());
    report.e2e("setup_s", med(&|o| o.setup_s), "s");
    report.e2e("ops_per_s", med(&|o| o.rate), "ops/s");
    report.e2e("read_p50_us", med(&|o| o.read.p50), "us");
    report.e2e("read_p90_us", med(&|o| o.read.p90), "us");
    report.e2e("update_p50_us", med(&|o| o.update.p50), "us");
    report.e2e("update_p90_us", med(&|o| o.update.p90), "us");
    report.e2e("work_s", med(&|o| o.work_s), "s");
    report.e2e("peak_rss_mb", median(&peaks), "MB");

    // Per-layer figures come from the recorded rounds only.
    let traced: Vec<&RoundOut> = outs.iter().filter(|o| o.ping_p50.is_some()).collect();
    if traced.is_empty() {
        return report;
    }
    let tmed =
        |f: &dyn Fn(&RoundOut) -> f64| median(&traced.iter().map(|o| f(o)).collect::<Vec<_>>());
    let ping = tmed(&|o| o.ping_p50.unwrap_or_default());
    report.layer("serve.transport.ping_p50_us", ping, "us");
    report.layer(
        "serve.handle.read_p50_us",
        tmed(&|o| o.read.p50) - ping,
        "us",
    );
    report.layer(
        "serve.handle.update_p50_us",
        tmed(&|o| o.update.p50) - ping,
        "us",
    );
    for (i, verb) in VERBS.iter().enumerate() {
        let name = verb.name();
        report.layer(
            &format!("serve.verb.{name}.p50_us"),
            tmed(&|o| o.verbs[i].p50),
            "us",
        );
        report.layer(
            &format!("serve.verb.{name}.p99_us"),
            tmed(&|o| o.verbs[i].p99),
            "us",
        );
    }
    report.layer("serve.proto.parse_ns", tmed(&|o| o.parse_ns), "ns");
    report.layer("serve.proto.encode_ns", tmed(&|o| o.encode_ns), "ns");
    report.layer("serve.server.start_ms", tmed(&|o| o.start_ms), "ms");
    report.layer("serve.server.shutdown_ms", tmed(&|o| o.shutdown_ms), "ms");
    report.layer("serve.audit.check_s", tmed(&|o| o.audit_s), "s");
    report.layer("serve.audit.ops", tmed(&|o| o.audit_ops), "count");
    report.layer(
        "serve.audit.ops_per_s",
        tmed(&|o| o.audit_ops / o.audit_s),
        "ops/s",
    );
    let sum = |f: fn(&RoundOut) -> u64| traced.iter().map(|o| f(o)).sum::<u64>() as f64;
    let max = |f: fn(&RoundOut) -> u64| traced.iter().map(|o| f(o)).max().unwrap_or(0) as f64;
    report.layer("serve.health.served", sum(|o| o.health.served), "count");
    report.layer(
        "serve.health.dedup_hits",
        sum(|o| o.health.dedup_hits),
        "count",
    );
    report.layer(
        "serve.health.degraded_reads",
        sum(|o| o.health.degraded_reads),
        "count",
    );
    report.layer(
        "serve.health.io_errors",
        sum(|o| o.health.io_errors),
        "count",
    );
    report.layer(
        "serve.health.queue_depth_peak",
        max(|o| o.health.queue_depth_peak),
        "count",
    );
    report.layer(
        "serve.health.inflight_peak",
        max(|o| o.health.inflight_peak),
        "count",
    );
    report.layer("serve.client.retries", sum(|o| o.retries), "count");
    report.layer("serve.client.reconnects", sum(|o| o.reconnects), "count");
    report
}
