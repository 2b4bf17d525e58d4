//! Snapshot-monotonicity stress: a `TelemetrySnapshot` taken
//! mid-recording must never observe a counter or watermark below a
//! previously returned value, nor a low-watermark above one, across
//! every registered gauge family at once.
//!
//! Eight writer threads hammer one registry's worth of families while
//! a reader thread snapshots in a tight loop and checks every scalar
//! against the last snapshot according to its declared [`MetricKind`]
//! monotonicity. This is the registry-level restatement of the paper's
//! guarantee: reads are wait-free and linearizable per scalar, so the
//! per-scalar timeline can only move the way the kind says it does.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ruo_core::counter::ShardedCounter;
use ruo_core::Counter as _;
use ruo_metrics::{
    CheckerGauges, HealthEvent, HealthGauges, Histogram, LatencyTracker, LowWatermark,
    MetricsRegistry, ProgressCertifier, ProgressGauge, SeriesSampler, ShardGauges,
    TelemetrySnapshot, Watermark,
};
use ruo_sim::{ProcessId, SplitMix64};

const WRITERS: usize = 8;
const OPS_PER_WRITER: u64 = 3_000;

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
}

fn build() -> (Families, Arc<MetricsRegistry>) {
    let fam = Families {
        health: Arc::new(HealthGauges::new(WRITERS)),
        checker: Arc::new(CheckerGauges::new(WRITERS)),
        certifier: Arc::new(ProgressCertifier::new(WRITERS, u64::MAX)),
        progress: Arc::new(ProgressGauge::new(WRITERS, WRITERS as u64 * OPS_PER_WRITER)),
        peak: Arc::new(Watermark::new(WRITERS)),
        best: Arc::new(LowWatermark::new(WRITERS)),
        hist: Arc::new(Histogram::new(WRITERS, &[10, 100, 1_000])),
        latency: Arc::new(LatencyTracker::new(WRITERS, &[50, 500])),
        sharded: Arc::new(ShardedCounter::new(WRITERS)),
    };
    let mut reg = MetricsRegistry::new();
    fam.health.register_telemetry(&mut reg, "health_");
    fam.checker.register_telemetry(&mut reg, "checker_");
    fam.certifier.register_telemetry(&mut reg, "cert_");
    fam.progress.register_telemetry(&mut reg, "work_");
    fam.peak
        .register_into(&mut reg, "peak", "ns", "stress peak value");
    fam.best
        .register_into(&mut reg, "best", "ns", "stress best value");
    fam.hist
        .register_telemetry(&mut reg, "lat", "samples", "stress latency");
    fam.latency.register_telemetry(&mut reg, "rt_", "samples");
    ShardGauges::new(Arc::clone(&fam.sharded)).register_telemetry(&mut reg, "shard_");
    (fam, Arc::new(reg))
}

fn writer(fam: &Families, t: usize, rng: &mut SplitMix64) {
    let pid = ProcessId(t);
    for i in 0..OPS_PER_WRITER {
        let v = 1 + rng.gen_below(5_000);
        match i % 5 {
            0 => {
                fam.health.bump(pid, HealthEvent::Served);
                fam.health.record_queue_depth(pid, v % 64);
            }
            1 => fam.checker.record(pid, v as usize, v.is_multiple_of(7)),
            2 => fam.certifier.record_completion(pid, v % 200),
            3 => {
                fam.peak.record(pid, v);
                fam.best.record(pid, v);
                fam.hist.record(pid, v % 2_000);
            }
            _ => {
                fam.latency.observe(pid, v % 1_000);
                fam.sharded.increment(pid);
            }
        }
        fam.progress.complete(pid);
    }
}

/// Checks `next` against `prev` scalar by scalar, honoring each
/// descriptor's declared monotonicity. Gauges (`shard_stripes`,
/// `cert_bound`, `work_total`) are constants here, so equality also
/// holds for them — but only the kind contract is asserted.
fn assert_monotone(prev: &TelemetrySnapshot, next: &TelemetrySnapshot) {
    assert_eq!(prev.entries().len(), next.entries().len());
    for (p, n) in prev.entries().iter().zip(next.entries()) {
        assert_eq!(p.desc, n.desc, "snapshot entry order changed");
        if p.desc.kind.monotone_up() {
            assert!(
                n.value >= p.value,
                "{} regressed: {} -> {}",
                p.desc.name,
                p.value,
                n.value
            );
        } else if p.desc.kind.monotone_down() {
            assert!(
                n.value <= p.value,
                "{} rose: {} -> {}",
                p.desc.name,
                p.value,
                n.value
            );
        }
    }
}

#[test]
fn snapshots_never_observe_regressions_under_8_threads() {
    let (fam, reg) = build();
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        let reader = {
            let stop = Arc::clone(&stop);
            let reg = Arc::clone(&reg);
            s.spawn(move || {
                let mut prev = reg.snapshot();
                let mut rounds = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let next = reg.snapshot();
                    assert_monotone(&prev, &next);
                    prev = next;
                    rounds += 1;
                }
                rounds
            })
        };
        let mut writers = Vec::new();
        for t in 0..WRITERS {
            let famref = &fam;
            let mut rng = SplitMix64::new(0xD00D ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            writers.push(s.spawn(move || writer(famref, t, &mut rng)));
        }
        for w in writers {
            w.join().expect("writer thread panicked");
        }
        stop.store(true, Ordering::Relaxed);
        let rounds = reader.join().expect("reader thread panicked");
        assert!(rounds > 0, "reader never raced a snapshot");
    });
    // One final full check after quiescence: totals add up exactly.
    let snap = reg.snapshot();
    assert_eq!(snap.get("work_done"), Some(WRITERS as u64 * OPS_PER_WRITER));
    let text = snap.to_text();
    assert_eq!(TelemetrySnapshot::parse(&text).unwrap(), snap);
}

/// The same stress through a sampler: the sampled curves themselves
/// must be monotone point-to-point for monotone kinds.
#[test]
fn sampled_curves_are_monotone_under_8_threads() {
    let (fam, reg) = build();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..WRITERS {
            let famref = &fam;
            let mut rng = SplitMix64::new(0xFADE ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            handles.push(s.spawn(move || writer(famref, t, &mut rng)));
        }
        let mut sampler = SeriesSampler::new(Arc::clone(&reg), 512);
        let mut tick = 0u64;
        while handles.iter().any(|h| !h.is_finished()) {
            sampler.sample(tick);
            tick += 1;
        }
        sampler.sample(tick);
        for (name, curve) in sampler.curves() {
            let desc = &reg
                .snapshot()
                .entries()
                .iter()
                .find(|e| e.desc.name == name)
                .expect("curve names a registered scalar")
                .desc
                .clone();
            if desc.kind.monotone_up() {
                assert!(
                    curve.windows(2).all(|w| w[0].1 <= w[1].1),
                    "{name} curve regressed"
                );
            }
            if desc.kind.monotone_down() {
                assert!(
                    curve.windows(2).all(|w| w[0].1 >= w[1].1),
                    "{name} curve rose"
                );
            }
        }
    });
}
