//! Read and update cost of the repository's objects, measured end to end
//! and per layer.
//!
//! Three workloads each put one layer on the critical path and report
//! read cost apart from update cost, the paper's own axis:
//!
//! * [`serve`] — TCP requests against an in-process `ruo_serve::Server`;
//! * [`objects`] — direct calls on the real-atomics objects of `ruo_core`;
//! * [`verify`] — linearizability checks, exhaustive exploration and
//!   simulated operations in `ruo_sim`.
//!
//! A run repeats fixed-size rounds until its time is up and reports
//! medians over rounds (or over windows inside them) — for the
//! single-threaded `verify`, [`stats::quiet`] figures — never whole-run
//! totals: see `README.md` beside this crate for why.

#![warn(missing_docs)]

use std::path::PathBuf;
use std::time::Instant;

use ruo_sim::SplitMix64;

pub mod objects;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod verify;

pub use report::{Metric, Report};

/// The workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Client requests over TCP.
    Serve,
    /// Direct object calls on two threads.
    Objects,
    /// Checker, explorer and simulator work on one thread.
    Verify,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "serve" => Some(Workload::Serve),
            "objects" => Some(Workload::Objects),
            "verify" => Some(Workload::Verify),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Serve => "serve",
            Workload::Objects => "objects",
            Workload::Verify => "verify",
        }
    }
}

/// How one run is made.
#[derive(Clone, Debug)]
pub struct Config {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Rounds repeat until this much time has passed.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub traced: bool,
    /// Smallest sizes, for tests: the gates and the deterministic
    /// counts still hold, the timings mean nothing.
    pub tiny: bool,
    /// Where a traced run writes its span files.
    pub trace_dir: Option<PathBuf>,
}

/// Runs one workload.
pub fn run(workload: Workload, cfg: &Config) -> Report {
    let tracer = trace::Tracer::new(cfg.traced);
    let mut report = match workload {
        Workload::Serve => serve::run(cfg, &tracer),
        Workload::Objects => objects::run(cfg, &tracer),
        Workload::Verify => verify::run(cfg, &tracer),
    };
    if cfg.traced {
        let spans = tracer.into_spans();
        for (layer, secs) in trace::self_seconds_by_layer(&spans) {
            report.layer(&format!("layer.{layer}.self_s"), secs, "s");
        }
        if let Some(dir) = &cfg.trace_dir {
            let stem = format!("{}-{}", workload.name(), cfg.seed);
            if let Err(e) = trace::write_files(&spans, dir, &stem) {
                eprintln!("perfbench: writing span files failed: {e}");
                report.gate("trace.files_written", false, 1);
            }
        }
    }
    report.finish();
    report
}

/// Repeats `round` until `cfg.seconds` have passed and at least
/// `min_rounds` rounds ran; `round` gets the round index. A traced run
/// also ends once the tracer's span budget is spent, so that every one
/// of its rounds is recorded and its end-to-end figures (the numerators
/// of `trace.overhead.*`) are taken over traced rounds only.
///
/// Returns each round's peak resident set in MB. A peak over the whole
/// process would depend on how many rounds fit in the run, through the
/// heap layout they leave behind.
pub(crate) fn rounds(
    cfg: &Config,
    tracer: &trace::Tracer,
    min_rounds: usize,
    mut round: impl FnMut(usize),
) -> Vec<f64> {
    let start = Instant::now();
    let mut peaks = Vec::new();
    while peaks.len() < min_rounds
        || (start.elapsed().as_secs_f64() < cfg.seconds && (!cfg.traced || tracer.round_records()))
    {
        report::reset_peak_rss();
        round(peaks.len());
        peaks.push(report::peak_rss_mb());
    }
    peaks
}

/// A seeded generator for one stream of a run's inputs.
pub(crate) fn rng(seed: u64, stream: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Nanoseconds elapsed between two instants.
pub(crate) fn ns(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}
