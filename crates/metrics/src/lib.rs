//! # ruo-metrics — concurrent metrics on restricted-use objects
//!
//! The practical payoff of the PODC'14 tradeoffs: metrics are written
//! rarely-per-event but read on *every* status query, dashboard refresh
//! and health check — exactly the read-heavy regime where Algorithm A's
//! `O(1)` reads and the f-array's `O(1)` aggregate reads earn their
//! keep.
//!
//! * [`Watermark`] — high-water mark with one-atomic-load reads
//!   (Algorithm A under the hood).
//! * [`LowWatermark`] — the dual: minimum ever recorded.
//! * [`ProgressGauge`] — exact completed-of-total progress, wait-free.
//! * [`Histogram`] — fixed-boundary latency/size histogram with
//!   wait-free recording and quantile estimates.
//! * [`LatencyTracker`] — histogram + peak + best in one `observe`.
//! * [`CheckerGauges`] — totals for linearizability-checker calls
//!   (histories decided, operations, violations, largest history).
//! * [`ProgressCertifier`] — per-process progress counters + a livelock
//!   watchdog certifying wait-free step bounds under crashes.
//! * [`ShardGauges`] — per-stripe counts, imbalance, and hottest stripe
//!   for the sharded counter mode.
//! * [`HealthGauges`] — server health: admission/shed/degraded/dedup
//!   totals plus queue-depth and in-flight watermarks.
//! * [`BackoffPolicy`] — deterministic exponential retry backoff with
//!   seeded jitter.
//! * [`trace`] (`ruo_trace`) — per-operation step tracing: exact
//!   attribution of shared-memory events to operations, aggregate
//!   [`StepStats`], and JSONL / Chrome `trace_event` export.
//! * [`Json`] — the workspace's one JSON model: a strict parser plus
//!   pretty and compact writers, shared by specs, reports, bench
//!   documents and trace exports.
//!
//! Every type is shared by a fixed set of `N` recorder identities
//! ([`ruo_sim::ProcessId`], one per thread), which is what makes the
//! underlying single-writer structures wait-free without stronger
//! primitives than `read`/`write`/`CAS`.
//!
//! ```
//! use ruo_metrics::{Histogram, Watermark};
//! use ruo_sim::ProcessId;
//!
//! let latency_high = Watermark::new(4);
//! let latencies = Histogram::new(4, &[1, 10, 100, 1_000]);
//! // worker 2 observed a 42µs request:
//! latency_high.record(ProcessId(2), 42);
//! latencies.record(ProcessId(2), 42);
//!
//! assert_eq!(latency_high.get(), 42); // one atomic load
//! assert_eq!(latencies.snapshot().total(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod backoff;
mod checker;
mod gauge;
mod health;
mod histogram;
pub mod json;
mod latency;
mod progress;
mod registry;
mod series;
mod shard;
pub mod trace;
mod watermark;

pub use backoff::BackoffPolicy;
pub use checker::CheckerGauges;
pub use gauge::ProgressGauge;
pub use health::{HealthEvent, HealthGauges, HealthSnapshot};
pub use histogram::{Histogram, HistogramSnapshot};
pub use json::{Json, JsonError};
pub use latency::{LatencyReport, LatencyTracker};
pub use progress::{ProgressCertifier, ProgressReport, ProgressViolation};
pub use registry::{
    valid_metric_token, MetricDesc, MetricKind, MetricsRegistry, TelemetryEntry, TelemetryError,
    TelemetrySnapshot, TELEM_SCHEMA,
};
pub use series::SeriesSampler;
pub use shard::ShardGauges;
pub use trace::{
    chrome_trace, op_kind, trace_execution, KindStats, StepStats, StepTrace, TraceEvent, TracedOp,
};
pub use watermark::{LowWatermark, Watermark};
