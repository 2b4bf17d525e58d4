//! Health gauges for a request-serving worker pool.

use std::fmt;
use std::sync::Arc;

use ruo_core::farray::{FArray, Sum};
use ruo_sim::{ProcessId, Word};

use crate::{MetricDesc, MetricKind, MetricsRegistry, Watermark};

/// Clamps a counter delta into a [`Word`] slot delta.
fn to_delta(v: u64) -> Word {
    Word::try_from(v).unwrap_or(Word::MAX)
}

/// One countable server event. See [`HealthGauges::bump`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum HealthEvent {
    /// A connection was admitted past the load-shedding gate.
    Admitted,
    /// A connection was refused because the pending queue was full.
    Shed,
    /// One request was served to completion (any response).
    Served,
    /// A read was answered from the degraded tier instead of the exact
    /// object.
    DegradedRead,
    /// A request was rejected because it aged past its deadline while
    /// queued.
    DeadlineMiss,
    /// A retried idempotent update hit the dedup window and was *not*
    /// re-applied.
    DedupHit,
    /// A request line failed to parse.
    ParseError,
    /// A socket read/write failed mid-connection.
    IoError,
    /// The chaos layer injected a fault into a stream.
    ChaosInjected,
}

/// Wait-free health counters for a server: per-event totals on
/// [`FArray<Sum>`] slots (exact `O(1)` aggregate reads) plus queue-depth
/// and in-flight [`Watermark`]s — the load-shedding gate reads the same
/// numbers the `metrics` endpoint reports.
///
/// Shared by `n` recorder identities (one per worker thread, plus one
/// for the acceptor). Mirrors [`crate::CheckerGauges`].
///
/// ```
/// use ruo_metrics::{HealthEvent, HealthGauges};
/// use ruo_sim::ProcessId;
///
/// let g = HealthGauges::new(3);
/// g.bump(ProcessId(2), HealthEvent::Admitted);
/// g.record_queue_depth(ProcessId(2), 5);
/// assert_eq!(g.snapshot().admitted, 1);
/// assert_eq!(g.snapshot().queue_depth_peak, 5);
/// ```
pub struct HealthGauges {
    admitted: FArray<Sum>,
    shed: FArray<Sum>,
    served: FArray<Sum>,
    degraded_reads: FArray<Sum>,
    deadline_misses: FArray<Sum>,
    dedup_hits: FArray<Sum>,
    parse_errors: FArray<Sum>,
    io_errors: FArray<Sum>,
    chaos_injected: FArray<Sum>,
    queue_depth_peak: Watermark,
    inflight_peak: Watermark,
    degraded_error_permille_peak: Watermark,
}

impl fmt::Debug for HealthGauges {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HealthGauges")
            .field("snapshot", &self.snapshot())
            .finish()
    }
}

impl HealthGauges {
    /// Creates gauges shared by `n` recorder identities.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        HealthGauges {
            admitted: FArray::new(n),
            shed: FArray::new(n),
            served: FArray::new(n),
            degraded_reads: FArray::new(n),
            deadline_misses: FArray::new(n),
            dedup_hits: FArray::new(n),
            parse_errors: FArray::new(n),
            io_errors: FArray::new(n),
            chaos_injected: FArray::new(n),
            queue_depth_peak: Watermark::new(n),
            inflight_peak: Watermark::new(n),
            degraded_error_permille_peak: Watermark::new(n),
        }
    }

    /// Counts one event for recorder `pid`. Wait-free: one single-writer
    /// slot update plus the `O(log N)` f-array climb.
    pub fn bump(&self, pid: ProcessId, event: HealthEvent) {
        let slot = match event {
            HealthEvent::Admitted => &self.admitted,
            HealthEvent::Shed => &self.shed,
            HealthEvent::Served => &self.served,
            HealthEvent::DegradedRead => &self.degraded_reads,
            HealthEvent::DeadlineMiss => &self.deadline_misses,
            HealthEvent::DedupHit => &self.dedup_hits,
            HealthEvent::ParseError => &self.parse_errors,
            HealthEvent::IoError => &self.io_errors,
            HealthEvent::ChaosInjected => &self.chaos_injected,
        };
        slot.update_with(pid, |cur| cur + to_delta(1));
    }

    /// Raises the pending-queue depth watermark.
    pub fn record_queue_depth(&self, pid: ProcessId, depth: u64) {
        self.queue_depth_peak.record(pid, depth);
    }

    /// Raises the in-flight-request watermark.
    pub fn record_inflight(&self, pid: ProcessId, inflight: u64) {
        self.inflight_peak.record(pid, inflight);
    }

    /// Raises the degraded-read error watermark: the *observed* relative
    /// error of one degraded answer, in permille (`(exact - served) *
    /// 1000 / exact`). Operators read the realized accuracy here, not
    /// just the configured factor `k` (a k = 4 tier that never drifts
    /// past 12 ‰ is very different from one pinned at 750 ‰).
    pub fn record_degraded_error(&self, pid: ProcessId, permille: u64) {
        self.degraded_error_permille_peak.record(pid, permille);
    }

    /// Registers every gauge under `prefix` (the serve layer uses the
    /// empty prefix, preserving the historical wire names). Each
    /// registered scalar reads one f-array root or one max-register
    /// root — `O(1)` loads per scalar, never a full [`Self::snapshot`].
    pub fn register_telemetry(self: &Arc<Self>, registry: &mut MetricsRegistry, prefix: &str) {
        type CounterRow = (
            &'static str,
            fn(&HealthGauges) -> &FArray<Sum>,
            &'static str,
        );
        let counters: [CounterRow; 9] = [
            (
                "admitted",
                |g| &g.admitted,
                "connections admitted past the load-shedding gate",
            ),
            (
                "shed",
                |g| &g.shed,
                "connections refused because the pending queue was full",
            ),
            ("served", |g| &g.served, "requests served to completion"),
            (
                "degraded_reads",
                |g| &g.degraded_reads,
                "reads answered from the degraded tier",
            ),
            (
                "deadline_misses",
                |g| &g.deadline_misses,
                "requests rejected after aging past their queue deadline",
            ),
            (
                "dedup_hits",
                |g| &g.dedup_hits,
                "replayed idempotent updates absorbed by the dedup window",
            ),
            (
                "parse_errors",
                |g| &g.parse_errors,
                "request lines that failed to parse",
            ),
            (
                "io_errors",
                |g| &g.io_errors,
                "mid-connection socket errors",
            ),
            (
                "chaos_injected",
                |g| &g.chaos_injected,
                "faults injected by the chaos layer",
            ),
        ];
        for (name, field, help) in counters {
            let g = Arc::clone(self);
            registry.register(
                MetricDesc::new(
                    &format!("{prefix}{name}"),
                    MetricKind::Counter,
                    "events",
                    help,
                ),
                move || field(&g).read() as u64,
            );
        }
        type PeakRow = (
            &'static str,
            fn(&HealthGauges) -> &Watermark,
            &'static str,
            &'static str,
        );
        let peaks: [PeakRow; 3] = [
            (
                "queue_depth_peak",
                |g| &g.queue_depth_peak,
                "connections",
                "deepest pending-connection queue observed",
            ),
            (
                "inflight_peak",
                |g| &g.inflight_peak,
                "requests",
                "most concurrently in-flight requests observed",
            ),
            (
                "degraded_error_permille_peak",
                |g| &g.degraded_error_permille_peak,
                "permille",
                "worst observed degraded-read relative error",
            ),
        ];
        for (name, field, unit, help) in peaks {
            let g = Arc::clone(self);
            registry.register(
                MetricDesc::new(
                    &format!("{prefix}{name}"),
                    MetricKind::Watermark,
                    unit,
                    help,
                ),
                move || field(&g).get(),
            );
        }
    }

    /// Exact totals at one instant (each counter is one `O(1)` root
    /// read; the two peaks are one atomic load each).
    pub fn snapshot(&self) -> HealthSnapshot {
        HealthSnapshot {
            admitted: self.admitted.read() as u64,
            shed: self.shed.read() as u64,
            served: self.served.read() as u64,
            degraded_reads: self.degraded_reads.read() as u64,
            deadline_misses: self.deadline_misses.read() as u64,
            dedup_hits: self.dedup_hits.read() as u64,
            parse_errors: self.parse_errors.read() as u64,
            io_errors: self.io_errors.read() as u64,
            chaos_injected: self.chaos_injected.read() as u64,
            queue_depth_peak: self.queue_depth_peak.get(),
            inflight_peak: self.inflight_peak.get(),
            degraded_error_permille_peak: self.degraded_error_permille_peak.get(),
        }
    }
}

/// Point-in-time totals from [`HealthGauges::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HealthSnapshot {
    /// Connections admitted past the gate.
    pub admitted: u64,
    /// Connections refused at the gate.
    pub shed: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Reads answered from the degraded tier.
    pub degraded_reads: u64,
    /// Requests rejected after aging past their deadline in the queue.
    pub deadline_misses: u64,
    /// Replayed idempotent updates absorbed by the dedup window.
    pub dedup_hits: u64,
    /// Unparseable request lines.
    pub parse_errors: u64,
    /// Mid-connection socket errors.
    pub io_errors: u64,
    /// Faults injected by the chaos layer.
    pub chaos_injected: u64,
    /// Deepest pending-connection queue observed.
    pub queue_depth_peak: u64,
    /// Most concurrently in-flight requests observed.
    pub inflight_peak: u64,
    /// Worst observed degraded-read relative error, in permille.
    pub degraded_error_permille_peak: u64,
}

impl HealthSnapshot {
    /// `name=value` pairs in a fixed order — the wire shape of the
    /// server's `metrics` response.
    pub fn to_pairs(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("admitted", self.admitted),
            ("shed", self.shed),
            ("served", self.served),
            ("degraded_reads", self.degraded_reads),
            ("deadline_misses", self.deadline_misses),
            ("dedup_hits", self.dedup_hits),
            ("parse_errors", self.parse_errors),
            ("io_errors", self.io_errors),
            ("chaos_injected", self.chaos_injected),
            ("queue_depth_peak", self.queue_depth_peak),
            ("inflight_peak", self.inflight_peak),
            (
                "degraded_error_permille_peak",
                self.degraded_error_permille_peak,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn events_land_in_their_own_counter() {
        let g = HealthGauges::new(2);
        g.bump(ProcessId(0), HealthEvent::Admitted);
        g.bump(ProcessId(0), HealthEvent::Shed);
        g.bump(ProcessId(1), HealthEvent::Shed);
        g.bump(ProcessId(1), HealthEvent::DedupHit);
        let s = g.snapshot();
        assert_eq!(s.admitted, 1);
        assert_eq!(s.shed, 2);
        assert_eq!(s.dedup_hits, 1);
        assert_eq!(s.served, 0);
    }

    #[test]
    fn peaks_take_the_max_across_recorders() {
        let g = HealthGauges::new(3);
        g.record_queue_depth(ProcessId(0), 4);
        g.record_queue_depth(ProcessId(2), 9);
        g.record_queue_depth(ProcessId(1), 2);
        g.record_inflight(ProcessId(1), 3);
        let s = g.snapshot();
        assert_eq!(s.queue_depth_peak, 9);
        assert_eq!(s.inflight_peak, 3);
    }

    #[test]
    fn pairs_cover_every_field_in_order() {
        let s = HealthSnapshot {
            admitted: 1,
            shed: 2,
            served: 3,
            degraded_reads: 4,
            deadline_misses: 5,
            dedup_hits: 6,
            parse_errors: 7,
            io_errors: 8,
            chaos_injected: 9,
            queue_depth_peak: 10,
            inflight_peak: 11,
            degraded_error_permille_peak: 12,
        };
        let pairs = s.to_pairs();
        assert_eq!(pairs.len(), 12);
        assert_eq!(pairs[0], ("admitted", 1));
        assert_eq!(pairs[11], ("degraded_error_permille_peak", 12));
        let vals: Vec<u64> = pairs.iter().map(|&(_, v)| v).collect();
        assert_eq!(vals, (1..=12).collect::<Vec<u64>>());
    }

    #[test]
    fn concurrent_bumps_never_lose_counts() {
        let n = 4;
        let per = 200u64;
        let g = Arc::new(HealthGauges::new(n));
        std::thread::scope(|s| {
            for t in 0..n {
                let g = Arc::clone(&g);
                s.spawn(move || {
                    for i in 0..per {
                        g.bump(ProcessId(t), HealthEvent::Served);
                        g.record_inflight(ProcessId(t), i);
                    }
                });
            }
        });
        let s = g.snapshot();
        assert_eq!(s.served, per * n as u64);
        assert_eq!(s.inflight_peak, per - 1);
    }
}
