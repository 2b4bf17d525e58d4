//! Gauges for linearizability-checking runs.

use std::fmt;
use std::sync::Arc;

use ruo_core::farray::{FArray, Sum};
use ruo_sim::{ProcessId, Word};

use crate::{MetricDesc, MetricKind, MetricsRegistry, Watermark};

/// Aggregated counters for a fleet of history-checker calls.
///
/// Soak and scenario sweeps verify thousands of histories per run; each
/// worker reports every decided history here, so a progress printer or
/// CI harness can read exact totals in `O(1)` off the f-array roots.
/// The watermark records the largest history any checker decided — the
/// direct evidence that large histories are being *decided* rather
/// than silently downgraded to a spot-check.
///
/// ```
/// use ruo_metrics::CheckerGauges;
/// use ruo_sim::ProcessId;
///
/// let gauges = CheckerGauges::new(2);
/// gauges.record(ProcessId(0), 10_000, true);
/// gauges.record(ProcessId(1), 32, false);
/// assert_eq!(gauges.histories(), 2);
/// assert_eq!(gauges.violations(), 1);
/// assert_eq!(gauges.largest_history(), 10_000);
/// ```
pub struct CheckerGauges {
    histories: FArray<Sum>,
    operations: FArray<Sum>,
    violations: FArray<Sum>,
    largest: Watermark,
}

impl fmt::Debug for CheckerGauges {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckerGauges")
            .field("histories", &self.histories())
            .field("operations", &self.operations())
            .field("violations", &self.violations())
            .field("largest_history", &self.largest_history())
            .finish()
    }
}

impl CheckerGauges {
    /// Creates gauges shared by `n` checker identities.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        CheckerGauges {
            histories: FArray::new(n),
            operations: FArray::new(n),
            violations: FArray::new(n),
            largest: Watermark::new(n),
        }
    }

    /// Folds one decided history into the totals: its operation count
    /// and whether the checker reported it linearizable. Wait-free:
    /// three single-writer slot updates plus one max-register write.
    pub fn record(&self, pid: ProcessId, ops: usize, ok: bool) {
        self.histories.update_with(pid, |cur| cur + 1);
        self.operations
            .update_with(pid, |cur| cur + Word::try_from(ops).unwrap_or(Word::MAX));
        if !ok {
            self.violations.update_with(pid, |cur| cur + 1);
        }
        self.largest.record(pid, ops as u64);
    }

    /// Folds a whole sweep's totals in one call (add-by-`k` slot
    /// updates), for harnesses that see per-sweep counters rather than
    /// individual histories.
    /// `largest` is the operation count of the sweep's biggest history.
    pub fn record_sweep(
        &self,
        pid: ProcessId,
        histories: u64,
        operations: u64,
        violations: u64,
        largest: u64,
    ) {
        let w = |v: u64| Word::try_from(v).unwrap_or(Word::MAX);
        self.histories.update_with(pid, |cur| cur + w(histories));
        self.operations.update_with(pid, |cur| cur + w(operations));
        self.violations.update_with(pid, |cur| cur + w(violations));
        self.largest.record(pid, largest);
    }

    /// Total histories decided across all recorded calls.
    pub fn histories(&self) -> u64 {
        self.histories.read() as u64
    }

    /// Total operations across every decided history.
    pub fn operations(&self) -> u64 {
        self.operations.read() as u64
    }

    /// Histories the checker rejected.
    pub fn violations(&self) -> u64 {
        self.violations.read() as u64
    }

    /// Operation count of the largest history any checker decided.
    pub fn largest_history(&self) -> u64 {
        self.largest.get()
    }

    /// Registers every gauge under `prefix` — one `O(1)` root read per
    /// scalar.
    pub fn register_telemetry(self: &Arc<Self>, registry: &mut MetricsRegistry, prefix: &str) {
        type Row = (
            &'static str,
            fn(&CheckerGauges) -> &FArray<Sum>,
            &'static str,
            &'static str,
        );
        let counters: [Row; 3] = [
            (
                "histories",
                |g| &g.histories,
                "histories",
                "histories decided by the checker fleet",
            ),
            (
                "operations",
                |g| &g.operations,
                "operations",
                "operations across every decided history",
            ),
            (
                "violations",
                |g| &g.violations,
                "histories",
                "histories the checker rejected",
            ),
        ];
        for (name, field, unit, help) in counters {
            let g = Arc::clone(self);
            registry.register(
                MetricDesc::new(&format!("{prefix}{name}"), MetricKind::Counter, unit, help),
                move || field(&g).read() as u64,
            );
        }
        let g = Arc::clone(self);
        registry.register(
            MetricDesc::new(
                &format!("{prefix}largest_history"),
                MetricKind::Watermark,
                "operations",
                "operation count of the largest history decided",
            ),
            move || g.largest.get(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn totals_sum_and_largest_takes_the_max() {
        let g = CheckerGauges::new(2);
        g.record(ProcessId(0), 32, true);
        g.record(ProcessId(0), 64, false);
        g.record(ProcessId(1), 10_000, true);
        assert_eq!(g.histories(), 3);
        assert_eq!(g.operations(), 32 + 64 + 10_000);
        assert_eq!(g.violations(), 1);
        assert_eq!(g.largest_history(), 10_000);
    }

    #[test]
    fn sweep_records_fold_batch_totals() {
        let g = CheckerGauges::new(2);
        g.record_sweep(ProcessId(0), 2000, 64_000, 0, 32);
        g.record_sweep(ProcessId(1), 1, 10_000, 1, 10_000);
        assert_eq!(g.histories(), 2001);
        assert_eq!(g.operations(), 74_000);
        assert_eq!(g.violations(), 1);
        assert_eq!(g.largest_history(), 10_000);
    }

    #[test]
    fn fresh_gauges_read_zero() {
        let g = CheckerGauges::new(1);
        assert_eq!(g.histories(), 0);
        assert_eq!(g.operations(), 0);
        assert_eq!(g.violations(), 0);
        assert_eq!(g.largest_history(), 0);
    }

    #[test]
    fn concurrent_records_never_lose_counts() {
        let n = 4;
        let runs = 200;
        let g = Arc::new(CheckerGauges::new(n));
        std::thread::scope(|s| {
            for t in 0..n {
                let g = Arc::clone(&g);
                s.spawn(move || {
                    for i in 0..runs {
                        // Every fifth record is a violation.
                        g.record(ProcessId(t), 8 * (t + 1), i % 5 != 0);
                    }
                });
            }
        });
        let runs = runs as u64;
        let n = n as u64;
        assert_eq!(g.histories(), runs * n);
        assert_eq!(g.operations(), (8 + 16 + 24 + 32) * runs);
        assert_eq!(g.violations(), runs / 5 * n);
        assert_eq!(g.largest_history(), 8 * n);
    }
}
