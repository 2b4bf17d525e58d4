//! k-multiplicative-accurate counter (Hendler–Khattabi–Milani,
//! arXiv 2104.09902).
//!
//! The source paper's Theorem 1 tradeoff is for *exact* counters: cheap
//! reads force `Ω(log N)` increments. HKM escape it by relaxing the
//! read's contract to **k-multiplicative accuracy**: a `CounterRead`
//! returning `v` guarantees `C / k ≤ v ≤ C` for the true count `C` —
//! never an overestimate, and an underestimate by at most the factor
//! `k`.
//!
//! The construction here is the stripe-publication variant: process `i`
//! keeps an *exact* private count `c_i` and a *published* stripe `p_i`,
//! and re-publishes (`p_i ← c_i`) only when the published value has
//! drifted by more than the allowed factor (`p_i · k < c_i`). The
//! per-process invariant after every completed increment is therefore
//!
//! ```text
//! p_i ≤ c_i ≤ k · p_i
//! ```
//!
//! so a read that collect-sums the published stripes returns
//! `v = Σ p_i` with `v ≤ C ≤ k · v`. Only `O(log_k c_i)` of a process's
//! increments touch its shared stripe — the sublogarithmic-update side
//! of the HKM tradeoff shows up as vanishing cross-core publication
//! (and, in the sim face, as increments that complete without a single
//! contended write).
//!
//! At `k = 1` the publication condition is always true, every increment
//! publishes, and the object *is* the exact
//! [`ShardedCounter`](crate::counter::ShardedCounter) bit for bit.
//!
//! Both faces run the same bodies over [`Cells`]: [`ApproxCounter`] on
//! real cells, [`SimApproxCounter`] on simulator cells.

use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use ruo_sim::stepcount::CountingI64;
use ruo_sim::{Machine, Memory, ObjId, ProcessId};

use super::sharded::{bump, collect_sum};
use super::sim::SimCounter;
use crate::cells::{real_cells, run, Cells};
use crate::pad::CachePadded;
use crate::traits::Counter;

/// Whether a published stripe `p` has drifted too far behind the exact
/// local count `c` under accuracy factor `k` (`u128` so `p · k` cannot
/// overflow).
#[inline]
fn must_publish(p: u64, c: u64, k: u64) -> bool {
    (p as u128) * (k as u128) < c as u128
}

/// `CounterIncrement` by process `i` of `n`: cell `i` is its exact
/// count, cell `n + i` its published stripe. Local bump first,
/// publication second: a crash between the two leaves a pending
/// increment whose effect surfaces at the process's next publication —
/// the interval checkers treat the pending op as free to linearize
/// either way.
async fn increment<C: Cells + ?Sized>(cells: &C, n: usize, i: usize, k: u64) {
    let c = bump(cells, i).await;
    let p = cells.load(n + i).await;
    if must_publish(p as u64, c as u64, k) {
        cells.store(n + i, c).await;
    }
}

/// k-multiplicative-accurate counter: `O(1)` wait-free increments that
/// publish to the shared stripe only `O(log_k c)` times, `O(N)`
/// collect-sum reads whose answer `v` satisfies `v ≤ C ≤ k·v`.
///
/// ```
/// use ruo_core::counter::ApproxCounter;
/// use ruo_core::Counter;
/// use ruo_sim::ProcessId;
///
/// let counter = ApproxCounter::new(2, 2); // 2 processes, k = 2
/// for _ in 0..10 {
///     counter.increment(ProcessId(0));
/// }
/// let v = counter.read();
/// assert!(v <= 10 && 2 * v >= 10);
/// assert_eq!(counter.exact(), 10);
/// ```
pub struct ApproxCounter {
    /// `N` exact per-process counts, then `N` published stripes (the
    /// only cells reads touch); each is written only by its process.
    cells: Box<[CachePadded<CountingI64>]>,
    k: u64,
}

impl fmt::Debug for ApproxCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ApproxCounter")
            .field("n", &self.n())
            .field("k", &self.k)
            .field("approx", &self.read())
            .field("exact", &self.exact())
            .finish()
    }
}

impl ApproxCounter {
    /// Creates a counter shared by `n` processes with accuracy factor
    /// `k`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `k == 0`.
    pub fn new(n: usize, k: u64) -> Self {
        assert!(n >= 1, "at least one process required");
        assert!(k >= 1, "accuracy factor k must be >= 1");
        ApproxCounter {
            cells: real_cells(2 * n, 0),
            k,
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.cells.len() / 2
    }

    /// The accuracy factor.
    pub fn k(&self) -> u64 {
        self.k
    }

    /// The exact count (sum of the private stripes) — an `O(N)` collect
    /// used by audits and tests, *not* part of the approximate read
    /// path.
    pub fn exact(&self) -> u64 {
        run(collect_sum(&*self.cells, 0..self.n())) as u64
    }

    /// Published stripe `i` (for tests and gauges).
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    pub fn published(&self, i: usize) -> u64 {
        self.cells[self.n() + i].load(Ordering::Acquire) as u64
    }
}

impl Counter for ApproxCounter {
    fn increment(&self, pid: ProcessId) {
        run(increment(&*self.cells, self.n(), pid.index(), self.k));
    }

    /// One collect of the published stripes; the result `v` satisfies
    /// `v ≤ C ≤ k·v` for the true count `C` (module docs).
    fn read(&self) -> u64 {
        let n = self.n();
        run(collect_sum(&*self.cells, n..2 * n)) as u64
    }
}

/// The k-accurate counter as step machines, on the same bodies:
/// `CounterIncrement` is 3 steps unpublished, 4 published (vs. the
/// sharded counter's 2 — the price of keeping the exact count private);
/// `CounterRead` collect-sums the `N` published stripes in a single
/// pass.
#[derive(Debug)]
pub struct SimApproxCounter {
    cells: Arc<[ObjId]>,
    k: u64,
}

impl SimApproxCounter {
    /// Allocates `2n` zeroed cells in `mem` for accuracy factor `k`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `k == 0`.
    pub fn new(mem: &mut Memory, n: usize, k: u64) -> Self {
        assert!(n >= 1, "at least one process required");
        assert!(k >= 1, "accuracy factor k must be >= 1");
        SimApproxCounter {
            cells: mem.alloc_n(2 * n, 0).into(),
            k,
        }
    }

    /// The accuracy factor.
    pub fn k(&self) -> u64 {
        self.k
    }
}

impl SimCounter for SimApproxCounter {
    fn n(&self) -> usize {
        self.cells.len() / 2
    }

    fn increment(&self, pid: ProcessId) -> Machine {
        let (cells, n, k) = (Arc::clone(&self.cells), self.n(), self.k);
        Machine::new(async move {
            increment(&*cells, n, pid.index(), k).await;
            0
        })
    }

    fn read(&self, _pid: ProcessId) -> Machine {
        let (cells, n) = (Arc::clone(&self.cells), self.n());
        Machine::new(async move { collect_sum(&*cells, n..2 * n).await })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruo_sim::run_solo;
    use std::sync::Arc as StdArc;

    #[test]
    fn fresh_counter_reads_zero() {
        let c = ApproxCounter::new(4, 3);
        assert_eq!(c.read(), 0);
        assert_eq!(c.exact(), 0);
    }

    #[test]
    fn k1_is_exact() {
        let c = ApproxCounter::new(3, 1);
        for i in 0..30usize {
            c.increment(ProcessId(i % 3));
            assert_eq!(c.read(), i as u64 + 1, "k=1 must publish every bump");
        }
    }

    #[test]
    fn envelope_holds_at_every_prefix() {
        for k in [2u64, 3, 10] {
            let c = ApproxCounter::new(2, k);
            for i in 0..200usize {
                c.increment(ProcessId(i % 2));
                let exact = i as u64 + 1;
                let v = c.read();
                assert!(v <= exact, "overestimate at k={k}: {v} > {exact}");
                assert!(
                    (v as u128) * (k as u128) >= exact as u128,
                    "drift past k={k}: {v} vs {exact}"
                );
            }
        }
    }

    #[test]
    fn publications_are_logarithmic() {
        // 1000 solo increments at k=2 publish only when p*2 < c:
        // p follows 1, 2, 3, 5, 9, 17, ... — O(log_2 c) publications.
        let c = ApproxCounter::new(1, 2);
        let mut publications = 0;
        let mut last = c.published(0);
        for _ in 0..1000 {
            c.increment(ProcessId(0));
            let p = c.published(0);
            if p != last {
                publications += 1;
                last = p;
            }
        }
        assert!(
            publications <= 16,
            "k=2 published {publications} times in 1000 increments"
        );
        assert!(c.read() >= 500);
    }

    #[test]
    fn concurrent_increments_stay_in_envelope() {
        let n = 4;
        let per = 5000u64;
        let k = 3u64;
        let c = StdArc::new(ApproxCounter::new(n, k));
        std::thread::scope(|s| {
            for i in 0..n {
                let c = StdArc::clone(&c);
                s.spawn(move || {
                    for _ in 0..per {
                        c.increment(ProcessId(i));
                    }
                });
            }
        });
        let total = n as u64 * per;
        assert_eq!(c.exact(), total);
        let v = c.read();
        assert!(v <= total && v * k >= total, "v={v} total={total}");
    }

    #[test]
    fn sim_face_matches_real_semantics() {
        let mut mem = Memory::new();
        let c = SimApproxCounter::new(&mut mem, 2, 2);
        let mut exact = 0u64;
        for i in 0..40usize {
            run_solo(&mut mem, ProcessId(i % 2), c.increment(ProcessId(i % 2)));
            exact += 1;
            let (v, steps) = run_solo(&mut mem, ProcessId(0), c.read(ProcessId(0)));
            assert_eq!(steps, 2, "read collects one pass over published");
            let v = v as u64;
            assert!(v <= exact && v * 2 >= exact, "v={v} exact={exact}");
        }
    }

    #[test]
    fn sim_k1_increment_always_publishes() {
        let mut mem = Memory::new();
        let c = SimApproxCounter::new(&mut mem, 1, 1);
        for i in 0..5u64 {
            let (_, steps) = run_solo(&mut mem, ProcessId(0), c.increment(ProcessId(0)));
            assert_eq!(steps, 4, "k=1 publishes on every increment");
            let (v, _) = run_solo(&mut mem, ProcessId(0), c.read(ProcessId(0)));
            assert_eq!(v as u64, i + 1);
        }
    }

    #[test]
    fn sim_unpublished_increment_is_three_steps() {
        let mut mem = Memory::new();
        let c = SimApproxCounter::new(&mut mem, 1, 4);
        let (_, first) = run_solo(&mut mem, ProcessId(0), c.increment(ProcessId(0)));
        assert_eq!(first, 4, "first increment publishes (0*k < 1)");
        let (_, second) = run_solo(&mut mem, ProcessId(0), c.increment(ProcessId(0)));
        assert_eq!(second, 3, "second stays private (1*4 >= 2)");
    }
}
