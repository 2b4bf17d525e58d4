//! Algorithm A: the paper's wait-free max register with constant-time
//! reads (Section 5).
//!
//! The register is a binary tree of single-word nodes initialized to
//! `-∞` (Figure 4). `ReadMax` reads the root — one step. `WriteMax(v)`
//! writes `v` to a leaf (the `v`-th leaf of the B1 subtree `TL` when
//! `v < N`, else the caller's leaf in the complete subtree `TR`) and
//! propagates the maximum toward the root: at each level it reads the
//! parent, reads both children, and CASes `max(left, right)` into the
//! parent — *twice*. The second attempt guarantees that if both CASes
//! fail, a concurrent CAS installed a value at least as fresh, which is
//! the key to linearizability (Lemma 9 of the paper).
//!
//! This implementation additionally takes an `O(1)` *dominated-write*
//! fast path: `WriteMax(v)` first reads the root and returns when the
//! root already carries `v` or more. Unlike the paper's leaf-based
//! early return (which is unsound on shared value-leaves — see
//! `DESIGN.md` § Deviations), the root check observes a fully
//! propagated covering write, so returning is linearizable. Leaf-to-root
//! paths are precomputed in one allocation (a [`crate::shape::PathTable`])
//! and each node sits on its own padded cache-line pair, keeping the
//! contended propagation loop free of allocation and false sharing.

use std::fmt;
use std::sync::atomic::Ordering;

use ruo_sim::ProcessId;

use crate::cells::{real_cells, run, Cells, Real, Words};
use crate::farray::{climb, Max};
use crate::shape::{AlgorithmATree, PathNode};
use crate::traits::MaxRegister;
use crate::value::{from_word, to_word};

/// Hard cap on the process count accepted by
/// [`TreeMaxRegister::try_new`]: the tree arena materializes eagerly
/// (roughly four nodes per process across the B1 and TR subtrees), so
/// the cap keeps construction bounded well below the arena's `u32`
/// index space — the same guard style as
/// [`MAX_CAPACITY`](crate::maxreg::aac::MAX_CAPACITY) for the AAC
/// register.
pub const MAX_PROCESSES: usize = 1 << 24;

/// Error returned by [`TreeMaxRegister::try_new`] and
/// [`SimTreeMaxRegister::try_new`](crate::maxreg::sim::SimTreeMaxRegister::try_new)
/// for a degenerate process count (`n == 0`, which has no leaves to
/// write, or `n > MAX_PROCESSES`, which would materialize an excessive
/// arena).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TreeSizeError {
    /// The rejected process count.
    pub n: usize,
    /// The hard cap ([`MAX_PROCESSES`]).
    pub max_processes: usize,
    /// Approximate node-cell count the tree for `n` would allocate.
    pub estimated_cells: u64,
}

impl fmt::Display for TreeSizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.n == 0 {
            write!(f, "Algorithm A needs at least one process")
        } else {
            write!(
                f,
                "process count {} exceeds MAX_PROCESSES ({}): the tree arena materializes \
                 eagerly and would allocate ~{} node cells up front",
                self.n, self.max_processes, self.estimated_cells
            )
        }
    }
}

impl std::error::Error for TreeSizeError {}

/// Validates a process count for Algorithm A's tree; shared by the
/// real-atomics and simulator `try_new` constructors and by the
/// scenario registry's capability check.
pub fn check_tree_size(n: usize) -> Result<(), TreeSizeError> {
    if n == 0 || n > MAX_PROCESSES {
        Err(TreeSizeError {
            n,
            max_processes: MAX_PROCESSES,
            estimated_cells: 4 * n as u64,
        })
    } else {
        Ok(())
    }
}

/// The paper's Algorithm A: `O(1)` `ReadMax`, `O(min(log N, log v))`
/// `WriteMax(v)`, wait-free, linearizable, from `read`/`write`/`CAS`.
///
/// ```
/// use ruo_core::maxreg::TreeMaxRegister;
/// use ruo_core::MaxRegister;
/// use ruo_sim::ProcessId;
///
/// let reg = TreeMaxRegister::new(8);
/// reg.write_max(ProcessId(3), 1_000_000);
/// reg.write_max(ProcessId(5), 7);
/// assert_eq!(reg.read_max(), 1_000_000);
/// ```
#[derive(Debug)]
pub struct TreeMaxRegister {
    tree: AlgorithmATree,
    /// One padded cell per tree node: neighbouring nodes never share a
    /// cache-line pair, so a CAS on one node does not invalidate its
    /// arena neighbours under every other core (see [`crate::pad`]).
    cells: Box<Words>,
    /// Per-level elimination filter (opt-in via
    /// [`with_elimination`](TreeMaxRegister::with_elimination)): when the
    /// root check misses, scan the leaf-to-root path top-down and stop a
    /// dominated write at the *first* path node already carrying `≥ v`,
    /// finishing with a partial climb from that node instead of a leaf
    /// store plus full propagation.
    elimination: bool,
}

impl TreeMaxRegister {
    /// Creates a register shared by `n` processes. All nodes start at
    /// `-∞`; a fresh register reads `0`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        let tree = AlgorithmATree::new(n);
        let cells = real_cells(tree.shape().len(), ruo_sim::NEG_INF);
        TreeMaxRegister {
            tree,
            cells,
            elimination: false,
        }
    }

    /// Like [`new`](TreeMaxRegister::new), with the **per-level
    /// elimination filter** enabled: a `WriteMax(v)` whose root check
    /// misses scans its own leaf-to-root path top-down and, at the first
    /// node already holding `≥ v`, skips the leaf store entirely and
    /// climbs only the levels *above* that node.
    ///
    /// Soundness extends the § 4.5 root argument one level at a time:
    /// node values are monotone, so a path node `u ≥ v` stays `≥ v`;
    /// running `Propagate` over the ancestors of `u` then leaves the
    /// root `≥ v` before the write returns (each double-CAS level covers
    /// the child value it read — Lemma 9's argument applied to a path
    /// suffix). Returning *without* that partial climb would be unsound:
    /// the dominating value may be stalled below the root forever.
    ///
    /// Cost shape: dominated writes whose cover is stalled at depth `d`
    /// finish in `O(d)` instead of `O(depth(leaf))` CAS rounds; fresh
    /// maxima pay up to one extra read per level for the failed scan.
    /// Under write-heavy contention most writes are dominated, which is
    /// the regime this filter targets (experiment W8).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_elimination(n: usize) -> Self {
        let mut reg = Self::new(n);
        reg.elimination = true;
        reg
    }

    /// Fallible [`new`](TreeMaxRegister::new): returns a structured
    /// [`TreeSizeError`] instead of panicking when `n` is degenerate
    /// (`0` or beyond [`MAX_PROCESSES`]) — parity with
    /// [`AacMaxRegister::try_new`](crate::maxreg::AacMaxRegister::try_new).
    pub fn try_new(n: usize) -> Result<Self, TreeSizeError> {
        check_tree_size(n)?;
        Ok(Self::new(n))
    }

    /// Number of processes sharing the register.
    pub fn n(&self) -> usize {
        self.tree.n()
    }

    /// The static tree layout (exposed for layout inspection and the
    /// Figure 4 regeneration binary).
    pub fn tree(&self) -> &AlgorithmATree {
        &self.tree
    }

    /// The paper's `Propagate(n)` over the precomputed leaf-to-root
    /// path.
    fn propagate(&self, cells: &Real<'_, Words>, leaf: usize) {
        propagate_path(cells, self.tree.path_for(leaf));
    }
}

/// `Propagate` over an explicit (suffix of a) bottom-up path — the
/// whole path for a normal write, or only the levels above a dominating
/// node for the elimination filter. This is the f-array's double-CAS
/// climb under `max`, whose identity is `-∞`.
fn propagate_path(cells: &Real<'_, Words>, path: &[PathNode]) {
    run(climb::<Max, _>(cells, path));
}

impl MaxRegister for TreeMaxRegister {
    fn write_max(&self, pid: ProcessId, v: u64) {
        if v == 0 {
            return; // a fresh register already reads 0
        }
        let w = to_word(v);
        let cells = Real::new(&*self.cells);
        // O(1) dominated-write fast path: if the root already carries a
        // value ≥ v, some WriteMax(v') with v' ≥ v has fully propagated,
        // and the root is monotone — every later ReadMax returns ≥ v.
        // Linearize this write immediately after that covering write.
        // This is sound precisely BECAUSE it reads the root, unlike the
        // paper's leaf-based early return (see DESIGN.md § Deviations
        // and § Dominated-write fast path).
        if w <= cells.load_with(self.tree.root(), Ordering::Acquire) {
            return;
        }
        let leaf = self.tree.leaf_for(pid.index(), v);
        // Per-level elimination filter (opt-in): scan our own path
        // top-down, skipping the root (just checked). A path node
        // holding ≥ v witnesses a covering write that propagated at
        // least this far; it is monotone, so climbing the levels above
        // it re-establishes root ≥ v and we can return without ever
        // touching the leaf. The scan reads at most depth(leaf) extra
        // cells when it misses.
        if self.elimination {
            let path = self.tree.path_for(leaf);
            if path.len() > 1 {
                for j in (0..path.len() - 1).rev() {
                    if w <= cells.load_with(path[j].node as usize, Ordering::Acquire) {
                        propagate_path(&cells, &path[j + 1..]);
                        return;
                    }
                }
            }
        }
        // Relaxed is enough here: for a TR (single-writer) leaf this
        // reads our own last store, and for a TL leaf the branch below
        // never returns early, so nothing is concluded from the value.
        let old = cells.load_with(leaf, Ordering::Relaxed);
        if w <= old {
            // The paper's pseudo-code returns here unconditionally, but
            // that is unsound for shared TL value-leaves: the process
            // that stored `v` may be stalled *before* propagating, in
            // which case returning would complete a WriteMax(v) that no
            // subsequent ReadMax reflects. Help propagate instead; the
            // cost stays O(depth(leaf)) = O(min(log N, log v)). TR
            // leaves are single-writer, so there `w <= old` means our
            // own earlier (completed, hence fully propagated) write
            // already covers us and returning is safe.
            if (v as u128) < self.n() as u128 {
                self.propagate(&cells, leaf);
            }
            return;
        }
        // TL value-leaves only ever receive the single value `v`; TR
        // process-leaves are single-writer. Either way a plain store of a
        // strictly larger value is safe. SeqCst, as every view store is:
        // the store must be ordered before the sibling reads in
        // `propagate` (both ours and helpers'); Release would allow the
        // store-buffering reordering that loses the write (DESIGN.md
        // § Memory orderings).
        run(cells.store(leaf, w));
        self.propagate(&cells, leaf);
    }

    fn read_max(&self) -> u64 {
        // Acquire: ReadMax linearizes at this single load. Covering
        // writes are installed with at-least-Release CASes, the root is
        // monotone, and Acquire synchronizes with the covering write —
        // SeqCst adds nothing a reader can observe (DESIGN.md § Memory
        // orderings).
        from_word(Real::new(&*self.cells).load_with(self.tree.root(), Ordering::Acquire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fresh_register_reads_zero() {
        let reg = TreeMaxRegister::new(4);
        assert_eq!(reg.read_max(), 0);
    }

    #[test]
    fn try_new_rejects_degenerate_sizes_with_structured_errors() {
        let err = TreeMaxRegister::try_new(0).unwrap_err();
        assert_eq!(err.n, 0);
        assert_eq!(err.max_processes, MAX_PROCESSES);
        assert!(err.to_string().contains("at least one process"));

        let err = TreeMaxRegister::try_new(MAX_PROCESSES + 1).unwrap_err();
        assert_eq!(err.n, MAX_PROCESSES + 1);
        assert!(err.to_string().contains("MAX_PROCESSES"));

        let reg = TreeMaxRegister::try_new(3).expect("3 processes is fine");
        assert_eq!(reg.n(), 3);
    }

    #[test]
    fn read_returns_maximum_of_writes() {
        let reg = TreeMaxRegister::new(4);
        reg.write_max(ProcessId(0), 5);
        reg.write_max(ProcessId(1), 3);
        assert_eq!(reg.read_max(), 5);
        reg.write_max(ProcessId(2), 9);
        assert_eq!(reg.read_max(), 9);
    }

    #[test]
    fn small_and_large_values_both_propagate() {
        // Small values go through TL, large through TR; both must reach
        // the root.
        let reg = TreeMaxRegister::new(4);
        reg.write_max(ProcessId(0), 2); // TL (2 < 4)
        assert_eq!(reg.read_max(), 2);
        reg.write_max(ProcessId(0), 100); // TR (100 >= 4)
        assert_eq!(reg.read_max(), 100);
    }

    #[test]
    fn write_of_zero_is_a_noop() {
        let reg = TreeMaxRegister::new(2);
        reg.write_max(ProcessId(0), 0);
        assert_eq!(reg.read_max(), 0);
        reg.write_max(ProcessId(0), 4);
        reg.write_max(ProcessId(1), 0);
        assert_eq!(reg.read_max(), 4);
    }

    #[test]
    fn single_process_register_works() {
        let reg = TreeMaxRegister::new(1);
        reg.write_max(ProcessId(0), 10);
        reg.write_max(ProcessId(0), 3);
        assert_eq!(reg.read_max(), 10);
    }

    #[test]
    fn same_process_monotone_sequence() {
        let reg = TreeMaxRegister::new(2);
        for v in 1..=64u64 {
            reg.write_max(ProcessId(0), v);
            assert_eq!(reg.read_max(), v);
        }
    }

    #[test]
    fn dominated_writes_take_the_fast_path() {
        let reg = TreeMaxRegister::new(4);
        reg.write_max(ProcessId(0), 100);
        // All dominated: the root check returns in O(1); TL value
        // leaves, TR leaves and equal values are all covered.
        reg.write_max(ProcessId(1), 1); // TL value leaf
        reg.write_max(ProcessId(2), 50); // TR process leaf
        reg.write_max(ProcessId(3), 100); // equal value
        assert_eq!(reg.read_max(), 100);
        // A fresh maximum still goes through the slow path.
        reg.write_max(ProcessId(1), 101);
        assert_eq!(reg.read_max(), 101);
    }

    #[test]
    fn elimination_register_behaves_like_the_plain_one() {
        let reg = TreeMaxRegister::with_elimination(4);
        assert_eq!(reg.read_max(), 0);
        reg.write_max(ProcessId(0), 2); // TL
        assert_eq!(reg.read_max(), 2);
        reg.write_max(ProcessId(1), 100); // TR
        assert_eq!(reg.read_max(), 100);
        // Dominated writes of every flavour.
        reg.write_max(ProcessId(2), 1); // TL value leaf
        reg.write_max(ProcessId(3), 50); // TR process leaf
        reg.write_max(ProcessId(0), 100); // equal value
        assert_eq!(reg.read_max(), 100);
        reg.write_max(ProcessId(2), 101);
        assert_eq!(reg.read_max(), 101);
    }

    #[test]
    fn elimination_partial_climb_completes_a_stalled_cover() {
        // Force the scenario the per-level check exists for: a covering
        // value sits on an intermediate path node (installed here by
        // hand, as a stalled propagation would leave it) while the root
        // is still behind. The eliminated write must NOT return without
        // first pushing that value the rest of the way up.
        let reg = TreeMaxRegister::with_elimination(4);
        reg.write_max(ProcessId(0), 7); // TR leaf (7 >= 4), fully propagated
        assert_eq!(reg.read_max(), 7);
        // Plant a larger stalled value on the first ancestor of process
        // 1's TR leaf path (as if its writer crashed mid-propagate).
        let leaf = reg.tree.leaf_for(1, 9);
        let first = reg.tree.path_for(leaf)[0].node as usize;
        let planted = to_word(9).max(reg.cells[first].load(Ordering::SeqCst));
        reg.cells[first].store(planted, Ordering::SeqCst);
        assert_eq!(reg.read_max(), 7, "root must still lag");
        // A dominated write (8 ≤ 9) by the same process scans its path,
        // hits the planted node, and climbs only the levels above it.
        reg.write_max(ProcessId(1), 8);
        assert!(
            reg.read_max() >= 9,
            "partial climb must complete the stalled propagation"
        );
    }

    #[test]
    fn concurrent_writers_never_lose_the_maximum_with_elimination() {
        let n = 8;
        let reg = Arc::new(TreeMaxRegister::with_elimination(n));
        let per_thread = 500u64;
        std::thread::scope(|s| {
            for i in 0..n {
                let reg = Arc::clone(&reg);
                s.spawn(move || {
                    for k in 0..per_thread {
                        let v = k * (n as u64) + i as u64 + 1;
                        reg.write_max(ProcessId(i), v);
                        assert!(reg.read_max() >= v);
                        // Interleave dominated writes to exercise the
                        // scan under contention.
                        reg.write_max(ProcessId(i), v / 2);
                    }
                });
            }
        });
        let expected = (per_thread - 1) * (n as u64) + n as u64;
        assert_eq!(reg.read_max(), expected);
    }

    #[test]
    fn concurrent_writers_never_lose_the_maximum() {
        let n = 8;
        let reg = Arc::new(TreeMaxRegister::new(n));
        let per_thread = 500u64;
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    for k in 0..per_thread {
                        let v = k * (n as u64) + i as u64 + 1;
                        reg.write_max(ProcessId(i), v);
                        // Reads must never regress below our own writes.
                        assert!(reg.read_max() >= v);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let expected = (per_thread - 1) * (n as u64) + n as u64;
        assert_eq!(reg.read_max(), expected);
    }

    #[test]
    fn concurrent_readers_see_monotone_values() {
        let reg = Arc::new(TreeMaxRegister::new(4));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let reg = Arc::clone(&reg);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last = 0;
                    while !stop.load(Ordering::Relaxed) {
                        let v = reg.read_max();
                        assert!(v >= last, "regressed from {last} to {v}");
                        last = v;
                    }
                })
            })
            .collect();
        for v in 1..=2000u64 {
            reg.write_max(ProcessId(0), v);
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(reg.read_max(), 2000);
    }
}
