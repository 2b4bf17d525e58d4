//! The AAC counter from reads and writes only.
//!
//! A balanced binary tree with one leaf per process. Leaf `i` is a plain
//! single-writer register holding process `i`'s increment count; every
//! internal node is an AAC max register holding the sum of its
//! subtree's leaves. `CounterIncrement` bumps the caller's leaf and, at
//! each node up the path, reads both children and `WriteMax`es their sum
//! into the node (sums only grow, so a max register can carry them).
//! `CounterRead` is a single `ReadMax` of the root.
//!
//! With max registers bounded by `M` (the restricted-use bound on total
//! increments), reads cost `O(log M)` and increments
//! `O(log N · log M)` — `O(log N)` and `O(log² N)` for polynomially many
//! increments, matching the step complexities quoted in the paper's
//! introduction. Theorem 2 shows the read side is optimal and forces
//! `Ω(log N)` increments, so the extra `log` factor on increments is the
//! price of renouncing CAS.
//!
//! Both faces run one body over [`Cells`]: [`AacCounter`] on real cells
//! (a word per leaf, packed one-byte switches per internal node) and
//! [`SimAacCounter`] on simulator cells, so both take the same steps.
//! The body reaches each node's table through a `Backend`: a real
//! operation views all of them with the one [`Tally`] it started with,
//! so it reads the counting switch once, not once per node.
//! Every internal node's register has the one [`AacShape`] of capacity
//! `M + 1`; only its switches are its own. An incrementer stores into
//! its own subtree's registers and then loads its sibling's, so every
//! real access is `SeqCst` (DESIGN.md § Memory orderings): with
//! release/acquire, two incrementers in sibling subtrees could each
//! miss the other's switch and both write a sum short of the total.

use std::fmt;
use std::sync::Arc;

use ruo_sim::stepcount::Tally;
use ruo_sim::{Machine, Memory, ObjId, ProcessId, Word};

use super::sim::SimCounter;
use crate::cells::{real_bytes, real_cells, run, Backend, Bytes, Cells, Sim, Words};
use crate::maxreg::aac::{aac_read, aac_write, AacShape};
use crate::shape::TreeShape;
use crate::traits::Counter;

/// A node's cells: a leaf's single-writer count, or an internal node's
/// max register switches.
#[derive(Debug)]
enum NodeCells<L: ?Sized, S: ?Sized> {
    Leaf(Box<L>),
    Switches(Box<S>),
}

/// The AAC counter's tree and its cells: leaf count cells `L` and
/// switch tables `S`.
#[derive(Debug)]
struct AacTree<L: ?Sized, S: ?Sized> {
    shape: TreeShape,
    root: usize,
    /// The leaf of each process.
    leaves: Vec<usize>,
    /// Per node, in node order.
    cells: Vec<NodeCells<L, S>>,
    /// The shape of every internal node's register.
    reg: AacShape,
}

impl<L: ?Sized, S: ?Sized> AacTree<L, S> {
    /// Lays out the tree for `n` processes and at most `max_increments`
    /// increments; `alloc` makes a node's cells from its switch count,
    /// `None` for a leaf.
    fn new(
        n: usize,
        max_increments: u64,
        mut alloc: impl FnMut(Option<usize>) -> NodeCells<L, S>,
    ) -> Self {
        assert!(n >= 1, "at least one process required");
        assert!(max_increments >= 1, "bound must be positive");
        let mut shape = TreeShape::with_capacity(2 * n - 1);
        let mut leaves = Vec::with_capacity(n);
        let root = shape.build_complete(n, &mut leaves);
        let reg = AacShape::new(max_increments + 1);
        let cells = (0..shape.len())
            .map(|idx| alloc((!shape.node(idx).is_leaf()).then_some(reg.switch_count())))
            .collect();
        AacTree {
            shape,
            root,
            leaves,
            cells,
            reg,
        }
    }

    /// The count below `child`: `0` for a missing child, a leaf's cell,
    /// or an internal node's max register. `b` reaches each node's cells.
    async fn count<B: Backend<L> + Backend<S>>(&self, b: B, child: Option<usize>) -> u64 {
        match child.map(|i| &self.cells[i]) {
            None => 0,
            Some(NodeCells::Leaf(cell)) => b.view(&**cell).load(0).await as u64,
            Some(NodeCells::Switches(switches)) => aac_read(&b.view(&**switches), &self.reg).await,
        }
    }

    /// Bumps process `p`'s leaf count, then walks to the root, writing at
    /// each ancestor the sum of its children's counts into its max
    /// register.
    ///
    /// # Panics
    ///
    /// Panics if a sum exceeds the restricted-use bound.
    async fn increment<B: Backend<L> + Backend<S>>(&self, b: B, p: usize) {
        let mut node = self.leaves[p];
        let NodeCells::Leaf(own) = &self.cells[node] else {
            unreachable!("a process owns a leaf")
        };
        let own = b.view(&**own);
        let c = own.load(0).await;
        own.store(0, c + 1).await;
        while let Some(parent) = self.shape.parent(node) {
            let info = self.shape.node(parent);
            let sum = self.count(b, info.left).await + self.count(b, info.right).await;
            let NodeCells::Switches(switches) = &self.cells[parent] else {
                unreachable!("a parent is an internal node")
            };
            aac_write(&b.view(&**switches), &self.reg, sum).await;
            node = parent;
        }
    }
}

/// Restricted-use wait-free counter from reads and writes only:
/// `O(log M)` reads, `O(log N · log M)` increments, supporting at most
/// `max_increments` increments in total.
///
/// ```
/// use ruo_core::counter::AacCounter;
/// use ruo_core::Counter;
/// use ruo_sim::ProcessId;
///
/// let counter = AacCounter::new(4, 1_000);
/// counter.increment(ProcessId(2));
/// counter.increment(ProcessId(2));
/// assert_eq!(counter.read(), 2);
/// ```
pub struct AacCounter {
    tree: AacTree<Words, Bytes>,
}

impl fmt::Debug for AacCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AacCounter")
            .field("n", &self.n())
            .field("max_increments", &self.max_increments())
            .finish()
    }
}

impl AacCounter {
    /// Creates a counter for `n` processes supporting at most
    /// `max_increments` increments in total (the restricted-use bound —
    /// the paper assumes this is polynomial in `N`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `max_increments == 0`.
    pub fn new(n: usize, max_increments: u64) -> Self {
        let tree = AacTree::new(n, max_increments, |switches| match switches {
            None => NodeCells::Leaf(real_cells(1, 0)),
            Some(len) => NodeCells::Switches(real_bytes(len)),
        });
        AacCounter { tree }
    }

    /// Number of processes sharing the counter.
    pub fn n(&self) -> usize {
        self.tree.leaves.len()
    }

    /// The restricted-use bound on total increments.
    pub fn max_increments(&self) -> u64 {
        self.tree.reg.capacity() - 1
    }
}

impl Counter for AacCounter {
    /// # Panics
    ///
    /// Panics if the restricted-use bound is exceeded (an internal
    /// `WriteMax` would overflow its register).
    fn increment(&self, pid: ProcessId) {
        run(self.tree.increment(Tally::start(), pid.index()));
    }

    fn read(&self) -> u64 {
        run(self.tree.count(Tally::start(), Some(self.tree.root)))
    }
}

/// The AAC counter as step machines, on the same body: `CounterRead` is
/// `O(log M)`, `CounterIncrement` is `O(log N · log M)`.
#[derive(Debug)]
pub struct SimAacCounter {
    tree: Arc<AacTree<[ObjId], [ObjId]>>,
}

impl SimAacCounter {
    /// Allocates all cells in `mem`, node by node, for `n` processes and
    /// at most `max_increments` total increments.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `max_increments == 0`.
    pub fn new(mem: &mut Memory, n: usize, max_increments: u64) -> Self {
        let tree = AacTree::new(n, max_increments, |switches| match switches {
            None => NodeCells::Leaf(mem.alloc_n(1, 0).into()),
            Some(len) => NodeCells::Switches(mem.alloc_n(len, 0).into()),
        });
        SimAacCounter {
            tree: Arc::new(tree),
        }
    }

    /// The restricted-use bound on total increments.
    pub fn max_increments(&self) -> u64 {
        self.tree.reg.capacity() - 1
    }
}

impl SimCounter for SimAacCounter {
    fn n(&self) -> usize {
        self.tree.leaves.len()
    }

    fn increment(&self, pid: ProcessId) -> Machine {
        let tree = Arc::clone(&self.tree);
        Machine::new(async move {
            tree.increment(Sim, pid.index()).await;
            0
        })
    }

    fn read(&self, _pid: ProcessId) -> Machine {
        let tree = Arc::clone(&self.tree);
        Machine::new(async move { tree.count(Sim, Some(tree.root)).await as Word })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn fresh_counter_reads_zero() {
        assert_eq!(AacCounter::new(4, 100).read(), 0);
    }

    #[test]
    fn sequential_increments_count() {
        let c = AacCounter::new(3, 64);
        for i in 0..12usize {
            c.increment(ProcessId(i % 3));
            assert_eq!(c.read(), i as u64 + 1);
        }
    }

    #[test]
    fn single_process_counter_is_just_a_register() {
        let c = AacCounter::new(1, 8);
        c.increment(ProcessId(0));
        c.increment(ProcessId(0));
        assert_eq!(c.read(), 2);
    }

    #[test]
    fn bound_is_enforced() {
        let c = AacCounter::new(2, 3);
        for _ in 0..3 {
            c.increment(ProcessId(0));
        }
        assert_eq!(c.read(), 3);
        let result = std::panic::catch_unwind(|| c.increment(ProcessId(0)));
        assert!(result.is_err(), "4th increment must exceed the bound");
    }

    #[test]
    fn concurrent_increments_are_all_counted() {
        let n = 4;
        let per = 250u64;
        let c = Arc::new(AacCounter::new(n, n as u64 * per));
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..per {
                        c.increment(ProcessId(i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.read(), n as u64 * per);
    }

    #[test]
    fn reads_are_monotone_under_concurrency() {
        let c = Arc::new(AacCounter::new(2, 4000));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let reader = {
            let c = Arc::clone(&c);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut last = 0;
                while !stop.load(Ordering::Relaxed) {
                    let v = c.read();
                    assert!(v >= last, "count regressed from {last} to {v}");
                    last = v;
                }
            })
        };
        for _ in 0..2000 {
            c.increment(ProcessId(0));
        }
        stop.store(true, Ordering::Relaxed);
        reader.join().unwrap();
        assert_eq!(c.read(), 2000);
    }
}
