//! Simulator step machines for the max registers.
//!
//! Every shared-memory event of a machine is visible: step counts are
//! exact, schedules are adversary-controlled, and the lower-bound
//! constructions of `ruo-lowerbound` can be run against them.
//!
//! The f-array register's machines derive from the body it ships with
//! ([`SimFArrayMaxRegister`], beside its real face). The machines below
//! are written apart from their real faces: Algorithm A's always CASes
//! twice per level, and the CAS cell's reads the cell again after a
//! failed CAS, where the real face uses the CAS witness value.

use std::sync::Arc;

use ruo_sim::{cas, done, read, write, Machine, Memory, ObjId, ProcessId, Step, Word, NEG_INF};

pub use super::farray::SimFArrayMaxRegister;
use crate::maxreg::aac::AacShape;
use crate::shape::AlgorithmATree;
use crate::value::{from_word, to_word};

/// A max register whose operations are simulator step machines.
pub trait SimMaxRegister: Send + Sync {
    /// Number of processes the register supports.
    fn n(&self) -> usize;

    /// A `WriteMax(v)` operation by `pid` as a step machine.
    fn write_max(&self, pid: ProcessId, v: u64) -> Machine;

    /// A `ReadMax` operation as a step machine. The machine's result is
    /// the public value (`-∞` decoded to `0`).
    fn read_max(&self, pid: ProcessId) -> Machine;
}

/// Reads `obj` if present, otherwise continues immediately with `-∞`
/// (missing children cost no step — they are local knowledge).
fn read_opt(obj: Option<ObjId>, k: impl FnOnce(Word) -> Step + Send + 'static) -> Step {
    match obj {
        Some(o) => read(o, k),
        None => k(NEG_INF),
    }
}

/// One propagation level of Algorithm A: the parent cell and its two
/// children's cells.
#[derive(Clone, Copy, Debug)]
struct Level {
    node: ObjId,
    left: Option<ObjId>,
    right: Option<ObjId>,
}

/// Algorithm A as simulator step machines: `ReadMax` is exactly 1 step,
/// `WriteMax(v)` is `O(min(log N, log v))` steps.
#[derive(Debug)]
pub struct SimTreeMaxRegister {
    tree: Arc<AlgorithmATree>,
    cells: Arc<Vec<ObjId>>,
    root_fast_path: bool,
    elimination: bool,
}

impl SimTreeMaxRegister {
    /// Allocates the tree's cells (all `-∞`) in `mem` for `n` processes.
    pub fn new(mem: &mut Memory, n: usize) -> Self {
        let tree = AlgorithmATree::new(n);
        let cells = mem.alloc_n(tree.shape().len(), NEG_INF);
        SimTreeMaxRegister {
            tree: Arc::new(tree),
            cells: Arc::new(cells),
            root_fast_path: false,
            elimination: false,
        }
    }

    /// Fallible [`new`](SimTreeMaxRegister::new): returns a structured
    /// [`TreeSizeError`](crate::maxreg::TreeSizeError) instead of
    /// panicking when `n` is degenerate — parity with the real
    /// register's [`try_new`](crate::maxreg::TreeMaxRegister::try_new).
    pub fn try_new(mem: &mut Memory, n: usize) -> Result<Self, crate::maxreg::TreeSizeError> {
        crate::maxreg::check_tree_size(n)?;
        Ok(Self::new(mem, n))
    }

    /// Like [`new`](SimTreeMaxRegister::new), but `WriteMax(v)` first
    /// reads the root and returns immediately when the root already
    /// carries `v` or more — the `O(1)` dominated-write fast path of the
    /// real [`TreeMaxRegister`](crate::maxreg::TreeMaxRegister)
    /// (DESIGN.md § 4.5: the root is monotone, and root ≥ v means some
    /// covering write has fully propagated, so returning is
    /// linearizable). Opt-in so the default machines keep the paper's
    /// exact per-level step counts pinned by `tests/step_counts.rs`.
    pub fn with_root_fast_path(mem: &mut Memory, n: usize) -> Self {
        let mut reg = Self::new(mem, n);
        reg.root_fast_path = true;
        reg
    }

    /// Like [`with_root_fast_path`](SimTreeMaxRegister::with_root_fast_path),
    /// extended to the **per-level elimination filter** of the real
    /// [`TreeMaxRegister::with_elimination`](crate::maxreg::TreeMaxRegister::with_elimination):
    /// when the root check misses, `WriteMax(v)` scans its own
    /// leaf-to-root path top-down and, at the first node already
    /// holding `≥ v`, skips the leaf entirely and runs `Propagate` over
    /// only the levels above that node. Node values are monotone, so the
    /// partial climb leaves the root `≥ v` before the machine completes
    /// — the same suffix-of-Lemma-9 argument as the real register.
    pub fn with_elimination(mem: &mut Memory, n: usize) -> Self {
        let mut reg = Self::new(mem, n);
        reg.root_fast_path = true;
        reg.elimination = true;
        reg
    }

    /// The tree layout.
    pub fn tree(&self) -> &AlgorithmATree {
        &self.tree
    }

    fn levels_from(&self, leaf: usize) -> Vec<Level> {
        let shape = self.tree.shape();
        shape
            .ancestors(leaf)
            .into_iter()
            .map(|a| {
                let info = shape.node(a);
                Level {
                    node: self.cells[a],
                    left: info.left.map(|i| self.cells[i]),
                    right: info.right.map(|i| self.cells[i]),
                }
            })
            .collect()
    }
}

/// `Propagate`: at each level read the parent, read both children, CAS
/// the max in — twice per level (lines 3–9 of Algorithm A).
fn propagate(levels: Arc<Vec<Level>>, i: usize, attempt: u8) -> Step {
    if i == levels.len() {
        return done(0);
    }
    let lv = levels[i];
    read(lv.node, move |old| {
        read_opt(lv.left, move |l| {
            read_opt(lv.right, move |r| {
                cas(lv.node, old, l.max(r), move |_| {
                    if attempt == 0 {
                        propagate(levels, i, 1)
                    } else {
                        propagate(levels, i + 1, 0)
                    }
                })
            })
        })
    })
}

/// Top-down per-level elimination scan: `j` indexes the next path level
/// to probe (descending from just below the root). The first node found
/// `≥ w` witnesses a covering write that propagated at least this far;
/// the scan finishes its climb with `Propagate` over the levels above it
/// (`j + 1..`). If the scan reaches the bottom without a hit, the
/// ordinary leaf body runs.
fn elim_scan(
    levels: Arc<Vec<Level>>,
    j: usize,
    w: Word,
    body: Box<dyn FnOnce() -> Step + Send>,
) -> Step {
    let node = levels[j].node;
    read(node, move |x| {
        if x >= w {
            propagate(levels, j + 1, 0)
        } else if j == 0 {
            body()
        } else {
            elim_scan(levels, j - 1, w, body)
        }
    })
}

impl SimMaxRegister for SimTreeMaxRegister {
    fn n(&self) -> usize {
        self.tree.n()
    }

    fn write_max(&self, pid: ProcessId, v: u64) -> Machine {
        if v == 0 {
            return Machine::completed(0);
        }
        let w = to_word(v);
        let leaf = self.tree.leaf_for(pid.index(), v);
        let leaf_cell = self.cells[leaf];
        let levels = Arc::new(self.levels_from(leaf));
        // `w <= old` on a shared TL value-leaf means another process
        // stored `v` but may not have propagated yet — help it (see the
        // real implementation for why the paper's unconditional early
        // return is unsound there). TR leaves are single-writer: our own
        // earlier completed write covers us, so returning is safe.
        let help = (v as u128) < self.tree.n() as u128;
        let body: Box<dyn FnOnce() -> Step + Send> = {
            let levels = Arc::clone(&levels);
            Box::new(move || {
                read(leaf_cell, move |old| {
                    if w <= old {
                        if help {
                            propagate(levels, 0, 0)
                        } else {
                            done(0)
                        }
                    } else {
                        write(leaf_cell, w, move || propagate(levels, 0, 0))
                    }
                })
            })
        };
        let elimination = self.elimination;
        if self.root_fast_path {
            // Dominated-write fast path (DESIGN.md § 4.5): the root is
            // monotone and only reaches `v` after a covering write fully
            // propagated, so root ≥ v makes an immediate return
            // linearizable — one step total. With elimination enabled the
            // miss falls through to the per-level scan instead of
            // straight to the leaf.
            let root_cell = self.cells[self.tree.root()];
            Machine::new(read(root_cell, move |r| {
                if from_word(r) >= v {
                    done(0)
                } else if elimination && levels.len() > 1 {
                    let top = levels.len() - 2;
                    elim_scan(levels, top, w, body)
                } else {
                    body()
                }
            }))
        } else {
            Machine::new(body())
        }
    }

    fn read_max(&self, _pid: ProcessId) -> Machine {
        let root = self.cells[self.tree.root()];
        Machine::new(read(root, |w| done(from_word(w) as Word)))
    }
}

/// The AAC read/write-only register as step machines: both operations
/// are `O(log M)` steps.
#[derive(Debug)]
pub struct SimAacMaxRegister {
    shape: Arc<AacShape>,
    switches: Arc<Vec<ObjId>>,
    n: usize,
}

impl SimAacMaxRegister {
    /// Allocates the switch cells (all unset) in `mem`, balanced shape.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is invalid (see [`AacShape::new`]).
    pub fn new(mem: &mut Memory, n: usize, capacity: u64) -> Self {
        Self::with_shape(mem, n, AacShape::new(capacity))
    }

    /// Allocates the Bentley–Yao-skewed variant: operations on value `v`
    /// cost `O(min(log capacity, log v))` steps.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is invalid (see [`AacShape::new_unbalanced`]).
    pub fn new_unbalanced(mem: &mut Memory, n: usize, capacity: u64) -> Self {
        Self::with_shape(mem, n, AacShape::new_unbalanced(capacity))
    }

    fn with_shape(mem: &mut Memory, n: usize, shape: AacShape) -> Self {
        let switches = mem.alloc_n(shape.switch_count(), 0);
        SimAacMaxRegister {
            shape: Arc::new(shape),
            switches: Arc::new(switches),
            n,
        }
    }

    /// The register's capacity `M`.
    pub fn capacity(&self) -> u64 {
        self.shape.capacity()
    }
}

type K = Box<dyn FnOnce() -> Step + Send>;
type ValueK = Box<dyn FnOnce(u64) -> Step + Send>;

pub(crate) fn aac_write(
    shape: Arc<AacShape>,
    cells: Arc<Vec<ObjId>>,
    idx: usize,
    v: u64,
    k: K,
) -> Step {
    let node = *shape.node(idx);
    let (Some(left), Some(right), Some(sw)) = (node.left, node.right, node.switch) else {
        return k();
    };
    let sw_cell = cells[sw];
    if v >= node.half {
        // Write the right subregister, then set the switch.
        let after: K = Box::new(move || write(sw_cell, 1, k));
        aac_write(shape, cells, right, v - node.half, after)
    } else {
        read(sw_cell, move |s| {
            if s != 0 {
                k() // dominated by a larger value already
            } else {
                aac_write(shape, cells, left, v, k)
            }
        })
    }
}

pub(crate) fn aac_read_k(
    shape: Arc<AacShape>,
    cells: Arc<Vec<ObjId>>,
    idx: usize,
    base: u64,
    k: ValueK,
) -> Step {
    let node = *shape.node(idx);
    let (Some(left), Some(right), Some(sw)) = (node.left, node.right, node.switch) else {
        return k(base);
    };
    let sw_cell = cells[sw];
    read(sw_cell, move |s| {
        if s != 0 {
            aac_read_k(shape, cells, right, base + node.half, k)
        } else {
            aac_read_k(shape, cells, left, base, k)
        }
    })
}

fn aac_read(shape: Arc<AacShape>, cells: Arc<Vec<ObjId>>, idx: usize, base: u64) -> Step {
    aac_read_k(shape, cells, idx, base, Box::new(|v| done(v as Word)))
}

impl SimMaxRegister for SimAacMaxRegister {
    fn n(&self) -> usize {
        self.n
    }

    /// # Panics
    ///
    /// Panics if `v` exceeds the register's bound.
    fn write_max(&self, _pid: ProcessId, v: u64) -> Machine {
        assert!(
            v < self.shape.capacity(),
            "value {v} exceeds the AAC register bound {}",
            self.shape.capacity()
        );
        let shape = Arc::clone(&self.shape);
        let cells = Arc::clone(&self.switches);
        let root = shape.root();
        Machine::new(aac_write(shape, cells, root, v, Box::new(|| done(0))))
    }

    fn read_max(&self, _pid: ProcessId) -> Machine {
        let shape = Arc::clone(&self.shape);
        let cells = Arc::clone(&self.switches);
        let root = shape.root();
        Machine::new(aac_read(shape, cells, root, 0))
    }
}

/// The single-cell CAS-retry register as step machines.
#[derive(Debug)]
pub struct SimCasRetryMaxRegister {
    cell: ObjId,
    n: usize,
}

impl SimCasRetryMaxRegister {
    /// Allocates the cell (value `0`) in `mem`.
    pub fn new(mem: &mut Memory, n: usize) -> Self {
        SimCasRetryMaxRegister {
            cell: mem.alloc(0),
            n,
        }
    }
}

fn cas_retry_write(cell: ObjId, v: Word) -> Step {
    read(cell, move |cur| {
        if cur >= v {
            done(0)
        } else {
            cas(cell, cur, v, move |ok| {
                if ok == 1 {
                    done(0)
                } else {
                    cas_retry_write(cell, v)
                }
            })
        }
    })
}

impl SimMaxRegister for SimCasRetryMaxRegister {
    fn n(&self) -> usize {
        self.n
    }

    fn write_max(&self, _pid: ProcessId, v: u64) -> Machine {
        Machine::new(cas_retry_write(self.cell, to_word(v)))
    }

    fn read_max(&self, _pid: ProcessId) -> Machine {
        let cell = self.cell;
        Machine::new(read(cell, done))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruo_sim::{run_solo, Memory, ProcessId};

    #[test]
    fn tree_read_is_exactly_one_step() {
        let mut mem = Memory::new();
        let reg = SimTreeMaxRegister::new(&mut mem, 8);
        let (v, steps) = run_solo(&mut mem, ProcessId(0), reg.read_max(ProcessId(0)));
        assert_eq!(v, 0);
        assert_eq!(steps, 1, "ReadMax must be O(1) — exactly one step here");
    }

    #[test]
    fn tree_write_then_read_round_trips() {
        let mut mem = Memory::new();
        let reg = SimTreeMaxRegister::new(&mut mem, 4);
        run_solo(&mut mem, ProcessId(1), reg.write_max(ProcessId(1), 3));
        let (v, _) = run_solo(&mut mem, ProcessId(2), reg.read_max(ProcessId(2)));
        assert_eq!(v, 3);
        run_solo(&mut mem, ProcessId(0), reg.write_max(ProcessId(0), 100));
        let (v, _) = run_solo(&mut mem, ProcessId(2), reg.read_max(ProcessId(2)));
        assert_eq!(v, 100);
        // Smaller write does not lower the register.
        run_solo(&mut mem, ProcessId(3), reg.write_max(ProcessId(3), 7));
        let (v, _) = run_solo(&mut mem, ProcessId(2), reg.read_max(ProcessId(2)));
        assert_eq!(v, 100);
    }

    #[test]
    fn tree_write_cost_grows_with_value_not_n() {
        let mut mem = Memory::new();
        let n = 1 << 10;
        let reg = SimTreeMaxRegister::new(&mut mem, n);
        let (_, steps_small) = run_solo(&mut mem, ProcessId(0), reg.write_max(ProcessId(0), 1));
        let mut mem2 = Memory::new();
        let reg2 = SimTreeMaxRegister::new(&mut mem2, n);
        let (_, steps_large) = run_solo(
            &mut mem2,
            ProcessId(0),
            reg2.write_max(ProcessId(0), 1 << 40),
        );
        assert!(
            steps_small < steps_large,
            "WriteMax(1) ({steps_small}) should be cheaper than WriteMax(2^40) ({steps_large})"
        );
        // 8 events per level for large values over a depth-~11 path.
        assert!(steps_large <= 2 + 8 * 12);
    }

    #[test]
    fn root_fast_path_makes_dominated_writes_one_step() {
        let mut mem = Memory::new();
        let reg = SimTreeMaxRegister::with_root_fast_path(&mut mem, 4);
        run_solo(&mut mem, ProcessId(0), reg.write_max(ProcessId(0), 3));
        // Strictly dominated and equal-value writes: one root read.
        let (_, dom) = run_solo(&mut mem, ProcessId(1), reg.write_max(ProcessId(1), 2));
        assert_eq!(dom, 1, "dominated write must be the O(1) fast path");
        let (_, eq) = run_solo(&mut mem, ProcessId(2), reg.write_max(ProcessId(2), 3));
        assert_eq!(eq, 1, "equal-value write must be the O(1) fast path");
        let (v, _) = run_solo(&mut mem, ProcessId(3), reg.read_max(ProcessId(3)));
        assert_eq!(v, 3);
    }

    #[test]
    fn root_fast_path_costs_one_extra_step_when_not_dominated() {
        // Same write, with and without the fast-path probe: the probe
        // adds exactly one root read when it does not trigger.
        let mut mem_a = Memory::new();
        let plain = SimTreeMaxRegister::new(&mut mem_a, 4);
        let (_, base) = run_solo(&mut mem_a, ProcessId(0), plain.write_max(ProcessId(0), 3));
        let mut mem_b = Memory::new();
        let fast = SimTreeMaxRegister::with_root_fast_path(&mut mem_b, 4);
        let (_, probed) = run_solo(&mut mem_b, ProcessId(0), fast.write_max(ProcessId(0), 3));
        assert_eq!(probed, base + 1);
        let (va, _) = run_solo(&mut mem_a, ProcessId(1), plain.read_max(ProcessId(1)));
        let (vb, _) = run_solo(&mut mem_b, ProcessId(1), fast.read_max(ProcessId(1)));
        assert_eq!(va, vb);
        assert_eq!(va, 3);
    }

    #[test]
    fn elimination_keeps_the_one_step_dominated_fast_path() {
        let mut mem = Memory::new();
        let reg = SimTreeMaxRegister::with_elimination(&mut mem, 4);
        run_solo(&mut mem, ProcessId(0), reg.write_max(ProcessId(0), 3));
        let (_, dom) = run_solo(&mut mem, ProcessId(1), reg.write_max(ProcessId(1), 2));
        assert_eq!(dom, 1, "fully propagated cover: still one root read");
        let (v, _) = run_solo(&mut mem, ProcessId(2), reg.read_max(ProcessId(2)));
        assert_eq!(v, 3);
    }

    #[test]
    fn elimination_completes_a_stalled_cover_without_touching_the_leaf() {
        // Writer A stores 1 in its TL value-leaf and propagates exactly
        // one level, then stalls: the leaf's parent carries the value,
        // the root does not. Writer B's eliminated WriteMax(1) must find
        // the parent during its top-down scan and finish the climb —
        // without ever reading or writing the leaf.
        let mut mem = Memory::new();
        let reg = SimTreeMaxRegister::with_elimination(&mut mem, 4);
        let leaf = reg.tree.leaf_for(0, 1);
        let parent = reg.tree.shape().ancestors(leaf)[0];

        // Plain machine for A (no fast path interference): drive it
        // until the parent holds the value, then stop.
        let plain = SimTreeMaxRegister {
            tree: Arc::clone(&reg.tree),
            cells: Arc::clone(&reg.cells),
            root_fast_path: false,
            elimination: false,
        };
        let mut a = plain.write_max(ProcessId(0), 1);
        while mem.peek(reg.cells[parent]) != to_word(1) {
            let p = a.enabled().expect("A must reach the first level");
            let r = mem.apply(ProcessId(0), p);
            a.feed(r);
        }
        let (root_now, _) = run_solo(&mut mem, ProcessId(2), reg.read_max(ProcessId(2)));
        assert_eq!(root_now, 0, "root must still lag the stalled cover");

        let leaf_cell = reg.cells[leaf];
        let writes_to_leaf_before = mem.peek(leaf_cell);
        let (_, steps) = run_solo(&mut mem, ProcessId(1), reg.write_max(ProcessId(1), 1));
        assert_eq!(mem.peek(leaf_cell), writes_to_leaf_before);
        let (v, _) = run_solo(&mut mem, ProcessId(2), reg.read_max(ProcessId(2)));
        assert_eq!(v, 1, "B's partial climb must complete the propagation");
        // B paid: 1 root read + top-down scan + the suffix climb — but
        // never the full leaf write path.
        let full_depth = reg.tree.shape().ancestors(leaf).len();
        assert!(
            steps <= 1 + full_depth + 8 * full_depth,
            "scan+climb should stay within one path's budget: {steps}"
        );
    }

    #[test]
    fn tree_write_of_zero_takes_no_steps() {
        let mut mem = Memory::new();
        let reg = SimTreeMaxRegister::new(&mut mem, 4);
        let m = reg.write_max(ProcessId(0), 0);
        assert!(m.is_done());
    }

    #[test]
    fn aac_round_trips_every_value() {
        for cap in [1u64, 2, 5, 8, 16] {
            for v in 0..cap {
                let mut mem = Memory::new();
                let reg = SimAacMaxRegister::new(&mut mem, 2, cap);
                run_solo(&mut mem, ProcessId(0), reg.write_max(ProcessId(0), v));
                let (got, _) = run_solo(&mut mem, ProcessId(1), reg.read_max(ProcessId(1)));
                assert_eq!(got as u64, v, "cap={cap} v={v}");
            }
        }
    }

    #[test]
    fn aac_read_and_write_are_logarithmic_in_capacity() {
        let mut mem = Memory::new();
        let cap = 1 << 10;
        let reg = SimAacMaxRegister::new(&mut mem, 2, cap);
        let (_, wsteps) = run_solo(&mut mem, ProcessId(0), reg.write_max(ProcessId(0), cap - 1));
        let (_, rsteps) = run_solo(&mut mem, ProcessId(1), reg.read_max(ProcessId(1)));
        assert!(wsteps <= 11, "write steps {wsteps}");
        assert!((10..=11).contains(&rsteps), "read steps {rsteps}");
    }

    #[test]
    fn aac_max_of_two_writes_wins() {
        let mut mem = Memory::new();
        let reg = SimAacMaxRegister::new(&mut mem, 2, 64);
        run_solo(&mut mem, ProcessId(0), reg.write_max(ProcessId(0), 40));
        run_solo(&mut mem, ProcessId(1), reg.write_max(ProcessId(1), 17));
        let (got, _) = run_solo(&mut mem, ProcessId(0), reg.read_max(ProcessId(0)));
        assert_eq!(got, 40);
    }

    #[test]
    fn unbalanced_aac_small_values_are_cheap() {
        let cap = 1u64 << 14;
        let mut mem = Memory::new();
        let reg = SimAacMaxRegister::new_unbalanced(&mut mem, 2, cap);
        let (_, small) = run_solo(&mut mem, ProcessId(0), reg.write_max(ProcessId(0), 1));
        // Read while the max is small is also cheap.
        let (v, rsteps) = run_solo(&mut mem, ProcessId(1), reg.read_max(ProcessId(1)));
        assert_eq!(v, 1);
        assert!(small <= 4, "WriteMax(1) took {small} steps");
        assert!(
            rsteps <= 4,
            "ReadMax took {rsteps} steps while max is small"
        );

        let mut mem2 = Memory::new();
        let reg2 = SimAacMaxRegister::new_unbalanced(&mut mem2, 2, cap);
        let (_, large) = run_solo(
            &mut mem2,
            ProcessId(0),
            reg2.write_max(ProcessId(0), cap - 1),
        );
        assert!(
            large > small && large <= 2 * 15 + 2,
            "WriteMax(cap-1) took {large} steps"
        );
        let (v2, _) = run_solo(&mut mem2, ProcessId(1), reg2.read_max(ProcessId(1)));
        assert_eq!(v2 as u64, cap - 1);
    }

    #[test]
    fn farray_maxreg_costs_and_semantics() {
        let mut mem = Memory::new();
        let reg = SimFArrayMaxRegister::new(&mut mem, 8);
        let (v, rsteps) = run_solo(&mut mem, ProcessId(0), reg.read_max(ProcessId(0)));
        assert_eq!(v, 0);
        assert_eq!(rsteps, 1, "fresh read is one step");
        // Write cost is O(log N) regardless of the value.
        let (_, w_small) = run_solo(&mut mem, ProcessId(0), reg.write_max(ProcessId(0), 1));
        let (_, w_large) = run_solo(&mut mem, ProcessId(1), reg.write_max(ProcessId(1), 1 << 40));
        assert_eq!(w_small, 2 + 4 * 3);
        assert_eq!(w_large, 2 + 4 * 3);
        let (v, _) = run_solo(&mut mem, ProcessId(2), reg.read_max(ProcessId(2)));
        assert_eq!(v, 1 << 40);
        // Dominated write: one step (the slot read).
        let (_, dom) = run_solo(&mut mem, ProcessId(1), reg.write_max(ProcessId(1), 7));
        assert_eq!(dom, 1);
        let (v, _) = run_solo(&mut mem, ProcessId(2), reg.read_max(ProcessId(2)));
        assert_eq!(v, 1 << 40);
    }

    #[test]
    fn cas_retry_solo_write_is_two_steps() {
        let mut mem = Memory::new();
        let reg = SimCasRetryMaxRegister::new(&mut mem, 2);
        let (_, steps) = run_solo(&mut mem, ProcessId(0), reg.write_max(ProcessId(0), 9));
        assert_eq!(steps, 2);
        let (v, rsteps) = run_solo(&mut mem, ProcessId(1), reg.read_max(ProcessId(1)));
        assert_eq!(v, 9);
        assert_eq!(rsteps, 1);
    }

    #[test]
    fn interleaved_tree_writes_keep_maximum() {
        // Drive two write machines in lockstep; root must end at the max.
        let mut mem = Memory::new();
        let reg = SimTreeMaxRegister::new(&mut mem, 4);
        let mut m0 = reg.write_max(ProcessId(0), 5);
        let mut m1 = reg.write_max(ProcessId(1), 900);
        loop {
            let mut progressed = false;
            if let Some(p) = m0.enabled() {
                let r = mem.apply(ProcessId(0), p);
                m0.feed(r);
                progressed = true;
            }
            if let Some(p) = m1.enabled() {
                let r = mem.apply(ProcessId(1), p);
                m1.feed(r);
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        let (v, _) = run_solo(&mut mem, ProcessId(2), reg.read_max(ProcessId(2)));
        assert_eq!(v, 900);
    }
}
