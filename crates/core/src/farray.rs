//! A generic **f-array** (Jayanti, PODC 2002) — the substrate behind
//! the f-array counter, the f-array max register and Algorithm A's
//! propagation.
//!
//! An f-array maintains `f(a_1, …, a_N)` for an associative,
//! monotone aggregation `f` over `N` single-writer slots: reading the
//! aggregate is one step (load the root), updating a slot is `O(log N)`
//! (bump the leaf, then double-CAS the aggregation up a complete binary
//! tree). Jayanti's original uses LL/SC; as the paper notes for the
//! counter case, CAS suffices when node values are monotone — which is
//! the condition [`Aggregation`] implementations must guarantee and the
//! reason this type is *restricted*: slot updates must never decrease
//! the aggregate at any node.
//!
//! [`FArray<Sum>`] is the f-array counter generalized to arbitrary
//! per-slot contributions; [`FArray<Max>`] is an `O(1)`-read max
//! register over slot values (the complete-tree half of Algorithm A);
//! [`FArray<Min>`] tracks a minimum over decreasing slots.
//!
//! The slot merge and the double-CAS climb are written once, as `async`
//! bodies over [`Cells`]: [`FArray`] runs them on real cells and
//! [`SimFArray`] on simulator cells, so both faces take the same steps.
//! [`TreeMaxRegister`](crate::maxreg::TreeMaxRegister) climbs with the
//! same body.
//!
//! Both faces climb a slice of one [`PathTable`], which holds every
//! slot's leaf-to-root path in one allocation, so building an f-array
//! takes the same five allocations at any `N`. The simulator face keeps
//! node `i` in cell `i`; the real face keeps the tree in a blocked table
//! ([`Blocks`]), each height-3 block on one line, so a climb's root
//! refresh reads the root and both children and CASes the root in one
//! line.

use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use ruo_sim::{Machine, Memory, ObjId, Prim, ProcessId, Word};

use crate::cells::{real_blocks, run, Blocks, Cells, Real};
use crate::shape::{PathNode, PathTable, Placement, TreeShape, NO_CHILD};

/// An associative aggregation with an identity, under which per-slot
/// updates drive every tree node **monotonically** (this is what makes
/// the double-CAS propagation ABA-free).
///
/// Implementors must guarantee: if every slot evolves monotonically in
/// the direction given by [`advances`](Aggregation::advances), then so
/// does `combine` over any subset.
pub trait Aggregation: Send + Sync + 'static {
    /// The identity element (value of an empty subtree / initial slot).
    fn identity() -> Word;

    /// Combines two subtree aggregates.
    fn combine(a: Word, b: Word) -> Word;

    /// Whether moving a slot from `old` to `new` is a legal (monotone)
    /// update.
    fn advances(old: Word, new: Word) -> bool;
}

/// Sum aggregation over non-negative, non-decreasing slots.
#[derive(Clone, Copy, Debug)]
pub struct Sum;

impl Aggregation for Sum {
    fn identity() -> Word {
        0
    }
    fn combine(a: Word, b: Word) -> Word {
        a + b
    }
    fn advances(old: Word, new: Word) -> bool {
        new >= old
    }
}

/// Maximum aggregation over non-decreasing slots.
#[derive(Clone, Copy, Debug)]
pub struct Max;

impl Aggregation for Max {
    fn identity() -> Word {
        Word::MIN
    }
    fn combine(a: Word, b: Word) -> Word {
        a.max(b)
    }
    fn advances(old: Word, new: Word) -> bool {
        new >= old
    }
}

/// Minimum aggregation over non-increasing slots.
#[derive(Clone, Copy, Debug)]
pub struct Min;

impl Aggregation for Min {
    fn identity() -> Word {
        Word::MAX
    }
    fn combine(a: Word, b: Word) -> Word {
        a.min(b)
    }
    fn advances(old: Word, new: Word) -> bool {
        new <= old
    }
}

/// The double-CAS climb (the paper's `Propagate`): at each node of the
/// bottom-up `path`, read the node and both children and CAS the
/// aggregate of the children in — at most twice. The node is done once
/// it already holds that aggregate or a CAS succeeds; if both CASes
/// fail, a concurrent CAS installed a value that covers ours (Lemma 9).
/// Node values are monotone, so the CAS is ABA-free.
pub(crate) async fn climb<A: Aggregation, C: Cells + ?Sized>(cells: &C, path: &[PathNode]) {
    for step in path {
        let node = step.node as usize;
        for _ in 0..2 {
            let old = cells.load(node).await;
            let left = child::<A, C>(cells, step.left).await;
            let new = A::combine(left, child::<A, C>(cells, step.right).await);
            // Monotone children make `new` cover `old`; equality means
            // the node already holds what we just read.
            if new == old || cells.cas(node, old, new).await == old {
                break;
            }
        }
    }
}

/// A child's value; a missing child is the identity and costs no step.
pub(crate) async fn child<A: Aggregation, C: Cells + ?Sized>(cells: &C, idx: u32) -> Word {
    if idx == NO_CHILD {
        A::identity()
    } else {
        cells.load(idx as usize).await
    }
}

/// A slot merge: one read of the single-writer `leaf`, then `f` gives
/// the new slot value. When the slot already holds it, our own earlier
/// (completed, hence climbed) update covers it and the merge ends there;
/// otherwise it stores the value and climbs `path`. Returns the new
/// slot value.
async fn merge<A: Aggregation, C: Cells + ?Sized>(
    cells: &C,
    leaf: usize,
    path: &[PathNode],
    f: impl FnOnce(Word) -> Word,
) -> Word {
    let old = cells.load(leaf).await;
    let new = f(old);
    if new != old {
        cells.store(leaf, new).await;
        climb::<A, C>(cells, path).await;
    }
    new
}

/// The tree placed for one face: each slot's leaf cell, and the paths
/// with the root's cell.
#[derive(Debug)]
struct Layout {
    leaves: Vec<usize>,
    paths: PathTable,
}

impl Layout {
    fn complete(n: usize, placement: Placement) -> Layout {
        assert!(n >= 1, "at least one slot required");
        let mut shape = TreeShape::with_capacity(2 * n - 1);
        let mut leaves = Vec::with_capacity(n);
        let root = shape.build_complete(n, &mut leaves);
        let paths = PathTable::new(&shape, root, placement, &mut leaves);
        Layout { leaves, paths }
    }
}

/// `new`, once checked to be a monotone update of the slot value `old`.
fn advance<A: Aggregation>(old: Word, new: Word) -> Word {
    assert!(
        A::advances(old, new),
        "non-monotone slot update {old} -> {new}"
    );
    new
}

/// Wait-free single-writer f-array: `O(1)` aggregate reads, `O(log N)`
/// slot updates, from read/write/CAS.
///
/// ```
/// use ruo_core::farray::{FArray, Max, Sum};
/// use ruo_sim::ProcessId;
///
/// // Live maximum over 4 workers' progress values:
/// let max = FArray::<Max>::new(4);
/// max.update(ProcessId(1), 17);
/// max.update(ProcessId(3), 9);
/// assert_eq!(max.read(), 17);
///
/// // And a total:
/// let total = FArray::<Sum>::new(4);
/// total.update(ProcessId(1), 17);
/// total.update(ProcessId(3), 9);
/// assert_eq!(total.read(), 26);
/// ```
pub struct FArray<A: Aggregation> {
    layout: Layout,
    /// Blocked cells: each height-3 block of the tree on one line.
    cells: Box<Blocks>,
    _agg: PhantomData<A>,
}

impl<A: Aggregation> fmt::Debug for FArray<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FArray")
            .field("n", &self.n())
            .field("aggregate", &self.read())
            .finish()
    }
}

impl<A: Aggregation> FArray<A> {
    /// Creates an f-array with `n` slots, all at the identity.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        let layout = Layout::complete(n, Placement::Blocked);
        FArray {
            cells: real_blocks(layout.paths.cells(), A::identity()),
            layout,
            _agg: PhantomData,
        }
    }

    /// Number of slots.
    pub fn n(&self) -> usize {
        self.layout.leaves.len()
    }

    /// Reads the aggregate `f(slot_0, …, slot_{N−1})` — one load.
    pub fn read(&self) -> Word {
        // Acquire: the read linearizes at this load; covering writes are
        // at-least-Release CASes and node values are monotone.
        Real::new(&*self.cells).load_with(self.layout.paths.root(), Ordering::Acquire)
    }

    /// Reads `pid`'s own slot.
    pub fn slot(&self, pid: ProcessId) -> Word {
        Real::new(&*self.cells).load_with(self.layout.leaves[pid.index()], Ordering::Acquire)
    }

    /// Merges `value` into `pid`'s slot (`slot ← f(slot, value)`) and
    /// propagates — `O(log N)` steps, or one when the slot already
    /// covers `value`. Returns the new slot value.
    ///
    /// For `Max` this is a max-register `WriteMax`; for `Sum` it adds
    /// `value` to the slot; for `Min` it lowers the slot.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    pub fn merge(&self, pid: ProcessId, value: Word) -> Word {
        self.run_merge(pid, move |old| A::combine(old, value))
    }

    /// Sets `pid`'s slot to `value` and propagates — `O(log N)` steps.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range or the update is not monotone
    /// (`A::advances(current, value)` is false) — non-monotone updates
    /// would reintroduce the ABA problem the CAS propagation excludes.
    pub fn update(&self, pid: ProcessId, value: Word) {
        self.run_merge(pid, |old| advance::<A>(old, value));
    }

    /// Monotone read-modify-write of `pid`'s slot: applies `f` to the
    /// current slot value and propagates. Returns the new slot value.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`update`](FArray::update).
    pub fn update_with(&self, pid: ProcessId, f: impl FnOnce(Word) -> Word) -> Word {
        self.run_merge(pid, |old| advance::<A>(old, f(old)))
    }

    fn run_merge(&self, pid: ProcessId, f: impl FnOnce(Word) -> Word) -> Word {
        let i = pid.index();
        let (leaf, path) = (self.layout.leaves[i], self.layout.paths.path(i));
        run(merge::<A, _>(&Real::new(&*self.cells), leaf, path, f))
    }
}

/// The f-array on simulator cells: the same merge and climb bodies as
/// [`FArray`], one step per access. The aggregate read is one step.
#[derive(Debug)]
pub struct SimFArray<A: Aggregation> {
    layout: Arc<Layout>,
    cells: Arc<[ObjId]>,
    _agg: PhantomData<A>,
}

impl<A: Aggregation> SimFArray<A> {
    /// Allocates the tree's cells (all at the identity) in `mem` for `n`
    /// slots.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(mem: &mut Memory, n: usize) -> Self {
        let layout = Layout::complete(n, Placement::Nodes);
        SimFArray {
            cells: mem.alloc_n(layout.paths.cells(), A::identity()).into(),
            layout: Arc::new(layout),
            _agg: PhantomData,
        }
    }

    /// Number of slots.
    pub fn n(&self) -> usize {
        self.layout.leaves.len()
    }

    /// A one-step read of the aggregate; it allocates nothing.
    pub fn read(&self) -> Machine {
        Machine::single(Prim::Read(self.root_cell()), |w| w)
    }

    /// The root cell, for wrappers that post-process the raw aggregate
    /// word (e.g. decoding `-∞` sentinels).
    pub fn root_cell(&self) -> ObjId {
        self.cells[self.layout.paths.root()]
    }

    /// [`FArray::merge`] as a step machine: a merge the slot already
    /// covers costs exactly 1 step (the slot read).
    pub fn merge(&self, pid: ProcessId, value: Word) -> Machine {
        self.merge_machine(pid, move |old| A::combine(old, value))
    }

    /// [`FArray::update`] as a step machine.
    ///
    /// # Panics
    ///
    /// The machine panics mid-run, after its slot read, on a
    /// non-monotone update.
    pub fn update(&self, pid: ProcessId, value: Word) -> Machine {
        self.merge_machine(pid, move |old| advance::<A>(old, value))
    }

    fn merge_machine(
        &self,
        pid: ProcessId,
        f: impl FnOnce(Word) -> Word + Send + 'static,
    ) -> Machine {
        let (layout, cells) = (Arc::clone(&self.layout), Arc::clone(&self.cells));
        Machine::new(async move {
            let i = pid.index();
            merge::<A, _>(&*cells, layout.leaves[i], layout.paths.path(i), f).await;
            0
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruo_sim::run_solo;

    #[test]
    fn sum_farray_is_a_counter() {
        let fa = FArray::<Sum>::new(3);
        assert_eq!(fa.read(), 0);
        fa.update_with(ProcessId(0), |v| v + 1);
        fa.update_with(ProcessId(2), |v| v + 5);
        fa.update_with(ProcessId(0), |v| v + 1);
        assert_eq!(fa.read(), 7);
        assert_eq!(fa.slot(ProcessId(0)), 2);
    }

    #[test]
    fn max_farray_tracks_maximum() {
        let fa = FArray::<Max>::new(4);
        assert_eq!(fa.read(), Word::MIN);
        fa.update(ProcessId(1), 10);
        fa.update(ProcessId(3), 4);
        assert_eq!(fa.read(), 10);
        fa.update(ProcessId(3), 22);
        assert_eq!(fa.read(), 22);
    }

    #[test]
    fn min_farray_tracks_minimum() {
        let fa = FArray::<Min>::new(4);
        assert_eq!(fa.read(), Word::MAX);
        fa.update(ProcessId(0), 10);
        fa.update(ProcessId(2), 4);
        assert_eq!(fa.read(), 4);
        fa.update(ProcessId(2), -3);
        assert_eq!(fa.read(), -3);
    }

    #[test]
    fn single_slot_farray_degenerates() {
        let fa = FArray::<Sum>::new(1);
        fa.update(ProcessId(0), 9);
        assert_eq!(fa.read(), 9);
    }

    #[test]
    #[should_panic(expected = "non-monotone")]
    fn non_monotone_sum_update_is_rejected() {
        let fa = FArray::<Sum>::new(2);
        fa.update(ProcessId(0), 5);
        fa.update(ProcessId(0), 3);
    }

    #[test]
    #[should_panic(expected = "non-monotone")]
    fn non_monotone_min_update_is_rejected() {
        let fa = FArray::<Min>::new(2);
        fa.update(ProcessId(0), 3);
        fa.update(ProcessId(0), 5);
    }

    #[test]
    fn concurrent_sum_is_exact() {
        let n = 8;
        let per = 1_000i64;
        let fa = Arc::new(FArray::<Sum>::new(n));
        let handles: Vec<_> = (0..n)
            .map(|t| {
                let fa = Arc::clone(&fa);
                std::thread::spawn(move || {
                    for _ in 0..per {
                        fa.update_with(ProcessId(t), |v| v + 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(fa.read(), n as i64 * per);
    }

    #[test]
    fn concurrent_max_never_regresses() {
        let n = 4;
        let fa = Arc::new(FArray::<Max>::new(n));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let reader = {
            let fa = Arc::clone(&fa);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut last = Word::MIN;
                while !stop.load(Ordering::Relaxed) {
                    let v = fa.read();
                    assert!(v >= last, "aggregate regressed: {last} -> {v}");
                    last = v;
                }
            })
        };
        let writers: Vec<_> = (0..n)
            .map(|t| {
                let fa = Arc::clone(&fa);
                std::thread::spawn(move || {
                    for v in 0..2_000i64 {
                        fa.update(ProcessId(t), v * n as i64 + t as i64);
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        reader.join().unwrap();
        assert_eq!(fa.read(), 1999 * n as i64 + n as i64 - 1);
    }

    #[test]
    fn aggregate_is_always_a_reachable_combination() {
        // Under concurrency the root must never exceed the sum of what
        // has been written, nor lag behind what every thread finished.
        let n = 4;
        let fa = Arc::new(FArray::<Sum>::new(n));
        std::thread::scope(|s| {
            for t in 0..n {
                let fa = Arc::clone(&fa);
                s.spawn(move || {
                    for i in 1..=500i64 {
                        fa.update(ProcessId(t), i);
                        let agg = fa.read();
                        assert!(agg >= i, "own contribution missing");
                        assert!(agg <= 500 * n as i64, "impossible aggregate {agg}");
                    }
                });
            }
        });
        assert_eq!(fa.read(), 500 * n as i64);
    }

    #[test]
    fn sim_read_is_one_step_for_every_aggregation() {
        let mut mem = Memory::new();
        let sum = SimFArray::<Sum>::new(&mut mem, 8);
        let max = SimFArray::<Max>::new(&mut mem, 8);
        let min = SimFArray::<Min>::new(&mut mem, 8);
        for m in [sum.read(), max.read(), min.read()] {
            let (_, steps) = run_solo(&mut mem, ProcessId(0), m);
            assert_eq!(steps, 1);
        }
    }

    #[test]
    fn sim_sum_aggregates_updates() {
        let mut mem = Memory::new();
        let fa = SimFArray::<Sum>::new(&mut mem, 4);
        run_solo(&mut mem, ProcessId(0), fa.update(ProcessId(0), 3));
        run_solo(&mut mem, ProcessId(2), fa.update(ProcessId(2), 5));
        let (v, _) = run_solo(&mut mem, ProcessId(1), fa.read());
        assert_eq!(v, 8);
    }

    #[test]
    fn sim_max_and_min_aggregate_correctly() {
        let mut mem = Memory::new();
        let max = SimFArray::<Max>::new(&mut mem, 3);
        run_solo(&mut mem, ProcessId(0), max.update(ProcessId(0), 7));
        run_solo(&mut mem, ProcessId(1), max.update(ProcessId(1), 4));
        let (v, _) = run_solo(&mut mem, ProcessId(2), max.read());
        assert_eq!(v, 7);

        let min = SimFArray::<Min>::new(&mut mem, 3);
        run_solo(&mut mem, ProcessId(0), min.update(ProcessId(0), 7));
        run_solo(&mut mem, ProcessId(1), min.update(ProcessId(1), 4));
        let (v, _) = run_solo(&mut mem, ProcessId(2), min.read());
        assert_eq!(v, 4);
    }

    #[test]
    fn sim_update_cost_is_logarithmic() {
        // Leaf read + leaf store, then one CAS round per level: node,
        // two children, CAS.
        for n in [2usize, 16, 128] {
            let mut mem = Memory::new();
            let fa = SimFArray::<Sum>::new(&mut mem, n);
            let (_, steps) = run_solo(&mut mem, ProcessId(0), fa.update(ProcessId(0), 1));
            let depth = (n as f64).log2().ceil() as usize;
            assert_eq!(steps, 2 + 4 * depth, "n={n}");
        }
    }

    #[test]
    fn sim_interleaved_updates_converge() {
        let mut mem = Memory::new();
        let n = 4;
        let fa = SimFArray::<Sum>::new(&mut mem, n);
        let mut machines: Vec<(ProcessId, Machine)> = (0..n)
            .map(|i| (ProcessId(i), fa.update(ProcessId(i), i as Word + 1)))
            .collect();
        // Lock-step interleaving.
        loop {
            let mut progressed = false;
            for (pid, m) in machines.iter_mut() {
                if let Some(prim) = m.enabled() {
                    let resp = mem.apply(*pid, prim).resp;
                    m.feed(resp);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        let (v, _) = run_solo(&mut mem, ProcessId(0), fa.read());
        assert_eq!(v, (1..=n as Word).sum::<Word>());
    }

    #[test]
    fn sim_non_monotone_update_panics_mid_run() {
        let mut mem = Memory::new();
        let fa = SimFArray::<Sum>::new(&mut mem, 2);
        run_solo(&mut mem, ProcessId(0), fa.update(ProcessId(0), 5));
        let mut m = fa.update(ProcessId(0), 3);
        let prim = m.enabled().unwrap();
        let resp = mem.apply(ProcessId(0), prim).resp;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.feed(resp)));
        assert!(result.is_err());
    }
}
