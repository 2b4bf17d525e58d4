//! Single-writer atomic snapshot implementations.
//!
//! | Implementation | `Scan` | `Update` | Progress |
//! |---|---|---|---|
//! | [`DoubleCollectSnapshot`] | `O(N)` per attempt, unbounded attempts | `O(1)` | obstruction-free |
//! | [`AfekSnapshot`] | `O(N²)` | `O(N²)` | wait-free (helping), restricted use |
//! | [`PathCopySnapshot`] | one read for a consistent view, `O(N)` reads for the vector | `O(log N)` uncontended | lock-free, restricted use |
//!
//! These sit at different points of the scan/update tradeoff that
//! Corollary 1 of the paper proves inherent: `O(f(N))`-step scans force
//! `Ω(log(N / f(N)))`-step updates. The double-collect snapshot pays on
//! the scan side, the path-copying snapshot on the update side, and the
//! Afek et al. snapshot pays everywhere in exchange for wait-freedom
//! from reads and writes alone.
//!
//! The paper references (but does not construct) the restricted-use
//! snapshot of Aspnes et al. [PODC 2012] with `O(log N)` scans; see
//! `DESIGN.md` for why that separate construction is represented here by
//! the implementations above.

use std::iter;

use ruo_sim::Word;

use crate::cells::Cells;

mod afek;
pub(crate) mod double_collect;
mod path_copy;
pub mod sim;

pub use afek::AfekSnapshot;
pub use double_collect::{DoubleCollectSnapshot, MAX_SEGMENT_VALUE};
pub use path_copy::{PathCopySnapshot, SnapshotView};

/// The ticket cell of an arena's table: update slices taken so far.
const TICKET: usize = 0;

/// A restricted-use record arena: after a snapshot's fixed cells, the
/// ticket cell first, one `slice_len`-word slice for each of at most
/// `bound` updates. A published record is never rewritten; a retry
/// rewrites its own unpublished slice, so memory is bounded by updates.
#[derive(Clone, Copy, Debug)]
struct Arena {
    n: usize,
    bound: u64,
    /// The first slice's first cell.
    base: usize,
    slice_len: usize,
}

impl Arena {
    /// # Panics
    ///
    /// Panics if `n == 0`, `bound == 0`, or a record index outgrows the
    /// 32 bits a path-copy node packs it in.
    fn new(n: usize, bound: u64, base: usize, slice_len: usize) -> Self {
        assert!(n >= 1, "at least one segment required");
        assert!(bound >= 1, "update bound must be positive");
        let len = bound as u128 * slice_len as u128 + base as u128;
        assert!(len <= 1 << 32, "{bound} updates outgrow u32 indices");
        Arena {
            n,
            bound,
            base,
            slice_len,
        }
    }

    /// The table's initial words: `fixed`, then zeroed slices.
    fn words(self, fixed: Vec<Word>) -> impl Iterator<Item = Word> {
        let len = self.base + self.bound as usize * self.slice_len;
        fixed.into_iter().chain(iter::repeat(0)).take(len)
    }

    /// Takes the next ticket and returns its slice's first cell: a read,
    /// then a CAS from each witness until one lands (the model has no
    /// fetch-and-add). Past the bound it panics, taking no ticket.
    async fn take<C: Cells + ?Sized>(self, cells: &C) -> usize {
        let mut taken = cells.load(TICKET).await;
        loop {
            assert!(
                (taken as u64) < self.bound,
                "restricted-use bound of {} updates exceeded",
                self.bound
            );
            let witness = cells.cas(TICKET, taken, taken + 1).await;
            if witness == taken {
                return self.base + taken as usize * self.slice_len;
            }
            taken = witness;
        }
    }
}

#[cfg(test)]
pub(crate) mod testing {
    use ruo_sim::explore::{explore, ExploreConfig, ExploreOp};
    use ruo_sim::lin::check_interval;
    use ruo_sim::spec::SeqSpec;
    use ruo_sim::{History, Machine, Memory, OpDesc, ProcessId};

    use super::sim::SimSnapshot;

    /// Explores every schedule of two updaters and a scanner on a
    /// snapshot of three segments: p0 writes 1, p1 writes 2, and p2 runs
    /// `scanner`. Returns whether some schedule is not linearizable, and
    /// how many schedules the search checked.
    pub(crate) fn explore_two_updaters_and_a_scanner<S: SimSnapshot>(
        build: impl Fn(&mut Memory, usize) -> S,
        scanner: impl Fn(&S) -> Machine,
    ) -> (bool, usize) {
        let n = 3;
        let setup = || {
            let mut mem = Memory::new();
            let snap = build(&mut mem, n);
            let machines = vec![
                snap.update(ProcessId(0), 1),
                snap.update(ProcessId(1), 2),
                scanner(&snap),
            ];
            (mem, machines)
        };
        let ops = [
            (0, OpDesc::Update(1), false),
            (1, OpDesc::Update(2), false),
            (2, OpDesc::Scan, true),
        ]
        .map(|(pid, desc, returns_value)| ExploreOp {
            pid: ProcessId(pid),
            desc,
            returns_value,
        });
        let spec = SeqSpec::Snapshot { n, initial: 0 };
        let mut check = |h: &History| check_interval(h, &spec).is_ok();
        let summary = explore(&setup, &ops, &mut check, ExploreConfig::default());
        assert!(!summary.truncated, "the scope is explored in full");
        (summary.violation.is_some(), summary.schedules)
    }
}
