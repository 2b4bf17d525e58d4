//! Single-writer atomic snapshot implementations.
//!
//! | Implementation | `Scan` | `Update` | Progress |
//! |---|---|---|---|
//! | [`DoubleCollectSnapshot`] | `O(N)` per attempt, unbounded attempts | `O(1)` | obstruction-free |
//! | [`AfekSnapshot`] | `O(N²)` | `O(N²)` | wait-free (helping) |
//! | [`PathCopySnapshot`] | `O(N)` (`O(1)` to pin a consistent view) | `O(log N)` uncontended | lock-free, restricted use |
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

mod afek;
pub(crate) mod double_collect;
mod path_copy;
pub mod sim;

pub use afek::AfekSnapshot;
pub use double_collect::{DoubleCollectSnapshot, MAX_SEGMENT_VALUE};
pub use path_copy::{PathCopySnapshot, SnapshotView};
