//! One algorithm body, two memories (DESIGN.md § 5.16).
//!
//! An algorithm written once is an `async` body over [`Cells`], a table
//! of word cells whose every `load`, `store` and `cas` is one awaited
//! access. On real cells each access is ready at once and [`run`]
//! finishes the body in one poll; on simulator cells each access is one
//! [`ruo_sim::Access`], and a [`ruo_sim::Machine`] owns the body and
//! steps it one event at a time under a scheduler. Run solo
//! ([`ruo_sim::run_solo`]), the simulator's accesses apply themselves
//! to the memory as the body reaches them, so that body too finishes in
//! one poll after its first access. A one-load read needs no body: it is
//! a [`Machine::single`](ruo_sim::Machine::single) of the load, which
//! allocates nothing.

use std::future::{ready, Future, Ready};
use std::pin::pin;
use std::sync::atomic::Ordering;
use std::task::{Context, Poll, Waker};

use ruo_sim::stepcount::CountingI64;
use ruo_sim::{access, Access, ObjId, Prim, Word};

use crate::pad::CachePadded;

/// A table of word cells that an algorithm body accesses by index.
pub trait Cells {
    /// One access: ready at once for real cells, one suspension for
    /// simulator cells. It yields the response: the value for a load,
    /// `0` for a store, `1`/`0` for a successful or failed CAS.
    type Access: Future<Output = Word>;

    /// Reads `cell`.
    fn load(&self, cell: usize) -> Self::Access;

    /// Writes `value` to `cell`.
    fn store(&self, cell: usize, value: Word) -> Self::Access;

    /// Replaces `cell`'s value with `new` if it equals `expected`.
    fn cas(&self, cell: usize, expected: Word, new: Word) -> Self::Access;
}

/// Real cells, counted by `CountingMem`. Every access is `SeqCst` (a
/// failed CAS `Acquire`): the slot stores and sibling loads of a climb
/// form the store-buffering pattern of DESIGN.md § Memory orderings.
impl Cells for [CachePadded<CountingI64>] {
    type Access = Ready<Word>;

    #[inline]
    fn load(&self, cell: usize) -> Ready<Word> {
        ready(self[cell].load(Ordering::SeqCst))
    }

    #[inline]
    fn store(&self, cell: usize, value: Word) -> Ready<Word> {
        self[cell].store(value, Ordering::SeqCst);
        ready(0)
    }

    #[inline]
    fn cas(&self, cell: usize, expected: Word, new: Word) -> Ready<Word> {
        let r = self[cell].compare_exchange(expected, new, Ordering::SeqCst, Ordering::Acquire);
        ready(Word::from(r.is_ok()))
    }
}

/// Simulator cells: each access is one event of the simulated memory.
impl Cells for [ObjId] {
    type Access = Access;

    fn load(&self, cell: usize) -> Access {
        access(Prim::Read(self[cell]))
    }

    fn store(&self, cell: usize, value: Word) -> Access {
        access(Prim::Write(self[cell], value))
    }

    fn cas(&self, cell: usize, expected: Word, new: Word) -> Access {
        let obj = self[cell];
        access(Prim::Cas { obj, expected, new })
    }
}

/// `len` real cells at `init`, each on its own cache-line pair.
pub fn real_cells(len: usize, init: Word) -> Box<[CachePadded<CountingI64>]> {
    (0..len)
        .map(|_| CachePadded::new(CountingI64::new(init)))
        .collect()
}

/// Runs a body over real cells: every access is ready, so one poll
/// finishes it.
///
/// # Panics
///
/// Panics if the body suspends, which only a simulator access does.
#[inline]
pub fn run<F: Future>(body: F) -> F::Output {
    match pin!(body).poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(out) => out,
        Poll::Pending => panic!("a body over real cells suspended"),
    }
}
