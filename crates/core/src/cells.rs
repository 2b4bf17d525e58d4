//! One algorithm body, two memories (DESIGN.md § 5.16).
//!
//! An algorithm written once is an `async` body over [`Cells`], a table
//! of cells whose every `load`, `store` and `cas` is one awaited
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
use std::sync::atomic::{AtomicU8, Ordering};
use std::task::{Context, Poll, Waker};

use ruo_sim::stepcount::{self, CountingI64};
use ruo_sim::{access, Access, ObjId, Prim, Word};

use crate::pad::CachePadded;

/// A table of cells that an algorithm body accesses by index.
pub trait Cells {
    /// One access: ready at once for real cells, one suspension for
    /// simulator cells. It yields the response: the value for a load,
    /// `0` for a store, and for a CAS its witness, the value the cell
    /// held before it, which equals `expected` exactly when the CAS
    /// succeeded.
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
        let (Ok(witness) | Err(witness)) =
            self[cell].compare_exchange(expected, new, Ordering::SeqCst, Ordering::Acquire);
        ready(witness)
    }
}

/// Real one-byte cells, counted through [`stepcount`] like the word
/// cells: the AAC objects' switches, packed where a word table pads each
/// cell to a cache-line pair. Every access is `SeqCst` (a failed CAS
/// `Acquire`), as on word cells: the AAC counter's switch stores and its
/// sibling switch loads form the same store-buffering pattern.
impl Cells for [AtomicU8] {
    type Access = Ready<Word>;

    #[inline]
    fn load(&self, cell: usize) -> Ready<Word> {
        stepcount::count_read();
        ready(Word::from(self[cell].load(Ordering::SeqCst)))
    }

    #[inline]
    fn store(&self, cell: usize, value: Word) -> Ready<Word> {
        let value = byte(value);
        stepcount::count_write();
        self[cell].store(value, Ordering::SeqCst);
        ready(0)
    }

    #[inline]
    fn cas(&self, cell: usize, expected: Word, new: Word) -> Ready<Word> {
        let r = self[cell].compare_exchange(
            byte(expected),
            byte(new),
            Ordering::SeqCst,
            Ordering::Acquire,
        );
        stepcount::count_cas(r.is_ok());
        let (Ok(witness) | Err(witness)) = r;
        ready(Word::from(witness))
    }
}

/// `value` as a byte; one that does not fit panics rather than truncate.
fn byte(value: Word) -> u8 {
    u8::try_from(value).unwrap_or_else(|_| panic!("{value} does not fit in a one-byte cell"))
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

/// `len` real one-byte cells at `0`, packed.
pub fn real_bytes(len: usize) -> Box<[AtomicU8]> {
    (0..len).map(|_| AtomicU8::new(0)).collect()
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_real_cas_answers_with_its_witness() {
        let words = real_cells(1, 3);
        assert_eq!(run(words.cas(0, 3, 4)), 3, "success witnesses expected");
        assert_eq!(run(words.cas(0, 3, 5)), 4, "failure witnesses the value");
        assert_eq!(run(words.load(0)), 4);
        let bytes = real_bytes(1);
        assert_eq!(run(bytes.cas(0, 0, 1)), 0);
        assert_eq!(run(bytes.cas(0, 0, 2)), 1);
        assert_eq!(run(bytes.load(0)), 1);
    }

    #[test]
    #[should_panic(expected = "256 does not fit in a one-byte cell")]
    fn a_byte_cell_does_not_truncate() {
        run(real_bytes(1).store(0, 256));
    }
}
