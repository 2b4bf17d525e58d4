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
//!
//! A real table ([`Words`], [`Packed`], [`Bytes`]) holds plain atomics and is no
//! [`Cells`] itself: an operation reaches it through a [`Real`] view,
//! made when the operation starts, which reads the counting switch once
//! ([`Tally::start`]) and counts every access of the operation into
//! [`CountingMem`](ruo_sim::stepcount::CountingMem)'s per-operation
//! tally when the switch was on. So a loop over the cells loads the
//! switch once, not once per cell: the sharded counter's 64-stripe
//! collect took 69 ns traced in perfbench's `objects` workload when
//! every access loaded it, and takes 31 ns (medians of eight seeds,
//! EXPERIMENTS.md § W4). A body over several tables, the AAC
//! counter's, takes a backend that views each of them with the one
//! [`Tally`] its operation started with.

use std::future::{ready, Future, Ready};
use std::pin::pin;
use std::sync::atomic::{AtomicI64, AtomicU8, Ordering};
use std::task::{Context, Poll, Waker};

use ruo_sim::stepcount::Tally;
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

/// A borrowed table accesses the table it borrows: the simulator
/// backend hands a body its tables by reference.
impl<C: Cells + ?Sized> Cells for &C {
    type Access = C::Access;

    #[inline]
    fn load(&self, cell: usize) -> C::Access {
        (**self).load(cell)
    }

    #[inline]
    fn store(&self, cell: usize, value: Word) -> C::Access {
        (**self).store(cell, value)
    }

    #[inline]
    fn cas(&self, cell: usize, expected: Word, new: Word) -> C::Access {
        (**self).cas(cell, expected, new)
    }
}

/// A real word table: each cell on its own cache-line pair.
pub type Words = [CachePadded<AtomicI64>];

/// A real word table packed: the snapshots' record arenas, which
/// padding would spread over 128 bytes a word.
pub type Packed = [AtomicI64];

/// A word cell of a real table, padded or packed.
pub trait WordCell {
    /// The cell's atomic word.
    fn word(&self) -> &AtomicI64;
}

impl WordCell for AtomicI64 {
    #[inline]
    fn word(&self) -> &AtomicI64 {
        self
    }
}

impl WordCell for CachePadded<AtomicI64> {
    #[inline]
    fn word(&self) -> &AtomicI64 {
        self
    }
}

/// A real one-byte table, packed: the AAC objects' switches.
pub type Bytes = [AtomicU8];

/// One operation's view of a real table: the table and the [`Tally`]
/// the operation started with. Every real access goes through a view,
/// and a view counts an access with no further load of the switch.
#[derive(Debug)]
pub struct Real<'a, T: ?Sized> {
    table: &'a T,
    tally: Tally,
}

impl<'a, T: ?Sized> Real<'a, T> {
    /// The view of `table` for an operation that starts now: it reads
    /// the counting switch.
    #[inline]
    pub fn new(table: &'a T) -> Self {
        Real {
            table,
            tally: Tally::start(),
        }
    }
}

impl<W: WordCell> Real<'_, [W]> {
    /// A counted load of `cell` with `order`: the one-load reads and the
    /// checks outside a body, whose orderings are their own.
    #[inline]
    pub fn load_with(&self, cell: usize, order: Ordering) -> Word {
        self.tally.read();
        self.table[cell].word().load(order)
    }
}

/// Real word cells, padded or packed. Every access is `SeqCst` (a
/// failed CAS `Acquire`): the slot stores and sibling loads of a climb
/// form the store-buffering pattern of DESIGN.md § Memory orderings.
impl<W: WordCell> Cells for Real<'_, [W]> {
    type Access = Ready<Word>;

    #[inline]
    fn load(&self, cell: usize) -> Ready<Word> {
        ready(self.load_with(cell, Ordering::SeqCst))
    }

    #[inline]
    fn store(&self, cell: usize, value: Word) -> Ready<Word> {
        self.tally.write();
        self.table[cell].word().store(value, Ordering::SeqCst);
        ready(0)
    }

    #[inline]
    fn cas(&self, cell: usize, expected: Word, new: Word) -> Ready<Word> {
        let r = self.table[cell].word().compare_exchange(
            expected,
            new,
            Ordering::SeqCst,
            Ordering::Acquire,
        );
        self.tally.cas(r.is_ok());
        let (Ok(witness) | Err(witness)) = r;
        ready(witness)
    }
}

/// Real one-byte cells, packed where a word table pads each cell to a
/// cache-line pair. Every access is `SeqCst` (a failed CAS `Acquire`),
/// as on word cells: the AAC counter's switch stores and its sibling
/// switch loads form the same store-buffering pattern.
impl Cells for Real<'_, Bytes> {
    type Access = Ready<Word>;

    #[inline]
    fn load(&self, cell: usize) -> Ready<Word> {
        self.tally.read();
        ready(Word::from(self.table[cell].load(Ordering::SeqCst)))
    }

    #[inline]
    fn store(&self, cell: usize, value: Word) -> Ready<Word> {
        let value = byte(value);
        self.tally.write();
        self.table[cell].store(value, Ordering::SeqCst);
        ready(0)
    }

    #[inline]
    fn cas(&self, cell: usize, expected: Word, new: Word) -> Ready<Word> {
        let r = self.table[cell].compare_exchange(
            byte(expected),
            byte(new),
            Ordering::SeqCst,
            Ordering::Acquire,
        );
        self.tally.cas(r.is_ok());
        let (Ok(witness) | Err(witness)) = r;
        ready(Word::from(witness))
    }
}

/// `value` as a byte; one that does not fit panics rather than truncate.
fn byte(value: Word) -> u8 {
    u8::try_from(value).unwrap_or_else(|_| panic!("{value} does not fit in a one-byte cell"))
}

/// How one operation reaches a stored table `T` as [`Cells`]: a real
/// table through a [`Real`] view with the operation's [`Tally`], a
/// simulator table as it is. A body over several tables takes one
/// backend, so a real operation reads the switch once for all of them.
pub(crate) trait Backend<T: ?Sized>: Copy {
    /// The table as this operation's cells.
    type Cells<'a>: Cells
    where
        T: 'a;

    /// `table` as this operation's cells.
    fn view<'a>(self, table: &'a T) -> Self::Cells<'a>;
}

impl Backend<Words> for Tally {
    type Cells<'a> = Real<'a, Words>;

    #[inline]
    fn view(self, table: &Words) -> Real<'_, Words> {
        Real { table, tally: self }
    }
}

impl Backend<Bytes> for Tally {
    type Cells<'a> = Real<'a, Bytes>;

    #[inline]
    fn view(self, table: &Bytes) -> Real<'_, Bytes> {
        Real { table, tally: self }
    }
}

/// The simulator's backend: a simulator table is its own cells.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Sim;

impl Backend<[ObjId]> for Sim {
    type Cells<'a> = &'a [ObjId];

    fn view(self, table: &[ObjId]) -> &[ObjId] {
        table
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

/// `len` real word cells at `init`.
pub fn real_cells(len: usize, init: Word) -> Box<Words> {
    (0..len)
        .map(|_| CachePadded::new(AtomicI64::new(init)))
        .collect()
}

/// `len` real one-byte cells at `0`.
pub fn real_bytes(len: usize) -> Box<Bytes> {
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

/// Runs `f` with counting on, and returns its output and this thread's
/// tally. The tests that turn the process-wide switch hold one lock, so
/// that none turns it off under another.
#[cfg(test)]
pub(crate) fn counted<T>(f: impl FnOnce() -> T) -> (T, ruo_sim::stepcount::OpCounts) {
    use ruo_sim::stepcount::CountingMem;
    static SWITCH: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _g = SWITCH.lock().unwrap_or_else(|e| e.into_inner());
    CountingMem::enable();
    CountingMem::begin_op();
    let out = f();
    let counts = CountingMem::take_op_counts();
    CountingMem::disable();
    (out, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruo_sim::stepcount::OpCounts;

    #[test]
    fn a_real_cas_answers_with_its_witness() {
        let table = real_cells(1, 3);
        let words = Real::new(&*table);
        assert_eq!(run(words.cas(0, 3, 4)), 3, "success witnesses expected");
        assert_eq!(run(words.cas(0, 3, 5)), 4, "failure witnesses the value");
        assert_eq!(run(words.load(0)), 4);
        let table = real_bytes(1);
        let bytes = Real::new(&*table);
        assert_eq!(run(bytes.cas(0, 0, 1)), 0);
        assert_eq!(run(bytes.cas(0, 0, 2)), 1);
        assert_eq!(run(bytes.load(0)), 1);
    }

    #[test]
    fn views_tally_each_access_by_kind() {
        let (words, bytes) = (real_cells(1, 0), real_bytes(1));
        let (_, counts) = counted(|| {
            let v = Real::new(&*words);
            run(v.load(0));
            run(v.store(0, 1));
            run(v.cas(0, 1, 2));
            run(v.cas(0, 1, 3));
            v.load_with(0, Ordering::Acquire)
        });
        let want = OpCounts {
            reads: 2,
            writes: 1,
            cas_ok: 1,
            cas_fail: 1,
        };
        assert_eq!(counts, want, "words");
        let (_, counts) = counted(|| {
            let v = Real::new(&*bytes);
            run(v.load(0));
            run(v.store(0, 1));
            run(v.cas(0, 1, 2));
            run(v.cas(0, 1, 3))
        });
        assert_eq!(counts, OpCounts { reads: 1, ..want }, "bytes");
        // A view made while counting was off counts none of its accesses.
        let early = Real::new(&*words);
        assert_eq!(counted(|| run(early.load(0))).1, OpCounts::new());
    }

    #[test]
    #[should_panic(expected = "256 does not fit in a one-byte cell")]
    fn a_byte_cell_does_not_truncate() {
        run(Real::new(&*real_bytes(1)).store(0, 256));
    }
}
