//! Cache-line padding for contended atomic cells.
//!
//! The structures in this crate store many small atomic cells in one
//! contiguous table. Packed, eight `AtomicI64`s share a 64-byte cache
//! line, so a write to one cell invalidates the line under seven
//! unrelated ones in every other core's cache: false sharing, and (as
//! the f-array engineering literature notes) the dominant constant
//! factor of these algorithms in practice.
//!
//! How a table is padded depends on who writes it. A flat array of
//! single-writer cells (the sharded counter's stripes, the
//! double-collect segments) pads every cell to its own pair
//! ([`cells::Words`](crate::cells::Words)), so no two writers share a
//! line. A tree is blocked by subtree instead
//! ([`cells::Blocks`](crate::cells::Blocks)): each height-3 block,
//! whose writers all climb on through its root, shares one line of a
//! padded entry, so a climb's level reads and CASes one line.
//!
//! [`CachePadded<T>`] aligns and pads `T` to its own 128-byte block.
//! 128 rather than 64 because adjacent-line prefetchers on recent Intel
//! parts pull cache lines in pairs, which re-couples neighbouring
//! 64-byte lines; this matches what `crossbeam_utils::CachePadded` does
//! on x86-64 (the workspace builds offline, so the wrapper is local).

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Pads and aligns a value to 128 bytes so it owns its cache-line pair.
///
/// ```
/// use ruo_core::pad::CachePadded;
/// use std::sync::atomic::AtomicI64;
///
/// let cells: Vec<CachePadded<AtomicI64>> =
///     (0..4).map(|_| CachePadded::new(AtomicI64::new(0))).collect();
/// assert_eq!(std::mem::size_of::<CachePadded<AtomicI64>>(), 128);
/// cells[0].store(7, std::sync::atomic::Ordering::Relaxed);
/// ```
#[derive(Default)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` in its own padded cache-line pair.
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }

    /// Unwraps the padded value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T: fmt::Debug> fmt::Debug for CachePadded<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("CachePadded").field(&self.value).finish()
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        CachePadded::new(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicI64, Ordering};

    #[test]
    fn padded_cells_are_alignment_separated() {
        let cells: Vec<CachePadded<AtomicI64>> = (0..8)
            .map(|_| CachePadded::new(AtomicI64::new(0)))
            .collect();
        assert_eq!(std::mem::size_of::<CachePadded<AtomicI64>>(), 128);
        assert_eq!(std::mem::align_of::<CachePadded<AtomicI64>>(), 128);
        for pair in cells.windows(2) {
            let a = &*pair[0] as *const AtomicI64 as usize;
            let b = &*pair[1] as *const AtomicI64 as usize;
            assert!(b - a >= 128, "cells {a:#x}/{b:#x} share a line pair");
        }
    }

    #[test]
    fn deref_reaches_the_value() {
        let c = CachePadded::new(AtomicI64::new(3));
        c.store(9, Ordering::Relaxed);
        assert_eq!(c.load(Ordering::Relaxed), 9);
        assert_eq!(c.into_inner().load(Ordering::Relaxed), 9);
    }

    #[test]
    fn debug_and_from_work() {
        let c: CachePadded<u64> = 5u64.into();
        assert!(format!("{c:?}").contains("CachePadded"));
        assert_eq!(*c, 5);
    }
}
