//! Shared base-object memory.

use crate::{Event, ObjId, Prim, ProcessId, Word};

/// The set `B` of shared base objects, and the number of steps taken on
/// them.
///
/// Every [`apply`](Memory::apply) is one *step* in the paper's complexity
/// measure: it returns the step's [`Event`] and keeps no record of it.
/// Code that reads an execution (the executor's history export, the
/// explorer's undo, the lower-bound adversaries' information flow)
/// keeps the events it needs, in an [`EventLog`](crate::EventLog) or a
/// `FlowTracker`. Adversaries and test harnesses may inspect values
/// without taking steps via [`peek`](Memory::peek); algorithms must not.
#[derive(Clone, Debug, Default)]
pub struct Memory {
    cells: Vec<Word>,
    steps: usize,
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a new base object with the given initial value.
    ///
    /// Allocation is part of setting up the *initial configuration* and
    /// does not count as a step, matching the paper's model where "each
    /// base object is assigned an initial value".
    pub fn alloc(&mut self, init: Word) -> ObjId {
        let id = ObjId(self.cells.len());
        self.cells.push(init);
        id
    }

    /// Allocates `n` objects, all with the same initial value.
    pub fn alloc_n(&mut self, n: usize, init: Word) -> Vec<ObjId> {
        (0..n).map(|_| self.alloc(init)).collect()
    }

    /// Number of allocated base objects.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no objects have been allocated.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Applies a primitive on behalf of `pid` and returns the step's
    /// event: its `seq` is the step's index (the step count before it),
    /// `prev` the object's value before it, and `resp` the response
    /// (read: the value; write: `0`; CAS: `1` on success, `0` on
    /// failure).
    ///
    /// # Panics
    ///
    /// Panics if the primitive targets an object not allocated from this
    /// memory.
    pub fn apply(&mut self, pid: ProcessId, prim: Prim) -> Event {
        let obj = prim.obj();
        let prev = self.cells[obj.0];
        let resp = match prim {
            Prim::Read(_) => prev,
            Prim::Write(_, v) => {
                self.cells[obj.0] = v;
                0
            }
            Prim::Cas { expected, new, .. } => {
                if prev == expected {
                    self.cells[obj.0] = new;
                    1
                } else {
                    0
                }
            }
        };
        let seq = self.steps;
        self.steps += 1;
        Event {
            seq,
            pid,
            prim,
            prev,
            resp,
        }
    }

    /// Takes back the last step in `O(1)`: its object gets back the value
    /// it held before the step (`ev.prev`) and the step count drops by
    /// one. The explorer uses this to backtrack one step without
    /// replaying the whole prefix.
    ///
    /// # Panics
    ///
    /// Panics if `ev` is not the last step taken (its `seq` is not the
    /// step count minus one).
    pub fn undo(&mut self, ev: &Event) {
        assert!(
            ev.seq + 1 == self.steps,
            "undo takes back the last step, not step {} of {}",
            ev.seq,
            self.steps
        );
        self.cells[ev.obj().0] = ev.prev;
        self.steps -= 1;
    }

    /// Reads an object's current value without taking a step. For
    /// adversaries, invariant checks and tests only.
    pub fn peek(&self, obj: ObjId) -> Word {
        self.cells[obj.0]
    }

    /// Total number of steps taken by all processes.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Resets all cells to the provided snapshot of initial values and
    /// the step count to zero. Used by replay-based adversaries (Lemma 2
    /// erasure is implemented by replaying the surviving events from the
    /// initial configuration).
    ///
    /// # Panics
    ///
    /// Panics if `initial` does not have one value per allocated object.
    pub fn reset_to(&mut self, initial: &[Word]) {
        assert_eq!(
            initial.len(),
            self.cells.len(),
            "reset snapshot must cover every allocated object"
        );
        self.cells.copy_from_slice(initial);
        self.steps = 0;
    }

    /// Snapshot of every cell's current value, usable with
    /// [`reset_to`](Memory::reset_to).
    pub fn snapshot(&self) -> Vec<Word> {
        self.cells.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_assigns_dense_ids_and_initial_values() {
        let mut mem = Memory::new();
        let a = mem.alloc(1);
        let b = mem.alloc(2);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(mem.peek(a), 1);
        assert_eq!(mem.peek(b), 2);
        assert_eq!(mem.len(), 2);
    }

    #[test]
    fn read_returns_value_and_logs() {
        let mut mem = Memory::new();
        let a = mem.alloc(5);
        let ev = mem.apply(ProcessId(0), Prim::Read(a));
        assert_eq!(ev.resp, 5);
        assert_eq!(mem.steps(), 1);
        assert_eq!(ev.prev, 5);
    }

    #[test]
    fn write_stores_value() {
        let mut mem = Memory::new();
        let a = mem.alloc(0);
        mem.apply(ProcessId(1), Prim::Write(a, 9));
        assert_eq!(mem.peek(a), 9);
    }

    #[test]
    fn cas_succeeds_only_on_expected() {
        let mut mem = Memory::new();
        let a = mem.alloc(3);
        let ok = mem.apply(
            ProcessId(0),
            Prim::Cas {
                obj: a,
                expected: 3,
                new: 4,
            },
        );
        assert_eq!(ok.resp, 1);
        assert_eq!(mem.peek(a), 4);
        let fail = mem.apply(
            ProcessId(0),
            Prim::Cas {
                obj: a,
                expected: 3,
                new: 5,
            },
        );
        assert_eq!(fail.resp, 0);
        assert_eq!(mem.peek(a), 4);
    }

    #[test]
    fn apply_returns_each_primitives_event() {
        let mut mem = Memory::new();
        let a = mem.alloc(3);
        let b = mem.alloc(8);
        let cas = |obj, expected, new| Prim::Cas { obj, expected, new };
        let steps = [
            (ProcessId(0), Prim::Read(a), 3, 3),
            (ProcessId(1), Prim::Write(a, 9), 3, 0),
            (ProcessId(2), cas(a, 9, 12), 9, 1),
            (ProcessId(0), cas(a, 9, 15), 12, 0),
            (ProcessId(1), Prim::Read(b), 8, 8),
        ];
        for (seq, (pid, prim, prev, resp)) in steps.into_iter().enumerate() {
            let ev = mem.apply(pid, prim);
            assert_eq!(
                ev,
                Event {
                    seq,
                    pid,
                    prim,
                    prev,
                    resp,
                },
                "step {seq}"
            );
        }
        assert_eq!(mem.steps(), 5);
        assert_eq!((mem.peek(a), mem.peek(b)), (12, 8));
    }

    #[test]
    fn peek_takes_no_step() {
        let mut mem = Memory::new();
        let a = mem.alloc(3);
        let _ = mem.peek(a);
        assert_eq!(mem.steps(), 0);
    }

    #[test]
    fn reset_restores_initial_configuration() {
        let mut mem = Memory::new();
        let a = mem.alloc(3);
        let init = mem.snapshot();
        mem.apply(ProcessId(0), Prim::Write(a, 10));
        assert_eq!(mem.peek(a), 10);
        mem.reset_to(&init);
        assert_eq!(mem.peek(a), 3);
        assert_eq!(mem.steps(), 0);
        // Step indices start again from zero.
        assert_eq!(mem.apply(ProcessId(1), Prim::Read(a)).seq, 0);
    }

    #[test]
    fn undo_restores_each_primitive_kind_and_the_step_count() {
        let mut mem = Memory::new();
        let a = mem.alloc(3);
        let read = mem.apply(ProcessId(0), Prim::Read(a));
        let write = mem.apply(ProcessId(0), Prim::Write(a, 9));
        let cas = mem.apply(
            ProcessId(1),
            Prim::Cas {
                obj: a,
                expected: 9,
                new: 12,
            },
        );
        assert_eq!(mem.peek(a), 12);
        assert_eq!(mem.steps(), 3);
        mem.undo(&cas); // successful CAS
        assert_eq!((mem.peek(a), mem.steps()), (9, 2));
        mem.undo(&write);
        assert_eq!((mem.peek(a), mem.steps()), (3, 1));
        mem.undo(&read); // no value change
        assert_eq!((mem.peek(a), mem.steps()), (3, 0));
        // The undone steps' indices are taken again.
        assert_eq!(mem.apply(ProcessId(2), Prim::Read(a)).seq, 0);
    }

    #[test]
    fn undo_restores_failed_cas_without_changing_value() {
        let mut mem = Memory::new();
        let a = mem.alloc(5);
        let ev = mem.apply(
            ProcessId(0),
            Prim::Cas {
                obj: a,
                expected: 3,
                new: 9,
            },
        );
        assert_eq!(mem.peek(a), 5);
        mem.undo(&ev);
        assert_eq!(mem.peek(a), 5);
        assert_eq!(mem.steps(), 0);
    }

    #[test]
    #[should_panic(expected = "undo takes back the last step")]
    fn undoing_a_step_that_is_not_the_last_panics() {
        let mut mem = Memory::new();
        let a = mem.alloc(0);
        let first = mem.apply(ProcessId(0), Prim::Write(a, 1));
        mem.apply(ProcessId(1), Prim::Write(a, 2));
        mem.undo(&first);
    }

    #[test]
    #[should_panic(expected = "reset snapshot")]
    fn reset_rejects_mismatched_snapshot() {
        let mut mem = Memory::new();
        let _ = mem.alloc(0);
        mem.reset_to(&[]);
    }
}
