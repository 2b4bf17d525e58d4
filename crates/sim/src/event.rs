//! Shared-memory events and the execution log.
//!
//! The paper reasons about *executions*: sequences of events, each of
//! which applies one primitive to one base object.
//! [`Memory::apply`](crate::Memory::apply) returns each step's [`Event`]
//! and keeps none; [`EventLog`] is the sequence, kept by the code that
//! reads an execution (the log a caller hands
//! [`Executor::run_recorded`](crate::Executor::run_recorded), a test's
//! own loop). An event carries enough information (value before/after, CAS
//! success) for the information-flow analysis in `ruo-lowerbound` to
//! recompute visibility, awareness and familiarity per Definitions 1–4.

use crate::{ObjId, ProcessId, Word};

/// A primitive operation applied to a base object.
///
/// These are the only means of manipulating base objects in the model
/// (Section 2 of the paper): `read`, `write`, and compare-and-swap.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Prim {
    /// Read the object's value.
    Read(ObjId),
    /// Write a value to the object.
    Write(ObjId, Word),
    /// `CAS(obj, expected, new)`: atomically replace the value with `new`
    /// if it currently equals `expected`. Responds `1` on success and `0`
    /// on failure.
    Cas {
        /// Target object.
        obj: ObjId,
        /// Value the object must currently hold for the swap to happen.
        expected: Word,
        /// Value installed on success.
        new: Word,
    },
}

impl Prim {
    /// The base object this primitive accesses.
    #[inline]
    pub fn obj(&self) -> ObjId {
        match *self {
            Prim::Read(o) => o,
            Prim::Write(o, _) => o,
            Prim::Cas { obj, .. } => obj,
        }
    }

    /// Whether this primitive is a read.
    #[inline]
    pub fn is_read(&self) -> bool {
        matches!(self, Prim::Read(_))
    }

    /// Whether this primitive is a write.
    #[inline]
    pub fn is_write(&self) -> bool {
        matches!(self, Prim::Write(..))
    }

    /// Whether this primitive is a CAS.
    #[inline]
    pub fn is_cas(&self) -> bool {
        matches!(self, Prim::Cas { .. })
    }

    /// Whether applying this primitive to an object currently holding
    /// `current` would leave the object's value unchanged (a *trivial*
    /// event in the paper's terminology).
    #[inline]
    pub fn is_trivial_against(&self, current: Word) -> bool {
        match *self {
            Prim::Read(_) => true,
            Prim::Write(_, v) => v == current,
            Prim::Cas { expected, new, .. } => expected != current || new == current,
        }
    }
}

/// One shared-memory event: a primitive applied by a process, together
/// with everything the analysis later needs (previous value, response,
/// whether the value changed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Position of this event in the execution (0-based).
    pub seq: usize,
    /// The process that issued the event.
    pub pid: ProcessId,
    /// The primitive applied.
    pub prim: Prim,
    /// Value of the object immediately before the event.
    pub prev: Word,
    /// Response returned to the process (read: the value; write: `0`;
    /// CAS: `1` on success, `0` on failure).
    pub resp: Word,
}

impl Event {
    /// The object this event accessed.
    #[inline]
    pub fn obj(&self) -> ObjId {
        self.prim.obj()
    }

    /// The object's value immediately after this event.
    #[inline]
    pub fn next_value(&self) -> Word {
        match self.prim {
            Prim::Read(_) => self.prev,
            Prim::Write(_, v) => v,
            Prim::Cas { new, .. } => {
                if self.resp == 1 {
                    new
                } else {
                    self.prev
                }
            }
        }
    }

    /// Whether the event changed the object's value. Events that do not
    /// are *trivial* (Section 2): reads, failed CASes, writes of the
    /// current value, and successful CASes where `new == expected`.
    #[inline]
    pub fn is_trivial(&self) -> bool {
        self.next_value() == self.prev
    }

    /// Whether the event is a write or CAS (trivial or not) — the event
    /// kinds that can make an object *familiar* with a process (Def. 4).
    #[inline]
    pub fn is_mutation_kind(&self) -> bool {
        !self.prim.is_read()
    }
}

/// An execution: the events applied to a [`Memory`](crate::Memory) from
/// its initial configuration, in order, so that each event's `seq` is
/// its position.
#[derive(Clone, Debug, Default)]
pub struct EventLog {
    events: Vec<Event>,
}

impl EventLog {
    /// Creates an empty log (the paper's `⊥`, the empty execution).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the next event of the execution.
    ///
    /// # Panics
    ///
    /// Panics if the event's `seq` is not its position in the log, that
    /// is, if it is not the step right after the last one logged.
    pub fn push(&mut self, ev: Event) {
        assert_eq!(
            ev.seq,
            self.events.len(),
            "an event's seq must be its position in the log"
        );
        self.events.push(ev);
    }

    /// Number of events in the execution.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the execution is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events, in execution order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Iterate over the events of one process, in order.
    pub fn events_of(&self, pid: ProcessId) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(move |e| e.pid == pid)
    }

    /// Number of steps (events) process `pid` has taken.
    pub fn steps_of(&self, pid: ProcessId) -> usize {
        self.events_of(pid).count()
    }
}

impl<'a> IntoIterator for &'a EventLog {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: usize, pid: usize, prim: Prim, prev: Word, resp: Word) -> Event {
        Event {
            seq,
            pid: ProcessId(pid),
            prim,
            prev,
            resp,
        }
    }

    #[test]
    fn read_events_are_trivial() {
        let e = ev(0, 0, Prim::Read(ObjId(0)), 7, 7);
        assert!(e.is_trivial());
        assert_eq!(e.next_value(), 7);
        assert!(!e.is_mutation_kind());
    }

    #[test]
    fn write_of_same_value_is_trivial() {
        let e = ev(0, 0, Prim::Write(ObjId(0), 7), 7, 0);
        assert!(e.is_trivial());
        assert!(e.is_mutation_kind());
    }

    #[test]
    fn write_of_new_value_changes_object() {
        let e = ev(0, 0, Prim::Write(ObjId(0), 9), 7, 0);
        assert!(!e.is_trivial());
        assert_eq!(e.next_value(), 9);
    }

    #[test]
    fn failed_cas_is_trivial() {
        let e = ev(
            0,
            0,
            Prim::Cas {
                obj: ObjId(0),
                expected: 3,
                new: 9,
            },
            7,
            0,
        );
        assert!(e.is_trivial());
        assert_eq!(e.next_value(), 7);
    }

    #[test]
    fn successful_cas_changes_object() {
        let e = ev(
            0,
            0,
            Prim::Cas {
                obj: ObjId(0),
                expected: 7,
                new: 9,
            },
            7,
            1,
        );
        assert!(!e.is_trivial());
        assert_eq!(e.next_value(), 9);
    }

    #[test]
    fn trivial_against_matches_event_semantics() {
        assert!(Prim::Read(ObjId(0)).is_trivial_against(5));
        assert!(Prim::Write(ObjId(0), 5).is_trivial_against(5));
        assert!(!Prim::Write(ObjId(0), 6).is_trivial_against(5));
        let cas = Prim::Cas {
            obj: ObjId(0),
            expected: 5,
            new: 6,
        };
        assert!(!cas.is_trivial_against(5));
        assert!(cas.is_trivial_against(4));
        let noop_cas = Prim::Cas {
            obj: ObjId(0),
            expected: 5,
            new: 5,
        };
        assert!(noop_cas.is_trivial_against(5));
    }

    #[test]
    fn log_tracks_per_process_steps() {
        let mut log = EventLog::new();
        log.push(ev(0, 0, Prim::Read(ObjId(0)), 0, 0));
        log.push(ev(1, 1, Prim::Write(ObjId(0), 2), 0, 0));
        log.push(ev(2, 0, Prim::Read(ObjId(0)), 2, 2));
        assert_eq!(log.len(), 3);
        assert_eq!(log.steps_of(ProcessId(0)), 2);
        assert_eq!(log.steps_of(ProcessId(1)), 1);
        assert_eq!(log.steps_of(ProcessId(9)), 0);
    }

    #[test]
    #[should_panic(expected = "seq must be its position")]
    fn push_rejects_an_out_of_order_seq() {
        let mut log = EventLog::new();
        log.push(ev(0, 0, Prim::Read(ObjId(0)), 0, 0));
        log.push(ev(2, 1, Prim::Read(ObjId(0)), 0, 0));
    }
}
