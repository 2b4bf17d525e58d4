//! Invocation/response histories for linearizability checking.
//!
//! The executor records, for every operation instance, the interval
//! `[invoke, response)` measured in *global event ticks* (step indices of
//! the execution: `invoke` is the memory's step count just before the
//! operation's first event, `response` the step count just after its
//! last).
//! Operation `a` *precedes* operation `b` exactly when
//! `a.response <= b.invoke`, matching the paper's definition
//! ("Φ1 precedes Φ2 in E if Φ1 completes in E before the first event of
//! Φ2 has been issued").

use std::fmt;

use crate::{ProcessId, Word};

/// What kind of high-level operation an [`OpRecord`] describes.
///
/// These are the operations of the paper's three object families
/// (Section 2): max registers, counters, and single-writer snapshots.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum OpDesc {
    /// `WriteMax(v)` on a max register.
    WriteMax(Word),
    /// `ReadMax()` on a max register.
    ReadMax,
    /// `CounterIncrement()` on a counter.
    CounterIncrement,
    /// `CounterRead()` on a counter.
    CounterRead,
    /// `Update(v)` of the caller's segment of a single-writer snapshot.
    Update(Word),
    /// `Scan()` of a snapshot.
    Scan,
}

impl OpDesc {
    /// Whether this is an update-type operation (one that mutates the
    /// object). A *pending* update may already have taken effect, so
    /// stripping it from a history is unsound; see
    /// [`History::strip_pending`].
    pub fn is_update(&self) -> bool {
        matches!(
            self,
            OpDesc::WriteMax(_) | OpDesc::CounterIncrement | OpDesc::Update(_)
        )
    }

    /// Whether this is a read-type operation (one that only observes the
    /// object). A pending read returned nothing to anyone; dropping it
    /// from a history is always sound.
    pub fn is_read(&self) -> bool {
        !self.is_update()
    }
}

impl fmt::Display for OpDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpDesc::WriteMax(v) => write!(f, "WriteMax({v})"),
            OpDesc::ReadMax => write!(f, "ReadMax"),
            OpDesc::CounterIncrement => write!(f, "CounterIncrement"),
            OpDesc::CounterRead => write!(f, "CounterRead"),
            OpDesc::Update(v) => write!(f, "Update({v})"),
            OpDesc::Scan => write!(f, "Scan"),
        }
    }
}

/// The value an operation returned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpOutput {
    /// No meaningful return value (writes, increments, updates).
    Unit,
    /// A single word (reads).
    Value(Word),
    /// A vector of segment values (scans).
    Vector(Vec<Word>),
}

impl OpOutput {
    /// The single-word value, if this output is one.
    pub fn value(&self) -> Option<Word> {
        match self {
            OpOutput::Value(v) => Some(*v),
            _ => None,
        }
    }

    /// The vector value, if this output is one.
    pub fn vector(&self) -> Option<&[Word]> {
        match self {
            OpOutput::Vector(v) => Some(v),
            _ => None,
        }
    }
}

impl fmt::Display for OpOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpOutput::Unit => write!(f, "()"),
            OpOutput::Value(v) => write!(f, "{v}"),
            OpOutput::Vector(v) => write!(f, "{v:?}"),
        }
    }
}

/// One completed (or still-pending) operation instance in a history.
///
/// # Invariant
///
/// Every executor and explorer maintains `invoke < response` for
/// completed operations: completion consumes a tick, so even a zero-step
/// operation occupies the non-empty interval `[invoke, invoke + 1)`.
/// A zero-width interval (`response == invoke`) would make two same-tick
/// operations *mutually* precede each other under
/// [`precedes`](OpRecord::precedes), creating a precedence cycle no
/// linearization can satisfy — a spurious violation, the worst failure
/// mode a checker can have. [`crate::explore::history_is_wellformed`]
/// checks this invariant strictly.
#[derive(Clone, Debug)]
pub struct OpRecord {
    /// The process that performed the operation.
    pub pid: ProcessId,
    /// What the operation was.
    pub desc: OpDesc,
    /// Global event tick at which the operation was invoked (the
    /// memory's step count just before its first event).
    pub invoke: usize,
    /// Global event tick at which the operation responded, if it did
    /// (the step count just after its last event; always `> invoke`).
    pub response: Option<usize>,
    /// The operation's output, if it completed.
    pub output: Option<OpOutput>,
    /// Number of shared-memory steps the operation took.
    pub steps: usize,
}

impl OpRecord {
    /// Whether this operation completed.
    pub fn is_complete(&self) -> bool {
        self.response.is_some()
    }

    /// Whether `self` precedes `other` in real time (`self` responded
    /// before `other` was invoked).
    pub fn precedes(&self, other: &OpRecord) -> bool {
        match self.response {
            Some(r) => r <= other.invoke,
            None => false,
        }
    }

    /// Whether the two operations' intervals overlap (neither precedes
    /// the other).
    pub fn overlaps(&self, other: &OpRecord) -> bool {
        !self.precedes(other) && !other.precedes(self)
    }
}

/// A history: every operation instance of an execution, in invocation
/// order.
#[derive(Clone, Debug, Default)]
pub struct History {
    ops: Vec<OpRecord>,
}

impl History {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record. Records must be pushed in invocation order.
    pub fn push(&mut self, rec: OpRecord) {
        debug_assert!(self
            .ops
            .last()
            .map(|prev| prev.invoke <= rec.invoke)
            .unwrap_or(true));
        self.ops.push(rec);
    }

    /// All records in invocation order.
    pub fn ops(&self) -> &[OpRecord] {
        &self.ops
    }

    /// Mutable access for executors filling in responses.
    pub fn ops_mut(&mut self) -> &mut [OpRecord] {
        &mut self.ops
    }

    /// Number of operation instances.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the history has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Only the completed operations.
    pub fn completed(&self) -> impl Iterator<Item = &OpRecord> {
        self.ops.iter().filter(|o| o.is_complete())
    }

    /// Only the pending (invoked, never responded) operations — what a
    /// crash leaves behind.
    pub fn pending(&self) -> impl Iterator<Item = &OpRecord> {
        self.ops.iter().filter(|o| !o.is_complete())
    }

    /// Drops pending (incomplete) operations, returning a complete
    /// history.
    ///
    /// This is only sound when every pending operation is *read-type*: a
    /// pending read returned nothing to anyone, but a pending update may
    /// already have taken effect and be observed by completed reads —
    /// stripping it can turn a linearizable history into one the
    /// checkers reject (or worse, hide a real violation). Debug builds
    /// assert that contract; use [`History::strip_pending`] for the
    /// checked version, or keep the pending ops and rely on the
    /// checkers' completion rule (every checker in [`crate::lin`]
    /// handles pending updates directly).
    pub fn without_pending(&self) -> History {
        debug_assert!(
            self.pending().all(|o| o.desc.is_read()),
            "stripping a pending update-type operation is unsound; \
             use strip_pending() or pass the history to the checkers as-is"
        );
        History {
            ops: self
                .ops
                .iter()
                .filter(|o| o.is_complete())
                .cloned()
                .collect(),
        }
    }

    /// Checked version of [`History::without_pending`]: drops pending
    /// read-type operations, but refuses (with the offending operation's
    /// index) if any pending operation is update-type, since such an
    /// operation may already have taken effect.
    pub fn strip_pending(&self) -> Result<History, StripPendingError> {
        if let Some(index) = self
            .ops
            .iter()
            .position(|o| !o.is_complete() && o.desc.is_update())
        {
            return Err(StripPendingError {
                index,
                desc: self.ops[index].desc.clone(),
                pid: self.ops[index].pid,
            });
        }
        Ok(History {
            ops: self
                .ops
                .iter()
                .filter(|o| o.is_complete())
                .cloned()
                .collect(),
        })
    }
}

/// Why [`History::strip_pending`] refused: a pending update-type
/// operation may already have taken effect, so dropping it is unsound.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StripPendingError {
    /// Index (in invocation order) of the offending operation.
    pub index: usize,
    /// The pending update's description.
    pub desc: OpDesc,
    /// The process that invoked it.
    pub pid: ProcessId,
}

impl fmt::Display for StripPendingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot strip pending update-type op #{} ({} by p{}): it may already have taken effect",
            self.index, self.desc, self.pid.0
        )
    }
}

impl std::error::Error for StripPendingError {}

impl<'a> IntoIterator for &'a History {
    type Item = &'a OpRecord;
    type IntoIter = std::slice::Iter<'a, OpRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.ops.iter()
    }
}

impl FromIterator<OpRecord> for History {
    fn from_iter<T: IntoIterator<Item = OpRecord>>(iter: T) -> Self {
        let mut h = History::new();
        for rec in iter {
            h.push(rec);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(pid: usize, desc: OpDesc, invoke: usize, response: usize) -> OpRecord {
        OpRecord {
            pid: ProcessId(pid),
            desc,
            invoke,
            response: Some(response),
            output: Some(OpOutput::Unit),
            steps: response - invoke,
        }
    }

    #[test]
    fn precedence_matches_paper_definition() {
        let a = rec(0, OpDesc::CounterIncrement, 0, 2);
        let b = rec(1, OpDesc::CounterRead, 3, 5);
        assert!(a.precedes(&b));
        assert!(!b.precedes(&a));
        assert!(!a.overlaps(&b));
    }

    #[test]
    fn overlapping_intervals_do_not_precede() {
        let a = rec(0, OpDesc::CounterIncrement, 0, 4);
        let b = rec(1, OpDesc::CounterRead, 2, 6);
        assert!(a.overlaps(&b));
        assert!(!a.precedes(&b));
    }

    #[test]
    fn pending_op_precedes_nothing() {
        let pending = OpRecord {
            pid: ProcessId(0),
            desc: OpDesc::ReadMax,
            invoke: 0,
            response: None,
            output: None,
            steps: 1,
        };
        let later = rec(1, OpDesc::ReadMax, 10, 11);
        assert!(!pending.precedes(&later));
        assert!(pending.overlaps(&later));
    }

    #[test]
    fn without_pending_strips_incomplete_ops() {
        let mut h = History::new();
        h.push(rec(0, OpDesc::ReadMax, 0, 1));
        h.push(OpRecord {
            pid: ProcessId(1),
            desc: OpDesc::ReadMax,
            invoke: 2,
            response: None,
            output: None,
            steps: 0,
        });
        assert_eq!(h.len(), 2);
        assert_eq!(h.without_pending().len(), 1);
    }

    #[test]
    fn strip_pending_refuses_pending_updates() {
        let mut h = History::new();
        h.push(rec(0, OpDesc::ReadMax, 0, 1));
        h.push(OpRecord {
            pid: ProcessId(1),
            desc: OpDesc::WriteMax(7),
            invoke: 2,
            response: None,
            output: None,
            steps: 1,
        });
        let err = h.strip_pending().expect_err("pending update must refuse");
        assert_eq!(err.index, 1);
        assert_eq!(err.desc, OpDesc::WriteMax(7));
        assert_eq!(err.pid, ProcessId(1));
        assert!(err.to_string().contains("WriteMax(7)"));
    }

    #[test]
    fn strip_pending_drops_pending_reads() {
        let mut h = History::new();
        h.push(rec(0, OpDesc::WriteMax(3), 0, 1));
        h.push(OpRecord {
            pid: ProcessId(1),
            desc: OpDesc::Scan,
            invoke: 2,
            response: None,
            output: None,
            steps: 0,
        });
        let stripped = h.strip_pending().expect("pending read strips fine");
        assert_eq!(stripped.len(), 1);
        assert_eq!(stripped.ops()[0].desc, OpDesc::WriteMax(3));
    }

    #[test]
    #[should_panic(expected = "unsound")]
    #[cfg(debug_assertions)]
    fn without_pending_asserts_on_pending_updates() {
        let mut h = History::new();
        h.push(OpRecord {
            pid: ProcessId(0),
            desc: OpDesc::CounterIncrement,
            invoke: 0,
            response: None,
            output: None,
            steps: 1,
        });
        let _ = h.without_pending();
    }

    #[test]
    fn update_read_classification_covers_every_desc() {
        assert!(OpDesc::WriteMax(1).is_update());
        assert!(OpDesc::CounterIncrement.is_update());
        assert!(OpDesc::Update(2).is_update());
        assert!(OpDesc::ReadMax.is_read());
        assert!(OpDesc::CounterRead.is_read());
        assert!(OpDesc::Scan.is_read());
    }

    #[test]
    fn pending_iterator_yields_only_incomplete_ops() {
        let mut h = History::new();
        h.push(rec(0, OpDesc::ReadMax, 0, 1));
        h.push(OpRecord {
            pid: ProcessId(1),
            desc: OpDesc::WriteMax(5),
            invoke: 2,
            response: None,
            output: None,
            steps: 1,
        });
        let pending: Vec<_> = h.pending().collect();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].desc, OpDesc::WriteMax(5));
    }

    #[test]
    fn output_accessors() {
        assert_eq!(OpOutput::Value(3).value(), Some(3));
        assert_eq!(OpOutput::Unit.value(), None);
        assert_eq!(OpOutput::Vector(vec![1, 2]).vector(), Some(&[1, 2][..]));
        assert_eq!(OpOutput::Value(3).vector(), None);
    }
}
