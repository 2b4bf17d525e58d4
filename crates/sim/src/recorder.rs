//! Recording histories from *real* threads.
//!
//! The simulator's executor produces histories natively; for the
//! real-atomics implementations, [`ThreadRecorder`] time-stamps each
//! operation's invocation and response with a shared sequentially
//! consistent tick counter. The resulting [`History`] is checkable with
//! [`crate::lin`] exactly like a simulated one: if `a.response <
//! b.invoke` in recorded ticks, `a` really did complete before `b`
//! began, so any violation the checkers report is a genuine
//! linearizability bug in the implementation under test.
//!
//! ```
//! use ruo_sim::recorder::ThreadRecorder;
//! use ruo_sim::{OpDesc, OpOutput, ProcessId};
//! use ruo_sim::lin::check_interval;
//! use ruo_sim::spec::SeqSpec;
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let rec = ThreadRecorder::new();
//! let counter = AtomicU64::new(0);
//! rec.record(ProcessId(0), OpDesc::CounterIncrement, || {
//!     counter.fetch_add(1, Ordering::SeqCst);
//!     OpOutput::Unit
//! });
//! rec.record(ProcessId(1), OpDesc::CounterRead, || {
//!     OpOutput::Value(counter.load(Ordering::SeqCst) as i64)
//! });
//! assert!(check_interval(&rec.history(), &SeqSpec::Counter).is_ok());
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::history::{History, OpDesc, OpOutput, OpRecord};
use crate::stepcount::CountingMem;
use crate::ProcessId;

/// Tick-stamps operations executed by real threads into a [`History`].
#[derive(Debug, Default)]
pub struct ThreadRecorder {
    tick: AtomicUsize,
    ops: Mutex<Vec<OpRecord>>,
}

impl ThreadRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `op`, recording its interval and output. The tick counter is
    /// bumped with sequentially consistent ordering immediately before
    /// and after `op`, so recorded precedence implies real-time
    /// precedence.
    ///
    /// When the [`CountingMem`] layer is
    /// enabled, the thread-local primitive tally is reset at invocation
    /// and flushed into [`OpRecord::steps`] at response, so recorded
    /// histories carry real step counts; when disabled, `steps` is `0`.
    /// This is the single event-recording path for the threaded world.
    pub fn record(&self, pid: ProcessId, desc: OpDesc, op: impl FnOnce() -> OpOutput) {
        CountingMem::begin_op();
        let invoke = self.tick.fetch_add(1, Ordering::SeqCst);
        let output = op();
        let response = self.tick.fetch_add(1, Ordering::SeqCst);
        let steps = CountingMem::take_op_counts().steps() as usize;
        self.ops.lock().expect("recorder poisoned").push(OpRecord {
            pid,
            desc,
            invoke,
            response: Some(response),
            output: Some(output),
            steps,
        });
    }

    /// Number of operations recorded so far.
    pub fn len(&self) -> usize {
        self.ops.lock().expect("recorder poisoned").len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Extracts the history (records sorted by invocation tick).
    pub fn history(&self) -> History {
        let mut ops = self.ops.lock().expect("recorder poisoned").clone();
        ops.sort_by_key(|o| o.invoke);
        ops.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_intervals_in_order() {
        let rec = ThreadRecorder::new();
        rec.record(ProcessId(0), OpDesc::CounterIncrement, || OpOutput::Unit);
        rec.record(ProcessId(1), OpDesc::CounterRead, || OpOutput::Value(1));
        let h = rec.history();
        assert_eq!(h.len(), 2);
        assert!(h.ops()[0].precedes(&h.ops()[1]));
        assert_eq!(rec.len(), 2);
        assert!(!rec.is_empty());
    }

    #[test]
    fn concurrent_records_get_unique_ticks() {
        let rec = std::sync::Arc::new(ThreadRecorder::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let rec = std::sync::Arc::clone(&rec);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        rec.record(ProcessId(t), OpDesc::CounterIncrement, || OpOutput::Unit);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let h = rec.history();
        assert_eq!(h.len(), 400);
        let mut ticks: Vec<usize> = h
            .ops()
            .iter()
            .flat_map(|o| [o.invoke, o.response.unwrap()])
            .collect();
        ticks.sort_unstable();
        ticks.dedup();
        assert_eq!(ticks.len(), 800, "ticks must be unique");
    }

    #[test]
    fn counting_layer_flushes_steps_into_records() {
        let _g = crate::stepcount::test_lock();
        let rec = ThreadRecorder::new();
        let cell = crate::stepcount::CountingU64::new(0);
        CountingMem::enable();
        rec.record(ProcessId(0), OpDesc::CounterIncrement, || {
            let v = cell.load(Ordering::SeqCst);
            cell.store(v + 1, Ordering::SeqCst);
            OpOutput::Unit
        });
        CountingMem::disable();
        rec.record(ProcessId(0), OpDesc::CounterRead, || {
            OpOutput::Value(cell.load(Ordering::SeqCst) as i64)
        });
        let h = rec.history();
        assert_eq!(h.ops()[0].steps, 2, "load + store while enabled");
        assert_eq!(h.ops()[1].steps, 0, "counting disabled");
    }

    #[test]
    fn sequential_ops_of_one_thread_never_overlap() {
        let rec = ThreadRecorder::new();
        for _ in 0..5 {
            rec.record(ProcessId(0), OpDesc::CounterIncrement, || OpOutput::Unit);
        }
        let h = rec.history();
        for w in h.ops().windows(2) {
            assert!(w[0].precedes(&w[1]));
        }
    }
}
