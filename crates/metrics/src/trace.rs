//! `ruo_trace` — per-operation step tracing and trace export.
//!
//! The paper's complexity measure is *steps*: shared-memory events
//! charged to the operation that issued them. This module turns raw
//! executions into that measure, in both execution worlds:
//!
//! * **Sim world** — [`trace_execution`] attributes every
//!   [`Event`] of an [`EventLog`] to the operation that
//!   was in flight when it was issued, reconstructing a full
//!   [`StepTrace`] (per-op step counts, CAS success/failure split,
//!   propagation depth) from the log and [`History`] alone.
//! * **Threaded world** — the
//!   [`stepcount`](ruo_sim::stepcount) counting layer tallies primitive
//!   events per thread into the same [`OpCounts`] tally the sim world
//!   classifies its events into, so both worlds aggregate into one
//!   [`StepStats`] shape.
//!
//! On top sit two exporters: [`StepTrace::to_jsonl`] (a line-oriented
//! `ruo-trace-v1` stream for machine consumption) and
//! [`StepTrace::to_chrome_trace`] (Chrome `trace_event` JSON, so a
//! schedule from the explorer or a crash replay opens directly in
//! `chrome://tracing` / Perfetto with one track per process).

use std::collections::BTreeSet;

use ruo_sim::history::{History, OpDesc};
use ruo_sim::stepcount::OpCounts;
use ruo_sim::{Event, EventLog};

use crate::json::Json;

/// Stable machine-readable name for an operation kind, used as the
/// per-kind key in [`StepStats`] and in exported traces.
pub fn op_kind(desc: &OpDesc) -> &'static str {
    match desc {
        OpDesc::WriteMax(_) => "write_max",
        OpDesc::ReadMax => "read_max",
        OpDesc::CounterIncrement => "counter_increment",
        OpDesc::CounterRead => "counter_read",
        OpDesc::Update(_) => "update",
        OpDesc::Scan => "scan",
    }
}

/// Aggregate step statistics for one operation kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindStats {
    /// Number of operations observed.
    pub ops: u64,
    /// Total steps across all of them.
    pub total: u64,
    /// Worst-case (maximum) steps of a single operation.
    pub max: u64,
    /// Best-case (minimum) steps of a single operation.
    pub min: u64,
}

impl KindStats {
    /// Mean steps per operation (`0.0` when no ops were recorded).
    pub fn mean(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.total as f64 / self.ops as f64
        }
    }
}

/// Per-operation-kind step statistics plus a primitive-event breakdown —
/// the one `steps` shape all three scenario engines report.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StepStats {
    kinds: Vec<(String, KindStats)>,
    /// Primitive-event breakdown over everything recorded.
    pub prims: OpCounts,
}

impl StepStats {
    /// An empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty() && self.prims == OpCounts::new()
    }

    /// Per-kind statistics, sorted by kind name.
    pub fn per_op(&self) -> &[(String, KindStats)] {
        &self.kinds
    }

    fn entry(&mut self, kind: &str) -> &mut KindStats {
        match self.kinds.binary_search_by(|(k, _)| k.as_str().cmp(kind)) {
            Ok(i) => &mut self.kinds[i].1,
            Err(i) => {
                self.kinds
                    .insert(i, (kind.to_string(), KindStats::default()));
                &mut self.kinds[i].1
            }
        }
    }

    /// Installs (replacing any existing entry) the aggregate for one
    /// kind — used by report decoders reconstructing a `StepStats`.
    pub fn insert_kind(&mut self, kind: &str, stats: KindStats) {
        *self.entry(kind) = stats;
    }

    /// Records one operation of `kind` that took `steps` steps.
    pub fn record_op(&mut self, kind: &str, steps: u64) {
        let s = self.entry(kind);
        if s.ops == 0 {
            s.max = steps;
            s.min = steps;
        } else {
            s.max = s.max.max(steps);
            s.min = s.min.min(steps);
        }
        s.ops += 1;
        s.total += steps;
    }

    /// Records a per-operation primitive tally (also folded into
    /// [`prims`](StepStats::prims)).
    pub fn record_prims(&mut self, counts: &OpCounts) {
        self.prims.add(counts);
    }

    /// Records every operation of a sim-world history (steps only — feed
    /// the matching [`EventLog`] to [`record_events`](Self::record_events)
    /// for the primitive breakdown).
    pub fn record_history(&mut self, history: &History) {
        for op in history {
            self.record_op(op_kind(&op.desc), op.steps as u64);
        }
    }

    /// Folds an event log into the primitive-event breakdown.
    pub fn record_events(&mut self, log: &EventLog) {
        for ev in log {
            self.prims.add_event(ev);
        }
    }

    /// Merges another aggregate into this one.
    pub fn merge(&mut self, other: &StepStats) {
        for (kind, s) in &other.kinds {
            let e = self.entry(kind);
            if e.ops == 0 {
                *e = *s;
            } else if s.ops > 0 {
                e.ops += s.ops;
                e.total += s.total;
                e.max = e.max.max(s.max);
                e.min = e.min.min(s.min);
            }
        }
        self.prims.add(&other.prims);
    }

    /// Worst-case steps observed for `kind`, if any op of that kind ran.
    pub fn max_steps(&self, kind: &str) -> Option<u64> {
        self.kinds
            .binary_search_by(|(k, _)| k.as_str().cmp(kind))
            .ok()
            .map(|i| self.kinds[i].1.max)
    }
}

/// One shared-memory event attributed to an operation in a [`StepTrace`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global position in the execution.
    pub seq: usize,
    /// `"read"`, `"write"`, `"cas_ok"` or `"cas_fail"`.
    pub kind: &'static str,
    /// The base object accessed.
    pub obj: u64,
    /// Object value immediately before the event.
    pub prev: i64,
    /// Response returned to the process.
    pub resp: i64,
}

impl TraceEvent {
    fn classify(ev: &Event) -> &'static str {
        if ev.prim.is_read() {
            "read"
        } else if ev.prim.is_write() {
            "write"
        } else if ev.cas_succeeded() {
            "cas_ok"
        } else {
            "cas_fail"
        }
    }

    fn from_event(ev: &Event) -> Self {
        TraceEvent {
            seq: ev.seq,
            kind: Self::classify(ev),
            obj: ev.obj().index() as u64,
            prev: ev.prev,
            resp: ev.resp,
        }
    }
}

/// One operation of a traced execution, with its attributed events.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TracedOp {
    /// Issuing process.
    pub pid: usize,
    /// Machine-readable kind (see [`op_kind`]).
    pub kind: &'static str,
    /// Human-readable label, e.g. `WriteMax(5)`.
    pub label: String,
    /// Global event tick of invocation.
    pub invoke: usize,
    /// Global event tick of response (`None` while pending — a crash or
    /// truncated schedule left the op in flight).
    pub response: Option<usize>,
    /// Steps (shared-memory events) the op issued.
    pub steps: u64,
    /// Primitive breakdown of those steps.
    pub prims: OpCounts,
    /// Number of *distinct* base objects touched — for tree-structured
    /// objects this is the propagation depth of the operation.
    pub depth: usize,
    /// The attributed events, in execution order.
    pub events: Vec<TraceEvent>,
}

/// A fully attributed execution: every op with its events, exportable as
/// JSONL or Chrome `trace_event` JSON.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StepTrace {
    /// Traced operations, in invocation order.
    pub ops: Vec<TracedOp>,
}

/// Attributes every event of `log` to the operation that issued it.
///
/// Attribution is exact, not heuristic: a process executes its
/// operations sequentially, so partitioning its events (in log order)
/// into consecutive runs of [`OpRecord::steps`](ruo_sim::OpRecord)
/// events — ops taken in invocation order — reproduces exactly which op
/// issued which event, including zero-step ops (which get an empty run).
pub fn trace_execution(log: &EventLog, history: &History) -> StepTrace {
    // Per-pid cursor into that process's events.
    let mut by_pid: std::collections::BTreeMap<usize, Vec<&Event>> = Default::default();
    for ev in log {
        by_pid.entry(ev.pid.index()).or_default().push(ev);
    }
    let mut cursor: std::collections::BTreeMap<usize, usize> = Default::default();
    let mut ops = Vec::with_capacity(history.len());
    for op in history {
        let pid = op.pid.index();
        let evs = by_pid.get(&pid).map(|v| v.as_slice()).unwrap_or(&[]);
        let start = cursor.entry(pid).or_insert(0);
        let end = (*start + op.steps).min(evs.len());
        let slice = &evs[*start..end];
        *start = end;
        let mut prims = OpCounts::new();
        let mut objects = BTreeSet::new();
        let events: Vec<TraceEvent> = slice
            .iter()
            .map(|ev| {
                objects.insert(ev.obj());
                prims.add_event(ev);
                TraceEvent::from_event(ev)
            })
            .collect();
        ops.push(TracedOp {
            pid,
            kind: op_kind(&op.desc),
            label: op.desc.to_string(),
            invoke: op.invoke,
            response: op.response,
            steps: op.steps as u64,
            prims,
            depth: objects.len(),
            events,
        });
    }
    StepTrace { ops }
}

/// Wraps Chrome `trace_event` records in the "JSON object format"
/// document that `chrome://tracing` and Perfetto open directly (one
/// line plus a trailing newline). Shared by [`StepTrace`] and the serve
/// span exporter.
pub fn chrome_trace(events: Vec<Json>) -> String {
    let doc = Json::obj([
        ("displayTimeUnit", Json::from("ms")),
        ("traceEvents", Json::Arr(events)),
    ]);
    doc.compact() + "\n"
}

impl StepTrace {
    /// Aggregates the trace into [`StepStats`].
    pub fn stats(&self) -> StepStats {
        let mut stats = StepStats::new();
        for op in &self.ops {
            stats.record_op(op.kind, op.steps);
            stats.record_prims(&op.prims);
        }
        stats
    }

    /// Serializes the trace as a `ruo-trace-v1` JSONL stream: one header
    /// line, then one line per op, then one line per attributed event.
    pub fn to_jsonl(&self) -> String {
        let events: usize = self.ops.iter().map(|o| o.events.len()).sum();
        let mut lines = vec![Json::obj([
            ("schema", Json::from("ruo-trace-v1")),
            ("ops", Json::from(self.ops.len())),
            ("events", Json::from(events)),
        ])];
        for (id, op) in self.ops.iter().enumerate() {
            let mut fields = vec![
                ("type", Json::from("op")),
                ("id", Json::from(id)),
                ("pid", Json::from(op.pid)),
                ("op", Json::from(op.kind)),
                ("label", Json::from(op.label.as_str())),
                ("invoke", Json::from(op.invoke)),
            ];
            if let Some(r) = op.response {
                fields.push(("response", Json::from(r)));
            }
            fields.extend([
                ("steps", Json::from(op.steps)),
                ("reads", Json::from(op.prims.reads)),
                ("writes", Json::from(op.prims.writes)),
                ("cas_ok", Json::from(op.prims.cas_ok)),
                ("cas_fail", Json::from(op.prims.cas_fail)),
                ("objects", Json::from(op.depth)),
            ]);
            lines.push(Json::obj(fields));
        }
        for (id, op) in self.ops.iter().enumerate() {
            for ev in &op.events {
                lines.push(Json::obj([
                    ("type", Json::from("event")),
                    ("op", Json::from(id)),
                    ("seq", Json::from(ev.seq)),
                    ("pid", Json::from(op.pid)),
                    ("kind", Json::from(ev.kind)),
                    ("obj", Json::from(ev.obj)),
                    ("prev", Json::from(ev.prev)),
                    ("resp", Json::from(ev.resp)),
                ]));
            }
        }
        lines.iter().map(|l| l.compact() + "\n").collect()
    }

    /// Serializes the trace as Chrome `trace_event` JSON (the
    /// "JSON object format"): complete (`"ph":"X"`) events with one
    /// track (`tid`) per process, timestamps in execution ticks. Opens
    /// directly in `chrome://tracing` or Perfetto.
    pub fn to_chrome_trace(&self) -> String {
        let mut events = Vec::new();
        for op in &self.ops {
            // Pending ops stretch to their last attributed event (or one
            // tick) and are flagged in args.
            let (end, pending) = match op.response {
                Some(r) => (r, false),
                None => (
                    op.events.last().map(|e| e.seq + 1).unwrap_or(op.invoke + 1),
                    true,
                ),
            };
            events.push(Json::obj([
                ("name", Json::from(op.label.as_str())),
                ("cat", Json::from(op.kind)),
                ("ph", Json::from("X")),
                ("ts", Json::from(op.invoke)),
                ("dur", Json::from(end.saturating_sub(op.invoke).max(1))),
                ("pid", Json::from(0u64)),
                ("tid", Json::from(op.pid)),
                (
                    "args",
                    Json::obj([
                        ("steps", Json::from(op.steps)),
                        ("reads", Json::from(op.prims.reads)),
                        ("writes", Json::from(op.prims.writes)),
                        ("cas_ok", Json::from(op.prims.cas_ok)),
                        ("cas_fail", Json::from(op.prims.cas_fail)),
                        ("objects", Json::from(op.depth)),
                        ("pending", Json::from(pending)),
                    ]),
                ),
            ]));
            for ev in &op.events {
                events.push(Json::obj([
                    ("name", Json::from(format!("{} obj{}", ev.kind, ev.obj))),
                    ("cat", Json::from("prim")),
                    ("ph", Json::from("X")),
                    ("ts", Json::from(ev.seq)),
                    ("dur", Json::from(1u64)),
                    ("pid", Json::from(0u64)),
                    ("tid", Json::from(op.pid)),
                    (
                        "args",
                        Json::obj([
                            ("obj", Json::from(ev.obj)),
                            ("prev", Json::from(ev.prev)),
                            ("resp", Json::from(ev.resp)),
                        ]),
                    ),
                ]));
            }
        }
        chrome_trace(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruo_sim::{access, Machine, Memory, OpOutput, OpRecord, Prim, ProcessId};

    fn run_to_completion(
        mem: &mut Memory,
        log: &mut EventLog,
        pid: ProcessId,
        mut m: Machine,
        history: &mut History,
        desc: OpDesc,
    ) {
        let invoke = log.len();
        while !m.is_done() {
            let prim = m.enabled().expect("machine running");
            let ev = mem.apply(pid, prim);
            log.push(ev);
            m.feed(ev.resp);
        }
        let response = log.len().max(invoke + 1);
        history.push(OpRecord {
            pid,
            desc,
            invoke,
            response: Some(response),
            output: m.result().map(OpOutput::Value),
            steps: response - invoke,
        });
    }

    fn sample() -> (EventLog, History) {
        let mut mem = Memory::new();
        let mut log = EventLog::new();
        let cell = mem.alloc(0);
        let mut history = History::new();
        // p0: read cell, CAS 0 -> 7 (succeeds).
        run_to_completion(
            &mut mem,
            &mut log,
            ProcessId(0),
            Machine::new(async move {
                let v = access(Prim::Read(cell)).await;
                access(Prim::Cas {
                    obj: cell,
                    expected: v,
                    new: 7,
                })
                .await
            }),
            &mut history,
            OpDesc::WriteMax(7),
        );
        // p1: CAS 0 -> 9 (fails — cell is 7), then write 9.
        run_to_completion(
            &mut mem,
            &mut log,
            ProcessId(1),
            Machine::new(async move {
                let cas = Prim::Cas {
                    obj: cell,
                    expected: 0,
                    new: 9,
                };
                access(cas).await;
                access(Prim::Write(cell, 9)).await;
                9
            }),
            &mut history,
            OpDesc::WriteMax(9),
        );
        // p0: one read.
        run_to_completion(
            &mut mem,
            &mut log,
            ProcessId(0),
            Machine::single(Prim::Read(cell), |v| v),
            &mut history,
            OpDesc::ReadMax,
        );
        (log, history)
    }

    #[test]
    fn attribution_partitions_each_process_exactly() {
        let (log, history) = sample();
        let trace = trace_execution(&log, &history);
        assert_eq!(trace.ops.len(), 3);
        let total: usize = trace.ops.iter().map(|o| o.events.len()).sum();
        assert_eq!(total, log.len());
        // First op: read + successful CAS.
        assert_eq!(trace.ops[0].prims.reads, 1);
        assert_eq!(trace.ops[0].prims.cas_ok, 1);
        // Second op: failed CAS + write.
        assert_eq!(trace.ops[1].prims.cas_fail, 1);
        assert_eq!(trace.ops[1].prims.writes, 1);
        // Third op: one read, same pid as the first — the cursor must
        // have advanced past op 0's events.
        assert_eq!(trace.ops[2].prims.reads, 1);
        assert_eq!(trace.ops[2].events[0].prev, 9);
        // Events attributed to an op belong to its process.
        for op in &trace.ops {
            assert!(op
                .events
                .iter()
                .all(|e| { log.events()[e.seq].pid.index() == op.pid }));
        }
    }

    #[test]
    fn stats_aggregate_matches_trace() {
        let (log, history) = sample();
        let trace = trace_execution(&log, &history);
        let stats = trace.stats();
        assert_eq!(stats.max_steps("write_max"), Some(2));
        assert_eq!(stats.max_steps("read_max"), Some(1));
        assert_eq!(stats.prims.steps(), log.len() as u64);
        let wm = &stats.per_op()[stats
            .per_op()
            .iter()
            .position(|(k, _)| k == "write_max")
            .unwrap()]
        .1;
        assert_eq!(wm.ops, 2);
        assert_eq!(wm.total, 4);
        assert_eq!(wm.min, 2);
    }

    #[test]
    fn merge_combines_min_max_and_prims() {
        let mut a = StepStats::new();
        a.record_op("read_max", 1);
        a.record_op("write_max", 10);
        a.record_prims(&OpCounts {
            reads: 5,
            writes: 3,
            cas_ok: 2,
            cas_fail: 1,
        });
        let mut b = StepStats::new();
        b.record_op("write_max", 4);
        b.record_op("scan", 7);
        b.record_prims(&OpCounts {
            reads: 1,
            writes: 0,
            cas_ok: 0,
            cas_fail: 0,
        });
        a.merge(&b);
        assert_eq!(a.max_steps("write_max"), Some(10));
        let wm = a.per_op().iter().find(|(k, _)| k == "write_max").unwrap().1;
        assert_eq!(wm.min, 4);
        assert_eq!(wm.ops, 2);
        assert_eq!(a.prims.reads, 6);
        assert_eq!(a.max_steps("scan"), Some(7));
        assert_eq!(a.max_steps("update"), None);
    }

    #[test]
    fn kinds_stay_sorted_and_mean_is_exact() {
        let mut s = StepStats::new();
        s.record_op("scan", 3);
        s.record_op("read_max", 1);
        s.record_op("counter_read", 1);
        s.record_op("scan", 5);
        let keys: Vec<&str> = s.per_op().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["counter_read", "read_max", "scan"]);
        let scan = s.per_op().iter().find(|(k, _)| k == "scan").unwrap().1;
        assert_eq!(scan.mean(), 4.0);
        assert_eq!(KindStats::default().mean(), 0.0);
    }

    #[test]
    fn op_counts_adopt_into_prim_counts() {
        // A real thread's tally folds into the breakdown sim events do.
        let c = OpCounts {
            reads: 2,
            writes: 3,
            cas_ok: 4,
            cas_fail: 5,
        };
        let mut s = StepStats::new();
        s.record_prims(&c);
        s.record_prims(&c);
        assert_eq!(s.prims.steps(), 28);
        assert_eq!(s.prims.cas_fail, 10);
    }

    #[test]
    fn jsonl_carries_header_ops_and_events() {
        let (log, history) = sample();
        let trace = trace_execution(&log, &history);
        let jsonl = trace.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 1 + 3 + log.len());
        assert!(lines[0].contains("\"schema\":\"ruo-trace-v1\""));
        assert!(lines[0].contains("\"ops\":3"));
        assert!(lines[1].contains("\"type\":\"op\""));
        assert!(lines[1].contains("\"label\":\"WriteMax(7)\""));
        assert!(lines[4].contains("\"type\":\"event\""));
        // Every line is a self-contained JSON object.
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn chrome_trace_has_one_slice_per_op_and_event() {
        let (log, history) = sample();
        let trace = trace_execution(&log, &history);
        let chrome = trace.to_chrome_trace();
        assert!(chrome.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert_eq!(chrome.matches("\"ph\":\"X\"").count(), 3 + log.len());
        assert_eq!(chrome.matches("\"cat\":\"prim\"").count(), log.len());
        assert!(chrome.contains("\"pending\":false"));
    }

    #[test]
    fn pending_op_stretches_to_its_last_event() {
        let mut mem = Memory::new();
        let mut log = EventLog::new();
        let cell = mem.alloc(0);
        let pid = ProcessId(3);
        // Two steps issued, never completed.
        let mut m = Machine::new(async move {
            let v = access(Prim::Read(cell)).await;
            access(Prim::Write(cell, v + 1)).await;
            0
        });
        for _ in 0..2 {
            let prim = m.enabled().unwrap();
            let ev = mem.apply(pid, prim);
            log.push(ev);
            m.feed(ev.resp);
        }
        let mut history = History::new();
        history.push(OpRecord {
            pid,
            desc: OpDesc::CounterIncrement,
            invoke: 0,
            response: None,
            output: None,
            steps: 2,
        });
        let trace = trace_execution(&log, &history);
        assert_eq!(trace.ops[0].events.len(), 2);
        let chrome = trace.to_chrome_trace();
        assert!(chrome.contains("\"pending\":true"));
        let jsonl = trace.to_jsonl();
        assert!(!jsonl.lines().next().unwrap().contains("\"response\""));
    }
}
