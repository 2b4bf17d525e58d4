//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is a name, a layer, a start and an end, and the span that
//! caused it. Spans are kept in memory and written out once, at exit,
//! as JSONL and as a Chrome `trace_event` file. A layer's self time is
//! the time its spans cover minus the part their child spans cover.
//!
//! Recording is decided per round: a round records either all of its
//! spans or none, so a round's self time never loses its children. Once
//! [`SPAN_BUDGET`] spans are held a traced run starts no further round,
//! which bounds the memory and the files of a long traced run.

use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Spans held before a traced run starts no further round.
pub const SPAN_BUDGET: usize = 200_000;

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id (`0` is reserved for "no parent").
    pub id: u64,
    /// The causing span's id, or `0` for a root.
    pub parent: u64,
    /// What was timed.
    pub name: &'static str,
    /// The workspace layer the timed call enters.
    pub layer: &'static str,
    /// Recording thread (workload-local numbering).
    pub tid: u32,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// For a client request: the client id and its request sequence
    /// number, which together identify the request.
    pub req: Option<(u64, u64)>,
}

/// The shared recorder of one run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; with `enabled` false every round is unrecorded.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether a round starting now records its spans.
    pub fn round_records(&self) -> bool {
        self.enabled && self.spans.lock().expect("span store poisoned").len() < SPAN_BUDGET
    }

    /// A fresh span id, for a parent whose children finish first.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// A per-thread buffer; `on` is the round's recording decision.
    pub fn buf(&self, tid: u32, on: bool) -> SpanBuf<'_> {
        SpanBuf {
            tracer: self,
            tid,
            on,
            spans: Vec::new(),
        }
    }

    /// Every span recorded so far, in flush order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span store poisoned")
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }
}

/// One thread's spans for one round, moved into the tracer on drop.
#[derive(Debug)]
pub struct SpanBuf<'a> {
    tracer: &'a Tracer,
    tid: u32,
    on: bool,
    spans: Vec<Span>,
}

impl SpanBuf<'_> {
    /// Whether this buffer records.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Records a span with a fresh id and returns the id.
    pub fn record(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.tracer.id();
        self.record_as(id, name, layer, parent, start, end, None);
        id
    }

    /// Records a span under an id taken earlier with [`Tracer::id`].
    #[allow(clippy::too_many_arguments)]
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        layer: &'static str,
        parent: u64,
        start: Instant,
        end: Instant,
        req: Option<(u64, u64)>,
    ) {
        if self.on {
            self.spans.push(Span {
                id,
                parent,
                name,
                layer,
                tid: self.tid,
                start_ns: self.tracer.ns(start),
                end_ns: self.tracer.ns(end),
                req,
            });
        }
    }
}

impl Drop for SpanBuf<'_> {
    fn drop(&mut self) {
        if !self.spans.is_empty() {
            if let Ok(mut all) = self.tracer.spans.lock() {
                all.append(&mut self.spans);
            }
        }
    }
}

/// Self time per layer, in seconds: each span's duration minus the
/// union of its children's intervals (clipped to the span), summed over
/// the layer's spans.
pub fn self_seconds_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
        }
        let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
        *out.entry(s.layer).or_default() += own as f64 / 1e9;
    }
    out
}

/// Writes `<stem>.spans.jsonl` (one span per line) and
/// `<stem>.chrome.json` (Chrome `trace_event` format) under `dir`.
pub fn write_files(spans: &[Span], dir: &Path, stem: &str) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut jsonl = BufWriter::new(File::create(dir.join(format!("{stem}.spans.jsonl")))?);
    let mut chrome = BufWriter::new(File::create(dir.join(format!("{stem}.chrome.json")))?);
    chrome.write_all(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")?;
    for (i, s) in spans.iter().enumerate() {
        let req = match s.req {
            Some((client, seq)) => format!(",\"req\":\"{client}:{seq}\""),
            None => String::new(),
        };
        writeln!(
            jsonl,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"layer\":\"{}\",\"tid\":{},\
             \"start_ns\":{},\"end_ns\":{}{req}}}",
            s.id, s.parent, s.name, s.layer, s.tid, s.start_ns, s.end_ns
        )?;
        writeln!(
            chrome,
            "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}{req}}}}}",
            if i == 0 { "" } else { "," },
            s.name,
            s.layer,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            s.id,
            s.parent
        )?;
    }
    chrome.write_all(b"]}\n")?;
    jsonl.flush()?;
    chrome.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            layer,
            tid: 0,
            start_ns,
            end_ns,
            req: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100; children 10..40 and 30..50 overlap (union 40)
        // and 90..120 sticks out (clipped to 10).
        let spans = vec![
            span(1, 0, "bench", 0, 100),
            span(2, 1, "serve", 10, 40),
            span(3, 1, "serve", 30, 50),
            span(4, 1, "sim", 90, 120),
        ];
        let by_layer = self_seconds_by_layer(&spans);
        assert!((by_layer["bench"] - 50e-9).abs() < 1e-15);
        assert!((by_layer["serve"] - 50e-9).abs() < 1e-15);
        assert!((by_layer["sim"] - 30e-9).abs() < 1e-15);
    }

    #[test]
    fn unrecorded_rounds_keep_nothing() {
        let tracer = Tracer::new(false);
        assert!(!tracer.round_records());
        {
            let mut buf = tracer.buf(0, tracer.round_records());
            let t = Instant::now();
            assert_eq!(buf.record("x", "bench", 0, t, t), 0);
        }
        assert!(tracer.into_spans().is_empty());
    }
}
