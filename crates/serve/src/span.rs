//! Request-lifecycle spans: one record per served request, stamped with
//! logical ticks from the server's global tick counter — the same clock
//! the linearizability audit log uses, so span timelines and op logs
//! line up exactly.
//!
//! A span follows the connection through the ladder: `accept` (gate
//! passed) → `enqueue` (admitted to the bounded queue) → `dequeue` (a
//! worker picked the connection up) → `execute` (request handling
//! began) → `ack` (response write finished). Each span also carries the
//! degradation rung the request was served at, whether the answer came
//! from the degraded tier, and how many chaos faults had fired on the
//! connection by ack time.
//!
//! Export mirrors `ruo_metrics::trace`: a JSONL dump with a schema
//! header (`ruo-serve-span-v1`) and a Chrome `trace_event` JSON
//! document loadable in `chrome://tracing` / Perfetto, with one lane
//! per worker.

use ruo_metrics::{chrome_trace, Json};

/// Schema tag on the span JSONL header line.
pub const SPAN_SCHEMA: &str = "ruo-serve-span-v1";

/// The degradation rung a request was served at (the ladder in
/// `server`'s module docs). Shed connections never reach a worker, so
/// rung 2 does not appear on spans; it is visible in the health gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanRung {
    /// Exact tier: queue shallow, every op exact.
    Healthy,
    /// Degraded tier active: queue at or past `degrade_depth`.
    Degraded,
    /// Served during drain (the request was already in flight).
    Draining,
}

impl SpanRung {
    /// Wire/JSON name of the rung.
    pub fn name(self) -> &'static str {
        match self {
            SpanRung::Healthy => "healthy",
            SpanRung::Degraded => "degraded",
            SpanRung::Draining => "draining",
        }
    }
}

/// One request's lifecycle, in global server ticks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestSpan {
    /// Connection the request arrived on.
    pub conn_id: u64,
    /// Request index within the connection (0-based).
    pub seq: u64,
    /// Worker (= `ProcessId`) that served it.
    pub worker: usize,
    /// Request verb (`incr`, `read`, …; `invalid` if the line did not
    /// parse).
    pub verb: String,
    /// Tick at which the acceptor admitted the connection.
    pub accept_tick: u64,
    /// Tick at which the connection entered the worker queue.
    pub enqueue_tick: u64,
    /// Tick at which a worker popped the connection.
    pub dequeue_tick: u64,
    /// Tick at which request handling began.
    pub execute_tick: u64,
    /// Tick after the response write finished (or failed).
    pub ack_tick: u64,
    /// Degradation rung the request was served at.
    pub rung: SpanRung,
    /// Whether the answer actually came from the degraded tier.
    pub degraded: bool,
    /// Chaos faults injected on this connection so far (cumulative at
    /// ack time).
    pub chaos_injected: u64,
    /// `ok`, `pong`, `err <code>`, or `write_failed`.
    pub outcome: String,
}

impl RequestSpan {
    fn jsonl_record(&self) -> Json {
        Json::obj([
            ("type", Json::from("span")),
            ("conn", Json::from(self.conn_id)),
            ("seq", Json::from(self.seq)),
            ("worker", Json::from(self.worker)),
            ("verb", Json::from(self.verb.as_str())),
            ("accept", Json::from(self.accept_tick)),
            ("enqueue", Json::from(self.enqueue_tick)),
            ("dequeue", Json::from(self.dequeue_tick)),
            ("execute", Json::from(self.execute_tick)),
            ("ack", Json::from(self.ack_tick)),
            ("rung", Json::from(self.rung.name())),
            ("degraded", Json::from(self.degraded)),
            ("chaos_injected", Json::from(self.chaos_injected)),
            ("outcome", Json::from(self.outcome.as_str())),
        ])
    }

    fn chrome_event(&self) -> Json {
        Json::obj([
            ("name", Json::from(self.verb.as_str())),
            ("cat", Json::from("request")),
            ("ph", Json::from("X")),
            ("ts", Json::from(self.execute_tick)),
            (
                "dur",
                Json::from(self.ack_tick.saturating_sub(self.execute_tick).max(1)),
            ),
            ("pid", Json::from(0u64)),
            ("tid", Json::from(self.worker)),
            (
                "args",
                Json::obj([
                    ("conn", Json::from(self.conn_id)),
                    ("seq", Json::from(self.seq)),
                    ("rung", Json::from(self.rung.name())),
                    ("degraded", Json::from(self.degraded)),
                    ("chaos_injected", Json::from(self.chaos_injected)),
                    (
                        "queue_wait",
                        Json::from(self.dequeue_tick.saturating_sub(self.enqueue_tick)),
                    ),
                    ("outcome", Json::from(self.outcome.as_str())),
                ]),
            ),
        ])
    }
}

/// Serializes spans as JSONL: a schema header, then one object per
/// span.
pub fn spans_to_jsonl(spans: &[RequestSpan]) -> String {
    let header = Json::obj([
        ("schema", Json::from(SPAN_SCHEMA)),
        ("spans", Json::from(spans.len())),
    ]);
    std::iter::once(header)
        .chain(spans.iter().map(RequestSpan::jsonl_record))
        .map(|line| line.compact() + "\n")
        .collect()
}

/// Serializes spans as Chrome `trace_event` JSON: one complete (`"X"`)
/// event per span on the serving worker's lane, `ts`/`dur` in global
/// server ticks (rendered as µs by the viewer).
pub fn spans_to_chrome_trace(spans: &[RequestSpan]) -> String {
    chrome_trace(spans.iter().map(RequestSpan::chrome_event).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(seq: u64) -> RequestSpan {
        RequestSpan {
            conn_id: 3,
            seq,
            worker: 1,
            verb: "incr".into(),
            accept_tick: 10,
            enqueue_tick: 11,
            dequeue_tick: 14,
            execute_tick: 15 + seq,
            ack_tick: 17 + seq,
            rung: SpanRung::Healthy,
            degraded: false,
            chaos_injected: 0,
            outcome: "ok".into(),
        }
    }

    #[test]
    fn jsonl_has_header_and_one_line_per_span() {
        let dump = spans_to_jsonl(&[span(0), span(1)]);
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"schema\":\"ruo-serve-span-v1\""));
        assert!(lines[0].contains("\"spans\":2"));
        assert!(lines[1].contains("\"verb\":\"incr\""));
        assert!(lines[2].contains("\"seq\":1"));
        // Every line is parseable JSON (via the scenario codec).
        for line in lines {
            Json::parse(line).expect("valid JSON line");
        }
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let doc = spans_to_chrome_trace(&[span(0), span(1)]);
        let parsed = Json::parse(&doc).expect("valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("traceEvents array");
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").and_then(|p| p.as_str()), Some("X"));
        assert_eq!(events[0].get("tid").and_then(|t| t.as_u64()), Some(1));
        // Zero-length spans get a visible minimum duration.
        let mut z = span(0);
        z.ack_tick = z.execute_tick;
        let doc = spans_to_chrome_trace(&[z]);
        let parsed = Json::parse(&doc).unwrap();
        let ev = &parsed.get("traceEvents").unwrap().as_arr().unwrap()[0];
        assert_eq!(ev.get("dur").and_then(|d| d.as_u64()), Some(1));
    }

    #[test]
    fn escaping_keeps_hostile_verbs_valid() {
        let mut s = span(0);
        s.verb = "we\"ird\\verb".into();
        s.outcome = "err parse \"quoted\"".into();
        for line in spans_to_jsonl(&[s.clone()]).lines() {
            Json::parse(line).expect("valid JSON line");
        }
        Json::parse(&spans_to_chrome_trace(&[s])).expect("valid JSON");
    }
}
