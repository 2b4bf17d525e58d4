//! A self-describing metrics registry and its canonical text exposition.
//!
//! Every gauge family in this crate can register its scalars into a
//! [`MetricsRegistry`] with a [`MetricDesc`] (name, kind, unit, help)
//! and a reader closure. Reading the whole registry —
//! [`MetricsRegistry::snapshot`] — is wait-free: one `O(1)` atomic root
//! read per registered scalar (the f-array / Algorithm A payoff; the
//! sharded counter's total is the one documented exception, and its
//! descriptor says so). The snapshot is the paper's read-heavy regime
//! reified: writes are per-event, snapshots happen on every status
//! query.
//!
//! The exposition format (`ruo-telem-v1`) is line-based ASCII with a
//! strict, canonical round-trip codec in the style of
//! `ruo_serve::proto`:
//!
//! ```text
//! ruo-telem-v1 <count>
//! <name> <kind> <unit> <value> <help…>
//! ```
//!
//! Names are sorted strictly ascending, values are canonical decimal
//! (no leading zeros, no signs), and the parser rejects anything
//! non-canonical — `parse(to_text(s)) == s` exactly, and whatever
//! garbage parses re-encodes to itself.
//!
//! ```
//! use ruo_metrics::{MetricDesc, MetricKind, MetricsRegistry, TelemetrySnapshot, Watermark};
//! use ruo_sim::ProcessId;
//! use std::sync::Arc;
//!
//! let peak = Arc::new(Watermark::new(4));
//! let mut reg = MetricsRegistry::new();
//! peak.register_into(&mut reg, "queue_peak", "connections", "deepest queue observed");
//! peak.record(ProcessId(1), 9);
//!
//! let snap = reg.snapshot();
//! assert_eq!(snap.get("queue_peak"), Some(9));
//! let text = snap.to_text();
//! assert_eq!(TelemetrySnapshot::parse(&text).unwrap(), snap);
//! ```

use std::fmt;

/// Schema tag of the exposition format (and of the serve `metrics` wire
/// response built on it).
pub const TELEM_SCHEMA: &str = "ruo-telem-v1";

/// How a registered scalar moves over time — what a sampler or a
/// monotonicity check may assume about successive reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A monotonically non-decreasing total (event counts).
    Counter,
    /// A monotonically non-decreasing maximum ([`crate::Watermark`]).
    Watermark,
    /// A monotonically non-increasing minimum ([`crate::LowWatermark`];
    /// `u64::MAX` means nothing recorded yet).
    LowWatermark,
    /// A free-moving value (ratios, configured bounds, stripe totals).
    Gauge,
}

impl MetricKind {
    /// Wire name of the kind.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Watermark => "watermark",
            MetricKind::LowWatermark => "low_watermark",
            MetricKind::Gauge => "gauge",
        }
    }

    /// Inverse of [`MetricKind::name`].
    pub fn parse(s: &str) -> Option<MetricKind> {
        Some(match s {
            "counter" => MetricKind::Counter,
            "watermark" => MetricKind::Watermark,
            "low_watermark" => MetricKind::LowWatermark,
            "gauge" => MetricKind::Gauge,
            _ => return None,
        })
    }

    /// Whether successive reads of this kind may only grow (or stay).
    pub fn monotone_up(self) -> bool {
        matches!(self, MetricKind::Counter | MetricKind::Watermark)
    }

    /// Whether successive reads of this kind may only shrink (or stay).
    pub fn monotone_down(self) -> bool {
        matches!(self, MetricKind::LowWatermark)
    }
}

/// A metric name or unit token: 1..=64 bytes of `[A-Za-z0-9_.:-]` —
/// the same alphabet as the serve wire protocol's identifiers, so every
/// registered scalar is wire-exportable as-is.
pub fn valid_metric_token(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b':' | b'-'))
}

/// A self-describing scalar descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDesc {
    /// Unique scalar name (a [`valid_metric_token`]).
    pub name: String,
    /// Movement contract of the scalar.
    pub kind: MetricKind,
    /// Unit token (a [`valid_metric_token`]; use `1` for dimensionless).
    pub unit: String,
    /// One-line human description (no newlines, no leading/trailing or
    /// doubled spaces — the exposition line must stay canonical).
    pub help: String,
}

impl MetricDesc {
    /// Builds a descriptor.
    ///
    /// # Panics
    ///
    /// Panics if the name or unit is not a valid token, or the help text
    /// is empty, multi-line, or has leading/trailing/doubled spaces.
    pub fn new(name: &str, kind: MetricKind, unit: &str, help: &str) -> Self {
        assert!(valid_metric_token(name), "bad metric name {name:?}");
        assert!(valid_metric_token(unit), "bad metric unit {unit:?}");
        assert!(help_is_canonical(help), "non-canonical help text {help:?}");
        MetricDesc {
            name: name.to_string(),
            kind,
            unit: unit.to_string(),
            help: help.to_string(),
        }
    }
}

fn help_is_canonical(help: &str) -> bool {
    !help.is_empty()
        && !help.contains('\n')
        && !help.contains("  ")
        && !help.starts_with(' ')
        && !help.ends_with(' ')
}

type Reader = Box<dyn Fn() -> u64 + Send + Sync>;

/// A registry of self-describing scalars, each read by a wait-free
/// closure. Registration happens at setup time (`&mut self`); after
/// that the registry is shared immutably and
/// [`snapshot`](MetricsRegistry::snapshot) may run concurrently with
/// every recorder.
pub struct MetricsRegistry {
    /// Kept sorted by name so snapshots and expositions are stable.
    entries: Vec<(MetricDesc, Reader)>,
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("scalars", &self.entries.len())
            .finish()
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            entries: Vec::new(),
        }
    }

    /// Registers one scalar.
    ///
    /// # Panics
    ///
    /// Panics if a scalar with the same name is already registered.
    pub fn register(&mut self, desc: MetricDesc, reader: impl Fn() -> u64 + Send + Sync + 'static) {
        match self
            .entries
            .binary_search_by(|(d, _)| d.name.as_str().cmp(desc.name.as_str()))
        {
            Ok(_) => panic!("duplicate metric name {:?}", desc.name),
            Err(at) => self.entries.insert(at, (desc, Box::new(reader))),
        }
    }

    /// Number of registered scalars.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The descriptors, sorted by name.
    pub fn descriptors(&self) -> Vec<MetricDesc> {
        self.entries.iter().map(|(d, _)| d.clone()).collect()
    }

    /// Reads every scalar once — wait-free, `O(1)` atomic loads per
    /// scalar for every family in this crate except the sharded
    /// counter's stripe total (whose descriptor documents the `O(N)`
    /// read).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            entries: self
                .entries
                .iter()
                .map(|(d, read)| TelemetryEntry {
                    desc: d.clone(),
                    value: read(),
                })
                .collect(),
        }
    }
}

/// One scalar in a [`TelemetrySnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryEntry {
    /// The scalar's descriptor.
    pub desc: MetricDesc,
    /// The value read.
    pub value: u64,
}

/// A point-in-time read of every registered scalar, name-sorted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    entries: Vec<TelemetryEntry>,
}

/// A malformed exposition document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryError {
    /// What was wrong.
    pub detail: String,
}

impl fmt::Display for TelemetryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "telemetry error: {}", self.detail)
    }
}

impl std::error::Error for TelemetryError {}

fn terr(detail: impl Into<String>) -> TelemetryError {
    TelemetryError {
        detail: detail.into(),
    }
}

/// Canonical decimal: no empty, no signs, no leading zeros.
fn parse_value(s: &str) -> Result<u64, TelemetryError> {
    if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
        return Err(terr(format!("bad value {s:?}")));
    }
    if s.len() > 1 && s.starts_with('0') {
        return Err(terr(format!("leading zero in value {s:?}")));
    }
    s.parse::<u64>()
        .map_err(|_| terr(format!("value out of range: {s:?}")))
}

impl TelemetrySnapshot {
    /// The entries, sorted by name.
    pub fn entries(&self) -> &[TelemetryEntry] {
        &self.entries
    }

    /// Looks up one scalar by name.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.entries
            .binary_search_by(|e| e.desc.name.as_str().cmp(name))
            .ok()
            .map(|i| self.entries[i].value)
    }

    /// `(name, value)` pairs in ascending name order — the serve
    /// `metrics` wire shape.
    pub fn pairs(&self) -> Vec<(String, u64)> {
        self.entries
            .iter()
            .map(|e| (e.desc.name.clone(), e.value))
            .collect()
    }

    /// Emits the canonical `ruo-telem-v1` exposition document.
    pub fn to_text(&self) -> String {
        let mut out = format!("{TELEM_SCHEMA} {}\n", self.entries.len());
        for e in &self.entries {
            out.push_str(&format!(
                "{} {} {} {} {}\n",
                e.desc.name,
                e.desc.kind.name(),
                e.desc.unit,
                e.value,
                e.desc.help
            ));
        }
        out
    }

    /// Strict inverse of [`TelemetrySnapshot::to_text`]: rejects wrong
    /// schema/count, unsorted or duplicate names, non-canonical values,
    /// and malformed lines.
    pub fn parse(text: &str) -> Result<TelemetrySnapshot, TelemetryError> {
        let mut lines = text.lines();
        let header = lines.next().ok_or_else(|| terr("empty document"))?;
        let count = match header.split_once(' ') {
            Some((schema, n)) if schema == TELEM_SCHEMA => parse_value(n)?,
            Some((schema, _)) => return Err(terr(format!("unknown schema {schema:?}"))),
            None => return Err(terr(format!("bad header {header:?}"))),
        };
        let mut entries: Vec<TelemetryEntry> = Vec::new();
        for line in lines.by_ref() {
            let mut parts = line.splitn(5, ' ');
            let (name, kind, unit, value, help) = (
                parts.next().unwrap_or(""),
                parts.next().unwrap_or(""),
                parts.next().unwrap_or(""),
                parts.next().unwrap_or(""),
                parts.next().unwrap_or(""),
            );
            if !valid_metric_token(name) {
                return Err(terr(format!("bad metric name {name:?}")));
            }
            if let Some(last) = entries.last() {
                if last.desc.name.as_str() >= name {
                    return Err(terr(format!("names not strictly ascending at {name:?}")));
                }
            }
            let kind = MetricKind::parse(kind).ok_or_else(|| terr(format!("bad kind {kind:?}")))?;
            if !valid_metric_token(unit) {
                return Err(terr(format!("bad unit {unit:?}")));
            }
            let value = parse_value(value)?;
            if !help_is_canonical(help) {
                return Err(terr(format!("non-canonical help {help:?}")));
            }
            entries.push(TelemetryEntry {
                desc: MetricDesc {
                    name: name.to_string(),
                    kind,
                    unit: unit.to_string(),
                    help: help.to_string(),
                },
                value,
            });
        }
        if entries.len() as u64 != count {
            return Err(terr(format!(
                "header declares {count} scalars, document has {}",
                entries.len()
            )));
        }
        // `lines()` swallows the final newline but would also accept a
        // missing one; demand the canonical trailing newline.
        if !text.ends_with('\n') {
            return Err(terr("missing trailing newline"));
        }
        Ok(TelemetrySnapshot { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CheckerGauges, HealthEvent, HealthGauges, LowWatermark, Watermark};
    use ruo_sim::ProcessId;
    use std::sync::Arc;

    fn sample_registry() -> (Arc<HealthGauges>, MetricsRegistry) {
        let g = Arc::new(HealthGauges::new(2));
        let mut reg = MetricsRegistry::new();
        g.register_telemetry(&mut reg, "");
        (g, reg)
    }

    #[test]
    fn health_gauges_register_their_wire_names() {
        let (g, reg) = sample_registry();
        assert_eq!(reg.len(), 12);
        g.bump(ProcessId(0), HealthEvent::Served);
        g.bump(ProcessId(1), HealthEvent::Served);
        g.record_queue_depth(ProcessId(0), 7);
        let snap = reg.snapshot();
        assert_eq!(snap.get("served"), Some(2));
        assert_eq!(snap.get("queue_depth_peak"), Some(7));
        assert_eq!(snap.get("shed"), Some(0));
        assert_eq!(snap.get("nope"), None);
        // Names come out sorted.
        let names: Vec<&str> = snap
            .entries()
            .iter()
            .map(|e| e.desc.name.as_str())
            .collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn exposition_round_trips_exactly() {
        let (g, mut reg) = sample_registry();
        let lo = Arc::new(LowWatermark::new(2));
        lo.register_into(&mut reg, "fastest_ns", "ns", "fastest request observed");
        g.bump(ProcessId(0), HealthEvent::Admitted);
        lo.record(ProcessId(1), 480);
        let snap = reg.snapshot();
        let text = snap.to_text();
        assert!(text.starts_with("ruo-telem-v1 13\n"));
        let back = TelemetrySnapshot::parse(&text).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn unset_low_watermark_reads_the_sentinel() {
        let lo = Arc::new(LowWatermark::new(1));
        let mut reg = MetricsRegistry::new();
        lo.register_into(&mut reg, "best", "ns", "best seen");
        assert_eq!(reg.snapshot().get("best"), Some(u64::MAX));
        lo.record(ProcessId(0), 3);
        assert_eq!(reg.snapshot().get("best"), Some(3));
    }

    #[test]
    fn malformed_expositions_are_rejected() {
        for doc in [
            "",
            "ruo-telem-v1\n",
            "ruo-telem-v2 0\n",
            "ruo-telem-v1 1\n",                                   // count mismatch
            "ruo-telem-v1 0\na counter 1 0 help\n",               // count mismatch
            "ruo-telem-v1 1\na counter 1 0 help",                 // missing newline
            "ruo-telem-v1 1\na counter 1 00 help\n",              // leading zero
            "ruo-telem-v1 1\na counter 1 +1 help\n",              // signed value
            "ruo-telem-v1 1\na nonsense 1 0 help\n",              // bad kind
            "ruo-telem-v1 1\na counter 1 0\n",                    // missing help
            "ruo-telem-v1 1\na counter 1 0  doubled\n",           // doubled space
            "ruo-telem-v1 2\nb counter 1 0 h\na counter 1 0 h\n", // unsorted
            "ruo-telem-v1 2\na counter 1 0 h\na counter 1 0 h\n", // duplicate
            "ruo-telem-v1 01\na counter 1 0 h\n",                 // non-canonical count
        ] {
            assert!(TelemetrySnapshot::parse(doc).is_err(), "accepted {doc:?}");
        }
    }

    #[test]
    fn duplicate_registration_panics() {
        let w = Arc::new(Watermark::new(1));
        let mut reg = MetricsRegistry::new();
        w.register_into(&mut reg, "peak", "ns", "peak");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            w.register_into(&mut reg, "peak", "ns", "peak");
        }));
        assert!(result.is_err());
    }

    #[test]
    fn kinds_declare_their_monotonicity() {
        assert!(MetricKind::Counter.monotone_up());
        assert!(MetricKind::Watermark.monotone_up());
        assert!(MetricKind::LowWatermark.monotone_down());
        assert!(!MetricKind::Gauge.monotone_up() && !MetricKind::Gauge.monotone_down());
        for k in [
            MetricKind::Counter,
            MetricKind::Watermark,
            MetricKind::LowWatermark,
            MetricKind::Gauge,
        ] {
            assert_eq!(MetricKind::parse(k.name()), Some(k));
        }
        assert_eq!(MetricKind::parse("bogus"), None);
    }

    #[test]
    fn checker_gauges_register_and_snapshot() {
        let c = Arc::new(CheckerGauges::new(2));
        let mut reg = MetricsRegistry::new();
        c.register_telemetry(&mut reg, "checker_");
        c.record(ProcessId(0), 10, true);
        c.record(ProcessId(1), 5, false);
        let snap = reg.snapshot();
        assert_eq!(snap.get("checker_histories"), Some(2));
        assert_eq!(snap.get("checker_operations"), Some(15));
        assert_eq!(snap.get("checker_violations"), Some(1));
    }
}
