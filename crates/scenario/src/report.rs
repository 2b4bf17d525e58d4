//! The unified scenario report.
//!
//! All three engines emit the same `"ruo-scenario-report-v1"` shape: an
//! identity block echoing the spec, a verdict, ordered integer
//! `counters` (seeds run, schedules explored, violations, …), ordered
//! float `metrics` (median batch nanoseconds, ops/s, …) and free-form
//! `notes` (first violation detail, certification summary). Harnesses
//! layer their own presentation (tables, experiment JSON) on top of the
//! counters instead of re-deriving them.

use ruo_metrics::{Json, KindStats, SeriesSampler, StepStats};
use ruo_sim::stepcount::OpCounts;

use crate::registry::Family;
use crate::spec::{EngineKind, ScenarioSpec, SpecError};

/// Schema identifier emitted in every report.
pub const REPORT_SCHEMA: &str = "ruo-scenario-report-v1";

/// Sampled telemetry curves, embedded in the report when the spec's
/// `telemetry` section is present.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TelemetryBlock {
    /// Samples ever taken, including ones the ring evicted.
    pub samples: u64,
    /// `(scalar name, [(tick, value)…])` in ascending name order — the
    /// shape [`SeriesSampler::curves`] produces.
    pub curves: Vec<(String, Vec<(u64, u64)>)>,
}

impl TelemetryBlock {
    /// Captures a sampler's current state.
    pub fn from_sampler(sampler: &SeriesSampler) -> Self {
        TelemetryBlock {
            samples: sampler.taken(),
            curves: sampler.curves(),
        }
    }
}

/// What happened when an engine ran a scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name (from the spec).
    pub scenario: String,
    /// Object family (from the spec).
    pub family: Family,
    /// Implementation id (from the spec).
    pub impl_id: String,
    /// Engine that produced this report.
    pub engine: EngineKind,
    /// Whether the run was scaled down by `--quick`.
    pub quick: bool,
    /// The verdict: no checker violations, no certification failures,
    /// no truncated searches.
    pub ok: bool,
    /// The checker that actually decided this run's histories (the
    /// spec's `auto` resolved to a concrete checker) — `"interval"` or
    /// `"exact"`. `None` for engines that verify nothing (the real
    /// engine certifies progress, not histories).
    pub checker: Option<String>,
    /// Ordered integer counters.
    pub counters: Vec<(String, u64)>,
    /// Ordered float metrics.
    pub metrics: Vec<(String, f64)>,
    /// Step statistics — present when the spec's `trace` section asked
    /// for them; the same shape from all three engines.
    pub steps: Option<StepStats>,
    /// Sampled telemetry curves — present when the spec's `telemetry`
    /// section asked for them (sim and real engines).
    pub telemetry: Option<TelemetryBlock>,
    /// Free-form notes (violation details, certification summaries).
    pub notes: Vec<String>,
}

impl ScenarioReport {
    /// An empty `ok` report carrying the spec's identity.
    pub fn new(spec: &ScenarioSpec, quick: bool) -> Self {
        ScenarioReport {
            scenario: spec.name.clone(),
            family: spec.family,
            impl_id: spec.impl_id.clone(),
            engine: spec.engine,
            quick,
            ok: true,
            checker: None,
            counters: Vec::new(),
            metrics: Vec::new(),
            steps: None,
            telemetry: None,
            notes: Vec::new(),
        }
    }

    /// Appends (or overwrites) an integer counter.
    pub fn set(&mut self, name: &str, value: u64) {
        if let Some(slot) = self.counters.iter_mut().find(|(k, _)| k == name) {
            slot.1 = value;
        } else {
            self.counters.push((name.to_string(), value));
        }
    }

    /// Appends (or overwrites) a float metric.
    pub fn set_metric(&mut self, name: &str, value: f64) {
        if let Some(slot) = self.metrics.iter_mut().find(|(k, _)| k == name) {
            slot.1 = value;
        } else {
            self.metrics.push((name.to_string(), value));
        }
    }

    /// Appends a note.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Reads a counter back.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Reads a metric back.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Serializes to the `"ruo-scenario-report-v1"` JSON document.
    pub fn to_json(&self) -> String {
        let mut o: Vec<(String, Json)> = vec![
            ("schema".into(), Json::Str(REPORT_SCHEMA.into())),
            ("scenario".into(), Json::Str(self.scenario.clone())),
            ("family".into(), Json::Str(self.family.name().into())),
            ("impl".into(), Json::Str(self.impl_id.clone())),
            ("engine".into(), Json::Str(self.engine.name().into())),
            ("quick".into(), Json::Bool(self.quick)),
            ("ok".into(), Json::Bool(self.ok)),
        ];
        if let Some(c) = &self.checker {
            o.push(("checker".into(), Json::Str(c.clone())));
        }
        o.extend([
            (
                "counters".into(),
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            (
                "metrics".into(),
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Float(*v)))
                        .collect(),
                ),
            ),
        ]);
        if let Some(steps) = &self.steps {
            o.push(("steps".into(), steps_to_json(steps)));
        }
        if let Some(t) = &self.telemetry {
            o.push(("telemetry".into(), telemetry_to_json(t)));
        }
        o.push((
            "notes".into(),
            Json::Arr(self.notes.iter().map(|s| Json::Str(s.clone())).collect()),
        ));
        Json::Obj(o).pretty()
    }

    /// Parses a `"ruo-scenario-report-v1"` document back into a report
    /// (exact round trip with [`to_json`](Self::to_json) for the values
    /// the engines emit: finite, non-negative metrics).
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let doc = Json::parse(text).map_err(|e| SpecError(e.to_string()))?;
        match doc.get("schema").and_then(Json::as_str) {
            Some(REPORT_SCHEMA) => {}
            Some(other) => return rerr(format!("unsupported report schema \"{other}\"")),
            None => return rerr("missing \"schema\""),
        }
        let family = match doc
            .get("family")
            .and_then(Json::as_str)
            .and_then(Family::parse)
        {
            Some(f) => f,
            None => return rerr("missing or invalid \"family\""),
        };
        let engine = match doc
            .get("engine")
            .and_then(Json::as_str)
            .and_then(EngineKind::parse)
        {
            Some(e) => e,
            None => return rerr("missing or invalid \"engine\""),
        };
        let req_str = |key: &str| -> Result<String, SpecError> {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| SpecError(format!("missing or non-string \"{key}\"")))
        };
        let req_bool = |key: &str| -> Result<bool, SpecError> {
            doc.get(key)
                .and_then(Json::as_bool)
                .ok_or_else(|| SpecError(format!("missing or non-bool \"{key}\"")))
        };
        let mut counters = Vec::new();
        for (k, v) in doc
            .get("counters")
            .and_then(Json::as_obj)
            .ok_or_else(|| SpecError("missing \"counters\" object".into()))?
        {
            let n = v
                .as_u64()
                .ok_or_else(|| SpecError(format!("counter \"{k}\" must be an integer")))?;
            counters.push((k.clone(), n));
        }
        let mut metrics = Vec::new();
        for (k, v) in doc
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| SpecError("missing \"metrics\" object".into()))?
        {
            let x = v
                .as_f64()
                .ok_or_else(|| SpecError(format!("metric \"{k}\" must be a number")))?;
            metrics.push((k.clone(), x));
        }
        let steps = match doc.get("steps") {
            None => None,
            Some(v) => Some(steps_from_json(v)?),
        };
        let telemetry = match doc.get("telemetry") {
            None => None,
            Some(v) => Some(telemetry_from_json(v)?),
        };
        let mut notes = Vec::new();
        for v in doc
            .get("notes")
            .and_then(Json::as_arr)
            .ok_or_else(|| SpecError("missing \"notes\" array".into()))?
        {
            notes.push(
                v.as_str()
                    .ok_or_else(|| SpecError("notes must be strings".into()))?
                    .to_string(),
            );
        }
        Ok(ScenarioReport {
            scenario: req_str("scenario")?,
            family,
            impl_id: req_str("impl")?,
            engine,
            quick: req_bool("quick")?,
            ok: req_bool("ok")?,
            checker: doc
                .get("checker")
                .and_then(Json::as_str)
                .map(str::to_string),
            counters,
            metrics,
            steps,
            telemetry,
            notes,
        })
    }
}

fn rerr<T>(msg: impl Into<String>) -> Result<T, SpecError> {
    Err(SpecError(msg.into()))
}

/// Serializes a [`StepStats`] as the report's `steps` block:
/// `{"per_op": {<kind>: {"ops","total","max","min"}…},
///   "prims": {"reads","writes","cas_ok","cas_fail"}}`.
fn steps_to_json(s: &StepStats) -> Json {
    Json::Obj(vec![
        (
            "per_op".into(),
            Json::Obj(
                s.per_op()
                    .iter()
                    .map(|(kind, k)| {
                        (
                            kind.clone(),
                            Json::Obj(vec![
                                ("ops".into(), Json::Num(k.ops)),
                                ("total".into(), Json::Num(k.total)),
                                ("max".into(), Json::Num(k.max)),
                                ("min".into(), Json::Num(k.min)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "prims".into(),
            Json::Obj(vec![
                ("reads".into(), Json::Num(s.prims.reads)),
                ("writes".into(), Json::Num(s.prims.writes)),
                ("cas_ok".into(), Json::Num(s.prims.cas_ok)),
                ("cas_fail".into(), Json::Num(s.prims.cas_fail)),
            ]),
        ),
    ])
}

/// Serializes a [`TelemetryBlock`] as the report's `telemetry` block:
/// `{"samples": N, "curves": {<name>: [[tick, value]…]…}}`.
fn telemetry_to_json(t: &TelemetryBlock) -> Json {
    Json::Obj(vec![
        ("samples".into(), Json::Num(t.samples)),
        (
            "curves".into(),
            Json::Obj(
                t.curves
                    .iter()
                    .map(|(name, points)| {
                        (
                            name.clone(),
                            Json::Arr(
                                points
                                    .iter()
                                    .map(|&(tick, v)| {
                                        Json::Arr(vec![Json::Num(tick), Json::Num(v)])
                                    })
                                    .collect(),
                            ),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

fn telemetry_from_json(v: &Json) -> Result<TelemetryBlock, SpecError> {
    let samples = v
        .get("samples")
        .and_then(Json::as_u64)
        .ok_or_else(|| SpecError("missing \"telemetry.samples\"".into()))?;
    let mut curves = Vec::new();
    for (name, arr) in v
        .get("curves")
        .and_then(Json::as_obj)
        .ok_or_else(|| SpecError("missing \"telemetry.curves\" object".into()))?
    {
        let mut points = Vec::new();
        for p in arr
            .as_arr()
            .ok_or_else(|| SpecError(format!("curve \"{name}\" must be an array")))?
        {
            let pair = p.as_arr().filter(|a| a.len() == 2).ok_or_else(|| {
                SpecError(format!("curve \"{name}\" points must be [tick, value]"))
            })?;
            let tick = pair[0]
                .as_u64()
                .ok_or_else(|| SpecError(format!("curve \"{name}\" tick must be an integer")))?;
            let value = pair[1]
                .as_u64()
                .ok_or_else(|| SpecError(format!("curve \"{name}\" value must be an integer")))?;
            points.push((tick, value));
        }
        curves.push((name.clone(), points));
    }
    Ok(TelemetryBlock { samples, curves })
}

fn steps_from_json(v: &Json) -> Result<StepStats, SpecError> {
    let num = |obj: &Json, key: &str| -> Result<u64, SpecError> {
        obj.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| SpecError(format!("steps field \"{key}\" must be an integer")))
    };
    let mut stats = StepStats::new();
    for (kind, k) in v
        .get("per_op")
        .and_then(Json::as_obj)
        .ok_or_else(|| SpecError("missing \"steps.per_op\" object".into()))?
    {
        stats.insert_kind(
            kind,
            KindStats {
                ops: num(k, "ops")?,
                total: num(k, "total")?,
                max: num(k, "max")?,
                min: num(k, "min")?,
            },
        );
    }
    let p = v
        .get("prims")
        .ok_or_else(|| SpecError("missing \"steps.prims\" object".into()))?;
    stats.record_prims(&OpCounts {
        reads: num(p, "reads")?,
        writes: num(p, "writes")?,
        cas_ok: num(p, "cas_ok")?,
        cas_fail: num(p, "cas_fail")?,
    });
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_serialize_and_read_back() {
        let spec = ScenarioSpec::new("w6", Family::Counter, "farray", EngineKind::Sim, 4);
        let mut r = ScenarioReport::new(&spec, true);
        r.set("seeds", 100);
        r.set("violations", 0);
        r.set("seeds", 101); // overwrite
        r.set_metric("median_ns", 123.5);
        r.note("all clear");
        assert_eq!(r.counter("seeds"), Some(101));
        assert_eq!(r.metric("median_ns"), Some(123.5));
        let doc = Json::parse(&r.to_json()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(REPORT_SCHEMA)
        );
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("seeds"))
                .and_then(Json::as_u64),
            Some(101)
        );
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn reports_round_trip_including_steps() {
        let spec = ScenarioSpec::new("w7", Family::MaxReg, "tree", EngineKind::Sim, 4);
        let mut r = ScenarioReport::new(&spec, false);
        r.ok = false;
        r.checker = Some("interval".into());
        r.set("seeds", 100);
        r.set("violations", 1);
        r.set_metric("seconds", 0.25);
        r.set_metric("ns_per_op", 117.0);
        r.note("violation at seed 3");
        let mut steps = StepStats::new();
        steps.record_op("write_max", 26);
        steps.record_op("write_max", 10);
        steps.record_op("read_max", 1);
        steps.record_prims(&OpCounts {
            reads: 20,
            writes: 10,
            cas_ok: 6,
            cas_fail: 1,
        });
        r.steps = Some(steps);
        let parsed = ScenarioReport::parse(&r.to_json()).expect("report parses");
        assert_eq!(parsed, r);
        // And a steps-free report round-trips to steps: None.
        let bare = ScenarioReport::new(&spec, true);
        let parsed = ScenarioReport::parse(&bare.to_json()).unwrap();
        assert_eq!(parsed, bare);
        assert!(parsed.steps.is_none());
    }

    #[test]
    fn reports_round_trip_including_telemetry() {
        let spec = ScenarioSpec::new("w12", Family::Counter, "farray", EngineKind::Sim, 4);
        let mut r = ScenarioReport::new(&spec, false);
        r.set("seeds", 8);
        r.set_metric("duration_ms", 12.75);
        r.telemetry = Some(TelemetryBlock {
            samples: 10,
            curves: vec![
                ("served".into(), vec![(0, 1), (1, 3), (2, 9)]),
                ("shed".into(), vec![(0, 0), (1, 0), (2, 2)]),
            ],
        });
        let parsed = ScenarioReport::parse(&r.to_json()).expect("report parses");
        assert_eq!(parsed, r);
        // Empty curves survive too (capacity 1, nothing recorded).
        let mut empty = ScenarioReport::new(&spec, true);
        empty.telemetry = Some(TelemetryBlock {
            samples: 0,
            curves: Vec::new(),
        });
        assert_eq!(ScenarioReport::parse(&empty.to_json()).unwrap(), empty);
    }

    #[test]
    fn telemetry_block_captures_a_sampler() {
        use ruo_metrics::{MetricsRegistry, Watermark};
        use std::sync::Arc;

        let w = Arc::new(Watermark::new(2));
        let mut reg = MetricsRegistry::new();
        w.register_into(&mut reg, "peak", "units", "test watermark");
        let mut sampler = SeriesSampler::new(Arc::new(reg), 4);
        w.record(ruo_sim::ProcessId(0), 5);
        sampler.sample(0);
        w.record(ruo_sim::ProcessId(1), 9);
        sampler.sample(1);
        let block = TelemetryBlock::from_sampler(&sampler);
        assert_eq!(block.samples, 2);
        assert_eq!(block.curves, vec![("peak".into(), vec![(0, 5), (1, 9)])]);
    }
}
