//! Declarative scenario specifications and their JSON codec.
//!
//! A [`ScenarioSpec`] names an implementation from the
//! [registry](crate::registry()), an engine, and the workload / fault /
//! checker parameters; the three engines in [`crate::engine`] consume
//! the same spec. Specs serialize to the `"ruo-scenario-v1"` JSON
//! schema (see `scenarios/` at the repo root for checked-in examples)
//! and the codec is an exact round trip: for every spec `s`,
//! `ScenarioSpec::parse(&s.to_json()) == Ok(s)` — CI verifies this for
//! every checked-in scenario, and a fuzz test verifies it for random
//! specs.

use std::fmt;

use ruo_metrics::Json;

use crate::registry::Family;

/// Schema identifier emitted and required in scenario files.
pub const SPEC_SCHEMA: &str = "ruo-scenario-v1";

/// Which engine runs the scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// OS threads on the real-atomics face (W4-style throughput plus
    /// latency histograms and progress certification).
    Real,
    /// The step-machine executor on the simulator face, over seeded
    /// schedules and fault plans (W6-style soak).
    Sim,
    /// The bounded model checker over every interleaving of a small
    /// scope (W5-style exploration).
    Explore,
}

impl EngineKind {
    /// The schema name.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Real => "real",
            EngineKind::Sim => "sim",
            EngineKind::Explore => "explore",
        }
    }

    pub(crate) fn parse(s: &str) -> Option<Self> {
        match s {
            "real" => Some(EngineKind::Real),
            "sim" => Some(EngineKind::Sim),
            "explore" => Some(EngineKind::Explore),
            _ => None,
        }
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Scheduling policy for the sim engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulePolicy {
    /// Seeded uniformly random choice among enabled processes.
    Random,
    /// Cyclic order over enabled processes.
    RoundRobin,
}

impl SchedulePolicy {
    /// The schema name.
    pub fn name(self) -> &'static str {
        match self {
            SchedulePolicy::Random => "random",
            SchedulePolicy::RoundRobin => "round_robin",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "random" => Some(SchedulePolicy::Random),
            "round_robin" => Some(SchedulePolicy::RoundRobin),
            _ => None,
        }
    }
}

/// How the sim engine builds each process's operation sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpMix {
    /// Seeded uniform mix: each op is a read with probability
    /// `read_pct`%, updates draw values uniformly from
    /// `1..=value_bound`.
    Random,
    /// The legacy deterministic soak mix: ops strictly alternate
    /// update, read, update, … with the value streams the pre-scenario
    /// soak harness used (`read_pct` is ignored). Kept so W6 soak
    /// scenarios reproduce the historical verdict tables bit for bit.
    Alternate,
}

impl OpMix {
    /// The schema name.
    pub fn name(self) -> &'static str {
        match self {
            OpMix::Random => "random",
            OpMix::Alternate => "alternate",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "random" => Some(OpMix::Random),
            "alternate" => Some(OpMix::Alternate),
            _ => None,
        }
    }
}

/// Which checker validates histories. Both are complete: they decide
/// linearizability exactly, so the choice never changes a verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckerKind {
    /// Let the engine pick: the WGL interval checker, on every engine.
    /// The report's `checker` field records what actually ran.
    Auto,
    /// The WGL interval linearizability checker (`check_interval`) —
    /// exact verdicts with no history-size cap, and a named culprit on
    /// rejection.
    Interval,
    /// The bitmask exact linearizability checker (`check_exact`) —
    /// histories of at most 63 operations.
    Exact,
}

impl CheckerKind {
    /// The schema name.
    pub fn name(self) -> &'static str {
        match self {
            CheckerKind::Auto => "auto",
            CheckerKind::Interval => "interval",
            CheckerKind::Exact => "exact",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "auto" => Some(CheckerKind::Auto),
            "interval" => Some(CheckerKind::Interval),
            "exact" => Some(CheckerKind::Exact),
            _ => None,
        }
    }
}

/// A crash at a fixed point: `pid` halts after its `after`-th event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashAt {
    /// Process to crash.
    pub pid: usize,
    /// Number of the process's own events after which it halts.
    pub after: usize,
}

/// Declarative fault plan for the sim engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultSpec {
    /// Per-seed random crashes: up to `crashes` distinct processes each
    /// crash after a uniformly chosen `1..=max_after` of their events
    /// (`FaultPlan::random_crashes` seeded by the run's seed).
    Random {
        /// Number of processes to crash.
        crashes: usize,
        /// Upper bound on the crash point.
        max_after: usize,
    },
    /// The same explicit crash points for every seed.
    Explicit {
        /// The crash points.
        crashes: Vec<CrashAt>,
    },
}

/// One operation of an exploration scope.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScenarioOp {
    /// Process performing the operation.
    pub pid: usize,
    /// Update (`write_max` / `increment` / `update`) or read
    /// (`read_max` / `read` / `scan`).
    pub kind: OpKind,
    /// Value for updates; ignored (but round-tripped) for reads.
    pub value: u64,
}

/// Update or read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// A mutating operation.
    Update,
    /// A read-only operation.
    Read,
}

impl OpKind {
    /// The schema name.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Update => "update",
            OpKind::Read => "read",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "update" => Some(OpKind::Update),
            "read" => Some(OpKind::Read),
            _ => None,
        }
    }
}

/// Parameters specific to the explore engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExploreSpec {
    /// Optional value written solo before the scope opens (max
    /// registers only; becomes the checker's initial value).
    pub seed_update: Option<u64>,
    /// The scope: one operation per process slot, at most 64.
    pub ops: Vec<ScenarioOp>,
    /// Schedule budget before the search reports truncation.
    pub max_schedules: usize,
    /// Sleep-set pruning on/off.
    pub prune: bool,
    /// Crash budget (0 = crash-free schedules only).
    pub max_crashes: usize,
}

/// k-multiplicative accuracy parameters (ISSUE 9). Only meaningful for
/// implementations whose registry entry carries an accuracy capability
/// (`caps.accuracy`); the engines reject `k > 1` on exact
/// implementations rather than silently weakening their verdicts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccuracySpec {
    /// The multiplicative factor `k` (`≥ 1`): reads may underestimate
    /// the true value by at most this factor and never overestimate it.
    /// `k = 1` demands exactness — checkers reduce bit-for-bit to their
    /// exact verdicts.
    pub k: u64,
}

/// Parameters specific to the real-threads engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RealSpec {
    /// Worker threads (one process id each).
    pub threads: usize,
    /// Operations per thread per batch.
    pub ops_per_thread: u64,
    /// Timed batches; the reported time is their median.
    pub samples: usize,
}

/// Step-tracing controls, shared by all three engines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceSpec {
    /// Collect per-op step statistics into the report's `steps` block.
    /// Defaults to `true` when the `trace` section is present.
    pub steps: bool,
    /// Write a `ruo-trace-v1` JSONL event stream to this path (sim and
    /// explore engines; one representative execution).
    pub jsonl: Option<String>,
    /// Write a Chrome `trace_event` JSON file to this path (sim and
    /// explore engines; opens in `chrome://tracing` / Perfetto).
    pub chrome: Option<String>,
}

impl Default for TraceSpec {
    fn default() -> Self {
        TraceSpec {
            steps: true,
            jsonl: None,
            chrome: None,
        }
    }
}

/// Telemetry sampling controls (sim and real engines). When present,
/// the engine registers its gauge families in a
/// `ruo_metrics::MetricsRegistry` and samples them through a
/// `SeriesSampler` on a deterministic tick source — the seed index in
/// sim, the timed-sample index in real — so the sampled curves land in
/// the report's `telemetry` block and are reproducible run to run.
/// The explore engine rejects this section (its per-schedule gauges
/// have no meaningful mid-run timeline).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TelemetrySpec {
    /// Ring capacity: the most recent samples kept (≥ 1).
    pub capacity: usize,
    /// Sample every `every` ticks (≥ 1); `1` samples every tick.
    pub every: u64,
}

impl Default for TelemetrySpec {
    fn default() -> Self {
        TelemetrySpec {
            capacity: 64,
            every: 1,
        }
    }
}

/// A complete declarative scenario.
///
/// Construct via [`ScenarioSpec::new`] (which fills the defaults) and
/// adjust fields directly; the struct is exhaustively public so specs
/// can also be written as literals in tests.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (report key; file stem by convention).
    pub name: String,
    /// Object family.
    pub family: Family,
    /// Implementation id within the family (registry key).
    pub impl_id: String,
    /// Engine that runs the scenario.
    pub engine: EngineKind,
    /// Number of processes.
    pub n: usize,
    /// Capacity for bounded implementations (AAC value bound, counter
    /// increment bound, path-copy update bound). `None` lets the engine
    /// derive one from the workload.
    pub capacity: Option<u64>,
    /// Base seed for workload generation and fault plans.
    pub seed: u64,
    /// Number of seeded schedules the sim engine sweeps.
    pub seeds: u64,
    /// Operations each process performs (sim engine).
    pub ops_per_process: usize,
    /// Percentage of operations that are reads (0–100); used by the
    /// real engine and the sim engine's random mix.
    pub read_pct: u8,
    /// Update values are drawn uniformly from `1..=value_bound`.
    pub value_bound: u64,
    /// How the sim engine builds per-process operation sequences.
    pub mix: OpMix,
    /// Scheduling policy (sim engine).
    pub schedule: SchedulePolicy,
    /// Executor step budget; `None` = unbounded.
    pub step_budget: Option<usize>,
    /// Fault plan (sim engine); `None` = crash-free.
    pub faults: Option<FaultSpec>,
    /// History checker.
    pub checker: CheckerKind,
    /// Certify per-process progress against a measured solo bound (sim
    /// engine) or completion counts (real engine).
    pub certify: bool,
    /// Opt into the § 4.5 root-read fast path where supported.
    pub root_fast_path: bool,
    /// Explore-engine parameters (required when `engine == Explore`).
    pub explore: Option<ExploreSpec>,
    /// Real-engine parameters (defaults derived from `n` when absent).
    pub real: Option<RealSpec>,
    /// Accuracy parameters (`None` = exact, equivalent to `k = 1`).
    /// Only valid on implementations whose registry entry advertises an
    /// accuracy capability when `k > 1`.
    pub accuracy: Option<AccuracySpec>,
    /// Step-tracing controls; `None` disables tracing entirely.
    pub trace: Option<TraceSpec>,
    /// Telemetry sampling controls; `None` disables the report's
    /// `telemetry` block (sim and real engines only).
    pub telemetry: Option<TelemetrySpec>,
    /// Wall-clock watchdog in seconds: a run that has not produced its
    /// report within this budget is failed with a structured
    /// `watchdog` verdict instead of hanging the harness. `None`
    /// disables the watchdog (the run may block forever).
    pub watchdog_secs: Option<u64>,
}

/// A spec validation / decoding error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario spec error: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

fn err<T>(msg: impl Into<String>) -> Result<T, SpecError> {
    Err(SpecError(msg.into()))
}

/// Requires `v` to be an object whose keys are all in `known`, naming
/// `section` in the error (the top level when empty). Every section is
/// strict: a misspelt knob would otherwise fall back to its default and
/// silently run a different scenario.
fn check_keys(v: &Json, section: &str, known: &[&str]) -> Result<(), SpecError> {
    let Some(obj) = v.as_obj() else {
        return err(if section.is_empty() {
            "top level must be an object".to_string()
        } else {
            format!("\"{section}\" must be an object")
        });
    };
    match obj.iter().find(|(k, _)| !known.contains(&k.as_str())) {
        None => Ok(()),
        Some((k, _)) if section.is_empty() => err(format!("unknown key \"{k}\"")),
        Some((k, _)) => err(format!("unknown key \"{k}\" in \"{section}\"")),
    }
}

impl ScenarioSpec {
    /// A spec with the given identity and every knob at its default:
    /// crash-free random schedules, 100 seeds, 8 ops per process, 50%
    /// reads, values in `1..=1000`, auto checker, no certification.
    pub fn new(
        name: impl Into<String>,
        family: Family,
        impl_id: impl Into<String>,
        engine: EngineKind,
        n: usize,
    ) -> Self {
        ScenarioSpec {
            name: name.into(),
            family,
            impl_id: impl_id.into(),
            engine,
            n,
            capacity: None,
            seed: 1,
            seeds: 100,
            ops_per_process: 8,
            read_pct: 50,
            value_bound: 1000,
            mix: OpMix::Random,
            schedule: SchedulePolicy::Random,
            step_budget: None,
            faults: None,
            checker: CheckerKind::Auto,
            certify: false,
            root_fast_path: false,
            explore: None,
            real: None,
            accuracy: None,
            trace: None,
            telemetry: None,
            watchdog_secs: None,
        }
    }

    /// Serializes to the `"ruo-scenario-v1"` JSON document.
    ///
    /// Every scalar field is always emitted (so files are
    /// self-documenting); `None` optionals are omitted.
    pub fn to_json(&self) -> String {
        let mut o: Vec<(String, Json)> = vec![
            ("schema".into(), Json::Str(SPEC_SCHEMA.into())),
            ("name".into(), Json::Str(self.name.clone())),
            ("family".into(), Json::Str(self.family.name().into())),
            ("impl".into(), Json::Str(self.impl_id.clone())),
            ("engine".into(), Json::Str(self.engine.name().into())),
            ("n".into(), Json::Num(self.n as u64)),
        ];
        if let Some(c) = self.capacity {
            o.push(("capacity".into(), Json::Num(c)));
        }
        o.push(("seed".into(), Json::Num(self.seed)));
        o.push(("seeds".into(), Json::Num(self.seeds)));
        o.push((
            "ops_per_process".into(),
            Json::Num(self.ops_per_process as u64),
        ));
        o.push(("read_pct".into(), Json::Num(self.read_pct as u64)));
        o.push(("value_bound".into(), Json::Num(self.value_bound)));
        o.push(("mix".into(), Json::Str(self.mix.name().into())));
        o.push(("schedule".into(), Json::Str(self.schedule.name().into())));
        if let Some(b) = self.step_budget {
            o.push(("step_budget".into(), Json::Num(b as u64)));
        }
        if let Some(f) = &self.faults {
            o.push(("faults".into(), fault_to_json(f)));
        }
        o.push(("checker".into(), Json::Str(self.checker.name().into())));
        o.push(("certify".into(), Json::Bool(self.certify)));
        o.push(("root_fast_path".into(), Json::Bool(self.root_fast_path)));
        if let Some(e) = &self.explore {
            o.push(("explore".into(), explore_to_json(e)));
        }
        if let Some(r) = &self.real {
            o.push(("real".into(), real_to_json(r)));
        }
        if let Some(a) = &self.accuracy {
            o.push((
                "accuracy".into(),
                Json::Obj(vec![("k".into(), Json::Num(a.k))]),
            ));
        }
        if let Some(t) = &self.trace {
            o.push(("trace".into(), trace_to_json(t)));
        }
        if let Some(t) = &self.telemetry {
            o.push((
                "telemetry".into(),
                Json::Obj(vec![
                    ("capacity".into(), Json::Num(t.capacity as u64)),
                    ("every".into(), Json::Num(t.every)),
                ]),
            ));
        }
        if let Some(w) = self.watchdog_secs {
            o.push(("watchdog_secs".into(), Json::Num(w)));
        }
        Json::Obj(o).pretty()
    }

    /// Parses and validates a `"ruo-scenario-v1"` document. Unknown
    /// keys are rejected in every section (they are almost always typos
    /// in a knob name).
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let doc = Json::parse(text).map_err(|e| SpecError(e.to_string()))?;
        const KNOWN: &[&str] = &[
            "schema",
            "name",
            "family",
            "impl",
            "engine",
            "n",
            "capacity",
            "seed",
            "seeds",
            "ops_per_process",
            "read_pct",
            "value_bound",
            "mix",
            "schedule",
            "step_budget",
            "faults",
            "checker",
            "certify",
            "root_fast_path",
            "explore",
            "real",
            "accuracy",
            "trace",
            "telemetry",
            "watchdog_secs",
        ];
        check_keys(&doc, "", KNOWN)?;
        match doc.get("schema").and_then(Json::as_str) {
            Some(SPEC_SCHEMA) => {}
            Some(other) => return err(format!("unsupported schema \"{other}\"")),
            None => return err("missing \"schema\""),
        }
        let name = req_str(&doc, "name")?.to_string();
        let family = match Family::parse(req_str(&doc, "family")?) {
            Some(f) => f,
            None => return err("\"family\" must be maxreg | counter | snapshot"),
        };
        let impl_id = req_str(&doc, "impl")?.to_string();
        let engine = match EngineKind::parse(req_str(&doc, "engine")?) {
            Some(e) => e,
            None => return err("\"engine\" must be real | sim | explore"),
        };
        let n = req_u64(&doc, "n")? as usize;
        if n == 0 {
            return err("\"n\" must be at least 1");
        }
        let mut spec = ScenarioSpec::new(&name, family, &impl_id, engine, n);
        spec.capacity = opt_u64(&doc, "capacity")?;
        if let Some(v) = opt_u64(&doc, "seed")? {
            spec.seed = v;
        }
        if let Some(v) = opt_u64(&doc, "seeds")? {
            spec.seeds = v;
        }
        if let Some(v) = opt_u64(&doc, "ops_per_process")? {
            spec.ops_per_process = v as usize;
        }
        if let Some(v) = opt_u64(&doc, "read_pct")? {
            if v > 100 {
                return err("\"read_pct\" must be 0–100");
            }
            spec.read_pct = v as u8;
        }
        if let Some(v) = opt_u64(&doc, "value_bound")? {
            if v == 0 {
                return err("\"value_bound\" must be at least 1");
            }
            spec.value_bound = v;
        }
        if let Some(s) = opt_str(&doc, "mix")? {
            spec.mix = match OpMix::parse(s) {
                Some(m) => m,
                None => return err("\"mix\" must be random | alternate"),
            };
        }
        if let Some(s) = opt_str(&doc, "schedule")? {
            spec.schedule = match SchedulePolicy::parse(s) {
                Some(p) => p,
                None => return err("\"schedule\" must be random | round_robin"),
            };
        }
        spec.step_budget = opt_u64(&doc, "step_budget")?.map(|v| v as usize);
        if let Some(f) = doc.get("faults") {
            spec.faults = Some(fault_from_json(f)?);
        }
        if let Some(s) = opt_str(&doc, "checker")? {
            spec.checker = match CheckerKind::parse(s) {
                Some(c) => c,
                None => return err("\"checker\" must be auto | interval | exact"),
            };
        }
        if let Some(b) = opt_bool(&doc, "certify")? {
            spec.certify = b;
        }
        if let Some(b) = opt_bool(&doc, "root_fast_path")? {
            spec.root_fast_path = b;
        }
        if let Some(e) = doc.get("explore") {
            spec.explore = Some(explore_from_json(e, spec.n)?);
        }
        if let Some(r) = doc.get("real") {
            spec.real = Some(real_from_json(r)?);
        }
        if let Some(a) = doc.get("accuracy") {
            spec.accuracy = Some(accuracy_from_json(a)?);
        }
        if let Some(t) = doc.get("trace") {
            spec.trace = Some(trace_from_json(t)?);
        }
        if let Some(t) = doc.get("telemetry") {
            spec.telemetry = Some(telemetry_from_json(t)?);
        }
        spec.watchdog_secs = opt_u64(&doc, "watchdog_secs")?;
        if spec.engine == EngineKind::Explore && spec.explore.is_none() {
            return err("engine \"explore\" requires an \"explore\" section");
        }
        Ok(spec)
    }

    /// The effective accuracy factor: `accuracy.k` when the section is
    /// present, else `1` (exact).
    pub fn accuracy_k(&self) -> u64 {
        self.accuracy.map_or(1, |a| a.k)
    }
}

fn req_str<'a>(doc: &'a Json, key: &str) -> Result<&'a str, SpecError> {
    match doc.get(key).and_then(Json::as_str) {
        Some(s) => Ok(s),
        None => err(format!("missing or non-string \"{key}\"")),
    }
}

fn req_u64(doc: &Json, key: &str) -> Result<u64, SpecError> {
    match doc.get(key).and_then(Json::as_u64) {
        Some(v) => Ok(v),
        None => err(format!("missing or non-integer \"{key}\"")),
    }
}

fn opt_u64(doc: &Json, key: &str) -> Result<Option<u64>, SpecError> {
    match doc.get(key) {
        None => Ok(None),
        Some(v) => match v.as_u64() {
            Some(n) => Ok(Some(n)),
            None => err(format!("\"{key}\" must be an unsigned integer")),
        },
    }
}

fn opt_str<'a>(doc: &'a Json, key: &str) -> Result<Option<&'a str>, SpecError> {
    match doc.get(key) {
        None => Ok(None),
        Some(v) => match v.as_str() {
            Some(s) => Ok(Some(s)),
            None => err(format!("\"{key}\" must be a string")),
        },
    }
}

fn opt_bool(doc: &Json, key: &str) -> Result<Option<bool>, SpecError> {
    match doc.get(key) {
        None => Ok(None),
        Some(v) => match v.as_bool() {
            Some(b) => Ok(Some(b)),
            None => err(format!("\"{key}\" must be a bool")),
        },
    }
}

fn fault_to_json(f: &FaultSpec) -> Json {
    match f {
        FaultSpec::Random { crashes, max_after } => Json::Obj(vec![
            ("kind".into(), Json::Str("random".into())),
            ("crashes".into(), Json::Num(*crashes as u64)),
            ("max_after".into(), Json::Num(*max_after as u64)),
        ]),
        FaultSpec::Explicit { crashes } => Json::Obj(vec![
            ("kind".into(), Json::Str("explicit".into())),
            (
                "crashes".into(),
                Json::Arr(
                    crashes
                        .iter()
                        .map(|c| {
                            Json::Obj(vec![
                                ("pid".into(), Json::Num(c.pid as u64)),
                                ("after".into(), Json::Num(c.after as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    }
}

fn fault_from_json(v: &Json) -> Result<FaultSpec, SpecError> {
    match v.get("kind").and_then(Json::as_str) {
        Some("random") => {
            check_keys(v, "faults", &["kind", "crashes", "max_after"])?;
            Ok(FaultSpec::Random {
                crashes: req_u64(v, "crashes")? as usize,
                max_after: req_u64(v, "max_after")? as usize,
            })
        }
        Some("explicit") => {
            check_keys(v, "faults", &["kind", "crashes"])?;
            let arr = match v.get("crashes").and_then(Json::as_arr) {
                Some(a) => a,
                None => return err("explicit faults need a \"crashes\" array"),
            };
            let mut crashes = Vec::with_capacity(arr.len());
            for c in arr {
                check_keys(c, "faults.crashes", &["pid", "after"])?;
                crashes.push(CrashAt {
                    pid: req_u64(c, "pid")? as usize,
                    after: req_u64(c, "after")? as usize,
                });
            }
            Ok(FaultSpec::Explicit { crashes })
        }
        _ => err("\"faults.kind\" must be random | explicit"),
    }
}

fn explore_to_json(e: &ExploreSpec) -> Json {
    let mut o: Vec<(String, Json)> = Vec::new();
    if let Some(s) = e.seed_update {
        o.push(("seed_update".into(), Json::Num(s)));
    }
    o.push((
        "ops".into(),
        Json::Arr(
            e.ops
                .iter()
                .map(|op| {
                    Json::Obj(vec![
                        ("pid".into(), Json::Num(op.pid as u64)),
                        ("kind".into(), Json::Str(op.kind.name().into())),
                        ("value".into(), Json::Num(op.value)),
                    ])
                })
                .collect(),
        ),
    ));
    o.push(("max_schedules".into(), Json::Num(e.max_schedules as u64)));
    o.push(("prune".into(), Json::Bool(e.prune)));
    o.push(("max_crashes".into(), Json::Num(e.max_crashes as u64)));
    Json::Obj(o)
}

fn explore_from_json(v: &Json, n: usize) -> Result<ExploreSpec, SpecError> {
    check_keys(
        v,
        "explore",
        &[
            "seed_update",
            "ops",
            "max_schedules",
            "prune",
            "max_crashes",
        ],
    )?;
    let arr = match v.get("ops").and_then(Json::as_arr) {
        Some(a) => a,
        None => return err("\"explore.ops\" must be an array"),
    };
    let mut ops = Vec::with_capacity(arr.len());
    for op in arr {
        check_keys(op, "explore.ops", &["pid", "kind", "value"])?;
        let pid = req_u64(op, "pid")? as usize;
        if pid >= n {
            return err(format!("explore op pid {pid} out of range for n = {n}"));
        }
        let kind = match OpKind::parse(req_str(op, "kind")?) {
            Some(k) => k,
            None => return err("explore op \"kind\" must be update | read"),
        };
        ops.push(ScenarioOp {
            pid,
            kind,
            value: opt_u64(op, "value")?.unwrap_or(0),
        });
    }
    if ops.len() > 64 {
        return err("the explorer supports at most 64 operations");
    }
    Ok(ExploreSpec {
        seed_update: opt_u64(v, "seed_update")?,
        ops,
        max_schedules: req_u64(v, "max_schedules")? as usize,
        prune: opt_bool(v, "prune")?.unwrap_or(true),
        max_crashes: opt_u64(v, "max_crashes")?.unwrap_or(0) as usize,
    })
}

fn real_to_json(r: &RealSpec) -> Json {
    Json::Obj(vec![
        ("threads".into(), Json::Num(r.threads as u64)),
        ("ops_per_thread".into(), Json::Num(r.ops_per_thread)),
        ("samples".into(), Json::Num(r.samples as u64)),
    ])
}

fn trace_to_json(t: &TraceSpec) -> Json {
    let mut o: Vec<(String, Json)> = vec![("steps".into(), Json::Bool(t.steps))];
    if let Some(p) = &t.jsonl {
        o.push(("jsonl".into(), Json::Str(p.clone())));
    }
    if let Some(p) = &t.chrome {
        o.push(("chrome".into(), Json::Str(p.clone())));
    }
    Json::Obj(o)
}

fn trace_from_json(v: &Json) -> Result<TraceSpec, SpecError> {
    check_keys(v, "trace", &["steps", "jsonl", "chrome"])?;
    Ok(TraceSpec {
        steps: opt_bool(v, "steps")?.unwrap_or(true),
        jsonl: opt_str(v, "jsonl")?.map(str::to_string),
        chrome: opt_str(v, "chrome")?.map(str::to_string),
    })
}

fn telemetry_from_json(v: &Json) -> Result<TelemetrySpec, SpecError> {
    check_keys(v, "telemetry", &["capacity", "every"])?;
    let defaults = TelemetrySpec::default();
    let capacity = opt_u64(v, "capacity")?.unwrap_or(defaults.capacity as u64);
    if capacity == 0 {
        return err("\"telemetry.capacity\" must be at least 1");
    }
    let every = opt_u64(v, "every")?.unwrap_or(defaults.every);
    if every == 0 {
        return err("\"telemetry.every\" must be at least 1");
    }
    Ok(TelemetrySpec {
        capacity: capacity as usize,
        every,
    })
}

fn accuracy_from_json(v: &Json) -> Result<AccuracySpec, SpecError> {
    check_keys(v, "accuracy", &["k"])?;
    let k = req_u64(v, "k")?;
    if k == 0 {
        return err("\"accuracy.k\" must be at least 1");
    }
    Ok(AccuracySpec { k })
}

fn real_from_json(v: &Json) -> Result<RealSpec, SpecError> {
    check_keys(v, "real", &["threads", "ops_per_thread", "samples"])?;
    let threads = req_u64(v, "threads")? as usize;
    if threads == 0 {
        return err("\"real.threads\" must be at least 1");
    }
    Ok(RealSpec {
        threads,
        ops_per_thread: req_u64(v, "ops_per_thread")?,
        samples: req_u64(v, "samples")? as usize,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_round_trips() {
        let spec = ScenarioSpec::new("smoke", Family::MaxReg, "tree", EngineKind::Sim, 4);
        let parsed = ScenarioSpec::parse(&spec.to_json()).unwrap();
        assert_eq!(parsed, spec);
    }

    #[test]
    fn fully_loaded_spec_round_trips() {
        let mut spec = ScenarioSpec::new(
            "full",
            Family::Snapshot,
            "double_collect",
            EngineKind::Sim,
            3,
        );
        spec.capacity = Some(512);
        spec.seed = 42;
        spec.seeds = 7;
        spec.step_budget = Some(100_000);
        spec.schedule = SchedulePolicy::RoundRobin;
        spec.mix = OpMix::Alternate;
        spec.checker = CheckerKind::Exact;
        spec.certify = true;
        spec.root_fast_path = true;
        spec.faults = Some(FaultSpec::Explicit {
            crashes: vec![CrashAt { pid: 1, after: 3 }, CrashAt { pid: 2, after: 9 }],
        });
        spec.explore = Some(ExploreSpec {
            seed_update: Some(3),
            ops: vec![
                ScenarioOp {
                    pid: 0,
                    kind: OpKind::Update,
                    value: 4,
                },
                ScenarioOp {
                    pid: 1,
                    kind: OpKind::Read,
                    value: 0,
                },
            ],
            max_schedules: 100_000,
            prune: false,
            max_crashes: 1,
        });
        spec.real = Some(RealSpec {
            threads: 4,
            ops_per_thread: 20_000,
            samples: 7,
        });
        spec.accuracy = Some(AccuracySpec { k: 4 });
        spec.trace = Some(TraceSpec {
            steps: false,
            jsonl: Some("target/traces/full.jsonl".into()),
            chrome: Some("target/traces/full.trace.json".into()),
        });
        spec.telemetry = Some(TelemetrySpec {
            capacity: 32,
            every: 2,
        });
        spec.watchdog_secs = Some(45);
        let parsed = ScenarioSpec::parse(&spec.to_json()).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(parsed.accuracy_k(), 4);
    }

    #[test]
    fn accuracy_section_is_strict_and_defaults_to_exact() {
        let mut spec = ScenarioSpec::new("a", Family::Counter, "approx", EngineKind::Sim, 2);
        assert_eq!(spec.accuracy_k(), 1);
        spec.accuracy = Some(AccuracySpec { k: 8 });
        let json = spec.to_json();
        assert_eq!(ScenarioSpec::parse(&json).unwrap(), spec);
        // k = 0 is meaningless (reads could return anything).
        let zero = json.replace("\"k\": 8", "\"k\": 0");
        assert!(ScenarioSpec::parse(&zero).unwrap_err().0.contains("k"));
        // Unknown keys inside "accuracy" are rejected like top-level typos.
        let typo = json.replace("\"k\": 8", "\"factor\": 8");
        let e = ScenarioSpec::parse(&typo).unwrap_err();
        assert!(e.0.contains("accuracy"), "{e}");
    }

    #[test]
    fn trace_section_is_strict_and_defaults_steps_on() {
        let mut spec = ScenarioSpec::new("t", Family::MaxReg, "tree", EngineKind::Sim, 2);
        spec.trace = Some(TraceSpec::default());
        let json = spec.to_json();
        assert_eq!(ScenarioSpec::parse(&json).unwrap(), spec);
        // An omitted "steps" defaults to true.
        let no_steps = json.replace("\"steps\": true", "\"jsonl\": \"t.jsonl\"");
        let parsed = ScenarioSpec::parse(&no_steps).unwrap();
        assert!(parsed.trace.as_ref().unwrap().steps);
        assert_eq!(parsed.trace.unwrap().jsonl.as_deref(), Some("t.jsonl"));
        // Unknown keys inside "trace" are rejected like top-level typos.
        let typo = json.replace("\"steps\": true", "\"stepz\": true");
        let e = ScenarioSpec::parse(&typo).unwrap_err();
        assert!(e.0.contains("trace"), "{e}");
    }

    #[test]
    fn telemetry_section_is_strict_with_sane_defaults() {
        let mut spec = ScenarioSpec::new("t", Family::MaxReg, "tree", EngineKind::Sim, 2);
        spec.telemetry = Some(TelemetrySpec::default());
        let json = spec.to_json();
        assert_eq!(ScenarioSpec::parse(&json).unwrap(), spec);
        // Omitted knobs take the defaults.
        let bare = json.replace("\"capacity\": 64,\n    \"every\": 1", "\"every\": 4");
        let parsed = ScenarioSpec::parse(&bare).unwrap();
        assert_eq!(
            parsed.telemetry,
            Some(TelemetrySpec {
                capacity: 64,
                every: 4
            })
        );
        // Degenerate knobs are rejected.
        let zero_cap = json.replace("\"capacity\": 64", "\"capacity\": 0");
        assert!(ScenarioSpec::parse(&zero_cap)
            .unwrap_err()
            .0
            .contains("capacity"));
        let zero_every = json.replace("\"every\": 1", "\"every\": 0");
        assert!(ScenarioSpec::parse(&zero_every)
            .unwrap_err()
            .0
            .contains("every"));
        // Unknown keys inside "telemetry" are rejected like top-level typos.
        let typo = json.replace("\"every\": 1", "\"evry\": 1");
        let e = ScenarioSpec::parse(&typo).unwrap_err();
        assert!(e.0.contains("telemetry"), "{e}");
    }

    #[test]
    fn rejects_unknown_keys_and_bad_values() {
        let base = ScenarioSpec::new("x", Family::MaxReg, "tree", EngineKind::Sim, 2).to_json();
        let typo = base.replace("\"seeds\"", "\"seedz\"");
        assert!(ScenarioSpec::parse(&typo).is_err());
        let bad_family = base.replace("\"maxreg\"", "\"stack\"");
        assert!(ScenarioSpec::parse(&bad_family).is_err());
        let bad_schema = base.replace(SPEC_SCHEMA, "ruo-scenario-v0");
        assert!(ScenarioSpec::parse(&bad_schema).is_err());

        // Every section is as strict as the top level, and the error
        // names the section.
        let mut spec = ScenarioSpec::new("y", Family::MaxReg, "tree", EngineKind::Explore, 2);
        spec.faults = Some(FaultSpec::Explicit {
            crashes: vec![CrashAt { pid: 1, after: 3 }],
        });
        spec.explore = Some(ExploreSpec {
            seed_update: None,
            ops: vec![ScenarioOp {
                pid: 0,
                kind: OpKind::Update,
                value: 4,
            }],
            max_schedules: 10,
            prune: true,
            max_crashes: 1,
        });
        spec.real = Some(RealSpec {
            threads: 2,
            ops_per_thread: 10,
            samples: 1,
        });
        let json = spec.to_json();
        assert_eq!(ScenarioSpec::parse(&json).unwrap(), spec);
        let mut random = spec.clone();
        random.faults = Some(FaultSpec::Random {
            crashes: 1,
            max_after: 5,
        });
        let random = random.to_json();
        for (text, key, typo, section) in [
            (&json, "\"max_crashes\"", "\"max_crash\"", "explore"),
            (
                &json,
                "\"max_crashes\"",
                "\"workers\": 4, \"max_crashes\"",
                "explore",
            ),
            (&json, "\"value\"", "\"val\"", "explore.ops"),
            (&json, "\"crashes\"", "\"crash\": 1, \"crashes\"", "faults"),
            (
                &random,
                "\"max_after\"",
                "\"max_afer\": 9, \"max_after\"",
                "faults",
            ),
            (
                &json,
                "\"after\"",
                "\"afer\": 1, \"after\"",
                "faults.crashes",
            ),
            (&json, "\"samples\"", "\"sample\": 1, \"samples\"", "real"),
        ] {
            let bad = text.replacen(key, typo, 1);
            assert_ne!(&bad, text, "{typo}");
            let e = ScenarioSpec::parse(&bad).unwrap_err();
            assert!(e.0.contains(&format!("in \"{section}\"")), "{typo}: {e}");
        }
    }

    #[test]
    fn explore_engine_requires_a_scope() {
        let spec = ScenarioSpec::new("w5", Family::MaxReg, "tree", EngineKind::Explore, 4);
        assert!(ScenarioSpec::parse(&spec.to_json()).is_err());
    }
}
