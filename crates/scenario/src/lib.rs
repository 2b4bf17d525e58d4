//! Scenario engine: one declarative harness for every face of the
//! repository's read/update objects.
//!
//! The crate unifies what used to be four hand-rolled harnesses (soak,
//! throughput, exploration smoke, equivalence tests) behind three
//! pieces:
//!
//! * a **registry** ([`registry()`](registry())) of every max-register / counter /
//!   snapshot implementation, each entry carrying constructors for both
//!   faces — the real-atomics trait objects and the simulator
//!   step-machine factories — plus capability metadata (progress class,
//!   capacity bounds, process-count limits);
//! * a **declarative spec** ([`ScenarioSpec`]) naming a family,
//!   implementation, engine, process count, seeded operation mix,
//!   schedule policy, fault plan, checker and budgets, with a
//!   round trip through the workspace's JSON model ([`Json`], defined
//!   in `ruo-metrics`) that is identity;
//! * three **engines** ([`engine`]) consuming the same spec — scoped
//!   threads with latency histograms and progress certification
//!   ([`run_real`]), the adversarial step-machine executor with
//!   linearizability checking ([`run_sim`]), and the bounded model
//!   checker with sleep-set pruning and crash budgets ([`run_explore`])
//!   — all emitting one [`ScenarioReport`] shape.
//!
//! The `scenario` binary runs checked-in specs from `scenarios/*.json`;
//! the W4–W6 experiment harnesses and the integration tests are thin
//! layers over this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod engine;
pub mod registry;
pub mod report;
pub mod spec;

pub use engine::{
    build_sim_object, check_history, explore_parts, fault_plan_for_seed, measure_step_bound,
    resolve_checker, run, run_explore, run_real, run_sim, run_sim_seed, run_with_watchdog,
    EngineError, ExploreParts, SimSeedRun,
};
pub use registry::{
    family_impls, find, registry, AccuracyClass, BuildError, BuildParams, Capabilities, Family,
    ImplEntry, ProgressClass, RealObject, SimObject,
};
pub use report::{ScenarioReport, TelemetryBlock, REPORT_SCHEMA};
pub use ruo_metrics::{Json, JsonError};
pub use spec::{
    AccuracySpec, CheckerKind, CrashAt, EngineKind, ExploreSpec, FaultSpec, OpKind, OpMix,
    RealSpec, ScenarioOp, ScenarioSpec, SchedulePolicy, SpecError, TelemetrySpec, TraceSpec,
    SPEC_SCHEMA,
};
