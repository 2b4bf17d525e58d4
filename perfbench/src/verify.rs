//! The `verify` workload: the simulator layer, single-threaded and
//! deterministic.
//!
//! Set-up generates two seeded, crash-injected simulator histories of
//! W9 size (10k operations each before the crash cuts one process
//! short) — the `counter/farray` and `maxreg/tree` sim faces under a
//! random schedule with one random crash — and builds the
//! exhaustive-exploration scope of Algorithm A that W5 checks. The
//! timed work then
//!
//! 1. decides each history [`CHECK_PASSES`] times with
//!    `check_interval` (each must pass),
//! 2. decides a copy of each with one planted impossible read (each must
//!    be rejected),
//! 3. explores every schedule of the scope without pruning (exactly
//!    [`EXPLORE_SCHEDULES`] of them, all linearizable), and
//! 4. runs simulated reads and updates solo on freshly built N = 64
//!    faces of both objects: the simulator's cost per read and per
//!    update, which is the paper's step count made wall clock.
//!
//! There are no threads and no sockets; `ruo_sim` does all the work.
//! The work is deterministic, so what moves its timings from run to run
//! is the host, which only ever slows it: the run's figures are
//! therefore [`quiet`] ones, from its least disturbed rounds and passes.

use std::sync::Arc;
use std::time::Instant;

use ruo_core::counter::sim::SimCounter;
use ruo_core::maxreg::sim::SimMaxRegister;
use ruo_scenario::{
    explore_parts, fault_plan_for_seed, find, run_sim_seed, BuildParams, Family, ScenarioSpec,
    SimObject,
};
use ruo_sim::explore::{explore, ExploreConfig, ExploreStats};
use ruo_sim::lin::{check_interval, check_max_register};
use ruo_sim::spec::SeqSpec;
use ruo_sim::{run_solo, History, Memory, OpDesc, OpOutput, ProcessId};

use crate::report::Report;
use crate::stats::{median, percentiles, quiet};
use crate::trace::Tracer;
use crate::{rounds, Config};

/// Schedules of the W5 Algorithm A scope, enumerated without pruning.
pub const EXPLORE_SCHEDULES: usize = 24_360;

/// The W5 scope: three writers and a reader on Algorithm A with N = 4,
/// after a seed write of 3.
const EXPLORE_SPEC: &str = r#"{
  "schema": "ruo-scenario-v1",
  "name": "perfbench_explore",
  "family": "maxreg",
  "impl": "tree",
  "engine": "explore",
  "n": 4,
  "seed": 1,
  "seeds": 1,
  "ops_per_process": 8,
  "read_pct": 50,
  "value_bound": 1000,
  "mix": "random",
  "schedule": "random",
  "checker": "auto",
  "certify": false,
  "root_fast_path": true,
  "explore": {
    "seed_update": 3,
    "ops": [
      {"pid": 0, "kind": "update", "value": 4},
      {"pid": 1, "kind": "update", "value": 2},
      {"pid": 2, "kind": "update", "value": 3},
      {"pid": 3, "kind": "read", "value": 0}
    ],
    "max_schedules": 100000,
    "prune": false,
    "max_crashes": 0
  }
}"#;

/// Processes of the sim faces run solo.
const SOLO_N: usize = 64;
/// First value written solo; at or above N, writes take the
/// process-tree arm.
const SOLO_FIRST_VALUE: u64 = 1 << 16;
/// Times each history is decided per round: one decision takes a few
/// milliseconds, too short to time steadily.
const CHECK_PASSES: usize = 32;
/// Passes over all processes per read sample: a one-step read takes
/// tens of nanoseconds, and a sample shorter than about a millisecond
/// lets single interrupts reach the round's p90.
const READ_PASSES: usize = 256;
/// Passes over all processes per update sample, for the same reason.
const UPDATE_PASSES: usize = 4;

/// The two history faces: (family, registry id).
const FACES: [(&str, &str); 2] = [("counter", "farray"), ("maxreg", "tree")];

struct Sizes {
    /// Operations per process in each generated history (N = 4).
    ops_per_process: usize,
    /// Read batches and update batches per round.
    solo_batches: usize,
    min_rounds: usize,
}

const FULL: Sizes = Sizes {
    ops_per_process: 2_500,
    solo_batches: 48,
    min_rounds: 3,
};

const TINY: Sizes = Sizes {
    ops_per_process: 100,
    solo_batches: 2,
    min_rounds: 1,
};

/// A W9-shaped history scenario for one face.
fn history_spec(family: &str, id: &str, seed: u64, ops_per_process: usize) -> ScenarioSpec {
    let text = format!(
        r#"{{
  "schema": "ruo-scenario-v1",
  "name": "perfbench_history_{family}_{id}",
  "family": "{family}",
  "impl": "{id}",
  "engine": "sim",
  "n": 4,
  "seed": {seed},
  "seeds": 1,
  "ops_per_process": {ops_per_process},
  "read_pct": 50,
  "value_bound": 1000,
  "mix": "alternate",
  "schedule": "random",
  "step_budget": 20000000,
  "faults": {{"kind": "random", "crashes": 1, "max_after": 5000}},
  "checker": "interval",
  "certify": false,
  "root_fast_path": false
}}"#
    );
    ScenarioSpec::parse(&text).expect("history scenario parses")
}

fn seq_spec(family: &str) -> SeqSpec {
    match family {
        "counter" => SeqSpec::Counter,
        _ => SeqSpec::MaxRegister { initial: 0 },
    }
}

/// A copy of `h` in which the middle completed read returns a value no
/// linearization allows: more than every increment (counter) or above
/// every written value (max register).
fn plant_impossible_read(h: &History, family: &str) -> History {
    let mut planted = h.clone();
    let ops = planted.ops_mut();
    let impossible = 1 + match family {
        "counter" => ops
            .iter()
            .filter(|op| op.desc == OpDesc::CounterIncrement)
            .count() as i64,
        _ => ops
            .iter()
            .filter_map(|op| match op.desc {
                OpDesc::WriteMax(v) => Some(v),
                _ => None,
            })
            .max()
            .unwrap_or(0),
    };
    let reads: Vec<usize> = (0..ops.len())
        .filter(|&i| ops[i].desc.is_read() && ops[i].is_complete())
        .collect();
    let i = reads[reads.len() / 2];
    ops[i].output = Some(OpOutput::Value(impossible));
    planted
}

/// Both sim faces for N = 64, each in its own memory.
struct SoloFaces {
    counter: (Memory, Arc<dyn SimCounter>),
    maxreg: (Memory, Arc<dyn SimMaxRegister>),
    next_value: u64,
}

impl SoloFaces {
    fn build() -> SoloFaces {
        let params = BuildParams {
            n: SOLO_N,
            capacity: 1 << 20,
            root_fast_path: false,
            accuracy_k: 1,
        };
        let mut cm = Memory::new();
        let Ok(SimObject::Counter(c)) =
            find(Family::Counter, "farray").and_then(|e| e.build_sim(&mut cm, &params))
        else {
            panic!("the registry builds the f-array sim face");
        };
        let mut mm = Memory::new();
        let Ok(SimObject::MaxReg(m)) =
            find(Family::MaxReg, "tree").and_then(|e| e.build_sim(&mut mm, &params))
        else {
            panic!("the registry builds the Algorithm A sim face");
        };
        SoloFaces {
            counter: (cm, c),
            maxreg: (mm, m),
            next_value: SOLO_FIRST_VALUE,
        }
    }

    /// One read sample, [`READ_PASSES`] solo reads by every process on
    /// each face; µs per read.
    fn reads(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..READ_PASSES {
            for p in 0..SOLO_N {
                let pid = ProcessId(p);
                let (mem, c) = &mut self.counter;
                run_solo(mem, pid, c.read(pid));
                let (mem, m) = &mut self.maxreg;
                run_solo(mem, pid, m.read_max(pid));
            }
        }
        t.elapsed().as_secs_f64() * 1e6 / (2 * SOLO_N * READ_PASSES) as f64
    }

    /// One update sample, [`UPDATE_PASSES`] solo updates by every
    /// process on each face; µs per update.
    fn updates(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..UPDATE_PASSES {
            for p in 0..SOLO_N {
                let pid = ProcessId(p);
                let (mem, c) = &mut self.counter;
                run_solo(mem, pid, c.increment(pid));
                let (mem, m) = &mut self.maxreg;
                run_solo(mem, pid, m.write_max(pid, self.next_value));
                self.next_value += 1;
            }
        }
        t.elapsed().as_secs_f64() * 1e6 / (2 * SOLO_N * UPDATE_PASSES) as f64
    }
}

struct RoundOut {
    setup_s: f64,
    generate_s: f64,
    work_s: f64,
    check_s: f64,
    ops: f64,
    /// History operations decided per second, per pass over both.
    pass_rates: Vec<f64>,
    reject_s: f64,
    explore_s: f64,
    read_us: Vec<f64>,
    update_us: Vec<f64>,
    stats: ExploreStats,
}

/// Runs the workload.
pub fn run(cfg: &Config, tracer: &Tracer) -> Report {
    let sizes = if cfg.tiny { &TINY } else { &FULL };
    let explore_spec = ScenarioSpec::parse(EXPLORE_SPEC).expect("explore scenario parses");
    let mut report = Report::default();
    let mut outs: Vec<RoundOut> = Vec::new();
    let peaks = rounds(cfg, tracer, sizes.min_rounds, |_| {
        let on = tracer.round_records();
        let round_id = tracer.id();
        let mut buf = tracer.buf(0, on);

        // Set-up: the same seeded histories every round, and the scope.
        let t0 = Instant::now();
        let histories: Vec<(&str, History)> = FACES
            .iter()
            .map(|&(family, id)| {
                let spec = history_spec(family, id, cfg.seed, sizes.ops_per_process);
                let run = run_sim_seed(&spec, cfg.seed, &fault_plan_for_seed(&spec, cfg.seed))
                    .expect("the sim face runs");
                (family, run.outcome.history)
            })
            .collect();
        let generated = Instant::now();
        buf.record("sim.exec.generate", "sim", round_id, t0, generated);
        let parts = explore_parts(&explore_spec).expect("the explore scope builds");
        let ready = Instant::now();

        // 1. Every generated history is linearizable.
        let mut ops = 0usize;
        let mut pass_rates = Vec::with_capacity(CHECK_PASSES);
        for _ in 0..CHECK_PASSES {
            let pass = Instant::now();
            let mut pass_ops = 0;
            for (family, h) in &histories {
                let t = Instant::now();
                let ok = check_interval(h, &seq_spec(family)).is_ok();
                buf.record("sim.lin.check", "sim", round_id, t, Instant::now());
                report.gate("verify.histories_accepted", ok, 1);
                pass_ops += h.len();
            }
            pass_rates.push(pass_ops as f64 / pass.elapsed().as_secs_f64());
            ops += pass_ops;
        }
        let checked = Instant::now();

        // 2. Every planted violation is caught.
        for (family, h) in &histories {
            let planted = plant_impossible_read(h, family);
            let t = Instant::now();
            let rejected = check_interval(&planted, &seq_spec(family)).is_err();
            buf.record("sim.lin.reject", "sim", round_id, t, Instant::now());
            report.gate("verify.planted_rejected", rejected, 1);
        }
        let rejected = Instant::now();

        // 3. The exploration finds every schedule, and each one passes.
        let initial = parts.initial;
        let mut verdict = |h: &History| check_max_register(h, initial).is_ok();
        let summary = explore(
            &*parts.setup,
            &parts.ops,
            &mut verdict,
            ExploreConfig {
                max_schedules: 100_000,
                prune: false,
                max_crashes: 0,
            },
        );
        let explored = Instant::now();
        buf.record("sim.explore", "sim", round_id, rejected, explored);
        report.gate(
            "verify.schedule_count",
            summary.schedules == EXPLORE_SCHEDULES
                && !summary.truncated
                && summary.violation.is_none(),
            1,
        );
        report.attempted += ((CHECK_PASSES + 1) * histories.len() + 1) as u64;

        // 4. Simulated reads and updates, solo. Every sample starts on
        // fresh faces, so no sample pays for growing a long event log.
        let mut read_us = Vec::with_capacity(sizes.solo_batches);
        let mut update_us = Vec::with_capacity(sizes.solo_batches);
        for _ in 0..sizes.solo_batches {
            let mut solo = SoloFaces::build();
            read_us.push(solo.reads());
            update_us.push(solo.updates());
        }
        let end = Instant::now();
        buf.record("sim.exec.solo", "sim", round_id, explored, end);
        buf.record_as(round_id, "verify.round", "bench", 0, t0, end, None);

        outs.push(RoundOut {
            setup_s: (ready - t0).as_secs_f64(),
            generate_s: (generated - t0).as_secs_f64(),
            work_s: (end - ready).as_secs_f64(),
            check_s: (checked - ready).as_secs_f64(),
            ops: ops as f64,
            pass_rates,
            reject_s: (rejected - checked).as_secs_f64(),
            explore_s: (explored - rejected).as_secs_f64(),
            read_us,
            update_us,
            stats: summary.stats,
        });
    });
    let per_round = |f: &dyn Fn(&RoundOut) -> f64| outs.iter().map(f).collect::<Vec<_>>();
    let low = |f: &dyn Fn(&RoundOut) -> f64| quiet(&per_round(f), true);
    let read = |o: &RoundOut| percentiles(&o.read_us);
    let update = |o: &RoundOut| percentiles(&o.update_us);
    let pass_rates: Vec<f64> = outs
        .iter()
        .flat_map(|o| o.pass_rates.iter().copied())
        .collect();
    report.e2e("setup_s", low(&|o| o.setup_s), "s");
    report.e2e("ops_per_s", quiet(&pass_rates, false), "ops/s");
    report.e2e("read_p50_us", low(&|o| read(o).p50), "us");
    report.e2e("read_p90_us", low(&|o| read(o).p90), "us");
    report.e2e("update_p50_us", low(&|o| update(o).p50), "us");
    report.e2e("update_p90_us", low(&|o| update(o).p90), "us");
    report.e2e("work_s", low(&|o| o.work_s), "s");
    report.e2e("peak_rss_mb", median(&peaks), "MB");
    let med = |f: &dyn Fn(&RoundOut) -> f64| median(&per_round(f));
    if !cfg.traced {
        return report;
    }
    let stats = outs[0].stats;
    report.layer("sim.exec.generate_s", med(&|o| o.generate_s), "s");
    report.layer("sim.lin.check_s", med(&|o| o.check_s), "s");
    report.layer("sim.lin.ops", outs[0].ops, "count");
    report.layer("sim.lin.ops_per_s", med(&|o| o.ops / o.check_s), "ops/s");
    report.layer("sim.lin.reject_s", med(&|o| o.reject_s), "s");
    report.layer("sim.explore.s", med(&|o| o.explore_s), "s");
    report.layer("sim.explore.schedules", stats.schedules as f64, "count");
    report.layer(
        "sim.explore.executed_steps",
        stats.executed_steps as f64,
        "count",
    );
    report.layer(
        "sim.explore.replay_steps_saved",
        stats.replay_steps_saved as f64,
        "count",
    );
    report.layer(
        "sim.explore.pruned_branches",
        stats.pruned_branches as f64,
        "count",
    );
    report.layer(
        "sim.explore.schedules_per_s",
        med(&|o| o.stats.schedules as f64 / o.explore_s),
        "1/s",
    );
    report
}
