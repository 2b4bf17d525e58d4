//! Experiment W5 — exhaustive-explorer smoke harness.
//!
//! Runs the canonical scaled scope (three `WriteMax`es — two dominated —
//! plus a `ReadMax` against the real Algorithm A on `N = 4` with the
//! § 4.5 root fast path) twice over identical inputs: once enumerating
//! every interleaving, once with sleep-set pruning. Both runs must
//! complete un-truncated with no violation; the harness reports schedule
//! counts, the pruning factor, replay-steps saved by incremental
//! execution, and wall-clock, and writes the results as
//! machine-readable JSON (`BENCH_explore.json` when run from the
//! repository root) so before/after comparisons are a `diff`.
//!
//! Since the scenario-engine refactor the scope lives in the checked-in
//! `scenarios/w5_explore_{full,pruned}.json` specs (embedded at compile
//! time), and [`ruo_scenario::run_explore`] drives the search — this
//! harness asserts the specs still describe the canonical scope and
//! formats the results.
//!
//! CLI: `--quick` (1 timing sample instead of 3 — the CI smoke target),
//! `--out <path>` (default `BENCH_explore.json`).

use ruo_bench::doc::BenchDoc;
use ruo_metrics::{ExploreGauges, Json};
use ruo_scenario::{run_explore, ScenarioReport, ScenarioSpec};
use ruo_sim::explore::ExploreStats;
use ruo_sim::ProcessId;

const FULL_SPEC: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../scenarios/w5_explore_full.json"
));
const PRUNED_SPEC: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../scenarios/w5_explore_pruned.json"
));
const N5_SPEC: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../scenarios/w9_explore_n5_2crash.json"
));

/// Worker count for the partitioned re-run of the pruned scope.
const PARALLEL_WORKERS: usize = 4;

fn load(text: &str) -> ScenarioSpec {
    let spec = ScenarioSpec::parse(text).expect("checked-in W5 spec parses");
    assert_eq!(
        ScenarioSpec::parse(&spec.to_json()).as_ref(),
        Ok(&spec),
        "W5 spec round trip must be identity"
    );
    spec
}

/// The explorer counters a report carries, in `ExploreStats` shape (for
/// the metrics gauges).
fn stats_of(report: &ScenarioReport) -> ExploreStats {
    ExploreStats {
        schedules: report.counter("schedules").unwrap_or(0) as usize,
        pruned_branches: report.counter("pruned_branches").unwrap_or(0) as usize,
        executed_steps: report.counter("executed_steps").unwrap_or(0),
        replay_steps_saved: report.counter("replay_steps_saved").unwrap_or(0),
        peak_depth: report.counter("peak_depth").unwrap_or(0) as usize,
        crash_branches: report.counter("crash_branches").unwrap_or(0) as usize,
        reads: 0,
        writes: 0,
        cas_ok: 0,
        cas_fail: 0,
    }
}

/// One timed run; panics on any violation or truncation — this harness
/// is also the CI gate that the scope stays exhaustively checkable.
fn run(spec: &ScenarioSpec) -> (ScenarioReport, f64) {
    let report = run_explore(spec, false).expect("W5 scope builds");
    assert!(report.ok, "W5 scope failed: {:?}", report.notes);
    let secs = report.metric("seconds").expect("explore reports seconds");
    (report, secs)
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    samples[samples.len() / 2]
}

fn main() {
    let mut quick = false;
    let mut out = "BENCH_explore.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out = args.next().expect("--out requires a path"),
            a => panic!("unknown argument: {a}"),
        }
    }
    let samples: usize = if quick { 1 } else { 3 };
    let full_spec = load(FULL_SPEC);
    let pruned_spec = load(PRUNED_SPEC);
    // The same pruned scope searched by a partitioned root frontier:
    // the merged stats must reproduce the sequential run exactly.
    let mut parallel_spec = pruned_spec.clone();
    parallel_spec
        .explore
        .as_mut()
        .expect("explore section")
        .workers = PARALLEL_WORKERS;
    let n5_spec = load(N5_SPEC);

    let gauges = ExploreGauges::new(3);
    let mut full_secs = Vec::new();
    let mut pruned_secs = Vec::new();
    let mut parallel_secs = Vec::new();
    let mut full = None;
    let mut pruned = None;
    let mut parallel = None;
    for _ in 0..samples {
        let (r, t) = run(&full_spec);
        gauges.record(ProcessId(0), &stats_of(&r));
        full_secs.push(t);
        full = Some(r);
        let (r, t) = run(&pruned_spec);
        gauges.record(ProcessId(1), &stats_of(&r));
        pruned_secs.push(t);
        pruned = Some(r);
        let (r, t) = run(&parallel_spec);
        gauges.record(ProcessId(2), &stats_of(&r));
        parallel_secs.push(t);
        parallel = Some(r);
    }
    let full = stats_of(&full.expect("at least one sample"));
    let pruned = stats_of(&pruned.expect("at least one sample"));
    let parallel = stats_of(&parallel.expect("at least one sample"));
    assert_eq!(
        parallel, pruned,
        "partitioned search must reproduce the sequential counts exactly"
    );
    // The N=5 / 2-crash scope: the headroom run, timed once — large
    // enough to be meaningless to sample, small enough to stay
    // un-truncated (run() panics otherwise).
    let (n5_report, n5_t) = run(&n5_spec);
    let n5 = stats_of(&n5_report);
    assert!(
        pruned.schedules < full.schedules,
        "sleep-set pruning must cut schedules: {} pruned vs {} full",
        pruned.schedules,
        full.schedules
    );
    assert!(n5.schedules > 0, "the N=5 / 2-crash scope explored nothing");
    let full_t = median(&mut full_secs);
    let pruned_t = median(&mut pruned_secs);
    let parallel_t = median(&mut parallel_secs);
    let factor = full.schedules as f64 / pruned.schedules as f64;
    let replay_factor = pruned.replay_steps_saved as f64 / pruned.executed_steps as f64;

    println!("W5: exhaustive explorer, scaled scope (3 writers + 1 reader, N=4, § 4.5 fast path)");
    println!(
        "  full:   {:>6} schedules  {:>8.1} ms",
        full.schedules,
        full_t * 1e3
    );
    println!(
        "  pruned: {:>6} schedules  {:>8.1} ms  ({} branches cut, {:.1}x fewer schedules)",
        pruned.schedules,
        pruned_t * 1e3,
        pruned.pruned_branches,
        factor
    );
    println!(
        "  incremental replay: {} steps executed, {} replay steps saved ({:.1}x)",
        pruned.executed_steps, pruned.replay_steps_saved, replay_factor
    );
    println!(
        "  parallel ({} workers): {:>6} schedules  {:>8.1} ms  ({:.2}x vs sequential pruned)",
        PARALLEL_WORKERS,
        parallel.schedules,
        parallel_t * 1e3,
        pruned_t / parallel_t
    );
    println!(
        "  N=5 / 2-crash headroom: {} schedules ({} crash branches) in {:.1} ms, un-truncated",
        n5.schedules,
        n5.crash_branches,
        n5_t * 1e3
    );
    println!("  gauges: {gauges:?}");

    BenchDoc::new("ruo-explore-v1", quick)
        .field("experiment", "W5")
        .field("samples", samples)
        .field(
            "full",
            Json::obj([
                ("schedules", Json::from(full.schedules)),
                ("seconds", Json::from(full_t)),
            ]),
        )
        .field(
            "pruned",
            Json::obj([
                ("schedules", Json::from(pruned.schedules)),
                ("seconds", Json::from(pruned_t)),
                ("pruned_branches", Json::from(pruned.pruned_branches)),
                ("executed_steps", Json::from(pruned.executed_steps)),
                ("replay_steps_saved", Json::from(pruned.replay_steps_saved)),
            ]),
        )
        .field(
            "parallel",
            Json::obj([
                ("workers", Json::from(PARALLEL_WORKERS)),
                ("schedules", Json::from(parallel.schedules)),
                ("seconds", Json::from(parallel_t)),
                ("speedup", Json::from(pruned_t / parallel_t)),
                ("pruned_branches", Json::from(parallel.pruned_branches)),
                ("executed_steps", Json::from(parallel.executed_steps)),
                (
                    "replay_steps_saved",
                    Json::from(parallel.replay_steps_saved),
                ),
            ]),
        )
        .field(
            "n5_two_crash",
            Json::obj([
                (
                    "workers",
                    Json::from(n5_spec.explore.as_ref().expect("explore section").workers),
                ),
                ("schedules", Json::from(n5.schedules)),
                ("crash_branches", Json::from(n5.crash_branches)),
                ("seconds", Json::from(n5_t)),
            ]),
        )
        .field("pruning_factor", factor)
        .field("replay_savings_factor", replay_factor)
        .write(&out)
        .expect("write results JSON");
    println!("  wrote {out}");
}
