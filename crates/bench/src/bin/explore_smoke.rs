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
use ruo_metrics::Json;
use ruo_scenario::{run_explore, ScenarioReport, ScenarioSpec};

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

fn load(text: &str) -> ScenarioSpec {
    let spec = ScenarioSpec::parse(text).expect("checked-in W5 spec parses");
    assert_eq!(
        ScenarioSpec::parse(&spec.to_json()).as_ref(),
        Ok(&spec),
        "W5 spec round trip must be identity"
    );
    spec
}

/// One explorer counter of a report.
fn count(report: &ScenarioReport, key: &str) -> u64 {
    report
        .counter(key)
        .expect("explore reports carry their counters")
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
    let n5_spec = load(N5_SPEC);

    let mut full_secs = Vec::new();
    let mut pruned_secs = Vec::new();
    let mut full = None;
    let mut pruned = None;
    for _ in 0..samples {
        let (r, t) = run(&full_spec);
        full_secs.push(t);
        full = Some(r);
        let (r, t) = run(&pruned_spec);
        pruned_secs.push(t);
        pruned = Some(r);
    }
    let full = full.expect("at least one sample");
    let pruned = pruned.expect("at least one sample");
    // The N=5 / 2-crash scope: the headroom run, timed once — large
    // enough to be meaningless to sample, small enough to stay
    // un-truncated (run() panics otherwise).
    let (n5, n5_t) = run(&n5_spec);
    let full_schedules = count(&full, "schedules");
    let pruned_schedules = count(&pruned, "schedules");
    let cut = count(&pruned, "pruned_branches");
    let executed = count(&pruned, "executed_steps");
    let saved = count(&pruned, "replay_steps_saved");
    let n5_schedules = count(&n5, "schedules");
    let n5_crash_branches = count(&n5, "crash_branches");
    assert!(
        pruned_schedules < full_schedules,
        "sleep-set pruning must cut schedules: {pruned_schedules} pruned vs {full_schedules} full"
    );
    assert!(n5_schedules > 0, "the N=5 / 2-crash scope explored nothing");
    let full_t = median(&mut full_secs);
    let pruned_t = median(&mut pruned_secs);
    let factor = full_schedules as f64 / pruned_schedules as f64;
    let replay_factor = saved as f64 / executed as f64;

    println!("W5: exhaustive explorer, scaled scope (3 writers + 1 reader, N=4, § 4.5 fast path)");
    println!(
        "  full:   {:>6} schedules  {:>8.1} ms",
        full_schedules,
        full_t * 1e3
    );
    println!(
        "  pruned: {:>6} schedules  {:>8.1} ms  ({} branches cut, {:.1}x fewer schedules)",
        pruned_schedules,
        pruned_t * 1e3,
        cut,
        factor
    );
    println!(
        "  incremental replay: {executed} steps executed, {saved} replay steps saved ({replay_factor:.1}x)"
    );
    println!(
        "  N=5 / 2-crash headroom: {} schedules ({} crash branches) in {:.1} ms, un-truncated",
        n5_schedules,
        n5_crash_branches,
        n5_t * 1e3
    );

    BenchDoc::new("ruo-explore-v1", quick)
        .field("experiment", "W5")
        .field("samples", samples)
        .field(
            "full",
            Json::obj([
                ("schedules", Json::from(full_schedules)),
                ("seconds", Json::from(full_t)),
            ]),
        )
        .field(
            "pruned",
            Json::obj([
                ("schedules", Json::from(pruned_schedules)),
                ("seconds", Json::from(pruned_t)),
                ("pruned_branches", Json::from(cut)),
                ("executed_steps", Json::from(executed)),
                ("replay_steps_saved", Json::from(saved)),
            ]),
        )
        .field(
            "n5_two_crash",
            Json::obj([
                ("schedules", Json::from(n5_schedules)),
                ("crash_branches", Json::from(n5_crash_branches)),
                ("seconds", Json::from(n5_t)),
            ]),
        )
        .field("pruning_factor", factor)
        .field("replay_savings_factor", replay_factor)
        .write(&out)
        .expect("write results JSON");
    println!("  wrote {out}");
}
