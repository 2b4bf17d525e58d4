//! Perf-regression sentry CLI: diffs two `BENCH_*.json` documents with
//! the schema-aware rules in [`ruo_bench::compare`].
//!
//! ```text
//! bench_compare <baseline.json> <current.json>
//! ```
//!
//! Prints the comparison report and exits `1` if any deterministic
//! result blocks — a correctness counter grew, a flag turned false, or
//! a simulator count changed — `2` on malformed inputs or mismatched
//! schemas, `0` otherwise. Wall-clock and throughput deltas are printed
//! and never fail. Typical use: diff a fresh CI run against the
//! checked-in baselines under `docs/results/baselines/`.

use std::process::exit;

use ruo_bench::compare::compare;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, current_path] = args.as_slice() else {
        eprintln!("usage: bench_compare <baseline.json> <current.json>");
        exit(2);
    };
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: {path}: {e}");
            exit(2);
        })
    };
    let baseline = read(baseline_path);
    let current = read(current_path);
    match compare(&baseline, &current) {
        Ok(cmp) => {
            print!("{}", cmp.report());
            if cmp.blocking().is_empty() {
                println!("PASS: {current_path} vs {baseline_path}");
            } else {
                println!("FAIL: {current_path} vs {baseline_path}: a gated result changed");
                exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            exit(2);
        }
    }
}
