//! The perf-regression sentry over the checked-in quick baselines under
//! `docs/results/baselines/`: every baseline parses, pairs with itself
//! path for path, and classes every numeric leaf — so a deterministic
//! count cannot slip into the unchecked class unnoticed. Hand-edited
//! copies prove that the gated results block and that wall clock only
//! reports.

use std::path::PathBuf;

use ruo_bench::compare::{compare, Class, Comparison};
use ruo_metrics::Json;

fn baselines_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../docs/results/baselines")
}

fn baseline(name: &str) -> String {
    let path = baselines_dir().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The leaf at `path` (object keys, or array indices for arrays).
fn leaf_mut<'a>(mut v: &'a mut Json, path: &[&str]) -> &'a mut Json {
    for seg in path {
        v = match v {
            Json::Obj(pairs) => {
                &mut pairs
                    .iter_mut()
                    .find(|(k, _)| k == seg)
                    .unwrap_or_else(|| panic!("no key {seg}"))
                    .1
            }
            Json::Arr(items) => &mut items[seg.parse::<usize>().expect("array index")],
            other => panic!("cannot descend into {other:?} at {seg}"),
        };
    }
    v
}

/// Compares the baseline `name` against a copy with one leaf edited.
fn edited(name: &str, path: &[&str], edit: impl Fn(&Json) -> Json) -> Comparison {
    let text = baseline(name);
    let mut doc = Json::parse(&text).expect("baseline parses");
    let leaf = leaf_mut(&mut doc, path);
    *leaf = edit(leaf);
    compare(&text, &doc.pretty()).expect("same schema")
}

fn plus(n: i64) -> impl Fn(&Json) -> Json {
    move |v| Json::from(v.as_i64().expect("integer leaf") + n)
}

fn times(x: f64) -> impl Fn(&Json) -> Json {
    move |v| Json::from(v.as_f64().expect("numeric leaf") * x)
}

#[test]
fn every_baseline_pairs_with_itself_and_classes_every_leaf() {
    let mut names: Vec<String> = std::fs::read_dir(baselines_dir())
        .expect("baselines directory")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .into_string()
                .expect("UTF-8")
        })
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    names.sort();
    assert_eq!(names.len(), 5, "{names:?}");
    for name in &names {
        let text = baseline(name);
        let c = compare(&text, &text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            c.only_baseline.is_empty() && c.only_current.is_empty(),
            "{name}: {}",
            c.report()
        );
        assert!(c.unclassified().is_empty(), "{name}: {}", c.report());
        assert!(c.blocking().is_empty(), "{name}: {}", c.report());
        assert!(
            c.deltas
                .iter()
                .any(|d| d.class != Some(Class::Informational)),
            "{name}: nothing is gated or reported"
        );
    }
}

#[test]
fn edited_deterministic_results_block() {
    let blocks = |c: Comparison, class: Class| {
        let b = c.blocking();
        assert_eq!(b.len(), 1, "{}", c.report());
        assert_eq!(b[0].class, Some(class), "{}", c.report());
    };
    let explore = "BENCH_explore.json";
    blocks(
        edited(explore, &["full", "schedules"], plus(1)),
        Class::Exact,
    );
    blocks(
        edited(explore, &["full", "schedules"], plus(-1)),
        Class::Exact,
    );
    blocks(
        edited(explore, &["pruned", "pruned_branches"], plus(1)),
        Class::Exact,
    );
    let complexity = "BENCH_complexity.json";
    blocks(
        edited(
            complexity,
            &["curves", "1", "points", "2", "steps"],
            plus(1),
        ),
        Class::Exact,
    );
    blocks(
        edited(complexity, &["shapes_ok"], |_| Json::Bool(false)),
        Class::Flag,
    );
    blocks(
        edited(
            "BENCH_telemetry.json",
            &["registry", "loads_invariant"],
            |_| Json::Bool(false),
        ),
        Class::Flag,
    );
    blocks(
        edited("BENCH_serve.json", &["violations_total"], plus(1)),
        Class::Counter,
    );
    blocks(
        edited(
            "BENCH_approx.json",
            &["steps", "0", "max_op_steps"],
            plus(1),
        ),
        Class::Exact,
    );
}

#[test]
fn wall_clock_moves_are_reported_not_blocking() {
    for (name, path) in [
        ("BENCH_serve.json", &["clean", "p99_us"][..]),
        ("BENCH_telemetry.json", &["registry", "snapshot_ns"][..]),
        ("BENCH_explore.json", &["full", "seconds"][..]),
        ("BENCH_approx.json", &["throughput", "0", "mops_per_s"][..]),
    ] {
        let c = edited(name, path, times(3.0));
        assert!(c.blocking().is_empty(), "{name}: {}", c.report());
        assert!(c.report().contains("reported "), "{name}: {}", c.report());
    }
}
