//! Schema-aware diffing of two `BENCH_*.json` documents — the
//! perf-regression sentry behind the `bench_compare` binary.
//!
//! [`compare`] flattens both documents into `path -> value` maps (rows
//! are matched by their identity label — see [`crate::doc`] — not by
//! array position), pairs every shared numeric or boolean leaf, and
//! classes it by its leaf name with [`class_of`]. Only deterministic
//! results block:
//!
//! * [`Class::Counter`] — audited correctness counters (`violations`,
//!   `acked_lost`, …) block when they grow;
//! * [`Class::Flag`] — every boolean leaf is a pass/fail flag
//!   (`shapes_ok`, `loads_invariant`, …) and blocks when it turns false;
//! * [`Class::Exact`] — deterministic simulator counts (steps, loads,
//!   schedules, branches) block on any change in either direction, so a
//!   change that moves one updates the baseline in the same diff;
//! * [`Class::Reported`] — wall-clock and throughput deltas are printed
//!   and never block;
//! * [`Class::Informational`] — workload sizes and the counts of real
//!   threaded or networked runs, which depend on timing; every such
//!   name is on the one explicit [`INFORMATIONAL`] list.
//!
//! A leaf no rule matches is *unclassified*: it is listed in the report
//! and never blocks, and the sentry test over the checked-in baselines
//! keeps that list empty. The schema tag, the environment block
//! ([`crate::doc::ENV_KEYS`]) and the run stamp ([`crate::doc::RUN_KEY`])
//! are never paired — a laptop baseline and a CI run legitimately differ
//! there; the report prints both stamps. Paths present on only one side
//! are listed and never block.

use std::collections::BTreeMap;

use ruo_metrics::Json;

use crate::doc::{row_label, ENV_KEYS, IDENTITY_KEYS, RUN_KEY};

/// How the sentry judges one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// An audited correctness counter: blocks when it grows.
    Counter,
    /// A pass/fail flag: blocks when it turns false.
    Flag,
    /// A deterministic simulator count: blocks on any change.
    Exact,
    /// Wall clock or throughput: printed, never blocks.
    Reported,
    /// A workload size or a timing-dependent count: never judged.
    Informational,
}

/// Leaf names that are neither gated nor reported: workload sizes,
/// fitted display coefficients, and the counts of real threaded or
/// networked runs (retries, sheds, peaks), which depend on timing.
pub const INFORMATIONAL: &[&str] = &[
    // Workload and document sizes.
    "samples",
    "seed",
    "clients",
    "requests_per_client",
    "requests",
    "connections",
    "runs",
    "updates",
    "reads",
    "total_ops",
    "scalars",
    "capacity",
    "exposition_bytes",
    "spans",
    "total",
    "increments_per_thread",
    "thread_counts",
    // Fit coefficients of the complexity curves; their points are gated.
    "a",
    "b_log2",
    "max_resid",
    // Serve-layer outcomes of a real TCP run.
    "ok",
    "failed",
    "retries",
    "reconnects",
    "degraded",
    "acked_incrs",
    "audit_ops",
    "ok_exact",
    "ok_degraded",
    "err_overload",
    "err_deadline",
    "io_failed",
    "acked",
    "applied",
    "admitted",
    "shed",
    "served",
    "degraded_reads",
    "deadline_misses",
    "dedup_hits",
    "parse_errors",
    "io_errors",
    "chaos_injected",
    "queue_depth_peak",
    "inflight_peak",
    "degraded_error_permille_peak",
    // Stripe balance of a real threaded run.
    "per_stripe",
    "imbalance",
    "hottest_stripe",
    "hottest_count",
];

/// The class of a leaf named `metric`; `flag` says the leaf is a JSON
/// boolean. `None` when no rule matches.
pub fn class_of(metric: &str, flag: bool) -> Option<Class> {
    if flag {
        return Some(Class::Flag);
    }
    if metric.starts_with("violations")
        || metric.ends_with("_violations")
        || metric.ends_with("_lost")
        || metric.ends_with("_failures")
        || metric == "truncated"
    {
        return Some(Class::Counter);
    }
    if metric == "steps"
        || metric.contains("_steps")
        || metric.starts_with("loads")
        || metric == "schedules"
        || metric.ends_with("_branches")
        || metric.ends_with("_factor")
    {
        return Some(Class::Exact);
    }
    if metric.ends_with("_ns")
        || metric.ends_with("_us")
        || metric.ends_with("_ms")
        || metric == "seconds"
        || metric == "ns_per_op"
        || metric.contains("mops")
        || metric.ends_with("_per_s")
        || metric.ends_with("_ratio")
        || metric == "speedup"
    {
        return Some(Class::Reported);
    }
    INFORMATIONAL
        .contains(&metric)
        .then_some(Class::Informational)
}

/// One numeric or boolean leaf of a flattened document.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Leaf {
    value: f64,
    flag: bool,
}

/// One paired metric.
#[derive(Clone, Debug)]
pub struct Delta {
    /// Flattened path, rows keyed by identity label.
    pub path: String,
    /// The leaf metric name (decides the class).
    pub metric: String,
    /// Value in the baseline document (flags read 1 for true).
    pub baseline: f64,
    /// Value in the current document.
    pub current: f64,
    /// How the metric is judged; `None` when unclassified.
    pub class: Option<Class>,
}

impl Delta {
    /// Whether the move blocks: a counter grew, a flag turned false, or
    /// an exact count changed.
    pub fn blocks(&self) -> bool {
        match self.class {
            Some(Class::Counter) => self.current > self.baseline,
            Some(Class::Flag) => self.current < self.baseline,
            Some(Class::Exact) => self.current != self.baseline,
            _ => false,
        }
    }

    /// Relative change, `current` vs `baseline` (`0.1` = +10%).
    pub fn ratio(&self) -> f64 {
        if self.baseline == 0.0 {
            if self.current == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.current / self.baseline - 1.0
        }
    }
}

/// The full judgement of one baseline/current pair.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// The shared schema tag.
    pub schema: String,
    /// Each side's run stamp as compact JSON, `unstamped` when it has
    /// none: baseline, then current.
    pub runs: [String; 2],
    /// Every paired leaf.
    pub deltas: Vec<Delta>,
    /// Paths only the baseline has.
    pub only_baseline: Vec<String>,
    /// Paths only the current document has.
    pub only_current: Vec<String>,
}

impl Comparison {
    /// The deltas that block.
    pub fn blocking(&self) -> Vec<&Delta> {
        self.deltas.iter().filter(|d| d.blocks()).collect()
    }

    /// The paired leaves no rule classifies.
    pub fn unclassified(&self) -> Vec<&Delta> {
        self.deltas.iter().filter(|d| d.class.is_none()).collect()
    }

    /// Human-readable report: every blocking delta, every reported
    /// metric that moved, then what was only on one side or
    /// unclassified.
    pub fn report(&self) -> String {
        let blocking = self.blocking();
        let count = |class| {
            self.deltas
                .iter()
                .filter(|d| d.class == Some(class))
                .count()
        };
        let gated = count(Class::Counter) + count(Class::Flag) + count(Class::Exact);
        let mut out = format!(
            "# bench_compare — schema {} — {} metrics paired: {gated} gated, {} reported, \
             {} informational, {} unclassified — {} blocking\n",
            self.schema,
            self.deltas.len(),
            count(Class::Reported),
            count(Class::Informational),
            self.unclassified().len(),
            blocking.len(),
        );
        out += &format!(
            "baseline run: {}\ncurrent run: {}\n",
            self.runs[0], self.runs[1]
        );
        for d in &blocking {
            let why = match d.class {
                Some(Class::Counter) => "correctness counter grew",
                Some(Class::Flag) => "flag turned false",
                _ => "deterministic count changed",
            };
            out += &format!(
                "BLOCK {}: {} -> {} ({why})\n",
                d.path, d.baseline, d.current
            );
        }
        for d in self.deltas.iter() {
            if d.class == Some(Class::Reported) && d.current != d.baseline {
                out += &format!(
                    "reported {}: {} -> {} ({:+.1}%)\n",
                    d.path,
                    d.baseline,
                    d.current,
                    d.ratio() * 100.0
                );
            }
        }
        for p in &self.only_baseline {
            out += &format!("only in baseline: {p}\n");
        }
        for p in &self.only_current {
            out += &format!("only in current: {p}\n");
        }
        for d in self.unclassified() {
            out += &format!("unclassified: {}\n", d.path);
        }
        out
    }
}

/// A flattened document: `path -> (metric name, leaf)`.
type Flat = BTreeMap<String, (String, Leaf)>;

/// Flattens `v` into `out`; `metric` is the name of the key the value
/// sits under (array items inherit their array's).
fn flatten_into(path: &str, metric: &str, v: &Json, out: &mut Flat) {
    let leaf = |value| Leaf { value, flag: false };
    let leaf = match v {
        Json::Obj(pairs) => {
            for (k, child) in pairs {
                if path.is_empty()
                    && (k == "schema" || k == RUN_KEY || ENV_KEYS.contains(&k.as_str()))
                {
                    continue;
                }
                // Identity fields already label the row's path.
                if IDENTITY_KEYS.contains(&k.as_str()) {
                    continue;
                }
                let child_path = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                flatten_into(&child_path, k, child, out);
            }
            return;
        }
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                let label = match item {
                    Json::Obj(pairs) => row_label(pairs).unwrap_or_else(|| i.to_string()),
                    _ => i.to_string(),
                };
                flatten_into(&format!("{path}[{label}]"), metric, item, out);
            }
            return;
        }
        Json::Num(n) => leaf(*n as f64),
        Json::Int(n) => leaf(*n as f64),
        Json::Float(x) => leaf(*x),
        Json::Bool(b) => Leaf {
            value: f64::from(u8::from(*b)),
            flag: true,
        },
        Json::Null | Json::Str(_) => return,
    };
    out.insert(path.to_string(), (metric.to_string(), leaf));
}

/// A parsed document: its schema tag, its run stamp and its leaves.
fn parse_doc(what: &str, text: &str) -> Result<(String, String, Flat), String> {
    let doc = Json::parse(text).map_err(|e| format!("{what}: {e}"))?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{what}: no top-level \"schema\" tag"))?
        .to_string();
    let run = doc.get(RUN_KEY).map_or("unstamped".into(), Json::compact);
    let mut flat = BTreeMap::new();
    flatten_into("", "", &doc, &mut flat);
    Ok((schema, run, flat))
}

/// Diffs two bench documents (JSON text). Errors on malformed JSON, a
/// missing schema tag, or mismatched schemas — comparing a throughput
/// file against a soak file is a usage error, not a pass.
pub fn compare(baseline: &str, current: &str) -> Result<Comparison, String> {
    let (schema_b, run_b, flat_b) = parse_doc("baseline", baseline)?;
    let (schema_c, run_c, flat_c) = parse_doc("current", current)?;
    if schema_b != schema_c {
        return Err(format!(
            "schema mismatch: baseline {schema_b:?} vs current {schema_c:?}"
        ));
    }
    let mut deltas = Vec::new();
    let mut only_baseline = Vec::new();
    for (path, (metric, b)) in &flat_b {
        match flat_c.get(path) {
            Some((_, c)) => deltas.push(Delta {
                path: path.clone(),
                metric: metric.clone(),
                baseline: b.value,
                current: c.value,
                class: class_of(metric, b.flag && c.flag),
            }),
            None => only_baseline.push(path.clone()),
        }
    }
    let only_current = flat_c
        .keys()
        .filter(|p| !flat_b.contains_key(*p))
        .cloned()
        .collect();
    Ok(Comparison {
        schema: schema_b,
        runs: [run_b, run_c],
        deltas,
        only_baseline,
        only_current,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{
        "schema": "ruo-test-v1",
        "quick": true,
        "shapes_ok": true,
        "results": [
            {"family": "counter", "impl": "farray", "threads": 2,
             "median_ns": 1000, "mops_per_s": 50.0, "violations": 0, "max_op_steps": 9},
            {"family": "maxreg", "impl": "tree", "threads": 2,
             "median_ns": 2000, "mops_per_s": 25.0, "violations": 0, "max_op_steps": 7}
        ],
        "schedules": 696,
        "requests": 2
    }"#;

    fn tweak(field: &str, from: &str, to: &str) -> String {
        let needle = format!("\"{field}\": {from}");
        let swapped = BASE.replacen(&needle, &format!("\"{field}\": {to}"), 1);
        assert_ne!(swapped, BASE, "tweak {field} {from} matched nothing");
        swapped
    }

    #[test]
    fn identical_documents_do_not_block() {
        let c = compare(BASE, BASE).unwrap();
        assert_eq!(c.schema, "ruo-test-v1");
        assert!(c.blocking().is_empty(), "{}", c.report());
        assert!(c.only_baseline.is_empty() && c.only_current.is_empty());
        assert!(c.unclassified().is_empty(), "{}", c.report());
        // quick is environment metadata, never paired.
        assert!(c.deltas.iter().all(|d| d.path != "quick"));
    }

    #[test]
    fn run_stamps_are_printed_never_paired() {
        let stamp =
            r#""run": {"commit": "0123abc", "dirty": true, "argv": ["approx", "--seed", "7"]},"#;
        let stamped = BASE.replacen("\"shapes_ok\"", &format!("{stamp} \"shapes_ok\""), 1);
        let restamped = stamped
            .replace("0123abc", "4567def")
            .replace("\"dirty\": true", "\"dirty\": false");
        for (base, cur) in [(BASE, &stamped), (&stamped, &restamped)] {
            let c = compare(base, cur).unwrap();
            assert!(
                c.only_baseline.is_empty() && c.only_current.is_empty(),
                "{}",
                c.report()
            );
            assert!(
                c.deltas.iter().all(|d| !d.path.starts_with("run")),
                "{}",
                c.report()
            );
            assert!(c.blocking().is_empty(), "{}", c.report());
        }
        let report = compare(BASE, &stamped).unwrap().report();
        assert!(report.contains("baseline run: unstamped\n"), "{report}");
        assert!(
            report.contains(
                r#"current run: {"commit":"0123abc","dirty":true,"argv":["approx","--seed","7"]}"#
            ),
            "{report}"
        );
    }

    #[test]
    fn deterministic_counts_block_on_any_change() {
        for (field, from, to) in [
            ("schedules", "696", "697"),
            ("schedules", "696", "695"),
            ("max_op_steps", "9", "10"),
            ("max_op_steps", "9", "8"),
        ] {
            let c = compare(BASE, &tweak(field, from, to)).unwrap();
            let b = c.blocking();
            assert_eq!(b.len(), 1, "{field} {from}->{to}: {}", c.report());
            assert_eq!(b[0].class, Some(Class::Exact));
            assert!(c.report().contains("BLOCK"));
        }
    }

    #[test]
    fn correctness_blocks_only_when_it_gets_worse() {
        let c = compare(BASE, &tweak("violations", "0", "1")).unwrap();
        let b = c.blocking();
        assert_eq!(b.len(), 1, "{}", c.report());
        assert!(b[0].path.contains("impl=farray"), "{}", b[0].path);
        let c = compare(BASE, &tweak("shapes_ok", "true", "false")).unwrap();
        assert_eq!(c.blocking()[0].class, Some(Class::Flag), "{}", c.report());
        // Getting better never blocks.
        let c = compare(&tweak("violations", "0", "1"), BASE).unwrap();
        assert!(c.blocking().is_empty(), "{}", c.report());
        let c = compare(&tweak("shapes_ok", "true", "false"), BASE).unwrap();
        assert!(c.blocking().is_empty(), "{}", c.report());
    }

    #[test]
    fn wall_clock_and_throughput_are_reported_never_blocking() {
        for (field, from, to) in [
            ("median_ns", "1000", "3000"),
            ("mops_per_s", "25.0", "1.0"),
            ("median_ns", "2000", "100"),
        ] {
            let c = compare(BASE, &tweak(field, from, to)).unwrap();
            assert!(c.blocking().is_empty(), "{}", c.report());
            assert!(c.report().contains("reported "), "{}", c.report());
        }
    }

    #[test]
    fn rows_pair_by_identity_not_position() {
        // Reverse the rows; the farray change must still pin to the
        // farray row.
        let reordered = BASE.replace(
            r#"{"family": "counter", "impl": "farray", "threads": 2,
             "median_ns": 1000, "mops_per_s": 50.0, "violations": 0, "max_op_steps": 9},
            {"family": "maxreg", "impl": "tree", "threads": 2,
             "median_ns": 2000, "mops_per_s": 25.0, "violations": 0, "max_op_steps": 7}"#,
            r#"{"family": "maxreg", "impl": "tree", "threads": 2,
             "median_ns": 2000, "mops_per_s": 25.0, "violations": 0, "max_op_steps": 7},
            {"family": "counter", "impl": "farray", "threads": 2,
             "median_ns": 1000, "mops_per_s": 50.0, "violations": 0, "max_op_steps": 10}"#,
        );
        assert_ne!(reordered, BASE);
        let c = compare(BASE, &reordered).unwrap();
        let b = c.blocking();
        assert_eq!(b.len(), 1, "{}", c.report());
        assert!(b[0].path.contains("family=counter,impl=farray,threads=2"));
    }

    #[test]
    fn informational_metrics_never_gate() {
        let c = compare(BASE, &tweak("requests", "2", "9000")).unwrap();
        assert!(c.blocking().is_empty(), "{}", c.report());
        assert!(!c.report().contains("requests"), "{}", c.report());
    }

    #[test]
    fn schema_mismatch_and_malformed_inputs_error() {
        let other = BASE.replace("ruo-test-v1", "ruo-other-v1");
        assert!(compare(BASE, &other).unwrap_err().contains("mismatch"));
        assert!(compare("{nope", BASE).is_err());
        assert!(compare("{}", BASE).unwrap_err().contains("schema"));
    }

    #[test]
    fn missing_added_and_unclassified_metrics_are_listed_not_gated() {
        let grown = BASE.replacen("\"requests\": 2", "\"new_rows\": 2", 1);
        let c = compare(BASE, &grown).unwrap();
        assert!(c.blocking().is_empty());
        assert_eq!(c.only_baseline, vec!["requests".to_string()]);
        assert_eq!(c.only_current, vec!["new_rows".to_string()]);
        let rep = c.report();
        assert!(rep.contains("only in baseline: requests"));
        assert!(rep.contains("only in current: new_rows"));
        let c = compare(&grown, &grown.replace("\"new_rows\": 2", "\"new_rows\": 3")).unwrap();
        assert!(c.blocking().is_empty());
        assert_eq!(c.unclassified().len(), 1);
        assert!(c.report().contains("unclassified: new_rows"));
    }

    #[test]
    fn rules_cover_the_bench_schemas() {
        let class = |m| class_of(m, false);
        assert_eq!(class("p99_us"), Some(Class::Reported));
        assert_eq!(class("duration_ms"), Some(Class::Reported));
        assert_eq!(class("mops_per_s"), Some(Class::Reported));
        assert_eq!(class("speedup"), Some(Class::Reported));
        assert_eq!(class("violations_total"), Some(Class::Counter));
        assert_eq!(class("audit_violations"), Some(Class::Counter));
        assert_eq!(class("acked_lost"), Some(Class::Counter));
        assert_eq!(class("mean_update_steps"), Some(Class::Exact));
        assert_eq!(class("replay_steps_saved"), Some(Class::Exact));
        assert_eq!(class("loads_per_snapshot"), Some(Class::Exact));
        assert_eq!(class("schedules"), Some(Class::Exact));
        assert_eq!(class("crash_branches"), Some(Class::Exact));
        assert_eq!(class("retries"), Some(Class::Informational));
        assert_eq!(class("no_such_metric"), None);
        // A boolean is a flag whatever its name.
        assert_eq!(class_of("loads_invariant", true), Some(Class::Flag));
        assert_eq!(class_of("overhead_ok", true), Some(Class::Flag));
    }
}
