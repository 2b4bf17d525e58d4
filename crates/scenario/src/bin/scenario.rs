//! Declarative scenario runner.
//!
//! ```text
//! scenario list                               # registry contents
//! scenario run [--quick] [--json] <files...>  # run specs, exit 1 on failure
//! ```
//!
//! `run` parses each spec, verifies the JSON codec round-trips to an
//! identical spec (exit 2 on codec or parse errors), dispatches to the
//! engine the spec names, and prints one verdict line per scenario.
//! Every run goes through the wall-clock watchdog: a spec's own
//! `watchdog_secs` wins, `--watchdog <secs>` supplies a default for
//! specs that don't set one, and a fired watchdog is an ordinary
//! failing report (nonzero exit), not a hung process.
//! With `--json` the verdict lines move to stderr and stdout carries a
//! single `ruo-scenario-run-v1` document embedding every full
//! [`ScenarioReport`] (counters, metrics, notes, and the `steps` block),
//! so downstream tooling parses one object instead of scraping lines.

use std::process::exit;

use ruo_scenario::{registry, run_with_watchdog, Family, Json, ScenarioReport, ScenarioSpec};

/// Schema tag of the combined `--json` document.
const RUN_SCHEMA: &str = "ruo-scenario-run-v1";

fn usage() -> ! {
    eprintln!("usage: scenario list");
    eprintln!("       scenario run [--quick] [--json] [--watchdog <secs>] <spec.json>...");
    exit(2);
}

fn list() {
    println!(
        "{:<10} {:<16} {:<28} {:<6} {:<6} {:<16} accuracy",
        "family", "impl", "display", "real", "sim", "progress"
    );
    for family in Family::all() {
        for entry in registry().iter().filter(|e| e.family == family) {
            println!(
                "{:<10} {:<16} {:<28} {:<6} {:<6} {:<16} {}",
                family.name(),
                entry.id,
                entry.display,
                if entry.has_real() { "yes" } else { "-" },
                if entry.has_sim() { "yes" } else { "-" },
                entry.caps.progress.name(),
                entry.caps.accuracy.map_or("exact", |a| a.name()),
            );
        }
    }
}

fn load_spec(path: &str) -> Result<ScenarioSpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let spec = ScenarioSpec::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    // The codec round trip must be identity: serialize the parsed spec
    // and parse it back.
    let reparsed = ScenarioSpec::parse(&spec.to_json())
        .map_err(|e| format!("{path}: round-trip re-parse failed: {e}"))?;
    if reparsed != spec {
        return Err(format!(
            "{path}: spec -> JSON -> spec round trip is not identity"
        ));
    }
    Ok(spec)
}

/// The combined `--json` document: every spec file paired with its full
/// report, re-parsed through the crate codec so the output is guaranteed
/// well-formed as one object.
fn combined_json(quick: bool, results: &[(String, ScenarioReport)]) -> String {
    let failures = results.iter().filter(|(_, r)| !r.ok).count();
    let entries = results
        .iter()
        .map(|(path, report)| {
            let doc = Json::parse(&report.to_json()).expect("report JSON parses");
            Json::Obj(vec![
                ("file".into(), Json::Str(path.clone())),
                ("report".into(), doc),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("schema".into(), Json::Str(RUN_SCHEMA.into())),
        ("quick".into(), Json::Bool(quick)),
        ("failures".into(), Json::Num(failures as u64)),
        ("results".into(), Json::Arr(entries)),
    ])
    .pretty()
}

fn run_files(args: &[String]) -> i32 {
    let mut quick = false;
    let mut json = false;
    let mut default_watchdog: Option<u64> = None;
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--json" => json = true,
            "--watchdog" => match it.next().and_then(|s| s.parse().ok()) {
                Some(secs) => default_watchdog = Some(secs),
                None => usage(),
            },
            _ if a.starts_with("--") => usage(),
            _ => files.push(a.clone()),
        }
    }
    if files.is_empty() {
        usage();
    }
    let mut failures = 0;
    let mut results: Vec<(String, ScenarioReport)> = Vec::new();
    for path in &files {
        let mut spec = match load_spec(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {e}");
                exit(2);
            }
        };
        if spec.watchdog_secs.is_none() {
            spec.watchdog_secs = default_watchdog;
        }
        match run_with_watchdog(&spec, quick) {
            Ok(report) => {
                let verdict = if report.ok { "ok" } else { "FAIL" };
                let counters: Vec<String> = report
                    .counters
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect();
                let duration = report
                    .metric("duration_ms")
                    .map(|ms| format!(" ({ms:.0} ms)"))
                    .unwrap_or_default();
                let mut lines = vec![format!(
                    "{verdict:<5} {:<32} [{}/{} {}] {}{duration}",
                    spec.name,
                    spec.family,
                    spec.impl_id,
                    spec.engine.name(),
                    counters.join(" ")
                )];
                for note in &report.notes {
                    lines.push(format!("      note: {note}"));
                }
                for line in lines {
                    // In --json mode stdout is reserved for the document.
                    if json {
                        eprintln!("{line}");
                    } else {
                        println!("{line}");
                    }
                }
                if !report.ok {
                    failures += 1;
                }
                results.push((path.clone(), report));
            }
            Err(e) => {
                eprintln!("error: {path}: {e}");
                exit(2);
            }
        }
    }
    if json {
        print!("{}", combined_json(quick, &results));
    }
    if failures > 0 {
        eprintln!("\n{failures} scenario(s) failed");
        1
    } else {
        0
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => list(),
        Some("run") => exit(run_files(&args[1..])),
        _ => usage(),
    }
}
