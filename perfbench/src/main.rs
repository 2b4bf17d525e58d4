//! `perfbench --workload <serve|objects|verify> --seed <n> --seconds <s>
//! --trace <0|1> [--trace-dir <dir>]`
//!
//! Runs one workload, prints a table of its gates and metrics on
//! standard error and its result document as JSON on standard output,
//! and exits 1 if any correctness gate failed.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{run, Config, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload <serve|objects|verify> --seed <n> \
         --seconds <s> --trace <0|1> [--trace-dir <dir>]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut cfg = Config {
        seed: 1,
        seconds: 10.0,
        traced: false,
        tiny: false,
        trace_dir: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Workload::parse(&value);
                workload.is_some()
            }
            "--seed" => value.parse().map(|s| cfg.seed = s).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .map(|s| cfg.seconds = s)
                .is_ok_and(|()| cfg.seconds.is_finite() && cfg.seconds >= 0.0),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    cfg.traced = value == "1";
                    true
                }
                _ => false,
            },
            "--trace-dir" => {
                cfg.trace_dir = Some(PathBuf::from(&value));
                true
            }
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if !ok {
            return usage(&format!("bad value {value:?} for {flag}"));
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let report = run(workload, &cfg);
    eprintln!(
        "perfbench {} seed {} ({}):\n{}",
        workload.name(),
        cfg.seed,
        if cfg.traced { "traced" } else { "untraced" },
        report.table()
    );
    print!("{}", report.to_json().pretty());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
