//! Experiment W7 — empirical validation of the paper's step bounds.
//!
//! Sweeps solo step counts of Algorithm A (`ReadMax` / `WriteMax`) and
//! the f-array counter across `N ∈ {2..64}` and written values
//! `v ∈ {1..2^20}`, fits each curve against `a + b·log₂(x)`, and
//! asserts the bound shapes the paper proves: constant reads,
//! `O(min(log N, log v))` writes (flattening at the tree-depth bound),
//! `Θ(log N)` counter updates. Shape violations exit nonzero — this is
//! the CI gate that the repo's implementations keep the complexity
//! classes the paper trades off.
//!
//! CLI: `--quick` (smaller sweeps — the CI target),
//! `--out <path>` (default `BENCH_complexity.json`).

use ruo_bench::complexity::{check_shapes, profile, ComplexityProfile};
use ruo_bench::doc::BenchDoc;
use ruo_bench::{log2_ceil, Table};
use ruo_metrics::Json;

#[derive(Clone, Debug)]
struct Config {
    quick: bool,
    out: String,
}

impl Config {
    fn from_args() -> Self {
        let mut cfg = Config {
            quick: false,
            out: "BENCH_complexity.json".to_string(),
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => cfg.quick = true,
                "--out" => {
                    cfg.out = args.next().expect("--out requires a path");
                }
                _ => {}
            }
        }
        cfg
    }
}

fn write_json(cfg: &Config, p: &ComplexityProfile, failures: &[String]) -> std::io::Result<()> {
    let curves: Vec<Json> = p
        .curves
        .iter()
        .map(|c| {
            let points: Vec<Json> = c
                .points
                .iter()
                .map(|pt| Json::obj([("x", Json::from(pt.x)), ("steps", Json::from(pt.steps))]))
                .collect();
            Json::obj([
                ("name", Json::from(c.name)),
                ("x", Json::from(c.x_label)),
                ("bound", Json::from(c.bound)),
                (
                    "fit",
                    Json::obj([
                        ("a", Json::from(c.fit.a)),
                        ("b_log2", Json::from(c.fit.b_log2)),
                        ("max_resid", Json::from(c.fit.max_resid)),
                    ]),
                ),
                ("points", Json::Arr(points)),
            ])
        })
        .collect();
    BenchDoc::new("ruo-complexity-v1", p.quick)
        .field("shapes_ok", failures.is_empty())
        .field("curves", curves)
        .write(&cfg.out)
}

fn main() {
    let cfg = Config::from_args();
    println!("# W7 — step-complexity profile (measured solo steps)\n");
    let p = profile(cfg.quick);

    for c in &p.curves {
        println!("## {} vs {}  (bound: {})\n", c.name, c.x_label, c.bound);
        let mut t = Table::new(&[c.x_label, "log2", "steps"]);
        for pt in &c.points {
            t.row(vec![
                pt.x.to_string(),
                log2_ceil(pt.x).to_string(),
                pt.steps.to_string(),
            ]);
        }
        t.print();
        println!(
            "\nfit: steps ≈ {:.2} + {:.2}·log2({})  (max residual {:.2})\n",
            c.fit.a, c.fit.b_log2, c.x_label, c.fit.max_resid
        );
    }

    let failures = check_shapes(&p);
    write_json(&cfg, &p, &failures).expect("write JSON results");
    println!("wrote {}", cfg.out);

    if failures.is_empty() {
        println!("\nall bound shapes hold: O(1) reads, O(min(log N, log v)) writes, Θ(log N) counter updates");
    } else {
        eprintln!("\nBOUND SHAPE VIOLATIONS:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
}
