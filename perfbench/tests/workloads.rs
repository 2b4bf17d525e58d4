//! Each workload at its smallest size under two seeds: every gate holds,
//! and the deterministic counts do not depend on the seed.

use perfbench::{run, Config, Report, Workload};

fn tiny(workload: Workload, seed: u64) -> Report {
    let report = run(
        workload,
        &Config {
            seed,
            seconds: 0.0,
            traced: true,
            tiny: true,
            trace_dir: None,
        },
    );
    assert!(
        report.correct(),
        "{} seed {seed} failed a gate: {:?}",
        workload.name(),
        report.gates
    );
    assert!(report.attempted > 0);
    report
}

fn layer(r: &Report, name: &str) -> f64 {
    r.layers
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

fn e2e_positive(r: &Report) {
    for m in r.e2e.iter().filter(|m| m.name != "fail_frac") {
        assert!(m.value > 0.0, "{} reads {}", m.name, m.value);
    }
}

#[test]
fn serve_gates_hold_under_two_seeds() {
    for seed in [1, 2] {
        let r = tiny(Workload::Serve, seed);
        e2e_positive(&r);
        assert_eq!(layer(&r, "serve.client.retries"), 0.0);
        assert_eq!(layer(&r, "serve.health.dedup_hits"), 0.0);
    }
}

#[test]
fn objects_solo_steps_do_not_depend_on_the_seed() {
    let (a, b) = (tiny(Workload::Objects, 1), tiny(Workload::Objects, 2));
    e2e_positive(&a);
    for obj in ["counter_farray", "counter_sharded", "maxreg_tree"] {
        for kind in ["read", "update"] {
            let name = format!("core.{obj}.{kind}_steps_solo");
            assert_eq!(layer(&a, &name), layer(&b, &name), "{name}");
        }
    }
    // The tradeoff's shape: one-step reads beside multi-step updates,
    // and the sharded counter's N-step read beside its cheap update.
    assert_eq!(layer(&a, "core.counter_farray.read_steps_solo"), 1.0);
    assert_eq!(layer(&a, "core.maxreg_tree.read_steps_solo"), 1.0);
    assert!(layer(&a, "core.counter_farray.update_steps_solo") > 1.0);
    assert!(layer(&a, "core.maxreg_tree.update_steps_solo") > 1.0);
    assert_eq!(layer(&a, "core.counter_sharded.read_steps_solo"), 64.0);
    assert!(layer(&a, "core.counter_sharded.update_steps_solo") < 64.0);
}

#[test]
fn verify_counts_do_not_depend_on_the_seed() {
    let (a, b) = (tiny(Workload::Verify, 1), tiny(Workload::Verify, 2));
    e2e_positive(&a);
    assert_eq!(
        layer(&a, "sim.explore.schedules"),
        perfbench::verify::EXPLORE_SCHEDULES as f64
    );
    for name in [
        "sim.explore.schedules",
        "sim.explore.executed_steps",
        "sim.explore.replay_steps_saved",
        "sim.explore.pruned_branches",
    ] {
        assert_eq!(layer(&a, name), layer(&b, name), "{name}");
    }
    assert!(layer(&a, "sim.lin.ops") > 0.0);
}
