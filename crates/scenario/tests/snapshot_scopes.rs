//! The checked-in snapshot scopes explore in full: two updaters and a
//! scanner on each snapshot face at N = 3, every schedule with up to one
//! crash. A face's schedule count moves only when its body's accesses
//! do, so the counts are pinned.

use ruo_scenario::{explore_parts, run, ScenarioSpec};

fn scope(name: &str) -> ScenarioSpec {
    let path = format!("{}/../../scenarios/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    ScenarioSpec::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn every_snapshot_scope_explores_in_full_with_no_violation() {
    for (impl_id, schedules) in [
        ("double_collect", 390),
        ("path_copy", 24_075),
        ("afek", 144_889),
    ] {
        let spec = scope(&format!("snapshot_{impl_id}_explore.json"));
        assert_eq!(spec.impl_id, impl_id);
        let parts = explore_parts(&spec).unwrap_or_else(|e| panic!("{impl_id}: {e}"));
        assert_eq!(parts.ops.len(), 3, "{impl_id}: two updaters and a scanner");
        let report = run(&spec, false).unwrap_or_else(|e| panic!("{impl_id}: {e}"));
        assert!(report.ok, "{impl_id}: {:?}", report.notes);
        assert_eq!(report.counter("truncated"), Some(0), "{impl_id}");
        assert_eq!(report.counter("violation"), Some(0), "{impl_id}");
        assert_eq!(report.counter("schedules"), Some(schedules), "{impl_id}");
    }
}
