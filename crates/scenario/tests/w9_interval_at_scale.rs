//! W9 at full size: the checked-in crash-injected sweep whose histories
//! run past 10,000 operations must be *decided* by the interval
//! checker. The exact checker refuses anything past 63 operations, so
//! this is the regression gate on "decide, don't refuse".

use ruo_scenario::{run, ScenarioSpec};

const W9_SPEC: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../scenarios/w9_wgl_counter_10k.json"
));

#[test]
fn interval_checker_decides_ten_thousand_op_histories() {
    let spec = ScenarioSpec::parse(W9_SPEC).expect("checked-in W9 spec parses");
    let report = run(&spec, false).expect("W9 scope builds");
    assert!(report.ok, "W9 sweep failed: {:?}", report.notes);
    assert_eq!(report.checker.as_deref(), Some("interval"), "{report:?}");
    let largest = report.counter("largest_history").expect("largest_history");
    assert!(largest >= 10_000, "largest history only {largest} ops");
    assert!(report.counter("checked_ops").expect("checked_ops") >= largest);
}
