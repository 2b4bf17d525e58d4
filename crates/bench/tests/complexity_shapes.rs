//! W7 regression: the measured step-complexity curves must keep the
//! bound shapes the paper proves, and the pinned constants of the seed
//! step-count tables must show up in the profile.

use ruo_bench::complexity::{check_shapes, profile};

#[test]
fn quick_profile_matches_every_bound_shape() {
    let p = profile(true);
    let failures = check_shapes(&p);
    assert!(failures.is_empty(), "shape violations: {failures:#?}");
}

#[test]
fn full_profile_matches_every_bound_shape() {
    let p = profile(false);
    let failures = check_shapes(&p);
    assert!(failures.is_empty(), "shape violations: {failures:#?}");
}

#[test]
fn profile_reproduces_the_pinned_solo_constants() {
    let p = profile(false);
    // ReadMax is exactly 1 step at every N.
    let read = p.curve("read_max").unwrap();
    assert!(read.points.iter().all(|pt| pt.steps == 1));
    // WriteMax (v large) is 2 + 8·(log2 N + 1): the tree write pattern
    // of the seed step-count tables.
    let wn = p.curve("write_max_n").unwrap();
    for pt in &wn.points {
        let depth = 64 - (pt.x - 1).leading_zeros() as u64 + 1; // log2_ceil + 1
        assert_eq!(pt.steps, 2 + 8 * depth, "write_max_n at N={}", pt.x);
    }
    // f-array increment is 2 + 4·ceil(log2 N): the leaf read and store,
    // then node, two children and one successful CAS per level; read is
    // 1.
    let cu = p.curve("counter_update").unwrap();
    for pt in &cu.points {
        let l = if pt.x <= 1 {
            0
        } else {
            64 - (pt.x - 1).leading_zeros() as u64
        };
        assert_eq!(pt.steps, 2 + 4 * l, "counter_update at N={}", pt.x);
    }
    let cr = p.curve("counter_read").unwrap();
    assert!(cr.points.iter().all(|pt| pt.steps == 1));
    // The v-sweep plateau equals the N-sweep value at the fixed N: the
    // min(log N, log v) crossover. Below it the value spine costs
    // 2 + 8·(2·log2 v + 2) — logarithmic in v, with its own constant.
    let wv = p.curve("write_max_v").unwrap();
    let at_64 = wn.points.iter().find(|pt| pt.x == 64).unwrap().steps;
    for pt in &wv.points {
        if pt.x >= 64 {
            assert_eq!(pt.steps, at_64, "plateau at v={}", pt.x);
        } else {
            let l = pt.x.ilog2() as u64;
            assert_eq!(pt.steps, 2 + 8 * (2 * l + 2), "spine at v={}", pt.x);
        }
    }
    // And at the bottom of the spine the v-arm is strictly cheaper.
    assert!(wv.points[0].steps < at_64);
}
