//! Step-count regression tests: the *exact* solo step counts of every
//! simulated operation, pinned across sizes. Any change to an algorithm
//! that alters its complexity class — or even its constant — fails here
//! loudly, with the measured-vs-pinned numbers in the assertion.

use ruo_core::counter::sim::{
    SimAacCounter, SimCasLoopCounter, SimCounter, SimFArrayCounter, SimSnapshotCounter,
};
use ruo_core::farray::{Max, SimFArray, Sum};
use ruo_core::maxreg::sim::{
    SimAacMaxRegister, SimCasRetryMaxRegister, SimMaxRegister, SimTreeMaxRegister,
};
use ruo_core::snapshot::sim::{SimDoubleCollectSnapshot, SimSnapshot};
use ruo_sim::{Machine, Memory, ProcessId};

fn steps(mem: &mut Memory, pid: ProcessId, mut m: Machine) -> usize {
    while let Some(prim) = m.enabled() {
        let resp = mem.apply(pid, prim);
        m.feed(resp);
    }
    m.steps()
}

#[test]
fn tree_maxreg_read_is_one_step_at_every_size() {
    for n in [1usize, 2, 7, 64, 1000] {
        let mut mem = Memory::new();
        let reg = SimTreeMaxRegister::new(&mut mem, n);
        assert_eq!(steps(&mut mem, ProcessId(0), reg.read_max(ProcessId(0))), 1);
    }
}

#[test]
fn tree_maxreg_write_steps_are_pinned() {
    // write = 2 leaf events + 8 per ancestor level.
    let cases = [
        // (n, v, expected steps)
        (2usize, 1u64, 2 + 8),       // TL single leaf at depth 1
        (2, 2, 2 + 8 * 2),           // TR leaf at depth 2
        (4, 1, 2 + 8 * 2),           // TL leaf (B1 spine) at depth 2
        (4, 100, 2 + 8 * 3),         // TR leaf at depth 3
        (1024, 1 << 40, 2 + 8 * 11), // TR leaf at depth 11
    ];
    for (n, v, expected) in cases {
        let mut mem = Memory::new();
        let reg = SimTreeMaxRegister::new(&mut mem, n);
        let got = steps(&mut mem, ProcessId(0), reg.write_max(ProcessId(0), v));
        assert_eq!(got, expected, "n={n} v={v}");
    }
}

#[test]
fn aac_maxreg_steps_equal_tree_depth() {
    for log_m in [1u32, 4, 10] {
        let m = 1u64 << log_m;
        let mut mem = Memory::new();
        let reg = SimAacMaxRegister::new(&mut mem, 2, m);
        let w = steps(&mut mem, ProcessId(0), reg.write_max(ProcessId(0), m - 1));
        let r = steps(&mut mem, ProcessId(1), reg.read_max(ProcessId(1)));
        assert_eq!(w, log_m as usize, "write M=2^{log_m}");
        assert_eq!(r, log_m as usize, "read M=2^{log_m}");
    }
}

#[test]
fn unbalanced_aac_value_costs_are_pinned() {
    let m = 1u64 << 16;
    // (value, expected steps) — 2·log2(v+1)+1 shape on the B1 spine.
    let cases = [(0u64, 1usize), (1, 3), (3, 5), (15, 9), (255, 17)];
    for (v, expected) in cases {
        let mut mem = Memory::new();
        let reg = SimAacMaxRegister::new_unbalanced(&mut mem, 2, m);
        let got = steps(&mut mem, ProcessId(0), reg.write_max(ProcessId(0), v));
        assert_eq!(got, expected, "v={v}");
    }
}

#[test]
fn cas_retry_maxreg_solo_costs() {
    let mut mem = Memory::new();
    let reg = SimCasRetryMaxRegister::new(&mut mem, 2);
    assert_eq!(
        steps(&mut mem, ProcessId(0), reg.write_max(ProcessId(0), 5)),
        2
    );
    assert_eq!(steps(&mut mem, ProcessId(1), reg.read_max(ProcessId(1))), 1);
    // Dominated write: one read, no CAS.
    assert_eq!(
        steps(&mut mem, ProcessId(0), reg.write_max(ProcessId(0), 3)),
        1
    );
}

#[test]
fn farray_counter_steps_are_pinned() {
    // increment = 2 leaf events + 4 per level (node, two children, one
    // successful CAS); read = 1.
    let cases = [
        (1usize, 2usize),
        (2, 2 + 4),
        (4, 2 + 8),
        (16, 2 + 16),
        (64, 2 + 24),
    ];
    for (n, expected) in cases {
        let mut mem = Memory::new();
        let c = SimFArrayCounter::new(&mut mem, n);
        assert_eq!(
            steps(&mut mem, ProcessId(0), c.increment(ProcessId(0))),
            expected,
            "n={n}"
        );
        assert_eq!(steps(&mut mem, ProcessId(0), c.read(ProcessId(0))), 1);
    }
}

#[test]
fn aac_counter_read_is_reg_depth() {
    for (m, expected_read) in [(7u64, 3usize), (15, 4), (1023, 10)] {
        let mut mem = Memory::new();
        let c = SimAacCounter::new(&mut mem, 4, m);
        // Register capacity is m+1; depth = ceil(log2(m+1)).
        assert_eq!(
            steps(&mut mem, ProcessId(0), c.read(ProcessId(0))),
            expected_read,
            "m={m}"
        );
    }
}

#[test]
fn snapshot_counter_costs_are_pinned() {
    for n in [1usize, 4, 16] {
        let mut mem = Memory::new();
        let c = SimSnapshotCounter::new(&mut mem, n);
        assert_eq!(steps(&mut mem, ProcessId(0), c.increment(ProcessId(0))), 2);
        assert_eq!(
            steps(&mut mem, ProcessId(0), c.read(ProcessId(0))),
            2 * n,
            "solo read is one clean double collect"
        );
    }
}

#[test]
fn cas_loop_counter_solo_costs() {
    let mut mem = Memory::new();
    let c = SimCasLoopCounter::new(&mut mem, 2);
    assert_eq!(steps(&mut mem, ProcessId(0), c.increment(ProcessId(0))), 2);
    assert_eq!(steps(&mut mem, ProcessId(0), c.read(ProcessId(0))), 1);
}

#[test]
fn double_collect_snapshot_costs_are_pinned() {
    for n in [1usize, 3, 8] {
        let mut mem = Memory::new();
        let s = SimDoubleCollectSnapshot::new(&mut mem, n);
        assert_eq!(steps(&mut mem, ProcessId(0), s.update(ProcessId(0), 1)), 2);
        let sc = steps(&mut mem, ProcessId(0), s.scan(ProcessId(0)));
        assert_eq!(sc, 2 * n, "n={n}");
    }
}

#[test]
fn generic_farray_costs_match_counter() {
    for n in [2usize, 8, 32] {
        let mut mem = Memory::new();
        let sum = SimFArray::<Sum>::new(&mut mem, n);
        let max = SimFArray::<Max>::new(&mut mem, n);
        let levels = (n as f64).log2().ceil() as usize;
        assert_eq!(
            steps(&mut mem, ProcessId(0), sum.update(ProcessId(0), 1)),
            2 + 4 * levels,
            "sum n={n}"
        );
        assert_eq!(
            steps(&mut mem, ProcessId(0), max.update(ProcessId(0), 1)),
            2 + 4 * levels,
            "max n={n}"
        );
        assert_eq!(steps(&mut mem, ProcessId(0), sum.read()), 1);
    }
}
