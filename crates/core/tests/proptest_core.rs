//! Property tests for the core objects: structural bounds of the tree
//! shapes, sequential-specification conformance of every implementation
//! on arbitrary operation streams, and schedule-independence of the
//! simulated algorithms.
//!
//! The workspace builds offline with no external dependencies, so these
//! are deterministic randomized property tests driven by the local
//! [`ruo_sim::SplitMix64`] generator rather than `proptest`: each test
//! runs a fixed number of seeded cases, and a failure message always
//! includes the case number so the exact input can be regenerated.

use ruo_core::b1tree::depth_bound;
use ruo_core::counter::{AacCounter, FArrayCounter, FetchAddCounter};
use ruo_core::farray::{FArray, Max, Min, Sum};
use ruo_core::maxreg::sim::{SimAacMaxRegister, SimMaxRegister, SimTreeMaxRegister};
use ruo_core::maxreg::{AacMaxRegister, CasRetryMaxRegister, TreeMaxRegister};
use ruo_core::shape::AlgorithmATree;
use ruo_core::snapshot::{AfekSnapshot, DoubleCollectSnapshot, PathCopySnapshot};
use ruo_core::{Counter, MaxRegister, Snapshot};
use ruo_sim::{Machine, Memory, ProcessId, SplitMix64};

/// Result-only wrapper over the shared [`ruo_sim::run_solo`] driver.
fn run_solo(mem: &mut Memory, pid: ProcessId, m: Machine) -> i64 {
    ruo_sim::run_solo(mem, pid, m).0
}

/// Every leaf of Algorithm A's tree respects the Bentley–Yao depth
/// bound (value leaves) or the complete-tree bound (process leaves),
/// for arbitrary process counts.
#[test]
fn algorithm_a_tree_depth_bounds() {
    let mut rng = SplitMix64::new(0x51ee7);
    for case in 0..128 {
        let n = 1 + rng.gen_index(599);
        let tree = AlgorithmATree::new(n);
        for v in 1..n as u64 {
            let d = tree.write_depth(0, v);
            assert!(
                d <= depth_bound(v as usize) + 1,
                "case {case} (n={n}): value leaf {v}: depth {d} > B1 bound + root edge"
            );
        }
        let complete_bound = (n as f64).log2().ceil() as usize + 2;
        for p in 0..n {
            let d = tree.write_depth(p, n as u64 + 1);
            assert!(
                d <= complete_bound,
                "case {case} (n={n}): process leaf {p}: {d} > {complete_bound}"
            );
        }
    }
}

/// Max registers conform to the sequential spec on arbitrary
/// write/read streams (real and simulated implementations).
#[test]
fn max_registers_follow_the_spec() {
    let mut rng = SplitMix64::new(0x20140a);
    for case in 0..128 {
        let n = 4;
        let cap = 256;
        let tree = TreeMaxRegister::new(n);
        let aac = AacMaxRegister::new(cap);
        let cas = CasRetryMaxRegister::new();
        let mut mem = Memory::new();
        let sim_tree = SimTreeMaxRegister::new(&mut mem, n);
        let sim_aac = SimAacMaxRegister::new(&mut mem, n, cap);
        let mut expected = 0u64;
        let ops = 1 + rng.gen_index(39);
        for _ in 0..ops {
            let is_write = rng.gen_bool(0.5);
            let v = rng.gen_below(256);
            let pid = ProcessId(rng.gen_index(4));
            if is_write {
                expected = expected.max(v);
                tree.write_max(pid, v);
                aac.write_max(pid, v);
                cas.write_max(pid, v);
                run_solo(&mut mem, pid, sim_tree.write_max(pid, v));
                run_solo(&mut mem, pid, sim_aac.write_max(pid, v));
            } else {
                assert_eq!(tree.read_max(), expected, "case {case}: tree");
                assert_eq!(aac.read_max(), expected, "case {case}: aac");
                assert_eq!(cas.read_max(), expected, "case {case}: cas");
                assert_eq!(
                    run_solo(&mut mem, pid, sim_tree.read_max(pid)) as u64,
                    expected,
                    "case {case}: sim tree"
                );
                assert_eq!(
                    run_solo(&mut mem, pid, sim_aac.read_max(pid)) as u64,
                    expected,
                    "case {case}: sim aac"
                );
            }
        }
    }
}

/// The simulated Algorithm A converges to the true maximum under
/// randomly chosen interleavings of concurrent writers, and
/// intermediate roots never exceed it.
#[test]
fn sim_tree_register_is_schedule_independent() {
    let mut rng = SplitMix64::new(0xdead1e);
    for case in 0..128 {
        let n = 2 + rng.gen_index(3);
        let values: Vec<u64> = (0..n).map(|_| 1 + rng.gen_below(9_999)).collect();
        let schedule_len = rng.gen_index(200);
        let mut mem = Memory::new();
        let reg = SimTreeMaxRegister::new(&mut mem, n);
        let mut machines: Vec<(ProcessId, Machine)> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| (ProcessId(i), reg.write_max(ProcessId(i), v)))
            .collect();
        let max = *values.iter().max().unwrap();
        // Drive with a random schedule, then drain round-robin.
        for _ in 0..schedule_len {
            let alive: Vec<usize> = machines
                .iter()
                .enumerate()
                .filter(|(_, (_, m))| !m.is_done())
                .map(|(i, _)| i)
                .collect();
            if alive.is_empty() {
                break;
            }
            let idx = alive[rng.gen_index(alive.len())];
            let (pid, m) = &mut machines[idx];
            let prim = m.enabled().unwrap();
            let resp = mem.apply(*pid, prim).resp;
            m.feed(resp);
            let root = run_solo(&mut mem, ProcessId(0), reg.read_max(ProcessId(0))) as u64;
            assert!(
                root <= max,
                "case {case}: root {root} exceeds any written value"
            );
        }
        for (pid, m) in machines.iter_mut() {
            while let Some(prim) = m.enabled() {
                let resp = mem.apply(*pid, prim).resp;
                m.feed(resp);
            }
        }
        let root = run_solo(&mut mem, ProcessId(0), reg.read_max(ProcessId(0))) as u64;
        assert_eq!(root, max, "case {case}: quiescent root must be the maximum");
    }
}

/// Counters conform to the spec on arbitrary increment/read streams.
#[test]
fn counters_follow_the_spec() {
    let mut rng = SplitMix64::new(0xc0417e5);
    for case in 0..128 {
        let n = 4;
        let farray = FArrayCounter::new(n);
        let aac = AacCounter::new(n, 64);
        let fa = FetchAddCounter::new();
        let mut expected = 0u64;
        let ops = 1 + rng.gen_index(49);
        for _ in 0..ops {
            let pid = ProcessId(rng.gen_index(4));
            if rng.gen_bool(0.5) && expected < 64 {
                expected += 1;
                farray.increment(pid);
                aac.increment(pid);
                fa.increment(pid);
            } else {
                assert_eq!(farray.read(), expected, "case {case}: farray");
                assert_eq!(aac.read(), expected, "case {case}: aac");
                assert_eq!(fa.read(), expected, "case {case}: fetch-add");
            }
        }
    }
}

/// Snapshots conform to the spec on arbitrary update/scan streams.
#[test]
fn snapshots_follow_the_spec() {
    let mut rng = SplitMix64::new(0x54a9);
    for case in 0..128 {
        let n = 4;
        let dc = DoubleCollectSnapshot::new(n);
        let afek = AfekSnapshot::new(n, 64);
        let pc = PathCopySnapshot::new(n, 64);
        let mut expected = vec![0u64; n];
        let ops = 1 + rng.gen_index(49);
        for _ in 0..ops {
            let p = rng.gen_index(4);
            let pid = ProcessId(p);
            let v = rng.gen_below(1_000_000);
            if rng.gen_bool(0.5) {
                expected[p] = v;
                dc.update(pid, v);
                afek.update(pid, v);
                pc.update(pid, v);
            } else {
                assert_eq!(dc.scan(), expected, "case {case}: double collect");
                assert_eq!(afek.scan(), expected, "case {case}: afek");
                assert_eq!(pc.scan(), expected, "case {case}: path copy");
            }
        }
    }
}

/// The generic f-array maintains exactly the aggregate of its slots
/// under arbitrary monotone update streams, for all three aggregations.
#[test]
fn farray_aggregates_exactly() {
    let mut rng = SplitMix64::new(0xfa_aa44);
    for case in 0..128 {
        let n = 4;
        let sum = FArray::<Sum>::new(n);
        let max = FArray::<Max>::new(n);
        let min = FArray::<Min>::new(n);
        let mut slots_sum = vec![0i64; n];
        let mut slots_max = vec![i64::MIN; n];
        let mut slots_min = vec![i64::MAX; n];
        let deltas = 1 + rng.gen_index(39);
        for _ in 0..deltas {
            let p = rng.gen_index(4);
            let d = 1 + rng.gen_below(99) as i64;
            let pid = ProcessId(p);
            slots_sum[p] += d;
            sum.update(pid, slots_sum[p]);
            slots_max[p] = if slots_max[p] == i64::MIN {
                d
            } else {
                slots_max[p] + d
            };
            max.update(pid, slots_max[p]);
            slots_min[p] = if slots_min[p] == i64::MAX {
                -d
            } else {
                slots_min[p] - d
            };
            min.update(pid, slots_min[p]);
            assert_eq!(sum.read(), slots_sum.iter().sum::<i64>(), "case {case}");
            assert_eq!(max.read(), *slots_max.iter().max().unwrap(), "case {case}");
            assert_eq!(min.read(), *slots_min.iter().min().unwrap(), "case {case}");
        }
    }
}

/// AAC register: any single value round-trips at any capacity.
#[test]
fn aac_round_trips_at_any_capacity() {
    let mut rng = SplitMix64::new(0xaac);
    for case in 0..128 {
        let cap = 1 + rng.gen_below(1_999);
        let v = rng.gen_below(cap);
        let reg = AacMaxRegister::new(cap);
        reg.write_max(ProcessId(0), v);
        assert_eq!(reg.read_max(), v, "case {case}: cap={cap} v={v}");
    }
}
