//! Property tests for the information-flow analysis: the online tracker
//! must agree with a brute-force oracle that implements Definition 1
//! directly over the raw event log.
//!
//! The workspace builds offline with no external dependencies, so these
//! are deterministic randomized property tests driven by the local
//! [`ruo_sim::SplitMix64`] generator rather than `proptest`: each test
//! runs a fixed number of seeded cases, and a failure message always
//! includes the case number so the exact input can be regenerated.

use ruo_lowerbound::flow::visible_mutations;
use ruo_lowerbound::lemma1::lemma1_round;
use ruo_lowerbound::turan::greedy_independent_set;
use ruo_lowerbound::FlowTracker;
use ruo_sim::{EventLog, Machine, Memory, Prim, ProcessId, SplitMix64, Word};

/// One random primitive applied by a random process to a random object;
/// operands in -2..3.
fn arb_step(rng: &mut SplitMix64, n_procs: usize, n_objs: usize) -> (usize, usize, u8, Word, Word) {
    (
        rng.gen_index(n_procs),
        rng.gen_index(n_objs),
        rng.gen_below(3) as u8,
        rng.gen_below(5) as Word - 2,
        rng.gen_below(5) as Word - 2,
    )
}

/// The tracker's per-object contribution sets equal the oracle's
/// visible-mutation sets on arbitrary executions.
#[test]
fn tracker_visibility_matches_definition_1() {
    let mut rng = SplitMix64::new(0xf100d);
    for case in 0..256 {
        let mut mem = Memory::new();
        let objs = mem.alloc_n(3, 0);
        let mut log = EventLog::new();
        let steps = 1 + rng.gen_index(59);
        for _ in 0..steps {
            let (p, o, kind, a, b) = arb_step(&mut rng, 4, 3);
            let prim = match kind {
                0 => Prim::Read(objs[o]),
                1 => Prim::Write(objs[o], a),
                _ => Prim::Cas {
                    obj: objs[o],
                    expected: a,
                    new: b,
                },
            };
            log.push(mem.apply(ProcessId(p), prim));
        }
        let mut tracker = FlowTracker::new(4);
        tracker.observe_log_suffix(&log);
        for &o in &objs {
            let mut got = tracker.contribution_seqs(o);
            got.sort_unstable();
            let expected = visible_mutations(log.events(), o);
            assert_eq!(got, expected, "case {case}: object {o}");
        }
    }
}

/// Awareness sets only ever grow as more events are observed, and
/// every process is always aware of itself.
#[test]
fn awareness_is_monotone() {
    let mut rng = SplitMix64::new(0xa3a3);
    for case in 0..256 {
        let mut mem = Memory::new();
        let objs = mem.alloc_n(3, 0);
        let mut tracker = FlowTracker::new(4);
        let mut sizes = [0usize; 4];
        let steps = 1 + rng.gen_index(39);
        for _ in 0..steps {
            let (p, o, kind, a, b) = arb_step(&mut rng, 4, 3);
            let prim = match kind {
                0 => Prim::Read(objs[o]),
                1 => Prim::Write(objs[o], a),
                _ => Prim::Cas {
                    obj: objs[o],
                    expected: a,
                    new: b,
                },
            };
            tracker.observe(&mem.apply(ProcessId(p), prim));
            for (q, size) in sizes.iter_mut().enumerate() {
                let aw = tracker.awareness(ProcessId(q));
                assert!(aw.contains(ProcessId(q)), "case {case}");
                assert!(aw.len() >= *size, "case {case}: awareness shrank for p{q}");
                *size = aw.len();
            }
        }
    }
}

/// Lemma 1's knowledge bound holds for arbitrary mixes of one-shot
/// read/write/CAS machines scheduled by the three-phase adversary.
#[test]
fn lemma1_bound_holds_for_random_machines() {
    let mut rng = SplitMix64::new(0x1e111a1);
    for case in 0..256 {
        let n = 2 + rng.gen_index(10);
        let rounds = 1 + rng.gen_index(3);
        let mut mem = Memory::new();
        let objs = mem.alloc_n(3, 0);
        let mut machines: Vec<Machine> = (0..n)
            .map(|_| {
                let kind = rng.gen_below(3) as u8;
                let obj = objs[rng.gen_index(3)];
                let v = rng.gen_below(5) as Word - 1;
                let prim = match kind {
                    0 => Prim::Read(obj),
                    1 => Prim::Write(obj, v),
                    _ => Prim::Cas {
                        obj,
                        expected: 0,
                        new: v,
                    },
                };
                Machine::single(prim, |resp| resp)
            })
            .collect();
        let mut tracker = FlowTracker::new(n);
        let mut bound = 1usize;
        for _ in 0..rounds {
            let mut procs: Vec<(ProcessId, &mut Machine)> = machines
                .iter_mut()
                .enumerate()
                .filter(|(_, m)| !m.is_done())
                .map(|(i, m)| (ProcessId(i), m))
                .collect();
            if procs.is_empty() {
                break;
            }
            lemma1_round(&mut mem, &mut procs, &mut tracker);
            bound *= 3;
            assert!(
                tracker.max_knowledge() <= bound,
                "case {case}: M(E) = {} > {}",
                tracker.max_knowledge(),
                bound
            );
        }
    }
}

/// Turán: the greedy independent set is independent and meets the
/// n/(d̄+1) size guarantee on arbitrary graphs.
#[test]
fn greedy_independent_set_meets_turan_bound() {
    let mut rng = SplitMix64::new(0x7a9a4);
    for case in 0..256 {
        let n = 1 + rng.gen_index(39);
        let n_edges = rng.gen_index(120);
        let edges: Vec<(usize, usize)> = (0..n_edges)
            .map(|_| (rng.gen_index(40), rng.gen_index(40)))
            .filter(|&(a, b)| a < n && b < n)
            .collect();
        let set = greedy_independent_set(n, &edges);
        for &(a, b) in &edges {
            if a != b {
                assert!(
                    !(set.contains(&a) && set.contains(&b)),
                    "case {case}: edge ({a},{b}) inside set"
                );
            }
        }
        let real_edges = edges.iter().filter(|(a, b)| a != b).count();
        let avg = 2.0 * real_edges as f64 / n as f64;
        let bound = (n as f64 / (avg + 1.0)).floor() as usize;
        assert!(
            set.len() >= bound,
            "case {case}: |I| = {} < {}",
            set.len(),
            bound
        );
    }
}
