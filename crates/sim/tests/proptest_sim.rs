//! Property tests for the simulator: memory semantics, executor
//! determinism, and the complete linearizability checkers on legal
//! sequential histories.
//!
//! The workspace builds offline with no external dependencies, so these
//! are deterministic randomized property tests driven by the local
//! [`ruo_sim::SplitMix64`] generator rather than `proptest`: each test
//! runs a fixed number of seeded cases, and a failure message always
//! includes the case number so the exact input can be regenerated.

use ruo_sim::history::{History, OpDesc, OpRecord};
use ruo_sim::lin::{check_exact, check_interval};
use ruo_sim::spec::SeqSpec;
use ruo_sim::{
    access, EventLog, Executor, Machine, Memory, ObjId, OpSpec, Prim, ProcessId, RandomScheduler,
    SplitMix64, Word, WorkloadBuilder,
};

/// One random primitive kind/object/operand triple; operands in -3..4.
fn arb_prim(rng: &mut SplitMix64, n_objs: usize) -> (usize, u8, Word, Word) {
    (
        rng.gen_index(n_objs),
        rng.gen_below(3) as u8,
        rng.gen_below(7) as Word - 3,
        rng.gen_below(7) as Word - 3,
    )
}

/// Memory responses follow the primitive semantics exactly, and the
/// log of the returned events reconstructs the final state.
#[test]
fn memory_semantics_hold() {
    let mut rng = SplitMix64::new(0x3e3);
    for case in 0..256 {
        let mut mem = Memory::new();
        let objs = mem.alloc_n(3, 0);
        let mut shadow = [0i64; 3];
        let mut log = EventLog::new();
        let steps = 1 + rng.gen_index(59);
        for _ in 0..steps {
            let (o, kind, a, b) = arb_prim(&mut rng, 3);
            let prim = match kind {
                0 => Prim::Read(objs[o]),
                1 => Prim::Write(objs[o], a),
                _ => Prim::Cas {
                    obj: objs[o],
                    expected: a,
                    new: b,
                },
            };
            let ev = mem.apply(ProcessId(0), prim);
            log.push(ev);
            let resp = ev.resp;
            match prim {
                Prim::Read(_) => assert_eq!(resp, shadow[o], "case {case}"),
                Prim::Write(_, v) => {
                    assert_eq!(resp, 0, "case {case}");
                    shadow[o] = v;
                }
                Prim::Cas { expected, new, .. } => {
                    // The witness: the value before the CAS.
                    assert_eq!(resp, shadow[o], "case {case}");
                    assert_eq!(ev.cas_succeeded(), shadow[o] == expected, "case {case}");
                    if shadow[o] == expected {
                        shadow[o] = new;
                    }
                }
            }
            assert_eq!(mem.peek(objs[o]), shadow[o], "case {case}");
        }
        // The event log replays to the same final state.
        let events: Vec<_> = log.events().to_vec();
        let mut mem2 = Memory::new();
        let objs2 = mem2.alloc_n(3, 0);
        for e in &events {
            let prim = match e.prim {
                Prim::Read(o) => Prim::Read(objs2[o.index()]),
                Prim::Write(o, v) => Prim::Write(objs2[o.index()], v),
                Prim::Cas { obj, expected, new } => Prim::Cas {
                    obj: objs2[obj.index()],
                    expected,
                    new,
                },
            };
            let resp = mem2.apply(e.pid, prim).resp;
            assert_eq!(
                resp, e.resp,
                "case {case}: replay diverged at seq {}",
                e.seq
            );
        }
        for o in 0..3 {
            assert_eq!(mem2.peek(objs2[o]), shadow[o], "case {case}");
        }
    }
}

/// The executor is deterministic per scheduler seed: same seed, same
/// history; and CAS-loop increments never lose counts under any seed.
#[test]
fn executor_is_deterministic_and_exact() {
    async fn incr(o: ObjId) -> Word {
        loop {
            let v = access(Prim::Read(o)).await;
            let cas = Prim::Cas {
                obj: o,
                expected: v,
                new: v + 1,
            };
            if access(cas).await == v {
                return v + 1;
            }
        }
    }
    let mut rng = SplitMix64::new(0xe8ec);
    for case in 0..256 {
        let seed = rng.gen_below(10_000);
        let n = 2 + rng.gen_index(4);
        let run = |seed: u64| {
            let mut mem = Memory::new();
            let o = mem.alloc(0);
            let mut w = WorkloadBuilder::new(n);
            for p in 0..n {
                w.op(
                    ProcessId(p),
                    OpSpec::update(OpDesc::CounterIncrement, move || Machine::new(incr(o))),
                );
            }
            let outcome = Executor::new().run(&mut mem, w, &mut RandomScheduler::new(seed));
            (mem.peek(o), mem.steps(), outcome.history.len())
        };
        let a = run(seed);
        let b = run(seed);
        assert_eq!(a, b, "case {case}: same seed must reproduce the execution");
        assert_eq!(a.0, n as i64, "case {case}: increments lost or duplicated");
    }
}

/// Both complete checkers accept every *truly sequential* legal
/// history (generated by running the spec).
#[test]
fn exact_checker_accepts_legal_sequential_histories() {
    let mut rng = SplitMix64::new(0x5e9);
    for case in 0..256 {
        let spec = SeqSpec::Counter;
        let mut state = spec.init();
        let mut recs = Vec::new();
        let n_ops = 1 + rng.gen_index(9);
        for i in 0..n_ops {
            let pid = ProcessId(rng.gen_index(3));
            let desc = if rng.gen_bool(0.5) {
                OpDesc::CounterIncrement
            } else {
                OpDesc::CounterRead
            };
            let (next, output) = spec.apply(&state, pid, &desc);
            state = next;
            recs.push(OpRecord {
                pid,
                desc,
                invoke: 2 * i,
                response: Some(2 * i + 1),
                output: Some(output),
                steps: 1,
            });
        }
        let history: History = recs.into_iter().collect();
        assert!(check_exact(&history, &spec).is_ok(), "case {case}");
        assert!(check_interval(&history, &spec).is_ok(), "case {case}");
    }
}

mod explore_props {
    use ruo_sim::explore::{enumerate, history_is_wellformed, ExploreOp};
    use ruo_sim::{access, Machine, Memory, ObjId, OpDesc, Prim, ProcessId, Word};

    /// A pure read chain of exactly `len` events.
    async fn chain(o: ObjId, len: usize) -> Word {
        let mut v = 0;
        for _ in 0..len {
            v = access(Prim::Read(o)).await;
        }
        v
    }

    /// `C(a+b, a)`, computed termwise (exact: each prefix product of
    /// consecutive binomial factors divides evenly).
    fn binomial(a: u64, b: u64) -> u64 {
        let n = a + b;
        let k = a.min(b);
        let mut num = 1u64;
        for i in 0..k {
            num = num * (n - i) / (i + 1);
        }
        num
    }

    /// Enumeration over two fixed-length independent operations yields
    /// exactly C(a+b, a) schedules — checked exhaustively for all
    /// lengths the proptest original sampled from.
    #[test]
    fn enumeration_count_is_binomial() {
        for a in 1usize..6 {
            for b in 1usize..6 {
                let setup = move || {
                    let mut mem = Memory::new();
                    let o = mem.alloc(0);
                    (
                        mem,
                        vec![Machine::new(chain(o, a)), Machine::new(chain(o, b))],
                    )
                };
                let ops = vec![
                    ExploreOp {
                        pid: ProcessId(0),
                        desc: OpDesc::ReadMax,
                        returns_value: true,
                    },
                    ExploreOp {
                        pid: ProcessId(1),
                        desc: OpDesc::ReadMax,
                        returns_value: true,
                    },
                ];
                let summary = enumerate(&setup, &ops, &mut |h| history_is_wellformed(h), 100_000);
                assert!(!summary.truncated, "a={a} b={b}");
                assert!(summary.violation.is_none(), "a={a} b={b}");
                assert_eq!(
                    summary.schedules as u64,
                    binomial(a as u64, b as u64),
                    "a={a} b={b}"
                );
            }
        }
    }
}
