//! Differential fuzz: `check_interval` vs `check_exact`.
//!
//! `check_exact` is the ≤63-operation differential oracle for the
//! scalable WGL interval checker: on every history both can decide,
//! their verdicts must agree *exactly*. The generator below produces
//! seeded random histories across all three [`SeqSpec`] families —
//! overlapping intervals, crash-completed histories with pending
//! operations, linearizable-by-construction output assignments, and
//! deliberately corrupted outputs — and asserts agreement on each.

use ruo_sim::history::{History, OpDesc, OpOutput, OpRecord};
use ruo_sim::lin::{check_exact, check_exact_k, check_interval, check_interval_k, ViolationKind};
use ruo_sim::spec::SeqSpec;
use ruo_sim::{ProcessId, SplitMix64, Word};

/// An operation sketch before outputs are assigned.
struct Sketch {
    pid: usize,
    desc: OpDesc,
    invoke: usize,
    /// `None` = left pending by a crash.
    response: Option<usize>,
    /// Linearization point used to assign consistent outputs; `None`
    /// for pending operations the assignment chose to omit.
    point: Option<usize>,
}

/// Draws a random operation description for `spec`. Small value ranges
/// force value collisions and interesting orderings.
fn random_desc(rng: &mut SplitMix64, spec: &SeqSpec, pid: usize) -> OpDesc {
    let update = rng.gen_below(100) < 55;
    match spec {
        SeqSpec::MaxRegister { .. } => {
            if update {
                OpDesc::WriteMax(rng.gen_below(6) as Word)
            } else {
                OpDesc::ReadMax
            }
        }
        SeqSpec::Counter => {
            if update {
                OpDesc::CounterIncrement
            } else {
                OpDesc::CounterRead
            }
        }
        SeqSpec::Snapshot { .. } => {
            if update {
                // Repeated operand values are legal for the exact and
                // interval checkers (only the fast snapshot checker
                // needs distinct ones).
                OpDesc::Update(rng.gen_below(5) as Word)
            } else {
                let _ = pid;
                OpDesc::Scan
            }
        }
    }
}

/// Generates a random well-formed history for `spec`: per-process
/// sequential intervals with genuine cross-process overlap, optional
/// crash-pending last operations, and outputs assigned by applying the
/// spec along a random interval-consistent linearization (so the
/// uncorrupted history is linearizable by construction).
fn random_history(rng: &mut SplitMix64, spec: &SeqSpec, n: usize, max_ops: usize) -> History {
    let mut sketches: Vec<Sketch> = Vec::new();
    let total = rng.gen_index(max_ops + 1);
    let mut clock = vec![0usize; n];
    for _ in 0..total {
        let pid = rng.gen_index(n);
        let invoke = clock[pid] + rng.gen_index(4);
        let response = invoke + 1 + rng.gen_index(7);
        clock[pid] = response;
        sketches.push(Sketch {
            pid,
            desc: random_desc(rng, spec, pid),
            invoke,
            response: Some(response),
            point: None,
        });
    }
    // Crash some processes: their last operation becomes pending.
    for pid in 0..n {
        if rng.gen_below(100) < 30 {
            if let Some(s) = sketches.iter_mut().rev().find(|s| s.pid == pid) {
                s.response = None;
            }
        }
    }
    // Pick linearization points: complete ops anywhere inside their
    // interval; pending ops are included (any point at or after the
    // invocation) or omitted, per the completion rule.
    for s in &mut sketches {
        s.point = match s.response {
            Some(r) => Some(s.invoke + rng.gen_index(r - s.invoke)),
            None if rng.gen_below(2) == 0 => Some(s.invoke + rng.gen_index(10)),
            None => None,
        };
    }
    // Apply the spec along the chosen linearization to assign outputs.
    let mut order: Vec<usize> = (0..sketches.len()).collect();
    order.sort_by_key(|&i| (sketches[i].point, i));
    let mut state = spec.init();
    let mut outputs: Vec<Option<OpOutput>> = vec![None; sketches.len()];
    for i in order {
        let s = &sketches[i];
        if s.point.is_none() {
            continue;
        }
        let (next, out) = spec.apply(&state, ProcessId(s.pid), &s.desc);
        state = next;
        // Pending ops never report an output, even when linearized.
        if s.response.is_some() {
            outputs[i] = Some(out);
        }
    }
    let mut ops: Vec<OpRecord> = sketches
        .iter()
        .zip(outputs)
        .map(|(s, output)| OpRecord {
            pid: ProcessId(s.pid),
            desc: s.desc.clone(),
            invoke: s.invoke,
            response: s.response,
            output,
            steps: 1,
        })
        .collect();
    ops.sort_by_key(|o| o.invoke);
    ops.into_iter().collect()
}

/// Corrupts one random read output so the history is (usually) no
/// longer linearizable. Both checkers must still agree on the verdict.
fn corrupt(rng: &mut SplitMix64, history: &History) -> Option<History> {
    let targets: Vec<usize> = history
        .ops()
        .iter()
        .enumerate()
        .filter(|(_, o)| {
            matches!(
                o.output,
                Some(OpOutput::Value(_)) | Some(OpOutput::Vector(_))
            )
        })
        .map(|(i, _)| i)
        .collect();
    let &pick = targets.get(rng.gen_index(targets.len().max(1)))?;
    let mut ops: Vec<OpRecord> = history.ops().to_vec();
    let delta = 1 + rng.gen_below(3) as Word;
    match ops[pick].output.as_mut() {
        Some(OpOutput::Value(v)) => {
            *v = if rng.gen_below(2) == 0 {
                *v + delta
            } else {
                *v - delta
            }
        }
        Some(OpOutput::Vector(vec)) => {
            let k = rng.gen_index(vec.len().max(1));
            if vec.is_empty() {
                return None;
            }
            vec[k] += delta;
        }
        _ => return None,
    }
    Some(ops.into_iter().collect())
}

/// Asserts both checkers reach the same verdict on `history` at
/// accuracy factor `k` (they share the relaxed acceptance test, so the
/// agreement must hold at *every* k, not just the exact k = 1).
fn assert_agreement_k(history: &History, spec: &SeqSpec, k: u64, ctx: &str) {
    let exact = check_exact_k(history, spec, k);
    let interval = check_interval_k(history, spec, k);
    match (&exact, &interval) {
        (Ok(()), Ok(())) => {}
        (Err(e), Err(i)) => {
            assert_eq!(e.kind, ViolationKind::NoLinearization, "{ctx}: {e}");
            assert_eq!(i.kind, ViolationKind::NoLinearization, "{ctx}: {i}");
        }
        _ => panic!(
            "{ctx}: verdicts disagree at k={k}: exact={exact:?} interval={interval:?}\nhistory: {:#?}",
            history.ops()
        ),
    }
}

/// Asserts both checkers reach the same verdict on `history`.
fn assert_agreement(history: &History, spec: &SeqSpec, ctx: &str) {
    let exact = check_exact(history, spec);
    let interval = check_interval(history, spec);
    match (&exact, &interval) {
        (Ok(()), Ok(())) => {}
        (Err(e), Err(i)) => {
            assert_eq!(e.kind, ViolationKind::NoLinearization, "{ctx}: {e}");
            assert_eq!(i.kind, ViolationKind::NoLinearization, "{ctx}: {i}");
        }
        _ => panic!(
            "{ctx}: verdicts disagree: exact={exact:?} interval={interval:?}\nhistory: {:#?}",
            history.ops()
        ),
    }
    // The k = 1 reduction (ISSUE 9): the `_k` path at factor 1 must
    // reproduce the exact verdict bit for bit, on passing and failing
    // histories alike.
    let exact_k1 = check_exact_k(history, spec, 1);
    let interval_k1 = check_interval_k(history, spec, 1);
    assert_eq!(
        format!("{exact:?}"),
        format!("{exact_k1:?}"),
        "{ctx}: check_exact_k(1) diverged from check_exact"
    );
    assert_eq!(
        format!("{interval:?}"),
        format!("{interval_k1:?}"),
        "{ctx}: check_interval_k(1) diverged from check_interval"
    );
}

fn fuzz_family(spec: &SeqSpec, n: usize, seed: u64, cases: usize) {
    let mut rng = SplitMix64::new(seed);
    let mut violations = 0usize;
    let mut pending_seen = 0usize;
    for case in 0..cases {
        let h = random_history(&mut rng, spec, n, 24);
        pending_seen += h.pending().count();
        let ctx = format!("{spec:?} seed={seed} case={case}");
        assert_agreement(&h, spec, &ctx);
        if rng.gen_below(100) < 50 {
            if let Some(bad) = corrupt(&mut rng, &h) {
                if check_exact(&bad, spec).is_err() {
                    violations += 1;
                }
                assert_agreement(&bad, spec, &format!("{ctx} corrupted"));
            }
        }
    }
    // The fuzz must actually exercise both outcomes and the completion
    // rule, or agreement is vacuous.
    assert!(violations > 0, "{spec:?}: no violating history generated");
    assert!(pending_seen > 0, "{spec:?}: no pending op generated");
}

#[test]
fn max_register_verdicts_agree() {
    fuzz_family(&SeqSpec::MaxRegister { initial: -1 }, 4, 0xA11CE, 1200);
}

#[test]
fn counter_verdicts_agree() {
    fuzz_family(&SeqSpec::Counter, 4, 0xB0B, 1200);
}

#[test]
fn snapshot_verdicts_agree() {
    fuzz_family(&SeqSpec::Snapshot { n: 3, initial: 0 }, 3, 0xCAFE, 600);
}

/// Scales every non-negative scalar read in `history` down to
/// `ceil(v / k)` — the smallest answer the k-envelope admits, i.e. an
/// error of exactly factor k against the linearization that assigned
/// the outputs.
fn scale_reads_to_envelope_floor(history: &History, k: u64) -> History {
    let ops: Vec<OpRecord> = history
        .ops()
        .iter()
        .cloned()
        .map(|mut op| {
            let is_read = matches!(op.desc, OpDesc::ReadMax | OpDesc::CounterRead);
            if let (true, Some(OpOutput::Value(v))) = (is_read, op.output.as_mut()) {
                if *v > 0 {
                    *v = (*v as u64).div_ceil(k) as Word;
                }
            }
            op
        })
        .collect();
    ops.into_iter().collect()
}

#[test]
fn relaxed_verdicts_agree_at_every_k() {
    // Same harness as the k = 1 fuzz, but with reads pushed to the
    // envelope floor and the `_k` checkers asked to certify the result.
    // A linearizable-by-construction history whose reads underestimate
    // by exactly factor k must pass at k and keep exact/interval
    // agreement.
    for (spec, seed) in [
        (SeqSpec::MaxRegister { initial: 0 }, 0x5CA1E_u64),
        (SeqSpec::Counter, 0x5CA1F),
    ] {
        let mut rng = SplitMix64::new(seed);
        for k in [2u64, 3, 7] {
            for case in 0..300 {
                let h = random_history(&mut rng, &spec, 4, 24);
                let scaled = scale_reads_to_envelope_floor(&h, k);
                let ctx = format!("{spec:?} k={k} case={case}");
                let exact = check_exact_k(&scaled, &spec, k);
                assert!(
                    exact.is_ok(),
                    "{ctx}: envelope-floor reads must stay k-linearizable: {exact:?}"
                );
                assert_agreement_k(&scaled, &spec, k, &ctx);
                // Corrupted histories still agree between the two
                // search checkers at this k.
                if let Some(bad) = corrupt(&mut rng, &scaled) {
                    assert_agreement_k(&bad, &spec, k, &format!("{ctx} corrupted"));
                }
            }
        }
    }
}

#[test]
fn the_envelope_boundary_is_exactly_factor_k() {
    // C sequential increments, then one read r: with everything
    // completed before the read invokes, every linearization pins the
    // read's expected value at C — so ceil(C / k) is accepted and one
    // less is not, by both checkers.
    let spec = SeqSpec::Counter;
    for (c, k) in [(10u64, 3u64), (12, 4), (9, 2), (25, 5)] {
        let mut ops: Vec<OpRecord> = (0..c)
            .map(|i| OpRecord {
                pid: ProcessId(0),
                desc: OpDesc::CounterIncrement,
                invoke: (2 * i) as usize,
                response: Some((2 * i + 1) as usize),
                output: Some(OpOutput::Unit),
                steps: 1,
            })
            .collect();
        let read = |v: u64| OpRecord {
            pid: ProcessId(1),
            desc: OpDesc::CounterRead,
            invoke: (2 * c) as usize,
            response: Some((2 * c + 1) as usize),
            output: Some(OpOutput::Value(v as Word)),
            steps: 1,
        };
        let floor = c.div_ceil(k);
        ops.push(read(floor));
        let good: History = ops.clone().into_iter().collect();
        assert!(check_exact_k(&good, &spec, k).is_ok(), "C={c} k={k}");
        assert!(check_interval_k(&good, &spec, k).is_ok(), "C={c} k={k}");
        ops.pop();
        ops.push(read(floor - 1));
        let bad: History = ops.into_iter().collect();
        assert!(check_exact_k(&bad, &spec, k).is_err(), "C={c} k={k}");
        assert!(check_interval_k(&bad, &spec, k).is_err(), "C={c} k={k}");
    }
}

#[test]
fn verdicts_agree_at_the_exact_checker_boundary() {
    // Histories pinned at exactly 63 operations — the largest the
    // oracle can decide — still agree.
    let spec = SeqSpec::Counter;
    let mut rng = SplitMix64::new(0x63);
    for case in 0..40 {
        let mut h;
        loop {
            h = random_history(&mut rng, &spec, 4, 70);
            if h.len() >= 63 {
                break;
            }
        }
        let ops: Vec<OpRecord> = h.ops()[..63].to_vec();
        let h: History = ops.into_iter().collect();
        assert_agreement(&h, &spec, &format!("boundary case={case}"));
    }
}
