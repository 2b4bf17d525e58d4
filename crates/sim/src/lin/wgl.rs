//! Interval linearizability checking at scale (Wing–Gong–Lowe style).
//!
//! [`check_exact`](super::check_exact) is a complete decision procedure
//! but refuses histories over 63 operations: its linearized set is a
//! `u64` bitmask. This module removes the cap. [`check_interval`] runs
//! the same search — happens-before over invocation/response intervals,
//! an in-degree-zero frontier of linearizable candidates, depth-first
//! search with a memo of failed `(linearized set, sequential-spec
//! state)` pairs — over a representation that scales to histories of
//! tens of thousands of operations.
//!
//! # How the representation scales
//!
//! The precedence relation of a history is an **interval order**
//! (`a` precedes `b` iff `a.response <= b.invoke`). Interval orders
//! admit a minimum *chain decomposition* computed greedily in
//! `O(n log n)`: walking operations by invocation tick and appending
//! each to any chain whose last response is `<= invoke` partitions the
//! history into `w` chains, where `w` is the maximum number of mutually
//! overlapping operations (for executor histories, at most the process
//! count plus crash-pending operations). Two facts make chains the
//! right search state:
//!
//! * Every set linearized by a partial search is a *down-set* of the
//!   precedence order, and a down-set is exactly a position per chain —
//!   the search state is a `Vec<u32>` of length `w`, not a bitmask of
//!   length `n`.
//! * Responses strictly increase along a chain, so "all predecessors of
//!   op `i` are linearized" reduces to "no other chain's head precedes
//!   `i`" — the in-degree-zero frontier is computable from the `w`
//!   chain heads alone, in `O(w)` per node.
//!
//! The memo keys failed states by `(chain positions, spec state)`, the
//! direct analogue of `check_exact`'s `(bitmask, spec state)`; the DFS
//! is iterative (explicit stack), so history length never threatens the
//! call stack. Verdict semantics are identical to `check_exact` — the
//! completion rule for pending operations (each may linearize anywhere
//! after its invocation or be omitted), `Unit` expected outputs acting
//! as wildcards, acceptance once every *complete* operation is
//! linearized — and `crates/sim/tests/interval_vs_exact.rs` fuzzes the
//! two checkers differentially on every [`SeqSpec`].
//!
//! Worst-case cost is still exponential in the overlap width `w` (the
//! problem is NP-hard in general), but `w` is small for histories
//! produced by `N`-process executions, and the memo makes the common
//! linearizable case near-linear.

use std::collections::{BTreeSet, HashMap, HashSet};

use super::{output_within_k, Violation, ViolationKind};
use crate::history::{History, OpRecord};
use crate::spec::{SeqSpec, SpecState};

/// One DFS node: the spec state on arrival, the frontier of enabled
/// chains, a cursor into it, and which chain was advanced to get here
/// (`u32::MAX` for the root).
struct Frame {
    state: SpecState,
    cands: Vec<u32>,
    next: usize,
    came_via: u32,
}

/// Greedy minimum chain decomposition of the interval order, processing
/// operations by invocation tick. Returns chains of indices into `ops`;
/// consecutive chain elements satisfy `prev.response <= next.invoke`,
/// so responses strictly increase along each chain and a pending
/// operation is always the last element of its chain.
fn chain_decomposition(ops: &[OpRecord]) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..ops.len()).collect();
    order.sort_by_key(|&i| ops[i].invoke);

    let mut chains: Vec<Vec<usize>> = Vec::new();
    // Chains available for extension, keyed by their last response.
    let mut avail: BTreeSet<(usize, usize)> = BTreeSet::new();
    for i in order {
        let op = &ops[i];
        let c = match avail.range(..=(op.invoke, usize::MAX)).next_back().copied() {
            Some(key) => {
                avail.remove(&key);
                key.1
            }
            None => {
                chains.push(Vec::new());
                chains.len() - 1
            }
        };
        chains[c].push(i);
        if let Some(r) = op.response {
            avail.insert((r, c));
        }
    }
    chains
}

/// The in-degree-zero frontier: chains whose head operation has no
/// un-linearized predecessor. Head `i` of chain `c` is enabled iff no
/// *other* chain's head precedes it, i.e. the minimum response among
/// the other heads is `> i.invoke` (pending heads never precede
/// anything). Computed with a min/second-min pass, `O(w)`.
///
/// The frontier is ordered earliest response first (pending heads
/// last): the op that must linearize soonest is tried first, so the
/// search reaches a legal order with fewer dead ends. The order never
/// changes a verdict, only how fast it is reached.
fn enabled_heads(chains: &[Vec<usize>], pos: &[u32], ops: &[OpRecord]) -> Vec<u32> {
    const INF: usize = usize::MAX;
    let mut min1 = INF;
    let mut min1_chain = usize::MAX;
    let mut min2 = INF;
    let mut heads: Vec<(u32, usize)> = Vec::new();
    for (c, chain) in chains.iter().enumerate() {
        if let Some(&i) = chain.get(pos[c] as usize) {
            let r = ops[i].response.unwrap_or(INF);
            if r < min1 {
                min2 = min1;
                min1 = r;
                min1_chain = c;
            } else if r < min2 {
                min2 = r;
            }
            heads.push((c as u32, i));
        }
    }
    let mut out: Vec<(usize, u32)> = Vec::with_capacity(heads.len());
    for &(c, i) in &heads {
        let other_min = if c as usize == min1_chain { min2 } else { min1 };
        if other_min > ops[i].invoke {
            out.push((ops[i].response.unwrap_or(INF), c));
        }
    }
    out.sort_unstable();
    out.into_iter().map(|(_, c)| c).collect()
}

/// Decides whether `history` is linearizable with respect to `spec`,
/// with no cap on history length.
///
/// Same verdict semantics as [`check_exact`](super::check_exact) —
/// pending operations follow the completion rule (linearize anywhere
/// after invocation, or omit), and acceptance requires linearizing
/// every complete operation — but the search state scales: histories
/// of tens of thousands of operations from `N`-process executions are
/// decided in near-linear time. `check_exact` remains the ≤63-op
/// differential oracle for this checker.
///
/// # Errors
///
/// Returns [`ViolationKind::NoLinearization`] if no legal order exists.
/// Never returns [`ViolationKind::Uncheckable`].
pub fn check_interval(history: &History, spec: &SeqSpec) -> Result<(), Violation> {
    check_interval_k(history, spec, 1)
}

/// [`check_interval`] generalized to k-multiplicative accuracy
/// (ISSUE 9): decides whether some linearization exists in which every
/// scalar read output `v` satisfies `V / k ≤ v ≤ V` against the spec
/// value `V` at its linearization point, with no cap on history length.
/// The search is identical to the exact one — only the output
/// acceptance test (`output_within_k`) is
/// relaxed — so `k = 1` reduces bit-for-bit to [`check_interval`]'s
/// verdicts, and [`check_exact_k`](super::check_exact_k) remains the
/// ≤63-op differential oracle at every `k`.
///
/// # Panics
///
/// Panics if `k == 0` (the accuracy factor is `≥ 1` by definition).
///
/// # Errors
///
/// Returns [`ViolationKind::NoLinearization`] if no legal order exists
/// even under the k-envelope.
pub fn check_interval_k(history: &History, spec: &SeqSpec, k: u64) -> Result<(), Violation> {
    assert!(k >= 1, "accuracy factor k must be >= 1");
    let ops = history.ops();
    let mut remaining = ops.iter().filter(|o| o.is_complete()).count();
    if remaining == 0 {
        // Only pending operations (or none): omit them all.
        return Ok(());
    }

    let chains = chain_decomposition(ops);
    let width = chains.len();
    let mut pos: Vec<u32> = vec![0; width];
    // Failed states: chain positions -> spec states already proven dead.
    let mut failed: HashMap<Vec<u32>, HashSet<SpecState>> = HashMap::new();

    let mut stack: Vec<Frame> = Vec::new();
    stack.push(Frame {
        state: spec.init(),
        cands: enabled_heads(&chains, &pos, ops),
        next: 0,
        came_via: u32::MAX,
    });

    while let Some(top) = stack.last_mut() {
        if let Some(&c) = top.cands.get(top.next) {
            top.next += 1;
            let c = c as usize;
            let i = chains[c][pos[c] as usize];
            let op = &ops[i];
            let (next_state, expected) = spec.apply(&top.state, op.pid, &op.desc);
            if let Some(observed) = &op.output {
                if !output_within_k(observed, &expected, k) {
                    continue;
                }
            }
            pos[c] += 1;
            if op.is_complete() {
                remaining -= 1;
                if remaining == 0 {
                    return Ok(());
                }
            }
            if failed
                .get(&pos)
                .is_some_and(|states| states.contains(&next_state))
            {
                pos[c] -= 1;
                if op.is_complete() {
                    remaining += 1;
                }
                continue;
            }
            let cands = enabled_heads(&chains, &pos, ops);
            stack.push(Frame {
                state: next_state,
                cands,
                next: 0,
                came_via: c as u32,
            });
        } else {
            let frame = stack.pop().expect("loop condition guarantees a frame");
            failed.entry(pos.clone()).or_default().insert(frame.state);
            if frame.came_via != u32::MAX {
                let c = frame.came_via as usize;
                pos[c] -= 1;
                let i = chains[c][pos[c] as usize];
                if ops[i].is_complete() {
                    remaining += 1;
                }
            }
        }
    }

    let envelope = if k > 1 {
        format!(" within accuracy factor k={k}")
    } else {
        String::new()
    };
    Err(Violation::new(
        ViolationKind::NoLinearization,
        format!(
            "no legal linearization of {} operations exists{envelope} \
             (interval search over {width} chains)",
            ops.len()
        ),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{OpDesc, OpOutput};
    use crate::ProcessId;

    fn op(pid: usize, desc: OpDesc, invoke: usize, response: usize, output: OpOutput) -> OpRecord {
        OpRecord {
            pid: ProcessId(pid),
            desc,
            invoke,
            response: Some(response),
            output: Some(output),
            steps: 1,
        }
    }

    fn pending(pid: usize, desc: OpDesc, invoke: usize) -> OpRecord {
        OpRecord {
            pid: ProcessId(pid),
            desc,
            invoke,
            response: None,
            output: None,
            steps: 1,
        }
    }

    fn hist(ops: Vec<OpRecord>) -> History {
        let mut sorted = ops;
        sorted.sort_by_key(|o| o.invoke);
        sorted.into_iter().collect()
    }

    const MAX_SPEC: SeqSpec = SeqSpec::MaxRegister { initial: -1 };

    #[test]
    fn empty_history_is_linearizable() {
        assert!(check_interval(&History::new(), &SeqSpec::Counter).is_ok());
    }

    #[test]
    fn sequential_max_register_history_is_linearizable() {
        let h = hist(vec![
            op(0, OpDesc::WriteMax(5), 0, 1, OpOutput::Unit),
            op(1, OpDesc::ReadMax, 2, 3, OpOutput::Value(5)),
        ]);
        assert!(check_interval(&h, &MAX_SPEC).is_ok());
    }

    #[test]
    fn stale_read_is_rejected() {
        let h = hist(vec![
            op(0, OpDesc::WriteMax(5), 0, 1, OpOutput::Unit),
            op(1, OpDesc::ReadMax, 2, 3, OpOutput::Value(-1)),
        ]);
        let v = check_interval(&h, &MAX_SPEC).unwrap_err();
        assert_eq!(v.kind, ViolationKind::NoLinearization);
    }

    #[test]
    fn concurrent_write_may_or_may_not_be_seen() {
        for seen in [-1, 5] {
            let h = hist(vec![
                op(0, OpDesc::WriteMax(5), 0, 4, OpOutput::Unit),
                op(1, OpDesc::ReadMax, 1, 3, OpOutput::Value(seen)),
            ]);
            assert!(check_interval(&h, &MAX_SPEC).is_ok(), "seen={seen}");
        }
    }

    #[test]
    fn counter_interval_conditions() {
        let ok = hist(vec![
            op(0, OpDesc::CounterIncrement, 0, 1, OpOutput::Unit),
            op(1, OpDesc::CounterRead, 2, 3, OpOutput::Value(1)),
        ]);
        assert!(check_interval(&ok, &SeqSpec::Counter).is_ok());
        for wrong in [0, 2] {
            let bad = hist(vec![
                op(0, OpDesc::CounterIncrement, 0, 1, OpOutput::Unit),
                op(1, OpDesc::CounterRead, 2, 3, OpOutput::Value(wrong)),
            ]);
            assert!(check_interval(&bad, &SeqSpec::Counter).is_err(), "{wrong}");
        }
    }

    #[test]
    fn pending_increment_may_linearize_or_not() {
        for (seen, ok) in [(0, true), (1, true), (2, false)] {
            let mut h = History::new();
            h.push(pending(0, OpDesc::CounterIncrement, 0));
            h.push(op(1, OpDesc::CounterRead, 1, 2, OpOutput::Value(seen)));
            assert_eq!(
                check_interval(&h, &SeqSpec::Counter).is_ok(),
                ok,
                "seen={seen}"
            );
        }
    }

    #[test]
    fn pending_increment_does_not_lower_the_floor() {
        let mut h = History::new();
        h.push(op(0, OpDesc::CounterIncrement, 0, 1, OpOutput::Unit));
        h.push(pending(1, OpDesc::CounterIncrement, 2));
        h.push(op(2, OpDesc::CounterRead, 3, 4, OpOutput::Value(0)));
        assert!(check_interval(&h, &SeqSpec::Counter).is_err());
    }

    #[test]
    fn pending_snapshot_update_may_linearize_or_not() {
        for (seen, ok) in [(0, true), (1, true), (9, false)] {
            let mut h = History::new();
            h.push(pending(0, OpDesc::Update(1), 0));
            h.push(op(2, OpDesc::Scan, 1, 2, OpOutput::Vector(vec![seen, 0])));
            let spec = SeqSpec::Snapshot { n: 2, initial: 0 };
            assert_eq!(check_interval(&h, &spec).is_ok(), ok, "seen={seen}");
        }
    }

    #[test]
    fn all_pending_history_is_accepted_by_omission() {
        let mut h = History::new();
        h.push(pending(0, OpDesc::CounterIncrement, 0));
        h.push(pending(1, OpDesc::CounterRead, 1));
        assert!(check_interval(&h, &SeqSpec::Counter).is_ok());
    }

    #[test]
    fn snapshot_incomparable_scans_fail() {
        let h = hist(vec![
            op(0, OpDesc::Update(1), 0, 10, OpOutput::Unit),
            op(1, OpDesc::Update(2), 0, 10, OpOutput::Unit),
            op(2, OpDesc::Scan, 1, 2, OpOutput::Vector(vec![1, 0])),
            op(3, OpDesc::Scan, 3, 4, OpOutput::Vector(vec![0, 2])),
        ]);
        let spec = SeqSpec::Snapshot { n: 2, initial: 0 };
        assert!(check_interval(&h, &spec).is_err());
    }

    #[test]
    fn decides_past_the_exact_checker_cap() {
        // 64+ sequential increments: `check_exact` refuses, this decides.
        let ops: Vec<OpRecord> = (0..200)
            .map(|i| {
                op(
                    0,
                    OpDesc::CounterIncrement,
                    2 * i,
                    2 * i + 1,
                    OpOutput::Unit,
                )
            })
            .collect();
        assert!(check_interval(&hist(ops), &SeqSpec::Counter).is_ok());
    }

    #[test]
    fn rejects_violations_past_the_exact_checker_cap() {
        // 100 completed increments, then a read that misses half of them.
        let mut ops: Vec<OpRecord> = (0..100)
            .map(|i| {
                op(
                    0,
                    OpDesc::CounterIncrement,
                    2 * i,
                    2 * i + 1,
                    OpOutput::Unit,
                )
            })
            .collect();
        ops.push(op(1, OpDesc::CounterRead, 300, 301, OpOutput::Value(50)));
        let v = check_interval(&hist(ops), &SeqSpec::Counter).unwrap_err();
        assert_eq!(v.kind, ViolationKind::NoLinearization);
    }

    #[test]
    fn decides_thousands_of_overlapping_ops() {
        // 4 processes, 1000 alternating update/read rounds each, laid out
        // with genuine overlap: process p's k-th op spans
        // [4k + p, 4k + p + 4). Reads return the count of increments
        // whose interval already closed — a feasible value.
        let n = 4usize;
        let rounds = 1000usize;
        let mut ops: Vec<OpRecord> = Vec::new();
        for p in 0..n {
            for k in 0..rounds {
                let invoke = 4 * k + p;
                let response = invoke + 4;
                if k % 2 == 0 {
                    ops.push(op(
                        p,
                        OpDesc::CounterIncrement,
                        invoke,
                        response,
                        OpOutput::Unit,
                    ));
                } else {
                    // Count increments with response <= invoke: process q
                    // contributed its even rounds k' with 4k' + q + 4 <= invoke.
                    let mut seen = 0;
                    for q in 0..n {
                        let mut done = 0;
                        for k2 in (0..rounds).step_by(2) {
                            if 4 * k2 + q + 4 <= invoke {
                                done += 1;
                            }
                        }
                        seen += done;
                    }
                    ops.push(op(
                        p,
                        OpDesc::CounterRead,
                        invoke,
                        response,
                        OpOutput::Value(seen),
                    ));
                }
            }
        }
        let h = hist(ops);
        assert_eq!(h.len(), n * rounds);
        assert!(check_interval(&h, &SeqSpec::Counter).is_ok());
    }

    #[test]
    fn k_envelope_decides_past_the_exact_checker_cap() {
        // 100 completed increments, then a read of 50: exactly on the
        // k=2 boundary (50·2 = 100), outside at k=1 — far beyond
        // check_exact's 63-op cap in both cases.
        let base: Vec<OpRecord> = (0..100)
            .map(|i| {
                op(
                    0,
                    OpDesc::CounterIncrement,
                    2 * i,
                    2 * i + 1,
                    OpOutput::Unit,
                )
            })
            .collect();
        for (seen, k, ok) in [
            (50, 2, true),
            (50, 1, false),
            (49, 2, false),
            (101, 2, false),
        ] {
            let mut ops = base.clone();
            ops.push(op(1, OpDesc::CounterRead, 300, 301, OpOutput::Value(seen)));
            assert_eq!(
                check_interval_k(&hist(ops), &SeqSpec::Counter, k).is_ok(),
                ok,
                "seen={seen} k={k}"
            );
        }
    }

    #[test]
    fn chain_decomposition_width_matches_overlap() {
        // Two fully sequential processes interleaved in time but never
        // overlapping collapse to one chain; two overlapping ops need two.
        let seq = hist(vec![
            op(0, OpDesc::CounterIncrement, 0, 1, OpOutput::Unit),
            op(1, OpDesc::CounterIncrement, 2, 3, OpOutput::Unit),
        ]);
        assert_eq!(chain_decomposition(seq.ops()).len(), 1);
        let conc = hist(vec![
            op(0, OpDesc::CounterIncrement, 0, 3, OpOutput::Unit),
            op(1, OpDesc::CounterIncrement, 1, 4, OpOutput::Unit),
        ]);
        assert_eq!(chain_decomposition(conc.ops()).len(), 2);
    }

    #[test]
    fn frontier_is_tried_earliest_response_first() {
        // Three mutually overlapping ops on three chains; the pending one
        // responds never, so it comes last.
        let h = hist(vec![
            op(0, OpDesc::CounterIncrement, 0, 9, OpOutput::Unit),
            pending(1, OpDesc::CounterIncrement, 1),
            op(2, OpDesc::CounterRead, 2, 5, OpOutput::Value(1)),
        ]);
        let chains = chain_decomposition(h.ops());
        let heads: Vec<usize> = enabled_heads(&chains, &[0, 0, 0], h.ops())
            .into_iter()
            .map(|c| chains[c as usize][0])
            .collect();
        assert_eq!(heads, vec![2, 0, 1]);
    }
}
