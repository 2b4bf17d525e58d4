//! Linearizability checking.
//!
//! Two layers:
//!
//! * [`check_exact`] — a complete Wing–Gong-style search over a `u64`
//!   bitmask of linearized operations. Decides linearizability exactly
//!   but refuses histories over 63 operations; it is the differential
//!   oracle for the interval checker.
//! * [`check_interval`] — the same complete search over a chain
//!   decomposition of the interval order (see [`wgl`] for the
//!   construction), with no cap on history length and no allocation per
//!   search node. It decides every verdict in the workspace: histories
//!   of tens of thousands of operations, including pending operations
//!   left by crashes, and each of the explorer's schedules. A rejection
//!   names its culprit: how far the longest partial linearization got,
//!   and what each operation that could come next returned against what
//!   the spec needed.
//!
//! Both come as a `_k` variant ([`check_exact_k`], [`check_interval_k`])
//! deciding *linearizability up to a k-multiplicative accuracy factor*:
//! a scalar read may underestimate the spec value by at most the factor
//! `k` and may never overestimate it — the contract of the HKM
//! approximate objects in `ruo-core`. The plain names are thin wrappers
//! over the `_k` variants at `k = 1`, which reduces bit-for-bit to the
//! exact verdicts.
//!
//! All checkers take the executor's [`History`]: operation intervals in
//! global event ticks, where operation `a` precedes `b` iff
//! `a.response <= b.invoke`.

use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;

use crate::history::{History, OpOutput, OpRecord};
use crate::spec::{SeqSpec, SpecState};
use crate::Word;

pub mod wgl;

pub use wgl::{check_interval, check_interval_k};

/// Whether `observed` is an acceptable output for an operation whose
/// legal sequential output is `expected`, under k-multiplicative
/// accuracy (ISSUE 9): a scalar read may underestimate the true value
/// by at most the factor `k` and may never overestimate it
/// (`observed ≤ expected ≤ k · observed`).
///
/// This is the **single relaxation point** shared by [`check_exact_k`]
/// and [`check_interval_k`] — everything else about their searches is
/// untouched, which is why the two agree by construction at every `k`.
/// The relaxation applies only where it is well defined:
///
/// * `Unit` outputs accept anything (updates return nothing);
/// * scalar values relax only when both sides are non-negative —
///   negative values (e.g. a `-∞`-floored max register) compare
///   exactly, since multiplicative error is meaningless below zero;
/// * vectors (snapshot scans) always compare exactly — the HKM
///   constructions define no k-relaxed snapshot;
/// * `k = 1` is bit-for-bit today's exact comparison.
pub(crate) fn output_within_k(observed: &OpOutput, expected: &OpOutput, k: u64) -> bool {
    match (observed, expected) {
        (_, OpOutput::Unit) => true,
        (OpOutput::Value(o), OpOutput::Value(x)) => {
            if k <= 1 || *o < 0 || *x < 0 {
                o == x
            } else {
                *o <= *x && (*o as i128) * (k as i128) >= *x as i128
            }
        }
        (o, x) => o == x,
    }
}

/// Why a history is not linearizable (or not checkable).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// The exhaustive search found no legal linearization.
    NoLinearization,
    /// The history exceeds the checker's capacity (the exact checker's
    /// 63-operation bitmask limit). Not a linearizability verdict —
    /// re-check with [`check_interval`], which has no cap.
    Uncheckable,
}

/// A linearizability violation, with human-readable detail.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The kind of violation.
    pub kind: ViolationKind,
    /// Human-readable description naming the offending operations.
    pub detail: String,
}

impl Violation {
    fn new(kind: ViolationKind, detail: impl Into<String>) -> Self {
        Violation {
            kind,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}: {}", self.kind, self.detail)
    }
}

impl Error for Violation {}

/// Exhaustively decides whether `history` is linearizable with respect to
/// `spec`.
///
/// Pending operations (no response) are treated per the standard
/// completion rule: each may be linearized at any point after its
/// invocation, or omitted entirely.
///
/// # Errors
///
/// Returns [`ViolationKind::NoLinearization`] if no legal order exists,
/// or [`ViolationKind::Uncheckable`] if the history has more than 63
/// operations (the bitmask search's capacity — use [`check_interval`]
/// for large histories). `Uncheckable` is a capacity report, not a
/// linearizability verdict; crash-truncated soak runs check it
/// explicitly instead of aborting.
pub fn check_exact(history: &History, spec: &SeqSpec) -> Result<(), Violation> {
    check_exact_k(history, spec, 1)
}

/// [`check_exact`] generalized to k-multiplicative accuracy (ISSUE 9):
/// decides whether some linearization exists in which every scalar read
/// output `v` satisfies `V / k ≤ v ≤ V` against the spec value `V` at
/// its linearization point ("linearizable up to factor `k`"). The search
/// is identical to the exact one — only the output acceptance test
/// (`output_within_k`) is relaxed — so `k = 1` reduces bit-for-bit to
/// [`check_exact`]'s verdicts.
///
/// # Panics
///
/// Panics if `k == 0` (the accuracy factor is `≥ 1` by definition).
///
/// # Errors
///
/// As [`check_exact`]: [`ViolationKind::NoLinearization`] if no legal
/// order exists even under the k-envelope, [`ViolationKind::Uncheckable`]
/// above 63 operations.
pub fn check_exact_k(history: &History, spec: &SeqSpec, k: u64) -> Result<(), Violation> {
    assert!(k >= 1, "accuracy factor k must be >= 1");
    let ops = history.ops();
    if ops.len() > 63 {
        return Err(Violation::new(
            ViolationKind::Uncheckable,
            format!(
                "exact checker supports at most 63 operations, got {}",
                ops.len()
            ),
        ));
    }
    let n = ops.len();
    let all_complete: u64 = ops
        .iter()
        .enumerate()
        .filter(|(_, o)| o.is_complete())
        .fold(0u64, |m, (i, _)| m | (1 << i));

    // Precompute precedence: must[i] = set of ops that must come before i.
    let mut must_before: Vec<u64> = vec![0; n];
    for (i, oi) in ops.iter().enumerate() {
        for (j, oj) in ops.iter().enumerate() {
            if i != j && oj.precedes(oi) {
                must_before[i] |= 1 << j;
            }
        }
    }

    // Failed-state memo, keyed by linearized-set mask. Nesting the
    // states per mask lets the hot probe borrow `state` instead of
    // cloning it on every DFS node (for snapshot specs a clone is a Vec
    // allocation).
    let mut failed: HashMap<u64, HashSet<SpecState>> = HashMap::new();

    #[allow(clippy::too_many_arguments)]
    fn dfs(
        mask: u64,
        state: &SpecState,
        ops: &[OpRecord],
        spec: &SeqSpec,
        k: u64,
        all_complete: u64,
        must_before: &[u64],
        failed: &mut HashMap<u64, HashSet<SpecState>>,
    ) -> bool {
        if mask & all_complete == all_complete {
            return true;
        }
        if failed
            .get(&mask)
            .is_some_and(|states| states.contains(state))
        {
            return false;
        }
        for (i, op) in ops.iter().enumerate() {
            let bit = 1u64 << i;
            if mask & bit != 0 {
                continue;
            }
            if must_before[i] & !mask != 0 {
                continue; // some predecessor not yet linearized
            }
            let (next, expected) = spec.apply(state, op.pid, &op.desc);
            if let Some(observed) = &op.output {
                if !output_within_k(observed, &expected, k) {
                    continue;
                }
            }
            if dfs(
                mask | bit,
                &next,
                ops,
                spec,
                k,
                all_complete,
                must_before,
                failed,
            ) {
                return true;
            }
        }
        failed.entry(mask).or_default().insert(state.clone());
        false
    }

    if dfs(
        0,
        &spec.init(),
        ops,
        spec,
        k,
        all_complete,
        &must_before,
        &mut failed,
    ) {
        Ok(())
    } else {
        let envelope = if k > 1 {
            format!(" within accuracy factor k={k}")
        } else {
            String::new()
        };
        Err(Violation::new(
            ViolationKind::NoLinearization,
            format!("no legal linearization of {n} operations exists{envelope}"),
        ))
    }
}

/// [`check_interval`] against a max register that starts at `initial`.
/// Kept while `perfbench` calls it.
///
/// # Errors
///
/// As [`check_interval`].
pub fn check_max_register(history: &History, initial: Word) -> Result<(), Violation> {
    check_interval(history, &SeqSpec::MaxRegister { initial })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{OpDesc, OpOutput, OpRecord};
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

    /// Both complete checkers' verdict at accuracy factor `k`; they must
    /// agree, and a rejection is always `NoLinearization`.
    fn verdict_k(h: &History, spec: &SeqSpec, k: u64) -> bool {
        let exact = check_exact_k(h, spec, k);
        let interval = check_interval_k(h, spec, k);
        assert_eq!(
            exact.is_ok(),
            interval.is_ok(),
            "exact {exact:?} vs interval {interval:?}"
        );
        for v in [&exact, &interval]
            .into_iter()
            .filter_map(|r| r.as_ref().err())
        {
            assert_eq!(v.kind, ViolationKind::NoLinearization, "{v}");
        }
        exact.is_ok()
    }

    fn linearizable(h: &History, spec: &SeqSpec) -> bool {
        verdict_k(h, spec, 1)
    }

    const MAX_SPEC: SeqSpec = SeqSpec::MaxRegister { initial: -1 };
    const SNAP_SPEC: SeqSpec = SeqSpec::Snapshot { n: 2, initial: 0 };

    #[test]
    fn sequential_max_register_history_is_linearizable() {
        let h = hist(vec![
            op(0, OpDesc::WriteMax(5), 0, 1, OpOutput::Unit),
            op(1, OpDesc::ReadMax, 2, 3, OpOutput::Value(5)),
        ]);
        assert!(linearizable(&h, &MAX_SPEC));
    }

    #[test]
    fn stale_read_is_rejected_by_both_checkers() {
        let h = hist(vec![
            op(0, OpDesc::WriteMax(5), 0, 1, OpOutput::Unit),
            op(1, OpDesc::ReadMax, 2, 3, OpOutput::Value(-1)),
        ]);
        assert!(!linearizable(&h, &MAX_SPEC));
    }

    #[test]
    fn concurrent_write_may_or_may_not_be_seen() {
        // Write overlaps read: both outcomes linearizable.
        for seen in [-1, 5] {
            let h = hist(vec![
                op(0, OpDesc::WriteMax(5), 0, 4, OpOutput::Unit),
                op(1, OpDesc::ReadMax, 1, 3, OpOutput::Value(seen)),
            ]);
            assert!(linearizable(&h, &MAX_SPEC), "seen={seen}");
        }
    }

    #[test]
    fn unwritten_value_is_rejected() {
        let h = hist(vec![op(1, OpDesc::ReadMax, 0, 1, OpOutput::Value(9))]);
        assert!(!linearizable(&h, &MAX_SPEC));
    }

    #[test]
    fn non_monotone_reads_are_rejected() {
        let h = hist(vec![
            op(0, OpDesc::WriteMax(5), 0, 10, OpOutput::Unit),
            op(1, OpDesc::ReadMax, 1, 2, OpOutput::Value(5)),
            op(2, OpDesc::ReadMax, 3, 4, OpOutput::Value(-1)),
        ]);
        assert!(!linearizable(&h, &MAX_SPEC));
    }

    #[test]
    fn counter_interval_conditions() {
        // inc [0,1]; read [2,3] must return exactly 1.
        let h = |seen: Word| {
            hist(vec![
                op(0, OpDesc::CounterIncrement, 0, 1, OpOutput::Unit),
                op(1, OpDesc::CounterRead, 2, 3, OpOutput::Value(seen)),
            ])
        };
        assert!(linearizable(&h(1), &SeqSpec::Counter));
        assert!(!linearizable(&h(0), &SeqSpec::Counter), "missed");
        assert!(!linearizable(&h(2), &SeqSpec::Counter), "overcount");
    }

    #[test]
    fn concurrent_increment_gives_slack() {
        let h = hist(vec![
            op(0, OpDesc::CounterIncrement, 0, 10, OpOutput::Unit),
            op(1, OpDesc::CounterRead, 1, 2, OpOutput::Value(1)),
        ]);
        assert!(linearizable(&h, &SeqSpec::Counter));
    }

    #[test]
    fn counter_reads_must_be_monotone() {
        let h = hist(vec![
            op(0, OpDesc::CounterIncrement, 0, 20, OpOutput::Unit),
            op(1, OpDesc::CounterRead, 1, 2, OpOutput::Value(1)),
            op(2, OpDesc::CounterRead, 3, 4, OpOutput::Value(0)),
        ]);
        assert!(!linearizable(&h, &SeqSpec::Counter));
    }

    #[test]
    fn snapshot_consistent_scans_pass() {
        let h = hist(vec![
            op(0, OpDesc::Update(1), 0, 1, OpOutput::Unit),
            op(1, OpDesc::Update(2), 2, 3, OpOutput::Unit),
            op(2, OpDesc::Scan, 4, 5, OpOutput::Vector(vec![1, 2])),
        ]);
        assert!(linearizable(&h, &SNAP_SPEC));
    }

    #[test]
    fn snapshot_missed_update_fails() {
        let h = hist(vec![
            op(0, OpDesc::Update(1), 0, 1, OpOutput::Unit),
            op(2, OpDesc::Scan, 2, 3, OpOutput::Vector(vec![0, 0])),
        ]);
        assert!(!linearizable(&h, &SNAP_SPEC));
    }

    #[test]
    fn snapshot_incomparable_scans_fail() {
        // Two concurrent updates; two scans each seeing only one of them.
        let h = hist(vec![
            op(0, OpDesc::Update(1), 0, 10, OpOutput::Unit),
            op(1, OpDesc::Update(2), 0, 10, OpOutput::Unit),
            op(2, OpDesc::Scan, 1, 2, OpOutput::Vector(vec![1, 0])),
            op(3, OpDesc::Scan, 3, 4, OpOutput::Vector(vec![0, 2])),
        ]);
        assert!(!linearizable(&h, &SNAP_SPEC));
    }

    #[test]
    fn pending_write_may_linearize_or_not() {
        // A pending WriteMax(7) may or may not take effect; reads seeing
        // either value are fine, but monotonicity still applies.
        for seen in [-1, 7] {
            let mut h = History::new();
            h.push(pending(0, OpDesc::WriteMax(7), 0));
            h.push(op(1, OpDesc::ReadMax, 1, 2, OpOutput::Value(seen)));
            assert!(linearizable(&h, &MAX_SPEC), "seen={seen}");
        }
    }

    #[test]
    fn pending_increment_may_linearize_or_not() {
        // A crash left an increment pending: reads seeing 0 or 1 are both
        // fine (completion rule), 2 is not.
        for (seen, ok) in [(0, true), (1, true), (2, false)] {
            let mut h = History::new();
            h.push(pending(0, OpDesc::CounterIncrement, 0));
            h.push(op(1, OpDesc::CounterRead, 1, 2, OpOutput::Value(seen)));
            assert_eq!(linearizable(&h, &SeqSpec::Counter), ok, "seen={seen}");
        }
    }

    #[test]
    fn pending_increment_does_not_lower_the_floor() {
        // A *completed* increment must be seen even when another is
        // pending: the pending one widens only the upper bound.
        let mut h = History::new();
        h.push(op(0, OpDesc::CounterIncrement, 0, 1, OpOutput::Unit));
        h.push(pending(1, OpDesc::CounterIncrement, 2));
        h.push(op(2, OpDesc::CounterRead, 3, 4, OpOutput::Value(0)));
        assert!(!linearizable(&h, &SeqSpec::Counter));
    }

    #[test]
    fn pending_snapshot_update_may_linearize_or_not() {
        // p0's Update(1) is pending when p2 scans: segment 0 may read 0
        // or 1, but a value never written anywhere stays illegal.
        for (seen, ok) in [(0, true), (1, true), (9, false)] {
            let mut h = History::new();
            h.push(pending(0, OpDesc::Update(1), 0));
            h.push(op(2, OpDesc::Scan, 1, 2, OpOutput::Vector(vec![seen, 0])));
            assert_eq!(linearizable(&h, &SNAP_SPEC), ok, "seen={seen}");
        }
    }

    #[test]
    fn pending_reads_are_ignored_by_every_checker() {
        // Crashed readers returned nothing; they impose no constraint.
        let mut h = History::new();
        h.push(op(0, OpDesc::WriteMax(5), 0, 1, OpOutput::Unit));
        h.push(pending(1, OpDesc::ReadMax, 2));
        assert!(linearizable(&h, &MAX_SPEC));

        let mut h = History::new();
        h.push(op(0, OpDesc::CounterIncrement, 0, 1, OpOutput::Unit));
        h.push(pending(1, OpDesc::CounterRead, 2));
        assert!(linearizable(&h, &SeqSpec::Counter));

        let mut h = History::new();
        h.push(op(0, OpDesc::Update(1), 0, 1, OpOutput::Unit));
        h.push(pending(1, OpDesc::Scan, 2));
        assert!(linearizable(&h, &SNAP_SPEC));
    }

    #[test]
    fn exact_checker_handles_interleaved_counter() {
        // Two concurrent increments and a concurrent read seeing 0, 1 or
        // 2, but never 3.
        for seen in 0..=3 {
            let h = hist(vec![
                op(0, OpDesc::CounterIncrement, 0, 5, OpOutput::Unit),
                op(1, OpDesc::CounterIncrement, 1, 6, OpOutput::Unit),
                op(2, OpDesc::CounterRead, 2, 4, OpOutput::Value(seen)),
            ]);
            assert_eq!(
                linearizable(&h, &SeqSpec::Counter),
                seen <= 2,
                "seen={seen}"
            );
        }
    }

    #[test]
    fn snapshot_checker_rejects_wrong_vector_length() {
        let h = hist(vec![op(
            0,
            OpDesc::Scan,
            0,
            1,
            OpOutput::Vector(vec![0, 0, 0]),
        )]);
        assert!(!linearizable(&h, &SNAP_SPEC));
    }

    #[test]
    fn snapshot_scan_of_unwritten_value_is_rejected() {
        let h = hist(vec![op(
            0,
            OpDesc::Scan,
            0,
            1,
            OpOutput::Vector(vec![7, 0]),
        )]);
        assert!(!linearizable(&h, &SNAP_SPEC));
    }

    #[test]
    fn snapshot_scan_of_future_update_is_rejected() {
        // Scan responds BEFORE the update is invoked, yet sees it.
        let h = hist(vec![
            op(0, OpDesc::Scan, 0, 1, OpOutput::Vector(vec![9, 0])),
            op(0, OpDesc::Update(9), 2, 3, OpOutput::Unit),
        ]);
        assert!(!linearizable(&h, &SNAP_SPEC));
    }

    #[test]
    fn exact_checker_reports_oversized_histories_as_uncheckable() {
        let ops: Vec<OpRecord> = (0..64)
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
        let v = check_exact(&hist(ops), &SeqSpec::Counter).unwrap_err();
        assert_eq!(v.kind, ViolationKind::Uncheckable);
        assert!(v.detail.contains("64"), "{}", v.detail);
        // Exactly 63 is still decided, not refused.
        let ops: Vec<OpRecord> = (0..63)
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
        assert!(check_exact(&hist(ops), &SeqSpec::Counter).is_ok());
    }

    #[test]
    fn zero_step_same_tick_ops_do_not_poison_the_exact_checker() {
        // Regression: two zero-step operations invoked at the same tick
        // used to be recorded with response == invoke, so each preceded
        // the other — a cycle in `check_exact`'s must-before relation
        // and a spurious NoLinearization. Completion now consumes a
        // tick, so the executor's history linearizes trivially.
        use crate::exec::{Executor, OpSpec, WorkloadBuilder};
        use crate::{Machine, Memory, RoundRobin};

        let mut mem = Memory::new();
        let _ = mem.alloc(0);
        let mut w = WorkloadBuilder::new(2);
        for i in 0..2 {
            w.op(
                ProcessId(i),
                OpSpec::update(OpDesc::WriteMax(0), || Machine::completed(0)),
            );
        }
        let outcome = Executor::new().run(&mut mem, w, &mut RoundRobin::new());
        assert!(outcome.all_done);
        let h = &outcome.history;
        for o in h.ops() {
            assert!(
                o.response.unwrap() > o.invoke,
                "zero-width interval recorded: {o:?}"
            );
        }
        assert!(
            linearizable(h, &SeqSpec::MaxRegister { initial: 0 }),
            "spurious violation on same-tick zero-step ops"
        );
    }

    #[test]
    fn k_envelope_accepts_bounded_underestimates_only() {
        // Two sequential increments, then a read: exact value is 2.
        // k=2 admits 1 (2 ≤ 2·1) but not 0; overestimates never pass.
        let h = |seen: Word| {
            hist(vec![
                op(0, OpDesc::CounterIncrement, 0, 1, OpOutput::Unit),
                op(0, OpDesc::CounterIncrement, 2, 3, OpOutput::Unit),
                op(1, OpDesc::CounterRead, 4, 5, OpOutput::Value(seen)),
            ])
        };
        for (seen, k, ok) in [
            (2, 1, true),
            (1, 1, false),
            (1, 2, true),
            (0, 2, false),
            (3, 2, false), // overestimate: never allowed
            (1, 3, true),
        ] {
            assert_eq!(
                verdict_k(&h(seen), &SeqSpec::Counter, k),
                ok,
                "seen={seen} k={k}"
            );
        }
    }

    #[test]
    fn k_envelope_boundary_is_exact_factor_k() {
        // True max is 9; k=3 admits exactly v ∈ {3, …, 9} (3·3 = 9 on
        // the boundary), rejects 2 (2·3 = 6 < 9).
        let h = |seen: Word| {
            hist(vec![
                op(0, OpDesc::WriteMax(9), 0, 1, OpOutput::Unit),
                op(1, OpDesc::ReadMax, 2, 3, OpOutput::Value(seen)),
            ])
        };
        for (seen, ok) in [(9, true), (3, true), (2, false), (10, false)] {
            assert_eq!(verdict_k(&h(seen), &MAX_SPEC, 3), ok, "seen={seen}");
        }
    }

    #[test]
    fn k_relaxed_reads_may_be_non_monotone_within_the_envelope() {
        // 4 completed increments plus 8 pending ones give every read the
        // feasible interval [4, 12]. A read of 12 followed by one of 6
        // is legal at k=2 (6·2 = 12) even though the observed values
        // decrease; a second read of 5 is not (5·2 = 10 < 12).
        let h = |second: Word| {
            let completed: Vec<OpRecord> = (0..4)
                .map(|j| {
                    op(
                        0,
                        OpDesc::CounterIncrement,
                        2 * j,
                        2 * j + 1,
                        OpOutput::Unit,
                    )
                })
                .collect();
            let mut hh = hist(completed);
            for j in 0..8 {
                hh.push(pending(0, OpDesc::CounterIncrement, 10 + j));
            }
            hh.push(op(1, OpDesc::CounterRead, 20, 21, OpOutput::Value(12)));
            hh.push(op(2, OpDesc::CounterRead, 22, 23, OpOutput::Value(second)));
            hh
        };
        assert!(verdict_k(&h(6), &SeqSpec::Counter, 2));
        assert!(!verdict_k(&h(5), &SeqSpec::Counter, 2));
        // At k=1 the decrease is already fatal.
        assert!(!verdict_k(&h(6), &SeqSpec::Counter, 1));
    }

    #[test]
    fn k_maxreg_bucket_floors_are_accepted_without_being_written() {
        // The approximate register returns bucket floors (powers of k)
        // that were never operands of any write: 8 against a write of 13
        // at k=2 (8 ≤ 13 ≤ 16) must pass.
        let h = hist(vec![
            op(0, OpDesc::WriteMax(13), 0, 1, OpOutput::Unit),
            op(1, OpDesc::ReadMax, 2, 3, OpOutput::Value(8)),
        ]);
        assert!(verdict_k(&h, &MAX_SPEC, 2));
        // …but 8 with nothing in [8, 16] ever written is still invented.
        let unwritten = hist(vec![
            op(0, OpDesc::WriteMax(7), 0, 1, OpOutput::Unit),
            op(1, OpDesc::ReadMax, 2, 3, OpOutput::Value(8)),
        ]);
        assert!(!verdict_k(&unwritten, &MAX_SPEC, 2));
    }

    #[test]
    fn k_negative_floor_values_still_compare_exactly() {
        // A fresh register's -1 floor is not subject to multiplicative
        // slack: reading -1 after a completed write is stale at every k.
        let h = hist(vec![
            op(0, OpDesc::WriteMax(5), 0, 1, OpOutput::Unit),
            op(1, OpDesc::ReadMax, 2, 3, OpOutput::Value(-1)),
        ]);
        for k in [1, 2, 8] {
            assert!(!verdict_k(&h, &MAX_SPEC, k), "k={k}");
        }
    }

    #[test]
    fn k_snapshot_vectors_never_relax() {
        // No k-relaxed snapshot exists: vector outputs compare exactly
        // at every k.
        let h = hist(vec![
            op(0, OpDesc::Update(4), 0, 1, OpOutput::Unit),
            op(2, OpDesc::Scan, 2, 3, OpOutput::Vector(vec![2, 0])),
        ]);
        for k in [1, 2] {
            assert!(!verdict_k(&h, &SNAP_SPEC, k), "k={k}");
        }
    }

    #[test]
    fn violation_display_is_informative() {
        let h = hist(vec![
            op(0, OpDesc::WriteMax(5), 0, 1, OpOutput::Unit),
            op(1, OpDesc::ReadMax, 2, 3, OpOutput::Value(0)),
        ]);
        let v = check_interval(&h, &SeqSpec::MaxRegister { initial: 0 }).unwrap_err();
        let text = v.to_string();
        for part in [
            "NoLinearization",
            "covers 1 of them",
            "op#1 ReadMax by p1 [2, 3] returned 0, the spec needed 5",
        ] {
            assert!(text.contains(part), "{part:?} missing from: {text}");
        }
    }
}
