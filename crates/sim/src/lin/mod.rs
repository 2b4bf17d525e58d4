//! Linearizability checking.
//!
//! Three layers:
//!
//! * [`check_exact`] — a complete Wing–Gong-style search over a `u64`
//!   bitmask of linearized operations. Decides linearizability exactly
//!   but refuses histories over 63 operations; it is the differential
//!   oracle for the interval checker and the fast checkers below.
//! * [`check_interval`] — the same complete search over a chain
//!   decomposition of the interval order (see [`wgl`] for the
//!   construction), with no cap on history length: histories of tens of
//!   thousands of operations, including pending operations left by
//!   crashes, are *decided* rather than refused.
//! * [`check_max_register`], [`check_counter`], [`check_snapshot`] —
//!   fast, *sound* checkers built on interval conditions specific to each
//!   object family. Sound means every reported [`Violation`] is a real
//!   linearizability violation; they may in principle accept a
//!   pathological non-linearizable history, so the property-test suite
//!   cross-validates them against [`check_exact`] on small histories.
//!
//! Every checker except the snapshot one also comes as a `_k` variant
//! ([`check_exact_k`], [`check_interval_k`], [`check_max_register_k`],
//! [`check_counter_k`]) deciding *linearizability up to a
//! k-multiplicative accuracy factor* (ISSUE 9): a scalar read may
//! underestimate the spec value by at most the factor `k` and may never
//! overestimate it — the contract of the HKM approximate objects in
//! `ruo-core`. The plain names are thin wrappers over the `_k` variants
//! at `k = 1`, which reduces bit-for-bit to the exact verdicts.
//!
//! All checkers take the executor's [`History`]: operation intervals in
//! global event ticks, where operation `a` precedes `b` iff
//! `a.response <= b.invoke`.

use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;

use crate::history::{History, OpDesc, OpOutput, OpRecord};
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
    /// A read returned a value smaller than one it was required to see.
    StaleRead,
    /// A read returned a value that no operation ever wrote.
    UnwrittenValue,
    /// Two non-overlapping reads returned values in the wrong order.
    NonMonotone,
    /// A counter read fell outside its feasible interval.
    CountOutOfRange,
    /// Two scans returned vectors that no single linearization can order.
    IncomparableScans,
    /// The exhaustive search found no legal linearization.
    NoLinearization,
    /// The history violates a checker precondition (e.g. duplicate
    /// per-process update values for the snapshot checker).
    BadWorkload,
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

fn fmt_op(i: usize, op: &OpRecord) -> String {
    format!(
        "op#{i} {} by {} [{}, {}]",
        op.desc,
        op.pid,
        op.invoke,
        op.response
            .map(|r| r.to_string())
            .unwrap_or_else(|| "pending".into())
    )
}

/// Running maxima over events sorted by completion tick: answers "among
/// entries with `response <= t`, what is the largest value (and which
/// op held it)?" in `O(log n)` after an `O(n log n)` build. The fast
/// checkers use it to replace their quadratic all-pairs scans, since
/// DPOR-scaled explorations hand them far more histories.
struct PrefixMax {
    /// `(response, best_value_so_far, op index holding it)`, sorted by
    /// response.
    entries: Vec<(usize, Word, usize)>,
}

impl PrefixMax {
    /// Builds from `(op index, response tick, value)` triples.
    fn new(mut items: Vec<(usize, usize, Word)>) -> Self {
        items.sort_by_key(|&(_, resp, _)| resp);
        let mut entries = Vec::with_capacity(items.len());
        let mut best: Option<(Word, usize)> = None;
        for (i, resp, v) in items {
            let (bv, bi) = match best {
                Some((bv, bi)) if bv >= v => (bv, bi),
                _ => (v, i),
            };
            best = Some((bv, bi));
            entries.push((resp, bv, bi));
        }
        PrefixMax { entries }
    }

    /// Largest value among entries with `response <= t`, with the
    /// holder's op index.
    fn up_to(&self, t: usize) -> Option<(Word, usize)> {
        let k = self.entries.partition_point(|&(resp, _, _)| resp <= t);
        (k > 0).then(|| {
            let (_, v, i) = self.entries[k - 1];
            (v, i)
        })
    }
}

/// Fast sound checker for max-register histories.
///
/// Verifies, for every completed `ReadMax` returning `v`:
///
/// 1. `v` is `initial` or was the operand of some `WriteMax(v)` invoked
///    before the read responded (no value materializes from nowhere);
/// 2. `v` is at least the operand of every `WriteMax` that completed
///    before the read was invoked (reads do not miss completed writes);
/// 3. non-overlapping reads return non-decreasing values (the register
///    is monotone).
///
/// Pending operations follow the standard completion rule: a pending
/// `WriteMax` (e.g. left behind by a crash) counts as *invoked* for
/// condition 1 — it may have taken effect, so reads may see its value —
/// but never as *completed* for condition 2, so no read is required to
/// see it. Pending reads returned nothing and are ignored.
///
/// # Errors
///
/// Returns the first violated condition.
pub fn check_max_register(history: &History, initial: Word) -> Result<(), Violation> {
    check_max_register_k(history, initial, 1)
}

/// [`check_max_register`] generalized to k-multiplicative accuracy
/// (ISSUE 9): a read returning `v` is allowed to underestimate the true
/// maximum `M` by at most the factor `k` (`v ≤ M ≤ k·v`, for
/// non-negative values). The three conditions relax accordingly:
///
/// 1. some value that could be the true maximum lies in the read's
///    envelope `[v, k·v]` — a `WriteMax` operand invoked before the
///    read's response, or `initial` itself;
/// 2. `k·v` is at least the operand of every `WriteMax` that completed
///    before the read was invoked;
/// 3. for non-overlapping reads returning `v1` then `v2`: `v1 ≤ k·v2`
///    (the underlying maxima are monotone even when the observed values
///    are not).
///
/// Negative observed values (the `initial` floor of a fresh register)
/// compare exactly — multiplicative error is meaningless below zero —
/// and `k = 1` reduces bit-for-bit to [`check_max_register`]. Still
/// *sound*: every reported violation is a real k-linearizability
/// violation.
///
/// # Panics
///
/// Panics if `k == 0`.
///
/// # Errors
///
/// Returns the first violated condition.
pub fn check_max_register_k(history: &History, initial: Word, k: u64) -> Result<(), Violation> {
    assert!(k >= 1, "accuracy factor k must be >= 1");
    let ops = history.ops();
    let reads: Vec<(usize, &OpRecord, Word)> = ops
        .iter()
        .enumerate()
        .filter(|(_, o)| o.desc == OpDesc::ReadMax && o.is_complete())
        .map(|(i, o)| {
            let v = o
                .output
                .as_ref()
                .and_then(|out| out.value())
                .expect("completed ReadMax has a value");
            (i, o, v)
        })
        .collect();

    // Single-pass indexes over the writes (the old all-pairs scans were
    // O(ops²) per history):
    // * earliest invocation tick per written value, for condition 1;
    // * prefix maxima of completed writes by response tick, for
    //   condition 2.
    let mut first_invoke: HashMap<Word, usize> = HashMap::new();
    let mut completed_writes: Vec<(usize, usize, Word)> = Vec::new();
    for (j, o) in ops.iter().enumerate() {
        if let OpDesc::WriteMax(wv) = o.desc {
            let slot = first_invoke.entry(wv).or_insert(o.invoke);
            *slot = (*slot).min(o.invoke);
            if let Some(r) = o.response {
                completed_writes.push((j, r, wv));
            }
        }
    }
    let write_max_before = PrefixMax::new(completed_writes);

    // Relaxed condition 1 needs a range query per read ("is any written
    // value inside [v, k·v] invoked before my response?"). An offline
    // sweep in response order over a BTreeSet of invoked operands keeps
    // it O((reads + writes) · log writes) instead of a value scan per
    // read.
    let mut envelope_witness: Vec<bool> = vec![false; reads.len()];
    if k > 1 {
        let mut writes_by_invoke: Vec<(usize, Word)> = ops
            .iter()
            .filter_map(|o| match o.desc {
                OpDesc::WriteMax(wv) => Some((o.invoke, wv)),
                _ => None,
            })
            .collect();
        writes_by_invoke.sort_unstable();
        let mut order: Vec<usize> = (0..reads.len()).collect();
        order.sort_by_key(|&ri| reads[ri].1.response.unwrap());
        let mut invoked: std::collections::BTreeSet<Word> = std::collections::BTreeSet::new();
        let mut wi = 0;
        for ri in order {
            let (_, read, v) = reads[ri];
            let resp = read.response.unwrap();
            while wi < writes_by_invoke.len() && writes_by_invoke[wi].0 < resp {
                invoked.insert(writes_by_invoke[wi].1);
                wi += 1;
            }
            if v >= 0 {
                let hi = ((v as i128) * (k as i128)).min(Word::MAX as i128) as Word;
                envelope_witness[ri] = invoked.range(v..=hi).next().is_some();
            }
        }
    }

    for (ri, &(i, read, v)) in reads.iter().enumerate() {
        // Condition 1: something inside the envelope was actually
        // written (or is the floor).
        if k <= 1 || v < 0 {
            if v != initial {
                let written = first_invoke
                    .get(&v)
                    .is_some_and(|&inv| inv < read.response.unwrap());
                if !written {
                    return Err(Violation::new(
                        ViolationKind::UnwrittenValue,
                        format!(
                            "{} returned {v}, never written before its response",
                            fmt_op(i, read)
                        ),
                    ));
                }
            }
        } else {
            let hi = (v as i128) * (k as i128);
            let initial_in_envelope = initial >= v && (initial as i128) <= hi;
            if !initial_in_envelope && !envelope_witness[ri] {
                return Err(Violation::new(
                    ViolationKind::UnwrittenValue,
                    format!(
                        "{} returned {v}, but nothing written before its response \
                         lies in its k={k} envelope [{v}, {hi}]",
                        fmt_op(i, read)
                    ),
                ));
            }
        }
        // Condition 2: no completed preceding write is missed (beyond
        // the allowed factor-k underestimate).
        if let Some((wv, j)) = write_max_before.up_to(read.invoke) {
            let missed = if k <= 1 || v < 0 {
                wv > v
            } else {
                (wv as i128) > (v as i128) * (k as i128)
            };
            if missed {
                let note = if k > 1 {
                    format!(" (outside the k={k} envelope)")
                } else {
                    String::new()
                };
                return Err(Violation::new(
                    ViolationKind::StaleRead,
                    format!(
                        "{} returned {v} but {} completed before it{note}",
                        fmt_op(i, read),
                        fmt_op(j, &ops[j])
                    ),
                ));
            }
        }
    }
    // Condition 3: monotone across non-overlapping reads (prefix maxima
    // again: a read conflicts iff some read completing no later than its
    // invocation returned a value larger than k times its own).
    let read_max_before = PrefixMax::new(
        reads
            .iter()
            .map(|&(i, r, v)| (i, r.response.unwrap(), v))
            .collect(),
    );
    for &(i2, r2, v2) in &reads {
        if let Some((v1, i1)) = read_max_before.up_to(r2.invoke) {
            let non_monotone = if k <= 1 || v2 < 0 {
                v1 > v2
            } else {
                (v1 as i128) > (v2 as i128) * (k as i128)
            };
            if non_monotone {
                let note = if k > 1 {
                    format!(" (below the k={k} envelope)")
                } else {
                    String::new()
                };
                return Err(Violation::new(
                    ViolationKind::NonMonotone,
                    format!(
                        "{} returned {v1} but later {} returned {v2}{note}",
                        fmt_op(i1, &ops[i1]),
                        fmt_op(i2, r2)
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// Fast sound checker for counter histories.
///
/// Verifies, for every completed `CounterRead` returning `c`:
///
/// 1. `c` is at least the number of `CounterIncrement`s that completed
///    before the read was invoked;
/// 2. `c` is at most the number of `CounterIncrement`s invoked before the
///    read responded;
/// 3. non-overlapping reads return non-decreasing counts.
///
/// Pending operations follow the completion rule: a pending
/// `CounterIncrement` widens the feasible interval's upper bound
/// (condition 2: it *may* have taken effect) but never the lower bound
/// (condition 1: no read is required to see it). Pending reads are
/// ignored.
///
/// # Errors
///
/// Returns the first violated condition.
pub fn check_counter(history: &History) -> Result<(), Violation> {
    check_counter_k(history, 1)
}

/// [`check_counter`] generalized to k-multiplicative accuracy (ISSUE 9):
/// a read returning `c` is allowed to underestimate the true count `C`
/// by at most the factor `k` (`c ≤ C ≤ k·c`). The conditions relax to:
///
/// 1. `k·c` is at least the number of `CounterIncrement`s completed
///    before the read was invoked (a factor-k underestimate is allowed);
/// 2. `c` is at most the number invoked before the read responded (an
///    overestimate never is);
/// 3. for non-overlapping reads returning `c1` then `c2`: `c1 ≤ k·c2`
///    (true counts are monotone; observed values at `k > 1` need not
///    be).
///
/// `k = 1` reduces bit-for-bit to [`check_counter`]. Still *sound*:
/// every reported violation is a real k-linearizability violation.
///
/// # Panics
///
/// Panics if `k == 0`.
///
/// # Errors
///
/// Returns the first violated condition.
pub fn check_counter_k(history: &History, k: u64) -> Result<(), Violation> {
    assert!(k >= 1, "accuracy factor k must be >= 1");
    let ops = history.ops();
    let reads: Vec<(usize, &OpRecord, Word)> = ops
        .iter()
        .enumerate()
        .filter(|(_, o)| o.desc == OpDesc::CounterRead && o.is_complete())
        .map(|(i, o)| {
            let v = o
                .output
                .as_ref()
                .and_then(|out| out.value())
                .expect("completed CounterRead has a value");
            (i, o, v)
        })
        .collect();

    // Single-pass: sorted completion/invocation ticks of the increments
    // turn each read's feasible interval into two binary searches
    // (instead of an O(ops) scan per read).
    let mut inc_responses: Vec<usize> = Vec::new();
    let mut inc_invokes: Vec<usize> = Vec::new();
    for o in ops {
        if o.desc == OpDesc::CounterIncrement {
            inc_invokes.push(o.invoke);
            if let Some(r) = o.response {
                inc_responses.push(r);
            }
        }
    }
    inc_responses.sort_unstable();
    inc_invokes.sort_unstable();

    for &(i, read, c) in &reads {
        let completed_before = inc_responses.partition_point(|&r| r <= read.invoke) as Word;
        let invoked_before =
            inc_invokes.partition_point(|&inv| inv < read.response.unwrap()) as Word;
        let out_of_range = if k <= 1 || c < 0 {
            c < completed_before || c > invoked_before
        } else {
            // k·c must reach the completed floor; c itself may never
            // exceed the invoked ceiling (no overestimates).
            c > invoked_before || (c as i128) * (k as i128) < completed_before as i128
        };
        if out_of_range {
            let envelope = if k > 1 {
                format!(" under accuracy factor k={k}")
            } else {
                String::new()
            };
            return Err(Violation::new(
                ViolationKind::CountOutOfRange,
                format!(
                    "{} returned {c}, feasible interval is \
                     [{completed_before}, {invoked_before}]{envelope}",
                    fmt_op(i, read)
                ),
            ));
        }
    }
    let read_max_before = PrefixMax::new(
        reads
            .iter()
            .map(|&(i, r, c)| (i, r.response.unwrap(), c))
            .collect(),
    );
    for &(i2, r2, c2) in &reads {
        if let Some((c1, i1)) = read_max_before.up_to(r2.invoke) {
            let non_monotone = if k <= 1 || c2 < 0 {
                c1 > c2
            } else {
                (c1 as i128) > (c2 as i128) * (k as i128)
            };
            if non_monotone {
                let note = if k > 1 {
                    format!(" (below the k={k} envelope)")
                } else {
                    String::new()
                };
                return Err(Violation::new(
                    ViolationKind::NonMonotone,
                    format!(
                        "{} returned {c1} but later {} returned {c2}{note}",
                        fmt_op(i1, &ops[i1]),
                        fmt_op(i2, r2)
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// Fast sound checker for single-writer snapshot histories.
///
/// Preconditions on the workload (checked, reported as
/// [`ViolationKind::BadWorkload`]): each process's `Update` operands are
/// pairwise distinct and distinct from `initial`, so a scanned segment
/// value identifies a unique position in that process's update sequence.
///
/// Verifies, for every completed `Scan` returning `vec`:
///
/// 1. every `vec[i]` is `initial` or an operand of some `Update` by
///    process `i` invoked before the scan responded;
/// 2. `vec[i]` is not older (in process `i`'s update order) than the last
///    update by `i` that completed before the scan was invoked;
/// 3. all scan vectors are coordinatewise comparable (scans are totally
///    ordered), and non-overlapping scans respect that order.
///
/// Pending operations follow the completion rule: a pending `Update`
/// participates in its process's update sequence (condition 1: scans may
/// see its value) but, never having responded, precedes no scan
/// (condition 2: no scan is required to see it). Pending scans are
/// ignored.
///
/// # Errors
///
/// Returns the first violated condition.
pub fn check_snapshot(history: &History, n: usize, initial: Word) -> Result<(), Violation> {
    let ops = history.ops();

    // Per-process update sequences; value -> 1-based index therein.
    let mut seqs: Vec<Vec<(usize, &OpRecord, Word)>> = vec![Vec::new(); n];
    for (i, o) in ops.iter().enumerate() {
        if let OpDesc::Update(v) = o.desc {
            if o.pid.index() >= n {
                return Err(Violation::new(
                    ViolationKind::BadWorkload,
                    format!("{} updates segment out of range", fmt_op(i, o)),
                ));
            }
            let seq = &mut seqs[o.pid.index()];
            if v == initial || seq.iter().any(|&(_, _, prev)| prev == v) {
                return Err(Violation::new(
                    ViolationKind::BadWorkload,
                    format!(
                        "{} reuses value {v}; checker needs distinct operands",
                        fmt_op(i, o)
                    ),
                ));
            }
            seq.push((i, o, v));
        }
    }
    let pos_of = |seg: usize, v: Word| -> Option<usize> {
        if v == initial {
            return Some(0);
        }
        seqs[seg]
            .iter()
            .position(|&(_, _, sv)| sv == v)
            .map(|p| p + 1)
    };

    let scans: Vec<(usize, &OpRecord, &[Word])> = ops
        .iter()
        .enumerate()
        .filter(|(_, o)| o.desc == OpDesc::Scan && o.is_complete())
        .map(|(i, o)| {
            let v = o
                .output
                .as_ref()
                .and_then(|out| out.vector())
                .expect("completed Scan has a vector");
            (i, o, v)
        })
        .collect();

    let mut scan_positions: Vec<(usize, &OpRecord, Vec<usize>)> = Vec::new();
    for &(i, scan, vec) in &scans {
        if vec.len() != n {
            return Err(Violation::new(
                ViolationKind::BadWorkload,
                format!(
                    "{} returned {} segments, expected {n}",
                    fmt_op(i, scan),
                    vec.len()
                ),
            ));
        }
        let mut positions = Vec::with_capacity(n);
        for (seg, &v) in vec.iter().enumerate() {
            // Condition 1: value exists and was invoked before the response.
            let pos = match pos_of(seg, v) {
                Some(p) => p,
                None => {
                    return Err(Violation::new(
                        ViolationKind::UnwrittenValue,
                        format!(
                            "{} saw {v} in segment {seg}, never written",
                            fmt_op(i, scan)
                        ),
                    ))
                }
            };
            if pos > 0 {
                let (ui, upd, _) = seqs[seg][pos - 1];
                if upd.invoke >= scan.response.unwrap() {
                    return Err(Violation::new(
                        ViolationKind::UnwrittenValue,
                        format!(
                            "{} saw {v} in segment {seg}, but {} was invoked after the scan responded",
                            fmt_op(i, scan),
                            fmt_op(ui, upd)
                        ),
                    ));
                }
            }
            // Condition 2: not older than the last preceding completed update.
            let last_completed = seqs[seg]
                .iter()
                .enumerate()
                .filter(|(_, (_, upd, _))| upd.precedes(scan))
                .map(|(k, _)| k + 1)
                .max()
                .unwrap_or(0);
            if pos < last_completed {
                let (ui, upd, _) = seqs[seg][last_completed - 1];
                return Err(Violation::new(
                    ViolationKind::StaleRead,
                    format!(
                        "{} saw position {pos} of segment {seg}, but {} completed before it",
                        fmt_op(i, scan),
                        fmt_op(ui, upd)
                    ),
                ));
            }
            positions.push(pos);
        }
        scan_positions.push((i, scan, positions));
    }

    // Condition 3: total order on scans.
    for a in 0..scan_positions.len() {
        for b in (a + 1)..scan_positions.len() {
            let (ia, sa, pa) = &scan_positions[a];
            let (ib, sb, pb) = &scan_positions[b];
            let a_le_b = pa.iter().zip(pb).all(|(x, y)| x <= y);
            let b_le_a = pb.iter().zip(pa).all(|(x, y)| x <= y);
            if !a_le_b && !b_le_a {
                return Err(Violation::new(
                    ViolationKind::IncomparableScans,
                    format!(
                        "{} and {} are incomparable",
                        fmt_op(*ia, sa),
                        fmt_op(*ib, sb)
                    ),
                ));
            }
            if sa.precedes(sb) && !a_le_b {
                return Err(Violation::new(
                    ViolationKind::NonMonotone,
                    format!(
                        "{} precedes {} but saw newer values",
                        fmt_op(*ia, sa),
                        fmt_op(*ib, sb)
                    ),
                ));
            }
            if sb.precedes(sa) && !b_le_a {
                return Err(Violation::new(
                    ViolationKind::NonMonotone,
                    format!(
                        "{} precedes {} but saw newer values",
                        fmt_op(*ib, sb),
                        fmt_op(*ia, sa)
                    ),
                ));
            }
        }
    }
    Ok(())
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

    fn hist(ops: Vec<OpRecord>) -> History {
        let mut sorted = ops;
        sorted.sort_by_key(|o| o.invoke);
        sorted.into_iter().collect()
    }

    const MAX_SPEC: SeqSpec = SeqSpec::MaxRegister { initial: -1 };

    #[test]
    fn sequential_max_register_history_is_linearizable() {
        let h = hist(vec![
            op(0, OpDesc::WriteMax(5), 0, 1, OpOutput::Unit),
            op(1, OpDesc::ReadMax, 2, 3, OpOutput::Value(5)),
        ]);
        assert!(check_exact(&h, &MAX_SPEC).is_ok());
        assert!(check_max_register(&h, -1).is_ok());
    }

    #[test]
    fn stale_read_is_rejected_by_both_checkers() {
        let h = hist(vec![
            op(0, OpDesc::WriteMax(5), 0, 1, OpOutput::Unit),
            op(1, OpDesc::ReadMax, 2, 3, OpOutput::Value(-1)),
        ]);
        assert!(check_exact(&h, &MAX_SPEC).is_err());
        let v = check_max_register(&h, -1).unwrap_err();
        assert_eq!(v.kind, ViolationKind::StaleRead);
    }

    #[test]
    fn concurrent_write_may_or_may_not_be_seen() {
        // Write overlaps read: both outcomes linearizable.
        for seen in [-1, 5] {
            let h = hist(vec![
                op(0, OpDesc::WriteMax(5), 0, 4, OpOutput::Unit),
                op(1, OpDesc::ReadMax, 1, 3, OpOutput::Value(seen)),
            ]);
            assert!(check_exact(&h, &MAX_SPEC).is_ok(), "seen={seen}");
            assert!(check_max_register(&h, -1).is_ok(), "seen={seen}");
        }
    }

    #[test]
    fn unwritten_value_is_rejected() {
        let h = hist(vec![op(1, OpDesc::ReadMax, 0, 1, OpOutput::Value(9))]);
        assert!(check_exact(&h, &MAX_SPEC).is_err());
        let v = check_max_register(&h, -1).unwrap_err();
        assert_eq!(v.kind, ViolationKind::UnwrittenValue);
    }

    #[test]
    fn non_monotone_reads_are_rejected() {
        let h = hist(vec![
            op(0, OpDesc::WriteMax(5), 0, 10, OpOutput::Unit),
            op(1, OpDesc::ReadMax, 1, 2, OpOutput::Value(5)),
            op(2, OpDesc::ReadMax, 3, 4, OpOutput::Value(-1)),
        ]);
        assert!(check_exact(&h, &MAX_SPEC).is_err());
        let v = check_max_register(&h, -1).unwrap_err();
        assert_eq!(v.kind, ViolationKind::NonMonotone);
    }

    #[test]
    fn counter_interval_conditions() {
        // inc [0,1]; read [2,3] must return exactly 1.
        let ok = hist(vec![
            op(0, OpDesc::CounterIncrement, 0, 1, OpOutput::Unit),
            op(1, OpDesc::CounterRead, 2, 3, OpOutput::Value(1)),
        ]);
        assert!(check_counter(&ok).is_ok());
        assert!(check_exact(&ok, &SeqSpec::Counter).is_ok());

        let missed = hist(vec![
            op(0, OpDesc::CounterIncrement, 0, 1, OpOutput::Unit),
            op(1, OpDesc::CounterRead, 2, 3, OpOutput::Value(0)),
        ]);
        assert_eq!(
            check_counter(&missed).unwrap_err().kind,
            ViolationKind::CountOutOfRange
        );
        assert!(check_exact(&missed, &SeqSpec::Counter).is_err());

        let overcount = hist(vec![
            op(0, OpDesc::CounterIncrement, 0, 1, OpOutput::Unit),
            op(1, OpDesc::CounterRead, 2, 3, OpOutput::Value(2)),
        ]);
        assert_eq!(
            check_counter(&overcount).unwrap_err().kind,
            ViolationKind::CountOutOfRange
        );
        assert!(check_exact(&overcount, &SeqSpec::Counter).is_err());
    }

    #[test]
    fn concurrent_increment_gives_slack() {
        let h = hist(vec![
            op(0, OpDesc::CounterIncrement, 0, 10, OpOutput::Unit),
            op(1, OpDesc::CounterRead, 1, 2, OpOutput::Value(1)),
        ]);
        assert!(check_counter(&h).is_ok());
        assert!(check_exact(&h, &SeqSpec::Counter).is_ok());
    }

    #[test]
    fn counter_reads_must_be_monotone() {
        let h = hist(vec![
            op(0, OpDesc::CounterIncrement, 0, 20, OpOutput::Unit),
            op(1, OpDesc::CounterRead, 1, 2, OpOutput::Value(1)),
            op(2, OpDesc::CounterRead, 3, 4, OpOutput::Value(0)),
        ]);
        assert_eq!(
            check_counter(&h).unwrap_err().kind,
            ViolationKind::NonMonotone
        );
        assert!(check_exact(&h, &SeqSpec::Counter).is_err());
    }

    #[test]
    fn snapshot_consistent_scans_pass() {
        let h = hist(vec![
            op(0, OpDesc::Update(1), 0, 1, OpOutput::Unit),
            op(1, OpDesc::Update(2), 2, 3, OpOutput::Unit),
            op(2, OpDesc::Scan, 4, 5, OpOutput::Vector(vec![1, 2])),
        ]);
        assert!(check_snapshot(&h, 2, 0).is_ok());
        assert!(check_exact(&h, &SeqSpec::Snapshot { n: 2, initial: 0 }).is_ok());
    }

    #[test]
    fn snapshot_missed_update_fails() {
        let h = hist(vec![
            op(0, OpDesc::Update(1), 0, 1, OpOutput::Unit),
            op(2, OpDesc::Scan, 2, 3, OpOutput::Vector(vec![0, 0])),
        ]);
        assert_eq!(
            check_snapshot(&h, 2, 0).unwrap_err().kind,
            ViolationKind::StaleRead
        );
        assert!(check_exact(&h, &SeqSpec::Snapshot { n: 2, initial: 0 }).is_err());
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
        let v = check_snapshot(&h, 2, 0).unwrap_err();
        assert!(
            v.kind == ViolationKind::IncomparableScans || v.kind == ViolationKind::NonMonotone,
            "{v}"
        );
        assert!(check_exact(&h, &SeqSpec::Snapshot { n: 2, initial: 0 }).is_err());
    }

    #[test]
    fn snapshot_checker_rejects_duplicate_values() {
        let h = hist(vec![
            op(0, OpDesc::Update(1), 0, 1, OpOutput::Unit),
            op(0, OpDesc::Update(1), 2, 3, OpOutput::Unit),
        ]);
        assert_eq!(
            check_snapshot(&h, 2, 0).unwrap_err().kind,
            ViolationKind::BadWorkload
        );
    }

    #[test]
    fn pending_write_may_linearize_or_not() {
        // A pending WriteMax(7) may or may not take effect; reads seeing
        // either value are fine, but monotonicity still applies.
        let pending = OpRecord {
            pid: ProcessId(0),
            desc: OpDesc::WriteMax(7),
            invoke: 0,
            response: None,
            output: None,
            steps: 1,
        };
        for seen in [-1, 7] {
            let mut h = History::new();
            h.push(pending.clone());
            h.push(op(1, OpDesc::ReadMax, 1, 2, OpOutput::Value(seen)));
            assert!(check_exact(&h, &MAX_SPEC).is_ok(), "seen={seen}");
            assert!(check_max_register(&h, -1).is_ok(), "seen={seen}");
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

    #[test]
    fn pending_increment_may_linearize_or_not() {
        // A crash left an increment pending: reads seeing 0 or 1 are both
        // fine (completion rule), 2 is not.
        for (seen, ok) in [(0, true), (1, true), (2, false)] {
            let mut h = History::new();
            h.push(pending(0, OpDesc::CounterIncrement, 0));
            h.push(op(1, OpDesc::CounterRead, 1, 2, OpOutput::Value(seen)));
            assert_eq!(
                check_exact(&h, &SeqSpec::Counter).is_ok(),
                ok,
                "seen={seen}"
            );
            assert_eq!(check_counter(&h).is_ok(), ok, "seen={seen}");
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
        assert!(check_exact(&h, &SeqSpec::Counter).is_err());
        assert_eq!(
            check_counter(&h).unwrap_err().kind,
            ViolationKind::CountOutOfRange
        );
    }

    #[test]
    fn pending_snapshot_update_may_linearize_or_not() {
        // p0's Update(1) is pending when p2 scans: segment 0 may read 0
        // or 1, but a value never written anywhere stays illegal.
        for (seen, ok) in [(0, true), (1, true), (9, false)] {
            let mut h = History::new();
            h.push(pending(0, OpDesc::Update(1), 0));
            h.push(op(2, OpDesc::Scan, 1, 2, OpOutput::Vector(vec![seen, 0])));
            let spec = SeqSpec::Snapshot { n: 2, initial: 0 };
            assert_eq!(check_exact(&h, &spec).is_ok(), ok, "seen={seen}");
            assert_eq!(check_snapshot(&h, 2, 0).is_ok(), ok, "seen={seen}");
        }
    }

    #[test]
    fn pending_reads_are_ignored_by_every_checker() {
        // Crashed readers returned nothing; they impose no constraint.
        let mut h = History::new();
        h.push(op(0, OpDesc::WriteMax(5), 0, 1, OpOutput::Unit));
        h.push(pending(1, OpDesc::ReadMax, 2));
        assert!(check_exact(&h, &MAX_SPEC).is_ok());
        assert!(check_max_register(&h, -1).is_ok());

        let mut h = History::new();
        h.push(op(0, OpDesc::CounterIncrement, 0, 1, OpOutput::Unit));
        h.push(pending(1, OpDesc::CounterRead, 2));
        assert!(check_exact(&h, &SeqSpec::Counter).is_ok());
        assert!(check_counter(&h).is_ok());

        let mut h = History::new();
        h.push(op(0, OpDesc::Update(1), 0, 1, OpOutput::Unit));
        h.push(pending(1, OpDesc::Scan, 2));
        assert!(check_exact(&h, &SeqSpec::Snapshot { n: 2, initial: 0 }).is_ok());
        assert!(check_snapshot(&h, 2, 0).is_ok());
    }

    #[test]
    fn exact_checker_handles_interleaved_counter() {
        // Two concurrent increments and a concurrent read seeing 0, 1 or 2.
        for seen in 0..=2 {
            let h = hist(vec![
                op(0, OpDesc::CounterIncrement, 0, 5, OpOutput::Unit),
                op(1, OpDesc::CounterIncrement, 1, 6, OpOutput::Unit),
                op(2, OpDesc::CounterRead, 2, 4, OpOutput::Value(seen)),
            ]);
            assert!(check_exact(&h, &SeqSpec::Counter).is_ok(), "seen={seen}");
            assert!(check_counter(&h).is_ok(), "seen={seen}");
        }
        let h = hist(vec![
            op(0, OpDesc::CounterIncrement, 0, 5, OpOutput::Unit),
            op(1, OpDesc::CounterIncrement, 1, 6, OpOutput::Unit),
            op(2, OpDesc::CounterRead, 2, 4, OpOutput::Value(3)),
        ]);
        assert!(check_exact(&h, &SeqSpec::Counter).is_err());
        assert!(check_counter(&h).is_err());
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
        assert_eq!(
            check_snapshot(&h, 2, 0).unwrap_err().kind,
            ViolationKind::BadWorkload
        );
    }

    #[test]
    fn snapshot_checker_rejects_out_of_range_updater() {
        let h = hist(vec![op(5, OpDesc::Update(1), 0, 1, OpOutput::Unit)]);
        assert_eq!(
            check_snapshot(&h, 2, 0).unwrap_err().kind,
            ViolationKind::BadWorkload
        );
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
        assert_eq!(
            check_snapshot(&h, 2, 0).unwrap_err().kind,
            ViolationKind::UnwrittenValue
        );
    }

    #[test]
    fn snapshot_scan_of_future_update_is_rejected() {
        // Scan responds BEFORE the update is invoked, yet sees it.
        let h = hist(vec![
            op(0, OpDesc::Scan, 0, 1, OpOutput::Vector(vec![9, 0])),
            op(0, OpDesc::Update(9), 2, 3, OpOutput::Unit),
        ]);
        assert_eq!(
            check_snapshot(&h, 2, 0).unwrap_err().kind,
            ViolationKind::UnwrittenValue
        );
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
            check_exact(h, &SeqSpec::MaxRegister { initial: 0 }).is_ok(),
            "spurious violation on same-tick zero-step ops"
        );
        assert!(check_max_register(h, 0).is_ok());
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
                check_exact_k(&h(seen), &SeqSpec::Counter, k).is_ok(),
                ok,
                "exact seen={seen} k={k}"
            );
            assert_eq!(
                check_counter_k(&h(seen), k).is_ok(),
                ok,
                "fast seen={seen} k={k}"
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
            assert_eq!(
                check_exact_k(&h(seen), &MAX_SPEC, 3).is_ok(),
                ok,
                "exact seen={seen}"
            );
            assert_eq!(
                check_max_register_k(&h(seen), -1, 3).is_ok(),
                ok,
                "fast seen={seen}"
            );
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
        assert!(check_counter_k(&h(6), 2).is_ok());
        assert!(check_exact_k(&h(6), &SeqSpec::Counter, 2).is_ok());
        assert_eq!(
            check_counter_k(&h(5), 2).unwrap_err().kind,
            ViolationKind::NonMonotone
        );
        assert!(check_exact_k(&h(5), &SeqSpec::Counter, 2).is_err());
        // At k=1 the decrease is already fatal.
        assert!(check_counter_k(&h(6), 1).is_err());
        assert!(check_exact_k(&h(6), &SeqSpec::Counter, 1).is_err());
    }

    #[test]
    fn k_maxreg_bucket_floors_are_accepted_without_being_written() {
        // The approximate register returns bucket floors (powers of k)
        // that were never operands of any write: 8 against a write of 13
        // at k=2 (8 ≤ 13 ≤ 16) must pass both checkers.
        let h = hist(vec![
            op(0, OpDesc::WriteMax(13), 0, 1, OpOutput::Unit),
            op(1, OpDesc::ReadMax, 2, 3, OpOutput::Value(8)),
        ]);
        assert!(check_exact_k(&h, &MAX_SPEC, 2).is_ok());
        assert!(check_max_register_k(&h, -1, 2).is_ok());
        // …but 8 with nothing in [8, 16] ever written is still invented.
        let unwritten = hist(vec![
            op(0, OpDesc::WriteMax(7), 0, 1, OpOutput::Unit),
            op(1, OpDesc::ReadMax, 2, 3, OpOutput::Value(8)),
        ]);
        assert!(check_exact_k(&unwritten, &MAX_SPEC, 2).is_err());
        assert_eq!(
            check_max_register_k(&unwritten, -1, 2).unwrap_err().kind,
            ViolationKind::UnwrittenValue
        );
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
            assert!(check_exact_k(&h, &MAX_SPEC, k).is_err(), "k={k}");
            assert_eq!(
                check_max_register_k(&h, -1, k).unwrap_err().kind,
                ViolationKind::StaleRead,
                "k={k}"
            );
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
        let spec = SeqSpec::Snapshot { n: 2, initial: 0 };
        for k in [1, 2] {
            assert!(check_exact_k(&h, &spec, k).is_err(), "k={k}");
        }
    }

    #[test]
    fn violation_display_is_informative() {
        let h = hist(vec![
            op(0, OpDesc::WriteMax(5), 0, 1, OpOutput::Unit),
            op(1, OpDesc::ReadMax, 2, 3, OpOutput::Value(0)),
        ]);
        let v = check_max_register(&h, 0).unwrap_err();
        let text = v.to_string();
        assert!(text.contains("StaleRead"), "{text}");
        assert!(text.contains("WriteMax(5)"), "{text}");
    }
}
