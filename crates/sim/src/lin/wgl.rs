//! Interval linearizability checking at scale (Wing–Gong–Lowe style).
//!
//! [`check_interval`] decides every linearizability verdict in the
//! workspace: sim and real histories of any length, and each of the
//! explorer's schedules. [`check_exact`](super::check_exact) runs the
//! same search over a `u64` bitmask of linearized operations, so it
//! refuses histories over 63 operations; it is this checker's
//! differential oracle. Both search happens-before over
//! invocation/response intervals: an in-degree-zero frontier of
//! linearizable candidates, depth-first, with a memo of failed
//! `(linearized set, sequential-spec state)` pairs.
//!
//! # How the representation scales
//!
//! The precedence relation of a history is an **interval order**
//! (`a` precedes `b` iff `a.response <= b.invoke`). Interval orders
//! admit a minimum *chain decomposition* computed greedily: walking the
//! operations in invocation order and appending each to the chain whose
//! last response is the latest one `<= invoke` (the *best fit*)
//! partitions the history into `w` chains, where `w` is the maximum
//! number of mutually overlapping operations (for executor histories, at
//! most the process count plus crash-pending operations). A history
//! stores its operations in invocation order ([`History::push`] asserts
//! it), so the walk needs no sort, and the best fit is a scan of the `w`
//! chain tails: `O(n·w)` with no tree. (Out of order, the walk still
//! yields valid chains, only possibly more of them.) Each chain is a
//! linked list through a `next` array. Two facts make chains the right
//! search state:
//!
//! * Every set linearized by a partial search is a *down-set* of the
//!   precedence order, and a down-set is exactly a head per chain — the
//!   search state is `w` op indices, not a bitmask of length `n`.
//! * Responses strictly increase along a chain, so "all predecessors of
//!   op `i` are linearized" reduces to "no other chain's head precedes
//!   `i`" — the in-degree-zero frontier is computable from the `w`
//!   chain heads alone, in `O(w)` per node.
//!
//! # No allocation per node
//!
//! The DFS is iterative (explicit stack), so history length never
//! threatens the call stack, and a search node allocates nothing:
//!
//! * All frames' frontiers share one arena, behind the chains' `next`
//!   links in the same allocation. A frame holds where its frontier
//!   starts and a cursor into it; a child's frontier is appended behind
//!   it, and the arena is truncated when the child is popped. The
//!   frontier is built in place and insertion-sorted (reads first, then
//!   earliest response first), since `w` is small. The arena and the
//!   frame stack are sized up front, so an accepting check of a small
//!   history allocates three times in all: the arena, the chain heads
//!   and the stack.
//! * The memo keys failed states by `(chain heads, spec state)`, the
//!   direct analogue of `check_exact`'s `(bitmask, spec state)`. It is
//!   made at the first dead end, and probed only at a depth (number of
//!   ops linearized) where it holds an entry: the heads of a state fix
//!   its depth, so no other probe can hit. An accepting check of a
//!   crash-injected history meets a handful of dead ends at most, so it
//!   almost never hashes. A rejection may meet thousands, so the memo is
//!   one open-addressing table: every key has the same stride (the `w`
//!   chain heads, then the spec state's words), and the keys sit end to
//!   end in one arena. Recording a dead end allocates nothing until the
//!   arena or the slots double.
//!
//! Verdict semantics are identical to `check_exact` — the completion
//! rule for pending operations (each may linearize anywhere after its
//! invocation or be omitted), `Unit` expected outputs acting as
//! wildcards, acceptance once every *complete* operation is linearized —
//! and `crates/sim/tests/interval_vs_exact.rs` fuzzes the two checkers
//! differentially on every [`SeqSpec`].
//!
//! # The culprit
//!
//! A rejection names where the search got stuck. When a frame is popped
//! deeper than any before it, the chain heads and the spec state there
//! are copied aside (into a buffer allocated once, so the accepting path
//! pays nothing). The [`Violation`]'s detail then says how many of the
//! `n` operations that longest partial linearization covered and lists
//! each frontier op at that point: a read with the value it returned
//! and the value the spec needed there, an update as `update; every
//! continuation failed`.
//!
//! Worst-case cost is still exponential in the overlap width `w` (the
//! problem is NP-hard in general), but `w` is small for histories
//! produced by `N`-process executions, and the memo makes the common
//! linearizable case near-linear.

use std::hash::{BuildHasher, Hasher, RandomState};

use super::{output_within_k, Violation, ViolationKind};
use crate::history::{History, OpRecord};
use crate::spec::{SeqSpec, SpecState};
use crate::Word;

/// No op: past a chain's end, or the root frame's missing last step.
const NONE: u32 = u32::MAX;

/// A pending op's response: it precedes nothing and is tried last.
const NEVER: usize = usize::MAX;

/// Builds the greedy minimum chain decomposition of the interval
/// order and returns each chain's first op. The chains are linked
/// lists: on return `links[..n]` is the only content of `links`, and
/// `links[i]` is the op after `i` on its chain, or [`NONE`].
/// Consecutive ops on a chain satisfy `prev.response <= next.invoke`,
/// so responses strictly increase along it.
///
/// The walk is in stored (invocation) order, and each op joins the
/// best-fit chain: the one whose last op responded latest but no later
/// than the op's invocation, ties to the newer chain. A pending last op
/// closes its chain. While the walk runs, `links[n..]` holds each
/// chain's last op.
fn chain_decomposition(ops: &[OpRecord], links: &mut Vec<u32>) -> Vec<u32> {
    let n = ops.len();
    links.clear();
    links.resize(n, NONE);
    let mut heads = Vec::new();
    for (i, op) in (0..).zip(ops) {
        // (response, chain) of the best fit so far.
        let mut fit: Option<(usize, usize)> = None;
        for (c, &t) in links[n..].iter().enumerate() {
            if let Some(r) = ops[t as usize].response {
                if r <= op.invoke && fit.is_none_or(|(best, _)| r >= best) {
                    fit = Some((r, c));
                }
            }
        }
        match fit {
            Some((_, c)) => {
                let tail = links[n + c];
                links[tail as usize] = i;
                links[n + c] = i;
            }
            None => {
                heads.push(i);
                links.push(i);
            }
        }
    }
    links.truncate(n);
    heads
}

/// Appends to `arena` the in-degree-zero frontier at `heads` (one head
/// op per chain, [`NONE`] past its end): the chains whose head has no
/// un-linearized predecessor. Head `i` of chain `c` is enabled iff no
/// *other* chain's head precedes it, i.e. the minimum response among
/// the other heads is `> i.invoke` (pending heads never precede
/// anything). Computed with a min/second-min pass, `O(w)`.
///
/// The frontier is ordered reads first, then earliest response first
/// (pending heads last, ties by chain). A read whose output fits the
/// current state can be linearized at once without loss of generality:
/// it changes no state, and every op it must follow is already
/// linearized. Among updates, the op that must linearize soonest is
/// tried first. Both rules cut dead ends; the order never changes a
/// verdict, only how fast it is reached.
fn push_frontier(arena: &mut Vec<u32>, heads: &[u32], ops: &[OpRecord]) {
    let response = |i: u32| ops[i as usize].response.unwrap_or(NEVER);
    let (mut min1, mut min1_chain, mut min2) = (NEVER, NONE, NEVER);
    for (c, &i) in (0..).zip(heads) {
        if i == NONE {
            continue;
        }
        let r = response(i);
        if r < min1 {
            (min1, min1_chain, min2) = (r, c, min1);
        } else if r < min2 {
            min2 = r;
        }
    }
    let start = arena.len();
    for (c, &i) in (0..).zip(heads) {
        if i == NONE {
            continue;
        }
        let others = if c == min1_chain { min2 } else { min1 };
        if others <= ops[i as usize].invoke {
            continue;
        }
        let key = |i: u32| (ops[i as usize].desc.is_update(), response(i));
        let k = key(i);
        let mut j = arena.len();
        arena.push(c);
        while j > start && key(heads[arena[j - 1] as usize]) > k {
            arena[j] = arena[j - 1];
            j -= 1;
        }
        arena[j] = c;
    }
}

/// A failed state's key: the chain heads, then the spec state's words.
/// Every state of one spec has the same number of words, so every key
/// of one search has the same length.
fn key<'a>(heads: &'a [u32], state: &'a SpecState) -> impl Iterator<Item = u64> + Clone + 'a {
    let (word, words): (Option<u64>, &[Word]) = match state {
        SpecState::Max(m) => (Some(*m as u64), &[]),
        SpecState::Count(c) => (Some(*c), &[]),
        SpecState::Snap(v) => (None, v),
    };
    let state = word.into_iter().chain(words.iter().map(|&w| w as u64));
    heads.iter().map(|&h| u64::from(h)).chain(state)
}

/// Slots in a fresh table; it doubles whenever it is half full.
const MIN_SLOTS: usize = 64;

/// What the search learned at its dead ends; made at the first one.
/// The failed states form one open-addressing table with linear
/// probing, over keys in one arena (see the module docs).
struct DeadEnds {
    /// `dead_at[d]`: some failed state has `d` ops linearized. The heads
    /// fix the depth, so a probe at any other depth cannot hit and is
    /// skipped without hashing.
    dead_at: Vec<bool>,
    /// Words per key.
    stride: usize,
    /// Hashes keys with a per-table random seed, as the standard maps
    /// do: a key holds values from the history, which may come from
    /// outside the program.
    hasher: RandomState,
    /// Every failed state's key, `stride` words each, in the order they
    /// were recorded.
    keys: Vec<u64>,
    /// The table: `0` for an empty slot, else `1 +` the key's index in
    /// `keys`. Its length is a power of two.
    slots: Vec<u32>,
    /// The deepest dead end: ops linearized, chain heads, spec state.
    deepest: (usize, Vec<u32>, SpecState),
}

impl DeadEnds {
    #[cold]
    fn new(ops: usize, depth: usize, heads: &[u32], state: &SpecState) -> DeadEnds {
        DeadEnds {
            dead_at: vec![false; ops + 1],
            stride: key(heads, state).count(),
            hasher: RandomState::new(),
            keys: Vec::new(),
            slots: vec![0; MIN_SLOTS],
            deepest: (depth, heads.to_vec(), state.clone()),
        }
    }

    /// The slot holding `key`, or the empty slot where it would go. The
    /// probe starts at the top bits of the key's hash (the slot count is
    /// a power of two).
    fn slot(&self, key: impl Iterator<Item = u64> + Clone) -> usize {
        let mut hasher = self.hasher.build_hasher();
        key.clone().for_each(|w| hasher.write_u64(w));
        let mut s = (hasher.finish() >> (64 - self.slots.len().trailing_zeros())) as usize;
        loop {
            let k = self.slots[s] as usize;
            if k == 0
                || self.keys[(k - 1) * self.stride..k * self.stride]
                    .iter()
                    .copied()
                    .eq(key.clone())
            {
                return s;
            }
            s = (s + 1) & (self.slots.len() - 1);
        }
    }

    fn holds(&self, depth: usize, heads: &[u32], state: &SpecState) -> bool {
        self.dead_at[depth] && self.slots[self.slot(key(heads, state))] != 0
    }

    #[cold]
    fn record(&mut self, depth: usize, heads: &[u32], state: SpecState) {
        self.dead_at[depth] = true;
        let slot = self.slot(key(heads, &state));
        if self.slots[slot] == 0 {
            self.keys.extend(key(heads, &state));
            debug_assert_eq!(self.keys.len() % self.stride, 0, "keys of one stride");
            let count = self.keys.len() / self.stride;
            self.slots[slot] = u32::try_from(count).expect("dead ends fit the table");
            if 2 * count >= self.slots.len() {
                self.grow();
            }
        }
        if depth > self.deepest.0 {
            let (d, h, s) = &mut self.deepest;
            *d = depth;
            h.clear();
            h.extend_from_slice(heads);
            *s = state;
        }
    }

    /// Doubles the slots and re-inserts every key.
    #[cold]
    fn grow(&mut self) {
        self.slots = vec![0; 2 * self.slots.len()];
        for (k, stored) in (1..).zip(self.keys.chunks_exact(self.stride)) {
            let s = self.slot(stored.iter().copied());
            self.slots[s] = k;
        }
    }

    /// The rejection's detail: how far the longest partial
    /// linearization got, and why each frontier op there failed.
    #[cold]
    fn culprit(&self, ops: &[OpRecord], spec: &SeqSpec, k: u64, width: usize) -> String {
        let (depth, heads, state) = &self.deepest;
        let mut frontier = Vec::new();
        push_frontier(&mut frontier, heads, ops);
        let culprits: Vec<String> = frontier
            .iter()
            .map(|&c| {
                let i = heads[c as usize] as usize;
                let op = &ops[i];
                let (_, needed) = spec.apply(state, op.pid, &op.desc);
                match &op.output {
                    Some(got) if op.desc.is_read() => {
                        format!("{} returned {got}, the spec needed {needed}", fmt_op(i, op))
                    }
                    _ => format!("{}: update; every continuation failed", fmt_op(i, op)),
                }
            })
            .collect();
        let envelope = if k > 1 {
            format!(" within accuracy factor k={k}")
        } else {
            String::new()
        };
        format!(
            "no legal linearization of {} operations exists{envelope} \
             (interval search over {width} chains); the longest partial \
             linearization covers {depth} of them, then {}",
            ops.len(),
            culprits.join("; ")
        )
    }
}

/// One DFS node: the spec state on arrival, where its frontier starts
/// in the arena and a cursor into it, and the step that led here (the
/// chain advanced and its op; [`NONE`] for the root).
struct Frame {
    state: SpecState,
    start: usize,
    cursor: usize,
    chain: u32,
    op: u32,
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
/// Returns [`ViolationKind::NoLinearization`] if no legal order exists,
/// naming the culprit (see the module docs). Never returns
/// [`ViolationKind::Uncheckable`].
pub fn check_interval(history: &History, spec: &SeqSpec) -> Result<(), Violation> {
    check_interval_k(history, spec, 1)
}

/// [`check_interval`] generalized to k-multiplicative accuracy:
/// decides whether some linearization exists in which every scalar read
/// output `v` satisfies `V / k ≤ v ≤ V` against the spec value `V` at
/// its linearization point, with no cap on history length. This is the
/// checker of the HKM approximate objects. The search is identical to
/// the exact one — only the output acceptance test (`output_within_k`)
/// is relaxed — so `k = 1` reduces bit-for-bit to [`check_interval`]'s
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
    assert!(ops.len() < NONE as usize, "too many operations to index");
    let mut remaining = ops.iter().filter(|o| o.is_complete()).count();
    if remaining == 0 {
        // Only pending operations (or none): omit them all.
        return Ok(());
    }

    // One allocation holds the chains' links (`arena[..n]`) and, behind
    // them, every frame's frontier; sized for two candidates per frame,
    // which a small history seldom outgrows.
    let n = ops.len();
    let mut arena: Vec<u32> = Vec::with_capacity(3 * n + 2);
    let mut pos = chain_decomposition(ops, &mut arena);
    let width = pos.len();
    push_frontier(&mut arena, &pos, ops);
    let mut stack = Vec::with_capacity(n + 1);
    stack.push(Frame {
        state: spec.init(),
        start: n,
        cursor: n,
        chain: NONE,
        op: NONE,
    });
    let mut dead_ends: Option<DeadEnds> = None;

    while let Some(top) = stack.last_mut() {
        if let Some(&c) = arena.get(top.cursor) {
            top.cursor += 1;
            let i = pos[c as usize];
            let op = &ops[i as usize];
            let (state, expected) = spec.apply(&top.state, op.pid, &op.desc);
            if let Some(observed) = &op.output {
                if !output_within_k(observed, &expected, k) {
                    continue;
                }
            }
            pos[c as usize] = arena[i as usize];
            if op.is_complete() {
                remaining -= 1;
                if remaining == 0 {
                    return Ok(());
                }
            }
            if dead_ends
                .as_ref()
                .is_some_and(|dead| dead.holds(stack.len(), &pos, &state))
            {
                pos[c as usize] = i;
                if op.is_complete() {
                    remaining += 1;
                }
                continue;
            }
            let start = arena.len();
            push_frontier(&mut arena, &pos, ops);
            stack.push(Frame {
                state,
                start,
                cursor: start,
                chain: c,
                op: i,
            });
        } else {
            let frame = stack.pop().expect("loop condition guarantees a frame");
            arena.truncate(frame.start);
            let depth = stack.len();
            dead_ends
                .get_or_insert_with(|| DeadEnds::new(n, depth, &pos, &frame.state))
                .record(depth, &pos, frame.state);
            if frame.op != NONE {
                pos[frame.chain as usize] = frame.op;
                if ops[frame.op as usize].is_complete() {
                    remaining += 1;
                }
            }
        }
    }

    let dead = dead_ends.expect("the root frame is a dead end too");
    Err(Violation::new(
        ViolationKind::NoLinearization,
        dead.culprit(ops, spec, k, width),
    ))
}

/// `op#i WriteMax(3) by p1 [4, 9]`; a pending op's response reads
/// `pending`.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{OpDesc, OpOutput};
    use crate::{ProcessId, Word};

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
    fn rejection_names_the_culprit() {
        // A crash left p1's WriteMax(0) pending at tick 0. p0 then writes
        // 1..=200 in sequence, and p2 reads between the 150th and the
        // 151st write: it must see 150, but returns 1001.
        let mut h = History::new();
        h.push(pending(1, OpDesc::WriteMax(0), 0));
        for j in 1..=201usize {
            let (t, v) = (2 * j, j as Word);
            h.push(match j {
                151 => op(2, OpDesc::ReadMax, t, t + 1, OpOutput::Value(1001)),
                _ if j < 151 => op(0, OpDesc::WriteMax(v), t, t + 1, OpOutput::Unit),
                _ => op(0, OpDesc::WriteMax(v - 1), t, t + 1, OpOutput::Unit),
            });
        }
        assert_eq!(h.len(), 202);
        let v = check_interval(&h, &MAX_SPEC).unwrap_err();
        assert_eq!(v.kind, ViolationKind::NoLinearization);
        for part in [
            "of 202 operations",
            "covers 151 of them",
            "op#151 ReadMax by p2 [302, 303] returned 1001, the spec needed 150",
        ] {
            assert!(
                v.detail.contains(part),
                "{part:?} missing from: {}",
                v.detail
            );
        }
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

    /// 4 processes of 500 ops each, an update and then a read in turn,
    /// where process p's k-th op spans [4k + p, 4k + p + 4). Each read
    /// returns what the spec returns after every update whose interval
    /// closed before the read began (a feasible output), except the
    /// first read from the middle of the history on, which returns
    /// `planted`.
    fn overlapping_with_planted_read(
        spec: &SeqSpec,
        update: impl Fn(usize, usize) -> OpDesc,
        read: OpDesc,
        planted: OpOutput,
    ) -> History {
        let (procs, rounds) = (4, 500);
        let mut ops = Vec::new();
        for k in 0..rounds {
            for p in 0..procs {
                let desc = if k % 2 == 0 {
                    update(p, k)
                } else {
                    read.clone()
                };
                ops.push(op(p, desc, 4 * k + p, 4 * k + p + 4, OpOutput::Unit));
            }
        }
        // Every op spans 4 ticks, so responses come in invocation order
        // too: one pass applies each update before the first read that
        // begins at or after its response.
        let (mut state, mut applied) = (spec.init(), 0);
        let mut planted = Some(planted);
        for i in 0..ops.len() {
            if !ops[i].desc.is_read() {
                continue;
            }
            while ops[applied].response.unwrap() <= ops[i].invoke {
                if ops[applied].desc.is_update() {
                    state = spec.apply(&state, ops[applied].pid, &ops[applied].desc).0;
                }
                applied += 1;
            }
            let feasible = spec.apply(&state, ops[i].pid, &read).1;
            ops[i].output = Some(match planted.take_if(|_| 2 * i >= ops.len()) {
                Some(impossible) => impossible,
                None => feasible,
            });
        }
        hist(ops)
    }

    #[test]
    fn memo_holds_thousands_of_dead_ends() {
        // Each planted read is impossible in every state, so the search
        // exhausts every partial linearization that can still reach it
        // and records each as a dead end: 8,028 of them in each case, so
        // the memo's table grows from 64 to 16,384 slots. The snapshot's
        // keys carry the whole segment vector.
        let snapshot = SeqSpec::Snapshot { n: 4, initial: 0 };
        let cases = [
            (
                overlapping_with_planted_read(
                    &SeqSpec::Counter,
                    |_, _| OpDesc::CounterIncrement,
                    OpDesc::CounterRead,
                    OpOutput::Value(1001),
                ),
                SeqSpec::Counter,
                "op#1004 CounterRead by p0 [1004, 1008] returned 1001, the spec needed 504",
            ),
            (
                overlapping_with_planted_read(
                    &MAX_SPEC,
                    |p, k| OpDesc::WriteMax((4 * k + p) as Word),
                    OpDesc::ReadMax,
                    OpOutput::Value(2000),
                ),
                MAX_SPEC,
                "op#1004 ReadMax by p0 [1004, 1008] returned 2000, the spec needed 1003",
            ),
            (
                overlapping_with_planted_read(
                    &snapshot,
                    |_, k| OpDesc::Update(k as Word + 1),
                    OpDesc::Scan,
                    OpOutput::Vector(vec![-1, 0, 0, 0]),
                ),
                snapshot,
                "op#1004 Scan by p0 [1004, 1008] returned [-1, 0, 0, 0], \
                 the spec needed [251, 251, 251, 251]",
            ),
        ];
        for (h, spec, culprit) in cases {
            assert_eq!(h.len(), 2000);
            let v = check_interval(&h, &spec).unwrap_err();
            assert_eq!(v.kind, ViolationKind::NoLinearization, "{spec:?}");
            // The planted read is op#1004; the three ops after it on the
            // other processes overlap it, so 1007 ops precede the dead end.
            for part in ["of 2000 operations", "covers 1007 of them", culprit] {
                assert!(
                    v.detail.contains(part),
                    "{spec:?}: {part:?} missing from: {}",
                    v.detail
                );
            }
        }
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
        assert_eq!(chain_decomposition(seq.ops(), &mut Vec::new()).len(), 1);
        let conc = hist(vec![
            op(0, OpDesc::CounterIncrement, 0, 3, OpOutput::Unit),
            op(1, OpDesc::CounterIncrement, 1, 4, OpOutput::Unit),
        ]);
        assert_eq!(chain_decomposition(conc.ops(), &mut Vec::new()).len(), 2);
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
        let heads = chain_decomposition(h.ops(), &mut Vec::new());
        let mut frontier = Vec::new();
        push_frontier(&mut frontier, &heads, h.ops());
        let heads: Vec<u32> = frontier.into_iter().map(|c| heads[c as usize]).collect();
        assert_eq!(heads, vec![2, 0, 1]);
    }
}
