//! The Theorem 3 construction: essential sets against max registers.
//!
//! The proof builds an execution `E_i` per iteration, each with an
//! *i-step essential set* `E_i`: a set of processes that (1) have taken
//! exactly `i` steps, (2) are *hidden* (nobody is aware of them), (3)
//! leave every base object familiar with at most one of them, and (4)
//! have the highest ids among all processes still in the execution.
//! Each iteration extends the execution by one step of each surviving
//! essential process, shrinking the set from `m` to about `√m / 3` via
//! two cases (Lemma 4):
//!
//! * **Low contention** (Figure 1) — the enabled events touch at least
//!   `√m` distinct objects: keep one process per object, thin them to an
//!   independent set of the familiarity-conflict graph (Turán), erase
//!   the rest.
//! * **High contention** (Figure 2) — at least `√m` processes aim at one
//!   object `o`: split by primitive. If CASes dominate, let the
//!   smallest-id one, `p_l`, succeed (then *halt* it) and schedule the
//!   rest after it — they all fail invisibly. If writes dominate,
//!   schedule everyone and let `p_l`'s write land last, covering the
//!   others. If reads/trivial CASes dominate, just schedule them.
//!
//! *Erasing* a process (Lemma 2) is implemented by **replay**: the
//! surviving schedule is re-executed from the initial configuration and
//! every response is asserted identical to the original run — the
//! machine-checked form of "removing events of processes nobody is
//! aware of yields an indistinguishable execution".
//!
//! The construction stops when half the essential processes complete,
//! or the set would drop below the register's measured read cost
//! `f(K)` (Lemma 6's threshold), or it degenerates below a minimum
//! size. The number of completed iterations `i*` is the quantity
//! Theorem 3 bounds from below by `Ω(log log K / log f(K))`.

use std::collections::BTreeSet;

use ruo_core::maxreg::sim::SimMaxRegister;
use ruo_sim::{Machine, Memory, ObjId, Prim, ProcessId, Word};

use crate::flow::FlowTracker;
use crate::turan::greedy_independent_set;

/// Which case of Lemma 4 an iteration took.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CaseKind {
    /// ≥ √m distinct objects: independent-set thinning (Figure 1).
    LowContention,
    /// One hot object, CAS majority: one winner halted, rest fail
    /// invisibly (Figure 2).
    HighContentionCas,
    /// One hot object, write majority: last writer halted, covers the
    /// rest.
    HighContentionWrite,
    /// One hot object, read/trivial majority: all scheduled, invisible.
    HighContentionRead,
}

/// Why the construction stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// At least half of the essential processes completed their
    /// `WriteMax` (Lemma 6 then caps the essential set at `2·f(K)`).
    HalfCompleted,
    /// The next essential set would fall below the `f(K)` threshold.
    EssentialBelowThreshold,
    /// The essential set became too small to split soundly (the paper
    /// requires `m ≥ 81`; small `K` runs hit this earlier).
    EssentialTooSmall,
    /// Safety valve.
    MaxIterations,
}

/// One iteration's bookkeeping — the rows behind Figures 1–3.
#[derive(Clone, Debug)]
pub struct RoundTrace {
    /// Iteration number (1-based; iteration `i` builds `E_i`).
    pub iteration: usize,
    /// Which Lemma 4 case fired.
    pub case: CaseKind,
    /// Active essential processes at the start (the `m` of Lemma 4).
    pub active_before: usize,
    /// Essential-set size after the iteration.
    pub essential_after: usize,
    /// Processes erased this iteration.
    pub erased: usize,
    /// The process halted this iteration, if any.
    pub halted: Option<ProcessId>,
    /// Number of distinct objects the enabled events targeted.
    pub distinct_objects: usize,
    /// Essential processes that had already completed their operation
    /// before this iteration.
    pub completed_before: usize,
}

/// The outcome of running the construction.
#[derive(Clone, Debug)]
pub struct EssentialOutcome {
    /// `K`: writers `p_0 .. p_{K-2}` plus the reader `p_{K-1}`.
    pub k: usize,
    /// Completed iterations `i*` — every process of the final essential
    /// set took exactly this many steps.
    pub iterations: usize,
    /// Why the construction stopped.
    pub stop: StopReason,
    /// Per-iteration traces (Figures 1–3).
    pub trace: Vec<RoundTrace>,
    /// The final essential set.
    pub final_essential: Vec<ProcessId>,
    /// Whether the hidden-set invariant (Def. 5) held after every
    /// iteration.
    pub hidden_invariant_held: bool,
    /// Whether every replay reproduced the original responses exactly
    /// (the mechanized Lemma 2). Always expected `true`.
    pub replays_faithful: bool,
    /// Number of replays performed.
    pub replays: usize,
    /// Steps of the final solo `ReadMax` by the reader `p_{K-1}`.
    pub reader_steps: usize,
    /// Distinct base objects the reader accessed — Lemma 6's accounting
    /// says a reader must touch one object per hidden completed writer
    /// it must not miss.
    pub reader_distinct_objects: usize,
    /// Value the reader returned.
    pub reader_value: u64,
    /// Largest operand of a *completed, non-erased* `WriteMax` — the
    /// reader must return at least this (Lemma 5's obligation).
    pub max_completed_value: u64,
}

/// Tunables for the construction.
#[derive(Clone, Copy, Debug)]
pub struct EssentialConfig {
    /// Stop when the essential set would fall below this (the paper's
    /// `f(K)`; pass the register's measured read step count).
    pub f_k: usize,
    /// Minimum active set the splitter accepts (the paper's `m ≥ 81`;
    /// smaller values let small-`K` experiments run more iterations at
    /// the cost of the constant-factor guarantees).
    pub min_active: usize,
    /// Safety valve on iterations.
    pub max_iterations: usize,
    /// Verify the hidden-set invariant with the flow tracker after every
    /// iteration (costs `O(objects · K)` per iteration).
    pub verify_hidden: bool,
}

impl Default for EssentialConfig {
    fn default() -> Self {
        EssentialConfig {
            f_k: 1,
            min_active: 4,
            max_iterations: 64,
            verify_hidden: true,
        }
    }
}

struct Writer {
    machine: Machine,
    /// `(prim, response)` of every step taken, for replay verification.
    history: Vec<(Prim, Word)>,
    erased: bool,
    halted: bool,
}

/// Runs the essential-set construction against `reg` with `K = k` (one
/// reader plus `k − 1` writers; writer `p_i` performs `WriteMax(i + 1)`).
///
/// `mem` must be the memory the register's cells were allocated in, with
/// no events applied yet.
///
/// # Panics
///
/// Panics if `k < 3` or `mem` already has events.
pub fn run_essential(
    reg: &dyn SimMaxRegister,
    mem: &mut Memory,
    k: usize,
    config: EssentialConfig,
) -> EssentialOutcome {
    assert!(k >= 3, "need at least two writers and a reader");
    assert_eq!(mem.steps(), 0, "memory must be fresh");
    let initial = mem.snapshot();
    let writers = k - 1;

    let mut state: Vec<Writer> = (0..writers)
        .map(|i| Writer {
            machine: reg.write_max(ProcessId(i), i as u64 + 1),
            history: Vec::new(),
            erased: false,
            halted: false,
        })
        .collect();
    let mut schedule: Vec<ProcessId> = Vec::new();
    let mut essential: BTreeSet<usize> = (0..writers).collect();
    let mut tracker = FlowTracker::new(k);
    let mut trace = Vec::new();
    let mut hidden_ok = true;
    let mut replays_faithful = true;
    let mut replays = 0usize;
    let mut iterations = 0usize;

    let stop = loop {
        if iterations >= config.max_iterations {
            break StopReason::MaxIterations;
        }
        let completed: Vec<usize> = essential
            .iter()
            .copied()
            .filter(|&p| state[p].machine.is_done())
            .collect();
        if 2 * completed.len() >= essential.len() && iterations > 0 {
            break StopReason::HalfCompleted;
        }
        let active: Vec<usize> = essential
            .iter()
            .copied()
            .filter(|&p| !state[p].machine.is_done())
            .collect();
        let m = active.len();
        if m < config.min_active {
            break StopReason::EssentialTooSmall;
        }

        // Group enabled events by target object.
        let mut groups: Vec<(ObjId, Vec<usize>)> = Vec::new();
        for &p in &active {
            let prim = state[p].machine.enabled().expect("active has event");
            let obj = prim.obj();
            match groups.iter_mut().find(|(o, _)| *o == obj) {
                Some((_, v)) => v.push(p),
                None => groups.push((obj, vec![p])),
            }
        }
        let distinct = groups.len();
        let sqrt_m = (m as f64).sqrt().ceil() as usize;

        // Decide next essential set + schedule for this iteration.
        let (case, chosen, halted_now, to_erase): (
            CaseKind,
            Vec<usize>,
            Option<usize>,
            BTreeSet<usize>,
        ) = if distinct >= sqrt_m {
            // ---- Low contention (Figure 1) ----
            // One process per object (the largest id, arbitrary per the
            // proof), thinned to an independent set of the conflict
            // graph: edge (v_o, v_o') when p^{o'} ∈ F(o).
            let reps: Vec<(ObjId, usize)> = groups
                .iter()
                .map(|(o, ps)| (*o, *ps.iter().max().expect("nonempty group")))
                .collect();
            let mut edges = Vec::new();
            for (a, &(o, _)) in reps.iter().enumerate() {
                let fam = tracker.familiarity(o);
                for (b, &(_, q)) in reps.iter().enumerate() {
                    if a != b && fam.contains(ProcessId(q)) {
                        edges.push((a, b));
                    }
                }
            }
            let indep = greedy_independent_set(reps.len(), &edges);
            let chosen: Vec<usize> = indep.into_iter().map(|i| reps[i].1).collect();
            let erase: BTreeSet<usize> = essential
                .iter()
                .copied()
                .filter(|p| !chosen.contains(p))
                .collect();
            (CaseKind::LowContention, chosen, None, erase)
        } else {
            // ---- High contention (Figure 2) ----
            let (obj, group) = groups
                .iter()
                .max_by_key(|(_, ps)| ps.len())
                .expect("groups nonempty")
                .clone();
            let cur = mem.peek(obj);
            let mut p_cas = Vec::new();
            let mut p_write = Vec::new();
            let mut p_trivial = Vec::new();
            for &p in &group {
                let prim = state[p].machine.enabled().expect("active");
                match prim {
                    Prim::Write(..) => p_write.push(p),
                    Prim::Cas { expected, new, .. } => {
                        if expected == cur && new != cur {
                            p_cas.push(p);
                        } else {
                            p_trivial.push(p);
                        }
                    }
                    Prim::Read(_) => p_trivial.push(p),
                }
            }
            // S = F(o) ∩ active essential processes.
            let fam = tracker.familiarity(obj);
            let s: BTreeSet<usize> = active
                .iter()
                .copied()
                .filter(|&p| fam.contains(ProcessId(p)))
                .collect();

            let largest = p_cas.len().max(p_write.len()).max(p_trivial.len());
            if largest == p_cas.len() && !p_cas.is_empty() {
                // pl = smallest id whose erasure S does not claim.
                let pl = *p_cas
                    .iter()
                    .filter(|p| !s.contains(p))
                    .min()
                    .expect("CAS group larger than |S| ≤ 1");
                let chosen: Vec<usize> = p_cas
                    .iter()
                    .copied()
                    .filter(|&p| p != pl && !s.contains(&p))
                    .collect();
                let mut erase: BTreeSet<usize> = essential
                    .iter()
                    .copied()
                    .filter(|p| !p_cas.contains(p))
                    .collect();
                erase.extend(s.iter().copied().filter(|&p| p != pl));
                (CaseKind::HighContentionCas, chosen, Some(pl), erase)
            } else if largest == p_write.len() && !p_write.is_empty() {
                let pl = *p_write.iter().min().expect("nonempty");
                let chosen: Vec<usize> = p_write.iter().copied().filter(|&p| p != pl).collect();
                let erase: BTreeSet<usize> = essential
                    .iter()
                    .copied()
                    .filter(|p| !p_write.contains(p))
                    .collect();
                (CaseKind::HighContentionWrite, chosen, Some(pl), erase)
            } else {
                let chosen: Vec<usize> = p_trivial
                    .iter()
                    .copied()
                    .filter(|p| !s.contains(p))
                    .collect();
                let mut erase: BTreeSet<usize> = essential
                    .iter()
                    .copied()
                    .filter(|p| !p_trivial.contains(p))
                    .collect();
                erase.extend(s.iter().copied());
                (CaseKind::HighContentionRead, chosen, None, erase)
            }
        };

        if chosen.len() < config.f_k.max(1) {
            break StopReason::EssentialBelowThreshold;
        }

        // ---- Erase by replay (mechanized Lemma 2) ----
        if !to_erase.is_empty() {
            for &p in &to_erase {
                state[p].erased = true;
            }
            schedule.retain(|pid| !state[pid.index()].erased);
            mem.reset_to(&initial);
            // Fresh machines for every surviving writer.
            for (i, w) in state.iter_mut().enumerate() {
                if !w.erased {
                    w.machine = reg.write_max(ProcessId(i), i as u64 + 1);
                }
            }
            let mut replay_pos = vec![0usize; writers];
            tracker = FlowTracker::new(k);
            for &pid in &schedule {
                let p = pid.index();
                let prim = state[p].machine.enabled().expect("replay step exists");
                let ev = mem.apply(pid, prim);
                tracker.observe(&ev);
                let resp = ev.resp;
                let (orig_prim, orig_resp) = state[p].history[replay_pos[p]];
                if prim != orig_prim || resp != orig_resp {
                    replays_faithful = false;
                }
                replay_pos[p] += 1;
                state[p].machine.feed(resp);
            }
            replays += 1;
        }

        // ---- Schedule this iteration's events ----
        let mut order: Vec<usize> = Vec::new();
        match case {
            CaseKind::HighContentionCas => {
                order.push(halted_now.expect("CAS case halts"));
                let mut rest = chosen.clone();
                rest.sort_unstable();
                order.extend(rest);
            }
            CaseKind::HighContentionWrite => {
                let mut rest = chosen.clone();
                rest.sort_unstable();
                order.extend(rest);
                order.push(halted_now.expect("write case halts"));
            }
            _ => {
                let mut rest = chosen.clone();
                rest.sort_unstable();
                order.extend(rest);
            }
        }
        for p in order {
            let pid = ProcessId(p);
            let prim = state[p].machine.enabled().expect("scheduled step exists");
            let ev = mem.apply(pid, prim);
            tracker.observe(&ev);
            state[p].history.push((prim, ev.resp));
            state[p].machine.feed(ev.resp);
            schedule.push(pid);
        }
        if let Some(pl) = halted_now {
            state[pl].halted = true;
        }

        essential = chosen.iter().copied().collect();
        iterations += 1;

        // ---- Verify the hidden-set invariant (Def. 5) ----
        if config.verify_hidden {
            let mut ess_set = crate::flow::ProcSet::empty(k);
            for &p in &essential {
                ess_set.insert(ProcessId(p));
            }
            for &p in &essential {
                if !tracker.is_hidden(ProcessId(p)) {
                    hidden_ok = false;
                }
            }
            for i in 0..tracker.tracked_objects() {
                if tracker.familiar_members(ObjId::from_index(i), &ess_set) > 1 {
                    hidden_ok = false;
                }
            }
        }

        trace.push(RoundTrace {
            iteration: iterations,
            case,
            active_before: m,
            essential_after: essential.len(),
            erased: to_erase.len(),
            halted: halted_now.map(ProcessId),
            distinct_objects: distinct,
            completed_before: completed.len(),
        });
    };

    // ---- Lemma 5/6 epilogue: a fresh reader must see the maximum
    // completed value. ----
    let max_completed_value = state
        .iter()
        .enumerate()
        .filter(|(_, w)| !w.erased && w.machine.is_done())
        .map(|(i, _)| i as u64 + 1)
        .max()
        .unwrap_or(0);
    let reader = ProcessId(k - 1);
    let mut read_machine = reg.read_max(reader);
    let mut reader_objects = BTreeSet::new();
    while let Some(prim) = read_machine.enabled() {
        reader_objects.insert(prim.obj());
        read_machine.feed(mem.apply(reader, prim).resp);
    }
    let reader_value = read_machine.result().expect("read completes") as u64;

    EssentialOutcome {
        k,
        iterations,
        stop,
        trace,
        final_essential: essential.iter().map(|&p| ProcessId(p)).collect(),
        hidden_invariant_held: hidden_ok,
        replays_faithful,
        replays,
        reader_steps: read_machine.steps(),
        reader_distinct_objects: reader_objects.len(),
        reader_value,
        max_completed_value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruo_core::maxreg::sim::{SimCasRetryMaxRegister, SimTreeMaxRegister};

    fn run_tree(k: usize) -> EssentialOutcome {
        let mut mem = Memory::new();
        let reg = SimTreeMaxRegister::new(&mut mem, k);
        run_essential(&reg, &mut mem, k, EssentialConfig::default())
    }

    #[test]
    fn construction_runs_on_algorithm_a() {
        let out = run_tree(64);
        assert!(out.iterations >= 1, "at least one iteration must succeed");
        assert!(out.replays_faithful, "Lemma 2 replay diverged");
        assert!(out.hidden_invariant_held, "hidden-set invariant broken");
    }

    #[test]
    fn essential_set_decays_no_faster_than_sqrt_over_3() {
        let out = run_tree(256);
        for t in &out.trace {
            let floor = ((t.active_before as f64).sqrt() / 3.0).floor() as usize;
            assert!(
                t.essential_after + 2 >= floor,
                "iteration {}: |E| = {} fell below √m/3 − 2 = {}",
                t.iteration,
                t.essential_after,
                floor.saturating_sub(2)
            );
        }
    }

    #[test]
    fn reader_sees_the_maximum_completed_write() {
        let out = run_tree(64);
        assert!(
            out.reader_value >= out.max_completed_value,
            "reader missed a completed write: {} < {}",
            out.reader_value,
            out.max_completed_value
        );
        // And never invents values: all operands are ≤ k-1.
        assert!(out.reader_value < out.k as u64);
    }

    #[test]
    fn iterations_grow_slowly_with_k() {
        // Theorem 3: i* = Ω(log log K) for O(1)-read registers — i.e.
        // doubly logarithmic growth. Mechanically we check monotonicity
        // in the adversary's favor: more processes never hurt.
        let small = run_tree(32).iterations;
        let large = run_tree(512).iterations;
        assert!(large >= small, "i*({large}) < i*({small})");
        assert!(large >= 2, "512 processes should survive ≥ 2 iterations");
    }

    #[test]
    fn cas_retry_register_hits_the_high_contention_case() {
        // Every writer targets the single cell: iteration 1 must be a
        // high-contention round.
        let mut mem = Memory::new();
        let k = 64;
        let reg = SimCasRetryMaxRegister::new(&mut mem, k);
        let out = run_essential(&reg, &mut mem, k, EssentialConfig::default());
        assert!(!out.trace.is_empty());
        assert_eq!(out.trace[0].distinct_objects, 1);
        assert!(matches!(
            out.trace[0].case,
            CaseKind::HighContentionCas | CaseKind::HighContentionRead
        ));
        assert!(out.replays_faithful);
        assert!(out.hidden_invariant_held);
    }

    #[test]
    fn trace_is_consistent() {
        let out = run_tree(128);
        for (i, t) in out.trace.iter().enumerate() {
            assert_eq!(t.iteration, i + 1);
            assert!(t.essential_after <= t.active_before);
            if matches!(
                t.case,
                CaseKind::HighContentionCas | CaseKind::HighContentionWrite
            ) {
                assert!(t.halted.is_some());
            } else {
                assert!(t.halted.is_none());
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least two writers")]
    fn tiny_k_is_rejected() {
        let mut mem = Memory::new();
        let reg = SimTreeMaxRegister::new(&mut mem, 2);
        let _ = run_essential(&reg, &mut mem, 2, EssentialConfig::default());
    }
}
