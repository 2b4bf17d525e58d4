//! The Theorem 1 construction: an adversarial execution of `N − 1`
//! concurrent `CounterIncrement`s under the Lemma 1 schedule, followed
//! by Lemma 3's reader argument.
//!
//! The proof iterates the Lemma 1 round until all increments complete,
//! maintaining `M(E_j) ≤ 3^j`; if completion happened in
//! `r = o(log₃(N / f(N)))` rounds, every familiarity set would have
//! `o(N / f(N))` members, so a `CounterRead` by the fresh process `p_N` —
//! which must end up aware of **all** `N` processes (Lemma 3) while
//! gaining at most one familiarity set per step — could not finish in
//! `O(f(N))` steps. Hence some increment takes `Ω(log(N / f(N)))`
//! steps.
//!
//! [`run_theorem1`] executes exactly that experiment against any
//! [`SimCounter`] and reports every quantity the argument relies on.

use ruo_core::counter::sim::SimCounter;
use ruo_sim::{Machine, Memory, ProcessId};

use crate::flow::FlowTracker;
use crate::lemma1::lemma1_round;

/// Everything the Theorem 1 experiment measures.
#[derive(Clone, Debug)]
pub struct Theorem1Outcome {
    /// Number of processes `N` (including the reader `p_N`).
    pub n: usize,
    /// Rounds of the Lemma 1 schedule until all `N − 1` increments
    /// completed — a lower bound on the worst-case increment step
    /// complexity under this adversary.
    pub rounds: usize,
    /// `M(E_j)` after each round `j` (the knowledge measure).
    pub knowledge_per_round: Vec<usize>,
    /// Whether `M(E_j) ≤ 3^j` held for every round (Lemma 1's
    /// invariant).
    pub knowledge_bound_held: bool,
    /// Steps the reader's `CounterRead` took after the construction.
    pub reader_steps: usize,
    /// The count the reader returned (must be `N − 1`).
    pub reader_value: i64,
    /// `|AW(p_N)|` after the read — Lemma 3 says it must equal `N`.
    pub reader_awareness: usize,
    /// `|AW(p_N)|` after each of the reader's steps: the growth curve
    /// that powers the tradeoff. Each step reads one base object and
    /// can add at most that object's familiarity set, which the
    /// construction bounded by `3^rounds` — so few steps cannot reach
    /// awareness `N` unless `rounds` was large.
    pub reader_awareness_curve: Vec<usize>,
    /// Maximum increment step count among the `N − 1` writers.
    pub max_increment_steps: usize,
}

impl Theorem1Outcome {
    /// The theorem's predicted lower bound for this `N` and the measured
    /// read cost: `log₃(N / f(N))`, rounded down (0 if `f(N) ≥ N`).
    pub fn predicted_rounds(&self) -> usize {
        let f = self.reader_steps.max(1) as f64;
        let ratio = self.n as f64 / f;
        if ratio <= 1.0 {
            0
        } else {
            ratio.log(3.0).floor() as usize
        }
    }
}

/// Runs the Theorem 1 experiment: processes `p_0 .. p_{N-2}` each
/// perform one `CounterIncrement` under the Lemma 1 adversary; then
/// `p_{N-1}` performs a solo `CounterRead`.
///
/// `mem` must be the memory the counter's cells were allocated in, with
/// no events applied yet.
///
/// # Panics
///
/// Panics if the counter supports fewer than 2 processes, if events were
/// already applied to `mem`, or if the construction exceeds
/// `max_rounds` (a safety valve — wait-free counters finish in their
/// step bound).
pub fn run_theorem1(
    counter: &dyn SimCounter,
    mem: &mut Memory,
    max_rounds: usize,
) -> Theorem1Outcome {
    let n = counter.n();
    assert!(n >= 2, "need at least one incrementer and one reader");
    assert_eq!(mem.steps(), 0, "memory must be fresh");

    let mut machines: Vec<(ProcessId, Machine)> = (0..n - 1)
        .map(|i| (ProcessId(i), counter.increment(ProcessId(i))))
        .collect();
    let mut tracker = FlowTracker::new(n);
    let mut knowledge_per_round = Vec::new();
    let mut knowledge_bound_held = true;
    let mut rounds = 0usize;
    let mut bound = 1usize;

    while machines.iter().any(|(_, m)| !m.is_done()) {
        assert!(
            rounds < max_rounds,
            "construction exceeded {max_rounds} rounds — counter not wait-free under this schedule?"
        );
        let mut procs: Vec<(ProcessId, &mut Machine)> = machines
            .iter_mut()
            .filter(|(_, m)| !m.is_done())
            .map(|(p, m)| (*p, m))
            .collect();
        lemma1_round(mem, &mut procs, &mut tracker);
        rounds += 1;
        bound = bound.saturating_mul(3);
        let m_e = tracker.max_knowledge();
        knowledge_per_round.push(m_e);
        if m_e > bound {
            knowledge_bound_held = false;
        }
    }

    let max_increment_steps = machines.iter().map(|(_, m)| m.steps()).max().unwrap_or(0);

    // Lemma 3: the reader must become aware of every process. Track the
    // awareness growth per step — each read can contribute at most one
    // familiarity set.
    let reader = ProcessId(n - 1);
    let mut read_machine = counter.read(reader);
    let mut reader_awareness_curve = Vec::new();
    while let Some(prim) = read_machine.enabled() {
        let ev = mem.apply(reader, prim);
        tracker.observe(&ev);
        read_machine.feed(ev.resp);
        reader_awareness_curve.push(tracker.awareness(reader).len());
    }

    Theorem1Outcome {
        n,
        rounds,
        knowledge_per_round,
        knowledge_bound_held,
        reader_steps: read_machine.steps(),
        reader_value: read_machine.result().expect("read completed"),
        reader_awareness: tracker.awareness(reader).len(),
        reader_awareness_curve,
        max_increment_steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruo_core::counter::sim::{SimAacCounter, SimCasLoopCounter, SimFArrayCounter};

    #[test]
    fn farray_counter_satisfies_lemma_3() {
        let mut mem = Memory::new();
        let n = 16;
        let c = SimFArrayCounter::new(&mut mem, n);
        let out = run_theorem1(&c, &mut mem, 10_000);
        assert_eq!(out.reader_value, n as i64 - 1, "read must return N-1");
        assert!(out.knowledge_bound_held, "M(E_j) ≤ 3^j violated");
        assert_eq!(
            out.reader_awareness, n,
            "Lemma 3: reader must be aware of all N processes"
        );
        assert_eq!(out.reader_steps, 1, "f-array read is one step");
    }

    #[test]
    fn farray_rounds_exceed_theorem_prediction() {
        for n in [8usize, 32, 128] {
            let mut mem = Memory::new();
            let c = SimFArrayCounter::new(&mut mem, n);
            let out = run_theorem1(&c, &mut mem, 100_000);
            assert!(
                out.rounds >= out.predicted_rounds(),
                "n={n}: measured {} rounds < predicted {}",
                out.rounds,
                out.predicted_rounds()
            );
            // The f-array increment is O(log N): rounds should be within
            // a constant of 8·log2(N).
            let log2n = (n as f64).log2().ceil() as usize;
            assert!(out.rounds <= 3 + 8 * log2n, "n={n}: rounds {}", out.rounds);
        }
    }

    #[test]
    fn cas_loop_counter_is_starved_into_linear_rounds() {
        // All N-1 CAS-loop increments target one cell; the adversary lets
        // one succeed per round, so completion takes ~N-1 rounds — far
        // above the logarithmic lower bound, consistent with Theorem 1.
        let n = 32;
        let mut mem = Memory::new();
        let c = SimCasLoopCounter::new(&mut mem, n);
        let out = run_theorem1(&c, &mut mem, 100_000);
        assert_eq!(out.reader_value, n as i64 - 1);
        assert!(out.knowledge_bound_held);
        assert!(
            out.rounds >= n - 2,
            "expected ~N-1 rounds of CAS starvation, got {}",
            out.rounds
        );
    }

    #[test]
    fn aac_counter_completes_and_counts() {
        let n = 8;
        let mut mem = Memory::new();
        let c = SimAacCounter::new(&mut mem, n, n as u64);
        let out = run_theorem1(&c, &mut mem, 100_000);
        assert_eq!(out.reader_value, n as i64 - 1);
        assert!(out.knowledge_bound_held);
        // NOTE: unlike the f-array case, the strict Def. 2 awareness of
        // the reader can be tiny here. The AAC counter's switch cells
        // receive repeated *trivial* writes of `1`, and per Definition 1
        // a write — trivial or not — renders the previous (uncovered)
        // write invisible, cutting the formal awareness chain even
        // though the value itself survives. The paper's Lemma 3
        // argument routes around this via the erasure construction
        // (erasing a process also erases the covering writers' suffixes,
        // because they became aware of it when reading the leaves); the
        // tracker implements the literal definitions, so we only assert
        // semantic correctness and the Lemma 1 bound here.
        assert!(out.reader_awareness >= 1);
    }

    #[test]
    fn reader_awareness_grows_by_at_most_one_familiarity_set_per_step() {
        // Lemma 3's accounting: each read step can add at most the read
        // object's familiarity set, itself bounded by M(E) ≤ 3^rounds.
        let n = 64;
        let mut mem = Memory::new();
        let c = SimFArrayCounter::new(&mut mem, n);
        let out = run_theorem1(&c, &mut mem, 100_000);
        let cap = 3usize.saturating_pow(out.rounds as u32).min(n);
        let mut prev = 1usize; // the reader starts aware of itself
        for (step, &aw) in out.reader_awareness_curve.iter().enumerate() {
            assert!(
                aw <= prev + cap,
                "step {step}: awareness jumped {prev} -> {aw} (cap {cap})"
            );
            assert!(aw >= prev, "awareness shrank");
            prev = aw;
        }
        assert_eq!(prev, n, "the reader must end aware of everyone");
    }

    #[test]
    fn rejects_used_memory() {
        let mut mem = Memory::new();
        let c = SimFArrayCounter::new(&mut mem, 4);
        let o = mem.alloc(0);
        mem.apply(ProcessId(0), ruo_sim::Prim::Read(o));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_theorem1(&c, &mut mem, 100)
        }));
        assert!(result.is_err());
    }
}
