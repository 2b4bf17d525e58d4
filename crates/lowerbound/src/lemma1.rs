//! The Lemma 1 adversary: a schedule of one enabled event per active
//! process that at most triples the knowledge measure `M(E)`.
//!
//! Given the set of enabled events, the adversary orders them in three
//! phases:
//!
//! 1. **reads and trivial events** — invisible, so familiarity sets do
//!    not grow; each reader gains at most one familiarity set.
//! 2. **value-changing writes** — on each object only the *last* write
//!    stays visible (the earlier ones are overwritten before anyone
//!    moves, Def. 1), contributing a single awareness set.
//! 3. **value-changing CASes** — on each object the first CAS either
//!    fails (a phase-2 write changed the value) or succeeds and makes
//!    all the others fail; either way one awareness set at most.
//!
//! `ruo-lowerbound`'s Theorem 1 experiment iterates this round and
//! checks `M(E_j) ≤ 3^j` on the real events, which the round feeds to a
//! [`FlowTracker`] as it applies them.

use ruo_sim::{Machine, Memory, ProcessId};

use crate::flow::FlowTracker;

/// Which phase of the Lemma 1 schedule an event was placed in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Reads, trivial writes, trivial CASes.
    ReadsAndTrivial,
    /// Value-changing writes.
    Writes,
    /// (Potentially) value-changing CASes.
    Cases,
}

/// One process's event placement in a round.
#[derive(Clone, Copy, Debug)]
pub struct Placement {
    /// The process that stepped.
    pub pid: ProcessId,
    /// The phase its event was scheduled in.
    pub phase: Phase,
}

/// Runs one Lemma 1 round: every machine in `procs` that has an enabled
/// event takes exactly one step, in the three-phase order, and `tracker`
/// observes each event as it is applied. Returns the placements in
/// schedule order.
///
/// Processes whose machines are already done are skipped.
///
/// # Panics
///
/// Panics if `tracker` has not observed every earlier step of `mem`.
pub fn lemma1_round(
    mem: &mut Memory,
    procs: &mut [(ProcessId, &mut Machine)],
    tracker: &mut FlowTracker,
) -> Vec<Placement> {
    // Classify against the values at the start of the round. Phase-1
    // events are all trivial, so classifications stay valid through
    // phase 1; phase 2/3 interactions are exactly the cases analyzed in
    // the lemma.
    let mut phase1 = Vec::new();
    let mut phase2 = Vec::new();
    let mut phase3 = Vec::new();
    for (idx, (pid, machine)) in procs.iter().enumerate() {
        let Some(prim) = machine.enabled() else {
            continue;
        };
        let current = mem.peek(prim.obj());
        let phase = if prim.is_trivial_against(current) {
            Phase::ReadsAndTrivial
        } else if prim.is_write() {
            Phase::Writes
        } else {
            debug_assert!(prim.is_cas());
            Phase::Cases
        };
        let entry = (idx, *pid, phase);
        match phase {
            Phase::ReadsAndTrivial => phase1.push(entry),
            Phase::Writes => phase2.push(entry),
            Phase::Cases => phase3.push(entry),
        }
    }

    let mut placements = Vec::new();
    for (idx, pid, phase) in phase1.into_iter().chain(phase2).chain(phase3) {
        let machine = &mut *procs[idx].1;
        let prim = machine.enabled().expect("classified event still enabled");
        let ev = mem.apply(pid, prim);
        tracker.observe(&ev);
        machine.feed(ev.resp);
        placements.push(Placement { pid, phase });
    }
    placements
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruo_sim::{Machine, ObjId, Prim, Word};

    fn writer(o: ObjId, v: Word) -> Machine {
        Machine::single(Prim::Write(o, v), |_| 0)
    }

    fn reader(o: ObjId) -> Machine {
        Machine::single(Prim::Read(o), |v| v)
    }

    fn casser(o: ObjId, expected: Word, new: Word) -> Machine {
        Machine::single(
            Prim::Cas {
                obj: o,
                expected,
                new,
            },
            |ok| ok,
        )
    }

    #[test]
    fn phases_are_ordered_reads_then_writes_then_cas() {
        let mut mem = Memory::new();
        let o = mem.alloc(0);
        let mut m0 = casser(o, 0, 7); // nontrivial CAS
        let mut m1 = writer(o, 5); // nontrivial write
        let mut m2 = reader(o); // read
        let mut procs = vec![
            (ProcessId(0), &mut m0),
            (ProcessId(1), &mut m1),
            (ProcessId(2), &mut m2),
        ];
        let placements = lemma1_round(&mut mem, &mut procs, &mut FlowTracker::new(3));
        let phases: Vec<Phase> = placements.iter().map(|p| p.phase).collect();
        assert_eq!(
            phases,
            vec![Phase::ReadsAndTrivial, Phase::Writes, Phase::Cases]
        );
        // The CAS ran after the write changed the value: it must fail.
        assert_eq!(m0.result(), Some(0));
        // The reader ran first and saw the initial value.
        assert_eq!(m2.result(), Some(0));
        assert_eq!(mem.peek(o), 5);
    }

    #[test]
    fn trivial_write_is_scheduled_in_phase_one() {
        let mut mem = Memory::new();
        let o = mem.alloc(5);
        let mut m0 = writer(o, 5); // writes the current value: trivial
        let mut m1 = writer(o, 6);
        let mut procs = vec![(ProcessId(0), &mut m0), (ProcessId(1), &mut m1)];
        let placements = lemma1_round(&mut mem, &mut procs, &mut FlowTracker::new(2));
        assert_eq!(placements[0].phase, Phase::ReadsAndTrivial);
        assert_eq!(placements[0].pid, ProcessId(0));
        assert_eq!(placements[1].phase, Phase::Writes);
    }

    #[test]
    fn completed_machines_are_skipped() {
        let mut mem = Memory::new();
        let o = mem.alloc(0);
        let mut m0 = Machine::completed(0);
        let mut m1 = reader(o);
        let mut procs = vec![(ProcessId(0), &mut m0), (ProcessId(1), &mut m1)];
        let placements = lemma1_round(&mut mem, &mut procs, &mut FlowTracker::new(2));
        assert_eq!(placements.len(), 1);
        assert_eq!(placements[0].pid, ProcessId(1));
    }

    #[test]
    fn knowledge_triples_at_most_per_round() {
        // The lemma's claim, checked mechanically: M(Eσ) ≤ 3·M(E) for a
        // round of mixed writers/CASers/readers on overlapping objects.
        let n = 12;
        let mut mem = Memory::new();
        let objs = mem.alloc_n(3, 0);
        let mut machines: Vec<Machine> = (0..n)
            .map(|i| match i % 3 {
                0 => writer(objs[i % 3], i as Word + 10),
                1 => casser(objs[i % 3], 0, i as Word + 50),
                _ => reader(objs[i % 3]),
            })
            .collect();
        let mut tracker = FlowTracker::new(n);
        let mut bound = 1usize;
        for _ in 0..2 {
            let mut procs: Vec<(ProcessId, &mut Machine)> = machines
                .iter_mut()
                .enumerate()
                .map(|(i, m)| (ProcessId(i), m))
                .collect();
            lemma1_round(&mut mem, &mut procs, &mut tracker);
            bound *= 3;
            assert!(
                tracker.max_knowledge() <= bound,
                "M(E) = {} exceeds 3^rounds = {}",
                tracker.max_knowledge(),
                bound
            );
        }
    }

    #[test]
    fn concurrent_writers_to_one_object_leak_one_awareness_set() {
        // All writes to the same object in one round: only the last is
        // visible, so F(o) gains exactly one contributor.
        let mut mem = Memory::new();
        let o = mem.alloc(0);
        let mut machines: Vec<Machine> = (0..5).map(|i| writer(o, i as Word + 1)).collect();
        let mut procs: Vec<(ProcessId, &mut Machine)> = machines
            .iter_mut()
            .enumerate()
            .map(|(i, m)| (ProcessId(i), m))
            .collect();
        let mut tracker = FlowTracker::new(5);
        lemma1_round(&mut mem, &mut procs, &mut tracker);
        assert_eq!(tracker.familiarity(o).len(), 1);
    }

    #[test]
    fn first_cas_wins_rest_fail_silently() {
        let mut mem = Memory::new();
        let o = mem.alloc(0);
        let mut machines: Vec<Machine> = (0..4).map(|i| casser(o, 0, 100 + i as Word)).collect();
        let mut procs: Vec<(ProcessId, &mut Machine)> = machines
            .iter_mut()
            .enumerate()
            .map(|(i, m)| (ProcessId(i), m))
            .collect();
        let mut tracker = FlowTracker::new(4);
        lemma1_round(&mut mem, &mut procs, &mut tracker);
        let succeeded: Vec<usize> = machines
            .iter()
            .enumerate()
            .filter(|(_, m)| m.result() == Some(1))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(succeeded.len(), 1, "exactly one CAS may succeed");
        assert!(tracker.familiarity(o).len() <= 2);
    }
}
