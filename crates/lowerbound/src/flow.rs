//! Information-flow analysis: visibility, awareness and familiarity
//! (Definitions 1–4 of the paper).
//!
//! The paper quantifies "how fast processes learn about each other":
//!
//! * An event is **invisible** (Def. 1) if it does not change its
//!   object's value, or if it is overwritten by the very next access to
//!   the object — a *write* — before its issuer takes another step.
//! * A process becomes **aware** (Defs. 2–3) of the processes whose
//!   visible mutations it reads (directly or through chains of such
//!   reads and same-process program order).
//! * An object is **familiar** (Def. 4) with every process its visible
//!   writers were aware of when they wrote.
//!
//! [`FlowTracker`] computes all three online, one event at a time, which
//! is how the adversaries of [`crate::theorem1`] and [`crate::essential`]
//! steer executions to keep knowledge scarce, and how the test suite
//! verifies the knowledge-growth invariants (`M(E_j) ≤ 3^j`, hidden
//! sets) that the paper's proofs rely on.

use std::fmt;

use ruo_sim::{Event, EventLog, ObjId, Prim, ProcessId};

/// A set of processes, as a bitset.
#[derive(Clone, PartialEq, Eq)]
pub struct ProcSet {
    bits: Vec<u64>,
    n: usize,
}

impl ProcSet {
    /// The empty set over a universe of `n` processes.
    pub fn empty(n: usize) -> Self {
        ProcSet {
            bits: vec![0; n.div_ceil(64)],
            n,
        }
    }

    /// The singleton `{p}`.
    pub fn singleton(n: usize, p: ProcessId) -> Self {
        let mut s = Self::empty(n);
        s.insert(p);
        s
    }

    /// Adds a process. Returns `true` if it was newly added.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside the universe.
    pub fn insert(&mut self, p: ProcessId) -> bool {
        assert!(
            p.index() < self.n,
            "process {p} outside universe {}",
            self.n
        );
        let (w, b) = (p.index() / 64, p.index() % 64);
        let was = self.bits[w] & (1 << b) != 0;
        self.bits[w] |= 1 << b;
        !was
    }

    /// Whether `p` is in the set.
    pub fn contains(&self, p: ProcessId) -> bool {
        if p.index() >= self.n {
            return false;
        }
        let (w, b) = (p.index() / 64, p.index() % 64);
        self.bits[w] & (1 << b) != 0
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &ProcSet) {
        debug_assert_eq!(self.n, other.n);
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }

    /// Number of processes in the set.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Iterates over members in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = ProcessId> + '_ {
        (0..self.n)
            .map(ProcessId)
            .filter(move |&p| self.contains(p))
    }

    /// Size of the intersection with `other`.
    pub fn intersection_len(&self, other: &ProcSet) -> usize {
        self.bits
            .iter()
            .zip(&other.bits)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }
}

impl fmt::Debug for ProcSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// A visible mutation's contribution to its object's familiarity set.
#[derive(Clone, Debug)]
struct Contribution {
    /// Sequence number of the contributing event.
    seq: usize,
    /// The issuer's awareness set at the time of the event.
    aware: ProcSet,
}

#[derive(Clone, Debug, Default)]
struct ObjState {
    contributions: Vec<Contribution>,
    /// `(seq, issuer)` of the most recent access to this object.
    last_access: Option<(usize, ProcessId)>,
}

/// Online tracker of awareness and familiarity sets.
///
/// Feed it every event of an execution in order
/// ([`observe`](FlowTracker::observe) or
/// [`observe_log_suffix`](FlowTracker::observe_log_suffix)); query
/// per-process awareness,
/// per-object familiarity, and the global knowledge measure `M(E)` of
/// Lemma 1 at any point.
#[derive(Clone, Debug)]
pub struct FlowTracker {
    aw: Vec<ProcSet>,
    objs: Vec<ObjState>,
    /// Sequence number of each process's most recent event.
    last_step: Vec<Option<usize>>,
    /// Number of events observed so far.
    observed: usize,
    n: usize,
}

impl FlowTracker {
    /// A tracker for `n` processes in the initial configuration: every
    /// process aware only of itself, every familiarity set empty.
    pub fn new(n: usize) -> Self {
        FlowTracker {
            aw: (0..n)
                .map(|p| ProcSet::singleton(n, ProcessId(p)))
                .collect(),
            objs: Vec::new(),
            last_step: vec![None; n],
            observed: 0,
            n,
        }
    }

    /// Number of processes in the universe.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of events observed.
    pub fn observed(&self) -> usize {
        self.observed
    }

    fn obj_mut(&mut self, o: ObjId) -> &mut ObjState {
        if o.index() >= self.objs.len() {
            self.objs.resize_with(o.index() + 1, ObjState::default);
        }
        &mut self.objs[o.index()]
    }

    /// Feeds one event. Events must arrive in execution order.
    ///
    /// # Panics
    ///
    /// Panics if events arrive out of order or the issuer is outside the
    /// universe.
    pub fn observe(&mut self, ev: &Event) {
        assert_eq!(ev.seq, self.observed, "events must be fed in order");
        self.observed += 1;
        let p = ev.pid;
        assert!(p.index() < self.n, "process {p} outside universe");
        let o = ev.obj();
        let n = self.n;
        let _ = n;

        // Reads and CASes observe the object: the issuer learns the
        // object's familiarity set (Def. 2 clause 1 + program order).
        if matches!(ev.prim, Prim::Read(_) | Prim::Cas { .. }) {
            let fam = self.familiarity(o);
            self.aw[p.index()].union_with(&fam);
        }

        // A write kills the previous access's contribution if that access
        // was the last event on the object and its issuer has not stepped
        // since (Def. 1's overwriting clause).
        if matches!(ev.prim, Prim::Write(..)) {
            let last = self.objs.get(o.index()).and_then(|s| s.last_access);
            if let Some((seq, issuer)) = last {
                let issuer_quiet = self.last_step[issuer.index()] == Some(seq);
                if issuer_quiet {
                    let st = self.obj_mut(o);
                    if let Some(pos) = st.contributions.iter().position(|c| c.seq == seq) {
                        st.contributions.remove(pos);
                    }
                }
            }
        }

        // A value-changing mutation contributes the issuer's (updated)
        // awareness to the object's familiarity (Def. 4).
        if ev.is_mutation_kind() && !ev.is_trivial() {
            let aware = self.aw[p.index()].clone();
            let seq = ev.seq;
            let st = self.obj_mut(o);
            st.contributions.push(Contribution { seq, aware });
        }

        let seq = ev.seq;
        self.obj_mut(o).last_access = Some((seq, p));
        self.last_step[p.index()] = Some(seq);
    }

    /// Feeds every not-yet-observed event of `log`.
    pub fn observe_log_suffix(&mut self, log: &EventLog) {
        for ev in &log.events()[self.observed..] {
            self.observe(ev);
        }
    }

    /// The awareness set `AW(p, E)` after the observed prefix.
    pub fn awareness(&self, p: ProcessId) -> &ProcSet {
        &self.aw[p.index()]
    }

    /// The familiarity set `F(o, E)` after the observed prefix.
    pub fn familiarity(&self, o: ObjId) -> ProcSet {
        let mut fam = ProcSet::empty(self.n);
        if let Some(st) = self.objs.get(o.index()) {
            for c in &st.contributions {
                fam.union_with(&c.aware);
            }
        }
        fam
    }

    /// Lemma 1's knowledge measure `M(E)`: the largest awareness or
    /// familiarity set.
    pub fn max_knowledge(&self) -> usize {
        let aw_max = self.aw.iter().map(ProcSet::len).max().unwrap_or(0);
        let fam_max = (0..self.objs.len())
            .map(|i| self.familiarity(ObjId::from_index(i)).len())
            .max()
            .unwrap_or(0);
        aw_max.max(fam_max)
    }

    /// Whether `p` is *hidden* (Def. 5): no other process is aware of it.
    pub fn is_hidden(&self, p: ProcessId) -> bool {
        self.aw
            .iter()
            .enumerate()
            .all(|(q, set)| q == p.index() || !set.contains(p))
    }

    /// How many processes of `set` object `o` is familiar with — the
    /// hidden-set condition requires this to be ≤ 1 for every object.
    pub fn familiar_members(&self, o: ObjId, set: &ProcSet) -> usize {
        self.familiarity(o).intersection_len(set)
    }

    /// Number of distinct objects with a nonempty familiarity set.
    pub fn tracked_objects(&self) -> usize {
        self.objs.len()
    }

    /// Sequence numbers of the events currently contributing to `o`'s
    /// familiarity set — i.e. the value-changing mutations of `o` that
    /// are *visible* (Def. 1) in the observed prefix. Exposed so tests
    /// can cross-check the online visibility bookkeeping against a
    /// brute-force oracle over the raw log.
    pub fn contribution_seqs(&self, o: ObjId) -> Vec<usize> {
        self.objs
            .get(o.index())
            .map(|st| st.contributions.iter().map(|c| c.seq).collect())
            .unwrap_or_default()
    }
}

/// Reference implementation of Definition 1 over a complete log: the
/// sequence numbers of `obj`'s *visible* value-changing mutations.
///
/// An event is visible iff it changed the object's value and it is not
/// "covered": covered means the next access to the object is a write
/// issued while the event's issuer stayed quiet. This is the brute-force
/// oracle the online [`FlowTracker`] is property-tested against
/// (`tests/proptest_flow.rs`); prefer the tracker for anything
/// performance-sensitive.
pub fn visible_mutations(events: &[Event], obj: ObjId) -> Vec<usize> {
    let mut out = Vec::new();
    for (i, e) in events.iter().enumerate() {
        if e.obj() != obj || !e.is_mutation_kind() || e.is_trivial() {
            continue;
        }
        let next = events[i + 1..].iter().find(|f| f.obj() == obj);
        let covered = match next {
            Some(f) if matches!(f.prim, Prim::Write(..)) => {
                !events[i + 1..f.seq].iter().any(|g| g.pid == e.pid)
            }
            _ => false,
        };
        if !covered {
            out.push(e.seq);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruo_sim::{Memory, Prim, ProcessId};

    /// A memory and the log of every event applied to it.
    struct Recorded {
        mem: Memory,
        log: EventLog,
    }

    impl Recorded {
        fn apply(&mut self, pid: ProcessId, prim: Prim) {
            let ev = self.mem.apply(pid, prim);
            self.log.push(ev);
        }
    }

    #[test]
    fn visible_mutations_oracle_matches_simple_cases() {
        let (mut mem, objs) = mk(1);
        let o = objs[0];
        mem.apply(ProcessId(0), Prim::Write(o, 1)); // seq 0: covered below
        mem.apply(ProcessId(1), Prim::Write(o, 2)); // seq 1: visible
        mem.apply(ProcessId(2), Prim::Read(o)); // seq 2: protects seq 1
        mem.apply(ProcessId(0), Prim::Write(o, 3)); // seq 3: visible (last)
        assert_eq!(visible_mutations(mem.log.events(), o), vec![1, 3]);
    }

    fn mk(n_objs: usize) -> (Recorded, Vec<ObjId>) {
        let mut mem = Memory::new();
        let objs = mem.alloc_n(n_objs, 0);
        let log = EventLog::new();
        (Recorded { mem, log }, objs)
    }

    fn feed(tracker: &mut FlowTracker, mem: &Recorded) {
        tracker.observe_log_suffix(&mem.log);
    }

    #[test]
    fn initially_everyone_knows_only_themselves() {
        let t = FlowTracker::new(3);
        for p in 0..3 {
            assert_eq!(t.awareness(ProcessId(p)).len(), 1);
            assert!(t.awareness(ProcessId(p)).contains(ProcessId(p)));
            assert!(t.is_hidden(ProcessId(p)));
        }
        assert_eq!(t.max_knowledge(), 1);
    }

    #[test]
    fn reading_a_written_object_creates_awareness() {
        let (mut mem, objs) = mk(1);
        let mut t = FlowTracker::new(2);
        mem.apply(ProcessId(0), Prim::Write(objs[0], 5));
        mem.apply(ProcessId(1), Prim::Read(objs[0]));
        feed(&mut t, &mem);
        assert!(t.awareness(ProcessId(1)).contains(ProcessId(0)));
        assert!(
            !t.awareness(ProcessId(0)).contains(ProcessId(1)),
            "writes leak nothing back"
        );
        assert!(!t.is_hidden(ProcessId(0)));
        assert!(t.is_hidden(ProcessId(1)));
    }

    #[test]
    fn familiarity_carries_transitive_knowledge() {
        // p0 writes o0; p1 reads o0 (aware of p0) then writes o1;
        // p2 reads o1 and must become aware of BOTH p1 and p0.
        let (mut mem, objs) = mk(2);
        let mut t = FlowTracker::new(3);
        mem.apply(ProcessId(0), Prim::Write(objs[0], 5));
        mem.apply(ProcessId(1), Prim::Read(objs[0]));
        mem.apply(ProcessId(1), Prim::Write(objs[1], 9));
        mem.apply(ProcessId(2), Prim::Read(objs[1]));
        feed(&mut t, &mem);
        let aw2 = t.awareness(ProcessId(2));
        assert!(aw2.contains(ProcessId(1)));
        assert!(
            aw2.contains(ProcessId(0)),
            "transitive awareness via familiarity"
        );
        assert_eq!(aw2.len(), 3);
    }

    #[test]
    fn trivial_events_are_invisible() {
        let (mut mem, objs) = mk(1);
        let mut t = FlowTracker::new(2);
        // A write of the current value (0) changes nothing.
        mem.apply(ProcessId(0), Prim::Write(objs[0], 0));
        mem.apply(ProcessId(1), Prim::Read(objs[0]));
        feed(&mut t, &mem);
        assert!(!t.awareness(ProcessId(1)).contains(ProcessId(0)));
    }

    #[test]
    fn failed_cas_is_invisible() {
        let (mut mem, objs) = mk(1);
        let mut t = FlowTracker::new(2);
        mem.apply(
            ProcessId(0),
            Prim::Cas {
                obj: objs[0],
                expected: 7,
                new: 9,
            },
        );
        mem.apply(ProcessId(1), Prim::Read(objs[0]));
        feed(&mut t, &mem);
        assert!(!t.awareness(ProcessId(1)).contains(ProcessId(0)));
    }

    #[test]
    fn successful_cas_is_visible_and_observes() {
        let (mut mem, objs) = mk(1);
        let mut t = FlowTracker::new(3);
        mem.apply(ProcessId(0), Prim::Write(objs[0], 5));
        // p1's CAS both reads (learns p0) and mutates (contributes).
        mem.apply(
            ProcessId(1),
            Prim::Cas {
                obj: objs[0],
                expected: 5,
                new: 6,
            },
        );
        mem.apply(ProcessId(2), Prim::Read(objs[0]));
        feed(&mut t, &mem);
        assert!(t.awareness(ProcessId(1)).contains(ProcessId(0)));
        let aw2 = t.awareness(ProcessId(2));
        assert!(aw2.contains(ProcessId(0)));
        assert!(aw2.contains(ProcessId(1)));
    }

    #[test]
    fn immediate_overwrite_hides_a_write() {
        // p0 writes, then p1 overwrites before anyone (including p0)
        // touches the object: p0's write is invisible (Def. 1), so a
        // later reader learns only about p1.
        let (mut mem, objs) = mk(1);
        let mut t = FlowTracker::new(3);
        mem.apply(ProcessId(0), Prim::Write(objs[0], 5));
        mem.apply(ProcessId(1), Prim::Write(objs[0], 6));
        mem.apply(ProcessId(2), Prim::Read(objs[0]));
        feed(&mut t, &mem);
        let aw2 = t.awareness(ProcessId(2));
        assert!(
            !aw2.contains(ProcessId(0)),
            "overwritten write must be invisible"
        );
        assert!(aw2.contains(ProcessId(1)));
    }

    #[test]
    fn intervening_read_protects_a_write() {
        // Same as above, but p2 reads BETWEEN the writes: p0's write was
        // visible when read.
        let (mut mem, objs) = mk(1);
        let mut t = FlowTracker::new(3);
        mem.apply(ProcessId(0), Prim::Write(objs[0], 5));
        mem.apply(ProcessId(2), Prim::Read(objs[0]));
        mem.apply(ProcessId(1), Prim::Write(objs[0], 6));
        feed(&mut t, &mem);
        assert!(t.awareness(ProcessId(2)).contains(ProcessId(0)));
    }

    #[test]
    fn issuer_step_protects_its_write() {
        // p0 writes o0 and then takes another step elsewhere before p1
        // overwrites: Def. 1 requires the issuer quiet, so the write
        // stays visible (contributed to familiarity while it was there).
        let (mut mem, objs) = mk(2);
        let mut t = FlowTracker::new(3);
        mem.apply(ProcessId(0), Prim::Write(objs[0], 5));
        mem.apply(ProcessId(0), Prim::Read(objs[1]));
        mem.apply(ProcessId(1), Prim::Write(objs[0], 6));
        mem.apply(ProcessId(2), Prim::Read(objs[0]));
        feed(&mut t, &mem);
        assert!(t.awareness(ProcessId(2)).contains(ProcessId(0)));
    }

    #[test]
    fn familiarity_reflects_writer_awareness_at_write_time() {
        let (mut mem, objs) = mk(2);
        let mut t = FlowTracker::new(3);
        // p1 becomes aware of p0, then writes o1: F(o1) ⊇ {p0, p1}.
        mem.apply(ProcessId(0), Prim::Write(objs[0], 1));
        mem.apply(ProcessId(1), Prim::Read(objs[0]));
        mem.apply(ProcessId(1), Prim::Write(objs[1], 2));
        feed(&mut t, &mem);
        let fam = t.familiarity(objs[1]);
        assert!(fam.contains(ProcessId(0)));
        assert!(fam.contains(ProcessId(1)));
        assert_eq!(fam.len(), 2);
    }

    #[test]
    fn max_knowledge_counts_largest_set() {
        let (mut mem, objs) = mk(1);
        let mut t = FlowTracker::new(4);
        mem.apply(ProcessId(0), Prim::Write(objs[0], 1));
        mem.apply(ProcessId(1), Prim::Read(objs[0]));
        mem.apply(ProcessId(2), Prim::Read(objs[0]));
        feed(&mut t, &mem);
        // AW(p1) = {p0,p1}; AW(p2) = {p0,p2}; F(o0) = {p0}.
        assert_eq!(t.max_knowledge(), 2);
    }

    #[test]
    fn procset_basics() {
        let mut s = ProcSet::empty(130);
        assert!(s.is_empty());
        assert!(s.insert(ProcessId(0)));
        assert!(s.insert(ProcessId(129)));
        assert!(!s.insert(ProcessId(0)), "double insert reports false");
        assert_eq!(s.len(), 2);
        assert!(s.contains(ProcessId(129)));
        assert!(!s.contains(ProcessId(64)));
        let members: Vec<_> = s.iter().collect();
        assert_eq!(members, vec![ProcessId(0), ProcessId(129)]);
        let mut t = ProcSet::singleton(130, ProcessId(64));
        t.union_with(&s);
        assert_eq!(t.len(), 3);
        assert_eq!(t.intersection_len(&s), 2);
    }
}
