//! Operations as step machines.
//!
//! An operation is an `async` body whose shared-memory accesses are
//! [`Access`] futures: the body suspends once on each access and resumes
//! with the event's response. A [`Machine`] owns the pinned body and the
//! access it is suspended on, which is the operation's one enabled event
//! — what the model requires ("if a process has not completed its
//! operation, it has exactly one enabled event"). The scheduler reads
//! the [`enabled`](Machine::enabled) event, applies it to memory, and
//! [`feed`](Machine::feed)s the response back; the body then runs to its
//! next access. The body is boxed once, when the machine is built, and a
//! step allocates nothing.
//!
//! ```
//! use ruo_sim::{access, Machine, Memory, ObjId, Prim, ProcessId, Word};
//!
//! /// `fetch_max(o, v)`: a CAS-loop that raises `o` to at least `v`.
//! async fn fetch_max(o: ObjId, v: Word) -> Word {
//!     loop {
//!         let cur = access(Prim::Read(o)).await;
//!         if cur >= v {
//!             return cur;
//!         }
//!         if access(Prim::Cas { obj: o, expected: cur, new: v }).await == cur {
//!             return v;
//!         }
//!     }
//! }
//!
//! let mut mem = Memory::new();
//! let o = mem.alloc(0);
//! let mut m = Machine::new(fetch_max(o, 7));
//! while let Some(prim) = m.enabled() {
//!     m.feed(mem.apply(ProcessId(0), prim).resp);
//! }
//! assert_eq!(mem.peek(o), 7);
//! assert_eq!((m.result(), m.steps()), (Some(7), 2));
//! ```
//!
//! An operation of one access, such as a one-load read of a root, needs
//! no body: [`Machine::single`] stores the primitive and a function of
//! its response, and never allocates.
//!
//! A solo run has no scheduler to interleave anything, so [`run_solo`]
//! does not suspend a body at every access. It applies the enabled
//! access, lends the memory to the thread's solo slot and feeds the
//! machine once; while the slot holds a memory, an access applies its
//! primitive to it at once, and the body runs to its end in that one
//! poll. The events, their order, the result and the step count are
//! those of stepping the machine event by event. The executor, the
//! explorer and the lower-bound adversaries never fill the slot, so
//! they still see one enabled event per access. A body builds no
//! machines of its own: one built inside a solo run applies its
//! accesses to the lent memory as it is built, and [`Machine::new`]
//! panics.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};

use crate::{Memory, Prim, ProcessId, Word};

// Where an [`Access`] and the machine polling its body hand over the
// event and its response. A body only runs inside a machine's poll, on
// the polling thread.
thread_local! {
    /// The primitive of the access the body suspended on.
    static ISSUED: Cell<Option<Prim>> = const { Cell::new(None) };
    /// The response for the access the body resumes on.
    static ANSWER: Cell<Option<Word>> = const { Cell::new(None) };
    /// The memory and process of the [`run_solo`] in progress, if any.
    static SOLO: RefCell<Option<Solo>> = const { RefCell::new(None) };
}

/// What a solo run lends its accesses: the memory they step on and the
/// process that takes the steps.
struct Solo {
    mem: Memory,
    pid: ProcessId,
}

/// One shared-memory access of an `async` body: the body suspends once
/// on it, and resumes with the event's response (read: the value;
/// write: `0`; CAS: its witness, which equals `expected` exactly when
/// the CAS succeeded). Inside
/// [`run_solo`] it does not suspend: it applies its primitive to the
/// solo run's memory and is ready with the response at once.
#[derive(Debug)]
#[must_use = "an access takes its step only when awaited"]
pub struct Access {
    prim: Prim,
    issued: bool,
}

/// An access of `prim`, for a body driven by a [`Machine`].
#[inline]
pub fn access(prim: Prim) -> Access {
    Access {
        prim,
        issued: false,
    }
}

impl Future for Access {
    type Output = Word;

    #[inline]
    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Word> {
        if self.issued {
            return Poll::Ready(ANSWER.take().expect("an access resumed without a response"));
        }
        let prim = self.prim;
        let solo = SOLO.with_borrow_mut(|solo| {
            solo.as_mut()
                .map(|Solo { mem, pid }| mem.apply(*pid, prim).resp)
        });
        if let Some(resp) = solo {
            return Poll::Ready(resp);
        }
        self.issued = true;
        ISSUED.set(Some(prim));
        Poll::Pending
    }
}

type Body = Pin<Box<dyn Future<Output = Word> + Send>>;

/// What the response of an operation's enabled access goes to.
enum Rest {
    /// The body suspended on the access.
    Body(Body),
    /// The map from the response to the result, for an operation of one
    /// access.
    Map(fn(Word) -> Word),
    /// Nothing: the operation has completed.
    Done,
}

/// One operation instance (e.g. one `WriteMax(v)` by one process),
/// driven event by event.
///
/// The scheduler asks for the [`enabled`](Machine::enabled) event,
/// applies it to memory, and [`feed`](Machine::feed)s the response back.
/// The operation's step count is the number of events it has taken: one
/// per `feed`, and under [`run_solo`] also each access its body applied
/// directly.
pub struct Machine {
    /// The enabled access; `None` once the operation has completed.
    enabled: Option<Prim>,
    rest: Rest,
    result: Word,
    steps: usize,
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("enabled", &self.enabled())
            .field("result", &self.result())
            .field("steps", &self.steps)
            .finish()
    }
}

impl Machine {
    /// The operation written as the `async` `body`: each awaited
    /// [`Access`] is one enabled event, and the body's output is the
    /// result. The body is boxed here, once.
    ///
    /// The body runs up to its first access at once, so the machine is
    /// already done only for a body that takes no step.
    ///
    /// # Panics
    ///
    /// Panics if called inside a body that [`run_solo`] is running: the
    /// new body's accesses applied themselves to the lent memory.
    ///
    /// ```
    /// use ruo_sim::{access, run_solo, Machine, Memory, Prim, ProcessId};
    ///
    /// let mut mem = Memory::new();
    /// let o = mem.alloc(41);
    /// let incr = Machine::new(async move {
    ///     let v = access(Prim::Read(o)).await;
    ///     access(Prim::Write(o, v + 1)).await;
    ///     v + 1
    /// });
    /// assert_eq!(run_solo(&mut mem, ProcessId(0), incr), (42, 2));
    /// ```
    pub fn new(body: impl Future<Output = Word> + Send + 'static) -> Self {
        let mut machine = Machine {
            enabled: None,
            rest: Rest::Body(Box::pin(body)),
            result: 0,
            steps: 0,
        };
        machine.poll();
        // A body that suspended, as every stepped one does, skips the check.
        assert!(
            !machine.is_done() || SOLO.with_borrow(Option::is_none),
            "Machine::new called inside a solo run: the new body's accesses \
             applied themselves to the solo run's memory"
        );
        machine
    }

    /// Runs the body up to its next access, or to its end. The body is
    /// polled in place: a step moves nothing but the primitive and the
    /// response.
    fn poll(&mut self) {
        let Rest::Body(body) = &mut self.rest else {
            unreachable!("only a body is polled");
        };
        match body.as_mut().poll(&mut Context::from_waker(Waker::noop())) {
            Poll::Ready(result) => self.finish(result),
            Poll::Pending => {
                self.enabled = ISSUED.take();
                assert!(
                    self.enabled.is_some(),
                    "a body suspended on something other than an access"
                );
            }
        }
    }

    fn finish(&mut self, result: Word) {
        self.enabled = None;
        self.rest = Rest::Done;
        self.result = result;
    }

    /// The operation of the one access `prim`, whose result is `map` of
    /// the response. It has no body and never allocates.
    ///
    /// ```
    /// use ruo_sim::{run_solo, Machine, Memory, Prim, ProcessId};
    ///
    /// let mut mem = Memory::new();
    /// let o = mem.alloc(-5);
    /// let read = Machine::single(Prim::Read(o), |w| w.max(0));
    /// assert_eq!(run_solo(&mut mem, ProcessId(0), read), (0, 1));
    /// ```
    pub fn single(prim: Prim, map: fn(Word) -> Word) -> Self {
        Machine {
            enabled: Some(prim),
            rest: Rest::Map(map),
            result: 0,
            steps: 0,
        }
    }

    /// A machine that is already done (for zero-step operations).
    pub fn completed(result: Word) -> Self {
        Machine {
            enabled: None,
            rest: Rest::Done,
            result,
            steps: 0,
        }
    }

    /// The operation's unique enabled event, or `None` if it has
    /// completed.
    pub fn enabled(&self) -> Option<Prim> {
        self.enabled
    }

    /// Whether the operation has completed.
    pub fn is_done(&self) -> bool {
        self.enabled.is_none()
    }

    /// The operation's result, if completed.
    pub fn result(&self) -> Option<Word> {
        self.enabled.is_none().then_some(self.result)
    }

    /// Number of shared-memory events this operation has taken.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Delivers the response of the enabled event, advancing the machine.
    ///
    /// Returns `true` if the operation completed as a result.
    ///
    /// # Panics
    ///
    /// Panics if the operation has already completed.
    pub fn feed(&mut self, resp: Word) -> bool {
        assert!(!self.is_done(), "feed called on a completed operation");
        self.steps += 1;
        match self.rest {
            Rest::Body(_) => {
                ANSWER.set(Some(resp));
                self.poll();
            }
            Rest::Map(map) => self.finish(map(resp)),
            Rest::Done => unreachable!("an enabled access has a rest"),
        }
        self.is_done()
    }
}

/// Drives a step machine to completion with no interference, returning
/// `(result, steps)` — the *solo step complexity* of the operation,
/// which is the measure used in all step-count tables.
///
/// A one-access machine is answered directly. A body is fed once: its
/// enabled access is applied here, and every later access applies
/// itself to `mem` as the body reaches it (see the module docs). The
/// result, the step count and `mem` afterwards equal those of stepping
/// the machine event by event, and `steps` counts the events the
/// machine had taken before, too.
///
/// This is the single shared driver for every sequential-sanity test and
/// solo-complexity measurement in the workspace; it lives here (rather
/// than in the bench crate) so that every crate can reach it without a
/// bench dependency.
///
/// # Panics
///
/// Panics if called from inside a body that `run_solo` is running, and
/// if the body suspends on something other than an access. `mem` keeps
/// every step applied before the panic.
// Inlined so that a one-step read compiles into its caller with no call
// and no `feed`: one-step reads then vary less with code placement. The
// body path stays out of line.
#[inline]
pub fn run_solo(mem: &mut Memory, pid: ProcessId, machine: Machine) -> (Word, usize) {
    match (machine.enabled, &machine.rest) {
        (Some(prim), Rest::Map(map)) => (map(mem.apply(pid, prim).resp), 1),
        _ => run_body_solo(mem, pid, machine),
    }
}

/// [`run_solo`] of a body, or of a machine that is already done.
#[inline(never)]
fn run_body_solo(mem: &mut Memory, pid: ProcessId, mut machine: Machine) -> (Word, usize) {
    if let Some(prim) = machine.enabled {
        let resp = mem.apply(pid, prim).resp;
        let before = mem.steps();
        let lent = Lent::new(mem, pid);
        machine.feed(resp);
        drop(lent);
        machine.steps += mem.steps() - before;
    }
    (
        machine
            .result()
            .expect("a solo run completes its operation"),
        machine.steps,
    )
}

/// A caller's memory lent to the thread's solo slot. Dropping it, also
/// on unwind, gives the memory back with every step applied to it and
/// clears the slot.
struct Lent<'a> {
    mem: &'a mut Memory,
}

impl<'a> Lent<'a> {
    fn new(mem: &'a mut Memory, pid: ProcessId) -> Self {
        SOLO.with_borrow_mut(|solo| {
            assert!(solo.is_none(), "run_solo called inside a solo run");
            *solo = Some(Solo {
                mem: std::mem::take(mem),
                pid,
            });
        });
        Lent { mem }
    }
}

impl Drop for Lent<'_> {
    fn drop(&mut self) {
        if let Some(solo) = SOLO.take() {
            *self.mem = solo.mem;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Memory, ObjId, ProcessId};

    fn read(o: ObjId) -> Access {
        access(Prim::Read(o))
    }

    fn cas(obj: ObjId, expected: Word, new: Word) -> Access {
        access(Prim::Cas { obj, expected, new })
    }

    #[test]
    fn straight_line_machine_counts_steps() {
        let mut mem = Memory::new();
        let a = mem.alloc(10);
        let b = mem.alloc(0);
        // read a; write a+1 to b; result a
        let m = Machine::new(async move {
            let v = read(a).await;
            access(Prim::Write(b, v + 1)).await;
            v
        });
        let (result, steps) = run_solo(&mut mem, ProcessId(0), m);
        assert_eq!(result, 10);
        assert_eq!(steps, 2);
        assert_eq!(mem.peek(b), 11);
    }

    #[test]
    fn cas_loop_terminates_solo() {
        async fn incr(o: ObjId) -> Word {
            loop {
                let v = read(o).await;
                if cas(o, v, v + 1).await == v {
                    return v + 1;
                }
            }
        }
        let mut mem = Memory::new();
        let o = mem.alloc(0);
        let (result, steps) = run_solo(&mut mem, ProcessId(0), Machine::new(incr(o)));
        assert_eq!(result, 1);
        assert_eq!(steps, 2);
    }

    #[test]
    fn completed_machine_has_no_enabled_event() {
        let m = Machine::completed(42);
        assert!(m.is_done());
        assert_eq!(m.enabled(), None);
        assert_eq!(m.result(), Some(42));
        assert_eq!(m.steps(), 0);
    }

    #[test]
    #[should_panic(expected = "completed operation")]
    fn feeding_a_done_machine_panics() {
        let mut m = Machine::completed(0);
        m.feed(0);
    }

    #[test]
    fn failed_cas_takes_the_retry_branch() {
        let mut mem = Memory::new();
        let o = mem.alloc(5);
        // CAS expecting 3 fails and witnesses 5; fall back to reading.
        let m = Machine::new(async move {
            assert_eq!(cas(o, 3, 9).await, 5);
            read(o).await
        });
        let (result, steps) = run_solo(&mut mem, ProcessId(0), m);
        assert_eq!(result, 5);
        assert_eq!(steps, 2);
    }

    #[test]
    fn single_access_machine_maps_its_response() {
        let mut mem = Memory::new();
        let o = mem.alloc(0);
        let mut m = Machine::single(
            Prim::Cas {
                obj: o,
                expected: 0,
                new: 4,
            },
            |witness| witness + 10,
        );
        assert_eq!(
            m.enabled(),
            Some(Prim::Cas {
                obj: o,
                expected: 0,
                new: 4
            })
        );
        assert!(m.feed(mem.apply(ProcessId(0), m.enabled().unwrap()).resp));
        assert_eq!((m.result(), m.steps()), (Some(10), 1));
        assert_eq!(mem.peek(o), 4);
    }

    #[test]
    fn body_issues_its_accesses_in_order() {
        async fn fetch_max(o: ObjId, v: Word) -> Word {
            loop {
                let cur = read(o).await;
                if cur >= v {
                    return cur;
                }
                if cas(o, cur, v).await == cur {
                    return v;
                }
            }
        }
        let mut mem = Memory::new();
        let o = mem.alloc(3);
        // Interleave two raisers event by event.
        let mut ms = [Machine::new(fetch_max(o, 7)), Machine::new(fetch_max(o, 7))];
        let mut log = crate::EventLog::new();
        while ms.iter().any(|m| !m.is_done()) {
            for (i, m) in ms.iter_mut().enumerate() {
                if let Some(prim) = m.enabled() {
                    let ev = mem.apply(ProcessId(i), prim);
                    log.push(ev);
                    m.feed(ev.resp);
                }
            }
        }
        let results: Vec<_> = ms.iter().map(|m| (m.result(), m.steps())).collect();
        assert_eq!(results, [(Some(7), 2), (Some(7), 3)]);
        // Both read 3, one CAS wins witnessing 3, the loser's CAS fails
        // witnessing 7, and it re-reads 7.
        let raise = Prim::Cas {
            obj: o,
            expected: 3,
            new: 7,
        };
        let events: Vec<_> = log
            .events()
            .iter()
            .map(|e| (e.pid.index(), e.prim, e.resp))
            .collect();
        assert_eq!(
            events,
            [
                (0, Prim::Read(o), 3),
                (1, Prim::Read(o), 3),
                (0, raise, 3),
                (1, raise, 7),
                (1, Prim::Read(o), 7),
            ]
        );
    }

    #[test]
    fn body_without_access_is_done_at_once() {
        let m = Machine::new(async { 5 });
        assert_eq!(m.result(), Some(5));
        assert_eq!(m.steps(), 0);
    }
}
