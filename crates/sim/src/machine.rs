//! Operations as step machines.
//!
//! Algorithms in the simulator are written in continuation-passing style:
//! each of [`read`], [`write`] and [`cas`] names the next shared-memory
//! event and a closure that receives its response and produces the rest
//! of the operation; [`done`] terminates with a result. This keeps
//! algorithm code close to the paper's pseudo-code while exposing exactly
//! one enabled event at a time — which is what the model requires ("if a
//! process has not completed its operation, it has exactly one enabled
//! event").
//!
//! ```
//! use ruo_sim::{read, cas, done, Machine, Memory, ProcessId, Step, ObjId, Word};
//!
//! /// `fetch_max(o, v)`: a CAS-loop that raises `o` to at least `v`.
//! fn fetch_max(o: ObjId, v: Word) -> Step {
//!     read(o, move |cur| {
//!         if cur >= v {
//!             done(cur)
//!         } else {
//!             cas(o, cur, v, move |ok| if ok == 1 { done(v) } else { fetch_max(o, v) })
//!         }
//!     })
//! }
//!
//! let mut mem = Memory::new();
//! let o = mem.alloc(0);
//! let mut m = Machine::new(fetch_max(o, 7));
//! while let Some(prim) = m.enabled() {
//!     let resp = mem.apply(ProcessId(0), prim);
//!     m.feed(resp);
//! }
//! assert_eq!(mem.peek(o), 7);
//! ```
//!
//! An operation can also be written once as an `async` body whose
//! shared-memory accesses are [`Access`] futures: [`body`] turns it into
//! the same step chain, one enabled event per access.

use std::cell::Cell;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};

use crate::{ObjId, Prim, Word};

/// The continuation of an operation after one event's response.
pub type BoxedStep = Box<dyn FnOnce(Word) -> Step + Send>;

/// The state of an in-progress operation: either one enabled event plus a
/// continuation, or a completed operation with its result.
pub enum Step {
    /// The operation's next (unique) enabled event, and what to do with
    /// its response.
    Pending {
        /// The enabled primitive.
        prim: Prim,
        /// Continuation receiving the primitive's response.
        k: BoxedStep,
    },
    /// The operation has completed with this result.
    Done(Word),
}

impl fmt::Debug for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Step::Pending { prim, .. } => f.debug_struct("Pending").field("prim", prim).finish(),
            Step::Done(v) => f.debug_tuple("Done").field(v).finish(),
        }
    }
}

/// A pending `read` event; `k` receives the value read.
pub fn read(obj: ObjId, k: impl FnOnce(Word) -> Step + Send + 'static) -> Step {
    Step::Pending {
        prim: Prim::Read(obj),
        k: Box::new(k),
    }
}

/// A pending `write` event; `k` runs after the write is applied.
pub fn write(obj: ObjId, value: Word, k: impl FnOnce() -> Step + Send + 'static) -> Step {
    Step::Pending {
        prim: Prim::Write(obj, value),
        k: Box::new(move |_| k()),
    }
}

/// A pending `CAS` event; `k` receives `1` if the swap succeeded, `0`
/// otherwise.
pub fn cas(
    obj: ObjId,
    expected: Word,
    new: Word,
    k: impl FnOnce(Word) -> Step + Send + 'static,
) -> Step {
    Step::Pending {
        prim: Prim::Cas { obj, expected, new },
        k: Box::new(k),
    }
}

/// Completes the operation with `result`.
pub fn done(result: Word) -> Step {
    Step::Done(result)
}

/// Where an [`Access`] and [`body`] hand over the event and its response.
/// A body only runs inside `body`'s poll, on the polling thread.
#[derive(Clone, Copy)]
enum Port {
    Idle,
    Issued(Prim),
    Answered(Word),
}

thread_local! {
    static PORT: Cell<Port> = const { Cell::new(Port::Idle) };
}

/// One shared-memory access of an `async` body: the body suspends once
/// on it, and resumes with the event's response (read: the value;
/// write: `0`; CAS: `1` on success, `0` on failure).
#[derive(Debug)]
#[must_use = "an access takes its step only when awaited"]
pub struct Access {
    prim: Prim,
    issued: bool,
}

/// An access of `prim`, for a body driven by [`body`].
pub fn access(prim: Prim) -> Access {
    Access {
        prim,
        issued: false,
    }
}

impl Future for Access {
    type Output = Word;

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Word> {
        if self.issued {
            match PORT.replace(Port::Idle) {
                Port::Answered(resp) => Poll::Ready(resp),
                _ => panic!("an access resumed without a response"),
            }
        } else {
            self.issued = true;
            PORT.set(Port::Issued(self.prim));
            Poll::Pending
        }
    }
}

type Body = Pin<Box<dyn Future<Output = Word> + Send>>;

/// An operation written as an `async` body: each awaited [`Access`] is
/// one enabled event, and the body's output is the result.
///
/// The body runs up to its first access at once, so the returned step
/// is `Done` only for a body that takes no step.
///
/// ```
/// use ruo_sim::{access, body, run_solo, Machine, Memory, Prim, ProcessId};
///
/// let mut mem = Memory::new();
/// let o = mem.alloc(41);
/// let incr = body(async move {
///     let v = access(Prim::Read(o)).await;
///     access(Prim::Write(o, v + 1)).await;
///     v + 1
/// });
/// assert_eq!(run_solo(&mut mem, ProcessId(0), Machine::new(incr)), (42, 2));
/// ```
pub fn body(fut: impl Future<Output = Word> + Send + 'static) -> Step {
    resume(Box::pin(fut))
}

fn resume(mut fut: Body) -> Step {
    match fut.as_mut().poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(result) => Step::Done(result),
        Poll::Pending => {
            let Port::Issued(prim) = PORT.replace(Port::Idle) else {
                panic!("a body suspended on something other than an access");
            };
            Step::Pending {
                prim,
                k: Box::new(move |resp| {
                    PORT.set(Port::Answered(resp));
                    resume(fut)
                }),
            }
        }
    }
}

/// Drives a [`Step`] chain event by event.
///
/// A `Machine` is one operation instance (e.g. one `WriteMax(v)` by one
/// process). The scheduler asks for the [`enabled`](Machine::enabled)
/// event, applies it to memory, and [`feed`](Machine::feed)s the response
/// back. The number of `feed` calls is the operation's step count.
#[derive(Debug)]
pub struct Machine {
    state: Option<Step>,
    steps: usize,
}

impl Machine {
    /// Wraps an operation's initial step.
    pub fn new(initial: Step) -> Self {
        Machine {
            state: Some(initial),
            steps: 0,
        }
    }

    /// A machine that is already done (for zero-step operations).
    pub fn completed(result: Word) -> Self {
        Machine {
            state: Some(Step::Done(result)),
            steps: 0,
        }
    }

    /// The operation's unique enabled event, or `None` if it has
    /// completed.
    pub fn enabled(&self) -> Option<Prim> {
        match self.state.as_ref().expect("machine state present") {
            Step::Pending { prim, .. } => Some(*prim),
            Step::Done(_) => None,
        }
    }

    /// Whether the operation has completed.
    pub fn is_done(&self) -> bool {
        matches!(self.state.as_ref(), Some(Step::Done(_)))
    }

    /// The operation's result, if completed.
    pub fn result(&self) -> Option<Word> {
        match self.state.as_ref() {
            Some(Step::Done(v)) => Some(*v),
            _ => None,
        }
    }

    /// Number of shared-memory events this operation has issued.
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
        match self.state.take().expect("machine state present") {
            Step::Pending { k, .. } => {
                self.steps += 1;
                let next = k(resp);
                let finished = matches!(next, Step::Done(_));
                self.state = Some(next);
                finished
            }
            Step::Done(_) => panic!("feed called on a completed operation"),
        }
    }
}

/// Drives a step machine to completion with no interference, returning
/// `(result, steps)` — the *solo step complexity* of the operation,
/// which is the measure used in all step-count tables.
///
/// This is the single shared driver for every sequential-sanity test and
/// solo-complexity measurement in the workspace; it lives here (rather
/// than in the bench crate) so that every crate can reach it without a
/// bench dependency.
pub fn run_solo(
    mem: &mut crate::Memory,
    pid: crate::ProcessId,
    mut machine: Machine,
) -> (Word, usize) {
    while let Some(prim) = machine.enabled() {
        let resp = mem.apply(pid, prim);
        machine.feed(resp);
    }
    (
        machine.result().expect("machine completed"),
        machine.steps(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Memory, ProcessId};

    #[test]
    fn straight_line_machine_counts_steps() {
        let mut mem = Memory::new();
        let a = mem.alloc(10);
        let b = mem.alloc(0);
        // read a; write a+1 to b; done(a)
        let m = Machine::new(read(a, move |v| write(b, v + 1, move || done(v))));
        let (result, steps) = run_solo(&mut mem, ProcessId(0), m);
        assert_eq!(result, 10);
        assert_eq!(steps, 2);
        assert_eq!(mem.peek(b), 11);
    }

    #[test]
    fn cas_loop_terminates_solo() {
        fn incr(o: ObjId) -> Step {
            read(o, move |v| {
                cas(
                    o,
                    v,
                    v + 1,
                    move |ok| if ok == 1 { done(v + 1) } else { incr(o) },
                )
            })
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
        // CAS expecting 3 fails; fall back to reading the value.
        let m = Machine::new(cas(o, 3, 9, move |ok| {
            assert_eq!(ok, 0);
            read(o, done)
        }));
        let (result, steps) = run_solo(&mut mem, ProcessId(0), m);
        assert_eq!(result, 5);
        assert_eq!(steps, 2);
    }

    #[test]
    fn body_takes_the_steps_of_its_cps_twin() {
        async fn fetch_max(o: ObjId, v: Word) -> Word {
            loop {
                let cur = access(Prim::Read(o)).await;
                if cur >= v {
                    return cur;
                }
                let cas = Prim::Cas {
                    obj: o,
                    expected: cur,
                    new: v,
                };
                if access(cas).await == 1 {
                    return v;
                }
            }
        }
        fn fetch_max_cps(o: ObjId, v: Word) -> Step {
            read(o, move |cur| {
                if cur >= v {
                    done(cur)
                } else {
                    cas(o, cur, v, move |ok| {
                        if ok == 1 {
                            done(v)
                        } else {
                            fetch_max_cps(o, v)
                        }
                    })
                }
            })
        }
        let run = |mk: &dyn Fn(ObjId) -> Step| {
            let mut mem = Memory::new();
            let o = mem.alloc(3);
            // Interleave two raisers event by event.
            let mut ms = [Machine::new(mk(o)), Machine::new(mk(o))];
            while ms.iter().any(|m| !m.is_done()) {
                for (i, m) in ms.iter_mut().enumerate() {
                    if let Some(prim) = m.enabled() {
                        let resp = mem.apply(ProcessId(i), prim);
                        m.feed(resp);
                    }
                }
            }
            let results: Vec<_> = ms.iter().map(|m| (m.result(), m.steps())).collect();
            (results, mem.log().events().to_vec())
        };
        let from_body = run(&|o| body(fetch_max(o, 7)));
        let from_cps = run(&|o| fetch_max_cps(o, 7));
        assert_eq!(from_body, from_cps);
        // Both read 3, one CAS wins, the loser's CAS fails and it
        // re-reads 7.
        assert_eq!(from_body.1.len(), 5);
    }

    #[test]
    fn body_without_access_is_done_at_once() {
        let m = Machine::new(body(async { 5 }));
        assert_eq!(m.result(), Some(5));
        assert_eq!(m.steps(), 0);
    }
}
