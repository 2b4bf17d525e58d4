//! The server: a worker pool serving registry objects over TCP.
//!
//! ## Architecture
//!
//! One acceptor thread blocks in `accept` and runs the
//! admission gate; `workers` worker threads pop admitted connections
//! from a bounded queue and serve them to completion. Worker `w` is
//! process identity `ProcessId(w)` on every object — one pid per
//! thread, exactly the single-writer discipline the paper's objects
//! require. All sockets carry read/write timeouts, so a stalled or
//! half-closed peer (chaos does both) can hold a worker for at most one
//! timeout, never forever.
//!
//! ## Wake protocol
//!
//! Nothing polls. A connection is admitted as soon as `accept` returns
//! it, an idle worker waits on the queue's condvar with no timeout, and
//! an idle server never wakes. [`Server::shutdown`] wakes both:
//!
//! - It stores `draining` while holding the queue lock, then broadcasts
//!   on the condvar. A worker checks the flag under that lock before it
//!   waits, so it either sees the flag or is already waiting when the
//!   broadcast comes; it cannot fall asleep after it.
//! - It then opens one loopback connection to the listener. `accept`
//!   returns it, and the acceptor, which checks `draining` after every
//!   accepted stream, returns and drops the stream unadmitted. Only a
//!   failed connect is retried: each extra connection would wait in the
//!   listen backlog, and a full backlog drops SYNs that the kernel
//!   resends only after a second.
//!
//! A worker serving a connection notices the drain at its next read,
//! within one `IO_TIMEOUT`.
//!
//! ## Degradation ladder
//!
//! 1. **Healthy** — every op is applied to the exact object and logged
//!    (invoke/response ticks from one global atomic) for the post-run
//!    linearizability audit.
//! 2. **Degraded** (queue depth ≥ `degrade_depth`) — counter reads are
//!    answered by a real k-multiplicative-accurate object
//!    ([`ApproxCounter`], mirroring every applied increment) and
//!    snapshot scans by the last exact scan, both flagged `degraded`;
//!    updates and max-register reads (already `O(1)`) stay exact. The
//!    shutdown audit holds every degraded counter answer to the
//!    configured k-envelope — the cheap tier has a *checked* contract,
//!    not a best-effort one.
//! 3. **Shedding** (queue full) — new connections get `err overload`
//!    and are closed at the gate.
//! 4. **Draining** — no new connections or requests (`err closed`);
//!    every in-flight request completes, is logged, *then* acked, so an
//!    acknowledged op can never be lost by shutdown.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use ruo_core::counter::ApproxCounter;
use ruo_core::Counter as _;
use ruo_metrics::{HealthEvent, HealthGauges, HealthSnapshot, MetricsRegistry};
use ruo_scenario::registry::{find, BuildError, BuildParams, Family, RealObject};
use ruo_sim::{OpDesc, OpOutput, ProcessId, Word};

use crate::audit::{audit, AuditReport, DegradedRead, LoggedOp, ObjectLog};
use crate::chaos::{ChaosStream, NetFaultPlan};
use crate::proto::{ErrCode, Request, Response, MAX_LINE_BYTES};
use crate::span::{spans_to_chrome_trace, spans_to_jsonl, RequestSpan, SpanRung};

/// Idempotency tokens remembered (the dedup window).
const DEDUP_WINDOW: usize = 4096;
/// Per-socket read/write timeout.
const IO_TIMEOUT: Duration = Duration::from_millis(50);
/// Consecutive read timeouts before an idle connection is closed.
const IDLE_POLLS: u32 = 40;
/// Accuracy factor `k` of the degraded counter tier: a degraded read
/// `v` against the true applied count `C` guarantees `C / k ≤ v ≤ C`,
/// and the shutdown audit enforces that envelope.
const ACCURACY_K: u64 = 4;

/// One object to serve, by registry coordinates.
#[derive(Debug, Clone)]
pub struct ObjectDef {
    /// Wire name clients address it by.
    pub name: String,
    /// Registry family.
    pub family: Family,
    /// Registry implementation id (`"farray"`, `"tree"`, …).
    pub impl_id: String,
    /// Capacity for bounded implementations.
    pub capacity: u64,
}

impl ObjectDef {
    /// A counter object.
    pub fn counter(name: &str, impl_id: &str) -> Self {
        ObjectDef {
            name: name.into(),
            family: Family::Counter,
            impl_id: impl_id.into(),
            capacity: 1 << 20,
        }
    }

    /// A max-register object.
    pub fn maxreg(name: &str, impl_id: &str) -> Self {
        ObjectDef {
            name: name.into(),
            family: Family::MaxReg,
            impl_id: impl_id.into(),
            capacity: 1 << 20,
        }
    }

    /// A snapshot object.
    pub fn snapshot(name: &str, impl_id: &str) -> Self {
        ObjectDef {
            name: name.into(),
            family: Family::Snapshot,
            impl_id: impl_id.into(),
            capacity: 1 << 20,
        }
    }
}

/// Server tuning knobs. [`ServeConfig::default`] is sized for tests and
/// the swarm smoke; production would scale `workers` with cores.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (= process identities on every object).
    pub workers: usize,
    /// Admitted-connection queue bound; the gate sheds above it.
    pub queue_cap: usize,
    /// Queue depth at which reads drop to the degraded tier.
    pub degrade_depth: usize,
    /// Longest a connection may wait in the queue before its first
    /// request is answered `err deadline`.
    pub deadline: Duration,
    /// Server-side chaos plan wrapped around every accepted socket.
    pub chaos: Option<NetFaultPlan>,
    /// Record a [`RequestSpan`] per served request (returned in
    /// [`ServeSummary::spans`]). Off by default: the hot path then pays
    /// nothing beyond the tick stamps it already takes for the audit
    /// log.
    pub spans: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_cap: 64,
            degrade_depth: 8,
            deadline: Duration::from_millis(250),
            chaos: None,
            spans: false,
        }
    }
}

/// Why the server failed to start.
#[derive(Debug)]
pub enum StartError {
    /// Socket setup failed.
    Io(io::Error),
    /// An [`ObjectDef`] named an unknown or real-faceless registry
    /// implementation.
    Build(BuildError),
    /// Config rejected (zero workers, duplicate object name, …).
    Config(String),
}

impl fmt::Display for StartError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StartError::Io(e) => write!(f, "serve start: {e}"),
            StartError::Build(e) => write!(f, "serve start: {e}"),
            StartError::Config(m) => write!(f, "serve start: {m}"),
        }
    }
}

impl std::error::Error for StartError {}

impl From<io::Error> for StartError {
    fn from(e: io::Error) -> Self {
        StartError::Io(e)
    }
}

/// The cheap overload tier backing degraded answers.
enum Shadow {
    /// The HKM k-accurate counter mirroring every applied increment: a
    /// degraded read is one published-stripe sweep, no propagation-tree
    /// traffic, and the answer carries a checkable `C/k ≤ v ≤ C`
    /// contract (audited at shutdown).
    Counter(ApproxCounter),
    /// Max registers never degrade (`read_max` is already one load).
    None,
    /// Last exact scan; a degraded scan replays it.
    Scan(Mutex<Vec<u64>>),
}

struct ServedObject {
    name: String,
    family: Family,
    n: usize,
    obj: RealObject,
    shadow: Shadow,
    log: Mutex<Vec<LoggedOp>>,
    degraded: Mutex<Vec<DegradedRead>>,
}

impl ServedObject {
    fn into_log(self) -> ObjectLog {
        ObjectLog {
            name: self.name,
            family: self.family,
            n: self.n,
            ops: self.log.into_inner().unwrap(),
            degraded: self.degraded.into_inner().unwrap(),
            accuracy_k: ACCURACY_K,
        }
    }
}

struct PendingConn {
    stream: ChaosStream<TcpStream>,
    enqueued: Instant,
    conn_id: u64,
    accept_tick: u64,
    enqueue_tick: u64,
}

/// Bounded FIFO idempotency window: remembers the last
/// `cap` tokens. A token is *reserved* before its increment is applied,
/// so two concurrent replays can never both apply.
struct DedupWindow {
    seen: HashMap<String, ()>,
    order: VecDeque<String>,
    cap: usize,
}

impl DedupWindow {
    fn new(cap: usize) -> Self {
        DedupWindow {
            seen: HashMap::new(),
            order: VecDeque::new(),
            cap: cap.max(1),
        }
    }

    /// True if the token was already present; reserves it otherwise.
    fn check_and_reserve(&mut self, token: &str) -> bool {
        if self.seen.contains_key(token) {
            return true;
        }
        if self.order.len() == self.cap {
            if let Some(old) = self.order.pop_front() {
                self.seen.remove(&old);
            }
        }
        self.seen.insert(token.to_string(), ());
        self.order.push_back(token.to_string());
        false
    }
}

struct Inner {
    cfg: ServeConfig,
    objects: Vec<ServedObject>,
    queue: Mutex<VecDeque<PendingConn>>,
    queue_cv: Condvar,
    queue_depth: AtomicUsize,
    inflight: AtomicU64,
    draining: AtomicBool,
    tick: AtomicU64,
    conn_ids: AtomicU64,
    dedup: Mutex<DedupWindow>,
    gauges: Arc<HealthGauges>,
    /// Self-describing telemetry over the health gauges; the `metrics`
    /// verb answers with a snapshot of this (see [`crate::proto`]).
    registry: MetricsRegistry,
    /// Request spans, recorded only when [`ServeConfig::spans`] is on.
    spans: Mutex<Vec<RequestSpan>>,
}

impl Inner {
    fn object(&self, name: &str) -> Option<&ServedObject> {
        self.objects.iter().find(|o| o.name == name)
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::SeqCst)
    }
}

/// Everything the server knows at shutdown.
#[derive(Debug)]
pub struct ServeSummary {
    /// Per-object op logs, ready for [`audit`].
    pub logs: Vec<ObjectLog>,
    /// Final health-gauge totals.
    pub health: HealthSnapshot,
    /// Final exact value of every counter and max register (counters
    /// report their count; used by drain checks: applied must be ≥
    /// acked).
    pub final_values: Vec<(String, u64)>,
    /// Request-lifecycle spans, in recording order (empty unless
    /// [`ServeConfig::spans`] was on).
    pub spans: Vec<RequestSpan>,
}

impl ServeSummary {
    /// Replays every object's log through the interval checker.
    pub fn audit(&self) -> AuditReport {
        audit(&self.logs)
    }

    /// The final exact value of the named object, if it has one.
    pub fn final_value(&self, name: &str) -> Option<u64> {
        self.final_values
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The recorded spans as JSONL (schema `ruo-serve-span-v1`).
    pub fn spans_to_jsonl(&self) -> String {
        spans_to_jsonl(&self.spans)
    }

    /// The recorded spans as Chrome `trace_event` JSON.
    pub fn spans_to_chrome_trace(&self) -> String {
        spans_to_chrome_trace(&self.spans)
    }
}

/// A running server. Dropping it without [`Server::shutdown`] leaks the
/// threads; call `shutdown` to drain and collect the op logs.
pub struct Server {
    inner: Arc<Inner>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    addr: SocketAddr,
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl Server {
    /// Builds the objects and starts the acceptor + worker pool on
    /// `127.0.0.1` (ephemeral port — see [`Server::addr`]).
    pub fn start(cfg: ServeConfig, defs: &[ObjectDef]) -> Result<Server, StartError> {
        if cfg.workers == 0 {
            return Err(StartError::Config("workers must be >= 1".into()));
        }
        if defs.is_empty() {
            return Err(StartError::Config("no objects to serve".into()));
        }
        let mut objects = Vec::with_capacity(defs.len());
        for def in defs {
            if objects.iter().any(|o: &ServedObject| o.name == def.name) {
                return Err(StartError::Config(format!(
                    "duplicate object name {:?}",
                    def.name
                )));
            }
            let entry = find(def.family, &def.impl_id).map_err(StartError::Build)?;
            let obj = entry
                .build_real(&BuildParams {
                    n: cfg.workers,
                    capacity: def.capacity,
                    root_fast_path: false,
                    // The served object is the *exact* tier; only the
                    // shadow below relaxes.
                    accuracy_k: 1,
                })
                .map_err(StartError::Build)?;
            let shadow = match def.family {
                Family::Counter => Shadow::Counter(ApproxCounter::new(cfg.workers, ACCURACY_K)),
                Family::MaxReg => Shadow::None,
                Family::Snapshot => Shadow::Scan(Mutex::new(vec![0; cfg.workers])),
            };
            objects.push(ServedObject {
                name: def.name.clone(),
                family: def.family,
                n: cfg.workers,
                obj,
                shadow,
                log: Mutex::new(Vec::new()),
                degraded: Mutex::new(Vec::new()),
            });
        }

        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;

        let n_workers = cfg.workers;
        // One gauge identity per worker plus the acceptor; the registry
        // reads each scalar with one root load.
        let gauges = Arc::new(HealthGauges::new(n_workers + 1));
        let mut registry = MetricsRegistry::new();
        gauges.register_telemetry(&mut registry, "");
        let inner = Arc::new(Inner {
            gauges,
            registry,
            spans: Mutex::new(Vec::new()),
            dedup: Mutex::new(DedupWindow::new(DEDUP_WINDOW)),
            cfg,
            objects,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            queue_depth: AtomicUsize::new(0),
            inflight: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            tick: AtomicU64::new(0),
            conn_ids: AtomicU64::new(0),
        });

        let acceptor = {
            let inner = Arc::clone(&inner);
            thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(&inner, listener))?
        };
        let mut workers = Vec::with_capacity(n_workers);
        for w in 0..n_workers {
            let inner = Arc::clone(&inner);
            workers.push(
                thread::Builder::new()
                    .name(format!("serve-worker-{w}"))
                    .spawn(move || worker_loop(&inner, w))?,
            );
        }
        Ok(Server {
            inner,
            acceptor: Some(acceptor),
            workers,
            addr,
        })
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current health totals.
    pub fn health(&self) -> HealthSnapshot {
        self.inner.gauges.snapshot()
    }

    /// Drains and stops the server: the gate closes, queued connections
    /// are answered `err closed`, in-flight requests complete and are
    /// acked, threads join. Returns the op logs and final state.
    pub fn shutdown(mut self) -> ServeSummary {
        {
            let _q = self.inner.queue.lock().unwrap();
            self.inner.draining.store(true, Ordering::SeqCst);
        }
        self.inner.queue_cv.notify_all();
        if let Some(a) = self.acceptor.take() {
            // Held open until the acceptor is joined.
            let _wake = wake_acceptor(self.addr, &a);
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        let inner = Arc::try_unwrap(self.inner)
            .unwrap_or_else(|_| panic!("server threads still hold the state after join"));
        let health = inner.gauges.snapshot();
        let spans = inner.spans.into_inner().unwrap();
        let mut final_values = Vec::new();
        let mut logs = Vec::new();
        for o in inner.objects {
            match &o.obj {
                RealObject::Counter(c) => final_values.push((o.name.clone(), c.read())),
                RealObject::MaxReg(m) => final_values.push((o.name.clone(), m.read_max())),
                RealObject::Snapshot(_) => {}
            }
            logs.push(o.into_log());
        }
        ServeSummary {
            logs,
            health,
            final_values,
            spans,
        }
    }
}

fn accept_loop(inner: &Inner, listener: TcpListener) {
    let pid = ProcessId(inner.cfg.workers); // the acceptor's gauge identity
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) => {
                if inner.draining.load(Ordering::SeqCst) {
                    return;
                }
                // Back off from a failing accept (out of descriptors, …).
                thread::sleep(Duration::from_millis(1));
                continue;
            }
        };
        if inner.draining.load(Ordering::SeqCst) {
            // The drain's wake connection or a late arrival: dropped
            // unadmitted.
            return;
        }
        let conn_id = inner.conn_ids.fetch_add(1, Ordering::Relaxed);
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
        let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
        let depth = inner.queue_depth.load(Ordering::Relaxed);
        inner.gauges.record_queue_depth(pid, depth as u64 + 1);
        if depth >= inner.cfg.queue_cap {
            // Shed at the gate: one best-effort refusal line.
            inner.gauges.bump(pid, HealthEvent::Shed);
            let mut s = stream;
            let _ = s.write_all(b"err overload\n");
            continue;
        }
        inner.gauges.bump(pid, HealthEvent::Admitted);
        let accept_tick = inner.next_tick();
        let wrapped = match &inner.cfg.chaos {
            Some(plan) => ChaosStream::new(stream, plan, conn_id),
            None => ChaosStream::passthrough(stream),
        };
        let enqueue_tick = inner.next_tick();
        let mut q = inner.queue.lock().unwrap();
        q.push_back(PendingConn {
            stream: wrapped,
            enqueued: Instant::now(),
            conn_id,
            accept_tick,
            enqueue_tick,
        });
        inner.queue_depth.store(q.len(), Ordering::Relaxed);
        drop(q);
        inner.queue_cv.notify_one();
    }
}

/// Returns the acceptor from its blocking `accept` with one loopback
/// connection to `addr` (see the module's wake protocol). The caller
/// holds the stream open until it has joined the acceptor. A failed
/// connect is retried only while the acceptor still runs; a successful
/// one never is.
fn wake_acceptor(addr: SocketAddr, acceptor: &JoinHandle<()>) -> Option<TcpStream> {
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Some(stream),
            Err(_) if acceptor.is_finished() => return None,
            Err(_) => thread::sleep(Duration::from_millis(1)),
        }
    }
}

fn worker_loop(inner: &Inner, w: usize) {
    let pid = ProcessId(w);
    loop {
        let conn = {
            let mut q = inner.queue.lock().unwrap();
            loop {
                if let Some(c) = q.pop_front() {
                    inner.queue_depth.store(q.len(), Ordering::Relaxed);
                    break c;
                }
                if inner.draining.load(Ordering::SeqCst) {
                    return;
                }
                q = inner.queue_cv.wait(q).unwrap();
            }
        };
        let draining = inner.draining.load(Ordering::SeqCst);
        let dequeue_tick = inner.next_tick();
        let ctx = ConnCtx {
            conn_id: conn.conn_id,
            accept_tick: conn.accept_tick,
            enqueue_tick: conn.enqueue_tick,
            dequeue_tick,
        };
        let mut stream = conn.stream;
        if draining {
            let _ = stream.write_all(b"err closed\n");
            continue;
        }
        if conn.enqueued.elapsed() > inner.cfg.deadline {
            // The connection aged out before any worker reached it.
            inner.gauges.bump(pid, HealthEvent::DeadlineMiss);
            let _ = stream.write_all(b"err deadline\n");
            continue;
        }
        serve_conn(inner, pid, &mut stream, &ctx);
        for _ in 0..stream.injected() {
            inner.gauges.bump(pid, HealthEvent::ChaosInjected);
        }
    }
}

/// Connection-level span context: the ticks stamped before the worker
/// started reading requests off the connection.
struct ConnCtx {
    conn_id: u64,
    accept_tick: u64,
    enqueue_tick: u64,
    dequeue_tick: u64,
}

/// Reads newline-framed lines off a raw stream, carrying partial frames
/// between reads. Returns `Ok(None)` on clean EOF.
struct LineReader {
    carry: Vec<u8>,
}

impl LineReader {
    fn new() -> Self {
        LineReader { carry: Vec::new() }
    }

    fn next_line<S: Read>(&mut self, s: &mut S) -> io::Result<Option<String>> {
        loop {
            if let Some(pos) = self.carry.iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.carry.drain(..=pos).collect();
                line.pop(); // the newline
                return match String::from_utf8(line) {
                    Ok(l) => Ok(Some(l)),
                    Err(_) => Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "non-utf8 request line",
                    )),
                };
            }
            if self.carry.len() > MAX_LINE_BYTES {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "line exceeds MAX_LINE_BYTES",
                ));
            }
            let mut chunk = [0u8; 4096];
            match s.read(&mut chunk) {
                Ok(0) => return Ok(None),
                Ok(n) => self.carry.extend_from_slice(&chunk[..n]),
                Err(e) => return Err(e),
            }
        }
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn serve_conn(inner: &Inner, pid: ProcessId, stream: &mut ChaosStream<TcpStream>, ctx: &ConnCtx) {
    let mut reader = LineReader::new();
    let mut idle: u32 = 0;
    let mut seq: u64 = 0;
    loop {
        if inner.draining.load(Ordering::SeqCst) {
            let _ = stream.write_all(b"err closed\n");
            return;
        }
        let line = match reader.next_line(stream) {
            Ok(None) => return, // peer closed
            Ok(Some(line)) => {
                idle = 0;
                line
            }
            Err(e) if is_timeout(&e) => {
                idle += 1;
                if idle > IDLE_POLLS {
                    return; // idle connection reaped
                }
                continue;
            }
            Err(_) => {
                inner.gauges.bump(pid, HealthEvent::IoError);
                return;
            }
        };
        let inflight = inner.inflight.fetch_add(1, Ordering::Relaxed) + 1;
        inner.gauges.record_inflight(pid, inflight);
        // Rung annotation: the tier this request *entered* handling at.
        // The response's own `degraded` flag says whether the answer
        // actually came from the cheap tier (max-register reads stay
        // exact even on the degraded rung).
        let (execute_tick, rung) = if inner.cfg.spans {
            let rung = if inner.draining.load(Ordering::SeqCst) {
                SpanRung::Draining
            } else if overloaded(inner) {
                SpanRung::Degraded
            } else {
                SpanRung::Healthy
            };
            (inner.next_tick(), rung)
        } else {
            (0, SpanRung::Healthy)
        };
        let resp = handle(inner, pid, &line);
        inner.inflight.fetch_sub(1, Ordering::Relaxed);
        inner.gauges.bump(pid, HealthEvent::Served);
        let mut out = resp.encode();
        out.push('\n');
        let write_ok = stream.write_all(out.as_bytes()).is_ok();
        if inner.cfg.spans {
            let ack_tick = inner.next_tick();
            let verb = match &resp {
                Response::Err {
                    code: ErrCode::Parse,
                    ..
                } => "invalid".to_string(),
                _ => line.split(' ').next().unwrap_or("").to_string(),
            };
            let degraded = matches!(
                resp,
                Response::Value { degraded: true, .. } | Response::Vector { degraded: true, .. }
            );
            let outcome = if !write_ok {
                "write_failed".to_string()
            } else {
                match &resp {
                    Response::Err { code, .. } => format!("err {}", code.name()),
                    Response::Pong => "pong".to_string(),
                    _ => "ok".to_string(),
                }
            };
            inner.spans.lock().unwrap().push(RequestSpan {
                conn_id: ctx.conn_id,
                seq,
                worker: pid.0,
                verb,
                accept_tick: ctx.accept_tick,
                enqueue_tick: ctx.enqueue_tick,
                dequeue_tick: ctx.dequeue_tick,
                execute_tick,
                ack_tick,
                rung,
                degraded,
                chaos_injected: stream.injected(),
                outcome,
            });
        }
        seq += 1;
        if !write_ok {
            // The op (if any) is applied and logged; only the ack was
            // lost. The client's retry will dedup.
            inner.gauges.bump(pid, HealthEvent::IoError);
            return;
        }
    }
}

fn unsupported(detail: &str) -> Response {
    Response::Err {
        code: ErrCode::Unsupported,
        detail: detail.into(),
    }
}

/// Serving-side value bound: the audit log stores [`Word`]s (`i64`), so
/// wire values above `i64::MAX` are rejected rather than wrapped.
const MAX_VALUE: u64 = i64::MAX as u64;

/// Most increments one request may carry — bounds worker occupancy per
/// request.
const MAX_INCR_BATCH: u64 = 4096;

fn handle(inner: &Inner, pid: ProcessId, line: &str) -> Response {
    let req = match Request::parse(line) {
        Ok(r) => r,
        Err(e) => {
            inner.gauges.bump(pid, HealthEvent::ParseError);
            return Response::Err {
                code: ErrCode::Parse,
                detail: e.detail,
            };
        }
    };
    match req {
        Request::Ping => Response::Pong,
        // One wait-free registry snapshot (one root load per scalar),
        // already in the ascending-key order the wire format demands.
        Request::Metrics => Response::Metrics(inner.registry.snapshot().pairs()),
        Request::Incr { obj, k, token } => {
            let Some(served) = inner.object(&obj) else {
                return no_object(&obj);
            };
            let RealObject::Counter(counter) = &served.obj else {
                return unsupported("incr targets a counter");
            };
            if k > MAX_INCR_BATCH {
                return unsupported("incr count too large");
            }
            if let Some(token) = &token {
                let hit = inner.dedup.lock().unwrap().check_and_reserve(token);
                if hit {
                    inner.gauges.bump(pid, HealthEvent::DedupHit);
                    // Replay of an already-applied increment: ack
                    // without re-applying or re-logging.
                    return Response::Ok;
                }
            }
            let invoke = inner.next_tick();
            let Shadow::Counter(shadow) = &served.shadow else {
                unreachable!("counter objects carry a counter shadow");
            };
            for _ in 0..k {
                counter.increment(pid);
                shadow.increment(pid);
            }
            let response = inner.next_tick();
            let mut log = served.log.lock().unwrap();
            for _ in 0..k {
                log.push(LoggedOp {
                    pid: pid.0,
                    desc: OpDesc::CounterIncrement,
                    invoke,
                    response,
                    output: OpOutput::Unit,
                });
            }
            Response::Ok
        }
        Request::WriteMax { obj, v } => {
            let Some(served) = inner.object(&obj) else {
                return no_object(&obj);
            };
            let RealObject::MaxReg(reg) = &served.obj else {
                return unsupported("write_max targets a max register");
            };
            if v > MAX_VALUE {
                return unsupported("value too large");
            }
            let invoke = inner.next_tick();
            reg.write_max(pid, v);
            let response = inner.next_tick();
            served.log.lock().unwrap().push(LoggedOp {
                pid: pid.0,
                desc: OpDesc::WriteMax(v as Word),
                invoke,
                response,
                output: OpOutput::Unit,
            });
            Response::Ok
        }
        Request::Update { obj, v } => {
            let Some(served) = inner.object(&obj) else {
                return no_object(&obj);
            };
            let RealObject::Snapshot(snap) = &served.obj else {
                return unsupported("update targets a snapshot");
            };
            if v > MAX_VALUE {
                return unsupported("value too large");
            }
            let invoke = inner.next_tick();
            snap.update(pid, v);
            let response = inner.next_tick();
            served.log.lock().unwrap().push(LoggedOp {
                pid: pid.0,
                desc: OpDesc::Update(v as Word),
                invoke,
                response,
                output: OpOutput::Unit,
            });
            Response::Ok
        }
        Request::Read { obj } => {
            let Some(served) = inner.object(&obj) else {
                return no_object(&obj);
            };
            match &served.obj {
                RealObject::Counter(counter) => {
                    if overloaded(inner) {
                        let Shadow::Counter(shadow) = &served.shadow else {
                            unreachable!("counter objects carry a counter shadow");
                        };
                        let invoke = inner.next_tick();
                        let v = shadow.read();
                        let response = inner.next_tick();
                        // Realized (not configured) accuracy, for the
                        // metrics watermark: how far the published
                        // stripes currently trail the exact mirror.
                        let exact = shadow.exact();
                        if let Some(permille) = (exact.saturating_sub(v))
                            .saturating_mul(1000)
                            .checked_div(exact)
                        {
                            inner.gauges.record_degraded_error(pid, permille);
                        }
                        inner.gauges.bump(pid, HealthEvent::DegradedRead);
                        served.degraded.lock().unwrap().push(DegradedRead {
                            invoke,
                            response,
                            output: OpOutput::Value(v as Word),
                        });
                        return Response::Value { v, degraded: true };
                    }
                    let invoke = inner.next_tick();
                    let v = counter.read();
                    let response = inner.next_tick();
                    served.log.lock().unwrap().push(LoggedOp {
                        pid: pid.0,
                        desc: OpDesc::CounterRead,
                        invoke,
                        response,
                        output: OpOutput::Value(v as Word),
                    });
                    Response::Value { v, degraded: false }
                }
                RealObject::MaxReg(reg) => {
                    // Already one atomic load — never degrades.
                    let invoke = inner.next_tick();
                    let v = reg.read_max();
                    let response = inner.next_tick();
                    served.log.lock().unwrap().push(LoggedOp {
                        pid: pid.0,
                        desc: OpDesc::ReadMax,
                        invoke,
                        response,
                        output: OpOutput::Value(v as Word),
                    });
                    Response::Value { v, degraded: false }
                }
                RealObject::Snapshot(_) => unsupported("snapshots are read with scan"),
            }
        }
        Request::Scan { obj } => {
            let Some(served) = inner.object(&obj) else {
                return no_object(&obj);
            };
            let RealObject::Snapshot(snap) = &served.obj else {
                return unsupported("scan targets a snapshot");
            };
            let Shadow::Scan(cache) = &served.shadow else {
                unreachable!("snapshot objects carry a scan shadow");
            };
            if overloaded(inner) {
                let invoke = inner.next_tick();
                let vs = cache.lock().unwrap().clone();
                let response = inner.next_tick();
                inner.gauges.bump(pid, HealthEvent::DegradedRead);
                served.degraded.lock().unwrap().push(DegradedRead {
                    invoke,
                    response,
                    output: OpOutput::Vector(vs.iter().map(|&v| v as Word).collect()),
                });
                return Response::Vector { vs, degraded: true };
            }
            let invoke = inner.next_tick();
            let vs = snap.scan();
            let response = inner.next_tick();
            served.log.lock().unwrap().push(LoggedOp {
                pid: pid.0,
                desc: OpDesc::Scan,
                invoke,
                response,
                output: OpOutput::Vector(vs.iter().map(|&v| v as Word).collect()),
            });
            *cache.lock().unwrap() = vs.clone();
            Response::Vector {
                vs,
                degraded: false,
            }
        }
    }
}

fn overloaded(inner: &Inner) -> bool {
    inner.queue_depth.load(Ordering::Relaxed) >= inner.cfg.degrade_depth
}

fn no_object(name: &str) -> Response {
    Response::Err {
        code: ErrCode::NoObject,
        detail: format!("no such object {name}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    fn small_server(defs: &[ObjectDef]) -> Server {
        Server::start(
            ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            },
            defs,
        )
        .unwrap()
    }

    fn roundtrip(stream: &mut TcpStream, reader: &mut impl BufRead, req: &str) -> String {
        stream.write_all(format!("{req}\n").as_bytes()).unwrap();
        let mut line = String::new();
        loop {
            match reader.read_line(&mut line) {
                Ok(0) => panic!("server closed while waiting for {req:?}"),
                Ok(_) => break,
                Err(e) if is_timeout(&e) => continue,
                Err(e) => panic!("read failed: {e}"),
            }
        }
        line.trim_end().to_string()
    }

    fn connect(server: &Server) -> (TcpStream, io::BufReader<TcpStream>) {
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let reader = io::BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    }

    #[test]
    fn serves_counter_maxreg_snapshot_end_to_end() {
        let server = small_server(&[
            ObjectDef::counter("hits", "farray"),
            ObjectDef::maxreg("peak", "tree"),
            ObjectDef::snapshot("segments", "double_collect"),
        ]);
        let (mut s, mut r) = connect(&server);
        assert_eq!(roundtrip(&mut s, &mut r, "ping"), "pong");
        assert_eq!(roundtrip(&mut s, &mut r, "incr hits 3"), "ok");
        assert_eq!(roundtrip(&mut s, &mut r, "read hits"), "ok 3");
        assert_eq!(roundtrip(&mut s, &mut r, "write_max peak 41"), "ok");
        assert_eq!(roundtrip(&mut s, &mut r, "write_max peak 7"), "ok");
        assert_eq!(roundtrip(&mut s, &mut r, "read peak"), "ok 41");
        assert_eq!(roundtrip(&mut s, &mut r, "update segments 9"), "ok");
        let scan = roundtrip(&mut s, &mut r, "scan segments");
        assert!(scan == "ok 9,0" || scan == "ok 0,9", "scan: {scan}");
        let metrics = roundtrip(&mut s, &mut r, "metrics");
        assert!(metrics.contains("served="), "metrics: {metrics}");
        drop((s, r));
        let summary = server.shutdown();
        assert_eq!(summary.final_value("hits"), Some(3));
        assert_eq!(summary.final_value("peak"), Some(41));
        let report = summary.audit();
        assert!(report.ok(), "{report}");
    }

    #[test]
    fn semantic_errors_do_not_kill_the_connection() {
        let server = small_server(&[ObjectDef::counter("hits", "farray")]);
        let (mut s, mut r) = connect(&server);
        assert_eq!(
            roundtrip(&mut s, &mut r, "read ghost"),
            "err no_object no such object ghost"
        );
        assert!(roundtrip(&mut s, &mut r, "scan hits").starts_with("err unsupported"));
        assert!(roundtrip(&mut s, &mut r, "bogus line").starts_with("err parse"));
        assert!(roundtrip(&mut s, &mut r, "write_max hits 1").starts_with("err unsupported"));
        // Still alive:
        assert_eq!(roundtrip(&mut s, &mut r, "incr hits 1"), "ok");
        assert_eq!(roundtrip(&mut s, &mut r, "read hits"), "ok 1");
        drop((s, r));
        let summary = server.shutdown();
        assert!(summary.audit().ok());
        assert_eq!(summary.health.parse_errors, 1);
    }

    #[test]
    fn idempotency_tokens_apply_exactly_once() {
        let server = small_server(&[ObjectDef::counter("hits", "farray")]);
        let (mut s, mut r) = connect(&server);
        for _ in 0..5 {
            assert_eq!(roundtrip(&mut s, &mut r, "incr hits 2 tok-1"), "ok");
        }
        assert_eq!(roundtrip(&mut s, &mut r, "incr hits 2 tok-2"), "ok");
        assert_eq!(roundtrip(&mut s, &mut r, "read hits"), "ok 4");
        drop((s, r));
        let summary = server.shutdown();
        assert_eq!(summary.health.dedup_hits, 4);
        assert_eq!(summary.final_value("hits"), Some(4));
        assert!(summary.audit().ok());
    }

    #[test]
    fn dedup_window_eviction_is_fifo() {
        let mut w = DedupWindow::new(2);
        assert!(!w.check_and_reserve("a"));
        assert!(!w.check_and_reserve("b"));
        assert!(w.check_and_reserve("a"));
        assert!(!w.check_and_reserve("c")); // evicts a
        assert!(!w.check_and_reserve("a")); // a was forgotten
        assert!(w.check_and_reserve("c"));
    }

    #[test]
    fn drain_loses_no_acknowledged_increment() {
        let server = small_server(&[ObjectDef::counter("hits", "farray")]);
        let addr = server.addr();
        let acked = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let mut clients = Vec::new();
        for c in 0..3 {
            let acked = Arc::clone(&acked);
            let stop = Arc::clone(&stop);
            clients.push(thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_millis(100)))
                    .unwrap();
                let mut reader = io::BufReader::new(stream.try_clone().unwrap());
                let mut seq = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    seq += 1;
                    let req = format!("incr hits 1 t{c}:{seq}\n");
                    if stream.write_all(req.as_bytes()).is_err() {
                        break;
                    }
                    let mut line = String::new();
                    match reader.read_line(&mut line) {
                        Ok(n) if n > 0 && line.trim_end() == "ok" => {
                            acked.fetch_add(1, Ordering::Relaxed);
                        }
                        _ => break,
                    }
                }
            }));
        }
        thread::sleep(Duration::from_millis(80));
        stop.store(true, Ordering::Relaxed);
        // Shut down while clients may still be mid-request.
        let summary = server.shutdown();
        for c in clients {
            let _ = c.join();
        }
        let acked = acked.load(Ordering::Relaxed);
        let applied = summary.final_value("hits").unwrap();
        assert!(acked > 0, "no request ever completed");
        assert!(
            applied >= acked,
            "drain lost acked ops: acked {acked} > applied {applied}"
        );
        assert!(summary.audit().ok());
    }

    #[test]
    fn metrics_dump_is_versioned_and_registry_backed() {
        let server = small_server(&[ObjectDef::counter("hits", "farray")]);
        let (mut s, mut r) = connect(&server);
        assert_eq!(roundtrip(&mut s, &mut r, "incr hits 2"), "ok");
        let line = roundtrip(&mut s, &mut r, "metrics");
        assert!(
            line.starts_with("ok ruo-telem-v1 "),
            "untagged metrics: {line}"
        );
        let Response::Metrics(pairs) = Response::parse(&line).unwrap() else {
            panic!("not a metrics response: {line}");
        };
        // Ascending keys, and every health scalar present.
        assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0), "{pairs:?}");
        assert_eq!(pairs.len(), 12);
        for key in ["admitted", "served", "shed", "queue_depth_peak"] {
            assert!(pairs.iter().any(|(k, _)| k == key), "missing {key}");
        }
        drop((s, r));
        server.shutdown();
    }

    #[test]
    fn spans_follow_the_request_lifecycle() {
        let server = Server::start(
            ServeConfig {
                workers: 2,
                spans: true,
                ..ServeConfig::default()
            },
            &[ObjectDef::counter("hits", "farray")],
        )
        .unwrap();
        let (mut s, mut r) = connect(&server);
        assert_eq!(roundtrip(&mut s, &mut r, "incr hits 1"), "ok");
        assert_eq!(roundtrip(&mut s, &mut r, "read hits"), "ok 1");
        assert!(roundtrip(&mut s, &mut r, "read ghost").starts_with("err no_object"));
        assert!(roundtrip(&mut s, &mut r, "not a verb").starts_with("err parse"));
        drop((s, r));
        let summary = server.shutdown();
        assert_eq!(summary.spans.len(), 4);
        for span in &summary.spans {
            // The lifecycle ticks are ordered by construction.
            assert!(span.accept_tick < span.enqueue_tick, "{span:?}");
            assert!(span.enqueue_tick < span.dequeue_tick, "{span:?}");
            assert!(span.dequeue_tick < span.execute_tick, "{span:?}");
            assert!(span.execute_tick < span.ack_tick, "{span:?}");
            assert_eq!(span.rung, SpanRung::Healthy);
            assert!(!span.degraded);
        }
        // One connection, requests in order.
        assert!(summary.spans.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
        assert_eq!(summary.spans[0].verb, "incr");
        assert_eq!(summary.spans[0].outcome, "ok");
        assert_eq!(summary.spans[1].verb, "read");
        assert_eq!(summary.spans[2].outcome, "err no_object");
        assert_eq!(summary.spans[3].verb, "invalid");
        assert_eq!(summary.spans[3].outcome, "err parse");
        // Exports are well-formed.
        let jsonl = summary.spans_to_jsonl();
        assert!(jsonl.lines().next().unwrap().contains("ruo-serve-span-v1"));
        assert_eq!(jsonl.lines().count(), 5);
        let chrome = summary.spans_to_chrome_trace();
        ruo_scenario::Json::parse(&chrome).expect("chrome trace parses");
        assert!(summary.audit().ok());
    }

    #[test]
    fn spans_off_records_nothing() {
        let server = small_server(&[ObjectDef::counter("hits", "farray")]);
        let (mut s, mut r) = connect(&server);
        assert_eq!(roundtrip(&mut s, &mut r, "incr hits 1"), "ok");
        drop((s, r));
        let summary = server.shutdown();
        assert!(summary.spans.is_empty());
        assert_eq!(summary.spans_to_jsonl().lines().count(), 1);
    }

    #[test]
    fn unknown_impl_is_a_start_error() {
        let err = Server::start(
            ServeConfig::default(),
            &[ObjectDef::counter("hits", "nope")],
        );
        assert!(matches!(err, Err(StartError::Build(_))));
        let err = Server::start(ServeConfig::default(), &[]);
        assert!(matches!(err, Err(StartError::Config(_))));
    }
}
