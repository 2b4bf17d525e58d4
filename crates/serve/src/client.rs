//! A fault-tolerant client: per-attempt timeouts, reconnects, and
//! seeded exponential backoff.
//!
//! Every request runs under an attempt timeout; on an I/O error, a
//! timeout, or a retryable server error (`overload` / `deadline` /
//! `closed`) the client reconnects and retries after a
//! [`BackoffPolicy`] delay (exponential, capped, SplitMix64-jittered —
//! deterministic per client seed). Increments carry an idempotency
//! token that is **reused across retries of the same logical request**,
//! so a retry whose predecessor was applied-but-unacked dedups on the
//! server instead of double-counting.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Duration;

use ruo_metrics::BackoffPolicy;
use ruo_sim::SplitMix64;

use crate::chaos::{ChaosStream, NetFaultPlan};
use crate::proto::{ErrCode, ProtoError, Request, Response, MAX_LINE_BYTES};

/// Client tuning knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Server address.
    pub addr: SocketAddr,
    /// Socket read/write timeout per attempt.
    pub attempt_timeout: Duration,
    /// Attempts before giving up (1 = no retries).
    pub max_attempts: u32,
    /// Client-side chaos wrapped around every outbound connection.
    pub chaos: Option<NetFaultPlan>,
}

impl ClientConfig {
    /// Defaults sized for tests and the swarm: 100 ms attempts, 6
    /// attempts.
    pub fn new(addr: SocketAddr) -> Self {
        ClientConfig {
            addr,
            attempt_timeout: Duration::from_millis(100),
            max_attempts: 6,
            chaos: None,
        }
    }
}

/// Why a request ultimately failed.
#[derive(Debug)]
pub enum ClientError {
    /// All attempts failed; the last failure is attached.
    Exhausted {
        /// Attempts made.
        attempts: u32,
        /// Human-readable last failure.
        last: String,
    },
    /// The server answered with a non-retryable error.
    Rejected {
        /// The error code.
        code: ErrCode,
        /// Server-provided detail.
        detail: String,
    },
    /// The server answered with a response of the wrong shape.
    BadResponse(ProtoError),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Exhausted { attempts, last } => {
                write!(f, "request failed after {attempts} attempts: {last}")
            }
            ClientError::Rejected { code, detail } => {
                write!(f, "server rejected request: {} {detail}", code.name())
            }
            ClientError::BadResponse(e) => write!(f, "bad response: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Counters a client accumulates over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Requests that eventually succeeded.
    pub ok: u64,
    /// Requests that exhausted their attempts or were rejected.
    pub failed: u64,
    /// Extra attempts beyond the first, across all requests.
    pub retries: u64,
    /// Reconnects performed.
    pub reconnects: u64,
    /// Successful responses flagged `degraded`.
    pub degraded: u64,
    /// `incr` acks received (exactly-once by token).
    pub acked_incrs: u64,
}

/// A value read plus its service tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadResult {
    /// The value.
    pub value: u64,
    /// Whether it came from the degraded tier.
    pub degraded: bool,
}

/// A scan result plus its service tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanResult {
    /// Segment values.
    pub values: Vec<u64>,
    /// Whether it came from the degraded tier.
    pub degraded: bool,
}

/// A retrying line-protocol client. Not thread-safe: one client per
/// thread (the swarm spawns one per simulated user).
pub struct Client {
    cfg: ClientConfig,
    /// Retry delays: 1–32 ms, exponential, jittered by ±25 %.
    backoff: BackoffPolicy,
    conn: Option<ChaosStream<TcpStream>>,
    carry: Vec<u8>,
    rng: SplitMix64,
    client_id: u64,
    seq: u64,
    conn_seq: u64,
    stats: ClientStats,
}

impl fmt::Debug for Client {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Client")
            .field("addr", &self.cfg.addr)
            .field("client_id", &self.client_id)
            .field("stats", &self.stats)
            .finish()
    }
}

impl Client {
    /// Creates a client. `client_id` seeds the RNG (jitter + chaos
    /// connection ids) and namespaces idempotency tokens; give every
    /// client a distinct id.
    pub fn new(cfg: ClientConfig, client_id: u64) -> Self {
        Client {
            rng: SplitMix64::new(0x5EED ^ client_id.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            cfg,
            backoff: BackoffPolicy::new(Duration::from_millis(1), Duration::from_millis(32), 0.25),
            conn: None,
            carry: Vec::new(),
            client_id,
            seq: 0,
            conn_seq: 0,
            stats: ClientStats::default(),
        }
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// `k` increments of counter `obj`, idempotent across retries.
    pub fn incr(&mut self, obj: &str, k: u64) -> Result<(), ClientError> {
        self.seq += 1;
        let token = format!("c{}:{}", self.client_id, self.seq);
        let req = Request::Incr {
            obj: obj.into(),
            k,
            token: Some(token),
        };
        match self.request(&req)? {
            Response::Ok => {
                self.stats.acked_incrs += 1;
                Ok(())
            }
            other => Err(self.shape_error(other)),
        }
    }

    /// `WriteMax(v)` on max register `obj`.
    pub fn write_max(&mut self, obj: &str, v: u64) -> Result<(), ClientError> {
        let req = Request::WriteMax { obj: obj.into(), v };
        match self.request(&req)? {
            Response::Ok => Ok(()),
            other => Err(self.shape_error(other)),
        }
    }

    /// Updates this client's serving worker's segment of snapshot
    /// `obj`.
    pub fn update(&mut self, obj: &str, v: u64) -> Result<(), ClientError> {
        let req = Request::Update { obj: obj.into(), v };
        match self.request(&req)? {
            Response::Ok => Ok(()),
            other => Err(self.shape_error(other)),
        }
    }

    /// Reads counter or max register `obj`.
    pub fn read(&mut self, obj: &str) -> Result<ReadResult, ClientError> {
        let req = Request::Read { obj: obj.into() };
        match self.request(&req)? {
            Response::Value { v, degraded } => {
                if degraded {
                    self.stats.degraded += 1;
                }
                Ok(ReadResult { value: v, degraded })
            }
            other => Err(self.shape_error(other)),
        }
    }

    /// Scans snapshot `obj`.
    pub fn scan(&mut self, obj: &str) -> Result<ScanResult, ClientError> {
        let req = Request::Scan { obj: obj.into() };
        match self.request(&req)?.into_vector() {
            Response::Vector { vs, degraded } => {
                if degraded {
                    self.stats.degraded += 1;
                }
                Ok(ScanResult {
                    values: vs,
                    degraded,
                })
            }
            other => Err(self.shape_error(other)),
        }
    }

    /// Fetches the server's health gauges.
    pub fn metrics(&mut self) -> Result<Vec<(String, u64)>, ClientError> {
        match self.request(&Request::Metrics)? {
            Response::Metrics(pairs) => Ok(pairs),
            other => Err(self.shape_error(other)),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(self.shape_error(other)),
        }
    }

    fn shape_error(&mut self, resp: Response) -> ClientError {
        self.stats.failed += 1;
        ClientError::BadResponse(ProtoError {
            detail: format!("unexpected response shape: {}", resp.encode()),
        })
    }

    /// One logical request: attempts with backoff until a definitive
    /// response arrives or attempts are exhausted.
    fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        let mut last = String::new();
        for attempt in 0..self.cfg.max_attempts {
            if attempt > 0 {
                self.stats.retries += 1;
                let delay = self.backoff.delay(attempt - 1, &mut self.rng);
                thread::sleep(delay);
            }
            match self.attempt(req) {
                Ok(Response::Err { code, detail }) if code.retryable() => {
                    last = format!("err {} {detail}", code.name());
                    // A refused request was not applied; a fresh
                    // connection gives the gate another look.
                    self.conn = None;
                }
                Ok(Response::Err { code, detail }) => {
                    self.stats.failed += 1;
                    return Err(ClientError::Rejected { code, detail });
                }
                Ok(resp) => {
                    self.stats.ok += 1;
                    return Ok(resp);
                }
                Err(e) => {
                    last = e.to_string();
                    self.conn = None;
                }
            }
        }
        self.stats.failed += 1;
        Err(ClientError::Exhausted {
            attempts: self.cfg.max_attempts,
            last,
        })
    }

    /// One attempt on one connection (connecting if needed).
    fn attempt(&mut self, req: &Request) -> io::Result<Response> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.cfg.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(self.cfg.attempt_timeout))?;
            stream.set_write_timeout(Some(self.cfg.attempt_timeout))?;
            self.conn_seq += 1;
            let conn_id = self.client_id.wrapping_mul(1_000_003) ^ self.conn_seq;
            let wrapped = match &self.cfg.chaos {
                Some(plan) => ChaosStream::new(stream, plan, conn_id),
                None => ChaosStream::passthrough(stream),
            };
            self.conn = Some(wrapped);
            self.carry.clear();
            if self.conn_seq > 1 {
                self.stats.reconnects += 1;
            }
        }
        let conn = self.conn.as_mut().expect("just connected");
        let mut line = req.encode();
        line.push('\n');
        conn.write_all(line.as_bytes())?;
        let resp_line = read_line(conn, &mut self.carry)?;
        Response::parse(&resp_line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.detail))
    }
}

/// Reads one newline-terminated line, carrying partial frames in `carry`.
fn read_line<S: Read>(s: &mut S, carry: &mut Vec<u8>) -> io::Result<String> {
    loop {
        if let Some(pos) = carry.iter().position(|&b| b == b'\n') {
            let mut line: Vec<u8> = carry.drain(..=pos).collect();
            line.pop();
            return String::from_utf8(line)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-utf8 response"));
        }
        if carry.len() > MAX_LINE_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "response line too long",
            ));
        }
        let mut chunk = [0u8; 4096];
        match s.read(&mut chunk) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed mid-response",
                ))
            }
            Ok(n) => carry.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(e),
        }
    }
}
