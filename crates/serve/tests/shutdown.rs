//! Shutdown is prompt and never hangs, whatever the server is doing.
//!
//! A hundred start/shutdown cycles: most on an idle server, some with a
//! client that pings once and then sends nothing, and some with a
//! client connecting while `shutdown` runs. A helper thread drives the
//! cycles and the test waits on a channel with a timeout, so a lost
//! wakeup fails the test instead of hanging the suite.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::{Duration, Instant};

use ruo_serve::{ObjectDef, ServeConfig, Server};

/// Longest one `shutdown` may take. A silent client holds its worker
/// for one 50 ms read timeout; a lost wakeup holds `shutdown` forever,
/// and a wake connection dropped from a full listen backlog for the
/// kernel's one-second SYN retransmission.
const PROMPT: Duration = Duration::from_millis(500);

const CYCLES: usize = 100;

#[derive(Clone, Copy, Debug)]
enum Cycle {
    /// Nobody connects.
    Idle,
    /// A client that pings once, so that a worker is reading its
    /// connection, and then sends nothing.
    Silent,
    /// A client connecting while `shutdown` runs.
    Late,
}

fn kind(i: usize) -> Cycle {
    match i % 10 {
        3 => Cycle::Silent,
        7 => Cycle::Late,
        _ => Cycle::Idle,
    }
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(2)))?;
    Ok(s)
}

/// Everything a client reads until the server closes the connection. A
/// reset counts as a close; a read timeout fails, since every server
/// socket is closed by the time `shutdown` returns.
fn read_to_close(mut s: impl Read) -> String {
    let mut buf = Vec::new();
    if let Err(e) = s.read_to_end(&mut buf) {
        assert_eq!(e.kind(), ErrorKind::ConnectionReset, "not closed: {e}");
    }
    String::from_utf8(buf).unwrap()
}

/// One start/shutdown cycle; returns how long `shutdown` took.
fn cycle(kind: Cycle) -> Duration {
    let server = Server::start(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        &[ObjectDef::counter("hits", "farray")],
    )
    .unwrap();
    let addr = server.addr();
    let silent = matches!(kind, Cycle::Silent).then(|| {
        let mut s = connect(addr).unwrap();
        s.write_all(b"ping\n").unwrap();
        let mut r = BufReader::new(s);
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        assert_eq!(line, "pong\n");
        r
    });
    let late = matches!(kind, Cycle::Late).then(|| {
        thread::spawn(move || {
            // Refused once the listener has closed.
            let Ok(mut s) = connect(addr) else { return };
            // A client whose handshake races the listener's close may
            // be left connected to no socket, and learns so only when
            // it sends; so the late client pings, as any client would.
            let _ = s.write_all(b"ping\n");
            let got = read_to_close(s);
            assert!(
                ["", "err closed\n", "pong\nerr closed\n"].contains(&got.as_str()),
                "the late client read {got:?}"
            );
        })
    });
    let t = Instant::now();
    server.shutdown();
    let took = t.elapsed();
    if let Some(r) = silent {
        assert_eq!(read_to_close(r), "err closed\n");
    }
    if let Some(h) = late {
        h.join().unwrap();
    }
    took
}

#[test]
fn shutdown_is_prompt_and_never_hangs() {
    let (tx, rx) = mpsc::channel();
    let driver = thread::spawn(move || {
        for i in 0..CYCLES {
            if tx.send(cycle(kind(i))).is_err() {
                return;
            }
        }
    });
    for i in 0..CYCLES {
        let took = match rx.recv_timeout(Duration::from_secs(5)) {
            Ok(took) => took,
            Err(RecvTimeoutError::Timeout) => panic!("cycle {i} ({:?}) hung", kind(i)),
            Err(RecvTimeoutError::Disconnected) => {
                panic!("cycle {i} ({:?}) failed; its panic is above", kind(i))
            }
        };
        assert!(
            took <= PROMPT,
            "cycle {i} ({:?}): shutdown took {} ms",
            kind(i),
            took.as_millis()
        );
    }
    driver.join().unwrap();
}
