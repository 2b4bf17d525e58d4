//! An idle server never wakes: its acceptor sleeps in `accept` and its
//! workers on the queue's condvar, so none of its threads is scheduled
//! while no connection arrives.
//!
//! This file holds one test so that its process runs no other server:
//! the thread scan below would otherwise count another test's threads.

#[cfg(target_os = "linux")]
#[test]
fn an_idle_server_makes_no_context_switches() {
    use std::collections::BTreeMap;
    use std::fs;
    use std::thread;
    use std::time::Duration;

    use ruo_serve::{ObjectDef, ServeConfig, Server};

    /// Voluntary context switches of this process's server threads,
    /// keyed by thread id, with each thread's name.
    fn switches() -> BTreeMap<String, (String, u64)> {
        let mut out = BTreeMap::new();
        for task in fs::read_dir("/proc/self/task").unwrap() {
            let dir = task.unwrap().path();
            let Ok(status) = fs::read_to_string(dir.join("status")) else {
                continue; // the thread exited mid-scan
            };
            let field = |key: &str| {
                status
                    .lines()
                    .find_map(|l| l.strip_prefix(key))
                    .map(|v| v.trim().to_string())
            };
            let name = field("Name:").unwrap_or_default();
            if name != "serve-accept" && !name.starts_with("serve-worker-") {
                continue;
            }
            let n = field("voluntary_ctxt_switches:")
                .and_then(|v| v.parse().ok())
                .expect("status reports voluntary_ctxt_switches");
            let tid = dir.file_name().unwrap().to_string_lossy().into_owned();
            out.insert(tid, (name, n));
        }
        out
    }

    let server = Server::start(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        &[ObjectDef::counter("hits", "farray")],
    )
    .unwrap();
    thread::sleep(Duration::from_millis(20));
    let before = switches();
    thread::sleep(Duration::from_millis(200));
    let after = switches();
    assert_eq!(before.len(), 3, "acceptor and two workers: {before:?}");
    let woke: Vec<(&str, u64)> = after
        .iter()
        .map(|(tid, (name, n))| (name.as_str(), n - before[tid].1))
        .collect();
    assert!(
        woke.iter().all(|&(_, n)| n <= 2),
        "switches in 200 ms of idling: {woke:?}"
    );
    server.shutdown();
}
