//! Experiment C-AAC — step complexities of the prior-work baselines the
//! paper's introduction quotes: the AAC max register (`O(log M)` reads
//! and writes from read/write only) and the AAC counter (`O(log N)`
//! reads, `O(log² N)` increments for polynomially many increments),
//! plus the f-array counter (`O(1)` read, `O(log N)` increment).
//!
//! Run with `cargo run -p ruo-bench --bin aac_complexity`.

use ruo_bench::{log2_ceil, run_solo, Table};
use ruo_core::counter::sim::{SimAacCounter, SimCounter, SimFArrayCounter};
use ruo_core::maxreg::sim::{SimAacMaxRegister, SimMaxRegister};
use ruo_sim::{Memory, ProcessId};

fn main() {
    println!("# C-AAC — prior-work step complexities (measured)\n");

    // ---- AAC max register: both ops O(log M). ----
    println!("## AAC max register vs bound M (expected: both ops ~ log2 M)\n");
    let mut t = Table::new(&["M", "log2(M)", "WriteMax(M-1) steps", "ReadMax steps"]);
    for log_m in [2u32, 4, 6, 8, 10, 12, 14] {
        let m = 1u64 << log_m;
        let mut mem = Memory::new();
        let reg = SimAacMaxRegister::new(&mut mem, 2, m);
        let (_, w) = run_solo(&mut mem, ProcessId(0), reg.write_max(ProcessId(0), m - 1));
        let (_, r) = run_solo(&mut mem, ProcessId(1), reg.read_max(ProcessId(1)));
        t.row(vec![
            m.to_string(),
            log_m.to_string(),
            w.to_string(),
            r.to_string(),
        ]);
    }
    t.print();

    // ---- Unbalanced (Bentley–Yao-skewed) AAC register. ----
    println!("\n## Unbalanced AAC register, M = 2^20 (expected: cost ~ log v, not log M)\n");
    let mut t = Table::new(&[
        "v",
        "log2(v)",
        "WriteMax(v) steps",
        "ReadMax steps (max = v)",
    ]);
    let m = 1u64 << 20;
    for v in [0u64, 1, 3, 15, 255, 65_535, m - 1] {
        let mut mem = Memory::new();
        let reg = SimAacMaxRegister::new_unbalanced(&mut mem, 2, m);
        let (_, w) = run_solo(&mut mem, ProcessId(0), reg.write_max(ProcessId(0), v));
        let (_, r) = run_solo(&mut mem, ProcessId(1), reg.read_max(ProcessId(1)));
        t.row(vec![
            v.to_string(),
            log2_ceil(v + 1).to_string(),
            w.to_string(),
            r.to_string(),
        ]);
    }
    t.print();

    // ---- AAC counter: read O(log M), increment O(log N log M). ----
    println!("\n## AAC counter vs N (M = N², i.e. polynomially many increments)\n");
    let mut t = Table::new(&[
        "N",
        "log2(N)",
        "CounterRead steps",
        "CounterIncrement steps",
        "inc / (log N · log M)",
    ]);
    for n in [4usize, 8, 16, 32, 64, 128] {
        let m = (n * n) as u64;
        let mut mem = Memory::new();
        let c = SimAacCounter::new(&mut mem, n, m);
        let (_, inc) = run_solo(&mut mem, ProcessId(0), c.increment(ProcessId(0)));
        let (_, rd) = run_solo(&mut mem, ProcessId(1), c.read(ProcessId(1)));
        let ln = log2_ceil(n as u64).max(1) as f64;
        let lm = log2_ceil(m + 1).max(1) as f64;
        t.row(vec![
            n.to_string(),
            log2_ceil(n as u64).to_string(),
            rd.to_string(),
            inc.to_string(),
            format!("{:.2}", inc as f64 / (ln * lm)),
        ]);
    }
    t.print();

    // ---- f-array counter: read O(1), increment O(log N). ----
    println!("\n## f-array counter vs N (expected: read = 1, increment = 2 + 4·log2 N)\n");
    let mut t = Table::new(&[
        "N",
        "log2(N)",
        "CounterRead steps",
        "CounterIncrement steps",
    ]);
    for n in [4usize, 16, 64, 256, 1024] {
        let mut mem = Memory::new();
        let c = SimFArrayCounter::new(&mut mem, n);
        let (_, inc) = run_solo(&mut mem, ProcessId(0), c.increment(ProcessId(0)));
        let (_, rd) = run_solo(&mut mem, ProcessId(1), c.read(ProcessId(1)));
        t.row(vec![
            n.to_string(),
            log2_ceil(n as u64).to_string(),
            rd.to_string(),
            inc.to_string(),
        ]);
    }
    t.print();

    println!("\nReading the tables: the AAC register pays log M on *both* sides;");
    println!("Algorithm A (see t6_algorithm_a) moves all of it to the write side;");
    println!("Theorem 1 says the f-array's O(1)/O(log N) split is optimal for");
    println!("read-optimal counters from read/write/CAS.");
}
