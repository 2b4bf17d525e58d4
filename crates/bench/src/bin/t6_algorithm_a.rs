//! Experiment T6 — Theorem 6: step complexity of Algorithm A.
//!
//! Regenerates the paper's headline complexity claims as measured
//! tables: `ReadMax` is `O(1)` (exactly 1 simulator step) and
//! `WriteMax(v)` is `O(min(log N, log v))`.
//!
//! Run with `cargo run -p ruo-bench --bin t6_algorithm_a`.

use ruo_bench::{log2_ceil, Table};
use ruo_core::maxreg::sim::{SimMaxRegister, SimTreeMaxRegister};
use ruo_sim::{run_solo, Memory, ProcessId};

fn main() {
    println!("# T6 — Algorithm A (TreeMaxRegister) step complexity\n");
    println!("Paper claim (Theorem 6): ReadMax = O(1); WriteMax(v) = O(min(log N, log v)).\n");

    // ---- Part 1: ReadMax steps vs N (must be flat). ----
    println!("## ReadMax steps vs N (expected: constant 1)\n");
    let mut t = Table::new(&["N", "ReadMax steps (fresh)", "ReadMax steps (after writes)"]);
    for n in [4usize, 16, 64, 256, 1024, 4096] {
        let mut mem = Memory::new();
        let reg = SimTreeMaxRegister::new(&mut mem, n);
        let (_, fresh) = run_solo(&mut mem, ProcessId(0), reg.read_max(ProcessId(0)));
        for (i, v) in [(1usize, 3u64), (2, n as u64 * 2), (3, 7)] {
            run_solo(&mut mem, ProcessId(i), reg.write_max(ProcessId(i), v));
        }
        let (_, after) = run_solo(&mut mem, ProcessId(0), reg.read_max(ProcessId(0)));
        t.row(vec![n.to_string(), fresh.to_string(), after.to_string()]);
    }
    t.print();

    // ---- Part 2: WriteMax(v) steps vs v at fixed large N. ----
    let n = 4096usize;
    println!("\n## WriteMax(v) steps vs v (N = {n}; expected: grows with log v, then plateaus at log N)\n");
    let mut t = Table::new(&[
        "v",
        "log2(v)",
        "WriteMax steps (fresh reg)",
        "steps / (log2(v)+1)",
    ]);
    let mut v = 1u64;
    while v <= 1 << 20 {
        let mut mem = Memory::new();
        let reg = SimTreeMaxRegister::new(&mut mem, n);
        let (_, steps) = run_solo(&mut mem, ProcessId(0), reg.write_max(ProcessId(0), v));
        let denom = log2_ceil(v) + 1;
        t.row(vec![
            v.to_string(),
            log2_ceil(v).to_string(),
            steps.to_string(),
            format!("{:.1}", steps as f64 / denom as f64),
        ]);
        v *= 4;
    }
    t.print();

    // ---- Part 3: WriteMax(huge v) steps vs N (the plateau is log N). ----
    println!("\n## WriteMax(2^40) steps vs N (expected: grows with log N)\n");
    let mut t = Table::new(&["N", "log2(N)", "WriteMax(2^40) steps", "steps / log2(N)"]);
    for n in [4usize, 16, 64, 256, 1024, 4096] {
        let mut mem = Memory::new();
        let reg = SimTreeMaxRegister::new(&mut mem, n);
        let (_, steps) = run_solo(&mut mem, ProcessId(0), reg.write_max(ProcessId(0), 1 << 40));
        let l = log2_ceil(n as u64).max(1);
        t.row(vec![
            n.to_string(),
            l.to_string(),
            steps.to_string(),
            format!("{:.1}", steps as f64 / l as f64),
        ]);
    }
    t.print();

    // ---- Part 4: dominated writes. ----
    println!("\n## Dominated writes (WriteMax(v) after WriteMax(v), N = 1024)\n");
    println!("TR leaves (v ≥ N) return after one read — the writer's own completed");
    println!("write already propagated. TL value-leaves (v < N) must HELP propagate");
    println!("(the first writer may be stalled pre-propagation; see DESIGN.md\n\"Deviations\"), so the repeat costs the leaf's depth, not 1.\n");
    let mut t = Table::new(&["v", "leaf kind", "first write steps", "repeat write steps"]);
    for v in [1u64, 100, 1 << 16] {
        let mut mem = Memory::new();
        let reg = SimTreeMaxRegister::new(&mut mem, 1024);
        let (_, first) = run_solo(&mut mem, ProcessId(0), reg.write_max(ProcessId(0), v));
        let (_, second) = run_solo(&mut mem, ProcessId(0), reg.write_max(ProcessId(0), v));
        let kind = if v < 1024 { "TL (shared)" } else { "TR (own)" };
        t.row(vec![
            v.to_string(),
            kind.to_string(),
            first.to_string(),
            second.to_string(),
        ]);
    }
    t.print();
}
