//! Ablation study for Algorithm A's two load-bearing details:
//!
//! 1. **The second CAS per level** (Lemma 9). We run the single-CAS
//!    variant under the exhaustive small-scope explorer and under
//!    random schedules, and count how often linearizability breaks —
//!    versus zero for the real algorithm.
//! 2. **Helping on the dominated TL path** (our deviation from the
//!    paper's listing — see DESIGN.md). We measure what helping costs
//!    (repeat-write steps) and what the literal early return loses
//!    (violations under exploration).
//!
//! Every explored schedule is decided by the complete interval checker
//! (`check_interval`), so the bin is also a canary for it: it exits 1
//! unless one CAS per level and the literal early return are caught
//! violating linearizability, and two or three CASes per level are not
//! within the budget.
//!
//! Run with `cargo run --release -p ruo-bench --bin ablation`.

use std::sync::Arc;

use ruo_bench::Table;
use ruo_core::maxreg::sim::{write_leaf, SimMaxRegister, SimTreeMaxRegister};
use ruo_core::shape::AlgorithmATree;
use ruo_sim::explore::{enumerate, ExploreOp};
use ruo_sim::lin::check_interval;
use ruo_sim::spec::SeqSpec;
use ruo_sim::{run_solo, Machine, Memory, ObjId, OpDesc, Prim, ProcessId, Word, NEG_INF};

/// The spec every explored history is checked against.
const SPEC: SeqSpec = SeqSpec::MaxRegister { initial: 0 };

/// Algorithm A's write body with `cas_attempts` per level, and optional
/// helping on the dominated path.
struct VariantRegister {
    tree: Arc<AlgorithmATree>,
    cells: Arc<[ObjId]>,
    cas_attempts: u8,
    help_dominated: bool,
}

impl VariantRegister {
    fn new(mem: &mut Memory, n: usize, cas_attempts: u8, help_dominated: bool) -> Self {
        let tree = AlgorithmATree::new(n);
        let cells = mem.alloc_n(tree.shape().len(), NEG_INF).into();
        VariantRegister {
            tree: Arc::new(tree),
            cells,
            cas_attempts,
            help_dominated,
        }
    }

    fn write_max(&self, pid: usize, v: u64) -> Machine {
        let (tree, cells) = (Arc::clone(&self.tree), Arc::clone(&self.cells));
        let attempts = self.cas_attempts;
        let help = self.help_dominated && (v as u128) < tree.n() as u128;
        Machine::new(async move {
            let leaf = tree.leaf_for(pid, v);
            write_leaf(&cells, &tree, leaf, v as Word, help, attempts).await;
            0
        })
    }

    fn read_max(&self) -> Machine {
        let root = self.cells[self.tree.root()];
        Machine::single(Prim::Read(root), |v| v.max(0))
    }
}

/// Explores all schedules of two racing writers plus a reader against a
/// variant, returning (schedules explored, violation found?).
fn explore_variant(cas_attempts: u8, budget: usize) -> (usize, bool) {
    let setup = move || {
        let mut mem = Memory::new();
        let reg = VariantRegister::new(&mut mem, 2, cas_attempts, true);
        let machines = vec![reg.write_max(0, 2), reg.write_max(1, 3), reg.read_max()];
        (mem, machines)
    };
    let ops = vec![
        ExploreOp {
            pid: ProcessId(0),
            desc: OpDesc::WriteMax(2),
            returns_value: false,
        },
        ExploreOp {
            pid: ProcessId(1),
            desc: OpDesc::WriteMax(3),
            returns_value: false,
        },
        ExploreOp {
            pid: ProcessId(2),
            desc: OpDesc::ReadMax,
            returns_value: true,
        },
    ];
    let summary = enumerate(
        &setup,
        &ops,
        &mut |h| check_interval(h, &SPEC).is_ok(),
        budget,
    );
    (summary.schedules, summary.violation.is_some())
}

fn main() {
    println!("# Ablation — what Algorithm A's details buy\n");

    // ---- Part 1: the double CAS. ----
    println!("## CAS attempts per level vs linearizability (exhaustive exploration,");
    println!("## two writers + reader, budget 400k schedules)\n");
    let mut t = Table::new(&[
        "CAS attempts/level",
        "schedules explored",
        "violation found",
    ]);
    let mut canary_ok = true;
    for attempts in [1u8, 2, 3] {
        let (schedules, violated) = explore_variant(attempts, 400_000);
        // One attempt must lose a write; two or three must not.
        canary_ok &= violated == (attempts == 1);
        t.row(vec![
            attempts.to_string(),
            schedules.to_string(),
            if violated {
                "YES (not linearizable)"
            } else {
                "no"
            }
            .to_string(),
        ]);
    }
    t.print();
    println!("\nOne attempt loses completed writes (the Lemma 9 race); two suffice —");
    println!("the third buys nothing, matching the paper's choice of exactly two.\n");

    // ---- Part 2: helping on the dominated path. ----
    println!("## Cost of helping on dominated TL writes (N = 1024)\n");
    let mut t = Table::new(&[
        "v",
        "repeat write steps (helping)",
        "repeat write steps (literal)",
    ]);
    for v in [1u64, 100, 1000] {
        let steps_with = {
            let mut mem = Memory::new();
            let reg = SimTreeMaxRegister::new(&mut mem, 1024);
            run_solo(&mut mem, ProcessId(0), reg.write_max(ProcessId(0), v));
            let (_, s) = run_solo(&mut mem, ProcessId(0), reg.write_max(ProcessId(0), v));
            s
        };
        let steps_literal = {
            let mut mem = Memory::new();
            let reg = VariantRegister::new(&mut mem, 1024, 2, false);
            run_solo(&mut mem, ProcessId(0), reg.write_max(0, v));
            let (_, s) = run_solo(&mut mem, ProcessId(0), reg.write_max(0, v));
            s
        };
        t.row(vec![
            v.to_string(),
            steps_with.to_string(),
            steps_literal.to_string(),
        ]);
    }
    t.print();

    // And what the literal variant loses: a violating schedule exists.
    let setup = || {
        let mut mem = Memory::new();
        let reg = VariantRegister::new(&mut mem, 4, 2, false);
        let machines = vec![reg.write_max(0, 2), reg.write_max(1, 2), reg.read_max()];
        (mem, machines)
    };
    let ops = vec![
        ExploreOp {
            pid: ProcessId(0),
            desc: OpDesc::WriteMax(2),
            returns_value: false,
        },
        ExploreOp {
            pid: ProcessId(1),
            desc: OpDesc::WriteMax(2),
            returns_value: false,
        },
        ExploreOp {
            pid: ProcessId(2),
            desc: OpDesc::ReadMax,
            returns_value: true,
        },
    ];
    let summary = enumerate(
        &setup,
        &ops,
        &mut |h| check_interval(h, &SPEC).is_ok(),
        400_000,
    );
    println!(
        "\nLiteral early return, same-value race: violation found = {} (after {} schedules).",
        summary.violation.is_some(),
        summary.schedules
    );
    println!("Helping costs a leaf-depth propagation on repeats of small values and");
    println!("restores linearizability; TR repeats stay at one step either way.");
    canary_ok &= summary.violation.is_some();
    if !canary_ok {
        eprintln!("ablation: a verdict changed (expected: 1 CAS/level and the literal early return violate; 2 and 3 CASes do not)");
        std::process::exit(1);
    }
}
