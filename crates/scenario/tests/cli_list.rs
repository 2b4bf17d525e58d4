//! End-to-end check of `scenario list`: one row per registry entry,
//! each naming the entry's progress class and accuracy by their schema
//! names (`wait-free`, `k_multiplicative`), as the README's registry
//! table does.

use std::process::Command;

use ruo_scenario::registry;

#[test]
fn list_prints_one_row_per_entry_with_schema_names() {
    let out = Command::new(env!("CARGO_BIN_EXE_scenario"))
        .arg("list")
        .output()
        .expect("scenario binary runs");
    assert!(
        out.status.success(),
        "scenario list failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let mut lines = stdout.lines();
    let header = lines.next().expect("header line");
    assert!(header.starts_with("family"), "header: {header}");

    // Display names contain spaces; the family and id lead a row, and
    // the progress and accuracy names (which have none) end it.
    let rows: Vec<Vec<&str>> = lines.map(|l| l.split_whitespace().collect()).collect();
    assert_eq!(rows.len(), registry().len(), "rows:\n{stdout}");
    for e in registry() {
        let name = format!("{}/{}", e.family, e.id);
        let matching: Vec<&Vec<&str>> = rows
            .iter()
            .filter(|r| r[0] == e.family.name() && r[1] == e.id)
            .collect();
        assert_eq!(matching.len(), 1, "{name} rows: {matching:?}");
        let row = matching[0];
        let accuracy = e.caps.accuracy.map_or("exact", |a| a.name());
        assert_eq!(
            row[row.len() - 2..],
            [e.caps.progress.name(), accuracy],
            "{name}"
        );
    }
}
