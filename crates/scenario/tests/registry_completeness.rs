//! The registry must cover every core implementation: this test scans
//! the `ruo-core` sources for `impl MaxRegister/Counter/Snapshot for X`
//! (and their `Sim*` counterparts) and fails if any implementing type
//! is not registered on the corresponding face. Adding a new
//! implementation without registering it — and thereby without soak /
//! equivalence / throughput coverage — breaks this test, not CI
//! silence.

use std::collections::BTreeSet;
use std::path::Path;

use ruo_scenario::{registry, AccuracyClass, Family, ProgressClass};

/// `(trait, implementing type)` pairs declared in a source tree, for
/// the six object-facing traits.
fn impls_in(dir: &Path, found: &mut BTreeSet<(String, String)>) {
    for entry in std::fs::read_dir(dir).expect("core sources readable") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            impls_in(&path, found);
            continue;
        }
        if path.extension().and_then(|e| e.to_str()) != Some("rs") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("source readable");
        for line in text.lines() {
            let line = line.trim();
            let Some(mut rest) = line.strip_prefix("impl").map(str::trim_start) else {
                continue;
            };
            // Skip a generic parameter list: `impl<S: Snapshot> Counter
            // for CounterFromSnapshot<S>`.
            if let Some(generics) = rest.strip_prefix('<') {
                let mut depth = 1usize;
                let mut end = None;
                for (i, c) in generics.char_indices() {
                    match c {
                        '<' => depth += 1,
                        '>' => {
                            depth -= 1;
                            if depth == 0 {
                                end = Some(i);
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                match end {
                    Some(i) => rest = generics[i + 1..].trim_start(),
                    None => continue,
                }
            }
            for tr in [
                "SimMaxRegister",
                "SimCounter",
                "SimSnapshot",
                "MaxRegister",
                "Counter",
                "Snapshot",
            ] {
                let Some(tail) = rest.strip_prefix(tr) else {
                    continue;
                };
                let Some(tail) = tail.strip_prefix(" for ") else {
                    continue;
                };
                let ty: String = tail
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if !ty.is_empty() {
                    found.insert((tr.to_string(), ty));
                }
                break; // longest-prefix match wins (Sim* before bare).
            }
        }
    }
}

#[test]
fn every_core_implementation_is_registered() {
    let core_src = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../core/src"));
    let mut found = BTreeSet::new();
    impls_in(core_src, &mut found);
    assert!(found.len() >= 20, "impl scan looks broken: only {found:?}");

    let registered_real: BTreeSet<&str> = registry().iter().filter_map(|e| e.real_type).collect();
    let registered_sim: BTreeSet<&str> = registry().iter().filter_map(|e| e.sim_type).collect();

    let mut missing = Vec::new();
    for (tr, ty) in &found {
        let registered = if tr.starts_with("Sim") {
            registered_sim.contains(ty.as_str())
        } else {
            registered_real.contains(ty.as_str())
        };
        if !registered {
            missing.push(format!("{ty} (impl {tr})"));
        }
    }
    assert!(
        missing.is_empty(),
        "core implementations missing from the scenario registry: {missing:?} — \
         add an ImplEntry (or extend an existing one) in crates/scenario/src/registry.rs"
    );
}

#[test]
fn no_blocking_implementation_has_a_sim_face() {
    // The explorer and the sim engine drive every sim face under a step
    // cap that assumes each operation finishes in its own steps. A
    // blocking operation's steps depend on another process's progress,
    // so a blocking implementation may only have a real face.
    for e in registry() {
        assert!(
            !(e.caps.progress == ProgressClass::Blocking && e.has_sim()),
            "{}/{} is blocking but registers the sim face {:?}",
            e.family,
            e.id,
            e.sim_type
        );
    }
}

#[test]
fn accuracy_metadata_covers_every_class_exactly_once_per_family() {
    // Each accuracy class must be registered on exactly one face per
    // relaxable family (maxreg and counter — the checkers never relax
    // snapshot vectors), and its schema name must round-trip so
    // scenario accuracy sections can address it.
    for family in [Family::MaxReg, Family::Counter] {
        for class in AccuracyClass::all() {
            let holders: Vec<&str> = registry()
                .iter()
                .filter(|e| e.family == family && e.caps.accuracy == Some(class))
                .map(|e| e.id)
                .collect();
            assert_eq!(
                holders.len(),
                1,
                "accuracy class {class} must be registered on exactly one \
                 {family} face, found {holders:?}"
            );
            assert_eq!(AccuracyClass::parse(class.name()), Some(class));
        }
    }
    for e in registry() {
        if e.family == Family::Snapshot {
            assert!(
                e.caps.accuracy.is_none(),
                "snapshot/{} claims an accuracy class, but scans return \
                 vectors the relaxed checkers never loosen",
                e.id
            );
        }
    }
}

#[test]
fn registered_type_names_exist_in_core() {
    let core_src = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../core/src"));
    let mut found = BTreeSet::new();
    impls_in(core_src, &mut found);
    let types: BTreeSet<&String> = found.iter().map(|(_, ty)| ty).collect();
    for e in registry() {
        for ty in [e.real_type, e.sim_type].into_iter().flatten() {
            assert!(
                types.contains(&ty.to_string()),
                "{}/{} registers type {ty} that implements no core object trait",
                e.family,
                e.id
            );
        }
    }
}
