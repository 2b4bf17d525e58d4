//! The one bench-document pipeline: every `BENCH_*.json` is a
//! [`BenchDoc`].
//!
//! A document is one JSON object: a `"schema"` tag, the environment
//! block ([`ENV_KEYS`]: `quick`, `available_parallelism`, `contended`),
//! the [`RUN_KEY`] stamp naming the run that wrote it, then the bench's
//! own fields in insertion order. Arrays of row objects are keyed by
//! identity: every row carries at least one of [`IDENTITY_KEYS`], and no
//! two rows of one array share a label, so [`crate::compare`] pairs rows
//! across runs by what they measure, never by position. Documents are
//! written only through [`Json::pretty`].

use std::collections::BTreeSet;
use std::process::Command;

use ruo_metrics::Json;

/// The environment block every document carries after its schema tag.
/// A baseline and a fresh run legitimately differ here, so the sentry
/// never compares these fields.
pub const ENV_KEYS: [&str; 3] = ["quick", "available_parallelism", "contended"];

/// The run stamp every document carries after its environment block:
/// the commit (`"unknown"` without git), whether tracked files differed
/// from it, and the command line, whose flags carry any seeds. Like the
/// environment, the sentry prints it and never compares it.
pub const RUN_KEY: &str = "run";

/// Row fields that identify a row rather than measure it, in the order
/// they appear in a row's label.
pub const IDENTITY_KEYS: &[&str] = &[
    "family", "impl", "workload", "kind", "name", "mode", "phase", "label", "threads", "n", "k",
    "workers", "stripes", "x",
];

/// The machine's available parallelism (0 when unknowable).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(0, |p| p.get())
}

/// The identity label of a row object (`family=counter,impl=farray`),
/// from whichever identity fields it carries; `None` when it has none.
pub fn row_label(pairs: &[(String, Json)]) -> Option<String> {
    let parts: Vec<String> = IDENTITY_KEYS
        .iter()
        .filter_map(|key| {
            let (_, v) = pairs.iter().find(|(k, _)| k == key)?;
            match v {
                Json::Str(s) => Some(format!("{key}={s}")),
                Json::Num(_) | Json::Int(_) => Some(format!("{key}={}", v.compact())),
                _ => None,
            }
        })
        .collect();
    (!parts.is_empty()).then(|| parts.join(","))
}

/// The [`RUN_KEY`] stamp of this process.
fn run_stamp() -> Json {
    let git = |args: &[&str]| {
        let out = Command::new("git").args(args).output().ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let head = git(&["rev-parse", "HEAD"]);
    let status = git(&["status", "--porcelain", "--untracked-files=no"]);
    let (commit, dirty) = match (head, status) {
        (Some(head), Some(status)) => (Json::from(head), Json::from(!status.is_empty())),
        _ => (Json::from("unknown"), Json::from("unknown")),
    };
    let argv = std::env::args().map(Json::from).collect();
    Json::obj([
        ("commit", commit),
        ("dirty", dirty),
        ("argv", Json::Arr(argv)),
    ])
}

/// A bench document under construction.
#[derive(Clone, Debug)]
pub struct BenchDoc {
    fields: Vec<(String, Json)>,
}

impl BenchDoc {
    /// Starts a document: the schema tag, the environment block and the
    /// run stamp. `contended` is true only when the machine has more
    /// than one hardware thread — a one-core run interleaves by
    /// preemption, and its multi-thread rows must never be read as
    /// parallel contention.
    pub fn new(schema: &str, quick: bool) -> Self {
        let parallelism = available_parallelism();
        BenchDoc {
            fields: vec![
                ("schema".into(), Json::from(schema)),
                (ENV_KEYS[0].into(), Json::from(quick)),
                (ENV_KEYS[1].into(), Json::from(parallelism)),
                (ENV_KEYS[2].into(), Json::from(parallelism > 1)),
                (RUN_KEY.into(), run_stamp()),
            ],
        }
    }

    /// Appends a top-level field.
    ///
    /// # Panics
    ///
    /// Panics if the key is already present.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Self {
        assert!(
            self.fields.iter().all(|(k, _)| k != key),
            "duplicate bench-document field {key:?}"
        );
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// The finished document; panics if an array of row objects has a
    /// row without identity fields or two rows with the same label.
    fn to_json(&self) -> Json {
        let doc = Json::Obj(self.fields.clone());
        check_rows("", &doc);
        doc
    }

    /// Writes the pretty-printed document to `path`.
    ///
    /// # Panics
    ///
    /// Panics if an array of row objects has a row without identity
    /// fields or two rows with the same label.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().pretty())
    }
}

/// Asserts that every array of objects under `v` is keyed by identity.
fn check_rows(path: &str, v: &Json) {
    match v {
        Json::Obj(pairs) => {
            for (k, child) in pairs {
                check_rows(&format!("{path}.{k}"), child);
            }
        }
        Json::Arr(items) => {
            let mut seen = BTreeSet::new();
            for item in items {
                let Json::Obj(pairs) = item else { continue };
                let label = row_label(pairs)
                    .unwrap_or_else(|| panic!("row in {path} has no identity field: {item:?}"));
                assert!(
                    seen.insert(label.clone()),
                    "duplicate row {label} in {path}"
                );
                check_rows(&format!("{path}[{label}]"), item);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(family: &str, threads: u64) -> Json {
        Json::obj([
            ("family", Json::from(family)),
            ("threads", Json::from(threads)),
            ("median_ns", Json::from(10.0)),
        ])
    }

    #[test]
    fn documents_start_with_schema_and_environment() {
        let doc = BenchDoc::new("ruo-test-v1", true)
            .field("rows", vec![row("counter", 1), row("counter", 2)])
            .to_json();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "schema",
                "quick",
                "available_parallelism",
                "contended",
                "run",
                "rows"
            ]
        );
        assert_eq!(doc.get("quick"), Some(&Json::Bool(true)));
        let run = doc.get("run").unwrap();
        assert!(run.get("commit").and_then(Json::as_str).is_some());
        assert!(run.get("dirty").is_some());
        let argv = run.get("argv").and_then(Json::as_arr).unwrap();
        assert_eq!(argv.len(), std::env::args().count());
        let par = doc
            .get("available_parallelism")
            .and_then(Json::as_u64)
            .unwrap();
        assert_eq!(doc.get("contended"), Some(&Json::Bool(par > 1)));
        assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
    }

    #[test]
    fn row_labels_join_identity_fields_in_order() {
        let Json::Obj(pairs) = row("maxreg", 4) else {
            unreachable!()
        };
        assert_eq!(
            row_label(&pairs).as_deref(),
            Some("family=maxreg,threads=4")
        );
        assert_eq!(row_label(&[("median_ns".into(), Json::from(1u64))]), None);
    }

    #[test]
    #[should_panic(expected = "duplicate row family=counter,threads=1")]
    fn duplicate_rows_are_rejected() {
        BenchDoc::new("ruo-test-v1", false)
            .field("rows", vec![row("counter", 1), row("counter", 1)])
            .to_json();
    }

    #[test]
    #[should_panic(expected = "no identity field")]
    fn rows_without_identity_are_rejected() {
        let nested = Json::obj([(
            "outer",
            Json::Arr(vec![Json::obj([("v", Json::from(1u64))])]),
        )]);
        BenchDoc::new("ruo-test-v1", false)
            .field("x", nested)
            .to_json();
    }

    #[test]
    #[should_panic(expected = "duplicate bench-document field")]
    fn environment_keys_cannot_be_overwritten() {
        let _ = BenchDoc::new("ruo-test-v1", false).field("quick", true);
    }
}
