//! One run's result: the gates, the end-to-end metrics and, for a
//! traced run, the per-layer metrics.

use ruo_scenario::Json;

/// A named measurement with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit (`s`, `us`, `ops/s`, `MB`, `count`, …).
    pub unit: &'static str,
}

/// Everything one workload run reports.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Operations attempted (requests, object calls, or verdicts).
    pub attempted: u64,
    /// Operations that failed a correctness gate.
    pub failed: u64,
    /// Each correctness gate and whether it held on every round.
    pub gates: Vec<(String, bool)>,
    /// End-to-end metrics.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (empty for an untraced run).
    pub layers: Vec<Metric>,
}

impl Report {
    /// Whether every gate held and nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.gates.iter().all(|(_, ok)| *ok)
    }

    /// Adds an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records a gate; a gate that fails on a round counts `misses`
    /// failed operations.
    pub fn gate(&mut self, name: &str, ok: bool, misses: u64) {
        match self.gates.iter_mut().find(|(n, _)| n == name) {
            Some((_, held)) => *held &= ok,
            None => self.gates.push((name.into(), ok)),
        }
        if !ok {
            self.failed += misses.max(1);
        }
    }

    /// Adds the failure share, which every workload reports.
    pub fn finish(&mut self) {
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        self.e2e("fail_frac", frac, "ratio");
    }

    /// The result document the driver script reads.
    pub fn to_json(&self) -> Json {
        let metrics = |ms: &[Metric]| {
            Json::Obj(
                ms.iter()
                    .map(|m| {
                        (
                            m.name.clone(),
                            Json::Obj(vec![
                                ("value".into(), Json::Float(m.value)),
                                ("unit".into(), Json::Str(m.unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            )
        };
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted)),
            ("failed".into(), Json::Num(self.failed)),
            (
                "gates".into(),
                Json::Obj(
                    self.gates
                        .iter()
                        .map(|(n, ok)| (n.clone(), Json::Bool(*ok)))
                        .collect(),
                ),
            ),
            ("e2e".into(), metrics(&self.e2e)),
            ("layers".into(), metrics(&self.layers)),
        ])
    }

    /// A human-readable table of gates and metrics.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, ok) in &self.gates {
            out.push_str(&format!(
                "  gate {name:<40} {}\n",
                if *ok { "ok" } else { "FAILED" }
            ));
        }
        for m in self.e2e.iter().chain(&self.layers) {
            out.push_str(&format!("  {:<44} {:>16.6} {}\n", m.name, m.value, m.unit));
        }
        out
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    /// glibc: gives the heap's free memory back to the kernel.
    fn malloc_trim(pad: usize) -> std::os::raw::c_int;
}

/// Starts a new peak resident set: the heap's free memory goes back to
/// the kernel, then `VmHWM` drops to the resident set that is left. The
/// next peak is then what the coming round itself needs, not whatever
/// earlier rounds left the heap holding. Where the kernel refuses, the
/// peak stays the process's.
pub(crate) fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` only releases memory the allocator holds free.
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The peak resident set (`VmHWM`) since the last
/// [`reset_peak_rss`], in MB; `0` where the kernel does not report it.
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
