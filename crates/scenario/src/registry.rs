//! The object registry: one table of every max-register, counter and
//! snapshot implementation in `ruo-core`, with constructors for both
//! *faces* — the real-atomics trait objects the thread harnesses drive
//! and the simulator step machines the executor / explorer drive — plus
//! capability metadata (progress class, capacity bound, whether the
//! throughput bench runs it, accuracy class).
//!
//! Every harness resolves implementations through [`find`] instead of
//! hand-listing constructors, so a new implementation registered here is
//! automatically picked up by the soak sweep, the throughput bench, the
//! equivalence tests and the `scenario` CLI. A source-scanning
//! completeness test fails the build if a `ruo-core` implementation is
//! *not* registered.

use std::fmt;
use std::sync::{Arc, OnceLock};

use ruo_core::counter::sim::{
    SimAacCounter, SimCasLoopCounter, SimCounter, SimFArrayCounter, SimShardedCounter,
    SimSnapshotCounter,
};
use ruo_core::counter::{
    AacCounter, ApproxCounter, FArrayCounter, FetchAddCounter, ShardedCounter, SimApproxCounter,
};
use ruo_core::maxreg::aac::MAX_CAPACITY;
use ruo_core::maxreg::sim::{
    SimAacMaxRegister, SimCasRetryMaxRegister, SimFArrayMaxRegister, SimMaxRegister,
    SimTreeMaxRegister,
};
use ruo_core::maxreg::{
    check_tree_size, AacMaxRegister, AacShape, ApproxMaxRegister, CapacityError,
    CasRetryMaxRegister, FArrayMaxRegister, LockMaxRegister, SimApproxMaxRegister, TreeMaxRegister,
    TreeSizeError,
};
use ruo_core::reduction::SnapshotCounter;
use ruo_core::snapshot::sim::{
    SimAfekSnapshot, SimDoubleCollectSnapshot, SimPathCopySnapshot, SimSnapshot,
};
use ruo_core::snapshot::{AfekSnapshot, DoubleCollectSnapshot, PathCopySnapshot};
use ruo_core::{Counter, MaxRegister, Snapshot};
use ruo_sim::Memory;

pub use ruo_core::accuracy::AccuracyClass;

/// The three object families of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Family {
    /// Max registers (§ 3–4).
    MaxReg,
    /// Restricted-use counters (§ 5).
    Counter,
    /// Single-writer atomic snapshots (§ 5, Corollary 2).
    Snapshot,
}

impl Family {
    /// The schema name (`"maxreg"`, `"counter"`, `"snapshot"`).
    pub fn name(self) -> &'static str {
        match self {
            Family::MaxReg => "maxreg",
            Family::Counter => "counter",
            Family::Snapshot => "snapshot",
        }
    }

    /// Parses a schema name; inverse of [`Family::name`].
    pub fn parse(s: &str) -> Option<Family> {
        match s {
            "maxreg" => Some(Family::MaxReg),
            "counter" => Some(Family::Counter),
            "snapshot" => Some(Family::Snapshot),
            _ => None,
        }
    }

    /// All families, in schema order.
    pub fn all() -> [Family; 3] {
        [Family::MaxReg, Family::Counter, Family::Snapshot]
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An implementation's progress guarantee.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProgressClass {
    /// Every operation finishes in a bounded number of its own steps.
    WaitFree,
    /// Some operation always makes progress; individual operations can
    /// starve (CAS retry loops).
    LockFree,
    /// An operation running solo finishes; contended operations can all
    /// starve (double-collect scans).
    ObstructionFree,
    /// Uses a mutex; a crashed lock-holder blocks everyone (baseline
    /// only).
    Blocking,
}

impl ProgressClass {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ProgressClass::WaitFree => "wait-free",
            ProgressClass::LockFree => "lock-free",
            ProgressClass::ObstructionFree => "obstruction-free",
            ProgressClass::Blocking => "blocking",
        }
    }
}

/// Capability metadata for one registered implementation.
#[derive(Clone, Copy, Debug)]
pub struct Capabilities {
    /// Progress guarantee of the implementation's update/read pair.
    pub progress: ProgressClass,
    /// Whether construction takes a capacity bound (`M`-bounded AAC
    /// registers, restricted-use counters, path-copy and Afek snapshots)
    /// that operations must respect.
    pub bounded_capacity: bool,
    /// Whether the W4 throughput bench includes this implementation.
    pub benched: bool,
    /// The accuracy guarantee of the entry's reads (ISSUE 9). `None`
    /// means exact — reads return the precise linearized value. `Some`
    /// entries honour [`BuildParams::accuracy_k`] at construction and
    /// must be verified with the `_k` checkers at that factor.
    pub accuracy: Option<AccuracyClass>,
}

/// Parameters every registry constructor receives.
#[derive(Clone, Copy, Debug)]
pub struct BuildParams {
    /// Number of processes that will share the object.
    pub n: usize,
    /// Capacity bound for bounded implementations: value bound for AAC
    /// max registers, increment bound for restricted-use counters,
    /// update bound for path-copy and Afek snapshots. Ignored by
    /// unbounded implementations.
    pub capacity: u64,
    /// Opt into the § 4.5 root-read fast path where supported.
    pub root_fast_path: bool,
    /// k-multiplicative accuracy factor for approximate implementations
    /// (`≥ 1`; `1` means exact behaviour). Ignored by exact
    /// implementations (`caps.accuracy == None`).
    pub accuracy_k: u64,
}

/// A constructed real-atomics object, behind the family trait.
pub enum RealObject {
    /// A real max register.
    MaxReg(Box<dyn MaxRegister>),
    /// A real counter.
    Counter(Box<dyn Counter>),
    /// A real snapshot.
    Snapshot(Box<dyn Snapshot>),
}

impl fmt::Debug for RealObject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RealObject::MaxReg(_) => f.write_str("RealObject::MaxReg"),
            RealObject::Counter(_) => f.write_str("RealObject::Counter"),
            RealObject::Snapshot(_) => f.write_str("RealObject::Snapshot"),
        }
    }
}

/// A constructed simulator object, behind the step-machine trait.
/// `Arc` because operation factories are moved into `OpSpec` closures.
#[derive(Clone)]
pub enum SimObject {
    /// A simulated max register.
    MaxReg(Arc<dyn SimMaxRegister>),
    /// A simulated counter.
    Counter(Arc<dyn SimCounter>),
    /// A simulated snapshot.
    Snapshot(Arc<dyn SimSnapshot>),
}

impl fmt::Debug for SimObject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimObject::MaxReg(_) => f.write_str("SimObject::MaxReg"),
            SimObject::Counter(_) => f.write_str("SimObject::Counter"),
            SimObject::Snapshot(_) => f.write_str("SimObject::Snapshot"),
        }
    }
}

/// Why a registry constructor refused to build.
#[derive(Clone, Debug)]
pub enum BuildError {
    /// No implementation with this id in the family.
    UnknownImpl {
        /// Requested family.
        family: Family,
        /// Requested id.
        id: String,
    },
    /// The implementation exists but not on the requested face.
    MissingFace {
        /// Requested family.
        family: Family,
        /// Requested id.
        id: String,
        /// `"real"` or `"sim"`.
        face: &'static str,
    },
    /// Degenerate process count for Algorithm A's tree arena.
    Tree(TreeSizeError),
    /// Capacity outside the AAC family's supported range.
    Capacity(CapacityError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnknownImpl { family, id } => {
                write!(f, "no `{family}` implementation with id \"{id}\"")
            }
            BuildError::MissingFace { family, id, face } => {
                write!(f, "`{family}/{id}` has no {face} face")
            }
            BuildError::Tree(e) => write!(f, "{e}"),
            BuildError::Capacity(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<TreeSizeError> for BuildError {
    fn from(e: TreeSizeError) -> Self {
        BuildError::Tree(e)
    }
}

impl From<CapacityError> for BuildError {
    fn from(e: CapacityError) -> Self {
        BuildError::Capacity(e)
    }
}

/// Validates an AAC-family capacity without materializing the register
/// (mirrors `AacMaxRegister::try_new`'s check).
fn check_aac_capacity(capacity: u64) -> Result<(), CapacityError> {
    if (1..=MAX_CAPACITY).contains(&capacity) {
        Ok(())
    } else {
        Err(CapacityError {
            capacity,
            max_capacity: MAX_CAPACITY,
            estimated_bytes: AacShape::estimated_bytes(capacity),
        })
    }
}

type RealCtor = fn(&BuildParams) -> Result<RealObject, BuildError>;
type SimCtor = fn(&mut Memory, &BuildParams) -> Result<SimObject, BuildError>;

/// One registered implementation.
#[derive(Debug)]
pub struct ImplEntry {
    /// Family the implementation belongs to.
    pub family: Family,
    /// Stable schema id (`"tree"`, `"aac"`, …) used in scenario specs.
    pub id: &'static str,
    /// Human-readable name for tables (`"Algorithm A"`).
    pub display: &'static str,
    /// Capability metadata.
    pub caps: Capabilities,
    /// Rust type implementing the real-atomics trait, for the
    /// registry-completeness test (`None` when there is no real face).
    pub real_type: Option<&'static str>,
    /// Rust type implementing the simulator trait (`None` when there is
    /// no sim face).
    pub sim_type: Option<&'static str>,
    real: Option<RealCtor>,
    sim: Option<SimCtor>,
}

impl ImplEntry {
    /// Whether the implementation has a real-atomics face.
    pub fn has_real(&self) -> bool {
        self.real.is_some()
    }

    /// Whether the implementation has a simulator face.
    pub fn has_sim(&self) -> bool {
        self.sim.is_some()
    }

    /// Constructs the real-atomics face.
    pub fn build_real(&self, params: &BuildParams) -> Result<RealObject, BuildError> {
        match self.real {
            Some(ctor) => ctor(params),
            None => Err(BuildError::MissingFace {
                family: self.family,
                id: self.id.to_string(),
                face: "real",
            }),
        }
    }

    /// Constructs the simulator face, allocating its cells in `mem`.
    pub fn build_sim(
        &self,
        mem: &mut Memory,
        params: &BuildParams,
    ) -> Result<SimObject, BuildError> {
        match self.sim {
            Some(ctor) => ctor(mem, params),
            None => Err(BuildError::MissingFace {
                family: self.family,
                id: self.id.to_string(),
                face: "sim",
            }),
        }
    }
}

/// The full registry, in stable display order (drives soak / throughput
/// / equivalence iteration order).
pub fn registry() -> &'static [ImplEntry] {
    static REGISTRY: OnceLock<Vec<ImplEntry>> = OnceLock::new();
    REGISTRY.get_or_init(build_registry)
}

/// Looks up one implementation by family and id.
pub fn find(family: Family, id: &str) -> Result<&'static ImplEntry, BuildError> {
    registry()
        .iter()
        .find(|e| e.family == family && e.id == id)
        .ok_or_else(|| BuildError::UnknownImpl {
            family,
            id: id.to_string(),
        })
}

/// All implementations of one family, in registry order.
pub fn family_impls(family: Family) -> impl Iterator<Item = &'static ImplEntry> {
    registry().iter().filter(move |e| e.family == family)
}

fn build_registry() -> Vec<ImplEntry> {
    vec![
        // ---- max registers ----
        ImplEntry {
            family: Family::MaxReg,
            id: "tree",
            display: "Algorithm A",
            caps: Capabilities {
                progress: ProgressClass::WaitFree,
                bounded_capacity: false,
                benched: true,
                accuracy: None,
            },
            real_type: Some("TreeMaxRegister"),
            sim_type: Some("SimTreeMaxRegister"),
            real: Some(|p| Ok(RealObject::MaxReg(Box::new(TreeMaxRegister::try_new(p.n)?)))),
            sim: Some(|mem, p| {
                check_tree_size(p.n)?;
                let reg = if p.root_fast_path {
                    SimTreeMaxRegister::with_root_fast_path(mem, p.n)
                } else {
                    SimTreeMaxRegister::new(mem, p.n)
                };
                Ok(SimObject::MaxReg(Arc::new(reg)))
            }),
        },
        ImplEntry {
            family: Family::MaxReg,
            id: "tree_elim",
            display: "Algorithm A + elimination",
            caps: Capabilities {
                progress: ProgressClass::WaitFree,
                bounded_capacity: false,
                benched: true,
                accuracy: None,
            },
            real_type: Some("TreeMaxRegister"),
            sim_type: Some("SimTreeMaxRegister"),
            real: Some(|p| {
                check_tree_size(p.n)?;
                Ok(RealObject::MaxReg(Box::new(
                    TreeMaxRegister::with_elimination(p.n),
                )))
            }),
            sim: Some(|mem, p| {
                check_tree_size(p.n)?;
                Ok(SimObject::MaxReg(Arc::new(
                    SimTreeMaxRegister::with_elimination(mem, p.n),
                )))
            }),
        },
        ImplEntry {
            family: Family::MaxReg,
            id: "aac",
            display: "AAC",
            caps: Capabilities {
                progress: ProgressClass::WaitFree,
                bounded_capacity: true,
                benched: true,
                accuracy: None,
            },
            real_type: Some("AacMaxRegister"),
            sim_type: Some("SimAacMaxRegister"),
            real: Some(|p| {
                Ok(RealObject::MaxReg(Box::new(AacMaxRegister::try_new(
                    p.capacity,
                )?)))
            }),
            sim: Some(|mem, p| {
                check_aac_capacity(p.capacity)?;
                Ok(SimObject::MaxReg(Arc::new(SimAacMaxRegister::new(
                    mem, p.n, p.capacity,
                ))))
            }),
        },
        ImplEntry {
            family: Family::MaxReg,
            id: "aac_unbalanced",
            display: "AAC unbalanced",
            caps: Capabilities {
                progress: ProgressClass::WaitFree,
                bounded_capacity: true,
                benched: true,
                accuracy: None,
            },
            real_type: Some("AacMaxRegister"),
            sim_type: Some("SimAacMaxRegister"),
            real: Some(|p| {
                Ok(RealObject::MaxReg(Box::new(
                    AacMaxRegister::try_new_unbalanced(p.capacity)?,
                )))
            }),
            sim: Some(|mem, p| {
                check_aac_capacity(p.capacity)?;
                Ok(SimObject::MaxReg(Arc::new(
                    SimAacMaxRegister::new_unbalanced(mem, p.n, p.capacity),
                )))
            }),
        },
        ImplEntry {
            family: Family::MaxReg,
            id: "farray",
            display: "f-array",
            caps: Capabilities {
                progress: ProgressClass::WaitFree,
                bounded_capacity: false,
                benched: true,
                accuracy: None,
            },
            real_type: Some("FArrayMaxRegister"),
            sim_type: Some("SimFArrayMaxRegister"),
            real: Some(|p| Ok(RealObject::MaxReg(Box::new(FArrayMaxRegister::new(p.n))))),
            sim: Some(|mem, p| {
                Ok(SimObject::MaxReg(Arc::new(SimFArrayMaxRegister::new(
                    mem, p.n,
                ))))
            }),
        },
        ImplEntry {
            family: Family::MaxReg,
            id: "cas_cell",
            display: "CAS cell",
            caps: Capabilities {
                progress: ProgressClass::LockFree,
                bounded_capacity: false,
                benched: true,
                accuracy: None,
            },
            real_type: Some("CasRetryMaxRegister"),
            sim_type: Some("SimCasRetryMaxRegister"),
            real: Some(|_| Ok(RealObject::MaxReg(Box::new(CasRetryMaxRegister::new())))),
            sim: Some(|mem, p| {
                Ok(SimObject::MaxReg(Arc::new(SimCasRetryMaxRegister::new(
                    mem, p.n,
                ))))
            }),
        },
        ImplEntry {
            family: Family::MaxReg,
            id: "approx",
            display: "k-accurate CAS cell (HKM)",
            caps: Capabilities {
                progress: ProgressClass::LockFree,
                bounded_capacity: false,
                benched: false,
                accuracy: Some(AccuracyClass::KMultiplicative),
            },
            real_type: Some("ApproxMaxRegister"),
            sim_type: Some("SimApproxMaxRegister"),
            real: Some(|p| {
                Ok(RealObject::MaxReg(Box::new(ApproxMaxRegister::new(
                    p.accuracy_k.max(1),
                ))))
            }),
            sim: Some(|mem, p| {
                Ok(SimObject::MaxReg(Arc::new(SimApproxMaxRegister::new(
                    mem,
                    p.n,
                    p.accuracy_k.max(1),
                ))))
            }),
        },
        ImplEntry {
            family: Family::MaxReg,
            id: "mutex",
            display: "mutex",
            caps: Capabilities {
                progress: ProgressClass::Blocking,
                bounded_capacity: false,
                benched: true,
                accuracy: None,
            },
            real_type: Some("LockMaxRegister"),
            sim_type: None,
            real: Some(|_| Ok(RealObject::MaxReg(Box::new(LockMaxRegister::new())))),
            sim: None,
        },
        // ---- counters ----
        ImplEntry {
            family: Family::Counter,
            id: "farray",
            display: "f-array",
            caps: Capabilities {
                progress: ProgressClass::WaitFree,
                bounded_capacity: false,
                benched: true,
                accuracy: None,
            },
            real_type: Some("FArrayCounter"),
            sim_type: Some("SimFArrayCounter"),
            real: Some(|p| Ok(RealObject::Counter(Box::new(FArrayCounter::new(p.n))))),
            sim: Some(|mem, p| {
                Ok(SimObject::Counter(Arc::new(SimFArrayCounter::new(
                    mem, p.n,
                ))))
            }),
        },
        ImplEntry {
            family: Family::Counter,
            id: "sharded",
            display: "sharded stripes",
            caps: Capabilities {
                progress: ProgressClass::WaitFree,
                bounded_capacity: false,
                benched: true,
                accuracy: None,
            },
            real_type: Some("ShardedCounter"),
            sim_type: Some("SimShardedCounter"),
            real: Some(|p| Ok(RealObject::Counter(Box::new(ShardedCounter::new(p.n))))),
            sim: Some(|mem, p| {
                Ok(SimObject::Counter(Arc::new(SimShardedCounter::new(
                    mem, p.n,
                ))))
            }),
        },
        ImplEntry {
            family: Family::Counter,
            id: "approx",
            display: "k-accurate stripes (HKM)",
            caps: Capabilities {
                progress: ProgressClass::WaitFree,
                bounded_capacity: false,
                benched: false,
                accuracy: Some(AccuracyClass::KMultiplicative),
            },
            real_type: Some("ApproxCounter"),
            sim_type: Some("SimApproxCounter"),
            real: Some(|p| {
                Ok(RealObject::Counter(Box::new(ApproxCounter::new(
                    p.n,
                    p.accuracy_k.max(1),
                ))))
            }),
            sim: Some(|mem, p| {
                Ok(SimObject::Counter(Arc::new(SimApproxCounter::new(
                    mem,
                    p.n,
                    p.accuracy_k.max(1),
                ))))
            }),
        },
        ImplEntry {
            family: Family::Counter,
            id: "aac",
            display: "AAC",
            caps: Capabilities {
                progress: ProgressClass::WaitFree,
                bounded_capacity: true,
                benched: true,
                accuracy: None,
            },
            real_type: Some("AacCounter"),
            sim_type: Some("SimAacCounter"),
            real: Some(|p| {
                // The increment bound M maps to an AAC register of
                // capacity M + 1; both must be in range.
                check_aac_capacity(p.capacity)?;
                check_aac_capacity(p.capacity + 1)?;
                Ok(RealObject::Counter(Box::new(AacCounter::new(
                    p.n, p.capacity,
                ))))
            }),
            sim: Some(|mem, p| {
                check_aac_capacity(p.capacity)?;
                check_aac_capacity(p.capacity + 1)?;
                Ok(SimObject::Counter(Arc::new(SimAacCounter::new(
                    mem, p.n, p.capacity,
                ))))
            }),
        },
        ImplEntry {
            family: Family::Counter,
            id: "fetch_add",
            display: "fetch&add",
            caps: Capabilities {
                progress: ProgressClass::WaitFree,
                bounded_capacity: false,
                benched: true,
                accuracy: None,
            },
            real_type: Some("FetchAddCounter"),
            sim_type: None,
            real: Some(|_| Ok(RealObject::Counter(Box::new(FetchAddCounter::new())))),
            sim: None,
        },
        ImplEntry {
            family: Family::Counter,
            id: "cas_loop",
            display: "CAS loop",
            caps: Capabilities {
                progress: ProgressClass::LockFree,
                bounded_capacity: false,
                benched: false,
                accuracy: None,
            },
            real_type: None,
            sim_type: Some("SimCasLoopCounter"),
            real: None,
            sim: Some(|mem, p| {
                Ok(SimObject::Counter(Arc::new(SimCasLoopCounter::new(
                    mem, p.n,
                ))))
            }),
        },
        ImplEntry {
            family: Family::Counter,
            id: "snapshot",
            display: "snapshot",
            caps: Capabilities {
                progress: ProgressClass::ObstructionFree,
                bounded_capacity: false,
                benched: false,
                accuracy: None,
            },
            real_type: Some("SnapshotCounter"),
            sim_type: Some("SimSnapshotCounter"),
            real: Some(|p| Ok(RealObject::Counter(Box::new(SnapshotCounter::new(p.n))))),
            sim: Some(|mem, p| {
                Ok(SimObject::Counter(Arc::new(SimSnapshotCounter::new(
                    mem, p.n,
                ))))
            }),
        },
        // ---- snapshots ----
        ImplEntry {
            family: Family::Snapshot,
            id: "double_collect",
            display: "double-collect",
            caps: Capabilities {
                progress: ProgressClass::ObstructionFree,
                bounded_capacity: false,
                benched: true,
                accuracy: None,
            },
            real_type: Some("DoubleCollectSnapshot"),
            sim_type: Some("SimDoubleCollectSnapshot"),
            real: Some(|p| {
                Ok(RealObject::Snapshot(Box::new(DoubleCollectSnapshot::new(
                    p.n,
                ))))
            }),
            sim: Some(|mem, p| {
                Ok(SimObject::Snapshot(Arc::new(
                    SimDoubleCollectSnapshot::new(mem, p.n),
                )))
            }),
        },
        ImplEntry {
            family: Family::Snapshot,
            id: "path_copy",
            display: "path-copy",
            caps: Capabilities {
                progress: ProgressClass::LockFree,
                bounded_capacity: true,
                benched: true,
                accuracy: None,
            },
            real_type: Some("PathCopySnapshot"),
            sim_type: Some("SimPathCopySnapshot"),
            real: Some(|p| {
                Ok(RealObject::Snapshot(Box::new(PathCopySnapshot::new(
                    p.n, p.capacity,
                ))))
            }),
            sim: Some(|mem, p| {
                Ok(SimObject::Snapshot(Arc::new(SimPathCopySnapshot::new(
                    mem, p.n, p.capacity,
                ))))
            }),
        },
        ImplEntry {
            family: Family::Snapshot,
            id: "afek",
            display: "Afek et al.",
            caps: Capabilities {
                progress: ProgressClass::WaitFree,
                bounded_capacity: true,
                benched: true,
                accuracy: None,
            },
            real_type: Some("AfekSnapshot"),
            sim_type: Some("SimAfekSnapshot"),
            real: Some(|p| {
                Ok(RealObject::Snapshot(Box::new(AfekSnapshot::new(
                    p.n, p.capacity,
                ))))
            }),
            sim: Some(|mem, p| {
                Ok(SimObject::Snapshot(Arc::new(SimAfekSnapshot::new(
                    mem, p.n, p.capacity,
                ))))
            }),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruo_sim::ProcessId;

    fn params(n: usize, capacity: u64) -> BuildParams {
        BuildParams {
            n,
            capacity,
            root_fast_path: false,
            accuracy_k: 1,
        }
    }

    #[test]
    fn ids_are_unique_within_a_family() {
        let entries = registry();
        for (i, a) in entries.iter().enumerate() {
            for b in &entries[i + 1..] {
                assert!(
                    !(a.family == b.family && a.id == b.id),
                    "duplicate id {}/{}",
                    a.family,
                    a.id
                );
            }
        }
    }

    #[test]
    fn every_entry_has_at_least_one_face() {
        for e in registry() {
            assert!(
                e.has_real() || e.has_sim(),
                "{}/{} has no face",
                e.family,
                e.id
            );
            assert_eq!(e.has_real(), e.real_type.is_some(), "{}/{}", e.family, e.id);
            assert_eq!(e.has_sim(), e.sim_type.is_some(), "{}/{}", e.family, e.id);
        }
    }

    #[test]
    fn every_real_face_builds_and_answers() {
        for e in registry() {
            if !e.has_real() {
                continue;
            }
            let obj = e
                .build_real(&params(3, 64))
                .unwrap_or_else(|err| panic!("{}/{}: {err}", e.family, e.id));
            match obj {
                RealObject::MaxReg(r) => {
                    r.write_max(ProcessId(0), 5);
                    assert_eq!(r.read_max(), 5, "{}/{}", e.family, e.id);
                }
                RealObject::Counter(c) => {
                    c.increment(ProcessId(0));
                    assert_eq!(c.read(), 1, "{}/{}", e.family, e.id);
                }
                RealObject::Snapshot(s) => {
                    s.update(ProcessId(1), 7);
                    assert_eq!(s.scan(), vec![0, 7, 0], "{}/{}", e.family, e.id);
                }
            }
        }
    }

    #[test]
    fn every_sim_face_builds_and_answers() {
        use ruo_sim::{run_solo, run_solo_vector};
        for e in registry() {
            if !e.has_sim() {
                continue;
            }
            let mut mem = Memory::new();
            let obj = e
                .build_sim(&mut mem, &params(3, 64))
                .unwrap_or_else(|err| panic!("{}/{}: {err}", e.family, e.id));
            match obj {
                SimObject::MaxReg(r) => {
                    run_solo(&mut mem, ProcessId(0), r.write_max(ProcessId(0), 5));
                    let (v, _) = run_solo(&mut mem, ProcessId(1), r.read_max(ProcessId(1)));
                    assert_eq!(v, 5, "{}/{}", e.family, e.id);
                }
                SimObject::Counter(c) => {
                    run_solo(&mut mem, ProcessId(0), c.increment(ProcessId(0)));
                    let (v, _) = run_solo(&mut mem, ProcessId(1), c.read(ProcessId(1)));
                    assert_eq!(v, 1, "{}/{}", e.family, e.id);
                }
                SimObject::Snapshot(s) => {
                    run_solo(&mut mem, ProcessId(1), s.update(ProcessId(1), 7));
                    let (cut, _) = run_solo_vector(&mut mem, ProcessId(0), s.scan(ProcessId(0)));
                    assert_eq!(cut, vec![0, 7, 0], "{}/{}", e.family, e.id);
                }
            }
        }
    }

    #[test]
    fn approx_faces_honor_the_accuracy_factor() {
        // The two accuracy-capable entries must thread
        // `BuildParams::accuracy_k` into the object: at a coarse k a
        // run of updates may read back below the true value, but never
        // outside the k-envelope and never above the truth.
        let k = 8u64;
        let p = BuildParams {
            accuracy_k: k,
            ..params(2, 1 << 16)
        };
        let counter = find(Family::Counter, "approx").unwrap();
        assert_eq!(counter.caps.accuracy, Some(AccuracyClass::KMultiplicative));
        let RealObject::Counter(c) = counter.build_real(&p).unwrap() else {
            panic!("counter face");
        };
        for _ in 0..100 {
            c.increment(ProcessId(0));
        }
        let v = c.read();
        assert!(v < 100, "k=8 must not publish every increment");
        assert!(v * k >= 100, "drifted past k: {v}");

        let maxreg = find(Family::MaxReg, "approx").unwrap();
        assert_eq!(maxreg.caps.accuracy, Some(AccuracyClass::KMultiplicative));
        let RealObject::MaxReg(r) = maxreg.build_real(&p).unwrap() else {
            panic!("maxreg face");
        };
        r.write_max(ProcessId(0), 1000);
        let v = r.read_max();
        assert!(v <= 1000 && v * k >= 1000, "outside the k-envelope: {v}");
    }

    #[test]
    fn degenerate_builds_surface_structured_errors() {
        let tree = find(Family::MaxReg, "tree").unwrap();
        assert!(matches!(
            tree.build_real(&params(0, 0)),
            Err(BuildError::Tree(_))
        ));
        let aac = find(Family::MaxReg, "aac").unwrap();
        assert!(matches!(
            aac.build_real(&params(2, 0)),
            Err(BuildError::Capacity(_))
        ));
        let mut mem = Memory::new();
        assert!(matches!(
            aac.build_sim(&mut mem, &params(2, MAX_CAPACITY + 1)),
            Err(BuildError::Capacity(_))
        ));
        assert!(matches!(
            find(Family::MaxReg, "nope"),
            Err(BuildError::UnknownImpl { .. })
        ));
        let mutex = find(Family::MaxReg, "mutex").unwrap();
        assert!(matches!(
            mutex.build_sim(&mut mem, &params(2, 0)),
            Err(BuildError::MissingFace { face: "sim", .. })
        ));
    }
}
