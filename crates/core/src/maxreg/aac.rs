//! The Aspnes–Attiya–Censor (AAC) bounded max register from reads and
//! writes only [JACM 2012, previously PODC 2009].
//!
//! An `M`-bounded register is a recursive switch tree: the root has a
//! one-bit `switch` register, a left child that is an `⌈M/2⌉`-bounded
//! register (values `0 .. ⌈M/2⌉`) and a right child that is an
//! `⌊M/2⌋`-bounded register (values `⌈M/2⌉ .. M`, stored shifted).
//! `WriteMax(v)` descends: values in the upper half are written to the
//! right child and then the switch is set; values in the lower half are
//! written to the left child only if the switch is still unset (a set
//! switch means some larger value was already written, so the small
//! write is already dominated). `ReadMax` descends right if the switch
//! is set, left otherwise. No value cells exist at all — the value is
//! encoded entirely by the switch path. Both operations take
//! `O(log M)` steps, which the paper proves optimal for reads; this
//! implementation is the read/write-only baseline that Algorithm A's
//! `O(1)` reads are compared against.
//!
//! Each operation is one body over [`Cells`] (`aac_write`, `aac_read`):
//! [`AacMaxRegister`] runs it on packed real one-byte switches and
//! [`SimAacMaxRegister`] on simulator cells, so both faces take the same
//! steps. The AAC counter keeps a table of switches at each internal
//! node and runs the same two bodies on it. Switch loads and stores are
//! `SeqCst`, like every real cell's (DESIGN.md § Memory orderings).

use std::fmt;
use std::sync::Arc;

use ruo_sim::{Machine, Memory, ObjId, ProcessId, Word};

use super::sim::SimMaxRegister;
use crate::cells::{real_bytes, run, Bytes, Cells, Real};
use crate::traits::MaxRegister;

/// Hard cap on the register capacity.
///
/// The switch tree materializes **eagerly**: a capacity-`M` register
/// allocates `2M − 1` [`AacNode`]s (64 bytes each) plus `M − 1` one-byte
/// switches up front — roughly `128 · M` bytes, about 8 GiB at this cap.
/// Use [`AacMaxRegister::try_new`] to detect oversized capacities
/// gracefully instead of panicking; see
/// [`AacShape::estimated_bytes`] for the footprint a given capacity
/// implies.
pub const MAX_CAPACITY: u64 = 1 << 26;

/// One node of the AAC switch tree.
#[derive(Clone, Copy, Debug)]
pub struct AacNode {
    /// Number of representable values in this subregister.
    pub cap: u64,
    /// Split point: `⌈cap/2⌉`. Values `>= half` go right (shifted down
    /// by `half`), values `< half` go left.
    pub half: u64,
    /// Left child (capacity `half`), `None` at unit leaves.
    pub left: Option<usize>,
    /// Right child (capacity `cap − half`), `None` at unit leaves.
    pub right: Option<usize>,
    /// Index of this node's switch register, `None` at unit leaves.
    pub switch: Option<usize>,
}

/// The static shape of an AAC register: the switch-tree arena, shared by
/// the real-atomics implementation and the simulator step machines.
#[derive(Clone)]
pub struct AacShape {
    nodes: Vec<AacNode>,
    root: usize,
    capacity: u64,
    switches: usize,
}

impl fmt::Debug for AacShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AacShape")
            .field("capacity", &self.capacity)
            .field("nodes", &self.nodes.len())
            .field("switches", &self.switches)
            .finish()
    }
}

impl AacShape {
    /// Approximate heap footprint (bytes) of the eagerly materialized
    /// switch tree for `capacity`: `2·capacity − 1` nodes plus
    /// `capacity − 1` switch bytes.
    pub fn estimated_bytes(capacity: u64) -> u64 {
        capacity
            .saturating_mul(2)
            .saturating_mul(std::mem::size_of::<AacNode>() as u64)
            .saturating_add(capacity)
    }

    /// Builds the balanced switch tree for values `0 .. capacity`:
    /// every value at depth `⌈log₂ capacity⌉`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is `0` or exceeds [`MAX_CAPACITY`] — the
    /// tree is materialized eagerly, so capacities near the cap already
    /// commit gigabytes (see [`AacShape::estimated_bytes`]).
    pub fn new(capacity: u64) -> Self {
        let mut shape = Self::empty(capacity);
        shape.root = shape.build(capacity);
        shape
    }

    /// Builds a Bentley–Yao-skewed switch tree for values
    /// `0 .. capacity`: a rightward spine whose `g`-th node hangs a
    /// balanced subregister of `2^g` values off its left side, so value
    /// `v` sits at depth `O(log v)` instead of `O(log capacity)`.
    ///
    /// This is the read/write-only analogue of Algorithm A's B1 left
    /// subtree: operations on an unbalanced register cost
    /// `O(min(log capacity, log v))` — writes of `v` *and* reads while
    /// the maximum is `v`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is `0` or exceeds [`MAX_CAPACITY`] (same
    /// eager-materialization concern as [`AacShape::new`]).
    pub fn new_unbalanced(capacity: u64) -> Self {
        let mut shape = Self::empty(capacity);
        shape.root = shape.build_unbalanced(capacity, 1);
        shape
    }

    /// A shape with no nodes yet, for values `0 .. capacity`.
    fn empty(capacity: u64) -> Self {
        assert!(capacity >= 1, "capacity must be positive");
        assert!(
            capacity <= MAX_CAPACITY,
            "capacity {capacity} exceeds MAX_CAPACITY ({MAX_CAPACITY}): the switch tree \
             materializes eagerly and would need ~{} MiB",
            AacShape::estimated_bytes(capacity) >> 20
        );
        AacShape {
            nodes: Vec::new(),
            root: 0,
            capacity,
            switches: 0,
        }
    }

    fn build_unbalanced(&mut self, cap: u64, group: u64) -> usize {
        if cap <= 1 {
            return self.build(cap);
        }
        let half = group.min(cap - 1);
        let left = self.build(half);
        let right = self.build_unbalanced(cap - half, group * 2);
        let switch = self.switches;
        self.switches += 1;
        self.nodes.push(AacNode {
            cap,
            half,
            left: Some(left),
            right: Some(right),
            switch: Some(switch),
        });
        self.nodes.len() - 1
    }

    /// Depth of the switch path that encodes value `v` — the step cost
    /// of writing `v` (and of reading while `v` is the maximum).
    ///
    /// # Panics
    ///
    /// Panics if `v >= capacity`.
    pub fn value_depth(&self, v: u64) -> usize {
        assert!(v < self.capacity, "value {v} out of bounds");
        let mut idx = self.root;
        let mut v = v;
        let mut depth = 0;
        loop {
            let node = self.nodes[idx];
            let (Some(left), Some(right), Some(_)) = (node.left, node.right, node.switch) else {
                return depth;
            };
            depth += 1;
            if v >= node.half {
                v -= node.half;
                idx = right;
            } else {
                idx = left;
            }
        }
    }

    fn build(&mut self, cap: u64) -> usize {
        if cap <= 1 {
            self.nodes.push(AacNode {
                cap,
                half: 0,
                left: None,
                right: None,
                switch: None,
            });
            return self.nodes.len() - 1;
        }
        let half = cap.div_ceil(2);
        let left = self.build(half);
        let right = self.build(cap - half);
        let switch = self.switches;
        self.switches += 1;
        self.nodes.push(AacNode {
            cap,
            half,
            left: Some(left),
            right: Some(right),
            switch: Some(switch),
        });
        self.nodes.len() - 1
    }

    /// The root node index.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Node accessor.
    pub fn node(&self, idx: usize) -> &AacNode {
        &self.nodes[idx]
    }

    /// Number of one-bit switch registers.
    pub fn switch_count(&self) -> usize {
        self.switches
    }

    /// The register's capacity `M` (legal values are `0 .. M`).
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Depth of the switch tree — the step complexity of both operations.
    pub fn depth(&self) -> usize {
        fn d(shape: &AacShape, idx: usize) -> usize {
            let n = shape.node(idx);
            match (n.left, n.right) {
                (Some(l), Some(r)) => 1 + d(shape, l).max(d(shape, r)),
                _ => 0,
            }
        }
        d(self, self.root)
    }
}

/// The AAC `M`-bounded max register from reads and writes only:
/// `O(log M)` `ReadMax` and `WriteMax`, wait-free.
///
/// ```
/// use ruo_core::maxreg::AacMaxRegister;
/// use ruo_core::MaxRegister;
/// use ruo_sim::ProcessId;
///
/// let reg = AacMaxRegister::new(1024); // values 0..1024
/// reg.write_max(ProcessId(0), 100);
/// reg.write_max(ProcessId(1), 517);
/// assert_eq!(reg.read_max(), 517);
/// ```
pub struct AacMaxRegister {
    shape: AacShape,
    switches: Box<Bytes>,
}

impl fmt::Debug for AacMaxRegister {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AacMaxRegister")
            .field("capacity", &self.shape.capacity())
            .finish()
    }
}

/// Error returned by [`AacMaxRegister::try_new`] /
/// [`AacMaxRegister::try_new_unbalanced`] when the requested capacity is
/// zero or large enough that eagerly materializing the switch tree
/// would commit an unreasonable amount of memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CapacityError {
    /// The rejected capacity.
    pub capacity: u64,
    /// The hard cap ([`MAX_CAPACITY`]).
    pub max_capacity: u64,
    /// Approximate bytes the switch tree for `capacity` would allocate.
    pub estimated_bytes: u64,
}

impl fmt::Display for CapacityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.capacity == 0 {
            write!(f, "AAC capacity must be positive")
        } else {
            write!(
                f,
                "AAC capacity {} exceeds MAX_CAPACITY ({}): the switch tree materializes \
                 eagerly and would allocate ~{} MiB up front",
                self.capacity,
                self.max_capacity,
                self.estimated_bytes >> 20
            )
        }
    }
}

impl std::error::Error for CapacityError {}

/// Error returned by [`AacMaxRegister::try_write_max`] when the value
/// does not fit the register's bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ValueExceedsBound {
    /// The rejected value.
    pub value: u64,
    /// The register's capacity.
    pub capacity: u64,
}

impl fmt::Display for ValueExceedsBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "value {} exceeds the register bound (capacity {})",
            self.value, self.capacity
        )
    }
}

impl std::error::Error for ValueExceedsBound {}

impl AacMaxRegister {
    /// Creates an `M`-bounded register accepting values `0 .. capacity`,
    /// with the balanced shape (`O(log M)` for both operations).
    ///
    /// # Panics
    ///
    /// Panics (with the estimated memory footprint in the message) if
    /// `capacity` is `0` or exceeds [`MAX_CAPACITY`]; use
    /// [`try_new`](AacMaxRegister::try_new) to handle oversized
    /// capacities gracefully.
    pub fn new(capacity: u64) -> Self {
        Self::try_new(capacity).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`new`](AacMaxRegister::new): rejects a zero or
    /// over-cap capacity with a [`CapacityError`] (carrying the
    /// estimated eager-allocation size) instead of panicking.
    ///
    /// ```
    /// use ruo_core::maxreg::AacMaxRegister;
    ///
    /// assert!(AacMaxRegister::try_new(1024).is_ok());
    /// let err = AacMaxRegister::try_new(u64::MAX).unwrap_err();
    /// assert!(err.estimated_bytes > 1 << 30);
    /// ```
    pub fn try_new(capacity: u64) -> Result<Self, CapacityError> {
        Self::check_capacity(capacity)?;
        Ok(Self::with_shape(AacShape::new(capacity)))
    }

    /// Fallible form of
    /// [`new_unbalanced`](AacMaxRegister::new_unbalanced).
    pub fn try_new_unbalanced(capacity: u64) -> Result<Self, CapacityError> {
        Self::check_capacity(capacity)?;
        Ok(Self::with_shape(AacShape::new_unbalanced(capacity)))
    }

    fn check_capacity(capacity: u64) -> Result<(), CapacityError> {
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

    /// Creates an `M`-bounded register with the Bentley–Yao-skewed shape:
    /// operations involving value `v` cost `O(min(log M, log v))` — cheap
    /// while the register's contents are small.
    ///
    /// ```
    /// use ruo_core::maxreg::AacMaxRegister;
    /// use ruo_core::MaxRegister;
    /// use ruo_sim::ProcessId;
    ///
    /// let reg = AacMaxRegister::new_unbalanced(1 << 20);
    /// reg.write_max(ProcessId(0), 3); // ~2 switch accesses, not 20
    /// assert_eq!(reg.read_max(), 3);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics (with the estimated memory footprint in the message) if
    /// `capacity` is `0` or exceeds [`MAX_CAPACITY`]; use
    /// [`try_new_unbalanced`](AacMaxRegister::try_new_unbalanced) to
    /// handle oversized capacities gracefully.
    pub fn new_unbalanced(capacity: u64) -> Self {
        Self::try_new_unbalanced(capacity).unwrap_or_else(|e| panic!("{e}"))
    }

    fn with_shape(shape: AacShape) -> Self {
        let switches = real_bytes(shape.switch_count());
        AacMaxRegister { shape, switches }
    }

    /// The register's capacity `M`.
    pub fn capacity(&self) -> u64 {
        self.shape.capacity()
    }

    /// The shared switch-tree shape.
    pub fn shape(&self) -> &AacShape {
        &self.shape
    }

    /// Writes `v` if it fits the bound.
    ///
    /// # Errors
    ///
    /// Returns [`ValueExceedsBound`] if `v >= capacity`.
    pub fn try_write_max(&self, v: u64) -> Result<(), ValueExceedsBound> {
        if v >= self.shape.capacity() {
            return Err(ValueExceedsBound {
                value: v,
                capacity: self.shape.capacity(),
            });
        }
        run(aac_write(&Real::new(&*self.switches), &self.shape, v));
        Ok(())
    }
}

impl MaxRegister for AacMaxRegister {
    /// # Panics
    ///
    /// Panics if `v` exceeds the register's bound; use
    /// [`try_write_max`](AacMaxRegister::try_write_max) to handle the
    /// bound gracefully.
    fn write_max(&self, _pid: ProcessId, v: u64) {
        self.try_write_max(v)
            .expect("value exceeds the AAC register bound");
    }

    fn read_max(&self) -> u64 {
        run(aac_read(&Real::new(&*self.switches), &self.shape))
    }
}

/// The AAC write of `v` over the switch `cells` of `shape`: descend
/// from the root, right (shifted down by the split) while `v` is in the
/// upper half and left while the left turn's switch is unset; a set one
/// means a larger value is already written, and the descent stops
/// there. Then set the switches of the right turns, deepest first, so
/// a reader that follows a set switch finds the value below it.
///
/// # Panics
///
/// Panics if `v` does not fit the register (`v >= capacity`).
pub(crate) async fn aac_write<C: Cells + ?Sized>(cells: &C, shape: &AacShape, mut v: u64) {
    assert!(
        v < shape.capacity(),
        "value {v} exceeds the AAC register bound {}",
        shape.capacity()
    );
    // The right turns' switches, in descent order, on the stack: a
    // shape of capacity `M ≤ MAX_CAPACITY` is at most
    // `2·⌈log₂ M⌉ + 1 ≤ 53` levels deep.
    let (mut right_turns, mut turns) = ([0; 64], 0);
    let mut idx = shape.root();
    while let AacNode {
        left: Some(left),
        right: Some(right),
        switch: Some(switch),
        half,
        ..
    } = *shape.node(idx)
    {
        if v >= half {
            right_turns[turns] = switch;
            turns += 1;
            v -= half;
            idx = right;
        } else if cells.load(switch).await != 0 {
            break;
        } else {
            idx = left;
        }
    }
    for &switch in right_turns[..turns].iter().rev() {
        cells.store(switch, 1).await;
    }
}

/// The AAC read over the switch `cells` of `shape`: follow the switches
/// down from the root, adding the split at each set one.
pub(crate) async fn aac_read<C: Cells + ?Sized>(cells: &C, shape: &AacShape) -> u64 {
    let (mut idx, mut base) = (shape.root(), 0);
    while let AacNode {
        left: Some(left),
        right: Some(right),
        switch: Some(switch),
        half,
        ..
    } = *shape.node(idx)
    {
        if cells.load(switch).await != 0 {
            base += half;
            idx = right;
        } else {
            idx = left;
        }
    }
    base
}

/// The AAC register as step machines, on the same bodies: both
/// operations are `O(log M)` steps.
#[derive(Debug)]
pub struct SimAacMaxRegister {
    shape: Arc<AacShape>,
    switches: Arc<[ObjId]>,
    n: usize,
}

impl SimAacMaxRegister {
    /// Allocates the switch cells (all unset) in `mem`, balanced shape.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is invalid (see [`AacShape::new`]).
    pub fn new(mem: &mut Memory, n: usize, capacity: u64) -> Self {
        Self::with_shape(mem, n, AacShape::new(capacity))
    }

    /// Allocates the Bentley–Yao-skewed variant: operations on value `v`
    /// cost `O(min(log capacity, log v))` steps.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is invalid (see [`AacShape::new_unbalanced`]).
    pub fn new_unbalanced(mem: &mut Memory, n: usize, capacity: u64) -> Self {
        Self::with_shape(mem, n, AacShape::new_unbalanced(capacity))
    }

    fn with_shape(mem: &mut Memory, n: usize, shape: AacShape) -> Self {
        let switches = mem.alloc_n(shape.switch_count(), 0);
        SimAacMaxRegister {
            shape: Arc::new(shape),
            switches: switches.into(),
            n,
        }
    }

    /// The register's capacity `M`.
    pub fn capacity(&self) -> u64 {
        self.shape.capacity()
    }
}

impl SimMaxRegister for SimAacMaxRegister {
    fn n(&self) -> usize {
        self.n
    }

    /// # Panics
    ///
    /// Panics if `v` exceeds the register's bound.
    fn write_max(&self, _pid: ProcessId, v: u64) -> Machine {
        let (shape, switches) = (Arc::clone(&self.shape), Arc::clone(&self.switches));
        Machine::new(async move {
            aac_write(&*switches, &shape, v).await;
            0
        })
    }

    fn read_max(&self, _pid: ProcessId) -> Machine {
        let (shape, switches) = (Arc::clone(&self.shape), Arc::clone(&self.switches));
        Machine::new(async move { aac_read(&*switches, &shape).await as Word })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn shape_counts_match_capacity() {
        let shape = AacShape::new(8);
        assert_eq!(shape.switch_count(), 7);
        assert_eq!(shape.capacity(), 8);
        assert_eq!(shape.depth(), 3);
    }

    #[test]
    fn shape_handles_non_power_of_two() {
        let shape = AacShape::new(5);
        assert_eq!(shape.switch_count(), 4);
        assert!(shape.depth() <= 3);
    }

    #[test]
    fn unit_register_only_holds_zero() {
        let reg = AacMaxRegister::new(1);
        assert_eq!(reg.read_max(), 0);
        reg.write_max(ProcessId(0), 0);
        assert_eq!(reg.read_max(), 0);
        assert!(reg.try_write_max(1).is_err());
    }

    #[test]
    fn sequential_max_semantics() {
        let reg = AacMaxRegister::new(64);
        assert_eq!(reg.read_max(), 0);
        reg.write_max(ProcessId(0), 17);
        assert_eq!(reg.read_max(), 17);
        reg.write_max(ProcessId(0), 5);
        assert_eq!(reg.read_max(), 17);
        reg.write_max(ProcessId(0), 63);
        assert_eq!(reg.read_max(), 63);
    }

    #[test]
    fn every_value_round_trips() {
        for cap in [1u64, 2, 3, 7, 8, 9, 31, 32, 33] {
            for v in 0..cap {
                let reg = AacMaxRegister::new(cap);
                reg.write_max(ProcessId(0), v);
                assert_eq!(reg.read_max(), v, "cap={cap} v={v}");
            }
        }
    }

    #[test]
    fn try_new_rejects_oversized_capacities() {
        let err = AacMaxRegister::try_new(MAX_CAPACITY + 1).unwrap_err();
        assert_eq!(err.capacity, MAX_CAPACITY + 1);
        assert_eq!(err.max_capacity, MAX_CAPACITY);
        assert!(err.estimated_bytes > 1 << 30);
        assert!(err.to_string().contains("MiB"));
        assert!(AacMaxRegister::try_new(0).is_err());
        assert!(AacMaxRegister::try_new_unbalanced(MAX_CAPACITY + 1).is_err());
        assert!(AacMaxRegister::try_new(16).is_ok());
        assert!(AacMaxRegister::try_new_unbalanced(16).is_ok());
    }

    #[test]
    #[should_panic(expected = "materializes eagerly")]
    fn oversized_capacity_panics_with_the_footprint() {
        let _ = AacMaxRegister::new(MAX_CAPACITY + 1);
    }

    #[test]
    fn out_of_bound_write_errors() {
        let reg = AacMaxRegister::new(16);
        let err = reg.try_write_max(16).unwrap_err();
        assert_eq!(err.value, 16);
        assert_eq!(err.capacity, 16);
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    #[should_panic(expected = "exceeds the AAC register bound")]
    fn trait_write_panics_out_of_bounds() {
        let reg = AacMaxRegister::new(4);
        reg.write_max(ProcessId(0), 4);
    }

    #[test]
    fn unbalanced_shape_puts_small_values_near_the_root() {
        let shape = AacShape::new_unbalanced(1 << 16);
        // Value 0 at depth 1; value v at depth O(log v).
        assert_eq!(shape.value_depth(0), 1);
        for v in 1..128u64 {
            let d = shape.value_depth(v);
            let bound = 2 * (64 - v.leading_zeros()) as usize + 2;
            assert!(d <= bound, "v={v}: depth {d} > {bound}");
        }
        // The balanced shape pins everything to log2(M).
        let balanced = AacShape::new(1 << 16);
        assert_eq!(balanced.value_depth(0), 16);
        assert!(shape.value_depth(1) < balanced.value_depth(1));
    }

    #[test]
    fn shapes_are_at_most_twice_log_capacity_plus_one_deep() {
        for cap in [1u64, 2, 3, 5, 64, 1000, 1 << 16] {
            let bound = 2 * (64 - (cap - 1).leading_zeros()) as usize + 1;
            assert!(AacShape::new(cap).depth() <= bound, "balanced, cap={cap}");
            let unbalanced = AacShape::new_unbalanced(cap).depth();
            assert!(unbalanced <= bound, "unbalanced, cap={cap}: {unbalanced}");
        }
    }

    #[test]
    fn unbalanced_register_round_trips_every_value() {
        for cap in [1u64, 2, 3, 9, 64, 100] {
            for v in 0..cap {
                let reg = AacMaxRegister::new_unbalanced(cap);
                reg.write_max(ProcessId(0), v);
                assert_eq!(reg.read_max(), v, "cap={cap} v={v}");
            }
        }
    }

    #[test]
    fn unbalanced_register_keeps_max_semantics() {
        let reg = AacMaxRegister::new_unbalanced(1 << 12);
        reg.write_max(ProcessId(0), 5);
        reg.write_max(ProcessId(1), 3000);
        reg.write_max(ProcessId(0), 17);
        assert_eq!(reg.read_max(), 3000);
        assert!(reg.try_write_max(1 << 12).is_err());
    }

    #[test]
    fn unbalanced_register_concurrent_writers_converge() {
        let reg = Arc::new(AacMaxRegister::new_unbalanced(1 << 14));
        let handles: Vec<_> = (0..4usize)
            .map(|i| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    for k in 0..512u64 {
                        reg.write_max(ProcessId(i), k * 4 + i as u64);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.read_max(), 511 * 4 + 3);
    }

    #[test]
    fn concurrent_writers_converge_to_maximum() {
        let reg = Arc::new(AacMaxRegister::new(1 << 12));
        let handles: Vec<_> = (0..8usize)
            .map(|i| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    for k in 0..256u64 {
                        let v = k * 8 + i as u64;
                        reg.write_max(ProcessId(i), v);
                        assert!(reg.read_max() >= v);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.read_max(), 255 * 8 + 7);
    }

    #[test]
    fn reads_are_monotone_under_concurrency() {
        let reg = Arc::new(AacMaxRegister::new(1 << 12));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let r = {
            let reg = Arc::clone(&reg);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut last = 0;
                while !stop.load(Ordering::Relaxed) {
                    let v = reg.read_max();
                    assert!(v >= last, "regressed from {last} to {v}");
                    last = v;
                }
            })
        };
        for v in 0..4000u64 {
            reg.write_max(ProcessId(0), v);
        }
        stop.store(true, Ordering::Relaxed);
        r.join().unwrap();
        assert_eq!(reg.read_max(), 3999);
    }
}
