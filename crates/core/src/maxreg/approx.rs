//! k-multiplicative-accurate max register (Hendler–Khattabi–Milani,
//! arXiv 2104.09902).
//!
//! Values are bucketed by powers of the accuracy factor `k`:
//! `WriteMax(v)` with `v ≥ 1` stores only the *bucket index*
//! `e = ⌊log_k v⌋` (encoded as `e + 1`, with `0` meaning "nothing
//! written"), and `ReadMax` returns the bucket floor `k^e`. Since
//! `k^e ≤ v < k^(e+1)`, a read returning `r` satisfies
//!
//! ```text
//! r ≤ M ≤ k · r
//! ```
//!
//! for the true maximum `M` — never an overestimate, an underestimate
//! by at most the factor `k`. Bucketing collapses the register's value
//! domain from `M` values to `⌊log_k M⌋ + 2` codes, which is what buys
//! the HKM bound: the whole register is **one** exact single-cell max
//! register over a logarithmic domain, so `WriteMax` needs no tree walk
//! at all — one load (dominated-write fast path) plus a CAS on the rare
//! bucket-boundary crossings, against Algorithm A's
//! `O(min(log N, log v))` per *every* exact write.
//!
//! At `k = 1` the bucket of `v` is `v` itself: the code cell stores the
//! exact value and the object reduces to the exact
//! [`CasRetryMaxRegister`](crate::maxreg::CasRetryMaxRegister) bit for
//! bit.

use std::fmt;
use std::sync::atomic::Ordering;

use ruo_sim::stepcount::CountingU64;
use ruo_sim::{access, Machine, Memory, ObjId, Prim, ProcessId, Word};

use super::sim::{raise, SimMaxRegister};
use crate::pad::CachePadded;
use crate::traits::MaxRegister;
use crate::value::MAX_VALUE;

/// Encodes `v ≥ 1` as the stored code: `v` itself at `k = 1`, otherwise
/// `⌊log_k v⌋ + 1` (code `0` is reserved for "nothing written").
#[inline]
fn encode(v: u64, k: u64) -> u64 {
    debug_assert!(v >= 1 && k >= 1);
    if k == 1 {
        return v;
    }
    let mut e = 0u64;
    let mut x = v;
    while x >= k {
        x /= k;
        e += 1;
    }
    e + 1
}

/// Decodes a stored code back to the public value: `0` for "nothing
/// written", `code` itself at `k = 1`, otherwise the bucket floor
/// `k^(code - 1)`.
#[inline]
fn decode(code: u64, k: u64) -> u64 {
    if code == 0 || k == 1 {
        return code;
    }
    // k^(code-1) ≤ the value that produced the code, so this cannot
    // overflow for codes produced by `encode`.
    let mut r = 1u64;
    for _ in 0..code - 1 {
        r *= k;
    }
    r
}

/// k-multiplicative-accurate max register: a single exact max cell over
/// the `O(log_k M)` bucket codes. `ReadMax` is one load; `WriteMax` is
/// one load when dominated (the common case — any same-bucket or larger
/// write covers it) and a CAS retry otherwise.
///
/// ```
/// use ruo_core::maxreg::ApproxMaxRegister;
/// use ruo_core::MaxRegister;
/// use ruo_sim::ProcessId;
///
/// let reg = ApproxMaxRegister::new(2); // k = 2
/// reg.write_max(ProcessId(0), 13);
/// let r = reg.read_max();
/// assert!(r <= 13 && 2 * r >= 13);
/// assert_eq!(r, 8); // bucket floor 2^3
/// ```
pub struct ApproxMaxRegister {
    /// The bucket-code cell; `0` = nothing written.
    cell: CachePadded<CountingU64>,
    k: u64,
}

impl fmt::Debug for ApproxMaxRegister {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ApproxMaxRegister")
            .field("k", &self.k)
            .field("value", &self.read_max())
            .finish()
    }
}

impl ApproxMaxRegister {
    /// Creates a register reading `0` with accuracy factor `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: u64) -> Self {
        assert!(k >= 1, "accuracy factor k must be >= 1");
        ApproxMaxRegister {
            cell: CachePadded::new(CountingU64::new(0)),
            k,
        }
    }

    /// The accuracy factor.
    pub fn k(&self) -> u64 {
        self.k
    }
}

impl MaxRegister for ApproxMaxRegister {
    fn write_max(&self, _pid: ProcessId, v: u64) {
        if v == 0 {
            return;
        }
        assert!(v <= MAX_VALUE, "value {v} exceeds MAX_VALUE");
        let code = encode(v, self.k);
        // Same single-cell discipline as CasRetryMaxRegister: the cell's
        // modification order is the linearization order, and returning
        // on `cur >= code` is sound because the observed covering write
        // already placed the true maximum in our bucket or above.
        let mut cur = self.cell.load(Ordering::Acquire);
        while cur < code {
            match self
                .cell
                .compare_exchange(cur, code, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    fn read_max(&self) -> u64 {
        decode(self.cell.load(Ordering::Acquire), self.k)
    }
}

/// The k-accurate max register as step machines: `ReadMax` is exactly 1
/// step; `WriteMax` is 1 step when dominated, `1 + 2·retries` otherwise
/// (lock-free, like the real face).
#[derive(Debug)]
pub struct SimApproxMaxRegister {
    cell: ObjId,
    n: usize,
    k: u64,
}

impl SimApproxMaxRegister {
    /// Allocates the code cell (`0`) in `mem` for `n` processes with
    /// accuracy factor `k`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `k == 0`.
    pub fn new(mem: &mut Memory, n: usize, k: u64) -> Self {
        assert!(n >= 1, "at least one process required");
        assert!(k >= 1, "accuracy factor k must be >= 1");
        SimApproxMaxRegister {
            cell: mem.alloc(0),
            n,
            k,
        }
    }

    /// The accuracy factor.
    pub fn k(&self) -> u64 {
        self.k
    }
}

impl SimMaxRegister for SimApproxMaxRegister {
    fn n(&self) -> usize {
        self.n
    }

    fn write_max(&self, _pid: ProcessId, v: u64) -> Machine {
        if v == 0 {
            return Machine::completed(0);
        }
        let (cell, code) = ([self.cell], encode(v, self.k) as Word);
        Machine::new(async move {
            raise(&cell[..], 0, code).await;
            0
        })
    }

    fn read_max(&self, _pid: ProcessId) -> Machine {
        let (cell, k) = (self.cell, self.k);
        Machine::new(async move {
            let code = access(Prim::Read(cell)).await;
            decode(code as u64, k) as Word
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruo_sim::run_solo;
    use std::sync::Arc;

    #[test]
    fn fresh_register_reads_zero() {
        assert_eq!(ApproxMaxRegister::new(4).read_max(), 0);
    }

    #[test]
    fn k1_is_exact() {
        let reg = ApproxMaxRegister::new(1);
        reg.write_max(ProcessId(0), 10);
        reg.write_max(ProcessId(1), 3);
        assert_eq!(reg.read_max(), 10);
        reg.write_max(ProcessId(0), 11);
        assert_eq!(reg.read_max(), 11);
    }

    #[test]
    fn reads_stay_in_the_k_envelope() {
        for k in [2u64, 3, 7] {
            let reg = ApproxMaxRegister::new(k);
            let mut max = 0u64;
            let mut v = 1u64;
            for _ in 0..40 {
                reg.write_max(ProcessId(0), v);
                max = max.max(v);
                let r = reg.read_max();
                assert!(r <= max, "overestimate at k={k}: {r} > {max}");
                assert!(
                    (r as u128) * (k as u128) >= max as u128,
                    "drift past k={k}: {r} vs {max}"
                );
                v = v.wrapping_mul(3).wrapping_add(1) % 1_000_000 + 1;
            }
        }
    }

    #[test]
    fn bucket_floors_are_powers_of_k() {
        let reg = ApproxMaxRegister::new(2);
        reg.write_max(ProcessId(0), 13);
        assert_eq!(reg.read_max(), 8);
        reg.write_max(ProcessId(0), 15); // same bucket — dominated
        assert_eq!(reg.read_max(), 8);
        reg.write_max(ProcessId(0), 16); // next bucket
        assert_eq!(reg.read_max(), 16);
    }

    #[test]
    fn encode_decode_round_trip_properties() {
        for k in [1u64, 2, 3, 10] {
            for v in [1u64, 2, 9, 10, 11, 99, 100, 101, 1 << 40, MAX_VALUE] {
                let r = decode(encode(v, k), k);
                assert!((1..=v).contains(&r), "k={k} v={v} r={r}");
                assert!(
                    (r as u128) * (k as u128) > v as u128 - 1,
                    "k={k} v={v} r={r}"
                );
            }
        }
    }

    #[test]
    fn reads_are_monotone_under_concurrency() {
        let reg = Arc::new(ApproxMaxRegister::new(3));
        std::thread::scope(|s| {
            for i in 0..4usize {
                let reg = Arc::clone(&reg);
                s.spawn(move || {
                    for v in 1..2000u64 {
                        reg.write_max(ProcessId(i), v * 4 + i as u64);
                    }
                });
            }
            let reg = Arc::clone(&reg);
            s.spawn(move || {
                let mut last = 0;
                for _ in 0..5000 {
                    let r = reg.read_max();
                    assert!(r >= last, "regressed from {last} to {r}");
                    last = r;
                }
            });
        });
        let max = 1999 * 4 + 3;
        let r = reg.read_max();
        assert!(r <= max && r * 3 >= max);
    }

    #[test]
    fn sim_face_matches_real_semantics() {
        let mut mem = Memory::new();
        let reg = SimApproxMaxRegister::new(&mut mem, 2, 2);
        let (r, steps) = run_solo(&mut mem, ProcessId(0), reg.read_max(ProcessId(0)));
        assert_eq!((r, steps), (0, 1));
        let (_, steps) = run_solo(&mut mem, ProcessId(0), reg.write_max(ProcessId(0), 13));
        assert_eq!(steps, 2, "fresh write: read + CAS");
        let (_, steps) = run_solo(&mut mem, ProcessId(1), reg.write_max(ProcessId(1), 9));
        assert_eq!(steps, 1, "dominated write is one read");
        let (r, steps) = run_solo(&mut mem, ProcessId(1), reg.read_max(ProcessId(1)));
        assert_eq!((r, steps), (8, 1));
    }

    #[test]
    fn sim_write_zero_is_free() {
        let mut mem = Memory::new();
        let reg = SimApproxMaxRegister::new(&mut mem, 1, 2);
        let (_, steps) = run_solo(&mut mem, ProcessId(0), reg.write_max(ProcessId(0), 0));
        assert_eq!(steps, 0);
    }
}
